"""Lockstep tree growth against the recursive grower it replaced.

``RecursiveTree`` keeps the per-node recursive ``_grow``, ``_best_split``
and ``_candidate_columns`` that fitted one tree at a time, and
``reference_forest`` the forest loop that fitted its trees one by one.  The
lockstep grower must give the same nodes and bit-equal importances on
tie-heavy inputs, and must fit trees far deeper than Python's recursion
limit and restore them from their state; ``train`` writes no model file
too deep for the JSON decoder to load.  ``fit_forests`` must give every forest of a mixed batch
the same bits as a fit on its own, whatever the caps.  ``walk_predict``
walks a tree's nested dict one row at a time; ``predict`` of fitted and of
loaded trees and forests must equal it.
"""

from __future__ import annotations

import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sca_reco import cli
from sca_reco.estimators import DecisionTreeClassifier, RandomForestClassifier, fit_forests, forest
from sca_reco.estimators.base import check_X_y
from sca_reco.estimators.tree import _class_sum
from sca_reco.recommend import RecommendationModel
from sca_reco.rng import derive_seed


class RecursiveTree:
    """The recursive CART grower: one node per call, one tree per fit."""

    def __init__(self, max_depth=None, min_samples_split=2, max_features=None, random_state=None):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.random_state = random_state

    def fit(self, X, y, n_classes=None):
        X, y, k = check_X_y(X, y, n_classes)
        self.n_classes_ = k
        self.feature_importances_ = np.zeros(X.shape[1])
        self._n_total = X.shape[0]
        rng = np.random.Generator(np.random.PCG64(derive_seed(self.random_state or 0)))
        self.tree_ = self._grow(X, y, np.arange(X.shape[0]), 0, rng)
        return self

    def _candidate_columns(self, X_node, rng):
        d = X_node.shape[1]
        if self.max_features is None or self.max_features >= d:
            order = np.arange(d)
            budget = d
        else:
            order = rng.permutation(d)
            budget = self.max_features
        mins = X_node.min(axis=0)
        maxs = X_node.max(axis=0)
        informative = [int(f) for f in order if mins[f] < maxs[f]]
        return informative[:budget]

    def _best_split(self, X_node, y_node, counts, parent_gini, columns):
        n = X_node.shape[0]
        sub = X_node[:, columns]
        order = np.argsort(sub, axis=0, kind="stable")
        xs = np.take_along_axis(sub, order, axis=0)
        valid = xs[1:] > xs[:-1]
        if not valid.any():
            return None
        ys = y_node[order]
        one_hot = np.eye(self.n_classes_, dtype=np.float64)[ys]
        left_counts = np.cumsum(one_hot, axis=0)[:-1]
        n_left = np.arange(1, n, dtype=np.float64)[:, None]
        n_right = n - n_left
        right_counts = counts[None, None, :] - left_counts
        gini_left = 1.0 - ((left_counts / n_left[..., None]) ** 2).sum(axis=2)
        gini_right = 1.0 - ((right_counts / n_right[..., None]) ** 2).sum(axis=2)
        weighted = (n_left * gini_left + n_right * gini_right) / n
        gains = np.where(valid, parent_gini - weighted, -np.inf)
        flat = int(np.argmax(gains.T))
        f_local, position = divmod(flat, n - 1)
        threshold = float((xs[position, f_local] + xs[position + 1, f_local]) / 2.0)
        return int(columns[f_local]), threshold, float(gains[position, f_local])

    def _grow(self, X, y, indices, depth, rng):
        y_node = y[indices]
        counts = np.bincount(y_node, minlength=self.n_classes_).astype(np.float64)
        majority = int(np.argmax(counts))
        n = indices.size
        parent_gini = 1.0 - ((counts / n) ** 2).sum()
        if (
            parent_gini == 0.0
            or n < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
        ):
            return {"class": majority}
        X_node = X[indices]
        columns = self._candidate_columns(X_node, rng)
        if not columns:
            return {"class": majority}
        split = self._best_split(X_node, y_node, counts, parent_gini, columns)
        if split is None:
            return {"class": majority}
        feature, threshold, gain = split
        self.feature_importances_[feature] += (n / self._n_total) * gain
        left_mask = X_node[:, feature] <= threshold
        return {
            "feature": feature,
            "threshold": threshold,
            "left": self._grow(X, y, indices[left_mask], depth + 1, rng),
            "right": self._grow(X, y, indices[~left_mask], depth + 1, rng),
        }


def reference_forest(
    X, y, k, n_estimators, max_features, bootstrap, max_depth, min_samples_split, seed
):
    """The forest fit as a loop of recursive trees; returns (trees, importances)."""
    n, d = X.shape
    per_split = max(1, int(math.sqrt(d))) if max_features == "sqrt" else max_features
    trees, importances = [], np.zeros(d)
    for t in range(n_estimators):
        boot_rng = np.random.Generator(np.random.PCG64(derive_seed(seed, t, 0)))
        rows = boot_rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        tree = RecursiveTree(max_depth, min_samples_split, per_split, derive_seed(seed, t, 1))
        tree.fit(X[rows], y[rows], n_classes=k)
        trees.append(tree)
        importances += tree.feature_importances_
    return trees, importances / n_estimators


def rendered(forest) -> list[dict]:
    """Each tree of a fitted forest as the nested dict of the model file."""
    return [forest.nodes_.render(t) for t in range(len(forest.nodes_.count))]


def bits(array) -> bytes:
    """Exact bytes of a float array, so -0.0 and 0.0 or one ulp differ."""
    return np.ascontiguousarray(array, dtype=np.float64).tobytes()


@st.composite
def tie_heavy_data(draw):
    """Few distinct values, duplicated rows, 2 to 10 classes."""
    n_distinct = draw(st.integers(1, 60))
    d = draw(st.integers(1, 6))
    k = draw(st.integers(2, 10))
    levels = draw(st.integers(1, 4))
    values = st.integers(0, levels).map(lambda v: v / 2.0)
    base = [
        (draw(st.lists(values, min_size=d, max_size=d)), draw(st.integers(0, k - 1)))
        for _ in range(n_distinct)
    ]
    picks = draw(st.lists(st.integers(0, n_distinct - 1), min_size=2, max_size=60))
    X = np.array([base[i][0] for i in picks], dtype=np.float64)
    y = np.array([base[i][1] for i in picks], dtype=np.int64)
    return X, y, k


MAX_FEATURES = st.sampled_from([None, 1, "sqrt", "d"])
MAX_DEPTH = st.sampled_from([None, 0, 1, 3])
MIN_SPLIT = st.sampled_from([2, 5])


def budget(max_features, d):
    if max_features == "sqrt":
        return max(1, int(math.sqrt(d)))
    return d if max_features == "d" else max_features


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tie_heavy_data(), MAX_FEATURES, MAX_DEPTH, MIN_SPLIT, st.integers(0, 2**32))
def test_tree_matches_recursive_grower(data, max_features, max_depth, min_split, seed):
    X, y, k = data
    params = dict(
        max_depth=max_depth,
        min_samples_split=min_split,
        max_features=budget(max_features, X.shape[1]),
        random_state=seed,
    )
    tree = DecisionTreeClassifier(**params).fit(X, y, n_classes=k)
    reference = RecursiveTree(**params).fit(X, y, n_classes=k)
    assert tree.tree_ == reference.tree_
    assert bits(tree.feature_importances_) == bits(reference.feature_importances_)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    tie_heavy_data(),
    MAX_FEATURES,
    MAX_DEPTH,
    MIN_SPLIT,
    st.booleans(),
    st.integers(1, 12),
    st.integers(0, 2**32),
)
def test_forest_matches_tree_by_tree_fit(
    data, max_features, max_depth, min_split, bootstrap, n_estimators, seed
):
    X, y, k = data
    width = X.shape[1] if max_features == "d" else max_features
    forest = RandomForestClassifier(
        n_estimators=n_estimators,
        max_features=width,
        bootstrap=bootstrap,
        max_depth=max_depth,
        min_samples_split=min_split,
        random_state=seed,
    ).fit(X, y, n_classes=k)
    trees, importances = reference_forest(
        X, y, k, n_estimators, width, bootstrap, max_depth, min_split, seed
    )
    assert rendered(forest) == [tree.tree_ for tree in trees]
    for importances_t, reference in zip(forest.tree_importances_, trees):
        assert bits(importances_t) == bits(reference.feature_importances_)
    assert bits(forest.feature_importances_) == bits(importances)


def test_forest_of_many_classes_matches_on_wide_sums():
    # 9 classes: numpy sums 8 or more terms pairwise, so the class axis order matters
    # (a copy that sums the classes in another order fails here)
    rng = np.random.default_rng(5)
    X = rng.integers(0, 6, size=(120, 5)) / 5.0
    y = rng.integers(0, 9, size=120)
    forest = RandomForestClassifier(n_estimators=30, random_state=7).fit(X, y, n_classes=9)
    trees, importances = reference_forest(X, y, 9, 30, "sqrt", True, None, 2, 7)
    assert rendered(forest) == [tree.tree_ for tree in trees]
    assert bits(forest.feature_importances_) == bits(importances)


# (rows, features, classes) on both sides of each limit of the types that
# growth narrows: node ids fit uint8 up to 128 rows (a row a class, so each
# tree has all 2 * rows - 1 nodes), row counts up to 255 rows, value ranks
# and row positions up to 256; labels up to 256 classes; and feature ids
# fit int8 up to 128 features (only the last feature varies there, so every
# split takes the largest id)
NARROWED_TYPE_LIMITS = [
    (128, 3, 128), (129, 3, 129), (255, 3, 3), (256, 3, 3), (257, 3, 3),
    (257, 2, 256), (257, 2, 257), (20, 128, 3), (20, 129, 3),
]


@pytest.mark.parametrize("n, d, k", NARROWED_TYPE_LIMITS)
def test_fits_match_on_both_sides_of_each_narrowed_type(n, d, k, monkeypatch):
    rng = np.random.default_rng(n * d * k)
    X = rng.permutation(n * d).reshape(n, d) / 8.0  # every value distinct
    if d > 3:
        X[:, :-1] = 0.0
    y = (np.arange(n) if k > 3 else rng.integers(0, k, size=n)) % k
    per_split = max(1, int(math.sqrt(d)))
    tree = DecisionTreeClassifier(max_features=per_split, random_state=n).fit(X, y, n_classes=k)
    reference = RecursiveTree(max_features=per_split, random_state=n).fit(X, y, n_classes=k)
    assert tree.tree_ == reference.tree_
    assert bits(tree.feature_importances_) == bits(reference.feature_importances_)
    alone = [
        RandomForestClassifier(n_estimators=3, random_state=n).fit(data, y, n_classes=k)
        for data in (X, 2.0 - X)
    ]
    trees, importances = reference_forest(X, y, k, 3, "sqrt", True, None, 2, n)
    assert rendered(alone[0]) == [tree.tree_ for tree in trees]
    assert bits(alone[0].feature_importances_) == bits(importances)
    # both forests share one lockstep, and each comes out as if fitted alone
    monkeypatch.setattr(forest, "SHARED_CELLS", forest.BATCH_CELLS)
    together = fit_forests(
        [RandomForestClassifier(n_estimators=3, random_state=n) for _ in alone],
        [X, 2.0 - X], [y, y], [k, k],
    )
    for shared, single in zip(together, alone, strict=True):
        assert rendered(shared) == rendered(single)
        assert bits(shared.tree_importances_) == bits(single.tree_importances_)


def test_class_sum_has_the_bits_of_numpy_sum_over_the_last_axis():
    # the split search adds class planes; numpy's sum over a class-last axis
    # is pairwise from 8 terms, so a running sum over 8 or more planes differs
    rng = np.random.default_rng(11)
    for k in [*range(2, 41), 128, 129, 200]:
        shares = rng.random((k, 30, 4)) * (rng.random((k, 30, 4)) < 0.6)  # zeros included
        planes = shares**2
        expected = np.ascontiguousarray(np.moveaxis(planes, 0, -1)).sum(axis=-1)
        assert bits(_class_sum(planes)) == bits(expected), k


def test_forest_grown_in_small_batches_is_the_same(monkeypatch):
    rng = np.random.default_rng(3)
    X = rng.integers(0, 5, size=(30, 4)) / 4.0
    y = rng.integers(0, 3, size=30)
    whole = RandomForestClassifier(n_estimators=7, random_state=1).fit(X, y)
    monkeypatch.setattr(forest, "BATCH_CELLS", 2 * 30 * 4 * 3)  # two trees per lockstep
    batched = RandomForestClassifier(n_estimators=7, random_state=1).fit(X, y)
    assert rendered(batched) == rendered(whole)
    assert bits(batched.feature_importances_) == bits(whole.feature_importances_)


FOREST_SETTINGS = st.fixed_dictionaries(
    {
        "n_estimators": st.integers(1, 6),
        "max_features": st.sampled_from(["sqrt", 1, 2, 7, None]),
        "bootstrap": st.booleans(),
        "max_depth": st.sampled_from([None, 1, 3]),
        "min_samples_split": st.sampled_from([2, 5]),
        "random_state": st.sampled_from([None, 0, 1, 2**40]),
    }
)


@st.composite
def forest_batch(draw):
    """1 to 8 forests picked from at most 3 data sets (each also mirrored:
    the same shape with other values) and at most 3 settings, so runs of
    equal shape, shared bootstrap draws over different data, and forests
    that repeat a seed with another shape all occur."""
    datasets = draw(st.lists(tie_heavy_data(), min_size=1, max_size=3))
    settings_list = draw(st.lists(FOREST_SETTINGS, min_size=1, max_size=3))
    picks = draw(
        st.lists(
            st.tuples(
                st.sampled_from(range(len(datasets))),
                st.booleans(),
                st.sampled_from(range(len(settings_list))),
            ),
            min_size=1,
            max_size=8,
        )
    )
    batch = []
    for data, mirrored, setting in picks:
        X, y, k = datasets[data]
        batch.append((2.0 - X if mirrored else X, y, k, settings_list[setting]))
    return batch


TREES_PER_CAP = st.one_of(st.none(), st.integers(1, 7))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(forest_batch(), TREES_PER_CAP, TREES_PER_CAP)
def test_forest_batch_matches_forests_fitted_alone(batch, shared_trees, lockstep_trees):
    """Each cap is drawn as a number of trees of the first forest's shape
    (None keeps the default): ``SHARED_CELLS`` decides which forests grow
    together and ``BATCH_CELLS`` where a lockstep ends, so boundaries fall
    between forests and inside them."""
    alone = [
        RandomForestClassifier(**setting).fit(X, y, n_classes=k) for X, y, k, setting in batch
    ]
    X, _, k, _ = batch[0]
    caps = {
        name: getattr(forest, name) if trees is None else trees * X.size * k
        for name, trees in (("SHARED_CELLS", shared_trees), ("BATCH_CELLS", lockstep_trees))
    }
    with mock.patch.multiple(forest, **caps):
        together = list(
            fit_forests(
                [RandomForestClassifier(**setting) for *_, setting in batch],
                *zip(*[(X, y, k) for X, y, k, _ in batch]),
            )
        )
    assert len(together) == len(alone)
    for shared, single in zip(together, alone):
        assert rendered(shared) == rendered(single)
        assert bits(shared.tree_importances_) == bits(single.tree_importances_)
        assert bits(shared.feature_importances_) == bits(single.feature_importances_)
        assert (shared.n_classes_, shared.n_features_) == (single.n_classes_, single.n_features_)


def test_rfe_cv_shaped_batch_draws_each_bootstrap_once(monkeypatch):
    """8 feature-set sizes x 8 folds, as RFE-CV fits them: fold ``f`` has
    the same seed and rows at every size, so the batch draws 8 bootstraps,
    not 64.  The folds of one size have equal rows and grow in one
    lockstep, and the forests come back in input order, each size's as
    soon as its lockstep completes, before the next size is grown."""
    bootstraps, locksteps = [], []
    original_integers, original_lockstep = forest.pcg64_integers, forest.fit_lockstep

    def counted_integers(seeds, n):
        bootstraps.append(len(seeds))
        return original_integers(seeds, n)

    def counted_lockstep(X, y, rows, *args):
        locksteps.append((*rows.shape, X.shape[2]))  # (trees, rows, features)
        return original_lockstep(X, y, rows, *args)

    monkeypatch.setattr(forest, "pcg64_integers", counted_integers)
    monkeypatch.setattr(forest, "fit_lockstep", counted_lockstep)
    rng = np.random.default_rng(11)
    X, y = rng.normal(size=(24, 8)), np.arange(24) % 3
    folds = [np.flatnonzero(np.arange(24) % 8 != f) for f in range(8)]  # 21 rows each
    forests, Xs, ys = [], [], []
    for size in range(8, 0, -1):
        for f, rows in enumerate(folds):
            forests.append(RandomForestClassifier(n_estimators=10, random_state=derive_seed(0, f)))
            Xs.append(X[rows, :size])
            ys.append(y[rows])
    fitted = fit_forests(forests, Xs, ys, [3] * len(forests))
    first = [next(fitted) for _ in range(8)]
    assert locksteps == [(80, 21, 8)]
    rest = list(fitted)
    assert [built is model for built, model in zip(forests, first + rest)] == [True] * 64
    assert bootstraps == [10] * 8
    assert locksteps == [(80, 21, size) for size in range(8, 0, -1)]


def batch_peak_and_locksteps(monkeypatch) -> tuple[int, int]:
    """Peak traced memory of 37 default forests fitted in one batch at
    21 rows x 8 features x 3 classes, with each forest dropped as it comes,
    and the number of locksteps that grow them."""
    locksteps = []
    original = forest.fit_lockstep

    def counted(*args):
        locksteps.append(None)
        return original(*args)

    rng = np.random.default_rng(7)
    X, y = rng.normal(size=(21, 8)), np.arange(21) % 3
    RandomForestClassifier(n_estimators=2).fit(X, y)  # import numpy.random before measuring
    monkeypatch.setattr(forest, "fit_lockstep", counted)
    tracemalloc.start()
    try:
        for _ in fit_forests(
            (RandomForestClassifier(random_state=seed) for seed in range(37)),
            [X] * 37,
            [y] * 37,
            [3] * 37,
        ):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, len(locksteps)


def test_forest_batch_memory_is_bounded_by_a_group(monkeypatch):
    """At ``SHARED_CELLS = 1 << 18`` (five forests a lockstep, 8 locksteps)
    the peak of ``batch_peak_and_locksteps`` measured 2.97 MB (numpy 2.4,
    x86-64 Linux); the bound is 3.1 MiB.  Before growth narrowed its arrays
    and searched the root step in parts, the peak was 2.69 MB at
    ``1 << 17`` and 6.50 MB at ``1 << 18``.  A cap of ``1 << 19`` peaks at
    5.78 MB, growing the whole batch in one lockstep more still, and holding
    every fitted forest until the batch ends 5.63 MB, so each of those
    would fail here.  numpy reports its array buffers to
    tracemalloc, so the peak counts the lockstep's arrays and the fitted
    node arrays.
    """
    peak, locksteps = batch_peak_and_locksteps(monkeypatch)
    assert locksteps == 8
    assert peak <= 3.1 * 2**20


def test_forest_batch_at_half_the_cap_takes_19_locksteps(monkeypatch):
    # two forests a lockstep; the peak measured 1.32 MB
    monkeypatch.setattr(forest, "SHARED_CELLS", 1 << 17)
    peak, locksteps = batch_peak_and_locksteps(monkeypatch)
    assert locksteps == 19
    assert peak <= 3.1 * 2**20


def test_deep_tree_fits_without_recursion():
    # alternating labels on a sorted column: every split peels off one row,
    # so the tree is about 1,500 levels deep
    n = 1500
    X = np.arange(n, dtype=np.float64)[:, None]
    y = np.arange(n) % 2
    tree = DecisionTreeClassifier().fit(X, y)
    assert (tree.predict(X) == y).all()
    depth, node = 0, tree.tree_
    while "feature" in node:
        depth, node = depth + 1, node["right"]
    assert depth >= n - 2


@pytest.mark.parametrize(
    "make",
    [
        DecisionTreeClassifier,
        lambda: RandomForestClassifier(n_estimators=2, max_features=None, bootstrap=False),
    ],
    ids=["dt", "rf"],
)
def test_deep_tree_state_round_trips_without_json(make):
    """A state too deep for the JSON decoder still renders and parses: the
    1,500-level tree loaded from its state predicts as the fitted one."""
    n = 1500
    X = np.arange(n, dtype=np.float64)[:, None]
    y = np.arange(n) % 2
    fitted = make().fit(X, y)
    assert fitted.nodes_.depth.min() >= n - 2
    loaded = make().load_fitted_state(fitted.get_fitted_state())
    assert (loaded.nodes_.depth == fitted.nodes_.depth).all()
    probe = np.vstack([X, [[-1.0], [n + 1.0], [n / 2 + 0.25]]])
    assert (loaded.predict(probe) == fitted.predict(probe)).all()


DEEP_SCAS = ("alpha", "beta")


def train_deep_tree(tmp_path, n: int):
    """``train --model dt`` on ``n`` projects whose one feature orders them
    and whose best analyzer alternates, so every split of the tree peels
    off one project; returns the exit code and the paths of the model and
    the features."""
    evaluations, features = tmp_path / "evaluations.jsonl", tmp_path / "features.csv"
    records = [
        {
            "project": f"p{i}",
            "beta": "1",
            "scores": [
                {"sca": sca, "tp": int(j == i % 2), "fp": 0, "union_actionable": 1}
                for j, sca in enumerate(DEEP_SCAS)
            ],
            "optimal": [DEEP_SCAS[i % 2]],
        }
        for i in range(n)
    ]
    evaluations.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    features.write_text(
        "project,f0\n" + "".join(f"p{i},{i}\n" for i in range(n)), encoding="utf-8"
    )
    model = tmp_path / "model.json"
    argv = ["train", "--evaluations", str(evaluations), "--features", str(features)]
    return cli.main(argv + ["--model", "dt", "--out", str(model)]), model, features


def recommend_lines(model, features, capsys) -> list[str]:
    capsys.readouterr()
    assert cli.main(["recommend", "--model-file", str(model), "--features", str(features)]) == 0
    return capsys.readouterr().out.splitlines()


def test_deep_tree_model_loads_or_is_refused(tmp_path, capsys):
    """Every model file that ``train`` writes, ``recommend`` loads: a tree
    too deep for the JSON encoder, whose recursion limit the decoder
    shares, makes ``train`` exit 2 naming ``--out``, and no file is written.
    At Python's default recursion limit of 1,000 this 1,500-level tree is
    refused."""
    n = 1500
    rc, model, features = train_deep_tree(tmp_path, n)
    if rc == 2:
        assert f"{model}: " in capsys.readouterr().err
        assert not model.exists()
    else:
        assert rc == 0
        expected = [f"p{i}\t{DEEP_SCAS[i % 2]}" for i in range(n)]
        assert recommend_lines(model, features, capsys) == expected


def test_deep_tree_model_of_500_levels_saves_and_loads(tmp_path, capsys):
    n = 500
    rc, model, features = train_deep_tree(tmp_path, n)
    assert rc == 0
    assert RecommendationModel.load(model).estimator.nodes_.depth[0] >= n - 2
    # the tree fits every project, so its recommendations are the labels
    expected = [f"p{i}\t{DEEP_SCAS[i % 2]}" for i in range(n)]
    assert recommend_lines(model, features, capsys) == expected


def walk_predict(root, X):
    """Each row's leaf class, found by walking the nested dict from the root."""
    predictions = []
    for row in X:
        node = root
        while "feature" in node:
            node = node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]
        predictions.append(node["class"])
    return np.array(predictions, dtype=np.int64)


def vote_predict(roots, X, k):
    """The forest vote over ``walk_predict``; ties go to the lowest class."""
    votes = np.zeros((len(X), k), dtype=np.int64)
    for root in roots:
        votes[np.arange(len(X)), walk_predict(root, X)] += 1
    return votes.argmax(axis=1)


# quarters hit the data values (halves), the thresholds between them and
# values outside the range
PROBE_ROWS = st.lists(st.lists(st.integers(-1, 9).map(lambda v: v / 4.0), min_size=6, max_size=6))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tie_heavy_data(), MAX_FEATURES, MAX_DEPTH, PROBE_ROWS, st.integers(0, 2**32))
def test_tree_predict_equals_the_nested_walk(data, max_features, max_depth, probes, seed):
    X, y, k = data
    d = X.shape[1]
    rows = np.vstack([X, np.array(probes, dtype=np.float64).reshape(-1, 6)[:, :d]])
    fitted = DecisionTreeClassifier(
        max_depth=max_depth, max_features=budget(max_features, d), random_state=seed
    ).fit(X, y, n_classes=k)
    state = json.loads(json.dumps(fitted.get_fitted_state()))
    loaded = DecisionTreeClassifier().load_fitted_state(state)
    expected = walk_predict(state["tree"], rows)
    assert (fitted.predict(rows) == expected).all()
    assert (loaded.predict(rows) == expected).all()


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tie_heavy_data(), MAX_DEPTH, st.integers(1, 12), PROBE_ROWS, st.integers(0, 2**32))
def test_forest_predict_equals_the_nested_vote(data, max_depth, n_estimators, probes, seed):
    X, y, k = data
    d = X.shape[1]
    rows = np.vstack([X, np.array(probes, dtype=np.float64).reshape(-1, 6)[:, :d]])
    fitted = RandomForestClassifier(
        n_estimators=n_estimators, max_depth=max_depth, random_state=seed
    ).fit(X, y, n_classes=k)
    state = json.loads(json.dumps(fitted.get_fitted_state()))
    loaded = RandomForestClassifier().load_fitted_state(state)
    expected = vote_predict([tree["tree"] for tree in state["trees"]], rows, k)
    assert (fitted.predict(rows) == expected).all()
    assert (loaded.predict(rows) == expected).all()
