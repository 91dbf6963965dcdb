"""Lockstep tree growth against the recursive grower it replaced.

``RecursiveTree`` keeps the per-node recursive ``_grow``, ``_best_split``
and ``_candidate_columns`` that fitted one tree at a time, and
``reference_forest`` the forest loop that fitted its trees one by one.  The
lockstep grower must give the same nodes and bit-equal importances on
tie-heavy inputs, and must fit and save trees far deeper than Python's
recursion limit.  ``walk_predict`` walks a tree's nested dict one row at a
time; ``predict`` of fitted and of loaded trees and forests must equal it.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import reference_dumps
from sca_reco import cli
from sca_reco.estimators import DecisionTreeClassifier, RandomForestClassifier, tree
from sca_reco.estimators.base import check_X_y
from sca_reco.features import PreferenceDataset
from sca_reco.recommend import MODEL_FILE_VERSION, ModelKind, train
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
    assert [tree.tree_ for tree in forest.trees_] == [tree.tree_ for tree in trees]
    for tree, reference in zip(forest.trees_, trees):
        assert bits(tree.feature_importances_) == bits(reference.feature_importances_)
    assert bits(forest.feature_importances_) == bits(importances)


def test_forest_of_many_classes_matches_on_wide_sums():
    # 9 classes: numpy sums 8 or more terms pairwise, so the class axis order matters
    # (a copy that sums the classes in another order fails here)
    rng = np.random.default_rng(5)
    X = rng.integers(0, 6, size=(120, 5)) / 5.0
    y = rng.integers(0, 9, size=120)
    forest = RandomForestClassifier(n_estimators=30, random_state=7).fit(X, y, n_classes=9)
    trees, importances = reference_forest(X, y, 9, 30, "sqrt", True, None, 2, 7)
    assert [tree.tree_ for tree in forest.trees_] == [tree.tree_ for tree in trees]
    assert bits(forest.feature_importances_) == bits(importances)


def test_forest_grown_in_small_batches_is_the_same(monkeypatch):
    rng = np.random.default_rng(3)
    X = rng.integers(0, 5, size=(30, 4)) / 4.0
    y = rng.integers(0, 3, size=30)
    whole = RandomForestClassifier(n_estimators=7, random_state=1).fit(X, y)
    monkeypatch.setattr(tree, "BATCH_CELLS", 2 * 30 * 4 * 3)  # two trees per batch
    batched = RandomForestClassifier(n_estimators=7, random_state=1).fit(X, y)
    assert [t.tree_ for t in batched.trees_] == [t.tree_ for t in whole.trees_]
    assert bits(batched.feature_importances_) == bits(whole.feature_importances_)


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
    fresh = DecisionTreeClassifier().load_fitted_state(tree.get_fitted_state())
    assert (fresh.predict(X) == y).all()
    probe = np.array([[-1.0], [n + 1.0], [n / 2 + 0.25]])
    assert (fresh.predict(probe) == tree.predict(probe)).all()


def test_deep_tree_model_saves_and_round_trips(tmp_path, capsys):
    n = 1500
    dataset = PreferenceDataset(
        feature_names=("f0",),
        project_ids=tuple(f"p{i}" for i in range(n)),
        matrix=np.arange(n, dtype=np.float64)[:, None],
        label_sets=tuple((("alpha",), ("beta",))[i % 2] for i in range(n)),
        sca_order=("alpha", "beta"),
    )
    model = train(dataset, ModelKind.DT)
    path = tmp_path / "deep.json"
    model.save(path)
    text = path.read_text(encoding="utf-8")
    document = {
        "version": MODEL_FILE_VERSION,
        "kind": "dt",
        "hyperparams": model.hyperparams,
        "feature_names": ["f0"],
        "standardization": model.scaler.get_fitted_state(),
        "params": {"classes": ["alpha", "beta"], "state": model.estimator.get_fitted_state()},
        "seed": 0,
    }
    assert text == reference_dumps(document) + "\n"
    # the decoder recurses, so loading this file fails as bad data naming it
    assert cli.main(["recommend", "--model-file", str(path), "--features", "unread.csv"]) == 2
    assert str(path) in capsys.readouterr().err
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20_000)
    try:
        state = json.loads(text)["params"]["state"]
    finally:
        sys.setrecursionlimit(limit)
    loaded = DecisionTreeClassifier().load_fitted_state(state)
    X = model.scaler.transform(dataset.matrix)
    assert (loaded.predict(X) == model.estimator.predict(X)).all()
    assert (loaded.predict(X) == np.arange(n) % 2).all()


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
