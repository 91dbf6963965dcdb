"""Random forest: bagged Gini trees with per-split feature subsampling.

``fit_forests`` fits a batch of forests: the single forest of
``RandomForestClassifier.fit`` or, say, every fold of a cross-validation.
Forests that share ``random_state``, ``n_estimators``, row count and
``bootstrap`` share one bootstrap draw, made when the first of them is
grown.  Consecutive forests of equal shape (rows, features, classes,
per-split budget, ``max_depth``, ``min_samples_split``) form a run.  A run
is cut into groups of whole forests whose trees stay within
``SHARED_CELLS``, and ``tree.fit_lockstep`` grows the trees of a group side
by side, one vectorized split search per step across all of them, so small
forests share the cost of a step.  The group's data is stacked once, a
block per forest, and each tree grows from its sample's row indices into
it, with no copy of its rows.  A forest above ``SHARED_CELLS`` grows
alone and whole: at a few hundred rows a lockstep gains nothing from more
trees, and splitting a forest across locksteps adds steps.  Only a forest
above ``BATCH_CELLS`` grows in several locksteps, which bounds memory.

Tree ``t``'s sample is the ``integers(0, n, size=n)`` of a generator
seeded with ``derive_seed(random_state, t, 0)``; ``seeding.pcg64_integers``
computes the samples of all of a forest's trees at once from raw PCG64
words, draw for draw as numpy would.  Each tree draws its splits from its
own seeded stream, in its own depth-first order, so every tree, and the
importances summed over them in tree order, come out the same as when each
tree was fitted on its own.

The fitted trees are rows of one set of flat node arrays (``tree.Nodes``);
``predict`` descends all trees for all rows at once and counts the votes.
``get_fitted_state`` renders the trees one by one from those arrays, and
``load_fitted_state`` checks each saved tree and stacks their arrays.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from typing import NamedTuple

import numpy as np

from ..core import RecordSpec, read_record
from .seeding import derive_seeds, pcg64_integers
from .base import check_array, check_count, check_is_fitted, check_X_y
from .tree import TREE_STATE, Nodes, fit_lockstep

# caps on rows x features x classes summed over the trees of one lockstep,
# which bound the memory of its per-step arrays and of the fitted forests a
# group hands on together: forests grow together only within SHARED_CELLS,
# and a forest alone above BATCH_CELLS grows in several locksteps
SHARED_CELLS = 1 << 18
BATCH_CELLS = 1 << 22

# a saved forest's fitted state; each of its trees is a tree.TREE_STATE
FOREST_STATE = RecordSpec(("n_classes", int), ("n_features", int), ("trees", list))


class RandomForestClassifier:
    """Majority vote over bootstrap-trained trees.

    Each tree draws n rows with replacement (unless ``bootstrap`` is off)
    and examines sqrt(d) features per split.  Tree seeds derive from
    ``random_state`` and the tree index, so fits are reproducible and
    independent of execution order.  Vote ties go to the smallest class
    index.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_features: str | int | None = "sqrt",
        bootstrap: bool = True,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        random_state: int | None = None,
    ):
        self.n_estimators = check_count("n_estimators", n_estimators, 1)
        if max_features not in (None, "sqrt"):
            max_features = check_count("max_features", max_features, 1)
        self.max_features = max_features
        if not isinstance(bootstrap, bool):
            raise ValueError(f"bootstrap must be a bool, got {bootstrap!r}")
        self.bootstrap = bootstrap
        if max_depth is not None:
            max_depth = check_count("max_depth", max_depth, 0)
        self.max_depth = max_depth
        self.min_samples_split = check_count("min_samples_split", min_samples_split, 2)
        self.random_state = random_state
        self.nodes_ = None
        self.n_classes_ = None
        self.n_features_ = None
        self.tree_importances_ = None
        self.feature_importances_ = None

    def fit(self, X, y, n_classes: int | None = None) -> "RandomForestClassifier":
        return next(fit_forests([self], [X], [y], [n_classes]))

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, "nodes_")
        X = check_array(X)
        k = self.n_classes_
        votes = self.nodes_.classes(X) + np.arange(X.shape[0]) * k
        counts = np.bincount(votes.ravel(), minlength=X.shape[0] * k)
        return counts.reshape(X.shape[0], k).argmax(axis=1).astype(np.int64)

    def get_fitted_state(self) -> dict:
        check_is_fitted(self, "nodes_")
        return {
            "n_classes": int(self.n_classes_),
            "n_features": int(self.n_features_),
            "trees": [
                self.nodes_.state(t, self.n_classes_, self.n_features_)
                for t in range(len(self.nodes_.count))
            ],
        }

    def load_fitted_state(self, state: dict) -> "RandomForestClassifier":
        self.n_classes_, self.n_features_, tree_states = read_record(state, FOREST_STATE, "state")
        fitted = (self.n_classes_, self.n_features_)
        trees = [
            read_record(tree_state, TREE_STATE, "state: tree %d", i)
            for i, tree_state in enumerate(tree_states)
        ]
        if not trees or any((n_classes, n_features) != fitted for n_classes, n_features, _ in trees):
            raise ValueError("a forest needs trees fitted on its classes and features")
        self.nodes_ = Nodes.stack(
            [Nodes.parse(root, self.n_features_, self.n_classes_) for *_, root in trees]
        )
        self.tree_importances_ = None
        return self


def fit_forests(forests, Xs, ys, n_classes):
    """Fit each forest on its ``X``, ``y`` and class count (``None`` for one
    more than the largest label), and yield the forests in order, each as
    soon as the group that grows it completes.

    A group is grown only when the caller asks for its first forest, so a
    caller that drops each forest before asking for the next holds at most
    one group of fitted forests.  Every forest comes out as if fitted alone,
    so the batch never changes a model.
    """
    fits = deque()
    for forest, X, y, k in zip(forests, Xs, ys, n_classes):
        X, y, k = check_X_y(X, y, k)
        draw = (forest.random_state or 0, forest.n_estimators, len(y), forest.bootstrap)
        fits.append(_Fit(forest, X, y, draw, _shape(forest, X, k)))
    draws = _Draws([fit.draw for fit in fits])
    # groups: runs of consecutive forests of one shape, cut where their
    # trees would pass SHARED_CELLS
    group, cells = [], 0
    for fit in _popped(fits):
        n, d, k = fit.shape[:3]
        fit_cells = fit.forest.n_estimators * n * d * k
        if group and (fit.shape != group[0].shape or cells + fit_cells > SHARED_CELLS):
            yield from _fit_group(group, draws)
            group, cells = [], 0
        group.append(fit)
        cells += fit_cells
    if group:
        yield from _fit_group(group, draws)


class _Fit(NamedTuple):
    forest: RandomForestClassifier
    X: np.ndarray  # checked
    y: np.ndarray
    draw: tuple  # (seed, trees, rows, bootstrap): forests with equal draws share samples
    shape: tuple  # forests with equal shapes may share a lockstep (see _shape)


def _popped(fits: deque):
    """The items of ``fits``, each taken out as it is reached, so that a
    forest already yielded is not held here."""
    while fits:
        yield fits.popleft()


def _shape(forest: RandomForestClassifier, X, k: int) -> tuple:
    """What forests must share to grow in one lockstep: rows, features,
    classes, per-split budget (``d`` when every split examines every
    feature), ``max_depth`` and ``min_samples_split``."""
    n, d = X.shape
    per_split = max(1, int(math.sqrt(d))) if forest.max_features == "sqrt" else forest.max_features
    budget = d if per_split is None else min(per_split, d)
    return n, d, k, budget, forest.max_depth, forest.min_samples_split


class _Draws:
    """The sample rows of each distinct draw, made on its first use and let
    go after its last."""

    def __init__(self, draws):
        self.uses = Counter(draws)
        self.samples = {}

    def take(self, draw) -> np.ndarray:
        samples = self.samples.get(draw)
        if samples is None:
            samples = self.samples[draw] = _bootstrap(*draw)
        self.uses[draw] -= 1
        if not self.uses[draw]:
            del self.samples[draw]
        return samples


def _bootstrap(seed, n_trees: int, n: int, bootstrap: bool) -> np.ndarray:
    """Each tree's sample rows, (trees, rows): tree ``t`` draws ``n`` rows
    with replacement from the stream of ``derive_seed(seed, t, 0)``."""
    if not bootstrap:
        return np.broadcast_to(np.arange(n), (n_trees, n))
    return pcg64_integers(derive_seeds(seed, np.arange(n_trees), 0), n)


def _fit_group(group, draws):
    """Grow the trees of ``group``'s forests, which share one shape, side by
    side in locksteps of at most ``BATCH_CELLS`` cells, and yield the
    forests in order."""
    n, d, k, budget, max_depth, min_samples_split = group[0].shape
    # the group's X and y stacked as blocks, and every tree's sample as rows of them
    X, y = np.stack([fit.X for fit in group]), np.stack([fit.y for fit in group])
    rows = np.concatenate([draws.take(fit.draw) + i * n for i, fit in enumerate(group)])
    seeds = np.concatenate(
        [derive_seeds(fit.draw[0], np.arange(fit.forest.n_estimators), 1) for fit in group]
    )
    step = max(1, BATCH_CELLS // (n * d * k))
    grown = [
        fit_lockstep(
            X, y, rows[start : start + step], k,
            seeds[start : start + step], budget, max_depth, min_samples_split,
        )
        for start in range(0, len(rows), step)
    ]
    nodes = Nodes.stack([part for part, _ in grown])
    importances = np.concatenate([part for _, part in grown])
    start = 0
    for fit in group:
        forest, trees = fit.forest, slice(start, start + fit.forest.n_estimators)
        # a copy with room for the forest's largest tree only
        forest.nodes_ = Nodes.stack([Nodes(*(array[trees] for array in nodes))])
        forest.tree_importances_ = importances[trees].copy()
        forest.n_classes_ = k
        forest.n_features_ = d
        # one tree after another, as cumsum adds: a pairwise sum would round differently
        forest.feature_importances_ = (
            np.cumsum(forest.tree_importances_, axis=0)[-1] / forest.n_estimators
        )
        yield forest
        start = trees.stop
