"""Random forest: bagged Gini trees with per-split feature subsampling.

``fit`` draws every tree's bootstrap sample and hands them all to
``tree.fit_lockstep``, which grows the trees side by side, one vectorized
split search per step across all of them.  The bootstrap generators of all
trees are built in one batch (``seeding.pcg64_generators``), and each tree
still draws its sample with ``integers(0, n, size=n)`` and its splits from
its own seeded stream, in its own depth-first order, so every tree, and the
importances summed over them in tree order, come out the same as when each
tree was fitted on its own.

The fitted trees are rows of one set of flat node arrays (``tree.Nodes``);
``predict`` descends all trees for all rows at once and counts the votes.
``trees_`` and ``get_fitted_state`` render the trees one by one, and
``load_fitted_state`` checks each saved tree and stacks their arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .seeding import derive_seeds, pcg64_generators
from .base import check_array, check_count, check_is_fitted, check_X_y
from .tree import DecisionTreeClassifier, Nodes, fit_lockstep


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

    @property
    def trees_(self) -> list[DecisionTreeClassifier] | None:
        """Each fitted tree as a ``DecisionTreeClassifier``, made anew on
        every read; a loaded forest's trees have no importances."""
        if self.nodes_ is None:
            return None
        trees = []
        for t in range(len(self.nodes_.count)):
            tree = DecisionTreeClassifier(self.max_depth, self.min_samples_split)
            tree.nodes_ = self.nodes_.tree(t)
            tree.n_classes_, tree.n_features_ = self.n_classes_, self.n_features_
            if self.tree_importances_ is not None:
                tree.feature_importances_ = self.tree_importances_[t]
            trees.append(tree)
        return trees

    def fit(self, X, y, n_classes: int | None = None) -> "RandomForestClassifier":
        X, y, k = check_X_y(X, y, n_classes)
        n, d = X.shape
        # a tree examines every feature when its budget reaches d
        per_split = max(1, int(math.sqrt(d))) if self.max_features == "sqrt" else self.max_features
        seed = self.random_state or 0
        trees = np.arange(self.n_estimators)
        if self.bootstrap:
            samples = np.empty((self.n_estimators, n), dtype=np.int64)
            for t, boot_rng in enumerate(pcg64_generators(derive_seeds(seed, trees, 0))):
                samples[t] = boot_rng.integers(0, n, size=n)
        else:
            samples = np.broadcast_to(np.arange(n), (self.n_estimators, n))
        self.nodes_, self.tree_importances_ = fit_lockstep(
            X, y, k, samples, derive_seeds(seed, trees, 1),
            per_split, self.max_depth, self.min_samples_split,
        )
        self.n_classes_ = k
        self.n_features_ = d
        # one tree after another, as cumsum adds: a pairwise sum would round differently
        self.feature_importances_ = np.cumsum(self.tree_importances_, axis=0)[-1] / self.n_estimators
        return self

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
            "trees": [tree.get_fitted_state() for tree in self.trees_],
        }

    def load_fitted_state(self, state: dict) -> "RandomForestClassifier":
        self.n_classes_ = int(state["n_classes"])
        self.n_features_ = int(state["n_features"])
        trees = [
            DecisionTreeClassifier().load_fitted_state(tree_state)
            for tree_state in state["trees"]
        ]
        fitted = (self.n_classes_, self.n_features_)
        if not trees or any((t.n_classes_, t.n_features_) != fitted for t in trees):
            raise ValueError("a forest needs trees fitted on its classes and features")
        self.nodes_ = Nodes.stack([tree.nodes_ for tree in trees])
        self.tree_importances_ = None
        return self
