"""Random forest: bagged Gini trees with per-split feature subsampling.

``fit`` hands all bootstrap samples to ``tree.fit_lockstep``, which grows
the trees side by side, one vectorized split search per step across all
of them.  Each tree still draws from its own seeded stream, in its own
depth-first order, so every tree, and the importances summed over them in
tree order, come out the same as when each tree was fitted on its own.
"""

from __future__ import annotations

import math

import numpy as np

from ..rng import derive_seed
from .base import check_array, check_count, check_is_fitted, check_X_y
from .tree import DecisionTreeClassifier, fit_lockstep


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
        self.bootstrap = bootstrap
        self.max_depth = max_depth
        self.min_samples_split = check_count("min_samples_split", min_samples_split, 2)
        self.random_state = random_state
        self.trees_ = None
        self.n_classes_ = None
        self.n_features_ = None
        self.feature_importances_ = None

    def fit(self, X, y, n_classes: int | None = None) -> "RandomForestClassifier":
        X, y, k = check_X_y(X, y, n_classes)
        n, d = X.shape
        self.n_classes_ = k
        self.n_features_ = d
        # a tree examines every feature when its budget reaches d
        per_split = max(1, int(math.sqrt(d))) if self.max_features == "sqrt" else self.max_features
        seed = self.random_state or 0
        samples = np.empty((self.n_estimators, n), dtype=np.int64)
        trees = []
        for t in range(self.n_estimators):
            boot_rng = np.random.Generator(np.random.PCG64(derive_seed(seed, t, 0)))
            samples[t] = boot_rng.integers(0, n, size=n) if self.bootstrap else np.arange(n)
            trees.append(
                DecisionTreeClassifier(
                    max_depth=self.max_depth,
                    min_samples_split=self.min_samples_split,
                    max_features=per_split,
                    random_state=derive_seed(seed, t, 1),
                )
            )
        fit_lockstep(trees, X, y, k, samples)
        importances = np.zeros(d)
        for tree in trees:  # one tree at a time: a pairwise sum would round differently
            importances += tree.feature_importances_
        self.trees_ = trees
        self.feature_importances_ = importances / self.n_estimators
        return self

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, "trees_")
        X = check_array(X)
        votes = np.zeros((X.shape[0], self.n_classes_), dtype=np.int64)
        for tree in self.trees_:
            predictions = tree.predict(X)
            votes[np.arange(X.shape[0]), predictions] += 1
        return np.argmax(votes, axis=1).astype(np.int64)

    def get_fitted_state(self) -> dict:
        check_is_fitted(self, "trees_")
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
        self.trees_ = trees
        return self
