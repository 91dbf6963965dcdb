"""CART decision tree with Gini impurity.

Split search is exact: every candidate feature is scanned at the midpoints
between consecutive distinct values, vectorized with numpy.  Determinism is
pinned down to tie level: equal gains go to the earlier feature in scan
order, then to the lower threshold; leaf ties go to the smallest class
index.
"""

from __future__ import annotations

import numpy as np

from ..rng import derive_seed
from .base import check_array, check_count, check_is_fitted, check_X_y


class DecisionTreeClassifier:
    """Gini-impurity CART; unlimited depth unless capped.

    ``max_features`` limits how many non-constant features each node
    examines (drawn in seeded random order; constant features do not consume
    the budget).  ``feature_importances_`` accumulates total impurity
    decrease weighted by the fraction of samples reaching each split.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        max_features: int | None = None,
        random_state: int | None = None,
    ):
        self.max_depth = max_depth
        self.min_samples_split = check_count("min_samples_split", min_samples_split, 2)
        self.max_features = max_features
        self.random_state = random_state
        self.tree_ = None
        self.n_classes_ = None
        self.n_features_ = None
        self.feature_importances_ = None

    def fit(self, X, y, n_classes: int | None = None) -> "DecisionTreeClassifier":
        X, y, k = check_X_y(X, y, n_classes)
        self.n_classes_ = k
        self.n_features_ = X.shape[1]
        self.feature_importances_ = np.zeros(self.n_features_)
        self._n_total = X.shape[0]
        rng = np.random.Generator(
            np.random.PCG64(derive_seed(self.random_state or 0))
        )
        self.tree_ = self._grow(X, y, np.arange(X.shape[0]), 0, rng)
        return self

    def _candidate_columns(self, X_node: np.ndarray, rng) -> list[int]:
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
        """Best (feature, threshold, gain) over the candidate columns.

        Ties break to the earlier column in ``columns`` and then to the
        lower split position.
        """
        n = X_node.shape[0]
        sub = X_node[:, columns]
        order = np.argsort(sub, axis=0, kind="stable")
        xs = np.take_along_axis(sub, order, axis=0)
        valid = xs[1:] > xs[:-1]
        if not valid.any():
            return None
        ys = y_node[order]
        one_hot = np.eye(self.n_classes_, dtype=np.float64)[ys]
        left_counts = np.cumsum(one_hot, axis=0)[:-1]  # counts left of each boundary
        n_left = np.arange(1, n, dtype=np.float64)[:, None]
        n_right = n - n_left
        right_counts = counts[None, None, :] - left_counts
        gini_left = 1.0 - ((left_counts / n_left[..., None]) ** 2).sum(axis=2)
        gini_right = 1.0 - ((right_counts / n_right[..., None]) ** 2).sum(axis=2)
        weighted = (n_left * gini_left + n_right * gini_right) / n
        gains = np.where(valid, parent_gini - weighted, -np.inf)
        flat = int(np.argmax(gains.T))  # feature-major: earlier column wins ties
        f_local, position = divmod(flat, n - 1)
        threshold = float((xs[position, f_local] + xs[position + 1, f_local]) / 2.0)
        return int(columns[f_local]), threshold, float(gains[position, f_local])

    def _grow(self, X, y, indices, depth, rng) -> dict:
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

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, "tree_")
        X = check_array(X)
        predictions = np.empty(X.shape[0], dtype=np.int64)
        for i, row in enumerate(X):
            node = self.tree_
            while "feature" in node:
                node = node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]
            predictions[i] = node["class"]
        return predictions

    def get_fitted_state(self) -> dict:
        check_is_fitted(self, "tree_")
        return {
            "n_classes": int(self.n_classes_),
            "n_features": int(self.n_features_),
            "tree": self.tree_,
        }

    def load_fitted_state(self, state: dict) -> "DecisionTreeClassifier":
        """Restore a saved tree, checking every node so that ``predict``
        reaches only valid features and classes."""
        self.n_classes_ = int(state["n_classes"])
        self.n_features_ = int(state["n_features"])
        stack = [state["tree"]]
        while stack:
            node = stack.pop()
            if "feature" not in node:
                valid = _is_index(node["class"], self.n_classes_)
            else:
                threshold_ok = type(node["threshold"]) in (int, float)
                valid = threshold_ok and _is_index(node["feature"], self.n_features_)
                stack += [node["left"], node["right"]]
            if not valid:
                raise ValueError("a tree node holds a bad class, feature or threshold")
        self.tree_ = state["tree"]
        return self


def _is_index(value, size: int) -> bool:
    """True for an int in ``range(size)``; JSON booleans and floats are not."""
    return type(value) is int and 0 <= value < size
