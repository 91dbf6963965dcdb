"""k-nearest-neighbors classification with deterministic tie handling."""

from __future__ import annotations

import numpy as np

from ..core import RecordSpec, read_record
from .base import check_array, check_count, check_is_fitted, check_X_y

# a saved model's fitted state: its training rows, labels and class count
KNN_STATE = RecordSpec(("X", list), ("y", list), ("n_classes", int))


class KNeighborsClassifier:
    """Majority vote over the k nearest training rows (Euclidean distance).

    Determinism: equal distances are ordered by training-row index, and vote
    ties go to the smallest class index.  When fewer than k rows exist, all
    of them vote.
    """

    def __init__(self, n_neighbors: int = 5):
        self.n_neighbors = check_count("n_neighbors", n_neighbors, 1)
        self.X_ = None
        self.y_ = None
        self.n_classes_ = None
        self.n_features_ = None

    def fit(self, X, y, n_classes: int | None = None) -> "KNeighborsClassifier":
        self.X_, self.y_, self.n_classes_ = check_X_y(X, y, n_classes)
        self.n_features_ = self.X_.shape[1]
        return self

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, "X_")
        X = check_array(X)
        k = min(self.n_neighbors, self.X_.shape[0])
        predictions = np.empty(X.shape[0], dtype=np.int64)
        for i, row in enumerate(X):
            distances = ((self.X_ - row) ** 2).sum(axis=1)
            nearest = np.argsort(distances, kind="stable")[:k]
            votes = np.bincount(self.y_[nearest], minlength=self.n_classes_)
            predictions[i] = int(np.argmax(votes))
        return predictions

    def get_fitted_state(self) -> dict:
        check_is_fitted(self, "X_")
        return {
            "n_classes": int(self.n_classes_),
            "X": self.X_.tolist(),
            "y": self.y_.tolist(),
        }

    def load_fitted_state(self, state: dict) -> "KNeighborsClassifier":
        self.X_, self.y_, self.n_classes_ = check_X_y(*read_record(state, KNN_STATE, "state"))
        self.n_features_ = self.X_.shape[1]
        return self
