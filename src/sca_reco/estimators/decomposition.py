"""Principal component analysis via singular value decomposition."""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigError
from .base import check_array, check_is_fitted


class PCA:
    """PCA of mean-centered data; explained variances use the population
    convention (singular values squared over n).

    Component signs follow a fixed convention: the coordinate of largest
    magnitude in each component is made positive, so results are reproducible
    across runs and platforms.
    """

    def __init__(self, n_components: int = 2):
        self.n_components = n_components
        self.mean_ = None
        self.components_ = None
        self.explained_variance_ = None

    def fit(self, X) -> "PCA":
        X = check_array(X)
        n, d = X.shape
        k = self.n_components
        if not 1 <= k <= min(n, d):
            raise ConfigError(f"n_components must be in 1..{min(n, d)}, got {k}")
        self.mean_ = X.mean(axis=0)
        centered = X - self.mean_
        _, singular, vt = np.linalg.svd(centered, full_matrices=False)
        components = vt[:k]
        # Sign convention: largest-magnitude coordinate positive.
        for row in components:
            pivot = int(np.argmax(np.abs(row)))
            if row[pivot] < 0:
                row *= -1.0
        self.components_ = components
        self.explained_variance_ = (singular[:k] ** 2) / n
        return self

    def transform(self, X) -> np.ndarray:
        check_is_fitted(self, "components_")
        X = check_array(X)
        return (X - self.mean_) @ self.components_.T

    def fit_transform(self, X) -> np.ndarray:
        return self.fit(X).transform(X)
