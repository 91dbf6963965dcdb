"""Feature standardization with population statistics."""

from __future__ import annotations

import numpy as np

from ..exceptions import DataError, NonFiniteStatistic
from .base import check_array, check_is_fitted


class StandardScaler:
    """Center to zero mean and scale to unit population variance per column.

    Zero-variance columns keep a scale of 1 so the training matrix maps to
    exact zeros there and unseen values stay finite.  A column whose mean or
    standard deviation overflows is refused, and a stored negative standard
    deviation too.
    """

    def __init__(self):
        self.mean_ = None
        self.std_ = None
        self.scale_ = None

    def fit(self, X, feature_names=None) -> "StandardScaler":
        """Fit on ``X``; ``feature_names`` name its columns in the error."""
        X = check_array(X)
        if X.shape[0] < 2:
            raise DataError("standardization needs at least 2 rows")
        with np.errstate(over="ignore", invalid="ignore"):
            means, stds = X.mean(axis=0), X.std(axis=0)  # population (ddof=0)
        finite = np.isfinite(means) & np.isfinite(stds)
        if not finite.all():
            j = int(np.argmin(finite))
            name = f"feature {feature_names[j]!r}" if feature_names else f"column {j}"
            raise NonFiniteStatistic(f"{name}: mean or standard deviation is not finite")
        return self.load_fitted_state({"means": means, "stds": stds})

    def transform(self, X) -> np.ndarray:
        check_is_fitted(self, "mean_")
        X = check_array(X)
        if X.shape[1] != self.mean_.shape[0]:
            raise ValueError(
                f"expected {self.mean_.shape[0]} columns, got {X.shape[1]}"
            )
        return (X - self.mean_) / self.scale_

    def fit_transform(self, X, feature_names=None) -> np.ndarray:
        return self.fit(X, feature_names).transform(X)

    def get_fitted_state(self) -> dict:
        check_is_fitted(self, "mean_")
        return {"means": self.mean_.tolist(), "stds": self.std_.tolist()}

    def load_fitted_state(self, state: dict) -> "StandardScaler":
        self.mean_ = np.asarray(state["means"], dtype=np.float64)
        self.std_ = np.asarray(state["stds"], dtype=np.float64)
        if (self.std_ < 0.0).any():
            raise ValueError("a standard deviation is negative")
        self.scale_ = np.where(self.std_ == 0.0, 1.0, self.std_)
        return self
