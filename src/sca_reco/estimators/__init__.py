"""Small scikit-learn-style estimators implemented on numpy.

Every estimator follows the fit/predict (or fit/transform) protocol, exposes
its constructor arguments through ``get_params``/``set_params``, and is
deterministic given its ``random_state``.
"""

from .base import BaseEstimator, check_array, check_X_y, check_is_fitted
from .decomposition import PCA
from .forest import RandomForestClassifier
from .linear import LogisticRegression
from .mlp import MLPClassifier
from .neighbors import KNeighborsClassifier
from .preprocessing import StandardScaler
from .tree import DecisionTreeClassifier

__all__ = [
    "BaseEstimator",
    "check_array",
    "check_X_y",
    "check_is_fitted",
    "DecisionTreeClassifier",
    "KNeighborsClassifier",
    "LogisticRegression",
    "MLPClassifier",
    "PCA",
    "RandomForestClassifier",
    "StandardScaler",
]
