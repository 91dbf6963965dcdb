"""Small scikit-learn-style estimators implemented on numpy.

Every estimator follows the fit/predict (or fit/transform) protocol, checks
its hyperparameters in its constructor, and is deterministic (given its
``random_state``, where it takes one).  The classifiers report ``n_classes_`` and ``n_features_``
after ``fit`` and after ``load_fitted_state``.  ``fit_stacked`` fits a batch
of logistic regressions as one; ``fit_forests`` fits a batch of random
forests with shared bootstrap draws, growing the trees of equal-shape
forests together in groups of bounded size; ``fit_each`` fits any batch one by one.
"""

from .base import check_array, check_X_y, check_is_fitted, fit_each
from .decomposition import PCA
from .forest import RandomForestClassifier, fit_forests
from .linear import LogisticRegression, fit_stacked
from .mlp import MLPClassifier
from .neighbors import KNeighborsClassifier
from .preprocessing import StandardScaler
from .tree import DecisionTreeClassifier

__all__ = [
    "check_array",
    "check_X_y",
    "check_is_fitted",
    "fit_each",
    "fit_forests",
    "fit_stacked",
    "DecisionTreeClassifier",
    "KNeighborsClassifier",
    "LogisticRegression",
    "MLPClassifier",
    "PCA",
    "RandomForestClassifier",
    "StandardScaler",
]
