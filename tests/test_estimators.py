"""The numpy estimators: validation helpers, determinism, and tie rules."""

from __future__ import annotations

import math

import numpy as np
import pytest

from sca_reco.estimators import (
    DecisionTreeClassifier,
    KNeighborsClassifier,
    LogisticRegression,
    MLPClassifier,
    RandomForestClassifier,
    StandardScaler,
    check_array,
    check_is_fitted,
    check_X_y,
)
from sca_reco.exceptions import DataError, LengthMismatch, NotFittedError
from sca_reco.rng import SplitMix64


def toy_blobs(n_per_class=20, n_classes=3, d=4, seed=11, spread=0.3):
    """Well-separated class clusters, deterministic."""
    stream = SplitMix64(seed)
    rows, labels = [], []
    for c in range(n_classes):
        for _ in range(n_per_class):
            rows.append([c * 3.0 + spread * (stream.uniform() - 0.5) for _ in range(d)])
            labels.append(c)
    return np.array(rows), np.array(labels)


# validation helpers


def test_check_array_promotes_1d():
    assert check_array([1.0, 2.0]).shape == (1, 2)


def test_check_array_rejects_bad_input():
    with pytest.raises(ValueError):
        check_array(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        check_array([[1.0, math.nan]])
    with pytest.raises(ValueError):
        check_array([[1.0, math.inf]])


def test_check_X_y_validates_labels():
    with pytest.raises(LengthMismatch):
        check_X_y([[1.0], [2.0]], [0])
    with pytest.raises(ValueError):
        check_X_y([[1.0]], [-1])
    with pytest.raises(ValueError):
        check_X_y([[1.0]], [2], n_classes=2)
    X, y, k = check_X_y([[1.0], [2.0]], [0, 1])
    assert k == 2
    _, _, k = check_X_y([[1.0], [2.0]], [0, 1], n_classes=5)
    assert k == 5


def test_check_is_fitted():
    with pytest.raises(NotFittedError):
        check_is_fitted(KNeighborsClassifier(), "X_")


@pytest.mark.parametrize(
    "estimator_class, name, value",
    [
        (DecisionTreeClassifier, "min_samples_split", 1),
        (DecisionTreeClassifier, "max_depth", -3),
        (DecisionTreeClassifier, "max_depth", "x"),
        (DecisionTreeClassifier, "max_depth", 1.5),
        (DecisionTreeClassifier, "max_depth", True),
        (RandomForestClassifier, "max_depth", -1),
        (RandomForestClassifier, "bootstrap", "no"),
        (RandomForestClassifier, "bootstrap", 1),
        (RandomForestClassifier, "bootstrap", None),
        (RandomForestClassifier, "min_samples_split", 1),
        (RandomForestClassifier, "n_estimators", 0),
        (RandomForestClassifier, "max_features", 0),
        (RandomForestClassifier, "max_features", "log2"),
        (MLPClassifier, "hidden_units", 0),
        (MLPClassifier, "epochs", "x"),
        (MLPClassifier, "epochs", 0),
        (MLPClassifier, "learning_rate", 0.0),
        (MLPClassifier, "learning_rate", "0.01"),
        (MLPClassifier, "momentum", math.inf),
        (MLPClassifier, "momentum", 1.0),
        (MLPClassifier, "momentum", -0.1),
        (LogisticRegression, "n_iter", -5),
        (LogisticRegression, "n_iter", 2.5),
        (LogisticRegression, "learning_rate", math.nan),
        (LogisticRegression, "learning_rate", -0.1),
        (LogisticRegression, "l2", -1.0),
        (LogisticRegression, "l2", math.inf),
        (LogisticRegression, "l2", True),
        (KNeighborsClassifier, "n_neighbors", 0),
        (KNeighborsClassifier, "n_neighbors", "x"),
        (KNeighborsClassifier, "n_neighbors", None),
        (KNeighborsClassifier, "n_neighbors", 2.5),
        (KNeighborsClassifier, "n_neighbors", True),
    ],
)
def test_constructor_rejects_bad_hyperparameter(estimator_class, name, value):
    with pytest.raises(ValueError, match=name):
        estimator_class(**{name: value})


def test_constructor_accepts_boundary_hyperparameters():
    lr = LogisticRegression(l2=0, learning_rate=1e-300, n_iter=1)
    assert (lr.l2, lr.learning_rate, lr.n_iter) == (0.0, 1e-300, 1)
    mlp = MLPClassifier(momentum=0, epochs=1)
    assert (mlp.momentum, mlp.epochs) == (0.0, 1)


@pytest.mark.parametrize(
    "estimator_class",
    [KNeighborsClassifier, LogisticRegression, MLPClassifier],
    ids=lambda c: c.__name__,
)
def test_classifier_reports_class_and_feature_counts(estimator_class):
    X, y = toy_blobs(n_classes=2, d=3)
    fitted = estimator_class().fit(X, y, n_classes=4)
    assert (fitted.n_classes_, fitted.n_features_) == (4, 3)
    loaded = estimator_class().load_fitted_state(fitted.get_fitted_state())
    assert (loaded.n_classes_, loaded.n_features_) == (4, 3)


# scaler


def test_scaler_population_statistics():
    scaler = StandardScaler().fit([[1.0], [2.0], [3.0]])
    assert scaler.mean_[0] == 2.0
    assert scaler.std_[0] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-15)
    transformed = scaler.transform([[1.0], [2.0], [3.0]])
    assert transformed.sum() == pytest.approx(0.0, abs=1e-12)


def test_scaler_constant_column_maps_to_zero():
    scaler = StandardScaler().fit([[5.0, 1.0], [5.0, 2.0]])
    out = scaler.transform([[5.0, 1.0], [5.0, 2.0]])
    assert np.all(out[:, 0] == 0.0)
    assert np.isfinite(scaler.transform([[9.0, 9.0]])).all()


def test_scaler_is_idempotent_numerically():
    X, _ = toy_blobs()
    once = StandardScaler().fit_transform(X)
    twice = StandardScaler().fit_transform(once)
    assert np.allclose(once, twice, atol=1e-9)


def test_scaler_needs_two_rows():
    with pytest.raises(DataError, match="^standardization needs at least 2 rows$"):
        StandardScaler().fit([[1.0, 2.0]])


def test_scaler_width_check():
    scaler = StandardScaler().fit([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        scaler.transform([[1.0]])


# decision tree


def test_tree_memorizes_conflict_free_data():
    X, y = toy_blobs()
    tree = DecisionTreeClassifier().fit(X, y)
    assert (tree.predict(X) == y).all()


def test_tree_max_depth_zero_is_majority_vote():
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([1, 1, 0])
    tree = DecisionTreeClassifier(max_depth=0).fit(X, y)
    assert (tree.predict(X) == 1).all()


def test_tree_leaf_tie_prefers_smaller_class():
    # one row each of class 0 and 1 with identical features: unsplittable
    X = np.array([[1.0], [1.0]])
    y = np.array([1, 0])
    tree = DecisionTreeClassifier().fit(X, y)
    assert tree.predict([[1.0]])[0] == 0


def test_tree_importances_on_informative_feature():
    # feature 0 decides the class, feature 1 is constant
    X = np.array([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    y = np.array([0, 0, 1, 1])
    tree = DecisionTreeClassifier().fit(X, y)
    assert tree.feature_importances_[0] > 0.0
    assert tree.feature_importances_[1] == 0.0


def test_tree_deterministic_and_round_trips():
    X, y = toy_blobs(seed=3)
    a = DecisionTreeClassifier().fit(X, y)
    b = DecisionTreeClassifier().fit(X, y)
    assert a.tree_ == b.tree_
    fresh = DecisionTreeClassifier().load_fitted_state(a.get_fitted_state())
    probe, _ = toy_blobs(seed=77)
    assert (fresh.predict(probe) == a.predict(probe)).all()


# random forest


def test_forest_single_tree_memorizes_without_bootstrap():
    X, y = toy_blobs()
    forest = RandomForestClassifier(
        n_estimators=1, bootstrap=False, max_features=None, random_state=0
    ).fit(X, y)
    assert (forest.predict(X) == y).all()


def test_forest_deterministic_per_seed():
    X, y = toy_blobs(seed=9)
    a = RandomForestClassifier(n_estimators=12, random_state=4).fit(X, y)
    b = RandomForestClassifier(n_estimators=12, random_state=4).fit(X, y)
    probe, _ = toy_blobs(seed=13)
    assert (a.predict(probe) == b.predict(probe)).all()


def test_forest_importances_and_round_trip():
    X, y = toy_blobs(seed=21)
    forest = RandomForestClassifier(n_estimators=10, random_state=2).fit(X, y)
    assert forest.feature_importances_.shape == (X.shape[1],)
    assert (forest.feature_importances_ >= 0.0).all()
    fresh = RandomForestClassifier(n_estimators=10).load_fitted_state(
        forest.get_fitted_state()
    )
    assert (fresh.predict(X) == forest.predict(X)).all()


def test_forest_default_params_echo():
    forest = RandomForestClassifier()
    assert forest.n_estimators == 100
    assert forest.max_features == "sqrt"
    assert forest.bootstrap is True


# k nearest neighbors


def test_knn_unanimous_vote():
    X = np.array([[0.0], [0.1], [0.2], [0.3], [0.4], [9.0]])
    y = np.array([1, 1, 1, 1, 1, 0])
    knn = KNeighborsClassifier(n_neighbors=5).fit(X, y)
    assert knn.predict([[0.2]])[0] == 1


def test_knn_vote_tie_prefers_smaller_class():
    X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
    y = np.array([0, 0, 1, 1, 2])
    knn = KNeighborsClassifier(n_neighbors=5).fit(X, y)
    # votes are 2-2-1, so the smaller class index wins
    assert knn.predict([[2.0]])[0] == 0
    relabeled = KNeighborsClassifier(n_neighbors=5).fit(X, np.array([1, 1, 0, 0, 2]))
    assert relabeled.predict([[2.0]])[0] == 0


def test_knn_uses_all_rows_when_k_exceeds_n():
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([0, 1, 1])
    knn = KNeighborsClassifier(n_neighbors=5).fit(X, y)
    assert knn.predict([[0.0]])[0] == 1


def test_knn_round_trip():
    X, y = toy_blobs(seed=8)
    knn = KNeighborsClassifier().fit(X, y)
    fresh = KNeighborsClassifier().load_fitted_state(knn.get_fitted_state())
    probe, _ = toy_blobs(seed=1)
    assert (fresh.predict(probe) == knn.predict(probe)).all()


# logistic regression


def test_lr_separable_data():
    X, y = toy_blobs(n_classes=2, seed=15)
    lr = LogisticRegression().fit(X, y)
    assert (lr.predict(X) == y).all()
    scores = lr.decision_function(X)
    assert scores.shape == (X.shape[0], 2)


def test_lr_deterministic_and_round_trips():
    X, y = toy_blobs(seed=31)
    a = LogisticRegression().fit(X, y)
    b = LogisticRegression().fit(X, y)
    assert np.array_equal(a.W_, b.W_)
    fresh = LogisticRegression().load_fitted_state(a.get_fitted_state())
    assert np.array_equal(fresh.predict(X), a.predict(X))


def test_lr_importances_are_mean_absolute_coefficients():
    X, y = toy_blobs(seed=31)
    lr = LogisticRegression().fit(X, y)
    assert np.array_equal(lr.feature_importances_, np.abs(lr.W_).mean(axis=0))


# multilayer perceptron


def test_mlp_learns_separable_data():
    X, y = toy_blobs(n_classes=2, seed=19)
    mlp = MLPClassifier(random_state=0).fit(X, y)
    assert (mlp.predict(X) == y).mean() >= 0.95


def test_mlp_seeded_determinism():
    X, y = toy_blobs(seed=23)
    a = MLPClassifier(random_state=7).fit(X, y)
    b = MLPClassifier(random_state=7).fit(X, y)
    probe, _ = toy_blobs(seed=29)
    assert (a.predict(probe) == b.predict(probe)).all()


def test_mlp_round_trip():
    X, y = toy_blobs(seed=37)
    mlp = MLPClassifier(random_state=1, epochs=50).fit(X, y)
    fresh = MLPClassifier().load_fitted_state(mlp.get_fitted_state())
    assert (fresh.predict(X) == mlp.predict(X)).all()
