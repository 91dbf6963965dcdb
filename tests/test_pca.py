"""Principal component analysis against hand-computed and algebraic oracles."""

from __future__ import annotations

import numpy as np
import pytest

from sca_reco.estimators import PCA
from sca_reco.exceptions import ConfigError
from sca_reco.rng import SplitMix64


RECT = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0], [2.0, 1.0]])


def random_matrix(n, d, seed):
    stream = SplitMix64(seed)
    return np.array([[stream.uniform() * 10 - 5 for _ in range(d)] for _ in range(n)])


def test_axis_aligned_rectangle_by_hand():
    # x varies by +-1 around the mean, y by +-0.5: population variances 1 and 1/4
    model = PCA(n_components=2).fit(RECT)
    assert np.allclose(model.mean_, [1.0, 0.5], atol=1e-15)
    assert model.explained_variance_ == pytest.approx([1.0, 0.25], abs=1e-12)
    assert np.allclose(np.abs(model.components_[0]), [1.0, 0.0], atol=1e-12)
    assert np.allclose(np.abs(model.components_[1]), [0.0, 1.0], atol=1e-12)


def test_sign_convention_largest_coordinate_positive():
    model = PCA(n_components=2).fit(RECT)
    for row in model.components_:
        assert row[np.argmax(np.abs(row))] > 0.0


def test_collinear_points_have_one_component():
    line = np.array([[t, 2.0 * t] for t in (-3.0, -1.0, 0.0, 2.0, 5.0)])
    model = PCA(n_components=2).fit(line)
    total = model.explained_variance_.sum()
    assert model.explained_variance_[0] == pytest.approx(total, abs=1e-9)
    assert model.explained_variance_[1] == pytest.approx(0.0, abs=1e-9)


def test_components_are_orthonormal():
    X = random_matrix(30, 8, seed=100)
    model = PCA(n_components=8).fit(X)
    gram = model.components_ @ model.components_.T
    assert np.allclose(gram, np.eye(8), atol=1e-9)


def test_variances_non_increasing_and_complete():
    X = random_matrix(25, 6, seed=200)
    model = PCA(n_components=6).fit(X)
    ev = model.explained_variance_
    assert all(ev[i] >= ev[i + 1] - 1e-12 for i in range(len(ev) - 1))
    column_var = X.var(axis=0, ddof=0).sum()
    assert ev.sum() == pytest.approx(column_var, abs=1e-9)


def test_full_rank_reconstruction():
    X = random_matrix(20, 7, seed=300)
    model = PCA(n_components=7).fit(X)
    back = model.transform(X) @ model.components_ + model.mean_
    rel = np.linalg.norm(back - X) / np.linalg.norm(X)
    assert rel < 1e-8


def test_truncated_transform_shape():
    X = random_matrix(15, 5, seed=400)
    model = PCA(n_components=2).fit(X)
    assert model.transform(X).shape == (15, 2)
    assert model.components_.shape == (2, 5)


def test_invalid_component_counts():
    X = random_matrix(4, 3, seed=500)
    with pytest.raises(ConfigError, match=r"^n_components must be in 1\.\.3, got 0$"):
        PCA(n_components=0).fit(X)
    with pytest.raises(ConfigError, match=r"^n_components must be in 1\.\.3, got 4$"):
        PCA(n_components=4).fit(X)  # min(n, d) is 3


def test_deterministic():
    X = random_matrix(12, 4, seed=600)
    a = PCA(n_components=3).fit(X)
    b = PCA(n_components=3).fit(X)
    assert np.array_equal(a.components_, b.components_)
    assert np.array_equal(a.explained_variance_, b.explained_variance_)
