"""Recursive feature elimination and its cross-validated size search."""

from __future__ import annotations

import numpy as np
import pytest

from sca_reco import selection
from sca_reco.exceptions import ConfigError, DataError
from sca_reco.features import FeatureTable, PreferenceDataset
from sca_reco.recommend import ModelKind, train
from sca_reco.selection import (
    feature_importances,
    rfe,
    rfe_cv,
    selected_features_text,
)


def signal_dataset(n_per_class=6):
    """One feature decides the class, three constant decoys."""
    names = ("signal", "z1", "a1", "m1")
    rows, labels, ids = [], [], []
    for i in range(n_per_class):
        rows.append([0.0 + 0.1 * i, 1.0, 1.0, 1.0])
        labels.append(("alpha",))
        ids.append(f"a{i}")
        rows.append([5.0 + 0.1 * i, 1.0, 1.0, 1.0])
        labels.append(("beta",))
        ids.append(f"b{i}")
    return PreferenceDataset(
        FeatureTable(names, tuple(ids), np.array(rows)), tuple(labels), ("alpha", "beta")
    )


def test_importances_per_model_kind():
    dataset = signal_dataset()
    for kind in (ModelKind.DT, ModelKind.LR):
        model = train(dataset, kind, seed=0)
        scores = feature_importances(model)
        assert scores.shape == (4,)
        assert np.argmax(scores) == 0
    rf = train(dataset, ModelKind.RF, seed=0, hyperparams={"n_estimators": 5})
    assert feature_importances(rf).shape == (4,)


def test_importances_unsupported_kinds():
    dataset = signal_dataset()
    for kind in (ModelKind.KNN, ModelKind.MLP):
        model = train(dataset, kind, seed=0)
        with pytest.raises(ConfigError, match=f"^{kind.value} exposes no per-feature importance;"):
            feature_importances(model)


def test_rfe_target_equal_to_width_is_identity():
    dataset = signal_dataset()
    run = rfe(dataset, ModelKind.DT, target=4)
    assert run.selected == dataset.table.feature_names
    assert run.eliminated == ()
    assert run.path == (dataset.table.feature_names,)


def test_rfe_invalid_targets():
    dataset = signal_dataset()
    with pytest.raises(ConfigError, match="^target must be between 1 and 4, got 0$"):
        rfe(dataset, ModelKind.DT, target=0)
    with pytest.raises(ConfigError, match="^target must be between 1 and 4, got 5$"):
        rfe(dataset, ModelKind.DT, target=5)


def test_rfe_rejects_unrankable_kind():
    with pytest.raises(ConfigError, match="^knn exposes no per-feature importance;"):
        rfe(signal_dataset(), ModelKind.KNN, target=1)


def test_rfe_keeps_signal_and_drops_ties_lexicographically():
    run = rfe(signal_dataset(), ModelKind.DT, target=1)
    assert run.selected == ("signal",)
    # decoys are all zero-importance, so drop order falls back to the name
    assert run.eliminated == ("a1", "m1", "z1")
    assert run.path == (
        ("signal", "z1", "a1", "m1"),
        ("signal", "z1", "m1"),
        ("signal", "z1"),
        ("signal",),
    )


def test_rfe_partition_invariant_and_determinism():
    dataset = signal_dataset()
    run = rfe(dataset, ModelKind.DT, target=2, seed=42)
    assert len(run.selected) == 2
    assert sorted(run.selected + run.eliminated) == sorted(dataset.table.feature_names)
    again = rfe(dataset, ModelKind.DT, target=2, seed=42)
    assert run == again


def test_rfe_cv_scores_every_size_and_prefers_small_ties():
    dataset = signal_dataset()
    result = rfe_cv(dataset, ModelKind.DT, folds=3, seed=0)
    assert [size for size, _ in result.scores] == [1, 2, 3, 4]
    # the decoys are constant, so every size scores the same: ties go small
    assert result.best_size == 1
    assert result.selected == ("signal",)
    assert all(score == pytest.approx(1.0) for _, score in result.scores)


def test_rfe_cv_deterministic():
    dataset = signal_dataset()
    a = rfe_cv(dataset, ModelKind.DT, folds=3, seed=9)
    b = rfe_cv(dataset, ModelKind.DT, folds=3, seed=9)
    assert a == b


def test_rfe_cv_rejects_too_many_folds():
    with pytest.raises(DataError, match="^cannot split 12 rows into 13 folds$"):
        rfe_cv(signal_dataset(), ModelKind.DT, folds=13)


def test_rfe_cv_checks_folds_before_eliminating(monkeypatch):
    def no_elimination(*args, **kwargs):
        raise AssertionError("rfe ran before the fold count was checked")

    monkeypatch.setattr(selection, "rfe", no_elimination)
    with pytest.raises(ConfigError, match="^folds must be at least 2, got 1$"):
        rfe_cv(signal_dataset(), ModelKind.DT, folds=1)
    dataset = signal_dataset()
    too_many = dataset.n_projects + 1
    split = f"^cannot split {dataset.n_projects} rows into {too_many} folds$"
    with pytest.raises(DataError, match=split):
        rfe_cv(dataset, ModelKind.DT, folds=too_many)


def test_selected_features_text():
    assert selected_features_text(["b", "a"]) == "b\na\n"
    assert selected_features_text([]) == ""
