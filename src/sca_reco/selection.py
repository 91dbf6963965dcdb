"""Recursive feature elimination over the preference dataset.

Each round fits a model on the surviving features and drops the one with the
smallest importance.  Importances come from the fitted estimator: impurity
decrease for trees and forests, mean absolute class coefficient for the
logistic model.  Distance-based and neural models expose no comparable
per-feature signal, so elimination is restricted to rf, dt, and lr.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import ConfigError
from .features import PreferenceDataset
from .recommend import (
    ModelKind,
    RecommendationModel,
    check_folds,
    cross_validate_batch,
    train,
)
from .rng import derive_seed

RANKABLE_KINDS = (ModelKind.RF, ModelKind.DT, ModelKind.LR)


def _require_rankable(kind: ModelKind) -> None:
    if kind not in RANKABLE_KINDS:
        raise ConfigError(
            f"{kind.value} exposes no per-feature importance; use rf, dt, or lr"
        )


def feature_importances(model: RecommendationModel) -> np.ndarray:
    """Per-feature importance scores of a fitted recommendation model."""
    _require_rankable(model.kind)
    return np.asarray(model.estimator.feature_importances_, dtype=np.float64)


@dataclass(frozen=True)
class RfeResult:
    """Outcome of one elimination run down to a target size.

    ``path`` holds the surviving feature names after each round, starting
    with the full set; ``eliminated`` lists dropped names in drop order.
    """

    selected: tuple[str, ...]
    eliminated: tuple[str, ...]
    path: tuple[tuple[str, ...], ...]


def rfe(
    dataset: PreferenceDataset,
    kind: ModelKind,
    target: int,
    seed: int = 0,
) -> RfeResult:
    """Eliminate features one per round until ``target`` remain."""
    _require_rankable(kind)
    n_features = len(dataset.table.feature_names)
    if not 1 <= target <= n_features:
        raise ConfigError(
            f"target must be between 1 and {n_features}, got {target}"
        )
    current = list(dataset.table.feature_names)
    path = [tuple(current)]
    eliminated: list[str] = []
    round_index = 0
    while len(current) > target:
        subset = dataset.subset_features(current)
        model = train(subset, kind, derive_seed(seed, round_index))
        importances = feature_importances(model)
        # Ties drop the lexicographically smallest name for determinism.
        victim = min(zip(importances, current))[1]
        current.remove(victim)
        eliminated.append(victim)
        path.append(tuple(current))
        round_index += 1
    return RfeResult(
        selected=tuple(current), eliminated=tuple(eliminated), path=tuple(path)
    )


@dataclass(frozen=True)
class RfeCvResult:
    """Elimination path scored by cross-validation at every size."""

    selected: tuple[str, ...]
    best_size: int
    scores: tuple[tuple[int, float], ...]


def rfe_cv(
    dataset: PreferenceDataset,
    kind: ModelKind,
    folds: int = 10,
    seed: int = 0,
) -> RfeCvResult:
    """Score every size along the elimination path and keep the best one.

    The path is computed once (down to one feature); each surviving set is
    then scored by stratified cross-validation with the same fold assignment.
    The best size is the one with the highest mean micro F1, preferring the
    smaller set on ties.
    """
    check_folds(folds, dataset.n_projects)
    run = rfe(dataset, kind, 1, seed)
    results = cross_validate_batch(
        [dataset.subset_features(list(names)) for names in run.path], kind, folds, seed
    )
    scored = [
        (len(names), result.mean.f1_micro, names) for names, result in zip(run.path, results)
    ]
    best_size, _, best_names = max(scored, key=lambda row: (row[1], -row[0]))
    return RfeCvResult(
        selected=best_names,
        best_size=best_size,
        scores=tuple(sorted((size, score) for size, score, _ in scored)),
    )


def selected_features_text(names: Sequence[str]) -> str:
    """One selected feature name per line."""
    return "".join(f"{name}\n" for name in names)
