"""Per-project analyzer effectiveness from aligned, labeled warning groups.

For one analyzer, a group counts as a true positive when it contains that
analyzer's warning and resolved to actionable, and as a false positive when
it resolved to unactionable.  Recall is measured against the union of all
distinct actionable defects any analyzer found, so analyzers are compared on
the same denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import (
    ScaId,
    WarningLabel,
    format_beta,
    parse_beta,
    require_field,
    validate_beta,
)
from .exceptions import InvalidBeta, SchemaError
from .alignment import AlignmentResult

ROUND_DIGITS = 12  # scores are compared at this precision when ranking


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    union_actionable: int

    def __post_init__(self):
        if self.tp < 0 or self.fp < 0 or self.union_actionable < 0:
            raise ValueError("confusion counts must be non-negative")
        if self.tp > self.union_actionable:
            raise ValueError("tp cannot exceed the distinct actionable count")


def precision(counts: ConfusionCounts) -> float:
    denominator = counts.tp + counts.fp
    return counts.tp / denominator if denominator else 0.0


def recall(counts: ConfusionCounts) -> float:
    return counts.tp / counts.union_actionable if counts.union_actionable else 0.0


def f_beta(counts: ConfusionCounts, beta: float) -> float:
    """Weighted harmonic mean of precision and recall.

    beta = 0 returns precision exactly and beta = inf returns recall exactly
    (the analytic limits); otherwise 0 when the denominator vanishes.
    """
    beta = validate_beta(beta)
    p = precision(counts)
    r = recall(counts)
    if beta == 0:
        return p
    if math.isinf(beta):
        return r
    denominator = beta * beta * p + r
    if denominator == 0:
        return 0.0
    return (1 + beta * beta) * p * r / denominator


def per_sca_confusion(result: AlignmentResult, sca: ScaId) -> ConfusionCounts:
    """Count one analyzer's actionable/unactionable groups in an alignment."""
    tp = fp = union = 0
    for group in result.groups:
        actionable = group.resolved_label is WarningLabel.ACTIONABLE
        if actionable:
            union += 1
        if group.has_sca(sca):
            if actionable:
                tp += 1
            else:
                fp += 1
    return ConfusionCounts(tp, fp, union)


@dataclass(frozen=True)
class EffectivenessScore:
    project_id: str
    sca: ScaId
    counts: ConfusionCounts
    beta: float
    p: float
    r: float
    f_beta: float


@dataclass(frozen=True)
class OptimalLabelSet:
    """Analyzers tied for the best score on one project, in corpus order."""

    project_id: str
    optimal: tuple[ScaId, ...]

    def __post_init__(self):
        if not self.optimal:
            raise ValueError("an optimal set is never empty")

    def primary(self) -> ScaId:
        return self.optimal[0]


def score_sca(project_id: str, sca: ScaId, counts: ConfusionCounts, beta: float) -> EffectivenessScore:
    return EffectivenessScore(
        project_id=project_id,
        sca=sca,
        counts=counts,
        beta=validate_beta(beta),
        p=precision(counts),
        r=recall(counts),
        f_beta=f_beta(counts, beta),
    )


def evaluate_project(
    project_id: str,
    result: AlignmentResult,
    scas: Sequence[ScaId],
    beta: float,
) -> list[EffectivenessScore]:
    """One score per analyzer, in the given (corpus) order."""
    return [
        score_sca(project_id, sca, per_sca_confusion(result, sca), beta)
        for sca in scas
    ]


def optimal_set(scores: Sequence[EffectivenessScore]) -> OptimalLabelSet:
    """All analyzers tied at the best score, compared at 12 decimals."""
    if not scores:
        raise ValueError("optimal_set needs at least one score")
    project = scores[0].project_id
    beta = scores[0].beta
    for score in scores:
        if score.project_id != project or score.beta != beta:
            raise ValueError("scores must share one project and one beta")
    rounded = [round(score.f_beta, ROUND_DIGITS) for score in scores]
    best = max(rounded)
    return OptimalLabelSet(
        project,
        tuple(score.sca for score, value in zip(scores, rounded) if value == best),
    )


@dataclass(frozen=True)
class ProjectEvaluation:
    """Everything the downstream stages need about one evaluated project."""

    project_id: str
    beta: float
    scores: tuple[EffectivenessScore, ...]
    optimal: OptimalLabelSet

    def sca_order(self) -> tuple[ScaId, ...]:
        return tuple(score.sca for score in self.scores)

    def to_record(self) -> dict:
        return {
            "project": self.project_id,
            "beta": format_beta(self.beta),
            "scores": [
                {
                    "sca": s.sca,
                    "tp": s.counts.tp,
                    "fp": s.counts.fp,
                    "union_actionable": s.counts.union_actionable,
                    "p": s.p,
                    "r": s.r,
                    "f_beta": s.f_beta,
                }
                for s in self.scores
            ],
            "optimal": list(self.optimal.optimal),
        }

    @classmethod
    def from_record(cls, record: dict) -> "ProjectEvaluation":
        """Inverse of ``to_record``; p, r, f_beta and the optimal set are
        recomputed from the counts.  A missing field, one of the wrong type or
        value, or an ``optimal`` that differs from the recomputed set raises a
        SchemaError."""
        where = "evaluation record"
        project = require_field(record, "project", str, where)
        beta_field = require_field(record, "beta", (str, int, float), where)
        entries = require_field(record, "scores", list, where)
        if not entries:
            raise SchemaError(f"{where}: field 'scores' is empty")
        optimal = require_field(record, "optimal", list, where)
        try:
            beta = parse_beta(str(beta_field))
            scores = []
            for i, entry in enumerate(entries):
                at = f"{where}: score {i}"
                sca = require_field(entry, "sca", str, at)
                counts = ConfusionCounts(
                    require_field(entry, "tp", int, at),
                    require_field(entry, "fp", int, at),
                    require_field(entry, "union_actionable", int, at),
                )
                scores.append(score_sca(project, sca, counts, beta))
        except (InvalidBeta, ValueError) as exc:
            raise SchemaError(f"{where}: {exc}") from exc
        best = optimal_set(scores)
        if list(best.optimal) != optimal:
            raise SchemaError(
                f"{where}: field 'optimal' is {optimal} but the counts give "
                f"{list(best.optimal)}"
            )
        return cls(project, beta, tuple(scores), best)


def reevaluate(evaluation: ProjectEvaluation, beta: float) -> ProjectEvaluation:
    """Re-score a stored evaluation at a different beta from its counts."""
    scores = tuple(
        score_sca(evaluation.project_id, s.sca, s.counts, beta)
        for s in evaluation.scores
    )
    return ProjectEvaluation(evaluation.project_id, validate_beta(beta), scores, optimal_set(scores))
