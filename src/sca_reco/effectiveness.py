"""Per-project analyzer effectiveness from aligned, labeled warning groups.

For one analyzer, a group counts as a true positive when it contains that
analyzer's warning and resolved to actionable, and as a false positive when
it resolved to unactionable.  Recall is measured against the union of all
distinct actionable defects any analyzer found, so analyzers are compared on
the same denominator.  ``evaluate_project`` takes every analyzer's counts and
the union in one pass over the groups.

A ``ProjectEvaluation`` holds its project id and beta once; its scores hold
only each analyzer's counts and scores, and its optimal set is the tuple of
analyzers tied at the best score, the first of them the primary label.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .core import (
    RecordSpec,
    ScaId,
    WarningLabel,
    format_beta,
    parse_beta,
    read_record,
    validate_beta,
)
from .exceptions import ConfigError, SchemaError
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


@dataclass(frozen=True)
class EffectivenessScore:
    """One analyzer's counts and scores; the project and beta they belong
    to are held once, by the ``ProjectEvaluation`` that lists them."""

    sca: ScaId
    counts: ConfusionCounts
    p: float
    r: float
    f_beta: float


def score_sca(sca: ScaId, counts: ConfusionCounts, beta: float) -> EffectivenessScore:
    return EffectivenessScore(
        sca=sca,
        counts=counts,
        p=precision(counts),
        r=recall(counts),
        f_beta=f_beta(counts, beta),
    )


def evaluate_project(
    result: AlignmentResult, scas: Sequence[ScaId], beta: float
) -> list[EffectivenessScore]:
    """One score per analyzer, in the given (corpus) order.  A group holds
    at most one warning per analyzer, so counting members counts groups."""
    tp: Counter[ScaId] = Counter()
    fp: Counter[ScaId] = Counter()
    union = 0
    for group in result.groups:
        if group.resolved_label is WarningLabel.ACTIONABLE:
            union += 1
            counts = tp
        else:
            counts = fp
        for member in group.members:
            counts[member.origin[0]] += 1
    return [score_sca(sca, ConfusionCounts(tp[sca], fp[sca], union), beta) for sca in scas]


def optimal_set(scores: Sequence[EffectivenessScore]) -> tuple[ScaId, ...]:
    """All analyzers tied at the best score, compared at 12 decimals, in
    the scores' (corpus) order; the first is the primary label."""
    if not scores:
        raise ValueError("optimal_set needs at least one score")
    rounded = [round(score.f_beta, ROUND_DIGITS) for score in scores]
    best = max(rounded)
    return tuple(score.sca for score, value in zip(scores, rounded) if value == best)


EVALUATION_RECORD = RecordSpec(
    ("project", str), ("beta", (str, int, float)), ("scores", list), ("optimal", list)
)
SCORE_ENTRY = RecordSpec(("sca", str), ("tp", int), ("fp", int), ("union_actionable", int))


@dataclass(frozen=True)
class ProjectEvaluation:
    """Everything the downstream stages need about one evaluated project."""

    project_id: str
    beta: float
    scores: tuple[EffectivenessScore, ...]
    optimal: tuple[ScaId, ...]

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
            "optimal": list(self.optimal),
        }

    @classmethod
    def from_record(cls, record: dict) -> "ProjectEvaluation":
        """Inverse of ``to_record``; p, r, f_beta and the optimal set are
        recomputed from the counts.  A missing field, one of the wrong type or
        value, a score repeating another's analyzer, or an ``optimal`` that
        differs from the recomputed set raises a SchemaError."""
        where = "evaluation record"
        project, beta_field, entries, optimal = read_record(record, EVALUATION_RECORD, where)
        if not entries:
            raise SchemaError(f"{where}: field 'scores' is empty")
        try:
            beta = parse_beta(str(beta_field))
            scores = []
            first: dict[ScaId, int] = {}
            for i, entry in enumerate(entries):
                sca, tp, fp, union = read_record(entry, SCORE_ENTRY, "%s: score %d", where, i)
                if first.setdefault(sca, i) != i:
                    raise SchemaError(
                        f"{where}: score {i}: analyzer {sca!r} repeats score {first[sca]}"
                    )
                scores.append(score_sca(sca, ConfusionCounts(tp, fp, union), beta))
        except (ConfigError, ValueError) as exc:
            raise SchemaError(f"{where}: {exc}") from exc
        best = optimal_set(scores)
        if list(best) != optimal:
            raise SchemaError(
                f"{where}: field 'optimal' is {optimal} but the counts give {list(best)}"
            )
        return cls(project, beta, tuple(scores), best)


def reevaluate(evaluation: ProjectEvaluation, beta: float) -> ProjectEvaluation:
    """Re-score a stored evaluation at a different beta from its counts."""
    scores = tuple(score_sca(s.sca, s.counts, beta) for s in evaluation.scores)
    return ProjectEvaluation(evaluation.project_id, validate_beta(beta), scores, optimal_set(scores))
