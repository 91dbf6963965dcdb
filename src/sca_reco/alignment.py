"""Grouping of warnings that different analyzers raised for the same defect.

Two or three warnings (at most one per analyzer) are considered the same
defect when they share category and class, their start and end lines are
each within 3 of one another pairwise, and their line ranges overlap
pairwise.  Labels are then resolved by vote: unanimous groups keep their
label, a 2-vs-1 group takes the majority, and a conflicting pair is
discarded outright.  Warnings that group with nobody stand alone.

The pairwise rule is defined once, in ``_same_defect``.  The greedy
grouping checks each candidate against each member with it, once per pair.
It looks only at the candidates the rule can accept: those of the seed's
category and class starting within OFFSET_LIMIT lines of it.  Groups and
discarded pairs are plain tuples that ``align_project`` alone builds, so
each group's vote is taken once, as the group closes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from .core import AlignedWarning, ScaId, WarningLabel

OFFSET_LIMIT = 3


def _same_defect(a: AlignedWarning, b: AlignedWarning) -> bool:
    """The pairwise rule: two warnings denote one defect when they share
    category and class, their start lines and their end lines are each
    within OFFSET_LIMIT, and their line ranges overlap."""
    return (
        a.new_type == b.new_type
        and a.class_info == b.class_info
        and abs(a.start_line - b.start_line) <= OFFSET_LIMIT
        and abs(a.end_line - b.end_line) <= OFFSET_LIMIT
        and max(a.start_line, b.start_line) <= min(a.end_line, b.end_line)
    )


def _resolve_label(members: Sequence[AlignedWarning]) -> WarningLabel | None:
    """Voted label, or None for a conflicting pair (which must be discarded)."""
    labels = [m.label for m in members]
    if labels.count(labels[0]) == len(labels):
        return labels[0]
    if len(labels) == 2:
        return None
    actionable = sum(1 for label in labels if label is WarningLabel.ACTIONABLE)
    return WarningLabel.ACTIONABLE if actionable >= 2 else WarningLabel.UNACTIONABLE


class AlignedGroup(NamedTuple):
    """A resolved group of 1..3 warnings from distinct analyzers agreeing on
    one defect, in canonical order, with their voted label."""

    members: tuple[AlignedWarning, ...]
    resolved_label: WarningLabel


class DiscardedPair(NamedTuple):
    """Two warnings that matched in every respect except their labels."""

    members: tuple[AlignedWarning, AlignedWarning]


@dataclass(frozen=True)
class AlignmentResult:
    groups: tuple[AlignedGroup, ...]
    discarded: tuple[DiscardedPair, ...]


def align_project(
    labeled: Mapping[ScaId, Sequence[AlignedWarning]],
    sca_order: Sequence[ScaId],
) -> AlignmentResult:
    """Greedily group one project's labeled warnings across analyzers.

    Analyzers are visited in corpus order; each still-unconsumed warning (in
    canonical order) seeds a group, then every later analyzer contributes its
    best compatible unconsumed warning: minimal summed start-line distance to
    the current members, ties by canonical order.  Labels are ignored while
    grouping; each group's vote is taken as it closes, and a lone warning
    keeps its own label.

    Each analyzer's pool is indexed by (category, class) and then by start
    line, and a seed looks only at the lines within OFFSET_LIMIT of its
    start.  ``_same_defect`` accepts a member only if it shares the seed's
    category and class and starts within OFFSET_LIMIT lines of it, so those
    lines hold every compatible candidate; the pick is by a total order, so
    the groups are the same as when scanning the whole pool.  The index
    holds each warning with its rank in its sorted pool, which orders as
    the warnings do, so the tie-break compares two integers.  The index
    lives for one call, that is for one project.

    Warnings sort as tuples, and a repeated origin would leave two of them
    to be told apart by their labels, so one is refused.
    """
    if len(set(sca_order)) != len(sca_order):
        raise ValueError(f"analyzer order {list(sca_order)} repeats an analyzer")
    for sca, warnings in labeled.items():
        origins = set()
        for w in warnings:
            if w.label is WarningLabel.UNKNOWN:
                raise ValueError(f"unknown-labeled warning from {sca!r} cannot be aligned")
            if w.origin[0] != sca:
                raise ValueError(f"warning origin {w.origin} filed under {sca!r}")
            if w.origin in origins:
                raise ValueError(f"warning origin {w.origin} filed twice under {sca!r}")
            origins.add(w.origin)

    pools: dict[ScaId, list[AlignedWarning]] = {
        sca: sorted(labeled.get(sca, ())) for sca in sca_order
    }
    indexes = {sca: _index_by_line(pool) for sca, pool in pools.items()}
    consumed: set[tuple[ScaId, int]] = set()
    groups: list[AlignedGroup] = []
    discarded: list[DiscardedPair] = []

    for i, sca in enumerate(sca_order):
        for seed in pools[sca]:
            if seed.origin in consumed:
                continue
            consumed.add(seed.origin)
            members = [seed]
            first = seed.start_line - OFFSET_LIMIT
            near = range(first, first + 2 * OFFSET_LIMIT + 1)
            for later in sca_order[i + 1 :]:
                lines = indexes[later].get((seed.new_type, seed.class_info))
                if not lines:
                    continue
                best = best_key = None
                for line in near:
                    for rank, candidate in lines.get(line, ()):
                        if candidate.origin in consumed or not _compatible(members, candidate):
                            continue
                        distance = sum(abs(candidate.start_line - m.start_line) for m in members)
                        if best_key is None or (distance, rank) < best_key:
                            best, best_key = candidate, (distance, rank)
                if best is not None:
                    consumed.add(best.origin)
                    members.append(best)
            if len(members) == 1:
                groups.append(AlignedGroup((seed,), seed.label))
                continue
            resolved = _resolve_label(members)
            if resolved is None:
                discarded.append(DiscardedPair(tuple(sorted(members))))
            else:
                groups.append(AlignedGroup(tuple(sorted(members)), resolved))
    groups.sort(key=lambda g: g.members[0])
    discarded.sort(key=lambda d: d.members[0])
    return AlignmentResult(tuple(groups), tuple(discarded))


def _compatible(members: list[AlignedWarning], candidate: AlignedWarning) -> bool:
    """Does ``candidate`` pass the pairwise rule with every member?"""
    for member in members:
        if not _same_defect(member, candidate):
            return False
    return True


# (category, class) -> start line -> (rank, warning) pairs, where rank is
# the warning's position in its canonically sorted pool
_LineIndex = dict[tuple[str, str], dict[int, list[tuple[int, AlignedWarning]]]]


def _index_by_line(pool: list[AlignedWarning]) -> _LineIndex:
    index: _LineIndex = {}
    for rank, w in enumerate(pool):
        lines = index.setdefault((w.new_type, w.class_info), {})
        lines.setdefault(w.start_line, []).append((rank, w))
    return index
