"""Cross-analyzer identity conditions, grouping, voting, and discards."""

from __future__ import annotations

import pytest

from helpers import A, U, UNKNOWN, aw
from sca_reco.alignment import AlignmentResult, align_project, identical
from sca_reco.core import WarningLabel

SCAS = ("alpha", "beta", "gamma")
C = "com.example.Foo"


def test_identical_triple_within_offsets():
    w1 = aw(class_info=C, start=100, end=102, sca="alpha")
    w2 = aw(class_info=C, start=101, end=103, sca="beta")
    w3 = aw(class_info=C, start=100, end=101, sca="gamma")
    assert identical((w1, w2, w3))


def test_offset_three_without_overlap_fails():
    # offsets are exactly 3 but the single-line ranges do not overlap
    w1 = aw(class_info=C, start=100, end=100, sca="alpha")
    w2 = aw(class_info=C, start=103, end=103, sca="beta")
    assert not identical((w1, w2))


def test_overlap_at_boundary_passes():
    w1 = aw(class_info=C, start=100, end=103, sca="alpha")
    w2 = aw(class_info=C, start=103, end=103, sca="beta")
    assert identical((w1, w2))


def test_identical_same_category_from_mapping():
    # two analyzers with different native types land on one category and the
    # same class/line, which is exactly the cross-analyzer identity case
    w1 = aw(new_type="performance_smell", class_info=C, start=139, end=139, sca="alpha")
    w2 = aw(new_type="performance_smell", class_info=C, start=139, end=139, sca="beta")
    assert identical((w1, w2))


def test_identical_requires_type_class_and_label():
    base = aw(class_info=C, start=10, end=10, sca="alpha")
    assert not identical((base, aw(new_type="dead_code", class_info=C, start=10, sca="beta")))
    assert not identical((base, aw(class_info="com.example.Bar", start=10, sca="beta")))
    mismatched = aw(class_info=C, start=10, end=10, label=U, sca="beta")
    assert not identical((base, mismatched))
    assert identical((base, mismatched), ignore_label=True)


def test_identical_offset_limits_pairwise():
    w1 = aw(class_info=C, start=10, end=20, sca="alpha")
    w2 = aw(class_info=C, start=13, end=20, sca="beta")
    w3 = aw(class_info=C, start=16, end=20, sca="gamma")
    assert identical((w1, w2))
    assert identical((w2, w3))
    assert not identical((w1, w2, w3))  # w1 vs w3 start offset is 6


def test_identical_is_symmetric():
    w1 = aw(class_info=C, start=10, end=12, sca="alpha")
    w2 = aw(class_info=C, start=11, end=13, sca="beta")
    assert identical((w1, w2)) == identical((w2, w1))


def test_identical_rejects_duplicate_analyzers():
    w1 = aw(class_info=C, start=10, sca="alpha", index=0)
    w2 = aw(class_info=C, start=11, sca="alpha", index=1)
    with pytest.raises(ValueError):
        identical((w1, w2))


def test_identical_arity():
    with pytest.raises(ValueError):
        identical((aw(),))


# grouping


def test_three_way_group_with_majority_vote():
    labeled = {
        "alpha": [aw(class_info=C, start=10, end=14, label=A, sca="alpha")],
        "beta": [aw(class_info=C, start=11, end=14, label=A, sca="beta")],
        "gamma": [aw(class_info=C, start=12, end=14, label=U, sca="gamma")],
    }
    result = align_project(labeled, SCAS)
    assert len(result.groups) == 1
    group = result.groups[0]
    assert len(group.members) == 3
    assert group.resolved_label is WarningLabel.ACTIONABLE
    assert not result.discarded


def test_minority_unactionable_vote():
    labeled = {
        "alpha": [aw(class_info=C, start=10, end=14, label=U, sca="alpha")],
        "beta": [aw(class_info=C, start=11, end=14, label=U, sca="beta")],
        "gamma": [aw(class_info=C, start=12, end=14, label=A, sca="gamma")],
    }
    result = align_project(labeled, SCAS)
    assert result.groups[0].resolved_label is WarningLabel.UNACTIONABLE


def test_conflicting_pair_discarded():
    labeled = {
        "alpha": [aw(class_info=C, start=10, label=A, sca="alpha")],
        "beta": [aw(class_info=C, start=10, label=U, sca="beta")],
    }
    result = align_project(labeled, ("alpha", "beta"))
    assert not result.groups
    assert len(result.discarded) == 1
    assert {w.origin[0] for w in result.discarded[0].members} == {"alpha", "beta"}


def test_mutually_incompatible_warnings_stay_single():
    labeled = {
        "alpha": [aw(class_info=C, start=10, sca="alpha")],
        "beta": [aw(class_info=C, start=50, sca="beta")],
        "gamma": [aw(class_info="com.example.Bar", start=10, sca="gamma")],
    }
    result = align_project(labeled, SCAS)
    assert len(result.groups) == 3
    assert all(len(g.members) == 1 for g in result.groups)


def test_groups_partition_the_input():
    labeled = {
        "alpha": [aw(class_info=C, start=10, label=A, sca="alpha"),
                  aw(class_info=C, start=40, label=U, sca="alpha", index=1)],
        "beta": [aw(class_info=C, start=11, label=A, sca="beta"),
                 aw(class_info=C, start=41, label=A, sca="beta", index=1)],
        "gamma": [aw(class_info=C, start=90, label=A, sca="gamma")],
    }
    result = align_project(labeled, SCAS)
    grouped = [w.origin for g in result.groups for w in g.members]
    discarded = [w.origin for d in result.discarded for w in d.members]
    everything = sorted(grouped + discarded)
    expected = sorted(w.origin for ws in labeled.values() for w in ws)
    assert everything == expected
    assert len(everything) == len(set(everything))


def test_greedy_attaches_nearest_candidate():
    labeled = {
        "alpha": [aw(class_info=C, start=10, end=13, sca="alpha")],
        "beta": [
            aw(class_info=C, start=13, end=13, sca="beta", index=0),
            aw(class_info=C, start=11, end=13, sca="beta", index=1),
        ],
    }
    result = align_project(labeled, ("alpha", "beta"))
    pair = next(g for g in result.groups if len(g.members) == 2)
    beta_member = next(w for w in pair.members if w.origin[0] == "beta")
    assert beta_member.start_line == 11


def test_input_order_irrelevant():
    warnings = {
        "alpha": [aw(class_info=C, start=10, end=13, label=A, sca="alpha"),
                  aw(class_info=C, start=30, end=32, label=U, sca="alpha", index=1)],
        "beta": [aw(class_info=C, start=12, end=13, label=A, sca="beta"),
                 aw(class_info=C, start=29, end=32, label=U, sca="beta", index=1)],
    }
    paired = align_project(warnings, ("alpha", "beta"))
    assert all(len(g.members) == 2 for g in paired.groups)
    shuffled = {sca: list(reversed(ws)) for sca, ws in warnings.items()}
    assert align_project(warnings, ("alpha", "beta")) == align_project(
        shuffled, ("alpha", "beta")
    )


def test_unknown_labels_rejected():
    labeled = {"alpha": [aw(class_info=C, start=10, label=UNKNOWN, sca="alpha")]}
    with pytest.raises(ValueError):
        align_project(labeled, ("alpha",))


def test_origin_must_match_report_key():
    labeled = {"alpha": [aw(class_info=C, start=10, sca="beta")]}
    with pytest.raises(ValueError):
        align_project(labeled, ("alpha", "beta"))


def test_distinct_counts():
    assert AlignmentResult((), ()).groups == ()
    labeled = {
        "alpha": [aw(class_info=C, start=10, end=12, label=A, sca="alpha"),
                  aw(class_info=C, start=40, label=U, sca="alpha", index=1)],
        "beta": [aw(class_info=C, start=11, end=12, label=A, sca="beta")],
    }
    result = align_project(labeled, ("alpha", "beta"))
    assert [g.resolved_label for g in result.groups] == [A, U]


def test_union_semantics_one_shared_defect():
    labeled = {
        sca: [aw(class_info=C, start=10 + i, end=13, label=A, sca=sca)]
        for i, sca in enumerate(SCAS)
    }
    result = align_project(labeled, SCAS)
    assert [g.resolved_label for g in result.groups] == [A]
