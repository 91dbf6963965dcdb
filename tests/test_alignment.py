"""Cross-analyzer identity conditions, as the groups ``align_project``
builds show them, grouping, voting, and discards."""

from __future__ import annotations

import pytest

from helpers import A, U, UNKNOWN, aw
from sca_reco.alignment import AlignmentResult, align_project
from sca_reco.core import WarningLabel

SCAS = ("alpha", "beta", "gamma")
C = "com.example.Foo"


def blocks(*warnings, order=None):
    """What ``align_project`` makes of ``warnings``: the sorted analyzers of
    each group with its voted label, and of each discarded pair with None."""
    labeled = {}
    for w in warnings:
        labeled.setdefault(w.origin[0], []).append(w)
    result = align_project(labeled, order or list(labeled))
    made = [(g.members, g.resolved_label) for g in result.groups]
    made += [(d.members, None) for d in result.discarded]
    return sorted(
        ((tuple(sorted(m.origin[0] for m in members)), label) for members, label in made),
        key=lambda block: block[0],
    )


# which warnings the grouping puts together


def test_identical_triple_within_offsets():
    w1 = aw(class_info=C, start=100, end=102, sca="alpha")
    w2 = aw(class_info=C, start=101, end=103, sca="beta")
    w3 = aw(class_info=C, start=100, end=101, sca="gamma")
    assert blocks(w1, w2, w3) == [(SCAS, A)]


def test_offset_three_without_overlap_fails():
    # offsets are exactly 3 but the single-line ranges do not overlap
    w1 = aw(class_info=C, start=100, end=100, sca="alpha")
    w2 = aw(class_info=C, start=103, end=103, sca="beta")
    assert blocks(w1, w2) == [(("alpha",), A), (("beta",), A)]


def test_overlap_at_boundary_passes():
    w1 = aw(class_info=C, start=100, end=103, sca="alpha")
    w2 = aw(class_info=C, start=103, end=103, sca="beta")
    assert blocks(w1, w2) == [(("alpha", "beta"), A)]


def test_identical_same_category_from_mapping():
    # two analyzers with different native types land on one category and the
    # same class/line, which is exactly the cross-analyzer identity case
    w1 = aw(new_type="performance_smell", class_info=C, start=139, end=139, sca="alpha")
    w2 = aw(new_type="performance_smell", class_info=C, start=139, end=139, sca="beta")
    assert blocks(w1, w2) == [(("alpha", "beta"), A)]


def test_identical_requires_type_class_and_label():
    base = aw(class_info=C, start=10, end=10, sca="alpha")
    apart = [(("alpha",), A), (("beta",), A)]
    assert blocks(base, aw(new_type="dead_code", class_info=C, start=10, sca="beta")) == apart
    assert blocks(base, aw(class_info="com.example.Bar", start=10, sca="beta")) == apart
    # labels are ignored while grouping, and a pair whose labels differ is discarded
    mismatched = aw(class_info=C, start=10, end=10, label=U, sca="beta")
    assert blocks(base, mismatched) == [(("alpha", "beta"), None)]


def test_identical_offset_limits_pairwise():
    w1 = aw(class_info=C, start=10, end=20, sca="alpha")
    w2 = aw(class_info=C, start=13, end=20, sca="beta")
    w3 = aw(class_info=C, start=16, end=20, sca="gamma")
    assert blocks(w1, w2) == [(("alpha", "beta"), A)]
    assert blocks(w2, w3) == [(("beta", "gamma"), A)]
    # w1 vs w3 start offset is 6, so the three are not one group
    assert blocks(w1, w2, w3) == [(("alpha", "beta"), A), (("gamma",), A)]


def test_identical_is_symmetric():
    w1 = aw(class_info=C, start=10, end=12, sca="alpha")
    w2 = aw(class_info=C, start=11, end=13, sca="beta")
    assert blocks(w1, w2, order=("alpha", "beta")) == [(("alpha", "beta"), A)]
    assert blocks(w1, w2, order=("beta", "alpha")) == [(("alpha", "beta"), A)]


def test_identical_rejects_duplicate_analyzers():
    # two warnings of one analyzer never share a group, however close
    w1 = aw(class_info=C, start=10, sca="alpha", index=0)
    w2 = aw(class_info=C, start=11, sca="alpha", index=1)
    assert blocks(w1, w2) == [(("alpha",), A), (("alpha",), A)]


def test_identical_arity():
    # a lone warning stands alone with its own label
    assert blocks(aw(label=U)) == [(("alpha",), U)]


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
