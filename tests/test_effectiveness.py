"""Precision, recall, weighted F score, optimal sets, and evaluation records."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from helpers import A, ALIGNED_SCAS, U, aw, labeled_warnings
from sca_reco.alignment import AlignmentResult, align_project
from sca_reco.core import WarningLabel
from sca_reco.effectiveness import (
    ConfusionCounts,
    EffectivenessScore,
    ProjectEvaluation,
    evaluate_project,
    f_beta,
    optimal_set,
    precision,
    recall,
    reevaluate,
    score_sca,
)
from sca_reco.exceptions import ConfigError

C = "com.example.Foo"
SCAS = ("alpha", "beta", "gamma")

counts_st = st.tuples(
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=0, max_value=50),
).map(lambda t: ConfusionCounts(tp=t[0], fp=t[1], union_actionable=t[0] + t[2]))


def test_counts_validation():
    with pytest.raises(ValueError):
        ConfusionCounts(tp=3, fp=0, union_actionable=2)
    with pytest.raises(ValueError):
        ConfusionCounts(tp=-1, fp=0, union_actionable=0)


def test_frozen_arithmetic_example():
    counts = ConfusionCounts(tp=6, fp=4, union_actionable=12)
    assert precision(counts) == 0.6
    assert recall(counts) == 0.5
    assert f_beta(counts, 1.0) == pytest.approx(6.0 / 11.0, abs=1e-15)


def test_degenerate_counts_yield_zero():
    counts = ConfusionCounts(tp=0, fp=5, union_actionable=3)
    assert precision(counts) == 0.0
    assert f_beta(counts, 1.0) == 0.0
    empty = ConfusionCounts(tp=0, fp=0, union_actionable=0)
    assert precision(empty) == 0.0
    assert recall(empty) == 0.0
    assert f_beta(empty, 2.0) == 0.0


def test_perfect_counts_yield_one():
    counts = ConfusionCounts(tp=7, fp=0, union_actionable=7)
    for beta in (0.0, 0.5, 1.0, 2.0, math.inf):
        assert f_beta(counts, beta) == 1.0


def test_beta_endpoints_exact():
    counts = ConfusionCounts(tp=6, fp=4, union_actionable=12)
    assert f_beta(counts, 0.0) == precision(counts)
    assert f_beta(counts, math.inf) == recall(counts)


def test_negative_beta_rejected():
    with pytest.raises(ConfigError, match=r"^beta must be a non-negative real or inf, got -1\.0$"):
        f_beta(ConfusionCounts(1, 1, 1), -1.0)


@given(counts_st, st.floats(min_value=0.0, max_value=8.0, allow_nan=False))
def test_f_beta_between_p_and_r(counts, beta):
    p, r = precision(counts), recall(counts)
    f = f_beta(counts, beta)
    assert 0.0 <= f <= 1.0
    if p > 0 and r > 0:
        assert min(p, r) - 1e-12 <= f <= max(p, r) + 1e-12


@given(counts_st, st.floats(min_value=0.0, max_value=8.0, allow_nan=False))
def test_f_beta_monotone_in_tp(counts, beta):
    # one more true positive (union grows with it, fp fixed) never hurts
    grown = ConfusionCounts(counts.tp + 1, counts.fp, counts.union_actionable + 1)
    assert f_beta(grown, beta) >= f_beta(counts, beta) - 1e-12


def per_sca_confusion(result: AlignmentResult, sca: str) -> ConfusionCounts:
    """One analyzer's counts by a scan of every group, the loop
    ``evaluate_project`` ran once per analyzer before it counted all of
    them in one pass; the oracle that pass must equal."""
    tp = fp = union = 0
    for group in result.groups:
        actionable = group.resolved_label is WarningLabel.ACTIONABLE
        if actionable:
            union += 1
        if any(m.origin[0] == sca for m in group.members):
            if actionable:
                tp += 1
            else:
                fp += 1
    return ConfusionCounts(tp, fp, union)


def counts_of(result: AlignmentResult, scas=SCAS) -> dict:
    return {score.sca: score.counts for score in evaluate_project(result, scas, 1.0)}


def shared_group_fixture():
    labeled = {
        sca: [aw(class_info=C, start=10 + i, end=14, label=A, sca=sca)]
        for i, sca in enumerate(SCAS)
    }
    return align_project(labeled, SCAS)


def test_per_sca_confusion_counting():
    labeled = {
        "alpha": [
            aw(class_info=C, start=10, end=12, label=A, sca="alpha", index=0),
            aw(class_info=C, start=30, end=32, label=U, sca="alpha", index=1),
            aw(class_info=C, start=50, end=52, label=U, sca="alpha", index=2),
        ],
        "beta": [aw(class_info=C, start=70, end=72, label=A, sca="beta", index=0)],
    }
    result = align_project(labeled, ("alpha", "beta"))
    counts = counts_of(result)
    counts_alpha = counts["alpha"]
    assert (counts_alpha.tp, counts_alpha.fp) == (1, 2)
    assert counts_alpha.union_actionable == 2  # alpha's actionable + beta's
    counts_gamma = counts["gamma"]  # listed, but raised no warning
    assert (counts_gamma.tp, counts_gamma.fp, counts_gamma.union_actionable) == (0, 0, 2)


def test_shared_group_gives_everyone_recall_one():
    counts_by_sca = counts_of(shared_group_fixture())
    for sca in SCAS:
        counts = counts_by_sca[sca]
        assert (counts.tp, counts.union_actionable) == (1, 1)
        assert recall(counts) == 1.0


def test_voted_label_drives_counting():
    labeled = {
        "alpha": [aw(class_info=C, start=10, end=14, label=U, sca="alpha")],
        "beta": [aw(class_info=C, start=11, end=14, label=A, sca="beta")],
        "gamma": [aw(class_info=C, start=12, end=14, label=A, sca="gamma")],
    }
    result = align_project(labeled, SCAS)
    # the vote flips alpha's member to actionable, so alpha earns the tp
    counts = counts_of(result)["alpha"]
    assert (counts.tp, counts.fp) == (1, 0)


def test_evaluate_project_orders_scores_by_corpus():
    scores = evaluate_project(shared_group_fixture(), SCAS, beta=1.0)
    assert [s.sca for s in scores] == list(SCAS)
    reordered = evaluate_project(shared_group_fixture(), SCAS[::-1], beta=1.0)
    assert {s.sca: s.f_beta for s in scores} == {s.sca: s.f_beta for s in reordered}


def test_empty_alignment_scores_zero():
    empty = AlignmentResult((), ())
    scores = evaluate_project(empty, SCAS, beta=1.0)
    assert [s.f_beta for s in scores] == [0.0, 0.0, 0.0]
    assert [s.counts for s in scores] == [per_sca_confusion(empty, sca) for sca in SCAS]


@settings(max_examples=300, deadline=None)
@given(
    labeled=labeled_warnings(),
    order=st.permutations(ALIGNED_SCAS),
    beta=st.sampled_from([0.0, 0.5, 1.0, 2.0, math.inf]),
)
def test_evaluate_project_equals_per_analyzer_scans(labeled, order, beta):
    result = align_project(labeled, order)
    scas = (*order, "delta")  # delta is listed but raised no warning
    expected = [score_sca(sca, per_sca_confusion(result, sca), beta) for sca in scas]
    assert evaluate_project(result, scas, beta) == expected


def make_score(sca, f):
    return EffectivenessScore(sca=sca, counts=ConfusionCounts(0, 0, 0), p=0.0, r=0.0, f_beta=f)


def test_optimal_set_single_winner():
    winners = optimal_set(
        [make_score("alpha", 0.07), make_score("beta", 0.06), make_score("gamma", 0.08)]
    )
    assert winners == ("gamma",)


def test_optimal_set_keeps_all_ties():
    winners = optimal_set([make_score(s, 0.0) for s in SCAS])
    assert winners == SCAS
    winners = optimal_set(
        [make_score("alpha", 0.5), make_score("beta", 0.5), make_score("gamma", 0.2)]
    )
    assert winners == ("alpha", "beta")


def test_optimal_set_rounds_float_noise():
    nearly = 0.1 + 0.2  # 0.30000000000000004
    winners = optimal_set([make_score("alpha", 0.3), make_score("beta", nearly)])
    assert winners == ("alpha", "beta")


def test_optimal_set_scale_invariance():
    scores = [make_score("alpha", 0.2), make_score("beta", 0.4), make_score("gamma", 0.4)]
    scaled = [make_score(s.sca, s.f_beta * 2.0) for s in scores]
    assert optimal_set(scores) == optimal_set(scaled)


def test_score_record_round_trip():
    result = shared_group_fixture()
    for beta in (0.0, 0.5, 1.0, math.inf):
        scores = evaluate_project(result, SCAS, beta)
        evaluation = ProjectEvaluation("p", beta, tuple(scores), optimal_set(scores))
        record = evaluation.to_record()
        json.dumps(record)  # must be serializable as-is
        restored = ProjectEvaluation.from_record(record)
        assert restored == evaluation


def test_reevaluate_changes_only_scores():
    counts = [
        ("alpha", ConfusionCounts(6, 4, 12)),
        ("beta", ConfusionCounts(9, 9, 12)),
        ("gamma", ConfusionCounts(2, 0, 12)),
    ]
    scores = tuple(score_sca(sca, c, 1.0) for sca, c in counts)
    evaluation = ProjectEvaluation("p", 1.0, scores, optimal_set(scores))
    at_zero = reevaluate(evaluation, 0.0)
    at_inf = reevaluate(evaluation, math.inf)
    assert [s.counts for s in at_zero.scores] == [c for _, c in counts]
    # P ranking favours gamma (1.0); R ranking favours beta (0.75)
    assert at_zero.optimal == ("gamma",)
    assert at_inf.optimal == ("beta",)
    assert reevaluate(evaluation, 1.0) == evaluation
