"""The benchmark's tracer against the package it wraps.

``perfbench/tracing.py`` wraps functions of ``sca_reco`` by name from
outside the package and takes its per-layer counts from what they return.
A rename in the package would break a traced run, and a changed return
value would zero its counts without an error.  These tests load the tracer
as it is and check both against the current package: the cascade's stage
counts, the alignment's group sizes and discards, and the label file's
bytes, each recounted from what the package itself returns or writes.
"""

from __future__ import annotations

import importlib.util
import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from helpers import identity_mapping, label_snapshot, raw, snapshot
from sca_reco import cli
from sca_reco.alignment import align_project
from sca_reco.core import WarningLabel
from sca_reco.ingestion import load_snapshot
from sca_reco.matching import ReleasePair, label_release_detailed
from sca_reco.pipeline import label_corpus, load_corpus_context, write_labels
from sca_reco.synth import SynthConfig, generate_corpus

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    # renamed classes and edited lines, so every stage of the cascade hits
    out = tmp_path_factory.mktemp("traced") / "corpus"
    config = SynthConfig(
        n_projects=2, files_per_project=6, mutation_weights=(0.2, 0.2, 0.3, 0.3), seed=9
    )
    generate_corpus(config, out)
    return out


def test_every_target_resolves(tracing):
    for name, owner_name, attr, _ in tracing.TARGETS:
        owner = tracing._resolve(owner_name)
        assert attr in vars(owner), f"{name}: {owner_name} has no {attr}"
        target = vars(owner)[attr]
        assert callable(getattr(target, "__func__", target)), name


def expected_counts(labeled, audit) -> Counter:
    """The cascade counts the tracer reports, taken from the labels and the
    audit records themselves."""
    counts = Counter()
    counts["matching.old_warnings"] += len(labeled)
    for warning, record in zip(labeled, audit):
        stage = "unmatched" if record.stage is None else f"hits.{record.stage.value}"
        counts[f"matching.{stage}"] += 1
        counts["matching.unknown"] += warning.label.value == "unknown"
    return counts


def test_audit_counts_equal_the_label_pass(tracing, corpus):
    context = load_corpus_context(corpus)
    counts, expected = Counter(), Counter()
    for project_id in ("p000", "p001"):
        snap = load_snapshot(corpus, project_id)
        releases = ReleasePair.diff(snap.release_old, snap.release_new)
        for sca in context.sca_order:
            result = label_release_detailed(snap, sca, context.mapping, releases)
            tracing._count_audit(counts, result, (snap, sca, context.mapping, releases), {})
            expected += expected_counts(*result)
    # a synthetic corpus deletes no file, so a hand-built project does
    gone = snapshot({"com/example/Foo.java": ["int a;"]}, {}, {"alpha": [raw()]}, {"alpha": []})
    result = label_snapshot(gone, "alpha", identity_mapping())
    tracing._count_audit(counts, result, (gone, "alpha"), {})
    expected += expected_counts(*result)
    for stage in ("location", "snippet", "hash"):
        assert expected[f"matching.hits.{stage}"] > 0, stage
    assert expected["matching.unknown"] > 0
    assert counts == expected


def traced(tracing, argv):
    """The tracer of one traced CLI command, which must succeed."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    return tracer


def test_traced_label_run_counts_every_stage(tracing, corpus, tmp_path):
    out = tmp_path / "labels.jsonl"
    tracer = traced(tracing, ["label", "--corpus", str(corpus), "--out", str(out)])
    rows = [
        row
        for line in out.read_text(encoding="utf-8").splitlines()
        for row in json.loads(line)["warnings"]
    ]
    stages = Counter(row["stage"] or "unmatched" for row in rows)
    assert tracer.calls["matching.label_release_detailed"] == 2 * len(
        load_corpus_context(corpus).sca_order
    )
    assert tracer.counts["matching.old_warnings"] == len(rows)
    for stage in ("location", "snippet", "hash"):
        assert tracer.counts[f"matching.hits.{stage}"] == stages[stage] > 0, stage
    assert tracer.counts["matching.unmatched"] == stages["unmatched"]
    assert tracer.counts["matching.unknown"] == sum(row["label"] == "unknown" for row in rows)
    assert tracer.counts["pipeline.jsonl_bytes"] == out.stat().st_size > 0


ALIGNMENT_COUNTS = (
    "alignment.groups.1", "alignment.groups.2", "alignment.groups.3", "alignment.discarded",
)


def judged(labels) -> dict:
    return {
        sca: [w for w in warnings if w.label is not WarningLabel.UNKNOWN]
        for sca, warnings in labels.by_sca.items()
    }


def alignment_counts(all_labels, sca_order) -> Counter:
    """The group sizes and discards of each project's own alignment."""
    counts = Counter()
    for labels in all_labels:
        result = align_project(judged(labels), sca_order)
        counts.update(f"alignment.groups.{len(group.members)}" for group in result.groups)
        counts["alignment.discarded"] += len(result.discarded)
    return counts


def with_one_conflict(labels, sca_order):
    """``labels`` with one member of its first aligned pair given the other
    label, so that the pair is discarded."""
    result = align_project(judged(labels), sca_order)
    member = next(g for g in result.groups if len(g.members) == 2).members[1]
    label = WarningLabel.ACTIONABLE
    if member.label is label:
        label = WarningLabel.UNACTIONABLE
    by_sca = {
        sca: tuple(w._replace(label=label) if w == member else w for w in warnings)
        for sca, warnings in labels.by_sca.items()
    }
    return replace(labels, by_sca=by_sca)


def test_traced_evaluate_runs_count_every_group_size(tracing, corpus, tmp_path):
    context = load_corpus_context(corpus)
    all_labels, _ = label_corpus(context)
    # synthetic analyzers never disagree on a label, so the stored labels
    # are given one conflicting pair
    stored = [with_one_conflict(all_labels[0], context.sca_order), *all_labels[1:]]
    path = tmp_path / "labels.jsonl"
    write_labels(path, stored)
    argv = ["evaluate", "--corpus", str(corpus), "--out-dir", str(tmp_path)]
    for labels, extra in ((all_labels, []), (stored, ["--labels", str(path)])):
        tracer = traced(tracing, argv + extra)
        expected = alignment_counts(labels, context.sca_order)
        assert tracer.calls["alignment.align_project"] == 2
        for name in ALIGNMENT_COUNTS:
            assert tracer.counts[name] == expected[name], name
    # the stored run reaches every group size and a discard
    assert all(expected[name] > 0 for name in ALIGNMENT_COUNTS)
