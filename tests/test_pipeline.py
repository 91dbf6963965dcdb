"""Corpus orchestration: context loading, fault isolation, stored artifacts."""

from __future__ import annotations

import hashlib
import json
import shutil
from collections import Counter

import pytest

from sca_reco import cli
from sca_reco.exceptions import IoError
from sca_reco.pipeline import (
    corpus_features,
    evaluate_corpus,
    evaluate_label_records,
    label_corpus,
    labels_to_record,
    load_corpus_context,
    read_evaluations,
    read_labels,
    record_to_labels,
    write_evaluations,
    write_labels,
    write_optimal_sets,
)
from sca_reco.synth import SynthConfig, generate_corpus

CONFIG = SynthConfig(n_projects=4, files_per_project=2, seed=21)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline") / "corpus"
    generate_corpus(CONFIG, out)
    return out


@pytest.fixture(scope="module")
def context(corpus):
    return load_corpus_context(corpus)


def test_context_requires_mapping(tmp_path):
    (tmp_path / "scas.txt").write_text("alpha\n", encoding="utf-8")
    with pytest.raises(IoError):
        load_corpus_context(tmp_path)
    with pytest.raises(IoError):
        load_corpus_context(tmp_path / "missing")


def test_context_falls_back_to_packaged_taxonomy(corpus, tmp_path):
    clone = tmp_path / "clone"
    shutil.copytree(corpus, clone)
    (clone / "taxonomy.tsv").unlink()
    context = load_corpus_context(clone)
    assert "null_dereference" in context.taxonomy.category_ids
    assert len(context.taxonomy.categories) == 16


def test_explicit_paths_win(corpus, tmp_path):
    taxonomy = tmp_path / "tiny.tsv"
    taxonomy.write_text(
        "gdc_id\tname\tgroup\nnull_dereference\tNull dereference\tdefects\n",
        encoding="utf-8",
    )
    mapping = tmp_path / "tiny_map.tsv"
    mapping.write_text(
        "sca\toriginal_type\tgdc_id\nhawkeye\tHAWKEYE-null_dereference\tnull_dereference\n",
        encoding="utf-8",
    )
    context = load_corpus_context(
        corpus,
        taxonomy_path=taxonomy,
        mapping_path=mapping,
        strict_taxonomy=False,
    )
    assert context.taxonomy.category_ids == {"null_dereference"}
    assert dict(context.mapping.entries) == {
        ("hawkeye", "HAWKEYE-null_dereference"): "null_dereference"
    }


def test_label_and_evaluate_corpus(context):
    all_labels, failures = label_corpus(context)
    assert failures == []
    assert [l.project_id for l in all_labels] == ["p000", "p001", "p002", "p003"]
    evaluations, failures = evaluate_corpus(context, beta=1.0)
    assert failures == []
    assert [e.project_id for e in evaluations] == ["p000", "p001", "p002", "p003"]
    for evaluation in evaluations:
        assert evaluation.sca_order() == context.sca_order
    # scoring stored labels gives the same evaluations as the direct path
    replayed, failures = evaluate_label_records(all_labels, context.sca_order, 1.0)
    assert failures == []
    assert replayed == evaluations


def test_parallel_equals_serial(context):
    serial, _ = evaluate_corpus(context, beta=1.0, jobs=1)
    parallel, _ = evaluate_corpus(context, beta=1.0, jobs=3)
    assert serial == parallel


def test_corrupted_project_is_isolated(corpus, tmp_path):
    clone = tmp_path / "clone"
    shutil.copytree(corpus, clone)
    report = next((clone / "p001").glob("*/reports/*.json"))
    report.write_text("{ not json", encoding="utf-8")
    context = load_corpus_context(clone)
    evaluations, failures = evaluate_corpus(context, beta=1.0)
    assert [e.project_id for e in evaluations] == ["p000", "p002", "p003"]
    assert len(failures) == 1
    assert failures[0].project_id == "p001"
    assert failures[0].message


def test_label_records_round_trip(context, tmp_path):
    all_labels, _ = label_corpus(context)
    record = labels_to_record(all_labels[0])
    json.dumps(record)  # must be serializable as-is
    assert record_to_labels(record) == all_labels[0]
    path = tmp_path / "labels.jsonl"
    write_labels(path, all_labels)
    assert read_labels(path, context.sca_order) == all_labels


def test_evaluation_records_round_trip(context, tmp_path):
    evaluations, _ = evaluate_corpus(context, beta=0.5)
    path = tmp_path / "evaluations.jsonl"
    write_evaluations(path, evaluations)
    assert read_evaluations(path) == evaluations


def test_write_optimal_sets_format(context, tmp_path):
    evaluations, _ = evaluate_corpus(context, beta=1.0)
    path = tmp_path / "optimal.tsv"
    write_optimal_sets(path, evaluations)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "project\tprimary\toptimal"
    assert len(lines) == 5
    for line, evaluation in zip(lines[1:], evaluations):
        project, primary, optimal = line.split("\t")
        assert project == evaluation.project_id
        assert primary == evaluation.optimal.primary()
        assert optimal == ",".join(evaluation.optimal.optimal)


def test_corpus_features_requires_table(context, corpus, tmp_path):
    vectors = corpus_features(context)
    assert [v.project_id for v in vectors] == ["p000", "p001", "p002", "p003"]
    clone = tmp_path / "clone"
    shutil.copytree(corpus, clone)
    (clone / "features.csv").unlink()
    with pytest.raises(IoError):
        corpus_features(load_corpus_context(clone))


# Labeling behaviour, pinned: a churn-style corpus (most files renamed) sends
# matches to the snippet and hash stages.  The digests were taken before the
# hash stage compared windows by their bytes instead of a 64-bit hash, and
# any change to a label, stage or score changes them.
CHURN_CONFIG = SynthConfig(
    n_projects=3, files_per_project=6, mutation_weights=(0.0, 0.1, 0.45, 0.45), seed=17
)
CHURN_DIGESTS = {
    "labels.jsonl": "2086b08029d72ad43dbb6cda6604e9d2de9239320b00b9fafa2ee9332b7ec7ca",
    "evaluations.jsonl": "ea337213c605d4242b90c6639982aaa5d764aad20a5206d5a1c1ce2e19d406c9",
}


def test_churn_labels_are_pinned(tmp_path):
    corpus = tmp_path / "corpus"
    generate_corpus(CHURN_CONFIG, corpus)
    labels = tmp_path / "labels.jsonl"
    assert cli.main(["label", "--corpus", str(corpus), "--out", str(labels)]) == 0
    argv = ["evaluate", "--corpus", str(corpus), "--labels", str(labels)]
    assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 0
    stages = Counter(
        warning.get("stage")
        for line in labels.read_text(encoding="utf-8").splitlines()
        for warning in json.loads(line)["warnings"]
    )
    assert stages["hash"] > 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in CHURN_DIGESTS
    }
    assert digests == CHURN_DIGESTS
