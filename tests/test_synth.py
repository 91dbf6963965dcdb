"""The synthetic corpus generator and its ground-truth manifest."""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import pytest

from helpers import load_truth
from sca_reco.core import WarningLabel
from sca_reco.exceptions import ConfigError
from sca_reco.features import load_features
from sca_reco.ingestion import list_projects, load_sca_order
from sca_reco.pipeline import (
    evaluate_corpus,
    label_corpus,
    load_corpus_context,
)
from sca_reco.synth import (
    AnalyzerProfile,
    SynthConfig,
    feature_names,
    generate_corpus,
)

SMALL = SynthConfig(n_projects=4, files_per_project=2, seed=11)
MINIMAL = SynthConfig(
    n_projects=1,
    profiles=(AnalyzerProfile("solo", 0.9, 0.1),),
    method_bands=((2, 3),),
    files_per_project=1,
    seed=3,
)
# churn's shape: every mutation kind, class renames included
CHURN = SynthConfig(
    n_projects=3, files_per_project=6, mutation_weights=(0.1, 0.3, 0.3, 0.3), seed=9
)
# an analyzer that detects nothing, so some reports list no warnings
SILENT = SynthConfig(
    n_projects=2,
    profiles=(AnalyzerProfile("loud", 0.9, 0.5), AnalyzerProfile("mute", 0.0, 0.0)),
    method_bands=((2, 4), (3, 5)),
    files_per_project=2,
    seed=4,
)

# SHA-256 of the JSON of ``tree_digest`` (sorted keys) of each corpus.  Any
# generated byte that changes (a source line, a report field, a truth entry)
# changes it, so a refactor of the generator must keep these values.
PINNED_TREE_DIGESTS = {
    "small": "55f89d619eaad85dd5b63c16d32d32800f7b467b9f5773b62a22f7e41274aa48",
    "minimal": "7946b2d230880e65d308d04c7b3c67ee52728d960b3e99dd8caca01f9dd2573e",
    "churn": "4889c8324c59abdb5f17b96d02046785ca2157bedac2f664b8195533ae60205a",
    "silent": "4c3f2606550c9ede7e29ed318c2b56e5695164450305208354c8700413f3f9bb",
}


def tree_digest(root: Path) -> dict[str, str]:
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth") / "corpus"
    truth = generate_corpus(SMALL, out)
    return out, truth


def test_config_validation():
    with pytest.raises(ConfigError):
        SynthConfig(n_projects=0)
    with pytest.raises(ConfigError):
        SynthConfig(profiles=())
    twice = (AnalyzerProfile("x", 0.5, 0.1), AnalyzerProfile("x", 0.6, 0.1))
    with pytest.raises(ConfigError):
        SynthConfig(profiles=twice, method_bands=((1, 2), (3, 4)))
    with pytest.raises(ConfigError):
        SynthConfig(method_bands=((1, 2), (3, 4)))  # 3 profiles need 3 bands
    with pytest.raises(ConfigError):
        SynthConfig(method_bands=((0, 2), (3, 4), (5, 6)))
    with pytest.raises(ConfigError):
        SynthConfig(edit_intensity=1.5)
    with pytest.raises(ConfigError):
        SynthConfig(mutation_weights=(0.0, 0.0, 0.0, 0.0))
    with pytest.raises(ConfigError):
        AnalyzerProfile("x", detection=1.2, fp_rate=0.0)
    with pytest.raises(ConfigError):
        AnalyzerProfile("", detection=0.5, fp_rate=0.0)


def test_same_seed_same_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    generate_corpus(SMALL, a)
    generate_corpus(SMALL, b)
    assert tree_digest(a) == tree_digest(b)


@pytest.mark.parametrize(
    "name, config",
    [("small", SMALL), ("minimal", MINIMAL), ("churn", CHURN), ("silent", SILENT)],
)
def test_corpus_bytes_are_pinned(tmp_path, name, config):
    generate_corpus(config, tmp_path / name)
    table = json.dumps(tree_digest(tmp_path / name), sort_keys=True)
    assert hashlib.sha256(table.encode()).hexdigest() == PINNED_TREE_DIGESTS[name]


def test_json_files_are_written_as_json_dumps_writes_them(tmp_path):
    # an analyzer id that needs escaping, and one that reports nothing
    profiles = (AnalyzerProfile('q"\u00e9\\x', 0.9, 0.5), AnalyzerProfile("mute", 0.0, 0.0))
    config = SynthConfig(
        n_projects=2, profiles=profiles, method_bands=((2, 3), (2, 3)), files_per_project=2
    )
    generate_corpus(config, tmp_path / "c")
    for path in (tmp_path / "c").rglob("*.json"):
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_different_seed_differs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    generate_corpus(SMALL, a)
    generate_corpus(SynthConfig(n_projects=4, files_per_project=2, seed=12), b)
    assert tree_digest(a) != tree_digest(b)


def test_truth_manifest_round_trips(small_corpus):
    out, truth = small_corpus
    assert load_truth(out / "truth.json") == truth


def test_corpus_layout_loads(small_corpus):
    out, truth = small_corpus
    assert list_projects(out) == ["p000", "p001", "p002", "p003"]
    assert load_sca_order(out) == list(truth.scas)
    context = load_corpus_context(out)
    assert context.sca_order == truth.scas
    table = load_features(out / "features.csv")
    assert table.feature_names == feature_names(SMALL)
    assert table.project_ids == ("p000", "p001", "p002", "p003")
    assert table.matrix.shape == (4, len(feature_names(SMALL)))


def test_pipeline_reproduces_site_truth(small_corpus):
    out, truth = small_corpus
    context = load_corpus_context(out)
    all_labels, failures = label_corpus(context)
    assert failures == []
    projects = {project.project_id: project for project in truth.projects}
    for labels in all_labels:
        project = projects[labels.project_id]
        for sca in truth.scas:
            sites = [s for s in project.sites if sca in s.detected_by]
            # reported starts jitter by at most one line below the site start
            lookup = {
                (s.class_old, s.category, s.old_start + jitter): s
                for s in sites
                for jitter in (0, 1)
            }
            warnings = labels.by_sca.get(sca, ())
            audits = labels.audits.get(sca, ())
            assert len(warnings) == len(sites)
            for warning, audit in zip(warnings, audits):
                site = lookup[
                    (warning.class_info, warning.new_type, warning.start_line)
                ]
                assert warning.label.value == site.label
                stage_value = audit.stage.value if audit.stage else None
                assert stage_value == site.expected_stage


def test_pipeline_counts_match_truth_counts(small_corpus):
    out, truth = small_corpus
    evaluations, _ = evaluate_corpus(load_corpus_context(out), beta=1.0)
    by_project = {evaluation.project_id: evaluation for evaluation in evaluations}
    for project in truth.projects:
        evaluation = by_project[project.project_id]
        for score in evaluation.scores:
            counts = score.counts
            assert (counts.tp, counts.fp, counts.union_actionable) == project.counts(
                score.sca
            )


def test_full_detection_full_fix_is_all_actionable(tmp_path):
    config = SynthConfig(
        n_projects=2,
        profiles=(
            AnalyzerProfile("one", detection=1.0, fp_rate=0.0),
            AnalyzerProfile("two", detection=1.0, fp_rate=0.0),
        ),
        method_bands=((3, 4), (5, 6)),
        files_per_project=2,
        edit_intensity=1.0,
        decoy_fraction=0.0,
        mutation_weights=(1.0, 0.0, 0.0, 0.0),
        seed=5,
    )
    out = tmp_path / "corpus"
    generate_corpus(config, out)
    context = load_corpus_context(out)
    all_labels, failures = label_corpus(context)
    assert failures == []
    seen = 0
    for labels in all_labels:
        for warnings in labels.by_sca.values():
            for warning in warnings:
                assert warning.label is WarningLabel.ACTIONABLE
                seen += 1
    assert seen > 0


def test_minimal_corpus(tmp_path):
    truth = generate_corpus(MINIMAL, tmp_path / "one")
    assert [p.project_id for p in truth.projects] == ["p000"]
    assert load_truth(tmp_path / "one" / "truth.json") == truth


def test_refuses_a_directory_holding_anything_else(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    generate_corpus(MINIMAL, empty)
    other = tmp_path / "other"
    other.mkdir()
    (other / "notes.txt").write_text("keep me\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=re.escape(str(other))):
        generate_corpus(MINIMAL, other)
    assert [path.name for path in other.iterdir()] == ["notes.txt"]
