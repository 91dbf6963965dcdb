"""Corpus orchestration: context loading, fault isolation, stored artifacts."""

from __future__ import annotations

import hashlib
import json
import re
import shutil
from collections import Counter
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import (
    check_label_span,
    faulted,
    labels_to_record,
    mutated_entries,
    optional_field,
    require_field,
)
from sca_reco import cli, core
from sca_reco.core import AlignedWarning, WarningLabel
from sca_reco.effectiveness import ConfusionCounts, ProjectEvaluation, optimal_set, score_sca
from sca_reco.exceptions import DataError, SchemaError
from sca_reco.matching import AuditRecord, MatchStage
from sca_reco.pipeline import (
    _write_jsonl,
    evaluate_corpus,
    ProjectLabels,
    evaluate_label_records,
    label_corpus,
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
    with pytest.raises(DataError, match="^no type mapping: .* not found and none given$"):
        load_corpus_context(tmp_path)
    with pytest.raises(DataError, match=r"^corpus directory .*missing does not exist$"):
        load_corpus_context(tmp_path / "missing")


def test_context_falls_back_to_packaged_taxonomy(corpus, context, tmp_path):
    clone = tmp_path / "clone"
    shutil.copytree(corpus, clone)
    (clone / "taxonomy.tsv").unlink()
    assert load_corpus_context(clone).mapping == context.mapping


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
    context = load_corpus_context(corpus, taxonomy_path=taxonomy, mapping_path=mapping)
    assert dict(context.mapping.entries) == {
        ("hawkeye", "HAWKEYE-null_dereference"): "null_dereference"
    }
    # the corpus's own mapping names categories the tiny taxonomy lacks
    where = re.escape(str(corpus / "gdc_map.tsv"))
    with pytest.raises(DataError, match=rf"^{where}:\d+: unknown category "):
        load_corpus_context(corpus, taxonomy_path=taxonomy)


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


def test_a_label_record_of_no_rows_reads_as_no_warnings():
    record = {"project": "p1", "warnings": []}
    assert record_to_labels(record) == ProjectLabels("p1", {}, {})


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
        assert primary == evaluation.optimal[0]
        assert optimal == ",".join(evaluation.optimal)


# stored records: the one record reader against the per-field rule

VALID_ROW = {
    "sca": "alpha",
    "index": 0,
    "category": "NULL_DEREF",
    "class": "com.example.Foo",
    "start_line": 10,
    "end_line": 12,
    "label": "actionable",
    "stage": "location",
    "matched_line": 11,
    "matched_index": 0,
}
VALID_SCORE = {"sca": "alpha", "tp": 1, "fp": 1, "union_actionable": 3}
# values drawn for some fields: repeated keys, and values of the right type
# that the record's value checks refuse
ROW_CHOICES = {
    "sca": ["alpha", "beta"],
    "index": [0, 1, 2, 3],
    "start_line": [0] + [10] * 8 + [13],
    "label": ["actionable", "unactionable", "unknown"] * 3 + ["x"],
    "stage": ["location", "hash", None, ""] * 2 + ["x"],
}
SCORE_CHOICES = {
    "sca": ["alpha", "beta", "gamma", "delta", "epsilon"],
    "tp": [-1] + [0, 1, 2] * 3 + [4],
    "union_actionable": [3],
}


@st.composite
def mutated_records(draw, valid: dict, choices: dict):
    """One to four copies of ``valid``, each with the value of every key of
    ``choices`` drawn from its list (so some repeat a key or hold a bad
    value), and one in four mutated."""
    entries = []
    for _ in range(draw(st.integers(1, 4))):
        entry = {**valid, **{key: draw(st.sampled_from(values)) for key, values in choices.items()}}
        entries.append(draw(mutated_entries(entry)) if draw(st.integers(0, 3)) == 0 else entry)
    return entries


def checked_labels(rows) -> ProjectLabels:
    """``record_to_labels`` of a record of ``rows``, field by field."""
    by_sca, audits, seen = {}, {}, {}
    for i, row in enumerate(rows):
        at = f"label record: warning {i}"
        sca = require_field(row, "sca", str, at)
        stage = optional_field(row, "stage", str, at)
        label = require_field(row, "label", str, at)
        category = require_field(row, "category", str, at)
        class_info = require_field(row, "class", str, at)
        start = require_field(row, "start_line", int, at)
        end = require_field(row, "end_line", int, at)
        index = require_field(row, "index", int, at)
        line = optional_field(row, "matched_line", int, at)
        origin = optional_field(row, "matched_index", int, at)
        try:
            label = WarningLabel(label)
            stage = MatchStage(stage) if stage else None
        except ValueError as exc:
            raise SchemaError(f"{at}: {exc}") from exc
        check_label_span(at, start, end)
        warning = AlignedWarning(category, class_info, start, end, label, (sca, index))
        if (sca, index) in seen:
            raise SchemaError(f"{at}: analyzer {sca!r} index {index} repeats warning {seen[sca, index]}")
        seen[sca, index] = i
        by_sca.setdefault(sca, []).append(warning)
        audits.setdefault(sca, []).append(AuditRecord(label, stage, line, origin))
    return ProjectLabels(
        "p1",
        {sca: tuple(rows) for sca, rows in by_sca.items()},
        {sca: tuple(rows) for sca, rows in audits.items()},
    )


def checked_scores(entries) -> list:
    """The scores ``ProjectEvaluation.from_record`` computes from
    ``entries`` at beta 1, field by field."""
    scores, first = [], {}
    for i, entry in enumerate(entries):
        at = f"evaluation record: score {i}"
        sca = require_field(entry, "sca", str, at)
        counts = [require_field(entry, key, int, at) for key in ("tp", "fp", "union_actionable")]
        if sca in first:
            raise SchemaError(f"{at}: analyzer {sca!r} repeats score {first[sca]}")
        first[sca] = i
        try:
            scores.append(score_sca(sca, ConfusionCounts(*counts), 1.0))
        except ValueError as exc:
            raise SchemaError(f"evaluation record: {exc}") from exc
    return scores


def stored_outcome(read, path, record, expected):
    """``read(path)`` and ``expected()`` after writing ``record`` as the
    one line of ``path``: the value both give, or both messages."""
    try:
        path.write_text(json.dumps(record, allow_nan=False) + "\n", encoding="utf-8")
    except ValueError:  # NaN or Infinity, which JSON lacks
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"Infinity|NaN") as exc:
            read(path)
        assert type(exc.value) is DataError  # the decoder's, not a SchemaError
        assert str(exc.value).startswith(f"{path}:1: ")
        return None, None
    try:
        want = expected()
    except SchemaError as exc:
        want = f"{path}:1: {exc}"
    try:
        got = read(path)
    except SchemaError as exc:
        got = str(exc)
    return got, want


# values a written row may hold, and values that make one faulty: a bad
# span or text, or an analyzer or index that breaks up or repeats another's
WRITTEN_ROW_CHOICES = {
    "start_line": [10, 12],
    "label": ["actionable", "unactionable", "unknown"],
    "stage": ["location", "snippet", "hash", None, ""],
}
ROW_FAULTS = {
    "start_line": [0, 13],
    "label": ["x"],
    "stage": ["x"],
    "sca": ["alpha", "beta", "gamma"],
    "index": [0, 1, 2, 3],
}


@st.composite
def written_rows(draw):
    """Up to twelve label rows as ``labels_to_record`` writes them, each
    analyzer's rows together and each of its indexes once, or those rows
    with the analyzers interleaved; up to two of them are then faulted."""
    rows = []
    counts = draw(st.lists(st.integers(1, 4), max_size=3))
    for sca, count in zip(("alpha", "beta", "gamma"), counts):
        for index in range(count):
            values = {key: draw(st.sampled_from(c)) for key, c in WRITTEN_ROW_CHOICES.items()}
            rows.append({**VALID_ROW, **values, "sca": sca, "index": index})
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    return draw(faulted(rows, ROW_FAULTS))


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(rows=st.one_of(mutated_records(VALID_ROW, ROW_CHOICES), written_rows()))
# a value fault in row 0 is named before a type fault in row 1
@example(rows=[{**VALID_ROW, "start_line": 13}, {**VALID_ROW, "index": 1, "start_line": "10"}])
@example(rows=[{**VALID_ROW, "label": "x"}, {**VALID_ROW, "index": 1, "label": None}])
# interleaved analyzers, each of its rows in order
@example(rows=[{**VALID_ROW, "sca": sca, "index": i} for i, sca in enumerate("abab")])
def test_label_rows_equal_the_checked_path(tmp_path, rows):
    # every analyzer a row names is listed, so no record is refused for that
    listed = [row["sca"] for row in rows if type(row) is dict and type(row.get("sca")) is str]
    record = {"project": "p1", "warnings": rows}
    with mock.patch.object(core, "read_record", wraps=core.read_record) as one_at_a_time:
        got, want = stored_outcome(
            lambda path: read_labels(path, listed),
            tmp_path / "labels.jsonl",
            record,
            lambda: [checked_labels(rows)],
        )
    assert got == want
    if want is not None:
        # rows that read, each an object with every field, were read a
        # column at a time, however their analyzers interleave
        whole = type(want) is list and all(
            type(row) is dict and set(VALID_ROW) <= row.keys() for row in rows
        )
        assert one_at_a_time.called == (bool(rows) and not whole)


@pytest.mark.parametrize(
    "fault, message",
    [
        ({"start_line": 13}, "warning line span 13..12 is invalid"),
        ({"start_line": 0}, "warning line span 0..12 is invalid"),
        ({"label": "x"}, "'x' is not a valid WarningLabel"),
        ({"stage": "x"}, "'x' is not a valid MatchStage"),
        ({"index": 0}, "analyzer 'alpha' index 0 repeats warning 0"),
    ],
)
def test_label_rows_name_their_first_bad_row(fault, message):
    # row 1 holds a value fault and row 2 a type fault: row 1 is named
    rows = [{**VALID_ROW, "index": i} for i in range(4)]
    rows[1].update(fault)
    rows[2]["start_line"] = "10"
    with pytest.raises(SchemaError) as exc:
        record_to_labels({"project": "p1", "warnings": rows})
    assert str(exc.value) == f"label record: warning 1: {message}"


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(entries=mutated_records(VALID_SCORE, SCORE_CHOICES))
def test_evaluation_scores_equal_the_checked_path(tmp_path, entries):
    try:  # an ``optimal`` the counts give, so only the scores can be refused
        optimal = list(optimal_set(checked_scores(entries)))
    except SchemaError:
        optimal = []

    def expected():
        scores = checked_scores(entries)
        return [ProjectEvaluation("p1", 1.0, tuple(scores), optimal_set(scores))]

    record = {"project": "p1", "beta": "1", "scores": entries, "optimal": optimal}
    got, want = stored_outcome(read_evaluations, tmp_path / "evaluations.jsonl", record, expected)
    assert got == want


# stored lines: the shared encoder against json.dumps

# ids with what JSON must escape or may spell out: quotes, backslashes,
# control characters, lone surrogates, and text beyond ASCII
IDS = st.text(
    st.one_of(
        st.characters(),
        st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "é", "日", "😀"]),
        st.integers(0xD800, 0xDFFF).map(chr),
    ),
    max_size=6,
)
COUNTS = st.integers(0, 10**6)
LABEL_RECORDS = st.fixed_dictionaries(
    {
        "project": IDS,
        "warnings": st.lists(
            st.fixed_dictionaries(
                {
                    "sca": IDS,
                    "index": COUNTS,
                    "category": IDS,
                    "class": IDS,
                    "start_line": COUNTS,
                    "end_line": COUNTS,
                    "label": st.sampled_from([label.value for label in WarningLabel]),
                    "stage": st.sampled_from([None, *(stage.value for stage in MatchStage)]),
                    "matched_line": st.none() | COUNTS,
                    "matched_index": st.none() | COUNTS,
                }
            ),
            max_size=4,
        ),
    }
)
EVALUATION_RECORDS = st.fixed_dictionaries(
    {
        "project": IDS,
        "beta": st.sampled_from(["0", "0.5", "1", "inf"]),
        "scores": st.lists(
            st.fixed_dictionaries(
                {
                    "sca": IDS,
                    "tp": COUNTS,
                    "fp": COUNTS,
                    "union_actionable": COUNTS,
                    "p": st.floats(),
                    "r": st.floats(),
                    "f_beta": st.floats(),
                }
            ),
            max_size=4,
        ),
        "optimal": st.lists(IDS, max_size=3),
    }
)


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(records=st.lists(LABEL_RECORDS | EVALUATION_RECORDS, max_size=4))
def test_jsonl_lines_equal_json_dumps(tmp_path, records):
    path = tmp_path / "records.jsonl"
    _write_jsonl(path, records)
    lines = path.read_bytes().decode("ascii").splitlines(keepends=True)
    assert lines == [json.dumps(record, sort_keys=True) + "\n" for record in records]


@st.composite
def project_labels(draw) -> ProjectLabels:
    """A project's labels with ids, categories and classes from ``IDS``; an
    analyzer may have no rows, or warnings but no audit records."""
    by_sca, audits = {}, {}
    for sca in draw(st.lists(IDS, unique=True, max_size=3)):
        rows = draw(
            st.lists(
                st.tuples(
                    IDS, IDS, COUNTS, COUNTS, st.sampled_from(WarningLabel), COUNTS,
                    st.sampled_from([None, *MatchStage]), st.none() | COUNTS, st.none() | COUNTS,
                ),
                max_size=4,
            )
        )
        by_sca[sca] = tuple(
            AlignedWarning(category, class_info, start, end, label, (sca, index))
            for category, class_info, start, end, label, index, *_ in rows
        )
        if draw(st.integers(0, 4)):
            audits[sca] = tuple(AuditRecord(row[4], *row[6:]) for row in rows)
    return ProjectLabels(draw(IDS), by_sca, audits)


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(all_labels=st.lists(project_labels(), max_size=3))
def test_label_lines_equal_json_dumps(tmp_path, all_labels):
    path = tmp_path / "labels.jsonl"
    write_labels(path, all_labels)
    lines = path.read_bytes().decode("ascii").splitlines(keepends=True)
    assert lines == [json.dumps(labels_to_record(l), sort_keys=True) + "\n" for l in all_labels]


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


# The same for the default mutation mix, where most matches are found by the
# location stage.
DEFAULT_MIX_CONFIG = SynthConfig(n_projects=3, files_per_project=6, seed=17)
DEFAULT_MIX_DIGESTS = {
    "labels.jsonl": "fe106362d8483df9fc1629277da954e7ef17a41549678d2eaffeecc4fcac4c28",
    "evaluations.jsonl": "e3006b800351f83d52cf732db75d692de7b38011d5605bdf9113fc533e2b6cbf",
}


def label_and_evaluate(corpus, out_dir) -> tuple[Counter, dict[str, str]]:
    """Run ``label`` and ``evaluate --labels`` on ``corpus``; return the
    count of each match stage and each label, and the SHA-256 of
    labels.jsonl and evaluations.jsonl."""
    labels = out_dir / "labels.jsonl"
    assert cli.main(["label", "--corpus", str(corpus), "--out", str(labels)]) == 0
    argv = ["evaluate", "--corpus", str(corpus), "--labels", str(labels)]
    assert cli.main(argv + ["--out-dir", str(out_dir)]) == 0
    seen = Counter()
    for line in labels.read_text(encoding="utf-8").splitlines():
        for warning in json.loads(line)["warnings"]:
            seen[warning.get("stage")] += 1
            seen[warning["label"]] += 1
    digests = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in ("labels.jsonl", "evaluations.jsonl")
    }
    return seen, digests


def test_churn_labels_are_pinned(tmp_path):
    corpus = tmp_path / "corpus"
    generate_corpus(CHURN_CONFIG, corpus)
    seen, digests = label_and_evaluate(corpus, tmp_path)
    assert seen["hash"] > 0
    assert digests == CHURN_DIGESTS


def test_default_mix_labels_are_pinned(tmp_path):
    corpus = tmp_path / "corpus"
    generate_corpus(DEFAULT_MIX_CONFIG, corpus)
    seen, digests = label_and_evaluate(corpus, tmp_path)
    assert seen["location"] > seen["snippet"] + seen["hash"] > 0
    assert digests == DEFAULT_MIX_DIGESTS


# The label side's bytes at the benchmark's seed, on two small corpora of
# the default mix and of the churn workload's mix; each reaches every stage.
SEED_9_LABEL_DIGESTS = {
    "default": (
        {},
        "68f740cbe9cb791796626dfd3f685e4317b66be3774cc3a09d60a164a3933568",
        "5fb8c7e10ed3cb80e6ad40b172abf1861654f4645bb638507a9eccc7094312b8",
    ),
    "churn": (
        {"mutation_weights": (0.0, 0.1, 0.45, 0.45)},
        "36978bdb149fa4bae49ec96490e1d607635013d311c5b6498cacd7ba7417b940",
        "9efada02b3750762df27db19ec626c909924914a28d1d1894011c2e549aec4da",
    ),
}


@pytest.mark.parametrize("mix", sorted(SEED_9_LABEL_DIGESTS))
def test_seed_9_labels_are_pinned(tmp_path, mix):
    mix_options, labels_sha, evaluations_sha = SEED_9_LABEL_DIGESTS[mix]
    corpus = tmp_path / "corpus"
    generate_corpus(SynthConfig(n_projects=3, files_per_project=8, seed=9, **mix_options), corpus)
    seen, digests = label_and_evaluate(corpus, tmp_path)
    assert all(seen[stage] > 0 for stage in ("location", "snippet", "hash"))
    assert digests == {"labels.jsonl": labels_sha, "evaluations.jsonl": evaluations_sha}


# A hand-made corpus of line-ending and tokenizer edge cases: CRLF sources,
# a final line ending in a lone \r, a \r inside a line, lines without
# tokens, non-ASCII text, a warning past the end of its file, a class
# renamed with its file, a deleted file and an empty report.
HAND_MADE_DIGESTS = {
    "labels.jsonl": "ee8170ce0b1b4047a09e12ed86e64a174044fc7da0e3a58c57ba45ab1c2e3c5d",
    "evaluations.jsonl": "771bfa4621519f56b227df7c2a4e6eee740d2be0a74b6fd09599012eb497a114",
}


def statement(k: int) -> str:
    if k == 17:
        return '    String s17 = "h\u00e9llo w\u00f6rld \u4e16\u754c";'
    if k == 26:
        return "    int a26 = 1;\rint b26 = 2;"
    if k % 7 == 3:
        return ""
    if k % 11 == 5:
        return "    // ----"
    return f"    int v{k} = compute({k}, v{k - 1});"


def java_source(name: str, body: list[str]) -> list[str]:
    return ["package com.example;", "", f"public class {name} {{", *body, "}"]


def write_report(path, sca, release, warnings):
    keys = ("type", "class", "method", "start_line", "end_line")
    entries = [
        dict(zip(keys, (kind, f"com.example.{cls}", method, start, end)))
        for kind, cls, method, start, end in warnings
    ]
    doc = {"sca": sca, "project": "p1", "release": release, "warnings": entries}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")


def write_hand_made_corpus(root):
    body = [statement(k) for k in range(40)]
    new_body = body[:2] + ["    int moved = 0;", "", body[30]] + body[2:]
    sources = {
        "r1": {
            "Foo.java": "\r\n".join(java_source("Foo", body)) + "\r\n",
            "Bar.java": "\n".join(java_source("Bar", body)) + "\n",
            "Gone.java": "\r\n".join(java_source("Gone", body[:12])),
        },
        "r2": {
            "Foo.java": "\r\n".join(java_source("Foo", new_body)) + "\r",
            "Baz.java": "\r\n".join(java_source("Baz", body)) + "\r\n",
        },
    }
    project = root / "p1"
    for release, files in sources.items():
        for name, text in files.items():
            path = project / release / "src" / "com" / "example" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(text.encode("utf-8"))
    reports = {
        ("alpha", "r1"): [
            ("NULL_DEREF", "Foo", "run", 14, 14),  # location
            ("LEAK", "Foo", "run", 34, 35),  # snippet: the line moved up
            ("NULL_DEREF", "Bar", None, 30, 30),  # hash: the class renamed
            ("NULL_DEREF", "Gone", "run", 10, 10),  # unknown: file deleted
            ("LEAK", "Foo", None, 20, 20),  # actionable
            ("LEAK", "Foo", None, 500, 520),  # past the end of the file
            ("NULL_DEREF", "Foo", None, 7, 7),  # a line without tokens
            ("LEAK", "Bar", None, 35, 35),  # hash, anchored on a blank line
        ],
        ("alpha", "r2"): [
            ("NULL_DEREF", "Foo", "run", 17, 17),
            ("LEAK", "Foo", "walk", 7, 8),
            ("NULL_DEREF", "Baz", None, 30, 30),
            ("LEAK", "Foo", None, 503, 503),
            ("NULL_DEREF", "Foo", None, 10, 10),
            ("LEAK", "Baz", None, 35, 35),
        ],
        ("beta", "r1"): [
            ("NULL_DEREF", "Foo", None, 14, 14),
            ("LEAK", "Foo", None, 20, 21),
        ],
        ("beta", "r2"): [],
    }
    for (sca, release), warnings in reports.items():
        write_report(project / release / "reports" / f"{sca}.json", sca, release, warnings)
    releases = {
        "old": {"id": "r1", "date": "2024-01-01"},
        "new": {"id": "r2", "date": "2024-07-01"},
    }
    (project / "releases.json").write_text(json.dumps(releases), encoding="utf-8")
    (root / "scas.txt").write_text("alpha\nbeta\n", encoding="utf-8")
    categories = (("NULL_DEREF", "null_dereference"), ("LEAK", "resource_leak"))
    rows = ["sca\toriginal_type\tgdc_id"] + [
        f"{sca}\t{kind}\t{gdc_id}" for sca in ("alpha", "beta") for kind, gdc_id in categories
    ]
    (root / "gdc_map.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")


def test_hand_made_corpus_labels_are_pinned(tmp_path):
    corpus = tmp_path / "corpus"
    write_hand_made_corpus(corpus)
    seen, digests = label_and_evaluate(corpus, tmp_path)
    for outcome in ("location", "snippet", "hash", "unknown", "actionable"):
        assert seen[outcome] > 0, outcome
    assert digests == HAND_MADE_DIGESTS
