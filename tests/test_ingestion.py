"""Report, mapping, and corpus loading."""

from __future__ import annotations

import datetime as dt
import json
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import (
    check_report_entry,
    faulted,
    label_snapshot,
    mutated_entries,
    optional_field,
    raw,
    require_field,
    snapshot,
)
from sca_reco import core
from sca_reco.core import RawWarning, Release, WarningLabel
from sca_reco.exceptions import DataError, SchemaError, UnmappedType
from sca_reco.ingestion import (
    GDC_MAP_HEADER,
    TAXONOMY_HEADER,
    _split_lines,
    default_taxonomy_path,
    list_projects,
    load_gdc_mapping,
    load_report,
    load_sca_order,
    load_snapshot,
    load_source_tree,
    load_taxonomy,
)


def write_report(path, warnings, sca="spotbugs", project="p1", release="r1"):
    document = {"sca": sca, "project": project, "release": release, "warnings": warnings}
    path.write_text(json.dumps(document), encoding="utf-8")


def test_load_report_preserves_fields(tmp_path):
    path = tmp_path / "spotbugs.json"
    write_report(
        path,
        [
            {
                "type": "DM_BOXED_PRIMITIVE_FOR_PARSING",
                "class": "com.opengamma.strata.basics.date.BusinessdayCalendar",
                "method": "of",
                "start_line": 139,
                "end_line": 139,
                "message": "Boxing/unboxing to parse a primitive",
                "severity": "MAJOR",
            }
        ],
    )
    sca, warnings = load_report(path, "p1", "r1")
    assert sca == "spotbugs"
    only = warnings[0]
    assert only.original_type == "DM_BOXED_PRIMITIVE_FOR_PARSING"
    assert only.class_path.endswith("BusinessdayCalendar")
    assert only.start_line == only.end_line == 139
    assert only.method_path == "of"
    assert only.severity == "MAJOR"


def test_load_report_empty_list(tmp_path):
    path = tmp_path / "spotbugs.json"
    write_report(path, [])
    assert load_report(path, "p1", "r1") == ("spotbugs", [])


def test_load_report_inverted_span(tmp_path):
    path = tmp_path / "spotbugs.json"
    write_report(
        path,
        [
            {"type": "T", "class": "C", "method": None, "start_line": 1, "end_line": 1},
            {"type": "T", "class": "C", "method": None, "start_line": 10, "end_line": 9},
        ],
    )
    with pytest.raises(SchemaError):
        load_report(path, "p1", "r1")


def test_load_report_header_mismatch(tmp_path):
    path = tmp_path / "spotbugs.json"
    write_report(path, [], project="other")
    with pytest.raises(DataError, match=r"spotbugs\.json: report is for other/r1, expected p1/r1$"):
        load_report(path, "p1", "r1")


def test_load_report_malformed_json(tmp_path):
    path = tmp_path / "spotbugs.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(DataError, match=r"spotbugs\.json: Expecting property name") as exc:
        load_report(path, "p1", "r1")
    assert type(exc.value) is DataError


def test_load_report_missing_field(tmp_path):
    path = tmp_path / "spotbugs.json"
    write_report(path, [{"type": "T", "class": "C", "start_line": 1}])
    with pytest.raises(SchemaError):
        load_report(path, "p1", "r1")


@pytest.fixture()
def taxonomy():
    return load_taxonomy(default_taxonomy_path())


def test_mapping_shared_category(tmp_path, taxonomy):
    path = tmp_path / "map.tsv"
    path.write_text(
        "sca\toriginal_type\tgdc_id\n"
        "spotbugs\tDM_BOXED_PRIMITIVE_FOR_PARSING\tperformance_smell\n"
        "sonarqube\tCODE_SMELL\tperformance_smell\n",
        encoding="utf-8",
    )
    assert load_gdc_mapping(path, taxonomy) == {
        ("spotbugs", "DM_BOXED_PRIMITIVE_FOR_PARSING"): "performance_smell",
        ("sonarqube", "CODE_SMELL"): "performance_smell",
    }


def test_mapping_empty_file(tmp_path, taxonomy):
    path = tmp_path / "map.tsv"
    path.write_text("", encoding="utf-8")
    assert load_gdc_mapping(path, taxonomy) == {}


def test_mapping_conflicting_rows(tmp_path, taxonomy):
    path = tmp_path / "map.tsv"
    path.write_text(
        "sca\toriginal_type\tgdc_id\n"
        "spotbugs\tX\tdead_code\n"
        "spotbugs\tX\tduplication\n",
        encoding="utf-8",
    )
    with pytest.raises(DataError, match="mapped to both 'dead_code' and 'duplication'$"):
        load_gdc_mapping(path, taxonomy)


def test_mapping_repeated_identical_rows_ok(tmp_path, taxonomy):
    path = tmp_path / "map.tsv"
    path.write_text(
        "sca\toriginal_type\tgdc_id\nspotbugs\tX\tdead_code\nspotbugs\tX\tdead_code\n",
        encoding="utf-8",
    )
    assert load_gdc_mapping(path, taxonomy) == {("spotbugs", "X"): "dead_code"}


def test_mapping_unknown_category(tmp_path, taxonomy):
    path = tmp_path / "map.tsv"
    path.write_text("sca\toriginal_type\tgdc_id\nspotbugs\tX\tnot_a_category\n", encoding="utf-8")
    message = f"^{re.escape(str(path))}:2: unknown category 'not_a_category'$"
    with pytest.raises(DataError, match=message):
        load_gdc_mapping(path, taxonomy)


TSV_LOADERS = {
    "taxonomy": (TAXONOMY_HEADER, lambda path: load_taxonomy(path)),
    "mapping": (GDC_MAP_HEADER, lambda path: load_gdc_mapping(path, frozenset({"c", "d"}))),
}
# each faulty row after the good one on line 2 (a blank line 3 is skipped),
# and the end of the message that names its line 4
TSV_FAULTS = {
    "two-cells": ("a\tc", "row 'a\\tc' does not have 3 cells"),
    "four-cells": ("a\tb\tc\td", "row 'a\\tb\\tc\\td' does not have 3 cells"),
    "empty-cell": ("x\t \tc", "row 'x\\t \\tc' has an empty cell"),
}


@pytest.mark.parametrize("fault", sorted(TSV_FAULTS))
@pytest.mark.parametrize("kind", sorted(TSV_LOADERS))
def test_a_tsv_row_fault_names_the_file_and_line(tmp_path, kind, fault):
    header, load = TSV_LOADERS[kind]
    row, message = TSV_FAULTS[fault]
    path = tmp_path / f"{kind}.tsv"
    path.write_text("\t".join(header) + "\na\tb\tc\n\n" + row + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:4: {re.escape(message)}$"):
        load(path)


@pytest.mark.parametrize(
    ("kind", "rows", "message"),
    [
        ("taxonomy", "c\tC\tg\nc\tC\th", "'c' mapped to both 'C\\tg' and 'C\\th'"),
        ("mapping", "a\tb\tc\na\tb\td", "'a', 'b' mapped to both 'c' and 'd'"),
        ("mapping", "a\tb\tc\na\tz\te", "unknown category 'e'"),
    ],
)
def test_a_repeated_id_or_unknown_category_names_the_file_and_line(tmp_path, kind, rows, message):
    header, load = TSV_LOADERS[kind]
    path = tmp_path / f"{kind}.tsv"
    path.write_text("\t".join(header) + "\n" + rows + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:3: {re.escape(message)}$"):
        load(path)


def test_a_whole_row_repeated_is_read_once(tmp_path):
    path = tmp_path / "tax.tsv"
    path.write_text("gdc_id\tname\tgroup\nc\tC\tg\nc\tC\tg\n", encoding="utf-8")
    assert load_taxonomy(path) == frozenset({"c"})


def test_canonicalize_drops_method_and_severity():
    # the label pass gives each report entry its canonical form: mapped
    # category, class, lines and origin, and no method or severity
    mapping = {("alpha", "NULL_DEREF"): "null_dereference"}
    entries = [raw(start=200 + k) for k in range(4)] + [raw(method="of", start=139, end=139)]
    snap = snapshot({}, {}, {"alpha": entries}, {"alpha": []})
    warning = label_snapshot(snap, "alpha", mapping)[0][0]
    assert warning.new_type == "null_dereference"
    assert warning.class_info == "com.example.Foo"
    assert (warning.start_line, warning.end_line) == (139, 139)
    assert warning.label is WarningLabel.UNKNOWN  # the class resolves in neither release
    assert warning.origin == ("alpha", 4)
    assert not hasattr(warning, "method_path")
    assert not hasattr(warning, "severity")


def test_canonicalize_unmapped_type():
    snap = snapshot({}, {}, {"alpha": [raw()]}, {"alpha": []})
    with pytest.raises(UnmappedType) as exc:
        label_snapshot(snap, "alpha", {})
    assert str(exc.value) == "no category mapping for ('alpha', 'NULL_DEREF')"


def test_source_tree_crlf_equivalence(tmp_path):
    lf_dir = tmp_path / "lf" / "src"
    crlf_dir = tmp_path / "crlf" / "src"
    lf_dir.mkdir(parents=True)
    crlf_dir.mkdir(parents=True)
    (lf_dir / "A.java").write_bytes(b"package a;\nclass A {\n}\n")
    (crlf_dir / "A.java").write_bytes(b"package a;\r\nclass A {\r\n}\r\n")
    lf = load_source_tree(lf_dir, "r")
    crlf = load_source_tree(crlf_dir, "r")
    assert lf.files == crlf.files
    assert lf.files["A.java"] == ("package a;", "class A {", "}")


def test_source_tree_skips_binary(tmp_path):
    src = tmp_path / "src"
    (src / "sub").mkdir(parents=True)
    (src / "sub" / "B.java").write_text("class B {}\n", encoding="utf-8")
    (src / "blob.bin").write_bytes(b"\x00\x01\x02")
    tree = load_source_tree(src, "r")
    assert set(tree.files) == {"sub/B.java"}


def reference_source_tree(directory, release_id):
    """``load_source_tree`` as it first was: a sorted ``rglob`` of Paths."""
    files = {}
    for path in sorted(Path(directory).rglob("*")):
        if not path.is_file():
            continue
        blob = path.read_bytes()
        if b"\x00" in blob:
            continue
        try:
            text = blob.decode("utf-8")
        except UnicodeDecodeError:
            continue
        files[path.relative_to(directory).as_posix()] = _split_lines(text)
    return Release(release_id, dt.date(1970, 1, 1), files)


def test_source_tree_lists_as_the_rglob_reference(tmp_path):
    src = tmp_path / "src"
    (src / "a" / "c").mkdir(parents=True)
    (src / "links").mkdir()
    (src / "a" / "b.java").write_text("class B {}\n", encoding="utf-8")
    (src / "a-b.java").write_text("class AB {}\n", encoding="utf-8")
    (src / "a" / "c" / "D.java").write_text("class D {\r\n}\r\n", encoding="utf-8")
    (src / ".hidden").write_text("h\n", encoding="utf-8")
    (src / "blob.bin").write_bytes(b"\x00\x01\x02")
    (src / "latin1.java").write_bytes(b"caf\xe9\n")
    (src / "links" / "dir").symlink_to(src / "a", target_is_directory=True)
    (src / "links" / "file.java").symlink_to(src / "a-b.java")
    (src / "links" / "broken").symlink_to(src / "nowhere")
    (src / "links" / "loop").symlink_to(src / "links" / "loop")
    tree = load_source_tree(src, "r")
    assert list(tree.files.items()) == list(reference_source_tree(src, "r").files.items())
    assert list(tree.files) == [".hidden", "a/b.java", "a/c/D.java", "a-b.java", "links/file.java"]
    assert tree.files["links/file.java"] == ("class AB {}",)


# names whose string order differs from their path-part order ("-" and "."
# sort before "/")
name_st = st.sampled_from(["a", "a-b", "a.b", "A", "b", "_", "a0"])


@settings(max_examples=60, deadline=None)
@given(paths=st.lists(st.lists(name_st, min_size=1, max_size=3), max_size=12))
def test_source_tree_order_equals_the_rglob_reference(paths):
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp)
        for parts in paths:
            path = src.joinpath(*parts)
            if any(parent.is_file() for parent in path.parents) or path.is_dir():
                continue  # a file already holds this directory's name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("/".join(parts) + "\n", encoding="utf-8")
        tree = load_source_tree(src, "r")
        assert list(tree.files.items()) == list(reference_source_tree(src, "r").files.items())


def test_source_tree_missing_dir(tmp_path):
    with pytest.raises(DataError, match="^source directory .*nope does not exist$"):
        load_source_tree(tmp_path / "nope", "r")


def test_corpus_roundtrip(tmp_path):
    corpus = tmp_path / "corpus"
    project = corpus / "p1"
    for rel in ("r1", "r2"):
        (project / rel / "src").mkdir(parents=True)
        (project / rel / "src" / "Foo.java").write_text(
            "package com.example;\nclass Foo {}\n", encoding="utf-8"
        )
        (project / rel / "reports").mkdir()
        write_report(project / rel / "reports" / "alpha.json", [], sca="alpha", release=rel)
    (project / "releases.json").write_text(
        json.dumps({"old": {"id": "r1", "date": "2024-01-01"}, "new": {"id": "r2", "date": "2024-06-01"}}),
        encoding="utf-8",
    )
    (corpus / "scas.txt").write_text("alpha\n", encoding="utf-8")

    assert list_projects(corpus) == ["p1"]
    assert load_sca_order(corpus) == ["alpha"]
    snap = load_snapshot(corpus, "p1")
    assert snap.release_old.release_id == "r1"
    assert snap.release_new.files["Foo.java"][0] == "package com.example;"
    assert snap.reports_old == {"alpha": ()}


def test_sca_order_falls_back_to_report_names(tmp_path):
    corpus = tmp_path / "corpus"
    project = corpus / "p1"
    (project / "r1" / "reports").mkdir(parents=True)
    (project / "releases.json").write_text("{}", encoding="utf-8")
    write_report(project / "r1" / "reports" / "beta.json", [], sca="beta")
    write_report(project / "r1" / "reports" / "alpha.json", [], sca="alpha")
    assert load_sca_order(corpus) == ["alpha", "beta"]
    # a directory without a releases.json is not a project, so its reports
    # name no analyzer
    (corpus / "notes" / "old" / "reports").mkdir(parents=True)
    write_report(corpus / "notes" / "old" / "reports" / "zzz.json", [], sca="zzz")
    assert load_sca_order(corpus) == ["alpha", "beta"]


def test_report_name_must_match_declared_sca(tmp_path):
    corpus = tmp_path / "corpus"
    project = corpus / "p1"
    for rel in ("r1", "r2"):
        (project / rel / "src").mkdir(parents=True)
        (project / rel / "reports").mkdir()
        write_report(project / rel / "reports" / "alpha.json", [], sca="beta", release=rel)
    (project / "releases.json").write_text(
        json.dumps({"old": {"id": "r1", "date": "2024-01-01"}, "new": {"id": "r2", "date": "2024-06-01"}}),
        encoding="utf-8",
    )
    with pytest.raises(DataError, match="file is named 'alpha' but declares analyzer 'beta'$"):
        load_snapshot(corpus, "p1")


# report entries: the exact-type fast path against the per-field checks

VALID_ENTRY = {
    "type": "NULL_DEREF",
    "class": "com.example.Foo",
    "method": "run",
    "start_line": 10,
    "end_line": 12,
    "message": "may be null",
    "severity": "high",
}


def checked_report(path, sca, entries):
    """Every entry through the per-field rule of ``require_field`` and
    ``optional_field``, then the value rule of ``check_report_entry``."""
    warnings = []
    for i, entry in enumerate(entries):
        where = f"{path}: warning {i}"
        fields = (
            require_field(entry, "type", str, where),
            require_field(entry, "class", str, where),
            optional_field(entry, "method", str, where),
            require_field(entry, "start_line", int, where),
            require_field(entry, "end_line", int, where),
            optional_field(entry, "message", str, where),
            optional_field(entry, "severity", str, where),
        )
        original_type, class_path, _, start, end, _, _ = fields
        check_report_entry(where, sca, original_type, class_path, start, end)
        warnings.append(RawWarning(sca, *fields))
    return sca, warnings


def outcome(load, *args):
    try:
        return load(*args)
    except SchemaError as exc:
        return str(exc)


# values an entry may hold, and values of the right type that its checks
# refuse: an empty text, or a start line of 0 or past the end line
ENTRY_CHOICES = {
    "method": ["run", None],
    "start_line": [10, 12],
    "severity": ["high", None],
}
ENTRY_FAULTS = {"type": [""], "class": [""], "start_line": [0, 13]}


@st.composite
def report_entries(draw):
    """Up to twelve valid report entries, up to two of them then faulted."""
    entries = []
    for _ in range(draw(st.integers(0, 12))):
        values = {key: draw(st.sampled_from(choices)) for key, choices in ENTRY_CHOICES.items()}
        entries.append({**VALID_ENTRY, **values})
    return draw(faulted(entries, ENTRY_FAULTS))


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    entries=st.one_of(
        st.lists(mutated_entries(VALID_ENTRY), min_size=1, max_size=4), report_entries()
    ),
    sca=st.sampled_from(["spotbugs"] * 9 + [""]),
)
# a value fault in entry 0 is named before a type fault in entry 1
@example(entries=[{**VALID_ENTRY, "start_line": 0}, {**VALID_ENTRY, "end_line": "12"}], sca="spotbugs")
@example(entries=[{**VALID_ENTRY, "type": ""}, {**VALID_ENTRY, "class": None}], sca="spotbugs")
@example(entries=[], sca="")
def test_report_fast_path_equals_checked_path(tmp_path, entries, sca):
    path = tmp_path / "spotbugs.json"
    write_report(path, entries, sca=sca)
    try:
        json.dumps(entries, allow_nan=False)
    except ValueError:  # json.dumps wrote NaN or Infinity, which JSON lacks
        with pytest.raises(DataError, match=r"Infinity|NaN") as exc:
            load_report(path, "p1", "r1")
        assert type(exc.value) is DataError  # the decoder's, not a SchemaError
        assert str(exc.value).startswith(f"{path}: ")
        return
    expected = outcome(checked_report, path, sca, entries)
    with mock.patch.object(core, "read_record", wraps=core.read_record) as one_at_a_time:
        assert outcome(load_report, path, "p1", "r1") == expected
    if isinstance(expected, str):
        assert expected.startswith(f"{path}: warning ")
    # entries that load, each an object with every field, are read a column
    # at a time
    whole = not isinstance(expected, str) and all(
        type(entry) is dict and set(VALID_ENTRY) <= entry.keys() for entry in entries
    )
    assert one_at_a_time.called == (bool(entries) and not whole)


@pytest.mark.parametrize(
    "fault, message",
    [
        ({"start_line": 12, "end_line": 10}, "warning line span 12..10 is inverted"),
        ({"start_line": 0}, "warning start line 0 < 1"),
        ({"type": ""}, "warning has an empty type"),
        ({"class": ""}, "warning has an empty class path"),
    ],
)
@pytest.mark.parametrize("later", [{}, {"start_line": "10"}])
def test_report_names_its_first_bad_entry(tmp_path, fault, message, later):
    path = tmp_path / "spotbugs.json"
    entries = [dict(VALID_ENTRY) for _ in range(5)]
    entries[1].update(fault)
    entries[3].update(later)
    write_report(path, entries)
    with pytest.raises(SchemaError) as exc:
        load_report(path, "p1", "r1")
    assert str(exc.value) == f"{path}: warning 1: {message}"


@settings(max_examples=50, deadline=None)
@given(lines=st.lists(st.text(alphabet="ab \r\té", max_size=5), max_size=6), end=st.booleans())
def test_split_lines_strips_one_carriage_return_per_line(lines, end):
    text = "\n".join(lines) + ("\n" if end else "")
    expected = text.split("\n")
    if expected[-1] == "":
        expected.pop()
    assert _split_lines(text) == tuple(line.removesuffix("\r") for line in expected)
