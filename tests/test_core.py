"""Domain types, the taxonomy loader, and canonical ordering.

The canonical order is checked against ``helpers.canonical_key``, written
from README's words, not taken from the field order it checks."""

from __future__ import annotations

import math
import re
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import A, U, aw, canonical_key, mutated_entries
from sca_reco import core
from sca_reco.alignment import align_project
from sca_reco.core import (
    RecordSpec,
    decode_json,
    format_beta,
    parse_beta,
    read_record,
    read_rows,
    validate_beta,
)
from sca_reco.exceptions import ConfigError, DataError, SchemaError
from sca_reco.ingestion import default_taxonomy_path, load_taxonomy


def test_packaged_taxonomy_shape():
    ids = load_taxonomy(default_taxonomy_path())
    assert len(ids) == 16
    assert "null_dereference" in ids


def test_a_one_category_taxonomy_loads(tmp_path):
    path = tmp_path / "tax.tsv"
    path.write_text("gdc_id\tname\tgroup\na\tA\tg1\n", encoding="utf-8")
    assert load_taxonomy(path) == frozenset({"a"})


@pytest.mark.parametrize("text", ["", "\n\n", "gdc_id\tname\tgroup\n"])
def test_a_taxonomy_of_no_category_is_refused(tmp_path, text):
    path = tmp_path / "tax.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: taxonomy lists no category$"):
        load_taxonomy(path)


def test_taxonomy_bad_header(tmp_path):
    path = tmp_path / "tax.tsv"
    path.write_text("\nid\tname\tgroup\n", encoding="utf-8")
    header = f"^{re.escape(str(path))}:2: bad header line, expected gdc_id<TAB>name<TAB>group$"
    with pytest.raises(DataError, match=header):
        load_taxonomy(path)


def test_taxonomy_duplicate_id_rejected(tmp_path):
    path = tmp_path / "tax.tsv"
    path.write_text("gdc_id\tname\tgroup\ndup\tDup\tg\ndup\tDup\th\n", encoding="utf-8")
    message = f"^{re.escape(str(path))}:3: 'dup' mapped to both 'Dup\\\\tg' and 'Dup\\\\th'$"
    with pytest.raises(DataError, match=message):
        load_taxonomy(path)


def test_taxonomy_crlf_tolerated(tmp_path):
    path = tmp_path / "tax.tsv"
    path.write_text("gdc_id\tname\tgroup\r\na\tA\tg1\r\n", encoding="utf-8")
    assert load_taxonomy(path) == frozenset({"a"})


def test_canonical_order_class_then_lines():
    first = aw(class_info="a.A", start=5, end=5)
    second = aw(class_info="a.A", start=5, end=7)
    third = aw(class_info="a.B", start=1, end=1)
    assert first < second < third
    assert third > first
    assert first == aw(class_info="a.A", start=5, end=5)


def test_sort_warnings_is_total_and_stable():
    warnings = [
        aw(class_info="b.B", start=1, sca="beta", index=1),
        aw(class_info="a.A", start=9, sca="alpha", index=0),
        aw(class_info="a.A", start=9, sca="alpha", index=2),
    ]
    ordered = sorted(warnings)
    assert [w.class_info for w in ordered] == ["a.A", "a.A", "b.B"]
    assert ordered[0].origin[1] < ordered[1].origin[1]


# warnings crowding two classes, two categories and a few lines, so every
# field of the canonical key breaks some tie
_CROWDED = st.builds(
    lambda cls, start, span, kind, sca, index, label: aw(
        new_type=kind, class_info=cls, start=start, end=start + span, label=label,
        sca=sca, index=index,
    ),
    st.sampled_from(("a.B", "a.A")), st.integers(1, 3), st.integers(0, 2),
    st.sampled_from(("resource_leak", "null_dereference")), st.sampled_from(("beta", "alpha")),
    st.integers(0, 3), st.sampled_from((A, U)),
)


@given(st.lists(_CROWDED, unique_by=lambda w: w.origin, max_size=12), st.data())
def test_warnings_of_distinct_origins_sort_as_tuples_in_canonical_order(warnings, data):
    assert sorted(warnings) == sorted(warnings, key=canonical_key)
    if not warnings:
        return
    # a repeated origin would leave a tie to the labels, so alignment refuses it
    twin = data.draw(st.sampled_from(warnings), label="repeated")
    twin = twin._replace(label=U if twin.label is A else A)
    labeled = {
        sca: [w for w in warnings + [twin] if w.origin[0] == sca] for sca in ("alpha", "beta")
    }
    message = rf"^warning origin \('{twin.origin[0]}', {twin.origin[1]}\) filed twice under "
    with pytest.raises(ValueError, match=message):
        align_project(labeled, ("alpha", "beta"))


def test_validate_beta():
    assert validate_beta(0) == 0.0
    assert validate_beta(math.inf) == math.inf
    with pytest.raises(ConfigError, match=r"^beta must be a non-negative real or inf, got -0\.5$"):
        validate_beta(-0.5)
    with pytest.raises(ConfigError, match="^beta must be a non-negative real or inf, got nan$"):
        validate_beta(math.nan)


def test_parse_beta_accepts_decimals_and_inf():
    assert parse_beta("1") == 1.0
    assert parse_beta("0.5") == 0.5
    assert parse_beta("0") == 0.0
    assert parse_beta("inf") == math.inf
    assert parse_beta(" Infinity ") == math.inf
    with pytest.raises(ConfigError, match="^cannot parse beta from 'beta'$"):
        parse_beta("beta")
    with pytest.raises(ConfigError, match=r"^beta must be a non-negative real or inf, got -2\.0$"):
        parse_beta("-2")


def test_format_beta_round_trips():
    for text in ("0", "0.5", "1", "2", "inf"):
        assert format_beta(parse_beta(text)) == text


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_decode_json_rejects_constants_json_lacks(constant):
    with pytest.raises(DataError, match=f"^model.json: {constant} is not a JSON value"):
        decode_json(f'{{"stds": [1.0, {constant}]}}', "model.json")
    assert decode_json('{"stds": [1.0, 1e308]}', "model.json") == {"stds": [1.0, 1e308]}


# the list reader against the one-record reader

SPEC = RecordSpec(("name", str), ("count", int), ("note", (str, None)))
VALID_RECORD = {"name": "a", "count": 1, "note": "b"}


def negative_count(i, values):
    """The per-record value rule of the list reader's tests."""
    return f"count {values[1]} < 0" if values[1] < 0 else None


def no_negative_count(names, counts, notes):
    """``negative_count`` over the columns of a whole list, which is never
    empty."""
    assert len(names) == len(counts) == len(notes) > 0
    return min(counts) >= 0


def read_one_at_a_time(records, ruled):
    """``read_record`` of each record, then the value rule if ``ruled``, or
    the message of the first fault."""
    try:
        rows = []
        for i, record in enumerate(records):
            values = read_record(record, SPEC, "record %d", i)
            message = ruled and negative_count(i, values)
            if message:
                raise SchemaError(f"record {i}: {message}")
            rows.append(values)
        return rows
    except SchemaError as exc:
        return str(exc)


@given(
    records=st.lists(
        st.one_of(
            st.fixed_dictionaries(
                {
                    "name": st.text(max_size=2),
                    "count": st.integers(),
                    "note": st.none() | st.text(max_size=2),
                }
            ),
            mutated_entries(VALID_RECORD),
        ),
        max_size=8,
    ),
    ruled=st.booleans(),
)
@example(records=[], ruled=True)
@example(records=[VALID_RECORD, {"name": "a", "count": 1}], ruled=False)  # an absent optional key
@example(records=[VALID_RECORD, {"name": "a", "count": True, "note": None}], ruled=False)
@example(records=[VALID_RECORD, ["a", 1, "b"]], ruled=False)
@example(records=[VALID_RECORD, None], ruled=False)
# a value fault before a type fault, and a type fault before a value fault
@example(records=[{**VALID_RECORD, "count": -1}, {**VALID_RECORD, "count": "1"}], ruled=True)
@example(records=[{**VALID_RECORD, "count": "1"}, {**VALID_RECORD, "count": -1}], ruled=True)
def test_read_rows_equals_read_record_on_every_record(records, ruled):
    rule = {"valid": no_negative_count, "fault": negative_count} if ruled else {}
    with mock.patch.object(core, "read_record", wraps=core.read_record) as one_at_a_time:
        try:
            got = read_rows(records, SPEC, "record %d", **rule)
        except SchemaError as exc:
            got = str(exc)
    expected = read_one_at_a_time(records, ruled)
    assert got == expected
    # the records are read one at a time exactly when the column checks
    # refuse them: not every record is an object that holds every field
    # with one of its types, or the value rule fails
    whole = type(expected) is list and all(
        type(record) is dict and all(key in record for key, _ in SPEC.fields) for record in records
    )
    assert one_at_a_time.called == (bool(records) and not whole)
