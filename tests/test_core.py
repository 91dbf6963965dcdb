"""Domain types, the taxonomy loader, and canonical ordering."""

from __future__ import annotations

import math

import pytest

from helpers import aw
from sca_reco.core import (
    GdcCategory,
    GdcTaxonomy,
    decode_json,
    default_taxonomy_path,
    format_beta,
    load_taxonomy,
    parse_beta,
    sort_warnings,
    validate_beta,
    warning_sort_key,
)
from sca_reco.exceptions import InvalidBeta, ParseError, SchemaError


def test_packaged_taxonomy_shape():
    taxonomy = load_taxonomy(default_taxonomy_path())
    assert len(taxonomy.categories) == 16
    assert len(taxonomy.groups) == 2
    assert "null_dereference" in taxonomy.category_ids


def test_taxonomy_strict_shape_rejects_other_sizes(tmp_path):
    path = tmp_path / "tax.tsv"
    path.write_text("gdc_id\tname\tgroup\na\tA\tg1\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_taxonomy(path)
    small = load_taxonomy(path, strict_shape=False)
    assert small.category_ids == frozenset({"a"})


def test_taxonomy_bad_header(tmp_path):
    path = tmp_path / "tax.tsv"
    path.write_text("id\tname\tgroup\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_taxonomy(path)


def test_taxonomy_duplicate_id_rejected():
    cat = GdcCategory("dup", "Dup", "g")
    with pytest.raises(SchemaError):
        GdcTaxonomy((cat, cat), ("g",))


def test_taxonomy_crlf_tolerated(tmp_path):
    path = tmp_path / "tax.tsv"
    path.write_text("gdc_id\tname\tgroup\r\na\tA\tg1\r\n", encoding="utf-8")
    taxonomy = load_taxonomy(path, strict_shape=False)
    assert taxonomy.categories[0].group == "g1"


def test_canonical_order_class_then_lines():
    first = aw(class_info="a.A", start=5, end=5)
    second = aw(class_info="a.A", start=5, end=7)
    third = aw(class_info="a.B", start=1, end=1)
    assert warning_sort_key(first) < warning_sort_key(second) < warning_sort_key(third)
    assert warning_sort_key(third) > warning_sort_key(first)
    assert warning_sort_key(first) == warning_sort_key(aw(class_info="a.A", start=5, end=5))


def test_sort_warnings_is_total_and_stable():
    warnings = [
        aw(class_info="b.B", start=1, sca="beta", index=1),
        aw(class_info="a.A", start=9, sca="alpha", index=0),
        aw(class_info="a.A", start=9, sca="alpha", index=2),
    ]
    ordered = sort_warnings(warnings)
    assert [w.class_info for w in ordered] == ["a.A", "a.A", "b.B"]
    assert ordered[0].origin[1] < ordered[1].origin[1]


def test_validate_beta():
    assert validate_beta(0) == 0.0
    assert validate_beta(math.inf) == math.inf
    with pytest.raises(InvalidBeta):
        validate_beta(-0.5)
    with pytest.raises(InvalidBeta):
        validate_beta(math.nan)


def test_parse_beta_accepts_decimals_and_inf():
    assert parse_beta("1") == 1.0
    assert parse_beta("0.5") == 0.5
    assert parse_beta("0") == 0.0
    assert parse_beta("inf") == math.inf
    assert parse_beta(" Infinity ") == math.inf
    with pytest.raises(InvalidBeta):
        parse_beta("beta")
    with pytest.raises(InvalidBeta):
        parse_beta("-2")


def test_format_beta_round_trips():
    for text in ("0", "0.5", "1", "2", "inf"):
        assert format_beta(parse_beta(text)) == text


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_decode_json_rejects_constants_json_lacks(constant):
    with pytest.raises(ParseError, match=f"^model.json: {constant} is not a JSON value"):
        decode_json(f'{{"stds": [1.0, {constant}]}}', "model.json")
    assert decode_json('{"stds": [1.0, 1e308]}', "model.json") == {"stds": [1.0, 1e308]}
