"""Two-dimensional footprint tables."""

from __future__ import annotations

import numpy as np
import pytest

from sca_reco.features import FeatureTable, PreferenceDataset
from sca_reco.footprints import (
    FEATURE_HEADER,
    OPTIMAL_HEADER,
    export_footprints,
    project_footprint,
    render_feature_footprint,
    render_optimal_footprint,
)


def dataset4():
    table = FeatureTable(
        ("loc", "churn", "flat"),
        ("p1", "p2", "p3", "p4"),
        np.array(
            [
                [10.0, 1.0, 7.0],
                [40.0, 3.0, 7.0],
                [20.0, 9.0, 7.0],
                [30.0, 5.0, 7.0],
            ]
        ),
    )
    return PreferenceDataset(
        table, (("alpha",), ("beta",), ("alpha", "beta"), ("beta",)), ("alpha", "beta")
    )


def test_projection_shape_and_determinism():
    table = dataset4().table
    a = project_footprint(table)
    b = project_footprint(table)
    assert a.shape == (4, 2)
    assert np.array_equal(a, b)


def test_tables_list_the_projects_in_table_order():
    dataset = dataset4()
    coordinates = project_footprint(dataset.table)
    for text in (
        render_feature_footprint(coordinates, dataset.table, "churn"),
        render_optimal_footprint(coordinates, dataset, "beta"),
    ):
        rows = [row.split(",") for row in text.splitlines()[1:]]
        assert [row[2] for row in rows] == list(dataset.table.project_ids)
        assert [[float(row[0]), float(row[1])] for row in rows] == coordinates.tolist()


def test_feature_table_minmax_normalization():
    dataset = dataset4()
    text = render_feature_footprint(project_footprint(dataset.table), dataset.table, "loc")
    lines = text.splitlines()
    assert lines[0] == FEATURE_HEADER
    values = {row.split(",")[2]: float(row.split(",")[3]) for row in lines[1:]}
    # loc runs 10..40, so the extremes map to exactly 0 and 1
    assert values["p1"] == 0.0
    assert values["p2"] == 1.0
    assert values["p4"] == pytest.approx(2 / 3, abs=1e-12)


def test_constant_feature_normalizes_to_zero():
    dataset = dataset4()
    text = render_feature_footprint(project_footprint(dataset.table), dataset.table, "flat")
    for row in text.splitlines()[1:]:
        assert row.endswith(",0.0")


def test_optimal_table_flags():
    dataset = dataset4()
    coordinates = project_footprint(dataset.table)
    alpha = render_optimal_footprint(coordinates, dataset, "alpha")
    lines = alpha.splitlines()
    assert lines[0] == OPTIMAL_HEADER
    flags = {row.split(",")[2]: row.split(",")[3] for row in lines[1:]}
    assert flags == {"p1": "1", "p2": "0", "p3": "1", "p4": "0"}
    beta_flags = {
        row.split(",")[2]: row.split(",")[3]
        for row in render_optimal_footprint(coordinates, dataset, "beta").splitlines()[1:]
    }
    assert beta_flags == {"p1": "0", "p2": "1", "p3": "1", "p4": "1"}


def test_export_writes_one_file_per_overlay(tmp_path):
    dataset = dataset4()
    written = export_footprints(dataset, tmp_path / "plots")
    names = sorted(p.name for p in written)
    assert names == [
        "feature_churn.csv",
        "feature_flat.csv",
        "feature_loc.csv",
        "sca_alpha.csv",
        "sca_beta.csv",
    ]
    for path in written:
        header = path.read_text(encoding="utf-8").splitlines()[0]
        expected = FEATURE_HEADER if path.name.startswith("feature_") else OPTIMAL_HEADER
        assert header == expected
        assert len(path.read_text(encoding="utf-8").splitlines()) == 5
