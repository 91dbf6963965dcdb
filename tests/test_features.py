"""Feature file loading and dataset construction."""

from __future__ import annotations

import re

import numpy as np
import pytest

from sca_reco.estimators import StandardScaler
from sca_reco.exceptions import DataError, SchemaError
from sca_reco.features import FeatureTable, build_dataset, load_features


NAMES = ("CountLineCode_total", "Class_CountLineCodeDecl_average", "Cyclomatic_max")


def write_csv(tmp_path, text, name="features.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def sample_csv(tmp_path):
    return write_csv(
        tmp_path,
        "project," + ",".join(NAMES) + "\n"
        "proj-a,120,14.5,7\n"
        "proj-b,88,9.25,3\n",
    )


def test_load_features_reads_names_verbatim(tmp_path):
    table = load_features(sample_csv(tmp_path))
    assert table.feature_names == NAMES
    assert table.project_ids == ("proj-a", "proj-b")
    assert table.matrix.tolist() == [[120.0, 14.5, 7.0], [88.0, 9.25, 3.0]]


@pytest.mark.parametrize(
    "rows", [[], [("z9", 1.5, -2.0)], [("p2", 0.0, 1e300), ("p10", 3.0, 4.0), ("a", 5.0, 6.0)]]
)
def test_load_features_sorts_rows_by_project_in_a_float64_matrix(tmp_path, rows):
    text = "project,b,a\n" + "".join(f"{p},{x!r},{y!r}\n" for p, x, y in rows)
    table = load_features(write_csv(tmp_path, text))
    assert table.feature_names == ("b", "a")  # columns keep file order
    rows = sorted(rows)  # by project id: "a", "p10", "p2"
    assert table.project_ids == tuple(p for p, _, _ in rows)
    assert table.matrix.dtype == np.float64
    assert table.matrix.shape == (len(rows), 2)
    assert table.matrix.tolist() == [[x, y] for _, x, y in rows]


@pytest.mark.parametrize(
    "header, column", [("project,,n_files", 2), ("project,n_files,", 3), ("project,a,b,,c", 4)]
)
def test_load_features_rejects_an_empty_feature_name(tmp_path, header, column):
    width = header.count(",")
    path = write_csv(tmp_path, header + "\np1" + ",1" * width + "\n")
    with pytest.raises(SchemaError, match=f"^feature file {re.escape(str(path))}: column {column} "):
        load_features(path)


def test_load_features_duplicate_project(tmp_path):
    path = write_csv(tmp_path, "project,a\np1,1\np1,2\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: project 'p1' occurs twice$"):
        load_features(path)


def test_load_features_rejects_nan_cell(tmp_path):
    path = write_csv(tmp_path, "project,a\np1,NaN\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:2: a='NaN' is not finite$"):
        load_features(path)


def test_load_features_rejects_text_cell(tmp_path):
    path = write_csv(tmp_path, "project,a\np1,lots\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:2: a='lots' is not a number$"):
        load_features(path)


def test_load_features_missing_file(tmp_path):
    with pytest.raises(DataError, match="No such file or directory: .*features.csv'$"):
        load_features(tmp_path / "features.csv")


def test_load_features_empty_file(tmp_path):
    with pytest.raises(DataError, match="^feature file .*features.csv is empty$"):
        load_features(write_csv(tmp_path, ""))


def test_load_features_requires_project_column(tmp_path):
    with pytest.raises(DataError, match="features.csv must start with a 'project' column$"):
        load_features(write_csv(tmp_path, "name,a\np1,1\n"))


def test_load_features_row_width_mismatch(tmp_path):
    path = write_csv(tmp_path, "project,a,b\np1,1\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:2: expected 3 cells, got 2$"):
        load_features(path)


def test_load_features_cell_past_the_csv_field_limit(tmp_path):
    path = write_csv(tmp_path, "project,a\np1,1\np2," + "1" * 200_000 + "\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:3: field larger than"):
        load_features(path)


def test_load_features_duplicate_feature_name(tmp_path):
    with pytest.raises(SchemaError):
        load_features(write_csv(tmp_path, "project,a,a\np1,1,2\n"))


def table3():
    return FeatureTable(
        ("a", "b"), ("p1", "p2", "p3"), np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
    )


def test_build_dataset_row_order_follows_vectors():
    labels = {"p3": ("beta",), "p1": ("alpha", "beta")}
    dataset = build_dataset(table3(), labels, ("alpha", "beta"))
    assert dataset.table.project_ids == ("p1", "p3")  # p2 has no label and is dropped
    assert dataset.label_sets == (("alpha", "beta"), ("beta",))
    assert dataset.primary_labels() == ("alpha", "beta")
    assert dataset.table.feature_names == ("a", "b")
    assert np.array_equal(dataset.table.matrix, [[1.0, 10.0], [3.0, 30.0]])
    assert dataset.sca_order == ("alpha", "beta")


def test_build_dataset_labeled_project_must_have_features():
    with pytest.raises(DataError, match=r"^labeled projects without features: \['ghost'\]$"):
        build_dataset(table3(), {"ghost": ("alpha",)}, ("alpha",))


def test_build_dataset_rejects_unknown_analyzer():
    with pytest.raises(SchemaError):
        build_dataset(table3(), {"p1": ("gamma",)}, ("alpha", "beta"))


def test_build_dataset_needs_rows():
    with pytest.raises(DataError, match="^the feature table has no rows$"):
        build_dataset(FeatureTable(("a",), (), np.empty((0, 1))), {}, ("alpha",))
    with pytest.raises(DataError, match="^no feature row carries a label$"):
        build_dataset(table3(), {}, ("alpha",))


def dataset2():
    return build_dataset(
        table3(), {"p1": ("alpha",), "p2": ("beta",), "p3": ("alpha",)}, ("alpha", "beta")
    )


def test_subset_rows_and_features():
    dataset = dataset2()
    rows = dataset.subset_rows([2, 0])
    assert rows.table.project_ids == ("p3", "p1")
    assert rows.label_sets == (("alpha",), ("alpha",))
    assert np.array_equal(rows.table.matrix, [[3.0, 30.0], [1.0, 10.0]])
    cols = dataset.subset_features(["b", "a"])
    assert cols.table.feature_names == ("b", "a")
    assert np.array_equal(cols.table.matrix, [[10.0, 1.0], [20.0, 2.0], [30.0, 3.0]])
    assert cols.table.project_ids == dataset.table.project_ids
    assert cols.label_sets == dataset.label_sets


@pytest.mark.parametrize(
    "names, error, message",
    [
        ([], SchemaError, "the feature list names no feature"),
        (["b", "a", "b"], SchemaError, r"the feature list repeats \['b'\]"),
        (["a", "nope"], DataError, "^feature 'nope' is not in the feature table$"),
    ],
    ids=["empty", "repeated", "unknown"],
)
def test_subset_features_rejects_an_unusable_name_list(names, error, message):
    with pytest.raises(error, match=message):
        table3().subset_features(names)


def test_standardize_oracle():
    scaler = StandardScaler()
    scaled = scaler.fit_transform(dataset2().table.matrix)
    # column a was 1,2,3: mean 2, population std sqrt(2/3)
    expected = (np.array([1.0, 2.0, 3.0]) - 2.0) / np.sqrt(2.0 / 3.0)
    assert np.allclose(scaled[:, 0], expected, atol=1e-12)
    assert np.allclose(scaled.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(scaler.mean_, [2.0, 20.0], atol=1e-12)
    rescaled = StandardScaler().fit_transform(scaled)
    assert np.allclose(rescaled, scaled, atol=1e-9)
