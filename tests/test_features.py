"""Feature file loading and dataset construction."""

from __future__ import annotations

import re

import numpy as np
import pytest

from sca_reco.estimators import StandardScaler
from sca_reco.exceptions import (
    DuplicateProject,
    MismatchError,
    NonNumericCell,
    ParseError,
    SchemaError,
    TooFewSamples,
    UnknownFeature,
)
from sca_reco.features import (
    FeatureVector,
    build_dataset,
    load_features,
)


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
    vectors = load_features(sample_csv(tmp_path))
    assert [v.project_id for v in vectors] == ["proj-a", "proj-b"]
    assert vectors[0].names == NAMES
    assert vectors[0].values == (120.0, 14.5, 7.0)
    assert vectors[1].values == (88.0, 9.25, 3.0)


def test_load_features_duplicate_project(tmp_path):
    path = write_csv(tmp_path, "project,a\np1,1\np1,2\n")
    with pytest.raises(DuplicateProject):
        load_features(path)


def test_load_features_rejects_nan_cell(tmp_path):
    path = write_csv(tmp_path, "project,a\np1,NaN\n")
    with pytest.raises(NonNumericCell):
        load_features(path)


def test_load_features_rejects_text_cell(tmp_path):
    path = write_csv(tmp_path, "project,a\np1,lots\n")
    with pytest.raises(NonNumericCell):
        load_features(path)


def test_load_features_empty_file(tmp_path):
    with pytest.raises(ParseError):
        load_features(write_csv(tmp_path, ""))


def test_load_features_requires_project_column(tmp_path):
    with pytest.raises(ParseError):
        load_features(write_csv(tmp_path, "name,a\np1,1\n"))


def test_load_features_row_width_mismatch(tmp_path):
    path = write_csv(tmp_path, "project,a,b\np1,1\n")
    with pytest.raises(ParseError):
        load_features(path)


def test_load_features_cell_past_the_csv_field_limit(tmp_path):
    path = write_csv(tmp_path, "project,a\np1,1\np2," + "1" * 200_000 + "\n")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:3: "):
        load_features(path)


def test_load_features_duplicate_feature_name(tmp_path):
    with pytest.raises(SchemaError):
        load_features(write_csv(tmp_path, "project,a,a\np1,1,2\n"))


def test_feature_vector_shape_check():
    with pytest.raises(SchemaError):
        FeatureVector("p1", ("a", "b"), (1.0,))


def vectors3():
    return [
        FeatureVector("p1", ("a", "b"), (1.0, 10.0)),
        FeatureVector("p2", ("a", "b"), (2.0, 20.0)),
        FeatureVector("p3", ("a", "b"), (3.0, 30.0)),
    ]


def test_build_dataset_row_order_follows_vectors():
    labels = {"p3": ("beta",), "p1": ("alpha", "beta")}
    dataset = build_dataset(vectors3(), labels, ("alpha", "beta"))
    assert dataset.project_ids == ("p1", "p3")  # p2 has no label and is dropped
    assert dataset.label_sets == (("alpha", "beta"), ("beta",))
    assert dataset.primary_labels() == ("alpha", "beta")
    assert np.array_equal(dataset.matrix, [[1.0, 10.0], [3.0, 30.0]])
    assert dataset.sca_order == ("alpha", "beta")


def test_build_dataset_labeled_project_must_have_features():
    with pytest.raises(MismatchError):
        build_dataset(vectors3(), {"ghost": ("alpha",)}, ("alpha",))


def test_build_dataset_rejects_unknown_analyzer():
    with pytest.raises(SchemaError):
        build_dataset(vectors3(), {"p1": ("gamma",)}, ("alpha", "beta"))


def test_build_dataset_rejects_mixed_headers():
    bad = vectors3() + [FeatureVector("p4", ("a", "c"), (4.0, 40.0))]
    with pytest.raises(SchemaError):
        build_dataset(bad, {"p1": ("alpha",)}, ("alpha",))


def test_build_dataset_needs_rows():
    with pytest.raises(TooFewSamples):
        build_dataset([], {}, ("alpha",))
    with pytest.raises(TooFewSamples):
        build_dataset(vectors3(), {}, ("alpha",))


def dataset2():
    return build_dataset(
        vectors3(), {"p1": ("alpha",), "p2": ("beta",), "p3": ("alpha",)}, ("alpha", "beta")
    )


def test_subset_rows_and_features():
    dataset = dataset2()
    rows = dataset.subset_rows([2, 0])
    assert rows.project_ids == ("p3", "p1")
    assert rows.label_sets == (("alpha",), ("alpha",))
    assert np.array_equal(rows.matrix, [[3.0, 30.0], [1.0, 10.0]])
    cols = dataset.subset_features(["b"])
    assert cols.feature_names == ("b",)
    assert np.array_equal(cols.matrix, [[10.0], [20.0], [30.0]])
    assert cols.project_ids == dataset.project_ids


def test_feature_index_unknown_name():
    with pytest.raises(UnknownFeature):
        dataset2().feature_index("nope")


def test_standardize_oracle():
    scaler = StandardScaler()
    scaled = scaler.fit_transform(dataset2().matrix)
    # column a was 1,2,3: mean 2, population std sqrt(2/3)
    expected = (np.array([1.0, 2.0, 3.0]) - 2.0) / np.sqrt(2.0 / 3.0)
    assert np.allclose(scaled[:, 0], expected, atol=1e-12)
    assert np.allclose(scaled.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(scaler.mean_, [2.0, 20.0], atol=1e-12)
    rescaled = StandardScaler().fit_transform(scaled)
    assert np.allclose(rescaled, scaled, atol=1e-9)
