"""The bytes of the tree and logistic-regression models' outputs, pinned.

A small synthetic corpus goes through ``train``, ``recommend``, ``mine``
and ``sweep`` with the kinds rf, dt and lr.  The SHA-256 of each model file
and of its recommendations, the CV line that ``train --cv-folds`` prints,
``mine``'s output and ``sweep.tsv`` are fixed below, so a change to how
trees are grown or weights descended, stored or applied must leave every
one of them as it is.

``mine --footprints``'s tables are pinned by one SHA-256 over each table's
name and bytes.  Like the lr model file, they rest on the BLAS/LAPACK kernel
numpy picks for this CPU: the footprint PCA is an SVD through LAPACK, and
another kernel changes the last digits of every table (ROADMAP item 3).

Those fits have about 14 rows.  A 100-tree forest and a single tree fitted
directly on 190 rows x 8 features x 3 classes, the size of a fit at the
paper's 213 projects, are pinned too: the SHA-256 of their node arrays and
importances.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from sca_reco import cli
from sca_reco.estimators import DecisionTreeClassifier, RandomForestClassifier
from sca_reco.rng import derive_seed

PINNED_MODEL_SHA256 = {
    "rf": "32616e1194b43e693ba347259fb530a35b6bc5361cb36f3c59ed05350502b1b7",
    "dt": "377bc1b06e72f06e76d8311cae7a51c581f1477cacdb8fc9899fef8d58b37266",
    "lr": "5d371da362462ca1532df6a8d3c23c1fb5b351446db9d60ea2a97ec434bbc6fc",
}
PINNED_CV_LINES = {
    "rf": "cv\t0.6916666666666667\t0.6416666666666666\t0.6638888888888889\n",
    "dt": "cv\t0.4958333333333333\t0.44583333333333336\t0.4680555555555555\n",
    "lr": "cv\t0.6416666666666666\t0.5916666666666667\t0.6138888888888888\n",
}
# recommendations for the 40 projects of another corpus, which the models
# never saw, so forest votes and unseen feature values are exercised
PINNED_RECOMMENDATIONS_SHA256 = {
    "rf": "10b33a80a57dc36866c42d9c719b518db97cabcd2a52cb7ac835f44b6544acf0",
    "dt": "6d365bcfee64cd8ed4c01644df58e401e36e6904af61b20b447421234748c060",
    "lr": "795d683d0fa195a7449b8d0fa3f12053ab84bc351c81026df8c44541cf7d4144",
}
PINNED_MINE_STDOUT = {
    "rf": (
        "size\tf1_micro\n"
        "1\t0.4783549783549783\n"
        "2\t0.6569264069264069\n"
        "3\t0.7305194805194805\n"
        "4\t0.8138528138528138\n"
        "5\t0.7305194805194805\n"
        "6\t0.6829004329004329\n"
        "7\t0.7305194805194805\n"
        "8\t0.6829004329004329\n"
        "selected (4): loc_total,methods_per_class,noise_0,noise_1\n"
    ),
    "lr": (
        "size\tf1_micro\n"
        "1\t0.6829004329004329\n"
        "2\t0.4783549783549783\n"
        "3\t0.6222943722943722\n"
        "4\t0.6829004329004329\n"
        "5\t0.6829004329004329\n"
        "6\t0.7662337662337663\n"
        "7\t0.7662337662337663\n"
        "8\t0.7662337662337663\n"
        "selected (6): loc_total,n_methods,methods_per_class,avg_method_loc,noise_0,noise_1\n"
    ),
}
PINNED_SWEEP_TSV = {
    "rf": (
        "beta\tp_micro\tr_micro\tf1_micro\n"
        "0\t0.7166666666666667\t0.6833333333333332\t0.6984848484848485\n"
        "0.5\t0.7916666666666666\t0.7916666666666666\t0.7916666666666666\n"
        "1\t0.6916666666666667\t0.6416666666666666\t0.6638888888888889\n"
        "2\t0.775\t0.75\t0.7613636363636364\n"
        "inf\t0.5\t0.3988095238095238\t0.4420995670995671\n"
    ),
    "lr": (
        "beta\tp_micro\tr_micro\tf1_micro\n"
        "0\t0.55\t0.525\t0.5363636363636364\n"
        "0.5\t0.6791666666666666\t0.6791666666666666\t0.6791666666666666\n"
        "1\t0.6416666666666666\t0.5916666666666667\t0.6138888888888888\n"
        "2\t0.85\t0.8333333333333333\t0.8409090909090909\n"
        "inf\t0.55\t0.4345238095238095\t0.48376623376623373\n"
    ),
}
# every table of rf's mine --footprints: name, NUL, bytes, in sorted name order
PINNED_FOOTPRINTS_SHA256 = "c278346aab83f74d9916a13badec015a9e73128d24b8a3c94491a93ae650736a"
# node arrays and importances of direct fits at 190 rows x 8 features x 3 classes
PINNED_PAPER_SCALE_SHA256 = {
    "rf": "9ec2eb5c58af1f7579f7abecfba793aee0bb08bfe9747e39e2e3f79aa7d87270",
    "dt": "3824f3f49159a5ecf44286e0a4ac73641820b4425adf3dc22560b7b8bca52d71",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def evaluated(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    corpus = root / "corpus"
    argv = ["synth", "--out", str(corpus), "--projects", "16", "--files", "3", "--seed", "7"]
    assert cli.main(argv) == 0
    assert cli.main(["evaluate", "--corpus", str(corpus), "--out-dir", str(root / "eval")]) == 0
    other = root / "other"
    argv = ["synth", "--out", str(other), "--projects", "40", "--files", "3", "--seed", "8"]
    assert cli.main(argv) == 0
    return {
        "root": root,
        "unseen": str(other / "features.csv"),
        "data": [
            "--evaluations", str(root / "eval" / "evaluations.jsonl"),
            "--features", str(corpus / "features.csv"),
        ],
    }


@pytest.mark.parametrize("kind", ["rf", "dt", "lr"])
def test_train_bytes_are_pinned(evaluated, capsys, kind):
    model = evaluated["root"] / f"{kind}.json"
    argv = ["train", *evaluated["data"], "--model", kind, "--cv-folds", "4", "--out", str(model)]
    capsys.readouterr()
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == PINNED_CV_LINES[kind]
    assert sha256(model.read_bytes()) == PINNED_MODEL_SHA256[kind]
    argv = ["recommend", "--model-file", str(model), "--features", evaluated["unseen"]]
    assert cli.main(argv) == 0
    recommendations = capsys.readouterr().out.encode()
    assert sha256(recommendations) == PINNED_RECOMMENDATIONS_SHA256[kind]


def test_mine_bytes_are_pinned(evaluated, tmp_path, capsys):
    for kind, pinned in PINNED_MINE_STDOUT.items():
        argv = ["mine", *evaluated["data"], "--model", kind, "--folds", "3"]
        capsys.readouterr()
        assert cli.main(argv + ["--out-dir", str(tmp_path / kind)]) == 0
        stdout = capsys.readouterr().out
        assert stdout == pinned, kind
        selected = (tmp_path / kind / "selected_features.txt").read_text(encoding="utf-8")
        assert selected.splitlines() == stdout.splitlines()[-1].split(": ")[1].split(",")


def test_footprint_bytes_are_pinned(evaluated, tmp_path):
    """The rf ``mine --footprints`` tables; their PCA runs through LAPACK,
    so this pin, like the lr model file's, holds for this CPU's kernel."""
    argv = ["mine", *evaluated["data"], "--model", "rf", "--folds", "3", "--footprints"]
    assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 0
    digest = hashlib.sha256()
    for path in sorted((tmp_path / "footprints").iterdir(), key=lambda p: p.name):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == PINNED_FOOTPRINTS_SHA256


def test_sweep_bytes_are_pinned(evaluated, tmp_path, capsys):
    for kind, pinned in PINNED_SWEEP_TSV.items():
        out = tmp_path / f"sweep_{kind}.tsv"
        argv = ["sweep", *evaluated["data"], "--model", kind, "--folds", "4"]
        assert cli.main(argv + ["--betas", "0,0.5,1,2,inf", "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == pinned, kind


def paper_scale_data():
    """190 rows x 8 features with repeated values, and 3 classes, drawn
    from the package's pure-Python seed derivation so that they are the
    same on every platform."""
    X = np.array(
        [[derive_seed(19, i, j) % 97 / 8.0 for j in range(8)] for i in range(190)]
    )
    y = np.array([derive_seed(20, i) % 3 for i in range(190)])
    return X, y


def nodes_digest(estimator) -> str:
    """SHA-256 of every tree's used nodes and the importances, in tree order."""
    nodes = estimator.nodes_
    digest = hashlib.sha256()
    for t, count in enumerate(nodes.count.tolist()):
        for name in nodes.PER_NODE:
            digest.update(np.ascontiguousarray(getattr(nodes, name)[t, :count]).tobytes())
        digest.update(nodes.depth[t : t + 1].tobytes())
    importances = getattr(estimator, "tree_importances_", None)
    if importances is not None:
        digest.update(np.ascontiguousarray(importances).tobytes())
    digest.update(np.ascontiguousarray(estimator.feature_importances_).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("kind", ["rf", "dt"])
def test_paper_scale_fit_is_pinned(kind):
    X, y = paper_scale_data()
    if kind == "rf":
        estimator = RandomForestClassifier(n_estimators=100, random_state=13)
    else:
        estimator = DecisionTreeClassifier()
    estimator.fit(X, y, n_classes=3)
    assert nodes_digest(estimator) == PINNED_PAPER_SCALE_SHA256[kind]
