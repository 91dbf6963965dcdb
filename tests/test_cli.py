"""End-to-end command line runs (in-process, via main(argv))."""

from __future__ import annotations

import contextlib
import csv
import gc
import importlib.util
import io
import json
import math
import re
import shutil
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import ODD_VALUES, mutated_entries
from sca_reco import cli, exceptions, pipeline, recommend
from sca_reco.effectiveness import ConfusionCounts, optimal_set, score_sca
from sca_reco.exceptions import ConfigError, DataError, SchemaError
from sca_reco.ingestion import load_report
from sca_reco.pipeline import read_evaluations, read_labels
from sca_reco.recommend import DEFAULT_HYPERPARAMS

SCAS = {"hawkeye", "lintmax", "bugnet"}
BENCHMARK = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small corpus taken through synth -> label -> evaluate once."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    rc = cli.main(
        ["synth", "--out", str(corpus), "--projects", "12", "--files", "2", "--seed", "5"]
    )
    assert rc == 0
    labels = root / "labels.jsonl"
    assert cli.main(["label", "--corpus", str(corpus), "--out", str(labels)]) == 0
    eval_dir = root / "eval"
    rc = cli.main(
        ["evaluate", "--corpus", str(corpus), "--out-dir", str(eval_dir)]
    )
    assert rc == 0
    return {
        "root": root,
        "corpus": corpus,
        "labels": labels,
        "evaluations": eval_dir / "evaluations.jsonl",
        "features": corpus / "features.csv",
    }


def test_usage_errors_exit_1():
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        cli.main(["label"])  # --corpus and --out are required
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate"])
    assert info.value.code == 1


@pytest.mark.parametrize("model", ["rf", "lr"])
def test_the_benchmark_command_lines_parse(tmp_path, monkeypatch, model):
    """Every argv of the benchmark's flow parses, so each option it passes
    (``label --jobs 1`` among them) must stay while the benchmark runs it."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py prepends its directory
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCHMARK)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    flow = run.flow_commands(tmp_path / "corpus", tmp_path / "out", model)
    assert flow
    for command, argv in flow:
        args = cli.build_parser().parse_args(argv)
        assert args.command == command
        if "--model" in argv:
            assert args.model == model


def test_config_error_exits_1(workspace, tmp_path):
    rc = cli.main(
        [
            "evaluate",
            "--corpus",
            str(workspace["corpus"]),
            "--beta",
            "-1",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 1
    rc = cli.main(
        ["synth", "--out", str(tmp_path / "x"), "--profile", "broken", "--projects", "1"]
    )
    assert rc == 1


def test_data_error_exits_2(tmp_path):
    rc = cli.main(
        ["label", "--corpus", str(tmp_path / "missing"), "--out", str(tmp_path / "l")]
    )
    assert rc == 2


def test_synth_over_another_corpus_exits_1(tmp_path, capsys):
    out = tmp_path / "s"
    argv = ["synth", "--out", str(out), "--files", "1", "--seed", "5"]
    assert cli.main(argv + ["--projects", "12"]) == 0
    written = sorted(out.rglob("*"))
    capsys.readouterr()
    assert cli.main(argv + ["--projects", "10"]) == 1
    assert str(out) in capsys.readouterr().err
    assert sorted(out.rglob("*")) == written
    assert cli.main(argv + ["--projects", "12"]) == 0


PACKAGE_ERRORS = [
    cls for cls in vars(exceptions).values() if isinstance(cls, type) and issubclass(cls, Exception)
]


@pytest.mark.parametrize(
    "error", [*PACKAGE_ERRORS, RuntimeError], ids=lambda cls: cls.__name__
)
def test_each_error_class_exits_with_its_code(workspace, monkeypatch, capsys, error):
    """ConfigError and its subclasses exit 1, DataError and its subclasses
    exit 2, and any other exception exits 3 as an internal error."""

    def boom(path):
        raise error("wires crossed")

    monkeypatch.setattr(cli.RecommendationModel, "load", staticmethod(boom))
    rc = cli.main(
        [
            "recommend",
            "--model-file",
            "whatever",
            "--features",
            str(workspace["features"]),
        ]
    )
    if issubclass(error, ConfigError):
        code, line = 1, "sca-reco: wires crossed"
    elif issubclass(error, DataError):
        code, line = 2, "sca-reco: wires crossed"
    else:
        code, line = 3, "sca-reco: internal error: wires crossed"
    assert rc == code
    assert line in capsys.readouterr().err.splitlines()


def test_baseline_of_an_empty_evaluations_file_names_it(tmp_path, capsys):
    empty = tmp_path / "evaluations.jsonl"
    empty.write_text("", encoding="utf-8")
    assert cli.main(["baseline", "--evaluations", str(empty)]) == 2
    assert capsys.readouterr().err == f"sca-reco: {empty}: no evaluation records\n"


def _set_gc(enabled: bool) -> None:
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _gc_state_after(argv, enabled: bool):
    """``main(argv)``'s exit code (or the exception it raised), with the
    cyclic GC enabled or not before it, and the GC state after it."""
    was = gc.isenabled()
    _set_gc(enabled)
    try:
        try:
            outcome = cli.main(argv)
        except (KeyboardInterrupt, SystemExit) as exc:
            outcome = type(exc)
        return outcome, gc.isenabled()
    finally:
        _set_gc(was)


@pytest.mark.parametrize("enabled", [True, False])
def test_commands_restore_the_gc_state(workspace, tmp_path, monkeypatch, enabled):
    seen = []

    def failing(exc):
        def run(args):
            seen.append(gc.isenabled())
            raise exc

        return run

    corpus, out = str(workspace["corpus"]), str(tmp_path / "out")
    cases = [
        (["baseline", "--evaluations", str(workspace["evaluations"])], 0),
        (["label", "--corpus", str(tmp_path / "missing"), "--out", out], 2),
        (["evaluate", "--corpus", corpus, "--beta", "-1", "--out-dir", out], 1),
    ]
    for argv, code in cases:
        assert _gc_state_after(argv, enabled) == (code, enabled)
    recommend = ["recommend", "--model-file", "m", "--features", str(workspace["features"])]
    for exc, outcome in ((RuntimeError("boom"), 3), (KeyboardInterrupt(), KeyboardInterrupt)):
        monkeypatch.setattr(cli.RecommendationModel, "load", staticmethod(failing(exc)))
        assert _gc_state_after(recommend, enabled) == (outcome, enabled)
    assert _gc_state_after(["frobnicate"], enabled) == (SystemExit, enabled)
    assert seen == [False, False]  # each command ran with the GC paused


def test_second_command_leaves_no_reference_cycles(workspace):
    """The parser is built once a process; argparse leaves every parser it
    builds in reference cycles, hundreds of objects a command if rebuilt."""
    argv = ["baseline", "--evaluations", str(workspace["evaluations"])]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
        gc.collect()
        assert cli.main(argv) == 0
    assert gc.collect() == 0


def test_label_output_structure(workspace):
    lines = workspace["labels"].read_text(encoding="utf-8").splitlines()
    assert len(lines) == 12
    record = json.loads(lines[0])
    assert record["project"] == "p000"
    assert {"sca", "category", "class", "label"} <= set(record["warnings"][0])


def test_label_rerun_is_byte_identical(workspace, tmp_path):
    again = tmp_path / "labels.jsonl"
    rc = cli.main(
        ["label", "--corpus", str(workspace["corpus"]), "--out", str(again)]
    )
    assert rc == 0
    assert again.read_bytes() == workspace["labels"].read_bytes()


def test_evaluate_outputs(workspace):
    lines = workspace["evaluations"].read_text(encoding="utf-8").splitlines()
    assert len(lines) == 12
    optimal = workspace["evaluations"].parent / "optimal_sets.tsv"
    rows = optimal.read_text(encoding="utf-8").splitlines()
    assert rows[0] == "project\tprimary\toptimal"
    assert len(rows) == 13


def test_evaluate_from_stored_labels_matches_direct(workspace, tmp_path):
    rc = cli.main(
        [
            "evaluate",
            "--corpus",
            str(workspace["corpus"]),
            "--labels",
            str(workspace["labels"]),
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 0
    direct = workspace["evaluations"].read_bytes()
    assert (tmp_path / "evaluations.jsonl").read_bytes() == direct


def test_a_stray_reports_directory_names_no_analyzer(tmp_path):
    """Without scas.txt the analyzer order comes from the projects' reports:
    a reports directory outside any project changes no output byte."""
    corpus = tmp_path / "corpus"
    argv = ["synth", "--out", str(corpus), "--projects", "3", "--files", "1", "--seed", "5"]
    assert cli.main(argv) == 0
    (corpus / "scas.txt").unlink()
    written = []
    for stray in (False, True):
        if stray:
            reports = corpus / "notes" / "old" / "reports"
            reports.mkdir(parents=True)
            document = {"sca": "zzz", "project": "notes", "release": "old", "warnings": []}
            (reports / "zzz.json").write_text(json.dumps(document), encoding="utf-8")
        out = tmp_path / f"eval-{stray}"
        assert cli.main(["evaluate", "--corpus", str(corpus), "--out-dir", str(out)]) == 0
        written.append((out / "evaluations.jsonl").read_bytes())
    assert written[0] == written[1]
    assert b"zzz" not in written[1]


def test_a_project_without_warnings_labels_and_evaluates(tmp_path):
    """Every report empty: ``label`` writes the project's record with no
    rows, and ``evaluate --labels`` reads it back and exits 0."""
    corpus = tmp_path / "corpus"
    argv = ["synth", "--out", str(corpus), "--projects", "1", "--files", "1", "--seed", "3"]
    assert cli.main(argv) == 0
    for report in corpus.glob("*/*/reports/*.json"):
        document = json.loads(report.read_text(encoding="utf-8"))
        report.write_text(json.dumps({**document, "warnings": []}), encoding="utf-8")
    labels = tmp_path / "labels.jsonl"
    assert cli.main(["label", "--corpus", str(corpus), "--out", str(labels)]) == 0
    assert labels.read_text(encoding="utf-8") == '{"project": "p000", "warnings": []}\n'
    argv = ["evaluate", "--corpus", str(corpus), "--labels", str(labels)]
    assert cli.main(argv + ["--out-dir", str(tmp_path / "eval")]) == 0
    assert (tmp_path / "eval" / "evaluations.jsonl").is_file()


def test_evaluate_from_stored_labels_runs_jobs_workers(workspace, tmp_path, monkeypatch):
    asked = []
    pool = pipeline.ThreadPoolExecutor

    def counted_pool(max_workers):
        asked.append(max_workers)
        return pool(max_workers=max_workers)

    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", counted_pool)
    written = []
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        argv = ["evaluate", "--corpus", str(workspace["corpus"]), "--labels"]
        argv += [str(workspace["labels"]), "--out-dir", str(out), "--jobs", jobs]
        assert cli.main(argv) == 0
        written.append([(out / n).read_bytes() for n in ("evaluations.jsonl", "optimal_sets.tsv")])
    assert asked == [2]
    assert written[0] == written[1]


def test_corrupted_project_partial_failure(workspace, tmp_path):
    clone = tmp_path / "clone"
    shutil.copytree(workspace["corpus"], clone)
    report = next((clone / "p002").glob("*/reports/*.json"))
    report.write_text("oops", encoding="utf-8")
    out = tmp_path / "labels.jsonl"
    rc = cli.main(["label", "--corpus", str(clone), "--out", str(out)])
    assert rc == 2
    assert len(out.read_text(encoding="utf-8").splitlines()) == 11


def _label_argv(ws):
    return ["label", "--corpus", str(ws["corpus"]), "--out", str(ws["root"] / "out.jsonl")]


def _train_argv(ws, *extra):
    argv = ["train", "--evaluations", str(ws["evaluations"]), "--features", str(ws["features"])]
    return argv + ["--model", "dt", "--out", str(ws["root"] / "model.json"), *extra]


def _feature_list_case(ws):
    path = ws["root"] / "list.txt"
    path.write_text("loc_total\nn_files\n", encoding="utf-8")
    return path, _train_argv(ws, "--feature-list", str(path))


def _model_case(ws):
    path = corrupted_model(ws, ws["root"], "dt", lambda document: None)
    argv = ["recommend", "--model-file", str(path), "--features", str(ws["features"])]
    return path, argv


# each input kind: a function of a copied workspace that returns the file to
# corrupt and the command that reads it
INPUT_KINDS = {
    "report": lambda ws: (next((ws["corpus"] / "p003").glob("*/reports/*.json")), _label_argv(ws)),
    "releases": lambda ws: (ws["corpus"] / "p003" / "releases.json", _label_argv(ws)),
    "gdc_map": lambda ws: (ws["corpus"] / "gdc_map.tsv", _label_argv(ws)),
    "taxonomy": lambda ws: (ws["corpus"] / "taxonomy.tsv", _label_argv(ws)),
    "scas": lambda ws: (ws["corpus"] / "scas.txt", _label_argv(ws)),
    "labels": lambda ws: (
        ws["labels"],
        ["evaluate", "--corpus", str(ws["corpus"]), "--labels", str(ws["labels"])]
        + ["--out-dir", str(ws["root"] / "eval")],
    ),
    "evaluations": lambda ws: (ws["evaluations"], _train_argv(ws)),
    "features": lambda ws: (ws["features"], _train_argv(ws)),
    "feature-list": _feature_list_case,
    "model": _model_case,
}


@pytest.mark.parametrize("kind", sorted(INPUT_KINDS))
def test_undecodable_input_exits_2_and_names_the_file(workspace, tmp_path, capsys, caplog, kind):
    ws = {"root": tmp_path, "corpus": tmp_path / "corpus"}
    shutil.copytree(workspace["corpus"], ws["corpus"])
    ws["features"] = ws["corpus"] / "features.csv"
    for name in ("labels", "evaluations"):
        ws[name] = tmp_path / workspace[name].name
        shutil.copyfile(workspace[name], ws[name])
    path, argv = INPUT_KINDS[kind](ws)
    with open(path, "ab") as handle:
        handle.write(b"\xff")
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"{path}: not UTF-8 at byte offset " in err
    assert "Traceback" not in err and "internal error" not in err
    assert not any(record.exc_info for record in caplog.records)
    if kind in ("report", "releases"):  # only that project fails
        assert err.count("project ") == 1 and "project p003: " in err
        labels = (tmp_path / "out.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["project"] for line in labels] == [
            f"p{i:03d}" for i in range(12) if i != 3
        ]


def nested_json(depth: int) -> str:
    """A JSON array nested ``depth`` levels deep, past the decoder's limit."""
    return "[" * depth + "]" * depth


def test_nested_report_fails_only_its_project(workspace, tmp_path, capsys):
    clone = tmp_path / "clone"
    shutil.copytree(workspace["corpus"], clone)
    report = next((clone / "p002").glob("*/reports/*.json"))
    report.write_text(nested_json(100_000), encoding="utf-8")
    out = tmp_path / "labels.jsonl"
    capsys.readouterr()
    rc = cli.main(["label", "--corpus", str(clone), "--out", str(out)])
    assert rc == 2
    assert str(report) in capsys.readouterr().err
    assert len(out.read_text(encoding="utf-8").splitlines()) == 11


def test_nested_labels_line_exits_2(workspace, tmp_path, capsys):
    lines = workspace["labels"].read_text(encoding="utf-8").splitlines()
    lines[2] = nested_json(5_000)
    labels = tmp_path / "labels.jsonl"
    labels.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    argv = ["evaluate", "--corpus", str(workspace["corpus"]), "--labels", str(labels)]
    assert cli.main(argv + ["--out-dir", str(tmp_path / "eval")]) == 2
    assert f"{labels}:3" in capsys.readouterr().err


def test_nested_model_file_exits_2(workspace, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(nested_json(1_500), encoding="utf-8")
    rc, err = recommend_exit(workspace, path, capsys)
    assert rc == 2
    assert str(path) in err


def test_evaluate_rerun_with_out_dir_inside_corpus(workspace, tmp_path):
    # the README flow writes demo/eval and demo/mine inside the corpus; a
    # rerun must not take them for projects
    clone = tmp_path / "clone"
    shutil.copytree(workspace["corpus"], clone)
    (clone / "mine").mkdir()
    argv = ["evaluate", "--corpus", str(clone), "--out-dir", str(clone / "eval")]
    assert cli.main(argv) == 0
    assert cli.main(argv) == 0
    rerun = (clone / "eval" / "evaluations.jsonl").read_bytes()
    assert rerun == workspace["evaluations"].read_bytes()
    labels = tmp_path / "labels.jsonl"
    assert cli.main(["label", "--corpus", str(clone), "--out", str(labels)]) == 0
    assert labels.read_bytes() == workspace["labels"].read_bytes()


def test_mine_writes_selection(workspace, tmp_path, capsys):
    out_dir = tmp_path / "mine"
    rc = cli.main(
        [
            "mine",
            "--evaluations",
            str(workspace["evaluations"]),
            "--features",
            str(workspace["features"]),
            "--model",
            "dt",
            "--folds",
            "3",
            "--out-dir",
            str(out_dir),
            "--footprints",
        ]
    )
    assert rc == 0
    output = capsys.readouterr().out
    assert output.startswith("size\tf1_micro\n")
    assert "selected (" in output
    selected = (out_dir / "selected_features.txt").read_text(encoding="utf-8")
    assert selected.strip()
    assert list((out_dir / "footprints").glob("*.csv"))


def test_train_and_recommend(workspace, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    rc = cli.main(
        [
            "train",
            "--evaluations",
            str(workspace["evaluations"]),
            "--features",
            str(workspace["features"]),
            "--model",
            "dt",
            "--cv-folds",
            "3",
            "--out",
            str(model_path),
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out.startswith("cv\t")
    assert model_path.is_file()

    rc = cli.main(
        [
            "recommend",
            "--model-file",
            str(model_path),
            "--features",
            str(workspace["features"]),
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 12
    for line in lines:
        project, sca = line.split("\t")
        assert project.startswith("p")
        assert sca in SCAS

    rc = cli.main(
        [
            "recommend",
            "--model-file",
            str(model_path),
            "--features",
            str(workspace["features"]),
            "--project",
            "p003",
            "--out",
            str(tmp_path / "rec.txt"),
        ]
    )
    assert rc == 0
    text = (tmp_path / "rec.txt").read_text(encoding="utf-8")
    assert text.startswith("p003\t")

    rc = cli.main(
        [
            "recommend",
            "--model-file",
            str(model_path),
            "--features",
            str(workspace["features"]),
            "--project",
            "ghost",
        ]
    )
    assert rc == 2
    message = f"sca-reco: {workspace['features']}: project 'ghost' is not in the feature table\n"
    assert capsys.readouterr().err == message



def train_on_list(workspace, feature_list, model_path):
    return cli.main(
        [
            "train",
            "--evaluations",
            str(workspace["evaluations"]),
            "--features",
            str(workspace["features"]),
            "--model",
            "lr",
            "--feature-list",
            str(feature_list),
            "--out",
            str(model_path),
        ]
    )


def test_model_of_mined_features_applies_to_the_feature_table(workspace, tmp_path, capsys):
    mine_dir = tmp_path / "mine"
    rc = cli.main(
        [
            "mine",
            "--evaluations",
            str(workspace["evaluations"]),
            "--features",
            str(workspace["features"]),
            "--model",
            "lr",
            "--folds",
            "3",
            "--out-dir",
            str(mine_dir),
        ]
    )
    assert rc == 0
    feature_list = mine_dir / "selected_features.txt"
    selected = feature_list.read_text(encoding="utf-8").split()
    with open(workspace["features"], newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert 0 < len(selected) < len(rows[0]) - 1
    model_path = tmp_path / "model.json"
    assert train_on_list(workspace, feature_list, model_path) == 0

    columns = [0] + [rows[0].index(name) for name in selected]
    cut = tmp_path / "cut.csv"
    with open(cut, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows([row[i] for i in columns] for row in rows)
    outputs = {}
    for features in (workspace["features"], cut):
        capsys.readouterr()
        rc = cli.main(["recommend", "--model-file", str(model_path), "--features", str(features)])
        assert rc == 0, capsys.readouterr().err
        outputs[features] = capsys.readouterr().out
    assert outputs[workspace["features"]] == outputs[cut]
    assert len(outputs[cut].splitlines()) == 12


@pytest.mark.parametrize(
    "text",
    ["", "\n  \n", "loc_total\nn_files\nloc_total\n", "loc_total\nno_such_feature\n"],
    ids=["empty", "blank", "repeated", "unknown"],
)
def test_unusable_feature_list_exits_2(workspace, tmp_path, capsys, text):
    feature_list = tmp_path / "features.txt"
    feature_list.write_text(text, encoding="utf-8")
    model_path = tmp_path / "model.json"
    capsys.readouterr()
    assert train_on_list(workspace, feature_list, model_path) == 2
    assert str(feature_list) in capsys.readouterr().err
    assert not model_path.exists()


def literal(text: str) -> str:
    """A value that ``dumps`` writes as ``text`` verbatim: a number literal
    that json.dumps cannot write, such as 1e999."""
    return f"<literal:{text}>"


def dumps(document) -> str:
    """``json.dumps(document)`` with each ``literal`` written out."""
    return re.sub(r'"<literal:([^"]*)>"', r"\1", json.dumps(document))


def corrupted_model(workspace, tmp_path, kind, corrupt):
    """Train a ``kind`` model, let ``corrupt`` edit its JSON, return the path."""
    path = tmp_path / f"{kind}.json"
    rc = cli.main(
        [
            "train",
            "--evaluations",
            str(workspace["evaluations"]),
            "--features",
            str(workspace["features"]),
            "--model",
            kind,
            "--cv-folds",
            "2",
            "--out",
            str(path),
        ]
    )
    assert rc == 0
    document = json.loads(path.read_text(encoding="utf-8"))
    corrupt(document)
    path.write_text(dumps(document), encoding="utf-8")
    return path


def recommend_exit(workspace, model_path, capsys):
    capsys.readouterr()
    rc = cli.main(
        ["recommend", "--model-file", str(model_path), "--features", str(workspace["features"])]
    )
    return rc, capsys.readouterr().err


def test_truncated_standardization_exits_2(workspace, tmp_path, capsys):
    def cut_means(document):
        document["standardization"]["means"] = document["standardization"]["means"][:2]

    path = corrupted_model(workspace, tmp_path, "dt", cut_means)
    rc, err = recommend_exit(workspace, path, capsys)
    assert rc == 2
    assert str(path) in err


def _set_first(*path, value):
    """A corruption that sets the first number of the list at ``path``."""

    def corrupt(document):
        target = document
        for key in path:
            target = target[key]
        while isinstance(target[0], list):
            target = target[0]
        target[0] = value

    return corrupt


# model files with a constant JSON lacks (json.dumps writes NaN and
# Infinity), or a negative standard deviation
NON_FINITE_MODELS = {
    "means-nan": _set_first("standardization", "means", value=math.nan),
    "means-inf": _set_first("standardization", "means", value=math.inf),
    "means--inf": _set_first("standardization", "means", value=-math.inf),
    "stds-nan": _set_first("standardization", "stds", value=math.nan),
    "stds-inf": _set_first("standardization", "stds", value=math.inf),
    "stds--1": _set_first("standardization", "stds", value=-1.0),
    "W-nan": _set_first("params", "state", "W", value=math.nan),
    "W-inf": _set_first("params", "state", "W", value=math.inf),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_MODELS))
def test_non_finite_or_negative_model_number_exits_2(workspace, tmp_path, capsys, case):
    path = corrupted_model(workspace, tmp_path, "lr", NON_FINITE_MODELS[case])
    rc, err = recommend_exit(workspace, path, capsys)
    assert rc == 2
    assert f"{path}: " in err


# model standardizations that are finite but overflow once applied: a
# subnormal standard deviation, and a mean a features cell is too far from
OVERFLOWING_STANDARDIZATIONS = {
    "subnormal-std": (_set_first("standardization", "stds", value=1e-320), None),
    "far-mean": (_set_first("standardization", "means", value=1.7e308), "-1.7e308"),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWING_STANDARDIZATIONS))
def test_overflowing_standardization_names_model_and_features(
    workspace, tmp_path, capsys, case
):
    corrupt, cell = OVERFLOWING_STANDARDIZATIONS[case]
    path = corrupted_model(workspace, tmp_path, "lr", corrupt)
    feature = json.loads(path.read_text(encoding="utf-8"))["feature_names"][0]
    features = workspace["features"]
    if cell is not None:
        lines = features.read_text(encoding="utf-8").splitlines()
        row = lines[1].split(",")
        row[lines[0].split(",").index(feature)] = cell
        lines[1] = ",".join(row)
        features = tmp_path / "features.csv"
        features.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    argv = ["recommend", "--model-file", str(path), "--features", str(features)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"{path} on {features}, project p000: feature {feature!r}: " in err
    assert "not finite" in err


def _edit_field(path: str, to):
    """A corruption that replaces the field at the dotted ``path`` by ``to``
    of its value, or deletes it when ``to`` is None."""

    def corrupt(document):
        *parents, key = path.split(".")
        for parent in parents:
            document = document[parent]
        if to is None:
            del document[key]
        else:
            document[key] = to(document[key])

    return corrupt


# model files with a standardization or state field of the wrong shape or
# type, each with the kind trained and the field its refusal must name
MALFORMED_MODEL_FIELDS = {
    "stds-nested": (
        "lr", _edit_field("standardization.stds", to=lambda v: [[x] for x in v]), "'stds'"
    ),
    "stds-a-bool": (
        "lr", _edit_field("standardization.stds", to=lambda v: [True] + v[1:]), "'stds'"
    ),
    "means-true": ("lr", _edit_field("standardization.means", to=lambda v: True), "'means'"),
    "means-huge-int": (
        "lr", _edit_field("standardization.means", to=lambda v: [10**400] + v[1:]), "'means'"
    ),
    "means-missing": ("lr", _edit_field("standardization.means", to=None), "'means'"),
    "W-missing": ("lr", _edit_field("params.state.W", to=None), "'W'"),
    "W-strings": (
        "lr", _edit_field("params.state.W", to=lambda v: [["a"] * len(v[0])] * len(v)), "'W'"
    ),
    # counts read with int() loaded truncated: 3.9 classes as 3, true features as 1
    "dt-classes-float": (
        "dt", _edit_field("params.state.n_classes", to=lambda v: v + 0.9), "'n_classes'"
    ),
    "dt-features-true": (
        "dt", _edit_field("params.state.n_features", to=lambda v: True), "'n_features'"
    ),
    "dt-classes-text": (
        "dt", _edit_field("params.state.n_classes", to=lambda v: "abc"), "'n_classes'"
    ),
    "rf-classes-float": ("rf", _edit_field("params.state.n_classes", to=float), "'n_classes'"),
    "rf-tree-features-true": (
        "rf",
        _edit_field("params.state.trees", to=lambda v: [{**v[0], "n_features": True}, *v[1:]]),
        "'n_features'",
    ),
    "knn-classes-float": (
        "knn", _edit_field("params.state.n_classes", to=lambda v: v + 0.5), "'n_classes'"
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MODEL_FIELDS))
def test_malformed_model_field_is_named(workspace, tmp_path, capsys, case):
    kind, corrupt, field = MALFORMED_MODEL_FIELDS[case]
    path = corrupted_model(workspace, tmp_path, kind, corrupt)
    rc, err = recommend_exit(workspace, path, capsys)
    assert rc == 2
    assert f"{path}: " in err
    assert f"field {field}" in err


@pytest.mark.parametrize("kind", ["dt", "knn", "lr", "mlp", "rf"])
def test_class_list_shorter_than_estimator_exits_2(workspace, tmp_path, capsys, kind):
    def cut_classes(document):
        document["params"]["classes"] = document["params"]["classes"][:1]

    path = corrupted_model(workspace, tmp_path, kind, cut_classes)
    rc, err = recommend_exit(workspace, path, capsys)
    assert rc == 2
    assert str(path) in err

# a hyperparameter that each kind does not have
FOREIGN_HYPERPARAM = {
    "dt": "n_estimators",
    "knn": "l2",
    "lr": "hidden_units",
    "mlp": "n_neighbors",
    "rf": "metric",
}


@pytest.mark.parametrize("kind", sorted(FOREIGN_HYPERPARAM))
def test_kind_disagreeing_with_hyperparams_exits_2(workspace, tmp_path, capsys, kind):
    def add_foreign(document):
        document["hyperparams"][FOREIGN_HYPERPARAM[kind]] = 1

    path = corrupted_model(workspace, tmp_path, kind, add_foreign)
    rc, err = recommend_exit(workspace, path, capsys)
    assert rc == 2
    assert str(path) in err


@pytest.mark.parametrize(
    "field, value", [("hyperparams", [1]), ("seed", "abc")], ids=["hyperparams", "seed"]
)
def test_malformed_model_field_exits_2(workspace, tmp_path, capsys, field, value):
    path = corrupted_model(workspace, tmp_path, "dt", lambda doc: doc.update({field: value}))
    rc, err = recommend_exit(workspace, path, capsys)
    assert rc == 2
    assert str(path) in err


def _drop_last_column(matrix):
    return [row[:-1] for row in matrix]


def _first_leaf(node):
    while "feature" in node:
        node = node["left"]
    return node


def _edit_state(update):
    """A corruption that hands the estimator state to ``update``."""
    return lambda document: update(document["params"]["state"])


def _set_hyperparam(**values):
    return lambda document: document["hyperparams"].update(values)


# (kind, corruption): model files whose estimator state or hyperparameters
# disagree with the rest of the file or with themselves
CORRUPT_STATE = {
    "lr-W-narrow": ("lr", _edit_state(lambda s: s.update(W=_drop_last_column(s["W"])))),
    "mlp-W1-narrow": ("mlp", _edit_state(lambda s: s.update(W1=s["W1"][:-1]))),
    "dt-feature-99": ("dt", _edit_state(lambda s: s["tree"].update(feature=99))),
    "dt-leaf-class-7": ("dt", _edit_state(lambda s: _first_leaf(s["tree"]).update({"class": 7}))),
    "dt-split-no-threshold": ("dt", _edit_state(lambda s: s["tree"].pop("threshold"))),
    "knn-X-narrow": ("knn", _edit_state(lambda s: s.update(X=_drop_last_column(s["X"])))),
    "rf-no-trees": ("rf", _edit_state(lambda s: s.update(trees=[]))),
    "knn-n_neighbors-x": ("knn", _set_hyperparam(n_neighbors="x")),
    "knn-n_neighbors-null": ("knn", _set_hyperparam(n_neighbors=None)),
    "knn-n_neighbors-0": ("knn", _set_hyperparam(n_neighbors=0)),
    "lr-n_iter--5": ("lr", _set_hyperparam(n_iter=-5)),
    "lr-learning_rate-nan": ("lr", _set_hyperparam(learning_rate=math.nan)),
    "lr-l2--1": ("lr", _set_hyperparam(l2=-1.0)),
    "mlp-epochs-x": ("mlp", _set_hyperparam(epochs="x")),
    "mlp-momentum-inf": ("mlp", _set_hyperparam(momentum=math.inf)),
    "mlp-learning_rate-0": ("mlp", _set_hyperparam(learning_rate=0)),
}


@pytest.mark.parametrize("case", sorted(CORRUPT_STATE))
def test_corrupt_estimator_state_exits_2(workspace, tmp_path, capsys, case):
    kind, corrupt = CORRUPT_STATE[case]
    path = corrupted_model(workspace, tmp_path, kind, corrupt)
    rc, err = recommend_exit(workspace, path, capsys)
    assert rc == 2
    assert str(path) in err


def _set_number(*path, value):
    """A corruption that sets the number at ``path``, or the first number
    of the (nested) list there."""

    def corrupt(document):
        *parents, key = path
        for parent in parents:
            document = document[parent]
        while isinstance(document[key], list):
            document, key = document[key], 0
        document[key] = value

    return corrupt


# (kind, path of a model-file number, what refusing an int there that is
# beyond the float range names)
FLOAT_FIELDS = {
    "means": ("lr", ("standardization", "means"), "field 'means'"),
    "stds": ("lr", ("standardization", "stds"), "field 'stds'"),
    **{
        f"{kind}-{field}": (kind, ("params", "state", field), f"field {field!r}")
        for kind, fields in (("lr", ["W", "b"]), ("mlp", ["W1", "b1", "W2", "b2"]))
        for field in fields
    },
    "knn-X": ("knn", ("params", "state", "X"), "X contains non-finite values"),
    "dt-threshold": ("dt", ("params", "state", "tree", "threshold"), "threshold"),
    "rf-threshold": ("rf", ("params", "state", "trees", 0, "tree", "threshold"), "threshold"),
}
BEYOND_FLOAT = {"int-1e400": 10**400, "literal-1e999": literal("1e999")}


@pytest.mark.parametrize("number", sorted(BEYOND_FLOAT))
@pytest.mark.parametrize("case", sorted(FLOAT_FIELDS))
def test_model_number_beyond_the_float_range_exits_2(workspace, tmp_path, capsys, case, number):
    kind, path, named = FLOAT_FIELDS[case]
    corrupt = _set_number(*path, value=BEYOND_FLOAT[number])
    model = corrupted_model(workspace, tmp_path, kind, corrupt)
    rc, err = recommend_exit(workspace, model, capsys)
    assert rc == 2
    assert f"{model}: " in err
    # the decoder refuses the literal before any field is read
    assert (named if number == "int-1e400" else "number 1e999 is beyond the float range") in err


@pytest.fixture(scope="module")
def saved_models(workspace, tmp_path_factory):
    """The directory and decoded JSON of one trained model file per kind."""
    root = tmp_path_factory.mktemp("models")
    documents = {}
    for kind in DEFAULT_HYPERPARAMS:
        path = corrupted_model(workspace, root, kind.value, lambda document: None)
        documents[kind.value] = json.loads(path.read_text(encoding="utf-8"))
    return root, documents


# values that no hyperparameter takes: the wrong type, negative, NaN,
# infinite, or a number literal beyond the float range
NEVER_VALID = st.one_of(
    st.text("abcsx0 ", max_size=5).filter(lambda text: text not in ("sqrt", "gini")),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.just("n"), st.integers(0, 3), max_size=1),
    st.integers(max_value=-1),
    st.floats(max_value=-1e-3),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from([-(10**400), literal("1e999"), literal("-1e999"), literal("[1e999]")]),
)
REAL_HYPERPARAMS = {"l2", "learning_rate", "momentum"}
OPTIONAL_HYPERPARAMS = {"max_depth", "max_features"}


def invalid_values(name):
    """Values the hyperparameter ``name`` must refuse."""
    options = [NEVER_VALID]
    if name != "bootstrap":
        options.append(st.booleans())
    if name not in OPTIONAL_HYPERPARAMS:
        options.append(st.none())
    if name in REAL_HYPERPARAMS:
        options.append(st.just(10**400))  # an int beyond the float range
    else:
        options.append(st.floats(1e-3, 1e6).filter(lambda value: not value.is_integer()))
    return st.one_of(options)


HYPERPARAMS = sorted(
    (kind.value, name) for kind, defaults in DEFAULT_HYPERPARAMS.items() for name in defaults
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=st.sampled_from(HYPERPARAMS), data=st.data())
def test_invalid_hyperparameter_in_model_file_exits_2(workspace, saved_models, case, data):
    kind, name = case
    root, documents = saved_models
    document = json.loads(json.dumps(documents[kind]))
    document["hyperparams"][name] = data.draw(invalid_values(name), label=name)
    path = root / "invalid.json"
    path.write_text(dumps(document), encoding="utf-8")
    argv = ["recommend", "--model-file", str(path), "--features", str(workspace["features"])]
    with contextlib.redirect_stderr(io.StringIO()) as err:
        rc = cli.main(argv)
    assert rc == 2
    assert str(path) in err.getvalue()


def _repeat_first(names):
    names[1] = names[0]


# model file headers that each have a field of the wrong JSON type, a list
# of names that are not distinct strings, or a missing field
MALFORMED_HEADERS = {
    "seed-string": lambda document: document.update(seed="7"),
    "seed-float": lambda document: document.update(seed=7.9),
    "seed-bool": lambda document: document.update(seed=True),
    "version-bool": lambda document: document.update(version=True),
    "version-float": lambda document: document.update(version=1.0),
    "kind-int": lambda document: document.update(kind=5),
    "classes-int": lambda document: document["params"].update(
        classes=list(range(1, len(document["params"]["classes"]) + 1))
    ),
    "classes-repeated": lambda document: _repeat_first(document["params"]["classes"]),
    "feature_names-repeated": lambda document: _repeat_first(document["feature_names"]),
    "params-no-state": lambda document: document["params"].pop("state"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
def test_malformed_model_header_exits_2(workspace, saved_models, case):
    root, documents = saved_models
    document = json.loads(json.dumps(documents["dt"]))
    MALFORMED_HEADERS[case](document)
    path = root / "header.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    argv = ["recommend", "--model-file", str(path), "--features", str(workspace["features"])]
    with contextlib.redirect_stderr(io.StringIO()) as err:
        rc = cli.main(argv)
    assert rc == 2
    assert f"{path}: " in err.getvalue()


# each command with a count below its minimum
BAD_COUNTS = {
    "mine": ["--model", "dt", "--folds", "1", "--out-dir", "{tmp}"],
    "train": ["--model", "dt", "--cv-folds", "1", "--out", "{tmp}/model.json"],
    "train-cv-folds-0": ["--model", "dt", "--cv-folds", "0", "--out", "{tmp}/model.json"],
    "sweep": ["--model", "dt", "--folds", "1", "--out", "{tmp}/sweep.tsv"],
    "baseline": ["--repeats", "0"],
}


@pytest.mark.parametrize("case", sorted(BAD_COUNTS))
def test_count_below_minimum_exits_1(workspace, tmp_path, capsys, case):
    command = case.split("-")[0]
    argv = [command, "--evaluations", str(workspace["evaluations"])]
    if command != "baseline":
        argv += ["--features", str(workspace["features"])]
    argv += [token.format(tmp=tmp_path) for token in BAD_COUNTS[case]]
    capsys.readouterr()
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert "at least" in captured.err
    # the count is checked before any work, so nothing is written or printed
    assert list(tmp_path.iterdir()) == []
    assert captured.out == ""


# label and evaluate, the latter with and without stored labels
JOBS_COMMANDS = {
    "label": ["label", "--out", "{tmp}/labels.jsonl"],
    "evaluate": ["evaluate", "--out-dir", "{tmp}/eval"],
    "evaluate-labels": ["evaluate", "--labels", "{labels}", "--out-dir", "{tmp}/eval"],
}


# a large --jobs starts that many threads, so only counts below 1 are tried
@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("case", sorted(JOBS_COMMANDS))
def test_jobs_below_1_exits_1_before_writing(workspace, tmp_path, capsys, case, jobs):
    argv = [t.format(tmp=tmp_path, labels=workspace["labels"]) for t in JOBS_COMMANDS[case]]
    argv += ["--corpus", str(workspace["corpus"]), "--jobs", jobs]
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# each command with a fold count above the workspace's 12 projects
TOO_MANY_FOLDS = {
    "mine": ["--model", "dt", "--folds", "50", "--out-dir", "{tmp}"],
    "train": ["--model", "dt", "--cv-folds", "50", "--out", "{tmp}/model.json"],
    "sweep": ["--model", "dt", "--folds", "50", "--out", "{tmp}/sweep.tsv"],
}


@pytest.mark.parametrize("command", sorted(TOO_MANY_FOLDS))
def test_folds_above_the_project_count_exit_2_before_any_fit(
    workspace, tmp_path, capsys, monkeypatch, command
):
    def no_fit(*args, **kwargs):
        raise AssertionError("a model was fitted before the fold count was checked")

    monkeypatch.setattr(recommend, "train_batch", no_fit)
    argv = [command, "--evaluations", str(workspace["evaluations"])]
    argv += ["--features", str(workspace["features"])]
    argv += [token.format(tmp=tmp_path) for token in TOO_MANY_FOLDS[command]]
    capsys.readouterr()
    assert cli.main(argv) == 2
    assert "cannot split 12 rows into 50 folds" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("model", ["dt", "lr"])
def test_train_with_cv_folds_fits_one_batch_and_writes_the_same_model(
    workspace, tmp_path, capsys, monkeypatch, model
):
    batches = []
    train_batch = recommend.train_batch

    def counting(training_sets, *rest):
        batches.append(len(training_sets))
        return train_batch(training_sets, *rest)

    monkeypatch.setattr(recommend, "train_batch", counting)
    argv = ["train", "--evaluations", str(workspace["evaluations"])]
    argv += ["--features", str(workspace["features"]), "--model", model]
    assert cli.main(argv + ["--out", str(tmp_path / "alone.json")]) == 0
    capsys.readouterr()
    assert cli.main(argv + ["--cv-folds", "3", "--out", str(tmp_path / "cv.json")]) == 0
    assert capsys.readouterr().out.startswith("cv\t")
    assert batches == [1, 1 + 3]
    assert (tmp_path / "cv.json").read_bytes() == (tmp_path / "alone.json").read_bytes()


# each command with 2 folds
TWO_FOLDS = {
    "mine": ["--model", "dt", "--folds", "2", "--out-dir", "{tmp}/mine"],
    "train": ["--model", "dt", "--cv-folds", "2", "--out", "{tmp}/model.json"],
    "sweep": ["--model", "dt", "--folds", "2", "--out", "{tmp}/sweep.tsv"],
}


@pytest.mark.parametrize("command", sorted(TWO_FOLDS))
def test_a_fold_that_cannot_train_exits_2_naming_it(workspace, tmp_path, capsys, command):
    # primary labels hawkeye x3 and lintmax x1: fold 0 holds out two
    # hawkeye rows and the lintmax row, leaving one project to train on
    by_primary = {}
    for line in workspace["evaluations"].read_text(encoding="utf-8").splitlines():
        by_primary.setdefault(json.loads(line)["optimal"][0], []).append(line)
    lines = by_primary["hawkeye"][:3] + by_primary["lintmax"][:1]
    assert len(lines) == 4
    evaluations = tmp_path / "evaluations.jsonl"
    evaluations.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = [command, "--evaluations", str(evaluations), "--features", str(workspace["features"])]
    argv += [token.format(tmp=tmp_path) for token in TWO_FOLDS[command]]
    capsys.readouterr()
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "sca-reco: cv fold 0: training needs at least 2 projects\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["evaluations.jsonl"]


def test_feature_column_without_a_name_exits_2(workspace, tmp_path, capsys):
    lines = workspace["features"].read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    header[1] = ""
    features = tmp_path / "features.csv"
    features.write_text("\n".join([",".join(header), *lines[1:]]) + "\n", encoding="utf-8")
    out_dir = tmp_path / "mine"
    argv = ["mine", "--evaluations", str(workspace["evaluations"]), "--features", str(features)]
    capsys.readouterr()
    assert cli.main(argv + ["--model", "dt", "--folds", "3", "--out-dir", str(out_dir)]) == 2
    assert f"{features}: column 2 has no name" in capsys.readouterr().err
    assert not out_dir.exists()


def test_baseline_commands(workspace, capsys):
    rc = cli.main(
        ["baseline", "--evaluations", str(workspace["evaluations"]), "--repeats", "20"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "baseline\tp_micro\tr_micro\tf1_micro"
    assert lines[1].startswith("random:20\t")

    rc = cli.main(
        [
            "baseline",
            "--evaluations",
            str(workspace["evaluations"]),
            "--fixed",
            "hawkeye",
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("fixed:hawkeye\t")

    rc = cli.main(
        ["baseline", "--evaluations", str(workspace["evaluations"]), "--fixed", "nosuch"]
    )
    assert rc == 1
    captured = capsys.readouterr()
    assert "'nosuch' is not in the corpus" in captured.err
    assert captured.out == ""


def test_sweep_command(workspace, tmp_path, capsys):
    out = tmp_path / "sweep.tsv"
    rc = cli.main(
        [
            "sweep",
            "--evaluations",
            str(workspace["evaluations"]),
            "--features",
            str(workspace["features"]),
            "--model",
            "dt",
            "--folds",
            "3",
            "--betas",
            "0,1,inf",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    assert out.read_text(encoding="utf-8") == stdout
    lines = stdout.splitlines()
    assert lines[0] == "beta\tp_micro\tr_micro\tf1_micro"
    assert [line.split("\t")[0] for line in lines[1:]] == ["0", "1", "inf"]

    rc = cli.main(
        [
            "sweep",
            "--evaluations",
            str(workspace["evaluations"]),
            "--features",
            str(workspace["features"]),
            "--betas",
            " , ",
            "--out",
            str(out),
        ]
    )
    assert rc == 1



def _model_flow_outputs(evaluations: Path, features: Path, out: Path, model: str) -> list:
    """The stdout of mine, train, recommend, baseline and sweep on one
    evaluations file and feature table, then every file they wrote."""
    dataset = ["--evaluations", str(evaluations), "--features", str(features), "--model", model]
    stdouts = []
    for argv in (
        ["mine", *dataset, "--folds", "3", "--out-dir", str(out / "mine"), "--footprints"],
        ["train", *dataset, "--cv-folds", "3", "--out", str(out / "model.json")],
        ["recommend", "--model-file", str(out / "model.json"), "--features", str(features)],
        ["baseline", "--evaluations", str(evaluations), "--repeats", "20"],
        ["sweep", *dataset, "--folds", "3", "--betas", "0,1,inf", "--out", str(out / "sweep.tsv")],
    ):
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            with contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(argv) == 0, argv
        stdouts.append(stdout.getvalue())
    written = sorted(path for path in out.rglob("*") if path.is_file())
    return stdouts + [(path.relative_to(out).as_posix(), path.read_bytes()) for path in written]


@pytest.fixture(scope="module")
def sorted_flow_outputs(workspace, tmp_path_factory):
    """Each model kind's flow outputs on the workspace's own files, whose
    rows are sorted by project, made on first use."""
    made = {}

    def outputs(model: str) -> list:
        if model not in made:
            out = tmp_path_factory.mktemp(f"sorted-{model}")
            made[model] = _model_flow_outputs(
                workspace["evaluations"], workspace["features"], out, model
            )
        return made[model]

    return outputs


@pytest.mark.parametrize("model", ["rf", "lr"])
@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_row_order_of_the_inputs_changes_no_output(workspace, sorted_flow_outputs, model, data):
    header, *rows = workspace["features"].read_text(encoding="utf-8").splitlines(keepends=True)
    records = workspace["evaluations"].read_text(encoding="utf-8").splitlines(keepends=True)
    rows = data.draw(st.permutations(rows), label="feature rows")
    records = data.draw(st.permutations(records), label="evaluation lines")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        features, evaluations = root / "features.csv", root / "evaluations.jsonl"
        features.write_text(header + "".join(rows), encoding="utf-8")
        evaluations.write_text("".join(records), encoding="utf-8")
        (root / "out").mkdir()
        outputs = _model_flow_outputs(evaluations, features, root / "out", model)
    assert outputs == sorted_flow_outputs(model)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_order_of_the_stored_labels_changes_no_evaluation(workspace, data):
    # the rows of test_row_order_of_the_inputs_changes_no_output's case, for
    # evaluate --labels: lines of labels.jsonl, and the rows within each line
    lines = workspace["labels"].read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in data.draw(st.permutations(lines), label="lines")]
    for record in records:
        record["warnings"] = data.draw(st.permutations(record["warnings"]), label="rows")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        labels = root / "labels.jsonl"
        labels.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        argv = ["evaluate", "--corpus", str(workspace["corpus"]), "--labels", str(labels)]
        with contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv + ["--out-dir", str(root / "eval")]) == 0
        written = {p.name: p.read_bytes() for p in (root / "eval").iterdir()}
    stored = workspace["evaluations"].parent
    assert written == {
        name: (stored / name).read_bytes() for name in ("evaluations.jsonl", "optimal_sets.tsv")
    }


def test_labels_of_an_unlisted_analyzer_exit_2(workspace, tmp_path, capsys):
    lines = workspace["labels"].read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[2])
    for row in record["warnings"]:
        if row["sca"] == "hawkeye":
            row["sca"] = "x"
    lines[2] = json.dumps(record)
    labels = tmp_path / "labels.jsonl"
    labels.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["evaluate", "--corpus", str(workspace["corpus"]), "--labels", str(labels)]
    capsys.readouterr()
    assert cli.main(argv + ["--out-dir", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert f"{labels}:3: " in err
    assert "['x']" in err
    assert not (tmp_path / "eval").exists()


def _append_first_record(lines):
    lines.append(lines[0])


def _repeat_first_row(lines):
    record = json.loads(lines[1])
    record["warnings"].append(dict(record["warnings"][0]))
    lines[1] = json.dumps(record)


# label files that repeat a project, or a warning row within one project's
# record, and the line each is refused at
REPEATED_LABELS = {"project": (_append_first_record, 13), "row": (_repeat_first_row, 2)}


@pytest.mark.parametrize("case", sorted(REPEATED_LABELS))
def test_repeated_label_record_or_row_exits_2(workspace, tmp_path, capsys, case):
    repeat, line = REPEATED_LABELS[case]
    lines = workspace["labels"].read_text(encoding="utf-8").splitlines()
    repeat(lines)
    labels = tmp_path / "labels.jsonl"
    labels.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["evaluate", "--corpus", str(workspace["corpus"]), "--labels", str(labels)]
    capsys.readouterr()
    assert cli.main(argv + ["--out-dir", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert f"{labels}:{line}: " in err
    assert "repeats" in err
    assert not (tmp_path / "eval").exists()


# commands that read --evaluations, one that joins the features and one that does not
READS_EVALUATIONS = pytest.mark.parametrize(
    "argv",
    [
        ["baseline"],
        ["train", "--features", "{features}", "--model", "dt", "--out", "{tmp}/model.json"],
    ],
    ids=["baseline", "train"],
)


@READS_EVALUATIONS
def test_repeated_evaluation_record_exits_2(workspace, tmp_path, capsys, argv):
    lines = workspace["evaluations"].read_text(encoding="utf-8").splitlines()
    _append_first_record(lines)
    evaluations = tmp_path / "evaluations.jsonl"
    evaluations.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = [token.format(features=workspace["features"], tmp=tmp_path) for token in argv]
    capsys.readouterr()
    assert cli.main(argv + ["--evaluations", str(evaluations)]) == 2
    err = capsys.readouterr().err
    assert f"{evaluations}:13: project 'p000' repeats line 1" in err
    assert not (tmp_path / "model.json").exists()


@READS_EVALUATIONS
def test_optimal_set_disagreeing_with_counts_exits_2(workspace, tmp_path, capsys, argv):
    lines = workspace["evaluations"].read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    record["optimal"] = [s["sca"] for s in record["scores"] if s["sca"] not in record["optimal"]]
    lines[0] = json.dumps(record)
    evaluations = tmp_path / "evaluations.jsonl"
    evaluations.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = [token.format(features=workspace["features"], tmp=tmp_path) for token in argv]
    capsys.readouterr()
    assert cli.main(argv + ["--evaluations", str(evaluations)]) == 2
    assert f"{evaluations}:1: evaluation record: field 'optimal' is " in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


def _rename_project(record):
    record["project"] = "x"


def _reverse_scores(record):
    record["scores"].reverse()


# evaluation records that are each well formed but disagree with the others
# or with the feature table, and the message each gets
CROSS_RECORD = {
    "no-features": (_rename_project, "labeled projects without features: ['x']"),
    "analyzer-order": (_reverse_scores, "lists analyzers in a different order"),
}
DATASET_COMMANDS = {
    "mine": ["--model", "dt", "--folds", "3", "--out-dir", "{tmp}/mine"],
    "train": ["--model", "dt", "--out", "{tmp}/model.json"],
    "sweep": ["--model", "dt", "--folds", "3", "--out", "{tmp}/sweep.tsv"],
}


@pytest.mark.parametrize("command", sorted(DATASET_COMMANDS))
def test_repeated_score_exits_2(workspace, tmp_path, capsys, command):
    lines = workspace["evaluations"].read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    entries = record["scores"]
    entries[1]["sca"] = entries[0]["sca"]
    # an optimal set the repeated counts give, so only the repeat is wrong
    scores = [
        score_sca(e["sca"], ConfusionCounts(e["tp"], e["fp"], e["union_actionable"]), 1.0)
        for e in entries
    ]
    record["optimal"] = list(optimal_set(scores))
    lines[1] = json.dumps(record)
    evaluations = tmp_path / "evaluations.jsonl"
    evaluations.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = [command, "--evaluations", str(evaluations), "--features", str(workspace["features"])]
    argv += [token.format(tmp=tmp_path) for token in DATASET_COMMANDS[command]]
    capsys.readouterr()
    assert cli.main(argv) == 2
    message = f"score 1: analyzer {entries[0]['sca']!r} repeats score 0"
    assert f"{evaluations}:2: evaluation record: {message}" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["evaluations.jsonl"]


# feature cells whose column mean (a sum past the largest float) or
# standard deviation (squares past it) overflows, though each is finite
OVERFLOWING_CELLS = {"mean": ["1.7e308"] * 3, "std": ["1e200", "-1e200"]}


@pytest.mark.parametrize("command", sorted(DATASET_COMMANDS))
@pytest.mark.parametrize("case", sorted(OVERFLOWING_CELLS))
def test_overflowing_feature_column_names_the_file_and_feature(
    workspace, tmp_path, capsys, case, command
):
    lines = workspace["features"].read_text(encoding="utf-8").splitlines()
    column = lines[0].split(",").index("loc_total")
    for row, value in enumerate(OVERFLOWING_CELLS[case], start=1):
        cells = lines[row].split(",")
        cells[column] = value
        lines[row] = ",".join(cells)
    features = tmp_path / "features.csv"
    features.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = [command, "--evaluations", str(workspace["evaluations"]), "--features", str(features)]
    argv += [token.format(tmp=tmp_path) for token in DATASET_COMMANDS[command]]
    capsys.readouterr()
    assert cli.main(argv) == 2
    assert f"{features}: feature 'loc_total': " in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(DATASET_COMMANDS))
@pytest.mark.parametrize("case", sorted(CROSS_RECORD))
def test_cross_record_check_names_the_evaluations_file(workspace, tmp_path, capsys, case, command):
    corrupt, message = CROSS_RECORD[case]
    lines = workspace["evaluations"].read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    corrupt(record)
    lines[1] = json.dumps(record)
    evaluations = tmp_path / "evaluations.jsonl"
    evaluations.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = [command, "--evaluations", str(evaluations), "--features", str(workspace["features"])]
    argv += [token.format(tmp=tmp_path) for token in DATASET_COMMANDS[command]]
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"{evaluations}: " in err
    assert message in err


BAD_VALUES = {
    "null": None,
    "int": 5,
    "float": 1.5,
    "nan": math.nan,
    "string": "x",
    "list": [],
    "object": {},
    "1e999": literal("1e999"),
}

# Fields of a stored record, each with the kinds of BAD_VALUES it accepts;
# every other kind makes the record malformed.  A path element that is an
# int indexes a list.  Evaluation records also hold p, r and f_beta, which
# are recomputed from the counts and never read; ``optimal`` must equal the
# set the counts give, so no value replaces its first entry.
LABEL_FIELDS = {
    ("project",): {"string"},
    ("warnings",): {"list"},
    ("warnings", 0, "sca"): {"string"},
    ("warnings", 0, "index"): {"int"},
    ("warnings", 0, "category"): {"string"},
    ("warnings", 0, "class"): {"string"},
    ("warnings", 0, "start_line"): {"int"},
    ("warnings", 0, "end_line"): {"int"},
    ("warnings", 0, "label"): set(),
    ("warnings", 0, "stage"): {"null"},
    ("warnings", 0, "matched_line"): {"null", "int"},
    ("warnings", 0, "matched_index"): {"null", "int"},
}
EVALUATION_FIELDS = {
    ("project",): {"string"},
    ("beta",): {"int", "float"},
    ("scores",): set(),
    ("scores", 0, "sca"): {"string"},
    ("scores", 0, "tp"): {"int"},
    ("scores", 0, "fp"): {"int"},
    ("scores", 0, "union_actionable"): {"int"},
    ("optimal",): set(),
    ("optimal", 0): set(),
}


def malformed_cases(kind: str, fields: dict) -> list:
    return [
        pytest.param(kind, path, name, id=f"{kind}-{'.'.join(map(str, path))}-{name}")
        for path, accepted in fields.items()
        for name in BAD_VALUES
        if name not in accepted
    ]


@pytest.mark.parametrize(
    "kind, path, value",
    malformed_cases("labels", LABEL_FIELDS) + malformed_cases("evaluations", EVALUATION_FIELDS),
)
def test_malformed_stored_record_exits_2(workspace, tmp_path, capsys, kind, path, value):
    lines = workspace[kind].read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    target = record
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = BAD_VALUES[value]
    lines[1] = dumps(record)
    broken = tmp_path / workspace[kind].name
    broken.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if kind == "labels":
        argv = ["evaluate", "--corpus", str(workspace["corpus"]), "--labels", str(broken)]
        argv += ["--out-dir", str(tmp_path / "eval")]
    else:
        argv = ["train", "--evaluations", str(broken), "--features", str(workspace["features"])]
        argv += ["--model", "dt", "--out", str(tmp_path / "model.json")]
    capsys.readouterr()
    assert cli.main(argv) == 2
    assert f"{broken}:2: " in capsys.readouterr().err


@pytest.fixture(scope="module")
def one_project(tmp_path_factory):
    """A one-project corpus and the text of one of its reports."""
    corpus = tmp_path_factory.mktemp("report-fuzz") / "corpus"
    argv = ["synth", "--out", str(corpus), "--projects", "1", "--files", "1", "--seed", "3"]
    assert cli.main(argv) == 0
    report = sorted(corpus.glob("*/*/reports/*.json"))[0]
    return corpus, report, report.read_text(encoding="utf-8")


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_label_of_a_mutated_report_never_exits_3(one_project, data):
    corpus, report, text = one_project
    document = json.loads(text)
    warnings = document["warnings"]
    position = data.draw(st.integers(0, len(warnings) - 1), label="position")
    warnings[position] = data.draw(mutated_entries(warnings[position]), label="entry")
    report.write_text(json.dumps(document), encoding="utf-8")
    try:
        project, release = report.parts[-4], report.parts[-3]
        where = f"{report}: warning {position}"
        try:
            load_report(report, project, release)
            loads = True
        except SchemaError:
            loads = False
        except DataError as exc:  # NaN or Infinity: the text is not JSON
            assert re.search("Infinity|NaN", str(exc))
            loads, where = False, f"{report}: "
        with contextlib.redirect_stderr(io.StringIO()) as err:
            out = corpus.parent / "labels.jsonl"
            rc = cli.main(["label", "--corpus", str(corpus), "--out", str(out)])
    finally:
        report.write_text(text, encoding="utf-8")
    assert rc in ((0, 2) if loads else (2,))
    if rc == 2:
        assert where in err.getvalue()


# each stored record file: the list of rows in its records, its reader, and
# the command that reads it
STORED_ROWS = {
    "labels": (
        "warnings",
        lambda path: read_labels(path, sorted(SCAS)),
        ["evaluate", "--corpus", "{corpus}", "--labels", "{path}", "--out-dir", "{out}/eval"],
    ),
    "evaluations": (
        "scores",
        read_evaluations,
        ["train", "--evaluations", "{path}", "--features", "{features}", "--model", "dt"]
        + ["--out", "{out}/model.json"],
    ),
}


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(sorted(STORED_ROWS)), data=st.data())
def test_command_on_a_mutated_stored_row_never_exits_3(workspace, kind, data):
    key, read, argv = STORED_ROWS[kind]
    lines = workspace[kind].read_text(encoding="utf-8").splitlines()
    number = data.draw(st.integers(1, len(lines)), label="line")
    record = json.loads(lines[number - 1])
    rows = record[key]
    position = data.draw(st.integers(0, len(rows) - 1), label="position")
    row = rows[position]
    # a mutated row, or one field of the row given an odd value, which is
    # often a string or integer, so the command goes on past the type checks
    key = data.draw(st.sampled_from(sorted(row)), label="key")
    odd = st.one_of(ODD_VALUES, st.text(max_size=4), st.integers(-3, 3))
    one_field = st.builds(lambda value: {**row, key: value}, odd)
    rows[position] = data.draw(st.one_of(mutated_entries(row), one_field), label="row")
    lines[number - 1] = json.dumps(record)
    out = workspace["root"] / "mutated"
    out.mkdir(exist_ok=True)
    path = out / workspace[kind].name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        read(path)
        reads = True
    except DataError as exc:  # a SchemaError, or NaN or Infinity: the text is not JSON
        assert isinstance(exc, SchemaError) or re.search("Infinity|NaN", str(exc))
        reads = False
    fields = {"corpus": workspace["corpus"], "features": workspace["features"]}
    argv = [token.format(path=path, out=out, **fields) for token in argv]
    with contextlib.redirect_stderr(io.StringIO()) as err:
        rc = cli.main(argv)
    assert rc in ((0, 2) if reads else (2,))
    if not reads:
        assert f"{path}:{number}: " in err.getvalue()


def _set_entry(position, **values):
    return lambda document: document["warnings"][position].update(values)


# report edits whose fields keep their JSON types but hold values a warning
# cannot have, each with the entry and the fault it is refused with
REFUSED_ENTRIES = {
    "empty-analyzer": (lambda doc: doc.update(sca=""), "warning 0: ", "empty analyzer id"),
    "empty-type": (_set_entry(1, type=""), "warning 1: ", "empty type"),
    "empty-class": (_set_entry(1, **{"class": ""}), "warning 1: ", "empty class path"),
    "start-line-0": (_set_entry(1, start_line=0, end_line=4), "warning 1: ", "start line 0 < 1"),
    "inverted-span": (_set_entry(1, start_line=5, end_line=4), "warning 1: ", "5..4 is inverted"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_ENTRIES))
def test_report_entry_of_impossible_values_exits_2(one_project, case):
    corpus, report, text = one_project
    edit, entry, fault = REFUSED_ENTRIES[case]
    document = json.loads(text)
    edit(document)
    report.write_text(json.dumps(document), encoding="utf-8")
    try:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            out = corpus.parent / "labels.jsonl"
            rc = cli.main(["label", "--corpus", str(corpus), "--out", str(out)])
    finally:
        report.write_text(text, encoding="utf-8")
    assert rc == 2
    assert f"{report}: {entry}warning " in err.getvalue()
    assert fault in err.getvalue()


@pytest.mark.parametrize("start, end", [(9, 8), (0, 4)], ids=["inverted-span", "start-line-0"])
def test_label_row_of_an_impossible_span_exits_2(workspace, tmp_path, capsys, start, end):
    lines = workspace["labels"].read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    record["warnings"][2].update(start_line=start, end_line=end)
    lines[1] = json.dumps(record)
    labels = tmp_path / "labels.jsonl"
    labels.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["evaluate", "--corpus", str(workspace["corpus"]), "--labels", str(labels)]
    capsys.readouterr()
    assert cli.main(argv + ["--out-dir", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert f"{labels}:2: label record: warning 2: " in err
    assert f"line span {start}..{end} is invalid" in err
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("release", ["r1", "r2"], ids=["older-release", "newer-release"])
def test_unmapped_type_names_the_report_and_entry(one_project, release):
    corpus = one_project[0]
    report = sorted(corpus.glob(f"*/{release}/reports/*.json"))[0]
    text = report.read_text(encoding="utf-8")
    # the message quotes the analyzer and type as Python's repr does, a
    # type holding a quote in double quotes
    for original_type, quoted in (("NO_SUCH_TYPE", "'NO_SUCH_TYPE'"), ("O'Brien", '"O\'Brien"')):
        document = json.loads(text)
        document["warnings"][1]["type"] = original_type
        report.write_text(json.dumps(document), encoding="utf-8")
        try:
            with contextlib.redirect_stderr(io.StringIO()) as err:
                out = corpus.parent / "labels.jsonl"
                rc = cli.main(["label", "--corpus", str(corpus), "--out", str(out)])
        finally:
            report.write_text(text, encoding="utf-8")
        assert rc == 2
        message = f"{report}: warning 1: no category mapping for ('{document['sca']}', {quoted})"
        assert f"{message}\n" in err.getvalue()
