"""Every option of every subcommand does what it says through ``cli.main``.

``OPTION_CASES`` holds one case per (command, option) of
``cli.build_parser()``: a run that asserts the option's effect on the
command's output or exit code.  ``test_every_option_has_a_case`` walks the
parser, so an option added without a case, or a case left for a removed
option, fails it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import re
import shutil
from pathlib import Path

import pytest

from sca_reco import cli


def run(*argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([str(token) for token in argv])
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """A small corpus taken through synth -> label -> evaluate -> train once."""
    root = tmp_path_factory.mktemp("options")
    corpus = root / "corpus"
    assert run("synth", "--out", corpus, "--projects", 12, "--files", 2, "--seed", 5)[0] == 0
    assert run("label", "--corpus", corpus, "--out", root / "labels.jsonl")[0] == 0
    assert run("evaluate", "--corpus", corpus, "--out-dir", root / "eval")[0] == 0
    paths = {
        "corpus": corpus,
        "labels": root / "labels.jsonl",
        "evaluations": root / "eval" / "evaluations.jsonl",
        "features": corpus / "features.csv",
        "model": root / "model.json",
    }
    argv = ["train", "--evaluations", paths["evaluations"], "--features", paths["features"]]
    assert run(*argv, "--model", "dt", "--out", paths["model"])[0] == 0
    return paths


def _options(parser) -> set[tuple[str, str]]:
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        (name, action.option_strings[-1])
        for name, sub in commands.choices.items()
        for action in sub._actions
        if action.option_strings and "--help" not in action.option_strings
    }


# --- label and evaluate ----------------------------------------------------


def _label(ws, tmp, *extra):
    return run("label", "--corpus", ws["corpus"], "--out", tmp / "labels.jsonl", *extra)


def _evaluate(ws, tmp, *extra):
    return run("evaluate", "--corpus", ws["corpus"], "--out-dir", tmp / "eval", *extra)


def _tiny_taxonomy(tmp) -> Path:
    """A taxonomy of one category, which the corpus's mapping outgrows."""
    path = tmp / "tiny.tsv"
    path.write_text("gdc_id\tname\tgroup\nnull_dereference\tNull\tg\n", encoding="utf-8")
    return path


def _empty_mapping(tmp) -> Path:
    path = tmp / "empty_map.tsv"
    path.write_text("sca\toriginal_type\tgdc_id\n", encoding="utf-8")
    return path


def _missing_corpus(run_command):
    def case(ws, tmp):
        ws = {**ws, "corpus": tmp / "missing"}
        rc, _, err = run_command(ws, tmp)
        assert rc == 2
        assert f"corpus directory {tmp / 'missing'} does not exist" in err

    return case


def _taxonomy_bounds_the_mapping(run_command):
    def case(ws, tmp):
        rc, _, err = run_command(ws, tmp, "--taxonomy", _tiny_taxonomy(tmp))
        assert rc == 2
        assert f"{ws['corpus'] / 'gdc_map.tsv'}:" in err and ": unknown category " in err
        assert sorted(p.name for p in tmp.iterdir()) == ["tiny.tsv"]

    return case


def _mapping_is_read(run_command):
    def case(ws, tmp):
        rc, _, err = run_command(ws, tmp, "--gdc-map", _empty_mapping(tmp))
        assert rc == 2  # every project fails
        failed = re.findall(r"^project (p\d+): .*: no category mapping for ", err, re.M)
        assert sorted(set(failed)) == [f"p{i:03d}" for i in range(12)]

    return case


def _jobs_checked(run_command):
    def case(ws, tmp):
        rc, _, err = run_command(ws, tmp, "--jobs", 0)
        assert rc == 1 and "--jobs must be at least 1, got 0" in err
        assert list(tmp.iterdir()) == []

    return case


def _label_out(ws, tmp):
    assert _label(ws, tmp)[0] == 0
    assert (tmp / "labels.jsonl").read_bytes() == ws["labels"].read_bytes()


def _evaluate_labels(ws, tmp):
    # stored labels of 11 projects score 11 projects
    lines = ws["labels"].read_text(encoding="utf-8").splitlines(keepends=True)
    labels = tmp / "labels.jsonl"
    labels.write_text("".join(lines[1:]), encoding="utf-8")
    assert _evaluate(ws, tmp, "--labels", labels)[0] == 0
    expected = ws["evaluations"].read_text(encoding="utf-8").splitlines(keepends=True)[1:]
    assert (tmp / "eval" / "evaluations.jsonl").read_text(encoding="utf-8") == "".join(expected)


def _evaluate_refuses_with_labels(option, path):
    def case(ws, tmp):
        rc, _, err = _evaluate(ws, tmp, "--labels", ws["labels"], option, path(tmp))
        assert rc == 1 and "evaluate --labels reads only scas.txt" in err
        assert not (tmp / "eval").exists()

    return case


def _both(*cases):
    def case(ws, tmp):
        for each in cases:
            each(ws, tmp)
            shutil.rmtree(tmp)
            tmp.mkdir()

    return case


def _evaluate_beta(ws, tmp):
    assert _evaluate(ws, tmp, "--beta", "-1")[0] == 1
    assert _evaluate(ws, tmp, "--labels", ws["labels"], "--beta", "inf")[0] == 0
    records = (tmp / "eval" / "evaluations.jsonl").read_text(encoding="utf-8").splitlines()
    assert {json.loads(line)["beta"] for line in records} == {"inf"}


def _evaluate_out_dir(ws, tmp):
    assert _evaluate(ws, tmp, "--labels", ws["labels"])[0] == 0
    assert (tmp / "eval" / "evaluations.jsonl").read_bytes() == ws["evaluations"].read_bytes()
    assert (tmp / "eval" / "optimal_sets.tsv").is_file()


# --- model commands --------------------------------------------------------


def _dataset(ws, command, *extra):
    argv = [command, "--evaluations", ws["evaluations"], "--features", ws["features"]]
    return run(*argv, *extra)


def _mine(ws, tmp, *extra):
    return _dataset(ws, "mine", "--model", "dt", "--folds", 3, "--out-dir", tmp / "mine", *extra)


def _train(ws, tmp, *extra):
    return _dataset(ws, "train", "--out", tmp / "model.json", *extra)


def _sweep(ws, tmp, *extra):
    argv = ["--model", "dt", "--folds", 3, "--betas", "0,1", "--out", tmp / "sweep.tsv"]
    return _dataset(ws, "sweep", *argv, *extra)


def _baseline(ws, tmp, *extra):
    return run("baseline", "--evaluations", ws["evaluations"], "--repeats", 5, *extra)


def _recommend(ws, tmp, *extra):
    return run("recommend", "--model-file", ws["model"], "--features", ws["features"], *extra)


def _missing_input(run_command, key):
    def case(ws, tmp):
        missing = tmp / f"missing-{key}"
        rc, out, err = run_command({**ws, key: missing}, tmp)
        assert rc == 2 and str(missing) in err and out == ""

    return case


def _unknown_model(run_command):
    def case(ws, tmp):
        rc, _, err = run_command(ws, tmp, "--model", "nosuch")
        assert rc == 1 and "nosuch" in err
        assert list(tmp.iterdir()) == []

    return case


def _one_fold(run_command, option):
    def case(ws, tmp):
        rc, _, err = run_command(ws, tmp, option, 1)
        assert rc == 1 and "at least" in err
        assert list(tmp.iterdir()) == []

    return case


def _seed_changes_stdout(run_command):
    def case(ws, tmp):
        outputs = [run_command(ws, tmp, "--seed", seed)[:2] for seed in (0, 1)]
        assert [rc for rc, _ in outputs] == [0, 0]
        assert outputs[0][1] != outputs[1][1]

    return case


def _mine_out_dir(ws, tmp):
    assert _mine(ws, tmp)[0] == 0
    assert (tmp / "mine" / "selected_features.txt").read_text(encoding="utf-8").strip()


def _mine_footprints(ws, tmp):
    assert _mine(ws, tmp)[0] == 0
    assert not (tmp / "mine" / "footprints").exists()
    assert _mine(ws, tmp, "--footprints")[0] == 0
    assert any((tmp / "mine" / "footprints").iterdir())


def _train_seed(ws, tmp):
    models = []
    for seed in (0, 1):
        assert _train(ws, tmp, "--model", "rf", "--seed", seed)[0] == 0
        models.append((tmp / "model.json").read_bytes())
    assert models[0] != models[1]


def _train_feature_list(ws, tmp):
    names = tmp / "list.txt"
    names.write_text("n_files\nloc_total\n", encoding="utf-8")
    assert _train(ws, tmp, "--model", "dt", "--feature-list", names)[0] == 0
    model = json.loads((tmp / "model.json").read_text(encoding="utf-8"))
    assert model["feature_names"] == ["n_files", "loc_total"]


def _train_cv_folds(ws, tmp):
    assert _train(ws, tmp, "--model", "dt")[1] == ""
    rc, out, _ = _train(ws, tmp, "--model", "dt", "--cv-folds", 3)
    assert rc == 0 and out.startswith("cv\t") and out.count("\n") == 1


def _train_out(ws, tmp):
    assert _train(ws, tmp, "--model", "dt")[0] == 0
    assert (tmp / "model.json").read_bytes() == ws["model"].read_bytes()


def _recommend_project(ws, tmp):
    whole = _recommend(ws, tmp)[1].splitlines(keepends=True)
    rc, out, _ = _recommend(ws, tmp, "--project", "p003")
    assert rc == 0 and out == whole[3] and out.startswith("p003\t")


def _recommend_out(ws, tmp):
    whole = _recommend(ws, tmp)[1]
    rc, out, _ = _recommend(ws, tmp, "--out", tmp / "recommendations.tsv")
    assert rc == 0 and out == ""
    assert (tmp / "recommendations.tsv").read_text(encoding="utf-8") == whole


def _baseline_row(*extra, name):
    def case(ws, tmp):
        rc, out, _ = _baseline(ws, tmp, *extra)
        assert rc == 0 and out.splitlines()[1].startswith(f"{name}\t")

    return case


def _baseline_repeats(ws, tmp):
    _baseline_row("--repeats", 7, name="random:7")(ws, tmp)
    rc, out, err = _baseline(ws, tmp, "--repeats", 0)
    assert rc == 1 and out == "" and "--repeats must be at least 1" in err


def _sweep_betas(ws, tmp):
    rc, out, _ = _sweep(ws, tmp, "--betas", "inf,0.5")
    assert rc == 0
    assert [line.split("\t")[0] for line in out.splitlines()[1:]] == ["inf", "0.5"]


def _sweep_out(ws, tmp):
    rc, out, _ = _sweep(ws, tmp)
    assert rc == 0 and (tmp / "sweep.tsv").read_text(encoding="utf-8") == out


# --- synth -----------------------------------------------------------------


def _synth(tmp, *extra, name="corpus") -> Path:
    out = tmp / name
    rc, _, err = run("synth", "--out", out, "--projects", 1, "--files", 1, *extra)
    assert rc == 0, err
    return out


def _feature_rows(corpus) -> list[dict[str, str]]:
    with open(corpus / "features.csv", encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def _sites(corpus) -> list[dict]:
    truth = json.loads((corpus / "truth.json").read_text(encoding="utf-8"))
    return [site for project in truth["projects"] for site in project["sites"]]


def _synth_out(ws, tmp):
    assert (_synth(tmp) / "scas.txt").read_text(encoding="utf-8").split() == [
        "hawkeye", "lintmax", "bugnet"
    ]


def _synth_projects(ws, tmp):
    assert [row["project"] for row in _feature_rows(_synth(tmp, "--projects", 3))] == [
        "p000", "p001", "p002"
    ]


def _synth_seed(ws, tmp):
    corpora = [_synth(tmp, "--seed", seed, name=f"s{seed}") for seed in (0, 1)]
    assert _feature_rows(corpora[0]) != _feature_rows(corpora[1])


def _synth_files(ws, tmp):
    assert _feature_rows(_synth(tmp, "--files", 3))[0]["n_files"] == "3.0"


def _synth_fraction(option, field, value, only):
    """``option`` at ``value`` gives every site's ``field`` the value
    ``only``, where the default config gives two values; outside [0, 1] it
    exits 1."""

    def case(ws, tmp):
        assert len({site[field] for site in _sites(_synth(tmp, "--projects", 4))}) == 2
        sites = _sites(_synth(tmp, "--projects", 4, option, value, name="set"))
        assert {site[field] for site in sites} == {only}
        rc, _, err = run("synth", "--out", tmp / "bad", option, "1.5")
        assert rc == 1 and "must be in [0, 1]" in err

    return case


def _synth_noise_features(ws, tmp):
    names = list(_feature_rows(_synth(tmp, "--noise-features", 3))[0])
    assert [name for name in names if name.startswith("noise_")] == [f"noise_{j}" for j in range(3)]


def _synth_profile(ws, tmp):
    profiles = [f"--profile={name}:0.8:0.1" for name in ("x", "y", "z")]
    assert (_synth(tmp, *profiles) / "scas.txt").read_text(encoding="utf-8").split() == [
        "x", "y", "z"
    ]
    assert run("synth", "--out", tmp / "bad", "--profile", "broken")[0] == 1


def _synth_band(ws, tmp):
    rows = _feature_rows(_synth(tmp, "--projects", 3, *["--band=1:1"] * 3))
    assert {row["methods_per_class"] for row in rows} == {"1.0"}
    assert run("synth", "--out", tmp / "bad", "--band", "3")[0] == 1


OPTION_CASES = {
    ("label", "--corpus"): _missing_corpus(_label),
    ("label", "--out"): _label_out,
    ("label", "--taxonomy"): _taxonomy_bounds_the_mapping(_label),
    ("label", "--gdc-map"): _mapping_is_read(_label),
    ("label", "--jobs"): _jobs_checked(_label),
    ("evaluate", "--corpus"): _missing_corpus(
        lambda ws, tmp: _evaluate(ws, tmp, "--labels", ws["labels"])
    ),
    ("evaluate", "--taxonomy"): _both(
        _taxonomy_bounds_the_mapping(_evaluate),
        _evaluate_refuses_with_labels("--taxonomy", _tiny_taxonomy),
    ),
    ("evaluate", "--gdc-map"): _both(
        _mapping_is_read(_evaluate),
        _evaluate_refuses_with_labels("--gdc-map", lambda tmp: tmp / "missing.tsv"),
    ),
    ("evaluate", "--jobs"): _jobs_checked(_evaluate),
    ("evaluate", "--labels"): _evaluate_labels,
    ("evaluate", "--beta"): _evaluate_beta,
    ("evaluate", "--out-dir"): _evaluate_out_dir,
    ("mine", "--evaluations"): _missing_input(_mine, "evaluations"),
    ("mine", "--features"): _missing_input(_mine, "features"),
    ("mine", "--model"): _unknown_model(lambda ws, tmp, *extra: _dataset(
        ws, "mine", "--out-dir", tmp / "mine", *extra
    )),
    ("mine", "--folds"): _one_fold(_mine, "--folds"),
    ("mine", "--seed"): _seed_changes_stdout(_mine),
    ("mine", "--out-dir"): _mine_out_dir,
    ("mine", "--footprints"): _mine_footprints,
    ("train", "--evaluations"): _missing_input(_train, "evaluations"),
    ("train", "--features"): _missing_input(_train, "features"),
    ("train", "--model"): _unknown_model(_train),
    ("train", "--seed"): _train_seed,
    ("train", "--feature-list"): _train_feature_list,
    ("train", "--cv-folds"): _train_cv_folds,
    ("train", "--out"): _train_out,
    ("recommend", "--model-file"): _missing_input(_recommend, "model"),
    ("recommend", "--features"): _missing_input(_recommend, "features"),
    ("recommend", "--project"): _recommend_project,
    ("recommend", "--out"): _recommend_out,
    ("baseline", "--evaluations"): _missing_input(_baseline, "evaluations"),
    ("baseline", "--fixed"): _baseline_row("--fixed", "lintmax", name="fixed:lintmax"),
    ("baseline", "--repeats"): _baseline_repeats,
    ("baseline", "--seed"): _seed_changes_stdout(_baseline),
    ("sweep", "--evaluations"): _missing_input(_sweep, "evaluations"),
    ("sweep", "--features"): _missing_input(_sweep, "features"),
    ("sweep", "--betas"): _sweep_betas,
    ("sweep", "--model"): _unknown_model(lambda ws, tmp, *extra: _dataset(
        ws, "sweep", "--out", tmp / "sweep.tsv", *extra
    )),
    ("sweep", "--folds"): _one_fold(_sweep, "--folds"),
    ("sweep", "--seed"): _seed_changes_stdout(_sweep),
    ("sweep", "--out"): _sweep_out,
    ("synth", "--out"): _synth_out,
    ("synth", "--projects"): _synth_projects,
    ("synth", "--seed"): _synth_seed,
    ("synth", "--files"): _synth_files,
    ("synth", "--edit-intensity"): _synth_fraction("--edit-intensity", "fixed", 0, False),
    ("synth", "--decoy-fraction"): _synth_fraction("--decoy-fraction", "kind", 1, "decoy"),
    ("synth", "--noise-features"): _synth_noise_features,
    ("synth", "--profile"): _synth_profile,
    ("synth", "--band"): _synth_band,
}


def test_every_option_has_a_case():
    assert _options(cli.build_parser()) == set(OPTION_CASES)


@pytest.mark.parametrize("case", sorted(OPTION_CASES), ids=" ".join)
def test_option_has_its_effect(ws, tmp_path, case):
    OPTION_CASES[case](ws, tmp_path)


def test_evaluate_labels_needs_only_scas_txt(ws, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copyfile(ws["corpus"] / "scas.txt", corpus / "scas.txt")
    rc, _, err = _evaluate({**ws, "corpus": corpus}, tmp_path, "--labels", ws["labels"])
    assert rc == 0, err
    assert (tmp_path / "eval" / "evaluations.jsonl").read_bytes() == ws["evaluations"].read_bytes()


@pytest.mark.parametrize("option", ["--taxonomy", "--gdc-map"])
def test_evaluate_labels_with_a_taxonomy_or_mapping_exits_1_writing_nothing(ws, tmp_path, option):
    missing = tmp_path / "missing" / "file.tsv"
    rc, out, err = _evaluate(ws, tmp_path, "--labels", ws["labels"], option, missing)
    assert rc == 1 and out == ""
    assert "evaluate --labels reads only scas.txt: drop --taxonomy and --gdc-map" in err
    assert list(tmp_path.iterdir()) == []
