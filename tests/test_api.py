"""Every exported name resolves, so a removed function leaves no dangling
export; importing the package or its corpus generator loads no numpy, and a
flow that fits no tree loads no numpy.random; and the README's library
snippet runs."""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

import sca_reco
from helpers import run_probe


@pytest.mark.parametrize("module_name", ["sca_reco", "sca_reco.estimators"])
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(module.__all__) == len(set(module.__all__))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        sca_reco.no_such_name  # noqa: B018


@pytest.mark.parametrize("module_name", ["sca_reco", "sca_reco.synth"])
def test_import_loads_no_numpy(module_name):
    result = run_probe(f"import sys, {module_name}; assert 'numpy' not in sys.modules")
    assert result.returncode == 0, result.stderr


LR_FLOW_PROBE = """
import sys
from pathlib import Path
from sca_reco import cli
from sca_reco.synth import SynthConfig, generate_corpus

root = Path(sys.argv[1])
corpus, out = root / "corpus", root / "out"
out.mkdir()
generate_corpus(SynthConfig(n_projects=10, files_per_project=4), corpus)
labels, features = str(out / "labels.jsonl"), str(corpus / "features.csv")
evaluations = str(out / "eval" / "evaluations.jsonl")
dataset = ["--evaluations", evaluations, "--features", features, "--model", "lr"]
for argv in [
    ["label", "--corpus", str(corpus), "--out", labels],
    ["evaluate", "--corpus", str(corpus), "--labels", labels, "--out-dir", str(out / "eval")],
    ["mine", *dataset, "--out-dir", str(out / "mine"), "--footprints"],
    ["train", *dataset, "--cv-folds", "10", "--out", str(out / "model.json")],
    ["recommend", "--model-file", str(out / "model.json"), "--features", features],
    ["sweep", *dataset, "--betas", "0,1,inf", "--out", str(out / "sweep.tsv")],
]:
    assert cli.main(argv) == 0, argv
assert "numpy.random" not in sys.modules, "the lr flow imported numpy.random"
"""


def test_lr_flow_loads_no_numpy_random(tmp_path):
    # numpy.random costs about 6 MB of memory, and only tree fits draw from it
    result = run_probe(LR_FLOW_PROBE, str(tmp_path), timeout=300)
    assert result.returncode == 0, result.stderr


def test_readme_library_snippet_runs(tmp_path, monkeypatch, capsys):
    from sca_reco.synth import SynthConfig, generate_corpus

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    snippet = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    generate_corpus(SynthConfig(n_projects=10, files_per_project=4), tmp_path / "demo")
    monkeypatch.chdir(tmp_path)
    exec(compile(snippet, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_warning_records_are_tuples():
    # a label pass builds several of these per warning; a tuple is several
    # times cheaper to build than a frozen dataclass
    from sca_reco.matching import AuditRecord

    assert {"AlignedWarning", "RawWarning"} <= set(sca_reco.__all__)
    for record in (sca_reco.RawWarning, sca_reco.AlignedWarning, AuditRecord):
        assert issubclass(record, tuple), record.__name__
