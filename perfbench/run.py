"""Benchmark of the README flow on a generated corpus.

    python3 perfbench/run.py --workload wide --seed 9 --seconds 36 --trace 0

Set-up imports the package and generates the workload's corpus from the
seed, several times in fresh interpreters; ``setup_s`` is their median.
Then the flow ``label -> evaluate -> mine --footprints -> train --cv-folds 10
-> recommend -> baseline -> sweep`` runs in this process at ``--jobs 1``
through ``sca_reco.cli.main``, again and again until ``--seconds`` is spent
(at least twice).  Timings are medians over those flows, each scaled to a
fixed CPU speed with a reference kernel timed around it (``reference_s``).

Every flow is checked: per-warning labels and match stages and per-analyzer
(tp, fp, union) counts against the generator's ``truth.json``, and every
artifact's SHA-256 against ``digests.json`` (default seed) or against the
first flow of the run (other seeds).  An operation is one command, or one
project of ``label``/``evaluate``; each failed one counts in ``failed``, and
a run with any failure exits 1.

With ``--trace 1`` the run makes one untraced and one traced flow and
reports per-layer self times and boundary counts instead (see tracing.py);
the spans go to ``.perfbench/spans-<workload>-<seed>.jsonl``.

The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"
SETUP_REPEATS = 3
MIN_FLOWS = 2
# Timings are scaled to the CPU speed at which reference_s() takes this long.
REFERENCE_S = 0.1

sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS, synth_kwargs  # noqa: E402

CORPUS_COMMANDS = ("label", "evaluate")
# Files each command must produce, relative to the flow's output directory.
ARTIFACTS = {
    "label": ("labels.jsonl",),
    "evaluate": ("eval/evaluations.jsonl", "eval/optimal_sets.tsv"),
    "mine": ("mine/selected_features.txt",),
    "train": ("model.json",),
    "recommend": ("recommendations.tsv",),
    "baseline": ("baseline.tsv",),
    "sweep": ("sweep.tsv",),
}


def flow_commands(corpus: Path, out: Path, model: str) -> list[tuple[str, list[str]]]:
    """The README flow as (command, argv) pairs."""
    evaluations = str(out / "eval" / "evaluations.jsonl")
    features = str(corpus / "features.csv")
    dataset = ["--evaluations", evaluations, "--features", features, "--model", model]
    return [
        ("label", ["label", "--corpus", str(corpus), "--out", str(out / "labels.jsonl"), "--jobs", "1"]),
        ("evaluate", ["evaluate", "--corpus", str(corpus), "--beta", "1", "--out-dir", str(out / "eval"), "--jobs", "1"]),
        ("mine", ["mine", *dataset, "--out-dir", str(out / "mine"), "--footprints"]),
        ("train", ["train", *dataset, "--cv-folds", "10", "--out", str(out / "model.json")]),
        ("recommend", ["recommend", "--model-file", str(out / "model.json"), "--features", features, "--out", str(out / "recommendations.tsv")]),
        ("baseline", ["baseline", "--evaluations", evaluations, "--repeats", "100"]),
        ("sweep", ["sweep", *dataset, "--betas", "0,0.5,1,2,inf", "--out", str(out / "sweep.tsv")]),
    ]


def reference_s() -> float:
    """Time one pass of a fixed kernel that uses no sca_reco code.

    The kernel mixes dict-heavy Python with small numpy calls, like the
    flow.  Its time tracks how fast the CPU runs at that moment.
    """
    import numpy as np

    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(400_000):
        counts[i % 977] = counts.get(i % 977, 0) + i * i % 7
    values = np.arange(40.0)
    for _ in range(8000):
        values = np.sort(np.cumsum(values[::-1]) % 97)
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """Wall seconds at the speed where the reference kernel takes
    REFERENCE_S, from the kernel's times right before and after."""
    return seconds * REFERENCE_S / ((before + after) / 2)


class Flow:
    """Timings, exit codes and captured output of one run of the flow.

    ``wall`` holds each command's wall seconds; ``seconds`` holds them
    scaled to the reference speed (see ``scaled``).
    """

    def __init__(self, out: Path):
        self.out = out
        self.wall: dict[str, float] = {}
        self.seconds: dict[str, float] = {}
        self.codes: dict[str, int] = {}
        self.stdout: dict[str, str] = {}
        self.stderr: dict[str, str] = {}

    @property
    def pipeline_s(self) -> float:
        return sum(self.seconds.values())

    @property
    def wall_s(self) -> float:
        return sum(self.wall.values())

    @property
    def corpus_s(self) -> float:
        return sum(self.seconds[c] for c in CORPUS_COMMANDS)

    @property
    def model_s(self) -> float:
        return self.pipeline_s - self.corpus_s


def run_flow(cli_main, corpus: Path, out: Path, model: str, tracer=None) -> Flow:
    out.mkdir(parents=True)
    flow = Flow(out)
    gc.collect()  # start every flow from a collected heap
    before = reference_s()
    for name, argv in flow_commands(corpus, out, model):
        stdout, stderr = io.StringIO(), io.StringIO()
        span = tracer.span(f"cli.{name}") if tracer else contextlib.nullcontext()
        began = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), span:
            flow.codes[name] = cli_main(argv)
        flow.wall[name] = time.perf_counter() - began
        after = reference_s()
        flow.seconds[name] = scaled(flow.wall[name], before, after)
        before = after
        flow.stdout[name], flow.stderr[name] = stdout.getvalue(), stderr.getvalue()
    (out / "baseline.tsv").write_text(flow.stdout["baseline"], encoding="utf-8")
    return flow


# ---------------------------------------------------------------- checks


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def _reported_failures(stderr: str) -> set[str]:
    """Projects the CLI reported as failed ("project <id>: <message>")."""
    return {
        line.split(":", 1)[0].split(" ", 1)[1]
        for line in stderr.splitlines()
        if line.startswith("project ") and ":" in line
    }


def check_labels(path: Path, truth: dict, failed_projects: set[str]) -> dict[str, str]:
    """Per-project label and match-stage mismatches against the truth."""
    problems: dict[str, str] = {}
    try:
        records = {r["project"]: r["warnings"] for r in _read_jsonl(path)}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return {p["project"]: f"labels unreadable: {exc}" for p in truth["projects"]}
    for project in truth["projects"]:
        pid = project["project"]
        if pid in failed_projects:
            problems[pid] = "reported failed by label"
            continue
        rows = records.get(pid)
        if rows is None:
            problems[pid] = "missing from labels.jsonl"
            continue
        # Analyzers report a site's start line with a jitter of 0 or 1.
        expected = {}
        for site in project["sites"]:
            for sca in site["detected_by"]:
                for jitter in (0, 1):
                    key = (sca, site["class_old"], site["category"], site["old_start"] + jitter)
                    expected[key] = site
        n_expected = sum(len(s["detected_by"]) for s in project["sites"])
        if len(rows) != n_expected:
            problems[pid] = f"{len(rows)} labeled warnings, truth has {n_expected}"
            continue
        for row in rows:
            site = expected.get((row["sca"], row["class"], row["category"], row["start_line"]))
            label = "actionable" if site and site["fixed"] else "unactionable"
            if site is None or row["label"] != label or row["stage"] != site["expected_stage"]:
                problems[pid] = f"warning {row['sca']}#{row['index']} disagrees with truth"
                break
    return problems


def check_counts(path: Path, truth: dict, failed_projects: set[str]) -> dict[str, str]:
    """Per-project (tp, fp, union) mismatches against the truth."""
    problems: dict[str, str] = {}
    try:
        records = {r["project"]: r["scores"] for r in _read_jsonl(path)}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return {p["project"]: f"evaluations unreadable: {exc}" for p in truth["projects"]}
    for project in truth["projects"]:
        pid = project["project"]
        if pid in failed_projects:
            problems[pid] = "reported failed by evaluate"
            continue
        got = {
            s["sca"]: {"tp": s["tp"], "fp": s["fp"], "union": s["union_actionable"]}
            for s in records.get(pid, ())
        }
        if got != project["counts"]:
            problems[pid] = f"confusion counts {got} disagree with truth {project['counts']}"
    return problems


def digest_artifacts(out: Path) -> dict[str, str]:
    digests = {}
    for files in ARTIFACTS.values():
        for name in files:
            path = out / name
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else "missing"
    return digests


def check_flow(flow: Flow, truth: dict, expected_digests: dict) -> tuple[int, list[str]]:
    """Operations attempted in one flow, and a message per failed one."""
    failures = []
    digests = digest_artifacts(flow.out)
    for command, files in ARTIFACTS.items():
        if flow.codes[command] != 0:
            failures.append(f"{command}: exit {flow.codes[command]}: {flow.stderr[command].strip()}")
            continue
        for name in files:
            if digests[name] == "missing":
                failures.append(f"{command}: {name} not written")
                break
            if digests[name] != expected_digests.get(name):
                failures.append(f"{command}: {name} differs from the reference digest")
                break
    label_problems = check_labels(
        flow.out / "labels.jsonl", truth, _reported_failures(flow.stderr["label"])
    )
    count_problems = check_counts(
        flow.out / "eval" / "evaluations.jsonl", truth, _reported_failures(flow.stderr["evaluate"])
    )
    failures += [f"label {pid}: {why}" for pid, why in sorted(label_problems.items())]
    failures += [f"evaluate {pid}: {why}" for pid, why in sorted(count_problems.items())]
    attempted = len(ARTIFACTS) + 2 * len(truth["projects"])
    return attempted, failures


# ---------------------------------------------------------------- set-up


def setup_once(workload: str, seed: int, out: Path) -> float:
    """Import the package and generate the corpus in a fresh interpreter;
    returns the probe's seconds scaled to the reference speed."""
    settings = json.dumps(synth_kwargs(workload, seed))
    before = reference_s()
    probe = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), settings, str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if probe.returncode != 0:
        raise SystemExit(f"set-up failed for {workload}: {probe.stderr.strip()}")
    return scaled(float(probe.stdout.strip().splitlines()[-1]), before, reference_s())


def import_cli():
    if not (SRC / "sca_reco" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    from sca_reco import cli

    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: imported sca_reco from {cli.__file__}, not {SRC}")
    return cli.main


# ---------------------------------------------------------------- runs


def old_warnings(truth: dict) -> int:
    return sum(len(s["detected_by"]) for p in truth["projects"] for s in p["sites"])


def measure(args, cli_main, run_dir: Path, corpus: Path, truth: dict, expected) -> tuple:
    """Untraced flows for ``--seconds``.

    Returns (metrics, attempted, failures, reference digests); without
    ``expected`` digests the first flow's become the reference.
    """
    model = WORKLOADS[args.workload]["model"]
    flows, attempted, failures = [], 0, []
    began = time.perf_counter()
    while True:
        flow = run_flow(cli_main, corpus, run_dir / f"flow{len(flows)}", model)
        if expected is None:
            expected = digest_artifacts(flow.out)
        n, problems = check_flow(flow, truth, expected)
        attempted += n
        failures += problems
        shutil.rmtree(flow.out)
        flows.append(flow)
        elapsed = time.perf_counter() - began
        if len(flows) >= MIN_FLOWS and elapsed * (len(flows) + 1) / len(flows) > args.seconds:
            break
    warnings = old_warnings(truth)
    metrics = {
        "pipeline_s": (statistics.median(f.pipeline_s for f in flows), "s"),
        "corpus_s": (statistics.median(f.corpus_s for f in flows), "s"),
        "model_s": (statistics.median(f.model_s for f in flows), "s"),
        "label_warnings_per_s": (
            statistics.median(warnings / f.seconds["label"] for f in flows), "warnings/s"
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"{len(flows)} flows, pipeline_s each: {', '.join(f'{f.pipeline_s:.3f}' for f in flows)}")
    print(f"  wall seconds each: {', '.join(f'{f.wall_s:.3f}' for f in flows)}")
    return metrics, attempted, failures, expected


def measure_traced(args, cli_main, run_dir: Path, corpus: Path, truth: dict, expected) -> tuple:
    """One untraced and one traced flow; returns what ``measure`` returns."""
    from tracing import Tracer

    model = WORKLOADS[args.workload]["model"]
    plain = run_flow(cli_main, corpus, run_dir / "plain", model)
    if expected is None:
        expected = digest_artifacts(plain.out)
    attempted, failures = check_flow(plain, truth, expected)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_flow(cli_main, corpus, run_dir / "traced", model, tracer)
    finally:
        tracer.uninstall()
    n, problems = check_flow(traced, truth, expected)
    attempted += n
    failures += problems
    spans = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write_spans(spans)
    print(f"{len(tracer.spans)} spans -> {spans}")
    metrics = tracer.layer_metrics(traced.wall_s, plain.wall_s)
    return metrics, attempted, failures, expected


def record_digests(workload: str, digests: dict) -> None:
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    recorded[workload] = digests
    DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests",
        action="store_true",
        help=f"store this run's artifact digests as the reference (seed {DEFAULT_SEED} only)",
    )
    args = parser.parse_args(argv)
    if args.record_digests and args.seed != DEFAULT_SEED:
        parser.error(f"digests are recorded for seed {DEFAULT_SEED} only")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    cli_main = import_cli()
    # One CPU for the run and its set-up probes, so that the reference kernel
    # measures the CPU the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run_dir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        corpus = run_dir / "corpus"
        repeats = 1 if args.trace else SETUP_REPEATS
        setups = [setup_once(args.workload, args.seed, corpus)]
        for i in range(1, repeats):
            setups.append(setup_once(args.workload, args.seed, run_dir / "again"))
            shutil.rmtree(run_dir / "again")
        truth = json.loads((corpus / "truth.json").read_text(encoding="utf-8"))

        expected = None
        if args.seed == DEFAULT_SEED and not args.record_digests:
            recorded = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
            if args.workload not in recorded:
                raise SystemExit(f"perfbench: no recorded digests for {args.workload}")
            expected = recorded[args.workload]

        measure_run = measure_traced if args.trace else measure
        metrics, attempted, failures, reference = measure_run(
            args, cli_main, run_dir, corpus, truth, expected
        )
        if not args.trace:
            metrics["setup_s"] = (statistics.median(setups), "s")
            metrics["ok_share"] = ((attempted - len(failures)) / attempted, "ratio")
        if args.record_digests and not failures:
            record_digests(args.workload, reference)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for message in failures:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {attempted} operations, {len(failures)} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
