"""Checks that the benchmark's correctness gate and its guard against a
missing package work.  Takes about a minute.

    python3 perfbench/selftest.py

1. A flow whose labels.jsonl has one label flipped must be reported as
   failed, and the run must exit non-zero.
2. A flow whose sweep.tsv differs from the run's first flow must be
   reported as failed.
3. In a directory that holds only BENCHMARK.json and perfbench/, the
   benchmark must exit non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

# Small enough for a quick flow, large enough for 10-fold cross-validation.
run.WORKLOADS["selftest"] = {"synth": {"n_projects": 10, "files_per_project": 2}, "model": "dt"}


def flip_first_label(out: Path) -> None:
    path = out / "labels.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    row = record["warnings"][0]
    row["label"] = "unactionable" if row["label"] == "actionable" else "actionable"
    lines[0] = json.dumps(record, sort_keys=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def corrupting_cli(cli_main, command: str, corrupt, flows: set[int]):
    """cli.main that damages one command's output in the chosen flows."""
    seen = {"flow": -1}

    def main(argv):
        code = cli_main(argv)
        if argv[0] == "label":
            seen["flow"] += 1
        if argv[0] == command and seen["flow"] in flows:
            corrupt(Path(argv[argv.index("--out") + 1]))
        return code

    return main


def run_corrupted(command: str, corrupt, flows: set[int]) -> tuple[int, dict]:
    cli_main = run.import_cli()
    original = run.import_cli
    run.import_cli = lambda: corrupting_cli(cli_main, command, corrupt, flows)
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "selftest", "--seed", "1", "--seconds", "1"])
    finally:
        run.import_cli = original
    return code, json.loads(stdout.getvalue().splitlines()[-1])


def check(name: str, ok: bool) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {name}")
    return ok


def main() -> int:
    results = []
    code, result = run_corrupted("label", lambda out: flip_first_label(out.parent), {0, 1})
    results.append(
        check("flipped label fails the run", code != 0 and not result["correct"] and result["failed"] == 2)
    )
    code, result = run_corrupted(
        "sweep", lambda out: out.write_text(out.read_text() + "\n", encoding="utf-8"), {1}
    )
    results.append(
        check("sweep.tsv digest change fails the run", code != 0 and result["failed"] == 1)
    )

    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
    probe = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    results.append(
        check("no package: non-zero exit, no result", probe.returncode != 0 and not probe.stdout.strip())
    )
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
