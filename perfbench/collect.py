"""Run the benchmark over several seeds and save every run's output.

    python3 perfbench/collect.py OUT_DIR [--checkout DIR ...] \
        [--workloads wide,many,churn] [--seeds 1-10] [--trace-runs 2]

Each run's standard output goes to ``OUT_DIR/<set>/<workload>.<seed>.json``
and its standard error next to it as ``.err``; ``<set>`` is the checkout's
directory name.  ``--trace-runs K`` adds K traced runs per workload and
seed, saved as ``<workload>.<seed>.trace<k>.json``.

With two checkouts (a parent commit and a change) the runs are made in
pairs, and the side that runs first alternates from seed to seed.  Every
run uses the ``run_seconds`` of the first checkout's BENCHMARK.json, so
both sides measure for the same time.  Compare the sets with compare.py.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(checkout: Path, out: Path, workload: str, seed: int, seconds: int, trace: int) -> int:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    with open(f"{out}.json", "w") as stdout, open(f"{out}.err", "w") as stderr:
        return subprocess.run(command, cwd=checkout, stdout=stdout, stderr=stderr).returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--checkout", type=Path, action="append", help="default: this checkout")
    parser.add_argument("--workloads", default="wide,many,churn")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7")
    parser.add_argument("--trace-runs", type=int, default=0)
    args = parser.parse_args(argv)

    checkouts = [c.resolve() for c in args.checkout or [HERE.parent]]
    names = [c.name for c in checkouts]
    if len(set(names)) != len(names):
        parser.error("checkouts must have distinct directory names")
    spec = json.loads((checkouts[0] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    failed = 0
    for index, seed in enumerate(parse_seeds(args.seeds)):
        order = checkouts if index % 2 == 0 else checkouts[::-1]
        for workload in args.workloads.split(","):
            for checkout in order:
                out = args.out_dir / checkout.name
                out.mkdir(parents=True, exist_ok=True)
                runs = [(0, f"{workload}.{seed}")]
                runs += [(1, f"{workload}.{seed}.trace{k}") for k in range(args.trace_runs)]
                for trace, stem in runs:
                    code = run_once(checkout, out / stem, workload, seed, seconds, trace)
                    print(f"{checkout.name} {stem}: exit {code}", flush=True)
                    failed += code != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
