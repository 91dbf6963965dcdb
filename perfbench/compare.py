"""Summarize benchmark result sets written by collect.py.

    python3 perfbench/compare.py SET            # steadiness of one set
    python3 perfbench/compare.py PARENT CHANGE  # verdict of a change

With one set, every end-to-end metric of every workload gets its median,
quartiles and spread (interquartile distance over the median) checked
against the metric's bound in BENCHMARK.json: a spread above a third of the
bound is flagged, one above the bound fails (``setup_s`` is shown but not
held to its bound).  Traced runs of one workload and seed must agree on
every count, and the layer shares the workloads were chosen for are shown.

With two sets, runs pair up by workload and seed.  Per workload and metric
the verdict is:

* improved: the change wins at least 9 of 10 pairs (ties count for
  neither side) and its median is better than the parent's by more than
  the parent's interquartile distance;
* unresolved: the parent's own spread is wider than the bound, unless every
  run of the change is better than every run of the parent;
* worse: the change's median is worse than the parent's by more than the
  bound, as a share of the parent's median;
* within bound: anything else.

Exit status 1 means a spread above its bound, differing traced counts, a
failed run (one set), or a worse verdict (two sets).
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"^(?P<workload>[A-Za-z0-9_-]+)\.(?P<seed>-?\d+)(?:\.trace(?P<k>\d+))?\.json$")


def load_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _last_json(path: Path):
    lines = [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def load_set(directory: Path) -> tuple[dict, dict]:
    """({(workload, seed): result}, {(workload, seed): [traced results]});
    a run that printed no result is kept as None."""
    plain: dict = {}
    traced: dict = {}
    for path in sorted(directory.glob("*.json")):
        match = NAME.match(path.name)
        if not match:
            continue
        key = (match["workload"], int(match["seed"]))
        if match["k"] is None:
            plain[key] = _last_json(path)
        else:
            traced.setdefault(key, []).append(_last_json(path))
    return plain, traced


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _values(results: dict, workload: str, metric: str) -> dict[int, float]:
    return {
        seed: result["metrics"][metric]["value"]
        for (name, seed), result in results.items()
        if name == workload and result is not None
    }


def _failed_runs(results: dict) -> list[str]:
    return [
        f"{workload}.{seed}"
        for (workload, seed), result in sorted(results.items())
        if result is None or not result["correct"] or result["failed"]
    ]


def steadiness(directory: Path) -> int:
    spec = load_spec()
    plain, traced = load_set(directory)
    bad = 0
    print(f"{'workload':8} {'metric':22} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  status")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            values = list(_values(plain, workload, metric["name"]).values())
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / median
            bound = metric["bound"]
            if spread <= bound / 3:
                status = "steady"
            elif spread <= bound:
                status = "within bound, above a third of it"
            elif metric["name"] == "setup_s":
                status = "above bound (setup_s is not held to it)"
            else:
                status = "TOO WIDE"
                bad += 1
            print(
                f"{workload:8} {metric['name']:22} {len(values):3d} {median:12.6g} {q1:12.6g} "
                f"{q3:12.6g} {spread:8.4f} {bound:6.3f}  {status}"
            )
    failed = _failed_runs(plain) + [
        f"{w}.{s}.trace" for (w, s), runs in traced.items() for r in runs if r is None or r["failed"]
    ]
    for name in failed:
        print(f"FAILED run {name}")
    bad += len(failed)

    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for (workload, seed), runs in sorted(traced.items()):
        runs = [r for r in runs if r is not None]
        if not runs:
            continue
        counts = [
            {k: v["value"] for k, v in r["metrics"].items() if units.get(k) == "count"} for r in runs
        ]
        same = all(c == counts[0] for c in counts)
        bad += not same
        m = {k: v["value"] for k, v in runs[0]["metrics"].items()}
        pipeline = m["trace.pipeline_s"]
        print(
            f"trace {workload}.{seed}: {len(runs)} runs, counts "
            f"{'identical' if same else 'DIFFER'}; of traced pipeline_s {pipeline:.3f} s: "
            f"matching+alignment {(m['matching.self_s'] + m['alignment.self_s']) / pipeline:.1%}, "
            f"estimators+recommend+selection "
            f"{(m['estimators.self_s'] + m['recommend.self_s'] + m['selection.self_s']) / pipeline:.1%}, "
            f"all layers+cli {m['trace.accounted_share']:.1%}; hits hash/location "
            f"{m['matching.hits.hash']}/{m['matching.hits.location']}"
        )
    return 1 if bad else 0


def _better(metric: dict, a: float, b: float) -> bool:
    return a < b if metric["better"] == "lower" else a > b


def verdict(metric: dict, parent: dict[int, float], change: dict[int, float]) -> tuple[str, str]:
    """(verdict, wins/pairs) for one workload and metric."""
    seeds = sorted(set(parent) & set(change))
    wins = sum(_better(metric, change[s], parent[s]) for s in seeds)
    p_q1, p_median, p_q3 = quartiles(list(parent.values()))
    _, c_median, _ = quartiles(list(change.values()))
    everywhere_better = all(
        _better(metric, c, p) for c in change.values() for p in parent.values()
    )
    worse_by = (c_median - p_median) / p_median
    if metric["better"] == "higher":
        worse_by = -worse_by
    if (
        seeds
        and wins >= 0.9 * len(seeds)
        and _better(metric, c_median, p_median)
        and abs(c_median - p_median) > p_q3 - p_q1
    ):
        result = "improved"
    elif (p_q3 - p_q1) / p_median > metric["bound"] and not everywhere_better:
        result = "unresolved"
    elif worse_by > metric["bound"]:
        result = "worse"
    else:
        result = "within bound"
    return result, f"{wins}/{len(seeds)}"


def compare(parent_dir: Path, change_dir: Path) -> int:
    spec = load_spec()
    parent, _ = load_set(parent_dir)
    change, _ = load_set(change_dir)
    worse = 0
    print(f"{'workload':8} {'metric':22} {'parent median [q1, q3]':>36} {'change median [q1, q3]':>36} {'wins':>6}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            p = _values(parent, workload, metric["name"])
            c = _values(change, workload, metric["name"])
            if not p or not c:
                continue
            result, wins = verdict(metric, p, c)
            worse += result == "worse"
            cells = []
            for values in (p, c):
                q1, median, q3 = quartiles(list(values.values()))
                cells.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}]")
            print(f"{workload:8} {metric['name']:22} {cells[0]:>36} {cells[1]:>36} {wins:>6}  {result}")
    failed = {name: len(_failed_runs(runs)) for name, runs in (("parent", parent), ("change", change))}
    print(f"failed runs: parent {failed['parent']}, change {failed['change']}")
    if failed["change"] > failed["parent"]:
        print("more runs fail on the change than on the parent: no gain counts")
        worse += 1
    return 1 if worse else 0


def main(argv: list[str]) -> int:
    if len(argv) == 1:
        return steadiness(Path(argv[0]))
    if len(argv) == 2:
        return compare(Path(argv[0]), Path(argv[1]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
