"""Layer spans for the traced benchmark run, recorded from outside the package.

``Tracer.install`` replaces the public functions at each layer boundary of
``sca_reco`` with wrappers that record a span (name, start, end, parent).
A function is patched under every name it is bound to in a loaded
``sca_reco`` module, because ``from .x import f`` copies the binding into
the importing module; methods are patched on their class.  Nothing under
``src/`` changes, and ``uninstall`` restores every binding.

Spans stay in memory and go to a side file when the run ends.  A span's self
time is its duration minus the durations of its child spans.  Counts come
from what the wrapped functions return, so two runs of the same code give
the same counts; the time spent taking them is charged to no span.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path


def _argument(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_snapshot(counts, snapshot, args, kwargs):
    counts["ingestion.files"] += len(snapshot.release_old.files) + len(
        snapshot.release_new.files
    )
    for reports in (snapshot.reports_old, snapshot.reports_new):
        counts["ingestion.warnings"] += sum(len(r) for r in reports.values())


def _count_lines(counts, pairs, args, kwargs):
    a, b = _argument(args, kwargs, 0, "a"), _argument(args, kwargs, 1, "b")
    counts["linediff.lines"] += len(a) + len(b)


def _count_audit(counts, result, args, kwargs):
    _, audit = result
    counts["matching.old_warnings"] += len(audit)
    for record in audit:
        if record.stage is None:
            counts["matching.unmatched"] += 1
        else:
            counts[f"matching.hits.{record.stage.value}"] += 1
        if record.outcome.value == "unknown":
            counts["matching.unknown"] += 1


def _count_alignment(counts, result, args, kwargs):
    labeled = _argument(args, kwargs, 0, "labeled")
    counts["alignment.warnings_in"] += sum(len(w) for w in labeled.values())
    for group in result.groups:
        counts[f"alignment.groups.{len(group.members)}"] += 1
    counts["alignment.discarded"] += len(result.discarded)


def _count_jsonl_bytes(counts, result, args, kwargs):
    counts["pipeline.jsonl_bytes"] += os.path.getsize(_argument(args, kwargs, 0, "path"))


def _count_tree_nodes(counts, tree, args, kwargs):
    stack = [tree.tree_]
    while stack:
        node = stack.pop()
        counts["estimators.tree.nodes"] += 1
        if "feature" in node:
            stack.append(node["left"])
            stack.append(node["right"])


def _count_rounds(counts, result, args, kwargs):
    counts["selection.rfe.rounds"] += len(result.eliminated)


# (span name, owner, attribute, count hook).  The owner is a module, or
# "module:Class" for a method.  Several functions may share a span name.
TARGETS = (
    ("ingestion.load_snapshot", "sca_reco.ingestion", "load_snapshot", _count_snapshot),
    ("linediff.lcs_pairs", "sca_reco.linediff", "lcs_pairs", _count_lines),
    ("matching.compute_line_mapping", "sca_reco.matching", "compute_line_mapping", None),
    ("matching.label_release_detailed", "sca_reco.matching", "label_release_detailed", _count_audit),
    ("alignment.align_project", "sca_reco.alignment", "align_project", _count_alignment),
    ("effectiveness.evaluate_project", "sca_reco.effectiveness", "evaluate_project", None),
    ("effectiveness.reevaluate", "sca_reco.effectiveness", "reevaluate", None),
    ("pipeline.jsonl_io", "sca_reco.pipeline", "write_labels", _count_jsonl_bytes),
    ("pipeline.jsonl_io", "sca_reco.pipeline", "read_labels", _count_jsonl_bytes),
    ("pipeline.jsonl_io", "sca_reco.pipeline", "write_evaluations", _count_jsonl_bytes),
    ("pipeline.jsonl_io", "sca_reco.pipeline", "read_evaluations", _count_jsonl_bytes),
    ("features.load_features", "sca_reco.features", "load_features", None),
    ("features.build_dataset", "sca_reco.features", "build_dataset", None),
    ("estimators.tree.fit", "sca_reco.estimators.tree:DecisionTreeClassifier", "fit", _count_tree_nodes),
    ("estimators.tree.predict", "sca_reco.estimators.tree:DecisionTreeClassifier", "predict", None),
    ("estimators.forest.fit", "sca_reco.estimators.forest:RandomForestClassifier", "fit", None),
    ("estimators.forest.predict", "sca_reco.estimators.forest:RandomForestClassifier", "predict", None),
    ("estimators.linear.fit", "sca_reco.estimators.linear:LogisticRegression", "fit", None),
    ("estimators.linear.predict", "sca_reco.estimators.linear:LogisticRegression", "predict", None),
    ("estimators.preprocessing", "sca_reco.estimators.preprocessing:StandardScaler", "fit", None),
    ("estimators.preprocessing", "sca_reco.estimators.preprocessing:StandardScaler", "transform", None),
    ("recommend.train", "sca_reco.recommend", "train", None),
    ("recommend.cross_validate", "sca_reco.recommend", "cross_validate", None),
    ("recommend.beta_sweep", "sca_reco.recommend", "beta_sweep", None),
    ("recommend.baseline_random", "sca_reco.recommend", "baseline_random", None),
    ("recommend.model_io", "sca_reco.recommend:RecommendationModel", "save", None),
    ("recommend.model_io", "sca_reco.recommend:RecommendationModel", "load", None),
    ("selection.rfe", "sca_reco.selection", "rfe", _count_rounds),
    ("selection.rfe_cv", "sca_reco.selection", "rfe_cv", None),
    ("footprints.export_footprints", "sca_reco.footprints", "export_footprints", None),
)

LAYERS = (
    "ingestion", "linediff", "matching", "alignment", "effectiveness", "pipeline",
    "features", "estimators", "recommend", "selection", "footprints", "cli",
)

# Per-estimator self times would read exactly zero on the workloads whose
# model never uses that estimator, so fit and predict are summed over the
# estimator kinds; the call counts show which kind ran.
_ESTIMATOR_GROUPS = {
    "estimators.fit": ("estimators.tree.fit", "estimators.forest.fit", "estimators.linear.fit"),
    "estimators.predict": (
        "estimators.tree.predict", "estimators.forest.predict", "estimators.linear.predict",
    ),
}

_CALLS = (
    "ingestion.load_snapshot", "linediff.lcs_pairs", "matching.label_release_detailed",
    "alignment.align_project", "estimators.tree.fit", "estimators.forest.fit",
    "estimators.linear.fit", "recommend.train", "recommend.cross_validate",
)

_SELF_TIMES = (
    "ingestion.load_snapshot", "linediff.lcs_pairs", "matching.label_release_detailed",
    "alignment.align_project", "effectiveness.evaluate_project", "effectiveness.reevaluate",
    "pipeline.jsonl_io", "features.load_features", "features.build_dataset",
    "estimators.fit", "estimators.predict", "estimators.preprocessing",
    "recommend.train", "recommend.cross_validate", "recommend.beta_sweep",
    "recommend.baseline_random", "recommend.model_io", "selection.rfe_cv",
    "footprints.export_footprints",
)

_COUNTS = (
    "ingestion.files", "ingestion.warnings", "linediff.lines", "matching.old_warnings",
    "matching.hits.location", "matching.hits.snippet", "matching.hits.hash",
    "matching.unmatched", "matching.unknown", "alignment.warnings_in",
    "alignment.groups.1", "alignment.groups.2", "alignment.groups.3",
    "alignment.discarded", "pipeline.jsonl_bytes", "estimators.tree.nodes",
    "selection.rfe.rounds",
)

# Every per-layer metric the traced run reports, in output order.
PER_LAYER = (
    tuple((f"{name}.calls", "count") for name in _CALLS)
    + tuple((name, "count") for name in _COUNTS)
    + tuple((f"{name}.self_s", "s") for name in _SELF_TIMES)
    + tuple((f"{layer}.self_s", "s") for layer in LAYERS)
    + (
        ("matching.match_ratio", "ratio"),
        ("matching.us_per_warning", "us"),
        ("trace.pipeline_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.accounted_share", "ratio"),
        ("trace.spans", "count"),
    )
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Records nested spans and the counts taken at layer boundaries."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span id, parent id, name, start, child seconds]
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([self._next_id, parent, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def _exit(self) -> None:
        end = time.perf_counter()
        span_id, parent, name, start, children = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - children
        self.calls[name] += 1
        self.spans.append((span_id, parent, name, start, end))
        if self._stack:
            self._stack[-1][4] += duration

    def _take_counts(self, hook, result, args, kwargs) -> None:
        start = time.perf_counter()
        hook(self.counts, result, args, kwargs)
        if self._stack:  # keep the counting out of the enclosing span's self time
            self._stack[-1][4] += time.perf_counter() - start

    @contextmanager
    def span(self, name: str):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if hook is not None:
                tracer._take_counts(hook, result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; call ``uninstall`` to restore the originals."""
        for name, owner_name, attr, hook in TARGETS:
            owner = _resolve(owner_name)
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                self._set(owner, attr, classmethod(self.wrap(name, original.__func__, hook)))
                continue
            wrapped = self.wrap(name, original, hook)
            self._set(owner, attr, wrapped)
            if ":" in owner_name:
                continue
            for module_name, module in list(sys.modules.items()):
                if module is owner or not module_name.startswith("sca_reco"):
                    continue
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, binding, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def layer_metrics(self, traced_pipeline_s: float, untraced_pipeline_s: float) -> dict:
        """Every PER_LAYER metric as ``{name: (value, unit)}``."""
        values: dict[str, float] = {}
        for name in _CALLS:
            values[f"{name}.calls"] = self.calls[name]
        for name in _COUNTS:
            values[name] = self.counts[name]
        grouped = dict(self.self_s)
        for group, members in _ESTIMATOR_GROUPS.items():
            grouped[group] = sum(self.self_s[m] for m in members)
        for name in _SELF_TIMES:
            values[f"{name}.self_s"] = grouped.get(name, 0.0)
        for layer in LAYERS:
            values[f"{layer}.self_s"] = sum(
                seconds for name, seconds in self.self_s.items()
                if name.split(".", 1)[0] == layer
            )
        old = self.counts["matching.old_warnings"]
        hits = sum(self.counts[f"matching.hits.{s}"] for s in ("location", "snippet", "hash"))
        values["matching.match_ratio"] = hits / old if old else 0.0
        values["matching.us_per_warning"] = (
            1e6 * self.self_s["matching.label_release_detailed"] / old if old else 0.0
        )
        values["trace.pipeline_s"] = traced_pipeline_s
        values["trace.overhead_s"] = traced_pipeline_s - untraced_pipeline_s
        values["trace.accounted_share"] = sum(self.self_s.values()) / traced_pipeline_s
        values["trace.spans"] = len(self.spans)
        return {name: (values[name], unit) for name, unit in PER_LAYER}

    def write_spans(self, path: Path) -> None:
        """One JSON object per span, times in seconds from the first span."""
        origin = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end in sorted(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                        }
                    )
                    + "\n"
                )
