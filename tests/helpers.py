"""Builders and reference predicates shared by the test modules.

Most matching and alignment tests need small hand-built warnings, releases,
and snapshots; the functions here keep those fixtures terse.

``match_location``, ``match_snippet`` and ``match_hash`` state each cascade
stage's rule for one pair of warnings, straight from the rule and the
``ReleasePair`` primitives (diff-mapped target, trimmed snippet, token
window), not through the stage keys the label pass indexes by.  The oracles
that check the label pass compare its hits against them.

``same_defect`` states the alignment module's pair rule from its stated
terms, not through ``alignment``: the oracles of the grouping test the
groups it builds against it.  ``canonical_key`` states the canonical order
of warnings from README's words, not through the field order of
``AlignedWarning``: the oracles sort by it.

``require_field`` and ``optional_field`` state the rule for one field of a
JSON record, one call per field, not through ``core.read_record``'s record
specs.  ``check_report_entry`` and ``check_label_span`` state the value
rules the readers apply to a report entry and a stored label row, one
condition at a time.  The equivalence tests of the record readers compare
against them.

``fast_hyperparams`` swaps small hyperparameters into
``recommend.DEFAULT_HYPERPARAMS``, the one table training reads, for tests
that need many quick fits rather than the paper's configuration.

``run_probe`` runs a snippet in a fresh interpreter that imports this
checkout's package, for checks that need a clean process or environment.

``labels_to_record`` is the JSON record of one project's labels as a dict;
``json.dumps(record, sort_keys=True)`` of it is the line ``write_labels``
must write.  ``labeled_warnings`` draws judged warnings of three analyzers
that crowd a few lines of two classes, for the alignment and scoring
oracles.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from hypothesis import strategies as st

import sca_reco
from sca_reco.core import (
    AlignedWarning,
    ProjectSnapshot,
    RawWarning,
    Release,
    WarningLabel,
)
from sca_reco.exceptions import SchemaError
from sca_reco.matching import AuditRecord, ReleasePair, label_release_detailed
from sca_reco.recommend import DEFAULT_HYPERPARAMS, ModelKind
from sca_reco.synth import CorpusTruth, ProjectTruth, SiteTruth

A = WarningLabel.ACTIONABLE
U = WarningLabel.UNACTIONABLE
UNKNOWN = WarningLabel.UNKNOWN

OLD_DATE = dt.date(2024, 1, 1)
NEW_DATE = dt.date(2024, 7, 1)


def aw(
    new_type: str = "null_dereference",
    class_info: str = "com.example.Foo",
    start: int = 10,
    end: int | None = None,
    label: WarningLabel = A,
    sca: str = "alpha",
    index: int = 0,
) -> AlignedWarning:
    return AlignedWarning(
        new_type=new_type,
        class_info=class_info,
        start_line=start,
        end_line=start if end is None else end,
        label=label,
        origin=(sca, index),
    )


def raw(
    sca: str = "alpha",
    original_type: str = "NULL_DEREF",
    class_path: str = "com.example.Foo",
    method: str | None = None,
    start: int = 10,
    end: int | None = None,
) -> RawWarning:
    return RawWarning(
        sca=sca,
        original_type=original_type,
        class_path=class_path,
        method_path=method,
        start_line=start,
        end_line=start if end is None else end,
    )


def release(files: dict[str, list[str]], release_id: str = "r", old: bool = True) -> Release:
    return Release(
        release_id=release_id,
        timestamp=OLD_DATE if old else NEW_DATE,
        files={path: tuple(lines) for path, lines in files.items()},
    )


def snapshot(
    old_files: dict[str, list[str]],
    new_files: dict[str, list[str]],
    reports_old: dict[str, list[RawWarning]],
    reports_new: dict[str, list[RawWarning]],
    project_id: str = "proj",
) -> ProjectSnapshot:
    return ProjectSnapshot(
        project_id=project_id,
        release_old=release(old_files, "r1", old=True),
        release_new=release(new_files, "r2", old=False),
        reports_old={k: tuple(v) for k, v in reports_old.items()},
        reports_new={k: tuple(v) for k, v in reports_new.items()},
    )


def identity_mapping(pairs: dict[tuple[str, str], str] | None = None) -> dict:
    """Mapping used by the hand-built snapshots.

    Defaults map each analyzer's native spelling onto the category ids the
    builders above use directly.
    """
    entries = {
        ("alpha", "NULL_DEREF"): "null_dereference",
        ("alpha", "LEAK"): "resource_leak",
        ("beta", "NULL_DEREF"): "null_dereference",
        ("beta", "LEAK"): "resource_leak",
    }
    entries.update(pairs or {})
    return entries


def label_snapshot(
    snap: ProjectSnapshot, sca: str, mapping: dict
) -> tuple[list[AlignedWarning], list[AuditRecord]]:
    """Label one analyzer's warnings with a ReleasePair of the snapshot's own."""
    releases = ReleasePair.diff(snap.release_old, snap.release_new)
    return label_release_detailed(snap, sca, mapping, releases)


def canonicalize(
    raw: RawWarning, mapping: dict, origin_index: int, label: WarningLabel = UNKNOWN
) -> AlignedWarning:
    """A report entry in canonical form, with ``label`` as a placeholder."""
    return AlignedWarning(
        new_type=mapping[raw.sca, raw.original_type],
        class_info=raw.class_path,
        start_line=raw.start_line,
        end_line=raw.end_line,
        label=label,
        origin=(raw.sca, origin_index),
    )


@dataclass(frozen=True)
class MatchContext:
    """What the pairwise predicates read besides the two warnings: the
    project's ``ReleasePair`` and one analyzer's two reports, which the
    warnings index through their origin."""

    releases: ReleasePair
    raws_old: tuple[RawWarning, ...]
    raws_new: tuple[RawWarning, ...]


def match_location(w_a: AlignedWarning, w_b: AlignedWarning, context: MatchContext) -> bool:
    """Stage 1: old warning ``w_a`` and new warning ``w_b`` share category
    and class, their methods agree unless a report omits one, and the old
    start line, diff-mapped into the newer release, lies within 3 lines of
    ``w_b``'s start line."""
    if (w_a.new_type, w_a.class_info) != (w_b.new_type, w_b.class_info):
        return False
    method_a = context.raws_old[w_a.origin[1]].method_path
    method_b = context.raws_new[w_b.origin[1]].method_path
    if method_a is not None and method_b is not None and method_a != method_b:
        return False
    target = context.releases.location_target(w_a)
    return target is not None and abs(target - w_b.start_line) <= 3


def match_snippet(w_a: AlignedWarning, w_b: AlignedWarning, context: MatchContext) -> bool:
    """Stage 2: same category and class, and the whitespace-trimmed text of
    the warned lines exists and is identical in both releases."""
    if (w_a.new_type, w_a.class_info) != (w_b.new_type, w_b.class_info):
        return False
    snippet = context.releases.snippet("old", w_a)
    return snippet is not None and snippet == context.releases.snippet("new", w_b)


def match_hash(w_a: AlignedWarning, w_b: AlignedWarning, context: MatchContext) -> bool:
    """Stage 3: same category, and the token window around the warned line
    exists and is identical in both releases, whatever the class."""
    if w_a.new_type != w_b.new_type:
        return False
    window = context.releases.window_hash("old", w_a)
    return window is not None and window == context.releases.window_hash("new", w_b)


def canonical_key(w: AlignedWarning) -> tuple:
    """The canonical order of warnings, as README states it: class, start
    line, end line, category, analyzer, index."""
    return w.class_info, w.start_line, w.end_line, w.new_type, w.origin[0], w.origin[1]


def same_defect(a: AlignedWarning, b: AlignedWarning) -> bool:
    """Do two warnings denote one defect?  They share category and class,
    their start lines are within 3 of each other and so are their end
    lines, and their line ranges overlap."""
    return (
        a.new_type == b.new_type
        and a.class_info == b.class_info
        and abs(a.start_line - b.start_line) <= 3
        and abs(a.end_line - b.end_line) <= 3
        and a.start_line <= b.end_line
        and b.start_line <= a.end_line
    )


def java_class(class_name: str, package: str = "com.example", n_methods: int = 2) -> list[str]:
    """A small pseudo-Java file with one method per block of 4 lines."""
    lines = [f"package {package};", "", f"public class {class_name} " + "{"]
    for m in range(n_methods):
        lines.append("")
        lines.append(f"    public void method{m}() " + "{")
        lines.append(f"        int value{m} = compute{m}();")
        lines.append(f"        use(value{m});")
        lines.append("    }")
    lines.append("}")
    return lines


def load_truth(path: str | Path) -> CorpusTruth:
    """Read a generated ``truth.json`` back into the generator's records."""
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    projects = tuple(
        ProjectTruth(
            project_id=entry["project"],
            archetype=entry["archetype"],
            champion=entry["champion"],
            sites=tuple(
                SiteTruth(**{**row, "detected_by": tuple(row["detected_by"])})
                for row in entry["sites"]
            ),
        )
        for entry in document["projects"]
    )
    return CorpusTruth(document["seed"], tuple(document["scas"]), projects)


def require_field(obj, key: str, kinds, where: str):
    """``obj[key]``, checked to be an instance of ``kinds`` and not a bool;
    anything else raises a SchemaError that starts with ``where``."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{where} must be a JSON object")
    if key not in obj:
        raise SchemaError(f"{where}: missing field {key!r}")
    value = obj[key]
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise SchemaError(f"{where}: field {key!r} has the wrong type")
    return value


def optional_field(obj, key: str, kinds, where: str):
    """Like ``require_field``, but a missing or null field is None."""
    if isinstance(obj, dict) and obj.get(key) is None:
        return None
    return require_field(obj, key, kinds, where)


def check_report_entry(where: str, sca, original_type, class_path, start_line, end_line):
    """A report entry's analyzer, type and class must be non-empty and its
    lines must satisfy 1 <= start <= end; the first condition that fails
    raises a SchemaError that starts with ``where``."""
    for fails, message in (
        (sca == "", "warning has an empty analyzer id"),
        (original_type == "", "warning has an empty type"),
        (class_path == "", "warning has an empty class path"),
        (start_line < 1, f"warning start line {start_line} < 1"),
        (end_line < start_line, f"warning line span {start_line}..{end_line} is inverted"),
    ):
        if fails:
            raise SchemaError(f"{where}: {message}")


def check_label_span(where: str, start_line, end_line):
    """A stored label row's lines must satisfy 1 <= start <= end; anything
    else raises a SchemaError that starts with ``where``."""
    if start_line < 1 or end_line < start_line:
        raise SchemaError(f"{where}: warning line span {start_line}..{end_line} is invalid")


ODD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.integers(10**9, 10**18),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1.0, 10.0, ""]),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


@st.composite
def mutated_entries(draw, valid: dict):
    """A report entry made from ``valid``: some fields dropped or given an
    odd value (null, bool, float, huge or negative integer, wrong type) and
    extra keys added; one draw in ten is not an object at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.one_of(st.none(), st.integers(), st.text(max_size=3), st.lists(st.none())))
    entry = dict(valid)
    for key in valid:
        action = draw(st.sampled_from(["keep"] * 4 + ["drop", "retype"]))
        if action == "drop":
            del entry[key]
        elif action == "retype":
            entry[key] = draw(ODD_VALUES)
    for key in draw(st.lists(st.text(max_size=6), max_size=2)):
        entry.setdefault(key, draw(ODD_VALUES))
    return entry


@st.composite
def faulted(draw, records: list, faults: dict):
    """``records`` with up to two of them faulted: mutated (see
    ``mutated_entries``), or given a value from ``faults`` for one key."""
    whole, records = records, list(records)
    for _ in range(draw(st.integers(0, 2)) if records else 0):
        i = draw(st.integers(0, len(records) - 1))
        key = draw(st.sampled_from([None, *faults]))
        if key is None:
            records[i] = draw(mutated_entries(whole[i]))
        else:
            records[i] = {**whole[i], key: draw(st.sampled_from(faults[key]))}
    return records


def labels_to_record(labels) -> dict:
    """JSON form of one project's ``ProjectLabels``, audit details included."""
    rows = []
    for sca, warnings in labels.by_sca.items():
        audit = labels.audits.get(sca, ())
        for warning, record in zip(warnings, audit):
            rows.append(
                {
                    "sca": sca,
                    "index": warning.origin[1],
                    "category": warning.new_type,
                    "class": warning.class_info,
                    "start_line": warning.start_line,
                    "end_line": warning.end_line,
                    "label": warning.label.value,
                    "stage": record.stage.value if record.stage else None,
                    "matched_line": record.matched_line,
                    "matched_index": record.matched_origin,
                }
            )
    return {"project": labels.project_id, "warnings": rows}


ALIGNED_SCAS = ("alpha", "beta", "gamma")
_ALIGNED_ROW = st.tuples(
    st.sampled_from(("null_dereference", "resource_leak")),
    st.sampled_from(("com.example.Foo", "com.example.Bar")),
    st.integers(1, 12),
    st.integers(0, 4),
    st.sampled_from((A, U)),
)


@st.composite
def labeled_warnings(draw) -> dict[str, list[AlignedWarning]]:
    """Up to twelve judged warnings for each of ``ALIGNED_SCAS``, the
    analyzer's indexes in order; start lines and spans are small, so many
    warnings denote one defect and ties are common."""
    return {
        sca: [
            aw(new_type=kind, class_info=cls, start=start, end=start + span, label=label,
               sca=sca, index=i)
            for i, (kind, cls, start, span, label) in enumerate(
                draw(st.lists(_ALIGNED_ROW, max_size=12))
            )
        ]
        for sca in ALIGNED_SCAS
    }


def run_probe(
    probe: str, *args: str, timeout: int = 60, env: dict[str, str] | None = None
) -> subprocess.CompletedProcess:
    """Run ``probe`` in a fresh interpreter that imports this checkout's
    package, with ``env`` set over the current environment."""
    source_root = str(Path(sca_reco.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", probe, *args],
        env={**os.environ, **(env or {}), "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=timeout,
    )


# hyperparameters that fit in milliseconds; dt's defaults already do
FAST_HYPERPARAMS = {
    ModelKind.KNN: {"n_neighbors": 3},
    ModelKind.LR: {"n_iter": 200},
    ModelKind.MLP: {"hidden_units": 8, "epochs": 30},
    ModelKind.RF: {"n_estimators": 5},
}


@contextlib.contextmanager
def fast_hyperparams():
    """Train with ``FAST_HYPERPARAMS`` in place of the defaults they name
    while the block runs, and restore the table after.  A plain context
    manager, so it serves at import time and inside ``@given`` bodies,
    where a function-scoped fixture cannot."""
    saved = dict(DEFAULT_HYPERPARAMS)
    try:
        for kind, values in FAST_HYPERPARAMS.items():
            DEFAULT_HYPERPARAMS[kind] = {**DEFAULT_HYPERPARAMS[kind], **values}
        yield
    finally:
        DEFAULT_HYPERPARAMS.update(saved)
