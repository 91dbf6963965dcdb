"""Corpus-level orchestration: label, align, and score every project.

A corpus is processed project by project.  Data problems in one project
(malformed report, missing release, unmapped type) are recorded as failures
and do not stop the others.  All aggregation is sorted by project id, so the
outcome is independent of worker count.

A stored label record's rows are read through ``core.read_rows`` and need
not be grouped by analyzer.
"""

from __future__ import annotations

import itertools
import json
import logging
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from .alignment import align_project
from .core import (
    AlignedWarning,
    ProjectSnapshot,
    RecordSpec,
    ScaId,
    WarningLabel,
    decode_json,
    named_tuples,
    read_record,
    read_rows,
    read_text,
    validate_beta,
    write_text,
)
from .effectiveness import ProjectEvaluation, evaluate_project, optimal_set
from .exceptions import DataError, SchemaError, UnmappedType
from .ingestion import (
    default_taxonomy_path,
    list_projects,
    load_gdc_mapping,
    load_sca_order,
    load_snapshot,
    load_taxonomy,
    unmapped_entry,
)
from .matching import AuditRecord, MatchStage, ReleasePair, label_release_detailed

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CorpusContext:
    """A corpus root plus the shared artifacts every project needs."""

    root: Path
    mapping: dict[tuple[ScaId, str], str]
    sca_order: tuple[ScaId, ...]


def load_corpus_context(
    corpus_root: str | Path,
    taxonomy_path: str | Path | None = None,
    mapping_path: str | Path | None = None,
) -> CorpusContext:
    """Resolve the type mapping and analyzer order for a corpus.

    Explicit paths win; otherwise ``taxonomy.tsv``/``gdc_map.tsv`` in the
    corpus root are used.  A missing taxonomy falls back to the packaged
    default; a missing mapping is an error since warnings cannot be compared
    without it.  The taxonomy's ids are the categories the mapping may name.
    """
    root = Path(corpus_root)
    sca_order = tuple(load_sca_order(root))
    if taxonomy_path is None:
        candidate = root / "taxonomy.tsv"
        taxonomy_path = candidate if candidate.is_file() else default_taxonomy_path()
    category_ids = load_taxonomy(taxonomy_path)
    if mapping_path is None:
        candidate = root / "gdc_map.tsv"
        if not candidate.is_file():
            raise DataError(f"no type mapping: {candidate} not found and none given")
        mapping_path = candidate
    return CorpusContext(root, load_gdc_mapping(mapping_path, category_ids), sca_order)


@dataclass(frozen=True)
class ProjectLabels:
    """Labeled old-release warnings of one project, per analyzer."""

    project_id: str
    by_sca: dict[ScaId, tuple[AlignedWarning, ...]]
    audits: dict[ScaId, tuple[AuditRecord, ...]]


@dataclass(frozen=True)
class ProjectFailure:
    project_id: str
    message: str


def label_project(context: CorpusContext, snapshot: ProjectSnapshot) -> ProjectLabels:
    """Run the closed-warning heuristic for every analyzer of one project
    loaded from ``context.root``; a warning type without a category mapping
    raises an UnmappedType that names its report and entry."""
    unknown = set(snapshot.reports_old) - set(context.sca_order)
    if unknown:
        raise SchemaError(
            f"project {snapshot.project_id}: reports from unlisted analyzers "
            f"{sorted(unknown)}"
        )
    releases = ReleasePair.diff(snapshot.release_old, snapshot.release_new)
    by_sca: dict[ScaId, tuple[AlignedWarning, ...]] = {}
    audits: dict[ScaId, tuple[AuditRecord, ...]] = {}
    for sca in context.sca_order:
        if sca not in snapshot.reports_old:
            continue
        try:
            labeled, audit = label_release_detailed(snapshot, sca, context.mapping, releases)
        except UnmappedType as exc:
            where = unmapped_entry(context.root, snapshot, sca, context.mapping)
            raise UnmappedType(f"{where}: {exc}") from exc
        by_sca[sca] = tuple(labeled)
        audits[sca] = tuple(audit)
    return ProjectLabels(snapshot.project_id, by_sca, audits)


def evaluate_labels(
    labels: ProjectLabels, sca_order: Sequence[ScaId], beta: float
) -> ProjectEvaluation:
    """Align labeled warnings across analyzers and score each analyzer.

    Warnings labeled unknown are outside the heuristic's competence and are
    dropped before alignment.
    """
    judged = {
        sca: [w for w in warnings if w.label is not WarningLabel.UNKNOWN]
        for sca, warnings in labels.by_sca.items()
    }
    result = align_project(judged, sca_order)
    scores = tuple(evaluate_project(result, sca_order, beta))
    return ProjectEvaluation(
        labels.project_id, validate_beta(beta), scores, optimal_set(scores)
    )


def _run_isolated(worker: Callable[[str], object], project_ids: Sequence[str], jobs: int = 1):
    """Apply ``worker`` per project, catching per-project data errors; the
    results and the failures come back sorted by project id."""

    def guarded(project_id: str):
        try:
            return project_id, worker(project_id), None
        except DataError as exc:
            log.warning("project %s failed: %s", project_id, exc)
            return project_id, None, ProjectFailure(project_id, str(exc))

    if jobs <= 1:
        rows = [guarded(p) for p in project_ids]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(guarded, project_ids))
    rows.sort(key=lambda row: row[0])
    results = [r for _, r, f in rows if f is None]
    failures = [f for _, _, f in rows if f is not None]
    return results, failures


def label_corpus(
    context: CorpusContext, jobs: int = 1
) -> tuple[list[ProjectLabels], list[ProjectFailure]]:
    def worker(project_id: str) -> ProjectLabels:
        return label_project(context, load_snapshot(context.root, project_id))

    return _run_isolated(worker, list_projects(context.root), jobs)


def evaluate_corpus(
    context: CorpusContext, beta: float, jobs: int = 1
) -> tuple[list[ProjectEvaluation], list[ProjectFailure]]:
    """Label and score each project in one step, so one project's labels
    are held at a time; a failure of either comes back as the project's."""
    validate_beta(beta)

    def worker(project_id: str) -> ProjectEvaluation:
        labels = label_project(context, load_snapshot(context.root, project_id))
        return evaluate_labels(labels, context.sca_order, beta)

    return _run_isolated(worker, list_projects(context.root), jobs)


def evaluate_label_records(
    all_labels: Sequence[ProjectLabels],
    sca_order: Sequence[ScaId],
    beta: float,
    jobs: int = 1,
) -> tuple[list[ProjectEvaluation], list[ProjectFailure]]:
    """Score already-labeled projects (the re-entry path for stored labels)."""
    validate_beta(beta)
    by_project = {labels.project_id: labels for labels in all_labels}
    return _run_isolated(
        lambda p: evaluate_labels(by_project[p], sca_order, beta), list(by_project), jobs
    )


LABEL_RECORD = RecordSpec(("project", str), ("warnings", list))
LABEL_ROW = RecordSpec(
    ("sca", str), ("stage", (str, None)), ("label", str), ("category", str), ("class", str),
    ("start_line", int), ("end_line", int), ("index", int), ("matched_line", (int, None)),
    ("matched_index", (int, None)),
)
# a row's label and stage texts by one dict lookup; any other text goes to
# the enum, whose ValueError names it
_LABELS = {label.value: label for label in WarningLabel}
_STAGES = {None: None, "": None, **{stage.value: stage for stage in MatchStage}}


def record_to_labels(record: dict) -> ProjectLabels:
    """Inverse of a ``write_labels`` line's JSON; a missing field, one of the wrong
    type or value, a line span that is not 1 <= start <= end, or a row
    repeating another's analyzer and index raises a SchemaError that names
    the first bad row.  Each analyzer's rows keep their order, and the
    analyzers come in the order of their first rows."""
    where = "label record"
    project_id, raw = read_record(record, LABEL_RECORD, where)

    def valid(scas, stages, labels, _categories, _classes, starts, ends, indexes, *_) -> bool:
        return (
            set(labels) <= _LABELS.keys() and set(stages) <= _STAGES.keys()
            and min(starts) > 0 and all(map(operator.le, starts, ends))
            and len(set(zip(scas, indexes))) == len(scas)
        )

    seen: dict[tuple[ScaId, int], int] = {}

    def fault(i, row) -> str | None:
        sca, stage, label, _, _, start, end, index, _, _ = row
        try:  # the enum's ValueError names a text no label or stage has
            if label not in _LABELS:
                WarningLabel(label)
            if stage not in _STAGES:
                MatchStage(stage)
        except ValueError as exc:
            return str(exc)
        if not 0 < start <= end:
            return f"warning line span {start}..{end} is invalid"
        first = seen.setdefault((sca, index), i)
        if first != i:
            return f"analyzer {sca!r} index {index} repeats warning {first}"
        return None

    rows = read_rows(raw, LABEL_ROW, "%s: warning %d", where, valid=valid, fault=fault)
    if not rows:
        return ProjectLabels(project_id, {}, {})
    scas, stages, labels, categories, classes, starts, ends, indexes, lines, origins = zip(*rows)
    labels = list(map(_LABELS.__getitem__, labels))
    warnings = named_tuples(
        AlignedWarning, zip(classes, starts, ends, categories, zip(scas, indexes), labels)
    )
    audits = named_tuples(AuditRecord, zip(labels, map(_STAGES.__getitem__, stages), lines, origins))
    # each analyzer's runs of rows joined, the analyzers in the order of their first rows
    by_sca: dict[ScaId, list[AlignedWarning]] = {}
    audits_by_sca: dict[ScaId, list[AuditRecord]] = {}
    done = 0
    for sca, run in itertools.groupby(scas):
        stop = done + len(list(run))
        by_sca.setdefault(sca, []).extend(warnings[done:stop])
        audits_by_sca.setdefault(sca, []).extend(audits[done:stop])
        done = stop
    return ProjectLabels(
        project_id,
        {sca: tuple(run) for sca, run in by_sca.items()},
        {sca: tuple(run) for sca, run in audits_by_sca.items()},
    )


# one encoder for every JSONL line but the labels': a record is a tree, so the cycle
# check json.dumps makes is skipped; the bytes are those of json.dumps(record, sort_keys=True)
_JSONL_ENCODER = json.JSONEncoder(sort_keys=True, check_circular=False)


def _write_jsonl(path: str | Path, records) -> None:
    encode = _JSONL_ENCODER.encode
    write_text(path, (encode(record) + "\n" for record in records))


def _read_jsonl(path: str | Path, parse: Callable[[dict], object]) -> list:
    """``parse`` of each non-blank line's JSON, one record per project.

    A SchemaError ``parse`` raises is prefixed with the file and line
    number.  A record whose ``project_id`` an earlier line gave raises a
    DataError naming the file and both lines.
    """
    records = []
    first_line: dict[str, int] = {}
    for number, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{path}:{number}"
        try:
            record = parse(decode_json(line, where))
        except SchemaError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
        first = first_line.setdefault(record.project_id, number)
        if first != number:
            raise DataError(
                f"{where}: project {record.project_id!r} repeats line {first}"
            )
        records.append(record)
    return records


def write_labels(path: str | Path, all_labels: Sequence[ProjectLabels]) -> None:
    """One JSON line per project with the bytes of ``json.dumps(record,
    sort_keys=True)`` for ``{"project": id, "warnings": rows}``, a row per
    warning and its audit record, formatted straight from the tuples:
    strings quoted by ``encode_basestring_ascii``, the encoder ``json.dumps``
    uses, integers as ``str(int)`` and a missing stage, line or index as
    ``null``."""
    write_text(path, map(_label_line, all_labels))


_QUOTE = json.encoder.encode_basestring_ascii
_LABEL_TEXTS = {label: _QUOTE(label.value) for label in WarningLabel}
_STAGE_TEXTS = {None: "null", **{stage: _QUOTE(stage.value) for stage in MatchStage}}


def _label_line(labels: ProjectLabels) -> str:
    rows = []
    for sca, warnings in labels.by_sca.items():
        sca_text = _QUOTE(sca)
        for w, audit in zip(warnings, labels.audits.get(sca, ())):
            line, origin = audit.matched_line, audit.matched_origin
            rows.append(
                f'{{"category": {_QUOTE(w.new_type)}, "class": {_QUOTE(w.class_info)}, '
                f'"end_line": {w.end_line}, "index": {w.origin[1]}, '
                f'"label": {_LABEL_TEXTS[w.label]}, '
                f'"matched_index": {"null" if origin is None else origin}, '
                f'"matched_line": {"null" if line is None else line}, "sca": {sca_text}, '
                f'"stage": {_STAGE_TEXTS[audit.stage]}, "start_line": {w.start_line}}}'
            )
    return f'{{"project": {_QUOTE(labels.project_id)}, "warnings": [{", ".join(rows)}]}}\n'


def read_labels(path: str | Path, sca_order: Sequence[ScaId]) -> list[ProjectLabels]:
    """The label records of ``path``; a record with rows of an analyzer that
    ``sca_order`` does not list raises a SchemaError naming the file and line."""

    def parse(record: dict) -> ProjectLabels:
        labels = record_to_labels(record)
        unknown = set(labels.by_sca) - set(sca_order)
        if unknown:
            raise SchemaError(
                f"project {labels.project_id}: rows from unlisted analyzers {sorted(unknown)}"
            )
        return labels

    return _read_jsonl(path, parse)


def write_evaluations(path: str | Path, evaluations: Sequence[ProjectEvaluation]) -> None:
    _write_jsonl(path, (e.to_record() for e in evaluations))


def read_evaluations(path: str | Path) -> list[ProjectEvaluation]:
    """The evaluation records of ``path`` sorted by project id, so the
    order of its lines changes no result."""
    evaluations = _read_jsonl(path, ProjectEvaluation.from_record)
    return sorted(evaluations, key=operator.attrgetter("project_id"))


def write_optimal_sets(path: str | Path, evaluations: Sequence[ProjectEvaluation]) -> None:
    """TSV of each project's optimal analyzer set (first entry is primary)."""
    lines = ["project\tprimary\toptimal"]
    for evaluation in evaluations:
        optimal = evaluation.optimal
        lines.append(f"{evaluation.project_id}\t{optimal[0]}\t{','.join(optimal)}")
    write_text(path, "\n".join(lines) + "\n")
