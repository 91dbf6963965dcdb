"""Corpus-level orchestration: label, align, and score every project.

A corpus is processed project by project.  Data problems in one project
(malformed report, missing release, unmapped type) are recorded as failures
and do not stop the others.  All aggregation is sorted by project id, so the
outcome is independent of worker count.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from .alignment import align_project
from .core import (
    AlignedWarning,
    GdcTaxonomy,
    ProjectSnapshot,
    RecordSpec,
    ScaId,
    WarningLabel,
    decode_json,
    default_taxonomy_path,
    load_taxonomy,
    read_record,
    read_text,
    validate_beta,
    write_text,
)
from .effectiveness import ProjectEvaluation, evaluate_project, optimal_set
from .exceptions import DataError, DuplicateProject, IoError, SchemaError, UnmappedType
from .ingestion import (
    GdcMapping,
    list_projects,
    load_gdc_mapping,
    load_sca_order,
    load_snapshot,
    unmapped_entry,
)
from .matching import AuditRecord, MatchStage, ReleasePair, label_release_detailed

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CorpusContext:
    """A corpus root plus the shared artifacts every project needs."""

    root: Path
    taxonomy: GdcTaxonomy
    mapping: GdcMapping
    sca_order: tuple[ScaId, ...]


def load_corpus_context(
    corpus_root: str | Path,
    taxonomy_path: str | Path | None = None,
    mapping_path: str | Path | None = None,
    strict_taxonomy: bool = True,
) -> CorpusContext:
    """Resolve taxonomy, type mapping, and analyzer order for a corpus.

    Explicit paths win; otherwise ``taxonomy.tsv``/``gdc_map.tsv`` in the
    corpus root are used.  A missing taxonomy falls back to the packaged
    default; a missing mapping is an error since warnings cannot be compared
    without it.
    """
    root = Path(corpus_root)
    if not root.is_dir():
        raise IoError(f"corpus directory {root} does not exist")
    if taxonomy_path is None:
        candidate = root / "taxonomy.tsv"
        taxonomy_path = candidate if candidate.is_file() else default_taxonomy_path()
    taxonomy = load_taxonomy(taxonomy_path, strict_shape=strict_taxonomy)
    if mapping_path is None:
        candidate = root / "gdc_map.tsv"
        if not candidate.is_file():
            raise IoError(f"no type mapping: {candidate} not found and none given")
        mapping_path = candidate
    mapping = load_gdc_mapping(mapping_path, taxonomy)
    return CorpusContext(
        root=root,
        taxonomy=taxonomy,
        mapping=mapping,
        sca_order=tuple(load_sca_order(root)),
    )


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
    scores = tuple(evaluate_project(labels.project_id, result, sca_order, beta))
    return ProjectEvaluation(
        labels.project_id, validate_beta(beta), scores, optimal_set(scores)
    )


def _run_isolated(worker: Callable[[str], object], project_ids: Sequence[str], jobs: int):
    """Apply ``worker`` per project, catching per-project data errors."""

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
    projects = list_projects(context.root)

    def worker(project_id: str) -> ProjectLabels:
        return label_project(context, load_snapshot(context.root, project_id))

    return _run_isolated(worker, projects, jobs)


def evaluate_corpus(
    context: CorpusContext, beta: float, jobs: int = 1
) -> tuple[list[ProjectEvaluation], list[ProjectFailure]]:
    """Label every project, then score the labels; failures of either step
    come back sorted by project id."""
    validate_beta(beta)
    all_labels, label_failures = label_corpus(context, jobs)
    evaluations, failures = evaluate_label_records(all_labels, context.sca_order, beta)
    return evaluations, sorted(label_failures + failures, key=lambda f: f.project_id)


def evaluate_label_records(
    all_labels: Sequence[ProjectLabels],
    sca_order: Sequence[ScaId],
    beta: float,
) -> tuple[list[ProjectEvaluation], list[ProjectFailure]]:
    """Score already-labeled projects (the re-entry path for stored labels)."""
    validate_beta(beta)
    evaluations = []
    failures = []
    for labels in sorted(all_labels, key=lambda l: l.project_id):
        try:
            evaluations.append(evaluate_labels(labels, sca_order, beta))
        except DataError as exc:
            log.warning("project %s failed: %s", labels.project_id, exc)
            failures.append(ProjectFailure(labels.project_id, str(exc)))
    return evaluations, failures


def labels_to_record(labels: ProjectLabels) -> dict:
    """JSON form of one project's labels, audit details included."""
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
    """Inverse of ``labels_to_record``; a missing field, one of the wrong
    type or value, a line span that is not 1 <= start <= end, or a row
    repeating another's analyzer and index raises a SchemaError."""
    where = "label record"
    project_id, rows = read_record(record, LABEL_RECORD, where)
    by_sca: dict[ScaId, list[AlignedWarning]] = {}
    audits: dict[ScaId, list[AuditRecord]] = {}
    seen: dict[tuple[ScaId, int], int] = {}
    for i, row in enumerate(rows):
        sca, stage, label, category, class_info, start, end, index, line, origin = read_record(
            row, LABEL_ROW, "%s: warning %d", where, i
        )
        try:
            label = _LABELS[label] if label in _LABELS else WarningLabel(label)
            stage = _STAGES[stage] if stage in _STAGES else MatchStage(stage)
        except ValueError as exc:
            raise SchemaError(f"{where}: warning {i}: {exc}") from exc
        if not 0 < start <= end:
            raise SchemaError(f"{where}: warning {i}: warning line span {start}..{end} is invalid")
        warning = AlignedWarning(category, class_info, start, end, label, (sca, index))
        first = seen.setdefault(warning.origin, i)
        if first != i:
            raise SchemaError(
                f"{where}: warning {i}: analyzer {sca!r} index {index} repeats warning {first}"
            )
        by_sca.setdefault(sca, []).append(warning)
        audits.setdefault(sca, []).append(AuditRecord(label, stage, line, origin))
    return ProjectLabels(
        project_id,
        {sca: tuple(rows) for sca, rows in by_sca.items()},
        {sca: tuple(rows) for sca, rows in audits.items()},
    )


def _write_jsonl(path: str | Path, records) -> None:
    write_text(path, (json.dumps(record, sort_keys=True) + "\n" for record in records))


def _read_jsonl(path: str | Path, parse: Callable[[dict], object]) -> list:
    """``parse`` of each non-blank line's JSON, one record per project.

    A SchemaError ``parse`` raises is prefixed with the file and line
    number.  A record whose ``project_id`` an earlier line gave raises a
    DuplicateProject naming the file and both lines.
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
            raise DuplicateProject(
                f"{where}: project {record.project_id!r} repeats line {first}"
            )
        records.append(record)
    return records


def write_labels(path: str | Path, all_labels: Sequence[ProjectLabels]) -> None:
    _write_jsonl(path, (labels_to_record(l) for l in all_labels))


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
    return _read_jsonl(path, ProjectEvaluation.from_record)


def write_optimal_sets(path: str | Path, evaluations: Sequence[ProjectEvaluation]) -> None:
    """TSV of each project's optimal analyzer set (first entry is primary)."""
    lines = ["project\tprimary\toptimal"]
    for evaluation in evaluations:
        optimal = evaluation.optimal.optimal
        lines.append(f"{evaluation.project_id}\t{optimal[0]}\t{','.join(optimal)}")
    write_text(path, "\n".join(lines) + "\n")
