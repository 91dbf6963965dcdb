"""Loading of reports, category mappings, source trees, and corpus layouts.

Corpus layout on disk::

    <corpus>/<project>/releases.json            {"old": {"id", "date"}, "new": {...}}
    <corpus>/<project>/<release>/src/...        source tree
    <corpus>/<project>/<release>/reports/<sca>.json
    <corpus>/scas.txt                           analyzer order, one id per line

``scas.txt`` fixes the corpus analyzer order used for iteration and
tie-breaking; without it the order falls back to the sorted union of the
report names of the projects (see ``list_projects``).  A report's entries
are read through ``core.read_rows``.
"""

from __future__ import annotations

import datetime as dt
import errno
import itertools
import logging
import operator
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .core import (
    ProjectSnapshot,
    RawWarning,
    Release,
    RecordSpec,
    ScaId,
    named_tuples,
    read_json,
    read_record,
    read_rows,
    read_text,
)
from .exceptions import DataError, SchemaError, UnmappedType

log = logging.getLogger(__name__)

TAXONOMY_HEADER = ("gdc_id", "name", "group")
GDC_MAP_HEADER = ("sca", "original_type", "gdc_id")


REPORT_HEADER = RecordSpec(("sca", str), ("project", str), ("release", str), ("warnings", list))
# the RawWarning fields after ``sca``, in field order
REPORT_ENTRY = RecordSpec(
    ("type", str), ("class", str), ("method", (str, None)), ("start_line", int),
    ("end_line", int), ("message", (str, None)), ("severity", (str, None)),
)


def load_report(path: str | Path, project_id: str, release_id: str) -> tuple[ScaId, list[RawWarning]]:
    """Load one analyzer report, checking it belongs to (project, release).

    Each entry's analyzer, type and class must be non-empty and its lines
    must satisfy 1 <= start <= end; ``core.read_rows`` checks that a list
    at a time, and the error names the first bad entry."""
    path = Path(path)
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: report must be a JSON object")
    sca, project, release, raw = read_record(doc, REPORT_HEADER, str(path))
    if project != project_id or release != release_id:
        raise DataError(
            f"{path}: report is for {project}/{release}, expected {project_id}/{release_id}"
        )

    def valid(types, classes, _methods, starts, ends, *_) -> bool:
        return (
            sca != "" and all(types) and all(classes) and min(starts) > 0
            and all(map(operator.le, starts, ends))
        )

    def fault(i, entry) -> str | None:
        original_type, class_path, _, start, end, _, _ = entry
        return (
            "warning has an empty analyzer id" if not sca
            else "warning has an empty type" if not original_type
            else "warning has an empty class path" if not class_path
            else f"warning start line {start} < 1" if start < 1
            else f"warning line span {start}..{end} is inverted" if start > end
            else None
        )

    entries = read_rows(raw, REPORT_ENTRY, "%s: warning %d", path, valid=valid, fault=fault)
    return sca, named_tuples(RawWarning, map(tuple.__add__, itertools.repeat((sca,)), entries))


@dataclass(frozen=True)
class GdcMapping:
    """Mapping from (analyzer id, analyzer-native type) to a category id."""

    entries: dict[tuple[ScaId, str], str]

    def lookup(self, sca: ScaId, original_type: str) -> str:
        try:
            return self.entries[(sca, original_type)]
        except KeyError:
            raise UnmappedType(f"no category mapping for ({sca!r}, {original_type!r})")


def _tsv_rows(path: str | Path, header: tuple[str, str, str], key_cells: int):
    """Each row of the 3-column TSV file ``path`` after its ``header`` line,
    as ``path:line`` and the row's stripped cells; blank lines are skipped,
    and a file of blank lines only has no rows.  A bad header line, a row
    that does not have 3 cells or has an empty cell, or a row whose first
    ``key_cells`` cells repeat an earlier row's with other cells raises a
    DataError that starts with ``path:line``."""
    lines = [
        (f"{path}:{number}", line)
        for number, line in enumerate(read_text(path).split("\n"), start=1)
        if line.strip()
    ]
    if lines and tuple(lines[0][1].split("\t")) != header:
        raise DataError(f"{lines[0][0]}: bad header line, expected {'<TAB>'.join(header)}")
    seen: dict[tuple[str, ...], str] = {}
    for where, line in lines[1:]:
        cells = tuple(cell.strip() for cell in line.split("\t"))
        if len(cells) != 3:
            raise DataError(f"{where}: row {line!r} does not have 3 cells")
        if not all(cells):
            raise DataError(f"{where}: row {line!r} has an empty cell")
        key, rest = cells[:key_cells], "\t".join(cells[key_cells:])
        first = seen.setdefault(key, rest)
        if first != rest:
            raise DataError(
                f"{where}: {', '.join(map(repr, key))} mapped to both {first!r} and {rest!r}"
            )
        yield where, cells


def default_taxonomy_path() -> Path:
    """The taxonomy TSV that ships with the package."""
    return Path(str(resources.files("sca_reco.data").joinpath("default_taxonomy.tsv")))


def load_taxonomy(path: str | Path) -> frozenset[str]:
    """The category ids of a taxonomy TSV (header ``gdc_id<TAB>name<TAB>group``),
    the only cells labeling reads; the name and group cells document them."""
    ids = frozenset(gdc_id for _, (gdc_id, _, _) in _tsv_rows(path, TAXONOMY_HEADER, 1))
    if not ids:
        raise DataError(f"{path}: taxonomy lists no category")
    return ids


def load_gdc_mapping(path: str | Path, category_ids: frozenset[str]) -> GdcMapping:
    """Load a mapping TSV (header ``sca<TAB>original_type<TAB>gdc_id``) onto
    the categories ``category_ids``.

    A file with no rows is a valid empty mapping.  A repeated row is read
    once; the same key mapped to two categories, or to a category outside
    ``category_ids``, is an error naming the file and the line.
    """
    entries: dict[tuple[str, str], str] = {}
    for where, (sca, original_type, gdc_id) in _tsv_rows(path, GDC_MAP_HEADER, 2):
        if gdc_id not in category_ids:
            raise DataError(f"{where}: unknown category {gdc_id!r}")
        entries[sca, original_type] = gdc_id
    return GdcMapping(entries)


def _split_lines(text: str) -> tuple[str, ...]:
    # \n and \r\n are equivalent; content is otherwise kept verbatim.
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if "\r" not in text:
        return tuple(lines)
    return tuple(line.removesuffix("\r") for line in lines)


def _tree_files(directory: str) -> list[tuple[tuple[str, ...], str]]:
    """Every file under ``directory`` as (path parts relative to it, path),
    sorted by the parts, so ``a/b.java`` comes before ``a-b.java``.

    Symlinked files are listed, but not broken symlinks or symlink loops;
    symlinked directories are not entered.
    """
    found = []
    pending = [((), directory)]
    while pending:
        parts, path = pending.pop()
        try:
            with os.scandir(path) as entries:
                for entry in entries:
                    child = (*parts, entry.name)
                    if entry.is_dir(follow_symlinks=False):
                        pending.append((child, entry.path))
                    elif _is_file(entry):
                        found.append((child, entry.path))
        except OSError as exc:
            raise DataError(str(exc)) from exc
    found.sort()
    return found


def _is_file(entry: os.DirEntry) -> bool:
    try:
        return entry.is_file()
    except OSError as exc:
        if exc.errno == errno.ELOOP:  # a symlink loop, as Path.is_file sees it
            return False
        raise


def load_source_tree(
    directory: str | Path, release_id: str, timestamp: dt.date | None = None
) -> Release:
    """Read every text file under ``directory`` into a Release.

    Binary files (NUL byte or undecodable as UTF-8) are skipped with a logged
    notice.  Paths are stored relative to ``directory`` in POSIX form.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise DataError(f"source directory {directory} does not exist")
    files: dict[str, tuple[str, ...]] = {}
    for parts, path in _tree_files(str(directory)):
        rel = "/".join(parts)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError as exc:
            raise DataError(str(exc)) from exc
        if b"\x00" in blob:
            log.info("skipping binary file %s", rel)
            continue
        try:
            text = blob.decode("utf-8")
        except UnicodeDecodeError:
            log.info("skipping undecodable file %s", rel)
            continue
        files[rel] = _split_lines(text)
    return Release(release_id, timestamp or dt.date(1970, 1, 1), files)


RELEASES = RecordSpec(("old", dict), ("new", dict))
RELEASE_META = RecordSpec(("id", str), ("date", str))


def _parse_release_meta(meta: dict, where: str) -> tuple[str, dt.date]:
    release_id, date_text = read_record(meta, RELEASE_META, where)
    try:
        timestamp = dt.date.fromisoformat(date_text)
    except ValueError as exc:
        raise SchemaError(f"{where}: bad date {date_text!r}") from exc
    return release_id, timestamp


def unmapped_entry(root, snapshot: ProjectSnapshot, sca: ScaId, mapping: GdcMapping) -> str:
    """``<report>: warning <i>`` of the first entry of ``sca``'s reports,
    older release first, whose type ``mapping`` lacks: the entry at which
    labeling ``sca`` stops with UnmappedType.  ``root`` is the corpus the
    snapshot was loaded from."""
    project_dir = Path(root) / snapshot.project_id
    for release, reports in (
        (snapshot.release_old, snapshot.reports_old),
        (snapshot.release_new, snapshot.reports_new),
    ):
        for i, raw in enumerate(reports[sca]):
            if (sca, raw.original_type) not in mapping.entries:
                report = project_dir / release.release_id / "reports" / f"{sca}.json"
                return f"{report}: warning {i}"
    raise ValueError(f"every {sca!r} entry of project {snapshot.project_id} is mapped")


def _load_release(project_dir: Path, release_id: str, timestamp: dt.date, project_id: str):
    release_dir = project_dir / release_id
    release = load_source_tree(release_dir / "src", release_id, timestamp)
    reports: dict[str, tuple[RawWarning, ...]] = {}
    reports_dir = release_dir / "reports"
    if reports_dir.is_dir():
        for report_path in sorted(reports_dir.glob("*.json")):
            sca, warnings = load_report(report_path, project_id, release_id)
            if sca != report_path.stem:
                raise DataError(
                    f"{report_path}: file is named {report_path.stem!r} but "
                    f"declares analyzer {sca!r}"
                )
            reports[sca] = tuple(warnings)
    return release, reports


def load_snapshot(corpus_root: str | Path, project_id: str) -> ProjectSnapshot:
    """Load one project (both releases and all reports) from a corpus."""
    project_dir = Path(corpus_root) / project_id
    meta_path = project_dir / "releases.json"
    doc = read_json(meta_path)
    if not isinstance(doc, dict):
        raise SchemaError(f"{meta_path}: must be a JSON object")
    old, new = read_record(doc, RELEASES, str(meta_path))
    old_id, old_date = _parse_release_meta(old, str(meta_path))
    new_id, new_date = _parse_release_meta(new, str(meta_path))
    release_old, reports_old = _load_release(project_dir, old_id, old_date, project_id)
    release_new, reports_new = _load_release(project_dir, new_id, new_date, project_id)
    return ProjectSnapshot(project_id, release_old, release_new, reports_old, reports_new)


def list_projects(corpus_root: str | Path) -> list[str]:
    """Project ids in a corpus: the sorted names of the subdirectories that
    hold a releases.json.

    Other subdirectories, such as an output directory placed inside the
    corpus, are not projects; they are skipped and logged at info level.
    """
    root = Path(corpus_root)
    if not root.is_dir():
        raise DataError(f"corpus directory {root} does not exist")
    projects = []
    for name in sorted(p.name for p in root.iterdir() if p.is_dir()):
        if (root / name / "releases.json").is_file():
            projects.append(name)
        else:
            log.info("ignoring %s: no releases.json, so not a project", root / name)
    return projects


def load_sca_order(corpus_root: str | Path) -> list[ScaId]:
    """Corpus analyzer order: scas.txt if present, else the sorted names of
    the reports of the corpus's projects (see ``list_projects``)."""
    root = Path(corpus_root)
    if not root.is_dir():
        raise DataError(f"corpus directory {root} does not exist")
    listing = root / "scas.txt"
    if listing.is_file():
        order = [line.strip() for line in read_text(listing).splitlines() if line.strip()]
        if len(set(order)) != len(order):
            raise SchemaError(f"{listing} lists a duplicate analyzer id")
        if not order:
            raise SchemaError(f"{listing} lists no analyzer ids")
        return order
    found: set[str] = set()
    for project in list_projects(root):
        for reports_dir in (root / project).glob("*/reports"):
            found.update(p.stem for p in reports_dir.glob("*.json"))
    return sorted(found)
