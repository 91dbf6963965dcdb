"""Shared domain types and the canonical orderings every stage relies on.

A "warning" exists in two forms: the raw record exactly as an analyzer
reported it, and the canonical form in which the analyzer-native type has
been replaced by a general defect category so warnings from different
analyzers become comparable.  Both are named tuples: immutable, cheap to
build, and equal exactly when their fields are, as tuples are.  Their
constructors check nothing; the readers of outside data check each field
(``ingestion.load_report`` a report's entries, ``pipeline.record_to_labels``
a stored label row), and the label pass builds them only from checked ones.
"""

from __future__ import annotations

import datetime as dt
import itertools
import json
import math
import operator
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .exceptions import InvalidBeta, IoError, ParseError, SchemaError

# An analyzer identity is a short lowercase token such as "spotbugs".
ScaId = str

TAXONOMY_HEADER = ("gdc_id", "name", "group")


class WarningLabel(Enum):
    ACTIONABLE = "actionable"
    UNACTIONABLE = "unactionable"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class GdcCategory:
    gdc_id: str
    name: str
    group: str


@dataclass(frozen=True)
class GdcTaxonomy:
    """Two-level defect categorization: coarse groups over fine categories."""

    categories: tuple[GdcCategory, ...]
    groups: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.groups)) != len(self.groups):
            raise SchemaError("taxonomy declares a duplicate group")
        ids = [c.gdc_id for c in self.categories]
        if len(set(ids)) != len(ids):
            raise SchemaError("taxonomy declares a duplicate gdc_id")
        known = set(self.groups)
        for category in self.categories:
            if category.group not in known:
                raise SchemaError(
                    f"category {category.gdc_id!r} references missing group {category.group!r}"
                )

    @property
    def category_ids(self) -> frozenset[str]:
        return frozenset(c.gdc_id for c in self.categories)


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON value")


# json.loads would accept NaN, Infinity and -Infinity, which JSON lacks
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def decode_json(text: str, where: str):
    """Decode one JSON text; text that is not JSON (NaN, Infinity and
    -Infinity included), or is nested too deeply for the decoder, raises a
    ParseError that starts with ``where``."""
    try:
        return _DECODER.decode(text)
    except ValueError as exc:  # JSONDecodeError or a rejected constant
        raise ParseError(f"{where}: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{where}: JSON nested too deeply ({exc})") from exc


def read_text(path: str | Path) -> str:
    """The UTF-8 text of ``path``, with ``\\r\\n`` and ``\\r`` read as
    ``\\n``.  A file that cannot be read raises an IoError; bytes that are
    not UTF-8 raise a ParseError naming the file and the byte offset."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()  # one decode, so exc.start is a file offset
    except OSError as exc:
        raise IoError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: not UTF-8 at byte offset {exc.start}: {exc.reason}"
        ) from exc


def read_json(path: str | Path):
    """The JSON document in ``path``; see ``read_text`` and ``decode_json``."""
    return decode_json(read_text(path), str(path))


def write_text(path: str | Path, parts) -> None:
    """Write ``parts``, one string or an iterable of strings, to ``path`` as
    UTF-8, in order and without joining them; an OSError becomes an IoError."""
    if isinstance(parts, str):
        parts = (parts,)
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(parts)
    except OSError as exc:
        raise IoError(str(exc)) from exc


class RecordSpec:
    """The fields of one kind of JSON record, two or more, in order: each
    key with its exact JSON type or tuple of types, None among them for a
    field that may be null or absent."""

    def __init__(self, *fields: tuple[str, type | tuple]):
        self.fields = [(key, kinds if type(kinds) is tuple else (kinds,)) for key, kinds in fields]
        self.values = operator.itemgetter(*(key for key, _ in fields))
        self.allowed = frozenset(itertools.product(
            *([type(None) if kind is None else kind for kind in kinds] for _, kinds in self.fields)
        ))


def read_record(record, spec: RecordSpec, where: str, *args) -> tuple:
    """The values of ``spec``'s fields in ``record``, in spec order, with a
    null or absent optional field as None.  Anything else raises a
    SchemaError that starts with the location ``where % args``, formatted
    only then, and names the first bad field in spec order."""
    if type(record) is dict:
        try:
            values = spec.values(record)
        except KeyError:
            pass
        else:
            if tuple(map(type, values)) in spec.allowed:
                return values
    if args:
        where %= args
    if not isinstance(record, dict):
        raise SchemaError(f"{where} must be a JSON object")
    values = []
    for key, kinds in spec.fields:
        value = record.get(key)
        if value is None and None in kinds:
            values.append(None)
        elif key not in record:
            raise SchemaError(f"{where}: missing field {key!r}")
        elif type(value) not in kinds:
            raise SchemaError(f"{where}: field {key!r} has the wrong type")
        else:
            values.append(value)
    return tuple(values)


def encode_json(value) -> str:
    """``json.dumps(value, sort_keys=True, separators=(",", ":"))``, written
    with an explicit stack, so a deeply nested value such as a deep decision
    tree encodes without recursion.  Object keys must be strings."""
    parts: list[str] = []
    stack = [(False, value)]  # (is finished text, item)
    while stack:
        finished, item = stack.pop()
        if finished:
            parts.append(item)
        elif isinstance(item, dict):
            pending = [(True, "{")]
            for i, key in enumerate(sorted(item)):
                if not isinstance(key, str):
                    raise TypeError(f"object keys must be strings, got {key!r}")
                pending += [(True, ("," if i else "") + json.dumps(key) + ":"), (False, item[key])]
            stack += reversed(pending + [(True, "}")])
        elif isinstance(item, (list, tuple)):
            pending = [(True, "[")]
            for i, element in enumerate(item):
                if i:
                    pending.append((True, ","))
                pending.append((False, element))
            stack += reversed(pending + [(True, "]")])
        else:
            parts.append(json.dumps(item))
    return "".join(parts)


def default_taxonomy_path() -> Path:
    """The taxonomy TSV that ships with the package."""
    return Path(str(resources.files("sca_reco.data").joinpath("default_taxonomy.tsv")))


def load_taxonomy(path: str | Path, strict_shape: bool = True) -> GdcTaxonomy:
    """Load a taxonomy TSV (header ``gdc_id<TAB>name<TAB>group``).

    With ``strict_shape`` the file must describe exactly two groups and
    sixteen categories, the only shape this artifact was calibrated for;
    pass ``strict_shape=False`` to accept any well-formed taxonomy.
    """
    path = Path(path)
    lines = [line for line in read_text(path).split("\n") if line.strip()]
    if not lines:
        raise ParseError(f"taxonomy file {path} is empty")
    if tuple(lines[0].split("\t")) != TAXONOMY_HEADER:
        raise ParseError(f"taxonomy file {path} has a bad header line")
    categories = []
    groups: list[str] = []
    for line in lines[1:]:
        cells = line.split("\t")
        if len(cells) != 3:
            raise ParseError(f"taxonomy row {line!r} does not have 3 cells")
        gdc_id, name, group = (c.strip() for c in cells)
        if not gdc_id or not name or not group:
            raise SchemaError(f"taxonomy row {line!r} has an empty cell")
        categories.append(GdcCategory(gdc_id, name, group))
        if group not in groups:
            groups.append(group)
    if strict_shape and (len(groups) != 2 or len(categories) != 16):
        raise SchemaError(
            f"taxonomy shape is {len(groups)} groups / {len(categories)} categories, "
            "expected 2 / 16 (pass strict_shape=False to accept)"
        )
    return GdcTaxonomy(tuple(categories), tuple(groups))


class RawWarning(NamedTuple):
    """One warning exactly as an analyzer reported it."""

    sca: ScaId
    original_type: str
    class_path: str
    method_path: str | None
    start_line: int
    end_line: int
    message: str | None = None
    severity: str | None = None


class AlignedWarning(NamedTuple):
    """A warning in canonical form: general category plus location and label.

    ``origin`` is (analyzer id, index of the warning in its source report),
    which keeps canonical warnings traceable back to the raw record.
    """

    new_type: str
    class_info: str
    start_line: int
    end_line: int
    label: WarningLabel
    origin: tuple[ScaId, int]


def warning_sort_key(warning: AlignedWarning):
    """Key of the canonical total order used for every deterministic tie-break."""
    return (
        warning.class_info,
        warning.start_line,
        warning.end_line,
        warning.new_type,
        warning.origin[0],
        warning.origin[1],
    )


def sort_warnings(warnings) -> list[AlignedWarning]:
    return sorted(warnings, key=warning_sort_key)


@dataclass(frozen=True)
class Release:
    """A source snapshot: release id, date, and text files as line tuples."""

    release_id: str
    timestamp: dt.date
    files: dict[str, tuple[str, ...]]

    def __post_init__(self):
        object.__setattr__(
            self, "files", {path: tuple(lines) for path, lines in self.files.items()}
        )


@dataclass(frozen=True)
class ProjectSnapshot:
    """Two releases of one project plus the per-analyzer reports for each."""

    project_id: str
    release_old: Release
    release_new: Release
    reports_old: dict[ScaId, tuple[RawWarning, ...]]
    reports_new: dict[ScaId, tuple[RawWarning, ...]]

    def __post_init__(self):
        if self.release_old.timestamp >= self.release_new.timestamp:
            raise SchemaError(
                f"project {self.project_id}: old release must predate the new one"
            )
        missing = set(self.reports_old) - set(self.reports_new)
        if missing:
            raise SchemaError(
                f"project {self.project_id}: analyzers {sorted(missing)} have no "
                "report for the newer release"
            )
        object.__setattr__(
            self, "reports_old", {k: tuple(v) for k, v in self.reports_old.items()}
        )
        object.__setattr__(
            self, "reports_new", {k: tuple(v) for k, v in self.reports_new.items()}
        )


def validate_beta(beta: float) -> float:
    """Check that ``beta`` is a non-negative real or infinity."""
    value = float(beta)
    if math.isnan(value) or value < 0:
        raise InvalidBeta(f"beta must be a non-negative real or inf, got {beta!r}")
    return value


def parse_beta(text: str) -> float:
    """Parse a beta from text: decimals, or 'inf'/'infinity' (any case)."""
    token = text.strip().lower()
    if token in ("inf", "infinity"):
        return math.inf
    try:
        value = float(token)
    except ValueError:
        raise InvalidBeta(f"cannot parse beta from {text!r}")
    return validate_beta(value)


def format_beta(beta: float) -> str:
    """Canonical text form of a beta, stable across runs ('1', '0.5', 'inf')."""
    if math.isinf(beta):
        return "inf"
    if beta == int(beta):
        return str(int(beta))
    return repr(beta)
