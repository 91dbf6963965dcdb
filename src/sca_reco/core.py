"""Shared domain types, whose warnings carry the canonical order every stage relies on.

A "warning" exists in two forms: the raw record exactly as an analyzer
reported it, and the canonical form in which the analyzer-native type has
been replaced by a general defect category so warnings from different
analyzers become comparable.  Both are named tuples: immutable, cheap to
build, and equal exactly when their fields are, as tuples are.  The
canonical order of warnings is ``AlignedWarning``'s field order, so
warnings sort as plain tuples.  Their constructors check nothing; the
readers of outside data check each field through ``read_record``, or
``read_rows`` for a list (a report's entries, a stored label record's
rows), and the label pass builds them only from checked ones.
"""

from __future__ import annotations

import datetime as dt
import itertools
import json
import math
import operator
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .exceptions import ConfigError, DataError, SchemaError

# An analyzer identity is a short lowercase token such as "spotbugs".
ScaId = str


class WarningLabel(Enum):
    ACTIONABLE = "actionable"
    UNACTIONABLE = "unactionable"
    UNKNOWN = "unknown"


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON value")


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        raise ValueError(f"number {text} is beyond the float range")
    return value


# json.loads would accept NaN, Infinity and -Infinity, which JSON lacks, and
# read a number literal beyond the float range, such as 1e999, as infinite
_DECODER = json.JSONDecoder(parse_float=_finite_float, parse_constant=_reject_constant)


def decode_json(text: str, where: str):
    """Decode one JSON text; text that is not JSON (NaN, Infinity and
    -Infinity included), holds a number beyond the float range, or is
    nested too deeply for the decoder, raises a DataError that starts with
    ``where``."""
    try:
        return _DECODER.decode(text)
    except ValueError as exc:  # JSONDecodeError or a rejected constant
        raise DataError(f"{where}: {exc}") from exc
    except RecursionError as exc:
        raise DataError(f"{where}: JSON nested too deeply ({exc})") from exc


def read_text(path: str | Path) -> str:
    """The UTF-8 text of ``path``, with ``\\r\\n`` and ``\\r`` read as
    ``\\n``.  A file that cannot be read raises a DataError; bytes that are
    not UTF-8 raise a DataError naming the file and the byte offset."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()  # one decode, so exc.start is a file offset
    except OSError as exc:
        raise DataError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise DataError(
            f"{path}: not UTF-8 at byte offset {exc.start}: {exc.reason}"
        ) from exc


def read_json(path: str | Path):
    """The JSON document in ``path``; see ``read_text`` and ``decode_json``."""
    return decode_json(read_text(path), str(path))


def write_text(path: str | Path, parts) -> None:
    """Write ``parts``, one string or an iterable of strings, to ``path`` as
    UTF-8, in order and without joining them; an OSError becomes a DataError."""
    if isinstance(parts, str):
        parts = (parts,)
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(parts)
    except OSError as exc:
        raise DataError(str(exc)) from exc


class RecordSpec:
    """The fields of one kind of JSON record, two or more, in order: each
    key with its exact JSON type or tuple of types, None among them for a
    field that may be null or absent."""

    def __init__(self, *fields: tuple[str, type | tuple]):
        self.fields = [(key, kinds if type(kinds) is tuple else (kinds,)) for key, kinds in fields]
        self.values = operator.itemgetter(*(key for key, _ in fields))
        # each field's exact value types, null as NoneType
        self.types = [
            frozenset(type(None) if kind is None else kind for kind in kinds)
            for _, kinds in self.fields
        ]


def read_record(record, spec: RecordSpec, where: str, *args) -> tuple:
    """The values of ``spec``'s fields in ``record``, in spec order, with a
    null or absent optional field as None.  Anything else raises a
    SchemaError that starts with the location ``where % args``, formatted
    only then, and names the first bad field in spec order."""
    if not isinstance(record, dict):
        fault = " must be a JSON object"
    else:
        values = []
        for key, kinds in spec.fields:
            value = record.get(key)
            if value is None and None in kinds:
                values.append(None)
            elif type(value) in kinds:
                values.append(value)
            elif key in record:
                fault = f": field {key!r} has the wrong type"
                break
            else:
                fault = f": missing field {key!r}"
                break
        else:
            return tuple(values)
    raise SchemaError(f"{where % args if args else where}{fault}")


def read_rows(
    records: list, spec: RecordSpec, where: str, *args, valid=None, fault=None
) -> list[tuple]:
    """``read_record`` of each of ``records``, in order, checked a column at a
    time: each field's types, then ``valid(*columns)``, one tuple of values
    per field in spec order, over a non-empty list.  Only when either check
    fails are the records read one at a time, each through ``read_record``
    and then ``fault(i, values)``, a message or None, so the SchemaError
    names the first bad record as ``where % (*args, i)`` and, within it, a
    type fault before a value fault."""
    try:
        rows = list(map(spec.values, records)) if set(map(type, records)) <= {dict} else []
    except KeyError:  # a missing field, or an absent optional one
        rows = []
    columns = list(zip(*rows))
    if (
        rows
        and all(set(map(type, column)) <= types for column, types in zip(columns, spec.types))
        and (valid is None or valid(*columns))
    ):
        return rows
    # one record at a time, so the first bad record is the one named
    rows = []
    for i, record in enumerate(records):
        values = read_record(record, spec, where, *args, i)
        message = fault and fault(i, values)
        if message:
            raise SchemaError(f"{where % (*args, i)}: {message}")
        rows.append(values)
    return rows


def named_tuples(cls: type, rows) -> list:
    """``cls._make(row)`` of each row, for a NamedTuple ``cls`` and rows of
    its full length, with no Python call per row."""
    return list(map(tuple.__new__, itertools.repeat(cls), rows))


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
    which keeps canonical warnings traceable back to the raw record.  The
    fields come in canonical order: class, start line, end line, category,
    analyzer, index.  No two warnings of one pool share an origin, so
    warnings sort as plain tuples in that order, which breaks every tie of
    the label pass and of alignment, and ``label`` is never compared.
    """

    class_info: str
    start_line: int
    end_line: int
    new_type: str
    origin: tuple[ScaId, int]
    label: WarningLabel


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
        raise ConfigError(f"beta must be a non-negative real or inf, got {beta!r}")
    return value


def parse_beta(text: str) -> float:
    """Parse a beta from text: decimals, or 'inf'/'infinity' (any case)."""
    token = text.strip().lower()
    if token in ("inf", "infinity"):
        return math.inf
    try:
        value = float(token)
    except ValueError:
        raise ConfigError(f"cannot parse beta from {text!r}")
    return validate_beta(value)


def format_beta(beta: float) -> str:
    """Canonical text form of a beta, stable across runs ('1', '0.5', 'inf')."""
    if math.isinf(beta):
        return "inf"
    if beta == int(beta):
        return str(int(beta))
    return repr(beta)
