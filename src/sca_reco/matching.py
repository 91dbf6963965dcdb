"""Cross-release warning matching and the closed-warning labeling heuristic.

A warning from the older release that reappears in the newer release is
considered ignored by developers (unactionable); one that disappears while
its code survives was fixed (actionable); one whose class or file vanished
cannot be judged (unknown).  Reappearance is decided by a three-stage
cascade, strongest evidence first:

1. location: same class and method, same category, and the diff-mapped old
   start line lands within 3 lines of the candidate;
2. snippet: same class and category, and the whitespace-trimmed text of the
   warned lines is identical in both releases;
3. hash: same category and an identical 64-bit hash of the 100 source tokens
   surrounding the warned line (survives class and file renames).

Matching is one-to-one: old warnings are processed in canonical order and a
consumed candidate is unavailable to later warnings.

The pairwise predicates ``match_location``, ``match_snippet`` and
``match_hash`` are the single definition of each stage: ``match_warning``
runs them as they are, and tests and oracles call the same functions.
``MatchContext`` is the only cache; it resolves class files, diff-maps old
start lines, cuts snippets and hashes token windows once per release pair.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from enum import Enum
from operator import itemgetter

from .core import (
    AlignedWarning,
    ProjectSnapshot,
    RawWarning,
    Release,
    ScaId,
    WarningLabel,
    sort_warnings,
    warning_sort_key,
)
from .exceptions import SchemaError
from .ingestion import GdcMapping, canonicalize
from .linediff import lcs_pairs

LOCATION_OFFSET_LIMIT = 3
HASH_WINDOW_TOKENS = 50  # tokens taken on each side of the warned line

_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+")
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_SEPARATOR = 0x1F


class MatchStage(Enum):
    LOCATION = "location"
    SNIPPET = "snippet"
    HASH = "hash"


@dataclass(frozen=True)
class MatchOutcome:
    """Result of matching one old warning against the newer release."""

    matched: AlignedWarning | None
    stage: MatchStage | None


@dataclass(frozen=True)
class LineMapping:
    """Old-to-new line map per file; lines absent from a map were deleted or
    changed.  ``deleted_files`` holds old paths with no counterpart."""

    files: dict[str, dict[int, int]]
    deleted_files: frozenset[str]


def compute_line_mapping(old: Release, new: Release) -> LineMapping:
    """LCS-diff every shared file; map unchanged old lines to new lines."""
    files: dict[str, dict[int, int]] = {}
    deleted = set()
    for path, old_lines in old.files.items():
        if path not in new.files:
            deleted.add(path)
            continue
        pairs = lcs_pairs(old_lines, new.files[path])
        files[path] = {i + 1: j + 1 for i, j in pairs}
    return LineMapping(files, frozenset(deleted))


def _class_file_candidates(class_info: str) -> tuple[str, str]:
    """Primary path built from package dots, and the suffix used as fallback."""
    package, _, simple = class_info.rpartition(".")
    outer = simple.split("$", 1)[0]
    primary = (package.replace(".", "/") + "/" if package else "") + outer + ".java"
    return primary, outer + ".java"


def resolve_class_file(release: Release, class_info: str) -> str | None:
    """Resolve a class path to a source file in ``release``.

    Prefers ``<package path>/<OuterClass>.java``; falls back to the
    lexicographically first file whose path ends with the class file name.
    """
    primary, leaf = _class_file_candidates(class_info)
    if primary in release.files:
        return primary
    hits = [p for p in release.files if p == leaf or p.endswith("/" + leaf)]
    return min(hits, default=None)


def _token_stream(lines: tuple[str, ...]) -> tuple[list[str], list[int]]:
    """All identifier/number tokens of a file with their 1-based line numbers."""
    tokens: list[str] = []
    token_lines: list[int] = []
    for number, line in enumerate(lines, start=1):
        for match in _TOKEN_RE.finditer(line):
            tokens.append(match.group())
            token_lines.append(number)
    return tokens, token_lines


def _fnv1a(data: bytes) -> int:
    value = _FNV_OFFSET
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return value


@dataclass(frozen=True)
class MatchContext:
    """Everything the cascade needs besides the two warnings themselves.

    ``raws_old``/``raws_new`` are the source reports; warnings refer into
    them through their origin index.  ``which`` names a side, ``"old"`` or
    ``"new"``.  The memo dict caches class-file resolutions, location
    targets, snippets, token streams, and window hashes for the lifetime of
    one release pair; all cached values are pure functions of the two
    releases and their line mapping, so caching cannot change any outcome.
    """

    old: Release
    new: Release
    mapping: LineMapping
    raws_old: tuple[RawWarning, ...]
    raws_new: tuple[RawWarning, ...]
    memo: dict = field(default_factory=dict, repr=False, compare=False)

    def _release(self, which: str) -> Release:
        return self.old if which == "old" else self.new

    def resolve(self, which: str, class_info: str) -> str | None:
        key = ("resolve", which, class_info)
        if key not in self.memo:
            self.memo[key] = resolve_class_file(self._release(which), class_info)
        return self.memo[key]

    def location_target(self, warning: AlignedWarning) -> int | None:
        """Where the warned old line lives in the new release, if anywhere.

        A deleted or changed line falls back to the nearest surviving line
        above; a deleted file or an unresolved class has no target.
        """
        key = ("target", warning.class_info, warning.start_line)
        if key not in self.memo:
            self.memo[key] = None
            file_map = self.mapping.files.get(self.resolve("old", warning.class_info), {})
            for line in range(warning.start_line, 0, -1):
                if line in file_map:
                    self.memo[key] = file_map[line]
                    break
        return self.memo[key]

    def snippet(self, which: str, warning: AlignedWarning) -> str | None:
        """The whitespace-trimmed text of the warned lines, joined."""
        key = ("snippet", which, warning.class_info, warning.start_line, warning.end_line)
        if key not in self.memo:
            path = self.resolve(which, warning.class_info)
            if path is None:
                self.memo[key] = None
            else:
                lines = self._release(which).files[path]
                window = lines[warning.start_line - 1 : warning.end_line]
                self.memo[key] = (
                    "".join(line.strip() for line in window) if window else None
                )
        return self.memo[key]

    def window_hash(self, which: str, warning: AlignedWarning) -> int | None:
        """FNV-1a over the tokens surrounding the warned start line.

        Window: the HASH_WINDOW_TOKENS tokens before the first token at or
        after the warned line plus the same count from that token onward,
        truncated at file boundaries.  Tokens are joined by a single 0x1F
        byte before hashing.
        """
        key = ("hash", which, warning.class_info, warning.start_line)
        if key not in self.memo:
            self.memo[key] = None
            path = self.resolve(which, warning.class_info)
            if path is not None:
                stream_key = ("tokens", which, path)
                if stream_key not in self.memo:
                    lines = self._release(which).files[path]
                    self.memo[stream_key] = _token_stream(lines)
                tokens, token_lines = self.memo[stream_key]
                anchor = bisect_left(token_lines, warning.start_line)
                low = max(0, anchor - HASH_WINDOW_TOKENS)
                window = tokens[low : anchor + HASH_WINDOW_TOKENS]
                if window:
                    self.memo[key] = _fnv1a(
                        bytes([_SEPARATOR]).join(t.encode("utf-8") for t in window)
                    )
        return self.memo[key]


def match_location(w_a: AlignedWarning, w_b: AlignedWarning, context: MatchContext) -> bool:
    """Stage 1: old warning ``w_a`` and new warning ``w_b`` share category,
    class and method, and the diff-mapped old start line lands within
    LOCATION_OFFSET_LIMIT lines of ``w_b``."""
    if w_a.new_type != w_b.new_type or w_a.class_info != w_b.class_info:
        return False
    target = context.location_target(w_a)
    if target is None or abs(target - w_b.start_line) > LOCATION_OFFSET_LIMIT:
        return False
    method_a = context.raws_old[w_a.origin[1]].method_path
    method_b = context.raws_new[w_b.origin[1]].method_path
    # The method condition is vacuous when either side omits the method.
    return method_a is None or method_b is None or method_a == method_b


def match_snippet(w_a: AlignedWarning, w_b: AlignedWarning, context: MatchContext) -> bool:
    """Stage 2: same category and class, and identical trimmed warned text."""
    if w_a.new_type != w_b.new_type or w_a.class_info != w_b.class_info:
        return False
    snippet_a = context.snippet("old", w_a)
    return snippet_a is not None and snippet_a == context.snippet("new", w_b)


def match_hash(w_a: AlignedWarning, w_b: AlignedWarning, context: MatchContext) -> bool:
    """Stage 3: same category and identical token-window hash."""
    if w_a.new_type != w_b.new_type:
        return False
    hash_a = context.window_hash("old", w_a)
    return hash_a is not None and hash_a == context.window_hash("new", w_b)


def match_warning(
    w_a: AlignedWarning,
    candidates: list[AlignedWarning],
    context: MatchContext,
) -> MatchOutcome:
    """Run the cascade for one old warning over the unconsumed candidates.

    Within a stage the candidate with minimal |start-line difference| wins
    (for the location stage the difference is taken from the diff-mapped old
    line); remaining ties go to the canonically first candidate.
    """
    stages = (
        (MatchStage.LOCATION, match_location, context.location_target(w_a)),
        (MatchStage.SNIPPET, match_snippet, w_a.start_line),
        (MatchStage.HASH, match_hash, w_a.start_line),
    )
    for stage, predicate, anchor in stages:
        hits = [
            (abs(anchor - c.start_line), warning_sort_key(c), c)
            for c in candidates
            if predicate(w_a, c, context)
        ]
        if hits:
            return MatchOutcome(min(hits, key=itemgetter(0, 1))[2], stage)
    return MatchOutcome(None, None)


@dataclass(frozen=True)
class AuditRecord:
    """Per-old-warning trace of what the cascade decided and why."""

    class_info: str
    start_line: int
    new_type: str
    outcome: WarningLabel
    stage: MatchStage | None
    matched_line: int | None
    matched_origin: int | None


def _is_gone(warning: AlignedWarning, context: MatchContext) -> bool:
    """True when the warned code cannot be judged in the newer release."""
    if context.resolve("old", warning.class_info) in context.mapping.deleted_files:
        return True
    return context.resolve("new", warning.class_info) is None


def label_release_detailed(
    snapshot: ProjectSnapshot,
    sca: ScaId,
    mapping: GdcMapping,
    line_mapping: LineMapping | None = None,
) -> tuple[list[AlignedWarning], list[AuditRecord]]:
    """Label one analyzer's old-release warnings, returning an audit trail.

    Matched warnings are unactionable; unmatched ones are actionable unless
    their file was deleted or their class no longer resolves, in which case
    they are unknown.  Output is in canonical order.
    """
    if sca not in snapshot.reports_old:
        raise SchemaError(f"project {snapshot.project_id} has no {sca!r} report")
    raws_old = snapshot.reports_old[sca]
    raws_new = snapshot.reports_new[sca]
    if line_mapping is None:
        line_mapping = compute_line_mapping(snapshot.release_old, snapshot.release_new)
    context = MatchContext(
        old=snapshot.release_old,
        new=snapshot.release_new,
        mapping=line_mapping,
        raws_old=raws_old,
        raws_new=raws_new,
    )
    old_canon = [canonicalize(raw, mapping, i) for i, raw in enumerate(raws_old)]
    new_canon = [canonicalize(raw, mapping, i) for i, raw in enumerate(raws_new)]
    available = dict(enumerate(new_canon))

    labeled: list[AlignedWarning] = []
    audit: list[AuditRecord] = []
    for warning in sort_warnings(old_canon):
        candidates = [available[i] for i in sorted(available)]
        outcome = match_warning(warning, candidates, context)
        if outcome.matched is not None:
            available.pop(outcome.matched.origin[1])
            label = WarningLabel.UNACTIONABLE
        elif _is_gone(warning, context):
            label = WarningLabel.UNKNOWN
        else:
            label = WarningLabel.ACTIONABLE
        labeled.append(replace(warning, label=label))
        audit.append(
            AuditRecord(
                class_info=warning.class_info,
                start_line=warning.start_line,
                new_type=warning.new_type,
                outcome=label,
                stage=outcome.stage,
                matched_line=outcome.matched.start_line if outcome.matched else None,
                matched_origin=outcome.matched.origin[1] if outcome.matched else None,
            )
        )
    return labeled, audit

