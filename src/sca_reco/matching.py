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
3. hash: same category and an identical window of the 100 source tokens
   surrounding the warned line (survives class and file renames).

Matching is one-to-one: old warnings are processed in canonical order and a
consumed candidate is unavailable to later warnings.

The pairwise predicates ``match_location``, ``match_snippet`` and
``match_hash`` are the single definition of each stage: ``match_warning``
runs them as they are, and tests and oracles call the same functions.
``label_release_detailed`` indexes the newer release's warnings by the keys
the predicates compare, so each old warning is tried only against the few
candidates that could match it; the index never decides a match itself.
``ReleasePair`` is the only cache.  It resolves class files, diff-maps old
start lines, cuts snippets and token windows once per project, and all
analyzers of the project share it.  A file is tokenized once, into its
tokens and per-line prefix token counts; a window is cut from those counts
and joined from its slice of the tokens.  A diff-mapped start line is found
by bisection over the file's sorted mapped old lines, so its cost does not
grow with the start line a report gives.
"""

from __future__ import annotations

import string
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate, chain
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

_SEPARATOR = "\x1f"


# Tokens are the runs of ASCII letters, digits and underscores.  The table
# blanks every other byte except the line break, so each line's tokens are
# left separated by spaces.  A non-ASCII character (a lone surrogate too,
# through "surrogatepass") encodes to bytes of 0x80 and above, all of which
# are blanked, so every text takes the same table lookup in C.
_TOKEN_BYTES = (string.ascii_letters + string.digits + "_\n").encode("ascii")
_TOKEN_TEXT = bytes(byte if byte in _TOKEN_BYTES else 0x20 for byte in range(256))


class MatchStage(Enum):
    LOCATION = "location"
    SNIPPET = "snippet"
    HASH = "hash"


@dataclass(frozen=True)
class MatchOutcome:
    """Result of matching one old warning against the newer release."""

    matched: AlignedWarning | None
    stage: MatchStage | None


_NO_MATCH = MatchOutcome(None, None)


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


def token_stream(lines: Sequence[str]) -> tuple[list[str], list[int]]:
    """All identifier/number tokens of a file, and where each line's tokens start.

    ``lines`` are the file's lines without their line breaks.  Returns the
    tokens in file order, and the prefix counts ``before``:
    ``before[i]`` is the number of tokens on the first ``i`` lines, so the
    tokens of 1-based line ``n`` are ``tokens[before[n - 1] : before[n]]``
    and ``before[-1]`` is the total.
    """
    blanked = "\n".join(lines).encode("utf-8", "surrogatepass").translate(_TOKEN_TEXT)
    text = blanked.decode("ascii")
    per_line = list(map(str.split, text.split("\n"))) if lines else []
    return list(chain.from_iterable(per_line)), list(accumulate(map(len, per_line), initial=0))


def hash_window(before: list[int], start_line: int) -> range:
    """The indices of the tokens the hash-stage window at ``start_line`` covers.

    ``before`` holds the per-line prefix token counts, as ``token_stream``
    returns them.  The window is the HASH_WINDOW_TOKENS tokens before the
    first token at or after ``start_line`` plus the same count from that
    token onward, truncated at file boundaries.
    """
    anchor = before[min(start_line - 1, len(before) - 1)]
    return range(max(0, anchor - HASH_WINDOW_TOKENS), min(before[-1], anchor + HASH_WINDOW_TOKENS))


@dataclass(frozen=True)
class ReleasePair:
    """One project's two releases, their line mapping, and a memo over them.

    A project builds one pair and shares it across all its analyzers.  The
    memo caches class-file resolutions, each old file's sorted mapped lines
    and the location targets found in them, snippets, token streams and
    token windows.  Each of these is a pure function of the two
    releases and their line mapping, never of a report, so sharing the memo
    cannot change any outcome.  ``which`` names a side, ``"old"`` or
    ``"new"``.  The memo lives as long as the pair: one project, never a
    whole corpus.
    """

    old: Release
    new: Release
    mapping: LineMapping
    memo: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def diff(cls, old: Release, new: Release) -> ReleasePair:
        return cls(old, new, compute_line_mapping(old, new))

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
            path = self.resolve("old", warning.class_info)
            mapped_key = ("mapped", path)
            if mapped_key not in self.memo:
                file_map = self.mapping.files.get(path, {})
                old_lines = sorted(file_map)
                self.memo[mapped_key] = old_lines, [file_map[line] for line in old_lines]
            old_lines, new_lines = self.memo[mapped_key]
            below = bisect_right(old_lines, warning.start_line)
            self.memo[key] = new_lines[below - 1] if below else None
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

    def window_hash(self, which: str, warning: AlignedWarning) -> bytes | None:
        """The ``hash_window`` tokens of the warned start line, joined by
        single 0x1F bytes; None for an unresolved class or a file without
        tokens.  Tokens never contain 0x1F, so equal bytes mean equal token
        sequences: the window is its own exact key."""
        key = ("hash", which, warning.class_info, warning.start_line)
        if key not in self.memo:
            self.memo[key] = None
            path = self.resolve(which, warning.class_info)
            if path is not None:
                stream_key = ("tokens", which, path)
                if stream_key not in self.memo:
                    self.memo[stream_key] = token_stream(self._release(which).files[path])
                tokens, before = self.memo[stream_key]
                window = hash_window(before, warning.start_line)
                if window:
                    text = _SEPARATOR.join(tokens[window.start : window.stop])
                    self.memo[key] = text.encode("ascii")
        return self.memo[key]


@dataclass(frozen=True)
class MatchContext:
    """Everything the cascade needs besides the two warnings themselves.

    ``releases`` is the project's shared ``ReleasePair``.  ``raws_old`` and
    ``raws_new`` are one analyzer's source reports; warnings refer into them
    through their origin index.
    """

    releases: ReleasePair
    raws_old: tuple[RawWarning, ...]
    raws_new: tuple[RawWarning, ...]


def match_location(w_a: AlignedWarning, w_b: AlignedWarning, context: MatchContext) -> bool:
    """Stage 1: old warning ``w_a`` and new warning ``w_b`` share category,
    class and method, and the diff-mapped old start line lands within
    LOCATION_OFFSET_LIMIT lines of ``w_b``."""
    if w_a.new_type != w_b.new_type or w_a.class_info != w_b.class_info:
        return False
    target = context.releases.location_target(w_a)
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
    releases = context.releases
    snippet_a = releases.snippet("old", w_a)
    return snippet_a is not None and snippet_a == releases.snippet("new", w_b)


def match_hash(w_a: AlignedWarning, w_b: AlignedWarning, context: MatchContext) -> bool:
    """Stage 3: same category and an identical token window, compared by
    its bytes."""
    if w_a.new_type != w_b.new_type:
        return False
    releases = context.releases
    hash_a = releases.window_hash("old", w_a)
    return hash_a is not None and hash_a == releases.window_hash("new", w_b)


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
    if not candidates:
        return _NO_MATCH
    stages = (
        (MatchStage.LOCATION, match_location, context.releases.location_target(w_a)),
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
    return _NO_MATCH


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


def _is_gone(warning: AlignedWarning, releases: ReleasePair) -> bool:
    """True when the warned code cannot be judged in the newer release."""
    if releases.resolve("old", warning.class_info) in releases.mapping.deleted_files:
        return True
    return releases.resolve("new", warning.class_info) is None


def _index(warnings: list[AlignedWarning], key) -> dict[tuple, list[int]]:
    """Origin indices of ``warnings`` bucketed by ``key``.

    A key whose last part is None (a missing snippet or window) is left out,
    because no predicate accepts a missing value.
    """
    buckets: dict[tuple, list[int]] = {}
    for warning in warnings:
        bucket_key = key(warning)
        if bucket_key[-1] is not None:
            buckets.setdefault(bucket_key, []).append(warning.origin[1])
    return buckets


def label_release_detailed(
    snapshot: ProjectSnapshot,
    sca: ScaId,
    mapping: GdcMapping,
    releases: ReleasePair,
) -> tuple[list[AlignedWarning], list[AuditRecord]]:
    """Label one analyzer's old-release warnings, returning an audit trail.

    Matched warnings are unactionable; unmatched ones are actionable unless
    their file was deleted or their class no longer resolves, in which case
    they are unknown.  Output is in canonical order.

    ``releases`` is the snapshot's ``ReleasePair``; pass the same one for
    every analyzer of a project so that its diff and memo are shared.

    The newer release's warnings are indexed by the keys the predicates
    compare: (category, class, start line) for the location stage, (category,
    class, snippet) for the snippet stage, and (category, token window) for
    the hash stage, built the first time an old warning reaches it.  Each
    old warning hands ``match_warning`` only the unconsumed warnings in its
    location buckets (the diff-mapped target line +- LOCATION_OFFSET_LIMIT)
    and its snippet bucket, and adds its hash bucket when neither the
    location nor the snippet stage matched.  Every warning a stage's
    predicate accepts is in that stage's buckets, and ``match_warning``
    picks by a total order, so any superset of a stage's hits gives the
    same pick as scanning every unconsumed warning.
    """
    if sca not in snapshot.reports_old:
        raise SchemaError(f"project {snapshot.project_id} has no {sca!r} report")
    raws_old = snapshot.reports_old[sca]
    raws_new = snapshot.reports_new[sca]
    context = MatchContext(releases, raws_old, raws_new)
    old_canon = [canonicalize(raw, mapping, i) for i, raw in enumerate(raws_old)]
    new_canon = [canonicalize(raw, mapping, i) for i, raw in enumerate(raws_new)]
    available = set(range(len(new_canon)))
    by_line = _index(new_canon, lambda w: (w.new_type, w.class_info, w.start_line))
    by_snippet = _index(
        new_canon, lambda w: (w.new_type, w.class_info, releases.snippet("new", w))
    )
    by_hash: dict[tuple, list[int]] | None = None

    def unconsumed(buckets: list[list[int]]) -> list[AlignedWarning]:
        # buckets may share a warning; a repeated candidate cannot change
        # the pick, which is the minimum of a total order
        return [new_canon[i] for bucket in buckets for i in bucket if i in available]

    labeled: list[AlignedWarning] = []
    audit: list[AuditRecord] = []
    for warning in sort_warnings(old_canon):
        kind = (warning.new_type, warning.class_info)
        buckets = [by_snippet.get((*kind, releases.snippet("old", warning)), [])]
        target = releases.location_target(warning)
        if target is not None:
            lines = range(target - LOCATION_OFFSET_LIMIT, target + LOCATION_OFFSET_LIMIT + 1)
            buckets += [by_line.get((*kind, line), []) for line in lines]
        outcome = match_warning(warning, unconsumed(buckets), context)
        if outcome.stage is None or outcome.stage is MatchStage.HASH:
            # a hash hit among these candidates may not be the nearest one
            if by_hash is None:
                by_hash = _index(
                    new_canon, lambda w: (w.new_type, releases.window_hash("new", w))
                )
            hash_key = (warning.new_type, releases.window_hash("old", warning))
            buckets.append(by_hash.get(hash_key, []))
            outcome = match_warning(warning, unconsumed(buckets), context)
        if outcome.matched is not None:
            available.remove(outcome.matched.origin[1])
            label = WarningLabel.UNACTIONABLE
        elif _is_gone(warning, releases):
            label = WarningLabel.UNKNOWN
        else:
            label = WarningLabel.ACTIONABLE
        labeled.append(
            AlignedWarning(
                warning.new_type,
                warning.class_info,
                warning.start_line,
                warning.end_line,
                label,
                warning.origin,
            )
        )
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
