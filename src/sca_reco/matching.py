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

Each stage is defined once, by its keys: ``location_kind`` with
``location_lines`` (and the ``methods_agree`` condition), ``snippet_key``
and ``hash_key``.  A pair passes a stage exactly when the new warning's key
is one the old warning's keys accept.  The cascade (``_Pool``) indexes one
analyzer's newer-release warnings by each stage's key, and the index
decides a stage's hits: they are the unconsumed members of the buckets the
old warning's keys look up.  ``label_release_detailed`` is the cascade's
one entry point: it reads a report's entries as ``_Site`` records, far
cheaper to build than an ``AlignedWarning``, runs each old site through
the pool, and builds each old warning's ``AlignedWarning`` once, from its
site, with its label.  The pairwise predicates that restate each rule for
one pair live with the tests, which check the indexed keys against them.

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

from .core import (
    AlignedWarning,
    ProjectSnapshot,
    RawWarning,
    Release,
    ScaId,
    WarningLabel,
    warning_sort_key,
)
from .exceptions import SchemaError
from .ingestion import GdcMapping
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


@dataclass(slots=True)
class _Site:
    """A report entry's canonical fields before it has a label, and its
    method path: what the cascade reads of a warning, old or new.
    ``ReleasePair`` reads a site as it reads an ``AlignedWarning``."""

    new_type: str
    class_info: str
    start_line: int
    end_line: int
    origin: tuple[ScaId, int]
    method: str | None


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

    def location_target(self, warning: AlignedWarning | _Site) -> int | None:
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

    def snippet(self, which: str, warning: AlignedWarning | _Site) -> str | None:
        """The whitespace-trimmed text of the warned lines, joined."""
        key = ("snippet", which, warning.class_info, warning.start_line, warning.end_line)
        if key not in self.memo:
            path = self.resolve(which, warning.class_info)
            if path is None:
                self.memo[key] = None
            else:
                lines = self._release(which).files[path]
                window = lines[warning.start_line - 1 : warning.end_line]
                self.memo[key] = "".join(map(str.strip, window)) if window else None
        return self.memo[key]

    def window_hash(self, which: str, warning: AlignedWarning | _Site) -> bytes | None:
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


def location_kind(warning: _Site) -> tuple[str, str]:
    """Stage 1's key less its line: category and class."""
    return warning.new_type, warning.class_info


# Offsets from the location target, nearest first and the lower line first
# among equally near ones.
_NEAREST_OFFSETS = sorted(
    range(-LOCATION_OFFSET_LIMIT, LOCATION_OFFSET_LIMIT + 1), key=lambda d: (abs(d), d)
)


def location_lines(releases: ReleasePair, warning: _Site) -> list[int]:
    """The start lines stage 1 accepts for an older-release warning, in
    pick order: each line within LOCATION_OFFSET_LIMIT of its diff-mapped
    target, nearest first and the lower of two equally near lines first;
    none without a target."""
    target = releases.location_target(warning)
    return [] if target is None else [target + offset for offset in _NEAREST_OFFSETS]


def methods_agree(method_a: str | None, method_b: str | None) -> bool:
    """Stage 1's method condition, vacuous when either side omits the method."""
    return method_a is None or method_b is None or method_a == method_b


def snippet_key(releases: ReleasePair, which: str, warning: _Site) -> tuple | None:
    """Stage 2's key: category, class and the trimmed warned text; None
    when the text is missing."""
    snippet = releases.snippet(which, warning)
    return None if snippet is None else (warning.new_type, warning.class_info, snippet)


def hash_key(releases: ReleasePair, which: str, warning: _Site) -> tuple | None:
    """Stage 3's key: category and the token window's bytes; None when the
    window is missing."""
    window = releases.window_hash(which, warning)
    return None if window is None else (warning.new_type, window)


def _index(warnings: list[_Site], key) -> dict[tuple, list[int]]:
    """Positions in ``warnings`` bucketed by ``key``, each bucket ascending;
    a warning whose key is None is left out."""
    buckets: dict[tuple, list[int]] = {}
    for position, warning in enumerate(warnings):
        bucket_key = key(warning)
        if bucket_key is not None:
            buckets.setdefault(bucket_key, []).append(position)
    return buckets


class _Pool:
    """One analyzer's unconsumed newer-release warnings, indexed by stage key.

    ``warnings`` are in canonical order, and the indexes hold positions in
    it, so a bucket lists its warnings in canonical order.  The location
    index maps a warning's ``location_kind`` to its start line and then to
    its bucket.  Every warning a stage accepts is in the buckets of that
    stage's keys, which the stage looks up and nothing else.  The hash
    index is built the first time a warning reaches the hash stage.
    """

    def __init__(self, warnings: list[_Site], releases: ReleasePair):
        self.releases = releases
        self.warnings = warnings
        self.available = [True] * len(warnings)
        self.by_location: dict[tuple[str, str], dict[int, list[int]]] = {}
        for position, warning in enumerate(warnings):
            lines = self.by_location.setdefault(location_kind(warning), {})
            lines.setdefault(warning.start_line, []).append(position)
        self.by_snippet = _index(warnings, lambda w: snippet_key(releases, "new", w))
        self.by_hash: dict[tuple, list[int]] | None = None

    def take(self, warning: _Site) -> tuple[int, MatchStage] | None:
        """Run the cascade for older-release ``warning``: the position of
        the warning it matches, which is then consumed, and the stage; None
        when no stage matches."""
        hit = self._match(warning)
        if hit is not None:
            self.available[hit[0]] = False
        return hit

    def _match(self, warning: _Site) -> tuple[int, MatchStage] | None:
        """Each stage in turn picks its hit of minimal |start-line
        difference|, taken from the diff-mapped line for the location stage,
        and then the canonically first.  The location lines come nearest
        first and a bucket in canonical order, so the first location hit is
        the pick."""
        releases, available, warnings = self.releases, self.available, self.warnings
        lines = self.by_location.get(location_kind(warning))
        if lines:
            for line in location_lines(releases, warning):
                for position in lines.get(line, ()):
                    if available[position] and methods_agree(
                        warning.method, warnings[position].method
                    ):
                        return position, MatchStage.LOCATION
        bucket = self.by_snippet.get(snippet_key(releases, "old", warning))
        position = self._nearest(bucket, warning.start_line)
        if position is not None:
            return position, MatchStage.SNIPPET
        key = hash_key(releases, "old", warning)
        if key is not None:
            if self.by_hash is None:
                self.by_hash = _index(self.warnings, lambda w: hash_key(releases, "new", w))
            position = self._nearest(self.by_hash.get(key), warning.start_line)
            if position is not None:
                return position, MatchStage.HASH
        return None

    def _nearest(self, bucket: list[int] | None, line: int) -> int | None:
        """The available position of ``bucket`` whose warning starts nearest
        ``line``, the canonically first among equally near ones."""
        best = best_distance = None
        for position in bucket or ():
            if self.available[position]:
                distance = abs(line - self.warnings[position].start_line)
                if best is None or distance < best_distance:
                    best, best_distance = position, distance
        return best


@dataclass(frozen=True)
class AuditRecord:
    """Per-old-warning trace of what the cascade decided and why; the
    warning it traces is the ``AlignedWarning`` at the same position."""

    outcome: WarningLabel
    stage: MatchStage | None
    matched_line: int | None
    matched_origin: int | None


def _sites(raws: Sequence[RawWarning], mapping: GdcMapping) -> list[_Site]:
    """The sites of a report's entries, in canonical order."""
    lookup = mapping.lookup
    sites = [
        _Site(
            lookup(raw.sca, raw.original_type),
            raw.class_path,
            raw.start_line,
            raw.end_line,
            (raw.sca, i),
            raw.method_path,
        )
        for i, raw in enumerate(raws)
    ]
    sites.sort(key=warning_sort_key)
    return sites


def _is_gone(warning: _Site, releases: ReleasePair) -> bool:
    """True when the warned code cannot be judged in the newer release."""
    if releases.resolve("old", warning.class_info) in releases.mapping.deleted_files:
        return True
    return releases.resolve("new", warning.class_info) is None


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

    The newer release's warnings form one ``_Pool``, and each old warning,
    in canonical order, takes its match from it.  Each old warning's
    ``AlignedWarning`` is built once, from its site, with its label.
    """
    if sca not in snapshot.reports_old:
        raise SchemaError(f"project {snapshot.project_id} has no {sca!r} report")
    old_sites = _sites(snapshot.reports_old[sca], mapping)
    pool = _Pool(_sites(snapshot.reports_new[sca], mapping), releases)
    labeled: list[AlignedWarning] = []
    audit: list[AuditRecord] = []
    for site in old_sites:
        hit = pool.take(site)
        if hit is not None:
            position, stage = hit
            matched = pool.warnings[position]
            matched_line, matched_origin = matched.start_line, matched.origin[1]
            label = WarningLabel.UNACTIONABLE
        else:
            stage = matched_line = matched_origin = None
            if _is_gone(site, releases):
                label = WarningLabel.UNKNOWN
            else:
                label = WarningLabel.ACTIONABLE
        labeled.append(
            AlignedWarning(
                site.new_type, site.class_info, site.start_line, site.end_line, label, site.origin
            )
        )
        audit.append(AuditRecord(label, stage, matched_line, matched_origin))
    return labeled, audit
