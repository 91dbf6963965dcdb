"""The indexed label cascade and alignment against brute-force references.

``reference_label`` and ``reference_align`` are the full scans the indexes
replaced.  ``reference_label`` runs each old warning, in canonical order,
through ``reference_match``, a scan of the pairwise predicates of
``helpers`` over every new-release warning not yet taken, and then takes
its match away.  So the stage keys the cascade looks up are checked against
an independent statement of each rule, and the picks and consumption of the
cascade against a scan that shares none of its code.
``reference_align`` tries every unconsumed warning of a later analyzer
against a group.  ``test_alignment_invariants`` states what every group
and discarded pair must be on the same draws, since nothing checks a group
as it is built.
The indexed code must give the same labels, audit records and groups on
tie-heavy inputs, and the stage keys it computes and the bucket members it
examines must grow linearly with the warnings per project.

``FnvReleasePair`` is the hash stage as it first was: each token window
reduced to its 64-bit FNV-1a hash.  The stage now compares the window bytes
themselves, which can differ from it only on a hash collision.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (
    A,
    ALIGNED_SCAS,
    U,
    UNKNOWN,
    MatchContext,
    canonical_key,
    canonicalize,
    identity_mapping,
    label_snapshot,
    labeled_warnings,
    match_hash,
    match_location,
    match_snippet,
    raw,
    same_defect,
    snapshot,
)
from sca_reco import alignment, matching
from sca_reco.alignment import (
    AlignedGroup,
    AlignmentResult,
    DiscardedPair,
    align_project,
)
from sca_reco.core import WarningLabel
from sca_reco.ingestion import load_snapshot
from sca_reco.matching import (
    AuditRecord,
    MatchStage,
    ReleasePair,
    hash_window,
    label_release_detailed,
    token_stream,
)
from sca_reco.pipeline import evaluate_corpus, label_project, load_corpus_context
from sca_reco.synth import SynthConfig, generate_corpus

SCAS = ("alpha", "beta")


def reference_label(snap, sca, mapping):
    """The cascade as a full scan: each old warning, in canonical order,
    takes its ``reference_match`` among the new warnings not yet taken."""
    raws_old, raws_new = snap.reports_old[sca], snap.reports_new[sca]
    releases = ReleasePair.diff(snap.release_old, snap.release_new)
    context = MatchContext(releases, raws_old, raws_new)
    old_canon = [canonicalize(r, mapping, i) for i, r in enumerate(raws_old)]
    available = [canonicalize(r, mapping, i) for i, r in enumerate(raws_new)]
    labeled, audit = [], []
    # old files the newer release lacks
    deleted = set(snap.release_old.files) - set(snap.release_new.files)
    for warning in sorted(old_canon, key=canonical_key):
        matched, stage = reference_match(warning, available, context)
        if matched is not None:
            available.remove(matched)
            label = U
        elif (
            releases.resolve("old", warning.class_info) in deleted
            or releases.resolve("new", warning.class_info) is None
        ):
            label = UNKNOWN
        else:
            label = A
        labeled.append(warning._replace(label=label))
        audit.append(
            AuditRecord(
                outcome=label,
                stage=stage,
                matched_line=matched.start_line if matched else None,
                matched_origin=matched.origin[1] if matched else None,
            )
        )
    return labeled, audit


def reference_match(w_a, candidates, context):
    """The cascade for one old warning as a scan of the pairwise
    predicates: each stage's hits are the candidates its predicate accepts,
    and the pick is the hit of minimal (start-line distance, canonical key),
    the distance taken from the diff-mapped line for the location stage.
    Returns the pick and its stage, or (None, None)."""
    stages = (
        (MatchStage.LOCATION, match_location, context.releases.location_target(w_a)),
        (MatchStage.SNIPPET, match_snippet, w_a.start_line),
        (MatchStage.HASH, match_hash, w_a.start_line),
    )
    for stage, predicate, anchor in stages:
        hits = [
            (abs(anchor - c.start_line), canonical_key(c), c)
            for c in candidates
            if predicate(w_a, c, context)
        ]
        if hits:
            return min(hits, key=lambda hit: hit[:2])[2], stage
    return None, None


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a(data: bytes) -> int:
    value = _FNV_OFFSET
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return value


class FnvReleasePair(ReleasePair):
    """A ``ReleasePair`` whose windows are FNV-1a values, cut unmemoized."""

    def window_hash(self, which, warning):
        path = self.resolve(which, warning.class_info)
        if path is None:
            return None
        tokens, before = token_stream(self._release(which).files[path])
        first, stop = hash_window(before, warning.start_line)
        if first == stop:
            return None
        return fnv1a(b"\x1f".join(tokens[first:stop]))


def reference_align(labeled, sca_order):
    """The greedy alignment as a full scan of every later analyzer's pool."""
    pools = {sca: sorted(labeled.get(sca, ()), key=canonical_key) for sca in sca_order}
    consumed = set()
    raw_groups = []
    for i, sca in enumerate(sca_order):
        for seed in pools[sca]:
            if seed.origin in consumed:
                continue
            consumed.add(seed.origin)
            members = [seed]
            for later in sca_order[i + 1 :]:
                best = best_key = None
                for candidate in pools[later]:
                    if candidate.origin in consumed:
                        continue
                    if not all(same_defect(m, candidate) for m in members):
                        continue
                    distance = sum(abs(candidate.start_line - m.start_line) for m in members)
                    key = (distance, canonical_key(candidate))
                    if best_key is None or key < best_key:
                        best, best_key = candidate, key
                if best is not None:
                    consumed.add(best.origin)
                    members.append(best)
            raw_groups.append(members)
    groups, discarded = [], []
    for members in raw_groups:
        labels = [m.label for m in members]
        members = tuple(sorted(members, key=canonical_key))
        if len(set(labels)) == 1:
            groups.append(AlignedGroup(members, labels[0]))
        elif len(labels) == 2:
            discarded.append(DiscardedPair(members))
        else:
            groups.append(AlignedGroup(members, max(set(labels), key=labels.count)))
    groups.sort(key=lambda g: canonical_key(g.members[0]))
    discarded.sort(key=lambda d: canonical_key(d.members[0]))
    return AlignmentResult(tuple(groups), tuple(discarded))


# Few distinct lines, so snippets repeat; token-free lines ("{", "}", blank)
# give many lines one window hash; a long line makes windows differ.
LINE_TEXTS = ("int a = b;", "call(a);", "return x;", "}", "{", "", "    ") + (
    " ".join(f"t{k}" for k in range(20)),
)
CLASSES = ("com.example.Foo", "com.example.Bar", "com.example.Baz", "com.example.Ghost")
PATHS = {"com.example.Foo": "com/example/Foo.java", "com.example.Bar": "src/com/example/Bar.java"}

lines_st = st.lists(st.sampled_from(LINE_TEXTS), min_size=1, max_size=14)
# Files long enough that a window can be cut at the top, in the middle or at
# the bottom of the file.
long_lines_st = st.lists(
    st.sampled_from(LINE_TEXTS + (" ".join(f"u{k}" for k in range(40)),)),
    min_size=1,
    max_size=32,
)


@st.composite
def edited(draw, lines):
    """``lines`` after a few insertions, deletions and replacements."""
    lines = list(lines)
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(("insert", "delete", "replace")))
        at = draw(st.integers(0, len(lines)))
        text = draw(st.sampled_from(LINE_TEXTS))
        if op == "insert":
            lines.insert(at, text)
        elif lines and at < len(lines):
            if op == "delete":
                del lines[at]
            else:
                lines[at] = text
    return lines


@st.composite
def release_pairs(draw, file_lines=lines_st):
    old_files, new_files = {}, {}
    for class_info, path in PATHS.items():
        lines = draw(file_lines)
        old_files[path] = lines
        fate = draw(st.sampled_from(("keep", "edit", "delete", "rename")))
        if fate == "keep":
            new_files[path] = lines
        elif fate == "edit":
            new_files[path] = draw(edited(lines))
        elif fate == "rename":  # the class becomes com.example.Baz
            new_files["com/example/Baz.java"] = draw(edited(lines))
    return old_files, new_files


# Start lines cluster on the first few lines, so candidates share lines.
start_st = st.one_of(st.integers(1, 5), st.integers(1, 18))
long_start_st = st.one_of(st.integers(1, 5), st.integers(1, 34))


def report_st(sca, start=start_st):
    raw_st = st.builds(
        lambda kind, cls, method, first, span: raw(
            sca=sca, original_type=kind, class_path=cls, method=method, start=first, end=first + span
        ),
        st.sampled_from(("NULL_DEREF", "LEAK")),
        st.sampled_from(CLASSES),
        st.sampled_from((None, "m1()", "m2()")),
        start,
        st.integers(0, 2),
    )
    return st.lists(raw_st, max_size=10)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    pair=release_pairs(),
    reports_old=st.fixed_dictionaries({sca: report_st(sca) for sca in SCAS}),
    reports_new=st.fixed_dictionaries({sca: report_st(sca) for sca in SCAS}),
)
def test_indexed_labels_equal_full_scan(pair, reports_old, reports_new):
    old_files, new_files = pair
    snap = snapshot(old_files, new_files, reports_old, reports_new)
    mapping = identity_mapping()
    # one ReleasePair for both analyzers, as label_project shares it
    releases = ReleasePair.diff(snap.release_old, snap.release_new)
    for sca in SCAS:
        indexed = label_release_detailed(snap, sca, mapping, releases)
        assert indexed == reference_label(snap, sca, mapping)
        assert label_snapshot(snap, sca, mapping) == indexed


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    pair=release_pairs(long_lines_st),
    reports_old=st.fixed_dictionaries({sca: report_st(sca, long_start_st) for sca in SCAS}),
    reports_new=st.fixed_dictionaries({sca: report_st(sca, long_start_st) for sca in SCAS}),
)
def test_window_bytes_label_as_fnv_hashes(pair, reports_old, reports_new):
    old_files, new_files = pair
    snap = snapshot(old_files, new_files, reports_old, reports_new)
    mapping = identity_mapping()
    releases = ReleasePair.diff(snap.release_old, snap.release_new)
    fnv_releases = FnvReleasePair.diff(snap.release_old, snap.release_new)
    for sca in SCAS:
        assert label_release_detailed(snap, sca, mapping, releases) == label_release_detailed(
            snap, sca, mapping, fnv_releases
        )


def test_consumed_location_candidates_fall_through_to_hash():
    # Three old warnings on line 1 and one new warning left there.  The
    # other new warnings are a method mismatch inside the location window
    # (line 3) and a warning outside it (line 7).  Every line has the same
    # window hash, because the file has fewer tokens than one window.
    body = ["int a = b;", "}", "", "}", "{", "}", "}"]
    files = {"com/example/Foo.java": body}
    old = [raw(start=1, method="m1()") for _ in range(3)]
    new = [raw(start=1, method="m1()"), raw(start=3, method="m2()"), raw(start=7, method="m1()")]
    snap = snapshot(files, files, {"alpha": old}, {"alpha": new})
    labeled, audit = label_snapshot(snap, "alpha", identity_mapping())
    assert (labeled, audit) == reference_label(snap, "alpha", identity_mapping())
    assert [(r.stage, r.matched_line) for r in audit] == [
        (MatchStage.LOCATION, 1),
        (MatchStage.HASH, 3),
        (MatchStage.HASH, 7),
    ]


def test_hash_hit_among_location_candidates_is_not_final():
    # The old Bar warning misses the location stage (method mismatch) and
    # has no snippet (its line is past the end of the file).  Both files
    # have one window hash, so the Bar candidate in its location bucket is
    # a hash hit at distance 1; the Foo candidate outside its buckets is a
    # nearer one at distance 0 and must win.
    files = {"com/example/Foo.java": ["int a = b;"], "src/com/example/Bar.java": ["int a = b;"]}
    old = [raw(class_path="com.example.Bar", method="m2()", start=2)]
    new = [raw(class_path="com.example.Bar", method="m1()", start=1), raw(start=2)]
    snap = snapshot(files, files, {"alpha": old}, {"alpha": new})
    labeled, audit = label_snapshot(snap, "alpha", identity_mapping())
    assert (labeled, audit) == reference_label(snap, "alpha", identity_mapping())
    assert (audit[0].stage, audit[0].matched_origin) == (MatchStage.HASH, 1)


@settings(max_examples=400, deadline=None)
@given(labeled=labeled_warnings(), order=st.permutations(ALIGNED_SCAS))
def test_indexed_alignment_equals_full_scan(labeled, order):
    assert align_project(labeled, order) == reference_align(labeled, order)


def voted(labels) -> WarningLabel:
    """The label a group of these member labels resolves to."""
    return A if labels.count(A) * 2 > len(labels) else U


@settings(max_examples=300, deadline=None)
@given(labeled=labeled_warnings(), order=st.permutations(ALIGNED_SCAS))
def test_alignment_invariants(labeled, order):
    result = align_project(labeled, order)
    seen = []
    for group in result.groups:
        members = group.members
        assert 1 <= len(members) <= 3
        assert len({m.origin[0] for m in members}) == len(members)
        assert list(members) == sorted(members, key=canonical_key)
        if len(members) > 1:
            assert all(same_defect(a, b) for a, b in combinations(members, 2))
        labels = [m.label for m in members]
        assert len(set(labels)) == 1 or len(members) == 3
        assert group.resolved_label is voted(labels)
        seen += members
    for pair in result.discarded:
        a, b = pair.members
        assert a.origin[0] != b.origin[0] and a.label is not b.label
        assert same_defect(*pair.members)
        assert list(pair.members) == sorted(pair.members, key=canonical_key)
        seen += pair.members
    judged = [w for warnings in labeled.values() for w in warnings]
    assert Counter(w.origin for w in seen) == Counter(w.origin for w in judged)


# quadratic guard: stage work per warning stays flat as projects grow


@pytest.fixture(scope="module")
def grown_corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("grown")
    corpora = {}
    for files in (8, 16, 32):
        out = root / f"files{files}"
        generate_corpus(SynthConfig(n_projects=1, files_per_project=files, seed=41), out)
        corpora[files] = out
    return corpora


# The per-candidate work left in labeling and aligning: computing a stage's
# keys for a warning, the method condition of each location bucket member
# examined, and the pairwise alignment rule of each candidate examined.  A
# full scan does each of these once per candidate, so it grows
# quadratically with the warnings per project.
COUNTED = {
    matching: ("location_lines", "snippet_key", "hash_key", "methods_agree"),
    alignment: ("_same_defect",),
}


def counted_calls(corpus, monkeypatch):
    """Old warnings, and calls of each COUNTED function, for labeling and
    aligning the corpus's one project."""
    calls = Counter()

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, names in COUNTED.items():
        for name in names:
            counting(module, name)
    evaluate_corpus(load_corpus_context(corpus), 1.0)
    monkeypatch.undo()
    snap = load_snapshot(corpus, "p000")
    return sum(len(report) for report in snap.reports_old.values()), calls


def test_predicate_calls_grow_linearly(grown_corpora, monkeypatch):
    sizes = [counted_calls(grown_corpora[f], monkeypatch) for f in (8, 16, 32)]
    for (small_n, small), (large_n, large) in zip(sizes, sizes[1:]):
        assert large_n >= 1.6 * small_n  # the warning count about doubles
        for name in (name for names in COUNTED.values() for name in names):
            assert small[name] > 0, name
            # a full scan would double the calls per warning
            assert large[name] / large_n <= 1.3 * small[name] / small_n, name


def test_each_warning_is_keyed_once_per_stage(grown_corpora, monkeypatch):
    # Labeling one project: every pool keys each newer warning once for the
    # snippet stage and at most once for the hash stage, and an older
    # warning is hash-keyed exactly when neither location nor snippet
    # matched it.  Keying a warning per candidate it is compared with
    # breaks these counts.
    calls = Counter()

    def counting(name):
        inner = getattr(matching, name)

        def wrapper(releases, which, warning):
            calls[name, which] += 1
            return inner(releases, which, warning)

        monkeypatch.setattr(matching, name, wrapper)

    counting("snippet_key")
    counting("hash_key")
    corpus = grown_corpora[16]
    snap = load_snapshot(corpus, "p000")
    labels = label_project(load_corpus_context(corpus), snap)
    monkeypatch.undo()
    newer = sum(map(len, snap.reports_new.values()))
    stages = Counter(record.stage for audit in labels.audits.values() for record in audit)
    past_location = sum(stages.values()) - stages[MatchStage.LOCATION]
    assert calls["snippet_key", "new"] == newer
    assert 0 < calls["snippet_key", "old"] <= past_location
    assert 0 < calls["hash_key", "new"] <= newer
    assert calls["hash_key", "old"] == past_location - stages[MatchStage.SNIPPET] > 0
