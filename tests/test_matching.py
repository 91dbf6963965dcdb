"""Line mapping, the three matching stages, cascade order, and labeling."""

from __future__ import annotations

import re
import time
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    A,
    U,
    UNKNOWN,
    MatchContext,
    aw,
    identity_mapping,
    label_snapshot,
    match_hash,
    match_location,
    match_snippet,
    raw,
    release,
    snapshot,
)
from sca_reco.core import WarningLabel
from sca_reco.exceptions import SchemaError
from sca_reco.matching import (
    MatchStage,
    ReleasePair,
    compute_line_mapping,
    hash_window,
    resolve_class_file,
    token_stream,
)

FOO = "com.example.Foo"
BAR = "com.example.Bar"


def class_file(class_name: str, body: list[str]) -> list[str]:
    return [f"package com.example;", "", f"public class {class_name} " + "{"] + body + ["}"]


def token_body(n_pre: int = 30, warned: str = "    int warned_value = risky_call();",
               n_post: int = 10) -> list[str]:
    # enough filler tokens that the class declaration stays outside the
    # 50-token hash window around the warned line
    pre = [f"    int pre_{i} = {i};" for i in range(n_pre)]
    post = [f"    int post_{i} = {i};" for i in range(n_post)]
    return pre + [warned] + post


WARNED_LINE = 3 + 30 + 1  # package, blank, class decl, 30 filler lines


# line mapping


def test_identity_release_maps_every_line():
    files = {"com/example/Foo.java": class_file("Foo", ["    int x;"])}
    mapping = compute_line_mapping(release(files), release(files, old=False))
    n = len(files["com/example/Foo.java"])
    assert mapping.files["com/example/Foo.java"] == {k: k for k in range(1, n + 1)}
    assert mapping.deleted_files == frozenset()


def test_insertion_shifts_mapping():
    old_lines = [f"line {k}" for k in range(10)]
    new_lines = ["// a", "// b"] + old_lines
    mapping = compute_line_mapping(
        release({"F.java": old_lines}), release({"F.java": new_lines}, old=False)
    )
    assert mapping.files["F.java"] == {k: k + 2 for k in range(1, 11)}


def test_removed_file_recorded_as_deleted():
    mapping = compute_line_mapping(
        release({"A.java": ["x"], "B.java": ["y"]}),
        release({"A.java": ["x"]}, old=False),
    )
    assert mapping.deleted_files == frozenset({"B.java"})


def test_changed_line_absent_from_mapping():
    mapping = compute_line_mapping(
        release({"F.java": ["a", "b", "c"]}),
        release({"F.java": ["a", "edited", "c"]}, old=False),
    )
    assert mapping.files["F.java"] == {1: 1, 3: 3}


# class-file resolution


def test_resolve_prefers_package_path():
    rel = release({
        "com/example/Foo.java": ["class Foo {}"],
        "other/Foo.java": ["class Foo {}"],
    })
    assert resolve_class_file(rel, FOO) == "com/example/Foo.java"


def test_resolve_falls_back_to_suffix():
    rel = release({"src/main/java/com/example/Foo.java": ["class Foo {}"]})
    assert resolve_class_file(rel, FOO) == "src/main/java/com/example/Foo.java"


def test_resolve_inner_class_uses_outer_file():
    rel = release({"com/example/Foo.java": ["class Foo {}"]})
    assert resolve_class_file(rel, "com.example.Foo$Inner") == "com/example/Foo.java"


def test_resolve_unknown_class():
    assert resolve_class_file(release({}), FOO) is None


# location stage


def make_context(old_files, new_files, raws_old=(), raws_new=()):
    """One MatchContext for a release pair; warnings index the reports by origin."""
    releases = ReleasePair.diff(release(old_files), release(new_files, old=False))
    return MatchContext(releases, raws_old=tuple(raws_old), raws_new=tuple(raws_new))


def location_fixture(new_start: int, method_a="a", method_b="a"):
    files = {"com/example/Foo.java": [f"line {k}" for k in range(1, 30)]}
    raw_a = raw(method=method_a, start=12, end=12)
    raw_b = raw(method=method_b, start=new_start, end=new_start)
    context = make_context(files, files, [raw_a], [raw_b])
    w_a = aw(class_info=FOO, start=12, end=12)
    w_b = aw(class_info=FOO, start=new_start, end=new_start)
    return w_a, w_b, context


def test_location_zero_offset():
    assert match_location(*location_fixture(12))


def test_location_offset_boundary():
    assert match_location(*location_fixture(15))
    assert not match_location(*location_fixture(16))


def test_location_method_path_must_agree():
    assert not match_location(*location_fixture(12, method_a="a", method_b="b"))
    # the condition is vacuous when either side omits the method
    assert match_location(*location_fixture(12, method_a=None, method_b="b"))
    assert match_location(*location_fixture(12, method_a="a", method_b=None))


def test_location_type_and_class_must_agree():
    w_a, w_b, context = location_fixture(12)
    other_type = aw(new_type="resource_leak", class_info=FOO, start=12, end=12)
    assert not match_location(w_a, other_type, context)
    other_class = aw(class_info=BAR, start=12, end=12)
    assert not match_location(w_a, other_class, context)


def test_location_deleted_line_falls_back_to_line_above():
    old_lines = ["keep 1", "keep 2", "warned text", "keep 3"]
    new_lines = ["keep 1", "keep 2", "replacement", "keep 3"]
    context = make_context(
        {"com/example/Foo.java": old_lines},
        {"com/example/Foo.java": new_lines},
        [raw(start=3)],
        [raw(start=5), raw(start=6)],
    )
    w_a = aw(class_info=FOO, start=3, end=3)
    # old line 3 was changed; the nearest surviving line above (2) maps to 2,
    # so a candidate at line 2..5 is still within the offset limit
    w_b = aw(class_info=FOO, start=5, end=5, index=0)
    assert match_location(w_a, w_b, context)
    w_far = aw(class_info=FOO, start=6, end=6, index=1)
    assert not match_location(w_a, w_far, context)


def walk_target(file_map: dict[int, int], start_line: int) -> int | None:
    """The new line of the nearest mapped old line at or above ``start_line``,
    found by walking up one line at a time."""
    for line in range(start_line, 0, -1):
        if line in file_map:
            return file_map[line]
    return None


@settings(max_examples=200, deadline=None)
@given(
    old=st.lists(st.sampled_from("abc"), max_size=25),
    new=st.lists(st.sampled_from("abc"), max_size=25),
    start=st.integers(1, 40),
    class_info=st.sampled_from([FOO, BAR]),
    deleted=st.booleans(),
)
def test_location_target_equals_the_line_walk(old, new, start, class_info, deleted):
    new_files = {} if deleted else {"com/example/Foo.java": new}
    releases = make_context({"com/example/Foo.java": old}, new_files).releases
    file_map = releases.mapping.files.get("com/example/Foo.java", {}) if class_info == FOO else {}
    warning = aw(class_info=class_info, start=start)
    assert releases.location_target(warning) == walk_target(file_map, start)


def test_location_target_of_a_huge_start_line_returns_at_once():
    lines = [f"line {k}" for k in range(1, 30)]
    releases = make_context(
        {"com/example/Foo.java": lines}, {"com/example/Foo.java": ["new"] + lines}
    ).releases
    began = time.perf_counter()
    assert releases.location_target(aw(class_info=FOO, start=10**12)) == 30
    assert time.perf_counter() - began < 1.0


# snippet stage


def test_snippet_moved_block_matches():
    body = ["    int v = load();", "    use(v);"]
    old_files = {"com/example/Foo.java": class_file("Foo", body)}
    moved = ["    // filler %d" % k for k in range(40)] + body
    new_files = {"com/example/Foo.java": class_file("Foo", moved)}
    w_a = aw(class_info=FOO, start=4, end=5)
    w_b = aw(class_info=FOO, start=44, end=45, index=1)
    assert match_snippet(w_a, w_b, make_context(old_files, new_files))


def test_snippet_edited_text_fails():
    old_files = {"com/example/Foo.java": class_file("Foo", ["    int v = load();"])}
    new_files = {"com/example/Foo.java": class_file("Foo", ["    int v = fetch();"])}
    w_a = aw(class_info=FOO, start=4, end=4)
    w_b = aw(class_info=FOO, start=4, end=4, index=1)
    assert not match_snippet(w_a, w_b, make_context(old_files, new_files))


def test_snippet_requires_same_class():
    body = ["    int v = load();"]
    old_files = {"com/example/Foo.java": class_file("Foo", body)}
    new_files = {"com/example/Bar.java": class_file("Bar", body)}
    w_a = aw(class_info=FOO, start=4, end=4)
    w_b = aw(class_info=BAR, start=4, end=4, index=1)
    assert not match_snippet(w_a, w_b, make_context(old_files, new_files))


def test_snippet_ignores_leading_and_trailing_whitespace():
    old_files = {"com/example/Foo.java": class_file("Foo", ["    int v = load();"])}
    new_files = {"com/example/Foo.java": class_file("Foo", ["\tint v = load();  "])}
    w_a = aw(class_info=FOO, start=4, end=4)
    w_b = aw(class_info=FOO, start=4, end=4, index=1)
    assert match_snippet(w_a, w_b, make_context(old_files, new_files))


# hash stage


def test_hash_survives_class_rename():
    old_files = {"com/example/Foo.java": class_file("Foo", token_body())}
    new_files = {"com/example/Bar.java": class_file("Bar", token_body())}
    w_a = aw(class_info=FOO, start=WARNED_LINE, end=WARNED_LINE)
    w_b = aw(class_info=BAR, start=WARNED_LINE, end=WARNED_LINE, index=1)
    assert match_hash(w_a, w_b, make_context(old_files, new_files))


def test_hash_one_token_flip_fails():
    edited = token_body()
    edited[25] = edited[25].replace("pre_25", "pre_25x")
    old_files = {"com/example/Foo.java": class_file("Foo", token_body())}
    new_files = {"com/example/Foo.java": class_file("Foo", edited)}
    w_a = aw(class_info=FOO, start=WARNED_LINE, end=WARNED_LINE)
    w_b = aw(class_info=FOO, start=WARNED_LINE, end=WARNED_LINE, index=1)
    assert not match_hash(w_a, w_b, make_context(old_files, new_files))


def test_hash_requires_same_type():
    files = {"com/example/Foo.java": class_file("Foo", token_body())}
    w_a = aw(class_info=FOO, start=WARNED_LINE, end=WARNED_LINE)
    w_b = aw(new_type="resource_leak", class_info=FOO, start=WARNED_LINE, end=WARNED_LINE, index=1)
    assert not match_hash(w_a, w_b, make_context(files, files))


def test_hash_window_truncates_at_file_top():
    files = {"com/example/Foo.java": ["int a = 1;", "int b = 2;", "int c = 3;"]}
    w_a = aw(class_info=FOO, start=1, end=1)
    w_b = aw(class_info=FOO, start=1, end=1, index=1)
    assert match_hash(w_a, w_b, make_context(files, files))


def test_hash_empty_file_never_matches():
    old_files = {"com/example/Foo.java": [""]}
    w = aw(class_info=FOO, start=1, end=1)
    assert not match_hash(w, w, make_context(old_files, old_files))


TOKEN = re.compile(r"[A-Za-z0-9_]+")
LONG_BODY = token_body(n_post=30)  # 96 tokens before the warned line, 93 from it


@pytest.mark.parametrize(
    "start_line, width",
    [(1, 50), (WARNED_LINE, 100), (WARNED_LINE + 25, 68), (WARNED_LINE + 40, 50)],
    ids=["top", "middle", "bottom", "past-end"],
)
def test_window_hash_is_the_joined_window_tokens(start_line, width):
    lines = class_file("Foo", LONG_BODY)
    per_line = [TOKEN.findall(line) for line in lines]
    tokens = [token for found in per_line for token in found]
    before = [sum(map(len, per_line[:n])) for n in range(len(lines) + 1)]
    window = hash_window(before, start_line)
    assert len(window) == width
    releases = make_context({"com/example/Foo.java": lines}, {}).releases
    expected = "\x1f".join(tokens[i] for i in window).encode("ascii")
    assert releases.window_hash("old", aw(class_info=FOO, start=start_line)) == expected


def reference_window(lines, start_line: int) -> bytes | None:
    """The hash-stage window as first written: a per-token line list, and
    the first token at or after ``start_line`` found by bisection."""
    tokens = [(n, token) for n, line in enumerate(lines, start=1) for token in TOKEN.findall(line)]
    anchor = bisect_left([n for n, _ in tokens], start_line)
    window = tokens[max(0, anchor - 50) : anchor + 50]
    return "\x1f".join(token for _, token in window).encode("ascii") if window else None


# token-free punctuation and spacing, ASCII tokens, and non-ASCII letters,
# digits and a lone surrogate, which are not tokens
source_lines = st.lists(
    st.text(alphabet="ab_9 {};=.\t\u00e9\u4e16\u0663\uff21\ud800", max_size=16), max_size=60
)


@settings(max_examples=200, deadline=None)
@given(lines=source_lines, start_line=st.integers(1, 70))
def test_window_hash_equals_the_per_line_reference(lines, start_line):
    tokens, before = token_stream(lines)
    per_line = [TOKEN.findall(line) for line in lines]
    assert tokens == [token for found in per_line for token in found]
    assert before == [sum(map(len, per_line[:n])) for n in range(len(lines) + 1)]
    window = hash_window(before, start_line)
    assert 0 <= window.start <= window.stop <= len(tokens)
    releases = make_context({"com/example/Foo.java": lines}, {}).releases
    expected = reference_window(lines, start_line)
    assert releases.window_hash("old", aw(class_info=FOO, start=start_line)) == expected


def test_window_hash_none_without_tokens_or_class():
    files = {"com/example/Foo.java": ["", "  {", "}"]}
    releases = make_context(files, files).releases
    assert releases.window_hash("old", aw(class_info=FOO, start=2)) is None
    assert releases.window_hash("new", aw(class_info="com.example.Ghost", start=2)) is None


def test_hash_ignores_where_tokens_split_across_lines():
    # the same tokens, two statements per line before the warned one and
    # three per line after it
    pre, warned, post = LONG_BODY[:30], LONG_BODY[30], LONG_BODY[31:]
    rejoined = (
        ["".join(pre[i : i + 2]) for i in range(0, 30, 2)]
        + [warned]
        + ["".join(post[i : i + 3]) for i in range(0, 30, 3)]
    )
    old_files = {"com/example/Foo.java": class_file("Foo", LONG_BODY)}
    new_files = {"com/example/Bar.java": class_file("Bar", rejoined)}
    new_line = 3 + 15 + 1
    w_a = aw(class_info=FOO, start=WARNED_LINE, end=WARNED_LINE)
    w_b = aw(class_info=BAR, start=new_line, end=new_line, index=1)
    context = make_context(old_files, new_files)
    assert match_hash(w_a, w_b, context)
    assert context.releases.window_hash("new", w_b).count(b"\x1f") == 99  # 100 tokens


# cascade


def cascade(old_files, new_files, raws_old, raws_new):
    """The audit record of each old warning, labeled by the label pass."""
    snap = snapshot(old_files, new_files, {"alpha": raws_old}, {"alpha": raws_new})
    return label_snapshot(snap, "alpha", identity_mapping())[1]


def test_cascade_prefers_location_over_snippet():
    files = {"com/example/Foo.java": class_file("Foo", ["    int v = load();"] * 3)}
    [record] = cascade(files, files, [raw(start=4)], [raw(start=4), raw(start=6)])
    assert record.stage is MatchStage.LOCATION
    assert record.matched_line == 4


@pytest.mark.parametrize(
    "starts, expected",
    [((6, 4), 4), ((7, 3, 6), 6), ((2, 8), 2), ((5, 4, 6), 5)],
    ids=["lower-of-a-tie", "nearer-above", "lower-at-distance-3", "exact"],
)
def test_location_pick_is_nearest_then_lower_line(starts, expected):
    # an unchanged file maps old line 5 to new line 5; among location hits
    # the nearest line wins, and of two equally near the lower line, which
    # comes first in canonical order
    files = {"com/example/Foo.java": class_file("Foo", ["    int v;"] * 8)}
    [record] = cascade(files, files, [raw(start=5)], [raw(start=start) for start in starts])
    assert record.stage is MatchStage.LOCATION
    assert record.matched_line == expected


def test_cascade_snippet_when_method_renamed():
    old_body = ["    public void a() {", "        int v = load();", "    }"]
    new_body = ["    public void b() {", "        int v = load();", "    }"]
    old_files = {"com/example/Foo.java": class_file("Foo", old_body)}
    new_files = {"com/example/Foo.java": class_file("Foo", new_body)}
    [record] = cascade(old_files, new_files, [raw(method="a", start=5)], [raw(method="b", start=5)])
    assert record.stage is MatchStage.SNIPPET


def test_cascade_hash_distance_tiebreak():
    # a token-free gap gives several lines the same hash window; the
    # candidate nearest to the old start line must win
    body = token_body(n_pre=30, warned="", n_post=10)
    body[30:31] = ["", "", "", "", ""]  # lines 34..38 carry no tokens
    old_files = {"com/example/Foo.java": class_file("Foo", body)}
    new_files = {"com/example/Bar.java": class_file("Bar", body)}
    gap_first = 3 + 30 + 1  # first blank line of the gap
    raws_new = [raw(class_path=BAR, start=gap_first), raw(class_path=BAR, start=gap_first + 4)]
    [record] = cascade(old_files, new_files, [raw(start=gap_first + 1)], raws_new)
    assert record.stage is MatchStage.HASH
    assert record.matched_line == gap_first  # distance 1 beats distance 3


def test_cascade_no_match():
    files = {"com/example/Foo.java": class_file("Foo", ["    int v;"])}
    [record] = cascade(files, files, [raw(start=4)], [])
    assert (record.outcome, record.stage, record.matched_line, record.matched_origin) == (
        A,
        None,
        None,
        None,
    )


# labeling


def test_label_persisting_warning_unactionable():
    files = {"com/example/Foo.java": class_file("Foo", ["    int v = load();"])}
    reports = {"alpha": [raw(start=4)]}
    snap = snapshot(files, files, reports, reports)
    labeled, audit = label_snapshot(snap, "alpha", identity_mapping())
    assert [w.label for w in labeled] == [U]
    assert audit[0].stage is MatchStage.LOCATION
    assert audit[0].matched_line == 4


def test_label_fixed_warning_actionable():
    old_files = {"com/example/Foo.java": class_file("Foo", ["    int v = load();"])}
    new_files = {"com/example/Foo.java": class_file("Foo", ["    int v = safe();"])}
    snap = snapshot(old_files, new_files, {"alpha": [raw(start=4)]}, {"alpha": []})
    labeled = label_snapshot(snap, "alpha", identity_mapping())[0]
    assert [w.label for w in labeled] == [A]


def test_label_deleted_file_unknown():
    old_files = {"com/example/Foo.java": class_file("Foo", ["    int v;"])}
    snap = snapshot(old_files, {"Other.java": ["x"]}, {"alpha": [raw(start=4)]}, {"alpha": []})
    labeled = label_snapshot(snap, "alpha", identity_mapping())[0]
    assert [w.label for w in labeled] == [UNKNOWN]


def test_label_unresolvable_class_unknown():
    files = {"com/example/Foo.java": class_file("Foo", ["    int v;"])}
    ghost = raw(class_path="com.example.Ghost", start=4)
    snap = snapshot(files, files, {"alpha": [ghost]}, {"alpha": []})
    labeled = label_snapshot(snap, "alpha", identity_mapping())[0]
    assert [w.label for w in labeled] == [UNKNOWN]


def test_label_identity_pair_all_unactionable():
    body = token_body(n_pre=6, n_post=6)
    files = {"com/example/Foo.java": class_file("Foo", body)}
    reports = {"alpha": [raw(start=5), raw(start=8, original_type="LEAK"), raw(start=11)]}
    snap = snapshot(files, files, reports, reports)
    labeled = label_snapshot(snap, "alpha", identity_mapping())[0]
    assert all(w.label is U for w in labeled)


def test_label_one_to_one_consumption():
    files = {"com/example/Foo.java": class_file("Foo", ["    int a;", "    int b;"])}
    old_reports = {"alpha": [raw(start=4), raw(start=5)]}
    new_reports = {"alpha": [raw(start=4)]}
    snap = snapshot(files, files, old_reports, new_reports)
    labeled = label_snapshot(snap, "alpha", identity_mapping())[0]
    assert sorted(w.label.value for w in labeled) == ["actionable", "unactionable"]
    # canonical order processes line 4 first, so it wins the single candidate
    assert labeled[0].start_line == 4 and labeled[0].label is U


def test_label_report_order_irrelevant():
    body = token_body(n_pre=6, n_post=6)
    old_files = {"com/example/Foo.java": class_file("Foo", body)}
    edited = list(body)
    edited[7] = "    int changed = other();"
    new_files = {"com/example/Foo.java": class_file("Foo", edited)}
    warnings = [raw(start=5), raw(start=8, original_type="LEAK"), raw(start=11)]
    new_warnings = [raw(start=5), raw(start=11)]

    def run(old_order, new_order):
        snap = snapshot(old_files, new_files, {"alpha": old_order}, {"alpha": new_order})
        labeled = label_snapshot(snap, "alpha", identity_mapping())[0]
        return [(w.class_info, w.start_line, w.new_type, w.label) for w in labeled]

    baseline = run(warnings, new_warnings)
    assert run(warnings[::-1], new_warnings[::-1]) == baseline
    assert run([warnings[1], warnings[0], warnings[2]], new_warnings) == baseline


def test_label_unlisted_analyzer_rejected():
    files = {"com/example/Foo.java": class_file("Foo", [])}
    snap = snapshot(files, files, {"alpha": []}, {"alpha": []})
    with pytest.raises(SchemaError):
        label_snapshot(snap, "missing", identity_mapping())


def test_cascade_dominance_on_reported_pair():
    # when the cascade settles for a later stage, the location stage must
    # genuinely have failed for the reported pair
    old_body = ["    public void a() {", "        int v = load();", "    }"]
    new_body = ["    public void b() {", "        int v = load();", "    }"]
    old_files = {"com/example/Foo.java": class_file("Foo", old_body)}
    new_files = {"com/example/Foo.java": class_file("Foo", new_body)}
    raw_a, raw_b = raw(method="a", start=5), raw(method="b", start=5)
    [record] = cascade(old_files, new_files, [raw_a], [raw_b])
    assert record.stage is MatchStage.SNIPPET
    context = make_context(old_files, new_files, [raw_a], [raw_b])
    w_a = aw(class_info=FOO, start=5, end=5)
    candidate = aw(class_info=FOO, start=5, end=5, index=record.matched_origin)
    assert not match_location(w_a, candidate, context)


def test_labeled_output_in_canonical_order():
    files = {"com/example/Foo.java": class_file("Foo", ["    int a;", "    int b;", "    int c;"])}
    reports = {"alpha": [raw(start=6), raw(start=4), raw(start=5)]}
    snap = snapshot(files, files, reports, reports)
    labeled = label_snapshot(snap, "alpha", identity_mapping())[0]
    assert [w.start_line for w in labeled] == [4, 5, 6]
