"""Acceptance gate: ten end-to-end checks with independent oracles.

Each test prints one pass/fail line in the terminal summary (see conftest).
Oracles here are deliberately written from scratch: closed-form count
formulas, set-algebra confusion counting, maximum bipartite matching by
augmenting paths, and exhaustive partition search.
"""

from __future__ import annotations

import hashlib
import math
import time
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from conftest import record_criterion
from helpers import (
    A,
    U,
    MatchContext,
    aw,
    canonical_key,
    canonicalize,
    identity_mapping,
    match_hash,
    match_location,
    match_snippet,
    raw,
    same_defect,
    snapshot,
)

from sca_reco import cli
from sca_reco.alignment import align_project
from sca_reco.core import WarningLabel
from sca_reco.effectiveness import (
    ConfusionCounts,
    f_beta,
    precision,
    recall,
    reevaluate,
)
from sca_reco.estimators import PCA
from sca_reco.features import FeatureTable, PreferenceDataset, load_features
from sca_reco.ingestion import load_snapshot
from sca_reco.matching import MatchStage, ReleasePair, label_release_detailed
from sca_reco.metrics import micro_metrics
from sca_reco.pipeline import (
    evaluate_corpus,
    load_corpus_context,
)
from sca_reco.recommend import (
    ModelKind,
    baseline_random,
    beta_sweep,
    cross_validate,
    dataset_from_evaluations,
)
from sca_reco.rng import SplitMix64
from sca_reco.selection import rfe, rfe_cv
from sca_reco.synth import AnalyzerProfile, SynthConfig, generate_corpus

SCAS3 = ("alpha", "beta", "gamma")


@contextmanager
def criterion(number: int):
    """Record one summary line per criterion, pass or fail."""
    info: dict[str, str] = {}
    try:
        yield info
    except BaseException as exc:
        first = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
        record_criterion(number, False, first[:100])
        raise
    record_criterion(number, True, info.get("detail", "ok"))


# criterion 1: F-beta against the closed-form count formula


def oracle_f_beta(tp: int, fp: int, union: int, beta: float) -> float:
    fn = union - tp
    if beta == 0.0:
        return tp / (tp + fp) if tp + fp else 0.0
    if math.isinf(beta):
        return tp / union if union else 0.0
    b2 = beta * beta
    denominator = (1 + b2) * tp + b2 * fn + fp
    return (1 + b2) * tp / denominator if denominator else 0.0


def test_criterion_01_f_beta_matches_count_formula():
    with criterion(1) as info:
        start = time.perf_counter()
        stream = SplitMix64(101)
        specials = (0.0, 0.5, 1.0, 2.0, float("inf"))
        worst = 0.0
        for i in range(10_000):
            union = stream.randrange(51)
            tp = stream.randrange(union + 1)
            fp = stream.randrange(51)
            beta = (
                specials[stream.randrange(5)]
                if i % 2
                else stream.uniform() * 4.0
            )
            counts = ConfusionCounts(tp, fp, union)
            got = f_beta(counts, beta)
            want = oracle_f_beta(tp, fp, union, beta)
            worst = max(worst, abs(got - want))
            assert abs(got - want) <= 1e-12, (tp, fp, union, beta)
            # the limits are the exact endpoints, not approximations
            assert f_beta(counts, 0.0) == precision(counts)
            assert f_beta(counts, float("inf")) == recall(counts)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
        info["detail"] = (
            f"10000 tuples, max |diff| {worst:.1e}, endpoints exact, {elapsed:.2f}s"
        )


# criterion 2: micro metrics against a set-algebra confusion counter


def oracle_micro(truths, preds):
    tp = fp = fn = 0
    for truth, pred in zip(truths, preds):
        truth_set, pred_set = set(truth), {pred}
        tp += len(pred_set & truth_set)
        fp += len(pred_set - truth_set)
        fn += len(truth_set - pred_set)
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def test_criterion_02_micro_metrics_match_set_algebra():
    with criterion(2) as info:
        start = time.perf_counter()
        stream = SplitMix64(202)
        pool = ("a", "b", "c", "d")
        for _ in range(1_000):
            n = 1 + stream.randrange(30)
            truths, preds = [], []
            for _ in range(n):
                subset = tuple(s for s in pool if stream.uniform() < 0.4)
                truths.append(subset or (pool[stream.randrange(4)],))
                preds.append(pool[stream.randrange(4)])
            got = micro_metrics(truths, preds)
            p, r, f1 = oracle_micro(truths, preds)
            assert abs(got.p_micro - p) <= 1e-12
            assert abs(got.r_micro - r) <= 1e-12
            assert abs(got.f1_micro - f1) <= 1e-12
        for _ in range(200):
            n = 1 + stream.randrange(30)
            truths = [(pool[stream.randrange(4)],) for _ in range(n)]
            preds = [pool[stream.randrange(4)] for _ in range(n)]
            m = micro_metrics(truths, preds)
            # singleton truths force fp == fn, so the three scores coincide
            assert m.p_micro == m.r_micro == m.f1_micro
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
        info["detail"] = (
            f"1000 corpora within 1e-12, singleton identity exact, {elapsed:.2f}s"
        )


# criterion 3: greedy cascade against maximum bipartite matching


def maximum_matching_size(n_old: int, edges: list[set[int]]) -> int:
    owner: dict[int, int] = {}

    def augment(i: int, seen: set[int]) -> bool:
        for j in edges[i]:
            if j in seen:
                continue
            seen.add(j)
            if j not in owner or augment(owner[j], seen):
                owner[j] = i
                return True
        return False

    return sum(1 for i in range(n_old) if augment(i, set()))


def permissible(w_old, w_new, pair: MatchContext) -> bool:
    return (
        match_location(w_old, w_new, pair)
        or match_snippet(w_old, w_new, pair)
        or match_hash(w_old, w_new, pair)
    )


def pair_context(snap, sca, releases: ReleasePair) -> MatchContext:
    return MatchContext(releases, snap.reports_old[sca], snap.reports_new[sca])


def fuzz_sources():
    """A fixed release pair with edits, a deleted file, and a stable file."""

    def jclass(name, n_methods, edits=(), inserted=0):
        lines = ["package com.example;", "", f"public class {name} {{"]
        if inserted:
            lines[1:1] = [f"// pad {k}" for k in range(inserted)]
        for m in range(n_methods):
            lines.append("")
            lines.append(f"    public void method{m}() {{")
            body = f"        int value_{name}_{m} = compute_{name}_{m}();"
            if m in edits:
                body = f"        int value_{name}_{m} = guarded_{name}_{m}();"
            lines.append(body)
            lines.append(f"        use_{name}(value_{name}_{m});")
            lines.append("    }")
        lines.append("}")
        return lines

    old_files = {
        "com/example/Foo.java": jclass("Foo", 6),
        "com/example/Bar.java": jclass("Bar", 5),
        "com/example/Gone.java": jclass("Gone", 3),
    }
    new_files = {
        "com/example/Foo.java": jclass("Foo", 6, edits={2}, inserted=2),
        "com/example/Bar.java": jclass("Bar", 5),
    }
    return old_files, new_files


def test_criterion_03_labeling_matches_optimal_assignment(tmp_path):
    with criterion(3) as info:
        start = time.perf_counter()
        config = SynthConfig(
            n_projects=200,
            profiles=(AnalyzerProfile("solo", detection=0.9, fp_rate=0.5),),
            method_bands=((3, 5),),
            files_per_project=2,
            edit_intensity=0.5,
            seed=303,
        )
        out = tmp_path / "corpus"
        truth = generate_corpus(config, out)
        context = load_corpus_context(out)

        agreements = 0
        for project in truth.projects:
            snap = load_snapshot(out, project.project_id)
            releases = ReleasePair.diff(snap.release_old, snap.release_new)
            labeled, audit = label_release_detailed(snap, "solo", context.mapping, releases)
            raws_old = snap.reports_old["solo"]
            raws_new = snap.reports_new["solo"]
            assert len(raws_old) <= 20
            # planned per-site labels are reproduced exactly
            sites = {
                (s.class_old, s.category, s.old_start + jitter): s
                for s in project.sites
                if "solo" in s.detected_by
                for jitter in (0, 1)
            }
            assert len(labeled) == len([s for s in project.sites if s.detected_by])
            for warning in labeled:
                site = sites[(warning.class_info, warning.new_type, warning.start_line)]
                assert warning.label.value == site.label
            # the greedy one-to-one match count equals the optimum
            old_canon = [canonicalize(r, context.mapping, i) for i, r in enumerate(raws_old)]
            new_canon = [canonicalize(r, context.mapping, i) for i, r in enumerate(raws_new)]
            pair = pair_context(snap, "solo", releases)
            edges = [
                {
                    j
                    for j, w_new in enumerate(new_canon)
                    if permissible(w_old, w_new, pair)
                }
                for w_old in old_canon
            ]
            optimum = maximum_matching_size(len(old_canon), edges)
            matched = sum(
                1 for w in labeled if w.label is WarningLabel.UNACTIONABLE
            )
            assert matched == optimum, project.project_id
            assert all(w.label is not WarningLabel.UNKNOWN for w in labeled)
            agreements += 1
        assert agreements == 200

        # fuzzed pairs: one-to-one, per-pair stage dominance, label consistency
        old_files, new_files = fuzz_sources()
        mapping = identity_mapping()
        base = snapshot(old_files, new_files, {"alpha": []}, {"alpha": []})
        releases = ReleasePair.diff(base.release_old, base.release_new)
        classes = (
            "com.example.Foo",
            "com.example.Bar",
            "com.example.Gone",
            "com.example.Nowhere",
        )
        types = ("NULL_DEREF", "LEAK")
        stream = SplitMix64(909)

        def random_report(max_n):
            report = []
            for _ in range(stream.randrange(max_n + 1)):
                start_line = 1 + stream.randrange(45)
                report.append(
                    raw(
                        sca="alpha",
                        original_type=types[stream.randrange(2)],
                        class_path=classes[stream.randrange(4)],
                        method=None
                        if stream.randrange(2)
                        else f"method{stream.randrange(6)}()",
                        start=start_line,
                        end=start_line + stream.randrange(3),
                    )
                )
            return report

        for _ in range(10_000):
            raws_old = random_report(6)
            raws_new = random_report(6)
            if not raws_old:
                continue
            snap = snapshot(
                old_files, new_files, {"alpha": raws_old}, {"alpha": raws_new}
            )
            labeled, audit = label_release_detailed(snap, "alpha", mapping, releases)
            new_canon = [canonicalize(r, mapping, i) for i, r in enumerate(raws_new)]
            pair = pair_context(snap, "alpha", releases)
            taken = [a.matched_origin for a in audit if a.matched_origin is not None]
            assert len(taken) == len(set(taken))  # one-to-one
            keys = [canonical_key(w) for w in labeled]
            assert keys == sorted(keys)  # canonical output order
            for warning, entry in zip(labeled, audit):
                if entry.stage is None:
                    assert warning.label in (
                        WarningLabel.ACTIONABLE,
                        WarningLabel.UNKNOWN,
                    )
                    continue
                assert warning.label is WarningLabel.UNACTIONABLE
                candidate = new_canon[entry.matched_origin]
                # a later stage fires only where the earlier stages miss
                if entry.stage is not MatchStage.LOCATION:
                    assert not match_location(warning, candidate, pair)
                if entry.stage is MatchStage.HASH:
                    assert not match_snippet(warning, candidate, pair)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"
        info["detail"] = (
            f"200/200 pairs optimal and on-plan, 10000 fuzzed pairs, {elapsed:.1f}s"
        )


# criterion 4: greedy grouping against exhaustive partition search


def exhaustive_best_partition(warnings):
    """Best compatible partition by (triples, pairs), plus its uniqueness."""

    def block_accepts(block, w):
        if len(block) >= 3:
            return False
        if any(m.origin[0] == w.origin[0] for m in block):
            return False
        return all(same_defect(m, w) for m in block)

    best_score = (-1, -1)
    best = None
    ties = 0

    def recurse(i, blocks):
        nonlocal best_score, best, ties
        if i == len(warnings):
            score = (
                sum(1 for b in blocks if len(b) == 3),
                sum(1 for b in blocks if len(b) == 2),
            )
            key = frozenset(frozenset(m.origin for m in b) for b in blocks)
            if score > best_score:
                best_score, best, ties = score, key, 1
            elif score == best_score and key != best:
                ties += 1
            return
        w = warnings[i]
        for block in blocks:
            if block_accepts(block, w):
                block.append(w)
                recurse(i + 1, blocks)
                block.pop()
        blocks.append([w])
        recurse(i + 1, blocks)
        blocks.pop()

    recurse(0, [])
    return best, best_score, ties == 1


def generated_alignment_input(seed):
    stream = SplitMix64(seed)
    categories = ("null_dereference", "resource_leak", "api_misuse")
    by_sca = {s: [] for s in SCAS3}
    counters = dict.fromkeys(SCAS3, 0)
    everything = []
    for site in range(1 + stream.randrange(4)):
        base = 10 + 15 * site  # sites too far apart to interact
        category = categories[stream.randrange(3)]
        members = [s for s in SCAS3 if stream.uniform() < 0.7]
        if not members:
            members = [SCAS3[stream.randrange(3)]]
        for sca in members:
            w = aw(
                new_type=category,
                start=base + stream.randrange(2),
                end=base + 4,
                label=A if stream.randrange(2) else U,
                sca=sca,
                index=counters[sca],
            )
            counters[sca] += 1
            by_sca[sca].append(w)
            everything.append(w)
    return by_sca, everything


def test_criterion_04_grouping_matches_exhaustive_search():
    with criterion(4) as info:
        start = time.perf_counter()
        agreements = 0
        for seed in range(400, 600):
            by_sca, everything = generated_alignment_input(seed)
            assert all(len(v) <= 10 for v in by_sca.values())
            result = align_project(by_sca, SCAS3)
            got = frozenset(
                frozenset(m.origin for m in g.members) for g in result.groups
            ) | frozenset(
                frozenset(m.origin for m in d.members) for d in result.discarded
            )
            want, _, unique = exhaustive_best_partition(everything)
            assert unique, f"seed {seed} has no unique optimum"
            assert got == want, f"seed {seed}"
            agreements += 1
        assert agreements == 200

        # the two voting fixtures
        trio = {
            "alpha": [aw(label=A, sca="alpha", index=0, start=10, end=14)],
            "beta": [aw(label=A, sca="beta", index=0, start=11, end=14)],
            "gamma": [aw(label=U, sca="gamma", index=0, start=12, end=14)],
        }
        voted = align_project(trio, SCAS3)
        assert len(voted.groups) == 1
        assert len(voted.groups[0].members) == 3
        assert voted.groups[0].resolved_label is WarningLabel.ACTIONABLE

        pair = {
            "alpha": [aw(label=A, sca="alpha", index=0, start=10, end=14)],
            "beta": [aw(label=U, sca="beta", index=0, start=11, end=14)],
        }
        conflicted = align_project(pair, ("alpha", "beta"))
        assert conflicted.groups == ()
        assert len(conflicted.discarded) == 1
        assert {m.origin for m in conflicted.discarded[0].members} == {
            ("alpha", 0),
            ("beta", 0),
        }
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"
        info["detail"] = f"200/200 unique optima reproduced, vote fixtures, {elapsed:.1f}s"


# criterion 5: PCA basis properties on random matrices


def test_criterion_05_pca_basis_properties():
    with criterion(5) as info:
        start = time.perf_counter()
        rng = np.random.default_rng(505)
        for _ in range(100):
            n = int(rng.integers(2, 51))
            d = int(rng.integers(2, 51))
            X = rng.normal(scale=rng.uniform(0.5, 3.0), size=(n, d))
            k = min(n, d)
            model = PCA(n_components=k).fit(X)
            gram = model.components_ @ model.components_.T
            assert np.allclose(gram, np.eye(k), atol=1e-9)
            ev = model.explained_variance_
            assert all(ev[i] >= ev[i + 1] - 1e-12 for i in range(k - 1))
            back = model.transform(X) @ model.components_ + model.mean_
            rel = np.linalg.norm(back - X) / np.linalg.norm(X)
            assert rel < 1e-8
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"
        info["detail"] = f"100 random matrices up to 50x50, {elapsed:.1f}s"


# criterion 6: elimination against exhaustive pair search


def benchmark_dataset(seed):
    """Two jointly informative features, three uniform noise features."""
    stream = SplitMix64(seed)
    names = ("x1", "x2", "n1", "n2", "n3")
    rows, labels, ids = [], [], []
    specs = (("alpha", 0.0, None), ("beta", 4.0, 0.0), ("gamma", 4.0, 4.0))
    for c, (sca, x1_base, x2_base) in enumerate(specs):
        for i in range(8):
            x1 = x1_base + stream.uniform()
            x2 = stream.uniform() * 5.0 if x2_base is None else x2_base + stream.uniform()
            noise = [stream.uniform() * 10.0 for _ in range(3)]
            rows.append([x1, x2, *noise])
            labels.append((sca,))
            ids.append(f"p{c}{i}")
    return PreferenceDataset(FeatureTable(names, tuple(ids), np.array(rows)), tuple(labels), SCAS3)


def test_criterion_06_elimination_finds_informative_pair():
    with criterion(6) as info:
        start = time.perf_counter()
        hits = 0
        for seed in range(600, 610):
            dataset = benchmark_dataset(seed)
            scored = []
            for pair in combinations(dataset.table.feature_names, 2):
                result = cross_validate(
                    dataset.subset_features(pair), ModelKind.DT, folds=4, seed=seed
                )
                scored.append((result.mean.f1_micro, pair))
            top = max(score for score, _ in scored)
            winners = [set(pair) for score, pair in scored if score == top]
            selected = set(rfe(dataset, ModelKind.DT, target=2, seed=seed).selected)
            if len(winners) == 1 and selected == winners[0]:
                hits += 1
        assert hits >= 8, f"only {hits}/10 seeds agreed"
        full = rfe(benchmark_dataset(699), ModelKind.DT, target=5)
        assert full.selected == ("x1", "x2", "n1", "n2", "n3")
        elapsed = time.perf_counter() - start
        assert elapsed < 20.0, f"took {elapsed:.2f}s"
        info["detail"] = f"{hits}/10 seeds matched the exhaustive pair, {elapsed:.1f}s"


# criteria 7 and 10 share one 60-project corpus


@pytest.fixture(scope="module")
def corpus60(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept60") / "corpus"
    start = time.perf_counter()
    generate_corpus(SynthConfig(n_projects=60, seed=0), out)
    context = load_corpus_context(out)
    evaluations, failures = evaluate_corpus(context, beta=1.0)
    table = load_features(out / "features.csv")
    return {
        "context": context,
        "evaluations": evaluations,
        "failures": failures,
        "table": table,
        "elapsed": time.perf_counter() - start,
    }


def test_criterion_07_pipeline_beats_random_baseline(corpus60):
    with criterion(7) as info:
        start = time.perf_counter()
        assert corpus60["failures"] == []
        evaluations = corpus60["evaluations"]
        assert len(evaluations) == 60
        dataset = dataset_from_evaluations(corpus60["table"], evaluations)
        mined = rfe_cv(dataset, ModelKind.RF, folds=10, seed=0)
        final = cross_validate(
            dataset.subset_features(mined.selected), ModelKind.RF, folds=10, seed=0
        )
        baseline = baseline_random(
            dataset.label_sets, dataset.sca_order, repeats=100, seed=0
        )
        f1 = final.mean.f1_micro
        assert f1 >= 0.80, f"cv f1 {f1:.4f}"
        assert f1 - baseline.f1_micro >= 0.25, (
            f"cv f1 {f1:.4f} vs random {baseline.f1_micro:.4f}"
        )
        elapsed = corpus60["elapsed"] + (time.perf_counter() - start)
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        info["detail"] = (
            f"cv f1 {f1:.4f}, random baseline {baseline.f1_micro:.4f}, {elapsed:.1f}s"
        )


# criterion 8: random recommendations land near 1/m


def test_criterion_08_random_baseline_near_uniform():
    with criterion(8) as info:
        truth = [(SCAS3[i % 3],) for i in range(60)]
        metrics = baseline_random(truth, SCAS3, repeats=10_000, seed=808)
        deviation = abs(metrics.p_micro - 1 / 3)
        assert deviation <= 0.03, f"p_micro {metrics.p_micro:.4f}"
        info["detail"] = (
            f"10000 repeats, p_micro {metrics.p_micro:.4f} (|diff| {deviation:.4f})"
        )


# criterion 9: two full command-line runs are byte-identical


def digest_tree(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def run_cli_pipeline(base: Path, capsys) -> dict:
    corpus = base / "corpus"
    outputs = {}
    assert (
        cli.main(
            ["synth", "--out", str(corpus), "--projects", "24", "--files", "2", "--seed", "9"]
        )
        == 0
    )
    outputs["synth"] = digest_tree(corpus)

    labels = base / "labels.jsonl"
    assert cli.main(["label", "--corpus", str(corpus), "--out", str(labels)]) == 0
    outputs["label"] = labels.read_bytes()

    eval_dir = base / "eval"
    assert (
        cli.main(["evaluate", "--corpus", str(corpus), "--out-dir", str(eval_dir)]) == 0
    )
    outputs["evaluate"] = digest_tree(eval_dir)
    evaluations = eval_dir / "evaluations.jsonl"
    features = corpus / "features.csv"
    capsys.readouterr()

    mine_dir = base / "mine"
    assert (
        cli.main(
            [
                "mine",
                "--evaluations", str(evaluations),
                "--features", str(features),
                "--model", "dt",
                "--folds", "3",
                "--out-dir", str(mine_dir),
                "--footprints",
            ]
        )
        == 0
    )
    outputs["mine"] = (digest_tree(mine_dir), capsys.readouterr().out)

    model = base / "model.json"
    assert (
        cli.main(
            [
                "train",
                "--evaluations", str(evaluations),
                "--features", str(features),
                "--model", "dt",
                "--cv-folds", "3",
                "--out", str(model),
            ]
        )
        == 0
    )
    outputs["train"] = (model.read_bytes(), capsys.readouterr().out)

    recommendations = base / "recommendations.tsv"
    assert (
        cli.main(
            [
                "recommend",
                "--model-file", str(model),
                "--features", str(features),
                "--out", str(recommendations),
            ]
        )
        == 0
    )
    outputs["recommend"] = recommendations.read_bytes()

    assert (
        cli.main(
            ["baseline", "--evaluations", str(evaluations), "--repeats", "50"]
        )
        == 0
    )
    random_out = capsys.readouterr().out
    assert (
        cli.main(
            ["baseline", "--evaluations", str(evaluations), "--fixed", "hawkeye"]
        )
        == 0
    )
    outputs["baseline"] = (random_out, capsys.readouterr().out)

    sweep = base / "sweep.tsv"
    assert (
        cli.main(
            [
                "sweep",
                "--evaluations", str(evaluations),
                "--features", str(features),
                "--model", "dt",
                "--folds", "3",
                "--betas", "0,1",
                "--out", str(sweep),
            ]
        )
        == 0
    )
    capsys.readouterr()
    outputs["sweep"] = sweep.read_bytes()
    return outputs


def test_criterion_09_cli_reruns_are_byte_identical(tmp_path, capsys):
    with criterion(9) as info:
        start = time.perf_counter()
        first = run_cli_pipeline(tmp_path / "one", capsys)
        second = run_cli_pipeline(tmp_path / "two", capsys)
        assert set(first) == set(second)
        for command in first:
            assert first[command] == second[command], command
        elapsed = time.perf_counter() - start
        info["detail"] = (
            f"8 commands, both runs identical ({len(first)} artifacts), {elapsed:.1f}s"
        )


# criterion 10: the beta sweep moves the labels, not the counts


def test_criterion_10_beta_sweep(corpus60):
    with criterion(10) as info:
        start = time.perf_counter()
        evaluations = corpus60["evaluations"]
        table = corpus60["table"]
        betas = [0.0, 0.5, 1.0, 2.0, float("inf")]
        rows = beta_sweep(evaluations, table, ModelKind.RF, betas, folds=10, seed=0)
        assert [beta for beta, _ in rows] == betas

        standalone = cross_validate(
            dataset_from_evaluations(
                table, [reevaluate(e, 1.0) for e in evaluations]
            ),
            ModelKind.RF,
            folds=10,
            seed=0,
        )
        assert rows[2][1] == standalone  # bit-exact, not approximately

        flips = sum(
            1
            for e in evaluations
            if reevaluate(e, 0.0).optimal != reevaluate(e, float("inf")).optimal
        )
        assert flips >= 1
        elapsed = time.perf_counter() - start
        info["detail"] = (
            f"5 betas, beta=1 row equals standalone cv, {flips} optimal flips, {elapsed:.1f}s"
        )
