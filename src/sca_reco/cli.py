"""Command line interface.

Subcommands cover the whole pipeline: ``synth`` writes a corpus with known
ground truth, ``label`` runs the closed-warning heuristic, ``evaluate``
aligns and scores analyzers, ``mine`` selects preference features and can
export footprint tables, ``train``/``recommend`` fit and apply a model, and
``baseline``/``sweep`` provide the reference points.

Exit codes: 0 success, 1 usage or configuration problem, 2 data problem
(including partially failed corpora), 3 internal error.  Set SCA_RECO_LOG to
debug/info/warning/error to control diagnostics on stderr.  Each command runs
with Python's cyclic garbage collector paused.
"""

from __future__ import annotations

import argparse
import functools
import gc
import logging
import os
import sys
from pathlib import Path

from .core import parse_beta, read_text, write_text
from .exceptions import ConfigError, DataError, NonFiniteStatistic, ScaRecoError
from .features import load_features
from .footprints import export_footprints
from .ingestion import load_sca_order
from .pipeline import (
    evaluate_corpus,
    evaluate_label_records,
    label_corpus,
    load_corpus_context,
    read_evaluations,
    read_labels,
    write_evaluations,
    write_labels,
    write_optimal_sets,
)
from .recommend import (
    RecommendationModel,
    baseline_fixed,
    baseline_random,
    beta_sweep,
    dataset_from_evaluations,
    parse_model_kind,
    sweep_table,
    train,
    train_and_cross_validate,
)
from .selection import rfe_cv, selected_features_text
from .synth import AnalyzerProfile, SynthConfig, generate_corpus

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; this project reserves 2 for data
    problems, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _configure_logging() -> None:
    level_name = os.environ.get("SCA_RECO_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _report_failures(failures) -> None:
    for failure in failures:
        print(f"project {failure.project_id}: {failure.message}", file=sys.stderr)


def _check_jobs(args) -> None:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")


def _cmd_label(args) -> int:
    _check_jobs(args)
    context = load_corpus_context(args.corpus, args.taxonomy, args.gdc_map)
    all_labels, failures = label_corpus(context, args.jobs)
    write_labels(args.out, all_labels)
    print(f"labeled {len(all_labels)} projects -> {args.out}", file=sys.stderr)
    _report_failures(failures)
    return 2 if failures else 0


def _cmd_evaluate(args) -> int:
    _check_jobs(args)
    if args.labels and (args.taxonomy, args.gdc_map) != (None, None):
        raise ConfigError("evaluate --labels reads only scas.txt: drop --taxonomy and --gdc-map")
    beta = parse_beta(args.beta)
    if args.labels:
        sca_order = load_sca_order(args.corpus)
        evaluations, failures = evaluate_label_records(
            read_labels(args.labels, sca_order), sca_order, beta, args.jobs
        )
    else:
        context = load_corpus_context(args.corpus, args.taxonomy, args.gdc_map)
        evaluations, failures = evaluate_corpus(context, beta, args.jobs)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_evaluations(out_dir / "evaluations.jsonl", evaluations)
    write_optimal_sets(out_dir / "optimal_sets.tsv", evaluations)
    print(
        f"evaluated {len(evaluations)} projects at beta={args.beta} -> {out_dir}",
        file=sys.stderr,
    )
    _report_failures(failures)
    return 2 if failures else 0


def _load_dataset(args):
    """The dataset of ``--evaluations`` and ``--features``, with the stored
    evaluations and feature table it joins.  A check that spans the
    evaluation records names the evaluations file."""
    evaluations = read_evaluations(args.evaluations)
    table = load_features(args.features)
    try:
        dataset = dataset_from_evaluations(table, evaluations)
    except DataError as exc:
        raise type(exc)(f"{args.evaluations}: {exc}") from exc
    return dataset, evaluations, table


def _naming_features_file(command):
    """Wrap a command that standardizes ``--features``: a feature whose mean
    or standard deviation overflows is named with that file."""

    @functools.wraps(command)
    def run(args) -> int:
        try:
            return command(args)
        except NonFiniteStatistic as exc:
            raise NonFiniteStatistic(f"{args.features}: {exc}") from exc

    return run


@_naming_features_file
def _cmd_mine(args) -> int:
    kind = parse_model_kind(args.model)
    dataset, _, _ = _load_dataset(args)
    result = rfe_cv(dataset, kind, folds=args.folds, seed=args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_text(out_dir / "selected_features.txt", selected_features_text(result.selected))
    print("size\tf1_micro")
    for size, score in result.scores:
        print(f"{size}\t{score!r}")
    print(f"selected ({result.best_size}): {','.join(result.selected)}")
    if args.footprints:
        written = export_footprints(dataset, out_dir / "footprints")
        print(f"wrote {len(written)} footprint tables", file=sys.stderr)
    return 0


@_naming_features_file
def _cmd_train(args) -> int:
    kind = parse_model_kind(args.model)
    dataset, _, _ = _load_dataset(args)
    if args.feature_list:
        names = [line.strip() for line in read_text(args.feature_list).splitlines() if line.strip()]
        try:
            dataset = dataset.subset_features(names)
        except DataError as exc:
            raise type(exc)(f"{args.feature_list}: {exc}") from exc
    if args.cv_folds is None:
        model, result = train(dataset, kind, seed=args.seed), None
    else:
        model, result = train_and_cross_validate(dataset, kind, args.cv_folds, args.seed)
    model.save(args.out)
    print(
        f"trained {kind.value} on {dataset.n_projects} projects, "
        f"classes: {','.join(model.classes)} -> {args.out}",
        file=sys.stderr,
    )
    if result is not None:
        m = result.mean
        print(f"cv\t{m.p_micro!r}\t{m.r_micro!r}\t{m.f1_micro!r}")
    return 0


def _cmd_recommend(args) -> int:
    model = RecommendationModel.load(args.model_file)
    table = load_features(args.features)
    if args.project is not None:
        if args.project not in table.project_ids:
            raise DataError(
                f"{args.features}: project {args.project!r} is not in the feature table"
            )
        table = table.subset_rows([table.project_ids.index(args.project)])
    try:
        recommended = model.predict_table(table)
    except DataError as exc:
        raise type(exc)(f"{args.model_file} on {args.features}, {exc}") from exc
    lines = [f"{project}\t{sca}" for project, sca in zip(table.project_ids, recommended)]
    text = "\n".join(lines) + "\n"
    if args.out:
        write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_baseline(args) -> int:
    if args.repeats < 1:
        raise ConfigError(f"--repeats must be at least 1, got {args.repeats}")
    evaluations = read_evaluations(args.evaluations)
    if not evaluations:
        raise DataError(f"{args.evaluations}: no evaluation records")
    truth = [e.optimal for e in evaluations]
    sca_order = evaluations[0].sca_order()
    if args.fixed:
        if args.fixed not in sca_order:
            raise ConfigError(f"analyzer {args.fixed!r} is not in the corpus")
        name, m = f"fixed:{args.fixed}", baseline_fixed(args.fixed, truth)
    else:
        name = f"random:{args.repeats}"
        m = baseline_random(truth, sca_order, repeats=args.repeats, seed=args.seed)
    print("baseline\tp_micro\tr_micro\tf1_micro")
    print(f"{name}\t{m.p_micro!r}\t{m.r_micro!r}\t{m.f1_micro!r}")
    return 0


@_naming_features_file
def _cmd_sweep(args) -> int:
    kind = parse_model_kind(args.model)
    betas = [parse_beta(token) for token in args.betas.split(",") if token.strip()]
    if not betas:
        raise ConfigError("--betas lists no values")
    _, evaluations, table = _load_dataset(args)  # checks the records before any fit
    rows = beta_sweep(evaluations, table, kind, betas, folds=args.folds, seed=args.seed)
    table = sweep_table(rows)
    write_text(args.out, table)
    sys.stdout.write(table)
    return 0


def _parse_profile(token: str) -> AnalyzerProfile:
    parts = token.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--profile wants name:detection:fp_rate, got {token!r}")
    try:
        return AnalyzerProfile(parts[0], float(parts[1]), float(parts[2]))
    except ValueError as exc:
        raise ConfigError(f"bad profile {token!r}: {exc}") from exc


def _parse_band(token: str) -> tuple[int, int]:
    parts = token.split(":")
    try:
        low, high = (int(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"--band wants low:high, got {token!r}") from exc
    return low, high


def _cmd_synth(args) -> int:
    overrides = {}
    if args.profile:
        overrides["profiles"] = tuple(_parse_profile(t) for t in args.profile)
    if args.band:
        overrides["method_bands"] = tuple(_parse_band(t) for t in args.band)
    config = SynthConfig(
        n_projects=args.projects,
        edit_intensity=args.edit_intensity,
        decoy_fraction=args.decoy_fraction,
        files_per_project=args.files,
        noise_features=args.noise_features,
        seed=args.seed,
        **overrides,
    )
    truth = generate_corpus(config, args.out)
    print(
        f"generated {len(truth.projects)} projects "
        f"({','.join(truth.scas)}) -> {args.out}",
        file=sys.stderr,
    )
    return 0


def _add_corpus_options(sub) -> None:
    sub.add_argument("--corpus", required=True, help="corpus root directory")
    sub.add_argument(
        "--taxonomy",
        help="taxonomy TSV: the category ids the mapping may name (default: corpus or packaged)",
    )
    sub.add_argument("--gdc-map", help="type mapping TSV (default: corpus file)")
    sub.add_argument("--jobs", type=int, default=1, help="worker threads (default 1)")


def _add_dataset_options(sub) -> None:
    sub.add_argument("--evaluations", required=True, help="evaluations.jsonl path")
    sub.add_argument("--features", required=True, help="feature table CSV path")


@functools.cache  # built once a process: argparse leaves every parser in reference cycles
def build_parser() -> _Parser:
    parser = _Parser(prog="sca-reco", description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("label", help="label warnings across release pairs")
    _add_corpus_options(sub)
    sub.add_argument("--out", required=True, help="output labels.jsonl path")
    sub.set_defaults(func=_cmd_label)

    sub = commands.add_parser("evaluate", help="align, score, and rank analyzers")
    _add_corpus_options(sub)
    sub.add_argument(
        "--labels", help="reuse stored labels.jsonl instead of matching; reads only scas.txt"
    )
    sub.add_argument("--beta", default="1", help="F-score beta (number or 'inf')")
    sub.add_argument("--out-dir", required=True, help="output directory")
    sub.set_defaults(func=_cmd_evaluate)

    sub = commands.add_parser("mine", help="select preference features")
    _add_dataset_options(sub)
    sub.add_argument("--model", default="rf", help="rf, dt, or lr (default rf)")
    sub.add_argument("--folds", type=int, default=10)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out-dir", required=True, help="output directory")
    sub.add_argument(
        "--footprints", action="store_true", help="also export 2-D footprint tables"
    )
    sub.set_defaults(func=_cmd_mine)

    sub = commands.add_parser("train", help="fit a recommendation model")
    _add_dataset_options(sub)
    sub.add_argument("--model", default="rf", help="dt, knn, lr, mlp, or rf")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--feature-list", help="restrict to features listed in this file")
    sub.add_argument("--cv-folds", type=int, help="also report k-fold CV metrics")
    sub.add_argument("--out", required=True, help="output model JSON path")
    sub.set_defaults(func=_cmd_train)

    sub = commands.add_parser("recommend", help="apply a trained model")
    sub.add_argument("--model-file", required=True, help="model JSON path")
    sub.add_argument("--features", required=True, help="feature table CSV path")
    sub.add_argument("--project", help="recommend for one project only")
    sub.add_argument("--out", help="write recommendations here instead of stdout")
    sub.set_defaults(func=_cmd_recommend)

    sub = commands.add_parser("baseline", help="fixed or random reference metrics")
    sub.add_argument("--evaluations", required=True, help="evaluations.jsonl path")
    sub.add_argument("--fixed", help="always recommend this analyzer")
    sub.add_argument("--repeats", type=int, default=100)
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(func=_cmd_baseline)

    sub = commands.add_parser("sweep", help="re-score at several betas and re-train")
    _add_dataset_options(sub)
    sub.add_argument("--betas", default="0,0.5,1,2,inf", help="comma-separated betas")
    sub.add_argument("--model", default="rf", help="dt, knn, lr, mlp, or rf")
    sub.add_argument("--folds", type=int, default=10)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", required=True, help="output sweep.tsv path")
    sub.set_defaults(func=_cmd_sweep)

    sub = commands.add_parser("synth", help="generate a corpus with known truth")
    sub.add_argument("--out", required=True, help="corpus output directory")
    sub.add_argument("--projects", type=int, default=60)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--files", type=int, default=8, help="files per project")
    sub.add_argument("--edit-intensity", type=float, default=0.7)
    sub.add_argument("--decoy-fraction", type=float, default=0.4)
    sub.add_argument("--noise-features", type=int, default=2)
    sub.add_argument(
        "--profile",
        action="append",
        help="analyzer profile name:detection:fp_rate (repeatable)",
    )
    sub.add_argument(
        "--band", action="append", help="methods-per-class band low:high (repeatable)"
    )
    sub.set_defaults(func=_cmd_synth)
    return parser


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    # A command's records form no reference cycles, so the cyclic GC would
    # only rescan them; it is paused for the command and the caller's state
    # restored after, with no collection forced.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"sca-reco: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"sca-reco: {exc}", file=sys.stderr)
        return 2
    except ScaRecoError as exc:
        print(f"sca-reco: internal error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"sca-reco: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # last resort: anything unexpected is internal
        log.exception("unhandled error")
        print(f"sca-reco: internal error: {exc}", file=sys.stderr)
        return 3
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
