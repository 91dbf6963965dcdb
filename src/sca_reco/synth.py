"""Synthetic corpus generator with a known ground truth.

Every generated project has two releases of Java-like source, one report per
analyzer per release, and a manifest recording what the pipeline is expected
to compute: per-warning labels, the matching stage each surviving warning
should be resolved by, group counts, and per-analyzer confusion counts.

Analyzer behavior is controlled by role profiles.  The configured profiles
double as the corpus analyzer order; per project, roles rotate so that the
analyzer at corpus position ``project_index mod m`` plays role 0.  With the
default roles (balanced, precise-but-blind, noisy-but-thorough) each project
archetype therefore has a different best analyzer, and structural features
(methods per class differ by archetype) make the archetype learnable.

Each method carries exactly one warning site, either a defect (fixed in the
new release with probability ``edit_intensity``) or a decoy that is never
fixed.  Per-file mutations exercise the matching cascade: line insertions
keep the location stage honest, a method rename forces the snippet stage,
and a class rename (applied only when no site's token window reaches the
class declaration line) forces the hash stage.

``_plan_file`` makes every decision about a site once and records it in a
``SiteTruth``; the sources, the reports and ``truth.json`` are all rendered
from those records.  Each random decision draws from its own stream, seeded
by ``derive_seed(seed, tag, project, file, ...)``; the seed of each tag and
file, and of each method, is derived once and extended per stream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .core import ScaId, default_taxonomy_path, read_text, write_text
from .exceptions import ConfigError, IoError
from .matching import hash_window, token_stream
from .rng import SplitMix64, derive_seed, extend_seed

SITE_CATEGORIES = ("null_dereference", "resource_leak", "api_misuse", "dead_code")

OLD_RELEASE = ("r1", "2024-01-15")
NEW_RELEASE = ("r2", "2024-07-15")

# Stream tags, one per independent family of random decisions.
_T_MUTATION = 1
_T_METHODS = 2
_T_KIND = 3
_T_FIX = 4
_T_PAD = 5
_T_DETECT = 6
_T_JITTER = 7
_T_NOISE = 8
_T_INSERT = 9


class Mutation(Enum):
    PLAIN = "plain"
    INSERT = "insert"
    METHOD_RENAME = "method_rename"
    CLASS_RENAME = "class_rename"


@dataclass(frozen=True)
class AnalyzerProfile:
    """One analyzer id plus the detection behavior of one role.

    ``detection`` is the chance of reporting a defect site, ``fp_rate`` the
    chance of reporting a decoy site.
    """

    sca: ScaId
    detection: float
    fp_rate: float

    def __post_init__(self):
        if not self.sca:
            raise ConfigError("analyzer profile has an empty id")
        for name in ("detection", "fp_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"profile {self.sca}: {name} must be in [0, 1]")


DEFAULT_PROFILES = (
    AnalyzerProfile("hawkeye", detection=0.92, fp_rate=0.1),
    AnalyzerProfile("lintmax", detection=0.35, fp_rate=0.0),
    AnalyzerProfile("bugnet", detection=0.95, fp_rate=0.9),
)


@dataclass(frozen=True)
class SynthConfig:
    n_projects: int = 60
    profiles: tuple[AnalyzerProfile, ...] = DEFAULT_PROFILES
    edit_intensity: float = 0.7
    decoy_fraction: float = 0.4
    files_per_project: int = 8
    # methods per class, one inclusive (low, high) band per archetype
    method_bands: tuple[tuple[int, int], ...] = ((4, 6), (8, 10), (12, 14))
    field_lines: int = 14
    noise_features: int = 2
    mutation_weights: tuple[float, float, float, float] = (0.4, 0.3, 0.15, 0.15)
    seed: int = 0

    def __post_init__(self):
        if self.n_projects < 1:
            raise ConfigError("n_projects must be at least 1")
        if not self.profiles:
            raise ConfigError("at least one analyzer profile is required")
        ids = [p.sca for p in self.profiles]
        if len(set(ids)) != len(ids):
            raise ConfigError("analyzer profiles repeat an id")
        if len(self.method_bands) != len(self.profiles):
            raise ConfigError(
                "one method band per archetype is required "
                f"({len(self.profiles)} archetypes, {len(self.method_bands)} bands)"
            )
        for low, high in self.method_bands:
            if not 1 <= low <= high:
                raise ConfigError(f"bad method band ({low}, {high})")
        for name in ("edit_intensity", "decoy_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1]")
        if self.files_per_project < 1:
            raise ConfigError("files_per_project must be at least 1")
        if self.field_lines < 0 or self.noise_features < 0:
            raise ConfigError("field_lines and noise_features must be non-negative")
        if len(self.mutation_weights) != 4 or min(self.mutation_weights) < 0:
            raise ConfigError("mutation_weights must be 4 non-negative numbers")
        if sum(self.mutation_weights) <= 0:
            raise ConfigError("mutation_weights must not all be zero")

    @property
    def scas(self) -> tuple[ScaId, ...]:
        return tuple(p.sca for p in self.profiles)


@dataclass(frozen=True)
class SiteTruth:
    """Ground truth for one warning site: every decision the generator made
    about it, from which its source lines, report entries and manifest
    entry are all rendered."""

    class_old: str
    class_new: str
    method_old: str
    method_new: str
    category: str
    old_start: int
    new_start: int
    kind: str  # "defect" or "decoy"
    fixed: bool
    mutation: str
    detected_by: tuple[ScaId, ...]
    expected_stage: str | None  # match stage for surviving sites, else None

    @property
    def label(self) -> str:
        return "actionable" if self.fixed else "unactionable"


@dataclass(frozen=True)
class ProjectTruth:
    project_id: str
    archetype: int
    champion: ScaId
    sites: tuple[SiteTruth, ...]

    def counts(self, sca: ScaId) -> tuple[int, int, int]:
        """(tp, fp, union_actionable) this analyzer should end up with."""
        tp = sum(1 for s in self.sites if s.fixed and sca in s.detected_by)
        fp = sum(1 for s in self.sites if not s.fixed and sca in s.detected_by)
        union = sum(1 for s in self.sites if s.fixed and s.detected_by)
        return tp, fp, union

    @property
    def n_groups(self) -> int:
        return sum(1 for s in self.sites if s.detected_by)


@dataclass(frozen=True)
class CorpusTruth:
    seed: int
    scas: tuple[ScaId, ...]
    projects: tuple[ProjectTruth, ...]


@dataclass
class _MethodPlan:
    name: str
    sid: str
    extra_pad: int
    is_decoy: bool
    category: str
    old_start: int = 0


def _stream(seed: int, *parts: int) -> SplitMix64:
    return SplitMix64(derive_seed(seed, *parts))


def _build_class_lines(
    package: str, class_name: str, methods: list[_MethodPlan], field_lines: int
) -> tuple[list[str], int]:
    """Emit one class; fills in each plan's old_start.  Returns (lines,
    1-based class declaration line number)."""
    lines = [f"package {package};", ""]
    lines.append(f"public class {class_name} {{")
    decl_line = len(lines)
    stem = class_name.lower()
    for k in range(field_lines):
        lines.append(f"    private int field_{stem}_{k} = {k};")
    for m, plan in enumerate(methods):
        lines.append("")
        lines.append(f"    public void {plan.name}() {{")
        plan.old_start = len(lines) + 1
        lines.append(f"        int v_{plan.sid}_a = source_{plan.sid}();")
        lines.append(f"        int v_{plan.sid}_b = v_{plan.sid}_a + {m};")
        lines.append(f"        consume_{plan.sid}(v_{plan.sid}_b);")
        for x in range(plan.extra_pad):
            lines.append(f"        int pad_{plan.sid}_{x} = {x};")
        lines.append("    }")
    lines.append("}")
    return lines, decl_line


def _class_rename_eligible(lines: list[str], decl_line: int, starts: list[int]) -> bool:
    """True when no site's hash window can reach the class declaration line.

    Checked for both start-line jitters an analyzer may report.  Only then is
    the window hash invariant under the rename and the site guaranteed to be
    matched by the hash stage.
    """
    _, before = token_stream(lines)
    # the declaration line's tokens are indices decl_first .. decl_stop - 1
    decl_first, decl_stop = before[decl_line - 1], before[decl_line]
    for start in starts:
        for jitter in (0, 1):
            window = hash_window(before, start + jitter)
            if max(window.start, decl_first) < min(window.stop, decl_stop):
                return False
    return True


def _pick_mutation(weights: tuple[float, ...], stream: SplitMix64) -> Mutation:
    total = sum(weights)
    draw = stream.uniform() * total
    cumulative = 0.0
    order = (Mutation.PLAIN, Mutation.INSERT, Mutation.METHOD_RENAME, Mutation.CLASS_RENAME)
    for kind, weight in zip(order, weights):
        cumulative += weight
        if draw < cumulative:
            return kind
    return order[-1]


@dataclass
class _FilePlan:
    methods: list[_MethodPlan]
    sites: list[SiteTruth]  # one per method, in method order
    # per site, the start-line jitter (0 or 1) of each analyzer that reports it
    jitters: list[dict[ScaId, int]]
    old_lines: list[str]
    new_lines: list[str]
    old_path: str
    new_path: str


def _plan_file(config: SynthConfig, p: int, f: int, archetype: int) -> _FilePlan:
    """Decide every site of one file and render both of its releases."""
    seed = config.seed
    pad_seed, kind_seed, fix_seed, detect_seed, jitter_seed = (
        derive_seed(seed, tag, p, f) for tag in (_T_PAD, _T_KIND, _T_FIX, _T_DETECT, _T_JITTER)
    )
    package = f"com.synth.p{p:03d}"
    class_name = f"Widget{f}"
    low, high = config.method_bands[archetype]
    n_methods = low + _stream(seed, _T_METHODS, p, f).randrange(high - low + 1)
    methods = []
    for m in range(n_methods):
        sid = f"p{p:03d}f{f}m{m}"
        methods.append(
            _MethodPlan(
                name=f"handle{m}",
                sid=sid,
                extra_pad=SplitMix64(extend_seed(pad_seed, m)).randrange(3),
                is_decoy=SplitMix64(extend_seed(kind_seed, m)).uniform() < config.decoy_fraction,
                category=SITE_CATEGORIES[(f + m) % len(SITE_CATEGORIES)],
            )
        )
    old_lines, decl_line = _build_class_lines(
        package, class_name, methods, config.field_lines
    )
    mutation = _pick_mutation(config.mutation_weights, _stream(seed, _T_MUTATION, p, f))
    if mutation is Mutation.CLASS_RENAME and not _class_rename_eligible(
        old_lines, decl_line, [plan.old_start for plan in methods]
    ):
        mutation = Mutation.PLAIN

    # A class rename moves every site of the file to the hash stage; a
    # method rename moves the first method's site to the snippet stage.
    class_suffix = "R" if mutation is Mutation.CLASS_RENAME else ""
    method_suffix = "R" if mutation is Mutation.METHOD_RENAME else ""
    new_class = class_name + class_suffix
    shift = 0
    new_lines = list(old_lines)
    if mutation is Mutation.INSERT:
        count = 2 + _stream(seed, _T_INSERT, p, f).randrange(4)
        pads = [f"// generated pad {p} {f} {k}" for k in range(count)]
        new_lines = new_lines[:1] + pads + new_lines[1:]
        shift = count
    if class_suffix:
        new_lines[decl_line - 1] = f"public class {new_class} {{"

    m_scas = len(config.profiles)
    sites, jitters = [], []
    for m, method in enumerate(methods):
        renamed = method_suffix if m == 0 else ""
        new_start = method.old_start + shift
        if renamed:
            decl_index = new_start - 2
            new_lines[decl_index] = new_lines[decl_index].replace(
                f" {method.name}(", f" {method.name}{renamed}("
            )
        # Sites that must keep matching across a rename are never fixed,
        # otherwise they would not exercise the later stages (and a fixed
        # site in a renamed file would be unjudgeable).
        fixed = (
            not (method.is_decoy or class_suffix or renamed)
            and SplitMix64(extend_seed(fix_seed, m)).uniform() < config.edit_intensity
        )
        if fixed:
            body2 = new_start  # 0-based index of the line after the start
            new_lines[body2] = (
                f"        int v_{method.sid}_b = guard_{method.sid}(v_{method.sid}_a);"
            )
        detected, jitter = [], {}
        method_detect_seed = extend_seed(detect_seed, m)
        method_jitter_seed = extend_seed(jitter_seed, m)
        for i in range(m_scas):
            role = config.profiles[(i - archetype) % m_scas]
            rate = role.fp_rate if method.is_decoy else role.detection
            if SplitMix64(extend_seed(method_detect_seed, i)).uniform() < rate:
                sca = config.profiles[i].sca
                detected.append(sca)
                jitter[sca] = SplitMix64(extend_seed(method_jitter_seed, i)).randrange(2)
        jitters.append(jitter)
        stage = "hash" if class_suffix else "snippet" if renamed else "location"
        sites.append(
            SiteTruth(
                class_old=f"{package}.{class_name}",
                class_new=f"{package}.{new_class}",
                method_old=f"{method.name}()",
                method_new=f"{method.name}{renamed}()",
                category=method.category,
                old_start=method.old_start,
                new_start=new_start,
                kind="decoy" if method.is_decoy else "defect",
                fixed=fixed,
                mutation=mutation.value,
                detected_by=tuple(detected),
                expected_stage=None if fixed else stage,
            )
        )
    package_dir = package.replace(".", "/")
    return _FilePlan(
        methods=methods,
        sites=sites,
        jitters=jitters,
        old_lines=old_lines,
        new_lines=new_lines,
        old_path=f"{package_dir}/{class_name}.java",
        new_path=f"{package_dir}/{new_class}.java",
    )


def _plan_project(config: SynthConfig, p: int) -> tuple[list[_FilePlan], ProjectTruth]:
    archetype = p % len(config.profiles)
    files = [_plan_file(config, p, f, archetype) for f in range(config.files_per_project)]
    truth = ProjectTruth(
        project_id=f"p{p:03d}",
        archetype=archetype,
        champion=config.profiles[archetype].sca,
        sites=tuple(site for plan in files for site in plan.sites),
    )
    return files, truth


def _report_text(p: int, files: list[_FilePlan], sca: ScaId, release_id: str, old: bool) -> str:
    """One analyzer's report on one release: every site it detected, less
    the sites fixed by the newer release.

    The text equals ``_dump_json`` of the report document, without its
    pure-Python encoder.  Each warning is a flat object two levels deep, and
    the C encoder, given that depth's line break and indent as its item
    separator, renders it as ``indent=2`` does once wrapped in its braces;
    the rest of the document is written out here.
    """
    encode = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": ")).encode
    warnings = []
    for f, plan in enumerate(files):
        for m, (site, jitters) in enumerate(zip(plan.sites, plan.jitters)):
            jitter = jitters.get(sca)
            if jitter is None or (site.fixed and not old):
                continue
            start = site.old_start if old else site.new_start
            warning = {
                "type": f"{sca.upper()}-{site.category}",
                "class": site.class_old if old else site.class_new,
                "method": site.method_old if old else site.method_new,
                "start_line": start + jitter,
                "end_line": start + 2,
                "message": f"possible {site.category.replace('_', ' ')}",
                "severity": ("low", "medium", "high")[(f + m) % 3],
            }
            warnings.append("    {\n      " + encode(warning)[1:-1] + "\n    }")
    listed = "[\n" + ",\n".join(warnings) + "\n  ]" if warnings else "[]"
    project = f"p{p:03d}"
    return (
        f'{{\n  "project": {encode(project)},\n  "release": {encode(release_id)},\n'
        f'  "sca": {encode(sca)},\n  "warnings": {listed}\n}}\n'
    )


def _project_features(config: SynthConfig, p: int, files: list[_FilePlan]) -> list[float]:
    loc_total = sum(len(plan.old_lines) for plan in files)
    n_files = len(files)
    n_methods = sum(len(plan.methods) for plan in files)
    method_loc = [5 + method.extra_pad for plan in files for method in plan.methods]
    values = [
        float(loc_total),
        float(n_files),
        float(n_files),  # one top-level class per file
        float(n_methods),
        n_methods / n_files,
        sum(method_loc) / len(method_loc),
    ]
    for j in range(config.noise_features):
        values.append(_stream(config.seed, _T_NOISE, p, j).uniform())
    return values


FEATURE_NAMES = (
    "loc_total",
    "n_files",
    "n_classes",
    "n_methods",
    "methods_per_class",
    "avg_method_loc",
)


def feature_names(config: SynthConfig) -> tuple[str, ...]:
    return FEATURE_NAMES + tuple(f"noise_{j}" for j in range(config.noise_features))


def _write_texts(texts: dict[Path, str]) -> None:
    """Write each text to its path, making each directory once."""
    try:
        for directory in {path.parent for path in texts}:
            directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(str(exc)) from exc
    for path, text in texts.items():
        write_text(path, text)


def _dump_json(document) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _truth_document(truth: CorpusTruth) -> dict:
    projects = [
        {
            "project": project.project_id,
            "archetype": project.archetype,
            "champion": project.champion,
            "n_groups": project.n_groups,
            "counts": {
                sca: dict(zip(("tp", "fp", "union"), project.counts(sca)))
                for sca in truth.scas
            },
            "sites": [vars(site) for site in project.sites],
        }
        for project in truth.projects
    ]
    return {"seed": truth.seed, "scas": list(truth.scas), "projects": projects}


def _check_out_dir(out_dir: Path, truth_text: str) -> None:
    """Refuse a non-empty ``out_dir`` unless it holds this very corpus."""
    try:
        if not out_dir.exists() or (out_dir.is_dir() and not any(out_dir.iterdir())):
            return
        if (out_dir / "truth.json").read_bytes() == truth_text.encode("utf-8"):
            return
    except OSError:
        pass
    raise ConfigError(
        f"{out_dir} is not empty and does not hold the corpus of this "
        "configuration; generate into a new or empty directory"
    )


def generate_corpus(config: SynthConfig, out_dir: str | Path) -> CorpusTruth:
    """Write a complete corpus under ``out_dir`` and return its ground truth.

    Output is a pure function of the config, byte for byte.  Every project
    is planned before anything is written, and ``out_dir`` must be missing,
    empty, or hold the corpus of the same config (a byte-equal
    ``truth.json``), so a rerun is idempotent and never mixes its projects
    with those of another config.
    """
    out_dir = Path(out_dir)
    plans = [_plan_project(config, p) for p in range(config.n_projects)]
    truth = CorpusTruth(
        seed=config.seed, scas=config.scas, projects=tuple(t for _, t in plans)
    )
    truth_text = _dump_json(_truth_document(truth))
    _check_out_dir(out_dir, truth_text)
    (old_id, old_date), (new_id, new_date) = OLD_RELEASE, NEW_RELEASE
    releases_text = _dump_json(
        {"old": {"id": old_id, "date": old_date}, "new": {"id": new_id, "date": new_date}}
    )
    csv_lines = ["project," + ",".join(feature_names(config))]
    for p, (files, project) in enumerate(plans):
        project_dir = out_dir / project.project_id
        texts = {project_dir / "releases.json": releases_text}
        for plan in files:
            texts[project_dir / old_id / "src" / plan.old_path] = "\n".join(plan.old_lines) + "\n"
            texts[project_dir / new_id / "src" / plan.new_path] = "\n".join(plan.new_lines) + "\n"
        for sca in config.scas:
            for release_id, old in ((old_id, True), (new_id, False)):
                texts[project_dir / release_id / "reports" / f"{sca}.json"] = _report_text(
                    p, files, sca, release_id, old
                )
        _write_texts(texts)
        values = _project_features(config, p, files)
        csv_lines.append(project.project_id + "," + ",".join(repr(v) for v in values))

    map_lines = ["sca\toriginal_type\tgdc_id"]
    for sca in config.scas:
        for category in SITE_CATEGORIES:
            map_lines.append(f"{sca}\t{sca.upper()}-{category}\t{category}")
    _write_texts(
        {
            out_dir / "scas.txt": "".join(f"{sca}\n" for sca in config.scas),
            out_dir / "taxonomy.tsv": read_text(default_taxonomy_path()),
            out_dir / "gdc_map.tsv": "\n".join(map_lines) + "\n",
            out_dir / "features.csv": "\n".join(csv_lines) + "\n",
            out_dir / "truth.json": truth_text,
        }
    )
    return truth
