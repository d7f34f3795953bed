"""Command-line front end: config ingestion, report rendering, exit codes.

Subcommands
-----------
selftest     built-in reference corpus: quadrature closed forms and the
             pointwise identity suite (no config needed)
verify       integral identity residual and Hardy ratio over a corpus of
             test functions from the config
optimality   sharpness sweep: drive the cutoff parameter down, fit the
             remainder decay rate
beta-sweep   general-exponent identity and the companion-constant vertex
spectral     finite-span upper bound on the best constant via the
             generalized eigenproblem
certify      sample-based certification of the weight hypotheses

Configs are JSON files with four top-level blocks: ``problem`` (dimension,
poles, weight, pole-strength candidate), ``quadrature`` (discretization
parameters), ``experiments`` (one sub-block per subcommand), ``output``
(directory and formats), plus an optional top-level ``seed`` that
overrides the quadrature seed.  Unknown keys anywhere in the tree are
rejected.  Reports are CSV tables (comma-separated, header row, 17
significant digits; run metadata confined to leading ``#`` comment lines
so bodies from identical config + seed are byte-identical) and JSON
summaries.  Exit codes: 0 all checks passed, 1 a numerical check failed,
2 usage or config error.  The environment variable MHARDY_WORKERS
overrides the evaluation worker count.

The experiment subcommands compute their records and pass/fail verdicts
with `multipolar_hardy.experiments`; this module only reads their config
blocks, renders the records as report rows and maps the verdict to an
exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .config import (
    HardyParams,
    PoleConfig,
    WeightSpec,
    derive_params,
    enclosing_radius,
    min_pole_gap,
    validate_config,
)
from .errors import (
    ConfigError,
    MultipolarHardyError,
    UnboundedSuspected,
)
from .fields import (
    cross_term_identity_gap,
    hardy_factor,
    laplacian_ratio,
    potential_v,
)
from .functionals import (
    CutoffTheta,
    GaussianBump,
    OptimalityPhi,
    energy_report,  # unused here; mhbench/tracer.py rebinds this module attribute
)
from .experiments import (
    Verdict,
    beta_sweep,
    beta_sweep_verdict,
    certify_verdict,
    h2_certify,
    h3_h4_certify,
    optimality_sweep,
    optimality_verdict,
    spectral_bound,
    spectral_verdict,
    verify_identity,
    verify_verdict,
)
from .quadrature import (
    Integrand,
    QuadratureSpec,
    integrate_many,
    integrate_pole_ball,
    sphere_flux,  # unused here; mhbench/tracer.py rebinds this module attribute
    sphere_surface_measure,
)

__all__ = ["RunConfig", "ReportTable", "load_run_config", "main"]

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2


# --------------------------------------------------------------------------
# Config ingestion
# --------------------------------------------------------------------------


@dataclass
class RunConfig:
    """Parsed and validated run configuration (one config = one problem)."""

    cfg: PoleConfig
    weight: WeightSpec
    params: HardyParams
    quadrature: QuadratureSpec
    experiments: dict
    out_dir: str
    formats: tuple[str, ...]
    source: str


@dataclass
class ReportTable:
    """One experiment's report: long-format rows plus a summary.

    Every numeric column is paired with an ``<name>_error`` column holding
    its error estimate or the marker ``exact``.  The columns are the keys
    of the first row, in order.
    """

    experiment: str
    rows: list[dict]
    summary: dict
    passed: bool
    wall_time_s: float = 0.0


def _check_keys(node: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(node) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown key(s) {unknown} in {path!r} (allowed: {sorted(allowed)})"
        )


def _mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{path!r} must be a mapping, got {type(node).__name__}")
    return node


_REQUIRED = object()


def _number(node: dict, key: str, path: str, default=_REQUIRED):
    """``node[key]`` as a float, or `default` when the key is absent."""
    value = node.get(key, default)
    if value is _REQUIRED:
        raise ConfigError(f"missing required key '{path}.{key}'")
    if value is None and default is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{path}.{key}' must be a number, got {value!r}")
    return float(value)


def _parse_weight(node, path: str) -> WeightSpec:
    node = _mapping(node, path)
    kind = node.get("kind")
    if kind == "unit":
        _check_keys(node, {"kind"}, path)
        return WeightSpec.unit()
    if kind == "polyexp":
        _check_keys(node, {"kind", "gamma", "delta", "m"}, path)
        return WeightSpec.polyexp(
            gamma=_number(node, "gamma", path, 0.0),
            delta=_number(node, "delta", path, 0.0),
            m=_number(node, "m", path, 2.0),
        )
    raise ConfigError(f"{path}.kind must be 'unit' or 'polyexp', got {kind!r}")


#: Keys of each ``experiments.<name>`` block with their defaults.  A float
#: or bool default also sets the type a given value must have; the keys in
#: `_OPTIONAL_NUMBERS` must be numbers when they are given.
_BLOCK_DEFAULTS = {
    "verify": {"functions": None, "residual_tol": 1e-3, "ratio_slack": 0.02},
    "optimality": {
        "eps_list": None,
        "R": None,
        "slope_band": 0.15,
        "ratio_band": 0.10,
        "r2_min": 0.98,
    },
    "beta_sweep": {"beta_list": None, "function": None, "residual_tol": 1e-2},
    "spectral": {
        "basis": None,
        "prefix_sizes": None,
        "allow_truncation": False,
        "lower_slack": 0.02,
        "upper_band": None,
    },
    "certify": {"beta": None},
}
_OPTIONAL_NUMBERS = {"R", "upper_band", "beta"}

_QUAD_FIELDS = {f.name for f in dataclasses.fields(QuadratureSpec)}


def parse_run_config(data: dict, source: str = "<memory>") -> RunConfig:
    """Build a RunConfig from a parsed JSON tree, rejecting unknown keys."""
    data = _mapping(data, "<top-level>")
    _check_keys(
        data, {"problem", "quadrature", "experiments", "output", "seed"}, "<top-level>"
    )
    for block in ("problem", "quadrature"):
        if block not in data:
            raise ConfigError(f"missing required block {block!r}")

    prob = _mapping(data["problem"], "problem")
    _check_keys(prob, {"dim", "poles", "weight", "k_mu", "c_mu"}, "problem")
    for key in ("dim", "poles", "k_mu"):
        if key not in prob:
            raise ConfigError(f"missing required key 'problem.{key}'")
    dim = int(prob["dim"])
    poles = np.asarray(prob["poles"], dtype=float)
    if poles.ndim != 2 or poles.shape[1] != dim:
        raise ConfigError(
            f"problem.poles must be an array of shape (n, {dim}), got {poles.shape}"
        )
    cfg = PoleConfig(dim=dim, poles=poles)
    weight = _parse_weight(prob.get("weight", {"kind": "unit"}), "problem.weight")
    validate_config(cfg, weight)
    k_mu = _number(prob, "k_mu", "problem")
    c_mu = _number(prob, "c_mu", "problem", 0.0)
    params = derive_params(cfg, k_mu, c_mu)

    quad = dict(_mapping(data["quadrature"], "quadrature"))
    _check_keys(quad, _QUAD_FIELDS, "quadrature")
    if "seed" in data:
        quad["seed"] = int(data["seed"])
    quad.setdefault("seed", 0)
    try:
        spec = QuadratureSpec(**quad)
    except TypeError as exc:
        raise ConfigError(f"bad quadrature block: {exc}") from exc

    experiments = _mapping(data.get("experiments", {}), "experiments")
    _check_keys(experiments, set(_BLOCK_DEFAULTS), "experiments")

    output = _mapping(data.get("output", {}), "output")
    _check_keys(output, {"directory", "formats"}, "output")
    out_dir = str(output.get("directory", "out"))
    formats = tuple(output.get("formats", ("csv", "json")))
    bad = set(formats) - {"csv", "json"}
    if bad:
        raise ConfigError(f"output.formats entries must be csv/json, got {sorted(bad)}")

    return RunConfig(
        cfg=cfg,
        weight=weight,
        params=params,
        quadrature=spec,
        experiments=experiments,
        out_dir=out_dir,
        formats=formats,
        source=source,
    )


def load_run_config(path: str, *, seed: int | None = None) -> RunConfig:
    """Load a JSON run config from disk, applying the seed override."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if seed is not None:
        data = dict(_mapping(data, "<top-level>"))
        data["seed"] = seed
    return parse_run_config(data, source=path)


def _parse_function(node, run: RunConfig, path: str):
    """Build a test function from its config node."""
    node = _mapping(node, path)
    kind = node.get("kind")
    cfg, p = run.cfg, run.params
    if kind == "gaussian_bump":
        _check_keys(node, {"kind", "center", "width"}, path)
        center = np.asarray(node.get("center"), dtype=float)
        if center.shape != (cfg.dim,):
            raise ConfigError(f"{path}.center must have length {cfg.dim}")
        return GaussianBump(center=center, width=_number(node, "width", path))
    if kind == "cutoff_theta":
        _check_keys(node, {"kind", "R", "eps"}, path)
        return CutoffTheta(R=_number(node, "R", path), eps=_number(node, "eps", path))
    if kind == "optimality_phi":
        _check_keys(node, {"kind", "R", "eps", "beta"}, path)
        radius = _number(node, "R", path, None)
        if radius is None:
            radius = enclosing_radius(cfg, min_pole_gap(cfg))
        eps, beta = _number(node, "eps", path), _number(node, "beta", path, p.beta)
        return OptimalityPhi(cfg=cfg, R=radius, eps=eps, beta=beta)
    raise ConfigError(
        f"{path}.kind must be gaussian_bump/cutoff_theta/optimality_phi, got {kind!r}"
    )


def _function_label(phi) -> str:
    """Single-cell label; must stay free of commas to keep the CSV flat."""
    if isinstance(phi, GaussianBump):
        center = ";".join(f"{c:g}" for c in phi.center)
        return f"gaussian_bump(center=[{center}];width={phi.width:g})"
    if isinstance(phi, CutoffTheta):
        return f"cutoff_theta(R={phi.R:g};eps={phi.eps:g})"
    return f"optimality_phi(R={phi.R:g};eps={phi.eps:g};beta={phi.beta:g})"


# --------------------------------------------------------------------------
# Report writing
# --------------------------------------------------------------------------


def _fmt(value) -> str:
    """Render a cell: 17 significant digits for floats, bare strings kept."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def write_report(table: ReportTable, run: RunConfig, args) -> None:
    """Write <experiment>.csv and <experiment>_summary.json under the out dir."""
    out_dir = args.out or run.out_dir
    os.makedirs(out_dir, exist_ok=True)
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    if "csv" in run.formats:
        path = os.path.join(out_dir, f"{table.experiment}.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# command: {table.experiment}\n")
            fh.write(f"# config: {run.source}\n")
            fh.write(f"# seed: {run.quadrature.seed}\n")
            fh.write(f"# generated: {stamp}\n")
            fh.write(f"# wall_time_s: {table.wall_time_s:.3f}\n")
            columns = tuple(table.rows[0])
            fh.write(",".join(columns) + "\n")
            for row in table.rows:
                fh.write(",".join(_fmt(row[c]) for c in columns) + "\n")
        _emit(args, f"wrote {path}")
    if "json" in run.formats:
        payload = {
            "command": table.experiment,
            "pass": table.passed,
            "wall_time_s": round(table.wall_time_s, 3),
            **table.summary,
            "config": run.source,
            "seed": run.quadrature.seed,
        }
        path = os.path.join(out_dir, f"{table.experiment}_summary.json")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
            fh.write("\n")
        _emit(args, f"wrote {path}")


def _json_default(obj):
    if isinstance(obj, (np.bool_, np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _emit(args, text: str) -> None:
    if not args.quiet:
        print(text)


# --------------------------------------------------------------------------
# selftest corpus
# --------------------------------------------------------------------------


def _selftest_spec(seed: int, **overrides) -> QuadratureSpec:
    base = dict(
        pole_radius=1.0,
        far_radius=6.0,
        radial_levels=14,
        mc_samples=20_000,
        seed=seed,
        tail_exponent=2.0,
    )
    base.update(overrides)
    return QuadratureSpec(**base)


def _check_gaussian(seed: int):
    """Gaussian integral over R^3 against pi^(3/2)."""
    cfg = PoleConfig(dim=3, poles=np.zeros((1, 3)))
    spec = _selftest_spec(seed, pole_radius=4.0, radial_levels=12, tail_exponent=4.0)
    integrand = Integrand(
        func=lambda x: np.exp(-np.sum(x * x, axis=1)),
        pole_exponents=[0.0],
        support_radius=None,
        name="gaussian",
    )
    (res,) = integrate_many([integrand], cfg, spec)
    exact = math.pi**1.5
    rel = abs(res.value - exact) / exact
    return rel < 1e-4, f"rel err {rel:.3e} (tol 1e-04)"


def _check_ball_inverse_square(seed: int):
    """Integral of |x|^-2 over the unit ball against 4 pi."""
    cfg = PoleConfig(dim=3, poles=np.zeros((1, 3)))
    res = integrate_pole_ball(
        lambda x: 1.0 / np.sum(x * x, axis=1), cfg, 0, 1.0, levels=16, exponent=2.0
    )
    exact = 4.0 * math.pi
    rel = abs(res.value - exact) / exact
    return rel < 1e-4, f"rel err {rel:.3e} (tol 1e-04)"


def _check_singular_power(seed: int):
    """Integral of |x|^-5/2 over the unit ball against omega_3 / (1/2)."""
    cfg = PoleConfig(dim=3, poles=np.zeros((1, 3)))
    res = integrate_pole_ball(
        lambda x: np.sum(x * x, axis=1) ** -1.25, cfg, 0, 1.0, levels=16, exponent=2.5
    )
    exact = sphere_surface_measure(3) / 0.5
    rel = abs(res.value - exact) / exact
    return rel < 1e-4, f"rel err {rel:.3e} (tol 1e-04)"


def _check_sphere_measures(seed: int):
    """Closed-form unit sphere measures in dimensions 3..6."""
    exact = {
        3: 4.0 * math.pi,
        4: 2.0 * math.pi**2,
        5: 8.0 * math.pi**2 / 3.0,
        6: math.pi**3,
    }
    worst = max(
        abs(sphere_surface_measure(d) - v) / v for d, v in exact.items()
    )
    return worst < 1e-13, f"max rel err {worst:.3e} (tol 1e-13)"


def _random_instances(seed: int):
    rng = np.random.default_rng(seed)
    for dim in (3, 4, 5):
        for n in (1, 2, 3, 4):
            poles = rng.uniform(-2.0, 2.0, size=(n, dim))
            yield PoleConfig(dim=dim, poles=poles), rng


def _check_cross_identity(seed: int):
    """Algebraic cross-term identity at random points (pure rounding)."""
    worst = 0.0
    for cfg, rng in _random_instances(seed):
        pts = rng.uniform(-3.0, 3.0, size=(100, cfg.dim))
        gap = np.abs(cross_term_identity_gap(pts, cfg))
        dist = np.linalg.norm(pts[:, None, :] - cfg.poles[None, :, :], axis=2)
        scale = (cfg.n_poles) * np.sum(1.0 / dist**2, axis=1) + 1.0
        worst = max(worst, float(np.max(gap / scale)))
    return worst < 1e-12, f"max scaled gap {worst:.3e} (tol 1e-12)"


def _fd_points(cfg: PoleConfig, rng, count: int = 20) -> np.ndarray:
    """Random points at a safe distance from every pole."""
    pts = []
    while len(pts) < count:
        x = rng.uniform(-3.0, 3.0, size=cfg.dim)
        if np.min(np.linalg.norm(cfg.poles - x, axis=1)) > 0.35:
            pts.append(x)
    return np.array(pts)


def _check_gradient_fd(seed: int):
    """grad(f)/f against central differences of log f."""
    worst = 0.0
    for cfg, rng in _random_instances(seed):
        beta = rng.uniform(0.2, 1.5)
        pts = _fd_points(cfg, rng)
        _, grad = hardy_factor(pts, cfg, beta)
        h = 1e-6
        fd = np.empty_like(grad)
        for k in range(cfg.dim):
            e = np.zeros(cfg.dim)
            e[k] = h
            fp, _ = hardy_factor(pts + e, cfg, beta)
            fm, _ = hardy_factor(pts - e, cfg, beta)
            fd[:, k] = (np.log(fp) - np.log(fm)) / (2.0 * h)
        scale = np.linalg.norm(grad, axis=1) + 1.0
        worst = max(worst, float(np.max(np.linalg.norm(fd - grad, axis=1) / scale)))
    return worst < 1e-6, f"max rel err {worst:.3e} (tol 1e-06)"


def _check_laplacian_fd(seed: int):
    """Delta(f)/f against a second-order central difference of f."""
    worst = 0.0
    for cfg, rng in _random_instances(seed):
        beta = rng.uniform(0.2, 1.2)
        pts = _fd_points(cfg, rng)
        lap = laplacian_ratio(pts, cfg, beta)
        f0, _ = hardy_factor(pts, cfg, beta)
        h = 2e-4
        acc = np.zeros(pts.shape[0])
        for k in range(cfg.dim):
            e = np.zeros(cfg.dim)
            e[k] = h
            fp, _ = hardy_factor(pts + e, cfg, beta)
            fm, _ = hardy_factor(pts - e, cfg, beta)
            acc += fp + fm - 2.0 * f0
        fd = acc / (h * h) / f0
        scale = np.abs(lap) + 1.0
        worst = max(worst, float(np.max(np.abs(fd - lap) / scale)))
    return worst < 1e-4, f"max rel err {worst:.3e} (tol 1e-04)"


def _check_near_pole(seed: int):
    """|x - a_i|^2 V -> n - 1 along approach sequences, extrapolated."""
    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    for n in (2, 3, 4):
        cfg = PoleConfig(dim=4, poles=rng.uniform(-2.0, 2.0, size=(n, 4)))
        direction = rng.standard_normal(4)
        direction /= np.linalg.norm(direction)
        ts = 10.0 ** -np.arange(1.0, 6.0)
        pts = cfg.poles[0] + ts[:, None] * direction
        vals = ts**2 * potential_v(pts, cfg)
        # One Richardson step on the O(t) error using the two smallest t.
        extrap = vals[-1] + (vals[-1] - vals[-2]) * ts[-1] / (ts[-2] - ts[-1])
        worst = max(worst, abs(extrap - (n - 1)) / (n - 1))
    return worst < 0.01, f"max rel err {worst:.3e} (tol 1e-02)"


def _check_v_invariance(seed: int):
    """V under pole permutation, translation, and scaling."""
    worst = 0.0
    for cfg, rng in _random_instances(seed + 2):
        if cfg.n_poles < 2:
            continue
        pts = rng.uniform(-3.0, 3.0, size=(50, cfg.dim))
        base = potential_v(pts, cfg)
        scale = np.abs(base) + 1.0
        perm = rng.permutation(cfg.n_poles)
        v_perm = potential_v(pts, PoleConfig(dim=cfg.dim, poles=cfg.poles[perm]))
        shift = rng.uniform(-1.0, 1.0, size=cfg.dim)
        v_shift = potential_v(
            pts + shift, PoleConfig(dim=cfg.dim, poles=cfg.poles + shift)
        )
        lam = rng.uniform(0.5, 2.0)
        v_scale = potential_v(
            lam * pts, PoleConfig(dim=cfg.dim, poles=lam * cfg.poles)
        ) * lam**2
        for other in (v_perm, v_shift, v_scale):
            worst = max(worst, float(np.max(np.abs(other - base) / scale)))
    return worst < 1e-11, f"max rel err {worst:.3e} (tol 1e-11)"


_SELFTEST_CASES = (
    ("sphere_measures", _check_sphere_measures),
    ("quadrature_gaussian", _check_gaussian),
    ("quadrature_ball_inverse_square", _check_ball_inverse_square),
    ("quadrature_singular_power", _check_singular_power),
    ("identity_cross_terms", _check_cross_identity),
    ("gradient_fd", _check_gradient_fd),
    ("laplacian_fd", _check_laplacian_fd),
    ("near_pole_limit", _check_near_pole),
    ("potential_invariances", _check_v_invariance),
)


def cmd_selftest(args) -> int:
    """Run the reference corpus; exit 0 iff every selected case passes."""
    seed = args.seed if args.seed is not None else 20_240
    pattern = (args.filter or "").lower()
    cases = [(n, f) for n, f in _SELFTEST_CASES if pattern in n.lower()]
    if not cases:
        print(f"no selftest case matches filter {args.filter!r}", file=sys.stderr)
        return EXIT_USAGE
    failures = []
    for name, fn in cases:
        t0 = time.perf_counter()
        ok, detail = fn(seed)
        dt = time.perf_counter() - t0
        _emit(args, f"{'PASS' if ok else 'FAIL'}  {name:<32} {detail}  [{dt:.2f}s]")
        if not ok:
            failures.append(name)
    if failures:
        print("selftest failures: " + ", ".join(failures), file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


# --------------------------------------------------------------------------
# Experiment subcommands: compute with the library, gate with its verdicts,
# render the records
# --------------------------------------------------------------------------

def _load(args, name: str, *, required: bool = True) -> tuple[RunConfig, dict]:
    """The run config and its ``experiments.<name>`` block, defaults filled in.

    Unknown keys are rejected; a missing block is a config error unless
    the subcommand needs no settings (`required` False).
    """
    run = load_run_config(args.config, seed=args.seed)
    path = f"experiments.{name}"
    if required and name not in run.experiments:
        raise ConfigError(f"config has no {path!r} block")
    node = _mapping(run.experiments.get(name, {}), path)
    defaults = _BLOCK_DEFAULTS[name]
    _check_keys(node, set(defaults), path)
    block = {}
    for key, default in defaults.items():
        value = node.get(key, default)
        if isinstance(default, bool):
            if not isinstance(value, bool):
                raise ConfigError(f"'{path}.{key}' must be a boolean, got {value!r}")
        elif isinstance(default, float) or key in _OPTIONAL_NUMBERS:
            value = _number(node, key, path, default)
        block[key] = value
    return run, block


def _nonempty(block: dict, name: str, key: str) -> list:
    if not block[key]:
        raise ConfigError(f"experiments.{name}.{key} must be a nonempty list")
    return block[key]


def _finish(args, run, experiment, rows, summary, verdict: Verdict, t0, detail) -> int:
    """Write the report, print the progress line, return the exit code."""
    table = ReportTable(
        experiment=experiment,
        rows=rows,
        summary={**summary, **verdict.summary},
        passed=verdict.passed,
        wall_time_s=time.perf_counter() - t0,
    )
    write_report(table, run, args)
    label = experiment.replace("_", "-")
    _emit(args, f"{label}: {'PASS' if verdict.passed else 'FAIL'} ({detail})")
    return EXIT_OK if verdict.passed else EXIT_NUMERICAL


def cmd_verify(args) -> int:
    """Check the integral identity and the ratio bound over a corpus."""
    run, block = _load(args, "verify")
    nodes = _nonempty(block, "verify", "functions")
    pattern = (args.filter or "").lower()
    functions = []
    for idx, node in enumerate(nodes):
        phi = _parse_function(node, run, f"experiments.verify.functions[{idx}]")
        if pattern in _function_label(phi).lower():
            functions.append(phi)
    if not functions:
        raise ConfigError(f"no verify function matches filter {args.filter!r}")

    cfg, p = run.cfg, run.params
    t0 = time.perf_counter()
    records = verify_identity(cfg, run.weight, p, functions, run.quadrature)
    verdict = verify_verdict(
        records, p, block["residual_tol"], block["ratio_slack"]
    )
    rows = []
    notes = []
    if cfg.n_poles < 2:
        notes.append("single pole: V vanishes identically, ratio rows skipped")
    for phi, rec, flags in zip(functions, records, verdict.rows):
        row = {"function": _function_label(phi)}
        for name in ("dirichlet", "v_mass", "w_mass", "l2_mass", "remainder"):
            res = getattr(rec.report, name)
            row[name] = res.value
            row[f"{name}_error"] = res.error
        zero_v = rec.hardy_ratio is None
        if zero_v and cfg.n_poles >= 2:
            notes.append(f"{row['function']}: V-mass indistinguishable from zero")
        rows.append(
            {
                **row,
                "flux": rec.flux,
                "flux_error": rec.flux_error if rec.truncated else "exact",
                "identity_residual": rec.residual,
                "identity_residual_error": rec.residual_error,
                "hardy_ratio": "nan" if zero_v else rec.hardy_ratio,
                "hardy_ratio_error": "nan" if zero_v else rec.ratio_error,
                "truncated": rec.truncated,
                **flags,
            }
        )
    summary = {
        "functions": len(rows),
        "residual_tol": block["residual_tol"],
        "c_n_mu": p.c_n_mu,
        "worst_abs_residual": max(abs(r.residual) for r in records),
        "notes": notes,
    }
    return _finish(
        args, run, "verify", rows, summary, verdict, t0, f"{len(rows)} functions"
    )


def cmd_optimality(args) -> int:
    """Sharpness sweep: remainder decay rate and terminal Hardy ratio."""
    run, block = _load(args, "optimality")
    p = run.params

    t0 = time.perf_counter()
    records, fit = optimality_sweep(
        run.cfg,
        run.weight,
        p,
        block["eps_list"],
        run.quadrature,
        R=block["R"],
    )
    verdict = optimality_verdict(
        records, fit, p, block["slope_band"], block["ratio_band"], block["r2_min"]
    )
    rows = [
        {
            "eps": r.eps,
            "eps_error": "exact",
            "remainder": r.remainder,
            "remainder_error": r.remainder_error,
            "hardy_ratio": r.hardy_ratio,
            "hardy_ratio_error": r.ratio_error,
            "deficit": r.deficit,
            "deficit_error": r.deficit_error,
            "flux": r.flux,
            "flux_error": r.flux_error if r.truncated else "exact",
            "truncated": r.truncated,
        }
        for r in records
    ]
    last = records[-1]
    finite = math.isfinite(fit.predicted_slope)
    summary = {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "predicted_slope": fit.predicted_slope if finite else "inf",
        "points_used": fit.points_used,
        "ratio_at_smallest_eps": last.hardy_ratio,
        "c_n_mu": p.c_n_mu,
    }
    detail = (
        f"slope {fit.slope:.4g} vs {fit.predicted_slope:.4g}, "
        f"ratio {last.hardy_ratio:.6g} vs c {p.c_n_mu:.6g}"
    )
    return _finish(args, run, "optimality", rows, summary, verdict, t0, detail)


def cmd_beta_sweep(args) -> int:
    """General-exponent identity residuals and the companion vertex."""
    run, block = _load(args, "beta_sweep")
    betas = _nonempty(block, "beta_sweep", "beta_list")
    phi = _parse_function(block["function"], run, "experiments.beta_sweep.function")
    residual_tol = block["residual_tol"]
    k_mu = run.params.k_mu

    t0 = time.perf_counter()
    result = beta_sweep(run.cfg, run.weight, k_mu, betas, phi, run.quadrature)
    verdict = beta_sweep_verdict(result, run.cfg, k_mu, residual_tol)
    rows = [
        {
            "beta": rec.beta,
            "beta_error": "exact",
            "coefficient": rec.coefficient,
            "coefficient_error": "exact",
            "identity_residual": rec.residual,
            "identity_residual_error": rec.residual_error,
            **flags,
        }
        for rec, flags in zip(result.records, verdict.rows)
    ]
    summary = {
        "argmax_beta": result.argmax_beta,
        "vertex_beta": result.vertex_beta,
        "max_coefficient": result.max_coefficient,
        "vertex_value": result.vertex_value,
        "residual_tol": residual_tol,
    }
    detail = f"argmax {result.argmax_beta:.6g}, vertex {result.vertex_beta:.6g}"
    return _finish(args, run, "beta_sweep", rows, summary, verdict, t0, detail)


def cmd_spectral(args) -> int:
    """Finite-span spectral bound over growing basis prefixes."""
    run, block = _load(args, "spectral")
    basis = [
        _parse_function(node, run, f"experiments.spectral.basis[{i}]")
        for i, node in enumerate(_nonempty(block, "spectral", "basis"))
    ]
    sizes = block["prefix_sizes"] or [len(basis)]
    if not isinstance(sizes, list) or not all(type(s) is int for s in sizes):
        raise ConfigError(
            f"'experiments.spectral.prefix_sizes' must be integers, got {sizes!r}"
        )
    sizes = sorted(set(sizes))
    if sizes[0] < 1 or sizes[-1] > len(basis):
        raise ConfigError(
            f"prefix_sizes must lie in 1..{len(basis)}, got {sizes}"
        )

    cfg, w, p, spec = run.cfg, run.weight, run.params, run.quadrature
    t0 = time.perf_counter()
    results = [
        spectral_bound(
            cfg, w, p, basis[:size], spec, allow_truncation=block["allow_truncation"]
        )
        for size in sizes
    ]
    verdict = spectral_verdict(results, p, block["lower_slack"], block["upper_band"])
    rows = [
        {
            "basis_size": res.basis_size,
            "basis_size_error": "exact",
            "rank": res.rank,
            "rank_error": "exact",
            "lambda_min": res.lambda_min,
            "lambda_min_error": res.lambda_error,
            "lambda_over_c": res.lambda_min / p.c_n_mu,
            "lambda_over_c_error": res.lambda_error / p.c_n_mu,
        }
        for res in results
    ]
    last = results[-1]
    summary = {
        "lambda_min": last.lambda_min,
        "lambda_error": last.lambda_error,
        "c_n_mu": p.c_n_mu,
        "lambda_over_c": last.lambda_min / p.c_n_mu,
        "rank": last.rank,
        "witness": [float(v) for v in last.witness],
    }
    detail = f"lambda_min {last.lambda_min:.6g}, c {p.c_n_mu:.6g}"
    return _finish(args, run, "spectral", rows, summary, verdict, t0, detail)


def cmd_certify(args) -> int:
    """Certify the weight hypotheses for the configured problem."""
    run, block = _load(args, "certify", required=False)
    cfg, w, p = run.cfg, run.weight, run.params
    beta = p.beta if block["beta"] is None else block["beta"]

    t0 = time.perf_counter()
    h2_note = ""
    c_mu_est = max_point = None
    try:
        c_mu_est, max_point = h2_certify(cfg, w, beta, p.k_mu, run.quadrature)
    except UnboundedSuspected as exc:
        h2_note = str(exc)
    unbounded = c_mu_est is None
    rows = [
        {
            "record": "h2_c_mu",
            "pole": "",
            "parameter": beta,
            "value": "nan" if unbounded else c_mu_est,
            "value_error": "nan" if unbounded else 0.05 * abs(c_mu_est),
            "status": "unbounded_suspected" if unbounded else "bounded",
        }
    ]
    report = h3_h4_certify(cfg, w, p.k_mu, run.quadrature.seed)
    verdict = certify_verdict(c_mu_est, report)
    for i in range(cfg.n_poles):
        for k, delta in enumerate(report.h3_deltas):
            rows.append(
                {
                    "record": "h3_scaled_ball_mass",
                    "pole": i,
                    "parameter": float(delta),
                    "value": float(report.h3_values[i, k]),
                    "value_error": float(report.h3_errors[i, k]),
                    "status": "decreasing" if report.h3_pass else "fail",
                }
            )
    rows.append(
        {
            "record": "h4i_local_exponent",
            "pole": "",
            "parameter": p.k_mu,
            "value": report.h4i_exponent,
            "value_error": "exact",
            "status": report.h4i_status,
        }
    )
    rows.append(
        {
            "record": "h4ii_far_field_sup",
            "pole": "",
            "parameter": report.h4ii_decay,
            "value": report.h4ii_sup,
            "value_error": 0.05 * abs(report.h4ii_sup),
            "status": "bounded" if report.h4ii_pass else "fail",
        }
    )
    summary = {
        "beta": beta,
        "k_mu": p.k_mu,
        "c_mu_estimate": "nan" if unbounded else c_mu_est,
        "h2_note": h2_note,
        "h4i_status": report.h4i_status,
        "h4i_exponent": report.h4i_exponent,
        "h4ii_decay": report.h4ii_decay,
    }
    if max_point is not None:
        summary["h2_argmax_point"] = [float(v) for v in max_point]
    detail = (
        f"C_mu {summary['c_mu_estimate']}, H3 {report.h3_pass}, "
        f"H4i {report.h4i_status}, H4ii {report.h4ii_pass}"
    )
    return _finish(args, run, "certify", rows, summary, verdict, t0, detail)


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhardy",
        description=(
            "Numerical laboratory for weighted Hardy inequalities with "
            "multipolar potentials."
        ),
        epilog=(
            "Exit codes: 0 pass, 1 numerical failure, 2 usage/config error. "
            "Set MHARDY_WORKERS to override the evaluation worker count."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = (
        ("selftest", cmd_selftest, False),
        ("verify", cmd_verify, True),
        ("optimality", cmd_optimality, True),
        ("beta-sweep", cmd_beta_sweep, True),
        ("spectral", cmd_spectral, True),
        ("certify", cmd_certify, True),
    )
    for name, handler, needs_config in specs:
        p = sub.add_parser(name, help=handler.__doc__.splitlines()[0].lower())
        p.add_argument(
            "--config", required=needs_config, help="path to a JSON run config"
        )
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument(
            "--seed", type=int, default=None, help="seed override (64-bit unsigned)"
        )
        p.add_argument(
            "--filter", default=None, help="case/function name substring filter"
        )
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already; re-raise unchanged.
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MultipolarHardyError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
