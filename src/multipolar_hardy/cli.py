"""Command-line front end: config reading, report rendering, exit codes.

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

A config is a JSON file read by `_read` against one table, `_CONFIG`,
which gives every key its kind and its default or marks it required; a
subcommand reads its own ``experiments.<name>`` block against
``_BLOCKS[name]``.  An unknown key, a missing required key or a wrong
kind of value is a config error naming the key path, never converted.
Reports are CSV tables (17 significant digits; run metadata only in the
leading ``#`` comment lines, so the bodies from identical config + seed
are byte-identical) and JSON summaries.  Exit codes: 0 all checks passed,
1 a numerical check failed, 2 usage or config error.

The experiment subcommands compute their records and pass/fail verdicts
with `multipolar_hardy.experiments`; this module only reads the config,
renders the records as report rows and maps the verdict to an exit code.
"""

from __future__ import annotations

import argparse
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

__all__ = ["RunConfig", "load_run_config", "main"]

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


_FLOAT_MAX = sys.float_info.max

#: Scalar kinds, named by what a value must be, with their tests.  A bool
#: is never a number, NaN and Infinity are not finite numbers, and no
#: value is converted to another kind.
_SCALARS = {
    "a finite number": lambda v: type(v) in (int, float) and abs(v) <= _FLOAT_MAX,
    "an integer": lambda v: type(v) is int,
    "an integer in [0, 2^64)": lambda v: type(v) is int and 0 <= v < 2**64,
    "true or false": lambda v: type(v) is bool,
    "a string": lambda v: isinstance(v, str),
    "a mapping": lambda v: isinstance(v, dict),
}
NUMBER, INTEGER, SEED, BOOLEAN, STRING, MAPPING = _SCALARS
VECTOR = "a vector"


class _OneOf(dict):
    """Alternative tables of a node, selected by its ``kind`` string."""


def _value(kind, value, path: str, dim: int | None):
    """`value` read as `kind`, else a ConfigError naming `path`.

    A kind is a scalar kind, `VECTOR` (a list of `dim` numbers), a set
    of strings to choose from, ``[kind]`` for a nonempty list of that
    kind, a table (see `_read`) or a `_OneOf` of tables.
    """
    if isinstance(kind, _OneOf):
        tag = _value(MAPPING, value, path, dim).get("kind")
        tag = _value(set(kind), tag, f"{path}.kind", dim)
        return _read(value, {"kind": (STRING, ...), **kind[tag]}, path, dim)
    if isinstance(kind, dict):
        return _read(value, kind, path, dim)
    if isinstance(kind, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"'{path}' must be a nonempty list, got {value!r}")
        return [_value(kind[0], v, f"{path}[{i}]", dim) for i, v in enumerate(value)]
    if kind is VECTOR:
        if not isinstance(value, list) or len(value) != dim:
            raise ConfigError(f"'{path}' must be {dim} numbers, got {value!r}")
        return _value([NUMBER], value, path, dim)
    if isinstance(kind, set):
        ok, what = isinstance(value, str) and value in kind, f"one of {sorted(kind)}"
    else:
        ok, what = _SCALARS[kind](value), kind
    if not ok:
        raise ConfigError(f"'{path}' must be {what}, got {value!r}")
    return float(value) if kind == NUMBER else value


def _read(node, table: dict, path: str = "", dim: int | None = None) -> dict:
    """Read a config mapping against its table ``{key: (kind, default)}``.

    An unknown key, a missing required key (default ``...``) or a value
    of the wrong kind is a ConfigError naming the key path.  A missing key
    takes its default, read as if given; a key whose default is None may
    also be null.  Vectors have the length `dim`, or that of a ``dim`` key read
    before them.
    """
    where = path or "<top-level>"
    if not isinstance(node, dict):
        raise ConfigError(f"'{where}' must be a mapping, got {type(node).__name__}")
    unknown = sorted(set(node) - set(table))
    if unknown:
        raise ConfigError(
            f"unknown key(s) {unknown} in '{where}' (allowed: {sorted(table)})"
        )
    out = {}
    for key, (kind, default) in table.items():
        sub = f"{path}.{key}" if path else key
        value = node.get(key, default)
        if value is ...:
            raise ConfigError(f"missing required key '{sub}'")
        if value is not None or default is not None:
            value = _value(kind, value, sub, out.get("dim", dim))
        out[key] = value
    return out


_FUNCTION = _OneOf(
    gaussian_bump={"center": (VECTOR, ...), "width": (NUMBER, ...)},
    cutoff_theta={"R": (NUMBER, ...), "eps": (NUMBER, ...)},
    # R defaults to the pole-ball enclosing radius, beta to the derived one.
    optimality_phi={"R": (NUMBER, None), "eps": (NUMBER, ...), "beta": (NUMBER, None)},
)

#: Table of each ``experiments.<name>`` block, read by its subcommand only.
_BLOCKS = {
    "verify": {
        "functions": ([_FUNCTION], ...),
        "residual_tol": (NUMBER, 1e-3),
        "ratio_slack": (NUMBER, 0.02),
    },
    "optimality": {
        "eps_list": ([NUMBER], None),
        "R": (NUMBER, None),
        "slope_band": (NUMBER, 0.15),
        "ratio_band": (NUMBER, 0.10),
        "r2_min": (NUMBER, 0.98),
    },
    "beta_sweep": {
        "beta_list": ([NUMBER], ...),
        "function": (_FUNCTION, ...),
        "residual_tol": (NUMBER, 1e-2),
    },
    "spectral": {
        "basis": ([_FUNCTION], ...),
        "prefix_sizes": ([INTEGER], None),
        "allow_truncation": (BOOLEAN, False),
        "lower_slack": (NUMBER, 0.02),
        "upper_band": (NUMBER, None),
    },
    "certify": {"beta": (NUMBER, None)},
}

_WEIGHT = _OneOf(
    unit={},
    polyexp={"gamma": (NUMBER, 0.0), "delta": (NUMBER, 0.0), "m": (NUMBER, 2.0)},
)

_PROBLEM = {
    "dim": (INTEGER, ...),
    "poles": ([VECTOR], ...),
    "weight": (_WEIGHT, {"kind": "unit"}),
    "k_mu": (NUMBER, ...),
}

_EXPERIMENTS = {name: (MAPPING, None) for name in _BLOCKS}
_EXPERIMENTS["certify"] = (MAPPING, {})  # the one subcommand that needs no block

_QUADRATURE = {
    "pole_radius": (NUMBER, ...),
    "far_radius": (NUMBER, ...),
    "radial_levels": (INTEGER, ...),
    "mc_samples": (INTEGER, ...),
    "seed": (SEED, 0),
}

#: The whole config; the experiments blocks are read by their subcommands.
_CONFIG = {
    "problem": (_PROBLEM, ...),
    "quadrature": (_QUADRATURE, ...),
    "experiments": (_EXPERIMENTS, {}),
    "output": (
        {"directory": (STRING, "out"), "formats": ([{"csv", "json"}], ["csv", "json"])},
        {},
    ),
}


def parse_run_config(data: dict, source: str = "<memory>") -> RunConfig:
    """Build a RunConfig from a parsed JSON tree read against `_CONFIG`."""
    top = _read(data, _CONFIG)
    prob, output = top["problem"], top["output"]
    cfg = PoleConfig(dim=prob["dim"], poles=prob["poles"])
    weight = WeightSpec(**prob["weight"])
    validate_config(cfg, weight)
    return RunConfig(
        cfg=cfg,
        weight=weight,
        params=derive_params(cfg, prob["k_mu"]),
        quadrature=QuadratureSpec(**top["quadrature"]),
        experiments=top["experiments"],
        out_dir=output["directory"],
        formats=tuple(output["formats"]),
        source=source,
    )


def load_run_config(path: str, *, seed: int | None = None) -> RunConfig:
    """Load a JSON run config from disk; `seed` (--seed) overrides
    quadrature.seed."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if seed is not None:
        seed = _value(SEED, seed, "--seed", None)
        if isinstance(data, dict) and isinstance(data.get("quadrature"), dict):
            data = {**data, "quadrature": {**data["quadrature"], "seed": seed}}
    return parse_run_config(data, source=path)


def _build_function(node: dict, run: RunConfig):
    """The test function of a node read against `_FUNCTION`."""
    if node["kind"] == "gaussian_bump":
        return GaussianBump(center=node["center"], width=node["width"])
    if node["kind"] == "cutoff_theta":
        return CutoffTheta(R=node["R"], eps=node["eps"])
    radius, beta = node["R"], node["beta"]
    if radius is None:
        radius = enclosing_radius(run.cfg, min_pole_gap(run.cfg))
    beta = run.params.beta if beta is None else beta
    return OptimalityPhi(cfg=run.cfg, R=radius, eps=node["eps"], beta=beta)


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


def _check_gaussian(seed: int):
    """Gaussian integral over R^3 against pi^(3/2)."""
    cfg = PoleConfig(dim=3, poles=np.zeros((1, 3)))
    spec = QuadratureSpec(
        pole_radius=4.0, far_radius=6.0, radial_levels=12, mc_samples=20_000,
        seed=seed,
    )
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
    seed = 20_240 if args.seed is None else _value(SEED, args.seed, "--seed", None)
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

def _load(args, name: str) -> tuple[RunConfig, dict]:
    """The run config and its ``experiments.<name>`` block, read against
    ``_BLOCKS[name]``."""
    run = load_run_config(args.config, seed=args.seed)
    path = f"experiments.{name}"
    if run.experiments[name] is None:
        raise ConfigError(f"config has no {path!r} block")
    return run, _read(run.experiments[name], _BLOCKS[name], path, run.cfg.dim)


def _finish(args, run, experiment, rows, summary, verdict: Verdict, t0, detail) -> int:
    """Write <experiment>.csv and <experiment>_summary.json under the out
    dir, print the progress line and return the exit code.

    Every numeric column is paired with an ``<name>_error`` column holding
    its error estimate or the marker ``exact``.  The columns are the keys
    of the first row, in order.
    """
    wall_time_s = time.perf_counter() - t0
    out_dir = args.out or run.out_dir
    os.makedirs(out_dir, exist_ok=True)
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    if "csv" in run.formats:
        path = os.path.join(out_dir, f"{experiment}.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# command: {experiment}\n")
            fh.write(f"# config: {run.source}\n")
            fh.write(f"# seed: {run.quadrature.seed}\n")
            fh.write(f"# generated: {stamp}\n")
            fh.write(f"# wall_time_s: {wall_time_s:.3f}\n")
            columns = tuple(rows[0])
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(row[c]) for c in columns) + "\n")
        _emit(args, f"wrote {path}")
    if "json" in run.formats:
        payload = {
            "command": experiment,
            "pass": verdict.passed,
            "wall_time_s": round(wall_time_s, 3),
            **summary,
            **verdict.summary,
            "config": run.source,
            "seed": run.quadrature.seed,
        }
        path = os.path.join(out_dir, f"{experiment}_summary.json")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
            fh.write("\n")
        _emit(args, f"wrote {path}")
    label = experiment.replace("_", "-")
    _emit(args, f"{label}: {'PASS' if verdict.passed else 'FAIL'} ({detail})")
    return EXIT_OK if verdict.passed else EXIT_NUMERICAL


def cmd_verify(args) -> int:
    """Check the integral identity and the ratio bound over a corpus."""
    run, block = _load(args, "verify")
    pattern = (args.filter or "").lower()
    functions = [_build_function(node, run) for node in block["functions"]]
    functions = [phi for phi in functions if pattern in _function_label(phi).lower()]
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
    betas = block["beta_list"]
    phi = _build_function(block["function"], run)
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
    basis = [_build_function(node, run) for node in block["basis"]]
    sizes = sorted(set(block["prefix_sizes"] or [len(basis)]))
    if sizes[0] < 1 or sizes[-1] > len(basis):
        raise ConfigError(
            f"prefix_sizes must lie in 1..{len(basis)}, got {sizes}"
        )

    cfg, w, p, spec = run.cfg, run.weight, run.params, run.quadrature
    t0 = time.perf_counter()
    # One assembly of the largest prefix; the smaller ones are its leading
    # blocks.
    full = spectral_bound(
        cfg, w, p, basis[: sizes[-1]], spec, allow_truncation=block["allow_truncation"]
    )
    results = [full.prefix(size) for size in sizes]
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
    run, block = _load(args, "certify")
    cfg, w, p = run.cfg, run.weight, run.params
    beta = p.beta if block["beta"] is None else block["beta"]

    t0 = time.perf_counter()
    c_mu_est = max_point = None
    h2 = {"value": "nan", "value_error": "nan", "status": "unbounded_suspected"}
    h2_note = ""
    try:
        c_mu_est, c_mu_err, max_point = h2_certify(
            cfg, w, beta, p.k_mu, run.quadrature
        )
        h2 = {"value": c_mu_est, "value_error": c_mu_err, "status": "bounded"}
    except UnboundedSuspected as exc:
        h2_note = str(exc)
    report = h3_h4_certify(cfg, w, p.k_mu, run.quadrature.seed)
    verdict = certify_verdict(c_mu_est, report)
    rows = [
        {"record": "h2_c_mu", "pole": "", "parameter": beta, **h2},
        *(
            {
                "record": "h3_scaled_ball_mass",
                "pole": i,
                "parameter": float(delta),
                "value": float(report.h3_values[i, k]),
                "value_error": float(report.h3_errors[i, k]),
                "status": "decreasing" if report.h3_pass else "fail",
            }
            for i in range(cfg.n_poles)
            for k, delta in enumerate(report.h3_deltas)
        ),
        {
            "record": "h4i_local_exponent",
            "pole": "",
            "parameter": p.k_mu,
            "value": report.h4i_exponent,
            "value_error": "exact",
            "status": report.h4i_status,
        },
        {
            "record": "h4ii_far_field_sup",
            "pole": "",
            "parameter": report.h4ii_decay,
            "value": report.h4ii_sup,
            "value_error": "exact" if report.h4ii_error is None else report.h4ii_error,
            "status": "bounded" if report.h4ii_pass else "fail",
        },
    ]
    summary = {
        "beta": beta,
        "k_mu": p.k_mu,
        "c_mu_estimate": h2["value"],
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
            "Exit codes: 0 pass, 1 numerical failure, 2 usage/config error."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = (
        ("selftest", cmd_selftest),
        ("verify", cmd_verify),
        ("optimality", cmd_optimality),
        ("beta-sweep", cmd_beta_sweep),
        ("spectral", cmd_spectral),
        ("certify", cmd_certify),
    )
    for name, handler in specs:
        p = sub.add_parser(name, help=handler.__doc__.splitlines()[0].lower())
        if name != "selftest":
            p.add_argument("--config", required=True, help="path to a JSON run config")
            p.add_argument("--out", default=None, help="output directory override")
        p.add_argument(
            "--seed", type=int, default=None, help="seed override (64-bit unsigned)"
        )
        if name in ("selftest", "verify"):
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
