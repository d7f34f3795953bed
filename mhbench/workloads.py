"""Seeded inputs of the four benchmark workloads and the checks on their outputs.

A workload is a list of ``mhardy`` subcommands, each with a JSON run config
generated here from the benchmark seed.  One *round* runs every subcommand
of the workload once, in order; the program only ever sees the generated
configs.  The seed draws a rotation of each workload's Gaussian-bump
corpus about the pole axis (see `_corpus`), the cutoff radius of the
sweeps, and the quadrature seed of `mc-bump` and `weighted`.

Every config starts from the two-pole geometry of the shipped configs
(poles at the origin and 2 e1).  The sample budgets are scaled down from
the reference specs so that a round takes seconds, not minutes; the
README of this directory lists each deviation.
"""

from __future__ import annotations

import csv
import math

import numpy as np

# Ranges of the bump corpora in tests/test_acceptance.py.
_CENTER_LO, _CENTER_HI = -1.2, 2.2
_CENTER_SCALE = (1.0, 0.8, 0.8)
_WIDTH_LO, _WIDTH_HI = 0.45, 0.9

# Error-scaled tolerance of a value against its stored reference, in units
# of the combined error bar; "exact" cells must agree to rounding.
_TOL_SIGMAS = 5.0
_EXACT_RTOL = 1e-12

WORKLOADS = ("mc-bump", "gram", "sweep", "weighted")


def _poles(dim: int) -> list[list[float]]:
    return [[0.0] * dim, [2.0] + [0.0] * (dim - 1)]


def _bumps(rng: np.random.Generator, count: int) -> list[dict]:
    """Gaussian bumps with uniform centres and stratified widths."""
    out = []
    for k in range(count):
        center = rng.uniform(_CENTER_LO, _CENTER_HI, size=3) * np.array(_CENTER_SCALE)
        width = _WIDTH_LO + (k + rng.uniform()) / count * (_WIDTH_HI - _WIDTH_LO)
        out.append({"kind": "gaussian_bump", "center": center, "width": float(width)})
    return out


def _corpus(workload: str, count: int, rng: np.random.Generator) -> list[dict]:
    """A fixed bump corpus of the workload, turned about the pole axis.

    The corpus is drawn once per workload, in the acceptance-test ranges.
    The seed then draws a rotation about the e1 axis through both poles.
    That maps the problem onto an equivalent one: every exact integral is
    unchanged, while the nodes cut the bumps differently.  Drawing fresh
    widths per seed instead moves the headline error bar by about 40%
    between seeds, which would hide any change a program makes to it.
    """
    base = _bumps(np.random.default_rng([2024, WORKLOADS.index(workload)]), count)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    out = []
    for node in base:
        center = np.array(node["center"])
        center[1:] = rot @ center[1:]
        out.append({**node, "center": [float(c) for c in center]})
    return out


def _config(dim, weight, k_mu, quadrature, experiments) -> dict:
    return {
        "problem": {
            "dim": dim,
            "poles": _poles(dim),
            "weight": weight,
            "k_mu": k_mu,
        },
        "quadrature": quadrature,
        "experiments": experiments,
        "output": {"directory": "unused", "formats": ["csv", "json"]},
    }


def _quadrature(seed, pole_radius, radial_levels, mc_samples) -> dict:
    return {
        "pole_radius": pole_radius,
        "far_radius": 6.0,
        "radial_levels": radial_levels,
        "mc_samples": mc_samples,
        "seed": seed,
    }


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2**31))


# Quadrature seed of `gram` and `sweep`, the one of the shipped unit
# config.  Their headline error bars come from integrands that the seeded
# input change leaves alone on the Monte Carlo region (see `operations`).
# With a drawn quadrature seed those error bars move by 6-7% between
# seeds, because the error estimate is itself a random variable.
_SHIPPED_QUADRATURE_SEED = 7

# Centre of the seeded cutoff radius R of the sweep, drawn from
# [0.9, 1.1] x this.  With eps <= 0.4 every cutoff annulus then starts
# beyond R/eps >= 9, outside far_radius = 6.
_SWEEP_R = 4.0


_UNIT = {"kind": "unit"}
_POWER = {"kind": "polyexp", "gamma": 0.5, "delta": 0.0}


def operations(workload: str, seed: int) -> list[tuple[str, str, dict]]:
    """The (label, subcommand, config) triples of one round, in run order."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "mc-bump":
        quad = _quadrature(_draw_seed(rng), 1.0, 14, 400_000)
        verify = {"functions": _corpus(workload, 3, rng), "residual_tol": 1e-3, "ratio_slack": 0.02}
        return [("verify", "verify", _config(3, _UNIT, 0.0, quad, {"verify": verify}))]
    if workload == "gram":
        quad = _quadrature(_SHIPPED_QUADRATURE_SEED, 0.9, 36, 100_000)
        basis = _corpus(workload, 2, rng) + [
            {"kind": "optimality_phi", "R": 1.0, "eps": eps} for eps in (0.1, 0.05)
        ]
        spectral = {
            "basis": basis,
            "prefix_sizes": [2, 4],
            "allow_truncation": True,
            "lower_slack": 0.02,
            "upper_band": 0.15,
        }
        return [("spectral", "spectral", _config(3, _UNIT, 0.0, quad, {"spectral": spectral}))]
    if workload == "sweep":
        # The seed draws the cutoff radius R.  Every cutoff annulus
        # [R/eps, 2R/eps] then lies beyond far_radius, so R moves the
        # annulus remainder and the far shells but not the integrands on
        # the Monte Carlo region, which set the headline error bar.
        ops = []
        for dim in (3, 4):
            quad = _quadrature(_SHIPPED_QUADRATURE_SEED, 0.9, 36, 100_000)
            sweep = {
                "R": float(rng.uniform(0.9, 1.1) * _SWEEP_R),
                "eps_list": [0.4, 0.2, 0.1, 0.05],
                "slope_band": 0.15,
                "ratio_band": 0.10,
                "r2_min": 0.98,
            }
            ops.append(
                (f"optimality_n{dim}", "optimality",
                 _config(dim, _UNIT, 0.0, quad, {"optimality": sweep}))
            )
        return ops
    if workload == "weighted":
        quad = _quadrature(_draw_seed(rng), 0.9, 24, 100_000)
        bumps = _corpus(workload, 3, rng)
        experiments = {
            "verify": {"functions": bumps[:2], "residual_tol": 1e-2, "ratio_slack": 0.02},
            "beta_sweep": {
                "beta_list": [0.05, 0.1, 0.15, 0.2],
                "function": bumps[2],
                "residual_tol": 1e-2,
            },
            "certify": {},
        }
        cfg = _config(3, _POWER, -0.6, quad, experiments)
        return [
            ("verify", "verify", cfg),
            ("beta_sweep", "beta-sweep", cfg),
            ("certify", "certify", cfg),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def probe_operation(seed: int) -> tuple[str, str, dict]:
    """A small verify whose mid region spans several evaluation chunks.

    The quadrature module splits evaluation into fixed chunks of 2^17
    points and hands them to worker threads, so the probe needs more mid
    region points than that for a worker count to make a difference.
    """
    rng = np.random.default_rng([seed, len(WORKLOADS)])
    quad = _quadrature(_draw_seed(rng), 1.0, 8, 600_000)
    verify = {"functions": _corpus("mc-bump", 1, rng), "residual_tol": 1e-3, "ratio_slack": 0.02}
    return ("probe", "verify", _config(3, _UNIT, 0.0, quad, {"verify": verify}))


# --------------------------------------------------------------------------
# Reading the reports
# --------------------------------------------------------------------------

# Headline columns per report; each is paired with a <name>_error column.
HEADLINE = {
    "verify": ("dirichlet", "l2_mass", "identity_residual", "hardy_ratio"),
    "spectral": ("lambda_min",),
    "optimality": ("remainder", "hardy_ratio", "deficit"),
    "beta_sweep": ("coefficient", "identity_residual"),
    "certify": ("value",),
}


def report_name(subcommand: str) -> str:
    return subcommand.replace("-", "_")


def csv_body(path: str) -> str:
    """The report minus its comment header; reruns must repeat it exactly."""
    with open(path, encoding="utf-8") as fh:
        return "".join(ln for ln in fh if not ln.startswith("#"))


def csv_rows(body: str) -> list[dict]:
    return list(csv.DictReader(body.splitlines()))


def _num(cell: str):
    """A float, or the marker string ("exact", "nan", "") kept as is."""
    try:
        return float(cell)
    except ValueError:
        return cell


def headline(subcommand: str, body: str) -> list[list]:
    """[column, value, error] for every headline cell, row by row."""
    cols = HEADLINE[report_name(subcommand)]
    out = []
    for row in csv_rows(body):
        for col in cols:
            out.append([col, _num(row[col]), _num(row[col + "_error"])])
    return out


def err_bar(workload: str, bodies: dict[str, str]) -> float:
    """The workload's headline combined error estimate (see README)."""
    if workload in ("mc-bump", "weighted"):
        rows = csv_rows(bodies["verify"])
        return max(float(r["identity_residual_error"]) for r in rows)
    if workload == "gram":
        rows = csv_rows(bodies["spectral"])
        return float(rows[-1]["lambda_min_error"])
    if workload == "sweep":
        # N = 3 only: the N = 4 error bar rests on about 20 antithetic pairs
        # per stratum at this budget, so any change to the Monte Carlo
        # stream moves it by about 20% with no change in accuracy.
        return float(csv_rows(bodies["optimality_n3"])[-1]["hardy_ratio_error"])
    raise ValueError(workload)


# --------------------------------------------------------------------------
# Correctness checks
# --------------------------------------------------------------------------


def compare_reference(got: list[list], ref: list[list]) -> list[str]:
    """Problems of `got` against the stored headline `ref` of the same op."""
    if len(got) != len(ref):
        return [f"{len(got)} headline cells, reference has {len(ref)}"]
    problems = []
    for (col, v, e), (rcol, rv, re) in zip(got, ref):
        if col != rcol:
            problems.append(f"column {col} where the reference has {rcol}")
            continue
        if isinstance(rv, str) or isinstance(v, str):
            if v != rv:
                problems.append(f"{col}: {v!r} vs reference {rv!r}")
            continue
        if e == "exact" or re == "exact":
            tol = _EXACT_RTOL * max(1.0, abs(rv))
        else:
            tol = _TOL_SIGMAS * math.hypot(float(e), float(re)) + _EXACT_RTOL * abs(rv)
        if not abs(v - rv) <= tol:
            problems.append(f"{col}: {v!r} vs reference {rv!r} (tolerance {tol:.3g})")
    return problems


def check_invariants(label: str, config: dict, body: str) -> list[str]:
    """Seed-independent checks that hold for any correct program.

    These do not need a stored reference: closed forms, the Hardy
    inequality itself (every Rayleigh quotient is at least c), and the
    exact identity (its residual is zero up to the error bar).
    """
    problems = []
    rows = csv_rows(body)
    problem = config["problem"]
    dim, k_mu = problem["dim"], problem["k_mu"]
    beta = (dim + k_mu - 2.0) / len(problem["poles"])
    c = beta * beta
    unit = problem["weight"]["kind"] == "unit"

    def bad(name, value, limit):
        problems.append(f"{label}: {name} = {value!r} violates {limit}")

    if label in ("verify", "probe"):
        funcs = config["experiments"]["verify"]["functions"]
        for node, row in zip(funcs, rows):
            res, res_e = float(row["identity_residual"]), float(row["identity_residual_error"])
            if not abs(res) <= _TOL_SIGMAS * res_e:
                bad("identity_residual", res, f"|r| <= {_TOL_SIGMAS} x {res_e:.3g}")
            ratio, ratio_e = float(row["hardy_ratio"]), float(row["hardy_ratio_error"])
            if not ratio >= c - _TOL_SIGMAS * ratio_e:
                bad("hardy_ratio", ratio, f">= c = {c}")
            if unit and node["kind"] == "gaussian_bump":
                exact = math.pi**1.5 * node["width"] ** 3
                l2, l2_e = float(row["l2_mass"]), float(row["l2_mass_error"])
                if not abs(l2 - exact) <= _TOL_SIGMAS * l2_e + 1e-12:
                    bad("l2_mass", l2, f"closed form {exact!r}")
    elif label == "spectral":
        prev = math.inf
        for row in rows:
            lam, lam_e = float(row["lambda_min"]), float(row["lambda_min_error"])
            if not lam >= c - _TOL_SIGMAS * lam_e:
                bad("lambda_min", lam, f">= c = {c}")
            if not lam <= prev + 1e-10:
                bad("lambda_min", lam, "monotone in the prefix size")
            prev = lam
    elif label.startswith("optimality"):
        for row in rows:
            ratio, ratio_e = float(row["hardy_ratio"]), float(row["hardy_ratio_error"])
            if not ratio >= c - _TOL_SIGMAS * ratio_e:
                bad("hardy_ratio", ratio, f">= c = {c}")
            if not float(row["remainder"]) > 0.0:
                bad("remainder", row["remainder"], "> 0")
    elif label == "beta_sweep":
        n = len(problem["poles"])
        for row in rows:
            b = float(row["beta"])
            coeff = b * (dim + k_mu - 2.0) - n * b * b
            if not abs(float(row["coefficient"]) - coeff) <= 1e-12:
                bad("coefficient", row["coefficient"], f"closed form {coeff!r}")
    elif label == "certify":
        h4 = [r for r in rows if r["record"] == "h4i_local_exponent"]
        gamma = problem["weight"].get("gamma", 0.0)
        expected = (2.0 / len(problem["poles"])) * (dim + k_mu - 2.0) + 2.0 + gamma
        if not h4 or abs(float(h4[0]["value"]) - expected) > 1e-12:
            bad("h4i_local_exponent", h4[0]["value"] if h4 else None, f"= {expected!r}")
    return problems
