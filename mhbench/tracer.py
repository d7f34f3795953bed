"""Spans around the calls each ``multipolar_hardy`` layer makes into the next.

The program is traced from outside: `traced` rebinds, for the duration of a
``with`` block, the public functions that each module calls in the next
one down (cli -> experiments -> functionals -> quadrature -> fields) to
wrappers that record a span per call, and restores them on exit.  Nothing
under ``src/`` changes.  Spans are kept in memory; `layer_metrics` turns
one round's spans into the per-layer metrics.

A span records its name, start, end, parent span and round, plus a point
count where the call evaluates a batch of points.  A layer's self time is
its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import threading
import time

import numpy as np

# The far tail of the quadrature's partition of unity starts at this
# fraction of far_radius (quadrature module docstring).
TAIL_START = 0.8

# Points per chunk inspected by the region classifier.
_CLASSIFY_SAMPLE = 512

FIELD_KERNELS = ("weight_value", "potential_v", "potential_w", "hardy_factor", "vector_field_f")
EXPERIMENTS = ("optimality_sweep", "beta_sweep", "spectral_bound", "h2_certify", "h3_h4_certify")
SUBCOMMANDS = {
    "cmd_verify": "verify",
    "cmd_optimality": "optimality",
    "cmd_beta_sweep": "beta_sweep",
    "cmd_spectral": "spectral",
    "cmd_certify": "certify",
}
REGIONS = ("pole", "mid", "far")


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    round: int = 0
    points: int = 0
    region: str = ""
    count: int = 0  # integrands of an integrate_many call, Gram entries
    cells: int = 0  # nodes of an integrate_many call
    nonunit: bool = False  # a field kernel called with a non-unit weight


class Tracer:
    """Collects spans; one instance per benchmark process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.round = 0
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        sp = Span(name, 0.0, parent=stack[-1] if stack else None, round=self.round, **attrs)
        self.spans.append(sp)
        stack.append(len(self.spans) - 1)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()

    def to_json(self) -> list[dict]:
        return [dataclasses.asdict(s) for s in self.spans]


def classify_chunk(pts, poles, pole_radius: float, far_radius: float) -> str:
    """Region a chunk of quadrature nodes belongs to: pole, mid or far.

    Each rule of the quadrature evaluates its own chunks, so one region
    describes a whole chunk: pole-ball shells lie within pole_radius of a
    pole, far-field nodes (importance-sampled tail or far shells) lie
    beyond the tail onset, and a mid-region chunk spans the box in
    between.  A strided sample of the chunk decides.
    """
    pts = np.asarray(pts, dtype=float)
    sample = pts[:: max(1, pts.shape[0] // _CLASSIFY_SAMPLE)]
    dist = np.linalg.norm(sample[:, None, :] - np.asarray(poles)[None, :, :], axis=2)
    if np.all(dist.min(axis=1) <= pole_radius * (1.0 + 1e-9)):
        return "pole"
    if np.all(np.linalg.norm(sample, axis=1) >= TAIL_START * far_radius * (1.0 - 1e-9)):
        return "far"
    return "mid"


def _points(x) -> int:
    shape = np.shape(x)
    return int(shape[0]) if len(shape) == 2 else 1


def _timed(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _method(tracer: Tracer, name: str, fn):
    """Wrap a test-function method; its first argument is a point batch."""

    @functools.wraps(fn)
    def wrapper(self, x, *args, **kwargs):
        with tracer.span(name, points=_points(x)):
            return fn(self, x, *args, **kwargs)

    return wrapper


def _field(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(x, *args, **kwargs):
        nonunit = any(
            getattr(a, "is_unit", True) is False for a in (*args, *kwargs.values())
        )
        with tracer.span(name, points=_points(x), nonunit=nonunit):
            return fn(x, *args, **kwargs)

    return wrapper


def _integrand(tracer: Tracer, fn, region=None, geometry=None):
    """Wrap an integrand callable; `geometry` classifies each chunk."""

    @functools.wraps(fn)
    def wrapper(x, *args, **kwargs):
        label = region or classify_chunk(x, *geometry)
        with tracer.span("quadrature.integrand", points=_points(x), region=label):
            return fn(x, *args, **kwargs)

    return wrapper


def _integrate_many(tracer: Tracer, fn):
    from multipolar_hardy.quadrature import Integrand

    @functools.wraps(fn)
    def wrapper(fields, cfg, spec, *args, **kwargs):
        geometry = (cfg.poles, spec.pole_radius, spec.far_radius)
        wrapped = [
            dataclasses.replace(f, func=_integrand(tracer, f.func, geometry=geometry))
            if isinstance(f, Integrand)
            else _integrand(tracer, f, geometry=geometry)
            for f in fields
        ]
        with tracer.span("quadrature.integrate_many", count=len(wrapped)) as sp:
            results = fn(wrapped, cfg, spec, *args, **kwargs)
            sp.cells = int(results[0].cells) if results else 0
        return results

    return wrapper


def _integrand_arg(tracer: Tracer, name: str, region: str, fn):
    """Wrap a single-region rule whose first argument is the integrand."""

    @functools.wraps(fn)
    def wrapper(func, *args, **kwargs):
        with tracer.span(name):
            return fn(_integrand(tracer, func, region=region), *args, **kwargs)

    return wrapper


def _spectral_bound(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(cfg, w, p, basis, *args, **kwargs):
        m = len(basis)
        with tracer.span("experiments.spectral_bound", count=m * (m + 1)):
            return fn(cfg, w, p, basis, *args, **kwargs)

    return wrapper


def _bindings(tracer: Tracer):
    """(owner, attribute, wrapper) for every call site that is traced."""
    from multipolar_hardy import cli, experiments, fields, functionals

    out = []
    for attr, sub in SUBCOMMANDS.items():
        out.append((cli, attr, _timed(tracer, f"cli.{sub}", getattr(cli, attr))))
    for attr in EXPERIMENTS:
        fn = getattr(cli, attr)
        if attr == "spectral_bound":
            out.append((cli, attr, _spectral_bound(tracer, fn)))
        else:
            out.append((cli, attr, _timed(tracer, f"experiments.{attr}", fn)))
    for mod in (cli, experiments):
        out.append((mod, "energy_report",
                    _timed(tracer, "functionals.energy_report", mod.energy_report)))
    out.append((functionals, "beta_identity_check",
                _timed(tracer, "functionals.beta_identity_check",
                       functionals.beta_identity_check)))
    for cls in (functionals.GaussianBump, functionals.CutoffTheta, functionals.OptimalityPhi):
        for attr in ("value", "gradient"):
            out.append((cls, attr, _method(tracer, "functionals.testfn", cls.__dict__[attr])))
    for mod in (functionals, experiments):
        out.append((mod, "integrate_many", _integrate_many(tracer, mod.integrate_many)))
    out.append((functionals, "integrate_radial_annulus",
                _integrand_arg(tracer, "quadrature.annulus", "annulus",
                               functionals.integrate_radial_annulus)))
    out.append((experiments, "integrate_pole_ball",
                _integrand_arg(tracer, "quadrature.pole_ball", "pole_ball",
                               experiments.integrate_pole_ball)))
    for mod in (cli, experiments):
        out.append((mod, "sphere_flux",
                    _integrand_arg(tracer, "quadrature.flux", "flux", mod.sphere_flux)))
    for mod in (fields, functionals, experiments, cli):
        for attr in FIELD_KERNELS:
            if hasattr(mod, attr):
                out.append((mod, attr, _field(tracer, f"fields.{attr}", getattr(mod, attr))))
    return out


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route the program's inter-layer calls through `tracer` in this block."""
    bindings = _bindings(tracer)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in bindings]
    try:
        for owner, attr, wrapper in bindings:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def layer_metrics(spans: list[Span], round_id: int) -> dict[str, float]:
    """Per-layer metrics of one round, from a tracer's full span list."""
    selfs = self_times(spans)
    rows = [(s, s.end - s.start, own) for s, own in zip(spans, selfs) if s.round == round_id]

    def inclusive(name):
        return float(sum(d for s, d, _ in rows if s.name == name))

    def self_s(pred):
        return float(sum(own for s, _, own in rows if pred(s.name)))

    def calls(name):
        return float(sum(1 for s, _, _ in rows if s.name == name))

    m: dict[str, float] = {}
    many = [s for s, _, _ in rows if s.name == "quadrature.integrate_many"]
    evals = [(s, d) for s, d, _ in rows if s.name == "quadrature.integrand" and s.region in REGIONS]
    nodes = float(sum(s.cells for s in many))
    m["quadrature.integrate_many.calls"] = float(len(many))
    m["quadrature.integrate_many.s"] = inclusive("quadrature.integrate_many")
    m["quadrature.eval_s"] = float(sum(d for _, d in evals))
    m["quadrature.integrate_many.self_s"] = (
        m["quadrature.integrate_many.s"] - m["quadrature.eval_s"]
    )
    m["quadrature.integrands"] = float(sum(s.count for s in many))
    m["quadrature.nodes"] = nodes
    m["quadrature.eval_points"] = float(sum(s.points for s, _ in evals))
    m["quadrature.points_per_node"] = m["quadrature.eval_points"] / nodes if nodes else 0.0
    for region in REGIONS:
        m[f"quadrature.eval_points.{region}"] = float(
            sum(s.points for s, _ in evals if s.region == region)
        )
    for name in ("quadrature.annulus", "quadrature.flux", "quadrature.pole_ball",
                 "functionals.energy_report", "functionals.beta_identity_check"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = inclusive(name)

    testfn = "functionals.testfn"
    m["functionals.testfn_points"] = float(
        sum(
            s.points for s, _, _ in rows
            if s.name == testfn and (s.parent is None or spans[s.parent].name != testfn)
        )
    )
    m["functionals.testfn_s"] = self_s(lambda n: n == testfn)
    m["functionals.testfn_per_node"] = m["functionals.testfn_points"] / nodes if nodes else 0.0

    for k in FIELD_KERNELS:
        name = f"fields.{k}"
        m[f"{name}.points"] = float(sum(s.points for s, _, _ in rows if s.name == name))
        m[f"{name}.s"] = self_s(lambda n, name=name: n == name)
    kernel_points = sum(m[f"fields.{k}.points"] for k in FIELD_KERNELS)
    kernel_s = sum(m[f"fields.{k}.s"] for k in FIELD_KERNELS)
    m["fields.points_per_s"] = kernel_points / kernel_s if kernel_s else 0.0
    m["fields.nonunit.points"] = float(
        sum(s.points for s, _, _ in rows if s.name.startswith("fields.") and s.nonunit)
    )

    for fn in EXPERIMENTS:
        m[f"experiments.{fn}.s"] = inclusive(f"experiments.{fn}")
    m["experiments.spectral_bound.entries"] = float(
        sum(s.count for s, _, _ in rows if s.name == "experiments.spectral_bound")
    )
    m["experiments.self_s"] = self_s(lambda n: n.startswith("experiments."))
    for sub in SUBCOMMANDS.values():
        m[f"cli.{sub}.s"] = inclusive(f"cli.{sub}")
    m["cli.self_s"] = self_s(lambda n: n.startswith("cli."))
    return m
