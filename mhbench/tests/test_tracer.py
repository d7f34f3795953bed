"""Self-checks of the benchmark's tracer and workload inputs.

    PYTHONPATH=src python3 -m pytest -q mhbench/tests
"""

import json
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from multipolar_hardy import (  # noqa: E402
    GaussianBump,
    PoleConfig,
    QuadratureSpec,
    WeightSpec,
    derive_params,
    energy_report,
    integrate_many,
    unit_sphere_rule,
)
from multipolar_hardy import functionals, quadrature  # noqa: E402
from multipolar_hardy.cli import parse_run_config  # noqa: E402

CFG = PoleConfig(dim=3, poles=np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
SPEC = QuadratureSpec(pole_radius=0.9, far_radius=6.0, radial_levels=8,
                      mc_samples=20_000, seed=5)
GEOMETRY = (CFG.poles, SPEC.pole_radius, SPEC.far_radius)


class TestClassifier:
    def test_pole_shells(self):
        dirs, _ = unit_sphere_rule(3)
        for pole in CFG.poles:
            shells = np.concatenate([pole + r * dirs for r in (0.9, 0.5, 1e-3)])
            assert tracer.classify_chunk(shells, *GEOMETRY) == "pole"

    def test_box_points(self):
        rng = np.random.default_rng(0)
        box = rng.uniform(-6.0, 6.0, size=(50_000, 3))
        box = box[np.linalg.norm(box, axis=1) < 6.0]
        assert tracer.classify_chunk(box, *GEOMETRY) == "mid"

    def test_far_points(self):
        rng = np.random.default_rng(1)
        normal = rng.standard_normal((4000, 3))
        dirs = normal / np.linalg.norm(normal, axis=1, keepdims=True)
        tail = 4.8 * (1.0 - rng.uniform(size=4000))[:, None] ** -0.5 * dirs
        collar_shell = 5.2 * unit_sphere_rule(3)[0]
        assert tracer.classify_chunk(tail, *GEOMETRY) == "far"
        assert tracer.classify_chunk(collar_shell, *GEOMETRY) == "far"

    def test_every_region_of_a_bump_is_seen(self):
        phi = GaussianBump(center=np.array([1.0, 0.3, 0.0]), width=0.7)
        t = tracer.Tracer()
        with tracer.traced(t):
            energy_report(phi, CFG, WeightSpec.unit(), derive_params(CFG, 0.0), SPEC)
        m = tracer.layer_metrics(t.spans, 0)
        assert all(m[f"quadrature.eval_points.{r}"] > 0 for r in tracer.REGIONS)
        assert m["quadrature.eval_points"] == sum(
            m[f"quadrature.eval_points.{r}"] for r in tracer.REGIONS
        )
        assert m["quadrature.integrands"] == 5


class TestSelfTime:
    def test_self_time_is_span_minus_children(self):
        t = tracer.Tracer()
        with t.span("cli.outer"):
            with t.span("experiments.a"):
                time.sleep(0.01)
                with t.span("fields.x"):
                    time.sleep(0.01)
            with t.span("experiments.b"):
                time.sleep(0.01)
        outer, a, x, b = t.spans
        assert (a.parent, x.parent, b.parent, outer.parent) == (0, 1, 0, None)
        selfs = tracer.self_times(t.spans)
        dur = [s.end - s.start for s in t.spans]
        assert selfs[0] == pytest.approx(dur[0] - dur[1] - dur[3], abs=1e-12)
        assert selfs[1] == pytest.approx(dur[1] - dur[2], abs=1e-12)
        assert selfs[2] == dur[2] and selfs[3] == dur[3]
        assert sum(selfs) == pytest.approx(dur[0], abs=1e-12)

    def test_layer_metrics_only_read_the_asked_round(self):
        t = tracer.Tracer()
        for r in (0, 1):
            t.round = r
            with t.span("cli.verify"):
                with t.span("fields.potential_v", points=10 + r):
                    pass
        assert tracer.layer_metrics(t.spans, 1)["fields.potential_v.points"] == 11


class TestWrapping:
    def test_integrate_many_results_are_bit_identical(self):
        phi = GaussianBump(center=np.array([0.8, 0.3, 0.0]), width=0.6)
        fields = [
            quadrature.Integrand(func=lambda x: phi.value(x) ** 2, pole_exponents=[0.0, 0.0]),
            lambda x: phi.value(x),
        ]
        plain = integrate_many(fields, CFG, SPEC)
        t = tracer.Tracer()
        with tracer.traced(t):
            traced = functionals.integrate_many(fields, CFG, SPEC)
        assert traced == plain
        assert any(s.name == "quadrature.integrand" for s in t.spans)

    def test_originals_restored(self):
        before = (functionals.integrate_many, functionals.GaussianBump.value,
                  functionals.hardy_factor)
        with tracer.traced(tracer.Tracer()):
            assert functionals.integrate_many is not before[0]
        assert (functionals.integrate_many, functionals.GaussianBump.value,
                functionals.hardy_factor) == before


class TestMetricNames:
    NAME = re.compile(r"[A-Za-z0-9_.-]+")

    def test_names_and_units_match_benchmark_json(self):
        t = tracer.Tracer()
        with t.span("cli.verify"):
            pass
        layer = set(tracer.layer_metrics(t.spans, 0)) | {"proc.cpu_s", "trace_overhead_s"}
        for name in layer | set(run.END_TO_END):
            assert self.NAME.fullmatch(name) and len(name) <= 64, name
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
            name: run.metric_unit(name) for name in layer
        }
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
        assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


class TestWorkloads:
    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_inputs_are_a_function_of_the_seed(self, workload):
        a, b, c = (workloads.operations(workload, s) for s in (3, 3, 4))
        assert json.dumps(a) == json.dumps(b) != json.dumps(c)
        for _, _, config in a:
            parse_run_config(config)

    def test_reference_tolerance_scales_with_error(self):
        ref = [["lambda_min", 1.0, 0.01]]
        assert workloads.compare_reference([["lambda_min", 1.04, 0.01]], ref) == []
        assert workloads.compare_reference([["lambda_min", 1.1, 0.01]], ref)
        assert workloads.compare_reference([["coefficient", 0.1, "exact"]],
                                           [["coefficient", 0.1 + 1e-9, "exact"]])
