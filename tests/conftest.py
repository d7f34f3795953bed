"""Shared fixtures: canonical pole geometries, lean quadrature specs, and a
recorder of what each far-shell slice of nodes evaluates."""

import dataclasses

import numpy as np
import pytest

from multipolar_hardy import PoleConfig, QuadratureSpec, WeightSpec
from multipolar_hardy import functionals, quadrature


@pytest.fixture
def two_poles_n3() -> PoleConfig:
    """The canonical N = 3 instance: poles at the origin and 2 e1."""
    return PoleConfig(dim=3, poles=np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))


@pytest.fixture
def three_poles_n4() -> PoleConfig:
    """An asymmetric N = 4 instance with three poles."""
    poles = np.array(
        [
            [0.0, 0.0, 0.0, 0.0],
            [1.8, 0.3, 0.0, 0.0],
            [-0.4, 1.5, 0.7, 0.0],
        ]
    )
    return PoleConfig(dim=4, poles=poles)


@pytest.fixture
def unit_weight() -> WeightSpec:
    return WeightSpec.unit()


@pytest.fixture
def power_weight() -> WeightSpec:
    """Pure-power product weight with gamma = 1/2."""
    return WeightSpec.polyexp(gamma=0.5)


@pytest.fixture
def lean_spec() -> QuadratureSpec:
    """Cheap discretization for invariant and smoke checks."""
    return QuadratureSpec(
        pole_radius=0.9,
        far_radius=6.0,
        radial_levels=20,
        mc_samples=60_000,
        seed=1234,
    )


@pytest.fixture
def borderline_spec() -> QuadratureSpec:
    """Deep radial grading for borderline (truncated) integrands."""
    return QuadratureSpec(
        pole_radius=0.9,
        far_radius=6.0,
        radial_levels=36,
        mc_samples=100_000,
        seed=1234,
    )


@pytest.fixture
def far_slices(monkeypatch):
    """watch(module) -> slices, filled in as `module.integrate_many` runs.

    slices maps each far-shell slice of nodes (by the identity of its
    array) to (array, supports, functions): the support radii of the
    integrands called on it, and the test functions whose value or
    gradient `functionals._Nodes` evaluates on it.
    """
    far_pass = []
    slices = {}

    def entry(x):
        return slices.setdefault(id(x), (x, set(), set()))

    def watch(module):
        far_region = quadrature._far_region
        original_many = module.integrate_many

        def in_far_pass(*args):
            far_pass.append(True)
            try:
                return far_region(*args)
            finally:
                far_pass.pop()

        def called(f):
            def func(x):
                if far_pass:
                    entry(x)[1].add(f.support_radius)
                return f.func(x)

            return dataclasses.replace(f, func=func)

        def many(fields, cfg, spec):
            return original_many([called(f) for f in fields], cfg, spec)

        def evaluated(method):
            def wrapper(self, phi):
                if far_pass:
                    entry(self.x)[2].add(phi)
                return method(self, phi)

            return wrapper

        monkeypatch.setattr(quadrature, "_far_region", in_far_pass)
        monkeypatch.setattr(module, "integrate_many", many)
        for name in ("value", "gradient"):
            method = getattr(functionals._Nodes, name)
            monkeypatch.setattr(functionals._Nodes, name, evaluated(method))
        return slices

    return watch
