"""Experiment drivers: sharpness sweeps, exponent sweeps, spectra, hypotheses.

The sweeps are exercised on short grids at lean quadrature budgets; the
asymptotic-rate acceptance runs live in the acceptance module.  Exact
algebraic claims (vertex location, subspace monotonicity, one-element
spectra) are asserted bitwise or at rounding scale.
"""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from multipolar_hardy import (
    ConfigError,
    CutoffTheta,
    DEFAULT_EPS_GRID,
    EpsilonInadmissible,
    GaussianBump,
    MultipolarHardyError,
    NonpositiveBeta,
    OptimalityPhi,
    PoleConfig,
    QuadratureSpec,
    SinglePole,
    SingularGram,
    UnboundedSuspected,
    WeightSpec,
    derive_params,
    energy_report,
    h2_certify,
    h3_h4_certify,
    h4_local_exponent,
    hardy_ratio,
    beta_sweep,
    optimality_sweep,
    spectral_bound,
    sphere_surface_measure,
)
from multipolar_hardy import functionals
from multipolar_hardy.fields import potential_w
from multipolar_hardy.experiments import (
    _certify_samples,
    _pencil_minimum,
    BetaRecord,
    BetaSweepResult,
    HypothesisReport,
    IdentityRecord,
    RateFit,
    SpectralResult,
    SweepRecord,
    beta_sweep_verdict,
    certify_verdict,
    h4i_status,
    optimality_verdict,
    spectral_verdict,
    verify_identity,
    verify_verdict,
)


def result_fields(res):
    return (res.value, res.stderr, res.trunc_bound, res.truncated, res.eta)


def bump_basis(count: int, dim: int, seed: int = 3) -> list[GaussianBump]:
    rng = np.random.default_rng(seed)
    return [
        GaussianBump(
            center=rng.uniform(-1.2, 2.2, size=dim), width=rng.uniform(0.5, 0.9)
        )
        for _ in range(count)
    ]


# --------------------------------------------------------------------------
# one ledger call per experiment
# --------------------------------------------------------------------------


@pytest.fixture()
def ledger_calls(monkeypatch):
    """The integrate_many calls the energy ledger makes, as their field lists."""
    calls = []
    original = functionals.integrate_many

    def counted(fields, cfg, spec):
        calls.append(fields)
        return original(fields, cfg, spec)

    monkeypatch.setattr(functionals, "integrate_many", counted)
    return calls


class TestOneLedgerCall:
    def test_verify_identity(self, two_poles_n3, lean_spec, ledger_calls):
        """A mixed corpus, truncated family members included, is one call."""
        p = derive_params(two_poles_n3, 0.0)
        functions = bump_basis(2, 3) + [
            CutoffTheta(R=1.0, eps=0.5),
            OptimalityPhi(cfg=two_poles_n3, R=1.0, eps=0.25, beta=p.beta),
        ]
        records = verify_identity(
            two_poles_n3, WeightSpec.unit(), p, functions, lean_spec
        )
        assert len(ledger_calls) == 1
        assert [r.truncated for r in records] == [False, False, False, True]

    def test_flux_once_per_family(self, two_poles_n3, lean_spec, monkeypatch):
        """The excised spheres lie inside every member's plateau, so a
        truncated family of one exponent computes its flux once, and every
        member gets the flux it gets alone."""
        import multipolar_hardy.experiments as experiments_module

        p, w = derive_params(two_poles_n3, 0.0), WeightSpec.unit()
        family = [
            OptimalityPhi(cfg=two_poles_n3, R=1.0, eps=eps, beta=p.beta)
            for eps in (0.25, 0.2, 0.125)
        ]
        calls = []
        original = experiments_module._sweep_flux

        def counted(phi, *args):
            calls.append(phi)
            return original(phi, *args)

        monkeypatch.setattr(experiments_module, "_sweep_flux", counted)
        records = verify_identity(two_poles_n3, w, p, family, lean_spec)
        assert calls == family[:1]
        eta = lean_spec.pole_radius * 2.0**-lean_spec.radial_levels
        for phi, rec in zip(family, records):
            assert rec.truncated and rec.report.v_mass.eta == eta
            assert (rec.flux, rec.flux_error) == original(
                phi, two_poles_n3, w, p.beta, eta
            )

    def test_optimality_sweep(self, two_poles_n3, lean_spec, ledger_calls):
        p = derive_params(two_poles_n3, 0.0)
        records, _ = optimality_sweep(
            two_poles_n3, WeightSpec.unit(), p, eps_list=(0.25, 0.2, 0.125),
            spec=lean_spec, R=1.0, fit=False,
        )
        assert len(records) == 3
        assert len(ledger_calls) == 1
        # dirichlet, v_mass, l2_mass and w_mass, one integrand per function
        # with that function's support; the remainder reduces to the
        # annulus rule.
        kinds = ["dirichlet", "v_mass", "l2_mass", "w_mass"]
        supports = [2.0 / eps for eps in (0.25, 0.2, 0.125)]
        assert [(f.name, f.support_radius) for f in ledger_calls[0]] == [
            (kind, s) for kind in kinds for s in supports
        ]


# --------------------------------------------------------------------------
# sharpness sweep
# --------------------------------------------------------------------------


class TestOptimalitySweep:
    def test_default_grid_is_decreasing(self):
        assert all(a > b for a, b in zip(DEFAULT_EPS_GRID, DEFAULT_EPS_GRID[1:]))

    def test_borderline_unit_weight(self, two_poles_n3, borderline_spec):
        """Unit weight in N=3 with two poles sits exactly on the borderline
        local exponent: rows must be flagged truncated, carry a positive
        flux, and close the truncated identity deficit = remainder + flux."""
        p = derive_params(two_poles_n3, 0.0)
        records, fit = optimality_sweep(
            two_poles_n3,
            WeightSpec.unit(),
            p,
            eps_list=(0.2, 0.1, 0.05, 0.025),
            spec=borderline_spec,
        )
        assert len(records) == 4
        for rec in records:
            assert rec.truncated
            assert rec.flux > 0.0
            closure = abs(rec.deficit - (rec.remainder + rec.flux))
            budget = 3 * (rec.deficit_error + rec.remainder_error + rec.flux_error)
            assert closure <= budget
        # remainder shrinks with eps and the ratio descends toward c
        rems = [r.remainder for r in records]
        assert all(a > b for a, b in zip(rems, rems[1:]))
        assert fit.predicted_slope == pytest.approx(1.0)
        assert fit.slope == pytest.approx(1.0, abs=0.15)
        assert fit.r_squared > 0.98
        assert fit.points_used == 4

    def test_strict_polyexp(self, two_poles_n3, lean_spec):
        """gamma = 0.5 with K_mu = -0.6 keeps every exponent strictly
        integrable: no truncation, zero flux, slope near 0.8."""
        w = WeightSpec.polyexp(gamma=0.5)
        p = derive_params(two_poles_n3, -0.6)
        records, fit = optimality_sweep(
            two_poles_n3,
            w,
            p,
            eps_list=(0.2, 0.1, 0.05, 0.025),
            spec=dataclasses.replace(lean_spec, radial_levels=24),
        )
        for rec in records:
            assert not rec.truncated
            assert rec.flux == 0.0
        assert fit.predicted_slope == pytest.approx(0.4 + (-0.6) + 2 * 0.5)
        assert fit.slope == pytest.approx(fit.predicted_slope, abs=0.15)

    def test_ratio_descends_to_constant(self, two_poles_n3, borderline_spec):
        p = derive_params(two_poles_n3, 0.0)
        records, _ = optimality_sweep(
            two_poles_n3,
            WeightSpec.unit(),
            p,
            eps_list=(0.2, 0.05),
            spec=borderline_spec,
            fit=False,
        )
        gaps = [abs(r.hardy_ratio - p.c_n_mu) for r in records]
        assert gaps[-1] < gaps[0]
        assert records[-1].hardy_ratio >= p.c_n_mu - 3 * records[-1].ratio_error

    def test_requires_two_poles(self, lean_spec):
        cfg = PoleConfig(dim=3, poles=np.zeros((1, 3)))
        with pytest.raises(SinglePole):
            optimality_sweep(cfg, WeightSpec.unit(), derive_params(cfg, 0.0),
                             spec=lean_spec)

    def test_requires_spec(self, two_poles_n3):
        p = derive_params(two_poles_n3, 0.0)
        with pytest.raises(ConfigError):
            optimality_sweep(two_poles_n3, WeightSpec.unit(), p)

    def test_rejects_increasing_eps(self, two_poles_n3, lean_spec):
        p = derive_params(two_poles_n3, 0.0)
        with pytest.raises(ConfigError):
            optimality_sweep(
                two_poles_n3, WeightSpec.unit(), p,
                eps_list=(0.05, 0.1), spec=lean_spec,
            )

    def test_grid_with_no_admissible_eps(self, two_poles_n3, lean_spec):
        """A grid wholly above max_admissible_eps (0.25 at R = 1) is
        rejected by name, whether or not the rate is fitted."""
        p = derive_params(two_poles_n3, 0.0)
        bound = r"max_admissible_eps\(R=1\) = 0.25"
        for fit in (True, False):
            with pytest.raises(EpsilonInadmissible, match=bound):
                optimality_sweep(
                    two_poles_n3, WeightSpec.unit(), p,
                    eps_list=(0.9, 0.8), spec=lean_spec, R=1.0, fit=fit,
                )

    def test_short_grid_needs_fit_false(self, two_poles_n3, borderline_spec):
        p = derive_params(two_poles_n3, 0.0)
        with pytest.raises(MultipolarHardyError):
            optimality_sweep(
                two_poles_n3, WeightSpec.unit(), p,
                eps_list=(0.2, 0.1), spec=borderline_spec,
            )
        records, fit = optimality_sweep(
            two_poles_n3, WeightSpec.unit(), p,
            eps_list=(0.2, 0.1), spec=borderline_spec, fit=False,
        )
        assert fit is None and len(records) == 2


# --------------------------------------------------------------------------
# general-exponent sweep
# --------------------------------------------------------------------------


class TestBetaSweep:
    def test_vertex_algebra_and_residuals(self, two_poles_n3, lean_spec):
        phi = GaussianBump(center=np.array([1.0, 0.3, 0.0]), width=0.8)
        grid = [0.1, 0.2, 0.25, 0.3, 0.5, 0.7]
        out = beta_sweep(
            two_poles_n3, WeightSpec.unit(), 0.0, grid, phi, lean_spec
        )
        # coefficient beta(N + K - 2) - n beta^2 evaluated exactly
        for rec in out.records:
            expected = rec.beta * 1.0 - 2.0 * rec.beta**2
            assert rec.coefficient == pytest.approx(expected, rel=1e-15)
            assert abs(rec.residual) < 5e-2
        assert out.vertex_beta == pytest.approx(0.25)
        assert out.vertex_value == pytest.approx(0.125)
        assert out.vertex_value == derive_params(two_poles_n3, 0.0).c_nn_mu
        # the grid contains the vertex, so the argmax is exact here
        assert out.argmax_beta == 0.25
        assert out.max_coefficient == max(r.coefficient for r in out.records)

    def test_argmax_straddles_vertex_on_offset_grid(self, two_poles_n3, lean_spec):
        phi = GaussianBump(center=np.array([1.0, 0.0, 0.0]), width=0.8)
        grid = [0.1, 0.2, 0.3, 0.4]
        out = beta_sweep(
            two_poles_n3, WeightSpec.unit(), 0.0, grid, phi, lean_spec
        )
        assert abs(out.argmax_beta - out.vertex_beta) <= 0.1 + 1e-12

    def test_rejects_empty_grid(self, two_poles_n3, lean_spec):
        phi = GaussianBump(center=np.array([1.0, 0.0, 0.0]), width=0.8)
        with pytest.raises(ConfigError):
            beta_sweep(two_poles_n3, WeightSpec.unit(), 0.0, [], phi, lean_spec)


# --------------------------------------------------------------------------
# spectral lower-bound probe
# --------------------------------------------------------------------------


class TestSpectralBound:
    def test_single_function_equals_hardy_ratio(self, two_poles_n3, lean_spec):
        """With a one-element basis the generalized eigenvalue IS the Hardy
        ratio of that function.  Shared-node assembly makes the two numbers
        identical up to eigensolver rounding (a couple of ulps: the whitened
        solve computes A * (1/sqrt(B))^2, the ratio a single division)."""
        phi = GaussianBump(center=np.array([1.0, 0.2, 0.1]), width=0.7)
        p = derive_params(two_poles_n3, 0.0)
        res = spectral_bound(two_poles_n3, WeightSpec.unit(), p, [phi], lean_spec)
        rep = energy_report(phi, two_poles_n3, WeightSpec.unit(), p, lean_spec)
        assert res.lambda_min == pytest.approx(hardy_ratio(rep), rel=5e-15)
        assert res.basis_size == 1 and res.rank == 1

    def test_subspace_monotonicity(self, two_poles_n3, lean_spec):
        """Enlarging the span can only lower the minimum (up to eigensolver
        rounding): exact linear algebra, no quadrature tolerance involved."""
        basis = bump_basis(5, 3)
        p = derive_params(two_poles_n3, 0.0)
        minima = [
            spectral_bound(
                two_poles_n3, WeightSpec.unit(), p, basis[:k], lean_spec
            ).lambda_min
            for k in range(1, 6)
        ]
        for a, b in zip(minima, minima[1:]):
            assert b <= a + 1e-10

    def test_lower_bound_respected(self, two_poles_n3, lean_spec):
        basis = bump_basis(5, 3)
        p = derive_params(two_poles_n3, 0.0)
        res = spectral_bound(two_poles_n3, WeightSpec.unit(), p, basis, lean_spec)
        assert res.lambda_min >= p.c_n_mu * (1 - 0.02) - 3 * res.lambda_error
        assert res.lambda_error >= 0.0
        assert res.witness.shape == (5,)

    def test_polyexp_weight(self, two_poles_n3, lean_spec):
        basis = bump_basis(4, 3)
        w = WeightSpec.polyexp(gamma=0.5)
        p = derive_params(two_poles_n3, -0.6)
        res = spectral_bound(
            two_poles_n3, w, p, basis, dataclasses.replace(lean_spec,
                                                           radial_levels=24)
        )
        assert res.lambda_min >= p.c_n_mu * (1 - 0.02) - 3 * res.lambda_error

    def test_pairs_declare_their_own_support(
        self, two_poles_n3, lean_spec, monkeypatch
    ):
        """A Gram pair vanishes wherever either function does: pairs with
        phi_eps carry its support 2R/eps, and only bump x bump is unbounded."""
        import multipolar_hardy.experiments as experiments_module

        class Captured(Exception):
            pass

        captured = {}

        def capture(integrands, cfg, spec):
            captured.update((f.name, f.support_radius) for f in integrands)
            raise Captured

        monkeypatch.setattr(experiments_module, "integrate_many", capture)
        p = derive_params(two_poles_n3, 0.0)
        basis = [
            GaussianBump(center=np.array([1.0, 0.2, 0.1]), width=0.7),
            OptimalityPhi(cfg=two_poles_n3, R=1.0, eps=0.25, beta=p.beta),
        ]
        with pytest.raises(Captured):
            spectral_bound(two_poles_n3, WeightSpec.unit(), p, basis, lean_spec,
                           allow_truncation=True)
        assert captured == {
            f"{kind}_{i}_{j}": support
            for kind in "ab"
            for (i, j), support in {(0, 0): None, (0, 1): 8.0, (1, 1): 8.0}.items()
        }

    def test_gram_hardy_factor_once_per_slice(
        self, two_poles_n3, lean_spec, monkeypatch
    ):
        """The OptimalityPhi members of one exponent share one Hardy factor
        per slice of nodes, through one pole frame: on each distinct slice
        array the Gram entries evaluate it once if any entry there has a
        member, and not at all if none has (the far shells of bump x bump)."""
        import multipolar_hardy.experiments as experiments_module

        p = derive_params(two_poles_n3, 0.0)
        slices = []  # [slice array, hardy calls, whether a phi_eps entry ran]
        original_hardy = functionals.hardy_factor
        original_many = experiments_module.integrate_many

        def counted_hardy(*args, **kwargs):
            slices[-1][1] += 1
            return original_hardy(*args, **kwargs)

        def counted_func(f):
            # Entry names are a_i_j and b_i_j; basis member 0 is the bump,
            # so every entry but a_0_0 and b_0_0 has a phi_eps member.
            member = f.name[2:] != "0_0"

            def wrapper(x):
                if not slices or slices[-1][0] is not x:
                    slices.append([x, 0, False])
                slices[-1][2] |= member
                return f.func(x)

            return wrapper

        def counted_many(integrands, cfg, spec):
            integrands = [
                dataclasses.replace(f, func=counted_func(f)) for f in integrands
            ]
            return original_many(integrands, cfg, spec)

        monkeypatch.setattr(functionals, "hardy_factor", counted_hardy)
        monkeypatch.setattr(experiments_module, "integrate_many", counted_many)
        basis = bump_basis(1, 3) + [
            OptimalityPhi(cfg=two_poles_n3, R=1.0, eps=e, beta=p.beta)
            for e in (0.25, 0.2)
        ]
        spectral_bound(two_poles_n3, WeightSpec.unit(), p, basis, lean_spec,
                       allow_truncation=True)
        assert len({id(x) for x, _, _ in slices}) == len(slices)
        assert [hardy for _, hardy, _ in slices] == [
            int(member) for _, _, member in slices
        ]
        assert 0 < sum(member for _, _, member in slices) < len(slices)

    def test_far_shells_evaluate_only_their_support(
        self, two_poles_n3, lean_spec, far_slices
    ):
        """A far-shell pass runs only the Gram entries of its own support, so
        each far slice evaluates the value and gradient of exactly the basis
        members of those entries."""
        import multipolar_hardy.experiments as experiments_module

        p = derive_params(two_poles_n3, 0.0)
        basis = bump_basis(1, 3) + [
            OptimalityPhi(cfg=two_poles_n3, R=1.0, eps=eps, beta=p.beta)
            for eps in (0.25, 0.125)
        ]
        # A pair vanishes wherever either member does.
        members = {None: {0}, 8.0: {0, 1, 2}, 16.0: {0, 2}}
        slices = far_slices(experiments_module)
        spectral_bound(two_poles_n3, WeightSpec.unit(), p, basis, lean_spec,
                       allow_truncation=True)
        seen = set()
        for _, supports, evaluated in slices.values():
            (support,) = supports
            seen.add(support)
            assert evaluated == {basis[k] for k in members[support]}
        assert seen == set(members)

    def test_grouped_entries_equal_entries_alone(
        self, two_poles_n3, lean_spec, monkeypatch
    ):
        """Gram entries whose pair of members agrees on the pole balls and
        the mid region, the members whose plateau clears far_radius counting
        as the Hardy factor, share those regions' evaluation; each entry
        still equals, bit for bit, the same integrand integrated alone."""
        import multipolar_hardy.experiments as experiments_module

        p = derive_params(two_poles_n3, 0.0)
        phis = [
            OptimalityPhi(cfg=two_poles_n3, R=1.0, eps=e, beta=p.beta)
            for e in (0.1, 0.05)
        ]
        bumps = bump_basis(2, 3)
        basis = [bumps[0], phis[0], bumps[1], phis[1]]
        batches = []
        original = experiments_module.integrate_many

        def captured(integrands, cfg, spec):
            results = original(integrands, cfg, spec)
            batches.append((integrands, results))
            return results

        monkeypatch.setattr(experiments_module, "integrate_many", captured)
        res = spectral_bound(two_poles_n3, WeightSpec.unit(), p, basis, lean_spec,
                             allow_truncation=True)
        ((integrands, results),) = batches
        keys = [f.inner for f in integrands]
        # Every one of the 20 entries has a key; (0,1) and (0,3), and (1,1),
        # (1,3) and (3,3), share one per kind, which saves 6.
        assert len(keys) == 20 and None not in keys and len(set(keys)) == 14
        for f, got in zip(integrands, results):
            alone = original([f], two_poles_n3, lean_spec)[0]
            assert result_fields(got) == result_fields(alone)
        a_mat, b_mat, *_ = res.gram
        assert a_mat[0, 1] != a_mat[0, 3] and b_mat[1, 1] != b_mat[3, 3]

    @pytest.mark.parametrize("weight", ["unit", "power"])
    def test_entries_commute_and_the_diagonal_is_the_ledger(
        self, two_poles_n3, lean_spec, monkeypatch, weight
    ):
        """The Gram's entries and the ledger's integrands come from one
        builder.  On one random slice of nodes, node by node and bit for
        bit: the A and B entries of (bump, phi) equal those of (phi, bump);
        the B entry of (f, f) is the ledger's v_mass integrand of f, and
        the A entry its dirichlet plus its w_mass integrand."""
        import multipolar_hardy.experiments as experiments_module

        w, k_mu = WeightSpec.unit(), 0.0
        if weight == "power":
            w, k_mu = WeightSpec.polyexp(gamma=0.5), -0.6
        p = derive_params(two_poles_n3, k_mu)
        bump = GaussianBump(center=np.array([1.0, 0.3, 0.0]), width=0.8)
        phi = OptimalityPhi(cfg=two_poles_n3, R=1.0, eps=0.25, beta=p.beta)
        args = (two_poles_n3, w, p)

        class Captured(Exception):
            pass

        def integrands_of(module, run):
            def captured(integrands, cfg, spec):
                raise Captured(integrands)

            monkeypatch.setattr(module, "integrate_many", captured)
            with pytest.raises(Captured) as caught:
                run()
            return caught.value.args[0]

        def gram(basis):
            integrands = integrands_of(experiments_module, lambda: spectral_bound(
                *args, basis, lean_spec, allow_truncation=True
            ))
            return {f.name: f for f in integrands}

        forward, backward = gram([bump, phi]), gram([phi, bump])
        ledger = {}
        for f in integrands_of(functionals, lambda: functionals.energy_reports(
            [bump, phi], *args, lean_spec, [p.beta], allow_truncation=True
        )):
            ledger.setdefault(f.name, []).append(f)
        assert [len(ledger[k]) for k in ("dirichlet", "v_mass", "w_mass")] == [2] * 3
        x = np.random.default_rng(11).standard_normal((500, 3)) * 3.0

        def at(f):
            return f.func(x).tolist()

        for name in ("a_0_1", "b_0_1"):
            assert at(forward[name]) == at(backward[name])
            assert any(v != 0.0 for v in at(forward[name]))
            assert forward[name].pole_exponents == backward[name].pole_exponents
            assert forward[name].support_radius == backward[name].support_radius
        # ledger[kind][j] is the integrand of [bump, phi][j].
        for entries, order in ((forward, (0, 1)), (backward, (1, 0))):
            for k, j in enumerate(order):
                assert at(entries[f"b_{k}_{k}"]) == at(ledger["v_mass"][j])
                assert at(entries[f"a_{k}_{k}"]) == (
                    ledger["dirichlet"][j].func(x) + ledger["w_mass"][j].func(x)
                ).tolist()

    def test_prefixes_of_one_assembly_equal_separate_bounds(
        self, two_poles_n3, lean_spec
    ):
        """Leading blocks of one Gram assembly give every prefix's bound,
        error, rank and witness exactly as assembling that prefix alone."""
        p = derive_params(two_poles_n3, 0.0)
        basis = bump_basis(3, 3) + [
            OptimalityPhi(cfg=two_poles_n3, R=1.0, eps=e, beta=p.beta)
            for e in (0.25, 0.125)
        ]
        args = (two_poles_n3, WeightSpec.unit(), p)
        full = spectral_bound(*args, basis, lean_spec, allow_truncation=True)
        for k in range(1, len(basis) + 1):
            alone = spectral_bound(*args, basis[:k], lean_spec, allow_truncation=True)
            part = full.prefix(k)
            assert (part.basis_size, part.lambda_min, part.lambda_error, part.rank) \
                == (alone.basis_size, alone.lambda_min, alone.lambda_error, alone.rank)
            assert part.witness.tolist() == alone.witness.tolist()
        assert full.prefix(len(basis)).lambda_min == full.lambda_min
        for bad in (0, len(basis) + 1):
            with pytest.raises(ConfigError):
                full.prefix(bad)
        with pytest.raises(ConfigError):
            TestVerdicts.spectral(0.3).prefix(1)

    def test_single_pole_gram_is_singular(self, lean_spec):
        cfg = PoleConfig(dim=3, poles=np.zeros((1, 3)))
        p = derive_params(cfg, 0.0)
        with pytest.raises(SingularGram):
            spectral_bound(cfg, WeightSpec.unit(), p, bump_basis(2, 3), lean_spec)

    def test_rejects_empty_and_oversized_basis(self, two_poles_n3, lean_spec):
        p = derive_params(two_poles_n3, 0.0)
        with pytest.raises(ConfigError):
            spectral_bound(two_poles_n3, WeightSpec.unit(), p, [], lean_spec)
        with pytest.raises(ConfigError):
            spectral_bound(
                two_poles_n3, WeightSpec.unit(), p, bump_basis(201, 3), lean_spec
            )


def spd_pencil(m: int, seed: int):
    """A seeded pair of well-conditioned symmetric positive definite matrices."""
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((2, m, m))
    return x @ x.T + np.eye(m), y @ y.T + 0.5 * np.eye(m)


class TestPencilMinimum:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scipy_generalized_eigh(self, seed):
        """The smallest eigenvalue of A v = lambda B v, and its B-normalised
        eigenvector up to sign, are scipy's generalized solution; the
        witness's largest-magnitude entry is positive."""
        a_mat, b_mat = spd_pencil(6, seed)
        zero = np.zeros_like(a_mat)
        res = _pencil_minimum(a_mat, b_mat, zero, zero)
        lam, vec = scipy.linalg.eigh(a_mat, b_mat)
        assert res.rank == 6
        assert res.lambda_min == pytest.approx(lam[0], rel=1e-10)
        sign = np.sign(res.witness @ b_mat @ vec[:, 0])
        np.testing.assert_allclose(res.witness, sign * vec[:, 0], atol=1e-10)
        assert res.witness[np.argmax(np.abs(res.witness))] > 0

    @pytest.mark.parametrize("entry", [0, 1])
    def test_non_finite_gram_raises(self, entry):
        """A NaN in A or in B is refused, not passed on into lambda_min."""
        mats = list(spd_pencil(4, 0))
        mats[entry][1, 2] = mats[entry][2, 1] = np.nan
        zero = np.zeros((4, 4))
        with pytest.raises(ValueError, match="non-finite"):
            _pencil_minimum(*mats, zero, zero)

    def test_witness_sign_on_a_tie(self):
        """When entries tie in magnitude, the first of them is positive,
        whatever sign the eigensolver returns."""
        zero = np.zeros((2, 2))
        for off, expected in ((1.0, [1.0, -1.0]), (-1.0, [1.0, 1.0])):
            res = _pencil_minimum(
                np.array([[2.0, off], [off, 2.0]]), np.eye(2), zero, zero
            )
            assert res.witness.tolist() == pytest.approx(
                [e / math.sqrt(2.0) for e in expected]
            )


# --------------------------------------------------------------------------
# derived error bars
# --------------------------------------------------------------------------


def derived_rule(terms):
    """The derived-bar rule from its definition, on (coefficient, value,
    error) triples: the fsum of coefficient x value, and |coefficient| x
    error added in term order."""
    error = 0.0
    for c, _, e in terms:
        error += abs(c) * e
    return math.fsum([c * v for c, v, _ in terms]), error


def terms_of(*pairs):
    """(coefficient, value, error) triples of (coefficient, IntegralResult)."""
    return [(c, r.value, r.error) for c, r in pairs]


class TestDerivedBars:
    """Every derived bar equals the rule recomputed from its own terms: the
    residual (with the flux of a truncated row as one more term) and the
    deficit directly, the Hardy ratio and lambda_min as roots."""

    def test_verify_residual_flux_and_ratio(self, two_poles_n3, lean_spec):
        """A bump row and a truncated `OptimalityPhi` row on the borderline
        unit config, whose excised-sphere flux is a term of coefficient -1."""
        p = derive_params(two_poles_n3, 0.0)
        functions = bump_basis(1, 3) + [
            OptimalityPhi(cfg=two_poles_n3, R=1.0, eps=0.25, beta=p.beta)
        ]
        records = verify_identity(
            two_poles_n3, WeightSpec.unit(), p, functions, lean_spec
        )
        assert [r.truncated for r in records] == [False, True]
        assert records[0].flux == records[0].flux_error == 0.0
        assert records[1].flux > 0.0 and records[1].flux_error > 0.0
        for rec in records:
            rep = rec.report
            scale = max(rep.dirichlet.value, 1.0)
            identity = terms_of(
                (1.0, rep.dirichlet), (-1.0, rep.remainder),
                (-p.c_n_mu, rep.v_mass), (1.0, rep.w_mass),
            )
            value, error = derived_rule(identity + [(-1.0, rec.flux, rec.flux_error)])
            assert (rec.residual, rec.residual_error) == (value / scale, error / scale)
            if not rec.truncated:
                value, error = derived_rule(identity)
                assert functionals.identity_residual(rep, p) == value / scale
                assert functionals.identity_residual_error(rep, p) == error / scale
            _, gap_error = derived_rule(terms_of(
                (1.0, rep.dirichlet), (1.0, rep.w_mass),
                (-rec.hardy_ratio, rep.v_mass),
            ))
            assert rec.ratio_error == gap_error / rep.v_mass.value

    def test_general_exponent_residual(self, two_poles_n3, lean_spec):
        """Away from the optimal exponent the inverse-square mass is a term."""
        p = derive_params(two_poles_n3, 0.0)
        rep = energy_report(
            bump_basis(1, 3)[0], two_poles_n3, WeightSpec.unit(), p, lean_spec,
            beta=0.3,
        )
        value, error = derived_rule(terms_of(
            (1.0, rep.dirichlet), (-1.0, rep.remainder),
            (-rep.inv_sq_coefficient, rep.inv_sq_mass), (-0.09, rep.v_mass),
            (1.0, rep.w_mass),
        ))
        scale = max(rep.dirichlet.value, 1.0)
        assert functionals.identity_residual(rep, p) == value / scale
        assert functionals.identity_residual_error(rep, p) == error / scale

    def test_optimality_deficit_and_ratio(self, two_poles_n3, lean_spec):
        """The sweep's rows against the reports of the same candidates on
        the same spec, which are the sweep's own bit for bit."""
        p, w = derive_params(two_poles_n3, 0.0), WeightSpec.unit()
        eps_list = (0.25, 0.2)
        records, _ = optimality_sweep(
            two_poles_n3, w, p, eps_list=eps_list, spec=lean_spec, R=1.0,
            fit=False,
        )
        phis = [OptimalityPhi(cfg=two_poles_n3, R=1.0, eps=e, beta=p.beta)
                for e in eps_list]
        idents = verify_identity(two_poles_n3, w, p, phis, lean_spec)
        for rec, ident in zip(records, idents):
            rep = ident.report
            deficit = derived_rule(terms_of(
                (1.0, rep.dirichlet), (1.0, rep.w_mass), (-p.c_n_mu, rep.v_mass)
            ))
            assert (rec.deficit, rec.deficit_error) == deficit
            _, gap_error = derived_rule(terms_of(
                (1.0, rep.dirichlet), (1.0, rep.w_mass),
                (-rec.hardy_ratio, rep.v_mass),
            ))
            assert rec.ratio_error == gap_error / rep.v_mass.value

    @pytest.mark.parametrize("seed", range(3))
    def test_lambda_min_is_a_root(self, seed):
        """bar(w^T (A - lambda B) w) / w^T B w, with coefficients w_i w_j on
        the A entries and -lambda w_i w_j on the B entries."""
        a_mat, b_mat = spd_pencil(5, seed)
        rng = np.random.default_rng(seed + 10)
        a_err, b_err = (np.abs(e + e.T) for e in rng.standard_normal((2, 5, 5)))
        res = _pencil_minimum(a_mat, b_mat, a_err, b_err)
        w, lam = res.witness, res.lambda_min
        pairs = [(i, j) for i in range(5) for j in range(5)]
        _, error = derived_rule(
            [(w[i] * w[j], a_mat[i, j], a_err[i, j]) for i, j in pairs]
            + [(-lam * (w[i] * w[j]), b_mat[i, j], b_err[i, j]) for i, j in pairs]
        )
        assert res.lambda_error == error / float(w @ b_mat @ w)

    def test_one_function_gram(self, two_poles_n3, lean_spec):
        """With one basis function the witness is 1/sqrt(B), so the bar is
        (a_err + |lambda| b_err) / B."""
        phi = GaussianBump(center=np.array([1.0, 0.2, 0.1]), width=0.7)
        p = derive_params(two_poles_n3, 0.0)
        res = spectral_bound(two_poles_n3, WeightSpec.unit(), p, [phi], lean_spec)
        _, (b,), (a_err,), (b_err,) = (m.ravel() for m in res.gram)
        assert res.lambda_error == pytest.approx(
            (a_err + abs(res.lambda_min) * b_err) / b, rel=1e-14
        )
        assert res.lambda_error > 0.0


# --------------------------------------------------------------------------
# hypothesis certification
# --------------------------------------------------------------------------


class TestH2Certify:
    def test_unit_weight_supremum_is_zero(self, two_poles_n3, lean_spec):
        sup, _, argmax = h2_certify(two_poles_n3, WeightSpec.unit(), 0.5, 0.0,
                                    lean_spec)
        assert sup == 0.0
        assert argmax.shape == (3,)

    def test_gaussian_factor_constant(self, lean_spec):
        """Single pole, mu = exp(-delta |x|^2): W == 2 beta delta exactly,
        so the sampled supremum equals that constant."""
        cfg = PoleConfig(dim=3, poles=np.zeros((1, 3)))
        w = WeightSpec.polyexp(gamma=0.0, delta=0.3, m=2.0)
        beta = derive_params(cfg, 0.0).beta
        sup, _, _ = h2_certify(cfg, w, beta, 0.0, lean_spec)
        assert sup == pytest.approx(2.0 * beta * 0.3, rel=1e-12)

    def test_polyexp_negative_k_is_bounded(self, two_poles_n3, lean_spec):
        w = WeightSpec.polyexp(gamma=0.5)
        beta = derive_params(two_poles_n3, -0.6).beta
        sup, _, _ = h2_certify(two_poles_n3, w, beta, -0.6, lean_spec)
        assert np.isfinite(sup)
        assert sup < 0.1

    def test_error_is_the_half_sample_spread(self, two_poles_n3, lean_spec):
        """The C_mu error is the spread between the suprema of the two
        interleaved halves of the sample, not a fixed fraction of C_mu."""
        w = WeightSpec.polyexp(gamma=0.5)
        p = derive_params(two_poles_n3, -0.6)
        sup, err, _ = h2_certify(two_poles_n3, w, p.beta, -0.6, lean_spec)
        pts, _ = _certify_samples(two_poles_n3, lean_spec, 100_000)
        vals = potential_w(pts, two_poles_n3, w, p)
        assert sup == vals.max()
        assert err == abs(vals[::2].max() - vals[1::2].max())
        assert 0.0 < err != 0.05 * abs(sup)

    @pytest.mark.parametrize("beta", [0.0, -1.0])
    def test_rejects_nonpositive_beta(self, two_poles_n3, lean_spec, beta):
        """W needs beta > 0, as the energy ledger does."""
        with pytest.raises(NonpositiveBeta, match="beta must be positive"):
            h2_certify(two_poles_n3, WeightSpec.unit(), beta, 0.0, lean_spec)

    @pytest.mark.parametrize("k_bad", [0.0, -0.5])
    def test_wrong_k_detected_as_unbounded(self, two_poles_n3, lean_spec, k_bad):
        """K_mu > -gamma makes W ~ +c/r^2 at the poles; K_mu == -gamma still
        diverges direction-dependently for several poles.  Both must raise."""
        w = WeightSpec.polyexp(gamma=0.5)
        beta = derive_params(two_poles_n3, k_bad).beta
        with pytest.raises(UnboundedSuspected):
            h2_certify(two_poles_n3, w, beta, k_bad, lean_spec)


class TestH3H4Certify:
    def test_unit_weight_closed_form(self, two_poles_n3):
        """delta^-2 |B(a_i, delta)| = (4 pi / 3) delta for the unit weight."""
        rep = h3_h4_certify(two_poles_n3, WeightSpec.unit(), 0.0, 7)
        assert rep.h3_pass
        assert rep.h3_values.shape == (2, 8)
        expected = (4.0 * math.pi / 3.0) * rep.h3_deltas
        for i in range(2):
            np.testing.assert_allclose(rep.h3_values[i], expected, rtol=1e-10)
        # borderline local exponent: (2/2)(3-2) + 2 = 3 == N
        assert rep.h4i_exponent == pytest.approx(3.0)
        assert rep.h4i_status == "borderline"
        assert rep.h4ii_pass

    def test_single_pole_power_closed_form(self):
        """mu = |x|^-gamma over B(0, delta): scaled mass
        omega_3 delta^(1-gamma) / (3-gamma)."""
        cfg = PoleConfig(dim=3, poles=np.zeros((1, 3)))
        w = WeightSpec.polyexp(gamma=0.5)
        rep = h3_h4_certify(cfg, w, -0.5, 7)
        assert rep.h3_pass
        omega = sphere_surface_measure(3)
        expected = omega * rep.h3_deltas ** 0.5 / 2.5
        np.testing.assert_allclose(rep.h3_values[0], expected, rtol=1e-8)

    def test_polyexp_strict_status(self, two_poles_n3):
        w = WeightSpec.polyexp(gamma=0.5)
        rep = h3_h4_certify(two_poles_n3, w, -0.6, 7)
        assert rep.h3_pass
        assert rep.h4i_exponent == pytest.approx(2.9)
        assert rep.h4i_status == "strict"
        assert rep.h4ii_pass
        assert rep.h4ii_decay == pytest.approx(2 * 0.5)

    def test_h4ii_sample_follows_the_seed(self, two_poles_n3):
        """The far-field sample is drawn from the run's seed: one seed
        repeats bitwise, another draws different directions."""
        w = WeightSpec.polyexp(gamma=0.5)
        first = h3_h4_certify(two_poles_n3, w, -0.6, 11)
        again = h3_h4_certify(two_poles_n3, w, -0.6, 11)
        other = h3_h4_certify(two_poles_n3, w, -0.6, 12345)
        assert again.h4ii_sup == first.h4ii_sup
        assert other.h4ii_sup != first.h4ii_sup
        assert first.h4ii_pass and other.h4ii_pass

    def test_h4ii_error_only_where_sampled(self, two_poles_n3):
        """The unit weight and exponential decay sample nothing in H4 ii),
        so they carry no error; a power weight carries its half-sample
        spread."""
        for w in (WeightSpec.unit(), WeightSpec.polyexp(gamma=0.5, delta=0.3)):
            assert h3_h4_certify(two_poles_n3, w, 0.0, 7).h4ii_error is None
        rep = h3_h4_certify(two_poles_n3, WeightSpec.polyexp(gamma=0.5), -0.6, 7)
        assert 0.0 <= rep.h4ii_error < rep.h4ii_sup
        assert rep.h4ii_error != 0.05 * rep.h4ii_sup

    def test_exponent_formula(self, two_poles_n3, three_poles_n4):
        assert h4_local_exponent(
            two_poles_n3, WeightSpec.unit(), 0.0
        ) == pytest.approx(3.0)
        assert h4_local_exponent(
            two_poles_n3, WeightSpec.polyexp(gamma=0.5), -0.6
        ) == pytest.approx((2 / 2) * (3 - 0.6 - 2) + 2 + 0.5)
        assert h4_local_exponent(
            three_poles_n4, WeightSpec.unit(), 0.0
        ) == pytest.approx((2 / 3) * 2 + 2)


# --------------------------------------------------------------------------
# verdicts: the gates on hand-built records (no quadrature)
# --------------------------------------------------------------------------


class TestVerdicts:
    """Each verdict passes on good records and fails when one gate breaks."""

    @pytest.fixture
    def p(self, two_poles_n3):
        return derive_params(two_poles_n3, 0.0)  # c = 1/4

    @staticmethod
    def identity(residual=0.0, residual_error=1e-4, ratio=0.3, ratio_error=1e-3):
        return IdentityRecord(
            report=None,
            residual=residual,
            residual_error=residual_error,
            flux=0.0,
            flux_error=0.0,
            truncated=False,
            hardy_ratio=ratio,
            ratio_error=None if ratio is None else ratio_error,
        )

    def test_verify(self, p):
        good = verify_verdict([self.identity(), self.identity(5e-4)], p, 1e-3, 0.02)
        assert good.passed
        assert good.summary == {"ratio_floor": 0.25 * 0.98}
        assert good.rows == (
            {"residual_pass": True, "ratio_pass": True},
            {"residual_pass": True, "ratio_pass": True},
        )
        # the residual tolerance widens to three error bars
        assert verify_verdict([self.identity(2e-3, 1e-3)], p, 1e-3, 0.02).passed
        bad_residual = verify_verdict([self.identity(2e-3)], p, 1e-3, 0.02)
        assert not bad_residual.passed
        assert bad_residual.rows[0]["residual_pass"] is False
        bad_ratio = verify_verdict([self.identity(ratio=0.2)], p, 1e-3, 0.02)
        assert not bad_ratio.passed
        assert bad_ratio.rows[0] == {"residual_pass": True, "ratio_pass": False}

    def test_verify_zero_v_mass_is_skipped(self, p):
        verdict = verify_verdict([self.identity(ratio=None)], p, 1e-3, 0.02)
        assert verdict.passed
        assert verdict.rows[0]["ratio_pass"] == "skipped"

    @staticmethod
    def sweep(ratio, ratio_error=1e-3):
        return SweepRecord(
            eps=0.05,
            remainder=1e-3,
            remainder_error=1e-6,
            hardy_ratio=ratio,
            ratio_error=ratio_error,
            deficit=1e-3,
            deficit_error=1e-6,
        )

    def test_optimality(self, p):
        fit = RateFit(
            slope=1.05, intercept=0.0, r_squared=0.99, predicted_slope=1.0,
            points_used=5,
        )
        records = [self.sweep(0.3), self.sweep(0.26)]
        good = optimality_verdict(records, fit, p, 0.15, 0.10, 0.98)
        assert good.passed
        assert good.summary == {
            "slope_pass": True, "r2_pass": True, "ratio_pass": True
        }
        steep = dataclasses.replace(fit, slope=1.3)
        assert optimality_verdict(records, steep, p, 0.15, 0.10, 0.98).summary[
            "slope_pass"
        ] is False
        loose = dataclasses.replace(fit, r_squared=0.9)
        assert not optimality_verdict(records, loose, p, 0.15, 0.10, 0.98).passed
        # the terminal ratio must land in [c (1 - 0.02), c (1 + ratio_band)]
        for ratio in (0.3, 0.244):
            verdict = optimality_verdict(
                [self.sweep(ratio, 1e-4)], fit, p, 0.15, 0.10, 0.98
            )
            assert verdict.summary["ratio_pass"] is False
            assert not verdict.passed

    def test_optimality_infinite_rate_is_skipped(self, p):
        fit = RateFit(
            slope=40.0, intercept=0.0, r_squared=0.1, predicted_slope=math.inf,
            points_used=4,
        )
        verdict = optimality_verdict([self.sweep(0.26)], fit, p, 0.15, 0.10, 0.98)
        assert verdict.passed
        assert verdict.summary["slope_pass"] == "skipped"
        assert verdict.summary["r2_pass"] == "skipped"

    def test_beta_sweep(self, two_poles_n3):
        # N = 3, K = 0, n = 2: vertex at 1/4 with value 1/8
        records = tuple(
            BetaRecord(
                beta=b, coefficient=b - 2 * b * b, residual=1e-3, residual_error=1e-4
            )
            for b in (0.1, 0.2, 0.3, 0.4)
        )
        result = BetaSweepResult(
            records=records, argmax_beta=0.3, max_coefficient=0.12,
            vertex_beta=0.25, vertex_value=0.125,
        )
        good = beta_sweep_verdict(result, two_poles_n3, 0.0, 1e-2)
        assert good.passed
        assert good.rows == ({"residual_pass": True},) * 4
        assert good.summary["argmax_within_one_step"] is True
        assert good.summary["grid_step"] == pytest.approx(0.1)
        assert good.summary["vertex_formula_gap"] == 0.0
        loud = dataclasses.replace(records[3], residual=0.5)
        noisy = dataclasses.replace(result, records=records[:3] + (loud,))
        bad = beta_sweep_verdict(noisy, two_poles_n3, 0.0, 1e-2)
        assert not bad.passed and bad.rows[3] == {"residual_pass": False}
        assert bad.summary["residuals_pass"] is False
        far = dataclasses.replace(result, argmax_beta=0.4)
        assert not beta_sweep_verdict(far, two_poles_n3, 0.0, 1e-2).passed
        off = dataclasses.replace(result, vertex_value=0.125 + 1e-9)
        off_verdict = beta_sweep_verdict(off, two_poles_n3, 0.0, 1e-2)
        assert not off_verdict.passed
        assert off_verdict.summary["residuals_pass"] is True

    @staticmethod
    def spectral(lam, err=1e-4):
        return SpectralResult(
            basis_size=1, lambda_min=lam, lambda_error=err,
            witness=np.ones(1), rank=1,
        )

    def test_spectral(self, p):
        good = spectral_verdict(
            [self.spectral(0.30), self.spectral(0.27)], p, 0.02, 0.15
        )
        assert good.passed
        assert good.summary == {
            "monotone": True, "lower_pass": True, "upper_pass": True
        }
        rising = spectral_verdict(
            [self.spectral(0.27), self.spectral(0.28)], p, 0.02, 0.15
        )
        assert not rising.passed and rising.summary["monotone"] is False
        low = spectral_verdict([self.spectral(0.24)], p, 0.02, 0.15)
        assert not low.passed and low.summary["lower_pass"] is False
        high = spectral_verdict([self.spectral(0.30)], p, 0.02, 0.15)
        assert not high.passed and high.summary["upper_pass"] is False

    def test_spectral_without_upper_band_is_skipped(self, p):
        verdict = spectral_verdict([self.spectral(0.30)], p, 0.02, None)
        assert verdict.passed
        assert verdict.summary["upper_pass"] == "skipped"

    def test_certify(self):
        report = HypothesisReport(
            h3_pass=True, h3_deltas=np.ones(1), h3_values=np.ones((2, 1)),
            h3_errors=np.zeros((2, 1)), h4i_exponent=3.0, h4i_margin=0.0,
            h4i_status="borderline", h4ii_pass=True, h4ii_decay=0.0, h4ii_sup=1.0,
        )
        good = certify_verdict(0.0, report)
        assert good.passed
        assert good.summary == {"h2_pass": True, "h3_pass": True, "h4ii_pass": True}
        strict = dataclasses.replace(report, h4i_status="strict")
        assert certify_verdict(0.0, strict).passed
        unbounded = certify_verdict(None, report)
        assert not unbounded.passed and unbounded.summary["h2_pass"] is False
        for change in (
            {"h3_pass": False}, {"h4i_status": "fail"}, {"h4ii_pass": False}
        ):
            broken = dataclasses.replace(report, **change)
            assert not certify_verdict(0.0, broken).passed

    def test_h4i_status(self, two_poles_n3, three_poles_n4):
        unit, power = WeightSpec.unit(), WeightSpec.polyexp(gamma=0.5)
        assert h4i_status(two_poles_n3, unit, 0.0) == "borderline"
        assert h4i_status(two_poles_n3, power, -0.6) == "strict"
        assert h4i_status(two_poles_n3, unit, 0.5) == "fail"
        assert h4i_status(three_poles_n4, unit, 0.0) == "strict"
