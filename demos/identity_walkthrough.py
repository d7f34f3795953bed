"""Measure one test function's energies and close the integral identity.

Computes the five energy integrals of a Gaussian bump for a two-pole
configuration, prints the identity residual

    dirichlet - remainder - c_N_mu * v_mass + w_mass  ~  0

and the Hardy ratio against the optimal constant.

Run:  python3 demos/identity_walkthrough.py [--gamma 0.5 --k-mu -0.6]
"""

import argparse

import numpy as np

from multipolar_hardy import (
    GaussianBump,
    PoleConfig,
    QuadratureSpec,
    WeightSpec,
    derive_params,
    energy_report,
    hardy_ratio,
    identity_residual,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--gamma", type=float, default=0.0,
                    help="power-weight exponent (0 = unit weight)")
    ap.add_argument("--k-mu", type=float, default=0.0)
    ap.add_argument("--mc", type=int, default=1_000_000)
    args = ap.parse_args()

    cfg = PoleConfig(dim=3, poles=np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
    w = WeightSpec.unit() if args.gamma == 0 else WeightSpec.polyexp(args.gamma)
    p = derive_params(cfg, args.k_mu)
    phi = GaussianBump(center=np.array([1.0, 0.3, 0.0]), width=0.8)
    spec = QuadratureSpec(pole_radius=0.9, far_radius=6.0, radial_levels=24,
                          mc_samples=args.mc, seed=11)

    rep = energy_report(phi, cfg, w, p, spec)
    rows = [
        ("dirichlet", rep.dirichlet),
        ("v_mass", rep.v_mass),
        ("w_mass", rep.w_mass),
        ("l2_mass", rep.l2_mass),
        ("remainder", rep.remainder),
    ]
    print(f"weight {w.kind}, K_mu = {p.k_mu:g}, c_N_mu = {p.c_n_mu:g}")
    for name, res in rows:
        print(f"  {name:<10} {res.value:14.8f}  "
              f"+- {res.error:.2e}")
    print(f"identity residual  {identity_residual(rep, p):+.3e}  "
          f"(zero up to quadrature error)")
    ratio = hardy_ratio(rep)
    print(f"hardy ratio        {ratio:.6f}  >=  c_N_mu = {p.c_n_mu:g}  "
          f"(margin {ratio - p.c_n_mu:+.4f})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
