"""The vector equilibrium problem: pushed supports, three ways.

For small mass fraction c the first component's support [alpha1, beta_c1]
detaches from its interval. The pushed endpoint is computed by (i) the
joint Newton solve of the rational-map parametrization, (ii) the
discriminant-cubic structure, and (iii) a brute-force discrete charge
minimization; the equilibrium densities are then integrated back to their
masses and the variational constant is checked for flatness.
"""

import mpmath as mp

from angelesco import (
    PrecisionContext,
    critical_thresholds,
    curve,
    dc_oracle,
    energy_oracle,
    equilibrium,
    reference_geometry,
)
from angelesco.errors import RegimeError

ctx = PrecisionContext(512)
g = reference_geometry()

th = critical_thresholds(g, ctx)
print(f"regime thresholds: c* = {mp.nstr(th.c_star, 10)}, c** = {mp.nstr(th.c_dstar, 10)}")
print()
print(f"{'c':>6} {'newton beta':>14} {'cubic beta':>14} {'charges beta':>13} {'regime':>12}")
for c in ("0.02", "0.05", "0.2", "0.5"):
    cd = curve(g, c, ctx)
    try:
        _, beta_dc = dc_oracle(g, c, ctx)
        dc_str = mp.nstr(beta_dc, 10)
    except RegimeError:
        dc_str = "(full support)"
    res = energy_oracle(g, float(mp.mpf(c)), n_particles=300)
    print(f"{c:>6} {mp.nstr(cd.beta_c1, 10):>14} {dc_str:>14} "
          f"{res['beta_c1']:>13.6f} {cd.regime:>12}")

print()
c = "0.3"
cd = curve(g, c, ctx)
eq = equilibrium(cd, ctx)
with ctx.workprec():
    print(f"equilibrium at c = {c}: masses = "
          f"({mp.nstr(eq.masses[0], 12)}, {mp.nstr(eq.masses[1], 12)})")
    sup = cd.supports()
    pts = [sup[0][0] + (sup[0][1] - sup[0][0]) * mp.mpf(q) for q in ("0.25", "0.5", "0.75")]
    vals = [eq.potential(x, 2, 1) for x in pts]
    print("variational combination on the first support (should be flat):")
    for x, v in zip(pts, vals):
        print(f"  V(2w1+w2)({mp.nstr(x, 6)}) = {mp.nstr(v, 15)}")
