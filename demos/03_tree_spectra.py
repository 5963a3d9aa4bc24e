"""Truncated tree operators filling out the union of intervals.

Dirichlet truncations of the model operator (coefficients frozen at their
ray limits) and of the Jacobi operator with the synthetic coefficient field
are solved by inertia counts at increasing depth; their eigenvalues fill
the two orthogonality intervals and stay out of the gap. The degenerate
boundary ray decouples into half-lines with one bound state pinned at the
far left endpoint, reproduced by the closed-form resolvent identity.
"""

import mpmath as mp

from angelesco import (
    PrecisionContext,
    SyntheticSource,
    appendix_c0,
    assemble_J,
    assemble_L,
    build_tree,
    curve,
    reference_geometry,
    spectrum_probe,
)

ctx = PrecisionContext(256)
g = reference_geometry()
targets = [tuple(map(float, g.interval(1))), tuple(map(float, g.interval(2)))]
cd = curve(g, "0.5", ctx)

print("=== model operator truncations, c = 1/2 ===")
for depth in (6, 8, 10):
    rep = spectrum_probe(assemble_L(build_tree(depth), 0.5, 1, cd), targets, 0.1)
    print(f"depth {depth:>2}: dim {rep['dim']:>5}  inside fraction {rep['inside_fraction']:.4f}"
          f"  coverage gap {rep['max_coverage_gap']:.4f}")

print()
print("=== Jacobi operator with the synthetic coefficient field ===")
src = SyntheticSource(g, bits=192)
for depth in (6, 8):
    rep = spectrum_probe(assemble_J(build_tree(depth), src), targets, 0.1)
    print(f"depth {depth:>2}: dim {rep['dim']:>5}  inside fraction {rep['inside_fraction']:.4f}"
          f"  coverage gap {rep['max_coverage_gap']:.4f}")

print()
print("=== boundary-ray decoupling ===")
rep = appendix_c0(g, ctx, depth=40)
print(f"free-block band: [{mp.nstr(rep['band'][0], 8)}, {mp.nstr(rep['band'][1], 8)}]")
print(f"bound state located at {mp.nstr(rep['pole'], 12)} "
      f"(distance to alpha1: {mp.nstr(rep['pole_error'], 3)})")
print(f"depth-40 truncation: {rep['n_near_pole']} eigenvalue within 1e-3 of the bound state, "
      f"{rep['n_outside']} strays outside the band")
