"""Acceptance suite: every quantitative target at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with -s to see them live).

Criterion 3 follows the regime split of the reference geometry, whose
pushed-regime threshold is c* = 0.08521...: below c* the discriminant-cubic
backend must agree with the curve's pushed endpoint, and from c* on it must
raise RegimeError while the curve reports the middle regime with the
endpoint fixed at beta_1. The energy oracle is compared at every c.

Criterion 6 checks b_1 along the marginal ray (1, k) through the limit of
the sequence: the error decays like 1/k, so b_1(1, k) = B + C/k + D/k^2 is
fitted at k = 24, 32, 40 (all pushed-regime fractions) and the extrapolated
B is held to the tolerance on B_{0,1}. Beside it, the single term at
k = 240 (error 0.043) is held to the same tolerance.
"""

import time

import mpmath as mp
import numpy as np
import pytest

from angelesco.curve import (
    MIDDLE,
    critical_thresholds,
    curve,
    dc_oracle,
    energy_oracle,
)
from angelesco.errors import RegimeError
from angelesco.mops import (
    AngelescoSystem,
    MultiIndex,
    decay_slope,
    lebesgue_weights,
    reference_geometry,
)
from angelesco.precision import PrecisionContext
from angelesco.szego import ratio_report
from angelesco.tree import (
    SyntheticSource,
    appendix_c0,
    assemble_J,
    assemble_L,
    build_tree,
    m_closed,
    m_recursion,
    spectrum_probe,
)

CTX = PrecisionContext(512)
G0 = reference_geometry()
TARGETS = [(-2.0, -1.0), (1.0, 2.0)]


@pytest.fixture(scope="module")
def system():
    return AngelescoSystem(G0, lebesgue_weights(), CTX)


@pytest.fixture(scope="module")
def thresholds():
    return critical_thresholds(G0, CTX)


def _finish(tag, failures, t0, budget, extra=""):
    elapsed = time.time() - t0
    status = "PASS" if not failures else "FAIL"
    print(f"[{tag}] {status} ({elapsed:.1f}s / budget {budget}s){' - ' + extra if extra else ''}")
    for f in failures:
        print(f"    {f}")
    assert not failures, f"{tag}: " + "; ".join(failures)
    assert elapsed < budget, f"{tag}: runtime {elapsed:.1f}s over budget {budget}s"


def test_ac01_closed_form_limit_constants():
    t0 = time.time()
    failures = []
    cd = curve(G0, "0.001", CTX)
    with CTX.workprec():
        for name, val, want in (("A2", cd.A2, mp.mpf("0.0625")),
                                ("B2", cd.B2, mp.mpf("1.5")),
                                ("B1", cd.B1, mp.mpf("-1.9820508"))):
            rel = abs(val / want - 1)
            if rel > mp.mpf("0.01"):
                failures.append(f"{name}={mp.nstr(val, 10)} off {mp.nstr(want, 8)} by {mp.nstr(rel, 3)}")
        if not cd.A1 < mp.mpf("1e-4"):
            failures.append(f"A1={mp.nstr(cd.A1, 5)} not < 1e-4")
        cd0 = curve(G0, 0, CTX)
        from angelesco.szego_maps import phi_map
        exact = (mp.mpf(0), ((G0.beta2 - G0.alpha2) / 4) ** 2,
                 (G0.beta2 + G0.alpha2) / 2 + phi_map(G0.alpha1, G0.alpha2, G0.beta2),
                 (G0.beta2 + G0.alpha2) / 2)
        got = (cd0.A1, cd0.A2, cd0.B1, cd0.B2)
        if not all(a == b for a, b in zip(got, exact)):
            failures.append("closed forms at c=0 are not exact")
    _finish("AC1", failures, t0, 10)


def test_ac02_endpoint_law(thresholds):
    t0 = time.time()
    failures = []
    tol = {"0.01": "0.10", "0.001": "0.03", "0.0001": "0.01"}
    with CTX.workprec():
        root12 = mp.sqrt(12)
        for c_str, rtol in tol.items():
            c = mp.mpf(c_str)
            cd = curve(G0, c_str, CTX)
            ratio = (cd.beta_c1 - G0.alpha1) / (4 * c)
            rel = abs(ratio / root12 - 1)
            if rel > mp.mpf(rtol):
                failures.append(f"c={c_str}: ratio {mp.nstr(ratio, 8)} rel err {mp.nstr(rel, 3)} > {rtol}")
            if c < thresholds.c_star:
                lo = 4 * c / (1 - c) * (G0.alpha2 - G0.beta1)
                hi = 4 * c / (1 - c) * (G0.beta2 - G0.alpha1)
                if not (lo < cd.beta_c1 - G0.alpha1 < hi):
                    failures.append(f"c={c_str}: endpoint bracket violated")
    _finish("AC2", failures, t0, 30)


def test_ac03_cross_backend_agreement(thresholds):
    t0 = time.time()
    failures = []
    notes = []
    with CTX.workprec():
        for c_str in ("0.02", "0.05", "0.1"):
            c = mp.mpf(c_str)
            cd = curve(G0, c_str, CTX)
            if c < thresholds.c_star:
                try:
                    _, beta_dc = dc_oracle(G0, c_str, CTX)
                except RegimeError as exc:
                    failures.append(f"c={c_str}: discriminant backend undefined below c* ({exc})")
                else:
                    diff = abs(beta_dc - cd.beta_c1)
                    if diff > mp.mpf("1e-30"):
                        failures.append(f"c={c_str}: backends differ by {mp.nstr(diff, 4)}")
                    else:
                        notes.append(f"c={c_str} {cd.regime}: dc agreement {mp.nstr(diff, 3)}")
            else:
                try:
                    dc_oracle(G0, c_str, CTX)
                except RegimeError:
                    notes.append(f"c={c_str} {cd.regime}: dc undefined past "
                                 f"c*={mp.nstr(thresholds.c_star, 8)}")
                else:
                    failures.append(f"c={c_str}: discriminant backend returned a value past c*")
                if cd.regime != MIDDLE:
                    failures.append(f"c={c_str}: regime {cd.regime}, want {MIDDLE}")
                if cd.beta_c1 != G0.beta1:
                    failures.append(f"c={c_str}: middle endpoint {mp.nstr(cd.beta_c1, 8)} is not beta1")
            res = energy_oracle(G0, float(c), n_particles=400)
            ediff = abs(res["beta_c1"] - float(cd.beta_c1))
            if ediff > 0.02:
                failures.append(f"c={c_str}: energy oracle off by {ediff:.4f}")
            else:
                notes.append(f"c={c_str}: energy agreement {ediff:.4f}")
    _finish("AC3", failures, t0, 300, extra="; ".join(notes))


def test_ac04_ray_limit_convergence(system):
    t0 = time.time()
    failures = []
    cd = curve(G0, "0.5", CTX)
    ks = (8, 12, 24)
    streams = {"a1": [], "a2": [], "b1": [], "b2": []}
    with CTX.workprec():
        for k in ks:
            a1, a2, b1, b2 = system.nnrr((k, k))
            streams["a1"].append(abs(a1 - cd.A1))
            streams["a2"].append(abs(a2 - cd.A2))
            streams["b1"].append(abs(b1 - cd.B1))
            streams["b2"].append(abs(b2 - cd.B2))
        for name, errs in streams.items():
            if not errs[2] < errs[0]:
                failures.append(f"{name}: error did not decrease from k=8 to k=24")
            if not errs[2] <= mp.mpf("0.6") * errs[1]:
                failures.append(
                    f"{name}: err(24)={mp.nstr(errs[2], 4)} > 0.6*err(12)={mp.nstr(errs[1], 4)}")
    _finish("AC4", failures, t0, 900,
            extra=" ".join(f"{k}:{mp.nstr(v[2], 3)}" for k, v in streams.items()))


def test_ac05_middle_regime_constancy():
    t0 = time.time()
    failures = []
    cd48 = curve(G0, "0.48", CTX)
    cd52 = curve(G0, "0.52", CTX)
    with CTX.workprec():
        for k in ("A1", "A2", "B1", "B2"):
            d = abs(getattr(cd48, k) - getattr(cd52, k))
            if d > mp.mpf("1e-10"):
                failures.append(f"{k} differs by {mp.nstr(d, 4)}")
    _finish("AC5", failures, t0, 10)


def test_ac06_marginal_asymptotics(system):
    t0 = time.time()
    failures = []
    rows = ratio_report(system, [(1, 10), (1, 40)], 4)
    errs = [r["abs_err"] for r in rows]
    with CTX.workprec():
        if not errs[1] < errs[0]:
            failures.append(f"predictor ratio error grew: {mp.nstr(errs[0], 4)} -> {mp.nstr(errs[1], 4)}")
        B01 = mp.mpf("-1.98205080756887729352744634151")
        B02 = mp.mpf("1.5")
        # b1 approaches B01 like 1/k along (1, k); fit the limit B of
        # b1(1, k) = B + C/k + D/k^2 instead of holding one term to it
        ks = (24, 32, 40)
        coeffs = [system.nnrr(MultiIndex(1, k)) for k in ks]
        b1s = [b1 for _, _, b1, _ in coeffs]
        b1_errs = [abs(b1 - B01) for b1 in b1s]
        if not all(e1 > e2 for e1, e2 in zip(b1_errs, b1_errs[1:])):
            failures.append("b1 error along (1, k) did not strictly decrease: "
                            + ", ".join(mp.nstr(e, 4) for e in b1_errs))
        B_fit = mp.lu_solve(mp.matrix([[1, mp.mpf(1) / k, mp.mpf(1) / k ** 2] for k in ks]),
                            mp.matrix(b1s))[0]
        if abs(B_fit - B01) > mp.mpf("0.05"):
            failures.append(f"extrapolated b1 limit {mp.nstr(B_fit, 8)} not within 0.05 of {mp.nstr(B01, 8)}")
        b2 = coeffs[-1][3]
        if abs(b2 - B02) > mp.mpf("0.05"):
            failures.append(f"b2 extraction {mp.nstr(b2, 8)} not within 0.05 of 1.5")
        # beside the extrapolated limit, one far term on its own
        b1_far = system.nnrr(MultiIndex(1, 240))[2]
        if abs(b1_far - B01) > mp.mpf("0.05"):
            failures.append(f"b1(1, 240) = {mp.nstr(b1_far, 8)} not within 0.05 of {mp.nstr(B01, 8)}")
    _finish("AC6", failures, t0, 300,
            extra=f"ratio err {mp.nstr(errs[0], 3)} -> {mp.nstr(errs[1], 3)}; b1 err "
                  + " ".join(f"k={k}:{mp.nstr(e, 3)}" for k, e in zip(ks, b1_errs))
                  + f"; fitted B {mp.nstr(B_fit, 8)} (B - B01 = {mp.nstr(B_fit - B01, 3)})"
                  + f"; b1(1, 240) err {mp.nstr(abs(b1_far - B01), 3)}")


def test_ac07_essential_spectrum():
    t0 = time.time()
    failures = []
    cd = curve(G0, "0.5", CTX)
    src = SyntheticSource(G0, bits=192)
    reports = {}
    for depth in (8, 10):
        tree = build_tree(depth)
        reports[("L", depth)] = spectrum_probe(assemble_L(tree, 0.5, 1, cd), TARGETS, 0.1)
        reports[("J", depth)] = spectrum_probe(assemble_J(tree, src), TARGETS, 0.1)
    for op in ("L", "J"):
        r10, r8 = reports[(op, 10)], reports[(op, 8)]
        if r10["inside_fraction"] < 0.9:
            failures.append(f"{op}: inside fraction {r10['inside_fraction']:.3f} < 0.9 at depth 10")
        if r10["max_coverage_gap"] > 0.05:
            failures.append(f"{op}: coverage gap {r10['max_coverage_gap']:.3f} > 0.05 at depth 10")
        improved = (r10["inside_fraction"] >= r8["inside_fraction"]
                    and r10["max_coverage_gap"] < r8["max_coverage_gap"])
        if not improved:
            failures.append(f"{op}: no improvement from depth 8 to 10")
    _finish("AC7", failures, t0, 120,
            extra=" ".join(f"{op}10: in={reports[(op, 10)]['inside_fraction']:.3f} "
                           f"gap={reports[(op, 10)]['max_coverage_gap']:.3f}" for op in ("L", "J")))


def test_ac08_m_function_consistency():
    t0 = time.time()
    failures = []
    grid = [complex(x, y) for x in (-2.5, -1.2, 0.0, 1.2, 2.5)
            for y in (0.3, 0.6, 1.0, 1.6)]
    assert len(grid) == 20
    worst = 0.0
    for c_str in ("0.3", "0.5", "0.7"):
        cd = curve(G0, c_str, CTX)
        for l in (1, 2):
            for z in grid:
                worst = max(worst, abs(m_recursion(cd, l, z).get(l) - m_closed(cd, l, z, CTX)))
    if worst > 1e-10:
        failures.append(f"max |recursion - closed| = {worst:.3e} > 1e-10")
    cd = curve(G0, "0.5", CTX)
    xs, ws = np.polynomial.legendre.leggauss(120)
    total = 0.0
    for (a, b) in TARGETS:
        for edge, sgn in ((a, 1), (b, -1)):
            tmax = np.sqrt((b - a) / 2)
            ts = tmax * (xs + 1) / 2
            for w, t in zip(ws, ts):
                d = m_closed(cd, 1, float(edge + sgn * t * t), CTX).imag / np.pi
                if d < -1e-12:
                    failures.append(f"negative density {d:.3e}")
                total += w * tmax * t * d
    if abs(total - 1) > 1e-6:
        failures.append(f"total spectral mass {total:.10f} not 1 +- 1e-6")
    _finish("AC8", failures, t0, 60, extra=f"max diff {worst:.2e}, mass {total:.8f}")


def test_ac09_degenerate_ray_decoupling():
    t0 = time.time()
    failures = []
    rep = appendix_c0(G0, CTX, depth=40)
    with CTX.workprec():
        if rep["pole_error"] > mp.mpf("1e-12"):
            failures.append(f"pole error {mp.nstr(rep['pole_error'], 4)} > 1e-12")
        if rep["identity_residual"] > mp.mpf("1e-12"):
            failures.append("algebraic identity residual too large")
    if rep["n_near_pole"] != 1:
        failures.append(f"{rep['n_near_pole']} eigenvalues near the bound state, want 1")
    if rep["n_outside"] != 0:
        failures.append(f"{rep['n_outside']} eigenvalues escaped the band")
    _finish("AC9", failures, t0, 10,
            extra=f"pole err {mp.nstr(rep['pole_error'], 2)}")


def test_ac10_mop_internal_consistency(system):
    t0 = time.time()
    failures = []
    with CTX.workprec():
        worst_rel = mp.mpf(0)
        for norm in range(0, 21):
            for n1 in range(norm + 1):
                n = MultiIndex(n1, norm - n1)
                zp = system.solution(n).p_monic.shift_mul_x()
                scale = zp.max_abs_coeff()
                for j in (1, 2):
                    rel = system.recurrence_residual(n, j) / scale
                    worst_rel = max(worst_rel, rel)
        if worst_rel > mp.mpf("1e-80"):
            failures.append(f"worst relative recurrence residual {mp.nstr(worst_rel, 4)} > 1e-80")
    rng = np.random.RandomState(17)
    for _ in range(20):
        n1, n2 = int(rng.randint(1, 7)), int(rng.randint(1, 7))
        j = int(rng.randint(1, 3))
        n = MultiIndex(n1, n2)
        m = n.plus(j)
        zn = system.zeros(n)
        zm = system.zeros(m.as_pair())
        for side in (0, 1):
            a, b = zn[side], zm[side]
            if len(a) != n.as_pair()[side] or len(b) != m.as_pair()[side]:
                failures.append(f"zero count mismatch at {n.as_pair()}")
            if len(b) == len(a) + 1:
                if not all(b[k] < a[k] < b[k + 1] for k in range(len(a))):
                    failures.append(f"interlacing violated at {n.as_pair()} j={j}")
    with CTX.workprec():
        zs = [100, 200, 400]
        for i, want in ((1, -3), (2, -3)):
            vals = [system.remainder((2, 2), i, mp.mpf(z)) for z in zs]
            slope = decay_slope(vals, zs, CTX)
            if abs(slope - want) > mp.mpf("0.05"):
                failures.append(f"remainder slope {mp.nstr(slope, 6)} not {want} +- 0.05")
        vals = [system.linear_form((2, 2), mp.mpf(z)) for z in zs]
        slope = decay_slope(vals, zs, CTX)
        if abs(slope + 4) > mp.mpf("0.05"):
            failures.append(f"linear form slope {mp.nstr(slope, 6)} not -4 +- 0.05")
    _finish("AC10", failures, t0, 600, extra=f"worst rel residual {mp.nstr(worst_rel, 2)}")
