import cmath
import importlib
import itertools
import sys
import time

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from angelesco.curve import (
    MIDDLE,
    PUSHED_LEFT,
    PUSHED_RIGHT,
    chi_eval,
    chi_solve,
    critical_thresholds,
    curve,
    curve_to_json,
    dc_oracle,
    energy_oracle,
    equilibrium,
    h_branch,
    upsilon,
)
from angelesco.curve import (
    _critical_points,
    _double_roots,
    _mirror_curve,
    _newton,
    _R,
    _Rp,
    _Rpp,
)
from angelesco.errors import (
    AngelescoError,
    ClassificationError,
    DomainError,
    InternalInconsistency,
    RegimeError,
    SolveFailure,
)
from angelesco.mops import Geometry, reference_geometry
from angelesco.precision import PrecisionContext, gauss_legendre

CTX = PrecisionContext(512)
G0 = reference_geometry()


@pytest.fixture(scope="module")
def thresholds():
    return critical_thresholds(G0, CTX)


@pytest.fixture(scope="module")
def cd_half():
    return curve(G0, "0.5", CTX)


@pytest.fixture(scope="module")
def cd_small():
    return curve(G0, "0.001", CTX)


def test_chi_solve_symmetric_structure():
    params, w_crit, resid = chi_solve(G0.as_tuple(), CTX)
    A1, A2, B1, B2 = params
    with CTX.workprec():
        assert abs(A1 - A2) < mp.mpf("1e-100")
        assert abs(B1 + B2) < mp.mpf("1e-100")
        assert abs(w_crit[0] + w_crit[3]) < mp.mpf("1e-100")
        assert abs(w_crit[1] + w_crit[2]) < mp.mpf("1e-100")
        # defining equations reproduced far below the 1e-(bits/4) requirement
        assert resid < mp.mpf(10) ** (-(CTX.mantissa_bits // 4))
        assert w_crit[0] < B1 < w_crit[1] < w_crit[2] < B2 < w_crit[3]


def test_chi_solve_collapsing_interval_limits():
    params, w_crit, resid = chi_solve(("-2", "-1.99", "1", "2"), CTX)
    A1, A2, B1, B2 = params
    with CTX.workprec():
        assert A1 < mp.mpf("1e-4")
        assert abs(A2 / mp.mpf("0.0625") - 1) < mp.mpf("0.02")
        assert abs(B2 / mp.mpf("1.5") - 1) < mp.mpf("0.02")
        assert abs(B1 / mp.mpf("-1.9820508") - 1) < mp.mpf("0.02")


def test_chi_solve_rejects_bad_points():
    with pytest.raises(SolveFailure):
        chi_solve((1, 0, 2, 3), CTX)


def _quartic_roots(p, bits):
    """Zeros of (w-B1)^2 (w-B2)^2 - A1 (w-B2)^2 - A2 (w-B1)^2, the numerator of R'."""
    A1, A2, B1, B2 = p
    with mp.workprec(2 * bits + 64):
        s1, s2 = B1 + B2, B1 * B2
        coeffs = [1, -2 * s1, s1 ** 2 + 2 * s2 - A1 - A2,
                  -2 * s1 * s2 + 2 * A1 * B2 + 2 * A2 * B1,
                  s2 ** 2 - A1 * B2 ** 2 - A2 * B1 ** 2]
        roots = mp.polyroots(coeffs, maxsteps=400, extraprec=2 * bits)
        return sorted(mp.re(r) for r in roots)


@settings(max_examples=40, deadline=None)
@given(bits=st.sampled_from([128, 192, 512]),
       log_a1=st.floats(-10, 1), log_a2=st.floats(-10, 1),
       b1=st.floats(-3, 3), margin=st.floats(0.05, 3))
def test_critical_points_match_quartic_roots(bits, log_a1, log_a2, b1, margin):
    ctx = PrecisionContext(bits)
    with ctx.workprec():
        A1, A2 = mp.mpf(10) ** log_a1, mp.mpf(10) ** log_a2
        # the middle pair is real iff B2 - B1 > (A1^(1/3) + A2^(1/3))^(3/2)
        gap = (mp.cbrt(A1) + mp.cbrt(A2)) ** mp.mpf(1.5) * (1 + mp.mpf(margin))
        p = (A1, A2, mp.mpf(b1), mp.mpf(b1) + gap)
        w = _critical_points(p, ctx)
        B1, B2 = p[2], p[3]
        assert w[0] < B1 < w[1] <= w[2] < B2 < w[3]
        scale = max(1, abs(B1), abs(B2))
        for wj, ref in zip(w, _quartic_roots(p, bits)):
            assert abs(wj - ref) <= mp.mpf(2) ** (8 - bits) * scale
            # rounding floor of R' at wj: its terms' size, and its slope times |wj|
            floor = 1 + A1 / (wj - B1) ** 2 + A2 / (wj - B2) ** 2 + abs(_Rpp(wj, p)) * scale
            assert abs(_Rp(wj, p)) <= mp.mpf(2) ** (8 - bits) * floor


@settings(max_examples=100, deadline=None)
@given(bits=st.sampled_from([128, 192, 512]),
       log_a1=st.floats(-80, 2), log_a2=st.floats(-80, 2),
       b1=st.floats(-100, 100), log_gap=st.floats(-30, 2))
# wm = (B2 + t B1)/(1 + t) rounds to B1, where R'(wm) would divide by zero
@example(bits=128, log_a1=-35.37, log_a2=1.53, b1=4.83, log_gap=-27.1)
def test_critical_points_in_bounded_brackets_or_refused(bits, log_a1, log_a2, b1, log_gap):
    # every parameter set either gives the four ordered zeros, each inside
    # its closed-form bracket with the signs of R' that the bounds promise
    # at the ends, or is refused with SolveFailure; no other exception
    ctx = PrecisionContext(bits)
    with ctx.workprec():
        A1, A2 = mp.mpf(10) ** log_a1, mp.mpf(10) ** log_a2
        B1 = mp.mpf(b1)
        p = (A1, A2, B1, B1 + mp.mpf(10) ** log_gap)
        try:
            w = _critical_points(p, ctx)
        except SolveFailure:
            return
        B2 = p[3]
        assert w[0] < B1 < w[1] <= w[2] < B2 < w[3]
        s, r1, r2 = mp.sqrt(A1 + A2), mp.sqrt(A1) / 2, mp.sqrt(A2) / 2
        t = (A2 / A1) ** (mp.mpf(1) / 3)
        wm = (B2 + t * B1) / (1 + t)
        # find_root's last Newton step may cross a bracket end by its tolerance
        tol = mp.mpf(2) ** (4 - bits) * max(1, abs(B1), abs(B2))
        brackets = [(B1 - 2 * s, B1 - r1), (B1 + r1, wm), (wm, B2 - r2), (B2 + r2, B2 + 2 * s)]
        for wj, (lo, hi) in zip(w, brackets):
            assert lo - tol <= wj <= hi + tol
        slack = mp.mpf(2) ** (4 - bits // 2)
        for end in (B1 - 2 * s, B2 + 2 * s):
            assert _Rp(end, p) >= mp.mpf(3) / 4 - slack
        for end in (B1 - r1, B1 + r1, B2 - r2, B2 + r2):
            assert _Rp(end, p) <= -3 + slack
        assert _Rp(wm, p) > 0


@settings(max_examples=40, deadline=None)
@given(bits=st.sampled_from([128, 192, 512]),
       log_a1=st.floats(-10, 1), log_a2=st.floats(-10, 1),
       b1=st.floats(-3, 3), margin=st.floats(0.05, 3))
def test_critical_points_product_at_B1_is_the_residue_form(bits, log_a1, log_a2, b1, margin):
    # (w - B1)^2 (w - B2)^2 R'(w) = prod_j (w - w_j) at w = B1: the product
    # over the critical points is -A1 (B1 - B2)^2, so the mass of w* is the
    # residue (B1 - w*)/(B1 - B2)
    ctx = PrecisionContext(bits)
    with ctx.workprec():
        A1, A2 = mp.mpf(10) ** log_a1, mp.mpf(10) ** log_a2
        gap = (mp.cbrt(A1) + mp.cbrt(A2)) ** mp.mpf(1.5) * (1 + mp.mpf(margin))
        B1, B2 = mp.mpf(b1), mp.mpf(b1) + gap
        product = mp.fprod(B1 - wj for wj in _critical_points((A1, A2, B1, B2), ctx))
        assert abs(product / (-A1 * (B1 - B2) ** 2) - 1) <= ctx.solve_tolerance


@pytest.mark.parametrize("bits, log_a1, log_a2, b1", [
    (2048, -400, 0, 1),  # A1 underflows to 0.0 as a double
    (128, 400, 400, 1),  # A1 and A2 overflow to inf
    (2048, 0, -310, 1),  # A2 a subnormal double
    (192, 0, 0, 10 ** 12),  # |B_k| >> sqrt(A_k): absolute doubles cannot resolve w - B_k
])
def test_critical_points_where_doubles_cannot_seed(bits, log_a1, log_a2, b1):
    # the bracketed search, the map solve's start where doubles fail, needs
    # no doubles: where the parameters over- or underflow as doubles, or
    # absolute doubles cannot resolve w - B_k, it finds the same zeros
    ctx = PrecisionContext(bits)
    with ctx.workprec():
        A1, A2 = mp.mpf(10) ** log_a1, mp.mpf(10) ** log_a2
        gap = 2 * (mp.cbrt(A1) + mp.cbrt(A2)) ** mp.mpf(1.5)
        p = (A1, A2, mp.mpf(b1), mp.mpf(b1) + gap)
        w = _critical_points(p, ctx)
        assert w[0] < p[2] < w[1] <= w[2] < p[3] < w[3]
        scale = max(1, abs(p[2]), abs(p[3]))
        # the reference quartic is solved at unit scale: w scales as sqrt(A1 + A2)
        s = mp.sqrt(A1 + A2)
        for wj, ref in zip(w, _quartic_roots((A1 / s ** 2, A2 / s ** 2, p[2] / s, p[3] / s), bits)):
            assert abs(wj - s * ref) <= mp.mpf(2) ** (8 - bits) * scale


def _count_map_work(monkeypatch):
    """Counts of the map solve's row evaluations in doubles and at context
    precision, and of R' evaluations (the fallback's critical points)."""
    module = sys.modules["angelesco.curve"]
    counts = {"double": 0, "mpf": 0, "Rp": 0}
    real_rows, real_Rp = module._map_rows, module._Rp

    def counting_rows(targets, c=None):
        rows = real_rows(targets, c)

        def count(x):
            counts["double" if isinstance(x[0], float) else "mpf"] += 1
            return rows(x)
        return count

    def counting_Rp(w, p):
        counts["Rp"] += 1
        return real_Rp(w, p)

    monkeypatch.setattr(module, "_map_rows", counting_rows)
    monkeypatch.setattr(module, "_Rp", counting_Rp)
    return counts


def _fail_in_doubles(*args):
    raise SolveFailure("doubles cannot resolve the bracket")


def test_curve_critical_points_from_double_seeds_bound_the_work(monkeypatch):
    # one cold curve() at 192 bits, where the critical points are unknowns of
    # the map Newton: no R' evaluation when doubles succeed, and 11 row
    # evaluations in doubles and 6 at 192 bits at c = 0.04 (4 and 3 at
    # c = 0.5); where doubles fail, the critical points of the seeds take
    # 88 evaluations of R' and the rows 15 at 192 bits (44 and 6)
    module = sys.modules["angelesco.curve"]
    counts = _count_map_work(monkeypatch)
    ctx = PrecisionContext(192)
    bounds = {("0.04", False): {"double": 14, "mpf": 6, "Rp": 0},
              ("0.5", False): {"double": 5, "mpf": 3, "Rp": 0},
              ("0.04", True): {"double": 0, "mpf": 18, "Rp": 110},
              ("0.5", True): {"double": 0, "mpf": 8, "Rp": 55}}
    for (c, fallback), bound in bounds.items():
        if fallback:
            monkeypatch.setattr(module, "_double_zero", _fail_in_doubles)
        monkeypatch.setattr(module, "_FULL_MAP_CACHE", {})
        counts.update(double=0, mpf=0, Rp=0)
        curve(G0, c, ctx)
        assert all(counts[k] <= bound[k] for k in bound), (c, fallback, counts)
        assert counts["Rp"] > 0 if fallback else counts["double"] > 0


def test_chi_solve_polishes_a_double_precision_solve(monkeypatch):
    # the map Newton converges in doubles first; at 192 bits the context-
    # precision Newton evaluates its start and two quadratic steps (6 from
    # the interval seed)
    counts = _count_map_work(monkeypatch)
    chi_solve(G0.as_tuple(), PrecisionContext(192))
    assert counts["mpf"] <= 3


def test_curve_refuses_poles_below_the_bracket_floor():
    # at c = 1e-40 the pushed solve's A1 is of order c^2, so sqrt(A1)/2 is far
    # below 2^-64 and B1 +- sqrt(A1)/2 rounds to B1 at 128 bits
    with pytest.raises(SolveFailure, match="too degenerate"):
        curve(G0, "1e-40", PrecisionContext(128))


def test_full_map_solved_once_per_geometry_and_bits(monkeypatch):
    module = sys.modules["angelesco.curve"]
    bits_seen = []
    real_chi_solve = module.chi_solve

    def counting(branch_points, ctx):
        bits_seen.append(ctx.mantissa_bits)
        return real_chi_solve(branch_points, ctx)

    monkeypatch.setattr(module, "chi_solve", counting)
    monkeypatch.setattr(module, "_FULL_MAP_CACHE", {})
    g = Geometry("-2.3", "-1", "1", "1.9")
    ctx = PrecisionContext(192)
    critical_thresholds(g, ctx)
    cd4, cd6 = curve(g, "0.4", ctx), curve(g, "0.6", ctx)
    assert cd4.regime == cd6.regime == MIDDLE
    assert cd4.params() == cd6.params()
    assert bits_seen == [192]
    curve(g, "0.5", PrecisionContext(256))
    assert bits_seen == [192, 256]


def test_newton_types_only_linear_algebra_failures():
    with pytest.raises(SolveFailure):
        _newton(lambda x: ([x[0] - 1], lambda solve: solve([[0]], [1 - x[0]])), [0], CTX)
    # an entry that cannot become an mpf is a programming error, not a failed solve
    with pytest.raises(TypeError):
        _newton(lambda x: ([x[0] - 1], lambda solve: solve([[object()]], [1 - x[0]])), [0], CTX)


def test_thresholds_symmetry_and_range(thresholds):
    with CTX.workprec():
        assert abs(thresholds.c_star + thresholds.c_dstar - 1) < mp.mpf("1e-100")
        assert 0 < thresholds.c_star < mp.mpf("0.5")


def test_threshold_matches_dc_oracle_bisection(thresholds):
    # bisection on the discriminant backend: largest c with an admissible
    # node structure below the first interval's right end
    with CTX.workprec():
        lo, hi = mp.mpf("0.05"), mp.mpf("0.2")
        for _ in range(30):
            mid = (lo + hi) / 2
            try:
                dc_oracle(G0, mid, CTX)
                lo = mid
            except RegimeError:
                hi = mid
        assert abs(lo - thresholds.c_star) < mp.mpf("1e-6")


def test_curve_symmetric_middle(cd_half):
    cd = cd_half
    assert cd.regime == MIDDLE
    with CTX.workprec():
        assert abs(cd.z_c) < mp.mpf("1e-100")
        assert abs(cd.B1 + cd.B2) < mp.mpf("1e-100")
        assert abs(cd.A1 - cd.A2) < mp.mpf("1e-100")


def test_curve_small_c_limit_values(cd_small):
    cd = cd_small
    assert cd.regime == PUSHED_LEFT
    with CTX.workprec():
        ratio = (cd.beta_c1 - G0.alpha1) / (4 * cd.c)
        assert abs(ratio / mp.sqrt(12) - 1) < mp.mpf("0.05")
        assert abs(cd.A2 / mp.mpf("0.0625") - 1) < mp.mpf("0.01")
        assert abs(cd.B2 / mp.mpf("1.5") - 1) < mp.mpf("0.01")
        assert abs(cd.B1 / mp.mpf("-1.9820508") - 1) < mp.mpf("0.01")
        assert 0 < cd.A1 < mp.mpf("1e-4")


def test_curve_closed_forms_at_degenerate_c():
    cd = curve(G0, 0, CTX)
    with CTX.workprec():
        assert cd.A1 == 0
        assert cd.A2 == ((G0.beta2 - G0.alpha2) / 4) ** 2
        assert cd.B2 == (G0.beta2 + G0.alpha2) / 2
        from angelesco.szego_maps import phi_map
        assert cd.B1 == cd.B2 + phi_map(G0.alpha1, G0.alpha2, G0.beta2)
        assert cd.beta_c1 == G0.alpha1 and cd.z_c == G0.alpha1
    cd1 = curve(G0, 1, CTX)
    with CTX.workprec():
        assert cd1.A2 == 0
        assert cd1.A1 == ((G0.beta1 - G0.alpha1) / 4) ** 2
        assert abs(cd1.B2 - mp.mpf("1.9820508075688772935")) < mp.mpf("1e-15")


def test_pushed_right_mirror(thresholds):
    cd = curve(G0, "0.95", CTX)
    assert cd.regime == PUSHED_RIGHT
    cdl = curve(G0, "0.05", CTX)
    with CTX.workprec():
        assert abs(cd.alpha_c2 + cdl.beta_c1) < mp.mpf("1e-100")
        assert abs(cd.A2 - cdl.A1) < mp.mpf("1e-100")
        assert abs(cd.B1 + cdl.B2) < mp.mpf("1e-100")


def test_middle_regime_constants_are_c_independent():
    cd48 = curve(G0, "0.48", CTX)
    cd52 = curve(G0, "0.52", CTX)
    with CTX.workprec():
        for k in ("A1", "A2", "B1", "B2"):
            assert abs(getattr(cd48, k) - getattr(cd52, k)) < mp.mpf("1e-10")


def test_zc_monotone_in_c():
    zs = []
    for c in ("0.2", "0.35", "0.5", "0.65", "0.8"):
        zs.append(curve(G0, c, CTX).z_c)
    assert all(a < b for a, b in zip(zs, zs[1:]))


def test_continuity_in_c():
    base = curve(G0, "0.05", CTX)
    up = curve(G0, "0.0501", CTX)
    with CTX.workprec():
        for k in ("A1", "A2", "B1", "B2", "beta_c1"):
            assert abs(getattr(up, k) - getattr(base, k)) < mp.mpf("5e-3")


def _node_certificate(g, c, ctx):
    """The discriminant cubic at the oracle's d, factored at twice the bits.

    Returns (beta, node, split, third): the two roots nearest each other are
    the node and their gap `split`; `third` is the remaining root."""
    d, beta = dc_oracle(g, c, ctx)
    with ctx.workprec():
        c = mp.mpf(c)
    with mp.workprec(2 * ctx.mantissa_bits):
        a1, a2, b2 = g.alpha1, g.alpha2, g.beta2
        K3, sig = 4 * (1 - c + c * c) ** 3, 27 * (c - c * c) ** 2
        coeffs = [K3 - sig, -3 * K3 * d + sig * (a1 + a2 + b2),
                  3 * K3 * d * d - sig * (a1 * a2 + a1 * b2 + a2 * b2),
                  -K3 * d ** 3 + sig * a1 * a2 * b2]
        roots = mp.polyroots(coeffs, maxsteps=400, extraprec=2 * ctx.mantissa_bits)
        i, j = min(((i, j) for i in range(3) for j in range(i)),
                   key=lambda ij: abs(roots[ij[0]] - roots[ij[1]]))
        third = roots[3 - i - j]
        return beta, (roots[i] + roots[j]) / 2, abs(roots[i] - roots[j]), third


def test_dc_oracle_bracket_and_certificate():
    c = mp.mpf("0.05")
    d, beta = dc_oracle(G0, c, CTX)
    with CTX.workprec():
        # coarse endpoint bracket
        lo = 4 * c / (1 - c) * (G0.alpha2 - G0.beta1)
        hi = 4 * c / (1 - c) * (G0.beta2 - G0.alpha1)
        assert lo < beta - G0.alpha1 < hi
        assert G0.alpha1 < d < beta < G0.beta1
    # the node itself: two roots of the cubic agree to the square-root floor
    # and the third is beta; above c = 1/2 the node lies right of beta2
    ctx192 = PrecisionContext(192)
    with ctx192.workprec():
        marginal = Geometry("-100", "-1", "1", "1.01")
    for g, c, ctx in ((G0, "0.05", CTX), (marginal, "0.6", ctx192)):
        beta, node, split, third = _node_certificate(g, c, ctx)
        bits = ctx.mantissa_bits
        with ctx.workprec():
            assert split <= mp.mpf(2) ** (8 - bits // 2) * max(1, abs(node))
            assert abs(third - beta) <= mp.mpf(2) ** (8 - bits) * max(1, abs(beta))
            assert mp.re(node) < g.alpha1 if mp.mpf(c) < 0.5 else mp.re(node) > g.beta2


def test_dc_oracle_small_c_rate_monotone():
    with CTX.workprec():
        errs = []
        for c in ("1e-2", "1e-3", "1e-4"):
            _, beta = dc_oracle(G0, c, CTX)
            ratio = (beta - G0.alpha1) / (4 * mp.mpf(c))
            errs.append(abs(ratio - mp.sqrt(12)))
        assert errs[0] > errs[1] > errs[2]


def test_dc_oracle_regime_error_beyond_threshold(thresholds):
    with pytest.raises(RegimeError):
        dc_oracle(G0, thresholds.c_star + mp.mpf("0.01"), CTX)


def test_cross_backend_endpoint_agreement(thresholds):
    for c in ("0.02", "0.05"):
        cd = curve(G0, c, CTX)
        _, beta = dc_oracle(G0, c, CTX)
        with CTX.workprec():
            assert abs(cd.beta_c1 - beta) < mp.mpf(10) ** (-(CTX.mantissa_bits // 4))


def test_chi_eval_asymptotics(cd_half):
    cd = cd_half
    with CTX.workprec():
        z = mp.mpf(10) ** 8
        ch = chi_eval(cd, z, CTX)
        assert abs(ch[0] - z) < (cd.A1 + cd.A2) / z * 2 + mp.mpf("1e-6")
        assert abs(ch[1] - cd.B1 - cd.A1 / z) < mp.mpf(10) ** -14
        assert abs(ch[2] - cd.B2 - cd.A2 / z) < mp.mpf(10) ** -14
        # antisymmetry pins the middle sheet-0 value at the origin
        assert abs(chi_eval(cd, mp.mpf(0), CTX)[0]) < mp.mpf("1e-100")


def test_h_branch_divisor_and_masses(cd_half):
    cd = cd_half
    with CTX.workprec():
        zz = mp.mpc("0.4", "0.9")
        hs = [h_branch(cd, zz, k, CTX) for k in (0, 1, 2)]
        assert abs(hs[0] + hs[1] + hs[2]) < mp.mpf("1e-100")
        z = mp.mpf(10) ** 6
        assert abs(z * h_branch(cd, z, 1, CTX) + cd.c) < mp.mpf("1e-4")
        assert abs(z * h_branch(cd, z, 2, CTX) + (1 - cd.c)) < mp.mpf("1e-4")
        assert abs(h_branch(cd, cd.z_c, 0, CTX)) < mp.mpf("1e-100")


@pytest.mark.parametrize("bits", [128, 512])
@pytest.mark.parametrize("c, sheet, edges", [(0, 1, (1, 2)), (1, 2, (-2, -1))])
def test_h_branch_collapsed_sheet_is_zero(bits, c, sheet, edges):
    ctx = PrecisionContext(bits)
    cd = curve(G0, c, ctx)
    for x in ("-1.5", "0.5", "1.5", "5"):
        assert h_branch(cd, mp.mpf(x), sheet, ctx) == 0
    # the live sheet keeps its hard edges
    live = 3 - sheet
    for x in edges:
        with pytest.raises(DomainError):
            h_branch(cd, mp.mpf(x), live, ctx)


@pytest.mark.parametrize("bits", [128, 512])
@pytest.mark.parametrize("c, live, xs, sign", [(0, 2, ("-2", "-1.5", "-1.2"), -1),
                                               (1, 1, ("2", "1.5", "1.2"), 1)])
def test_h_branch_triple_point(bits, c, live, xs, sign):
    # at c = 0 both ramification points and w* meet B1, so two divisor zeros
    # cancel; sheet 0 is finite at the outer edge and mirrors the live sheet
    ctx = PrecisionContext(bits)
    cd = curve(G0, c, ctx)
    with ctx.workprec():
        for x in xs:
            h0 = h_branch(cd, mp.mpf(x), 0, ctx)
            assert abs(h0 + h_branch(cd, mp.mpf(x), live, ctx)) < mp.ldexp(1, 16 - bits)
        assert abs(h_branch(cd, mp.mpf(xs[0]), 0, ctx) - sign * mp.mpf("0.28868")) < mp.mpf("1e-5")


def test_h_mass_residue_for_pushed(cd_small):
    with CTX.workprec():
        z = mp.mpf(10) ** 8
        assert abs(z * h_branch(cd_small, z, 1, CTX) + cd_small.c) < mp.mpf("1e-8")


def test_upsilon_properties(cd_half):
    cd = cd_half
    with CTX.workprec():
        zz = mp.mpc("0.4", "0.9")
        prod = mp.mpf(1)
        for k in (0, 1, 2):
            prod *= upsilon(cd, 1, zz, k, CTX)
        assert abs(prod - cd.A1 ** 2 / (cd.B2 - cd.B1)) < mp.mpf("1e-50")
        z = mp.mpf(10) ** 8
        assert abs(upsilon(cd, 1, z, 1, CTX) - z) < abs(cd.B1) + abs(cd.B2) + 1
        assert abs(upsilon(cd, 1, z, 0, CTX) - cd.A1 / z) < mp.mpf(10) ** -14
        u = upsilon(cd, 2, zz, 0, CTX)
        ubar = upsilon(cd, 2, mp.conj(zz), 0, CTX)
        assert abs(u - mp.conj(ubar)) < mp.mpf("1e-90")


def test_equilibrium_masses_and_flatness():
    cd = curve(G0, "0.3", CTX)
    eq = equilibrium(cd, CTX)
    with CTX.workprec():
        assert abs(eq.masses[0] - mp.mpf("0.3")) < mp.mpf("1e-8")
        assert abs(eq.masses[1] - mp.mpf("0.7")) < mp.mpf("1e-8")
        sup = cd.supports()
        pts = [sup[0][0] + (sup[0][1] - sup[0][0]) * mp.mpf(q)
               for q in ("0.2", "0.35", "0.5", "0.65", "0.8")]
        vals = [eq.potential(x, 2, 1) for x in pts]
        assert max(vals) - min(vals) < mp.mpf("1e-6")


def test_equilibrium_single_interval_limit():
    # as the first support collapses, the second constant approaches 2 log 4
    cd = curve(G0, "0.001", CTX)
    eq = equilibrium(cd, CTX)
    with CTX.workprec():
        assert abs(eq.ell2 - 2 * mp.log(4)) < mp.mpf("0.05")


def test_energy_oracle_pushed_and_middle():
    res = energy_oracle(G0, 0.1, n_particles=400, iterations=1500)
    cd = curve(G0, "0.1", CTX)
    assert abs(res["beta_c1"] - float(cd.beta_c1)) < 0.02
    assert abs(res["alpha_c2"] - float(cd.alpha_c2)) < 0.02
    tr = res["energy_trace"]
    assert all(b < a for a, b in zip(tr, tr[1:]))
    res5 = energy_oracle(G0, 0.5, n_particles=200, iterations=800)
    assert abs(res5["beta_c1"] - float(G0.beta1)) < 0.02
    assert abs(res5["alpha_c2"] - float(G0.alpha2)) < 0.02


def test_curve_json_export(cd_half, thresholds):
    import json

    doc = json.loads(curve_to_json(cd_half, thresholds))
    assert doc["regime"] == "middle"
    assert set(doc) == {"c", "geometry", "regime", "c_star", "c_dstar", "beta_c1",
                        "alpha_c2", "A1", "A2", "B1", "B2", "z_c", "residual"}
    assert isinstance(doc["A1"], str)


def test_curve_json_identical_across_solves():
    # the direct solve and the solve on the mirrored geometry are two solves
    # of one curve: equal constants, residuals that differ in rounding noise
    for bits in (192, 256):
        ctx = PrecisionContext(bits)
        for geo in (("-2.3", "-1", "1", "1.9"), ("-2.25", "-1", "1", "1.85")):
            g = Geometry(*geo)
            th = critical_thresholds(g, ctx)
            cd = curve(g, "0.4", ctx)
            with ctx.workprec():
                mirrored = _mirror_curve(curve(g.mirrored(), 1 - cd.c, ctx), g)
            assert curve_to_json(cd, th) == curve_to_json(mirrored, th)


# ---------------------------------------------------------------------------
# Oracle for chi_eval: a context-precision continuation on mp.polyroots
# ---------------------------------------------------------------------------

def _oracle_roots(cd, z, bits):
    """The three preimages of z under R, by mp.polyroots at twice the bits.

    The extra precision grows with 2 log2 of the largest coefficient, the
    spread between the root near a large z and the two near the poles: with
    extraprec = bits alone, polyroots raised NoConvergence at z = 1e300 + i
    and 192 bits for maps whose A_k, B_k differ in their last bits.
    """
    A1, A2, B1, B2 = cd.params()
    with mp.workprec(2 * bits):
        coeffs = [1, -(B1 + B2 + z), B1 * B2 + z * (B1 + B2) + A1 + A2,
                  -z * B1 * B2 - A1 * B2 - A2 * B1]
        extra = bits + 2 * max(0, mp.mag(max(abs(v) for v in coeffs)))
        return mp.polyroots(coeffs, maxsteps=200, extraprec=extra)


def _oracle_match(prev, roots):
    """roots reordered to follow prev, or None if a root moved 0.4 of prev's separation."""
    best = min(itertools.permutations(range(3)),
               key=lambda perm: max(abs(roots[perm[k]] - prev[k]) for k in range(3)))
    cost = max(abs(roots[best[k]] - prev[k]) for k in range(3))
    sep = min(abs(prev[i] - prev[j]) for i in range(3) for j in range(i))
    if sep > 0 and cost > 0.4 * sep:
        return None
    return [roots[best[k]] for k in range(3)]


def _oracle_cut(cd, x):
    """1 or 2 for real x on the first or second support, 0 off them."""
    (a1, b1), (a2, b2) = cd.supports()
    return 1 if a1 <= x <= b1 else 2 if a2 <= x <= b2 else 0


def _oracle_windows(cd, roots):
    """Labels of three real roots: chi^(1) in [w1, w2], chi^(2) in [w3, w4], chi^(0) outside."""
    w1, w2, w3, w4 = cd.w_crit
    labels = {}
    for x in (mp.re(r) for r in roots):
        k = 1 if w1 <= x <= w2 else 2 if w3 <= x <= w4 else 0
        assert k not in labels, "two real roots in one critical-point window"
        labels[k] = x
    return labels


def _oracle_chi(cd, z, ctx, side=+1):
    """Sheet labels by a route apart from chi_eval's.

    The roots come from _oracle_roots, apart from the program's root solver.

    Real z: the critical-point windows off the cuts; on a cut the pair is
    split by `side`. Complex z (either half-plane, no conjugation): every
    step of the continuation from the real anchor solves the cubic afresh and
    accepts the step when no root moved more than 0.4 of the separation.
    """
    with ctx.workprec():
        z = mp.mpc(z)
        if z.imag == 0:
            roots = _oracle_roots(cd, z.real, ctx.mantissa_bits)
            cut = _oracle_cut(cd, z.real)
            if cut == 0:
                return _oracle_windows(cd, roots)
            lower, real, upper = sorted(roots, key=lambda r: r.imag)
            return {0: upper if side >= 0 else lower, cut: lower if side >= 0 else upper,
                    3 - cut: real.real}
        g = cd.geometry
        span = g.beta2 - g.alpha1
        anchor = g.beta2 + 1 + span
        height = z.imag if abs(z.imag) > span / 2 else mp.sign(z.imag) * span / 2
        waypoints = [mp.mpc(anchor), mp.mpc(anchor, height), mp.mpc(z.real, height), z]
        labels = _oracle_chi(cd, anchor, ctx)
        current = [labels[0], labels[1], labels[2]]
        for a, b in zip(waypoints, waypoints[1:]):
            t, t_step = mp.mpf(0), mp.mpf(1)
            while t < 1:
                t_try = min(mp.mpf(1), t + t_step)
                match = _oracle_match(current, _oracle_roots(cd, a + (b - a) * t_try,
                                                             ctx.mantissa_bits))
                if match is None:
                    t_step /= 2
                    if t_step < mp.mpf(2) ** (-60):
                        raise ClassificationError("oracle continuation stalled")
                    continue
                current, t = match, t_try
                t_step = min(t_step * 2, 1 - t) if t < 1 else t_step
        return {0: current[0], 1: current[1], 2: current[2]}


_REGIME_FRACTION = {
    PUSHED_LEFT: lambda th, u: u * th.c_star,
    MIDDLE: lambda th, u: th.c_star + u * (th.c_dstar - th.c_star),
    PUSHED_RIGHT: lambda th, u: th.c_dstar + u * (1 - th.c_dstar),
}


def _assert_labels_agree(ch, ref, bits):
    for k in (0, 1, 2):
        assert abs(ch[k] - ref[k]) <= mp.mpf(2) ** (16 - bits) * (1 + abs(ref[k]))


@settings(max_examples=24, deadline=None)
@given(bits=st.sampled_from([128, 192, 256]),
       l1=st.integers(60, 160), l2=st.integers(60, 160),
       regime=st.sampled_from([PUSHED_LEFT, MIDDLE, PUSHED_RIGHT]),
       u=st.floats(0.15, 0.85),
       re=st.floats(-4, 4), log_im=st.floats(-3, 0.477), lower=st.booleans(),
       where=st.sampled_from(["cut1", "cut2", "gap", "left", "right"]),
       v=st.floats(0.02, 0.98))
def test_chi_eval_matches_oracle(bits, l1, l2, regime, u, re, log_im, lower, where, v):
    ctx = PrecisionContext(bits)
    with ctx.workprec():
        g = Geometry(-1 - mp.mpf(l1) / 100, -1, 1, 1 + mp.mpf(l2) / 100)
    th = critical_thresholds(g, ctx)
    with ctx.workprec():
        cd = curve(g, _REGIME_FRACTION[regime](th, mp.mpf(u)), ctx, with_dc=False)
        z = mp.mpc(re, (-1 if lower else 1) * mp.mpf(10) ** log_im)
        ch = chi_eval(cd, z, ctx)
        _assert_labels_agree(ch, _oracle_chi(cd, z, ctx), bits)
        for k in (0, 1, 2):
            assert abs(_R(ch[k], cd.params()) - z) <= mp.mpf(2) ** (24 - bits) * (1 + abs(z))
        assert ch[0].imag * z.imag > 0
        chc = chi_eval(cd, mp.conj(z), ctx)
        assert all(chc[k] == mp.conj(ch[k]) for k in (0, 1, 2))
        # a real point inside a cut, in the gap, or outside the supports
        (a1, b1), (a2, b2) = cd.supports()
        x = {"cut1": a1 + v * (b1 - a1), "cut2": a2 + v * (b2 - a2),
             "gap": b1 + v * (a2 - b1), "left": a1 - 3 * v, "right": b2 + 3 * v}[where]
        chx = chi_eval(cd, x, ctx)
        _assert_labels_agree(chx, _oracle_chi(cd, x, ctx), bits)
        for k in (0, 1, 2):
            assert abs(_R(chx[k], cd.params()) - x) <= mp.mpf(2) ** (24 - bits) * (1 + abs(x))
        if where.startswith("cut"):
            assert chx[0].imag > 0


def test_chi_eval_domain_near_branch_point():
    # the pair above beta_{c,1} is 1e-8 apart at Im z = 1e-16, and 1e-12 apart at
    # 1e-24: both above the square-root rounding floor 2^(4 - 128/2) ~ 1e-18
    ctx = PrecisionContext(128)
    cd = curve(G0, "0.05", ctx, with_dc=False)
    with ctx.workprec():
        beta = cd.beta_c1
        for z in (mp.mpc(beta, "1e-16"), mp.mpc(beta + mp.mpf("1e-25"), "1e-16")):
            ch, ref = chi_eval(cd, z, ctx), _oracle_chi(cd, z, ctx)
            sep = min(abs(ref[i] - ref[j]) for i in range(3) for j in range(i))
            for k in (0, 1, 2):
                # same labels: each value is the oracle's for its sheet, far
                # inside the pair's separation (root error ~ eps / sep)
                assert abs(ch[k] - ref[k]) <= mp.mpf(2) ** (16 - 128) / sep
        # the pair sits at w2 +- sqrt(2i 1e-24 / R''(w2)), 0.4 sqrt(1e-24) from the
        # merged value at beta, with sheet 0 above the real axis and sheet 1 below
        merged, ch = chi_eval(cd, beta, ctx), chi_eval(cd, mp.mpc(beta, "1e-24"), ctx)
        for k in (0, 1, 2):
            assert abs(ch[k] - merged[k]) <= mp.sqrt(mp.mpf("1e-24"))
        assert ch[0].imag > 0 > ch[1].imag
        # at Im z = 1e-80 the pair (1e-40 apart) is below the floor
        with pytest.raises(ClassificationError):
            chi_eval(cd, mp.mpc(beta, "1e-80"), ctx)


def test_chi_eval_at_large_z():
    # mp.polyroots' fallback with extraprec = bits/2 raised mpmath's
    # NoConvergence at these points at 128 bits; with the extra precision
    # sized by the coefficients it converges. Off the axis each pair of roots
    # is held to its own rounding floor, so the root near z does not make the
    # pair near the intervals unresolvable (a ClassificationError at 128 bits
    # while the floor was scaled by the largest root)
    points = (mp.mpf("1e20"), mp.mpc("1e20", "1"), mp.mpc(0, "1e20"), mp.mpc("1e19", "1"),
              mp.mpc("1e300", "1"), mp.mpc("-1e30", "1e-5"))
    for bits in (128, 192):
        ctx = PrecisionContext(bits)
        cd = curve(G0, "0.3", ctx, with_dc=False)
        with ctx.workprec():
            for z in points:
                ch, ref = chi_eval(cd, z, ctx), _oracle_roots(cd, z, 2 * bits)
                assert abs(ch[0] - z) <= 10
                assert max(abs(ch[1] - cd.B1), abs(ch[2] - cd.B2)) <= mp.mpf("1e-10")
                # two roots sit 1e-20 from the poles B1, B2, where R is too
                # steep for its residual to show their error, so each is held
                # against its own root of the oracle
                for k in (0, 1, 2):
                    assert min(abs(ch[k] - r) / max(1, abs(r)) for r in ref) <= mp.mpf(2) ** (8 - bits)


def test_chi_eval_at_branch_points_square_root_limited():
    ctx = PrecisionContext(192)
    for c in ("0.05", "0.5"):
        cd = curve(G0, c, ctx, with_dc=False)
        for x in (cd.beta_c1, cd.alpha_c2):
            ch = chi_eval(cd, x, ctx)
            with ctx.workprec():
                ref = _oracle_roots(cd, x, 2 * ctx.mantissa_bits)
                for k in (0, 1, 2):
                    err = min(abs(ch[k] - r) for r in ref)
                    assert err <= mp.mpf(2) ** (2 - ctx.mantissa_bits // 2) * (1 + abs(ch[k]))


def test_sheet_classification_random_sweep():
    import numpy as np

    ctx = PrecisionContext(256)
    rng = np.random.RandomState(42)
    from angelesco.curve import _R
    for c in ("0.05", "0.5", "0.95"):
        cd = curve(G0, c, ctx, with_dc=False)
        with ctx.workprec():
            for _ in range(12):
                z = mp.mpc(rng.uniform(-4, 4), rng.uniform(0.05, 3) * rng.choice([-1, 1]))
                ch = chi_eval(cd, z, ctx)
                for k in (0, 1, 2):
                    # each labeled value solves the defining equation
                    assert abs(_R(ch[k], cd.params()) - z) < mp.mpf("1e-60")
                chc = chi_eval(cd, mp.conj(z), ctx)
                assert all(abs(ch[k] - mp.conj(chc[k])) == 0 for k in (0, 1, 2))
                if z.imag > 0:
                    assert ch[0].imag > 0
            # just above the real axis off the cuts, each label is the one at
            # real z, where chi^(1) and chi^(2) are the roots in the windows
            # [w1, w2] and [w3, w4]
            for x in np.random.RandomState(7).uniform(-4, 4, size=12):
                if _oracle_cut(cd, mp.mpf(x)):
                    continue
                real, above = chi_eval(cd, x, ctx), chi_eval(cd, mp.mpc(x, "1e-20"), ctx)
                assert _oracle_windows(cd, real.values()) == real
                for k in (0, 1, 2):
                    assert abs(above[k] - real[k]) < mp.mpf("1e-15")
            # on a cut, real z gives the limit from Im z = 1e-20, label by label
            for a, b in cd.supports():
                for v in np.random.RandomState(11).uniform(0.01, 0.99, size=6):
                    x = a + mp.mpf(v) * (b - a)
                    on = chi_eval(cd, x, ctx)
                    off = chi_eval(cd, x + mp.mpc(0, "1e-20"), ctx)
                    for k in (0, 1, 2):
                        assert abs(on[k] - off[k]) < mp.mpf("1e-15")
                    assert on[0].imag > 0


def _from_side(labels, side):
    """The labels on a cut as limits from above (side = 1) or below (side = -1)."""
    return labels if side > 0 else {k: mp.conj(w) for k, w in labels.items()}


def test_chi_eval_through_the_polyroots_fallback(monkeypatch):
    # seeds at 1e6 leave the polish far from every root, so the roots come
    # from mp.polyroots, here with the rounding noise it may leave: an
    # imaginary part on a real root and a pair one unit off conjugate. Real
    # roots still come out real and a pair exactly conjugate, so the labels
    # on the cuts and off them are those of the polished route
    ctx = PrecisionContext(128)
    cd = curve(G0, "0.3", ctx, with_dc=False)
    module = sys.modules["angelesco.curve"]
    points = [(mp.mpf("-1.5"), 1), (mp.mpf("1.25"), 2), (mp.mpf(0), 0), (mp.mpf(3), 0)]
    ref = {(x, s): _from_side(chi_eval(cd, x, ctx), s) for x, _ in points for s in (1, -1)}
    calls = []
    polyroots = mp.polyroots

    def noisy(*args, **kwargs):
        calls.append(args)
        w, u, v = sorted(polyroots(*args, **kwargs), key=lambda r: abs(mp.im(r)))
        return [mp.mpc(w, "1e-45"), u, v * (1 + mp.eps)]

    monkeypatch.setattr(module, "_double_roots", lambda *coeffs: [complex(1e6)] * 3)
    monkeypatch.setattr(module.mp, "polyroots", noisy)
    for x, cut in points:
        for s in (1, -1):
            ch = _from_side(chi_eval(cd, x, ctx), s)
            with ctx.workprec():
                _assert_labels_agree(ch, ref[x, s], 128)
                if cut:
                    assert ch[0] == mp.conj(ch[cut]) and s * ch[0].imag > 0
                    assert isinstance(ch[3 - cut], mp.mpf)
                else:
                    assert all(isinstance(ch[k], mp.mpf) for k in (0, 1, 2))
    assert len(calls) == 8


def _numpy_roots(c2, c1, c0):
    """Roots of w^3 + c2 w^2 + c1 w + c0 in complex doubles by np.roots, not the closed form."""
    import numpy as np

    return [complex(r) for r in np.roots([1.0, c2, c1, c0])]


def test_closed_form_roots_are_finite_and_real_where_the_cubic_is():
    # real coefficients: three real roots, or one and an exact conjugate pair;
    # no overflow at |z| = 1e300
    for coeffs in [(-6.0, 11.0, -6.0), (0.0, 1.0, 0.0), (-3.0, 3.0, -1.0),
                   (-1e300, 1e300, -1e300), (1e300, 0.0, 0.0)]:
        roots = _double_roots(*coeffs)
        assert all(cmath.isfinite(r) for r in roots)
        real = [r for r in roots if r.imag == 0]
        assert len(real) in (1, 3)
        if len(real) == 1:
            u, v = (r for r in roots if r.imag)
            assert u == v.conjugate()
    assert sorted(r.real for r in _double_roots(-6.0, 11.0, -6.0)) == pytest.approx([1, 2, 3])


@pytest.mark.parametrize("c", ["0", "0.03", "1"])
def test_chi_eval_labels_do_not_depend_on_the_seed_route(monkeypatch, c):
    # the double-precision seeds only pick the root that is polished, so seeds
    # from np.roots give the closed form's sheet labels, value types and
    # exceptions, with roots within 4 units of 2^-bits (1 + |w|) (up to each
    # root's conditioning, 1/distance to the nearest other root): on and between
    # the supports, outside them, at and just above each branch point, for
    # Im z from 1e-12 to 2, and at |z| from 1e7 to 1e20 through mp.polyroots
    bits = 128
    ctx = PrecisionContext(bits)
    cd = curve(G0, c, ctx, with_dc=False)
    module = importlib.import_module("angelesco.curve")
    with ctx.workprec():
        (a1, b1), (a2, b2) = cd.supports()
        real = [a + (b - a) * q for a, b in ((a1, b1), (a2, b2)) for q in (0.1, 0.5, 0.9)]
        real += [(b1 + a2) / 2, a1 - 1, b2 + 1]
        branch = [a1, b1, a2, b2]
        zs = real + branch + [mp.mpc(x, y) for x in real + branch
                              for y in ("1e-12", "1e-6", "1e-3", "0.5", "2")]
        zs += [mp.mpf(x) for x in ("1e7", "-1e10", "1e20")]
        zs += [mp.mpc("1e7", 1), mp.mpc("-1e20", "1e15")]

    def labels(z):
        try:
            return chi_eval(cd, z, ctx)
        except AngelescoError as exc:
            return type(exc)

    production = [labels(z) for z in zs]
    monkeypatch.setattr(module, "_double_roots", _numpy_roots)
    for z, ref in zip(zs, production):
        ch = labels(z)
        if not isinstance(ref, dict):
            assert ch is ref
            continue
        with ctx.workprec():
            for k in (0, 1, 2):
                assert type(ch[k]) is type(ref[k])
                near = min(abs(ref[k] - ref[j]) for j in (0, 1, 2) if j != k)
                tol = mp.mpf(2) ** (2 - bits) * (1 + abs(ref[k])) / min(1, near or 1)
                assert abs(ch[k] - ref[k]) <= tol, (z, k)


def test_pushed_soft_edge_density_vanishes():
    ctx = PrecisionContext(256)
    cd = curve(G0, "0.03", ctx)
    with ctx.workprec():
        a, b = cd.supports()[0]
        vals = []
        for d in ("1e-2", "1e-4", "1e-6"):
            x = b - mp.mpf(d) * (b - a)
            vals.append(h_branch(cd, x, 1, ctx).imag / mp.pi)
        assert all(v > 0 for v in vals)
        # square-root vanishing: each factor-100 step scales by about 10
        assert abs(vals[0] / vals[1] / 10 - 1) < mp.mpf("0.05")
        assert abs(vals[1] / vals[2] / 10 - 1) < mp.mpf("0.01")


def test_asymmetric_geometry_regimes():
    g = Geometry("-2.5", "-1.2", "0.5", "1.4")
    th = critical_thresholds(g, CTX)
    with CTX.workprec():
        assert 0 < th.c_star < th.c_dstar < 1
    cd = curve(g, th.c_star / 2, CTX)
    assert cd.regime == PUSHED_LEFT
    with CTX.workprec():
        assert g.alpha1 < cd.beta_c1 < g.beta1
    _, beta = dc_oracle(g, th.c_star / 2, CTX)
    with CTX.workprec():
        assert abs(beta - cd.beta_c1) < mp.mpf(10) ** (-(CTX.mantissa_bits // 4))


# ---------------------------------------------------------------------------
# Map Newton seeded by a double-precision solve; mirror symmetry
# ---------------------------------------------------------------------------

NAMED_GEOMETRIES = [("-2", "-1", "1", "2"), ("-2.3", "-1", "1", "1.9"), ("-1.1", "-1", "1", "5"),
                    ("-3", "-2.9", "-2.8", "4"), ("-1.01", "-1", "1", "100"),
                    ("-100", "-1", "1", "1.01")]


def _random_geometry(log_l1, log_l2, log_gap, shift):
    a2 = -1 + 10 ** log_gap
    return tuple(f"{v + shift:.4f}" for v in (-1 - 10 ** log_l1, -1, a2, a2 + 10 ** log_l2))


GEOMETRIES = st.one_of(
    st.sampled_from(NAMED_GEOMETRIES + [("999998", "999999", "1000001", "1000002"),
                                        ("-1.01", "-1", "-0.9684", "-0.9584")]),
    st.builds(_random_geometry, st.floats(-2, 2), st.floats(-2, 2), st.floats(-1.5, 0.7),
              st.sampled_from([0, 1000, -1000000])))


def _c_in_regime(g, ctx, regime, frac):
    """c = frac c* left of c*, c* + frac (c** - c*) between, 1 - frac (1 - c**) right of c**."""
    th = critical_thresholds(g, ctx)
    with ctx.workprec():
        frac = mp.mpf(frac)
        return {PUSHED_LEFT: th.c_star * frac,
                MIDDLE: th.c_star + frac * (th.c_dstar - th.c_star),
                PUSHED_RIGHT: 1 - frac * (1 - th.c_dstar)}[regime]


def _curve_outcome(g, c, ctx):
    """The curve's values, or the type and message of its refusal."""
    try:
        cd = curve(g, c, ctx, with_dc=False)
    except AngelescoError as exc:
        return type(exc), str(exc)
    return cd.regime, cd.params() + (cd.beta_c1, cd.alpha_c2, cd.z_c) + cd.w_crit


def _without_double_seed(g, c, ctx):
    # doubles fail at the start, so the map Newton starts at context
    # precision from the seed and its bracketed critical points
    module = sys.modules["angelesco.curve"]
    with pytest.MonkeyPatch.context() as mpatch:
        mpatch.setattr(module, "_double_zero", _fail_in_doubles)
        mpatch.setattr(module, "_FULL_MAP_CACHE", {})
        return _curve_outcome(g, c, ctx)


@settings(max_examples=30, deadline=None)
@given(bits=st.sampled_from([128, 192, 512]), geo=GEOMETRIES,
       regime=st.sampled_from([PUSHED_LEFT, MIDDLE, PUSHED_RIGHT]),
       frac=st.sampled_from(["1e-12", "1e-6", "0.01", "0.3", "0.5", "0.9"]))
def test_double_seed_leaves_the_map_solves_unchanged(bits, geo, regime, frac):
    # the context-precision Newton is the certificate: from the double solve,
    # or from the seed's bracketed critical points where doubles fail, it
    # reaches the same solution, or the same refusal.
    # Values are held to the endpoints' scale too, the scale of the solve's
    # residual: on a geometry translated by 1e6, A1 from the old start sits
    # 3 units of 2^(20 - bits) off a 512-bit solve and A1 from the seed 0.004
    g, ctx = Geometry(*geo), PrecisionContext(bits)
    c = _c_in_regime(g, ctx, regime, frac)
    seeded, unseeded = _curve_outcome(g, c, ctx), _without_double_seed(g, c, ctx)
    assert seeded[0] == unseeded[0]
    if isinstance(seeded[1], str):
        assert seeded == unseeded
        return
    _assert_same_solution(g, seeded, unseeded, bits)


def _assert_same_solution(g, seeded, unseeded, bits):
    with mp.workprec(bits):
        scale = max(abs(v) for v in g.as_tuple())
        for u, v in zip(seeded[1], unseeded[1]):
            assert abs(u - v) <= mp.ldexp(max(1, abs(v), scale), 20 - bits)


@pytest.mark.parametrize("bits", [128, 192, 512])
def test_double_seed_and_bracketed_start_both_solve_a_wide_pushed_case(bits):
    # a map Newton without the corrector stalled here at residual 0.17 on both
    # paths, a shared refusal that the property test above accepts
    g, ctx = Geometry("-959.3116", "-1", "-0.6109", "431.0001"), PrecisionContext(bits)
    c = _c_in_regime(g, ctx, PUSHED_LEFT, "0.8")
    seeded, unseeded = _curve_outcome(g, c, ctx), _without_double_seed(g, c, ctx)
    assert seeded[0] == unseeded[0] == PUSHED_LEFT
    _assert_same_solution(g, seeded, unseeded, bits)


def test_double_seed_keeps_the_bracket_floor_refusal():
    ctx = PrecisionContext(128)
    for outcome in (_curve_outcome(G0, "1e-40", ctx), _without_double_seed(G0, "1e-40", ctx)):
        assert outcome[0] is SolveFailure and "too degenerate" in outcome[1]


@settings(max_examples=30, deadline=None)
@given(bits=st.sampled_from([128, 192, 512]), geo=GEOMETRIES,
       regime=st.sampled_from([PUSHED_LEFT, MIDDLE, PUSHED_RIGHT]),
       frac=st.sampled_from(["1e-12", "1e-6", "0.01", "0.3", "0.5", "0.9"]))
def test_map_solve_critical_points_match_the_bracketed_search(bits, geo, regime, frac):
    # the critical points are unknowns of the map Newton; the bracketed
    # find_root on R' at the returned parameters is the independent route
    g, ctx = Geometry(*geo), PrecisionContext(bits)
    c = _c_in_regime(g, ctx, regime, frac)
    try:
        cd = curve(g, c, ctx, with_dc=False)
    except AngelescoError:
        return
    with ctx.workprec():
        w, B1, B2 = cd.w_crit, cd.B1, cd.B2
        assert w[0] < B1 < w[1] < w[2] < B2 < w[3]
        floor = mp.ldexp(max(1, abs(B1), abs(B2)), 8 - bits)
        for wj, ref in zip(w, _critical_points(cd.params(), ctx)):
            assert abs(wj - ref) <= floor


@settings(max_examples=20, deadline=None)
@given(bits=st.sampled_from([128, 192, 512]), geo=GEOMETRIES,
       regime=st.sampled_from([PUSHED_LEFT, MIDDLE, PUSHED_RIGHT]),
       frac=st.sampled_from(["1e-6", "0.01", "0.3", "0.5", "0.9"]))
def test_curve_is_the_mirror_of_the_mirrored_geometry(bits, geo, regime, frac):
    # each side from a cold cache, so both full maps are solved; then the
    # geometry's map again, served from the cached map of its mirror image
    module = sys.modules["angelesco.curve"]
    g, ctx = Geometry(*geo), PrecisionContext(bits)
    c = _c_in_regime(g, ctx, regime, frac)
    with pytest.MonkeyPatch.context() as mpatch:
        mpatch.setattr(module, "_FULL_MAP_CACHE", {})
        direct = curve(g, c, ctx, with_dc=False)
        mpatch.setattr(module, "_FULL_MAP_CACHE", {})
        with ctx.workprec():
            mirrored = _mirror_curve(curve(g.mirrored(), 1 - c, ctx, with_dc=False), g)
        served = curve(g, c, ctx, with_dc=False)
    fields = ("A1", "A2", "B1", "B2", "beta_c1", "alpha_c2", "z_c", "w_star")
    with ctx.workprec():
        for other in (mirrored, served):
            assert other.regime == direct.regime == regime
            for u, v in zip([getattr(direct, f) for f in fields] + list(direct.w_crit),
                            [getattr(other, f) for f in fields] + list(other.w_crit)):
                assert abs(u - v) <= ctx.solve_tolerance * max(1, abs(u))


# ---------------------------------------------------------------------------
# Sheet evaluation on fixed-point integers against the same cubic at 4x bits
# ---------------------------------------------------------------------------

def _sheet_point(cd, where, v, log_im, lower):
    """A real point on a cut, in the gap or outside; a complex point above it; or a large z."""
    (a1, b1), (a2, b2) = cd.supports()
    if where == "large":
        return mp.mpc(mp.mpf(10) ** log_im, 0) * mp.expjpi(2 * v - 1)
    x = {"cut1": a1 + v * (b1 - a1), "cut2": a2 + v * (b2 - a2), "gap": b1 + v * (a2 - b1),
         "left": a1 - 3 * v * (b2 - a1), "right": b2 + 3 * v * (b2 - a1)}[where]
    if log_im is None:
        return x
    return mp.mpc(x, (-1 if lower else 1) * mp.mpf(10) ** log_im)


def _labels_or_error(cd, z, ctx):
    try:
        return chi_eval(cd, z, ctx)
    except AngelescoError as exc:
        return type(exc)


@settings(max_examples=30, deadline=None)
@given(bits=st.sampled_from([128, 192, 512]), geo=GEOMETRIES,
       regime=st.sampled_from([PUSHED_LEFT, MIDDLE, PUSHED_RIGHT]),
       frac=st.sampled_from(["1e-12", "1e-6", "0.01", "0.3", "0.5", "0.9"]),
       where=st.sampled_from(["cut1", "cut2", "gap", "left", "right", "large"]),
       v=st.floats(0.02, 0.98), log_im=st.none() | st.floats(-12, 0.3), lower=st.booleans(),
       log_z=st.floats(7, 20))
def test_chi_eval_is_the_cubic_at_four_times_the_bits(bits, geo, regime, frac, where, v,
                                                      log_im, lower, log_z):
    # each label within 4 units of 2^-bits (1 + |w|) of chi_eval at 4x the bits
    # on the same map, up to its conditioning (1/distance to the nearest other
    # root), with the same value types, and exactly conjugate at conj(z) (at
    # real z, the values are closed under conjugation). Within the square-root
    # rounding floor of bits, where two roots at 4x the bits are closer than
    # about 2^(-bits/2) of their size, a complex z may raise
    # ClassificationError, and a real z may merge them into a branch point's
    # double root, labelled as at a branch point: each value is then held
    # only to the nearest root at 4x the bits (a mid-cut pair B1 +- 3e-13 i
    # on a 1e-12 c* support translated by 1e6, at 128 bits)
    g, ctx, fine = Geometry(*geo), PrecisionContext(bits), PrecisionContext(4 * bits)
    c = _c_in_regime(g, ctx, regime, frac)
    try:
        cd = curve(g, c, ctx, with_dc=False)
    except AngelescoError:
        return
    with ctx.workprec():
        z = _sheet_point(cd, where, mp.mpf(v), log_z if where == "large" else log_im, lower)
    ch, ref = _labels_or_error(cd, z, ctx), _labels_or_error(cd, z, fine)
    if not isinstance(ch, dict):
        assert ch is ClassificationError and isinstance(ref, dict)
        with ctx.workprec():
            assert any(abs(ref[i] - ref[j]) <= mp.ldexp(max(1, abs(ref[i]), abs(ref[j])),
                                                        5 - bits // 2)
                       for i in range(3) for j in range(i))
        return
    assert isinstance(ref, dict)
    with fine.workprec():
        near = {k: min(abs(ref[k] - ref[j]) for j in (0, 1, 2) if j != k) for k in (0, 1, 2)}
        merged = not mp.im(z) and any(
            near[k] <= mp.ldexp(max(1, abs(ref[k]) + near[k]), 6 - bits // 2) for k in (0, 1, 2))
        for k in (0, 1, 2):
            if merged:
                assert min(abs(ch[k] - r) for r in ref.values()) <= max(near.values())
                continue
            assert type(ch[k]) is type(ref[k])
            tol = mp.ldexp(1 + abs(ref[k]), 2 - bits) / min(1, near[k])
            assert abs(ch[k] - ref[k]) <= tol, (z, k)
    with ctx.workprec():
        if mp.im(z):
            conj = chi_eval(cd, mp.conj(z), ctx)
            assert all(conj[k] == mp.conj(ch[k]) for k in (0, 1, 2))
        else:
            # real z: the values are real or one exactly conjugate pair
            assert all(mp.conj(w) in ch.values() for w in ch.values())


# ---------------------------------------------------------------------------
# Pushed-regime solve: one Newton with the mass condition in closed form
# ---------------------------------------------------------------------------

def _pushed_gap(g, frac, bits, ref_bits):
    """Largest gap of (A1, A2, B1, B2, beta) at c = frac c* from a ref_bits solve,
    relative to max(1, |x|) and in units of 2^(20 - bits)."""
    ctx, ref = PrecisionContext(bits), PrecisionContext(ref_bits)
    with ctx.workprec():
        c = critical_thresholds(g, ctx).c_star * mp.mpf(frac)
    cd, cd_ref = curve(g, c, ctx, with_dc=False), curve(g, c, ref, with_dc=False)
    assert cd.regime == cd_ref.regime == PUSHED_LEFT
    with ref.workprec():
        pairs = zip(cd.params() + (cd.beta_c1,), cd_ref.params() + (cd_ref.beta_c1,))
        return max(abs(u - v) / max(1, abs(v)) for u, v in pairs) / mp.mpf(2) ** (20 - bits)


@pytest.mark.parametrize("geo", [("-1.1", "-1", "1", "5"), ("-3", "-2.9", "-2.8", "4"),
                                 ("-1.01", "-1", "1", "100")])
def test_pushed_solve_at_tiny_c_matches_512_bits(geo):
    # A1 is of order c^2 here: the mass row A1/c^2 + A2/(1 - c)^2 = (B2 - B1)^2,
    # exact and relative in A1, takes Newton to the rounding floor at 128 bits
    assert _pushed_gap(Geometry(*geo), "1e-6", 128, 512) <= 1


@pytest.mark.parametrize("geo", [("-1.1", "-1", "1", "5"), ("-3", "-2.9", "-2.8", "4"),
                                 ("-1.01", "-1", "1", "100")])
@pytest.mark.parametrize("frac", ["1e-6", "1e-12", "1e-17"])
def test_pushed_A1_to_its_relative_rounding_floor(geo, frac):
    # the mass row is relative in A1 (of order c^2), so the written A1 keeps
    # its relative digits at tiny c; a row c(w2) - c, absolute in c, leaves
    # A1 5.95e-21 off at 1e-17 c* and 128 bits on [-3, -2.9] u [-2.8, 4]
    g, ref = Geometry(*geo), PrecisionContext(512)
    for bits in (128, 192):
        ctx = PrecisionContext(bits)
        with ctx.workprec():
            c = critical_thresholds(g, ctx).c_star * mp.mpf(frac)
        try:
            A1 = curve(g, c, ctx, with_dc=False).A1
        except SolveFailure as exc:
            # sqrt(A1)/2 below the bracket floor 2^(-bits/2) max(1, |B1|, |B2|)
            assert "too degenerate" in str(exc) and (bits, frac) == (128, "1e-17")
            continue
        A1_ref = curve(g, c, ref, with_dc=False).A1
        with ref.workprec():
            assert abs(A1 / A1_ref - 1) <= mp.mpf(2) ** (20 - bits)


def test_pushed_solve_near_marginal_direction_is_direct():
    # c* = 0.753: one Newton from the full-geometry map, far from c*
    g = Geometry("-100", "-1", "1", "1.01")
    ctx = PrecisionContext(128)
    start = time.perf_counter()
    cd = curve(g, "0.45", ctx, with_dc=False)
    assert time.perf_counter() - start < 2
    with ctx.workprec():
        assert abs(cd.beta_c1 - mp.mpf("-13.5272299886859325499887599418")) < mp.mpf("1e-27")


def test_curve_dc_cross_check_through_oracle_continuation():
    # curve() holds the pushed beta against dc_oracle, whose one scalar
    # equation for the node needs no c-continuation here
    g = Geometry("-100", "-1", "1", "1.01")
    ctx = PrecisionContext(128)
    cd = curve(g, "0.48", ctx)
    assert cd.regime == PUSHED_LEFT
    with ctx.workprec():
        assert abs(cd.beta_c1 - mp.mpf("-11.4638428104926560195070113815")) < mp.mpf("1e-27")


@pytest.mark.parametrize("c, beta", [("0.4", "-17.5469391571621298862996284276"),
                                     ("0.6", "-5.30781370372286375995349027593")])
def test_dc_oracle_tells_c_from_one_minus_c(c, beta):
    # c - c^2 and 1 - c + c^2 are symmetric about 1/2: the node of c is the
    # root of the scalar equation left of alpha1 below 1/2, right of beta2 above
    ctx = PrecisionContext(192)
    with ctx.workprec():
        g = Geometry("-100", "-1", "1", "1.01")
        assert abs(dc_oracle(g, c, ctx)[1] - mp.mpf(beta)) < mp.mpf("1e-28")


def _dc_gap(endpoints, c_of, bits):
    """|beta_dc - beta_pushed| in units of 2^(20 - bits) max(1, |beta|); c_of(c*) gives c."""
    ctx = PrecisionContext(bits)
    with ctx.workprec():
        g = Geometry(*endpoints)
        c = c_of(critical_thresholds(g, ctx).c_star)
    cd = curve(g, c, ctx, with_dc=False)
    assert cd.regime == PUSHED_LEFT
    _, beta = dc_oracle(g, c, ctx)
    with ctx.workprec():
        return abs(beta - cd.beta_c1) / max(1, abs(cd.beta_c1)) / mp.mpf(2) ** (20 - bits)


@settings(max_examples=25, deadline=None)
@given(bits=st.sampled_from([128, 192, 512]),
       geo=st.one_of(st.sampled_from(NAMED_GEOMETRIES),
                     st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(-1.5, 0.7)).map(
                         lambda t: (f"{-1 - 10 ** t[0]:.4f}", "-1", f"{-1 + 10 ** t[2]:.4f}",
                                    f"{-1 + 10 ** t[2] + 10 ** t[1]:.4f}"))),
       frac=st.sampled_from(["1e-6", "1e-3", "0.1", "0.3", "0.6", "0.9", "0.99"]))
# narrow, close supports far from 0 relative to their spread
@example(bits=128, geo=("-1.0100", "-1", "-0.9684", "-0.9584"), frac="0.1")
@example(bits=512, geo=("-1.0100", "-1", "-0.9684", "-0.9584"), frac="0.1")
def test_dc_oracle_matches_pushed_solve(bits, geo, frac):
    # c = frac c* on both sides of 1/2 (c* > 1/2 on the last named geometry)
    assert _dc_gap(geo, lambda c_star: c_star * mp.mpf(frac), bits) <= 1


@settings(max_examples=12, deadline=None)
@given(bits=st.sampled_from([128, 192, 512]), sign=st.sampled_from([-1, 1]),
       exponent=st.sampled_from([3, 10, 30, 60, 100, 200]))
def test_dc_oracle_matches_pushed_solve_near_one_half(bits, sign, exponent):
    # c = 1/2 +- 10^-exponent, below c* = 0.753; from 10^-60 at 128 bits and
    # 10^-200 at 512 c rounds to 1/2, where the node is at infinity
    offset = sign * mp.mpf(10) ** -exponent
    assert _dc_gap(NAMED_GEOMETRIES[-1], lambda c_star: mp.mpf(1) / 2 + offset, bits) <= 1


@settings(max_examples=20, deadline=None)
@given(bits=st.sampled_from([128, 192]),
       log_l1=st.floats(-2, 2), log_l2=st.floats(-2, 2), log_gap=st.floats(-1.5, 0.7),
       frac=st.sampled_from(["1e-5", "0.2", "0.25", "0.3", "0.6", "0.95"]))
# [-959.3116, -1] u [-0.6109, 431.0001] at 0.8 c*, from the full-map seed: every
# full step moves w3 off its critical point, and only the corrector of the
# critical points at the trial point lets Newton take it
@example(bits=128, log_l1=2.981506745150751, log_l2=2.6350925045429032,
         log_gap=-0.4099387691962575, frac="0.8")
def test_pushed_solve_matches_twice_the_bits(bits, log_l1, log_l2, log_gap, frac):
    a2 = -1 + 10 ** log_gap
    g = Geometry(f"{-1 - 10 ** log_l1:.4f}", "-1", f"{a2:.4f}", f"{a2 + 10 ** log_l2:.4f}")
    assert _pushed_gap(g, frac, bits, 2 * bits) <= 1


# ---------------------------------------------------------------------------
# Equilibrium potentials: exact limits, variational conditions, oracle
# ---------------------------------------------------------------------------

def _robin_and_green(a, b, x):
    """log(1/cap[a, b]) and the Green function of C \\ [a, b] at real x outside."""
    u = (2 * x - a - b) / (b - a)
    return mp.log(4 / (b - a)), mp.log(abs(u) + mp.sqrt(u * u - 1))


@pytest.mark.parametrize("bits", [128, 512])
@pytest.mark.parametrize("geo", [("-2", "-1", "1", "2"), ("-2.3", "-1", "1", "1.9")])
def test_equilibrium_single_interval_exact(bits, geo):
    # c = 0: mu_2 is the equilibrium measure of [alpha2, beta2] and mu_1 = 0
    ctx = PrecisionContext(bits)
    g = Geometry(*geo)
    tol = mp.mpf(2) ** (16 - bits)
    for c in (0, 1):
        eq = equilibrium(curve(g, c, ctx), ctx)
        with ctx.workprec():
            if c == 0:
                robin, green = _robin_and_green(g.alpha2, g.beta2, g.alpha1)
                ell_full, ell_point = eq.ell2, eq.ell1
            else:
                robin, green = _robin_and_green(g.alpha1, g.beta1, g.beta2)
                ell_full, ell_point = eq.ell1, eq.ell2
            assert abs(ell_full - 2 * robin) <= tol
            assert abs(ell_point - (robin - green)) <= tol


@pytest.mark.parametrize("bits,c", [(128, "1e-11"), (192, "1e-15"), (128, "0.9999999999"),
                                    (256, "1e-20"), (128, "1e-15")])
def test_equilibrium_masses_on_narrow_pushed_supports(bits, c):
    # the on-cut pair of a support about 4 c |w2(alpha1)| wide is an exact
    # conjugate pair, and the density samples carry the 2 log2(scale/width)
    # bits its discriminant cancels, so the node nearest each edge of a
    # 1.4e-19-wide support reads its density. Measured: 2.2e-26, 1.7e-41,
    # 6.8e-27, 6.2e-44 and 6.9e-22 of the mass; without the extra bits 5.6e-15,
    # 2.5e-16, 9.2e-18, 3.1e-8 and 3.9e-7, the last two under the 1e-6 certificate
    ctx = PrecisionContext(bits)
    cd = curve(G0, c, ctx, with_dc=False)
    eq = equilibrium(cd, ctx)
    with ctx.workprec():
        for got, want in zip(eq.masses, (cd.c, 1 - cd.c)):
            assert abs(got - want) <= mp.mpf("1e-19") * want


def test_equilibrium_mass_certificate_is_relative(monkeypatch):
    # a density read as 0 at one node leaves mu_1's mass of 1e-11 short by a
    # part of itself, an absolute error far under 1e-6: the relative
    # certificate raises
    curve_mod = importlib.import_module("angelesco.curve")
    ctx = PrecisionContext(128)
    cd = curve(G0, "1e-11", ctx, with_dc=False)
    calls = []

    def lose_one_node(curve_data, z, sheet, ctx):
        calls.append(sheet)
        if calls.count(1) == 5:
            return mp.mpc(0)
        return h_branch(curve_data, z, sheet, ctx)

    monkeypatch.setattr(curve_mod, "h_branch", lose_one_node)
    with pytest.raises(InternalInconsistency, match="equilibrium mass"):
        equilibrium(cd, ctx)
    assert calls.count(1) >= 5


@settings(max_examples=10, deadline=None)
@given(bits=st.sampled_from([128, 192, 512]),
       l1=st.integers(80, 150), l2=st.integers(80, 150),
       regime=st.sampled_from([PUSHED_LEFT, MIDDLE, PUSHED_RIGHT]),
       u=st.floats(0.15, 0.85))
def test_equilibrium_mass_rule_converges(bits, l1, l2, regime, u):
    # the rule's masses sit within mass_floor = 2^(20 - W) of themselves
    # (2^(16.6 - W) the worst measured), and twice the nodes move them less
    curve_mod = importlib.import_module("angelesco.curve")
    ctx = PrecisionContext(bits)
    with ctx.workprec():
        g = Geometry(-1 - mp.mpf(l1) / 100, -1, 1, 1 + mp.mpf(l2) / 100)
    th = critical_thresholds(g, ctx)
    with ctx.workprec():
        cd = curve(g, _REGIME_FRACTION[regime](th, mp.mpf(u)), ctx, with_dc=False)
    eq = equilibrium(cd, ctx)
    rule = curve_mod._mass_nodes
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(curve_mod, "_mass_nodes", lambda work_bits: 2 * rule(work_bits))
        doubled = equilibrium(cd, ctx)
    assert eq.mass_floor == mp.ldexp(1, 20 - min(bits, 160))
    with ctx.workprec():
        for got, again, want in zip(eq.masses, doubled.masses, (cd.c, 1 - cd.c)):
            assert abs(got - want) <= eq.mass_floor * want
            assert abs(got - again) <= eq.mass_floor * want


@settings(max_examples=12, deadline=None)
@given(bits=st.sampled_from([128, 192]),
       l1=st.integers(80, 150), l2=st.integers(80, 150),
       regime=st.sampled_from([PUSHED_LEFT, MIDDLE, PUSHED_RIGHT]),
       u=st.floats(0.15, 0.85))
def test_equilibrium_variational_conditions(bits, l1, l2, regime, u):
    ctx = PrecisionContext(bits)
    with ctx.workprec():
        g = Geometry(-1 - mp.mpf(l1) / 100, -1, 1, 1 + mp.mpf(l2) / 100)
    th = critical_thresholds(g, ctx)
    with ctx.workprec():
        cd = curve(g, _REGIME_FRACTION[regime](th, mp.mpf(u)), ctx, with_dc=False)
    eq = equilibrium(cd, ctx)
    with ctx.workprec():
        intervals = ((g.alpha1, g.beta1), (g.alpha2, g.beta2))
        for (a, b), (lo, hi), coeffs, ell in zip(cd.supports(), intervals,
                                                 ((2, 1), (1, 2)), (eq.ell1, eq.ell2)):
            tol = mp.mpf(2) ** (16 - bits) * (1 + abs(ell))
            for q in ("0.05", "0.3", "0.5", "0.7", "0.95"):
                assert abs(eq.potential(a + (b - a) * mp.mpf(q), *coeffs) - ell) <= tol
            # on the part of the interval the support left, strictly above ell
            for near, far in ((b, hi), (a, lo)):
                if abs(far - near) > ctx.solve_tolerance:
                    for x in ((near + far) / 2, far):
                        assert eq.potential(x, *coeffs) - ell > tol
        # V^{mu_i}(x) + m_i log|x| -> 0 like O(1/x)
        X = mp.mpf(2) ** 40
        bound = 10 * max(abs(g.alpha1), abs(g.beta2)) / X
        for x in (X, -X):
            assert abs(eq.potential(x, 1, 0) + cd.c * mp.log(X)) <= bound
            assert abs(eq.potential(x, 0, 1) + (1 - cd.c) * mp.log(X)) <= bound


def _t2_integral(f, p, q, nodes, weights):
    """Integral of f over [p, q], split at the midpoint, with x = end +- t^2 at each end."""
    tmax = mp.sqrt((q - p) / 2)
    total = mp.mpf(0)
    for end, sgn in ((p, 1), (q, -1)):
        for t, w in zip(nodes, weights):
            tt = tmax * (t + 1) / 2
            total += tmax * tt * w * f(end + sgn * tt * tt)
    return total


def _oracle_potential(eq, supports, x0, coeffs, n, ctx):
    """-sum coeff_i int log|x0 - t| d mu_i by Gauss-Legendre on the densities.

    The t^2 substitutions absorb the square-root edges and, with a split at
    x0, the logarithm; the rule converges like n^-4.
    """
    nodes, weights = gauss_legendre(n, ctx)
    total = mp.mpf(0)
    for (a, b), f, coeff in zip(supports, (eq.density1, eq.density2), coeffs):
        cuts = [a, x0, b] if a < x0 < b else [a, b]
        for p, q in zip(cuts, cuts[1:]):
            total -= coeff * _t2_integral(lambda x: mp.log(abs(x0 - x)) * f(x),
                                          p, q, nodes, weights)
    return total


@pytest.mark.parametrize("c", ["0.05", "0.3", "0.96"])
def test_equilibrium_constants_match_quadrature_oracle(c):
    ctx = PrecisionContext(128)
    cd = curve(G0, c, ctx, with_dc=False)
    eq = equilibrium(cd, ctx)
    with ctx.workprec():
        sup = cd.supports()
        for ell, (a, b), coeffs in zip((eq.ell1, eq.ell2), sup, ((2, 1), (1, 2))):
            oracle = _oracle_potential(eq, sup, (a + b) / 2, coeffs, 64, ctx)
            assert abs(ell - oracle) < mp.mpf("1e-7")


@pytest.mark.parametrize("c, bits", [("0.3", 128), ("0.3", 512), ("0.001", 128)])
def test_equilibrium_density_hard_edges_raise(c, bits):
    ctx = PrecisionContext(bits)
    cd = curve(G0, c, ctx, with_dc=False)
    eq = equilibrium(cd, ctx)
    (a1, b1), (a2, b2) = cd.supports()
    hard = [(eq.density1, a1), (eq.density2, a2), (eq.density2, b2)]
    if cd.regime == MIDDLE:
        hard.append((eq.density1, b1))
    else:
        # the pushed endpoint is a soft edge: the density vanishes there
        assert eq.density1(b1) == 0
    for density, x in hard:
        with pytest.raises(DomainError):
            density(x)
