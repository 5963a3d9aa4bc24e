import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.calculus.quadrature import GaussLegendre

from angelesco.errors import BracketError, ShapeError, SingularSystem, SolveFailure
from angelesco.precision import (
    PrecisionContext,
    Poly,
    find_root,
    gauss_legendre,
    solve_dense,
    sym_eig,
)

CTX = PrecisionContext(256)


def test_context_guards():
    with pytest.raises(ValueError):
        PrecisionContext(64)
    assert CTX.solve_tolerance == mp.mpf(2) ** -128


def test_gauss_legendre_small_closed_forms():
    nodes, weights = gauss_legendre(1, CTX)
    assert nodes[0] == 0 and weights[0] == 2
    nodes, weights = gauss_legendre(2, CTX)
    with CTX.workprec():
        assert abs(nodes[0] + 1 / mp.sqrt(3)) < CTX.eps * 8
        assert abs(nodes[1] - 1 / mp.sqrt(3)) < CTX.eps * 8
        assert abs(weights[0] - 1) < CTX.eps * 8 and abs(weights[1] - 1) < CTX.eps * 8


@pytest.mark.parametrize("m", [3, 7, 16, 40])
def test_gauss_legendre_weight_sum_and_ordering(m):
    nodes, weights = gauss_legendre(m, CTX)
    assert all(-1 < x < 1 for x in nodes)
    assert all(x < y for x, y in zip(nodes, nodes[1:]))
    assert all(w > 0 for w in weights)
    with CTX.workprec():
        assert all(nodes[i] == -nodes[m - 1 - i] for i in range(m))
        assert all(weights[i] == weights[m - 1 - i] for i in range(m))
        assert abs(mp.fsum(weights) - 2) < CTX.eps * 64


def _legendre_and_derivative(x, m):
    """P_m(x) and P_m'(x) by the three-term recurrence (|x| < 1)."""
    p_prev, p = mp.mpf(1), x
    for j in range(1, m):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    return p, m * (x * p - p_prev) / (x * x - 1)


def _gauss_legendre_mpf(m, ctx):
    """Oracle: the same Newton iteration on mpf at bits + 20, rounded to bits."""
    with mp.workprec(ctx.mantissa_bits + 20):
        tol = mp.mpf(2) ** (-ctx.mantissa_bits - 10)
        positive, positive_weights = [], []
        for k in range(1, m // 2 + 1):
            x = mp.cos(mp.pi * (k - mp.mpf(1) / 4) / (m + mp.mpf(1) / 2))
            for _ in range(200):
                p, dp = _legendre_and_derivative(x, m)
                dx = p / dp
                x -= dx
                if abs(dx) <= tol * (1 + abs(x)):
                    break
            _, dp = _legendre_and_derivative(x, m)
            positive.append(x)
            positive_weights.append(2 / ((1 - x * x) * dp * dp))
        middle, middle_weight = [], []
        if m % 2:
            _, dp = _legendre_and_derivative(mp.mpf(0), m)
            middle, middle_weight = [mp.mpf(0)], [2 / (dp * dp)]
        nodes = [-x for x in positive] + middle + positive[::-1]
        weights = positive_weights + middle_weight + positive_weights[::-1]
    with ctx.workprec():
        return [+x for x in nodes], [+w for w in weights]


@settings(max_examples=20, deadline=None)
@given(m=st.integers(1, 130), bits=st.sampled_from([128, 160, 192, 256, 512]))
def test_gauss_legendre_bit_identical_to_mpf_newton(m, bits):
    ctx = PrecisionContext(bits)
    nodes, weights = gauss_legendre(m, ctx)
    want_nodes, want_weights = _gauss_legendre_mpf(m, ctx)
    assert [x._mpf_ for x in nodes] == [x._mpf_ for x in want_nodes]
    assert [w._mpf_ for w in weights] == [w._mpf_ for w in want_weights]


@pytest.mark.parametrize("degree, m", [(3, 12), (5, 48)])
@pytest.mark.parametrize("bits", [128, 512])
def test_gauss_legendre_matches_mpmath_rule(degree, m, bits):
    ctx = PrecisionContext(bits)
    nodes, weights = gauss_legendre(m, ctx)
    ref = sorted(GaussLegendre(mp.mp).calc_nodes(degree, bits))
    assert len(ref) == m
    with mp.workprec(2 * bits):
        tol = mp.mpf(2) ** (4 - bits)
        for x, w, (rx, rw) in zip(nodes, weights, ref):
            assert abs(x - rx) <= tol and abs(w - rw) <= tol


@pytest.mark.parametrize("m", [1, 2, 5, 16, 33, 64])
@pytest.mark.parametrize("bits", [128, 512])
def test_gauss_legendre_exact_on_even_monomials(m, bits):
    ctx = PrecisionContext(bits)
    nodes, weights = gauss_legendre(m, ctx)
    with ctx.workprec():
        tol = mp.mpf(2) ** (8 - bits)
        for k in range(m):
            got = mp.fsum(w * x ** (2 * k) for x, w in zip(nodes, weights))
            assert abs(got - mp.mpf(2) / (2 * k + 1)) <= tol


def integrate(f, interval, m, ctx):
    """Gauss-Legendre sum for the integral of f over [a, b] with m nodes."""
    nodes, weights = gauss_legendre(m, ctx)
    with ctx.workprec():
        a, b = mp.mpf(interval[0]), mp.mpf(interval[1])
        half, mid = (b - a) / 2, (b + a) / 2
        return half * mp.fsum(w * f(mid + half * x) for x, w in zip(nodes, weights))


def test_integrate_trivial_cases():
    one = integrate(lambda x: mp.mpf(1), (1, 2), 4, CTX)
    lin = integrate(lambda x: x, (-2, -1), 4, CTX)
    quad = integrate(lambda x: x * x, (0, 1), 2, CTX)
    with CTX.workprec():
        assert abs(one - 1) < CTX.eps * 16
        assert abs(lin + mp.mpf(3) / 2) < CTX.eps * 16
        assert abs(quad - mp.mpf(1) / 3) < CTX.eps * 16


def test_quadrature_exactness_random_polynomials():
    rng = np.random.RandomState(7)
    for m in (3, 6, 11):
        deg = 2 * m - 1
        coeffs = rng.uniform(-2, 2, size=deg + 1)
        p = Poly(coeffs)
        got = integrate(p, ("-0.5", "1.5"), m, CTX)
        with CTX.workprec():
            anti = Poly([mp.mpf(0)] + [c / (k + 1) for k, c in enumerate(p.coeffs)])
            exact = anti(mp.mpf("1.5")) - anti(mp.mpf("-0.5"))
            assert abs(got - exact) < CTX.eps * 1e6


def test_solve_dense_identity_and_diagonal():
    x, r = solve_dense([[1, 0], [0, 1]], [1, 2], CTX)
    assert x[0] == 1 and x[1] == 2 and r == 0
    x, r = solve_dense([[2, 0], [0, 4]], [2, 4], CTX)
    assert x[0] == 1 and x[1] == 1


def test_solve_dense_hilbert_known_solution():
    ctx = PrecisionContext(256)
    with ctx.workprec():
        n = 8
        A = [[mp.mpf(1) / (i + j + 1) for j in range(n)] for i in range(n)]
        b = [mp.fsum(row) for row in A]
    x, resid = solve_dense(A, b, ctx)
    with ctx.workprec():
        assert max(abs(v - 1) for v in x) < mp.mpf("1e-40")
        # reported residual consistent with a recomputation
        re2 = max(abs(mp.fsum(A[i][j] * x[j] for j in range(n)) - b[i]) for i in range(n))
        assert abs(resid - re2) <= mp.mpf("1e-30") * (1 + re2)


def test_solve_dense_singular():
    with pytest.raises(SingularSystem):
        solve_dense([[1, 1], [1, 1]], [1, 2], CTX)


def test_sym_eig_basic():
    vals = sym_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(vals, [1, 2, 3])
    vals = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(vals, [-1, 1])


def test_sym_eig_tridiagonal_closed_form():
    n = 12
    T = np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    vals = sym_eig(T)
    expect = np.sort(2 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
    assert np.allclose(vals, expect, atol=1e-12)


def test_sym_eig_trace_det_and_vectors():
    rng = np.random.RandomState(3)
    A = rng.standard_normal((40, 40))
    S = (A + A.T) / 2
    vals, vecs = sym_eig(S, want_vectors=True)
    assert abs(vals.sum() - np.trace(S)) < 1e-8 * max(1, abs(np.trace(S)))
    sign, logdet = np.linalg.slogdet(S)
    prod_sign = np.prod(np.sign(vals))
    assert prod_sign == sign
    assert abs(np.sum(np.log(np.abs(vals))) - logdet) < 1e-8 * max(1, abs(logdet))
    assert np.max(np.abs(vecs.T @ vecs - np.eye(40))) < 1e-10


def test_sym_eig_rejects_asymmetry():
    A = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ShapeError):
        sym_eig(A)


def test_find_root_basics():
    r = find_root(lambda x: x * x - 2, lambda x: 2 * x, 1, 2, CTX)
    with CTX.workprec():
        assert abs(r - mp.sqrt(2)) < CTX.solve_tolerance * 4
    r = find_root(lambda x: x * x - 2, lambda x: 2 * x, 1, 2, CTX, tol=mp.mpf(2) ** -250)
    with CTX.workprec():
        assert abs(r - mp.sqrt(2)) < mp.mpf("1e-70")
    r0 = find_root(lambda x: x, lambda x: 1, -1, 1, CTX)
    assert abs(r0) < mp.mpf("1e-70")
    rc = find_root(mp.cos, lambda x: -mp.sin(x), 1, 2, CTX, tol=mp.mpf("1e-60"))
    with CTX.workprec():
        assert abs(rc - mp.pi / 2) < mp.mpf("1e-55")
    for f in (lambda x: x * x + 1, lambda x: -x * x - 1, lambda x: (x - 3) ** 2):
        with pytest.raises(BracketError):
            find_root(f, lambda x: 2 * x, -1, 2, CTX)


def test_find_root_exact_zero_at_an_end():
    def no_slope(x):
        raise AssertionError("an exact zero at an end needs no Newton step")

    assert find_root(lambda x: x - 1, no_slope, 1, 2, CTX) == 1
    assert find_root(lambda x: x - 2, no_slope, 1, 2, CTX) == 2


def _traced_root(f, fp, lo, hi, ctx, **kwargs):
    """find_root's result and the points at which it evaluated f."""
    points = []
    r = find_root(lambda x: points.append(x) or f(x), fp, lo, hi, ctx, **kwargs)
    return r, points


def test_find_root_start_off_the_open_bracket_is_the_midpoint_search():
    # find_root takes no start: after the two end evaluations the first
    # Newton point is always the midpoint, and a start argument is refused
    f, fp = (lambda x: x ** 3 - x - 1), (lambda x: 3 * x * x - 1)
    r, points = _traced_root(f, fp, 1, 2, CTX)
    assert points[:3] == [1, 2, mp.mpf("1.5")]
    with CTX.workprec():
        assert abs(f(r)) <= CTX.solve_tolerance * 4
    for start in (None, 1, 2, mp.mpf(0), 3, -1.5, float("nan"), float("inf")):
        with pytest.raises(TypeError):
            find_root(f, fp, 1, 2, CTX, start=start)


@pytest.mark.parametrize("start", [None, 1, 2, 1.5, 0.5, 7])
def test_find_root_ends_and_refusals_do_not_depend_on_start(start):
    # the ends and refusals need no start; passing one is a TypeError
    def no_slope(x):
        raise AssertionError("an exact zero at an end needs no Newton step")

    assert find_root(lambda x: x - 1, no_slope, 1, 2, CTX) == 1
    assert find_root(lambda x: x - 2, no_slope, 1, 2, CTX) == 2
    with pytest.raises(BracketError):
        find_root(lambda x: x * x + 1, lambda x: 2 * x, 1, 2, CTX)
    with pytest.raises(TypeError):
        find_root(lambda x: x - 1, no_slope, 1, 2, CTX, start=start)


@pytest.mark.parametrize("f", [lambda x: x * x + 1, lambda x: -x * x - 1,
                               lambda x: (x - 1.5) ** 2])
def test_find_root_refuses_a_bracket_without_a_sign_change_at_its_ends(f):
    # no Newton step is taken, even where f has a double zero inside
    def no_slope(x):
        raise AssertionError("a refused bracket needs no Newton step")

    with pytest.raises(BracketError):
        find_root(f, no_slope, 1, 2, CTX)


def test_find_root_bisects_where_the_slope_vanishes():
    # f' = 3x^2 is 0 at the bracket's midpoint, the first Newton point
    slopes = []
    r = find_root(lambda x: x ** 3 - mp.mpf(1) / 8, lambda x: slopes.append(x) or 3 * x * x,
                  -1, 1, CTX)
    assert slopes[0] == 0
    with CTX.workprec():
        assert abs(r - mp.mpf(1) / 2) <= CTX.solve_tolerance


def test_find_root_exhausted_budget_raises():
    # 3x - 1, exact, has no zero among the binary floats: with tol = 0 the
    # bracket closes to two neighbours and the step budget runs out
    calls = []

    def f(x):
        calls.append(x)
        return mp.fsub(mp.fmul(3, x, exact=True), 1, exact=True)

    with pytest.raises(SolveFailure):
        find_root(f, lambda x: 3, 0, 1, CTX, tol=0)
    assert len(calls) == 2 * CTX.mantissa_bits + 128 + 2


def test_find_root_superlinear_with_bisection_guard():
    ctx = PrecisionContext(192)
    with ctx.workprec():
        plastic = mp.cbrt((9 + mp.sqrt(69)) / 18) + mp.cbrt((9 - mp.sqrt(69)) / 18)
        simple = [
            (lambda x: x * x - 2, lambda x: 2 * x, 1, 2, mp.sqrt(2)),
            (mp.cos, lambda x: -mp.sin(x), 1, 2, mp.pi / 2),
            (lambda x: mp.exp(x) - 3, mp.exp, 0, 5, mp.log(3)),
            (lambda x: x ** 3 - x - 1, lambda x: 3 * x * x - 1, 1, 2, plastic),
            # Newton alone diverges on atan from most starts; the bracket catches it
            (lambda x: mp.atan(1000 * (x - mp.mpf("0.3"))),
             lambda x: 1000 / (1 + (1000 * (x - mp.mpf("0.3"))) ** 2), -1, 2, mp.mpf("0.3")),
        ]
    for f, fp, lo, hi, root in simple:
        calls = []
        r = find_root(lambda x: calls.append(x) or f(x), fp, lo, hi, ctx)
        with ctx.workprec():
            assert abs(r - root) <= ctx.solve_tolerance * max(1, abs(lo), abs(hi))
        assert len(calls) <= 30
    # on a fivefold root Newton converges only linearly, at rate 4/5: the
    # zero is still found, within the step budget
    calls = []
    r = find_root(lambda x: calls.append(x) or x ** 5, lambda x: 5 * x ** 4, -1, 3, ctx)
    with ctx.workprec():
        assert abs(r) ** 5 <= ctx.solve_tolerance * 3
    assert len(calls) <= 2 * ctx.mantissa_bits + 128 + 2


def test_precision_monotonicity_on_fixed_corpus():
    # doubling mantissa bits never increases the error on this corpus
    errs = {}
    for bits in (256, 512):
        ctx = PrecisionContext(bits)
        with ctx.workprec():
            n = 8
            A = [[mp.mpf(1) / (i + j + 1) for j in range(n)] for i in range(n)]
            b = [mp.fsum(row) for row in A]
            x, _ = solve_dense(A, b, ctx)
            e_solve = max(abs(v - 1) for v in x)
            p = Poly(list(range(1, 12)))
            anti = Poly([mp.mpf(0)] + [c / (k + 1) for k, c in enumerate(p.coeffs)])
            e_quad = abs(integrate(p, (0, 1), 6, ctx) - (anti(mp.mpf(1)) - anti(mp.mpf(0))))
            r = find_root(lambda t: t * t - 2, lambda t: 2 * t, 1, 2, ctx)
            e_root = abs(r - mp.sqrt(2))
        errs[bits] = (e_solve, e_quad, e_root)
    for e512, e256 in zip(errs[512], errs[256]):
        assert e512 <= e256 * (1 + mp.mpf("1e-10")) + mp.mpf(10) ** -150
