"""Spectral curve of the two-interval system as a function of (geometry, c).

Everything here flows from one parametrization: the degree-3 rational map

    R(w) = w + A1/(w - B1) + A2/(w - B2)

is the inverse of the sheet-wise conformal map of the three-sheeted surface,
its four critical values are the branch points, and on the w-plane

    h(w) = (w - B1)(w - B2)(w - w*) / prod_j (w - w_j)

carries the equilibrium problem: its sheet residues at B1, B2 encode the
masses (c, 1-c), which makes the mass condition a linear equation in w*.
The three regimes (support pushed off the first interval, full supports,
pushed off the second) reduce to small Newton systems in the map parameters.
"""

import cmath
import json
import math
from dataclasses import dataclass

import mpmath as mp

from .errors import (
    ClassificationError,
    DomainError,
    InternalInconsistency,
    RegimeError,
    SolveFailure,
)
from .precision import PrecisionContext, find_root, gauss_legendre
from .szego_maps import phi_map, w_map

PUSHED_LEFT = "pushed_left"
MIDDLE = "middle"
PUSHED_RIGHT = "pushed_right"


@dataclass(frozen=True)
class CurveData:
    """Branch constants and derived points of the surface at one c."""

    c: mp.mpf
    regime: str
    beta_c1: mp.mpf
    alpha_c2: mp.mpf
    A1: mp.mpf
    A2: mp.mpf
    B1: mp.mpf
    B2: mp.mpf
    w_crit: tuple  # (w1, w2, w3, w4)
    w_star: mp.mpf
    z_c: mp.mpf
    solve_residual: mp.mpf
    geometry: object = None

    def params(self):
        return (self.A1, self.A2, self.B1, self.B2)

    def supports(self):
        g = self.geometry
        return ((g.alpha1, self.beta_c1), (self.alpha_c2, g.beta2))


@dataclass(frozen=True)
class Thresholds:
    c_star: mp.mpf
    c_dstar: mp.mpf


@dataclass
class EquilibriumData:
    """Density samplers, masses, and variational constants at one c."""

    density1: object
    density2: object
    masses: tuple
    mass_floor: mp.mpf  # relative quadrature floor of the masses, 2^(EQ_FLOOR_BITS - W)
    ell1: mp.mpf
    ell2: mp.mpf
    potential: object  # potential(z, coeff1, coeff2)


# ---------------------------------------------------------------------------
# The rational map and its critical points
# ---------------------------------------------------------------------------

def _R(w, p):
    A1, A2, B1, B2 = p
    return w + A1 / (w - B1) + A2 / (w - B2)


def _Rp(w, p):
    A1, A2, B1, B2 = p
    return 1 - A1 / (w - B1) ** 2 - A2 / (w - B2) ** 2


def _Rpp(w, p):
    A1, A2, B1, B2 = p
    return 2 * A1 / (w - B1) ** 3 + 2 * A2 / (w - B2) ** 3


def _brackets(p, sqrt, tol=0):
    """Brackets (k, lo, hi) of the four zeros of R', each in u = w - B_k about its own pole.

    With s = sqrt(A1 + A2), R' <= -3 within sqrt(A_k)/2 of B_k and R' >= 3/4
    at 2s beyond both poles, and R''' < 0 makes R' monotone on each side of
    B1, of B2 and of wm, the one zero of R'' between the poles. So each of
    [B1 - 2s, B1 - sqrt(A1)/2], [B1 + sqrt(A1)/2, wm], [wm, B2 - sqrt(A2)/2]
    and [B2 + sqrt(A2)/2, B2 + 2s] holds one simple zero: w1 and w2 about B1
    (k = 0), w3 and w4 about B2 (k = 1). In the arithmetic of p and sqrt.
    SolveFailure when min sqrt(A_k)/2 <= tol, where B_k +- sqrt(A_k)/2 does
    not resolve the pole, and when the middle pair is not real (wm within
    sqrt(A_k)/2 of B_k, or R'(wm) <= 0).
    """
    A1, A2, B1, B2 = p
    gap = B2 - B1
    r1, r2, far = sqrt(A1) / 2, sqrt(A2) / 2, 2 * sqrt(A1 + A2)
    if min(r1, r2) <= tol:
        raise SolveFailure("poles too degenerate for bracketing")
    # R'' has exactly one zero between the poles, at the top of the bump: wm - B1
    m = gap / (1 + (A2 / A1) ** (1 / 3))
    if not (r1 < m < gap - r2 and 1 - A1 / (m * m) - A2 / ((m - gap) * (m - gap)) > 0):
        raise SolveFailure("middle critical points are not real")
    return ((0, -far, -r1), (0, r1, m), (1, m - gap, -r2), (1, r2, far))


def _critical_points(p, ctx):
    """The four real zeros w1 < B1 < w2 <= w3 < B2 < w4 of R', by ``find_root`` with R''.

    Each is searched from the midpoint of its ``_brackets`` bracket, to
    2^(4 - bits) max(1, |B1|, |B2|). SolveFailure for parameters out of
    range, and from ``_brackets`` with tol = solve tolerance * max(1, |B1|, |B2|).
    The map solve starts from these where doubles fail; tests use them as
    the oracle of its critical points.
    """
    A1, A2, B1, B2 = p
    if not (A1 > 0 and A2 > 0 and B1 < B2):
        raise SolveFailure("parameters out of range for critical-point search")
    scale = max(1, abs(B1), abs(B2))
    # full-precision refinement: c* and c** are first order in w2 and w3
    tol = mp.mpf(2) ** (4 - ctx.mantissa_bits) * scale
    return tuple(
        find_root(lambda w: _Rp(w, p), lambda w: _Rpp(w, p), p[2 + k] + lo, p[2 + k] + hi, ctx, tol)
        for k, lo, hi in _brackets(p, mp.sqrt, ctx.solve_tolerance * scale))


def _double_zero(a, b, other, lo, hi):
    """The zero of 1 - a/u^2 - b/(u - other)^2 in the sign-change bracket [lo, hi], in doubles.

    Bracketed Newton, as ``find_root``. Where doubles cannot resolve the
    bracket, a division by zero or an overflow raises its ArithmeticError
    and a non-finite zero SolveFailure.
    """
    def f(u):
        v = u - other
        return 1 - a / (u * u) - b / (v * v)

    def fp(u):
        v = u - other
        return 2 * a / (u * u * u) + 2 * b / (v * v * v)

    lo_positive = f(lo) > 0
    u = (lo + hi) / 2
    for _ in range(200):
        fu = f(u)
        if fu == 0:
            break
        if (fu > 0) == lo_positive:
            lo = u
        else:
            hi = u
        du = fu / fp(u)
        if abs(du) <= 2 ** -52 * abs(u):
            u -= du
            break
        u = u - du if lo < u - du < hi else (lo + hi) / 2
        if hi - lo <= 2 ** -52 * abs(u):
            break
    if not math.isfinite(u):
        raise SolveFailure("doubles cannot resolve the bracket")
    return u


def _mass_of_wstar(p, w_star):
    """The c whose h-divisor zero sits over w_star: the residue r1 of h R' at B1.

    No critical point enters: (w - B1)^2 (w - B2)^2 R'(w) = prod_j (w - w_j)
    makes prod_j (B1 - w_j) = -A1 (B1 - B2)^2.
    """
    B1, B2 = p[2:]
    return (B1 - w_star) / (B1 - B2)


# ---------------------------------------------------------------------------
# Newton solvers
# ---------------------------------------------------------------------------

def _newton(rows, x0, ctx=None, scale=1):
    """Damped Newton on rows(x) = (residuals, step), in doubles when ctx is None and at
    ctx's precision otherwise; returns (x, largest residual) of the accepted iterate.

    step(solve) is the Newton step at x, given a linear solver solve(J, b);
    both arithmetics solve by ``_eliminate``. It is halved at most 60 times
    until rows succeed, finite, with a smaller largest residual (or one
    below the solve tolerance). A trial point that fails that test gets one
    more chance, corrected by step(solve) with a solve that returns zeros:
    the unknowns that the step eliminates, moved by their own Newton step
    there. At most 80 steps, and none once the residual is within 2^8
    roundings of scale, 2^4 in doubles: a polish at context precision
    squares what doubles leave. SolveFailure when the rows fail at x0, when
    a linear solve meets a zero pivot, or when the residual ends above the
    solve tolerance times scale; an entry that is not a number is a
    TypeError, in either arithmetic.
    """
    num, bits, margin = (float, 53, 4) if ctx is None else (mp.mpf, ctx.mantissa_bits, 8)

    def trial(xn):
        # rows at xn and their largest residual, or None where they fail or are
        # not finite (v - v == 0 in either arithmetic)
        try:
            fn, sn = rows(xn)
        except (SolveFailure, ArithmeticError):
            return None
        return (max(abs(v) for v in fn), sn) if all(v - v == 0 for v in fn) else None

    tol = num(2) ** (-bits // 2)  # ctx.solve_tolerance at context precision
    x = [num(v) for v in x0]
    start = trial(x)
    if start is None:
        raise SolveFailure("Newton rows fail at the start")
    best, step_at = start
    for _ in range(80):
        try:
            step = step_at(_eliminate)
        except ZeroDivisionError as exc:
            raise SolveFailure(f"Newton linear solve failed: {exc}") from exc
        lam = num(1)
        for _ in range(60):
            xn = [xi + lam * si for xi, si in zip(x, step)]
            got = trial(xn)
            if got and not (got[0] < best or got[0] < tol):
                xn = [xi + si for xi, si in zip(xn, got[1](lambda J, b: [0 * v for v in b]))]
                got = trial(xn)
            if got and (got[0] < best or got[0] < tol):
                x, (best, step_at) = xn, got
                break
            lam /= 2
        else:
            break
        if best == 0 or best < num(2) ** (margin - bits) * scale:
            break
    if not best <= tol * scale:
        raise SolveFailure(f"residual {mp.nstr(best, 5)} above tolerance")
    return x, best


def _map_rows(targets, c=None):
    """The map solve's rows for ``_newton``, at x = (A1, A2, B1, B2, u1, u2, u3, u4).

    Each critical point is carried about its own pole, u_j = w_j - B_k (B1
    for w1 and w2, B2 for w3 and w4), and w_j - B1, w_j - B2 are formed from
    u_j and the gap B2 - B1, so that narrow or translated supports cancel no
    digits. A free w_j has the rows R(w_j) - t_j and R'(w_j) = 0; with c,
    w2 is pinned at w* = B1 + c (B2 - B1), and its one row is ``_mass_row``.
    The residuals are these rows, each R'(w_j) times the span of the targets,
    a fixed length, so that a short enough Newton step lowers every one of
    them. The step eliminates each R' row, dw_j = -(R' + d_p R' dp)/R'',
    which leaves one row in dp = d(A1, A2, B1, B2),

        R - t_j - R'^2/R'' + (d_p R - (R'/R'') d_p R') dp = 0,

    partials at w_j held; where R' = 0 this is R(w_j) - t_j at the critical
    point. Only + - * / of x's arithmetic. SolveFailure unless A1, A2 > 0
    and w1 < B1 < w2 < w3 < B2 < w4.
    """
    span = targets[3] - targets[0]

    def rows(x):
        A1, A2, B1, B2, *u = x
        gap = B2 - B1
        if c is not None:
            u[1] = c * gap
        if not (A1 > 0 and A2 > 0 and u[0] < 0 < u[1] < gap + u[2] and u[2] < 0 < u[3]):
            raise SolveFailure("map parameters out of order")
        out = []  # per w_j: residuals, eliminated row, its Jacobian row, R'/R'', dw_j/dp
        for j, (k, uj, t) in enumerate(zip((0, 0, 1, 1), u, targets)):
            if c is not None and j == 1:
                f, row = _mass_row(x[:4], c)
                out.append(([f], f, row, 0, [0, 0, 1 - c, c]))
                continue
            d1, d2 = (uj + gap, uj) if k else (uj, uj - gap)
            i1, i2 = 1 / d1, 1 / d2
            dR = [i1, i2, A1 * i1 * i1, A2 * i2 * i2]
            q = [i1 * i1, i2 * i2, 2 * dR[2] * i1, 2 * dR[3] * i2]  # -d_p R'
            Rp, Rpp = 1 - dR[2] - dR[3], q[2] + q[3]
            g = Rp / Rpp
            r = x[2 + k] + uj + A1 * i1 + A2 * i2 - t
            out.append(([r, Rp * span], r - Rp * g, [a + g * b for a, b in zip(dR, q)],
                        g, [b / Rpp for b in q]))
        res, F, J, G, H = zip(*out)

        def step(solve):
            dp = solve(list(J), [-f for f in F])
            # dw_j = h_j dp - g_j, and du_j = dw_j - dB_k
            return list(dp) + [sum(a * b for a, b in zip(h, dp)) - g - dp[2 + k]
                               for k, g, h in zip((0, 0, 1, 1), G, H)]
        return [v for rj in res for v in rj], step
    return rows


def _map_solve(seed, targets, ctx, c=None):
    """(A1, A2, B1, B2) whose critical values hit the targets, by ``_newton`` on ``_map_rows``;
    with c, w2 = B1 + c (B2 - B1) replaces the second target. Returns (params, w_crit, residual).

    Newton runs in doubles from the seed, each u_j from the ``_double_zero``
    of its bracket, and then at context precision from that solution, which
    it only polishes; where doubles fail, from the seed and its
    ``_critical_points``. The scale is max(1, |targets|). The accepted
    parameters must pass ``_brackets`` at ``_critical_points``' tolerance:
    SolveFailure "poles too degenerate" where B_k +- sqrt(A_k)/2 does not
    resolve the pole.
    """
    scale = max(1, *(abs(t) for t in targets))
    try:
        p = [float(v) for v in seed]
        gap = p[3] - p[2]
        u = [_double_zero(*((p[1], p[0], -gap) if k else (p[0], p[1], gap)), lo, hi)
             for k, lo, hi in _brackets(p, math.sqrt)]
        rows = _map_rows([float(t) for t in targets], None if c is None else float(c))
        x = _newton(rows, p + u, scale=float(scale))[0]
    except (SolveFailure, ArithmeticError):
        x = list(seed) + [w - seed[2 + k] for k, w in zip((0, 0, 1, 1), _critical_points(seed, ctx))]
    x, resid = _newton(_map_rows(targets, c), x, ctx, scale)
    params, u = tuple(x[:4]), x[4:]
    B1, B2 = params[2:]
    if c is not None:
        u[1] = c * (B2 - B1)
    _brackets(params, mp.sqrt, ctx.solve_tolerance * max(1, abs(B1), abs(B2)))
    return params, tuple(B + v for B, v in zip((B1, B1, B2, B2), u)), resid


def _eliminate(M, b):
    """M y = b by Gaussian elimination with partial pivoting, in the entries' arithmetic."""
    n = len(b)
    M = [row + [v] for row, v in zip(M, b)]
    for i in range(n):
        p = max(range(i, n), key=lambda r: abs(M[r][i]))
        M[i], M[p] = M[p], M[i]
        for r in range(i + 1, n):
            f = M[r][i] / M[i][i]
            M[r] = [u - f * v for u, v in zip(M[r], M[i])]
    y = []
    for i in reversed(range(n)):
        y.insert(0, (M[i][n] - sum(a * v for a, v in zip(M[i][i + 1:n], y))) / M[i][i])
    return y


def _default_seed(branch_points):
    a1, b1, a2, b2 = branch_points
    return [
        ((b1 - a1) / 4) ** 2,
        ((b2 - a2) / 4) ** 2,
        (a1 + b1) / 2,
        (a2 + b2) / 2,
    ]


def chi_solve(branch_points, ctx):
    """Map parameters (A1, A2, B1, B2) whose critical values hit the branch points.

    One ``_map_solve`` from interval-based seeds.
    Returns (params, w_crit, residual).
    """
    with ctx.workprec():
        bp = tuple(mp.mpf(v) for v in branch_points)
        if not all(x < y for x, y in zip(bp, bp[1:])):
            raise SolveFailure("branch points must be strictly increasing")
        return _map_solve(_default_seed(bp), bp, ctx)


_FULL_MAP_CACHE = {}


def _full_map(geometry, ctx):
    """chi_solve on the full supports, once per (endpoints, bits).

    A geometry whose mirror image is cached is served from it: under x -> -x
    A1 and A2 swap, (B1, B2) -> (-B2, -B1) and the critical points reverse
    and change sign, each negation exact.
    """
    key = (geometry.as_tuple(), ctx.mantissa_bits)
    hit = _FULL_MAP_CACHE.get(key)
    if hit is None:
        mirror = _FULL_MAP_CACHE.get((geometry.mirrored().as_tuple(), ctx.mantissa_bits))
        if mirror is None:
            hit = chi_solve(geometry.as_tuple(), ctx)
        else:
            (A1, A2, B1, B2), w_crit, resid = mirror
            hit = ((A2, A1, mp.fneg(B2, exact=True), mp.fneg(B1, exact=True)),
                   tuple(mp.fneg(w, exact=True) for w in reversed(w_crit)), resid)
        _FULL_MAP_CACHE[key] = hit
    return hit


def critical_thresholds(geometry, ctx):
    """Regime thresholds c* < c** from the full-interval surface."""
    with ctx.workprec():
        params, w_crit, _ = _full_map(geometry, ctx)
        c_star = _mass_of_wstar(params, w_crit[1])
        c_dstar = _mass_of_wstar(params, w_crit[2])
        if not (0 < c_star < c_dstar < 1):
            raise SolveFailure("threshold ordering violated")
        return Thresholds(c_star, c_dstar)


def _closed_form_degenerate(geometry, ctx):
    """Exact limit constants at c = 0, where the first support collapses to alpha1.

    The c = 1 constants are these on the mirrored geometry (see ``curve``).
    """
    g = geometry
    with ctx.workprec():
        A2 = ((g.beta2 - g.alpha2) / 4) ** 2
        B2 = (g.beta2 + g.alpha2) / 2
        B1 = B2 + phi_map(g.alpha1, g.alpha2, g.beta2)
        sA = mp.sqrt(A2)
        return CurveData(
            c=mp.mpf(0), regime=PUSHED_LEFT, beta_c1=g.alpha1, alpha_c2=g.alpha2,
            A1=mp.mpf(0), A2=A2, B1=B1, B2=B2,
            w_crit=(B1, B1, B2 - sA, B2 + sA), w_star=B1, z_c=g.alpha1,
            solve_residual=mp.mpf(0), geometry=g)


# Below this fraction of c*, the pushed solve is seeded from the small-c laws;
# above it, from the full-geometry map, which is the pushed solution at c*.
SMALL_C_SEED_FRACTION = 0.25


def _pushed_left_solve(geometry, c, c_star, ctx):
    """The map solve in the pushed regime; returns (params, w_crit, residual).

    Three critical values target (alpha1, alpha2, beta2). The mass condition
    puts the h-zero w* = B1 + c (B2 - B1) on the critical point w2, where
    R'(w2) = 0 reads A1/c^2 + A2/(1 - c)^2 = (B2 - B1)^2; its row is that
    equation divided by (B2 - B1)^2. The pushed endpoint is beta = R(w2).
    For c < c*/4 the seed follows the small-c law A1 ~ (c |w2(alpha1)|)^2;
    otherwise it is the full-geometry map.
    """
    g = geometry
    if c < SMALL_C_SEED_FRACTION * c_star:
        W = abs(w_map(g.alpha1, g.alpha2, g.beta2))
        c0 = _closed_form_degenerate(g, ctx)
        x0 = [(c * W) ** 2, c0.A2, c0.B1, c0.B2]
    else:
        x0 = _full_map(g, ctx)[0]
    return _map_solve(x0, g.as_tuple(), ctx, c)


def _mass_row(x, c):
    """The pushed solve's mass row S/(B2 - B1)^2 - 1, S = A1/c^2 + A2/(1 - c)^2, and its
    Jacobian row, in the arithmetic of x and c."""
    A1, A2, B1, B2 = x
    D = B2 - B1
    S = A1 / c ** 2 + A2 / (1 - c) ** 2
    return S / D ** 2 - 1, [1 / (c * D) ** 2, 1 / ((1 - c) * D) ** 2, 2 * S / D ** 3, -2 * S / D ** 3]


def _mirror_curve(curve_data, geometry):
    """Pull a curve on the mirrored geometry back through x -> -x."""
    cd = curve_data
    w = tuple(sorted(-wj for wj in cd.w_crit))
    regime = {PUSHED_LEFT: PUSHED_RIGHT, PUSHED_RIGHT: PUSHED_LEFT, MIDDLE: MIDDLE}[cd.regime]
    return CurveData(
        c=1 - cd.c, regime=regime,
        beta_c1=-cd.alpha_c2, alpha_c2=-cd.beta_c1,
        A1=cd.A2, A2=cd.A1, B1=-cd.B2, B2=-cd.B1,
        w_crit=w, w_star=-cd.w_star, z_c=-cd.z_c,
        solve_residual=cd.solve_residual, geometry=geometry)


def curve(geometry, c, ctx, with_dc=True):
    """CurveData at ray parameter c in [0, 1]."""
    g = geometry
    with ctx.workprec():
        c = mp.mpf(c)
        if not (0 <= c <= 1):
            raise ValueError("c must lie in [0, 1]")
        if c == 0:
            return _closed_form_degenerate(g, ctx)
        if c == 1:
            return _mirror_curve(_closed_form_degenerate(g.mirrored(), ctx), g)
        th = critical_thresholds(g, ctx)
        if th.c_star <= c <= th.c_dstar:
            params, w_crit, resid = _full_map(g, ctx)
            w_star = params[2] + c * (params[3] - params[2])
            tol = mp.sqrt(ctx.solve_tolerance) * max(1, abs(w_crit[3]))
            if not (w_crit[1] - tol <= w_star <= w_crit[2] + tol):
                raise InternalInconsistency("mass point escaped the middle window")
            z_c = _R(w_star, params)
            if abs(c - th.c_star) <= ctx.solve_tolerance:
                z_c = g.beta1
            if abs(c - th.c_dstar) <= ctx.solve_tolerance:
                z_c = g.alpha2
            z_c = min(max(z_c, g.beta1), g.alpha2)
            return CurveData(c=c, regime=MIDDLE, beta_c1=g.beta1, alpha_c2=g.alpha2,
                             A1=params[0], A2=params[1], B1=params[2], B2=params[3],
                             w_crit=w_crit, w_star=w_star, z_c=z_c,
                             solve_residual=resid, geometry=g)
        if c < th.c_star:
            params, w_crit, resid = _pushed_left_solve(g, c, th.c_star, ctx)
            # R'(w2) = 0: beta is second order in the error of w2
            beta = _R(w_crit[1], params)
            if not (beta <= g.beta1 * (1 + ctx.solve_tolerance) + ctx.solve_tolerance):
                raise InternalInconsistency("pushed endpoint exceeded the interval")
            if with_dc:
                _, beta_chk = dc_oracle(g, c, ctx)
                if abs(beta_chk - beta) > mp.mpf(10) ** (-(ctx.mantissa_bits // 4)) * max(1, abs(beta)):
                    raise InternalInconsistency(
                        f"endpoint backends disagree: {mp.nstr(abs(beta_chk - beta), 5)}")
            return CurveData(c=c, regime=PUSHED_LEFT, beta_c1=beta, alpha_c2=g.alpha2,
                             A1=params[0], A2=params[1], B1=params[2], B2=params[3],
                             w_crit=w_crit, w_star=w_crit[1], z_c=beta,
                             solve_residual=resid, geometry=g)
        mirrored = curve(g.mirrored(), 1 - c, ctx, with_dc=with_dc)
        return _mirror_curve(mirrored, g)


# ---------------------------------------------------------------------------
# Discriminant-cubic backend for the pushed endpoint
# ---------------------------------------------------------------------------

def dc_oracle(geometry, c, ctx):
    """Pushed endpoint via the cubic-in-z discriminant structure.

    For c below the lower threshold the algebraic curve of h forces the cubic

        P(z) = 4 K^3 (z - d)^3 - sigma q(z),   q(z) = (z - a1)(z - a2)(z - b2),

    with K = 1 - c + c^2 and sigma = 27 (c - c^2)^2, to factor as
    L (z - s)(z - m)^2: a simple root s = beta_{c,1} and a double root m (a
    node of the curve), where L = 4 K^3 - sigma = u (81/4 - 18 u + 4 u^2) and
    u = (c - 1/2)^2. With e1, e2, e3 the symmetric functions of (a1, a2, b2),
    P(m) = P'(m) = 0 gives d = (e1 m^2 - 2 e2 m + 3 e3) / q'(m) and one
    scalar equation for the node,

        G(m) = 27 L q(m)^2 + sigma Delta(m) = 0,   Delta = 27 q^2 - q'^3,

    where the m^6 and m^5 terms of Delta cancel, so Delta is a quartic. In
    this split neither G nor G' = 54 L q q' + sigma Delta' cancels near c = 1/2.

    G = 0 reads q'^3/q^2 = 4 K^3 / (c - c^2)^2, which exceeds 27 for c != 1/2.
    With x_i = 1/(m - r_i) over the roots r_i of q, q'^3/q^2 = (sum x)^3 / prod x
    and d/dm log(q'^3/q^2) = ((sum x)^2 - 3 sum x^2) / sum x, whose numerator
    is negative by Cauchy-Schwarz. So q'^3/q^2 rises from 27 to infinity on
    (-inf, a1) and falls from infinity to 27 on (b2, inf): G has exactly one
    root on each side, bracketed by G(a1), G(b2) < 0 and G > 0 far out. The
    equations see c only through c - c^2 and K, so one of the two is the node
    of 1 - c: the node of c is the root left of a1 for c < 1/2 and the root
    right of b2 for c > 1/2. When c rounds to 1/2 (L = 0) the node is at
    infinity and d = e1/3.

    s is the one root of P in (d, beta1), where P(d) = -sigma q(d) < 0.
    RegimeError unless a1 < d < beta1 and P(beta1) > 0, which is what c at
    or beyond the lower threshold gives. Returns (d, s).

    All of this runs in the coordinate z - beta1, with d and s translated
    back at the end: about 0, e1, e2, e3 and Delta cancel once the endpoints
    lie far from the origin relative to their spread (narrow, close
    supports, or a translated geometry), while about beta1 the endpoints
    are of the size of that spread.
    """
    g = geometry
    with ctx.workprec():
        c = mp.mpf(c)
        if not (0 < c < 1):
            raise RegimeError("c must lie in (0, 1)")
        origin = g.beta1
        a1, a2, b2 = g.alpha1 - origin, g.alpha2 - origin, g.beta2 - origin
        e1 = a1 + a2 + b2
        e2 = a1 * a2 + a1 * b2 + a2 * b2
        e3 = a1 * a2 * b2
        half = mp.mpf(1) / 2
        u = (c - half) ** 2
        L = u * (mp.mpf(81) / 4 - 18 * u + 4 * u * u)
        sig = 27 * (c - c * c) ** 2
        delta = [27 * e2 - 9 * e1 ** 2, 8 * e1 ** 3 - 18 * e1 * e2 - 54 * e3,
                 54 * e1 * e3 + 18 * e2 ** 2 - 12 * e1 ** 2 * e2,
                 6 * e1 * e2 ** 2 - 54 * e2 * e3, 27 * e3 ** 2 - e2 ** 3]

        def q(z):
            return (z - a1) * (z - a2) * (z - b2)

        def qp(z):
            return (z - a2) * (z - b2) + (z - a1) * (z - b2) + (z - a1) * (z - a2)

        def G(m):
            return 27 * L * q(m) ** 2 + sig * mp.polyval(delta, m)

        def Gp(m):
            return 54 * L * q(m) * qp(m) + sig * mp.polyval(delta, m, derivative=True)[1]

        if L == 0:
            d = e1 / 3
        else:
            side, edge = (-1, a1) if c < half else (1, b2)
            # from the node's large-|m| law (m - e1/3)^2 ~ (e1^2 - 3 e2) sigma / (3 L),
            # doubled out to G > 0
            step = mp.sqrt((e1 * e1 - 3 * e2) * sig / (3 * L))
            while not G(edge + side * step) > 0:
                step *= 2
            far = edge + side * step
            tol = mp.ldexp(max(1, abs(far)), 4 - ctx.mantissa_bits)
            m = find_root(G, Gp, min(edge, far), max(edge, far), ctx, tol)
            d = (e1 * m * m - 2 * e2 * m + 3 * e3) / qp(m)

        def P(z):
            return (L + sig) * (z - d) ** 3 - sig * q(z)

        def Pp(z):
            return 3 * (L + sig) * (z - d) ** 2 - sig * qp(z)

        if not (a1 < d < 0 and P(0) > 0):
            raise RegimeError(
                f"no admissible node structure a1 < d < beta < beta1 at c={mp.nstr(c, 8)}; "
                "c is at or beyond the lower threshold")
        tol = mp.ldexp(max(1, abs(a1)), 4 - ctx.mantissa_bits)
        return origin + d, origin + find_root(P, Pp, d, 0, ctx, tol)


# ---------------------------------------------------------------------------
# Sheet evaluation of the inverse map and of h
# ---------------------------------------------------------------------------

def _double_roots(c2, c1, c0):
    """Roots of w^3 + c2 w^2 + c1 w + c0 in complex doubles, in closed form.

    In w = s t, s a power of two that brings every coefficient to modulus at
    most 1 (nothing overflows up to |z| = 1e300), with Q = (a^2 - 3b)/9 and
    R = (2a^3 - 9ab + 27c)/54 of t^3 + a t^2 + b t + c: the trigonometric
    form for real coefficients with R^2 < Q^3, Cardano otherwise. Real
    coefficients give real roots with imaginary part exactly 0. The seeds
    only pick the root that is polished and start its Newton, which ends
    where the fixed-point arithmetic, 24 bits below the context precision,
    resolves its step; another seed route (np.roots) moves a root by a few
    units of that arithmetic (at most 2^12, a 2^-12 ulp of 1, on the seed
    route test's points), so mostly a part near 0.
    """
    coeffs = [complex(v) for v in (c2, c1, c0)]
    size = max(abs(coeffs[0]), abs(coeffs[1]) ** 0.5, abs(coeffs[2]) ** (1 / 3))
    s = math.ldexp(1.0, math.frexp(size)[1]) if size else 1.0
    a, b, c = coeffs[0] / s, coeffs[1] / s / s, coeffs[2] / s / s / s
    Q = (a * a - 3 * b) / 9
    R = (2 * a * a * a - 9 * a * b + 27 * c) / 54
    if not any(v.imag for v in (a, b, c)):
        a, Q, R = a.real, Q.real, R.real
        if R * R < Q * Q * Q:
            theta = math.acos(max(-1.0, min(1.0, R / math.sqrt(Q * Q * Q))))
            return [complex(s * (-2 * math.sqrt(Q) * math.cos((theta + 2 * math.pi * k) / 3)
                                 - a / 3)) for k in range(3)]
        A = -math.copysign((abs(R) + math.sqrt(R * R - Q * Q * Q)) ** (1 / 3), R)
        B = Q / A if A else 0.0
        re, im = s * (-(A + B) / 2 - a / 3), s * math.sqrt(3) / 2 * (A - B)
        return [complex(s * (A + B - a / 3)), complex(re, im), complex(re, -im)]
    root = cmath.sqrt(R * R - Q * Q * Q)
    if (R.conjugate() * root).real < 0:
        root = -root
    A = -(R + root) ** (1 / 3)
    B = Q / A if A else 0j
    mid, half = -(A + B) / 2 - a / 3, 0.5j * math.sqrt(3) * (A - B)
    return [s * (A + B - a / 3), s * (mid + half), s * (mid - half)]


def _fixed(x, wp):
    """The mpf x in units of 2^-wp, rounded down."""
    return mp.libmp.to_fixed(x._mpf_, wp)


def _rounded(w, wp):
    """The fixed-point root w at the working precision, each part rounded once."""
    x, y = w
    re = mp.mpf((x, -wp))
    return re if y is None else mp.mpc(re, mp.mpf((y, -wp)))


def _cubic_roots(p, z, bits):
    """Roots of (w - z)(w - B1)(w - B2) + A1 (w - B2) + A2 (w - B1), and wp.

    p = (A1, A2, B1, B2) and z (an mpf for real z) go to integers in units
    of 2^-wp, wp = bits + 24, never coarser than the absolute floor
    2^-bits max(1, |coefficients|) of the residual check, and the
    coefficients are formed from those integers with one truncation each.
    The double-precision seed farthest from the other two (a real one when z
    is real) is polished by Newton on the integers; the other two roots come
    from the deflated quadratic in cancellation-free form. For real z every
    imaginary part is exactly 0, so the real roots are real and a complex
    pair is an exact conjugate pair. The roots are returned as fixed-point
    pairs, (X, Y) for X + iY in units of 2^-wp, Y None for a real root.
    mp.polyroots, on the same integer coefficients, is the last resort when
    a residual misses its target (from |z| of about 1e15 on, where the
    evaluation floor |z|^2 2^-wp of f at the root near z passes it); for
    real z its roots are likewise returned as real roots and at most one
    exact conjugate pair. Its extra precision, bits/2 + 2 log2 of the
    largest coefficient, covers the spread between the root near z and the
    two near the intervals, so that it converges at large |z| (probed to
    1e300 at 128 and 512 bits).
    """
    wp = bits + 24
    one = 1 << wp
    real_z = not isinstance(z, mp.mpc)
    if not mp.isfinite(z):
        raise DomainError("cubic coefficients are not finite in double precision")
    A1, A2, B1, B2 = (_fixed(v, wp) for v in p)
    zr, zi = (_fixed(z, wp), 0) if real_z else (_fixed(z.real, wp), _fixed(z.imag, wp))
    s, P = B1 + B2, B1 * B2
    c2 = -(s + zr), -zi
    c1 = ((P + zr * s) >> wp) + A1 + A2, (zi * s) >> wp
    c0 = -((zr * P + ((A1 * B2 + A2 * B1) << wp)) >> 2 * wp), -((zi * P) >> 2 * wp)

    def mul(a, b):
        return (a[0] * b[0] - a[1] * b[1]) >> wp, (a[0] * b[1] + a[1] * b[0]) >> wp

    def div(a, b):
        n = b[0] * b[0] + b[1] * b[1]
        return ((a[0] * b[0] + a[1] * b[1]) << wp) // n, ((a[1] * b[0] - a[0] * b[1]) << wp) // n

    def f(w):
        t = mul((w[0] + c2[0], w[1] + c2[1]), w)
        t = mul((t[0] + c1[0], t[1] + c1[1]), w)
        return t[0] + c0[0], t[1] + c0[1]

    def fp(w):
        t = mul((3 * w[0] + 2 * c2[0], 3 * w[1] + 2 * c2[1]), w)
        return t[0] + c1[0], t[1] + c1[1]

    def norm(w):
        return w[0] * w[0] + w[1] * w[1]

    # seeds of the cubic in u = w - o about the middle o of the poles, whose
    # coefficients f''(o)/2, f'(o), f(o) keep the roots' spread in doubles
    o = (B1 + B2) >> 1
    shifted = (c2[0] + 3 * o, c2[1]), fp((o, 0)), f((o, 0))
    try:
        doubles = [complex(x / one, y / one) for x, y in shifted]
    except OverflowError:
        raise DomainError("cubic coefficients are not finite in double precision") from None
    seeds = _double_roots(*(d.real if real_z else d for d in doubles))
    dist = [min(abs(s - t) for t in seeds[:i] + seeds[i + 1:]) for i, s in enumerate(seeds)]
    candidates = [i for i in range(3) if seeds[i].imag == 0] if real_z else range(3)
    seed = seeds[max(candidates, key=dist.__getitem__)]
    w = (o + _fixed(mp.mpf(seed.real), wp), 0 if real_z else _fixed(mp.mpf(seed.imag), wp))
    for _ in range(bits // 10 + 8):
        d = fp(w)
        if d == (0, 0):
            break
        dw = div(f(w), d)
        w = w[0] - dw[0], w[1] - dw[1]
        # |dw| <= 2^(8 - bits) (1 + |w|)
        if norm(dw) << 2 * (bits - 8) <= (one + math.isqrt(norm(w))) ** 2:
            break
    # deflate: w^2 + b w + cq is the cofactor of (w - root), cq and the
    # discriminant b^2 - 4 cq held in units of 2^-2wp. From the top, b = c2 + w
    # and cq = c1 + w b carry |w| times w's error; where w is the largest
    # root, |w|^2 > |cq|, they come from the bottom, cq = -c0/w and
    # b = (cq - c1)/w, which divide it by |w| (the two roots near the
    # poles at large |z|)
    if norm(w) ** 3 > norm(c0) << 4 * wp:
        cq = div((-c0[0] << wp, -c0[1] << wp), w)
        b = tuple(x >> wp for x in div((cq[0] - (c1[0] << wp), cq[1] - (c1[1] << wp)), w))
    else:
        b = w[0] + c2[0], w[1] + c2[1]
        cq = (c1[0] << wp) + w[0] * b[0] - w[1] * b[1], (c1[1] << wp) + w[0] * b[1] + w[1] * b[0]
    disc = b[0] * b[0] - b[1] * b[1] - 4 * cq[0], 2 * b[0] * b[1] - 4 * cq[1]
    if real_z and abs(disc[0]) << (bits - 8) <= b[0] * b[0] + 4 * abs(cq[0]):
        # a discriminant inside its rounding error: a branch point's double root
        pair = [(-b[0] >> 1, None)] * 2
    elif real_z and disc[0] < 0:
        half = math.isqrt(-disc[0]) >> 1
        pair = [(-b[0] >> 1, half), (-b[0] >> 1, -half)]
    else:
        # the principal square root, its larger part by isqrt and the other
        # by division, then the sign that adds it to b without cancellation
        m = math.isqrt(norm(disc))
        if disc[0] >= 0:
            re = math.isqrt((m + disc[0]) >> 1)
            sq = re, disc[1] // (2 * re) if re else 0
        else:
            im = math.isqrt((m - disc[0]) >> 1) * (1 if disc[1] >= 0 else -1)
            sq = disc[1] // (2 * im), im
        if b[0] * sq[0] + b[1] * sq[1] < 0:
            sq = -sq[0], -sq[1]
        q = -(b[0] + sq[0]) >> 1, -(b[1] + sq[1]) >> 1
        pair = [q, div((cq[0] >> wp, cq[1] >> wp), q) if q != (0, 0) else q]
        if real_z:
            pair = [(x, None) for x, _ in pair]
    roots = [(w[0], None if real_z else w[1])] + pair
    # |f(r)| <= 2^(24 - bits) max(1, |c2|, |c1|, |c0|)
    scale = max(one * one, norm(c2), norm(c1), norm(c0))
    if all(norm(f((x, y or 0))) << 2 * (bits - 24) <= scale for x, y in roots):
        return roots, wp
    # polyroots on the same coefficients, exact, at wp bits and its extra precision
    extra = bits // 2 + 2 * ((scale.bit_length() + 1) // 2 - wp)
    with mp.workprec(wp + extra):
        coeffs = [mp.mpf(1)] + [mp.mpf((x, -wp)) if real_z else mp.mpc((x, -wp), (y, -wp))
                                for x, y in (c2, c1, c0)]
    with mp.workprec(wp):
        roots = mp.polyroots(coeffs, maxsteps=200, extraprec=extra)
    if not real_z:
        return [(_fixed(mp.re(r), wp), _fixed(mp.im(r), wp)) for r in roots], wp
    # real coefficients: the root nearest the axis is real, and the other two
    # are real or an exact conjugate pair, as their spread says
    w, u, v = sorted(roots, key=lambda r: abs(mp.im(r)))
    roots = [(_fixed(mp.re(r), wp), None) for r in (w, u, v)]
    if abs(mp.im(u - v)) > abs(mp.re(u - v)):
        half = _fixed(abs(mp.im(u)), wp)
        roots[1:] = [(roots[1][0], half), (roots[1][0], -half)]
    return roots, wp


def _sheet_labels(curve_data, z, bits):
    """chi_eval's labels {sheet: root} as fixed-point roots, and wp."""
    z = mp.mpc(z)
    if z.imag < 0:
        labels, wp = _sheet_labels(curve_data, mp.conj(z), bits)
        return {k: (x, y and -y) for k, (x, y) in labels.items()}, wp
    real_z = z.imag == 0
    A1, A2, B1, B2 = p = curve_data.params()
    roots, wp = _cubic_roots(p, z.real if real_z else z, bits)
    one = 1 << wp
    poles = [(A, (_fixed(B, wp), None)) for A, B in ((A1, B1), (A2, B2))]

    def gap2(u, v=(0, None)):
        return (u[0] - v[0]) ** 2 + ((u[1] or 0) - (v[1] or 0)) ** 2

    out = {}
    for k, (A, B) in zip((1, 2), poles):
        if A == 0:
            out[k] = roots.pop(min(range(len(roots)), key=lambda i: gap2(roots[i], B)))
    # |u - v| <= 2^(4 - bits/2) max(1, |u|, |v|)
    if not real_z and any(gap2(u, v) << 2 * (bits // 2 - 4) <= max(one * one, gap2(u), gap2(v))
                          for i, u in enumerate(roots) for v in roots[:i]):
        raise ClassificationError("two roots closer than the square-root rounding floor; "
                                  "Im z is too small this near a branch point")
    roots.sort(key=lambda w: w[1] or 0, reverse=True)
    if (roots[0][1] or 0) == (roots[1][1] or 0):
        # the least S(w), in units of 2^-wp; a root within 2^-wp of a pole
        # has the largest
        roots.sort(key=lambda w: sum((_fixed(A, wp) << 2 * wp) // max(1, gap2(w, B))
                                     for A, B in poles if A))
    out[0] = roots[0]
    out.update(zip((k for k in (1, 2) if k not in out), sorted(roots[1:], key=lambda w: w[0])))
    return out, wp


def chi_eval(curve_data, z, ctx):
    """Sheet-labeled values of the inverse of R at z.

    Returns {0: w, 1: w, 2: w}. Im z < 0 gives the conjugates of the values
    at conj(z). For Im z >= 0 the three roots are polished once and labeled
    by one rule, from S(w) = A1/|w - B1|^2 + A2/|w - B2|^2, with
    Im R(w) = Im w (1 - S(w)) and, on the real line, R'(w) = 1 - S(w):

    - a collapsed sheet (A_k = 0, at c = 0 or 1) is the root nearest B_k,
      since chi^(k) = B_k there;
    - chi^(0) is the root with the largest Im w: the one root above the
      real axis, and on a cut the upper member of the conjugate pair, the
      limit from above (each label's conjugate is the limit from below);
    - if that is tied, all roots are real (off the cuts, or at a branch
      point), and chi^(0) is the root with the least S, the one real root
      where R' > 0;
    - chi^(1) and chi^(2) are the other two roots by increasing real part:
      S < 1 on the line Re w = wm through the zero of R'' between the poles,
      so chi^(1) lies left of it and chi^(2) right of it.

    The roots and every comparison of the rule are exact operations on
    `_cubic_roots`' fixed-point integers, 24 bits below the context
    precision; each part of each value is rounded to the context precision
    once, at the end. On a cut the tie-break is exact: `_cubic_roots`
    returns an exact conjugate pair at real z, however narrow the support.
    At a branch point the merged root is labeled by whichever of its two
    computed copies the rule picks; both are within the square-root
    rounding floor of it (the cube root at the triple point of c = 0 or 1).

    Domain: every z whose cubic has finite coefficients in double precision
    (DomainError otherwise); every real z is labeled. ClassificationError is
    raised for Im z > 0 when two roots u, v of uncollapsed sheets lie within
    2^(4 - bits/2) max(1, |u|, |v|) of each other, the square-root rounding
    floor below which the roots near a branch point do not resolve the sign
    of Im w. Directly above a branch point that is Im z below about
    2^(10 - bits) on the reference geometry. Each pair is held to its own
    size, so the root near a large z does not widen the floor of the two
    near the intervals.
    """
    with ctx.workprec():
        labels, wp = _sheet_labels(curve_data, z, ctx.mantissa_bits)
        return {k: _rounded(w, wp) for k, w in labels.items()}


def h_eval_w(curve_data, w, wp):
    """h at the fixed-point root w (units of 2^-wp), with exact cancellation of the pinned zero.

    Numerator and denominator are exact products of integers; each part of
    their quotient is rounded once, to the working precision. DomainError
    when w is within 2^(16-prec) max(1, |w_j|) of a critical point w_j left
    in the denominator: a pole of h, over a hard edge.
    """
    num = [curve_data.B1, curve_data.B2, curve_data.w_star]
    den = list(curve_data.w_crit)
    # cancel every divisor zero that sits at a ramification point: one in
    # general, two at the triple point w1 = w2 = w* = B1 (c = 0; B2 at c = 1)
    for wn in list(num):
        if wn in den:
            num.remove(wn)
            den.remove(wn)
    x, y = w[0], w[1] or 0
    nr, ni = 1, 0
    for wn in num:
        d = x - _fixed(wn, wp)
        nr, ni = nr * d - ni * y, nr * y + ni * d
    dr, di = 1, 0
    for wd in den:
        W = _fixed(wd, wp)
        d = x - W
        # z one ulp or more off a branch point puts w about sqrt(eps) from it
        if (d * d + y * y) << 2 * (mp.mp.prec - 16) <= max(1 << 2 * wp, W * W):
            raise DomainError("w is a critical point of R, a pole of h (a hard edge)")
        dr, di = dr * d - di * y, dr * y + di * d
    # h = N conj(D) / |D|^2, N in units of 2^-(wp len(num)) and D of 2^-(wp len(den))
    shift, q = wp * (len(den) - len(num)), dr * dr + di * di
    return mp.mpc(mp.fdiv((nr * dr + ni * di) << shift, q),
                  mp.fdiv((ni * dr - nr * di) << shift, q))


def h_branch(curve_data, z, sheet, ctx):
    """Branch value h^(sheet)(z) = h(chi^(sheet)(z)), on a cut the limit from above.

    On the sheet of a collapsed support (A_sheet = 0, at c = 0 or 1) the
    measure mu_sheet is zero, so h^(sheet) = -C_{mu_sheet} is exactly 0.
    chi^(sheet)(z) enters h as chi_eval's fixed-point root, before rounding.
    """
    if sheet not in (0, 1, 2):
        raise ValueError("sheet must be 0, 1, or 2")
    with ctx.workprec():
        if sheet and curve_data.params()[sheet - 1] == 0:
            return mp.mpc(0)
        labels, wp = _sheet_labels(curve_data, z, ctx.mantissa_bits)
        return h_eval_w(curve_data, labels[sheet], wp)


# ---------------------------------------------------------------------------
# Equilibrium measures
# ---------------------------------------------------------------------------

EQ_WORK_BITS = 160  # precision cap for the densities and masses
EQ_FLOOR_BITS = 20  # mass floor 2^(EQ_FLOOR_BITS - W); 2^(16.6 - W) the worst measured


def _mass_nodes(work_bits):
    """Gauss nodes per half-support for the masses: 8 ceil(W/32) at W working bits."""
    return 8 * -(-work_bits // 32)


def equilibrium(curve_data, ctx):
    """Densities, masses, variational constants from the boundary values of h.

    Densities are Im h^(i) on the upper side of each cut divided by pi. Their
    masses are Gauss sums after x = endpoint +- t^2, which absorbs the
    inverse-square-root edges, at W = min(bits, EQ_WORK_BITS) working bits
    with 8 ceil(W/32) nodes per half-support (32 at 128 bits, 40 at 129-160).
    In t the nearest singularity of the integrand is the far edge, so the
    rule converges at the same rate on every support, to about 2^(-7W/8).

    The density samples run W + 2 log2(scale/width) bits, with width that of
    the narrowest support that has not collapsed and scale the largest
    endpoint modulus: that many bits cancel in the on-cut pair's discriminant
    b^2 - 4cq there, so even the node nearest an edge of a 1e-19-wide pushed
    support reads its density. A point within 2^(16 - bits) scale of an
    endpoint is sampled at W bits, where the curve data's own branch point
    decides: the density is 0 at a soft (pushed) edge and raises DomainError
    at a hard edge, where it is infinite.

    The masses certify the residues r1 = (B1 - w*)/(B1 - B2) = c and
    r2 = 1 - r1 of h R' = r1/(w - B1) + r2/(w - B2): within mass_floor =
    2^(EQ_FLOOR_BITS - W) of themselves. Only where the data's branch points
    sit a visible fraction of the width off the stored endpoints is it more
    (6.9e-22 of itself at c = 1e-15 and 128 bits on [-2,-1] u [1,2], where
    R(w1) is 5.9e-39 off a 1.4e-14-wide support). InternalInconsistency is
    raised for a mass off (c, 1 - c) by 1e-6 of itself, or for a density
    below -1e-12. A collapsed support (zero mass) is skipped.

    Integrating h^(i) = -C_{mu_i} through z = R(w), with
    V^{mu_i}(x) + r_i log|x| -> 0 at infinity, gives each potential in
    closed form, single-valued, by one chi_eval at context bits:

        V^{mu_i}(x) = sum_k r_k log|chi^(i)(x) - B_k| - r_i log A_i - r_j log|B1 - B2|.
    """
    cd = curve_data
    supports = cd.supports()
    wctx = PrecisionContext(min(ctx.mantissa_bits, EQ_WORK_BITS))
    with ctx.workprec():
        scale = max(1, abs(supports[0][0]), abs(supports[1][1]))
        width = min(b - a for a, b in supports if b - a > ctx.solve_tolerance)
        dctx = PrecisionContext(wctx.mantissa_bits + 2 * max(0, mp.mag(scale / width)))
        at_edge = mp.ldexp(scale, 16 - ctx.mantissa_bits)

    def density(i):
        edges = supports[i - 1]

        def f(x):
            with dctx.workprec():
                x = mp.mpf(x)
                sctx = wctx if min(abs(x - e) for e in edges) <= at_edge else dctx
            with sctx.workprec():
                h = h_branch(cd, x, i, sctx)
                v = h.imag / mp.pi
                if v < mp.mpf("-1e-12"):
                    raise InternalInconsistency(f"negative density {mp.nstr(v, 5)} at x={x}")
                return max(v, mp.mpf(0))
        return f

    d1, d2 = density(1), density(2)
    nodes, weights = gauss_legendre(_mass_nodes(wctx.mantissa_bits), wctx)

    def mass_of(i, f):
        # split at the midpoint and substitute x = edge ± t^2 at each end
        a, b = supports[i - 1]
        with dctx.workprec():
            if b - a <= ctx.solve_tolerance:
                return mp.mpf(0)
            total = mp.mpf(0)
            for edge, sgn in ((a, 1), (b, -1)):
                tmax = mp.sqrt((b - a) / 2)
                for t, w in zip(nodes, weights):
                    tt = tmax * (t + 1) / 2
                    total += tmax * tt * w * f(edge + sgn * tt * tt)
            return total

    m1 = mass_of(1, d1)
    m2 = mass_of(2, d2)
    with wctx.workprec():
        expect = (cd.c, 1 - cd.c)
        for got, want in zip((m1, m2), expect):
            if abs(got - want) > mp.mpf("1e-6") * want:
                raise InternalInconsistency(
                    f"equilibrium mass {mp.nstr(got, 10)} far from {mp.nstr(want, 10)}")

    with ctx.workprec():
        B = (cd.B1, cd.B2)
        r1 = _mass_of_wstar(cd.params(), cd.w_star)
        r = (r1, 1 - r1)
        log_gap = mp.log(abs(cd.B1 - cd.B2))
        # the constant of V^{mu_i} on each sheet whose support has not collapsed
        offsets = {i + 1: r[i] * mp.log(A) + r[1 - i] * log_gap
                   for i, ((a, b), A) in enumerate(zip(supports, (cd.A1, cd.A2)))
                   if b - a > ctx.solve_tolerance}

    def potential(z, coeff1=1, coeff2=1):
        """V^{coeff1 mu_1 + coeff2 mu_2}(z) = -sum coeff_i int log|z-t| d mu_i, z real."""
        with ctx.workprec():
            chi = chi_eval(cd, mp.mpf(z), ctx)
            total = mp.mpf(0)
            for sheet, coeff in ((1, coeff1), (2, coeff2)):
                if coeff and sheet in offsets:
                    v = sum(rk * mp.log(abs(chi[sheet] - Bk)) for rk, Bk in zip(r, B))
                    total += coeff * (v - offsets[sheet])
            return total

    with ctx.workprec():
        x1 = (supports[0][0] + supports[0][1]) / 2
        x2 = (supports[1][0] + supports[1][1]) / 2
        ell1 = potential(x1, 2, 1)
        ell2 = potential(x2, 1, 2)
    return EquilibriumData(density1=d1, density2=d2, masses=(m1, m2),
                           mass_floor=mp.ldexp(1, EQ_FLOOR_BITS - wctx.mantissa_bits),
                           ell1=ell1, ell2=ell2, potential=potential)


# ---------------------------------------------------------------------------
# Discrete-charge energy oracle (machine precision)
# ---------------------------------------------------------------------------

def energy_oracle(geometry, c, n_particles=400):
    """Best-effort endpoints by minimizing the discrete interaction energy.

    round(c N) charges of total mass c live on the first interval, the rest
    on the second; the energy is the continuum functional with self-pairs
    excluded, which is convex in the ordered positions. It is minimized by
    projected Newton (Bertsekas 1982): the Hessian is a weighted graph
    Laplacian, regularized by 1e-10 of its mean diagonal against the
    translation mode; particles on a bound whose gradient points out of the
    box are held there, and step halving keeps the energy strictly
    decreasing until no halving decreases it.

    Endpoints are read off the extreme particles and, since the extreme
    particle of a soft (pushed) edge sits O(n_i^{-2/3}) inside the support,
    also from a quantile fit of the whole cloud against the edge-exponent
    density model (1 + gamma (x - hard)) sqrt(|soft - x| / |x - hard|).
    """
    import numpy as np

    g = geometry
    a1, b1 = float(g.alpha1), float(g.beta1)
    a2, b2 = float(g.alpha2), float(g.beta2)
    c = float(c)
    n1 = max(1, int(round(c * n_particles)))
    n2 = max(1, n_particles - n1)
    u, v = c / n1, (1 - c) / n2

    # arcsine-quantile initial clouds; the first one starts inside the
    # window allowed by the coarse endpoint bracket
    q1 = (np.arange(n1) + 0.5) / n1
    q2 = (np.arange(n2) + 0.5) / n2
    w1 = min(b1 - a1, 4 * c / (1 - c) * (a2 - b1)) if c < 1 else b1 - a1
    x = a1 + w1 / 2 + w1 / 2 * np.cos(np.pi * (1 - q1))
    y = (a2 + b2) / 2 + (b2 - a2) / 2 * np.cos(np.pi * (1 - q2))

    # the energy is -sum_{i != j} W_ij log|z_i - z_j| over the joint positions
    # z, with W_ij = kappa m_i m_j, kappa = 2 within an interval and 1 across
    side = np.repeat([0, 1], [n1, n2])
    lower, upper = np.array([a1, a2])[side], np.array([b1, b2])[side]
    m = np.array([u, v])[side]
    W = np.outer(m, m) * np.where(side[:, None] == side, 2, 1)
    np.fill_diagonal(W, 0.0)

    def energy(z):
        d = np.abs(z[:, None] - z[None, :])
        np.fill_diagonal(d, 1.0)
        return np.inf if d.min() < 1e-300 else float(-(W * np.log(d)).sum())

    z = np.r_[x, y]
    e = energy(z)
    trace = [e]
    while True:
        d = z[:, None] - z[None, :]
        np.fill_diagonal(d, 1.0)
        grad = -2 * (W / d).sum(axis=1)
        H = -2 * W / (d * d)
        np.fill_diagonal(H, -H.sum(axis=1))
        free = ~(((z <= lower) & (grad > 0)) | ((z >= upper) & (grad < 0)))
        Hf = H[np.ix_(free, free)]
        Hf[np.diag_indices_from(Hf)] += 1e-10 * Hf.diagonal().mean()
        step = np.zeros_like(z)
        step[free] = np.linalg.solve(Hf, -grad[free])
        for lam in 0.5 ** np.arange(60):
            zn = z + lam * step
            zn = np.clip(np.r_[np.sort(zn[:n1]), np.sort(zn[n1:])], lower, upper)
            en = energy(zn)
            if en < e:
                z, e = zn, en
                break
        else:
            break
        trace.append(e)

    def quantile_edge_fit(cloud, hard_edge, far_end):
        """Soft-edge location from the cloud's empirical quantiles.

        The model's cumulative mass is linear in a = gamma * width, so two
        interpolations serve the whole (width, gamma) grid.
        """
        pts = np.sort(np.abs(np.asarray(cloud) - hard_edge))
        n = len(pts)
        targets = (np.arange(1, n + 1) - 0.5) / n
        lo = pts[-1] * (1 + 1e-9)
        hi = abs(far_end - hard_edge)
        if lo >= hi:
            return far_end
        ts = np.linspace(0, 1, 4001)
        base = np.sqrt(np.clip(1 - ts, 0, None) / np.clip(ts, 1e-12, None))
        base[0] = base[1]
        C0, C1 = (np.r_[0.0, np.cumsum((f[1:] + f[:-1]) / 2)] for f in (base, ts * base))
        widths = np.linspace(lo, hi, 500)
        s = pts / widths[:, None]
        I0, I1 = np.interp(s, ts, C0), np.interp(s, ts, C1)
        a = widths[:, None] * np.linspace(-1.5, 1.5, 31)
        M = (I0[:, None, :] + a[:, :, None] * I1[:, None, :]) / (C0[-1] + a * C1[-1])[:, :, None]
        sse = ((M - targets) ** 2).sum(axis=2)
        sse[1 + a / 2 < 0] = np.inf
        best = widths[np.nanargmin(sse) // sse.shape[1]]
        return hard_edge + np.sign(far_end - hard_edge) * best

    x, y = z[:n1], z[n1:]
    beta_raw, alpha_raw = float(x.max()), float(y.min())
    beta_fit = min(quantile_edge_fit(x, a1, b1), b1)
    alpha_fit = max(quantile_edge_fit(y, b2, a2), a2)
    return {
        "beta_c1": beta_fit,
        "alpha_c2": alpha_fit,
        "beta_c1_raw": beta_raw,
        "alpha_c2_raw": alpha_raw,
        "energy": e,
        "energy_trace": trace,
        "n1": n1,
        "n2": n2,
        "tolerance_note": ("raw extreme-particle readings carry O(1/N) error at hard "
                           "edges and O(n_i^{-2/3}) at soft edges; the quantile fit "
                           "removes the soft-edge bias"),
    }


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

DIGITS = 30  # significant digits of every written constant


def curve_to_json(curve_data, thresholds):
    """JSON text of the constants at DIGITS significant digits.

    The solve residual is written to 3 digits, and never below the resolution
    of the written constants, 10^-DIGITS of the geometry's scale: below it the
    residual is rounding noise that differs between two solves of the same
    curve, so the bytes change only when a constant or the certificate does.
    For the same reason a position (an endpoint, B1, B2 or z_c) within the
    resolution of 0 is written as 0; A1 and A2 are masses, legitimately tiny
    at small c, and are written as they are.
    """
    cd = curve_data
    g = cd.geometry
    resolution = mp.mpf(10) ** -DIGITS * max(1, *(abs(v) for v in g.as_tuple()))

    def s(v, digits=DIGITS):
        return mp.nstr(v, digits)

    def position(v):
        return s(mp.mpf(0) if abs(v) <= resolution else v)

    doc = {
        "c": s(cd.c),
        "geometry": [s(v) for v in g.as_tuple()],
        "regime": cd.regime,
        "c_star": s(thresholds.c_star),
        "c_dstar": s(thresholds.c_dstar),
        "beta_c1": position(cd.beta_c1),
        "alpha_c2": position(cd.alpha_c2),
        "A1": s(cd.A1),
        "A2": s(cd.A2),
        "B1": position(cd.B1),
        "B2": position(cd.B2),
        "z_c": position(cd.z_c),
        "residual": s(max(cd.solve_residual, resolution), 3),
    }
    return json.dumps(doc, sort_keys=True, indent=2)
