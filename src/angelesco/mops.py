"""Multiple orthogonal polynomials for a two-interval system.

Moments, type I/II polynomials from dense moment solves, zero localization,
the two remainder functions whose large-z decay exponents certify the
orthogonality counts, and the nearest-neighbor recurrence coefficients from
an O(L^2) sweep of the compatibility relations, certified by orthogonality.
The sweep (Stieltjes marginals, compatibility relations, certificate walks)
runs on fixed-point Python integers; mpf values enter and leave at its edges.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb

import mpmath as mp

from .errors import (
    DomainError,
    InternalInconsistency,
    InvalidWeight,
    NormalityFailure,
    SingularSystem,
    ZeroLocationFailure,
)
from .precision import Poly, PrecisionContext, find_root, gauss_legendre, solve_dense


@dataclass(frozen=True)
class Geometry:
    """Endpoints alpha1 < beta1 < alpha2 < beta2 of the two intervals."""

    alpha1: mp.mpf
    beta1: mp.mpf
    alpha2: mp.mpf
    beta2: mp.mpf

    def __post_init__(self):
        for name in ("alpha1", "beta1", "alpha2", "beta2"):
            v = getattr(self, name)
            if not isinstance(v, mp.mpf):
                object.__setattr__(self, name, mp.mpf(v))
        if not (self.alpha1 < self.beta1 < self.alpha2 < self.beta2):
            raise ValueError("need alpha1 < beta1 < alpha2 < beta2")

    def interval(self, i):
        return (self.alpha1, self.beta1) if i == 1 else (self.alpha2, self.beta2)

    def as_tuple(self):
        return (self.alpha1, self.beta1, self.alpha2, self.beta2)

    def mirrored(self):
        """Image under x -> -x, which swaps the two intervals; exact at any precision."""
        return Geometry(*(mp.fneg(v, exact=True) for v in reversed(self.as_tuple())))


def reference_geometry():
    """The shared example geometry: [-2,-1] and [1,2]."""
    return Geometry(mp.mpf(-2), mp.mpf(-1), mp.mpf(1), mp.mpf(2))


@dataclass(frozen=True)
class WeightSpec:
    """Density of one orthogonality measure.

    kind: 'const' (density 1), 'poly' (positive polynomial), or 'exppoly'
    (exp of a polynomial). coeffs are ascending; interval is 1 or 2.
    """

    kind: str
    coeffs: tuple = ()
    interval: int = 1

    def __post_init__(self):
        if self.kind not in ("const", "poly", "exppoly"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.interval not in (1, 2):
            raise ValueError("interval must be 1 or 2")
        object.__setattr__(self, "coeffs", tuple(str(c) for c in self.coeffs))

    def poly_part(self):
        return Poly([mp.mpf(c) for c in self.coeffs])

    def poly_degree(self):
        return max(self.poly_part().degree, 0)

    def density(self, x):
        if self.kind == "const":
            return mp.mpf(1)
        val = self.poly_part()(x)
        return mp.exp(val) if self.kind == "exppoly" else val

    def validate(self, geometry):
        """Check that a 'poly' density is positive on [a - L/10, b + L/10], L = b - a.

        Exact, in Fractions of the decimal coefficients and of the endpoints.
        """
        if self.kind in ("const", "exppoly"):
            return
        a, b = (_fraction(v) for v in geometry.interval(self.interval))
        if not _positive_on([Fraction(c) for c in self.coeffs], a - (b - a) / 10, b + (b - a) / 10):
            raise InvalidWeight("polynomial density is not positive near its interval")


POSITIVITY_DEPTH = 64  # de Casteljau halvings before an undecided weight is refused


def _fraction(v):
    """The exact value of a finite mpf."""
    sign, man, exp, _ = v._mpf_
    return (-1) ** sign * man * Fraction(2) ** exp


def _positive_on(coeffs, lo, hi):
    """Whether the polynomial with ascending coefficients is positive on [lo, hi].

    Its Bernstein coefficients on [lo, hi] are halved by de Casteljau steps: a
    piece whose coefficients are all positive is accepted, and the answer is
    no once a piece has an end value <= 0 or POSITIVITY_DEPTH halvings leave
    one undecided.
    """
    coeffs = coeffs or [Fraction(0)]
    q = [coeffs[-1]]  # power coefficients of p(lo + (hi - lo) t), by Horner
    for c in reversed(coeffs[:-1]):
        q = [c + lo * q[0]] + [lo * x + (hi - lo) * y for x, y in zip(q[1:], q)] + [(hi - lo) * q[-1]]
    n = len(q) - 1
    bern = [sum(Fraction(comb(i, k), comb(n, k)) * q[k] for k in range(i + 1)) for i in range(n + 1)]
    pieces = [(bern, 0)]
    while pieces:
        bern, depth = pieces.pop()
        if min(bern) > 0:
            continue
        if bern[0] <= 0 or bern[-1] <= 0 or depth == POSITIVITY_DEPTH:
            return False
        left, right = [], []
        while bern:
            left.append(bern[0])
            right.append(bern[-1])
            bern = [(x + y) / 2 for x, y in zip(bern, bern[1:])]
        pieces += [(left, depth + 1), (right[::-1], depth + 1)]
    return True


def lebesgue_weights():
    return (WeightSpec("const", interval=1), WeightSpec("const", interval=2))


@dataclass(frozen=True)
class MultiIndex:
    n1: int
    n2: int

    def __post_init__(self):
        if self.n1 < 0 or self.n2 < 0:
            raise ValueError("multi-index entries must be nonnegative")

    @classmethod
    def of(cls, n):
        """n itself, or the MultiIndex of an (n1, n2) pair."""
        return n if isinstance(n, cls) else cls(*n)

    @property
    def norm(self):
        return self.n1 + self.n2

    def plus(self, j):
        return MultiIndex(self.n1 + (j == 1), self.n2 + (j == 2))

    def minus(self, j):
        return MultiIndex(self.n1 - (j == 1), self.n2 - (j == 2))

    def component(self, i):
        return self.n1 if i == 1 else self.n2

    def as_pair(self):
        return (self.n1, self.n2)


@dataclass(frozen=True)
class MopSolution:
    """Monic type II polynomial at one multi-index. Its type I partner is solved
    from the same moments on first use, so P_n stays available where only the
    type I system is singular."""

    index: MultiIndex
    p_monic: Poly
    h1: mp.mpf
    h2: mp.mpf
    p_residual: mp.mpf
    mom_pair: tuple = field(repr=False, compare=False)
    ctx: PrecisionContext = field(repr=False, compare=False)

    @cached_property
    def type1(self):
        """(A^(1) or None, A^(2) or None, residual): ``type1_mop`` on the same moments."""
        if self.index.norm == 0:
            return None, None, mp.mpf(0)
        return type1_mop(self.index, self.mom_pair, self.ctx)

    a1_poly = property(lambda self: self.type1[0])
    a2_poly = property(lambda self: self.type1[1])
    residual = property(lambda self: max(self.type1[2], self.p_residual))

    def h(self, i):
        return self.h1 if i == 1 else self.h2

    def a_poly(self, i):
        return self.a1_poly if i == 1 else self.a2_poly


def moments(weight, geometry, k_max, ctx):
    """Moments m_k = integral of x^k against the measure, k = 0..k_max.

    Exact (to context precision) for 'const'/'poly' kinds; for 'exppoly' the
    node count 64 + 2*(k_max + deg) gives super-exponential headroom.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    weight.validate(geometry)
    with ctx.workprec():
        a, b = geometry.interval(weight.interval)
        deg = weight.poly_degree()
        if weight.kind == "exppoly":
            m = 64 + 2 * (k_max + deg)
        else:
            m = (k_max + deg + 2 + 1) // 2 + 1
        nodes, gl_weights = gauss_legendre(m, ctx)
        half, mid = (b - a) / 2, (b + a) / 2
        xs = [mid + half * t for t in nodes]
        dens = [weight.density(x) for x in xs]
        out = []
        powers = [mp.mpf(1)] * len(xs)
        for _ in range(k_max + 1):
            out.append(half * mp.fsum(w * d * p for w, d, p in zip(gl_weights, dens, powers)))
            powers = [p * x for p, x in zip(powers, xs)]
        return out


def _to_fixed(v, w):
    """v 2^w for a finite mpf v, rounded to an integer half away from zero (so
    -v gives the negative)."""
    sign, man, exp, _ = v._mpf_
    e = exp + w
    x = man << e if e >= 0 else (man + (1 << (-e - 1))) >> -e
    return -x if sign else x


def _shift(x, k):
    """x 2^k, floored."""
    return x << k if k >= 0 else x >> -k


def _rescale(lanes, s):
    """Entry k of every lane times 2^-s[k], floored."""
    return [[u >> k if k >= 0 else u << -k for u, k in zip(lane, s)] for lane in lanes]


def _div(x, y):
    """x / y rounded to the nearest integer, for y > 0."""
    return (2 * x + y) // (2 * y)


def _weight_scale(lams, w):
    """The lams as integers, scaled by a common power of two so the smallest keeps w bits."""
    low = min(mp.mag(lam) for lam in lams)
    return [_to_fixed(lam, w - low) for lam in lams]


_mul = int.__mul__


def _stieltjes(ts, lams, level, wp):
    """Monic Jacobi coefficients (alpha_k, beta_k), k <= level, of the measure
    sum lam_i delta(t_i) on [-1, 1], as integers times 2^wp (beta_0 = 0).

    The loop runs on fixed-point integers: t_i and alpha are scaled by 2^wp,
    q_k = 2^k p_k (O(1) on [-1, 1]) by 2^wp times one shared power of two, and
    each lam_i by the power of two that gives the smallest lam wp bits. The
    norms sum lam q_k^2 and moments sum lam q_k^2 t are exact integers; only
    the recurrence q_{k+1} = 2 (t - alpha_k) q_k - 4 beta_k q_{k-1} (floored)
    and the two quotients (rounded) lose, each under one unit of 2^-wp. A
    norm whose length drifts 64 bits from its start rescales q_k and q_{k-1}
    together, so no weight's dynamic range under- or overflows."""
    T, L = [_to_fixed(t, wp) for t in ts], _weight_scale(lams, wp)
    target = sum(L).bit_length() + 2 * wp
    Q, Qp = [1 << wp] * len(T), [0] * len(T)  # q_k and q_{k-1}, one scale
    alphas, betas, N_prev = [], [], None
    for k in range(level + 1):
        S = list(map(_mul, L, map(_mul, Q, Q)))
        N, d = sum(S), 0
        if abs(N.bit_length() - target) > 64:
            d = (N.bit_length() - target) // 2
            Q, Qp = [_shift(q, -d) for q in Q], [_shift(q, -d) for q in Qp]
            S = list(map(_mul, L, map(_mul, Q, Q)))
            N = sum(S)
        A = _div(sum(map(_mul, S, T)), N)
        B = _div(_shift(N, wp + 2 * d - 2), N_prev) if k else 0
        alphas.append(A)
        betas.append(B)
        if k < level:
            Q, Qp = [((t - A) * q - 2 * B * u) >> (wp - 1) for t, q, u in zip(T, Q, Qp)], Q
        N_prev = N
    return alphas, betas


def jacobi_marginal(weight, geometry, level, ctx):
    """(xs, lams, alphas, betas): the m-point Gauss-Legendre discretisation
    of the measure and its monic Jacobi coefficients, x p_k = p_{k+1} +
    alphas[k] p_k + betas[k] p_{k-1} for k <= level (betas[0] = 0), by
    Stieltjes' procedure (Gautschi 2004) on t in [-1, 1], where a symmetric
    density gives alpha_k = 0 exactly (the rounded quotient absorbs the
    floored recurrence's asymmetry, far below a unit). m = level + deg/2 + 2
    for 'const' and 'poly' weights is exact for the sweep and its
    certificate; 'exppoly' takes 64 + 2*(level + deg), as in `moments`. The
    loop runs on
    fixed-point integers (`_stieltjes`) with bits + 20 + bit_length(level)
    bits; nodes, weights and coefficients are mpf at the context precision."""
    with ctx.workprec():
        deg = weight.poly_degree()
        m = 64 + 2 * (level + deg) if weight.kind == "exppoly" else level + deg // 2 + 2
        ts, gl_weights = gauss_legendre(m, ctx)
        a, b = geometry.interval(weight.interval)
        half, mid = (b - a) / 2, (b + a) / 2
        xs = [mid + half * t for t in ts]
        lams = [half * w * weight.density(x) for w, x in zip(gl_weights, xs)]
        wp = ctx.mantissa_bits + 20 + level.bit_length()
        alphas, betas = _stieltjes(ts, lams, level, wp)
        return (xs, lams, [mid + half * mp.mpf((v, -wp)) for v in alphas],
                [half * half * mp.mpf((v, -wp)) for v in betas])


def _sweep_bits(geometry, level, ctx):
    """Fixed-point bits of the sweep and its walks: the context's, 20 guard
    bits, bit_length(level) for the rounding of level steps, and twice the
    bits by which a quarter of the shorter interval falls below 1, since its
    a's scale as its square."""
    quarter = min(b - a for a, b in (geometry.interval(1), geometry.interval(2))) / 4
    return ctx.mantissa_bits + 20 + level.bit_length() + max(0, -2 * mp.mag(quarter))


def _nnrr_sweep(marginals, level, floor, w):
    """{(n1, n2): (a1, a2, b1, b2)} for every |n| <= level, as integers times 2^w.

    The marginal lines are each measure's Jacobi coefficients. The other a's
    on level s come from the ratio relation (Van Assche 2011) a_{n+e_j,i} =
    a_{n,i} (b_{n,j} - b_{n,i}) / (b_{n-e_i,j} - b_{n-e_i,i}); with D =
    b_{n,1} - b_{n,2} and S = sum_k (a_{n+e2,k} - a_{n+e1,k}) at each n on
    level s-1, b_{n+e2,1} = b_{n,1} - S/D and b_{n+e1,2} = b_{n,2} - S/D.
    Each quotient is floored, an error under one unit of 2^-w. |D| below the
    mpf `floor` raises NormalityFailure."""
    (_, _, al1, be1), (_, _, al2, be2) = marginals
    al1, be1, al2, be2 = ([_to_fixed(v, w) for v in seq] for seq in (al1, be1, al2, be2))
    floor = _to_fixed(floor, w)
    # level s as lists over n1 = 0..s, with d = b1 - b2 on levels s and s - 1
    a1, a2, b1, b2, d, d_prev = [0], [0], al1[:1], al2[:1], [al1[0] - al2[0]], []
    out = {(0, 0): (0, 0, al1[0], al2[0])}
    for s in range(1, level + 1):
        if min(map(abs, d)) < floor:
            n1 = next(k for k, v in enumerate(d) if abs(v) < floor)
            raise NormalityFailure(f"b_(n,1) - b_(n,2) vanishes at {(n1, s - 1 - n1)}")
        a1 = [0] + [x * y // z for x, y, z in zip(a1[1:], d[1:], d_prev)] + [be1[s]]
        a2 = [be2[s]] + [x * y // z for x, y, z in zip(a2, d, d_prev)] + [0]
        sums = list(map(int.__add__, a1, a2))
        t = [((u - v) << w) // z for u, v, z in zip(sums, sums[1:], d)]
        b1 = list(map(int.__sub__, b1, t)) + [al1[s]]
        b2 = [al2[s]] + list(map(int.__sub__, b2, t))
        d, d_prev = list(map(int.__sub__, b1, b2)), d
        out.update(((n1, s - n1), row) for n1, row in enumerate(zip(a1, a2, b1, b2)))
    return out


def _walk(entries, n, xs, w, first=1, ys=None):
    """P_n at the points x + iy by the recurrence along the path taking its
    e_first steps first (on interval `first` the stable marginal recurrence;
    the other steps add zeros far from it). The state is P_m, P_{m-e1},
    P_{m-e2}; after m -> m + e_j, P_{m+e_j-e_i} = P_m - (b_{m-e_i,j} -
    b_{m-e_i,i}) P_{m-e_i}, the difference of the two recurrences at m - e_i.

    Points and entries are integers times 2^w; ys is None for real points.
    Returns (lanes, es): at point k the real part of P_n is lanes[0][k]
    2^es[k], and for complex points the imaginary part is lanes[1][k] 2^es[k].
    The state at one point shares one binary exponent, checked every step
    and renormalised once |P_m| there leaves [2^(w-8), 2^(w+64)). The
    recurrence never mixes points, so each keeps its own relative precision,
    whatever the spread of |P_n| over the points: with an `exppoly` weight on
    [1, 100] it spans hundreds of bits, and one exponent shared by all points
    left the certificate no correct digit at (30, 30) and 128 bits. Each step
    floors once, under one unit of 2^-w of that point's state."""
    f = first - 1
    p = [[1 << w] * len(xs)] + ([[0] * len(xs)] if ys else [])
    zero = [[0] * len(xs) for _ in p]
    m, down, es = [0, 0], [zero, zero], [-w] * len(xs)  # a_(m,k) = 0 while m_k = 0
    for j in [f] * n.component(first) + [1 - f] * (n.norm - n.component(first)):
        i = 1 - j
        a1, a2, *b = entries[tuple(m)]
        zb = [x - b[j] for x in xs]
        if ys:
            re, im = p
            zp = [map(int.__sub__, map(_mul, zb, re), map(_mul, ys, im)),
                  map(int.__add__, map(_mul, zb, im), map(_mul, ys, re))]
        else:
            zp = [map(_mul, zb, p[0])]
        new = [[(u - a1 * v1 - a2 * v2) >> w for u, v1, v2 in zip(*lanes)]
               for lanes in zip(zp, *down)]
        if m[i]:
            q = entries[(m[0] - (i == 0), m[1] - (i == 1))]
            c = q[2 + j] - q[2 + i]
            down[i] = [[v - (c * u >> w) for v, u in zip(pl, dl)] for pl, dl in zip(p, down[i])]
        down[j], p = p, new
        m[j] += 1
        mag = map(abs, p[0])
        for lane in p[1:]:
            mag = map(int.__or__, mag, map(abs, lane))
        s = [x.bit_length() - w for x in mag]
        if max(s) > 64 or min(s) < -8:
            p, down = _rescale(p, s), [_rescale(v, s) for v in down]
            es = list(map(int.__add__, es, s))
    return p, es


def _certify(entries, n, marginals, tol, w):
    """Orthogonality residuals of the walked P_n, relative to sum lam |P_n| |x|^k, held to tol.

    The terms lam P_n x^k are integers under one shared power of two, the
    largest near 2^(2w): the products lam P_n are exact before they are
    aligned, each factor x floors under one unit of 2^-w of the largest term,
    and the vector is rescaled whenever its largest term drifts 8 bits."""
    for i, (xs, lams, _, _) in zip((1, 2), marginals):
        if not n.component(i):
            continue
        X = [_to_fixed(x, w) for x in xs]
        (P,), es = _walk(entries, n, X, w, first=i)
        terms = list(map(_mul, _weight_scale(lams, w), P))
        top = max(v.bit_length() + e for v, e in zip(terms, es))
        terms = [_shift(v, e + 2 * w - top) for v, e in zip(terms, es)]
        for _ in range(n.component(i)):
            resid = mp.mpf(abs(sum(terms))) / sum(map(abs, terms))
            if resid > tol:
                raise InternalInconsistency(
                    f"sweep orthogonality residual {mp.nstr(resid, 5)} at {n.as_pair()} "
                    f"against measure {i}; raise mantissa_bits")
            terms = [v * x >> w for v, x in zip(terms, X)]
            s = max(map(abs, terms)).bit_length() - 2 * w
            if abs(s) > 8:
                terms = [_shift(v, -s) for v in terms]


def _hankel_pivot_tol(rows, ctx):
    # moment-system pivots decay geometrically with the index (capacity to
    # the power of the degree), so flag singularity only at roundoff level
    # and let the a-posteriori orthogonality residual be the certificate
    scale = max(abs(v) for row in rows for v in row)
    return mp.mpf(2) ** (4 - ctx.mantissa_bits) * max(1, scale)


def _orthogonality_scale(mom_pair, order):
    return max(mp.mpf(1), max(abs(v) for m in mom_pair for v in m[: order + 1]))


def type2_mop(n, mom_pair, ctx):
    """Monic type II polynomial of degree |n|.

    Solves the |n| x |n| moment system in the lower coefficients and verifies
    the orthogonality residuals a posteriori.
    """
    n = MultiIndex.of(n)
    with ctx.workprec():
        N = n.norm
        if N == 0:
            return Poly([1]), mp.mpf(0)
        m1, m2 = mom_pair
        need = N + max(n.n1, n.n2)
        if len(m1) < need or len(m2) < need:
            raise ValueError("moment vectors too short for this index")
        rows, rhs = [], []
        for mom, ni in ((m1, n.n1), (m2, n.n2)):
            for l in range(ni):
                rows.append([mom[k + l] for k in range(N)])
                rhs.append(-mom[N + l])
        try:
            coeffs, _ = solve_dense(rows, rhs, ctx, pivot_tol=_hankel_pivot_tol(rows, ctx))
        except SingularSystem as exc:
            raise NormalityFailure(f"type II system singular at {n.as_pair()}") from exc
        p = Poly(coeffs + [mp.mpf(1)])
        scale = _orthogonality_scale(mom_pair, need)
        resid = mp.mpf(0)
        for mom, ni in ((m1, n.n1), (m2, n.n2)):
            for l in range(ni):
                resid = max(resid, abs(mp.fsum(c * mom[k + l] for k, c in enumerate(p.coeffs))))
        if resid > ctx.solve_tolerance * scale:
            raise InternalInconsistency(
                f"type II residual {mp.nstr(resid, 5)} exceeds tolerance at {n.as_pair()}")
        return p, resid


def type1_mop(n, mom_pair, ctx):
    """Type I pair (A^(1), A^(2)) with deg A^(i) < n_i, normalized so the
    moment of order |n|-1 of the combined form equals 1.

    Returns (a1_poly or None, a2_poly or None, residual).
    """
    n = MultiIndex.of(n)
    if n.norm < 1:
        raise ValueError("type I requires |n| >= 1")
    with ctx.workprec():
        m1, m2 = mom_pair
        N = n.norm
        need = N + max(n.n1, n.n2)
        rows = []
        for l in range(N):
            row = [m1[k + l] for k in range(n.n1)] + [m2[k + l] for k in range(n.n2)]
            rows.append(row)
        rhs = [mp.mpf(0)] * (N - 1) + [mp.mpf(1)]
        try:
            sol, _ = solve_dense(rows, rhs, ctx, pivot_tol=_hankel_pivot_tol(rows, ctx))
        except SingularSystem as exc:
            raise NormalityFailure(f"type I system singular at {n.as_pair()}") from exc
        a1 = Poly(sol[: n.n1]) if n.n1 else None
        a2 = Poly(sol[n.n1:]) if n.n2 else None
        scale = _orthogonality_scale(mom_pair, need)
        resid = mp.mpf(0)
        for l in range(N):
            v = mp.fsum(c * m1[k + l] for k, c in enumerate(a1.coeffs)) if a1 else mp.mpf(0)
            v += mp.fsum(c * m2[k + l] for k, c in enumerate(a2.coeffs)) if a2 else mp.mpf(0)
            target = mp.mpf(1) if l == N - 1 else mp.mpf(0)
            resid = max(resid, abs(v - target))
        if resid > ctx.solve_tolerance * scale:
            raise InternalInconsistency(
                f"type I residual {mp.nstr(resid, 5)} exceeds tolerance at {n.as_pair()}")
        return a1, a2, resid


class AngelescoSystem:
    """Cached moments, solutions and recurrence sweep for one (geometry, weights) pair."""

    def __init__(self, geometry, weights=None, ctx=None):
        self.ctx = ctx or PrecisionContext()
        self.geometry = geometry
        self.weights = weights or lebesgue_weights()
        if self.weights[0].interval != 1 or self.weights[1].interval != 2:
            raise ValueError("weights must reference intervals 1 and 2 in order")
        for w in self.weights:
            w.validate(geometry)
        self._moments = [[], []]
        self._solutions = {}
        self._sweep = (-1, None, None)

    # -- moments -----------------------------------------------------------

    def moment_vector(self, i, k_max):
        cache = self._moments[i - 1]
        if len(cache) < k_max + 1:
            grow = max(k_max + 1, 2 * len(cache), 16)
            self._moments[i - 1] = moments(self.weights[i - 1], self.geometry, grow, self.ctx)
            cache = self._moments[i - 1]
        return cache[: k_max + 1]

    def moment(self, i, k):
        return self.moment_vector(i, k)[k]

    def _mom_pair(self, n):
        need = n.norm + max(n.n1, n.n2) + 1
        return (self.moment_vector(1, need), self.moment_vector(2, need))

    # -- solutions -----------------------------------------------------------

    def solution(self, n):
        n = MultiIndex.of(n)
        hit = self._solutions.get(n.as_pair())
        if hit is not None:
            return hit
        with self.ctx.workprec():
            if n.norm == 0:
                m1 = self.moment(1, 0)
                m2 = self.moment(2, 0)
                sol = MopSolution(n, Poly([1]), m1, m2, mp.mpf(0), None, self.ctx)
            else:
                pair = self._mom_pair(n)
                p, r2 = type2_mop(n, pair, self.ctx)
                hs = []
                for i, mom in ((1, pair[0]), (2, pair[1])):
                    ni = n.component(i)
                    hs.append(mp.fsum(c * mom[k + ni] for k, c in enumerate(p.coeffs)))
                sol = MopSolution(n, p, hs[0], hs[1], r2, pair, self.ctx)
        self._solutions[n.as_pair()] = sol
        return sol

    # -- recurrence coefficients ----------------------------------------------

    def _swept(self, n):
        """(entries, w): integer entries times 2^w to level |n| at least; a new
        sweep, to exactly |n|, is certified at n."""
        level, entries, w = self._sweep
        if level < n.norm:
            ctx = self.ctx
            with ctx.workprec():
                marginals = [jacobi_marginal(weight, self.geometry, n.norm, ctx)
                             for weight in self.weights]
                scale = max(1, *map(abs, self.geometry.as_tuple()))
                w = _sweep_bits(self.geometry, n.norm, ctx)
                entries = _nnrr_sweep(marginals, n.norm,
                                      mp.mpf(2) ** (16 - ctx.mantissa_bits) * scale, w)
                _certify(entries, n, marginals, ctx.solve_tolerance, w)
            self._sweep = (n.norm, entries, w)
        return entries, w

    def _mpf_row(self, row, w):
        with self.ctx.workprec():
            return tuple(mp.mpf((v, -w)) for v in row)

    def nnrr(self, n):
        """(a1, a2, b1, b2) at one index, read from the certified sweep."""
        n = MultiIndex.of(n)
        entries, w = self._swept(n)
        return self._mpf_row(entries[n.as_pair()], w)

    def table(self, n_max):
        """NnrrTable over n1, n2 <= n_max from one sweep, certified at (n_max, n_max)."""
        if n_max < 1:
            raise ValueError("n_max must be >= 1")
        entries, w = self._swept(MultiIndex(n_max, n_max))
        return NnrrTable({k: self._mpf_row(v, w) for k, v in entries.items() if max(k) <= n_max},
                         n_max)

    def p_value(self, n, z):
        """P_n(z), walked along the recurrence from the sweep."""
        n = MultiIndex.of(n)
        entries, w = self._swept(n)
        with self.ctx.workprec():
            z = mp.mpc(z)
            x, y = _to_fixed(z.real, w), _to_fixed(z.imag, w)
            lanes, (e,) = _walk(entries, n, [x], w, ys=[y] if y else None)
            return mp.mpc(*(mp.mpf((lane[0], e)) for lane in lanes))

    # -- derived checks --------------------------------------------------------

    def recurrence_residual(self, n, j):
        """Max |coefficient| of z P_n - P_{n+e_j} - b_{n,j} P_n - sum_i a_{n,i} P_{n-e_i}:
        the sweep's coefficients against the dense solutions' polynomials."""
        n = MultiIndex.of(n)
        with self.ctx.workprec():
            a1, a2, b1, b2 = self.nnrr(n)
            b = b1 if j == 1 else b2
            r = self.solution(n).p_monic.shift_mul_x() - self.solution(n.plus(j)).p_monic \
                - b * self.solution(n).p_monic
            if n.n1 >= 1:
                r = r - a1 * self.solution(n.minus(1)).p_monic
            if n.n2 >= 1:
                r = r - a2 * self.solution(n.minus(2)).p_monic
            return r.max_abs_coeff()

    def zeros(self, n):
        """Zeros of P_n, exactly n_i of them inside interval i, each refined."""
        n = MultiIndex.of(n)
        sol = self.solution(n)
        with self.ctx.workprec():
            out = []
            for i in (1, 2):
                want = n.component(i)
                a, b = self.geometry.interval(i)
                roots = _isolate_simple_roots(sol.p_monic, a, b, want, self.ctx)
                if roots is None:
                    raise ZeroLocationFailure(
                        f"could not find {want} zeros of P_{n.as_pair()} in interval {i}")
                out.append(roots)
            return tuple(out)

    def remainder(self, n, i, z):
        """R_n^(i)(z) = integral of P_n(x)/(z - x) against measure i."""
        n = MultiIndex.of(n)
        sol = self.solution(n)
        return _cauchy_weighted(sol.p_monic, self.weights[i - 1], self.geometry, z, self.ctx)

    def linear_form(self, n, z):
        """L_n(z) = integral of the type I form against 1/(z - x)."""
        n = MultiIndex.of(n)
        sol = self.solution(n)
        with self.ctx.workprec():
            total = mp.mpc(0)
            for i in (1, 2):
                a = sol.a_poly(i)
                if a:
                    total += _cauchy_weighted(a, self.weights[i - 1], self.geometry, z, self.ctx)
            return total


def _cauchy_weighted(p, weight, geometry, z, ctx):
    with ctx.workprec():
        a, b = geometry.interval(weight.interval)
        z = mp.mpc(z)
        if abs(z.imag) == 0 and a <= z.real <= b:
            raise DomainError("evaluation point lies on the interval of integration")
        m = 64 + max(p.degree, 0) + 2 * weight.poly_degree()
        nodes, gl_weights = gauss_legendre(m, ctx)
        half, mid = (b - a) / 2, (b + a) / 2
        total = mp.mpc(0)
        for t, w in zip(nodes, gl_weights):
            x = mid + half * t
            total += w * p(x) * weight.density(x) / (z - x)
        val = half * total
        return val.real if z.imag == 0 else val


def _isolate_simple_roots(p, a, b, want, ctx):
    """All `want` simple roots of p in [a, b]: sign changes on a grid, then p'."""
    if want == 0:
        return []
    dp = Poly([k * c for k, c in enumerate(p.coeffs)][1:])
    grid_n = max(8, 4 * want)
    for _ in range(6):
        xs = [a + (b - a) * mp.mpf(k) / grid_n for k in range(grid_n + 1)]
        vals = [p(x) for x in xs]
        brackets = [(xs[k], xs[k + 1]) for k in range(grid_n)
                    if vals[k] != 0 and vals[k + 1] != 0 and mp.sign(vals[k]) != mp.sign(vals[k + 1])]
        exact = [x for x, v in zip(xs, vals) if v == 0]
        if len(brackets) + len(exact) == want:
            roots = exact + [find_root(p, dp, lo, hi, ctx, ctx.solve_tolerance)
                             for lo, hi in brackets]
            roots.sort()
            return roots
        grid_n *= 4
    return None


def decay_slope(values, zs, ctx):
    """Least-squares slope of log|value| against log z."""
    with ctx.workprec():
        xs = [mp.log(mp.mpf(z)) for z in zs]
        ys = [mp.log(abs(v)) for v in values]
        n = len(xs)
        xbar = mp.fsum(xs) / n
        ybar = mp.fsum(ys) / n
        num = mp.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
        den = mp.fsum((x - xbar) ** 2 for x in xs)
        return num / den


class NnrrTable:
    """Recurrence coefficients a_{n,i}, b_{n,i} for all n1, n2 <= n_max."""

    CSV_HEADER = "n1,n2,a1,a2,b1,b2"

    def __init__(self, entries, n_max):
        self.entries = dict(entries)
        self.n_max = n_max
        for (n1, n2), (a1, a2, b1, b2) in self.entries.items():
            if n1 >= 1 and not a1 > 0:
                raise InternalInconsistency(f"a1 not positive at {(n1, n2)}")
            if n2 >= 1 and not a2 > 0:
                raise InternalInconsistency(f"a2 not positive at {(n1, n2)}")
            for v in (a1, a2, b1, b2):
                if not mp.isfinite(v):
                    raise InternalInconsistency(f"non-finite entry at {(n1, n2)}")

    def get(self, n):
        key = n.as_pair() if isinstance(n, MultiIndex) else tuple(n)
        return self.entries[key]

    def to_csv(self, digits=30):
        lines = [self.CSV_HEADER]
        for key in sorted(self.entries):
            a1, a2, b1, b2 = self.entries[key]
            nums = ",".join(mp.nstr(v, digits) for v in (a1, a2, b1, b2))
            lines.append(f"{key[0]},{key[1]},{nums}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text):
        lines = [ln for ln in text.strip().splitlines() if ln]
        if lines[0] != cls.CSV_HEADER:
            raise ValueError("unexpected CSV header")
        entries = {}
        for ln in lines[1:]:
            parts = ln.split(",")
            key = (int(parts[0]), int(parts[1]))
            # parse at a precision covering the printed digits
            bits = max(64, int(3.4 * max(len(p) for p in parts[2:6])) + 32)
            with mp.workprec(bits):
                entries[key] = tuple(mp.mpf(p) for p in parts[2:6])
        n_max = max(k[0] for k in entries)
        return cls(entries, n_max)
