"""Multiple orthogonal polynomials for a two-interval system.

Moments, type I/II polynomials, nearest-neighbor recurrence coefficients with
a dual-route cross-check on the b's, zero localization, and the two remainder
functions whose large-z decay exponents certify the orthogonality counts.
"""

import json
from dataclasses import dataclass

import mpmath as mp

from .errors import (
    DomainError,
    InternalInconsistency,
    InvalidWeight,
    NormalityFailure,
    SingularSystem,
    ZeroLocationFailure,
)
from .precision import Poly, PrecisionContext, find_root, gauss_legendre, real_root_count, solve_dense


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
        """Image under x -> -x, which swaps the two intervals."""
        return Geometry(-self.beta2, -self.alpha2, -self.beta1, -self.alpha1)


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

    def validate(self, geometry, ctx, margin_frac="0.1"):
        """Check strict positivity on a neighborhood of the interval."""
        if self.kind in ("const", "exppoly"):
            return
        with ctx.workprec():
            a, b = geometry.interval(self.interval)
            margin = (b - a) * mp.mpf(margin_frac)
            p = self.poly_part()
            if not p:
                raise InvalidWeight("zero polynomial density")
            if real_root_count(p, (a - margin, b + margin), ctx):
                raise InvalidWeight("polynomial density has a root near its interval")
            if p((a + b) / 2) <= 0:
                raise InvalidWeight("polynomial density is negative on its interval")


def lebesgue_weights():
    return (WeightSpec("const", interval=1), WeightSpec("const", interval=2))


@dataclass(frozen=True)
class MultiIndex:
    n1: int
    n2: int

    def __post_init__(self):
        if self.n1 < 0 or self.n2 < 0:
            raise ValueError("multi-index entries must be nonnegative")

    @property
    def norm(self):
        return self.n1 + self.n2

    @property
    def ray_fraction(self):
        """c = n1/|n|; the direction parameter of the index."""
        if self.norm == 0:
            raise ValueError("ray fraction undefined at (0,0)")
        return mp.mpf(self.n1) / self.norm

    @property
    def marginal_scale(self):
        """1/min(n1,n2), or None when a component vanishes."""
        m = min(self.n1, self.n2)
        return None if m == 0 else mp.mpf(1) / m

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
    """Monic type II polynomial with its type I partner at one multi-index."""

    index: MultiIndex
    p_monic: Poly
    a1_poly: Poly  # None when n1 = 0
    a2_poly: Poly  # None when n2 = 0
    h1: mp.mpf
    h2: mp.mpf
    residual: mp.mpf

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
    weight.validate(geometry, ctx)
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
    if isinstance(n, tuple):
        n = MultiIndex(*n)
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
    if isinstance(n, tuple):
        n = MultiIndex(*n)
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
    """Cached moments and polynomial solutions for one (geometry, weights) pair."""

    def __init__(self, geometry, weights=None, ctx=None):
        self.ctx = ctx or PrecisionContext()
        self.geometry = geometry
        self.weights = weights or lebesgue_weights()
        if self.weights[0].interval != 1 or self.weights[1].interval != 2:
            raise ValueError("weights must reference intervals 1 and 2 in order")
        for w in self.weights:
            w.validate(geometry, self.ctx)
        self._moments = [[], []]
        self._solutions = {}
        self._nnrr = {}

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

    def _form_moment(self, sol, order):
        """Moment of the type I form of sol at the given order."""
        if sol.index.norm == 0:
            return mp.mpf(0)
        total = mp.mpf(0)
        for i in (1, 2):
            a = sol.a_poly(i)
            if a:
                mom = self.moment_vector(i, order + a.degree)
                total += mp.fsum(c * mom[k + order] for k, c in enumerate(a.coeffs))
        return total

    # -- solutions -----------------------------------------------------------

    def solution(self, n):
        if isinstance(n, tuple):
            n = MultiIndex(*n)
        hit = self._solutions.get(n.as_pair())
        if hit is not None:
            return hit
        with self.ctx.workprec():
            if n.norm == 0:
                m1 = self.moment(1, 0)
                m2 = self.moment(2, 0)
                sol = MopSolution(n, Poly([1]), None, None, m1, m2, mp.mpf(0))
            else:
                pair = self._mom_pair(n)
                p, r2 = type2_mop(n, pair, self.ctx)
                a1, a2, r1 = type1_mop(n, pair, self.ctx)
                hs = []
                for i, mom in ((1, pair[0]), (2, pair[1])):
                    ni = n.component(i)
                    hs.append(mp.fsum(c * mom[k + ni] for k, c in enumerate(p.coeffs)))
                sol = MopSolution(n, p, a1, a2, hs[0], hs[1], max(r1, r2))
        self._solutions[n.as_pair()] = sol
        return sol

    # -- recurrence coefficients ----------------------------------------------

    def nnrr(self, n):
        """(a1, a2, b1, b2) at one index, with the dual-route b cross-check."""
        if isinstance(n, tuple):
            n = MultiIndex(*n)
        hit = self._nnrr.get(n.as_pair())
        if hit is not None:
            return hit
        with self.ctx.workprec():
            sol = self.solution(n)
            a = []
            for j in (1, 2):
                if n.component(j) == 0:
                    a.append(mp.mpf(0))  # h-ratio undefined; recurrence term absent
                else:
                    prev = self.solution(n.minus(j))
                    a.append(sol.h(j) / prev.h(j))
            b = []
            scale = _orthogonality_scale(self._mom_pair(n.plus(1)), n.norm + max(n.n1, n.n2) + 1)
            for j in (1, 2):
                up = self.solution(n.plus(j))
                b_coeff = sol.p_monic.coeff(n.norm - 1) - up.p_monic.coeff(n.norm)
                b_form = self._form_moment(up, n.norm + 1) - self._form_moment(sol, n.norm)
                if abs(b_coeff - b_form) > self.ctx.solve_tolerance * scale:
                    raise InternalInconsistency(
                        f"b cross-check failed at {n.as_pair()}, j={j}: "
                        f"{mp.nstr(abs(b_coeff - b_form), 5)}; raise mantissa_bits")
                b.append(b_coeff)
            out = (a[0], a[1], b[0], b[1])
        self._nnrr[n.as_pair()] = out
        return out

    def table(self, n_max):
        """NnrrTable over all n with n1, n2 <= n_max."""
        if n_max < 1:
            raise ValueError("n_max must be >= 1")
        entries = {}
        for n1 in range(n_max + 1):
            for n2 in range(n_max + 1):
                entries[(n1, n2)] = self.nnrr(MultiIndex(n1, n2))
        return NnrrTable(entries, n_max)

    # -- derived checks --------------------------------------------------------

    def recurrence_residual(self, n, j):
        """Max |coefficient| of z P_n - P_{n+e_j} - b_{n,j} P_n - sum_i a_{n,i} P_{n-e_i}."""
        if isinstance(n, tuple):
            n = MultiIndex(*n)
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
        if isinstance(n, tuple):
            n = MultiIndex(*n)
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

    def remainder(self, n, i, z, n_nodes=None):
        """R_n^(i)(z) = integral of P_n(x)/(z - x) against measure i."""
        if isinstance(n, tuple):
            n = MultiIndex(*n)
        sol = self.solution(n)
        return _cauchy_weighted(sol.p_monic, self.weights[i - 1], self.geometry, z,
                                self.ctx, n_nodes)

    def linear_form(self, n, z, n_nodes=None):
        """L_n(z) = integral of the type I form against 1/(z - x)."""
        if isinstance(n, tuple):
            n = MultiIndex(*n)
        sol = self.solution(n)
        with self.ctx.workprec():
            total = mp.mpc(0)
            for i in (1, 2):
                a = sol.a_poly(i)
                if a:
                    total += _cauchy_weighted(a, self.weights[i - 1], self.geometry, z,
                                              self.ctx, n_nodes)
            return total


def _cauchy_weighted(p, weight, geometry, z, ctx, n_nodes=None):
    with ctx.workprec():
        a, b = geometry.interval(weight.interval)
        z = mp.mpc(z)
        if abs(z.imag) == 0 and a <= z.real <= b:
            raise DomainError("evaluation point lies on the interval of integration")
        m = n_nodes or (64 + max(p.degree, 0) + 2 * weight.poly_degree())
        nodes, gl_weights = gauss_legendre(m, ctx)
        half, mid = (b - a) / 2, (b + a) / 2
        total = mp.mpc(0)
        for t, w in zip(nodes, gl_weights):
            x = mid + half * t
            total += w * p(x) * weight.density(x) / (z - x)
        val = half * total
        return val.real if z.imag == 0 else val


def _isolate_simple_roots(p, a, b, want, ctx, max_refine=6):
    """All `want` simple roots of p in [a, b] via sign-change bisection."""
    if want == 0:
        return []
    grid_n = max(8, 4 * want)
    for _ in range(max_refine):
        xs = [a + (b - a) * mp.mpf(k) / grid_n for k in range(grid_n + 1)]
        vals = [p(x) for x in xs]
        brackets = [(xs[k], xs[k + 1]) for k in range(grid_n)
                    if vals[k] != 0 and vals[k + 1] != 0 and mp.sign(vals[k]) != mp.sign(vals[k + 1])]
        exact = [x for x, v in zip(xs, vals) if v == 0]
        if len(brackets) + len(exact) == want:
            roots = exact + [find_root(p, lo, hi, ctx, tol=ctx.solve_tolerance)
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


def solution_to_json(sol, digits=30):
    """JSON export of one MopSolution, coefficients as decimal strings."""
    def poly_strs(p):
        return None if p is None else [mp.nstr(c, digits) for c in p.coeffs]

    doc = {
        "n1": sol.index.n1,
        "n2": sol.index.n2,
        "p_monic": poly_strs(sol.p_monic),
        "a1_poly": poly_strs(sol.a1_poly),
        "a2_poly": poly_strs(sol.a2_poly),
        "h1": mp.nstr(sol.h1, digits),
        "h2": mp.nstr(sol.h2, digits),
        "residual": mp.nstr(sol.residual, digits),
    }
    return json.dumps(doc, sort_keys=True, indent=2)
