"""Extended-precision kernel: quadrature, dense solves, bracketed Newton, polynomials.

Real/complex scalars are mpmath ``mpf``/``mpc`` values created under a
:class:`PrecisionContext`; every public operation wraps its arithmetic in the
context's working precision, so results are deterministic for fixed bits.
The dense machine-precision symmetric eigensolver lives here as well; tree
spectra come from inertia counts in ``tree``, and it is their dense oracle.
"""

import mpmath as mp

from .errors import (
    BracketError,
    ShapeError,
    SingularSystem,
    SolveFailure,
)

EIG_DIM_CAP = 5000


class PrecisionContext:
    """Arithmetic context with a fixed mantissa size.

    solve_tolerance is 2**(-mantissa_bits/2), the pivot/stop threshold of
    the solvers in this module.
    """

    __slots__ = ("mantissa_bits", "solve_tolerance")

    def __init__(self, mantissa_bits=512):
        if int(mantissa_bits) < 128:
            raise ValueError("mantissa_bits must be at least 128")
        self.mantissa_bits = int(mantissa_bits)
        with mp.workprec(self.mantissa_bits):
            self.solve_tolerance = mp.mpf(2) ** (-self.mantissa_bits // 2)

    def workprec(self):
        return mp.workprec(self.mantissa_bits)

    @property
    def eps(self):
        """Unit roundoff at context precision."""
        with self.workprec():
            return mp.mpf(2) ** (1 - self.mantissa_bits)

    def __repr__(self):
        return f"PrecisionContext(mantissa_bits={self.mantissa_bits})"


# ---------------------------------------------------------------------------
# Polynomials (dense, coefficients ascending)
# ---------------------------------------------------------------------------

class Poly:
    """Dense polynomial with ascending coefficients.

    The zero polynomial is represented by an empty coefficient list; otherwise
    the leading coefficient is nonzero (exact zeros are trimmed, no thresholds).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [mp.mpf(c) if not isinstance(c, (mp.mpf, mp.mpc)) else c
                  for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = mp.mpf(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + [mp.mpf(0)] * (n - len(self.coeffs))
        b = other.coeffs + [mp.mpf(0)] * (n - len(other.coeffs))
        return Poly([x - y for x, y in zip(a, b)])

    def __mul__(self, scalar):
        return Poly([c * scalar for c in self.coeffs])

    __rmul__ = __mul__

    def shift_mul_x(self):
        """Return x * p(x)."""
        return Poly([mp.mpf(0)] + list(self.coeffs))

    def max_abs_coeff(self):
        return max((abs(c) for c in self.coeffs), default=mp.mpf(0))

    def __repr__(self):
        return f"Poly({[mp.nstr(c, 8) for c in self.coeffs]})"


# ---------------------------------------------------------------------------
# Gauss-Legendre quadrature
# ---------------------------------------------------------------------------

_GL_CACHE = {}


def gauss_legendre(m, ctx):
    """Nodes and weights of the m-point Gauss-Legendre rule on [-1, 1].

    Each of the m//2 positive nodes is found by Newton iteration on the
    three-term Legendre recurrence, started from its Chebyshev guess
    cos(pi (k - 1/4) / (m + 1/2)) and stopped once |dx| <= 2^(-bits-10)
    (1 + |x|). The Newton loop runs on Python integers in fixed point with
    scale 2^wp, wp = bits + 20 + bit_length(m): one recurrence step is one
    big-integer product, one shift, two small-integer products and one floor
    division, and truncates by less than two units of 2^-wp. The recurrence
    is forward-stable on (-1, 1), so the bit_length(m) guard bits cover the
    m steps' accumulated error and the 20 beyond them keep node and weight
    correct to the context precision before rounding. Each weight
    2 (1 - x^2) / (m (x P_m - P_{m-1}))^2 is formed in mpf from P_m and
    P_{m-1} at the converged node. The positive nodes are mirrored; for odd
    m the middle node is exactly 0. Nodes and weights are rounded to the
    context precision. Returns (nodes, weights) with nodes strictly
    increasing; rules are memoised per (m, bits).
    """
    m = int(m)
    if m < 1:
        raise ValueError("node count must be >= 1")
    bits = ctx.mantissa_bits
    key = (m, bits)
    hit = _GL_CACHE.get(key)
    if hit is not None:
        return hit
    wp = bits + 20 + m.bit_length()
    one = 1 << wp

    def legendre(X):
        # P_m and P_{m-1} at x = X / 2^wp, both scaled by 2^wp
        p_prev, p = one, X
        for j in range(1, m):
            p_prev, p = p, ((2 * j + 1) * (X * p >> wp) - j * p_prev) // (j + 1)
        return p, p_prev

    def weight(X, p, p_prev):
        with mp.workprec(wp):
            v = mp.ldexp(m * ((X * p >> wp) - p_prev), -wp)
            return 2 * mp.ldexp(one - (X * X >> wp), -wp) / (v * v)

    positive, positive_weights = [], []
    with mp.workprec(bits + 20):
        guesses = [mp.cos(mp.pi * (k - mp.mpf(1) / 4) / (m + mp.mpf(1) / 2))
                   for k in range(1, m // 2 + 1)]
    for guess in guesses:
        X = int(mp.ldexp(guess, wp))
        for _ in range(200):
            p, p_prev = legendre(X)
            # dx = P_m / P_m' with P_m' = m (x P_m - P_{m-1}) / (x^2 - 1)
            dX = p * ((X * X >> wp) - one) // (m * ((X * p >> wp) - p_prev))
            X -= dX
            if abs(dX) << (bits + 10) <= one + abs(X):
                break
        positive.append(X)
        positive_weights.append(weight(X, *legendre(X)))
    if m % 2:
        # the middle node, exactly 0, goes last and is not mirrored
        positive.append(0)
        positive_weights.append(weight(0, *legendre(0)))
    half = m // 2
    with ctx.workprec():
        positive = [mp.ldexp(mp.mpf(X), -wp) for X in positive]
        positive_weights = [+w for w in positive_weights]
        nodes = [-x for x in positive[:half]] + positive[::-1]
        weights = positive_weights[:half] + positive_weights[::-1]
    _GL_CACHE[key] = (nodes, weights)
    return nodes, weights


# ---------------------------------------------------------------------------
# Dense linear algebra
# ---------------------------------------------------------------------------

def solve_dense(A, b, ctx, pivot_tol=None):
    """Solve Ax = b by elimination with partial pivoting.

    Returns (x, residual_norm) where residual_norm = max|Ax - b| recomputed
    from the original data. Raises SingularSystem when the best available
    pivot falls below pivot_tol (default: the context solve tolerance).
    Callers with strongly graded but well-posed systems pass a smaller
    threshold and rely on the residual instead.
    """
    with ctx.workprec():
        n = len(A)
        M = [[mp.mpf(v) if not isinstance(v, (mp.mpf, mp.mpc)) else v for v in row]
             for row in A]
        if any(len(row) != n for row in M):
            raise ShapeError("matrix must be square")
        rhs = [mp.mpf(v) if not isinstance(v, (mp.mpf, mp.mpc)) else v for v in b]
        if len(rhs) != n:
            raise ShapeError("right-hand side length mismatch")
        scale = max((abs(v) for row in M for v in row), default=mp.mpf(0))
        if scale == 0:
            raise SingularSystem("zero matrix")
        if pivot_tol is None:
            pivot_tol = ctx.solve_tolerance
        work = [row[:] for row in M]
        x = rhs[:]
        perm = list(range(n))
        for k in range(n):
            piv, piv_val = k, abs(work[k][k])
            for i in range(k + 1, n):
                if abs(work[i][k]) > piv_val:
                    piv, piv_val = i, abs(work[i][k])
            if piv_val <= pivot_tol:
                raise SingularSystem(f"pivot {mp.nstr(piv_val, 5)} below tolerance at step {k}")
            if piv != k:
                work[k], work[piv] = work[piv], work[k]
                x[k], x[piv] = x[piv], x[k]
                perm[k], perm[piv] = perm[piv], perm[k]
            inv = 1 / work[k][k]
            for i in range(k + 1, n):
                f = work[i][k] * inv
                if f == 0:
                    continue
                work[i][k] = mp.mpf(0)
                for j in range(k + 1, n):
                    work[i][j] -= f * work[k][j]
                x[i] -= f * x[k]
        for k in range(n - 1, -1, -1):
            acc = x[k]
            for j in range(k + 1, n):
                acc -= work[k][j] * x[j]
            x[k] = acc / work[k][k]
        resid = mp.mpf(0)
        for i in range(n):
            r = -rhs[i]
            for j in range(n):
                r += M[i][j] * x[j]
            resid = max(resid, abs(r))
        return x, resid


def sym_eig(S):
    """Eigenvalues (ascending) of a dense symmetric machine-real matrix.

    The dense oracle for the tree spectra, which the package computes by
    inertia counts. Householder + implicit-shift factorization via LAPACK;
    dimensions capped at EIG_DIM_CAP. Asymmetry beyond 1e-12 (relative)
    raises ShapeError.
    """
    import numpy as np

    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ShapeError("matrix must be square")
    if S.shape[0] > EIG_DIM_CAP:
        raise ShapeError(f"dimension {S.shape[0]} exceeds cap {EIG_DIM_CAP}")
    scale = max(1.0, float(np.max(np.abs(S)))) if S.size else 1.0
    if S.size and float(np.max(np.abs(S - S.T))) > 1e-12 * scale:
        raise ShapeError("matrix is not symmetric within tolerance")
    return np.linalg.eigvalsh(0.5 * (S + S.T))


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------

def find_root(f, fp, lo, hi, ctx, tol=None):
    """The zero of f in the sign-change bracket [lo, hi], by Newton with f'.

    The package's one bracketed zero finder. An exact zero at either end is
    returned; no sign change raises BracketError. Newton starts at the
    midpoint; a step that would leave the bracket, or a zero f', bisects.
    It stops once the step or the bracket is within tol (default: the solve
    tolerance scaled by the bracket), the step tested first: at the rounding
    floor x - dx rounds to x, no longer strictly inside the shrunken
    bracket. SolveFailure after 2 bits + 128 steps. Convergence is quadratic
    on a simple zero, only linear (rate 1 - 1/k) on a k-fold one.
    """
    with ctx.workprec():
        lo, hi = mp.mpf(lo), mp.mpf(hi)
        tol = ctx.solve_tolerance * max(1, abs(lo), abs(hi)) if tol is None else mp.mpf(tol)
        f_lo, f_hi = f(lo), f(hi)
        if f_lo == 0:
            return lo
        if f_hi == 0:
            return hi
        lo_positive = f_lo > 0
        if lo_positive == (f_hi > 0):
            raise BracketError("no sign change on bracket")
        x = (lo + hi) / 2
        for _ in range(2 * ctx.mantissa_bits + 128):
            fx = f(x)
            if fx == 0:
                return x
            if (fx > 0) == lo_positive:
                lo = x
            else:
                hi = x
            slope = fp(x)
            dx = fx / slope if slope else mp.inf
            if abs(dx) <= tol:
                return x - dx
            if hi - lo <= tol:
                return (lo + hi) / 2
            x = x - dx if lo < x - dx < hi else (lo + hi) / 2
        raise SolveFailure("bracketed Newton did not converge")
