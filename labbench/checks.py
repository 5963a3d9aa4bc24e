"""Output checks made apart from the program.

Every check recomputes what it compares against from the mathematics (a
polynomial's roots, exact moments, a factorisation the check makes itself)
or tests a property the mathematics guarantees. None compares against a
stored copy of earlier output. A check raises CheckFailed on a mismatch and
otherwise returns the number of decimal digits to which the output agreed,
capped at DIGIT_CAP; a check with nothing to count in digits returns None.
"""

import math

import mpmath as mp
import numpy as np

# The lab writes 30 significant digits; two are left for the rounding of
# the printed values that the checks read back.
DIGIT_CAP = 28
WORK_BITS = 320


class CheckFailed(AssertionError):
    pass


def digits_of(err, scale=1):
    """Decimal digits of agreement for an absolute error at a given scale."""
    err, scale = abs(mp.mpf(err)), max(abs(mp.mpf(scale)), mp.mpf(1))
    if err == 0:
        return float(DIGIT_CAP)
    return float(min(DIGIT_CAP, -mp.log10(err / scale)))


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def agree(label, got, want, min_digits, scale=1):
    """Digits to which got matches want; fails below min_digits."""
    with mp.workprec(WORK_BITS):
        d = digits_of(mp.mpf(got) - mp.mpf(want), scale)
    require(d >= min_digits, f"{label}: {mp.nstr(mp.mpf(got), 20)} vs "
            f"{mp.nstr(mp.mpf(want), 20)} agree to {d:.1f} digits, need {min_digits}")
    return d


# ---------------------------------------------------------------------------
# Curve constants
# ---------------------------------------------------------------------------

def critical_values(A1, A2, B1, B2):
    """Critical values of R(w) = w + A1/(w - B1) + A2/(w - B2), ascending.

    R'(w) = 0 clears to (w-B1)^2 (w-B2)^2 - A1 (w-B2)^2 - A2 (w-B1)^2 = 0,
    a quartic whose roots mpmath finds on its own.
    """
    with mp.workprec(WORK_BITS):
        A1, A2, B1, B2 = (mp.mpf(v) for v in (A1, A2, B1, B2))
        s1, s2 = [1, -2 * B1, B1 * B1], [1, -2 * B2, B2 * B2]
        quartic = [mp.fsum(s1[i] * s2[k - i] for i in range(3) if 0 <= k - i < 3)
                   for k in range(5)]
        for k in range(3):
            quartic[k + 2] -= A1 * s2[k] + A2 * s1[k]
        roots = mp.polyroots(quartic, maxsteps=200, extraprec=WORK_BITS)
        if any(abs(mp.im(r)) > mp.mpf(10) ** -40 for r in roots):
            raise CheckFailed("map has non-real critical points")
        ws = sorted(mp.re(r) for r in roots)
        return [w + A1 / (w - B1) + A2 / (w - B2) for w in ws]


def check_constants(doc, expect_regime=None, min_digits=27):
    """A constants record (strings or numbers): its map's critical values
    must be the support endpoints (alpha1, beta_c1, alpha_c2, beta2)."""
    if expect_regime is not None:
        require(doc["regime"] == expect_regime,
                f"regime {doc['regime']} at c={doc['c']}, expected {expect_regime}")
    with mp.workprec(WORK_BITS):
        vals = critical_values(doc["A1"], doc["A2"], doc["B1"], doc["B2"])
        g = [mp.mpf(v) for v in doc["geometry"]]
        want = (g[0], doc["beta_c1"], doc["alpha_c2"], g[3])
        return min(agree(f"critical value {k} at c={doc['c']}", v, w, min_digits, scale=w)
                   for k, (v, w) in enumerate(zip(vals, want)))


def check_mirror(doc, mirror_doc, min_digits=27):
    """On a geometry symmetric about 0, c and 1 - c swap A1 with A2 and
    negate the B's and the pushed endpoints."""
    with mp.workprec(WORK_BITS):
        require(abs(mp.mpf(doc["c"]) + mp.mpf(mirror_doc["c"]) - 1) < mp.mpf(10) ** -25,
                "mirror check needs c and 1 - c")
        pairs = [("A1", "A2", 1), ("A2", "A1", 1), ("B1", "B2", -1), ("B2", "B1", -1),
                 ("beta_c1", "alpha_c2", -1), ("alpha_c2", "beta_c1", -1)]
        return min(agree(f"mirror {k}", doc[k], sgn * mp.mpf(mirror_doc[m]), min_digits)
                   for k, m, sgn in pairs)


# ---------------------------------------------------------------------------
# Recurrence tables
# ---------------------------------------------------------------------------

def parse_table_csv(text):
    """{(n1, n2): (a1, a2, b1, b2)} read at the check's own precision."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    require(lines[0] == "n1,n2,a1,a2,b1,b2", "unexpected table header")
    out = {}
    with mp.workprec(WORK_BITS):
        for ln in lines[1:]:
            p = ln.split(",")
            out[(int(p[0]), int(p[1]))] = tuple(mp.mpf(v) for v in p[2:6])
    return out


def check_legendre_rows(table, geometry, min_digits):
    """Unit weights: the marginal rows are the Legendre coefficients of each
    interval, a_{(k,0),1} = ((b-a)/2)^2 k^2/(4k^2-1) and b_{(k,0),1} = (a+b)/2
    (and the same along (0,k) with interval 2)."""
    digits = []
    with mp.workprec(WORK_BITS):
        g = [mp.mpf(v) for v in geometry]
        n_max = max(n1 for n1, _ in table)
        for i, (lo, hi) in ((1, (g[0], g[1])), (2, (g[2], g[3]))):
            for k in range(n_max + 1):
                n = (k, 0) if i == 1 else (0, k)
                if n not in table:
                    continue
                row = table[n]
                b_want = (lo + hi) / 2
                digits.append(agree(f"b{i}{n}", row[1 + i], b_want, min_digits, scale=b_want))
                if k >= 1:
                    a_want = ((hi - lo) / 2) ** 2 * k * k / (4 * k * k - 1)
                    digits.append(agree(f"a{i}{n}", row[i - 1], a_want, min_digits))
    return min(digits)


def _up(n, j):
    return (n[0] + (j == 1), n[1] + (j == 2))


def check_compatibility(table, min_digits):
    """The nearest-neighbour compatibility relations (Van Assche 2011):

    sum  sum_k a_{n+e2,k} - sum_k a_{n+e1,k} = b_{n+e2,1} b_{n,2} - b_{n+e1,2} b_{n,1}
    ratio a_{n+e_j,i} (b_{n-e_i,j} - b_{n-e_i,i}) = a_{n,i} (b_{n,j} - b_{n,i}), i != j.

    The relation b_{n+e2,1} - b_{n,1} = b_{n+e1,2} - b_{n,2} holds by
    construction on the dense route and certifies nothing, so it is skipped.
    """
    digits = []
    with mp.workprec(WORK_BITS):
        scale = max(abs(v) for row in table.values() for v in row)
        a = lambda n, i: table[n][i - 1]  # noqa: E731
        b = lambda n, i: table[n][1 + i]  # noqa: E731
        for n in sorted(table):
            e1, e2 = _up(n, 1), _up(n, 2)
            if e1 not in table or e2 not in table:
                continue
            lhs = a(e2, 1) + a(e2, 2) - a(e1, 1) - a(e1, 2)
            rhs = b(e2, 1) * b(n, 2) - b(e1, 2) * b(n, 1)
            digits.append(agree(f"sum relation at {n}", lhs, rhs, min_digits, scale=scale ** 2))
            for i, j in ((1, 2), (2, 1)):
                if n[i - 1] == 0:
                    continue
                m = (n[0] - (i == 1), n[1] - (i == 2))
                lhs = a(_up(n, j), i) * (b(m, j) - b(m, i))
                rhs = a(n, i) * (b(n, j) - b(n, i))
                digits.append(agree(f"ratio relation at {n}, i={i}", lhs, rhs, min_digits,
                                    scale=scale ** 2))
    require(digits, "table too small for the compatibility relations")
    return min(digits)


def lebesgue_moments(lo, hi, k_max):
    return [(hi ** (k + 1) - lo ** (k + 1)) / (k + 1) for k in range(k_max + 1)]


def _type2_monic(n, mom1, mom2):
    """Coefficients (ascending) of the monic type II polynomial P_n, solved
    with mpmath's own LU from moments: int P x^k dmu_i = 0, k < n_i."""
    deg = n[0] + n[1]
    rows, rhs = [], []
    for mom, ni in ((mom1, n[0]), (mom2, n[1])):
        for k in range(ni):
            rows.append([mom[k + j] for j in range(deg)])
            rhs.append(-mom[k + deg])
    coeffs = list(mp.lu_solve(mp.matrix(rows), mp.matrix(rhs))) if deg else []
    return coeffs + [mp.mpf(1)]


def independent_nnrr(geometry, n, bits):
    """(a1, a2, b1, b2) at n for unit weights on the geometry, from exact
    Lebesgue moments and mpmath's lu_solve (no code of the program)."""
    with mp.workprec(bits):
        g = [mp.mpf(v) for v in geometry]
        k_max = 2 * (n[0] + n[1]) + 4
        moms = (lebesgue_moments(g[0], g[1], k_max), lebesgue_moments(g[2], g[3], k_max))
        p = _type2_monic(n, *moms)

        def h(coeffs, i, power):
            return mp.fsum(c * moms[i - 1][k + power] for k, c in enumerate(coeffs))

        a = []
        for j in (1, 2):
            if n[j - 1] == 0:
                a.append(mp.mpf(0))
                continue
            down = (n[0] - (j == 1), n[1] - (j == 2))
            a.append(h(p, j, n[j - 1]) / h(_type2_monic(down, *moms), j, down[j - 1]))
        deg = n[0] + n[1]
        sub = p[deg - 1] if deg else mp.mpf(0)
        b = [sub - _type2_monic(_up(n, j), *moms)[deg] for j in (1, 2)]
        return (a[0], a[1], b[0], b[1])


def check_independent_solves(table, geometry, indices, bits, min_digits):
    digits = []
    for n in indices:
        want = independent_nnrr(geometry, n, bits)
        for label, got, w in zip(("a1", "a2", "b1", "b2"), table[n], want):
            digits.append(agree(f"{label}{n} against an independent solve", got, w, min_digits))
    return min(digits)


def check_cache_rerun(cold, cached):
    """The re-run must read the cache and give the cold run's table."""
    require(cold["report"]["cache_hit"] is False, "cold nnrr reported a cache hit")
    require(cached["report"]["cache_hit"] is True, "re-run did not read the table cache")
    require(cached["table"] == cold["table"], "cached table differs from the cold table")


def strictly_decreasing(label, values):
    vals = [float(v) for v in values]
    require(all(x > y for x, y in zip(vals, vals[1:])), f"{label} errors do not decrease: {vals}")


# ---------------------------------------------------------------------------
# Tree spectra
# ---------------------------------------------------------------------------

def count_below(matrix, xs):
    """Eigenvalues of a symmetric tree matrix below each x, by Sylvester inertia.

    matrix holds CSR arrays (indptr, indices, data). Eliminating from the
    highest index down is an LDL^T factorisation of M - x I without fill
    when every vertex has at most one neighbour of lower index (its parent);
    the count is the number of negative pivots.
    """
    indptr, indices, data = matrix["indptr"], matrix["indices"], matrix["data"]
    n = len(indptr) - 1
    diag, parent, weight = np.zeros(n), np.full(n, -1), np.zeros(n)
    for v in range(n):
        for k in range(indptr[v], indptr[v + 1]):
            u, val = indices[k], data[k]
            if u == v:
                diag[v] = val
            elif u < v:
                require(parent[v] == -1, f"vertex {v} has two lower neighbours; not a tree order")
                parent[v], weight[v] = u, val
    xs = np.asarray(xs, dtype=float)
    pivots = diag[:, None] - xs[None, :]
    for v in range(n - 1, 0, -1):
        if parent[v] >= 0:
            d = np.where(pivots[v] == 0, 1e-300, pivots[v])
            pivots[parent[v]] -= weight[v] ** 2 / d
    return [int(k) for k in np.sum(pivots < 0, axis=0)]


def check_counts(matrix, eigs, points):
    """Dense eigenvalues must match the inertia count at every point."""
    eigs = np.sort(np.asarray(eigs, dtype=float))
    for x, want in zip(points, count_below(matrix, points)):
        got = int(np.searchsorted(eigs, x))
        require(got == want, f"{got} eigenvalues below {x:.6f}, inertia gives {want}")


def check_probe(report, targets, epsilon, min_inside, max_gap=None):
    """Paper property: the truncation spectrum fills the target union."""
    eigs = np.asarray(report["eigs"], dtype=float)
    dist = np.min([np.maximum.reduce([a - eigs, np.zeros_like(eigs), eigs - b])
                   for a, b in targets], axis=0)
    inside = float(np.mean(dist <= epsilon))
    require(abs(inside - report["inside_fraction"]) < 1e-12,
            f"inside fraction reported {report['inside_fraction']}, recomputed {inside}")
    require(inside >= min_inside, f"inside fraction {inside:.4f} below {min_inside}")
    if max_gap is not None:
        require(report["max_coverage_gap"] <= max_gap,
                f"coverage gap {report['max_coverage_gap']:.4f} above {max_gap}")


# ---------------------------------------------------------------------------
# Sheet evaluation
# ---------------------------------------------------------------------------

def check_mfun(params, samples, tol=1e-10):
    """Root m-functions at complex z: both satisfy the tree's fixed point
    m_l (B_l - A1 m1 - A2 m2 - z) = 1 and are Herglotz (Im m > 0)."""
    A1, A2, B1, B2 = (float(v) for v in params)
    for z, m1, m2 in samples:
        s = A1 * m1 + A2 * m2 + z
        for l, (m, B) in enumerate(((m1, B1), (m2, B2)), start=1):
            require(m.imag > 0, f"m_{l}({z}) = {m} is not in the upper half-plane")
            r = abs(m * (B - s) - 1)
            require(r <= tol, f"fixed-point residual {r:.3e} for m_{l} at z={z}")


def check_masses(c, masses, min_digits):
    """Equilibrium masses are (c, 1 - c)."""
    with mp.workprec(WORK_BITS):
        c = mp.mpf(c)
        return min(agree("mass 1", masses[0], c, min_digits),
                   agree("mass 2", masses[1], 1 - c, min_digits))


def finite(label, *values):
    for v in values:
        require(math.isfinite(float(v)), f"{label} is not finite")
