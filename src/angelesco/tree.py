"""Jacobi operators on the rooted binary tree and their model limits.

Vertices carry multi-index projections (the root projects to (1,1) and each
child adds a unit step); every vertex owns one child edge of each type, and
a vertex's type is the type of its parent edge. The operator rows couple a
vertex to its parent and children through square roots of the a-coefficients
with the b-coefficient on the diagonal; the model operators freeze the
coefficients at their ray-limit values. Truncations are plain restrictions
(Dirichlet), whose spectra come from Sylvester inertia counts: eliminating
from the leaves up factors M - x I without fill, so the negative Schur pivots
count the eigenvalues below x, and bisection on the count finds them all.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, pi
from types import SimpleNamespace

import mpmath as mp

from .errors import ConvergenceError, DomainError, ShapeError, SourceError
from .precision import PrecisionContext, find_root

# the most eigenvalues spectrum_probe bisects for at once (about ten float arrays
# of this length) and the most vertices build_tree lays out (seven integer arrays)
EIG_COUNT_CAP = 1 << 20


@dataclass(frozen=True)
class TreeIndex:
    """Finite-depth rooted binary tree with projections and type labels.

    Vertices are heap-ordered: children of v are 2v+1 (type 1) and 2v+2
    (type 2); iota[v] is the vertex type (0 for the root), proj[v] the
    multi-index projection.
    """

    depth: int
    parent: "np.ndarray"
    proj: "np.ndarray"
    iota: "np.ndarray"
    level: "np.ndarray"

    @property
    def n_vertices(self):
        return len(self.parent)


def build_tree(depth):
    import numpy as np

    if depth < 0:
        raise ValueError("depth must be >= 0")
    if 2 ** (depth + 1) - 1 > EIG_COUNT_CAP:
        raise ShapeError(f"depth {depth} has more vertices than the cap {EIG_COUNT_CAP}")
    v = np.arange(2 ** (depth + 1) - 1, dtype=np.int64)
    level = np.repeat(np.arange(depth + 1, dtype=np.int64), 2 ** np.arange(depth + 1))
    # below the leading bit of v + 1, each 1 bit is a step to a type-2 child
    twos = np.bitwise_count(v + 1).astype(np.int64) - 1
    iota = np.where(v > 0, 2 - v % 2, 0)
    return TreeIndex(depth, (v - 1) // 2, np.column_stack([1 + level - twos, 1 + twos]), iota, level)


# ---------------------------------------------------------------------------
# Coefficient sources
# ---------------------------------------------------------------------------

class SyntheticSource:
    """Coefficient field frozen at the ray-limit constants.

    a(n, i) = A_{c,i} and b(n, i) = B_{c,i} with c = n1/|n|; indices on the
    boundary rays use the closed-form degenerate constants. Values are cached
    per exact rational c and returned as floats (machine precision is all the
    truncation spectra can use).
    """

    def __init__(self, geometry, bits=192):
        self.geometry = geometry
        self.ctx = PrecisionContext(bits)
        self._cache = {}

    def constants(self, c):
        c = Fraction(c).limit_denominator(10 ** 12)
        hit = self._cache.get(c)
        if hit is None:
            from .curve import curve
            with self.ctx.workprec():
                c_mp = mp.mpf(c.numerator) / c.denominator
            cd = curve(self.geometry, c_mp, self.ctx, with_dc=False)
            hit = tuple(float(v) for v in (cd.A1, cd.A2, cd.B1, cd.B2))
            self._cache[c] = hit
        return hit

    def _c_of(self, n):
        n1, n2 = int(n[0]), int(n[1])
        if n1 + n2 == 0:
            raise SourceError("ray fraction undefined at (0,0)")
        return Fraction(n1, n1 + n2)

    def a(self, n, i):
        A1, A2, _, _ = self.constants(self._c_of(n))
        return A1 if i == 1 else A2

    def b(self, n, i):
        _, _, B1, B2 = self.constants(self._c_of(n))
        return B1 if i == 1 else B2


class ComputedSource:
    """Coefficient field read from a recurrence table."""

    def __init__(self, table):
        self.table = table

    def _row(self, n):
        try:
            return self.table.get(tuple(n))
        except KeyError as exc:
            raise SourceError(f"table is missing index {tuple(n)}") from exc

    def a(self, n, i):
        row = self._row(n)
        return float(row[0] if i == 1 else row[1])

    def b(self, n, i):
        row = self._row(n)
        return float(row[2] if i == 1 else row[3])


class PerturbedSource:
    """Wrap a source, overriding finitely many (n, i) -> (a, b) entries."""

    def __init__(self, base, a_overrides=None, b_overrides=None):
        self.base = base
        self.a_overrides = dict(a_overrides or {})
        self.b_overrides = dict(b_overrides or {})

    def a(self, n, i):
        return self.a_overrides.get((tuple(n), i), self.base.a(n, i))

    def b(self, n, i):
        return self.b_overrides.get((tuple(n), i), self.base.b(n, i))


# ---------------------------------------------------------------------------
# Truncations
# ---------------------------------------------------------------------------

def _csr(cols, vals):
    """CSR of the square matrix with vals[r, j] at (r, cols[r, j]), j ascending; no zeros."""
    import numpy as np

    keep = vals != 0
    return SimpleNamespace(data=vals[keep], indices=cols[keep], shape=(len(vals),) * 2,
                           indptr=np.concatenate([[0], np.cumsum(keep.sum(axis=1))]))


class TreeTruncation:
    """Dirichlet truncation of a tree operator, vertices in heap order: from an
    assembly's lattice table (``_table``), which the pivot classes are keyed on and
    the matrix is built from on first access, or from a matrix (CSR arrays)."""

    def __init__(self, matrix, tag, depth, table=None):
        self.tag, self.depth, self.table = tag, depth, table
        if table is None:
            self.matrix = matrix
        self.classes = _PivotClasses(matrix) if table is None else _PivotClasses.on_lattice(table)

    @cached_property
    def matrix(self):
        import numpy as np

        tree = build_tree(self.depth)
        v = np.arange(tree.n_vertices)
        _, vals = _rows(self.table, tree.proj - 1, tree.iota)
        return _csr(np.column_stack([tree.parent, v, 2 * v + 1, 2 * v + 2]), vals)

    @property
    def dim(self):
        return self.classes.n

    def dense(self):
        import numpy as np

        m, out = self.matrix, np.zeros(self.matrix.shape)
        out[np.repeat(np.arange(m.shape[0]), np.diff(m.indptr)), m.indices] = m.data
        return out


def _table(depth, root, a, b):
    """Lattice table of an assembly: the root diagonal, then b(q, i) and sqrt(a(q, i))
    at [q1 - 1, q2 - 1, i - 1] for each projection q above the leaves, zero elsewhere."""
    import numpy as np

    B, A = np.zeros((2, depth + 1, depth + 1, 2))
    for k1, k2 in ((k1, k2) for k1 in range(depth) for k2 in range(depth - k1)):
        for i in (1, 2):
            A[k1, k2, i - 1], B[k1, k2, i - 1] = a((1 + k1, 1 + k2), i), b((1 + k1, 1 + k2), i)
    return root, B, np.sqrt(A)


def _rows(table, p, t):
    """Diagonals and rows (parent, self, type-1 child, type-2 child; 0 where absent) of
    vertices of type t (0 at the root) at projection offsets p = projection - (1, 1)."""
    import numpy as np

    root, b, w = table
    q = p - np.eye(3, 2, -1, dtype=np.int64)[t]  # the parent's projection offsets
    diag = np.where(t > 0, b[q[:, 0], q[:, 1], t - 1], root)
    up = np.where(t > 0, w[q[:, 0], q[:, 1], t - 1], 0.0)
    return diag, np.column_stack([up, diag, w[p[:, 0], p[:, 1]]])


def assemble_J(tree, source, kappa=(0.0, 1.0)):
    """Dirichlet truncation of the Jacobi operator for a coefficient source.

    Row of a non-root vertex: sqrt(a) to the parent at the parent's
    projection and the vertex type, the matching b on the diagonal, and
    sqrt(a) to each child at the vertex's own projection. The root diagonal
    mixes the two b's just below (1,1) through kappa. The source is read once
    per (projection, type) above the leaves.
    """
    root = kappa[0] * source.b((0, 1), 1) + kappa[1] * source.b((1, 0), 2)
    return TreeTruncation(None, "J", tree.depth, _table(tree.depth, root, source.a, source.b))


def assemble_L(tree, c, l, curve_data):
    """Dirichlet truncation of the model operator with root diagonal B_{c,l}."""
    if l not in (1, 2):
        raise ValueError("l must be 1 or 2")
    A = (float(curve_data.A1), float(curve_data.A2))
    B = (float(curve_data.B1), float(curve_data.B2))
    table = _table(tree.depth, B[l - 1], lambda n, i: A[i - 1], lambda n, i: B[i - 1])
    return TreeTruncation(None, f"L({c},{l})", tree.depth, table)


_TINY_PIVOT = 1e-300  # stands in for an exactly zero pivot, as in LDL^T inertia counts
_COUNT_BLOCK = 1 << 20  # pivot-table entries per block of count points


class _PivotClasses:
    """Vertices of a symmetric tree matrix grouped by their Schur pivot.

    In heap order a vertex's only lower-index neighbour is its parent.
    Eliminating M - x I from the highest index down leaves at each vertex the
    pivot d_v(x) = M_vv - x - sum_c M_vc^2 / d_c(x) over its children, so
    vertices with the same diagonal and the same (weight^2, class) children
    share d_v at every x. Classes are keyed that way bottom-up, with children
    in descending index order, which keeps each class's arithmetic
    bit-identical to the per-vertex elimination. A matrix (CSR arrays) is
    keyed vertex by vertex; ``on_lattice`` gets the same classes from the
    O(depth^2) nodes of an assembly's lattice. A model operator at depth 10
    has 21 classes for 2047 vertices; trees without repeated structure keep
    one class per vertex. Classes with the same (weight^2, child) pair at a child
    position share its quotient; on a lattice (p, 1) and (p, 2) share both pairs.
    """

    def __init__(self, matrix):
        import numpy as np

        n = matrix.shape[0]
        if matrix.shape[1] != n:
            raise ShapeError("matrix must be square")
        rows = np.repeat(np.arange(n), np.diff(matrix.indptr))
        order = np.lexsort((matrix.indices, rows))  # each row's columns ascending
        rows, cols, vals = rows[order], matrix.indices[order].astype(np.int64), matrix.data[order]
        # the entries of M - M^T, one per stored position of M or M^T
        _, pos = np.unique(np.concatenate([rows * n + cols, cols * n + rows]), return_inverse=True)
        skew = np.bincount(pos, weights=np.concatenate([vals, -vals]))
        if np.abs(skew).max(initial=0.0) > 1e-12 * max(1.0, np.abs(vals).max(initial=0.0)):
            raise ShapeError("matrix is not symmetric within tolerance")
        diag = np.zeros(n)
        on = rows == cols
        diag[rows[on]] = vals[on]
        low = cols < rows
        if np.bincount(rows[low], minlength=n).max() > 1:
            raise ShapeError("a vertex has two lower-index neighbours; not a tree in heap order")
        parent = np.full(n, -1)
        parent[rows[low]] = cols[low]
        w2 = np.zeros(n)
        w2[rows[low]] = vals[low] ** 2

        keys, kids = {}, [[] for _ in range(n)]
        cls = np.empty(n, dtype=np.int64)
        for v in range(n - 1, -1, -1):
            k = cls[v] = keys.setdefault((diag[v], tuple(kids[v])), len(keys))
            if parent[v] >= 0:
                kids[parent[v]].append((w2[v], k))
        self._tabulate(keys, np.bincount(cls, minlength=len(keys)), diag, rows, vals)

    @classmethod
    def on_lattice(cls, table):
        """Classes from a lattice table: a vertex of type t at projection p reads the
        table at (p - e_t, t) and its children's at p, so its pivot depends on (p, t)
        alone, and the C(|q| - 2, q1 - 1) root paths to q = p - e_t count its vertices."""
        import numpy as np

        depth = len(table[1]) - 1
        if (1 << depth + 1) - 1 > np.iinfo(np.int64).max:
            raise ShapeError(f"depth {depth} has more vertices than an int64 count holds")
        nodes = np.array([(q1 + (t == 1), level - 1 - q1 + (t == 2), t)
                          for level in range(depth, 0, -1) for q1 in range(level)
                          for t in (1, 2)] + [(0, 0, 0)], dtype=np.int64)
        diag, vals = _rows(table, nodes[:, :2], nodes[:, 2])
        keys, node_class, mult = {}, {}, {}
        for (p1, p2, t), d, kid_w, kid_w2 in zip(nodes.tolist(), diag, vals[:, 2:], vals[:, 2:] ** 2):
            kids = tuple((kid_w2[j - 1], node_class[p1 + (j == 1), p2 + (j == 2), j])
                         for j in (2, 1) if kid_w[j - 1] != 0)
            k = node_class[p1, p2, t] = keys.setdefault((d, kids), len(keys))
            mult[k] = mult.get(k, 0) + comb(p1 + p2 - (t > 0), p1 - (t == 1))
        return cls.__new__(cls)._tabulate(keys, np.array([mult[k] for k in range(len(keys))]),
                                          diag, np.nonzero(vals)[0], vals[vals != 0])

    def _tabulate(self, keys, mult, diag, rows, vals):
        """The per-height class table, and Gershgorin bounds widened so the count is 0
        below and n above. rows and vals list the stored entries in CSR order; each row
        sums by np.add.reduceat (its first entry plus the pairwise sum of the rest)."""
        import numpy as np

        # a class is numbered after its children's, so heights come in one pass
        entries = list(keys)
        height = np.zeros(len(entries), dtype=np.int64)
        for k, (_, ch) in enumerate(entries):
            height[k] = 1 + max((height[j] for _, j in ch), default=-1)
        order = np.argsort(height, kind="stable")
        rank = np.argsort(order)

        self.n = int(mult.sum())
        self._diag = np.array([entries[k][0] for k in order])
        self._mult = mult[order]
        # per height, the classes [start, stop) and per child position: rows, pairs, row -> pair
        self._levels = []
        bounds = np.searchsorted(height[order], np.arange(height.max() + 2))
        for start, stop in zip(bounds[:-1], bounds[1:]):
            slots = {}
            for r in range(start, stop):
                for j, (w, c) in enumerate(entries[order[r]][1]):
                    slot, pairs = slots.setdefault(j, ([], {}))
                    slot.append((r, pairs.setdefault((float(w), int(rank[c])), len(pairs))))
            level = []
            for slot, pairs in slots.values():
                (rs, which), (w2, kids) = zip(*slot), zip(*pairs)
                at = slice(rs[0], rs[-1] + 1) if rs[-1] - rs[0] == len(rs) - 1 else np.array(rs)
                level.append((at, w2[0], kids[0], slice(None)) if len(pairs) == 1 else
                             (at, np.array(w2)[:, None], np.array(kids), np.array(which)))
            self._levels.append((start, stop, level))

        radius = np.zeros(len(diag))
        start = np.flatnonzero(np.diff(rows, prepend=-1))
        radius[rows[start]] = np.add.reduceat(np.abs(vals), start)
        radius -= np.abs(diag)
        lo, hi = float(np.min(diag - radius)), float(np.max(diag + radius))
        self.tol = 2 * np.finfo(float).eps * max(abs(lo), abs(hi))
        pad = max(self.tol, np.finfo(float).tiny)
        self.lower, self.upper = lo - pad, hi + pad
        return self

    def count_below(self, xs):
        """Number of eigenvalues strictly below each x: the negative pivots. Each level
        subtracts in place one quotient per distinct (weight^2, child) pair (a lone pair
        reads the child's row as a view), then sets its exact zero pivots to _TINY_PIVOT."""
        import numpy as np

        xs = np.asarray(xs, dtype=float)
        out = np.empty(len(xs), dtype=np.int64)
        block = max(1, _COUNT_BLOCK // len(self._diag))
        for s in range(0, len(xs), block):
            piv = self._diag[:, None] - xs[None, s:s + block]
            # a subnormal child pivot sends its parent's to -inf: still negative
            with np.errstate(over="ignore"):
                for start, stop, slots in self._levels:
                    for rows, w2, kids, which in slots:
                        piv[rows] -= (w2 / piv[kids])[which]
                    level = piv[start:stop]
                    level[level == 0] = _TINY_PIVOT
            out[s:s + block] = self._mult @ (piv < 0)
        return out

    def eigenvalues(self):
        """All n eigenvalues, ascending, by bisection on the count to about 2 eps ||M||.

        Distinct intervals carry their ends' counts and keep the halves that hold
        eigenvalues; one that cannot shrink below tol gives its midpoint count(hi) -
        count(lo) times: the brackets of bisecting for each k by count(lo) <= k < count(hi)."""
        import numpy as np

        lo, hi, below, above = (np.array([v]) for v in (self.lower, self.upper, 0, self.n))
        done = []
        while len(lo):
            mid = 0.5 * (lo + hi)
            live = (hi - lo > self.tol) & (lo < mid) & (mid < hi)
            if not live.all():
                done.append(np.repeat(mid[~live], (above - below)[~live]))
                lo, mid, hi, below, above = lo[live], mid[live], hi[live], below[live], above[live]
            # k < count goes left (clipped for a non-monotone count); a split appends its right
            count = np.clip(self.count_below(mid), below, above)
            left = count > below
            split = np.flatnonzero(left & (above > count))
            lo, hi, below, above = (np.concatenate([np.where(left, a, b), b[split]]) for a, b in
                                    ((lo, mid), (mid, hi), (below, count), (count, above)))
        return np.sort(np.concatenate(done))


def spectrum_probe(truncation, intervals, epsilon):
    """Eigenvalues of the truncation against a target union of intervals.

    The eigenvalues come from bisection on Sylvester inertia counts over the
    truncation's pivot classes (no dense matrix is formed); the truncation
    must be a tree in heap order, as every assembled one is. Returns the
    ascending eigenvalues, the fraction inside the epsilon-fattened target,
    and the largest distance from a point of the target's grid of step 0.01
    to the nearest eigenvalue.
    """
    import numpy as np

    if truncation.dim > EIG_COUNT_CAP:
        raise ShapeError(f"dimension {truncation.dim} exceeds cap {EIG_COUNT_CAP}")
    eigs = truncation.classes.eigenvalues()
    intervals = [(float(a), float(b)) for a, b in intervals]

    dist = np.min([np.maximum(np.maximum(a - eigs, 0.0), eigs - b) for a, b in intervals],
                  axis=0)
    inside = int(np.count_nonzero(dist <= epsilon))
    gaps = []
    for a, b in intervals:
        grid = np.arange(a, b + 0.005, 0.01)
        i = np.searchsorted(eigs, grid)
        right = np.abs(eigs[np.minimum(i, len(eigs) - 1)] - grid)
        left = np.abs(eigs[np.maximum(i - 1, 0)] - grid)
        gaps.append(float(np.max(np.minimum(left, right))))
    return {
        "eigs": eigs,
        "inside_fraction": inside / len(eigs),
        "max_coverage_gap": max(gaps),
        "epsilon": epsilon,
        "dim": truncation.dim,
        "depth": truncation.depth,
    }


# ---------------------------------------------------------------------------
# m-functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MFunctionPair:
    m1: complex
    m2: complex

    def get(self, l):
        return self.m1 if l == 1 else self.m2


def m_recursion(curve_data, l, z):
    """Resolvent diagonal at the root by the coupled fixed point.

    Deleting the root edges shows the two subtree resolvents solve
    m_l = 1/(B_l - A_1 m_1 - A_2 m_2 - z); iterate from (0, 0), which stays
    Herglotz at every step, until both residuals drop below 1e-12, for at
    most 600 steps.
    """
    z = complex(z)
    if z.imag <= 0:
        raise DomainError("fixed-point evaluation needs Im z > 0")
    A1, A2 = float(curve_data.A1), float(curve_data.A2)
    B1, B2 = float(curve_data.B1), float(curve_data.B2)
    m1 = m2 = 0j
    for _ in range(600):
        n1 = 1.0 / (B1 - A1 * m1 - A2 * m2 - z)
        n2 = 1.0 / (B2 - A1 * m1 - A2 * m2 - z)
        m1, m2 = n1, n2
        r1 = abs(m1 * (B1 - A1 * m1 - A2 * m2 - z) - 1)
        r2 = abs(m2 * (B2 - A1 * m1 - A2 * m2 - z) - 1)
        if max(r1, r2) <= 1e-12:
            return MFunctionPair(m1, m2)
    raise ConvergenceError("fixed point did not converge in 600 steps; Im z is too small")


def m_closed_pair(curve_data, z, ctx):
    """Closed forms -1/(chi^(0)(z) - B_l), l = 1, 2, from one sheet evaluation (m_+ on a cut)."""
    from .curve import chi_eval

    with ctx.workprec():
        w0 = chi_eval(curve_data, z, ctx)[0]
        return MFunctionPair(complex(-1 / (w0 - curve_data.B1)),
                             complex(-1 / (w0 - curve_data.B2)))


def m_closed(curve_data, l, z, ctx):
    """Closed form -1/(chi^(0)(z) - B_l) through the sheet solver."""
    if l not in (1, 2):
        raise ValueError("l must be 1 or 2")
    return m_closed_pair(curve_data, z, ctx).get(l)


def m_spectral_density(curve_data, l, x, ctx):
    """Im m_+(x)/pi on the support interiors (nonnegative)."""
    val = m_closed(curve_data, l, x, ctx)
    return val.imag / pi


# ---------------------------------------------------------------------------
# Degenerate-ray decoupling report
# ---------------------------------------------------------------------------

def appendix_c0(geometry, ctx, depth=40):
    """Half-line decoupling of the model operator on the c = 0 boundary ray.

    With the first coefficient limit vanishing the operator splits into
    half-line blocks: one free block with spectrum [B2 - 2 sqrt(A2),
    B2 + 2 sqrt(A2)] and copies whose first diagonal entry is B1, each
    carrying a single bound state pinned at the first interval's left end.
    """
    import numpy as np

    from .curve import curve
    from .szego_maps import w_map

    g = geometry
    with ctx.workprec():
        cd = curve(g, 0, ctx)
        A2, B1, B2 = cd.A2, cd.B1, cd.B2

        def m_hat1(zz):
            return (B2 - zz + w_map(zz, g.alpha2, g.beta2)) / (2 * A2)

        def pole_eq(zz):
            return A2 * m_hat1(zz) + zz - B1

        def pole_eq_prime(zz):
            # w' = (z - (alpha2 + beta2)/2) / w off [alpha2, beta2]
            return (1 + (zz - (g.alpha2 + g.beta2) / 2) / w_map(zz, g.alpha2, g.beta2)) / 2

        identity_residual = abs(pole_eq(g.alpha1))
        m_hat1_at_alpha1 = m_hat1(g.alpha1)
        # locate the pole of the second block's resolvent
        lo = g.alpha1 - (g.beta2 - g.alpha1)
        hi = g.alpha2 - (g.alpha2 - g.beta1) / 100
        pole = find_root(pole_eq, pole_eq_prime, lo, hi, ctx)

        band = (B2 - 2 * mp.sqrt(A2), B2 + 2 * mp.sqrt(A2))

    # depth-`depth` truncation of the decorated half-line block: a path is a
    # tree in heap order, so the inertia-count kernel applies
    nA = depth + 1
    diag = np.full(nA, float(B2))
    diag[0] = float(B1)
    off = np.full(nA - 1, float(np.sqrt(float(A2))))
    v = np.arange(nA)
    path = _csr(np.column_stack([v - 1, v, v + 1]),
                np.column_stack([np.r_[0.0, off], diag, np.r_[off, 0.0]]))
    eigs = _PivotClasses(path).eigenvalues()
    near_pole = [x for x in eigs if abs(x - float(pole)) < 1e-3]
    band_lo, band_hi = float(band[0]), float(band[1])
    outside = [x for x in eigs
               if abs(x - float(pole)) >= 1e-3 and not (band_lo - 1e-6 <= x <= band_hi + 1e-6)]
    return {
        "identity_residual": identity_residual,
        "m_hat1_at_alpha1": m_hat1_at_alpha1,
        "pole": pole,
        "pole_error": abs(pole - g.alpha1),
        "band": band,
        "eigs": eigs,
        "n_near_pole": len(near_pole),
        "n_outside": len(outside),
        "depth": depth,
    }


# ---------------------------------------------------------------------------
# Coefficient-field limits along escaping paths
# ---------------------------------------------------------------------------

def ray_path(c, length):
    """Staircase of multi-indices from (1,1) tracking n1/|n| -> c."""
    c = float(c)
    path = [(1, 1)]
    n1, n2 = 1, 1
    for _ in range(length):
        if n1 + 1 <= c * (n1 + n2 + 1):
            n1 += 1
        else:
            n2 += 1
        path.append((n1, n2))
    return path


def _ball_vertices(word, radius):
    """Vertex words within tree distance radius of the given root-path word."""
    seen = {word}
    frontier = [word]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            neighbors = [w + (1,), w + (2,)]
            if len(w) > 0:
                neighbors.append(w[:-1])
            for u in neighbors:
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return seen


def _word_proj(word):
    return (1 + sum(1 for t in word if t == 1), 1 + sum(1 for t in word if t == 2))


def rlimit_check(source, c, radius, depth_schedule, target_constants):
    """Sup deviation of the coefficient field from the frozen pattern.

    Follows the staircase path for the ray parameter c; at each scheduled
    depth compares the a/b entries on the tree ball of the given radius
    against (A_{c,i}, B_{c,i}). target_constants is (A1, A2, B1, B2).
    """
    A1, A2, B1, B2 = [float(v) for v in target_constants]
    A = (A1, A2)
    B = (B1, B2)
    schedule = sorted(depth_schedule)
    path = ray_path(c, max(schedule) + radius + 1)
    deviations = []
    for d in schedule:
        # word of the path vertex at distance d from the root
        word = tuple(1 if path[k + 1][0] > path[k][0] else 2 for k in range(d))
        worst = 0.0
        for w in _ball_vertices(word, radius):
            if len(w) == 0:
                continue  # the root row has no own-type data
            i = w[-1]
            np_proj = _word_proj(w[:-1])
            da = abs(source.a(np_proj, i) - A[i - 1])
            db = abs(source.b(np_proj, i) - B[i - 1])
            worst = max(worst, da, db)
        deviations.append(worst)
    return {"depths": schedule, "deviations": deviations, "max": max(deviations)}
