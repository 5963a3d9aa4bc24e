import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from angelesco import precision
from angelesco.curve import curve
from angelesco.errors import DomainError, ShapeError, SourceError
from angelesco.mops import AngelescoSystem, Geometry, lebesgue_weights, reference_geometry
from angelesco.precision import PrecisionContext, sym_eig
from angelesco.szego_maps import w_map
from angelesco.tree import (
    ComputedSource,
    PerturbedSource,
    SyntheticSource,
    TreeTruncation,
    _PivotClasses,
    appendix_c0,
    assemble_J,
    assemble_L,
    build_tree,
    m_closed,
    m_recursion,
    m_spectral_density,
    ray_path,
    rlimit_check,
    spectrum_probe,
)

CTX = PrecisionContext(512)
G0 = reference_geometry()
TARGETS = [(-2, -1), (1, 2)]


@pytest.fixture(scope="module")
def cd_half():
    return curve(G0, "0.5", CTX)


@pytest.fixture(scope="module")
def synthetic():
    return SyntheticSource(G0, bits=192)


def test_synthetic_source_passes_c_at_context_precision(monkeypatch):
    seen = []

    def fake_curve(geometry, c, ctx, with_dc=True):
        seen.append(c)
        return SimpleNamespace(A1=1, A2=1, B1=-1, B2=1)

    monkeypatch.setattr(sys.modules["angelesco.curve"], "curve", fake_curve)
    SyntheticSource(G0, bits=192).constants(Fraction(1, 3))
    with mp.workprec(192):
        assert seen == [mp.mpf(1) / 3]


def test_build_tree_structure():
    tree = build_tree(2)
    assert tree.n_vertices == 7
    assert tuple(tree.proj[0]) == (1, 1)
    assert {tuple(tree.proj[1]), tuple(tree.proj[2])} == {(2, 1), (1, 2)}
    for v in range(3, 7):
        assert tree.proj[v].sum() == 4  # two unit steps from the root
    # every vertex owns one child edge of each type; its type matches the
    # parent edge, so each non-root vertex meets two edges of its own type
    for v in range(1, 3):
        assert list(tree.iota[[2 * v + 1, 2 * v + 2]]) == [1, 2]
        assert tree.iota[v] in (1, 2)


def test_assemble_L_depth1_structure(cd_half):
    tree = build_tree(1)
    L = assemble_L(tree, 0.5, 1, cd_half).dense()
    A1, A2 = float(cd_half.A1), float(cd_half.A2)
    B1, B2 = float(cd_half.B1), float(cd_half.B2)
    assert np.allclose(np.diag(L), [B1, B1, B2])
    assert np.isclose(L[0, 1], np.sqrt(A1)) and np.isclose(L[0, 2], np.sqrt(A2))
    L2 = assemble_L(tree, 0.5, 2, cd_half).dense()
    # the two model operators differ only in the root diagonal
    D = L2 - L
    assert np.count_nonzero(D) == 1 and np.isclose(D[0, 0], B2 - B1)


def test_assemble_J_root_and_symmetry(synthetic, cd_half):
    tree = build_tree(4)
    J = assemble_J(tree, synthetic).dense()
    assert np.array_equal(J, J.T)  # symmetry is exact by construction
    # default kappa weights only the second boundary coefficient
    assert np.isclose(J[0, 0], synthetic.b((1, 0), 2))
    assert (J[np.triu_indices_from(J, 1)] >= 0).all()
    assert np.isfinite(J).all()


def test_degenerate_diagonal_only_probe():
    from scipy import sparse
    from angelesco.tree import TreeTruncation

    diag = np.array([-1.5, 1.2, 1.8])
    T = TreeTruncation(sparse.csr_matrix(np.diag(diag)), "diag", 1)
    rep = spectrum_probe(T, TARGETS, 0.1)
    assert np.allclose(np.sort(diag), rep["eigs"])
    assert rep["inside_fraction"] == 1.0


def test_decoupling_on_degenerate_ray(cd_half):
    # vanishing first coefficient splits the operator into half-line blocks
    cd0 = curve(G0, 0, CTX)
    tree = build_tree(3)
    L = assemble_L(tree, 0.0, 2, cd0).dense()
    n = tree.n_vertices
    # type-1 edges carry weight 0: the root chain follows type-2 children
    adj = (np.abs(L) > 1e-14) & ~np.eye(n, dtype=bool)
    comp = []
    seen = set()
    for s in range(n):
        if s in seen:
            continue
        stack, group = [s], set()
        while stack:
            v = stack.pop()
            if v in group:
                continue
            group.add(v)
            stack.extend(np.nonzero(adj[v])[0].tolist())
        seen |= group
        comp.append(sorted(group))
    # each component is a path (half-line piece) with at most 2 neighbors
    assert all(adj[v].sum() <= 2 for v in range(n))
    root_comp = next(g for g in comp if 0 in g)
    diag_root = np.diag(L)[root_comp]
    assert np.allclose(diag_root, float(cd0.B2))  # free half-line block
    other = next(g for g in comp if 0 not in g and len(g) > 1)
    diag_other = sorted(np.diag(L)[other])
    assert np.isclose(diag_other[0], float(cd0.B1)) and np.allclose(diag_other[1:], float(cd0.B2))


def test_spectrum_probe_model_operator(cd_half):
    tree = build_tree(8)
    rep = spectrum_probe(assemble_L(tree, 0.5, 1, cd_half), TARGETS, 0.1)
    assert rep["inside_fraction"] >= 0.9
    assert rep["max_coverage_gap"] < 0.05


def test_weyl_insensitivity(synthetic, cd_half):
    overrides = {((1, 1), 1): 0.9, ((2, 1), 1): 0.8, ((1, 2), 2): 0.7}
    pert = PerturbedSource(synthetic, a_overrides=overrides)
    diffs = []
    for depth in (5, 7):
        tree = build_tree(depth)
        a = spectrum_probe(assemble_J(tree, synthetic), TARGETS, 0.1)
        b = spectrum_probe(assemble_J(tree, pert), TARGETS, 0.1)
        diffs.append(abs(a["inside_fraction"] - b["inside_fraction"]))
        # a finite-rank change moves at most rank-many eigenvalues
        assert diffs[-1] <= 14 / a["dim"]
    assert diffs[1] <= diffs[0] + 0.01


EPS = np.finfo(float).eps
VALUES = (-1.0, -0.5, 0.0, 0.5, 1.0)
WEIGHTS = (0.0, 0.5, 1.0, 1.5)


def _vertex_counts(M, xs):
    """Per-vertex Sylvester counts: eliminate M - x I from the highest index down."""
    M = sparse.csr_matrix(M)
    xs = np.asarray(xs, dtype=float)
    pivots = M.diagonal()[:, None] - xs[None, :]
    for v in range(M.shape[0] - 1, 0, -1):
        row = M.getrow(v)
        lower = row.indices[row.indices < v]
        if len(lower):
            d = np.where(pivots[v] == 0, 1e-300, pivots[v])
            with np.errstate(over="ignore"):
                pivots[lower[0]] -= row[0, lower[0]] ** 2 / d
    return np.sum(pivots < 0, axis=0)


def _scipy(m):
    return sparse.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


def _bracket_eigenvalues(classes):
    """Bisection for each eigenvalue k alone, bracketed by count(lo) <= k < count(hi)."""
    k = np.arange(classes.n)
    lo, hi = np.full(classes.n, classes.lower), np.full(classes.n, classes.upper)
    while True:
        mid = 0.5 * (lo + hi)
        live = np.flatnonzero((hi - lo > classes.tol) & (lo < mid) & (mid < hi))
        if not len(live):
            return np.sort(mid)
        points, where = np.unique(mid[live], return_inverse=True)
        above = classes.count_below(points)[where] > k[live]
        hi[live[above]] = mid[live[above]]
        lo[live[~above]] = mid[live[~above]]


def _check_kernel(M, xs):
    quotient = _PivotClasses(M)
    eigs = quotient.eigenvalues()
    # bisecting distinct intervals repeats the per-eigenvalue brackets bit for bit
    assert np.array_equal(eigs, _bracket_eigenvalues(quotient))
    dense = sym_eig(M.toarray())
    assert len(eigs) == M.shape[0] and np.all(np.diff(eigs) >= 0)
    assert np.max(np.abs(eigs - dense)) <= 64 * EPS * max(1.0, float(np.max(np.abs(dense))))
    # the quotient repeats the per-vertex arithmetic, so counts agree exactly,
    # also on the diagonal values and at the eigenvalues, where pivots vanish
    xs = np.concatenate([xs, M.diagonal(), eigs])
    assert np.array_equal(quotient.count_below(xs), _vertex_counts(M, xs))
    # the bisection brackets repeat the sparse row sums bit for bit
    radius = np.asarray(abs(M).sum(axis=1)).ravel() - np.abs(M.diagonal())
    lo, hi = float(np.min(M.diagonal() - radius)), float(np.max(M.diagonal() + radius))
    pad = max(2 * EPS * max(abs(lo), abs(hi)), np.finfo(float).tiny)
    assert (quotient.lower, quotient.upper) == (lo - pad, hi + pad)


@st.composite
def heap_trees(draw):
    """A complete binary heap of depth <= 7 with a few subtrees cut off.

    Values depend on (level, type) with a few per-vertex overrides, so most
    vertices share pivot classes; zero weights split the tree into a forest.
    """
    depth = draw(st.integers(0, 7))
    n = 2 ** (depth + 1) - 1
    cut = draw(st.sets(st.integers(1, n - 1), max_size=6)) if n > 1 else set()
    diag = draw(st.lists(st.sampled_from(VALUES), min_size=2 * depth + 2, max_size=2 * depth + 2))
    weight = draw(st.lists(st.sampled_from(WEIGHTS), min_size=2 * depth + 2,
                           max_size=2 * depth + 2))
    override = draw(st.dictionaries(st.integers(0, n - 1), st.sampled_from(VALUES), max_size=4))
    keep = [True] * n
    for v in range(1, n):
        keep[v] = keep[(v - 1) // 2] and v not in cut
    label = {v: i for i, v in enumerate(v for v in range(n) if keep[v])}
    M = np.zeros((len(label), len(label)))
    for v, i in label.items():
        slot = 2 * ((v + 1).bit_length() - 1) + v % 2
        M[i, i] = override.get(v, diag[slot])
        if v:
            p = label[(v - 1) // 2]
            M[i, p] = M[p, i] = weight[slot]
    return sparse.csr_matrix(M)


@settings(max_examples=40, deadline=None)
@given(M=heap_trees(), xs=st.lists(st.floats(-4, 4), max_size=6))
def test_pivot_classes_random_trees(M, xs):
    _check_kernel(M, xs)


class _Frozen:
    def __init__(self, A, B):
        self.A, self.B = A, B

    def a(self, n, i):
        return self.A[i - 1]

    def b(self, n, i):
        return self.B[i - 1]


@settings(max_examples=25, deadline=None)
@given(depth=st.integers(0, 6),
       A=st.tuples(st.sampled_from((0.0, 0.25, 1.0)), st.sampled_from((0.25, 1.0))),
       B=st.tuples(st.sampled_from(VALUES), st.sampled_from(VALUES)),
       a_over=st.dictionaries(st.tuples(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                                        st.sampled_from((1, 2))),
                              st.sampled_from((0.0, 0.25, 2.0)), max_size=4),
       b_over=st.dictionaries(st.tuples(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                                        st.sampled_from((1, 2))),
                              st.sampled_from(VALUES), max_size=4),
       xs=st.lists(st.floats(-4, 4), max_size=6))
def test_pivot_classes_perturbed_source(depth, A, B, a_over, b_over, xs):
    source = PerturbedSource(_Frozen(A, B), a_overrides=a_over, b_overrides=b_over)
    T = assemble_J(build_tree(depth), source)
    _check_kernel(_scipy(T.matrix), xs)
    assert np.array_equal(T.classes.eigenvalues(), _bracket_eigenvalues(T.classes))


def _slot_forms(classes):
    """(rows, pairs) forms of the slots: rows a "slice" or "gather", pairs "view" or "gather"."""
    return {("slice" if isinstance(rows, slice) else "gather", "gather" if np.ndim(w2) else "view")
            for _, _, slots in classes._levels for rows, w2, _, _ in slots}


def test_pivot_classes_gather_a_slot_with_scattered_rows_and_two_pairs():
    # heap vertices 0-14 without 7, 8 and 12: at height 1, vertices 6 and 4 have two
    # children and 5 one, so the second-child slot has the rows of 6 and 4 only, with
    # two (weight^2, child) pairs; the first-child slot repeats the pair of 14 at 10
    diag = {0: 0.0, 1: 0.2, 2: -0.3, 3: 0.5, 4: -1.0, 5: 0.0, 6: 0.0,
            9: 1.0, 10: 0.5, 11: -0.5, 13: 0.0, 14: 0.5}
    weight = {1: 1.0, 2: 0.5, 3: 1.5, 4: 1.0, 5: 0.5, 6: 1.0,
              9: 0.5, 10: 1.0, 11: 1.0, 13: 0.5, 14: 1.0}
    label = {v: i for i, v in enumerate(sorted(diag))}
    M = np.diag([diag[v] for v in sorted(diag)])
    for v, w in weight.items():
        M[label[v], label[(v - 1) // 2]] = M[label[(v - 1) // 2], label[v]] = w
    M = sparse.csr_matrix(M)
    assert _slot_forms(_PivotClasses(M)) == {("slice", "view"), ("slice", "gather"),
                                             ("gather", "gather")}
    _check_kernel(M, [-2.0, -0.5, 0.0, 0.3, 1.7])


@pytest.mark.parametrize("endpoints", [("-2", "-1", "1", "2"), ("-2.3", "-1", "1", "1.9")])
def test_lattice_eigenvalues_repeat_the_bracket_bisection(endpoints):
    with CTX.workprec():
        g = Geometry(*[mp.mpf(v) for v in endpoints])
    T = assemble_L(build_tree(10), 0.5, 1, curve(g, "0.5", CTX))
    assert _slot_forms(T.classes) == {("slice", "view")}
    assert np.array_equal(T.classes.eigenvalues(), _bracket_eigenvalues(T.classes))


def test_jacobi_depth11_eigenvalues_repeat_the_bracket_bisection(synthetic):
    classes = assemble_J(build_tree(11), synthetic).classes
    assert ("slice", "gather") in _slot_forms(classes)
    assert np.array_equal(classes.eigenvalues(), _bracket_eigenvalues(classes))


def test_zero_pivots_of_either_sign_stand_in_as_tiny_positive():
    # a stored -0.0 diagonal leaves the pivot -0.0 at x = 0: as a divisor it would send
    # the parent's pivot to +inf, so one eigenvalue below 0 would go uncounted
    path = sparse.csr_matrix((np.array([0.0, 1.0, 1.0, -0.0]), np.array([0, 1, 0, 1]),
                              np.array([0, 2, 4])), shape=(2, 2))
    assert path.nnz == 4
    _check_kernel(path, [0.0])
    assert _PivotClasses(path).count_below([0.0]).tolist() == [1]
    for depth in (1, 4):
        T = assemble_J(build_tree(depth), _Frozen((1.0, 0.25), (-0.0, -0.0)))
        assert np.signbit(T.table[0]) and np.signbit(T.classes._diag).all()
        # the CSR matrix stores no zeros, so there the per-vertex pivots are +0.0
        assert np.array_equal(T.classes.count_below([0.0]), _vertex_counts(_scipy(T.matrix), [0.0]))


def test_multiplicities_refuse_depths_past_int64(cd_half):
    frozen = _model_source(cd_half)
    for assemble in (lambda t: assemble_L(t, 0.5, 1, cd_half), lambda t: assemble_J(t, frozen)):
        with pytest.raises(ShapeError):
            assemble(SimpleNamespace(depth=63))
        classes = assemble(SimpleNamespace(depth=62)).classes
        assert classes.n == 2 ** 63 - 1
        assert classes.count_below([classes.upper + 1]).tolist() == [2 ** 63 - 1]


def test_pivot_classes_merge_and_reject_non_trees(cd_half):
    # two classes per level below the root: 21 for 2047 vertices at depth 10
    assert len(_PivotClasses(assemble_L(build_tree(10), 0.5, 1, cd_half).matrix)._diag) == 21
    cycle = sparse.csr_matrix(np.ones((3, 3)) - np.eye(3))
    with pytest.raises(ShapeError):
        _PivotClasses(cycle)
    with pytest.raises(ShapeError):
        _PivotClasses(sparse.csr_matrix(np.array([[0.0, 1.0], [0.5, 0.0]])))


@pytest.mark.parametrize("kind", ["L", "J"])
def test_pivot_classes_against_mpmath(kind, cd_half, synthetic):
    tree = build_tree(5)
    T = assemble_L(tree, 0.5, 1, cd_half) if kind == "L" else assemble_J(tree, synthetic)
    with mp.workdps(40):
        exact = np.array(sorted(float(v) for v in
                                mp.eigsy(mp.matrix(T.dense().tolist()), eigvals_only=True)))
    eigs = _PivotClasses(T.matrix).eigenvalues()
    assert np.max(np.abs(eigs - exact)) <= 2 * EPS * max(1.0, float(np.max(np.abs(exact))))


def test_spectrum_probe_depth10_without_dense_matrix(cd_half, monkeypatch):
    def dense_route(*args, **kwargs):
        raise AssertionError("dense eigensolve")

    monkeypatch.setattr(precision, "sym_eig", dense_route)
    monkeypatch.setattr(np.linalg, "eigvalsh", dense_route)
    monkeypatch.setattr(TreeTruncation, "dense", dense_route)
    rep = spectrum_probe(assemble_L(build_tree(10), 0.5, 1, cd_half), TARGETS, 0.1)
    assert rep["dim"] == len(rep["eigs"]) == 2047
    assert np.all(np.diff(rep["eigs"]) >= 0)
    assert rep["inside_fraction"] == 1.0
    # the dense eigvalsh route gave 0.029741600619635822, good to its own 1e-15 error
    assert abs(rep["max_coverage_gap"] - 0.029741600619635822) < 1e-13


@pytest.mark.parametrize("eigs", [np.array([-2.0, -1.93, -1.5, -1.0, 0.3, 1.0, 1.004, 2.0, 2.2]),
                                  np.sort(np.random.default_rng(5).uniform(-2.5, 2.5, 301))])
def test_probe_statistics_match_loops(eigs, monkeypatch):
    # the vectorised statistics reproduce the per-point loops bit for bit
    monkeypatch.setattr(_PivotClasses, "eigenvalues", lambda self: eigs)
    T = TreeTruncation(sparse.identity(len(eigs), format="csr"), "stub", 0)
    rep = spectrum_probe(T, TARGETS, 0.1)
    dist = [min(max(a - x, 0.0, x - b) for a, b in TARGETS) for x in eigs]
    gaps = [float(np.min(np.abs(eigs - x)))
            for a, b in TARGETS for x in np.arange(a, b + 0.01 / 2, 0.01)]
    assert rep["inside_fraction"] == sum(1 for d in dist if d <= 0.1) / len(eigs)
    assert rep["max_coverage_gap"] == max(gaps)


def test_spectrum_probe_dimension_cap(cd_half, monkeypatch):
    # the cap bounds the eigenvalue list the bisection holds, not a dense matrix:
    # a depth-16 truncation (131,071 eigenvalues) is probed
    rep = spectrum_probe(assemble_L(build_tree(16), 0.5, 1, cd_half), TARGETS, 0.1)
    assert rep["dim"] == len(rep["eigs"]) == 131071 and rep["inside_fraction"] == 1.0
    monkeypatch.setattr(sys.modules["angelesco.tree"], "EIG_COUNT_CAP", 10)
    with pytest.raises(ShapeError):
        spectrum_probe(TreeTruncation(sparse.identity(15, format="csr"), "I", 3), TARGETS, 0.1)
    # a tree is refused before its vertex arrays are allocated
    with pytest.raises(ShapeError):
        build_tree(3)


def test_m_recursion_basics(cd_half):
    class Free:
        A1 = A2 = 0.0
        B1 = B2 = 0.0

    pair = m_recursion(Free(), 1, 1j)
    assert abs(pair.m1 - 1j) < 1e-12
    zs = [complex(x, y) for x in (-1.5, 0.0, 1.5) for y in (0.4, 1.0)]
    for z in zs:
        pair = m_recursion(cd_half, 1, z)
        assert pair.m1.imag > 0 and pair.m2.imag > 0
    with pytest.raises(DomainError):
        m_recursion(cd_half, 1, complex(0, -1))


def test_m_closed_matches_recursion(cd_half):
    worst = 0.0
    for z in [complex(x, y) for x in (-2.5, -1.2, 0.3, 1.5, 3.0) for y in (0.3, 0.9)]:
        for l in (1, 2):
            worst = max(worst, abs(m_recursion(cd_half, l, z).get(l)
                                   - m_closed(cd_half, l, z, CTX)))
    assert worst < 1e-10


def test_m_density_and_mass(cd_half):
    # nonnegative density on supports, vanishing outside, total mass 1
    for x in (-1.8, -1.3, 1.3, 1.8):
        assert m_spectral_density(cd_half, 1, x, CTX) > 0
    for x in (-2.6, 0.0, 2.7):
        assert abs(m_spectral_density(cd_half, 1, x, CTX)) < 1e-12
    total = 0.0
    for (a, b) in TARGETS:
        xs, ws = np.polynomial.legendre.leggauss(120)
        # endpoint substitution x = e +- t^2 absorbs the edge behavior
        for edge, sgn in ((a, 1), (b, -1)):
            tmax = np.sqrt((b - a) / 2)
            ts = tmax * (xs + 1) / 2
            vals = [m_spectral_density(cd_half, 1, float(edge + sgn * t * t), CTX) for t in ts]
            total += float(sum(w * tmax * t * v for w, t, v in zip(ws, ts, vals)))
    assert abs(total - 1) < 1e-6


def test_fixed_point_conformal_identity(cd_half):
    # substituting the closed forms into the coupled system reproduces z
    from angelesco.curve import chi_eval
    with CTX.workprec():
        worst = mp.mpf(0)
        for z in [mp.mpc(x, y) for x in (-2, -0.5, 1, 2.5) for y in ("0.4", "1.1")]:
            w0 = chi_eval(cd_half, z, CTX)[0]
            rhs = w0 + cd_half.A1 / (w0 - cd_half.B1) + cd_half.A2 / (w0 - cd_half.B2)
            worst = max(worst, abs(rhs - z))
        assert worst < mp.mpf("1e-10")


def test_appendix_decoupling_report():
    rep = appendix_c0(G0, CTX, depth=40)
    with CTX.workprec():
        assert rep["identity_residual"] < mp.mpf("1e-12")
        assert abs(rep["m_hat1_at_alpha1"] - mp.mpf("0.2871872")) < mp.mpf("2e-6")
        assert rep["pole_error"] < mp.mpf("1e-12")
        assert abs(rep["band"][0] - 1) < mp.mpf("1e-30")
        assert abs(rep["band"][1] - 2) < mp.mpf("1e-30")
    assert rep["n_near_pole"] == 1
    assert rep["n_outside"] == 0


@pytest.mark.parametrize("endpoints", [("-2", "-1", "1", "2"), ("-2.3", "-1", "1", "1.9"),
                                       ("-1.01", "-1", "1", "100"), ("-100", "-1", "1", "1.01")])
def test_appendix_pole_matches_findroot_at_twice_the_bits(endpoints):
    # the pole solves (B2 - z + w(z))/2 + z - B1 = 0 with the c = 0 constants;
    # mpmath's own solver at twice the bits is the reference
    for bits in (128, 256):
        ctx, ref_ctx = PrecisionContext(bits), PrecisionContext(2 * bits)
        with ctx.workprec():
            g = Geometry(*[mp.mpf(v) for v in endpoints])
        pole = appendix_c0(g, ctx, depth=10)["pole"]
        with ref_ctx.workprec():
            g = Geometry(*[mp.mpf(v) for v in endpoints])
            cd = curve(g, 0, ref_ctx)
            bracket = (g.alpha1 - (g.beta2 - g.alpha1), g.alpha2 - (g.alpha2 - g.beta1) / 100)
            ref = mp.findroot(lambda z: (cd.B2 - z + w_map(z, g.alpha2, g.beta2)) / 2 + z - cd.B1,
                              bracket, solver="anderson")
            assert abs(pole - ref) <= mp.ldexp(max(1, abs(ref)), 8 - bits)


def test_ray_path_and_rlimit_synthetic(synthetic):
    path = ray_path(0.5, 20)
    cs = [n1 / (n1 + n2) for n1, n2 in path]
    assert abs(cs[-1] - 0.5) < 0.05
    cd = curve(G0, "0.5", CTX)
    consts = (cd.A1, cd.A2, cd.B1, cd.B2)
    # the frozen field matches its own limit pattern exactly on the plateau
    # where the constants do not depend on the ray parameter
    rep = rlimit_check(synthetic, 0.5, 1, [4, 8, 12], consts)
    assert rep["max"] < 1e-12


def test_rlimit_computed_table():
    system = AngelescoSystem(G0, lebesgue_weights(), CTX)
    table = system.table(9)
    src = ComputedSource(table)
    cd = curve(G0, "0.5", CTX)
    consts = (cd.A1, cd.A2, cd.B1, cd.B2)
    rep = rlimit_check(src, 0.5, 1, [4, 6, 8], consts)
    assert rep["deviations"][-1] < rep["deviations"][0]
    # radius 0 reduces to pointwise coefficient convergence at the path vertex
    rep0 = rlimit_check(src, 0.5, 0, [4, 8], consts)
    assert rep0["deviations"][1] < rep0["deviations"][0]
    with pytest.raises(SourceError):
        src.a((40, 40), 1)


# ---------------------------------------------------------------------------
# Pivot classes keyed on the (projection, type) lattice
# ---------------------------------------------------------------------------

def _loop_tree(depth):
    """The per-vertex loop build_tree replaced."""
    n = 2 ** (depth + 1) - 1
    parent, proj = np.full(n, -1), np.ones((n, 2), dtype=np.int64)
    iota, level = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    for v in range(1, n):
        p, t = (v - 1) // 2, 1 if v % 2 == 1 else 2
        parent[v], iota[v], level[v] = p, t, level[p] + 1
        proj[v] = proj[p]
        proj[v, t - 1] += 1
    return parent, proj, iota, level


@pytest.mark.parametrize("depth", range(13))
def test_build_tree_matches_loop(depth):
    tree = build_tree(depth)
    for got, want in zip((tree.parent, tree.proj, tree.iota, tree.level), _loop_tree(depth)):
        assert got.dtype == np.int64 and np.array_equal(got, want)


def _lil_J(tree, source, kappa=(0.0, 1.0)):
    """Entry-by-entry sparse assembly of J, as before the lattice table."""
    n = tree.n_vertices
    M = sparse.lil_matrix((n, n))
    M[0, 0] = kappa[0] * source.b((0, 1), 1) + kappa[1] * source.b((1, 0), 2)
    for v in range(n):
        for child, i in ((2 * v + 1, 1), (2 * v + 2, 2)):
            if child < n:
                w = np.sqrt(source.a(tuple(tree.proj[v]), i))
                M[v, child] = M[child, v] = w
                M[child, child] = source.b(tuple(tree.proj[v]), i)
    return M.tocsr()


def _model_source(cd):
    return _Frozen((float(cd.A1), float(cd.A2)), (float(cd.B1), float(cd.B2)))


@pytest.fixture(scope="module")
def computed():
    return ComputedSource(AngelescoSystem(G0, lebesgue_weights(), PrecisionContext(192)).table(12))


@pytest.fixture(scope="module")
def lattice_sources(synthetic, computed):
    pert = PerturbedSource(synthetic, a_overrides={((1, 1), 1): 0.9, ((2, 1), 2): 0.0,
                                                   ((2, 3), 1): 2.5},
                           b_overrides={((1, 2), 2): 0.0, ((3, 1), 1): -0.25})
    return {"synthetic": synthetic, "computed": computed, "perturbed": pert}


@pytest.mark.parametrize("name", ["synthetic", "computed", "perturbed"])
def test_lattice_matrix_matches_entrywise_assembly(name, lattice_sources, cd_half):
    source = lattice_sources[name]
    for depth in (0, 1, 4, 7):
        tree = build_tree(depth)
        for new, old in ((assemble_J(tree, source).matrix, _lil_J(tree, source)),
                         (assemble_J(tree, source, kappa=(0.3, 0.7)).matrix,
                          _lil_J(tree, source, kappa=(0.3, 0.7))),
                         (assemble_L(tree, 0.5, 2, cd_half).matrix,
                          _lil_J(tree, PerturbedSource(_model_source(cd_half),
                                                       b_overrides={((1, 0), 2): float(cd_half.B2)})))):
            assert new.shape == old.shape
            for field in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(new, field), getattr(old, field))


def test_lattice_matrix_matches_on_the_boundary_ray():
    # A1 = 0 at c = 0: every type-1 edge is dropped, as the sparse assembly dropped it
    cd0 = curve(G0, 0, CTX)
    assert cd0.A1 == 0
    tree = build_tree(5)
    new = assemble_L(tree, 0.0, 1, cd0).matrix
    old = _lil_J(tree, PerturbedSource(_model_source(cd0), b_overrides={((1, 0), 2): float(cd0.B1)}))
    for field in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(new, field), getattr(old, field))
    assert len(new.data) == tree.n_vertices + 2 * (2 ** 5 - 1)  # diagonal and the type-2 edges


@pytest.mark.parametrize("name", ["synthetic", "computed", "perturbed"])
def test_lattice_counts_match_vertex_classes(name, lattice_sources, cd_half):
    source = lattice_sources[name]
    xs = np.random.default_rng(11).uniform(-3.0, 3.0, 200)
    for depth in range(10):
        tree = build_tree(depth)
        for T in (assemble_J(tree, source), assemble_L(tree, 0.5, 1, cd_half)):
            ref = _PivotClasses(T.matrix)
            at = np.concatenate([xs, ref._diag])  # zero pivots at the diagonal values
            assert np.array_equal(T.classes.count_below(at), ref.count_below(at))
            assert (T.classes.n, T.classes.lower, T.classes.upper) == (ref.n, ref.lower, ref.upper)
            assert len(T.classes._diag) == len(ref._diag) and T.dim == tree.n_vertices


def test_lattice_class_counts(synthetic, cd_half):
    assert len(assemble_L(build_tree(10), 0.5, 1, cd_half).classes._diag) == 21
    assert len(assemble_J(build_tree(11), synthetic).classes._diag) == 45


def test_lattice_counts_at_depth_16_without_a_matrix(cd_half, monkeypatch):
    def no_matrix(self):
        raise AssertionError("matrix built")

    monkeypatch.setattr(TreeTruncation, "matrix", property(no_matrix))
    xs = [-2.5, -1.5, 0.0, 1.5, 2.5]
    t0 = time.perf_counter()
    tree = build_tree(16)
    counts = [T.classes.count_below(xs)
              for T in (assemble_L(tree, 0.5, 1, cd_half), assemble_J(tree, SyntheticSource(G0)))]
    elapsed = time.perf_counter() - t0
    assert tree.n_vertices == 131071 and elapsed < 2.0
    for c in counts:
        assert c[0] == 0 and c[-1] == tree.n_vertices and np.all(np.diff(c) >= 0)


def test_computed_operator_essential_spectrum(computed):
    # the spectral theorem on the Jacobi matrix of the actual recurrence coefficients
    rep = spectrum_probe(assemble_J(build_tree(10), computed), TARGETS, 0.1)
    assert rep["dim"] == 2047
    assert rep["inside_fraction"] >= 0.9
    assert rep["max_coverage_gap"] < 0.05
