import mpmath as mp
import numpy as np
import pytest

from angelesco import mops
from angelesco.errors import DomainError, InternalInconsistency, InvalidWeight, NormalityFailure
from angelesco.mops import (
    AngelescoSystem,
    Geometry,
    MultiIndex,
    NnrrTable,
    WeightSpec,
    decay_slope,
    lebesgue_weights,
    moments,
    reference_geometry,
    type1_mop,
    type2_mop,
)
from angelesco.precision import PrecisionContext

CTX = PrecisionContext(512)


@pytest.fixture(scope="module")
def g0():
    return AngelescoSystem(reference_geometry(), lebesgue_weights(), CTX)


def test_geometry_validation():
    with pytest.raises(ValueError):
        Geometry(-2, 1, -1, 2)
    g = reference_geometry()
    assert g.mirrored().as_tuple() == g.as_tuple()


@pytest.mark.parametrize("coeffs, accepted", [
    pytest.param(("2.25", "-3", "1"), False, id="double-root-inside"),  # at 1.5, a halving point
    pytest.param(("1.69", "-2.6", "1"), False, id="touching-double-root"),  # at 1.3, off them all
    pytest.param(("-1", "1"), False, id="root-at-interval-end"),
    pytest.param(("-0.95", "1"), False, id="root-inside-margin"),
    pytest.param(("-0.89", "1"), True, id="root-beyond-margin"),
    pytest.param(("-1.5", "1"), False, id="simple-root-inside"),
    pytest.param(("1", "0", "1"), True, id="x2-plus-1"),
    pytest.param(("0",), False, id="zero-constant"),
    pytest.param(("-1",), False, id="negative-constant"),
])
def test_weight_positivity_check(coeffs, accepted):
    # interval 2 of the reference geometry is [1, 2]; its 10% margin is [0.9, 2.1]
    w = WeightSpec("poly", coeffs=coeffs, interval=2)
    if accepted:
        moments(w, reference_geometry(), 3, CTX)
    else:
        with pytest.raises(InvalidWeight):
            moments(w, reference_geometry(), 3, CTX)


def test_poly_weight_moments_closed_form():
    w = WeightSpec("poly", coeffs=(3, 1), interval=2)  # 3 + x > 0 near [1,2]
    m = moments(w, reference_geometry(), 2, CTX)
    with CTX.workprec():
        # integral of (3 + x) x^k over [1,2] has closed form
        assert abs(m[0] - (3 + mp.mpf(3) / 2)) < mp.mpf("1e-100")

def test_moments_reference_values(g0):
    with CTX.workprec():
        assert abs(g0.moment(2, 0) - 1) < mp.mpf("1e-120")
        assert abs(g0.moment(1, 1) + mp.mpf(3) / 2) < mp.mpf("1e-120")
        assert abs(g0.moment(1, 2) - mp.mpf(7) / 3) < mp.mpf("1e-120")


def test_multi_index_helpers():
    n = MultiIndex(3, 1)
    assert n.norm == 4
    assert n.plus(2).as_pair() == (3, 2)
    assert n.minus(1).as_pair() == (2, 1)
    with pytest.raises(ValueError):
        MultiIndex(-1, 0)


def test_type2_reference_polynomials(g0):
    with CTX.workprec():
        p10 = g0.solution((1, 0)).p_monic
        assert p10.degree == 1
        assert abs(p10.coeffs[0] - mp.mpf(3) / 2) < mp.mpf("1e-120")
        p00 = g0.solution((0, 0)).p_monic
        assert p00.degree == 0 and p00.coeffs[0] == 1
        p11 = g0.solution((1, 1)).p_monic
        assert p11.degree == 2
        assert abs(p11.coeffs[1]) < mp.mpf("1e-120")  # odd coefficient vanishes
        assert abs(p11.coeffs[0] + mp.mpf(7) / 3) < mp.mpf("1e-120")


def test_type1_reference_values(g0):
    with CTX.workprec():
        s11 = g0.solution((1, 1))
        assert abs(s11.a1_poly.coeffs[0] + mp.mpf(1) / 3) < mp.mpf("1e-120")
        assert abs(s11.a2_poly.coeffs[0] - mp.mpf(1) / 3) < mp.mpf("1e-120")
        s10 = g0.solution((1, 0))
        assert abs(s10.a1_poly.coeffs[0] - 1) < mp.mpf("1e-120")
        assert s10.a2_poly is None
    pair = (g0.moment_vector(1, 4), g0.moment_vector(2, 4))
    with pytest.raises(ValueError):
        type1_mop((0, 0), pair, CTX)


def test_dense_mops_refuse_a_residual_above_tolerance(g0, monkeypatch):
    # the true solution perturbed by a relative 2^(-bits/4), returned with
    # its own residual: both dense solves must refuse it
    solve = mops.solve_dense

    def perturbed(A, b, ctx, pivot_tol=None):
        x, _ = solve(A, b, ctx, pivot_tol)
        with ctx.workprec():
            x = [v * (1 + mp.mpf(2) ** (-ctx.mantissa_bits / 4)) for v in x]
            return x, max(abs(mp.fsum(a * v for a, v in zip(row, x)) - r) for row, r in zip(A, b))

    monkeypatch.setattr(mops, "solve_dense", perturbed)
    pair = (g0.moment_vector(1, 8), g0.moment_vector(2, 8))
    with pytest.raises(InternalInconsistency, match="type I residual"):
        type1_mop((3, 2), pair, CTX)
    with pytest.raises(InternalInconsistency, match="type II residual"):
        type2_mop((3, 2), pair, CTX)


def test_nnrr_reference_values(g0):
    with CTX.workprec():
        a1, a2, b1, b2 = g0.nnrr((0, 0))
        assert a1 == 0 and a2 == 0
        assert abs(b1 + mp.mpf(3) / 2) < mp.mpf("1e-120")
        assert abs(b2 - mp.mpf(3) / 2) < mp.mpf("1e-120")
        a1, a2, b1, b2 = g0.nnrr((1, 1))
        assert a1 > 0
        assert abs(a1 - a2) < mp.mpf("1e-120")  # symmetry of the reference geometry
        assert abs(a1 - mp.mpf(1) / 12) < mp.mpf("1e-100")  # h-ratio -1/4 over -3


def test_recurrence_residuals(g0):
    with CTX.workprec():
        assert g0.recurrence_residual((1, 1), 1) < mp.mpf("1e-100")
        # convention: the a-term for a vanishing component is absent
        assert g0.recurrence_residual((0, 2), 2) < mp.mpf("1e-100")
        rng = np.random.RandomState(11)
        for _ in range(6):
            n = (int(rng.randint(0, 8)), int(rng.randint(0, 8)))
            j = int(rng.randint(1, 3))
            assert g0.recurrence_residual(n, j) < mp.mpf("1e-90")


def test_zero_localization_and_symmetry(g0):
    z1, z2 = g0.zeros((1, 0))
    assert len(z1) == 1 and len(z2) == 0
    with CTX.workprec():
        assert abs(z1[0] + mp.mpf(3) / 2) < mp.mpf("1e-70")
    z1, z2 = g0.zeros((1, 1))
    assert len(z1) == 1 and len(z2) == 1
    with CTX.workprec():
        assert abs(z1[0] + z2[0]) < mp.mpf("1e-70")  # negatives of each other


def test_zero_counts_and_interlacing(g0):
    for n in [(2, 1), (3, 1), (3, 3), (2, 5)]:
        z1, z2 = g0.zeros(n)
        assert len(z1) == n[0] and len(z2) == n[1]
    za, _ = g0.zeros((2, 1))
    zb, _ = g0.zeros((3, 1))
    # zeros on the first interval interlace: zb has one more
    assert zb[0] < za[0] < zb[1] < za[1] < zb[2]


def test_interlacing_random_neighbor_pairs(g0):
    rng = np.random.RandomState(5)
    for _ in range(8):
        n1, n2 = int(rng.randint(1, 6)), int(rng.randint(1, 6))
        j = int(rng.randint(1, 3))
        n = MultiIndex(n1, n2)
        m = n.plus(j)
        for side in (0, 1):
            a = g0.zeros(n)[side]
            b = g0.zeros(m.as_pair())[side]
            if len(a) == len(b):
                continue
            assert len(b) == len(a) + 1
            for k in range(len(a)):
                assert b[k] < a[k] < b[k + 1]


def test_positivity_sweep(g0):
    for n1 in range(6):
        for n2 in range(6):
            a1, a2, _, _ = g0.nnrr((n1, n2))
            assert (n1 == 0 and a1 == 0) or (n1 >= 1 and a1 > 0)
            assert (n2 == 0 and a2 == 0) or (n2 >= 1 and a2 > 0)


def test_marginal_zero_drift(g0):
    # largest first-interval zero of P_(2,k) decreases toward alpha1
    tops = []
    for k in range(8, 33, 6):
        z1, _ = g0.zeros((2, k))
        tops.append(z1[-1])
    assert all(b < a for a, b in zip(tops, tops[1:]))
    with CTX.workprec():
        assert tops[-1] < mp.mpf("-1.5")


def test_remainder_decay(g0):
    with CTX.workprec():
        # Cauchy transform of the total mass at large z
        v = g0.remainder((0, 0), 2, mp.mpf(10) ** 8)
        assert abs(v * mp.mpf(10) ** 8 - 1) < mp.mpf("1e-7")
        zs = [100, 200, 400]
        vals = [g0.remainder((2, 2), 1, mp.mpf(z)) for z in zs]
        slope = decay_slope(vals, zs, CTX)
        assert abs(slope + 3) < mp.mpf("0.05")
        # conjugate symmetry of a real measure
        w = g0.remainder((2, 2), 1, mp.mpc(3, 2))
        wbar = g0.remainder((2, 2), 1, mp.mpc(3, -2))
        assert abs(w - mp.conj(wbar)) < mp.mpf("1e-100")
    with pytest.raises(DomainError):
        g0.remainder((1, 1), 1, mp.mpf("-1.5"))


def test_linear_form_decay(g0):
    with CTX.workprec():
        zs = [100, 200, 400]
        vals = [g0.linear_form((1, 0), mp.mpf(z)) for z in zs]
        slope = decay_slope(vals, zs, CTX)
        assert abs(slope + 1) < mp.mpf("0.05")
        vals = [g0.linear_form((2, 2), mp.mpf(z)) for z in zs]
        slope = decay_slope(vals, zs, CTX)
        assert abs(slope + 4) < mp.mpf("0.05")
        w = g0.linear_form((2, 2), mp.mpc(3, 2))
        wbar = g0.linear_form((2, 2), mp.mpc(3, -2))
        assert abs(w - mp.conj(wbar)) < mp.mpf("1e-100")


def test_table_csv_roundtrip(g0):
    table = g0.table(2)
    text = table.to_csv(digits=40)
    assert text.splitlines()[0] == "n1,n2,a1,a2,b1,b2"
    back = NnrrTable.from_csv(text)
    with CTX.workprec():
        for key, row in table.entries.items():
            for u, v in zip(row, back.get(key)):
                assert abs(u - v) < mp.mpf("1e-35") * (1 + abs(u))


def test_perfectness_sweep_reference_and_asymmetric():
    # residuals stay far below tolerance across a grid of indices, for the
    # reference geometry and for an asymmetric exp-poly/poly pair
    geo = Geometry("-2.3", "-0.9", "0.7", "2.1")
    weights = (
        WeightSpec("exppoly", coeffs=("0.2", "0.3"), interval=1),
        WeightSpec("poly", coeffs=("1.1", 0, "0.25"), interval=2),
    )
    systems = [
        AngelescoSystem(reference_geometry(), lebesgue_weights(), CTX),
        AngelescoSystem(geo, weights, CTX),
    ]
    for system in systems:
        for n1 in range(13):
            for n2 in range(13):
                if n1 == n2 == 0:
                    continue
                sol = system.solution((n1, n2))
                with CTX.workprec():
                    assert sol.residual < mp.mpf("1e-80")


THIN = ("-1.01", "-1", "1", "100")


def _thin_system(bits):
    ctx = PrecisionContext(bits)
    with ctx.workprec():
        return AngelescoSystem(Geometry(*[mp.mpf(v) for v in THIN]), lebesgue_weights(), ctx)


def test_type2_only_where_type1_is_singular():
    # at 192 bits only the type I system at (5, 8) is singular: P_n, its zeros and the
    # recurrence residual need no type I solve, while the linear form still does
    low, high = _thin_system(192), _thin_system(512)
    zeros = low.zeros((5, 8))
    assert [len(z) for z in zeros] == [5, 8]
    with mp.workprec(512):
        for got, want in zip(zeros, high.zeros((5, 8))):
            assert max(abs(a - b) for a, b in zip(got, want)) < mp.mpf("1e-20")
    assert low.recurrence_residual((4, 8), 1) < mp.mpf("1e-6")
    with pytest.raises(NormalityFailure):
        low.linear_form((5, 8), 200)
    assert high.solution((5, 8)).a1_poly is not None
