"""The recurrence sweep: precision, the dense oracle, symmetries, certificates."""

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angelesco import mops
from angelesco.errors import InternalInconsistency, NormalityFailure
from angelesco.mops import AngelescoSystem, Geometry, MultiIndex, WeightSpec, lebesgue_weights
from angelesco.precision import PrecisionContext

ASYM = ("-2.3", "-1", "1", "1.9")
POLY = ("1.4", "0.8", "0.2")
EXPPOLY = ("0", "0.3", "-0.1")


def geometry(endpoints, bits):
    with mp.workprec(bits):
        return Geometry(*[mp.mpf(v) for v in endpoints])


def assert_tables_agree(t1, t2, bits, transform=lambda key, row: (key, row)):
    with mp.workprec(bits):
        tol = mp.mpf(2) ** (20 - bits)
        for key, row in t1.entries.items():
            key2, want = transform(key, row)
            for u, v in zip(t2.get(key2), want):
                assert abs(u - v) <= tol * max(1, abs(v)), (key, u, v)


@pytest.mark.parametrize("bits", [128, 192])
@pytest.mark.parametrize("endpoints", [("-3", "-2.9", "-2.8", "4"), ("-1.01", "-1", "1", "100"),
                                       ("-100", "-1", "1", "1.01")])
def test_table_matches_twice_the_bits(endpoints, bits):
    # at these bits the dense moment solves of solution() lose 21 digits of
    # b1(8,0) on the first geometry and find the second one singular
    tables = [AngelescoSystem(geometry(endpoints, b), lebesgue_weights(), PrecisionContext(b))
              .table(8) for b in (bits, 2 * bits)]
    assert_tables_agree(tables[1], tables[0], bits)


def dense_nnrr(system, n):
    """(a1, a2, b1, b2) from the dense type II solutions: h-ratios and
    subleading coefficients."""
    sol = system.solution(n)
    a = [sol.h(j) / system.solution(n.minus(j)).h(j) if n.component(j) else 0 for j in (1, 2)]
    b = [sol.p_monic.coeff(n.norm - 1) - system.solution(n.plus(j)).p_monic.coeff(n.norm)
         for j in (1, 2)]
    return (*a, *b)


def random_weight(kind, interval, u, v):
    if kind == "const":
        return WeightSpec("const", interval=interval)
    if kind == "poly":  # 1 + u (x - v)^2, no real root
        return WeightSpec("poly", (str(1 + u * v * v), str(-2 * u * v), str(u)), interval)
    return WeightSpec("exppoly", ("0", str(v / 4), str(-u / 4)), interval)


@settings(max_examples=8, deadline=None)
@given(st.floats(-1, 1), st.floats(-1, 1), st.sampled_from(["const", "poly", "exppoly"]),
       st.sampled_from(["const", "poly", "exppoly"]), st.floats(0.1, 1), st.floats(-2, 2),
       st.integers(2, 5))
def test_sweep_matches_dense_oracle(e1, e2, kind1, kind2, u, v, n_max):
    ctx = PrecisionContext(512)
    ends = ("-1", "1", str(1 + 10 ** e2))
    g = geometry((str(-1 - 10 ** e1), *ends), 512)
    system = AngelescoSystem(g, (random_weight(kind1, 1, u, v), random_weight(kind2, 2, u, -v)), ctx)
    table = system.table(n_max)
    with ctx.workprec():
        scale = max(1, *(abs(x) for x in g.as_tuple()))
        for key, row in table.entries.items():
            want = dense_nnrr(system, MultiIndex(*key))
            for k, (got, w) in enumerate(zip(row, want)):
                assert abs(got - w) <= ctx.solve_tolerance * scale ** (2 if k < 2 else 1)
        # the walked P_n against the dense polynomial, off the real axis
        z = mp.mpc("0.3", "0.7")
        for n in ((n_max, n_max), (n_max, 1), (0, n_max)):
            want = system.solution(n).p_monic(z)
            assert abs(system.p_value(n, z) - want) <= ctx.solve_tolerance * abs(want)


def test_mirror_transposes_the_table():
    bits = 192
    ctx = PrecisionContext(bits)
    g = geometry(ASYM, bits)
    table = AngelescoSystem(g, (WeightSpec("poly", POLY, 1), WeightSpec("exppoly", EXPPOLY, 2)),
                            ctx).table(6)
    # x -> -x swaps the intervals and flips the sign of the odd coefficients
    flip = lambda cs: tuple(c if k % 2 == 0 else c[1:] if c[0] == "-" else "-" + c  # noqa: E731
                            for k, c in enumerate(cs))
    mirrored = AngelescoSystem(g.mirrored(), (WeightSpec("exppoly", flip(EXPPOLY), 1),
                                              WeightSpec("poly", flip(POLY), 2)), ctx).table(6)
    assert_tables_agree(table, mirrored, bits,
                        lambda key, row: ((key[1], key[0]), (row[1], row[0], -row[3], -row[2])))


def test_weight_scaling_leaves_the_table_unchanged():
    bits = 192
    ctx = PrecisionContext(bits)
    g = geometry(ASYM, bits)
    base = AngelescoSystem(g, (WeightSpec("poly", POLY, 1), WeightSpec("const", interval=2)), ctx)
    scaled = AngelescoSystem(g, (WeightSpec("poly", ("4.2", "2.4", "0.6"), 1),
                                 WeightSpec("poly", ("2.5",), 2)), ctx)
    assert_tables_agree(base.table(6), scaled.table(6), bits)
    exp_base = AngelescoSystem(g, (WeightSpec("const", interval=1), WeightSpec("exppoly", EXPPOLY, 2)),
                               ctx)
    exp_scaled = AngelescoSystem(g, (WeightSpec("const", interval=1),
                                     WeightSpec("exppoly", ("1.5", "0.3", "-0.1"), 2)), ctx)
    assert_tables_agree(exp_base.table(4), exp_scaled.table(4), bits)


def patch_marginals(monkeypatch, edit):
    inner = mops.jacobi_marginal

    def edited(weight, *args):
        xs, lams, alphas, betas = inner(weight, *args)
        edit(weight.interval, alphas, betas)
        return xs, lams, alphas, betas

    monkeypatch.setattr(mops, "jacobi_marginal", edited)


def test_zero_denominator_raises(monkeypatch):
    def centre_both(interval, alphas, betas):
        alphas[0] = mp.mpf(0)

    patch_marginals(monkeypatch, centre_both)
    system = AngelescoSystem(mops.reference_geometry(), lebesgue_weights(), PrecisionContext(256))
    with pytest.raises(NormalityFailure):
        system.table(2)


def test_corrupted_coefficient_fails_the_certificate(monkeypatch):
    ctx = PrecisionContext(512)
    AngelescoSystem(mops.reference_geometry(), lebesgue_weights(), ctx).table(4)

    def corrupt(interval, alphas, betas):
        if interval == 1:
            betas[2] *= 1 + mp.mpf("1e-30")

    patch_marginals(monkeypatch, corrupt)
    with pytest.raises(InternalInconsistency):
        AngelescoSystem(mops.reference_geometry(), lebesgue_weights(), ctx).table(4)
