"""The recurrence sweep: precision, the dense oracle, symmetries, certificates."""

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angelesco import mops
from angelesco.errors import InternalInconsistency, NormalityFailure
from angelesco.mops import AngelescoSystem, Geometry, MultiIndex, WeightSpec, lebesgue_weights
from angelesco.precision import PrecisionContext, gauss_legendre

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
    sub = sol.p_monic.coeffs[n.norm - 1] if n.norm else 0
    b = [sub - system.solution(n.plus(j)).p_monic.coeffs[n.norm] for j in (1, 2)]
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


# The mpf oracle: the sweep's three loops in mpf arithmetic at the context
# precision, the route that `mops` ran before its fixed-point kernel.

def oracle_marginal(weight, geometry, level, ctx):
    """`jacobi_marginal` by Stieltjes' procedure in mpf, on the same rule."""
    with ctx.workprec():
        deg = weight.poly_degree()
        m = 64 + 2 * (level + deg) if weight.kind == "exppoly" else level + deg // 2 + 2
        ts, gl_weights = gauss_legendre(m, ctx)
        a, b = geometry.interval(weight.interval)
        half, mid = (b - a) / 2, (b + a) / 2
        xs = [mid + half * t for t in ts]
        lams = [half * w * weight.density(x) for w, x in zip(gl_weights, xs)]
        alphas, betas = [], []
        p, p_prev, norm_prev = [mp.mpf(1)] * m, [mp.mpf(0)] * m, None
        for k in range(level + 1):
            sq = [lam * v * v for lam, v in zip(lams, p)]
            norm = mp.fsum(sq)
            alpha = mp.fsum(s * t for s, t in zip(sq, ts)) / norm
            beta = norm / norm_prev if k else mp.mpf(0)
            alphas.append(mid + half * alpha)
            betas.append(half * half * beta)
            p, p_prev = [(t - alpha) * v - beta * u for t, v, u in zip(ts, p, p_prev)], p
            norm_prev = norm
        return xs, lams, alphas, betas


def oracle_sweep(marginals, level):
    """`_nnrr_sweep` in mpf: {(n1, n2): (a1, a2, b1, b2)} for every |n| <= level."""
    (_, _, al1, be1), (_, _, al2, be2) = marginals
    zero = mp.mpf(0)
    out = {(0, 0): (zero, zero, al1[0], al2[0])}
    for s in range(1, level + 1):
        a = {(s, 0): (be1[s], zero), (0, s): (zero, be2[s])}
        for n1 in range(1, s):
            n2 = s - n1
            p, q, r = out[(n1, n2 - 1)], out[(n1 - 1, n2 - 1)], out[(n1 - 1, n2)]
            d = q[2] - q[3]
            a[(n1, n2)] = (p[0] * (p[2] - p[3]) / d, r[1] * (r[2] - r[3]) / d)
        b1, b2 = {(s, 0): al1[s]}, {(0, s): al2[s]}
        for n1 in range(s):
            n2 = s - 1 - n1
            _, _, c1, c2 = out[(n1, n2)]
            u, v = a[(n1, n2 + 1)], a[(n1 + 1, n2)]
            t = (u[0] + u[1] - v[0] - v[1]) / (c1 - c2)
            b1[(n1, n2 + 1)], b2[(n1 + 1, n2)] = c1 - t, c2 - t
        for key, (x, y) in a.items():
            out[key] = (x, y, b1[key], b2[key])
    return out


def oracle_walk(entries, n, zs, first=1):
    """`_walk` in mpf or mpc: P_n at each z along the path taking its e_first steps first."""
    f = first - 1
    m, p, down = [0, 0], [mp.mpf(1)] * len(zs), [None, None]
    for j in [f] * n.component(first) + [1 - f] * (n.norm - n.component(first)):
        i = 1 - j
        row = entries[tuple(m)]
        new = [(z - row[2 + j]) * v for z, v in zip(zs, p)]
        for k in (0, 1):
            if m[k]:
                new = [w - row[k] * v for w, v in zip(new, down[k])]
        if m[i]:
            q = entries[(m[0] - (i == 0), m[1] - (i == 1))]
            c = q[2 + j] - q[2 + i]
            down[i] = [v - c * u for v, u in zip(p, down[i])]
        down[j], p = p, new
        m[j] += 1
    return p


def assert_kernel_matches_oracle(g, weights, level, ctx):
    """Marginals, sweep entries and walked P_n of the fixed-point kernel
    against the mpf oracle, to 2^(20 - bits) times their scale: the
    endpoints' for alpha and b, its square for beta and a, and the largest
    lam |P_n| on the interval for P_n at its nodes (the certificate's terms)."""
    with ctx.workprec():
        scale = max(1, *(abs(x) for x in g.as_tuple()))
        tol = mp.mpf(2) ** (20 - ctx.mantissa_bits) * scale
        marginals = [mops.jacobi_marginal(w, g, level, ctx) for w in weights]
        for w, got in zip(weights, marginals):
            want = oracle_marginal(w, g, level, ctx)
            assert got[:2] == want[:2]
            for k, power in ((2, 0), (3, 1)):
                assert max(abs(u - v) for u, v in zip(got[k], want[k])) <= tol * scale ** power
        w = mops._sweep_bits(g, level, ctx)
        entries = mops._nnrr_sweep(marginals, level, mp.mpf(0), w)
        want = oracle_sweep(marginals, level)
        assert entries.keys() == want.keys()
        for key, row in want.items():
            for k, (u, v) in enumerate(zip(entries[key], row)):
                assert abs(mp.ldexp(u, -w) - v) <= tol * scale ** (k < 2), (key, k)
        n = MultiIndex(level // 2, level - level // 2)
        for i, (xs, lams, _, _) in zip((1, 2), marginals):
            (got,), es = mops._walk(entries, n, [mops._to_fixed(x, w) for x in xs], w, first=i)
            ref = oracle_walk(want, n, xs, first=i)
            big = max(abs(lam * v) for lam, v in zip(lams, ref))
            for lam, u, e, v in zip(lams, got, es, ref):
                assert abs(lam * (mp.ldexp(u, e) - v)) <= tol * big
        # P_n at a complex z, where the path can lose bits to cancellation (the
        # mpf walk keeps 134 of 154 digits at (20, 20), 512 bits, on
        # [-100,-1] U [1,1.01]): against the mpf walk at twice the bits over
        # the same entries, to the same tolerance or to the error of the mpf
        # walk at the context bits
        z = mp.mpc("0.3", "0.7")
        lanes, (e,) = mops._walk(entries, n, [mops._to_fixed(z.real, w)], w,
                                 ys=[mops._to_fixed(z.imag, w)])
        got = mp.mpc(*(mp.ldexp(lane[0], e) for lane in lanes))
        same = oracle_walk({k: [mp.ldexp(u, -w) for u in row] for k, row in entries.items()},
                           n, [z])[0]
    with mp.workprec(2 * ctx.mantissa_bits):
        ref = oracle_walk({k: [mp.ldexp(u, -w) for u in row] for k, row in entries.items()},
                          n, [z])[0]
        assert abs(got - ref) <= max(tol * abs(ref), abs(same - ref))


THIN_FAR = ("-1.01", "-1", "1", "100")


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([mops.reference_geometry().as_tuple(), ASYM, THIN_FAR,
                        ("-100", "-1", "1", "1.01"), ("-3", "-2.9", "-2.8", "4")]),
       st.sampled_from(["const", "poly", "exppoly"]), st.sampled_from(["const", "poly", "exppoly"]),
       st.floats(0.1, 1), st.floats(-2, 2), st.sampled_from([128, 512]), st.integers(2, 14))
def test_fixed_point_kernel_matches_mpf_oracle(endpoints, kind1, kind2, u, v, bits, level):
    ctx = PrecisionContext(bits)
    weights = (random_weight(kind1, 1, u, v), random_weight(kind2, 2, u, -v))
    assert_kernel_matches_oracle(geometry(endpoints, bits), weights, level, ctx)


def test_fixed_point_kernel_matches_mpf_oracle_at_level_200():
    # dynamic range: P_(100,100) spans hundreds of bits over the nodes of
    # [1, 100], and the thin interval's a's are 1e-5 of the far one's
    ctx = PrecisionContext(512)
    assert_kernel_matches_oracle(geometry(THIN_FAR, 512), lebesgue_weights(), 200, ctx)


def test_certificate_holds_across_a_weights_dynamic_range():
    # the weights lam of exp(0.3 x - 0.1 x^2) on [1, 100] span 1400 bits over
    # the Gauss nodes and P_(30,30) spans 257: the Stieltjes norms drift and
    # are rescaled, and the walk keeps each node's own exponent (one exponent
    # shared by the nodes left the certificate's residual at 0.63 here)
    ctx = PrecisionContext(128)
    weights = (WeightSpec("poly", POLY, 1), WeightSpec("exppoly", EXPPOLY, 2))
    AngelescoSystem(geometry(THIN_FAR, 128), weights, ctx).table(30)
    assert_kernel_matches_oracle(geometry(THIN_FAR, 128), weights, 40, ctx)


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
