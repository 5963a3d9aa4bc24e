"""Each output check passes on the program's real output and fails on that
output with one value corrupted.

    python3 labbench/selftest.py

Run from the root of a checkout; exits 1 if any case goes the wrong way.
Outputs are computed fresh, at low precision and small sizes.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import mpmath as mp  # noqa: E402
import numpy as np  # noqa: E402

import angelesco as A  # noqa: E402
import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402

CASES = []


def case(fn):
    CASES.append(fn)
    return fn


def bump(value, digit):
    """value with its digit-th significant decimal digit moved by one."""
    with mp.workprec(checks.WORK_BITS):
        v = mp.mpf(value)
        return v + mp.mpf(10) ** (int(mp.floor(mp.log10(abs(v)))) - digit + 1)


def must_fail(check, *args, **kwargs):
    try:
        check(*args, **kwargs)
    except CheckFailed:
        return
    raise AssertionError(f"{check.__name__} accepted a corrupted output")


def curve_doc(geometry, c, bits=128):
    ctx = A.PrecisionContext(bits)
    cd = A.curve(geometry, c, ctx, with_dc=False)
    doc = {k: getattr(cd, k) for k in ("c", "regime", "beta_c1", "alpha_c2", "A1", "A2", "B1", "B2")}
    doc["geometry"] = geometry.as_tuple()
    return doc, cd


REF = A.reference_geometry()


@case
def constants_critical_values():
    doc, _ = curve_doc(REF, "0.04")
    assert checks.check_constants(doc, "pushed_left", 27) >= 27
    must_fail(checks.check_constants, doc, "middle", 27)
    for key in ("A1", "B2", "beta_c1"):
        bad = dict(doc, **{key: bump(doc[key], 25)})
        must_fail(checks.check_constants, bad, "pushed_left", 27)


@case
def constants_mirror():
    left, _ = curve_doc(REF, "0.04")
    right, _ = curve_doc(REF, "0.96")
    assert checks.check_mirror(left, right, 27) >= 27
    must_fail(checks.check_mirror, left, dict(right, B2=bump(right["B2"], 25)), 27)


def small_table(geometry=REF, weights=None, n_max=3, bits=192):
    return A.AngelescoSystem(geometry, weights, A.PrecisionContext(bits)).table(n_max)


@case
def table_legendre_rows():
    table = small_table().entries
    checks.check_legendre_rows(table, ("-2", "-1", "1", "2"), 27)
    for n, k in (((2, 0), 0), ((0, 3), 3)):
        bad = dict(table)
        row = list(bad[n])
        row[k] = bump(row[k], 20)
        bad[n] = tuple(row)
        must_fail(checks.check_legendre_rows, bad, ("-2", "-1", "1", "2"), 27)


@case
def table_compatibility():
    weights = (A.WeightSpec("poly", ("1.8", "0.8", "0.2"), 1),
               A.WeightSpec("exppoly", ("0", "0.3", "-0.1"), 2))
    with mp.workprec(192):
        g = A.Geometry(mp.mpf("-2.3"), mp.mpf(-1), mp.mpf(1), mp.mpf("1.9"))
    table = small_table(g, weights).entries
    checks.check_compatibility(table, 27)
    for n, k in (((1, 1), 0), ((2, 1), 1), ((1, 2), 2)):
        bad = dict(table)
        row = list(bad[n])
        row[k] = bump(row[k], 20)
        bad[n] = tuple(row)
        must_fail(checks.check_compatibility, bad, 27)


@case
def table_csv_round_trip():
    text = small_table().to_csv(digits=30)
    table = checks.parse_table_csv(text)
    checks.check_compatibility(table, 27)
    checks.check_legendre_rows(table, ("-2", "-1", "1", "2"), 27)


@case
def table_independent_solves():
    table = small_table(n_max=3, bits=256).entries
    idx = [(1, 2), (3, 2)]
    checks.check_independent_solves(table, ("-2", "-1", "1", "2"), idx, 320, 28)
    bad = dict(table)
    row = list(bad[(3, 2)])
    row[2] = bump(row[2], 20)
    bad[(3, 2)] = tuple(row)
    must_fail(checks.check_independent_solves, bad, ("-2", "-1", "1", "2"), idx, 320, 28)


@case
def nnrr_cache_rerun():
    text = small_table().to_csv(digits=30)
    cold = {"table": text, "report": {"cache_hit": False}}
    hit = {"table": text, "report": {"cache_hit": True}}
    checks.check_cache_rerun(cold, hit)
    must_fail(checks.check_cache_rerun, cold, dict(hit, report={"cache_hit": False}))
    lines = text.splitlines()
    lines[5] = lines[5][:-1] + ("1" if lines[5][-1] != "1" else "2")
    must_fail(checks.check_cache_rerun, cold, dict(hit, table="\n".join(lines) + "\n"))


@case
def errors_decrease():
    checks.strictly_decreasing("e", ["3e-3", "1e-3", "2e-4"])
    must_fail(checks.strictly_decreasing, "e", ["3e-3", "1e-3", "1e-3"])


def spectrum(depth=5):
    _, cd = curve_doc(REF, "0.5")
    trunc = A.assemble_L(A.build_tree(depth), 0.5, 1, cd)
    targets = [tuple(map(float, s)) for s in cd.supports()]
    report = A.spectrum_probe(trunc, targets, 0.1)
    m = trunc.matrix
    return {"indptr": m.indptr, "indices": m.indices, "data": m.data}, report, targets, trunc


@case
def eigenvalue_counts():
    matrix, report, targets, trunc = spectrum()
    points = [-2.5, -1.5, 0.0, 1.5, 2.5, 1.234]
    checks.check_counts(matrix, report["eigs"], points)
    dense = np.linalg.eigvalsh(trunc.dense())
    assert checks.count_below(matrix, points) == [int(np.sum(dense < x)) for x in points]
    eigs = np.sort(np.array(report["eigs"]))
    k = int(np.searchsorted(eigs, 0.0))  # first eigenvalue right of the gap
    moved = eigs.copy()
    moved[k] = -0.01  # one eigenvalue crosses the point 0: its count is off by one
    must_fail(checks.check_counts, matrix, moved, points)
    must_fail(checks.check_counts, matrix, eigs[1:], points)


@case
def spectrum_probe_properties():
    _, report, targets, _ = spectrum()
    checks.check_probe(report, targets, 0.1, 0.9, max_gap=0.2)
    must_fail(checks.check_probe, dict(report, inside_fraction=report["inside_fraction"] - 0.01),
              targets, 0.1, 0.9)
    must_fail(checks.check_probe, report, targets, 0.1, 0.9, max_gap=report["max_coverage_gap"] / 2)
    far = np.array(report["eigs"]) + 5.0
    must_fail(checks.check_probe, dict(report, eigs=far, inside_fraction=0.0), targets, 0.1, 0.9)


@case
def mfun_fixed_point():
    doc, cd = curve_doc(REF, "0.3")
    ctx = A.PrecisionContext(128)
    samples = [(z, A.m_closed(cd, 1, z, ctx), A.m_closed(cd, 2, z, ctx))
               for z in (complex(0.0, 0.6), complex(1.2, 0.3))]
    params = [doc[k] for k in ("A1", "A2", "B1", "B2")]
    checks.check_mfun(params, samples)
    z, m1, m2 = samples[1]
    must_fail(checks.check_mfun, params, [samples[0], (z, m1 + 1e-8, m2)])
    must_fail(checks.check_mfun, params, [(z, m1.conjugate(), m2.conjugate())])


@case
def equilibrium_masses():
    c = "0.3"
    with mp.workprec(128):
        masses = (mp.mpf(c), 1 - mp.mpf(c))
    checks.check_masses(c, masses, 28)
    must_fail(checks.check_masses, c, (masses[0], bump(masses[1], 25)), 28)


def main():
    bad = 0
    for fn in CASES:
        try:
            fn()
            print(f"ok    {fn.__name__}")
        except Exception as exc:  # report every case, then fail the run
            bad += 1
            print(f"FAIL  {fn.__name__}: {type(exc).__name__}: {exc}")
    print(f"{len(CASES) - bad} of {len(CASES)} cases behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
