"""The three workloads: inputs drawn from a seed, operations, output checks.

An operation runs in a process forked from the benchmark after the import
of angelesco, so it starts with the state of a fresh ``angelesco-lab``
process: no Gauss-Legendre rule, moment or curve is in memory. Operations
reach the package through attribute lookups at call time, so that the
traced run sees the wrapped functions.

Every workload includes the reference geometry [-2,-1] U [1,2] with unit
weights. The seed draws one asymmetric geometry [-1-L1, -1] U [1, 1+L2]
with L1 > L2, a positive quadratic ``poly`` weight on interval 1 and an
``exppoly`` weight on interval 2, and the values of c in each regime. The
ranges are narrow so that the work per pass barely depends on the seed, and
they keep every c inside its regime on the whole family: over L1 in
[1.2, 1.4] and L2 in [0.8, 1.0] the thresholds are c* in [0.099, 0.116] and
c** in [0.917, 0.934]; on the reference geometry c* = 0.0852, c** = 0.9148.
"""

import json
import os
import random
import sys
from dataclasses import dataclass
from decimal import Decimal
from typing import Callable

import mpmath as mp

import checks

REFERENCE = ("-2", "-1", "1", "2")

# Sizes: a pass takes 9 to 27 s on one core of the reference machine, so
# that a run of BENCHMARK.json's length holds one to four passes.
RAY_BITS = 192        # 57 digits behind the 30 the lab writes
NNRR_NMAX = 2
FAR_BITS = 512        # the lab's default; the dense far solves need it
TABLE_N = {"reference": 6, "asymmetric": 5}
LIMITS_NMAX = 12      # diagonal indices (4,4), (6,6), (12,12)
MARGINAL_NMAX = 16    # marginal indices (1,4), (1,16)
TREE_BITS = 192       # SyntheticSource's default
MODEL_DEPTH = 10      # dimension 2047 dense eigensolves
JACOBI_DEPTH = 5
SHEET_BITS = 128
MFUN_GRID = [complex(x, y) for x in (-2.5, -1.2, 0.0, 1.2, 2.5) for y in (0.3, 0.6, 1.0, 1.6)]


@dataclass(frozen=True)
class Inputs:
    seed: int
    asym: tuple            # endpoints as exact decimal strings
    poly: str              # coefficients of the weight on interval 1
    exppoly: str           # exponent coefficients of the weight on interval 2
    c_left: str            # pushed-left on both geometries
    c_mid: str             # middle on the reference geometry
    c_mid_asym: str        # middle on the asymmetric geometry
    c_right: str           # pushed-right on the asymmetric geometry
    probe_points: tuple    # extra points for the eigenvalue counts


def make_inputs(seed):
    rng = random.Random(seed)

    def pick(lo, hi, step):
        return lo + step * rng.randrange(round((hi - lo) / step) + 1)

    L1, L2 = pick(120, 140, 5), pick(80, 100, 5)
    u, m, v, w = pick(2, 6, 1), pick(-20, -16, 2), pick(-4, 4, 1), pick(-2, 2, 1)
    # poly 1 + u/10 (x - m/10)^2, which has no real root
    poly = (f"{1 + u * m * m / 1000:.4f},{-2 * u * m / 100:.3f},{u / 10:.1f}")
    return Inputs(
        seed=seed,
        asym=(f"-{1 + L1 / 100:.2f}", "-1", "1", f"{1 + L2 / 100:.2f}"),
        poly=poly,
        exppoly=f"0,{v / 10:.1f},{w / 10:.1f}",
        c_left=f"{pick(30, 60, 5) / 1000:.3f}",
        c_mid=f"{pick(30, 70, 5) / 100:.2f}",
        c_mid_asym=f"{pick(30, 70, 5) / 100:.2f}",
        c_right=f"{pick(950, 970, 5) / 1000:.3f}",
        probe_points=tuple(round(rng.uniform(-2.6, 2.3), 6) for _ in range(3)),
    )


def mirror_c(c):
    return str(1 - Decimal(c))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    name: str
    kind: str                    # which end-to-end share the time belongs to
    run: Callable                # run(pass_dir) -> payload, in the forked process


class OpFailed(RuntimeError):
    pass


def _pkg():
    return sys.modules["angelesco"]


def _lab(argv):
    code = sys.modules["angelesco.cli"].main(argv)
    if code != 0:
        raise OpFailed(f"angelesco-lab {' '.join(argv[:2])} exited with {code}")


def _geometry(endpoints, bits):
    with mp.workprec(bits):
        return _pkg().Geometry(*[mp.mpf(v) for v in endpoints])


def _geom_arg(endpoints):
    return "--geom=" + ",".join(endpoints)


def _weights(inp):
    W = _pkg().WeightSpec
    return (W("poly", tuple(inp.poly.split(",")), 1), W("exppoly", tuple(inp.exppoly.split(",")), 2))


def _curve_doc(cd):
    doc = {k: getattr(cd, k) for k in ("c", "regime", "beta_c1", "alpha_c2", "A1", "A2", "B1", "B2")}
    doc["geometry"] = cd.geometry.as_tuple()
    return doc


def _csr(truncation):
    m = truncation.matrix
    return {"indptr": m.indptr, "indices": m.indices, "data": m.data}


def constants_op(endpoints, c):
    def run(pass_dir):
        out = os.path.join(pass_dir, f"constants_{','.join(endpoints)}_{c}.json")
        _lab(["constants", _geom_arg(endpoints), "--c", c, "--bits", str(RAY_BITS), "--out", out])
        with open(out) as f:
            return json.load(f)
    return run


def nnrr_op(endpoints, weights, cache, out_name):
    def run(pass_dir):
        os.environ["ANGELESCO_CACHE_DIR"] = os.path.join(pass_dir, cache)
        out = os.path.join(pass_dir, out_name)
        argv = ["nnrr", _geom_arg(endpoints), "--nmax", str(NNRR_NMAX), "--bits", str(RAY_BITS),
                "--out", out]
        if weights:
            argv += ["--weight1", "poly:" + weights[0], "--weight2", "exppoly:" + weights[1]]
        _lab(argv)
        with open(out) as f, open(out + ".report.json") as r:
            return {"table": f.read(), "report": json.load(r)}
    return run


def table_op(endpoints, weights_of, n_max):
    def run(pass_dir):
        A = _pkg()
        ctx = A.PrecisionContext(FAR_BITS)
        system = A.AngelescoSystem(_geometry(endpoints, FAR_BITS), weights_of(), ctx)
        return system.table(n_max).entries
    return run


def verify_op(suite, endpoints, extra):
    def run(pass_dir):
        out = os.path.join(pass_dir, f"verify_{suite}.json")
        _lab(["verify", suite, _geom_arg(endpoints), "--out", out] + extra)
        with open(out) as f:
            return json.load(f)
    return run


def model_spectrum_op(endpoints, c):
    """verify spectrum's model half: L at (c, l = 1) against the supports."""
    def run(pass_dir):
        A = _pkg()
        ctx = A.PrecisionContext(TREE_BITS)
        cd = A.curve(_geometry(endpoints, TREE_BITS), c, ctx, with_dc=False)
        targets = [tuple(map(float, s)) for s in cd.supports()]
        trunc = A.assemble_L(A.build_tree(MODEL_DEPTH), float(c), 1, cd)
        report = A.spectrum_probe(trunc, targets, 0.1)
        return {"curve": _curve_doc(cd), "targets": targets, "report": report,
                "matrix": _csr(trunc)}
    return run


def jacobi_spectrum_op(endpoints):
    """verify spectrum's Jacobi half: J on the synthetic field."""
    def run(pass_dir):
        A = _pkg()
        g = _geometry(endpoints, TREE_BITS)
        targets = [tuple(map(float, g.interval(1))), tuple(map(float, g.interval(2)))]
        source = A.SyntheticSource(g, bits=TREE_BITS)
        trunc = A.assemble_J(A.build_tree(JACOBI_DEPTH), source)
        report = A.spectrum_probe(trunc, targets, 0.1)
        return {"targets": targets, "report": report, "matrix": _csr(trunc)}
    return run


def mfun_op(endpoints, c):
    """verify mfun's public calls: the root m-functions on a complex grid."""
    def run(pass_dir):
        A = _pkg()
        ctx = A.PrecisionContext(SHEET_BITS)
        cd = A.curve(_geometry(endpoints, SHEET_BITS), c, ctx, with_dc=False)
        samples, worst = [], 0.0
        for z in MFUN_GRID:
            closed = [A.m_closed(cd, l, z, ctx) for l in (1, 2)]
            rec = [A.m_recursion(cd, l, z).get(l) for l in (1, 2)]
            worst = max(worst, *(abs(a - b) for a, b in zip(closed, rec)))
            samples.append((z, closed[0], closed[1]))
        return {"curve": _curve_doc(cd), "samples": samples, "max_difference": worst}
    return run


def equilibrium_op(endpoints, c):
    def run(pass_dir):
        A = _pkg()
        ctx = A.PrecisionContext(SHEET_BITS)
        cd = A.curve(_geometry(endpoints, SHEET_BITS), c, ctx, with_dc=False)
        eq = A.equilibrium(cd, ctx)
        return {"curve": _curve_doc(cd), "masses": eq.masses, "ell": (eq.ell1, eq.ell2)}
    return run


def ray_sweep(inp):
    ref, asym = REFERENCE, inp.asym
    return [
        Op("constants ref pushed-left", "constants", constants_op(ref, inp.c_left)),
        Op("constants ref middle", "constants", constants_op(ref, inp.c_mid)),
        Op("constants ref pushed-right", "constants", constants_op(ref, mirror_c(inp.c_left))),
        Op("constants asym pushed-left", "constants", constants_op(asym, inp.c_left)),
        Op("constants asym middle", "constants", constants_op(asym, inp.c_mid_asym)),
        Op("constants asym pushed-right", "constants", constants_op(asym, inp.c_right)),
        Op("nnrr ref", "nnrr", nnrr_op(ref, None, "cache-ref", "nnrr-ref.csv")),
        Op("nnrr asym", "nnrr", nnrr_op(asym, (inp.poly, inp.exppoly), "cache-asym",
                                         "nnrr-asym.csv")),
        Op("nnrr ref cached", "nnrr_cached", nnrr_op(ref, None, "cache-ref", "nnrr-ref-again.csv")),
    ]


def far_index(inp):
    return [
        Op("table ref", "table", table_op(REFERENCE, lambda: None, TABLE_N["reference"])),
        Op("table asym", "table", table_op(inp.asym, lambda: _weights(inp), TABLE_N["asymmetric"])),
        Op("verify limits", "far_index",
           verify_op("limits", REFERENCE, ["--nmax", str(LIMITS_NMAX)])),
        Op("verify marginal", "far_index",
           verify_op("marginal", REFERENCE, ["--nmax", str(MARGINAL_NMAX)])),
    ]


def tree_sheet(inp):
    return [
        Op("model spectrum ref", "spectrum", model_spectrum_op(REFERENCE, "0.5")),
        Op("model spectrum asym", "spectrum", model_spectrum_op(inp.asym, inp.c_mid_asym)),
        Op("jacobi spectrum ref", "spectrum", jacobi_spectrum_op(REFERENCE)),
        Op("mfun ref middle", "mfun", mfun_op(REFERENCE, inp.c_mid)),
        Op("mfun asym pushed-left", "mfun", mfun_op(inp.asym, inp.c_left)),
        Op("equilibrium asym middle", "equilibrium", equilibrium_op(inp.asym, inp.c_mid_asym)),
    ]


# ---------------------------------------------------------------------------
# Checks: each takes {op name: payload} for the operations that did not fail
# and returns the digits certified, or raises checks.CheckFailed.
# ---------------------------------------------------------------------------

def _min_digits(values):
    values = [v for v in values if v is not None]
    return min(values) if values else None


def check_ray_sweep(inp, out):
    d = []
    regimes = {"pushed-left": "pushed_left", "middle": "middle", "pushed-right": "pushed_right"}
    for name, doc in out.items():
        if name.startswith("constants"):
            d.append(checks.check_constants(doc, regimes[name.rsplit(" ", 1)[1]]))
    if "constants ref pushed-left" in out and "constants ref pushed-right" in out:
        d.append(checks.check_mirror(out["constants ref pushed-left"],
                                     out["constants ref pushed-right"]))
    if "nnrr ref" in out:
        table = checks.parse_table_csv(out["nnrr ref"]["table"])
        d.append(checks.check_legendre_rows(table, REFERENCE, 27))
        d.append(checks.check_compatibility(table, 27))
        if "nnrr ref cached" in out:
            checks.check_cache_rerun(out["nnrr ref"], out["nnrr ref cached"])
    if "nnrr asym" in out:
        d.append(checks.check_compatibility(checks.parse_table_csv(out["nnrr asym"]["table"]), 27))
    return _min_digits(d)


def check_far_index(inp, out):
    d = []
    if "table ref" in out:
        table, n = out["table ref"], TABLE_N["reference"]
        d.append(checks.check_legendre_rows(table, REFERENCE, 28))
        d.append(checks.check_compatibility(table, 28))
        d.append(checks.check_independent_solves(table, REFERENCE, [(1, 2), (n, n - 1)],
                                                 FAR_BITS + 64, 28))
    if "table asym" in out:
        d.append(checks.check_compatibility(out["table asym"], 28))
    if "verify limits" in out:
        doc = out["verify limits"]
        checks.require(doc["pass"] is True, "verify limits did not pass")
        for stream, errs in doc["detail"]["errors"].items():
            checks.strictly_decreasing(f"diagonal {stream}", errs)
    if "verify marginal" in out:
        doc = out["verify marginal"]
        checks.require(doc["pass"] is True, "verify marginal did not pass")
        checks.strictly_decreasing("marginal ratio", doc["detail"]["abs_err"])
    return _min_digits(d)


def _count_points(targets, extra):
    # off the midpoints, where a symmetric truncation can have an eigenvalue
    (a1, b1), (a2, b2) = targets
    return [a1 - 0.5, (a1 + b1) / 2 + 0.0137, (b1 + a2) / 2 + 0.0071, (a2 + b2) / 2 - 0.0113,
            b2 + 0.5, *extra]


def check_tree_sheet(inp, out):
    d = []
    for name, res in out.items():
        kind = name.split(" ", 1)[0]
        if kind in ("model", "jacobi"):
            checks.check_counts(res["matrix"], res["report"]["eigs"],
                                _count_points(res["targets"], inp.probe_points))
        if kind == "jacobi":
            checks.check_probe(res["report"], res["targets"], 0.1, 0.9)
            continue
        regime = "pushed_left" if "pushed" in name else "middle"
        d.append(checks.check_constants(res["curve"], regime))
        if kind == "model":
            checks.check_probe(res["report"], res["targets"], 0.1, 0.9, max_gap=0.05)
        elif kind == "mfun":
            checks.check_mfun([res["curve"][k] for k in ("A1", "A2", "B1", "B2")], res["samples"])
            checks.require(res["max_difference"] <= 1e-10,
                           f"m_closed and m_recursion differ by {res['max_difference']:.3e}")
        else:
            d.append(checks.check_masses(res["curve"]["c"], res["masses"], 28))
            checks.finite("variational constants", *res["ell"])
    return _min_digits(d)


WORKLOADS = {
    "ray-sweep": (ray_sweep, check_ray_sweep),
    "far-index": (far_index, check_far_index),
    "tree-sheet": (tree_sheet, check_tree_sheet),
}
