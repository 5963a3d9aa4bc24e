"""Command-line front end: constants, recurrence tables, verification suites.

All numeric output renders decimals as strings at fixed digits so identical
configurations produce byte-identical files. Recurrence tables and their
errors CSV are cached under ANGELESCO_CACHE_DIR (unset disables caching),
keyed by geometry, weights, precision, and table size; cache hits are
spot-checked against a fresh sweep at one index.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
from fractions import Fraction

import mpmath as mp

from . import __version__
from .curve import DIGITS, critical_thresholds, curve, curve_to_json, equilibrium
from .errors import AngelescoError
from .mops import AngelescoSystem, Geometry, NnrrTable, WeightSpec
from .precision import PrecisionContext
from .szego import ratio_report, ratio_report_csv
from .tree import (SyntheticSource, assemble_J, assemble_L, build_tree, m_closed_pair, m_recursion,
                   spectrum_probe)


def _parse_geometry(text, ctx):
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("geometry needs four comma-separated endpoints")
    with ctx.workprec():
        return Geometry(*[mp.mpf(p) for p in parts])


def _parse_weight(text, interval):
    if text == "const":
        return WeightSpec("const", interval=interval)
    if text.startswith("poly:"):
        return WeightSpec("poly", coeffs=tuple(text[5:].split(",")), interval=interval)
    if text.startswith("exppoly:"):
        return WeightSpec("exppoly", coeffs=tuple(text[8:].split(",")), interval=interval)
    raise ValueError("weight must be const, poly:c0,c1,... or exppoly:c0,...")


def _write_out(path, text):
    if path is None:
        sys.stdout.write(text)
        return
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cache_dir():
    return os.environ.get("ANGELESCO_CACHE_DIR") or None


def _table_cache_key(geometry, weights, bits, n_max):
    blob = json.dumps({
        "geometry": [mp.nstr(v, 40) for v in geometry.as_tuple()],
        "weights": [(w.kind, list(w.coeffs), w.interval) for w in weights],
        "bits": bits,
        "n_max": n_max,
    }, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


ERRORS_HEADER = "n1,n2,err_a1,err_a2,err_b1,err_b2"


def _nnrr_errors_csv(geometry, table, ctx):
    """Per-index errors of a table against the ray-limit constants at c = n1/|n|."""
    errors = [ERRORS_HEADER]
    const_cache = {}
    with ctx.workprec():
        for (n1, n2) in sorted(table.entries):
            if n1 + n2 == 0:
                continue
            cfrac = Fraction(n1, n1 + n2)
            if cfrac not in const_cache:
                cd = curve(geometry, mp.mpf(cfrac.numerator) / cfrac.denominator,
                           ctx, with_dc=False)
                const_cache[cfrac] = (cd.A1, cd.A2, cd.B1, cd.B2)
            A1, A2, B1, B2 = const_cache[cfrac]
            a1, a2, b1, b2 = table.get((n1, n2))
            errs = [abs(a1 - A1), abs(a2 - A2), abs(b1 - B1), abs(b2 - B2)]
            errors.append(f"{n1},{n2}," + ",".join(mp.nstr(e, 12) for e in errs))
    return "\n".join(errors) + "\n"


def _nnrr_table_cached(system, n_max):
    """(table, errors CSV, cache hit) for one configuration.

    A cache entry is the table CSV followed by its errors CSV; an entry
    without both, or one that fails the spot check, is a miss and is
    rewritten whole.
    """
    cache = _cache_dir()
    key = _table_cache_key(system.geometry, system.weights, system.ctx.mantissa_bits, n_max)
    path = os.path.join(cache, f"nnrr_{key}.csv") if cache else None
    entry = ""
    if path and os.path.exists(path):
        with open(path) as f:
            entry = f.read()
    table_text, header, rows = entry.partition(ERRORS_HEADER)
    if header:
        table = NnrrTable.from_csv(table_text)
        # spot-check one index against a fresh sweep
        with system.ctx.workprec():
            fresh = system.nnrr((1, 1))
            cached = table.get((1, 1))
            ok = all(abs(a - b) <= mp.mpf(10) ** (-(DIGITS - 5)) * (1 + abs(a))
                     for a, b in zip(fresh, cached))
        if ok:
            return table, header + rows, True
    table = system.table(n_max)
    errors = _nnrr_errors_csv(system.geometry, table, system.ctx)
    if path:
        _write_out(path, table.to_csv(digits=DIGITS + 10) + errors)
    return table, errors, False


def cmd_constants(args, ctx):
    geometry = _parse_geometry(args.geom, ctx)
    th = critical_thresholds(geometry, ctx)
    cd = curve(geometry, args.c, ctx)
    _write_out(args.out, curve_to_json(cd, th) + "\n")
    return 0


def cmd_nnrr(args, ctx):
    geometry = _parse_geometry(args.geom, ctx)
    weights = (_parse_weight(args.weight1, 1), _parse_weight(args.weight2, 2))
    if args.nmax < 2:
        raise ValueError("nmax must be >= 2")
    system = AngelescoSystem(geometry, weights, ctx)
    table, errors, from_cache = _nnrr_table_cached(system, args.nmax)
    out = args.out or "nnrr.csv"
    _write_out(out, table.to_csv(digits=DIGITS))
    _write_out(out + ".errors.csv", errors)
    report = {"cache_hit": from_cache, "n_max": args.nmax, "table": out}
    _write_out(out + ".report.json", json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0


def _suite_limits(args, ctx, geometry, weights):
    system = AngelescoSystem(geometry, weights, ctx)
    cd = curve(geometry, "0.5", ctx, with_dc=False)
    ks = sorted({max(2, args.nmax // 3), max(3, args.nmax // 2), args.nmax})
    # the largest index first: one sweep serves every smaller one
    rows = {k: system.nnrr((k, k)) for k in reversed(ks)}
    streams = {k: [] for k in ("a1", "a2", "b1", "b2")}
    with ctx.workprec():
        for k in ks:
            a1, a2, b1, b2 = rows[k]
            streams["a1"].append(abs(a1 - cd.A1))
            streams["a2"].append(abs(a2 - cd.A2))
            streams["b1"].append(abs(b1 - cd.B1))
            streams["b2"].append(abs(b2 - cd.B2))
    ok = all(v[-1] < v[0] for v in streams.values())
    return ok, {
        "ks": ks,
        "errors": {k: [mp.nstr(e, 10) for e in v] for k, v in streams.items()},
        "all_streams_decreasing": ok,
    }


def _suite_marginal(args, ctx, geometry, weights):
    if args.nmax < 4:
        raise ValueError("nmax must be >= 4 for the marginal suite")
    system = AngelescoSystem(geometry, weights, ctx)
    ks = [max(2, args.nmax // 4), args.nmax]
    rows = ratio_report(system, [(1, k) for k in ks], 4)
    errs = [r["abs_err"] for r in rows]
    ok = errs[-1] < errs[0]
    return ok, {
        "ks": ks,
        "abs_err": [mp.nstr(e, 10) for e in errs],
        "improves": ok,
        "csv": ratio_report_csv(rows),
    }


def _suite_spectrum(args, ctx, geometry, weights):
    tree = build_tree(args.depth)
    cd = curve(geometry, "0.5", ctx, with_dc=False)
    targets = [tuple(map(float, geometry.interval(1))), tuple(map(float, geometry.interval(2)))]
    repL = spectrum_probe(assemble_L(tree, 0.5, 1, cd), targets, 0.1)
    src = SyntheticSource(geometry, bits=min(ctx.mantissa_bits, 192))
    repJ = spectrum_probe(assemble_J(tree, src), targets, 0.1)
    ok = repL["inside_fraction"] >= 0.9 and repJ["inside_fraction"] >= 0.9
    return ok, {
        "depth": args.depth,
        "model_inside_fraction": repL["inside_fraction"],
        "model_max_gap": repL["max_coverage_gap"],
        "jacobi_inside_fraction": repJ["inside_fraction"],
        "jacobi_max_gap": repJ["max_coverage_gap"],
        "threshold": 0.9,
    }


def _suite_mfun(args, ctx, geometry, weights):
    cd = curve(geometry, args.c, ctx, with_dc=False)
    zs = [complex(x, y)
          for x in (-2.5, -1.2, 0.0, 1.2, 2.5) for y in (0.3, 0.6, 1.0, 1.6)]
    worst = 0.0
    for z in zs:
        # m_recursion returns both m_l, and one chi^(0)(z) gives both closed forms
        rec, closed = m_recursion(cd, 1, z), m_closed_pair(cd, z, ctx)
        for l in (1, 2):
            worst = max(worst, abs(rec.get(l) - closed.get(l)))
    ok = worst <= 1e-10
    return ok, {"c": str(args.c), "grid_points": len(zs), "max_difference": worst,
                "threshold": 1e-10}


def _suite_equilibrium(args, ctx, geometry, weights):
    cd = curve(geometry, args.c, ctx, with_dc=False)
    eq = equilibrium(cd, ctx)
    with ctx.workprec():
        wants = (cd.c, 1 - cd.c)
        errs = [abs(m - want) for m, want in zip(eq.masses, wants)]
        # 2V1 + V2 and V1 + 2V2 are constant on the supports of mu_1 and mu_2
        spreads = []
        for (a, b), coeffs in zip(cd.supports(), ((2, 1), (1, 2))):
            vals = [eq.potential(a + (b - a) * q, *coeffs) for q in (0.1, 0.3, 0.5, 0.7, 0.9)]
            spreads.append(max(vals) - min(vals))
        ok = all(e < mp.mpf("1e-8") for e in (*errs, *spreads))
        # below its floor a field is rounding and truncation noise: write the floor
        mass_floors = [eq.mass_floor * want for want in wants]
        spread_floors = [mp.ldexp(1 + abs(ell), 16 - ctx.mantissa_bits) for ell in (eq.ell1, eq.ell2)]
        doc = {
            "c": mp.nstr(cd.c, 15),
            "masses": [mp.nstr(v, 20) for v in eq.masses],
            "mass_errors": [mp.nstr(max(e, f), 5) for e, f in zip(errs, mass_floors)],
            "flatness_spreads": [mp.nstr(max(v, f), 5) for v, f in zip(spreads, spread_floors)],
            "ell1": mp.nstr(eq.ell1, 15),
            "ell2": mp.nstr(eq.ell2, 15),
            "threshold": "1e-8",
        }
    return ok, doc


SUITES = {
    "limits": _suite_limits,
    "marginal": _suite_marginal,
    "spectrum": _suite_spectrum,
    "mfun": _suite_mfun,
    "equilibrium": _suite_equilibrium,
}


def cmd_verify(args, ctx):
    geometry = _parse_geometry(args.geom, ctx)
    weights = (_parse_weight(args.weight1, 1), _parse_weight(args.weight2, 2))
    ok, detail = SUITES[args.suite](args, ctx, geometry, weights)
    verdict = {"suite": args.suite, "pass": bool(ok), "detail": detail}
    _write_out(args.out, json.dumps(verdict, sort_keys=True, indent=2, default=str) + "\n")
    return 0 if ok else 1


def build_parser():
    p = argparse.ArgumentParser(prog="angelesco-lab",
                                description="two-interval Angelesco system laboratory")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(q):
        q.add_argument("--geom", default="-2,-1,1,2",
                       help="a1,b1,a2,b2 interval endpoints")
        q.add_argument("--weight1", default="const",
                       help="const | poly:c0,c1,... | exppoly:c0,...")
        q.add_argument("--weight2", default="const")
        q.add_argument("--bits", type=int, default=512)
        q.add_argument("--out", default=None, help="output path (default: stdout)")

    q = sub.add_parser("constants", help="curve constants at one ray parameter")
    common(q)
    q.add_argument("--c", required=True)

    q = sub.add_parser("nnrr", help="recurrence table with ray-limit errors")
    common(q)
    q.add_argument("--nmax", type=int, required=True)

    q = sub.add_parser("verify", help="run a verification suite")
    q.add_argument("suite", choices=sorted(SUITES))
    common(q)
    q.add_argument("--c", default="0.3")
    q.add_argument("--nmax", type=int, default=12)
    q.add_argument("--depth", type=int, default=8)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    ctx = PrecisionContext(args.bits)
    try:
        if args.command == "constants":
            return cmd_constants(args, ctx)
        if args.command == "nnrr":
            return cmd_nnrr(args, ctx)
        return cmd_verify(args, ctx)
    except (AngelescoError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
