"""Spans around the public functions of each angelesco module.

The wrappers are installed from outside the package, in the forked process
of one operation, by rebinding names: the function in its own module (so
calls by name inside that module are caught), every other angelesco module
that imported the same object under a name (cli imports from curve, mops
and tree; tree imports sym_eig), and methods on their class. Modules are
reached through sys.modules, because the package attribute
``angelesco.curve`` is the function ``curve``, not the module.

A span is (name, start, end, parent index, key, flops). The key identifies
the work a call does, so that distinct keys count the work a per-process
memo would keep; flops are computed from matrix sizes, not measured.
"""

import functools
import sys
import time
from fractions import Fraction

import mpmath as mp

LAYERS = {
    "precision": ("gauss_legendre", "solve_dense", "find_root", "sym_eig"),
    "mops": ("moments", "AngelescoSystem.solution", "AngelescoSystem.nnrr",
             "AngelescoSystem.table"),
    "curve": ("chi_solve", "critical_thresholds", "curve", "dc_oracle", "chi_eval",
              "equilibrium"),
    "szego": ("szego_rho", "ratio_report"),
    "tree": ("build_tree", "assemble_L", "assemble_J", "SyntheticSource.constants",
             "spectrum_probe", "m_recursion", "m_closed"),
    "cli": ("main",),
}


def _exact(v, bits):
    with mp.workprec(bits):
        return mp.mpf(v)._mpf_


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _key_chi_solve(args, kwargs):
    bits = _arg(args, kwargs, 1, "ctx").mantissa_bits
    return (tuple(_exact(v, bits) for v in _arg(args, kwargs, 0, "branch_points")), bits)


def _key_curve(args, kwargs):
    bits = _arg(args, kwargs, 2, "ctx").mantissa_bits
    geometry = _arg(args, kwargs, 0, "geometry")
    return (tuple(_exact(v, bits) for v in geometry.as_tuple()),
            _exact(_arg(args, kwargs, 1, "c"), bits), bits)


def _key_synthetic(args, kwargs):
    return (id(args[0]), Fraction(_arg(args, kwargs, 1, "c")).limit_denominator(10 ** 12))


def _key_gauss_legendre(args, kwargs):
    return (int(_arg(args, kwargs, 0, "m")), _arg(args, kwargs, 1, "ctx").mantissa_bits)


def _flops_solve_dense(args, kwargs):
    # elimination with partial pivoting, back substitution, residual
    n = len(_arg(args, kwargs, 0, "A"))
    return 2 * n ** 3 // 3 + 4 * n * n


def _flops_sym_eig(args, kwargs):
    # Householder tridiagonalisation dominates an eigenvalues-only solve
    n = len(_arg(args, kwargs, 0, "S"))
    return 4 * n ** 3 // 3


KEYS = {
    "curve.chi_solve": _key_chi_solve,
    "curve.curve": _key_curve,
    "tree.SyntheticSource.constants": _key_synthetic,
    "precision.gauss_legendre": _key_gauss_legendre,
}
FLOPS = {
    "precision.solve_dense": _flops_solve_dense,
    "precision.sym_eig": _flops_sym_eig,
}


class Recorder:
    """Spans of one process, kept in memory until the operation ends."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        key_of, flops_of = KEYS.get(name), FLOPS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent,
                                key_of(args, kwargs) if key_of else None,
                                flops_of(args, kwargs) if flops_of else 0)

        return traced


def install():
    """Wrap every function in LAYERS; returns the Recorder that holds the spans."""
    rec = Recorder()
    package = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "angelesco" or n.startswith("angelesco."))]
    for layer, names in LAYERS.items():
        module = sys.modules["angelesco." + layer]
        for qualname in names:
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner)[attr]
            traced = rec.wrap(f"{layer}.{qualname}", original)
            setattr(owner, attr, traced)
            if owner is not module:
                continue
            for other in package:
                for name, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, name, traced)
    return rec


def metric_names():
    names = []
    for layer, fns in LAYERS.items():
        for fn in fns:
            names += [f"{layer}.{fn}.calls", f"{layer}.{fn}.self_s"]
        names.append(f"{layer}.self_s")
    names += [f"{n}.distinct" for n in KEYS] + [f"{n}.flops" for n in FLOPS]
    return names


def summarize(spans):
    """Per-function calls, self time, distinct keys and flops of one process."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out, keys = {}, {}
    for i, (name, start, end, parent, key, flops) in enumerate(spans):
        layer = name.split(".", 1)[0]
        self_s = end - start - child[i]
        for metric, inc in ((f"{name}.calls", 1), (f"{name}.self_s", self_s),
                            (f"{layer}.self_s", self_s), (f"{name}.flops", flops)):
            out[metric] = out.get(metric, 0) + inc
        if key is not None:
            keys.setdefault(name, set()).add(key)
    for name, ks in keys.items():
        out[f"{name}.distinct"] = len(ks)
    return out
