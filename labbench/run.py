"""Benchmark of the angelesco lab.

    python3 labbench/run.py --workload ray-sweep --seed 1 --seconds 38 --trace 0
    python3 labbench/run.py --workload all

Run from the root of a checkout. The program is imported from the
checkout's src/; nothing is installed. A run repeats whole passes over its
workload's operations while the next pass still fits in --seconds, checks
every output, and prints each metric by name with its unit; its last line
is one JSON object with the keys correct, attempted, failed and metrics.

--trace 0 gives the end-to-end metrics, untraced. --trace 1 is the traced
run: it wraps the public functions of every module, reports the per-layer
metrics, and writes its spans when the run ends. Reports and spans go to
.labbench_out/ in the checkout. See labbench/README.md.
"""

import os

# Linear algebra runs on one thread: with one operation at a time the run
# keeps to at most two processes and one compute thread each (nproc is 2
# on the reference machine), fork happens in a process with no threads, and
# the figures do not depend on what else the machine runs.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".labbench_out")
TMP_DIR = os.path.join(ROOT, ".labbench_tmp")
SETUP_SAMPLES = 7

sys.path.insert(0, HERE)
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "certified_digits": "digits",
}


def import_program():
    """Import angelesco from this checkout's src/, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "angelesco", "__init__.py")):
        sys.exit(f"labbench: no program under {SRC}; run from the root of a full checkout")
    sys.path.insert(0, SRC)
    import angelesco
    import angelesco.cli  # noqa: F401  (what the lab's entry point loads)
    if os.path.dirname(os.path.dirname(os.path.abspath(angelesco.__file__))) != SRC:
        sys.exit(f"labbench: angelesco was imported from {angelesco.__file__}, not {SRC}")


def time_setup():
    """Wall time from a fresh interpreter's start to the lab's modules imported."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import angelesco.cli"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def run_op(op, pass_dir, trace):
    """Run one operation in a forked process; returns its record."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # the operation's process: never returns
        status = 1
        try:
            os.close(r)
            recorder = tracing.install() if trace else None
            t0, ru0 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
            try:
                payload, error = op.run(pass_dir), None
            except Exception as exc:  # an operation that fails is counted, not fatal
                payload, error = None, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            ru1 = resource.getrusage(resource.RUSAGE_SELF)
            msg = {"wall": wall,
                   "cpu": ru1.ru_utime - ru0.ru_utime + ru1.ru_stime - ru0.ru_stime,
                   "payload": payload, "error": error,
                   "spans": recorder.spans if recorder else None}
            with os.fdopen(w, "wb") as f:
                pickle.dump(msg, f)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    with os.fdopen(r, "rb") as f:
        data = f.read()
    _, status, usage = os.wait4(pid, 0)
    if not data:
        return {"wall": 0.0, "cpu": 0.0, "payload": None, "spans": None,
                "error": f"operation process ended with status {status}", "rss_mb": 0.0}
    msg = pickle.loads(data)
    msg["rss_mb"] = usage.ru_maxrss / 1024
    return msg


def run_pass(ops, trace):
    pass_dir = tempfile.mkdtemp(dir=TMP_DIR)
    try:
        return [run_op(op, pass_dir, trace) for op in ops]
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)


def machine():
    import mpmath
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
            "mpmath_backend": mpmath.libmp.BACKEND, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__, "cpu": platform.processor() or platform.machine()}


def run_workload(name, seed, seconds, trace):
    build, check = workloads.WORKLOADS[name]
    t0 = time.perf_counter()
    inputs = workloads.make_inputs(seed)
    ops = build(inputs)
    os.makedirs(TMP_DIR, exist_ok=True)
    own_setup = time.perf_counter() - t0
    setup = [time_setup() + own_setup for _ in range(SETUP_SAMPLES)]

    passes, problems, digits = [], [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        records = run_pass(ops, trace)
        took = time.perf_counter() - t
        passes.append({"seconds": took, "ops": records})
        good = {op.name: rec["payload"] for op, rec in zip(ops, records) if rec["error"] is None}
        try:
            digits.append(check(inputs, good))
        except checks.CheckFailed as exc:
            problems.append(f"pass {len(passes)}: {exc}")
        for rec in records:  # keep the forked processes' starting size the same
            rec["payload"] = None
        elapsed = time.perf_counter() - start
        if elapsed + max(p["seconds"] for p in passes) > seconds:
            break

    records = [rec for p in passes for rec in p["ops"]]
    failed = sum(rec["error"] is not None for rec in records)
    per_pass = [p["ops"] for p in passes]
    if trace:
        metrics = layer_metrics(per_pass)
    else:
        known = [d for d in digits if d is not None]
        metrics = {
            "setup_s": statistics.median(setup),
            "run_s": statistics.median(sum(r["wall"] for r in ops_) for ops_ in per_pass),
            "cpu_s": statistics.median(sum(r["cpu"] for r in ops_) for ops_ in per_pass),
            "peak_rss_mb": max(r["rss_mb"] for r in records),
            "certified_digits": min(known) if known else 0.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    result = {"correct": not problems, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    write_report(name, seed, seconds, trace, inputs, ops, passes, setup, problems, result)
    return result


def layer_metrics(per_pass):
    """Per-layer figures of one pass: calls, distinct keys and flops from the
    first pass (they repeat exactly), times as medians over the passes."""
    sums = []
    for records in per_pass:
        total = {}
        for rec in records:
            for k, v in tracing.summarize(rec["spans"] or []).items():
                total[k] = total.get(k, 0) + v
        total["traced.run_s"] = sum(rec["wall"] for rec in records)
        sums.append(total)
    metrics = {}
    for name in tracing.metric_names() + ["traced.run_s"]:
        if name.endswith("_s"):
            value, unit = statistics.median(s.get(name, 0.0) for s in sums), "s"
        else:
            value = sums[0].get(name, 0)
            unit = "flop" if name.endswith(".flops") else "count"
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def write_report(name, seed, seconds, trace, inputs, ops, passes, setup, problems, result):
    os.makedirs(OUT_DIR, exist_ok=True)
    doc = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine(), "inputs": inputs.__dict__, "setup_samples_s": setup,
        "problems": problems, "result": result,
        "passes": [{"seconds": p["seconds"],
                    "ops": [{"name": op.name, "kind": op.kind, "wall_s": r["wall"],
                             "cpu_s": r["cpu"], "rss_mb": r["rss_mb"], "error": r["error"]}
                            for op, r in zip(ops, p["ops"])]}
                   for p in passes],
    }
    stem = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w") as f:
        json.dump(doc, f, indent=1, default=str)
    if trace:
        spans = [{"pass": i, "op": op.name,
                  "spans": [s[:4] for s in (r["spans"] or [])]}
                 for i, p in enumerate(passes) for op, r in zip(ops, p["ops"])]
        with open(stem + ".spans.json", "w") as f:
            json.dump(spans, f)


def print_result(name, result):
    for k, m in result["metrics"].items():
        print(f"{name:14s} {k:44s} {m['value']:14.6g} {m['unit']}")
    print(f"{name:14s} attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["all", *workloads.WORKLOADS])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=38)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    import_program()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_result(name, results[name])
    sys.stdout.flush()
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
