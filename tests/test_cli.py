import importlib
import json
import os
import re
import resource
import subprocess
import sys
import tomllib

import mpmath as mp
import pytest

from angelesco.cli import main

cli = importlib.import_module("angelesco.cli")
curve_mod = importlib.import_module("angelesco.curve")


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_constants_symmetric(tmp_path, capsys):
    out = tmp_path / "constants.json"
    code, _, _ = run_cli(["constants", "--geom=-2,-1,1,2", "--c", "0.5",
                          "--bits", "256", "--out", str(out)], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["regime"] == "middle"
    with mp.workprec(300):
        assert abs(mp.mpf(doc["B1"]) + mp.mpf(doc["B2"])) < mp.mpf("1e-20")
        assert 0 < mp.mpf(doc["c_star"]) < mp.mpf("0.5")


def test_constants_small_c_field(tmp_path, capsys):
    out = tmp_path / "c.json"
    code, _, _ = run_cli(["constants", "--geom=-2,-1,1,2", "--c", "0.001",
                          "--bits", "256", "--out", str(out)], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    with mp.workprec(300):
        assert mp.mpf(doc["A1"]) <= mp.mpf("1e-4")


@pytest.mark.parametrize("c, beta", [("0.6", "-5.30781370372286375995349027593"),
                                     ("0.5", "-10.2177784378111046087977418402")])
def test_constants_pushed_at_and_above_one_half(tmp_path, capsys, c, beta):
    # c* = 0.753 here: the pushed endpoint's cross-check must use the node of
    # c, not of 1 - c, and hold at c = 1/2, where the node is at infinity
    out = tmp_path / "c.json"
    code, _, _ = run_cli(["constants", "--geom=-100,-1,1,1.01", "--c", c,
                          "--bits", "192", "--out", str(out)], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["regime"] == "pushed_left" and doc["beta_c1"] == beta


def test_constants_on_a_translated_geometry(tmp_path, capsys):
    # [-1.5, -0.5] U [0.5, 1.5] moved by 10^6: the pushed endpoint and its
    # discriminant-cubic cross-check agree, and beta - 10^6 is the untranslated
    # endpoint -1.05691635056422046952996017098 to 24 digits
    out = tmp_path / "c.json"
    code, _, _ = run_cli(["constants", "--geom=999998.5,999999.5,1000000.5,1000001.5",
                          "--c", "0.05", "--bits", "128", "--out", str(out)], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    with mp.workprec(128):
        beta = mp.mpf(doc["beta_c1"]) - 10 ** 6
        assert abs(beta - mp.mpf("-1.05691635056422046952996017098")) < mp.mpf("1e-23")
    assert doc["regime"] == "pushed_left"


def test_constants_malformed_geometry(capsys):
    code, _, err = run_cli(["constants", "--geom=-2,1,-1,2", "--c", "0.5",
                            "--bits", "256"], capsys)
    assert code == 2
    assert "error" in err


def test_nnrr_outputs_and_cache(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("ANGELESCO_CACHE_DIR", str(cache))
    out = tmp_path / "table.csv"
    args = ["nnrr", "--geom=-2,-1,1,2", "--nmax", "2", "--bits", "256",
            "--out", str(out)]
    code, _, _ = run_cli(args, capsys)
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0] == "n1,n2,a1,a2,b1,b2"
    assert (tmp_path / "table.csv.errors.csv").exists()
    rep1 = json.loads((tmp_path / "table.csv.report.json").read_text())
    assert rep1["cache_hit"] is False
    assert len(os.listdir(cache)) == 1
    # identical config: cache hit and byte-identical table
    code, _, _ = run_cli(args, capsys)
    assert code == 0
    rep2 = json.loads((tmp_path / "table.csv.report.json").read_text())
    assert rep2["cache_hit"] is True
    assert out.read_text() == text


def _count_calls(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_nnrr_cached_rerun_reuses_errors(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ANGELESCO_CACHE_DIR", str(tmp_path / "cache"))
    base = ["nnrr", "--geom=-2,-1,1,2", "--nmax", "3", "--bits", "128", "--out"]
    assert run_cli(base + [str(tmp_path / "cold.csv")], capsys)[0] == 0
    calls = _count_calls(monkeypatch, cli, "curve")
    assert run_cli(base + [str(tmp_path / "warm.csv")], capsys)[0] == 0
    assert calls == []
    assert json.loads((tmp_path / "warm.csv.report.json").read_text())["cache_hit"] is True
    assert ((tmp_path / "warm.csv.errors.csv").read_bytes()
            == (tmp_path / "cold.csv.errors.csv").read_bytes())


def test_nnrr_cache_without_errors_recomputes_them(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("ANGELESCO_CACHE_DIR", str(cache))
    base = ["nnrr", "--geom=-2,-1,1,2", "--nmax", "2", "--bits", "128", "--out"]
    assert run_cli(base + [str(tmp_path / "cold.csv")], capsys)[0] == 0
    # an entry holding the table alone is a miss
    (entry,) = cache.iterdir()
    full = entry.read_text()
    entry.write_text(full.partition(cli.ERRORS_HEADER)[0])
    assert run_cli(base + [str(tmp_path / "warm.csv")], capsys)[0] == 0
    assert json.loads((tmp_path / "warm.csv.report.json").read_text())["cache_hit"] is False
    # and is rewritten whole, as the cold run wrote it
    assert entry.read_text() == full
    errors = (tmp_path / "warm.csv.errors.csv").read_text()
    assert errors == (tmp_path / "cold.csv.errors.csv").read_text()


def test_verify_mfun_one_sheet_evaluation_per_point(capsys, monkeypatch):
    chi_calls = _count_calls(monkeypatch, curve_mod, "chi_eval")
    rec_calls = _count_calls(monkeypatch, cli, "m_recursion")
    code, out, _ = run_cli(["verify", "mfun", "--geom=-2,-1,1,2", "--c", "0.4",
                            "--bits", "128"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["detail"]["grid_points"] == 20
    assert len(chi_calls) == 20 and len(rec_calls) == 20


@pytest.mark.parametrize("c", ["0", "1"])
def test_verify_mfun_collapsed_support_at_512_bits(c, capsys):
    # the sheets at complex z need no real anchor, whose roots once missed the
    # zero-width window of the collapsed support [B_k, B_k]
    code, out, _ = run_cli(["verify", "mfun", "--geom=-2,-1,1,2", "--c", c,
                            "--bits", "512"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True and doc["detail"]["max_difference"] < 1e-10


def test_verify_mfun_and_equilibrium(tmp_path, capsys):
    code, out, _ = run_cli(["verify", "mfun", "--geom=-2,-1,1,2", "--c", "0.4",
                            "--bits", "256"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True and doc["detail"]["max_difference"] < 1e-10

    out_path = tmp_path / "eq.json"
    code, _, _ = run_cli(["verify", "equilibrium", "--geom=-2,-1,1,2",
                          "--c", "0.3", "--bits", "256", "--out", str(out_path)], capsys)
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["pass"] is True


def test_verify_equilibrium_pushed_certificate(capsys):
    # at c = 0.001 the first support is [-2, -1.9862]; 128 bits
    code, out, _ = run_cli(["verify", "equilibrium", "--geom=-2,-1,1,2",
                            "--c", "0.001", "--bits", "128"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    detail = doc["detail"]
    assert len(detail["flatness_spreads"]) == 2
    assert all(float(v) < 1e-8 for v in detail["flatness_spreads"] + detail["mass_errors"])


@pytest.mark.parametrize("geom, c, bits", [("-2,-1,1,2", "0.3", "512"),
                                            ("-2.3,-1,1,1.9", "0.4", "128")])
def test_verify_equilibrium_bytes_do_not_follow_the_node_rule(tmp_path, capsys, monkeypatch,
                                                              geom, c, bits):
    # mass errors and flatness spreads under their floors are written as the
    # floors, so twice the Gauss nodes leave the file's bytes as they are
    def write(name):
        path = tmp_path / name
        code, _, _ = run_cli(["verify", "equilibrium", f"--geom={geom}", "--c", c,
                              "--bits", bits, "--out", str(path)], capsys)
        assert code == 0
        return path.read_bytes()

    first = write("rule.json")
    rule = curve_mod._mass_nodes
    monkeypatch.setattr(curve_mod, "_mass_nodes", lambda work_bits: 2 * rule(work_bits))
    assert write("doubled.json") == first
    detail = json.loads(first)["detail"]
    assert all(0 < float(v) < 1e-30 for v in detail["mass_errors"] + detail["flatness_spreads"])


def test_verify_spectrum_small_depth(capsys):
    code, out, _ = run_cli(["verify", "spectrum", "--geom=-2,-1,1,2",
                            "--depth", "6", "--bits", "192"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["detail"]["model_inside_fraction"] >= 0.9


def test_verify_spectrum_depth11_by_counts(capsys, monkeypatch):
    def dense_route(*args, **kwargs):
        raise AssertionError("dense eigensolve")

    monkeypatch.setattr(importlib.import_module("angelesco.precision"), "sym_eig", dense_route)
    monkeypatch.setattr(importlib.import_module("angelesco.tree").TreeTruncation, "dense",
                        dense_route)
    code, out, _ = run_cli(["verify", "spectrum", "--geom=-2,-1,1,2",
                            "--depth", "11", "--bits", "192"], capsys)
    assert code == 0
    detail = json.loads(out)["detail"]
    # the dense eigvalsh route wrote the same fractions and these gaps
    assert detail["model_inside_fraction"] == 1.0
    assert detail["jacobi_inside_fraction"] == 4094 / 4095
    assert abs(detail["model_max_gap"] - 0.02148618562084148) < 1e-13
    assert abs(detail["jacobi_max_gap"] - 0.021489805316551314) < 1e-13


def test_verify_spectrum_depth12_above_the_dense_cap(capsys):
    # 8,191 vertices, above the 5,000 of the dense eigensolver's cap
    code, out, _ = run_cli(["verify", "spectrum", "--geom=-2,-1,1,2",
                            "--depth", "12", "--bits", "192"], capsys)
    assert code == 0
    detail = json.loads(out)["detail"]
    assert detail["model_inside_fraction"] == 1.0 and detail["jacobi_inside_fraction"] >= 0.9


def test_verify_spectrum_refuses_depth30_before_allocating():
    # 2^31 - 1 vertices: refused before any per-vertex array exists, so a 1 GiB
    # address-space limit (with one BLAS thread, numpy's import stays far under
    # it) gives exit 2 and a message, not a MemoryError
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-m", "angelesco.cli", "verify", "spectrum",
                           "--depth", "30", "--bits", "128"],
                          env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
                          preexec_fn=limit, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "more vertices than the cap" in proc.stderr


def test_cli_import_loads_only_runtime_dependencies():
    # scipy and the like stay out of the program's import: beyond the
    # standard library, importing the CLI may load only what importing the
    # runtime dependencies of pyproject.toml loads
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        deps = [re.match(r"[A-Za-z0-9_]+", d).group(0)
                for d in tomllib.load(fh)["project"]["dependencies"]]
    code = (f"import sys; import {', '.join(deps)}; base = set(sys.modules); "
            "import angelesco.cli; print(' '.join(sorted(set(sys.modules) - base)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.path.join(root, "src")},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = {name.split(".")[0] for name in proc.stdout.split()}
    assert loaded - set(sys.stdlib_module_names) == {"angelesco"}


def test_short_commands_leave_numpy_unloaded(tmp_path):
    # numpy is imported by the functions that build arrays (tree truncations and
    # counts, sym_eig, energy_oracle); constants, nnrr, verify limits, verify
    # marginal, verify equilibrium and verify mfun build none (chi_eval's cubic
    # seeds are in closed form), and verify spectrum does
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    runs = [["constants", "--c", "0.05"], ["constants", "--c", "0.5"], ["nnrr", "--nmax", "2"],
            ["verify", "limits"], ["verify", "marginal"], ["verify", "equilibrium"],
            ["verify", "mfun"], ["verify", "spectrum", "--depth", "3"]]
    argvs = [argv + ["--bits", "128", "--out", str(tmp_path / f"out{i}")]
             for i, argv in enumerate(runs)]
    code = ("import json, sys; from angelesco.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    print(main(argv), 'numpy' in sys.modules)")
    env = {k: v for k, v in os.environ.items() if k != "ANGELESCO_CACHE_DIR"}
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], capture_output=True,
                          text=True, env={**env, "PYTHONPATH": os.path.join(root, "src")},
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:-1] == ["0 False"] * 7 + ["0 True"]


def test_verify_limits_small(capsys):
    code, out, _ = run_cli(["verify", "limits", "--geom=-2,-1,1,2",
                            "--nmax", "8", "--bits", "256"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["detail"]["all_streams_decreasing"] is True


def test_verify_limits_reads_every_index_from_one_sweep(capsys, monkeypatch):
    # (12, 12) first: its sweep to level 24 serves (4, 4) and (6, 6), so each
    # measure's Jacobi coefficients are built once (six times in ascending order)
    mops = importlib.import_module("angelesco.mops")
    levels = []
    real = mops.jacobi_marginal
    monkeypatch.setattr(mops, "jacobi_marginal",
                        lambda *args: levels.append(args[2]) or real(*args))
    code, out, _ = run_cli(["verify", "limits", "--nmax", "12", "--bits", "128"], capsys)
    assert code == 0
    assert json.loads(out)["detail"]["ks"] == [4, 6, 12]
    assert levels == [24, 24]


def test_verify_marginal_refuses_nmax_below_4(capsys):
    code, _, err = run_cli(["verify", "marginal", "--nmax", "3", "--bits", "128"], capsys)
    assert code == 2
    assert "nmax must be >= 4" in err


def test_nnrr_writes_exact_marginal_b_at_192_bits(tmp_path, capsys):
    # the exact value; dense moment solves give -2.95000000000000000000522873882
    out = tmp_path / "t.csv"
    code, _, _ = run_cli(["nnrr", "--geom=-3,-2.9,-2.8,4", "--nmax", "8", "--bits", "192",
                          "--out", str(out)], capsys)
    assert code == 0
    rows = {tuple(ln.split(",")[:2]): ln.split(",")[2:] for ln in out.read_text().splitlines()[1:]}
    assert rows[("8", "0")][2] == "-2.95"


def test_nnrr_thin_wide_geometry_runs(tmp_path, capsys):
    # dense moment solves find the type I system at (5, 8) singular here
    code, _, err = run_cli(["nnrr", "--geom=-1.01,-1,1,100", "--nmax", "8", "--bits", "192",
                            "--out", str(tmp_path / "t.csv")], capsys)
    assert code == 0, err
