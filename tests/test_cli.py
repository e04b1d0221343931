import argparse
import dataclasses
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from frozen_spectra import (
    GridFunction,
    Spectrum,
    cli,
    delta_direct,
    eigenvalues,
    forward_w_direct,
    make_config,
    quadratic_profile,
    read_csv,
    write_csv,
)
from frozen_spectra.characteristic import asymptotic_eigenvalue
from frozen_spectra.cli import MAX_RANGE, RunManifest, _demo_potential, dispatch

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_matrix_matches_displayed_pattern(capsys):
    code, out, _ = run(capsys, "matrix", "--alpha", "0", "--beta", "0", "--j", "3", "--k", "7")
    assert code == 0
    rows = json.loads(out)
    assert rows[0] == [0, 0, 1, 1, 0, 0, 0]
    assert rows[6] == [0, 0, 0, -1, -1, 0, 0]


# stdout byte for byte on the degenerate 3/8, the reflected 5/7 (printed as 2/7) and a = 0
def test_matrix_prints_the_golden_bytes(capsys):
    out = ""
    for cfg in ("1 1 3 8", "0 1 5 7", "0 1 0 1"):
        alpha, beta, j, k = cfg.split()
        code, text, _ = run(capsys, "matrix", "--alpha", alpha, "--beta", beta, "--j", j, "--k", k)
        assert code == 0, cfg
        out += text
    assert out.encode() == (GOLDEN / "matrix.txt").read_bytes()


# the dense matrix of k = 10^6 holds 10^12 int64 entries, which the allocator refuses: exit 3 and nothing printed
def test_matrix_too_large_to_allocate_exits_3(capsys):
    code, out, err = run(capsys, "matrix", "--alpha", "0", "--beta", "0", "--j", "1", "--k", "1000000")
    assert (code, out) == (3, "")
    message = "a dense matrix with k=1000000 has 1000000000000 entries, too many to allocate"
    assert json.loads(err) == {"error": {"type": "ValueError", "message": message}}


# the dense size is refused before the fold rule allocates its four k-length arrays (763 MiB each at k = 10^8): in a
# child limited to 1.5 GB of address space, matrix exits 3 with the dense matrix's message and prints nothing
def test_matrix_refuses_the_dense_size_before_its_rows_under_an_address_space_limit():
    limit = 1_500_000_000
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    argv = ["matrix", "--alpha", "0", "--beta", "0", "--j", "1", "--k", str(10**8)]
    p = subprocess.run([sys.executable, "-m", "frozen_spectra.cli", *argv], env=env, capture_output=True, text=True,
                       preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert (p.returncode, p.stdout) == (3, "")
    message = f"a dense matrix with k={10**8} has {10**16} entries, too many to allocate"
    assert json.loads(p.stderr) == {"error": {"type": "ValueError", "message": message}}


def test_classify_output(capsys):
    code, out, _ = run(capsys, "classify", "--alpha", "1", "--beta", "0", "--j", "3", "--k", "7")
    assert code == 0
    assert json.loads(out) == {"kind": "Degenerate", "case": "III"}


def test_cheb_output(capsys):
    code, out, _ = run(capsys, "cheb", "--kind", "T", "--n", "2")
    assert code == 0 and json.loads(out) == [-1, 0, 2]
    code, out, _ = run(capsys, "cheb", "--kind", "U", "--n", "3", "--scaled")
    assert code == 0 and json.loads(out) == [0, -2, 0, 1]


def test_cheb_rejects_negative_degree(capsys):
    run(capsys, "cheb", "--kind", "T", "--n", "5")  # the stored run is non-empty, so -1 could wrap around
    for kind in ("T", "U"):
        for scaled in ([], ["--scaled"]):
            code, out, err = run(capsys, "cheb", "--kind", kind, "--n=-1", *scaled)
            assert (code, out) == (3, "")
            assert json.loads(err)["error"] == {"type": "ValueError", "message": "n must be >= 0, got -1"}


def test_forward_invert_round_trip(tmp_path, capsys, rng):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"config": {"alpha": 0, "beta": 1, "j": 1, "k": 3}}))
    q = GridFunction(3, 16, rng.normal(size=48) + 1j * rng.normal(size=48))
    qfile = tmp_path / "q.csv"
    write_csv(q, qfile)
    wfile = tmp_path / "w.csv"
    code, *_ = run(capsys, "forward-w", "--config", str(cfgfile), "--q", str(qfile), "--out", str(wfile))
    assert code == 0
    assert (tmp_path / "w.csv.manifest.json").exists()
    qback = tmp_path / "qback.csv"
    code, *_ = run(capsys, "invert", "--config", str(cfgfile), "--w", str(wfile), "--out", str(qback))
    assert code == 0
    assert np.abs(read_csv(qback).values - q.values).max() < 1e-10


def test_forward_w_is_deterministic(tmp_path, capsys, rng):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"alpha": 1, "beta": 1, "j": 3, "k": 8}))
    q = GridFunction(8, 8, rng.normal(size=64) + 1j * rng.normal(size=64))
    qfile = tmp_path / "q.csv"
    write_csv(q, qfile)
    outs = []
    for name in ("w1.csv", "w2.csv"):
        out = tmp_path / name
        assert run(capsys, "forward-w", "--config", str(cfgfile), "--q", str(qfile), "--out", str(out))[0] == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_eigs_and_reconstruct(tmp_path, capsys):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"config": {"alpha": 0, "beta": 1, "j": 1, "k": 3}}))
    specfile = tmp_path / "s.json"
    code, out, _ = run(
        capsys, "eigs", "--config", str(cfgfile), "--q", "demo", "--m", "64",
        "--count", "120", "--spectrum-out", str(specfile),
    )
    assert code == 0
    first = out.splitlines()[0].split(",")
    assert first[0] == "1"
    spec = Spectrum.load(specfile)
    assert spec.count == 120
    qout = tmp_path / "q.csv"
    code, *_ = run(
        capsys, "reconstruct", "--config", str(cfgfile), "--spectrum", str(specfile),
        "--m", "64", "--n-used", "120", "--modes", "30", "--out", str(qout),
    )
    assert code == 0
    got = read_csv(qout)
    assert (got.k, got.m) == (3, 64)


def test_isospectral_command(tmp_path, capsys, rng):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"alpha": 0, "beta": 0, "j": 3, "k": 7}))
    q0 = GridFunction(7, 8, rng.normal(size=56) + 0j)
    q0file = tmp_path / "q0.csv"
    write_csv(q0, q0file)
    out = tmp_path / "q.csv"
    argv = ["isospectral", "--config", str(cfgfile), "--q0", str(q0file), "--out", str(out)]
    assert run(capsys, *argv)[0] == 0
    q1 = read_csv(out)
    assert np.abs((q1.values - q0.values)).max() > 0.1
    # profile files: f = 1 at the 8 midpoints of (0, 1/7), then with one row past the header's m
    rows = [f"{(i + 0.5) / 56!r},1.0,0.0\n" for i in range(9)]
    good, long = tmp_path / "f.csv", tmp_path / "long.csv"
    good.write_text("".join(["# k=7 m=8\n"] + rows[:8]))
    long.write_text("".join(["# k=7 m=8\n"] + rows))
    assert run(capsys, *argv, "--f", str(good))[0] == 0
    assert np.allclose(np.abs(read_csv(out).values - q0.values), 1.0)
    code, _, err = run(capsys, *argv, "--f", str(long))
    assert code == 3 and json.loads(err)["error"]["type"] == "ValueError"


@pytest.mark.parametrize("beta", [0, 1])
def test_isospectral_command_at_a0(beta, tmp_path, capsys):
    # a = 0 with alpha = 0 is degenerate (cases I and II): the supplement is the model profile f(1 - x)
    out = tmp_path / "q.csv"
    argv = ["isospectral", "--beta", str(beta), "--j", "0", "--k", "1", "--q0", "zero", "--m", "4", "--out", str(out)]
    assert run(capsys, *argv, "--alpha", "0")[0] == 0
    x = (np.arange(4) + 0.5) / 4
    assert np.array_equal(read_csv(out).values, quadratic_profile(1)(1 - x) + 0j)
    out.unlink()
    code, _, err = run(capsys, *argv, "--alpha", "1")
    assert code == 3 and not out.exists()
    assert "non-degenerate" in json.loads(err)["error"]["message"]


def test_example_table_and_svg(tmp_path, capsys):
    code, out, _ = run(capsys, "example", "--id", "I7")
    assert code == 0
    assert out == (GOLDEN / "example_I7.txt").read_text()
    svg1, svg2 = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run(capsys, "example", "--id", "IV", "--svg", str(svg1))[0] == 0
    assert run(capsys, "example", "--id", "IV", "--svg", str(svg2))[0] == 0
    assert svg1.read_bytes() == svg2.read_bytes()  # deterministic output
    assert b"<svg" in svg1.read_bytes()


def test_example_samples_csv(tmp_path, capsys):
    samples = tmp_path / "I7.csv"
    code, *_ = run(capsys, "example", "--id", "I7", "--samples-out", str(samples), "--m", "20")
    assert code == 0
    g = read_csv(samples)
    assert (g.k, g.m) == (7, 20)
    # first row of the I7 table is +f(x): positive near the vertex 3b/5
    assert g.values[11].real > 0.9


def test_verify_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "--kmax", "8", "--kmax-theorem1", "10", "--kmax-forward", "4")
    assert code == 0
    assert "all blocks passed" in out
    blocks = [line for line in out.splitlines() if line.startswith("[verify]") and "all blocks" not in line]
    assert blocks and all(re.fullmatch(r"\[verify\] .+: \d+ checks passed", line) for line in blocks)


# the benchmark's exact ranges print the golden report, byte for byte
def test_verify_at_the_exact_ranges_prints_the_golden_report(capsys):
    code, out, _ = run(capsys, "verify", "--kmax", "20", "--kmax-theorem1", "20", "--kmax-forward", "8")
    assert code == 0
    assert out.encode() == (GOLDEN / "verify_exact.txt").read_bytes()


def _broken_reduction():
    from frozen_spectra import frozen_matrix, make_config

    bad = make_config(1, 1, 2, 5)
    step = frozen_matrix._mul_sub

    # the first step, to j = 2, holds the blocks with k >= 4, ordered by k and then the flags; (1, 1) is the fourth
    def broken(m, y, sub):
        z = step(m, y, sub)
        if z.shape[1] == 4 * (4 + 5 + 6):
            z[1, 4 * 4 + 3 * 5] *= -1
        return z

    return frozen_matrix, "_mul_sub", broken, "theorem-2 matrix reduction: 23 checks passed, 1 failed", f"theorem2 {bad}"


def _broken_eigenvector():
    from frozen_spectra import identities, spectrum_closed_form
    from frozen_spectra.frozen_matrix import eigvecs_j1

    bad = spectrum_closed_form(3, 1, 0)[1]

    def broken(z, k, pairs):  # row n of z holds the spectra of pairs[n], a column per eigenvalue with its k
        x, ok, resid, scale = eigvecs_j1(z, k, pairs)
        ok[list(pairs).index((1, 0)), np.flatnonzero(k == 3)[1]] = False
        return x, ok, resid, scale

    return identities, "eigvecs_j1", broken, "lemma-2/3 kernels, ranks, eigenvectors: 83 checks passed, 1 failed", f"lemma2 k=3 (1,0) z0={bad}"


@pytest.mark.parametrize("breakage", [_broken_reduction, _broken_eigenvector], ids=["theorem2", "lemma2"])
def test_verify_reports_a_failed_identity(breakage, capsys, monkeypatch):
    module, name, broken, block, label = breakage()
    monkeypatch.setattr(module, name, broken)
    code, out, err = run(capsys, "verify", "--kmax", "6", "--kmax-theorem1", "4", "--kmax-forward", "2")
    assert code == 4
    assert f"[verify] {block}\n" in out
    assert "all blocks passed" not in out
    assert json.loads(err) == {"error": {"type": "VerifyFailure", "failures": [label]}}


# the sign rule gives one row per flag pair, the kernel of each degenerate config of that pair and each k, read on its
# first k entries: a sign flipped at v = 8 in the (1, 1) row fails both (1, 1) configs of k = 8, j = 1 and 3, in
# coprime_configs order, and no config of a smaller k
def test_verify_reports_a_wrong_closed_form_kernel(capsys, monkeypatch):
    from frozen_spectra import identities
    from frozen_spectra.core_params import ProblemConfig
    from frozen_spectra.frozen_matrix import kernel_signs

    def flipped(k, pairs):
        x = kernel_signs(k, pairs)
        if k >= 8:
            x[list(pairs).index((1, 1)), 7] *= -1
        return x

    monkeypatch.setattr(identities, "kernel_signs", flipped)
    code, out, err = run(capsys, "verify", "--kmax", "8", "--kmax-theorem1", "4", "--kmax-forward", "2")
    assert code == 4
    assert "[verify] lemma-2/3 kernels, ranks, eigenvectors: 147 checks passed, 2 failed\n" in out
    failures = [f"lemma3 {ProblemConfig(1, 1, j, 8)}" for j in (1, 3)]
    assert json.loads(err) == {"error": {"type": "VerifyFailure", "failures": failures}}


# a kernel rule of zeros fails Lemma 3 on every degenerate config, each labelled in coprime_configs order from one
# listing of the configs; the forward oracle lists its own configs of k <= 2 once
def test_verify_lists_the_configs_once_for_a_block_of_failures(capsys, monkeypatch):
    from frozen_spectra import identities
    from frozen_spectra.core_params import Kind, classify, coprime_configs

    listed = []
    monkeypatch.setattr(identities, "kernel_signs", lambda k, pairs: np.zeros((len(pairs), k), np.int64))
    monkeypatch.setattr(identities, "coprime_configs", lambda kmax: listed.append(kmax) or coprime_configs(kmax))
    code, _, err = run(capsys, "verify", "--kmax", "40", "--kmax-theorem1", "4", "--kmax-forward", "2")
    assert code == 4
    failures = [f"lemma3 {cfg}" for cfg in coprime_configs(40) if classify(cfg).kind is Kind.DEGENERATE]
    assert json.loads(err) == {"error": {"type": "VerifyFailure", "failures": failures}}
    assert listed == [40, 2]


# the theorem-2 sweep would stack 2 kmax (kmax + 1) - 4 rows, past numpy's index range here: the bound refuses it
# before any block runs
def test_verify_with_a_kmax_too_large_to_stack_exits_3(capsys):
    code, out, err = run(capsys, "verify", "--kmax", "3000000000", "--kmax-theorem1", "4", "--kmax-forward", "2")
    assert (code, out) == (3, "")  # refused before any block prints
    message = f"--kmax must be <= {MAX_RANGE}, got 3000000000"
    assert json.loads(err) == {"error": {"type": "ValueError", "message": message}}


# the forward oracle would list kmax^2 // 4 (j, k) pairs, past numpy's index range here: the bound refuses it before
# any block runs
@pytest.mark.parametrize("kmax_fwd", [10**11, 2**63])
def test_verify_with_a_kmax_forward_too_large_to_list_exits_3(capsys, kmax_fwd):
    code, out, err = run(capsys, "verify", "--kmax", "4", "--kmax-theorem1", "4", "--kmax-forward", str(kmax_fwd))
    assert (code, out) == (3, "")
    message = f"--kmax-forward must be <= {MAX_RANGE}, got {kmax_fwd}"
    assert json.loads(err) == {"error": {"type": "ValueError", "message": message}}


# each of verify's ranges at the bound reaches the sweeps, and one past it is refused before they are called
@pytest.mark.parametrize("flag", ["--kmax", "--kmax-theorem1", "--kmax-forward"])
def test_verify_checks_each_range_against_the_bound_before_the_sweeps(capsys, monkeypatch, flag):
    from frozen_spectra import identities

    calls = []
    monkeypatch.setattr(identities, "sweeps", lambda *ranges: calls.append(ranges) or [])
    base = {"--kmax": 4, "--kmax-theorem1": 4, "--kmax-forward": 2}
    for n, code in ((MAX_RANGE, 0), (MAX_RANGE + 1, 3)):
        argv = [str(arg) for item in {**base, flag: n}.items() for arg in item]
        assert run(capsys, "verify", *argv)[0] == code, (flag, n)
    assert calls == [tuple({**base, flag: MAX_RANGE}.values())]


# a MemoryError that no size guard catches, here the theorem-2 stack of kmax 1000 in a child limited to 500 MB of
# address space, exits 3 with one JSON error line of type MemoryError and prints nothing
def test_verify_out_of_memory_within_the_bound_exits_3_under_an_address_space_limit():
    limit = 500_000_000
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    argv = ["verify", "--kmax", str(MAX_RANGE), "--kmax-theorem1", "4", "--kmax-forward", "2"]
    p = subprocess.run([sys.executable, "-m", "frozen_spectra.cli", *argv], env=env, capture_output=True, text=True,
                       preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)), timeout=60)
    assert (p.returncode, p.stdout) == (3, "")
    assert len(p.stderr.splitlines()) == 1
    assert json.loads(p.stderr)["error"]["type"] == "MemoryError"


# k rows are counted before they are allocated: np.arange(2^63) is an empty float64 range, and np.arange(10^11) asks
# for 745 GiB; from the flags and from a --config file alike, matrix exits 3 and prints nothing
@pytest.mark.parametrize("k", [10**11, 2**63])
def test_matrix_with_too_many_rows_exits_3(capsys, tmp_path, k):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"alpha": 0, "beta": 0, "j": 1, "k": k}))
    for argv in (["--alpha", "0", "--beta", "0", "--j", "1", "--k", str(k)], ["--config", str(config)]):
        code, out, err = run(capsys, "matrix", *argv)
        assert (code, out) == (3, ""), argv
        message = f"k={k} is too large: the fold rule and the orbit take fewer than 2^31 rows"
        assert json.loads(err)["error"]["message"].endswith(message), argv


def test_unknown_subcommand_exit_code(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def _outputs(d):
    """Every file in d; wall_time_s dropped from the manifests, the one field a rerun may change."""
    files = {}
    for p in sorted(d.iterdir()):
        files[p.name] = p.read_bytes()
        if p.name.endswith(".manifest.json"):
            files[p.name] = {k: v for k, v in json.loads(files[p.name]).items() if k != "wall_time_s"}
    return files


def test_one_parser_serves_every_dispatch_like_a_fresh_process(tmp_path, capsys, monkeypatch):
    runs = [
        ["eigs", "--alpha", "0", "--count", "three"],
        ["eigs", "--alpha", "0", "--beta", "1", "--j", "1", "--k", "3", "--q", "demo", "--m", "16",
         "--count", "4", "--out", "e.csv", "--spectrum-out", "s.json"],
        ["delta", "--alpha", "1", "--beta", "1", "--j", "2", "--k", "5", "--q", "demo", "--m", "8",
         "--lambdas", "1.0;2+1j"],
        ["--help"],
    ]
    monkeypatch.setenv("COLUMNS", "100")  # the width --help wraps to
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    fresh.mkdir()
    reused.mkdir()
    want = []
    for argv in runs:
        p = subprocess.run([sys.executable, "-m", "frozen_spectra.cli", *argv], cwd=fresh, env=env,
                           capture_output=True, text=True)
        want.append((p.returncode, p.stdout))
    monkeypatch.chdir(reused)
    cli.build_parser()
    added = []
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", lambda *a, **kw: added.append(a))
    got = [run(capsys, *argv)[:2] for argv in runs]
    assert [code for code, _ in got] == [2, 0, 0, 0]
    assert got == want
    assert added == []
    assert _outputs(reused) == _outputs(fresh)
    assert sorted(_outputs(reused)) == ["e.csv", "e.csv.manifest.json", "s.json", "s.json.manifest.json"]


def test_malformed_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "c.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "classify", "--config", str(bad))
    assert code == 3
    assert json.loads(err)["error"]["type"]


@pytest.mark.parametrize("text", ["[1]", '{"config": 5}', '{"alpha": true, "beta": 0, "j": 1, "k": 3}'],
                         ids=["list", "config-int", "alpha-bool"])
def test_malformed_config_exit_code(text, tmp_path, capsys):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(text)
    code, out, err = run(capsys, "matrix", "--config", str(cfgfile), "--out", str(tmp_path / "m.json"))
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["type"] == "ValueError"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


@pytest.mark.parametrize("argv", [["eigs", "--q", "demo", "--m", "0", "--count", "3"],
                                  ["forward-w", "--q", "{csv}", "--out", "w.csv"],
                                  ["invert", "--w", "{csv}", "--out", "q.csv"]],
                         ids=["eigs-m0", "forward-w-csv", "invert-csv"])
def test_zero_sample_grid_exit_code(argv, tmp_path, capsys, monkeypatch):
    csv = tmp_path / "m0.csv"
    csv.write_text("# k=1 m=0\n")
    monkeypatch.chdir(tmp_path)
    cfg = ["--alpha", "1", "--beta", "0", "--j", "0", "--k", "1"]
    code, out, err = run(capsys, *(a.format(csv=csv) for a in argv), *cfg)
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["type"] == "ValueError"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m0.csv"]


def test_invert_rejects_extra_rows_exit_code(tmp_path, capsys):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"alpha": 0, "beta": 1, "j": 1, "k": 2}))
    wfile = tmp_path / "w.csv"
    write_csv(GridFunction.from_callable(lambda x: np.ones_like(x), 2, 4), wfile)
    with open(wfile, "a") as fh:
        fh.write("0.99,1.0,0.0\n")
    code, _, err = run(capsys, "invert", "--config", str(cfgfile), "--w", str(wfile), "--out", str(tmp_path / "q.csv"))
    assert code == 3
    assert json.loads(err)["error"]["type"] == "ValueError"


OFF_X = 5 / 24 + 0.26 / 12  # row 3 of a k=3 m=4 grid moved by just over a quarter cell, h/4 = 1/48


def _edit_x(edit, lines):
    """The data rows of a k=3 m=4 grid CSV, edited in their x column."""
    if edit == "abc":
        return ["abc" + lines[0][lines[0].index(","):]] + lines[1:]
    if edit == "reversed":
        return lines[::-1]
    if edit == "off":
        return lines[:2] + [f"{OFF_X!r},{lines[2].split(',', 1)[1]}"] + lines[3:]
    x_rounded = [f"{float(line.split(',', 1)[0]):.6g},{line.split(',', 1)[1]}" for line in lines]
    assert x_rounded != lines
    return x_rounded


@pytest.mark.parametrize("command", ["eigs", "forward-w"])
@pytest.mark.parametrize("edit, message", [
    ("abc", "data row 1 is not x,re,im: 'abc,"),
    ("reversed", f"data row 1 has x={23 / 24!r}, not within h/4 of its midpoint {1 / 24!r}"),
    ("off", f"data row 3 has x={OFF_X!r}, not within h/4 of its midpoint {5 / 24!r}"),
    ("rounded", None),
], ids=["abc", "reversed", "off", "rounded"])
def test_grid_csv_x_column_exit_code(command, edit, message, tmp_path, capsys, monkeypatch):
    qfile = tmp_path / "q.csv"
    write_csv(GridFunction.from_callable(_demo_potential, 3, 4), qfile)
    header, *lines = qfile.read_text().splitlines()
    qfile.write_text("\n".join([header, *_edit_x(edit, lines)]) + "\n")
    monkeypatch.chdir(tmp_path)
    cfg = ["--alpha", "0", "--beta", "1", "--j", "1", "--k", "3", "--q", str(qfile)]
    argv = ["eigs", *cfg, "--count", "3", "--out", "e.csv"] if command == "eigs" else ["forward-w", *cfg, "--out", "w.csv"]
    code, out, err = run(capsys, *argv)
    if message is None:  # x rounded to 6 significant digits is still within h/4 of the midpoints
        assert code == 0
        return
    assert (code, out) == (3, "")
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError" and error["message"].startswith(f"{qfile}: {message}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["q.csv"]


def test_non_finite_input_exit_code(tmp_path, capsys):
    cfg = ["--alpha", "0", "--beta", "1", "--j", "1", "--k", "2"]
    qfile = tmp_path / "q.csv"
    write_csv(GridFunction.from_callable(lambda x: np.ones_like(x), 2, 4), qfile)
    lines = qfile.read_text().splitlines()
    lines[3] = "0.3125,nan,0.0"
    qfile.write_text("\n".join(lines) + "\n")
    for argv in (["eigs", *cfg, "--q", str(qfile), "--count", "3"],
                 ["delta", *cfg, "--q", str(qfile), "--lambdas", "1.0"],
                 ["delta", *cfg, "--q", "demo", "--m", "4", "--lambdas", "1.0;inf"]):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["type"] == "ValueError"


def test_numerical_failure_exit_code(tmp_path, capsys):
    # unattainable W in a degenerate case -> exit 4 with a structured error
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"alpha": 0, "beta": 0, "j": 1, "k": 2}))
    w = GridFunction.from_callable(lambda x: np.ones_like(x), 2, 8)
    wfile = tmp_path / "w.csv"
    write_csv(w, wfile)
    code, _, err = run(capsys, "invert", "--config", str(cfgfile), "--w", str(wfile), "--out", str(tmp_path / "q.csv"))
    assert code == 4
    assert json.loads(err)["error"]["type"] == "InconsistentSystemError"


def test_nan_residual_tolerance_exit_code(tmp_path, capsys):
    # a NaN tolerance must not let the unattainable W above through
    inp = tmp_path / "in"
    inp.mkdir()
    cfg = ["--alpha", "0", "--beta", "0", "--j", "1", "--k", "2"]
    wfile = inp / "w.csv"
    write_csv(GridFunction.from_callable(lambda x: np.ones_like(x), 2, 8), wfile)
    specfile = inp / "s.json"
    zero_potential_spectrum(0, 0, 40).dump(specfile)
    out = tmp_path / "out"
    out.mkdir()
    for argv in (["invert", *cfg, "--w", str(wfile), "--out", str(out / "q.csv")],
                 ["reconstruct", *cfg, "--spectrum", str(specfile), "--m", "16", "--n-used", "40",
                  "--modes", "10", "--out", str(out / "r.csv")]):
        code, stdout, err = run(capsys, *argv, "--residual-rtol", "nan")
        assert code == 3 and stdout == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError" and "residual_rtol" in error["message"]
        assert list(out.iterdir()) == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n_used", ["-5", "0"])
def test_reconstruct_rejects_n_used_below_one(n_used, tmp_path, capsys):
    specfile = tmp_path / "s.json"
    zero_potential_spectrum(0, 1, 120).dump(specfile)
    code, stdout, err = run(
        capsys, "reconstruct", "--alpha", "0", "--beta", "1", "--j", "1", "--k", "3", "--spectrum", str(specfile),
        "--m", "16", "--n-used", n_used, "--modes", "20", "--out", str(tmp_path / "q.csv"),
    )
    assert code == 3 and stdout == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError" and "n_used" in error["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eigs_caps_the_newton_step_that_used_to_overflow(capsys):
    # at pi^2/4 the slope is -6.2e-7 against Delta = -1.85; capped at half the gap to lambda_2^0, Newton stays near
    # the seed and finds the two roots where real Delta changes sign
    code, stdout, err = run(capsys, "eigs", *CONFIG_0113, "--q", NEWTON_OVERFLOW_Q, "--count", "2")
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in stdout.splitlines()]
    assert [(n, float(im)) for n, _, im in rows] == [("1", 0.0), ("2", 0.0)]
    q, cfg = read_csv(NEWTON_OVERFLOW_Q), make_config(0, 1, 1, 3)
    for (_, re_, _), (lo, hi) in zip(rows, ((-5.9, -5.8), (16.7, 16.9))):
        assert lo < float(re_) < hi
        assert delta_direct(q, cfg, lo).real * delta_direct(q, cfg, hi).real < 0


def _write_inputs(d):
    """Grid and profile CSVs that disagree with a k = 5 config, or are malformed."""
    write_csv(GridFunction.from_callable(lambda x: 50 * _demo_potential(x), 5, 64), d / "q50.csv")
    write_csv(GridFunction.zeros(4, 8), d / "k4.csv")
    (d / "profile_k4.csv").write_text("# k=4 m=2\n0.0625,1.0,0.0\n0.1875,1.0,0.0\n")
    (d / "profile_m2.csv").write_text("# k=5 m=2\n0.05,1.0,0.0\n0.15,1.0,0.0\n")
    (d / "headless.csv").write_text("0.05,1.0,0.0\n")
    (d / "short.csv").write_text("# k=5 m=2\n0.05,1.0,0.0\n")
    rows = [f"{(i + 0.5) / 10!r},1.0,0.0\n" for i in range(10)]
    for name, header in [("no_m", "k=5"), ("bare_m", "k=5 m"), ("k_twice", "k=5 m=2 k=3"),
                         ("m_huge", f"k=1 m={10**15}")]:
        (d / f"{name}.csv").write_text(f"# {header}\n" + "".join(rows))
    (d / "two_fields.csv").write_text("# k=5 m=2\n" + "".join(rows[:3] + ["0.35,1\n"] + rows[4:]))
    write_csv(GridFunction.from_callable(_demo_potential, 1, 4), d / "k1.csv")
    zero_potential_spectrum(1, 1, 40).dump(d / "s11.json")
    (d / "bool_eigenvalue.json").write_text('{"alpha": 0, "beta": 1, "eigenvalues": [[true, false], [20.0, 0.0]]}')
    huge = "1" + "0" * 400  # a 401-digit integer
    (d / "huge_eigenvalue.json").write_text(f'{{"alpha": 0, "beta": 1, "eigenvalues": [[{huge}, 0.0], [20.0, 0.0]]}}')
    (d / "no_eigenvalues.json").write_text('{"alpha": 0, "beta": 1}')
    (d / "truncated.json").write_text('{"alpha": 0, "beta": 1, "eigenvalues": [[2.5, 0.0], [22')
    (d / "no_k.json").write_text('{"config": {"alpha": 0, "beta": 1, "j": 1}}')
    (d / "truncated_config.json").write_text('{"config": {"alpha": 0, ')
    (d / "list_config.json").write_text('[0, 1, 1, 3]')
    (d / "list_spectrum.json").write_text('[[2.5, 0.0]]')
    (d / "bool_flag.json").write_text('{"alpha": true, "beta": 1, "eigenvalues": [[2.5, 0.0], [22.0, 0.0]]}')
    (d / "huge_k.json").write_text(json.dumps({"config": {"alpha": 0, "beta": 1, "j": 1, "k": 10**30}}))


DELTA_CONFIG = ["--alpha", "0", "--beta", "1", "--j", "2", "--k", "7"]
A_ONE = {(a, b): ["--alpha", str(a), "--beta", str(b), "--j", "1", "--k", "1"] for a in (0, 1) for b in (0, 1)}
RECONSTRUCT_11 = ["--alpha", "1", "--beta", "1", "--j", "1", "--k", "3", "--spectrum", "s11.json"]
SPECTRUM_01 = ["--alpha", "0", "--beta", "1", "--j", "1", "--k", "3", "--spectrum"]
NOT_NORMALIZED = "config must be normalized (2j <= k), got j=1, k=1; apply normalize_to_half first"
# 3e11 points: the allocator refuses the grid at once, so nothing is filled
CONFIG_0113 = ["--alpha", "0", "--beta", "1", "--j", "1", "--k", "3"]
HUGE_M = ["--m", str(10**11)]
TOO_LARGE = f"a grid with k=3, m={10**11} has {3 * 10**11} points, too many to allocate"
# a real potential whose uncapped first Newton step from pi^2/4 lands at lambda = -3e6, where cos(rho (1 - a))
# overflows
NEWTON_OVERFLOW_Q = str(Path(__file__).parent / "fixtures" / "newton_overflow_q.csv")
# beyond the platform's index range numpy refuses the size itself, before any allocation
INDEX_M = ["--m", str(10**19)]
BEYOND_INDEX = f"a grid with k=3, m={10**19} has {3 * 10**19} points, too many to allocate"
# verify ranges past the bound: one past it, a theorem-2 stack past numpy's index range, and two forward-pair counts
VERIFY_ABOVE_BOUND = (MAX_RANGE + 1, 3 * 10**9, 10**11, 2**63)


# 50x the demo potential on (1, 0, 2, 5) sends indices 1 and 2 to one root
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, code, kind, message", [
    (["eigs", "--q", "q50.csv", "--count", "40"], 4, "EigenvalueCollisionError", "converged to the same root"),
    (["eigs", "--q", "k4.csv", "--count", "3"], 3, "ValueError", "k4.csv: grid has k=4 but config needs k=5"),
    (["invert", "--w", "k4.csv", "--out", "q.csv"], 3, "ValueError", "k4.csv: grid has k=4 but config needs k=5"),
    (["isospectral", "--q0", "zero", "--m", "2", "--f", "profile_k4.csv", "--out", "iq.csv"], 3, "ValueError",
     "profile is for k=4"),
    (["isospectral", "--q0", "zero", "--m", "3", "--f", "profile_m2.csv", "--out", "iq.csv"], 3, "ValueError",
     "profile must have 3 samples on (0, 1/5), got shape (2,)"),
    (["reconstruct", "--alpha", "0", "--beta", "1", "--j", "1", "--k", "3", "--spectrum", "bool_eigenvalue.json",
      "--m", "4", "--n-used", "2", "--modes", "1", "--out", "r.csv"], 3, "ValueError",
     "true and false are not numbers"),
    (["reconstruct", "--alpha", "0", "--beta", "1", "--j", "1", "--k", "3", "--spectrum", "huge_eigenvalue.json",
      "--m", "4", "--n-used", "2", "--modes", "1", "--out", "r.csv"], 3, "ValueError",
     "int too large to convert to float"),
    (["reconstruct", *RECONSTRUCT_11, "--m", "4", "--n-used", "41", "--modes", "1", "--out", "r.csv"], 3,
     "ValueError", "spectrum holds 40 eigenvalues, need 41"),
    # a JSON input that lacks a key or does not parse names the file, and the key
    (["reconstruct", *SPECTRUM_01, "no_eigenvalues.json", "--m", "4", "--n-used", "2", "--modes", "1", "--out",
      "r.csv"], 3, "ValueError", "no_eigenvalues.json: spectrum has no 'eigenvalues'"),
    (["reconstruct", *SPECTRUM_01, "truncated.json", "--m", "4", "--n-used", "2", "--modes", "1", "--out",
      "r.csv"], 3, "ValueError", "truncated.json: Expecting"),
    (["forward-w", "--config", "no_k.json", "--q", "demo", "--m", "4", "--out", "w.csv"], 3, "ValueError",
     "no_k.json: config has no 'k'"),
    (["eigs", "--config", "truncated_config.json", "--q", "demo", "--m", "4", "--count", "3"], 3, "ValueError",
     "truncated_config.json: Expecting"),
    # configs and spectra share one object check and one flag rule, and every message names the file
    (["eigs", "--config", "list_config.json", "--q", "demo", "--m", "4", "--count", "3"], 3, "ValueError",
     "list_config.json: config must be a JSON object, got list"),
    (["reconstruct", *SPECTRUM_01, "list_spectrum.json", "--m", "4", "--n-used", "2", "--modes", "1", "--out",
      "r.csv"], 3, "ValueError", "list_spectrum.json: spectrum must be a JSON object, got list"),
    (["reconstruct", *SPECTRUM_01, "bool_flag.json", "--m", "4", "--n-used", "2", "--modes", "1", "--out",
      "r.csv"], 3, "ValueError", "bool_flag.json: alpha and beta must be 0 or 1, got True and 1"),
    (["forward-w", "--q", "headless.csv", "--out", "w.csv"], 3, "ValueError", "missing '# k=<k> m=<m>' header"),
    (["forward-w", "--q", "short.csv", "--out", "w.csv"], 3, "ValueError", "expected 10 rows, got 1"),
    (["forward-w", "--q", "no_m.csv", "--out", "w.csv"], 3, "ValueError", "no_m.csv: header '# k=5' is not"),
    (["invert", "--w", "bare_m.csv", "--out", "q.csv"], 3, "ValueError", "bare_m.csv: header '# k=5 m' is not"),
    (["forward-w", "--q", "k_twice.csv", "--out", "w.csv"], 3, "ValueError",
     "k_twice.csv: header '# k=5 m=2 k=3' is not"),
    (["invert", "--w", "two_fields.csv", "--out", "q.csv"], 3, "ValueError",
     "two_fields.csv: data row 4 is not x,re,im: '0.35,1'"),
    (["forward-w", "--q", "m_huge.csv", "--out", "w.csv"], 3, "ValueError",
     f"m_huge.csv: expected {10**15} rows, got 10 (header '# k=1 m={10**15}')"),
    # on (0, 1, 2, 7) Delta overflows to inf at -7e5, and at -1e6 cos(rho a) already does
    (["delta", *DELTA_CONFIG, "--q", "demo", "--m", "100", "--lambdas=-7e5"], 4, "ArithmeticError",
     "Delta is not finite at lambda=(-700000+0j)"),
    (["delta", *DELTA_CONFIG, "--q", "demo", "--m", "100", "--lambdas=-1e6"], 4, "ArithmeticError",
     "Delta is not finite at lambda=(-1000000+0j)"),
    (["delta", *CONFIG_0113, "--q", NEWTON_OVERFLOW_Q, "--lambdas=-3e6"], 4, "ArithmeticError",
     "Delta is not finite at lambda=(-3000000+0j)"),
    # an empty or malformed lambda names the flag and the entry
    (["delta", *DELTA_CONFIG, "--q", "demo", "--m", "16", "--lambdas="], 3, "ValueError",
     "--lambdas '': entry '' is not a complex number"),
    (["delta", *DELTA_CONFIG, "--q", "demo", "--m", "16", "--lambdas", "1;;2"], 3, "ValueError",
     "--lambdas '1;;2': entry '' is not a complex number"),
    (["delta", *DELTA_CONFIG, "--q", "demo", "--m", "16", "--lambdas", "1;x"], 3, "ValueError",
     "--lambdas '1;x': entry 'x' is not a complex number"),
    # a range below 2 would leave a block with no checks
    (["verify", "--kmax", "1"], 3, "ValueError", "--kmax must be >= 2, got 1"),
    (["verify", "--kmax=-3"], 3, "ValueError", "--kmax must be >= 2, got -3"),
    (["verify", "--kmax-theorem1", "0"], 3, "ValueError", "--kmax-theorem1 must be >= 2, got 0"),
    (["verify", "--kmax-forward", "1"], 3, "ValueError", "--kmax-forward must be >= 2, got 1"),
    # a range above the bound is refused before any work: a stored run would hold n^3 bits, a sweep take K^3 steps
    (["verify", "--kmax-theorem1", str(MAX_RANGE + 1)], 3, "ValueError",
     f"--kmax-theorem1 must be <= {MAX_RANGE}, got {MAX_RANGE + 1}"),
    (["cheb", "--kind", "U", "--n", str(MAX_RANGE + 1), "--scaled"], 3, "ValueError",
     f"--n must be <= {MAX_RANGE}, got {MAX_RANGE + 1}"),
    *((["verify", flag, str(n)], 3, "ValueError", f"{flag} must be <= {MAX_RANGE}, got {n}")
      for flag in ("--kmax", "--kmax-forward") for n in VERIFY_ABOVE_BOUND),
    # a bad --m is rejected before any output file is written
    (["example", "--id", "I7", "--out", "t.txt", "--m=-1", "--svg", "x.svg"], 3, "ValueError",
     "a grid needs k >= 1 and m >= 1, got k=7, m=-1"),
    (["example", "--id", "IV", "--out", "t.txt", "--m", "0"], 3, "ValueError",
     "a grid needs k >= 1 and m >= 1, got k=8, m=0"),
    (["isospectral", "--q0", "zero", "--m=-1", "--out", "iq.csv"], 3, "ValueError",
     "a grid needs k >= 1 and m >= 1, got k=5, m=-1"),
    (["eigs", "--q", "demo", "--m=-2", "--count", "3", "--out", "e.csv"], 3, "ValueError",
     "a grid needs k >= 1 and m >= 1, got k=5, m=-2"),
    (["reconstruct", *RECONSTRUCT_11, "--m", "0", "--n-used", "40", "--modes", "1", "--out", "r.csv",
      "--kernel-out", "rk.csv"], 3, "ValueError", "a grid needs k >= 1 and m >= 1, got k=3, m=0"),
    (["reconstruct", *RECONSTRUCT_11, "--m=-1", "--n-used", "40", "--modes", "1", "--out", "r.csv"], 3,
     "ValueError", "a grid needs k >= 1 and m >= 1, got k=3, m=-1"),
    # a grid too large to allocate names k, m and the point count, and writes no file
    (["eigs", *CONFIG_0113, "--q", "demo", *HUGE_M, "--count", "3", "--out", "e.csv"], 3, "ValueError", TOO_LARGE),
    (["eigs", *CONFIG_0113, "--q", "zero", *HUGE_M, "--count", "3", "--out", "e.csv"], 3, "ValueError", TOO_LARGE),
    (["delta", *CONFIG_0113, "--q", "demo", *HUGE_M, "--lambdas", "1", "--out", "d.csv"], 3, "ValueError",
     TOO_LARGE),
    (["forward-w", *CONFIG_0113, "--q", "demo", *HUGE_M, "--out", "w.csv"], 3, "ValueError", TOO_LARGE),
    (["isospectral", *CONFIG_0113, "--q0", "demo", *HUGE_M, "--out", "iq.csv"], 3, "ValueError", TOO_LARGE),
    (["reconstruct", *RECONSTRUCT_11, *HUGE_M, "--n-used", "40", "--modes", "1", "--out", "r.csv",
      "--kernel-out", "rk.csv"], 3, "ValueError", TOO_LARGE),
    (["eigs", *CONFIG_0113, "--q", "demo", *INDEX_M, "--count", "3", "--out", "e.csv"], 3, "ValueError",
     BEYOND_INDEX),
    (["forward-w", "--config", "huge_k.json", "--q", "zero", "--m", "4", "--out", "w.csv"], 3, "ValueError",
     f"a grid with k={10**30}, m=4 has {4 * 10**30} points, too many to allocate"),
    (["reconstruct", *RECONSTRUCT_11, *INDEX_M, "--n-used", "40", "--modes", "1", "--out", "r.csv",
      "--kernel-out", "rk.csv"], 3, "ValueError", BEYOND_INDEX),
    (["example", "--id", "I7", "--out", "t.txt", *HUGE_M], 3, "ValueError",
     f"a grid with k=7, m={10**11} has {7 * 10**11} points, too many to allocate"),
    # so is a count of eigenvalues too large for the seed array
    (["eigs", "--q", "demo", "--m", "16", "--count", str(10**11), "--out", "e.csv"], 3, "ValueError",
     f"count={10**11} eigenvalues are too many to allocate"),
    # a = 1 is outside the normalized range 2j <= k of the main equation for every flag pair
    (["forward-w", *A_ONE[0, 1], "--q", "demo", "--m", "4", "--out", "w.csv"], 3, "ValueError", NOT_NORMALIZED),
    (["forward-w", *A_ONE[1, 1], "--q", "demo", "--m", "4", "--out", "w.csv"], 3, "ValueError", NOT_NORMALIZED),
    (["invert", *A_ONE[0, 0], "--w", "k1.csv", "--out", "q.csv"], 3, "ValueError", NOT_NORMALIZED),
    (["invert", *A_ONE[0, 1], "--w", "k1.csv", "--out", "q.csv"], 3, "ValueError", NOT_NORMALIZED),
    (["invert", *A_ONE[1, 0], "--w", "k1.csv", "--out", "q.csv"], 3, "ValueError", NOT_NORMALIZED),
    (["invert", *A_ONE[1, 1], "--w", "k1.csv", "--out", "q.csv"], 3, "ValueError", NOT_NORMALIZED),
    (["reconstruct", *A_ONE[1, 1], "--spectrum", "s11.json", "--m", "4", "--n-used", "40", "--modes", "3",
      "--out", "r.csv"], 3, "ValueError", NOT_NORMALIZED),
    (["isospectral", *A_ONE[0, 0], "--q0", "zero", "--m", "4", "--out", "iq.csv"], 3, "ValueError", NOT_NORMALIZED),
], ids=["eigs-collision", "potential-k-mismatch", "invert-k-mismatch", "profile-k-mismatch", "profile-m-mismatch",
        "spectrum-bool-eigenvalue", "spectrum-huge-eigenvalue", "reconstruct-n-used-above-count",
        "spectrum-no-eigenvalues", "spectrum-truncated", "config-no-k", "config-truncated", "config-list",
        "spectrum-list", "spectrum-bool-flag", "csv-no-header",
        "csv-short", "csv-header-no-m", "csv-header-bare-m", "csv-header-k-twice", "csv-row-two-fields",
        "csv-header-m-huge",
        "delta-inf", "delta-math-range", "delta-newton-overflow", "delta-lambdas-empty",
        "delta-lambdas-empty-entry", "delta-lambdas-malformed", "verify-kmax-1", "verify-kmax-negative",
        "verify-kmax-theorem1-0",
        "verify-kmax-forward-1", "verify-kmax-theorem1-above-limit", "cheb-n-above-limit",
        *(f"verify{flag[1:]}-{n}" for flag in ("--kmax", "--kmax-forward") for n in VERIFY_ABOVE_BOUND),
        "example-m-negative",
        "example-m-zero", "isospectral-m-negative",
        "eigs-m-negative", "reconstruct-m-zero", "reconstruct-m-negative", "eigs-m-huge", "eigs-zero-m-huge",
        "delta-m-huge", "forward-w-m-huge", "isospectral-m-huge", "reconstruct-m-huge",
        "eigs-m-beyond-index", "forward-w-zero-k-beyond-index", "reconstruct-m-beyond-index", "example-m-huge",
        "eigs-count-huge", "forward-w-a-one-01",
        "forward-w-a-one-11",
        "invert-a-one-00", "invert-a-one-01", "invert-a-one-10", "invert-a-one-11", "reconstruct-a-one-11",
        "isospectral-a-one-00"])
def test_typed_error_exit_codes(argv, code, kind, message, tmp_path, capsys, monkeypatch):
    _write_inputs(tmp_path)
    before = sorted(p.name for p in tmp_path.iterdir())
    monkeypatch.chdir(tmp_path)
    # the (1, 0, 2, 5) config goes first, so that flags of the case override it;
    # verify, example and cheb take no config
    config = [] if argv[0] in ("verify", "example", "cheb") else ["--alpha", "1", "--beta", "0", "--j", "2", "--k", "5"]
    got, stdout, err = run(capsys, argv[0], *config, *argv[1:])
    assert (got, stdout) == (code, "")
    error = json.loads(err)["error"]
    assert error["type"] == kind and message in error["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == before


# the whole message: the input file, then what in it differs from the config or the grid
@pytest.mark.parametrize("argv, message", [
    (["isospectral", "--q0", "zero", "--m", "3", "--f", "profile_m2.csv", "--out", "iq.csv"],
     "profile_m2.csv: profile must have 3 samples on (0, 1/5), got shape (2,)"),
    (["reconstruct", *SPECTRUM_01, "s11.json", "--m", "4", "--n-used", "40", "--modes", "3", "--out", "r.csv"],
     "s11.json: flags (1, 1) differ from the config's (0, 1)"),
], ids=["profile-m-mismatch", "spectrum-flags-mismatch"])
def test_input_errors_name_the_file_and_what_differs(argv, message, tmp_path, capsys, monkeypatch):
    _write_inputs(tmp_path)
    before = sorted(p.name for p in tmp_path.iterdir())
    monkeypatch.chdir(tmp_path)
    got, stdout, err = run(capsys, argv[0], "--alpha", "1", "--beta", "0", "--j", "2", "--k", "5", *argv[1:])
    assert (got, stdout) == (3, "")
    assert json.loads(err)["error"] == {"type": "ValueError", "message": message}
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def zero_potential_spectrum(alpha, beta, count):
    evs = tuple(complex(asymptotic_eigenvalue(alpha, beta, n)) for n in range(1, count + 1))
    return Spectrum(alpha, beta, evs)


@pytest.fixture
def inputs(tmp_path, rng):
    """Input files of the file-writing commands, in their own directory."""
    d = tmp_path / "in"
    d.mkdir()
    (d / "c3.json").write_text(json.dumps({"config": {"alpha": 0, "beta": 1, "j": 1, "k": 3}}))
    (d / "c7.json").write_text(json.dumps({"alpha": 0, "beta": 0, "j": 3, "k": 7}))
    q = GridFunction(7, 8, rng.normal(size=56) + 1j * rng.normal(size=56))
    write_csv(forward_w_direct(q, make_config(0, 0, 3, 7)), d / "w7.csv")  # attainable, degenerate case
    zero_potential_spectrum(0, 1, 60).dump(d / "s3.json")
    return d


# subcommand -> (arguments, files it writes, the (alpha, beta, j, k) its manifests record); {i} is the input directory
WRITERS = {
    "matrix": (["--alpha", "1", "--beta", "0", "--j", "5", "--k", "7", "--out", "m.json"], ["m.json"], (0, 1, 2, 7)),
    "eigs": (["--config", "{i}/c3.json", "--q", "demo", "--m", "32", "--count", "10", "--out", "e.csv",
              "--spectrum-out", "s.json"], ["e.csv", "s.json"], (0, 1, 1, 3)),
    "delta": (["--config", "{i}/c3.json", "--q", "demo", "--m", "16", "--lambdas", "1.0;2+1j",
               "--out", "d.csv"], ["d.csv"], (0, 1, 1, 3)),
    "forward-w": (["--config", "{i}/c3.json", "--q", "demo", "--m", "8", "--out", "w.csv"], ["w.csv"], (0, 1, 1, 3)),
    "invert": (["--config", "{i}/c7.json", "--w", "{i}/w7.csv", "--out", "q.csv", "--kernel-out", "k.csv"],
               ["q.csv", "k.csv"], (0, 0, 3, 7)),
    "reconstruct": (["--config", "{i}/c3.json", "--spectrum", "{i}/s3.json", "--m", "16", "--n-used", "60",
                     "--modes", "15", "--out", "r.csv"], ["r.csv"], (0, 1, 1, 3)),
    "isospectral": (["--config", "{i}/c7.json", "--q0", "zero", "--m", "8", "--out", "iq.csv"], ["iq.csv"],
                    (0, 0, 3, 7)),
    "example": (["--id", "IV", "--out", "t.txt", "--svg", "p.svg", "--samples-out", "sm.csv", "--m", "10"],
                ["t.txt", "sm.csv", "p.svg"], (1, 1, 3, 8)),
}


@pytest.mark.parametrize("command", sorted(WRITERS))
def test_every_written_file_has_a_manifest(command, inputs, tmp_path, capsys, monkeypatch):
    # the config is the --config file's, matrix's normalized to a <= 1/2 and example's the catalogue's
    args, written, config = WRITERS[command]
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.chdir(out)
    code, _, err = run(capsys, command, *(a.format(i=inputs) for a in args))
    assert code == 0, err
    assert sorted(p.name for p in out.iterdir()) == sorted(written + [f"{f}.manifest.json" for f in written])
    for f in written:
        manifest = json.loads((out / f"{f}.manifest.json").read_text())
        assert set(manifest) == {fld.name for fld in dataclasses.fields(RunManifest)}
        assert manifest["command"] == command
        assert manifest["outputs"] == written
        assert manifest["config"] == dict(zip(("alpha", "beta", "j", "k"), config))


# two output flags of one command that name one file, a manifest included; dispatch checks them before it reads
# the config, so a missing --config file still reports the collision
COLLISIONS = {
    "invert": (["invert", "--config", "{i}/c7.json", "--w", "{i}/w7.csv", "--out", "q.csv", "--kernel-out", "q.csv"],
               "--out and --kernel-out both write q.csv"),
    "reconstruct": (["reconstruct", "--config", "{i}/c7.json", "--spectrum", "{i}/s00.json", "--m", "8",
                     "--n-used", "60", "--modes", "15", "--out", "r.csv", "--kernel-out", "./r.csv"],
                    "--out and --kernel-out both write ./r.csv"),
    "eigs": (["eigs", "--config", "{i}/c3.json", "--q", "demo", "--m", "32", "--count", "10", "--out", "e.json",
              "--spectrum-out", "e.json"], "--out and --spectrum-out both write e.json"),
    "eigs-missing-config": (["eigs", "--config", "{i}/missing.json", "--q", "demo", "--count", "3", "--out", "e.json",
                             "--spectrum-out", "e.json"], "--out and --spectrum-out both write e.json"),
    "example": (["example", "--id", "IV", "--out", "t.txt", "--samples-out", "sm.csv", "--svg", "t.txt.manifest.json"],
                "--out and --svg both write t.txt.manifest.json"),
}


@pytest.mark.parametrize("case", sorted(COLLISIONS))
def test_colliding_output_paths_exit_code(case, inputs, tmp_path, capsys, monkeypatch):
    args, message = COLLISIONS[case]
    zero_potential_spectrum(0, 0, 60).dump(inputs / "s00.json")  # (0, 0, 3, 7) is degenerate: both files are due
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.chdir(out)
    code, stdout, err = run(capsys, *(a.format(i=inputs) for a in args))
    assert (code, stdout) == (3, "")
    assert json.loads(err)["error"] == {"type": "ValueError", "message": message}
    assert list(out.iterdir()) == []


def test_a_kernel_file_that_cannot_be_opened_leaves_the_solution_and_no_manifest(inputs, tmp_path, capsys):
    config = ["--config", str(inputs / "c7.json"), "--w", str(inputs / "w7.csv")]
    whole, q = tmp_path / "whole.csv", tmp_path / "q.csv"
    assert run(capsys, "invert", *config, "--out", str(whole))[0] == 0
    code, _, err = run(capsys, "invert", *config, "--out", str(q), "--kernel-out", str(tmp_path / "no_dir" / "k.csv"))
    assert code == 3 and json.loads(err)["error"]["type"] == "FileNotFoundError"
    assert q.read_bytes() == whole.read_bytes()
    assert not (tmp_path / "q.csv.manifest.json").exists()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), "1.0", None])
def test_reconstruct_rejects_a_malformed_eigenvalue(bad, tmp_path, capsys):
    spec = zero_potential_spectrum(0, 1, 40).to_dict()
    spec["eigenvalues"][7][0] = bad
    specfile = tmp_path / "s.json"
    specfile.write_text(json.dumps(spec))  # NaN and Infinity as json.load reads them
    out = tmp_path / "q.csv"
    code, stdout, err = run(
        capsys, "reconstruct", "--alpha", "0", "--beta", "1", "--j", "1", "--k", "3",
        "--spectrum", str(specfile), "--m", "16", "--n-used", "40", "--modes", "10", "--out", str(out),
    )
    assert code == 3 and stdout == ""
    assert json.loads(err)["error"]["type"] == "ValueError"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]


@pytest.mark.parametrize("argv, error_type, message", [
    (["forward-w", "--q", "q.csv"], "ArithmeticError", "W overflows double precision at x=0.041667"),
    (["isospectral", "--q0", "q.csv", "--f", "profile.csv"], "ArithmeticError",
     "the iso-spectral potential overflows double precision at x=0.041667"),
    (["eigs", "--q", "q.csv", "--count", "3"], "RootConvergenceError", "eigenvalue index 1: non-finite residual"),
], ids=["forward-w", "isospectral", "eigs"])
def test_a_finite_potential_whose_output_overflows_exits_4(argv, error_type, message, tmp_path, capsys, monkeypatch):
    # every sample at 1.5e308 is finite, but W, q0 + R^{-1}(X f) and Delta add two of them: the command exits 4
    # with no RuntimeWarning, no output file and no manifest
    monkeypatch.chdir(tmp_path)
    write_csv(GridFunction(3, 4, np.full(12, 1.5e308)), "q.csv")
    Path("profile.csv").write_text("# k=3 m=4\n" + "".join(f"{(i + 0.5) / 12!r},1.5e308,0.0\n" for i in range(4)))
    code, stdout, err = run(capsys, *argv, "--alpha", "0", "--beta", "0", "--j", "1", "--k", "3", "--out", "out.csv")
    assert code == 4 and stdout == ""
    error = json.loads(err)["error"]
    assert error["type"] == error_type and error["message"].startswith(message)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["profile.csv", "q.csv"]


def _sin_potential(x):
    return _demo_potential(x) + 0.3 * np.sin(7.0 * x)


@pytest.mark.parametrize("flags, huge, message", [
    ((0, 1, 1, 3), (5,), "the solve overflows double precision at grid point t="),
    ((0, 1, 1, 3), (5, 6), "the product over the spectrum overflows double precision at mode 1"),
    ((1, 0, 1, 4), (5,), "the synthesis of W overflows double precision at x="),
], ids=["one-huge", "two-huge", "synthesis"])
def test_reconstruct_from_an_overflowing_spectrum_exits_4(flags, huge, message, tmp_path, capsys):
    # eigenvalues at 1.7e308 are finite, so the spectrum loads; the product, W or the solve overflows, and
    # the command exits 4 with no RuntimeWarning, no q file and no manifest
    cfg = make_config(*flags)
    spec = eigenvalues(GridFunction.from_callable(_sin_potential, cfg.k, 64), cfg, 60).to_dict()
    for i in huge:
        spec["eigenvalues"][i] = [1.7e308, 0.0]
    specfile = tmp_path / "s.json"
    specfile.write_text(json.dumps(spec))
    argv = [f"--{key}={value}" for key, value in cfg.to_dict().items()]
    code, stdout, err = run(capsys, "reconstruct", *argv, "--spectrum", str(specfile), "--m", "64",
                            "--n-used", "60", "--modes", "10", "--out", str(tmp_path / "q.csv"))
    assert code == 4 and stdout == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ArithmeticError" and error["message"].startswith(message)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]


_CLASSIFY = [("classify 01_1_3", ["classify", "--alpha", "0", "--beta", "1", "--j", "1", "--k", "3"])]


# tree paths relative to the working directory name the same trees from the temporary directory each command runs in
def test_compare_trees_runs_relative_trees(capsys, monkeypatch):
    import compare_trees

    monkeypatch.setattr(compare_trees, "commands", lambda: _CLASSIFY)
    monkeypatch.chdir(Path(__file__).parents[1])
    assert compare_trees.main([".", "."]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["classify 01_1_3: exit 0, 0 files, same", "0 of 1 commands differ or exit outside 0, 2, 3 and 4"]


# exit 1, a crash outside the CLI's exit codes, fails a command even where both trees crash alike
def test_compare_trees_fails_a_crash_both_trees_share(tmp_path, capsys, monkeypatch):
    import compare_trees

    package = tmp_path / "crashing" / "frozen_spectra"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("raise RuntimeError('crash')\n")
    monkeypatch.setattr(compare_trees, "commands", lambda: _CLASSIFY)
    monkeypatch.chdir(tmp_path)
    assert compare_trees.main(["crashing", "crashing"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["classify 01_1_3: exit 1, 0 files, same; FAIL: exit 1",
                     "1 of 1 commands differ or exit outside 0, 2, 3 and 4"]
