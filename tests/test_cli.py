import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from frozen_spectra import GridFunction, Spectrum, cli, forward_w_direct, make_config, read_csv, write_csv
from frozen_spectra.characteristic import asymptotic_eigenvalue
from frozen_spectra.cli import RunManifest, _demo_potential, dispatch

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


def test_classify_output(capsys):
    code, out, _ = run(capsys, "classify", "--alpha", "1", "--beta", "0", "--j", "3", "--k", "7")
    assert code == 0
    assert json.loads(out) == {"kind": "Degenerate", "case": "III"}


def test_cheb_output(capsys):
    code, out, _ = run(capsys, "cheb", "--kind", "T", "--n", "2")
    assert code == 0 and json.loads(out) == [-1, 0, 2]
    code, out, _ = run(capsys, "cheb", "--kind", "U", "--n", "3", "--scaled")
    assert code == 0 and json.loads(out) == [0, -2, 0, 1]


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


def test_verify_reports_a_failed_identity(capsys, monkeypatch):
    from frozen_spectra import identities, make_config, reductions_j1

    bad = make_config(1, 1, 2, 5)

    def broken(alpha, beta, k):
        for j, rows in reductions_j1(alpha, beta, k):
            yield j, () if make_config(alpha, beta, j, k) == bad else rows

    monkeypatch.setattr(identities, "reductions_j1", broken)
    code, out, err = run(capsys, "verify", "--kmax", "6", "--kmax-theorem1", "4", "--kmax-forward", "2")
    assert code == 4
    assert "[verify] theorem-2 matrix reduction: 24 checks passed" in out
    assert "all blocks passed" not in out
    assert json.loads(err) == {"error": {"type": "VerifyFailure", "failures": [f"theorem2 {bad}"]}}


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


def _write_inputs(d):
    """Grid and profile CSVs that disagree with a k = 5 config, or are malformed."""
    write_csv(GridFunction.from_callable(lambda x: 50 * _demo_potential(x), 5, 64), d / "q50.csv")
    write_csv(GridFunction.zeros(4, 8), d / "k4.csv")
    (d / "profile_k4.csv").write_text("# k=4 m=2\n0.0625,1.0,0.0\n0.1875,1.0,0.0\n")
    (d / "headless.csv").write_text("0.05,1.0,0.0\n")
    (d / "short.csv").write_text("# k=5 m=2\n0.05,1.0,0.0\n")
    rows = [f"{(i + 0.5) / 10!r},1.0,0.0\n" for i in range(10)]
    for name, header in [("no_m", "k=5"), ("bare_m", "k=5 m"), ("k_twice", "k=5 m=2 k=3"),
                         ("m_huge", f"k=1 m={10**15}")]:
        (d / f"{name}.csv").write_text(f"# {header}\n" + "".join(rows))
    (d / "two_fields.csv").write_text("# k=5 m=2\n" + "".join(rows[:3] + ["0.35,1\n"] + rows[4:]))


DELTA_CONFIG = ["--alpha", "0", "--beta", "1", "--j", "2", "--k", "7"]


# 50x the demo potential on (1, 0, 2, 5) sends indices 1 and 2 to one root
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, code, kind, message", [
    (["eigs", "--q", "q50.csv", "--count", "40"], 4, "EigenvalueCollisionError", "converged to the same root"),
    (["eigs", "--q", "k4.csv", "--count", "3"], 3, "ValueError", "grid k=4 does not match config k=5"),
    (["isospectral", "--q0", "zero", "--m", "2", "--f", "profile_k4.csv", "--out", "iq.csv"], 3, "ValueError",
     "profile is for k=4"),
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
], ids=["eigs-collision", "potential-k-mismatch", "profile-k-mismatch", "csv-no-header", "csv-short",
        "csv-header-no-m", "csv-header-bare-m", "csv-header-k-twice", "csv-row-two-fields", "csv-header-m-huge",
        "delta-inf", "delta-math-range"])
def test_typed_error_exit_codes(argv, code, kind, message, tmp_path, capsys, monkeypatch):
    _write_inputs(tmp_path)
    before = sorted(p.name for p in tmp_path.iterdir())
    monkeypatch.chdir(tmp_path)
    # the (1, 0, 2, 5) config goes first, so that flags of the case override it
    got, stdout, err = run(capsys, argv[0], "--alpha", "1", "--beta", "0", "--j", "2", "--k", "5", *argv[1:])
    assert (got, stdout) == (code, "")
    error = json.loads(err)["error"]
    assert error["type"] == kind and message in error["message"]
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


# subcommand -> (arguments, files it writes); {i} is the input directory
WRITERS = {
    "matrix": (["--alpha", "1", "--beta", "0", "--j", "5", "--k", "7", "--out", "m.json"], ["m.json"]),
    "eigs": (["--config", "{i}/c3.json", "--q", "demo", "--m", "32", "--count", "10", "--out", "e.csv",
              "--spectrum-out", "s.json"], ["e.csv", "s.json"]),
    "delta": (["--config", "{i}/c3.json", "--q", "demo", "--m", "16", "--lambdas", "1.0;2+1j",
               "--out", "d.csv"], ["d.csv"]),
    "forward-w": (["--config", "{i}/c3.json", "--q", "demo", "--m", "8", "--out", "w.csv"], ["w.csv"]),
    "invert": (["--config", "{i}/c7.json", "--w", "{i}/w7.csv", "--out", "q.csv", "--kernel-out", "k.csv"],
               ["q.csv", "k.csv"]),
    "reconstruct": (["--config", "{i}/c3.json", "--spectrum", "{i}/s3.json", "--m", "16", "--n-used", "60",
                     "--modes", "15", "--out", "r.csv"], ["r.csv"]),
    "isospectral": (["--config", "{i}/c7.json", "--q0", "zero", "--m", "8", "--out", "iq.csv"], ["iq.csv"]),
    "example": (["--id", "IV", "--out", "t.txt", "--svg", "p.svg", "--samples-out", "sm.csv", "--m", "10"],
                ["t.txt", "sm.csv", "p.svg"]),
}


@pytest.mark.parametrize("command", sorted(WRITERS))
def test_every_written_file_has_a_manifest(command, inputs, tmp_path, capsys, monkeypatch):
    args, written = WRITERS[command]
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
