import json
from pathlib import Path

import numpy as np

from frozen_spectra import GridFunction, Spectrum, read_csv, write_csv
from frozen_spectra.cli import dispatch

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
    code, *_ = run(capsys, "isospectral", "--config", str(cfgfile), "--q0", str(q0file), "--out", str(out))
    assert code == 0
    q1 = read_csv(out)
    assert np.abs((q1.values - q0.values)).max() > 0.1


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


def test_unknown_subcommand_exit_code(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_malformed_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "c.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "classify", "--config", str(bad))
    assert code == 3
    assert json.loads(err)["error"]["type"]


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
