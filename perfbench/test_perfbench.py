"""Tests of the benchmark's own parts: each output checker on a known-good and a
deliberately corrupted output, the tracer's coverage and self times, and the
agreement of the reported metric names with BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402
from frozen_spectra import characteristic, chebyshev, cli, intlinalg  # noqa: E402
from frozen_spectra.characteristic import eigenvalues  # noqa: E402
from frozen_spectra.core_params import make_config  # noqa: E402
from frozen_spectra.interval_ops import GridFunction  # noqa: E402


def dispatch(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.dispatch([str(a) for a in argv])
    return rc, out.getvalue()


def rewrite_grid(path, fn):
    k, m, values = wl.read_grid_csv(path)
    wl.write_grid_csv(path, k, m, fn(values.copy()))


COEFFS = np.array([1.0 + 0.5j, -0.5 + 0.2j, 0.8 - 0.3j, -0.4 + 0.1j])


# -- forward -------------------------------------------------------------------


@pytest.fixture(scope="module")
def forward_run(tmp_path_factory):
    d = tmp_path_factory.mktemp("forward")
    cfg, m, count = make_config(0, 1, 2, 5), 64, 20
    wl.write_config(d / "c.json", cfg)
    wl.write_grid_csv(d / "q.csv", cfg.k, m, wl.sample(COEFFS, cfg.k, m))
    rc, _ = dispatch(["eigs", "--config", d / "c.json", "--q", d / "q.csv", "--count", count,
                      "--out", d / "e.csv", "--spectrum-out", d / "e.json"])
    assert rc == 0
    return cfg, m, count, str(d / "e.csv"), str(d / "e.json")


def test_forward_check_passes_good_output(forward_run):
    cfg, m, count, csv_path, json_path = forward_run
    check = wl.check_forward(cfg, COEFFS, m, count, csv_path, json_path)
    assert check.ok, check.reason
    assert check.units == count and 0 < check.error


def test_forward_check_fails_shifted_eigenvalue(forward_run, tmp_path):
    cfg, m, count, csv_path, json_path = forward_run
    rows = np.loadtxt(csv_path, delimiter=",")
    gap = wl.asymptote(cfg.alpha, cfg.beta, count + 1) - wl.asymptote(cfg.alpha, cfg.beta, count)
    rows[count - 1, 1] += 1e-3 * gap
    np.savetxt(tmp_path / "e.csv", rows, fmt=["%d", "%.17g", "%.17g"], delimiter=",")
    spec = json.loads(Path(json_path).read_text())
    spec["eigenvalues"][count - 1][0] = rows[count - 1, 1]
    (tmp_path / "e.json").write_text(json.dumps(spec))
    check = wl.check_forward(cfg, COEFFS, m, count, str(tmp_path / "e.csv"), str(tmp_path / "e.json"))
    assert not check.ok and "off the refined root" in check.reason
    check = wl.check_forward(cfg, COEFFS, m, count, str(tmp_path / "e.csv"), json_path)
    assert not check.ok and "disagree" in check.reason


# -- inverse -------------------------------------------------------------------


@pytest.fixture(scope="module", params=[(0, 1, 1, 3), (0, 0, 2, 5)], ids=["nondegenerate", "degenerate"])
def inverse_run(request, tmp_path_factory):
    d = tmp_path_factory.mktemp("inverse")
    cfg = make_config(*request.param)
    q_true = wl.sample(COEFFS, cfg.k, wl.INVERSE_M)
    wl.write_config(d / "c.json", cfg)
    eigenvalues(GridFunction(cfg.k, wl.INVERSE_M, q_true), cfg, 100).dump(d / "s.json")
    rc, _ = dispatch(["reconstruct", "--config", d / "c.json", "--spectrum", d / "s.json",
                      "--m", wl.INVERSE_M, "--n-used", 100, "--modes", 25,
                      "--out", d / "q.csv", "--kernel-out", d / "g.csv"])
    assert rc == 0
    return cfg, q_true, str(d / "q.csv"), str(d / "g.csv")


def test_inverse_check_passes_good_output(inverse_run):
    cfg, q_true, out, ker = inverse_run
    check = wl.check_inverse(cfg, q_true, 25, out, ker)
    assert check.ok, check.reason
    assert check.units == 1 and 0 < check.error


def test_inverse_check_fails_perturbed_reconstruction(inverse_run, tmp_path):
    cfg, q_true, out, ker = inverse_run
    bad = str(tmp_path / "q.csv")
    Path(bad).write_text(Path(out).read_text())
    rms = np.sqrt(np.mean(np.abs(q_true) ** 2))
    rewrite_grid(bad, lambda q: q + rms * np.exp(3j * np.arange(len(q))))
    check = wl.check_inverse(cfg, q_true, 25, bad, ker)
    assert not check.ok and "RMS distance" in check.reason


def test_family_distance_ignores_isospectral_supplement():
    cfg = make_config(0, 0, 2, 5)
    m = 8
    x = (1, -1, 1, -1, 1)
    q_true = wl.sample(COEFFS, cfg.k, m)
    supplement = np.empty(cfg.k * m, dtype=complex)
    supplement[wl.r_permutation(cfg.j, cfg.k, m)] = np.outer(x, np.linspace(1, 2, m))
    assert wl.family_distance(cfg, q_true + supplement, q_true, x) < 1e-14
    assert wl.family_distance(cfg, q_true + supplement, q_true, ()) > 1


# -- dense ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def dense_run(tmp_path_factory):
    d = tmp_path_factory.mktemp("dense")
    cfg, m = make_config(0, 0, 3, 7), 16
    q = wl.sample(COEFFS, cfg.k, m)
    wl.write_config(d / "c.json", cfg)
    wl.write_grid_csv(d / "q.csv", cfg.k, m, q)
    assert dispatch(["forward-w", "--config", d / "c.json", "--q", d / "q.csv", "--out", d / "w.csv"])[0] == 0
    assert dispatch(["invert", "--config", d / "c.json", "--w", d / "w.csv", "--out", d / "q2.csv",
                     "--kernel-out", d / "g.csv"])[0] == 0
    return cfg, q, d


def test_dense_checks_pass_good_output(dense_run):
    cfg, q, d = dense_run
    fw = wl.check_forward_w(cfg, q, str(d / "w.csv"))
    assert fw.ok and fw.units == 2 * cfg.k * 16, fw.reason
    inv = wl.check_invert(cfg, str(d / "w.csv"), str(d / "q2.csv"), str(d / "g.csv"))
    assert inv.ok and inv.units == 3 * cfg.k * 16, inv.reason
    assert 0 <= inv.error < wl.DENSE_ROUNDTRIP_RTOL


def test_dense_checks_fail_w_off_the_round_trip(dense_run, tmp_path):
    cfg, q, d = dense_run
    bad = str(tmp_path / "w.csv")
    Path(bad).write_text((d / "w.csv").read_text())
    rewrite_grid(bad, lambda w: w + np.where(np.arange(len(w)) == 5, 1e-3, 0))
    assert not wl.check_forward_w(cfg, q, bad).ok
    check = wl.check_invert(cfg, bad, str(d / "q2.csv"), str(d / "g.csv"))
    assert not check.ok and "round-trip" in check.reason


# -- exact ---------------------------------------------------------------------


def test_verify_check_counts_blocks_and_fails_on_a_failure_line():
    kmax, kmax_t1, kmax_fwd = 6, 6, 4
    rc, out = dispatch(["verify", "--kmax", kmax, "--kmax-theorem1", kmax_t1, "--kmax-forward", kmax_fwd])
    assert rc == 0
    check = wl.check_verify(kmax, kmax_t1, kmax_fwd, out)
    assert check.ok, check.reason
    assert check.units == sum(n for _, n in wl.expected_verify_blocks(kmax, kmax_t1, kmax_fwd))
    assert 0 < check.error < 1e-9

    n = dict(wl.expected_verify_blocks(kmax, kmax_t1, kmax_fwd))["theorem-2 matrix reduction"]
    short = out.replace(f"theorem-2 matrix reduction: {n} checks", f"theorem-2 matrix reduction: {n - 1} checks")
    assert short != out and not wl.check_verify(kmax, kmax_t1, kmax_fwd, short).ok
    unfinished = out.replace(f"[verify] all blocks passed (kmax={kmax})\n", "")
    assert not wl.check_verify(kmax, kmax_t1, kmax_fwd, unfinished).ok
    op = wl.Op(["verify"], lambda stdout: wl.check_verify(kmax, kmax_t1, kmax_fwd, stdout))
    failed = run.check_op(op, 4, out, '{"error": {"type": "VerifyFailure"}}', {})
    assert not failed.ok and "exit code 4" in failed.reason


# -- tracer and report ---------------------------------------------------------


def test_tracer_covers_every_binding_and_restores_them():
    originals = {"cli.eigenvalues": cli.eigenvalues, "chebyshev.matmul": chebyshev.matmul}
    load = characteristic.Spectrum.__dict__["load"]
    tr = tracing.Tracer()
    tr.install()
    try:
        assert cli.eigenvalues is characteristic.eigenvalues is not originals["cli.eigenvalues"]
        assert chebyshev.matmul is intlinalg.matmul is not originals["chebyshev.matmul"]
        for mod_name, fns in tracing.TARGETS.items():
            for fn in fns:
                if "." not in fn:
                    assert getattr(sys.modules[f"frozen_spectra.{mod_name}"], fn).__wrapped__
    finally:
        tr.uninstall()
    assert cli.eigenvalues is originals["cli.eigenvalues"]
    assert chebyshev.matmul is originals["chebyshev.matmul"]
    assert characteristic.Spectrum.__dict__["load"] is load


def test_tracer_self_times_and_counts(tmp_path):
    cfg = make_config(1, 0, 1, 3)
    wl.write_config(tmp_path / "c.json", cfg)
    wl.write_grid_csv(tmp_path / "q.csv", cfg.k, 32, wl.sample(COEFFS, cfg.k, 32))
    op = wl.Op([str(a) for a in ["eigs", "--config", tmp_path / "c.json", "--q", tmp_path / "q.csv",
                                 "--count", 5, "--spectrum-out", tmp_path / "s.json"]], lambda _: wl.Check(True))
    tr = tracing.Tracer()
    tr.install()
    try:
        rc, _, _, seconds = run.run_op(op, tr, op_id=7)
    finally:
        tr.uninstall()
    assert rc == 0
    stats = tr.layer_stats({7}, {7: 1.0})
    counts, times = tracing.layer_metrics(stats)
    assert counts["characteristic.eigenvalues.calls"] == 1
    assert counts["characteristic.delta_direct.calls"] >= 3 * 5
    assert counts["characteristic.delta_direct.calls_per_eigenvalue"] == counts["characteristic.delta_direct.calls"] / 5
    assert counts["interval_ops.read_csv.bytes"] == (tmp_path / "q.csv").stat().st_size
    assert counts["characteristic.Spectrum.dump.bytes"] == (tmp_path / "s.json").stat().st_size
    assert all(t >= 0 for t in times.values())
    assert sum(times.values()) <= seconds


def test_tail_has_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and pct == 75.0
    assert run.tail([float(i) for i in range(11)]) == (0.0, 100.0 / 11)


def test_reported_metrics_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == tracing.layer_metric_names() + ["bench.trace_overhead_s"]
    ops = [run.OpRecord(0, i, False, wl.Check(True, 1e-9, 1), 0.1) for i in range(11)]
    assert set(run.end_to_end(ops, 1.0)) == {m["name"] for m in bench["end_to_end"]}
    assert set(bench["paths"]) == {HERE.name}
    assert {w["name"] for w in bench["workloads"]} == set(wl.WORKLOADS)
