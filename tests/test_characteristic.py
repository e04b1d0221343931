import cmath
import math

import numpy as np
import pytest

from conftest import coprime_configs, random_grid, smooth_potential
from frozen_spectra import (
    GridFunction,
    RootConvergenceError,
    Spectrum,
    asymptotic_eigenvalue,
    delta_direct,
    delta_from_spectrum,
    delta_from_w,
    eigenvalues,
    extract_w,
    forward_w_direct,
    make_config,
    zero_potential_delta,
)
from frozen_spectra import characteristic
from frozen_spectra.characteristic import _dksin, _find_root, _kcosm1, _ksin, zero_potential_delta_dlam
from frozen_spectra.cli import _demo_potential, dispatch

PI = math.pi


def _lambda_grid():
    base = np.linspace(-50.0, 2000.0, 40)
    offsets = np.resize([0.0, 23.7, -11.3], 40) * 1j
    return base + offsets


def test_zero_potential_baselines():
    lam_samples = [-30.0, 0.7, 12.0 + 3.0j, 180.0]
    for k in (2, 5):
        q0 = GridFunction.zeros(k, 32)
        for lam in lam_samples:
            rho = cmath.sqrt(lam)
            cases = {
                (0, 0): cmath.sin(rho) / rho,
                (0, 1): cmath.cos(rho),
                (1, 0): -cmath.cos(rho),
                (1, 1): rho * cmath.sin(rho),
            }
            for (a, b), want in cases.items():
                cfg = make_config(a, b, 1, k)
                got = delta_direct(q0, cfg, lam)
                assert abs(got - want) < 1e-12 * (1 + abs(want))
                assert abs(zero_potential_delta(a, b, lam) - want) < 1e-12 * (1 + abs(want))


def test_route_consistency_small_sweep(rng):
    for cfg in coprime_configs(6):
        q = random_grid(cfg.k, 64, rng)
        w = forward_w_direct(q, cfg)
        for lam in (-25.0, 1.3, 7.7 + 2.0j, 400.0, 1500.0 - 9.0j):
            d1 = delta_direct(q, cfg, lam)
            d2 = delta_from_w(w, cfg.alpha, cfg.beta, lam)
            assert abs(d1 - d2) <= 1e-10 * (1 + abs(d1))


def test_eigenvalues_zero_potential():
    q0 = GridFunction.zeros(3, 32)
    s = eigenvalues(q0, make_config(0, 0, 1, 3), 5)
    for n, lam in enumerate(s.eigenvalues, start=1):
        assert abs(lam - (PI * n) ** 2) < 1e-8 * (PI * n) ** 2
    s = eigenvalues(q0, make_config(1, 1, 1, 3), 3)
    assert abs(s.eigenvalues[0]) < 1e-9
    assert abs(s.eigenvalues[1] - PI**2) < 1e-8 * PI**2
    assert abs(s.eigenvalues[2] - 4 * PI**2) < 1e-8 * 4 * PI**2
    s = eigenvalues(q0, make_config(0, 1, 1, 3), 3)
    for n, lam in enumerate(s.eigenvalues, start=1):
        assert abs(lam - ((n - 0.5) * PI) ** 2) < 1e-8 * ((n - 0.5) * PI) ** 2


def test_half_spectrum_degenerates_at_a_half(rng):
    # a = 1/2, (0,0), real potential: every second eigenvalue is pinned
    cfg = make_config(0, 0, 1, 2)
    q = GridFunction(2, 64, rng.normal(size=128).astype(complex))
    s = eigenvalues(q, cfg, 8)
    for n in (2, 4, 6, 8):
        want = (2 * PI * (n // 2)) ** 2
        assert abs(s.eigenvalues[n - 1] - want) < 1e-7 * want


def test_eigenvalue_ordering_and_spectrum_json(tmp_path, rng):
    cfg = make_config(0, 1, 1, 3)
    q = GridFunction.from_callable(smooth_potential, 3, 64)
    s = eigenvalues(q, cfg, 6)
    assert s.count == 6
    # asymptotic order: real parts increase
    reals = [z.real for z in s.eigenvalues]
    assert reals == sorted(reals)
    path = tmp_path / "spec.json"
    s.dump(path)
    assert Spectrum.load(path) == s


@pytest.mark.parametrize("bad", [
    [],
    {"alpha": 2, "beta": 0, "eigenvalues": []},
    {"alpha": "0", "beta": 0, "eigenvalues": []},
    {"alpha": 0, "beta": True, "eigenvalues": []},
    {"alpha": 0, "beta": 1, "eigenvalues": 5},
    {"alpha": 0, "beta": 1, "eigenvalues": [[1.0]]},
    {"alpha": 0, "beta": 1, "eigenvalues": [[1.0, 0.0, 0.0]]},
    {"alpha": 0, "beta": 1, "eigenvalues": [[2.0, 0.0], [1.0, "0"]]},
    {"alpha": 0, "beta": 1, "eigenvalues": [[2.0, 0.0], [1.0, -math.inf]]},
])
def test_spectrum_from_dict_rejects_malformed_input(bad):
    with pytest.raises(ValueError):
        Spectrum.from_dict(bad)


def test_kernel_series_matches_trig_across_threshold():
    # entirety smoke test: the series branch continues the trig branch
    s = np.linspace(0.05, 1.0, 13)
    for rho in (9.9e-4, 1.2e-3, (0.3 + 0.9j) * 1e-3):
        direct_sin = np.sin(rho * s) / rho
        direct_cos = (np.cos(rho * s) - 1.0) / rho**2
        direct_dsin = (s * np.cos(rho * s) - direct_sin) / (2 * rho**2)
        assert np.abs(_ksin(s, rho * 0.999) - direct_sin).max() < 1e-8
        assert np.abs(_kcosm1(s, rho * 0.999) - direct_cos).max() < 1e-8
        assert np.abs(_dksin(s, rho * 0.999) - direct_dsin).max() < 1e-8


def test_delta_smooth_around_rho_zero(rng):
    # no spurious pole at the removable singularity: the symmetric second
    # difference at lambda = 0 scales like h^2, so it must be tiny
    q = random_grid(3, 64, rng)
    for cfg in (make_config(1, 1, 1, 3), make_config(0, 0, 1, 3), make_config(0, 1, 1, 3)):
        h = 1e-6
        mid = delta_direct(q, cfg, 0.0)
        curv = (delta_direct(q, cfg, h) + delta_direct(q, cfg, -h)) / 2 - mid
        assert abs(curv) < 1e-9
        # circle of radius 1e-6 in lambda around the origin stays bounded
        for ang in np.linspace(0, 2 * np.pi, 9):
            val = delta_direct(q, cfg, 1e-6 * np.exp(1j * ang))
            assert abs(val - mid) < 1e-5


def test_branch_choice_is_immaterial(rng):
    q = random_grid(3, 32, rng)
    for cfg in (make_config(0, 0, 1, 3), make_config(1, 0, 1, 3)):
        d_up = delta_direct(q, cfg, complex(-25.0, 0.0))
        d_dn = delta_direct(q, cfg, complex(-25.0, -0.0))
        assert d_up == d_dn  # opposite sqrt branches, identical value
        assert delta_direct(q, cfg, complex(-25.0, 0.0), slope=True) == delta_direct(
            q, cfg, complex(-25.0, -0.0), slope=True
        )


def _richardson_slope(f, lam, d):
    """Central differences at steps d and d/2, extrapolated to O(d^4)."""
    coarse = (f(lam + d) - f(lam - d)) / (2 * d)
    fine = (f(lam + d / 2) - f(lam - d / 2)) / d
    return (4 * fine - coarse) / 3


def test_delta_direct_slope_matches_richardson_difference(rng):
    # real, complex and negative lambda; 2e-6 and 5e-7 sit on either side of
    # |rho| = 1e-3, where the kernels switch between exp and series forms
    lams = (-25.0, -3e-6, 5e-7, 2e-6, 4e-6 + 1e-6j, 7.3 + 2.0j, 400.0, 1500.0 - 9.0j)
    for a in (0, 1):
        for b in (0, 1):
            for j, k in ((1, 3), (2, 5)):
                cfg = make_config(a, b, j, k)
                q = random_grid(k, 64, rng)
                f = lambda z: delta_direct(q, cfg, z)
                for lam in lams:
                    value, slope = delta_direct(q, cfg, lam, slope=True)
                    assert value == f(lam)
                    want = _richardson_slope(f, lam, 1e-3 * (1 + abs(lam)))
                    assert abs(slope - want) <= 1e-7 * abs(want)


def _reference_kernel_sums(values, s, jm, rho, lam, slope):
    """The full-length exp(i rho s) kernel that the blocked _kernel_sums must match above the series threshold."""

    def dot(w, kern):
        return complex(w[:jm] @ kern[:jm]), complex(w[jm:] @ kern[jm:])

    e = np.exp(1j * rho * s)
    inv = 1.0 / e
    ep, em = dot(values, e), dot(values, inv)
    sin_sums = tuple((p - m) / (2j * rho) for p, m in zip(ep, em))
    sums = sin_sums, tuple((p + m) / 2 for p, m in zip(ep, em))
    if not slope:
        return sums, None
    qs = values * s
    sp, sm = dot(qs, e), dot(qs, inv)
    dsin = tuple(((p + m) / 2 - ks) / (2 * lam) for p, m, ks in zip(sp, sm, sin_sums))
    dcos = tuple((m - p) / (4j * rho) for p, m in zip(sp, sm))
    return sums, (dsin, dcos)


def _full_length_kernel(q, jm, rho, lam, slope):
    x = q.midpoints()
    return _reference_kernel_sums(q.values, np.concatenate((x[:jm], 1.0 - x[jm:])), jm, rho, lam, slope)


def _bits(z):
    return z.real.hex(), z.imag.hex()


# (j, k) = (0, 1) and (1, 1) leave the head or the tail empty; m = 1, 7 and 1000
# give grids whose head and reversed tail end in a partial block
@pytest.mark.parametrize("alpha, beta", [(0, 0), (0, 1), (1, 0), (1, 1)])
@pytest.mark.parametrize("j, k", [(0, 1), (1, 1), (2, 5), (3, 8)])
@pytest.mark.parametrize("m", [1, 7, 256, 1000])
def test_blocked_kernel_matches_the_full_length_kernel(alpha, beta, j, k, m, rng, monkeypatch):
    cfg = make_config(alpha, beta, j, k)
    q = random_grid(k, m, rng)
    for lam in (-2500.0, -5e5, 1e7 + 3j, 2500.0 - 40j, 1e4 + 3000j):
        with np.errstate(over="ignore", invalid="ignore"):  # lambda * Delta overflows at -5e5 for (1, 1)
            got = delta_direct(q, cfg, lam, slope=True)
            value = delta_direct(q, cfg, lam)
            with monkeypatch.context() as mp:
                mp.setattr(characteristic, "_kernel_sums", _full_length_kernel)
                want = delta_direct(q, cfg, lam, slope=True)
        assert _bits(value) == _bits(got[0])
        for g, w in zip(got, want):
            assert cmath.isfinite(g) == cmath.isfinite(w)
            if cmath.isfinite(w):
                assert abs(g - w) <= 1e-12 * abs(w)


def test_eigenvalues_take_at_most_four_evaluations_per_root(monkeypatch):
    calls = []
    plain = characteristic.delta_direct

    def counted(*args, **kwargs):
        calls.append(1)
        return plain(*args, **kwargs)

    monkeypatch.setattr(characteristic, "delta_direct", counted)
    cfg = make_config(1, 1, 1, 4)
    q = GridFunction.from_callable(_demo_potential, 4, 256)
    count = 400
    spec = eigenvalues(q, cfg, count)
    assert spec.count == count
    assert len(calls) <= 4 * count


def test_delta_from_spectrum_zero_potential_is_exact():
    for a, b in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        evs = tuple(complex(asymptotic_eigenvalue(a, b, n)) for n in range(1, 61))
        s = Spectrum(a, b, evs)
        for lam in (-17.0, 3.3 + 1.0j, 250.0):
            assert abs(delta_from_spectrum(s, 60, lam) - zero_potential_delta(a, b, lam)) < 1e-10
        # evaluation exactly at a retained zero-potential eigenvalue
        lam0 = asymptotic_eigenvalue(a, b, 3)
        assert abs(delta_from_spectrum(s, 60, lam0) - zero_potential_delta(a, b, lam0)) < 1e-10


def test_delta_from_spectrum_converges_monotonically(rng):
    cfg = make_config(0, 0, 1, 3)
    q = random_grid(3, 64, rng)
    spec = eigenvalues(q, cfg, 200)
    grid = [-20.0, 5.5 + 1j, 77.0, 300.0]
    errs = []
    for n_used in (25, 50, 100, 200):
        worst = 0.0
        for lam in grid:
            dd = delta_direct(q, cfg, lam)
            dp = delta_from_spectrum(spec, n_used, lam)
            worst = max(worst, abs(dd - dp) / (1 + abs(dd)))
        errs.append(worst)
    for lo, hi in zip(errs[1:], errs[:-1]):
        assert lo <= 1.1 * hi
    assert errs[-1] < 1e-5


def test_delta_from_spectrum_at_degenerate_frequency(rng):
    # (0,0), k = 3: lambda = (3 pi)^2 is both a retained asymptote and a
    # true eigenvalue, so the product must evaluate to ~0 there
    cfg = make_config(0, 0, 1, 3)
    q = random_grid(3, 64, rng)
    spec = eigenvalues(q, cfg, 50)
    val = delta_from_spectrum(spec, 50, (3 * PI) ** 2)
    assert abs(val) < 1e-12


def _reference_delta_from_spectrum(spec, n_used, lam):
    """The plain loop over n = 1..N that delta_from_spectrum must match bit for bit."""
    if spec.count < n_used:
        raise ValueError(f"spectrum holds {spec.count} eigenvalues, need {n_used}")
    if n_used < 1:
        raise ValueError("n_used must be >= 1")
    a, b = spec.alpha, spec.beta
    lam = complex(lam)
    lam0 = [asymptotic_eigenvalue(a, b, n) for n in range(1, n_used + 1)]
    hit = min(range(n_used), key=lambda i: abs(lam - lam0[i]))
    if abs(lam - lam0[hit]) <= 1e-9 * (1.0 + abs(lam0[hit])):
        val = -zero_potential_delta_dlam(a, b, lam) * (spec.eigenvalues[hit] - lam)
    else:
        hit = None
        val = zero_potential_delta(a, b, lam)
    for i in range(n_used):
        if i == hit:
            continue
        val *= (spec.eigenvalues[i] - lam) / (lam0[i] - lam)
    return complex(val)


def _probe_lambdas(alpha, beta, n_used, count):
    """Every extract_w frequency up to count, plus the edge cases of the nearest-asymptote search."""
    lam0 = [asymptotic_eigenvalue(alpha, beta, n) for n in range(1, n_used + 1)]
    if alpha == beta:
        lams = [0.0] + [(math.pi * mm) ** 2 for mm in range(1, count + 1)]
    else:
        lams = [0.0] + [((mm - 0.5) * math.pi) ** 2 for mm in range(1, count + 1)]
    lams += [lam0[0] - 5.0, lam0[-1] + 100.0, lam0[-1] * 4.0, 1e20]
    lams += [(lo + hi) / 2 for lo, hi in zip(lam0, lam0[1:])]
    for z in lam0:
        lams += [z * (1 + 5e-10), z * (1 - 5e-10) - 1e-12, z * (1 + 2e-9) + 1e-8, complex(z, 1e-10)]
        lams += [complex(z, 2e5), complex(z + 0.5, -4e5)]
    return lams


@pytest.mark.parametrize("alpha, beta", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_delta_from_spectrum_matches_reference_loop(alpha, beta, rng):
    count = 150
    lam0 = np.array([asymptotic_eigenvalue(alpha, beta, n) for n in range(1, count + 1)])
    evs = lam0 + 3.0 + rng.normal(size=count) + 1j * rng.normal(scale=0.2, size=count)
    spec = Spectrum(alpha, beta, tuple(complex(z) for z in evs))
    for n_used in (1, 2, 37, spec.count):
        lams = _probe_lambdas(alpha, beta, n_used, count)
        got = [delta_from_spectrum(spec, n_used, lam) for lam in lams]
        want = [_reference_delta_from_spectrum(spec, n_used, lam) for lam in lams]
        assert [(z.real.hex(), z.imag.hex()) for z in got] == [(z.real.hex(), z.imag.hex()) for z in want]


@pytest.mark.parametrize("flags", [(0, 0, 2, 5), (0, 1, 1, 3)], ids=["degenerate", "non-degenerate"])
def test_reconstruct_files_match_the_reference_loop(flags, tmp_path, monkeypatch, capsys):
    cfg = make_config(*flags)
    q = GridFunction.from_callable(smooth_potential, cfg.k, 32)
    eigenvalues(q, cfg, 100).dump(tmp_path / "s.json")
    files = {}
    for name, product in (("new", delta_from_spectrum), ("ref", _reference_delta_from_spectrum)):
        monkeypatch.setattr(characteristic, "delta_from_spectrum", product)
        out, ker = tmp_path / f"{name}.q.csv", tmp_path / f"{name}.kernel.csv"
        argv = ["reconstruct", "--alpha", str(cfg.alpha), "--beta", str(cfg.beta), "--j", str(cfg.j),
                "--k", str(cfg.k), "--spectrum", str(tmp_path / "s.json"), "--m", "32", "--n-used", "100",
                "--modes", "25", "--out", str(out), "--kernel-out", str(ker)]
        assert dispatch(argv) == 0, capsys.readouterr().err
        files[name] = [p.read_bytes() if p.exists() else None for p in (out, ker)]
    assert (files["new"][1] is not None) == (cfg.alpha == cfg.beta)
    assert files["new"] == files["ref"]


def test_extract_w_zero_spectrum():
    for a, b in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        evs = tuple(complex(asymptotic_eigenvalue(a, b, n)) for n in range(1, 81))
        w = extract_w(Spectrum(a, b, evs), 12, 2 if (a, b) != (0, 0) else 3, 32)
        assert np.abs(w.values).max() < 1e-10


def test_extract_w_matches_quadrature_coefficients(rng):
    # the m-th extracted coefficient equals the midpoint-quadrature Fourier
    # coefficient of the true W, up to product truncation
    cfg = make_config(0, 1, 1, 3)
    q = GridFunction.from_callable(smooth_potential, 3, 64)
    w_true = forward_w_direct(q, cfg)
    spec = eigenvalues(q, cfg, 240)
    w_hat = extract_w(spec, 12, 3, 64)
    x = w_true.midpoints()
    for mm in (1, 3, 8, 12):
        rho = (mm - 0.5) * PI
        coef_true = w_true.h * np.sum(w_true.values * np.sin(rho * x))
        coef_hat = w_hat.h * np.sum(w_hat.values * np.sin(rho * x))
        assert abs(coef_true - coef_hat) < 2e-4


def test_extract_w_round_trip_error_decreases(rng):
    cfg = make_config(1, 1, 1, 3)
    q = GridFunction.from_callable(smooth_potential, 3, 64)
    w_true = forward_w_direct(q, cfg)
    spec = eigenvalues(q, cfg, 320)
    errs = []
    for n_used, modes in ((40, 10), (160, 40), (320, 80)):
        w_hat = extract_w(Spectrum(cfg.alpha, cfg.beta, spec.eigenvalues[:n_used]), modes, 3, 64)
        errs.append(np.sqrt(np.mean(np.abs(w_hat.values - w_true.values) ** 2)))
    assert errs[2] < errs[1] < errs[0]


def test_extract_w_input_validation():
    evs = tuple(complex(asymptotic_eigenvalue(0, 0, n)) for n in range(1, 11))
    s = Spectrum(0, 0, evs)
    with pytest.raises(ValueError):
        extract_w(s, 11, 2, 16)  # more modes than eigenvalues
    with pytest.raises(ValueError):
        extract_w(s, 0, 2, 16)
    with pytest.raises(ValueError):
        delta_from_spectrum(s, 11, 1.0)


_TEN = Spectrum(0, 0, tuple(complex(asymptotic_eigenvalue(0, 0, n)) for n in range(1, 11)))


@pytest.mark.parametrize("call, match", [
    (lambda: eigenvalues(GridFunction.zeros(3, 8), make_config(0, 0, 1, 3), 0), "count"),
    (lambda: delta_from_spectrum(_TEN, 0, 1.0), "n_used"),
    (lambda: extract_w(_TEN, 4, 1, 4), "alias"),  # modes >= k*m
], ids=["eigenvalues-count-0", "delta-from-spectrum-n-used-0", "extract-w-modes-alias"])
def test_size_arguments_raise_value_error(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_delta_evaluator_modes_agree(rng):
    cfg = make_config(1, 0, 2, 5)
    q = random_grid(5, 64, rng)
    w = forward_w_direct(q, cfg)
    spec = eigenvalues(q, cfg, 150)
    for lam in (-12.0, 4.4 + 0.5j, 95.0):
        d = delta_direct(q, cfg, lam)
        assert abs(delta_from_w(w, cfg.alpha, cfg.beta, lam) - d) < 1e-10 * (1 + abs(d))
        assert abs(delta_from_spectrum(spec, 150, lam) - d) < 1e-5 * (1 + abs(d))


def test_find_root_failure_is_reported():
    with pytest.raises(RootConvergenceError, match="no convergence after 60 iterations"):
        _find_root(lambda z: (1.0 + 0j, 0j), 0.0, index=4)


def test_find_root_stops_on_a_non_finite_residual():
    for bad in ((complex("nan"), 1.0 + 0j), (1.0 + 0j, complex("inf"))):
        calls = []

        def f(z):
            calls.append(z)
            return (1.0 + 0j, 1.0 + 0j) if len(calls) == 1 else bad

        with pytest.raises(RootConvergenceError, match="non-finite"):
            _find_root(f, 5.0, index=2)
        assert len(calls) <= 2


def test_eigenvalues_rejects_misaligned_grid(rng):
    with pytest.raises(ValueError):
        eigenvalues(random_grid(2, 8, rng), make_config(0, 0, 1, 3), 3)
