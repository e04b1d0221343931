import cmath
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
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
    invert_from_spectrum,
    make_config,
    zero_potential_delta,
)
from frozen_spectra import characteristic
from frozen_spectra.characteristic import (
    RHO_SERIES_THRESHOLD,
    _NO_SUMS,
    _boundary_det,
    _find_root,
    _sqrt_lambda,
    _trig_kernels,
)
from frozen_spectra.cli import _demo_potential, dispatch
from frozen_spectra.interval_ops import grid_midpoints, read_csv

PI = math.pi


def _lambda_grid():
    base = np.linspace(-50.0, 2000.0, 40)
    offsets = np.resize([0.0, 23.7, -11.3], 40) * 1j
    return base + offsets


def _delta0_slope(alpha, beta, lam):
    """dDelta_0/dlambda, from the boundary determinant at a = 0 with zero sums."""
    lam = complex(lam)
    return _boundary_det(alpha, beta, 0.0, 0.0, _sqrt_lambda(lam), lam, _NO_SUMS, _NO_SUMS)[1]


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


# complex lambda well below, just below and just above the series threshold |rho| = 1, far above
# it, and at hit points (pi m)^2
@pytest.mark.parametrize("lam", [5e-7 + 3e-7j, -2e-7 + 9e-7j, -8e-7 - 5e-7j, 1.2e-6 - 4e-7j, -3e-6 + 1e-7j,
                                 2.5 + 1.5j, -40.0 + 3.0j, 700.0 - 25.0j] + [(PI * m) ** 2 for m in (1, 2, 3, 10, 40)]
                         + [9.9e-3, 1.01e-2, -1.02e-2 + 1e-3j, 0.99, 1.01, -0.98 + 0.1j])
def test_zero_potential_slope_matches_the_closed_forms(lam):
    rho = cmath.sqrt(lam)
    ks, cs = cmath.sin(rho) / rho, cmath.cos(rho)
    # (cos rho - sin(rho)/rho)/(2 lambda) cancels near lambda = 0, so it is taken at 40 digits
    with mpmath.workdps(40):
        z = mpmath.mpc(lam)
        r = mpmath.sqrt(z)
        slope00 = complex((mpmath.cos(r) - mpmath.sin(r) / r) / (2 * z))
    closed = {(0, 1): -0.5 * ks, (1, 0): 0.5 * ks, (0, 0): slope00, (1, 1): ks + (cs - ks) / 2}
    for (a, b), want in closed.items():
        assert abs(_delta0_slope(a, b, lam) - want) <= 1e-12 * abs(want), (a, b)


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
    {"alpha": 0, "beta": 1, "eigenvalues": [[True, False], [20.0, 0.0]]},
    {"alpha": 0, "beta": 1, "eigenvalues": [[10**400, 0.0], [20.0, 0.0]]},  # too big for a float
])
def test_spectrum_from_dict_rejects_malformed_input(bad):
    with pytest.raises(ValueError):
        Spectrum.from_dict(bad)


def _mp_trig_kernels(s, lam):
    """cos(rho s), sin(rho s)/rho and d/dlambda of sin(rho s)/rho at 40 digits."""
    with mpmath.workdps(40):
        s, lam = mpmath.mpf(s), mpmath.mpc(lam)
        ksin = lambda z: s * mpmath.sinc(mpmath.sqrt(z) * s)
        kernels = mpmath.cos(mpmath.sqrt(lam) * s), ksin(lam), mpmath.diff(ksin, lam)
        return tuple(complex(v) for v in kernels)


def _check_trig_kernels(got, want, s, lam, series):
    """Each kernel within 1e-15 of the 40-digit value: relative, or, where the closed form cancels, of its terms."""
    cs, ks, dks = want
    size = (1.0, abs(ks), abs(dks))
    if not series:
        # (s cos - sin/rho)/(2 lambda) cancels near the threshold
        size = (1.0, abs(ks), (abs(s * cs) + abs(ks)) / abs(2 * lam))
    for name, g, w, sz in zip(("cos", "sin/rho", "d sin/rho"), got, want, size, strict=True):
        assert abs(g - w) <= 1e-15 * sz, (name, s, lam)


def test_kernel_series_matches_trig_across_threshold():
    # the series branch continues the trig branch: |rho| well below, and just below and above 1,
    # against 40 digits on the array and the scalar path
    s = np.linspace(0.05, 1.0, 13)
    for rho in (9.9e-4, 1.2e-3, 0.999, 1.001, 0.3 + 0.9j, 0.3 + 0.96j, -0.995j, 1.005j):
        lam = rho * rho
        series = abs(rho) < RHO_SERIES_THRESHOLD
        array = _trig_kernels(s, _sqrt_lambda(lam), lam)
        for i, x in enumerate(s.tolist()):
            want = _mp_trig_kernels(x, lam)
            _check_trig_kernels([k[i] for k in array], want, x, lam, series)
            _check_trig_kernels(_trig_kernels(x, _sqrt_lambda(lam), lam), want, x, lam, series)


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
    # real, complex and negative lambda; 0.99 and 1.01 sit on either side of
    # |rho| = 1, where the kernels switch between series and exp forms
    lams = (-25.0, -3e-6, 5e-7, 2e-6, 4e-6 + 1e-6j, 9.9e-3, 1.01e-2, -1.02e-2 + 1e-3j, 0.99, 1.01, -0.98 + 0.1j,
            7.3 + 2.0j, 400.0, 1500.0 - 9.0j)
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


def _reference_kernel_sums(values, s, jm, rho, lam):
    """The full-length exp(i rho s) kernel that the blocked _kernel_sums must match above the series threshold."""

    def dot(w, kern):
        return complex(w[:jm] @ kern[:jm]), complex(w[jm:] @ kern[jm:])

    e = np.exp(1j * rho * s)
    inv = 1.0 / e
    ep, em = dot(values, e), dot(values, inv)
    sin_sums = tuple((p - m) / (2j * rho) for p, m in zip(ep, em))
    sums = sin_sums, tuple((p + m) / 2 for p, m in zip(ep, em))
    qs = values * s
    sp, sm = dot(qs, e), dot(qs, inv)
    dsin = tuple(((p + m) / 2 - ks) / (2 * lam) for p, m, ks in zip(sp, sm, sin_sums))
    dcos = tuple((m - p) / (4j * rho) for p, m in zip(sp, sm))
    return sums, (dsin, dcos), tuple(c / lam for c in sums[1])


def _reference_series_sums(values, s, jm, rho, lam):
    """The full-length series kernel over the chop lengths, that the series branch must match below the threshold.

    Its own Taylor sums in t = (rho s)^2, not the library's: sin(rho s)/rho = s sum_n (-1)^n t^n/(2n+1)!
    and d/dlambda of it = s^3 sum_{n>=1} (-1)^n n t^(n-1)/(2n+1)!, to n = 12, and the (0,0) kernel
    (cos(rho s) - 1)/lambda = -2 (sin(rho s/2)/rho)^2.
    """

    def dot(w, kern):
        return complex(w[:jm] @ kern[:jm]), complex(w[jm:] @ kern[jm:])

    def sin_kernel(x):
        return x * sum((-1) ** n / math.factorial(2 * n + 1) * (rho * x) ** (2 * n) for n in range(13))

    t, ksin = (rho * s) ** 2, sin_kernel(s)
    dksin = s**3 * sum((-1) ** n * n / math.factorial(2 * n + 1) * t ** (n - 1) for n in range(1, 13))
    return ((dot(values, ksin), dot(values, np.cos(rho * s))), (dot(values, dksin), dot(values, -0.5 * s * ksin)),
            dot(values, -2 * sin_kernel(s / 2) ** 2))


def _full_length_kernel(q, jm, rho, lam):
    x = q.midpoints()
    reference = _reference_series_sums if abs(rho) < RHO_SERIES_THRESHOLD else _reference_kernel_sums
    return reference(q.values, np.concatenate((x[:jm], 1.0 - x[jm:])), jm, rho, lam)


def _bits(z):
    return z.real.hex(), z.imag.hex()


# (j, k) = (0, 1) and (1, 1) leave the head or the tail empty; m = 1, 7 and 1000
# give grids whose head and reversed tail end in a partial block; the lambdas from
# 0.0 on have |rho| < 1 and take the series branch by angle addition, all but 1.01,
# which sits just above it
@pytest.mark.parametrize("alpha, beta", [(0, 0), (0, 1), (1, 0), (1, 1)])
@pytest.mark.parametrize("j, k", [(0, 1), (1, 1), (2, 5), (3, 8)])
@pytest.mark.parametrize("m", [1, 7, 256, 1000])
def test_blocked_kernel_matches_the_full_length_kernel(alpha, beta, j, k, m, rng, monkeypatch):
    cfg = make_config(alpha, beta, j, k)
    q = random_grid(k, m, rng)
    for lam in (-2500.0, -5e5, 1e7 + 3j, 2500.0 - 40j, 1e4 + 3000j, 0.0, 1e-7, -3e-7 + 1e-7j, 9.9e-7, 1.01e-6,
                -3e-6 + 1e-7j, 1e-4, 9.9e-3, 1.01e-2, -1.02e-2 + 1e-3j, 0.3, 0.99, -0.9 + 0.2j, 1.01):
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


def test_delta_direct_overflows_to_non_finite_values():
    # on (0, 1, 1, 3) the endpoint kernels overflow cmath's range at -3e6 and 5e6j, and only numpy's kernel sums at
    # 2e6j: Delta and its slope are non-finite, never an exception
    q = read_csv(Path(__file__).parent / "fixtures" / "newton_overflow_q.csv")
    cfg = make_config(0, 1, 1, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        for lam in (-3e6, 5e6j, 2e6j):
            value, slope = delta_direct(q, cfg, lam, slope=True)
            assert not cmath.isfinite(value) and not cmath.isfinite(slope)
            assert not cmath.isfinite(delta_direct(q, cfg, lam))


# two potentials on one grid, and two j on one potential: every pair of
# neighbouring cases differs in (q, j * m), the key of the potential-row cache
_CACHE_CASES = """
import numpy as np
from frozen_spectra import GridFunction, delta_direct, make_config
qs = [GridFunction(5, 64, g.normal(size=320) + 1j * g.normal(size=320))
      for g in (np.random.default_rng(1), np.random.default_rng(2))]
cases = [(qs[0], make_config(0, 1, 2, 5)), (qs[1], make_config(0, 1, 2, 5)), (qs[0], make_config(0, 1, 1, 5))]
lams = (400.0, 1500.0 - 9.0j, -2500.0)
"""


def test_potential_row_cache_returns_the_bits_of_a_fresh_process():
    # each case in a process of its own, so nothing it computes is cached from another case
    script = _CACHE_CASES + (
        "import json, sys\n"
        "q, cfg = cases[int(sys.argv[1])]\n"
        "print(json.dumps([[(z.real.hex(), z.imag.hex()) for z in delta_direct(q, cfg, lam, slope=True)]\n"
        "                  for lam in lams]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    procs = [subprocess.Popen([sys.executable, "-c", script, str(c)], env=env, stdout=subprocess.PIPE, text=True)
             for c in range(3)]
    outs = [p.communicate(timeout=60)[0] for p in procs]
    assert [p.returncode for p in procs] == [0, 0, 0]
    fresh = [json.loads(out) for out in outs]
    scope = {}
    exec(_CACHE_CASES, scope)
    cases, lams = scope["cases"], scope["lams"]
    # here the cases alternate, and each repeats its lambdas back to back
    for c in (0, 1, 0, 2, 1, 2, 0):
        q, cfg = cases[c]
        for lam, want in zip(lams, fresh[c]):
            assert [_bits(z) for z in delta_direct(q, cfg, lam, slope=True)] == [tuple(b) for b in want]


def _retained_after(calls):
    """Bytes still allocated after calls() runs under tracemalloc."""
    tracemalloc.start()
    try:
        calls()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_delta_direct_keeps_the_layout_of_the_last_potential_only():
    """delta_direct on 40 grids of distinct shapes, about 90k points each, then on a 3x2 grid, leaves nothing behind."""
    shapes = [(k, 90000 // k + d) for k in range(1, 9) for d in range(5)]
    cfg_of = {k: make_config(0, 1, int(k > 1), k) for k in range(1, 9)}
    small_cfg = make_config(0, 1, 1, 3)
    delta_direct(GridFunction.zeros(3, 2), small_cfg, 50.0)

    def calls():
        for k, m in shapes:
            delta_direct(GridFunction.zeros(k, m), cfg_of[k], 50.0)
        delta_direct(GridFunction.zeros(3, 2), small_cfg, 50.0)

    assert _retained_after(calls) < 100_000


_ENDPOINTS = (1 / 4, 2 / 7, 1 / 3, 3 / 8, 2 / 5, 1 / 2, 3 / 5, 5 / 8, 2 / 3, 5 / 7, 3 / 4, 1.0)


@pytest.mark.parametrize("lam", [1e-7, 9.9e-7, -3e-6 + 1e-7j, 1.01e-6, 2e-6 + 1e-6j, 7.3 + 2.0j, -2500.0,
                                 1e4 + 3000j, 1e7 + 3j, 1e-4, 9.9e-3, 1.01e-2, -1.02e-2 + 1e-3j, 0.05,
                                 0.99, 1.01, -0.98 + 0.1j])
def test_endpoint_terms_match_the_numpy_kernels(lam):
    # the cmath path at one endpoint against the numpy path at all of them; lambda = 1 is the
    # series threshold |rho| = 1, and the endpoints are a and 1 - a of the configs in use
    rho = _sqrt_lambda(lam)
    array = _trig_kernels(np.array(_ENDPOINTS), rho, lam)
    for i, s in enumerate(_ENDPOINTS):
        cs, ks, dks = kernels = _trig_kernels(s, rho, lam)
        assert all(type(v) is complex for v in kernels)
        assert cs == cmath.cos(rho * s)
        want_ks, want_dks = (complex(k[i]) for k in array[1:])
        assert abs(ks - want_ks) <= 1e-15 * abs(want_ks)
        if abs(rho) < RHO_SERIES_THRESHOLD:
            assert abs(dks - want_dks) <= 1e-15 * abs(want_dks)
        else:
            # (s cos(rho s) - sin(rho s)/rho)/(2 lambda) cancels near the threshold, so the
            # agreement is measured against the size of its terms
            assert abs(dks - want_dks) <= 1e-15 * (abs(s * cs) + abs(want_ks)) / abs(2 * lam)


# The four-kernel _trig_kernels and four-row _boundary_det as they stood before the assembly built only
# the two rows the flags select, verbatim but for their names and the series length written out: the oracle
# whose bits the library keeps.
_REFERENCE_SERIES = tuple(
    ((-1) ** n / math.factorial(2 * n + 1), (-1) ** (n + 1) * (n + 1) / math.factorial(2 * n + 3),
     (-1) ** (n + 1) / math.factorial(2 * n + 2))
    for n in range(8 - 1, -1, -1)
)


def _reference_trig_kernels(s, rho, lam):
    """cos(rho s), sin(rho s)/rho, d/dlambda of sin(rho s)/rho and (cos(rho s) - 1)/lambda."""
    trig = np if isinstance(s, np.ndarray) else cmath
    cs = trig.cos(rho * s)
    if abs(rho) >= RHO_SERIES_THRESHOLD:
        ks = trig.sin(rho * s) / rho
        return cs, ks, (s * cs - ks) / (2 * lam), (cs - 1.0) / lam
    t = (rho * s) ** 2
    ks, dks, cm = _REFERENCE_SERIES[0]
    for c_ks, c_dks, c_cm in _REFERENCE_SERIES[1:]:
        ks, dks, cm = ks * t + c_ks, dks * t + c_dks, cm * t + c_cm
    return cs, s * ks, s**3 * dks, s**2 * cm


def _reference_boundary_det(alpha, beta, a, h, rho, lam, sums, dsums=None):
    """All four boundary rows built, the two that (alpha, beta) select kept."""
    isin, icos = sums
    cs0, ks0, dks0, _ = _reference_trig_kernels(a, rho, lam)
    cs1, ks1, dks1, _ = _reference_trig_kernels(1 - a, rho, lam)
    _, ksh, dksh, _ = _reference_trig_kernels(h / 2, rho, lam)
    weight = 2 * ksh  # h sinc(rho h/2): each e^{+-i rho s} integrated exactly over its cell
    c0 = cs0 + weight * isin[0]
    c1 = cs1 + weight * isin[1]
    cp0 = lam * ks0 - weight * icos[0]
    cp1 = -lam * ks1 + weight * icos[1]
    top = (c0, -ks0) if alpha == 0 else (cp0, cs0)
    bot = (c1, ks1) if beta == 0 else (cp1, cs1)
    value = top[0] * bot[1] - top[1] * bot[0]
    if dsums is None:
        return value

    dsin, dcos = dsums
    dweight = 2 * dksh
    dcs0, dcs1 = -0.5 * a * ks0, -0.5 * (1 - a) * ks1
    dc0 = dcs0 + weight * dsin[0] + dweight * isin[0]
    dc1 = dcs1 + weight * dsin[1] + dweight * isin[1]
    dcp0 = ks0 + lam * dks0 - weight * dcos[0] - dweight * icos[0]
    dcp1 = -ks1 - lam * dks1 + weight * dcos[1] + dweight * icos[1]
    dtop = (dc0, -dks0) if alpha == 0 else (dcp0, dcs0)
    dbot = (dc1, dks1) if beta == 0 else (dcp1, dcs1)
    dvalue = dtop[0] * bot[1] + top[0] * dbot[1] - dtop[1] * bot[0] - top[1] * dbot[0]
    return value, dvalue


# (sums, dsums) pairs: the zero sums of Delta_0, sums of signed zeros only, and sums that mix signed
# zeros with finite values
_SIGNED_ZERO_SUMS = [
    (((0.0, 0.0), (0.0, 0.0)), ((0.0, 0.0), (0.0, 0.0))),
    (((-0.0, 0.0), (complex(0.0, -0.0), complex(-0.0, -0.0))),
     ((complex(-0.0, -0.0), -0.0), (complex(-0.0, 0.0), 0.0))),
    (((0.31 - 1.7j, -0.0), (2.5 + 0.4j, complex(-0.0, 0.9))),
     ((complex(-1.1, -0.0), 0.6 - 2.2j), (-0.0, 0.9 + 0.8j))),
    (((-4.2 + 0.5j, 1.3 - 0.2j), (0.0, -2.6 - 3.3j)),
     ((0.7 + 1.9j, complex(0.0, -0.0)), (-1.5 + 0.1j, complex(2.2, -0.0)))),
]
_BITS_LAMBDAS = [0.0, 1e-7, 9.9e-3, 1.01e-2, -1.02e-2 + 1e-3j, 7.3 + 2.0j, -2500.0, 1e4 + 3000j, 1.6e6,
                 complex(-2500.0, -0.0), complex(1e-7, -0.0), complex(7.3, -0.0)]


# a = 0 with zero sums is Delta_0; h = 0 is the weight of Delta_0, 1/768 and 1/7168 the cells of the grids in use
@pytest.mark.parametrize("alpha, beta", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_boundary_det_keeps_the_bits_of_the_four_row_assembly(alpha, beta):
    for a in (0.0, 2 / 7, 1 / 3, 1 / 2):
        for h in (0.0, 1 / 768, 1 / 7168):
            for lam in map(complex, _BITS_LAMBDAS):
                rho = _sqrt_lambda(lam)
                for sums, dsums in _SIGNED_ZERO_SUMS:
                    args = alpha, beta, a, h, rho, lam, sums
                    assert _bits(_boundary_det(*args, dsums)[0]) == _bits(_reference_boundary_det(*args)), (a, h, lam)
                    got, want = _boundary_det(*args, dsums), _reference_boundary_det(*args, dsums)
                    assert [_bits(z) for z in got] == [_bits(z) for z in want], (a, h, lam)


def _mp_delta_from_w(w, alpha, beta, lam):
    """Route 2 for (0,1), (1,0) and (1,1) at 40 digits on the exact midpoints, and the scale of its rounding.

    Returns Delta_0 + h sinc(rho h/2) sum W_i K(x_i), K = sin(rho x)/rho or cos(rho x), and
    |Delta_0| + |h sinc(rho h/2)| sum |W_i K(x_i)|, the size of the terms a float sum adds up.
    """
    with mpmath.workdps(40):
        lam = mpmath.mpc(lam)
        rho = mpmath.sqrt(lam)
        n = w.k * w.m
        x = [mpmath.mpf(2 * t + 1) / (2 * n) for t in range(n)]
        kernel = (lambda s: s * mpmath.sinc(rho * s)) if alpha != beta else (lambda s: mpmath.cos(rho * s))
        terms = [mpmath.mpc(v) * kernel(xt) for v, xt in zip(w.values.tolist(), x)]
        delta0 = (-1) ** alpha * mpmath.cos(rho) if alpha != beta else rho * mpmath.sin(rho)
        weight = mpmath.sinc(rho / (2 * n)) / n
        value = delta0 + weight * mpmath.fsum(terms)
        scale = abs(delta0) + abs(weight) * mpmath.fsum(abs(t) for t in terms)
        return complex(value), float(scale)


# the bit-pin lambdas, 0.99 and 1.01 on both sides of |rho| = 1, and 1e5 + 3j where rho x runs over 50 periods
@pytest.mark.parametrize("alpha, beta", [(0, 1), (1, 0), (1, 1)])
def test_delta_from_w_matches_mpmath_on_the_exact_midpoints(alpha, beta, rng):
    for k, m in ((3, 32), (7, 64)):
        w = random_grid(k, m, rng)
        for lam in map(complex, _BITS_LAMBDAS + [0.99, 1.01, 1e5 + 3j]):
            want, scale = _mp_delta_from_w(w, alpha, beta, lam)
            bound = 4 * np.finfo(float).eps * (1 + abs(_sqrt_lambda(lam))) * scale
            assert abs(delta_from_w(w, alpha, beta, lam) - want) <= bound, (k, m, lam)


def test_route_2_leaves_the_bits_of_route_1(rng):
    """Both routes share the one-entry layout cache, so alternating them lays q and W out again and again."""
    cfg = make_config(0, 1, 2, 5)
    q, w = random_grid(5, 64, rng), random_grid(5, 64, rng)
    lams = [0.0, 1e-7, 9.9e-3, 1.01e-2, -1.02e-2 + 1e-3j, 0.99, 1.01, 7.3 + 2.0j, -2500.0, 1e4 + 3000j]
    flags = ((0, 0), (0, 1), (1, 0), (1, 1))
    alone = [[_bits(z) for z in delta_direct(q, cfg, lam, slope=True)] for lam in lams]
    route2 = [[_bits(delta_from_w(w, a, b, lam)) for a, b in flags] for lam in lams]
    for lam, want, want2 in zip(lams, alone, route2):
        assert [_bits(z) for z in delta_direct(q, cfg, lam, slope=True)] == want, lam
        assert [_bits(delta_from_w(w, a, b, lam)) for a, b in flags] == want2, lam


def test_no_delta_call_builds_a_grid_length_array_after_the_layout():
    """After the first call lays q or W out, a call allocates far less than one n-length complex array (1.8 MB).

    Both routes, every flag pair, and lambdas on both sides of the series threshold |rho| = 1.
    """
    f = GridFunction.zeros(7, 16384)
    for lam in (2500.0 + 40j, -30.0, 1e5 + 3j, 1e-3, 0.3 + 0.2j, -0.9):
        for alpha, beta in ((0, 0), (0, 1), (1, 0), (1, 1)):
            cfg = make_config(alpha, beta, 2, 7)
            for call in (lambda: delta_direct(f, cfg, lam, slope=True), lambda: delta_from_w(f, alpha, beta, lam)):
                call()
                tracemalloc.start()
                try:
                    call()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 200_000, (alpha, beta, lam, call, peak)


def test_delta_from_w_reads_one_kernel_sum_call_for_every_flag_pair(monkeypatch, rng):
    calls = []
    plain = characteristic._kernel_sums

    def counted(*args):
        calls.append(args[1])
        return plain(*args)

    monkeypatch.setattr(characteristic, "_kernel_sums", counted)
    w = random_grid(3, 32, rng)
    for lam in (1e-3, 0.99, 1.01, 2500.0 + 40j):
        for alpha, beta in ((0, 0), (0, 1), (1, 0), (1, 1)):
            calls.clear()
            delta_from_w(w, alpha, beta, lam)
            assert calls == [96], (alpha, beta, lam)


def _mp_delta_direct(q, cfg, lam):
    """Delta of delta_direct's cell rule in mpmath, from the fundamental solutions C, S normalized at a.

    q is constant on each cell of width h = 1/n, so each cell integrates exactly to its midpoint
    value times h sinc(rho h/2).

    It runs at the caller's working precision, so that mpmath.diff can raise it.
    """
    n, jm = q.k * q.m, cfg.j * q.m
    lam = mpmath.mpc(lam)
    rho = mpmath.sqrt(lam)
    a = mpmath.mpf(cfg.j) / cfg.k
    ksin = lambda s: s * mpmath.sinc(rho * s)
    kcos = lambda s: mpmath.cos(rho * s)
    # point t sits at x_t = (t + 1/2)/n: at distance x_t from 0 in the head, 1 - x_t from 1 in the tail
    x = [mpmath.mpf(2 * t + 1) / (2 * n) for t in range(n)]
    s = x[:jm] + [1 - xt for xt in x[jm:]]
    v = [mpmath.mpc(z) for z in q.values.tolist()]
    weight = mpmath.sinc(rho / (2 * n)) / n
    quad = lambda kernel, part: mpmath.fsum(v[t] * kernel(s[t]) for t in part) * weight
    head, tail = range(jm), range(jm, n)
    isin, icos = (quad(ksin, head), quad(ksin, tail)), (quad(kcos, head), quad(kcos, tail))
    # C(0), S(0), C'(0), S'(0) and C(1), S(1), C'(1), S'(1)
    c0, s0, cp0, sp0 = kcos(a) + isin[0], -ksin(a), lam * ksin(a) - icos[0], kcos(a)
    c1, s1, cp1, sp1 = kcos(1 - a) + isin[1], ksin(1 - a), -lam * ksin(1 - a) + icos[1], kcos(1 - a)
    top = (c0, s0) if cfg.alpha == 0 else (cp0, sp0)
    bot = (c1, s1) if cfg.beta == 0 else (cp1, sp1)
    return top[0] * bot[1] - top[1] * bot[0]


# from 1e-4 down, the exp form of the slope would lose four to eight digits to cancellation;
# 0.99 and 1.01 straddle the series threshold |rho| = 1
@pytest.mark.parametrize("alpha, beta", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_delta_direct_slope_matches_mpmath_across_the_series_threshold(alpha, beta, rng):
    cfg = make_config(alpha, beta, 2, 5)
    q = random_grid(5, 32, rng)
    for lam in (1.01e-6, 1e-5, 1e-4, 9.9e-3, 1.01e-2, -1.02e-2 + 1e-3j, 0.05, 0.5, 0.99, 1.01, -0.98 + 0.1j):
        value, slope = delta_direct(q, cfg, lam, slope=True)
        with mpmath.workdps(40):
            want = complex(_mp_delta_direct(q, cfg, lam))
            want_slope = complex(mpmath.diff(lambda z: _mp_delta_direct(q, cfg, z), mpmath.mpc(lam)))
        assert abs(value - want) <= 1e-12 * abs(want), lam
        assert abs(slope - want_slope) <= 1e-12 * abs(want_slope), lam


# the cell rule integrates a piecewise-constant potential exactly, so splitting every cell in four
# (each sample repeated 4 times) changes nothing but rounding; 0, 1e-5 and 0.05 lie on the series
# side of |rho| = 1
@pytest.mark.parametrize("alpha, beta", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_piecewise_constant_potentials_are_integrated_exactly(alpha, beta, rng):
    cfg = make_config(alpha, beta, 2, 5)
    q = random_grid(5, 16, rng)
    fine = GridFunction(5, 64, np.repeat(q.values, 4))
    w, w_fine = forward_w_direct(q, cfg), forward_w_direct(fine, cfg)
    assert np.array_equal(w_fine.values, np.repeat(w.values, 4))
    for lam in (0.0, 1e-5, 0.05, -30.0, 3.7 + 1.0j, 250.0, 2000.0 - 40.0j):
        value, slope = delta_direct(q, cfg, lam, slope=True)
        value_fine, slope_fine = delta_direct(fine, cfg, lam, slope=True)
        assert abs(value_fine - value) <= 1e-12 * abs(value), lam
        assert abs(slope_fine - slope) <= 1e-12 * abs(slope), lam
        route2 = delta_from_w(w, alpha, beta, lam)
        assert abs(delta_from_w(w_fine, alpha, beta, lam) - route2) <= 1e-12 * abs(route2), lam
    roots, roots_fine = (np.array(eigenvalues(g, cfg, 60).eigenvalues) for g in (q, fine))
    assert np.all(np.abs(roots_fine - roots) <= 1e-12 * np.abs(roots))


def _mp_delta_from_w_00(w, lam, mean_term):
    """Route 2 for (0,0) at 40 digits on w's own nodes.

    sin(rho)/rho + h sinc(rho h/2) int W (cos(rho x) - 1)/lambda, plus the mean term int W/lambda when
    mean_term is set; cos x - 1 = -2 sin^2(x/2) has no cancellation.
    """
    with mpmath.workdps(40):
        lam = mpmath.mpc(lam)
        rho = mpmath.sqrt(lam)
        x = [mpmath.mpf(t) for t in w.midpoints().tolist()]
        v = [mpmath.mpc(z) for z in w.values.tolist()]
        integral = mpmath.fsum(vt * -(xt**2 / 2) * mpmath.sinc(rho * xt / 2) ** 2 for vt, xt in zip(v, x))
        if mean_term:
            integral += mpmath.fsum(v) / lam
        n = w.k * w.m
        return complex(mpmath.sinc(rho) + mpmath.sinc(rho / (2 * n)) / n * integral)


# the (0,0) kernel on both sides of |rho| = 1: below it only a zero-mean W is in range and the mean term is
# dropped, above it any W.  Integer samples whose sum is exactly 0 leave no rounding in the mean term, so the
# kernel carries the whole integral; 0.9999 and 1.0001 straddle the threshold, where the blocked
# sum W cos(rho x)/lambda loses about eps/|lambda| to cancellation for a zero-mean W.  At 2000 + 40j,
# Delta_0 and the integral cancel to 2.8e-15 whatever the kernel.
@pytest.mark.parametrize("lam", [1e-7, 1e-3, 9.99e-3, 1.0001e-2, 0.02, 0.9999, 1.0001, 30.0, 2000.0 + 40.0j])
def test_delta_from_w_00_kernel_matches_mpmath_across_the_series_threshold(lam, rng):
    v = rng.integers(-8, 9, 96) + 1j * rng.integers(-8, 9, 96)
    w = GridFunction(3, 32, v.copy())
    v[-1] -= v.sum()
    zero_mean = GridFunction(3, 32, v)
    series = abs(_sqrt_lambda(lam)) < RHO_SERIES_THRESHOLD
    bound = 1e-14 if abs(lam) > 1e3 else 1e-15
    for g in (zero_mean,) if series else (zero_mean, w):
        got, want = delta_from_w(g, 0, 0, lam), _mp_delta_from_w_00(g, lam, not series)
        assert abs(got - want) <= bound * abs(want), lam


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
            assert abs(delta_from_spectrum(s, 60, [lam])[0] - zero_potential_delta(a, b, lam)) < 1e-10
        # evaluation exactly at a retained zero-potential eigenvalue
        lam0 = asymptotic_eigenvalue(a, b, 3)
        assert abs(delta_from_spectrum(s, 60, [lam0])[0] - zero_potential_delta(a, b, lam0)) < 1e-10


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
            dp = delta_from_spectrum(spec, n_used, [lam])[0]
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
    val = delta_from_spectrum(spec, 50, [(3 * PI) ** 2])[0]
    assert abs(val) < 1e-12


def _mp_delta_from_spectrum(spec, n_used, lams):
    """The truncated product at 40 digits from delta_from_spectrum's own coincidence test and start.

    The start, Delta_0(lam) or -Delta_0'(lam) (lambda_n - lam) at a coincident asymptote, is the
    library's in double: near its zeros Delta_0 is conditioned by the rounding of lam, not by the
    product.  Every factor is formed and multiplied at 40 digits, numerators and denominators
    apart, with one division per lambda.
    """
    a, b = spec.alpha, spec.beta
    lam0 = [asymptotic_eigenvalue(a, b, n) for n in range(1, n_used + 1)]
    out = []
    with mpmath.workdps(40):
        evs, asymptotes = [mpmath.mpc(z) for z in spec.eigenvalues[:n_used]], [mpmath.mpf(z) for z in lam0]
        for lam in map(complex, lams):
            hit = min(range(n_used), key=lambda i: abs(lam - lam0[i]))
            if abs(lam - lam0[hit]) <= 1e-9 * (1.0 + abs(lam0[hit])):
                start = -_delta0_slope(a, b, lam) * (spec.eigenvalues[hit] - lam)
            else:
                hit, start = None, zero_potential_delta(a, b, lam)
            z, num, den = mpmath.mpc(lam), mpmath.mpc(start), mpmath.mpf(1)
            for i, (ev, z0) in enumerate(zip(evs, asymptotes)):
                if i != hit:
                    num, den = num * (ev - z), den * (z0 - z)
            out.append(complex(num / den))
    return out


def _assert_relative(got, want, bound, context):
    """|got - want| <= bound |want| wherever want is nonzero and finite."""
    for g, w, c in zip(got, want, context):
        if w != 0 and cmath.isfinite(w):
            assert abs(g - w) <= bound * abs(w), (c, g, w)


def _probe_lambdas(alpha, beta, n_used, count):
    """Every extract_w frequency up to count, plus the edge cases of the nearest-asymptote search."""
    lam0 = [asymptotic_eigenvalue(alpha, beta, n) for n in range(1, n_used + 1)]
    if alpha == beta:
        lams = [0.0] + [(math.pi * mm) ** 2 for mm in range(1, count + 1)]
    else:
        lams = [0.0] + [((mm - 0.5) * math.pi) ** 2 for mm in range(1, count + 1)]
    lams += [lam0[0] - 5.0, lam0[-1] + 100.0, lam0[-1] * 4.0, 1e20]
    lams += [complex(math.nan, 1.0)]  # no bisection point: 0 or N by the search, either way no hit and Delta_0
    lams += [(lo + hi) / 2 for lo, hi in zip(lam0, lam0[1:])]
    for z in lam0:
        lams += [z * (1 + 5e-10), z * (1 - 5e-10) - 1e-12, z * (1 + 2e-9) + 1e-8, complex(z, 1e-10)]
        lams += [complex(z, 2e5), complex(z + 0.5, -4e5)]
    return lams


def _random_spectrum(alpha, beta, count, rng):
    lam0 = np.array([asymptotic_eigenvalue(alpha, beta, n) for n in range(1, count + 1)])
    evs = lam0 + 3.0 + rng.normal(size=count) + 1j * rng.normal(scale=0.2, size=count)
    return Spectrum(alpha, beta, tuple(complex(z) for z in evs))


@pytest.mark.parametrize("alpha, beta", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_delta_from_spectrum_matches_reference_loop(alpha, beta, rng):
    # each lambda alone, and all of them as one list and as one array, in the same bits and within 1e-13
    # of the 40-digit product
    spec = _random_spectrum(alpha, beta, 150, rng)
    for n_used in (1, 2, 37, spec.count):
        lams = _probe_lambdas(alpha, beta, n_used, spec.count)
        batch = delta_from_spectrum(spec, n_used, lams)
        assert type(batch) is list and all(type(z) is complex for z in batch)
        bits = list(map(_bits, batch))
        assert [_bits(delta_from_spectrum(spec, n_used, [lam])[0]) for lam in lams] == bits
        assert list(map(_bits, delta_from_spectrum(spec, n_used, np.array(lams, dtype=complex)))) == bits
        _assert_relative(batch, _mp_delta_from_spectrum(spec, n_used, lams), 1e-13, lams)


@pytest.mark.parametrize("alpha, beta", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_delta_from_spectrum_gives_one_lambda_the_bits_of_any_batch(alpha, beta, rng):
    # an in-place running product rounds a batch of one element differently from a longer batch
    spec = _random_spectrum(alpha, beta, 150, rng)
    lams = _probe_lambdas(alpha, beta, spec.count, spec.count)
    full = list(map(_bits, delta_from_spectrum(spec, spec.count, lams)))
    assert [_bits(delta_from_spectrum(spec, spec.count, [lam])[0]) for lam in lams] == full
    assert [_bits(delta_from_spectrum(spec, spec.count, [lam, 7.0])[0]) for lam in lams] == full


def test_delta_from_spectrum_keeps_no_asymptotes_between_calls():
    """The product at 40 truncations of a 5000-eigenvalue spectrum, then at one, leaves nothing behind."""
    spec = Spectrum(0, 1, tuple(complex(asymptotic_eigenvalue(0, 1, n) + 1.0) for n in range(1, 5001)))
    delta_from_spectrum(spec, 1, [7.0])

    def calls():
        for n_used in range(400, 440):
            delta_from_spectrum(spec, n_used, [7.0])
        delta_from_spectrum(spec, 1, [7.0])

    assert _retained_after(calls) < 100_000


_MP_DELTA_0 = {  # Delta_0 as an entire function of lambda
    (0, 0): lambda z: mpmath.sinc(mpmath.sqrt(z)),
    (0, 1): lambda z: mpmath.cos(mpmath.sqrt(z)),
    (1, 0): lambda z: -mpmath.cos(mpmath.sqrt(z)),
    (1, 1): lambda z: z * mpmath.sinc(mpmath.sqrt(z)),
}


@pytest.mark.parametrize("shift", [0.25, -0.25])
@pytest.mark.parametrize("alpha, beta", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_delta_from_spectrum_is_zero_at_an_eigenvalue_and_skips_the_factor_at_an_asymptote(alpha, beta, shift):
    # eigenvalues shift off their asymptotes, every third one also off the real axis, the others with
    # imaginary parts 0.0 and -0.0 in turn
    count = 60
    evs = tuple(complex(asymptotic_eigenvalue(alpha, beta, n) + shift * (-1) ** n,
                        0.5 * (-1) ** n if n % 3 == 0 else (-1) ** n * 0.0) for n in range(1, count + 1))
    spec = Spectrum(alpha, beta, evs)
    for n_used in (1, 7, count):
        # a zero factor makes the product exactly 0, whatever the sign of a zero imaginary part
        at_evs = list(evs[:n_used]) + [z.conjugate() for z in evs[:n_used] if z.imag == 0.0]
        assert all(z == 0 for z in delta_from_spectrum(spec, n_used, at_evs))
        # at lambda_n^0 the 0/0 pair is -Delta_0'(lambda) (lambda_n - lambda), then the rest of the product
        lam0 = [asymptotic_eigenvalue(alpha, beta, n) for n in range(1, n_used + 1)]
        with mpmath.workdps(40):
            slopes = [complex(mpmath.diff(_MP_DELTA_0[alpha, beta], mpmath.mpf(z))) for z in lam0]
        _assert_relative([_delta0_slope(alpha, beta, z) for z in lam0], slopes, 1e-13, lam0)
        want = _mp_delta_from_spectrum(spec, n_used, lam0)
        assert 0 not in want
        _assert_relative(delta_from_spectrum(spec, n_used, lam0), want, 1e-13, lam0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_delta_from_spectrum_overflows_to_nan_without_a_warning():
    # a spectrum near the top of the double range: at lambda = 1e-300 the product overflows to nan
    spec = Spectrum(0, 1, tuple(complex(asymptotic_eigenvalue(0, 1, n) * 1e150, 1e150) for n in range(1, 41)))
    got = delta_from_spectrum(spec, 40, [1e-300, 1e300, 2.5, complex(1e150, 2.0)])
    assert cmath.isnan(got[0]) and cmath.isfinite(got[1])


def test_delta_from_spectrum_assembles_one_boundary_determinant_per_batch(monkeypatch, rng):
    # every starting value of a batch, Delta_0 or -Delta_0' at a coincident asymptote, comes from one
    # _boundary_det call on arrays; no scalar zero-potential determinant runs
    calls = []

    def counted(*args):
        calls.append(np.shape(args[5]))
        return _boundary_det(*args)

    def scalar(*args):
        raise AssertionError(f"a scalar zero-potential determinant ran at {args}")

    monkeypatch.setattr(characteristic, "_boundary_det", counted)
    monkeypatch.setattr(characteristic, "zero_potential_delta", scalar)
    spec = _random_spectrum(1, 1, 400, rng)
    lams = [0.0] + [(PI * mm) ** 2 for mm in range(1, 101)]  # 101 lambdas, all but the first on asymptotes
    delta_from_spectrum(spec, 400, lams)
    assert calls == [(101,)]
    calls.clear()
    extract_w(spec, 100, 4, 64)
    assert calls == [(101,)]


# the lambdas of the CI step that evaluates Delta on both sides of the series threshold, all but 1.01: there
# numpy and cmath round sin(rho s)/rho at s = 2/7 one ulp apart, which the exp form of its slope, cancelling
# about 36x, makes 7e-15 relative
_THRESHOLD_LAMBDAS = [0, 1e-7, 9.9e-7, 1.01e-6, 9.9e-3, 1.01e-2, -1.02e-2 + 1e-3j, 0.99, -0.98 + 0.1j, -2500,
                      1e4 + 3000j]


def _signs(z):
    return math.copysign(1.0, z.real), math.copysign(1.0, z.imag)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alpha, beta", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_batched_zero_potential_determinant_matches_the_scalar_path(alpha, beta):
    # one array call against one cmath call per lambda, across the series threshold, on the negative axis
    # from either side of the cut, and at 1000 extract_w frequencies: rho on the scalar branch, signed zeros
    # included; the kernels of a mixed batch, and Delta_0 and Delta_0', within 4e-16 relative
    shift = 0.0 if alpha == beta else 0.5
    lams = [complex(z) for z in _THRESHOLD_LAMBDAS] + [complex(-4.0, -0.0), complex(-4.0, 0.0)]
    lams += [complex(((mm - shift) * PI) ** 2) for mm in range(1, 1001)]
    batch = np.array(lams)
    rho = _sqrt_lambda(batch)
    for got, lam in zip(rho.tolist(), lams):
        want = _sqrt_lambda(lam)
        assert _signs(got) == _signs(want) and abs(got - want) <= 2.3e-16 * abs(want), (lam, got, want)
    for s in (2 / 7, 1.0):
        kernels = _trig_kernels(s, rho, batch)
        assert kernels.shape == (3, len(lams))
        for i, lam in enumerate(lams):
            _assert_relative(kernels[:, i].tolist(), _trig_kernels(s, _sqrt_lambda(lam), lam), 4e-16, [(s, lam)] * 3)
    values, slopes = _boundary_det(alpha, beta, 0.0, 0.0, rho, batch, _NO_SUMS, _NO_SUMS)
    _assert_relative(values.tolist(), [zero_potential_delta(alpha, beta, z) for z in lams], 4e-16, lams)
    _assert_relative(slopes.tolist(), [_delta0_slope(alpha, beta, z) for z in lams], 4e-16, lams)


def test_delta_from_spectrum_edge_batches():
    # an empty batch returns an empty list, and a number, a 0-d array or a 2-D lams is refused by its shape
    assert delta_from_spectrum(_TEN, 10, []) == []
    for lams, shape in ((7.0, r"\(\)"), (np.array(7.0), r"\(\)"), ([[1.0, 2.0], [3.0, 4.0]], r"\(2, 2\)")):
        with pytest.raises(ValueError, match=rf"^lams must be a 1-D sequence, got shape {shape}$"):
            delta_from_spectrum(_TEN, 10, lams)


def test_delta_from_spectrum_peak_memory_stays_within_its_tables(rng):
    # 1100 factors at 1001 lambdas; one table of every factor by every lambda would take 17.6 MB
    spec = _random_spectrum(0, 1, 1100, rng)
    lams = [0.0] + [((mm - 0.5) * PI) ** 2 for mm in range(1, 1001)]
    tracemalloc.start()
    try:
        delta_from_spectrum(spec, 1100, lams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000, peak


def test_extract_w_evaluates_the_product_in_one_call(monkeypatch):
    calls = []

    def counted(spec, n_used, lam):
        calls.append(len(lam))
        return delta_from_spectrum(spec, n_used, lam)

    monkeypatch.setattr(characteristic, "delta_from_spectrum", counted)
    for flags, modes in (((1, 1), 12), ((0, 1), 12), ((0, 0), 9)):
        evs = tuple(complex(asymptotic_eigenvalue(*flags, n)) for n in range(1, 41))
        calls.clear()
        extract_w(Spectrum(*flags, evs), modes, 3, 16)
        assert calls == [modes + (flags == (1, 1))]


@pytest.mark.parametrize("flags", [(0, 0, 2, 5), (0, 1, 1, 3), (1, 1, 1, 4)],
                         ids=["degenerate", "non-degenerate", "mean-11"])
def test_reconstruct_files_match_the_reference_loop(flags, tmp_path, monkeypatch, capsys):
    # the written q within 1e-13 of max|q| of the q written with the 40-digit product in its place,
    # and the kernel direction, which does not read the product, byte for byte
    cfg = make_config(*flags)
    q = GridFunction.from_callable(smooth_potential, cfg.k, 32)
    eigenvalues(q, cfg, 100).dump(tmp_path / "s.json")
    files = {}
    for name, product in (("new", delta_from_spectrum), ("ref", _mp_delta_from_spectrum)):
        monkeypatch.setattr(characteristic, "delta_from_spectrum", product)
        out, ker = tmp_path / f"{name}.q.csv", tmp_path / f"{name}.kernel.csv"
        argv = ["reconstruct", "--alpha", str(cfg.alpha), "--beta", str(cfg.beta), "--j", str(cfg.j),
                "--k", str(cfg.k), "--spectrum", str(tmp_path / "s.json"), "--m", "32", "--n-used", "100",
                "--modes", "25", "--out", str(out), "--kernel-out", str(ker)]
        assert dispatch(argv) == 0, capsys.readouterr().err
        files[name] = read_csv(out).values, ker.read_bytes() if ker.exists() else None
    (got, got_kernel), (want, want_kernel) = files["new"], files["ref"]
    assert (got_kernel is not None) == (cfg.alpha == cfg.beta)
    assert got_kernel == want_kernel
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_extract_w_zero_spectrum():
    for a, b in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        evs = tuple(complex(asymptotic_eigenvalue(a, b, n)) for n in range(1, 81))
        w = extract_w(Spectrum(a, b, evs), 12, 2 if (a, b) != (0, 0) else 3, 32)
        assert np.abs(w.values).max() < 1e-10


def _reference_extract_w(spec, modes, k, m):
    """The per-mode synthesis loop that extract_w's one FFT must match to rounding."""
    if modes < 1:
        raise ValueError("modes must be >= 1")
    a, b = spec.alpha, spec.beta
    need = modes + (a + b) // 2
    if spec.count < need:
        raise ValueError(f"need at least {need} eigenvalues for {modes} modes, have {spec.count}")
    x = grid_midpoints(k, m)  # rejects k or m < 1 before the alias check could blame the modes
    if modes >= k * m:
        raise ValueError(f"modes={modes} would alias on a {k}x{m} grid")
    shift, basis = (0.0, np.cos) if a == b else (0.5, np.sin)
    rhos = [(mm - shift) * math.pi for mm in range(1, modes + 1)]
    mean = (a, b) == (1, 1)
    deltas = delta_from_spectrum(spec, spec.count, [0.0] * mean + [rho**2 for rho in rhos])
    w = np.zeros(k * m, dtype=complex)
    if mean:
        w += deltas.pop(0)  # mean of W
    for rho, d in zip(rhos, deltas):
        coef = rho ** (2 - a - b) * d
        w += 2.0 * coef * basis(rho * x)
    return GridFunction(k, m, w)


def _decaying_spectrum(alpha, beta, count, rng):
    """Asymptotes moved by O(1/n), so the W coefficients decay like those of a W with a jump."""
    n = np.arange(1, count + 1)
    lam0 = np.array([asymptotic_eigenvalue(alpha, beta, i) for i in n])
    evs = lam0 + (rng.normal(size=count) + 0.2j * rng.normal(size=count)) / n
    return Spectrum(alpha, beta, tuple(complex(z) for z in evs))


def _synthesis_coefficients(spec, modes):
    """The mean and the c_m = rho_m^(2-alpha-beta) Delta(rho_m^2) that extract_w synthesizes."""
    a, b = spec.alpha, spec.beta
    shift = 0.0 if a == b else 0.5
    rhos = [(mm - shift) * math.pi for mm in range(1, modes + 1)]
    mean = (a, b) == (1, 1)
    deltas = delta_from_spectrum(spec, spec.count, [0.0] * mean + [rho**2 for rho in rhos])
    w_mean = deltas.pop(0) if mean else 0j
    return w_mean, [rho ** (2 - a - b) * d for rho, d in zip(rhos, deltas)]


@pytest.mark.parametrize("k, m", [(3, 32), (5, 19), (4, 320), (1, 1279)], ids=["96", "95", "1280", "1279"])
@pytest.mark.parametrize("alpha, beta", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_extract_w_matches_the_per_mode_loop(alpha, beta, k, m, rng):
    # 1e-14 of sum |2 c_m| for k*m <= 1280; the largest reading here is 4.6e-15
    n = k * m
    spec = _decaying_spectrum(alpha, beta, n + 8, rng)
    for modes in (1, 25, n - 1):
        got = extract_w(spec, modes, k, m)
        want = _reference_extract_w(spec, modes, k, m)
        w_mean, coefs = _synthesis_coefficients(spec, modes)
        scale = sum(2 * abs(c) for c in coefs)
        assert (got.k, got.m) == (k, m)
        assert np.abs(got.values - want.values).max() <= 1e-14 * scale
        if (alpha, beta) == (1, 1):  # the mean is added on the grid, not synthesized
            assert abs(np.mean(got.values) - w_mean) <= 1e-14 * scale
            assert abs(w_mean) > 1e3 * 1e-14 * scale


def _mp_synthesis(spec, modes, n, points):
    """40-digit sum of mean + 2 c_m b(rho_m x_i) at the given points, with exact angles.

    rho_m x_i = pi p (2i + 1)/(4n) with p = 2(m - shift), so each angle is reduced exactly
    in integers before mpmath evaluates it.
    """
    w_mean, coefs = _synthesis_coefficients(spec, modes)
    cos = spec.alpha == spec.beta
    with mpmath.workdps(40):
        table = {}
        out = []
        for i in points:
            re = im = mpmath.mpf(0)
            for mm, c in enumerate(coefs, start=1):
                r = ((2 * mm - (not cos)) * (2 * i + 1)) % (8 * n)
                if r not in table:
                    angle = mpmath.pi * r / (4 * n)
                    table[r] = mpmath.cos(angle) if cos else mpmath.sin(angle)
                re += 2 * mpmath.mpf(c.real) * table[r]
                im += 2 * mpmath.mpf(c.imag) * table[r]
            out.append(complex(re + w_mean.real, im + w_mean.imag))
    return np.array(out), sum(2 * abs(c) for c in coefs)


@pytest.mark.parametrize("k, m, modes, stride", [(3, 32, 40, 1), (4, 320, 1000, 32)], ids=["96-40", "1280-1000"])
@pytest.mark.parametrize("alpha, beta", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_extract_w_matches_mpmath(alpha, beta, k, m, modes, stride, rng):
    # the FFT reads 0.5-2.0e-16 of sum |2 c_m| here and the per-mode loop 5.5e-16 to 3.4e-15,
    # because the loop rounds rho_m x before its cos or sin
    n = k * m
    spec = _decaying_spectrum(alpha, beta, modes + 8, rng)
    points = list(range(0, n, stride)) + [n - 1]
    want, scale = _mp_synthesis(spec, modes, n, points)
    got = extract_w(spec, modes, k, m).values[points]
    assert np.abs(got - want).max() <= 3e-16 * scale


def test_extract_w_names_a_grid_too_large_to_allocate():
    with pytest.raises(ValueError, match=f"a grid with k=3, m={10**19} has {3 * 10**19} points, too many"):
        extract_w(_TEN, 4, 3, 10**19)


@pytest.mark.parametrize("alpha, beta", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_extract_w_matches_quadrature_coefficients(alpha, beta):
    # the m-th extracted coefficient equals the cell-rule Fourier coefficient of the true W, read as
    # constant on each cell, up to product truncation: cos at m pi when alpha = beta, sin at
    # (m - 1/2) pi otherwise
    cfg = make_config(alpha, beta, 1, 3)
    q = GridFunction.from_callable(smooth_potential, 3, 64)
    w_true = forward_w_direct(q, cfg)
    w_hat = extract_w(eigenvalues(q, cfg, 240), 12, 3, 64)
    x = w_true.midpoints()
    shift, basis = (0.0, np.cos) if alpha == beta else (0.5, np.sin)
    for mm in (1, 3, 8, 12):
        rho = (mm - shift) * PI
        coef_true = w_true.h * np.sinc(rho * w_true.h / (2 * PI)) * np.sum(w_true.values * basis(rho * x))
        coef_hat = w_hat.h * np.sum(w_hat.values * basis(rho * x))
        assert abs(coef_true - coef_hat) < 1e-6
    if (alpha, beta) == (1, 1):
        assert abs(w_true.h * np.sum(w_true.values) - w_hat.h * np.sum(w_hat.values)) < 1e-6


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
        delta_from_spectrum(s, 11, [1.0])
    # mode m reads the eigenvalue of index m + (alpha+beta)//2, so (1,1) needs one more than modes
    ten = {flags: Spectrum(*flags, tuple(complex(asymptotic_eigenvalue(*flags, n)) for n in range(1, 11)))
           for flags in ((1, 1), (0, 1))}
    extract_w(ten[1, 1], 9, 2, 16)
    with pytest.raises(ValueError, match="need at least 11 eigenvalues for 10 modes, have 10"):
        extract_w(ten[1, 1], 10, 2, 16)
    extract_w(ten[0, 1], 10, 2, 16)


def test_extract_w_names_the_mode_whose_product_overflows():
    # two eigenvalues at 1.7e308 are finite, but their factors overflow every product; (1,1) reads its mean,
    # mode 0, first
    for flags, mode in (((0, 1), 1), ((1, 1), 0)):
        evs = [complex(asymptotic_eigenvalue(*flags, n)) for n in range(1, 41)]
        evs[5] = evs[6] = complex(1.7e308)
        message = rf"^the product over the spectrum overflows double precision at mode {mode}$"
        with pytest.raises(ArithmeticError, match=message):
            extract_w(Spectrum(*flags, tuple(evs)), 10, 3, 16)


_TEN = Spectrum(0, 0, tuple(complex(asymptotic_eigenvalue(0, 0, n)) for n in range(1, 11)))


# a size is an int or a numpy integer >= 1: a bool or a float is rejected with the message of a size below 1
@pytest.mark.parametrize("call, match", [
    (lambda: eigenvalues(GridFunction.zeros(3, 8), make_config(0, 0, 1, 3), 0), "count"),
    (lambda: eigenvalues(GridFunction.zeros(3, 8), make_config(0, 0, 1, 3), 2.5), "^count must be >= 1$"),
    (lambda: eigenvalues(GridFunction.zeros(3, 8), make_config(0, 0, 1, 3), True), "^count must be >= 1$"),
    (lambda: delta_from_spectrum(_TEN, 0, [1.0]), "n_used"),
    (lambda: delta_from_spectrum(_TEN, 2.5, [1.0]), "^n_used must be >= 1$"),
    (lambda: delta_from_spectrum(_TEN, True, [1.0]), "^n_used must be >= 1$"),
    (lambda: invert_from_spectrum(_TEN, make_config(0, 0, 1, 3), 4, 2.5, 1), "^n_used must be >= 1, got 2.5$"),
    (lambda: invert_from_spectrum(_TEN, make_config(0, 0, 1, 3), 4, True, 1), "^n_used must be >= 1, got True$"),
    (lambda: extract_w(_TEN, 4, 1, 4), "alias"),  # modes >= k*m
    (lambda: extract_w(_TEN, 2.5, 1, 4), "^modes must be >= 1$"),
    (lambda: extract_w(_TEN, True, 1, 4), "^modes must be >= 1$"),
], ids=["eigenvalues-count-0", "eigenvalues-count-float", "eigenvalues-count-bool",
        "delta-from-spectrum-n-used-0", "delta-from-spectrum-n-used-float", "delta-from-spectrum-n-used-bool",
        "invert-from-spectrum-n-used-float", "invert-from-spectrum-n-used-bool",
        "extract-w-modes-alias", "extract-w-modes-float", "extract-w-modes-bool"])
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
        assert abs(delta_from_spectrum(spec, 150, [lam])[0] - d) < 1e-5 * (1 + abs(d))


def test_find_root_raises_at_once_on_a_zero_slope():
    calls = []

    def f(z):
        calls.append(z)
        return 1.0 + 0j, 0j

    with pytest.raises(RootConvergenceError, match=r"^eigenvalue index 4: zero slope at lambda=0j"):
        _find_root(f, 0.0, 1.0, index=4)
    assert calls == [0.0]


def test_find_root_failure_is_reported():
    # a tiny constant slope asks for a step of 1e300, or one that overflows, at every point: each moves the cap
    for slope in (1e-300, 1e-320):
        calls = []

        def f(z):
            calls.append(z)
            return 1.0 + 0j, slope + 0j

        with pytest.raises(RootConvergenceError, match=r"^eigenvalue index 4: no convergence after 60 iterations"):
            _find_root(f, 0.0, 1.0, index=4)
        assert calls == [-float(i) for i in range(61)]


def test_find_root_names_the_index_of_a_step_too_large_for_abs():
    # a finite residual of modulus 2.1e308: abs of it, and of the step fx/1, raises OverflowError in Python
    huge = re.escape("|residual (1.5e+308+1.5e+308j)| overflows at lambda=0j")
    with pytest.raises(RootConvergenceError, match=rf"^eigenvalue index 3: {huge}$"):
        _find_root(lambda z: (complex(1.5e308, 1.5e308), 1 + 0j), 0.0, 1.0, index=3)


def _newton_points(root, cap):
    """Every point _find_root evaluates on f(x) = x - root from 0 with the step cap, the accepted root last."""
    calls = []

    def f(z):
        calls.append(z)
        return z - root, 1.0 + 0j

    assert abs(_find_root(f, 0.0, cap, index=1) - root) <= 1e-15 * abs(root)
    return calls


def test_find_root_caps_a_step_at_its_length_in_newton_direction():
    # Newton asks for 100, so 50 steps move exactly the cap 2, and one more confirms the root
    assert _newton_points(100.0, 2.0) == [2.0 * i for i in range(51)] + [100.0]
    # a complex step keeps its direction: 3 + 4j is the cap 5 towards 30 + 40j
    assert abs(_newton_points(30 + 40j, 5.0)[1] - (3 + 4j)) <= 1e-15 * 5
    # a step within the cap is plain Newton
    assert _newton_points(1.5, 2.0) == [0.0, 1.5, 1.5]


def test_find_root_stops_on_a_non_finite_residual():
    for bad in ((complex("nan"), 1.0 + 0j), (1.0 + 0j, complex("inf"))):
        calls = []

        def f(z):
            calls.append(z)
            return (1.0 + 0j, 1.0 + 0j) if len(calls) == 1 else bad

        with pytest.raises(RootConvergenceError, match="non-finite"):
            _find_root(f, 5.0, 10.0, index=2)
        assert len(calls) <= 2


def test_eigenvalues_rejects_misaligned_grid(rng):
    with pytest.raises(ValueError):
        eigenvalues(random_grid(2, 8, rng), make_config(0, 0, 1, 3), 3)
