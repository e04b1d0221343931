"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are pinned here and, for criteria 1-5, in
`frozen_spectra.identities`, which `verify` runs too; none is loosened at
runtime.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from conftest import coprime_configs, random_grid, smooth_potential
from frozen_spectra import (
    EXAMPLE_CASES,
    GridFunction,
    Kind,
    build_isospectral_potential,
    build_matrix,
    classify,
    delta_direct,
    delta_from_w,
    eigenvalues,
    forward_w_direct,
    forward_w_matrix,
    invert_from_spectrum,
    kernel,
    make_config,
    quadratic_profile,
    reference_example,
    solve_inverse,
    spectrum_closed_form,
)
from frozen_spectra import identities
from frozen_spectra.intlinalg import identity, mat_add, mat_scale, matmul

HERE = Path(__file__).parent
PI = math.pi


def _report(criterion, text):
    print(f"[acceptance] criterion {criterion}: PASS ({text})")


def _lambda_grid():
    base = np.linspace(-50.0, 2000.0, 40)
    offsets = np.resize([0.0, 23.7, -11.3], 40) * 1j
    return base + offsets


def _passed(sweep):
    """Number of checks in an identity sweep, after asserting that none failed."""
    results = list(sweep)
    assert [label for label, ok in results if not ok] == []
    return len(results)


def test_criterion_01_theorem1_exactness():
    t0 = time.monotonic()
    checks = _passed(identities.theorem1(40))
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(1, f"{checks} exact polynomial identities in {elapsed:.2f}s")


def test_criterion_02_theorem2_exactness():
    t0 = time.monotonic()
    checks = _passed(identities.theorem2(24, {}))
    for cfg in coprime_configs(24):
        if cfg.j == 2:
            # the shared j = 2 identity: d A1^{(1,gamma)} A1 - 2 alpha c I
            c = (-1) ** (cfg.beta + 1)
            d = (-1) ** (cfg.alpha + cfg.beta)
            gamma = 1 - cfg.beta if cfg.alpha == 0 else cfg.beta
            prod = matmul(
                build_matrix(make_config(1, gamma, 1, cfg.k)).as_lists(),
                build_matrix(make_config(cfg.alpha, cfg.beta, 1, cfg.k)).as_lists(),
            )
            expected = mat_add(mat_scale(d, prod), mat_scale(-2 * cfg.alpha * c, identity(cfg.k)))
            assert build_matrix(cfg).as_lists() == expected
            checks += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(2, f"{checks} exact matrix identities in {elapsed:.2f}s")


def test_criterion_03_corollaries_1_and_3():
    checks = _passed(identities.corollaries_1_3(40, 24, {}))
    _report(3, f"{checks} exact determinant checks")


def test_criterion_04_lemmas_2_and_3():
    checks = _passed(identities.lemmas_2_3(24, {}))
    for cfg in coprime_configs(24):
        if classify(cfg).kind is Kind.DEGENERATE:
            a = build_matrix(cfg).as_lists()
            assert matmul(a, [[v] for v in kernel(cfg).generator]) == [[0]] * cfg.k
            checks += 1
    # geometric multiplicity one for every closed-form eigenvalue, k <= 20
    for k in range(2, 21):
        for alpha, beta in [(0, 0), (1, 0), (1, 1)]:
            a = np.array(build_matrix(make_config(alpha, beta, 1, k)).as_lists(), dtype=complex)
            for z0 in spectrum_closed_form(k, alpha, beta):
                sv = np.linalg.svd(z0 * np.eye(k) - a, compute_uv=False)
                assert int(np.sum(sv > 1e-6)) == k - 1
                checks += 1
    _report(4, f"{checks} kernel/rank/eigenvector/multiplicity checks")


def test_criterion_05_corollary2_spectra():
    _passed(identities.corollary2(20))
    _report(5, "closed-form spectra matched to 1e-9, (0,1) constant term >= 1")


def test_criterion_06_main_equation_oracle(rng):
    checks = 0
    for cfg in coprime_configs(12):
        for _ in range(20):
            q = random_grid(cfg.k, 8, rng)
            w1 = forward_w_direct(q, cfg)
            w2 = forward_w_matrix(q, cfg)
            assert np.abs(w1.values - w2.values).max() < 1e-14
            checks += 1
        if classify(cfg).kind is Kind.NON_DEGENERATE:
            w = random_grid(cfg.k, 8, rng)
            back = forward_w_direct(solve_inverse(w, cfg).particular, cfg)
            assert np.abs(back.values - w.values).max() < 1e-9
            checks += 1
    _report(6, f"{checks} forward-oracle and round-trip checks")


def test_criterion_07_delta_route_consistency(rng):
    t0 = time.monotonic()
    grid = _lambda_grid()
    checks = 0
    for cfg in coprime_configs(8):
        q = random_grid(cfg.k, 512, rng)
        w = forward_w_direct(q, cfg)
        for lam in grid:
            d1 = delta_direct(q, cfg, lam)
            d2 = delta_from_w(w, cfg.alpha, cfg.beta, lam)
            assert abs(d1 - d2) <= 1e-10 * (1 + abs(d1))
            checks += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(7, f"{checks} two-route evaluations in {elapsed:.1f}s")


def test_criterion_08_degenerate_spectrum_pinning(rng):
    grid = _lambda_grid()
    for k in (2, 3, 5):
        cfg = make_config(0, 0, 1, k)
        q = random_grid(k, 512, rng)
        scale = max(abs(delta_direct(q, cfg, lam)) for lam in grid)
        for n in range(1, 6):
            lam = (PI * k * n) ** 2
            assert abs(delta_direct(q, cfg, lam)) <= 1e-8 * scale
        spec = eigenvalues(q, cfg, 5 * k)
        for n in range(1, 6):
            want = (PI * k * n) ** 2
            assert abs(spec.eigenvalues[k * n - 1] - want) <= 1e-7 * want
    _report(8, "every k-th eigenvalue pinned at (pi k n)^2, k in {2,3,5}")


def test_criterion_09_isospectrality_of_supplements():
    t0 = time.monotonic()
    for case_id in ("I7", "II", "III", "IV"):
        alpha, beta, j, k = EXAMPLE_CASES[case_id]
        cfg = make_config(alpha, beta, j, k)
        q0 = GridFunction.from_callable(smooth_potential, k, 512)
        q1 = build_isospectral_potential(q0, cfg, quadratic_profile(k))
        s0 = eigenvalues(q0, cfg, 30)
        s1 = eigenvalues(q1, cfg, 30)
        for a, b in zip(s0.eigenvalues, s1.eigenvalues):
            assert abs(a - b) <= 1e-6 * (1 + abs(a))
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(9, f"4 cases x 30 eigenvalues unchanged in {elapsed:.1f}s")


def test_criterion_10_golden_tables():
    for case_id in sorted(EXAMPLE_CASES):
        golden = (HERE / "golden" / f"example_{case_id}.txt").read_text()
        assert reference_example(case_id).table + "\n" == golden
    _report(10, "5 symbolic tables byte-identical to the golden files")


def test_criterion_11_full_inverse_pipeline():
    fixture = json.loads((HERE / "fixtures" / "pipeline_bounds.json").read_text())
    fx = fixture["smooth_nondegenerate"]
    cfg = make_config(**fx["config"])
    m = fx["m"]
    q = GridFunction.from_callable(smooth_potential, cfg.k, m)
    spec = eigenvalues(q, cfg, max(fx["n_used"]))
    errs = []
    for n_used, modes in zip(fx["n_used"], fx["modes"]):
        sol = invert_from_spectrum(spec, cfg, m, n_used, modes)
        errs.append(float(np.sqrt(np.mean(np.abs(sol.particular.values - q.values) ** 2))))
    for lo, hi in zip(errs[1:], errs[:-1]):
        assert lo <= 1.1 * hi  # monotone non-increasing with 10% slack
    assert errs[-1] < fx["l2_bound_at_400"]
    _report(11, f"L2 errors {['%.3e' % e for e in errs]} under bound {fx['l2_bound_at_400']}")
