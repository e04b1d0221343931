import numpy as np
import pytest

from conftest import coprime_configs, random_grid
from frozen_spectra import (
    GridFunction,
    InconsistentSystemError,
    Kind,
    classify,
    forward_w_direct,
    forward_w_matrix,
    make_config,
    null_direction,
    solve_inverse,
)


def test_constant_potential_three_branches():
    # q = 1, a = 1/3, (0,0) has (c,d) = (-1,1): W = 1, 0, -1 on the thirds
    cfg = make_config(0, 0, 1, 3)
    q = GridFunction.from_callable(lambda x: np.ones_like(x), 3, 16)
    w = forward_w_direct(q, cfg).values
    assert np.allclose(w[:16], 1.0)
    assert np.allclose(w[16:32], 0.0)
    assert np.allclose(w[32:], -1.0)


def test_zero_potential_maps_to_zero():
    for cfg in (make_config(0, 0, 1, 3), make_config(1, 1, 3, 8), make_config(1, 0, 0, 1)):
        w = forward_w_direct(GridFunction.zeros(cfg.k, 8), cfg)
        assert np.all(w.values == 0)


def test_forward_routes_agree(rng):
    for cfg in coprime_configs(9):
        q = random_grid(cfg.k, 12, rng)
        w1 = forward_w_direct(q, cfg)
        w2 = forward_w_matrix(q, cfg)
        assert np.abs(w1.values - w2.values).max() < 1e-14


def test_forward_k1_single_entry_path(rng):
    # a = 0: the 1x1 matrix gives W(x) = -q(1-x) for alpha = 1, W = 0 for alpha = 0
    q = random_grid(1, 16, rng)
    for beta in (0, 1):
        cfg = make_config(1, beta, 0, 1)
        w1 = forward_w_direct(q, cfg)
        w2 = forward_w_matrix(q, cfg)
        assert np.abs(w1.values - w2.values).max() < 1e-14
        assert np.abs(w1.values - (-q.values[::-1])).max() < 1e-14
        cfg0 = make_config(0, beta, 0, 1)
        assert np.abs(forward_w_direct(q, cfg0).values).max() == 0


def test_forward_rejects_misaligned_grid(rng):
    q = random_grid(4, 8, rng)
    with pytest.raises(ValueError):
        forward_w_direct(q, make_config(0, 0, 1, 3))
    with pytest.raises(ValueError):
        forward_w_direct(random_grid(7, 8, rng), make_config(0, 0, 5, 7))


def test_nondegenerate_round_trip(rng):
    cfg = make_config(0, 1, 1, 3)
    q = random_grid(3, 32, rng)
    w = forward_w_direct(q, cfg)
    sol = solve_inverse(w, cfg)
    assert sol.kernel_generator is None
    assert np.abs(sol.particular.values - q.values).max() < 1e-10
    # W -> q -> W for arbitrary W (any W is attainable here)
    w_any = random_grid(3, 32, rng)
    back = forward_w_direct(solve_inverse(w_any, cfg).particular, cfg)
    assert np.abs(back.values - w_any.values).max() < 1e-9


def test_nondegenerate_unique_solution_two_solvers(rng):
    # LU solve vs least squares agree when the matrix is invertible
    from frozen_spectra import build_matrix
    from frozen_spectra.interval_ops import q_apply

    cfg = make_config(1, 0, 1, 4)
    w = forward_w_direct(random_grid(4, 16, rng), cfg)
    a = build_matrix(cfg).as_array(float)
    rhs = 2.0 * q_apply(w)
    lu = np.linalg.solve(a, rhs)
    ls, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    assert np.abs(lu - ls).max() < 1e-10


def test_degenerate_solution_and_kernel(rng):
    cfg = make_config(0, 0, 1, 2)
    q = random_grid(2, 24, rng)
    w = forward_w_direct(q, cfg)
    sol = solve_inverse(w, cfg)
    assert sol.kernel_generator is not None
    # the particular solution reproduces W even though it differs from q
    back = forward_w_direct(sol.particular, cfg)
    assert np.abs(back.values - w.values).max() < 1e-10
    # any multiple of the kernel direction is invisible to the forward map
    for seed in range(3):
        f = np.random.default_rng(seed).normal(size=24) + 0.5j
        supp = null_direction(cfg, f)
        w2 = forward_w_direct(q + supp, cfg)
        assert np.abs(w2.values - w.values).max() < 1e-12


def test_null_direction_maps_to_exactly_zero(rng):
    # every entry of A R(R^{-1}(X f)) is a +-f sample cancelling its partner
    degenerate = 0
    for cfg in coprime_configs(16):
        f = rng.normal(size=8) + 1j * rng.normal(size=8)
        if classify(cfg).kind is Kind.NON_DEGENERATE:
            with pytest.raises(ValueError, match="non-degenerate"):
                null_direction(cfg, f)
            continue
        degenerate += 1
        g = null_direction(cfg, f)
        assert (g.k, g.m) == (cfg.k, 8)
        assert np.all(forward_w_direct(g, cfg).values == 0)
        assert np.all(forward_w_matrix(g, cfg).values == 0)
    assert degenerate == 80


def test_degenerate_inconsistent_w_is_rejected():
    # W = 1 is not attainable for (0,0), a = 1/2: attainable W are odd
    # around x = 1/2, so the residual check must fire
    cfg = make_config(0, 0, 1, 2)
    w = GridFunction.from_callable(lambda x: np.ones_like(x), 2, 16)
    with pytest.raises(InconsistentSystemError):
        solve_inverse(w, cfg)


@pytest.mark.parametrize("rtol", [float("nan"), float("inf"), -1.0])
def test_residual_rtol_must_be_finite_and_non_negative(rtol):
    # a NaN tolerance would accept the unattainable W = 1 above
    w = GridFunction.from_callable(lambda x: np.ones_like(x), 2, 16)
    with pytest.raises(ValueError, match="residual_rtol"):
        solve_inverse(w, make_config(0, 0, 1, 2), residual_rtol=rtol)


def test_k1_round_trip_and_vacuous_case(rng):
    # a = 0 with a Neumann condition at 0 is invertible (1x1 matrix -2 or 2)
    q = random_grid(1, 16, rng)
    for beta in (0, 1):
        cfg = make_config(1, beta, 0, 1)
        w = forward_w_direct(q, cfg)
        sol = solve_inverse(w, cfg)
        assert np.abs(sol.particular.values - q.values).max() < 1e-12
    # with a Dirichlet condition at 0 the problem determines nothing
    with pytest.raises(ValueError, match="determines nothing"):
        solve_inverse(GridFunction.zeros(1, 16), make_config(0, 0, 0, 1))
