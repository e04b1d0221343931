import re

import numpy as np
import pytest

from conftest import coprime_configs, random_grid
from frozen_spectra import (
    GridFunction,
    InconsistentSystemError,
    Kind,
    build_matrix,
    classify,
    forward_w_direct,
    forward_w_matrix,
    make_config,
    null_direction,
    read_csv,
    solve_inverse,
)
from frozen_spectra import core_params, frozen_matrix, main_equation
from frozen_spectra.cli import dispatch
from frozen_spectra.interval_ops import q_apply, r_inverse


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


# the forward oracle's cores on a batch of every flag pair of one (j, k), and of the pairs in another order, give each
# row the bits of the public map, its batch of one, on every coprime config of k <= 13 and at a = 0
def test_forward_cores_give_each_row_the_bits_of_the_public_maps(rng):
    groups = {}
    for cfg in coprime_configs(13) + [make_config(alpha, beta, 0, 1) for alpha in (0, 1) for beta in (0, 1)]:
        groups.setdefault((cfg.j, cfg.k), []).append(cfg)
    m = 5
    for (j, k), configs in groups.items():
        for batch in (configs, configs[::-1]):
            pairs = [(cfg.alpha, cfg.beta) for cfg in batch]
            q = rng.normal(size=(len(batch), k * m)) + 1j * rng.normal(size=(len(batch), k * m))
            direct = main_equation._direct_rows(q, pairs, j, m)
            matrix = main_equation._matrix_rows(q, pairs, j, k, m)
            for b, cfg in enumerate(batch):
                g = GridFunction(k, m, q[b])
                assert direct[b].tobytes() == forward_w_direct(g, cfg).values.tobytes(), cfg
                assert matrix[b].tobytes() == forward_w_matrix(g, cfg).values.tobytes(), cfg


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
    a = build_matrix(cfg)
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
    for bad in (np.ones((2, 3)), 5.0):  # a 2-D array or a scalar is no sample row
        message = f"profile must be a 1-D array of samples, got shape {np.shape(bad)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            null_direction(make_config(0, 0, 1, 3), bad)


@pytest.mark.parametrize("alpha, beta", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_null_direction_at_a0_is_the_reflected_profile(alpha, beta, rng):
    # a = 0 with alpha = 0: A = [[0]], X = (1,), and R^{-1}(X f) is f(1 - x); alpha = 1 is regular
    cfg = make_config(alpha, beta, 0, 1)
    f = rng.normal(size=8) + 1j * rng.normal(size=8)
    if alpha:
        with pytest.raises(ValueError, match="non-degenerate"):
            null_direction(cfg, f)
        return
    g = null_direction(cfg, f)
    assert (g.k, g.m) == (1, 8) and np.array_equal(g.values, f[::-1])
    assert np.all(forward_w_direct(g, cfg).values == 0)
    assert np.all(forward_w_matrix(g, cfg).values == 0)


def test_degenerate_inconsistent_w_is_rejected():
    # W = 1 is not attainable for (0,0), a = 1/2: attainable W are odd
    # around x = 1/2, so the residual check must fire
    cfg = make_config(0, 0, 1, 2)
    w = GridFunction.from_callable(lambda x: np.ones_like(x), 2, 16)
    with pytest.raises(InconsistentSystemError):
        solve_inverse(w, cfg)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("flags", [(0, 1, 1, 3), (0, 0, 1, 3)], ids=["regular", "singular"])
def test_a_non_finite_w_is_refused(flags, bad):
    values = np.ones(24, dtype=complex)
    values[5] = bad
    with pytest.raises(ValueError, match="^W holds a NaN or inf sample$"):
        solve_inverse(GridFunction(3, 8, values), make_config(*flags))


@pytest.mark.parametrize("flags", [(0, 1, 1, 3), (0, 0, 1, 3)], ids=["regular", "singular"])
def test_a_solve_that_overflows_names_its_grid_point(flags):
    # a finite W near the largest double overflows once doubled into the right-hand side, without a warning
    values = np.zeros(24, dtype=complex)
    values[5] = 1.7e308
    with pytest.raises(ArithmeticError, match=r"^the solve overflows double precision at grid point t=0\.229167$"):
        solve_inverse(GridFunction(3, 8, values), make_config(*flags))


def test_a_forward_map_that_overflows_names_its_grid_point():
    # q(1-a+x) + d q(1-a-x) reads samples 10 and 5 at W's sample 2; each is finite, their sum is not
    values = np.zeros(12, dtype=complex)
    values[[5, 10]] = 1.5e308
    with pytest.raises(ArithmeticError, match=r"^W overflows double precision at x=0\.208333$"):
        forward_w_direct(GridFunction(3, 4, values), make_config(0, 0, 1, 3))


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


def _dense_solve(w, cfg):
    """The dense solve the cycle walk replaced, as its oracle: LU on a regular A, min-norm lstsq on a singular one.

    Returns the potential's values and lstsq's max-abs residual per grid point, relative to max |rhs|.
    """
    a = build_matrix(cfg)
    rhs = 2.0 * (-1) ** (cfg.alpha * cfg.beta) * q_apply(w)
    if classify(cfg).kind is Kind.DEGENERATE:
        sol = np.linalg.lstsq(a, rhs, rcond=None)[0]
    else:
        sol = np.linalg.solve(a, rhs)
    return r_inverse(sol, cfg.j).values, np.abs(a @ sol - rhs).max(axis=0) / np.abs(rhs).max()


def test_cycle_solve_matches_the_dense_solve(rng):
    kinds = []
    for cfg in coprime_configs(40):
        kinds.append(classify(cfg).kind)
        w = random_grid(cfg.k, 3, rng)
        if kinds[-1] is Kind.DEGENERATE:
            w = forward_w_direct(w, cfg)  # attainable, so lstsq's answer is the min-norm solution
        want, _ = _dense_solve(w, cfg)
        got = solve_inverse(w, cfg).particular.values
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), cfg
    assert (kinds.count(Kind.DEGENERATE), kinds.count(Kind.NON_DEGENERATE)) == (490, 490)


def test_cycle_solve_rejects_what_lstsq_rejects(rng):
    # a random W is unattainable in every degenerate config; the walk's |S|/L is lstsq's max-abs residual
    m = 5
    for cfg in coprime_configs(24):
        if classify(cfg).kind is not Kind.DEGENERATE:
            continue
        w = random_grid(cfg.k, m, rng)
        _, resid = _dense_solve(w, cfg)
        worst = int(np.argmax(resid))
        with pytest.raises(InconsistentSystemError) as err:
            solve_inverse(w, cfg)
        assert str(err.value) == (
            f"W is not attainable: relative residual {resid[worst]:.3e} "
            f"at grid point t={(worst + 0.5) / (cfg.k * m):.6f} exceeds 1.0e-09"
        )
        with pytest.raises(InconsistentSystemError):
            solve_inverse(w, cfg, residual_rtol=0.999 * resid[worst])
        assert solve_inverse(w, cfg, residual_rtol=1.001 * resid[worst]).kernel_generator is not None


def test_cycle_solve_k1_divides_by_the_single_entry(rng):
    for beta in (0, 1):
        cfg = make_config(1, beta, 0, 1)
        w = random_grid(1, 16, rng)
        want, _ = _dense_solve(w, cfg)
        assert np.array_equal(solve_inverse(w, cfg).particular.values, want)


def test_cycle_solve_round_trip_at_k_3999(rng):
    # degenerate (Case II) with a = 1000/3999: the dense A alone would hold 16 million floats
    cfg = make_config(0, 1, 1000, 3999)
    w = forward_w_direct(random_grid(cfg.k, 2, rng), cfg)
    sol = solve_inverse(w, cfg)
    back = forward_w_direct(sol.particular, cfg)
    assert np.abs(back.values - w.values).max() <= 1e-13 * np.abs(w.values).max()
    assert np.all(forward_w_direct(sol.kernel_generator, cfg).values == 0)


def test_invert_and_reconstruct_run_no_dense_solve(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the main equation fell back to a dense solve")

    flags = ["--alpha", "0", "--beta", "0", "--j", "2", "--k", "5"]  # degenerate: both write a kernel file
    w, spectrum = tmp_path / "w.csv", tmp_path / "spectrum.json"
    assert dispatch(["forward-w", *flags, "--q", "demo", "--m", "16", "--out", str(w)]) == 0
    assert dispatch(["eigs", *flags, "--q", "demo", "--m", "64", "--count", "120", "--spectrum-out", str(spectrum)]) == 0
    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    commands = {
        "invert": ["--w", str(w)],
        "reconstruct": ["--spectrum", str(spectrum), "--m", "64", "--n-used", "120", "--modes", "30"],
    }
    for name, inputs in commands.items():
        out, kernel_out = tmp_path / f"{name}_q.csv", tmp_path / f"{name}_kernel.csv"
        assert dispatch([name, *flags, *inputs, "--out", str(out), "--kernel-out", str(kernel_out)]) == 0, name
        assert kernel_out.exists()
    back = forward_w_direct(read_csv(tmp_path / "invert_q.csv"), make_config(0, 0, 2, 5))
    assert np.abs(back.values - read_csv(w).values).max() < 1e-12


def test_solve_inverse_reads_one_orbit_builds_nothing_and_reads_its_own_kernel(rng, monkeypatch):
    orbits = []

    def counted(cfg):
        orbits.append(cfg)
        return frozen_matrix.orbit(cfg)

    def refuse(*args, **kwargs):
        raise AssertionError("solve_inverse built a matrix or decided the kernel a second time")

    monkeypatch.setattr(main_equation, "orbit", counted)
    for module, name in ((main_equation, "_dense"), (frozen_matrix, "build_matrix"), (core_params, "classify"),
                         (core_params, "degenerate"), (frozen_matrix, "kernel"), (main_equation, "kernel"),
                         (main_equation, "null_direction")):
        monkeypatch.setattr(module, name, refuse)
    for cfg, degenerate in ((make_config(1, 1, 3, 8), True), (make_config(0, 1, 3, 7), False),
                            (make_config(1, 0, 0, 1), False), (make_config(1, 1, 0, 1), False)):
        orbits.clear()
        sol = solve_inverse(forward_w_direct(random_grid(cfg.k, 4, rng), cfg), cfg)
        assert orbits == [cfg]
        assert (sol.kernel_generator is not None) == degenerate


def test_solve_inverse_kernel_is_null_direction_of_ones(rng):
    m = 3
    for cfg in coprime_configs(24):
        if classify(cfg).kind is not Kind.DEGENERATE:
            continue
        sol = solve_inverse(forward_w_direct(random_grid(cfg.k, m, rng), cfg), cfg)
        assert np.array_equal(sol.kernel_generator.values, null_direction(cfg, np.ones(m)).values), cfg
