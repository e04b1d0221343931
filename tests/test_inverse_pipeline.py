from pathlib import Path

import numpy as np
import pytest

from conftest import smooth_potential
from frozen_spectra import (
    EXAMPLE_CASES,
    GridFunction,
    Spectrum,
    SpectrumMismatchError,
    asymptotic_eigenvalue,
    build_isospectral_potential,
    delta_direct,
    eigenvalues,
    forward_w_direct,
    invert_from_spectrum,
    kernel,
    make_config,
    null_direction,
    quadratic_profile,
    reference_example,
    solve_inverse,
)
from frozen_spectra import characteristic, core_params, inverse_pipeline, main_equation

GOLDEN = Path(__file__).parent / "golden"


def test_quadratic_profile_values():
    for k in (1, 7, 8):
        f = quadratic_profile(k)
        b = 1.0 / k
        assert abs(f(np.array([3 * b / 5]))[0] - 1.0) < 1e-12  # vertex
        assert abs(f(np.array([b]))[0] - 5.0 / 9.0) < 1e-12
        assert abs(f(np.array([1e-9 * b]))[0]) < 1e-6  # -> 0 at the left end
    with pytest.raises(ValueError, match="k must be >= 1"):
        quadratic_profile(0)


def test_supplement_zero_profile_is_identity(rng):
    cfg = make_config(0, 0, 3, 7)
    q0 = GridFunction(7, 16, rng.normal(size=112) + 1j * rng.normal(size=112))
    q = build_isospectral_potential(q0, cfg, np.zeros(16))
    assert np.array_equal(q.values, q0.values)


def test_supplement_is_linear_and_base_independent(rng):
    cfg = make_config(1, 1, 3, 8)
    q0 = GridFunction(8, 16, rng.normal(size=128) + 0j)
    q1 = GridFunction(8, 16, rng.normal(size=128) + 1j * rng.normal(size=128))
    f1 = rng.normal(size=16) + 1j * rng.normal(size=16)
    f2 = rng.normal(size=16)
    # linearity
    s12 = null_direction(cfg, f1 + f2)
    assert np.allclose(s12.values, (null_direction(cfg, f1) + null_direction(cfg, f2)).values)
    # the added supplement does not depend on the base: recovering it by
    # subtraction only adds one rounding step per entry
    d0 = build_isospectral_potential(q0, cfg, f1).values - q0.values
    d1 = build_isospectral_potential(q1, cfg, f1).values - q1.values
    assert np.abs(d0 - d1).max() < 1e-14


def test_nondegenerate_config_is_rejected(rng):
    q0 = GridFunction.zeros(3, 8)
    with pytest.raises(ValueError, match="non-degenerate"):
        build_isospectral_potential(q0, make_config(0, 1, 1, 3), np.zeros(8))


@pytest.mark.parametrize("beta", [0, 1])
def test_isospectral_family_at_a0_is_every_reflected_profile(beta, rng):
    # a = 0 with alpha = 0: the frozen term vanishes, so q0 + f(1 - x) shares q0's spectrum for every f
    q0 = GridFunction(1, 16, rng.normal(size=16) + 1j * rng.normal(size=16))
    f = rng.normal(size=16) + 1j * rng.normal(size=16)
    q = build_isospectral_potential(q0, make_config(0, beta, 0, 1), f)
    assert np.array_equal(q.values, q0.values + f[::-1])
    with pytest.raises(ValueError, match="non-degenerate"):
        build_isospectral_potential(q0, make_config(1, beta, 0, 1), f)


def test_an_isospectral_potential_that_overflows_names_its_grid_point():
    # X = (1, -1, 1) on (0,0,1,3): the huge profile cancels q0 at samples 2 and 6 and overflows it at sample 9
    values = np.zeros(12, dtype=complex)
    values[[2, 6, 9]] = -1.5e308, 1.5e308, 1.5e308
    message = r"^the iso-spectral potential overflows double precision at x=0\.791667$"
    with pytest.raises(ArithmeticError, match=message):
        build_isospectral_potential(GridFunction(3, 4, values), make_config(0, 0, 1, 3), np.full(4, 1.5e308))


def test_isospectral_potential_rejects_a_grid_of_another_k():
    with pytest.raises(ValueError, match="grid has k=4 but config needs k=3"):
        build_isospectral_potential(GridFunction.zeros(4, 8), make_config(0, 0, 1, 3), np.zeros(8))


def test_every_grid_reader_raises_the_one_grid_check(monkeypatch):
    # delta_direct, the main equation and the iso-spectral builder all call core_params.require_grid
    q, cfg = GridFunction.zeros(4, 8), make_config(0, 0, 1, 3)
    readers = {
        "delta_direct": lambda: delta_direct(q, cfg, 1.0),
        "forward_w_direct": lambda: forward_w_direct(q, cfg),
        "solve_inverse": lambda: solve_inverse(q, cfg),
        "build_isospectral_potential": lambda: build_isospectral_potential(q, cfg, np.zeros(8)),
    }
    for name, read in readers.items():
        with pytest.raises(ValueError) as err:
            read()
        assert str(err.value) == "grid has k=4 but config needs k=3", name
    calls = []
    check = core_params.require_grid
    for module in (characteristic, main_equation, inverse_pipeline):
        monkeypatch.setattr(module, "require_grid", lambda f, c: calls.append(f.k) or check(f, c))
    for name, read in readers.items():
        calls.clear()
        with pytest.raises(ValueError):
            read()
        assert calls == [4], name


@pytest.mark.parametrize("case_id", sorted(EXAMPLE_CASES))
def test_reference_tables_match_golden_files(case_id):
    report = reference_example(case_id)
    golden = (GOLDEN / f"example_{case_id}.txt").read_text()
    assert report.table + "\n" == golden


def test_reference_example_details():
    rep = reference_example("I7")
    assert kernel(rep.config).generator == (1, -1, 1, -1, 1, -1, 1)
    assert rep.rows[0] == "f(x) on (0,1/7)"
    rep = reference_example("II")
    assert rep.rows[0] == "-f(1/7-x) on (0,1/7)"
    rep = reference_example("IV")
    assert rep.rows[-1] == "f(x-7/8) on (7/8,1)"
    with pytest.raises(ValueError):
        reference_example("VI")


def test_reference_example_samples_follow_the_table():
    rep = reference_example("III")  # first row: -f(x) on (0,1/7)
    supp = rep.supplement(40)
    f = quadratic_profile(7)
    assert np.allclose(supp.values[:40], -f(supp.midpoints()[:40]))


@pytest.mark.parametrize("case_id", ["I7", "II", "III", "IV"])
def test_isospectrality_of_the_supplement(case_id):
    """The headline property: adding the supplement never moves a single eigenvalue."""
    alpha, beta, j, k = EXAMPLE_CASES[case_id]
    cfg = make_config(alpha, beta, j, k)
    q0 = GridFunction.from_callable(smooth_potential, k, 64)
    q1 = build_isospectral_potential(q0, cfg, quadratic_profile(k))
    assert np.abs(q1.values - q0.values).max() > 0.5  # a genuinely different potential
    s0 = eigenvalues(q0, cfg, 12)
    s1 = eigenvalues(q1, cfg, 12)
    for a, b in zip(s0.eigenvalues, s1.eigenvalues):
        assert abs(a - b) <= 1e-9 * (1 + abs(a))


def test_nondegenerate_rigidity(rng):
    # case (V): perturbing the potential must move some eigenvalue
    cfg = make_config(0, 1, 1, 3)
    q0 = GridFunction.from_callable(smooth_potential, 3, 32)
    s0 = eigenvalues(q0, cfg, 30)
    eps = 1e-3
    for _ in range(10):
        g = GridFunction(3, 32, rng.normal(size=96) + 1j * rng.normal(size=96))
        s1 = eigenvalues(q0 + GridFunction(3, 32, eps * g.values), cfg, 30)
        moved = max(abs(a - b) for a, b in zip(s0.eigenvalues, s1.eigenvalues))
        assert moved > 1e-9


def test_invert_zero_spectrum_gives_zero_potential():
    evs = tuple(complex(asymptotic_eigenvalue(0, 1, n)) for n in range(1, 121))
    sol = invert_from_spectrum(Spectrum(0, 1, evs), make_config(0, 1, 1, 3), 32, 120, 20)
    assert np.abs(sol.particular.values).max() < 1e-8


def test_invert_detects_wrong_asymptotics():
    # eigenvalues follow the (1,1) ladder but the flags claim (0,0)
    evs = tuple(complex(asymptotic_eigenvalue(1, 1, n)) for n in range(1, 61))
    spec = Spectrum(0, 0, evs)
    with pytest.raises(SpectrumMismatchError):
        invert_from_spectrum(spec, make_config(0, 0, 1, 2), 32, 60, 10)


def test_invert_flag_mismatch_is_rejected():
    evs = tuple(complex(asymptotic_eigenvalue(0, 0, n)) for n in range(1, 31))
    with pytest.raises(ValueError):
        invert_from_spectrum(Spectrum(0, 0, evs), make_config(0, 1, 1, 3), 16, 30, 5)


def test_degenerate_pipeline_closed_loop():
    cfg = make_config(0, 0, 1, 2)
    q = GridFunction.from_callable(smooth_potential, 2, 128)
    spec = eigenvalues(q, cfg, 160)
    sol = invert_from_spectrum(spec, cfg, 128, 160, 40)
    assert sol.kernel_generator is not None
    # the recovered representative reproduces the input spectrum
    s2 = eigenvalues(sol.particular, cfg, 20)
    for a, b in zip(spec.eigenvalues[:20], s2.eigenvalues):
        assert abs(a - b) <= 1e-5 * (1 + abs(a))
