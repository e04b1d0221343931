import cmath

import pytest
from numpy.polynomial.polynomial import polyval

from frozen_spectra import (
    IntPolynomial,
    cheb_T,
    cheb_U,
    imag_scaled_cheb_int,
    matrix_poly_eval,
    scaled_cheb_int,
)
from frozen_spectra import chebyshev, frozen_matrix
from frozen_spectra.core_params import make_config, sign_pair


def cheb_closed_form(kind, n, z):
    """T_n(z) = cos(n theta) and U_n(z) = sin((n+1) theta) / sin(theta), theta = acos z."""
    theta = cmath.acos(z)
    if kind == "T":
        return cmath.cos(n * theta)
    return cmath.sin((n + 1) * theta) / cmath.sin(theta)


def test_base_cases_and_low_degrees():
    assert cheb_T(0).coeffs == (1,)
    assert cheb_T(1).coeffs == (0, 1)
    assert cheb_T(2).coeffs == (-1, 0, 2)
    assert cheb_U(0).coeffs == (1,)
    assert cheb_U(1).coeffs == (0, 2)
    assert cheb_U(2).coeffs == (-1, 0, 4)


def test_parity():
    for n in range(65):
        for poly in (cheb_T(n), cheb_U(n)):
            for i, c in enumerate(poly.coeffs):
                if (i - n) % 2:
                    assert c == 0


def test_pell_identity_exact():
    # T_n^2 - (z^2 - 1) U_{n-1}^2 = 1 as integer polynomials
    z2m1 = IntPolynomial((-1, 0, 1))
    one = IntPolynomial((1,))
    for n in range(1, 41):
        lhs = cheb_T(n) * cheb_T(n) - z2m1 * cheb_U(n - 1) * cheb_U(n - 1)
        assert lhs.coeffs == one.coeffs


def test_scaled_variants():
    assert scaled_cheb_int("T", 2).coeffs == (-2, 0, 1)  # x^2 - 2
    assert scaled_cheb_int("U", 1).coeffs == (0, 1)  # x
    assert scaled_cheb_int("U", 3).coeffs == (0, -2, 0, 1)  # x^3 - 2x
    # construction asserts divisibility internally; sweep must not raise
    for n in range(65):
        scaled_cheb_int("T", n)
        scaled_cheb_int("U", n)
        imag_scaled_cheb_int("T", n)
        imag_scaled_cheb_int("U", n)


def test_rescaling_rejects_an_unknown_kind():
    for fn in (scaled_cheb_int, imag_scaled_cheb_int):
        with pytest.raises(ValueError, match="kind must be 'T' or 'U', got 'V'"):
            fn("V", 3)


def test_rescaling_asserts_parity_and_divisibility(monkeypatch):
    # U_1 replaced by 1 + 2z: divisible by 2^m, but of mixed parity
    monkeypatch.setattr(chebyshev, "cheb_U", lambda n: IntPolynomial((1, 2)))
    assert scaled_cheb_int("U", 1).coeffs == (1, 1)
    with pytest.raises(ArithmeticError, match="imaginary coefficient survived"):
        imag_scaled_cheb_int("U", 1)
    # U_1 replaced by z: z/2 has no integer coefficient
    monkeypatch.setattr(chebyshev, "cheb_U", lambda n: IntPolynomial((0, 1)))
    for fn in (scaled_cheb_int, imag_scaled_cheb_int):
        with pytest.raises(ArithmeticError, match="non-integer coefficient"):
            fn("U", 1)


def test_scaled_variants_evaluate_consistently():
    # p(x) = 2 T_n(x/2) and U_n(x/2) against the trigonometric closed forms
    for n in (0, 1, 3, 8, 15):
        for x in (-1.7, 0.4, 2.9):
            t = 2 * cheb_closed_form("T", n, x / 2)
            u = cheb_closed_form("U", n, x / 2)
            assert abs(polyval(x, scaled_cheb_int("T", n).coeffs) - t) < 1e-9 * (1 + abs(t))
            assert abs(polyval(x, scaled_cheb_int("U", n).coeffs) - u) < 1e-9 * (1 + abs(u))


def test_imag_scaled_variants_evaluate_consistently():
    # i^n U_n(x/2i) and 2 i^n T_n(x/2i) against the closed forms at a complex argument
    for n in (0, 1, 2, 5, 12):
        for x in (-1.3, 0.7, 2.1):
            u = (1j**n) * cheb_closed_form("U", n, x / 2j)
            t = 2 * (1j**n) * cheb_closed_form("T", n, x / 2j)
            assert abs(polyval(x, imag_scaled_cheb_int("U", n).coeffs) - u) < 1e-9 * (1 + abs(u))
            assert abs(polyval(x, imag_scaled_cheb_int("T", n).coeffs) - t) < 1e-9 * (1 + abs(t))


def test_matrix_poly_eval():
    a = [[0, 1], [-1, 0]]
    assert matrix_poly_eval(IntPolynomial((0, 1)), a) == [[0, 1], [-1, 0]]
    zero = [[0, 0], [0, 0]]
    assert matrix_poly_eval(IntPolynomial((-2, 0, 1)), zero) == [[-2, 0], [0, -2]]
    # a^2 = -I, so x^2 - 2 evaluates to -3 I
    assert matrix_poly_eval(IntPolynomial((-2, 0, 1)), a) == [[-3, 0], [0, -3]]
    assert matrix_poly_eval(IntPolynomial(()), a) == zero
    with pytest.raises(ValueError):
        matrix_poly_eval(IntPolynomial((1,)), [[1, 2, 3], [4, 5, 6]])


def test_polynomial_arithmetic_normalization():
    p = IntPolynomial((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert (p - p).coeffs == ()
    assert (IntPolynomial((0, 1)) * IntPolynomial((0, 1))).coeffs == (0, 0, 1)
    # operands of different lengths, either way round
    q = IntPolynomial((5, 0, 0, 7))
    assert (p - q).coeffs == (-4, 2, 0, -7)
    assert (q - p).coeffs == (4, -2, 0, 7)
    assert (q - IntPolynomial((5, 0, 0, 7))).coeffs == ()


def reference_run(z_factor, y0, y1, c, nmax):
    """y_0..y_nmax of y_{n+1} = z_factor z y_n - c y_{n-1} on plain int coefficient lists.

    Entry n is what the per-degree loop returns after n - 1 steps from y_0, y_1.
    """
    out = [list(y0), list(y1)]
    for _ in range(nmax - 1):
        prev, cur = out[-2], out[-1]
        nxt = [0] + [z_factor * a for a in cur]
        for i, a in enumerate(prev):
            nxt[i] -= c * a
        out.append(nxt)
    stripped = []
    for coeffs in out:
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        stripped.append(tuple(coeffs))
    return stripped


NMAX = 200


def test_stored_runs_match_the_per_degree_loop():
    for kind, y1, read in (("T", (0, 1), cheb_T), ("U", (0, 2), cheb_U)):
        ref = reference_run(2, (1,), y1, 1, NMAX)
        assert [read(n).coeffs for n in range(NMAX + 1)] == ref, kind
    for alpha in (0, 1):
        for beta in (0, 1):
            s = sign_pair(make_config(alpha, beta, 1, 2))
            ref = reference_run(1, (1 - s.d,), (-1 - s.c, 1), s.c * s.d, NMAX)
            got = [frozen_matrix.char_poly_j1(k, alpha, beta).coeffs for k in range(2, NMAX + 1)]
            assert got == ref[2:], (alpha, beta)


def test_reading_a_family_in_order_takes_one_step_per_new_entry(monkeypatch):
    built = []
    post_init = IntPolynomial.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(IntPolynomial, "__post_init__", counting_post_init)

    def constructions(run_cache, read, first, last):
        """IntPolynomials built by reading entries first..last in order from a fresh run."""
        run_cache.cache_clear()
        before = len(built)
        for n in range(first, last + 1):
            read(n)
        return len(built) - before

    families = [
        (chebyshev._cheb_run, cheb_T, 0),
        (chebyshev._cheb_run, cheb_U, 0),
        *((frozen_matrix._char_poly_run, lambda k, a=a, b=b: frozen_matrix.char_poly_j1(k, a, b), 2)
          for a in (0, 1) for b in (0, 1)),
    ]
    for run_cache, read, first in families:
        # entries up to 2 cost the run's set-up and one step; each later entry one more step
        upto2 = constructions(run_cache, read, first, 2)
        step = constructions(run_cache, read, first, 3) - upto2
        assert 0 < step <= 3
        assert constructions(run_cache, read, first, 120) == upto2 + (120 - 2) * step
        # a second read of entries already stored builds nothing
        before = len(built)
        for n in range(first, 121):
            read(n)
        assert len(built) == before


def test_negative_indices_are_rejected():
    cheb_T(10), cheb_U(10), frozen_matrix.char_poly_j1(10, 0, 1)  # stored runs are non-empty
    for read in (cheb_T, cheb_U):
        for n in (-1, -5):
            with pytest.raises(ValueError, match="n must be >= 0"):
                read(n)
    for alpha in (0, 1):
        for beta in (0, 1):
            for k in (1, 0, -1):
                with pytest.raises(ValueError, match="needs k >= 2"):
                    frozen_matrix.char_poly_j1(k, alpha, beta)
