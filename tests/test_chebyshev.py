import math

import numpy as np
import pytest

from frozen_spectra import (
    IntPolynomial,
    cheb_T,
    cheb_U,
    cheb_eval,
    imag_scaled_cheb_int,
    matrix_poly_eval,
    scaled_cheb_int,
)
from frozen_spectra import chebyshev


def test_base_cases_and_low_degrees():
    assert cheb_T(0).coeffs == (1,)
    assert cheb_T(1).coeffs == (0, 1)
    assert cheb_T(2).coeffs == (-1, 0, 2)
    assert cheb_U(0).coeffs == (1,)
    assert cheb_U(1).coeffs == (0, 2)
    assert cheb_U(2).coeffs == (-1, 0, 4)


def test_eval_matches_trig_on_the_interval():
    for n in (0, 1, 2, 5, 11, 20):
        for x in np.linspace(-0.99, 0.99, 17):
            theta = math.acos(x)
            assert abs(cheb_eval("T", n, x) - math.cos(n * theta)) < 1e-12
            assert abs(cheb_eval("U", n, x) - math.sin((n + 1) * theta) / math.sin(theta)) < 1e-11


def test_eval_special_points():
    assert cheb_eval("T", 5, 0.0) == 0
    assert cheb_eval("U", 3, 1.0) == 4  # U_n(1) = n + 1
    # Horner on the exact coefficients is the oracle off the special points
    horner = cheb_T(4)(0.3)
    assert abs(cheb_eval("T", 4, 0.3) - horner) < 1e-14


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
    # p(x) = 2 T_n(x/2) and U_n(x/2) against the float recurrence
    for n in (0, 1, 3, 8, 15):
        for x in (-1.7, 0.4, 2.9):
            t = 2 * cheb_eval("T", n, x / 2)
            u = cheb_eval("U", n, x / 2)
            assert abs(scaled_cheb_int("T", n)(x) - t) < 1e-9 * (1 + abs(t))
            assert abs(scaled_cheb_int("U", n)(x) - u) < 1e-9 * (1 + abs(u))


def test_imag_scaled_variants_evaluate_consistently():
    # i^n U_n(x/2i) and 2 i^n T_n(x/2i) against the complex recurrence
    for n in (0, 1, 2, 5, 12):
        for x in (-1.3, 0.7, 2.1):
            u = (1j**n) * cheb_eval("U", n, x / 2j)
            t = 2 * (1j**n) * cheb_eval("T", n, x / 2j)
            assert abs(imag_scaled_cheb_int("U", n)(x) - u) < 1e-9 * (1 + abs(u))
            assert abs(imag_scaled_cheb_int("T", n)(x) - t) < 1e-9 * (1 + abs(t))


def test_matrix_poly_eval():
    a = [[0, 1], [-1, 0]]
    assert matrix_poly_eval(IntPolynomial((0, 1)), a) == [[0, 1], [-1, 0]]
    zero = [[0, 0], [0, 0]]
    assert matrix_poly_eval(IntPolynomial((-2, 0, 1)), zero) == [[-2, 0], [0, -2]]
    # a^2 = -I, so x^2 - 2 evaluates to -3 I
    assert matrix_poly_eval(IntPolynomial((-2, 0, 1)), a) == [[-3, 0], [0, -3]]
    with pytest.raises(ValueError):
        matrix_poly_eval(IntPolynomial((1,)), [[1, 2, 3], [4, 5, 6]])


def test_polynomial_arithmetic_normalization():
    p = IntPolynomial((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert (p - p).coeffs == ()
    assert (p - p).degree == -1
    assert (IntPolynomial((0, 1)) * IntPolynomial((0, 1))).coeffs == (0, 0, 1)
