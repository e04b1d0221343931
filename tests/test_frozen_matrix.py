import numpy as np
import pytest

from conftest import coprime_configs, match_multisets
from frozen_spectra import (
    FrozenMatrix,
    Kind,
    ProblemConfig,
    build_matrix,
    char_poly_j1,
    char_polys_j1,
    classify,
    det_closed_form,
    det_exact,
    eigvec_j1,
    kernel,
    make_config,
    numeric_spectrum_j1,
    rank,
    reduce_to_j1,
    reductions_j1,
    spectrum_closed_form,
    theorem1_poly,
)
from frozen_spectra.chebyshev import matrix_poly_eval, scaled_cheb_int
from frozen_spectra.intlinalg import bareiss_det, bareiss_rank, identity, mat_add, mat_scale, matmul


def sparse(dense):
    """Sparse rows of a dense integer matrix, as in FrozenMatrix.rows."""
    return tuple(tuple((col, v) for col, v in enumerate(row) if v) for row in dense)


def test_build_matrix_displayed_pattern_3_7():
    a = build_matrix(make_config(0, 0, 3, 7))
    c, d = a.signs.c, a.signs.d
    assert (c, d) == (-1, 1)
    expected = [
        [0, 0, 1, d, 0, 0, 0],
        [0, 1, 0, 0, d, 0, 0],
        [1, 0, 0, 0, 0, d, 0],
        [c, 0, 0, 0, 0, 0, d],
        [0, c, 0, 0, 0, 0, c],
        [0, 0, c, 0, 0, c, 0],
        [0, 0, 0, c, c, 0, 0],
    ]
    assert a.as_lists() == expected


def test_build_matrix_examples():
    a = build_matrix(make_config(0, 1, 1, 4))
    assert a.as_lists() == [[1, -1, 0, 0], [1, 0, -1, 0], [0, 1, 0, -1], [0, 0, 1, 1]]
    for beta in (0, 1):
        single = build_matrix(make_config(1, beta, 0, 1))
        assert single.as_lists() == [[2 * (-1) ** (beta + 1)]]
        assert build_matrix(make_config(0, beta, 0, 1)).as_lists() == [[0]]


def test_build_matrix_has_two_unit_entries_per_row_and_column():
    # every 1 <= j <= k/2, coprime or not: the four families never overlap
    for k in range(2, 25):
        for j in range(1, k // 2 + 1):
            for alpha in (0, 1):
                for beta in (0, 1):
                    a = np.array(build_matrix(make_config(alpha, beta, j, k)).as_lists())
                    assert set(np.abs(a).ravel()) <= {0, 1}
                    nz = a != 0
                    assert (nz.sum(axis=0) == 2).all() and (nz.sum(axis=1) == 2).all(), (alpha, beta, j, k)


def test_build_matrix_rejects_unnormalized():
    with pytest.raises(ValueError):
        build_matrix(make_config(0, 0, 5, 7))


def test_char_poly_examples():
    assert char_poly_j1(3, 0, 0).coeffs == (0, 1, 0, 1)  # z^3 + z
    assert char_poly_j1(2, 1, 1).coeffs == (0, -2, 1)  # z^2 - 2z
    # constant term is (-1)^k det A
    for k in range(2, 15):
        for a in (0, 1):
            for b in (0, 1):
                p = char_poly_j1(k, a, b)
                det = det_exact(build_matrix(make_config(a, b, 1, k)))
                const = p.coeffs[0] if p.coeffs else 0
                assert const == (-1) ** k * det


def test_char_polys_j1_is_det_zi_minus_a():
    # one run per flag pair; p_k(z) = det(zI - A) at k + 1 integer points, by Bareiss
    for alpha in (0, 1):
        for beta in (0, 1):
            for k, p in zip(range(2, 13), char_polys_j1(alpha, beta)):
                a = build_matrix(make_config(alpha, beta, 1, k)).as_lists()
                for z in range(-k // 2, k // 2 + 2):
                    zi_a = [[z * (r == c) - v for c, v in enumerate(row)] for r, row in enumerate(a)]
                    assert p(z) == bareiss_det(zi_a), (alpha, beta, k, z)
                assert p.degree == k and p.coeffs[-1] == 1


def test_det_closed_form_examples():
    for k in (3, 5, 7, 9):
        assert det_closed_form(k, 0, 0) == 0  # c = -1 kills 1 + c
    assert det_closed_form(4, 0, 1) == 2
    assert det_closed_form(2, 1, 1) == 0


@pytest.mark.parametrize("k", range(2, 41))
@pytest.mark.parametrize("alpha,beta", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_theorem1_identity_exact(k, alpha, beta):
    assert char_poly_j1(k, alpha, beta).coeffs == theorem1_poly(k, alpha, beta).coeffs


def test_theorem1_expansions():
    assert theorem1_poly(3, 0, 0).coeffs == (0, 1, 0, 1)
    assert theorem1_poly(2, 1, 1).coeffs == (0, -2, 1)
    # 2 T_k(z/2) has constant term 0 for odd k, +-2 for even k
    for k in range(2, 20):
        const = theorem1_poly(k, 1, 0).coeffs[0] if k % 2 == 0 else 0
        if k % 2:
            assert theorem1_poly(k, 1, 0)(0) == 0
        else:
            assert const in (-2, 2)


def test_spectrum_closed_form_examples():
    s = spectrum_closed_form(3, 0, 0)
    assert match_multisets(s, [0j, 1j, -1j]) < 1e-15
    s = spectrum_closed_form(2, 1, 1)
    assert match_multisets(s, [2.0, 0.0]) < 1e-15
    s = spectrum_closed_form(2, 1, 0)
    assert match_multisets(s, [np.sqrt(2), -np.sqrt(2)]) < 1e-15
    with pytest.raises(ValueError):
        spectrum_closed_form(5, 0, 1)


@pytest.mark.parametrize("alpha,beta", [(0, 0), (1, 0), (1, 1)])
def test_numeric_roots_match_closed_forms(alpha, beta):
    for k in range(2, 21):
        worst = match_multisets(
            numeric_spectrum_j1(k, alpha, beta), spectrum_closed_form(k, alpha, beta)
        )
        assert worst < 1e-9


def test_zero_never_in_01_spectrum():
    for k in range(2, 21):
        assert abs(char_poly_j1(k, 0, 1).coeffs[0]) >= 1


def test_reduce_to_j1_base_case_and_j2_identity():
    # j = 1 reduces to the matrix itself
    for k in (3, 4, 7):
        for a in (0, 1):
            for b in (0, 1):
                cfg = make_config(a, b, 1, k)
                assert reduce_to_j1(cfg) == build_matrix(cfg).rows
    # j = 2: common form d A1^{(1,gamma)} A1^{(alpha,beta)} - 2 alpha c I
    for k in (5, 7, 9, 11):
        for a in (0, 1):
            for b in (0, 1):
                cfg = make_config(a, b, 2, k)
                c = (-1) ** (b + 1)
                d = (-1) ** (a + b)
                gamma = 1 - b if a == 0 else b
                m1 = build_matrix(make_config(1, gamma, 1, k)).as_lists()
                m2 = build_matrix(make_config(a, b, 1, k)).as_lists()
                expected = mat_add(
                    mat_scale(d, matmul(m1, m2)), mat_scale(-2 * a * c, identity(k))
                )
                assert build_matrix(cfg).as_lists() == expected
                assert reduce_to_j1(cfg) == sparse(expected)


def test_reduce_to_j1_full_sweep_k12():
    for cfg in coprime_configs(12):
        assert reduce_to_j1(cfg) == build_matrix(cfg).rows


def test_reduce_to_j1_matches_monomial_horner_k16():
    # the recurrence against the monomial expansion of U_{j-1}(x/2) and 2 T_j(x/2)
    for cfg in coprime_configs(16):
        c = (-1) ** (cfg.beta + 1)
        if cfg.alpha == 0:
            b = build_matrix(make_config(1, 1 - cfg.beta, 1, cfg.k)).as_lists()
            a1 = build_matrix(make_config(0, cfg.beta, 1, cfg.k)).as_lists()
            expected = matmul(matrix_poly_eval(scaled_cheb_int("U", cfg.j - 1), mat_scale(-c, b)), a1)
        else:
            b = build_matrix(make_config(1, cfg.beta, 1, cfg.k)).as_lists()
            expected = mat_scale(c, matrix_poly_eval(scaled_cheb_int("T", cfg.j), mat_scale(c, b)))
        assert reduce_to_j1(cfg) == sparse(expected), cfg


@pytest.mark.parametrize("j", [2, 50])
@pytest.mark.parametrize("alpha,beta", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_reduce_to_j1_large_k(j, alpha, beta):
    cfg = make_config(alpha, beta, j, 101)
    assert reduce_to_j1(cfg) == build_matrix(cfg).rows


@pytest.mark.parametrize("alpha,beta", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_reductions_j1_one_run_serves_every_j_k101(alpha, beta):
    yielded = list(reductions_j1(alpha, beta, 101))
    assert [j for j, _ in yielded] == list(range(1, 51))
    for j, rows in yielded:  # 101 is prime: every j is coprime
        cfg = ProblemConfig(alpha, beta, j, 101)
        assert rows == build_matrix(cfg).rows
        assert reduce_to_j1(cfg) == rows


def test_kernel_vectors():
    assert kernel(make_config(0, 0, 1, 3)).generator == (1, -1, 1)
    assert kernel(make_config(0, 1, 2, 7)).generator == (1, -1, -1, 1, 1, -1, -1)
    assert kernel(make_config(1, 0, 3, 7)).generator == (1, 1, -1, -1, 1, 1, -1)
    assert kernel(make_config(1, 1, 3, 8)).generator == (1, -1, -1, 1, 1, -1, -1, 1)
    nd = kernel(make_config(0, 1, 1, 3))
    assert nd.dimension == 0 and nd.generator == ()


def test_kernel_and_rank_sweep():
    for cfg in coprime_configs(16):
        deg = classify(cfg).kind is Kind.DEGENERATE
        ker = kernel(cfg)
        r = rank(build_matrix(cfg))
        if deg:
            assert ker.dimension == 1
            assert r == cfg.k - 1
        else:
            assert ker.dimension == 0
            assert r == cfg.k


def test_eigvec_examples():
    v = eigvec_j1(0.0, 3, 0, 0)
    assert np.allclose(v, [1, -1, 1])
    for k in (2, 5, 9):
        v = eigvec_j1(2.0, k, 1, 1)
        assert np.allclose(v, np.ones(k))
    v = eigvec_j1(1j, 3, 0, 0)
    assert np.allclose(v, [1, -1 + 1j, -1j])
    with pytest.raises(ValueError):
        eigvec_j1(0.5, 3, 0, 0)  # not an eigenvalue


def test_rank_examples():
    assert rank(build_matrix(make_config(0, 0, 3, 7))) == 6
    assert rank(build_matrix(make_config(0, 1, 1, 3))) == 3


def test_cycle_det_and_rank_match_bareiss():
    j1 = [make_config(a, b, 1, k) for k in range(31, 41) for a in (0, 1) for b in (0, 1)]
    for cfg in coprime_configs(30) + j1:
        a = build_matrix(cfg)
        dense = a.as_lists()
        assert (det_exact(a), rank(a)) == (bareiss_det(dense), bareiss_rank(dense)), cfg
    for alpha in (0, 1):
        for beta in (0, 1):
            a = build_matrix(make_config(alpha, beta, 0, 1))
            assert (det_exact(a), rank(a)) == (bareiss_det(a.as_lists()), bareiss_rank(a.as_lists()))


def test_cycle_det_and_rank_reject_other_patterns():
    a = build_matrix(make_config(0, 1, 2, 5))
    three = (a.rows[0] + ((4, 1),),) + a.rows[1:]  # a third nonzero in row 0
    lone = (((0, 1), (1, 1)), ((1, 1), (2, 1)), ((1, 1), (2, 1)))  # column 0 has one nonzero
    for rows in (three, lone):
        m = FrozenMatrix(a.config, a.signs, rows)
        for fn in (det_exact, rank):
            with pytest.raises(AssertionError):
                fn(m)


def test_zero_eigenvalue_algebraic_multiplicity_observed(capsys):
    # the zero root of the (0,0) characteristic polynomial can be double;
    # record the observed k values instead of asserting a rule
    observed = []
    for k in range(2, 25):
        p = char_poly_j1(k, 0, 0)
        mult = next(i for i, c in enumerate(p.coeffs) if c != 0)
        assert mult in (1, 2)
        if mult == 2:
            observed.append(k)
    print(f"(0,0) zero eigenvalue is algebraically double for k in {observed}")
    assert observed  # the double case does occur
