import re

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from conftest import coprime_configs
from frozen_spectra import (
    GridFunction,
    Kind,
    ProblemConfig,
    build_matrix,
    char_poly_j1,
    classify,
    det_closed_form,
    det_exact,
    eigvec_j1,
    forward_w_matrix,
    kernel,
    make_config,
    numeric_spectrum_j1,
    rank,
    reduce_to_j1,
    signs,
    solve_inverse,
    spectrum_closed_form,
    theorem1_poly,
)
from frozen_spectra import frozen_matrix, identities
from frozen_spectra.core_params import degenerate
from frozen_spectra.frozen_matrix import KernelDescriptor, kernel_signs, orbit
from frozen_spectra.chebyshev import matrix_poly_eval, scaled_cheb_int, three_term
from frozen_spectra.intlinalg import bareiss_det, bareiss_rank, identity, mat_add, mat_scale, matmul
from dense_oracle import cycle_blocks


def sorted_pairs(cfg):
    """Per row of cfg's matrix, its two (col, value) pairs sorted by column, the fold(i + j) entry first on a tie.

    The rows the walk oracle reads: at a = 0 the one row holds d, then c, so the walk's a-edge is c.
    """
    lc, lv, rc, rv = (x.tolist() for x in frozen_matrix._family(cfg))
    pairs = zip(zip(lc, lv), zip(rc, rv))
    return tuple((left, right) if left[0] < right[0] else (right, left) for left, right in pairs)


def test_build_matrix_displayed_pattern_3_7():
    cfg = make_config(0, 0, 3, 7)
    a = build_matrix(cfg)
    c, d = signs(cfg.alpha, cfg.beta)
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
    assert a.tolist() == expected


def test_build_matrix_examples():
    a = build_matrix(make_config(0, 1, 1, 4))
    assert a.tolist() == [[1, -1, 0, 0], [1, 0, -1, 0], [0, 1, 0, -1], [0, 0, 1, 1]]
    for beta in (0, 1):
        single = build_matrix(make_config(1, beta, 0, 1))
        assert single.tolist() == [[2 * (-1) ** (beta + 1)]]
        assert build_matrix(make_config(0, beta, 0, 1)).tolist() == [[0]]


def test_build_matrix_has_two_unit_entries_per_row_and_column():
    # every 1 <= j <= k/2, coprime or not: the four families never overlap
    for k in range(2, 25):
        for j in range(1, k // 2 + 1):
            for alpha in (0, 1):
                for beta in (0, 1):
                    a = build_matrix(make_config(alpha, beta, j, k))
                    assert set(np.abs(a).ravel()) <= {0, 1}
                    nz = a != 0
                    assert (nz.sum(axis=0) == 2).all() and (nz.sum(axis=1) == 2).all(), (alpha, beta, j, k)


def test_build_matrix_rejects_unnormalized():
    with pytest.raises(ValueError):
        build_matrix(make_config(0, 0, 5, 7))


# every dense matrix is built by one builder, which names a k whose matrix the allocator refuses (10^12 entries)
def test_a_dense_matrix_too_large_to_allocate_is_named():
    cfg = make_config(0, 1, 1, 10**6)
    builders = (
        lambda: build_matrix(cfg),
        lambda: forward_w_matrix(GridFunction.zeros(cfg.k, 1), cfg),
        lambda: numeric_spectrum_j1(cfg.k, 0, 1),
    )
    for build in builders:
        with pytest.raises(ValueError, match=r"^a dense matrix with k=1000000 has 1000000000000 entries, too many to"):
            build()


def test_char_poly_examples():
    assert char_poly_j1(3, 0, 0).coeffs == (0, 1, 0, 1)  # z^3 + z
    assert char_poly_j1(2, 1, 1).coeffs == (0, -2, 1)  # z^2 - 2z
    # constant term is (-1)^k det A
    for k in range(2, 15):
        for a in (0, 1):
            for b in (0, 1):
                p = char_poly_j1(k, a, b)
                det = det_exact(make_config(a, b, 1, k))
                const = p.coeffs[0] if p.coeffs else 0
                assert const == (-1) ** k * det


def test_char_poly_j1_is_det_zi_minus_a():
    # p_k(z) = det(zI - A) at k + 1 integer points, by Bareiss
    for alpha in (0, 1):
        for beta in (0, 1):
            for k in range(2, 13):
                p = char_poly_j1(k, alpha, beta)
                a = build_matrix(make_config(alpha, beta, 1, k)).tolist()
                for z in range(-k // 2, k // 2 + 2):
                    zi_a = [[z * (r == c) - v for c, v in enumerate(row)] for r, row in enumerate(a)]
                    assert polyval(z, np.array(p.coeffs, dtype=object)) == bareiss_det(zi_a), (alpha, beta, k, z)
                assert len(p.coeffs) - 1 == k and p.coeffs[-1] == 1


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
        const = theorem1_poly(k, 1, 0).coeffs[0]
        assert const in ((0,) if k % 2 else (-2, 2))


def test_spectrum_closed_form_examples():
    s = spectrum_closed_form(3, 0, 0)
    assert identities.greedy_matches([s], [[0j, 1j, -1j]])[0] < 1e-15
    s = spectrum_closed_form(2, 1, 1)
    assert identities.greedy_matches([s], [[2.0, 0.0]])[0] < 1e-15
    s = spectrum_closed_form(2, 1, 0)
    assert identities.greedy_matches([s], [[np.sqrt(2), -np.sqrt(2)]])[0] < 1e-15
    with pytest.raises(ValueError):
        spectrum_closed_form(5, 0, 1)


# up to k = 200, where the char poly's monomial coefficients reach 6e40: roots taken from them miss by O(1)
@pytest.mark.parametrize("alpha,beta", [(0, 0), (1, 0), (1, 1)])
def test_numeric_roots_match_closed_forms(alpha, beta):
    for k in list(range(2, 41)) + [60, 120, 200]:
        worst = identities.greedy_matches(
            [numeric_spectrum_j1(k, alpha, beta)], [spectrum_closed_form(k, alpha, beta)]
        )[0]
        assert worst < 1e-12, k


_01_KS = list(range(2, 41)) + [60, 120]


def test_zero_never_in_01_spectrum():
    for k in range(2, 21):
        assert abs(char_poly_j1(k, 0, 1).coeffs[0]) >= 1
    for k in _01_KS:
        assert 0j not in numeric_spectrum_j1(k, 0, 1), k


def test_01_eigenvalues_pass_the_lemma2_residual():
    # (0,1) has no closed form: Lemma 2's vector, built without LAPACK, certifies each eigenvalue
    for k in _01_KS:
        spectrum = numeric_spectrum_j1(k, 0, 1)
        assert len(spectrum) == k
        for z0 in spectrum:
            eigvec_j1([z0], k, 0, 1)  # ValueError unless the residual is within 1e-9


def test_00_spectrum_holds_the_exact_zeros_of_the_char_poly():
    # the even-k double zero is a Jordan block, which LAPACK alone returns as a pair near +-1e-8
    for k in range(2, 201):
        mult = next(i for i, c in enumerate(char_poly_j1(k, 0, 0).coeffs) if c != 0)
        assert numeric_spectrum_j1(k, 0, 0).count(0j) == mult, k


def test_reduce_to_j1_base_case_and_j2_identity():
    # j = 1 reduces to the matrix itself
    for k in (3, 4, 7):
        for a in (0, 1):
            for b in (0, 1):
                cfg = make_config(a, b, 1, k)
                assert reduce_to_j1(cfg).dtype == build_matrix(cfg).dtype == np.int64
                assert np.array_equal(reduce_to_j1(cfg), build_matrix(cfg))
    # j = 2: common form d A1^{(1,gamma)} A1^{(alpha,beta)} - 2 alpha c I
    for k in (5, 7, 9, 11):
        for a in (0, 1):
            for b in (0, 1):
                cfg = make_config(a, b, 2, k)
                c = (-1) ** (b + 1)
                d = (-1) ** (a + b)
                gamma = 1 - b if a == 0 else b
                m1 = build_matrix(make_config(1, gamma, 1, k)).tolist()
                m2 = build_matrix(make_config(a, b, 1, k)).tolist()
                expected = mat_add(
                    mat_scale(d, matmul(m1, m2)), mat_scale(-2 * a * c, identity(k))
                )
                assert build_matrix(cfg).tolist() == expected
                assert reduce_to_j1(cfg).tolist() == expected


def test_reduce_to_j1_full_sweep_k12():
    for cfg in coprime_configs(12):
        assert np.array_equal(reduce_to_j1(cfg), build_matrix(cfg)), cfg


def test_reduce_to_j1_matches_monomial_horner_k16():
    # the recurrence against the monomial expansion of U_{j-1}(x/2) and 2 T_j(x/2)
    for cfg in coprime_configs(16):
        c = (-1) ** (cfg.beta + 1)
        if cfg.alpha == 0:
            b = build_matrix(make_config(1, 1 - cfg.beta, 1, cfg.k)).tolist()
            a1 = build_matrix(make_config(0, cfg.beta, 1, cfg.k)).tolist()
            expected = matmul(matrix_poly_eval(scaled_cheb_int("U", cfg.j - 1), mat_scale(-c, b)), a1)
        else:
            b = build_matrix(make_config(1, cfg.beta, 1, cfg.k)).tolist()
            expected = mat_scale(c, matrix_poly_eval(scaled_cheb_int("T", cfg.j), mat_scale(c, b)))
        assert reduce_to_j1(cfg).tolist() == expected, cfg


@pytest.mark.parametrize("j", [2, 50])
@pytest.mark.parametrize("alpha,beta", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_reduce_to_j1_large_k(j, alpha, beta):
    cfg = make_config(alpha, beta, j, 101)
    assert np.array_equal(reduce_to_j1(cfg), build_matrix(cfg))


# the one-block run of reduce_to_j1 and the stacked run of the theorem-2 sweep agree with the fold rule at every j
@pytest.mark.parametrize("alpha,beta", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_reduce_to_j1_serves_every_j_k101(alpha, beta):
    for j in range(1, 51):  # 101 is prime: every j is coprime
        cfg = ProblemConfig(alpha, beta, j, 101)
        assert np.array_equal(reduce_to_j1(cfg), build_matrix(cfg)), j
    assert frozen_matrix.reductions_match(101)[101, :, 1:].all()


# the start of the stacked Chebyshev run read off Theorem 2's statement, block by block of the theorem-2 stack:
# alpha = 0: M = -c B with B the (1, 1-beta) matrix, Z_0 the (0, beta) one, Z_-1 = 0;
# alpha = 1: M = c B with B the (1, beta) matrix, Z_0 = B, Z_-1 = 2c I
def test_chebyshev_start_is_theorem2s_start_for_every_flag_pair():
    k, f, i, base = frozen_matrix._stack(30)
    m, y, sub = frozen_matrix._chebyshev_start(k, f, i, base)
    m = m - [[1], [0], [1], [0]] * base  # M's cols index the stack; the block's own rows from here
    for first in np.flatnonzero(i == 0).tolist():
        kb, (alpha, beta) = int(k[first]), frozen_matrix._FLAG_PAIRS[f[first]]
        rows = slice(first, first + kb)
        c = (-1) ** (beta + 1)
        if alpha == 0:
            expected = (-c * build_matrix(make_config(1, 1 - beta, 1, kb)), build_matrix(make_config(0, beta, 1, kb)),
                        np.zeros((kb, kb), np.int64))
        else:
            b = build_matrix(make_config(1, beta, 1, kb))
            expected = (c * b, b, 2 * c * np.eye(kb, dtype=np.int64))
        for got, want in zip((m, y, sub), expected):
            dense = frozen_matrix._dense(frozen_matrix._zeros((kb, kb)), *got[:, rows])
            assert np.array_equal(dense, want), (kb, alpha, beta)


def test_kernel_vectors():
    assert kernel(make_config(0, 0, 1, 3)).generator == (1, -1, 1)
    assert kernel(make_config(0, 1, 2, 7)).generator == (1, -1, -1, 1, 1, -1, -1)
    assert kernel(make_config(1, 0, 3, 7)).generator == (1, 1, -1, -1, 1, 1, -1)
    assert kernel(make_config(1, 1, 3, 8)).generator == (1, -1, -1, 1, 1, -1, -1, 1)
    nd = kernel(make_config(0, 1, 1, 3))
    assert nd.dimension == 0 and nd.generator == ()
    assert KernelDescriptor((1, -1, 1)).dimension == 1  # dimension follows the generator


def test_kernel_and_rank_sweep():
    for cfg in coprime_configs(60):
        deg = classify(cfg).kind is Kind.DEGENERATE
        ker = kernel(cfg)
        o = orbit(cfg)
        r = rank(cfg)
        assert sorted(o.rows) == list(range(cfg.k)), cfg  # one cycle through all k rows, so X has no zero entry
        assert ker.generator == o.null_vector
        if deg:
            assert ker.dimension == 1
            assert r == cfg.k - 1
            assert ker.generator == tuple(kernel_signs(cfg.k, [(cfg.alpha, cfg.beta)])[0].tolist()), cfg
        else:
            assert ker.dimension == 0
            assert r == cfg.k


# a ProblemConfig built past make_config with gcd(j, k) > 1 has several cycles (two for 2/4, both singular for (0, 0)
# and both regular for (0, 1)); every reader of the orbit, the inverse solve included, refuses it and names the
# reduced config
@pytest.mark.parametrize("beta", [0, 1])
def test_orbit_refuses_a_config_past_make_config(beta):
    cfg = ProblemConfig(0, beta, 2, 4)
    assert [rows for rows, *_ in cycle_blocks(sorted_pairs(cfg))[1]] == [(0, 3), (1, 2)]
    reduced = rf"^gcd\(j, k\) = 2 in {re.escape(repr(cfg))}: .* it to {re.escape(repr(ProblemConfig(0, beta, 1, 2)))}$"
    readers = (
        orbit,
        kernel,
        det_exact,
        rank,
        lambda c: solve_inverse(GridFunction.zeros(4, 8), c),
    )
    for read in readers:
        with pytest.raises(ValueError, match=reduced):
            read(cfg)
    with pytest.raises(ValueError, match=r"= 4 .* reduces it to ProblemConfig\(alpha=0, beta=1, j=0, k=1\)$"):
        rank(ProblemConfig(0, 1, 0, 4))  # a = 0 past make_config: four one-row cycles


def _orbit_tuple(o, b=..., k=None):
    """rows, cols, a and g of orbit b of a batch (of the one orbit by default), their first k entries, as tuples of ints."""
    return tuple(tuple(x[b][:k].tolist()) for x in (o.rows, o.cols, o.a, o.g))


# the closed form against the generic walk of the built rows: one cycle, started at row 0 by the same edge, with the
# same rows, columns, a, g, det and sgn(sigma_a), on every coprime config up to k = 80 and the four at a = 0; the
# batch orbits that orbit_checks reads, one pass per band of k over its (j, k) pairs and the four flag pairs, are the
# same walks on the first k entries, padded to the band's largest k by fixed points: r_t = c_t = t, a_t = 1 and
# g_t = g_(k-1)
def test_orbit_is_the_walk_of_the_built_rows(monkeypatch):
    batches = []
    read = identities.orbits_of
    monkeypatch.setattr(identities, "orbits_of", lambda ks, js: batches.append((ks, js, read(ks, js))) or batches[-1][2])
    identities.orbit_checks(80, 2)
    assert any(ks[0] < ks[-1] for ks, _, _ in batches)  # some bands are padded
    batch = {}
    for ks, js, o in batches:
        configs = [ProblemConfig(alpha, beta, j, k) for alpha in (0, 1) for beta in (0, 1) for j, k in zip(js, ks)]
        top = max(ks)
        for b, cfg in enumerate(configs):
            batch[cfg] = int(o.sign[b]), _orbit_tuple(o, b, cfg.k), int(o.det[b])
            pad = list(range(cfg.k, top))
            assert o.rows[b, cfg.k :].tolist() == o.cols[b, cfg.k :].tolist() == pad, cfg
            assert o.a[b, cfg.k :].tolist() == [1] * len(pad), cfg
            assert o.g[b, cfg.k :].tolist() == [o.g[b, cfg.k - 1]] * len(pad), cfg
    assert set(batch) == set(coprime_configs(80))
    a0 = [make_config(alpha, beta, 0, 1) for alpha in (0, 1) for beta in (0, 1)]
    for cfg in coprime_configs(80) + a0:
        sign, cycles = cycle_blocks(sorted_pairs(cfg))
        o = orbit(cfg)
        assert o.sign == sign and cycles == [(*_orbit_tuple(o), sign * det_exact(cfg))], cfg
        if cfg in batch:
            assert batch[cfg] == (sign, _orbit_tuple(o), det_exact(cfg)), cfg


def test_eigvec_examples():
    v = eigvec_j1([0.0], 3, 0, 0)
    assert np.allclose(v, [[1], [-1], [1]])
    for k in (2, 5, 9):
        v = eigvec_j1([2.0], k, 1, 1)
        assert np.allclose(v, np.ones((k, 1)))
    v = eigvec_j1([1j], 3, 0, 0)
    assert np.allclose(v, [[1], [-1 + 1j], [-1j]])
    with pytest.raises(ValueError, match="is not an eigenvalue"):
        eigvec_j1([0.5], 3, 0, 0)
    # one eigenvalue is the batch of one: a number or a 2-D array is refused by its shape
    for z in (0.0, np.zeros((1, 1))):
        with pytest.raises(ValueError, match=r"^z must be a 1-D array of eigenvalues, got shape \("):
            eigvec_j1(z, 3, 0, 0)


def _j1_spectrum(k, alpha, beta):
    return numeric_spectrum_j1(k, 0, 1) if (alpha, beta) == (0, 1) else spectrum_closed_form(k, alpha, beta)


# one recurrence run on the whole spectrum gives each column the bits of the run on its eigenvalue alone,
# a batch of one
def test_eigvec_j1_on_a_spectrum_is_the_column_stack_of_scalar_calls():
    for k in range(2, 41):
        for alpha, beta in ((0, 0), (0, 1), (1, 0), (1, 1)):
            spectrum = _j1_spectrum(k, alpha, beta)
            x = eigvec_j1(spectrum, k, alpha, beta)
            cols = np.concatenate([eigvec_j1([z0], k, alpha, beta) for z0 in spectrum], axis=1)
            assert x.shape == cols.shape == (k, k)
            assert x.tobytes() == cols.tobytes(), (k, alpha, beta)


def test_eigvec_j1_names_the_non_eigenvalue_of_a_batch():
    spectrum = spectrum_closed_form(5, 1, 1)
    with pytest.raises(ValueError, match=r"^z0=\(0\.5\+0j\) is not an eigenvalue"):
        eigvec_j1(spectrum[:2] + [0.5] + spectrum[2:], 5, 1, 1)


@pytest.mark.parametrize("z0", [float("nan"), float("inf"), complex("nan+1j")], ids=["nan", "inf", "nan+1j"])
def test_eigvec_j1_rejects_a_non_finite_z0(z0):
    with pytest.raises(ValueError, match="is not an eigenvalue"):
        eigvec_j1([z0], 3, 0, 0)
    with pytest.raises(ValueError, match="is not an eigenvalue"):
        eigvec_j1(spectrum_closed_form(3, 0, 0) + [z0], 3, 0, 0)


# one recurrence pass over the concatenated spectra of every k <= 40, a k per column, gives each k the bits of
# eigvecs_j1 run on that k alone: x in the column's first k rows, resid and scale, and the pass mask
def test_one_pass_eigvecs_over_every_k_are_the_per_k_eigvecs_bit_for_bit():
    pairs = frozen_matrix._FLAG_PAIRS
    ks = range(2, 41)
    spectra = {k: np.array([_j1_spectrum(k, alpha, beta) for alpha, beta in pairs]) for k in ks}
    spectra[7][1, 2] = 0.5  # not an eigenvalue: it fails in both runs
    z = np.concatenate(list(spectra.values()), axis=1)
    x, ok, resid, scale = frozen_matrix.eigvecs_j1(z, np.repeat(ks, ks), pairs)
    assert x.shape == (4, 40, sum(ks))
    at = 0
    for k in ks:
        alone = frozen_matrix.eigvecs_j1(spectra[k], k, pairs)
        cols = slice(at, at + k)
        assert x[:, :k, cols].tobytes() == alone[0].tobytes(), k
        for got, expected in zip((ok, resid, scale), alone[1:]):
            assert got[:, cols].tobytes() == expected.tobytes(), k
        at += k
    assert np.flatnonzero(~ok).tolist() == [sum(range(2, 7)) + 2 + sum(ks)]  # (0, 1) is row 1 of the flattened mask


# the one kernel sign rule gives the paper's four sign tables, the kernel of each config that is degenerate by parity
def test_kernel_signs_are_the_paper_tables():
    tables = {
        (0, 0): lambda v: (-1) ** (v - 1),
        (0, 1): lambda v: (-1) ** (v // 2),
        (1, 0): lambda v: (-1) ** ((v - 1) // 2),
        (1, 1): lambda v: (-1) ** (v // 2),
    }
    for k in range(1, 41):
        rows = kernel_signs(k, frozen_matrix._FLAG_PAIRS)
        assert rows.dtype == np.int64
        assert rows.tolist() == [[tables[pair](v) for v in range(1, k + 1)] for pair in frozen_matrix._FLAG_PAIRS]
    for cfg in coprime_configs(40):
        deg = classify(cfg).kind is Kind.DEGENERATE
        assert degenerate(cfg.alpha, cfg.beta, cfg.j, cfg.k) == deg, cfg
        if deg:
            expected = [tables[cfg.alpha, cfg.beta](v) for v in range(1, cfg.k + 1)]
            assert kernel_signs(cfg.k, [(cfg.alpha, cfg.beta)]).tolist() == [expected], cfg


# the rows are counted before they are allocated: at k = 2^63 np.arange gives an empty float64 range, and at k = 10^11
# it asks for 745 GiB
@pytest.mark.parametrize("k", [2**31, 10**11, 2**63])
def test_a_matrix_with_too_many_rows_is_refused_before_its_rows_are_allocated(k):
    message = rf"^k={k} is too large: the fold rule and the orbit take fewer than 2\^31 rows$"
    for read in (build_matrix, orbit, rank, det_exact, kernel):
        with pytest.raises(ValueError, match=message):
            read(make_config(0, 0, 1, k))


# one eigvals call on the stack of every flag pair gives each row the bits of the batch of one, exact zeros included
def test_stacked_spectra_are_the_per_pair_spectra_bit_for_bit():
    for k in range(2, 41):
        for pairs in (frozen_matrix._FLAG_PAIRS, identities._CLOSED_FORM_FLAGS):
            spectra = frozen_matrix.numeric_spectra_j1(k, pairs)
            assert spectra.shape == (len(pairs), k)
            for (alpha, beta), row in zip(pairs, spectra):
                assert row.tobytes() == np.array(numeric_spectrum_j1(k, alpha, beta)).tobytes(), (k, alpha, beta)


# one recurrence pass over every flag pair gives eigvec_j1's columns, and its pass mask eigvec_j1's pass or fail; a
# column of a non-finite or wrong z0 has the bits of its batch of one
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex("nan+1j"), 0.5], ids=["nan", "inf", "nan+1j", "0.5"])
def test_stacked_eigvecs_are_the_per_pair_eigvecs_bit_for_bit(bad):
    pairs = frozen_matrix._FLAG_PAIRS
    for k in range(2, 17):
        z = np.array([_j1_spectrum(k, alpha, beta) + [bad] for alpha, beta in pairs])
        x, ok, _, _ = frozen_matrix.eigvecs_j1(z, k, pairs)
        assert x.shape == (4, k, k + 1)
        assert ok.tolist() == [[True] * k + [False]] * 4, k
        for n, (alpha, beta) in enumerate(pairs):
            assert x[n, :, :k].tobytes() == eigvec_j1(z[n, :k], k, alpha, beta).tobytes(), (k, alpha, beta)
            with pytest.raises(ValueError, match=f"^z0={re.escape(str(z[n, k]))} is not an eigenvalue"):
                eigvec_j1(z[n], k, alpha, beta)
            alone = frozen_matrix.eigvecs_j1(z[n:n + 1, k:], k, [(alpha, beta)])[0]
            assert x[n, :, k:].tobytes() == alone[0].tobytes(), (k, alpha, beta)


# the one dense form: an int64 (k, k) array holding each row's two entries, summed where they share a column (a = 0);
# a stack of the j = 1 flag pairs, as numeric_spectra_j1 builds it, holds the matrix of each pair
def test_build_matrix_is_the_int64_array_of_the_rows():
    a0 = [make_config(alpha, beta, 0, 1) for alpha in (0, 1) for beta in (0, 1)]  # one row, both entries in column 0
    for cfg in coprime_configs(30) + a0:
        a = build_matrix(cfg)
        assert a.dtype == np.int64 and a.shape == (cfg.k, cfg.k), cfg
        expected = [[0] * cfg.k for _ in range(cfg.k)]
        for i, row in enumerate(sorted_pairs(cfg)):
            for col, v in row:
                expected[i][col] += v
        assert a.tolist() == expected, cfg
    for k in range(2, 31):
        pairs = frozen_matrix._FLAG_PAIRS
        rows = frozen_matrix._fold_rule(np.arange(k), 1, k, *signs(*frozen_matrix._flag_columns(pairs)))
        stack = frozen_matrix._dense(frozen_matrix._zeros((len(pairs), k, k)), *rows)
        assert stack.dtype == np.int64 and stack.shape == (4, k, k)
        for (alpha, beta), a in zip(pairs, stack):
            assert np.array_equal(a, build_matrix(make_config(alpha, beta, 1, k))), (k, alpha, beta)


# each j = 1 helper at k, for the k >= 2 guard
_J1_HELPERS = {
    "det_closed_form": lambda k: det_closed_form(k, 1, 0),
    "char_poly_j1": lambda k: char_poly_j1(k, 0, 0),
    "numeric_spectrum_j1": lambda k: numeric_spectrum_j1(k, 0, 1),
    "theorem1_poly": lambda k: theorem1_poly(k, 0, 1),
    "spectrum_closed_form": lambda k: spectrum_closed_form(k, 1, 1),
    "reduce_to_j1": lambda k: reduce_to_j1(make_config(1, 0, 0, k)),
    "eigvec_j1": lambda k: eigvec_j1([0j], k, 0, 0),
}


@pytest.mark.parametrize("name", list(_J1_HELPERS))
def test_j1_helpers_reject_k_below_2(name):
    with pytest.raises(ValueError, match=f"{name} needs k >= 2"):
        _J1_HELPERS[name](1)


# the j = 1 helpers that read a cache keyed by the flags, where True and 1.0 hash as the 1 they equal
_CACHED_FLAG_READERS = {
    "char_poly_j1": lambda alpha: char_poly_j1(3, alpha, 0),
    "eigvec_j1": lambda alpha: eigvec_j1(spectrum_closed_form(3, 1, 0)[:1], 3, alpha, 0),
}


@pytest.mark.parametrize("flag", [True, 1.0])
@pytest.mark.parametrize("name", list(_CACHED_FLAG_READERS))
def test_cached_j1_helpers_reject_a_bool_or_float_flag_after_a_warm_call(name, flag):
    read = _CACHED_FLAG_READERS[name]
    read(1)  # holds (3, 1, 0) in the cache
    with pytest.raises(ValueError, match=rf"^alpha and beta must be 0 or 1, got {flag!r} and 0$"):
        read(flag)


@pytest.mark.parametrize("alpha,beta", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_a0_is_walked_as_a_one_row_cycle(alpha, beta):
    # (j, k) = (0, 1): families (ii) and (iii) put d and c into the one entry, c + d = 2 c alpha
    cfg = make_config(alpha, beta, 0, 1)
    a = build_matrix(cfg).tolist()
    c, d = signs(alpha, beta)
    assert [x.tolist() for x in frozen_matrix._family(cfg)] == [[0], [c], [0], [d]]
    assert a == [[c + d]] == [[2 * c * alpha]]
    o = orbit(cfg)
    assert o.sign == 1 and _orbit_tuple(o) == ((0,), (0,), (c,), (-c * d,))
    assert det_exact(cfg) == c + d == bareiss_det(a)
    assert (det_exact(cfg) == 0) == (classify(cfg).kind is Kind.DEGENERATE)
    ker = kernel(cfg)
    assert ker.generator == o.null_vector == ((1,) if alpha == 0 else ())
    assert degenerate(alpha, beta, 0, 1) == (alpha == 0) and kernel_signs(1, [(alpha, beta)]).tolist() == [[1]]
    assert rank(cfg) == 1 - ker.dimension == bareiss_rank(a)


def test_rank_examples():
    assert rank(make_config(0, 0, 3, 7)) == 6
    assert rank(make_config(0, 1, 1, 3)) == 3


def test_cycle_det_and_rank_match_bareiss():
    j1 = [make_config(a, b, 1, k) for k in range(31, 41) for a in (0, 1) for b in (0, 1)]
    a0 = [make_config(alpha, beta, 0, 1) for alpha in (0, 1) for beta in (0, 1)]
    for cfg in coprime_configs(30) + j1 + a0:
        dense = build_matrix(cfg).tolist()
        assert (det_exact(cfg), rank(cfg)) == (bareiss_det(dense), bareiss_rank(dense)), cfg


# det_exact and rank read the orbit off the config, not the rows, so the rows that break the pattern are the
# walk oracle's to refuse
def test_walk_oracle_rejects_other_patterns():
    rows = sorted_pairs(make_config(0, 1, 2, 5))
    three = (rows[0] + ((4, 1),),) + rows[1:]  # a third nonzero in row 0
    lone = (((0, 1), (1, 1)), ((1, 1), (2, 1)), ((1, 1), (2, 1)))  # column 0 has one nonzero
    (col, _), right = rows[0]
    two = (((col, 2), right),) + rows[1:]  # an entry 2: det = prod(a) (1 - g_(L-1)) holds for +-1 entries only
    for rows in (three, lone, two):
        with pytest.raises(AssertionError):
            cycle_blocks(rows)


def _refuse(*args):
    raise AssertionError("det_exact or rank built a dense matrix")


def test_det_and_rank_each_read_one_orbit_and_build_no_matrix(monkeypatch):
    walks = []
    walk = frozen_matrix._orbits
    monkeypatch.setattr(frozen_matrix, "_orbits", lambda j, k, *rows: walks.append((j, k)) or walk(j, k, *rows))
    for name in ("build_matrix", "_dense"):
        monkeypatch.setattr(frozen_matrix, name, _refuse)
    cfg = make_config(0, 0, 3, 8)
    assert det_exact(cfg) == 0 and walks == [(3, 8)]
    assert rank(cfg) == 7 and walks == [(3, 8), (3, 8)]


def _dict_mul_sub(m, y, sub):
    """The recurrence step on a dict per row: the oracle of the two-entry step."""
    out = []
    for ((p, s), (q, t)), sub_row in zip(m, sub):
        row = {col: s * v for col, v in y[p]}
        for col, v in y[q]:
            row[col] = row.get(col, 0) + t * v
        for col, v in sub_row:
            row[col] = row.get(col, 0) - v
        out.append(tuple(sorted((col, v) for col, v in row.items() if v)))
    return out


def _pairs(rows):
    """A (4, n) int64 array of two (col, value) pairs per row as rows of pairs, the pairs with value 0 left out."""
    return [tuple((col, v) for col, v in ((c0, v0), (c1, v1)) if v) for c0, v0, c1, v1 in rows.T.tolist()]


def _stacked(rows):
    """Rows of at most two (col, value) pairs as a (4, n) int64 array, a missing pair as (0, 0)."""
    return np.array([[x for pair in row + ((0, 0),) * (2 - len(row)) for x in pair] for row in rows]).T


# every step of the theorem-2 sweep up to kmax = 40, over the blocks of every (alpha, beta) and k <= 40 at once:
# every j, coprime or not, including the first step, whose sub rows have no entry (alpha = 0) or one (alpha = 1)
def test_mul_sub_matches_the_dict_step(monkeypatch):
    step = frozen_matrix._mul_sub
    rows = []

    def checked(m, y, sub):
        got = step(m, y, sub)
        assert [tuple(sorted(row)) for row in _pairs(got)] == _dict_mul_sub(_pairs(m), _pairs(y), _pairs(sub))
        assert np.abs(got[1::2]).max() == 1
        rows.append(got.shape[1])
        return got

    monkeypatch.setattr(frozen_matrix, "_mul_sub", checked)
    assert identities.theorem2(40).ok.all()
    assert sum(rows) == 4 * sum(k * (k // 2 - 1) for k in range(2, 41))
    # no run takes the merge of y[q]'s second column into y[p]'s first: crafted rows do, once with the merged
    # entry cancelling (y[p] keeps column 5) and once with sub cancelling column 5 and taking one off the merged
    # entry, which stays
    y = _stacked([((2, 1), (5, 1)), ((0, 1), (2, 1))])
    m = _stacked([((0, 1), (1, -1)), ((0, 1), (1, 1))])
    sub = ((), ((2, 1), (5, 1)))
    expected = [((0, -1), (5, 1)), ((0, 1), (2, 1))]
    assert _dict_mul_sub(_pairs(m), _pairs(y), sub) == expected
    assert [tuple(sorted(row)) for row in _pairs(step(m, y, _stacked(sub)))] == expected


def test_mul_sub_asserts_its_pattern_and_bound():
    y = _stacked([((2, 1), (5, 1)), ((0, 1), (2, 1))])
    m = _stacked([((0, 1), (1, -1)), ((0, 1), (1, 1))])
    with pytest.raises(AssertionError, match="in modulus, above the asserted bound 1"):  # column 2 holds 2
        frozen_matrix._mul_sub(m, y, _stacked(((), ((5, 1),))))
    with pytest.raises(AssertionError, match="a sub entry in column 3 is off the columns"):
        frozen_matrix._mul_sub(m, y, _stacked(((), ((3, 1),))))
    # y[q]'s column 2 joins y[p]'s and sub takes off its column 0: y[q] keeps no term
    with pytest.raises(AssertionError, match=r"keeps other than one term of y\[0\] and one of y\[1\]"):
        frozen_matrix._mul_sub(m, y, _stacked(((), ((0, 1),))))


def _sum_eigvec_j1(z0, k, alpha, beta):
    """eigvec_j1 with the residual summed over a generator per row: the oracle of the two-entry residual."""
    cfg = make_config(alpha, beta, 1, k)
    z, (c, d) = complex(z0), signs(alpha, beta)
    x = [d**m * q for m, q in zip(range(k), three_term(z, 1.0 + 0j, z - 1.0, c * d))]
    resid = max(abs(sum(v * x[col] for col, v in row) - z * xi) for row, xi in zip(sorted_pairs(cfg), x))
    scale = max(map(abs, x))
    if resid > 1e-9 * scale:
        raise ValueError(f"z0={z0} is not an eigenvalue: residual {resid:.3e} vs scale {scale:.3e}")
    return np.array(x, dtype=complex)


def test_eigvec_j1_matches_the_summed_residual():
    for k in range(2, 17):
        for alpha, beta in ((0, 0), (1, 0), (1, 1)):
            for z0 in spectrum_closed_form(k, alpha, beta):
                assert np.array_equal(eigvec_j1([z0], k, alpha, beta)[:, 0], _sum_eigvec_j1(z0, k, alpha, beta))
            for z0 in (0.5, 7.0, 3j):  # never an eigenvalue of these spectra, which lie in [-2, 2] or i[-2, 2]
                with pytest.raises(ValueError, match="is not an eigenvalue"):
                    _sum_eigvec_j1(z0, k, alpha, beta)
                with pytest.raises(ValueError, match="is not an eigenvalue"):
                    eigvec_j1([z0], k, alpha, beta)


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
