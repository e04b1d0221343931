from fractions import Fraction

import numpy as np
import pytest

from frozen_spectra.intlinalg import _eliminate_below, bareiss_det, bareiss_rank, identity, mat_add, matmul


def fraction_rank(m):
    """Plain Gaussian elimination over Q, the independent oracle."""
    m = [[Fraction(v) for v in row] for row in m]
    rows, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, rows):
            f = m[i][c] / m[r][c]
            for jj in range(c, cols):
                m[i][jj] -= f * m[r][jj]
        r += 1
    return r


def cofactor_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for c in range(n):
        if m[0][c] == 0:
            continue
        minor = [row[:c] + row[c + 1 :] for row in m[1:]]
        total += (-1) ** c * m[0][c] * cofactor_det(minor)
    return total


def test_det_against_cofactor_oracle():
    rng = np.random.default_rng(11)
    for n in range(1, 7):
        for _ in range(20):
            m = rng.integers(-5, 6, size=(n, n)).tolist()
            assert bareiss_det(m) == cofactor_det(m)


def test_rank_against_fraction_oracle():
    rng = np.random.default_rng(12)
    for rows in range(1, 7):
        for cols in range(1, 7):
            for _ in range(20):
                m = rng.integers(-3, 4, size=(rows, cols)).tolist()
                assert bareiss_rank(m) == fraction_rank(m)


def test_rank_of_structured_matrices():
    assert bareiss_rank([[0, 0], [0, 0]]) == 0
    assert bareiss_rank(identity(5)) == 5
    # rank-1 outer product with large entries
    v = [3**i for i in range(6)]
    assert bareiss_rank([[a * b for b in v] for a in v]) == 1


def test_det_of_singular_and_permuted():
    assert bareiss_det([[1, 2], [2, 4]]) == 0
    assert bareiss_det([[0, 1], [1, 0]]) == -1
    assert bareiss_det([[0, 1], [0, 2]]) == 0  # no pivot in column 0
    with pytest.raises(ValueError):
        bareiss_det([[1, 2, 3], [4, 5, 6]])


def test_matmul_and_mat_add():
    a = [[1, 2], [3, 4]]
    assert matmul(a, identity(2)) == [list(r) for r in a]
    with pytest.raises(ValueError):
        matmul(a, [[1, 2, 3]])
    assert mat_add(a, identity(2)) == [[2, 2], [3, 5]]
    with pytest.raises(ValueError, match="matrix shapes differ"):
        mat_add(a, [[1, 2, 3], [4, 5, 6]])


def test_big_integer_growth_stays_exact():
    # Hilbert-like integer matrix whose minors overflow any fixed width
    n = 12
    m = [[(i + j + 1) ** 5 + (i == j) for j in range(n)] for i in range(n)]
    d = bareiss_det(m)
    assert isinstance(d, int) and d != 0
    # cross-check rank with the rational oracle on the same matrix
    assert bareiss_rank(m) == fraction_rank(m)


def test_elimination_checks_exact_division():
    # (2 * 1 - 1 * 1) / 2 is not an integer: a wrong divisor must not truncate
    with pytest.raises(ArithmeticError):
        _eliminate_below([[1, 1], [1, 2]], 0, 0, 2)
    m = [[2, 4], [1, 3]]
    _eliminate_below(m, 0, 0, 2)
    assert m[1][1] == 1
    m = [[1, 1], [1, 2]]
    _eliminate_below(m, 0, 0, -1)
    assert m[1][1] == -1
