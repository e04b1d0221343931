"""Exact linear algebra on small dense integer matrices.

Everything here runs on Python ints (arbitrary precision), never floats.
Matrices are sequences of row sequences; results are lists of lists.
Nothing in the package calls these at run time; they are the dense oracles
of the tests.  bareiss_det and bareiss_rank work on any integer matrix, and
the tests hold frozen_matrix's cycle-decomposition det_exact and rank
against them; identity, mat_add, mat_scale and matmul serve
chebyshev.matrix_poly_eval, the reference of the j > 1 reduction.  The
benchmark's tracer times matmul, bareiss_det and bareiss_rank by name, so
they stay in the package until it no longer does.
"""

from __future__ import annotations

from typing import Sequence

IntMatrix = Sequence[Sequence[int]]


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_copy(a: IntMatrix) -> list[list[int]]:
    return [list(row) for row in a]


def mat_add(a: IntMatrix, b: IntMatrix) -> list[list[int]]:
    if len(a) != len(b) or len(a[0]) != len(b[0]):
        raise ValueError("matrix shapes differ")
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(s: int, a: IntMatrix) -> list[list[int]]:
    return [[s * x for x in row] for row in a]


def matmul(a: IntMatrix, b: IntMatrix) -> list[list[int]]:
    n, p = len(a), len(a[0])
    if len(b) != p:
        raise ValueError(f"cannot multiply {n}x{p} by {len(b)}x{len(b[0])}")
    q = len(b[0])
    bt = [[b[i][j] for i in range(p)] for j in range(q)]  # column access
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _eliminate_below(m: list[list[int]], r: int, c: int, prev: int) -> None:
    """One fraction-free step on pivot m[r][c], in place.

    Every row i below r gets m[i][t] = (m[i][t] * piv - m[i][c] * m[r][t]) / prev
    for the columns t right of c; column c and those left of it are left
    stale, since elimination never reads them again.  A row with
    m[i][c] == 0 is left as it is when piv == prev, where the update is the
    identity.  Bareiss' theorem makes every quotient exact; the division is
    skipped for prev = +-1 and checked otherwise.
    """
    piv_row = m[r]
    piv = piv_row[c]
    tail = piv_row[c + 1 :]
    for i in range(r + 1, len(m)):
        row = m[i]
        f = row[c]
        if f == 0 and piv == prev:
            continue
        nums = [x * piv - f * y for x, y in zip(row[c + 1 :], tail)]
        if prev == -1:
            nums = [-v for v in nums]
        elif prev != 1:
            quots = [divmod(v, prev) for v in nums]
            if any(rem for _, rem in quots):
                raise ArithmeticError("fraction-free elimination produced a non-integer")
            nums = [q for q, _ in quots]
        row[c + 1 :] = nums


def bareiss_det(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    m = mat_copy(a)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    sign = 1
    prev = 1
    for p in range(n - 1):
        if m[p][p] == 0:
            for r in range(p + 1, n):
                if m[r][p] != 0:
                    m[p], m[r] = m[r], m[p]
                    sign = -sign
                    break
            else:
                return 0
        _eliminate_below(m, p, p, prev)
        prev = m[p][p]
    return sign * m[n - 1][n - 1]


def bareiss_rank(a: IntMatrix) -> int:
    """Exact rank by fraction-free elimination with column pivoting."""
    m = mat_copy(a)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    prev = 1
    r = 0
    for c in range(cols):
        piv_row = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv_row is None:
            continue
        m[r], m[piv_row] = m[piv_row], m[r]
        _eliminate_below(m, r, c, prev)
        prev = m[r][c]
        r += 1
        if r == rows:
            break
    return r
