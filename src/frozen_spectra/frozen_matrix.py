"""Exact construction and spectral analysis of the main-equation matrices.

The k x k integer matrix attached to a config (alpha, beta, a = j/k) has
four constant subdiagonal families (entries 1, d, c, c); its kernel decides
whether the inverse problem has a unique solution.  Everything structural
here is exact integer arithmetic: characteristic polynomials read by k
from one stored run of the tridiagonal j = 1 recurrence per (alpha, beta),
which steps only past the largest k read so far, closed-form
determinants, the Chebyshev reduction of j > 1 to j = 1, and kernel
vectors.  Floats appear only in the numeric eigenvalue cross-checks and in
the j = 1 eigenvectors, the same recurrence run on a number.

For k >= 2 every main-equation matrix is a signed sum of two permutations:
exactly two nonzeros per row and per column.  Matrices are stored as
sparse rows, the Chebyshev recurrence steps on sparse rows, and det/rank
follow the cycles of the row-column graph; the dense form is built only
on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chebyshev import IntPolynomial, StoredRun, X, imag_scaled_cheb_int, scaled_cheb_int, three_term
from .core_params import (
    Kind,
    ProblemConfig,
    SignPair,
    classify,
    make_config,
    require_flags,
    require_normalized,
    sign_pair,
)


# Per row, its nonzeros as (col, value) pairs sorted by column.
SparseRows = tuple[tuple[tuple[int, int], ...], ...]


@dataclass(frozen=True, eq=False)
class FrozenMatrix:
    config: ProblemConfig
    signs: SignPair
    rows: SparseRows

    @property
    def k(self) -> int:
        return len(self.rows)

    def as_lists(self) -> list[list[int]]:
        dense = [[0] * self.k for _ in self.rows]
        for out, row in zip(dense, self.rows):
            for col, v in row:
                out[col] = v
        return dense

    def as_array(self, dtype=float) -> np.ndarray:
        return np.array(self.as_lists(), dtype=dtype)


@dataclass(frozen=True)
class KernelDescriptor:
    dimension: int  # 0 or 1
    generator: tuple[int, ...]  # +-1 entries, empty when dimension == 0


def build_matrix(config: ProblemConfig) -> FrozenMatrix:
    """Exact sparse rows of the k x k main-equation matrix, in O(k).

    For k >= 2 the four families are
      (i)   a[m, j-m+1] = 1   m = 1..j        (top-left antidiagonal)
      (ii)  a[m, m+j]   = d   m = 1..k-j      (upper subdiagonal)
      (iii) a[m, m-j]   = c   m = j+1..k      (lower subdiagonal)
      (iv)  a[m, 2k-m-j+1] = c  m = k-j+1..k  (bottom-right antidiagonal)
    (1-based indices).  For 1 <= j <= k/2 row m gets one entry from (i) or
    (iii) and one from (ii) or (iv), and the two never share a column: (ii)
    and (iii) would need j = 0, (i)/(ii) and (iii)/(iv) a half-integer row.
    Two distinct columns per row is asserted.  For k = 1 (a = 0) the single
    entry is 2*c*alpha, stored only when nonzero.  A config with 2j > k
    raises ValueError (require_normalized).
    """
    require_normalized(config)
    j, k = config.j, config.k
    signs = sign_pair(config)
    c, d = signs.c, signs.d
    if k == 1:
        v = 2 * c * config.alpha
        return FrozenMatrix(config, signs, (((0, v),) if v else (),))
    rows = []
    for m in range(1, k + 1):
        left = (j - m, 1) if m <= j else (m - j - 1, c)  # (i) or (iii)
        right = (m + j - 1, d) if m <= k - j else (2 * k - m - j, c)  # (ii) or (iv)
        if left[0] == right[0]:
            raise AssertionError(f"subdiagonal families overlap in row {m} for j={j}, k={k}")
        rows.append((left, right) if left[0] < right[0] else (right, left))
    return FrozenMatrix(config, signs, tuple(rows))


@lru_cache(maxsize=None)
def _char_poly_run(alpha: int, beta: int) -> StoredRun:
    """det(zI - A) of the j = 1 matrix as entry k >= 2 of one stored three_term run.

    A is tridiagonal with diagonal (1, 0, ..., 0, c), super-diagonal d and
    sub-diagonal c, so the leading n x n minors q_n of zI - A (n < k) obey
    q_{n+1} = z q_n - cd q_{n-1} from q_0 = 1, q_1 = z - 1.  Expanding
    along the last row gives p_k = (z - c) q_{k-1} - cd q_{k-2}.  c and d
    do not depend on k, so p_k is a fixed combination of two consecutive
    minors and obeys their recurrence p_{k+1} = z p_k - cd p_{k-1}; run
    back from p_2 and p_3 it starts at p_0 = 1 - d, p_1 = z - 1 - c.
    """
    s = sign_pair(make_config(alpha, beta, 1, 2))
    return StoredRun(X, IntPolynomial((1 - s.d,)), X - IntPolynomial((1 + s.c,)), s.c * s.d)


def char_poly_j1(k: int, alpha: int, beta: int) -> IntPolynomial:
    """det(zI - A) for j = 1: entry k of the stored run of (alpha, beta)."""
    if k < 2:
        raise ValueError("char_poly_j1 needs k >= 2")
    return _char_poly_run(alpha, beta)[k]


def det_closed_form(k: int, alpha: int, beta: int) -> int:
    """Closed-form determinant of the j = 1 matrix.

    (-cd)^((k-1)/2) (1 + c) for odd k, c (-cd)^(k/2-1) (1 - d) for even k.
    """
    if k < 2:
        raise ValueError("det_closed_form needs k >= 2")
    s = sign_pair(make_config(alpha, beta, 1, k))
    c, d = s.c, s.d
    if k % 2:
        return (-c * d) ** ((k - 1) // 2) * (1 + c)
    return c * (-c * d) ** (k // 2 - 1) * (1 - d)


def theorem1_poly(k: int, alpha: int, beta: int) -> IntPolynomial:
    """Chebyshev closed form of det(zI - A) for j = 1, expanded exactly.

    (0,0): z * i^(k-1) U_{k-1}(z/2i)
    (0,1): 2 i^k T_k(z/2i) - 2 i^(k-1) U_{k-1}(z/2i)
    (1,0): 2 T_k(z/2)
    (1,1): (z - 2) U_{k-1}(z/2)
    The imaginary-argument cases reduce to integer polynomials; the
    construction asserts that every power of i cancels.
    """
    if k < 2:
        raise ValueError("theorem1_poly needs k >= 2")
    require_flags(alpha, beta)
    if alpha == 0 and beta == 0:
        return X * imag_scaled_cheb_int("U", k - 1)
    if alpha == 0 and beta == 1:
        return imag_scaled_cheb_int("T", k) - 2 * imag_scaled_cheb_int("U", k - 1)
    if alpha == 1 and beta == 0:
        return scaled_cheb_int("T", k)
    return (X - IntPolynomial((2,))) * scaled_cheb_int("U", k - 1)


def spectrum_closed_form(k: int, alpha: int, beta: int) -> list[complex]:
    """Trigonometric eigenvalue lists of the j = 1 matrix.

    (0,0): {0} u {2i cos(v pi/k), v = 1..k-1}
    (1,0): {2 cos((2v+1) pi/(2k)), v = 0..k-1}
    (1,1): {2 cos(v pi/k), v = 0..k-1}
    No closed form exists for (0,1); use numeric_spectrum_j1 there (the
    only guarantee is that 0 is not an eigenvalue).
    """
    if k < 2:
        raise ValueError("spectrum_closed_form needs k >= 2")
    require_flags(alpha, beta)
    if alpha == 0 and beta == 0:
        return [0j] + [2j * math.cos(v * math.pi / k) for v in range(1, k)]
    if alpha == 0 and beta == 1:
        raise ValueError("no closed-form spectrum for (alpha, beta) = (0, 1); use numeric_spectrum_j1")
    if alpha == 1 and beta == 0:
        return [complex(2 * math.cos((2 * v + 1) * math.pi / (2 * k))) for v in range(k)]
    return [complex(2 * math.cos(v * math.pi / k)) for v in range(k)]


def numeric_spectrum_j1(k: int, alpha: int, beta: int) -> list[complex]:
    """Numeric eigenvalues of the j = 1 matrix.

    Zero roots are read off exactly from vanishing low-order coefficients
    and deflated; the remaining simple roots come from the companion matrix
    of the deflated polynomial, polished by two Newton steps with
    exact-coefficient Horner evaluation.  Good to ~1e-12 for k up to a few
    hundred.
    """
    p = char_poly_j1(k, alpha, beta)
    zero_mult = next(i for i, c in enumerate(p.coeffs) if c != 0)
    deflated = IntPolynomial(p.coeffs[zero_mult:])
    polished: list[complex] = [0j] * zero_mult
    if deflated.degree >= 1:
        roots = np.roots([float(c) for c in reversed(deflated.coeffs)])
        dp = IntPolynomial(tuple(i * c for i, c in enumerate(deflated.coeffs) if i > 0))
        for z in roots:
            z = complex(z)
            for _ in range(2):
                dv = dp(z)
                if dv == 0:
                    break
                z = z - deflated(z) / dv
            polished.append(z)
    return polished


def reductions_j1(alpha: int, beta: int, k: int):
    """Yield (j, rows) for j = 1..k/2 from one run of the Chebyshev reduction.

    Theorem 2 builds the j > 1 matrix from j = 1 matrices:
    alpha = 0:  U_{j-1}(-(c/2) B) * A1   with B the (1, 1-beta) matrix and
                A1 the (0, beta) one;
    alpha = 1:  2c T_j((c/2) B)         with B the (1, beta) matrix.
    With M = -c B resp. c B, both are the matrix three-term recurrence
    Z_{n+1} = M Z_n - Z_{n-1}, yielding Z_{j-1} from Z_0 = A1, Z_1 = M A1
    for alpha = 0, and c Z_j from c Z_0 = 2c I, c Z_1 = B for alpha = 1
    (c Z_n obeys the same recurrence).  c does not depend on j, so every j
    is a prefix of one sequence.  M has two nonzeros per row, so a step is
    two scaled sparse-row adds per row; each yielded Z_n has the two-per-row
    pattern of build_matrix, so a step costs O(k).  M is an integer matrix
    and nothing is divided, so every Z_n stays in Z.  rows are sparse rows
    as in FrozenMatrix.rows; for gcd(j, k) = 1 they equal those of
    build_matrix.
    """
    if k < 2:
        raise ValueError("reductions_j1 needs k >= 2")
    c = sign_pair(make_config(alpha, beta, 1, k)).c
    b = build_matrix(make_config(1, 1 - beta if alpha == 0 else beta, 1, k)).rows
    s = -c if alpha == 0 else c
    m = [((p, s * u), (q, s * t)) for (p, u), (q, t) in b]
    if alpha == 0:
        prev, cur = [()] * k, build_matrix(make_config(0, beta, 1, k)).rows
    else:
        prev, cur = [((i, 2 * c),) for i in range(k)], b
    for j in range(1, k // 2 + 1):
        if j > 1:
            prev, cur = cur, _mul_sub(m, cur, prev)
        yield j, tuple(cur)


def _mul_sub(m, y, sub) -> list[tuple[tuple[int, int], ...]]:
    """M @ y - sub on sparse rows, with M given as ((col, value), (col, value)) per row."""
    out = []
    for ((p, s), (q, t)), sub_row in zip(m, sub):
        row = {col: s * v for col, v in y[p]}
        for col, v in y[q]:
            row[col] = row.get(col, 0) + t * v
        for col, v in sub_row:
            row[col] = row.get(col, 0) - v
        out.append(tuple(sorted((col, v) for col, v in row.items() if v)))
    return out


def reduce_to_j1(config: ProblemConfig) -> SparseRows:
    """Sparse rows of the j > 1 matrix by the Chebyshev reduction (see reductions_j1)."""
    require_normalized(config)
    if config.k < 2:
        raise ValueError("reduce_to_j1 needs k >= 2")
    return next(rows for jj, rows in reductions_j1(config.alpha, config.beta, config.k) if jj == config.j)


_KERNEL_SIGNS = {
    (0, 0): lambda v: (-1) ** (v - 1),
    (0, 1): lambda v: (-1) ** (v // 2),
    (1, 0): lambda v: (-1) ** ((v - 1) // 2),
    (1, 1): lambda v: (-1) ** (v // 2),
}


def kernel(config: ProblemConfig) -> KernelDescriptor:
    """Kernel of the main-equation matrix.

    One-dimensional with an explicit +-1 sign vector in the four degenerate
    cases, trivial otherwise.  The product A X = 0 is verified in exact
    integer arithmetic before returning.
    """
    if config.k < 2:
        raise ValueError("kernel needs k >= 2")
    if classify(config).kind is Kind.NON_DEGENERATE:
        return KernelDescriptor(0, ())
    pattern = _KERNEL_SIGNS[(config.alpha, config.beta)]
    x = tuple(pattern(v) for v in range(1, config.k + 1))
    if any(sum(v * x[col] for col, v in row) for row in build_matrix(config).rows):
        raise AssertionError(f"closed-form kernel vector failed A X = 0 for {config}")
    return KernelDescriptor(1, x)


@lru_cache(maxsize=1)
def _j1_matrix(k: int, alpha: int, beta: int) -> FrozenMatrix:
    """The j = 1 matrix, built once for a run of eigenvectors of one (k, alpha, beta)."""
    return build_matrix(make_config(alpha, beta, 1, k))


def eigvec_j1(z0: complex, k: int, alpha: int, beta: int) -> np.ndarray:
    """Eigenvector of the j = 1 matrix for eigenvalue z0.

    Component m is d^(m-1) q_{m-1}(z0): the minors q_n of _char_poly_run,
    their three_term run on the number z0.
    The residual ||A x - z0 x||_inf <= 1e-9 ||x||_inf is checked a
    posteriori on the sparse rows, two products per row; failure means z0
    was not an eigenvalue.
    """
    if k < 2:
        raise ValueError("eigvec_j1 needs k >= 2")
    a = _j1_matrix(k, alpha, beta)
    z, s = complex(z0), a.signs
    x = [s.d**m * q for m, q in zip(range(k), three_term(z, 1.0 + 0j, z - 1.0, s.c * s.d))]
    resid = max(abs(sum(v * x[col] for col, v in row) - z * xi) for row, xi in zip(a.rows, x))
    scale = max(map(abs, x))
    if resid > 1e-9 * scale:
        raise ValueError(f"z0={z0} is not an eigenvalue: residual {resid:.3e} vs scale {scale:.3e}")
    return np.array(x, dtype=complex)


def _cycle_blocks(matrix: FrozenMatrix) -> tuple[int, list[tuple[int, int]]]:
    """sgn(sigma_a) and (L, block det) per cycle of the row-column graph.

    With exactly two nonzeros per row and per column (asserted) the
    bipartite row-column graph is a union of even cycles, and the matrix is,
    up to a permutation, the direct sum of one block per cycle.  Walking a
    cycle of L rows picks an a-edge in each row and reaches the next row by
    the b-edge of that column; the only permutations inside the block are
    all-a and all-b, so the block det is prod(a) + (-1)^(L-1) prod(b), taken
    relative to sigma_a, the permutation that picks every a-edge.
    """
    rows = matrix.rows
    col_rows: list[list[tuple[int, int]]] = [[] for _ in rows]
    for i, row in enumerate(rows):
        if len(row) != 2 or row[0][0] == row[1][0] or not (row[0][1] and row[1][1]):
            raise AssertionError(f"row {i} is {row}, expected two nonzeros in distinct columns")
        for col, v in row:
            col_rows[col].append((i, v))
    for col, entries in enumerate(col_rows):
        if len(entries) != 2:
            raise AssertionError(f"column {col} has {len(entries)} nonzeros, expected 2")
    sigma_a = [-1] * len(rows)
    blocks = []
    for start in range(len(rows)):
        if sigma_a[start] >= 0:
            continue
        i, (col, v) = start, rows[start][0]
        prod_a = prod_b = 1
        length = 0
        while True:
            sigma_a[i] = col
            prod_a *= v
            length += 1
            (r1, w1), (r2, w2) = col_rows[col]
            i, w = (r2, w2) if r1 == i else (r1, w1)
            prod_b *= w
            if i == start:
                break
            (c1, v1), (c2, v2) = rows[i]
            col, v = (c2, v2) if c1 == col else (c1, v1)
        blocks.append((length, prod_a + (-1) ** (length - 1) * prod_b))
    return _perm_sign(sigma_a), blocks


def _perm_sign(perm: list[int]) -> int:
    """Sign of a permutation of 0..n-1: (-1)^(L-1) per cycle of L elements."""
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            sign = -sign
        sign = -sign
    return sign


def rank(matrix: FrozenMatrix) -> int:
    """Exact rank: L per cycle block with nonzero det, L - 1 per singular one."""
    if matrix.k == 1:
        return len(matrix.rows[0])
    return sum(length if det else length - 1 for length, det in _cycle_blocks(matrix)[1])


def det_exact(matrix: FrozenMatrix) -> int:
    """Exact determinant: sgn(sigma_a) times the product of the cycle-block dets."""
    if matrix.k == 1:
        return sum(v for _, v in matrix.rows[0])
    sign, blocks = _cycle_blocks(matrix)
    return sign * math.prod(det for _, det in blocks)
