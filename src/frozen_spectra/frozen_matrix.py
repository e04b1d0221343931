"""Exact construction and spectral analysis of the main-equation matrices.

The k x k integer matrix attached to a config (alpha, beta, a = j/k) has
four constant subdiagonal families (entries 1, d, c, c); its kernel decides
whether the inverse problem has a unique solution.  Everything structural
here is exact integer arithmetic: characteristic polynomials via the
tridiagonal recurrence, closed-form determinants, the Chebyshev reduction
of j > 1 to j = 1, and kernel vectors.  Floats appear only in the numeric
eigenvalue cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import intlinalg
from .chebyshev import IntPolynomial, X, imag_scaled_cheb_int, scaled_cheb_int
from .core_params import Kind, ProblemConfig, SignPair, classify, make_config, sign_pair


@dataclass(frozen=True, eq=False)
class FrozenMatrix:
    config: ProblemConfig
    signs: SignPair
    entries: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.entries)

    def as_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    def as_array(self, dtype=float) -> np.ndarray:
        return np.array(self.entries, dtype=dtype)


@dataclass(frozen=True)
class KernelDescriptor:
    dimension: int  # 0 or 1
    generator: tuple[int, ...]  # +-1 entries, empty when dimension == 0


def build_matrix(config: ProblemConfig) -> FrozenMatrix:
    """Exact entries of the k x k main-equation matrix.

    For k >= 2 the four families are
      (i)   a[m, j-m+1] = 1   m = 1..j        (top-left antidiagonal)
      (ii)  a[m, m+j]   = d   m = 1..k-j      (upper subdiagonal)
      (iii) a[m, m-j]   = c   m = j+1..k      (lower subdiagonal)
      (iv)  a[m, 2k-m-j+1] = c  m = k-j+1..k  (bottom-right antidiagonal)
    (1-based indices).  For coprime j, k the families never collide, which
    is asserted.  For k = 1 (a = 0) the single entry is 2*c*alpha.
    """
    j, k = config.j, config.k
    signs = sign_pair(config)
    c, d = signs.c, signs.d
    if k == 1:
        return FrozenMatrix(config, signs, ((2 * c * config.alpha,),))
    if not 1 <= j or 2 * j > k:
        raise ValueError(f"need a normalized config with 1 <= j <= k/2, got j={j}, k={k}")
    entries = [[0] * k for _ in range(k)]
    assigned = set()

    def put(m: int, n: int, value: int) -> None:
        if (m, n) in assigned:
            raise AssertionError(f"subdiagonal families collide at ({m}, {n})")
        assigned.add((m, n))
        entries[m - 1][n - 1] = value

    for m in range(1, j + 1):
        put(m, j - m + 1, 1)
    for m in range(1, k - j + 1):
        put(m, m + j, d)
    for m in range(j + 1, k + 1):
        put(m, m - j, c)
    for m in range(k - j + 1, k + 1):
        put(m, 2 * k - m - j + 1, c)
    return FrozenMatrix(config, signs, tuple(tuple(row) for row in entries))


def _signs(alpha: int, beta: int) -> SignPair:
    return SignPair((-1) ** (beta + 1), (-1) ** (alpha + beta))


def _tridiag_char_polys(k: int, alpha: int, beta: int) -> list[IntPolynomial]:
    """q_0 .. q_{k-1}: q_0 = 1, q_1 = z - 1, q_{n+1} = z q_n - cd q_{n-1}."""
    s = _signs(alpha, beta)
    cd = s.c * s.d
    polys = [IntPolynomial((1,)), IntPolynomial((-1, 1))]
    for _ in range(k - 2):
        polys.append(X * polys[-1] - cd * polys[-2])
    return polys[:k]


def char_poly_j1(k: int, alpha: int, beta: int) -> IntPolynomial:
    """det(zI - A) for j = 1 via the tridiagonal recurrence.

    p_k(z) = (z - c) q_{k-1}(z) - c d q_{k-2}(z).
    """
    if k < 2:
        raise ValueError("char_poly_j1 needs k >= 2")
    s = _signs(alpha, beta)
    q = _tridiag_char_polys(k, alpha, beta)
    return (X - s.c * IntPolynomial((1,))) * q[k - 1] - (s.c * s.d) * q[k - 2]


def det_closed_form(k: int, alpha: int, beta: int) -> int:
    """Closed-form determinant of the j = 1 matrix.

    (-cd)^((k-1)/2) (1 + c) for odd k, c (-cd)^(k/2-1) (1 - d) for even k.
    """
    if k < 2:
        raise ValueError("det_closed_form needs k >= 2")
    s = _signs(alpha, beta)
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
    if alpha == 0 and beta == 0:
        return imag_scaled_cheb_int("U", k - 1).shift_up()
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


def _row_pairs(m: list[list[int]]) -> list[tuple[int, int, int, int]]:
    """Nonzeros of each row of m as (col, value, col, value).

    A row with fewer than two nonzeros is padded with (0, 0) terms.  The
    at-most-two-per-row pattern of j = 1 matrices is asserted.
    """
    pairs = []
    for i, row in enumerate(m):
        nz = [(col, v) for col, v in enumerate(row) if v]
        if len(nz) > 2:
            raise AssertionError(f"row {i} has {len(nz)} nonzeros, expected at most 2")
        nz += [(0, 0)] * (2 - len(nz))
        pairs.append((*nz[0], *nz[1]))
    return pairs


def _mul_sub(pairs, y: list[list[int]], sub: list[list[int]]) -> list[list[int]]:
    """M @ y - sub, with M given by its _row_pairs: two scaled rows of y per row."""
    return [
        [s * a + t * b - z for a, b, z in zip(y[p], y[q], sub_row)]
        for (p, s, q, t), sub_row in zip(pairs, sub)
    ]


def reduce_to_j1(config: ProblemConfig) -> list[list[int]]:
    """Build the j > 1 matrix from j = 1 matrices via Chebyshev polynomials.

    alpha = 0:  U_{j-1}(-(c/2) B) * A1   with B the (1, 1-beta) matrix and
                A1 the (0, beta) one;
    alpha = 1:  2c T_j((c/2) B)         with B the (1, beta) matrix.
    With M = -c B resp. c B, both are evaluated by the matrix three-term
    recurrence Z_{n+1} = M Z_n - Z_{n-1}: from Z_0 = A1, Z_1 = M A1 up to
    Z_{j-1} for alpha = 0, and from Z_0 = 2I, Z_1 = M up to c Z_j for
    alpha = 1.  B has at most two nonzeros per row, so each step is two
    scaled row adds per row and the whole reduction costs O(j k^2).  M is
    an integer matrix and nothing is divided, so every Z_n stays in Z.
    """
    j, k = config.j, config.k
    if k < 2 or not 1 <= j or 2 * j > k:
        raise ValueError("reduce_to_j1 needs a normalized config with k >= 2 and 1 <= j <= k/2")
    c = sign_pair(config).c
    if config.alpha == 0:
        m = intlinalg.mat_scale(-c, build_matrix(make_config(1, 1 - config.beta, 1, k)).as_lists())
        prev = [[0] * k for _ in range(k)]
        cur = build_matrix(make_config(0, config.beta, 1, k)).as_lists()
    else:
        m = intlinalg.mat_scale(c, build_matrix(make_config(1, config.beta, 1, k)).as_lists())
        prev, cur = intlinalg.mat_scale(2, intlinalg.identity(k)), m
    pairs = _row_pairs(m)
    for _ in range(j - 1):
        prev, cur = cur, _mul_sub(pairs, cur, prev)
    return intlinalg.mat_scale(c, cur) if config.alpha else cur


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
    a = build_matrix(config).as_lists()
    if any(intlinalg.matvec(a, x)):
        raise AssertionError(f"closed-form kernel vector failed A X = 0 for {config}")
    return KernelDescriptor(1, x)


def eigvec_j1(z0: complex, k: int, alpha: int, beta: int) -> np.ndarray:
    """Eigenvector of the j = 1 matrix for eigenvalue z0.

    Component m is d^(m-1) q_{m-1}(z0) with the tridiagonal recurrence
    polynomials q_n.  The residual ||A x - z0 x||_inf <= 1e-9 ||x||_inf is
    checked a posteriori; failure means z0 was not an eigenvalue.
    """
    if k < 2:
        raise ValueError("eigvec_j1 needs k >= 2")
    s = _signs(alpha, beta)
    cd = s.c * s.d
    vals = [1.0 + 0j, complex(z0) - 1.0]
    for _ in range(k - 2):
        vals.append(z0 * vals[-1] - cd * vals[-2])
    x = np.array([s.d ** m * vals[m] for m in range(k)], dtype=complex)
    a = build_matrix(make_config(alpha, beta, 1, k)).as_array(complex)
    resid = np.abs(a @ x - z0 * x).max()
    scale = np.abs(x).max()
    if resid > 1e-9 * scale:
        raise ValueError(f"z0={z0} is not an eigenvalue: residual {resid:.3e} vs scale {scale:.3e}")
    return x


def rank(matrix) -> int:
    """Exact rank of an integer matrix (fraction-free elimination)."""
    if isinstance(matrix, FrozenMatrix):
        matrix = matrix.as_lists()
    return intlinalg.bareiss_rank(matrix)


def det_exact(matrix) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    if isinstance(matrix, FrozenMatrix):
        matrix = matrix.as_lists()
    return intlinalg.bareiss_det(matrix)
