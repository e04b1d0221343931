"""Exact construction and spectral analysis of the main-equation matrices.

The k x k integer matrix attached to a config (alpha, beta, a = j/k) has
four constant subdiagonal families (entries 1, d, c, c); its kernel decides
whether the inverse problem has a unique solution.  Everything structural
here is exact integer arithmetic: characteristic polynomials read by k
from one stored run of the tridiagonal j = 1 recurrence per (alpha, beta),
which steps only past the largest k read so far, closed-form
determinants and kernel vectors, and the Chebyshev reduction of j > 1 to
j = 1.  Floats appear only in the j = 1 eigenvalues, LAPACK's eigvals of
the built matrix with the zero count read exactly off the characteristic
polynomial, and in the j = 1 eigenvectors, the same recurrence run on the
eigenvalue vector, one run per spectrum.  Every j = 1 helper enters
through one guard, _j1_signs; the signs c, d are read from core_params
only, and a FrozenMatrix holds no copy.  No j = 1 matrix is cached: each
call builds the one it reads, in O(k).

Every main-equation matrix is a signed sum of two permutations: two
entries per row and per column, both in column 0 at a = 0 (k = 1).  Stored
as sparse rows, each read as its two (col, value) pairs by the Chebyshev
step and the eigenvector residual (any other length raises
AssertionError).  On the circle Z/2k with p and 2k - 1 - p identified, row
i holds its entries in columns fold(i - j) and fold(i + j), and the
row-column graph of a coprime config is one closed-form orbit through all
k rows: det, rank, the kernel and solve_inverse read it off the config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice

import numpy as np

from .chebyshev import IntPolynomial, StoredRun, X, imag_scaled_cheb_int, scaled_cheb_int, three_term
from .core_params import (
    _SIGN_PAIRS,
    Kind,
    ProblemConfig,
    SignPair,
    classify,
    is_int,
    make_config,
    require_flags,
    require_normalized,
    sign_pair,
)


# Per row, its two family entries as (col, value) pairs sorted by column; as_lists sums a shared column (a = 0).
SparseRows = tuple[tuple[tuple[int, int], ...], ...]


@dataclass(frozen=True, eq=False)
class FrozenMatrix:
    config: ProblemConfig
    rows: SparseRows

    @property
    def k(self) -> int:
        return len(self.rows)

    def as_lists(self) -> list[list[int]]:
        dense = [[0] * self.k for _ in self.rows]
        for out, row in zip(dense, self.rows):
            for col, v in row:
                out[col] += v
        return dense

    def as_float(self) -> np.ndarray:
        """The dense float matrix: each row's two entries added into zeros, so a shared column sums as in as_lists."""
        dense = np.zeros((self.k, self.k))
        for out, ((c1, v1), (c2, v2)) in zip(dense, self.rows):
            out[c1] += v1
            out[c2] += v2
        return dense

    @cached_property
    def orbit(self) -> Orbit:
        """orbit(config), read on first use and kept: det_exact, rank and null_vector share it."""
        return orbit(self.config)

    @property
    def null_vector(self) -> tuple[int, ...]:
        return self.orbit.null_vector


@dataclass(frozen=True)
class KernelDescriptor:
    generator: tuple[int, ...]  # +-1 entries, empty for a regular matrix

    @property
    def dimension(self) -> int:
        return 1 if self.generator else 0


def _family_rows(config: ProblemConfig) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Per row i, its fold(i - j) entry (1 if i < j, else c) and its fold(i + j) entry (d if i < k - j, else c).

    fold(p) = p for p < k, else 2k - 1 - p, on p mod 2k.  2j > k raises ValueError (require_normalized).
    """
    require_normalized(config)
    j, k = config.j, config.k
    signs = sign_pair(config)
    c, d = signs.c, signs.d
    return [
        ((j - 1 - i, 1) if i < j else (i - j, c), (i + j, d) if i < k - j else (2 * k - 1 - i - j, c))
        for i in range(k)
    ]


def build_matrix(config: ProblemConfig) -> FrozenMatrix:
    """Exact sparse rows of the k x k main-equation matrix, in O(k): _family_rows, sorted by column.

    The fold rule gives the paper's four families (1-based, m = i + 1)
      (i)   a[m, j-m+1] = 1   m = 1..j        (top-left antidiagonal)
      (ii)  a[m, m+j]   = d   m = 1..k-j      (upper subdiagonal)
      (iii) a[m, m-j]   = c   m = j+1..k      (lower subdiagonal)
      (iv)  a[m, 2k-m-j+1] = c  m = k-j+1..k  (bottom-right antidiagonal)
    The two columns of row i agree only if 2j or 2i - 2k + 1 is 0 mod 2k,
    so only at j = 0 (a = 0, k = 1), where the one row holds c and d in
    column 0.
    """
    rows = tuple((left, right) if left[0] < right[0] else (right, left) for left, right in _family_rows(config))
    return FrozenMatrix(config, rows)


@dataclass(frozen=True)
class Orbit:
    """The one cycle of a coprime config's matrix, t = 0..k-1 (see orbit).

    Row r_t holds a_t in column c_t and b_t in column c_(t-1), c_(-1) =
    c_(k-1); g_t = prod_{s<=t} (-a_s b_s); sign is sgn(sigma_a).
    """

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    a: tuple[int, ...]
    g: tuple[int, ...]
    sign: int

    @property
    def null_vector(self) -> tuple[int, ...]:
        """X[c_t] = +-g_t with X[0] = +1: row r_t reads a_t g_t + b_t g_(t-1) = 0; () if regular."""
        x = dict(zip(self.cols, self.g))
        return tuple(x[0] * x[col] for col in range(len(x))) if self.g[-1] == 1 else ()


def orbit(config: ProblemConfig) -> Orbit:
    """The row-column graph of a coprime config's matrix as one closed-form cycle, in O(k).

    With p_t = -2jt mod 2k, row r_t = fold(p_t) holds its a-edge in column
    c_t = fold(p_t - j): its fold(i - j) entry if p_t < k (r_t = p_t), else
    its fold(i + j) entry (r_t = 2k - 1 - p_t, and fold(2k - 1 - q) =
    fold(q)).  By the same identity row r_(t+1) holds its other entry, the
    b-edge, in column fold(p_(t+1) + j) = c_t.  fold maps the k even
    residues of Z/2k one to one onto 0..k-1, as it does the odd ones; 2j
    generates the even residues iff gcd(j, k) = 1.  So the r_t are all k
    rows, the c_t all k columns, and A sums the permutations sigma_a:
    r_t -> c_t and sigma_b: r_t -> c_(t-1), which differ by one k-cycle.
    No other permutation picks a nonzero in every row, so
    det = sgn(sigma_a) (prod(a) + (-1)^(k-1) prod(b)) = sgn(sigma_a) prod(a) (1 - g_(k-1)),
    and X[c_0] fixes a kernel vector row by row: rank = k - (det == 0).

    sigma_a = F' tau F^-1, F and F' fold on the even residues E and on
    E - j, tau(p) = p - j.  A shift of E by 2u is one of Z/k by u, of sign
    (-1)^(u(k-1)).  For even j, F' = F and tau is such a shift.  For odd j,
    tau is the shift by j - 1 and then p -> p - 1, and F' (p -> p - 1) F^-1
    swaps 2m - 1 and 2m for m = 1..(k-1)//2 and fixes the rest.  Both give
    sgn(sigma_a) = (-1)^((j//2)(k-1) + (j%2)((k-1)//2)).  At a = 0 (k = 1)
    the one row holds a_0 = c and b_0 = d in column 0, det = c + d.  A
    config built past make_config with gcd(j, k) > 1 has several cycles
    and raises ValueError naming its reduced config.
    """
    entries = _family_rows(config)
    j, k = config.j, config.k
    if math.gcd(j, k) != 1:
        raise ValueError(
            f"gcd(j, k) = {math.gcd(j, k)} in {config}: only a coprime config's matrix is one orbit; "
            f"make_config reduces it to {make_config(config.alpha, config.beta, j, k)}"
        )
    rows, cols, a, g = [], [], [], []
    p, sign = 0, 1
    for _ in range(k):
        r = p if p < k else 2 * k - 1 - p
        (col, at), (_, bt) = entries[r] if p < k else entries[r][::-1]
        sign *= -at * bt
        rows.append(r)
        cols.append(col)
        a.append(at)
        g.append(sign)
        p = (p - 2 * j) % (2 * k)
    return Orbit(tuple(rows), tuple(cols), tuple(a), tuple(g), (-1) ** ((j // 2) * (k - 1) + (j % 2) * ((k - 1) // 2)))


def _j1_signs(name: str, k: int, alpha: int, beta: int) -> SignPair:
    """The j = 1 entry check, an integer k >= 2 and then the flags before a cache takes True as 1; their SignPair."""
    if not is_int(k) or k < 2:
        raise ValueError(f"{name} needs k >= 2")
    require_flags(alpha, beta)
    return _SIGN_PAIRS[alpha, beta]


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
    s = _SIGN_PAIRS[alpha, beta]
    return StoredRun(X, IntPolynomial((1 - s.d,)), X - IntPolynomial((1 + s.c,)), s.c * s.d)


def char_poly_j1(k: int, alpha: int, beta: int) -> IntPolynomial:
    """det(zI - A) for j = 1: entry k of the stored run of (alpha, beta)."""
    _j1_signs("char_poly_j1", k, alpha, beta)
    return _char_poly_run(alpha, beta)[k]


def det_closed_form(k: int, alpha: int, beta: int) -> int:
    """Closed-form determinant of the j = 1 matrix.

    (-cd)^((k-1)/2) (1 + c) for odd k, c (-cd)^(k/2-1) (1 - d) for even k.
    """
    s = _j1_signs("det_closed_form", k, alpha, beta)
    c, d = s.c, s.d
    if k % 2:
        return (-c * d) ** ((k - 1) // 2) * (1 + c)
    return c * (-c * d) ** (k // 2 - 1) * (1 - d)


_KERNEL_SIGNS = {
    (0, 0): lambda v: (-1) ** (v - 1),
    (0, 1): lambda v: (-1) ** (v // 2),
    (1, 0): lambda v: (-1) ** ((v - 1) // 2),
    (1, 1): lambda v: (-1) ** (v // 2),
}


def kernel_closed_form(config: ProblemConfig) -> tuple[int, ...]:
    """The paper's +-1 kernel vector X, X_v for v = 1..k, in the four degenerate cases; () otherwise."""
    if classify(config).kind is Kind.NON_DEGENERATE:
        return ()
    return tuple(map(_KERNEL_SIGNS[(config.alpha, config.beta)], range(1, config.k + 1)))


def theorem1_poly(k: int, alpha: int, beta: int) -> IntPolynomial:
    """Chebyshev closed form of det(zI - A) for j = 1, expanded exactly.

    (0,0): z * i^(k-1) U_{k-1}(z/2i)
    (0,1): 2 i^k T_k(z/2i) - 2 i^(k-1) U_{k-1}(z/2i)
    (1,0): 2 T_k(z/2)
    (1,1): (z - 2) U_{k-1}(z/2)
    The imaginary-argument cases reduce to integer polynomials; the
    construction asserts that every power of i cancels.
    """
    _j1_signs("theorem1_poly", k, alpha, beta)
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
    _j1_signs("spectrum_closed_form", k, alpha, beta)
    if alpha == 0 and beta == 0:
        return [0j] + [2j * math.cos(v * math.pi / k) for v in range(1, k)]
    if alpha == 0 and beta == 1:
        raise ValueError("no closed-form spectrum for (alpha, beta) = (0, 1); use numeric_spectrum_j1")
    if alpha == 1 and beta == 0:
        return [complex(2 * math.cos((2 * v + 1) * math.pi / (2 * k))) for v in range(k)]
    return [complex(2 * math.cos(v * math.pi / k)) for v in range(k)]


def numeric_spectrum_j1(k: int, alpha: int, beta: int) -> list[complex]:
    """Numeric eigenvalues of the j = 1 matrix: LAPACK's eigvals of the built matrix, exact zeros.

    The tridiagonal +-1 matrix is well conditioned where the monomial
    coefficients of its characteristic polynomial are not (they reach 6e40
    at k = 200, so roots taken from them drift by O(1)).  The multiplicity
    of the zero eigenvalue is read exactly from the vanishing low-order
    coefficients of char_poly_j1, and that many eigenvalues of smallest
    modulus are set to 0j: the (0,0) double zero of even k is a Jordan
    block, which eigvals alone returns as a pair near +-1e-8.  Tested
    within 1e-12 of the closed forms for k <= 40 and k in {60, 120, 200},
    and against the Lemma 2 residual of eigvec_j1 for (0,1).
    """
    _j1_signs("numeric_spectrum_j1", k, alpha, beta)
    p = char_poly_j1(k, alpha, beta)
    zero_mult = next(i for i, c in enumerate(p.coeffs) if c != 0)
    z = np.linalg.eigvals(build_matrix(make_config(alpha, beta, 1, k)).as_float()).astype(complex)
    z[np.argsort(np.abs(z))[:zero_mult]] = 0j
    return z.tolist()


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
    c = _j1_signs("reductions_j1", k, alpha, beta).c
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


def _mul_sub(m, y, sub) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """M @ y - sub on two-entry sparse rows, with M given as ((col, value), (col, value)) per row.

    Row i is s y[p] + t y[q] - sub[i], four terms read off the pairs of
    y[p] and y[q].  Two of them cancel: against sub[i], or, in the first
    step (where sub[i] has no entry for alpha = 0 and one for alpha = 1),
    at the column y[p] and y[q] share.  Exactly one term of y[p] and one
    of y[q] must remain; that, two entries in every row of M and y, and
    no sub entry off the four columns are asserted.
    """
    out = []
    try:
        for ((p, s), (q, t)), sub_row in zip(m, sub):
            (a1, v1), (a2, v2) = y[p]
            (b1, w1), (b2, w2) = y[q]
            v1, v2, w1, w2 = s * v1, s * v2, t * w1, t * w2
            for col, v in sub_row:
                if col == a1:
                    v1 -= v
                elif col == a2:
                    v2 -= v
                elif col == b1:
                    w1 -= v
                elif col == b2:
                    w2 -= v
                else:
                    raise AssertionError(f"a sub entry in column {col} is off the columns of M @ y")
            if b1 == a1:
                v1, w1 = v1 + w1, 0
            elif b1 == a2:
                v2, w1 = v2 + w1, 0
            if b2 == a1:
                v1, w2 = v1 + w2, 0
            elif b2 == a2:
                v2, w2 = v2 + w2, 0
            if (not v1) == (not v2) or (not w1) == (not w2):
                raise AssertionError(f"M @ y - sub keeps other than one term of y[{p}] and one of y[{q}]")
            left = (a1, v1) if v1 else (a2, v2)
            right = (b1, w1) if w1 else (b2, w2)
            out.append((left, right) if left < right else (right, left))
    except ValueError:
        raise AssertionError("every row of M and of y must hold exactly two entries") from None
    return out


def reduce_to_j1(config: ProblemConfig) -> SparseRows:
    """Sparse rows of the j > 1 matrix by the Chebyshev reduction (see reductions_j1)."""
    require_normalized(config)
    _j1_signs("reduce_to_j1", config.k, config.alpha, config.beta)
    return next(rows for jj, rows in reductions_j1(config.alpha, config.beta, config.k) if jj == config.j)


def kernel(config: ProblemConfig) -> KernelDescriptor:
    """Kernel of the main-equation matrix, read off its orbit: Orbit.null_vector, +-1 or ()."""
    return KernelDescriptor(orbit(config).null_vector)


def eigvec_j1(z, k: int, alpha: int, beta: int) -> np.ndarray:
    """Eigenvectors of the j = 1 matrix: the (k, L) columns for a 1-D array z of L eigenvalues.

    Component m is d^(m-1) q_{m-1}(z_i): the minors q_n of _char_poly_run,
    their three_term run on the eigenvalue vector, one run for the whole
    array.  One eigenvalue is the batch [z0] (any other shape of z is a
    ValueError), so a column has the same bits alone as in any batch.  The
    residual ||A x - z_i x||_inf <= 1e-9 ||x||_inf is checked a posteriori
    per column on the sparse rows, each read as its two entries (any other
    length is an AssertionError); a column that fails it, a non-finite z_i
    included, means z_i was not an eigenvalue, a ValueError naming the first.
    """
    s = _j1_signs("eigvec_j1", k, alpha, beta)
    rows = build_matrix(make_config(alpha, beta, 1, k)).rows
    try:
        (c1, v1), (c2, v2) = np.array(rows).transpose(1, 2, 0)  # per pair, its k columns and k values
    except ValueError:
        raise AssertionError(f"a row of the j = 1 matrix for k={k} does not hold exactly two entries") from None
    z = np.asarray(z, dtype=complex)
    if z.ndim != 1:
        raise ValueError(f"z must be a 1-D array of eigenvalues, got shape {z.shape}")
    with np.errstate(all="ignore"):  # a non-finite z0 fails the residual test below, silently
        x = np.array(list(islice(three_term(z, np.ones_like(z), z - 1.0, s.c * s.d), k)))
        x = s.d ** np.arange(k)[:, None] * x  # row m is d^m q_m
        resid = np.abs(v1[:, None] * x[c1] + v2[:, None] * x[c2] - z * x).max(axis=0)
        scale = np.abs(x).max(axis=0)
    failed = np.flatnonzero(~(resid <= 1e-9 * scale))
    if failed.size:
        i = failed[0]
        raise ValueError(f"z0={z[i]} is not an eigenvalue: residual {resid[i]:.3e} vs scale {scale[i]:.3e}")
    return x


def rank(matrix: FrozenMatrix) -> int:
    """Exact rank: k, less one when det = 0, i.e. g_(k-1) = +1 on the orbit."""
    return matrix.k - (matrix.orbit.g[-1] == 1)


def det_exact(matrix: FrozenMatrix) -> int:
    """Exact determinant, read off the orbit: sgn(sigma_a) prod(a) (1 - g_(k-1))."""
    o = matrix.orbit
    return o.sign * math.prod(o.a) * (1 - o.g[-1])
