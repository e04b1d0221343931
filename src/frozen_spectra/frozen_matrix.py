"""Exact construction and spectral analysis of the main-equation matrices.

The k x k integer matrix attached to a config (alpha, beta, a = j/k) has
four constant subdiagonal families (entries 1, d, c, c); its kernel decides
whether the inverse problem has a unique solution.  Everything structural
here is exact integer arithmetic: characteristic polynomials read by k
from one stored run of the tridiagonal j = 1 recurrence per (alpha, beta),
which steps only past the largest k read so far, closed-form
determinants and kernel vectors, and the Chebyshev reduction of j > 1 to
j = 1.  Floats appear only in the j = 1 eigenvalues, LAPACK's eigvals of
the fold rule's dense rows with the zero count read exactly off the
characteristic polynomial, and in the j = 1 eigenvectors, the same
recurrence run on the eigenvalue array.  Each runs on several flag pairs
at once (numeric_spectra_j1, eigvecs_j1): one fold rule, one eigvals call
or one recurrence pass, with the signs as a column per pair, and each row
has the bits of its pair alone; eigvecs_j1 also takes a k per column, so
one pass serves every k.  numeric_spectrum_j1 and eigvec_j1 are
their batch of one, behind one guard, _j1_signs, as every public j = 1
helper is.  Every sign, the Chebyshev start's included, is
core_params.signs of the flags: ints, or flag columns (_flag_columns).
No j = 1 matrix is cached: each call runs the fold rule on the rows it reads.

Every main-equation matrix is a signed sum of two permutations: two
entries per row and per column, both in column 0 at a = 0 (k = 1).  On the
circle Z/2k with p and 2k - 1 - p identified, row i holds its entries in
columns fold(i - j) and fold(i + j) (the fold rule, _fold_rule), and the
row-column graph of a coprime config is one closed-form orbit through all
k rows: det, rank, the kernel and solve_inverse read it off the rows.  A
k of 2^31 or more is refused before its rows are allocated, and so is a
dense matrix the allocator refuses (_zeros).  The fold rule, the orbit
(_orbits) and the Chebyshev step (_mul_sub) each have one
implementation, on int64 arrays whose entries stay in [-1, 1] (2 in the
first Chebyshev sub), asserted where a step makes new ones.  A call
for one config is a batch of one; identities runs them on every
(k, alpha, beta) at once, and the orbits of several k in one pass, each
padded by fixed points to the largest k of the pass (orbits_of).  A
matrix has one sparse form, the fold rule's four arrays (lc, lv, rc,
rv), each row's two entries in family order, and one dense form, the
int64 (k, k) array _dense scatters them into.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np

from .chebyshev import IntPolynomial, StoredRun, X, imag_scaled_cheb_int, scaled_cheb_int, three_term
from .core_params import ProblemConfig, allocate, is_int, make_config, require_flags, require_normalized, signs


def _flag_columns(pairs) -> np.ndarray:
    """alpha and beta of each flag pair of pairs, a (len(pairs), 1) int64 column each."""
    return np.array(pairs).T[:, :, None]


_FLAG_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))  # the order of the flag pairs wherever all four are stacked or swept
_FLAGS = _flag_columns(_FLAG_PAIRS)  # alpha and beta of _FLAG_PAIRS, a (4, 1) column each


def _fold_rule(i, j, k, c, d) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per row i, its fold(i - j) entry (lc, lv) and its fold(i + j) entry (rc, rv), as int64 arrays.

    lv is 1 if i < j, else c; rv is d if i < k - j, else c.  fold(p) = p
    for p < k, else 2k - 1 - p, on p mod 2k: on -k < t < k, fold(t) =
    max(t, -1 - t), and on 0 <= u < 2k, fold(u) = min(u, 2k - 1 - u).
    The arguments broadcast, so one call serves one config (i = 0..k-1)
    or a stack of them.
    """
    t, u = i - j, i + j
    return np.maximum(t, ~t), np.where(t < 0, 1, c), np.minimum(u, 2 * k - 1 - u), np.where(u < k, d, c)


def _require_rows(k: int) -> None:
    """ValueError naming k unless k < 2^31, checked before k rows are allocated.

    Below it the orbit's positions 2jt < 2k^2 stay in int64.  Past it
    np.arange(k) would ask for tens of GiB (745 GiB at k = 10^11), or give
    an empty float64 range (k = 2^63).
    """
    if k >= 2**31:
        raise ValueError(f"k={k} is too large: the fold rule and the orbit take fewer than 2^31 rows")


def _family(config: ProblemConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """_fold_rule on the k rows of a config; 2j > k (require_normalized) or k >= 2^31 (_require_rows): ValueError."""
    require_normalized(config)
    _require_rows(config.k)
    return _fold_rule(np.arange(config.k), config.j, config.k, *signs(config.alpha, config.beta))


def _zeros(shape: tuple[int, ...]) -> np.ndarray:
    """The int64 zeros of a dense (k, k) matrix or (n, k, k) stack, allocated before its rows.

    A size the allocator refuses is a ValueError naming k (core_params.allocate),
    so it is refused before the fold rule allocates its k-length arrays.
    """
    k = shape[-1]
    refusal = f"a dense matrix with k={k} has {k * k} entries, too many to allocate"
    return allocate(lambda: np.zeros(shape, np.int64), refusal)


def _row_starts(shape: tuple[int, ...], width: int) -> np.ndarray:
    """The flat position of entry 0 of each row of width entries in a C-ordered batch, the rows laid out in shape."""
    return width * np.arange(math.prod(shape)).reshape(shape)


def _dense(dense, lc, lv, rc, rv) -> np.ndarray:
    """The int64 dense matrix of k rows of two entries each, added into the zeros dense: a shared column (a = 0) sums.

    (n, k) values give a stack of n matrices, their columns (n, k) or one
    (k,) for all.  Both entries are scattered to flat positions of the
    C-contiguous zeros, entry (b, i) of the values into row b k + i.
    """
    flat, at = dense.reshape(-1), _row_starts(lv.shape, lv.shape[-1])
    flat[at + lc] = lv
    flat[at + rc] += rv
    return dense


@dataclass(frozen=True)
class KernelDescriptor:
    generator: tuple[int, ...]  # +-1 entries, empty for a regular matrix

    @property
    def dimension(self) -> int:
        return 1 if self.generator else 0


def build_matrix(config: ProblemConfig) -> np.ndarray:
    """The k x k main-equation matrix as an int64 array, in O(k^2): _dense of _fold_rule's rows.

    The fold rule gives the paper's four families (1-based, m = i + 1)
      (i)   a[m, j-m+1] = 1   m = 1..j        (top-left antidiagonal)
      (ii)  a[m, m+j]   = d   m = 1..k-j      (upper subdiagonal)
      (iii) a[m, m-j]   = c   m = j+1..k      (lower subdiagonal)
      (iv)  a[m, 2k-m-j+1] = c  m = k-j+1..k  (bottom-right antidiagonal)
    The two columns of row i agree only if 2j or 2i - 2k + 1 is 0 mod 2k,
    so only at j = 0 (a = 0, k = 1), where the one row holds c and d in
    column 0.  Every exact question about the matrix is read in O(k) off
    its orbit instead (see orbit).
    """
    require_normalized(config)
    _require_rows(config.k)  # a k past the fold rule is named before the dense size
    return _dense(_zeros((config.k, config.k)), *_family(config))


@dataclass(frozen=True, eq=False)
class Orbit:
    """The one cycle of each coprime config's matrix in a batch, t = 0..k-1 on the last axis (see orbit).

    Row r_t holds a_t in column c_t and b_t in column c_(t-1), c_(-1) =
    c_(k-1); g_t = prod_{s<=t} (-a_s b_s); sign is sgn(sigma_a).  One
    config's orbit is a batch of one, with 1-D arrays and a scalar sign.
    In a batch of several k the last axis runs to the largest, K, and an
    orbit of k < K is padded by fixed points: r_t = c_t = t, a_t = 1 and
    -a_t b_t = 1 for k <= t < K.  So g_t = g_(k-1) and the product of a
    is unchanged there, and det, singular and null_vectors read the same
    on its first k entries as on the orbit alone; null_vectors past k
    is padding, no entry of a kernel.
    """

    rows: np.ndarray
    cols: np.ndarray
    a: np.ndarray
    g: np.ndarray
    sign: np.ndarray | int

    @property
    def singular(self) -> np.ndarray:
        """det = 0, i.e. g_(k-1) = +1."""
        return self.g[..., -1] == 1

    @property
    def det(self) -> np.ndarray:
        """sgn(sigma_a) prod(a) (1 - g_(k-1)): 0 or +-2, exact in int64."""
        return self.sign * np.prod(self.a, axis=-1) * (1 - self.g[..., -1])

    @property
    def null_vectors(self) -> np.ndarray:
        """X[c_t] = +-g_t with X[0] = +1: row r_t reads a_t g_t + b_t g_(t-1) = 0 where singular."""
        x = np.empty(self.g.shape, self.g.dtype)
        x.reshape(-1)[self.cols + _row_starts((*self.cols.shape[:-1], 1), self.cols.shape[-1])] = self.g
        return x * x[..., :1]

    @property
    def null_vector(self) -> tuple[int, ...]:
        """One config's null_vectors as a tuple; () if regular."""
        return tuple(self.null_vectors.tolist()) if self.singular else ()


def _orbits(j, k, lc, lv, rc, rv) -> Orbit:
    """The orbits of a batch of coprime configs, read off the fold rule's (..., K) arrays in one pass.

    j is an int, or an array of one j per config of the batch; k is an int
    K, or an array of one k <= K per config, K the length of the rows.
    One gather along the orbit, a take of the flattened batch at r_t, and
    one cumprod: -a_t b_t is minus the product of the two entries of row
    r_t.  Past its own k an orbit is padded by fixed points, r_t = c_t = t
    with a_t = 1 and -a_t b_t = 1, so g stays g_(k-1) there (see Orbit).
    The positions 2jt < 2k^2 stay in int64 for K below 2^31, which
    _require_rows checks.
    """
    top = lv.shape[-1]
    _require_rows(top)
    t = np.arange(top)
    kc = np.asarray(k)[:, None] if np.ndim(k) else k  # a column of the batch's k, or one k for all
    p = np.multiply.outer(-2 * j, t) % (2 * kc)
    low = p < kc
    rows = np.minimum(p, 2 * kc - 1 - p)
    del p  # the (..., K) arrays of a band are its memory peak: p is dropped once read, the padding written in place
    at = rows + _row_starts((*rows.shape[:-1], 1), top)  # r_t in the flattened batch
    cols, a, g = np.where(low, lc.take(at), rc.take(at)), np.where(low, lv.take(at), rv.take(at)), -(lv * rv).take(at)
    if np.ndim(k):
        pad = t >= kc
        for x, fixed in ((rows, t), (cols, t), (a, 1), (g, 1)):
            np.copyto(x, fixed, where=pad)
    np.cumprod(g, axis=-1, out=g)
    odd = ((j // 2) * (k - 1) + (j % 2) * ((k - 1) // 2)) % 2
    return Orbit(rows, cols, a, g, 1 - 2 * odd)


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
    rows = _family(config)
    j, k = config.j, config.k
    if math.gcd(j, k) != 1:
        raise ValueError(
            f"gcd(j, k) = {math.gcd(j, k)} in {config}: only a coprime config's matrix is one orbit; "
            f"make_config reduces it to {make_config(config.alpha, config.beta, j, k)}"
        )
    return _orbits(j, k, *rows)


def _j1_signs(name: str, k: int, alpha: int, beta: int) -> tuple[int, int]:
    """The j = 1 entry check, an integer k >= 2 and then the flags before a cache takes True as 1; their signs c, d."""
    if not is_int(k) or k < 2:
        raise ValueError(f"{name} needs k >= 2")
    require_flags(alpha, beta)
    return signs(alpha, beta)


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
    c, d = signs(alpha, beta)
    return StoredRun(X, IntPolynomial((1 - d,)), X - IntPolynomial((1 + c,)), c * d)


def char_poly_j1(k: int, alpha: int, beta: int) -> IntPolynomial:
    """det(zI - A) for j = 1: entry k of the stored run of (alpha, beta)."""
    _j1_signs("char_poly_j1", k, alpha, beta)
    return _char_poly_run(alpha, beta)[k]


def det_closed_form(k: int, alpha: int, beta: int) -> int:
    """Closed-form determinant of the j = 1 matrix.

    (-cd)^((k-1)/2) (1 + c) for odd k, c (-cd)^(k/2-1) (1 - d) for even k.
    """
    c, d = _j1_signs("det_closed_form", k, alpha, beta)
    if k % 2:
        return (-c * d) ** ((k - 1) // 2) * (1 + c)
    return c * (-c * d) ** (k // 2 - 1) * (1 - d)


def kernel_signs(k: int, pairs) -> np.ndarray:
    """The paper's +-1 kernel vector X_v, v = 1..k, of each flag pair in pairs: a (len(pairs), k) int64 array.

    X_v = (-1)^((v - 1 + beta) // (1 + (alpha or beta))), which per pair
    is (0,0): (-1)^(v-1), (0,1): (-1)^(v//2), (1,0): (-1)^((v-1)//2) and
    (1,1): (-1)^(v//2).  A row does not depend on j: it is the kernel of
    every degenerate config of its pair and this k, and of no other.
    """
    alpha, beta = _flag_columns(pairs)
    return 1 - 2 * ((np.arange(k) + beta) // (1 + (alpha | beta)) % 2)


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
    """Numeric eigenvalues of the j = 1 matrix, exact zeros: numeric_spectra_j1 on the batch of one flag pair.

    The tridiagonal +-1 matrix is well conditioned where the monomial
    coefficients of its characteristic polynomial are not (they reach 6e40
    at k = 200, so roots taken from them drift by O(1)).  Tested within
    1e-12 of the closed forms for k <= 40 and k in {60, 120, 200}, and
    against the Lemma 2 residual of eigvec_j1 for (0,1).
    """
    _j1_signs("numeric_spectrum_j1", k, alpha, beta)
    return numeric_spectra_j1(k, [(alpha, beta)])[0].tolist()


def numeric_spectra_j1(k: int, pairs) -> np.ndarray:
    """The numeric j = 1 spectra of the flag pairs in pairs, a row each: one eigvals call on their dense stack.

    One _fold_rule call gives the rows of every pair, one scatter their
    (len(pairs), k, k) stack, and LAPACK's eigvals runs on each matrix of
    it, with the bits it gives that matrix alone.  The multiplicity of the
    zero eigenvalue is read exactly from the vanishing low-order
    coefficients of char_poly_j1, which guards k and the flags, and that
    many eigenvalues of smallest modulus in the row are set to 0j: the
    (0,0) double zero of even k is a Jordan block, which eigvals alone
    returns as a pair near +-1e-8.
    """
    dense = _dense(_zeros((len(pairs), k, k)), *_fold_rule(np.arange(k), 1, k, *signs(*_flag_columns(pairs))))
    zero_mults = [next(i for i, c in enumerate(char_poly_j1(k, *pair).coeffs) if c) for pair in pairs]
    z = np.linalg.eigvals(dense).astype(complex)
    for row, order, zero_mult in zip(z, np.argsort(np.abs(z), axis=-1), zero_mults):
        row[order[:zero_mult]] = 0j
    return z


def _chebyshev_start(k, f, i, base) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """M, Z_0 and Z_-1 of the Chebyshev reduction (see reduce_to_j1) on stacked blocks, per row i of a block.

    The block holds the k rows of the flag pair _FLAG_PAIRS[f] and starts
    at row base of the stack.  Each result is a (4, n) int64 array of two
    (col, value) pairs per row, (col, value, col, value) down its axis 0.
    With c, d the signs of the pair: M = d B, B the j = 1 fold rule with
    both signs d, its col the row of y it reads, as an index into the
    stack; Z_0 the pair's own j = 1 matrix; Z_-1 = 2c alpha I, its second
    value 0.
    """
    alpha, beta = _FLAGS[:, f, 0]
    c, d = signs(alpha, beta)
    blc, blv, brc, brv = _fold_rule(i, 1, k, d, d)
    m = np.stack((base + blc, d * blv, base + brc, d * brv))
    y = np.stack(_fold_rule(i, 1, k, c, d))
    sub = np.stack((i, 2 * c * alpha, i, np.zeros_like(i)))
    return m, y, sub


def _mul_sub(m, y, sub) -> np.ndarray:
    """M @ y - sub on stacked two-entry rows, each a (4, n) int64 array of two (col, value) pairs per row.

    Row i of m holds (p, s, q, t): row i of the result is s y[p] + t y[q]
    - sub[i], four terms, p and q indices into y inside the row's own
    block.  The two columns of a row of y differ (so do those the fold
    rule gives, and those of every result below).  Each sub entry is taken
    off y[p]'s term in its column if there is one, else off y[q]'s; then
    y[q]'s term in a column of y[p] joins that term.  So two terms cancel,
    against sub[i] or, in the first step (where sub[i] has no entry for
    alpha = 0 and one for alpha = 1), at the column y[p] and y[q] share.
    Exactly one term of y[p] and one of y[q] must remain; that, no nonzero
    sub entry off the four columns and every entry in [-1, 1], the bound
    that keeps the run exact in int64, are asserted.  The result holds
    y[p]'s term, then y[q]'s.
    """
    yp, yq = y[:, m[0]], y[:, m[2]]
    a, b = yp[0::2], yq[0::2]  # (2, n): the columns of y[p] and of y[q]
    v, w = m[1] * yp[1::2], m[3] * yq[1::2]
    for col, x in zip(sub[0::2], sub[1::2]):
        in_a = col == a
        in_b = (col == b) & ~(in_a[0] | in_a[1])
        off = (x != 0) & ~(in_a[0] | in_a[1] | in_b[0] | in_b[1])
        if off.any():
            raise AssertionError(f"a sub entry in column {col[off][0]} is off the columns of M @ y")
        v -= in_a * x
        w -= in_b * x
    for u in (0, 1):
        same = b[u] == a
        v += same * w[u]
        w[u] *= ~(same[0] | same[1])
    kv, kw = v != 0, w != 0
    one = (kv[0] != kv[1]) & (kw[0] != kw[1])
    if not one.all():
        row = np.argmin(one)
        raise AssertionError(f"M @ y - sub keeps other than one term of y[{m[0, row]}] and one of y[{m[2, row]}]")
    top = max(np.abs(v).max(), np.abs(w).max())
    if top > 1:
        raise AssertionError(f"M @ y - sub holds an entry {top} in modulus, above the asserted bound 1")
    return np.stack((np.where(kv[0], a[0], a[1]), v[0] + v[1], np.where(kw[0], b[0], b[1]), w[0] + w[1]))


def reduce_to_j1(config: ProblemConfig) -> np.ndarray:
    """The j > 1 matrix by the Chebyshev reduction to j = 1, as build_matrix's int64 array.

    Theorem 2 builds the j > 1 matrix from j = 1 matrices:
    alpha = 0:  U_{j-1}(-(c/2) B) * A1   with B the (1, 1-beta) matrix and
                A1 the (0, beta) one;
    alpha = 1:  2c T_j((c/2) B)         with B the (1, beta) matrix.
    With M = -c B resp. c B, both are the matrix three-term recurrence
    Z_{n+1} = M Z_n - Z_{n-1}, giving Z_{j-1} from Z_0 = A1, Z_1 = M A1
    for alpha = 0, and c Z_j from c Z_0 = 2c I, c Z_1 = B for alpha = 1
    (c Z_n obeys the same recurrence).  The start is read off the signs
    c, d of the config's own pair.  For alpha = 0, B's pair (1, 1-beta)
    has the signs (-c, d) and -c = d = 1 - 2 beta; for alpha = 1, B is the
    pair's own matrix and c = d.  So B's signs are (d, d) and M = d B, the
    start (A1, resp. c Z_1 = B) is the pair's own j = 1 matrix, and the
    one before it (0, resp. c Z_0 = 2c I) is Z_-1 = 2c alpha I.  c does not
    depend on j, so every j is a prefix of one sequence: _chebyshev_start
    and then j - 1 steps (_mul_sub) on one block.  M has two nonzeros per
    row, so a step is two scaled gathers of two-entry rows; each Z_n has
    the two-per-row pattern of build_matrix, so a step costs O(k).  M is
    an integer matrix and nothing is divided, so every Z_n stays in Z.
    """
    require_normalized(config)
    _j1_signs("reduce_to_j1", config.k, config.alpha, config.beta)
    dense = _zeros((config.k, config.k))
    k, i = config.k, np.arange(config.k)
    m, y, sub = _chebyshev_start(k, np.full(k, _FLAG_PAIRS.index((config.alpha, config.beta))), i, 0 * i)
    for _ in range(config.j - 1):
        sub, y = y, _mul_sub(m, y, sub)
    return _dense(dense, *y)


def _first_row(k):
    """The first row of the blocks of k in _stack: four blocks of k' rows for each k' = 2..k-1 come before."""
    return 2 * k * (k - 1) - 4


def _stack(kmax: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per row of one block of k rows per (k, alpha, beta), k = 2..kmax, ordered by k and then the flags.

    Returns the block's k and flag index, the row in its block and the
    block's first row: 2 kmax (kmax + 1) - 4 rows.  It holds no size
    guard; `verify` bounds kmax before its sweeps run (cli.MAX_RANGE).
    """
    row = np.arange(2 * kmax * (kmax + 1) - 4)
    k = np.repeat(np.arange(2, kmax + 1), 4 * np.arange(2, kmax + 1))
    f, i = np.divmod(row - _first_row(k), k)
    return k, f, i, row - i


_SHIFT = np.array([[1], [0], [1], [0]])  # the rows of M that index the stack


def reductions_match(kmax: int) -> np.ndarray:
    """match[k, f, j]: the Chebyshev reduction equals the fold rule for the config (*_FLAG_PAIRS[f], j, k).

    One run of the reduction (see reduce_to_j1) steps the blocks of
    _stack at once: the step to j takes the blocks with k >= 2j, the rows
    from _first_row(2j) on, and compares each row with the fold rule at j,
    its two entries in either order.  False where k < 2j.
    """
    k, f, i, base = _stack(kmax)
    m, y, sub = _chebyshev_start(k, f, i, base)
    c, d = signs(*_FLAGS[:, f, 0])
    match = np.zeros((kmax + 1, 4, kmax // 2 + 1), dtype=bool)
    top = 0  # the first row held
    for j in range(1, kmax // 2 + 1):
        cut = _first_row(2 * j) - top
        top += cut
        k, i, c, d, y, sub = k[cut:], i[cut:], c[cut:], d[cut:], y[:, cut:], sub[:, cut:]
        m = m[:, cut:] - _SHIFT * cut
        if j > 1:
            sub, y = y, _mul_sub(m, y, sub)
        fold = np.stack(_fold_rule(i, j, k, c, d))
        same = (y == fold).all(axis=0) | (y == fold[[2, 3, 0, 1]]).all(axis=0)
        match[2 * j :, :, j] = np.logical_and.reduceat(same, np.flatnonzero(i == 0)).reshape(-1, 4)
    return match


def orbits_of(ks: list[int], js: list[int]) -> Orbit:
    """The orbits of the configs (alpha, beta, j, k), flag pair by flag pair of _FLAG_PAIRS and then (j, k) in zip(js, ks).

    Each j is coprime to its k.  One _fold_rule and one _orbits over the
    whole batch, on rows of the largest k, K: if ks holds several k, each
    orbit is padded to K by fixed points past its own k (see _orbits).
    """
    flag = np.repeat(np.arange(4), len(js))
    j = np.tile(js, 4)
    top = max(ks)
    k = top if min(ks) == top else np.tile(ks, 4)
    c, d = signs(*_FLAGS[:, flag])
    return _orbits(j, k, *_fold_rule(np.arange(top), j[:, None], np.reshape(k, (-1, 1)), c, d))


def kernel(config: ProblemConfig) -> KernelDescriptor:
    """Kernel of the main-equation matrix, read off its orbit: Orbit.null_vector, +-1 or ()."""
    return KernelDescriptor(orbit(config).null_vector)


def eigvec_j1(z, k: int, alpha: int, beta: int) -> np.ndarray:
    """Eigenvectors of the j = 1 matrix: the (k, L) columns for a 1-D array z of L eigenvalues.

    eigvecs_j1 on the batch of one flag pair.  One eigenvalue is the batch
    [z0] (any other shape of z is a ValueError), so a column has the same
    bits alone as in any batch.  A column that fails the residual test, a
    non-finite z_i included, means z_i was not an eigenvalue, a ValueError
    naming the first.
    """
    _j1_signs("eigvec_j1", k, alpha, beta)
    z = np.asarray(z, dtype=complex)
    if z.ndim != 1:
        raise ValueError(f"z must be a 1-D array of eigenvalues, got shape {z.shape}")
    x, ok, resid, scale = eigvecs_j1(z[None], k, [(alpha, beta)])
    failed = np.flatnonzero(~ok[0])
    if failed.size:
        i = failed[0]
        raise ValueError(f"z0={z[i]} is not an eigenvalue: residual {resid[0, i]:.3e} vs scale {scale[0, i]:.3e}")
    return x[0]


def eigvecs_j1(z: np.ndarray, k, pairs) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The j = 1 eigenvectors of the flag pairs in pairs, in one recurrence pass: x, ok, resid and scale.

    Row n of the (len(pairs), L) array z holds eigenvalues of the pair
    pairs[n], and k is one k for every column or an (L,) array of one k
    per column.  x[n] holds their (K, L) columns, K the largest k:
    component m is d^m q_m(z_i), the minors q_m of _char_poly_run, which
    do not depend on k, so one three_term run of K steps on the whole
    array serves every k, with c d as a column per pair.  The residual
    ||A x - z_i x||_inf and the scale ||x||_inf are read per column on the
    two entries of each row of the fold rule of the pair and the column's
    own k, over its first k rows only; ok is resid <= 1e-9 scale, False
    for a non-finite z_i.  A column has the bits it has alone, and in its
    first k rows those of a run to its own k.  The caller checks k and
    the flags.
    """
    c, d = signs(*_flag_columns(pairs))
    row = np.arange(np.max(k))[:, None]
    lc, lv, rc, rv = _fold_rule(row, 1, k, c[..., None], d[..., None])  # rows past a column's k read other rows
    with np.errstate(all="ignore"):  # a non-finite z_i fails the residual test below, silently
        x = np.stack(list(islice(three_term(z, np.ones_like(z), z - 1.0, c * d), len(row))), axis=1)
        x = d[..., None] ** row * x  # row m of x[n] is d^m q_m
        n, col = np.arange(len(x))[:, None, None], np.arange(x.shape[-1])
        valid = row < k
        resid = np.where(valid, np.abs(lv * x[n, lc, col] + rv * x[n, rc, col] - z[:, None] * x), 0).max(axis=1)
        scale = np.where(valid, np.abs(x), 0).max(axis=1)
    return x, resid <= 1e-9 * scale, resid, scale


def rank(config: ProblemConfig) -> int:
    """Exact rank of the config's matrix: k, less one when det = 0, i.e. g_(k-1) = +1 on its orbit."""
    return config.k - bool(orbit(config).singular)


def det_exact(config: ProblemConfig) -> int:
    """Exact determinant of the config's matrix, read off its orbit: sgn(sigma_a) prod(a) (1 - g_(k-1))."""
    return int(orbit(config).det)
