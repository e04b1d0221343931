"""Chebyshev polynomials and the library's one three-term recurrence.

three_term runs y_{n+1} = z y_n - c y_{n-1}, z a polynomial or a number; a
StoredRun keeps one run's terms and reads them by index, one step per new
degree.  T_n and U_n are one run each of Y_{n+1} = 2z Y_n - Y_{n-1} from
Y_0 = 1, Y_1 = z (T) or 2z (U), in Python ints that never touch floats.
The rescaled variants 2*T_n(x/2), U_n(x/2) divide coefficient m by 2^m, and
their imaginary-argument counterparts i^n*U_n(x/(2i)), 2*i^n*T_n(x/(2i))
multiply that by i^(n-m); all have integer coefficients, which is what
makes polynomial evaluation at integer matrices exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, zip_longest

from .intlinalg import IntMatrix, identity, mat_add, mat_scale, matmul

ChebKind = str  # "T" or "U"


def _check_kind(kind: ChebKind) -> None:
    if kind not in ("T", "U"):
        raise ValueError(f"kind must be 'T' or 'U', got {kind!r}")


@dataclass(frozen=True)
class IntPolynomial:
    """Exact integer-coefficient polynomial, ascending degree order.

    The zero polynomial has an empty coefficient tuple; otherwise the
    trailing coefficient is nonzero.  It defines only - and *, which is all
    the exact identities need.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = tuple(int(v) for v in self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial(tuple(a - b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)))

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(tuple(other * c for c in self.coeffs))
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1) if self.coeffs and other.coeffs else []
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(tuple(out))

    __rmul__ = __mul__


ONE = IntPolynomial((1,))
X = IntPolynomial((0, 1))


def three_term(z, y0, y1, c: int):
    """y_0, y_1, ... of y_{n+1} = z y_n - c y_{n-1}, each computed when read; z is X, 2X or a number.

    With c = 1 (the Chebyshev runs) y_{n-1} is subtracted as it is, not
    through a copy scaled by 1.
    """
    prev, cur = y0, y1
    yield prev
    while True:
        yield cur
        prev, cur = cur, z * cur - (prev if c == 1 else c * prev)


class StoredRun:
    """The terms of one three_term run, kept as they are computed and read by index n >= 0."""

    def __init__(self, z, y0, y1, c: int):
        self._terms = three_term(z, y0, y1, c)
        self._seen: list = []

    def __getitem__(self, n: int):
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        if n >= len(self._seen):
            self._seen.extend(islice(self._terms, n + 1 - len(self._seen)))
        return self._seen[n]


@lru_cache(maxsize=None)
def _cheb_run(kind: ChebKind) -> StoredRun:
    """Y_0 = 1, Y_1 = z (T) or 2z (U) of Y_{n+1} = 2z Y_n - Y_{n-1}."""
    return StoredRun(2 * X, ONE, X if kind == "T" else 2 * X, 1)


def cheb_T(n: int) -> IntPolynomial:
    """T_n, entry n of the stored T run; T_0 = 1, T_1 = z."""
    return _cheb_run("T")[n]


def cheb_U(n: int) -> IntPolynomial:
    """U_n, entry n of the stored U run; U_0 = 1, U_1 = 2z."""
    return _cheb_run("U")[n]


def scaled_cheb_int(kind: ChebKind, n: int) -> IntPolynomial:
    """2*T_n(x/2) or U_n(x/2) as exact integer polynomials.

    Coefficient m picks up a factor 2^-m under x -> x/2; divisibility is
    asserted rather than assumed.
    """
    _check_kind(kind)
    base = cheb_T(n) if kind == "T" else cheb_U(n)
    pre = 2 if kind == "T" else 1
    out = []
    for m, c in enumerate(base.coeffs):
        quot, rem = divmod(pre * c, 1 << m)
        if rem:
            raise ArithmeticError(f"non-integer coefficient at degree {m} for {kind}_{n}(x/2)")
        out.append(quot)
    return IntPolynomial(tuple(out))


def imag_scaled_cheb_int(kind: ChebKind, n: int) -> IntPolynomial:
    """i^n * U_n(x/(2i)) or 2 * i^n * T_n(x/(2i)) as exact integer polynomials.

    x/(2i) = -i*x/2, so coefficient m of scaled_cheb_int(kind, n) is
    multiplied by i^n * (-i)^m = i^(n-m).  Chebyshev parity makes every
    surviving power of i real; that is asserted here, and the 2^m
    divisibility in scaled_cheb_int.
    """
    out = []
    for m, c in enumerate(scaled_cheb_int(kind, n).coeffs):
        rot = (n - m) % 4
        if c and rot % 2:
            raise ArithmeticError(f"imaginary coefficient survived at degree {m} for kind {kind}, n={n}")
        out.append(-c if rot == 2 else c)
    return IntPolynomial(tuple(out))


def matrix_poly_eval(p: IntPolynomial, a: IntMatrix) -> list[list[int]]:
    """Horner evaluation of p at a square integer matrix, exactly.

    Dense monomial reference, O(deg p * n^3): the tests compare the
    recurrence in frozen_matrix.reduce_to_j1 against it.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix_poly_eval needs a square matrix")
    if not p.coeffs:
        return [[0] * n for _ in range(n)]
    acc = mat_scale(p.coeffs[-1], identity(n))
    for c in reversed(p.coeffs[:-1]):
        acc = mat_add(matmul(acc, a), mat_scale(c, identity(n)))
    return acc
