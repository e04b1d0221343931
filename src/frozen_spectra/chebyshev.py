"""Chebyshev polynomials of the first and second kinds, exact and floating.

One three-term recurrence Y_{n+1}(z) = 2z Y_n(z) - Y_{n-1}(z), from Y_0 = 1
and Y_1 = z (T) or 2z (U), builds coefficient vectors with Python ints and,
run on a complex number instead of z, evaluates them in floating point.
Coefficients grow like 2^n, so the exact path never touches floats.  The
rescaled variants 2*T_n(x/2), U_n(x/2) divide coefficient m by 2^m, and
their imaginary-argument counterparts i^n*U_n(x/(2i)), 2*i^n*T_n(x/(2i))
multiply that by i^(n-m); all have integer coefficients, which is what
makes polynomial evaluation at integer matrices exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .intlinalg import IntMatrix, identity, mat_add, mat_scale, matmul

ChebKind = str  # "T" or "U"


def _check_kind(kind: ChebKind) -> None:
    if kind not in ("T", "U"):
        raise ValueError(f"kind must be 'T' or 'U', got {kind!r}")


@dataclass(frozen=True)
class IntPolynomial:
    """Exact integer-coefficient polynomial, ascending degree order.

    The zero polynomial has an empty coefficient tuple; otherwise the
    trailing coefficient is nonzero and degree == len(coeffs) - 1.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = tuple(int(v) for v in self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial(tuple(x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

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


@lru_cache(maxsize=None)
def cheb_T(n: int) -> IntPolynomial:
    """T_n by the recurrence; T_0 = 1, T_1 = z."""
    return _chebyshev(n, ONE, X, 2 * X)


@lru_cache(maxsize=None)
def cheb_U(n: int) -> IntPolynomial:
    """U_n by the recurrence; U_0 = 1, U_1 = 2z."""
    return _chebyshev(n, ONE, 2 * X, 2 * X)


def _chebyshev(n: int, y0, y1, two_z):
    """Y_n of Y_{n+1} = 2z Y_n - Y_{n-1}: polynomials with z = X, or values at a number z."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return y0
    prev, cur = y0, y1
    for _ in range(n - 1):
        prev, cur = cur, two_z * cur - prev
    return cur


def cheb_eval(kind: ChebKind, n: int, z: complex) -> complex:
    """Evaluate T_n or U_n at a complex point by forward recurrence.

    Valid off [-1, 1]; for real |z| <= 1 matches the trigonometric form.
    """
    _check_kind(kind)
    y1 = complex(z) if kind == "T" else 2.0 * complex(z)
    return _chebyshev(n, 1.0 + 0.0j, y1, 2.0 * z)


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
