"""Chebyshev polynomials of the first and second kinds, exact and floating.

The exact layer builds coefficient vectors with Python ints via the
three-term recurrence Y_{n+1}(z) = 2z Y_n(z) - Y_{n-1}(z); coefficients
grow like 2^n, so nothing here is allowed to touch floats.  The rescaled
variants 2*T_n(x/2), U_n(x/2) and their imaginary-argument counterparts
i^n*U_n(x/(2i)), 2*i^n*T_n(x/(2i)) all have integer coefficients, which is
what makes polynomial evaluation at integer matrices exact.
"""

from __future__ import annotations

import math
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

    def shift_up(self, power: int = 1) -> "IntPolynomial":
        """Multiply by z**power."""
        if not self.coeffs:
            return self
        return IntPolynomial((0,) * power + self.coeffs)


ONE = IntPolynomial((1,))
X = IntPolynomial((0, 1))


@dataclass(frozen=True)
class ZeroSet:
    kind: ChebKind
    n: int
    values: tuple[float, ...]  # strictly decreasing, all in (-1, 1)


@lru_cache(maxsize=None)
def cheb_T(n: int) -> IntPolynomial:
    """T_n by the recurrence; T_0 = 1, T_1 = z."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return ONE
    prev, cur = ONE, X
    for _ in range(n - 1):
        prev, cur = cur, 2 * X * cur - prev
    return cur


@lru_cache(maxsize=None)
def cheb_U(n: int) -> IntPolynomial:
    """U_n by the recurrence; U_0 = 1, U_1 = 2z."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return ONE
    prev, cur = ONE, 2 * X
    for _ in range(n - 1):
        prev, cur = cur, 2 * X * cur - prev
    return cur


def cheb_eval(kind: ChebKind, n: int, z: complex) -> complex:
    """Evaluate T_n or U_n at a complex point by forward recurrence.

    Valid off [-1, 1]; for real |z| <= 1 matches the trigonometric form.
    """
    _check_kind(kind)
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1.0 + 0.0j
    prev = 1.0 + 0.0j
    cur = complex(z) if kind == "T" else 2.0 * complex(z)
    for _ in range(n - 1):
        prev, cur = cur, 2.0 * z * cur - prev
    return cur


def cheb_zeros(kind: ChebKind, n: int) -> ZeroSet:
    """Zero sets: cos((2v+1)pi/2n) for T_n, cos(v pi/(n+1)) for U_n."""
    _check_kind(kind)
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind == "T":
        vals = tuple(math.cos((2 * v + 1) * math.pi / (2 * n)) for v in range(n))
    else:
        vals = tuple(math.cos(v * math.pi / (n + 1)) for v in range(1, n + 1))
    return ZeroSet(kind, n, vals)


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
        num = pre * c
        quot, rem = divmod(num, 1 << m)
        if rem:
            raise ArithmeticError(f"non-integer coefficient at degree {m} for {kind}_{n}(x/2)")
        out.append(quot)
    return IntPolynomial(tuple(out))


def imag_scaled_cheb_int(kind: ChebKind, n: int) -> IntPolynomial:
    """i^n * U_n(x/(2i)) or 2 * i^n * T_n(x/(2i)) as exact integer polynomials.

    Chebyshev parity makes every surviving power of i real; both that and
    the 2^m divisibility are asserted during construction.
    """
    _check_kind(kind)
    base = cheb_T(n) if kind == "T" else cheb_U(n)
    pre = 2 if kind == "T" else 1
    out = [0] * (base.degree + 1)
    for m, c in enumerate(base.coeffs):
        if c == 0:
            continue
        # x/(2i) = -i*x/2, so coefficient m carries i^n * (-i)^m = i^(n-m)
        rot = (n - m) % 4
        if rot % 2:
            raise ArithmeticError(f"imaginary coefficient survived at degree {m} for kind {kind}, n={n}")
        sign = 1 if rot == 0 else -1
        quot, rem = divmod(pre * c * sign, 1 << m)
        if rem:
            raise ArithmeticError(f"non-integer coefficient at degree {m} for kind {kind}, n={n}")
        out[m] = quot
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
