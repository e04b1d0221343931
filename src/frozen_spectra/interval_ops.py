"""Midpoint-grid functions on (0,1) and the chop/shift/reflection operators.

A GridFunction samples a complex function at the k*m midpoints
x_i = (i + 1/2)/(k*m); the k subintervals of length b = 1/k each carry m
samples.  Midpoint sampling is what makes every shift x -> x + nu*b and
reflection x -> 2*nu*b - x used below an exact permutation of grid
indices: no interpolation ever happens in this module.

The chop operators map a function on (0,1) to a k-vector of functions on
(0,b), returned as a (k, m) array whose row nu-1 samples the nu-th one:
    Q_nu f(t) = f((nu-1)b + t)        nu odd
                f(nu b - t)           nu even
    R_nu f(t) = f((k-nu)b + t)        j+nu even
                f((k-nu+1)b - t)      j+nu odd
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np


@dataclass(frozen=True, eq=False)
class GridFunction:
    k: int
    m: int
    values: np.ndarray  # complex, length k*m

    def __post_init__(self):
        if self.k < 1 or self.m < 1:
            raise ValueError(f"a grid needs k >= 1 and m >= 1, got k={self.k}, m={self.m}")
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.k * self.m,):
            raise ValueError(f"expected {self.k * self.m} samples, got shape {v.shape}")
        object.__setattr__(self, "values", v)

    def midpoints(self) -> np.ndarray:
        return grid_midpoints(self.k, self.m)

    @property
    def h(self) -> float:
        return 1.0 / (self.k * self.m)

    @classmethod
    def from_callable(cls, fn: Callable, k: int, m: int = 64) -> "GridFunction":
        x = grid_midpoints(k, m)
        return cls(k, m, np.asarray(fn(x), dtype=complex) * np.ones_like(x))

    @classmethod
    def zeros(cls, k: int, m: int = 64) -> "GridFunction":
        return cls(k, m, np.zeros(k * m, dtype=complex))

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check_aligned(other)
        return GridFunction(self.k, self.m, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check_aligned(other)
        return GridFunction(self.k, self.m, self.values - other.values)

    def _check_aligned(self, other: "GridFunction") -> None:
        if (self.k, self.m) != (other.k, other.m):
            raise ValueError(f"grid mismatch: ({self.k},{self.m}) vs ({other.k},{other.m})")


def grid_midpoints(k: int, m: int) -> np.ndarray:
    """Midpoints x_i = (i + 1/2)/(k*m) of the k*m cells of (0, 1)."""
    return (np.arange(k * m) + 0.5) / (k * m)


def subinterval_midpoints(k: int, m: int) -> np.ndarray:
    """Midpoints t_i = (i + 1/2) b/m of (0, b), b = 1/k."""
    return (np.arange(m) + 0.5) / (k * m)


def _check_permutation(perm: np.ndarray, size: int) -> np.ndarray:
    flat = np.sort(perm.ravel())
    if not np.array_equal(flat, np.arange(size)):
        raise AssertionError("index map is not a permutation of the grid")
    return perm


@lru_cache(maxsize=None)
def _q_permutation(k: int, m: int) -> np.ndarray:
    i = np.arange(m)
    rows = []
    for nu in range(1, k + 1):
        if nu % 2:
            rows.append((nu - 1) * m + i)
        else:
            rows.append(nu * m - 1 - i)
    perm = np.vstack(rows)
    perm.setflags(write=False)
    return _check_permutation(perm, k * m)


@lru_cache(maxsize=None)
def _r_permutation(j_parity: int, k: int, m: int) -> np.ndarray:
    i = np.arange(m)
    rows = []
    for nu in range(1, k + 1):
        if (j_parity + nu) % 2 == 0:
            rows.append((k - nu) * m + i)
        else:
            rows.append((k - nu + 1) * m - 1 - i)
    perm = np.vstack(rows)
    perm.setflags(write=False)
    return _check_permutation(perm, k * m)


def _scatter(perm: np.ndarray, comps: np.ndarray) -> GridFunction:
    """The grid function whose samples at perm are comps, entry by entry."""
    k, m = perm.shape
    out = np.empty(k * m, dtype=complex)
    out[perm.ravel()] = comps.ravel()
    return GridFunction(k, m, out)


def q_apply(f: GridFunction) -> np.ndarray:
    """Chop f into the k-vector (f, Q_2 f, ..., Q_k f) on (0, b), shape (k, m)."""
    return f.values[_q_permutation(f.k, f.m)]


def q_inverse(comps: np.ndarray) -> GridFunction:
    """Reassemble a (k, m) array into a function on (0,1); exact inverse of q_apply."""
    return _scatter(_q_permutation(*comps.shape), comps)


def r_apply(f: GridFunction, j: int) -> np.ndarray:
    """Chop f into (R_1 f, ..., R_k f), shape (k, m); the layout depends on parity of j+nu."""
    return f.values[_r_permutation(j % 2, f.k, f.m)]


def r_inverse(comps: np.ndarray, j: int) -> GridFunction:
    """Reassemble a (k, m) array into a function on (0,1); exact inverse of r_apply.

    Component nu lands on ((k-nu)b, (k-nu+1)b), shifted for even j+nu and
    reflected for odd j+nu.  Even j with even k is rejected (coprime j, k
    never produce it).
    """
    k, m = comps.shape
    if j % 2 == 0 and k % 2 == 0:
        raise ValueError("even j with even k is outside the coprime family")
    return _scatter(_r_permutation(j % 2, k, m), comps)


def write_csv(f: GridFunction, path) -> None:
    """Rows x,re,im at midpoints, with a '# k=<k> m=<m>' header."""
    x = f.midpoints()
    with open(path, "w") as fh:
        fh.write(f"# k={f.k} m={f.m}\n")
        for xi, v in zip(x, f.values):
            fh.write(f"{float(xi)!r},{float(v.real)!r},{float(v.imag)!r}\n")


def _read_rows(path, rows: Callable[[int, int], int]) -> tuple[int, int, np.ndarray]:
    """A '# k=<k> m=<m>' header, exactly rows(k, m) finite rows x,re,im, then only blank lines."""
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ValueError(f"{path}: missing '# k=<k> m=<m>' header")
        fields = dict(part.split("=") for part in header[1:].split())
        k, m = int(fields["k"]), int(fields["m"])
        n = rows(k, m)
        vals = np.empty(n, dtype=complex)
        for i in range(n):
            line = fh.readline()
            if not line:
                raise ValueError(f"{path}: expected {n} rows, got {i}")
            _, re, im = line.strip().split(",")
            vals[i] = float(re) + 1j * float(im)
        for line in fh:
            if line.strip():
                raise ValueError(f"{path}: data past the {n} rows the header declares")
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise ValueError(f"{path}: data row {bad[0] + 1} holds a non-finite value {vals[bad[0]]}")
    return k, m, vals


def read_csv(path) -> GridFunction:
    """Inverse of write_csv: k*m rows at the midpoints of (0, 1)."""
    k, m, vals = _read_rows(path, lambda k, m: k * m)
    return GridFunction(k, m, vals)


def read_profile_csv(path) -> tuple[np.ndarray, int]:
    """A function on (0, b), b = 1/k, as m rows t,re,im at its midpoints; returns (samples, k)."""
    k, _, vals = _read_rows(path, lambda k, m: m)
    return vals, k
