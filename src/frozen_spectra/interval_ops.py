"""Midpoint-grid functions on (0,1) and the chop/shift/reflection operators.

A GridFunction samples a complex function at the k*m midpoints
x_i = (i + 1/2)/(k*m); the k subintervals of length b = 1/k each carry m
samples.  Midpoint sampling is what makes every shift x -> x + nu*b and
reflection x -> 2*nu*b - x used below an exact permutation of grid
indices: no interpolation ever happens in this module.

The chop operators map a function on (0,1) to a k-vector of functions on
(0,b):
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
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.k * self.m,):
            raise ValueError(f"expected {self.k * self.m} samples, got shape {v.shape}")
        object.__setattr__(self, "values", v)

    def midpoints(self) -> np.ndarray:
        n = self.k * self.m
        return (np.arange(n) + 0.5) / n

    @property
    def h(self) -> float:
        return 1.0 / (self.k * self.m)

    @classmethod
    def from_callable(cls, fn: Callable, k: int, m: int = 64) -> "GridFunction":
        x = (np.arange(k * m) + 0.5) / (k * m)
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


@dataclass(frozen=True, eq=False)
class SubintervalVector:
    k: int
    m: int
    components: np.ndarray  # complex, shape (k, m)

    def __post_init__(self):
        c = np.asarray(self.components, dtype=complex)
        if c.shape != (self.k, self.m):
            raise ValueError(f"expected shape ({self.k},{self.m}), got {c.shape}")
        object.__setattr__(self, "components", c)


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


def q_apply(f: GridFunction) -> SubintervalVector:
    """Chop f into the k-vector (f, Q_2 f, ..., Q_k f) on (0, b)."""
    perm = _q_permutation(f.k, f.m)
    return SubintervalVector(f.k, f.m, f.values[perm])


def q_inverse(vec: SubintervalVector) -> GridFunction:
    """Reassemble a function on (0,1); exact inverse of q_apply."""
    perm = _q_permutation(vec.k, vec.m)
    out = np.empty(vec.k * vec.m, dtype=complex)
    out[perm.ravel()] = vec.components.ravel()
    return GridFunction(vec.k, vec.m, out)


def r_apply(f: GridFunction, j: int) -> SubintervalVector:
    """Chop f into (R_1 f, ..., R_k f); the layout depends on parity of j+nu."""
    perm = _r_permutation(j % 2, f.k, f.m)
    return SubintervalVector(f.k, f.m, f.values[perm])


def r_inverse(vec: SubintervalVector, j: int) -> GridFunction:
    """Reassemble a function on (0,1); exact inverse of r_apply.

    Component nu lands on ((k-nu)b, (k-nu+1)b), shifted for even j+nu and
    reflected for odd j+nu.  Even j with even k is rejected (coprime j, k
    never produce it).
    """
    if j % 2 == 0 and vec.k % 2 == 0:
        raise ValueError("even j with even k is outside the coprime family")
    perm = _r_permutation(j % 2, vec.k, vec.m)
    out = np.empty(vec.k * vec.m, dtype=complex)
    out[perm.ravel()] = vec.components.ravel()
    return GridFunction(vec.k, vec.m, out)


def write_csv(f: GridFunction, path) -> None:
    """Rows x,re,im at midpoints, with a '# k=<k> m=<m>' header."""
    x = f.midpoints()
    with open(path, "w") as fh:
        fh.write(f"# k={f.k} m={f.m}\n")
        for xi, v in zip(x, f.values):
            fh.write(f"{float(xi)!r},{float(v.real)!r},{float(v.imag)!r}\n")


def read_csv(path) -> GridFunction:
    """Inverse of write_csv; exactly k*m data rows, then only blank lines."""
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ValueError(f"{path}: missing '# k=<k> m=<m>' header")
        fields = dict(part.split("=") for part in header[1:].split())
        k, m = int(fields["k"]), int(fields["m"])
        vals = np.empty(k * m, dtype=complex)
        for i in range(k * m):
            line = fh.readline()
            if not line:
                raise ValueError(f"{path}: expected {k * m} rows, got {i}")
            _, re, im = line.strip().split(",")
            vals[i] = float(re) + 1j * float(im)
        for line in fh:
            if line.strip():
                raise ValueError(f"{path}: data past the {k * m} rows the header declares")
    return GridFunction(k, m, vals)


def write_profile_csv(samples: np.ndarray, k: int, path) -> None:
    """A function on (0, b) sampled at its m midpoints; rows t,re,im."""
    samples = np.asarray(samples, dtype=complex)
    m = samples.shape[0]
    t = subinterval_midpoints(k, m)
    with open(path, "w") as fh:
        fh.write(f"# k={k} m={m}\n")
        for ti, v in zip(t, samples):
            fh.write(f"{float(ti)!r},{float(v.real)!r},{float(v.imag)!r}\n")


def read_profile_csv(path) -> tuple[np.ndarray, int]:
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ValueError(f"{path}: missing '# k=<k> m=<m>' header")
        fields = dict(part.split("=") for part in header[1:].split())
        k, m = int(fields["k"]), int(fields["m"])
        vals = np.empty(m, dtype=complex)
        for i in range(m):
            line = fh.readline()
            if not line:
                raise ValueError(f"{path}: expected {m} rows, got {i}")
            _, re, im = line.strip().split(",")
            vals[i] = float(re) + 1j * float(im)
    return vals, k
