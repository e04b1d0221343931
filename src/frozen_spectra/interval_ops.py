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

import itertools
import re
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Samples at the k*m grid midpoints, held as a read-only copy of the input.

    The samples never change after construction, so a GridFunction can key
    per-potential caches by identity (eq=False keeps the identity hash).
    """

    k: int
    m: int
    values: np.ndarray  # complex, length k*m, read-only

    def __post_init__(self):
        _check_grid(self.k, self.m)
        v = np.array(self.values, dtype=complex)
        if v.shape != (self.k * self.m,):
            raise ValueError(f"expected {self.k * self.m} samples, got shape {v.shape}")
        v.setflags(write=False)
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
        return cls(k, m, _allocate_grid(k, m, lambda n: np.zeros(n, dtype=complex)))

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check_aligned(other)
        return GridFunction(self.k, self.m, self.values + other.values)

    def _check_aligned(self, other: "GridFunction") -> None:
        if (self.k, self.m) != (other.k, other.m):
            raise ValueError(f"grid mismatch: ({self.k},{self.m}) vs ({other.k},{other.m})")


def _check_grid(k: int, m: int) -> None:
    """Reject a grid shape before anything is allocated for it."""
    if k < 1 or m < 1:
        raise ValueError(f"a grid needs k >= 1 and m >= 1, got k={k}, m={m}")


def _allocate_grid(k: int, m: int, make: Callable[[int], np.ndarray]) -> np.ndarray:
    """make(k*m) for a valid grid shape; a grid the allocator refuses is a ValueError naming it."""
    _check_grid(k, m)
    try:
        return make(k * m)
    except MemoryError:
        raise ValueError(f"a grid with k={k}, m={m} has {k * m} points, too many to allocate") from None


def grid_midpoints(k: int, m: int) -> np.ndarray:
    """Midpoints x_i = (i + 1/2)/(k*m) of the k*m cells of (0, 1)."""
    return _allocate_grid(k, m, lambda n: (np.arange(n) + 0.5) / n)


def subinterval_midpoints(k: int, m: int) -> np.ndarray:
    """Midpoints t_i = (i + 1/2) b/m of (0, b), b = 1/k."""
    _check_grid(k, m)
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
    """Row nu of R is row k+1-nu of Q, reversed within the row when j + k is odd."""
    perm = _q_permutation(k, m)[::-1]
    perm = np.ascontiguousarray(perm if (j_parity + k) % 2 == 0 else perm[:, ::-1])  # fast to index by
    perm.setflags(write=False)
    return perm


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


CSV_CHUNK = 4096  # rows formatted or parsed at a time by write_csv and _read_rows


def write_csv(f: GridFunction, path) -> None:
    """Rows x,re,im at midpoints, with a '# k=<k> m=<m>' header.

    Rows are formatted CSV_CHUNK at a time by one '%r,%r,%r\\n' * rows format
    over Python floats.  %r of a float is float.__repr__, so the bytes are those
    of a per-row repr, and a rerun writes the file byte-identical.
    """
    x, v = f.midpoints(), f.values
    with open(path, "w") as fh:
        fh.write(f"# k={f.k} m={f.m}\n")
        for s in range(0, len(x), CSV_CHUNK):
            rows = np.column_stack([x[s : s + CSV_CHUNK], v.real[s : s + CSV_CHUNK], v.imag[s : s + CSV_CHUNK]])
            fh.write("%r,%r,%r\n" * len(rows) % tuple(rows.ravel().tolist()))


_HEADER = re.compile(r"#\s*k=([0-9]+)\s+m=([0-9]+)")


def _parse_rows(path, lines: list[str], first: int) -> np.ndarray:
    """Lines first+1, first+2, ... (1-based data rows) as an (n, 3) table of x, re, im.

    numpy's C parser reads the whole chunk; when it fails or drops a blank
    line, the rows are read one by one with float(), which accepts what the
    C parser does and more, and which names the file and the row that fails.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a chunk of blank lines warns "input contained no data"
            table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        if table.shape == (len(lines), 3):
            return table
    except ValueError:
        pass
    table = np.empty((len(lines), 3))
    for i, line in enumerate(lines):
        try:
            x, real, imag = line.strip().split(",")
            table[i] = float(x), float(real), float(imag)
        except ValueError:
            raise ValueError(f"{path}: data row {first + i + 1} is not x,re,im: {line.strip()!r}") from None
    return table


def _read_rows(
    path, rows: Callable[[int, int], int], midpoints: Callable[[int, int], np.ndarray]
) -> tuple[int, int, np.ndarray]:
    """A '# k=<k> m=<m>' header, exactly rows(k, m) finite rows x,re,im, then only blank lines.

    k and m are integers >= 1, each given once.  The body is read and parsed
    at most CSV_CHUNK lines at a time, so a header that declares more rows
    than the file holds allocates nothing for the missing ones.  Each x must
    lie within a quarter cell, h/4 with h = 1/(k*m), of midpoints(k, m) at
    its row, so rounded x still load but a row out of place does not.  The
    errors come in this order: header, row shape, row count, trailing data,
    non-finite re/im, x; each names the file, and a row error its 1-based row.
    Returns (k, m, samples), the samples built as re + 1j*im.
    """
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ValueError(f"{path}: missing '# k=<k> m=<m>' header")
        match = _HEADER.fullmatch(header)
        k, m = (int(match[1]), int(match[2])) if match else (0, 0)
        if min(k, m) < 1:
            raise ValueError(f"{path}: header {header!r} is not '# k=<k> m=<m>' with integers k, m >= 1")
        n = rows(k, m)
        chunks, got = [], 0
        while got < n:
            want = min(CSV_CHUNK, n - got)
            lines = list(itertools.islice(fh, want))
            chunks.append(_parse_rows(path, lines, got))
            got += len(lines)
            if len(lines) < want:
                raise ValueError(f"{path}: expected {n} rows, got {got} (header {header!r})")
        for line in fh:
            if line.strip():
                raise ValueError(f"{path}: data past the {n} rows the header declares")
    table = np.concatenate(chunks)
    with np.errstate(invalid="ignore"):  # 1j * inf has a nan real part, as in Python; rejected below
        vals = table[:, 1] + 1j * table[:, 2]
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise ValueError(f"{path}: data row {bad[0] + 1} holds a non-finite value {vals[bad[0]]}")
    mid = midpoints(k, m)
    off = np.flatnonzero(~(np.abs(table[:, 0] - mid) <= 0.25 / (k * m)))
    if off.size:
        i = off[0]
        raise ValueError(
            f"{path}: data row {i + 1} has x={float(table[i, 0])!r}, not within h/4 of its midpoint {float(mid[i])!r}"
        )
    return k, m, vals


def read_csv(path) -> GridFunction:
    """Inverse of write_csv: k*m rows at the midpoints of (0, 1)."""
    k, m, vals = _read_rows(path, lambda k, m: k * m, grid_midpoints)
    return GridFunction(k, m, vals)


def read_profile_csv(path) -> tuple[np.ndarray, int]:
    """A function on (0, b), b = 1/k, as m rows t,re,im at its midpoints; returns (samples, k)."""
    k, _, vals = _read_rows(path, lambda k, m: m, subinterval_midpoints)
    return vals, k
