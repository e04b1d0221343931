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
On the grid each chop is a reshape of the samples to (k, m), with the
pieces in reverse order for R, followed by a reversal of every other row;
the inverses reverse the same rows back.  Every chop returns a fresh
C-contiguous copy, and nothing is kept per grid between calls.
"""

from __future__ import annotations

import itertools
import re
import warnings
from dataclasses import dataclass
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
    def from_callable(cls, fn: Callable, k: int, m: int) -> "GridFunction":
        x = grid_midpoints(k, m)
        return cls(k, m, np.asarray(fn(x), dtype=complex) * np.ones_like(x))

    @classmethod
    def zeros(cls, k: int, m: int) -> "GridFunction":
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
    """make(k*m) for a valid grid shape; a grid the allocator refuses is a ValueError naming it.

    make only allocates, so its one failure is the allocator's: a MemoryError
    when the memory is missing, a ValueError when the size is beyond the
    platform's index range.
    """
    _check_grid(k, m)
    try:
        return make(k * m)
    except (MemoryError, ValueError):
        raise ValueError(f"a grid with k={k}, m={m} has {k * m} points, too many to allocate") from None


def grid_midpoints(k: int, m: int) -> np.ndarray:
    """Midpoints x_i = (i + 1/2)/(k*m) of the k*m cells of (0, 1)."""
    return _allocate_grid(k, m, lambda n: (np.arange(n) + 0.5) / n)


def require_finite(values: np.ndarray, what: str) -> None:
    """ArithmeticError naming the first midpoint x_i of the n samples where what overflowed double precision."""
    finite = np.isfinite(values)
    if not finite.all():
        raise ArithmeticError(f"{what} overflows double precision at x={(np.argmin(finite) + 0.5) / len(values):.6f}")


def subinterval_midpoints(k: int, m: int) -> np.ndarray:
    """Midpoints t_i = (i + 1/2) b/m of (0, b), b = 1/k."""
    return _allocate_grid(k, m, lambda n: (np.arange(m) + 0.5) / n)


def _reflect_rows(grid: np.ndarray, first: int) -> np.ndarray:
    """A C-contiguous copy of the (k, m) grid with rows first, first + 2, ... reversed.

    Reversing the same rows twice gives the grid back, so the helper is its
    own inverse: each chop and its inverse call it with the same rows.
    """
    out = np.array(grid, order="C")
    out[first::2] = grid[first::2, ::-1]
    return out


def q_apply(f: GridFunction) -> np.ndarray:
    """Chop f into the k-vector (f, Q_2 f, ..., Q_k f) on (0, b), shape (k, m)."""
    return _reflect_rows(f.values.reshape(f.k, f.m), 1)


def q_inverse(comps: np.ndarray) -> GridFunction:
    """Reassemble a (k, m) array into a function on (0,1); exact inverse of q_apply."""
    k, m = comps.shape
    return GridFunction(k, m, _reflect_rows(comps, 1).ravel())


def r_apply(f: GridFunction, j: int) -> np.ndarray:
    """Chop f into (R_1 f, ..., R_k f), shape (k, m): the pieces last to first, row nu reflected for odd j+nu."""
    return _reflect_rows(f.values.reshape(f.k, f.m)[::-1], j % 2)


def r_inverse(comps: np.ndarray, j: int) -> GridFunction:
    """Reassemble a (k, m) array into a function on (0,1); exact inverse of r_apply.

    Component nu lands on ((k-nu)b, (k-nu+1)b), shifted for even j+nu and
    reflected for odd j+nu.  Even j with even k is rejected (coprime j, k
    never produce it).
    """
    k, m = comps.shape
    if j % 2 == 0 and k % 2 == 0:
        raise ValueError("even j with even k is outside the coprime family")
    # piece p of (0,1) is component nu = k - p, reflected when j + k - p is odd
    return GridFunction(k, m, _reflect_rows(comps[::-1], (k - 1 - j) % 2).ravel())


CSV_CHUNK = 4096  # rows formatted or parsed at a time by write_csv and _read_rows


def _x_templates(x: np.ndarray):
    """Per CSV_CHUNK rows of x, the rows with x written out and '%r,%r' left for re, im."""
    for s in range(0, len(x), CSV_CHUNK):
        chunk = x[s : s + CSV_CHUNK]
        yield "%r,%%r,%%r\n" * len(chunk) % tuple(chunk.tolist())


def write_csv(f: GridFunction, path, *more: tuple[GridFunction, object]) -> None:
    """Rows x,re,im at midpoints, with a '# k=<k> m=<m>' header: f to path, then each (g, path) of more.

    Every function must lie on f's grid, else ValueError before any file is
    opened.  x is formatted in one pass, CSV_CHUNK rows at a time, into a
    template that each file fills with its re, im; the files are written one
    after the other, in order, so a file that fails to open leaves the ones
    before it complete.  %r of a float is float.__repr__, so the bytes are
    those of a per-row repr, and a rerun writes every file byte-identical.
    """
    for g, _ in more:
        f._check_aligned(g)
    templates = _x_templates(f.midpoints())
    if more:  # kept for every file; a single file streams them
        templates = list(templates)
    for g, p in ((f, path), *more):
        with open(p, "w") as fh:
            fh.write(f"# k={g.k} m={g.m}\n")
            for s, template in zip(range(0, len(g.values), CSV_CHUNK), templates):
                fh.write(template % tuple(g.values[s : s + CSV_CHUNK].view(float).tolist()))


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
