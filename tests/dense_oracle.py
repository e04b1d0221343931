"""Generic oracles of the test suite, written without the structure they check.

cycle_blocks walks the row-column graph of any sparse +-1 matrix with two
entries per row and per column, given per row as (col, value) pairs;
frozen_matrix.orbit is held against it.
"""

from __future__ import annotations

import math

import numpy as np


def inversion_sign(perm: list[int]) -> int:
    """Sign of a permutation of 0..n-1 as (-1)^(number of inversions), in O(n^2)."""
    p = np.array(perm)
    return -1 if np.triu(p[:, None] > p[None, :], 1).sum() % 2 else 1


def cycle_blocks(rows) -> tuple[int, list[tuple]]:
    """sgn(sigma_a) and, per cycle of the row-column graph, its walk, sign product and block det.

    With exactly two +-1 entries per row and two nonzeros per column, both
    asserted, the row-column graph is a union of even cycles, and the
    matrix is, up to a permutation, the direct sum of one block per cycle.
    Walking a cycle of L rows picks the a-edge a_t in column c_t of row r_t
    and reaches the next row by the b-edge of that column, so row r_t holds
    b_t in column c_(t-1) (c_(-1) = c_(L-1)).  The walk forms
    g_t = prod_{s<=t} (-a_s b_s) and keeps (rows, cols, a, g) and the block
    det: only the all-a and all-b permutations live in the block, so
    relative to sigma_a, which picks every a-edge,
    det = prod(a) + (-1)^(L-1) prod(b) = prod(a) (1 - g_(L-1)).  A row whose
    two entries share a column (a = 0) is a cycle of one row.  Each cycle
    starts at its lowest row, entered by that row's second entry.
    """
    col_rows: list[list[int]] = [[] for _ in rows]
    for i, row in enumerate(rows):
        try:
            (c1, v1), (c2, v2) = row
            ok = v1 in (1, -1) and v2 in (1, -1)
        except ValueError:
            ok = False
        if not ok:
            raise AssertionError(f"row {i} is {row}, expected two +-1 entries")
        col_rows[c1].append(i)
        col_rows[c2].append(i)
    for col, entries in enumerate(col_rows):
        if len(entries) != 2:
            raise AssertionError(f"column {col} has {len(entries)} nonzeros, expected 2")
    sigma_a = [-1] * len(rows)
    cycles = []
    for start in range(len(rows)):
        if sigma_a[start] >= 0:
            continue
        walk_rows, cols, a, g = [], [], [], []
        i, prev, sign = start, rows[start][1][0], 1  # enter the first row by its second entry, its b-edge
        while True:
            (c1, v1), (c2, v2) = rows[i]
            col, v, w = (c2, v2, v1) if c1 == prev else (c1, v1, v2)
            sigma_a[i] = col
            sign *= -v * w
            walk_rows.append(i)
            cols.append(col)
            a.append(v)
            g.append(sign)
            r1, r2 = col_rows[col]
            i, prev = (r2 if r1 == i else r1), col
            if i == start:
                break
        cycles.append((tuple(walk_rows), tuple(cols), tuple(a), tuple(g), math.prod(a) * (1 - sign)))
    return inversion_sign(sigma_a), cycles
