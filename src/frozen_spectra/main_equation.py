"""The main equation of the inverse problem: q -> W and back.

W is the function the spectrum determines; the potential solves
    W(x) = ((-1)^(alpha*beta)/2) Q^{-1} A R q(x)
with A the frozen matrix.  The forward map is implemented twice (explicit
three-branch formula and matrix form) so each can serve as the other's
oracle.  Each has one array core over a stack of potentials on one
(j, k) grid, a flag pair per row (_direct_rows, _matrix_rows), which
the verify oracle calls on the four flag pairs of a (j, k) at once; the
public maps check their grid and config and run their core on the
batch of one, and a row has the same bits in any batch.  The inverse
solve runs on the orbit of A, its one cycle through all k rows, for all
grid points of (0, b) at once.  In the degenerate
cases the forward map has the null direction R^{-1}(X f), X the +-1
kernel vector of A and f any function on (0, b): it is the kernel
direction of the inverse solve and the supplement of every iso-spectral
family.  X is read off the orbit, the one place singularity is decided,
by solve_inverse and kernel(), and lifted by _lift.  At a = 0, A is the
1 x 1 matrix c + d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_params import ProblemConfig, require_grid, require_normalized, signs
from .frozen_matrix import _dense, _flag_columns, _fold_rule, _require_rows, _zeros, kernel, orbit
from .interval_ops import GridFunction, _reflect_rows, q_apply, r_inverse, require_finite


class InconsistentSystemError(ValueError):
    """W is not attainable by the forward map (degenerate case)."""


@dataclass(frozen=True, eq=False)
class MainEqSolution:
    particular: GridFunction
    kernel_generator: GridFunction | None  # None in the non-degenerate cases


def _check_grid(f: GridFunction, config: ProblemConfig) -> None:
    require_grid(f, config)
    require_normalized(config)


def forward_w_direct(q: GridFunction, config: ProblemConfig) -> GridFunction:
    """W from q by the explicit piecewise formula: _direct_rows on the batch of one.

    With a = j/k, prefactor p = (-1)^(alpha*beta)/2:
      W(x) = p (q(1-a+x) + d q(1-a-x))        on (0, a)
             p (c q(1+a-x) + d q(1-a-x))      on (a, 1-a)
             p c (q(1+a-x) + q(x-1+a))        on (1-a, 1)
    All arguments land exactly on grid midpoints, so with r the samples
    read backwards, q(1 - x_i) = r[i], each piece is two slices of q or r.
    A W beyond double precision raises ArithmeticError naming its grid point.
    """
    _check_grid(q, config)
    out = _direct_rows(q.values[None], [(config.alpha, config.beta)], config.j, q.m)[0]
    require_finite(out, "W")
    return GridFunction(q.k, q.m, out)


def _direct_rows(v: np.ndarray, pairs, j: int, m: int) -> np.ndarray:
    """The piecewise formula of forward_w_direct on the (B, n) rows v, one potential each on one grid of m per piece.

    Row b is read with the flag pair pairs[b]; c, d and the prefactor are a
    column per row, so each piece is two slices of the (B, n) stack, and a
    row has the bits it has alone.  An overflow is left in the rows; the
    caller checks the grid and the config.
    """
    alpha, beta = _flag_columns(pairs)
    c, d = signs(alpha, beta)
    pref = 0.5 * (-1) ** (alpha * beta)
    n = v.shape[-1]
    jm = j * m
    r = v[:, ::-1]
    out = np.empty(v.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # forward_w_direct refuses an overflow, by grid point
        out[:, :jm] = pref * (v[:, n - jm :] + d * r[:, jm : 2 * jm])
        out[:, jm : n - jm] = pref * (c * r[:, : n - 2 * jm] + d * r[:, 2 * jm :])
        out[:, n - jm :] = pref * c * (r[:, n - 2 * jm : n - jm] + v[:, :jm])
    return out


def forward_w_matrix(q: GridFunction, config: ProblemConfig) -> GridFunction:
    """W from q via the matrix form p Q^{-1} A R q: _matrix_rows on the batch of one."""
    _check_grid(q, config)
    return GridFunction(q.k, q.m, _matrix_rows(q.values[None], [(config.alpha, config.beta)], config.j, q.k, q.m)[0])


def _matrix_rows(v: np.ndarray, pairs, j: int, k: int, m: int) -> np.ndarray:
    """p Q^{-1} A R q on the (B, k m) rows v, one potential each on the grid (k, m), row b with the flag pair pairs[b].

    One _fold_rule call gives the rows of every pair's A, one scatter
    their (B, k, k) int64 stack (the zeros first, so a size the allocator
    refuses is named, see build_matrix), and R, the product and Q^{-1}
    run on (B, k, m) stacks, the chops of r_apply and q_inverse.  A row
    has the bits it has alone.  The caller checks the grid and the config.
    """
    _require_rows(k)
    alpha, beta = _flag_columns(pairs)
    a = _dense(_zeros((len(v), k, k)), *_fold_rule(np.arange(k), j, k, *signs(alpha, beta)))
    rq = _reflect_rows(v.reshape(len(v), k, m)[:, ::-1], j % 2)
    pref = 0.5 * (-1) ** (alpha * beta)
    return _reflect_rows(pref[..., None] * (a @ rq), 1).reshape(len(v), k * m)


def _lift(x: tuple[int, ...], profile: np.ndarray, j: int) -> GridFunction:
    """R^{-1}(X f): row nu of the (k, m) array is x_nu times the m samples f."""
    return r_inverse(np.outer(np.array(x, dtype=complex), profile), j)


def null_direction(config: ProblemConfig, profile: np.ndarray) -> GridFunction:
    """R^{-1}(X f) for the m samples f of a profile on (0, b), b = 1/k.

    X = kernel(config).generator, so the forward map sends the result to
    zero; a profile that is not 1-D, or a config whose matrix is regular,
    raises ValueError.  At a = 0 with alpha = 0, X = (1,) and the result is
    f(1 - x).
    """
    if np.ndim(profile) != 1:
        raise ValueError(f"profile must be a 1-D array of samples, got shape {np.shape(profile)}")
    x = kernel(config).generator
    if not x:
        raise ValueError(f"iso-spectral supplements exist only in the degenerate cases; {config} is non-degenerate")
    return _lift(x, profile, config.j)


def solve_inverse(
    w: GridFunction,
    config: ProblemConfig,
    residual_rtol: float = 1e-9,
) -> MainEqSolution:
    """Solve the main equation A (Rq)(t) = 2 (-1)^(alpha*beta) (QW)(t) for q.

    All grid points t of (0, b) are solved at once on orbit(config), one
    gather of the k rows and one cumsum, with no matrix built.  Row r_t
    reads a_t y[c_t] + b_t y[c_(t-1)] = f_t with +-1 entries, so
    y[c_t] = g_t (z + p_t) for the orbit's g and p = cumsum(g a f).
    S = p_(k-1) closes a regular A (g_(k-1) = -1) with z = -S/2.  On a
    singular A p_t - (t+1) S/k projects f onto the range, |S|/k is the
    least-squares residual per row, and z = -mean(p) gives the minimum-norm
    solution, returned with the kernel direction R^{-1}(X * 1), X =
    Orbit.null_vector.  A residual above residual_rtol * ||rhs||, or NaN,
    raises InconsistentSystemError naming the worst grid point.
    residual_rtol must be finite and >= 0, W finite, the config coprime
    (ValueError); an overflowing solve raises ArithmeticError naming its
    grid point.
    """
    if not (math.isfinite(residual_rtol) and residual_rtol >= 0):
        raise ValueError(f"residual_rtol must be finite and >= 0, got {residual_rtol}")
    _check_grid(w, config)
    if not np.isfinite(w.values).all():
        raise ValueError("W holds a NaN or inf sample")
    if config.k == 1 and config.alpha == 0:
        raise ValueError(
            "with a = 0 and a Dirichlet condition at 0 the forward map is "
            "identically zero, so W determines nothing about the potential"
        )
    orb = orbit(config)
    rows, cols, a, g = orb.rows, orb.cols, orb.a, orb.g
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below, by grid point
        rhs = 2.0 * (-1) ** (config.alpha * config.beta) * q_apply(w)
        p = np.cumsum((g * a)[:, None] * rhs[rows], axis=0)
        if orb.singular:
            s = p[-1] / config.k
            resid = np.abs(s)
            p = p - np.arange(1, config.k + 1)[:, None] * s
            p -= p.mean(axis=0)
        else:
            resid = np.zeros(w.m)
            p -= p[-1] / 2
        y = np.empty_like(rhs)
        y[cols] = g[:, None] * p
        finite = np.isfinite(y).all(axis=0)
        worst = int(np.argmax(resid) if finite.all() else np.argmin(finite))
        t_worst = (worst + 0.5) / (w.k * w.m)
        if not finite[worst]:
            raise ArithmeticError(f"the solve overflows double precision at grid point t={t_worst:.6f}")
        scale = max(np.abs(rhs).max(), 1e-300)
        if not resid[worst] <= residual_rtol * scale:
            raise InconsistentSystemError(
                f"W is not attainable: relative residual {resid[worst] / scale:.3e} "
                f"at grid point t={t_worst:.6f} exceeds {residual_rtol:.1e}"
            )
    x = orb.null_vector
    kernel_direction = _lift(x, np.ones(w.m), config.j) if x else None
    return MainEqSolution(r_inverse(y, config.j), kernel_direction)
