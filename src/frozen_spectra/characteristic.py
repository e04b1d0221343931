"""Characteristic function of the boundary value problem, by three routes.

Route 1 (delta_direct) builds the 2x2 boundary determinant from the
fundamental solutions
    C(x) = cos rho(x-a) + int_a^x sin(rho(x-t))/rho q(t) dt,
    S(x) = sin(rho(x-a))/rho,          rho^2 = lambda,
with composite midpoint quadrature on the shared grid; its kernel sums
factor every e^{+-i rho s} over blocks of about sqrt(n) of the n grid
points, so an evaluation costs about 4 sqrt(n) complex exps and two thin
matrix products rather than n exps.  Route 2 (delta_from_w) integrates
W against the trig kernels.  Route 3 (delta_from_spectrum) evaluates the
canonical infinite product over a truncated spectrum, pairing each
retained factor with the matching zero-potential factor so the tail is
exactly 1 under lambda_n = lambda_n^0.

All formulas are even in rho, so the branch of the square root is
immaterial; one canonical branch also makes the rounding of the exp
kernel in delta_direct independent of it.  delta_direct can return the
analytic dDelta/dlambda of its quadrature next to Delta, which is what
eigenvalues runs Newton on.  Kernels switch to Taylor series below
|rho| = 1e-3 where sin(rho s)/rho would cancel badly.
"""

from __future__ import annotations

import cmath
import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

from .core_params import ProblemConfig
from .interval_ops import GridFunction, grid_midpoints

RHO_SERIES_THRESHOLD = 1e-3
_SERIES_TERMS = 8
_NEWTON_MAX_STEPS = 60


class RootConvergenceError(RuntimeError):
    """Newton/secant search failed for one eigenvalue index."""


class EigenvalueCollisionError(RuntimeError):
    """Two asymptotic indices converged onto the same root."""


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in asymptotic order, lambda_n ~ (n - (alpha+beta)/2)^2 pi^2."""

    alpha: int
    beta: int
    eigenvalues: tuple[complex, ...]

    @property
    def count(self) -> int:
        return len(self.eigenvalues)

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "eigenvalues": [[z.real, z.imag] for z in self.eigenvalues],
        }

    @staticmethod
    def from_dict(d: dict) -> "Spectrum":
        """Inverse of to_dict; ValueError unless alpha, beta are 0/1 and each eigenvalue a finite [re, im]."""
        if not isinstance(d, dict):
            raise ValueError(f"a spectrum is a JSON object, got {type(d).__name__}")
        alpha, beta = d["alpha"], d["beta"]
        if not all(type(f) is int and f in (0, 1) for f in (alpha, beta)):
            raise ValueError(f"spectrum alpha and beta must be 0 or 1, got {alpha!r} and {beta!r}")
        try:
            evs = tuple(complex(re, im) for re, im in d["eigenvalues"])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"spectrum eigenvalues must be [re, im] pairs of real numbers: {exc}") from None
        if not all(map(cmath.isfinite, evs)):
            n = next(n for n, z in enumerate(evs, start=1) if not cmath.isfinite(z))
            raise ValueError(f"spectrum eigenvalue {n} is {evs[n - 1]}, not finite")
        return Spectrum(alpha, beta, evs)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)
            fh.write("\n")

    @staticmethod
    def load(path) -> "Spectrum":
        with open(path) as fh:
            return Spectrum.from_dict(json.load(fh))


def asymptotic_eigenvalue(alpha: int, beta: int, n: int) -> float:
    """Zero-potential eigenvalue (n - (alpha+beta)/2)^2 pi^2, n >= 1."""
    return (n - (alpha + beta) / 2) ** 2 * math.pi**2


def _sqrt_lambda(lam: complex) -> complex:
    """sqrt(lambda) on one canonical branch: Re rho > 0, or Re rho = 0 and Im rho >= 0.

    Every formula is even in rho, but the exp kernel of delta_direct is not
    symmetric in rounding, so lambda = x + 0j and x - 0j must give one rho.
    """
    rho = cmath.sqrt(lam)
    if rho.real == 0.0 and rho.imag < 0.0:
        rho = complex(0.0, -rho.imag)
    return rho


def _ksin(s, rho: complex):
    """sin(rho*s)/rho, elementwise; Taylor series for small |rho|."""
    if abs(rho) >= RHO_SERIES_THRESHOLD:
        return np.sin(rho * s) / rho
    t = (rho * s) ** 2
    acc = (-1) ** (_SERIES_TERMS - 1) / math.factorial(2 * _SERIES_TERMS - 1)
    for n in range(_SERIES_TERMS - 2, -1, -1):
        acc = acc * t + (-1) ** n / math.factorial(2 * n + 1)
    return s * acc


def _dksin(s, rho: complex):
    """d/dlambda of sin(rho*s)/rho = (s cos(rho s) - sin(rho s)/rho)/(2 lambda), elementwise.

    Below the series threshold, the term-by-term derivative of the series of
    _ksin in lambda: s^3 sum_{n>=1} (-1)^n n (rho s)^(2n-2)/(2n+1)!.
    """
    if abs(rho) >= RHO_SERIES_THRESHOLD:
        return (s * np.cos(rho * s) - np.sin(rho * s) / rho) / (2 * rho**2)
    t = (rho * s) ** 2
    acc = 0.0
    for n in range(_SERIES_TERMS, 0, -1):
        acc = acc * t + (-1) ** n * n / math.factorial(2 * n + 1)
    return s**3 * acc


def _kcosm1(s, rho: complex):
    """(cos(rho*s) - 1)/rho^2, elementwise; series for small |rho|."""
    if abs(rho) >= RHO_SERIES_THRESHOLD:
        return (np.cos(rho * s) - 1.0) / rho**2
    t = (rho * s) ** 2
    acc = (-1) ** _SERIES_TERMS / math.factorial(2 * _SERIES_TERMS)
    for n in range(_SERIES_TERMS - 1, 0, -1):
        acc = acc * t + (-1) ** n / math.factorial(2 * n)
    return s**2 * acc


@lru_cache(maxsize=None)
def _chop_lengths(k: int, m: int, jm: int) -> np.ndarray:
    """Length s of each grid midpoint's chop: x on the head [:jm], 1 - x on the tail."""
    x = grid_midpoints(k, m)
    s = np.concatenate((x[:jm], 1.0 - x[jm:]))
    s.setflags(write=False)
    return s


@lru_cache(maxsize=None)
def _block_layout(k: int, m: int, jm: int):
    """The chop lengths in blocks: x_t = (t + 1/2)/n = coarse_B + fine_r, t = B*b + r.

    The head's lengths are x_0..x_{jm-1}; the tail's, read backwards, are
    x_0..x_{n-jm-1}, because 1 - x_i = x_{n-1-i}.  With b = isqrt(n) points per
    block and enough blocks for the longer of the two, returns b, the signed
    offsets [[fine, coarse], [-fine, -coarse]] whose exps give every factor
    e^{+-i rho x}, their weights [1, x, 1, x] for the rows of the slope sums,
    and the zero padding that fills head and reversed tail to whole blocks.
    """
    n = k * m
    b = math.isqrt(n)
    blocks = -(-max(jm, n - jm) // b)
    x = np.concatenate(((np.arange(b) + 0.5) / n, np.arange(blocks) * (b / n)))
    ones = np.ones_like(x)
    layout = (np.stack((x, -x)), np.stack((ones, x, ones, x)),
              np.zeros(blocks * b - jm, dtype=complex), np.zeros(blocks * b - (n - jm), dtype=complex))
    for a in layout:
        a.setflags(write=False)
    return (b, *layout)


def _kernel_sums(q: GridFunction, jm: int, rho: complex, lam: complex, slope: bool):
    """Sums of q * sin(rho s)/rho and q * cos(rho s) over head and tail.

    Returns ((sin_head, sin_tail), (cos_head, cos_tail)) and, with slope, the
    same two pairs differentiated in lambda, else None.  Above the series
    threshold the sums of q e^{+-i rho s} and q s e^{+-i rho s} carry
    everything, and
        d/dlambda cos(rho s)       = -(s/2) sin(rho s)/rho,
        d/dlambda sin(rho s)/rho   = (s cos(rho s) - sin(rho s)/rho)/(2 lambda).
    Those sums come blocked (see _block_layout), with s = coarse + fine and
    e^{+-i rho s} = E+-(coarse) F+-(fine): head and reversed tail, as rows of b
    samples, meet [F+, fine F+, F-, fine F-] in one (rows x b) @ (b x 4)
    product, and [E+, coarse E+, E-, coarse E-] turns each side's row sums
    into its four sums.  A call takes 2(b + blocks), about 4 sqrt(n), complex
    exps and two thin matrix products, and no n-length array but the rows;
    the value sums are the same floats with or without slope.
    """
    v = q.values
    if abs(rho) < RHO_SERIES_THRESHOLD:
        s = _chop_lengths(q.k, q.m, jm)

        def dot(w, kern):
            return complex(w[:jm] @ kern[:jm]), complex(w[jm:] @ kern[jm:])

        ksin = _ksin(s, rho)
        sums = dot(v, ksin), dot(v, np.cos(rho * s))
        if not slope:
            return sums, None
        return sums, (dot(v, _dksin(s, rho)), dot(v, -0.5 * s * ksin))
    b, offsets, weights, pad_head, pad_tail = _block_layout(q.k, q.m, jm)
    # rows e^{i rho x}, x e^{i rho x}, e^{-i rho x}, x e^{-i rho x}; columns the fine, then the coarse points
    factors = np.exp((1j * rho) * offsets)[[0, 0, 1, 1]] * weights
    rows = np.concatenate((v[:jm], pad_head, v[jm:][::-1], pad_tail)).reshape(-1, b)
    row_sums = (rows @ factors[:, :b].T).reshape(2, -1, 4)
    head, tail = (factors[:, b:] @ row_sums).tolist()
    ep, em = (head[0][0], tail[0][0]), (head[2][2], tail[2][2])
    sin_sums = tuple((p - m) / (2j * rho) for p, m in zip(ep, em))
    sums = sin_sums, tuple((p + m) / 2 for p, m in zip(ep, em))
    if not slope:
        return sums, None
    sp = tuple(u[1][0] + u[0][1] for u in (head, tail))
    sm = tuple(u[3][2] + u[2][3] for u in (head, tail))
    dsin = tuple(((p + m) / 2 - ks) / (2 * lam) for p, m, ks in zip(sp, sm, sin_sums))
    dcos = tuple((m - p) / (4j * rho) for p, m in zip(sp, sm))
    return sums, (dsin, dcos)


def delta_direct(q: GridFunction, config: ProblemConfig, lam: complex, slope: bool = False):
    """Characteristic determinant evaluated straight from the potential.

    With slope=True, returns (Delta, dDelta/dlambda) of the same quadrature,
    from the same kernel pass; the default returns Delta alone.
    """
    if q.k != config.k:
        raise ValueError(f"grid has k={q.k} but config needs k={config.k}")
    lam = complex(lam)
    rho = _sqrt_lambda(lam)
    a = config.j / config.k
    h = q.h
    jm = config.j * q.m
    (isin, icos), dsums = _kernel_sums(q, jm, rho, lam, slope)

    ks0, ks1 = _ksin(a, rho), _ksin(1 - a, rho)
    cs0, cs1 = cmath.cos(rho * a), cmath.cos(rho * (1 - a))
    c0 = cs0 + h * isin[0]
    c1 = cs1 + h * isin[1]
    cp0 = lam * ks0 - h * icos[0]
    cp1 = -lam * ks1 + h * icos[1]
    top = (c0, -ks0) if config.alpha == 0 else (cp0, cs0)
    bot = (c1, ks1) if config.beta == 0 else (cp1, cs1)
    value = complex(top[0] * bot[1] - top[1] * bot[0])
    if not slope:
        return value

    dsin, dcos = dsums
    dks0, dks1 = _dksin(a, rho), _dksin(1 - a, rho)
    dcs0, dcs1 = -0.5 * a * ks0, -0.5 * (1 - a) * ks1
    dc0 = dcs0 + h * dsin[0]
    dc1 = dcs1 + h * dsin[1]
    dcp0 = ks0 + lam * dks0 - h * dcos[0]
    dcp1 = -ks1 - lam * dks1 + h * dcos[1]
    dtop = (dc0, -dks0) if config.alpha == 0 else (dcp0, dcs0)
    dbot = (dc1, dks1) if config.beta == 0 else (dcp1, dcs1)
    dvalue = dtop[0] * bot[1] + top[0] * dbot[1] - dtop[1] * bot[0] - top[1] * dbot[0]
    return value, complex(dvalue)


def delta_from_w(w: GridFunction, alpha: int, beta: int, lam: complex) -> complex:
    """Characteristic determinant from W.

    alpha != beta:  (-1)^alpha cos rho + int W(x) sin(rho x)/rho dx
    (1,1):          rho sin rho + int W(x) cos(rho x) dx
    (0,0):          sin(rho)/rho + int W(x) cos(rho x)/rho^2 dx, computed
                    with the mean of W split off; for |rho| below the
                    series threshold the mean term is dropped, which is the
                    entire continuation valid for zero-mean W (every W in
                    the range of the forward map has zero mean).
    """
    rho = _sqrt_lambda(lam)
    x = w.midpoints()
    h = w.h
    if alpha != beta:
        quad = h * np.sum(w.values * _ksin(x, rho))
        return complex((-1) ** alpha * cmath.cos(rho) + quad)
    if alpha == 1:
        quad = h * np.sum(w.values * np.cos(rho * x))
        return complex(lam * _ksin(1.0, rho) + quad)
    quad = h * np.sum(w.values * _kcosm1(x, rho))
    val = _ksin(1.0, rho) + quad
    if abs(rho) >= RHO_SERIES_THRESHOLD:
        val = val + h * np.sum(w.values) / lam
    return complex(val)


def zero_potential_delta(alpha: int, beta: int, lam: complex) -> complex:
    """Closed-form characteristic function of the zero potential."""
    rho = _sqrt_lambda(lam)
    if alpha != beta:
        return complex((-1) ** alpha * cmath.cos(rho))
    if alpha == 0:
        return complex(_ksin(1.0, rho))
    return complex(lam * _ksin(1.0, rho))


def zero_potential_delta_dlam(alpha: int, beta: int, lam: complex) -> complex:
    """d/dlambda of the zero-potential characteristic function."""
    rho = _sqrt_lambda(lam)
    if alpha != beta:
        return complex((-1) ** (alpha + 1) * 0.5 * _ksin(1.0, rho))
    if alpha == 0:
        return complex(_dksin(1.0, rho))
    return complex(_ksin(1.0, rho) + lam * _dksin(1.0, rho))


def _find_root(f, lam0: complex, index: int) -> complex:
    """Newton on f(lam) = (value, slope); secant fallback on stagnation.

    Each step costs one evaluation of f, and the accepted root is the last
    point evaluated.  A non-finite value or slope raises at once.
    """

    def evaluate(x):
        fx, dfx = f(x)
        if not (cmath.isfinite(fx) and cmath.isfinite(dfx)):
            raise RootConvergenceError(
                f"eigenvalue index {index}: non-finite residual {fx} or slope {dfx} at lambda={x}"
            )
        return fx, dfx

    x = complex(lam0)
    fx, df = evaluate(x)
    prev_x = prev_f = None
    stagnant = 0
    for _ in range(_NEWTON_MAX_STEPS):
        if (stagnant >= 2 or df == 0) and prev_x is not None and fx != prev_f:
            step = fx * (x - prev_x) / (fx - prev_f)
        elif df != 0:
            step = fx / df
        else:
            step = 1e-6 * (1.0 + abs(x))
        x_new = x - step
        f_new, df = evaluate(x_new)
        stagnant = stagnant + 1 if abs(f_new) > 0.7 * abs(fx) else 0
        prev_x, prev_f = x, fx
        x, fx = x_new, f_new
        if abs(step) <= 1e-12 * (1.0 + abs(x)):
            return x
    raise RootConvergenceError(
        f"eigenvalue index {index}: no convergence after {_NEWTON_MAX_STEPS} iterations "
        f"(last residual {abs(fx):.3e} at lambda={x})"
    )


def eigenvalues(q: GridFunction, config: ProblemConfig, count: int) -> Spectrum:
    """First `count` eigenvalues, seeded from the zero-potential asymptotes.

    Roots are polished by Newton on delta_direct with its analytic slope
    (about three evaluations per root) and returned in asymptotic order;
    non-convergence raises RootConvergenceError with the index, and two
    indices landing on one root raise EigenvalueCollisionError (densify the
    grid or perturb the potential in that case).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    f = lambda lam: delta_direct(q, config, lam, slope=True)
    roots = []
    for n in range(1, count + 1):
        lam0 = asymptotic_eigenvalue(config.alpha, config.beta, n)
        roots.append(_find_root(f, lam0, n))
    order = sorted(range(count), key=lambda i: (roots[i].real, roots[i].imag))
    for u, v in zip(order, order[1:]):
        if abs(roots[u] - roots[v]) <= 1e-8 * (1.0 + abs(roots[u])):
            raise EigenvalueCollisionError(
                f"indices {u + 1} and {v + 1} converged to the same root {roots[u]}"
            )
    return Spectrum(config.alpha, config.beta, tuple(roots))


@lru_cache(maxsize=32)
def _asymptotes(alpha: int, beta: int, n: int) -> tuple[float, ...]:
    """Zero-potential eigenvalues lambda_1^0 < ... < lambda_n^0."""
    return tuple(asymptotic_eigenvalue(alpha, beta, i) for i in range(1, n + 1))


def delta_from_spectrum(spec: Spectrum, n_used: int, lam: complex) -> complex:
    """Truncated canonical product for the characteristic function.

    Delta(lam) ~ Delta_0(lam) * prod_{n<=N} (lambda_n - lam)/(lambda_n^0 - lam),
    which keeps every tail factor exactly 1 under lambda_n = lambda_n^0.
    When lam coincides with a retained lambda_n^0 the 0/0 pair is replaced
    by its limit -Delta_0'(lam), so evaluation exactly at zero-potential
    eigenvalues is well defined.

    The asymptotes are built once per (alpha, beta, N) and cached.  They
    increase strictly and |lam - lambda_n^0| grows with |Re lam - lambda_n^0|,
    so the one asymptote lam can coincide with is a neighbour of Re lam's
    bisection point (the lower index on a tie).  The factors are multiplied
    in index order with scalar complex arithmetic, skipping that one, so
    the result is bit-identical to a plain loop over n = 1..N.
    """
    if spec.count < n_used:
        raise ValueError(f"spectrum holds {spec.count} eigenvalues, need {n_used}")
    if n_used < 1:
        raise ValueError("n_used must be >= 1")
    a, b, evs = spec.alpha, spec.beta, spec.eigenvalues
    lam = complex(lam)
    lam0 = _asymptotes(a, b, n_used)
    hit = bisect_left(lam0, lam.real)
    if hit == n_used or (hit > 0 and abs(lam - lam0[hit - 1]) <= abs(lam - lam0[hit])):
        hit -= 1
    if abs(lam - lam0[hit]) <= 1e-9 * (1.0 + abs(lam0[hit])):
        val = -zero_potential_delta_dlam(a, b, lam) * (evs[hit] - lam)
    else:
        hit = n_used
        val = zero_potential_delta(a, b, lam)
    for ev, z in chain(zip(evs[:hit], lam0[:hit]), zip(evs[hit + 1 : n_used], lam0[hit + 1 :])):
        val *= (ev - lam) / (z - lam)
    return complex(val)


def extract_w(spec: Spectrum, modes: int, k: int, m: int) -> GridFunction:
    """Recover W on a (k, m) grid from the spectrum, Fourier mode by mode.

    Evaluating the product at the frequencies where the potential-free term
    of the W-representation vanishes isolates the Fourier coefficients:
      (0,0):  (pi m)^2 Delta((pi m)^2) = int W cos(pi m x) dx  (mean is 0)
      (1,1):  Delta((pi m)^2)          = int W cos(pi m x) dx
      mixed:  rho_m Delta(rho_m^2)     = int W sin(rho_m x) dx,
              rho_m = (m - 1/2) pi.
    W is synthesized in the basis {1, 2 cos(pi m x)} or {2 sin(rho_m x)};
    a spectrum of >= 4*modes eigenvalues is a good rule of thumb.
    """
    if modes < 1:
        raise ValueError("modes must be >= 1")
    need = modes + 1 if (spec.alpha, spec.beta) == (1, 1) else modes
    if spec.count < need:
        raise ValueError(f"need at least {need} eigenvalues for {modes} modes, have {spec.count}")
    if modes >= k * m:
        raise ValueError(f"modes={modes} would alias on a {k}x{m} grid")
    x = grid_midpoints(k, m)
    w = np.zeros(k * m, dtype=complex)
    a, b = spec.alpha, spec.beta
    if a == b:
        if a == 1:
            w += delta_from_spectrum(spec, spec.count, 0.0)  # mean of W
        for mm in range(1, modes + 1):
            lam = (math.pi * mm) ** 2
            coef = delta_from_spectrum(spec, spec.count, lam)
            if a == 0:
                coef *= lam
            w += 2.0 * coef * np.cos(math.pi * mm * x)
    else:
        for mm in range(1, modes + 1):
            rho = (mm - 0.5) * math.pi
            coef = rho * delta_from_spectrum(spec, spec.count, rho**2)
            w += 2.0 * coef * np.sin(rho * x)
    return GridFunction(k, m, w)
