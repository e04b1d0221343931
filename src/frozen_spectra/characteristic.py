"""Characteristic function of the boundary value problem, by three routes.

Route 1 (delta_direct) builds the 2x2 boundary determinant from the
fundamental solutions
    C(x) = cos rho(x-a) + int_a^x sin(rho(x-t))/rho q(t) dt,
    S(x) = sin(rho(x-a))/rho,          rho^2 = lambda,
by Filon's cell rule on the shared grid: q is taken as constant on each
cell of width h and e^{+-i rho s} is integrated exactly over the cell, so
every kernel sum is the midpoint sum times h sinc(rho h/2), and a
piecewise-constant q is integrated exactly.  The kernel sums
(_kernel_sums) split every length into a coarse and a fine part, over
blocks of about sqrt(n) of the n grid points, on a layout kept for the
last q or W only (_layout).
One boundary assembly (_boundary_det) builds only the two determinant
rows that (alpha, beta) select and returns Delta and dDelta/dlambda: of q
from its kernel sums, of the zero potential from zero sums at a = 0, at
one lambda or at a whole batch.  Route 2 (delta_from_w) adds an integral
of W to Delta_0 by the same rule, for every flag pair a kernel sum of
Route 1 with the whole grid as the head.  Route 3 (delta_from_spectrum)
evaluates the canonical infinite product over a truncated spectrum, each
retained factor paired with the matching zero-potential factor so the
tail is exactly 1 under lambda_n = lambda_n^0, for a whole batch of lambda
without a loop over lambda: one boundary assembly gives every starting
value, and fixed tiles of factors by lambdas are reduced pairwise.
extract_w reads W's cos or sin coefficients off that product at the
zero-potential eigenvalues and synthesizes W with one complex FFT.

All formulas are even in rho; one canonical branch of the square root
(_sqrt_lambda) keeps the rounding of delta_direct independent of it.
Newton in eigenvalues runs on the analytic dDelta/dlambda of the rule,
each step at most half the gap from lambda_n^0 to lambda_{n+1}^0 long.
One function (_trig_kernels) gives cos(rho s), sin(rho s)/rho and its
lambda-derivative at lengths s (at s = h/2, half the cell weight);
below |rho| = RHO_SERIES_THRESHOLD = 1.0, where the exp form of
dDelta/dlambda would lose digits to cancellation, it switches to a 12-term
Taylor series, on a lambda batch by a per-lambda mask.  One more place
tests the threshold: _kernel_sums, which below it builds the same blocked
sums by angle addition from _trig_kernels at the fine and coarse lengths
instead of from exps, and gives Route 2's (0,0) sum without the mean term
sum(W)/lambda, the entire continuation for zero-mean W.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core_params import ProblemConfig, allocate, is_int, load_json, require_flags, require_grid, require_keys
from .interval_ops import GridFunction, _allocate_grid, require_finite

RHO_SERIES_THRESHOLD = 1.0
_SERIES_TERMS = 12
# Taylor coefficients in t = (rho s)^2, highest power first, of sin(rho s)/(rho s) and of its t-derivative
_SERIES = tuple(
    ((-1) ** n / math.factorial(2 * n + 1), (-1) ** (n + 1) * (n + 1) / math.factorial(2 * n + 3))
    for n in range(_SERIES_TERMS - 1, -1, -1)
)
_NEWTON_MAX_STEPS = 60


class RootConvergenceError(RuntimeError):
    """Newton search failed for one eigenvalue index."""


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
        """Inverse of to_dict; ValueError unless require_keys and require_flags pass and each eigenvalue is finite."""
        require_keys(d, "spectrum", ("alpha", "beta", "eigenvalues"))
        alpha, beta = d["alpha"], d["beta"]
        require_flags(alpha, beta)
        try:
            pairs = [(re, im) for re, im in d["eigenvalues"]]
            if any(type(part) is bool for pair in pairs for part in pair):
                raise TypeError("true and false are not numbers")
            evs = tuple(complex(re, im) for re, im in pairs)
        except (TypeError, ValueError, OverflowError) as exc:
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
        """from_dict of a JSON file, read by load_json: a ValueError, malformed JSON included, names the file."""
        return load_json(path, Spectrum.from_dict)


def asymptotic_eigenvalue(alpha: int, beta: int, n):
    """Zero-potential eigenvalue (n - (alpha+beta)/2)^2 pi^2 of an index n >= 1, elementwise on an integer array."""
    require_flags(alpha, beta)
    if not (n.dtype.kind in "iu" if isinstance(n, np.ndarray) else is_int(n)) or np.any(n < 1):
        raise ValueError(f"eigenvalue index n must be >= 1, got {n}")
    return (n - (alpha + beta) / 2) ** 2 * math.pi**2


def _sqrt_lambda(lam):
    """sqrt(lambda) on one canonical branch: Re rho > 0, or Re rho = 0 and Im rho >= 0.

    Every formula is even in rho, but the exp kernel of delta_direct is not
    symmetric in rounding, so lambda = x + 0j and x - 0j must give one rho.
    lam is one complex, taken in cmath, or a 1-D array, taken in numpy.
    """
    if isinstance(lam, np.ndarray):
        rho = np.sqrt(lam)
        return np.where((rho.real == 0.0) & (rho.imag < 0.0), rho.conj(), rho)
    rho = cmath.sqrt(lam)
    if rho.real == 0.0 and rho.imag < 0.0:
        rho = complex(0.0, -rho.imag)
    return rho


def _trig_kernels(s, rho, lam):
    """cos(rho s), sin(rho s)/rho and d/dlambda of sin(rho s)/rho.

    s is a numpy array of lengths or one endpoint as a float, which keeps the
    arithmetic in cmath unless rho and lam are 1-D arrays of a lambda batch,
    with the threshold as a per-lambda mask.  All three are entire in rho^2.
    Above the threshold the last two come from cos and sin, with
        d/dlambda sin(rho s)/rho = (s cos(rho s) - sin(rho s)/rho)/(2 lambda),
    which cancels with an error of about eps/|lambda|, so the threshold sits
    at |rho| = 1; below it, from one Horner pass in t = (rho s)^2 over the
    _SERIES_TERMS = 12 terms of _SERIES, for lengths s <= 1.  Past double
    precision (|Im rho s| above about 710) numpy gives inf or nan and cmath's
    OverflowError becomes nan, so an overflowing Delta is non-finite on every
    route, never an exception.
    """
    x, series, trig = rho * s, abs(rho) < RHO_SERIES_THRESHOLD, np if isinstance(s, np.ndarray) else cmath
    if type(rho) is not complex:  # a lambda batch: every scalar caller passes one complex, the cheapest test
        if series.any() and not series.all():  # one call per side, into one (3, L) array
            kernels = np.empty((3, rho.size), dtype=complex)
            for side in (series, ~series):
                kernels[:, side] = _trig_kernels(s, rho[side], lam[side])
            return kernels
        trig, series = np, series.all()
    try:
        cs = trig.cos(x)
        if not series:
            ks = trig.sin(x) / rho
            return cs, ks, (s * cs - ks) / (2 * lam)
    except OverflowError:
        return (complex(math.nan, math.nan),) * 3
    t = x**2
    ks, dks = _SERIES[0]
    for c_ks, c_dks in _SERIES[1:]:
        ks, dks = ks * t + c_ks, dks * t + c_dks
    return cs, s * ks, s**3 * dks


@lru_cache(maxsize=1)
def _layout(f: GridFunction, jm: int):
    """f's head and reversed tail in blocks, with the offsets and weights of their lengths.

    The chop lengths are x_t = (t + 1/2)/n = coarse_B + fine_r, t = B*b + r.
    The head's lengths are x_0..x_{jm-1}; the tail's, read backwards, are
    x_0..x_{n-jm-1}, because 1 - x_i = x_{n-1-i}.  With b = isqrt(n) points per
    block and enough blocks for the longer of the two, returns b, the signed
    offsets [[fine, coarse], [-fine, -coarse]] whose exps give every factor
    e^{+-i rho x}, the weights (1, x) that spread each exp row over a value
    row and a slope row (and give the series branch its ones and lengths),
    and the head and reversed tail of f as (2, blocks, b) rows, zero-padded
    to whole blocks.  Newton passes one potential to every call, so the
    layout is built once per (f, jm); f's samples are read-only and f hashes
    by identity, so the one cached entry can never go stale.  It keeps the
    last q or W alive until a call of either route replaces it.
    """
    n = f.k * f.m
    b = math.isqrt(n)
    blocks = -(-max(jm, n - jm) // b)
    x = np.concatenate(((np.arange(b) + 0.5) / n, np.arange(blocks) * (b / n)))
    offsets, weights = np.stack((x, -x)), np.stack((np.ones_like(x), x))
    rows = np.zeros((2, blocks * b), dtype=complex)
    rows[0, :jm] = f.values[:jm]
    rows[1, : n - jm] = f.values[jm:][::-1]
    rows = rows.reshape(2, blocks, b)
    for table in (offsets, weights, rows):
        table.setflags(write=False)
    return b, offsets, weights, rows


def _kernel_sums(f: GridFunction, jm: int, rho: complex, lam: complex):
    """Sums of f sin(rho s)/rho and f cos(rho s) over head and tail, their lambda-derivatives, and the (0,0) sums.

    Returns ((sin_head, sin_tail), (cos_head, cos_tail)), the same two pairs
    differentiated in lambda, and the (0,0) pair: sum f cos(rho s)/lambda above
    the series threshold, below it the entire part sum f (cos(rho s) - 1)/lambda.
    f is q split at jm = j*m (Route 1) or W all head, jm = n (Route 2).  Both
    branches read f's rows from _layout, with s = coarse + fine: head and
    reversed tail, as rows of b samples, meet kernels of the fine lengths in
    one (rows x b) @ (b x columns) product, and kernels of the coarse lengths
    turn each side's row sums into its sums.  A call builds no n-length array
    and finishes in scalar arithmetic.  Above the threshold, 2(b + blocks),
    about 4 sqrt(n), complex exps give e^{+-i rho s} = E+-(coarse) F+-(fine)
    as the columns [F+, fine F+, F-, fine F-] and rows
    [E+, coarse E+, E-, coarse E-], and
        d/dlambda cos(rho s)       = -(s/2) sin(rho s)/rho,
        d/dlambda sin(rho s)/rho   = (s cos(rho s) - sin(rho s)/rho)/(2 lambda).
    Below it, one _trig_kernels call gives C = cos(rho t), S = sin(rho t)/rho
    and dS/dlambda at every fine and coarse length t, with dC = -(t/2) S and
    K = (cos(rho t) - 1)/lambda = -S^2/(1 + C), and angle addition
        S(c + r) = S_c C_r + C_c S_r,    C(c + r) = C_c C_r - lambda S_c S_r,
        K(c + r) = C_c K_r + K_c - S_c S_r,
    with the product rule for the slopes, gives every sum; none cancels.
    """
    b, offsets, weights, rows = _layout(f, jm)
    if abs(rho) < RHO_SERIES_THRESHOLD:
        ones, t = weights
        cs, ks, dks = _trig_kernels(t, rho, lam)
        # C, S, dC, dS, K and 1 at the fine, then the coarse lengths
        kernels = np.stack((cs, ks, -0.5 * t * ks, dks, -ks**2 / (1 + cs), ones))
        sides = (kernels[:5, b:] @ (rows @ kernels[:, :b].T)).tolist()  # [side][coarse C, S, dC, dS, K][fine]
        sums = [(s[0] + c[1], c[0] - lam * s[1], ds[0] + s[2] + dc[1] + c[3],
                 dc[0] + c[2] - s[1] - lam * (ds[1] + s[3]), c[4] + k[5] - s[1]) for c, s, dc, ds, k in sides]
        isin, icos, dsin, dcos, k00 = zip(*sums)
        return (isin, icos), (dsin, dcos), k00
    # rows e^{i rho x}, x e^{i rho x}, e^{-i rho x}, x e^{-i rho x}; columns the fine, then the coarse points
    factors = (np.exp((1j * rho) * offsets)[:, None] * weights).reshape(4, -1)
    head, tail = (factors[:, b:] @ (rows @ factors[:, :b].T)).tolist()
    two_i_rho = 2j * rho
    ph, mh, pt, mt = head[0][0], head[2][2], tail[0][0], tail[2][2]
    sin_h, sin_t = (ph - mh) / two_i_rho, (pt - mt) / two_i_rho
    cos_h, cos_t = (ph + mh) / 2, (pt + mt) / 2
    sph, smh = head[1][0] + head[0][1], head[3][2] + head[2][3]
    spt, smt = tail[1][0] + tail[0][1], tail[3][2] + tail[2][3]
    two_lam = 2 * lam
    dsin = ((sph + smh) / 2 - sin_h) / two_lam, ((spt + smt) / 2 - sin_t) / two_lam
    dcos = (smh - sph) / (2 * two_i_rho), (smt - spt) / (2 * two_i_rho)
    return ((sin_h, sin_t), (cos_h, cos_t)), (dsin, dcos), (cos_h / lam, cos_t / lam)


def _boundary_det(alpha: int, beta: int, a: float, h: float, rho: complex, lam: complex, sums, dsums):
    """The 2x2 boundary determinant, the one place its rows are chosen on (alpha, beta).

    The fundamental solutions C, S normalized at a enter through the
    trig kernels at the endpoints a and 1 - a and the kernel sums
    ((sin_head, sin_tail), (cos_head, cos_tail)) of _kernel_sums, weighted
    by the cell rule's h sinc(rho h/2) = 2 sin(rho h/2)/rho, the kernel
    sin(rho s)/rho at s = h/2 (its series branch included).  Only the two
    rows the flags select are built: (C, S) at 0 for alpha = 0 and
    (C', S') for alpha = 1, likewise at 1 for beta.  Returns (Delta,
    dDelta/dlambda), the slope from dsums, the sums differentiated in lambda,
    and the weight's own derivative.  Zero sums at a = 0 give Delta_0.
    """
    isin, icos = sums
    cs0, ks0, dks0 = _trig_kernels(a, rho, lam)
    cs1, ks1, dks1 = _trig_kernels(1 - a, rho, lam)
    _, ksh, dksh = _trig_kernels(h / 2, rho, lam)
    weight = 2 * ksh  # h sinc(rho h/2): each e^{+-i rho s} integrated exactly over its cell
    top = (cs0 + weight * isin[0], -ks0) if alpha == 0 else (lam * ks0 - weight * icos[0], cs0)
    bot = (cs1 + weight * isin[1], ks1) if beta == 0 else (-lam * ks1 + weight * icos[1], cs1)
    value = top[0] * bot[1] - top[1] * bot[0]
    dsin, dcos = dsums
    dweight = 2 * dksh
    dcs0, dcs1 = -0.5 * a * ks0, -0.5 * (1 - a) * ks1
    dtop = ((dcs0 + weight * dsin[0] + dweight * isin[0], -dks0) if alpha == 0
            else (ks0 + lam * dks0 - weight * dcos[0] - dweight * icos[0], dcs0))
    dbot = ((dcs1 + weight * dsin[1] + dweight * isin[1], dks1) if beta == 0
            else (-ks1 - lam * dks1 + weight * dcos[1] + dweight * icos[1], dcs1))
    dvalue = dtop[0] * bot[1] + top[0] * dbot[1] - dtop[1] * bot[0] - top[1] * dbot[0]
    return value, dvalue


def delta_direct(q: GridFunction, config: ProblemConfig, lam: complex, slope: bool = False):
    """Characteristic determinant evaluated straight from the potential.

    q is read as constant on each grid cell and every cell is integrated
    exactly (Filon's cell rule), so a piecewise-constant potential gives
    Delta up to rounding whatever rho h is.  With slope=True, returns
    (Delta, dDelta/dlambda) of the same rule, from the same kernel pass; the
    default returns Delta alone.  A Delta or slope past double precision is
    inf or nan, never an exception.
    """
    require_grid(q, config)
    lam = complex(lam)
    rho = _sqrt_lambda(lam)
    sums, dsums, _ = _kernel_sums(q, config.j * q.m, rho, lam)
    pair = _boundary_det(config.alpha, config.beta, config.j / config.k, q.h, rho, lam, sums, dsums)
    return pair if slope else pair[0]


def delta_from_w(w: GridFunction, alpha: int, beta: int, lam: complex) -> complex:
    """Characteristic determinant from W: Delta_0 plus an integral of W.

    alpha != beta:  (-1)^alpha cos rho + int W(x) sin(rho x)/rho dx
    (1,1):          rho sin rho + int W(x) cos(rho x) dx
    (0,0):          sin(rho)/rho + int W(x) cos(rho x)/rho^2 dx; below the
                    series threshold the mean term int W/lambda is dropped
                    and the kernel is (cos(rho x) - 1)/lambda, which is the
                    entire continuation valid for zero-mean W (every W in
                    the range of the forward map has zero mean).

    Every flag pair reads one of Route 1's kernel sums, with the whole grid
    as the head, weighted by the cell rule's h sinc(rho h/2), so W is read as
    constant on each cell exactly as delta_direct reads q, and the two routes
    are one discretisation.
    """
    require_flags(alpha, beta)
    rho = _sqrt_lambda(lam)
    (isin, icos), _, k00 = _kernel_sums(w, w.k * w.m, rho, lam)
    integral = isin[0] if alpha != beta else icos[0] if alpha else k00[0]
    weight = 2 * _trig_kernels(w.h / 2, rho, lam)[1]
    return complex(zero_potential_delta(alpha, beta, lam) + weight * integral)


_NO_SUMS = ((0.0, 0.0), (0.0, 0.0))


def zero_potential_delta(alpha: int, beta: int, lam: complex) -> complex:
    """Closed-form characteristic function of the zero potential: the boundary determinant at a = 0."""
    require_flags(alpha, beta)
    lam = complex(lam)
    return _boundary_det(alpha, beta, 0.0, 0.0, _sqrt_lambda(lam), lam, _NO_SUMS, _NO_SUMS)[0]


def _find_root(f, lam0: complex, cap: float, index: int) -> complex:
    """Newton on f(lam) = (value, slope), each step in Newton's direction and at most cap long.

    Each step costs one evaluation of f, and the accepted root is the last
    point evaluated.  A non-finite value or slope, a zero slope, or a
    residual or step too large for abs raises.
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
    try:
        for _ in range(_NEWTON_MAX_STEPS):
            if df == 0:
                raise RootConvergenceError(f"eigenvalue index {index}: zero slope at lambda={x} (residual {fx})")
            step = fx / df
            if abs(step) > cap:  # Newton's direction from unit factors, which stay finite when fx/df overflows
                step = cap * (fx / abs(fx)) * (abs(df) / df)
            x = x - step
            fx, df = evaluate(x)
            if abs(step) <= 1e-12 * (1.0 + abs(x)):
                return x
        raise RootConvergenceError(
            f"eigenvalue index {index}: no convergence after {_NEWTON_MAX_STEPS} iterations "
            f"(last residual {abs(fx):.3e} at lambda={x})"
        )
    except OverflowError:  # abs of a finite complex above about 1.8e308 raises instead of returning inf
        raise RootConvergenceError(f"eigenvalue index {index}: |residual {fx}| overflows at lambda={x}") from None


def eigenvalues(q: GridFunction, config: ProblemConfig, count: int) -> Spectrum:
    """First `count` eigenvalues, seeded from the zero-potential asymptotes.

    Roots are polished by Newton on delta_direct with its analytic slope
    (about three evaluations per root), each step at most half the gap
    lambda_{n+1}^0 - lambda_n^0 long, and returned in asymptotic order.  A
    count too large to allocate is a ValueError; non-convergence, a zero
    slope or an overflowing Delta (non-finite, never an exception) raises
    RootConvergenceError with the index without a warning, and two indices
    landing on one root raise EigenvalueCollisionError (densify the grid or
    perturb the potential in that case).
    """
    if not is_int(count) or count < 1:
        raise ValueError("count must be >= 1")
    lam0 = allocate(lambda: asymptotic_eigenvalue(config.alpha, config.beta, np.arange(1, count + 2)),
                    f"count={count} eigenvalues are too many to allocate")  # index count + 1 only bounds the last step
    seeds, caps = lam0[:-1].tolist(), (np.diff(lam0) / 2).tolist()
    f = lambda lam: delta_direct(q, config, lam, slope=True)
    with np.errstate(over="ignore", invalid="ignore"):  # _find_root refuses a non-finite Delta by index
        roots = [_find_root(f, seed, cap, n) for n, (seed, cap) in enumerate(zip(seeds, caps), start=1)]
    order = sorted(range(count), key=lambda i: (roots[i].real, roots[i].imag))
    for u, v in zip(order, order[1:]):
        if abs(roots[u] - roots[v]) <= 1e-8 * (1.0 + abs(roots[u])):
            raise EigenvalueCollisionError(
                f"indices {u + 1} and {v + 1} converged to the same root {roots[u]}"
            )
    return Spectrum(config.alpha, config.beta, tuple(roots))


_FACTOR_CHUNK, _LAMBDA_TILE = 64, 128  # factor indices by lambdas per table in delta_from_spectrum


def delta_from_spectrum(spec: Spectrum, n_used: int, lams) -> list[complex]:
    """Truncated canonical product for the characteristic function at a 1-D sequence of lambda.

    Delta(lam) ~ Delta_0(lam) * prod_{n<=N} (lambda_n - lam)/(lambda_n^0 - lam),
    which keeps every tail factor exactly 1 under lambda_n = lambda_n^0.
    When lam coincides with a retained lambda_n^0 the 0/0 pair is replaced
    by its limit -Delta_0'(lam), so evaluation exactly at zero-potential
    eigenvalues is well defined.

    lams is a 1-D sequence (any other shape is a ValueError), so one lambda
    is the batch [lam]; returns a list of complex in its order.  The
    asymptotes come from asymptotic_eigenvalue on the index array.  They
    increase strictly and |lam - lambda_n^0| grows with |Re lam - lambda_n^0|,
    so the one asymptote lam can coincide with is a neighbour of Re lam's
    bisection point (the lower index on a tie), found for the whole batch by
    one searchsorted.  One _boundary_det call gives every Delta_0 and Delta_0'
    of the batch.  The factors are complex tables of _FACTOR_CHUNK indices by
    _LAMBDA_TILE lambdas, each lambda's coincident factor set to 1, whose rows
    are multiplied pairwise by halves, an odd last row into the running
    product, until none is left.  Both sizes are fixed, so a lambda gets the
    same bits alone as in any batch; an overflow gives inf or nan without a
    warning, and extract_w refuses it.
    """
    if not is_int(n_used) or n_used < 1:
        raise ValueError("n_used must be >= 1")
    if spec.count < n_used:
        raise ValueError(f"spectrum holds {spec.count} eigenvalues, need {n_used}")
    lams = np.array(lams, dtype=complex)
    if lams.ndim != 1:
        raise ValueError(f"lams must be a 1-D sequence, got shape {lams.shape}")
    a, b, evs = spec.alpha, spec.beta, np.array(spec.eigenvalues[:n_used])
    index = np.arange(n_used)
    lam0 = asymptotic_eigenvalue(a, b, index + 1)
    with np.errstate(all="ignore"):  # an exact hit divides by 0 until its factor is set; overflow gives inf or nan
        above = np.searchsorted(lam0, lams.real)
        below, above = np.maximum(above - 1, 0), np.minimum(above, n_used - 1)
        hits = np.where(np.abs(lams - lam0[below]) <= np.abs(lams - lam0[above]), below, above)
        coincide = np.abs(lams - lam0[hits]) <= 1e-9 * (1.0 + lam0[hits])
        d0, d0_slope = _boundary_det(a, b, 0.0, 0.0, _sqrt_lambda(lams), lams, _NO_SUMS, _NO_SUMS)
        vals, hits = np.where(coincide, -d0_slope * (evs[hits] - lams), d0), np.where(coincide, hits, n_used)
        for tile in (slice(lo, lo + _LAMBDA_TILE) for lo in range(0, lams.size, _LAMBDA_TILE)):
            val = vals[tile]
            for n in (slice(n0, n0 + _FACTOR_CHUNK) for n0 in range(0, n_used, _FACTOR_CHUNK)):
                table = (evs[n, None] - lams[tile]) / (lam0[n, None] - lams[tile])
                table[index[n, None] == hits[tile]] = 1.0  # the coincident factor is in the start
                while len(table):  # out of place: numpy rounds an in-place product of one element differently
                    if len(table) % 2:
                        val, table = val * table[-1], table[:-1]
                    table = table[: len(table) // 2] * table[len(table) // 2 :]  # halves: one loop, not one per row
            vals[tile] = val
    return vals.tolist()


def extract_w(spec: Spectrum, modes: int, k: int, m: int) -> GridFunction:
    """Recover W on a (k, m) grid from the spectrum: Fourier coefficients, then one FFT.

    One rule serves every (alpha, beta): mode m sits on the zero-potential
    eigenvalue lambda_n^0, n = m + (alpha+beta)//2, where the potential-free
    term of the W-representation vanishes, so with rho_m = sqrt(lambda_n^0)
      c_m = rho_m^(2-alpha-beta) Delta(rho_m^2) = int W b(rho_m x) dx,
    b = cos and rho_m = m pi when alpha = beta, b = sin and
    rho_m = (m - 1/2) pi otherwise.  W is synthesized in the basis
    {2 b(rho_m x)}, plus the mean Delta(0) for (1,1) (the (0,0) mean is 0);
    a spectrum of >= 4*modes eigenvalues is a good rule of thumb.  Every
    Delta comes from one batched delta_from_spectrum call over the whole
    spectrum.  A Delta or W that overflows raises ArithmeticError naming its
    mode (0 for the mean) or grid point, a Delta before any arithmetic on it.

    On the n = k*m midpoints x_i = (2i + 1)/(2n), rho_m x_i = pi p (2i + 1)/(4n)
    with p = 2 rho_m/pi = 2(m - shift), and 2 b(t) = u e^{it} + conj(u) e^{-it},
    u = 1 for cos and -i for sin.  So the whole sum is the unscaled length-4n
    inverse DFT of Z[p] = u c_m e^{i pi p/4n}, Z[4n - p] = conj(u) c_m e^{-i pi p/4n},
    read at its first n samples: one complex FFT, O(n log n) rather than
    O(modes n).  p <= 2 modes < 2n by the alias check, so the two halves of Z
    never meet.  The mean is added on the grid.
    """
    if not is_int(modes) or modes < 1:
        raise ValueError("modes must be >= 1")
    a, b = spec.alpha, spec.beta
    need = modes + (a + b) // 2
    if spec.count < need:
        raise ValueError(f"need at least {need} eigenvalues for {modes} modes, have {spec.count}")
    z = _allocate_grid(k, m, lambda n: np.zeros(4 * n, dtype=complex))  # rejects k or m < 1 first
    n = k * m
    if modes >= n:
        raise ValueError(f"modes={modes} would alias on a {k}x{m} grid")
    shift, u = (0.0, 1.0) if a == b else (0.5, -1j)
    rhos = [(mm - shift) * math.pi for mm in range(1, modes + 1)]
    mean = (a, b) == (1, 1)
    deltas = delta_from_spectrum(spec, spec.count, [0.0] * mean + [rho**2 for rho in rhos])
    if not all(map(cmath.isfinite, deltas)):
        i = next(i for i, d in enumerate(deltas) if not cmath.isfinite(d))
        raise ArithmeticError(f"the product over the spectrum overflows double precision at mode {i + 1 - mean}")
    w_mean = deltas.pop(0) if mean else 0.0
    p = np.arange(2, 2 * modes + 1, 2) - (a != b)
    phase = np.exp((1j * math.pi / (4 * n)) * p)
    with np.errstate(over="ignore", invalid="ignore"):  # a W beyond double precision is refused below
        coef = np.array(rhos) ** (2 - a - b) * np.array(deltas)
        z[p] = u * coef * phase
        z[4 * n - p] = u.conjugate() * coef * phase.conj()
        w = np.fft.ifft(z, norm="forward")[:n] + w_mean
    require_finite(w, "the synthesis of W")
    return GridFunction(k, m, w)
