"""End-to-end flows: iso-spectral potentials and spectrum-to-potential recovery.

In the degenerate cases the solution set of the inverse problem is the
affine family q0 + R^{-1}(X f) where X is the +-1 kernel vector of the
frozen matrix and f ranges over functions on (0, b); the supplement
R^{-1}(X f) is main_equation.null_direction.  This module adds it to a
base potential, renders the catalog of worked reference cases (symbolic
sign/argument tables plus the supplement of the model profile), and
chains product -> W -> linear solve for the full reconstruction from a
spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .characteristic import Spectrum, asymptotic_eigenvalue, extract_w
from .core_params import ProblemConfig, is_int, make_config, require_grid
from .frozen_matrix import kernel
from .interval_ops import GridFunction, require_finite, subinterval_midpoints
from .main_equation import MainEqSolution, null_direction, solve_inverse


class SpectrumMismatchError(ValueError):
    """Input spectrum does not follow the (alpha, beta) asymptotics."""


def _profile_samples(f, k: int, m: int) -> np.ndarray:
    """Accept a callable on (0, b) or a length-m sample array."""
    if callable(f):
        return np.asarray(f(subinterval_midpoints(k, m)), dtype=complex) * np.ones(m)
    samples = np.asarray(f, dtype=complex)
    if samples.shape != (m,):
        raise ValueError(f"profile must have {m} samples on (0, 1/{k}), got shape {samples.shape}")
    return samples


def build_isospectral_potential(q0: GridFunction, config: ProblemConfig, f) -> GridFunction:
    """A potential sharing the whole spectrum with q0.

    Steps: take the kernel sign vector X of the frozen matrix, lift a
    nonzero profile f on (0, b) to F = X f, and add R^{-1}F to q0.  f is a
    callable on (0, b) or its m samples; config must be degenerate.  A sum
    beyond double precision raises ArithmeticError naming its grid point.
    """
    require_grid(q0, config)
    supplement = null_direction(config, _profile_samples(f, config.k, q0.m))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below, by grid point
        q = q0 + supplement
    require_finite(q.values, "the iso-spectral potential")
    return q


def quadratic_profile(k: int) -> Callable[[np.ndarray], np.ndarray]:
    """The model profile f(t) = 10t/(3b) - 25t^2/(9b^2), b = 1/k.

    Rises from 0 to 1 at t = 3b/5 and falls back to 5/9 at t = b.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    b = 1.0 / k
    return lambda t: 10.0 * t / (3.0 * b) - 25.0 * t**2 / (9.0 * b**2)


EXAMPLE_CASES = {
    "I7": (0, 0, 3, 7),
    "I8": (0, 0, 3, 8),
    "II": (0, 1, 2, 7),
    "III": (1, 0, 3, 7),
    "IV": (1, 1, 3, 8),
}


@dataclass(frozen=True)
class ExampleReport:
    config: ProblemConfig
    rows: tuple[str, ...]  # symbolic table, one row per subinterval of (0,1)

    @property
    def table(self) -> str:
        return "\n".join(self.rows)

    def supplement(self, m: int) -> GridFunction:
        """The supplement R^{-1}(X f) of the model profile f, m samples per subinterval."""
        k = self.config.k
        return null_direction(self.config, _profile_samples(quadratic_profile(k), k, m))


def _piecewise_rows(x: Sequence[int], j: int, k: int) -> tuple[str, ...]:
    """Render R^{-1}(X f) symbolically, one row per interval, increasing x.

    On ((k-nu)b, (k-nu+1)b) the value is x_nu f(x - (k-nu)b) when j+nu is
    even and x_nu f((k-nu+1)b - x) when odd.
    """
    rows = []
    for nu in range(k, 0, -1):
        lo = Fraction(k - nu, k)
        hi = Fraction(k - nu + 1, k)
        if (j + nu) % 2 == 0:
            arg = "x" if lo == 0 else f"x-{lo}"
        else:
            arg = f"{hi}-x"
        sign = "-" if x[nu - 1] < 0 else ""
        rows.append(f"{sign}f({arg}) on ({lo},{hi})")
    return tuple(rows)


def reference_example(case_id: str) -> ExampleReport:
    """One of the five catalogued degenerate cases, rendered symbolically."""
    if case_id not in EXAMPLE_CASES:
        raise ValueError(f"unknown example id {case_id!r}; choose from {sorted(EXAMPLE_CASES)}")
    alpha, beta, j, k = EXAMPLE_CASES[case_id]
    config = make_config(alpha, beta, j, k)
    return ExampleReport(config, _piecewise_rows(kernel(config).generator, j, k))


def _check_asymptotics(spec: Spectrum, n_used: int) -> None:
    """Reject spectra whose residuals kappa_n diverge linearly in n."""
    tail = np.arange(max(1, n_used - 9), n_used + 1)
    kappa = np.array(spec.eigenvalues[tail[0] - 1 : n_used]) - asymptotic_eigenvalue(spec.alpha, spec.beta, tail)
    if np.median(np.abs(kappa) / tail) > math.pi**2 / 4:
        raise SpectrumMismatchError(
            "spectrum residuals grow linearly with the index; the (alpha, beta) "
            "flags do not match the input spectrum's asymptotics"
        )


def invert_from_spectrum(
    spec: Spectrum,
    config: ProblemConfig,
    m: int,
    n_used: int,
    modes: int,
    residual_rtol: float = 1e-6,
) -> MainEqSolution:
    """Full reconstruction: spectrum -> product -> W -> potential (family).

    n_used controls the product truncation, modes the Fourier synthesis of
    W (n_used >= 4*modes is a good rule of thumb).  In the degenerate cases
    the returned solution carries the kernel generator and residual_rtol
    bounds the attainability check of the extracted W.
    """
    if (spec.alpha, spec.beta) != (config.alpha, config.beta):
        raise ValueError("spectrum flags differ from the config flags")
    if not is_int(n_used) or n_used < 1:
        raise ValueError(f"n_used must be >= 1, got {n_used}")
    if spec.count < n_used:
        raise ValueError(f"spectrum holds {spec.count} eigenvalues, need {n_used}")
    _check_asymptotics(spec, n_used)
    truncated = Spectrum(spec.alpha, spec.beta, spec.eigenvalues[:n_used])
    w = extract_w(truncated, modes, config.k, m)
    return solve_inverse(w, config, residual_rtol=residual_rtol)
