"""The paper's exact identities as sweeps of named checks.

Each generator yields one (label, ok) pair per check; a label names the
identity and the case, so a failed check reads as a report line.  The
`verify` command and the acceptance gate run the same sweeps, with the same
ranges and tolerances: exact equality for the integer identities, 1e-9 for
the closed-form spectra, 1e-14 * max(1, |W|) for the forward-map oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .core_params import Kind, ProblemConfig, classify, coprime_configs, make_config
from .frozen_matrix import (
    build_matrix,
    char_polys_j1,
    det_closed_form,
    det_exact,
    eigvec_j1,
    kernel,
    numeric_spectrum_j1,
    rank,
    reductions_j1,
    spectrum_closed_form,
    theorem1_poly,
)
from .interval_ops import GridFunction
from .main_equation import forward_w_direct, forward_w_matrix

_FLAGS = ((0, 0), (0, 1), (1, 0), (1, 1))
_CLOSED_FORM_FLAGS = ((0, 0), (1, 0), (1, 1))  # (0, 1) has no trigonometric spectrum
_EIGVEC_KMAX = 16  # float checks on the j = 1 eigenvectors stop here
_SPECTRUM_KMAX = 20  # and on the numeric j = 1 spectra here


def match_multisets(a, b) -> float:
    """Worst distance of a greedy nearest matching; inf when the sizes differ."""
    if len(a) != len(b):
        return math.inf
    b = [complex(z) for z in b]
    worst = 0.0
    for z in a:
        z = complex(z)
        i = min(range(len(b)), key=lambda t: abs(z - b[t]))
        worst = max(worst, abs(z - b.pop(i)))
    return worst


def theorem1(kmax: int):
    """Theorem 1: the recurrence char poly equals the Chebyshev closed form; one run per (alpha, beta)."""
    for alpha, beta in _FLAGS:
        for k, p in zip(range(2, kmax + 1), char_polys_j1(alpha, beta)):
            yield f"theorem1 k={k} ({alpha},{beta})", p.coeffs == theorem1_poly(k, alpha, beta).coeffs


def theorem2(kmax: int):
    """Theorem 2: the Chebyshev reduction to j = 1 equals the direct matrix.

    One recurrence run per (k, alpha, beta) serves every coprime j.
    """
    for k in range(2, kmax + 1):
        for alpha, beta in _FLAGS:
            for j, rows in reductions_j1(alpha, beta, k):
                if math.gcd(j, k) == 1:
                    cfg = ProblemConfig(alpha, beta, j, k)
                    yield f"theorem2 {cfg}", rows == build_matrix(cfg).rows


def corollaries_1_3(kmax_t1: int, kmax: int):
    """Corollary 1 (closed-form j = 1 determinants) and Corollary 3 (det = 0 iff degenerate)."""
    for k in range(2, kmax_t1 + 1):
        for alpha, beta in _FLAGS:
            det = det_exact(build_matrix(make_config(alpha, beta, 1, k)))
            yield f"corollary1 k={k} ({alpha},{beta})", det_closed_form(k, alpha, beta) == det
    for cfg in coprime_configs(kmax):
        deg = classify(cfg).kind is Kind.DEGENERATE
        yield f"corollary3 {cfg}", (det_exact(build_matrix(cfg)) == 0) == deg


def lemmas_2_3(kmax: int):
    """Lemma 3 (kernel dimension and rank) and Lemma 2 (the explicit j = 1 eigenvectors)."""
    for cfg in coprime_configs(kmax):
        r = rank(build_matrix(cfg))
        ker = kernel(cfg)
        if classify(cfg).kind is Kind.DEGENERATE:
            ok = ker.dimension == 1 and r == cfg.k - 1
        else:
            ok = ker.dimension == 0 and ker.generator == () and r == cfg.k
        yield f"lemma3 {cfg}", ok
    for k in range(2, min(kmax, _EIGVEC_KMAX) + 1):
        for alpha, beta in _CLOSED_FORM_FLAGS:
            for z0 in spectrum_closed_form(k, alpha, beta):
                try:
                    eigvec_j1(z0, k, alpha, beta)  # residual-checked inside
                except ValueError:
                    ok = False
                else:
                    ok = True
                yield f"lemma2 k={k} ({alpha},{beta}) z0={z0}", ok


def corollary2(kmax: int):
    """Corollary 2: numeric j = 1 roots match the trigonometric spectra; 0 is no (0,1) root."""
    ks = range(2, min(kmax, _SPECTRUM_KMAX) + 1)
    for k in ks:
        for alpha, beta in _CLOSED_FORM_FLAGS:
            worst = match_multisets(
                numeric_spectrum_j1(k, alpha, beta), spectrum_closed_form(k, alpha, beta)
            )
            yield f"corollary2 k={k} ({alpha},{beta}) dist={worst:.2e}", worst < 1e-9
    for k, p in zip(ks, char_polys_j1(0, 1)):
        yield f"corollary2 (0,1) k={k} zero in spectrum", abs(p.coeffs[0]) >= 1


def forward_oracle(kmax: int):
    """The direct forward map equals Q^{-1} A R q on seeded random potentials, m = 16."""
    rng = np.random.default_rng(20240815)
    for cfg in coprime_configs(kmax):
        q = GridFunction(cfg.k, 16, rng.normal(size=16 * cfg.k) + 1j * rng.normal(size=16 * cfg.k))
        w1 = forward_w_direct(q, cfg)
        w2 = forward_w_matrix(q, cfg)
        err = np.abs(w1.values - w2.values).max()
        yield f"forward oracle {cfg}", err <= 1e-14 * max(1.0, np.abs(w1.values).max())


def sweeps(kmax: int, kmax_t1: int, kmax_fwd: int):
    """The `verify` blocks in print order, as (name, sweep) pairs."""
    return [
        ("theorem-1 polynomial identity", theorem1(kmax_t1)),
        ("theorem-2 matrix reduction", theorem2(kmax)),
        ("corollary-1/3 determinants", corollaries_1_3(kmax_t1, kmax)),
        ("lemma-2/3 kernels, ranks, eigenvectors", lemmas_2_3(kmax)),
        ("corollary-2 closed-form spectra", corollary2(kmax)),
        ("forward-map oracle", forward_oracle(kmax_fwd)),
    ]
