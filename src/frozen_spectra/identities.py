"""The paper's exact identities as sweeps of named checks.

Each generator yields one (label, ok) pair per check.  A failed check's
label names the identity and the case, so it reads as a report line; a
passed check yields ("", True) and formats nothing.  The
`verify` command and the acceptance gate run the same sweeps, with the same
ranges and tolerances: exact equality for the integer identities, 1e-9 for
the closed-form spectra, 1e-14 * max(1, |W|) for the forward-map oracle.

Within one sweeps() run only the forward-map oracle builds a matrix
(forward_w_matrix).  The Theorem 2 sweep runs the fold rule and the
Chebyshev step of frozen_matrix on int64 arrays that stack every
(k, alpha, beta) block, and exact_record reads each config's (det, rank,
kernel) off one orbit pass per k for the Corollary 1/3 and Lemma 3
sweeps, which require it; the record is dropped when the run ends.  The
float j = 1 checks run once per k over the three closed-form flag pairs:
Corollary 2 on one eigvals call (numeric_spectra_j1) and Lemma 2 on one
recurrence pass whose residual test gives each eigenvalue its pass or
fail (eigvecs_j1).  The stacked rows live only while theorem2 is called,
and sweeps() calls it before it builds the record, so a kmax too large to
stack fails before anything is built or printed.  What persists between
runs does so by design: the stored Chebyshev runs (chebyshev._cheb_run)
and j = 1 char-poly runs (frozen_matrix._char_poly_run), each grown to
the highest degree asked for.
"""

from __future__ import annotations

import math

import numpy as np

from .core_params import Kind, ProblemConfig, classify, coprime_configs, make_config
from .frozen_matrix import (
    _FLAG_PAIRS,
    char_poly_j1,
    det_closed_form,
    eigvecs_j1,
    kernel_closed_form,
    numeric_spectra_j1,
    orbits_of,
    reductions_match,
    spectrum_closed_form,
    theorem1_poly,
)
from .interval_ops import GridFunction
from .main_equation import forward_w_direct, forward_w_matrix

_CLOSED_FORM_FLAGS = ((0, 0), (1, 0), (1, 1))  # (0, 1) has no trigonometric spectrum
_EIGVEC_KMAX = 16  # float checks on the j = 1 eigenvectors stop here
_SPECTRUM_KMAX = 20  # Corollary 2 stops here, not for accuracy: perfbench's verify checker counts min(kmax, 20) k values
_PASS = ("", True)  # a passed check: its label is never read, so none is built


def match_multisets(a, b) -> float:
    """Worst distance of a greedy nearest matching, the first nearest on a tie; inf on unequal sizes, nan on a NaN."""
    if len(a) != len(b):
        return math.inf
    b = [complex(z) for z in b]
    worst = 0.0
    for z in a:
        z = complex(z)
        dist = [abs(z - w) for w in b]
        i = dist.index(min(dist))
        del b[i]
        worst = max(worst, dist[i]) if dist[i] == dist[i] else math.nan  # max keeps a NaN worst, never takes one
    return worst


def theorem1(kmax: int):
    """Theorem 1: the recurrence char poly equals the Chebyshev closed form."""
    for alpha, beta in _FLAG_PAIRS:
        for k in range(2, kmax + 1):
            ok = char_poly_j1(k, alpha, beta).coeffs == theorem1_poly(k, alpha, beta).coeffs
            yield _PASS if ok else (f"theorem1 k={k} ({alpha},{beta})", False)


def theorem2(kmax: int):
    """Theorem 2: the Chebyshev reduction to j = 1 equals the direct matrix.

    reductions_match runs the reduction on every (k, alpha, beta) at once,
    one step per j, and compares it with the fold rule.  It runs at the
    call, so a kmax too large to stack raises here; the checks it returns
    are yielded by k, flags and j.
    """
    match = reductions_match(kmax).tolist()
    return (
        _PASS if match[k][f][j] else (f"theorem2 {ProblemConfig(*_FLAG_PAIRS[f], j, k)}", False)
        for k in range(2, kmax + 1)
        for f in range(4)
        for j in range(1, k // 2 + 1)
        if math.gcd(j, k) == 1
    )


def exact_record(kmax: int, kmax_t1: int) -> dict[ProblemConfig, tuple[int, int, tuple[int, ...]]]:
    """(det, rank, kernel) of every coprime config with k <= kmax and every j = 1 config with k <= kmax_t1.

    orbits_of reads the orbits of each k's configs in one pass, flags and
    then j; the rank is k less one where the orbit is singular, and the
    kernel its null vector, () if regular.
    """
    record = {}
    for k in range(2, max(kmax, kmax_t1) + 1):
        js = [j for j in range(1, k // 2 + 1) if math.gcd(j, k) == 1] if k <= kmax else [1]
        configs = [ProblemConfig(alpha, beta, j, k) for alpha, beta in _FLAG_PAIRS for j in js]
        o = orbits_of(k, js)
        for cfg, det, singular, x in zip(configs, o.det.tolist(), o.singular.tolist(), o.null_vectors.tolist()):
            record[cfg] = det, k - singular, tuple(x) if singular else ()
    return record


def corollaries_1_3(kmax_t1: int, kmax: int, record: dict):
    """Corollary 1 (closed-form j = 1 determinants) and Corollary 3 (det = 0 iff degenerate), on exact_record's dets."""
    for k in range(2, kmax_t1 + 1):
        for alpha, beta in _FLAG_PAIRS:
            det = record[make_config(alpha, beta, 1, k)][0]
            yield _PASS if det == det_closed_form(k, alpha, beta) else (f"corollary1 k={k} ({alpha},{beta})", False)
    for cfg in coprime_configs(kmax):
        deg = classify(cfg).kind is Kind.DEGENERATE
        yield _PASS if (record[cfg][0] == 0) == deg else (f"corollary3 {cfg}", False)


def lemmas_2_3(kmax: int, record: dict):
    """Lemma 3 (exact_record's kernel is kernel_closed_form, rank k - dim) and Lemma 2 (the j = 1 eigenvectors)."""
    for cfg in coprime_configs(kmax):
        _, r, x = record[cfg]
        ok = x == kernel_closed_form(cfg) and r == cfg.k - bool(x)
        yield _PASS if ok else (f"lemma3 {cfg}", False)
    for k in range(2, min(kmax, _EIGVEC_KMAX) + 1):
        spectra = [spectrum_closed_form(k, alpha, beta) for alpha, beta in _CLOSED_FORM_FLAGS]
        ok = eigvecs_j1(np.array(spectra), k, _CLOSED_FORM_FLAGS)[1].tolist()
        for (alpha, beta), spectrum, passed in zip(_CLOSED_FORM_FLAGS, spectra, ok):
            for z0, p in zip(spectrum, passed):
                yield _PASS if p else (f"lemma2 k={k} ({alpha},{beta}) z0={z0}", False)


def corollary2(kmax: int):
    """Corollary 2: the j = 1 eigenvalues match the trigonometric spectra; 0 is no (0,1) root.

    numeric_spectra_j1 gives the spectra of the three closed-form flag
    pairs of each k in one eigvals call.
    """
    ks = range(2, min(kmax, _SPECTRUM_KMAX) + 1)
    for k in ks:
        spectra = numeric_spectra_j1(k, _CLOSED_FORM_FLAGS).tolist()
        for (alpha, beta), spectrum in zip(_CLOSED_FORM_FLAGS, spectra):
            worst = match_multisets(spectrum, spectrum_closed_form(k, alpha, beta))
            yield _PASS if worst < 1e-9 else (f"corollary2 k={k} ({alpha},{beta}) dist={worst:.2e}", False)
    for k in ks:
        ok = abs(char_poly_j1(k, 0, 1).coeffs[0]) >= 1
        yield _PASS if ok else (f"corollary2 (0,1) k={k} zero in spectrum", False)


def forward_oracle(kmax: int):
    """The direct forward map equals Q^{-1} A R q on seeded random potentials, m = 16."""
    rng = np.random.default_rng(20240815)
    for cfg in coprime_configs(kmax):
        q = GridFunction(cfg.k, 16, rng.normal(size=16 * cfg.k) + 1j * rng.normal(size=16 * cfg.k))
        w1 = forward_w_direct(q, cfg)
        w2 = forward_w_matrix(q, cfg)
        err = np.abs(w1.values - w2.values).max()
        yield _PASS if err <= 1e-14 * max(1.0, np.abs(w1.values).max()) else (f"forward oracle {cfg}", False)


def sweeps(kmax: int, kmax_t1: int, kmax_fwd: int):
    """The `verify` blocks in print order, as (name, sweep) pairs.

    theorem2 is called first, so a kmax too large to stack raises before
    the record is built; exact_record then builds the (det, rank, kernel)
    record of this run, which the determinant and kernel sweeps read.
    """
    reduction = theorem2(kmax)
    record = exact_record(kmax, kmax_t1)
    return [
        ("theorem-1 polynomial identity", theorem1(kmax_t1)),
        ("theorem-2 matrix reduction", reduction),
        ("corollary-1/3 determinants", corollaries_1_3(kmax_t1, kmax, record)),
        ("lemma-2/3 kernels, ranks, eigenvectors", lemmas_2_3(kmax, record)),
        ("corollary-2 closed-form spectra", corollary2(kmax)),
        ("forward-map oracle", forward_oracle(kmax_fwd)),
    ]
