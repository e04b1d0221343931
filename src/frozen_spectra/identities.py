"""The paper's exact identities as blocks of named checks.

Each block is one Block(name, ok, label): ok holds a bool per check, in
the block's order, and label(i) names check i, the identity and the case,
so it reads as a report line.  label is called only where ok[i] is False,
and a label's source, such as the coprime_configs list, is built once per
block and only if a check of it fails; a passed check formats nothing.  The
`verify` command and the acceptance gate run the same blocks, with the same
ranges and tolerances: exact equality for the integer identities, 1e-9 for
the closed-form spectra, 1e-14 * max(1, |W|) for the forward-map oracle.

Within one sweeps() run only the forward-map oracle builds matrices:
the matrix core of main_equation scatters one (4, k, k) stack per
(j, k), the four flag pairs of the config side by side, and the direct
core reads the same batch.  The Theorem 2 sweep runs the fold rule and
the Chebyshev step of frozen_matrix on int64 arrays that stack every
(k, alpha, beta) block.  orbit_checks reads one orbit pass per band of
consecutive k, each orbit padded by fixed points to the band's largest
k, and keeps only the booleans of the checks that read it: Corollary 1
(the j = 1 dets against det_closed_form), Corollary 3 (det = 0 against
the parity rule, core_params.degenerate) and Lemma 3 (the null vector
against the sign rule, kernel_signs), each a flat array in its sweep's
order.  The three closed-form spectra of each k are built once per run
and read by both float j = 1 checks: Lemma 2 as one recurrence pass over
the spectra of every k side by side, whose residual test gives each
eigenvalue its pass or fail (eigvecs_j1), and Corollary 2 as one eigvals
call per k (numeric_spectra_j1) and one batched greedy match
(greedy_matches).  sweeps() computes every block before verify prints
one.  It holds no size guard: the sweeps cost about K^3, and `verify`
bounds its three ranges by one count before they run (cli.MAX_RANGE).
What persists between runs does so by design: the stored Chebyshev
runs (chebyshev._cheb_run) and j = 1 char-poly runs
(frozen_matrix._char_poly_run), each grown to the highest degree asked
for.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Callable, NamedTuple

import numpy as np

from .core_params import ProblemConfig, coprime_configs, degenerate
from .frozen_matrix import (
    _FLAG_PAIRS,
    _FLAGS,
    char_poly_j1,
    det_closed_form,
    eigvecs_j1,
    kernel_signs,
    numeric_spectra_j1,
    orbits_of,
    reductions_match,
    spectrum_closed_form,
    theorem1_poly,
)
from .main_equation import _direct_rows, _matrix_rows

_CLOSED_FORM_FLAGS = ((0, 0), (1, 0), (1, 1))  # (0, 1) has no trigonometric spectrum
_EIGVEC_KMAX = 16  # float checks on the j = 1 eigenvectors stop here
_SPECTRUM_KMAX = 20  # Corollary 2 stops here, not for accuracy: perfbench's verify checker counts min(kmax, 20) k values
_BAND_ENTRIES = 2**13  # padded orbit entries per orbits_of pass; 2^14 lifts a sweeps run's traced peak past 1 MB


def greedy_matches(a, b) -> np.ndarray:
    """Per pair (a[n], b[n]) of multisets, the worst distance of a greedy nearest matching, the first nearest on a tie.

    The multisets are padded to one size and their distances |a_p - b_q|
    (np.hypot of the parts, the bits of Python's abs of a complex) taken
    in one (N, n, n) array.  One pass over the positions p then gives each
    a_p, of every pair at once, the b_q that Python's min and index pick
    among the unused ones: the first nearest of those not NaN, or the
    first unused one if its distance is NaN or none is below inf.  The
    worst is inf for unequal sizes and NaN if any matched distance is.
    """
    sizes = np.array([len(x) for x in a])
    n = max(sizes.max(initial=0), max((len(y) for y in b), default=0))
    za, zb = np.zeros((2, len(sizes), n), complex)
    for x, y, ra, rb in zip(a, b, za, zb):
        ra[: len(x)], rb[: len(y)] = x, y
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN distance, as in Python, silently
        diff = za[:, :, None] - zb[:, None, :]
    dist = np.hypot(diff.real, diff.imag)
    nan = np.isnan(dist)
    free = np.where(nan, np.inf, dist)
    rows = np.arange(len(sizes))
    used = np.arange(n) >= sizes[:, None]  # a padded column is never free
    nearest = np.zeros((len(sizes), n))
    for p in range(n):
        masked = np.where(used, np.inf, free[:, p])
        q = np.argmin(masked, axis=1)
        first = np.argmin(used, axis=1)
        q = np.where(nan[rows, p, first] | (masked[rows, q] == np.inf), first, q)
        nearest[:, p] = dist[rows, p, q]
        used[rows, q] = True
    worst = np.where(np.arange(n) < sizes[:, None], nearest, 0.0).max(axis=1, initial=0.0)
    worst[np.isnan(worst)] = np.nan  # one NaN, whatever the sign the subtraction gave it
    worst[sizes != [len(y) for y in b]] = np.inf
    return worst


class Block(NamedTuple):
    """One `verify` block: ok[i] is whether check i passed; label(i) names check i, read only where ok[i] is False."""

    name: str
    ok: np.ndarray
    label: Callable[[int], str]

    def failures(self) -> list[str]:
        """The labels of the failed checks, in order."""
        return [self.label(i) for i in np.flatnonzero(~self.ok).tolist()]


def theorem1(kmax: int) -> Block:
    """Theorem 1: the recurrence char poly equals the Chebyshev closed form, by flag pair and then k."""
    ks = range(2, kmax + 1)
    ok = [char_poly_j1(k, a, b).coeffs == theorem1_poly(k, a, b).coeffs for a, b in _FLAG_PAIRS for k in ks]
    return Block("theorem-1 polynomial identity", np.array(ok, bool),
                 lambda i: "theorem1 k={} ({},{})".format(ks[i % len(ks)], *_FLAG_PAIRS[i // len(ks)]))


def theorem2(kmax: int) -> Block:
    """Theorem 2: the Chebyshev reduction to j = 1 equals the direct matrix.

    reductions_match runs the reduction on every (k, alpha, beta) at once,
    one step per j, and compares it with the fold rule.  The checks are
    its coprime configs, by k, flags and j.
    """
    match = reductions_match(kmax)
    k, _, j = np.ogrid[: kmax + 1, :4, : kmax // 2 + 1]
    coprime = np.broadcast_to((j >= 1) & (2 * j <= k) & (np.gcd(j, k) == 1), match.shape)
    ok = match[coprime]
    configs = None if ok.all() else [ProblemConfig(*_FLAG_PAIRS[f], j, k) for k, f, j in np.argwhere(coprime).tolist()]
    return Block("theorem-2 matrix reduction", ok, lambda i: f"theorem2 {configs[i]}")


def _bands(kmax: int, kmax_t1: int):
    """The (k, j) pairs orbit_checks reads, k = 2..max(kmax, kmax_t1), as (ks, js) lists per band of consecutive k.

    The pairs of k are its coprime j, or j = 1 alone for k > kmax, in
    order.  A band grows while its padded orbit entries, four flag pairs
    times its pairs times its largest k, stay within _BAND_ENTRIES; a k
    past that alone is a band of its own.
    """
    ks, js = [], []
    for k in range(2, max(kmax, kmax_t1) + 1):
        pairs = [j for j in range(1, k // 2 + 1) if math.gcd(j, k) == 1] if k <= kmax else [1]
        if ks and 4 * (len(js) + len(pairs)) * k > _BAND_ENTRIES:
            yield ks, js
            ks, js = [], []
        ks += [k] * len(pairs)
        js += pairs
    if ks:
        yield ks, js


def orbit_checks(kmax: int, kmax_t1: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Corollaries 1 and 3 and Lemma 3 as bool arrays, read off one orbits_of pass per band of k (_bands).

    Each pass reads the orbits of the band's (j, k) pairs, flag pair by
    flag pair and then pair, padded to the band's largest k, K, and keeps
    only the checks' booleans:
      Corollary 1, per k <= kmax_t1 and flag pair: the j = 1 det equals
        det_closed_form;
      Corollary 3, per coprime config of k <= kmax: det = 0 iff the
        parity rule says degenerate;
      Lemma 3, per the same config: the orbit is singular iff degenerate,
        and then its null vector is the pair's kernel_signs row.  The sign
        rule does not depend on k: the row of k is the first k entries of
        the row of K, and each null vector is compared on its first k
        entries.  The rank k - dim follows, as the rank is k less one
        where singular.
    Corollary 1 is in (k, flag pair) order, the other two in
    coprime_configs order (k, j, flag pair).
    """
    cor1, cor3, lem3 = [], [], []
    for ks, js in _bands(kmax, kmax_t1):
        o = orbits_of(ks, js)
        k, j, top = np.array(ks), np.array(js), ks[-1]
        det = o.det.reshape(4, len(js))
        j1 = (j == 1) & (k <= kmax_t1)
        closed = [det_closed_form(k1, *pair) for k1 in k[j1].tolist() for pair in _FLAG_PAIRS]
        cor1.append(det[:, j1].T.ravel() == closed)
        n = bisect.bisect_right(ks, kmax)  # the pairs of k <= kmax come first
        deg = degenerate(*_FLAGS, j[:n], k[:n])
        kernel = o.null_vectors.reshape(4, len(js), top)[:, :n] == kernel_signs(top, _FLAG_PAIRS)[:, None]
        if ks[0] < top:  # padded: each null vector is compared on its first k entries
            kernel |= np.arange(top) >= k[:n, None]
        cor3.append(((det[:, :n] == 0) == deg).T.ravel())
        lem3.append(((o.singular.reshape(4, len(js))[:, :n] == deg) & (kernel.all(axis=-1) | ~deg)).T.ravel())
    return tuple(np.concatenate(checks) if checks else np.zeros(0, bool) for checks in (cor1, cor3, lem3))


def corollaries_1_3(kmax: int, cor1: np.ndarray, cor3: np.ndarray) -> Block:
    """Corollary 1 (closed-form j = 1 determinants) and Corollary 3 (det = 0 iff degenerate), from orbit_checks."""
    configs = None if cor3.all() else coprime_configs(kmax)  # listed for a failure only
    return Block("corollary-1/3 determinants", np.concatenate((cor1, cor3)),
                 lambda i: "corollary1 k={} ({},{})".format(i // 4 + 2, *_FLAG_PAIRS[i % 4]) if i < len(cor1)
                 else f"corollary3 {configs[i - len(cor1)]}")


def closed_form_spectra(kmax: int) -> dict[int, list[list[complex]]]:
    """The spectrum_closed_form lists of the three closed-form flag pairs of each k <= min(kmax, 20), per k."""
    ks = range(2, min(kmax, _SPECTRUM_KMAX) + 1)
    return {k: [spectrum_closed_form(k, *pair) for pair in _CLOSED_FORM_FLAGS] for k in ks}


def lemmas_2_3(kmax: int, lem3: np.ndarray, spectra: dict) -> Block:
    """Lemma 3 (the kernel is kernel_signs' row, rank k - dim), from orbit_checks, and Lemma 2 (the j = 1 eigenvectors).

    Lemma 2 runs one eigvecs_j1 pass over the closed-form spectra of every
    k <= min(kmax, 16) side by side, a column per eigenvalue with its own
    k, and checks by k, flag pair and eigenvalue.
    """
    ks = range(2, min(kmax, _EIGVEC_KMAX) + 1)
    z = np.concatenate([spectra[k] for k in ks], axis=1)
    ok = eigvecs_j1(z, np.repeat(ks, ks), _CLOSED_FORM_FLAGS)[1]
    lem2 = np.concatenate([block.ravel() for block in np.split(ok, np.cumsum(ks)[:-1], axis=1)])  # k, pair, then z0
    configs = None if lem3.all() else coprime_configs(kmax)  # each listed for a failure only
    eigenvalues = None if lem2.all() else [
        (k, *pair, z0) for k in ks for pair, zs in zip(_CLOSED_FORM_FLAGS, spectra[k]) for z0 in zs]
    return Block("lemma-2/3 kernels, ranks, eigenvectors", np.concatenate((lem3, lem2)),
                 lambda i: f"lemma3 {configs[i]}" if i < len(lem3)
                 else "lemma2 k={} ({},{}) z0={}".format(*eigenvalues[i - len(lem3)]))


def corollary2(kmax: int, spectra: dict) -> Block:
    """Corollary 2: the j = 1 eigenvalues match the trigonometric spectra; 0 is no (0,1) root.

    numeric_spectra_j1 gives the spectra of the three closed-form flag
    pairs of each k in one eigvals call, and one greedy_matches call
    matches them all with the closed forms of this run.  The (0,1) checks
    follow, one per k.
    """
    ks = range(2, min(kmax, _SPECTRUM_KMAX) + 1)
    numeric = [row for k in ks for row in numeric_spectra_j1(k, _CLOSED_FORM_FLAGS)]
    worst = greedy_matches(numeric, [s for k in ks for s in spectra[k]])
    nonzero = np.array([abs(char_poly_j1(k, 0, 1).coeffs[0]) >= 1 for k in ks], bool)
    return Block("corollary-2 closed-form spectra", np.concatenate((worst < 1e-9, nonzero)),
                 lambda i: f"corollary2 (0,1) k={i - len(worst) + 2} zero in spectrum" if i >= len(worst)
                 else "corollary2 k={} ({},{}) dist={:.2e}".format(i // 3 + 2, *_CLOSED_FORM_FLAGS[i % 3], worst[i]))


def forward_oracle(configs: list[ProblemConfig]) -> Block:
    """The direct forward map equals Q^{-1} A R q on seeded random potentials, m = 16, on each of configs in turn.

    Each run of consecutive configs of one (j, k), the four flag pairs of
    coprime_configs, is one batch: one draw of its potentials, the real
    and then the imaginary samples of each config in turn, as per-config
    draws would give them, and one call of each forward-map core
    (_direct_rows and _matrix_rows of main_equation).
    """
    rng = np.random.default_rng(20240815)
    ok = []
    for (j, k), batch in itertools.groupby(configs, lambda cfg: (cfg.j, cfg.k)):
        pairs = [(cfg.alpha, cfg.beta) for cfg in batch]
        z = rng.normal(size=(len(pairs), 2, 16 * k))
        q = z[:, 0] + 1j * z[:, 1]
        w1 = _direct_rows(q, pairs, j, 16)
        w2 = _matrix_rows(q, pairs, j, k, 16)
        ok.append(np.abs(w1 - w2).max(axis=1) <= 1e-14 * np.maximum(1.0, np.abs(w1).max(axis=1)))
    return Block("forward-map oracle", np.concatenate(ok) if ok else np.zeros(0, bool),
                 lambda i: f"forward oracle {configs[i]}")


def sweeps(kmax: int, kmax_t1: int, kmax_fwd: int) -> list[Block]:
    """The `verify` blocks in print order.

    theorem2 stacks its rows first, the memory peak; orbit_checks then
    reads the determinant and kernel checks off one orbit pass per band
    of k, and the closed-form spectra that Lemma 2 and Corollary 2 share
    are built.  The oracle runs last, on coprime_configs(kmax_fwd), so
    the numpy modules it loads on first use do not add to the peak.
    """
    reduction = theorem2(kmax)
    cor1, cor3, lem3 = orbit_checks(kmax, kmax_t1)
    spectra = closed_form_spectra(kmax)
    return [theorem1(kmax_t1), reduction, corollaries_1_3(kmax, cor1, cor3), lemmas_2_3(kmax, lem3, spectra),
            corollary2(kmax, spectra), forward_oracle(coprime_configs(kmax_fwd))]
