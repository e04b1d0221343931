import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from frozen_spectra import GridFunction, IntPolynomial, frozen_matrix, identities, make_config
from frozen_spectra.core_params import ProblemConfig, coprime_configs

# One broken ingredient per sweep; each is used by that sweep alone.
BROKEN = {
    "theorem-1 polynomial identity": ("theorem1_poly", lambda k, a, b: IntPolynomial((1,))),
    "theorem-2 matrix reduction": ("reductions_match", lambda kmax: np.zeros((kmax + 1, 4, kmax // 2 + 1), dtype=bool)),
    "corollary-1/3 determinants": ("det_closed_form", lambda k, a, b: 7),
    "lemma-2/3 kernels, ranks, eigenvectors": ("kernel_closed_form", lambda cfg: ()),
    "corollary-2 closed-form spectra": ("numeric_spectrum_j1", lambda k, a, b: [9.0] * k),
    "forward-map oracle": ("forward_w_matrix", lambda q, cfg: GridFunction(q.k, q.m, q.values)),
}


def _failed():
    """Failed labels per verify block, over small ranges."""
    return {name: [label for label, ok in checks if not ok] for name, checks in identities.sweeps(6, 6, 3)}


def test_sweeps_pass_on_the_library():
    assert _failed() == {name: [] for name in BROKEN}


# max(0.0, nan) is 0.0: a NaN spectrum must not read as a perfect match
NAN_SPECTRUM = ("corollary-2 closed-form spectra", ("numeric_spectrum_j1", lambda k, a, b: [math.nan] * k))


@pytest.mark.parametrize("block,broken", [*BROKEN.items(), NAN_SPECTRUM], ids=[*BROKEN, "corollary-2 NaN spectrum"])
def test_a_broken_identity_fails_its_sweep_only(block, broken, monkeypatch):
    monkeypatch.setattr(identities, *broken)
    failed = _failed()
    assert [b for b, labels in failed.items() if labels] == [block]


def test_a_passed_check_formats_no_label(monkeypatch):
    def no_repr(cfg):
        raise AssertionError("a passed check formatted its config")

    monkeypatch.setattr(ProblemConfig, "__repr__", no_repr)
    for name, checks in identities.sweeps(12, 12, 4):
        assert set(checks) == {("", True)}, name


def test_match_multisets_sizes_and_distance():
    assert identities.match_multisets([1, 2j], [2j + 1e-3, 1]) == pytest.approx(1e-3)
    assert identities.match_multisets([1], [1, 1]) == float("inf")
    assert identities.match_multisets([0, 1], [1, -1]) == 2.0  # 0 takes the first of its two nearest, so 1 gets -1


def test_match_multisets_reads_nan_on_a_nan():
    nan = math.nan
    for a, b in (([nan], [1.0]), ([1.0, 2.0], [nan, 2.0]), ([nan, 1.0], [1.0, 1.0]), ([1.0, 2.0], [2.0, nan])):
        assert math.isnan(identities.match_multisets(a, b)), (a, b)
        assert math.isnan(identities.match_multisets(b, a)), (b, a)


def _consume(*ranges):
    for _, checks in identities.sweeps(*ranges):
        for _ in checks:
            pass


# the theorem-2 sweep reads no matrix per config: one step per j over the blocks of every (k, alpha, beta), and the
# record of every coprime config from one orbit pass per k
def test_theorem2_steps_once_per_j_and_builds_no_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("theorem2 read a matrix per config")

    for module, name in ((identities, "build_matrix"), (frozen_matrix, "build_matrix"), (frozen_matrix, "orbit"),
                         (identities, "det_exact"), (identities, "rank")):
        monkeypatch.setattr(module, name, refuse)
    steps, passes = [], []
    step, read = frozen_matrix._mul_sub, identities.orbits_of
    monkeypatch.setattr(frozen_matrix, "_mul_sub", lambda m, y, sub: steps.append(y.shape[1]) or step(m, y, sub))
    monkeypatch.setattr(identities, "orbits_of", lambda k, js: passes.append(k) or read(k, js))
    record = {}
    assert all(ok for _, ok in identities.theorem2(12, record))
    # the step to j holds the blocks with k >= 2j
    assert steps == [4 * sum(range(2 * j, 13)) for j in range(2, 7)]
    assert passes == list(range(2, 13))
    assert list(record) == sorted(coprime_configs(12), key=lambda cfg: (cfg.k, cfg.alpha, cfg.beta, cfg.j))


# j = 1 configs with 12 < k <= 14 are no coprime config of kmax = 12: the corollary-1 sweep builds them itself
def test_one_sweeps_run_builds_only_the_j1_matrices_past_kmax(monkeypatch):
    built = Counter()
    build = identities.build_matrix
    monkeypatch.setattr(identities, "build_matrix", lambda cfg: built.update([cfg]) or build(cfg))
    _consume(12, 14, 3)
    once = Counter(make_config(a, b, 1, k) for k in (13, 14) for a in (0, 1) for b in (0, 1))
    assert built == once
    _consume(12, 14, 3)  # a second run keeps nothing of the first
    assert built == once + once


# blocks are ordered by k and then the flags, and the step to j holds the blocks with k >= 2j: the step to j = 5
# starts at the blocks of k = 10 and is the last of k = 11, so a sign flipped in block (0, 1) of k = 11 there fails
# (0, 1, 5, 11) alone
def test_one_corrupted_block_fails_its_config_alone(monkeypatch):
    step = frozen_matrix._mul_sub
    steps = []

    def corrupted(m, y, sub):
        z = step(m, y, sub)
        steps.append(z)
        if len(steps) == 4:  # the step to j = 5
            z[1, frozen_matrix._first_row(11) + 11 - frozen_matrix._first_row(10)] *= -1
        return z

    monkeypatch.setattr(frozen_matrix, "_mul_sub", corrupted)
    failed = [label for label, ok in identities.theorem2(12, {}) if not ok]
    assert failed == [f"theorem2 {ProblemConfig(0, 1, 5, 11)}"]


# the record of the batch orbits holds what the per-config reads give
def test_theorem2_records_the_per_config_det_rank_and_kernel():
    record = {}
    for _ in identities.theorem2(80, record):
        pass
    assert len(record) == len(coprime_configs(80))
    for cfg in coprime_configs(80):
        a = frozen_matrix.build_matrix(cfg)
        assert record[cfg] == (frozen_matrix.det_exact(a), frozen_matrix.rank(a), a.null_vector), cfg


# the record of one run holds two ints and a kernel per coprime config and no matrix, and the theorem-2 run holds
# (4, n) arrays of its n = 1856 stacked rows: about 0.7 MB at the peak here, where a cache of every matrix built reads
# about 2.5 MB
def test_a_sweeps_run_holds_no_matrix_beyond_its_step():
    _consume(6, 6, 3)  # warm the per-process caches (stored Chebyshev and char-poly runs)
    tracemalloc.start()
    try:
        _consume(30, 10, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
