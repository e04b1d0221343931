import math
import tracemalloc
from collections import Counter

import pytest

from frozen_spectra import GridFunction, IntPolynomial, frozen_matrix, identities, make_config
from frozen_spectra.core_params import ProblemConfig, coprime_configs

# One broken ingredient per sweep; each is used by that sweep alone.
BROKEN = {
    "theorem-1 polynomial identity": ("theorem1_poly", lambda k, a, b: IntPolynomial((1,))),
    "theorem-2 matrix reduction": ("reductions_j1", lambda a, b, k: ((j, ()) for j in range(1, k // 2 + 1))),
    "corollary-1/3 determinants": ("det_closed_form", lambda k, a, b: 7),
    "lemma-2/3 kernels, ranks, eigenvectors": ("rank", lambda a: -1),
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


# j = 1 configs with 12 < k <= 14 are no coprime config of kmax = 12: the corollary-1 sweep builds them itself
def test_one_sweeps_run_builds_and_walks_each_coprime_matrix_once(monkeypatch):
    built, walked = Counter(), Counter()
    build, walk = identities.build_matrix, frozen_matrix.orbit
    monkeypatch.setattr(identities, "build_matrix", lambda cfg: built.update([cfg]) or build(cfg))
    monkeypatch.setattr(frozen_matrix, "orbit", lambda cfg: walked.update([cfg]) or walk(cfg))
    _consume(12, 14, 3)
    once = Counter(coprime_configs(12) + [make_config(a, b, 1, k) for k in (13, 14) for a in (0, 1) for b in (0, 1)])
    assert built == once
    assert walked == once
    _consume(12, 14, 3)  # a second run keeps nothing of the first
    assert built == once + once
    assert walked == once + once


# the record of one run holds two ints per coprime config and no matrix: about 0.25 MB here, where a cache of every
# matrix built reads about 2.5 MB
def test_a_sweeps_run_holds_no_matrix_beyond_its_step():
    _consume(6, 6, 3)  # warm the per-process caches (stored Chebyshev and char-poly runs)
    tracemalloc.start()
    try:
        _consume(30, 10, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
