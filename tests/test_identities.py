import math
import tracemalloc

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
    "corollary-2 closed-form spectra": ("numeric_spectra_j1", lambda k, pairs: np.full((len(pairs), k), 9.0)),
    "forward-map oracle": ("forward_w_matrix", lambda q, cfg: GridFunction(q.k, q.m, q.values)),
}


def _failed():
    """Failed labels per verify block, over small ranges."""
    return {name: [label for label, ok in checks if not ok] for name, checks in identities.sweeps(6, 6, 3)}


def test_sweeps_pass_on_the_library():
    assert _failed() == {name: [] for name in BROKEN}


# max(0.0, nan) is 0.0: a NaN spectrum must not read as a perfect match
NAN_SPECTRUM = ("corollary-2 closed-form spectra", ("numeric_spectra_j1", lambda k, pairs: np.full((len(pairs), k), math.nan)))


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


def _refuse(*args):
    raise AssertionError("a sweep read a matrix or an orbit it should not")


# the theorem-2 sweep reads no matrix and no orbit: one step per j over the blocks of every (k, alpha, beta)
def test_theorem2_steps_once_per_j_and_builds_no_matrix(monkeypatch):
    for module, name in ((identities, "build_matrix"), (frozen_matrix, "build_matrix"), (frozen_matrix, "orbit"),
                         (identities, "det_exact"), (identities, "rank"), (identities, "orbits_of")):
        monkeypatch.setattr(module, name, _refuse, raising=False)
    steps = []
    step = frozen_matrix._mul_sub
    monkeypatch.setattr(frozen_matrix, "_mul_sub", lambda m, y, sub: steps.append(y.shape[1]) or step(m, y, sub))
    checks = list(identities.theorem2(12))
    assert checks == [("", True)] * len(coprime_configs(12))
    # the step to j holds the blocks with k >= 2j
    assert steps == [4 * sum(range(2 * j, 13)) for j in range(2, 7)]


# a sweeps run reads det, rank and kernel off one orbits_of pass per k, up to the larger of kmax and kmax_t1, and
# builds no matrix: the float j = 1 checks (Lemma 2's residual and Corollary 2's eigvals) read the fold rule of the
# three closed-form flag pairs of each k at once; frozen_matrix.build_matrix is counted, not refused, so the count
# names any build
@pytest.mark.parametrize("kmax,kmax_t1", [(12, 14), (14, 12)])
def test_a_sweeps_run_builds_no_matrix(monkeypatch, kmax, kmax_t1):
    for module, name in ((identities, "build_matrix"), (identities, "det_exact"), (identities, "rank"),
                         (frozen_matrix, "det_exact"), (frozen_matrix, "rank"), (frozen_matrix, "orbit")):
        monkeypatch.setattr(module, name, _refuse, raising=False)
    built, passes = [], []
    build, read = frozen_matrix.build_matrix, identities.orbits_of
    monkeypatch.setattr(frozen_matrix, "build_matrix", lambda cfg: built.append(cfg) or build(cfg))
    monkeypatch.setattr(identities, "orbits_of", lambda k, js: passes.append(k) or read(k, js))
    _consume(kmax, kmax_t1, 3)
    assert passes == list(range(2, 15))
    assert built == []


# one recurrence pass per k gives the Lemma 2 mask: a bad z0 in each of two flag pairs of one k gets its own label,
# the first a non-finite z0, and every other eigenvalue passes
def test_lemma2_labels_each_failed_eigenvalue_of_the_mask(monkeypatch):
    bad = {(1, 0): (1, math.nan), (1, 1): (3, 0.5)}  # flag pair: (index in the spectrum, bad z0)
    closed = frozen_matrix.spectrum_closed_form

    def spectrum(k, alpha, beta):
        z = closed(k, alpha, beta)
        if k == 5 and (alpha, beta) in bad:
            i, z0 = bad[alpha, beta]
            z[i] = complex(z0)
        return z

    monkeypatch.setattr(identities, "spectrum_closed_form", spectrum)
    checks = list(identities.lemmas_2_3(6, identities.exact_record(6, 6)))
    assert [label for label, ok in checks if not ok] == [
        "lemma2 k=5 (1,0) z0=(nan+0j)",
        "lemma2 k=5 (1,1) z0=(0.5+0j)",
    ]
    assert len(checks) == len(coprime_configs(6)) + sum(3 * k for k in range(2, 7))


# a kmax too large to stack is refused when sweeps() is called, before the record reads an orbit: orbits_of is
# refused here, so a record built first fails at k = 2 instead of running toward k = 3e9
def test_sweeps_runs_the_stack_guard_before_the_record(monkeypatch):
    monkeypatch.setattr(identities, "orbits_of", _refuse)
    with pytest.raises(ValueError, match=r"^kmax=3000000000 stacks 18000000005999999996 matrix rows, too many to"):
        identities.sweeps(3_000_000_000, 4, 2)


@pytest.mark.parametrize("kmax,kmax_t1", [(12, 14), (14, 12), (2, 2)])
def test_exact_record_holds_the_coprime_and_j1_configs(kmax, kmax_t1):
    j1 = [ProblemConfig(a, b, 1, k) for k in range(kmax + 1, kmax_t1 + 1) for a in (0, 1) for b in (0, 1)]
    expected = sorted(coprime_configs(kmax) + j1, key=lambda cfg: (cfg.k, cfg.alpha, cfg.beta, cfg.j))
    assert list(identities.exact_record(kmax, kmax_t1)) == expected


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
    failed = [label for label, ok in identities.theorem2(12) if not ok]
    assert failed == [f"theorem2 {ProblemConfig(0, 1, 5, 11)}"]


# the record of the batch orbits holds what the per-config reads give
def test_exact_record_holds_the_per_config_det_rank_and_kernel():
    record = identities.exact_record(80, 90)
    j1 = [make_config(a, b, 1, k) for k in range(81, 91) for a in (0, 1) for b in (0, 1)]
    assert len(record) == len(coprime_configs(80)) + len(j1)
    for cfg in coprime_configs(80) + j1:
        o = frozen_matrix.orbit(cfg)
        assert record[cfg] == (frozen_matrix.det_exact(cfg), frozen_matrix.rank(cfg), o.null_vector), cfg


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
