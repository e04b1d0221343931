import math
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frozen_spectra import IntPolynomial, cli, frozen_matrix, identities
from frozen_spectra.core_params import Kind, ProblemConfig, classify, coprime_configs, degenerate

# One broken ingredient per sweep; each is used by that sweep alone.
BROKEN = {
    "theorem-1 polynomial identity": ("theorem1_poly", lambda k, a, b: IntPolynomial((1,))),
    "theorem-2 matrix reduction": ("reductions_match", lambda kmax: np.zeros((kmax + 1, 4, kmax // 2 + 1), dtype=bool)),
    "corollary-1/3 determinants": ("det_closed_form", lambda k, a, b: 7),
    "lemma-2/3 kernels, ranks, eigenvectors": ("kernel_signs", lambda k, pairs: np.zeros((len(pairs), k), np.int64)),
    "corollary-2 closed-form spectra": ("numeric_spectra_j1", lambda k, pairs: np.full((len(pairs), k), 9.0)),
    "forward-map oracle": ("_matrix_rows", lambda v, pairs, j, k, m: v),
}


def _failed():
    """Failed labels per verify block, over small ranges."""
    return {block.name: block.failures() for block in identities.sweeps(6, 6, 3)}


def test_sweeps_pass_on_the_library():
    assert _failed() == {name: [] for name in BROKEN}


# max(0.0, nan) is 0.0: a NaN spectrum must not read as a perfect match
NAN_SPECTRUM = ("corollary-2 closed-form spectra", ("numeric_spectra_j1", lambda k, pairs: np.full((len(pairs), k), math.nan)))
# the oracle's other side: a broken direct core against the matrix core
BROKEN_DIRECT = ("forward-map oracle", ("_direct_rows", lambda v, pairs, j, m: v))


@pytest.mark.parametrize("block,broken", [*BROKEN.items(), NAN_SPECTRUM, BROKEN_DIRECT],
                         ids=[*BROKEN, "corollary-2 NaN spectrum", "forward-map oracle direct core"])
def test_a_broken_identity_fails_its_sweep_only(block, broken, monkeypatch):
    monkeypatch.setattr(identities, *broken)
    failed = _failed()
    assert [b for b, labels in failed.items() if labels] == [block]


# a passing verify formats no config and lists no label source: the one listing is the forward oracle's own configs
def test_a_passed_check_formats_no_label(monkeypatch):
    def no_repr(cfg):
        raise AssertionError("a passed check formatted its config")

    listed = []
    monkeypatch.setattr(ProblemConfig, "__repr__", no_repr)
    monkeypatch.setattr(identities, "coprime_configs", lambda kmax: listed.append(kmax) or coprime_configs(kmax))
    assert cli.dispatch(["verify", "--kmax", "12", "--kmax-theorem1", "12", "--kmax-forward", "4"]) == cli.EXIT_OK
    assert listed == [4]


def _greedy_match(a, b) -> float:
    """The greedy match in Python, the oracle of greedy_matches: each a_p in turn takes its nearest remaining b_q."""
    if len(a) != len(b):
        return math.inf
    b = [complex(z) for z in b]
    worst = 0.0
    for z in a:
        z = complex(z)
        dist = [abs(z - w) for w in b]
        i = dist.index(min(dist))  # min keeps a first NaN, and skips every later one
        del b[i]
        worst = max(worst, dist[i]) if dist[i] == dist[i] else math.nan  # max keeps a NaN worst, never takes one
    return worst


def _bits(x):
    return struct.pack("<d", x)


# a small pool makes ties, and NaN and +-inf in either part make NaN and inf distances
_POINTS = st.sampled_from([0, 1, -1, 1j, -1j, 0.5, 1 + 1j, math.nan, math.inf, -math.inf,
                           complex(math.inf, 1), complex(1, math.nan), complex(-math.inf, math.inf)])
_MULTISETS = st.lists(st.one_of(_POINTS, st.complex_numbers(max_magnitude=4)), max_size=7)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_MULTISETS, _MULTISETS) | _MULTISETS.map(lambda a: (a, a[::-1])), min_size=1, max_size=6))
def test_greedy_matches_give_the_bits_of_the_python_greedy(pairs):
    a, b = [x for x, _ in pairs], [y for _, y in pairs]
    expected = [_bits(_greedy_match(x, y)) for x, y in pairs]
    assert [_bits(w) for w in identities.greedy_matches(a, b).tolist()] == expected
    assert [_bits(identities.greedy_matches([x], [y])[0]) for x, y in pairs] == expected  # a batch of one


def test_greedy_match_sizes_and_distance():
    assert identities.greedy_matches([[1, 2j]], [[2j + 1e-3, 1]])[0] == pytest.approx(1e-3)
    assert identities.greedy_matches([[1]], [[1, 1]])[0] == float("inf")
    assert identities.greedy_matches([[0, 1]], [[1, -1]])[0] == 2.0  # 0 takes the first of its two nearest; 1 gets -1


def test_greedy_match_reads_nan_on_a_nan():
    nan = math.nan
    for a, b in (([nan], [1.0]), ([1.0, 2.0], [nan, 2.0]), ([nan, 1.0], [1.0, 1.0]), ([1.0, 2.0], [2.0, nan])):
        assert math.isnan(identities.greedy_matches([a], [b])[0]), (a, b)
        assert math.isnan(identities.greedy_matches([b], [a])[0]), (b, a)


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
    assert identities.theorem2(12).ok.tolist() == [True] * len(coprime_configs(12))
    # the step to j holds the blocks with k >= 2j
    assert steps == [4 * sum(range(2 * j, 13)) for j in range(2, 7)]


# a sweeps run reads det, rank and kernel off one orbits_of pass per band of k, whose bands cover 2 up to the larger
# of kmax and kmax_t1 once and in order, here in one band, and builds no matrix: the float j = 1 checks (Lemma 2's
# residual and Corollary 2's eigvals) read the fold rule of the three closed-form flag pairs of each k at once, and
# the forward oracle's matrix core scatters its own stack; frozen_matrix.build_matrix is counted, not refused, so the
# count names any build
@pytest.mark.parametrize("kmax,kmax_t1", [(12, 14), (14, 12)])
def test_a_sweeps_run_builds_no_matrix(monkeypatch, kmax, kmax_t1):
    for module, name in ((identities, "build_matrix"), (identities, "det_exact"), (identities, "rank"),
                         (frozen_matrix, "det_exact"), (frozen_matrix, "rank"), (frozen_matrix, "orbit")):
        monkeypatch.setattr(module, name, _refuse, raising=False)
    built, passes = [], []
    build, read = frozen_matrix.build_matrix, identities.orbits_of
    monkeypatch.setattr(frozen_matrix, "build_matrix", lambda cfg: built.append(cfg) or build(cfg))
    monkeypatch.setattr(identities, "orbits_of", lambda ks, js: passes.append(ks) or read(ks, js))
    identities.sweeps(kmax, kmax_t1, 3)
    assert [list(dict.fromkeys(ks)) for ks in passes] == [list(range(2, 15))]
    assert passes[0] == sorted(passes[0])
    assert built == []


# one recurrence pass over every k gives the Lemma 2 mask: a bad z0 in each of two flag pairs of one k gets its own
# label, the first a non-finite z0, and every other eigenvalue passes
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
    block = identities.lemmas_2_3(6, identities.orbit_checks(6, 6)[2], identities.closed_form_spectra(6))
    assert block.failures() == [
        "lemma2 k=5 (1,0) z0=(nan+0j)",
        "lemma2 k=5 (1,1) z0=(0.5+0j)",
    ]
    assert block.ok.size == len(coprime_configs(6)) + sum(3 * k for k in range(2, 7))


# the forward oracle runs after the Theorem 2 stack, the memory peak, so the modules it loads first do not add to it;
# it calls the direct core once per (j, k), here (1, 2) and (1, 3)
def test_sweeps_runs_the_forward_oracle_after_theorem2(monkeypatch):
    calls = []
    match, direct = identities.reductions_match, identities._direct_rows
    monkeypatch.setattr(identities, "reductions_match", lambda kmax: calls.append("theorem2") or match(kmax))
    monkeypatch.setattr(identities, "_direct_rows", lambda *args: calls.append("forward") or direct(*args))
    identities.sweeps(6, 6, 3)
    assert calls == ["theorem2", "forward", "forward"]


def _batches(seen):
    """The configs of the (v, pairs, j, k, m) batches a forward core saw, in order."""
    return [ProblemConfig(*pair, j, k) for _, pairs, j, k, _ in seen for pair in pairs]


# the forward oracle checks the configs of coprime_configs, in that order: each (j, k) is one batch of its four flag
# pairs, which both cores see, with one potential per config on the (k, 16) grid
@pytest.mark.parametrize("kmax_fwd", [2, 3, 8, 13])
def test_forward_oracle_checks_the_coprime_configs_in_order(monkeypatch, kmax_fwd):
    direct_seen, matrix_seen = [], []
    direct, matrix = identities._direct_rows, identities._matrix_rows

    def seen_direct(v, pairs, j, m):
        direct_seen.append((v, pairs, j, v.shape[1] // m, m))
        return direct(v, pairs, j, m)

    def seen_matrix(v, pairs, j, k, m):
        matrix_seen.append((v, pairs, j, k, m))
        return matrix(v, pairs, j, k, m)

    monkeypatch.setattr(identities, "_direct_rows", seen_direct)
    monkeypatch.setattr(identities, "_matrix_rows", seen_matrix)
    block = identities.forward_oracle(coprime_configs(kmax_fwd))
    assert block.ok.tolist() == [True] * len(coprime_configs(kmax_fwd))
    assert _batches(direct_seen) == _batches(matrix_seen) == coprime_configs(kmax_fwd)
    for (v, pairs, j, k, m), (w, *rest) in zip(direct_seen, matrix_seen):
        assert pairs == list(frozen_matrix._FLAG_PAIRS) and v.shape == (4, 16 * k) and m == 16
        assert w is v and rest == [pairs, j, k, m]


def _orbit_checks_per_config(kmax, kmax_t1):
    """orbit_checks off one orbit per config: the reference of the banded passes."""
    cor1 = [int(frozen_matrix.orbit(ProblemConfig(*pair, 1, k)).det) == frozen_matrix.det_closed_form(k, *pair)
            for k in range(2, kmax_t1 + 1) for pair in frozen_matrix._FLAG_PAIRS]
    cor3, lem3 = [], []
    for cfg in coprime_configs(kmax):
        o = frozen_matrix.orbit(cfg)
        deg = bool(degenerate(cfg.alpha, cfg.beta, cfg.j, cfg.k))
        signs = tuple(frozen_matrix.kernel_signs(cfg.k, [(cfg.alpha, cfg.beta)])[0].tolist())
        cor3.append((int(o.det) == 0) == deg)
        lem3.append(bool(o.singular) == deg and (not deg or o.null_vector == signs))
    return cor1, cor3, lem3


# the banded passes give the checks of one orbit per config, with one k per band (1), the default bands, and the
# whole sweep in one band (2^30)
@pytest.mark.parametrize("band", [1, identities._BAND_ENTRIES, 2**30])
@settings(max_examples=25, deadline=None)
@given(kmax=st.integers(2, 40), kmax_t1=st.integers(2, 40))
def test_orbit_checks_equal_the_per_config_checks_in_any_bands(band, kmax, kmax_t1):
    with mock.patch.object(identities, "_BAND_ENTRIES", band):
        checks = identities.orbit_checks(kmax, kmax_t1)
    assert [x.tolist() for x in checks] == list(_orbit_checks_per_config(kmax, kmax_t1))


@pytest.mark.parametrize("kmax,kmax_t1", [(12, 14), (14, 12), (2, 2)])
def test_orbit_checks_hold_one_check_per_j1_and_coprime_config(kmax, kmax_t1):
    cor1, cor3, lem3 = identities.orbit_checks(kmax, kmax_t1)
    assert cor1.tolist() == [True] * 4 * (kmax_t1 - 1)
    assert cor3.tolist() == lem3.tolist() == [True] * len(coprime_configs(kmax))


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
    failed = identities.theorem2(12).failures()
    assert failed == [f"theorem2 {ProblemConfig(0, 1, 5, 11)}"]


# each config's checks read its own orbit in the batch of its band: one sign flipped in one orbit's running product
# fails that config's checks alone.  Flipped at its own last step, t = k - 1, and so on the padding that holds g_(k-1)
# (a flip of -a_t b_t there), it turns det = 0 over, which Corollaries 1 (j = 1) and 3 and Lemma 3 report; flipped at
# t = 1 it changes the null vector alone, which Lemma 3 reports if the config is degenerate, and no check reads
# otherwise
@pytest.mark.parametrize("cfg", [ProblemConfig(1, 1, 3, 8), ProblemConfig(0, 1, 3, 7), ProblemConfig(0, 0, 1, 9),
                                 ProblemConfig(1, 0, 1, 85), ProblemConfig(0, 1, 37, 80)], ids=repr)
@pytest.mark.parametrize("t", [-1, 1])
def test_orbit_checks_read_each_config_at_its_own_place(monkeypatch, cfg, t):
    read = identities.orbits_of
    flips = []

    def flipped(ks, js):
        o = read(ks, js)
        if (cfg.j, cfg.k) not in zip(js, ks):
            return o
        flips.append(ks)
        g = o.g.copy()
        row = frozen_matrix._FLAG_PAIRS.index((cfg.alpha, cfg.beta)) * len(js) + list(zip(js, ks)).index((cfg.j, cfg.k))
        if t > 0:
            g[row, t] *= -1
        else:
            g[row, cfg.k - 1 :] *= -1
        return frozen_matrix.Orbit(o.rows, o.cols, o.a, g, o.sign)

    monkeypatch.setattr(identities, "orbits_of", flipped)
    cor1, cor3, lem3 = identities.orbit_checks(80, 90)
    failed = identities.corollaries_1_3(80, cor1, cor3).failures()
    failed += identities.lemmas_2_3(80, lem3, identities.closed_form_spectra(80)).failures()
    deg = classify(cfg).kind is Kind.DEGENERATE
    if t == -1:
        expected = [f"corollary1 k={cfg.k} ({cfg.alpha},{cfg.beta})"] if cfg.j == 1 else []
        expected += [f"corollary3 {cfg}", f"lemma3 {cfg}"] if cfg.k <= 80 else []
    else:
        expected = [f"lemma3 {cfg}"] if deg and cfg.k <= 80 else []
    assert failed == expected
    assert len(flips) == 1


# a run keeps three booleans per coprime config and no matrix, and the theorem-2 run holds (4, n) arrays of its
# n = 1856 stacked rows: about 0.7 MB at the peak here, where a cache of every matrix built reads about 2.5 MB
def test_a_sweeps_run_holds_no_matrix_beyond_its_step():
    identities.sweeps(6, 6, 3)  # warm the per-process caches (stored Chebyshev and char-poly runs)
    tracemalloc.start()
    try:
        identities.sweeps(30, 10, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
