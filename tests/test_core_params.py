import re
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from frozen_spectra import (
    Case,
    GridFunction,
    Kind,
    ProblemConfig,
    asymptotic_eigenvalue,
    char_poly_j1,
    classify,
    det_closed_form,
    delta_from_w,
    eigvec_j1,
    make_config,
    normalize_to_half,
    numeric_spectrum_j1,
    signs,
    spectrum_closed_form,
    theorem1_poly,
    zero_potential_delta,
)


def test_make_config_reduces_to_lowest_terms():
    assert make_config(0, 0, 3, 7).a == Fraction(3, 7)
    assert make_config(0, 0, 2, 4).a == Fraction(1, 2)
    cfg = make_config(1, 1, 3, 8)
    assert (cfg.j, cfg.k) == (3, 8)


def test_make_config_degenerate_endpoints():
    assert (make_config(0, 0, 0, 5).j, make_config(0, 0, 0, 5).k) == (0, 1)
    assert (make_config(0, 0, 7, 7).j, make_config(0, 0, 7, 7).k) == (1, 1)


@pytest.mark.parametrize(
    "bad",
    [(0, 0, 1, 0), (0, 0, -1, 3), (0, 0, 4, 3), (2, 0, 1, 3), (0, 3, 1, 3),
     (True, 0, 1, 3), (0, False, 1, 3), (0, 0, True, 3), (0, 0, 1, True), (1.0, 0, 1, 3), (0, 0, 2.0, 5)],
)
def test_make_config_rejects(bad):
    with pytest.raises(ValueError):
        make_config(*bad)


@pytest.mark.parametrize("numpy_int", [np.int64, np.int32])
@pytest.mark.parametrize("field", range(4))
def test_make_config_stores_a_numpy_integer_as_an_int(numpy_int, field):
    args = [0, 1, 4, 10]
    args[field] = numpy_int(args[field])
    cfg = make_config(*args)
    assert cfg == make_config(0, 1, 4, 10) == ProblemConfig(0, 1, 2, 5)
    assert all(type(v) is int for v in (cfg.alpha, cfg.beta, cfg.j, cfg.k))


# the functions that take the boundary flags bare and check them before any ProblemConfig or Spectrum would
_FLAG_READERS = {
    "det_closed_form": lambda a, b: det_closed_form(3, a, b),
    "char_poly_j1": lambda a, b: char_poly_j1(3, a, b),
    "numeric_spectrum_j1": lambda a, b: numeric_spectrum_j1(3, a, b),
    "eigvec_j1": lambda a, b: eigvec_j1([0j], 3, a, b),
    "theorem1_poly": lambda a, b: theorem1_poly(3, a, b),
    "spectrum_closed_form": lambda a, b: spectrum_closed_form(3, a, b),
    "asymptotic_eigenvalue": lambda a, b: asymptotic_eigenvalue(a, b, 2),
    "zero_potential_delta": lambda a, b: zero_potential_delta(a, b, 5.0),
    "delta_from_w": lambda a, b: delta_from_w(GridFunction.zeros(3, 4), a, b, 5.0),
}


@pytest.mark.parametrize("flags", [(2, 0), (0, -1), (True, 0)])
@pytest.mark.parametrize("reader", sorted(_FLAG_READERS))
def test_bare_flags_outside_zero_and_one_are_rejected(reader, flags):
    alpha, beta = flags
    with pytest.raises(ValueError, match=rf"^alpha and beta must be 0 or 1, got {alpha!r} and {beta!r}$"):
        _FLAG_READERS[reader](*flags)


@pytest.mark.parametrize("n", [0, -1, np.int64(0), True, 2.5])
def test_asymptotic_eigenvalue_rejects_an_index_below_1(n):
    with pytest.raises(ValueError, match=rf"^eigenvalue index n must be >= 1, got {re.escape(str(n))}$"):
        asymptotic_eigenvalue(1, 1, n)


@pytest.mark.parametrize("alpha,beta", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_asymptotic_eigenvalue_of_an_index_array_is_the_scalar_bit_for_bit(alpha, beta):
    n = np.arange(1, 20001)
    table = asymptotic_eigenvalue(alpha, beta, n)
    assert table.tolist() == [asymptotic_eigenvalue(alpha, beta, i) for i in range(1, 20001)]
    for bad in (np.arange(0, 5), n.astype(float), n > 0):
        with pytest.raises(ValueError, match=r"^eigenvalue index n must be >= 1, got "):
            asymptotic_eigenvalue(alpha, beta, bad)


def test_normalize_to_half():
    cfg, refl = normalize_to_half(make_config(0, 1, 5, 7))
    assert (cfg.alpha, cfg.beta, cfg.j, cfg.k) == (1, 0, 2, 7) and refl
    cfg, refl = normalize_to_half(make_config(0, 0, 3, 7))
    assert (cfg.j, cfg.k) == (3, 7) and not refl
    cfg, refl = normalize_to_half(make_config(1, 1, 5, 8))
    assert (cfg.alpha, cfg.beta, cfg.j, cfg.k) == (1, 1, 3, 8) and refl


@given(
    alpha=st.integers(0, 1),
    beta=st.integers(0, 1),
    j=st.integers(0, 30),
    k=st.integers(1, 30),
)
def test_reflection_is_an_involution(alpha, beta, j, k):
    if j > k:
        j = k
    cfg = make_config(alpha, beta, j, k)
    half, reflected = normalize_to_half(cfg)
    again, reflected2 = normalize_to_half(half)
    assert again == half and not reflected2
    if reflected:
        back = make_config(half.beta, half.alpha, half.k - half.j, half.k)
        assert back == cfg


@pytest.mark.parametrize(
    "alpha,beta,c,d",
    [(0, 0, -1, 1), (0, 1, 1, -1), (1, 0, -1, -1), (1, 1, 1, 1)],
)
def test_signs(alpha, beta, c, d):
    got = signs(alpha, beta)
    assert got == (c, d) and all(type(x) is int for x in got)
    assert got == ((-1) ** (beta + 1), (-1) ** (alpha + beta))
    assert c * d == (-1) ** (alpha + 1)


# the (4, 1) flag columns of the four pairs give each pair's int signs, and so do per-row arrays of the flags, as a
# stack of blocks holds them
def test_signs_broadcast_over_flag_columns_and_per_row_arrays():
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    columns = np.array(pairs).T[:, :, None]
    c, d = signs(*columns)
    assert c.shape == d.shape == (4, 1) and c.dtype == d.dtype == np.int64
    assert list(zip(c[:, 0].tolist(), d[:, 0].tolist())) == [signs(*pair) for pair in pairs]
    f = np.array([3, 0, 2, 1, 1, 0, 3])  # the flag pair of each row
    rows = signs(*columns[:, f, 0])
    assert [x.tolist() for x in rows] == [c[f, 0].tolist(), d[f, 0].tolist()]


@pytest.mark.parametrize(
    "alpha,beta,j,k,kind,case",
    [
        (0, 0, 3, 7, Kind.DEGENERATE, Case.I),
        (0, 1, 3, 7, Kind.NON_DEGENERATE, Case.V),
        (1, 0, 3, 7, Kind.DEGENERATE, Case.III),
        (0, 1, 2, 7, Kind.DEGENERATE, Case.II),
        (1, 0, 2, 7, Kind.NON_DEGENERATE, Case.VI),
        (1, 1, 3, 8, Kind.DEGENERATE, Case.IV),
        (1, 1, 3, 7, Kind.NON_DEGENERATE, Case.VII),
    ],
)
def test_classify(alpha, beta, j, k, kind, case):
    cls = classify(make_config(alpha, beta, j, k))
    assert cls.kind is kind
    assert cls.case_label is case


def test_classify_returns_shared_frozen_constants():
    assert classify(make_config(0, 1, 3, 7)) is classify(make_config(0, 1, 1, 9))
    with pytest.raises(FrozenInstanceError):
        classify(make_config(0, 0, 1, 3)).kind = Kind.NON_DEGENERATE


def test_classify_beyond_half():
    # the parity rules hold for all relevant j, including j > k/2
    assert classify(make_config(0, 1, 4, 7)).case_label is Case.II
    assert classify(make_config(1, 0, 5, 7)).case_label is Case.III


def test_config_json_round_trip():
    from frozen_spectra import ProblemConfig

    cfg = make_config(0, 1, 3, 7)
    assert ProblemConfig.from_dict(cfg.to_dict()) == cfg
