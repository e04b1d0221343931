from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from frozen_spectra import (
    Case,
    GridFunction,
    Kind,
    asymptotic_eigenvalue,
    classify,
    delta_from_w,
    make_config,
    normalize_to_half,
    sign_pair,
    spectrum_closed_form,
    theorem1_poly,
    zero_potential_delta,
)
from frozen_spectra.characteristic import zero_potential_delta_dlam


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
     (True, 0, 1, 3), (0, False, 1, 3), (0, 0, True, 3), (0, 0, 1, True), (1.0, 0, 1, 3)],
)
def test_make_config_rejects(bad):
    with pytest.raises(ValueError):
        make_config(*bad)


# the functions that take the boundary flags bare and build no ProblemConfig or Spectrum that would check them
_FLAG_READERS = {
    "theorem1_poly": lambda a, b: theorem1_poly(3, a, b),
    "spectrum_closed_form": lambda a, b: spectrum_closed_form(3, a, b),
    "asymptotic_eigenvalue": lambda a, b: asymptotic_eigenvalue(a, b, 2),
    "zero_potential_delta": lambda a, b: zero_potential_delta(a, b, 5.0),
    "zero_potential_delta_dlam": lambda a, b: zero_potential_delta_dlam(a, b, 5.0),
    "delta_from_w": lambda a, b: delta_from_w(GridFunction.zeros(3, 4), a, b, 5.0),
}


@pytest.mark.parametrize("flags", [(2, 0), (0, -1), (True, 0)])
@pytest.mark.parametrize("reader", sorted(_FLAG_READERS))
def test_bare_flags_outside_zero_and_one_are_rejected(reader, flags):
    with pytest.raises(ValueError, match=r"^alpha and beta must be 0 or 1$"):
        _FLAG_READERS[reader](*flags)


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
def test_sign_pair(alpha, beta, c, d):
    s = sign_pair(make_config(alpha, beta, 1, 3))
    assert (s.c, s.d) == (c, d)
    assert s.c * s.d == (-1) ** (alpha + 1)


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


def test_classify_beyond_half():
    # the parity rules hold for all relevant j, including j > k/2
    assert classify(make_config(0, 1, 4, 7)).case_label is Case.II
    assert classify(make_config(1, 0, 5, 7)).case_label is Case.III


def test_config_json_round_trip():
    from frozen_spectra import ProblemConfig

    cfg = make_config(0, 1, 3, 7)
    assert ProblemConfig.from_dict(cfg.to_dict()) == cfg
