import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frozen_spectra import (
    GridFunction,
    SubintervalVector,
    q_apply,
    q_inverse,
    r_apply,
    r_inverse,
    read_csv,
    write_csv,
)
from frozen_spectra.interval_ops import _q_permutation, _r_permutation, subinterval_midpoints


def _random_grid(k, m, seed):
    rng = np.random.default_rng(seed)
    return GridFunction(k, m, rng.normal(size=k * m) + 1j * rng.normal(size=k * m))


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 8), m=st.integers(1, 16), seed=st.integers(0, 2**16))
def test_q_round_trip_is_bit_exact(k, m, seed):
    f = _random_grid(k, m, seed)
    assert np.array_equal(q_inverse(q_apply(f)).values, f.values)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 8), m=st.integers(1, 16), j=st.integers(0, 8), seed=st.integers(0, 2**16))
def test_r_round_trip_is_bit_exact(k, m, j, seed):
    if j % 2 == 0 and k % 2 == 0:
        return  # outside the coprime family; rejected by r_inverse
    f = _random_grid(k, m, seed)
    assert np.array_equal(r_inverse(r_apply(f, j), j).values, f.values)


def test_permutation_property():
    for k in range(1, 9):
        for m in (1, 3, 8):
            assert np.array_equal(np.sort(_q_permutation(k, m).ravel()), np.arange(k * m))
            for jpar in (0, 1):
                assert np.array_equal(np.sort(_r_permutation(jpar, k, m).ravel()), np.arange(k * m))


def test_q_apply_k2_layout():
    f = GridFunction(2, 4, np.arange(8, dtype=complex))
    chopped = q_apply(f)
    # first component: f on (0, 1/2); second: f(1 - t), i.e. reversed tail
    assert np.array_equal(chopped.components[0], np.arange(4))
    assert np.array_equal(chopped.components[1], np.arange(7, 3, -1))


def test_q_apply_k1_is_identity():
    f = GridFunction(1, 6, np.arange(6, dtype=complex))
    assert np.array_equal(q_apply(f).components[0], f.values)


def test_constants_are_preserved():
    f = GridFunction.from_callable(lambda x: 3.5 - 1j, 5, 8)
    for comp in q_apply(f).components:
        assert np.allclose(comp, 3.5 - 1j)
    for comp in r_apply(f, 2).components:
        assert np.allclose(comp, 3.5 - 1j)


@pytest.mark.parametrize("j,k", [(3, 7), (2, 7), (3, 8)])
def test_r_inverse_piecewise_layout(j, k):
    """Component nu fills ((k-nu)b, (k-nu+1)b): shifted for even j+nu, reflected for odd."""
    m = 5
    comps = np.array([[complex(nu, i) for i in range(m)] for nu in range(1, k + 1)])
    g = r_inverse(SubintervalVector(k, m, comps), j)
    out = g.values.reshape(k, m)
    for nu in range(1, k + 1):
        seg = out[k - nu]
        if (j + nu) % 2 == 0:
            assert np.array_equal(seg, comps[nu - 1])
        else:
            assert np.array_equal(seg, comps[nu - 1][::-1])


def test_r_inverse_rejects_even_even():
    comps = np.zeros((4, 3), dtype=complex)
    with pytest.raises(ValueError):
        r_inverse(SubintervalVector(4, 3, comps), 2)


def test_l1_preservation(rng):
    f = GridFunction(6, 16, rng.normal(size=96) + 1j * rng.normal(size=96))
    for vec in (q_apply(f), r_apply(f, 1), r_apply(f, 2)):
        assert np.isclose(np.abs(vec.components).mean(), np.abs(f.values).mean())


def test_midpoint_grids():
    f = GridFunction.zeros(4, 8)
    x = f.midpoints()
    assert len(x) == 32 and np.isclose(x[0], 1 / 64) and np.isclose(x[-1], 1 - 1 / 64)
    t = subinterval_midpoints(4, 8)
    assert np.allclose(t, x[:8])


def test_csv_round_trip(tmp_path, rng):
    f = GridFunction(3, 7, rng.normal(size=21) + 1j * rng.normal(size=21))
    path = tmp_path / "grid.csv"
    write_csv(f, path)
    g = read_csv(path)
    assert (g.k, g.m) == (3, 7)
    assert np.array_equal(g.values, f.values)


def test_csv_rejects_rows_past_header_count(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("# k=1 m=2\n0.25,1.0,0.0\n0.75,2.0,0.0\n")
    assert read_csv(path).m == 2
    path.write_text("# k=1 m=2\n0.25,1.0,0.0\n0.75,2.0,0.0\n\n")
    assert read_csv(path).m == 2  # trailing blank lines are fine
    path.write_text("# k=1 m=2\n0.25,1.0,0.0\n0.75,2.0,0.0\n0.9,3.0,0.0\n")
    with pytest.raises(ValueError, match="past the 2 rows"):
        read_csv(path)
    path.write_text("# k=1 m=2\n0.25,1.0,0.0\n0.75,2.0,0.0\n\n0.9,3.0,0.0\n")
    with pytest.raises(ValueError, match="past the 2 rows"):
        read_csv(path)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridFunction(2, 4, np.zeros(7, dtype=complex))
    with pytest.raises(ValueError):
        GridFunction.zeros(2, 4) + GridFunction.zeros(4, 2)
