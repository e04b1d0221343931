import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frozen_spectra import (
    GridFunction,
    q_apply,
    q_inverse,
    r_apply,
    r_inverse,
    read_csv,
    write_csv,
)
from frozen_spectra.interval_ops import (
    _q_permutation,
    _r_permutation,
    grid_midpoints,
    read_profile_csv,
    subinterval_midpoints,
)


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
    assert np.array_equal(chopped[0], np.arange(4))
    assert np.array_equal(chopped[1], np.arange(7, 3, -1))


def test_q_apply_k1_is_identity():
    f = GridFunction(1, 6, np.arange(6, dtype=complex))
    assert np.array_equal(q_apply(f)[0], f.values)


def test_constants_are_preserved():
    f = GridFunction.from_callable(lambda x: 3.5 - 1j, 5, 8)
    for comp in q_apply(f):
        assert np.allclose(comp, 3.5 - 1j)
    for comp in r_apply(f, 2):
        assert np.allclose(comp, 3.5 - 1j)


@pytest.mark.parametrize("j,k", [(3, 7), (2, 7), (3, 8)])
def test_r_inverse_piecewise_layout(j, k):
    """Component nu fills ((k-nu)b, (k-nu+1)b): shifted for even j+nu, reflected for odd."""
    m = 5
    comps = np.array([[complex(nu, i) for i in range(m)] for nu in range(1, k + 1)])
    g = r_inverse(comps, j)
    out = g.values.reshape(k, m)
    for nu in range(1, k + 1):
        seg = out[k - nu]
        if (j + nu) % 2 == 0:
            assert np.array_equal(seg, comps[nu - 1])
        else:
            assert np.array_equal(seg, comps[nu - 1][::-1])


def loop_r_permutation(j_parity, k, m):
    """The R chop row by row: row nu shifts ((k-nu)b, (k-nu+1)b) for even j+nu, reflects it for odd."""
    i = np.arange(m)
    rows = []
    for nu in range(1, k + 1):
        if (j_parity + nu) % 2 == 0:
            rows.append((k - nu) * m + i)
        else:
            rows.append((k - nu + 1) * m - 1 - i)
    return np.vstack(rows)


def test_r_permutation_is_the_q_permutation_read_backwards():
    for k in range(1, 14):
        for m in (1, 2, 3, 5):
            for j_parity in (0, 1):
                perm = _r_permutation(j_parity, k, m)
                assert np.array_equal(perm, loop_r_permutation(j_parity, k, m)), (j_parity, k, m)
                assert not perm.flags.writeable


def test_r_inverse_rejects_even_even():
    comps = np.zeros((4, 3), dtype=complex)
    with pytest.raises(ValueError):
        r_inverse(comps, 2)


def test_l1_preservation(rng):
    f = GridFunction(6, 16, rng.normal(size=96) + 1j * rng.normal(size=96))
    for vec in (q_apply(f), r_apply(f, 1), r_apply(f, 2)):
        assert np.isclose(np.abs(vec).mean(), np.abs(f.values).mean())


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


def test_csv_rejects_non_finite_values(tmp_path):
    path = tmp_path / "grid.csv"
    for row in ("0.75,nan,0.0", "0.75,1.0,inf", "0.75,-inf,0.0"):
        path.write_text(f"# k=1 m=3\n0.25,1.0,0.0\n{row}\n0.9,3.0,0.0\n")
        with pytest.raises(ValueError, match="data row 2 holds a non-finite value"):
            read_csv(path)
        with pytest.raises(ValueError, match="data row 2"):
            read_profile_csv(path)


def test_samples_are_a_read_only_copy():
    vals = np.arange(6, dtype=complex)
    f = GridFunction(2, 3, vals)
    with pytest.raises(ValueError, match="read-only"):
        f.values[0] = 5.0
    # the caller's array stays writable, and writing to it leaves f as it was
    vals[0] = 99.0
    assert vals.flags.writeable and not np.shares_memory(vals, f.values)
    assert np.array_equal(f.values, np.arange(6))
    # a grid built from another grid's samples holds its own copy
    g = GridFunction(2, 3, f.values)
    assert not g.values.flags.writeable and not np.shares_memory(f.values, g.values)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridFunction(2, 4, np.zeros(7, dtype=complex))
    for k, m in ((1, 0), (0, 4)):
        with pytest.raises(ValueError, match="k >= 1 and m >= 1"):
            GridFunction(k, m, [])
    # negative sizes are rejected before numpy sees them, and so is k*m > 0 from two negatives
    for k, m in ((2, -1), (-1, 3), (-2, -3)):
        for make in (GridFunction.zeros, lambda k, m: GridFunction.from_callable(lambda x: x, k, m),
                     grid_midpoints, subinterval_midpoints):
            with pytest.raises(ValueError, match=f"a grid needs k >= 1 and m >= 1, got k={k}, m={m}"):
                make(k, m)
    with pytest.raises(ValueError):
        GridFunction.zeros(2, 4) + GridFunction.zeros(4, 2)
