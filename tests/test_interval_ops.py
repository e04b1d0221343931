import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frozen_spectra import (
    GridFunction,
    Spectrum,
    extract_w,
    q_apply,
    q_inverse,
    r_apply,
    r_inverse,
    read_csv,
    write_csv,
)
from frozen_spectra.interval_ops import (
    CSV_CHUNK,
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


def _index_grid(k, m):
    """The grid whose sample i holds the value i, so a chop's entries read as the indices it took."""
    return GridFunction(k, m, np.arange(k * m))


def loop_q_permutation(k, m):
    """The Q chop row by row: row nu shifts ((nu-1)b, nu b) for odd nu, reflects it for even nu."""
    i = np.arange(m)
    return np.vstack([(nu - 1) * m + i if nu % 2 else nu * m - 1 - i for nu in range(1, k + 1)])


def test_permutation_property():
    for k in range(1, 14):
        for m in (1, 2, 3, 5):
            f = _index_grid(k, m)
            chopped = q_apply(f)
            assert chopped.flags.c_contiguous and np.array_equal(chopped, loop_q_permutation(k, m)), (k, m)
            chopped[:] = -1  # a fresh array: writing into it changes neither f nor a later chop of f
            assert np.array_equal(q_apply(f), loop_q_permutation(k, m))
            assert np.array_equal(f.values, np.arange(k * m))
            for j in range(4):
                assert np.array_equal(np.sort(r_apply(f, j).real.ravel()), np.arange(k * m)), (j, k, m)


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
            f = _index_grid(k, m)
            for j in range(4):
                want = loop_r_permutation(j % 2, k, m)
                chopped = r_apply(f, j)
                assert chopped.flags.c_contiguous and np.array_equal(chopped, want), (j, k, m)
                chopped[:] = -1
                assert np.array_equal(r_apply(f, j), want)


def _chop_both_ways(f):
    """Every chop of f, each put back by its inverse where r_inverse accepts j; nothing made here outlives the call."""
    q_inverse(q_apply(f))
    for j in (1, 2):
        comps = r_apply(f, j)
        if j % 2 or f.k % 2:
            r_inverse(comps, j)


def test_chops_keep_no_memory_per_grid():
    """Chopping 40 grids of about 32k points each leaves nothing allocated behind."""
    grids = [(k, 32768 // k + d) for k in range(1, 9) for d in range(5)]
    tracemalloc.start()
    try:
        for k, m in grids:
            _chop_both_ways(GridFunction.zeros(k, m))
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 1_000_000


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
    assert GridFunction(np.int64(2), np.int32(2), np.ones(4)).values.shape == (4,)  # numpy integers are integers


# a grid shape is two integers >= 1: a float or a bool is refused by every grid builder
_GRID_BUILDERS = {
    "GridFunction": lambda k, m: GridFunction(k, m, np.ones(4)),
    "GridFunction.zeros": GridFunction.zeros,
    "grid_midpoints": grid_midpoints,
    "extract_w": lambda k, m: extract_w(Spectrum(0, 0, (1 + 0j,)), 1, k, m),
}


@pytest.mark.parametrize("k, m", [(2.0, 2), (2, 2.0), (2.5, 2), (True, 4), (4, True)])
@pytest.mark.parametrize("name", list(_GRID_BUILDERS))
def test_a_grid_shape_that_is_not_an_integer_is_refused(name, k, m):
    with pytest.raises(ValueError, match=re.escape(f"a grid needs k >= 1 and m >= 1, got k={k}, m={m}")):
        _GRID_BUILDERS[name](k, m)


@pytest.mark.parametrize("k, m", [(3, 10**11), (3, 10**19), (10**30, 4)], ids=["memory", "index", "index-k"])
def test_a_grid_too_large_to_allocate_is_named(k, m):
    # 3e11 points exceed the memory; past the index range numpy refuses the size itself.  subinterval_midpoints
    # allocates m of the k*m points, so it meets the same refusal only at a huge m
    for make in (GridFunction.zeros, grid_midpoints) + (subinterval_midpoints,) * (m > k):
        with pytest.raises(ValueError, match=f"^a grid with k={k}, m={m} has {k * m} points, too many to allocate$"):
            make(k, m)


def oracle_write_csv(f, path):
    """The grid-CSV writer row by row: one f-string of float reprs per row."""
    with open(path, "w") as fh:
        fh.write(f"# k={f.k} m={f.m}\n")
        for xi, v in zip(f.midpoints(), f.values):
            fh.write(f"{float(xi)!r},{float(v.real)!r},{float(v.imag)!r}\n")


def oracle_read_values(path):
    """The samples of a well-formed grid or profile CSV, parsed line by line with float()."""
    with open(path) as fh:
        fh.readline()
        vals = []
        for line in fh:
            if line.strip():
                _, real, imag = line.strip().split(",")
                vals.append(float(real) + 1j * float(imag))
    return np.array(vals, dtype=complex)


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-5, 1e16, 1e308, -1e308]


def _edge_grid(k, m, seed):
    """Random samples with every edge value in both parts, at random rows."""
    rng = np.random.default_rng(seed)
    n = k * m
    re, im = rng.normal(size=n) * 10.0 ** rng.integers(-8, 9, size=n), rng.normal(size=n)
    for part in (re, im):
        rows = rng.choice(n, size=min(n, 4 * len(EDGE_VALUES)), replace=False)
        part[rows] = np.resize(EDGE_VALUES, len(rows))
    values = np.empty(n, dtype=complex)
    values.real, values.imag = re, im
    return GridFunction(k, m, values)


@pytest.mark.parametrize("k, m", [(1, CSV_CHUNK - 1), (1, CSV_CHUNK), (1, CSV_CHUNK + 1), (7, CSV_CHUNK), (3, 5)])
def test_csv_io_matches_the_row_by_row_oracles(k, m, tmp_path):
    f = _edge_grid(k, m, seed=k * m)
    path, oracle_path = tmp_path / "grid.csv", tmp_path / "oracle.csv"
    write_csv(f, path)
    oracle_write_csv(f, oracle_path)
    assert path.read_bytes() == oracle_path.read_bytes()
    g = read_csv(path)
    assert (g.k, g.m) == (k, m)
    assert g.values.tobytes() == oracle_read_values(path).tobytes()
    # a profile file of one subinterval: the first m rows, same values
    profile = tmp_path / "profile.csv"
    profile.write_text("".join(path.read_text().splitlines(keepends=True)[: m + 1]))
    vals, fk = read_profile_csv(profile)
    assert fk == k and vals.tobytes() == oracle_read_values(profile).tobytes()
    # two functions on one grid share the x column, and each file is its own oracle's
    g = _edge_grid(k, m, seed=k * m + 1)
    pair = tmp_path / "f.csv", tmp_path / "g.csv"
    write_csv(f, pair[0], (g, pair[1]))
    assert pair[0].read_bytes() == oracle_path.read_bytes()
    oracle_write_csv(g, oracle_path)
    assert pair[1].read_bytes() == oracle_path.read_bytes()


def test_csv_write_rejects_a_second_grid_before_opening_a_file(tmp_path):
    f, g = _random_grid(3, 5, seed=1), _random_grid(5, 3, seed=2)
    with pytest.raises(ValueError, match=r"grid mismatch: \(3,5\) vs \(5,3\)"):
        write_csv(f, tmp_path / "f.csv", (f, tmp_path / "f2.csv"), (g, tmp_path / "g.csv"))
    assert list(tmp_path.iterdir()) == []


def test_csv_read_falls_back_to_float_per_row(tmp_path):
    """A chunk the C parser refuses is read row by row: float() accepts '1_0', and a bad row is named."""
    n = CSV_CHUNK + 10
    x = grid_midpoints(1, n).tolist()
    lines = [f"{xi!r},{i}.5,-{i}\n" for i, xi in enumerate(x)]
    path = tmp_path / "grid.csv"
    lines[CSV_CHUNK + 3] = f"{x[CSV_CHUNK + 3]!r},1_0,2\n"
    path.write_text(f"# k=1 m={n}\n" + "".join(lines))
    values = read_csv(path).values
    assert values.tobytes() == oracle_read_values(path).tobytes() and values[CSV_CHUNK + 3] == 10 + 2j
    for bad, row in (("\n", CSV_CHUNK + 3), ("0.5,1,2,3\n", 2), ("0.5;1;2\n", CSV_CHUNK)):
        edited = list(lines)
        edited[row - 1] = bad
        path.write_text(f"# k=1 m={n}\n" + "".join(edited))
        with pytest.raises(ValueError, match=f"grid.csv: data row {row} is not x,re,im: {bad.strip()!r}"):
            read_csv(path)


def test_csv_checks_x_within_a_quarter_cell(tmp_path):
    path = tmp_path / "grid.csv"
    k, m = 3, 4
    h = 1 / (k * m)
    x = grid_midpoints(k, m).tolist()
    for shift, ok in ((0.24 * h, True), (-0.24 * h, True), (0.26 * h, False), (-0.26 * h, False)):
        rows = [f"{xi + (shift if i == 5 else 0.0)!r},1.0,0.0\n" for i, xi in enumerate(x)]
        path.write_text(f"# k={k} m={m}\n" + "".join(rows))
        if ok:
            assert np.array_equal(read_csv(path).values, np.ones(k * m))
        else:
            with pytest.raises(ValueError, match="data row 6 has x=.*, not within h/4 of its midpoint"):
                read_csv(path)
    rows = [f"{xi!r},1.0,0.0\n" for xi in x]
    rows[2] = "nan,1.0,0.0\n"
    path.write_text(f"# k={k} m={m}\n" + "".join(rows))
    with pytest.raises(ValueError, match="data row 3 has x=nan"):
        read_csv(path)
    # a profile's x are the midpoints of (0, 1/k), not those of (0, 1)
    path.write_text(f"# k={k} m={m}\n" + "".join(f"{xi!r},1.0,0.0\n" for xi in subinterval_midpoints(k, m).tolist()))
    assert read_profile_csv(path)[1] == k
    path.write_text(f"# k={k} m={m}\n" + "".join(f"{xi!r},1.0,0.0\n" for xi in x[::-1][:m]))
    with pytest.raises(ValueError, match="data row 1 has x="):
        read_profile_csv(path)


def test_csv_errors_keep_their_order(tmp_path):
    """Row shape before row count before trailing data before non-finite values before x."""
    path = tmp_path / "grid.csv"
    cases = [
        ("# k=1 m=3\n0.9,1,2\nbad\n", "data row 2 is not x,re,im"),
        ("# k=1 m=3\n0.9,nan,2\n0.9,1,2\n", "expected 3 rows, got 2"),
        ("# k=1 m=2\n0.9,nan,2\n0.9,1,2\n0.9,1,2\n", "data past the 2 rows"),
        ("# k=1 m=2\n0.9,1,2\n0.9,1,inf\n", "data row 2 holds a non-finite value"),
        ("# k=1 m=2\n0.25,1,2\n0.5,1,2\n", "data row 2 has x=0.5"),
    ]
    for text, message in cases:
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_csv(path)


def test_csv_header_with_missing_rows_allocates_nothing_for_them(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text(f"# k=1 m={10**15}\n" + "".join(f"{(i + 0.5) / 10!r},1.0,0.0\n" for i in range(10)))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"expected {10**15} rows, got 10"):
            read_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
