import pytest

from frozen_spectra import GridFunction, IntPolynomial, identities

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


@pytest.mark.parametrize("block", list(BROKEN))
def test_a_broken_identity_fails_its_sweep_only(block, monkeypatch):
    name, fake = BROKEN[block]
    monkeypatch.setattr(identities, name, fake)
    failed = _failed()
    assert [b for b, labels in failed.items() if labels] == [block]


def test_match_multisets_sizes_and_distance():
    assert identities.match_multisets([1, 2j], [2j + 1e-3, 1]) == pytest.approx(1e-3)
    assert identities.match_multisets([1], [1, 1]) == float("inf")
