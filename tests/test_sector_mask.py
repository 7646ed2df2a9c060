"""Property tests: sector_mask equals the explicit sum_{m,n} c_mn P_m X P_n."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from declab.superselection import block_diagonal_sectors, sector_mask  # noqa: E402
from test_superselection import random_sectors  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=60, deadline=None)


def double_loop(x, s, c):
    out = np.zeros_like(x)
    for m, pm in enumerate(s.projectors):
        for n, pn in enumerate(s.projectors):
            out += c[m, n] * (pm @ x @ pn)
    return out


def complex_matrix(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


@SETTINGS
@hypothesis.given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 12), data=st.data())
def test_mask_matches_double_loop_on_rotated_sectors(seed, dim, data):
    k = data.draw(st.integers(1, dim), label="sectors")
    rng = np.random.default_rng(seed)
    s = random_sectors(dim, k, rng)
    x = complex_matrix(rng, dim, dim)
    c = complex_matrix(rng, k, k)
    assert np.abs(sector_mask(x, s, c) - double_loop(x, s, c)).max() < 1e-12


@SETTINGS
@hypothesis.given(seed=st.integers(0, 2**32 - 1),
                  sizes=st.lists(st.integers(1, 30), min_size=1, max_size=5))
def test_mask_is_exact_on_block_diagonal_sectors(seed, sizes):
    rng = np.random.default_rng(seed)
    s = block_diagonal_sectors(sizes)
    x = complex_matrix(rng, s.dim, s.dim)
    c = complex_matrix(rng, len(sizes), len(sizes))
    c = c + c.conj().T
    assert s.frame is None  # identity frame: mask applied to x directly
    assert np.array_equal(sector_mask(x, s, c), double_loop(x, s, c))
