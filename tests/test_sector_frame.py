"""Sector structures held as a frame and a column index, never as k dense projectors."""

import numpy as np
import pytest

from declab import (
    ArakiZurekModel,
    DensityOperator,
    NotOrthogonal,
    SectorStructure,
    SpectralDensity,
    az_evolve,
    block_diagonal_sectors,
    off_diagonal_norms,
    sector_probabilities,
)


def test_validated_rotated_family_rebuilds_its_projectors():
    rng = np.random.default_rng(46)
    q, _ = np.linalg.qr(rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7)))
    given = [q[:, lo:hi] @ q[:, lo:hi].conj().T for lo, hi in ((0, 2), (2, 3), (3, 7))]
    s = SectorStructure(given)
    assert s.dim == 7 and len(s) == 3
    for rebuilt, p in zip(s.projectors, given):
        assert np.abs(rebuilt - p).max() < 1e-12


def test_rotated_family_with_an_overlap_raises_when_made():
    rng = np.random.default_rng(47)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    given = [q[:, lo:hi] @ q[:, lo:hi].conj().T for lo, hi in ((0, 2), (2, 4), (3, 6))]
    with pytest.raises(NotOrthogonal) as err:
        SectorStructure(given)
    assert err.value.pair == (1, 2)


def test_many_unit_sectors_never_build_a_projector(monkeypatch):
    def forbidden(self):
        raise AssertionError("a dense per-sector projector was built")

    monkeypatch.setattr(SectorStructure, "projectors", property(forbidden))
    k, t = 1024, 0.3
    h = np.linspace(-1.0, 1.0, k)
    env = SpectralDensity.discrete([[-1.0, 0.5], [1.0, 0.5]])  # chi(v) = cos v
    model = ArakiZurekModel(block_diagonal_sectors([1] * k), np.arange(k, dtype=float),
                            np.diag(h), env, 1.0)
    rho_t = az_evolve(model, DensityOperator(np.full((k, k), 1.0 / k)), t)

    gap = np.subtract.outer(np.arange(k), np.arange(k))
    expected = np.cos(gap * t) * np.exp(-1j * np.subtract.outer(h, h) * t) / k
    assert np.abs(rho_t.matrix - expected).max() < 1e-12
    assert np.abs(sector_probabilities(rho_t, model.sectors) - 1.0 / k).max() < 1e-15
    norms = off_diagonal_norms(rho_t, model.sectors)
    off = expected - np.diag(np.diagonal(expected))
    assert norms.hs == pytest.approx(np.linalg.norm(off), abs=1e-12)
    assert norms.trace >= norms.hs
