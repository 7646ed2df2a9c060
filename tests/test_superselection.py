import numpy as np
import pytest

from declab import (
    DimensionMismatch,
    InsufficientData,
    NonDecaying,
    NotComplete,
    NotIdempotent,
    NotOrthogonal,
    SectorStructure,
    bloch_to_density,
    block_diagonal_sectors,
    coherence_norms,
    fit_power_law_decay,
    in_sector_frame,
    off_diagonal_norms,
    random_density,
    schatten_norms,
    sector_probabilities,
    sector_project,
)
from declab.superselection import _envelope_indices, default_fit_window

Z_SECTORS = SectorStructure([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


def random_sectors(dim, n_sectors, rng):
    """Random orthonormal frame chopped into n_sectors blocks."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)
    splits = np.sort(rng.choice(np.arange(1, dim), size=n_sectors - 1, replace=False))
    projectors = []
    for lo, hi in zip(np.r_[0, splits], np.r_[splits, dim]):
        block = q[:, lo:hi]
        projectors.append(block @ block.conj().T)
    return SectorStructure(projectors)


# --- validation, when a structure is made


def test_validate_accepts_z_sectors():
    assert Z_SECTORS.dim == 2 and len(Z_SECTORS) == 2
    assert np.array_equal(Z_SECTORS.index, [0, 1])


def test_validate_rejects_duplicate_projector():
    with pytest.raises(NotOrthogonal) as err:
        SectorStructure([np.diag([1.0, 0.0]), np.diag([1.0, 0.0])])
    assert err.value.pair == (0, 1)


@pytest.mark.parametrize("diagonals, pair", [([[1, 0, 0], [0, 1, 0], [0, 1, 1]], (1, 2)),
                                             ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 1, 0, 0],
                                               [1, 0, 1, 1]], (0, 3))],
                         ids=["last_pair", "row_before_column"])
def test_validate_names_the_first_overlapping_pair(diagonals, pair):
    with pytest.raises(NotOrthogonal) as err:
        SectorStructure([np.diag(np.array(d, dtype=float)) for d in diagonals])
    assert err.value.pair == pair


def test_validate_rejects_incomplete_family():
    with pytest.raises(NotComplete):
        SectorStructure([np.diag([1.0, 0.0])])


def test_validate_rejects_non_idempotent():
    with pytest.raises(NotIdempotent) as err:
        SectorStructure([np.diag([0.5, 0.0]), np.diag([0.5, 1.0])])
    assert err.value.index == 0


def test_validate_rejects_non_hermitian_projector():
    p = np.array([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotIdempotent) as err:
        SectorStructure([p, np.eye(2) - p])
    assert err.value.index == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validate_names_a_projector_with_non_finite_entries(bad):
    with pytest.raises(NotIdempotent, match="projector 1 has non-finite entries") as err:
        SectorStructure([np.diag([1.0, 0.0]), np.diag([bad, 1.0])])
    assert err.value.index == 1


def test_block_diagonal_sectors_are_valid():
    s = block_diagonal_sectors([2, 3, 1])
    assert s.dim == 6 and len(s) == 3 and s.frame is None
    assert np.array_equal(s.index, [0, 0, 1, 1, 1, 2])


@pytest.mark.parametrize("make, message", [
    (lambda: block_diagonal_sectors([2.5, 1]), "block 0"),
    (lambda: block_diagonal_sectors([2, -1]), "block 1"),
    (lambda: block_diagonal_sectors([0]), "positive total dimension"),
    (lambda: block_diagonal_sectors([]), "positive total dimension"),
    (lambda: SectorStructure([np.zeros((0, 0))]), "dimension >= 1"),
    (lambda: SectorStructure([]), "at least one projector"),
], ids=["fractional", "negative", "zero", "empty", "zero_matrix", "no_projector"])
def test_sector_structures_reject_bad_sizes(make, message):
    with pytest.raises(DimensionMismatch, match=message):
        make()


# --- projection channel


def test_project_fixes_block_diagonal_states():
    rho = bloch_to_density([0, 0, 0.7])
    out = sector_project(rho, Z_SECTORS)
    assert np.allclose(out.matrix, rho.matrix, atol=1e-14)


def test_project_kills_coherences():
    out = sector_project(bloch_to_density([1, 0, 0]), Z_SECTORS)
    assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-14)


def test_project_output_commutes_with_projectors():
    rng = np.random.default_rng(20)
    w = random_density(4, rng)
    s = random_sectors(4, 2, rng)
    out = sector_project(w, s)
    for p in s.projectors:
        assert np.linalg.norm(out.matrix @ p - p @ out.matrix) < 1e-12


def test_project_channel_properties():
    rng = np.random.default_rng(21)
    for _ in range(20):
        dim = rng.integers(3, 9)
        w = random_density(dim, rng)
        s = random_sectors(dim, 2, rng)
        once = sector_project(w, s)
        twice = sector_project(once, s)
        assert np.abs(once.matrix - twice.matrix).max() < 1e-12
        assert abs(np.trace(once.matrix) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(once.matrix)[0] >= -1e-10


def test_project_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        sector_project(random_density(3, np.random.default_rng(0)), Z_SECTORS)


# --- off-diagonal norms


def test_offdiag_zero_for_compatible_state():
    hs, tr = off_diagonal_norms(bloch_to_density([0, 0, 0.4]), Z_SECTORS)
    assert hs == pytest.approx(0.0, abs=1e-14)
    assert tr == pytest.approx(0.0, abs=1e-14)


def test_offdiag_x_state():
    hs, tr = off_diagonal_norms(bloch_to_density([1, 0, 0]), Z_SECTORS)
    assert hs == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert tr == pytest.approx(1.0, abs=1e-12)


def test_offdiag_pythagoras_over_blocks():
    rng = np.random.default_rng(22)
    w = random_density(6, rng)
    s = random_sectors(6, 3, rng)
    hs, tr = off_diagonal_norms(w, s)
    blocks = 0.0
    for m, pm in enumerate(s.projectors):
        for n, pn in enumerate(s.projectors):
            if m != n:
                blocks += np.linalg.norm(pm @ w.matrix @ pn) ** 2
    assert abs(hs - np.sqrt(blocks)) < 1e-12
    assert hs <= tr + 1e-12


def test_offdiag_vanishes_after_projection():
    rng = np.random.default_rng(23)
    w = random_density(5, rng)
    s = random_sectors(5, 2, rng)
    hs, tr = off_diagonal_norms(sector_project(w, s), s)
    assert hs < 1e-12 and tr < 1e-12


@pytest.mark.parametrize("make", [lambda rng: block_diagonal_sectors([2, 3, 1]),
                                  lambda rng: random_sectors(6, 3, rng)],
                         ids=["blocks", "rotated"])
def test_coherence_norms_of_a_stack_match_the_svd(make):
    rng = np.random.default_rng(26)
    s = make(rng)
    g = rng.standard_normal((5, 6, 6)) + 1j * rng.standard_normal((5, 6, 6))
    stack = [in_sector_frame(m + m.conj().T, s) for m in g]
    hs, tr = coherence_norms(np.array(stack), s)
    assert hs.shape == tr.shape == (5,)
    frame = np.eye(6) if s.frame is None else s.frame
    for x, hs_i, tr_i in zip(stack, hs, tr):
        w = frame @ x @ frame.conj().T
        expected = schatten_norms(w - sum(p @ w @ p for p in s.projectors))
        assert abs(hs_i - expected.hs) < 1e-13 and abs(tr_i - expected.trace) < 1e-13


@pytest.mark.parametrize("shape", [(2, 1), (1, 2), (2,), (3, 3), (4, 2, 3)])
def test_coherence_norms_reject_a_stack_of_the_wrong_shape(shape):
    with pytest.raises(DimensionMismatch):
        coherence_norms(np.ones(shape), Z_SECTORS)


# --- sector probabilities


def test_probabilities_maximally_mixed():
    probs = sector_probabilities(bloch_to_density([0, 0, 0]), Z_SECTORS)
    assert np.allclose(probs, [0.5, 0.5])


def test_probabilities_pure_north():
    probs = sector_probabilities(bloch_to_density([0, 0, 1]), Z_SECTORS)
    assert np.allclose(probs, [1.0, 0.0], atol=1e-14)


def test_probabilities_invariant_under_projection():
    rng = np.random.default_rng(24)
    w = random_density(6, rng)
    s = random_sectors(6, 3, rng)
    before = sector_probabilities(w, s)
    after = sector_probabilities(sector_project(w, s), s)
    assert np.abs(before - after).max() < 1e-12
    assert before.min() >= -1e-12
    assert abs(before.sum() - 1.0) < 1e-10


# --- power-law envelope fit


def test_fit_recovers_synthetic_power_law():
    t = np.linspace(0.0, 40.0, 400)
    samples = np.column_stack([t, (1.0 + t) ** -3])
    fit = fit_power_law_decay(samples, delta=1.0)
    assert fit.gamma == pytest.approx(3.0, abs=0.05)
    assert fit.C == pytest.approx(1.0, abs=0.05)
    assert not fit.superpolynomial


def test_fit_sinc_envelope_exponent():
    t = np.arange(0.5, 100.0, 0.05)
    samples = np.column_stack([t, np.abs(np.sin(t) / t)])
    fit = fit_power_law_decay(samples, delta=1.0, window=(10.0, 100.0))
    assert fit.gamma == pytest.approx(1.0, abs=0.1)


def test_fit_bound_dominates_window():
    t = np.arange(0.5, 60.0, 0.05)
    values = np.abs(np.sin(t) / t)
    fit = fit_power_law_decay(np.column_stack([t, values]), delta=1.0)
    lo, hi = fit.window
    inside = (t >= lo) & (t <= hi)
    assert np.all(fit.bound(t[inside]) >= values[inside] - 1e-15)


def test_fit_rejects_constant_series():
    t = np.linspace(0.0, 10.0, 50)
    with pytest.raises(NonDecaying):
        fit_power_law_decay(np.column_stack([t, np.ones_like(t)]), delta=1.0)


@pytest.mark.parametrize("direction", [-1, 1], ids=["falling", "rising"])
def test_fit_rejects_series_flat_to_round_off(direction):
    # A constant distance carrying +-3 ulp of noise: the regression slope is
    # then the sign of that noise, and a falling trend in it is no decay.
    t = np.linspace(0.0, 10.0, 50)
    ulps = direction * np.round(np.linspace(-3.0, 3.0, t.size))
    ulps += np.random.default_rng(5).integers(-1, 2, t.size)
    values = 0.3 + ulps * np.spacing(0.3)
    assert np.ptp(values) > 0.0
    with pytest.raises(NonDecaying, match="not negative"):
        fit_power_law_decay(np.column_stack([t, values]), delta=1.0)
    # A slow decay far above round-off is still fitted.
    fit = fit_power_law_decay(np.column_stack([t, 0.3 * (1.0 + t) ** -1e-6]), delta=1.0)
    assert fit.gamma == pytest.approx(1e-6, rel=1e-6)


def test_fit_rejects_growing_series():
    t = np.linspace(0.0, 10.0, 50)
    with pytest.raises(NonDecaying):
        fit_power_law_decay(np.column_stack([t, 1.0 + t]), delta=1.0)


def test_fit_insufficient_data():
    t = np.linspace(0.0, 10.0, 6)
    with pytest.raises(InsufficientData):
        fit_power_law_decay(np.column_stack([t, (1.0 + t) ** -2]), delta=1.0)


def test_fit_flags_superpolynomial_decay():
    t = np.linspace(0.0, 8.0, 300)
    samples = np.column_stack([t, np.exp(-(t**2))])
    fit = fit_power_law_decay(samples, delta=1.0, window=(2.0, 8.0))
    assert fit.gamma > 20
    assert fit.superpolynomial


def test_fit_window_default_is_tail_half():
    t = np.linspace(0.0, 20.0, 100)
    fit = fit_power_law_decay(np.column_stack([t, (1.0 + t) ** -2]), delta=1.0)
    assert fit.window == default_fit_window(t) == (10.0, 20.0)


def test_fit_delta_is_honored():
    t = np.linspace(0.0, 30.0, 300)
    delta = 2.5
    samples = np.column_stack([t, (1.0 + delta * t) ** -4])
    fit = fit_power_law_decay(samples, delta=delta)
    assert fit.gamma == pytest.approx(4.0, abs=0.05)
    assert fit.delta == delta


@pytest.mark.parametrize("delta", [0.0, -1.0, np.nan, np.inf])
def test_fit_rejects_a_delta_that_is_not_positive_and_finite(delta):
    t = np.linspace(0.0, 30.0, 300)
    samples = np.column_stack([t, (1.0 + t) ** -4])
    with pytest.raises(ValueError, match="delta must be positive and finite"):
        fit_power_law_decay(samples, delta=delta)


@pytest.mark.parametrize("values", [lambda t: (1.0 + t) ** -2 * (1.0 + 0.2 / (1.0 + t)),
                                    lambda t: np.abs(np.sin(t) / t)], ids=["monotone", "sinc"])
def test_fit_regression_matches_polyfit(values):
    # The closed-form fit gives np.polyfit's line through the envelope points.
    t = np.arange(0.5, 60.0, 0.05)
    v = values(t)
    fit = fit_power_law_decay(np.column_stack([t, v]), delta=0.7, window=(10.0, 60.0))
    inside = (t >= 10.0) & (t <= 60.0)
    env = _envelope_indices(v[inside])
    x, y = np.log1p(0.7 * t[inside][env]), np.log(v[inside][env])
    slope, intercept = np.polyfit(x, y, 1)
    assert fit.gamma == pytest.approx(-slope, rel=1e-12)
    residual = np.sqrt(np.mean((y - (slope * x + intercept)) ** 2))
    assert fit.residual == pytest.approx(residual, rel=1e-12)
    assert fit.C >= np.exp(intercept) * (1.0 - 1e-12)


@pytest.mark.filterwarnings("error")
def test_fit_prefactor_past_the_double_range_is_insufficient_data():
    # A gaussian envelope read as a power law: gamma is about 731, and the C
    # that dominates the window is exp(2064.68), past the largest double.
    t = np.linspace(0.0, 36.0, 361)
    with pytest.raises(InsufficientData,
                       match=r"C = exp\(2064\.68\) .* window \[18, 36\] is not a finite double"):
        fit_power_law_decay(np.column_stack([t, np.exp(-t**2 / 2.0)]), delta=1.0,
                            window=(18.0, 36.0))


def test_fit_at_subnormal_scales_prints_nothing(capfd):
    # log(1 + delta t) at t <= 3.6e-201, or with a subnormal delta, squares to
    # 0, where np.polyfit's LAPACK call writes to stdout and raises LinAlgError.
    t = np.linspace(0.0, 3.6e-201, 25)
    fit = fit_power_law_decay(np.column_stack([t, 1e-100 * (1.0 + 1e201 * t) ** -2]), delta=1.0)
    assert 0.0 < fit.gamma < np.inf and fit.superpolynomial
    t = np.linspace(2.0, 14.0, 25)
    with pytest.raises(NonDecaying, match=r"slope -inf in window \[8, 14\] is not finite"):
        fit_power_law_decay(np.column_stack([t, (1.0 + t) ** -2]), delta=5e-324)
    with pytest.raises(InsufficientData, match=r"no finite range .* window \[8, 14\]"):
        fit_power_law_decay(np.column_stack([t, (1.0 + t) ** -2]), delta=1e308)
    assert capfd.readouterr() == ("", "")
