import numpy as np
import pytest

from declab import (
    PAULI,
    DensityOperator,
    DimensionMismatch,
    NotAState,
    NotUnitary,
    OutsideBall,
    alternate_decomposition,
    bloch_to_density,
    haar_unitary,
    random_density,
    spectral_decomposition,
    trace_distance,
)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)


def random_ball_point(rng):
    p = rng.standard_normal(3)
    return p / np.linalg.norm(p) * rng.uniform(0, 1) ** (1 / 3)


# --- DensityOperator invariants


def test_density_operator_rejects_non_hermitian():
    with pytest.raises(NotAState):
        DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))


def test_density_operator_rejects_bad_trace():
    with pytest.raises(NotAState):
        DensityOperator(np.eye(2))


def test_density_operator_rejects_negative_eigenvalue():
    with pytest.raises(NotAState):
        DensityOperator(np.diag([1.5, -0.5]))


def test_density_operator_matrix_is_immutable():
    rho = DensityOperator(np.eye(2) / 2)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 9.0


# --- polarization ball


def test_bloch_origin_is_maximally_mixed():
    assert np.allclose(bloch_to_density([0, 0, 0]).matrix, np.eye(2) / 2)


def test_bloch_north_pole():
    assert np.allclose(bloch_to_density([0, 0, 1]).matrix, np.diag([1.0, 0.0]))


def test_bloch_x_axis():
    assert np.allclose(bloch_to_density([1, 0, 0]).matrix, np.full((2, 2), 0.5))


def test_bloch_rejects_outside_ball():
    with pytest.raises(OutsideBall):
        bloch_to_density([0.8, 0.8, 0.8])


def test_bloch_roundtrip_thousand_points():
    rng = np.random.default_rng(100)
    for _ in range(1000):
        p = random_ball_point(rng)
        back = np.array([np.trace(bloch_to_density(p).matrix @ s).real for s in PAULI])
        assert np.abs(back - p).max() < 1e-13


# --- trace distance


def test_trace_distance_antipodal_pure_states():
    d = trace_distance(bloch_to_density([0, 0, 1]), bloch_to_density([0, 0, -1]))
    assert d == pytest.approx(2.0, abs=1e-12)


def test_trace_distance_identical():
    rho = random_density(4, np.random.default_rng(101))
    assert trace_distance(rho, rho) == 0.0


def test_trace_distance_is_euclidean_on_the_ball():
    rng = np.random.default_rng(102)
    for _ in range(200):
        p1, p2 = random_ball_point(rng), random_ball_point(rng)
        d = trace_distance(bloch_to_density(p1), bloch_to_density(p2))
        assert abs(d - np.linalg.norm(p1 - p2)) < 1e-10


def test_trace_distance_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        trace_distance(random_density(2, np.random.default_rng(0)), random_density(3, np.random.default_rng(0)))


# --- spectral decomposition


def test_spectral_decomposition_diagonal():
    dec = spectral_decomposition(DensityOperator(np.diag([0.7, 0.3])))
    assert np.allclose(dec.weights, [0.7, 0.3])
    assert np.allclose(dec.projectors[0].matrix, np.diag([1.0, 0.0]))
    assert np.allclose(dec.projectors[1].matrix, np.diag([0.0, 1.0]))


def test_spectral_decomposition_pure_state():
    dec = spectral_decomposition(bloch_to_density([0, 1, 0]))
    assert dec.weights.size == 1
    assert dec.weights[0] == pytest.approx(1.0, abs=1e-12)


def test_spectral_decomposition_reconstructs():
    rng = np.random.default_rng(103)
    w = random_density(4, rng)
    dec = spectral_decomposition(w)
    assert np.linalg.norm(dec.reconstruct() - w.matrix) < 1e-12
    for proj in dec.projectors:
        second = np.linalg.eigvalsh(proj.matrix)[-2]
        assert abs(second) < 1e-10  # rank one


def test_spectral_decomposition_drops_null_weights():
    # Rank-two state in dimension 4: no zero-weight clutter in the output.
    w = random_density(4, np.random.default_rng(104), rank=2)
    dec = spectral_decomposition(w)
    assert dec.weights.size == 2
    assert np.linalg.norm(dec.reconstruct() - w.matrix) < 1e-12


# --- alternate decompositions


def test_alternate_with_identity_is_spectral():
    w = random_density(3, np.random.default_rng(105))
    spec = spectral_decomposition(w)
    alt = alternate_decomposition(w, np.eye(3))
    assert np.allclose(alt.weights, spec.weights, atol=1e-12)
    for pa, ps in zip(alt.projectors, spec.projectors):
        assert np.linalg.norm(pa.matrix - ps.matrix) < 1e-10


def test_alternate_hadamard_on_maximally_mixed():
    # Exact equal-weight split of I/2 along the x axis.
    alt = alternate_decomposition(DensityOperator(np.eye(2) / 2), HADAMARD)
    assert np.allclose(alt.weights, [0.5, 0.5], atol=1e-14)
    expected = [bloch_to_density([1, 0, 0]).matrix, bloch_to_density([-1, 0, 0]).matrix]
    assert np.allclose(alt.projectors[0].matrix, expected[0], atol=1e-14)
    assert np.allclose(alt.projectors[1].matrix, expected[1], atol=1e-14)


def test_alternate_random_unitary_reconstructs_but_differs():
    rng = np.random.default_rng(106)
    w = random_density(4, rng)
    u = haar_unitary(4, rng)
    alt = alternate_decomposition(w, u)
    spec = spectral_decomposition(w)
    assert np.linalg.norm(alt.reconstruct() - w.matrix) < 1e-12
    assert abs(alt.weights.sum() - 1.0) < 1e-10
    max_dist = max(
        min(np.linalg.norm(pa.matrix - ps.matrix) for ps in spec.projectors)
        for pa in alt.projectors
    )
    assert max_dist > 0.1


def test_alternate_rejects_non_unitary():
    w = random_density(2, np.random.default_rng(107))
    with pytest.raises(NotUnitary):
        alternate_decomposition(w, np.array([[1.0, 0.0], [1.0, 1.0]]))


@pytest.mark.parametrize("u", [np.array([[np.nan, 0.0], [0.0, 1.0]]), np.full((2, 2), np.inf)],
                         ids=["nan_entry", "all_inf"])
def test_alternate_rejects_a_non_finite_unitary(u):
    # A nan defect used to pass the unitarity check and return weights summing to 0.108.
    w = random_density(2, np.random.default_rng(107))
    with pytest.raises(NotUnitary):
        alternate_decomposition(w, u)


def test_alternate_needs_enough_rows():
    w = random_density(4, np.random.default_rng(108))
    with pytest.raises(DimensionMismatch):
        alternate_decomposition(w, haar_unitary(2, np.random.default_rng(0)))


# --- random helpers


def test_haar_unitary_is_unitary_and_seeded():
    u1 = haar_unitary(5, 42)
    u2 = haar_unitary(5, 42)
    assert np.array_equal(u1, u2)
    assert np.linalg.norm(u1.conj().T @ u1 - np.eye(5)) < 1e-12


def test_random_density_is_valid_and_seeded():
    r1 = random_density(6, 42)
    r2 = random_density(6, 42)
    assert np.array_equal(r1.matrix, r2.matrix)
    assert np.linalg.eigvalsh(r1.matrix)[0] > -1e-12
