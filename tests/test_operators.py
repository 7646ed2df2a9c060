import numpy as np
import pytest
import scipy.linalg

from declab import (
    DimensionMismatch,
    NotHermitian,
    hermitian_eig,
    partial_trace_env,
    propagator,
    propagators,
    schatten_norms,
    tensor_product,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return m + m.conj().T


def test_eig_diagonal():
    vals, vecs = hermitian_eig(np.diag([1.0, 2.0]))
    assert np.allclose(vals, [2.0, 1.0])
    assert np.allclose(vecs, [[0, 1], [1, 0]])


def test_eig_pauli_x_spectrum():
    vals, _ = hermitian_eig(SX)
    assert np.allclose(vals, [1.0, -1.0])


def test_eig_reconstruction_random_8x8():
    rng = np.random.default_rng(1)
    m = random_hermitian(8, rng)
    vals, vecs = hermitian_eig(m)
    rec = (vecs * vals) @ vecs.conj().T
    assert np.linalg.norm(rec - m) < 1e-12 * np.linalg.norm(m)


@pytest.mark.parametrize("dim", [2, 3, 5, 17, 64])
def test_eig_reconstruction_dims(dim):
    rng = np.random.default_rng(dim)
    m = random_hermitian(dim, rng)
    vals, vecs = hermitian_eig(m)
    rec = (vecs * vals) @ vecs.conj().T
    assert np.linalg.norm(rec - m) < 1e-12 * np.linalg.norm(m)
    assert np.all(np.diff(vals) <= 0)
    assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(dim)) < 1e-12


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_degenerate_ordering_is_canonical():
    # Fully degenerate spectrum: ordering falls back to the first-component
    # rule, which reproduces the standard basis in index order.
    vals, vecs = hermitian_eig(np.eye(3))
    assert np.allclose(vals, 1.0)
    assert np.allclose(vecs, np.eye(3))


def test_eig_deterministic_repeat():
    rng = np.random.default_rng(3)
    base = random_hermitian(6, rng)
    # Degenerate pair embedded in a random frame.
    u, _ = np.linalg.qr(base)
    m = u @ np.diag([2.0, 1.0, 1.0, 1.0, 0.5, 0.1]) @ u.conj().T
    first = hermitian_eig(m)
    second = hermitian_eig(m.copy())
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)
    rec = (first.eigenvectors * first.eigenvalues) @ first.eigenvectors.conj().T
    assert np.linalg.norm(rec - m) < 1e-12 * np.linalg.norm(m)


def test_propagator_zero_time_is_identity():
    rng = np.random.default_rng(4)
    h = random_hermitian(5, rng)
    assert np.allclose(propagator(h, 0.0), np.eye(5), atol=1e-14)


def test_propagator_pauli_z():
    u = propagator(SZ, np.pi / 2)
    assert np.allclose(u, np.diag([-1j, 1j]), atol=1e-14)


def test_propagator_unitary():
    rng = np.random.default_rng(5)
    h = random_hermitian(9, rng)
    u = propagator(h, 1.3)
    assert np.linalg.norm(u.conj().T @ u - np.eye(9)) < 1e-12


def test_propagator_group_property():
    rng = np.random.default_rng(6)
    for _ in range(10):
        h = random_hermitian(4, rng)
        t, s = rng.uniform(-2, 2, size=2)
        lhs = propagator(h, t) @ propagator(h, s)
        assert np.linalg.norm(lhs - propagator(h, t + s)) < 1e-11


def test_propagator_matches_scipy_expm():
    rng = np.random.default_rng(7)
    h = random_hermitian(6, rng)
    assert np.linalg.norm(propagator(h, 0.77) - scipy.linalg.expm(-1j * 0.77 * h)) < 1e-11


def test_propagator_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        propagator(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_propagator_rejects_non_finite_time(t):
    with pytest.raises(ValueError, match="t must be finite"):
        propagator(SZ, t)


def test_propagator_sees_in_place_change():
    rng = np.random.default_rng(14)
    h = random_hermitian(6, rng)
    before = propagator(h, 0.9)
    h[2, 2] += 0.5
    after = propagator(h, 0.9)
    assert np.linalg.norm(after - before) > 1e-3
    assert np.linalg.norm(after - scipy.linalg.expm(-0.9j * h)) < 1e-11


# --- block-by-block diagonalisation


def count_eigh(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def permuted_direct_sum(sizes, rng):
    """Direct sum of random Hermitian blocks with interleaved indices."""
    h = scipy.linalg.block_diag(*(random_hermitian(d, rng) for d in sizes))
    perm = rng.permutation(h.shape[0])
    return h[np.ix_(perm, perm)]


def test_propagator_on_permuted_direct_sum_batches_blocks_by_size(monkeypatch):
    rng = np.random.default_rng(17)
    h = permuted_direct_sum([1, 2, 3, 5, 2, 3, 1, 5], rng)
    calls = count_eigh(monkeypatch)
    u = propagator(h, 0.8)
    assert np.linalg.norm(u - scipy.linalg.expm(-0.8j * h)) < 1e-12
    # One batched eigh per distinct block size, each over all blocks of that size.
    assert sorted(calls) == [(2, 1, 1), (2, 2, 2), (2, 3, 3), (2, 5, 5)]


def test_propagator_diagonal_and_zero_matrices(monkeypatch):
    calls = count_eigh(monkeypatch)
    d = np.diag([0.5, -1.0, 2.0, 0.0, 3.5])
    assert np.linalg.norm(propagator(d, 1.1) - scipy.linalg.expm(-1.1j * d)) < 1e-14
    assert calls == [(5, 1, 1)]
    zero = np.zeros((6, 6))
    assert np.array_equal(propagator(zero, 2.0), scipy.linalg.expm(-2.0j * zero))
    assert calls == [(5, 1, 1), (6, 1, 1)]


def test_propagator_dense_irreducible_matrix_costs_one_eigh(monkeypatch):
    rng = np.random.default_rng(18)
    h = random_hermitian(16, rng)
    calls = count_eigh(monkeypatch)
    u = propagator(h, -0.6)
    assert np.linalg.norm(u - scipy.linalg.expm(0.6j * h)) < 1e-11
    assert len(calls) == 1 and calls[0][-2:] == (16, 16)


def test_propagator_blocks_follow_exact_zeros_only(monkeypatch):
    # A coupling far below any tolerance still joins two blocks into one.
    rng = np.random.default_rng(19)
    h = scipy.linalg.block_diag(random_hermitian(3, rng), random_hermitian(3, rng))
    h[0, 5] = h[5, 0] = 1e-300
    calls = count_eigh(monkeypatch)
    propagator(h, 1.0)
    assert len(calls) == 1 and calls[0][-2:] == (6, 6)


# --- time grids: one eigendecomposition per grid


@pytest.mark.parametrize("kind", ["dense", "direct_sum"])
def test_propagators_diagonalise_once_per_grid(monkeypatch, kind):
    rng = np.random.default_rng(20)
    if kind == "dense":
        h, sizes = random_hermitian(12, rng), [(1, 12, 12)]
    else:
        h = permuted_direct_sum([1, 2, 3, 5, 3], rng)
        sizes = [(1, 1, 1), (1, 2, 2), (1, 5, 5), (2, 3, 3)]
    ts = np.linspace(-3.0, 4.0, 24)
    calls = count_eigh(monkeypatch)
    grid = propagators(h, ts)
    assert sorted(calls) == sizes  # at the call, before the first matrix
    unitaries = list(grid)
    assert sorted(calls) == sizes
    assert len(unitaries) == ts.size
    for t, u in zip(ts, unitaries):
        assert np.array_equal(u, propagator(h, t))
        assert np.linalg.norm(u - scipy.linalg.expm(-1j * t * h)) < 1e-11


@pytest.mark.parametrize("h, ts, error", [
    (np.ones((2, 3)), [0.0, 1.0], DimensionMismatch),
    (SZ, [0.0, np.nan], ValueError),
    (SZ, [np.inf], ValueError),
    (SZ, [], ValueError),
    (SX + 1j * SZ, [1.0], NotHermitian),
], ids=["not_square", "nan", "inf", "empty", "not_hermitian"])
def test_propagators_reject_bad_input_at_the_call(h, ts, error):
    with pytest.raises(error):
        propagators(h, ts)


def test_schatten_diagonal():
    assert schatten_norms(np.diag([3.0, -4.0])) == pytest.approx((4.0, 5.0, 7.0))


def test_schatten_rank_one_projector():
    v = np.array([1.0, 1j]) / np.sqrt(2)
    norms = schatten_norms(np.outer(v, v.conj()))
    assert norms.op == pytest.approx(1.0)
    assert norms.hs == pytest.approx(1.0)
    assert norms.trace == pytest.approx(1.0)


def test_schatten_ordering_random():
    rng = np.random.default_rng(8)
    m = random_hermitian(16, rng)
    op, hs, tr = schatten_norms(m)
    assert op <= hs + 1e-12 and hs <= tr + 1e-12


def test_schatten_rejects_non_finite():
    with pytest.raises(ValueError):
        schatten_norms(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_tensor_identities():
    assert np.array_equal(tensor_product(np.eye(2), np.eye(3)), np.eye(6))
    out = tensor_product(SZ, np.diag([2.0, 3.0]))
    assert np.allclose(out, np.diag([2.0, 3.0, -2.0, -3.0]))


def test_tensor_mixed_product_identity():
    rng = np.random.default_rng(9)
    a, b, c, d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(4))
    lhs = tensor_product(a, b) @ tensor_product(c, d)
    rhs = tensor_product(a @ c, b @ d)
    assert np.abs(lhs - rhs).max() < 1e-13


def test_partial_trace_factorized():
    rng = np.random.default_rng(10)
    rho = random_hermitian(3, rng)
    omega = random_hermitian(4, rng)
    omega = omega @ omega.conj().T
    omega /= np.trace(omega)
    assert np.allclose(partial_trace_env(tensor_product(rho, omega), 3, 4), rho, atol=1e-12)


def test_partial_trace_maximally_entangled():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    rho = partial_trace_env(np.outer(psi, psi.conj()), 2, 2)
    assert np.allclose(rho, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_defining_property():
    rng = np.random.default_rng(11)
    w = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    reduced = partial_trace_env(w, 3, 4)
    for _ in range(10):
        a = random_hermitian(3, rng)
        lhs = np.trace(reduced @ a)
        rhs = np.trace(w @ tensor_product(a, np.eye(4)))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(12)
    w = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    assert abs(np.trace(partial_trace_env(w, 2, 5)) - np.trace(w)) < 1e-12


def test_partial_trace_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        partial_trace_env(np.eye(6), 2, 2)
