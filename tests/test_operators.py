import numpy as np
import pytest
import scipy.linalg

from declab import (
    DensityOperator,
    DimensionMismatch,
    NotAState,
    NotHermitian,
    PhaseOverflow,
    hermitian_eig,
    partial_trace_env,
    propagator,
    schatten_norms,
)
from declab.operators import hs_norm, require_hermitian

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


@pytest.mark.filterwarnings("error")
def test_hermitian_check_holds_for_entries_near_the_double_range():
    # The norms used to overflow, so inf > inf let any such matrix pass, and
    # (a + a^dagger) / 2 overflowed to inf.
    huge = np.array([[0.5, 1e308 + 1e308j], [1e308 - 1e308j, -1.7e308]])
    got = require_hermitian(huge)
    assert np.array_equal(got, huge)
    with pytest.raises(NotHermitian):
        require_hermitian(np.array([[1e308 + 1e308j, 0.0], [0.0, 1.0]]))
    with pytest.raises(NotHermitian):
        require_hermitian(np.array([[0.0, 1.7e308], [-1.7e308, 0.0]]))


def test_hermitian_check_tolerance_and_messages():
    # One relative tolerance, 1e-10 of the HS norm, for a matrix and for a state.
    h = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    h[0, 1] += 1e-12
    assert np.array_equal(require_hermitian(h), (h + h.conj().T) / 2)
    assert np.array_equal(DensityOperator(h).matrix, (h + h.conj().T) / 2)
    h[0, 1] += 1e-9
    with pytest.raises(NotHermitian, match=r"^matrix is not Hermitian within 1e-10 relative$"):
        require_hermitian(h)
    with pytest.raises(NotAState, match=r"^state matrix is not Hermitian within 1e-10 relative$"):
        DensityOperator(h)


def test_eig_degenerate_ordering_is_canonical():
    # Fully degenerate spectrum: ordering falls back to the first-component
    # rule, which reproduces the standard basis in index order.
    vals, vecs = hermitian_eig(np.eye(3))
    assert np.allclose(vals, 1.0)
    assert np.allclose(vecs, np.eye(3))


@pytest.mark.parametrize("frame", ["random", "permuted_basis"])
def test_eig_orders_each_degenerate_group_by_its_leading_components(frame):
    # Within a group: descending magnitude of the first significant component,
    # ties by that component's index, and that component real positive.
    rng = np.random.default_rng(21)
    spectrum = [3.0, 1.0, 1.0, 1.0, -2.0, -2.0, 0.5, 1.0 + 1e-12]
    if frame == "random":
        u, _ = np.linalg.qr(random_hermitian(8, rng))
    else:
        u = np.eye(8)[:, rng.permutation(8)]
    vals, vecs = hermitian_eig(u @ np.diag(spectrum) @ u.conj().T)
    assert np.all(np.diff(vals) <= 0)
    mags = np.abs(vecs)
    first = np.argmax(mags > 1e-8 * mags.max(axis=0), axis=0)
    lead = vecs[first, np.arange(8)]
    assert np.all(lead.real > 0) and np.abs(lead.imag).max() < 1e-15
    groups = [slice(0, 1), slice(1, 5), slice(5, 6), slice(6, 8)]
    assert [np.ptp(vals[g]) < 1e-9 for g in groups] == [True] * 4
    for g in groups:
        keys = list(zip(-np.abs(lead[g]), first[g]))
        assert keys == sorted(keys)


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


@pytest.mark.parametrize("h, t, error", [
    (np.ones((2, 3)), 1.0, DimensionMismatch),
    (SZ, np.nan, ValueError),
    (SZ, np.inf, ValueError),
    (SX + 1j * SZ, 1.0, NotHermitian),
    (np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0, NotHermitian),
], ids=["not_square", "nan", "inf", "not_hermitian", "triangular"])
def test_propagator_rejects_bad_input(h, t, error):
    with pytest.raises(error):
        propagator(h, t)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_propagator_rejects_non_finite_time(t):
    with pytest.raises(ValueError, match=rf"times must be finite: t\[0\] = {t!r}$"):
        propagator(SZ, t)


def test_propagator_rejects_a_phase_that_overflows():
    h = np.diag([1e308, 0.0])
    with pytest.raises(PhaseOverflow,
                       match=r"^t\[0\] = 10\.0 times the largest \|eigenvalue\| 1e\+308 overflows$"):
        propagator(h, 10.0)
    assert np.array_equal(propagator(h, 0.0), np.eye(2))


def test_propagator_sees_in_place_change():
    rng = np.random.default_rng(14)
    h = random_hermitian(6, rng)
    before = propagator(h, 0.9)
    h[2, 2] += 0.5
    after = propagator(h, 0.9)
    assert np.linalg.norm(after - before) > 1e-3
    assert np.linalg.norm(after - scipy.linalg.expm(-0.9j * h)) < 1e-11


# --- one eigendecomposition, whatever the pattern of zeros


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
    assert calls == [(22, 22)]


def test_propagator_diagonal_and_zero_matrices(monkeypatch):
    calls = count_eigh(monkeypatch)
    d = np.diag([0.5, -1.0, 2.0, 0.0, 3.5])
    assert np.linalg.norm(propagator(d, 1.1) - scipy.linalg.expm(-1.1j * d)) < 1e-14
    assert calls == [(5, 5)]
    zero = np.zeros((6, 6))
    assert np.array_equal(propagator(zero, 2.0), scipy.linalg.expm(-2.0j * zero))
    assert calls == [(5, 5), (6, 6)]


def test_propagator_dense_irreducible_matrix_costs_one_eigh(monkeypatch):
    rng = np.random.default_rng(18)
    h = random_hermitian(16, rng)
    calls = count_eigh(monkeypatch)
    u = propagator(h, -0.6)
    assert np.linalg.norm(u - scipy.linalg.expm(0.6j * h)) < 1e-11
    assert len(calls) == 1 and calls[0][-2:] == (16, 16)


def test_propagator_blocks_follow_exact_zeros_only(monkeypatch):
    # A coupling far below any tolerance is kept: the whole matrix is one eigh.
    rng = np.random.default_rng(19)
    h = scipy.linalg.block_diag(random_hermitian(3, rng), random_hermitian(3, rng))
    h[0, 5] = h[5, 0] = 1e-300
    calls = count_eigh(monkeypatch)
    propagator(h, 1.0)
    assert calls == [(6, 6)]


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


_NORM_RNG = np.random.default_rng(9)
_COMPLEX = _NORM_RNG.standard_normal((40, 30)) + 1j * _NORM_RNG.standard_normal((40, 30))


@pytest.mark.parametrize("a", [_COMPLEX.real, _COMPLEX, _COMPLEX[::3, 1::2], _COMPLEX.T,
                               _COMPLEX.real[1::2, ::-1]],
                         ids=["real", "complex", "strided", "transposed", "real_strided"])
def test_hs_norm_matches_linalg_norm(a):
    assert abs(hs_norm(a) - np.linalg.norm(a)) <= 1e-15 * np.linalg.norm(a)
    stack = hs_norm(np.array([a, 2.0 * a]))
    assert np.abs(stack - np.array([1.0, 2.0]) * np.linalg.norm(a)).max() <= 2e-15 * np.linalg.norm(a)


@pytest.mark.filterwarnings("error")
def test_hs_norm_overflows_to_inf_without_a_warning():
    assert hs_norm(np.full((2, 3), 1e200)) == np.inf
    assert hs_norm(np.array([[0.5, 1e308 + 1e308j], [1e308 - 1e308j, 0.5]])) == np.inf
    assert np.isnan(hs_norm(np.array([[np.nan, 0.0], [0.0, 1.0]])))


def test_partial_trace_factorized():
    rng = np.random.default_rng(10)
    rho = random_hermitian(3, rng)
    omega = random_hermitian(4, rng)
    omega = omega @ omega.conj().T
    omega /= np.trace(omega)
    assert np.allclose(partial_trace_env(np.kron(rho, omega), 3, 4), rho, atol=1e-12)


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
        rhs = np.trace(w @ np.kron(a, np.eye(4)))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(12)
    w = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    assert abs(np.trace(partial_trace_env(w, 2, 5)) - np.trace(w)) < 1e-12


def test_partial_trace_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        partial_trace_env(np.eye(6), 2, 2)
