import numpy as np
import pytest
import scipy.linalg

from declab import (
    ArakiZurekModel,
    CorrelatedInitialState,
    DimensionMismatch,
    DimensionTooLarge,
    NotAState,
    NotDiscrete,
    NotHermitian,
    PAULI,
    SpectralDensity,
    SpinModel,
    asymptotic_map,
    az_evolve,
    az_evolve_correlated,
    az_trajectory,
    bloch_to_density,
    block_diagonal_sectors,
    chi_trajectory,
    decoherence_function,
    density_to_bloch,
    fit_power_law_decay,
    full_simulation_oracle,
    off_diagonal_norms,
    partial_trace_env,
    propagator,
    random_density,
    recurrence_window,
    rotation_axis,
    sector_probabilities,
    spin_asymptotics,
    spin_evolve,
    tensor_product,
    trace_distance,
)
from test_superselection import random_sectors

GAUSS = SpectralDensity.gaussian(1.0)
Z_SECTORS = block_diagonal_sectors([1, 1])


def simple_az(h_s=None, env=GAUSS):
    h = np.zeros((2, 2)) if h_s is None else h_s
    return ArakiZurekModel(Z_SECTORS, [1.0, -1.0], h, env, 2.0)


def lattice_env(spacing=0.1, half_width=1.0):
    points = np.arange(-half_width, half_width + spacing / 2, spacing)
    weights = np.full(points.size, 1.0 / points.size)
    return SpectralDensity.discrete(np.column_stack([points, weights]))


# --- spectral densities


@pytest.mark.parametrize(
    "env",
    [GAUSS, SpectralDensity.uniform(-1.5, 0.5), SpectralDensity.bump(-2.0, 1.0)],
    ids=["gaussian", "uniform", "bump"],
)
def test_density_normalization(env):
    from declab import gauss_legendre_adaptive

    lo, hi = env.support()
    total = gauss_legendre_adaptive(env.density, lo, hi, tol=1e-12)
    assert abs(np.real(total) - 1.0) < 1e-10
    v = np.linspace(lo, hi, 101)
    assert env.density(v).min() >= 0.0


@pytest.mark.parametrize("make", [
    lambda: SpectralDensity.gaussian(1e-302),
    lambda: SpectralDensity.uniform(-1e-301, 0.0),
    lambda: SpectralDensity.bump(0.0, 5e-324),
    lambda: SpectralDensity.uniform(-1e300, 1e300),
    lambda: SpectralDensity.gaussian(1e299),
], ids=["gaussian_narrow", "uniform_narrow", "bump_subnormal", "uniform_wide", "gaussian_wide"])
def test_density_rejects_support_width_outside_its_range(make):
    with pytest.raises(ValueError, match="support width"):
        make()


@pytest.mark.parametrize("s", [1e-299, 1e-160, 1e160, 1e298])
def test_gaussian_chi_at_extreme_widths(s):
    # The density is evaluated through v / s: v**2 / s**2 under- or overflowed here.
    chi = chi_trajectory(SpectralDensity.gaussian(s), [0.0, 1.0 / s, 3.0 / s])
    assert np.abs(chi - np.exp(-np.array([0.0, 0.5, 4.5]))).max() < 1e-14


def test_discrete_density_validation():
    with pytest.raises(ValueError):
        SpectralDensity.discrete([[0.0, 0.5], [0.0, 0.5]])  # duplicate points
    with pytest.raises(ValueError):
        SpectralDensity.discrete([[1.0, 0.5], [0.0, 0.5]])  # unsorted
    with pytest.raises(ValueError):
        SpectralDensity.discrete([[0.0, 0.7], [1.0, 0.7]])  # not normalized
    with pytest.raises(ValueError):
        SpectralDensity.discrete([[0.0, 1.5], [1.0, -0.5]])  # negative weight


@pytest.mark.parametrize(
    "points, field",
    [
        ([[np.nan, 0.5], [1.0, 0.5]], "points"),
        ([[0.0, 0.5], [np.inf, 0.5]], "points"),
        ([[0.0, np.nan], [1.0, 0.5]], "weights"),
        ([[0.0, np.nan], [1.0, np.nan]], "weights"),
    ],
    ids=["nan_point", "inf_point", "nan_weight", "all_nan_weights"],
)
def test_discrete_density_rejects_non_finite(points, field):
    with pytest.raises(ValueError, match=f"discrete {field} must be finite"):
        SpectralDensity.discrete(points)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_model_parameters_must_be_finite(bad):
    with pytest.raises(ValueError, match="lambdas"):
        ArakiZurekModel(Z_SECTORS, [1.0, bad], np.zeros((2, 2)), GAUSS, 2.0)
    with pytest.raises(ValueError, match="lam"):
        SpinModel(a=[1, 0, 2], b=0.3, lam=bad, env_diag=GAUSS)
    with pytest.raises(ValueError, match="b must be positive and finite"):
        SpinModel(a=[1, 0, 2], b=abs(bad), lam=1.0, env_diag=GAUSS)


def test_discretize_matches_quadrature_weighting():
    grid = GAUSS.discretize(64)
    assert grid.is_discrete
    assert grid.points.shape == (64, 2)
    assert grid.points[:, 1].sum() == pytest.approx(1.0, abs=1e-14)
    # Weighted mean of v^2 reproduces the gaussian second moment.
    second = np.sum(grid.points[:, 1] * grid.points[:, 0] ** 2)
    assert second == pytest.approx(1.0, abs=1e-10)


def test_discretize_requires_an_integer_size():
    with pytest.raises(TypeError):
        GAUSS.discretize(2.7)
    assert GAUSS.discretize(np.int64(3)).points.shape == (3, 2)


def test_gaussian_width_must_be_positive():
    with pytest.raises(ValueError):
        SpectralDensity.gaussian(0.0)


# --- decoherence function


@pytest.mark.parametrize(
    "env",
    [GAUSS, SpectralDensity.uniform(-1, 1), SpectralDensity.bump(-1, 1), lattice_env()],
    ids=["gaussian", "uniform", "bump", "discrete"],
)
def test_chi_at_zero_is_one(env):
    assert decoherence_function(env, 0.0) == pytest.approx(1.0, abs=1e-10)


def test_chi_gaussian_closed_form():
    # Fourier transform of the unit gaussian: exp(-t^2 / 2).
    for t in np.linspace(0.0, 5.0, 26):
        chi = decoherence_function(GAUSS, t)
        assert abs(chi - np.exp(-t * t / 2.0)) < 1e-8


def test_chi_uniform_is_sinc():
    env = SpectralDensity.uniform(-1, 1)
    assert abs(decoherence_function(env, np.pi)) < 1e-10
    for t in (0.5, 2.0, 7.7):
        assert decoherence_function(env, t) == pytest.approx(np.sin(t) / t, abs=1e-10)


def test_chi_bounded_and_conjugate_symmetric():
    rng = np.random.default_rng(30)
    for env in (GAUSS, SpectralDensity.uniform(0.0, 2.0), lattice_env(0.25)):
        for t in rng.uniform(0, 20, size=8):
            chi = decoherence_function(env, t)
            assert abs(chi) <= 1.0 + 1e-9
            assert decoherence_function(env, -t) == pytest.approx(np.conj(chi), abs=1e-9)


def test_chi_discrete_matches_direct_sum():
    env = lattice_env(0.5)
    t = 3.3
    direct = np.sum(env.points[:, 1] * np.exp(-1j * env.points[:, 0] * t))
    assert decoherence_function(env, t) == pytest.approx(direct, abs=1e-14)


# --- recurrence


def test_recurrence_equally_spaced_lattice():
    env = lattice_env(0.1)
    t_rec = recurrence_window(env)
    assert t_rec == pytest.approx(20 * np.pi, rel=1e-12)
    assert abs(decoherence_function(env, t_rec)) > 0.9999


def test_recurrence_two_points():
    env = SpectralDensity.discrete([[-0.5, 0.5], [0.5, 0.5]])
    assert recurrence_window(env) == pytest.approx(2 * np.pi)


def test_recurrence_needs_discrete_spectrum():
    with pytest.raises(NotDiscrete):
        recurrence_window(GAUSS)


# --- dephasing model


def test_az_model_validation():
    with pytest.raises(DimensionMismatch):
        ArakiZurekModel(Z_SECTORS, [1.0], np.zeros((2, 2)), GAUSS, 1.0)
    with pytest.raises(ValueError):
        ArakiZurekModel(Z_SECTORS, [1.0, -1.0], np.zeros((2, 2)), GAUSS, 3.0)
    with pytest.raises(ValueError):
        # sigma_x mixes the sectors, so it cannot be the free Hamiltonian.
        ArakiZurekModel(Z_SECTORS, [1.0, -1.0], PAULI[0], GAUSS, 2.0)
    with pytest.raises(NotHermitian):
        ArakiZurekModel(
            Z_SECTORS, [1.0, -1.0], np.array([[0.0, 1.0], [0.0, 0.0]]), GAUSS, 2.0
        )


COUPLED_BLOCKS = [([2, 2], (1, 2), 0), ([1, 2, 2], (1, 3), 1)]


@pytest.mark.parametrize("dims, pair, named", COUPLED_BLOCKS, ids=["2,2", "1,2,2"])
def test_az_rejects_h_s_coupling_basis_sectors(dims, pair, named):
    # The coupling leaks out of both sectors it joins; the first one is named.
    h_s = np.diag(np.linspace(-1.0, 1.0, sum(dims))).astype(complex)
    h_s[pair] = h_s[pair[::-1]] = 0.3
    lambdas = np.arange(len(dims), dtype=float)
    with pytest.raises(ValueError, match=f"commute with sector projector {named}$"):
        ArakiZurekModel(block_diagonal_sectors(dims), lambdas, h_s, GAUSS, 1.0)
    h_s[pair] = h_s[pair[::-1]] = 1e-12  # inside the tolerance 1e-10 max(1, |h_s|)
    ArakiZurekModel(block_diagonal_sectors(dims), lambdas, h_s, GAUSS, 1.0)


def test_az_rejects_h_s_coupling_rotated_sectors():
    rng = np.random.default_rng(45)
    sectors = random_sectors(6, 3, rng)
    p = sectors.projectors
    x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    inside = sum(pm @ (x + x.conj().T) @ pm for pm in p)
    coupling = p[1] @ x @ p[2] + p[2] @ x.conj().T @ p[1]
    with pytest.raises(ValueError, match="commute with sector projector 1$"):
        ArakiZurekModel(sectors, [0.0, 1.0, 2.0], inside + coupling, GAUSS, 1.0)
    ArakiZurekModel(sectors, [0.0, 1.0, 2.0], inside + 1e-13 * coupling, GAUSS, 1.0)


def test_az_coupling_operator_reconstruction():
    model = simple_az()
    assert np.allclose(model.v_s, np.diag([1.0, -1.0]))


def test_az_zero_time_is_identity_channel():
    model = simple_az(h_s=np.diag([0.3, -0.1]))
    rho0 = random_density(2, np.random.default_rng(31))
    assert trace_distance(az_evolve(model, rho0, 0.0), rho0) < 1e-12


def test_az_block_diagonal_states_are_stationary():
    model = simple_az(h_s=np.diag([0.7, 0.2]))
    rho0 = bloch_to_density([0, 0, 0.6])
    for t in (0.5, 2.0, 9.0):
        assert trace_distance(az_evolve(model, rho0, t), rho0) < 1e-10


def test_az_gaussian_dephasing_closed_form():
    # lambda = +-1 makes the coherence decay as chi(2t) = exp(-2 t^2).
    model = simple_az()
    rho0 = bloch_to_density([1, 0, 0])
    for t in (0.25, 0.5, 1.0):
        rho_t = az_evolve(model, rho0, t)
        expected = 0.5 * np.exp(-2.0 * t * t)
        assert abs(rho_t.matrix[0, 1] - expected) < 1e-8


def test_az_preserves_sector_probabilities():
    rng = np.random.default_rng(32)
    sectors = block_diagonal_sectors([2, 2])
    h_s = scipy.linalg.block_diag(
        *(m + m.conj().T for m in rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2)))
    )
    model = ArakiZurekModel(sectors, [0.5, -0.5], h_s, GAUSS, 1.0)
    rho0 = random_density(4, rng)
    p0 = sector_probabilities(rho0, sectors)
    for t in (0.3, 1.7, 6.0):
        pt = sector_probabilities(az_evolve(model, rho0, t), sectors)
        assert np.abs(pt - p0).max() < 1e-10


def test_az_offdiagonal_norm_factorizes():
    rng = np.random.default_rng(33)
    sectors = block_diagonal_sectors([2, 2])
    h_s = scipy.linalg.block_diag(
        *(m + m.conj().T for m in rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2)))
    )
    model = ArakiZurekModel(sectors, [1.0, -1.0], h_s, GAUSS, 2.0)
    rho0 = random_density(4, rng)
    base = off_diagonal_norms(rho0, sectors).hs
    for t in (0.2, 0.8, 1.5):
        evolved = off_diagonal_norms(az_evolve(model, rho0, t), sectors).hs
        chi = decoherence_function(GAUSS, 2.0 * t)
        assert abs(evolved - abs(chi) * base) < 1e-10


def test_az_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        az_evolve(simple_az(), random_density(3, np.random.default_rng(0)), 1.0)


def sector_dense_az(rng, env=GAUSS):
    """Two sectors of 3 with a dense random h_s inside each."""
    blocks = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    h_s = scipy.linalg.block_diag(*(m + m.conj().T for m in blocks))
    return ArakiZurekModel(block_diagonal_sectors([3, 3]), [0.5, -0.5], h_s, env, 1.0)


@pytest.mark.parametrize("env", [GAUSS, lattice_env()], ids=["gaussian", "discrete"])
def test_az_trajectory_diagonalises_once_and_matches_az_evolve(monkeypatch, env):
    rng = np.random.default_rng(35)
    model = sector_dense_az(rng, env)
    rho0 = random_density(6, rng)
    ts = np.linspace(0.0, 6.0, 21)
    az_evolve(model, rho0, 0.0)  # the sectors build their adapted frame once, on first use
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    states = az_trajectory(model, rho0, ts)
    assert calls == [(2, 3, 3)]  # both sectors in one batched eigh, at the call
    states = list(states)
    assert calls == [(2, 3, 3)]
    monkeypatch.undo()
    assert len(states) == ts.size
    for t, rho_t in zip(ts, states):
        assert np.array_equal(rho_t.matrix, az_evolve(model, rho0, t).matrix)


def test_az_trajectory_streams_one_chi_call_per_state(monkeypatch):
    import declab.models as models

    calls = []
    chi_trajectory = models.chi_trajectory
    monkeypatch.setattr(models, "chi_trajectory", lambda *a: calls.append(a) or chi_trajectory(*a))
    states = az_trajectory(sector_dense_az(np.random.default_rng(36)),
                           random_density(6, np.random.default_rng(37)), [0.0, 1.0, 2.0])
    assert calls == []
    next(states)
    assert len(calls) == 1
    assert len(list(states)) == 2 and len(calls) == 3


@pytest.mark.parametrize("dim, ts, error", [
    (3, [0.0, 1.0], DimensionMismatch),
    (6, [0.0, np.nan, 1.0], ValueError),
    (6, [np.inf], ValueError),
], ids=["dimension", "nan", "inf"])
def test_az_trajectory_rejects_bad_input_at_the_call(dim, ts, error):
    rng = np.random.default_rng(38)
    with pytest.raises(error):
        az_trajectory(sector_dense_az(rng), random_density(dim, rng), ts)


# --- correlated initial states


def test_correlated_single_term_reduces_to_factorized():
    model = simple_az(h_s=np.diag([0.4, -0.4]))
    rho0 = random_density(2, np.random.default_rng(34))
    w0 = CorrelatedInitialState(((rho0.matrix, GAUSS),))
    for t in (0.0, 0.7, 2.1):
        assert trace_distance(az_evolve_correlated(model, w0, t), az_evolve(model, rho0, t)) < 1e-12


def test_correlated_zero_time_recovers_reduced_state():
    rho_a = 0.5 * bloch_to_density([0.8, 0, 0.2]).matrix
    rho_b = 0.5 * bloch_to_density([-0.8, 0, -0.2]).matrix
    w0 = CorrelatedInitialState(((rho_a, GAUSS), (rho_b, SpectralDensity.gaussian(2.0))))
    out = az_evolve_correlated(simple_az(), w0, 0.0)
    assert trace_distance(out, w0.reduced) < 1e-12


def test_correlated_offdiagonal_triangle_bound():
    # Opposite-sign coherences interfere, but never beat the termwise bound.
    model = simple_az()
    rho_a = 0.5 * bloch_to_density([1, 0, 0]).matrix
    rho_b = 0.5 * bloch_to_density([-1, 0, 0]).matrix
    envs = (GAUSS, SpectralDensity.gaussian(2.0))
    w0 = CorrelatedInitialState(((rho_a, envs[0]), (rho_b, envs[1])))
    for t in (0.2, 0.6, 1.1):
        out = az_evolve_correlated(model, w0, t)
        hs = off_diagonal_norms(out, model.sectors).hs
        bound = sum(
            abs(decoherence_function(env, 2.0 * t)) * np.linalg.norm(np.triu(mat, 1)) * np.sqrt(2)
            for (mat, env) in ((rho_a, envs[0]), (rho_b, envs[1]))
        )
        assert hs <= bound + 1e-10


def test_correlated_rejects_non_state_sum():
    bad = 0.6 * bloch_to_density([1, 0, 0]).matrix
    with pytest.raises(NotAState):
        CorrelatedInitialState(((bad, GAUSS),))


# --- spin model kinematics


def test_rotation_axis_examples():
    n, omega = rotation_axis(SpinModel(a=[0, 0, 1], b=1.0, lam=0.0, env_diag=GAUSS), 5.0)
    assert np.allclose(n, [0, 0, 1]) and omega == pytest.approx(2.0)

    n, omega = rotation_axis(SpinModel(a=[0, 0, 0], b=1.0, lam=1.0, env_diag=GAUSS), 2.0)
    assert np.allclose(n, [0, 0, 1]) and omega == pytest.approx(4.0)

    n, omega = rotation_axis(SpinModel(a=[1, 0, 1], b=1.0, lam=1.0, env_diag=GAUSS), 1.0)
    assert np.allclose(n, np.array([1, 0, 2]) / np.sqrt(5))
    assert omega == pytest.approx(2 * np.sqrt(5))


def test_rotation_axis_zero_field_convention():
    n, omega = rotation_axis(SpinModel(a=[0, 0, 1], b=1.0, lam=1.0, env_diag=GAUSS), -1.0)
    assert omega == pytest.approx(0.0)
    assert np.allclose(n, [0, 0, 1])


def test_spin_rotation_matches_brute_force_exponential():
    # A single-point environment reduces the model to one conditional
    # rotation, comparable against scipy's matrix exponential.
    rng = np.random.default_rng(35)
    for _ in range(15):
        a = rng.standard_normal(3)
        lam = rng.standard_normal()
        x = rng.standard_normal()
        t = rng.uniform(0, 4)
        p = rng.standard_normal(3)
        p /= np.linalg.norm(p) * 1.25
        model = SpinModel(a=a, b=1.0, lam=lam, env_diag=SpectralDensity.discrete([[x, 1.0]]))
        h = a[0] * PAULI[0] + a[1] * PAULI[1] + (a[2] + lam * x) * PAULI[2]
        u = scipy.linalg.expm(-1j * h * t)
        expected = u @ bloch_to_density(p).matrix @ u.conj().T
        got = spin_evolve(model, p, t)
        assert np.abs(got.matrix - expected).max() < 1e-12


def test_spin_model_requires_positive_b():
    with pytest.raises(ValueError):
        SpinModel(a=[1, 0, 0], b=0.0, lam=1.0, env_diag=GAUSS)


# --- spin reduced dynamics


def test_spin_zero_time():
    model = SpinModel(a=[1, 0, 2], b=0.3, lam=1.0, env_diag=GAUSS)
    p = np.array([0.3, -0.2, 0.5])
    assert trace_distance(spin_evolve(model, p, 0.0), bloch_to_density(p)) < 1e-12


def test_spin_axial_field_reduces_to_dephasing():
    # a along e_3 makes the spin model a two-sector dephasing model with
    # coupling eigenvalues +-lam and free Hamiltonian a_3 sigma_3.
    a3, lam = 0.7, 0.9
    env = SpectralDensity.gaussian(1.2)
    spin = SpinModel(a=[0, 0, a3], b=0.5, lam=lam, env_diag=env)
    az = ArakiZurekModel(Z_SECTORS, [lam, -lam], a3 * PAULI[2], env, 2 * lam)
    p = np.array([0.5, 0.3, -0.2])
    rho0 = bloch_to_density(p)
    for t in (0.4, 1.3, 3.0):
        assert trace_distance(spin_evolve(spin, p, t), az_evolve(az, rho0, t)) < 1e-8


def test_spin_axial_field_keeps_p3():
    model = SpinModel(a=[0, 0, 1.0], b=0.3, lam=1.0, env_diag=GAUSS)
    p = np.array([0.6, 0.0, 0.35])
    for t in (0.5, 2.0):
        out = density_to_bloch(spin_evolve(model, p, t))
        assert out[2] == pytest.approx(p[2], abs=1e-9)
        assert np.hypot(out[0], out[1]) < np.hypot(p[0], p[1])


def test_spin_matches_oracle_on_shared_grid():
    grid = GAUSS.discretize(64)
    model = SpinModel(a=[1, 0, 2], b=0.3, lam=1.0, env_diag=grid)
    p = np.array([0.6, -0.3, 0.4])
    rho0 = bloch_to_density(p)
    for t in (0.0, 1.2, 4.0):
        closed = spin_evolve(model, p, t)
        oracle = full_simulation_oracle(model, rho0, t, 64)
        assert trace_distance(closed, oracle) < 1e-10


# --- contraction map


def test_asymptotic_map_axial_case():
    model = SpinModel(a=[0, 0, 2.0], b=0.3, lam=0.8, env_diag=GAUSS)
    m = asymptotic_map(model)
    expected = np.zeros((3, 3))
    expected[2, 2] = 1.0
    assert np.abs(m - expected).max() < 1e-10


def test_asymptotic_map_uncoupled_projects_on_field_axis():
    a = np.array([1.0, 0.5, -0.3])
    model = SpinModel(a=a, b=0.3, lam=0.0, env_diag=GAUSS)
    n = a / np.linalg.norm(a)
    assert np.abs(asymptotic_map(model) - np.outer(n, n)).max() < 1e-10


def test_asymptotic_map_is_symmetric_contraction():
    rng = np.random.default_rng(36)
    model = SpinModel(a=[1, 0, 1], b=0.3, lam=1.0, env_diag=GAUSS)
    m = asymptotic_map(model)
    assert np.abs(m - m.T).max() < 1e-12
    eigs = np.linalg.eigvalsh(m)
    assert eigs[0] > -1e-12 and eigs[-1] < 1.0 + 1e-12
    for _ in range(100):
        p = rng.standard_normal(3)
        p /= np.linalg.norm(p) * rng.uniform(1.0, 3.0)
        assert np.linalg.norm(m @ p) < np.linalg.norm(p)


def test_asymptotic_map_discrete_matches_quadrature():
    model_c = SpinModel(a=[1, 0, 2], b=0.3, lam=1.0, env_diag=GAUSS)
    model_d = SpinModel(a=[1, 0, 2], b=0.3, lam=1.0, env_diag=GAUSS.discretize(201))
    assert np.abs(asymptotic_map(model_c) - asymptotic_map(model_d)).max() < 1e-9


# --- asymptotics series


def test_spin_asymptotics_fixed_point_at_origin():
    model = SpinModel(a=[1, 0, 2], b=0.3, lam=1.0, env_diag=GAUSS)
    rows = spin_asymptotics(model, [0, 0, 0], np.linspace(0, 5, 6))
    assert np.abs(rows[:, 1]).max() < 1e-10


def test_spin_asymptotics_axial_invariant_state():
    # Polarization along the axial field never decoheres.
    model = SpinModel(a=[0, 0, 1.5], b=0.3, lam=0.8, env_diag=GAUSS)
    rows = spin_asymptotics(model, [0, 0, 0.9], np.linspace(0, 6, 7))
    assert np.abs(rows[:, 1]).max() < 1e-9


def test_spin_asymptotics_generic_model_decays_and_fits():
    model = SpinModel(a=[1, 0, 2], b=0.3, lam=1.0, env_diag=GAUSS)
    t_grid = np.linspace(2.0, 22.0, 41)
    rows = spin_asymptotics(model, [0.7, 0.2, 0.5], t_grid)
    assert rows[-1, 1] < rows[0, 1] / 2
    fit = fit_power_law_decay(rows, delta=1.0, window=(2.0, 22.0))
    assert fit.gamma > 0.2
    assert np.all(fit.bound(rows[:, 0]) >= rows[:, 1] - 1e-12)


# --- joint-evolution oracle


def test_oracle_zero_time_returns_initial_state():
    model = simple_az()
    rho0 = random_density(2, np.random.default_rng(37))
    assert trace_distance(full_simulation_oracle(model, rho0, 0.0, 16), rho0) < 1e-12


def test_oracle_matches_az_closed_form_on_discrete_spectrum():
    rng = np.random.default_rng(38)
    env = GAUSS.discretize(32)
    model = simple_az(h_s=np.diag([0.3, -0.5]), env=env)
    rho0 = random_density(2, rng)
    for t in (0.4, 1.9, 5.0):
        closed = az_evolve(model, rho0, t)
        oracle = full_simulation_oracle(model, rho0, t, 32)
        assert trace_distance(closed, oracle) < 1e-11


def test_oracle_contracts_the_joint_state_exactly():
    rng = np.random.default_rng(41)
    env = GAUSS.discretize(24)
    sectors = block_diagonal_sectors([2, 1])
    h_s = np.zeros((3, 3), dtype=complex)
    h_s[:2, :2] = [[0.4, 0.2 - 0.1j], [0.2 + 0.1j, -0.3]]
    h_s[2, 2] = 0.7
    model = ArakiZurekModel(sectors, [1.0, -1.0], h_s, env, 2.0)
    rho0 = random_density(3, rng)
    v, w = env.points[:, 0], env.points[:, 1]
    h_joint = tensor_product(h_s, np.eye(v.size)) + tensor_product(model.v_s, np.diag(v))
    for t in (0.0, 1.3, 7.9):
        u = propagator(h_joint, t)
        w0 = tensor_product(rho0.matrix, np.diag(w))
        expected = partial_trace_env(u @ w0 @ u.conj().T, 3, v.size)
        got = full_simulation_oracle(model, rho0, t, v.size).matrix
        assert np.abs(got - expected).max() < 1e-13


def test_oracle_matches_closed_forms_at_the_dense_cap():
    # Joint dimension 1024 for both models, within criterion 7's tolerances.
    rng = np.random.default_rng(44)
    grid512 = GAUSS.discretize(512)
    spin = SpinModel(a=[0.8, -0.4, 1.5], b=0.3, lam=1.0, env_diag=grid512)
    p = np.array([0.5, 0.4, -0.6])
    for t in (2.5, 8.0):
        oracle = full_simulation_oracle(spin, bloch_to_density(p), t, 512)
        assert trace_distance(spin_evolve(spin, p, t), oracle) < 1e-8

    grid256 = GAUSS.discretize(256)
    h_s = np.zeros((4, 4), dtype=complex)
    h_s[:2, :2] = [[0.3, 0.2 - 0.4j], [0.2 + 0.4j, -0.1]]
    h_s[2:, 2:] = [[-0.5, 0.1j], [-0.1j, 0.2]]
    az = ArakiZurekModel(block_diagonal_sectors([2, 2]), [1.0, -1.0], h_s, grid256, 2.0)
    rho0 = random_density(4, rng)
    for t in (0.3, 0.7):
        t = t * recurrence_window(grid256)
        oracle = full_simulation_oracle(az, rho0, t, 256)
        assert trace_distance(az_evolve(az, rho0, t), oracle) < 1e-9


@pytest.mark.parametrize("t", [np.nan, np.inf])
def test_oracle_and_az_reject_non_finite_time(t):
    model = simple_az(env=GAUSS.discretize(8))
    rho0 = random_density(2, np.random.default_rng(42))
    with pytest.raises(ValueError, match="finite"):
        az_evolve(model, rho0, t)
    with pytest.raises(ValueError, match="t must be finite"):
        full_simulation_oracle(model, rho0, t, 8)


def test_oracle_requires_an_integer_grid():
    rho0 = random_density(2, np.random.default_rng(43))
    with pytest.raises(TypeError):
        full_simulation_oracle(simple_az(), rho0, 1.0, 16.5)


def test_oracle_discrete_env_must_match_grid():
    model = simple_az(env=GAUSS.discretize(16))
    rho0 = random_density(2, np.random.default_rng(39))
    with pytest.raises(DimensionMismatch):
        full_simulation_oracle(model, rho0, 1.0, 32)


def test_oracle_dimension_cap():
    model = simple_az()
    rho0 = random_density(2, np.random.default_rng(40))
    with pytest.raises(DimensionTooLarge):
        full_simulation_oracle(model, rho0, 1.0, 1000)


def test_oracle_rejects_unknown_model():
    with pytest.raises(TypeError):
        full_simulation_oracle(object(), random_density(2, np.random.default_rng(0)), 1.0, 8)
