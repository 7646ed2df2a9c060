import numpy as np
import pytest
import scipy.linalg

from declab import (
    ArakiZurekModel,
    ConvergenceFailure,
    CorrelatedInitialState,
    DensityOperator,
    DimensionMismatch,
    DimensionTooLarge,
    NotAState,
    NotDiscrete,
    NotHermitian,
    OutOfDomain,
    OutsideBall,
    PAULI,
    SectorStructure,
    SpectralDensity,
    SpinModel,
    asymptotic_map,
    az_coherence,
    az_evolve,
    az_trajectory,
    bloch_to_density,
    block_diagonal_sectors,
    chi_trajectory,
    decoherence_function,
    fit_power_law_decay,
    full_simulation_oracle,
    haar_unitary,
    off_diagonal_norms,
    random_density,
    recurrence_window,
    schatten_norms,
    sector_probabilities,
    spin_asymptotics,
    spin_evolve,
    spin_trajectory,
    trace_distance,
)
from declab.cli import _csv_lines
from declab.models import DENSITY_KINDS, _factors
from declab.states import STATE_TOL
from declab.superselection import sector_mask
from test_operators import random_hermitian
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
    [GAUSS, SpectralDensity.uniform(-1.5, 0.5), SpectralDensity.uniform(0.1, 0.7),
     SpectralDensity.bump(-2.0, 1.0)],
    ids=["gaussian", "uniform", "uniform_offset", "bump"],
)
def test_density_normalization(env):
    # A trapezoid sum over the closed support, sharing no code with declab's quadrature.
    lo, hi = env.support()
    values = env.density(np.linspace(lo, hi, 4001))
    total = (hi - lo) / 4000 * (values.sum() - (values[0] + values[-1]) / 2.0)
    assert abs(total - 1.0) < 1e-10
    assert values.min() >= 0.0


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


def test_discretize_builds_each_rule_once(monkeypatch):
    import declab.quadrature as quadrature

    gauss_legendre = quadrature._gauss_legendre
    calls = []
    monkeypatch.setattr(quadrature, "_rule_cache", {})
    monkeypatch.setattr(quadrature, "_gauss_legendre",
                        lambda n, *args: calls.append(n) or gauss_legendre(n, *args))
    uniform = SpectralDensity.uniform(-1.5, 0.5)
    grids = [(GAUSS, GAUSS.discretize(512)), (uniform, uniform.discretize(512))]
    assert calls == [512]
    x, w = quadrature._rule(512)
    for env, grid in grids:
        lo, hi = env.support()
        v = (hi + lo) / 2.0 + (hi - lo) / 2.0 * x
        weights = w * (hi - lo) / 2.0 * env.density(v)
        assert np.array_equal(grid.points, np.column_stack([v, weights / weights.sum()]))


def test_gaussian_width_must_be_positive():
    with pytest.raises(ValueError):
        SpectralDensity.gaussian(0.0)


# Two densities of each kind in DENSITY_KINDS, one centred and one off 0.
OF_EACH_KIND = {"gaussian": [(0.37,), (1e-3,)], "uniform": [(-1.5, 0.5), (0.1, 0.7)],
                "bump": [(-2.0, 1.0), (-3e-5, 7e-5)]}


@pytest.mark.parametrize("kind", DENSITY_KINDS)
def test_density_at_adds_centre_and_offset_as_density_does(kind):
    # |u| <= 3/4 of the unit shape, where no kind's slope amplifies the
    # rounding of c + off by more than a few ulps.
    for params in OF_EACH_KIND[kind]:
        env = getattr(SpectralDensity, kind)(*params)
        _, _, mid, half = DENSITY_KINDS[kind].frame(*params)
        centres = mid + half * np.linspace(-0.5, 0.5, 11)
        offsets = half * np.linspace(-0.25, 0.25, 9)
        want = env.density(centres[:, None] + offsets)
        got = env.density_at(centres, offsets)
        assert np.all(np.abs(got - want) <= 8 * np.spacing(want)), (kind, params)


@pytest.mark.parametrize("a, b", [(0.1, 0.7), (-3e-5, 7e-5), (1e12, 1e12 + 1.0)])
def test_bounded_kinds_vanish_just_outside_their_closed_support(a, b):
    outside = np.array([np.nextafter(a, -np.inf), np.nextafter(b, np.inf)])
    assert np.all(SpectralDensity.uniform(a, b).density(outside) == 0.0)
    assert np.all(SpectralDensity.bump(a, b).density(outside) == 0.0)
    assert np.all(SpectralDensity.uniform(a, b).density(np.array([a, b])) == 1.0 / (b - a))


def test_gaussian_is_the_full_normal_density_beyond_its_support():
    env = SpectralDensity.gaussian(0.5)
    v = np.array([-7.5, 5.0, 6.0])  # 15, 10 and 12 widths out; support() ends at 10
    want = np.exp(-((v / 0.5) ** 2) / 2.0) / (0.5 * np.sqrt(2.0 * np.pi))
    assert np.all(want > 0.0)
    assert np.allclose(env.density(v), want, rtol=1e-14, atol=0.0)


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


def _spin_discrete(env, ts):
    return spin_trajectory(SpinModel(a=[1, 0, 0.4], b=0.3, lam=1.0, env_diag=env), [0.7, 0.2, 0.5], ts)


DISCRETE_TRAJECTORIES = pytest.mark.parametrize(
    "trajectory", [chi_trajectory, _spin_discrete], ids=["chi", "spin"]
)


@DISCRETE_TRAJECTORIES
def test_chi_discrete_chunks_bound_its_tables(trajectory):
    import tracemalloc

    points = np.linspace(-1.0, 1.0, 200)
    env = SpectralDensity.discrete(np.column_stack([points, np.full(200, 1 / 200)]))
    ts = np.linspace(0.0, 50.0, 4000)
    tracemalloc.start()
    try:
        trajectory(env, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One table of all 4000 x 200 phases, their cos and sin took 18.4 MiB
    # for chi and 12.4 MiB for spin.
    assert peak < 4 * 2**20


CHUNK_TIMES = np.linspace(-3.0, 40.0, 1001)


def _dephasing_az():
    rng = np.random.default_rng(39)
    h_s = scipy.linalg.block_diag(*(random_hermitian(d, rng) for d in (2, 1, 3)))
    return ArakiZurekModel(block_diagonal_sectors([2, 1, 3]), [1.5, 0.0, -2.0], h_s, GAUSS, 1.5)


# Every caller of operators.chunks, each a call on CHUNK_TIMES (or a CSV of as
# many rows) and the module through which it steps them.
CHUNKED_CALLS = {
    "chi": ("models", lambda: chi_trajectory(lattice_env(), CHUNK_TIMES)),  # 21 points
    "spin": ("models", lambda: _spin_discrete(lattice_env(), CHUNK_TIMES)),
    "chi_continuous": ("quadrature", lambda: chi_trajectory(GAUSS, CHUNK_TIMES)),
    # At |t| <= 40 the strip about the fold covers this bump's support.
    "spin_strip": ("models", lambda: spin_trajectory(
        SpinModel(a=[1, 0, 0.003], b=0.3, lam=0.01, env_diag=SpectralDensity.bump(-1, 1)),
        P, CHUNK_TIMES)),
    # With a_1 = a_2 = 0 the strip is empty: far branches alone.
    "spin_far": ("quadrature", lambda: spin_trajectory(field([0, 0, 0.5]), P, CHUNK_TIMES)),
    "az_coherence": ("models", lambda: az_coherence(
        _dephasing_az(), random_density(6, np.random.default_rng(40)), CHUNK_TIMES)),
    "az_trajectory": ("models", lambda: np.array([rho_t.matrix for rho_t in az_trajectory(
        _dephasing_az(), random_density(6, np.random.default_rng(40)), CHUNK_TIMES)])),
    "csv": ("cli", lambda: "".join(_csv_lines(
        ["t", "cos", "kind"], [CHUNK_TIMES, np.cos(CHUNK_TIMES), ["x"] * CHUNK_TIMES.size]))),
}


def _as_bytes(result):
    if isinstance(result, str):
        return result.encode()
    if isinstance(result, tuple):
        return b"".join(map(_as_bytes, result))
    return np.asarray(result).tobytes()


@pytest.mark.parametrize("case", CHUNKED_CALLS)
def test_chi_discrete_chunks_match_one_table(monkeypatch, case):
    import importlib

    import declab.operators as operators

    owner, call = CHUNKED_CALLS[case]
    chunks, handed = operators.chunks, []

    def recorder(module):
        def recorded(n, width):
            slices = list(chunks(n, width))
            handed.append((module, n, width, slices))
            return iter(slices)
        return recorded

    for module in ("quadrature", "models", "cli"):
        monkeypatch.setattr(importlib.import_module(f"declab.{module}"), "chunks", recorder(module))
    whole = _as_bytes(call())
    (n, width), = {(n, width) for module, n, width, _ in handed if module == owner}
    assert n == CHUNK_TIMES.size
    # One budget reaches every caller: 16 times per chunk here.
    budget = 16 * width
    monkeypatch.setattr(operators, "TABLE_ELEMENTS", budget)
    handed.clear()
    chunked = _as_bytes(call())
    sizes = [[s.stop - s.start for s in slices] for module, _, _, slices in handed if module == owner]
    assert sizes == [[16] * 62 + [9]]
    for _, n, width, slices in handed:
        assert [s.start for s in slices] == [0] + [s.stop for s in slices[:-1]]
        assert slices[-1].stop == n
        assert all(width * (s.stop - s.start) <= budget or s.stop - s.start == 1 for s in slices)
    assert chunked == whole


# Phases past the double range, each a call and the message of its
# OutOfDomain: the first time at which a phase overflows, and what it
# multiplies (for a gap, its sector pair; the gap itself may overflow).
P = [0.6, -0.3, 0.4]
WIDE_GAP = ArakiZurekModel(Z_SECTORS, [-1e308, 1e308], np.zeros((2, 2)), GAUSS, 2.0)
PLUS = DensityOperator(np.full((2, 2), 0.5))
MIXED = DensityOperator(np.eye(2) / 2)
# chi of the products gap t overflows at t[2] before the gap times t does.
THREE_GAPS = ArakiZurekModel(block_diagonal_sectors([1, 1, 1]), [0.0, 1.0, 3.0], np.zeros((3, 3)),
                             GAUSS, 1.0)
THREE_PLUS = DensityOperator(np.full((3, 3), 1 / 3))
CHI_TIMES = [0.0, 1.0, 2e307]
CHI_OF_THE_GAP = r"t\[2\] = 2e\+307 times the gap lambdas\[0\] - lambdas\[2\] = -3 times the panel centre"


def huge_h_s(h_s):
    return ArakiZurekModel(Z_SECTORS, [1.0, -1.0], h_s, GAUSS, 1.0)


def field(a, env=GAUSS):
    return SpinModel(a=a, b=0.3, lam=1.0, env_diag=env)


PHASE_OVERFLOWS = {
    "spin_far_centre": (lambda: spin_trajectory(field([0, 0, 0.5]), P, [0.0, 1e307]),
                        r"t\[1\] = 1e\+307 times the panel centre"),
    "spin_strip": (lambda: spin_trajectory(field([1, 0, 0.5]), P, [0.0, 1e308]),
                   r"t\[1\] = 1e\+308 times the strip's rate"),
    "spin_discrete": (lambda: spin_trajectory(field([1, 0, 0.5], GAUSS.discretize(8)), P, [0.0, 1e308]),
                      r"t\[1\] = 1e\+308 times the frequency"),
    "chi_gaussian": (lambda: chi_trajectory(GAUSS, [1e308]), r"t\[0\] = 1e\+308 times the panel centre"),
    "chi_discrete": (lambda: chi_trajectory(SpectralDensity.discrete([[1e308, 1.0]]), [10.0]),
                     r"t\[0\] = 10\.0 times the frequency 1e\+308"),
    "az_coherence_gap": (lambda: az_coherence(WIDE_GAP, PLUS, [1.0]),
                         r"t\[0\] = 1\.0 times the gap lambdas\[1\] - lambdas\[0\] = inf overflows"),
    "az_evolve_gap": (lambda: az_evolve(WIDE_GAP, PLUS, 1.0),
                      r"t\[0\] = 1\.0 times the gap lambdas\[1\] - lambdas\[0\] = inf overflows"),
    "az_coherence_time": (lambda: az_coherence(simple_az(), PLUS, [0.0, 1e308]),
                          r"t\[1\] = 1e\+308 times the gap lambdas\[0\] - lambdas\[1\] = 2 overflows"),
    "az_evolve_time": (lambda: az_evolve(simple_az(env=lattice_env()), PLUS, 1e308),
                       r"t\[0\] = 1e\+308 times the gap lambdas\[0\] - lambdas\[1\] = 2 overflows"),
    "spin_discrete_field": (lambda: spin_trajectory(
        field([1, 0, 0], SpectralDensity.discrete([[1e308, 1.0]])), P, [0.0]),
        r"t\[0\] = 0\.0 times the frequency inf overflows"),
    "az_coherence_chi": (lambda: az_coherence(THREE_GAPS, THREE_PLUS, CHI_TIMES), CHI_OF_THE_GAP),
    "az_trajectory_chi": (lambda: list(az_trajectory(THREE_GAPS, THREE_PLUS, CHI_TIMES)),
                          CHI_OF_THE_GAP),
    "az_evolve_chi": (lambda: az_evolve(THREE_GAPS, THREE_PLUS, 2e307),
                      r"t\[0\] = 2e\+307 times the gap lambdas\[0\] - lambdas\[2\] = -3 times"),
    "az_evolve_h_s": (lambda: az_evolve(huge_h_s(np.diag([1e308, 0.0])), MIXED, 10.0),
                      r"t\[0\] = 10\.0 times the largest \|eigenvalue\| of h_s 1e\+308 overflows"),
    "oracle": (lambda: full_simulation_oracle(huge_h_s(np.diag([0.5, -0.5])), MIXED, 1e308, 16),
               r"t\[0\] = 1e\+308 times the largest \|eigenvalue\| 10\.39"),
}


@pytest.mark.parametrize("case", PHASE_OVERFLOWS)
def test_a_phase_past_the_double_range_raises_naming_its_first_time(case):
    call, message = PHASE_OVERFLOWS[case]
    with pytest.raises(OutOfDomain, match=message):
        call()


# --- recurrence


def test_recurrence_equally_spaced_lattice():
    env = lattice_env(0.1)
    t_rec = recurrence_window(env)
    assert t_rec == pytest.approx(20 * np.pi, rel=1e-12)
    assert abs(decoherence_function(env, t_rec)) > 0.9999


def test_recurrence_two_points():
    env = SpectralDensity.discrete([[-0.5, 0.5], [0.5, 0.5]])
    assert recurrence_window(env) == pytest.approx(2 * np.pi)


def test_recurrence_of_points_spanning_past_the_double_range():
    # np.diff of the points overflows to inf here, which gave 0 and a RuntimeWarning.
    env = SpectralDensity.discrete([[-1e308, 0.5], [1e308, 0.5]])
    assert recurrence_window(env) == pytest.approx(np.pi / 1e308, rel=1e-15)


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


def test_az_trajectory_streams_states_from_one_chi_call(monkeypatch):
    import declab.models as models

    calls, built = [], []
    chi_trajectory, density = models.chi_trajectory, models.DensityOperator
    monkeypatch.setattr(models, "chi_trajectory", lambda *a: calls.append(a) or chi_trajectory(*a))
    monkeypatch.setattr(models, "DensityOperator", lambda m: built.append(m) or density(m))
    states = az_trajectory(sector_dense_az(np.random.default_rng(36)),
                           random_density(6, np.random.default_rng(37)), [0.0, 1.0, 2.0])
    assert calls == []
    next(states)
    assert len(calls) == 1 and len(built) == 1
    assert len(list(states)) == 2
    assert len(calls) == 1 and len(built) == 3


def test_az_trajectory_chunks_match_one_table_and_az_evolve(monkeypatch):
    import declab.models as models
    import declab.operators as operators

    rng = np.random.default_rng(39)
    sectors = block_diagonal_sectors([2, 1, 3])
    blocks = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in (2, 1, 3)]
    h_s = scipy.linalg.block_diag(*(m + m.conj().T for m in blocks))
    model = ArakiZurekModel(sectors, [1.5, 0.0, -2.0], h_s, lattice_env(), 1.5)
    rho0 = random_density(6, rng)
    ts = np.linspace(0.0, 7.0, 23)
    whole = [rho_t.matrix for rho_t in az_trajectory(model, rho0, ts)]
    calls = []
    chi_trajectory = models.chi_trajectory
    monkeypatch.setattr(models, "chi_trajectory", lambda *a: calls.append(a) or chi_trajectory(*a))
    # 3 pairs: two times per chunk.
    monkeypatch.setattr(operators, "TABLE_ELEMENTS", 2 * 3)
    chunked = [rho_t.matrix for rho_t in az_trajectory(model, rho0, ts)]
    assert len(calls) == 12 and {a[1].size for a in calls} == {6, 3}
    monkeypatch.undo()
    for t, a, b in zip(ts, whole, chunked):
        assert np.array_equal(a, b)
        assert np.array_equal(a, az_evolve(model, rho0, t).matrix)


BAD_AZ_INPUT = [
    (3, [0.0, 1.0], DimensionMismatch),
    (6, [0.0, np.nan, 1.0], ValueError),
    (6, [np.inf], ValueError),
]


@pytest.mark.parametrize("dim, ts, error", BAD_AZ_INPUT, ids=["dimension", "nan", "inf"])
def test_az_trajectory_rejects_bad_input_at_the_call(dim, ts, error):
    rng = np.random.default_rng(38)
    with pytest.raises(error):
        az_trajectory(sector_dense_az(rng), random_density(dim, rng), ts)


@pytest.mark.parametrize("dim, ts, error", BAD_AZ_INPUT, ids=["dimension", "nan", "inf"])
def test_az_coherence_rejects_bad_input(dim, ts, error):
    rng = np.random.default_rng(38)
    with pytest.raises(error):
        az_coherence(sector_dense_az(rng), random_density(dim, rng), ts)


def rotated_az(rng, env=GAUSS):
    """Three rotated sectors of a 7-dimensional space, with an h_s that commutes
    with them and is dense in every basis block."""
    sectors = random_sectors(7, 3, rng)
    h_s = sector_mask(random_hermitian(7, rng), sectors, np.eye(3))
    return ArakiZurekModel(sectors, [1.0, -0.5, 0.25], h_s, env, 0.5)


@pytest.mark.parametrize("env", [GAUSS, lattice_env()], ids=["gaussian", "discrete"])
@pytest.mark.parametrize("make", [sector_dense_az, rotated_az], ids=["blocks", "rotated"])
def test_az_coherence_matches_the_states_with_h_s(make, env):
    rng = np.random.default_rng(41)
    model = make(rng, env)
    rho0 = random_density(model.dim, rng)
    ts = np.linspace(0.0, 6.0, 25)
    norms, chi = az_coherence(model, rho0, ts)
    projectors = model.sectors.projectors
    probs = sector_probabilities(rho0, model.sectors)
    for t, hs, tr, rho_t in zip(ts, *norms, az_trajectory(model, rho0, ts)):
        w = rho_t.matrix
        # The states carry exp(-i h_s t); their norms come from the svd here.
        expected = schatten_norms(w - sum(p @ w @ p for p in projectors))
        assert abs(hs - expected.hs) < 1e-13 and abs(tr - expected.trace) < 1e-13
        assert np.abs(sector_probabilities(rho_t, model.sectors) - probs).max() < 1e-13
    gap = model.lambdas[0] - model.lambdas[1]
    assert np.abs(chi - chi_trajectory(env, gap * ts)).max() <= 1e-15


def test_az_coherence_bounds_its_stacks(monkeypatch):
    import tracemalloc

    import declab.models as models
    import declab.operators as operators

    d, count = 512, 1000
    model = ArakiZurekModel(block_diagonal_sectors([d]), [0.0], np.zeros((d, d)), lattice_env(), 1.0)
    rho0 = DensityOperator(np.eye(d) / d)
    tables, sizes = models._chi_tables, []

    def bounded(*args):
        for table in tables(*args):
            sizes.append(table.shape[0])
            # Checked before the stack is built: B d^2 within the bound, or B = 1.
            assert table.shape[0] <= max(1, operators.TABLE_ELEMENTS // d**2)
            yield table

    monkeypatch.setattr(models, "_chi_tables", bounded)
    # A 512 x 512 eigvalsh takes ~0.1 s, and spectra are not what is measured here.
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.zeros(a.shape[:-1]))
    tracemalloc.start()
    try:
        norms, chi = az_coherence(model, rho0, np.linspace(0.0, 10.0, count))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(sizes) == count
    # A stack of all 1000 states would take 4 GiB, and one state takes 4 MiB.
    assert peak < 32 * 2**20
    assert not norms.hs.any() and np.array_equal(chi, np.ones(count))


def test_az_certificate_clears_only_states_the_full_check_accepts():
    import declab.models as models

    rng = np.random.default_rng(52)
    cleared = total = 0
    for _ in range(150):
        k, b = int(rng.integers(1, 9)), 6
        index = np.repeat(np.arange(k), rng.integers(1, 5, size=k))
        d = index.size
        # Unit-diagonal Gram tables of random rank, some pushed off positivity by up to 1e-8.
        g = rng.standard_normal((b, k, int(rng.integers(1, k + 1)))) * (1.0 + 0j)
        g += 1j * rng.standard_normal(g.shape)
        g /= np.linalg.norm(g, axis=-1, keepdims=True)
        table = g @ g.conj().transpose(0, 2, 1)
        noise = rng.standard_normal((b, k, k)) + 1j * rng.standard_normal((b, k, k))
        noise += noise.conj().transpose(0, 2, 1)
        noise[:, np.arange(k), np.arange(k)] = 0.0
        noise /= np.maximum(np.abs(np.linalg.eigvalsh(noise)).max(axis=-1), 1e-300)[:, None, None]
        push = rng.choice([0.0, 1e-14, 1e-11, 3e-11, 1e-10, 1e-8], size=b)
        table = table - push[:, None, None] * noise
        table[:, np.arange(k), np.arange(k)] = 1.0
        # States, near pure or spread out, with their smallest eigenvalue down to -STATE_TOL.
        vals = rng.dirichlet(np.full(d, rng.choice([0.05, 1.0])))
        low = rng.choice([-STATE_TOL, -0.9 * STATE_TOL, -0.5 * STATE_TOL, -1e-13, 0.0])
        if low:
            vals[np.argmin(vals)] = low
        u = haar_unitary(d, rng)
        x0 = (u * vals) @ u.conj().T
        x0 = (x0 + x0.conj().T) / 2.0
        unsure = models._uncertified(table, np.linalg.eigvalsh(x0))
        x = table[:, index[:, None], index] * x0
        for state in x[~unsure]:
            assert np.linalg.eigvalsh(state)[0] >= -STATE_TOL
        cleared, total = cleared + np.count_nonzero(~unsure), total + b
    assert 0.3 * total < cleared < total


BAD_TABLES = {
    "nan": np.array([[1.0, np.nan], [np.nan, 1.0]], dtype=complex),
    # chi = 3 is no overlap of environment states: C o rho0 has the eigenvalue -1.
    "not-gram": np.array([[1.0, 3.0], [3.0, 1.0]], dtype=complex),
}


@pytest.mark.parametrize("bad", [["nan"], ["not-gram"], ["nan", "not-gram"], ["not-gram", "nan"]],
                         ids="+".join)
def test_az_certificate_sends_only_uncleared_states_to_the_full_check(monkeypatch, bad):
    import declab.models as models
    from declab.states import require_positive

    good = np.array([[1.0, 0.5j], [-0.5j, 1.0]])
    table = np.array([good, *(BAD_TABLES[name] for name in bad), good])
    # Two sectors of two: the certificate runs where k < d.
    model = ArakiZurekModel(block_diagonal_sectors([2, 2]), [1.0, -1.0], np.zeros((4, 4)), GAUSS, 2.0)
    psi = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2.0)
    rho0 = DensityOperator(np.outer(psi, psi))
    index = np.repeat([0, 1], 2)
    x = table[:, index[:, None], index] * rho0.matrix
    # The error names the first state that fails, at t[1], by its own check.
    with pytest.raises(NotAState) as first:
        require_positive(x[1])
    checked = []
    monkeypatch.setattr(models, "_chi_tables", lambda *args: iter([table]))
    monkeypatch.setattr(models, "require_positive",
                        lambda a: checked.append(a) or require_positive(a))
    ts = np.linspace(0.0, 1.0, table.shape[0])
    with pytest.raises(NotAState) as err:
        az_coherence(model, rho0, ts)
    assert str(err.value) == f"t[1] = {float(ts[1])!r}: {first.value}"
    assert np.array_equal(checked[0], x[1:-1], equal_nan=True)
    # Then, to name the time, the chunk's states one at a time up to the first that fails.
    assert len(checked) == 3
    assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(checked[1:], x[:2]))


def test_a_dephased_state_that_is_not_one_names_its_time():
    # At t = 2e307 the phases v (l_m - l_n) t are rounded by far more than
    # 2 pi, so the chi table is no Gram matrix and C o rho0 no state.
    model = ArakiZurekModel(block_diagonal_sectors([1, 1, 1]), [0.0, 1.0, 3.0], np.zeros((3, 3)),
                            SpectralDensity.discrete([[-1.0, 0.5], [2.0, 0.5]]), 1.0)
    rho0 = DensityOperator(np.full((3, 3), 1.0 / 3.0))
    ts = [0.0, 1.0, 2e307]
    named = r"^t\[2\] = 2e\+307: smallest eigenvalue -0\.\d+ below -1e-10$"
    with pytest.raises(NotAState, match=named):
        az_coherence(model, rho0, ts)
    states = az_trajectory(model, rho0, ts)
    next(states), next(states)
    with pytest.raises(NotAState, match=named):
        next(states)


def test_az_coherence_checks_every_state_of_unit_sectors_in_full(monkeypatch):
    import declab.models as models
    from declab.states import require_positive

    checked = []
    monkeypatch.setattr(models, "_uncertified", lambda *a: pytest.fail("certificate ran with k = d"))
    monkeypatch.setattr(models, "require_positive",
                        lambda a: checked.append(a.shape) or require_positive(a))
    ts = np.linspace(0.0, 3.0, 7)
    az_coherence(simple_az(), bloch_to_density([0.6, 0.0, 0.8]), ts)
    assert checked == [(ts.size, 2, 2)]


def test_az_coherence_checks_no_state_stack_on_a_discrete_environment(monkeypatch):
    import declab.models as models

    k, size = 16, 4
    d = k * size
    v = np.linspace(-2.0, 2.0, 33)
    w = np.exp(-(v**2) / 2.0)
    env = SpectralDensity.discrete(np.column_stack([v, w / w.sum()]))
    model = ArakiZurekModel(block_diagonal_sectors([size] * k), np.linspace(-1.5, 1.5, k),
                            np.zeros((d, d)), env, 0.15)
    rho0 = random_density(d, np.random.default_rng(53))
    ts = np.linspace(0.0, 20.0, 100)
    eigvalsh, shapes, checked = np.linalg.eigvalsh, [], []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
    monkeypatch.setattr(models, "require_positive", lambda a: checked.append(a.shape))
    az_coherence(model, rho0, ts)
    assert checked == []
    # Per chunk one (B, k, k) certificate and one (B, d, d) trace norm; x0's spectrum once.
    tables = [s for s in shapes if s[1:] == (k, k)]
    assert sum(s[0] for s in tables) == ts.size
    assert sorted(shapes) == sorted([(d, d)] + tables + [(s[0], d, d) for s in tables])


def test_az_trajectory_bounds_its_chi_tables_by_sector_pairs(monkeypatch):
    import declab.models as models
    import declab.operators as operators

    k = 64
    model = ArakiZurekModel(block_diagonal_sectors([1] * k), 0.25 * np.arange(k), np.zeros((k, k)),
                            GAUSS, 0.25)
    tables, sizes = models._chi_tables, []

    def recorded(*args):
        for table in tables(*args):
            sizes.append(table.shape[0])
            yield table

    monkeypatch.setattr(models, "_chi_tables", recorded)
    # 63 distinct gaps over 2016 pairs: chunks sized by the gaps alone would
    # hold 1040 tables of 64 x 64, a 64 MiB chunk.
    rho0 = random_density(k, np.random.default_rng(54))
    next(az_trajectory(model, rho0, np.linspace(0.0, 50.0, 5000)))
    assert sizes == [operators.TABLE_ELEMENTS // (k * (k - 1) // 2)]
    assert sizes[0] * k * k <= 4 * operators.TABLE_ELEMENTS


@pytest.mark.parametrize("lambdas, distinct", [(0.25 * np.arange(8) - 1.0, 7),
                                               ([0.3, -1.1, 2.0, 0.7, -0.45], 10)],
                         ids=["equispaced", "irregular"])
def test_chi_tables_evaluate_each_distinct_gap_once(monkeypatch, lambdas, distinct):
    import declab.models as models

    lambdas, env, ts = np.asarray(lambdas), lattice_env(), np.linspace(-2.0, 30.0, 41)
    m, n = np.triu_indices(lambdas.size, 1)
    sizes, chi = [], models.chi_trajectory
    monkeypatch.setattr(models, "chi_trajectory", lambda *a: sizes.append(a[1].size) or chi(*a))
    tables = np.concatenate(list(models._chi_tables(lambdas, env, ts)))
    monkeypatch.undo()
    assert sum(sizes) == ts.size * distinct
    for i, j in zip(m, n):
        assert np.array_equal(tables[:, i, j], chi_trajectory(env, ts * (lambdas[i] - lambdas[j])))
        assert np.array_equal(tables[:, j, i], np.conj(tables[:, i, j]))
    assert np.array_equal(tables[:, np.arange(lambdas.size), np.arange(lambdas.size)],
                          np.ones((ts.size, lambdas.size)))


# --- correlated initial states


def test_correlated_single_term_reduces_to_factorized():
    rho0 = random_density(2, np.random.default_rng(34))
    for env in (GAUSS, lattice_env()):
        model = simple_az(h_s=np.diag([0.4, -0.4]), env=env)
        w0 = CorrelatedInitialState(((rho0.matrix, env),))
        for t in (0.0, 0.7, 2.1):
            assert np.array_equal(az_evolve(model, w0, t).matrix, az_evolve(model, rho0, t).matrix)


def test_correlated_zero_time_recovers_reduced_state():
    rho_a = 0.5 * bloch_to_density([0.8, 0, 0.2]).matrix
    rho_b = 0.5 * bloch_to_density([-0.8, 0, -0.2]).matrix
    w0 = CorrelatedInitialState(((rho_a, GAUSS), (rho_b, SpectralDensity.gaussian(2.0))))
    out = az_evolve(simple_az(), w0, 0.0)
    assert trace_distance(out, w0.reduced) < 1e-12


def test_correlated_offdiagonal_triangle_bound():
    # Opposite-sign coherences interfere, but never beat the termwise bound.
    model = simple_az()
    rho_a = 0.5 * bloch_to_density([1, 0, 0]).matrix
    rho_b = 0.5 * bloch_to_density([-1, 0, 0]).matrix
    envs = (GAUSS, SpectralDensity.gaussian(2.0))
    w0 = CorrelatedInitialState(((rho_a, envs[0]), (rho_b, envs[1])))
    for t in (0.2, 0.6, 1.1):
        out = az_evolve(model, w0, t)
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


def test_correlated_term_of_wrong_dimension_fails_at_the_call():
    w0 = CorrelatedInitialState(((np.eye(3) / 3, GAUSS),))
    with pytest.raises(DimensionMismatch):
        az_trajectory(simple_az(), w0, [0.0, 1.0])


# --- dephasing against brute force, in the standard basis and in rotated frames

SECTOR_DIMS, SECTOR_LAMBDAS = [2, 1, 2], [1.0, -0.5, -2.0]


def _dephasing_sectors(frame, rng):
    """Sectors of SECTOR_DIMS as a block-diagonal structure, or as projector
    matrices onto consecutive columns of a random unitary."""
    if frame == "standard":
        return block_diagonal_sectors(SECTOR_DIMS), np.eye(5)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    cuts = np.cumsum([0] + SECTOR_DIMS)
    return SectorStructure([q[:, lo:hi] @ q[:, lo:hi].conj().T
                            for lo, hi in zip(cuts[:-1], cuts[1:])]), q


def _dephasing_problem(frame, rng):
    """Sectors, their frame, h_s dense inside every sector and the coupling V_s."""
    sectors, q = _dephasing_sectors(frame, rng)
    inside = np.repeat(np.arange(3), SECTOR_DIMS)
    g = np.where(inside[:, None] == inside, random_hermitian(5, rng), 0.0)
    v = np.diag(np.repeat(SECTOR_LAMBDAS, SECTOR_DIMS))
    return sectors, q, q @ g @ q.conj().T, q @ v @ q.conj().T


def _brute_force_reduced(h_s, v_s, points, terms, t):
    """sum_k expm(-i H_k t) (sum_mu w_mu,k rho_mu) expm(-i H_k t)^H, H_k = h_s + v_k V_s:
    the reduced state of sum_mu rho_mu x diag(w_mu) under h_s x 1 + V_s x diag(v)."""
    out = 0.0
    for k, v in enumerate(points):
        u = scipy.linalg.expm(-1j * t * (h_s + v * v_s))
        out = out + u @ sum(w[k] * rho for rho, w in terms) @ u.conj().T
    return out


@pytest.mark.parametrize("frame", ["standard", "rotated"])
def test_correlated_matches_brute_force_on_one_grid(frame):
    rng = np.random.default_rng(61)
    sectors, _, h_s, v_s = _dephasing_problem(frame, rng)
    points = np.linspace(-1.2, 0.9, 9)
    weights = [np.full(9, 1.0 / 9), np.exp(-points) / np.exp(-points).sum()]
    rho = random_density(5, rng).matrix
    terms = [(0.3 * rho + 0.04 * np.eye(5), weights[0]), (0.7 * rho - 0.04 * np.eye(5), weights[1])]
    w0 = CorrelatedInitialState(tuple((r, SpectralDensity.discrete(np.column_stack([points, w])))
                                      for r, w in terms))
    model = ArakiZurekModel(sectors, SECTOR_LAMBDAS, h_s, w0.terms[0][1], 1.5)
    for t in (0.0, 0.8, 3.7):
        expected = _brute_force_reduced(h_s, v_s, points, terms, t)
        assert np.abs(az_evolve(model, w0, t).matrix - expected).max() < 1e-12
    ts = np.linspace(0.0, 3.7, 7)
    for t, state in zip(ts, az_trajectory(model, w0, ts), strict=True):
        expected = _brute_force_reduced(h_s, v_s, points, terms, t)
        assert np.abs(state.matrix - expected).max() < 1e-12
        assert np.array_equal(state.matrix, az_evolve(model, w0, t).matrix)


def test_az_trajectory_in_a_rotated_frame_matches_brute_force():
    rng = np.random.default_rng(62)
    sectors, _, h_s, v_s = _dephasing_problem("rotated", rng)
    points = np.linspace(-1.0, 1.0, 7)
    env = SpectralDensity.discrete(np.column_stack([points, np.full(7, 1.0 / 7)]))
    model = ArakiZurekModel(sectors, SECTOR_LAMBDAS, h_s, env, 1.5)
    rho0 = random_density(5, rng)
    ts = np.linspace(0.0, 6.0, 7)
    for t, state in zip(ts, az_trajectory(model, rho0, ts)):
        expected = _brute_force_reduced(h_s, v_s, points, [(rho0.matrix, np.ones(7))], t) / 7
        assert np.abs(state.matrix - expected).max() < 1e-12


@pytest.mark.parametrize("frame", ["standard", "rotated"])
def test_az_trajectory_drops_a_tolerated_intersector_leak(frame):
    # A leak of 1e-12 relative passes validation; the evolution takes h_s as
    # exactly block-diagonal, so sector probabilities stay put.  A narrow
    # environment keeps the coherences through which a leak would move them.
    rng = np.random.default_rng(63)
    sectors, q, h_s, _ = _dephasing_problem(frame, rng)
    inside = np.repeat(np.arange(3), SECTOR_DIMS)
    leak = np.where(inside[:, None] != inside, random_hermitian(5, rng), 0.0)
    h_s = h_s + 1e-12 * np.linalg.norm(h_s) / np.linalg.norm(leak) * (q @ leak @ q.conj().T)
    narrow = SpectralDensity.discrete([[-1e-3, 0.5], [1e-3, 0.5]])
    model = ArakiZurekModel(sectors, SECTOR_LAMBDAS, h_s, narrow, 1.5)
    rho0 = random_density(5, rng)
    start = sector_probabilities(rho0, sectors)
    for state in az_trajectory(model, rho0, np.linspace(0.0, 50.0, 11)):
        assert np.abs(sector_probabilities(state, sectors) - start).max() <= 1e-15


# --- spin model kinematics


def axis_factors(alpha, beta):
    return [[alpha**2, beta**2, alpha * beta, alpha, beta]]


def test_rotation_axis_examples():
    # n = alpha e_t + beta e_3 for the field (a_1, a_2, a_3 + lam x).
    factors = _factors(SpinModel(a=[0, 0, 1], b=1.0, lam=0.0, env_diag=GAUSS), np.array([5.0]))
    assert np.allclose(factors, axis_factors(0.0, 1.0))

    factors = _factors(SpinModel(a=[0, 0, 0], b=1.0, lam=1.0, env_diag=GAUSS), np.array([2.0]))
    assert np.allclose(factors, axis_factors(0.0, 1.0))

    factors = _factors(SpinModel(a=[1, 0, 1], b=1.0, lam=1.0, env_diag=GAUSS), np.array([1.0]))
    assert np.allclose(factors, axis_factors(1 / np.sqrt(5), 2 / np.sqrt(5)))

    factors = _factors(SpinModel(a=[0, 3, 1], b=1.0, lam=1.0, env_diag=GAUSS), np.array([-5.0]))
    assert np.allclose(factors, axis_factors(3 / 5, -4 / 5))


def test_rotation_axis_zero_field_convention():
    factors = _factors(SpinModel(a=[0, 0, 1], b=1.0, lam=1.0, env_diag=GAUSS), np.array([-1.0]))
    assert np.array_equal(factors, axis_factors(0.0, 1.0))
    # There the rate is 0 too: a point of zero field leaves p where it is.
    point = SpectralDensity.discrete([[-1.0, 1.0]])
    p = np.array([0.3, -0.5, 0.6])
    model = SpinModel(a=[0, 0, 1], b=1.0, lam=1.0, env_diag=point)
    assert np.array_equal(spin_trajectory(model, p, [0.0, 1.0, 1e300]), np.tile(p, (3, 1)))


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
        out = spin_trajectory(model, p, [t])[0]
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


def test_asymptotic_map_of_a_field_past_half_the_double_range_is_its_axis():
    # Twice the field's norm, 3.4e308, overflowed with a RuntimeWarning.
    model = SpinModel(a=[1.0, 0.0, 1.7e308], b=0.3, lam=1.0, env_diag=GAUSS)
    # Within the spacing of doubles just below 1, 2^-53 = 1.1e-16.
    assert np.abs(asymptotic_map(model) - np.diag([0.0, 0.0, 1.0])).max() <= 2.0**-53


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


def test_spin_asymptotics_distances_are_trace_distances():
    model = SpinModel(a=[1, 0, 2], b=0.3, lam=1.0, env_diag=GAUSS)
    p, t_grid = [0.7, 0.2, 0.5], np.linspace(2.0, 22.0, 41)
    rows = spin_asymptotics(model, p, t_grid)
    target = bloch_to_density(asymptotic_map(model) @ p)
    want = [trace_distance(bloch_to_density(q), target) for q in spin_trajectory(model, p, t_grid)]
    assert np.array_equal(rows[:, 0], t_grid)
    assert np.abs(rows[:, 1] - want).max() <= 1e-15


def test_spin_asymptotics_rejects_a_polarization_outside_the_ball(monkeypatch):
    import declab.models as models

    def spin_trajectory(model, p, ts):
        pols = np.zeros((ts.size, 3))
        pols[1:, 0] = [1.0 + 1e-9, 0.5]
        return pols

    monkeypatch.setattr(models, "spin_trajectory", spin_trajectory)
    model = SpinModel(a=[1, 0, 2], b=0.3, lam=1.0, env_diag=GAUSS)
    with pytest.raises(OutsideBall, match=r"\|p\| = .*1\.000000001.* exceeds 1"):
        spin_asymptotics(model, [0.7, 0.2, 0.5], np.linspace(0.0, 2.0, 3))


BAD_POLARIZATIONS = [([np.nan, 0.0, 0.0], ValueError), ([0.0, np.inf, 0.0], ValueError),
                     ([0.6, 0.8], DimensionMismatch), ([[0.6, 0.0, 0.8]], DimensionMismatch)]


@pytest.mark.parametrize("env", [GAUSS, GAUSS.discretize(16)], ids=["continuous", "discrete"])
@pytest.mark.parametrize("p, error", BAD_POLARIZATIONS, ids=["nan", "inf", "two", "row"])
def test_spin_rejects_a_bad_polarization_before_integrating(monkeypatch, env, p, error):
    # A nan p used to run the strip until its panel budget ran out (8 s at
    # 201 times), or return nan with warnings on a discrete environment.
    import declab.models as models

    calls = []
    for name in ("_strip", "gauss_legendre_adaptive", "_trajectory"):
        monkeypatch.setattr(models, name, lambda *a, name=name: calls.append(name))
    model = SpinModel(a=[1.0, 0.0, 2.0], b=0.3, lam=1.0, env_diag=env)
    match = "p must be finite" if error is ValueError else r"p must have shape \(3,\)"
    with pytest.raises(error, match=match):
        spin_trajectory(model, p, np.linspace(0.0, 10.0, 201))
    with pytest.raises(error, match=match):
        spin_asymptotics(model, p, np.linspace(0.0, 10.0, 201))
    assert calls == []


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


def _kron_expm_oracle(terms, rho0, w, t):
    """tr_E e^(-iHt) (rho0 x diag w) e^(iHt), H = sum of kron(system, diag(env)) terms."""
    h = sum(np.kron(a, np.diag(e)) for a, e in terms)
    u = scipy.linalg.expm(-1j * t * h)
    joint = u @ np.kron(rho0, np.diag(w)) @ u.conj().T
    d, n = rho0.shape[0], w.size
    return np.einsum("ikjk->ij", joint.reshape(d, n, d, n))


def test_oracle_matches_a_dense_kron_expm_reference():
    rng = np.random.default_rng(46)
    sigma = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]

    env = GAUSS.discretize(24)
    v, w = env.points[:, 0], env.points[:, 1]
    a, b, lam = np.array([0.8, -0.4, 1.5]), 0.3, 1.1
    spin = SpinModel(a=a, b=b, lam=lam, env_diag=env)
    rho0 = bloch_to_density([0.5, 0.4, -0.6])
    h_s = sum(c * s for c, s in zip(a, sigma))
    terms = [(h_s, np.ones(v.size)), (np.eye(2), b * v**2), (lam * sigma[2], v)]
    for t in (0.0, 1.3, 7.9):
        expected = _kron_expm_oracle(terms, rho0.matrix, w, t)
        assert np.abs(full_simulation_oracle(spin, rho0, t, v.size).matrix - expected).max() < 1e-13

    env = GAUSS.discretize(20)
    v, w = env.points[:, 0], env.points[:, 1]
    dims, lambdas = [2, 1, 2], [1.0, -0.5, -2.0]
    blocks = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in dims]
    h_s = scipy.linalg.block_diag(*(0.3 * (m + m.conj().T) for m in blocks))
    az = ArakiZurekModel(block_diagonal_sectors(dims), lambdas, h_s, env, 1.5)
    rho0 = random_density(5, rng)
    terms = [(h_s, np.ones(v.size)), (np.diag(np.repeat(lambdas, dims)), v)]
    for t in (0.0, 1.3, 7.9):
        expected = _kron_expm_oracle(terms, rho0.matrix, w, t)
        assert np.abs(full_simulation_oracle(az, rho0, t, v.size).matrix - expected).max() < 1e-13

    # h_s couples the two states of the [2, 1] model's first sector.
    env = GAUSS.discretize(24)
    v, w = env.points[:, 0], env.points[:, 1]
    h_s = np.zeros((3, 3), dtype=complex)
    h_s[:2, :2] = [[0.4, 0.2 - 0.1j], [0.2 + 0.1j, -0.3]]
    h_s[2, 2] = 0.7
    az = ArakiZurekModel(block_diagonal_sectors([2, 1]), [1.0, -1.0], h_s, env, 2.0)
    rho0 = random_density(3, np.random.default_rng(41))
    terms = [(h_s, np.ones(v.size)), (np.diag([1.0, 1.0, -1.0]), v)]
    for t in (0.0, 1.3, 7.9):
        expected = _kron_expm_oracle(terms, rho0.matrix, w, t)
        assert np.abs(full_simulation_oracle(az, rho0, t, v.size).matrix - expected).max() < 1e-13


def test_oracle_shares_no_code_with_the_closed_forms(monkeypatch):
    import declab.models as models
    import declab.operators as operators

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle called a closed-form or propagator path")

    for module, names in ((operators, ("propagator", "hermitian_eig", "partial_trace_env")),
                          (models, ("_sector_propagators", "chi_trajectory", "_trajectory",
                                    "_strip", "gauss_legendre_adaptive",
                                    "legendre_fourier", "_factors"))):
        for name in names:
            monkeypatch.setattr(module, name, forbidden)
    env = GAUSS.discretize(16)
    rho0 = random_density(2, np.random.default_rng(47))
    for model in (simple_az(h_s=np.diag([0.3, -0.5]), env=env),
                  SpinModel(a=[0.8, -0.4, 1.5], b=0.3, lam=1.0, env_diag=env)):
        assert full_simulation_oracle(model, rho0, 2.0, 16).dim == 2


def test_oracle_reports_an_eigensolver_failure(monkeypatch):
    def eigh(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    model = simple_az(env=GAUSS.discretize(8))
    rho0 = random_density(2, np.random.default_rng(48))
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    with pytest.raises(ConvergenceFailure, match="eigensolver failed"):
        full_simulation_oracle(model, rho0, 1.0, 8)


@pytest.mark.filterwarnings("error")
def test_oracle_rejects_a_non_finite_joint_hamiltonian():
    env = SpectralDensity.discrete([[-1e160, 0.5], [1e160, 0.5]])
    spin = SpinModel(a=[1.0, 0.0, 2.0], b=0.3, lam=1.0, env_diag=env)
    with pytest.raises(ValueError, match="non-finite"):
        full_simulation_oracle(spin, bloch_to_density([0.7, 0.2, 0.5]), 1.0, 2)


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
