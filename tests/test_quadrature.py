"""The adaptive quadrature kernel and the trajectory evaluators built on it."""

import numpy as np
import pytest

import declab.models
import declab.quadrature
from declab import (
    QuadratureFailure,
    SpectralDensity,
    SpinModel,
    asymptotic_map,
    chi_trajectory,
    decoherence_function,
    density_to_bloch,
    gauss_legendre_adaptive,
    spin_evolve,
    spin_horizon,
    spin_trajectory,
)
from declab.quadrature import (
    KERNEL_ELEMENTS,
    LEGENDRE_ORDER,
    MAX_PANELS,
    MIN_PANELS,
    NODES_PER_PANEL,
    legendre_panels,
    oscillation_horizon,
    oscillation_panels,
    spherical_jn,
)

# --- kernel


def test_adaptive_refines_a_narrow_peak():
    # 1/(1 + c^2 x^2) is far from polynomial near 0, so the initial panels
    # must be bisected; the result must still meet the tolerance.
    c = 100.0
    got = gauss_legendre_adaptive(lambda x: 1.0 / (1.0 + (c * x) ** 2), -1.0, 1.0, tol=1e-12)
    assert abs(got - 2.0 * np.arctan(c) / c) < 1e-12


def test_adaptive_array_values_meet_tolerance_per_component():
    # One slow and one fast component share the panels; the fast one decides
    # the refinement and the slow one keeps its accuracy.
    def f(x):
        return np.column_stack([np.cos(x), np.cos(40.0 * x)])

    got = gauss_legendre_adaptive(f, 0.0, 2.0, tol=1e-11)
    assert got.shape == (2,)
    assert np.abs(got - [np.sin(2.0), np.sin(80.0) / 40.0]).max() < 1e-11


def test_adaptive_is_deterministic():
    def f(x):
        return np.exp(-1j * 37.0 * x) / (1.0 + x**2)

    first = gauss_legendre_adaptive(f, -3.0, 3.0, tol=1e-10)
    assert all(gauss_legendre_adaptive(f, -3.0, 3.0, tol=1e-10) == first for _ in range(3))


def test_adaptive_rejects_empty_interval():
    with pytest.raises(ValueError):
        gauss_legendre_adaptive(np.cos, 1.0, 1.0)


def test_budget_exhaustion_names_budget_and_tolerance():
    # 8 panels of 250 rad each cannot converge within a 16-panel budget.
    with pytest.raises(QuadratureFailure, match=r"more than 16 panels for tolerance 1e-12"):
        gauss_legendre_adaptive(lambda x: np.exp(-1j * 1000.0 * x), -1.0, 1.0, tol=1e-12,
                                max_panels=16)


def test_oscillation_panels_span_half_a_period():
    assert oscillation_panels(-1.0, 1.0, 0.0) == MIN_PANELS
    assert oscillation_panels(-1.0, 1.0, 1.0) == MIN_PANELS
    for a, b, rate in [(-10.0, 10.0, 100.0), (-1.0, 1.0, 60.0), (0.0, 3.0, 1e4)]:
        n = oscillation_panels(a, b, rate)
        assert (b - a) / n * rate <= np.pi * (1 + 1e-15)
        assert (b - a) / (n - 1) * rate > np.pi
    assert oscillation_panels(-10.0, 10.0, 100.0) == 637


# --- trajectories

ENVS = [
    SpectralDensity.gaussian(1.0),
    SpectralDensity.uniform(-1.5, 0.5),
    SpectralDensity.bump(-2.0, 1.0),
    SpectralDensity.discrete([[-0.7, 0.2], [0.1, 0.5], [0.4, 0.3]]),
]
ENV_IDS = ["gaussian", "uniform", "bump", "discrete"]
# Unsorted, negative, zero and repeated times.
TIMES = np.array([3.0, -0.5, 0.0, 12.0, 3.0, -40.0, 0.25, 12.0, 75.0])


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def count_adaptive_calls(monkeypatch):
    # Every adaptive Gauss-Legendre entry (gauss_legendre_adaptive,
    # kernel_adaptive) runs the order-16/order-32 rule pair.
    return count_calls(monkeypatch, declab.quadrature, "_rule_pair")


@pytest.mark.parametrize("env", ENVS, ids=ENV_IDS)
def test_chi_trajectory_matches_pointwise(env):
    got = chi_trajectory(env, TIMES)
    assert got.shape == TIMES.shape
    expected = np.array([decoherence_function(env, t) for t in TIMES])
    assert np.abs(got - expected).max() < 1e-12


def test_chi_trajectory_closed_forms():
    ts = np.linspace(-30.0, 30.0, 61)
    gauss = chi_trajectory(SpectralDensity.gaussian(1.0), ts)
    assert np.abs(gauss - np.exp(-(ts**2) / 2.0)).max() < 1e-10
    uniform = chi_trajectory(SpectralDensity.uniform(-1.0, 1.0), ts)
    assert np.abs(uniform - np.sinc(ts / np.pi)).max() < 1e-10


def test_far_chi_trajectory_makes_no_adaptive_calls(monkeypatch):
    # Large times used to need several adaptive calls; the Legendre-Filon
    # rule needs none, and the result still matches pointwise calls.
    env = SpectralDensity.gaussian(1.0)
    ts = np.array([250.0, 100.0, 400.0, 150.0, 300.0, 200.0, 350.0])
    calls = count_adaptive_calls(monkeypatch)
    got = chi_trajectory(env, ts)
    expected = np.array([decoherence_function(env, t) for t in ts])
    assert not calls
    assert np.abs(got - expected).max() < 1e-12
    assert np.abs(got - np.exp(-(ts**2) / 2.0)).max() < 1e-10


FRESH_CONTINUOUS = {
    "gaussian": lambda: SpectralDensity.gaussian(1.0),
    "uniform": lambda: SpectralDensity.uniform(-1.0, 1.0),
    "bump": lambda: SpectralDensity.bump(-2.0, 1.0),
}


@pytest.mark.parametrize("kind", FRESH_CONTINUOUS)
def test_continuous_chi_makes_no_adaptive_calls(kind, monkeypatch):
    calls = count_adaptive_calls(monkeypatch)
    env = FRESH_CONTINUOUS[kind]()  # built after patching: the bump normalizes lazily
    chi_trajectory(env, np.linspace(0.0, 5.0, 51))
    decoherence_function(env, 1e5)
    env.density(np.linspace(-3.0, 3.0, 7))
    assert not calls


def test_trajectories_reject_empty_times():
    with pytest.raises(ValueError):
        chi_trajectory(SpectralDensity.gaussian(1.0), [])


SPIN_ENVS = [SpectralDensity.gaussian(1.0), SpectralDensity.gaussian(1.0).discretize(40)]


@pytest.mark.parametrize("env", SPIN_ENVS, ids=["gaussian", "discrete"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_trajectories_reject_non_finite_times(env, bad):
    model = SpinModel(a=[1.0, 0.0, 2.0], b=0.3, lam=1.0, env_diag=env)
    with pytest.raises(ValueError, match=r"times must be finite: t\[2\]"):
        chi_trajectory(env, [0.0, 1.0, bad])
    with pytest.raises(ValueError, match=r"times must be finite: t\[2\]"):
        spin_trajectory(model, [0.6, -0.3, 0.4], [0.0, 1.0, bad, 2.0])


@pytest.mark.parametrize("env", SPIN_ENVS, ids=["gaussian", "discrete"])
def test_spin_trajectory_matches_pointwise(env):
    model = SpinModel(a=[1.0, 0.4, 2.0], b=0.3, lam=0.8, env_diag=env)
    p = np.array([0.6, -0.3, 0.4])
    ts = np.array([4.0, 0.0, -1.5, 4.0, 30.0, 0.75])
    got = spin_trajectory(model, p, ts)
    assert got.shape == (ts.size, 3)
    expected = np.array([density_to_bloch(spin_evolve(model, p, t)) for t in ts])
    assert np.abs(got - expected).max() < 1e-12


def test_spin_trajectory_spans_several_blocks(monkeypatch):
    model = SpinModel(a=[1.0, 0.0, 2.0], b=0.3, lam=1.0, env_diag=SpectralDensity.gaussian(1.0))
    p = np.array([0.7, 0.2, 0.5])
    ts = np.linspace(600.0, 1200.0, 5)
    blocks = {}
    original = declab.quadrature._blocks

    def recorded(lo, hi, rate, tb):
        blocks[lo, hi] = list(original(lo, hi, rate, tb))
        return blocks[lo, hi]

    monkeypatch.setattr(declab.quadrature, "_blocks", recorded)
    got = spin_trajectory(model, p, ts)
    # The near region [x* - xi, x* + xi] of the fold x* = -2, xi = 1.
    assert len(blocks[-3.0, -1.0]) > 1
    expected = np.array([density_to_bloch(spin_evolve(model, p, t)) for t in ts])
    assert np.abs(got - expected).max() < 1e-12


def test_spin_horizon_is_where_the_pre_split_reaches_the_budget():
    gaussian = SpectralDensity.gaussian(1.0)
    model = SpinModel(a=[1.0, 0.0, 2.0], b=0.3, lam=1.0, env_diag=gaussian)
    horizon = spin_horizon(model)
    # Only the near region [x* - xi, x* + xi] = [-3, -1] is pre-split: x* = -2, xi = 1.
    assert horizon == pytest.approx(2**14 * np.pi / 4.0, rel=1e-15)
    assert oscillation_panels(-3.0, -1.0, 2.0 * horizon) == 2**14
    # Still resolved at the horizon itself.
    assert np.all(np.isfinite(spin_trajectory(model, [0.7, 0.2, 0.5], [horizon])))
    # lam = -4: x* = 0.5 and xi = 0.25, a quarter of the width at four times the rate.
    assert spin_horizon(SpinModel(a=[1.0, 0.0, 2.0], b=0.3, lam=-4.0, env_diag=gaussian)) == (
        pytest.approx(horizon, rel=1e-15))
    for env, lam in [(gaussian.discretize(16), 1.0), (gaussian, 0.0)]:
        assert spin_horizon(SpinModel(a=[1.0, 0.0, 2.0], b=0.3, lam=lam, env_diag=env)) == np.inf
    # A rate 2 |lam| (hi - lo) that underflows to 0 is no horizon either, not a ZeroDivisionError.
    narrow = SpectralDensity.uniform(0.0, 1e-295)
    assert spin_horizon(SpinModel(a=[1.0, 0.0, 2.0], b=0.3, lam=1e-30, env_diag=narrow)) == np.inf


def test_blocks_cover_the_grid_in_ascending_abs_t_within_the_bound():
    # Zero, repeated and negative times, and times whose pre-split alone
    # exceeds the bound (a block of one).
    ts = np.array([3.0, -0.5, 0.0, 12.0, 3.0, -40.0, 0.25, 600.0, -2000.0, 75.0, 450.0, -3.0])
    lo, hi, rate = -10.0, 10.0, 2.0
    blocks = list(declab.quadrature._blocks(lo, hi, rate, ts))
    order = np.concatenate([idx for idx, _ in blocks])
    assert np.array_equal(np.sort(order), np.arange(ts.size))
    assert np.all(np.diff(np.abs(ts[order])) >= 0)
    assert any(idx.size == 1 for idx, _ in blocks) and len(blocks) > 2
    for idx, n0 in blocks:
        assert n0 == oscillation_panels(lo, hi, rate * np.abs(ts[idx]).max())
        if idx.size > 1:
            assert n0 * NODES_PER_PANEL * idx.size <= KERNEL_ELEMENTS


def test_spin_trajectory_rows_follow_a_shuffled_grid_bit_for_bit():
    model = SpinModel(a=[1.0, 0.4, 2.0], b=0.3, lam=1.0, env_diag=SpectralDensity.gaussian(1.0))
    p = np.array([0.6, -0.3, 0.4])
    ts = np.linspace(-120.0, -1.0, 12) * np.array([1.0, -1.0] * 6)  # distinct |t|
    assert len(list(declab.quadrature._blocks(-10.0, 10.0, 2.0, ts))) >= 2
    shuffle = np.random.default_rng(10).permutation(ts.size)
    assert np.array_equal(spin_trajectory(model, p, ts[shuffle]),
                          spin_trajectory(model, p, ts)[shuffle])


def test_oscillation_horizon_is_the_budget_formula_exactly():
    # MAX_PANELS pi / (2 |lam| (hi - lo)) written out, inf where that product is 0.
    gaussian = SpectralDensity.gaussian(1.0)
    narrow = SpectralDensity.uniform(0.0, 1e-295)
    for env, lam in [(gaussian, 1.0), (gaussian, -4.0), (gaussian, 0.0), (narrow, 1e-30)]:
        lo, hi = env.support()
        span = 2.0 * abs(lam) * (hi - lo)
        want = MAX_PANELS * np.pi / span if span > 0 else float("inf")
        assert oscillation_horizon(lo, hi, 2.0 * abs(lam)) == want
    # The spin horizon is that of the near region [x* - xi, x* + xi] clipped to
    # the support, x* = -a_3 / lam, xi = |(a_1, a_2)| / |lam|: inf for lam = 0,
    # for m = 0 and for a fold more than xi outside; clipped at x* = -9.5.
    for env, a, lam in [(gaussian, [1.0, 0.0, 2.0], 1.0), (gaussian, [1.0, 0.0, 2.0], -4.0),
                        (gaussian, [1.0, 0.0, 2.0], 0.0), (narrow, [1.0, 0.0, 2.0], 1e-30),
                        (gaussian, [0.0, 0.0, 2.0], 1.0), (gaussian, [1.0, 0.4, 40.0], 1.0),
                        (gaussian, [0.6, 0.8, 9.5], 1.0)]:
        lo, hi = env.support()
        if lam:
            x_star, xi = -a[2] / lam, np.hypot(a[0], a[1]) / abs(lam)
            lo, hi = max(lo, x_star - xi), min(hi, x_star + xi)
        span = 2.0 * abs(lam) * (hi - lo)
        want = MAX_PANELS * np.pi / span if span > 0 else float("inf")
        assert spin_horizon(SpinModel(a=a, b=0.3, lam=lam, env_diag=env)) == want
    assert oscillation_horizon(*narrow.support(), 2e-30) == np.inf


# --- the rotation kernel against the per-time integrand closures it replaced


def reference_trajectory(env, ts, rate, integrand, tol):
    # integrand(x, tb, weight) -> (m, len(tb), ...), one generic adaptive call per block.
    if env.is_discrete:
        return integrand(env.points[:, 0], ts, env.points[:, 1]).sum(axis=0)
    lo, hi = env.support()
    out = None
    for idx, n0 in declab.quadrature._blocks(lo, hi, rate, ts):
        part = gauss_legendre_adaptive(lambda x: integrand(x, ts[idx], env.density(x)), lo, hi,
                                       tol=tol, initial_panels=n0)
        out = np.empty((ts.size,) + part.shape[1:]) if out is None else out
        out[idx] = part
    return out


def reference_spin_trajectory(model, p, ts, tol=1e-9):
    def rotated(x, tb, weight):
        n, omega = declab.models._axes(model, x)
        along = (n @ p)[:, None] * n
        phi = np.multiply.outer(omega, tb)[..., None]
        out = np.cos(phi) * (weight[:, None] * (p - along))[:, None, :]
        out += np.sin(phi) * (weight[:, None] * np.cross(n, p))[:, None, :]
        return out + (weight[:, None] * along)[:, None, :]

    return reference_trajectory(model.env_diag, ts, 2.0 * abs(model.lam), rotated, tol)


def reference_asymptotic_map(model, tol=1e-9):
    def projectors(x, tb, weight):
        n, _ = declab.models._axes(model, x)
        return (weight[:, None, None] * (n[:, :, None] * n[:, None, :]))[:, None]

    return reference_trajectory(model.env_diag, np.zeros(1), 0.0, projectors, tol)[0]


# A generic field; one along the coupling axis, whose axis flips sign at
# x = -a_3 / lam; a strong negative coupling; a fold at x* = -40, far outside
# every support, where rounding of x* or of the rate would show in the far
# branch's abscissae.
FIELDS = [([1.0, 0.4, 2.0], 0.8), ([0.0, 0.0, 2.0], 1.0), ([1.0, 0.4, 2.0], -3.0),
          ([1.0, 0.4, 40.0], 1.0)]
FIELD_IDS = ["generic", "axis_flip", "negative_lam", "far_fold"]


@pytest.mark.parametrize("a, lam", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("env", ENVS, ids=ENV_IDS)
def test_kernel_path_matches_the_integrand_closures(env, a, lam):
    model = SpinModel(a=a, b=0.3, lam=lam, env_diag=env)
    p = np.array([0.6, -0.3, 0.4])
    got = spin_trajectory(model, p, TIMES)
    assert np.abs(got - reference_spin_trajectory(model, p, TIMES)).max() < 1e-13
    for tol in (1e-9, 1e-12):
        want = reference_asymptotic_map(model, tol)
        assert np.abs(asymptotic_map(model, tol) - want).max() < 1e-13


def test_kernel_path_matches_the_integrand_closures_at_the_horizon():
    model = SpinModel(a=[1.0, 0.4, 2.0], b=0.3, lam=1.0, env_diag=SpectralDensity.gaussian(1.0))
    p = np.array([0.7, 0.2, 0.5])
    # The horizon of the whole support, as far as the reference's pre-split reaches.
    horizon = 2**14 * np.pi / 40.0
    ts = np.array([horizon, -horizon / 3.0])
    got = spin_trajectory(model, p, ts)
    assert np.abs(got - reference_spin_trajectory(model, p, ts)).max() < 1e-13


# --- beyond the whole support's horizon, against a dense rule sharing no declab code

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(20)


def dense_spin_reference(a, lam, p, t):
    """The unit-gaussian average of rotated p by composite 20-node Gauss-Legendre.

    Panels of [-10, 10] span at most 3 rad of the phase 2 |h(x)| t, whose rate
    is at most 2 |lam| t, and one panel edge sits at the fold x* = -a_3 / lam.
    """
    a1, a2, a3 = a
    x_star = -a3 / lam
    edges = [-10.0] + [x_star] * (-10.0 < x_star < 10.0) + [10.0]
    sums = np.zeros(5)
    for lo, hi in zip(edges[:-1], edges[1:]):
        n = int(np.ceil(2.0 * abs(lam * t) * (hi - lo) / 3.0))
        half = (hi - lo) / (2 * n)
        for start in range(0, n, 2**14):
            centres = lo + (2 * np.arange(start, min(n, start + 2**14)) + 1) * half
            x = (centres[:, None] + half * _NODES).ravel()
            w = np.tile(half * _WEIGHTS, centres.size) * np.exp(-x * x / 2.0) / np.sqrt(2.0 * np.pi)
            hz = a3 + lam * x
            norm = np.sqrt(a1 * a1 + a2 * a2 + hz * hz)
            cos, sin = np.cos(2.0 * t * norm), np.sin(2.0 * t * norm)
            settle = w * (1.0 - cos) * (a1 * p[0] + a2 * p[1] + hz * p[2]) / norm**2
            turn = w * sin / norm
            sums += [settle.sum(), settle @ hz, w @ cos, turn.sum(), turn @ hz]
    s, s_z, c, q, r = sums
    # With h = (a1, a2, hz): p turns to along + cos (p - along) + sin n x p,
    # along = (h.p) h / |h|^2 and n x p = h x p / |h|.
    return (s * np.array([a1, a2, 0.0]) + [0.0, 0.0, s_z] + c * p
            + q * np.array([a2 * p[2], -a1 * p[2], a1 * p[1] - a2 * p[0]])
            + r * np.array([-p[1], p[0], 0.0]))


@pytest.mark.parametrize("a, t", [([1.0, 0.0, 2.0], 5000.0), ([1.0, 0.0, 2.0], 12000.0),
                                  ([0.5, 0.0, 2.0], 2e4), ([0.0, 0.0, 2.0], 2e4),
                                  ([1.0, 0.4, 40.0], 2e4)],
                         ids=["t5000", "t12000", "m0.5", "m0", "far_fold"])
def test_spin_beyond_the_whole_support_horizon_matches_a_dense_rule(a, t):
    # The whole support's horizon is 2**14 pi / 40 ~ 1287; only the near region's bounds t now.
    model = SpinModel(a=a, b=0.3, lam=1.0, env_diag=SpectralDensity.gaussian(1.0))
    p = np.array([0.7, 0.2, 0.5])
    assert t > 2**14 * np.pi / 40.0 and t <= spin_horizon(model)
    got = spin_trajectory(model, p, [t])[0]
    assert np.abs(got - dense_spin_reference(a, 1.0, p, t)).max() < 1e-12


@pytest.mark.parametrize("env", [ENVS[-1], SpectralDensity.gaussian(1.0).discretize(40)],
                         ids=["three_points", "forty_points"])
def test_discrete_chi_is_the_weighted_sum_of_phases(env):
    v, w = env.points.T
    want = np.exp(-1j * np.multiply.outer(TIMES, v)) @ w
    assert np.abs(chi_trajectory(env, TIMES) - want).max() < 1e-14


# --- Legendre-Filon chi

FAR_TIMES = np.array([0.0, 0.5, -0.5, 1.0, 10.0, 1e3, 1e4, 1.005e5, 1e6, 1e8])


def test_filon_chi_matches_closed_forms_at_any_time():
    gauss = chi_trajectory(SpectralDensity.gaussian(1.0), FAR_TIMES)
    assert np.abs(gauss - np.exp(-(FAR_TIMES**2) / 2.0)).max() < 1e-14
    uniform = chi_trajectory(SpectralDensity.uniform(-1.0, 1.0), FAR_TIMES)
    assert np.abs(uniform - np.sinc(FAR_TIMES / np.pi)).max() < 1e-14
    # A shifted support only adds the phase exp(-i c t).
    shifted = chi_trajectory(SpectralDensity.uniform(0.5, 2.5), FAR_TIMES)
    assert np.abs(shifted - np.exp(-1.5j * FAR_TIMES) * np.sinc(FAR_TIMES / np.pi)).max() < 1e-14
    # On a dense grid both stay within 2 ulps of 1 (the adaptive rule was at
    # 3.4e-16; Legendre coefficients built from numpy's double-precision
    # Gauss-Legendre nodes and weights put them at ~7e-16).
    ts = np.linspace(-60.0, 60.0, 1201)
    assert np.abs(chi_trajectory(SpectralDensity.gaussian(1.0), ts)
                  - np.exp(-(ts**2) / 2.0)).max() <= 2 * np.finfo(float).eps
    assert np.abs(chi_trajectory(SpectralDensity.uniform(-1.0, 1.0), ts)
                  - np.sinc(ts / np.pi)).max() <= 2 * np.finfo(float).eps


@pytest.mark.parametrize("env", ENVS, ids=ENV_IDS)
def test_chi_of_negative_time_is_the_conjugate(env):
    ts = np.concatenate([np.linspace(0.0, 40.0, 81), [1e3, 1.005e5, 1e8]])
    assert np.array_equal(chi_trajectory(env, -ts), np.conj(chi_trajectory(env, ts)))


def test_bump_matches_direct_adaptive_integral():
    # Normalization and transform both taken independently of the expansion.
    a, b = -2.0, 1.0
    env = SpectralDensity.bump(a, b)

    def shape(v):
        u = (2.0 * v - a - b) / (b - a)
        return np.exp(-1.0 / (1.0 - u**2))

    norm = gauss_legendre_adaptive(shape, a, b, tol=1e-14)
    ts = np.array([0.0, 0.3, 1.0, 7.5, 20.0, 55.0, 100.0])
    direct = [
        gauss_legendre_adaptive(lambda v: shape(v) * np.exp(-1j * v * t), a, b, tol=1e-14,
                                initial_panels=oscillation_panels(a, b, t)) / norm
        for t in ts
    ]
    assert np.abs(chi_trajectory(env, ts) - direct).max() < 1e-12


@pytest.mark.parametrize("kind", FRESH_CONTINUOUS)
def test_panels_do_not_depend_on_the_requested_times(kind):
    near, far = FRESH_CONTINUOUS[kind](), FRESH_CONTINUOUS[kind]()
    chi_trajectory(near, [0.5])
    chi_trajectory(far, [1e8, 3.0, 1e4])
    first = near.expansion()
    chi_trajectory(near, np.linspace(0.0, 1e6, 7))
    assert near.expansion() is first
    for got, want in zip(far.expansion(), first):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("a, b", [(5.0, 1e4), (1e6, 1e6 + 1.0), (-1e-4, 1e-4)])
def test_bump_on_any_support_is_the_unit_bump_moved_and_scaled(a, b):
    # Sampling at points of a far-off or wide support used to run the
    # panel bisection out of budget; the expansion does not depend on it.
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    unit, env = SpectralDensity.bump(-1.0, 1.0), SpectralDensity.bump(a, b)
    assert np.array_equal(env.expansion().coeffs, unit.expansion().coeffs)
    ts = np.array([0.0, 0.5, 3.0, 40.0])
    moved = np.exp(-1j * mid * ts / half) * chi_trajectory(unit, ts)
    assert np.abs(chi_trajectory(env, ts / half) - moved).max() < 1e-12
    assert env.density(np.array([mid]))[0] == pytest.approx(unit.density(np.array([0.0]))[0] / half,
                                                           rel=1e-15)


def test_constant_density_is_one_term_on_one_panel():
    # Round-off in its higher coefficients would otherwise keep all of them.
    expansion = SpectralDensity.uniform(-1.5, 0.5).expansion()
    assert expansion.coeffs.shape == (1, 1)
    assert expansion.coeffs[0, 0] == 1.0


def test_tolerance_below_the_tail_estimate_raises():
    env = SpectralDensity.gaussian(1.0)
    tail = env.expansion().tail
    assert 0.0 < tail < 1e-14
    assert chi_trajectory(env, [2.0], tol=tail)[0] == pytest.approx(np.exp(-2.0), abs=1e-15)
    with pytest.raises(QuadratureFailure, match=f"tolerance {tail / 10:g} .* estimate {tail:g}"):
        chi_trajectory(env, [2.0], tol=tail / 10)
    with pytest.raises(QuadratureFailure):
        decoherence_function(env, 2.0, tol=0.0)


def test_chi_phase_overflow_names_the_time():
    # h |t| beyond the double range used to end in an OverflowError from spherical_jn.
    with pytest.raises(ValueError, match=r"t\[1\] = -1e\+200 times the panel half-width"):
        chi_trajectory(SpectralDensity.gaussian(1e150), [1.0, -1e200, 2e200])
    assert np.isfinite(chi_trajectory(SpectralDensity.gaussian(1e150), [-1e150])).all()


def test_legendre_panels_report_their_budget_failure():
    # ~3e5 oscillations need more than 2**14 panels of 16 terms each.
    with pytest.raises(QuadratureFailure, match="more than 16384 Legendre panels"):
        legendre_panels(lambda centres, offsets: np.cos(1e6 * (centres[:, None] + offsets)),
                        -1.0, 1.0)


def test_legendre_components_share_their_panels_and_transform_together():
    # f(v) = (1, v^2) times the unit gaussian: transforms exp(-t^2/2) and
    # (1 - t^2) exp(-t^2/2), from one bisection for both components.
    def f(centres, offsets):
        v = centres[:, None] + offsets
        g = np.exp(-v**2 / 2.0) / np.sqrt(2.0 * np.pi)
        return np.stack([g, v**2 * g], axis=-1)

    panels = legendre_panels(f, -10.0, 10.0)
    assert panels.coeffs.shape[0] == panels.centres.size and panels.coeffs.shape[2] == 2
    ts = np.array([0.0, 0.7, -2.5, 6.0, 40.0])
    got = declab.quadrature.legendre_fourier(panels, ts, 1e-12)
    assert got.shape == (ts.size, 2)
    want = np.exp(-ts**2 / 2.0)[:, None] * np.column_stack([np.ones_like(ts), 1.0 - ts**2])
    assert np.abs(got - want).max() < 1e-14


# z near every k (where the forward and backward recurrences meet), near the
# zeros of j_0, tiny and huge.
_INTS = np.arange(1.0, LEGENDRE_ORDER + 2.0)
_ZEROS = np.pi * np.arange(1.0, 8.0)
JN_Z = np.unique(np.concatenate([
    [0.0, 1e-300, 1e-10, 1e-3, 0.5], np.linspace(0.01, LEGENDRE_ORDER + 2.0, 400),
    _INTS, np.nextafter(_INTS, 0.0), _INTS + 1e-9, _INTS - 0.5,
    _ZEROS, np.nextafter(_ZEROS, 0.0), np.nextafter(_ZEROS, 10.0),
    np.geomspace(LEGENDRE_ORDER + 2.0, 1e6, 60),
]))
KMAX = LEGENDRE_ORDER - 1
EPS = np.finfo(float).eps


def test_spherical_jn_matches_scipy():
    special = pytest.importorskip("scipy.special")
    got = spherical_jn(KMAX, JN_Z)
    assert got.shape == (KMAX + 1, JN_Z.size)
    ref = np.array([special.spherical_jn(k, JN_Z) for k in range(KMAX + 1)])
    # |j_k| <= 1.  scipy's own error reaches ~7 ulps of 1 near z ~ k (against
    # 40-digit mpmath), so that is the bound here; see the mpmath test.
    assert np.abs(got - ref).max() <= 8 * EPS
    # Same shape in, same shape out.
    assert spherical_jn(3, JN_Z[:6].reshape(2, 3)).shape == (4, 2, 3)


def test_spherical_jn_matches_mpmath_to_a_few_ulps():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    z = JN_Z[::4]
    got = spherical_jn(KMAX, z)
    ref = np.array([
        [float(mpmath.sqrt(mpmath.pi / (2 * mpmath.mpf(x))) * mpmath.besselj(k + 0.5, mpmath.mpf(x)))
         if x else float(k == 0) for x in z]
        for k in range(KMAX + 1)
    ])
    assert np.abs(got - ref).max() <= 2 * EPS
    # Tiny values below z = 1 keep their relative accuracy.
    small = (z > 1e-200) & (z < 1.0)
    rel = np.abs(got[:, small] - ref[:, small]) / np.abs(ref[:, small])
    assert rel.max() <= 4 * (KMAX + 1) * EPS


def test_spherical_jn_below_1e_300_is_its_value_at_zero():
    z = np.array([0.0, 5e-324, 1e-310, 9e-301])
    at_zero = spherical_jn(KMAX, [0.0])
    assert np.array_equal(spherical_jn(KMAX, z), np.repeat(at_zero, z.size, axis=1))
    # So chi at such times is chi(0), where (2k + 1) / z used to overflow into nan.
    for env in (SpectralDensity.gaussian(1.0), SpectralDensity.uniform(-1.0, 2.0),
                SpectralDensity.bump(-1.0, 1.0)):
        chi = chi_trajectory(env, [0.0, 5e-324, -1e-310, 1.8e-307])
        assert np.abs(chi - chi[0]).max() < 1e-15
