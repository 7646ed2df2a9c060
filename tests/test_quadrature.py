"""The adaptive quadrature kernel and the trajectory evaluators built on it."""

import numpy as np
import pytest

import declab.models
from declab import (
    QuadratureFailure,
    SpectralDensity,
    SpinModel,
    chi_trajectory,
    decoherence_function,
    density_to_bloch,
    gauss_legendre_adaptive,
    spin_evolve,
    spin_trajectory,
)
from declab.quadrature import MIN_PANELS, oscillation_panels

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


def count_calls(monkeypatch):
    calls = []
    original = declab.models.gauss_legendre_adaptive

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(declab.models, "gauss_legendre_adaptive", counted)
    return calls


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


def test_chi_trajectory_spans_several_blocks(monkeypatch):
    # At t = 400 one time alone fills half of a block, so seven large times
    # need several adaptive calls; the result must not depend on the split.
    env = SpectralDensity.gaussian(1.0)
    ts = np.array([250.0, 100.0, 400.0, 150.0, 300.0, 200.0, 350.0])
    calls = count_calls(monkeypatch)
    got = chi_trajectory(env, ts)
    assert len(calls) > 1
    expected = np.array([decoherence_function(env, t) for t in ts])
    assert np.abs(got - expected).max() < 1e-12
    assert np.abs(got - np.exp(-(ts**2) / 2.0)).max() < 1e-10


def test_small_times_share_one_call(monkeypatch):
    calls = count_calls(monkeypatch)
    chi_trajectory(SpectralDensity.uniform(-1.0, 1.0), np.linspace(0.0, 5.0, 51))
    assert len(calls) == 1


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
    ts = np.linspace(60.0, 120.0, 5)
    calls = count_calls(monkeypatch)
    got = spin_trajectory(model, p, ts)
    assert len(calls) > 1
    expected = np.array([density_to_bloch(spin_evolve(model, p, t)) for t in ts])
    assert np.abs(got - expected).max() < 1e-12
