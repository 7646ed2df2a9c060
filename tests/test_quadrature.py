"""The adaptive quadrature kernel and the trajectory evaluators built on it."""

import math
import os
from fractions import Fraction
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import declab.cli
import declab.models
import declab.quadrature
from declab import (
    OutOfDomain,
    QuadratureFailure,
    SpectralDensity,
    SpinModel,
    asymptotic_map,
    chi_trajectory,
    decoherence_function,
    gauss_legendre_adaptive,
    spin_trajectory,
)
from declab.quadrature import (
    LEGENDRE_ORDER,
    MAX_PANELS,
    ORDER,
    legendre_panels,
    spherical_jn,
)

# --- kernel


def test_adaptive_refines_a_narrow_peak():
    # 1/(1 + c^2 x^2) is far from polynomial near 0, so the initial panels
    # must be bisected; the result must still be within 1e-12.
    c = 100.0
    got = gauss_legendre_adaptive(lambda x: 1.0 / (1.0 + (c * x) ** 2), -1.0, 1.0)
    assert abs(got - 2.0 * np.arctan(c) / c) < 1e-12


def test_adaptive_meets_tolerance_on_a_subnormal_interval():
    # Each panel's share of the budget, ADAPTIVE_TOL * (hi - lo) / (b - a), used to underflow
    # to 0 on an interval this narrow: every panel was bisected until the
    # budget ran out (a spin strip |z| <= m with m / |lam| ~ 1e-317 did so).
    got = gauss_legendre_adaptive(lambda x: 1e300 * np.exp(-x / 1e-317), 0.0, 4e-317)
    assert abs(got - 1e-17 * -np.expm1(-4.0)) < 1e-20
    # Between ends a few subnormals apart, np.linspace's rounded step passes
    # b before its last edge; the reversed panel then never met its share.
    got = gauss_legendre_adaptive(lambda x: 1e300 * (1.0 + x / 3e-323), -3e-323, 3e-323)
    assert abs(got - 6e-23) < 1e-22


def test_adaptive_array_values_meet_tolerance_per_component():
    # One slow and one fast component share the panels; the fast one decides
    # the refinement and the slow one keeps its accuracy.
    def f(x):
        return np.column_stack([np.cos(x), np.cos(40.0 * x)])

    got = gauss_legendre_adaptive(f, 0.0, 2.0)
    assert got.shape == (2,)
    assert np.abs(got - [np.sin(2.0), np.sin(80.0) / 40.0]).max() < 1e-11


def test_adaptive_is_deterministic():
    def f(x):
        return np.exp(-1j * 37.0 * x) / (1.0 + x**2)

    first = gauss_legendre_adaptive(f, -3.0, 3.0)
    assert all(gauss_legendre_adaptive(f, -3.0, 3.0) == first for _ in range(3))


def test_adaptive_rejects_empty_interval():
    with pytest.raises(ValueError):
        gauss_legendre_adaptive(np.cos, 1.0, 1.0)


def test_budget_exhaustion_names_budget_and_tolerance(monkeypatch):
    # 8 panels of 250 rad each cannot converge within a 16-panel budget.
    monkeypatch.setattr(declab.quadrature, "MAX_PANELS", 16)
    with pytest.raises(QuadratureFailure, match=r"more than 16 panels for ADAPTIVE_TOL = 1e-09"):
        gauss_legendre_adaptive(lambda x: np.exp(-1j * 1000.0 * x), -1.0, 1.0)


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
    # gauss_legendre_adaptive, called from declab.models or from declab.quadrature.
    calls = count_calls(monkeypatch, declab.quadrature, "gauss_legendre_adaptive")
    monkeypatch.setattr(declab.models, "gauss_legendre_adaptive",
                        declab.quadrature.gauss_legendre_adaptive)
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
    expected = np.array([spin_trajectory(model, p, [t])[0] for t in ts])
    assert np.abs(got - expected).max() < 1e-12


def test_spin_trajectory_rows_follow_a_shuffled_grid_bit_for_bit():
    model = SpinModel(a=[1.0, 0.4, 2.0], b=0.3, lam=1.0, env_diag=SpectralDensity.gaussian(1.0))
    p = np.array([0.6, -0.3, 0.4])
    ts = np.linspace(-120.0, -1.0, 5466) * (-1.0) ** np.arange(5466)  # distinct |t|
    shuffle = np.random.default_rng(10).permutation(ts.size)
    assert np.array_equal(spin_trajectory(model, p, ts[shuffle]),
                          spin_trajectory(model, p, ts)[shuffle])


# --- the rotation kernel and the map against a composite rule sharing no declab code

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(20)


def reference_nodes(env, width):
    """Nodes of ``env`` and its normalized weights at them.

    A discrete environment's are its points.  Otherwise composite 20-node
    Gauss-Legendre on the support, on panels at most ``width`` and a
    sixteenth of the support wide, weighted by the density's shape and
    divided by the rule's own integral of it.  The bump is not analytic at
    the ends of its support: its panels are halved toward both ends, down to
    2**-12 of the support, each no wider than its distance from the end.
    """
    if env.is_discrete:
        return env.points[:, 0], env.points[:, 1]
    lo, hi = env.support()
    fractions = [0.0, 1.0]
    if env.kind == "bump":
        steps = [2.0**-k for k in range(12, 1, -1)]
        fractions = [0.0, *steps, 0.5, *(1.0 - f for f in reversed(steps)), 1.0]
    edges = lo + (hi - lo) * np.array(fractions)
    width = min(width, (hi - lo) / 16.0)
    x, w = [], []
    for start, stop in zip(edges[:-1], edges[1:]):
        n = int(np.ceil((stop - start) / width))
        half = (stop - start) / (2 * n)
        centres = start + (2 * np.arange(n) + 1) * half
        x.append((centres[:, None] + half * _NODES).ravel())
        w.append(np.tile(half * _WEIGHTS, n))
    x, w = np.concatenate(x), np.concatenate(w)
    if env.kind == "gaussian":
        w *= np.exp(-((x / env.s) ** 2) / 2.0)
    elif env.kind == "bump":
        u = (2.0 * x - lo - hi) / (hi - lo)
        w *= np.exp(-1.0 / ((1.0 - u) * (1.0 + u)))
    return x, w / w.sum()


def reference_axes(model, x):
    """Unit field axes n(x), as (3, m), and rates omega = 2 |(a_1, a_2, a_3 + lam x)|."""
    h = np.stack([np.full_like(x, model.a[0]), np.full_like(x, model.a[1]),
                  model.a[2] + model.lam * x])
    norm = np.sqrt((h * h).sum(axis=0))
    return h / norm, 2.0 * norm


def reference_width(model, t_max):
    """Panel width on which the phase turns by at most 3 rad up to t_max, no
    wider than the distance m / |lam| of the poles of n n^T from the fold."""
    lam, m = abs(model.lam), np.hypot(*model.a[:2])
    width = 3.0 / (2.0 * lam * t_max) if lam * t_max > 0 else np.inf
    return min(width, m / lam) if lam * m > 0 else width


# The references keep the nodes on the last, contiguous axis, where numpy sums
# pairwise: a running sum over 1e5 nodes would be off by more than the bounds.


def reference_spin_trajectory(model, p, ts):
    # p rotated about n by omega t, averaged: along + cos (p - along) + sin n x p.
    x, w = reference_nodes(model.env_diag, reference_width(model, np.abs(ts).max()))
    n, omega = reference_axes(model, x)
    along = (p @ n) * n
    turn = np.stack([n[1] * p[2] - n[2] * p[1], n[2] * p[0] - n[0] * p[2],
                     n[0] * p[1] - n[1] * p[0]])
    phase = np.multiply.outer(ts, omega)[:, None, :]
    return ((w * along).sum(axis=-1) + (np.cos(phase) * w * (p[:, None] - along)).sum(axis=-1)
            + (np.sin(phase) * w * turn).sum(axis=-1))


def reference_asymptotic_map(model):
    x, w = reference_nodes(model.env_diag, reference_width(model, 0.0))
    n, _ = reference_axes(model, x)
    return (w * n[:, None, :] * n[None, :, :]).sum(axis=-1)


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
    assert np.abs(asymptotic_map(model) - reference_asymptotic_map(model)).max() < 1e-13


@pytest.mark.parametrize("env", ENVS, ids=ENV_IDS)
def test_asymptotic_map_is_one_plain_adaptive_call_and_never_the_kernel(env, monkeypatch):
    # Nothing oscillates in M: over a continuous density it is one
    # gauss_legendre_adaptive call, over a discrete one the weighted sum.
    plain = count_calls(monkeypatch, declab.models, "gauss_legendre_adaptive")
    kernel = [count_calls(monkeypatch, declab.models, name)
              for name in ("_strip", "_trajectory", "legendre_fourier")]
    for a, lam in FIELDS:
        asymptotic_map(SpinModel(a=a, b=0.3, lam=lam, env_diag=env))
    assert len(plain) == (0 if env.is_discrete else len(FIELDS))
    assert not any(kernel)


def test_kernel_path_matches_the_integrand_closures_at_the_horizon():
    model = SpinModel(a=[1.0, 0.4, 2.0], b=0.3, lam=1.0, env_diag=SpectralDensity.gaussian(1.0))
    p = np.array([0.7, 0.2, 0.5])
    # The horizon of the whole support, as far as the reference's pre-split
    # reaches; spin_trajectory itself has none.
    horizon = 2**14 * np.pi / 40.0
    ts = np.array([horizon, -horizon / 3.0])
    got = spin_trajectory(model, p, ts)
    assert np.abs(got - reference_spin_trajectory(model, p, ts)).max() < 1e-13


@pytest.mark.parametrize("a, lam", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("env", ENVS, ids=ENV_IDS)
def test_kernel_path_matches_the_integrand_closures_below_the_old_horizon(env, a, lam):
    # Times up to half the whole support's horizon, far past where the strip
    # about the fold has shrunk below [x* - xi, x* + xi].
    model = SpinModel(a=a, b=0.3, lam=lam, env_diag=env)
    p = np.array([0.6, -0.3, 0.4])
    # A discrete environment, an exact sum at any t, takes the bump's times.
    support = ENVS[2].support() if env.is_discrete else env.support()
    horizon = MAX_PANELS * np.pi / (2.0 * abs(lam) * (support[1] - support[0]))
    ts = np.array([horizon / 2.0, -horizon / 5.0, 7.0])
    got = spin_trajectory(model, p, ts)
    assert np.abs(got - reference_spin_trajectory(model, p, ts)).max() < 1e-13


# --- beyond the whole support's horizon, against a dense rule sharing no declab code


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
                                  ([1.0, 0.4, 40.0], 2e4), ([1.0, 0.0, 2.0], 1e5),
                                  ([1e-3, 0.0, 2.0], 1e5), ([1.0, 0.4, 40.0], 1e5)],
                         ids=["t5000", "t12000", "m0.5", "m0", "far_fold", "t1e5", "m1e-3_t1e5",
                              "far_fold_t1e5"])
def test_spin_beyond_the_whole_support_horizon_matches_a_dense_rule(a, t):
    # The whole support's horizon is 2**14 pi / 40 ~ 1287, and the old near
    # region [x* - xi, x* + xi]'s 2**14 pi / 4 ~ 12868; the strip has none.
    model = SpinModel(a=a, b=0.3, lam=1.0, env_diag=SpectralDensity.gaussian(1.0))
    p = np.array([0.7, 0.2, 0.5])
    assert t > 2**14 * np.pi / 40.0
    got = spin_trajectory(model, p, [t])[0]
    assert np.abs(got - dense_spin_reference(a, 1.0, p, t)).max() < 1e-12


@pytest.mark.parametrize("t", [1e6, 1e12, 1e14], ids=["t1e6", "t1e12", "t1e14"])
def test_spin_fold_far_from_zero_at_large_t_matches_the_fold_at_zero(t):
    # x* = 1e10, where doubles are 1.9e-6 apart: by t = 1e12 the strip's
    # half-width zeta ~ 1.8e-6 (lam = 1) is below that spacing.  The model is
    # the one with its fold at 0 moved by exactly 1e10.
    p = np.array([0.7, 0.2, 0.5])
    far = SpinModel(a=[1e-3, 0.0, -1e10], b=0.3, lam=1.0,
                    env_diag=SpectralDensity.uniform(1e10 - 1.0, 1e10 + 1.0))
    x_star, (lo, hi), branches = declab.models._fold(far, t)
    assert x_star == 1e10 and -lo == hi > 0.0
    assert len(branches) == 2 and all(branch.z0 == hi for branch in branches)
    centred = SpinModel(a=[1e-3, 0.0, 0.0], b=0.3, lam=1.0,
                        env_diag=SpectralDensity.uniform(-1.0, 1.0))
    ts = np.array([t, -t / 3.0, 0.5])
    got = spin_trajectory(far, p, ts)
    assert np.abs(got - spin_trajectory(centred, p, ts)).max() < 1e-12


def uniform_spin_reference(a, lam, lo, hi, p, t):
    """The average of rotated p over x uniform on [lo, hi], and its oscillating part.

    Composite 20-node Gauss-Legendre in u = z - z_lo over the field
    coordinate z = a_3 + lam x, uniform on [z_lo, z_hi], taken exactly from
    the doubles given.  The phase 2 rho t, rho = |(a_1, a_2, z)|, is
    2 rho(z_lo) t, exact in mpmath, plus 2 (rho - rho(z_lo)) t in double,
    with rho - rho(z_lo) = u (2 z_lo + u) / (rho + rho(z_lo)); panels span at
    most 3 rad of it.
    """
    mpmath = pytest.importorskip("mpmath")
    a1, a2, a3 = a
    with mpmath.workdps(40):
        mp = mpmath.mpf
        z_lo, z_hi = sorted([mp(a3) + mp(lam) * mp(lo), mp(a3) + mp(lam) * mp(hi)])
        rho_lo = mpmath.sqrt(mp(a1) ** 2 + mp(a2) ** 2 + z_lo**2)
        turn = complex(mpmath.exp(2j * rho_lo * mp(t)))
        width, zl, rl = float(z_hi - z_lo), float(z_lo), float(rho_lo)
    n = max(1, int(np.ceil(2.0 * abs(t) * width / 3.0)))
    half = width / (2 * n)
    u = (((2 * np.arange(n) + 1) * half)[:, None] + half * _NODES).ravel()
    w = np.tile(half * _WEIGHTS, n) / width
    z = zl + u
    rho = np.sqrt(a1 * a1 + a2 * a2 + z * z)
    phase = turn * np.exp(2j * t * (u * (2.0 * zl + u) / (rho + rl)))
    n_axis = np.column_stack([np.full_like(z, a1), np.full_like(z, a2), z]) / rho[:, None]
    along = (n_axis @ p)[:, None] * n_axis
    turned = (p - along) * phase.real[:, None] + np.cross(n_axis, p) * phase.imag[:, None]
    oscillating = w @ turned
    return w @ along + oscillating, np.linalg.norm(oscillating)


# Uniform supports of width 8e299 with |lam| = 1e-300: a fold x* = -a_3 / lam
# beyond the double range on either side (the first validated, then ran out
# of panels at t = 12000 when such a support stayed near), and a fold at
# x* = -1e10 inside the support whose strip is ~1e298 wide in x.
DEGENERATE_FOLDS = [([1.0, 0.0, 1e10], 1e-300), ([0.6, -0.8, -1e10], -1e-300),
                    ([1.0, 0.0, 1e-290], 1e-300)]


def test_spin_degenerate_fold_runs_and_matches_a_reference():
    p = np.array([0.7, 0.2, 0.5])
    ts = np.array([0.0, 1.0, -37.0, 500.0, 3000.0, 7777.0, 12000.0])
    env = SpectralDensity.uniform(-4e299, 4e299)
    for a, lam in DEGENERATE_FOLDS:
        got = spin_trajectory(SpinModel(a=a, b=0.3, lam=lam, env_diag=env), p, ts)
        rho_max = np.hypot(np.hypot(a[0], a[1]), abs(a[2]) + 0.4)
        for t, row in zip(ts, got):
            want, oscillating = uniform_spin_reference(a, lam, -4e299, 4e299, p, t)
            # Within the phase's conditioning: 2 rho t rounded relative to its size.
            bound = 1e-12 + np.finfo(float).eps * 2.0 * rho_max * abs(t) * oscillating
            assert np.abs(row - want).max() <= bound, (a, t)


@pytest.mark.parametrize("lam", [3e-308, -3e-308])
def test_spin_thin_far_branch_is_the_rigid_rotation(lam):
    # z = 1 + lam x on the support [-0.5, 0.5] is 1 to the last bit, so p
    # turns rigidly about n = (0.1, 0, 1) / |h|.  The one far branch spans
    # ~3e-308 in rho, and its factors w / |lam| (up to ~3e308) overflow
    # unless the panels take them in a variable scaled to the branch.
    p = np.array([0.7, 0.2, 0.5])
    model = SpinModel(a=[0.1, 0.0, 1.0], b=0.3, lam=lam, env_diag=SpectralDensity.gaussian(0.05))
    ts = np.array([0.0, 1.0, -37.0, 1e4])
    h = np.array([0.1, 0.0, 1.0])
    n = h / np.linalg.norm(h)
    along = (n @ p) * n
    phase = 2.0 * np.linalg.norm(h) * ts
    want = along + np.outer(np.cos(phase), p - along) + np.outer(np.sin(phase), np.cross(n, p))
    assert np.abs(spin_trajectory(model, p, ts) - want).max() < 1e-14


def test_spin_side_with_a_subnormal_span_in_rho_stays_near():
    # z = a_3 + lam x varies by ~6e-313 over the support, so the one side
    # spans a subnormal in rho, where offsets in rho keep a few bits: as a
    # far branch it ran out of Legendre panels.  Near, p turns rigidly.
    p = np.array([0.7, 0.2, 0.5])
    a = [1.35e-256, 7.4e-158, 2.27e-26]
    model = SpinModel(a=a, b=0.3, lam=5.59e-161,
                      env_diag=SpectralDensity.bump(-5.56e-153, 5.56e-153))
    ts = np.array([0.0, 1e25, -3e25])
    _, (lo, hi), branches = declab.models._fold(model, 3e25)
    assert not branches and (lo, hi) == model.env_diag.support()
    n = np.array(a) / np.linalg.norm(a)
    along = (n @ p) * n
    phase = 2.0 * np.linalg.norm(a) * ts
    want = along + np.outer(np.cos(phase), p - along) + np.outer(np.sin(phase), np.cross(n, p))
    assert np.abs(spin_trajectory(model, p, ts) - want).max() < 1e-14


# Fields whose fold x* = -a_3 / lam is beyond the double range, 1e10 off on a
# coarse grid, just outside the support, on it, or undefined (lam = 0).
EXTREME_FIELDS = DEGENERATE_FOLDS + [([1.0, 0.4, 1e299], 1e-10), ([1e-3, 0.0, -1e10], 1.0),
                                     ([1.0, 0.4, 1.5 + 1e-9], 1.0), ([0.5, 0.0, 2.0], 0.0)]


@pytest.mark.parametrize("a, lam", FIELDS + EXTREME_FIELDS)
@pytest.mark.parametrize("env", [ENVS[0], ENVS[1], ENVS[2], SpectralDensity.uniform(-4e299, 4e299),
                                 SpectralDensity.uniform(1e10 - 1.0, 1e10 + 1.0)],
                         ids=ENV_IDS[:3] + ["wide", "far"])
def test_spin_near_region_turns_the_phase_by_at_most_pi(env, a, lam):
    # rho = |(m, z)| on the near region, its ends and the fold taken exactly
    # as the near kernel sees them: z = lam s in offsets s from the fold,
    # else z = a_3 + lam x.  2 (rho_max - rho_min) t_max <= pi, with
    # rho_max - rho_min = (z_max^2 - z_min^2) / (rho_max + rho_min).
    model = SpinModel(a=a, b=0.3, lam=lam, env_diag=env)
    m = Fraction(float(np.hypot(a[0], a[1])))
    for t_max in (0.5, 40.0, 1e4, 1e8, 1e16, 1e100):
        centre, (lo, hi), _ = declab.models._fold(model, t_max)
        if not hi > lo:
            continue
        shift = Fraction(0) if centre is not None else Fraction(a[2])
        z_lo, z_hi = (shift + Fraction(lam) * Fraction(end) for end in (lo, hi))
        z_min, z_max = sorted([abs(z_lo), abs(z_hi)])
        z_min = Fraction(0) if z_lo * z_hi <= 0 else z_min
        rho_min, rho_max = (math.hypot(float(m), float(v)) for v in (z_min, z_max))
        turn = 2.0 * float(z_max**2 - z_min**2) / (rho_max + rho_min) * t_max
        assert turn <= np.pi * (1 + 1e-12), (t_max, lo, hi)


def test_spin_branch_at_the_strip_edge_meets_the_budget_on_a_noisy_density():
    # The fold x* ~ -0.28 lies in the bump's support, m / |lam| ~ 1.55 beyond
    # it.  At t = 1e4 the branch from the strip's edge carries factors
    # w m / (|lam| zeta) ~ 90 w / |lam|, whose rounding used to exceed the
    # Legendre budget: it ran out of panels well inside the old horizon
    # 2**14 pi / (3.1 * 0.89) ~ 18700.  Those panels now meet the noise floor.
    model = SpinModel(a=[1.44, 1.92, -0.44], b=0.3, lam=-1.55,
                      env_diag=SpectralDensity.bump(-0.32, 0.57))
    p = np.array([0.6, -0.3, 0.4])
    ts = np.array([1e4, -3e3])
    got = spin_trajectory(model, p, ts)
    assert np.abs(got - reference_spin_trajectory(model, p, ts)).max() < 1e-13


def test_spin_strip_nodes_do_not_grow_with_t(monkeypatch):
    model = SpinModel(a=[1.0, 0.0, 2.0], b=0.3, lam=1.0, env_diag=SpectralDensity.gaussian(1.0))
    p = np.array([0.7, 0.2, 0.5])
    original = declab.models.gauss_legendre_adaptive

    def counted(f, *args):
        def counting(x):
            nodes_seen.append(x.size)
            return f(x)

        return original(counting, *args)

    monkeypatch.setattr(declab.models, "gauss_legendre_adaptive", counted)
    counts = {}
    for t in (1e3, 1e6, 1e12):
        nodes_seen = []
        spin_trajectory(model, p, [t])
        counts[t] = sum(nodes_seen)
    # One call for the moments, from 8 panels of the order-16 and order-32
    # rules, bisected no more at 1e12 than at 1e3.
    assert 8 * 3 * ORDER <= counts[1e12] <= counts[1e6] <= counts[1e3]


def test_spin_near_region_is_the_strip_about_the_fold_in_offsets():
    # With m = 1, eps = pi / (2 max|t|) and zeta = sqrt(eps (2 m + eps)), the
    # strip |z| <= zeta about the fold x* = -2, not [x* - m, x* + m] = [-3, -1].
    model = SpinModel(a=[1.0, 0.0, 2.0], b=0.3, lam=1.0, env_diag=SpectralDensity.gaussian(1.0))
    eps = np.pi / (2.0 * 1200.0)
    centre, (lo, hi), branches = declab.models._fold(model, 1200.0)
    assert centre == -2.0 and len(branches) == 2
    assert -lo == hi == pytest.approx(np.sqrt(eps * (2.0 + eps)), rel=1e-15)


# Strip models whose field coordinate z = a_3 + lam x spans 0.02, so that the
# reference's panels stay few at t = 1e6: (density, a_3, lam).  The uniform's
# fold x* = -a_3 / lam lies inside its support, outside it, and on its end -1
# exactly.  With m >= 1 and t <= 50 the strip |z| <= zeta covers the whole
# support.
STRIP_MODELS = {
    "gaussian_s1e-3": (SpectralDensity.gaussian(1e-3), 0.002, 1.0),
    "gaussian_s1": (SpectralDensity.gaussian(1.0), 0.002, 1e-3),
    "uniform_fold_inside": (SpectralDensity.uniform(-1.0, 1.0), 0.003, 0.01),
    "uniform_fold_outside": (SpectralDensity.uniform(-1.0, 1.0), 0.015, 0.01),
    "uniform_fold_at_an_end": (SpectralDensity.uniform(-1.0, 1.0), 0.01, 0.01),
    "bump": (SpectralDensity.bump(-1.0, 1.0), 0.003, 0.01),
}


@pytest.mark.parametrize("t_max", [1.0, 50.0, 1e6], ids=["t1", "t50", "t1e6"])
@pytest.mark.parametrize("m", [1e-3, 1.0, 10.0], ids=["m1e-3", "m1", "m10"])
@pytest.mark.parametrize("kind", STRIP_MODELS)
def test_one_panel_strip_matches_the_integrand_closures(kind, m, t_max):
    # The bound is 1e-13 plus the phase's conditioning, 2 rho t rounded
    # relative to its size: at t = 1e6 and m = 10 that alone is 4.4e-9, for
    # declab and the reference alike.
    env, a3, lam = STRIP_MODELS[kind]
    model = SpinModel(a=[m, 0.0, a3], b=0.3, lam=lam, env_diag=env)
    assert (-a3 / lam == -1.0) == (kind == "uniform_fold_at_an_end")
    p = np.array([0.6, -0.3, 0.4])
    ts = np.array([t_max, -t_max / 3.0, 0.25])
    lo, hi = env.support()
    rho_max = np.hypot(m, max(abs(a3 + lam * lo), abs(a3 + lam * hi)))
    bound = 1e-13 + EPS * 2.0 * rho_max * np.abs(ts)
    got = spin_trajectory(model, p, ts)
    assert (np.abs(got - reference_spin_trajectory(model, p, ts)) <= bound[:, None]).all()


# --- far branches: graded dyadic panels, every branch in one bisection and one transform

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# The scenarios' spin model, and two bounded densities, each with its fold inside.
FAR_MODELS = {
    "gaussian": SpinModel(a=[1.0, 0.0, 2.0], b=0.3, lam=1.0,
                          env_diag=SpectralDensity.gaussian(1.0)),
    "uniform": SpinModel(a=[1.0, 0.4, 2.0], b=0.3, lam=0.8,
                         env_diag=SpectralDensity.uniform(-3.5, 0.5)),
    "bump": SpinModel(a=[1.0, 0.4, 2.0], b=0.3, lam=0.8, env_diag=SpectralDensity.bump(-4.0, 1.0)),
}


def record_far_panels(monkeypatch, seen=None):
    """(f, edges, panels) of every legendre_panels call made from declab.models; with
    ``seen``, also (centres, offsets, values) of every evaluation of f."""
    calls = []
    original = declab.models.legendre_panels

    def recorded(f, *edges):
        def watched(centres, offsets):
            values = f(centres, offsets)
            if seen is not None:
                seen.append((centres, offsets, values))
            return values

        panels = original(watched, *edges)
        calls.append((f, edges, panels))
        return panels

    monkeypatch.setattr(declab.models, "legendre_panels", recorded)
    return calls


@pytest.mark.parametrize("t_max", [10.0, 50.0, 1e6, 1e16], ids=["t10", "t50", "t1e6", "t1e16"])
@pytest.mark.parametrize("kind", FAR_MODELS)
def test_graded_far_panels_are_those_of_bisection_from_0_1_and_1_l(kind, t_max, monkeypatch):
    # The start 0, 2^-J, ..., 1/2, 1, L on each side of u = 0 gives, bit for
    # bit, the panels of bisection from [0, 1], [1, L] (from [0, L] on a side
    # that is not graded): never finer than bisection makes them.
    model = FAR_MODELS[kind]
    _, _, branches = declab.models._fold(model, t_max)
    declab.models._unit_expansion(kind)  # built once per process
    calls = record_far_panels(monkeypatch)
    declab.models._far_panels(model, declab.models._mixing(model, np.array([0.6, -0.3, 0.4])),
                              branches)
    ((f, edges, got),) = calls
    edges = np.array(edges)
    plain = edges[(np.abs(edges) >= 1.0) | (edges == 0.0)]
    assert plain.size < edges.size
    for part_got, part_want in zip(got, legendre_panels(f, *plain)):
        assert np.array_equal(part_got, part_want)


@pytest.mark.parametrize("a, lam, env", [([1.0, 0.0, 9.5], 1.0, SpectralDensity.gaussian(1.0)),
                                         ([1.0, 1.0, 1.27e228], -1.0,
                                          SpectralDensity.uniform(-5e299, 5e299))],
                         ids=["fold_in_the_tail", "doubling_width_2^-995"])
def test_far_branch_whose_peak_carries_no_weight_starts_from_one_panel(a, lam, env):
    # The peak of m / |z| is narrow, but the density there is ~1e-20, or the
    # branch is ~2^995 doubling widths long: bisection from [0, L] accepts
    # the panel at u = 0 at once, and a graded start would be finer.
    model = SpinModel(a=a, b=0.3, lam=lam, env_diag=env)
    for t_max in (50.0, 1e6):
        for branch in declab.models._fold(model, t_max)[2]:
            scale = np.ldexp(1.0, np.frexp(branch.length)[1] - 1)
            assert declab.models._graded(model, branch, scale) == [branch.length / scale]


@pytest.mark.parametrize("a, lam, env", [([1.0, 0.0, 2.0], 1.0, SpectralDensity.gaussian(1.0)),
                                         ([1.0, 0.0, 1e-290], 1e-300,
                                          SpectralDensity.uniform(-4e299, 4e299))],
                         ids=["lam1", "lam1e-300"])
def test_far_nodes_lie_on_their_branch_with_finite_factors_at_t_1e20(a, lam, env, monkeypatch):
    # A branch at u < 0 is the mirror image of one at u > 0: v = |u| scale
    # must be >= 0 at every node, where z_of takes its square root.
    model = SpinModel(a=a, b=0.3, lam=lam, env_diag=env)
    assert len(declab.models._fold(model, 1e20)[2]) == 2
    declab.models._unit_expansion(env.kind)  # built once per process
    seen = []
    calls = record_far_panels(monkeypatch, seen)
    got = spin_trajectory(model, np.array([0.7, 0.2, 0.5]), [1e20, -3e19, 0.5])
    assert len(calls) == 1 and np.isfinite(got).all()
    for centres, offsets, values in seen:
        assert (np.sign(centres)[:, None] * (centres[:, None] + offsets) >= 0.0).all()
        assert np.isfinite(values).all()


def test_spin_precession_takes_few_bisection_rounds_and_one_transform(monkeypatch):
    # Bisection of each far branch from one panel takes 16 to 50 rounds at
    # these t_max, and a transform per branch.
    inputs = declab.cli.parse_config((SCENARIOS / "spin_precession.cfg").read_text()).inputs
    model, p = inputs["model"], inputs["initial_bloch"]
    declab.models._unit_expansion(model.env_diag.kind)  # built once per process
    rounds = []
    original = declab.quadrature._bisect

    def counted(evaluate, *args):
        def counting(lo, hi):
            rounds.append(lo.size)
            return evaluate(lo, hi)

        return original(counting, *args)

    monkeypatch.setattr(declab.quadrature, "_bisect", counted)
    transforms = count_calls(monkeypatch, declab.models, "legendre_fourier")
    for t_max in (10.0, 50.0, 1e6):
        rounds.clear()
        transforms.clear()
        spin_trajectory(model, p, np.linspace(0.0, t_max, 201))
        assert len(rounds) <= 6 and len(transforms) == 1, (t_max, rounds)


@pytest.mark.parametrize("a", [[1.0, 0.0, 2.0], [1.0, 0.0, 20.0]],
                         ids=["two_branches", "one_branch"])
def test_spin_tolerance_below_the_far_panels_tail_raises_naming_it(monkeypatch, a):
    model = SpinModel(a=a, b=0.3, lam=1.0, env_diag=SpectralDensity.gaussian(1.0))
    p = np.array([0.6, -0.3, 0.4])
    ts = np.linspace(0.0, 50.0, 11)
    branches = declab.models._fold(model, 50.0)[2]
    tail = declab.models._far_panels(model, declab.models._mixing(model, p), branches)[0].tail
    assert 0.0 < tail < 1e-14
    strips = count_calls(monkeypatch, declab.models, "_strip")
    for budget in (tail / 2, 1e-17):
        monkeypatch.setattr(declab.quadrature, "ADAPTIVE_TOL", budget)
        with pytest.raises(QuadratureFailure,
                           match=f"tolerance ADAPTIVE_TOL = {budget:g} .* estimate {tail:g}"):
            spin_trajectory(model, p, ts)
    assert strips == []
    monkeypatch.setattr(declab.quadrature, "ADAPTIVE_TOL", tail)
    assert np.isfinite(spin_trajectory(model, p, ts)).all()


# Fields whose axis flips over |z| ~ m about a fold x* = -a_3 / lam inside a
# gaussian of width 1/3, with m at or far below the spacing of doubles at x*.
NARROW_FLIPS = [([1e-9, 0.0, 0.5], 0.875), ([1e-9, 0.0, 0.05], 1.0), ([1e-10, 0.0, 0.05], 1.0),
                ([1e-20, 0.0, 0.5], 0.875)]


def graded_map_reference(a, lam, s):
    """M of a gaussian of width s by composite 40-node Gauss-Legendre in offsets
    from the fold, on panels doubling in width away from it from 1e-24."""
    x_star, m = -a[2] / lam, math.hypot(a[0], a[1])
    nodes, weights = np.polynomial.legendre.leggauss(40)
    total = np.zeros((3, 3))
    for side, end in ((1.0, 10.0 * s - x_star), (-1.0, 10.0 * s + x_star)):
        edges = [0.0] + [e for e in 1e-24 * 2.0 ** np.arange(100) if e < end] + [end]
        for lo, hi in zip(edges[:-1], edges[1:]):
            half = (hi - lo) / 2.0
            offsets = side * (lo + half * (nodes + 1.0))
            w = half * weights * np.exp(-(((x_star + offsets) / s) ** 2) / 2.0) / (
                s * math.sqrt(2.0 * math.pi))
            h = np.stack([np.full_like(offsets, a[0]), np.full_like(offsets, a[1]), lam * offsets])
            n = h / np.sqrt(m * m + (lam * offsets) ** 2)
            total += np.einsum("k,ik,jk->ij", w, n, n)
    return total


@pytest.mark.parametrize("a, lam", NARROW_FLIPS, ids=["m1e-9", "x*-0.05_m1e-9", "x*-0.05_m1e-10",
                                                      "m1e-20"])
def test_asymptotic_map_resolves_an_axis_flip_narrower_than_an_ulp_of_the_fold(a, lam):
    # In x the first ran out of panels: node rounding of ~6e-17 against a
    # flip 1.1e-9 wide kept every panel about x* failing.
    model = SpinModel(a=a, b=0.3, lam=lam, env_diag=SpectralDensity.gaussian(1.0 / 3.0))
    assert np.abs(asymptotic_map(model) - graded_map_reference(a, lam, 1.0 / 3.0)).max() < 1e-13


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


def test_bump_matches_direct_trapezoid_integral():
    # Normalization and transform both from one trapezoid sum written here: the
    # bump vanishes to all orders at the ends, so the sum converges spectrally, and
    # it shares no code with the expansion or with declab's quadrature.
    a, b = -2.0, 1.0
    env = SpectralDensity.bump(a, b)
    v = np.linspace(a, b, 20001)[1:-1]  # the ends, where the shape is 0, left out
    u = (2.0 * v - a - b) / (b - a)
    shape = np.exp(-1.0 / (1.0 - u**2))
    ts = np.array([0.0, 0.3, 1.0, 7.5, 20.0, 55.0, 100.0])
    direct = np.exp(-1j * np.multiply.outer(ts, v)) @ shape / shape.sum()  # the spacing cancels
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


def test_each_kind_is_expanded_once_per_process(monkeypatch):
    calls = []

    def counted(f, a, b):
        calls.append((a, b))
        return legendre_panels(f, a, b)

    monkeypatch.setattr(declab.models, "_unit_cache", {})
    monkeypatch.setattr(declab.models, "legendre_panels", counted)
    envs = [SpectralDensity.gaussian(0.5), SpectralDensity.gaussian(3e7),
            SpectralDensity.uniform(-1.5, 0.5), SpectralDensity.uniform(1e6, 1e6 + 2.0),
            SpectralDensity.bump(-2.0, 1.0), SpectralDensity.bump(5.0, 1e4)]
    for env in envs:
        chi_trajectory(env, [0.0, 2.5, 1e5])
    assert sorted(calls) == [(-10.0, 10.0), (-1.0, 1.0), (-1.0, 1.0)]


@pytest.mark.parametrize("s", [1e-3, 0.37, 7.3, 1e100])
def test_gaussian_is_the_unit_gaussian_scaled(s):
    unit, total = declab.models._unit_expansion("gaussian")
    assert total == 1.0
    got = SpectralDensity.gaussian(s).expansion()
    assert np.array_equal(got.centres, s * unit.centres)
    assert np.array_equal(got.halves, s * unit.halves)
    assert np.array_equal(got.width_of, unit.width_of)
    assert np.array_equal(got.coeffs, unit.coeffs) and got.tail == unit.tail
    z = np.linspace(-60.0, 60.0, 1201)
    chi = chi_trajectory(SpectralDensity.gaussian(s), z / s)
    assert np.abs(chi - np.exp(-((s * (z / s)) ** 2) / 2.0)).max() <= 1e-15


def test_cached_rules_and_unit_expansions_are_read_only():
    # A caller writing into what a process-wide cache handed out would
    # change every later density and rule.
    x, w = declab.quadrature._rule(ORDER)
    nodes, transform = declab.quadrature._legendre_rule(LEGENDRE_ORDER)
    shared = [x, w, nodes, transform]
    for kind in FRESH_CONTINUOUS:
        unit, _ = declab.models._unit_expansion(kind)
        shared += [unit.centres, unit.halves, unit.width_of, unit.coeffs]
        shared.append(FRESH_CONTINUOUS[kind]().expansion().width_of)
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_each_kinds_tail_is_fixed_by_the_kind_and_below_1e_14():
    # chi takes no tolerance: its error bound is the expansion's tail, the
    # unit shape's, whatever the width or the place of the support.
    for kind, envs in [
        ("gaussian", [SpectralDensity.gaussian(s) for s in (1e-3, 1.0, 7.5, 1e100)]),
        ("uniform", [SpectralDensity.uniform(a, b)
                     for a, b in ((-1.0, 1.0), (0.5, 2.5), (1e6, 1e6 + 1e-3), (-1e100, 1e100))]),
        ("bump", [SpectralDensity.bump(a, b)
                  for a, b in ((-1.0, 1.0), (-2.0, 1.0), (3.0, 3.0 + 1e-12), (1e-250, 3e-250))]),
    ]:
        tails = {env.expansion().tail for env in envs}
        assert len(tails) == 1, (kind, tails)
        assert 0.0 < tails.pop() < 1e-14, kind


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
    got = declab.quadrature.legendre_fourier(panels, ts)
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


# --- Gauss-Legendre rules

RULE_SIZES = [1, 2, 3, 16, 32, 64, 201, 512, 1024]
# Against 40-digit references: nodes to an ulp of 1, weights relative.
NODE_TOL = 2.2e-16
WEIGHT_TOL = 1e-11


def _mpmath_rule_at(mpmath, n, i):
    """Node i (ascending) of the n-point rule and its weight, by 40-digit Newton."""
    x = -mpmath.cos(mpmath.pi * (4 * i + 3) / (4 * n + 2))
    for _ in range(50):
        p_prev, p = mpmath.mpf(1), x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        dp = n * (x * p - p_prev) / (x * x - 1)
        step = p / dp
        x -= step
        if abs(step) < mpmath.mpf(10) ** -38:
            break
    p_prev, p = mpmath.mpf(1), x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    dp = n * (x * p - p_prev) / (x * x - 1)
    return x, 2 / ((1 - x * x) * dp * dp)


@pytest.mark.parametrize("n", RULE_SIZES)
def test_rule_matches_a_40_digit_reference(n):
    mpmath = pytest.importorskip("mpmath")
    x, w = declab.quadrature._gauss_legendre(n)
    if n < 201:
        sample = np.arange(n)
    else:  # the 8 nodes nearest each end, where weights are hardest, and some between
        sample = np.unique(np.concatenate([np.arange(8), n - 8 + np.arange(8),
                                           np.linspace(8, n - 9, 7).astype(int)]))
    with mpmath.workdps(40):
        ref = [_mpmath_rule_at(mpmath, n, i) for i in sample]
        node_err = max(abs(float(x[i] - rx)) for i, (rx, _) in zip(sample, ref))
        weight_err = max(abs(float((w[i] - rw) / rw)) for i, (_, rw) in zip(sample, ref))
    assert node_err <= NODE_TOL
    assert weight_err <= WEIGHT_TOL


@pytest.mark.parametrize("n", list(range(1, 41)) + [201, 512, 1024])
def test_rule_is_ascending_antisymmetric_and_sums_to_two(n):
    x, w = declab.quadrature._gauss_legendre(n)
    assert x.shape == w.shape == (n,)
    assert np.all(np.diff(x) > 0) and np.all(np.abs(x) < 1) and np.all(w > 0)
    assert np.array_equal(x, -x[::-1])
    assert np.array_equal(w, w[::-1])
    assert abs(math.fsum(w) - 2.0) <= 16 * EPS


@pytest.mark.parametrize("n", [16, 32])
def test_rule_integrates_every_even_power_up_to_its_degree(n):
    x, w = declab.quadrature._gauss_legendre(n)
    for j in range(n):  # 2j <= 2n - 1
        assert abs(math.fsum(w * x ** (2 * j)) - 2.0 / (2 * j + 1)) <= 8 * EPS


@pytest.mark.parametrize("n", RULE_SIZES)
def test_double_and_long_double_rules_agree_to_double_rounding(n):
    # Where np.longdouble is plain double, the Legendre transform's rule is
    # this double rule; it meets the same bounds as against mpmath.
    x, w = declab.quadrature._gauss_legendre(n)
    xl, wl = declab.quadrature._gauss_legendre(n, np.longdouble)
    assert xl.dtype == wl.dtype == np.longdouble
    assert np.abs(x - xl.astype(float)).max() <= NODE_TOL
    assert np.abs(w / wl.astype(float) - 1.0).max() <= WEIGHT_TOL


def test_rule_at_the_dense_cap_takes_o_of_n_memory(monkeypatch):
    monkeypatch.setattr(declab.quadrature, "_rule_cache", {})
    tracemalloc.start()
    try:
        declab.quadrature._rule(1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A dense 1024 x 1024 companion matrix alone would take 8 MiB.
    assert peak < 256 * 1024


def test_runs_never_import_numpy_polynomial(tmp_path):
    configs = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.cfg"))
    experiments = {line.split("=", 1)[1].strip() for c in configs
                   for line in c.read_text().splitlines() if line.startswith("experiment")}
    assert experiments == set(declab.cli.EXPERIMENTS)
    code = (
        "import sys\n"
        "from declab import SpectralDensity, SpinModel, bloch_to_density, full_simulation_oracle\n"
        "from declab.cli import main\n"
        "for cfg in sys.argv[2:]:\n"
        "    assert main(['run', '--config', cfg, '--out', sys.argv[1]]) == 0\n"
        "env = SpectralDensity.gaussian(1.0)\n"
        "env.discretize(1024)\n"
        "model = SpinModel(a=[1, 0, 2], b=0.3, lam=1.0, env_diag=env)\n"
        "full_simulation_oracle(model, bloch_to_density([0.6, -0.3, 0.4]), 2.0, 512)\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n"
    )
    src = str(Path(declab.quadrature.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path), *map(str, configs)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
