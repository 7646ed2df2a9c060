"""Exactly solvable reduced dynamics for a system coupled to an environment
through a product interaction, plus a brute-force joint-evolution oracle.

Two closed-form models are provided.  In the commuting (dephasing) model the
system coupling has a gapped point spectrum, every intersector block of the
state just picks up the factor chi((l_m - l_n) t), and chi is the Fourier
transform of the environment's spectral weight along the coupling operator.
In the spin model a transverse system field no longer commutes with the
coupling; the reduced state is an average of rigidly rotated polarization
vectors and contracts toward a fixed linear image q = M p of the initial
vector.  The oracle assembles the full joint Hamiltonian on a discretized
environment, evolves unitarily and partial-traces, sharing no code path with
the closed forms.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    NotAState,
    NotDiscrete,
    NotHermitian,
)
from .operators import (
    finite_times,
    hs_norm,
    propagator,
    propagators,
    require_hermitian,
    tensor_product,
)
from .quadrature import (
    LegendrePanels,
    kernel_adaptive,
    legendre_fourier,
    legendre_panels,
    oscillation_horizon,
    trig_sum,
)
from .states import PAULI, DensityOperator, bloch_to_density, trace_distance
from .superselection import SectorStructure, sector_mask

NORMALIZATION_TOL = 1e-10
GAUSSIAN_TAIL_SIGMAS = 10.0
MAX_DENSE_DIM = 1024
# Support widths of a continuous density: beyond them its peak value, or the
# products of its abscissae, leave the double range.
SUPPORT_WIDTHS = (1e-300, 1e300)


class SpectralDensity:
    """Normalized nonnegative weight over the environment coupling spectrum.

    Continuous kinds: ``gaussian`` (width s), ``uniform`` and ``bump`` on a
    finite support.  The bump is exp(-1/(1-u^2)) mapped onto its support,
    smooth and vanishing to all orders at the endpoints, which is what makes
    arbitrarily fast power-law suppression reachable.  ``discrete`` holds
    explicit (point, weight) pairs and models a finite environment.
    """

    __slots__ = ("kind", "s", "a", "b", "points", "_bump_norm", "_expansion")

    def __init__(self, kind, s=None, a=None, b=None, points=None):
        self.kind = kind
        self.s = s
        self.a = a
        self.b = b
        self.points = points
        self._bump_norm = None
        self._expansion = None
        if kind == "gaussian":
            if not s > 0:
                raise ValueError("gaussian width must be positive")
        elif kind in ("uniform", "bump"):
            if not b > a:
                raise ValueError(f"support must satisfy b > a, got [{a}, {b}]")
        elif kind == "discrete":
            pts = np.asarray(points, dtype=float)
            if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
                raise ValueError("discrete points must be a nonempty sequence of (v, w) pairs")
            for column, field in ((0, "points"), (1, "weights")):
                if not np.all(np.isfinite(pts[:, column])):
                    raise ValueError(f"discrete {field} must be finite")
            # Neighbours compared, not np.diff, which overflows for points spanning > 1.8e308.
            if np.any(pts[1:, 0] <= pts[:-1, 0]):
                raise ValueError("discrete points must be sorted by v and distinct")
            if pts[:, 1].min() < 0:
                raise ValueError("discrete weights must be nonnegative")
            if abs(pts[:, 1].sum() - 1.0) > NORMALIZATION_TOL:
                raise ValueError(f"discrete weights sum to {pts[:, 1].sum()!r}, not 1")
            self.points = pts
        else:
            raise ValueError(f"unknown spectral density kind {kind!r}")
        if kind != "discrete":
            lo, hi = self.support()
            if not SUPPORT_WIDTHS[0] <= hi - lo <= SUPPORT_WIDTHS[1]:
                raise ValueError(f"support width {hi - lo:g} is outside {SUPPORT_WIDTHS}")

    @classmethod
    def gaussian(cls, s: float) -> "SpectralDensity":
        return cls("gaussian", s=float(s))

    @classmethod
    def uniform(cls, a: float, b: float) -> "SpectralDensity":
        return cls("uniform", a=float(a), b=float(b))

    @classmethod
    def bump(cls, a: float, b: float) -> "SpectralDensity":
        return cls("bump", a=float(a), b=float(b))

    @classmethod
    def discrete(cls, points) -> "SpectralDensity":
        return cls("discrete", points=points)

    @property
    def is_discrete(self) -> bool:
        return self.kind == "discrete"

    def support(self):
        """Interval carrying (numerically) all of the weight."""
        if self.kind == "gaussian":
            r = GAUSSIAN_TAIL_SIGMAS * self.s
            return (-r, r)
        if self.kind == "discrete":
            return (float(self.points[0, 0]), float(self.points[-1, 0]))
        return (self.a, self.b)

    def density(self, v):
        """Weight density at v; vectorized.

        The gaussian is the full normal density, also beyond ``support()``;
        uniform and bump are zero outside their support.
        """
        v = np.asarray(v, dtype=float)
        if self.kind == "gaussian":
            z = v / self.s  # not v**2 / s**2, which under- or overflows for extreme s
            return np.exp(-(z**2) / 2.0) / (self.s * np.sqrt(2.0 * np.pi))
        if self.kind == "uniform":
            inside = (v >= self.a) & (v <= self.b)
            return np.where(inside, 1.0 / (self.b - self.a), 0.0)
        if self.kind == "bump":
            if self._bump_norm is None:
                self.expansion()
            return self._bump_norm * _bump((2.0 * v - self.a - self.b) / (self.b - self.a))
        raise NotDiscrete("a discrete density has weights, not a density function")

    def expansion(self) -> LegendrePanels:
        """Legendre panels of a continuous density, built on first use and kept.

        They depend on the density alone and serve every chi evaluation.  The
        bump is expanded in u on [-1, 1], the same for every support, and
        its panels are then mapped onto [a, b]: sampling it at points of a
        far-off or wide support would put rounding of the abscissae into
        its steep flanks.  Its normalization is the integral of that
        expansion, the sum of its panel integrals 2h a_0.
        """
        if self.is_discrete:
            raise NotDiscrete("a discrete density has weights, not a Legendre expansion")
        if self._expansion is None:
            if self.kind == "bump":
                unit = legendre_panels(_bump, -1.0, 1.0)
                total = float(unit.coeffs[:, 0].sum())
                mid, half = (self.a + self.b) / 2.0, (self.b - self.a) / 2.0
                self._bump_norm = 1.0 / (half * total)
                self._expansion = LegendrePanels(mid + half * unit.centres, half * unit.halves,
                                                 unit.coeffs / total, unit.tail / total)
            else:
                self._expansion = legendre_panels(self.density, *self.support())
        return self._expansion

    def discretize(self, n: int) -> "SpectralDensity":
        """Discrete density on n Gauss-Legendre nodes of the support.

        Weights are the quadrature weights times the density, renormalized so
        they sum to one exactly.
        """
        n = operator.index(n)
        if self.is_discrete:
            raise ValueError("density is already discrete")
        if n < 2:
            raise ValueError("need at least 2 grid points")
        x, w = np.polynomial.legendre.leggauss(n)
        lo, hi = self.support()
        v = (hi + lo) / 2.0 + (hi - lo) / 2.0 * x
        weights = w * (hi - lo) / 2.0 * self.density(v)
        weights = weights / weights.sum()
        return SpectralDensity.discrete(np.column_stack([v, weights]))

    def __repr__(self):
        if self.kind == "gaussian":
            return f"SpectralDensity.gaussian(s={self.s!r})"
        if self.kind == "discrete":
            return f"SpectralDensity.discrete(<{self.points.shape[0]} points>)"
        return f"SpectralDensity.{self.kind}(a={self.a!r}, b={self.b!r})"


def _bump(u):
    """exp(-1/(1-u^2)) on |u| < 1, zero elsewhere."""
    inside = np.abs(u) < 1.0
    safe = np.where(inside, u, 0.0)
    return np.where(inside, np.exp(-1.0 / (1.0 - safe**2)), 0.0)


def _trajectory(env, ts, rate, kernel, tol):
    """Sum or integral over x of c + a cos(omega t) + b sin(omega t) for every t in ts.

    ``kernel(x, weight)`` maps (m,) abscissae and the environment weights at
    them to (omega, a, b, c), weighted as in ``quadrature.trig_sum``, and
    ``rate`` bounds |d omega / dx|.  A discrete environment is one exact
    ``trig_sum`` over its points; otherwise the whole grid is one
    ``kernel_adaptive`` call over the support.  Returns (T, d).
    """
    ts = finite_times(ts)
    if env.is_discrete:
        return trig_sum(ts, *kernel(env.points[:, 0], env.points[:, 1]))
    return kernel_adaptive(lambda x: kernel(x, env.density(x)), ts, *env.support(), tol, rate)


def chi_trajectory(env: SpectralDensity, ts, tol: float = 1e-9) -> np.ndarray:
    """chi(t) for every t in ``ts`` (any order, sign or repetition), shape (T,).

    A continuous density is integrated term by term from its Legendre
    expansion (``SpectralDensity.expansion``), built once per density: the
    cost per time does not depend on |t|, and the expansion's tail estimate
    bounds the error at every t.  Raises QuadratureFailure when ``tol`` is
    below that estimate.  A discrete density is one exact sum over its points.
    """
    if not env.is_discrete:
        return legendre_fourier(env.expansion(), finite_times(ts), tol)

    def phases(v, weight):
        # w exp(-ivt) as (real, imaginary): a = (w, 0), b = (0, -w).
        zero = np.zeros_like(weight)
        return v, np.column_stack([weight, zero]), np.column_stack([zero, -weight]), None

    parts = _trajectory(env, ts, 1.0, phases, tol)
    return parts[:, 0] + 1j * parts[:, 1]


def decoherence_function(env: SpectralDensity, t: float, tol: float = 1e-9) -> complex:
    """Environment overlap chi(t): the Fourier transform of the density.

    chi(0) = 1 and |chi(t)| <= 1 for every density; its decay rate is what
    suppresses intersector coherence.  Continuous kinds are integrated
    exactly term by term from the density's Legendre expansion, at a cost
    that does not depend on t; this is the single-time case of
    ``chi_trajectory``.
    """
    return complex(chi_trajectory(env, [float(t)], tol)[0])


def recurrence_window(env: SpectralDensity) -> float:
    """Conservative revival time 2 pi / (max adjacent point spacing).

    A finite environment makes chi almost periodic, so decay statements only
    hold up to this horizon; for an equally spaced grid it is the exact
    revival time.
    """
    if not env.is_discrete:
        raise NotDiscrete("recurrence windows only exist for discrete spectra")
    v = env.points[:, 0]
    if v.size < 2:
        return float("inf")
    return float(2.0 * np.pi / np.max(np.diff(v)))


@dataclass(frozen=True, eq=False)
class ArakiZurekModel:
    """Dephasing model: gapped point-spectrum coupling, commuting free part.

    ``lambdas`` are the coupling eigenvalues on the sectors, separated
    pairwise by at least ``delta``; ``h_s`` must commute with every sector
    projector.  The environment enters reduced quantities only through chi.
    """

    sectors: SectorStructure
    lambdas: np.ndarray
    h_s: np.ndarray
    env: SpectralDensity
    delta: float

    def __post_init__(self):
        frame, index = self.sectors._adapted_frame()  # validates a family given as projectors
        lambdas = np.asarray(self.lambdas, dtype=float)
        if lambdas.ndim != 1 or lambdas.size != len(self.sectors):
            raise DimensionMismatch("need one coupling eigenvalue per sector")
        if not np.all(np.isfinite(lambdas)):
            raise ValueError("lambdas must be finite")
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        # Sorted, the closest pair of eigenvalues is adjacent.  A gap that
        # overflows is inf, above any delta.
        with np.errstate(over="ignore"):
            gap = np.diff(np.sort(lambdas)).min(initial=np.inf)
        if gap < self.delta:
            raise ValueError(f"eigenvalue gap {gap:g} is below the declared delta {self.delta:g}")
        h_s = require_hermitian(self.h_s, name="system Hamiltonian")
        if h_s.shape[0] != self.sectors.dim:
            raise DimensionMismatch("system Hamiltonian dimension does not match sectors")
        # |[h_s, P_m]|^2 is the weight of |F^H h_s F|^2 on entries with exactly one
        # index in sector m; |F^H h_s F| is symmetric, so that is twice its row sums.
        g = h_s if frame is None else frame.conj().T @ h_s @ frame
        rows = (np.abs(g) ** 2 * (index[:, None] != index)).sum(axis=1)
        leak = np.sqrt(2.0 * np.bincount(index, weights=rows, minlength=len(self.sectors)))
        bad = np.flatnonzero(leak > 1e-10 * max(1.0, hs_norm(h_s)))
        if bad.size:
            raise ValueError(f"system Hamiltonian does not commute with sector projector {bad[0]}")
        object.__setattr__(self, "lambdas", lambdas)
        object.__setattr__(self, "h_s", h_s)

    @property
    def dim(self) -> int:
        return self.sectors.dim

    @property
    def v_s(self) -> np.ndarray:
        """Coupling operator rebuilt from its eigenvalues and projectors."""
        return sector_mask(np.eye(self.dim, dtype=complex), self.sectors, np.diag(self.lambdas))


def _dephased(model: ArakiZurekModel, rho, t: float, env: SpectralDensity,
              tol: float) -> np.ndarray:
    """sum_{m,n} chi((l_m - l_n) t) P_m rho P_n, conjugate-symmetric in chi."""
    k = len(model.lambdas)
    m, n = np.triu_indices(k, 1)
    chi = np.ones((k, k), dtype=complex)
    if m.size:
        chi[m, n] = chi_trajectory(env, (model.lambdas[m] - model.lambdas[n]) * t, tol)
    chi[n, m] = np.conj(chi[m, n])
    return sector_mask(rho, model.sectors, chi)


def az_trajectory(model: ArakiZurekModel, rho0: DensityOperator, ts, tol: float = 1e-9):
    """Reduced states at every t in ``ts``, yielded one DensityOperator at a time.

    Each intersector block of rho0 is damped by chi((l_m - l_n) t) and the
    whole result is conjugated by exp(-i h_s t).  Diagonal blocks carry
    chi(0) = 1, so sector probabilities are conserved exactly.  The inputs
    are checked and h_s diagonalised at the call; each state is built as it
    is taken.
    """
    if rho0.dim != model.dim:
        raise DimensionMismatch(f"state dim {rho0.dim} does not match model dim {model.dim}")
    ts = finite_times(ts)
    return (DensityOperator(u @ _dephased(model, rho0.matrix, t, model.env, tol) @ u.conj().T)
            for t, u in zip(ts, propagators(model.h_s, ts)))


def az_evolve(model: ArakiZurekModel, rho0: DensityOperator, t: float,
              tol: float = 1e-9) -> DensityOperator:
    """Reduced state at time t: the single-time case of ``az_trajectory``."""
    return next(az_trajectory(model, rho0, [t], tol))


@dataclass(frozen=True, eq=False)
class CorrelatedInitialState:
    """Initial joint state sum_mu rho_mu x omega_mu with classical S-E correlations.

    The system parts rho_mu are Hermitian but need not be positive on their
    own; only their sum must be a state.
    """

    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise NotAState("need at least one (rho_mu, omega_mu) term")
        cooked = []
        for i, (rho_mu, env_mu) in enumerate(self.terms):
            try:
                mat = require_hermitian(rho_mu, name=f"term {i} system part")
            except NotHermitian as exc:
                raise NotAState(str(exc)) from exc
            if not isinstance(env_mu, SpectralDensity):
                raise NotAState(f"term {i} environment part must be a SpectralDensity")
            cooked.append((mat, env_mu))
        dims = {mat.shape[0] for mat, _ in cooked}
        if len(dims) != 1:
            raise DimensionMismatch("system parts must share a dimension")
        total = sum(mat for mat, _ in cooked)
        DensityOperator(total)  # raises NotAState when the sum is not a state
        object.__setattr__(self, "terms", tuple(cooked))

    @property
    def reduced(self) -> DensityOperator:
        """The reduced system state sum_mu rho_mu at time zero."""
        return DensityOperator(sum(mat for mat, _ in self.terms))


def az_evolve_correlated(model: ArakiZurekModel, w0: CorrelatedInitialState, t: float,
                         tol: float = 1e-9) -> DensityOperator:
    """Reduced dephasing dynamics from a correlated initial state.

    Applies the factorized formula termwise, each term with the chi of its
    own environment part.  Sector emergence survives as long as the summed
    chi contributions still decay, which is why the induced structure is not
    sensitive to the initial conditions.
    """
    total = np.zeros((model.dim, model.dim), dtype=complex)
    for rho_mu, env_mu in w0.terms:
        if rho_mu.shape[0] != model.dim:
            raise DimensionMismatch("initial-state terms do not match the model dimension")
        total += _dephased(model, rho_mu, t, env_mu, tol)
    u = propagator(model.h_s, t)
    return DensityOperator(u @ total @ u.conj().T)


@dataclass(frozen=True, eq=False)
class SpinModel:
    """Spin-1/2 in a field ``a`` coupled through sigma_3 to a continuum.

    The environment Hamiltonian coefficient ``b`` multiplies the square of
    the position-like coordinate; it commutes with the coupling, drops out
    of every reduced quantity, and is kept only so the oracle can verify the
    cancellation.  ``env_diag`` is the diagonal kernel of the environment
    state in that coordinate.
    """

    a: np.ndarray
    b: float
    lam: float
    env_diag: SpectralDensity

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.shape != (3,) or not np.all(np.isfinite(a)):
            raise ValueError("field must be a finite 3-vector")
        if not 0 < self.b < np.inf:
            raise ValueError("environment frequency coefficient b must be positive and finite")
        if not np.isfinite(self.lam):
            raise ValueError("coupling lam must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "lam", float(self.lam))

    @property
    def h_s(self) -> np.ndarray:
        return self.a[0] * PAULI[0] + self.a[1] * PAULI[1] + self.a[2] * PAULI[2]


def _axes(model: SpinModel, x: np.ndarray):
    """Unit axis of the effective field (a_1, a_2, a_3 + lam x), e_3 where it
    vanishes, and twice the field's norm, per point."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    h = np.empty((x.size, 3))
    h[:, :2] = model.a[:2]
    h[:, 2] = model.a[2] + model.lam * x
    with np.errstate(over="ignore"):  # its squares overflow past ~1e154; hypot's do not
        norms = np.linalg.norm(h, axis=1)
    big = ~np.isfinite(norms)
    norms[big] = np.hypot(np.hypot(h[big, 0], h[big, 1]), h[big, 2])
    zero = norms == 0.0
    n = h / np.where(zero, 1.0, norms)[:, None]
    n[zero] = (0.0, 0.0, 1.0)
    return n, 2.0 * norms


def rotation_axis(model: SpinModel, x: float):
    """Rotation axis and angular speed of the conditional spin precession.

    The conditional evolution at environment coordinate x is generated by
    the 2x2 field a.sigma + lam x sigma_3; the induced rotation of the
    polarization vector has axis along that field and speed twice its norm
    (the usual spin-to-rotation angle doubling).  A vanishing field returns
    speed zero with axis e_3 by convention.
    """
    n, omega = _axes(model, np.array([float(x)]))
    return n[0], float(omega[0])


def spin_horizon(model: SpinModel) -> float:
    """Largest |t| at which ``spin_trajectory``'s pre-split still resolves the phase.

    The rotation rate 2 |h(x)| changes by at most 2 |lam| per unit x, so this
    is ``quadrature.oscillation_horizon`` of the support at that rate: where
    the pre-split reaches the quadrature's panel budget.  Beyond it the
    adaptive rule may run out of panels.  A discrete environment (an exact
    sum) and lam = 0 have no horizon.
    """
    env = model.env_diag
    if env.is_discrete:
        return float("inf")
    return oscillation_horizon(*env.support(), 2.0 * abs(model.lam))


def spin_trajectory(model: SpinModel, p, ts, tol: float = 1e-9) -> np.ndarray:
    """Averaged rotated polarization for every t in ``ts``, shape (T, 3).

    Conditioned on x the polarization is rotated (Rodrigues) about n(x) by
    omega(x) t: along + cos(omega t) (p - along) + sin(omega t) n x p, with
    along = (n.p) n.  The amplitudes are computed once per node, and one
    adaptive quadrature serves a whole block of times (an exact sum for a
    discrete environment).
    """
    p = np.asarray(p, dtype=float)

    def rotation(x, weight):
        n, omega = _axes(model, x)
        along = (n @ p)[:, None] * n
        weight = weight[:, None]
        return omega, weight * (p - along), weight * np.cross(n, p), weight * along

    return _trajectory(model.env_diag, ts, 2.0 * abs(model.lam), rotation, tol)


def spin_evolve(model: SpinModel, p, t: float, tol: float = 1e-9) -> DensityOperator:
    """Reduced spin state at time t: the average of rotated polarizations.

    Conditioned on the environment coordinate x the spin precesses rigidly;
    the reduced state is the density-weighted average of those rotations
    applied to p; this is the single-time case of ``spin_trajectory``.
    """
    return bloch_to_density(spin_trajectory(model, p, [float(t)], tol)[0])


def asymptotic_map(model: SpinModel, tol: float = 1e-9) -> np.ndarray:
    """Long-time contraction map M = avg of n(x) n(x)^T over the density.

    Oscillating parts of the conditional rotations dephase away and only the
    projections onto the local axes survive.  M is a symmetric contraction:
    a density-weighted average of rank-one projectors, so its eigenvalues
    lie in [0, 1].
    """

    def projectors(x, weight):
        n, omega = _axes(model, x)
        return omega, None, None, weight[:, None] * (n[:, :, None] * n[:, None, :]).reshape(-1, 9)

    # The trajectory integral at the one time t = 0: no oscillation to pre-split for.
    return _trajectory(model.env_diag, [0.0], 0.0, projectors, tol)[0].reshape(3, 3)


def spin_asymptotics(model: SpinModel, p, t_grid, tol: float = 1e-9) -> np.ndarray:
    """Trace distances from the asymptotic state along a time grid.

    Returns (t, distance) rows measuring how far the evolved state still is
    from the contracted target q = M p; ready for ``fit_power_law_decay``.
    """
    p = np.asarray(p, dtype=float)
    target = bloch_to_density(asymptotic_map(model, tol) @ p)
    pols = spin_trajectory(model, p, t_grid, tol)
    rows = np.empty((len(t_grid), 2))
    rows[:, 0] = t_grid
    rows[:, 1] = [trace_distance(bloch_to_density(q), target) for q in pols]
    return rows


def _oracle_env(env: SpectralDensity, n_grid: int):
    if env.is_discrete:
        if env.points.shape[0] != n_grid:
            raise DimensionMismatch(
                f"discrete environment has {env.points.shape[0]} points, n_grid was {n_grid}"
            )
        return env.points[:, 0], env.points[:, 1]
    grid = env.discretize(n_grid)
    return grid.points[:, 0], grid.points[:, 1]


def full_simulation_oracle(model, rho0: DensityOperator, t: float, n_grid: int) -> DensityOperator:
    """Ground-truth reduced state from brute-force joint unitary evolution.

    Assembles the joint Hamiltonian on system x (n_grid-point environment),
    evolves rho0 x omega with the exact matrix exponential and traces out
    the environment.  No closed forms enter, so agreement with ``az_evolve``
    or ``spin_evolve`` validates those paths end to end.
    """
    n_grid = operator.index(n_grid)
    if n_grid < 2:
        raise ValueError("n_grid must be at least 2")
    if isinstance(model, ArakiZurekModel):
        dim_s = model.dim
    elif isinstance(model, SpinModel):
        dim_s = 2
    else:
        raise TypeError(f"no oracle for model type {type(model).__name__}")
    if rho0.dim != dim_s:
        raise DimensionMismatch(f"initial state dim {rho0.dim} does not match system dim {dim_s}")
    if dim_s * n_grid > MAX_DENSE_DIM:
        raise DimensionTooLarge(f"joint dimension {dim_s * n_grid} exceeds {MAX_DENSE_DIM}")

    if isinstance(model, ArakiZurekModel):
        v, w = _oracle_env(model.env, n_grid)
        h_joint = tensor_product(model.h_s, np.eye(v.size)) + tensor_product(
            model.v_s, np.diag(v)
        )
    else:
        v, w = _oracle_env(model.env_diag, n_grid)
        h_joint = (
            tensor_product(model.h_s, np.eye(v.size))
            + model.b * tensor_product(np.eye(2), np.diag(v**2))
            + model.lam * tensor_product(PAULI[2], np.diag(v))
        )
    # tr_E U (rho0 x diag w) U^dagger, contracted without forming the joint state:
    # M = U (rho0 x diag w), then r_ij = sum_(k,m,l) M[i,k,m,l] conj(U[j,k,m,l]).
    u = propagator(h_joint, t)
    m = np.einsum("ikjl,jm,l->ikml", u.reshape(dim_s, v.size, dim_s, v.size), rho0.matrix, w)
    reduced = m.reshape(dim_s, -1) @ u.reshape(dim_s, -1).conj().T
    return DensityOperator(reduced)
