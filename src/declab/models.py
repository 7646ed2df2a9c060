"""Exactly solvable reduced dynamics for a system coupled to an environment
through a product interaction, plus a brute-force joint-evolution oracle.

Two closed-form models are provided.  In the commuting (dephasing) model the
system coupling has a gapped point spectrum, every intersector block of the
state just picks up the factor chi((l_m - l_n) t), and chi is the Fourier
transform of the environment's spectral weight along the coupling operator.
Its coherence norms and sector probabilities depend on that damped state
alone, not on the free evolution under h_s, so ``az_coherence`` takes them
over a time grid from stacks of masked copies of the initial state, while
``az_trajectory`` yields the reduced states themselves.
In the spin model a transverse system field no longer commutes with the
coupling; the reduced state is an average of rigidly rotated polarization
vectors and contracts toward a fixed linear image q = M p of the initial
vector.  The oracle evolves the joint state on a discretized environment one
environment point at a time, exactly, and partial-traces, sharing no code
path with the closed forms.
"""

import itertools
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    DimensionTooLarge,
    NotAState,
    NotDiscrete,
    NotHermitian,
    OutsideBall,
)
from .operators import (
    finite_times,
    hs_norm,
    propagator,
    propagators,
    require_hermitian,
    unit_scale,
)
from .quadrature import (
    LegendrePanels,
    _rule,
    kernel_adaptive,
    legendre_fourier,
    legendre_panels,
    oscillation_horizon,
    trig_sum,
)
from .states import BALL_TOL, PAULI, DensityOperator, bloch_to_density, require_positive
from .superselection import (
    OffDiagonalNorms,
    SectorStructure,
    coherence_norms,
    in_sector_frame,
    sector_mask,
    sector_probabilities,
)

NORMALIZATION_TOL = 1e-10
GAUSSIAN_TAIL_SIGMAS = 10.0
MAX_DENSE_DIM = 1024
# Support widths of a continuous density: beyond them its peak value, or the
# products of its abscissae, leave the double range.
SUPPORT_WIDTHS = (1e-300, 1e300)
# Bound on times x sector pairs x environment points in one chi table of
# az_trajectory, on times x d^2 in one state stack of az_coherence (unless a
# single state exceeds it), and on times x points in one trig table of a
# discrete chi.
DEPHASING_ELEMENTS = 2**16


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

    def density_at(self, centres, offsets):
        """Density at centres[:, None] + offsets: nodes given as panel centres plus offsets.

        A narrow bump far from 0 is steep on the scale of an ulp of its
        abscissae, so rounding the sums would put noise into its values; the
        bump adds centre and offset in its own coordinate instead.  Every
        other kind adds them in x.
        """
        if self.kind != "bump":
            return self.density(centres[:, None] + offsets)
        if self._bump_norm is None:
            self.expansion()
        half = (self.b - self.a) / 2.0
        u = (2.0 * centres - self.a - self.b) / (self.b - self.a)
        return self._bump_norm * _bump(u[:, None] + offsets / half)

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
                unit = legendre_panels(lambda c, off: _bump(c[:, None] + off), -1.0, 1.0)
                total = float(unit.coeffs[:, 0].sum())
                mid, half = (self.a + self.b) / 2.0, (self.b - self.a) / 2.0
                self._bump_norm = 1.0 / (half * total)
                self._expansion = LegendrePanels(mid + half * unit.centres, half * unit.halves,
                                                 unit.coeffs / total, unit.tail / total)
            else:
                self._expansion = legendre_panels(self.density_at, *self.support())
        return self._expansion

    def discretize(self, n: int) -> "SpectralDensity":
        """Discrete density on n Gauss-Legendre nodes of the support.

        Weights are the quadrature weights times the density, renormalized so
        they sum to one exactly.  The rule is built once per n and kept
        (``quadrature._rule``).
        """
        n = operator.index(n)
        if self.is_discrete:
            raise ValueError("density is already discrete")
        if n < 2:
            raise ValueError("need at least 2 grid points")
        x, w = _rule(n)
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
    below that estimate.  A discrete density is one exact sum over its points,
    each t on ``trig_sum``'s batch axis: a row of the table is computed as a
    call at that t alone computes it, to the bit.  Its times are taken in
    chunks whose trig tables hold at most DEPHASING_ELEMENTS (times x points)
    entries.
    """
    ts = finite_times(ts)
    if not env.is_discrete:
        return legendre_fourier(env.expansion(), ts, tol)
    v, weight = env.points.T
    # w exp(-ivt) as (real, imaginary): a = (w, 0), b = (0, -w).
    zero = np.zeros_like(weight)
    a, b = np.column_stack([weight, zero]), np.column_stack([zero, -weight])
    out = np.empty(ts.size, dtype=complex)
    step = max(1, DEPHASING_ELEMENTS // v.size)
    for start in range(0, ts.size, step):
        chunk = slice(start, start + step)
        parts = trig_sum(np.ones(1), np.multiply.outer(ts[chunk], v), a, b, None)[:, 0]
        out[chunk] = parts[:, 0] + 1j * parts[:, 1]
    return out


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
        _, index = self.sectors._adapted_frame()  # validates a family given as projectors
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
        # Entries past ~1e154 would overflow the squares and the norm, so both
        # are taken of h_s scaled exactly, by a power of two, to entries below 1.
        scale = unit_scale(h_s)
        scaled = scale * h_s
        g = in_sector_frame(scaled, self.sectors)
        rows = (np.abs(g) ** 2 * (index[:, None] != index)).sum(axis=1)
        leak = np.sqrt(2.0 * np.bincount(index, weights=rows, minlength=len(self.sectors)))
        bad = np.flatnonzero(leak > 1e-10 * max(scale, hs_norm(scaled)))
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


def _chi_tables(lambdas, env: SpectralDensity, ts, tol: float, stack: int = 1):
    """Sector coefficients chi((l_m - l_n) t) for the finite times ``ts``, as
    (B, k, k) arrays over consecutive chunks of B times, conjugate-symmetric
    with a unit diagonal.

    Each chunk is one ``chi_trajectory`` call over all its (t, pair) phases,
    with B times x pairs x environment points within DEPHASING_ELEMENTS: a
    discrete environment's trig tables hold that many entries, and a
    continuous one bounds its own (``quadrature.LEGENDRE_ELEMENTS``).  A
    caller that builds a stack of ``stack`` entries per time from a chunk
    also has B x stack within DEPHASING_ELEMENTS.  B is at least 1.  Nothing
    is evaluated before the first chunk is taken.
    """
    k = lambdas.size
    m, n = np.triu_indices(k, 1)
    gaps = lambdas[m] - lambdas[n]
    points = env.points.shape[0] if env.is_discrete else 1
    step = max(1, DEPHASING_ELEMENTS // max(1, gaps.size * points, stack))
    for start in range(0, ts.size, step):
        chunk = ts[start : start + step]
        chi = np.ones((chunk.size, k, k), dtype=complex)
        if gaps.size:
            chi[:, m, n] = chi_trajectory(env, np.multiply.outer(chunk, gaps).ravel(),
                                          tol).reshape(chunk.size, -1)
            chi[:, n, m] = np.conj(chi[:, m, n])
        yield chi


def az_trajectory(model: ArakiZurekModel, rho0: DensityOperator, ts, tol: float = 1e-9):
    """Reduced states at every t in ``ts``, yielded one DensityOperator at a time.

    Each intersector block of rho0 is damped by chi((l_m - l_n) t) and the
    whole result is conjugated by exp(-i h_s t).  Diagonal blocks carry
    chi(0) = 1, so sector probabilities are conserved exactly.  The inputs
    are checked and h_s diagonalised at the call.  Chi is evaluated in
    chunks of times, one table over all their (t, sector pair) phases
    (``_chi_tables``), when the first state of a chunk is taken; each state
    is built as it is taken.
    """
    if rho0.dim != model.dim:
        raise DimensionMismatch(f"state dim {rho0.dim} does not match model dim {model.dim}")
    ts = finite_times(ts)
    chis = itertools.chain.from_iterable(_chi_tables(model.lambdas, model.env, ts, tol))
    return (DensityOperator(u @ sector_mask(rho0.matrix, model.sectors, chi) @ u.conj().T)
            for u, chi in zip(propagators(model.h_s, ts), chis))


def az_coherence(model: ArakiZurekModel, rho0: DensityOperator, ts, tol: float = 1e-9):
    """Intersector coherence norms of the reduced state (``OffDiagonalNorms`` of
    arrays) and chi((l_0 - l_1) t) (1 for a single sector) at every t in
    ``ts``, without building the states.

    Both are functions of C(t) o x0 alone, where C_mn(t) = chi((l_m - l_n) t)
    and x0 is rho0 in the sector-adapted frame: h_s commutes with every P_m
    and the norms are unitarily invariant, so exp(-i h_s t) drops out.  Per
    chunk of ``_chi_tables`` the states form one (B, d, d) stack, B d^2
    within DEPHASING_ELEMENTS, whose norms are ``coherence_norms``.  Every
    state is checked positive as a DensityOperator is (C(t) is a Gram
    matrix, so by the Schur product theorem it is).  C is conjugate-symmetric
    with a unit diagonal, so each state keeps the Hermiticity and the trace
    of x0, which are checked once.
    """
    ts = finite_times(ts)
    x0 = DensityOperator(in_sector_frame(rho0.matrix, model.sectors)).matrix
    _, index = model.sectors._adapted_frame()
    pair = min(1, len(model.sectors) - 1)
    hs, trace, chi = np.empty(ts.size), np.empty(ts.size), np.empty(ts.size, dtype=complex)
    start = 0
    for table in _chi_tables(model.lambdas, model.env, ts, tol, model.dim**2):
        x = table[:, index[:, None], index] * x0
        require_positive(x)
        chunk = slice(start, start + table.shape[0])
        hs[chunk], trace[chunk] = coherence_norms(x, model.sectors)
        chi[chunk] = table[:, 0, pair]
        start = chunk.stop
    return OffDiagonalNorms(hs, trace), chi


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
    ts = finite_times([t])
    total = np.zeros((model.dim, model.dim), dtype=complex)
    for rho_mu, env_mu in w0.terms:
        if rho_mu.shape[0] != model.dim:
            raise DimensionMismatch("initial-state terms do not match the model dimension")
        chi = next(_chi_tables(model.lambdas, env_mu, ts, tol))[0]
        total += sector_mask(rho_mu, model.sectors, chi)
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


class _Branch(NamedTuple):
    """Where omega is monotone: x runs from x0, the end nearest the fold, in
    the direction ``sign``; |x0 - x*| = eta0, and nu runs over
    [nu0, nu0 + length]."""

    x0: float
    sign: float
    eta0: float
    nu0: float
    length: float


def _fold(model: SpinModel):
    """The near region of a continuous environment's support, and its far branches.

    The rotation rate omega(x) = 2 |(a_1, a_2, a_3 + lam x)| is smallest,
    2 m with m = |(a_1, a_2)|, at the fold x* = -a_3 / lam.  Farther than
    xi = m / |lam| from it, omega is monotone on either side, and
    nu = omega / (2 |lam|) = |(xi, x - x*)| can take the place of x.  Returns
    the near region (lo, hi), clipped to the support and empty when lo >= hi,
    and one ``_Branch`` per side where the support reaches beyond it.  With
    lam = 0, or a fold too far off to place in doubles, the whole support is
    near.
    """
    lo, hi = model.env_diag.support()
    a1, a2, a3 = model.a
    near, branches = [lo, hi], []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x_star = np.float64(-a3) / model.lam
        xi = np.hypot(a1, a2) / abs(np.float64(model.lam))
        if not (np.isfinite(x_star) and np.isfinite(xi)):
            return tuple(near), branches
        for side, sign, x0, x1 in ((0, -1.0, min(hi, x_star - xi), lo),
                                   (1, 1.0, max(lo, x_star + xi), hi)):
            span = sign * (x1 - x0)
            if span > 0:
                eta0 = abs(x0 - x_star)
                nu0, nu1 = np.hypot(xi, eta0), np.hypot(xi, eta0 + span)
                # nu1 - nu0 without cancellation: nu^2 - eta^2 = xi^2 at both ends.
                length = span * ((2.0 * eta0 + span) / (nu0 + nu1))
                # _far_panels adds two rates; else the branch stays near.
                if np.isfinite(2.0 * nu1) and length > 0:
                    near[side] = x0
                    branches.append(_Branch(x0, sign, eta0, nu0, length))
    return tuple(near), branches


def spin_horizon(model: SpinModel) -> float:
    """Largest |t| at which ``spin_trajectory``'s pre-split still resolves the phase.

    Only the near region of the fold (``_fold``) is integrated by the
    adaptive rule; its far branches cost the same at any t.  The rotation
    rate 2 |h(x)| changes by at most 2 |lam| per unit x, so this is
    ``quadrature.oscillation_horizon`` of the near region at that rate, 2**14 pi /
    (2 |lam| w) for a near region of width w: where the pre-split reaches the
    quadrature's panel budget.  Beyond it the adaptive rule may run out of
    panels.  A discrete environment (an exact sum), lam = 0, m = 0 and a fold
    farther than xi outside the support have no horizon.
    """
    env = model.env_diag
    if env.is_discrete:
        return float("inf")
    return oscillation_horizon(*_fold(model)[0], 2.0 * abs(model.lam))


def _far_panels(model: SpinModel, branch: _Branch) -> LegendrePanels:
    """Legendre panels, in v = nu - nu0, of the five factors of a far branch's kernel.

    On the branch x = x0 + sign (eta - eta0), with eta = |x - x*| and
    eta^2 = nu^2 - xi^2, so dx/dnu = nu / eta.  The axis is
    n = alpha e_t + beta e_3 with e_t = (a_1, a_2, 0) / m, alpha = xi / nu
    and |beta| = eta / nu.  The amplitudes (a, b, c) times dx/dnu are linear in
    w dx/dnu (alpha^2, beta^2, alpha |beta|, alpha, |beta|)
    = w (xi^2 / (nu eta), eta / nu, xi / nu, xi / eta, 1) (``_far_mixing``);
    being products of positive numbers, these keep the relative accuracy of
    the density w, where a component of a may be a difference of O(1) terms.
    A node at v = c + d is placed as x(c) plus an offset,
    eta^2 - eta(c)^2 = d (2 (nu0 + c) + d) over eta + eta(c): no rounding of
    nu0 + v, or of x* (both large beside the offsets when the fold is far
    off), enters the abscissae, and the density takes the two apart
    (``SpectralDensity.density_at``).  Values are (p, n, 5).
    """
    x0, sign, eta0, nu0, length = branch
    xi = np.hypot(*model.a[:2]) / abs(model.lam)

    def eta(v):  # squaring neither eta0 nor nu0
        return np.hypot(eta0, np.sqrt(v) * np.sqrt(2.0 * nu0 + v))

    def values(centres, offsets):
        eta_c = eta(centres)
        x_c = x0 + sign * centres * ((2.0 * nu0 + centres) / (eta_c + eta0))
        c, eta_c = centres[:, None], eta_c[:, None]
        eta_v = eta(c + offsets)
        w = model.env_diag.density_at(
            x_c, sign * offsets * ((2.0 * (nu0 + c) + offsets) / (eta_v + eta_c)))
        nu = nu0 + (c + offsets)
        return np.stack([w * (xi / nu) * (xi / eta_v), w * (eta_v / nu), w * (xi / nu),
                         w * (xi / eta_v), w], axis=-1)

    return legendre_panels(values, 0.0, length)


def _far_mixing(model: SpinModel, p, branch: _Branch) -> np.ndarray:
    """(5, 9) map from ``_far_panels``' factors to the amplitudes (a, b, c) of p.

    With n = alpha e_t + beta e_3 and alpha^2 + beta^2 = 1:
    c = (n.p) n = alpha^2 (e_t.p) e_t + beta^2 p_3 e_3 + alpha beta (p_3 e_t + (e_t.p) e_3),
    a = p - c = alpha^2 p + beta^2 p - c, and b = n x p = alpha e_t x p + beta e_3 x p.
    """
    m = np.hypot(*model.a[:2])
    e_t = np.array([model.a[0] / m, model.a[1] / m, 0.0]) if m > 0 else np.zeros(3)
    e_3 = np.array([0.0, 0.0, 1.0])
    axial = branch.sign * np.sign(model.lam)  # the sign of beta: of a_3 + lam x on the branch
    along = np.array([(e_t @ p) * e_t, p[2] * e_3, axial * (p[2] * e_t + (e_t @ p) * e_3)])
    mixing = np.zeros((5, 9))
    mixing[:3, :3] = np.array([p, p, np.zeros(3)]) - along
    mixing[:3, 6:] = along
    mixing[3, 3:6] = np.cross(e_t, p)
    mixing[4, 3:6] = axial * np.cross(e_3, p)
    return mixing


def spin_trajectory(model: SpinModel, p, ts, tol: float = 1e-9) -> np.ndarray:
    """Averaged rotated polarization for every t in ``ts``, shape (T, 3).

    Conditioned on x the polarization is rotated (Rodrigues) about n(x) by
    omega(x) t: c + a cos(omega t) + b sin(omega t) with c = (n.p) n,
    a = p - c and b = n x p.  A discrete environment is one exact sum.  On a
    continuous one the support is split at the fold of omega (``_fold``):
    - the near region takes one adaptive quadrature for the whole grid
      (``quadrature.kernel_adaptive``), whose cost grows with |t|;
    - on each far branch, where omega is monotone, a and b become
      int g(nu) exp(-i 2 |lam| nu t) dnu with g = (a, b) |dx/dnu|: Legendre
      panels in nu (``_far_panels``), integrated exactly at every t by
      ``quadrature.legendre_fourier``, taking times in ascending |t| as the
      adaptive blocks do.  The cos integral is the real part, the sin
      integral minus the imaginary part; c, which does not oscillate, is the
      sum of the panels' integrals.
    Integrated apart from a and b over the whole support, c would meet tol
    alone: a fold narrower than tol would then go missing from c + a.
    """
    p = np.asarray(p, dtype=float)
    env, rate = model.env_diag, 2.0 * abs(model.lam)

    def rotation(x, weight):
        n, omega = _axes(model, x)
        along = (n @ p)[:, None] * n
        weight = weight[:, None]
        return omega, weight * (p - along), weight * np.cross(n, p), weight * along

    if env.is_discrete:
        return _trajectory(env, ts, rate, rotation, tol)
    ts = finite_times(ts)
    (lo, hi), branches = _fold(model)
    out = np.zeros((ts.size, 3))
    if hi > lo:
        out += kernel_adaptive(lambda x: rotation(x, env.density(x)), ts, lo, hi, tol, rate)
    order = np.argsort(np.abs(ts), kind="stable")
    for branch in branches:
        panels = _far_panels(model, branch)
        mixing = _far_mixing(model, p, branch)
        far = legendre_fourier(panels._replace(centres=branch.nu0 + panels.centres),
                               rate * ts[order], tol) @ mixing[:, :6]
        out[order] += far[:, :3].real - far[:, 3:].imag
        out += panels.coeffs[:, 0].sum(axis=0) @ mixing[:, 6:]  # c: the panels' integrals
    return out


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
    For 2x2 states the trace distance is the distance of the polarization
    vectors (``trace_distance``), so the whole grid is |p(t) - q|, from one
    ``spin_trajectory`` call.  q must be a state (``bloch_to_density``), and
    OutsideBall names the first p(t) outside the unit ball.
    """
    p = np.asarray(p, dtype=float)
    ts = finite_times(t_grid)
    target = asymptotic_map(model, tol) @ p
    bloch_to_density(target)
    pols = spin_trajectory(model, p, ts, tol)
    radii = np.linalg.norm(pols, axis=1)
    outside = np.flatnonzero(~(radii <= 1.0 + BALL_TOL))  # nan is outside too
    if outside.size:
        raise OutsideBall(f"|p| = {radii[outside[0]]!r} exceeds 1")
    return np.column_stack([ts, np.linalg.norm(pols - target, axis=1)])


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

    The coupling is diagonal in the environment's pointer basis, so on
    system x (n_grid-point environment) the joint Hamiltonian is
    sum_k H_k x |k><k|, one d x d block per environment point v_k:
    H_k = h_s + v_k V_s for the dephasing model and
    h_s + b v_k^2 1 + lam v_k sigma_3 for the spin model.  The blocks are
    diagonalised by one batched ``eigh`` and exponentiated exactly, and
    rho0 x omega is evolved and the environment traced out as
    sum_k w_k U_k rho0 U_k^dagger.  No closed form, chi or propagator
    enters, so agreement with ``az_evolve`` or ``spin_evolve`` validates
    those paths end to end.  The joint dimension d n_grid stays capped at
    MAX_DENSE_DIM, although only n_grid d^2 entries are stored.
    """
    n_grid = operator.index(n_grid)
    if n_grid < 2:
        raise ValueError("n_grid must be at least 2")
    az = isinstance(model, ArakiZurekModel)
    if not (az or isinstance(model, SpinModel)):
        raise TypeError(f"no oracle for model type {type(model).__name__}")
    dim_s = model.dim if az else 2
    if rho0.dim != dim_s:
        raise DimensionMismatch(f"initial state dim {rho0.dim} does not match system dim {dim_s}")
    if dim_s * n_grid > MAX_DENSE_DIM:
        raise DimensionTooLarge(f"joint dimension {dim_s * n_grid} exceeds {MAX_DENSE_DIM}")

    v, w = _oracle_env(model.env if az else model.env_diag, n_grid)
    # Blocks past the double range are rejected below, without warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        if az:
            h = model.h_s + v[:, None, None] * model.v_s
        else:
            h = (model.h_s + (model.b * v**2)[:, None, None] * np.eye(2)
                 + (model.lam * v)[:, None, None] * PAULI[2])
    if not np.isfinite(float(t)):
        raise ValueError("t must be finite")
    if not np.all(np.isfinite(h)):
        raise ValueError("joint Hamiltonian contains non-finite entries")
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver failed: {exc}") from exc
    u = (vecs * np.exp(-1j * vals * t)[:, None, :]) @ vecs.conj().swapaxes(1, 2)
    # sum_k w_k U_k rho0 U_k^dagger as one product of (d, n d) matrices, rows i and
    # columns (k, j): [w_k (U_k rho0)_ij] times the adjoint of [(U_k)_lj].
    left = (w[:, None, None] * (u @ rho0.matrix)).swapaxes(0, 1).reshape(dim_s, -1)
    right = u.swapaxes(0, 1).reshape(dim_s, -1)
    return DensityOperator(left @ right.conj().T)
