"""Exactly solvable reduced dynamics for a system coupled to an environment
through a product interaction, plus a brute-force joint-evolution oracle.

Two closed-form models are provided.  In the commuting (dephasing) model the
system coupling has a gapped point spectrum, every intersector block of the
state just picks up the factor chi((l_m - l_n) t), and chi is the Fourier
transform of the environment's spectral weight along the coupling operator.
Its coherence norms and sector probabilities depend on that damped state
alone, not on the free evolution under h_s, so ``az_coherence`` takes them
over a time grid from stacks of masked copies of the initial state, while
``az_trajectory`` yields the reduced states themselves, evolved by h_s one
sector block at a time in the sector-adapted frame.
In the spin model a transverse system field no longer commutes with the
coupling; the reduced state is an average of rigidly rotated polarization
vectors and contracts toward a fixed linear image q = M p of the initial
vector.  The oracle evolves the joint state on a discretized environment one
environment point at a time, exactly, and partial-traces, sharing no code
path with the closed forms.
"""

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import quadrature
from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    DimensionTooLarge,
    NotAState,
    NotDiscrete,
    NotHermitian,
    OutsideBall,
    PhaseOverflow,
    QuadratureFailure,
)
from .operators import (
    chunks,
    finite_phases,
    finite_times,
    hs_norm,
    require_hermitian,
    unit_scale,
)
from .quadrature import (
    EPS,
    LegendrePanels,
    _frozen,
    _rule,
    gauss_legendre_adaptive,
    legendre_fourier,
    legendre_panels,
)
from .states import (
    BALL_TOL,
    PAULI,
    STATE_TOL,
    DensityOperator,
    bloch_to_density,
    require_positive,
    require_state,
)
from .superselection import (
    OffDiagonalNorms,
    SectorStructure,
    coherence_norms,
    in_sector_frame,
    sector_mask,
)

NORMALIZATION_TOL = 1e-10
GAUSSIAN_TAIL_SIGMAS = 10.0
MAX_DENSE_DIM = 1024
# Support widths of a continuous density: beyond them its peak value, or the
# products of its abscissae, leave the double range.
SUPPORT_WIDTHS = (1e-300, 1e300)
# Terms kept of the spin strip's phase series (``_strip``): with |psi| <= pi/2
# the ones left out sum to at most (pi/2)^23 / 23! e^(pi/2) ~ 6e-18 of int |g|.
STRIP_TERMS = 23
_INVERSE_FACTORIALS = 1.0 / np.cumprod(np.maximum(np.arange(STRIP_TERMS), 1.0))


class SpectralDensity:
    """Normalized nonnegative weight over the environment coupling spectrum.

    A continuous kind (a row of ``DENSITY_KINDS``) is its unit shape in
    u = (v - mid) / half, normalized: ``gaussian`` (width s, mid 0 and
    half s) and ``uniform`` and ``bump`` on a finite support [a, b] (mid
    and half its midpoint and half-width).  The bump is exp(-1/(1-u^2)),
    smooth and vanishing to all orders at the endpoints, which is what makes
    arbitrarily fast power-law suppression reachable.  The gaussian is the
    full normal density, also beyond ``support()``; uniform and bump are
    zero outside their closed support.  ``discrete`` holds explicit
    (point, weight) pairs and models a finite environment.
    """

    __slots__ = ("kind", "s", "a", "b", "points", "_frame", "_expansion")

    def __init__(self, kind, s=None, a=None, b=None, points=None):
        self.kind, self.s, self.a, self.b, self.points = kind, s, a, b, points
        self._expansion = None
        if kind == "discrete":
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
            self._frame = (float(pts[0, 0]), float(pts[-1, 0]), None, None)
            return
        if kind not in DENSITY_KINDS:
            raise ValueError(f"unknown spectral density kind {kind!r}")
        spec = DENSITY_KINDS[kind]
        params = [getattr(self, name) for name in spec.params]
        self._frame = lo, hi, _, _ = spec.frame(*params)
        if not lo < hi:
            raise ValueError(spec.invalid.format(*params))
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
        return self._frame[:2]

    def density(self, v):
        """Weight density at v; vectorized: ``density_at`` with a zero offset."""
        return self.density_at(np.asarray(v, dtype=float), 0.0)[..., 0]

    def density_at(self, centres, offsets):
        """Density at centres[..., None] + offsets: nodes given as panel centres plus offsets.

        A narrow density far from 0 is steep on the scale of an ulp of its
        abscissae, so rounding the sums would put noise into its values;
        centre and offset are added in the kind's own coordinate u instead,
        and the unit shape divided by half times its integral
        (``_unit_expansion``).  A bounded kind is zero outside its closed
        support, tested in v, where both ends are exact.
        """
        if self.is_discrete:
            raise NotDiscrete("a discrete density has weights, not a density function")
        spec, (lo, hi, mid, half) = DENSITY_KINDS[self.kind], self._frame
        centres = np.asarray(centres, dtype=float)[..., None]
        values = spec.shape((centres - mid) / half + offsets / half) / (
            half * _unit_expansion(self.kind)[1])
        if spec.bounded:
            v = centres + offsets
            values = np.where((v >= lo) & (v <= hi), values, 0.0)
        return values

    def expansion(self) -> LegendrePanels:
        """Legendre panels of a continuous density, built on first use and kept.

        They depend on the density alone and serve every chi evaluation.
        Each kind has one unit shape, expanded once per process
        (``_unit_expansion``).  Its panels are mapped onto the support,
        centres to mid + half centres and half-widths to half times theirs,
        and its coefficients and tail divided by the unit's integral, the
        sum of its panel integrals 2h a_0 (1.0 exactly for the gaussian and
        the uniform).  Sampling a density at points of a far-off or wide
        support would put rounding of the abscissae into steep flanks; the
        unit shapes never see the support.
        """
        if self.is_discrete:
            raise NotDiscrete("a discrete density has weights, not a Legendre expansion")
        if self._expansion is None:
            unit, total = _unit_expansion(self.kind)
            _, _, mid, half = self._frame
            self._expansion = unit._replace(centres=mid + half * unit.centres,
                                            halves=half * unit.halves,
                                            coeffs=unit.coeffs / total, tail=unit.tail / total)
        return self._expansion

    def discretize(self, n: int) -> "SpectralDensity":
        """Discrete density on n Gauss-Legendre nodes of the support.

        Weights are the quadrature weights times the density, renormalized so
        they sum to one exactly.  The rule is built once per n and kept
        (``quadrature._rule``), by Newton's method on the Legendre recurrence
        in O(n^2) time and O(n) memory.
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
        if self.is_discrete:
            return f"SpectralDensity.discrete(<{self.points.shape[0]} points>)"
        params = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in DENSITY_KINDS[self.kind].params)
        return f"SpectralDensity.{self.kind}({params})"


def _bump(u):
    """exp(-1/(1-u^2)) on |u| < 1, zero elsewhere."""
    inside = np.abs(u) < 1.0
    safe = np.where(inside, u, 0.0)
    return np.where(inside, np.exp(-1.0 / (1.0 - safe**2)), 0.0)


class DensityKind(NamedTuple):
    """A continuous kind of SpectralDensity.

    ``params`` names its constructor parameters; a config gives them as
    ``env.<param>`` and a constructor error is keyed by the last.
    ``frame(*params)`` is (lo, hi, mid, half): the support and the place of
    the unit shape, ``shape`` in u = (v - mid) / half, whose expansion is
    taken on [-reach, reach].  ``invalid`` is the error, formatted with the
    parameters, when the support is empty.  A ``bounded`` kind is zero
    outside its closed support.
    """

    params: tuple
    frame: Callable
    shape: Callable
    reach: float
    invalid: str
    bounded: bool


def _interval(a, b):
    return a, b, (a + b) / 2.0, (b - a) / 2.0


_EMPTY_INTERVAL = "support must satisfy b > a, got [{}, {}]"
DENSITY_KINDS = {
    "gaussian": DensityKind(
        ("s",), lambda s: (-GAUSSIAN_TAIL_SIGMAS * s, GAUSSIAN_TAIL_SIGMAS * s, 0.0, s),
        lambda u: np.exp(-(u**2) / 2.0) / np.sqrt(2.0 * np.pi), GAUSSIAN_TAIL_SIGMAS,
        "gaussian width must be positive", False),
    "uniform": DensityKind(("a", "b"), _interval, lambda u: np.full_like(u, 0.5), 1.0,
                           _EMPTY_INTERVAL, True),
    "bump": DensityKind(("a", "b"), _interval, _bump, 1.0, _EMPTY_INTERVAL, True),
}
_unit_cache: dict = {}


def _unit_expansion(kind):
    """Legendre panels of ``kind``'s unit shape and their integral, built once per process.

    The build is deterministic, so concurrent first calls agree.  The
    panels' arrays are read-only: densities share them.
    """
    if kind not in _unit_cache:
        spec = DENSITY_KINDS[kind]
        unit = legendre_panels(lambda c, off: spec.shape(c[:, None] + off), -spec.reach, spec.reach)
        _frozen(unit.centres, unit.halves, unit.width_of, unit.coeffs)
        _unit_cache[kind] = unit, float(unit.coeffs[:, 0].sum())
    return _unit_cache[kind]


def _trajectory(env, ts, kernel):
    """Exact sum of c + a cos(omega t) + b sin(omega t) over a discrete
    environment's points for every t in the finite times ts, shape (T, d).

    ``kernel(x, weight)`` maps the (m,) points and their weights to the (m,)
    frequencies omega and the (m, d) weighted amplitudes a, b and c, or None
    for a c that is all zero.  Each t takes its own (1, m) rows of cos and
    sin, so a row is computed as a call at that t alone computes it, to the
    bit, and the times are taken in chunks of (time, point) tables
    (``_by_chunks``).  Raises OutOfDomain naming the first t at which a
    phase omega t overflows.
    """
    omega, a, b, c = kernel(env.points[:, 0], env.points[:, 1])
    finite_phases(ts, ("the frequency", np.abs(omega).max()))

    def sums(t):
        phase = np.multiply.outer(t, omega)[:, None, :]
        out = (np.cos(phase) @ a + np.sin(phase) @ b)[:, 0]
        return out if c is None else out + c.sum(axis=0)

    return _by_chunks(sums, ts, omega.size)


def _by_chunks(f, ts, width):
    """f(chunk) for consecutive chunks of ``ts`` (``operators.chunks``), joined
    along the first axis: a table of ``width`` entries per time stays within
    the one budget.  f must compute each row from its own time alone."""
    return np.concatenate([f(ts[chunk]) for chunk in chunks(ts.size, width)])


def chi_trajectory(env: SpectralDensity, ts) -> np.ndarray:
    """chi(t) for every t in ``ts`` (any order, sign or repetition), shape (T,).

    A continuous density is integrated term by term from its Legendre
    expansion (``SpectralDensity.expansion``), built once per density: the
    cost per time does not depend on |t|, and the error is at most
    ``env.expansion().tail`` at every t, a bound fixed by the density's kind
    (below 1e-14 for each).  A discrete density is one exact sum over its
    points (``_trajectory``).
    """
    ts = finite_times(ts)
    if not env.is_discrete:
        return legendre_fourier(env.expansion(), ts)

    def phases(v, weight):  # w exp(-ivt) as (real, imaginary): a = (w, 0), b = (0, -w)
        zero = np.zeros_like(weight)
        return v, np.column_stack([weight, zero]), np.column_stack([zero, -weight]), None

    parts = _trajectory(env, ts, phases)
    return parts[:, 0] + 1j * parts[:, 1]


def decoherence_function(env: SpectralDensity, t: float) -> complex:
    """Environment overlap chi(t): the Fourier transform of the density.

    chi(0) = 1 and |chi(t)| <= 1 for every density; its decay rate is what
    suppresses intersector coherence.  Continuous kinds are integrated
    exactly term by term from the density's Legendre expansion, at a cost
    that does not depend on t and within ``env.expansion().tail``; a
    discrete density is an exact sum.  This is the single-time case of
    ``chi_trajectory``.
    """
    return complex(chi_trajectory(env, [float(t)])[0])


def recurrence_window(env: SpectralDensity) -> float:
    """Conservative revival time 2 pi / (max adjacent point spacing).

    A finite environment makes chi almost periodic, so decay statements only
    hold up to this horizon; for an equally spaced grid it is the exact
    revival time.  It is inf where it leaves the double range.
    """
    if not env.is_discrete:
        raise NotDiscrete("recurrence windows only exist for discrete spectra")
    v = env.points[:, 0]
    if v.size < 2:
        return float("inf")
    # Half-spacings of neighbours, not np.diff, which overflows for points spanning > 1.8e308.
    with np.errstate(divide="ignore", over="ignore"):
        return float(np.pi / np.max(v[1:] / 2.0 - v[:-1] / 2.0))


@dataclass(frozen=True, eq=False)
class ArakiZurekModel:
    """Dephasing model: gapped point-spectrum coupling, commuting free part.

    ``lambdas`` are the coupling eigenvalues on the sectors, separated
    pairwise by at least ``delta``; ``h_s`` must commute with every sector
    projector, to 1e-10 relative.  The environment enters reduced quantities
    only through chi.  The evolution takes h_s as exactly block-diagonal in
    the sector-adapted frame: an intersector leak within that tolerance is
    dropped, so sector probabilities stay exactly conserved, as the closed
    form states.
    """

    sectors: SectorStructure
    lambdas: np.ndarray
    h_s: np.ndarray
    env: SpectralDensity
    delta: float

    def __post_init__(self):
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
        index = self.sectors.index
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


@dataclass(frozen=True, eq=False)
class CorrelatedInitialState:
    """Initial joint state sum_mu rho_mu x omega_mu with classical S-E correlations.

    The system parts rho_mu are Hermitian but need not be positive on their
    own; only their sum must be a state.  ``az_trajectory`` and
    ``az_evolve`` take it in place of a DensityOperator: each term is damped
    by the chi of its own environment part, so sectors still emerge while
    the summed chi contributions decay, whatever the initial correlations.
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


def _chi_tables(lambdas, env: SpectralDensity, ts, stack: int = 1):
    """Sector coefficients chi((l_m - l_n) t) for the finite times ``ts``, as
    (B, k, k) arrays over consecutive chunks of B times, conjugate-symmetric
    with a unit diagonal.

    Each chunk is one ``chi_trajectory`` call over its (t, gap) phases, one
    per distinct gap l_m - l_n (equally spaced l repeat most of them).  A
    chunk holds B times of the larger of the sector pairs and ``stack``
    entries each (``operators.chunks``): its tables hold at most four times
    the one table budget, and a caller that builds a stack of ``stack``
    entries per time from it stays within the budget.  ``chi_trajectory``
    bounds its own tables.  Nothing is evaluated before the first chunk is
    taken.  Raises OutOfDomain naming the first t at which a phase
    overflows: with the sector pair of the largest gap, max - min, which
    may overflow itself, or with a gap at which chi's phases overflow.
    """
    k = lambdas.size
    top, bottom = int(lambdas.argmax()), int(lambdas.argmin())
    finite_phases(ts, (f"the gap lambdas[{top}] - lambdas[{bottom}] =",
                       float(lambdas[top]) - float(lambdas[bottom])))  # inf, not a warning
    m, n = np.triu_indices(k, 1)
    gaps, pair_gap = np.unique(lambdas[m] - lambdas[n], return_inverse=True)
    for chunk in chunks(ts.size, max(1, m.size, stack)):
        t = ts[chunk]
        chi = np.ones((t.size, k, k), dtype=complex)
        if gaps.size:
            try:
                values = chi_trajectory(env, np.multiply.outer(t, gaps).ravel())
            except PhaseOverflow as exc:  # name the caller's time, not the table's entry
                row, gap = divmod(exc.index, gaps.size)
                pair = int(np.argmax(pair_gap == gap))
                raise PhaseOverflow(chunk.start + row, float(t[row]),
                                    f"the gap lambdas[{m[pair]}] - lambdas[{n[pair]}] = "
                                    f"{gaps[gap]:g} times {exc.rate}") from None
            chi[:, m, n] = values.reshape(t.size, -1)[:, pair_gap]
            chi[:, n, m] = np.conj(chi[:, m, n])
        yield chi


def _sector_propagators(model: ArakiZurekModel, ts):
    """exp(-i h_s t) F = F u(t) for every t in ``ts``, yielded one at a time,
    with F the sector-adapted frame (the identity when None) and u(t) the
    frame unitary exp(-i g t) of g = F^H h_s F.

    The index is sorted, so each sector is a contiguous range of the frame,
    and h_s is taken as exactly block-diagonal there: the intersector entries
    of g that ``ArakiZurekModel`` tolerates are dropped.  The sector blocks
    of g are diagonalised at the call, one batched ``eigh`` per distinct
    sector size; each unitary is built when it is taken.  Raises
    OutOfDomain naming the first t at which a phase e t of an eigenvalue e
    overflows, at the call.
    """
    frame, index = model.sectors.frame, model.sectors.index
    g = in_sector_frame(model.h_s, model.sectors)
    sizes = np.bincount(index, minlength=len(model.sectors))
    starts = np.cumsum(sizes) - sizes
    groups = []
    for d in sorted(set(sizes.tolist())):
        idx = starts[sizes == d][:, np.newaxis] + np.arange(d)
        try:
            vals, vecs = np.linalg.eigh(g[idx[:, :, np.newaxis], idx[:, np.newaxis, :]])
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(f"eigensolver failed: {exc}") from exc
        groups.append((idx, vals, vecs))
    finite_phases(ts, ("the largest |eigenvalue| of h_s",
                       max(np.abs(vals).max() for _, vals, _ in groups)))

    def unitaries():
        for t in ts:
            u = np.zeros(g.shape, dtype=complex)
            for idx, vals, vecs in groups:
                phased = vecs * np.exp(-1j * vals * t)[:, np.newaxis, :]
                u[idx[:, :, np.newaxis], idx[:, np.newaxis, :]] = phased @ vecs.conj().swapaxes(1, 2)
            yield u if frame is None else frame @ u

    return unitaries()


def az_trajectory(model: ArakiZurekModel, rho0: DensityOperator | CorrelatedInitialState, ts):
    """Reduced states at every t in ``ts``, yielded one DensityOperator at a time.

    Each intersector block of rho0 is damped by chi((l_m - l_n) t) and the
    whole result is conjugated by exp(-i h_s t).  In the sector-adapted
    frame, with x0 = F^H rho0 F, the state is F u (C o x0) u^H F^H for
    C_ij = chi((l_m - l_n) t) over the sectors m, n of i, j and the frame
    unitary u of ``_sector_propagators``.  Diagonal blocks carry chi(0) = 1,
    so sector probabilities are conserved exactly.  A CorrelatedInitialState
    sum_mu rho_mu x omega_mu gives F u (sum_mu C_mu o x_mu) u^H F^H, each
    C_mu from the chi of its own omega_mu; a DensityOperator is the one term
    (rho0, model.env).  The terms' dimensions are checked, every x_mu formed
    and h_s diagonalised at the call.  Each term's chi is evaluated in chunks
    of times, one table over all their (t, sector pair) phases
    (``_chi_tables``), when the first state of a chunk is taken; each state
    is built as it is taken.  Chi is the only approximation: within
    ``env.expansion().tail`` of each continuous omega_mu at every t, and an
    exact sum for a discrete one.
    """
    terms = rho0.terms if isinstance(rho0, CorrelatedInitialState) else [(rho0.matrix, model.env)]
    if len(terms[0][0]) != model.dim:  # the terms of a correlated state share their dimension
        raise DimensionMismatch(f"state dim {len(terms[0][0])} does not match model dim {model.dim}")
    ts = finite_times(ts)
    pairs = np.ix_(model.sectors.index, model.sectors.index)
    xs = [in_sector_frame(mat, model.sectors) for mat, _ in terms]
    streams = [itertools.chain.from_iterable(_chi_tables(model.lambdas, env, ts))
               for _, env in terms]

    def damped(chis):  # sum_mu C_mu o x_mu; one term is not added onto a zero, keeping -0.0
        return functools.reduce(operator.add, (chi[pairs] * x for chi, x in zip(chis, xs)))

    return (DensityOperator(v @ damped(chis) @ v.conj().T)
            for v, *chis in zip(_sector_propagators(model, ts), *streams))


def az_coherence(model: ArakiZurekModel, rho0: DensityOperator, ts):
    """Intersector coherence norms of the reduced state (``OffDiagonalNorms`` of
    arrays) and chi((l_0 - l_1) t) (1 for a single sector) at every t in
    ``ts``, without building the states.

    Both are functions of C(t) o x0 alone, where C_mn(t) = chi((l_m - l_n) t)
    and x0 is rho0 in the sector-adapted frame: h_s commutes with every P_m
    and the norms are unitarily invariant, so exp(-i h_s t) drops out.  Per
    chunk of ``_chi_tables`` the states form one (B, d, d) stack, B d^2
    within the one table budget (or B = 1), whose norms are
    ``coherence_norms``.  C is conjugate-symmetric with a unit diagonal, so
    each state keeps the Hermiticity and the trace of x0, which are checked
    once.  Chi is within ``model.env.expansion().tail`` at every t for a
    continuous environment and an exact sum for a discrete one.

    Every state is checked positive as a DensityOperator is, mostly at the
    size of C (k x k) rather than of the state.  With E the d x k sector
    indicator, C o x0 stands for (E C E^T) o x0.  Let C + eps 1 >= 0, with
    eps = max(0, -l_min(C)) from one batched ``eigvalsh`` of the chunk's
    tables, and x0 + tau0 1 >= 0, with tau0 = max(0, -l_min(x0)) from the
    spectrum that x0's own check computes.  C has a unit diagonal and
    (E E^T) o x0, the pinching of x0, is at most l_max(x0) 1, so the Schur
    product theorem gives

        l_min(C o x0) >= -(tau0 + eps (l_max(x0) + tau0)).

    Where there are fewer sectors than dimensions (k < d) a state is
    cleared when that bound plus the rounding margin
    4 EPS (k ||C|| (l_max(x0) + tau0 + 1) + (1 + eps)(d + 1) ||x0||_F) is at
    most STATE_TOL.  The margin covers the table's ``eigvalsh`` (about
    k EPS ||C||), the elementwise product (about EPS ||x0||_F, as
    |C_mn| <= 1 + eps) and the d x d ``eigvalsh`` of x0 and of the full
    check, so a cleared state is one the full check accepts.  Only the other
    states (a table off positivity, one that is not finite, or a nan bound)
    go through ``require_positive``, with its tolerance and its message: the
    inputs accepted are those a full check of every state accepts.  With
    unit sectors (k = d) the table's ``eigvalsh`` would cost as much as the
    check it spares, so every state takes the full check.
    """
    ts = finite_times(ts)
    x0, spectrum = require_state(in_sector_frame(rho0.matrix, model.sectors))
    index = model.sectors.index
    pair = min(1, len(model.sectors) - 1)
    hs, trace, chi = np.empty(ts.size), np.empty(ts.size), np.empty(ts.size, dtype=complex)
    start = 0
    for table in _chi_tables(model.lambdas, model.env, ts, model.dim**2):
        x = table[:, index[:, None], index] * x0
        checked = x if table.shape[-1] == model.dim else x[_uncertified(table, spectrum)]
        if checked.size:
            require_positive(checked)
        chunk = slice(start, start + table.shape[0])
        hs[chunk], trace[chunk] = coherence_norms(x, model.sectors)
        chi[chunk] = table[:, 0, pair]
        start = chunk.stop
    return OffDiagonalNorms(hs, trace), chi


def _uncertified(table, spectrum):
    """Mask of the states C o x0 of a (B, k, k) chi table that the
    Schur-product bound of ``az_coherence`` does not clear, given the
    ascending ``spectrum`` of x0, whose 2-norm is ||x0||_F."""
    k, d = table.shape[-1], spectrum.size
    finite = np.isfinite(table).all(axis=(-2, -1))
    vals = np.linalg.eigvalsh(np.where(finite[:, None, None], table, 0.0))
    eps = np.maximum(0.0, -vals[:, 0])
    norm = np.abs(vals).max(axis=-1)
    tau0, top = max(0.0, -spectrum[0]), spectrum[-1]
    x0_norm = np.sqrt(np.square(spectrum).sum())
    margin = 4.0 * EPS * (k * norm * (top + tau0 + 1.0) + (1.0 + eps) * (d + 1) * x0_norm)
    return ~finite | ~(tau0 + eps * (top + tau0) + margin <= STATE_TOL)


def az_evolve(model: ArakiZurekModel, rho0: DensityOperator | CorrelatedInitialState,
              t: float) -> DensityOperator:
    """Reduced state at time t from a DensityOperator or a CorrelatedInitialState:
    the single-time case of ``az_trajectory``, with its limit on chi."""
    return next(az_trajectory(model, rho0, [t]))


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


def _axes(model: SpinModel, x: np.ndarray, a3=None):
    """Unit axis of the effective field (a_1, a_2, a_3 + lam x), e_3 where it
    vanishes, and twice the field's norm, per point: the axis and rate of the
    conditional precession of the polarization at x.  ``a3`` replaces a_3:
    with a3 = 0, x is an offset from the fold x* = -a_3 / lam."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    h = np.empty((x.size, 3))
    h[:, :2] = model.a[:2]
    h[:, 2] = (model.a[2] if a3 is None else a3) + model.lam * x
    with np.errstate(over="ignore"):  # its squares overflow past ~1e154; hypot's do not
        norms = np.linalg.norm(h, axis=1)
    big = ~np.isfinite(norms)
    norms[big] = np.hypot(np.hypot(h[big, 0], h[big, 1]), h[big, 2])
    zero = norms == 0.0
    n = h / np.where(zero, 1.0, norms)[:, None]
    n[zero] = (0.0, 0.0, 1.0)
    with np.errstate(over="ignore"):  # inf past the double range, rejected where it is a phase
        return n, 2.0 * norms


class _Branch(NamedTuple):
    """Where omega is monotone: x runs from x0, the end nearest the fold, in
    the direction ``sign``; |z| = |a_3 + lam x| runs from z0, and
    rho = omega / 2 over [rho0, rho0 + length]."""

    x0: float
    sign: float
    z0: float
    rho0: float
    length: float


def _fold(model: SpinModel, t_max: float):
    """The near region of a continuous environment's support, and its far branches.

    In the field coordinate z = a_3 + lam x the rotation rate is
    omega = 2 rho, rho = |h| = |(m, z)| with m = |(a_1, a_2)|: smallest, 2 m,
    at the fold z = 0, x* = -a_3 / lam, and monotone in |z| on either side of
    it, so that rho can take the place of x there.  Both m and the fold stay
    finite however far off x* is.  Only the strip |z| <= zeta stays near, with
    eps = pi / (2 t_max) and zeta = min(m, sqrt(eps (2 m + eps))): on it
    rho - m <= eps, so the phase omega t varies by at most pi at every
    |t| <= t_max (at t_max = 0 the strip is |z| <= m).  No branch starts on
    the fold, where its factors m / |z| are singular, unless m = 0 and they
    vanish: zeta >= min(m, eps) > 0 wherever m > 0, as eps > 0 for every
    finite t_max.  With the fold inside the support a branch at the strip's
    edge has z0 = zeta, its x0 = x* +- zeta / |lam| rounded only placing the
    density; with the fold outside, the one branch starts at the support's
    end nearest the fold, z0 = |a_3 + lam x0|, or at the strip's edge beyond
    it.  A branch's span in |z| is |lam| times a difference of abscissae, so
    that branches and near region share their ends.  The near region's
    range of omega, times t_max, is what ``_strip``'s phase series is
    written in: at most pi, so that each phase offset is within pi/2.

    Returns a centre, the near region (lo, hi), empty when lo >= hi, and one
    ``_Branch`` per side where the support reaches beyond the strip.  With
    the fold inside the support the centre is x* and the near region is
    given in offsets s = x - x* from it: exact at the strip's edges, and
    a_3 + lam x = lam s exactly, however far off x* is.  Otherwise the
    centre is None and the near region is in x, exact at the support's
    ends.  Besides the strip only two parts of the support stay near: all
    of it when lam = 0, where omega is constant, and a side whose span in
    rho underflows to a subnormal (or leaves the double range), where its
    offsets in rho would lose their precision; its phase turns by at most
    2 t_max times the least normal double, within pi/2 at any t_max below
    3.5e307.
    """
    lo, hi = model.env_diag.support()
    a1, a2, a3 = model.a
    lam = abs(model.lam)
    if lam == 0.0:
        return None, (lo, hi), []
    m = np.hypot(a1, a2)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x_star = np.float64(-a3) / model.lam
        eps = np.float64(np.pi) / 2.0 / t_max
        zeta = min(m, np.sqrt(eps) * np.sqrt(2.0 * m + eps))
        inside = lo <= x_star <= hi
        near, branches = [lo - x_star, hi - x_star] if inside else [lo, hi], []
        if inside:
            sides = [(sign, x1, x_star + sign * (zeta / lam), zeta)
                     for sign, x1 in ((-1.0, lo), (1.0, hi))]
        else:
            sign, start, x1 = (-1.0, hi, lo) if x_star > hi else (1.0, lo, hi)
            z_start = abs(a3 + model.lam * start)
            # The branch starts at the support's end, or at the strip's edge beyond it.
            x0 = start + sign * ((zeta - z_start) / lam) if z_start < zeta else start
            sides = [(sign, x1, x0, max(zeta, z_start))]
        for sign, x1, x0, z0 in sides:
            span = lam * (sign * (x1 - x_star)) - zeta if inside else lam * (sign * (x1 - x0))
            if span > 0:
                rho0, rho1 = np.hypot(m, z0), np.hypot(m, z0 + span)
                # rho1 - rho0 without cancellation: rho^2 - z^2 = m^2 at both ends.
                length = span * ((2.0 * z0 + span) / (rho0 + rho1))
                if length >= np.finfo(float).tiny:  # else the side stays near
                    near[int(sign > 0)] = sign * (zeta / lam) if inside else x0
                    branches.append(_Branch(x0, sign, z0, rho0, length))
    return x_star if inside else None, tuple(near), branches


def _far_panels(model: SpinModel, mixing, branches):
    """Legendre panels of the far branches' amplitudes (a, b), placed in omega, and their c.

    On a branch x = x0 + sign (|z| - z0) / |lam|, with z^2 = rho^2 - m^2,
    so dx/drho = rho / (|lam| |z|).  The axis is n = alpha e_t + beta e_3
    with e_t = (a_1, a_2, 0) / m, alpha = m / rho and |beta| = |z| / rho.
    The amplitudes (a, b, c) times dx/drho are linear in
    w dx/drho (alpha^2, beta^2, alpha |beta|, alpha, |beta|)
    = w / |lam| (m^2 / (rho |z|), |z| / rho, m / rho, m / |z|, 1)
    (``mixing``, from ``_mixing``, with its rows odd in beta negated on a
    branch where a_3 + lam x < 0); being products of positive numbers,
    these keep the relative accuracy of the density w, where a component of
    a may be a difference of O(1) terms.  A node at v = c + d (v = rho - rho0) is
    placed as x(c) plus an offset, (z^2 - z(c)^2) / (|z| + |z(c)|) / |lam|
    with z^2 - z(c)^2 = d (2 (rho0 + c) + d): no rounding of rho0 + v, or of
    x* (both large beside the offsets when the fold is far off), enters the
    abscissae, and the density takes the two apart
    (``SpectralDensity.density_at``).

    All branches share one bisection: a branch lies at u = sign v / scale,
    scale the power of two in (length / 2, length], so that the branch on
    each side of the fold has its own side of u = 0 and a panel's centre
    tells which branch's (x0, z0, rho0, scale) it reads.  Both changes of
    variable are exact: they keep the panels' edges, and the factors, which
    carry w scale / |lam| rather than w / |lam|, within the double range
    however small or large lam and the branch are.  Each branch starts from
    the edges 0, 2^-J, ..., 1/2, 1 and length / scale in |u| (``_graded``),
    graded toward the strip's edge, where m / |z| has its peak.  The series
    of the branch at u < 0 are turned back into v (a_k times (-1)^k) and
    mixed into (a, b, c) by its side's mixing; the panels' tail, times
    the largest column sum of |mixing| over (a, b), bounds the mixed series'.
    Returns the panels of (a, b), as (p, k, 6), with their integrals over
    rho, centres and half-widths in omega = 2 rho, so that
    ``legendre_fourier`` at t gives int g exp(-2i rho t) drho (2t may
    overflow where omega t does not), and c, the sum of the panels'
    integrals of c, as (3,).
    """
    lam = abs(model.lam)
    m = np.hypot(*model.a[:2])
    # Per side of u = 0, index 0 for sign -1 and 1 for sign +1.
    x0, z0, rho0, scale = np.ones((4, 2))
    mixings = np.zeros((2, 5, 9))
    edges = [[], []]
    for branch in branches:
        side = int(branch.sign > 0)
        x0[side], z0[side], rho0[side] = branch.x0, branch.z0, branch.rho0
        scale[side] = np.ldexp(1.0, np.frexp(branch.length)[1] - 1)
        # beta = (a_3 + lam x) / rho has the sign of sign * lam on the branch.
        mixings[side] = mixing * _BETA_ROWS if branch.sign * model.lam < 0.0 else mixing
        edges[side] = _graded(model, branch, scale[side])
    sign = np.array([-1.0, 1.0])

    def z_of(v, z0, rho0):  # squaring neither z0 nor rho0
        return np.hypot(z0, np.sqrt(v) * np.sqrt(2.0 * rho0 + v))

    def values(centres, offsets):
        side = (centres > 0.0).astype(int)
        s, z0_p, rho0_p = sign[side], z0[side], rho0[side]
        turn = s * scale[side]
        c, d = turn * centres, turn[:, None] * offsets
        z_c = z_of(c, z0_p, rho0_p)
        x_c = x0[side] + s * (c * ((2.0 * rho0_p + c) / (z_c + z0_p)) / lam)
        c, z_c, z0_p, rho0_p = c[:, None], z_c[:, None], z0_p[:, None], rho0_p[:, None]
        z_v = z_of(c + d, z0_p, rho0_p)
        w = model.env_diag.density_at(
            x_c, s[:, None] * (d * ((2.0 * (rho0_p + c) + d) / (z_v + z_c)) / lam)) * (
                scale[side] / lam)[:, None]
        rho = rho0_p + (c + d)
        return np.stack([w * (m / rho) * (m / z_v), w * (z_v / rho), w * (m / rho),
                         w * (m / z_v), w], axis=-1)

    panels = legendre_panels(values, *(-np.array(edges[0][::-1])), 0.0, *edges[1])
    side = (panels.centres > 0.0).astype(int)
    odd = np.arange(panels.coeffs.shape[1]) % 2 == 1
    coeffs = np.where(((side == 0)[:, None] & odd)[..., None], -panels.coeffs, panels.coeffs)
    mixed = np.einsum("pkf,pfg->pkg", coeffs, mixings[side])
    bound = np.abs(mixings[..., :6]).sum(axis=1).max()  # a side without a branch mixes to 0
    halves, width_of = np.unique(2.0 * scale[side] * panels.halves[panels.width_of],
                                 return_inverse=True)
    far = LegendrePanels(2.0 * (rho0[side] + scale[side] * np.abs(panels.centres)), halves,
                         width_of, mixed[..., :6], panels.tail * bound)
    return far, mixed[:, 0, 6:].sum(axis=0)


def _graded(model: SpinModel, branch: _Branch, scale: float):
    """Initial edges of a far branch in |u| = v / scale after 0: 2^-J, ..., 1/2, 1 and
    L = length / scale, or L alone when J = 0.

    Near the strip's edge the factor m / |z| peaks at F = w(x0) scale m / (|lam| z0)
    (in u) and falls off like 1 / sqrt(u) beyond u_d, the width over which |z|
    doubles from z0: v_d = 3 z0^2 / (rho0 + sqrt(rho0^2 + 3 z0^2)).  The
    Legendre tail of that peak on a panel [0, h] is about F sqrt(u_d h) / 4
    for h >> u_d, and still 1e-5 F h at h = 2 u_d, so bisection from
    [0, 1] refines the panel at u = 0 to below u_d / 4, one level per round,
    wherever F sqrt(u_d) is well above the budget.  2^-J is the largest
    power of two not above u_d, taken where F sqrt(u_d) >= 2^-20 (so
    F >= 2^-20 too); elsewhere, and where m = 0 and nothing peaks, J = 0.
    The start is thus never finer than bisection from [0, 1], [1, L] would
    make it, and gives the same panels in fewer rounds.
    """
    m = np.hypot(*model.a[:2])
    z0, rho0, lam = branch.z0, branch.rho0, abs(model.lam)
    last = branch.length / scale
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        spread = rho0 + np.hypot(rho0, np.sqrt(3.0) * z0)
        doubling = 3.0 * z0 * (z0 / spread) / scale
        # F sqrt(u_d), with sqrt(u_d) / z0 = sqrt(3 / (spread scale)).
        mass = (model.env_diag.density(np.array([branch.x0]))[0] * (scale / lam) * m
                * np.sqrt(3.0 / (spread * scale)))
    depth = 1 - int(np.frexp(doubling)[1])
    if depth > 0 and mass >= 2.0**-20:
        return [e for e in np.ldexp(1.0, np.arange(-depth, 1)) if e < last] + [last]
    return [last]


def _mixing(model: SpinModel, p) -> np.ndarray:
    """(5, 9) map from factors (alpha^2, beta^2, alpha beta, alpha, beta) to amplitudes (a, b, c) of p.

    The axis is n = alpha e_t + beta e_3, e_t = (a_1, a_2, 0) / m, with
    alpha^2 + beta^2 = 1 and beta signed.  Then
    c = (n.p) n = alpha^2 (e_t.p) e_t + beta^2 p_3 e_3 + alpha beta (p_3 e_t + (e_t.p) e_3),
    a = p - c = alpha^2 p + beta^2 p - c, and b = n x p = alpha e_t x p + beta e_3 x p.
    A far branch takes |beta|: where beta < 0 there, the rows of the factors
    odd in beta change sign (``_BETA_ROWS``).
    """
    m = np.hypot(*model.a[:2])
    e_t = np.array([model.a[0] / m, model.a[1] / m, 0.0]) if m > 0 else np.zeros(3)
    e_3 = np.array([0.0, 0.0, 1.0])
    along = np.array([(e_t @ p) * e_t, p[2] * e_3, p[2] * e_t + (e_t @ p) * e_3])
    mixing = np.zeros((5, 9))
    mixing[:3, :3] = np.array([p, p, np.zeros(3)]) - along
    mixing[:3, 6:] = along
    mixing[3, 3:6] = e_t[1] * p[2], -e_t[0] * p[2], e_t[0] * p[1] - e_t[1] * p[0]  # e_t x p
    mixing[4, 3:6] = -p[1], p[0], 0.0  # e_3 x p
    return mixing


# Signs of the rows of ``_mixing`` under beta -> -beta: alpha beta and beta change.
_BETA_ROWS = np.array([1.0, 1.0, -1.0, 1.0, -1.0])[:, None]


def _near(model: SpinModel, centre):
    """The density at abscissae about the fold, and the a_3 that ``_axes`` takes there.

    With the fold inside the support (``_fold``'s centre x*) the abscissae
    are offsets s = x - x*, placed by ``SpectralDensity.density_at``, and
    a_3 + lam x = lam s exactly, however far off x* is; otherwise they are
    x itself.  The strip (``_strip``) and the map (``asymptotic_map``) take
    theirs so.
    """
    if centre is None:
        return model.env_diag.density, model.a[2]
    return lambda s: model.env_diag.density_at(np.array([centre]), s[None])[0], 0.0


def _strip(model: SpinModel, mixing, ts, centre, lo, hi) -> np.ndarray:
    """int c + a cos(omega t) + b sin(omega t) over the near region [lo, hi], for every t in ``ts``.

    ``_fold`` sizes the region so that omega t varies by at most pi on it at
    every |t| <= t_max.  With rho = omega / 2 = m + d, d = z (z / (rho + m))
    free of cancellation, take d_c, the midpoint of d's range over the
    region (from its ends, and 0 at the fold when the region holds it), and
    psi = 2 (d - d_c) t_max, the phase's offset at t_max, within
    [-pi/2, pi/2].  Then

        exp(-i omega t) = exp(-2i (m + d_c) t) sum_n (-i t / t_max)^n psi^n / n!,

    a Filon-type expansion (Iserles and Norsett, Proc. R. Soc. A 461, 2005):
    the moments int g psi^n / n! neither oscillate nor depend on t, and
    one ``gauss_legendre_adaptive`` call gives the first STRIP_TERMS of
    them for the whole grid.  Each time then costs one STRIP_TERMS-term sum
    and one phase, so the error does not grow with t, and its rounding is
    that of the one phase.  At lam = 0 d is constant and only the first
    term survives.  The amplitudes are linear in
    w (alpha^2, beta^2, alpha beta, alpha, beta), with n = (m e_t + z e_3) / rho,
    alpha = m / rho and beta = z / rho (``mixing``, from ``_mixing``):
    those five factors carry the moments, and c is the first term's.  Raises
    OutOfDomain naming the first t at which the phase 2 (m + d_c) t
    overflows, before anything is integrated.
    """
    m = np.hypot(*model.a[:2])
    weight, a3 = _near(model, centre)
    t_max = float(np.abs(ts).max())

    def rise(z):  # rho - m = z^2 / (rho + m), squaring nothing: 0 where rho = 0
        return z * np.divide(z, np.hypot(m, z) + m, out=np.zeros_like(z), where=z != 0.0)

    ends = rise(a3 + model.lam * np.array([lo, hi]))
    d_c = (ends.max() + (0.0 if centre is not None else ends.min())) / 2.0
    finite_phases(ts, ("the strip's rate", 2.0 * (m + d_c)))

    def factors(x):
        z = a3 + model.lam * x
        rho = np.hypot(m, z)  # n = e_3 where rho = 0, as in _axes
        alpha, beta = (np.divide(v, rho, out=np.full_like(rho, at_zero), where=rho > 0.0)
                       for v, at_zero in ((m, 0.0), (z, 1.0)))
        w = weight(x)[:, None] * np.column_stack([alpha**2, beta**2, alpha * beta, alpha, beta])
        terms = np.vander(t_max * (2.0 * (rise(z) - d_c)), STRIP_TERMS, increasing=True)
        return (w[:, :, None] * (terms * _INVERSE_FACTORIALS)[:, None, :]).reshape(x.size, -1)

    mixed = gauss_legendre_adaptive(factors, lo, hi).reshape(5, -1).T @ mixing
    # The real part of (a + i b) exp(-i omega t) is a cos(omega t) + b sin(omega t).
    series = mixed[:, :3] + 1j * mixed[:, 3:6]

    def sums(t):  # einsum, not matmul: a row must not depend on where it falls in the grid
        powers = np.vander(-1j * t / (t_max or 1.0), STRIP_TERMS, increasing=True)
        return np.einsum("tn,nd->td", powers, series)

    phases = np.exp(-2j * (m + d_c) * ts)[:, None]
    return (phases * _by_chunks(sums, ts, STRIP_TERMS)).real + mixed[0, 6:]


def _polarization(p) -> np.ndarray:
    """The initial polarization ``p`` as a finite 3-vector, checked at the call."""
    p = np.asarray(p, dtype=float)
    if p.shape != (3,):
        raise DimensionMismatch(f"polarization p must have shape (3,), got {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("polarization p must be finite")
    return p


def spin_trajectory(model: SpinModel, p, ts) -> np.ndarray:
    """Averaged rotated polarization for every t in ``ts``, shape (T, 3).

    Conditioned on x the polarization is rotated (Rodrigues) about n(x) by
    omega(x) t: c + a cos(omega t) + b sin(omega t) with c = (n.p) n,
    a = p - c and b = n x p.  A discrete environment is one exact sum.  On a
    continuous one the support is split at the fold of omega (``_fold``):
    - the near region, a strip about the fold that shrinks with the grid's
      largest |t| so that the phase varies by at most pi on it, is a short
      series in t whose moments take one adaptive quadrature for the whole
      grid (``_strip``), at the same cost and accuracy at any t;
    - on the far branches, where omega = 2 rho is monotone, a and b become
      int g(rho) exp(-2i rho t) drho with g = (a, b) |dx/drho|: the Legendre
      panels in rho of every branch, from one bisection (``_far_panels``),
      integrated exactly at every t by one ``quadrature.legendre_fourier``
      call.  The cos integral is the real part, the sin integral minus the
      imaginary part; c, which does not oscillate, is the sum of the panels'
      integrals.
    Integrated apart from a and b over the whole support, c would meet the
    adaptive rule's budget alone: a fold narrower than it would then go
    missing from c + a.  The mixing of the factors into amplitudes is built
    once (``_mixing``) for the strip and the branches.  Raises
    QuadratureFailure, before the strip is integrated, when the far panels'
    tail, which bounds their error at every t, is above
    ``quadrature.ADAPTIVE_TOL``, and OutOfDomain naming the first t at which
    a phase overflows.
    """
    p = _polarization(p)
    env = model.env_diag

    def rotation(x, weight):
        n, omega = _axes(model, x)
        along = (n @ p)[:, None] * n
        weight = weight[:, None]
        return omega, weight * (p - along), weight * np.cross(n, p), weight * along

    ts = finite_times(ts)
    if env.is_discrete:
        return _trajectory(env, ts, rotation)
    centre, (lo, hi), branches = _fold(model, float(np.abs(ts).max()))
    mixing = _mixing(model, p)
    if branches:  # before the strip, so that the message names the tail
        panels, settled = _far_panels(model, mixing, branches)
        if not quadrature.ADAPTIVE_TOL >= panels.tail:
            raise QuadratureFailure(f"tolerance ADAPTIVE_TOL = {quadrature.ADAPTIVE_TOL:g} "
                                    f"is below the Legendre tail estimate {panels.tail:g}")
    out = _strip(model, mixing, ts, centre, lo, hi) if hi > lo else np.zeros((ts.size, 3))
    if branches:
        far = legendre_fourier(panels, ts)
        out += far[:, :3].real - far[:, 3:].imag + settled
    return out


def spin_evolve(model: SpinModel, p, t: float) -> DensityOperator:
    """Reduced spin state at time t: the average of rotated polarizations.

    Conditioned on the environment coordinate x the spin precesses rigidly;
    the reduced state is the density-weighted average of those rotations
    applied to p; this is the single-time case of ``spin_trajectory``.
    """
    return bloch_to_density(spin_trajectory(model, p, [float(t)])[0])


def asymptotic_map(model: SpinModel) -> np.ndarray:
    """Long-time contraction map M = avg of n(x) n(x)^T over the density.

    Oscillating parts of the conditional rotations dephase away and only the
    projections onto the local axes survive.  M is a symmetric contraction:
    a density-weighted average of rank-one projectors, so its eigenvalues
    lie in [0, 1].  A continuous density takes one ``gauss_legendre_adaptive``
    call over its support, a discrete one a weighted sum.  With
    the fold x* inside the support the support is taken in offsets from it
    (``_near``): the axis flips over |z| ~ m about it, and where m is far
    below the ulp of x*, abscissae rounded in x would put that flip out of
    place in every panel.
    """
    env = model.env_diag

    def projectors(x, weight, a3=None):
        n, _ = _axes(model, x, a3)
        return weight[:, None] * (n[:, :, None] * n[:, None, :]).reshape(-1, 9)

    if env.is_discrete:
        return projectors(*env.points.T).sum(axis=0).reshape(3, 3)
    centre = _fold(model, 0.0)[0]
    weight, a3 = _near(model, centre)
    lo, hi = np.subtract(env.support(), 0.0 if centre is None else centre)
    return gauss_legendre_adaptive(lambda x: projectors(x, weight(x), a3), lo, hi).reshape(3, 3)


def spin_asymptotics(model: SpinModel, p, t_grid) -> np.ndarray:
    """Trace distances from the asymptotic state along a time grid.

    Returns (t, distance) rows measuring how far the evolved state still is
    from the contracted target q = M p; ready for ``fit_power_law_decay``.
    For 2x2 states the trace distance is the distance of the polarization
    vectors (``trace_distance``), so the whole grid is |p(t) - q|, from one
    ``spin_trajectory`` call.  p and the grid are checked before anything is
    integrated; q must be a state (``bloch_to_density``), and OutsideBall
    names the first p(t) outside the unit ball.
    """
    p = _polarization(p)
    ts = finite_times(t_grid)
    target = asymptotic_map(model) @ p
    bloch_to_density(target)
    pols = spin_trajectory(model, p, ts)
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
    MAX_DENSE_DIM, although only n_grid d^2 entries are stored.  Raises
    OutOfDomain when a phase e t of a block's eigenvalue e overflows.
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
    finite_phases([t], ("the largest |eigenvalue|", np.abs(vals).max()))
    u = (vecs * np.exp(-1j * vals * t)[:, None, :]) @ vecs.conj().swapaxes(1, 2)
    # sum_k w_k U_k rho0 U_k^dagger as one product of (d, n d) matrices, rows i and
    # columns (k, j): [w_k (U_k rho0)_ij] times the adjoint of [(U_k)_lj].
    left = (w[:, None, None] * (u @ rho0.matrix)).swapaxes(0, 1).reshape(dim_s, -1)
    right = u.swapaxes(0, 1).reshape(dim_s, -1)
    return DensityOperator(left @ right.conj().T)
