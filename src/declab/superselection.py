"""Superselection sectors: sector structures, the block-diagonal projection
channel, off-diagonal coherence norms, sector probabilities and power-law
envelope fits for their decay.

A sector structure is a complete family of mutually orthogonal projectors
P_m, checked when it is made and held as an orthonormal frame F (None for
the standard basis) and the sector of each of its columns, so that
P_m = F_m F_m^H is never stored.
States compatible with it are exactly the fixed points of the channel
W -> sum_m P_m W P_m; the distance of a state from its projection measures
how much intersector coherence it still carries.  Norms and probabilities
are read in the sector-adapted frame, where that coherence is a masked copy
of the state: ``coherence_norms`` takes a whole (..., d, d) stack of states
at once, its trace norm from one batched ``eigvalsh`` of their Hermitian
intersector parts, and ``off_diagonal_norms`` is its single-state case.
"""

import numbers
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DimensionMismatch,
    InsufficientData,
    NonDecaying,
    NotComplete,
    NotIdempotent,
    NotOrthogonal,
)
from .operators import hermitian_eig, hs_norm
from .states import DensityOperator

PROJECTOR_TOL = 1e-10


class SectorStructure:
    """Complete family of mutually orthogonal projectors P_m, checked when it
    is made.

    Held as a sector-adapted orthonormal frame ``frame`` (F, None for the
    standard basis) and the sector ``index`` of each of its columns, so that
    P_m = F_m F_m^H is never stored.  Given as projector matrices, each P_m
    is checked finite and Hermitian and, from the one ``hermitian_eig``
    whose leading columns become F_m, idempotent (||l^2 - l|| =
    ||P_m^2 - P_m||_F over its eigenvalues l).  Orthogonality is read from
    the blocks of the one Gram product F^H F, whose (m, n) block has the
    norm ||P_m P_n||_F, and completeness from ||sum P_m - 1||_F.  An error
    names the first offending index or index pair.
    """

    __slots__ = ("frame", "index", "_count")

    def __init__(self, projectors):
        given = [np.asarray(p, dtype=complex) for p in projectors]
        if not given:
            raise DimensionMismatch("need at least one projector")
        dim = given[0].shape[0] if given[0].ndim else 0
        if not dim:
            raise DimensionMismatch(f"projector 0 has shape {given[0].shape}: need dimension >= 1")
        frames = []
        for m, p in enumerate(given):
            if p.shape != (dim, dim):
                raise DimensionMismatch(f"projector {m} has shape {p.shape}, expected {(dim, dim)}")
            if not np.isfinite(p).all():
                raise NotIdempotent(m, f"projector {m} has non-finite entries")
            if hs_norm(p - p.conj().T) > PROJECTOR_TOL:
                raise NotIdempotent(m, f"projector {m} is not Hermitian")
            vals, vecs = hermitian_eig(p)
            if np.linalg.norm(vals * vals - vals) > PROJECTOR_TOL:
                raise NotIdempotent(m)
            frames.append(vecs[:, :np.count_nonzero(vals > 0.5)])  # eigenvalues descend
        frame = np.hstack(frames)
        sizes = [f.shape[1] for f in frames]
        # ||F_m^H F_n||_F^2: the sum of |F^H F|^2 over its (m, n) block.
        member = np.repeat(np.eye(len(given)), sizes, axis=0)
        blocks = member.T @ (np.abs(frame.conj().T @ frame) ** 2) @ member
        overlapping = np.argwhere(np.triu(np.sqrt(blocks) > PROJECTOR_TOL, 1))
        if overlapping.size:
            raise NotOrthogonal(overlapping[0].tolist())
        distance = hs_norm(sum(given) - np.eye(dim))
        if distance > PROJECTOR_TOL:
            raise NotComplete(f"projectors sum to distance {distance:.2e} from identity")
        self._hold(frame, sizes)

    @classmethod
    def _from_frame(cls, frame: Optional[np.ndarray], sizes: Sequence[int]) -> "SectorStructure":
        s = cls.__new__(cls)
        s._hold(frame, sizes)
        return s

    def _hold(self, frame, sizes):
        self.frame, self._count = frame, len(sizes)
        self.index = np.repeat(np.arange(len(sizes)), sizes)

    @property
    def dim(self) -> int:
        return self.index.size

    @property
    def projectors(self) -> Tuple[np.ndarray, ...]:
        """The dense P_m = F_m F_m^H, rebuilt on every access as the sector mask
        of the identity with the single coefficient c_mm = 1."""
        eye = np.eye(self.dim, dtype=complex)
        return tuple(sector_mask(eye, self, np.diag(unit)) for unit in np.eye(len(self)))

    def __len__(self):
        return self._count

    def __repr__(self):
        return f"SectorStructure(sectors={len(self)}, dim={self.dim})"


def block_diagonal_sectors(block_dims: Sequence[int]) -> SectorStructure:
    """Sectors projecting onto consecutive basis blocks of the given sizes,
    nonnegative integers of positive sum: the standard basis as frame, a
    complete orthogonal family by construction."""
    for m, size in enumerate(block_dims):
        if not isinstance(size, numbers.Integral) or size < 0:
            raise DimensionMismatch(f"block {m} has size {size!r}, not a nonnegative integer")
    if not sum(block_dims):
        raise DimensionMismatch("need blocks of positive total dimension")
    return SectorStructure._from_frame(None, block_dims)


def sector_mask(x, s: SectorStructure, c) -> np.ndarray:
    """sum_{m,n} c[m, n] P_m x P_n for a k x k coefficient array c.

    Computed as the Hadamard product F (C * F^H x F) F^H in the sector-adapted
    frame F, with C[i, j] = c[sector(i), sector(j)]; as C * x when F = 1.
    """
    c = np.asarray(c)
    if c.shape != (len(s), len(s)):
        raise DimensionMismatch(f"need a {len(s)}x{len(s)} coefficient array, got shape {c.shape}")
    y = c[np.ix_(s.index, s.index)] * in_sector_frame(x, s)
    return y if s.frame is None else s.frame @ y @ s.frame.conj().T


def in_sector_frame(x, s: SectorStructure) -> np.ndarray:
    """A d x d matrix in the sector-adapted frame: F^H x F, x itself when F = 1.
    Sector masks are Hadamard products there, and the norms and probabilities
    of this module are read there."""
    if np.shape(x) != (s.dim, s.dim):
        raise DimensionMismatch(f"need a {s.dim}x{s.dim} matrix, got shape {np.shape(x)}")
    return x if s.frame is None else s.frame.conj().T @ x @ s.frame


def sector_project(w: DensityOperator, s: SectorStructure) -> DensityOperator:
    """Block-diagonal part sum_m P_m W P_m of a state.

    Trace preserving, positivity preserving and idempotent; states already
    compatible with the sectors pass through unchanged.
    """
    return DensityOperator(sector_mask(w.matrix, s, np.eye(len(s))))


class OffDiagonalNorms(NamedTuple):
    hs: float
    trace: float


def coherence_norms(x, s: SectorStructure) -> OffDiagonalNorms:
    """Hilbert-Schmidt and trace norms of the intersector part of every matrix
    of a (..., d, d) stack of Hermitian matrices in the sector-adapted frame
    (``in_sector_frame``), as arrays of shape (...).

    F is unitary, so the norms are those of sum_{m != n} P_m W P_n.  The
    intersector part is Hermitian: its trace norm is the sum of the absolute
    values of its eigenvalues, one batched ``eigvalsh`` for the stack.
    """
    if np.shape(x)[-2:] != (s.dim, s.dim):
        raise DimensionMismatch(f"need a (..., {s.dim}, {s.dim}) stack, got shape {np.shape(x)}")
    residual = np.where(s.index[:, None] != s.index, x, 0.0)
    return OffDiagonalNorms(hs_norm(residual),
                            np.abs(np.linalg.eigvalsh(residual)).sum(axis=-1))


def off_diagonal_norms(w: DensityOperator, s: SectorStructure) -> OffDiagonalNorms:
    """Hilbert-Schmidt and trace norms of the intersector coherence part: the
    single-state case of ``coherence_norms``."""
    return coherence_norms(in_sector_frame(w.matrix, s), s)


def sector_probabilities(w: DensityOperator, s: SectorStructure) -> np.ndarray:
    """Probabilities tr(W P_m) of finding the state in each sector.

    These are the unambiguous classical data a sector structure assigns to a
    state; they are untouched by the projection channel.  They are sums over
    the diagonal of W in the sector-adapted frame, which every sector mask
    with unit diagonal coefficients leaves as it is.
    """
    x = in_sector_frame(w.matrix, s)
    return np.bincount(s.index, weights=np.diagonal(x).real, minlength=len(s))


@dataclass(frozen=True)
class DecayFit:
    """Envelope bound C (1 + delta t)^(-gamma) fitted over a time window.

    ``residual`` is the rms log-residual of the regression on the envelope
    points.  ``superpolynomial`` flags gamma > 20, where the power-law form
    is a bound only, not a tight description of the decay.
    """

    C: float
    delta: float
    gamma: float
    window: Tuple[float, float]
    residual: float
    superpolynomial: bool = False

    def bound(self, t):
        return self.C * (1.0 + self.delta * np.abs(t)) ** (-self.gamma)


SUPERPOLY_GAMMA = 20.0
MIN_ENVELOPE_POINTS = 8
# Envelope values within this many machine epsilons of each other (relative
# to the largest) are flat: their regression slope is the sign of round-off.
FLAT_ENVELOPE_EPS = 16


def _envelope_indices(values: np.ndarray) -> np.ndarray:
    # Local maxima of an oscillating sequence.  A (near-)monotone decay has
    # few or none, and there every point not exceeded later sits on the
    # envelope, so fall back to the right-running maxima; if even those are
    # scarce (growing or flat series) regress through everything and let the
    # slope check decide.
    n = values.size
    interior = np.arange(1, n - 1)
    peaks = interior[
        (values[interior] >= values[interior - 1]) & (values[interior] >= values[interior + 1])
    ]
    if peaks.size >= MIN_ENVELOPE_POINTS:
        return peaks
    running = np.maximum.accumulate(values[::-1])[::-1]
    on_envelope = np.flatnonzero(values >= running)
    if on_envelope.size >= MIN_ENVELOPE_POINTS:
        return on_envelope
    return np.arange(n)


def default_fit_window(t) -> Tuple[float, float]:
    """The fit's default window: the last half of the time range of the grid t."""
    return (t[0] + (t[-1] - t[0]) / 2.0, t[-1]) if len(t) else (0.0, 0.0)


def fit_power_law_decay(samples, delta: float,
                        window: Optional[Tuple[float, float]] = None) -> DecayFit:
    """Fit a dominating power-law envelope to a decaying |value| series.

    Regression runs through local maxima of |value| inside ``window`` (the
    last half of the time range by default): fitting through all samples of
    an oscillating series biases the exponent upward.  The prefactor is then
    inflated minimally so the bound dominates every windowed sample.  The
    spectral-gap parameter ``delta`` is model data supplied by the caller,
    not fitted; joint estimation of (C, delta, gamma) is ill conditioned.
    The regression is centred least squares in closed form, so times whose
    log(1 + delta t) is subnormal or squares to 0 still fit.  Raises
    NonDecaying when the envelope slope is not negative or not finite, or
    when the envelope is flat to within FLAT_ENVELOPE_EPS epsilons, and
    InsufficientData when log(1 + delta t) does not separate the envelope
    points or when C is not a finite double (a steep envelope on a long
    window); both name the window.
    """
    data = np.asarray(samples, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError("samples must be a sequence of (t, value) pairs")
    t = data[:, 0]
    values = np.abs(data[:, 1])
    if t.size and (t[0] < 0 or np.any(np.diff(t) <= 0)):
        raise ValueError("times must be nonnegative and strictly increasing")
    if delta <= 0:
        raise ValueError("delta must be positive")

    lo, hi = map(float, default_fit_window(t) if window is None else window)
    in_window = (t >= lo) & (t <= hi)
    tw = t[in_window]
    vw = values[in_window]
    if tw.size < MIN_ENVELOPE_POINTS:
        raise InsufficientData(f"only {tw.size} samples in window [{lo:g}, {hi:g}]")

    env = _envelope_indices(vw)
    env = env[vw[env] > 0]
    if env.size < MIN_ENVELOPE_POINTS:
        raise InsufficientData(
            f"only {env.size} envelope points in window [{lo:g}, {hi:g}]"
        )

    top = vw[env].max()
    if top - vw[env].min() <= FLAT_ENVELOPE_EPS * np.finfo(float).eps * top:
        raise NonDecaying(f"envelope is flat to round-off at {top:g}: its slope is not negative")
    where = f"in window [{lo:g}, {hi:g}]"
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.log1p(delta * tw[env])
        y = np.log(vw[env])
        # Centred least squares in closed form, in u = x / max|x|: x may be
        # subnormal, or so small that its square underflows.
        scale = np.abs(x).max()
        u = x / scale
        du = u - u.mean()
        spread = du @ du
        if not spread > 0:
            raise InsufficientData(f"log(1 + delta t) spans no finite range over the envelope "
                                   f"points {where}")
        slope_u = (du @ (y - y.mean())) / spread
        slope = float(slope_u / scale)
    if not np.isfinite(slope):
        raise NonDecaying(f"envelope slope {slope:g} {where} is not finite")
    if slope >= 0:
        raise NonDecaying(f"envelope slope {slope:g} {where} is not negative")
    gamma = -slope
    intercept = y.mean() - slope_u * u.mean()
    residual = float(np.sqrt(np.mean((y - (slope_u * u + intercept)) ** 2)))

    # Smallest C that keeps the bound above every windowed sample, and above
    # the regression line at t = 0; in logs, since a steep envelope's C may
    # leave the double range.
    positive = vw > 0
    with np.errstate(over="ignore"):
        logs = np.log(vw[positive]) + gamma * np.log1p(delta * tw[positive])
        log_c = max(intercept, logs.max())
        c = float(np.exp(log_c))
    if not np.isfinite(c):
        raise InsufficientData(f"prefactor C = exp({log_c:g}) of the envelope {where} "
                               f"is not a finite double")
    return DecayFit(
        C=c,
        delta=float(delta),
        gamma=gamma,
        window=(lo, hi),
        residual=residual,
        superpolynomial=gamma > SUPERPOLY_GAMMA,
    )
