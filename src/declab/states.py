"""Density operators, the polarization-ball picture of 2x2 states, and
pure-state decompositions.

A density operator is Hermitian, positive semidefinite and has unit trace.
For 2x2 matrices the map p -> (1 + sigma.p)/2 identifies the state set with
the closed unit ball in R^3, isometrically for the trace norm.  Mixed states
decompose into pure states in infinitely many ways; ``spectral_decomposition``
gives the canonical one and ``alternate_decomposition`` produces the others,
one for every unitary parameter.  Classical probability vectors, by contrast,
decompose uniquely (``classical_decompose``), which is the whole geometric
difference the decomposition machinery is there to exhibit.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadWeights,
    DimensionMismatch,
    NotAState,
    NotUnitary,
    OutsideBall,
)
from .operators import hermitian_eig, hs_norm, require_hermitian, schatten_norms

STATE_TOL = 1e-10
WEIGHT_CUTOFF = 1e-12
# How far beyond the unit sphere a polarization vector may reach by round-off.
BALL_TOL = 1e-12

PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


class DensityOperator:
    """Hermitian, positive-semidefinite, unit-trace matrix.

    Construction validates all three invariants (Hermiticity relative 1e-10,
    smallest eigenvalue >= -1e-10, trace within 1e-10 of one) and rejects
    offending input rather than clipping it; silent clipping hides upstream
    bugs.  Instances are immutable and safe to share between threads.
    """

    __slots__ = ("_matrix",)

    def __init__(self, matrix):
        mat, _ = require_state(matrix)
        mat.flags.writeable = False
        self._matrix = mat

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self._matrix, dtype=dtype)

    def __repr__(self):
        return f"DensityOperator(dim={self.dim})"


def require_state(matrix):
    """The checks of a DensityOperator: returns the Hermitian part of
    ``matrix`` and its ascending spectrum from ``require_positive``, or raises
    NotAState."""
    try:
        mat = require_hermitian(matrix, rtol=STATE_TOL, name="state matrix")
    except Exception as exc:
        raise NotAState(str(exc)) from exc
    tr = np.trace(mat).real
    if abs(tr - 1.0) > STATE_TOL:
        raise NotAState(f"trace is {tr!r}, not 1")
    return mat, require_positive(mat)


def require_positive(mats):
    """Raise NotAState unless every Hermitian matrix of a (..., d, d) stack has
    its smallest eigenvalue at least -STATE_TOL: one batched ``eigvalsh``, the
    positivity check of every DensityOperator.  Returns the ascending spectra,
    each within about d EPS ||m|| of the exact one (EPS the double-precision
    epsilon).
    """
    try:
        spectra = np.linalg.eigvalsh(mats)
    except np.linalg.LinAlgError as exc:  # nan entries, past 2 x 2
        raise NotAState(f"no spectrum: {exc}") from exc
    smallest = spectra[..., 0]
    positive = smallest >= -STATE_TOL  # False for nan, where the eigenvalues overflow
    if not positive.all():
        raise NotAState(f"smallest eigenvalue {smallest[~positive].flat[0]:g} below -{STATE_TOL:g}")
    return spectra


def bloch_to_density(p) -> DensityOperator:
    """State (1 + sigma.p)/2 for a polarization vector in the unit ball."""
    v = np.asarray(p, dtype=float)
    if v.shape != (3,):
        raise DimensionMismatch(f"polarization vector must have 3 components, got shape {v.shape}")
    r = np.linalg.norm(v)
    if r > 1.0 + BALL_TOL:
        raise OutsideBall(f"|p| = {r!r} exceeds 1")
    mat = 0.5 * (np.eye(2, dtype=complex) + v[0] * PAULI[0] + v[1] * PAULI[1] + v[2] * PAULI[2])
    return DensityOperator(mat)


def density_to_bloch(rho: DensityOperator) -> np.ndarray:
    """Polarization vector p_i = tr(rho sigma_i) of a 2x2 state."""
    if rho.dim != 2:
        raise DimensionMismatch(f"polarization readout needs a 2x2 state, got dim {rho.dim}")
    return np.array([np.trace(rho.matrix @ s).real for s in PAULI])


def trace_distance(rho1: DensityOperator, rho2: DensityOperator) -> float:
    """Trace norm of the difference of two states.

    For 2x2 states this equals the Euclidean distance of their polarization
    vectors, so antipodal pure states sit at distance 2.
    """
    if rho1.dim != rho2.dim:
        raise DimensionMismatch(f"state dimensions differ: {rho1.dim} vs {rho2.dim}")
    return schatten_norms(rho1.matrix - rho2.matrix).trace


@dataclass(frozen=True)
class PureStateDecomposition:
    """Convex decomposition of a state into rank-one projectors."""

    weights: np.ndarray
    projectors: list = field(default_factory=list)

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.weights.ndim != 1 or len(self.projectors) != self.weights.size:
            raise BadWeights("weights and projectors must have equal length")

    def reconstruct(self) -> np.ndarray:
        """Sum of weight * projector, for checking against the source state."""
        total = np.zeros((self.projectors[0].dim,) * 2, dtype=complex)
        for w, proj in zip(self.weights, self.projectors):
            total += w * proj.matrix
        return total


def spectral_decomposition(w: DensityOperator) -> PureStateDecomposition:
    """Eigen-decomposition as a pure-state mixture, weights descending.

    Eigenvalues below 1e-12 are dropped: boundary states have vanishing
    eigenvalues and zero-weight projectors are unphysical clutter.
    """
    vals, vecs = hermitian_eig(w.matrix)
    keep = vals > WEIGHT_CUTOFF
    weights = vals[keep]
    projectors = [
        DensityOperator(np.outer(vecs[:, i], vecs[:, i].conj()))
        for i in np.flatnonzero(keep)
    ]
    return PureStateDecomposition(weights, projectors)


def alternate_decomposition(w: DensityOperator, u) -> PureStateDecomposition:
    """A different pure-state decomposition of the same state.

    Builds vectors psi_i = sum_j U[i, j] sqrt(l_j) phi_j over the spectral
    data (l_j, phi_j); every unitary U with at least rank(w) rows yields a
    valid decomposition, which is exactly the non-uniqueness of the convex
    representation.  U = identity recovers the spectral decomposition.
    """
    umat = np.asarray(u, dtype=complex)
    if umat.ndim != 2 or umat.shape[0] != umat.shape[1]:
        raise NotUnitary(f"unitary parameter must be square, got shape {umat.shape}")
    if hs_norm(umat.conj().T @ umat - np.eye(umat.shape[0])) > 1e-10:
        raise NotUnitary("parameter is not unitary within 1e-10")
    vals, vecs = hermitian_eig(w.matrix)
    keep = vals > WEIGHT_CUTOFF
    rank = int(np.count_nonzero(keep))
    if umat.shape[0] < rank:
        raise DimensionMismatch(
            f"unitary parameter has {umat.shape[0]} rows but the state has rank {rank}"
        )
    amplitudes = vecs[:, keep] * np.sqrt(vals[keep])[np.newaxis, :]
    psi = amplitudes @ umat[:, :rank].T
    weights = np.sum(np.abs(psi) ** 2, axis=0)
    keep_w = weights > WEIGHT_CUTOFF
    projectors = [
        DensityOperator(np.outer(psi[:, i], psi[:, i].conj()) / weights[i])
        for i in np.flatnonzero(keep_w)
    ]
    return PureStateDecomposition(weights[keep_w], projectors)


def mix(states, weights) -> DensityOperator:
    """Convex combination of states with the given weights."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size != len(states) or w.size == 0:
        raise BadWeights("need one weight per state")
    if w.min() < -1e-12 or abs(w.sum() - 1.0) > STATE_TOL:
        raise BadWeights(f"weights must be nonnegative and sum to 1, got sum {w.sum()!r}")
    dim = states[0].dim
    if any(s.dim != dim for s in states):
        raise DimensionMismatch("states in a mixture must share a dimension")
    total = np.zeros((dim, dim), dtype=complex)
    for wi, s in zip(w, states):
        total += wi * s.matrix
    return DensityOperator(total)


def classical_decompose(d):
    """Unique barycentric decomposition of a probability vector.

    Returns (weights, vertex_indices).  Classical distributions live on a
    simplex, so unlike the quantum decompositions above this one admits no
    freedom at all: the weights are the probabilities themselves.
    """
    probs = np.asarray(d, dtype=float)
    if probs.ndim != 1 or probs.size == 0:
        raise BadWeights("distribution must be a nonempty vector")
    if probs.min() < 0 or abs(probs.sum() - 1.0) > 1e-12:
        raise BadWeights("entries must be nonnegative and sum to 1 within 1e-12")
    return probs.copy(), np.arange(probs.size)


def haar_unitary(dim: int, rng=None) -> np.ndarray:
    """Haar-distributed random unitary from a seeded generator (QR method)."""
    gen = np.random.default_rng(rng)
    z = (gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = r.diagonal()
    return q * (diag / np.abs(diag))[np.newaxis, :]


def random_density(dim: int, rng=None, rank=None) -> DensityOperator:
    """Random full-rank (or fixed-rank) density operator, Wishart style."""
    gen = np.random.default_rng(rng)
    r = dim if rank is None else int(rank)
    g = gen.standard_normal((dim, r)) + 1j * gen.standard_normal((dim, r))
    mat = g @ g.conj().T
    return DensityOperator(mat / np.trace(mat).real)
