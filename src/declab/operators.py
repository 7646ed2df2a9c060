"""Dense complex-matrix substrate: eigendecomposition, the propagator, Schatten
norms and the partial trace over the environment factor.

All functions are pure and operate on square ``numpy`` arrays.  The models
evolve in their own sector blocks and the oracle builds its own joint blocks,
so nothing in the library calls ``propagator`` or ``partial_trace_env``.  Both
stay because the benchmark in ``perfbench/`` traces them by name: a traced
function that no longer exists turns its registered metrics absent.  Dense
storage only; the supported dimension is documented up to 1024.

The module also holds what every evaluator over a time grid shares: the
checks of the times and of their phases (``finite_times``,
``finite_phases``) and the one budget of their tables (``chunks``).
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NotHermitian, OutOfDomain, PhaseOverflow

HERMITICITY_RTOL = 1e-10
DEGENERACY_RTOL = 1e-10
# Bound on the entries of one table over a chunk of a time grid (``chunks``).
TABLE_ELEMENTS = 2**16


def _as_square_matrix(m, name="matrix"):
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def finite_times(ts) -> np.ndarray:
    """A nonempty 1-d grid of finite times as floats, or OutOfDomain naming the first bad t."""
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise OutOfDomain("times must be a nonempty 1-d sequence")
    bad = np.flatnonzero(~np.isfinite(ts))
    if bad.size:
        more = f" and {bad.size - 1} more" if bad.size > 1 else ""
        raise OutOfDomain(f"times must be finite: t[{bad[0]}] = {float(ts[bad[0]])!r}{more}")
    return ts


def finite_phases(ts, *rates) -> None:
    """PhaseOverflow naming the first t in ``ts`` at which a phase |t| r overflows.

    ``rates`` are (description, r) pairs, r the largest |rate| of a kind of
    phase; the message names the first kind that overflows at that t.
    """
    top = float(np.abs(ts).max(initial=0.0))  # Python floats overflow to inf without a warning
    if all(math.isfinite(top * float(r)) for _, r in rates):
        return
    with np.errstate(over="ignore", invalid="ignore"):
        over = ~np.isfinite(np.multiply.outer(np.abs(ts), [r for _, r in rates]))
    bad = np.flatnonzero(over.any(axis=1))
    if bad.size:
        what, r = rates[int(np.argmax(over[bad[0]]))]
        raise PhaseOverflow(int(bad[0]), float(ts[bad[0]]), f"{what} {r:g}")


def chunks(n, width):
    """Consecutive slices of range(n) of at most max(1, TABLE_ELEMENTS // width) indices each.

    A table of ``width`` entries per index then holds at most TABLE_ELEMENTS
    entries per slice, or one index's worth.  Every table over a time grid
    (chi, the spin model's sums, the dephasing stacks, the CSV rows) is
    taken in these slices, so the one budget bounds them all.
    """
    step = max(1, TABLE_ELEMENTS // width)
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


def hs_norm(a):
    """Hilbert-Schmidt (Frobenius) norm of a matrix, or of every matrix of a
    (..., n, m) stack as an array.

    A plain sum of squares over the real and imaginary parts side by side,
    not ``np.linalg.norm``: that reduces through BLAS ``dot``, which with
    several BLAS threads costs milliseconds on any matrix of 128 x 128 or
    more.  The sum overflows to inf where the squares do, without a warning.
    """
    a = np.asarray(a)
    if a.dtype.kind == "c":
        a = np.ascontiguousarray(a).view(a.real.dtype)
    squares = np.einsum("...ij,...ij->...", a, a)
    return math.sqrt(squares) if squares.ndim == 0 else np.sqrt(squares)


def unit_scale(a) -> float:
    """The largest power of two, at most 1, that scales every real and imaginary
    part of a below 1: scaling by it is exact, and norms of the scaled copy
    cannot overflow."""
    largest = max(np.abs(a.real).max(), np.abs(a.imag).max())
    return float(2.0 ** -max(0, int(np.frexp(largest)[1])))


def require_hermitian(m, rtol=HERMITICITY_RTOL, name="matrix"):
    """Return the symmetrized matrix (A + A†)/2, or raise NotHermitian.

    Symmetrization absorbs roundoff accumulated by tensor assembly; inputs
    further than ``rtol`` (relative, HS norm) from Hermitian are rejected.
    """
    a = _as_square_matrix(m, name)
    adjoint = a.conj().T
    with np.errstate(over="ignore", invalid="ignore"):
        gap, size = hs_norm(a - adjoint), hs_norm(a)
    huge = not (np.isfinite(gap) and np.isfinite(size))
    if huge:
        # Entries near the double range overflow the norms (inf > inf passes)
        # and a + a†: compare a copy scaled by a power of two, and halve first.
        scaled = a * unit_scale(a)
        gap, size = hs_norm(scaled - scaled.conj().T), hs_norm(scaled)
    if gap > rtol * max(size, 1e-300):
        raise NotHermitian(f"{name} is not Hermitian within {rtol:g} relative")
    return a / 2.0 + adjoint / 2.0 if huge else (a + adjoint) / 2.0


class HermitianEig(NamedTuple):
    """Spectral data: eigenvalues descending, eigenvector columns unitary."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _canonical_phase(vecs):
    # Rotate each column so its first significant component is real positive.
    mags = np.abs(vecs)
    first = np.argmax(mags > 1e-8 * np.maximum(mags.max(axis=0), 1e-300), axis=0)
    lead = vecs[first, np.arange(vecs.shape[1])]
    phases = np.where(np.abs(lead) > 0, lead / np.where(np.abs(lead) > 0, np.abs(lead), 1.0), 1.0)
    return vecs / phases[np.newaxis, :], first


def hermitian_eig(m) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Within a degenerate group (gap below 1e-10 times the spectral scale)
    columns are ordered by descending magnitude of their first significant
    component (ties broken by that component's index), with the phase fixed
    so the component is real positive.  This makes the output deterministic
    for a given input, which golden-file tests rely on.
    """
    h = require_hermitian(m)
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver failed: {exc}") from exc
    vals = vals[::-1].copy()
    vecs, first = _canonical_phase(vecs[:, ::-1])

    scale = max(np.abs(vals).max(initial=0.0), 1e-300)
    # A group starts wherever the next eigenvalue is a full gap lower.
    group = np.cumsum(np.diff(vals, prepend=vals[:1]) <= -DEGENERACY_RTOL * scale)
    lead = np.abs(vecs[first, np.arange(vals.size)])
    return HermitianEig(vals, vecs[:, np.lexsort((first, -lead, group))])


def propagator(h, t: float) -> np.ndarray:
    """Unitary exp(-iHt) for Hermitian H, as (V e^{-i vals t}) V^H from one ``eigh``.

    The time and H are checked first.  The spectral route keeps the result
    unitary to roundoff; exp(-iHt) does not depend on the eigenbasis, so the
    plain ``eigh`` output is used.
    """
    (t,) = finite_times([t])
    h = require_hermitian(h)
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver failed: {exc}") from exc
    return (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T


class SchattenNorms(NamedTuple):
    op: float
    hs: float
    trace: float


def schatten_norms(a) -> SchattenNorms:
    """Operator, Hilbert-Schmidt and trace norms from the singular values.

    The three values always satisfy op <= hs <= trace.
    """
    mat = _as_square_matrix(a)
    s = np.linalg.svd(mat, compute_uv=False)
    return SchattenNorms(float(s.max(initial=0.0)), float(np.sqrt(np.sum(s**2))), float(np.sum(s)))


def partial_trace_env(w, dim_s: int, dim_e: int) -> np.ndarray:
    """Trace out the environment factor of an operator on H_S ⊗ H_E.

    Index layout matches ``np.kron(system, environment)``: row index
    i*dim_e + k.  The result r satisfies tr(r A) = tr(W (A ⊗ I)) for every
    system operator A.
    """
    a = _as_square_matrix(w, "joint operator")
    if dim_s < 1 or dim_e < 1 or a.shape[0] != dim_s * dim_e:
        raise DimensionMismatch(
            f"joint operator of size {a.shape[0]} does not factor as {dim_s} x {dim_e}"
        )
    return np.einsum("ikjk->ij", a.reshape(dim_s, dim_e, dim_s, dim_e))
