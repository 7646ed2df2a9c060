"""Dense complex-matrix substrate: eigendecomposition, propagators, Schatten
norms, tensor products and the partial trace over the environment factor.

All functions are pure and operate on square ``numpy`` arrays.  ``propagators``
diagonalises a Hamiltonian once per time grid, one connected block at a time:
the blocks are the connected components of the pattern of its exact nonzero
entries, so a joint Hamiltonian whose coupling commutes with the environment
splits into one small block per environment point, while a dense irreducible
one is a single block.  Dense storage only; the supported dimension is
documented up to 1024.
"""

from typing import NamedTuple

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NotHermitian

HERMITICITY_RTOL = 1e-10
DEGENERACY_RTOL = 1e-10


def _as_square_matrix(m, name="matrix"):
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def finite_times(ts) -> np.ndarray:
    """A nonempty 1-d grid of finite times as floats, or ValueError naming the first bad t."""
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("times must be a nonempty 1-d sequence")
    bad = np.flatnonzero(~np.isfinite(ts))
    if bad.size:
        more = f" and {bad.size - 1} more" if bad.size > 1 else ""
        raise ValueError(f"times must be finite: t[{bad[0]}] = {float(ts[bad[0]])!r}{more}")
    return ts


def hs_norm(a):
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(a))


def require_hermitian(m, rtol=HERMITICITY_RTOL, name="matrix"):
    """Return the symmetrized matrix (A + A†)/2, or raise NotHermitian.

    Symmetrization absorbs roundoff accumulated by tensor assembly; inputs
    further than ``rtol`` (relative, HS norm) from Hermitian are rejected.
    """
    a = _as_square_matrix(m, name)
    adjoint = a.conj().T
    if hs_norm(a - adjoint) > rtol * max(hs_norm(a), 1e-300):
        raise NotHermitian(f"{name} is not Hermitian within {rtol:g} relative")
    return (a + adjoint) / 2.0


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
    vecs = vecs[:, ::-1].copy()
    vecs, first = _canonical_phase(vecs)

    scale = max(np.abs(vals).max(initial=0.0), 1e-300)
    gap = DEGENERACY_RTOL * scale
    n = vals.size
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and vals[stop - 1] - vals[stop] < gap:
            stop += 1
        if stop - start > 1:
            lead = np.abs(vecs[first[start:stop], np.arange(start, stop)])
            order = sorted(range(stop - start), key=lambda k: (-lead[k], first[start + k]))
            vecs[:, start:stop] = vecs[:, [start + k for k in order]]
            first[start:stop] = first[[start + k for k in order]]
        start = stop
    return HermitianEig(vals, vecs)


def _components(h):
    """Connected component of each index in the graph of h's exact nonzero
    entries (h Hermitian, so the graph is undirected), labelled by the
    component's smallest index."""
    n = h.shape[0]
    linked = h != 0
    np.fill_diagonal(linked, True)  # every row non-empty, so reduceat sees each index
    rows, cols = np.nonzero(linked)
    starts = np.searchsorted(rows, np.arange(n))
    labels = np.arange(n)
    while True:
        # Hook each index to its smallest neighbouring label, then jump to roots.
        # Labels only fall and stay inside their component, so a fixed point is
        # one label per component.
        hooked = np.minimum.reduceat(labels[cols], starts)
        while not np.array_equal(hooked[hooked], hooked):
            hooked = hooked[hooked]
        if np.array_equal(hooked, labels):
            return labels
        labels = hooked


def _spectrum(h):
    """Spectra of the connected blocks of the symmetrized h.

    Returns one (indices, vals, vecs) triple per block size d, with indices
    (K, d) ascending within each of the K blocks, vals (K, d) and vecs
    (K, d, d) from one batched ``eigh`` of the K blocks.
    """
    labels = _components(h)
    sizes = np.bincount(labels, minlength=labels.size)[labels]
    order = np.lexsort((labels, sizes))  # stable: by size, then block, then index
    sizes = sizes[order]
    groups = []
    for d in sorted(set(sizes.tolist())):
        idx = order[sizes == d].reshape(-1, d)
        try:
            vals, vecs = np.linalg.eigh(h[idx[:, :, np.newaxis], idx[:, np.newaxis, :]])
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(f"eigensolver failed: {exc}") from exc
        groups.append((idx, vals, vecs))
    return groups


def propagators(h, ts):
    """Unitaries exp(-iHt) for every t in ``ts``, yielded one at a time.

    H and the times are checked, and H diagonalised, at the call: a grid
    costs one eigendecomposition.  Indices linked by exact nonzero entries
    form a block, blocks of one size share one batched ``eigh``, and each
    block's exp(-iH_k t) is scattered into an otherwise zero matrix.  The
    spectral route keeps each result unitary to roundoff; exp(-iHt) does not
    depend on the eigenbasis, so the plain ``eigh`` output is used.
    """
    ts = finite_times(ts)
    h = require_hermitian(h)
    groups = _spectrum(h)

    def unitaries():
        for t in ts:
            u = np.zeros(h.shape, dtype=complex)
            for idx, vals, vecs in groups:
                phased = vecs * np.exp(-1j * vals * t)[:, np.newaxis, :]
                u[idx[:, :, np.newaxis], idx[:, np.newaxis, :]] = phased @ vecs.conj().swapaxes(1, 2)
            yield u

    return unitaries()


def propagator(h, t: float) -> np.ndarray:
    """Unitary exp(-iHt) for Hermitian H: the single-time case of ``propagators``."""
    if not np.isfinite(float(t)):
        raise ValueError("t must be finite")
    return next(propagators(h, [t]))


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


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product with the (system ⊗ environment) index convention."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace_env(w, dim_s: int, dim_e: int) -> np.ndarray:
    """Trace out the environment factor of an operator on H_S ⊗ H_E.

    Index layout matches ``tensor_product``: row index i*dim_e + k.  The
    result r satisfies tr(r A) = tr(W (A ⊗ I)) for every system operator A.
    """
    a = _as_square_matrix(w, "joint operator")
    if dim_s < 1 or dim_e < 1 or a.shape[0] != dim_s * dim_e:
        raise DimensionMismatch(
            f"joint operator of size {a.shape[0]} does not factor as {dim_s} x {dim_e}"
        )
    return np.einsum("ikjk->ij", a.reshape(dim_s, dim_e, dim_s, dim_e))
