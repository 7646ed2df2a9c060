"""Reference values written in plain numpy, sharing no code with declab.

Every output the benchmark checks is compared against a value from this
module: closed forms where they exist (gaussian and uniform chi), a fixed
dense composite Gauss-Legendre rule otherwise (bump chi, continuous-
environment spin polarizations), and a Hadamard-mask evaluation for the
dephasing model with a discrete environment.  None of it is adaptive, so the
cost is predictable and the result does not depend on declab's error
estimates.
"""

import numpy as np

ORDER = 20          # Gauss-Legendre nodes per panel
MAX_PHASE = 3.0     # largest phase advance (radians) allowed across one panel
MIN_PANELS = 256    # resolves the densities themselves at small t
CHUNK = 4096        # panels evaluated per vectorized block, bounds memory
GAUSSIAN_HALF_WIDTH = 12.0  # integrate gaussians over +-12 sigma

_X, _W = np.polynomial.legendre.leggauss(ORDER)


def composite(f, a, b, rate):
    """Integral of f over [a, b] with panels short enough for ``rate``.

    ``rate`` bounds |d phase / dx| of the integrand's oscillation; ``f`` maps
    an (m,) array of abscissae to an (m, ...) array of values.
    """
    panels = int(max(MIN_PANELS, np.ceil((b - a) * rate / MAX_PHASE)))
    edges = np.linspace(a, b, panels + 1)
    total = 0.0
    for start in range(0, panels, CHUNK):
        stop = min(start + CHUNK, panels)
        lo = edges[start:stop]
        hi = edges[start + 1:stop + 1]
        half = (hi - lo) / 2.0
        x = ((lo + hi) / 2.0)[:, None] + half[:, None] * _X[None, :]
        vals = np.asarray(f(x.ravel()))
        vals = vals.reshape(x.shape + vals.shape[1:])
        weights = half[:, None] * _W[None, :]
        total = total + np.tensordot(weights, vals, axes=([0, 1], [0, 1]))
    return total


def gaussian_pdf(s):
    return lambda x: np.exp(-(x**2) / (2.0 * s**2)) / (s * np.sqrt(2.0 * np.pi))


def chi_gaussian(s, t):
    """Fourier transform of a centred gaussian of width s: exp(-s^2 t^2 / 2)."""
    t = np.asarray(t, dtype=float)
    return np.exp(-(s**2) * t**2 / 2.0) + 0j


def chi_uniform(a, b, t):
    """Fourier transform of the uniform density on [a, b] (a shifted sinc)."""
    t = np.asarray(t, dtype=float)
    out = np.ones(t.shape, dtype=complex)
    nz = t != 0.0
    tn = t[nz]
    out[nz] = (np.exp(-1j * b * tn) - np.exp(-1j * a * tn)) / (-1j * tn * (b - a))
    return out


def _bump_shape(a, b):
    def shape(v):
        u = (2.0 * v - a - b) / (b - a)
        inside = np.abs(u) < 1.0
        safe = np.where(inside, u, 0.0)
        return np.where(inside, np.exp(-1.0 / (1.0 - safe**2)), 0.0)
    return shape


def chi_bump(a, b, t):
    """Fourier transform of the normalized bump exp(-1/(1-u^2)) on [a, b]."""
    shape = _bump_shape(a, b)
    norm = composite(shape, a, b, 0.0)
    out = []
    for tk in np.atleast_1d(np.asarray(t, dtype=float)):
        value = composite(lambda v: shape(v) * np.exp(-1j * v * tk), a, b, abs(tk))
        out.append(value / norm)
    return np.asarray(out, dtype=complex)


def _field_axes(a, lam, x):
    h = np.empty((x.size, 3))
    h[:, 0] = a[0]
    h[:, 1] = a[1]
    h[:, 2] = a[2] + lam * x
    norm = np.sqrt(np.sum(h**2, axis=1))
    return h / norm[:, None], 2.0 * norm


def spin_polarization(a, lam, s, p, t):
    """Gaussian-weighted average of Rodrigues rotations of p, one row per t."""
    a = np.asarray(a, dtype=float)
    p = np.asarray(p, dtype=float)
    pdf = gaussian_pdf(s)
    half = GAUSSIAN_HALF_WIDTH * s
    rows = []
    for tk in np.atleast_1d(np.asarray(t, dtype=float)):
        def integrand(x, tk=tk):
            n, omega = _field_axes(a, lam, x)
            phi = omega * tk
            cos = np.cos(phi)[:, None]
            sin = np.sin(phi)[:, None]
            along = (n @ p)[:, None] * n
            rotated = cos * p + (1.0 - cos) * along + sin * np.cross(n, p)
            return pdf(x)[:, None] * rotated
        rows.append(composite(integrand, -half, half, 2.0 * abs(lam) * abs(tk)))
    return np.asarray(rows)


def spin_contraction(a, lam, s):
    """Long-time map M = average of n n^T over the gaussian density."""
    a = np.asarray(a, dtype=float)
    pdf = gaussian_pdf(s)
    half = GAUSSIAN_HALF_WIDTH * s

    def integrand(x):
        n, _ = _field_axes(a, lam, x)
        return pdf(x)[:, None, None] * (n[:, :, None] * n[:, None, :])

    return composite(integrand, -half, half, 0.0)


def chi_discrete(v, w, tau):
    """sum_k w_k exp(-i v_k tau) for every tau."""
    tau = np.asarray(tau, dtype=float)
    return np.exp(-1j * np.multiply.outer(tau, v)) @ w


def dephased_offdiagonal(rho0, sector_of, lambdas, v, w, t):
    """Hilbert-Schmidt and trace norms of the intersector part at time t.

    The state is M * rho0 (Hadamard product) with M_ij = chi((l_i - l_j) t),
    conjugated by a block-diagonal unitary that leaves both norms unchanged,
    so the unitary is never formed.
    """
    lam = np.asarray(lambdas, dtype=float)[sector_of]
    off = sector_of[:, None] != sector_of[None, :]
    gaps = np.subtract.outer(lam, lam) * t
    mask = np.where(off, chi_discrete(v, w, gaps.ravel()).reshape(gaps.shape), 0.0)
    x = mask * rho0
    sv = np.linalg.svd(x, compute_uv=False)
    return float(np.sqrt(np.sum(np.abs(x) ** 2))), float(np.sum(sv))


def trace_distance(r1, r2):
    """Trace norm of the difference of two Hermitian matrices."""
    d = np.asarray(r1) - np.asarray(r2)
    d = (d + d.conj().T) / 2.0
    return float(np.sum(np.abs(np.linalg.eigvalsh(d))))
