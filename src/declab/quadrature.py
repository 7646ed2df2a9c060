"""Adaptive panel-based Gauss-Legendre integration.

Built for smooth, possibly highly oscillatory integrands (Fourier-type
factors exp(-ivt)).  Panels are bisected until the discrepancy between the
order-n and order-2n rules falls below the error budget.  Integrands may be
scalar or array valued; everything is evaluated vectorized over the nodes of
all pending panels at once, and panel contributions are summed in a fixed
order so results do not depend on evaluation scheduling.
"""

import numpy as np

from .errors import QuadratureFailure

MAX_PANELS = 2**14
MIN_PANELS = 8

_rule_cache: dict = {}


def _rule(order):
    if order not in _rule_cache:
        _rule_cache[order] = np.polynomial.legendre.leggauss(order)
    return _rule_cache[order]


def _panel_values(f, lo, hi, order):
    # lo, hi: (p,) panel edges.  Returns (p, ...) per-panel integrals.
    x, w = _rule(order)
    half = (hi - lo) / 2.0
    nodes = lo[:, None] + half[:, None] * (x[None, :] + 1.0)
    vals = np.asarray(f(nodes.ravel()))
    vals = vals.reshape(nodes.shape + vals.shape[1:])
    return np.tensordot(vals, w, axes=([1], [0])) * half.reshape((-1,) + (1,) * (vals.ndim - 2))


def gauss_legendre_adaptive(f, a, b, tol=1e-9, order=16, initial_panels=8,
                            max_panels=MAX_PANELS):
    """Integrate ``f`` over [a, b] to an estimated absolute tolerance.

    ``f`` maps an (m,) array of abscissae to an (m, ...) array of values
    (complex allowed).  ``initial_panels`` lets callers pre-split for known
    oscillation rates before adaptive bisection takes over.

    Raises QuadratureFailure when the panel budget is exhausted before the
    error estimate drops below ``tol``.
    """
    a = float(a)
    b = float(b)
    if not b > a:
        raise ValueError(f"empty integration interval [{a}, {b}]")
    n0 = int(min(max(initial_panels, 1), max_panels))
    edges = np.linspace(a, b, n0 + 1)
    pending = [(edges[i], edges[i + 1]) for i in range(n0)]
    accepted = []  # (left edge, panel integral) for deterministic summation
    n_panels = n0

    while pending:
        lo = np.array([p[0] for p in pending])
        hi = np.array([p[1] for p in pending])
        coarse = _panel_values(f, lo, hi, order)
        fine = _panel_values(f, lo, hi, 2 * order)
        err = np.abs(fine - coarse)
        if err.ndim > 1:
            err = err.reshape(err.shape[0], -1).max(axis=1)
        budget = tol * (hi - lo) / (b - a)
        next_pending = []
        for i in range(len(pending)):
            if err[i] <= budget[i]:
                accepted.append((lo[i], fine[i]))
            else:
                mid = (lo[i] + hi[i]) / 2.0
                next_pending.append((lo[i], mid))
                next_pending.append((mid, hi[i]))
                n_panels += 1
        if next_pending and n_panels > max_panels:
            raise QuadratureFailure(
                f"needed more than {max_panels} panels for tolerance {tol:g}"
            )
        pending = next_pending

    accepted.sort(key=lambda pair: pair[0])
    total = accepted[0][1]
    for _, val in accepted[1:]:
        total = total + val
    return total


def oscillation_panels(a, b, rate):
    """Initial panel count so each panel spans at most an eighth of an oscillation.

    ``rate`` is the phase advance per unit abscissa (e.g. |t| for a factor
    exp(-ivt)); panels of width pi/(4 rate) advance the phase by pi/4, an
    eighth of the period 2 pi/rate.  Never fewer than MIN_PANELS.
    """
    if rate <= 0:
        return MIN_PANELS
    width = np.pi / (4.0 * rate)
    return int(max(MIN_PANELS, np.ceil((b - a) / width)))
