"""Adaptive panel-based Gauss-Legendre integration.

Built for smooth, possibly highly oscillatory integrands (Fourier-type
factors exp(-ivt)).  Callers pre-split the interval into half-period panels
(``oscillation_panels``); panels are then bisected until the discrepancy
between the order-n and order-2n rules falls below their share of the error
budget.  Integrands may be scalar or array valued; everything is evaluated
vectorized over the nodes of all pending panels at once, and panel
contributions are summed in the order of their left edges so results do not
depend on evaluation scheduling.

An order-16 rule is exact to round-off over a full period of exp(-ivt), but
full-period panels are not used: their per-panel phase errors add up
coherently over thousands of panels (chi of a uniform density at t = 1e4 is
then off by ~2e-14 instead of <1e-15).  Half-period panels are as accurate
as eighth-period ones at a quarter of the nodes.
"""

import numpy as np

from .errors import QuadratureFailure

MAX_PANELS = 2**14
MIN_PANELS = 8
ORDER = 16
# Integrand nodes per panel and round: the order-n and order-2n rules.
NODES_PER_PANEL = 3 * ORDER

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
    return np.einsum("pk...,k->p...", vals, w) * half.reshape((-1,) + (1,) * (vals.ndim - 2))


def gauss_legendre_adaptive(f, a, b, tol=1e-9, order=ORDER, initial_panels=MIN_PANELS,
                            max_panels=MAX_PANELS):
    """Integrate ``f`` over [a, b] to an estimated absolute tolerance.

    ``f`` maps an (m,) array of abscissae to an (m, ...) array of values
    (complex allowed); for array values every component must meet ``tol``.
    ``initial_panels`` lets callers pre-split for known oscillation rates
    before adaptive bisection takes over.

    Raises QuadratureFailure when the panel budget is exhausted before the
    error estimate drops below ``tol``.
    """
    a = float(a)
    b = float(b)
    if not b > a:
        raise ValueError(f"empty integration interval [{a}, {b}]")
    n0 = int(min(max(initial_panels, 1), max_panels))
    edges = np.linspace(a, b, n0 + 1)
    lo, hi = edges[:-1], edges[1:]
    accepted_lo, accepted = [], []
    n_panels = n0

    while lo.size:
        coarse = _panel_values(f, lo, hi, order)
        fine = _panel_values(f, lo, hi, 2 * order)
        err = np.abs(fine - coarse).reshape(lo.size, -1).max(axis=1)
        ok = err <= tol * (hi - lo) / (b - a)
        accepted_lo.append(lo[ok])
        accepted.append(fine[ok])
        lo, hi = lo[~ok], hi[~ok]
        n_panels += lo.size
        if lo.size and n_panels > max_panels:
            raise QuadratureFailure(
                f"needed more than {max_panels} panels for tolerance {tol:g}"
            )
        mid = (lo + hi) / 2.0
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])

    by_left_edge = np.argsort(np.concatenate(accepted_lo), kind="stable")
    return np.concatenate(accepted)[by_left_edge].sum(axis=0)


def oscillation_panels(a, b, rate):
    """Initial panel count so each panel spans at most half an oscillation.

    ``rate`` is the phase advance per unit abscissa (e.g. |t| for a factor
    exp(-ivt)); panels of width pi/rate advance the phase by pi, half of the
    period 2 pi/rate.  A full period per panel would also be resolved by the
    order-16 rule, but the phase errors of neighbouring panels then add up
    coherently (see the module docstring).  Never fewer than MIN_PANELS.
    """
    if rate <= 0:
        return MIN_PANELS
    width = np.pi / rate
    return int(max(MIN_PANELS, np.ceil((b - a) / width)))
