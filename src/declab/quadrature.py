"""Quadrature rules: adaptive panel-based Gauss-Legendre and Legendre-Filon.

``gauss_legendre_adaptive`` is built for smooth, possibly oscillatory
integrands whose oscillation is not a plain exp(-ivt) factor.  Callers
pre-split the interval into half-period panels (``oscillation_panels``);
panels are then bisected until the discrepancy between the order-n and
order-2n rules falls below their share of the error budget.  Integrands may
be scalar or array valued; everything is evaluated vectorized over the nodes
of all pending panels at once, and panel contributions are summed in the
order of their left edges so results do not depend on evaluation scheduling.
That loop (``_bisect``) also splits densities into Legendre panels.

``kernel_adaptive`` is the same rule for a whole grid of times, on
integrands of the form

    c(x) + a(x) cos(omega(x) t) + b(x) sin(omega(x) t)

(the spin rotation kernel: a rigid rotation about n(x) at rate omega(x)).
It takes the whole grid and cuts it into blocks of ascending |t| (``_blocks``),
each pre-split for its largest |t| and kept within KERNEL_ELEMENTS table
entries, and runs one adaptive call per block.  The kernel gives the rate and
the amplitudes once per node; each panel's amplitudes carry the rule's weights
times its half-width, its cos and sin tables (times x nodes) are each
contracted with them by one batched matmul (``trig_sum``), and the
t-independent c is summed once per panel.

An order-16 rule is exact to round-off over a full period of exp(-ivt), but
full-period panels are not used: their per-panel phase errors add up
coherently over thousands of panels (chi of a uniform density at t = 1e4 is
then off by ~2e-14 instead of <1e-15).  Half-period panels are as accurate
as eighth-period ones at a quarter of the nodes.  The cost of this rule grows
with the oscillation rate, and the pre-split is capped at MAX_PANELS;
``oscillation_horizon`` is the |t| at which the pre-split reaches that cap.

The Fourier transform of a smooth density f, int f(v) exp(-ivt) dv, does not
need any of that (Filon's idea; Iserles and Norsett, Proc. R. Soc. A 461,
2005).  ``legendre_panels`` splits the support, from f alone, into panels on
which f is a Legendre series P_0 .. P_(n-1) to round-off, and
``legendre_fourier`` integrates every term exactly:

    int_(-1)^1 P_k(u) exp(-i w u) du = 2 (-i)^k j_k(w),

so a panel [c - h, c + h] contributes exp(-ict) h sum_k a_k 2 (-i sign t)^k
j_k(h |t|).  Its cost does not depend on t, and its error is bounded by the
panels' Legendre tails at every t.  ``spherical_jn`` supplies j_k with numpy
alone.  f may have components: it maps (p,) panel centres and (p, n) node
offsets to (p, n, ...) values, one bisection serves all components, and the
transforms come out as (T, ...).  The same rule integrates the spin kernel
away from the fold of its rate: where omega is monotone, the rate itself
becomes the variable v, and the kernel's amplitudes times dx/dv are the f
(``models.spin_trajectory``).  Centre and offset come apart so that such a
change of variable can place its nodes without rounding them.
"""

import functools
from typing import NamedTuple

import numpy as np

from .errors import QuadratureFailure

MAX_PANELS = 2**14
MIN_PANELS = 8
ORDER = 16
# Integrand nodes per panel and round: the order-n and order-2n rules.
NODES_PER_PANEL = 3 * ORDER
# Legendre terms per panel of the Filon rule, and its error budget for a
# whole density (absolute, in units of the integral).
LEGENDRE_ORDER = 16
LEGENDRE_BUDGET = 1e-15
# Bound on Legendre terms x panels x times held at once by legendre_fourier.
LEGENDRE_ELEMENTS = 2**16
# Bound on initial panels x nodes per panel x times for one block of
# kernel_adaptive, and so on the cos and sin tables of its kernel quadrature.
KERNEL_ELEMENTS = 2**18
EPS = np.finfo(float).eps

_rule_cache: dict = {}


def _rule(order):
    if order not in _rule_cache:
        _rule_cache[order] = np.polynomial.legendre.leggauss(order)
    return _rule_cache[order]


def _bisect(evaluate, a, b, initial_panels, max_panels, what):
    """The adaptive loop: accept panels of [a, b] or bisect them, within a budget.

    ``evaluate(lo, hi)`` maps (p,) panel edges to (ok, values): which panels
    pass, and a tuple of (p, ...) arrays of per-panel results.  Returns those
    arrays for the accepted panels, ordered by left edge so results do not
    depend on evaluation scheduling.  Raises QuadratureFailure, naming
    ``what`` ran out, when more than ``max_panels`` panels are needed.
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
        ok, values = evaluate(lo, hi)
        accepted_lo.append(lo[ok])
        accepted.append([v[ok] for v in values])
        lo, hi = lo[~ok], hi[~ok]
        n_panels += lo.size
        if lo.size and n_panels > max_panels:
            raise QuadratureFailure(f"needed more than {max_panels} {what}")
        mid = (lo + hi) / 2.0
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])

    by_left_edge = np.argsort(np.concatenate(accepted_lo), kind="stable")
    return [np.concatenate(part)[by_left_edge] for part in zip(*accepted)]


def _rule_pair(panel_values, a, b, tol, initial_panels, max_panels):
    # panel_values(nodes, scale) maps the (p, k) nodes of a rule on each panel,
    # and its weights times the half-widths, to (p, ...) panel integrals.
    # Panels pass when the order-n and order-2n rules agree to their share of
    # tol; the order-2n values are summed.
    def evaluate(lo, hi):
        half = ((hi - lo) / 2.0)[:, None]
        coarse, fine = (panel_values(lo[:, None] + half * (x + 1.0), w * half)
                        for x, w in (_rule(ORDER), _rule(2 * ORDER)))
        err = np.abs(fine - coarse).reshape(lo.size, -1).max(axis=1)
        return err <= tol * (hi - lo) / (b - a), (fine,)

    (fine,) = _bisect(evaluate, a, b, initial_panels, max_panels, f"panels for tolerance {tol:g}")
    return fine.sum(axis=0)


def gauss_legendre_adaptive(f, a, b, tol=1e-9, initial_panels=MIN_PANELS, max_panels=MAX_PANELS):
    """Integrate ``f`` over [a, b] to an estimated absolute tolerance.

    ``f`` maps an (m,) array of abscissae to an (m, ...) array of values
    (complex allowed); for array values every component must meet ``tol``.
    ``initial_panels`` lets callers pre-split for known oscillation rates
    before adaptive bisection takes over.

    Raises QuadratureFailure when the panel budget is exhausted before the
    error estimate drops below ``tol``.
    """

    def panel_values(nodes, scale):
        vals = np.asarray(f(nodes.ravel()))
        return np.einsum("pk...,pk->p...", vals.reshape(nodes.shape + vals.shape[1:]), scale)

    return _rule_pair(panel_values, a, b, tol, initial_panels, max_panels)


def trig_sum(ts, omega, a, b, c):
    """sum_k c_k + a_k cos(omega_k t) + b_k sin(omega_k t) for every t in ``ts``.

    ``omega`` is (..., k) and the amplitudes (..., k, d), leading axes being
    batches (panels); a and b are None when nothing oscillates, c when
    nothing is constant.  Returns (..., T, d).
    """
    if a is None:
        total = c.sum(axis=-2)[..., None, :]
        return np.broadcast_to(total, omega.shape[:-1] + (ts.size, total.shape[-1]))
    phase = ts[:, None] * omega[..., None, :]
    out = np.cos(phase) @ a
    out += np.sin(phase) @ b
    if c is not None:
        out += c.sum(axis=-2)[..., None, :]
    return out


def _blocks(lo, hi, rate, ts):
    """Split times into blocks sharing one adaptive call, with their pre-splits.

    Times are taken in ascending |t|; each block is pre-split for its largest
    phase rate ``rate * |t|`` and grows only while initial panels x nodes x
    block size stays within KERNEL_ELEMENTS, which bounds the trig tables'
    memory.  Yields (indices into ts, initial panel count).
    """
    order = np.argsort(np.abs(ts), kind="stable")
    panels = [oscillation_panels(lo, hi, rate * abs(ts[i])) for i in order]
    start = 0
    while start < order.size:
        stop = start + 1
        while (stop < order.size and panels[stop] * NODES_PER_PANEL * (stop + 1 - start)
               <= KERNEL_ELEMENTS):
            stop += 1
        yield order[start:stop], panels[stop - 1]
        start = stop


def kernel_adaptive(kernel, ts, lo, hi, tol, rate):
    """int_lo^hi c(x) + a(x) cos(omega(x) t) + b(x) sin(omega(x) t) dx for every t in ``ts``.

    ``kernel`` maps (m,) abscissae to (omega, a, b, c): (m,) rates and (m, d)
    amplitudes, or None as in ``trig_sum``.  ``rate`` bounds |d omega / dx|,
    so the phase omega(x) t advances by at most ``rate * |t|`` per unit x.
    The times are split into blocks (``_blocks``); each block is one adaptive
    call, its panels accepted and bisected as in ``gauss_legendre_adaptive``,
    every (t, component) meeting ``tol``.  Returns (T, d) in the order of ``ts``.
    """

    def panel_values(tb, nodes, scale):
        omega, *amplitudes = kernel(nodes.ravel())
        folded = [None if q is None else q.reshape(nodes.shape + (-1,)) * scale[..., None]
                  for q in amplitudes]
        return trig_sum(tb, omega.reshape(nodes.shape), *folded)

    out = None
    for idx, n0 in _blocks(lo, hi, rate, ts):
        part = _rule_pair(functools.partial(panel_values, ts[idx]), lo, hi, tol, n0, MAX_PANELS)
        if out is None:
            out = np.empty((ts.size, part.shape[1]))
        out[idx] = part
    return out


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
    with np.errstate(over="ignore"):  # a subnormal rate gives width inf, so MIN_PANELS
        width = np.pi / rate
    return int(max(MIN_PANELS, np.ceil((b - a) / width)))


def oscillation_horizon(a, b, rate):
    """Largest |t| at which the pre-split of [a, b] stays within MAX_PANELS panels.

    ``rate`` is as in ``kernel_adaptive``: the phase advances by at most
    ``rate * |t|`` per unit abscissa, so ``oscillation_panels`` reaches
    MAX_PANELS at MAX_PANELS pi / (rate (b - a)).  Beyond it the adaptive
    rule may run out of panels.  Infinite when rate (b - a) is 0: nothing
    oscillates, or the product underflows.
    """
    span = rate * (b - a)
    return MAX_PANELS * np.pi / span if span > 0 else float("inf")


def spherical_jn(kmax, z):
    """Spherical Bessel functions j_0 .. j_kmax at every z >= 0, shape (kmax + 1,) + z.shape.

    j_0 = sin z / z and j_1 = (j_0 - cos z) / z.  Up to k = floor(z) the
    forward recurrence j_(k+1) = (2k + 1) j_k / z - j_(k-1) is stable; above
    it j_k falls off steeply, and the ratios j_k / j_(k-1) come from the
    backward continued fraction r_k = z / (2k + 1 - z r_(k+1)) (Miller's
    algorithm in ratio form), started at index kmax + 5 + max z, far enough
    up for double precision.  Tiny values keep their relative accuracy, and
    z below 1e-300, where (2k + 1) / z would overflow, gives j_0 = 1, j_k = 0.
    """
    z = np.asarray(z, dtype=float)
    shape = z.shape
    z = np.where(z < 1e-300, 0.0, z).ravel()
    out = np.empty((kmax + 1, z.size))
    # Row lists: indexing a list is much cheaper than slicing an array per step.
    j = list(out)
    zmin, zmax = float(z.min()), float(z.max())
    forward = min(int(zmax), kmax)  # rows the forward recurrence fills for some z
    low = int(zmin) + 1  # lowest row some z takes from the continued fraction
    start = kmax + 5 + int(min(zmax, kmax)) if low <= kmax else forward
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # inv = inf at z = 0 makes every ratio vanish there.  Forward values
        # above floor(z) may overflow; they are never used.
        inv = 1.0 / z
        rate = list(np.multiply.outer(np.arange(1.0, 2 * start + 2, 2), inv))  # (2k + 1) / z
        np.multiply(np.sin(z), inv, out=j[0])
        j[0][z == 0.0] = 1.0
        if forward >= 1:
            np.subtract(j[0], np.cos(z), out=j[1])
            j[1] *= inv
            for k in range(1, forward):
                np.multiply(rate[k], j[k], out=j[k + 1])
                np.subtract(j[k + 1], j[k - 1], out=j[k + 1])
        if low <= kmax:
            ratios = np.empty((start + 1, z.size))
            ratios[:low] = 1.0
            r = list(ratios)
            np.reciprocal(rate[start], out=r[start])
            for k in range(start - 1, low - 1, -1):
                np.subtract(rate[k], r[k + 1], out=r[k])
                np.reciprocal(r[k], out=r[k])
            top = np.minimum(z, kmax).astype(int)  # last row from the forward recurrence
            above = np.arange(kmax + 1)[:, None] > top
            factors = np.where(above, ratios[: kmax + 1], 1.0)
            np.cumprod(factors, axis=0, out=factors)
            factors *= out[top, np.arange(z.size)]
            np.copyto(out, factors, where=above)
    return out.reshape((kmax + 1,) + shape)


class LegendrePanels(NamedTuple):
    """Panels [c - h, c + h] of f's support with f's Legendre series on each.

    ``coeffs[p, k, ...]`` is 2h a_k, the Legendre coefficient a_k of f on
    panel p times the panel's width, so ``coeffs[:, 0]`` are the panels'
    integrals; trailing axes are f's components, none for a scalar f.  Rows
    are ordered by centre; trailing terms that no panel needs are dropped.
    ``tail`` bounds the integral of what the series leave out, for every
    component: the sum over panels of 2h (|a_(n-2)| + |a_(n-1)|), plus what
    the dropped terms could contribute.
    """

    centres: np.ndarray
    halves: np.ndarray
    coeffs: np.ndarray
    tail: float


def _legendre_rule(order):
    """Gauss-Legendre nodes, and the transform from values at them to a_0 .. a_(n-1).

    The transform a_k = (k + 1/2) sum_j w_j P_k(x_j) f(x_j) is built from
    nodes and weights polished by Newton steps in long double, and applied in
    long double.  Built from numpy's double nodes and weights it leaves
    ~1e-14 in the a_k (k >= 1) of a constant and chi ~7e-16 off its closed
    forms; applied in double it leaves round-off in them that cannot be told
    apart from real terms, so no term of a constant could be dropped.
    """
    key = ("legendre", order)
    if key not in _rule_cache:
        x = np.polynomial.legendre.leggauss(order)[0].astype(np.longdouble)
        for _ in range(2):
            p_prev, p = np.ones_like(x), x
            for k in range(2, order + 1):
                p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
            dp = order * (x * p - p_prev) / (x * x - 1)
            x = x - p / dp
        w = 2 / ((1 - x * x) * dp * dp)
        vander = np.polynomial.legendre.legvander(x, order - 1)
        transform = (np.arange(order) + 0.5)[:, None] * (w * vander.T)
        _rule_cache[key] = x.astype(float), transform
    return _rule_cache[key]


def legendre_panels(f, a, b):
    """Split [a, b] into panels on which f is a Legendre series P_0 .. P_(n-1).

    ``f(centres, offsets)`` maps (p,) panel centres and the (p, n) offsets of
    their nodes to (p, n, ...) real values at centres[:, None] + offsets; n
    is LEGENDRE_ORDER.  Given apart, centre and offset let f place its nodes
    without rounding them onto a coarser grid (a change of variable).  A
    panel is bisected until, for every component, 2h (|a_(n-2)| + |a_(n-1)|)
    is below its width's share of LEGENDRE_BUDGET, or below the noise that
    rounding of f's values alone puts into those coefficients (no bisection
    can go under it).  All pending panels are transformed at once.  Raises
    QuadratureFailure when f needs more than MAX_PANELS panels.
    """
    x, transform = _legendre_rule(LEGENDRE_ORDER)
    noise = EPS * np.abs(transform[-2:].astype(float))

    def evaluate(lo, hi):
        centres, widths = (lo + hi) / 2.0, hi - lo
        vals = f(centres, widths[:, None] / 2.0 * x)
        # One row of n values per (panel, component).
        p, n = vals.shape[:2]
        rows = vals.reshape(p, n, -1).swapaxes(1, 2).reshape(-1, n)
        w = np.repeat(widths, rows.shape[0] // p)
        coeffs = (rows.astype(np.longdouble) @ transform.T).astype(float) * w[:, None]
        tails = np.abs(coeffs[:, -2:]).sum(axis=1)
        floors = w * (np.abs(rows) @ noise.T).sum(axis=1)
        ok = (tails <= LEGENDRE_BUDGET * w / (b - a)) | (tails <= floors)
        coeffs = np.moveaxis(coeffs.reshape((p,) + vals.shape[2:] + (n,)), -1, 1)
        return ok.reshape(p, -1).all(axis=1), (centres, widths / 2.0, coeffs,
                                               tails.reshape(p, -1).max(axis=1))

    centres, halves, coeffs, tails = _bisect(evaluate, a, b, 1, MAX_PANELS,
                                             f"Legendre panels for budget {LEGENDRE_BUDGET:g}")
    # Drop trailing terms whose total contribution, in any component, is below
    # a tenth of an ulp of 1.
    totals = np.abs(coeffs).sum(axis=0).reshape(LEGENDRE_ORDER, -1)
    bound = np.cumsum(totals[::-1], axis=0)[::-1].max(axis=1)
    keep = max(1, int(np.count_nonzero(bound > EPS / 10.0)))
    dropped = float(bound[keep]) if keep < LEGENDRE_ORDER else 0.0
    return LegendrePanels(centres, halves, coeffs[:, :keep], float(tails.sum()) + dropped)


# Real and imaginary parts of (-i)^k for k mod 4.
_POWERS_OF_MINUS_I = np.array([[1.0, 0.0], [0.0, -1.0], [-1.0, 0.0], [0.0, 1.0]])


def legendre_fourier(panels, ts, tol):
    """int f(v) exp(-ivt) dv for every t in ``ts``, from f's Legendre panels.

    Returns (T, ...) complex values, one per component of f.  Times are
    evaluated in chunks of at most LEGENDRE_ELEMENTS (term, panel, time)
    triples; negative times are the complex conjugates of |t|, as for every
    real f.  Raises QuadratureFailure when ``tol`` is below the panels' tail
    estimate, which bounds the error at every t, and ValueError naming the
    first t at which a panel's phase h |t| overflows.
    """
    if not tol >= panels.tail:
        raise QuadratureFailure(
            f"tolerance {tol:g} is below the Legendre tail estimate {panels.tail:g}"
        )
    ts = np.asarray(ts, dtype=float)
    at = np.abs(ts)
    with np.errstate(over="ignore"):
        bad = np.flatnonzero(~np.isfinite(panels.halves.max() * at))
    if bad.size:
        raise ValueError(f"t[{bad[0]}] = {float(ts[bad[0]])!r} times the panel half-width "
                         f"{panels.halves.max():g} overflows")
    n_panels, n_terms = panels.coeffs.shape[:2]
    coeffs = panels.coeffs.reshape(n_panels, n_terms, -1)
    # (p, k, 2d): 2h a_k (-i)^k as (real, imaginary) pairs, d components.
    weights = (coeffs[..., None] * _POWERS_OF_MINUS_I[np.arange(n_terms) % 4, None]).reshape(
        n_panels, n_terms, -1)
    out = np.empty((ts.size, coeffs.shape[2]), dtype=complex)
    step = max(1, LEGENDRE_ELEMENTS // (n_panels * n_terms))
    for s in range(0, ts.size, step):
        tc = at[s : s + step]
        j = spherical_jn(n_terms - 1, np.multiply.outer(panels.halves, tc))
        sums = np.matmul(j.transpose(1, 2, 0), weights).view(complex)  # (p, t, d)
        phases = np.exp(np.multiply.outer(-1j * panels.centres, tc))
        out[s : s + step] = np.einsum("pt,ptd->td", phases, sums)
    np.conjugate(out, out=out, where=(ts < 0)[:, None])
    return out.reshape(ts.shape + panels.coeffs.shape[2:])
