"""Quadrature rules, one per integral (a discrete environment is a sum).

``gauss_legendre_adaptive`` integrates smooth integrands that do not
oscillate: the spin model's map int w n n^T dx (``models.asymptotic_map``),
and the moments of its rotation kernel on the strip about the fold of the
rate, from which every time's integral there is a short series
(``models._strip``).  From MIN_PANELS equal panels, panels are bisected
until the discrepancy between the order-n and order-2n rules falls below
their share of the error budget ADAPTIVE_TOL, within a budget of
MAX_PANELS panels.  Integrands may be scalar or array valued; everything
is evaluated vectorized, in one call per round, over the nodes of both
rules on all pending panels, and panel contributions are summed in the
order of their left edges so results do not depend on evaluation
scheduling.  That loop (``_bisect``) also splits densities into panels; it
starts from the panels between given edges, so that a caller who knows
where an integrand needs small panels can start there.

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
away from the strip about the fold of its rate: where omega = 2 rho is
monotone, rho itself becomes the variable v, and the kernel's amplitudes
times dx/dv are the f (``models.spin_trajectory``); the panels grade toward
the strip's edge, where dx/dv grows like sqrt(t) (the spin model starts the
bisection from edges already graded there), and the large values there are
judged against their own rounding noise (NOISE_ULPS).
Centre and offset come apart so that such a change of variable can place
its nodes without rounding them.
No rule takes a tolerance: the adaptive rule's budget is ADAPTIVE_TOL,
and the Legendre panels' tail is fixed by f, which chi states as its limit
and the spin model's far branches check against ADAPTIVE_TOL.

Every Gauss-Legendre rule here comes from one generator,
``_gauss_legendre``: Newton's method on the three-term recurrence from
asymptotic node estimates, O(n^2) time and O(n) memory, in double for the
adaptive rules and ``models.SpectralDensity.discretize`` (``_rule``) and in
long double for the Legendre transform (``_legendre_rule``).  Each rule is
built once per process and kept, read-only.
"""

from typing import NamedTuple

import numpy as np

from .errors import OutOfDomain, QuadratureFailure
from .operators import chunks, finite_phases

MAX_PANELS = 2**14
MIN_PANELS = 8
ORDER = 16
# Legendre terms per panel of the Filon rule, and its error budget for a
# whole density (absolute, in units of the integral).
LEGENDRE_ORDER = 16
LEGENDRE_BUDGET = 1e-15
# Error budget of the adaptive rule for a whole integral (absolute).
ADAPTIVE_TOL = 1e-9
# Rounding noise of a panel's values, in ulps of their largest magnitude: a
# Legendre tail below it cannot be told apart from noise.  The densities'
# tails level off at up to 82 ulps (bump; 49 at the 99th percentile), 13
# (gaussian) and 0.01 (uniform) on panels where they are at least 1e-3 of
# their peak; 64 is the power of two above the bump's 99th percentile.
NOISE_ULPS = 64
EPS = np.finfo(float).eps

_rule_cache: dict = {}


def _legendre_recurrence(x, n):
    """Yield P_0(x), P_1(x), ..., P_n(x), in x's dtype.

    k P_k = (2k - 1) x P_(k-1) - (k - 1) P_(k-2), in place on three buffers
    used in turn: a yielded array keeps its value until the second array
    after it is yielded.
    """
    p_prev, p, spare = np.ones_like(x), x.copy(), np.empty_like(x)
    yield p_prev
    if n:
        yield p
    for k in range(2, n + 1):
        np.multiply(p, x, out=spare)
        spare *= 2 * k - 1
        p_prev *= k - 1
        spare -= p_prev
        spare /= k
        p_prev, p, spare = p, spare, p_prev
        yield p


def _gauss_legendre(n, dtype=float):
    """The n-point Gauss-Legendre rule on [-1, 1] in ``dtype``: ascending nodes, weights.

    Newton's method on the three-term recurrence (Hale and Townsend, SIAM
    J. Sci. Comput. 35, 2013), in O(n^2) time and O(n) memory, where the
    companion eigenproblem of Golub and Welsch takes O(n^3) and O(n^2).  The
    nodes x >= 0 start from Tricomi's estimates
    cos(theta_k) (1 - (n - 1)/(8 n^3) - (39 - 28/sin^2 theta_k)/(384 n^4)),
    theta_k = pi (4k - 1)/(4n + 2), written as sin(phi_k), phi_k = pi/2 -
    theta_k, so that the middle node of an odd n is 0 exactly.  Steps stop
    once every correction is within 2 eps of ``dtype`` (at most 10).  P_n'
    is carried through the last step with P_n'' = 2x P_n'/(1 - x^2), and
    w = 2/((1 - x)(1 + x) P_n'^2).  The half x < 0 is the mirror image.
    """
    phi = np.arange(n - 1, -1, -2, dtype=dtype)[::-1] * (np.pi / (2 * n + 1))
    x = np.sin(phi) * (1 - (n - 1) / (8 * n**3) - (39 - 28 / np.cos(phi) ** 2) / (384 * n**4))
    tol = 2 * np.finfo(dtype).eps
    for _ in range(10):
        *_, p_prev, p = _legendre_recurrence(x, n)
        dp = n * (x * p - p_prev) / ((x - 1) * (x + 1))
        step = p / dp
        x -= step
        if np.abs(step).max() <= tol:
            break
    one_minus_x2 = (1 - x) * (1 + x)
    dp -= step * 2 * x * dp / one_minus_x2
    w = 2 / (one_minus_x2 * dp * dp)
    return np.concatenate([-x[::-1][: n // 2], x]), np.concatenate([w[::-1][: n // 2], w])


def _frozen(*arrays):
    """``arrays``, made read-only: a process-wide cache hands them to every caller."""
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _rule(order):
    if order not in _rule_cache:
        _rule_cache[order] = _frozen(*_gauss_legendre(order))
    return _rule_cache[order]


def _bisect(evaluate, edges, what):
    """The adaptive loop: accept panels of [edges[0], edges[-1]] or bisect them, within a budget.

    Bisection starts from the panels between consecutive ``edges`` (ascending).
    ``evaluate(lo, hi)`` maps (p,) panel edges to (ok, values): which panels
    pass, and a tuple of (p, ...) arrays of per-panel results.  Returns those
    arrays for the accepted panels, ordered by left edge so results do not
    depend on evaluation scheduling.  Raises QuadratureFailure, naming
    ``what`` ran out, when more than MAX_PANELS panels are needed.
    """
    edges = np.asarray(edges, dtype=float)
    if not edges[-1] > edges[0]:
        raise OutOfDomain(f"empty integration interval [{edges[0]}, {edges[-1]}]")
    lo, hi = edges[:-1], edges[1:]
    accepted_lo, accepted = [], []
    n_panels = lo.size

    while lo.size:
        ok, values = evaluate(lo, hi)
        accepted_lo.append(lo[ok])
        accepted.append([v[ok] for v in values])
        lo, hi = lo[~ok], hi[~ok]
        n_panels += lo.size
        if lo.size and n_panels > MAX_PANELS:
            raise QuadratureFailure(f"needed more than {MAX_PANELS} {what}")
        mid = (lo + hi) / 2.0
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])

    by_left_edge = np.argsort(np.concatenate(accepted_lo), kind="stable")
    return [np.concatenate(part)[by_left_edge] for part in zip(*accepted)]


def gauss_legendre_adaptive(f, a, b):
    """Integrate ``f`` over [a, b] to an estimated absolute error of ADAPTIVE_TOL.

    ``f`` maps an (m,) array of abscissae to an (m, ...) array of values
    (complex allowed); for array values every component must meet the
    budget.  Bisection starts from MIN_PANELS equal panels; a panel passes
    when the order-n and order-2n rules agree to its share of ADAPTIVE_TOL,
    and the order-2n values are summed.  Raises QuadratureFailure when more
    than MAX_PANELS panels are needed.
    """
    (x, w), (x2, w2) = _rule(ORDER), _rule(2 * ORDER)

    def evaluate(lo, hi):  # f at the nodes of both rules on every panel, in one call
        half = ((hi - lo) / 2.0)[:, None]
        nodes = lo[:, None] + half * (np.concatenate([x, x2]) + 1.0)
        vals = np.asarray(f(nodes.ravel()))
        vals = vals.reshape(nodes.shape + vals.shape[1:])
        coarse, fine = (np.einsum("pk...,pk->p...", part, weights * half)
                        for part, weights in ((vals[:, :ORDER], w), (vals[:, ORDER:], w2)))
        err = np.abs(fine - coarse).reshape(lo.size, -1).max(axis=1)
        # A panel's share, in this order: ADAPTIVE_TOL * (hi - lo) may underflow.
        return err <= ADAPTIVE_TOL * ((hi - lo) / (b - a)), (fine,)

    # Steps between subnormal ends round up: linspace may pass b before its last edge.
    edges = np.linspace(a, b, MIN_PANELS + 1)
    edges[1:] = np.minimum(edges[1:], b)
    (fine,) = _bisect(evaluate, edges, f"panels for ADAPTIVE_TOL = {ADAPTIVE_TOL:g}")
    return fine.sum(axis=0)


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

    Bisection leaves few distinct half-widths: ``halves`` holds them once,
    ascending, and panel p's is ``halves[width_of[p]]``; scaling ``halves``
    scales every panel.  ``coeffs[p, k, ...]`` is 2h a_k, the Legendre
    coefficient a_k of f on panel p times the panel's width, so
    ``coeffs[:, 0]`` are the panels' integrals; trailing axes are f's
    components, none for a scalar f.  ``legendre_panels`` orders rows by
    centre and drops trailing terms that no panel needs.  ``tail`` bounds
    the integral of what the series leave out, for every component: the sum
    over panels of 2h (|a_(n-2)| + |a_(n-1)|), plus what the dropped terms
    could contribute.
    """

    centres: np.ndarray
    halves: np.ndarray
    width_of: np.ndarray
    coeffs: np.ndarray
    tail: float


def _legendre_rule(order):
    """Gauss-Legendre nodes, and the transform from values at them to a_0 .. a_(n-1).

    The transform a_k = (k + 1/2) sum_j w_j P_k(x_j) f(x_j) is built in long
    double, from ``_gauss_legendre``'s long-double rule and the rows P_k(x_j)
    of the same recurrence, and applied in long double.  Built from the
    double rule it leaves ~2e-15 in the a_k (k >= 1) of a constant, against
    ~2e-18; applied in double it leaves round-off in them that cannot be
    told apart from real terms, so no term of a constant could be dropped.
    """
    key = ("legendre", order)
    if key not in _rule_cache:
        x, w = _gauss_legendre(order, np.longdouble)
        rows = np.empty((order, order), dtype=np.longdouble)
        for row, p in zip(rows, _legendre_recurrence(x, order - 1)):
            row[:] = p
        transform = (np.arange(order) + 0.5)[:, None] * (w * rows)
        _rule_cache[key] = _frozen(x.astype(float), transform)
    return _rule_cache[key]


def legendre_panels(f, *edges):
    """Split [edges[0], edges[-1]] into panels on which f is a Legendre series P_0 .. P_(n-1).

    ``f(centres, offsets)`` maps (p,) panel centres and the (p, n) offsets of
    their nodes to (p, n, ...) real values at centres[:, None] + offsets; n
    is LEGENDRE_ORDER.  Given apart, centre and offset let f place its nodes
    without rounding them onto a coarser grid (a change of variable).  A
    panel is bisected until, for every component, 2h (|a_(n-2)| + |a_(n-1)|)
    is below its width's share of LEGENDRE_BUDGET, or below the noise of f's
    values, which no bisection can go under: 2h times the larger of what
    one ulp in every value puts into those coefficients and NOISE_ULPS ulps
    of the values' largest magnitude on the panel (the series' noise
    plateau; Aurentz and Trefethen, ACM TOMS 43, 2017).  Large values of f
    on a few thin panels then add only ~EPS times the integral of |f| to
    the tail.  Bisection starts from the panels between consecutive
    ``edges`` (ascending; two edges make one panel), and all pending panels
    are transformed at once.  Raises QuadratureFailure when f needs more
    than MAX_PANELS panels.
    """
    a, b = edges[0], edges[-1]
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
        size = np.abs(rows)
        floors = w * np.maximum((size @ noise.T).sum(axis=1), NOISE_ULPS * EPS * size.max(axis=1))
        ok = (tails <= LEGENDRE_BUDGET * (w / (b - a))) | (tails <= floors)
        coeffs = np.moveaxis(coeffs.reshape((p,) + vals.shape[2:] + (n,)), -1, 1)
        return ok.reshape(p, -1).all(axis=1), (centres, widths / 2.0, coeffs,
                                               tails.reshape(p, -1).max(axis=1))

    centres, halves, coeffs, tails = _bisect(evaluate, edges,
                                             f"Legendre panels for budget {LEGENDRE_BUDGET:g}")
    # Drop trailing terms whose total contribution, in any component, is below
    # a tenth of an ulp of 1.
    totals = np.abs(coeffs).sum(axis=0).reshape(LEGENDRE_ORDER, -1)
    bound = np.cumsum(totals[::-1], axis=0)[::-1].max(axis=1)
    keep = max(1, int(np.count_nonzero(bound > EPS / 10.0)))
    dropped = float(bound[keep]) if keep < LEGENDRE_ORDER else 0.0
    halves, width_of = np.unique(halves, return_inverse=True)
    return LegendrePanels(centres, halves, width_of, coeffs[:, :keep],
                          float(tails.sum()) + dropped)


# Real and imaginary parts of (-i)^k for k mod 4.
_POWERS_OF_MINUS_I = np.array([[1.0, 0.0], [0.0, -1.0], [-1.0, 0.0], [0.0, 1.0]])


def legendre_fourier(panels, ts):
    """int f(v) exp(-ivt) dv for every t in ``ts``, from f's Legendre panels.

    Returns (T, ...) complex values, one per component of f, each within the
    panels' ``tail`` of the transform of f at every t.  Times are evaluated
    in chunks (``operators.chunks``) of one (term, panel) table per time;
    negative times are the complex conjugates of |t|, as for every real f.
    Raises OutOfDomain naming the first t at which a panel's phase, h |t|
    or c |t|, overflows.
    """
    ts = np.asarray(ts, dtype=float)
    at = np.abs(ts)
    finite_phases(ts, ("the panel half-width", panels.halves.max()),
                  ("the panel centre", np.abs(panels.centres).max()))
    n_panels, n_terms = panels.coeffs.shape[:2]
    coeffs = panels.coeffs.reshape(n_panels, n_terms, -1)
    # (p, k, 2d): 2h a_k (-i)^k as (real, imaginary) pairs, d components.
    weights = (coeffs[..., None] * _POWERS_OF_MINUS_I[np.arange(n_terms) % 4, None]).reshape(
        n_panels, n_terms, -1)
    out = np.empty((ts.size, coeffs.shape[2]), dtype=complex)
    for chunk in chunks(ts.size, n_panels * n_terms):
        tc = at[chunk]
        # np.take keeps (k, p, t) in C order, as [:, width_of] would not: matmul
        # rounds by layout, and chi must not depend on how times are chunked.
        j = np.take(spherical_jn(n_terms - 1, np.multiply.outer(panels.halves, tc)),
                    panels.width_of, axis=1)
        sums = np.matmul(j.transpose(1, 2, 0), weights).view(complex)  # (p, t, d)
        phases = np.exp(np.multiply.outer(-1j * panels.centres, tc))
        out[chunk] = np.einsum("pt,ptd->td", phases, sums)
    np.conjugate(out, out=out, where=(ts < 0)[:, None])
    return out.reshape(ts.shape + panels.coeffs.shape[2:])
