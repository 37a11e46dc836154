"""Entropy and alpha-norm along the two extremal families, plus curve geometry.

The peaked family ``p -> (H, ||.||_alpha)`` traces one boundary of the
feasible (entropy, norm) region, the stepped family the other. This module
provides the closed-form entropies and norms, their inverses, the
derivative of the norm with respect to entropy along the peaked curve, the
curvature sign function whose unique zero locates the curve's inflection,
and the tangent point where the straight segment of the upper envelope
touches the peaked curve.

The entropy, norm and inverse of each family take a float or a numpy
array and return the same kind. Each is one formula: floats go through
``math`` and arrays elementwise through numpy.

Every equation solved here is either strictly monotone or has a single
sign change in its bracket, so one bracketed root finder, ``root``, solves
them all: false-position steps for a float; for an array, Newton steps
where the caller gives a derivative and fixed halvings where it does not.
Each keeps the bracket, so each converges unconditionally. A float solve
of the peaked curve evaluates a kernel prepared once per solve: the
constants of (n, alpha) worked out once, and the operations of the public
function in the same order, through ``math`` without the float/array
dispatch, so every step gives the same double.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from .simplex import _LOG_TINY, SUM_TOL, DomainError, _check_n, _clamp, _finite, _norm, _pow, _power_sum, _xlogx
from .simplex import is_array, np, step_count

# an array solve halves this often, or takes at most this many Newton steps; a float solve stops no wider, within
# 2^-65 of the bracket's width
_HALVINGS = 64
_PEAKED_NODES = 512  # the array inverse of the peaked entropy brackets and starts each h from this many curve points
_U_MAX = 745.0  # u = ln(q/p) where p = e^-745 rounds to the smallest subnormal double
_H_SLACK = 1e-9  # entropies this far outside [0, ln n] are clipped, not rejected
_EXP_MAX = 709.0  # exp overflows float64 just above this


def _xp(x):
    """numpy for an array, math for a float: both name log, exp and floor alike."""
    return np if is_array(x) else math


def _where(cond, a, b):
    """np.where for an array condition, a plain choice for a single one."""
    return np.where(cond, a, b) if is_array(cond) else (a if cond else b)


def _clip(x, lo: float, hi: float):
    return np.clip(x, lo, hi) if is_array(x) else min(max(x, lo), hi)


def clamp_entropy(n: int, h, name: str = "h"):
    """h clipped into [0, ln n]: the range guard of every entropy argument, and of n >= 2."""
    _check_n(n)
    return _clamp(h, 0.0, math.log(n), _H_SLACK, name, f"[0, ln {n}]")


def root(f, lo, hi, f_lo=None, f_hi=None, df=None, x0=None):
    """A root of f in [lo, hi], where f(lo) and f(hi) lie on opposite sides of zero.

    A float f may run either way: root reads the direction from f(lo), and f
    falls unless f(lo) < 0. An array f must rise. f_lo and f_hi are f at the
    ends, where the caller has them. For an array f each element's bracket is
    halved _HALVINGS times, unless the caller gives f's derivative df and a
    start x0. Then each element takes a Newton step where it stays inside the
    element's bracket, and a halving where it leaves it (the rtsafe pattern);
    a step under half an ulp moves to the neighbouring double instead, so
    that the bracket closes from both sides. The solve stops once every
    bracket is down to adjacent doubles, or two adjacent zeros of f, or after
    _HALVINGS steps. A float solve takes Illinois false-position steps
    (Dowell & Jarratt, 1971) inside the bracket, and a plain halving instead
    after two steps that have not halved it, or where only halvings from here
    would narrow it to the floor within 2 * _HALVINGS steps. It stops at
    adjacent doubles, at the floor, the width _HALVINGS halvings leave, or at
    an exact zero of f, which it returns. A NaN from f moves hi, as it does
    in a halving. The float solves of this package pass f as a kernel
    prepared once per solve (_tangency, _curvature, _peaked_entropy,
    _norm_slope): the same arithmetic as the public functions, so the same
    roots.
    """
    if df is not None:
        x, x_prev, f_prev = x0, x0, np.nan
        for _ in range(_HALVINGS):
            fx = f(x)
            below = fx < 0.0
            lo, hi = np.where(below, x, lo), np.where(below, hi, x)
            flat = np.flatnonzero((fx == 0.0) & (f_prev == 0.0))
            if flat.size:  # two zeros in a row: where they are adjacent doubles, a plateau of roots closes the bracket
                flat = flat[np.nextafter(x[flat], x_prev[flat]) == x_prev[flat]]
                lo[flat] = x[flat]
            mid = 0.5 * (lo + hi)
            if ((mid == lo) | (mid == hi)).all():  # every bracket down to adjacent doubles
                break
            with np.errstate(divide="ignore", invalid="ignore"):  # a zero df gives a NaN step: a halving
                step = x - fx / df(x)
            stuck = np.flatnonzero(step == x)  # a step under half an ulp: the neighbour across the root instead
            if stuck.size:
                step[stuck] = np.nextafter(x[stuck], np.where(below[stuck], hi[stuck], lo[stuck]))
            x_prev, f_prev = x, fx
            x = np.where((lo < step) & (step < hi), step, mid)
        return 0.5 * (lo + hi)
    f_lo = f(lo) if f_lo is None else f_lo
    if is_array(f_lo):
        for _ in range(_HALVINGS):
            mid = 0.5 * (lo + hi)
            below = f(mid) < 0.0
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        return 0.5 * (lo + hi)
    f_hi = f(hi) if f_hi is None else f_hi
    if f_lo == 0.0 or f_hi == 0.0:
        return lo if f_lo == 0.0 else hi
    rising = f_lo < 0.0  # read once: an Illinois halving can round a tiny f_lo to zero
    floor, budget = (hi - lo) * 2.0**-_HALVINGS, (hi - lo) * 2.0**_HALVINGS
    ref, kept, tries = hi - lo, 0, 0  # width to halve, end the last false-position step moved, steps since ref
    ulp = math.ulp
    while True:
        width, mid = hi - lo, 0.5 * (lo + hi)
        if width <= floor or width <= ulp(mid):
            return mid
        budget *= 0.5  # a bracket wider than this needs every step left to be a halving
        secant = tries < 2 and width <= budget
        x = lo + width * (f_lo / (f_lo - f_hi)) if secant else mid
        x = x if lo < x < hi else mid  # a NaN or inf f makes the step a halving
        g = f(x)
        if g == 0.0:
            return x
        below = g < 0.0 if rising else g > 0.0  # x is on lo's side of the root; a NaN is on hi's
        if below:
            lo, f_lo = x, g
            f_hi *= 0.5 if secant and kept < 0 else 1.0  # Illinois: halve the end that two steps kept
        else:
            hi, f_hi = x, g
            f_lo *= 0.5 if secant and kept > 0 else 1.0
        kept = (-1 if below else 1) if secant else kept
        tries = tries + 1 if hi - lo > 0.5 * ref else 0
        ref = ref if tries else hi - lo


# Probes by repeated multiplication, whose bits set the root: 1e-14 * 1e-4 * 1e-4 is 1.0000000000000002e-22
_INFLECTION_GAPS = tuple(math.prod((1e-9,) + (1e-2,) * k) for k in range(4))  # 1e-9 ... 1e-15 below 1/n, relative
_TANGENT_PROBES = tuple(math.prod((1e-14,) + (1e-4,) * k) for k in range(6))  # 1e-14 ... 1e-34


def _bracketed_root(f, fixed: float, probes, n: int, alpha: float, what: str) -> float:
    """The root of f, solved by root between fixed and the first probe where f has the other sign.

    f is the solve's prepared kernel, rising or falling. DomainError naming
    the order and f's values when no probe has the other sign: doubles
    cannot bracket the root.
    """
    f_fixed = f(fixed)
    for probe in probes:
        f_probe = f(probe)
        if (f_probe < 0.0) != (f_fixed < 0.0):  # the signs themselves: a product of the two can underflow
            lo, hi, f_lo, f_hi = (probe, fixed, f_probe, f_fixed) if probe < fixed else (fixed, probe, f_fixed, f_probe)
            return root(f, lo, hi, f_lo, f_hi)
    raise DomainError(
        f"unsupported order alpha={alpha!r} for n={n}: no sign change of {what} brackets the root in double "
        f"precision, f({fixed!r})={f_fixed!r}, f({probe!r})={f_probe!r}"
    )


def _order_ok(alpha: float, n: int | None, finite: bool) -> bool:
    """The one order-domain decision of the envelopes.

    alpha > 0 and != 1 (every norm is 1 at order 1), finite if asked; given
    n, the upper envelope's domain, which also needs alpha >= 1/2 unless n = 2.
    """
    return alpha > 0.0 and alpha != 1.0 and (alpha < math.inf or not finite) and (n in (None, 2) or alpha >= 0.5)


def _check_order(alpha: float, n: int | None = None, finite: bool = True) -> None:
    """DomainError naming the order where _order_ok refuses it."""
    if not _order_ok(alpha, n, finite):
        need = ("a finite" if finite else "a") + " positive alpha != 1" + (", and alpha >= 1/2 for n >= 3" if n else "")
        where = f" for n={n}: the upper envelope needs" if n else ": the envelopes need"
        raise DomainError(f"unsupported order alpha={alpha!r}{where} {need}")


def has_upper_envelope(n: int, alpha: float) -> bool:
    """Whether the tight upper envelope is available for this (n, alpha)."""
    return _order_ok(alpha, n, True)


def _entropy_peaked(n: int, p):
    x = (n - 1) * p
    # -q ln q as -q log1p(-x): q = 1 - x rounds to 1 where x is below about 1e-16, and ln q with it to 0
    return -(1.0 - x) * _xp(x).log1p(-x) - (n - 1) * _xlogx(p)


def _peaked_entropy(n: int, h: float = 0.0):
    """p -> _entropy_peaked(n, p) - h for a float p in [0, 1/n]: the same operations, through math directly."""
    nm1, log, log1p = float(n - 1), math.log, math.log1p

    def entropy(p):
        x = nm1 * p
        return -(1.0 - x) * log1p(-x) - nm1 * (p * log(p) if p > 0.0 else 0.0) - h

    return entropy


def _entropy_stepped(n: int, p):
    k = step_count(p)
    return -k * _xlogx(p) - _xlogx(1.0 - k * p)


def entropy_peaked(n: int, p):
    """Entropy of the peaked vector, -(1-(n-1)p)ln(1-(n-1)p) - (n-1)p ln p.

    Evaluated directly rather than through a constructed vector so that
    tail masses as small as ~1e-300 stay accurate. Strictly increasing
    from 0 at p=0 to ln n at p=1/n.
    """
    _check_n(n)
    return _entropy_peaked(n, _clamp(p, 0.0, 1.0 / n, SUM_TOL, "p", f"[0, 1/{n}]"))


def entropy_stepped(n: int, p):
    """Entropy of the stepped vector; strictly decreasing, ln m at p = 1/m."""
    _check_n(n)
    return _entropy_stepped(n, _clamp(p, 1.0 / n, 1.0, SUM_TOL, "p", f"[1/{n}, 1]"))


def norm_peaked(n: int, p, alpha: float):
    """alpha-norm of the peaked vector, ((n-1)p^alpha + (1-(n-1)p)^alpha)^(1/alpha); norm_uniform's at p = 1/n."""
    _check_n(n)
    p = _clamp(p, 0.0, 1.0 / n, SUM_TOL, "p", f"[0, 1/{n}]")
    return _where(p == 1.0 / n, norm_uniform(n, alpha), _norm(n, alpha, (1.0 - (n - 1) * p, p), (1.0, n - 1))[0])


def norm_stepped(n: int, p, alpha: float):
    """alpha-norm of the stepped vector: floor(1/p) masses p and the remainder; norm_uniform's at a corner p = 1/m."""
    _check_n(n)
    p = _clamp(p, 1.0 / n, 1.0, SUM_TOL, "p", f"[1/{n}, 1]")
    k = step_count(p)
    return _where(p == 1.0 / k, norm_uniform(k, alpha), _norm(n, alpha, (p, _clip(1.0 - k * p, 0.0, 1.0)), (k, 1.0))[0])


def norm_uniform(m, alpha: float):
    """alpha-norm of the uniform distribution on m symbols: m^(1/alpha - 1)."""
    m = _clamp(m, 1.0, math.inf, 0.0, "m", "[1, inf)")
    _, s = _power_sum(1, alpha, (1.0, 0.0), (m, 0.0))  # m ones: s = m at every order, and 1 needs no shift
    return _pow(s, 1.0 / alpha - 1.0, alpha)


def inv_entropy_peaked(n: int, h):
    """The p in [0, 1/n] with entropy_peaked(n, p) = h.

    A float takes root's false-position steps. An array takes root's Newton
    steps, dH/dp = (n-1) ln(q/p), from a table of _PEAKED_NODES curve points
    uniform in u = ln(q/p), from p = 1/n down to the smallest subnormal
    double: the nodes on either side of each h bracket it, and interpolating
    ln p between them gives its start.
    """
    h = clamp_entropy(n, h)
    # exact ends: the solve leaves p a few ulp inside, which inflates p^alpha
    # noticeably for small alpha. The curve is quadratically flat at its top,
    # so inversion there is ill-conditioned in h: snap when h matches the top
    # to float precision.
    top = abs(_entropy_peaked(n, 1.0 / n) - h) <= 4e-16 * math.log(n)
    if is_array(h):
        p = _inv_peaked_newton(n, np.where(top, 0.0, h))  # as at h = 0, one node brackets a snapped h: no steps
    else:
        p = root(_peaked_entropy(n, h), 0.0, 1.0 / n)
    return _where(h <= 0.0, 0.0, _where(top, 1.0 / n, p))


def _inv_peaked_newton(n: int, h):
    """inv_entropy_peaked for an array h in [0, ln n], before its exact ends."""
    t_nodes = -np.logaddexp(np.linspace(_U_MAX, 0.0, _PEAKED_NODES), math.log(n - 1))  # ln p, p = 1/(e^u + n - 1)
    p_nodes = np.exp(t_nodes)
    h_nodes = _entropy_peaked(n, p_nodes)  # rising
    k = np.searchsorted(h_nodes, h)  # h_nodes[k - 1] < h <= h_nodes[k]; beyond the table, one node brackets h
    lo, hi = p_nodes[np.maximum(k - 1, 0)], p_nodes[np.minimum(k, _PEAKED_NODES - 1)]

    def slope(p):
        return (n - 1) * (np.log1p(-(n - 1) * p) - np.log(p))

    return root(lambda p: _entropy_peaked(n, p) - h, lo, hi, df=slope, x0=np.exp(np.interp(h, h_nodes, t_nodes)))


def inv_entropy_stepped(n: int, h):
    """The p in [1/n, 1] with entropy_stepped(n, p) = h."""
    h = clamp_entropy(n, h)
    p = root(lambda p: h - _entropy_stepped(n, p), 1.0 / n, 1.0)
    # segment corners p = 1/m (1 at h = 0, 1/n at h = ln n) are quadratically
    # flat from the upper-p side; snap when h matches a corner value to float
    # precision
    xp = _xp(h)
    m = xp.floor(xp.exp(h) + 0.5)
    corner = abs(_entropy_stepped(n, 1.0 / m) - h) <= 4e-16 * _where(h > 1.0, h, 1.0)
    return _where(corner, 1.0 / m, p)


def dnorm_dh_peaked(n: int, p: float, alpha: float) -> float:
    """Derivative of the peaked-curve norm with respect to its entropy.

    ((n-1)p^a + q^a)^(1/a-1) * (p^(a-1) - q^(a-1)) / (ln q - ln p), q = 1-(n-1)p.
    Only defined strictly inside the curve: the limits at the endpoints are
    0 or +inf depending on alpha and are the caller's business.
    """
    _check_inside(n, p, alpha)
    return _norm_slope(n, alpha)(p)[1]


def _check_inside(n: int, p: float, alpha: float) -> None:
    """The domain of _norm_slope: n >= 2, a supported finite order and p strictly inside (0, 1/n)."""
    _check_n(n)
    _check_order(alpha)
    if not (0.0 < p < 1.0 / n):
        raise DomainError(f"p={p!r} outside the open interval (0, 1/{n})")


def _norm_slope(n: int, alpha: float):
    """p -> (norm_peaked, dnorm_dh_peaked) at a float p in (0, 1/n), unchecked; (n, alpha)'s constants worked out once.

    One power sum gives both, its shift c taken out of every power, by the
    operations of _norm over (q, p) in the same order: the same doubles.
    slope=False computes the norm alone, also at p = 0, and gives 0.0 for the slope.
    DomainError naming the order where either is not a finite double.
    """
    nm1 = float(n - 1)
    shift = alpha > 1.0 and alpha * math.log(n) > _LOG_TINY  # _power_sum's
    inv, e, am1 = 1.0 / alpha, 1.0 / alpha - 1.0, alpha - 1.0
    log, inf = math.log, math.inf

    def norm_slope(p, slope=True):
        q = 1.0 - nm1 * p
        c = max(q, p) if shift else 1.0
        s = (q / c) ** alpha + nm1 * (p / c) ** alpha
        d = 0.0
        try:
            norm = c * s**inv
            if slope:
                d = s**e * ((p / c) ** am1 - (q / c) ** am1) / (log(q) - log(p))
        except (OverflowError, ZeroDivisionError):
            norm = d = inf
        if norm < inf and -inf < d < inf:
            return norm, d
        return _finite(norm, alpha), _finite(d, alpha)  # one of them is not: the order's DomainError

    return norm_slope


def curvature_sign(n: int, p: float, alpha: float) -> float:
    """Sign surrogate for the second derivative of norm vs entropy (peaked curve).

    Evaluated in the ratio variable z = (1-(n-1)p)/p as
    (alpha-1) + ((n-1)+z^alpha)(z^(1-alpha)-1) / (((n-1)+z) ln z),
    which is stable near p = 1/n (via expm1) and immune to the p^(1-alpha)
    overflow the direct parametrization suffers at small p.
    """
    _check_n(n)
    if not (0.0 < p < 1.0 / (n - 1)):
        raise DomainError(f"p={p!r} outside (0, 1/{n - 1})")
    return _curvature(n, alpha)(p)


def _curvature(n: int, alpha: float):
    """p -> curvature_sign(n, p, alpha) for a float p in (0, 1/(n-1)), unchecked, the constants worked out once."""
    nm1, am1, oma = float(n - 1), alpha - 1.0, 1.0 - alpha
    log, exp, expm1, inf = math.log, math.exp, math.expm1, math.inf

    def curvature(p):
        z = (1.0 - nm1 * p) / p
        logz = log(z)
        if logz == 0.0:
            raise DomainError(f"p={p!r} sits at the pole p = 1/n of the curvature function")
        a, b = alpha * logz, oma * logz
        num = (nm1 + (exp(a) if a < _EXP_MAX else inf)) * (expm1(b) if b < _EXP_MAX else inf)
        return am1 + num / ((nm1 + z) * logz)

    return curvature


InflectionPoint = namedtuple("InflectionPoint", "n alpha h p")
InflectionPoint.__doc__ = """Where the peaked curve switches concave -> convex (in entropy coordinates).

h is the entropy coordinate, in (ln n - (1-2/n)ln(n-1), ln n); p the
parameter coordinate, in (1/(n(n-1)), 1/n).
"""

TangentPoint = namedtuple("TangentPoint", "n alpha p h norm")
TangentPoint.__doc__ = """Touch point of the tangent from the uniform endpoint onto the peaked curve."""


def inflection_point(n: int, alpha: float) -> InflectionPoint:
    """Locate the unique zero of curvature_sign on (1/(n(n-1)), 1/n), memoized per (n, alpha).

    Needs n >= 3 (the binary curve is concave throughout) and
    alpha in [1/2, 1) or (1, inf).
    """
    _check_n(n, least=3)
    _check_order(alpha, n)
    return _inflection_cached(int(n), float(alpha))


@lru_cache(maxsize=None)
def _inflection_cached(n: int, alpha: float) -> InflectionPoint:
    # The curvature vanishes smoothly at p = 1/n itself, so probe just inside;
    # for very large alpha the zero crowds the endpoint and the probes move in.
    probes = ((1.0 / n) * (1.0 - delta) for delta in _INFLECTION_GAPS)
    lo = 1.0 / (n * (n - 1))
    p = _bracketed_root(_curvature(n, alpha), lo, probes, n, alpha, "the curvature")
    return InflectionPoint(n=n, alpha=alpha, h=entropy_peaked(n, p), p=p)


def tangent_residual(n: int, p: float, alpha: float) -> float:
    """Residual of the tangency condition at parameter p.

    Zero exactly when the tangent line of the peaked curve at p passes
    through the uniform endpoint (ln n, n^(1/alpha-1)).
    """
    _check_inside(n, p, alpha)
    return _tangency(n, alpha)(p)


def _tangency(n: int, alpha: float):
    """p -> tangent_residual(n, p, alpha), unchecked, as every step of a solve stays inside _check_inside's domain."""
    lnn, u, entropy, norm_slope = math.log(n), norm_uniform(n, alpha), _peaked_entropy(n), _norm_slope(n, alpha)

    def residual(p):
        norm, slope = norm_slope(p)
        return (lnn - entropy(p)) * slope - (u - norm)

    return residual


def solve_tangent_generic(n: int, alpha: float) -> float:
    """Find the tangency parameter by a bracketed root solve, with no closed-form shortcuts.

    Brackets the unique root of tangent_residual between ~0 and the
    inflection parameter. Every step evaluates the residual's kernel, which
    _tangency prepares once per solve: the same doubles as tangent_residual.
    Needs n >= 3.
    """
    hi = inflection_point(n, alpha).p  # checks n >= 3 and the order
    return _bracketed_root(_tangency(n, alpha), hi, _TANGENT_PROBES, n, alpha, "the tangency residual")


@lru_cache(maxsize=None)
def _tangent_cached(n: int, alpha: float) -> TangentPoint:
    if n == 2:
        p = 0.5
    elif alpha == 0.5:
        p = 1.0 / (n * (n - 1))  # exact tangency parameter at order 1/2
    else:
        p = solve_tangent_generic(n, alpha)
    return TangentPoint(n=n, alpha=alpha, p=p, h=entropy_peaked(n, p), norm=norm_peaked(n, p, alpha))


def tangent_point(n: int, alpha: float) -> TangentPoint:
    """Tangency point of the upper envelope, memoized per (n, alpha).

    For n=2 the curve is concave throughout and the tangency degenerates
    to p = 1/2 (the uniform endpoint itself), for any order.
    """
    _check_n(n)
    _check_order(alpha, n)
    return _tangent_cached(int(n), float(alpha))
