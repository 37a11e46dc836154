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
sign change in its bracket, so one bisection, ``bisect``, solves them all
and converges unconditionally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .simplex import SUM_TOL, DomainError, _clamp, _finite, _norm, _pow, _power_sum, _xlogx, is_array, np, step_count

_HALVINGS = 64  # leaves a root within 2^-65 of its bracket's width
_H_SLACK = 1e-9  # entropies this far outside [0, ln n] are clipped, not rejected
_EXP_MAX = 709.0  # exp overflows float64 just above this


def _exp(x: float) -> float:
    return math.exp(x) if x < _EXP_MAX else math.inf


def _expm1(x: float) -> float:
    return math.expm1(x) if x < _EXP_MAX else math.inf


def _xp(x):
    """numpy for an array, math for a float: both name log, exp and floor alike."""
    return np if is_array(x) else math


def _where(cond, a, b):
    """np.where for an array condition, a plain choice for a single one."""
    return np.where(cond, a, b) if is_array(cond) else (a if cond else b)


def _clip(x, lo: float, hi: float):
    return np.clip(x, lo, hi) if is_array(x) else min(max(x, lo), hi)


def clamp_entropy(n: int, h, name: str = "h"):
    """h clipped into [0, ln n]: the range guard of every entropy argument."""
    _check_n(n, least=1)
    return _clamp(h, 0.0, math.log(n), _H_SLACK, name, f"[0, ln {n}]")


def bisect(f, lo, hi):
    """Where the monotone f crosses from negative to non-negative in [lo, hi].

    f may map an array to an array, which bisects each element in its own
    bracket. The bracket is halved a fixed number of times, so a float and
    an array call take the same steps.
    """
    for _ in range(_HALVINGS):
        mid = 0.5 * (lo + hi)
        below = f(mid) < 0.0
        if is_array(below):
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        elif below:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _check_n(n: int, least: int = 2) -> None:
    if n < least:
        raise DomainError(f"n={n} must be >= {least}")


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
    q = 1.0 - (n - 1) * p
    return -_xlogx(q) - (n - 1) * _xlogx(p)


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
    """alpha-norm of the peaked vector, ((n-1)p^alpha + (1-(n-1)p)^alpha)^(1/alpha)."""
    _check_n(n)
    p = _clamp(p, 0.0, 1.0 / n, math.inf, "p", f"[0, 1/{n}]")
    return _norm(n, alpha, (1.0 - (n - 1) * p, p), (1.0, n - 1))[0]


def norm_stepped(n: int, p, alpha: float):
    """alpha-norm of the stepped vector: floor(1/p) masses p and the remainder."""
    _check_n(n)
    p = _clamp(p, 1.0 / n, 1.0, math.inf, "p", f"[1/{n}, 1]")
    k = step_count(p)
    return _norm(n, alpha, (p, _clip(1.0 - k * p, 0.0, 1.0)), (k, 1.0))[0]


def norm_uniform(m, alpha: float):
    """alpha-norm of the uniform distribution on m symbols: m^(1/alpha - 1)."""
    m = _clamp(m, 1.0, math.inf, 0.0, "m", "[1, inf)")
    _, s = _power_sum(1, alpha, (1.0, 0.0), (m, 0.0))  # m ones: s = m at every order, and 1 needs no shift
    return _pow(s, 1.0 / alpha - 1.0, alpha)


def inv_entropy_peaked(n: int, h):
    """The p in [0, 1/n] with entropy_peaked(n, p) = h."""
    _check_n(n)
    h = clamp_entropy(n, h)
    p = bisect(lambda p: _entropy_peaked(n, p) - h, 0.0, 1.0 / n)
    # exact ends: bisection leaves p a few ulp inside, which inflates p^alpha
    # noticeably for small alpha. The curve is quadratically flat at its top,
    # so inversion there is ill-conditioned in h: snap when h matches the top
    # to float precision.
    top = abs(_entropy_peaked(n, 1.0 / n) - h) <= 4e-16 * math.log(n)
    return _where(h <= 0.0, 0.0, _where(top, 1.0 / n, p))


def inv_entropy_stepped(n: int, h):
    """The p in [1/n, 1] with entropy_stepped(n, p) = h."""
    _check_n(n)
    h = clamp_entropy(n, h)
    p = bisect(lambda p: h - _entropy_stepped(n, p), 1.0 / n, 1.0)
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
    return _norm_slope(n, p, alpha)[1]


def _norm_slope(n: int, p: float, alpha: float) -> tuple[float, float]:
    """(norm_peaked, dnorm_dh_peaked) at p from one power sum, its shift c taken out of every power."""
    _check_n(n)
    _check_order(alpha)
    if not (0.0 < p < 1.0 / n):
        raise DomainError(f"p={p!r} outside the open interval (0, 1/{n})")
    q = 1.0 - (n - 1) * p
    norm, c, s = _norm(n, alpha, (q, p), (1.0, n - 1))
    try:
        d = s ** (1.0 / alpha - 1.0) * ((p / c) ** (alpha - 1.0) - (q / c) ** (alpha - 1.0))
        d /= math.log(q) - math.log(p)
    except (OverflowError, ZeroDivisionError):
        d = math.inf
    return norm, _finite(d, alpha)


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
    z = (1.0 - (n - 1) * p) / p
    logz = math.log(z)
    if logz == 0.0:
        raise DomainError(f"p={p!r} sits at the pole p = 1/n of the curvature function")
    num = ((n - 1) + _exp(alpha * logz)) * _expm1((1.0 - alpha) * logz)
    den = ((n - 1) + z) * logz
    return (alpha - 1.0) + num / den


@dataclass(frozen=True)
class InflectionPoint:
    """Where the peaked curve switches concave -> convex (in entropy coordinates)."""

    n: int
    alpha: float
    h: float  # entropy coordinate, in (ln n - (1-2/n)ln(n-1), ln n)
    p: float  # parameter coordinate, in (1/(n(n-1)), 1/n)


@dataclass(frozen=True)
class TangentPoint:
    """Touch point of the tangent from the uniform endpoint onto the peaked curve."""

    n: int
    alpha: float
    p: float
    h: float
    norm: float


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
    lo = 1.0 / (n * (n - 1))
    f_lo = curvature_sign(n, lo, alpha)
    hi = f_hi = None
    # The curvature vanishes smoothly at p = 1/n itself, so probe just inside;
    # for very large alpha the zero crowds the endpoint and the probe moves in.
    delta = 1e-9
    while delta > 1e-16:
        cand = (1.0 / n) * (1.0 - delta)
        val = curvature_sign(n, cand, alpha)
        if val > 0.0:
            hi, f_hi = cand, val
            break
        delta *= 1e-2
    if hi is None or f_lo >= 0.0:
        raise DomainError(
            f"unsupported order alpha={alpha!r} for n={n}: no sign change of the curvature brackets "
            f"the inflection in double precision, g({lo})={f_lo}, g(~1/n)={f_hi}"
        )
    p = bisect(lambda p: curvature_sign(n, p, alpha), lo, hi)
    return InflectionPoint(n=n, alpha=alpha, h=entropy_peaked(n, p), p=p)


def tangent_residual(n: int, p: float, alpha: float) -> float:
    """Residual of the tangency condition at parameter p.

    Zero exactly when the tangent line of the peaked curve at p passes
    through the uniform endpoint (ln n, n^(1/alpha-1)).
    """
    return _residual(n, p, alpha, norm_uniform(n, alpha))


def _residual(n: int, p: float, alpha: float, u: float) -> float:
    """tangent_residual with the uniform endpoint's norm u given, which a solve computes once."""
    norm, slope = _norm_slope(n, p, alpha)
    return (math.log(n) - entropy_peaked(n, p)) * slope - (u - norm)


def solve_tangent_generic(n: int, alpha: float) -> float:
    """Find the tangency parameter by bisection, with no closed-form shortcuts.

    Brackets the unique root of tangent_residual between ~0 and the
    inflection parameter. Needs n >= 3.
    """
    hi = inflection_point(n, alpha).p  # checks n >= 3 and the order
    u = norm_uniform(n, alpha)
    f_hi = _residual(n, hi, alpha, u)
    lo = 1e-14
    f_lo = _residual(n, lo, alpha, u)
    while f_lo * f_hi > 0.0 and lo > 1e-30:
        lo *= 1e-4
        f_lo = _residual(n, lo, alpha, u)
    if f_lo * f_hi > 0.0:
        raise DomainError(
            f"unsupported order alpha={alpha!r} for n={n}: no sign change of the tangency residual brackets "
            f"the tangent point in double precision, F({lo})={f_lo}, F({hi})={f_hi}"
        )
    sign = 1.0 if f_hi > 0.0 else -1.0  # bisect wants the function negative below the root
    return bisect(lambda p: sign * _residual(n, p, alpha, u), lo, hi)


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
