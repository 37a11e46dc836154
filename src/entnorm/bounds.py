"""Tight envelopes of the expected alpha-norm at fixed conditional entropy.

The feasible set of (conditional Shannon entropy, expected alpha-norm)
pairs is the convex hull of the unconditional region. Its lower boundary
``envelope_lower`` is piecewise linear through the uniform-distribution
points (ln m, ||u_m||); its upper boundary ``envelope_upper`` follows the
peaked curve up to a tangency entropy and then the straight tangent
segment into the uniform endpoint. Both take the entropy as a float or a
numpy array and return the same kind. ``envelope_upper_half`` is the
closed form available at order 1/2.

The upper envelope exists for every order in (0,1)+(1,inf) when n = 2,
but only for orders in [1/2,1)+(1,inf) when n >= 3; queries outside that
range raise DomainError rather than extrapolate.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import curves
from .curves import has_upper_envelope, norm_uniform  # part of this module's API
from .simplex import DomainError, _check_n, is_array, np, shannon_entropy


def _lower_chord(n: int, h):
    """The piece of the lower envelope holding h in [0, ln n]: (m, lam).

    h = lam ln m + (1 - lam) ln(m+1), so the envelope there is
    lam ||u_m|| + (1 - lam) ||u_(m+1)||. At the top, m = n and lam = 1.
    """
    xp = curves._xp(h)
    # e^h at h = ln m can round to 5 ulps below m: a relative 2^-49 lifts it onto the segment that starts
    # at m, and an h further below ln m than rounding reaches stays on the segment that ends at m.
    m = xp.floor(xp.exp(h) * (1.0 + 2.0**-49))
    top = m >= n
    m = curves._where(top, n - 1, m)
    lam = curves._clip((xp.log(m + 1) - h) / (xp.log(m + 1) - xp.log(m)), 0.0, 1.0)
    return curves._where(top, n, m), curves._where(top, 1.0, lam)


def _envelope_lower_vec(n: int, alpha: float, h):
    """envelope_lower at h already in [0, ln n], for a float or an array."""
    curves._check_order(alpha, finite=False)
    m, lam = _lower_chord(n, h)
    # where lam = 1 the far end has weight 0: take it at m, whose norm is finite if the value is
    far = curves._where(lam < 1.0, m + 1, m)
    return lam * norm_uniform(m, alpha) + (1.0 - lam) * norm_uniform(far, alpha)


def _envelope_upper_vec(n: int, alpha: float, h):
    """envelope_upper at h already in [0, ln n], for a float or an array."""
    ts = curves.tangent_point(n, alpha)  # validates n and the order range
    lnn = math.log(n)

    def curve(x):
        return curves.norm_peaked(n, curves.inv_entropy_peaked(n, x), alpha)

    def segment(x):
        lam = (lnn - x) / (lnn - ts.h)
        return lam * ts.norm + (1.0 - lam) * norm_uniform(n, alpha)

    if not is_array(h):
        return curve(h) if h <= ts.h else segment(h)
    # each piece only on its own entries: the curve costs a root solve per entry
    out = np.empty_like(h)
    on_curve = h <= ts.h
    if on_curve.any():
        out[on_curve] = curve(h[on_curve])
    if not on_curve.all():
        out[~on_curve] = segment(h[~on_curve])
    return out


def envelope_lower(n: int, alpha: float, h):
    """Smallest expected alpha-norm at conditional entropy h (alphabet size n).

    Piecewise linear: with m = floor(e^h), interpolates ||u_m|| and
    ||u_(m+1)|| at weight lam = (ln(m+1) - h)/(ln(m+1) - ln m). Convex in h;
    increasing for alpha < 1, decreasing for alpha > 1.
    """
    return _envelope_lower_vec(n, alpha, curves.clamp_entropy(n, h))


def envelope_upper(n: int, alpha: float, h):
    """Largest expected alpha-norm at conditional entropy h (alphabet size n).

    Follows the peaked curve for h up to the tangency entropy and the
    tangent segment into (ln n, ||u_n||) beyond it. Concave in h;
    increasing for alpha < 1, decreasing for alpha > 1.
    """
    return _envelope_upper_vec(n, alpha, curves.clamp_entropy(n, h))


def envelope_upper_half(n: int, h: float) -> float:
    """Closed form of envelope_upper at order 1/2, for a float h.

    The tangency sits at entropy ln n - (1 - 2/n) ln(n-1); past it the
    value is n - (n-2)(ln n - h)/ln(n-1).
    """
    h = curves.clamp_entropy(n, h)
    h_star = math.log(n) - (1.0 - 2.0 / n) * math.log(n - 1)
    if h <= h_star:
        p = curves.inv_entropy_peaked(n, h)
        q = 1.0 - (n - 1) * p
        return (math.sqrt(q) + (n - 1) * math.sqrt(p)) ** 2
    return n - (n - 2) * (math.log(n) - h) / math.log(n - 1)


class BoundEnvelope(namedtuple("BoundEnvelope", "lower upper")):
    """Lower and (when available, else None) upper bound on the expected alpha-norm."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace validates too

    def __new__(cls, lower: float, upper: float | None):
        if upper is not None and lower > upper + 1e-12 * max(1.0, upper):
            raise DomainError(f"envelope inverted: lower={lower} > upper={upper}")
        return super().__new__(cls, lower, upper)


def envelope(n: int, alpha: float, h: float) -> BoundEnvelope:
    """Both envelope values at h; upper is None outside its proven range."""
    lo = envelope_lower(n, alpha, h)
    up = envelope_upper(n, alpha, h) if has_upper_envelope(n, alpha) else None
    return BoundEnvelope(lower=lo, upper=up)


def sandwich_norm(p, alpha: float):
    """Unconditional sandwich: norms of the stepped/peaked vectors at H(p).

    p is an array-like of points (last axis). Returns (lower, upper) with
    lower <= ||p||_alpha <= upper for any order alpha > 0 (including inf):
    floats for one point, arrays for an array of points.
    """
    p = np.asarray(p, dtype=float)
    n = p.shape[-1]
    if n < 2:  # every point is the one-symbol (1,): [()] makes the norms of a single point floats
        return (np.ones(p.shape[:-1])[()], np.ones(p.shape[:-1])[()])
    return _sandwich_at(n, alpha, shannon_entropy(p))


def _sandwich_at(n: int, alpha: float, h):
    """sandwich_norm's (lower, upper) for points on n >= 2 symbols of entropy h, which is clipped to [0, ln n]."""
    h = np.clip(h, 0.0, math.log(n))
    lo = curves.norm_stepped(n, curves.inv_entropy_stepped(n, h), alpha)
    hi = curves.norm_peaked(n, curves.inv_entropy_peaked(n, h), alpha)
    return (lo, hi)


def _check_norm(n: int, alpha: float, norm: float) -> float:
    u = norm_uniform(n, alpha)
    lo, hi = min(1.0, u), max(1.0, u)
    if not (lo - 1e-9 <= norm <= hi + 1e-9 * hi):
        raise DomainError(f"norm={norm!r} outside attainable range [{lo}, {hi}]")
    return min(max(norm, lo), hi)


def _peaked_p_at_norm(n: int, alpha: float, norm: float, p_hi: float) -> float:
    """The p in [0, p_hi] where the peaked curve has the given alpha-norm.

    The end p_hi, which may be 1/n, goes through norm_peaked; every other
    point through the norm kernel curves prepares once per solve.
    """
    norm_slope = curves._norm_slope(n, alpha)
    f_hi = curves.norm_peaked(n, p_hi, alpha) - norm
    return curves.root(lambda p: norm_slope(p, False)[0] - norm, 0.0, p_hi, None, f_hi)


def entropy_range_for_norm(n: int, alpha: float, norm: float) -> tuple[float, float]:
    """Entropies attainable by single distributions with the given alpha-norm.

    Inverts the two boundary curves at the norm value; the peaked curve
    gives one end and the stepped curve the other, with the orientation
    set by whether alpha is below or above 1.
    """
    _check_n(n)
    curves._check_order(alpha)
    norm = _check_norm(n, alpha, norm)
    h_peaked = curves.entropy_peaked(n, _peaked_p_at_norm(n, alpha, norm, 1.0 / n))
    pp = curves.root(lambda p: curves.norm_stepped(n, p, alpha) - norm, 1.0 / n, 1.0)
    h_stepped = curves.entropy_stepped(n, pp)
    return (h_peaked, h_stepped) if alpha < 1.0 else (h_stepped, h_peaked)


def cond_entropy_range_for_norm(n: int, alpha: float, norm: float) -> tuple[float, float]:
    """Conditional entropies compatible with a given expected alpha-norm.

    Inverts the strictly monotone envelopes: in closed form on their
    straight pieces, by curves.root in p on the peaked curve. Requires
    the upper envelope to exist for (n, alpha).
    """
    ts = curves.tangent_point(n, alpha)  # validates n and the order range
    norm = _check_norm(n, alpha, norm)
    lnn = math.log(n)
    u = norm_uniform(n, alpha)
    rising = 1.0 if alpha < 1.0 else -1.0  # both envelopes rise with h below order 1
    if rising * (norm - ts.norm) <= 0.0:
        h_up = curves.entropy_peaked(n, _peaked_p_at_norm(n, alpha, norm, ts.p))
    else:
        h_up = lnn - (lnn - ts.h) * (norm - u) / (ts.norm - u)
    # the chord from (ln m, ||u_m||) to (ln(m+1), ||u_(m+1)||) holding the norm,
    # ||u_m|| = m^e being monotone in m
    e = 1.0 / alpha - 1.0
    m = min(max(math.floor(norm ** (1.0 / e)), 1), n - 1)
    u_m, u_next = norm_uniform(m, alpha), norm_uniform(m + 1, alpha)
    t = min(max((norm - u_m) / (u_next - u_m), 0.0), 1.0) if u_next != u_m else 0.0  # flat in doubles near order 1
    h_lo = math.log(m) + t * (math.log(m + 1) - math.log(m))
    return (h_up, h_lo) if alpha < 1.0 else (h_lo, h_up)
