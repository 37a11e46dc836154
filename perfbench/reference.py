"""High-precision reference values for checking entnorm outputs.

Everything here is computed with mpmath from the definitions of the two
extremal families, independently of the code paths the benchmark times.
The tangent point is found as the minimiser of the chord slope from the
uniform endpoint (the supporting-line characterisation of the upper hull),
not by solving the program's tangency residual, and hull-oracle queries
are checked against an explicit monotone-chain hull of the curve samples.
"""

from __future__ import annotations

import bisect
import math
from functools import lru_cache

import mpmath as mp
import numpy as np

mp.mp.dps = 30

TOL = 1e-9


def close(x: float, ref, tol: float = TOL) -> bool:
    """|x - ref| within tol, relative to max(1, |ref|)."""
    return abs(x - float(ref)) <= tol * max(1.0, abs(float(ref)))


def _xlogx(x):
    return x * mp.log(x) if x > 0 else mp.mpf(0)


def h_peaked(n: int, p):
    p = mp.mpf(p)
    return -_xlogx(1 - (n - 1) * p) - (n - 1) * _xlogx(p)


def norm_peaked(n: int, p, a):
    p, a = mp.mpf(p), mp.mpf(a)
    q = 1 - (n - 1) * p
    s = q**a + ((n - 1) * p**a if p > 0 else 0)
    return s ** (1 / a)


def norm_uniform(m: int, a):
    return mp.mpf(m) ** (1 / mp.mpf(a) - 1)


def inv_h_peaked(n: int, h):
    """p in [0, 1/n] with h_peaked(n, p) = h."""
    h = mp.mpf(h)
    top = mp.mpf(1) / n
    if h <= 0:
        return mp.mpf(0)
    if h >= mp.log(n):
        return top
    return mp.findroot(lambda p: h_peaked(n, p) - h, (mp.mpf(10) ** -300, top), solver="illinois")


def inv_h_stepped(n: int, h):
    """(k, p): p in [1/n, 1] with k = floor(1/p) masses p and entropy h."""
    h = mp.mpf(h)
    if h <= 0:
        return 1, mp.mpf(1)
    if h >= mp.log(n):
        return n, mp.mpf(1) / n
    m = int(mp.floor(mp.exp(h)))
    if m >= n:
        return n, mp.mpf(1) / n

    def f(p):
        r = 1 - m * p
        return -m * _xlogx(p) - _xlogx(r) - h

    lo, hi = mp.mpf(1) / (m + 1), mp.mpf(1) / m
    if f(hi) >= 0:  # h sits on the corner ln m
        return m, hi
    return m, mp.findroot(f, (lo, hi), solver="illinois")


def norm_stepped_at(n: int, h, a):
    k, p = inv_h_stepped(n, h)
    a = mp.mpf(a)
    r = 1 - k * p
    s = k * p**a + (r**a if r > 0 else 0)
    return s ** (1 / a)


def norm_peaked_at(n: int, h, a):
    return norm_peaked(n, inv_h_peaked(n, h), a)


def lower(n: int, a, h):
    """Lower envelope: chords through the uniform points (ln m, ||u_m||)."""
    h = min(max(mp.mpf(h), 0), mp.log(n))
    m = int(mp.floor(mp.exp(h)))
    if m >= n:
        return norm_uniform(n, a)
    if mp.log(m + 1) <= h:  # exp rounded just below an integer
        m += 1
    lam = (mp.log(m + 1) - h) / (mp.log(m + 1) - mp.log(m))
    return lam * norm_uniform(m, a) + (1 - lam) * norm_uniform(m + 1, a)


def chord_slope(n: int, a, p):
    """Slope of the chord from the peaked-curve point at p to the uniform endpoint."""
    return (norm_uniform(n, a) - norm_peaked(n, p, a)) / (mp.log(n) - h_peaked(n, p))


@lru_cache(maxsize=4096)
def tangent(n: int, a: float):
    """(p*, h*, norm*, slope*) of the upper envelope's straight part.

    The line through the uniform endpoint that supports the peaked curve
    from above has the smallest chord slope; p* is where it touches. Found
    by a scan of the chord slope on a log grid followed by golden-section
    search, both in mpmath (near order 1 the slope is a ratio of two tiny
    differences that float64 cannot resolve). For n = 2 the curve is
    concave and p* = 1/2.
    """
    if n == 2:
        p = mp.mpf(1) / 2
        return p, mp.log(2), norm_peaked(2, p, a), None
    x = [mp.mpf(10) ** e for e in np.linspace(-30, -0.31, 75)]
    x += [1 - mp.mpf(10) ** e for e in np.linspace(-0.31, -8, 25)]
    g = [chord_slope(n, a, t / n) for t in x]
    i = min(range(len(g)), key=g.__getitem__)
    lo = x[max(i - 1, 0)] / n
    hi = x[min(i + 1, len(x) - 1)] / n
    gr = (mp.sqrt(5) - 1) / 2
    c, d = hi - gr * (hi - lo), lo + gr * (hi - lo)
    fc, fd = chord_slope(n, a, c), chord_slope(n, a, d)
    for _ in range(200):
        if hi - lo <= mp.mpf(10) ** -20 * hi:
            break
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - gr * (hi - lo)
            fc = chord_slope(n, a, c)
        else:
            lo, c, fc = c, d, fd
            d = lo + gr * (hi - lo)
            fd = chord_slope(n, a, d)
    p = (lo + hi) / 2
    return p, h_peaked(n, p), norm_peaked(n, p, a), chord_slope(n, a, p)


def upper(n: int, a: float, h):
    """Upper envelope: peaked curve up to h*, then the supporting line."""
    h = min(max(mp.mpf(h), 0), mp.log(n))
    _, h_star, _, slope = tangent(n, a)
    if slope is None or h <= h_star:
        return norm_peaked_at(n, h, a)
    return norm_uniform(n, a) - slope * (mp.log(n) - h)


def curvature(n: int, a, p):
    """Sign-carrying second derivative of norm against entropy on the peaked curve."""
    hp = mp.diff(lambda t: h_peaked(n, t), p)
    hpp = mp.diff(lambda t: h_peaked(n, t), p, 2)
    np_ = mp.diff(lambda t: norm_peaked(n, t, a), p)
    npp = mp.diff(lambda t: norm_peaked(n, t, a), p, 2)
    return (npp * hp - np_ * hpp) / hp**3


def renyi_map(a, x):
    a = mp.mpf(a)
    return a / (1 - a) * mp.log(x)


def mutual_range(n: int, a: float, i):
    """(lo, hi) of order-a mutual information at Shannon mutual information i."""
    lnn = mp.log(n)
    h = min(max(lnn - mp.mpf(i), 0), lnn)
    r = sorted([renyi_map(a, lower(n, a, h)), renyi_map(a, upper(n, a, h))])
    return lnn - r[1], lnn - r[0]


def e0_range(n: int, rho: float, i):
    m_lo, m_hi = mutual_range(n, 1.0 / (1.0 + rho), i)
    rho = mp.mpf(rho)
    return (rho * m_lo, rho * m_hi) if rho > 0 else (rho * m_hi, rho * m_lo)


def joint_measures(py, rows, a):
    """(H(X|Y), E||row||_a) of a joint given as marginal and conditional rows."""
    a = mp.mpf(a)
    h = mp.fsum(mp.mpf(w) * -mp.fsum(_xlogx(mp.mpf(v)) for v in row) for w, row in zip(py, rows))
    nrm = mp.fsum(
        mp.mpf(w) * mp.fsum(mp.mpf(v) ** a for v in row if v > 0) ** (1 / a) for w, row in zip(py, rows)
    )
    return h, nrm


def channel_posterior(transitions):
    """Uniform-input posterior (py, rows) of a channel, dropping empty outputs."""
    n = len(transitions)
    py, rows = [], []
    for y in range(len(transitions[0])):
        col = [mp.mpf(t[y]) for t in transitions]
        w = mp.fsum(col) / n
        if w > 0:
            py.append(w)
            rows.append([c / (n * w) for c in col])
    return py, rows


def gallager_e0(transitions, rho: float):
    n = len(transitions)
    beta = 1 / (1 + mp.mpf(rho))
    acc = mp.mpf(0)
    for y in range(len(transitions[0])):
        inner = mp.fsum(mp.mpf(t[y]) ** beta for t in transitions if t[y] > 0) / n
        acc += inner ** (1 + mp.mpf(rho))
    return -mp.log(acc)


# --- hull oracle reference: explicit hull of the sampled curves -------------


def _stepped_curve(n: int, alpha: float, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    k = np.floor(1.0 / p + 1e-9)
    k = np.minimum(np.where(1.0 - k * p < -1e-12, k - 1.0, k), n)
    r = np.maximum(1.0 - k * p, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -k * p * np.log(p) - np.where(r > 1e-300, r * np.log(np.where(r > 0, r, 1.0)), 0.0)
    s = k * p**alpha + np.where(r > 0.0, r**alpha, 0.0)
    return h, s ** (1.0 / alpha)


def _peaked_curve(n: int, alpha: float, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    q = 1.0 - (n - 1) * p
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -np.where(q > 0, q * np.log(np.where(q > 0, q, 1.0)), 0.0)
        h = h - (n - 1) * np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
    return h, ((n - 1) * p**alpha + q**alpha) ** (1.0 / alpha)


@lru_cache(maxsize=128)
def sample_hull(n: int, alpha: float, grid: int, upper_side: bool) -> tuple[list, list]:
    """Upper (peaked samples) or lower (stepped samples) hull vertices, sorted by h."""
    t = np.arange(grid + 1, dtype=np.float64) / grid
    if upper_side:
        h, v = _peaked_curve(n, alpha, t * (1.0 / n))
    else:
        h, v = _stepped_curve(n, alpha, 1.0 / n + t * (1.0 - 1.0 / n))
    pts = sorted(zip(h.tolist(), v.tolist()))
    sign = 1.0 if upper_side else -1.0
    hull: list[tuple[float, float]] = []
    for x, y in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if sign * ((x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)) >= 0.0:
                hull.pop()  # middle vertex lies on or inside the hull side
            else:
                break
        hull.append((x, y))
    return [x for x, _ in hull], [y for _, y in hull]


def hull_value(n: int, alpha: float, h: float, grid: int, upper_side: bool) -> float:
    xs, ys = sample_hull(n, alpha, grid, upper_side)
    h = min(max(h, xs[0]), xs[-1])
    j = bisect.bisect_left(xs, h)
    if xs[j] == h:
        return ys[j]
    x1, y1, x2, y2 = xs[j - 1], ys[j - 1], xs[j], ys[j]
    lam = (x2 - h) / (x2 - x1)
    return lam * y1 + (1.0 - lam) * y2
