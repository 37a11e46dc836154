"""A 50-digit mpmath reference for the tests: norms and entropy, the peaked curve, its roots and both envelopes.

Each root is bracketed and then bisected, never polished by Newton-type
steps, so a reference value cannot wander off to another root or fail to
converge where the double-precision solve it checks succeeded. The roots
and the envelope set DPS digits themselves; the plain formulas work at
the caller's precision.
"""

from __future__ import annotations

from functools import lru_cache

import mpmath as mp

DPS = 50
_HALVINGS = 200  # 2^-200 of the bracket is far below 50 digits of any root checked here
_INFLECTION_GAPS = ("1e-6", "1e-9", "1e-12", "1e-15", "1e-20")  # relative, below 1/n


def bisect(f, lo, hi):
    """The sign change of f in [lo, hi], by plain halving; AssertionError if f has one sign at both ends."""
    below = f(lo) < 0
    assert below != (f(hi) < 0), f"no sign change of f in [{lo}, {hi}]"
    for _ in range(_HALVINGS):
        mid = (lo + hi) / 2
        if (f(mid) < 0) == below:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def entropy_peaked(n, p):
    """-q ln q - (n-1) p ln p, q = 1 - (n-1)p, with ln q as log1p(-(n-1)p): q rounds to 1 below p ~ 10^-DPS."""
    q = 1 - (n - 1) * p
    return -q * mp.log1p(-(n - 1) * p) - (n - 1) * p * mp.log(p)


@lru_cache(maxsize=None)
def inv_entropy_peaked(n, h):
    """The p in (0, 1/n] with entropy_peaked(n, p) = h > 0, bisected in ln p from 1e-400: tiny p keep their digits."""
    with mp.workdps(DPS):
        n, h = mp.mpf(n), mp.mpf(h)
        return mp.exp(bisect(lambda t: entropy_peaked(n, mp.exp(t)) - h, mp.log(mp.mpf("1e-400")), -mp.log(n)))


def norm_peaked(n, p, a):
    """((n-1) p^a + q^a)^(1/a)."""
    q = 1 - (n - 1) * p
    return ((n - 1) * p**a + q**a) ** (1 / a)


def curvature_sign(n, p, a):
    """The sign surrogate of the peaked curve's curvature in entropy coordinates, z = q/p."""
    z = (1 - (n - 1) * p) / p
    logz = mp.log(z)
    return (a - 1) + ((n - 1) + z**a) * mp.expm1((1 - a) * logz) / (((n - 1) + z) * logz)


@lru_cache(maxsize=None)
def inflection_p(n: int, alpha: float):
    """The zero of curvature_sign on (1/(n(n-1)), 1/n), bisected up to the first gap below 1/n with the other sign."""
    with mp.workdps(DPS):
        n, a = mp.mpf(n), mp.mpf(alpha)
        lo = 1 / (n * (n - 1))
        below = curvature_sign(n, lo, a) < 0
        for gap in _INFLECTION_GAPS:
            hi = (1 / n) * (1 - mp.mpf(gap))
            if (curvature_sign(n, hi, a) < 0) != below:
                return bisect(lambda p: curvature_sign(n, p, a), lo, hi)
        raise AssertionError(f"no sign change of the curvature below 1/{n} at order {alpha}")


@lru_cache(maxsize=None)
def tangent_p(n: int, alpha: float):
    """The tangency root N'(p)(ln n - H(p)) = H'(p)(u - N(p)), u = n^(1/alpha - 1), on (0, inflection_p)."""
    with mp.workdps(DPS):
        hi = inflection_p(n, alpha)
        n, a = mp.mpf(n), mp.mpf(alpha)
        u = n ** (1 / a - 1)

        def residual(p):
            q = 1 - (n - 1) * p
            norm = norm_peaked(n, p, a)
            dnorm = norm ** (1 - a) * (n - 1) * (p ** (a - 1) - q ** (a - 1))
            dh = (n - 1) * mp.log(q / p)
            return dnorm * (mp.log(n) - entropy_peaked(n, p)) - dh * (u - norm)

        return bisect(residual, mp.mpf("1e-60"), hi)


def norm(terms, a):
    """(sum w v^a)^(1/a) over the (weight, value) pairs with v > 0; the largest such v at a = inf."""
    if a == mp.inf:
        return max(mp.mpf(v) for w, v in terms if v > 0)
    a = mp.mpf(a)
    return mp.fsum(w * mp.mpf(v) ** a for w, v in terms if v > 0) ** (1 / a)


def entropy(row):
    """-sum v ln v over the entries v > 0."""
    return -mp.fsum(mp.mpf(v) * mp.log(v) for v in row if v > 0)


def envelope_lower(n: int, alpha: float, h: float):
    """The chord through (ln m, m^x) and (ln(m+1), (m+1)^x) at h, x = 1/alpha - 1, m = floor(e^h); n^x from ln n."""
    with mp.workdps(DPS):
        h, x = mp.mpf(h), 1 / mp.mpf(alpha) - 1
        m = int(mp.floor(mp.exp(h)))
        if m >= n:
            return mp.mpf(n) ** x
        lam = (mp.log(m + 1) - h) / (mp.log(m + 1) - mp.log(m))
        return lam * mp.mpf(m) ** x + (1 - lam) * mp.mpf(m + 1) ** x


def envelope_upper(n: int, alpha: float, h):
    """The peaked curve's norm at inv_entropy_peaked up to h* = H(p*), then the chord to (ln n, n^x).

    p* = 1/2 at n = 2, where the chord is empty; h at or above ln n gives n^x, x = 1/alpha - 1.
    """
    with mp.workdps(DPS):
        p_star = mp.mpf(1) / 2 if n == 2 else tangent_p(n, alpha)
        n, a, h = mp.mpf(n), mp.mpf(alpha), mp.mpf(h)
        h_star, top = entropy_peaked(n, p_star), n ** (1 / a - 1)
        if h >= mp.log(n):
            return top
        if h > h_star:
            lam = (mp.log(n) - h) / (mp.log(n) - h_star)
            return lam * norm_peaked(n, p_star, a) + (1 - lam) * top
        return norm_peaked(n, inv_entropy_peaked(n, h) if h > 0 else mp.mpf(0), a)
