"""Error map of the tangent point, the inflection, both envelopes and the array peaked inverse against tests/mpref.py.

One case per quantity, alphabet size and order. Each quantity has its own
relative tolerance. A point the program misses today is a strict xfail
whose reason gives the measured error, or the refusal, so a fix shows as
an XPASS.
"""

import math

import mpmath as mp
import numpy as np
import pytest

import mpref
from entnorm import bounds, curves
from entnorm.simplex import DomainError

_BELOW, _ABOVE = 1 - 1e-4, 1 + 1e-4
_NEAR_BELOW, _NEAR_ABOVE = 1 - 1e-7, 1 + 1e-7
NS = (2, 3, 8, 10**4, 10**6)
ORDERS = (0.5 + 1e-7, 0.7, _BELOW, _ABOVE, 2.0, 50.0, 1e3)
NEAR_ONE = (_NEAR_BELOW, _NEAR_ABOVE)  # map cases only, not array cases
BINARY_ORDERS = (0.005, 0.01)  # below order 1/2 only the binary curve has an upper envelope
H_FRACTIONS = (0.0, 0.05, 0.5, 0.95, 1.0)  # of ln n; the reference takes the last as ln n exactly
TINY_H = (1e-30, 1e-100)  # absolute entropies of the "upper_tiny_h" cases
TOLERANCES = {"p_star": 5e-13, "h_star": 5e-13, "inflection": 1e-13, "lower": 1e-14, "upper": 1e-14,
              "upper_tiny_h": 1e-14}

_REFUSED = "refused, DomainError: no probe's tangency residual has the other sign"
# the measured relative error of each point missed today, or its refusal, by (quantity, n, order)
MISSES = {
    ("p_star", 3, _BELOW): "1.6e-6", ("p_star", 3, _ABOVE): "2.0e-8",
    ("p_star", 8, _BELOW): "1.2e-7", ("p_star", 8, _ABOVE): "8.6e-10",
    ("p_star", 10**4, _BELOW): "2.6e-8", ("p_star", 10**4, _ABOVE): "1.2e-8",
    ("p_star", 10**6, _BELOW): "2.3e-8", ("p_star", 10**6, _ABOVE): "1.1e-8",
    ("p_star", 3, 1e3): "3.9e-12",
    ("h_star", 3, _BELOW): "6.6e-7", ("h_star", 3, _ABOVE): "8.2e-9",
    ("h_star", 8, _BELOW): "7.8e-8", ("h_star", 8, _ABOVE): "5.8e-10",
    ("h_star", 10**4, _BELOW): "2.4e-8", ("h_star", 10**4, _ABOVE): "1.1e-8",
    ("h_star", 10**6, _BELOW): "2.1e-8", ("h_star", 10**6, _ABOVE): "1.1e-8",
    ("inflection", 3, _ABOVE): "9.9e-13",
    ("inflection", 8, _BELOW): "1.4e-12", ("inflection", 8, _ABOVE): "5.2e-13",
    ("inflection", 10**4, _BELOW): "1.1e-12", ("inflection", 10**4, _ABOVE): "1.4e-12",
    ("inflection", 10**6, _BELOW): "2.2e-13", ("inflection", 10**6, _ABOVE): "2.8e-13",
    ("p_star", 3, _NEAR_BELOW): "9.1e-2", ("p_star", 3, _NEAR_ABOVE): _REFUSED,
    ("p_star", 8, _NEAR_BELOW): "1.2e-1", ("p_star", 8, _NEAR_ABOVE): "8.6e-2",
    ("p_star", 10**4, _NEAR_BELOW): "4.0e-2", ("p_star", 10**4, _NEAR_ABOVE): "4.1e-3",
    ("p_star", 10**6, _NEAR_BELOW): "3.7e-2", ("p_star", 10**6, _NEAR_ABOVE): "9.7e-4",
    ("h_star", 3, _NEAR_BELOW): "4.1e-2", ("h_star", 3, _NEAR_ABOVE): _REFUSED,
    ("h_star", 8, _NEAR_BELOW): "8.0e-2", ("h_star", 8, _NEAR_ABOVE): "5.6e-2",
    ("h_star", 10**4, _NEAR_BELOW): "3.6e-2", ("h_star", 10**4, _NEAR_ABOVE): "3.7e-3",
    ("h_star", 10**6, _NEAR_BELOW): "3.5e-2", ("h_star", 10**6, _NEAR_ABOVE): "9.1e-4",
    ("inflection", 3, _NEAR_BELOW): "3.3e-1", ("inflection", 3, _NEAR_ABOVE): "2.3e-10",
    ("inflection", 8, _NEAR_BELOW): "7.5e-1", ("inflection", 8, _NEAR_ABOVE): "6.2e-10",
    ("inflection", 10**4, _NEAR_BELOW): "6.7e-10", ("inflection", 10**4, _NEAR_ABOVE): "2.8e-10",
    ("inflection", 10**6, _NEAR_BELOW): "4.2e-10", ("inflection", 10**6, _NEAR_ABOVE): "2.8e-10",
    ("upper", 3, _NEAR_ABOVE): _REFUSED, ("upper_tiny_h", 3, _NEAR_ABOVE): _REFUSED,
    ("upper", 2, 0.005): "1.4e-14",
    ("upper_tiny_h", 2, 0.005): "2.9", ("upper_tiny_h", 2, 0.01): "1.9",
    ("upper_tiny_h", 10**4, 0.5 + 1e-7): "2.5e-14", ("upper_tiny_h", 10**6, 0.5 + 1e-7): "1.7e-13",
}
_FLAT = {"p_star": "tangency residual", "h_star": "tangency residual behind p*", "upper": "tangency residual",
         "upper_tiny_h": "tangency residual",
         "inflection": "curvature sign, (alpha - 1) plus a term that cancels it,"}


def _reason(quantity, alpha, measured):
    if alpha == 1e3:
        why = "at large orders p* nears 1/n, where ln n - H(p) cancels (ROADMAP item 2, near p = 1/n)"
    elif alpha in (_BELOW, _ABOVE) + NEAR_ONE:
        why = f"near order 1 the {_FLAT[quantity]} flattens to rounding over a wide span of p (ROADMAP item 2)"
    elif quantity == "upper_tiny_h":
        why = ("the float inverse solves in p over [0, 1/n] and stops at a floor the bracket's width sets, so p at "
               "tiny h is off by a factor of 2 to 84 and p^alpha carries it (ROADMAP item 2, step 1)")
    else:
        why = "at order 0.005 the power 1/alpha = 200 multiplies the power sum's rounding"
    return f"{measured}: {why}" if measured == _REFUSED else f"{measured} relative: {why}"


def _errors(quantity, n, alpha):
    """(program, reference) pairs for one quantity at (n, alpha)."""
    with mp.workdps(mpref.DPS):
        if quantity in ("p_star", "h_star"):
            ts = curves.tangent_point(n, alpha)
            p = mp.mpf(1) / 2 if n == 2 else mpref.tangent_p(n, alpha)
            return [(ts.p, p)] if quantity == "p_star" else [(ts.h, mpref.entropy_peaked(mp.mpf(n), p))]
        if quantity == "inflection":
            ip, p = curves.inflection_point(n, alpha), mpref.inflection_p(n, alpha)
            return [(ip.p, p), (ip.h, mpref.entropy_peaked(mp.mpf(n), p))]
        if quantity == "upper_tiny_h":
            return [(bounds.envelope_upper(n, alpha, h), mpref.envelope_upper(n, alpha, h)) for h in TINY_H]
        program, reference = (bounds.envelope_upper, mpref.envelope_upper) if quantity == "upper" else \
            (bounds.envelope_lower, mpref.envelope_lower)
        top = mp.log(n)
        return [(program(n, alpha, f * math.log(n)), reference(n, alpha, top if f == 1.0 else f * math.log(n)))
                for f in H_FRACTIONS]


def _cases():
    for quantity in TOLERANCES:
        for n in NS:
            if quantity == "inflection" and n == 2:  # the binary curve is concave throughout
                continue
            for alpha in ORDERS + NEAR_ONE + (BINARY_ORDERS if n == 2 else ()):
                miss = MISSES.get((quantity, n, alpha))
                raises = DomainError if miss == _REFUSED else AssertionError
                marks = [pytest.mark.xfail(strict=True, raises=raises, reason=_reason(quantity, alpha, miss))] \
                    if miss else []
                yield pytest.param(quantity, n, alpha, marks=marks, id=f"{quantity}-{n}-{alpha!r}")


@pytest.mark.parametrize("quantity, n, alpha", _cases())
def test_matches_mpmath(quantity, n, alpha):
    for got, want in _errors(quantity, n, alpha):
        assert abs(got - want) <= TOLERANCES[quantity] * abs(want), (got, want)


# The array solves of the peaked inverse, one array per case: four entropies, then four fractions of ln n
ARRAY_H = (1e-300, 1e-30, 1e-15, 1e-6)
ARRAY_FRACTIONS = (0.05, 0.5, 1 - 1e-6, 1 - 1e-10)
# Relative tolerances at each h: the worst error of the halving solve these replaced, rounded up over three groups.
# Below the top it is taken over 0.05 and 0.5 ln n (1.4e-15 for the inverse), as that solve missed the first
# three h by far; the upper envelope keeps TOLERANCES'. Near the top H is flat, so its rounding moves p by about
# eps ln n / (p dH/dp): 6.1e-14 of p at (1 - 1e-6) ln n and 9.2e-12 at (1 - 1e-10) ln n. The upper envelope there
# is mostly the tangent segment, steep at large orders, where fl(ln n) < ln n moves it: 6.0e-11 and 3.3e-8.
ARRAY_TOLERANCES = {"inverse": (2e-15,) * 6 + (1e-13, 1e-11), "upper": (TOLERANCES["upper"],) * 6 + (1e-10, 1e-7)}


def _array_cases():
    for n in NS:
        yield pytest.param("inverse", n, None, id=f"inverse-{n}")
        for alpha in ORDERS:
            yield pytest.param("upper", n, alpha, id=f"upper-{n}-{alpha!r}")


@pytest.mark.parametrize("quantity, n, alpha", _array_cases())
def test_array_solve_matches_mpmath(quantity, n, alpha):
    hs = ARRAY_H + tuple(f * math.log(n) for f in ARRAY_FRACTIONS)
    if quantity == "inverse":
        got, want = curves.inv_entropy_peaked(n, np.array(hs)), [mpref.inv_entropy_peaked(n, h) for h in hs]
    else:
        got, want = bounds.envelope_upper(n, alpha, np.array(hs)), [mpref.envelope_upper(n, alpha, h) for h in hs]
    for h, g, w, tol in zip(hs, got, want, ARRAY_TOLERANCES[quantity]):
        assert abs(g - w) <= tol * abs(w), (h, g, w)
