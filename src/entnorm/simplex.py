"""Probability vectors on the finite simplex and their basic functionals.

Everything here works in nats (natural logarithm). The two parametric
families ``make_peaked`` and ``make_stepped`` trace the extremal boundary
curves used by the envelope machinery in :mod:`entnorm.bounds`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SUM_TOL = 1e-12
_ZERO_MASS = 1e-300  # below this a mass contributes 0 to -p*ln(p)


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NumericalError(RuntimeError):
    """A numerical search failed (bracket without sign change, etc.)."""


@dataclass(frozen=True)
class ProbVector:
    """An n-ary probability vector: entries in [0, 1] summing to 1."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) < 1:
            raise DomainError("probability vector needs at least one entry")
        vals = tuple(float(v) for v in self.values)
        for v in vals:
            if not math.isfinite(v) or v < -SUM_TOL or v > 1.0 + SUM_TOL:
                raise DomainError(f"entry {v!r} outside [0, 1]")
        total = math.fsum(vals)
        if abs(total - 1.0) > SUM_TOL:
            raise DomainError(f"entries sum to {total!r}, not 1")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return len(self.values)


def _clamp(x, lo: float, hi: float, slack: float, name: str, span: str):
    """x clipped into [lo, hi]; DomainError if any of it (or NaN) lies more than slack outside."""
    if isinstance(x, np.ndarray):
        if not ((lo - slack <= x) & (x <= hi + slack)).all():
            raise DomainError(f"{name}={x!r} outside {span}")
        return np.clip(x, lo, hi)
    if not lo - slack <= x <= hi + slack:
        raise DomainError(f"{name}={x!r} outside {span}")
    return min(max(x, lo), hi)


def make_uniform(n: int) -> ProbVector:
    """The equiprobable distribution on n symbols."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return ProbVector((1.0 / n,) * n)


def make_peaked(n: int, p: float) -> ProbVector:
    """One mass 1-(n-1)p followed by n-1 equal masses p, for p in [0, 1/n]."""
    if n < 2:
        raise DomainError("peaked family needs n >= 2")
    p = _clamp(p, 0.0, 1.0 / n, SUM_TOL, "p", f"[0, 1/{n}]")
    head = 1.0 - (n - 1) * p
    return ProbVector((head,) + (p,) * (n - 1))


def step_count(p):
    """Number of full masses p that fit in 1, i.e. floor(1/p), for a float or an array.

    Guarded so that exact reciprocals p = 1/m are not rounded down by
    float noise; the guard is backed out if it overshoots by more than
    simplex tolerance.
    """
    x = 1.0 / p + 1e-9
    k = np.floor(x) if isinstance(x, np.ndarray) else math.floor(x)
    return k - (1.0 - k * p < -SUM_TOL)


def make_stepped(n: int, p: float) -> ProbVector:
    """floor(1/p) masses p, one remainder 1-floor(1/p)*p, zeros after, p in [1/n, 1]."""
    if n < 2:
        raise DomainError("stepped family needs n >= 2")
    p = _clamp(p, 1.0 / n, 1.0, SUM_TOL, "p", f"[1/{n}, 1]")
    k = min(step_count(p), n)
    rem = max(1.0 - k * p, 0.0)
    vals = [p] * k
    if k < n:
        vals.append(rem)
    vals.extend([0.0] * (n - len(vals)))
    return ProbVector(tuple(vals))


def shannon_entropy(pv: ProbVector) -> float:
    """-sum p_i ln p_i in nats, with 0 ln 0 = 0."""
    return -math.fsum(v * math.log(v) for v in pv.values if v > _ZERO_MASS)


def alpha_norm(pv: ProbVector, alpha: float) -> float:
    """(sum p_i^alpha)^(1/alpha); the max entry at alpha = inf.

    Defined for alpha > 0. Values lie between 1 and n^(1/alpha - 1)
    (which side is larger depends on alpha vs 1).
    """
    if alpha == math.inf:
        return max(pv.values)
    if not alpha > 0.0:
        raise DomainError(f"alpha={alpha!r} must be positive")
    return math.fsum(v**alpha for v in pv.values if v > 0.0) ** (1.0 / alpha)


def binary_entropy(x: float) -> float:
    """-x ln x - (1-x) ln(1-x), zero at both endpoints."""
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"x={x!r} outside [0, 1]")
    out = 0.0
    if x > _ZERO_MASS:
        out -= x * math.log(x)
    if 1.0 - x > _ZERO_MASS:
        out -= (1.0 - x) * math.log(1.0 - x)
    return out


def alpha_log(alpha: float, x: float) -> float:
    """The deformed logarithm (x^(1-alpha) - 1)/(1 - alpha); ln x at alpha = 1.

    Strictly decreasing in alpha for fixed x != 1, which yields the
    classic sandwich 1 - 1/x <= ln x <= x - 1 as orders 2, 1, 0.
    """
    if not x > 0.0:
        raise DomainError(f"x={x!r} must be positive")
    if alpha == 1.0:
        return math.log(x)
    return math.expm1((1.0 - alpha) * math.log(x)) / (1.0 - alpha)
