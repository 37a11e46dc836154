"""Probability vectors on the finite simplex and their basic functionals.

``probabilities`` is the one check that an array's rows are probability
vectors; ``ProbVector``, ``measures.JointDist`` and ``measures.Channel``
all validate through it. ``shannon_entropy`` and ``alpha_norm`` take a
``ProbVector`` or an array and reduce over its last axis. Everything here
works in nats (natural logarithm). The two parametric families
``make_peaked`` and ``make_stepped`` trace the extremal boundary curves
used by the envelope machinery in :mod:`entnorm.bounds`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

SUM_TOL = 1e-12
_LOG_TINY = 700.0  # e^-700 ~ 1e-304: a power sum at least this large is a normal double


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NumericalError(RuntimeError):
    """A numerical search failed (bracket without sign change, etc.)."""


class _LazyNumpy:
    """numpy, imported on the first attribute read; each read is then cached on the handle.

    Scalar paths read none. Test for arrays with is_array: isinstance(x, np.ndarray) would import numpy.
    """

    def __getattr__(self, name: str):
        import numpy

        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _LazyNumpy()  # the one numpy handle of the package


_SCALARS = frozenset((float, int, bool))  # the scalar paths' floats, counts and conditions: one lookup


def is_array(x) -> bool:
    """Whether x is a numpy array, without importing numpy: no Python scalar is, nor anything before numpy loads."""
    if type(x) in _SCALARS:
        return False
    numpy = sys.modules.get("numpy")
    return numpy is not None and isinstance(x, numpy.ndarray)


def probabilities(x, ndim: int, name: str) -> np.ndarray:
    """x as a read-only float array of ndim axes whose rows (last axis) are probability vectors.

    The one probability check: every entry finite and in [0, 1], every row
    summing to 1, both within SUM_TOL. Entries within SUM_TOL below 0
    become 0. DomainError names the first bad row.
    """
    try:
        p = np.array(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"field '{name}'{_ragged_row(x) or f': {exc}'}") from None
    if p.ndim != ndim or p.size == 0:
        raise DomainError(f"field '{name}': need a non-empty {ndim}-D array, got shape {p.shape}")
    # NaN fails both comparisons: it propagates through abs, max and sum
    if not (abs(p - 0.5).max() <= 0.5 + SUM_TOL and abs(p.sum(axis=-1) - 1.0).max() <= SUM_TOL):
        rows = p.reshape(-1, p.shape[-1])
        inside = abs(rows - 0.5) <= 0.5 + SUM_TOL
        total = rows.sum(axis=-1)
        i = int((~inside.all(axis=-1) | ~(abs(total - 1.0) <= SUM_TOL)).argmax())
        where = f"field '{name}'" + (f", row {i}" if ndim > 1 else "")
        if not inside[i].all():
            raise DomainError(f"{where}: entry {float(rows[i][~inside[i]][0])!r} outside [0, 1]")
        raise DomainError(f"{where}: entries sum to {float(total[i])!r}, not 1")
    np.maximum(p, 0.0, out=p)
    p.flags.writeable = False
    return p


def _ragged_row(x) -> str | None:
    """", row i: ..." for the first row of x shaped unlike row 0, if x is a sequence of rows."""
    try:
        shapes = [np.shape(r) for r in x]
        i = next(i for i, s in enumerate(shapes) if s != shapes[0])
    except (TypeError, ValueError, StopIteration):
        return None
    return f", row {i}: shape {shapes[i]} unlike row 0's {shapes[0]}"


def _xlogx(x):
    """x ln x, with 0 at x = 0, for a float or an array."""
    if is_array(x):
        return x * np.log(np.where(x > 0.0, x, 1.0))
    return x * math.log(x) if x > 0.0 else 0.0


@dataclass(frozen=True)
class ProbVector:
    """An n-ary probability vector: entries in [0, 1] summing to 1."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(probabilities(self.values, 1, "values").tolist()))

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.values, dtype=dtype)

    @property
    def n(self) -> int:
        return len(self.values)


def _clamp(x, lo: float, hi: float, slack: float, name: str, span: str):
    """x clipped into [lo, hi]; DomainError if any of it (or NaN) lies more than slack outside."""
    if is_array(x):
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
    k = np.floor(x) if is_array(x) else math.floor(x)
    return k - (1.0 - k * p < -SUM_TOL)


def make_stepped(n: int, p: float) -> ProbVector:
    """floor(1/p) masses p, one remainder 1-floor(1/p)*p, zeros after, p in [1/n, 1]."""
    if n < 2:
        raise DomainError("stepped family needs n >= 2")
    p = _clamp(p, 1.0 / n, 1.0, SUM_TOL, "p", f"[1/{n}, 1]")
    k = min(step_count(p), n)
    vals = (p,) * k + (max(1.0 - k * p, 0.0),) + (0.0,) * (n - k - 1)
    return ProbVector(vals[:n])  # no remainder when k = n


def shannon_entropy(p):
    """-sum p_i ln p_i in nats over the last axis, with 0 ln 0 = 0.

    p is a ProbVector or an array of probability vectors (last axis).
    """
    return -_xlogx(np.asarray(p, dtype=float)).sum(axis=-1)


def _power_sum(n: int, alpha: float, values, weights=None):
    """(c, s) with sum_i w_i v_i^alpha = c^alpha s: the one power sum behind every alpha-norm.

    values: an array summed over its last axis, or a pair of floats (through
    math) or arrays (elementwise) weighted by a pair of weights; the masses
    of a probability vector on n symbols, so the largest is at least 1/n.
    c = 1 leaves s the plain sum, unless alpha > 1 and alpha ln n > _LOG_TINY
    could underflow it: then c is the largest value and s lies in [1, n]
    (at alpha = inf, s^0 = 1 leaves c). The only check that alpha > 0.
    """
    if not alpha > 0.0:
        raise DomainError(f"alpha={alpha!r} must be positive")
    shift = alpha > 1.0 and alpha * math.log(n) > _LOG_TINY
    if isinstance(values, tuple):
        (v0, v1), (w0, w1) = values, weights
        c = 1.0
        if shift:
            c = np.maximum(v0, v1) if is_array(v0) else max(v0, v1)
        return c, w0 * (v0 / c) ** alpha + w1 * (v1 / c) ** alpha
    if not shift:
        return 1.0, np.power(values, alpha).sum(axis=-1)
    c = values.max(axis=-1)
    return c, np.power(values / c[..., None], alpha).sum(axis=-1)


def _finite(y, alpha: float):
    """y (a float or an array), or DomainError naming the order when it is not a finite double."""
    if not (math.isfinite(y) if isinstance(y, float) else np.isfinite(y).all()):
        raise DomainError(f"unsupported order alpha={alpha!r}: a value at this order is not a finite double")
    return y


def _pow(x, e: float, alpha: float):
    """x^e for a float (through math) or an array, through _finite."""
    if type(x) is not float:
        with np.errstate(over="ignore", divide="ignore"):
            return _finite(x**e, alpha)
    try:
        return _finite(x**e, alpha)
    except (OverflowError, ZeroDivisionError):
        return _finite(math.inf, alpha)


def _norm(n: int, alpha: float, values, weights=None):
    """(norm, c, s): the alpha-norm (sum_i w_i v_i^alpha)^(1/alpha) and the _power_sum behind it."""
    c, s = _power_sum(n, alpha, values, weights)
    return c * _pow(s, 1.0 / alpha, alpha), c, s


def alpha_norm(p, alpha: float):
    """(sum p_i^alpha)^(1/alpha) over the last axis; the max entry at alpha = inf.

    p is a ProbVector or an array of probability vectors (last axis).
    Defined for alpha > 0. Values lie between 1 and n^(1/alpha - 1)
    (which side is larger depends on alpha vs 1).
    """
    p = np.asarray(p, dtype=float)
    return _norm(p.shape[-1], alpha, p)[0]


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
