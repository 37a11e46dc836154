"""Conditional information measures and the induced two-sided bounds.

A joint distribution is stored as a marginal over Y plus one conditional
row per outcome. The Renyi and R-norm conditional entropies are strictly
monotone images of the expected alpha-norm, so the envelopes of
:mod:`entnorm.bounds` transfer to them (and, for channels under uniform
input, to mutual information of any order and to the Gallager exponent
function E0) by applying the image map to both envelope ends and sorting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import bounds, curves
from .simplex import DomainError, ProbVector, alpha_norm, shannon_entropy


@dataclass(frozen=True)
class JointDist:
    """Marginal over Y plus one n-ary conditional row per outcome of Y."""

    py: ProbVector
    rows: tuple[ProbVector, ...]

    def __post_init__(self) -> None:
        if len(self.rows) != self.py.n:
            raise DomainError(f"{len(self.rows)} rows for {self.py.n} outcomes of Y")
        sizes = {row.n for row in self.rows}
        if len(sizes) != 1:
            raise DomainError(f"conditional rows disagree on alphabet size: {sorted(sizes)}")

    @property
    def n(self) -> int:
        return self.rows[0].n


@dataclass(frozen=True)
class Channel:
    """Transition matrix of a DMC: one row of output probabilities per input."""

    transitions: tuple[ProbVector, ...]

    def __post_init__(self) -> None:
        if not self.transitions:
            raise DomainError("channel needs at least one input row")
        sizes = {row.n for row in self.transitions}
        if len(sizes) != 1:
            raise DomainError(f"transition rows disagree on output size: {sorted(sizes)}")

    @property
    def n_in(self) -> int:
        return len(self.transitions)

    @property
    def n_out(self) -> int:
        return self.transitions[0].n


def cond_shannon(joint: JointDist) -> float:
    """Conditional Shannon entropy: expectation of the row entropies (nats)."""
    return math.fsum(w * shannon_entropy(row) for w, row in zip(joint.py.values, joint.rows))


def expected_alpha_norm(joint: JointDist, alpha: float) -> float:
    """Expectation of the alpha-norm of the conditional rows."""
    return math.fsum(w * alpha_norm(row, alpha) for w, row in zip(joint.py.values, joint.rows))


def cond_renyi(joint: JointDist, alpha: float) -> float:
    """Conditional Renyi entropy of order alpha (Arimoto form), in nats.

    (alpha/(1-alpha)) ln E[||row||_alpha] for alpha != 1; at alpha = 1 the
    conditional Shannon entropy.
    """
    if not alpha > 0.0:
        raise DomainError(f"alpha={alpha!r} must be positive")
    if alpha == 1.0:
        return cond_shannon(joint)
    return renyi_map(alpha, expected_alpha_norm(joint, alpha))


def cond_rnorm(joint: JointDist, r: float) -> float:
    """Conditional R-norm information: (R/(R-1))(1 - E[||row||_R])."""
    if not r > 0.0 or r == 1.0:
        raise DomainError(f"R={r!r} must be positive and != 1")
    return rnorm_map(r, expected_alpha_norm(joint, r))


def renyi_map(alpha: float, norm: float) -> float:
    """The map expected-norm -> Renyi entropy: (alpha/(1-alpha)) ln x."""
    return alpha / (1.0 - alpha) * math.log(norm)


def rnorm_map(r: float, norm: float) -> float:
    """The map expected-norm -> R-norm information: (R/(R-1))(1 - x)."""
    return r / (r - 1.0) * (1.0 - norm)


def joint_from_channel_uniform(channel: Channel) -> JointDist:
    """Posterior joint of a channel fed with the uniform input.

    Outputs of probability zero are dropped: they carry no expectation
    weight and have no well-defined posterior row.
    """
    n = channel.n_in
    pys = []
    rows = []
    for y in range(channel.n_out):
        py = math.fsum(row.values[y] for row in channel.transitions) / n
        if py <= 0.0:
            continue
        pys.append(py)
        rows.append(ProbVector(tuple(row.values[y] / (n * py) for row in channel.transitions)))
    total = math.fsum(pys)
    return JointDist(py=ProbVector(tuple(p / total for p in pys)), rows=tuple(rows))


def arimoto_mutual_uniform(channel: Channel, alpha: float) -> float:
    """Mutual information of order alpha under uniform input: ln n - H_alpha(X|Y)."""
    return math.log(channel.n_in) - cond_renyi(joint_from_channel_uniform(channel), alpha)


def gallager_e0_uniform(channel: Channel, rho: float) -> float:
    """Gallager's E0 at parameter rho under uniform input.

    -ln sum_y (sum_x P(y|x)^(1/(1+rho)) / n)^(1+rho). Under uniform input
    this equals rho times the order-1/(1+rho) mutual information.
    """
    if not rho > -1.0:
        raise DomainError(f"rho={rho!r} must exceed -1")
    n = channel.n_in
    beta = 1.0 / (1.0 + rho)
    acc = 0.0
    for y in range(channel.n_out):
        inner = math.fsum(row.values[y] ** beta for row in channel.transitions if row.values[y] > 0.0) / n
        if inner > 0.0:
            acc += inner ** (1.0 + rho)
    return -math.log(acc)


def _mapped_range(n: int, alpha: float, h: float, image) -> tuple[float, float | None]:
    """Both norm-envelope ends at h under image(alpha, norm), sorted.

    The upper norm envelope is missing only below order 1/2, where the
    Renyi and R-norm maps both increase, so the missing end is the upper
    one here too.
    """
    env = bounds.envelope(n, alpha, h)
    lo = image(alpha, env.lower)
    if env.upper is None:
        return (lo, None)
    hi = image(alpha, env.upper)
    return (lo, hi) if lo <= hi else (hi, lo)


def renyi_range_for_entropy(n: int, alpha: float, h: float) -> tuple[float, float | None]:
    """Range of the conditional Renyi entropy at conditional Shannon entropy h.

    Applies the order-alpha map to the norm envelope; the map is increasing
    below order 1 and decreasing above, so the ends swap accordingly. The
    second element is None when the upper norm envelope is unavailable.
    """
    return _mapped_range(n, alpha, h, renyi_map)


def rnorm_range_for_entropy(n: int, r: float, h: float) -> tuple[float, float | None]:
    """Range of the conditional R-norm information at conditional entropy h."""
    return _mapped_range(n, r, h, rnorm_map)


def mutual_range_for_mutual(n: int, alpha: float, i: float) -> tuple[float | None, float]:
    """Range of order-alpha mutual information at ordinary mutual information i.

    Under uniform input I_alpha = ln n - H_alpha(X|Y) and i = ln n - H, so
    the Renyi range at h = ln n - i reflects into (lo, hi) with the ends
    swapped. When the upper norm envelope is missing (alpha < 1/2, n >= 3)
    the surviving bound is the upper one here.
    """
    i = curves.clamp_entropy(n, i, name="i")
    lnn = math.log(n)
    h = lnn - i
    r_lo, r_hi = renyi_range_for_entropy(n, alpha, h)
    hi = lnn - r_lo
    lo = None if r_hi is None else lnn - r_hi
    return (lo, hi)


def e0_range_for_mutual(n: int, rho: float, i: float) -> tuple[float | None, float]:
    """Range of E0(rho) over uniform-input channels with mutual information i.

    E0 = rho * I_(1/(1+rho)); the bound pair comes from the order-1/(1+rho)
    mutual-information range. The lower bound exists for rho in (-1, 1]
    (where 1/(1+rho) >= 1/2) and is None for rho > 1.
    """
    if not rho > -1.0:
        raise DomainError(f"rho={rho!r} must exceed -1")
    if rho == 0.0:
        return (0.0, 0.0)
    alpha = 1.0 / (1.0 + rho)
    m_lo, m_hi = mutual_range_for_mutual(n, alpha, i)
    if rho > 0.0:
        lo = None if m_lo is None else rho * m_lo
        return (lo, rho * m_hi)
    # rho < 0 flips the ends; both exist since alpha > 1 there
    return (rho * m_hi, rho * m_lo)
