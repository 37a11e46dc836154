"""Conditional information measures and the induced two-sided bounds.

A joint distribution is stored as arrays: the marginal over Y, shape (y,),
and one conditional row per outcome, shape (y, n); a channel as its
transition matrix, shape (n_in, n_out). Every measure of a joint is an
expectation over Y of a row entropy or a row alpha-norm, computed by the
array kernels of :mod:`entnorm.simplex`. The Renyi and R-norm conditional
entropies are strictly monotone images of the expected alpha-norm, so the
envelopes of :mod:`entnorm.bounds` transfer to them (and, for channels
under uniform input, to mutual information of any order and to the
Gallager exponent function E0) by applying the image map to both
envelope ends and sorting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import bounds, curves
from .simplex import DomainError, alpha_norm, np, probabilities, shannon_entropy


@dataclass(frozen=True, eq=False)  # == on array fields has no single truth value
class JointDist:
    """Marginal over Y plus one n-ary conditional row per outcome of Y.

    Both fields take any array-like (tuples of ProbVector included) and
    hold read-only float arrays: py of shape (y,), rows of shape (y, n).
    """

    py: np.ndarray
    rows: np.ndarray

    def __post_init__(self) -> None:
        py = probabilities(self.py, 1, "py")
        rows = probabilities(self.rows, 2, "rows")
        if len(rows) != len(py):
            raise DomainError(f"{len(rows)} rows for {len(py)} outcomes of Y")
        object.__setattr__(self, "py", py)
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True, eq=False)
class Channel:
    """Transition matrix of a DMC, shape (n_in, n_out): one row of output probabilities per input."""

    transitions: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "transitions", probabilities(self.transitions, 2, "transitions"))

    @property
    def n_in(self) -> int:
        return self.transitions.shape[0]


def cond_shannon(joint: JointDist) -> float:
    """Conditional Shannon entropy: expectation of the row entropies (nats)."""
    return float((joint.py * shannon_entropy(joint.rows)).sum(axis=-1))


def expected_alpha_norm(joint: JointDist, alpha: float) -> float:
    """Expectation of the alpha-norm of the conditional rows."""
    return float((joint.py * alpha_norm(joint.rows, alpha)).sum(axis=-1))


def cond_renyi(joint: JointDist, alpha: float) -> float:
    """Conditional Renyi entropy of order alpha (Arimoto form), in nats.

    (alpha/(1-alpha)) ln E[||row||_alpha] for alpha != 1; at alpha = 1 the
    conditional Shannon entropy.
    """
    if alpha == 1.0:
        return cond_shannon(joint)
    return renyi_map(alpha, expected_alpha_norm(joint, alpha))


def cond_rnorm(joint: JointDist, r: float) -> float:
    """Conditional R-norm information: (R/(R-1))(1 - E[||row||_R])."""
    curves._check_order(r, finite=False)
    return rnorm_map(r, expected_alpha_norm(joint, r))


def renyi_map(alpha: float, norm: float) -> float:
    """The map expected-norm -> Renyi entropy: (alpha/(1-alpha)) ln x, -ln x at alpha = inf."""
    scale = -1.0 if alpha == math.inf else alpha / (1.0 - alpha)
    return scale * math.log(norm)


def rnorm_map(r: float, norm: float) -> float:
    """The map expected-norm -> R-norm information: (R/(R-1))(1 - x), 1 - x at R = inf."""
    scale = 1.0 if r == math.inf else r / (r - 1.0)
    return scale * (1.0 - norm)


def joint_from_channel_uniform(channel: Channel) -> JointDist:
    """Posterior joint of a channel fed with the uniform input.

    Outputs of probability zero are dropped: they carry no expectation
    weight and have no well-defined posterior row.
    """
    t = channel.transitions
    mass = t.sum(axis=0)  # n P(y)
    kept = mass > 0.0
    mass = mass[kept]
    return JointDist(py=mass / mass.sum(), rows=t[:, kept].T / mass[:, None])


def arimoto_mutual_uniform(channel: Channel, alpha: float) -> float:
    """Mutual information of order alpha under uniform input: ln n - H_alpha(X|Y)."""
    return math.log(channel.n_in) - cond_renyi(joint_from_channel_uniform(channel), alpha)


def _check_rho(rho: float) -> None:
    """The E0 parameter's domain: finite and above -1, the order 1/(1+rho) then positive."""
    if not -1.0 < rho < math.inf:
        raise DomainError(f"rho={rho!r} must be finite and exceed -1")


def gallager_e0_uniform(channel: Channel, rho: float) -> float:
    """Gallager's E0 at parameter rho under uniform input.

    -ln sum_y (sum_x P(y|x)^(1/(1+rho)) / n)^(1+rho). Under uniform input
    this equals rho times the order-1/(1+rho) mutual information.

    Evaluated in log space, so no power underflows at any rho: with c_y the
    largest entry of column y and r = P(y|x)/c_y, (1+rho) ln of the inner
    mean is ln c_y + (1+rho) log1p(mean_x expm1(ln r/(1+rho))), and the sum
    over y is a max-shifted log-sum-exp. expm1/log1p keep the small
    differences 1 - r^(1/(1+rho)) that a large 1+rho multiplies.
    """
    _check_rho(rho)
    t = channel.transitions
    t = t[:, t.max(axis=0) > 0.0]  # outputs no input reaches add nothing
    c = t.max(axis=0)
    with np.errstate(divide="ignore"):  # ln 0 = -inf and expm1(-inf) = -1: a zero adds 0 to the mean
        log_r = np.log(t / c)
    log_terms = np.log(c) + (1.0 + rho) * np.log1p(np.expm1(log_r / (1.0 + rho)).mean(axis=0))
    top = log_terms.max()
    return -float(top + np.log(np.exp(log_terms - top).sum()))


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
    _check_rho(rho)
    if rho == 0.0:
        return (0.0, 0.0)
    alpha = 1.0 / (1.0 + rho)
    m_lo, m_hi = mutual_range_for_mutual(n, alpha, i)
    if rho > 0.0:
        lo = None if m_lo is None else rho * m_lo
        return (lo, rho * m_hi)
    # rho < 0 flips the ends; both exist since alpha > 1 there
    return (rho * m_hi, rho * m_lo)
