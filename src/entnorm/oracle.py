"""Ground-truth machinery: achieving witnesses, random joints, hull search.

Nothing here trusts the envelope formulas. The witnesses realize the
boundary by construction, the Monte Carlo verifier samples joints
uniformly and counts violations, and the brute-force functions rebuild
the hull boundary from raw curve samples: a monotone-chain hull, built
once per (n, alpha, grid, side) and cached, answers each query with the
chord between its two vertices around h. Two vertices suffice: a planar
convex-hull boundary point at a fixed first coordinate is a convex
combination of at most two extreme points.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from . import bounds, curves
from .measures import JointDist, _derived_joint
from .simplex import DomainError, NumericalError, _check_n, alpha_norm, make_peaked, make_stepped, make_uniform
from .simplex import np, shannon_entropy

# _CHUNK and _BUDGET fix the seeding unit: a chunk's joints come from one
# sub-seed, so changing either changes the reports. _BLOCK changes no result,
# only memory and speed: a chunk's rows are drawn into one buffer of _BLOCK
# entries (512 KB) and reduced there. Set by measurement: the seven verify
# calls of a `sweep` pass took a median 418 ms at 2^16, against 429 ms at
# 2^15, 433 ms at 2^17 and 462 ms at 2^14 (8 fresh processes each, one CPU).
_CHUNK = 1 << 14  # joints per chunk
_BUDGET = 1 << 24  # row entries per chunk (16384 joints of 4 x 256); wider joints are refused
_BLOCK = 1 << 16  # row entries held in memory at a time
_NODES = 64  # exact upper-envelope values behind verify's chord screen


VerifyReport = namedtuple("VerifyReport", "samples violations_lower violations_upper max_excess seed")
VerifyReport.__doc__ = """Outcome of a Monte Carlo envelope sweep.

A sample is a violation when its excess over an envelope exceeds 1e-9
times the norms' scale, max(1, ||u_n||_alpha); max_excess is absolute.
"""


def witness_min(n: int, h: float) -> JointDist:
    """Two-outcome joint achieving the lower envelope at entropy h exactly.

    Mixes the uniform-on-m and uniform-on-(m+1) rows (as stepped vectors)
    with the weight that lands the conditional entropy on h.
    """
    m, lam = bounds._lower_chord(n, curves.clamp_entropy(n, h))
    if m >= n:
        return _derived_joint((1.0,), (make_uniform(n),))
    rows = (make_stepped(n, 1.0 / m), make_stepped(n, 1.0 / (m + 1)))
    return _derived_joint((lam, 1.0 - lam), rows)


def witness_max(n: int, alpha: float, h: float) -> JointDist:
    """Joint achieving the upper envelope at entropy h exactly.

    A single peaked row below the tangency entropy; past it, the tangency
    row mixed with the uniform row.
    """
    ts = curves.tangent_point(n, alpha)
    lnn = math.log(n)
    h = curves.clamp_entropy(n, h)
    if h <= ts.h:
        row = make_peaked(n, curves.inv_entropy_peaked(n, h))
        return _derived_joint((1.0,), (row,))
    lam = (lnn - h) / (lnn - ts.h)
    return _derived_joint((lam, 1.0 - lam), (make_peaked(n, ts.p), make_uniform(n)))


def _sample_simplex(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Uniform points on the simplex (the last axis) via normalized exponential spacings."""
    e = rng.standard_exponential(size=shape)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _check_sampling(n: int, y_size: int, seed: int) -> None:
    _check_n(n)
    if y_size < 1:
        raise DomainError(f"y_size={y_size} must be >= 1")
    if seed < 0:
        raise DomainError(f"seed={seed} must be >= 0")


def random_joint(n: int, y_size: int, seed: int) -> JointDist:
    """One joint with uniform-on-the-simplex marginal and rows; seed-determined."""
    _check_sampling(n, y_size, seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    py = _sample_simplex(rng, 1, y_size)[0]
    return JointDist(py=py, rows=_sample_simplex(rng, y_size, n))


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))


def sample_joint_batch(
    n: int, y_size: int, count: int, seed: int, chunk_index: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Batch of joints as arrays: marginals (count, y) and rows (count, y, n)."""
    _check_sampling(n, y_size, seed)
    rng = _chunk_rng(seed, chunk_index)
    return _sample_simplex(rng, count, y_size), _sample_simplex(rng, count, y_size, n)


def _block_measures(
    rng: np.random.Generator, n: int, alpha: float, count: int, y_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Entropy and alpha-norm, each of shape (count, y_size), of the rows _sample_simplex(rng, count, y_size, n) draws.

    The rows are drawn about _BLOCK entries at a time into one buffer and
    normalised there in place. Sequential fills continue one stream, so the
    values are bitwise those of the whole draw while memory stays at one block.
    """
    ent = np.empty((count, y_size))
    nrm = np.empty((count, y_size))
    step = max(1, _BLOCK // (y_size * n))
    buf = np.empty((min(step, count), y_size, n))
    for lo in range(0, count, step):
        rows = buf[: count - lo]
        rng.standard_exponential(out=rows)
        rows /= rows.sum(axis=-1, keepdims=True)
        ent[lo : lo + step] = shannon_entropy(rows)
        nrm[lo : lo + step] = alpha_norm(rows, alpha)
    return ent, nrm


def _chunk_measures(
    n: int, y_size: int, alpha: float, count: int, seed: int, chunk_index: int
) -> tuple[np.ndarray, np.ndarray]:
    """Conditional entropy (clipped to [0, ln n]) and expected alpha-norm of a chunk's joints.

    The joints are those of sample_joint_batch with the same arguments: the
    marginals are drawn first, then the rows by _block_measures.
    """
    rng = _chunk_rng(seed, chunk_index)
    py = _sample_simplex(rng, count, y_size)
    ent, nrm = _block_measures(rng, n, alpha, count, y_size)
    return np.clip((py * ent).sum(axis=1), 0.0, math.log(n)), (py * nrm).sum(axis=1)


def _chunk_plan(samples: int, width: int) -> int:
    """Samples per chunk: at most _CHUNK samples and _BUDGET floats, each sample taking width floats."""
    if samples < 1:
        raise DomainError(f"samples={samples} must be >= 1")
    chunk = min(_CHUNK, _BUDGET // width)
    if chunk < 1:
        raise DomainError(f"a sample of {width} floats exceeds the {_BUDGET}-float chunk budget")
    return chunk


def _tally(samples: int, seed: int, chunk: int, slack: float, excesses) -> VerifyReport:
    """Count excesses above slack over chunks of chunk samples.

    excesses(count, chunk_index) gives the lower and upper excesses of one
    chunk (the upper may be None). Chunks draw from sub-seeds derived from
    (seed, chunk), so the report does not depend on how they are scheduled.
    """
    bad = [0, 0]
    max_excess = 0.0
    for chunk_index, done in enumerate(range(0, samples, chunk)):
        sides = excesses(min(chunk, samples - done), chunk_index)
        for side, excess in enumerate(sides):
            if excess is not None:
                if not np.isfinite(excess).all():  # NaN > slack is False: it would pass silently
                    raise NumericalError(f"non-finite envelope excess in chunk {chunk_index} of seed {seed}")
                bad[side] += int((excess > slack).sum())
                max_excess = max(max_excess, float(excess.max()))
    return VerifyReport(samples=samples, violations_lower=bad[0], violations_upper=bad[1],
                        max_excess=max_excess, seed=seed)


def _upper_screen(n: int, alpha: float, scale: float):
    """(h, norm) -> upper excess, with the exact kernel only where the excess may be >= 0.

    U is concave in h, so the chord through U at _NODES nodes on [0, ln n]
    lies under it. A sample below the chord by more than the margin keeps
    norm - chord, a negative upper bound on its excess: it can neither be a
    violation nor raise max_excess, which starts at 0. The rest, NaN norms
    included, go to the exact kernel; all do if the nodes' second
    differences exceed the margin, so the theorem is checked, not trusted.

    The margin, 1e-12 of the norms' scale, covers the kernel's rounding at
    the nodes and at the sample: it fell below the chord by at most 3.2e-15
    of the scale for n from 2 to 1e6 and orders from 0.05 to 1e6, at the
    tangency, nodes and ends too. Near h = 0 the kernel's error, U'(h) times
    an h-error well under h, is far below the gap to the chord, of order U'(h) h.
    """
    nodes = np.linspace(0.0, math.log(n), _NODES)
    values = bounds._envelope_upper_vec(n, alpha, nodes)
    margin = 1e-12 * scale
    if not (np.diff(values, 2) <= margin).all():  # NaN fails too
        margin = math.inf  # every sample goes to the exact kernel

    def excess(h: np.ndarray, norm: np.ndarray) -> np.ndarray:
        chord = np.interp(h, nodes, values)
        out = norm - chord
        exact = ~(norm < chord - margin)
        if exact.any():
            out[exact] = norm[exact] - bounds._envelope_upper_vec(n, alpha, h[exact])
        return out

    return excess


def verify_envelope(n: int, alpha: float, samples: int, seed: int, y_size: int = 4) -> VerifyReport:
    """Sample random joints and count envelope violations above 1e-9 of the norms' scale.

    The scale, max(1, ||u_n||_alpha), bounds every alpha-norm on n symbols:
    below order 1 the norms reach n^(1/alpha - 1), where rounding alone
    exceeds an absolute 1e-9. The upper envelope is checked only where it
    exists for (n, alpha). Every refusal comes before the first joint is drawn.
    """
    _check_sampling(n, y_size, seed)
    chunk = _chunk_plan(samples, y_size * n)
    scale = max(1.0, curves.norm_uniform(n, alpha))
    curves._check_order(alpha, finite=False)
    screen = _upper_screen(n, alpha, scale) if bounds.has_upper_envelope(n, alpha) else None

    def excesses(count: int, chunk_index: int):
        h, norm = _chunk_measures(n, y_size, alpha, count, seed, chunk_index)
        return bounds._envelope_lower_vec(n, alpha, h) - norm, None if screen is None else screen(h, norm)

    return _tally(samples, seed, chunk, 1e-9 * scale, excesses)


def verify_sandwich(n: int, alpha: float, samples: int, seed: int) -> VerifyReport:
    """Sample single distributions and check the unconditional norm sandwich.

    For each sampled point, the stepped-curve norm at its entropy must not
    exceed its alpha-norm, and the peaked-curve norm must not fall below it
    (at verify_envelope's scaled slack). Chunked and sub-seeded like verify_envelope.
    """
    _check_sampling(n, 1, seed)
    chunk = _chunk_plan(samples, n)
    slack = 1e-9 * max(1.0, curves.norm_uniform(n, alpha))

    def excesses(count: int, chunk_index: int):
        h, x = (a.reshape(count) for a in _block_measures(_chunk_rng(seed, chunk_index), n, alpha, count, 1))
        lo, hi = bounds._sandwich_at(n, alpha, h)
        return lo - x, x - hi

    return _tally(samples, seed, chunk, slack, excesses)


@lru_cache(maxsize=64)
def _sample_hull(n: int, alpha: float, grid_size: int, upper: bool) -> tuple[np.ndarray, np.ndarray]:
    """Upper hull of the peaked-curve samples, or lower hull of the stepped ones: vertices sorted by h.

    Andrew's monotone chain over the samples at t = i/G, taken by h and, at
    equal h, most extreme norm first, so that is the vertex a query there hits.
    i/G is exact for power-of-two G, so a halved grid's samples are a subset.
    """
    t = np.arange(grid_size + 1, dtype=np.float64) / grid_size
    if upper:
        p = t * (1.0 / n)
        hs, vs = curves.entropy_peaked(n, p), curves.norm_peaked(n, p, alpha)
    else:
        p = 1.0 / n + t * (1.0 - 1.0 / n)
        hs, vs = curves.entropy_stepped(n, p), curves.norm_stepped(n, p, alpha)
    sign = 1.0 if upper else -1.0
    order = np.lexsort((-sign * vs, hs))
    xs, ys = [], []
    for x, y in zip(hs[order].tolist(), vs[order].tolist()):
        # drop the last vertex while it lies on or inside the chord from the one before it to (x, y)
        while len(xs) >= 2 and sign * ((xs[-1] - xs[-2]) * (y - ys[-2]) - (ys[-1] - ys[-2]) * (x - xs[-2])) >= 0.0:
            xs.pop()
            ys.pop()
        xs.append(x)
        ys.append(y)
    return np.array(xs), np.array(ys)


def _hull_value(n: int, alpha: float, h: float, grid_size: int, upper: bool) -> float:
    if not 16 <= grid_size <= _BUDGET or grid_size != int(grid_size):  # NaN fails the range
        raise DomainError(f"grid_size={grid_size!r} must be an integer from 16 to {_BUDGET}")
    h = curves.clamp_entropy(n, h)
    xs, ys = _sample_hull(n, float(alpha), int(grid_size), upper)
    # float noise can leave the sampled curve a few ulp short of [0, ln n]
    h = min(max(h, float(xs[0])), float(xs[-1]))
    j = int(np.searchsorted(xs, h))
    if xs[j] == h:
        return float(ys[j])
    lam = (xs[j] - h) / (xs[j] - xs[j - 1])
    return float(lam * ys[j - 1] + (1.0 - lam) * ys[j])


def brute_force_upper(n: int, alpha: float, h: float, grid_size: int) -> float:
    """Upper hull boundary at h of the peaked-curve samples at t = i/G, one chord per query.

    Converges to the upper envelope from below as the grid refines; with
    power-of-two sizes a coarser grid's samples are a subset of a finer
    grid's, so refinement is monotone. The hull is cached per (n, alpha, G).
    """
    return _hull_value(n, alpha, h, grid_size, True)


def brute_force_lower(n: int, alpha: float, h: float, grid_size: int) -> float:
    """Lower hull boundary at h of the stepped-curve samples; cached and refined as brute_force_upper."""
    return _hull_value(n, alpha, h, grid_size, False)
