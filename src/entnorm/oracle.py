"""Ground-truth machinery: achieving witnesses, random joints, hull search.

Nothing here trusts the envelope formulas. The witnesses realize the
boundary by construction, the Monte Carlo verifier samples joints
uniformly and counts violations, and the brute-force functions rebuild
the hull boundary from two-point mixtures of raw curve samples. Two-point
mixtures suffice: a planar convex-hull boundary point at a fixed first
coordinate is a convex combination of at most two extreme points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import bounds, curves
from .measures import JointDist
from .simplex import DomainError, NumericalError, alpha_norm, make_peaked, make_stepped, make_uniform, shannon_entropy
from .simplex import np

# _CHUNK and _BUDGET fix the seeding unit: a chunk's joints come from one
# sub-seed, so changing either changes the reports. _BLOCK changes no result,
# only memory and speed: a chunk's rows are drawn and reduced _BLOCK entries
# (256 KB) at a time, so a slice and the row kernels' temporaries fit in a
# 2 MiB L2 cache instead of streaming the whole chunk through DRAM.
_CHUNK = 1 << 14  # joints per chunk
_BUDGET = 1 << 24  # row entries per chunk (16384 joints of 4 x 256); wider joints are refused
_BLOCK = 1 << 15  # row entries held in memory at a time


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of a Monte Carlo envelope sweep (violations at 1e-9 slack)."""

    samples: int
    violations_lower: int
    violations_upper: int
    max_excess: float
    seed: int


def witness_min(n: int, h: float) -> JointDist:
    """Two-outcome joint achieving the lower envelope at entropy h exactly.

    Mixes the uniform-on-m and uniform-on-(m+1) rows (as stepped vectors)
    with the weight that lands the conditional entropy on h.
    """
    curves._check_n(n)
    m, lam = bounds._lower_chord(n, curves.clamp_entropy(n, h))
    if m >= n:
        return JointDist(py=(1.0,), rows=(make_uniform(n),))
    rows = (make_stepped(n, 1.0 / m), make_stepped(n, 1.0 / (m + 1)))
    return JointDist(py=(lam, 1.0 - lam), rows=rows)


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
        return JointDist(py=(1.0,), rows=(row,))
    lam = (lnn - h) / (lnn - ts.h)
    return JointDist(py=(lam, 1.0 - lam), rows=(make_peaked(n, ts.p), make_uniform(n)))


def _sample_simplex(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Uniform points on the simplex (the last axis) via normalized exponential spacings."""
    e = rng.standard_exponential(size=shape)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _check_sampling(n: int, y_size: int, seed: int) -> None:
    if n < 2 or y_size < 1:
        raise DomainError(f"need n >= 2 and y_size >= 1, got n={n}, y_size={y_size}")
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
    rng = _chunk_rng(seed, chunk_index)
    return _sample_simplex(rng, count, y_size), _sample_simplex(rng, count, y_size, n)


def _chunk_measures(
    n: int, y_size: int, alpha: float, count: int, seed: int, chunk_index: int
) -> tuple[np.ndarray, np.ndarray]:
    """Conditional entropy (clipped to [0, ln n]) and expected alpha-norm of a chunk's joints.

    The joints are those of sample_joint_batch with the same arguments:
    the rows are drawn from the same generator in slices of about _BLOCK
    entries, and sequential fills continue one stream, so the values are
    bitwise those of the whole batch while memory stays at a few slices.
    """
    rng = _chunk_rng(seed, chunk_index)
    py = _sample_simplex(rng, count, y_size)
    ent = np.empty((count, y_size))
    nrm = np.empty((count, y_size))
    step = max(1, _BLOCK // (y_size * n))
    for lo in range(0, count, step):
        rows = _sample_simplex(rng, min(step, count - lo), y_size, n)
        ent[lo : lo + step] = shannon_entropy(rows)
        nrm[lo : lo + step] = alpha_norm(rows, alpha)
    return np.clip((py * ent).sum(axis=1), 0.0, math.log(n)), (py * nrm).sum(axis=1)


def _tally(samples: int, seed: int, width: int, excesses) -> VerifyReport:
    """Count excesses above 1e-9 over fixed chunks of the samples.

    Each sample takes width floats, and a chunk holds at most _CHUNK
    samples and _BUDGET floats. excesses(count, chunk_index) gives the
    lower and upper excesses of one chunk (the upper may be None). Chunks
    draw from sub-seeds derived from (seed, chunk), so the report does not
    depend on how they are scheduled.
    """
    if samples < 1:
        raise DomainError(f"samples={samples} must be >= 1")
    chunk = min(_CHUNK, _BUDGET // width)
    if chunk < 1:
        raise DomainError(f"a sample of {width} floats exceeds the {_BUDGET}-float chunk budget")
    bad = [0, 0]
    max_excess = 0.0
    for chunk_index, done in enumerate(range(0, samples, chunk)):
        for side, excess in enumerate(excesses(min(chunk, samples - done), chunk_index)):
            if excess is not None:
                if not np.isfinite(excess).all():  # NaN > 1e-9 is False: it would pass silently
                    raise NumericalError(f"non-finite envelope excess in chunk {chunk_index} of seed {seed}")
                bad[side] += int((excess > 1e-9).sum())
                max_excess = max(max_excess, float(excess.max()))
    return VerifyReport(
        samples=samples,
        violations_lower=bad[0],
        violations_upper=bad[1],
        max_excess=max_excess,
        seed=seed,
    )


def verify_envelope(n: int, alpha: float, samples: int, seed: int, y_size: int = 4) -> VerifyReport:
    """Sample random joints and count envelope violations at tolerance 1e-9.

    The upper envelope is checked only where it exists for (n, alpha).
    """
    _check_sampling(n, y_size, seed)
    check_upper = bounds.has_upper_envelope(n, alpha)

    def excesses(count: int, chunk_index: int):
        h, norm = _chunk_measures(n, y_size, alpha, count, seed, chunk_index)
        excess_up = norm - bounds._envelope_upper_vec(n, alpha, h) if check_upper else None
        return bounds._envelope_lower_vec(n, alpha, h) - norm, excess_up

    return _tally(samples, seed, y_size * n, excesses)


def verify_sandwich(n: int, alpha: float, samples: int, seed: int) -> VerifyReport:
    """Sample single distributions and check the unconditional norm sandwich.

    For each sampled point, the stepped-curve norm at its entropy must not
    exceed its alpha-norm, and the peaked-curve norm must not fall below it
    (tolerance 1e-9). Chunked and sub-seeded like verify_envelope.
    """
    _check_sampling(n, 1, seed)

    def excesses(count: int, chunk_index: int):
        pts = _sample_simplex(_chunk_rng(seed, chunk_index), count, n)
        lo, hi = bounds.sandwich_norm(pts, alpha)
        x = alpha_norm(pts, alpha)
        return lo - x, x - hi

    return _tally(samples, seed, n, excesses)


@lru_cache(maxsize=64)
def _peaked_samples(n: int, alpha: float, grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    # i/G is exact for power-of-two G, so halved grids are exact subsets
    t = np.arange(grid_size + 1, dtype=np.float64) / grid_size
    p = t * (1.0 / n)
    return curves.entropy_peaked(n, p), curves.norm_peaked(n, p, alpha)


@lru_cache(maxsize=64)
def _stepped_samples(n: int, alpha: float, grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    t = np.arange(grid_size + 1, dtype=np.float64) / grid_size
    p = 1.0 / n + t * (1.0 - 1.0 / n)
    return curves.entropy_stepped(n, p), curves.norm_stepped(n, p, alpha)


def _mixture_extreme(h_pts: np.ndarray, n_pts: np.ndarray, h: float, want_max: bool) -> float:
    """Best two-point mixture value at abscissa h over the sampled curve."""
    # float noise can leave the sampled curve a few ulp short of [0, ln n]
    h = min(max(h, float(h_pts.min())), float(h_pts.max()))
    left = h_pts <= h
    right = h_pts >= h
    hl, nl = h_pts[left], n_pts[left]
    hr, nr = h_pts[right], n_pts[right]
    span = hr[None, :] - hl[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = (hr[None, :] - h) / span
        vals = lam * nl[:, None] + (1.0 - lam) * nr[None, :]
    ok = span > 0.0
    best = float(np.max(np.where(ok, vals, -np.inf))) if want_max else float(
        np.min(np.where(ok, vals, np.inf))
    )
    exact = h_pts == h
    if exact.any():
        hit = n_pts[exact]
        cand = float(hit.max() if want_max else hit.min())
        best = max(best, cand) if want_max else min(best, cand)
    return best


def brute_force_upper(n: int, alpha: float, h: float, grid_size: int) -> float:
    """Hull upper boundary at h from two-point mixtures of peaked-curve samples.

    Converges to the upper envelope from below as the grid refines; with
    power-of-two sizes a coarser grid's candidates are a subset of a finer
    grid's, so refinement is monotone.
    """
    if grid_size < 16:
        raise DomainError(f"grid_size={grid_size} must be >= 16")
    h = curves.clamp_entropy(n, h)
    hs, ns = _peaked_samples(n, float(alpha), grid_size)
    return _mixture_extreme(hs, ns, h, want_max=True)


def brute_force_lower(n: int, alpha: float, h: float, grid_size: int) -> float:
    """Hull lower boundary at h from two-point mixtures of stepped-curve samples."""
    if grid_size < 16:
        raise DomainError(f"grid_size={grid_size} must be >= 16")
    h = curves.clamp_entropy(n, h)
    hs, ns = _stepped_samples(n, float(alpha), grid_size)
    return _mixture_extreme(hs, ns, h, want_max=False)
