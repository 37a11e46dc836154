"""Seeded request streams for the four benchmark workloads.

A workload is a sequence of rounds. Round r is built from
``default_rng([seed, r])`` alone, so the requests are fixed by the seed,
and every round has the same composition (request kinds, order strata,
grid sizes). A run sends the workload's first ``rounds`` rounds, so the
set of requests, and so the attempted and failed counts, do not depend on
how fast the host is.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Request:
    kind: str  # "cli": args is an argv list; "hull": args is (side, n, alpha, h, grid)
    args: tuple
    units: int  # workload units this request completes
    meta: dict = field(default_factory=dict, compare=False)  # what the output check needs


@dataclass
class Workload:
    name: str
    unit: str
    round: object  # callable: round index -> list[Request]
    rounds: int  # rounds a run sends


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def _log_uniform_int(rng, lo: int, hi: int) -> int:
    return int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


# Orders drawn across the supported domain. Each (n, alpha) request takes
# the next stratum in turn, so every round holds the same share of each.
# No request in these strata fails at the seed commit: its p**alpha
# underflow starts near order 80 (tangent solve at n = 1e4) and spreads
# over orders 100..1000 with n and the file, so orders stop at 40 here.
ORDER_STRATA = (
    lambda r: float(r.uniform(0.5, 0.55)),  # near 1/2
    lambda r: float(r.uniform(0.55, 0.95)),
    lambda r: float(r.uniform(0.95, 0.9999)),  # near 1, below
    lambda r: float(r.uniform(1.0001, 1.05)),  # near 1, above
    lambda r: _log_uniform(r, 1.05, 10.0),
    lambda r: _log_uniform(r, 10.0, 40.0),
)


def large_order_pair(rng) -> tuple[int, float]:
    """(n, alpha) with n >= 2000 and order 300..1000, where n**-alpha < 1e-990.

    Every power p**alpha with p <= 1/n underflows to 0 there, so at the
    seed commit each eval/tangent request on such a pair raises. The
    stratum keeps that defect in the query mix with a failure count that
    does not depend on the seed.
    """
    return _log_uniform_int(rng, 2000, 10_000), _log_uniform(rng, 300.0, 1000.0)


# --------------------------------------------------------------------------
# sweep: `ent-norm verify`, the certification path and the numpy kernels.
# Small alphabets (64-step vector bisection in the upper envelope dominates)
# and one large alphabet (sampling and row kernels dominate; two full
# 16384-joint chunks of 4 x 256 rows, about 450 MB peak). (n, y, alpha,
# samples), listed by cost: the costs step by a quarter or more around the
# fourth request (the median) and the sixth (the 75th percentile), so
# those percentiles do not switch between configs from run to run.
SWEEP_CONFIGS = ((8, 4, 0.55, 16384), (3, 2, 1.5, 16384), (2, 2, 0.3, 16384), (2, 8, 4.0, 16384),
                 (8, 4, 2.0, 16384), (8, 8, 2.0, 32768), (256, 4, 2.0, 32768))


def sweep(seed: int, workdir: Path) -> Workload:
    def round_(r: int) -> list[Request]:
        rng = _rng(seed, r)
        out = []
        for n, y, a, samples in SWEEP_CONFIGS:
            s = int(rng.integers(0, 2**31))
            argv = ["verify", "--n", str(n), "--y-size", str(y), "--alpha", repr(a),
                    "--samples", str(samples), "--seed", str(s)]
            out.append(Request("cli", tuple(argv), samples,
                               {"cmd": "verify", "n": n, "y": y, "alpha": a, "samples": samples, "seed": s}))
        return out

    return Workload("sweep", "joints", round_, 1)


# --------------------------------------------------------------------------
# table: `ent-norm curve`, bulk export through scalar bisection per point.
# The cost of a row varies about threefold with n and the order, and a run
# has only a few requests, so each position of a round keeps its grid and
# the seed moves n by up to 2% and the order by up to 1% around fixed
# centres. The centres span n = 2..9000 and orders 0.55..30, and are
# placed so that latency bands stay apart, each about 1.6x or more from
# the next: two 256-row requests, three 512-row requests of near-equal
# cost with the median in their middle (a median of three best latencies
# is steadier than one), the 78th percentile (the tail) on the 1024-row
# request, and one 2048-row request. Grids stop at 2048: a request of
# 4096 rows takes about a second, and the host seldom stays fast for that
# long, so its best latency over a run's passes varied by a third.
TABLE_REQUESTS = ((256, 300, 0.7), (256, 6, 0.55), (512, 20, 1.3), (512, 40, 0.75), (512, 120, 3.0),
                  (1024, 2000, 8.0), (2048, 9000, 30.0))


def table(seed: int, workdir: Path) -> Workload:
    def round_(r: int) -> list[Request]:
        rng = _rng(seed, r)
        out = []
        for j, (g, n0, a0) in enumerate(TABLE_REQUESTS):
            n = max(2, int(round(n0 * rng.uniform(1.0, 1.02))))
            a = a0 * float(rng.uniform(0.99, 1.01))
            fmt = "csv" if (r + j) % 2 else "json"
            argv = ["curve", "--n", str(n), "--alpha", repr(a), "--grid", str(g), "--format", fmt]
            out.append(Request("cli", tuple(argv), g, {"cmd": "curve", "n": n, "alpha": a, "grid": g, "format": fmt}))
        return [out[k] for k in rng.permutation(len(out))]

    return Workload("table", "rows", round_, 1)


# --------------------------------------------------------------------------
# query: many small interactive requests, one point per call.
QUERY_ROUNDS = 24  # 960 requests, about 2 s a pass at the seed commit
QUERY_POOL = 12  # repeated (n, alpha) pairs, about a quarter of the pair-keyed requests
QUERY_MIX = ("eval_h",) * 12 + ("eval_N",) * 4 + ("eval_i",) * 4 + ("tangent",) * 8 + \
    ("eval_rho",) * 4 + ("measures",) * 4 + ("channel",) * 4
RHO_STRATA = (  # orders 1/(1+rho) from 0.25 to 40
    lambda r: float(r.uniform(-0.975, -0.5)),
    lambda r: float(r.uniform(-0.5, -0.01)),
    lambda r: float(r.uniform(0.01, 1.0)),
    lambda r: float(r.uniform(1.0, 3.0)),
)


def _simplex_rows(rng, rows: int, cols: int) -> list[list[float]]:
    e = rng.standard_exponential((rows, cols))
    return (e / e.sum(axis=1, keepdims=True)).tolist()


# File shapes are fixed, so the cost of `measures` and `channel` requests
# does not depend on the seed; only the probabilities do.
JOINT_SHAPES = ((2, 2), (3, 4), (5, 8), (8, 3), (13, 6), (21, 2), (34, 5), (64, 8))  # (n, y)
CHANNEL_SHAPES = ((2, 2), (3, 5), (5, 8), (8, 16), (16, 8), (32, 32), (64, 16), (64, 64))  # (n_in, n_out)


def write_query_files(seed: int, workdir: Path) -> tuple[list, list]:
    """Joint and channel files for `measures` / `channel`, alphabets up to 64."""
    rng = _rng(seed, 1 << 30)
    joints, channels = [], []
    for k, ((n, y), (n_in, n_out)) in enumerate(zip(JOINT_SHAPES, CHANNEL_SHAPES)):
        data = {"py": _simplex_rows(rng, 1, y)[0], "rows": _simplex_rows(rng, y, n)}
        path = workdir / f"joint{k}.json"
        path.write_text(json.dumps(data))
        joints.append((str(path), data))
        data = {"transitions": _simplex_rows(rng, n_in, n_out)}
        path = workdir / f"channel{k}.json"
        path.write_text(json.dumps(data))
        channels.append((str(path), data))
    return joints, channels


def query(seed: int, workdir: Path) -> Workload:
    joints, channels = write_query_files(seed, workdir)
    pool_rng = _rng(seed, 1 << 31)
    pool = [(_log_uniform_int(pool_rng, 2, 10_000), ORDER_STRATA[k % len(ORDER_STRATA)](pool_rng))
            for k in range(QUERY_POOL)]

    def round_(r: int) -> list[Request]:
        rng = _rng(seed, r)
        out = []
        keyed = 0
        for j, kind in enumerate(QUERY_MIX):
            if kind in ("eval_h", "eval_N", "eval_i", "tangent"):
                if keyed % 4 == 0:
                    n, a = pool[int(rng.integers(QUERY_POOL))]
                elif (keyed + r) % (len(ORDER_STRATA) + 1) == len(ORDER_STRATA):
                    n, a = large_order_pair(rng)
                else:
                    n, a = _log_uniform_int(rng, 2, 10_000), ORDER_STRATA[(keyed + r) % (len(ORDER_STRATA) + 1)](rng)
                keyed += 1
            meta = {"cmd": kind}
            if kind == "eval_h":
                h = float(rng.uniform(0.0, math.log(n)))
                argv = ["eval", "--n", str(n), "--alpha", repr(a), "--h", repr(h)]
                meta.update(n=n, alpha=a, h=h)
            elif kind == "eval_N":
                un = float(n) ** (1.0 / a - 1.0)
                norm = 1.0 + float(rng.uniform(0.02, 0.98)) * (un - 1.0)
                argv = ["eval", "--n", str(n), "--alpha", repr(a), "--N", repr(norm)]
                meta.update(n=n, alpha=a, norm=norm)
            elif kind == "eval_i":
                i = float(rng.uniform(0.0, math.log(n)))
                argv = ["eval", "--n", str(n), "--alpha", repr(a), "--i", repr(i)]
                meta.update(n=n, alpha=a, i=i)
            elif kind == "tangent":
                argv = ["tangent", "--n", str(n), "--alpha", repr(a)]
                meta.update(n=n, alpha=a)
            elif kind == "eval_rho":
                n = _log_uniform_int(rng, 2, 10_000)
                rho = RHO_STRATA[(j + r) % len(RHO_STRATA)](rng)
                i = float(rng.uniform(0.0, math.log(n)))
                argv = ["eval", "--n", str(n), "--rho", repr(rho), "--i", repr(i)]
                meta.update(n=n, rho=rho, i=i)
            elif kind == "measures":
                path, data = joints[(j + r) % len(joints)]
                a = ORDER_STRATA[(j + r) % len(ORDER_STRATA)](rng)
                argv = ["measures", "--alpha", repr(a), "--input", path]
                meta.update(alpha=a, data=data)
            else:
                path, data = channels[(j + r) % len(channels)]
                a = ORDER_STRATA[(j + r) % len(ORDER_STRATA)](rng)
                if j % 2:
                    argv = ["channel", "--alpha", repr(a), "--input", path]
                    meta.update(alpha=a, rho=1.0 / a - 1.0, data=data)
                else:
                    argv = ["channel", "--rho", repr(1.0 / a - 1.0), "--input", path]
                    meta.update(alpha=1.0 / (1.0 + (1.0 / a - 1.0)), rho=1.0 / a - 1.0, data=data)
            out.append(Request("cli", tuple(argv), 1, meta))
        order = rng.permutation(len(out))
        return [out[k] for k in order]

    return Workload("query", "requests", round_, QUERY_ROUNDS)


# --------------------------------------------------------------------------
# hull: the two-point-mixture oracle, called through its public functions.
HULL_PAIRS = 4  # 4 pairs x 5 grids = 20 keys per sample cache, below its 64 entries
HULL_GRIDS = (256, 512, 1024, 2048, 4096)
HULL_REPEATS = 3  # queries per key and side in a round; only the first is cold
HULL_STRATA = 8


def _entropy_peaked(n: int, p: float) -> float:
    q = 1.0 - (n - 1) * p
    return -q * math.log(q) - (n - 1) * p * math.log(p)


def _entropy_stepped(p: float) -> float:
    k = math.floor(1.0 / p)
    r = 1.0 - k * p
    return -k * p * math.log(p) - (r * math.log(r) if r > 0.0 else 0.0)


def hull(seed: int, workdir: Path) -> Workload:
    key_rng = _rng(seed, 1 << 31)
    pairs = [(_log_uniform_int(key_rng, 3, 64),
              float(key_rng.uniform(0.5, 0.95)) if k % 2 else _log_uniform(key_rng, 1.05, 5.0))
             for k in range(HULL_PAIRS)]

    def round_(r: int) -> list[Request]:
        rng = _rng(seed, r)
        out = []
        k = 0
        for _ in range(HULL_REPEATS):
            for n, a in pairs:
                for g in HULL_GRIDS:
                    for side in ("upper", "lower"):
                        # h splits the curve samples at a stratified share u, which
                        # fixes the left x right pair count, and so the cost, for any key
                        u = (((k + r) % HULL_STRATA) + float(rng.uniform(0.4, 0.6))) / HULL_STRATA
                        h = _entropy_peaked(n, u / n) if side == "upper" else _entropy_stepped(1.0 / n + u * (1.0 - 1.0 / n))
                        out.append(Request("hull", (side, n, a, h, g), 1, {"cmd": "hull", "args": (side, n, a, h, g)}))
                        k += 1
        return out

    return Workload("hull", "queries", round_, 1)


WORKLOADS = {"sweep": sweep, "table": table, "query": query, "hull": hull}
