"""Output checks, run after the timed region.

``structural`` runs on every response: exit code, parsing, field sets, row
counts, ``lower <= upper`` and zero violations. ``values`` compares a few
values of a response with the mpmath reference in ``reference`` (or, for
the hull oracle, with an explicit hull of the same curve samples) within
1e-9; the runner applies it to an evenly spaced subset of responses to
bound its cost; for ``verify``, whose report holds only counts, it
evaluates the program's vector envelope kernels at the entropies verify
feeds them. Each returns None when the response passes, or a one-line
reason.
"""

from __future__ import annotations

import json
import math

import mpmath as mp
import numpy as np

import reference as ref

SLACK = ref.TOL  # 1e-9

# Near this order and above the seed commit's p**alpha terms underflow:
# tangent solves raise from order ~80 at n = 1e4 (~200 at small n), and
# channel E0 comes out wrong from ~170. The query mix keeps such requests
# (workloads.large_order_pair) and they count as failed; a failure here
# does not by itself mark the run incorrect, so the known defect shows
# without hiding new failures elsewhere.
LARGE_ORDER = 50.0


def large_order(meta: dict) -> bool:
    a = meta.get("alpha") or (1.0 / (1.0 + meta["rho"]) if "rho" in meta else 0.0)
    return a >= LARGE_ORDER


def _le(a: float, b: float) -> bool:
    return a <= b + SLACK * max(1.0, abs(a), abs(b))


def _keys(obj, want: set) -> str | None:
    if not isinstance(obj, dict) or set(obj) != want:
        return f"fields {sorted(obj) if isinstance(obj, dict) else type(obj).__name__} != {sorted(want)}"
    return None


def _has_upper(n: int, alpha: float) -> bool:
    return n == 2 or alpha >= 0.5


EXPECTED_FIELDS = {
    "verify": {"samples", "seed", "violations_lower", "violations_upper", "max_excess"},
    "eval_h": {"n", "alpha", "h", "lower", "upper"},
    "eval_N": {"n", "alpha", "norm", "h_lower", "h_upper"},
    "eval_i": {"n", "alpha", "i", "mutual_lower", "mutual_upper"},
    "eval_rho": {"n", "rho", "i", "e0_lower", "e0_upper"},
    "tangent": {"n", "alpha", "p_star", "h_star", "norm_star", "h_inflection", "p_inflection"},
    "measures": {"n", "alpha", "h", "expected_norm", "renyi", "rnorm", "lower", "upper",
                 "on_lower_boundary", "on_upper_boundary"},
    "channel": {"n_in", "alpha", "rho", "mutual", "mutual_alpha", "e0", "identity_residual",
                "e0_lower", "e0_upper"},
}


def parse(meta: dict, out: str):
    """The response as data: curve rows as a list of 5-tuples, else a JSON object."""
    if meta["cmd"] != "curve":
        return json.loads(out)
    if meta["format"] == "json":
        obj = json.loads(out)
        if _keys(obj, {"n", "alpha", "h", "norm_peaked", "norm_stepped", "lower", "upper"}):
            raise ValueError("curve json fields")
        cols = [obj[k] for k in ("h", "norm_peaked", "norm_stepped", "lower")]
        cols.append(obj["upper"] if obj["upper"] is not None else [None] * len(cols[0]))
        return list(zip(*cols))
    lines = out.split("\n")
    if lines[0] != "h,norm_peaked,norm_stepped,lower,upper" or lines[-1] != "":
        raise ValueError("csv header or trailing newline")
    return [tuple(float(c) if c else None for c in line.split(",")) for line in lines[1:-1]]


def structural(meta: dict, data) -> str | None:
    cmd = meta["cmd"]
    if cmd == "hull":
        return None if isinstance(data, float) and math.isfinite(data) else f"non-finite {data!r}"
    if cmd == "curve":
        n, g = meta["n"], meta["grid"]
        if len(data) != g:
            return f"{len(data)} rows for grid {g}"
        lnn = math.log(n)
        for i, row in enumerate(data):
            if len(row) != 5 or None in row[:4] or (row[4] is None) == _has_upper(n, meta["alpha"]):
                return f"row {i} malformed: {row}"
            h, vp, vs, lo, up = row
            if abs(h - lnn * i / (g - 1)) > 1e-12 * lnn:
                return f"row {i}: h={h} off the grid"
            if up is not None and not (_le(lo, min(vp, vs)) and _le(max(vp, vs), up)):
                return f"row {i}: curves {vp}, {vs} outside envelope [{lo}, {up}]"
        return None
    bad = _keys(data, EXPECTED_FIELDS[cmd])
    if bad:
        return bad
    if cmd == "verify":
        if data["samples"] != meta["samples"] or data["seed"] != meta["seed"]:
            return f"report echoes samples={data['samples']} seed={data['seed']}"
        if data["violations_lower"] or data["violations_upper"] or not 0.0 <= data["max_excess"] <= SLACK:
            return f"violations reported: {data}"
        return None
    pairs = {"eval_h": ("lower", "upper"), "eval_N": ("h_lower", "h_upper"),
             "eval_i": ("mutual_lower", "mutual_upper"), "eval_rho": ("e0_lower", "e0_upper"),
             "measures": ("lower", "upper"), "channel": ("e0_lower", "e0_upper")}
    if cmd in pairs:
        lo, hi = (data[k] for k in pairs[cmd])
        if hi is None or (lo is not None and not _le(lo, hi)):
            return f"{pairs[cmd]} = ({lo}, {hi}) not ordered"
    if cmd == "tangent" and not 0.0 < data["p_star"] <= 1.0 / data["n"]:
        return f"p_star={data['p_star']} outside (0, 1/n]"
    return None


def _close_all(pairs) -> str | None:
    for name, got, want in pairs:
        if want is None or got is None:
            if (want is None) != (got is None):
                return f"{name}: got {got}, reference {want}"
            continue
        if not ref.close(got, want):
            return f"{name}: got {got!r}, reference {mp.nstr(want, 17)}"
    return None


def _brackets(env, n: int, h: float, target: float) -> bool:
    """Whether env at h -/+ 1e-9 (clamped to [0, ln n]) brackets target."""
    lnn = math.log(n)
    a = env(max(h - SLACK, 0.0))
    b = env(min(h + SLACK, lnn))
    return min(a, b) - 1e-12 <= target <= max(a, b) + 1e-12


def values(meta: dict, data, bounds) -> str | None:
    """Reference comparison of one response; `bounds` is the program's bounds module."""
    cmd = meta["cmd"]
    if cmd == "hull":
        side, n, a, h, g = meta["args"]
        want = ref.hull_value(n, a, h, g, side == "upper")
        if abs(data - want) > SLACK:
            return f"hull value {data!r}, explicit hull {want!r}"
        env = ref.upper(n, a, h) if side == "upper" else ref.lower(n, a, h)
        if (side == "upper" and not _le(data, float(env))) or (side == "lower" and not _le(float(env), data)):
            return f"hull value {data!r} beyond the envelope {mp.nstr(env, 17)}"
        return None
    if cmd == "verify":
        return _verify_values(meta, bounds)
    if cmd == "curve":
        n, a, g = meta["n"], meta["alpha"], meta["grid"]
        picks = sorted(set(np.random.default_rng([n, g]).integers(0, g, 3).tolist()) | {g - 1})
        for i in picks:
            h, vp, vs, lo, up = data[i]
            bad = _close_all([
                (f"row {i} norm_peaked", vp, ref.norm_peaked_at(n, h, a)),
                (f"row {i} norm_stepped", vs, ref.norm_stepped_at(n, h, a)),
                (f"row {i} lower", lo, ref.lower(n, a, h)),
                (f"row {i} upper", up, ref.upper(n, a, h)),
            ])
            if bad:
                return bad
        return None
    if cmd == "eval_h":
        n, a, h = meta["n"], meta["alpha"], meta["h"]
        return _close_all([("lower", data["lower"], ref.lower(n, a, h)), ("upper", data["upper"], ref.upper(n, a, h))])
    if cmd == "eval_N":
        n, a, norm = meta["n"], meta["alpha"], meta["norm"]
        by_upper = data["h_lower"] if a < 1.0 else data["h_upper"]
        by_lower = data["h_upper"] if a < 1.0 else data["h_lower"]
        if not _brackets(lambda x: float(ref.upper(n, a, x)), n, by_upper, norm):
            return f"upper envelope at h={by_upper!r} misses norm {norm!r}"
        if not _brackets(lambda x: float(ref.lower(n, a, x)), n, by_lower, norm):
            return f"lower envelope at h={by_lower!r} misses norm {norm!r}"
        return None
    if cmd == "eval_i":
        lo, hi = ref.mutual_range(meta["n"], meta["alpha"], meta["i"])
        return _close_all([("mutual_lower", data["mutual_lower"], lo), ("mutual_upper", data["mutual_upper"], hi)])
    if cmd == "eval_rho":
        n, rho = meta["n"], meta["rho"]
        lo, hi = ref.e0_range(n, rho, meta["i"])
        if not _has_upper(n, 1.0 / (1.0 + rho)):
            lo = None
        return _close_all([("e0_lower", data["e0_lower"], lo), ("e0_upper", data["e0_upper"], hi)])
    if cmd == "tangent":
        return _tangent_values(meta, data)
    if cmd == "measures":
        a = meta["alpha"]
        rows = meta["data"]["rows"]
        n = len(rows[0])
        h, nrm = ref.joint_measures(meta["data"]["py"], rows, a)
        return _close_all([
            ("h", data["h"], h), ("expected_norm", data["expected_norm"], nrm),
            ("renyi", data["renyi"], ref.renyi_map(a, nrm)),
            ("rnorm", data["rnorm"], mp.mpf(a) / (mp.mpf(a) - 1) * (1 - nrm)),
            ("lower", data["lower"], ref.lower(n, a, h)),
            ("upper", data["upper"], ref.upper(n, a, h) if _has_upper(n, a) else None),
        ])
    if cmd == "channel":
        t = meta["data"]["transitions"]
        n = len(t)
        a, rho = meta["alpha"], meta["rho"]
        py, rows = ref.channel_posterior(t)
        lnn = mp.log(n)
        h1, nrm = ref.joint_measures(py, rows, a)
        mutual = min(max(lnn - h1, 0), lnn)
        mutual_a = lnn - (h1 if a == 1.0 else ref.renyi_map(a, nrm))
        lo, hi = ref.e0_range(n, rho, mutual)
        if not _has_upper(n, a):
            lo = None
        bad = _close_all([
            ("mutual", data["mutual"], mutual), ("mutual_alpha", data["mutual_alpha"], mutual_a),
            ("e0", data["e0"], ref.gallager_e0(t, rho)), ("e0_lower", data["e0_lower"], lo),
            ("e0_upper", data["e0_upper"], hi),
        ])
        if bad is None and not data["identity_residual"] <= SLACK:
            bad = f"identity_residual {data['identity_residual']}"
        return bad
    return None


def _tangent_values(meta: dict, data) -> str | None:
    """h_star and norm_star at p_star to 1e-9; p_star as the minimiser of the chord slope.

    The straight part of the upper envelope is fixed by the minimal chord
    slope, which is flat in p at its minimiser, so the slope is compared to
    1e-9 and the location only to a relative 1e-6.
    """
    n, a, p = meta["n"], meta["alpha"], data["p_star"]
    bad = _close_all([
        ("h_star at p_star", data["h_star"], ref.h_peaked(n, p)),
        ("norm_star at p_star", data["norm_star"], ref.norm_peaked(n, p, a)),
    ])
    if bad:
        return bad
    if n == 2:
        if p != 0.5 or data["p_inflection"] is not None or data["h_inflection"] is not None:
            return "n=2 must give p_star=1/2 and no inflection"
        return None
    p_ref, _, _, slope = ref.tangent(n, a)
    if abs(p - p_ref) > 1e-6 * p_ref:
        return f"p_star {p!r}, reference {mp.nstr(p_ref, 17)}"
    if not ref.close(ref.chord_slope(n, a, p), slope):
        return f"chord slope at p_star {mp.nstr(ref.chord_slope(n, a, p), 17)}, minimum {mp.nstr(slope, 17)}"
    pi = mp.mpf(data["p_inflection"])
    if not ref.close(data["h_inflection"], ref.h_peaked(n, pi)):
        return f"h_inflection {data['h_inflection']!r} is not the entropy at p_inflection"
    below = ref.curvature(n, a, pi * (1 - mp.mpf("1e-7")))
    above = ref.curvature(n, a, min(pi * (1 + mp.mpf("1e-7")), (1 - mp.mpf("1e-20")) / n))
    if not (below < 0 < above):
        return f"curvature does not change sign at p_inflection={data['p_inflection']!r}"
    return None


VERIFY_JOINTS = 8  # joints of chunk 0 redrawn per checked verify response
VERIFY_GRID = 9  # evenly spread entropies on [0, ln n], covering both parts of the upper envelope


def vec_kernel(bounds, side: str):
    """The program's vectorised envelope for `side`: the function of `bounds` named (_)envelope_<side>_vec."""
    for name, fn in vars(bounds).items():
        if callable(fn) and name.lstrip("_") == f"envelope_{side}_vec":
            return fn
    raise LookupError(f"no envelope_{side}_vec kernel in {bounds.__name__}")


def _verify_values(meta: dict, bounds) -> str | None:
    """The envelopes verify compares against, and the first joints it draws, against the reference.

    A verify report holds only counts, and a loosened envelope kernel gives
    fewer violations, never more. So the program's vector kernels (the ones
    verify calls) are evaluated at the entropies of the first joints of
    chunk 0, redrawn with the same documented seeding as
    ``oracle.sample_joint_batch``, and at evenly spread entropies, and
    compared with the reference envelopes within 1e-9. The redrawn joints'
    norms must also lie inside the reference envelopes.
    """
    n, y, a, seed = meta["n"], meta["y"], meta["alpha"], meta["seed"]
    count = min(1 << 14, meta["samples"])
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    e = rng.standard_exponential(size=(count, y))
    py = e / e.sum(axis=1, keepdims=True)
    rows = rng.standard_exponential(size=(VERIFY_JOINTS, y, n))
    rows /= rows.sum(axis=2, keepdims=True)
    lnn = math.log(n)
    hs = [lnn * k / (VERIFY_GRID - 1) for k in range(VERIFY_GRID)]
    for k in range(VERIFY_JOINTS):
        h, nrm = ref.joint_measures(py[k].tolist(), rows[k].tolist(), a)
        hs.append(min(float(h), lnn))
        if not _le(float(ref.lower(n, a, h)), float(nrm)):
            return f"joint {k}: norm {mp.nstr(nrm, 17)} below the reference lower envelope"
        if _has_upper(n, a) and not _le(float(nrm), float(ref.upper(n, a, h))):
            return f"joint {k}: norm {mp.nstr(nrm, 17)} above the reference upper envelope"
    sides = [("lower", ref.lower)] + ([("upper", ref.upper)] if _has_upper(n, a) else [])
    for side, want in sides:
        got = vec_kernel(bounds, side)(n, a, np.array(hs))
        bad = _close_all((f"{side} envelope kernel at h={h!r}", float(g), want(n, a, h)) for h, g in zip(hs, got))
        if bad:
            return bad
    return None
