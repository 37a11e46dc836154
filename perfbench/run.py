"""entnorm benchmark: one closed-loop client driving the CLI and the hull oracle.

    python3 perfbench/run.py --workload {sweep,table,query,hull} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``. One client in this process sends each request only after the
previous one returned: argv lists go to ``entnorm.cli.main`` with stdout
captured, hull queries to ``entnorm.oracle.brute_force_upper/_lower``.
A run sends the workload's fixed number of rounds (workloads.py), so its
requests depend on the seed alone.

The host's speed swings by up to half between stretches of a few seconds
(contention from outside this process). So a run makes passes over the
same requests, each from cold caches and on the next of the process's
CPUs in turn, until the run's time is spent, and takes each request's
latency as its best over the passes. Throughput and the median and tail
latencies all use the best latencies: the tail is the slowest requests,
not the host's slow moments. A stall the program makes in the same
request in every pass shows in it; one that moves between requests from
pass to pass, as a garbage collection may, does not. The fresh-interpreter
imports that give setup_s run between the passes, so their median spans
the run too. Every output is checked after the timed region (see
checks.py), and later passes must repeat the first pass's responses
exactly. A request fails if it raises, exits non-zero or fails a check;
any such failure at an order below checks.LARGE_ORDER sets `correct`
false. `attempted` and `failed` count each distinct request once, however
many passes repeat it.

--trace 0 prints the end-to-end metrics. --trace 1 runs the workload
untraced in half the time, then traced (tracer.py) over the same rounds,
and prints the per-layer metrics per pass and the tracing overhead. The
last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import workloads
from tracer import MODULES, Tracer, lru_caches

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 15  # fresh-interpreter imports per run at least: one after every pass, the rest at the end
VALUE_CHECKS = 120  # responses per segment compared with the mpmath reference

# Tail percentile per workload over the requests' best latencies, inside
# one latency band of the round's composition so that it does not jump
# between request kinds from run to run. One request lies beyond it in
# sweep and table (seven requests each), 12 in hull and 48 in query.
TAIL_PERCENTILE = {"sweep": 75.0, "table": 78.0, "query": 95.0, "hull": 90.0}


@dataclass
class Segment:
    """Responses of the first pass, and each request's latencies in every pass."""

    passes: int = 0
    records: list = field(default_factory=list)  # (request, exit code, output, exception text)
    times: list = field(default_factory=list)  # per request: seconds in each pass
    differs: dict = field(default_factory=dict)  # request index -> later pass whose response differed
    out_bytes: int = 0  # stdout of the first pass

    @property
    def best(self) -> list:
        return [min(t) for t in self.times]

    @property
    def elapsed(self) -> float:
        return sum(self.best)


def _serial(req, workdir: Path) -> bytes:
    return json.dumps([req.kind, list(req.args)]).replace(str(workdir), "<work>").encode()


def fresh_import() -> float:
    """Wall time of ``import entnorm.cli`` in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import entnorm.cli; d = time.perf_counter() - t; import entnorm; "
        "assert entnorm.__file__.startswith(sys.argv[1]), entnorm.__file__; print(repr(d))"
    )
    res = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)], capture_output=True,
                         text=True, timeout=120, cwd=ROOT)
    if res.returncode != 0:
        raise RuntimeError(f"fresh import failed: {res.stderr.strip()}")
    return float(res.stdout)


class Client:
    def __init__(self, entnorm):
        self.entnorm = entnorm
        self.caches = lru_caches(entnorm)  # found before tracing replaces them with wrappers
        self.cpus = sorted(os.sched_getaffinity(0))

    def _pin(self, k: int) -> None:
        """Run pass k on one CPU, taking the CPUs in turn.

        A neighbour that loads the host core under one CPU can halve its
        speed for many seconds; alternating passes between CPUs lets each
        request's best latency come from a CPU that was not slowed.
        """
        os.sched_setaffinity(0, {self.cpus[k % len(self.cpus)]})

    def send(self, req):
        """(exit code, output, exception text); lookups go through module attributes so tracing sees them."""
        try:
            if req.kind == "hull":
                side, n, alpha, h, grid = req.args
                fn = self.entnorm.oracle.brute_force_upper if side == "upper" else self.entnorm.oracle.brute_force_lower
                return 0, fn(n, alpha, h, grid), None
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.entnorm.cli.main(list(req.args))
            return rc, out.getvalue(), err.getvalue()
        except Exception as exc:  # a failed request; the loop goes on
            return None, None, f"{type(exc).__name__}: {exc}"

    def _timed(self, req):
        t0 = perf_counter()
        rc, out, exc = self.send(req)
        return rc, out, exc, perf_counter() - t0

    def _clear_caches(self) -> None:
        for cache in self.caches.values():
            cache.cache_clear()  # also zeroes the hit and miss counts

    def run(self, wl, seconds: float, passes: int | None = None, between=None) -> Segment:
        """Passes over the workload's rounds, each from cold caches.

        Passes repeat until `seconds` of request time are spent (at least
        two passes in all), or exactly `passes` passes. `between`, if
        given, is called after every pass, outside the request time.
        """
        seg = Segment()
        self._clear_caches()
        spent = 0.0
        self._pin(0)
        for r in range(wl.rounds):
            for req in wl.round(r):
                rc, out, exc, dt = self._timed(req)
                spent += dt
                seg.times.append([dt])
                seg.records.append((req, rc, out, exc))
                seg.out_bytes += len(out) if isinstance(out, str) else 0
        seg.passes = 1
        if between:
            between()
        while (seg.passes < passes) if passes is not None else (seg.passes < 2 or spent < seconds):
            self._clear_caches()
            self._pin(seg.passes)
            for i, (req, *first) in enumerate(seg.records):
                rc, out, exc, dt = self._timed(req)
                spent += dt
                seg.times[i].append(dt)
                if [rc, out, exc] != first:
                    seg.differs.setdefault(i, seg.passes)
            seg.passes += 1
            if between:
                between()
        os.sched_setaffinity(0, self.cpus)
        return seg


def check(seg: Segment, bounds) -> tuple[list, int, list]:
    """Check every response; return (per-request ok flags, incorrect count, failures).

    A request that raises, exits non-zero (`verify` exits 3 on violations)
    or fails a check is a failure. Failures at large orders
    (checks.large_order) are the seed commit's known defect: they count as
    failed but are not incorrect. Every other failure is incorrect.
    `bounds` is the program's module, whose vector kernels the `verify`
    value check evaluates.
    """
    n = len(seg.records)
    picks = {round(k * (n - 1) / (VALUE_CHECKS - 1)) for k in range(VALUE_CHECKS)} if n > VALUE_CHECKS else set(range(n))
    ok, wrong, failures = [], 0, []
    for idx, (req, rc, out, exc) in enumerate(seg.records):
        reason = None
        if rc is None:
            reason = f"raised {exc}"
        elif rc != 0:
            reason = f"exit {rc}: {exc.strip()}"
        else:
            if idx in seg.differs:
                reason = f"response of pass {seg.differs[idx] + 1} differs from pass 1"
            else:
                try:
                    data = out if req.kind == "hull" else checks.parse(req.meta, out)
                    reason = checks.structural(req.meta, data)
                    if reason is None and idx in picks:
                        reason = checks.values(req.meta, data, bounds)
                except Exception as e:  # an unparseable or unexpected response is a wrong output
                    reason = f"check raised {type(e).__name__}: {e}"
                if reason is not None:
                    reason = "wrong output: " + reason
        if reason is not None and checks.large_order(req.meta):
            reason = "at a large order, " + reason
        elif reason is not None:
            wrong += 1
            reason = "INCORRECT, " + reason
        ok.append(reason is None)
        if reason is not None:
            failures.append((req, reason))
    return ok, wrong, failures


def tail(latencies_ms: list, q: float) -> tuple[float, int]:
    """Nearest-rank q-th percentile and the number of samples beyond it."""
    s = sorted(latencies_ms)
    rank = max(1, math.ceil(q / 100.0 * len(s)))
    return s[rank - 1], len(s) - rank


def _argv(req) -> str:
    if req.kind == "hull":
        side, n, a, h, g = req.args
        return f"brute_force_{side}(n={n}, alpha={a!r}, h={h!r}, grid_size={g})"
    return "ent-norm " + " ".join(req.args)


def report_failures(failures: list, workdir: Path) -> None:
    """Every failed request by argv, grouped by reason (exception type for raises)."""
    shown = {}
    for req, reason in failures:
        shown.setdefault(reason.split(":")[0] if ", raised " in reason else reason, []).append(req)
    for reason, reqs in shown.items():
        print(f"failed: {len(reqs)} x {reason}")
        for req in reqs:
            print(f"    {_argv(req)}".replace(str(workdir), "<work>"))


def layer_metrics(tr: Tracer, caches: dict, seg: Segment, overhead: float) -> tuple[dict, list]:
    """Per-layer metrics (name -> (value, unit)) per pass, and the reasons for any absent ones.

    Caches are cleared at the start of every pass, so their counts are the last pass's.
    """
    m, absent = {}, []
    fn = tr.fn_calls
    per = seg.passes

    def count_of(name: str, keys: list[str], unit: str = "count") -> None:
        missing = [k for k in keys if not _defined(tr, k)]
        if len(missing) == len(keys):
            absent.append(f"{name}: no {' / '.join(keys)} in this source tree")
        m[name] = (sum(fn[k] for k in keys) / per, unit)

    def ratio(name: str, keys: list[str]) -> None:
        hits = sum(caches[k].cache_info().hits for k in keys)
        misses = sum(caches[k].cache_info().misses for k in keys)
        m[name + "_hits"] = (float(hits), "count")
        m[name + "_misses"] = (float(misses), "count")
        if hits + misses == 0:
            absent.append(f"{name}_hit_ratio: no lookups of {' / '.join(keys)} in this workload")
        m[name + "_hit_ratio"] = ((hits / (hits + misses)) if hits + misses else 0.0, "ratio")

    for layer in MODULES:
        m[f"{layer}.self_s"] = (tr.self_s[layer] / per, "s")
        m[f"{layer}.calls"] = (tr.calls[layer] / per, "count")
    m["cli.out_bytes"] = (float(seg.out_bytes), "bytes")
    count_of("curves.entropy_evals", ["curves.entropy_peaked", "curves.entropy_stepped"])
    count_of("curves.tangent_solves", ["curves.solve_tangent_generic"])
    count_of("curves.inflection_calls", ["curves.inflection_point"])
    ratio("curves.tangent_cache", [k for k in caches if k.startswith("curves.")])
    count_of("bounds.scalar_envelope_calls",
             ["bounds.envelope_lower", "bounds.envelope_upper", "bounds.envelope_upper_half"])
    m["bounds.vec_self_s"] = (tr.self_s["bounds.vec"] / per, "s")
    m["bounds.vec_elements"] = (tr.vec_elements / per, "count")
    m["oracle.sample_self_s"] = (tr.self_s["oracle.sample"] / per, "s")
    m["oracle.row_kernel_self_s"] = (tr.self_s["oracle.row_kernel"] / per, "s")
    m["oracle.sample_bytes"] = (tr.sample_bytes / per, "bytes")
    m["oracle.hull_self_s"] = (tr.self_s["oracle.hull"] / per, "s")
    ratio("oracle.hull_cache", [k for k in caches if k.startswith("oracle.")])
    m["oracle.hull_pair_bytes"] = (tr.pair_bytes / per, "bytes")
    if not _defined(tr, "oracle._mixture_extreme"):
        absent.append("oracle.hull_pair_bytes: no oracle._mixture_extreme in this source tree")
    count_of("simplex.probvectors", ["simplex.ProbVector.__init__"])
    m["trace.overhead"] = (overhead, "ratio")
    m["trace.units"] = (float(sum(r[0].units for r in seg.records)), "count")
    m["trace.spans"] = (sum(tr.spans.values()) / per, "count")
    return m, absent


def _defined(tr: Tracer, key: str) -> bool:
    module, _, name = key.partition(".")
    obj = getattr(tr.package, module)
    for part in name.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return False
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "entnorm" / "__init__.py").is_file():
        print(f"perfbench: no entnorm sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import entnorm.cli  # noqa: E402  (path set just above; the package does not import cli)

    if not Path(entnorm.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported entnorm from {entnorm.__file__}, not {SRC}", file=sys.stderr)
        return 2

    metrics: dict[str, tuple[float, str]] = {}

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return _run(args, entnorm, workdir, metrics)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, entnorm, workdir: Path, metrics: dict) -> int:
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    listing = hashlib.sha256()
    for r in range(wl.rounds):
        for req in wl.round(r):
            listing.update(_serial(req, workdir))
    print(f"workload {wl.name}: seed {args.seed}, unit {wl.unit}, {wl.rounds} rounds, "
          f"request digest {listing.hexdigest()[:16]}")

    client = Client(entnorm)
    seconds = args.seconds / 2 if args.trace else args.seconds
    setup_times = []
    if not args.trace:
        fresh_import()  # warm-up: file cache and bytecode
    seg = client.run(wl, seconds, between=None if args.trace else lambda: setup_times.append(fresh_import()))
    while not args.trace and len(setup_times) < SETUP_REPS:
        setup_times.append(fresh_import())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"sent {len(seg.records)} requests in {seg.passes} passes; "
          f"best-of-passes request time {seg.elapsed:.3f} s")
    segments = [seg]
    if args.trace:
        tr = Tracer(entnorm)
        tr.install()
        try:
            segments.append(client.run(wl, seconds, passes=seg.passes))
        finally:
            tr.uninstall()

    attempted = failed = wrong = 0
    work_per_s = []
    all_failures = []
    for s in segments:
        ok, w, failures = check(s, entnorm.bounds)
        attempted += len(ok)
        failed += ok.count(False)
        wrong += w
        all_failures += failures
        work_per_s.append(sum(r[0].units for r, good in zip(s.records, ok) if good) / s.elapsed)
    report_failures(all_failures, workdir)

    if args.trace:
        overhead = work_per_s[1] / work_per_s[0] if work_per_s[0] else 0.0
        layer, absent = layer_metrics(tr, client.caches, segments[1], overhead)
        metrics.update(layer)
        for line in absent:
            print(f"absent: {line}")
        print(f"traced the same {wl.rounds} rounds; times and counts are per pass; overhead = traced "
              f"work_per_s / untraced work_per_s = {overhead:.4f}; byte counts other than cli.out_bytes "
              "are computed from array shapes, not measured")
    else:
        # latencies of successful requests; of all requests if none succeeded (then `correct` is false)
        keep = ok if any(ok) else [True] * len(ok)
        lat = [1e3 * d for d, good in zip(seg.best, keep) if good]
        q = TAIL_PERCENTILE[args.workload]
        tail_ms, beyond = tail(lat, q)
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["work_per_s"] = (work_per_s[0], "units/s")
        metrics["op_p50_ms"] = (statistics.median(lat), "ms")
        metrics["op_tail_ms"] = (tail_ms, "ms")
        metrics["peak_rss_mb"] = (peak_mb, "MB")
        metrics["ok_ratio"] = (1.0 - failed / attempted, "ratio")
        print(f"work_per_s counts {wl.unit}; work_per_s and op_p50_ms use each request's best of "
              f"{seg.passes} passes; op_tail_ms is p{q:g} of those best latencies of the {len(lat)} "
              f"{'successful' if any(ok) else 'all (none succeeded)'} requests ({beyond} beyond it{'' if beyond >= 10 else ', fewer than 10'})")

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
