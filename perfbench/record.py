"""Repeat the benchmark over several seeds and record medians, spreads and failures.

    python3 perfbench/record.py --label NAME [--out perfbench/results/NAME.json]

For each workload of BENCHMARK.json, makes RUNS untraced runs with seeds
SEED0, SEED0+1, ... at its run_seconds, then one traced run, and prints each
end-to-end metric's median and spread: the distance between the first and
third quartile (statistics.quantiles, n=4) as a share of the median, next
to a third of the metric's bound. With --out, writes the medians, every
run's values, the traced run's per-layer metrics, every failed request of
the first run by argv, and the machine facts, as one JSON record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SEED0 = 1000


def machine() -> dict:
    with open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    with open("/proc/meminfo") as fh:
        kb = next((int(line.split()[1]) for line in fh if line.startswith("MemTotal")), 0)
        mem = round(kb / 2**20, 1)
    import mpmath
    import numpy
    return {"nproc": os.cpu_count(), "cpu": cpu, "ram_gib": mem, "python": platform.python_version(),
            "numpy": numpy.__version__, "mpmath": mpmath.__version__, "platform": platform.platform()}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    if res.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {res.returncode}: {res.stderr[-2000:]}")
    lines = res.stdout.rstrip("\n").split("\n")
    return json.loads(lines[-1]), lines[:-1]


def failures(lines: list[str]) -> list[dict]:
    out, reason = [], None
    for line in lines:
        if line.startswith("failed: "):
            reason = re.sub(r"^failed: \d+ x ", "", line)
        elif line.startswith("    ") and reason is not None:
            out.append({"reason": reason, "argv": line.strip()})
        else:
            reason = None
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", required=True)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"label": args.label, "machine": machine(), "run_seconds": spec["run_seconds"],
              "runs": RUNS, "seeds": [SEED0, SEED0 + RUNS - 1], "workloads": {}}
    for w in names:
        runs, first_lines = [], None
        for i in range(RUNS):
            result, lines = run_once(w, SEED0 + i, spec["run_seconds"], 0)
            runs.append(result)
            first_lines = first_lines or lines
            print(f"{w} seed {SEED0 + i}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        entry = {"attempted": [r["attempted"] for r in runs], "failed": [r["failed"] for r in runs],
                 "correct": all(r["correct"] for r in runs), "metrics": {}}
        for name in bounds:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            entry["metrics"][name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med, "q1": q1, "q3": q3,
                                      "spread": spread, "values": vals}
            flag = "ok" if spread < bounds[name] / 3 else "WIDE"
            print(f"  {w:6s} {name:12s} median {med:12.6g}  spread {spread:7.4f}  bound/3 {bounds[name] / 3:.4f}  {flag}")
        entry["failures_first_run"] = failures(first_lines)
        traced, _ = run_once(w, SEED0, spec["run_seconds"], 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        print(f"  {w:6s} trace.overhead {entry['per_layer']['trace.overhead']:.4f}")
        record["workloads"][w] = entry
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
