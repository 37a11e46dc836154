"""Fast self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at a tiny run length (two passes) with and without
tracing, and asserts that the last line is the result object with every
end-to-end or per-layer metric named in BENCHMARK.json, with its unit, and
that the same seed yields the same request digest while another seed does
not. Takes about two and a half minutes on two cores.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.01", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert res.returncode == 0, f"{workload} trace={trace} exited {res.returncode}: {res.stderr[-2000:]}"
    lines = res.stdout.strip().split("\n")
    digest = next(line.rsplit(" ", 1)[1] for line in lines if "request digest" in line)
    return json.loads(lines[-1]), digest


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = run(w["name"], 1, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True and result["attempted"] >= 1, result
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{w['name']} trace={trace}: metrics {sorted(set(got) ^ set(want))} differ"
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            print(f"ok  {w['name']:6s} trace={trace}: {len(got)} metrics")
    first = spec["workloads"][0]["name"]
    _, d1 = run(first, 7, 0)
    _, d2 = run(first, 7, 0)
    _, d3 = run(first, 8, 0)
    assert d1 == d2, f"seed 7 gave request digests {d1} and {d2}"
    assert d1 != d3, f"seeds 7 and 8 gave the same request digest {d1}"
    print(f"ok  request digest repeats for one seed ({d1}) and differs for another ({d3})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
