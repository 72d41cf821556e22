"""Run each workload several times and report the spread of every metric.

    python3 perfbench/sweep.py                    # 10 runs per workload, seeds 1..10
    python3 perfbench/sweep.py --runs 5 --workload fock-oracle --first-seed 101

Each run is a fresh `run.py` process with its own seed.  For every
end-to-end metric the table gives the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them), the spread (q3 − q1) /
median and the metric's bound from BENCHMARK.json; a spread is marked `ok`
when it is below a third of the bound.  It also prints each run's share of
failed operations, which must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    for wl in names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, "perfbench/run.py", "--workload", wl, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(res)
            vals = " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items())
            print(f"{wl} seed {seed} ({wall:.0f} s): correct={res['correct']} "
                  f"failed {res['failed']}/{res['attempted']} {vals}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{wl}: failed share per run {sorted(shares)} ({'same' if len(shares) == 1 else 'DIFFERS'})")
        print(f"{'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            mark = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
            print(f"{name:<40} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.2%} "
                  f"{'' if bound is None else bound:>6} {mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
