"""Benchmark of the `sjdyn` CLI: three workloads, exact-solution checks.

    python3 perfbench/run.py --workload scalar-compare --seed 1 --seconds 35 --trace 0

An operation is one or two in-process calls of `sjdyn.cli.main([verb,
"--config", path])` on generated configs, with stdout captured and the CSV
and JSON report written under perfbench/out/.  Each run repeats whole rounds
of its workload's fixed operation list until `--seconds` have passed, times
every operation against a reference kernel run just before it (see
kernels.py), then checks every output against the exact solution in
exact.py.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of tracing.py with `--trace 1`.
"""

from __future__ import annotations

import os

# one BLAS thread: see README.md; must be set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import exact
import kernels
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: fresh interpreters timed per run for setup_s
SETUP_CHILDREN = 5
SETUP_CODE = "import sjdyn, sjdyn.cli"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, failed set-up)."""


def measure_setup() -> float:
    """Time for a fresh interpreter to import `sjdyn` and its CLI.

    Each child's wall time, from spawn to exit, is divided by a `py_kernel`
    run just before it; the median ratio is returned in seconds at the
    kernel's nominal speed.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    ratios = []
    for _ in range(SETUP_CHILDREN):
        k = kernels.py_kernel()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True)
        ratios.append((time.perf_counter() - t0) / k)
        if proc.returncode != 0:
            raise BenchError(f"importing sjdyn failed: {proc.stderr.strip()[-500:]}")
    return statistics.median(ratios) * kernels.PY_KERNEL_NOMINAL_S


def kernel_for(workload: str):
    if workload == "fock-oracle":
        return kernels.EighKernel(workloads.FOCK_DIM)
    return kernels.ode_kernel


def run_op(cli, entries) -> tuple[float, list[int], list[str]]:
    codes, errs = [], []
    t0 = time.perf_counter()
    for verb, cfg_path, _csv, _report in entries:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            codes.append(cli.main([verb, "--config", cfg_path]))
        errs.append(err.getvalue())
    return time.perf_counter() - t0, codes, errs


def check_call(cfg_path: str, csv_path: str, report_path: str, cache: dict) -> list[str]:
    try:
        with open(cfg_path, "rb") as fh:
            cfg_bytes = fh.read()
        with open(csv_path, "rb") as fh:
            csv_bytes = fh.read()
        with open(report_path, "rb") as fh:
            report_bytes = fh.read()
        key = hashlib.sha256(cfg_bytes + b"\0" + csv_bytes + b"\0" + report_bytes).hexdigest()
        if key not in cache:
            cfg = json.loads(cfg_bytes)
            header, data = exact.read_csv(csv_path)
            cache[key] = exact.check_output(cfg, header, data, json.loads(report_bytes))
        return cache[key]
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"output unreadable: {exc!r}"]


def sweep_ref(rounds: list[dict]) -> float:
    """Sum over the operation list of each operation's median ratio across rounds."""
    return sum(statistics.median(col) for col in zip(*(r["ratios"] for r in rounds)))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "sjdyn" / "cli.py").is_file():
        raise BenchError(f"no sjdyn sources under {SRC}")
    setup_s = measure_setup()
    sys.path.insert(0, str(SRC))
    from sjdyn import cli

    ops = workloads.WORKLOADS[args.workload](args.seed)
    kernel = kernel_for(args.workload)
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    tracer = tracing.Tracer()
    try:
        # a traced run alternates untraced and traced rounds, so it needs two
        min_rounds = 2 if args.trace else 1
        rounds: list[dict] = []
        t_start = time.perf_counter()
        with tracer if args.trace else contextlib.nullcontext():
            while True:
                elapsed = time.perf_counter() - t_start
                if len(rounds) >= min_rounds and elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                    break
                traced = bool(args.trace) and len(rounds) % 2 == 1
                plan = workloads.write_configs(ops, os.path.join(tmp, f"r{len(rounds)}"))
                ratios, codes, errs = [], [], []
                tracer.reset()
                for entries in plan:
                    gc.collect()
                    k = kernel()
                    tracer.active = traced
                    dt, c, e = run_op(cli, entries)
                    tracer.active = False
                    ratios.append(dt / k)
                    codes.append(c)
                    errs.append(e)
                rounds.append({"plan": plan, "ratios": ratios, "codes": codes, "errs": errs,
                               "traced": traced,
                               "layers": tracing.round_values(tracer) if traced else None})
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # checks, after the timed rounds
        cache: dict = {}
        attempted = failed = 0
        correct = True
        reported: set[str] = set()
        for rnd in rounds:
            for op, entries, codes, errs in zip(ops, rnd["plan"], rnd["codes"], rnd["errs"]):
                problems = []
                for (verb, cfg_path, csv_path, report_path), code, err in zip(entries, codes, errs):
                    if code != 0:
                        problems.append(f"{verb} exited {code}: {err.strip()[:300]}")
                    if code in (0, 2):
                        problems += check_call(cfg_path, csv_path, report_path, cache)
                attempted += 1
                if problems:
                    failed += 1
                    if not op.schedule:
                        correct = False
                    if op.name not in reported:
                        reported.add(op.name)
                        print(f"FAILED {args.workload}/{op.name}:", *problems, sep="\n  ", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        layers = {}
        for name, unit, _source in tracing.PER_LAYER:
            vals = [r["layers"][name] for r in traced]
            if unit == "count" and len(set(vals)) != 1:
                correct = False
                print(f"call count {name} differs between traced rounds: {vals}", file=sys.stderr)
            layers[name] = {"value": statistics.median(vals), "unit": unit}
        layers["trace.overhead"] = {
            "value": sweep_ref(traced) / sweep_ref([r for r in rounds if not r["traced"]]),
            "unit": "ratio",
        }
        metrics = layers
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_ref_p50": {"value": statistics.median(x for r in rounds for x in r["ratios"]), "unit": "ref"},
            "run_ref": {"value": sweep_ref(rounds), "unit": "ref"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} rounds={len(rounds)} ops/round={len(ops)} attempted={attempted} failed={failed}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
