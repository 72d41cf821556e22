"""Command-line entry point.

Verbs:
    run      --config cfg.json [--config more.json ...]   any method
    compare  --config cfg.json    method must be compare-all; exits 2 on tolerance failure
    oracle   --config cfg.json    method must be fock-oracle; exits 2 on tolerance failure
    validate --config cfg.json    parse + validate only

Exit codes: 0 success, 1 config or runtime error, 2 tolerance failure.
Multiple --config flags run as a batch, one after another; the exit code is
the worst of the batch.

A schedule drive is stepped segment by segment: no integration step crosses
a segment end, and a sample at a segment end belongs to the next segment.
"""

from __future__ import annotations

import argparse
import json
import sys

from .runner import (
    ConfigError,
    ExperimentConfig,
    InvariantViolation,
    StepUnderflowError,
    run_experiment,
    tolerance_failures,
)

_VERB_METHOD = {"compare": "compare-all", "oracle": "fock-oracle"}


def _load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, oversized integers
        raise ConfigError("config", f"invalid JSON in {path}: {exc}") from exc
    return ExperimentConfig.from_json(obj)


def _run_one(verb: str, path: str) -> int:
    try:
        cfg = _load_config(path)
        required = _VERB_METHOD.get(verb)
        if required and cfg.method != required:
            raise ConfigError("config.method", f"'{verb}' requires method {required!r}, got {cfg.method!r}")
    except ConfigError as exc:
        print(f"{path}: config error: {exc}", file=sys.stderr)
        return 1
    if verb == "validate":
        print(f"{path}: ok ({cfg.method}, n={cfg.n}, {cfg.grid.t0}..{cfg.grid.t1})")
        return 0
    try:
        report = run_experiment(cfg)
    except (InvariantViolation, StepUnderflowError, RuntimeError, ValueError, ArithmeticError, OSError) as exc:
        print(f"{path}: run failed: {exc}", file=sys.stderr)
        return 1
    print(f"{path}: {cfg.method} ok, samples={report['samples']}, margin_min={report['margin_min']:.6g}")
    for pair, dev in sorted(report.get("comparisons", {}).items()):
        print(f"  {pair}: max deviation {dev:.3e}")
    if "phase_bridge_max" in report:
        print(f"  phase bridge residual max {report['phase_bridge_max']:.3e}")
    if "fock" in report:
        print(f"  fock fidelity min {report['fock']['fidelity_min']:.9f} (dim={report['fock']['dim']})")
        print(f"  fock phase max {report['fock']['phase_max']:.3e}")
    if verb in ("compare", "oracle"):
        failures = tolerance_failures(cfg, report)
        for msg in failures:
            print(f"  FAIL {msg}", file=sys.stderr)
        if failures:
            return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="sjdyn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("run", "compare", "oracle", "validate"):
        p = sub.add_parser(verb)
        p.add_argument("--config", action="append", required=True, metavar="PATH")
    args = parser.parse_args(argv)

    return max([_run_one(args.verb, p) for p in args.config])


if __name__ == "__main__":
    sys.exit(main())
