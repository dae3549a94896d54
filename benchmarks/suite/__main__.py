"""Command line: ``python -m benchmarks.suite {run,compare,digests}``.

Run from the repository root.  ``run`` prints every metric as
``name value unit`` and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

It exits 1 when an output check failed, and 2 when the checkout holds no
``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

from benchmarks.suite.harness import DIGESTS_PATH, ROOT, SECONDS, SRC

WORKLOADS = ("figures-cold", "figures-warm", "llm-governors", "service-mixed")

#: Measured seconds per ``--smoke`` run.
SMOKE_SECONDS = 1


def _measure(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC}; nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from benchmarks.suite import batch
    from benchmarks.suite.service import run_service

    seconds = SMOKE_SECONDS if args.smoke else SECONDS
    trace = bool(args.trace)
    size = batch.SMOKE if args.smoke else batch.FULL
    if args.workload == "figures-cold":
        outcome = batch.run_sweep("figures", args.seed, seconds, trace, size)
    elif args.workload == "figures-warm":
        outcome = batch.run_warm(args.seed, seconds, trace, size)
    elif args.workload == "llm-governors":
        outcome = batch.run_sweep("llm", args.seed, seconds, trace, size)
    else:
        outcome = run_service(args.seed, trace, args.smoke)

    result = outcome.result(trace)
    for name, value in outcome.notes.items():
        print(f"# {name}: {value}")
    for problem in outcome.problems:
        print(f"# FAILED: {problem}")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    if args.out:
        line = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": seconds,
            "trace": int(trace),
            "smoke": args.smoke,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "notes": {k: str(v) for k, v in outcome.notes.items()},
            "result": result,
        }
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(line) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def _run_all(args) -> int:
    """Each workload in its own interpreter, so peak RSS and import cost
    do not depend on which workload ran before."""
    worst = 0
    for workload in WORKLOADS:
        command = [
            sys.executable, "-m", "benchmarks.suite", "run",
            "--workload", workload, "--seed", str(args.seed),
            "--trace", str(args.trace),
        ]
        if args.out:
            command += ["--out", args.out]
        if args.smoke:
            command.append("--smoke")
        print(f"## {workload}", flush=True)
        worst = max(worst, subprocess.run(command, cwd=ROOT).returncode)
    return worst


def _digests(_args) -> int:
    """Recompute every committed reference digest (minutes)."""
    sys.path.insert(0, str(SRC))
    from benchmarks.suite import batch, service

    digests = {
        "variants": batch.VARIANTS,
        "figures": batch.reference_digests("figures"),
        "llm": batch.reference_digests("llm"),
        "service_pool": service.pool_digests(),
    }
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {DIGESTS_PATH}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure one workload, or --all")
    which = run.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--all", action="store_true", help="every workload")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: per-layer metrics from a profiled run",
    )
    run.add_argument("--out", help="append the result as a JSON line here")
    length = run.add_mutually_exclusive_group()
    # The run length is fixed by BENCHMARK.json; the flag exists so that
    # the standard benchmark command line, which passes it, is accepted.
    length.add_argument("--seconds", type=int, choices=(SECONDS,))
    length.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes for tests; never compared",
    )
    compare = commands.add_parser("compare", help="verdicts for two result files")
    compare.add_argument("base")
    compare.add_argument("change")
    commands.add_parser("digests", help="recompute digests.json")
    args = parser.parse_args(argv)

    if args.command == "compare":
        from benchmarks.suite.compare import compare_files

        return compare_files(args.base, args.change)
    if args.command == "digests":
        return _digests(args)
    return _run_all(args) if args.all else _measure(args)


if __name__ == "__main__":
    raise SystemExit(main())
