"""Simulator-throughput benchmark: events/sec on the headline GPM sweep.

The paper's scaling study (Figs. 6-10) is a sweep over 1-32 GPMs, and every
simulated cycle funnels through ``Engine.run``.  This harness measures the
two numbers that bound sweep turnaround: *events per second* through the
discrete-event core and end-to-end wall-clock per configuration.  Results are
written as machine-readable JSON (``BENCH_sim.json``) so the repo carries a
perf trajectory: each PR that touches the hot path re-runs the bench and the
committed baseline shows whether throughput moved.

Cross-machine comparisons use a *normalized* events/sec: raw events/sec
divided by a small pure-Python calibration loop's Mops score measured in the
same process.  This cancels (to first order) the CPU-speed difference between
the laptop that committed the baseline and the CI runner that checks it, so
``--check`` can fail on real regressions instead of hardware deltas.

Usage::

    PYTHONPATH=src python -m repro.tools.bench_engine            # full sweep
    PYTHONPATH=src python -m repro.tools.bench_engine --quick    # CI-sized
    PYTHONPATH=src python -m repro.tools.bench_engine --quick \
        --check BENCH_sim.json --tolerance 0.2                   # perf smoke

or equivalently ``repro bench`` (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

#: Bump when the BENCH_sim.json layout changes incompatibly.  v3 drops the
#: per-shard-engine columns v2 added; the single-process columns are
#: unchanged since v1, so ``--check`` accepts baselines of any version.
BENCH_SCHEMA_VERSION = 3

#: Default allowed normalized-events/sec regression before --check fails.
DEFAULT_TOLERANCE = 0.20


@dataclass(frozen=True)
class BenchCase:
    """One (workload, configuration) throughput measurement."""

    workload: str
    gpms: int
    topology: str = "ring"
    ctas: int = 256
    kernels: int = 2

    def key(self) -> str:
        return (
            f"{self.workload}:{self.gpms}gpm:{self.topology}"
            f":{self.ctas}cta:{self.kernels}k"
        )


#: The CI-sized smoke case (always measured, quick mode measures only this).
QUICK_CASE = BenchCase(workload="Stream", gpms=4, ctas=64, kernels=1)

#: The headline sweep: the paper's 1-32 GPM axis on a memory workload.
HEADLINE_CASES: tuple[BenchCase, ...] = tuple(
    BenchCase(workload="Stream", gpms=n) for n in (1, 2, 4, 8, 16, 32)
)


def calibration_mops(iterations: int = 1_000_000, repeats: int = 3) -> float:
    """Machine-speed score: millions of trivial loop ops per second.

    A deliberately boring pure-Python loop — the same interpreter work the
    simulator's hot path is made of — measured best-of-``repeats`` so one
    scheduler hiccup cannot skew normalization.
    """
    best = float("inf")
    for _ in range(repeats):
        acc = 0
        start = time.perf_counter()
        for i in range(iterations):
            acc += i & 7
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return iterations / best / 1e6


def run_case(case: BenchCase, repeats: int = 3) -> dict:
    """Simulate one case ``repeats`` times; report best-wall throughput."""
    from repro.gpu.config import TopologyKind, table_iii_config
    from repro.gpu.simulator import simulate
    from repro.workloads.generator import build_workload
    from repro.workloads.suite import shrunken_spec

    spec = shrunken_spec(case.workload, total_ctas=case.ctas, kernels=case.kernels)
    config = table_iii_config(case.gpms, topology=TopologyKind(case.topology))
    best_wall = float("inf")
    events = 0
    cycles = 0.0
    for _ in range(repeats):
        workload = build_workload(spec)
        start = time.perf_counter()
        result = simulate(workload, config)
        wall = time.perf_counter() - start
        best_wall = min(best_wall, wall)
        events = result.events_processed
        cycles = result.cycles
    return {
        **asdict(case),
        "key": case.key(),
        "events": events,
        "cycles": cycles,
        "wall_s": best_wall,
        "events_per_sec": events / best_wall if best_wall > 0 else 0.0,
    }


def run_bench(quick: bool = False, repeats: int = 3) -> dict:
    """Run the benchmark suite and return the BENCH_sim.json payload."""
    from repro.trace.manifest import host_info

    cases = [QUICK_CASE] if quick else [QUICK_CASE, *HEADLINE_CASES]
    mops = calibration_mops()
    rows = []
    for case in cases:
        row = run_case(case, repeats=repeats)
        row["normalized_events_per_mop"] = (
            row["events_per_sec"] / (mops * 1e6) if mops > 0 else 0.0
        )
        rows.append(row)
        print(
            f"[bench] {row['key']:<34} {row['events']:>9d} events"
            f" {row['wall_s'] * 1e3:>8.1f} ms"
            f" {row['events_per_sec'] / 1e3:>8.1f}k ev/s",
            file=sys.stderr,
            flush=True,
        )
    total_events = sum(row["events"] for row in rows)
    total_wall = sum(row["wall_s"] for row in rows)
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": host_info(),
        "calibration_mops": mops,
        "quick": quick,
        "repeats": repeats,
        "cases": rows,
        "aggregate": {
            "events": total_events,
            "wall_s": total_wall,
            "events_per_sec": total_events / total_wall if total_wall else 0.0,
        },
    }


def check_regression(
    current: dict, baseline: dict, tolerance: float = DEFAULT_TOLERANCE
) -> list[str]:
    """Compare normalized throughput against a committed baseline.

    Returns a list of human-readable failure strings (empty == pass).  Only
    cases present in *both* results are compared, so a quick run can be
    checked against a committed full-sweep baseline.
    """
    failures: list[str] = []
    baseline_by_key = {row["key"]: row for row in baseline.get("cases", [])}
    compared = 0
    for row in current.get("cases", []):
        base = baseline_by_key.get(row["key"])
        if base is None:
            continue
        compared += 1
        base_norm = base.get("normalized_events_per_mop", 0.0)
        cur_norm = row.get("normalized_events_per_mop", 0.0)
        if base_norm <= 0.0:
            continue
        ratio = cur_norm / base_norm
        if ratio < 1.0 - tolerance:
            failures.append(
                f"{row['key']}: normalized events/sec regressed to"
                f" {ratio:.2f}x of baseline"
                f" (tolerance {1.0 - tolerance:.2f}x)"
            )
    if compared == 0:
        failures.append("no overlapping cases between current run and baseline")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description=(
            "Measure discrete-event-core throughput (events/sec) on the"
            " headline 1-32 GPM sweep and write BENCH_sim.json."
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="measure only the CI-sized smoke case",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=3,
        help="simulations per case; best wall-clock wins (default: 3)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_sim.json",
        help="output JSON path (default: BENCH_sim.json)",
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        default=None,
        help="compare against a committed BENCH_sim.json; exit 1 on regression",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help=(
            "allowed fractional normalized-events/sec regression before"
            f" --check fails (default: {DEFAULT_TOLERANCE})"
        ),
    )
    args = parser.parse_args(argv)

    payload = run_bench(quick=args.quick, repeats=args.repeat)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    aggregate = payload["aggregate"]
    print(
        f"[bench] aggregate: {aggregate['events']} events in"
        f" {aggregate['wall_s']:.2f}s"
        f" = {aggregate['events_per_sec'] / 1e3:.1f}k events/sec -> {out}"
    )

    if args.check is not None:
        with Path(args.check).open() as handle:
            baseline = json.load(handle)
        failures = check_regression(payload, baseline, tolerance=args.tolerance)
        if failures:
            for failure in failures:
                print(f"[bench] REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(f"[bench] check passed against {args.check}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
