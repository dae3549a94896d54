"""Command-line entry point: ``python -m repro <subcommand>``.

``repro figures`` is the one way to run a study: every table, figure and
extension study is an entry of :data:`repro.experiments.figures.FIGURES`
and regenerates into ``results/<study>/`` (``--only`` picks studies,
``--quick`` runs the smoke tier; see EXPERIMENTS.md).  The other
subcommands observe or serve single runs (see ``docs/OBSERVABILITY.md``):

* ``repro run <workload>`` — simulate a scaled-down copy of a Table II
  workload once and print its timing/counter summary.
* ``repro trace <workload>`` — simulate a scaled-down copy of a Table II
  workload with the Chrome tracer attached and write a ``trace_event`` JSON
  file viewable at https://ui.perfetto.dev.
* ``repro profile <workload>`` — simulate the same scaled-down copy and print
  the component metrics (CTA runtimes, DRAM queueing, remote-access
  latencies, interconnect transfers) plus a counter summary.
* ``repro dvfs <workload>`` — sweep the same scaled-down copy over the K40
  V/f ladder, print delay/energy/EDP per operating point, and report the
  energy sweet spot (see ``docs/POWER.md``); ``--governed`` additionally runs
  the utilization governor and prints its per-GPM decisions;
  ``--cap-watts`` runs the chip under a power budget and prints the
  power-capping governor's decisions with residency-priced energy;
  ``--governor`` adds per-GPM sleep states (race-to-idle, deadline-paced,
  gate-only, or utilization) and prints the gated residency.
* ``repro roofline`` — score a workload's V/f ladder with the closed-form
  roofline predictor and compare against simulation; ``--check-bounds``
  verifies the committed error-bound manifest (see docs/MODELING.md).
* ``repro serve`` / ``repro submit`` — run the sweep-as-a-service job queue
  (admission control, priority lanes, single-flight dedup, content-addressed
  result store) and submit jobs to it (see ``docs/SERVICE.md``).

Every subcommand maps configuration errors (bad DVFS grids, infeasible
power caps, malformed recipes) to a single ``repro <cmd>: <message>`` line
on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import sys
import time


def _observed_pair(parser: argparse.ArgumentParser, args: argparse.Namespace):
    """(workload, config) for one trace/profile invocation.

    Invalid combinations raise :class:`~repro.errors.ConfigError`, which the
    subcommand guard in :func:`main` maps to a one-line stderr message and
    exit code 2 — uniformly across every subcommand.
    """
    from repro.gpu.config import TopologyKind, table_iii_config
    from repro.workloads.generator import build_workload
    from repro.workloads.suite import shrunken_spec

    spec = shrunken_spec(
        args.workload, total_ctas=args.ctas, kernels=args.kernels
    )
    config = table_iii_config(
        args.gpms, topology=TopologyKind(args.topology)
    )
    return spec, build_workload(spec), config


def _add_observe_arguments(
    parser: argparse.ArgumentParser, workload_optional: bool = False
) -> None:
    from repro.gpu.config import TABLE_III_GPM_COUNTS
    from repro.workloads.suite import all_specs

    choices = sorted(all_specs())
    parser.add_argument(
        "workload",
        choices=choices,
        metavar="workload",
        # `submit --phases` composes the workload from a phase schedule
        # instead of naming one.
        **({"nargs": "?", "default": None} if workload_optional else {}),
        help=(
            "Table II or LLM-serving workload abbreviation"
            f" ({', '.join(choices)})"
        ),
    )
    parser.add_argument(
        "--gpms",
        type=int,
        choices=TABLE_III_GPM_COUNTS,
        default=4,
        help="GPU module count (default: 4)",
    )
    parser.add_argument(
        "--topology",
        choices=["ring", "switch", "mesh"],
        default="ring",
        help="inter-GPM network for multi-module configs (default: ring)",
    )
    parser.add_argument(
        "--ctas",
        type=int,
        default=64,
        help="shrink the workload grid to this many CTAs (default: 64)",
    )
    parser.add_argument(
        "--kernels",
        type=int,
        default=1,
        help="number of kernel launches to keep (default: 1)",
    )


def _add_idle_arguments(parser: argparse.ArgumentParser) -> None:
    """The per-GPM sleep-state knobs shared by dvfs/profile (docs/POWER.md)."""
    parser.add_argument(
        "--governor",
        choices=["utilization", "gate-only", "race-to-idle", "deadline-paced"],
        default=None,
        help=(
            "also run with per-GPM sleep states under this governor and"
            " print the gated residency (see docs/POWER.md)"
        ),
    )
    parser.add_argument(
        "--deadline-us",
        type=float,
        default=None,
        help=(
            "simulated-time deadline for --governor deadline-paced"
            " (microseconds; rejected up front if the roofline bound at"
            " f_max cannot meet it)"
        ),
    )
    parser.add_argument(
        "--entry-latency-cycles",
        type=float,
        default=None,
        help="override the clock-gated state's entry latency",
    )
    parser.add_argument(
        "--exit-latency-cycles",
        type=float,
        default=None,
        help="override the clock-gated state's exit latency",
    )
    parser.add_argument(
        "--residual",
        type=float,
        default=None,
        help=(
            "override the clock-gated state's residual power fraction"
            " (relative to the active idle floor)"
        ),
    )


def _idle_config_from_args(args, config):
    """Build the :class:`~repro.dvfs.idle.IdleConfig` the flags describe.

    Returns ``None`` when no idle flag was given.  All validation —
    negative latencies, residual above the active floor, exit latency
    beyond the wake budget, a deadline without the paced governor — happens
    inside :mod:`repro.dvfs.idle` and surfaces through the subcommand
    guard as one ``ConfigError`` line.
    """
    import dataclasses

    from repro.dvfs.idle import CLOCK_GATED, IdleConfig

    overrides = {
        "entry_latency_cycles": args.entry_latency_cycles,
        "exit_latency_cycles": args.exit_latency_cycles,
        "residual_fraction": args.residual,
    }
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if args.governor is None and args.deadline_us is None and not overrides:
        return None
    clock_gated = (
        dataclasses.replace(CLOCK_GATED, **overrides)
        if overrides
        else CLOCK_GATED
    )
    deadline_cycles = (
        None
        if args.deadline_us is None
        else args.deadline_us * 1e-6 * config.gpm.clock_hz
    )
    return IdleConfig(
        clock_gated=clock_gated,
        governor=(
            None if args.governor in (None, "gate-only") else args.governor
        ),
        deadline_cycles=deadline_cycles,
    )


def _check_deadline_feasible(args, spec, config) -> None:
    """Reject a deadline the chip cannot meet even at f_max, up front.

    Mirrors the ``--cap-watts`` precedent: an unsatisfiable knob is one
    stderr line before any simulation, not a surprise after the sweep.
    The bound is the roofline prediction at the top of the ladder — the
    fastest the race governor itself could possibly finish.
    """
    if args.governor != "deadline-paced" or args.deadline_us is None:
        return
    if spec.phases is not None:
        # The roofline bound does not cover phase schedules; the governor
        # itself still enforces the deadline conservatively at runtime.
        return
    from repro.dvfs.operating_point import K40_VF_CURVE
    from repro.dvfs.sweetspot import with_operating_point
    from repro.errors import ConfigError
    from repro.roofline.model import RooflinePredictor

    curve = config.dvfs.curve if config.dvfs is not None else K40_VF_CURVE
    top = curve.points[-1]
    predicted = RooflinePredictor().predict(
        spec, with_operating_point(config, top)
    )
    if args.deadline_us * 1e-6 < predicted.delay_s:
        raise ConfigError(
            f"deadline {args.deadline_us:g} us is infeasible: the roofline"
            f" bound at {top.label()} needs at least"
            f" {predicted.delay_s * 1e6:.2f} us"
        )


def _print_sleep_residency(residency) -> None:
    """Per-GPM gated-cycle lines for a run that actually slept."""
    if residency is None or residency.total_sleep_cycles <= 0.0:
        return
    print("  per-GPM sleep residency:")
    for gpm_id, hist in enumerate(residency.core):
        for state, cycles in sorted(
            hist.sleep_cycles.items(), key=lambda kv: kv[0].name
        ):
            print(
                f"    gpm{gpm_id}: {state.name:<12} {cycles:>10.0f} cycles"
                f" ({cycles / hist.total_cycles:.1%})"
            )


def _run_main(argv: list[str]) -> int:
    """``repro run``: simulate one scaled-down workload."""
    from repro.gpu.simulator import simulate

    parser = argparse.ArgumentParser(
        prog="repro run",
        description=(
            "Simulate a scaled-down workload once and print its timing and"
            " counter summary."
        ),
    )
    _add_observe_arguments(parser)
    args = parser.parse_args(argv)

    spec, workload, config = _observed_pair(parser, args)
    result = simulate(workload, config)
    print(f"{spec.abbr} on {config.label()}")
    counters = result.counters
    print(f"  cycles            {counters.elapsed_cycles:14.0f}")
    print(f"  instructions      {counters.total_instructions:14d}")
    print(f"  sm utilization    {result.sm_utilization:14.3f}")
    print(f"  l1 hit rate       {counters.l1_hit_rate:14.3f}")
    print(f"  l2 hit rate       {counters.l2_hit_rate:14.3f}")
    print(f"  events processed  {result.events_processed:14d}")
    print(f"  sim wall time     {result.wall_time_s:14.3f}s")
    print(f"  events/sec        {result.events_per_sec:14.0f}")
    return 0


def _trace_main(argv: list[str]) -> int:
    """``repro trace``: capture a Chrome trace of one scaled-down workload."""
    from repro.gpu.simulator import simulate
    from repro.trace import ChromeTracer

    parser = argparse.ArgumentParser(
        prog="repro trace",
        description=(
            "Simulate a scaled-down workload with event tracing enabled and"
            " write Chrome trace_event JSON (open it at"
            " https://ui.perfetto.dev)."
        ),
    )
    _add_observe_arguments(parser)
    parser.add_argument(
        "--out",
        default=None,
        help="output path (default: <workload>_<gpms>gpm.trace.json)",
    )
    args = parser.parse_args(argv)

    spec, workload, config = _observed_pair(parser, args)
    tracer = ChromeTracer(process_name=f"{spec.abbr} on {config.label()}")
    result = simulate(workload, config, tracer=tracer)
    out = args.out or f"{spec.abbr.lower()}_{args.gpms}gpm.trace.json"
    path = tracer.write(out)
    print(f"{spec.abbr} on {config.label()}: {result.cycles:.0f} cycles,")
    print(f"  {len(tracer)} trace events on {len(tracer._tids)} tracks -> {path}")
    print("  open in https://ui.perfetto.dev (or chrome://tracing)")
    return 0


def _profile_main(argv: list[str]) -> int:
    """``repro profile``: print component metrics for one workload."""
    from repro.core.energy_model import EnergyParams
    from repro.gpu.simulator import simulate
    from repro.trace import MetricsRegistry

    parser = argparse.ArgumentParser(
        prog="repro profile",
        description=(
            "Simulate a scaled-down workload and print its component metrics"
            " and counter summary."
        ),
    )
    _add_observe_arguments(parser)
    _add_idle_arguments(parser)
    args = parser.parse_args(argv)

    spec, workload, config = _observed_pair(parser, args)
    idle = _idle_config_from_args(args, config)
    if idle is not None:
        import dataclasses

        _check_deadline_feasible(args, spec, config)
        config = dataclasses.replace(config, idle=idle)
    metrics = MetricsRegistry()
    result = simulate(workload, config, metrics=metrics)
    counters = result.counters

    print(f"{spec.abbr} on {config.label()}")
    print(f"  cycles            {counters.elapsed_cycles:14.0f}")
    print(f"  instructions      {counters.total_instructions:14d}")
    print(f"  sm utilization    {result.sm_utilization:14.3f}")
    print(f"  l1 hit rate       {counters.l1_hit_rate:14.3f}")
    print(f"  l2 hit rate       {counters.l2_hit_rate:14.3f}")
    print(f"  remote fraction   {counters.remote_fraction:14.3f}")
    print(f"  inter-GPM bytes   {counters.inter_gpm_bytes:14d}")
    print(f"  events processed  {result.events_processed:14d}")
    print(f"  sim wall time     {result.wall_time_s:14.3f}s")
    print(f"  events/sec        {result.events_per_sec:14.0f}")

    breakdown = result.energy_breakdown(
        EnergyParams.for_operating_point(config, residency=result.residency)
    )
    print(f"  energy            {breakdown.total * 1e6:14.2f}uJ")
    _print_sleep_residency(result.residency)
    if breakdown.per_gpm:
        print()
        print(
            f"  {'gpm':<4} {'core scale':>10} {'busy uJ':>10}"
            f" {'stall uJ':>10} {'cache uJ':>10} {'total uJ':>10}"
        )
        for gpm in breakdown.per_gpm:
            cache_j = gpm.shared_to_rf + gpm.l1_to_rf + gpm.l2_to_l1
            print(
                f"  {gpm.gpm_id:<4d} {gpm.core_scale:>10.3f}"
                f" {gpm.sm_busy * 1e6:>10.2f} {gpm.sm_idle * 1e6:>10.2f}"
                f" {cache_j * 1e6:>10.2f} {gpm.total * 1e6:>10.2f}"
            )
    print()
    print(f"  {'metric':<32} {'count':>10} {'mean':>12} {'min':>12} {'max':>12}")
    for name, row in metrics.snapshot().items():
        if "mean" in row:
            print(
                f"  {name:<32} {row['count']:>10d} {row['mean']:>12.2f}"
                f" {row['min']:>12.2f} {row['max']:>12.2f}"
            )
        else:
            print(
                f"  {name:<32} {row['count']:>10d}"
                f" {'p50=' + format(row['p50'], '.0f'):>12}"
                f" {'p99=' + format(row['p99'], '.0f'):>12} {'':>12}"
            )
    return 0


def _dvfs_main(argv: list[str]) -> int:
    """``repro dvfs``: sweep one workload over the V/f ladder."""
    from repro.core.energy_model import EnergyModel, EnergyParams
    from repro.dvfs.governor import UtilizationGovernor
    from repro.dvfs.operating_point import K40_VF_CURVE
    from repro.dvfs.sweetspot import (
        METRICS,
        FrequencySample,
        SweetSpot,
        with_operating_point,
    )
    from repro.gpu.simulator import simulate

    parser = argparse.ArgumentParser(
        prog="repro dvfs",
        description=(
            "Simulate a scaled-down workload at every operating point of the"
            " K40 V/f ladder and report the energy sweet spot"
            " (see docs/POWER.md)."
        ),
    )
    _add_observe_arguments(parser)
    parser.add_argument(
        "--metric",
        choices=list(METRICS),
        default="edp",
        help="optimization metric for the sweet spot (default: edp)",
    )
    parser.add_argument(
        "--governed",
        action="store_true",
        help="also run the utilization governor and print its decisions",
    )
    parser.add_argument(
        "--cap-watts",
        type=float,
        default=None,
        help=(
            "also run under a chip power budget (PowerCapGovernor) and print"
            " its decisions and residency-priced energy"
        ),
    )
    _add_idle_arguments(parser)
    args = parser.parse_args(argv)

    spec, workload, config = _observed_pair(parser, args)
    # Reject malformed or infeasible idle knobs before the ladder sweep,
    # same as the cap-feasibility check below.  Building the governed
    # configuration here also validates the cap/governor mix (a budget and
    # a deadline cannot both own the operating-point policy).
    idle = _idle_config_from_args(args, config)
    idle_config = None
    if idle is not None:
        import dataclasses

        _check_deadline_feasible(args, spec, config)
        idle_config = dataclasses.replace(
            config, idle=idle, power_cap_watts=args.cap_watts
        )
    if args.cap_watts is not None:
        # Reject an unsatisfiable budget up front (one-line error via the
        # subcommand guard) instead of tracebacking after the (expensive)
        # ladder sweep.  Same feasibility check the sweep service runs at
        # admission (repro.service.admission.validate_request).
        from repro.dvfs.governor import PowerCapGovernor

        curve = config.dvfs.curve if config.dvfs is not None else K40_VF_CURVE
        PowerCapGovernor(
            curve=curve, cap_watts=args.cap_watts
        ).initial_points(config.num_gpms)
    anchor_hz = K40_VF_CURVE.anchor.frequency_hz
    samples = []
    for point in K40_VF_CURVE.points:
        pointed = with_operating_point(config, point)
        result = simulate(workload, pointed)
        params = EnergyParams.for_operating_point(pointed)
        energy = EnergyModel(params).evaluate(result.counters, result.seconds)
        samples.append(
            FrequencySample(
                point=point, delay_s=result.seconds, energy_j=energy.total
            )
        )
    spot = SweetSpot(
        workload=spec.abbr,
        config_label=config.label(),
        num_gpms=config.num_gpms,
        metric=args.metric,
        samples=tuple(samples),
    )

    print(f"{spec.abbr} on {config.label()}: V/f sweep ({args.metric})")
    header = (
        f"  {'point':<10} {'MHz':>5} {'V':>6} {'delay us':>10}"
        f" {'energy uJ':>10} {'EDP':>11} {'ED2P':>11}"
    )
    print(header)
    best = spot.best
    for sample in samples:
        point = sample.point
        marker = " <- sweet spot" if sample is best else (
            "  (anchor)" if point.frequency_hz == anchor_hz else ""
        )
        print(
            f"  {point.label():<10} {point.frequency_hz / 1e6:>5.0f}"
            f" {point.voltage_v:>6.2f} {sample.delay_s * 1e6:>10.2f}"
            f" {sample.energy_j * 1e6:>10.2f} {sample.edp:>11.3e}"
            f" {sample.ed2p:>11.3e}{marker}"
        )
    anchor_score = spot.sample_at(anchor_hz).score(args.metric)
    print(
        f"  sweet spot: {best.point.label()}"
        f" ({best.point.frequency_hz / 1e6:.0f} MHz,"
        f" {args.metric} {best.score(args.metric) / anchor_score:.3f}x"
        f" the anchor's)"
    )

    if args.governed:
        governor = UtilizationGovernor()
        result = simulate(workload, config, governor=governor)
        print()
        print(
            f"  governed run: {result.cycles:.0f} cycles,"
            f" {len(governor.trace)} interval decisions"
        )
        for decision in governor.trace:
            print(
                f"    cycle {decision.at_cycle:>10.0f}  gpm{decision.gpm_id}"
                f"  util={decision.utilization:.2f}"
                f"  -> {decision.point.label()}"
            )

    if args.cap_watts is not None:
        import dataclasses

        capped_config = dataclasses.replace(
            config, power_cap_watts=args.cap_watts
        )
        result = simulate(workload, capped_config)
        params = EnergyParams.for_operating_point(
            capped_config, residency=result.residency
        )
        energy = EnergyModel(params).evaluate(result.counters, result.seconds)
        trace = result.governor.trace
        print()
        print(
            f"  capped run ({args.cap_watts:g} W): {result.cycles:.0f} cycles,"
            f" {energy.total * 1e6:.2f} uJ residency-priced,"
            f" {len(trace)} interval decisions"
        )
        for decision in trace:
            print(
                f"    cycle {decision.at_cycle:>10.0f}  gpm{decision.gpm_id}"
                f"  util={decision.utilization:.2f}"
                f"  -> {decision.point.label()}"
                f"  (est {decision.estimated_chip_watts:.1f} W)"
            )
        if energy.per_gpm:
            print("    per-GPM core-domain energy (residency-priced):")
            for gpm in energy.per_gpm:
                print(
                    f"    gpm{gpm.gpm_id}: scale={gpm.core_scale:.3f}"
                    f" busy={gpm.sm_busy * 1e6:.2f}uJ"
                    f" stall={gpm.sm_idle * 1e6:.2f}uJ"
                    f" total={gpm.total * 1e6:.2f}uJ"
                )

    if idle_config is not None:
        result = simulate(workload, idle_config)
        params = EnergyParams.for_operating_point(
            idle_config, residency=result.residency
        )
        energy = EnergyModel(params).evaluate(result.counters, result.seconds)
        slept = result.residency.total_sleep_cycles
        print()
        print(
            f"  idle run ({idle_config.idle.label()}):"
            f" {result.cycles:.0f} cycles,"
            f" {energy.total * 1e6:.2f} uJ residency-priced,"
            f" {slept:.0f} gated cycles"
        )
        _print_sleep_residency(result.residency)
        if result.governor is not None and result.governor.trace:
            print(f"  {len(result.governor.trace)} interval decisions")
    return 0


def _roofline_main(argv: list[str]) -> int:
    """``repro roofline``: predicted-vs-simulated table for one workload."""
    parser = argparse.ArgumentParser(
        prog="repro roofline",
        description=(
            "Score a workload's V/f ladder with the closed-form roofline"
            " predictor and (unless --predict-only) compare every point"
            " against simulation (see docs/MODELING.md).  --check-bounds"
            " instead verifies the committed error-bound manifest"
            " (ROOFLINE_bounds.json) like CI does."
        ),
    )
    parser.add_argument(
        "--check-bounds",
        action="store_true",
        help="validate ROOFLINE_bounds.json against the golden configs",
    )
    # The workload is optional so `repro roofline --check-bounds` works bare.
    if "--check-bounds" in argv:
        extra = [arg for arg in argv if arg != "--check-bounds"]
        if extra:
            parser.error(f"--check-bounds takes no other arguments, got {extra}")
        from repro.tools.roofline_bounds import main as bounds_main

        return bounds_main([])
    _add_observe_arguments(parser)
    parser.add_argument(
        "--metric",
        choices=["edp", "ed2p"],
        default="edp",
        help="ranking metric (default: edp)",
    )
    parser.add_argument(
        "--predict-only",
        action="store_true",
        help="skip the simulations; print the analytic ranking only",
    )
    args = parser.parse_args(argv)

    from repro.core.energy_model import EnergyModel, EnergyParams
    from repro.dvfs.operating_point import K40_VF_CURVE
    from repro.dvfs.selection import best_candidate
    from repro.dvfs.sweetspot import with_operating_point
    from repro.gpu.simulator import simulate
    from repro.roofline.model import RooflinePredictor

    spec, workload, config = _observed_pair(parser, args)
    predictor = RooflinePredictor()
    points = K40_VF_CURVE.points
    predictions = {
        point: predictor.predict(spec, with_operating_point(config, point))
        for point in points
    }
    predicted_best = best_candidate(
        points,
        score=lambda p: predictions[p].score(args.metric),
        tie_key=lambda p: (p.frequency_hz, p.label()),
    )

    print(f"{spec.abbr} on {config.label()}: roofline ({args.metric})")
    if args.predict_only:
        print(
            f"  {'point':<10} {'MHz':>5} {'pred delay us':>13}"
            f" {'pred uJ':>9} {'pred EDP':>11} {'bound':>8}"
        )
        for point in points:
            pred = predictions[point]
            marker = " <- predicted best" if point is predicted_best else ""
            print(
                f"  {point.label():<10} {point.frequency_hz / 1e6:>5.0f}"
                f" {pred.delay_s * 1e6:>13.2f} {pred.energy_j * 1e6:>9.2f}"
                f" {pred.score(args.metric):>11.3e} {pred.bound:>8}{marker}"
            )
        return 0

    simulated = {}
    for point in points:
        pointed = with_operating_point(config, point)
        result = simulate(workload, pointed)
        params = EnergyParams.for_operating_point(pointed)
        energy = EnergyModel(params).evaluate(result.counters, result.seconds)
        simulated[point] = (result.seconds, energy.total)
    scores = {
        point: (
            delay * energy if args.metric == "edp" else delay**2 * energy
        )
        for point, (delay, energy) in simulated.items()
    }
    simulated_best = best_candidate(
        points,
        score=lambda p: scores[p],
        tie_key=lambda p: (p.frequency_hz, p.label()),
    )
    print(
        f"  {'point':<10} {'MHz':>5} {'pred us':>9} {'sim us':>9}"
        f" {'derr%':>6} {'pred uJ':>9} {'sim uJ':>9} {'eerr%':>6}"
        f" {'bound':>8}"
    )
    for point in points:
        pred = predictions[point]
        delay_s, energy_j = simulated[point]
        markers = []
        if point is predicted_best:
            markers.append("predicted best")
        if point is simulated_best:
            markers.append("simulated best")
        marker = f" <- {', '.join(markers)}" if markers else ""
        print(
            f"  {point.label():<10} {point.frequency_hz / 1e6:>5.0f}"
            f" {pred.delay_s * 1e6:>9.2f} {delay_s * 1e6:>9.2f}"
            f" {abs(pred.delay_s - delay_s) / delay_s * 100:>6.1f}"
            f" {pred.energy_j * 1e6:>9.2f} {energy_j * 1e6:>9.2f}"
            f" {abs(pred.energy_j - energy_j) / energy_j * 100:>6.1f}"
            f" {pred.bound:>8}{marker}"
        )
    agree = "agrees with" if predicted_best is simulated_best else "differs from"
    print(
        f"  predicted best {predicted_best.label()} {agree} simulated best"
        f" {simulated_best.label()}"
    )
    return 0


def _figures_main(argv: list[str]) -> int:
    """``repro figures``: regenerate studies into results/<study>/."""
    from repro.experiments.figures import FIGURES, SCREENED, run_figures
    from repro.experiments.runner import SweepRunner, SweepSettings

    parser = argparse.ArgumentParser(
        prog="repro figures",
        description=(
            "Regenerate the study logs end-to-end: every registered study"
            " (paper tables, figures, and extension studies) runs and writes"
            " its rendered tables (log.txt) plus headline numbers"
            " (summary.txt) into results/<study>/ (see EXPERIMENTS.md)."
            "  A study run on its full grid also checks its paper claims;"
            " any that fail are listed on one line and the exit code is 2."
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=(
            "smoke tier: shrunken workloads on a reduced grid, written to"
            " quick.txt/quick_summary.txt (gitignored) instead of the"
            " committed full-tier logs"
        ),
    )
    parser.add_argument(
        "--only",
        action="append",
        choices=list(FIGURES),
        metavar="STUDY",
        help=(
            "regenerate just this study (repeatable; default: all of"
            f" {', '.join(FIGURES)})"
        ),
    )
    parser.add_argument(
        "--out",
        default="results",
        help="results root directory (default: results)",
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=None,
        help="simulation worker processes (default: auto)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not write the sweep result cache",
    )
    parser.add_argument(
        "--screen",
        choices=["roofline"],
        default=None,
        help=(
            "analytically rank the study's grid and simulate only the top-k"
            f" points ({', '.join(SCREENED)} only; exact mode when"
            " omitted; see docs/MODELING.md)"
        ),
    )
    parser.add_argument(
        "--top-k",
        type=int,
        default=3,
        help="screened points simulated per curve (default: 3)",
    )
    parser.add_argument(
        "--guard",
        type=int,
        default=1,
        help="extra guard points simulated beyond top-k (default: 1)",
    )
    args = parser.parse_args(argv)

    settings_kwargs = {}
    if args.processes is not None:
        settings_kwargs["processes"] = args.processes
    if args.no_cache:
        settings_kwargs["use_cache"] = False
    runner = SweepRunner(SweepSettings(**settings_kwargs))

    start = time.time()
    written = run_figures(
        names=tuple(args.only) if args.only else None,
        out_dir=args.out,
        runner=runner,
        quick=args.quick,
        echo=print,
        screen=args.screen,
        top_k=args.top_k,
        guard=args.guard,
    )
    for name, fig_dir in written.items():
        print(f"wrote {fig_dir}/")
    print(f"[figures: {len(written)} figure(s), {time.time() - start:.1f}s]")
    return 0


def _serve_main(argv: list[str]) -> int:
    """``repro serve``: run the sweep service in the foreground."""
    from pathlib import Path

    from repro.service.server import ServiceConfig, run_service

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Run the sweep-as-a-service job queue: admission-validated"
            " submissions, size-classed priority lanes with aging,"
            " single-flight dedup, and a content-addressed result store"
            " shared with the sweep cache (see docs/SERVICE.md)."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8787, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="concurrent job executions"
    )
    parser.add_argument(
        "--max-pending", type=int, default=256, help="queue depth bound"
    )
    parser.add_argument(
        "--max-age-s", type=float, default=300.0,
        help="evict jobs pending longer than this (seconds)",
    )
    parser.add_argument(
        "--rate-per-s", type=float, default=None,
        help="per-client submission rate limit (default: unlimited)",
    )
    parser.add_argument(
        "--aging-seconds", type=float, default=30.0,
        help="priority aging interval (one lane class per this many seconds)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="result store directory (default: the shared sweep cache)",
    )
    parser.add_argument(
        "--no-disk-cache", action="store_true",
        help="keep results in memory only",
    )
    args = parser.parse_args(argv)
    return run_service(
        ServiceConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            max_pending=args.max_pending,
            max_age_s=args.max_age_s,
            rate_per_s=args.rate_per_s,
            aging_seconds=args.aging_seconds,
            cache_dir=None if args.cache_dir is None else Path(args.cache_dir),
            use_disk_cache=not args.no_disk_cache,
        )
    )


def _parse_phase_schedule(text: str) -> list[dict]:
    """Decode ``prefill:64:1,decode:8:2`` into recipe phase entries."""
    from repro.errors import ConfigError

    entries = []
    for chunk in text.split(","):
        parts = chunk.strip().split(":")
        if not parts[0]:
            raise ConfigError(
                f"malformed phase entry {chunk!r}; expected"
                " phase:ctas[:kernels]"
            )
        if len(parts) > 3:
            raise ConfigError(
                f"malformed phase entry {chunk!r}; expected"
                " phase:ctas[:kernels]"
            )
        entry: dict = {"phase": parts[0]}
        try:
            if len(parts) > 1:
                entry["ctas"] = int(parts[1])
            if len(parts) > 2:
                entry["kernels"] = int(parts[2])
        except ValueError as error:
            raise ConfigError(
                f"malformed phase entry {chunk!r}: {error}"
            ) from error
        entries.append(entry)
    return entries


def _submit_main(argv: list[str]) -> int:
    """``repro submit``: send one job recipe to a running sweep service."""
    import json

    from repro.service.client import ServiceClient

    parser = argparse.ArgumentParser(
        prog="repro submit",
        description=(
            "Submit one (workload, configuration) job to a running"
            " 'repro serve' instance and print how it was served"
            " (see docs/SERVICE.md)."
        ),
    )
    _add_observe_arguments(parser, workload_optional=True)
    parser.add_argument(
        "--full", action="store_true",
        help="simulate the full Table II workload instead of a shrunken copy",
    )
    parser.add_argument(
        "--phases", default=None, metavar="SCHEDULE",
        help=(
            "compose an LLM phase schedule instead of naming a workload:"
            " comma-separated phase:ctas[:kernels] entries, e.g."
            " 'prefill:64:1,decode:8:2' (see docs/WORKLOADS.md)"
        ),
    )
    parser.add_argument(
        "--tenants", default=None, metavar="CLIENTS",
        help=(
            "replicate the --phases schedule per tenant (comma-separated"
            " client ids, seed-decorrelated streams)"
        ),
    )
    parser.add_argument(
        "--bandwidth", choices=["1x-BW", "2x-BW"], default="2x-BW",
        help="inter-GPM bandwidth setting (default: 2x-BW)",
    )
    parser.add_argument(
        "--core-mhz", type=float, default=None,
        help="pin the core domain to this K40-ladder operating point",
    )
    parser.add_argument(
        "--cap-watts", type=float, default=None,
        help="run under a chip power budget (validated at admission)",
    )
    parser.add_argument(
        "--screen", choices=["roofline"], default=None,
        help=(
            "attach the roofline prediction for this job to the response"
            " manifest (advisory; never changes the result or cache key)"
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="service address")
    parser.add_argument("--port", type=int, default=8787, help="service port")
    parser.add_argument(
        "--client", default="cli", help="client id for rate limiting"
    )
    parser.add_argument(
        "--json", action="store_true", help="print the full outcome JSON"
    )
    args = parser.parse_args(argv)

    from repro.errors import ConfigError

    recipe: dict = {
        "gpms": args.gpms,
        "topology": args.topology,
        "bandwidth": args.bandwidth,
    }
    if args.phases is not None:
        if args.workload is not None:
            raise ConfigError(
                "--phases composes its own workload; drop the workload"
                " argument"
            )
        recipe["phases"] = _parse_phase_schedule(args.phases)
        if args.tenants is not None:
            recipe["tenants"] = [
                client.strip() for client in args.tenants.split(",")
            ]
    elif args.tenants is not None:
        raise ConfigError("--tenants requires a --phases schedule")
    elif args.workload is None:
        raise ConfigError("name a workload or compose one with --phases")
    else:
        recipe["workload"] = args.workload
        if args.full:
            recipe["full"] = True
        else:
            recipe["ctas"] = args.ctas
            recipe["kernels"] = args.kernels
    if args.core_mhz is not None:
        recipe["core_mhz"] = args.core_mhz
    if args.cap_watts is not None:
        recipe["cap_watts"] = args.cap_watts
    if args.screen is not None:
        recipe["screen"] = args.screen

    # Validate the recipe locally before any connection: a malformed
    # schedule is one stderr line + exit 2 here, identical to what the
    # server's admission would say, with zero engine (or network) time.
    from repro.service.job import request_from_recipe

    request_from_recipe(recipe)

    client = ServiceClient(args.host, args.port, client_id=args.client)
    outcome = client.submit_recipe(recipe)
    if args.json:
        print(json.dumps(outcome, indent=2, sort_keys=True))
        return 0
    job = outcome["job"]
    record = outcome["record"]
    print(f"{job['workload']} on {job['config_label']}: {outcome['cache']}")
    print(f"  job id        {job['job_id']}")
    print(f"  cache key     {job['cache_key']}")
    print(f"  lane          {job['lane']}")
    print(f"  queue wait    {job['queue_wait_s'] * 1e3:10.1f}ms")
    print(f"  execution     {job['exec_s'] * 1e3:10.1f}ms")
    print(f"  total         {job['total_s'] * 1e3:10.1f}ms")
    print(f"  sim seconds   {record['seconds']:12.6f}")
    screen = job.get("screen")
    if screen:
        if "error" in screen:
            print(f"  roofline      ({screen['error']})")
        else:
            err = abs(screen["predicted_delay_s"] - record["seconds"])
            err_pct = err / record["seconds"] * 100 if record["seconds"] else 0.0
            print(
                f"  roofline      predicted {screen['predicted_delay_s']:.6f}s"
                f" ({screen['bound']}-bound, {err_pct:.1f}% off)"
            )
    return 0


#: Subcommand dispatch: every entry runs under the same ConfigError guard,
#: so invalid configuration anywhere in the CLI is one stderr line + exit 2.
_SUBCOMMANDS = {
    "figures": _figures_main,
    "run": _run_main,
    "trace": _trace_main,
    "profile": _profile_main,
    "dvfs": _dvfs_main,
    "roofline": _roofline_main,
    "serve": _serve_main,
    "submit": _submit_main,
}


def _guarded(name: str, command, argv: list[str]) -> int:
    """Uniform error surface for every subcommand.

    ``ConfigError`` (bad grids, infeasible caps, malformed recipes),
    ``ExperimentError`` (bad study knobs like an unknown screen mode), and
    ``ServiceError`` (a service turned the request away) all map to one
    ``repro <name>: <message>`` line on stderr and exit code 2 — never a
    traceback, never argparse's multi-line usage dump.
    """
    from repro.errors import ConfigError, ExperimentError, ServiceError

    try:
        return command(argv)
    except (ConfigError, ExperimentError, ServiceError) as error:
        print(f"repro {name}: {error}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    """Entry point: dispatch to one subcommand."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the experiments of 'Understanding the Future of"
            " Energy Efficiency in Multi-Module GPUs' (HPCA 2019)."
        ),
        epilog=(
            "'repro figures' runs every study (paper tables, figures, and"
            " extensions) into results/<study>/; the other subcommands"
            " observe or serve single runs.  Run 'repro"
            " <subcommand> --help' for its options.  See EXPERIMENTS.md,"
            " docs/OBSERVABILITY.md, docs/POWER.md, and"
            " docs/PERFORMANCE.md."
        ),
    )
    parser.add_argument(
        "subcommand",
        choices=list(_SUBCOMMANDS),
        metavar="subcommand",
        help=f"one of {', '.join(_SUBCOMMANDS)}",
    )
    args = parser.parse_args(argv[:1])
    return _guarded(
        args.subcommand, _SUBCOMMANDS[args.subcommand], argv[1:]
    )


if __name__ == "__main__":
    sys.exit(main())
