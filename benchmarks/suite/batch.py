"""The batch workloads: cold and warm figure sweeps, and the LLM governor grid.

Each run is a loop of *passes*, one fixed unit of work, timed from the
harness around calls into the public API (``fig*.run``/``render``,
``figllm_study.run``/``render`` and ``SweepRunner.run``).  A pass is
checked by a sha256 over every ``(cache key, RunRecord JSON)`` pair it
served plus the text it rendered; a pass whose digest differs from the
committed one fails all of its operations (one operation = one record
served, simulated or replayed).
"""

from __future__ import annotations

import cProfile
import gc
import math
import os
import pstats
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

from benchmarks.suite import layers
from benchmarks.suite.harness import (
    PER_LAYER,
    WORK,
    HostClock,
    Outcome,
    Spans,
    canonical,
    digest_of,
    import_probe,
    load_digests,
    median_of,
    peak_rss_mb,
    percentile,
    pinned,
    quartiles,
    scratch_dir,
    work_core,
)
from repro.dvfs.residency import DvfsResidency
from repro.experiments import (
    fig2_energy_scaling,
    fig6_edpse_onpackage,
    fig7_incremental,
    fig8_bandwidth,
    fig9_switch,
    fig10_speedup_energy,
    figllm_study,
)
from repro.experiments.runner import SweepRunner, SweepSettings
from repro.service.keys import cache_key
from repro.trace.manifest import RunManifest
from repro.workloads.suite import shrunken_spec

#: The six scaling figures of the paper's results section.
FIGURES = (
    fig2_energy_scaling,
    fig6_edpse_onpackage,
    fig7_incremental,
    fig8_bandwidth,
    fig9_switch,
    fig10_speedup_energy,
)

#: ``--seed`` selects one of this many committed input variants: variant v
#: adds v to every ``WorkloadSpec.seed``, so seed 0 is the repo's own specs
#: and every seed is checked against a committed digest.
VARIANTS = 16


@dataclass(frozen=True)
class Size:
    """How much work one pass does."""

    counts: tuple[int, ...]
    workloads: tuple[str, ...]
    ctas: int
    kernels: int
    #: ``figllm_study.run(governors=..., quick=...)``; the quick tier
    #: halves the kernel counts and leaves out the deadline-paced governor.
    llm_governors: tuple[str, ...]
    llm_quick: bool
    #: Set-up is repeated this many times per run and its median reported.
    setup_repeats: int


#: The measured size.  The paper's full 2..32-GPM grid on one memory- and
#: one compute-intensive workload of the scaling subset (so every figure's
#: category means stay defined), and the LLM study's full tier.  A figure
#: pass stays short enough that a run's median rests on several passes.
FULL = Size(
    counts=(2, 4, 8, 16, 32),
    workloads=("Stream", "BPROP"),
    ctas=64,
    kernels=2,
    llm_governors=figllm_study.STUDY_GOVERNORS,
    llm_quick=False,
    setup_repeats=3,
)

#: For tests only; never compared and never checked against digests.
SMOKE = Size(
    counts=(2, 4),
    workloads=("Stream", "BPROP"),
    ctas=32,
    kernels=1,
    llm_governors=("static",),
    llm_quick=True,
    setup_repeats=1,
)


class RecordingRunner(SweepRunner):
    """A single-process ``SweepRunner`` that runs input variant ``shift``
    of every pair it is given and remembers what it served."""

    def __init__(self, cache_dir: Path, spans: Spans, shift: int) -> None:
        super().__init__(SweepSettings(cache_dir=cache_dir, processes=1))
        self.spans = spans
        self.shift = shift
        self.served: list[tuple[list, list]] = []
        #: ``(start, end)`` of each ``run`` call: one sweep request each.
        self.calls: list[tuple[float, float]] = []

    def run(self, pairs):
        pairs = [
            (replace(spec, seed=spec.seed + self.shift), config)
            for spec, config in pairs
        ]
        start = time.perf_counter()
        with self.spans.span("SweepRunner.run", pairs=len(pairs)):
            records = super().run(pairs)
        self.calls.append((start, time.perf_counter()))
        self.served.append((pairs, records))
        return records


def figures_study(size: Size):
    """One pass over the six scaling figures, rendered."""

    def spec_for(abbr: str):
        return shrunken_spec(abbr, size.ctas, size.kernels)

    def study(runner: RecordingRunner) -> list[str]:
        texts = []
        for figure in FIGURES:
            with runner.spans.span(figure.__name__.rsplit(".", 1)[-1]):
                result = figure.run(
                    runner,
                    counts=size.counts,
                    workload_abbrs=size.workloads,
                    spec_for=spec_for,
                )
                texts.append(result.render())
        return texts

    return study


def llm_study(size: Size):
    """One pass of the LLM serving study, run and rendered as the repo
    runs it: baseline and the first governors in one sweep request, then
    deadline-paced from the race-to-idle runtimes, then EDPSE pricing."""

    def study(runner: RecordingRunner) -> list[str]:
        with runner.spans.span("figllm_study"):
            result = figllm_study.run(
                runner, governors=size.llm_governors, quick=size.llm_quick
            )
            return [result.render()]

    return study


@dataclass
class PassOut:
    """One pass as the harness saw it."""

    start: float
    end: float
    ops: int
    digest: str
    #: ``(start, end)`` of each sweep request (``SweepRunner.run`` call).
    calls: list[tuple[float, float]]
    #: Per-layer numbers read from the pass's outputs (traced runs only).
    layer: dict[str, float]
    #: Whether the digest matched; set by :func:`check`.
    ok: bool = True

    @property
    def span(self) -> tuple[float, float]:
        return self.start, self.end


def one_pass(
    study, shift: int, cache_dir: Path, spans: Spans,
    profile: cProfile.Profile | None = None, want_layer: bool = False,
) -> PassOut:
    """Run ``study`` once against ``cache_dir`` and digest what it served."""
    before = set(os.listdir(cache_dir)) if cache_dir.exists() else set()
    runner = RecordingRunner(cache_dir, spans, shift)
    # Every pass starts from the same heap state, not from the garbage the
    # previous pass's checks left behind.
    gc.collect()
    if profile is not None:
        profile.enable()
    start = time.perf_counter()
    with spans.span("pass"):
        texts = study(runner)
    end = time.perf_counter()
    if profile is not None:
        profile.disable()

    texts_by_key: dict[str, str] = {}
    records: dict[str, dict] = {}
    for pairs, served in runner.served:
        for (spec, config), record in zip(pairs, served):
            key = cache_key(spec, config)
            payload = record.to_json()
            text = canonical(payload)
            if texts_by_key.setdefault(key, text) != text:
                text = "conflict"  # one key, two answers: fails the digest
                texts_by_key[key] = text
            records[key] = payload
    ops = runner.cache_hits + runner.cache_misses + runner.dedup_skips
    layer = {}
    if want_layer:
        written = set(os.listdir(cache_dir)) - before
        layer = output_metrics(records.values(), cache_dir, written)
        layer["store.reads"] = float(runner.cache_hits)
    return PassOut(
        start, end, ops, digest_of(texts_by_key, texts), runner.calls, layer
    )


def record_metrics(records) -> dict[str, float]:
    """Model counters aggregated over record payloads.

    These come from the model, so a change that only speeds up the
    simulator must leave every one of them exactly as it was.
    """
    sums: dict[str, float] = {}
    slept = cycles = 0.0
    for record in records:
        for name, value in record["counters"].items():
            if isinstance(value, (int, float)):
                sums[name] = sums.get(name, 0.0) + value
        if record.get("residency") is not None:
            residency = DvfsResidency.from_json(record["residency"])
            slept += residency.total_sleep_cycles
            cycles += sum(hist.total_cycles for hist in residency.core)

    def ratio(part: str, *rest: str) -> float:
        whole = sum(sums.get(name, 0.0) for name in (part, *rest))
        return sums.get(part, 0.0) / whole if whole else 0.0

    return {
        "memory.l1_hit_ratio": ratio("l1_hits", "l1_misses"),
        "memory.l2_hit_ratio": ratio("l2_hits", "l2_misses"),
        "memory.dram_txns": sums.get("dram_l2_txns", 0.0),
        "memory.remote_frac": ratio("remote_accesses", "local_accesses"),
        "interconnect.byte_hops": sums.get("inter_gpm_byte_hops", 0.0),
        "gpu.sm_busy_frac": ratio("sm_busy_cycles", "sm_idle_cycles"),
        "dvfs.slept_frac": slept / cycles if cycles else 0.0,
    }


def output_metrics(records, cache_dir: Path, written: set[str]) -> dict[str, float]:
    """Per-layer numbers read from a pass's records and the files it wrote."""
    manifests = [
        RunManifest.read(cache_dir / name)
        for name in written
        if name.endswith(".manifest.json")
    ]
    sim_ms = [manifest.wall_time_s * 1e3 for manifest in manifests]
    events = sum(manifest.events_processed for manifest in manifests)
    sim_s = sum(manifest.wall_time_s for manifest in manifests)
    return {
        **record_metrics(records),
        "sim.events": float(events),
        "sim.events_per_s": events / sim_s if sim_s else 0.0,
        "experiments.sim_p50_ms": percentile(sim_ms, 50),
        "experiments.sim_p95_ms": percentile(sim_ms, 95),
        "store.writes": float(
            sum(not name.endswith(".manifest.json") for name in written)
        ),
    }


def passes_for(make_pass, budget_s: float) -> list[PassOut]:
    """Run passes while another one as long as the last still fits in
    ``budget_s`` seconds; at least one."""
    outs: list[PassOut] = []
    start = time.perf_counter()
    while not outs or (
        time.perf_counter() - start + outs[-1].end - outs[-1].start <= budget_s
    ):
        outs.append(make_pass())
    return outs


def check(outs: list[PassOut], reference: str | None, outcome: Outcome) -> str:
    """Fail every pass whose digest differs from the reference.

    Without a committed reference (smoke size) the first pass is the
    reference, so the check is one of determinism only.
    """
    reference = reference or outs[0].digest
    for out in outs:
        outcome.attempted += out.ops
        out.ok = out.digest == reference
        if not out.ok:
            outcome.failed += out.ops
            outcome.problems.append(
                f"pass digest {out.digest[:16]} != expected {reference[:16]}"
            )
    return reference


def end_to_end(outs: list[PassOut], clock: HostClock, outcome: Outcome) -> None:
    """Mean pass time, and the latency of each sweep request in a pass,
    in reference seconds.

    Every pass issues the same sweep requests in the same order, so request
    i's latency is the mean of its times over the run's passes, scaled by
    the probes taken during them; the percentiles are then taken over the
    requests.  A failed pass makes every latency +inf.
    """
    scale = clock.scale(out.span for out in outs)
    seconds = [out.end - out.start for out in outs]
    if all(out.ok for out in outs):
        latencies = [
            clock.mean_seconds(column) * 1e3
            for column in zip(*(out.calls for out in outs))
        ]
    else:
        latencies = [math.inf]
    outcome.metrics.update({
        "wall_s": clock.mean_seconds(out.span for out in outs),
        "lat_p50_ms": percentile(latencies, 50),
        "lat_p95_ms": percentile(latencies, 95),
        "peak_rss_mb": peak_rss_mb(),
    })
    q1, median, q3 = quartiles(seconds)
    outcome.notes["wall_s"] = (
        f"passes={len(outs)} host speed={1 / scale:.3f};"
        f" wall-clock q1={q1:.4f} median={median:.4f} q3={q3:.4f}"
    )


def traced(
    workload: str, seed: int, make_pass, seconds: float, clock: HostClock,
    outcome: Outcome, spans: Spans,
) -> list[PassOut]:
    """Per-layer run: untraced passes for a third of the time, then traced."""
    start = time.perf_counter()
    plain = passes_for(lambda: make_pass(None, True), seconds / 3)
    profile = cProfile.Profile()
    profiled = passes_for(
        lambda: make_pass(profile, False),
        seconds - (time.perf_counter() - start),
    )
    stats = pstats.Stats(profile).stats
    layer_shares(stats, "bench", outcome)
    per_pass = len(profiled)

    outcome.metrics.update({
        "workloads.builds": layers.call_count(
            stats, "repro.workloads.generator", "build_workload"
        ) / per_pass,
        "core.evaluate_calls": layers.call_count(
            stats, "repro.core.energy_model", "evaluate"
        ) / per_pass,
        "trace.overhead_x": clock.mean_seconds(out.span for out in profiled)
        / clock.mean_seconds(out.span for out in plain),
        **median_of([out.layer for out in plain]),
    })
    for name in PER_LAYER:
        outcome.metrics.setdefault(name, 0.0)
    spans.write(WORK / f"trace-{workload}-seed{seed}.json")
    return plain + profiled


def layer_shares(stats: dict, root_layer: str, outcome: Outcome) -> None:
    for layer, share in layers.shares(layers.fold(stats, root_layer)).items():
        outcome.metrics[f"{layer}.share"] = share


def _reference(kind: str, size: Size, seed: int) -> str | None:
    if size is not FULL:
        return None
    return load_digests()[kind][seed % VARIANTS]


def run_sweep(
    kind: str, seed: int, seconds: float, trace: bool, size: Size
) -> Outcome:
    """``figures-cold`` or ``llm-governors``: every pass on an empty cache.

    Set-up is a fresh interpreter importing the study's modules.
    """
    outcome = Outcome()
    spans = Spans()
    shift = seed % VARIANTS
    if kind == "figures":
        study, probe = figures_study(size), "repro.experiments.figures"
    else:
        study, probe = llm_study(size), "repro.experiments.figllm_study"
    workload = "figures-cold" if kind == "figures" else "llm-governors"

    def make_pass(profile, want_layer):
        with scratch_dir("cold-") as cache_dir:
            return one_pass(study, shift, cache_dir, spans, profile, want_layer)

    core = work_core()
    with pinned({core}), HostClock(core) as clock:
        setups = [import_probe(probe) for _ in range(size.setup_repeats)]
        if trace:
            outs = traced(workload, seed, make_pass, seconds, clock, outcome, spans)
        else:
            outs = passes_for(lambda: make_pass(None, False), seconds)
    outcome.metrics["setup_s"] = statistics.median(
        clock.seconds(*setup) for setup in setups
    )
    outcome.notes["digest"] = check(outs, _reference(kind, size, seed), outcome)
    if not trace:
        end_to_end(outs, clock, outcome)
    return outcome


def run_warm(seed: int, seconds: float, trace: bool, size: Size) -> Outcome:
    """``figures-warm``: every pass replays a cache that set-up filled.

    Set-up is a fresh interpreter importing the figure modules plus one
    cold pass filling a new cache; the last cache filled is replayed.
    """
    outcome = Outcome()
    spans = Spans()
    shift = seed % VARIANTS
    study = figures_study(size)
    reference = _reference("figures", size, seed)
    core = work_core()
    with pinned({core}), HostClock(core) as clock, scratch_dir("warm-") as work:
        setups = []
        for attempt in range(size.setup_repeats):
            cache_dir = work / f"cache-{attempt}"
            cache_dir.mkdir()
            probe = import_probe("repro.experiments.figures")
            fill = one_pass(study, shift, cache_dir, spans)
            setups.append((probe, fill))
            reference = check([fill], reference, outcome)

        def make_pass(profile, want_layer):
            return one_pass(study, shift, cache_dir, spans, profile, want_layer)

        if trace:
            outs = traced(
                "figures-warm", seed, make_pass, seconds, clock, outcome, spans
            )
        else:
            outs = passes_for(lambda: make_pass(None, False), seconds)
    outcome.metrics["setup_s"] = statistics.median(
        clock.seconds(*probe) + clock.seconds(fill.start, fill.end)
        for probe, fill in setups
    )
    outcome.notes["digest"] = check(outs, reference, outcome)
    if not trace:
        end_to_end(outs, clock, outcome)
    return outcome


def reference_digests(kind: str) -> list[str]:
    """One full-size pass digest per variant, for ``digests.json``."""
    study = (figures_study if kind == "figures" else llm_study)(FULL)
    digests = []
    for variant in range(VARIANTS):
        with scratch_dir("digest-") as cache_dir:
            digests.append(one_pass(study, variant, cache_dir, Spans()).digest)
    return digests
