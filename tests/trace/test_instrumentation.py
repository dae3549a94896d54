"""End-to-end instrumentation coverage.

One traced multi-GPM simulation must produce events from all four
instrumented subsystems (engine, SM scheduler, memory hierarchy,
interconnect/DRAM) and populate the component metrics with the counts the
workload structure implies.
"""

import re

import pytest

from repro.gpu.simulator import simulate
from repro.tools.regen_goldens import GOLDEN_CONFIGS, GOLDEN_SPECS
from repro.tools.validate_trace import span_coverage_errors, validate_trace
from repro.trace import ChromeTracer, MetricsRegistry
from repro.workloads.generator import build_workload

SPEC = GOLDEN_SPECS["shared-micro"]
CONFIG = GOLDEN_CONFIGS["4gpm-ring"]


@pytest.fixture(scope="module")
def traced_run():
    tracer = ChromeTracer()
    metrics = MetricsRegistry()
    result = simulate(
        build_workload(SPEC), CONFIG, tracer=tracer, metrics=metrics
    )
    return tracer, metrics, result


def _track_names(tracer: ChromeTracer) -> set[str]:
    return set(tracer._tids)


class TestTraceCoverage:
    def test_all_four_subsystems_emit_events(self, traced_run):
        tracer, _, _ = traced_run
        tracks = _track_names(tracer)
        assert "gpu" in tracks, "workload driver emitted no kernel spans"
        assert any(t.startswith("sm") and ".slot" in t for t in tracks), (
            "SM scheduler emitted no CTA spans"
        )
        assert any(t.endswith(".mem") for t in tracks), (
            "memory hierarchy emitted no events"
        )
        assert "interconnect" in tracks, "interconnect emitted no transfers"
        assert any(t.endswith(".dram") for t in tracks), (
            "DRAM channels emitted no service events"
        )
        assert "engine" in tracks, "engine emitted no process-lifetime spans"

    def test_trace_is_balanced_and_valid(self, traced_run):
        tracer, _, _ = traced_run
        assert tracer.open_spans() == {}
        assert validate_trace(tracer.export()) == []

    def test_kernel_spans_match_launch_structure(self, traced_run):
        tracer, _, _ = traced_run
        gpu_tid = tracer._tids["gpu"]
        kernel_begins = [
            e for e in tracer.events()
            if e["ph"] == "B" and e["tid"] == gpu_tid
        ]
        assert len(kernel_begins) == SPEC.kernels

    def test_event_timestamps_bounded_by_run_length(self, traced_run):
        tracer, _, result = traced_run
        for event in tracer.events():
            assert 0.0 <= event["ts"] <= result.cycles + 1e-9


class TestEngineSpanCoverage:
    """`validate_trace` counts one engine span per warp and per started
    slot, so an agent that retires without its span fails the check."""

    def _without(self, tracer, pattern):
        """The exported trace minus the first engine span matching
        ``pattern``; returns the trace and the dropped span's name."""
        data = tracer.export()
        engine_tid = tracer._tids["engine"]
        for index, event in enumerate(data["traceEvents"]):
            if (
                event["ph"] == "X" and event["tid"] == engine_tid
                and re.fullmatch(pattern, event["name"])
            ):
                del data["traceEvents"][index]
                return data, event["name"]
        raise AssertionError(f"no engine span matches {pattern!r}")

    def test_run_has_one_span_per_warp_and_slot(self, traced_run):
        tracer, _, _ = traced_run
        names = [e["name"] for e in _names_on(tracer, "engine", "X")]
        warps = [name for name in names if re.fullmatch(r"cta\d+\.w\d+", name)]
        assert len(warps) == SPEC.total_ctas * SPEC.warps_per_cta * SPEC.kernels
        assert span_coverage_errors(tracer.export()["traceEvents"]) == []

    def test_dropped_warp_span_fails(self, traced_run):
        tracer, _, _ = traced_run
        data, name = self._without(tracer, r"cta\d+\.w\d+")
        errors = validate_trace(data)
        assert len(errors) == 1
        assert "warp spans" in errors[0] and name in errors[0]

    def test_dropped_slot_span_fails(self, traced_run):
        tracer, _, _ = traced_run
        data, name = self._without(tracer, r"sm\d+\.slot\d+")
        errors = validate_trace(data)
        assert len(errors) == 1
        assert "slot spans" in errors[0] and name in errors[0]


class TestMetricsCoverage:
    def test_cta_cycles_counts_every_cta(self, traced_run):
        _, metrics, _ = traced_run
        cta_cycles = metrics.accumulator("sm.cta_cycles")
        assert cta_cycles.count == SPEC.total_ctas * SPEC.kernels
        assert cta_cycles.mean > 0

    def test_remote_access_metrics_populated(self, traced_run):
        _, metrics, result = traced_run
        remote = metrics.accumulator("memory.remote_load_cycles")
        assert remote.count > 0
        assert remote.minimum >= CONFIG.interconnect.link_latency_cycles

    def test_interconnect_metrics_match_counters(self, traced_run):
        _, metrics, result = traced_run
        transfer_bytes = metrics.histogram("interconnect.transfer_bytes", 32.0)
        assert transfer_bytes.total > 0
        assert metrics.accumulator("interconnect.transfer_cycles").count > 0
        assert result.counters.inter_gpm_bytes > 0

    def test_dram_queue_metric_populated(self, traced_run):
        _, metrics, _ = traced_run
        assert metrics.accumulator("dram.queue_cycles").count > 0


@pytest.fixture(scope="module")
def traced_remote_run():
    from tests.differential.test_remote_path_identity import (
        CONFIGS,
        REMOTE_HEAVY,
    )

    config = CONFIGS["4gpm-ring"]
    tracer = ChromeTracer()
    metrics = MetricsRegistry()
    simulate(build_workload(REMOTE_HEAVY), config, tracer=tracer, metrics=metrics)
    return tracer, metrics, config.num_gpms


def _names_on(tracer: ChromeTracer, track: str, ph: str) -> list[dict]:
    tid = tracer._tids[track]
    return [e for e in tracer.events() if e["tid"] == tid and e["ph"] == ph]


class TestRemoteSpans:
    """Each remote load and store keeps its `engine` lifetime span."""

    def test_one_rload_span_per_remote_l2_miss(self, traced_remote_run):
        tracer, metrics, num_gpms = traced_remote_run
        engine_spans = _names_on(tracer, "engine", "X")
        total = 0
        for gpm in range(num_gpms):
            track = f"gpm{gpm}.mem"
            remote_misses = [
                e for e in _names_on(tracer, track, "i")
                if e["name"] == "l2.miss" and e["args"]["home"] != gpm
            ]
            rloads = [e for e in engine_spans if e["name"] == f"gpm{gpm}.rload"]
            loads = [
                e for e in _names_on(tracer, track, "X")
                if e["name"].startswith("remote_load->g")
            ]
            assert len(rloads) == len(remote_misses) == len(loads)
            total += len(rloads)
        assert total == metrics.accumulator("memory.remote_load_cycles").count
        assert total > 100

    def test_one_rstore_span_per_remote_store(self, traced_remote_run):
        tracer, metrics, num_gpms = traced_remote_run
        engine_spans = _names_on(tracer, "engine", "X")
        total = 0
        for gpm in range(num_gpms):
            rstores = [
                e for e in engine_spans if e["name"] == f"gpm{gpm}.rstore"
            ]
            drains = [
                e for e in _names_on(tracer, f"gpm{gpm}.mem", "X")
                if e["name"].startswith("remote_store->g")
            ]
            assert len(rstores) == len(drains)
            # The engine span opens when the warp sends the store, one L1 latency
            # before the drain leaves the SM, and both close together.
            for span, drain in zip(
                sorted(rstores, key=lambda e: e["ts"] + e["dur"]),
                sorted(drains, key=lambda e: e["ts"] + e["dur"]),
            ):
                assert span["ts"] <= drain["ts"]
                assert span["ts"] + span["dur"] == pytest.approx(
                    drain["ts"] + drain["dur"]
                )
            total += len(rstores)
        assert total == metrics.accumulator("memory.remote_store_cycles").count
        assert total > 100


class TestDefaultRunHasNoObservability:
    def test_untraced_run_keeps_null_tracer_and_empty_metrics(self):
        from repro.trace import NULL_TRACER

        result = simulate(build_workload(SPEC), CONFIG)
        assert result.metrics is not None
        assert len(result.metrics) > 0  # engine-owned registry still records
        # But no tracer was installed anywhere:
        assert NULL_TRACER.enabled is False
