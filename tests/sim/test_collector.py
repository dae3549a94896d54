"""The collector pause around a simulation: nesting, threads and errors."""

from __future__ import annotations

import gc
import sys
import threading

import pytest

from benchmarks.suite import layers
from repro.errors import ConfigError
from repro.gpu import simulator
from repro.gpu.config import table_iii_config
from repro.gpu.simulator import simulate
from repro.sim.collector import collector_paused
from repro.workloads.generator import build_workload
from repro.workloads.suite import shrunken_spec


@pytest.fixture
def collector_on():
    """Start each test with the collector enabled; restore it after."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


@pytest.fixture(scope="module")
def workload():
    return build_workload(shrunken_spec("Stream", 8))


def test_simulate_leaves_the_collector_enabled(collector_on, workload):
    simulate(workload, table_iii_config(2))
    assert gc.isenabled()


def test_simulate_pauses_the_collector_while_running(
    collector_on, workload, monkeypatch
):
    seen = []
    real = simulator.MultiGpu

    class Probe(real):
        def __init__(self, *args, **kwargs):
            seen.append(gc.isenabled())
            super().__init__(*args, **kwargs)

        def run(self, *args, **kwargs):
            seen.append(gc.isenabled())
            return super().run(*args, **kwargs)

    monkeypatch.setattr(simulator, "MultiGpu", Probe)
    simulate(workload, table_iii_config(2))
    assert seen == [False, False]
    assert gc.isenabled()


def test_a_failed_simulation_restores_the_collector(
    collector_on, workload, monkeypatch
):
    def explode(self, *_args, **_kwargs):
        assert not gc.isenabled()
        raise ConfigError("boom")

    monkeypatch.setattr(simulator.MultiGpu, "run", explode)
    with pytest.raises(ConfigError, match="boom"):
        simulate(workload, table_iii_config(2))
    assert gc.isenabled()


def test_a_caller_that_disabled_the_collector_keeps_it_disabled(workload):
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        simulate(workload, table_iii_config(2))
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    finally:
        if was_enabled:
            gc.enable()


def test_nested_pauses_enable_only_after_the_outermost(collector_on):
    with collector_paused():
        assert not gc.isenabled()
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_overlapping_pauses_in_two_threads(collector_on):
    """Thread A pauses, then B; A leaves first.  The collector stays off
    until B, the last one in, leaves."""
    a_inside = threading.Event()
    b_inside = threading.Event()
    a_left = threading.Event()
    b_may_leave = threading.Event()
    states = {}

    def first():
        with collector_paused():
            a_inside.set()
            b_inside.wait(5)
        a_left.set()

    def second():
        a_inside.wait(5)
        with collector_paused():
            b_inside.set()
            b_may_leave.wait(5)
            states["after A left"] = gc.isenabled()

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    assert a_left.wait(5)
    states["main, B inside"] = gc.isenabled()
    b_may_leave.set()
    for thread in threads:
        thread.join(5)
    assert not any(thread.is_alive() for thread in threads)
    assert states == {"main, B inside": False, "after A left": False}
    assert gc.isenabled()


def test_many_threads_never_lose_a_pause(collector_on):
    """More threads than cores enter and leave nested pauses with a tiny
    switch interval.  A lost update to the shared depth would turn the
    collector on while a pause is held, or leave it off after the last."""
    errors = []

    def worker():
        for _ in range(500):
            with collector_paused():
                with collector_paused():
                    if gc.isenabled():
                        errors.append("collector on inside a pause")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert gc.isenabled()


def test_the_pause_module_has_a_benchmark_layer():
    assert layers.layer_of("repro.sim.collector") == "sim"
