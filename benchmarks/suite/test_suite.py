"""Checks of the benchmark itself, at the ``--smoke`` size.

Run from the repository root::

    PYTHONPATH=src:. python -m pytest benchmarks/suite -q
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from pathlib import Path

import pytest

from benchmarks.suite import batch, layers, service
from benchmarks.suite.__main__ import SMOKE_SECONDS, WORKLOADS, main
from benchmarks.suite.compare import compare_files, verdict
from benchmarks.suite.harness import (
    BENCHMARK,
    END_TO_END,
    PER_LAYER,
    REFERENCE_PROBE_S,
    ROOT,
    SECONDS,
    HostClock,
    Outcome,
    Spans,
    percentile,
    scratch_dir,
)
from benchmarks.suite.service import (
    Sample,
    check_samples,
    latency_ms,
    record_digest,
    run_service,
)


@lru_cache(maxsize=None)
def smoke(workload: str, trace: bool) -> Outcome:
    """One smoke run per (workload, mode), shared by the tests below."""
    if workload == "figures-cold":
        return batch.run_sweep("figures", 0, SMOKE_SECONDS, trace, batch.SMOKE)
    if workload == "figures-warm":
        return batch.run_warm(0, SMOKE_SECONDS, trace, batch.SMOKE)
    if workload == "llm-governors":
        return batch.run_sweep("llm", 0, SMOKE_SECONDS, trace, batch.SMOKE)
    return run_service(0, trace, smoke=True)


def test_benchmark_json_names_what_the_harness_measures():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER


def test_run_length_is_not_a_knob():
    run = ["run", "--workload", "figures-cold"]
    with pytest.raises(SystemExit) as error:
        main(run + ["--seconds", str(SECONDS + 1)])
    assert error.value.code == 2
    with pytest.raises(SystemExit):
        main(run + ["--seconds", str(SECONDS), "--smoke"])


def test_host_clock_scales_wall_time_by_the_probes_taken_meanwhile():
    clock = HostClock(0)
    # At the reference speed for 1 s, then half of it: probes every 50 ms.
    clock.samples = [
        (k * 0.05, REFERENCE_PROBE_S * (1 if k < 20 else 2)) for k in range(60)
    ]
    assert clock.seconds(0.2, 0.8) == pytest.approx(0.6)
    assert clock.seconds(1.3, 2.5) == pytest.approx(0.6)
    # Eleven probes at each speed, counting those one period either side.
    assert clock.scale([(0.01, 0.49), (1.51, 1.99)]) == pytest.approx(0.75)
    assert clock.mean_seconds([(0.01, 0.49), (1.51, 1.99)]) == pytest.approx(0.36)
    # A short interval is scaled by the probes just around it.
    assert clock.seconds(1.001, 1.002) == pytest.approx(0.0005)
    with pytest.raises(RuntimeError):
        clock.seconds(3.5, 3.6)


def test_every_seed_sends_the_same_service_work():
    roles = [service.role(index) for index in range(service.POOL_SIZE)]
    for block in range(service.CLOSED_PASSES):
        shapes = [
            service.POOL_SHAPES[index // len(service.POOL_WORKLOADS)]
            for index, which in enumerate(roles) if which == block
        ]
        assert sorted(shapes) == sorted(
            service.POOL_SHAPES * service.CLOSED_PER_SHAPE
        )

    def fresh(mix: service.Mix) -> list:
        plans = [mix.open, *mix.closed]
        return sorted(
            sorted(i for i in plan if i not in mix.hot) for plan in plans
        )

    first, other = service.Mix(0), service.Mix(1)
    assert fresh(first) == fresh(other)
    assert first.open != other.open
    assert len(first.open) == 4 * roles.count("open")


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    outcome = smoke(workload, trace)
    result = outcome.result(trace)
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    assert result["correct"], outcome.problems
    assert result["attempted"] >= 1 and result["failed"] == 0
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("kind", ["figures", "llm"])
def test_two_smoke_runs_give_equal_digests(kind):
    first = batch.run_sweep(kind, 5, SMOKE_SECONDS, False, batch.SMOKE)
    second = batch.run_sweep(kind, 5, SMOKE_SECONDS, False, batch.SMOKE)
    assert first.notes["digest"] == second.notes["digest"]
    other = batch.run_sweep(kind, 6, SMOKE_SECONDS, False, batch.SMOKE)
    assert other.notes["digest"] != first.notes["digest"]


def test_flipped_counter_fails_the_warm_replay_check():
    study = batch.figures_study(batch.SMOKE)
    with scratch_dir("test-") as cache_dir:
        fill = batch.one_pass(study, 0, cache_dir, Spans())
        entry = next(
            path for path in sorted(cache_dir.glob("*.json"))
            if not path.name.endswith(".manifest.json")
        )
        record = json.loads(entry.read_text())
        record["counters"]["l2_hits"] += 1
        entry.write_text(json.dumps(record))
        replay = batch.one_pass(study, 0, cache_dir, Spans())
    outcome = Outcome()
    batch.check([replay], fill.digest, outcome)
    assert not outcome.correct
    assert outcome.failed == replay.ops > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_shares_sum_to_one(workload):
    metrics = smoke(workload, True).metrics
    shares = [metrics[f"{layer}.share"] for layer in layers.LAYERS]
    assert all(share >= 0.0 for share in shares)
    assert math.fsum(shares) == pytest.approx(1.0, abs=1e-9)


def test_fold_charges_unnamed_frames_to_their_callers():
    sim = ("src/repro/sim/engine.py", 1, "run")
    mem = ("src/repro/memory/cache.py", 1, "access")
    helper = ("~", 0, "<built-in method builtins.len>")
    stats = {
        sim: (1, 1, 3.0, 10.0, {}),
        mem: (1, 1, 2.0, 4.0, {sim: (1, 1, 2.0, 4.0)}),
        # 4 s of builtin self time: 3 s called from the engine, 1 s from
        # the cache, and a recursive edge that must not matter.
        helper: (3, 3, 4.0, 4.0, {
            sim: (2, 2, 3.0, 3.0), mem: (1, 1, 1.0, 1.0),
            helper: (1, 1, 5.0, 5.0),
        }),
    }
    totals = layers.fold(stats, "bench")
    assert totals["sim"] == pytest.approx(6.0)
    assert totals["memory"] == pytest.approx(3.0)
    assert sum(totals.values()) == pytest.approx(9.0)


def test_failed_request_enters_the_percentiles_as_inf():
    good = {"record": {"x": 1}}
    samples = [
        Sample(0, 0.0, 0.0, 0.0, 0.010, 200, good),
        Sample(0, 0.0, 0.0, 0.0, 0.020, 200, good),
        Sample(0, 0.0, 0.0, 0.0, 0.030, 503, {"error": "queue full"}),
    ]
    outcome = Outcome()
    check_samples(samples, [record_digest(good["record"])], outcome)
    assert outcome.failed == 1
    latencies = [latency_ms(sample) for sample in samples]
    assert percentile(latencies, 50) == math.inf
    assert percentile(latencies, 95) == math.inf
    assert percentile(latencies[:2], 50) == pytest.approx(15.0)


def test_percentiles_are_harrell_davis_estimates():
    assert percentile([5.0], 95) == 5.0
    assert percentile([1, 2, 3, 4, 5], 50) == pytest.approx(3.0)
    assert percentile([1, 3], 50) == pytest.approx(2.0)
    # Symmetric weights around the quantile's rank.
    assert percentile(range(100), 95) == pytest.approx(94.5, abs=1e-3)
    assert percentile([], 50) == 0.0


def test_every_repro_module_has_exactly_one_layer():
    prefixes = [p for group in layers.LAYERS.values() for p in group]
    assert len(prefixes) == len(set(prefixes)), "a prefix names two layers"
    unnamed = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        module = layers.module_of(str(path))
        if layers.layer_of(module) is None:
            unnamed.append(module)
    assert not unnamed, f"modules with no layer: {unnamed}"
    assert layers.layer_of("benchmarks.suite.batch") == "bench"
    assert layers.layer_of("repro.service.store") == "store"
    assert layers.layer_of("repro.service.server") == "service"


def test_compare_verdicts_and_refusals(tmp_path: Path, capsys):
    assert verdict([10, 10.1, 9.9], [10, 10.2, 9.8], "lower", 0.05) == "unchanged"
    assert verdict([10, 10.1, 9.9], [12, 12.1, 11.9], "lower", 0.05) == "worse"
    assert verdict([10, 10.1, 9.9], [12, 12.1, 11.9], "higher", 0.05) == "better"
    assert verdict([10, 15, 5], [10, 10, 10], "lower", 0.05) == "unresolved"

    def run(wall: float, seed: int = 0, **facts) -> str:
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                   for m in BENCHMARK["end_to_end"]}
        metrics["wall_s"]["value"] = wall
        line = {"workload": "figures-cold", "seed": seed, "smoke": False,
                "seconds": SECONDS, "nproc": 2, "python": "3.11.7",
                "result": {"correct": True, "attempted": 5, "failed": 0,
                           "metrics": metrics}}
        return json.dumps(line | facts) + "\n"

    def write(name: str, *lines: str) -> str:
        path = tmp_path / name
        path.write_text("".join(lines))
        return str(path)

    base = write("a", *[run(1.0)] * 3)
    assert compare_files(base, write("b", *[run(1.01)] * 3)) == 0
    assert compare_files(base, write("c", *[run(2.0)] * 3)) == 1
    # Seeds are compared with their own seed only: seed 1 at 2.0 s does
    # not pull seed 0's median, and has no base to be worse than.
    mixed = write("d", *[run(1.0)] * 3, *[run(2.0, seed=1)] * 3)
    assert compare_files(base, mixed) == 0
    capsys.readouterr()
    assert compare_files(mixed, write("e", *[run(1.0)] * 3,
                                      *[run(2.0, seed=1)] * 2,
                                      run(9.0, seed=1))) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert ["figures-cold", "1", "wall_s"] in [row[:3] for row in rows]
    assert compare_files(base, write("f", *[run(1.0, smoke=True)] * 3)) == 2
    for fact, value in (("seconds", SECONDS + 1), ("nproc", 4), ("python", "3.12.1")):
        assert compare_files(base, write("g", *[run(1.0, **{fact: value})] * 3)) == 2
        assert compare_files(write("h", run(1.0), run(1.0, **{fact: value})),
                             base) == 2
    capsys.readouterr()
