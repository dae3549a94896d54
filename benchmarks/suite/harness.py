"""Plumbing shared by every workload: paths, spans, statistics, reporting,
and the host clock every end-to-end time is read from."""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy

from benchmarks.suite.layers import LAYERS, ROOT

SRC = ROOT / "src"
#: Scratch space for caches, profiles and traces; gitignored with ``.cache/``.
WORK = ROOT / ".cache" / "bench"
DIGESTS_PATH = Path(__file__).with_name("digests.json")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Measured seconds per run: ``run_seconds`` of BENCHMARK.json.
SECONDS: int = BENCHMARK["run_seconds"]

#: Metrics a run without tracing reports, with their units.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "lat_p50_ms": "ms",
    "lat_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Metrics a traced run reports, with their units.
PER_LAYER: dict[str, str] = {
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "workloads.builds": "count",
    "core.evaluate_calls": "count",
    "trace.overhead_x": "x",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "experiments.sim_p50_ms": "ms",
    "experiments.sim_p95_ms": "ms",
    "memory.l1_hit_ratio": "ratio",
    "memory.l2_hit_ratio": "ratio",
    "memory.dram_txns": "count",
    "memory.remote_frac": "ratio",
    "interconnect.byte_hops": "count",
    "gpu.sm_busy_frac": "ratio",
    "dvfs.slept_frac": "ratio",
    "store.reads": "count",
    "store.writes": "count",
    "service.hit_frac": "ratio",
    "service.queue_wait_p95_ms": "ms",
    "service.exec_p50_ms": "ms",
    "service.exec_p95_ms": "ms",
    "service.wire_p50_ms": "ms",
    "service.gen_late_p95_ms": "ms",
    "service.rejected": "count",
}


def percentile(values, q: float) -> float:
    """The Harrell-Davis estimate of the ``q``-th percentile.

    It weighs every sample by how likely its rank is to be the quantile's,
    so one noisy sample next to the quantile cannot swing it the way it
    swings a nearest-rank percentile.  An ``inf`` sample (a failure) that
    carries any weight makes the percentile ``inf``.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    total = 0.0
    for weight, value in zip(_harrell_davis_weights(len(ordered), q / 100.0), ordered):
        if weight > 0.0:
            total += weight * value
    return total


def _harrell_davis_weights(n: int, p: float) -> list[float]:
    """Probability that the quantile ``p`` of ``n`` samples falls in each
    order statistic's interval ``[k/n, (k+1)/n]``: the Beta((n+1)p,
    (n+1)(1-p)) mass there, by the midpoint rule on 2000 steps each."""
    a, b = (n + 1) * p, (n + 1) * (1.0 - p)
    steps = 2000
    x = (numpy.arange(n * steps) + 0.5) / (n * steps)
    log_density = (a - 1.0) * numpy.log(x) + (b - 1.0) * numpy.log1p(-x)
    mass = numpy.exp(log_density - log_density.max()).reshape(n, steps).sum(axis=1)
    return (mass / mass.sum()).tolist()


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles`` gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def median_of(rows: list[dict]) -> dict[str, float]:
    """Per-key median over a list of metric dicts."""
    keys = {key for row in rows for key in row}
    return {
        key: statistics.median(row[key] for row in rows if key in row)
        for key in keys
    }


def canonical(payload: dict) -> str:
    """The byte-stable JSON a digest is taken over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest_of(pairs: dict[str, str], texts: list[str] = ()) -> str:
    """sha256 over ``(key, record JSON)`` pairs sorted by key, then texts."""
    hasher = hashlib.sha256()
    for key in sorted(pairs):
        hasher.update(f"{key}\n{pairs[key]}\n".encode())
    for text in texts:
        hasher.update(text.encode())
    return hasher.hexdigest()


def load_digests() -> dict:
    """The committed reference digests (see ``digests.json``)."""
    with DIGESTS_PATH.open() as handle:
        return json.load(handle)


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MB (Linux reports KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def repro_env() -> dict[str, str]:
    """Environment for child processes: import ``repro`` from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def import_probe(module: str) -> tuple[float, float]:
    """When a fresh interpreter started and finished importing ``module``.

    No timeout: ``subprocess`` waits for a timed child by polling with
    sleeps of up to 50 ms, which would round the measured time to them.
    """
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        cwd=ROOT, env=repro_env(), check=True,
    )
    return start, time.perf_counter()


#: Dictionary updates, then numpy gathers, in one host-speed probe.
PROBE_LOOPS = 750
PROBE_GATHERS = 20
#: The probe gathers from 64 Ki floats: 512 KiB, about a core's L2.
_PROBE_ARRAY = numpy.random.default_rng(0).random(1 << 16)
#: The probe's thread CPU time on an uncontended core of the reference
#: host (2 vCPUs, Python 3.11.7, numpy 1.26).
REFERENCE_PROBE_S = 4.0e-4
#: Pause between probes.
PROBE_EVERY_S = 0.02


def _probe() -> float:
    """Half interpreter work, half small numpy calls over an L2-sized
    array: the mix the simulator runs, so that a busy neighbour slows
    the probe about as much as it slows the measured work.  (A pure
    interpreter loop over-reacts to some neighbours and under-reacts to
    others; the mix tracked pass times to within 2-4% where those swung
    by 12-18%.)"""
    table: dict[int, int] = {}
    total = 0.0
    for i in range(PROBE_LOOPS):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + i
        total += key % 7
    for i in range(PROBE_GATHERS):
        index = (numpy.arange(512) * (i + 7919)) & 0xFFFF
        total += float(numpy.sum(_PROBE_ARRAY[index] * 1.5 + 2.0))
    return total


def work_core() -> int:
    """The core measured work runs on: the last one this process may use."""
    return max(os.sched_getaffinity(0))


@contextmanager
def pinned(cpus: set[int]):
    """Confine the calling thread, and processes it starts, to ``cpus``."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


class HostClock:
    """Converts wall time on one core to the reference host's speed.

    The machines this runs on share each core with another tenant's
    hyperthread.  While that neighbour is busy, a core runs this code
    1.5-2x slower, in CPU time as much as in wall time; it switches every
    few milliseconds, on each core independently, and the share of time
    it spends slow drifts from second to second.  So a background thread
    pinned to ``cpu``, the core the measured work runs on, times
    :func:`_probe` every :data:`PROBE_EVERY_S` in its own thread CPU time,
    which waiting for the GIL or for a core does not inflate but a slower
    core does.  :meth:`scale` turns wall seconds into reference seconds.

    Because the speed flips faster than the probes come, it is known only
    as an average over many probes; so a time is scaled by the probes
    taken during the intervals it sums, widened by one probe period so
    that short intervals are sampled too.  The probe runs no code of this
    repository, so a change to the program moves reference seconds
    exactly as it moves wall seconds.
    """

    def __init__(self, cpu: int) -> None:
        #: ``(perf_counter at start, thread CPU seconds)`` per probe.
        self.samples: list[tuple[float, float]] = []
        self.cpu = cpu
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._probe, daemon=True)

    def __enter__(self) -> "HostClock":
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        self._thread.join()

    def _probe(self) -> None:
        os.sched_setaffinity(0, {self.cpu})
        while not self._stop.is_set():
            start, used = time.perf_counter(), time.thread_time()
            _probe()
            self.samples.append((start, time.thread_time() - used))
            self._stop.wait(PROBE_EVERY_S)

    def scale(self, spans) -> float:
        """Reference seconds per wall second during the ``(start, end)``
        spans: the mean of ``REFERENCE_PROBE_S / probe`` over the probes
        taken during them, each widened by :data:`PROBE_EVERY_S`."""
        samples = self.samples
        taken = []
        for start, end in spans:
            first = bisect.bisect_left(samples, start - PROBE_EVERY_S, key=_at)
            last = bisect.bisect_right(samples, end + PROBE_EVERY_S, key=_at)
            taken += samples[first:last]
        if not taken:
            raise RuntimeError("the host clock took no probe in these spans")
        return statistics.fmean(REFERENCE_PROBE_S / used for _, used in taken)

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the one wall interval ``[start, end]``."""
        return (end - start) * self.scale([(start, end)])

    def mean_seconds(self, spans) -> float:
        """Mean reference seconds of the ``(start, end)`` intervals, all
        scaled together: they are repeats of one piece of work."""
        spans = list(spans)
        return statistics.fmean(end - start for start, end in spans) * self.scale(
            spans
        )


def _at(sample: tuple[float, float]) -> float:
    return sample[0]


@contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under :data:`WORK`, removed afterwards."""
    WORK.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


class Spans:
    """Harness-side spans kept in memory and written as a Chrome trace."""

    def __init__(self) -> None:
        self.events: list[dict] = []
        self._stack: list[int] = []
        self._origin = time.perf_counter()

    def add(self, name: str, start: float, end: float, **args) -> int:
        """Record one finished span; returns its id."""
        span_id = len(self.events)
        if self._stack:
            args.setdefault("parent", self._stack[-1])
        self.events.append({
            "name": name,
            "ph": "X",
            "ts": (start - self._origin) * 1e6,
            "dur": (end - start) * 1e6,
            "pid": os.getpid(),
            "tid": 0,
            "args": {"id": span_id, **args},
        })
        return span_id

    @contextmanager
    def span(self, name: str, **args):
        """Time a block; spans opened inside it record it as their parent."""
        start = time.perf_counter()
        span_id = self.add(name, start, start, **args)
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            self.events[span_id]["dur"] = (time.perf_counter() - start) * 1e6

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": self.events}))


@dataclass
class Outcome:
    """What one workload run measured, before it is reported."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    #: Extra lines for people: quartiles, pass counts, digests.
    notes: dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def result(self, trace: bool) -> dict:
        """The JSON result line for this run."""
        units = PER_LAYER if trace else END_TO_END
        missing = sorted(set(units) - set(self.metrics))
        if missing:
            raise RuntimeError(f"run did not measure {missing}")
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": _finite(self.metrics[name]), "unit": unit}
                for name, unit in units.items()
            },
        }


def _finite(value: float) -> float:
    # JSON has no infinity; a failed request's +inf latency saturates.
    return value if math.isfinite(value) else sys.float_info.max
