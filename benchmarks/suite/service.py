"""The ``service-mixed`` workload: ``repro serve`` under mixed traffic.

The server runs as a child process (``repro serve --port 0 --workers 2``)
with a fresh cache directory.  Load comes from one asyncio thread in this
process over at most two connections at a time:

* an open loop at :data:`RATE` requests per second, each request timed
  from when it was due, so a stall also delays the requests queued behind
  it; then
* a closed loop: :data:`CLOSED_PASSES` passes of 144 requests, two
  connections sending back to back.

The server, the load generator and the host clock's probe share one
core: a request's client and server halves run one after the other, so
nothing is lost, and the probe sees every part of a request's time.

Requests come in groups of four: a *fresh* recipe that misses and
simulates (queueing, simulation, store write), then three repeats of *hot*
recipes that set-up already simulated (memory-tier hits: HTTP, admission
and a store read).  Leading with the miss gives it three request slots to
finish before the next miss is due, so the latencies depend on the
recipes sent and not on how the seed happened to line misses up.  Every
recipe comes from a fixed pool whose record digests are committed, so
every response is checked, whatever the seed.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import math
import pstats
import random
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from benchmarks.suite import layers
from benchmarks.suite.batch import FULL, SMOKE, layer_shares, record_metrics
from benchmarks.suite.harness import (
    PER_LAYER,
    ROOT,
    WORK,
    HostClock,
    Outcome,
    Spans,
    canonical,
    load_digests,
    peak_rss_mb,
    percentile,
    pinned,
    quartiles,
    repro_env,
    scratch_dir,
    work_core,
)
from repro.workloads.suite import WORKLOAD_SPECS

#: Open-loop offered load, requests per second: about 15% of what the
#: server sustains on the reference host, so that a hit seldom waits
#: behind a simulation and latencies do not swing with queueing.
RATE = 10.0
#: Concurrent connections the load generator may hold.
CONNECTIONS = 2
#: Hot repeats per fresh recipe: a 75% / 25% hit / miss mix.
HOT_PER_MISS = 3

#: The pool: every Table II workload at every shape (CTAs x GPMs), one
#: kernel, on the default ring at 2x bandwidth.  Its simulations take
#: 11-250 ms, 54 ms on average, on the reference host.
POOL_WORKLOADS = tuple(WORKLOAD_SPECS)
POOL_SHAPES = tuple(
    (ctas, gpms) for ctas in (64, 128, 256) for gpms in (4, 8, 16, 32)
)
POOL_SIZE = len(POOL_SHAPES) * len(POOL_WORKLOADS)

#: Each shape's workloads are split, rotating with the shape, into
#: CLOSED_PASSES blocks of CLOSED_PER_SHAPE for the closed loop,
#: OPEN_PER_SHAPE for the open loop and one hot recipe; the rest are not
#: sent.  Every run sends the whole split (the seed only orders it and
#: picks which hot recipe each hit repeats), so no seed draws cheaper or
#: dearer simulations than another, and every closed-loop pass holds each
#: shape equally often.
CLOSED_PASSES = 3
CLOSED_PER_SHAPE = 3
#: 60 fresh recipes make 240 open-loop requests: the 95th percentile then
#: has 12 samples beyond it.
OPEN_PER_SHAPE = 5
#: A smoke run keeps this many recipes of each role, and one closed pass.
SMOKE_RECIPES = 4


def pool_recipe(index: int) -> dict:
    """The wire recipe of pool entry ``index``."""
    shape, workload = divmod(index, len(POOL_WORKLOADS))
    ctas, gpms = POOL_SHAPES[shape]
    return {
        "workload": POOL_WORKLOADS[workload],
        "ctas": ctas,
        "kernels": 1,
        "gpms": gpms,
    }


def role(index: int) -> str | int | None:
    """``"hot"``, ``"open"``, the closed-loop block of pool entry ``index``,
    or ``None`` for an entry no run sends."""
    shape, workload = divmod(index, len(POOL_WORKLOADS))
    rank = (workload + shape) % len(POOL_WORKLOADS)
    closed = CLOSED_PASSES * CLOSED_PER_SHAPE
    if rank < closed:
        return rank // CLOSED_PER_SHAPE
    if rank < closed + OPEN_PER_SHAPE:
        return "open"
    return "hot" if rank == len(POOL_WORKLOADS) - 1 else None


def record_digest(record: dict) -> str:
    return hashlib.sha256(canonical(record).encode()).hexdigest()[:16]


def pool_digests() -> list[str]:
    """Record digest of every pool recipe, simulated in-process."""
    from repro.service.job import request_from_recipe
    from repro.service.server import execute_request

    return [
        record_digest(execute_request(request_from_recipe(pool_recipe(i)))[0])
        for i in range(POOL_SIZE)
    ]


class Mix:
    """The seeded request mix: the pool's split, in a seeded order."""

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.rng = random.Random(seed)
        by_role: dict = {}
        for index in range(POOL_SIZE):
            by_role.setdefault(role(index), []).append(index)
        limit = SMOKE_RECIPES if smoke else None
        self.hot = by_role["hot"][:limit]
        blocks = [by_role[block] for block in range(CLOSED_PASSES)]
        self.rng.shuffle(blocks)
        #: The open loop's requests.
        self.open = self._mixed(self._shuffled(by_role["open"])[:limit])
        #: The closed loop's requests, one list per pass.
        self.closed = [
            self._mixed(self._shuffled(block)[:limit])
            for block in blocks[:1 if smoke else None]
        ]

    def _shuffled(self, items: list[int]) -> list[int]:
        items = list(items)
        self.rng.shuffle(items)
        return items

    def _mixed(self, misses: list[int]) -> list[int]:
        plan: list[int] = []
        for miss in misses:
            plan += [miss, *(self.rng.choice(self.hot) for _ in range(HOT_PER_MISS))]
        return plan


@dataclass
class Sample:
    """One request as the load generator saw it."""

    index: int
    due: float
    issued: float
    sent: float
    done: float
    status: int
    payload: dict
    #: Set by :func:`check_samples`.
    ok: bool = False


def latency_ms(sample: Sample) -> float:
    """Wall milliseconds from due to done; +inf for a failed request."""
    return (sample.done - sample.due) * 1e3 if sample.ok else math.inf


async def http(host: str, port: int, method: str, path: str, body=None):
    """One HTTP/1.1 exchange; the server closes the connection after it."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        data = b"" if body is None else json.dumps(body).encode()
        writer.write(
            (
                f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
                "X-Repro-Client: bench\r\nContent-Type: application/json\r\n"
                f"Content-Length: {len(data)}\r\n\r\n"
            ).encode()
            + data
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        with contextlib.suppress(OSError):
            await writer.wait_closed()
    head, _, payload = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), json.loads(payload)


async def request(host, port, index, due, gate: asyncio.Semaphore) -> Sample:
    issued = time.perf_counter()
    async with gate:
        sent = time.perf_counter()
        try:
            status, payload = await asyncio.wait_for(
                http(host, port, "POST", "/v1/jobs", pool_recipe(index)), 60.0
            )
        except (OSError, ValueError, IndexError, asyncio.TimeoutError) as error:
            status, payload = 0, {"error": repr(error)}
        return Sample(index, due, issued, sent, time.perf_counter(), status, payload)


async def open_loop(host, port, plan: list[int]) -> list[Sample]:
    gate = asyncio.Semaphore(CONNECTIONS)
    start = time.perf_counter()
    tasks = []
    for k, index in enumerate(plan):
        due = start + k / RATE
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(request(host, port, index, due, gate)))
    return list(await asyncio.gather(*tasks))


async def closed_loop(host, port, plan: list[int]) -> list[Sample]:
    gate = asyncio.Semaphore(CONNECTIONS)
    pending = iter(plan)
    samples: list[Sample] = []

    async def connection() -> None:
        for index in pending:
            samples.append(
                await request(host, port, index, time.perf_counter(), gate)
            )

    await asyncio.gather(*(connection() for _ in range(CONNECTIONS)))
    return samples


def check_samples(samples: list[Sample], digests: list[str], outcome: Outcome) -> None:
    """A request is OK when it returned 200 and the pool's record bytes."""
    for sample in samples:
        record = sample.payload.get("record")
        sample.ok = (
            sample.status == 200
            and record is not None
            and record_digest(record) == digests[sample.index]
        )
        outcome.attempted += 1
        if not sample.ok:
            outcome.failed += 1
            if len(outcome.problems) < 5:
                outcome.problems.append(
                    f"pool recipe {sample.index}: status {sample.status}"
                    f" {sample.payload.get('error', 'record digest mismatch')}"
                )


class Server:
    """One ``repro serve`` child process with its own cache directory."""

    def __init__(self, cache_dir: Path, profile_dir: Path | None = None) -> None:
        serve = [
            "--port", "0", "--workers", "2", "--cache-dir", str(cache_dir),
        ]
        if profile_dir is None:
            command = [sys.executable, "-m", "repro", "serve", *serve]
        else:
            command = [
                sys.executable, "-m", "benchmarks.suite.launcher",
                str(profile_dir), *serve,
            ]
        self.profiled = profile_dir is not None
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=repro_env(), stdout=subprocess.PIPE
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 120.0)
            line = self.proc.stdout.readline().decode() if ready else ""
            if "listening on http://" not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            address = line.split("http://", 1)[1].split()[0]
            self.host, port = address.rsplit(":", 1)
            self.port = int(port)
        except BaseException:
            self.stop()
            raise

    def get(self, path: str) -> dict:
        status, payload = asyncio.run(http(self.host, self.port, "GET", path))
        if status != 200:
            raise RuntimeError(f"GET {path}: {status} {payload}")
        return payload

    def stop(self) -> None:
        """Stop the child and wait for it; a profiled child dumps first."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM if self.profiled else signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def start_ready(cache_dir: Path, mix: Mix, digests, outcome, profile_dir=None):
    """Start a server and pre-warm the hot recipes.

    Returns the server and the ``(start, end)`` of its set-up.
    """
    start = time.perf_counter()
    server = Server(cache_dir, profile_dir)
    try:
        server.get("/v1/healthz")
        samples = asyncio.run(closed_loop(server.host, server.port, mix.hot))
        check_samples(samples, digests, outcome)
    except BaseException:
        server.stop()
        raise
    return server, (start, time.perf_counter())


def closed_passes(server: Server, plans, digests, outcome) -> list[tuple[float, float]]:
    """One closed-loop pass per plan; returns each pass's ``(start, end)``."""
    spans = []
    for plan in plans:
        start = time.perf_counter()
        samples = asyncio.run(closed_loop(server.host, server.port, plan))
        spans.append((start, time.perf_counter()))
        check_samples(samples, digests, outcome)
    return spans


def service_metrics(samples: list[Sample], server_metrics: dict) -> dict[str, float]:
    """Per-layer service numbers from response manifests and /v1/metrics."""
    good = [s for s in samples if s.ok]
    jobs = [s.payload["job"] for s in good]
    misses = [job for job in jobs if job["cache"] == "miss"]
    counts = server_metrics["counts"]
    unique = {s.payload["job"]["cache_key"]: s.payload["record"] for s in good}
    return {
        **record_metrics(unique.values()),
        "service.hit_frac": sum(job["cache"] == "hit" for job in jobs)
        / max(1, len(jobs)),
        "service.queue_wait_p95_ms": percentile(
            [job["queue_wait_s"] * 1e3 for job in misses], 95
        ),
        "service.exec_p50_ms": percentile([j["exec_s"] * 1e3 for j in misses], 50),
        "service.exec_p95_ms": percentile([j["exec_s"] * 1e3 for j in misses], 95),
        "service.wire_p50_ms": percentile(
            [(s.done - s.sent - s.payload["job"]["total_s"]) * 1e3 for s in good],
            50,
        ),
        "service.gen_late_p95_ms": percentile(
            [(s.issued - s.due) * 1e3 for s in samples], 95
        ),
        "service.rejected": float(
            sum(
                counts.get(f"service.admission.{kind}", 0)
                for kind in ("rejected", "rate_limited", "queue_full")
            )
        ),
        "store.reads": float(sum(job["cache"] == "hit" for job in jobs)),
    }


def spans_for(spans: Spans, phase: str, samples: list[Sample]) -> None:
    for number, sample in enumerate(samples):
        spans.add(
            "request", sample.due, sample.done,
            request_id=f"{phase}-{number}", recipe=sample.index,
            cache=sample.payload.get("cache"), status=sample.status,
        )


def run_service(seed: int, trace: bool, smoke: bool) -> Outcome:
    """The open loop, then the closed-loop passes, on the last of the
    servers set-up started.  The request plan, not a time budget, sets
    the length: about ``run_seconds`` on the reference host."""
    outcome = Outcome()
    digests = load_digests()["service_pool"]
    if trace:
        _traced(seed, smoke, digests, outcome)
        return outcome

    setups = []
    core = work_core()
    with pinned({core}), HostClock(core) as clock, scratch_dir("service-") as work:
        server = None
        try:
            for attempt in range((SMOKE if smoke else FULL).setup_repeats):
                if server is not None:
                    server.stop()
                mix = Mix(seed, smoke)
                server, took = start_ready(
                    work / f"cache-{attempt}", mix, digests, outcome
                )
                setups.append(took)
            began = time.perf_counter()
            samples = asyncio.run(open_loop(server.host, server.port, mix.open))
            open_span = (began, time.perf_counter())
            check_samples(samples, digests, outcome)
            passes = closed_passes(server, mix.closed, digests, outcome)
        finally:
            if server is not None:
                server.stop()

    latencies = [latency_ms(sample) for sample in samples]
    # Each request is scaled by the probes taken around it.
    scaled = [
        latency * clock.scale([(sample.due, sample.done)])
        for latency, sample in zip(latencies, samples)
    ]
    seconds = [end - start for start, end in passes]
    closed_scale = clock.scale(passes)
    outcome.metrics.update({
        "setup_s": statistics.median(clock.seconds(*span) for span in setups),
        "wall_s": clock.mean_seconds(passes),
        "lat_p50_ms": percentile(scaled, 50),
        "lat_p95_ms": percentile(scaled, 95),
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
    })
    q1, median, q3 = quartiles(seconds)
    outcome.notes["wall_s"] = (
        f"closed-loop passes={len(passes)} host speed={1 / closed_scale:.3f};"
        f" wall-clock q1={q1:.4f} median={median:.4f} q3={q3:.4f}"
    )
    outcome.notes["open_loop"] = (
        f"{len(samples)} requests at {RATE:g}/s,"
        f" host speed={1 / clock.scale([open_span]):.3f};"
        f" wall-clock p50={percentile(latencies, 50):.4f}"
        f" p95={percentile(latencies, 95):.4f} ms"
    )
    return outcome


def _traced(seed: int, smoke: bool, digests, outcome: Outcome) -> None:
    """An untraced server runs the first half of the open loop and the
    first closed-loop pass; then a profiled server runs the first two
    passes.  Layer shares come from the profiled server, every other
    number from the untraced one."""
    spans = Spans()
    core = work_core()
    with pinned({core}), HostClock(core) as clock, scratch_dir("service-") as work:
        mix = Mix(seed, smoke)
        server, _ = start_ready(work / "plain", mix, digests, outcome)
        try:
            with spans.span("open loop"):
                plan = mix.open[:len(mix.open) // 2]
                samples = asyncio.run(open_loop(server.host, server.port, plan))
                check_samples(samples, digests, outcome)
                spans_for(spans, "open", samples)
            with spans.span("closed loop"):
                plain = closed_passes(server, mix.closed[:1], digests, outcome)
            metrics = server.get("/v1/metrics")
        finally:
            server.stop()
        outcome.metrics.update(service_metrics(samples, metrics))
        outcome.metrics["store.writes"] = float(
            sum(1 for _ in (work / "plain").glob("*.json"))
        )

        profile_dir = work / "profile"
        server, _ = start_ready(work / "traced", mix, digests, outcome, profile_dir)
        try:
            with spans.span("closed loop, profiled server"):
                profiled = closed_passes(
                    server, mix.closed[:2], digests, outcome
                )
        finally:
            server.stop()
        files = sorted(str(path) for path in profile_dir.glob("*.pstats"))
        if not files:
            raise RuntimeError("the profiled server wrote no profile")
        stats = pstats.Stats(*files).stats

    layer_shares(stats, "service", outcome)
    outcome.metrics.update({
        "workloads.builds": layers.call_count(
            stats, "repro.workloads.generator", "build_workload"
        ) / len(profiled),
        "core.evaluate_calls": layers.call_count(
            stats, "repro.core.energy_model", "evaluate"
        ) / len(profiled),
        # The same first pass, on a profiled and on a plain server.
        "trace.overhead_x": clock.seconds(*profiled[0]) / clock.seconds(*plain[0]),
    })
    for name in PER_LAYER:
        outcome.metrics.setdefault(name, 0.0)
    spans.write(WORK / f"trace-service-mixed-seed{seed}.json")
