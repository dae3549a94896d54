"""End-to-end smoke check for the sweep service.

``make service-smoke`` runs it, as a step of the CI ``smoke`` job.

Starts a real service (workers + HTTP) on an ephemeral port, then drives
the full request lifecycle over the wire and asserts the exported metrics
tell the right story:

1. an uncached submission misses, simulates once, and completes;
2. resubmitting the identical recipe hits the store without engine work;
3. an infeasible-power-cap recipe is rejected at admission (HTTP 400,
   ``kind=invalid-config``) without a worker ever seeing it.

Exits non-zero with a diagnostic on the first violated expectation, so a
failing run prints a one-line cause rather than a stack of JSON.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.errors import ServiceError
from repro.service.client import ServiceClient
from repro.service.metrics import (
    ADMISSION_ACCEPTED,
    ADMISSION_REJECTED,
    CACHE_HITS,
    CACHE_MISSES,
    JOBS_COMPLETED,
    SIM_RUNS,
)
from repro.service.server import ServiceConfig, ServiceThread

RECIPE = {"workload": "Stream", "ctas": 16, "gpms": 2}
INFEASIBLE = {"workload": "Stream", "ctas": 16, "gpms": 4, "cap_watts": 1.0}


def _expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"service-smoke: FAIL: {message}", file=sys.stderr)
        raise SystemExit(1)


def main(argv: list[str] | None = None) -> int:
    with tempfile.TemporaryDirectory(prefix="service-smoke-") as tmp:
        config = ServiceConfig(workers=2, cache_dir=Path(tmp))
        with ServiceThread(config) as thread:
            client = ServiceClient(
                thread.host, thread.port, client_id="service-smoke"
            )
            health = client.healthz()
            _expect(health.get("status") == "ok", f"bad healthz: {health}")

            first = client.submit_recipe(RECIPE)
            _expect(
                first["cache"] == "miss",
                f"fresh submission should miss, got {first['cache']!r}",
            )
            second = client.submit_recipe(RECIPE)
            _expect(
                second["cache"] == "hit",
                f"resubmission should hit, got {second['cache']!r}",
            )
            _expect(
                first["record"] == second["record"],
                "hit record differs from the simulated record",
            )

            try:
                client.submit_recipe(INFEASIBLE)
                _expect(False, "infeasible cap was accepted")
            except ServiceError as error:
                _expect(
                    error.kind == "invalid-config",
                    f"wrong rejection kind: {error.kind!r}",
                )

            counts = client.metrics()["counts"]
            for name, want in {
                ADMISSION_ACCEPTED: 2,
                ADMISSION_REJECTED: 1,
                CACHE_MISSES: 1,
                CACHE_HITS: 1,
                SIM_RUNS: 1,
                JOBS_COMPLETED: 1,
            }.items():
                got = counts.get(name, 0)
                _expect(got == want, f"{name}: expected {want}, got {got}")

    print(
        "service-smoke: OK (1 miss simulated once, 1 hit served from the"
        " store, 1 infeasible cap rejected at admission)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
