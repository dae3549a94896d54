"""Admission control: reject bad or over-budget work before it costs anything.

Three gates run, in order, before a request may touch the queue:

1. **Validation** — the request's spec and config re-run the library's own
   ``ConfigError`` checks, plus the runtime-feasibility checks a
   constructor can't do alone: an infeasible power cap (the ladder floor
   still exceeds the budget) is caught here by asking the governor the
   config implies (:func:`~repro.dvfs.idle.governor_for`) for its initial
   points — the same up-front rejection ``repro dvfs --cap-watts``
   performs.
2. **Rate limiting** — one token per submission from the client's bucket.
3. **Capacity** — the queue must admit one more job, after stale pending
   jobs have been swept.

Each gate maps to its own metric counter and :class:`~repro.errors.ServiceError`
kind, so a rejected request is observable (and billable to the right
cause) without a single cycle of engine time.
"""

from __future__ import annotations

from repro.errors import ConfigError, ServiceError
from repro.service.job import JobRequest


def validate_request(request: JobRequest) -> None:
    """Raise :class:`ConfigError` for work the engine would reject later.

    Spec and config invariants were enforced by their constructors (the
    dataclasses validate in ``__post_init__``); what remains are the
    cross-object runtime checks the simulator would otherwise hit only
    after queueing: power-cap feasibility against the V/f curve, and a
    per-GPM DVFS grid that matches the chip.
    """
    config = request.config
    if config.power_cap_watts is not None:
        from repro.dvfs.idle import governor_for

        # Raises ConfigError when even the ladder floor exceeds the budget.
        governor_for(config).initial_points(config.num_gpms)
    if config.dvfs is not None:
        # Validates per-GPM point-list length against the chip.
        config.dvfs.mean_core_ratios(config.num_gpms)


class AdmissionReject(ServiceError):
    """A request was turned away at the front door (no engine time spent)."""


def invalid(error: ConfigError) -> AdmissionReject:
    return AdmissionReject(str(error), kind="invalid-config")


def rate_limited(client: str) -> AdmissionReject:
    return AdmissionReject(
        f"client {client!r} exceeded its submission rate", kind="rate-limited"
    )


def queue_full(depth: int) -> AdmissionReject:
    return AdmissionReject(
        f"queue is full ({depth} pending jobs, none stale)", kind="queue-full"
    )
