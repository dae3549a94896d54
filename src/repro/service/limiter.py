"""Per-client token-bucket rate limiting.

Each client identity owns one bucket: ``burst`` tokens of headroom refilled
continuously at ``rate_per_s``.  Admission spends one token per submission;
an empty bucket means the request is rejected with a rate-limit error
*before* touching the queue or the engine, so one chatty client cannot
crowd out the lanes.  ``rate_per_s=None`` disables limiting entirely (trusted
in-process drivers use that).

The limiter is clock-injected and synchronous, like the queue: the service
calls it from the event loop, tests drive it with a fake clock.
"""

from __future__ import annotations

import time

from repro.errors import ConfigError


class TokenBucket:
    """One client's budget: ``burst`` capacity, ``rate_per_s`` refill."""

    __slots__ = ("rate_per_s", "burst", "tokens", "_updated_at")

    def __init__(self, rate_per_s: float, burst: float) -> None:
        if rate_per_s <= 0:
            raise ConfigError(f"rate_per_s must be positive, got {rate_per_s!r}")
        if burst < 1:
            raise ConfigError(f"burst must be >= 1, got {burst!r}")
        self.rate_per_s = rate_per_s
        self.burst = float(burst)
        self.tokens = float(burst)
        self._updated_at: float | None = None

    def try_acquire(self, now: float) -> bool:
        """Spend one token if available, refilling for elapsed time first."""
        if self._updated_at is not None and now > self._updated_at:
            self.tokens = min(
                self.burst,
                self.tokens + (now - self._updated_at) * self.rate_per_s,
            )
        self._updated_at = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class RateLimiter:
    """Per-client buckets; unknown clients start with a full burst."""

    def __init__(
        self,
        rate_per_s: float | None,
        burst: float = 32.0,
        clock=time.monotonic,
    ) -> None:
        self.rate_per_s = rate_per_s
        self.burst = burst
        self._clock = clock
        self._buckets: dict[str, TokenBucket] = {}

    @property
    def enabled(self) -> bool:
        return self.rate_per_s is not None

    def allow(self, client: str, now: float | None = None) -> bool:
        """True when ``client`` may submit one more job right now."""
        if self.rate_per_s is None:
            return True
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = TokenBucket(self.rate_per_s, self.burst)
            self._buckets[client] = bucket
        return bucket.try_acquire(self._clock() if now is None else now)

    def clients(self) -> list[str]:
        return sorted(self._buckets)
