"""Per-client token-bucket quotas.

Admission control is the difference between graceful degradation and
collapse: a client that exceeds its rate gets a 429 with a honest
``Retry-After`` while everyone else keeps being served.  The bucket is
the classic shape — ``burst`` capacity, ``rate`` tokens/second refill —
with an injectable clock so the unit tests are deterministic (no sleeps,
no flakes).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

from repro.errors import ConfigurationError


@dataclass
class TokenBucket:
    """One client's bucket: ``capacity`` tokens, refilled at ``rate``/s."""

    rate: float
    capacity: float
    tokens: float = 0.0
    updated: float = 0.0

    def __post_init__(self) -> None:
        self.tokens = self.capacity

    def take(self, now: float) -> Tuple[bool, float]:
        """Try to consume one token at time *now*.

        Returns ``(allowed, retry_after_seconds)`` — the second value is
        0 when allowed, else the time until one token accrues.
        """
        if now > self.updated:
            self.tokens = min(
                self.capacity, self.tokens + (now - self.updated) * self.rate
            )
            self.updated = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True, 0.0
        if self.rate <= 0.0:  # pragma: no cover - guarded at construction
            return False, math.inf
        return False, (1.0 - self.tokens) / self.rate


@dataclass
class QuotaRegistry:
    """Token buckets keyed by client id.

    ``rate <= 0`` disables quotas entirely (every request admitted) —
    the switch load tests use to isolate queue behaviour.
    """

    rate: float = 32.0
    burst: float = 64.0
    clock: Callable[[], float] = time.monotonic
    _buckets: Dict[str, TokenBucket] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("rate", "burst"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(
                    f"quota {name} must be finite, got {value}"
                )
        if self.rate > 0.0 and self.burst < 1.0:
            raise ConfigurationError(
                f"quota burst must be >= 1 token, got {self.burst}"
            )

    @property
    def enabled(self) -> bool:
        return self.rate > 0.0

    def allow(self, client: str) -> Tuple[bool, float]:
        """Admit one request from *client*; ``(allowed, retry_after)``."""
        if not self.enabled:
            return True, 0.0
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = self._buckets[client] = TokenBucket(
                rate=self.rate, capacity=self.burst
            )
            bucket.updated = self.clock()
        return bucket.take(self.clock())

    def snapshot(self) -> Dict[str, float]:
        """Config the health endpoint reports."""
        return {
            "rate_per_second": self.rate,
            "burst": self.burst,
            "clients_seen": float(len(self._buckets)),
        }
