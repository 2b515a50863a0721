"""Per-tenant token-bucket rate limiting.

The bucket is the classic leaky token scheme: each tenant owns
``burst`` tokens, refilled continuously at ``rate`` tokens/second; a
request spends one token or — when the bucket is dry — is refused with
the number of seconds until a token exists again (surfaced to clients
as ``data.retry_after_s`` on the ``RATE_LIMITED`` JSON-RPC error).
Tenants are independent buckets, so one hot client cannot starve the
rest; the clock is injectable so the tests need no sleeps.

The limits default to the ``REPRO_SERVICE_RATE`` (tokens per second per
tenant, default 20), ``REPRO_SERVICE_BURST`` (bucket capacity per
tenant, default 40) and ``REPRO_SERVICE_QUEUE`` (pending + running jobs
before ``QUEUE_FULL``, default 16) knobs of ``runtime.config``.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

from ..runtime.config import knob


class TokenBucket:
    """Thread-safe per-tenant token buckets with an injectable clock."""

    def __init__(
        self,
        rate: Optional[float] = None,
        burst: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.rate = knob("REPRO_SERVICE_RATE", rate, "rate")
        self.burst = knob("REPRO_SERVICE_BURST", burst, "burst")
        self._clock = clock
        self._lock = threading.Lock()
        #: tenant -> (tokens available, clock reading of last refill)
        self._buckets: Dict[str, tuple] = {}

    def allow(self, tenant: str):
        """Spend one token for ``tenant``.

        Returns ``(True, 0.0)`` when admitted, ``(False, retry_after_s)``
        when the bucket is dry.
        """
        now = self._clock()
        with self._lock:
            tokens, last = self._buckets.get(tenant, (float(self.burst), now))
            tokens = min(float(self.burst), tokens + (now - last) * self.rate)
            if tokens >= 1.0:
                self._buckets[tenant] = (tokens - 1.0, now)
                return True, 0.0
            self._buckets[tenant] = (tokens, now)
            return False, (1.0 - tokens) / self.rate
