"""Multi-tenant serving policy: tenant registry, weights, and quotas.

One :class:`~repro.service.server.ExplanationService` can serve many
tenants, each with a private namespace in the one
:class:`~repro.knowledge.knowledge_base.KnowledgeBase` (searched together
with the shared default namespace) and private cache levels.  This module
holds the *policy* side of that isolation:

* :class:`TenantConfig` — declarative per-tenant settings carried on
  :class:`~repro.service.config.ServiceConfig` (``tenants=``);
* :class:`TokenBucket` — a classic rate limiter backing per-tenant
  request quotas;
* :class:`TenantRegistry` — resolves a request's tenant to its weight
  (for the batcher's weighted fair queue) and admits or rejects it
  against its quota.

Unknown tenants are admitted with weight 1.0 and no quota (open-by-default
keeps single-tenant deployments configuration-free); declare a tenant in
``ServiceConfig.tenants`` to give it a weight or a quota.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.knowledge.knowledge_base import DEFAULT_TENANT

__all__ = ["DEFAULT_TENANT", "TenantConfig", "TokenBucket", "TenantRegistry"]


@dataclass(frozen=True)
class TenantConfig:
    """Declarative per-tenant serving policy.

    ``weight`` scales the tenant's share of the micro-batcher (2.0 drains
    twice as fast as 1.0 under contention).  ``requests_per_second`` caps
    sustained admission (``None`` = unlimited); ``burst`` is the token
    bucket's capacity (defaults to ``max(1, 2 * rate)``).
    """

    name: str
    weight: float = 1.0
    requests_per_second: float | None = None
    burst: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.weight <= 0:
            raise ValueError(f"tenant {self.name!r} weight must be positive")
        if self.requests_per_second is not None and self.requests_per_second <= 0:
            raise ValueError(f"tenant {self.name!r} requests_per_second must be positive")
        if self.burst is not None and self.burst <= 0:
            raise ValueError(f"tenant {self.name!r} burst must be positive")


class TokenBucket:
    """Thread-safe token-bucket rate limiter with an injectable clock."""

    def __init__(
        self,
        rate: float,
        capacity: float | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        self.capacity = capacity if capacity is not None else max(1.0, 2.0 * rate)
        self._clock = clock
        self._tokens = self.capacity
        self._refilled_at = clock()
        self._lock = threading.Lock()

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available; never blocks."""
        with self._lock:
            now = self._clock()
            self._tokens = min(self.capacity, self._tokens + (now - self._refilled_at) * self.rate)
            self._refilled_at = now
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            return False

    @property
    def available(self) -> float:
        with self._lock:
            now = self._clock()
            return min(self.capacity, self._tokens + (now - self._refilled_at) * self.rate)


class TenantRegistry:
    """Resolves tenants to their configured weight and quota state."""

    def __init__(
        self,
        tenants: tuple[TenantConfig, ...] | list[TenantConfig] = (),
        *,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._configs: dict[str, TenantConfig] = {}
        self._buckets: dict[str, TokenBucket] = {}
        for config in tenants:
            if config.name in self._configs:
                raise ValueError(f"duplicate tenant {config.name!r}")
            self._configs[config.name] = config
            if config.requests_per_second is not None:
                self._buckets[config.name] = TokenBucket(
                    config.requests_per_second, config.burst, clock=clock
                )

    def known(self, tenant: str) -> bool:
        return tenant in self._configs

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._configs))

    def config(self, tenant: str) -> TenantConfig:
        """The declared config, or an open default for unknown tenants."""
        declared = self._configs.get(tenant)
        return declared if declared is not None else TenantConfig(name=tenant)

    def weight(self, tenant: str) -> float:
        return self.config(tenant).weight

    def try_admit(self, tenant: str) -> bool:
        """Charge one request against the tenant's quota.

        ``True`` when the tenant has no quota or has tokens left.
        """
        bucket = self._buckets.get(tenant)
        return True if bucket is None else bucket.try_acquire()
