"""Per-tenant weighted-fair intake quotas (token buckets).

Enforcement happens at the processor hosting a query's head fragment —
the point where a raw stream tuple, taken in from the gateway or from
the delegate's relay, is about to enter that fragment.  That placement
has two consequences the control plane wants:

* dissemination upstream is untouched (a tuple shed for tenant A still
  reaches tenant B's queries on the same stream), and
* shedding is charged to the *query's owner*, not to the stream, so a
  single tenant subscribing a 10× hot stream cannot starve colocated
  tenants of processor time.

Each tenant holds one token bucket refilled in virtual time at a rate
proportional to its weight's share of the federation-wide budget
(``SystemConfig.tenant_quota_rate``).  Buckets are virtual-clock
driven, so as-fast-as-possible replays and scaled runs shed the same
tuples.
"""

from __future__ import annotations

from repro.streams.tuples import StreamTuple


class _Bucket:
    """One tenant's token bucket (virtual-time refill)."""

    __slots__ = ("rate", "capacity", "tokens", "last")

    def __init__(self, rate: float, capacity: float) -> None:
        self.rate = rate
        self.capacity = capacity
        self.tokens = capacity
        self.last = 0.0

    def take(self, wanted: int, now: float) -> int:
        if now > self.last:
            self.tokens = min(
                self.capacity, self.tokens + (now - self.last) * self.rate
            )
            self.last = now
        granted = min(wanted, int(self.tokens))
        self.tokens -= granted
        return granted


class TenantThrottle:
    """Weighted-fair token buckets keyed by head-fragment id.

    Whenever an entity's wiring is (re-)derived, the live runtime
    registers each standalone query's head fragment under its owning
    tenant (:meth:`bind`) and drops the heads that went away
    (:meth:`unbind`); shared prefix fragments are deliberately never
    bound — a shared fragment serves several queries (possibly of
    several tenants), so its intake has no single owner to charge.
    Unbound fragments pass through untouched.
    """

    def __init__(
        self,
        total_rate: float,
        weights: dict[str, float],
        *,
        burst_seconds: float = 0.25,
    ) -> None:
        if total_rate <= 0:
            raise ValueError("total_rate must be positive")
        if not weights:
            raise ValueError("need at least one tenant weight")
        total_weight = sum(weights.values())
        self._buckets: dict[str, _Bucket] = {}
        for tenant, weight in weights.items():
            rate = total_rate * weight / total_weight
            capacity = max(1.0, rate * burst_seconds)
            self._buckets[tenant] = _Bucket(rate, capacity)
        self._tenant_of: dict[str, str] = {}
        self.admitted_by_tenant: dict[str, int] = {
            tenant: 0 for tenant in weights
        }
        self.shed_by_tenant: dict[str, int] = {tenant: 0 for tenant in weights}

    # ------------------------------------------------------------------
    def bind(self, fragment_id: str, tenant: str) -> None:
        """Charge intake through ``fragment_id`` to ``tenant``'s bucket.

        Tenants without a configured weight are not throttled (binding
        is a no-op), matching the config contract: quotas apply to the
        tenants named in ``tenant_weights``.
        """
        if tenant in self._buckets:
            self._tenant_of[fragment_id] = tenant

    def unbind(self, fragment_id: str) -> None:
        """Stop charging a (torn down or migrated) head fragment."""
        self._tenant_of.pop(fragment_id, None)

    # ------------------------------------------------------------------
    def admit(
        self, fragment_id: str, batch: list[StreamTuple], now: float
    ) -> list[StreamTuple]:
        """The prefix of ``batch`` the tenant's bucket can pay for.

        Shedding the suffix (rather than sampling) keeps per-query
        tuple order intact, which the window operators rely on.
        """
        tenant = self._tenant_of.get(fragment_id)
        if tenant is None:
            return batch
        granted = self._buckets[tenant].take(len(batch), now)
        self.admitted_by_tenant[tenant] += granted
        if granted == len(batch):
            return batch
        self.shed_by_tenant[tenant] += len(batch) - granted
        return batch[:granted]

    # ------------------------------------------------------------------
    @property
    def total_shed(self) -> int:
        return sum(self.shed_by_tenant.values())


def throttle_from_config(config) -> TenantThrottle | None:
    """Build the federation's throttle from ``SystemConfig`` knobs
    (``None`` when quotas are disabled)."""
    if config.tenant_quota_rate is None or not config.tenant_weights:
        return None
    return TenantThrottle(
        config.tenant_quota_rate, dict(config.tenant_weights)
    )
