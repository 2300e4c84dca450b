"""JSON serialisation of the planning inputs for the ASSIGN handshake.

The distributed runtime never ships pickled plans between processes.
Planning — allocation, delegation, placement, dissemination trees — is
fully deterministic given ``(catalog, SystemConfig, queries, seed)``,
so the coordinator sends each worker just those inputs (plus the
placement maps) and every worker re-plans locally, arriving at the
byte-identical federation the coordinator planned.  That keeps the wire
format inspectable, version-tolerant, and free of arbitrary code
execution on connect.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.core.system import SystemConfig
from repro.interest.predicates import Interval, IntervalSet, StreamInterest
from repro.live.runtime import LiveSettings
from repro.query.spec import AggregateSpec, JoinSpec, QuerySpec
from repro.streams.catalog import StreamCatalog
from repro.streams.schema import Attribute, StreamSchema


# --- catalog ----------------------------------------------------------
def catalog_to_spec(catalog: StreamCatalog) -> list[dict]:
    """The catalog as a JSON-able list of schema dicts."""
    return [
        {
            "stream_id": schema.stream_id,
            "attributes": [asdict(attr) for attr in schema.attributes],
            "tuple_size": schema.tuple_size,
            "rate": schema.rate,
        }
        for schema in catalog.schemas()
    ]


def catalog_from_spec(spec: list[dict]) -> StreamCatalog:
    """Rebuild a catalog from :func:`catalog_to_spec` output."""
    catalog = StreamCatalog()
    for entry in spec:
        catalog.register(
            StreamSchema(
                stream_id=entry["stream_id"],
                attributes=tuple(
                    Attribute(**attr) for attr in entry["attributes"]
                ),
                tuple_size=entry["tuple_size"],
                rate=entry["rate"],
            )
        )
    return catalog


# --- system / runtime configuration -----------------------------------
def config_to_spec(config: SystemConfig) -> dict:
    """A :class:`SystemConfig` as a plain dict."""
    return asdict(config)


def config_from_spec(spec: dict) -> SystemConfig:
    """Rebuild a :class:`SystemConfig` from its spec dict."""
    return SystemConfig(**spec)


def settings_to_spec(settings: LiveSettings) -> dict:
    """A :class:`LiveSettings` as a plain dict."""
    return asdict(settings)


def settings_from_spec(spec: dict) -> LiveSettings:
    """Rebuild :class:`LiveSettings` from its spec dict."""
    return LiveSettings(**spec)


# --- queries ----------------------------------------------------------
def _interest_to_spec(interest: StreamInterest) -> dict:
    return {
        "stream_id": interest.stream_id,
        "constraints": {
            name: [[iv.lo, iv.hi] for iv in ivs.intervals]
            for name, ivs in interest.constraints.items()
        },
    }


def _interest_from_spec(spec: dict) -> StreamInterest:
    return StreamInterest(
        stream_id=spec["stream_id"],
        constraints={
            name: IntervalSet([Interval(lo, hi) for lo, hi in pairs])
            for name, pairs in spec["constraints"].items()
        },
    )


def query_to_spec(query: QuerySpec) -> dict:
    """One :class:`QuerySpec` as a JSON-able dict."""
    return {
        "query_id": query.query_id,
        "interests": [_interest_to_spec(i) for i in query.interests],
        "join": asdict(query.join) if query.join is not None else None,
        "aggregate": (
            asdict(query.aggregate) if query.aggregate is not None else None
        ),
        "project": list(query.project) if query.project is not None else None,
        "cost_multiplier": query.cost_multiplier,
        "client_x": query.client_x,
        "client_y": query.client_y,
        "tenant": query.tenant,
    }


def query_from_spec(spec: dict) -> QuerySpec:
    """Rebuild a :class:`QuerySpec` from its spec dict."""
    return QuerySpec(
        query_id=spec["query_id"],
        interests=tuple(_interest_from_spec(i) for i in spec["interests"]),
        join=JoinSpec(**spec["join"]) if spec["join"] is not None else None,
        aggregate=(
            AggregateSpec(**spec["aggregate"])
            if spec["aggregate"] is not None
            else None
        ),
        project=(
            tuple(spec["project"]) if spec["project"] is not None else None
        ),
        cost_multiplier=spec["cost_multiplier"],
        client_x=spec["client_x"],
        client_y=spec["client_y"],
        tenant=spec.get("tenant", "default"),
    )


# --- lifecycle deltas -------------------------------------------------
def delta_to_spec(action: str, payload: "QuerySpec | str") -> dict:
    """One lifecycle delta: ``("admit", QuerySpec)`` or
    ``("retire", query_id)`` as a JSON-able dict."""
    if action == "admit":
        return {"action": "admit", "query": query_to_spec(payload)}
    if action == "retire":
        return {"action": "retire", "query_id": payload}
    raise ValueError(f"unknown delta action {action!r}")


def apply_deltas(planner, deltas: list[dict]) -> None:
    """Replay lifecycle deltas against a planner, in sequence order.

    Every worker (and the coordinator) runs this after the base
    ``submit``, so the effective query set — and therefore the whole
    deterministic plan — is identical across processes.  A retire of a
    query that was never admitted is a no-op, matching the live control
    plane's moot-teardown semantics.
    """
    for delta in deltas:
        if delta["action"] == "admit":
            planner.submit_one(query_from_spec(delta["query"]))
        else:
            try:
                planner.withdraw(delta["query_id"])
            except KeyError:
                pass


# --- the full ASSIGN payload ------------------------------------------
def assignment_to_spec(
    *,
    worker_id: int,
    peers: list[dict],
    catalog: StreamCatalog,
    config: SystemConfig,
    settings: LiveSettings,
    queries: list[QuerySpec],
    duration: float,
    entity_workers: dict[str, int],
    feed_workers: dict[str, int],
    delta_count: int = 0,
) -> dict:
    """The complete federation spec one worker needs to participate.

    ``delta_count`` announces how many ADMIT/RETIRE frames follow the
    ASSIGN, which the worker must collect (in order) and apply after the
    base workload before re-planning.
    """
    return {
        "worker_id": worker_id,
        "peers": peers,
        "catalog": catalog_to_spec(catalog),
        "config": config_to_spec(config),
        "settings": settings_to_spec(settings),
        "queries": [query_to_spec(q) for q in queries],
        "duration": duration,
        "entity_workers": entity_workers,
        "feed_workers": feed_workers,
        "delta_count": delta_count,
    }
