"""Declarative fault plans: what breaks, when, and for how long.

A :class:`FaultPlan` is a named, validated schedule of fault events
expressed entirely in *simulated* time (seconds relative to the moment
the injector arms the plan).  Plans are plain data: they round-trip
through ``to_dict``/``from_dict`` (and JSON), carry no randomness and no
object references, and the same plan applied to the same seeded world
always produces the byte-identical trace — determinism is the whole
point (the DET4xx lint treats ``repro.faults`` like any simulated
component, with no exemption).

Event kinds
-----------
* :class:`LinkLoss` — random frame loss on a named ``netsim`` link,
* :class:`LinkPartition` — total loss window on a link (both directions),
* :class:`LatencySpike` — propagation-latency bump on a link,
* :class:`ServerRestart` — VPN-server crash/restart with session loss,
* :class:`ClientCrash` — client crash + restart with sealed-state
  restore through the SGX layer,
* :class:`ConfigServerOutage` — configuration file server answers 503,
* :class:`EpcPressure` — EPC allocation spike on a client's platform.

Link names accept either the topology link name (``link:client-0``) or
just the host name (``client-0``).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Iterable, List, Optional, Tuple, Type


class FaultPlanError(ValueError):
    """Malformed fault plan or event."""


@dataclass(frozen=True)
class FaultEvent:
    """Base class: one scheduled fault, ``at`` seconds after arming."""

    #: wire/registry tag for this event kind (set by subclasses).
    kind: ClassVar[str] = ""

    at: float

    def __post_init__(self) -> None:
        """Validate the schedule time."""
        if self.at < 0:
            raise FaultPlanError(f"{type(self).__name__}: 'at' must be >= 0, got {self.at}")

    def _check_duration(self, duration: Optional[float], required: bool = True) -> None:
        """Shared validation for duration-style fields."""
        if duration is None:
            if required:
                raise FaultPlanError(f"{type(self).__name__}: a duration is required")
            return
        if duration <= 0:
            raise FaultPlanError(
                f"{type(self).__name__}: duration must be positive, got {duration}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form, including the ``kind`` discriminator."""
        payload = dataclasses.asdict(self)
        payload["kind"] = self.kind
        return payload


@dataclass(frozen=True)
class LinkLoss(FaultEvent):
    """Random frame loss on one link; restored after ``duration`` (if any)."""

    kind: ClassVar[str] = "link_loss"

    link: str = ""
    rate: float = 0.0
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        """Validate rate, duration and the link reference."""
        super().__post_init__()
        if not self.link:
            raise FaultPlanError("LinkLoss: 'link' must name a link or host")
        if not 0.0 <= self.rate <= 1.0:
            raise FaultPlanError(f"LinkLoss: rate must be in [0, 1], got {self.rate}")
        self._check_duration(self.duration, required=False)


@dataclass(frozen=True)
class LinkPartition(FaultEvent):
    """Total loss on one link for ``duration`` seconds (both directions)."""

    kind: ClassVar[str] = "link_partition"

    link: str = ""
    duration: float = 0.0

    def __post_init__(self) -> None:
        """Validate duration and the link reference."""
        super().__post_init__()
        if not self.link:
            raise FaultPlanError("LinkPartition: 'link' must name a link or host")
        self._check_duration(self.duration)


@dataclass(frozen=True)
class LatencySpike(FaultEvent):
    """Propagation latency raised to ``latency_s`` for ``duration`` seconds."""

    kind: ClassVar[str] = "latency_spike"

    link: str = ""
    latency_s: float = 0.0
    duration: float = 0.0

    def __post_init__(self) -> None:
        """Validate latency, duration and the link reference."""
        super().__post_init__()
        if not self.link:
            raise FaultPlanError("LatencySpike: 'link' must name a link or host")
        if self.latency_s < 0:
            raise FaultPlanError(f"LatencySpike: latency must be >= 0, got {self.latency_s}")
        self._check_duration(self.duration)


@dataclass(frozen=True)
class ServerRestart(FaultEvent):
    """VPN-server crash: session tables lost, down for ``outage_s``."""

    kind: ClassVar[str] = "server_restart"

    outage_s: float = 0.0

    def __post_init__(self) -> None:
        """Validate the outage window."""
        super().__post_init__()
        self._check_duration(self.outage_s)


@dataclass(frozen=True)
class GatewayRestart(FaultEvent):
    """Rolling-restart step for one fleet gateway (``repro.fleet``).

    The fleet drains the gateway first (clients migrate away and
    re-handshake elsewhere), the gateway loses its session tables and
    stays down for ``outage_s``, then comes back and the fleet re-homes
    the drained clients.  Against a single-gateway world, ``gateway=0``
    behaves like :class:`ServerRestart` with no clients to drain to.
    """

    kind: ClassVar[str] = "gateway_restart"

    gateway: int = 0
    outage_s: float = 0.0

    def __post_init__(self) -> None:
        """Validate the gateway index and outage window."""
        super().__post_init__()
        if self.gateway < 0:
            raise FaultPlanError(
                f"GatewayRestart: gateway index must be >= 0, got {self.gateway}"
            )
        self._check_duration(self.outage_s)


@dataclass(frozen=True)
class ClientCrash(FaultEvent):
    """Client crash + restart with sealed-state restore (§III-C).

    The enclave is destroyed (all in-RAM trusted state lost), the host
    process suspends for ``outage_s``, then a fresh enclave is created
    from the same measured image and re-provisioned from sealed storage.
    """

    kind: ClassVar[str] = "client_crash"

    client: int = 0
    outage_s: float = 0.0

    def __post_init__(self) -> None:
        """Validate the client index and outage window."""
        super().__post_init__()
        if self.client < 0:
            raise FaultPlanError(f"ClientCrash: client index must be >= 0, got {self.client}")
        self._check_duration(self.outage_s)


@dataclass(frozen=True)
class ConfigServerOutage(FaultEvent):
    """The configuration file server answers 503 for ``duration`` seconds."""

    kind: ClassVar[str] = "config_outage"

    duration: float = 0.0

    def __post_init__(self) -> None:
        """Validate the outage window."""
        super().__post_init__()
        self._check_duration(self.duration)


@dataclass(frozen=True)
class EpcPressure(FaultEvent):
    """Foreign EPC allocation on a client platform for ``duration`` seconds.

    Raises the platform's paging fraction, so every packet ecall pays the
    paging tax — the §V-F EPC-thrashing effect, injected on demand.
    ``client=None`` pressures every platform in the deployment.
    """

    kind: ClassVar[str] = "epc_pressure"

    nbytes: int = 0
    duration: float = 0.0
    client: Optional[int] = None

    def __post_init__(self) -> None:
        """Validate the allocation size, window and client index."""
        super().__post_init__()
        if self.nbytes <= 0:
            raise FaultPlanError(f"EpcPressure: nbytes must be positive, got {self.nbytes}")
        if self.client is not None and self.client < 0:
            raise FaultPlanError(f"EpcPressure: client index must be >= 0, got {self.client}")
        self._check_duration(self.duration)


#: kind tag -> event class, for parsing.
EVENT_KINDS: Dict[str, Type[FaultEvent]] = {
    cls.kind: cls
    for cls in (
        LinkLoss,
        LinkPartition,
        LatencySpike,
        ServerRestart,
        GatewayRestart,
        ClientCrash,
        ConfigServerOutage,
        EpcPressure,
    )
}


def event_from_dict(payload: Dict[str, Any]) -> FaultEvent:
    """Parse one event dict (must carry a known ``kind``)."""
    if not isinstance(payload, dict):
        raise FaultPlanError(f"event must be a dict, got {type(payload).__name__}")
    fields = dict(payload)
    kind = fields.pop("kind", None)
    cls = EVENT_KINDS.get(kind)
    if cls is None:
        raise FaultPlanError(f"unknown fault kind {kind!r}; expected one of {sorted(EVENT_KINDS)}")
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = set(fields) - allowed
    if unknown:
        raise FaultPlanError(f"{cls.__name__}: unknown fields {sorted(unknown)}")
    try:
        return cls(**fields)
    except TypeError as exc:
        raise FaultPlanError(f"{cls.__name__}: {exc}") from exc


class FaultPlan:
    """A named, ordered schedule of fault events.

    Events keep their given order for equal ``at`` times (stable sort),
    so a plan is a deterministic program: same plan + same world + same
    seed → byte-identical trace.
    """

    def __init__(self, name: str, events: Iterable[FaultEvent] = ()) -> None:
        if not name:
            raise FaultPlanError("a fault plan needs a name")
        self.name = name
        events = list(events)
        for event in events:
            if not isinstance(event, FaultEvent):
                raise FaultPlanError(f"not a FaultEvent: {event!r}")
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: e.at)  # stable: ties keep list order
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return self.name == other.name and self.events == other.events

    def __repr__(self) -> str:
        return f"FaultPlan({self.name!r}, {len(self.events)} events)"

    # ------------------------------------------------------------------
    # plain-data round trip
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (``{"name": ..., "events": [...]}``)."""
        return {"name": self.name, "events": [event.to_dict() for event in self.events]}

    def to_json(self) -> str:
        """Deterministic (sorted-key) JSON rendering."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultPlan":
        """Parse a plan from its plain-data form."""
        if not isinstance(payload, dict):
            raise FaultPlanError(f"plan must be a dict, got {type(payload).__name__}")
        events_payload = payload.get("events", [])
        if not isinstance(events_payload, list):
            raise FaultPlanError("'events' must be a list")
        events: List[FaultEvent] = [event_from_dict(item) for item in events_payload]
        return cls(payload.get("name", ""), events)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan from its JSON rendering."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"invalid plan JSON: {exc}") from exc
        return cls.from_dict(payload)
