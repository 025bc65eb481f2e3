"""The declarative deployment specification.

A :class:`DeploymentSpec` describes a whole simulated world as plain
data — topology scenario, gateway count, use-case pipeline, client
population, optional fault plan and seed — in the same
design language as :class:`~repro.faults.plan.FaultPlan`: a frozen,
validated dataclass that round-trips through ``to_dict``/``from_dict``
(and JSON) and carries no object references.

``spec.build()`` assembles the world and returns a
:class:`~repro.fleet.deployment.FleetDeployment`.  Determinism contract:
the same spec always builds the byte-identical world.

Only the (non-serialisable) cost model stays outside the spec; pass it
to :meth:`DeploymentSpec.build` when an experiment needs a calibrated
variant.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.faults.plan import FaultPlan, FaultPlanError

#: the evaluation setups (mirrors ``repro.core.scenarios.SETUPS``;
#: duplicated as data to keep this module import-light and cycle-free).
SETUPS = ("vanilla", "openvpn_click", "endbox_sgx", "endbox_sim")

#: the deployment scenarios of §II-A.
SCENARIOS = ("enterprise", "isp")

#: the middlebox use cases of §V-B.
USE_CASES = ("NOP", "LB", "FW", "IDPS", "DDoS")


class DeploymentSpecError(ValueError):
    """Malformed deployment specification."""


@dataclass(frozen=True)
class DeploymentSpec:
    """Plain-data description of one deployable world.

    Field groups (all JSON-safe):

    * world shape — ``setup``, ``use_case``, ``scenario``, ``clients``,
      ``internal_hosts``, ``with_config_server``, ``protect_internal``;
    * fleet shape — ``gateways`` (N VPN gateways, each with its own
      tunnel subnet, clients placed on them by the hash ring);
    * client pipeline — ``single_ecall_optimization``, ``c2c_flagging``,
      ``ecall_batching``, ``isp_no_encryption``;
    * timing/cost — ``ping_interval``, ``charge_cpu``,
      ``connect_timeout_s`` (the deadline ``connect_all`` derives);
    * seeding — ``seed`` (a string; encoded latin-1 for the world's
      DRBG tree);
    * chaos — ``fault_plan``, an optional embedded
      :class:`~repro.faults.plan.FaultPlan` armed by the scenario
      drivers that opt in.
    """

    setup: str = "endbox_sgx"
    use_case: str = "NOP"
    scenario: str = "enterprise"
    clients: int = 1
    gateways: int = 1
    internal_hosts: int = 1
    protect_internal: bool = True
    isp_no_encryption: bool = False
    single_ecall_optimization: bool = True
    c2c_flagging: bool = True
    ecall_batching: bool = False
    with_config_server: bool = True
    ping_interval: float = 1.0
    charge_cpu: bool = True
    connect_timeout_s: float = 10.0
    seed: str = "deployment"
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        """Validate every field; raises :class:`DeploymentSpecError`."""
        if self.setup not in SETUPS:
            raise DeploymentSpecError(f"unknown setup {self.setup!r}; expected one of {SETUPS}")
        if self.use_case not in USE_CASES:
            raise DeploymentSpecError(
                f"unknown use case {self.use_case!r}; expected one of {USE_CASES}"
            )
        if self.scenario not in SCENARIOS:
            raise DeploymentSpecError(
                f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}"
            )
        if self.clients < 0:
            raise DeploymentSpecError(f"clients must be >= 0, got {self.clients}")
        if self.gateways < 1:
            raise DeploymentSpecError(f"gateways must be >= 1, got {self.gateways}")
        if self.gateways > 250:
            raise DeploymentSpecError(
                f"at most 250 gateways fit the 10.8.<g>.0/24 tunnel plan, got {self.gateways}"
            )
        if self.internal_hosts < 0:
            raise DeploymentSpecError(f"internal_hosts must be >= 0, got {self.internal_hosts}")
        if not self.ping_interval > 0:
            raise DeploymentSpecError(f"ping_interval must be positive, got {self.ping_interval}")
        if not self.connect_timeout_s > 0:
            raise DeploymentSpecError(
                f"connect_timeout_s must be positive, got {self.connect_timeout_s}"
            )
        if not self.seed:
            raise DeploymentSpecError("seed must be a non-empty string")
        if self.fault_plan is not None and not isinstance(self.fault_plan, FaultPlan):
            raise DeploymentSpecError(f"fault_plan must be a FaultPlan, got {self.fault_plan!r}")

    # ------------------------------------------------------------------
    # derived values
    # ------------------------------------------------------------------
    @property
    def seed_bytes(self) -> bytes:
        """The seed as DRBG input (latin-1: lossless for any byte seed)."""
        return self.seed.encode("latin-1")

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------
    def build(self, cost_model=None) -> "Any":
        """Assemble the world; returns a :class:`FleetDeployment`.

        ``cost_model`` stays a build argument (not a spec field) because
        calibrated models are objects, not data; ``None`` means the
        default calibration.
        """
        from repro.fleet.deployment import build_fleet

        return build_fleet(self, cost_model=cost_model)

    # ------------------------------------------------------------------
    # plain-data round trip
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form; the embedded fault plan is expanded too."""
        payload: Dict[str, Any] = {}
        for spec_field in dataclasses.fields(self):
            payload[spec_field.name] = getattr(self, spec_field.name)
        if self.fault_plan is not None:
            payload["fault_plan"] = self.fault_plan.to_dict()
        return payload

    def to_json(self) -> str:
        """Deterministic (sorted-key) JSON rendering."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "DeploymentSpec":
        """Parse a spec from its plain-data form (unknown fields rejected)."""
        if not isinstance(payload, dict):
            raise DeploymentSpecError(f"spec must be a dict, got {type(payload).__name__}")
        fields = dict(payload)
        allowed = {f.name for f in dataclasses.fields(cls)}
        unknown = set(fields) - allowed
        if unknown:
            raise DeploymentSpecError(f"unknown spec fields {sorted(unknown)}")
        plan = fields.get("fault_plan")
        if plan is not None and not isinstance(plan, FaultPlan):
            try:
                fields["fault_plan"] = FaultPlan.from_dict(plan)
            except FaultPlanError as exc:
                raise DeploymentSpecError(f"invalid embedded fault plan: {exc}") from exc
        try:
            return cls(**fields)
        except TypeError as exc:
            raise DeploymentSpecError(str(exc)) from exc

    @classmethod
    def from_json(cls, text: str) -> "DeploymentSpec":
        """Parse a spec from its JSON rendering."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DeploymentSpecError(f"invalid spec JSON: {exc}") from exc
        return cls.from_dict(payload)
