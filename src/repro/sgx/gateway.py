"""The ecall/ocall boundary: cost accounting plus interface hardening.

EndBox's §IV-B describes a 90-call interface whose ecalls/ocalls are
augmented with sanity checks against Iago-style attacks.  The gateway
models that boundary:

* every ecall/ocall increments transition counters and charges the
  transition cost (hardware mode only) to a :class:`CostLedger`,
* declared argument validators run *inside* the boundary; a failing
  validator raises :class:`InterfaceViolation` without executing the
  handler — the defence the paper's "interface attacks" paragraph claims.

Buffer copies across the boundary, which make small packets expensive
in Fig 8, are priced by the one handler that moves packets:
``ecall_process_packet`` in :mod:`repro.core.enclave_app` charges
``2·memcpy(size)`` per packet.
"""

from __future__ import annotations

import warnings
from typing import Any, Callable, Dict, Optional

from repro.sgx.enclave import Enclave, EnclaveError, EnclaveMode
from repro.telemetry.registry import Registry


class InterfaceViolation(EnclaveError):
    """An ecall/ocall argument failed its declared sanity check."""


class InterfaceWarning(UserWarning):
    """A boundary declaration weakens the Iago defence (§IV-B)."""


class CostLedger:
    """Accumulates simulated CPU seconds for later execution on a host."""

    def __init__(self) -> None:
        self._accumulated = 0.0
        self.total = 0.0

    def add(self, seconds: float) -> None:
        """Accumulate simulated seconds."""
        if seconds < 0:
            raise ValueError("negative cost")
        self._accumulated += seconds
        self.total += seconds

    def drain(self) -> float:
        """Return and reset the pending simulated time."""
        pending, self._accumulated = self._accumulated, 0.0
        return pending

    @property
    def pending(self) -> float:
        return self._accumulated


class EnclaveGateway:
    """Untrusted <-> trusted call boundary for one enclave.

    Every transition is counted twice: in this gateway's own
    :attr:`ecalls` / :attr:`ocalls` and in the current registry's
    ``sgx.gateway.*`` totals (:mod:`repro.telemetry`).
    """

    def __init__(
        self,
        enclave: Enclave,
        ledger: Optional[CostLedger] = None,
        transition_cost: float = 0.0,
    ) -> None:
        self.enclave = enclave
        self.ledger = ledger or CostLedger()
        self.transition_cost = transition_cost
        #: crossings made through this gateway (an ecall_batch is one)
        self.ecalls = 0
        self.ocalls = 0
        registry = Registry.current()
        self._tm_ecalls = registry.counter("sgx.gateway.ecalls")
        self._tm_ocalls = registry.counter("sgx.gateway.ocalls")
        #: the registry's expected-EPC-fault total; the cost-accounting
        #: ecalls (repro.core.enclave_app) add their charged faults here
        self._tm_epc_faults = registry.counter("sgx.epc.page_faults")
        self._ocalls: Dict[str, Callable] = {}
        # separate per-direction tables keyed by bare name: the hot
        # ecall/ocall paths look validators up per crossing, and a
        # single table would need an f"ecall:{name}" key built per call
        self._ecall_validators: Dict[str, Callable[..., bool]] = {}
        self._ocall_validators: Dict[str, Callable[..., bool]] = {}

    # ------------------------------------------------------------------
    # declaration
    # ------------------------------------------------------------------
    def register_ocall(
        self,
        name: str,
        handler: Callable,
        validator: Optional[Callable[..., bool]] = None,
        *,
        unvalidated_ok: bool = False,
    ) -> None:
        """Declare an ocall implemented by untrusted code.

        Every ocall return value crosses back into the enclave, so a
        missing ``validator`` means a lying handler reaches trusted code
        unchecked — the exact Iago attack §IV-B defends against.
        Registering without one therefore warns unless the caller opts
        out with ``unvalidated_ok=True`` (attack simulations register
        deliberately unvalidated bait handlers).
        """
        if validator is None and not unvalidated_ok:
            warnings.warn(
                f"ocall {name!r} registered without a return-value validator; "
                "hostile (Iago-style) return values will reach trusted code "
                "unchecked — pass validator=..., or unvalidated_ok=True in "
                "attack simulations",
                InterfaceWarning,
                stacklevel=2,
            )
        self._ocalls[name] = handler
        if validator is not None:
            self._ocall_validators[name] = validator

    def set_ecall_validator(self, name: str, validator: Callable[..., bool]) -> None:
        """Attach an input sanity check to an ecall."""
        self._ecall_validators[name] = validator

    # ------------------------------------------------------------------
    # crossings
    # ------------------------------------------------------------------
    def _charge_transition(self) -> None:
        """Charge one EENTER or EEXIT (hardware mode only)."""
        if self.enclave.mode is EnclaveMode.HARDWARE:
            self.ledger.add(self.transition_cost)

    def ecall(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Enter the enclave through entry point ``name``.

        The arguments are passed through to the handler, which prices
        any buffer it copies across the boundary.
        """
        validator = self._ecall_validators.get(name)
        if validator is not None and not validator(*args, **kwargs):
            raise InterfaceViolation(f"ecall {name!r}: argument sanity check failed")
        handler = self.enclave._enter(name)
        self.ecalls += 1
        self._tm_ecalls.inc()
        self._charge_transition()
        try:
            return handler(self.enclave, self, *args, **kwargs)
        finally:
            self.enclave._leave()
            self._charge_transition()  # the EEXIT side

    def ecall_batch(self, name: str, calls, **kwargs: Any) -> list:
        """Enter the enclave once and run ``name`` for every argument tuple.

        §IV-A batching taken one step further: a burst of ``len(calls)``
        requests crosses the boundary with a single EENTER/EEXIT pair,
        so the ledger is charged one transition each way.  Everything
        else is unchanged from the scalar :meth:`ecall` — in particular,
        the declared argument validator still runs for *every* item
        before the enclave is entered (a hostile burst must not smuggle
        one bad packet among good ones), and per-item handler costs
        (boundary copies, EPC tax, crypto) are still charged per item.

        Returns the list of per-item handler results, in order.
        """
        validator = self._ecall_validators.get(name)
        if validator is not None:
            for args in calls:
                if not validator(*args, **kwargs):
                    raise InterfaceViolation(f"ecall {name!r}: argument sanity check failed")
        handler = self.enclave._enter(name)
        self.ecalls += 1
        self._tm_ecalls.inc()
        self._charge_transition()
        try:
            enclave = self.enclave
            return [handler(enclave, self, *args, **kwargs) for args in calls]
        finally:
            self.enclave._leave()
            self._charge_transition()  # the EEXIT side

    def ocall(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Call out of the enclave into untrusted code.

        Return values are validated (Iago defence) before re-entering.
        """
        handler = self._ocalls.get(name)
        if handler is None:
            raise EnclaveError(f"undeclared ocall {name!r}")
        self.ocalls += 1
        self._tm_ocalls.inc()
        self._charge_transition()
        result = handler(*args, **kwargs)
        validator = self._ocall_validators.get(name)
        if validator is not None and not validator(result):
            raise InterfaceViolation(f"ocall {name!r}: return value sanity check failed")
        self._charge_transition()  # re-entry
        return result
