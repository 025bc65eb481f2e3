"""Configuration hot-swapping (Table II).

Vanilla Click hot-swaps by parsing the new file, instantiating the new
graph, transferring element state, and re-opening device file
descriptors for ``FromDevice``/``ToDevice`` — the paper measures 2.4 ms
for a minimal configuration.  EndBox adapts the mechanism to in-memory
configuration strings and skips the device setup (OpenVPN already owns
the TUN fd), cutting the swap to 0.74 ms (§V-F).

The manager models both variants.  Durations are *simulated* seconds,
computed from the cost model and charged to the ledger; the swap itself
is real (a new Router replaces the old one, with state transfer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.click.graphcheck import check_config_text
from repro.click.router import Router
from repro.sgx.gateway import CostLedger


@dataclass
class SwapTimings:
    """Simulated duration of each phase of one configuration update."""

    fetch_s: float = 0.0
    decrypt_s: float = 0.0
    hotswap_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.fetch_s + self.decrypt_s + self.hotswap_s


class HotSwapManager:
    """Owns the live Router and performs hot swaps."""

    def __init__(
        self,
        initial_config: str,
        cost_model,
        ledger: Optional[CostLedger] = None,
        in_memory: bool = True,
        context: Optional[dict] = None,
    ) -> None:
        self.cost_model = cost_model
        self.ledger = ledger
        #: EndBox keeps configurations in enclave memory; vanilla Click
        #: re-opens device file descriptors on every swap.
        self.in_memory = in_memory
        self.context = context or {}
        self._validate(initial_config)
        self.router = Router(initial_config, cost_model, ledger, self.context)
        self.swaps_performed = 0
        self.last_timings: Optional[SwapTimings] = None

    # ------------------------------------------------------------------
    @staticmethod
    def _validate(config_text: str) -> None:
        """Statically validate the element graph before instantiating it.

        Rejects configurations the runtime would only trip over later —
        dangling ports, cycles (which would recurse forever on the first
        packet), unknown element classes — so a versioned
        reconfiguration fails *before* its grace period switches clients
        over.  Raises :class:`~repro.click.graphcheck.ClickGraphError`.
        """
        check_config_text(config_text)

    # ------------------------------------------------------------------
    def hotswap(self, new_config: str) -> SwapTimings:
        """Replace the running configuration; returns phase timings.

        The new graph is validated and fully built before the old router
        is replaced, so a rejected configuration leaves the running one
        untouched.
        """
        model = self.cost_model
        with self.router.telemetry.span("click.hotswap.swap"):
            self._validate(new_config)
            new_router = Router(new_config, model, self.ledger, self.context)
            # state transfer: same-named elements adopt their predecessor's state
            for name, element in new_router.elements.items():
                old = self.router.elements.get(name)
                if old is not None and type(old) is type(element):
                    element.take_state(old)
            parse_cost = model.click_hotswap_fixed + len(new_config) * model.click_parse_per_byte
            device_cost = 0.0
            if not self.in_memory:
                device_cost = model.click_device_setup
            hotswap_s = parse_cost + device_cost
            if self.ledger is not None:
                self.ledger.add(hotswap_s)
            self.router = new_router
            self.swaps_performed += 1
            timings = SwapTimings(hotswap_s=hotswap_s)
            self.last_timings = timings
        return timings
