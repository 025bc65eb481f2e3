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
:func:`rebuild_router` and :func:`hotswap_duration` are the swap and its
price, shared with the OpenVPN+Click gateway's per-session vanilla swap.
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


def rebuild_router(router: Router, config_text: str, cost_model, ledger, context) -> Router:
    """Build ``config_text``'s graph; every element whose name and type
    match one of ``router``'s adopts that predecessor's state."""
    new_router = Router(config_text, cost_model, ledger, context)
    for name, element in new_router.elements.items():
        old = router.elements.get(name)
        if old is not None and type(old) is type(element):
            element.take_state(old)
    return new_router


def hotswap_duration(cost_model, config_text: str, in_memory: bool) -> float:
    """Simulated seconds one hot-swap to ``config_text`` takes: parse and
    instantiate, plus the device setup vanilla Click (``in_memory=False``)
    repeats on every swap."""
    swap_s = cost_model.click_hotswap_fixed + len(config_text) * cost_model.click_parse_per_byte
    if not in_memory:
        swap_s += cost_model.click_device_setup
    return swap_s


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
        self._validate(new_config)
        new_router = rebuild_router(
            self.router, new_config, self.cost_model, self.ledger, self.context
        )
        hotswap_s = hotswap_duration(self.cost_model, new_config, self.in_memory)
        if self.ledger is not None:
            self.ledger.add(hotswap_s)
        self.router = new_router
        self.swaps_performed += 1
        timings = SwapTimings(hotswap_s=hotswap_s)
        self.last_timings = timings
        return timings
