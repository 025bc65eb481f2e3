"""Per-layer wall-clock spans, recorded from outside the program.

The benchmark never edits ``repro``: it wraps a fixed set of each
layer's public functions (:data:`TARGETS`) with span recorders before
the world is built and puts the originals back afterwards.  A span's
*self time* is its duration minus the time its child spans cover; the
recorder sums self time per layer online, so nothing per call is kept.

Module-level functions are replaced in every ``repro.*`` namespace that
bound them by name (``from repro.crypto.hmac import hmac_verify`` in
``repro.vpn.channel``), and class attributes under every name that
aliases the same function (``KeystreamCipher.encrypt``/``decrypt`` are
``process``).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: (layer, module, attribute path) for every wrapped public function.
#: The layer is the ``repro`` package the function belongs to.  The
#: switch has no public forwarding function: its ports hand frames to it
#: from ``Interface.deliver``, so its time counts under that span.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("sim", "repro.sim.engine", "Simulator.run"),
    ("netsim", "repro.netsim.stack", "UdpSocket.sendto"),
    ("netsim", "repro.netsim.stack", "NetworkStack.send_packet"),
    ("netsim", "repro.netsim.stack", "NetworkStack.inject"),
    ("netsim", "repro.netsim.interface", "Interface.send"),
    ("netsim", "repro.netsim.interface", "Interface.deliver"),
    ("netsim", "repro.netsim.link", "Link.transmit"),
    ("netsim", "repro.netsim.tun", "TunDevice.enqueue_outbound"),
    ("netsim", "repro.netsim.tun", "TunDevice.write"),
    ("sgx", "repro.sgx.gateway", "EnclaveGateway.ecall"),
    ("sgx", "repro.sgx.gateway", "EnclaveGateway.ecall_batch"),
    ("sgx", "repro.sgx.gateway", "EnclaveGateway.ocall"),
    ("click", "repro.click.router", "Router.process"),
    ("click", "repro.click.router", "Router.process_batch"),
    ("vpn", "repro.vpn.channel", "DataChannel.protect"),
    ("vpn", "repro.vpn.channel", "DataChannel.unprotect"),
    ("vpn", "repro.vpn.channel", "DataChannel.protect_batch"),
    ("vpn", "repro.vpn.channel", "DataChannel.unprotect_batch"),
    ("vpn", "repro.vpn.replay", "ReplayWindow.check_and_update"),
    ("vpn", "repro.vpn.fragment", "Fragmenter.split"),
    ("vpn", "repro.vpn.fragment", "Reassembler.add"),
    ("vpn", "repro.vpn.protocol", "VpnPacket.serialize"),
    ("vpn", "repro.vpn.protocol", "VpnPacket.parse"),
    ("crypto", "repro.crypto.stream", "KeystreamCipher.process"),
    ("crypto", "repro.crypto.hmac", "hmac_sha256"),
    ("crypto", "repro.crypto.hmac", "hmac_verify"),
    ("core", "repro.core.endbox_client", "EndBoxClient.process_egress"),
    ("core", "repro.core.endbox_client", "EndBoxClient.process_ingress"),
)

#: every layer named in :data:`TARGETS`, in table order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))


class SpanRecorder:
    """Sums self time per layer, inclusive time and calls per function.

    ``clock`` returns seconds; tests pass a scripted clock to check the
    arithmetic on a known call tree.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._stack: List[List[float]] = []
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (call between spans only)."""
        if self._stack:
            raise RuntimeError("reset() inside an open span")
        self.self_s: Dict[str, float] = defaultdict(float)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span of ``layer`` recorded as ``name``."""
        clock = self.clock
        stack = self._stack
        recorder = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            # frame = [start, time covered by child spans]
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                recorder.self_s[layer] += duration - frame[1]
                recorder.inclusive_s[name] += duration
                recorder.calls[name] += 1

        return span

    def layer_calls(self) -> Dict[str, int]:
        """Calls summed per layer."""
        totals = {layer: 0 for layer in LAYERS}
        for layer, _module, path in TARGETS:
            totals[layer] += self.calls.get(path, 0)
        return totals


def _repro_modules() -> List[object]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _swap(old: object, new: object, modules: List[object], owners: List[type]) -> int:
    """Rebind every module global and class attribute that ``is old``."""
    count = 0
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)
                count += 1
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if value is old:
                setattr(owner, attr, new)
                count += 1
    return count


class Patches:
    """The installed wrappers; :meth:`uninstall` restores by identity."""

    def __init__(self) -> None:
        #: (original, wrapper, class or None) per target
        self.installed: List[Tuple[object, object, object]] = []

    def uninstall(self) -> None:
        """Put every original back wherever a wrapper was bound.

        Modules imported after :func:`install` that bound a wrapper by
        name are swept too, because the walk runs again now.
        """
        modules = _repro_modules()
        for original, wrapper, owner in reversed(self.installed):
            _swap(wrapper, original, modules, [owner] if owner is not None else [])
        self.installed.clear()


def install(recorder: SpanRecorder) -> Patches:
    """Wrap every function in :data:`TARGETS`; returns the undo record."""
    for _layer, module_name, _path in TARGETS:
        importlib.import_module(module_name)
    modules = _repro_modules()
    patches = Patches()
    try:
        for layer, module_name, path in TARGETS:
            module = sys.modules[module_name]
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(module, class_name)
                original = vars(owner)[attr]
                if isinstance(original, classmethod):
                    wrapper = classmethod(recorder.wrap(layer, path, original.__func__))
                else:
                    wrapper = recorder.wrap(layer, path, original)
                _swap(original, wrapper, [], [owner])
            else:
                owner = None
                original = getattr(module, path)
                wrapper = recorder.wrap(layer, path, original)
                _swap(original, wrapper, modules, [])
            patches.installed.append((original, wrapper, owner))
    except BaseException:
        patches.uninstall()
        raise
    return patches
