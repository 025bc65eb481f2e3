"""A Click modular router (Kohler et al., TOCS 2000) in Python.

EndBox implements its middlebox functions as Click element graphs running
inside the enclave; this package reproduces the Click programming model:

* **Elements** with numbered input/output ports and a ``push`` packet
  hand-off (:mod:`~repro.click.element`),
* the **configuration language** — ``name :: Class(args);`` declarations
  and ``a[1] -> [0]b`` connection chains, with comments
  (:mod:`~repro.click.config`),
* a **router** that instantiates and wires a parsed configuration and
  charges per-element costs to a ledger (:mod:`~repro.click.router`),
* **hot swapping** of configurations at runtime with state transfer,
  including EndBox's in-memory variant that skips device file-descriptor
  setup (:mod:`~repro.click.hotswap`),
* the **standard elements** the paper uses (IPFilter, RoundRobinSwitch,
  Classifier, Counter, Queue, FromDevice/ToDevice) and EndBox's custom
  ones (IDSMatcher, TrustedSplitter, UntrustedSplitter, TLSDecrypt)
  under :mod:`~repro.click.elements`.

The paper's five evaluation configurations (NOP, LB, FW, IDPS, DDoS,
§V-B) are provided by :mod:`~repro.click.configs`.
"""

from repro.click.config import ClickSyntaxError, parse_config
from repro.click.element import Element, ElementError, Packet
from repro.click.registry import element_registry, register_element
from repro.click.router import Router
from repro.click.hotswap import HotSwapManager, SwapTimings
import repro.click.elements  # noqa: F401  (registers the element classes)
from repro.click import configs

__all__ = [
    "ClickSyntaxError",
    "Element",
    "ElementError",
    "HotSwapManager",
    "Packet",
    "Router",
    "SwapTimings",
    "configs",
    "element_registry",
    "parse_config",
    "register_element",
]
