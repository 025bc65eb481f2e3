"""EndBox (DSN'18) reproduction: client-side trusted middlebox functions.

Top-level convenience imports; the subpackages are the real API surface:

* :mod:`repro.core` — EndBox itself (clients, server, CA, scenarios),
* :mod:`repro.experiments` — one module per table/figure of §V,
* :mod:`repro.attacks` — the executable §V-A security evaluation,
* substrates: :mod:`repro.sim`, :mod:`repro.netsim`, :mod:`repro.sgx`,
  :mod:`repro.click`, :mod:`repro.ids`, :mod:`repro.tlslib`,
  :mod:`repro.vpn`, :mod:`repro.http`, :mod:`repro.consensus`,
  :mod:`repro.costs`.

Quickstart::

    from repro.fleet import DeploymentSpec
    world = DeploymentSpec(clients=1, setup="endbox_sgx", use_case="FW").build()
    world.connect_all()
"""

__version__ = "1.0.0"

from repro.costs import default_cost_model  # noqa: F401
from repro.fleet import DeploymentSpec  # noqa: F401

__all__ = ["__version__", "DeploymentSpec", "default_cost_model"]
