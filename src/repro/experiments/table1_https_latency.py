"""Table I: HTTPS GET latency under transparent TLS inspection (§III-D).

An HTTPS client inside an EndBox tunnel fetches static pages of 4/16/32
KiB in three configurations:

* **EndBox OpenSSL w/ dec** — the custom library forwards session keys
  to the enclave and a TLSDecrypt element decrypts application records,
* **EndBox OpenSSL w/o dec** — keys are forwarded (the management-
  interface hop is paid) but no decryption element runs,
* **vanilla OpenSSL w/o dec** — stock TLS library, no key forwarding.

The paper's claim: the whole mechanism costs < 8 % extra latency.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.click import configs as click_configs
from repro.fleet import DeploymentSpec
from repro.experiments.common import ExperimentResult, format_table, relative_error
from repro.http.client import HttpClient
from repro.http.server import HttpServer
from repro.tlslib.library import TlsLibrary

SIZES = (4096, 16384, 32768)
CONFIGS = ("EndBox OpenSSL w/ dec", "EndBox OpenSSL w/o dec", "vanilla OpenSSL w/o dec")

PAPER_MS: Dict[str, Dict[int, float]] = {
    "EndBox OpenSSL w/ dec": {4096: 1.08, 16384: 1.34, 32768: 1.78},
    "EndBox OpenSSL w/o dec": {4096: 1.04, 16384: 1.29, 32768: 1.75},
    "vanilla OpenSSL w/o dec": {4096: 1.00, 16384: 1.26, 32768: 1.70},
}


TITLE = "Table I: HTTPS GET latency"


def _render(series: Dict[str, Dict[int, float]]) -> str:
    """Render the per-configuration latency tables."""
    blocks = [TITLE]
    for config, points in series.items():
        rows = []
        for size, ms in points.items():
            paper_value = PAPER_MS.get(config, {}).get(size)
            rows.append(
                [
                    f"{size // 1024} KB",
                    f"{paper_value:.2f}" if paper_value else "-",
                    f"{ms:.2f}",
                    relative_error(ms, paper_value) if paper_value else "n/a",
                ]
            )
        blocks.append(
            format_table(["resp. size", "paper [ms]", "measured [ms]", "error"], rows, title=config)
        )
    return "\n\n".join(blocks)


def _measure(config: str, sizes: Sequence[int], repeats: int, seed: str) -> Dict[int, float]:
    with_decryption = config == "EndBox OpenSSL w/ dec"
    custom_library = config != "vanilla OpenSSL w/o dec"
    world = DeploymentSpec(
        clients=1,
        setup="endbox_sgx",
        use_case="NOP",
        with_config_server=False,
        seed=seed,
    ).build()
    client = world.clients[0]
    if with_decryption:
        # swap the enclave Click graph for the TLS-inspection pipeline
        # decrypt-only pipeline: the paper measures "traffic decryption
        # inside Click" without an IDS stage behind it
        decrypt_config = (
            "from :: FromDevice(); tls :: TLSDecrypt(); to :: ToDevice(); from -> tls -> to;"
        )
        client.endbox.gateway.ecall("initialize", decrypt_config, "", sim=world.sim)
    world.connect_all()
    # HTTPS server on the internal host
    server_tls = TlsLibrary(seed=b"server-tls")
    https = HttpServer(world.internal, port=443, tls=server_tls, cost_model=world.model)
    for size in sizes:
        https.add_resource(f"/static/{size}", bytes(32 + (i % 95) for i in range(size)))
    https.start()

    key_export = client.management.forward_tls_keys if custom_library else None
    client_tls = TlsLibrary(seed=b"client-tls", custom=custom_library, key_export=key_export)
    http = HttpClient(client.host, tls=client_tls)

    latencies: Dict[int, float] = {}
    for size in sizes:
        samples = []

        def fetch_loop(size=size, samples=samples):
            for _ in range(repeats):
                response = yield world.sim.process(
                    http.get(world.internal.address, f"/static/{size}", port=443)
                )
                assert response.status == 200 and len(response.body) == size
                samples.append(response.elapsed_s)

        world.sim.process(fetch_loop())
        world.sim.run(until=world.sim.now + repeats * 1.0)
        if not samples:
            raise RuntimeError(f"no successful fetches for size {size}")
        latencies[size] = sum(samples) / len(samples)
    if with_decryption:
        decrypted = int(client.click_handler("tls", "bytes"))
        if decrypted <= 0:
            raise RuntimeError("TLSDecrypt saw no plaintext: key forwarding broken?")
    return latencies


def run(sizes: Sequence[int] = SIZES, repeats: int = 5, seed: str = "table1") -> ExperimentResult:
    """Run the experiment; returns an :class:`ExperimentResult`."""
    series = {}
    for config in CONFIGS:
        measured = _measure(config, sizes, repeats, seed)
        series[config] = {size: ms * 1e3 for size, ms in measured.items()}
    return ExperimentResult(
        name="table1",
        title=TITLE,
        x_label="resp. size",
        unit="ms",
        series=series,
        paper={config: dict(points) for config, points in PAPER_MS.items()},
        text=_render(series),
    )


if __name__ == "__main__":  # pragma: no cover
    print(run().to_text())
