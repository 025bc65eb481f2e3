#!/usr/bin/env python3
"""Performance middlebox functions from §III-A: caching and compression.

The paper motivates EndBox with *performance* functions too ("caching
and load balancers for better performance", §II-B; "caching, ...,
compression", §III-A).  This example runs both inside the enclave of a
remote employee connected over a slow WAN link:

* a **WebCache** element answers repeated HTTP requests locally — the
  second fetch of each object never crosses the WAN,
* a **Compressor** element deflates bulk UDP uploads before they enter
  the uplink; the peer decompresses at the gateway side.

Run:  python examples/wan_optimization.py
"""

from repro.fleet import DeploymentSpec
from repro.http.client import HttpClient
from repro.http.server import HttpServer
from repro.netsim.traffic import UdpSink, UdpTrafficSource

CACHE_CONFIG = (
    "from :: FromDevice();\n"
    "cache :: WebCache(80);\n"
    "zip :: Compressor(256);\n"
    "to :: ToDevice();\n"
    "from -> cache -> zip -> to;\n"
)


DECOMP_CONFIG = (
    "from :: FromDevice();\n"
    "unzip :: Decompressor();\n"
    "to :: ToDevice();\n"
    "from -> unzip -> to;\n"
)


def main() -> None:
    # two clients: the remote employee and a peer site running the
    # decompressor (c2c flagging off so the peer's Click actually runs)
    world = DeploymentSpec(clients=2, setup="endbox_sgx", use_case="NOP", c2c_flagging=False).build()
    client, peer = world.clients
    # remote employee: 40 ms one-way to the office
    client.host.stack.interfaces[0].link.latency_s = 40e-3
    # in-enclave cache + compressor; the enclave injects cache hits back
    # into the local stack through the TUN device
    client.endbox.gateway.ecall("initialize", CACHE_CONFIG, "", sim=world.sim)
    peer.endbox.gateway.ecall("initialize", DECOMP_CONFIG, "", sim=world.sim)
    world.connect_all(until=30.0)
    client.endbox.enclave.trusted_state["click_context"]["inject"] = client.tun.write

    web = HttpServer(world.internal, port=80, cost_model=world.model)
    web.add_resource("/dashboard.json", b'{"widgets": [' + b'"w",' * 200 + b'"end"]}')
    web.start()
    http = HttpClient(client.host)
    timings = []

    def browse():
        for _ in range(3):
            response = yield world.sim.process(
                http.get(world.internal.address, "/dashboard.json")
            )
            assert response.status == 200
            timings.append(response.elapsed_s)

    world.sim.process(browse())
    world.sim.run(until=world.sim.now + 30.0)
    hits = int(client.click_handler("cache", "hits"))
    print("HTTP fetches of the same dashboard over a 40 ms WAN:")
    for index, elapsed in enumerate(timings):
        source = "origin" if index == 0 or hits == 0 else "enclave cache"
        print(f"  fetch {index + 1}: {elapsed * 1e3:7.1f} ms  ({source})")
    print(f"cache hits: {hits}")
    print("(the GET is answered from the enclave; only the TCP handshake")
    print(" still crosses the WAN - a packet-level cache does not terminate TCP)")
    assert timings[1] < timings[0] * 0.6, "cached fetches should save the data round trip"

    # ------------------------------------------------------------------
    # compressed bulk upload
    # ------------------------------------------------------------------
    received = []

    def receiver():
        sock = peer.host.stack.udp_socket(9300, address=peer.tunnel_ip)
        while True:
            payload, *_ = yield sock.recv()
            received.append(payload)

    world.sim.process(receiver())
    upload = UdpTrafficSource(client.host, peer.tunnel_ip, 9300, rate_bps=8e6, packet_bytes=1400)
    original = b"log-line: service heartbeat OK\n" * 44  # compressible
    upload.payload = original
    upload.start()
    world.sim.run(until=world.sim.now + 0.5)
    upload.stop()
    world.sim.run(until=world.sim.now + 0.2)
    ratio = float(client.click_handler("zip", "ratio"))
    saved = int(client.click_handler("zip", "bytes_saved"))
    restored = int(peer.click_handler("unzip", "restored"))
    print(f"\nbulk upload compressed inside the sender's enclave: ratio {ratio:.2f}, {saved} bytes saved")
    print(f"peer's Decompressor restored {restored} datagrams; app sees the original bytes: "
          f"{bool(received) and received[0] == original}")
    assert ratio < 0.5
    assert received and received[0] == original
    print("\nWAN optimisation complete: §III-A's performance functions, client-side and trusted.")


if __name__ == "__main__":
    main()
