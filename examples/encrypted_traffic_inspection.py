#!/usr/bin/env python3
"""§III-D: transparent inspection of encrypted traffic - no MITM needed.

A client application links against the EndBox "custom OpenSSL", which
forwards each negotiated TLS session key through the OpenVPN management
interface into the enclave.  A TLSDecrypt Click element then decrypts
application records in flight and feeds the plaintext to the IDS - the
client sees the server's real certificate, the TLS protocol is
untouched, and an exfiltration attempt hidden inside HTTPS is caught.

Run:  python examples/encrypted_traffic_inspection.py
"""

from repro.click.configs import tls_inspection_config
from repro.fleet import DeploymentSpec
from repro.http.client import HttpClient
from repro.http.server import HttpServer
from repro.tlslib.library import TlsLibrary


def main() -> None:
    world = DeploymentSpec(clients=1, setup="endbox_sgx", use_case="NOP").build()
    client = world.clients[0]
    # the enclave runs TLSDecrypt -> IDSMatcher with a DLP-style rule
    dlp_rule = (
        'alert tcp any any -> any 443 '
        '(msg:"DLP exfiltration marker"; content:"X-Secret-Project: tengu"; sid:777;)'
    )
    inspect_config = tls_inspection_config()
    client.endbox.gateway.ecall("initialize", inspect_config, dlp_rule, sim=world.sim)
    world.connect_all()

    https_server = HttpServer(
        world.internal, port=443, tls=TlsLibrary(seed=b"site"), cost_model=world.model
    )
    https_server.add_resource("/upload", b"ack")
    https_server.start()

    # the app uses the custom library; keys flow to the enclave registry
    app_tls = TlsLibrary(
        seed=b"app", custom=True, key_export=client.management.forward_tls_keys
    )
    http = HttpClient(client.host, tls=app_tls)
    results = {}

    def innocent_then_exfiltrate():
        response = yield world.sim.process(
            http.get(world.internal.address, "/upload", port=443, server_name="site.internal")
        )
        results["innocent"] = response.status
        # second request smuggles the marked header inside TLS
        conn = yield world.sim.process(
            client.host.stack.tcp.connect(world.internal.address, 443)
        )
        stream = yield from app_tls.client_handshake(conn, server_name="site.internal")
        stream.send(
            b"GET /upload HTTP/1.1\r\nHost: site.internal\r\n"
            b"X-Secret-Project: tengu\r\nConnection: close\r\n\r\n"
        )
        try:
            header = yield from stream.read_until(b"\r\n\r\n")
            results["exfil"] = header.split(b"\r\n")[0].decode()
        except Exception as exc:
            results["exfil"] = f"blocked ({type(exc).__name__})"

    world.sim.process(innocent_then_exfiltrate())
    world.sim.run(until=world.sim.now + 30.0)

    keys = client.endbox.enclave.trusted_state["click_context"]["tls_keys"]
    decrypted = int(client.click_handler("tls", "bytes"))
    matched = int(client.click_handler("ids", "matched"))
    print(f"TLS sessions keyed into the enclave: {keys.keys_registered}")
    print(f"plaintext bytes recovered by TLSDecrypt: {decrypted}")
    print(f"innocent HTTPS request: status {results.get('innocent')}")
    print(f"exfiltration attempt: {results.get('exfil')}")
    print(f"IDS matches on decrypted traffic: {matched}")
    assert results.get("innocent") == 200
    assert matched >= 1, "the IDS never saw the secret header"
    assert "blocked" in str(results.get("exfil")), "the exfiltration got through"
    print(
        "\nencrypted-traffic inspection complete: the exfiltration was spotted inside TLS\n"
        "without MITM certificates and without touching the protocol."
    )


if __name__ == "__main__":
    main()
