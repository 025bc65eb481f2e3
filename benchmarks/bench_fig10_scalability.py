"""Fig 10 bench: scalability with the number of clients.

Uses a reduced client grid to keep the regeneration affordable; the
full grid is available through ``endbox-experiments fig10``.
"""

from repro.experiments import fig10_scalability

COUNTS = (1, 20, 40, 60)


def test_fig10a_nop_scalability(once, benchmark):
    result = once(benchmark, fig10_scalability.run_fig10a, counts=COUNTS)
    print("\n" + result.to_text())
    vanilla = result.series["vanilla OpenVPN"]
    endbox = result.series["EndBox SGX"]
    click = result.series["vanilla Click"]
    ovpn_click = result.series["OpenVPN+Click"]

    # linear region: throughput tracks offered load
    for series in (vanilla, endbox, click, ovpn_click):
        assert abs(series[1] - 0.2) < 0.05
    # vanilla and EndBox saturate together around 6.5 Gbps
    assert 5.8 < vanilla[60] < 7.2
    assert 5.8 < endbox[60] < 7.2
    assert abs(endbox[60] - vanilla[60]) / vanilla[60] < 0.05
    # standalone Click caps near 5.5 Gbps
    assert 4.7 < click[60] < 6.0
    # OpenVPN+Click caps near 2.5 Gbps and decreases with clients
    assert 1.8 < ovpn_click[40] < 3.2
    assert ovpn_click[60] <= ovpn_click[40] + 0.05
    # server CPU saturates for the VPN set-ups at 60 clients
    cpu = result.metadata["cpu_percent"]
    assert cpu["vanilla OpenVPN"][60] > 95
    assert cpu["OpenVPN+Click"][60] > 95
    # ... but not for single-threaded standalone Click
    assert cpu["vanilla Click"][60] < 40


def test_fig10b_use_case_scalability(once, benchmark):
    result = once(
        benchmark, fig10_scalability.run_fig10b, counts=(30, 60), use_cases=("FW", "IDPS")
    )
    print("\n" + result.to_text())
    # EndBox hits the same ~6.5 Gbps ceiling for every use case
    assert 5.8 < result.series["EndBox SGX FW"][60] < 7.2
    assert 5.8 < result.series["EndBox SGX IDPS"][60] < 7.2
    # the centralised deployment caps far lower, worse for heavy functions
    fw_central = result.series["OpenVPN+Click FW"][60]
    idps_central = result.series["OpenVPN+Click IDPS"][60]
    assert fw_central < 3.2
    assert idps_central < fw_central
    # paper: 2.6x (light) to 3.8x (heavy) advantage at 60 clients
    fw_ratio = fig10_scalability.speedup_at(result, 60, "FW")
    idps_ratio = fig10_scalability.speedup_at(result, 60, "IDPS")
    assert 2.0 < fw_ratio < 3.6
    assert 2.6 < idps_ratio < 4.5
    assert idps_ratio > fw_ratio

