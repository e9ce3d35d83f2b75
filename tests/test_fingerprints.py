"""Frozen summary-row fingerprints.

Each run below is a short scenario whose `summary_row` is pinned twice: as
the SHA-256 of its sorted-key JSON and as the readable row, so a mismatch
shows which fields moved. Together the runs cover the three policies, both
UE drain policies, the three solver regimes (more active UEs than RCs,
as many, fewer), a PPP deployment and a CQI + arrival trace replay.

A change that claims to alter nothing must leave this file untouched and
passing. Only a change that declares a new random realization regenerates
it; `PYTHONPATH=src python tests/test_fingerprints.py` prints the table.
"""

import hashlib
import json

import numpy as np
import pytest

from ulsched.engine import ScenarioConfig, run
from ulsched.metrics import summary_row

TTIS = 300

RUNS = {
    # more UEs than RCs (8): the penalty regime
    "dham-strict-30": dict(policy="dham", ue_policy="strict", n_ues=30,
                           loads_mbps={"voice": 8.0, "video": 1.0, "data": 1.0}),
    "darts-strict-30": dict(policy="darts", ue_policy="strict", n_ues=30,
                            loads_mbps={"voice": 8.0, "video": 1.0, "data": 1.0}),
    "dafs-flip-30": dict(policy="dafs", ue_policy="flip", n_ues=30,
                         loads_mbps={"voice": 12.0, "video": 14.0, "data": 3.0}),
    # as many UEs as RCs: square while all are active, surplus otherwise
    "dham-flip-8": dict(policy="dham", ue_policy="flip", n_ues=8,
                        loads_mbps={"voice": 6.0, "video": 12.0, "data": 40.0}),
    "darts-flip-8": dict(policy="darts", ue_policy="flip", n_ues=8,
                         loads_mbps={"voice": 6.0, "video": 12.0, "data": 40.0}),
    "dafs-strict-8": dict(policy="dafs", ue_policy="strict", n_ues=8,
                          loads_mbps={"voice": 6.0, "video": 12.0, "data": 40.0}),
    # fewer UEs than RCs: iterative surplus rounds
    "dham-strict-5": dict(policy="dham", ue_policy="strict", n_ues=5,
                          loads_mbps={"voice": 2.0, "video": 4.0, "data": 4.0}),
    "darts-strict-5": dict(policy="darts", ue_policy="strict", n_ues=5,
                           loads_mbps={"voice": 2.0, "video": 4.0, "data": 4.0}),
    "dafs-flip-5": dict(policy="dafs", ue_policy="flip", n_ues=5,
                        loads_mbps={"voice": 2.0, "video": 4.0, "data": 4.0}),
    # a Poisson deployment
    "darts-strict-ppp": dict(policy="darts", ue_policy="strict", ue_mode="ppp",
                             ppp_intensity_per_km2=200.0,
                             loads_mbps={"voice": 8.0, "video": 2.0, "data": 2.0}),
    # replayed CQI and arrival traces, 10 UEs on 8 RCs
    "dham-strict-replay": dict(policy="dham", ue_policy="strict", n_ues=10, replay=True),
    "dafs-flip-replay": dict(policy="dafs", ue_policy="flip", n_ues=10, replay=True),
}


def _write_traces(spec, directory):
    """Seeded CQI and arrival traces: CQIs uniform in 1..15, and per TTI and
    UE a voice packet with probability 0.3, a video packet with probability
    0.1 and a data packet with probability 0.2."""
    n, n_rc = spec["n_ues"], 8
    rng = np.random.default_rng(4242)
    cqi = directory / "cqi.txt"
    arr = directory / "arrivals.txt"
    cqi.write_text("".join(" ".join(map(str, rng.integers(1, 16, size=n * n_rc))) + "\n"
                           for _ in range(TTIS)))
    lines = []
    for tti in range(TTIS):
        for ue in range(n):
            if rng.random() < 0.3:
                lines.append(f"{tti} {ue} voice 40")
            if rng.random() < 0.1:
                lines.append(f"{tti} {ue} video {int(rng.integers(40, 1500))}")
            if rng.random() < 0.2:
                lines.append(f"{tti} {ue} data {int(rng.integers(46, 1500))}")
    arr.write_text("\n".join(lines) + "\n")
    return {"cqi_trace": str(cqi), "arrival_trace": str(arr)}


def fingerprint(name, directory):
    """(sha256, row) of one named run; trace files go to `directory`."""
    spec = dict(RUNS[name])
    if spec.pop("replay", False):
        spec.update(_write_traces(spec, directory))
    cfg = ScenarioConfig.from_dict(dict(spec, seed=7, tti_count=TTIS))
    row = summary_row(run(cfg), cfg.policy, cfg.ue_policy, cfg.seed, cfg.loads_mbps)
    blob = json.dumps(row, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest(), json.loads(blob)


FROZEN = {
    'dafs-flip-30': (
        'fb15c2d822dc3127225fc1efb0c5d4cf91c2cfce0fc7b343de96139d6a8e4b3b',
        {'arrived_bytes': 863141, 'conservation_ok': 1, 'data_delivered_pkts': 140,
         'data_drop_bytes': 0, 'data_mbps': 3.0, 'data_tx_bytes': 66055, 'jain':
         0.824373, 'jain_defined': 1, 'mac_throughput_mbps': 22.31992, 'n_ues': 30,
         'offered_mbps': 23.017093, 'overflow_drop_bytes': 0, 'policy': 'dafs',
         'seed': 7, 'transmitted_bytes': 836997, 'tti_count': 300, 'ue_policy':
         'flip', 'video_delay_max_ms': 117, 'video_delay_mean_ms': 3.5803,
         'video_delivered_pkts': 2578, 'video_drop_bytes': 0, 'video_dropped_pkts': 0,
         'video_mbps': 14.0, 'video_tx_bytes': 482144, 'voice_delay_max_ms': 23,
         'voice_delay_mean_ms': 2.0189, 'voice_delivered_pkts': 7243,
         'voice_drop_bytes': 0, 'voice_dropped_pkts': 0, 'voice_mbps': 12.0,
         'voice_tx_bytes': 288798, 'worst_data_delivered': 15, 'worst_ue': 8,
         'worst_video_delivered': 86, 'worst_voice_delivered': 2}),
    'dafs-flip-5': (
        'fa03c423badeb3cd68e62bce3100f00ff438ee8023322784660f363dd4b02672',
        {'arrived_bytes': 265458, 'conservation_ok': 1, 'data_delivered_pkts': 174,
         'data_drop_bytes': 0, 'data_mbps': 4.0, 'data_tx_bytes': 131561, 'jain':
         0.995778, 'jain_defined': 1, 'mac_throughput_mbps': 7.07888, 'n_ues': 5,
         'offered_mbps': 7.07888, 'overflow_drop_bytes': 0, 'policy': 'dafs', 'seed':
         7, 'transmitted_bytes': 265458, 'tti_count': 300, 'ue_policy': 'flip',
         'video_delay_max_ms': 3, 'video_delay_mean_ms': 0.1376,
         'video_delivered_pkts': 712, 'video_drop_bytes': 0, 'video_dropped_pkts': 0,
         'video_mbps': 4.0, 'video_tx_bytes': 133747, 'voice_delay_max_ms': 0,
         'voice_delay_mean_ms': 0.0, 'voice_delivered_pkts': 10, 'voice_drop_bytes':
         0, 'voice_dropped_pkts': 0, 'voice_mbps': 2.0, 'voice_tx_bytes': 150,
         'worst_data_delivered': 31, 'worst_ue': 1, 'worst_video_delivered': 142,
         'worst_voice_delivered': 2}),
    'dafs-flip-replay': (
        'e25c57531f5ebaadb7732ac3e0e2644b5f66d88c62c9c6d99062b399a4a02980',
        {'arrived_bytes': 750715, 'conservation_ok': 1, 'data_delivered_pkts': 634,
         'data_drop_bytes': 0, 'data_mbps': 1.0, 'data_tx_bytes': 487287, 'jain':
         0.992078, 'jain_defined': 1, 'mac_throughput_mbps': 19.970053, 'n_ues': 10,
         'offered_mbps': 20.019067, 'overflow_drop_bytes': 0, 'policy': 'dafs',
         'seed': 7, 'transmitted_bytes': 748877, 'tti_count': 300, 'ue_policy':
         'flip', 'video_delay_max_ms': 1, 'video_delay_mean_ms': 0.1972,
         'video_delivered_pkts': 289, 'video_drop_bytes': 0, 'video_dropped_pkts': 0,
         'video_mbps': 1.0, 'video_tx_bytes': 225270, 'voice_delay_max_ms': 1,
         'voice_delay_mean_ms': 0.022, 'voice_delivered_pkts': 908,
         'voice_drop_bytes': 0, 'voice_dropped_pkts': 0, 'voice_mbps': 1.0,
         'voice_tx_bytes': 36320, 'worst_data_delivered': 70, 'worst_ue': 1,
         'worst_video_delivered': 23, 'worst_voice_delivered': 88}),
    'dafs-strict-8': (
        '34e13e7b9e79f5f6c15fd5ba352978941d27eeadb326ab956e73623495dd891e',
        {'arrived_bytes': 1933724, 'conservation_ok': 1, 'data_delivered_pkts': 986,
         'data_drop_bytes': 0, 'data_mbps': 40.0, 'data_tx_bytes': 765160, 'jain':
         0.927545, 'jain_defined': 1, 'mac_throughput_mbps': 32.927253, 'n_ues': 8,
         'offered_mbps': 51.565973, 'overflow_drop_bytes': 273613, 'policy': 'dafs',
         'seed': 7, 'transmitted_bytes': 1234772, 'tti_count': 300, 'ue_policy':
         'strict', 'video_delay_max_ms': 73, 'video_delay_mean_ms': 4.2275,
         'video_delivered_pkts': 1842, 'video_drop_bytes': 0, 'video_dropped_pkts': 0,
         'video_mbps': 12.0, 'video_tx_bytes': 343072, 'voice_delay_max_ms': 0,
         'voice_delay_mean_ms': 0.0, 'voice_delivered_pkts': 3171, 'voice_drop_bytes':
         0, 'voice_dropped_pkts': 0, 'voice_mbps': 6.0, 'voice_tx_bytes': 126540,
         'worst_data_delivered': 13, 'worst_ue': 7, 'worst_video_delivered': 135,
         'worst_voice_delivered': 1401}),
    'darts-flip-8': (
        '0c874d20c2e5c3264945ca46bc7fb99ba5188cc8e2eef6c518bf0acc952fb253',
        {'arrived_bytes': 1933724, 'conservation_ok': 1, 'data_delivered_pkts': 1208,
         'data_drop_bytes': 0, 'data_mbps': 40.0, 'data_tx_bytes': 801240, 'jain':
         0.912184, 'jain_defined': 1, 'mac_throughput_mbps': 33.007893, 'n_ues': 8,
         'offered_mbps': 51.565973, 'overflow_drop_bytes': 287725, 'policy': 'darts',
         'seed': 7, 'transmitted_bytes': 1237796, 'tti_count': 300, 'ue_policy':
         'flip', 'video_delay_max_ms': 148, 'video_delay_mean_ms': 8.8956,
         'video_delivered_pkts': 1715, 'video_drop_bytes': 4513, 'video_dropped_pkts':
         12, 'video_mbps': 12.0, 'video_tx_bytes': 312256, 'voice_delay_max_ms': 9,
         'voice_delay_mean_ms': 3.1637, 'voice_delivered_pkts': 3115,
         'voice_drop_bytes': 0, 'voice_dropped_pkts': 0, 'voice_mbps': 6.0,
         'voice_tx_bytes': 124300, 'worst_data_delivered': 53, 'worst_ue': 7,
         'worst_video_delivered': 105, 'worst_voice_delivered': 1378}),
    'darts-strict-30': (
        'fb25c577387b3d8175801262a0172c411568f406b7a7cec8008728884b4df124',
        {'arrived_bytes': 261803, 'conservation_ok': 1, 'data_delivered_pkts': 51,
         'data_drop_bytes': 0, 'data_mbps': 1.0, 'data_tx_bytes': 21597, 'jain':
         0.484206, 'jain_defined': 1, 'mac_throughput_mbps': 6.968053, 'n_ues': 30,
         'offered_mbps': 6.981413, 'overflow_drop_bytes': 0, 'policy': 'darts',
         'seed': 7, 'transmitted_bytes': 261302, 'tti_count': 300, 'ue_policy':
         'strict', 'video_delay_max_ms': 16, 'video_delay_mean_ms': 1.2625,
         'video_delivered_pkts': 240, 'video_drop_bytes': 0, 'video_dropped_pkts': 0,
         'video_mbps': 1.0, 'video_tx_bytes': 45115, 'voice_delay_max_ms': 42,
         'voice_delay_mean_ms': 0.2887, 'voice_delivered_pkts': 4881,
         'voice_drop_bytes': 225, 'voice_dropped_pkts': 15, 'voice_mbps': 8.0,
         'voice_tx_bytes': 194590, 'worst_data_delivered': 10, 'worst_ue': 8,
         'worst_video_delivered': 8, 'worst_voice_delivered': 2}),
    'darts-strict-5': (
        'e7ffe240961fece18fad566a68df32fdda108099c6e21d4656450a0a5c75ae2a',
        {'arrived_bytes': 265458, 'conservation_ok': 1, 'data_delivered_pkts': 174,
         'data_drop_bytes': 0, 'data_mbps': 4.0, 'data_tx_bytes': 131561, 'jain':
         0.995778, 'jain_defined': 1, 'mac_throughput_mbps': 7.07888, 'n_ues': 5,
         'offered_mbps': 7.07888, 'overflow_drop_bytes': 0, 'policy': 'darts', 'seed':
         7, 'transmitted_bytes': 265458, 'tti_count': 300, 'ue_policy': 'strict',
         'video_delay_max_ms': 3, 'video_delay_mean_ms': 0.1433,
         'video_delivered_pkts': 712, 'video_drop_bytes': 0, 'video_dropped_pkts': 0,
         'video_mbps': 4.0, 'video_tx_bytes': 133747, 'voice_delay_max_ms': 0,
         'voice_delay_mean_ms': 0.0, 'voice_delivered_pkts': 10, 'voice_drop_bytes':
         0, 'voice_dropped_pkts': 0, 'voice_mbps': 2.0, 'voice_tx_bytes': 150,
         'worst_data_delivered': 31, 'worst_ue': 1, 'worst_video_delivered': 142,
         'worst_voice_delivered': 2}),
    'darts-strict-ppp': (
        '754d18000ff02716aae815129f979ac0b7096bb82372865a71d8579361594534',
        {'arrived_bytes': 381058, 'conservation_ok': 1, 'data_delivered_pkts': 90,
         'data_drop_bytes': 0, 'data_mbps': 2.0, 'data_tx_bytes': 38913, 'jain':
         0.628979, 'jain_defined': 1, 'mac_throughput_mbps': 10.125733, 'n_ues': 54,
         'offered_mbps': 10.161547, 'overflow_drop_bytes': 0, 'policy': 'darts',
         'seed': 7, 'transmitted_bytes': 379715, 'tti_count': 300, 'ue_policy':
         'strict', 'video_delay_max_ms': 103, 'video_delay_mean_ms': 4.3968,
         'video_delivered_pkts': 431, 'video_drop_bytes': 7, 'video_dropped_pkts': 1,
         'video_mbps': 2.0, 'video_tx_bytes': 81202, 'voice_delay_max_ms': 50,
         'voice_delay_mean_ms': 1.3186, 'voice_delivered_pkts': 6515,
         'voice_drop_bytes': 330, 'voice_dropped_pkts': 22, 'voice_mbps': 8.0,
         'voice_tx_bytes': 259600, 'worst_data_delivered': 1, 'worst_ue': 25,
         'worst_video_delivered': 8, 'worst_voice_delivered': 1}),
    'dham-flip-8': (
        '5dbd3d03646c8061540eff0b7c3e3bb24cb474c4e057cbec7b30e6fdcd983082',
        {'arrived_bytes': 1933724, 'conservation_ok': 1, 'data_delivered_pkts': 1212,
         'data_drop_bytes': 0, 'data_mbps': 40.0, 'data_tx_bytes': 801731, 'jain':
         0.912073, 'jain_defined': 1, 'mac_throughput_mbps': 33.007893, 'n_ues': 8,
         'offered_mbps': 51.565973, 'overflow_drop_bytes': 287347, 'policy': 'dham',
         'seed': 7, 'transmitted_bytes': 1237796, 'tti_count': 300, 'ue_policy':
         'flip', 'video_delay_max_ms': 147, 'video_delay_mean_ms': 8.8472,
         'video_delivered_pkts': 1715, 'video_drop_bytes': 4948, 'video_dropped_pkts':
         13, 'video_mbps': 12.0, 'video_tx_bytes': 311845, 'voice_delay_max_ms': 9,
         'voice_delay_mean_ms': 3.2152, 'voice_delivered_pkts': 3113,
         'voice_drop_bytes': 0, 'voice_dropped_pkts': 0, 'voice_mbps': 6.0,
         'voice_tx_bytes': 124220, 'worst_data_delivered': 54, 'worst_ue': 7,
         'worst_video_delivered': 101, 'worst_voice_delivered': 1376}),
    'dham-strict-30': (
        '91f8a2cce5149c5178fa9ebc59d261c30b40decf061ba4c2131148a5ca43f146',
        {'arrived_bytes': 261803, 'conservation_ok': 1, 'data_delivered_pkts': 51,
         'data_drop_bytes': 0, 'data_mbps': 1.0, 'data_tx_bytes': 21597, 'jain':
         0.484206, 'jain_defined': 1, 'mac_throughput_mbps': 6.968053, 'n_ues': 30,
         'offered_mbps': 6.981413, 'overflow_drop_bytes': 0, 'policy': 'dham', 'seed':
         7, 'transmitted_bytes': 261302, 'tti_count': 300, 'ue_policy': 'strict',
         'video_delay_max_ms': 16, 'video_delay_mean_ms': 1.2625,
         'video_delivered_pkts': 240, 'video_drop_bytes': 0, 'video_dropped_pkts': 0,
         'video_mbps': 1.0, 'video_tx_bytes': 45115, 'voice_delay_max_ms': 42,
         'voice_delay_mean_ms': 0.2887, 'voice_delivered_pkts': 4881,
         'voice_drop_bytes': 225, 'voice_dropped_pkts': 15, 'voice_mbps': 8.0,
         'voice_tx_bytes': 194590, 'worst_data_delivered': 10, 'worst_ue': 8,
         'worst_video_delivered': 8, 'worst_voice_delivered': 2}),
    'dham-strict-5': (
        '64a1f365281002b739bedcd79331a48178b471d3400c9056029b424c7c7a0a99',
        {'arrived_bytes': 265458, 'conservation_ok': 1, 'data_delivered_pkts': 174,
         'data_drop_bytes': 0, 'data_mbps': 4.0, 'data_tx_bytes': 131561, 'jain':
         0.995778, 'jain_defined': 1, 'mac_throughput_mbps': 7.07888, 'n_ues': 5,
         'offered_mbps': 7.07888, 'overflow_drop_bytes': 0, 'policy': 'dham', 'seed':
         7, 'transmitted_bytes': 265458, 'tti_count': 300, 'ue_policy': 'strict',
         'video_delay_max_ms': 3, 'video_delay_mean_ms': 0.1433,
         'video_delivered_pkts': 712, 'video_drop_bytes': 0, 'video_dropped_pkts': 0,
         'video_mbps': 4.0, 'video_tx_bytes': 133747, 'voice_delay_max_ms': 0,
         'voice_delay_mean_ms': 0.0, 'voice_delivered_pkts': 10, 'voice_drop_bytes':
         0, 'voice_dropped_pkts': 0, 'voice_mbps': 2.0, 'voice_tx_bytes': 150,
         'worst_data_delivered': 31, 'worst_ue': 1, 'worst_video_delivered': 142,
         'worst_voice_delivered': 2}),
    'dham-strict-replay': (
        '3f9261f51f807429b64fb9566a4a6472074fbb58885fd6623f7fe905aa47b2f9',
        {'arrived_bytes': 750715, 'conservation_ok': 1, 'data_delivered_pkts': 634,
         'data_drop_bytes': 0, 'data_mbps': 1.0, 'data_tx_bytes': 487287, 'jain':
         0.992078, 'jain_defined': 1, 'mac_throughput_mbps': 19.970053, 'n_ues': 10,
         'offered_mbps': 20.019067, 'overflow_drop_bytes': 0, 'policy': 'dham',
         'seed': 7, 'transmitted_bytes': 748877, 'tti_count': 300, 'ue_policy':
         'strict', 'video_delay_max_ms': 2, 'video_delay_mean_ms': 0.1834,
         'video_delivered_pkts': 289, 'video_drop_bytes': 0, 'video_dropped_pkts': 0,
         'video_mbps': 1.0, 'video_tx_bytes': 225270, 'voice_delay_max_ms': 1,
         'voice_delay_mean_ms': 0.0099, 'voice_delivered_pkts': 908,
         'voice_drop_bytes': 0, 'voice_dropped_pkts': 0, 'voice_mbps': 1.0,
         'voice_tx_bytes': 36320, 'worst_data_delivered': 70, 'worst_ue': 1,
         'worst_video_delivered': 23, 'worst_voice_delivered': 88}),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_summary_row_fingerprint(name, tmp_path):
    sha, row = fingerprint(name, tmp_path)
    want_sha, want_row = FROZEN[name]
    assert row == want_row
    assert sha == want_sha


if __name__ == "__main__":
    import pathlib
    import tempfile
    import textwrap

    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(RUNS):
            sha, row = fingerprint(name, pathlib.Path(tmp))
            items = ", ".join(f"{k!r}: {v!r}" for k, v in row.items())
            body = textwrap.fill("{" + items + "}", width=86, initial_indent=" " * 8,
                                 subsequent_indent=" " * 9, break_long_words=False,
                                 break_on_hyphens=False)
            print(f"    {name!r}: (\n        {sha!r},\n{body}),")
