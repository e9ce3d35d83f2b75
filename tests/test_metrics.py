"""Metrics tests: fairness index, worst-user selection, aggregation."""

from dataclasses import fields

import numpy as np
import pytest

from ulsched.channel import Topology, path_loss
from ulsched.metrics import (
    MetricsCollector,
    MetricsError,
    jain_index,
    summary_row,
    worst_user,
    write_summary_csv,
)
from ulsched.traffic import DATA, UeBuffer, VIDEO, VOICE, make_packet
from ulsched.ue_tx import strict_priority_drain


def test_jain_all_equal_is_one():
    assert jain_index([5, 5, 5, 5]) == pytest.approx(1.0)


def test_jain_single_active_is_one_over_n():
    assert jain_index([0, 0, 7, 0]) == pytest.approx(0.25)


def test_jain_reference_value():
    assert jain_index([1, 2, 3]) == pytest.approx(6 / 7)


def test_jain_scale_invariance_and_bounds():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(1, 12))
        x = rng.uniform(0, 100, size=n)
        if x.sum() == 0:
            continue
        j = jain_index(x)
        assert 1 / n - 1e-12 <= j <= 1 + 1e-12
        assert jain_index(3.7 * x) == pytest.approx(j)


def test_jain_rejects_bad_input():
    with pytest.raises(MetricsError):
        jain_index([0.0, 0.0])
    with pytest.raises(MetricsError):
        jain_index([1.0, -2.0])


def _topo(distances, shadows):
    d = np.asarray(distances, dtype=float)
    sh = np.asarray(shadows, dtype=float)
    xy = np.stack([d, np.zeros_like(d)], axis=1)
    centers = np.zeros((6, 2))
    return Topology(neighbor_centers=centers, ue_xy=xy, ue_distance_m=d,
                    ue_shadow_db=sh, cell_radius_m=288.7)


def test_worst_user_by_distance():
    topo = _topo([100.0, 400.0], [0.0, 0.0])
    assert worst_user(topo) == 1


def test_worst_user_tie_lowest_id():
    topo = _topo([250.0, 250.0, 250.0], [1.5, 1.5, 0.0])
    assert worst_user(topo) == 0


def test_worst_user_matches_recomputation_with_shadowing():
    rng = np.random.default_rng(4)
    d = rng.uniform(50, 280, size=12)
    sh = rng.normal(0, 4, size=12)
    topo = _topo(d, sh)
    loss = [path_loss(float(di)) + float(s) for di, s in zip(d, sh)]
    assert worst_user(topo) == int(np.argmax(loss))


def test_collector_zero_run_convention():
    col = MetricsCollector(worst_ue=0)
    bufs = [UeBuffer() for _ in range(3)]
    for tti in range(5):
        col.record_tti(tti, 0, 0, [])
    s = col.finalize(bufs)
    assert s.total_transmitted == 0
    assert s.jain == 1.0 and not s.jain_defined
    assert s.conservation_ok


def test_collector_single_ue_jain():
    col = MetricsCollector(worst_ue=0)
    buf = UeBuffer()
    buf.enqueue([make_packet(VOICE, 40, 0)])
    col.record_tti(0, 0, 40, strict_priority_drain(buf, 40, 0))
    s = col.finalize([buf])
    assert s.jain == pytest.approx(1.0) and s.jain_defined
    assert s.delivered_packets[VOICE] == 1
    assert s.worst_ue_delivered[VOICE] == 1


def test_collector_delay_stats_and_worst_tracking():
    col = MetricsCollector(worst_ue=1)
    bufs = [UeBuffer(), UeBuffer()]
    bufs[0].enqueue([make_packet(VOICE, 40, 0)])
    bufs[1].enqueue([make_packet(VIDEO, 100, 0), make_packet(DATA, 50, 0)])
    delivered = (strict_priority_drain(bufs[0], 40, 10)
                 + strict_priority_drain(bufs[1], 150, 20))
    col.record_tti(20, 0, 190, delivered)
    s = col.finalize(bufs)
    assert s.delay_mean_ms[VOICE] == pytest.approx(10.0)
    assert s.delay_max_ms[VIDEO] == 20
    assert s.worst_ue_delivered == {VOICE: 0, VIDEO: 1, DATA: 1}
    assert s.mac_throughput_mbps == pytest.approx((40 + 150) * 8 / 1000.0)


def test_summary_csv_roundtrip(tmp_path):
    import csv
    col = MetricsCollector(worst_ue=0)
    buf = UeBuffer()
    buf.enqueue([make_packet(VOICE, 40, 0)])
    col.record_tti(0, 0, 40, strict_priority_drain(buf, 40, 0))
    s = col.finalize([buf])
    row = summary_row(s, "dham", "strict", 7, {VOICE: 1.0, VIDEO: 0.0, DATA: 0.0})
    path = tmp_path / "out.csv"
    write_summary_csv(path, [row])
    with open(path, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert back[0]["policy"] == "dham"
    assert back[0]["transmitted_bytes"] == "40"
    assert back[0]["conservation_ok"] == "1"


def test_finalize_twice_gives_equal_summaries():
    # finalize used to add the buffers' dropped-packet counts into the
    # collector, so a second call doubled dropped_packets
    col = MetricsCollector(worst_ue=0)
    bufs = [UeBuffer(), UeBuffer()]
    bufs[0].enqueue([make_packet(VOICE, 40, 0), make_packet(VIDEO, 100, 0)])
    bufs[1].enqueue([make_packet(VOICE, 30, 0), make_packet(DATA, 50, 0)])
    for buf in bufs:
        buf.age_and_drop(51)
    strict_priority_drain(bufs[0], 60, 51)
    first, second = col.finalize(bufs), col.finalize(bufs)
    assert first.dropped_packets == {VOICE: 2, VIDEO: 0, DATA: 0}
    assert first.conservation_ok and second.conservation_ok
    for f in fields(first):
        a, b = getattr(first, f.name), getattr(second, f.name)
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name
