"""UE drain tests: reward construction, fractional-knapsack optimality of
flip_drain against an LP oracle, strict priority, fragmentation bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from ulsched.traffic import DATA, UeBuffer, VIDEO, VOICE, make_packet
from ulsched.ue_tx import flip_drain, strict_priority_drain


# ---------------------------------------------------------------------------
# the full-sort oracle of the flip drain
# ---------------------------------------------------------------------------

def _reward_pairs(buf: UeBuffer, tti: int):
    """(reward, packet) for every buffered packet, voice, video, then data,
    each in FIFO order. Voice and video rewards are the packet delay over the
    class deadline (deadline enforcement has already run, so they lie in
    [0, 1]); data packets share one buffer-pressure reward."""
    out = []
    for cls in (VOICE, VIDEO):
        d = buf.deadlines[cls]
        for p in buf.queues[cls]:
            out.append(((tti - p.arrival_tti) / d, p))
    r_data = max(buf.total - buf.threshold, 0) / (buf.capacity - buf.threshold)
    for p in buf.queues[DATA]:
        out.append((r_data, p))
    return out


def _full_sort_flip_drain(buf: UeBuffer, grant: int, tti: int) -> list:
    """The knapsack drain by its definition: key every buffered packet by
    reward density (ties: higher reward, then older arrival, then the
    `_reward_pairs` order, so voice before video before data), sort them all
    and send in that order."""
    keyed = [(-r / p.remaining, -r, p.arrival_tti, seq, p)
             for seq, (r, p) in enumerate(_reward_pairs(buf, tti))]
    keyed.sort()
    return buf.send([key[4] for key in keyed], grant, tti)


def _buf(capacity=65536, threshold=None):
    return UeBuffer(capacity=capacity, threshold=threshold)


def test_voice_reward_is_delay_ratio():
    buf = _buf()
    buf.enqueue([make_packet(VOICE, 40, arrival_tti=0)])
    pairs = _reward_pairs(buf, tti=25)
    assert len(pairs) == 1
    assert pairs[0][0] == pytest.approx(0.5)


def test_old_video_outranks_fresh_voice():
    buf = _buf()
    video = make_packet(VIDEO, 100, arrival_tti=0)
    voice = make_packet(VOICE, 40, arrival_tti=130)
    buf.enqueue([video, voice])
    rewards = {p.cls: r for r, p in _reward_pairs(buf, tti=149)}
    assert rewards[VIDEO] == pytest.approx(149 / 150)
    assert rewards[VIDEO] > rewards[VOICE]
    # small grant: the flip drain spends it on the video packet first
    flip_drain(buf, grant=100, tti=149)
    assert buf.transmitted[VIDEO] == 100
    assert buf.transmitted[VOICE] == 0


def test_data_reward_zero_below_threshold():
    buf = _buf(capacity=1000, threshold=750)
    buf.enqueue([make_packet(DATA, 200, 0), make_packet(DATA, 200, 0)])
    assert all(r == 0.0 for r, _ in _reward_pairs(buf, tti=10))
    buf.enqueue([make_packet(DATA, 400, 0)])  # occupancy 800 > 750
    pairs = _reward_pairs(buf, tti=10)
    assert len(pairs) == 3
    assert all(r == pytest.approx(50 / 250) for r, _ in pairs)


def test_grant_zero_transmits_nothing():
    buf = _buf()
    buf.enqueue([make_packet(VOICE, 40, 0)])
    for grant in (0, -7):  # a negative grant books no negative bytes
        assert flip_drain(buf, grant, 1) == []
        assert strict_priority_drain(buf, grant, 1) == []
        assert buf.total == 40 and buf.queues[VOICE][0].remaining == 40
        assert sum(buf.transmitted.values()) == 0
        assert buf.conservation_holds()


def test_slack_grant_transmits_everything():
    buf = _buf()
    buf.enqueue([make_packet(VOICE, 40, 0), make_packet(VIDEO, 300, 0),
                 make_packet(DATA, 500, 0)])
    delivered = flip_drain(buf, grant=10_000, tti=5)
    assert sum(buf.transmitted.values()) == 840
    assert buf.total == 0
    assert len(delivered) == 3


def _lp_fractional_optimum(rewards, sizes, grant):
    """Independent oracle: max sum r_i x_i, sum s_i x_i <= G, 0 <= x <= 1."""
    res = linprog(c=-np.asarray(rewards, dtype=float),
                  A_ub=[list(sizes)], b_ub=[grant],
                  bounds=[(0, 1)] * len(sizes), method="highs")
    assert res.success
    return -res.fun


def _known_reward_buffer(rng, tti=2000):
    """A buffer of voice, video and data packets whose arrival TTIs fix
    their rewards, and those rewards derived from the definitions: delay
    over deadline for the real-time classes, the shared buffer pressure
    above the threshold for data. Returns (buf, packets, rewards)."""
    buf = UeBuffer(capacity=20_000, threshold=int(rng.integers(0, 20_000)),
                   voice_deadline=int(rng.integers(1, 1000)),
                   video_deadline=int(rng.integers(1, 1000)))
    pkts = []
    for _ in range(int(rng.integers(1, 13))):
        cls = (VOICE, VIDEO, DATA)[int(rng.integers(0, 3))]
        age = int(rng.integers(0, buf.deadlines[cls] + 1)) if cls != DATA else 0
        pkts.append(make_packet(cls, int(rng.integers(1, 1500)), tti - age))
    pkts.sort(key=lambda p: p.arrival_tti)  # FIFO queues hold the oldest first
    buf.enqueue(pkts)
    pressure = max(0, buf.total - buf.threshold) / (buf.capacity - buf.threshold)
    rewards = [pressure if p.cls == DATA else (tti - p.arrival_tti) / buf.deadlines[p.cls]
               for p in pkts]
    return buf, pkts, rewards


def test_greedy_reward_matches_lp_optimum():
    rng = np.random.default_rng(31)
    tti = 2000
    for _ in range(300):
        buf, pkts, rewards = _known_reward_buffer(rng, tti)
        sizes = [p.size for p in pkts]
        grant = int(rng.integers(0, sum(sizes) + 200))
        before = buf.total
        flip_drain(buf, grant, tti)
        got = sum(r * (s - p.remaining) / s for r, s, p in zip(rewards, sizes, pkts))
        want = _lp_fractional_optimum(rewards, sizes, grant)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
        assert before - buf.total == min(grant, sum(sizes))
        assert buf.conservation_holds()


def test_equal_rewards_still_fill_grant():
    buf = _buf()
    buf.enqueue([make_packet(DATA, 100, i) for i in range(5)])  # below threshold: reward 0
    flip_drain(buf, 230, tti=10)
    assert buf.transmitted[DATA] == 230 and buf.total == 270
    assert [p.remaining for p in buf.queues[DATA]] == [70, 100, 100]


def test_flip_monotone_in_video_delay():
    # raising a video packet's delay never lowers its drain precedence
    def position(delay):
        buf = _buf()
        video = make_packet(VIDEO, 120, arrival_tti=150 - delay)
        others = [make_packet(VOICE, 40, 130), make_packet(VOICE, 40, 135)]
        buf.enqueue([video] + others)
        delivered = flip_drain(buf, 10_000, tti=150)
        order = [cls for cls, _size, _delay in delivered]  # drain order: all sent whole
        return order.index(VIDEO)
    positions = [position(d) for d in (10, 60, 110, 140, 150)]
    assert positions == sorted(positions, reverse=True)


def test_fragment_keeps_arrival_and_position():
    buf = _buf()
    first = make_packet(VOICE, 100, 0)
    second = make_packet(VOICE, 100, 5)
    buf.enqueue([first, second])
    delivered = strict_priority_drain(buf, 130, tti=10)
    assert buf.transmitted[VOICE] == 130
    assert [p.arrival_tti for p in buf.queues[VOICE]] == [5]
    assert buf.queues[VOICE][0].remaining == 70
    # delivery recorded only for the fully sent packet, at its delay
    assert delivered == [(VOICE, 100, 10)]
    # the fragment completes later and is counted at last-byte time
    assert strict_priority_drain(buf, 70, tti=12) == [(VOICE, 100, 7)]
    assert buf.total == 0


def test_flip_fragment_mid_queue_preserves_fifo():
    buf = _buf()
    old_big = make_packet(VIDEO, 200, 0)
    newer_small = make_packet(VIDEO, 20, 40)
    buf.enqueue([old_big, newer_small])
    # at tti 50: densities (50/150)/200 vs (10/150)/20 -> the newer small
    # packet wins on density and the old one is cut mid-queue
    assert flip_drain(buf, grant=120, tti=50) == [(VIDEO, 20, 10)]
    assert buf.transmitted[VIDEO] == 120
    q = list(buf.queues[VIDEO])
    assert len(q) == 1 and q[0].arrival_tti == 0 and q[0].remaining == 100
    assert buf.conservation_holds()


def test_strict_priority_order_and_boundaries():
    buf = _buf()
    buf.enqueue([make_packet(VOICE, 100, 0), make_packet(VIDEO, 200, 0)])
    assert strict_priority_drain(buf, 150, tti=1) == [(VOICE, 100, 1)]
    assert buf.transmitted == {VOICE: 100, VIDEO: 50, DATA: 0}
    assert buf.occupancy[VIDEO] == 150


def test_data_drains_when_alone():
    buf = _buf()
    buf.enqueue([make_packet(DATA, 300, 0)])
    assert strict_priority_drain(buf, 1000, tti=1) == [(DATA, 300, 1)]
    assert buf.transmitted[DATA] == 300


def test_flip_drain_conservation():
    rng = np.random.default_rng(9)
    for _ in range(50):
        buf = _buf(capacity=100_000)
        pkts = [make_packet(rng.choice([VOICE, VIDEO, DATA]), int(rng.integers(1, 800)),
                            int(rng.integers(0, 40)))
                for _ in range(30)]
        buf.enqueue(pkts)
        grant = int(rng.integers(0, 12_000))
        flip_drain(buf, grant, tti=45)
        assert sum(buf.transmitted.values()) == min(grant, sum(p.size for p in pkts))
        assert buf.conservation_holds()


def _snapshot(buf):
    return {cls: [(p, p.arrival_tti, p.remaining) for p in q] for cls, q in buf.queues.items()}


@settings(max_examples=300, deadline=None)
@given(pkts=st.lists(st.tuples(st.sampled_from([VOICE, VIDEO, DATA]), st.integers(1, 600),
                               st.integers(0, 40)), max_size=25),
       earlier=st.lists(st.tuples(st.booleans(), st.integers(0, 700)), max_size=3),
       strict=st.booleans(), data=st.data())
def test_both_drains_spend_the_grant_in_one_walk(pkts, earlier, strict, data):
    # unsorted arrivals, fragments left by earlier grants, then one grant
    # from -5 to the buffered bytes + 200
    tti = 45
    buf = _buf(capacity=100_000, threshold=int(data.draw(st.integers(0, 5000))))
    buf.enqueue([make_packet(cls, size, arrival) for cls, size, arrival in pkts])
    for strict_before, grant in earlier:
        (strict_priority_drain if strict_before else flip_drain)(buf, grant, tti)
    before, sent_before = _snapshot(buf), dict(buf.transmitted)
    total = buf.total
    grant = data.draw(st.integers(-5, total + 200))
    drain = strict_priority_drain if strict else flip_drain
    delivered = drain(buf, grant, tti)

    assert total - buf.total == min(max(grant, 0), total)
    assert sum(buf.transmitted.values()) - sum(sent_before.values()) == total - buf.total
    partly_sent = 0
    for cls, entries in before.items():
        left = [p for p, _arrival, _rem in entries if p.remaining > 0]
        assert list(buf.queues[cls]) == left  # no sent packet stays; the rest keep their order
        assert all(p.arrival_tti == arrival for p, arrival, _rem in entries)
        partly_sent += sum(0 < p.remaining < rem for p, _arrival, rem in entries)
        assert buf.transmitted[cls] - sent_before[cls] == sum(
            rem - p.remaining for p, _arrival, rem in entries)
    assert partly_sent <= 1
    assert buf.occupancy == {cls: sum(p.remaining for p in q) for cls, q in buf.queues.items()}
    assert buf.conservation_holds()
    gone = [(p.cls, p.size, tti - arrival)
            for cls in (VOICE, VIDEO, DATA) for p, arrival, _rem in before[cls] if not p.remaining]
    assert sorted(delivered) == sorted(gone)
    if strict:  # voice, then video, then data, FIFO within each class
        assert delivered == gone
        chained = [p for cls in (VOICE, VIDEO, DATA) for p, _a, _r in before[cls]]
        assert all(not p.remaining for p in chained[:len(delivered)])


# ---------------------------------------------------------------------------
# flip_drain against the full-sort oracle
# ---------------------------------------------------------------------------

def _ledger(buf):
    return (buf.total, buf.arrived, buf.transmitted, buf.delivered_pkts,
            {cls: [(p.size, p.arrival_tti, p.remaining) for p in q]
             for cls, q in buf.queues.items()})


@settings(max_examples=400, deadline=None)
@given(pkts=st.lists(st.tuples(st.sampled_from([VOICE, VIDEO, DATA]), st.integers(1, 120),
                               st.integers(-8, 2)), max_size=40),
       shift=st.sampled_from([0, 9]),
       deadlines=st.tuples(st.sampled_from([4, 8]), st.sampled_from([4, 8])),
       threshold=st.sampled_from([0, 50, 99_999]),
       earlier=st.lists(st.tuples(st.booleans(), st.integers(0, 300)), max_size=3),
       data=st.data())
def test_flip_drain_equals_the_full_sort(pkts, shift, deadlines, threshold, earlier, data):
    # arrivals relative to TTI 20, unsorted and up to 2 TTIs after it, or
    # with shift 9 all after it (negative rewards); few sizes, equal deadlines
    # and arrivals at `tti` give ties across classes; threshold 0 puts
    # pressure on the data reward, 99,999 none
    tti = 20
    bufs = []
    for _ in range(2):
        buf = UeBuffer(capacity=100_000, threshold=threshold,
                       voice_deadline=deadlines[0], video_deadline=deadlines[1])
        buf.enqueue([make_packet(cls, size, tti + shift + arrival)
                     for cls, size, arrival in pkts])
        for strict_before, grant in earlier:  # fragments left by earlier grants
            (strict_priority_drain if strict_before else _full_sort_flip_drain)(buf, grant, tti)
        bufs.append(buf)
    total = bufs[0].total
    grant = data.draw(st.one_of(st.integers(-5, 0), st.integers(1, max(total, 1)),
                                st.integers(total, total + 50)))
    got = flip_drain(bufs[0], grant, tti)
    want = _full_sort_flip_drain(bufs[1], grant, tti)
    assert got == want
    assert _ledger(bufs[0]) == _ledger(bufs[1])


def test_flip_drain_keys_a_larger_packet_from_after_tti():
    # both packets arrive after TTI 20, so their rewards are negative: the
    # later, larger one has the lower density key (2/8/100 below 1/8/10) and
    # sorts first, although the first packet alone holds the grant
    for drain in (flip_drain, _full_sort_flip_drain):
        buf = UeBuffer(voice_deadline=8)
        buf.enqueue([make_packet(VOICE, 10, 21), make_packet(VOICE, 100, 22)])
        assert drain(buf, 10, tti=20) == []
        assert [p.remaining for p in buf.queues[VOICE]] == [10, 90]


def test_flip_drain_keys_only_what_the_grant_reaches():
    # 500 equal voice packets in arrival order: the first ceil(grant / size)
    # hold the grant, and every later one is skipped without a key
    for grant in (0, 1, 40, 41, 756, 20_000):
        buf = _buf()
        buf.enqueue([make_packet(VOICE, 40, t) for t in range(500)])
        handed = []

        def send(packets, grant, tti, buf=buf, handed=handed):
            packets = list(packets)
            handed.append(len(packets))
            return UeBuffer.send(buf, packets, grant, tti)
        buf.send = send
        flip_drain(buf, grant, tti=600)
        assert handed == [-(-grant // 40)]
        assert buf.transmitted[VOICE] == grant
