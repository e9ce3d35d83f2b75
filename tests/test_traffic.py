"""Traffic model tests: samplers, sources, buffer discipline, deadline drops
and critical bytes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ulsched.traffic import (
    DATA,
    NEVER,
    DataSource,
    OnOffSource,
    TrafficError,
    UeBuffer,
    VIDEO,
    VOICE,
    VideoSource,
    VoiceSource,
    make_packet,
    truncated_pareto_mean,
    truncated_pareto_sample,
    voice_interval_for_load,
    video_fps_for_load,
)
from ulsched.ue_tx import flip_drain, strict_priority_drain


# ---------------------------------------------------------------------------
# truncated Pareto
# ---------------------------------------------------------------------------

def test_pareto_support_bounds():
    rng = np.random.default_rng(1)
    s = truncated_pareto_sample(40, 1.2, 250, rng, size=200_000)
    assert s.min() >= 40
    assert s.max() <= 250
    assert (s == 250).any()  # truncation mass present


def test_pareto_empirical_matches_closed_form():
    rng = np.random.default_rng(2)
    for scale, shape, cap in [(40, 1.2, 250), (2.5, 1.2, 12.5), (10, 1.5, 80)]:
        s = truncated_pareto_sample(scale, shape, cap, rng, size=10**6)
        want = truncated_pareto_mean(scale, shape, cap)
        assert s.mean() == pytest.approx(want, rel=0.01)


def test_pareto_interarrival_mean_is_six_ms():
    # the video inter-arrival parameter set lands on its documented 6 ms mean
    rng = np.random.default_rng(3)
    s = truncated_pareto_sample(2.5, 1.2, 12.5, rng, size=10**6)
    assert abs(s.mean() - 6.0) < 0.3


def test_pareto_invalid_params():
    rng = np.random.default_rng(0)
    for bad in [(0, 1.2, 10), (5, 1.0, 10), (5, 1.2, 5)]:
        with pytest.raises(TrafficError):
            truncated_pareto_sample(*bad, rng)


# ---------------------------------------------------------------------------
# voice
# ---------------------------------------------------------------------------

def test_voice_fixed_talk_emits_on_schedule():
    src = VoiceSource(np.random.default_rng(0), interval_ms=20.0,
                      talk_mean_ms=0, silence_mean_ms=0, start_talking=True)
    got = {t: src.step(t) for t in range(61)}
    emit_ttis = [t for t, pkts in got.items() if pkts]
    assert emit_ttis == [0, 20, 40, 60]
    assert all(p.size == 40 and p.cls == VOICE for pkts in got.values() for p in pkts)


def test_voice_permanent_silence_emits_sids():
    src = VoiceSource(np.random.default_rng(0), interval_ms=20.0,
                      talk_mean_ms=0, silence_mean_ms=0, start_talking=False)
    pkts = [p for t in range(400) for p in src.step(t)]
    assert pkts and all(p.size == 15 for p in pkts)
    assert len(pkts) == 3  # tti 0, 160, 320


def test_voice_long_run_rate_matches_stationary_analytic():
    src = VoiceSource(np.random.default_rng([0, 7]), interval_ms=20.0,
                      talk_mean_ms=100.0, silence_mean_ms=100.0)
    T = 400_000
    total = sum(p.size for t in range(T) for p in src.step(t))
    emp = total * 8 * 1000.0 / T
    assert emp == pytest.approx(src.mean_rate_bps(), rel=0.02)


def test_voice_interval_for_load_roundtrip():
    interval = voice_interval_for_load(200_000.0)
    src = VoiceSource(np.random.default_rng(0), interval_ms=interval)
    assert src.mean_rate_bps() == pytest.approx(200_000.0, rel=1e-9)


def test_voice_interval_for_load_at_unequal_means():
    # at 1000/3000 the source talks a quarter of the time; calibrating with
    # the silence share gave a stationary 33.8 kbps for 100 kbps
    for talk, silence in ((1000.0, 3000.0), (3000.0, 1000.0), (0.0, 40.0)):
        interval = voice_interval_for_load(100_000.0, talk_mean_ms=talk, silence_mean_ms=silence)
        src = VoiceSource(np.random.default_rng(0), interval_ms=interval,
                          talk_mean_ms=talk, silence_mean_ms=silence)
        assert src.mean_rate_bps() == pytest.approx(100_000.0, rel=1e-9)
    with pytest.raises(TrafficError):  # silence is never left: only SIDs
        voice_interval_for_load(100_000.0, talk_mean_ms=40.0, silence_mean_ms=0.0)


# ---------------------------------------------------------------------------
# video
# ---------------------------------------------------------------------------

def test_video_frame_structure():
    src = VideoSource(np.random.default_rng(4), fps=15.0)
    pkts = [p for t in range(40_000) for p in src.step(t)]
    full = len(pkts) // 8 * 8  # the horizon may cut the last frame
    sizes = np.array([p.size for p in pkts[:full]]).reshape(-1, 8)
    assert np.all(sizes.sum(axis=1) >= 1500)  # every frame hits the minimum


def test_video_frame_cadence_alternates():
    src = VideoSource(np.random.default_rng(5), fps=15.0)
    starts = [round(i * src.frame_period_ms) for i in range(300)]
    deltas = {b - a for a, b in zip(starts, starts[1:])}
    assert deltas == {66, 67}
    # exact long-run rate: 300 frames span 299 periods
    assert (starts[-1] - starts[0]) / 299 == pytest.approx(1000.0 / 15.0, abs=0.01)
    # and the source actually produces ~15 frames per second
    n_pkts = sum(len(src.step(t)) for t in range(10_000))
    assert n_pkts / 8 == pytest.approx(150, abs=2)


def test_video_fps_for_load():
    fps = video_fps_for_load(1_000_000.0)
    src = VideoSource(np.random.default_rng(6), fps=fps)
    total = sum(p.size for t in range(60_000) for p in src.step(t))
    assert total * 8 * 1000 / 60_000 == pytest.approx(1_000_000.0, rel=0.03)


# ---------------------------------------------------------------------------
# data
# ---------------------------------------------------------------------------

def test_data_payload_bounds():
    src = DataSource(np.random.default_rng(7), offered_bps=1_000_000)
    pkts = [p for t in range(20_000) for p in src.step(t)]
    sizes = np.array([p.size for p in pkts])
    assert sizes.min() >= 46 and sizes.max() <= 1500
    assert all(p.cls == DATA for p in pkts)


def test_data_rate_tracks_offered_load():
    src = DataSource(np.random.default_rng([0, 9]), offered_bps=1_000_000)
    total = sum(p.size for t in range(10_000) for p in src.step(t))
    emp = total * 8 * 1000.0 / 10_000
    assert emp == pytest.approx(1_000_000.0, rel=0.05)


def test_data_zero_sources():
    src = DataSource(np.random.default_rng(8), offered_bps=0)
    assert src.due == NEVER
    assert [p for t in range(100) for p in src.step(t)] == []


# ---------------------------------------------------------------------------
# the due contract: a caller may skip every TTI before a source's `due`
# ---------------------------------------------------------------------------

def _emitted(src, ttis, only_due):
    out = []
    for t in range(ttis):
        if only_due and src.due > t:
            continue
        out += [(t, p.cls, p.size) for p in src.step(t)]
    return out


class _Steps:
    """An on/off source behind the source interface, for the property below."""

    def __init__(self, src):
        self.src = src

    @property
    def due(self):
        return self.src.due

    def step(self, tti):
        self.src.step_ms(tti)
        return self.src.take_packets(tti)


_voice = st.builds(
    lambda interval, talk, silence, talking: lambda rng: VoiceSource(
        rng, interval_ms=interval, talk_mean_ms=talk, silence_mean_ms=silence,
        start_talking=talking),
    st.floats(0.3, 200.0), st.sampled_from([0.0, 1.0, 40.0, 3000.0]),
    st.sampled_from([0.0, 1.0, 40.0, 3000.0]), st.booleans())
# fps above 1000 puts several frames in one TTI
_video = st.builds(
    lambda fps, ppf: lambda rng: VideoSource(rng, fps=fps, packets_per_frame=ppf),
    st.one_of(st.floats(0.5, 120.0), st.floats(1000.0, 4000.0)), st.integers(1, 8))
# offered 0 builds no sources; above 100 kb/s per source the duty cycle would
# pass 1/2 at the 200 kb/s peak, so DataSource raises the peak instead
_data = st.builds(
    lambda bps, n: lambda rng: DataSource(rng, offered_bps=bps, n_sources=n,
                                          source_rate_bps=200_000.0),
    st.one_of(st.just(0.0), st.floats(1e3, 5e6)), st.integers(0, 8))
# a single on/off source takes any duty cycle, far above 1/2 included
_onoff = st.builds(
    lambda rate, on, off: lambda rng: _Steps(OnOffSource(rng, rate, on, off)),
    st.floats(0.5, 400.0), st.floats(0.5, 50.0), st.floats(0.05, 400.0))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), make=st.one_of(_voice, _video, _data, _onoff),
       ttis=st.integers(1, 1500))
def test_stepping_only_at_due_ttis_changes_nothing(seed, make, ttis):
    runs = []
    for only_due in (False, True):
        rng = np.random.default_rng(seed)
        runs.append((_emitted(make(rng), ttis, only_due), rng.bit_generator.state))
    (every, every_rng), (due, due_rng) = runs
    assert due == every
    assert due_rng == every_rng  # and no draw was skipped or added


@pytest.mark.parametrize("remaining, due", [
    (5.0, 4),             # lands exactly on 0.0 at TTI 4
    (5.0 + 1e-13, 4),     # within 1e-12 of an integer: 1e-13 left at TTI 4 ends OFF
    (5.0 + 5e-12, 5),     # 5e-12 left after TTI 4 is still OFF, so TTI 4 only counts down
    (5.5, 5),
    (2.0, 1),
    (1.0 + 1e-13, 0),     # nothing to skip
    (0.4, 0),
])
def test_off_countdown_due(remaining, due):
    states = []
    for only_due in (False, True):
        src = OnOffSource(np.random.default_rng(3), 25.0, 6.0, 300.0)
        src.on, src._remaining = False, remaining
        src._set_due(0)
        assert src.due == due
        after = {}
        for t in range(due + 40):
            if only_due and src.due > t:
                continue
            before = src._remaining
            src.step_ms(t)
            after[t] = (src.on, src._remaining, src._credit, src.take_packets(t))
            if not only_due and t < due:  # a skippable TTI only counts down by 1.0
                assert after[t][:2] == (False, before - 1.0)
        assert after[due][0]  # the due TTI ends the OFF period
        states.append(after)
    every, at_due = states
    assert min(at_due) == due
    assert all(at_due[t] == every[t] for t in at_due)


def test_stepping_past_due_is_refused():
    src = OnOffSource(np.random.default_rng(3), 25.0, 6.0, 300.0)
    src.on, src._remaining = False, 10.0
    src._set_due(0)
    with pytest.raises(TrafficError):
        src.step_ms(src.due + 1)


# ---------------------------------------------------------------------------
# buffer discipline
# ---------------------------------------------------------------------------

def test_enqueue_accounting_and_fifo():
    buf = UeBuffer(capacity=1000)
    buf.enqueue([make_packet(VOICE, 40, 0), make_packet(DATA, 100, 0),
                 make_packet(VOICE, 40, 1)])
    assert buf.total == 180
    assert [p.arrival_tti for p in buf.queues[VOICE]] == [0, 1]


def test_enqueue_overflow_tail_drop():
    buf = UeBuffer(capacity=100)
    buf.enqueue([make_packet(DATA, 80, 0), make_packet(DATA, 30, 0),
                 make_packet(VOICE, 10, 0)])
    assert buf.total == 90
    assert buf.overflow_dropped == {VOICE: 0, VIDEO: 0, DATA: 30}
    assert buf.conservation_holds()


def test_age_and_drop_thresholds():
    # (dropped, critical): a packet at exactly its deadline is kept and is
    # critical; one TTI later it is dropped
    buf = UeBuffer()
    buf.enqueue([make_packet(VOICE, 40, 0)])
    assert buf.age_and_drop(50) == (0, 40)  # at deadline: kept
    assert buf.age_and_drop(51) == (40, 0)  # 51 ms voice is gone
    assert buf.deadline_dropped[VOICE] == 40 and buf.deadline_dropped_pkts[VOICE] == 1

    buf2 = UeBuffer()
    buf2.enqueue([make_packet(VIDEO, 200, 0), make_packet(DATA, 999, 0)])
    assert buf2.age_and_drop(150) == (0, 200)   # 150 ms video retained
    assert buf2.age_and_drop(151) == (200, 0)
    assert buf2.age_and_drop(10_000) == (0, 0)  # data never deadline-dropped
    assert buf2.deadline_dropped[DATA] == 0
    assert buf2.occupancy[DATA] == 999


def test_age_and_drop_reports_the_bytes_at_the_deadline():
    buf = UeBuffer()
    buf.enqueue([make_packet(VOICE, 255, 0), make_packet(VOICE, 40, 1)])
    # the 255 bytes cross the deadline by the next TTI; the younger 40 do not
    assert buf.age_and_drop(50) == (0, 255)
    assert buf.history_sum == 0

    empty = UeBuffer()
    assert empty.age_and_drop(0) == (0, 0)
    assert empty.total == 0


def test_critical_sum_covers_both_realtime_classes():
    buf = UeBuffer(capacity=10_000, threshold=4000)
    buf.enqueue([make_packet(VOICE, 100, 0)])
    buf.enqueue([make_packet(VIDEO, 80, -100)])   # video at exactly its deadline at 50
    buf.enqueue([make_packet(DATA, 4820, 0)])     # data is never critical
    assert buf.age_and_drop(50) == (0, 100 + 80)
    assert buf.history_sum == 0
    assert buf.total == 5000


def test_critical_sum_counts_a_fragment_by_remaining():
    buf = UeBuffer()
    buf.enqueue([make_packet(VOICE, 300, 0), make_packet(VIDEO, 500, -100)])
    strict_priority_drain(buf, 420, 10)   # voice gone, video cut to 380
    assert buf.queues[VIDEO][0].remaining == 380
    assert buf.age_and_drop(50) == (0, 380)
    assert buf.age_and_drop(51) == (380, 0)
    assert buf.deadline_dropped[VIDEO] == 380
    assert buf.conservation_holds()


def test_age_and_drop_at_the_deadline_keeps_the_bytes():
    buf = UeBuffer()
    buf.enqueue([make_packet(VOICE, 40, 0)])
    assert buf.age_and_drop(50) == buf.age_and_drop(50) == (0, 40)
    assert buf.total == 40 and buf.queues[VOICE][0].remaining == 40


def test_history_window_accumulation():
    # never scheduled: history_sum is exactly the last n per-TTI drops, the
    # history holds the nonzero ones as (tti, bytes), and the critical bytes
    # are the packet at its deadline
    buf = UeBuffer(history_window=5)
    drops = []
    for tti in range(60):
        buf.enqueue([make_packet(VOICE, 10, tti)])
        dropped, critical = buf.age_and_drop(tti)
        drops.append(dropped)
        assert dropped == (10 if tti > 50 else 0)
        assert critical == (10 if tti >= 50 else 0)
        assert buf.history_sum == sum(drops[-5:])
        assert list(buf.history) == [(t, d) for t, d in enumerate(drops) if d and t > tti - 5]


def _buffer_state(buf):
    queues = {cls: [(p.size, p.arrival_tti, p.remaining) for p in q]
              for cls, q in buf.queues.items()}
    counters = (buf.arrived, buf.transmitted, buf.deadline_dropped, buf.overflow_dropped,
                buf.deadline_dropped_pkts, buf.delivered_pkts, buf.occupancy)
    return queues, [dict(c) for c in counters], buf.total, list(buf.history), buf.history_sum


_tti_ops = st.tuples(
    st.lists(st.tuples(st.sampled_from([VOICE, VIDEO, DATA]), st.integers(1, 400)), max_size=3),
    st.sampled_from([None, strict_priority_drain, flip_drain]),
    st.integers(0, 900))


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(_tti_ops, min_size=1, max_size=150), voice_deadline=st.integers(1, 12),
       video_deadline=st.integers(1, 20), window=st.integers(1, 15),
       capacity=st.integers(200, 3000))
def test_aging_only_at_due_ttis_changes_nothing(ops, voice_deadline, video_deadline, window,
                                                capacity):
    # one buffer aged every TTI, one only at TTIs >= due: the same drops,
    # critical bytes, history, counters and queues, TTI by TTI
    every, gated = (UeBuffer(capacity=capacity, voice_deadline=voice_deadline,
                             video_deadline=video_deadline, history_window=window)
                    for _ in range(2))
    for tti, (arrivals, drain, grant) in enumerate(ops):
        for buf in (every, gated):
            buf.enqueue([make_packet(cls, size, tti) for cls, size in arrivals])
        want = every.age_and_drop(tti)
        got = gated.age_and_drop(tti) if gated.due <= tti else (0, 0)
        assert got == want, f"TTI {tti}"
        assert _buffer_state(gated) == _buffer_state(every), f"TTI {tti}"
        if drain is not None:
            assert drain(gated, grant, tti) == drain(every, grant, tti)


@pytest.mark.parametrize("drain", [strict_priority_drain, flip_drain])
def test_delivered_pkts_counts_what_send_returns(drain):
    # per class, the ledger's delivered count is the number of (cls, size,
    # delay) tuples the drains returned, fragments left queued included
    rng = np.random.default_rng(8)
    buf = UeBuffer(capacity=4000)
    want = {VOICE: 0, VIDEO: 0, DATA: 0}
    fragmented = 0
    for tti in range(400):
        buf.enqueue([make_packet(cls, int(rng.integers(1, 400)), tti)
                     for cls in rng.choice([VOICE, VIDEO, DATA], size=int(rng.integers(0, 4)))])
        buf.age_and_drop(tti)
        for cls, _size, _delay in drain(buf, int(rng.integers(0, 700)), tti):
            want[cls] += 1
        fragmented += any(p.remaining < p.size for q in buf.queues.values() for p in q)
        assert buf.delivered_pkts == want, f"TTI {tti}"
    assert fragmented and all(want.values())


def test_conservation_fails_when_total_disagrees_with_the_queues():
    buf = UeBuffer()
    buf.enqueue([make_packet(VOICE, 40, 0), make_packet(DATA, 100, 0)])
    strict_priority_drain(buf, 60, 1)
    assert buf.conservation_holds() and buf.total == 80
    buf.total += 1   # the per-class identity alone would still hold
    assert not buf.conservation_holds()


def test_conservation_identity_random_traffic():
    rng = np.random.default_rng(11)
    buf = UeBuffer(capacity=3000)
    for tti in range(2000):
        pkts = []
        for _ in range(int(rng.integers(0, 4))):
            cls = [VOICE, VIDEO, DATA][int(rng.integers(0, 3))]
            pkts.append(make_packet(cls, int(rng.integers(1, 400)), tti))
        buf.enqueue(pkts)
        buf.age_and_drop(tti)
        if rng.random() < 0.4:
            strict_priority_drain(buf, int(rng.integers(0, 900)), tti)
        assert buf.conservation_holds()
    assert buf.total == sum(buf.occupancy.values())
