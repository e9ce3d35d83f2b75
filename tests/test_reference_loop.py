"""A plain TTI loop as the oracle of `engine.run`'s per-UE stages.

`_reference_run` is written for clarity, not speed. It steps every source at
every TTI (each on/off source of a `DataSource` on its own, in source order),
ages every buffer at every TTI and drains with the full-sort flip drain. The
traffic docstring says stepping every TTI yields the same packets, stamps and
draws as stepping only at `due`, and `UeBuffer.due` says the same of aging, so
the summary and the per-TTI trace must equal `run`'s. Each TTI's channel grid
comes from `test_channel._oracle_grid`, which recomputes every term for it
instead of drawing a block ahead; replayed traces are read by the shared
parsers, and a UE's arrival rows are turned into packets at every TTI. The
bytes per RC come from the CQI by the written-out modulation rule, and
w = min(p, b) is formed here. Only the decision, `dispatch`, is shared with
`run`; it has its own tests.
"""

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from test_channel import _oracle_grid
from test_ue_tx import _full_sort_flip_drain
from ulsched.channel import load_cqi_trace
from ulsched.engine import ConfigError, ScenarioConfig, _build_sources, deploy, run, validate
from ulsched.metrics import MetricsCollector, summary_row, worst_user
from ulsched.schedulers import POLICIES, TrafficMatrixW, dispatch
from ulsched.traffic import (CLASSES, DATA, VIDEO, VOICE, DataSource, UeBuffer,
                             load_arrival_trace, make_packet)
from ulsched.ue_tx import strict_priority_drain


def _every_tti_steps(src):
    """The step callables of one source: a DataSource's on/off sources one by
    one, so each of them is stepped at every TTI."""
    if not isinstance(src, DataSource):
        return [src.step]

    def step(onoff, tti):
        onoff.step_ms(tti)
        return onoff.take_packets(tti)
    return [lambda tti, onoff=onoff: step(onoff, tti) for onoff in src.sources]


def _bytes_per_rc(cqi):
    """Bytes one RC carries in one TTI, written out: 252 for CQI 1-6 (QPSK),
    504 for 7-9 (16-QAM) and 756 for 10-15 (64-QAM)."""
    return np.where(cqi <= 6, 252, np.where(cqi <= 9, 504, 756)).astype(np.int64)


def _reference_run(cfg: ScenarioConfig):
    validate(cfg)
    topo = deploy(cfg, np.random.default_rng([cfg.seed, 0]))
    n = topo.n_ues
    buffers = [UeBuffer(capacity=cfg.buffer_capacity, threshold=cfg.buffer_threshold,
                        voice_deadline=cfg.voice_deadline_ms,
                        video_deadline=cfg.video_deadline_ms,
                        history_window=cfg.history_window)
               for _ in range(n)]
    if cfg.arrival_trace:
        steps = [(lambda tti, rows=rows: [make_packet(cls, size, tti)
                                          for t, cls, size in rows if t == tti], buffers[ue])
                 for ue, rows in enumerate(load_arrival_trace(cfg.arrival_trace, n))]
    else:
        steps = [(step, buffers[ue]) for ue, gen in enumerate(_build_sources(cfg, n))
                 for src in gen for step in _every_tti_steps(src)]
    if cfg.cqi_trace:
        grid = load_cqi_trace(cfg.cqi_trace, n, cfg.channel.rc_count).__getitem__
    else:
        fading = [np.random.default_rng([cfg.seed, 4, ue]) for ue in range(n)]
        interference = np.random.default_rng([cfg.seed, 5])
        grid = lambda tti: _oracle_grid(topo, cfg.channel, fading, interference)  # noqa: E731
    collector = MetricsCollector(worst_user(topo) if n else 0, keep_trace=cfg.keep_trace)
    drain = _full_sort_flip_drain if cfg.ue_policy == "flip" else strict_priority_drain

    for tti in range(cfg.tti_count):
        for step, buf in steps:
            buf.enqueue(step(tti))
        dropped = 0
        critical = np.zeros(n, dtype=np.int64)
        for ue, buf in enumerate(buffers):
            gone, critical[ue] = buf.age_and_drop(tti)
            dropped += gone
        b = np.array([buf.total for buf in buffers], dtype=np.int64)
        k = k_current = None
        if cfg.policy != "dham":
            k_current = critical
            if cfg.policy == "dafs":
                k_current = critical + np.maximum(b - cfg.buffer_threshold, 0)
            k = k_current + np.array([buf.history_sum for buf in buffers], dtype=np.int64)
        p = _bytes_per_rc(grid(tti))
        decision = dispatch(cfg.policy, TrafficMatrixW(w=np.minimum(p, b[:, None]), p=p, b=b),
                            k, k_current)
        sent = 0
        delivered = []
        for ue, grant in enumerate(decision.grants.tolist()):
            if grant:
                before = buffers[ue].total
                delivered += drain(buffers[ue], grant, tti)
                sent += before - buffers[ue].total
        collector.record_tti(tti, dropped, sent, delivered, decision)
    return collector.finalize(buffers)


def _row(summary, cfg):
    # repr, so that equal NaNs compare equal
    return repr(summary_row(summary, cfg.policy, cfg.ue_policy, cfg.seed, cfg.loads_mbps))


_LOAD = st.one_of(st.just(0.0), st.floats(0.01, 12.0))
_MEAN = st.sampled_from([0.0, 1.0, 40.0, 3000.0])


@settings(max_examples=150, deadline=None)
@given(policy=st.sampled_from(POLICIES), ue_policy=st.sampled_from(["strict", "flip"]),
       seed=st.integers(0, 2 ** 16), n_ues=st.integers(0, 12), ttis=st.integers(1, 200),
       capacity=st.sampled_from([300, 2000, 65536]), threshold_share=st.floats(0.0, 0.9),
       voice_deadline=st.integers(1, 60), video_deadline=st.integers(1, 160),
       history_window=st.integers(1, 1000), loads=st.tuples(_LOAD, _LOAD, _LOAD),
       talk=_MEAN, silence=_MEAN, sid_interval=st.sampled_from([2.0, 160.0, 1e12]),
       source_rate=st.sampled_from([200_000.0, 1e-3]),
       cap_factor=st.sampled_from([50.0, 1e6]), prb_per_rc=st.sampled_from([3, 6, 12]),
       fast_fading=st.booleans())
# voice sources that are almost always silent and never send a SID, and data
# sources that accrue almost nothing, whose ON steps look ahead as far as they may
@example(policy="dafs", ue_policy="flip", seed=3, n_ues=4, ttis=120, capacity=65536,
         threshold_share=0.75, voice_deadline=50, video_deadline=150, history_window=1000,
         loads=(0.01, 2.0, 1e-6), talk=1.0, silence=3000.0, sid_interval=1e12,
         source_rate=1e-3, cap_factor=1e6, prb_per_rc=6, fast_fading=True)
# short deadlines and a small buffer under a heavy flip load, on 16 RCs without fading
@example(policy="darts", ue_policy="flip", seed=5, n_ues=12, ttis=200, capacity=2000,
         threshold_share=0.5, voice_deadline=3, video_deadline=5, history_window=7,
         loads=(12.0, 12.0, 12.0), talk=40.0, silence=40.0, sid_interval=2.0,
         source_rate=200_000.0, cap_factor=50.0, prb_per_rc=3, fast_fading=False)
def test_run_equals_the_reference_loop(policy, ue_policy, seed, n_ues, ttis, capacity,
                                       threshold_share, voice_deadline, video_deadline,
                                       history_window, loads, talk, silence, sid_interval,
                                       source_rate, cap_factor, prb_per_rc, fast_fading):
    cfg = ScenarioConfig.from_dict({
        "policy": policy, "ue_policy": ue_policy, "seed": seed, "n_ues": n_ues,
        "channel": {"prb_per_rc": prb_per_rc, "fast_fading": fast_fading},
        "tti_count": ttis, "buffer_capacity": capacity,
        "buffer_threshold": int(threshold_share * capacity),
        "voice_deadline_ms": voice_deadline, "video_deadline_ms": video_deadline,
        "history_window": history_window, "keep_trace": True,
        "loads_mbps": dict(zip((VOICE, VIDEO, DATA), loads)),
        "voice_params": {"packet_bytes": 40, "sid_bytes": 15, "sid_interval_ms": sid_interval,
                         "talk_mean_ms": talk, "silence_mean_ms": silence},
        "data_params": {"n_sources": 8, "source_rate_bps": source_rate, "on_mean_ms": 6.0,
                        "on_shape": 1.4, "off_shape": 1.2, "cap_factor": cap_factor,
                        "payload_min": 46, "payload_max": 1500}})
    try:
        validate(cfg)
    except ConfigError:  # a voice load below the SID floor, or one that never talks
        assume(False)
    got, want = run(cfg), _reference_run(cfg)
    assert _row(got, cfg) == _row(want, cfg)
    assert got.trace_rows == want.trace_rows


def test_run_equals_the_reference_loop_on_replayed_traces(tmp_path):
    # 5 UEs on 8 RCs: random CQIs, and arrival rows out of TTI order, several
    # per TTI, heavy enough for the small buffer and short deadlines to drop
    n_ues, ttis, n_rc = 5, 60, 8
    rng = np.random.default_rng(7)
    cqi = tmp_path / "cqi.txt"
    cqi.write_text("".join(" ".join(map(str, line)) + "\n"
                           for line in rng.integers(1, 16, size=(ttis, n_ues * n_rc)).tolist()))
    arrivals = tmp_path / "arrivals.txt"
    arrivals.write_text("".join(
        f"{rng.integers(ttis)} {rng.integers(n_ues)} {rng.choice(CLASSES)} "
        f"{rng.integers(1, 1501)}\n" for _ in range(400)))
    for policy in POLICIES:
        for ue_policy in ("strict", "flip"):
            cfg = ScenarioConfig(policy=policy, ue_policy=ue_policy, n_ues=n_ues,
                                 tti_count=ttis, buffer_capacity=4000, buffer_threshold=1000,
                                 voice_deadline_ms=3, video_deadline_ms=6, keep_trace=True,
                                 cqi_trace=str(cqi), arrival_trace=str(arrivals))
            got, want = run(cfg), _reference_run(cfg)
            assert _row(got, cfg) == _row(want, cfg), (policy, ue_policy)
            assert got.trace_rows == want.trace_rows, (policy, ue_policy)
