"""The benchmark's four workloads and the seeded inputs they run on. Why
each workload was chosen is in README.md and BENCHMARK.json.

Every scenario is built through the public `ScenarioConfig.from_dict`, so a
workload is plain data. One invocation runs `sub_runs` scenarios whose seeds
derive from the `--seed` argument; the simulated results of those scenarios
are therefore fixed by the seed alone, whatever the host speed.

`surplus_dham_replay` replays CQI and arrival traces. They are generated here
from the seed with the library's own channel model and traffic sources,
written to a temporary directory and validated, before anything is timed.
"""

from dataclasses import dataclass

import numpy as np

VOICE_TRENDPOINT = {"packet_bytes": 40, "sid_bytes": 15, "sid_interval_ms": 160.0,
                    "talk_mean_ms": 500.0, "silence_mean_ms": 500.0}


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict                 # ScenarioConfig.from_dict keys (seed and tti_count excluded)
    tti_count: int               # TTIs per scenario; one decision per TTI
    sub_runs: int                # scenarios per invocation, each with its own derived seed
    stride: int                  # every stride-th decision is captured for the replay
    replay: bool = False


WORKLOADS = {w.name: w for w in (
    Workload(
        name="voice_darts",
        params={"policy": "darts", "ue_policy": "strict", "n_ues": 30,
                "loads_mbps": {"voice": 8.0, "video": 1.0, "data": 1.0}},
        tti_count=400, sub_runs=24, stride=4),
    Workload(
        name="mixed_dafs_flip",
        params={"policy": "dafs", "ue_policy": "flip", "n_ues": 30,
                "loads_mbps": {"voice": 12.0, "video": 14.0, "data": 3.0},
                "voice_params": VOICE_TRENDPOINT},
        tti_count=500, sub_runs=12, stride=2),
    Workload(
        name="dense_darts",
        params={"policy": "darts", "ue_policy": "strict", "n_ues": 100,
                "channel": {"prb_per_rc": 3},
                "loads_mbps": {"voice": 16.0, "video": 4.0, "data": 4.0}},
        tti_count=250, sub_runs=10, stride=2),
    Workload(
        name="surplus_dham_replay",
        params={"policy": "dham", "ue_policy": "strict", "n_ues": 12,
                "channel": {"prb_per_rc": 3},
                "loads_mbps": {"voice": 1.0, "video": 1.0, "data": 1.0}},
        tti_count=3000, sub_runs=3, stride=2, replay=True),
)}


def sub_seed(seed: int, index: int) -> int:
    """Seed of the index-th scenario of an invocation."""
    return seed * 100 + index


def scenario(mods, wl: Workload, seed: int, trace_dir=None):
    """The ScenarioConfig of one scenario. Replay workloads read the traces
    that `write_replay_traces` left in trace_dir for this seed."""
    d = dict(wl.params, seed=seed, tti_count=wl.tti_count)
    if wl.replay:
        d["cqi_trace"] = str(trace_dir / f"cqi-{seed}.txt")
        d["arrival_trace"] = str(trace_dir / f"arrivals-{seed}.txt")
    return mods.engine.ScenarioConfig.from_dict(d)


# ---------------------------------------------------------------------------
# replay traces
# ---------------------------------------------------------------------------

class TraceError(ValueError):
    pass


def _sources(mods, cfg, ue):
    """One UE's voice, video and data sources, calibrated to its share of the
    configured load with the library's public calibration functions."""
    tr = mods.traffic
    n = cfg.n_ues
    per_ue = {cls: cfg.loads_mbps.get(cls, 0.0) * 1e6 / n for cls in tr.CLASSES}
    def rng(k):
        return np.random.default_rng([cfg.seed, 17, ue, k])

    vp, vd, dp = cfg.voice_params, cfg.video_params, cfg.data_params
    out = []
    if per_ue[tr.VOICE] > 0:
        interval = tr.voice_interval_for_load(per_ue[tr.VOICE], **vp)
        r = rng(0)
        pi_talk = vp["silence_mean_ms"] / (vp["talk_mean_ms"] + vp["silence_mean_ms"])
        out.append(tr.VoiceSource(r, interval_ms=interval,
                                  start_talking=bool(r.random() < pi_talk), **vp))
    if per_ue[tr.VIDEO] > 0:
        fps = tr.video_fps_for_load(
            per_ue[tr.VIDEO], **{k: vd[k] for k in ("packets_per_frame", "min_frame_bytes",
                                                    "size_scale", "size_shape", "size_max")})
        out.append(tr.VideoSource(rng(1), fps=fps, **vd))
    if per_ue[tr.DATA] > 0:
        out.append(tr.DataSource(rng(2), offered_bps=per_ue[tr.DATA], **dp))
    return out


def write_replay_traces(mods, wl: Workload, seed: int, trace_dir) -> None:
    """Write `cqi-<seed>.txt` (one line per TTI, UE-major CQIs) and
    `arrivals-<seed>.txt` (`tti ue class size` per packet) for one scenario,
    then validate both files as read back from disk."""
    eng, ch = mods.engine, mods.channel
    cfg = scenario(mods, wl, seed, trace_dir)
    n, n_rc = cfg.n_ues, cfg.channel.rc_count
    topo = eng.deploy(cfg, np.random.default_rng([seed, 16]))
    cqi = ch.CqiSource(topo=topo, cfg=cfg.channel,
                       fading_rngs=[np.random.default_rng([seed, 18, ue]) for ue in range(n)],
                       interference_rng=np.random.default_rng([seed, 19]))
    sources = [_sources(mods, cfg, ue) for ue in range(n)]
    with open(cfg.cqi_trace, "w") as cf, open(cfg.arrival_trace, "w") as af:
        for tti in range(cfg.tti_count):
            cf.write(" ".join(map(str, cqi.grid(tti).ravel().tolist())) + "\n")
            for ue, gens in enumerate(sources):
                for src in gens:
                    for p in src.step(tti):
                        af.write(f"{tti} {ue} {p.cls} {p.size}\n")
    _validate_traces(cfg, n, n_rc)


def _validate_traces(cfg, n_ues, n_rc):
    with open(cfg.cqi_trace) as fh:
        lines = fh.read().splitlines()
    if len(lines) != cfg.tti_count:
        raise TraceError(f"{cfg.cqi_trace}: {len(lines)} lines, expected {cfg.tti_count}")
    for lineno, line in enumerate(lines, 1):
        vals = [int(v) for v in line.split()]
        if len(vals) != n_ues * n_rc or not all(1 <= v <= 15 for v in vals):
            raise TraceError(f"{cfg.cqi_trace}:{lineno}: need {n_ues * n_rc} CQIs in 1..15")
    packets = 0
    with open(cfg.arrival_trace) as fh:
        for lineno, line in enumerate(fh, 1):
            tti, ue, _cls, size = line.split()
            if not (0 <= int(tti) < cfg.tti_count and 0 <= int(ue) < n_ues and int(size) > 0):
                raise TraceError(f"{cfg.arrival_trace}:{lineno}: bad arrival {line.strip()!r}")
            packets += 1
    if packets == 0:
        raise TraceError(f"{cfg.arrival_trace}: no arrivals")
