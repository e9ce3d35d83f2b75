"""Scenario orchestration: deployment, the per-TTI loop (generate, enqueue,
age/drop, urgency, channel, schedule, drain, record), configuration
validation, seeding, and load sweeps.

The per-TTI phase order is fixed: deadline drops always run before the
scheduling decision, so the urgency a scheduler sees is what it can still
save. One master seed fans out into independent substreams per UE and
purpose, so adding a UE never perturbs the draws of the others.
"""

import json
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import ChannelConfig, CqiSource, Topology, load_cqi_trace
from .metrics import MetricsCollector, MetricsSummary, summary_row, worst_user
from .schedulers import POLICIES, build_traffic_matrix, dispatch
from .traffic import (
    CLASSES,
    DATA,
    DataSource,
    TrafficError,
    UeBuffer,
    VIDEO,
    VOICE,
    VideoSource,
    VoiceSource,
    load_arrival_trace,
    make_packet,
    video_fps_for_load,
    voice_interval_for_load,
    voice_talk_share,
)
from .ue_tx import flip_drain, strict_priority_drain


class ConfigError(ValueError):
    pass


def _default_loads():
    return {VOICE: 1.0, VIDEO: 1.0, DATA: 1.0}


def _default_voice_params():
    return {"packet_bytes": 40, "sid_bytes": 15, "sid_interval_ms": 160.0,
            "talk_mean_ms": 3000.0, "silence_mean_ms": 3000.0}


def _default_video_params():
    return {"packets_per_frame": 8, "min_frame_bytes": 1500,
            "size_scale": 40.0, "size_shape": 1.2, "size_max": 250.0,
            "ia_scale_ms": 2.5, "ia_shape": 1.2, "ia_max_ms": 12.5}


def _default_data_params():
    return {"n_sources": 8, "source_rate_bps": 200_000.0, "on_mean_ms": 6.0,
            "on_shape": 1.4, "off_shape": 1.2, "cap_factor": 50.0,
            "payload_min": 46, "payload_max": 1500}


@dataclass(frozen=True)
class ScenarioConfig:
    policy: str = "dham"
    ue_policy: str = "strict"        # strict | flip; dafs + flip is the PF variant
    seed: int = 1
    tti_count: int = 10_000
    ue_mode: str = "fixed"           # fixed | ppp
    n_ues: int = 30
    ppp_intensity_per_km2: float = 150.0
    loads_mbps: dict = field(default_factory=_default_loads)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    buffer_capacity: int = 65536
    buffer_threshold: int = 49152
    voice_deadline_ms: int = 50
    video_deadline_ms: int = 150
    history_window: int = 1000
    voice_params: dict = field(default_factory=_default_voice_params)
    video_params: dict = field(default_factory=_default_video_params)
    data_params: dict = field(default_factory=_default_data_params)
    cqi_trace: str = None
    arrival_trace: str = None
    keep_trace: bool = False
    sweep: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        d = dict(d)
        chan = d.pop("channel", {})
        if isinstance(chan, dict):
            unknown = set(chan) - {f for f in ChannelConfig.__dataclass_fields__}
            if unknown:
                raise ConfigError(f"unknown channel key: {sorted(unknown)[0]}")
            if "cqi_thresholds_db" in chan:
                chan["cqi_thresholds_db"] = tuple(chan["cqi_thresholds_db"])
            chan = ChannelConfig(**chan)
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config key: {sorted(unknown)[0]}")
        return cls(channel=chan, **d)

    @classmethod
    def from_json(cls, path) -> "ScenarioConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        out = {f: getattr(self, f) for f in self.__dataclass_fields__ if f != "channel"}
        out["channel"] = {f: getattr(self.channel, f)
                          for f in ChannelConfig.__dataclass_fields__}
        out["channel"]["cqi_thresholds_db"] = list(self.channel.cqi_thresholds_db)
        return out


_INT_KEYS = ("seed", "tti_count", "n_ues", "buffer_capacity", "buffer_threshold",
             "voice_deadline_ms", "video_deadline_ms", "history_window")
_CHANNEL_INT_KEYS = ("n_prb_total", "n_prb_data", "prb_per_rc")
_CHANNEL_REAL_KEYS = tuple(f for f in ChannelConfig.__dataclass_fields__
                           if f not in _CHANNEL_INT_KEYS + ("fast_fading", "cqi_thresholds_db"))
# each source parameter's range, as a test of (value, its section) and in words
_PARAM_RANGES = {
    **dict.fromkeys(("packet_bytes", "sid_bytes", "packets_per_frame", "payload_min"),
                    (lambda v, p: v >= 1, "at least 1")),
    **dict.fromkeys(("min_frame_bytes", "n_sources"), (lambda v, p: v >= 0, "nonnegative")),
    **dict.fromkeys(("sid_interval_ms", "size_scale", "ia_scale_ms", "source_rate_bps",
                     "on_mean_ms"), (lambda v, p: v > 0, "positive")),
    **dict.fromkeys(("size_shape", "ia_shape", "on_shape", "off_shape", "cap_factor"),
                    (lambda v, p: v > 1, "above 1")),
    **dict.fromkeys(("talk_mean_ms", "silence_mean_ms"),
                    (lambda v, p: v == 0 or v >= 1, "0 (a state never left) or at least 1")),
    "size_max": (lambda v, p: v > p["size_scale"], "above size_scale"),
    "ia_max_ms": (lambda v, p: v > p["ia_scale_ms"], "above ia_scale_ms"),
    "payload_max": (lambda v, p: v >= p["payload_min"], "at least payload_min"),
}


def _is_int(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, (int, np.integer))


def _is_real(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)


def _expect(key, value, ok, what) -> None:
    if not ok(value):
        raise ConfigError(f"{key} must be {what}, got {value!r}")


def _check_types(cfg: ScenarioConfig) -> None:
    """Integer keys hold integers, number keys finite real numbers (a bool
    is neither) and flags bools: JSON 40.0, "24", NaN or "false" would
    otherwise fail or hang mid-run, be truncated or be read as true."""
    ch = cfg.channel
    _expect("channel", ch, lambda v: isinstance(v, ChannelConfig), "a mapping of channel keys")
    for key in ("loads_mbps", "voice_params", "video_params", "data_params", "sweep"):
        _expect(key, getattr(cfg, key), lambda v: isinstance(v, dict), "a mapping")
    for key in _INT_KEYS:
        _expect(key, getattr(cfg, key), _is_int, "an integer")
    for key in _CHANNEL_INT_KEYS:
        _expect(f"channel.{key}", getattr(ch, key), _is_int, "an integer")
    reals = [("ppp_intensity_per_km2", cfg.ppp_intensity_per_km2)]
    reals += [(f"loads_mbps.{cls}", value) for cls, value in cfg.loads_mbps.items()]
    reals += [(f"channel.{key}", getattr(ch, key)) for key in _CHANNEL_REAL_KEYS]
    reals += [("channel.cqi_thresholds_db", value) for value in ch.cqi_thresholds_db]
    for key, value in reals:
        _expect(key, value, _is_real, "a finite real number")
    for key, value in (("channel.fast_fading", ch.fast_fading), ("keep_trace", cfg.keep_trace)):
        _expect(key, value, lambda v: isinstance(v, (bool, np.bool_)), "true or false")


def validate(cfg: ScenarioConfig) -> None:
    """Reject invalid scenarios before TTI 0; error messages name the
    offending configuration key."""
    _check_types(cfg)
    if cfg.policy not in POLICIES:
        raise ConfigError(f"policy must be {'|'.join(POLICIES)}, got {cfg.policy!r}")
    if cfg.ue_policy not in ("strict", "flip"):
        raise ConfigError(f"ue_policy must be strict|flip, got {cfg.ue_policy!r}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {cfg.seed}")
    if cfg.tti_count < 1:
        raise ConfigError("tti_count must be at least 1")
    if cfg.ue_mode not in ("fixed", "ppp"):
        raise ConfigError(f"ue_mode must be fixed|ppp, got {cfg.ue_mode!r}")
    if cfg.ue_mode == "fixed" and cfg.n_ues < 0:
        raise ConfigError("n_ues must be nonnegative")
    if cfg.ue_mode == "ppp" and cfg.ppp_intensity_per_km2 <= 0:
        raise ConfigError("ppp_intensity_per_km2 must be positive")
    unknown_cls = set(cfg.loads_mbps) - set(CLASSES)
    if unknown_cls:
        raise ConfigError(f"loads_mbps.{sorted(unknown_cls)[0]} is not a traffic class")
    for cls in CLASSES:
        if cfg.loads_mbps.get(cls, 0.0) < 0:
            raise ConfigError(f"loads_mbps.{cls} must be nonnegative")
    if cfg.buffer_capacity <= 0:
        raise ConfigError("buffer_capacity must be positive")
    if not 0 <= cfg.buffer_threshold < cfg.buffer_capacity:
        raise ConfigError("buffer_threshold must be nonnegative and below buffer_capacity")
    ch = cfg.channel
    if not 0 < ch.alpha_pc <= 1:
        raise ConfigError("channel.alpha_pc must lie in (0, 1]")
    if ch.prb_per_rc <= 0 or ch.n_prb_data % ch.prb_per_rc != 0:
        raise ConfigError("channel.n_prb_data must be a multiple of channel.prb_per_rc")
    if ch.n_prb_data < ch.prb_per_rc:
        raise ConfigError("channel.n_prb_data must hold at least one chunk of "
                          "channel.prb_per_rc PRBs")
    if ch.n_prb_data > ch.n_prb_total:
        raise ConfigError("channel.n_prb_data cannot exceed channel.n_prb_total")
    if ch.shadowing_sigma_db < 0:
        raise ConfigError("channel.shadowing_sigma_db must be nonnegative")
    if ch.min_ue_distance_m <= 0:
        raise ConfigError("channel.min_ue_distance_m must be positive")
    if ch.cell_radius_m < ch.min_ue_distance_m:
        raise ConfigError(f"channel.inter_site_distance_m = {ch.inter_site_distance_m} m gives a "
                          f"cell radius (ISD/sqrt(3)) of {ch.cell_radius_m:.1f} m, below "
                          f"channel.min_ue_distance_m = {ch.min_ue_distance_m} m")
    if len(ch.cqi_thresholds_db) != 15 or list(ch.cqi_thresholds_db) != sorted(ch.cqi_thresholds_db):
        raise ConfigError("channel.cqi_thresholds_db must be 15 nondecreasing values")
    for key, default in (("voice_params", _default_voice_params),
                         ("video_params", _default_video_params),
                         ("data_params", _default_data_params)):
        given, known = getattr(cfg, key), default()
        bad = sorted(set(given) ^ set(known))
        if bad:
            what = "is not a known key" if bad[0] in given else "is missing"
            raise ConfigError(f"{key}.{bad[0]} {what}")
        for name, value in given.items():  # a key takes the type of its default
            if _is_int(known[name]):
                _expect(f"{key}.{name}", value, _is_int, "an integer")
            else:
                _expect(f"{key}.{name}", value, _is_real, "a finite real number")
        for name, value in given.items():
            in_range, what = _PARAM_RANGES[name]
            _expect(f"{key}.{name}", value, lambda v: in_range(v, given), what)
    if cfg.history_window < 1:
        raise ConfigError("history_window must be at least 1")
    for key in ("voice_deadline_ms", "video_deadline_ms"):
        if getattr(cfg, key) < 1:
            raise ConfigError(f"{key} must be at least 1")
    sw = cfg.sweep  # the keys `sweep` reads, and nothing else: a typo is not ignored
    bad = sorted(set(sw) - {"vary", "points_mbps", "seeds"})
    if bad:
        raise ConfigError(f"sweep.{bad[0]} is not a known key")
    _expect("sweep.vary", sw.get("vary", VOICE), lambda v: v in CLASSES, "|".join(CLASSES))
    for key, ok, what in (("points_mbps", lambda v: _is_real(v) and v >= 0, "finite numbers >= 0"),
                          ("seeds", lambda v: _is_int(v) and v >= 0, "integers >= 0")):
        _expect(f"sweep.{key}", sw.get(key, []), lambda v: isinstance(v, (list, tuple)), "a list")
        for value in sw.get(key, []):
            _expect(f"sweep.{key}", value, ok, f"a list of {what}")
    if cfg.ue_mode == "fixed":
        _check_voice_floor(cfg, cfg.n_ues)


def _check_voice_floor(cfg: ScenarioConfig, n_ues: int) -> None:
    """The voice load, split over n_ues live sources, must exceed what the
    silence descriptors alone send; a replayed arrival trace has no sources."""
    load = cfg.loads_mbps.get(VOICE, 0.0)
    if cfg.arrival_trace or load <= 0 or n_ues == 0:
        return
    try:
        voice_interval_for_load(load * 1e6 / n_ues, **cfg.voice_params)
    except TrafficError as err:
        raise ConfigError(f"loads_mbps.voice = {load} Mbps over {n_ues} UEs: {err}") from None


# ---------------------------------------------------------------------------
# deployment
# ---------------------------------------------------------------------------

def deploy(cfg: ScenarioConfig, rng) -> Topology:
    """Hexagonal 7-site layout (serving site at the origin) with UEs placed
    uniformly in the serving cell disc: a fixed count, or a Poisson draw with
    the configured intensity. Shadowing is drawn once per UE (static users).
    """
    ch = cfg.channel
    radius = ch.cell_radius_m
    d0 = ch.min_ue_distance_m
    if cfg.ue_mode == "ppp":
        area_km2 = math.pi * (radius ** 2 - d0 ** 2) / 1e6
        n = int(rng.poisson(cfg.ppp_intensity_per_km2 * area_km2))
    else:
        n = cfg.n_ues
    u = rng.uniform(0.0, 1.0, size=n)
    r = np.sqrt(u * (radius ** 2 - d0 ** 2) + d0 ** 2)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
    xy = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
    shadow = rng.normal(0.0, ch.shadowing_sigma_db, size=n)
    angles = np.arange(6) * (math.pi / 3.0)
    centers = ch.inter_site_distance_m * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return Topology(neighbor_centers=centers, ue_xy=xy, ue_distance_m=r,
                    ue_shadow_db=shadow, cell_radius_m=radius)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def _build_sources(cfg: ScenarioConfig, n_ues: int):
    """Per-UE generator lists; network loads divide evenly across UEs."""
    if n_ues == 0:
        return []
    per_ue = {cls: cfg.loads_mbps.get(cls, 0.0) * 1e6 / n_ues for cls in CLASSES}
    sources = []
    for ue in range(n_ues):
        gen = []
        if per_ue[VOICE] > 0:
            vp = cfg.voice_params
            rng = np.random.default_rng([cfg.seed, 1, ue])
            interval = voice_interval_for_load(per_ue[VOICE], **vp)
            pi_talk = voice_talk_share(vp["talk_mean_ms"], vp["silence_mean_ms"])
            gen.append(VoiceSource(rng, interval_ms=interval,
                                   start_talking=bool(rng.random() < pi_talk), **vp))
        if per_ue[VIDEO] > 0:
            vd = cfg.video_params
            fps = video_fps_for_load(per_ue[VIDEO],
                                     packets_per_frame=vd["packets_per_frame"],
                                     min_frame_bytes=vd["min_frame_bytes"],
                                     size_scale=vd["size_scale"],
                                     size_shape=vd["size_shape"],
                                     size_max=vd["size_max"])
            gen.append(VideoSource(np.random.default_rng([cfg.seed, 2, ue]),
                                   fps=fps, **vd))
        if per_ue[DATA] > 0:
            gen.append(DataSource(np.random.default_rng([cfg.seed, 3, ue]),
                                  offered_bps=per_ue[DATA], **cfg.data_params))
        sources.append(gen)
    return sources


def run(cfg: ScenarioConfig) -> MetricsSummary:
    """Execute one scenario end to end; fully deterministic per (cfg, seed)."""
    validate(cfg)
    topo = deploy(cfg, np.random.default_rng([cfg.seed, 0]))
    n = topo.n_ues
    if cfg.ue_mode == "ppp":
        _check_voice_floor(cfg, n)
    buffers = [UeBuffer(capacity=cfg.buffer_capacity, threshold=cfg.buffer_threshold,
                        voice_deadline=cfg.voice_deadline_ms,
                        video_deadline=cfg.video_deadline_ms,
                        history_window=cfg.history_window)
               for _ in range(n)]
    arrival_trace = load_arrival_trace(cfg.arrival_trace, n) if cfg.arrival_trace else None
    sources = [] if arrival_trace is not None else _build_sources(cfg, n)
    # (source, its UE's buffer), UE-major in source order: the enqueue order
    feeds = [(src, buffers[ue]) for ue, gen in enumerate(sources) for src in gen]
    if cfg.cqi_trace:
        trace = load_cqi_trace(cfg.cqi_trace, n, cfg.channel.rc_count)
        if len(trace) < cfg.tti_count:
            raise ConfigError(f"cqi_trace {cfg.cqi_trace} has {len(trace)} lines, "
                              f"fewer than tti_count = {cfg.tti_count}")
        grid = trace.__getitem__
    else:
        fading = [np.random.default_rng([cfg.seed, 4, ue]) for ue in range(n)]
        interference = np.random.default_rng([cfg.seed, 5])
        grid = CqiSource(topo=topo, cfg=cfg.channel,
                         fading_rngs=fading, interference_rng=interference).grid
    collector = MetricsCollector(worst_user(topo) if n else 0, keep_trace=cfg.keep_trace)
    dafs = cfg.policy == "dafs"
    drain = flip_drain if cfg.ue_policy == "flip" else strict_priority_drain

    for tti in range(cfg.tti_count):
        if arrival_trace is not None:
            for ue, cls, size in arrival_trace.get(tti, ()):
                buffers[ue].enqueue([make_packet(cls, size, tti)])
        else:
            for src, buf in feeds:
                if src.due <= tti:
                    pkts = src.step(tti)
                    if pkts:
                        buf.enqueue(pkts)
        dropped = 0
        critical = np.zeros(n, dtype=np.int64)
        for ue, buf in enumerate(buffers):
            if buf.due <= tti:
                gone, critical[ue] = buf.age_and_drop(tti)
                dropped += gone
        b = np.array([buf.total for buf in buffers], dtype=np.int64)
        # urgency: the bytes at their deadline (plus, for dafs, the build-up
        # above the threshold) as k_current; k adds the drop history
        k = k_current = None
        if cfg.policy != "dham":
            k_current = critical + np.maximum(b - cfg.buffer_threshold, 0) if dafs else critical
            k = k_current + np.array([buf.history_sum for buf in buffers], dtype=np.int64)
        sent = 0
        delivered = []
        decision = None
        if n:
            W = build_traffic_matrix(grid(tti), b)
            decision = dispatch(cfg.policy, W, k, k_current)
            grants = decision.grants
            for ue in np.flatnonzero(grants).tolist():
                buf = buffers[ue]
                before = buf.total
                delivered += drain(buf, int(grants[ue]), tti)
                sent += before - buf.total
        collector.record_tti(tti, dropped, sent, delivered, decision)
    return collector.finalize(buffers)


def run_row(cfg: ScenarioConfig) -> dict:
    """run() condensed to a CSV summary row (used by sweep workers)."""
    summary = run(cfg)
    return summary_row(summary, cfg.policy, cfg.ue_policy, cfg.seed, cfg.loads_mbps)


def sweep(cfg: ScenarioConfig, points_mbps=None, seeds=None, jobs: int = 1):
    """One run per (load point x seed). The varied class comes from
    cfg.sweep['vary']; the other class loads stay at their configured values.
    Returns the list of summary rows in (point, seed) order."""
    validate(cfg)
    sw = cfg.sweep
    vary = sw.get("vary", VOICE)
    points = points_mbps if points_mbps is not None else sw.get("points_mbps")
    if not points:
        raise ConfigError("sweep.points_mbps must list at least one load point")
    seeds = seeds if seeds is not None else sw.get("seeds", [cfg.seed])
    if not seeds:
        raise ConfigError("sweep.seeds must list at least one seed")
    configs = []
    for point in points:
        loads = dict(cfg.loads_mbps)
        loads[vary] = float(point)
        for seed in seeds:
            configs.append(replace(cfg, loads_mbps=loads, seed=int(seed)))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(run_row, configs))
    return [run_row(c) for c in configs]
