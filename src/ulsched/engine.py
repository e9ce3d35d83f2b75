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
import operator
import os
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .channel import ChannelConfig, CqiSource, Topology, cqi_to_bytes_per_rc, load_cqi_trace
from .metrics import MetricsCollector, MetricsSummary, summary_row, worst_user
from .schedulers import POLICIES, build_traffic_matrix, dispatch
from .traffic import (
    CLASSES,
    DATA,
    NEVER,
    DataSource,
    TrafficError,
    UeBuffer,
    VIDEO,
    VOICE,
    VideoSource,
    VoiceSource,
    load_arrival_trace,
    make_packet,
    truncated_pareto_mean,
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
        if not isinstance(d, Mapping):
            raise ConfigError(f"config must be a mapping, got {type(d).__name__}")
        d = dict(d)
        chan = d.pop("channel", {})
        if isinstance(chan, dict):
            unknown = set(chan) - {f for f in ChannelConfig.__dataclass_fields__}
            if unknown:
                raise ConfigError(f"unknown channel key: {sorted(unknown)[0]}")
            if isinstance(chan.get("cqi_thresholds_db"), list):
                chan["cqi_thresholds_db"] = tuple(chan["cqi_thresholds_db"])
            chan = ChannelConfig(**chan)
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config key: {sorted(unknown)[0]}")
        return cls(channel=chan, **d)

    @classmethod
    def from_json(cls, path) -> "ScenarioConfig":
        try:
            with open(path) as fh:
                d = json.load(fh)
        except (OSError, ValueError) as err:  # unreadable, undecodable or not JSON
            raise ConfigError(f"config {path} cannot be read as JSON: {err}") from None
        if not isinstance(d, dict):
            raise ConfigError(f"config {path} must hold a JSON object, "
                              f"got {type(d).__name__}")
        return cls.from_dict(d)


_ABSENT = object()


def _get(cfg: ScenarioConfig, key: str):
    """The value at a dotted key; _ABSENT for an entry its mapping omits."""
    head, _, name = key.partition(".")
    section = getattr(cfg, head)
    if not name:
        return section
    return getattr(section, name) if head == "channel" else section.get(name, _ABSENT)


def _is_int(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, (int, np.integer))


def _is_real(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)


def _number(is_type, noun, op=None, bound=None):
    """(test, what) of a number of one type and, given op, `value op bound`
    (op "|x| <=" bounds |value|); a str bound is the dotted key of an earlier row."""
    if op is None:
        return lambda v, cfg: is_type(v), noun
    cmp = {">=": operator.ge, ">": operator.gt, "|x| <=": lambda v, b: abs(v) <= b}[op]
    at = (lambda cfg: _get(cfg, bound)) if isinstance(bound, str) else (lambda cfg: bound)
    return lambda v, cfg: is_type(v) and cmp(v, at(cfg)), f"{noun} {op} {bound}"


_int = partial(_number, _is_int, "an integer")
_real = partial(_number, _is_real, "a finite real number")


def _one_of(choices):
    return lambda v, cfg: isinstance(v, str) and v in choices, "|".join(choices)


def _list_of(ok, what):
    return (lambda v, cfg: isinstance(v, (list, tuple)) and len(v) > 0 and all(map(ok, v)),
            f"a non-empty list of {what}")


# a cell addresses its UEs by 16-bit C-RNTIs, of which 0x0001-0xFFF3 are
# usable (3GPP TS 36.321, Table 7.1-1)
_MAX_UES = 0xFFF3


def _disc_km2(ch: ChannelConfig) -> float:
    """Area of the disc deploy places UEs in: the cell minus its inner radius."""
    return math.pi * (ch.cell_radius_m ** 2 - ch.min_ue_distance_m ** 2) / 1e6


_MAPPING = (lambda v, cfg: isinstance(v, dict), "a mapping")
_FLAG = (lambda v, cfg: isinstance(v, (bool, np.bool_)), "true or false")
_PATH = (lambda v, cfg: v is None or isinstance(v, (str, os.PathLike)) and len(os.fspath(v)) > 0,
         "null or a non-empty path")

# One row per configuration key, in check order: (dotted key, test(value,
# cfg), what the value must be). Each test checks the type and the range
# together. A cross-key test reads only keys whose rows come earlier, so
# their values are already valid; a mapping's row precedes its entries'.
_RULES = (
    ("policy", *_one_of(POLICIES)),
    ("ue_policy", *_one_of(("strict", "flip"))),
    ("ue_mode", *_one_of(("fixed", "ppp"))),
    ("seed", *_int(">=", 0)),
    ("n_ues", lambda v, cfg: _is_int(v) and v >= 0 and (cfg.ue_mode != "fixed" or v <= _MAX_UES),
     f"an integer >= 0, and <= {_MAX_UES} with ue_mode fixed"),
    *((key, *_int(">=", 1)) for key in ("tti_count", "buffer_capacity", "voice_deadline_ms",
                                        "video_deadline_ms", "history_window")),
    ("buffer_threshold", lambda v, cfg: _is_int(v) and 0 <= v < cfg.buffer_capacity,
     "an integer >= 0 and < buffer_capacity"),
    ("loads_mbps", *_MAPPING),
    *((f"loads_mbps.{cls}", *_real(">=", 0)) for cls in CLASSES),
    ("channel", lambda v, cfg: isinstance(v, ChannelConfig), "a mapping of channel keys"),
    ("channel.prb_per_rc", *_int(">=", 1)),
    ("channel.n_prb_data",
     lambda v, cfg: _is_int(v) and v >= 1 and v % cfg.channel.prb_per_rc == 0,
     "a positive multiple of channel.prb_per_rc"),
    # dB sums become mW (noise, interference); 10**(x/10) overflows above x = 3083
    *((f"channel.{key}", *_real("|x| <=", 300)) for key in (
        "p_max_dbm", "p_o_dbm", "penetration_loss_db", "noise_figure_db", "thermal_noise_dbm_hz")),
    ("channel.alpha_pc", lambda v, cfg: _is_real(v) and 0 < v <= 1, "a real number in (0, 1]"),
    # sigma * z joins those dB sums; at sigma = 100 an overflow needs |z| > 24
    ("channel.shadowing_sigma_db", lambda v, cfg: _is_real(v) and 0 <= v <= 100,
     "a real number in [0, 100]"),
    # the path-loss law turns into a gain below 0.39 m
    ("channel.min_ue_distance_m", *_real(">=", 1)),
    # LTE's timing advance (0.67 ms round trip) reaches 100 km
    ("channel.inter_site_distance_m",
     lambda v, cfg: (_is_real(v)
                     and cfg.channel.min_ue_distance_m <= cfg.channel.cell_radius_m <= 100e3),
     "a finite real number whose cell radius ISD/sqrt(3) is >= channel.min_ue_distance_m "
     "and <= 100 km"),
    # the mean of deploy's Poisson UE count, bounded like a fixed count
    ("ppp_intensity_per_km2",
     lambda v, cfg: _is_real(v) and v > 0 and (
         cfg.ue_mode != "ppp" or v * _disc_km2(cfg.channel) <= _MAX_UES),
     f"a finite real number > 0 whose mean UE count over the cell disc, with ue_mode "
     f"ppp, is <= {_MAX_UES}"),
    ("channel.fast_fading", *_FLAG),
    ("channel.cqi_thresholds_db",
     lambda v, cfg: (isinstance(v, (list, tuple)) and len(v) == 15
                     and all(map(_is_real, v)) and list(v) == sorted(v)),
     "15 nondecreasing finite real numbers"),
    *((key, *_MAPPING) for key in ("voice_params", "video_params", "data_params")),
    *((key, *_int(">=", 1)) for key in ("voice_params.packet_bytes", "voice_params.sid_bytes",
                                        "data_params.payload_min")),
    # each packet of a frame holds at least one byte, and its gaps may all be
    # shorter than a TTI, so a frame, like a talking voice UE, may offer no
    # more per TTI than every RC carries at CQI 15: packets <= rc_count * 756
    ("video_params.packets_per_frame",
     lambda v, cfg: _is_int(v) and 1 <= v <= cfg.channel.rc_count * cqi_to_bytes_per_rc(15),
     "an integer >= 1 and <= channel rc_count * 756, the bytes every RC carries in a TTI "
     "at CQI 15"),
    *((key, *_int(">=", 0)) for key in ("video_params.min_frame_bytes", "data_params.n_sources")),
    *((key, *_real(">", 0)) for key in ("voice_params.sid_interval_ms", "video_params.size_scale",
                                        "video_params.ia_scale_ms",
                                        "data_params.source_rate_bps")),
    *((key, *_real(">", 1)) for key in ("video_params.size_shape", "video_params.ia_shape",
                                        "data_params.on_shape", "data_params.off_shape",
                                        "data_params.cap_factor")),
    # a period lasts at least its Pareto scale, and DataSource keeps the OFF mean >= the ON mean
    ("data_params.on_mean_ms", lambda v, cfg: _is_real(v) and v / max(truncated_pareto_mean(
        1.0, cfg.data_params[s], cfg.data_params["cap_factor"]) for s in ("on_shape", "off_shape"))
     >= 0.1, "a finite real number >= 0.1 ms times the larger truncated_pareto_mean(1, shape, "
     "cap_factor) of on_shape and off_shape"),
    *((key, lambda v, cfg: _is_real(v) and (v == 0 or v >= 1),
       "0 (a state never left) or a finite real number >= 1")
      for key in ("voice_params.talk_mean_ms", "voice_params.silence_mean_ms")),
    ("video_params.size_max", *_real(">", "video_params.size_scale")),
    ("video_params.ia_max_ms", *_real(">", "video_params.ia_scale_ms")),
    ("data_params.payload_max", *_int(">=", "data_params.payload_min")),
    *((key, *_PATH) for key in ("cqi_trace", "arrival_trace")),
    ("keep_trace", *_FLAG),
    ("sweep", *_MAPPING),
    ("sweep.vary", *_one_of(CLASSES)),
    ("sweep.points_mbps", *_list_of(lambda x: _is_real(x) and x >= 0, "finite real numbers >= 0")),
    ("sweep.seeds", *_list_of(lambda x: _is_int(x) and x >= 0, "integers >= 0")),
)
# the keys each mapping section may hold: the names of its entries' rows
_SECTION_KEYS = {head: {k.partition(".")[2] for k, _, _ in _RULES if k.startswith(head + ".")}
                 for head in ("loads_mbps", "voice_params", "video_params", "data_params",
                              "sweep")}


def validate(cfg: ScenarioConfig) -> None:
    """Reject invalid scenarios before TTI 0; error messages name the
    offending configuration key. A mapping section may hold only the keys
    of its rows, and each `*_params` section must hold all of them."""
    for section, known in _SECTION_KEYS.items():
        given = getattr(cfg, section)
        if not isinstance(given, dict):
            continue  # its own row rejects it
        unknown = sorted(set(given) - known, key=str)
        if unknown:
            raise ConfigError(f"{section}.{unknown[0]} is not a known key")
        missing = sorted(known - set(given)) if section.endswith("_params") else ()
        if missing:
            raise ConfigError(f"{section}.{missing[0]} is missing")
    for key, ok, what in _RULES:
        value = _get(cfg, key)
        if value is not _ABSENT and not ok(value, cfg):
            raise ConfigError(f"{key} must be {what}, got {value!r}")
    if cfg.ue_mode == "fixed":
        _check_loads(cfg, cfg.n_ues)


def _check_loads(cfg: ScenarioConfig, n_ues: int) -> None:
    """Per class, the load split over n_ues live sources must be one a
    source can offer and the cell can carry. The voice share must exceed
    what the silence descriptors alone send, and one talking source may
    offer no more per TTI than every RC carries at the highest CQI: its
    talking interval must be at least packet_bytes / (rc_count *
    cqi_to_bytes_per_rc(15)) ms. The video share may not exceed that
    per-TTI capacity as a mean rate. Both bound the packets a source emits
    per TTI. A replayed arrival trace has no sources."""
    if cfg.arrival_trace or n_ues == 0:
        return
    rc_count = cfg.channel.rc_count
    tti_bytes = rc_count * cqi_to_bytes_per_rc(15)
    load = cfg.loads_mbps.get(VOICE, 0.0)
    if load > 0:
        try:
            interval = voice_interval_for_load(load * 1e6 / n_ues, **cfg.voice_params)
        except TrafficError as err:
            raise ConfigError(f"loads_mbps.voice = {load} Mbps over {n_ues} UEs: {err}") from None
        least = cfg.voice_params["packet_bytes"] / tti_bytes
        if interval < least:
            raise ConfigError(
                f"loads_mbps.voice = {load} Mbps over {n_ues} UEs: a talking UE would send a "
                f"packet every {interval:.3g} ms, more bytes per TTI than all {rc_count} RCs "
                f"carry at CQI 15 (the interval must be at least {least:.3g} ms)")
    load = cfg.loads_mbps.get(VIDEO, 0.0)
    if load * 1e6 / n_ues > tti_bytes * 8000:
        raise ConfigError(
            f"loads_mbps.video = {load} Mbps over {n_ues} UEs: each UE would offer "
            f"{load / n_ues:.6g} Mbps, more than all {rc_count} RCs carry at CQI 15 "
            f"({tti_bytes * 8e-3:.6g} Mbps)")


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
        n = int(rng.poisson(cfg.ppp_intensity_per_km2 * _disc_km2(ch)))
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


class _Replay:
    """One UE's replayed arrivals as a source: `due` is the TTI of its next
    trace row (NEVER after the last one), and `step` at that TTI turns the
    TTI's rows into packets, in file order. It walks an index over the rows,
    which ends on a NEVER row, so a step allocates only its packets."""

    __slots__ = ("due", "_rows", "_next")

    def __init__(self, rows):
        self._rows = [*rows, (NEVER, None, None)]
        self._next = 0
        self.due = self._rows[0][0]

    def step(self, tti: int):
        pkts = []
        rows, i = self._rows, self._next
        row = rows[i]
        while row[0] == tti:
            pkts.append(make_packet(row[1], row[2], tti))
            i += 1
            row = rows[i]
        self._next = i
        self.due = row[0]
        return pkts


def _read_trace(key, load, path, *shape):
    """load(path, *shape); a file that cannot be opened, read or decoded is a
    ConfigError naming the config key."""
    try:
        return load(path, *shape)
    except OSError as err:
        raise ConfigError(f"{key} cannot be read: {err}") from None
    except UnicodeDecodeError as err:
        raise ConfigError(f"{key} cannot be read: {path}: {err}") from None


def run(cfg: ScenarioConfig) -> MetricsSummary:
    """Execute one scenario end to end; fully deterministic per (cfg, seed)."""
    validate(cfg)
    topo = deploy(cfg, np.random.default_rng([cfg.seed, 0]))
    n = topo.n_ues
    if cfg.ue_mode == "ppp":
        _check_loads(cfg, n)
    buffers = [UeBuffer(capacity=cfg.buffer_capacity, threshold=cfg.buffer_threshold,
                        voice_deadline=cfg.voice_deadline_ms,
                        video_deadline=cfg.video_deadline_ms,
                        history_window=cfg.history_window)
               for _ in range(n)]
    if cfg.arrival_trace:
        arrivals = _read_trace("arrival_trace", load_arrival_trace, cfg.arrival_trace, n)
        sources = [[_Replay(rows)] if rows else [] for rows in arrivals]
    else:
        sources = _build_sources(cfg, n)
    # (source, its UE's buffer), UE-major in source order: the enqueue order
    feeds = [(src, buffers[ue]) for ue, gen in enumerate(sources) for src in gen]
    if cfg.cqi_trace:
        trace = _read_trace("cqi_trace", load_cqi_trace, cfg.cqi_trace, n, cfg.channel.rc_count)
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
        decision = dispatch(cfg.policy, build_traffic_matrix(grid(tti), b), k, k_current)
        for buf, grant in zip(buffers, decision.grants.tolist()):
            if grant:
                before = buf.total
                delivered += drain(buf, grant, tti)
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
    The overrides are checked as sweep.points_mbps and sweep.seeds, and every
    run's config is validated before the first run. Returns the list of
    summary rows in (point, seed) order."""
    validate(cfg)
    sw = cfg.sweep
    vary = sw.get("vary", VOICE)
    points = sw.get("points_mbps") if points_mbps is None else points_mbps
    seeds = sw.get("seeds", [cfg.seed]) if seeds is None else seeds
    validate(replace(cfg, sweep={**sw, "points_mbps": points, "seeds": seeds}))
    configs = [replace(cfg, loads_mbps={**cfg.loads_mbps, vary: float(point)}, seed=int(seed))
               for point in points for seed in seeds]
    for c in configs:  # every point's loads, before the first run
        validate(c)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool needs it

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(run_row, configs))
    return [run_row(c) for c in configs]
