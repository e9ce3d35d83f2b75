"""Run statistics: MAC throughput, Jain fairness over per-UE throughput,
per-class transmitted/dropped accounting, delivered-packet delay
distributions, and worst-channel-user delivery tracking."""

import csv
from dataclasses import dataclass, field

import numpy as np

from .channel import Topology, path_loss
from .traffic import CLASSES, DATA, VIDEO, VOICE


class MetricsError(ValueError):
    pass


def jain_index(x) -> float:
    """(sum x)^2 / (n * sum x^2) over nonnegative, not-all-zero values."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise MetricsError("need a nonempty 1-D vector")
    if np.any(v < 0):
        raise MetricsError("throughputs must be nonnegative")
    denom = v.size * float((v * v).sum())
    if denom == 0:
        raise MetricsError("all-zero vector: fairness undefined")
    return float(v.sum()) ** 2 / denom


def worst_user(topo: Topology) -> int:
    """The UE with the largest coupling loss (path loss plus shadowing) to
    the serving site; ties go to the lowest id."""
    loss = path_loss(topo.ue_distance_m) + topo.ue_shadow_db
    return int(np.argmax(loss))


@dataclass
class MetricsSummary:
    n_ues: int
    tti_count: int
    worst_ue: int
    arrived: dict
    transmitted: dict
    deadline_dropped: dict
    overflow_dropped: dict
    resident: dict
    delivered_packets: dict
    dropped_packets: dict
    per_ue_throughput_bytes: np.ndarray
    worst_ue_delivered: dict          # per class, fully delivered packet count
    delay_mean_ms: dict
    delay_p95_ms: dict
    delay_max_ms: dict
    jain: float
    jain_defined: bool
    conservation_ok: bool
    trace_rows: list = field(default_factory=list)

    @property
    def total_transmitted(self) -> int:
        return sum(self.transmitted.values())

    @property
    def total_arrived(self) -> int:
        return sum(self.arrived.values())

    @property
    def mac_throughput_mbps(self) -> float:
        # bytes over tti_count milliseconds
        return self.total_transmitted * 8.0 / (self.tti_count * 1000.0)

    @property
    def offered_mbps(self) -> float:
        return self.total_arrived * 8.0 / (self.tti_count * 1000.0)


class MetricsCollector:
    """Streaming per-TTI accumulation of what the buffers do not keep: the
    delivered-packet delay histograms and the optional per-TTI trace rows."""

    def __init__(self, worst_ue: int, keep_trace: bool = False):
        self.worst_ue = worst_ue
        self.keep_trace = keep_trace
        self.tti_count = 0
        # delay histograms: delays are bounded small ints (ms)
        self.delay_hist = {cls: {} for cls in CLASSES}
        self.trace_rows = []

    def record_tti(self, tti: int, dropped: int, sent: int, delivered, decision=None):
        """dropped, sent: this TTI's deadline-dropped and transmitted bytes
        over all UEs; delivered: the TTI's (cls, size, delay_ms) packets."""
        self.tti_count += 1
        hist = self.delay_hist
        for cls, _size, delay in delivered:
            h = hist[cls]
            h[delay] = h.get(delay, 0) + 1
        if self.keep_trace:
            sched = [] if decision is None else [
                (rc, ue) for rc, ue in enumerate(decision.rc_to_ue) if ue is not None]
            self.trace_rows.append({
                "tti": tti,
                "dropped_bytes": dropped,
                "scheduled": sched,
                "granted_bytes": 0 if decision is None else decision.total_grant,
                "transmitted_bytes": sent,
            })

    def finalize(self, buffers) -> MetricsSummary:
        """The run's summary, read from the buffers' lifetime counters; it
        changes no state, so a second call returns the same summary."""
        def total(counter):
            return {cls: sum(getattr(buf, counter)[cls] for buf in buffers) for cls in CLASSES}

        per_ue = np.array([sum(buf.transmitted.values()) for buf in buffers], dtype=np.int64)
        ok = all(buf.conservation_holds() for buf in buffers)
        try:
            jain = jain_index(per_ue)
            defined = True
        except MetricsError:
            jain = 1.0  # idle-run convention, flagged
            defined = False
        delay_mean, delay_p95, delay_max = {}, {}, {}
        for cls in CLASSES:
            mean, p95, mx = _hist_stats(self.delay_hist[cls])
            delay_mean[cls] = mean
            delay_p95[cls] = p95
            delay_max[cls] = mx
        worst = (dict(buffers[self.worst_ue].delivered_pkts) if buffers
                 else {cls: 0 for cls in CLASSES})
        return MetricsSummary(
            n_ues=len(buffers), tti_count=self.tti_count, worst_ue=self.worst_ue,
            arrived=total("arrived"), transmitted=total("transmitted"),
            deadline_dropped=total("deadline_dropped"),
            overflow_dropped=total("overflow_dropped"), resident=total("occupancy"),
            delivered_packets=total("delivered_pkts"),
            dropped_packets=total("deadline_dropped_pkts"),
            per_ue_throughput_bytes=per_ue,
            worst_ue_delivered=worst,
            delay_mean_ms=delay_mean, delay_p95_ms=delay_p95, delay_max_ms=delay_max,
            jain=jain, jain_defined=defined, conservation_ok=ok,
            trace_rows=self.trace_rows)


def _hist_stats(hist):
    if not hist:
        return 0.0, 0, 0
    delays = np.array(sorted(hist))
    counts = np.array([hist[d] for d in delays], dtype=np.int64)
    total = counts.sum()
    mean = float((delays * counts).sum() / total)
    cum = np.cumsum(counts)
    p95 = int(delays[np.searchsorted(cum, 0.95 * total)])
    return mean, p95, int(delays[-1])


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def summary_row(summary: MetricsSummary, policy, ue_policy, seed, loads_mbps) -> dict:
    s = summary
    return {
        "policy": policy, "ue_policy": ue_policy, "seed": seed,
        "tti_count": s.tti_count, "n_ues": s.n_ues,
        "voice_mbps": loads_mbps.get(VOICE, 0.0),
        "video_mbps": loads_mbps.get(VIDEO, 0.0),
        "data_mbps": loads_mbps.get(DATA, 0.0),
        "offered_mbps": round(s.offered_mbps, 6),
        "mac_throughput_mbps": round(s.mac_throughput_mbps, 6),
        "jain": round(s.jain, 6), "jain_defined": int(s.jain_defined),
        "transmitted_bytes": s.total_transmitted, "arrived_bytes": s.total_arrived,
        "voice_tx_bytes": s.transmitted[VOICE], "video_tx_bytes": s.transmitted[VIDEO],
        "data_tx_bytes": s.transmitted[DATA],
        "voice_drop_bytes": s.deadline_dropped[VOICE],
        "video_drop_bytes": s.deadline_dropped[VIDEO],
        "data_drop_bytes": s.deadline_dropped[DATA],
        "overflow_drop_bytes": sum(s.overflow_dropped.values()),
        "voice_delivered_pkts": s.delivered_packets[VOICE],
        "video_delivered_pkts": s.delivered_packets[VIDEO],
        "data_delivered_pkts": s.delivered_packets[DATA],
        "voice_dropped_pkts": s.dropped_packets[VOICE],
        "video_dropped_pkts": s.dropped_packets[VIDEO],
        "worst_ue": s.worst_ue,
        "worst_voice_delivered": s.worst_ue_delivered[VOICE],
        "worst_video_delivered": s.worst_ue_delivered[VIDEO],
        "worst_data_delivered": s.worst_ue_delivered[DATA],
        "voice_delay_mean_ms": round(s.delay_mean_ms[VOICE], 4),
        "voice_delay_max_ms": s.delay_max_ms[VOICE],
        "video_delay_mean_ms": round(s.delay_mean_ms[VIDEO], 4),
        "video_delay_max_ms": s.delay_max_ms[VIDEO],
        "conservation_ok": int(s.conservation_ok),
    }


def write_summary_csv(path, rows):
    """Write `summary_row` dicts, a non-empty list; the header is the first
    row's keys, in order."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def write_trace_csv(path, trace_rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tti", "dropped_bytes", "granted_bytes",
                         "transmitted_bytes", "scheduled"])
        for row in trace_rows:
            writer.writerow([row["tti"], row["dropped_bytes"], row["granted_bytes"],
                             row["transmitted_bytes"],
                             ";".join(f"{rc}:{ue}" for rc, ue in row["scheduled"])])
