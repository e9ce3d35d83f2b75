"""Multi-class traffic: voice (two-state Markov), near-real-time video
(frame bursts with truncated-Pareto sizes), self-similar data (aggregated
Pareto on/off sources), plus the per-UE deadline-aware buffers, whose
lifetime counters are the run's ledger of bytes and packet outcomes.

All byte accounting is integral. Delays are measured in TTIs (1 ms).

Every source has an integer `due`: the first TTI whose `step` can draw from
the rng, change the source's state or emit a packet. Time starts at TTI 0
and TTIs are stepped in increasing order. A caller may skip any TTI before
`due`, but must not skip `due` itself; stepping every TTI stays correct and
yields the same packets, stamps and draws. A voice source is due at every
TTI. A TTI an on/off source skips may still have bookkeeping to do (a credit
to accrue, a countdown to run): its next step replays it, one TTI at a time
where float addition would otherwise round differently, before its own TTI.
"""

import functools
import itertools
import math
import operator
import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

VOICE = "voice"
VIDEO = "video"
DATA = "data"
CLASSES = (VOICE, VIDEO, DATA)

VOICE_DEADLINE_MS = 50
VIDEO_DEADLINE_MS = 150


class TrafficError(ValueError):
    pass


@dataclass(slots=True)
class Packet:
    cls: str
    size: int
    arrival_tti: int
    remaining: int


def make_packet(cls, size, arrival_tti):
    size = int(size)
    return Packet(cls, size, int(arrival_tti), size)  # positional: half the cost


# ---------------------------------------------------------------------------
# truncated Pareto
# ---------------------------------------------------------------------------

def truncated_pareto_sample(scale, shape, maximum, rng, size=None):
    """Pareto(scale, shape) with the mass above `maximum` collapsed onto
    `maximum`; samples lie in [scale, maximum]."""
    if scale <= 0 or shape <= 1 or maximum <= scale:
        raise TrafficError(
            f"need scale > 0, shape > 1, maximum > scale; got ({scale}, {shape}, {maximum})")
    if size is None:
        # rng.random() is exactly uniform(0.0, 1.0) and draws the same
        # stream. np.power must stay: Python's ** and math.pow differ from it
        # in the last bit (on 2,575 of 50,000 inputs on an x86-64 Xeon with
        # numpy 2.4), which would change the realization.
        raw = scale * np.power(1.0 - rng.random(), -1.0 / shape)
        return float(raw if raw < maximum else maximum)
    u = rng.uniform(0.0, 1.0, size=size)
    return np.minimum(scale * np.power(1.0 - u, -1.0 / shape), maximum)


def truncated_pareto_mean(scale, shape, maximum) -> float:
    """Closed-form mean of the sampler above: E[min(X, m)] for X Pareto."""
    return scale + (scale ** shape) * (maximum ** (1 - shape) - scale ** (1 - shape)) / (1 - shape)


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------

NEVER = 2 ** 62          # the `due` of a source that never emits
_UNIFORM_BLOCK = 16      # uniforms per voice rng call; every UE holds up to one block
_LOOKAHEAD = 16          # TTIs an ON on/off source looks ahead, at most, to find its `due`


class VoiceSource:
    """Two-state Markov VoIP source: fixed-size packets every generation
    interval while talking, SID packets on a slower clock while silent.
    Sojourn times are geometric with the configured means (in ms).

    Pacing credit accrues per TTI, so every TTI is due. The per-TTI state
    flip tests take their uniforms from blocks of `rng.random(_UNIFORM_BLOCK)`,
    which is the same stream as one `rng.random()` per test."""

    def __init__(self, rng, interval_ms=20.0, packet_bytes=40, sid_bytes=15,
                 sid_interval_ms=160.0, talk_mean_ms=3000.0, silence_mean_ms=3000.0,
                 start_talking=True):
        if interval_ms <= 0 or sid_interval_ms <= 0:
            raise TrafficError("generation intervals must be positive")
        self.rng = rng
        self.interval_ms = interval_ms
        self.packet_bytes = int(packet_bytes)   # step skips make_packet's int()
        self.sid_bytes = int(sid_bytes)
        self.sid_interval_ms = sid_interval_ms
        self.p_leave_talk = 1.0 / talk_mean_ms if talk_mean_ms > 0 else 0.0
        self.p_leave_silence = 1.0 / silence_mean_ms if silence_mean_ms > 0 else 0.0
        self.talking = start_talking
        # separate pacing credits that freeze across state changes, so the
        # long-run rate equals talk_time/interval + silence_time/sid_interval
        self._talk_credit = interval_ms - 1.0
        self._sid_credit = sid_interval_ms - 1.0
        self._uniforms = itertools.chain.from_iterable(
            iter(lambda: rng.random(_UNIFORM_BLOCK).tolist(), None))
        self.due = 0

    def step(self, tti: int):
        if tti > self.due:
            raise TrafficError(f"voice source stepped at TTI {tti}, past its due TTI {self.due}")
        self.due = tti + 1
        p_leave = self.p_leave_talk if self.talking else self.p_leave_silence
        if p_leave and next(self._uniforms) < p_leave:
            self.talking = not self.talking
        out = []
        if self.talking:
            self._talk_credit += 1.0
            while self._talk_credit >= self.interval_ms:
                self._talk_credit -= self.interval_ms
                out.append(Packet(VOICE, self.packet_bytes, tti, self.packet_bytes))
        else:
            self._sid_credit += 1.0
            while self._sid_credit >= self.sid_interval_ms:
                self._sid_credit -= self.sid_interval_ms
                out.append(Packet(VOICE, self.sid_bytes, tti, self.sid_bytes))
        return out

    def mean_rate_bps(self) -> float:
        """Stationary long-run rate from the two-state chain."""
        lt, ls = self.p_leave_talk, self.p_leave_silence
        if lt == 0 and ls == 0:
            pi_talk = 1.0 if self.talking else 0.0
        else:
            pi_talk = ls / (lt + ls)
        talk_rate = self.packet_bytes * 8 * 1000.0 / self.interval_ms
        sid_rate = self.sid_bytes * 8 * 1000.0 / self.sid_interval_ms
        return pi_talk * talk_rate + (1.0 - pi_talk) * sid_rate


class VideoSource:
    """Near-real-time video: frames on an exact-rate clock, each frame a
    burst of packets with truncated-Pareto sizes and inter-arrival times.
    Undersized frames are scaled up to the minimum frame size. The source is
    due at the TTI holding its next frame start or pending packet."""

    def __init__(self, rng, fps=15.0, packets_per_frame=8, min_frame_bytes=1500,
                 size_scale=40.0, size_shape=1.2, size_max=250.0,
                 ia_scale_ms=2.5, ia_shape=1.2, ia_max_ms=12.5):
        if fps <= 0:
            raise TrafficError("fps must be positive")
        self.rng = rng
        self.fps = fps
        self.frame_period_ms = 1000.0 / fps
        self.packets_per_frame = packets_per_frame
        self.min_frame_bytes = min_frame_bytes
        self.size_params = (size_scale, size_shape, size_max)
        self.ia_params = (ia_scale_ms, ia_shape, ia_max_ms)
        self._next_frame_ms = 0.0
        self._pending = deque()  # (arrival_ms, size) within scheduled frames
        self.due = 0

    def _emit_frame(self, start_ms: float):
        sizes = truncated_pareto_sample(*self.size_params, self.rng, size=self.packets_per_frame)
        total = float(sizes.sum())
        if total < self.min_frame_bytes:
            sizes = np.ceil(sizes * (self.min_frame_bytes / total))
        sizes = np.maximum(1, np.ceil(sizes)).astype(np.int64)
        gaps = truncated_pareto_sample(*self.ia_params, self.rng, size=self.packets_per_frame)
        t = start_ms
        for size, gap in zip(sizes, gaps):
            self._pending.append((t, int(size)))
            t += float(gap)

    def step(self, tti: int):
        while self._next_frame_ms < tti + 1.0:
            self._emit_frame(self._next_frame_ms)
            self._next_frame_ms += self.frame_period_ms
        out = []
        pending = self._pending
        while pending and pending[0][0] < tti + 1.0:
            _, size = pending.popleft()
            out.append(Packet(VIDEO, size, tti, size))
        nxt = min(self._next_frame_ms, pending[0][0]) if pending else self._next_frame_ms
        self.due = math.floor(nxt)
        return out


@functools.cache
def estimate_mean_frame_bytes(packets_per_frame, min_frame_bytes, size_scale,
                              size_shape, size_max, n_frames=4000) -> float:
    """Monte-Carlo mean frame size under the upscale-to-minimum rule
    (seeded, cached); used to translate offered video load into fps. The
    frames are drawn in order, in blocks of at most 2**16 packet sizes, so
    a long frame takes time but no more memory."""
    rng = np.random.default_rng(20240901)
    rows = max(1, 2 ** 16 // packets_per_frame)
    frames = []
    for start in range(0, n_frames, rows):
        sizes = truncated_pareto_sample(size_scale, size_shape, size_max, rng,
                                        size=(min(rows, n_frames - start), packets_per_frame))
        scale = np.maximum(1.0, min_frame_bytes / sizes.sum(axis=1))
        frames.append(np.ceil(sizes * scale[:, None]).sum(axis=1))
    return float(np.concatenate(frames).mean())


class OnOffSource:
    """Single Pareto on/off source: bytes accrue at `rate` during ON periods
    and are emitted as packets with uniform payload sizes. The partial-packet
    credit persists across bursts so the long-run rate is exact.

    A TTI whose step neither ends the period nor, while ON, lifts the credit
    to `_next_size` draws nothing and emits nothing, so it is not due. Such a
    step subtracts 1.0 from `_remaining` and, while ON, adds `rate` to
    `_credit`. The next `step_ms` replays the skipped TTIs: it subtracts them
    from `_remaining` at once, which is exact because subtracting 1.0 from a
    float of at least 1 is exact, and adds `rate` once per TTI, because float
    addition is not associative and k * rate could differ in the last bit."""

    def __init__(self, rng, rate_bytes_per_ms, on_mean_ms, off_mean_ms,
                 on_shape=1.4, off_shape=1.2, cap_factor=50.0,
                 payload_min=46, payload_max=1500):
        self.rng = rng
        self.rate = rate_bytes_per_ms
        self.on_shape = on_shape
        self.off_shape = off_shape
        self.on_scale = _pareto_scale_for_mean(on_mean_ms, on_shape, cap_factor)
        self.off_scale = _pareto_scale_for_mean(off_mean_ms, off_shape, cap_factor)
        self.on_cap = self.on_scale * cap_factor
        self.off_cap = self.off_scale * cap_factor
        self.payload_min = payload_min
        self.payload_max = payload_max
        self.on = bool(rng.integers(0, 2))
        self._remaining = self._draw_duration()
        self._credit = 0.0
        self._next_size = self._draw_size()
        self._set_due(0)

    def _draw_duration(self) -> float:
        if self.on:
            return truncated_pareto_sample(self.on_scale, self.on_shape, self.on_cap, self.rng)
        return truncated_pareto_sample(self.off_scale, self.off_shape, self.off_cap, self.rng)

    def _draw_size(self) -> int:
        return int(self.rng.integers(self.payload_min, self.payload_max + 1))

    def _set_due(self, now: int) -> None:
        """`now` is the next TTI to step. The step at now + j only counts down
        while (_remaining - j) - 1.0 > 1e-12, which holds for the first
        `left` values of j; while ON it must also keep the credit plus j + 1
        additions of `rate` below `_next_size`, which the same additions
        check, over at most _LOOKAHEAD TTIs. `due` is now + the first j that
        fails."""
        self._now = now
        r = self._remaining
        left = 0
        if r - 1.0 > 1e-12:
            whole = int(r)
            left = whole - 1 if r - whole <= 1e-12 else whole
        if self.on:
            credit, rate, size = self._credit, self.rate, self._next_size
            limit = min(left, _LOOKAHEAD)
            for left in range(limit):
                credit += rate
                if credit >= size:
                    break
            else:
                left = limit
        self.due = now + left

    def step_ms(self, tti: int) -> None:
        """Advance over TTI `tti`, first replaying the TTIs skipped since the
        last step, and add the credit accrued while ON."""
        if tti > self._now:
            if tti > self.due:
                raise TrafficError(f"on/off source stepped at TTI {tti}, "
                                   f"past its due TTI {self.due}")
            skipped = tti - self._now
            self._remaining -= skipped
            if self.on:
                credit, rate = self._credit, self.rate
                for _ in range(skipped):
                    credit += rate
                self._credit = credit
        t_left = 1.0
        accrued = 0.0
        while t_left > 1e-12:
            dt = min(t_left, self._remaining)
            if self.on:
                accrued += self.rate * dt
            self._remaining -= dt
            t_left -= dt
            if self._remaining <= 1e-12:
                self.on = not self.on
                self._remaining = self._draw_duration()
        self._credit += accrued
        self._set_due(tti + 1)

    def take_packets(self, tti: int):
        out = []
        while self._credit >= self._next_size:
            self._credit -= self._next_size
            out.append(Packet(DATA, self._next_size, tti, self._next_size))
            self._next_size = self._draw_size()
        return out


def _pareto_scale_for_mean(mean, shape, cap_factor) -> float:
    """Invert truncated_pareto_mean for cap = cap_factor * scale."""
    if mean <= 0:
        raise TrafficError("duration mean must be positive")
    return mean / truncated_pareto_mean(1.0, shape, cap_factor)


class DataSource:
    """Self-similar data: aggregate of independent on/off sources sharing one
    rng. A step advances only the sources that are due, in source order;
    `due` is their minimum. The shared stream is unchanged by the skipping:
    an on/off source draws only when it emits (the next payload size) or
    ends a period (the next duration), and neither can happen at a TTI it
    skips. So the draws happen at the same TTIs as when every source steps
    every TTI, and within a TTI in source order."""

    def __init__(self, rng, offered_bps, n_sources=8, source_rate_bps=200_000.0,
                 on_mean_ms=6.0, on_shape=1.4, off_shape=1.2, cap_factor=50.0,
                 payload_min=46, payload_max=1500):
        if offered_bps < 0:
            raise TrafficError("offered load must be nonnegative")
        self.sources = []
        self.due = NEVER
        if offered_bps == 0 or n_sources == 0:
            return
        per_source = offered_bps / n_sources
        # load scaling varies the off-time mean at a fixed peak; when the
        # offered load would push the duty cycle past 1/2 the peak rises too
        source_rate_bps = max(source_rate_bps, 2.0 * per_source)
        duty = per_source / source_rate_bps
        off_mean = on_mean_ms * (1.0 / duty - 1.0)
        rate_bytes_per_ms = source_rate_bps / 8.0 / 1000.0
        for _ in range(n_sources):
            self.sources.append(OnOffSource(
                rng, rate_bytes_per_ms, on_mean_ms, off_mean,
                on_shape=on_shape, off_shape=off_shape, cap_factor=cap_factor,
                payload_min=payload_min, payload_max=payload_max))
        self.due = min(src.due for src in self.sources)

    def step(self, tti: int):
        out = []
        due = NEVER
        for src in self.sources:
            if src.due <= tti:
                src.step_ms(tti)
                out.extend(src.take_packets(tti))
            if src.due < due:
                due = src.due
        self.due = due
        return out


# ---------------------------------------------------------------------------
# per-UE buffer
# ---------------------------------------------------------------------------

class UeBuffer:
    """Three per-class FIFO queues with byte capacity, deadline enforcement
    for the real-time classes, and drop-history tracking. Only its methods
    write its ledger: the lifetime counters and `total`. `due` is the
    first TTI at which `age_and_drop` can report critical bytes, drop, or let
    a drop leave the history window; a send can only make it early (safe)."""

    def __init__(self, capacity=65536, threshold=None,
                 voice_deadline=VOICE_DEADLINE_MS, video_deadline=VIDEO_DEADLINE_MS,
                 history_window=1000):
        if threshold is None:
            threshold = (capacity * 3) // 4
        if threshold >= capacity:
            raise TrafficError("buffer_threshold must be smaller than capacity")
        self.capacity = capacity
        self.threshold = threshold
        self.deadlines = {VOICE: voice_deadline, VIDEO: video_deadline}
        self.queues = {cls: deque() for cls in CLASSES}
        self.total = 0
        self.history_window = history_window
        self.history = deque()  # (tti, bytes) of each nonzero drop in the window
        self.history_sum = 0
        self.due = NEVER
        # lifetime byte counters for the conservation identity, then the
        # per-class packet outcomes
        self.arrived = {cls: 0 for cls in CLASSES}
        self.transmitted = {cls: 0 for cls in CLASSES}
        self.deadline_dropped = {cls: 0 for cls in CLASSES}
        self.overflow_dropped = {cls: 0 for cls in CLASSES}
        self.deadline_dropped_pkts = {cls: 0 for cls in CLASSES}
        self.delivered_pkts = {cls: 0 for cls in CLASSES}

    def enqueue(self, packets) -> None:
        """Append packets to their class FIFOs; tail-drop on overflow."""
        arrived, queues, capacity = self.arrived, self.queues, self.capacity
        total = self.total
        for p in packets:
            cls, size = p.cls, p.size
            arrived[cls] += size
            if total + size > capacity:
                self.overflow_dropped[cls] += size
                continue
            q = queues[cls]
            if not q and cls != DATA:  # an older head already bounds `due`
                due = p.arrival_tti + self.deadlines[cls]
                if due < self.due:
                    self.due = due
            q.append(p)
            total += size
        self.total = total

    def age_and_drop(self, tti: int) -> tuple[int, int]:
        """Remove every real-time packet past its class deadline, record the
        TTI's drops in the history and let drops older than the window go;
        call before scheduling at every TTI t with `due <= t`.
        In the same pass over each queue head, sum the remaining bytes of the
        packets at exactly the deadline: they cross it by the next TTI.
        Returns (dropped, critical) bytes over both real-time classes."""
        dropped = critical = 0
        due = NEVER
        for cls, deadline in self.deadlines.items():
            q = self.queues[cls]
            gone = 0
            while q and tti - q[0].arrival_tti > deadline:
                gone += q.popleft().remaining
                self.deadline_dropped_pkts[cls] += 1
            if gone:
                self.deadline_dropped[cls] += gone
                self.total -= gone
                dropped += gone
            for p in q:
                if tti - p.arrival_tti < deadline:
                    break
                critical += p.remaining
            if q:
                due = min(due, q[0].arrival_tti + deadline)
        history, window = self.history, self.history_window
        while history and history[0][0] <= tti - window:
            self.history_sum -= history.popleft()[1]
        if dropped:
            history.append((tti, dropped))
            self.history_sum += dropped
        self.due = min(due, history[0][0] + window) if history else due
        return dropped, critical

    def send(self, packets, grant: int, tti: int) -> list:
        """Spend `grant` bytes on the buffered `packets` in the order given:
        whole packets until the grant runs short, then a fragment of the next
        one, which keeps its queue place and arrival (its delay clock runs
        on). A grant <= 0 sends nothing. Fully sent packets leave their
        queues and count in `delivered_pkts`; returns their (cls, size,
        delay_ms), in send order."""
        grant = budget = int(grant)
        delivered = []
        done = {}  # class -> packets fully sent, still queued
        transmitted = self.transmitted
        for p in packets:
            if budget <= 0:
                break
            take = p.remaining if p.remaining <= budget else budget
            budget -= take
            p.remaining -= take
            transmitted[p.cls] += take
            if p.remaining == 0:
                done[p.cls] = done.get(p.cls, 0) + 1
                delivered.append((p.cls, p.size, tti - p.arrival_tti))
        self.total -= grant - budget
        for cls, n in done.items():
            self.delivered_pkts[cls] += n
            q = self.queues[cls]
            while n and q[0].remaining == 0:
                q.popleft()
                n -= 1
            if n:  # a non-FIFO order left a sent packet behind the head
                self.queues[cls] = deque(filter(operator.attrgetter("remaining"), q))
        return delivered

    def send_fifo(self, grant: int, tti: int) -> list:
        """`send` in the order voice, video, then data, FIFO within each
        class, in one pass over the queue heads: each fully sent packet
        leaves its queue as it is reached, and a fragment stays at the head.
        The sent bytes and packets are booked once per class."""
        grant = budget = int(grant)
        delivered = []
        for cls in CLASSES:
            if budget <= 0:
                break
            q = self.queues[cls]
            if not q:
                continue
            left, n = budget, 0
            while q:
                p = q[0]
                rem = p.remaining
                if rem > left:
                    p.remaining = rem - left
                    left = 0
                    break
                q.popleft()
                p.remaining = 0
                left -= rem
                n += 1
                delivered.append((cls, p.size, tti - p.arrival_tti))
                if not left:
                    break
            self.transmitted[cls] += budget - left
            self.delivered_pkts[cls] += n
            budget = left
        self.total -= grant - budget
        return delivered

    @property
    def occupancy(self) -> dict:
        """Queued bytes per class: the remaining bytes of its queue."""
        return {cls: sum(p.remaining for p in q) for cls, q in self.queues.items()}

    def conservation_holds(self) -> bool:
        """Per class, arrived = sent + dropped + queued; `total` = all queued."""
        occupancy = self.occupancy
        return self.total == sum(occupancy.values()) and all(
            self.arrived[cls] == self.transmitted[cls] + self.deadline_dropped[cls]
            + self.overflow_dropped[cls] + occupancy[cls] for cls in CLASSES)


# ---------------------------------------------------------------------------
# arrival trace fixture
# ---------------------------------------------------------------------------

# U6 is the longest class name plus one: numpy cuts an over-long token to six
# characters, which no class name equals
_ARRIVAL_FIELDS = [("tti", np.int64), ("ue", np.int64), ("cls", "U6"), ("size", np.int64)]
_CLASS_NAMES = np.array(CLASSES, dtype=object)  # rows share the CLASSES strings


def load_arrival_trace(path, n_ues):
    """Deterministic arrivals for n_ues UEs: lines of `tti ue class size_bytes`.
    Returns one list per UE of its (tti, cls, size) rows, sorted by TTI; the
    rows of one TTI keep their file order.

    numpy parses the file in one pass; a file it rejects, or whose values
    fail the checks, is re-read by `_read_arrival_lines`, which alone raises,
    naming the first bad `path:line`, and alone reads what only int() and
    str.split accept (`#` lines, `0_7`, non-ASCII digits, TTIs past int64).
    A NUL goes to it too: a numpy text column drops trailing NULs."""
    with open(path) as fh, warnings.catch_warnings():
        warnings.simplefilter("error")  # an empty file only warns
        try:
            nul = "\x00" in fh.read()
            fh.seek(0)
            rows = None if nul else np.loadtxt(fh, dtype=_ARRIVAL_FIELDS, ndmin=1, comments=None)
        except (ValueError, Warning):  # UnicodeDecodeError is a ValueError
            rows = None
    if rows is None:
        return _read_arrival_lines(path, n_ues)
    tti, ue, size = rows["tti"], rows["ue"], rows["size"]
    kind = np.select([rows["cls"] == cls for cls in CLASSES], range(len(CLASSES)), -1)
    if tti.min() < 0 or ue.min() < 0 or ue.max() >= n_ues or size.min() <= 0 or kind.min() < 0:
        return _read_arrival_lines(path, n_ues)
    order = np.lexsort((tti, ue))  # stable: by UE, then TTI, then file order
    bounds = np.searchsorted(ue[order], np.arange(n_ues + 1)).tolist()
    tti, cls, size = tti[order], _CLASS_NAMES[kind[order]], size[order]
    del rows, ue, kind, order  # the parse would otherwise outlive the lists: the peak
    return [list(zip(tti[lo:hi].tolist(), cls[lo:hi].tolist(), size[lo:hi].tolist()))
            for lo, hi in itertools.pairwise(bounds)]


def _read_arrival_lines(path, n_ues):
    """The line-by-line reader: raises TrafficError naming `path:line`."""
    out = [[] for _ in range(n_ues)]
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if len(parts) != 4:
                raise TrafficError(f"{path}:{lineno}: expected `tti ue class size`")
            try:
                tti, ue, cls, size = int(parts[0]), int(parts[1]), parts[2], int(parts[3])
            except ValueError as err:
                raise TrafficError(f"{path}:{lineno}: {err}") from None
            if tti < 0:
                raise TrafficError(f"{path}:{lineno}: TTI {tti} must be nonnegative")
            if cls not in CLASSES:
                raise TrafficError(f"{path}:{lineno}: unknown class {cls!r}")
            if not 0 <= ue < n_ues:
                raise TrafficError(f"{path}:{lineno}: UE {ue} outside 0..{n_ues - 1}")
            if size <= 0:
                raise TrafficError(f"{path}:{lineno}: packet size {size} must be positive")
            out[ue].append((tti, cls, size))
    for rows in out:
        rows.sort(key=operator.itemgetter(0))  # stable
    return out


# ---------------------------------------------------------------------------
# offered-load calibration
# ---------------------------------------------------------------------------

def voice_talk_share(talk_mean_ms, silence_mean_ms) -> float:
    """Stationary probability of the talk state, talk/(talk + silence). A zero
    mean is a state that is never left; with both zero the source talks."""
    if talk_mean_ms == 0 or silence_mean_ms == 0:
        return 0.0 if talk_mean_ms else 1.0
    return talk_mean_ms / (talk_mean_ms + silence_mean_ms)


def voice_interval_for_load(load_bps, packet_bytes=40, sid_bytes=15,
                            sid_interval_ms=160.0, talk_mean_ms=3000.0,
                            silence_mean_ms=3000.0) -> float:
    """Generation interval giving the target long-run voice rate."""
    pi_talk = voice_talk_share(talk_mean_ms, silence_mean_ms)
    if pi_talk == 0:
        raise TrafficError("a voice source that never talks sends only SID packets")
    sid_part = (1.0 - pi_talk) * sid_bytes * 8 * 1000.0 / sid_interval_ms
    talk_budget = load_bps - sid_part
    if talk_budget <= 0:
        raise TrafficError(f"voice load {load_bps} bps is below the SID floor")
    return pi_talk * packet_bytes * 8 * 1000.0 / talk_budget


def video_fps_for_load(load_bps, packets_per_frame=8, min_frame_bytes=1500,
                       size_scale=40.0, size_shape=1.2, size_max=250.0) -> float:
    mean_frame = estimate_mean_frame_bytes(packets_per_frame, min_frame_bytes,
                                           size_scale, size_shape, size_max)
    fps = load_bps / (8.0 * mean_frame)
    if fps <= 0:
        raise TrafficError("video load must be positive")
    return fps
