"""Deterministic three-user, single-chunk walkthrough scenarios with known
outcomes, used as golden traces for the schedulers.

Setup: three users share one resource chunk for five slots. CQIs stay fixed
at (7, 12, 6), so per-chunk capacities are (504, 756, 252) bytes. Initial
buffers are (400, 300, 260) bytes and every user receives 50 fresh bytes per
slot. In the drop-aware variants, bytes start crossing the delay deadline on
a fixed schedule: (50, 100, 255) bytes in the first slot, then 20 bytes per
slot per user, counted only against bytes that have sat in the buffer for at
least two slots (fresher bytes cannot be near a deadline yet).

Three scenarios:
  table3: plain buffer evolution under dham, no deadline drops.
  table4: dham with deadline drops - totals 1010 transmitted / 420 dropped.
  table5: darts with deadline drops - totals 1192 transmitted / 238 dropped.
The per-user what-if objectives in the first slot (45, -5, 102, choosing
user 3) are exposed as the `sec2-objective` scenario.
"""

from dataclasses import dataclass

import numpy as np

from .schedulers import build_traffic_matrix, dispatch

CQIS = (7, 12, 6)
INITIAL_BUFFERS = (400, 300, 260)
ARRIVAL_BYTES = 50
FIRST_SLOT_CRITICAL = (50, 100, 255)
CRITICAL_PER_SLOT = 20
N_SLOTS = 5
_OLD_TAG = -10  # initial bytes are old enough to be deadline-eligible

EXPECTED = {
    "table3": {
        "buffers": [[400, 50, 100, 150, 200],
                    [300, 350, 50, 100, 150],
                    [260, 310, 360, 158, 50]],
        "scheduled": [0, 1, 2, 2, 0],
        "transmitted": [400, 350, 252, 158, 200],
    },
    "table4": {
        "buffers": [[400, 50, 100, 50, 100],
                    [300, 250, 50, 100, 130],
                    [260, 55, 100, 130, 50]],
        "critical": [[50, 0, 20, 0, 20],
                     [100, 20, 0, 20, 20],
                     [255, 5, 20, 20, 0]],
        "scheduled": [0, 1, 0, 2, 1],
        "transmitted": [400, 250, 100, 130, 130],
        "dropped": [355, 5, 20, 20, 20],
        "total_transmitted": 1010,
        "total_dropped": 420,
    },
    "table5": {
        "buffers": [[400, 400, 50, 100, 130],
                    [300, 250, 280, 50, 100],
                    [260, 55, 100, 130, 50]],
        "critical": [[50, 20, 0, 20, 20],
                     [100, 20, 20, 0, 20],
                     [255, 5, 20, 20, 0]],
        "scheduled": [2, 0, 1, 2, 0],
        "transmitted": [252, 400, 280, 130, 130],
        "dropped": [153, 25, 20, 20, 20],
        "total_transmitted": 1192,
        "total_dropped": 238,
    },
    "sec2-objective": {"values": (45, -5, 102), "selected": 2},
}
# walkthrough scenario -> (policy, with deadline drops)
SCENARIOS = {"table3": ("dham", False), "table4": ("dham", True), "table5": ("darts", True)}


@dataclass
class WalkthroughTrace:
    buffers: list       # [ue][slot] buffered bytes at slot start
    critical: list      # [ue][slot] bytes crossing the deadline that slot
    scheduled: list     # [slot] chosen ue
    transmitted: list   # [slot] bytes sent
    dropped: list       # [slot] bytes dropped

    @property
    def total_transmitted(self) -> int:
        return sum(self.transmitted)

    @property
    def total_dropped(self) -> int:
        return sum(self.dropped)


def _drain_oldest(chunks, amount: int) -> int:
    left = amount
    while left and chunks:
        tag, size = chunks[0]
        take = min(size, left)
        left -= take
        if take == size:
            chunks.pop(0)
        else:
            chunks[0] = (tag, size - take)
    return amount - left


def run_walkthrough(policy: str, with_drops: bool = True) -> WalkthroughTrace:
    """Replay the five-slot scenario under the real scheduler stack."""
    grid = np.array([list(CQIS)]).T  # (3 ues, 1 rc)
    chunks = [[(_OLD_TAG, b)] for b in INITIAL_BUFFERS]
    n = len(chunks)
    buffers = [[] for _ in range(n)]
    critical = [[] for _ in range(n)]
    scheduled, transmitted, dropped = [], [], []
    for slot in range(1, N_SLOTS + 1):
        b = [sum(size for _, size in chunks[ue]) for ue in range(n)]
        if with_drops:
            k = []
            for ue in range(n):
                eligible = sum(size for tag, size in chunks[ue] if tag <= slot - 2)
                cap = FIRST_SLOT_CRITICAL[ue] if slot == 1 else CRITICAL_PER_SLOT
                k.append(min(cap, eligible))
        else:
            k = [0] * n
        for ue in range(n):
            buffers[ue].append(b[ue])
            critical[ue].append(k[ue])
        W = build_traffic_matrix(grid, b)
        decision = dispatch(policy, W, np.array(k, dtype=np.int64))
        chosen = decision.rc_to_ue[0]
        grant = int(decision.grants[chosen]) if chosen is not None else 0
        sent = _drain_oldest(chunks[chosen], grant) if chosen is not None else 0
        slot_drop = 0
        for ue in range(n):
            residual = k[ue] - min(sent, k[ue]) if ue == chosen else k[ue]
            slot_drop += _drain_oldest(chunks[ue], residual)
        for ue in range(n):
            chunks[ue].append((slot, ARRIVAL_BYTES))
        scheduled.append(chosen)
        transmitted.append(sent)
        dropped.append(slot_drop)
    return WalkthroughTrace(
        buffers=buffers, critical=critical,
        scheduled=scheduled, transmitted=transmitted, dropped=dropped)


def first_slot_objectives():
    """What-if objective for scheduling each user in the first slot, in the
    walkthrough's printed form: own transmittable bytes minus the other
    users' imminent drops (the chosen user's own residual drop is left out
    of the printout; the scheduler itself accounts for it)."""
    W = build_traffic_matrix(np.array([list(CQIS)]).T, list(INITIAL_BUFFERS))
    w = W.w[:, 0].tolist()
    k = FIRST_SLOT_CRITICAL
    total_k = sum(k)
    values = tuple(w[i] - (total_k - k[i]) for i in range(len(w)))
    decision = dispatch("darts", W, np.array(k, dtype=np.int64))
    return values, decision.rc_to_ue[0]


def run_scenario(name: str) -> WalkthroughTrace:
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}")
    return run_walkthrough(*SCENARIOS[name])


def verify_scenario(name: str):
    """Compare a replay against the frozen expectations, field by field.
    Returns (trace_or_values, list of mismatch descriptions)."""
    want = EXPECTED[name]
    if name == "sec2-objective":
        result = first_slot_objectives()
        got = dict(zip(("values", "selected"), result))
    else:
        result = run_scenario(name)
        got = {key: getattr(result, key) for key in want}
    return result, [f"{key} {got[key]} != {value}"
                    for key, value in want.items() if got[key] != value]


def format_trace(tr: WalkthroughTrace) -> str:
    """Render a walkthrough in the familiar table shape."""
    lines = []
    header = "UE  " + "".join(f"{f'slot{slot}':>8}" for slot in range(1, N_SLOTS + 1))
    lines.append(header)
    with_k = any(any(row) for row in tr.critical)
    for ue in range(len(tr.buffers)):
        cells = []
        for slot in range(N_SLOTS):
            if with_k:
                cells.append(f"{tr.buffers[ue][slot]}/{tr.critical[ue][slot]}")
            else:
                cells.append(str(tr.buffers[ue][slot]))
        lines.append(f"{ue + 1:<3} " + "".join(f"{c:>8}" for c in cells))
    lines.append("scheduled   " + "".join(f"{ue + 1:>8}" for ue in tr.scheduled))
    lines.append("transmitted " + "".join(f"{x:>8}" for x in tr.transmitted))
    if with_k:
        lines.append("dropped     " + "".join(f"{x:>8}" for x in tr.dropped))
        lines.append(f"Total Transmitted {tr.total_transmitted} / Total Drop {tr.total_dropped}")
    else:
        lines.append(f"Total Transmitted {tr.total_transmitted}")
    return "\n".join(lines)
