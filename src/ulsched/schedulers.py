"""Per-TTI allocation policies run at the base station.

dham   - channel plus buffer aware: maximize total transmittable bytes.
darts  - dham extended with drop awareness: unscheduled users pay their
         imminent-drop byte count k, scheduled users pay the residual drop
         d = max(0, k_current - w).
dafs   - darts driven by the mixed-traffic urgency metric.

The three policies are one assignment problem that differs only in the
int64 urgency vector k: zero for dham, the critical bytes for darts, the
mixed urgency for dafs (the engine chooses which). dispatch is the one
decision path and the only code that turns k and k_current into the
rewards w - d and the unmatched-row penalty k. It makes one call of
assignment.solve when at least as many users hold data as there are
chunks, and one per round of the surplus regime (fewer users than chunks)
on the depleted buffers otherwise. schedule_darts is a named delegate to
it.
"""

from dataclasses import dataclass

import numpy as np

from .assignment import solve
from .channel import cqi_to_bytes_per_rc


class SchedulerError(ValueError):
    pass


@dataclass(frozen=True)
class TrafficMatrixW:
    """Transmittable bytes per (UE, RC): w = min(channel capacity p, buffer b)."""

    w: np.ndarray  # (n_ue, n_rc) bytes
    p: np.ndarray  # (n_ue, n_rc) bytes
    b: np.ndarray  # (n_ue,) bytes

    @property
    def n_ues(self) -> int:
        return self.w.shape[0]

    @property
    def n_rcs(self) -> int:
        return self.w.shape[1]


@dataclass(frozen=True)
class SchedulerDecision:
    rc_to_ue: tuple          # per RC: scheduled UE index or None
    ue_rcs: tuple            # per UE: tuple of RCs granted (surplus mode may give several)
    grants: np.ndarray       # per UE: granted bytes this TTI
    objective: int           # value of the optimization actually solved

    @property
    def total_grant(self) -> int:
        return int(self.grants.sum())


def build_traffic_matrix(cqi_grid, b) -> TrafficMatrixW:
    """w_ij = min(p_ij, b_i): p from the CQI-to-bytes map, b the buffered
    bytes per UE."""
    grid = np.asarray(cqi_grid)
    if grid.ndim != 2:
        raise SchedulerError(f"CQI grid must be 2-D, got shape {grid.shape}")
    p = cqi_to_bytes_per_rc(grid)
    b = np.asarray(b, dtype=np.int64)
    if b.shape != (grid.shape[0],):
        raise SchedulerError(f"need one buffer size per UE, got {b.shape}")
    w = np.minimum(p, b[:, None])
    return TrafficMatrixW(w=w, p=p, b=b)


def _k_vector(k, n_ues):
    """k as an int64 vector with one entry per UE; None means all zero."""
    if k is None:
        return np.zeros(n_ues, dtype=np.int64)
    k = np.asarray(k, dtype=np.int64)
    if k.shape != (n_ues,):
        raise SchedulerError(f"need one urgency entry per UE, got {k.shape}")
    return k


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------

def schedule_iterative_surplus(W: TrafficMatrixW, k=None) -> SchedulerDecision:
    """Surplus-resource regime (n_ue < n_rc): repeat single-RC assignment
    rounds over the UEs that still hold data until every RC is granted or
    all buffers empty; each round takes at least one RC. Round 1 solves
    W.w's rows, later rounds min(p, the bytes left) on the UEs and RCs still
    in play. The drop matrix is omitted; k shrinks by the bytes granted
    (floor zero). A round with fewer active users than remaining RCs is
    solved on the real users alone; the zero-buffer dummy users that would
    square it only enter solve through their implied duals.
    """
    n, m = W.n_ues, W.n_rcs
    k = _k_vector(k, n).tolist()
    b = W.b.tolist()
    first = (W.b > 0).nonzero()[0]
    active = first.tolist()
    remaining = list(range(m))
    grants = [0] * n
    ue_rcs = [[] for _ in range(n)]
    rc_to_ue = [None] * m
    w_round = W.w.take(first, 0)    # w = min(p, b) is round 1's matrix
    while active and remaining:
        cols, _obj = solve(w_round, [k[ue] for ue in active])
        for ue, c, row in zip(active, cols, w_round.tolist()):
            got = row[c] if c >= 0 else 0
            if got <= 0:
                continue
            rc = remaining[c]
            rc_to_ue[rc] = ue
            ue_rcs[ue].append(rc)
            grants[ue] += got
            b[ue] -= got
            k[ue] = max(0, k[ue] - got)
        left = [rc for rc in remaining if rc_to_ue[rc] is None]
        if len(left) == len(remaining):
            break
        remaining = left
        active = [ue for ue in active if b[ue] > 0]
        if active and remaining:
            w_round = np.minimum(W.p.take(active, 0).take(remaining, 1),
                                 np.array([b[ue] for ue in active])[:, None])
    # a UE granted nothing still holds its starting buffer
    unscheduled_k = sum(k[ue] for ue in first.tolist() if not ue_rcs[ue])
    return SchedulerDecision(tuple(rc_to_ue), tuple(map(tuple, ue_rcs)),
                             np.array(grants, dtype=np.int64), int(sum(grants) - unscheduled_k))


POLICIES = ("dham", "darts", "dafs")


def dispatch(policy: str, W: TrafficMatrixW, k=None, k_current=None) -> SchedulerDecision:
    """Run one TTI decision from the int64 urgency vectors k (unmatched-row
    penalty) and k_current (defaults to k; the residual drops use the
    current-TTI critical bytes only, as history bytes are already gone). dham
    ignores both. Users with empty buffers take no part (their k is treated as
    zero: with no bytes buffered nothing can drop this TTI, and an idle user
    must not consume a resource chunk just to dodge a history penalty). With
    fewer active users than RCs the iterative surplus regime runs; otherwise
    one solve over the active users, penalty-padded or square, maximizes
    sum(w_ij - d_ij) over the granted pairs minus k_i for each active user
    left out, with d_ij = max(0, k_current_i - w_ij), i.e. rewards
    min(w_ij, 2 w_ij - k_current_i). Each such user gets at most one RC."""
    if policy not in POLICIES:
        raise SchedulerError(f"unknown policy {policy!r}")
    n, m = W.w.shape
    if policy == "dham":
        k = k_current = None
    k = _k_vector(k, n)
    k_current = k if k_current is None else _k_vector(k_current, n)
    active = (W.b > 0).nonzero()[0]
    if len(active) < m:
        return schedule_iterative_surplus(W, k)
    rewards = np.minimum(W.w, 2 * W.w - k_current[:, None])
    if len(active) < n:
        rewards, k = rewards.take(active, 0), k.take(active)
    cols, obj = solve(rewards, k)
    rc_to_ue = [None] * m
    ue_rcs = [()] * n
    grants = [0] * n
    for ue, c in zip(active.tolist(), cols):
        if c >= 0:
            rc_to_ue[c] = ue
            ue_rcs[ue] = (c,)
            grants[ue] = W.w.item(ue, c)
    return SchedulerDecision(tuple(rc_to_ue), tuple(ue_rcs),
                             np.array(grants, dtype=np.int64), int(obj))


def schedule_darts(W: TrafficMatrixW, k) -> SchedulerDecision:
    """dispatch("darts", W, k). It stays because perfbench/run.py's
    darts_grid calls it by name."""
    return dispatch("darts", W, k)
