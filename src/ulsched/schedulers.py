"""Per-TTI allocation policies run at the base station.

dham   - channel plus buffer aware: maximize total transmittable bytes.
darts  - dham extended with drop awareness: unscheduled users pay their
         imminent-drop byte count k, scheduled users pay the residual drop
         d = max(0, k_current - w).
dafs   - darts driven by the mixed-traffic urgency metric.

The three policies are one assignment problem that differs only in the
int64 urgency vector k: zero for dham, the critical bytes for darts, the
mixed urgency for dafs (the engine chooses which). Every decision is one
or more calls of assignment.solve: one with k as the unmatched-row penalty
when at least as many users hold data as there are chunks, and one per
round of the surplus regime (fewer users than chunks) on the depleted
buffers otherwise.
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


def compute_drop_matrix(k_current, W: TrafficMatrixW) -> np.ndarray:
    """d_ij = max(0, k_i - w_ij): bytes UE i still drops when granted RC j.
    Uses the current-TTI critical bytes only; history bytes are already gone.
    """
    k = np.asarray(k_current, dtype=np.int64)
    if k.shape != (W.n_ues,):
        raise SchedulerError(f"need one k per UE, got {k.shape}")
    return _drops(k, W.w)


def _drops(k_current, w):
    return np.maximum(0, k_current[:, None] - w)


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

def _assign(W: TrafficMatrixW, rows, rewards, k) -> SchedulerDecision:
    """Give each UE in the index array `rows` at most one RC, maximizing the
    sum of the rewards w - d over the pairs minus k for each row left out
    (rewards and k hold one entry per row). The decision is in full UE
    indexing; other UEs get nothing."""
    n, m = W.n_ues, W.n_rcs
    cols, obj = solve(rewards, k)
    rc_to_ue = [None] * m
    ue_rcs = [()] * n
    grants = np.zeros(n, dtype=np.int64)
    for ue, c in zip(rows.tolist(), cols):
        if c >= 0:
            rc_to_ue[c] = ue
            ue_rcs[ue] = (c,)
            grants[ue] = W.w[ue, c]
    return SchedulerDecision(rc_to_ue=tuple(rc_to_ue), ue_rcs=tuple(ue_rcs),
                             grants=grants, objective=int(obj))


def schedule_darts(W: TrafficMatrixW, k, d=None) -> SchedulerDecision:
    """Drop-aware scheduling, n_ue >= n_rc: maximize
    sum(alpha_ij (w_ij - d_ij)) - sum(beta_i k_i). With n_ue == n_rc no dummy
    is needed and every user is scheduled. `d` may be injected for testing;
    by default it is compute_drop_matrix(k, W).
    """
    if W.n_ues < W.n_rcs:
        raise SchedulerError("n_ue < n_rc: use schedule_iterative_surplus")
    k = _k_vector(k, W.n_ues)
    if d is None:
        d = compute_drop_matrix(k, W)
    else:
        d = np.asarray(d, dtype=np.int64)
        if d.shape != W.w.shape:
            raise SchedulerError(f"drop matrix shape {d.shape} != {W.w.shape}")
    return _assign(W, np.arange(W.n_ues), W.w - d, k)


def schedule_iterative_surplus(W: TrafficMatrixW, k=None) -> SchedulerDecision:
    """Surplus-resource regime (n_ue < n_rc): repeat single-RC assignment
    rounds over the UEs that still hold data, rebuilding w from the depleted
    buffers, until every RC is granted or all buffers empty; each round
    takes at least one RC. The drop matrix is omitted; k shrinks by the
    bytes granted (floor zero). A round with fewer active users than
    remaining RCs is solved on the real users alone; the zero-buffer dummy
    users that would square it only enter solve through their implied duals.
    """
    n, m = W.n_ues, W.n_rcs
    k = _k_vector(k, n).tolist()
    b = W.b.tolist()
    remaining = list(range(m))
    grants = [0] * n
    ue_rcs = [[] for _ in range(n)]
    rc_to_ue = [None] * m
    while remaining:
        b_now = np.array(b, dtype=np.int64)
        active = np.flatnonzero(b_now > 0)
        if not len(active):
            break
        w_round = np.minimum(W.p[active][:, remaining], b_now[active, None])
        cols, _obj = solve(w_round, [k[ue] for ue in active.tolist()])
        taken = set()
        for ue, c, row in zip(active.tolist(), cols, w_round.tolist()):
            got = row[c] if c >= 0 else 0
            if got <= 0:
                continue
            rc = remaining[c]
            taken.add(rc)
            rc_to_ue[rc] = ue
            ue_rcs[ue].append(rc)
            grants[ue] += got
            b[ue] -= got
            k[ue] = max(0, k[ue] - got)
        if not taken:
            break
        remaining = [rc for rc in remaining if rc not in taken]
    # a UE granted nothing still holds its starting buffer
    unscheduled_k = sum(k[i] for i in range(n) if b[i] > 0 and not ue_rcs[i])
    return SchedulerDecision(rc_to_ue=tuple(rc_to_ue),
                             ue_rcs=tuple(tuple(x) for x in ue_rcs),
                             grants=np.array(grants, dtype=np.int64),
                             objective=int(sum(grants) - unscheduled_k))


POLICIES = ("dham", "darts", "dafs")


def dispatch(policy: str, W: TrafficMatrixW, k=None, k_current=None) -> SchedulerDecision:
    """Run one TTI decision from the int64 urgency vectors k (unmatched-row
    penalty) and k_current (drop matrix; defaults to k). dham ignores both.
    Users with empty buffers take no part (their k is treated as zero: with
    no bytes buffered nothing can drop this TTI, and an idle user must not
    consume a resource chunk just to dodge a history penalty). With fewer
    active users than RCs the iterative surplus regime runs; otherwise one
    solve over the active users, penalty-padded or square."""
    if policy not in POLICIES:
        raise SchedulerError(f"unknown policy {policy!r}")
    n = W.n_ues
    if policy == "dham":
        k = k_current = None
    k = _k_vector(k, n)
    k_current = k if k_current is None else _k_vector(k_current, n)
    active = np.flatnonzero(W.b > 0)
    if len(active) < W.n_rcs:
        return schedule_iterative_surplus(W, k)
    w = W.w[active]
    return _assign(W, active, w - _drops(k_current[active], w), k[active])
