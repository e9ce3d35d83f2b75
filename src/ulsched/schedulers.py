"""Per-TTI allocation policies run at the base station.

dham   - channel plus buffer aware: maximize total transmittable bytes.
darts  - dham extended with drop awareness: unscheduled users pay their
         imminent-drop byte count k, scheduled users pay the residual drop
         d = max(0, k_current - w).
dafs   - darts driven by the mixed-traffic urgency metric.

Every decision is one or more calls of assignment.solve: dham with no
penalty, darts and dafs with k as the unmatched-row penalty, and each round
of the surplus regime (fewer users than chunks) on the depleted buffers.
"""

from dataclasses import dataclass

import numpy as np

from .assignment import solve
from .channel import cqi_to_bytes_per_rc
from .traffic import UrgencyReport


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
    unscheduled: tuple       # UE indices holding data but left without an RC (beta = 1)
    objective: int           # value of the optimization actually solved

    @property
    def total_grant(self) -> int:
        return int(self.grants.sum())


def build_traffic_matrix(cqi_grid, buffers) -> TrafficMatrixW:
    """w_ij = min(p_ij, b_i): p from the CQI-to-bytes map, b the buffered
    bytes per UE (buffers may be UeBuffer objects or an int array)."""
    grid = np.asarray(cqi_grid)
    if grid.ndim != 2:
        raise SchedulerError(f"CQI grid must be 2-D, got shape {grid.shape}")
    p = cqi_to_bytes_per_rc(grid)
    if hasattr(buffers, "__len__") and len(buffers) and hasattr(buffers[0], "total"):
        b = np.array([buf.total for buf in buffers], dtype=np.int64)
    else:
        b = np.asarray(buffers, dtype=np.int64)
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
    return np.maximum(0, k[:, None] - W.w)


def _k_vectors(urgency, n_ues):
    """Accept urgency as an UrgencyReport sequence or a plain k vector."""
    if urgency is None:
        z = np.zeros(n_ues, dtype=np.int64)
        return z, z
    seq = urgency if isinstance(urgency, np.ndarray) else list(urgency)
    if len(seq) and isinstance(seq[0], UrgencyReport):
        k = np.array([r.k for r in seq], dtype=np.int64)
        k_cur = np.array([r.k_current for r in seq], dtype=np.int64)
    else:
        k = np.asarray(seq, dtype=np.int64)
        k_cur = k.copy()
    if k.shape != (n_ues,):
        raise SchedulerError(f"need one urgency entry per UE, got {np.shape(seq)}")
    return k, k_cur


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------

def _decision_from_cols(col_of_row, W, rows, objective):
    """Assemble a SchedulerDecision from per-row column choices computed on a
    row subset `rows` of the full UE set."""
    n, m = W.n_ues, W.n_rcs
    rc_to_ue = [None] * m
    ue_rcs = [() for _ in range(n)]
    g = np.zeros(n, dtype=np.int64)
    unscheduled = []
    for local, ue in enumerate(rows):
        c = col_of_row[local]
        if c >= 0:
            rc_to_ue[c] = ue
            ue_rcs[ue] = (c,)
            g[ue] = W.w[ue, c]
        else:
            unscheduled.append(ue)
    return SchedulerDecision(rc_to_ue=tuple(rc_to_ue), ue_rcs=tuple(ue_rcs),
                             grants=g, unscheduled=tuple(unscheduled),
                             objective=int(objective))


def schedule_dham(W: TrafficMatrixW) -> SchedulerDecision:
    """Maximize total transmittable bytes. Users with nothing to send are
    treated as dummy-assigned; at most min(n_rc, capable users) real grants.
    """
    capable = [i for i in range(W.n_ues) if W.b[i] > 0]
    cols, obj = solve(W.w[capable])
    return _decision_from_cols(cols, W, capable, obj)


def schedule_darts(W: TrafficMatrixW, urgency, d=None) -> SchedulerDecision:
    """Drop-aware scheduling, n_ue >= n_rc: maximize
    sum(alpha_ij (w_ij - d_ij)) - sum(beta_i k_i). With n_ue == n_rc no dummy
    is needed and every user is scheduled. `d` may be injected for testing;
    by default it derives from the current-TTI urgency.
    """
    k, k_cur = _k_vectors(urgency, W.n_ues)
    return _schedule_darts_k(W, k, k_cur, d)


def _schedule_darts_k(W, k, k_cur, d=None) -> SchedulerDecision:
    n, m = W.n_ues, W.n_rcs
    if n < m:
        raise SchedulerError("n_ue < n_rc: use schedule_iterative_surplus")
    if d is None:
        d = compute_drop_matrix(k_cur, W)
    else:
        d = np.asarray(d, dtype=np.int64)
        if d.shape != W.w.shape:
            raise SchedulerError(f"drop matrix shape {d.shape} != {W.w.shape}")
    cols, obj = solve(W.w - d, k)
    return _decision_from_cols(cols, W, list(range(n)), obj)


def schedule_iterative_surplus(W: TrafficMatrixW, urgency=None,
                               max_rounds=None) -> SchedulerDecision:
    """Surplus-resource regime (n_ue < n_rc): repeat single-RC assignment
    rounds, rebuilding w from the depleted buffers, until every RC is granted
    or all buffers empty. The drop matrix is omitted; k shrinks by the bytes
    granted (floor zero). A round with fewer active users than remaining
    RCs is solved on the real users alone; the zero-buffer dummy users that
    would square it only enter solve through their implied duals.
    """
    n, m = W.n_ues, W.n_rcs
    k, _ = _k_vectors(urgency, n)
    k = k.copy()
    b = W.b.copy()
    remaining = list(range(m))
    grants = np.zeros(n, dtype=np.int64)
    ue_rcs = [[] for _ in range(n)]
    rc_to_ue = [None] * m
    rounds = max_rounds if max_rounds is not None else m
    for _ in range(rounds):
        active = [i for i in range(n) if b[i] > 0]
        if not active or not remaining:
            break
        w_round = np.minimum(W.p[np.ix_(active, remaining)], b[active, None])
        cols, _obj = solve(w_round, k[active])
        granted_any = False
        taken = []
        for local, ue in enumerate(active):
            c = cols[local]
            if c < 0:
                continue
            rc = remaining[c]
            got = int(w_round[local, c])
            if got <= 0:
                continue
            granted_any = True
            taken.append(rc)
            rc_to_ue[rc] = ue
            ue_rcs[ue].append(rc)
            grants[ue] += got
            b[ue] -= got
            k[ue] = max(0, k[ue] - got)
        if not granted_any:
            break
        remaining = [rc for rc in remaining if rc not in taken]
    unscheduled = tuple(i for i in range(n) if not ue_rcs[i] and W.b[i] > 0)
    objective = int(grants.sum() - k[list(unscheduled)].sum()) if len(unscheduled) \
        else int(grants.sum())
    return SchedulerDecision(rc_to_ue=tuple(rc_to_ue),
                             ue_rcs=tuple(tuple(x) for x in ue_rcs),
                             grants=grants, unscheduled=unscheduled,
                             objective=objective)


def dafs_metric(urgency) -> np.ndarray:
    """Mixed-traffic urgency vector: k = m_vo + m_vi + m_d plus the windowed
    drop history, straight from mixed-mode urgency reports."""
    reports = list(urgency)
    if any(not isinstance(r, UrgencyReport) for r in reports):
        raise SchedulerError("dafs_metric expects UrgencyReport entries")
    return np.array([r.k for r in reports], dtype=np.int64)


POLICIES = ("dham", "darts", "dafs")


def dispatch(policy: str, W: TrafficMatrixW, urgency=None) -> SchedulerDecision:
    """Run one TTI decision. Users with empty buffers are pruned first (their
    k is treated as zero: with no bytes buffered nothing can drop this TTI,
    and an idle user must not consume a resource chunk just to dodge a
    history penalty). The regime - square, dummy-padded, or iterative
    surplus - follows from the pruned user count."""
    if policy not in POLICIES:
        raise SchedulerError(f"unknown policy {policy!r}")
    active = [i for i in range(W.n_ues) if W.b[i] > 0]
    if not active:
        return SchedulerDecision(rc_to_ue=(None,) * W.n_rcs,
                                 ue_rcs=((),) * W.n_ues,
                                 grants=np.zeros(W.n_ues, dtype=np.int64),
                                 unscheduled=(), objective=0)
    sub = TrafficMatrixW(w=W.w[active], p=W.p[active], b=W.b[active])
    if policy == "dham":
        if len(active) < W.n_rcs:
            dec = schedule_iterative_surplus(sub)
        else:
            dec = schedule_dham(sub)
    else:
        k, k_cur = _k_vectors(urgency, W.n_ues)
        if len(active) < W.n_rcs:
            dec = schedule_iterative_surplus(sub, k[active])
        else:
            dec = _schedule_darts_k(sub, k[active], k_cur[active])
    return _expand_decision(dec, active, W)


def _expand_decision(dec: SchedulerDecision, rows, W: TrafficMatrixW) -> SchedulerDecision:
    """Map a decision computed on a row subset back to full UE indexing."""
    n, m = W.n_ues, W.n_rcs
    rc_to_ue = [None] * m
    ue_rcs = [() for _ in range(n)]
    grants = np.zeros(n, dtype=np.int64)
    for rc, local in enumerate(dec.rc_to_ue):
        if local is not None:
            rc_to_ue[rc] = rows[local]
    for local, ue in enumerate(rows):
        ue_rcs[ue] = dec.ue_rcs[local]
        grants[ue] = dec.grants[local]
    unscheduled = tuple(rows[local] for local in dec.unscheduled)
    return SchedulerDecision(rc_to_ue=tuple(rc_to_ue), ue_rcs=tuple(ue_rcs),
                             grants=grants, unscheduled=unscheduled,
                             objective=dec.objective)
