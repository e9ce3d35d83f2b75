"""Scheduler tests: worked examples, ILP-enumeration oracles, and the
equivalence of the assignment core with the literal dummy-padding and
dummy-replication pipelines."""

from itertools import permutations
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings, strategies as st

from ulsched.assignment import brute_force_assignment, replicate_penalty_dummies, solve
from ulsched.schedulers import (
    POLICIES,
    TrafficMatrixW,
    build_traffic_matrix,
    dispatch,
    schedule_iterative_surplus,
)


def _w(w, b=None, p=None):
    w = np.asarray(w, dtype=np.int64)
    if p is None:
        p = w.copy()
    else:
        p = np.asarray(p, dtype=np.int64)
    if b is None:
        b = w.max(axis=1)
    return TrafficMatrixW(w=w, p=p, b=np.asarray(b, dtype=np.int64))


# ---------------------------------------------------------------------------
# traffic matrix
# ---------------------------------------------------------------------------

def test_build_traffic_matrix_worked_example():
    W = build_traffic_matrix(np.array([[7], [12], [6]]), [400, 300, 260])
    assert np.array_equal(W.p.ravel(), [504, 756, 252])
    assert np.array_equal(W.w.ravel(), [400, 300, 252])


def test_build_traffic_matrix_edge_rows():
    W = build_traffic_matrix(np.array([[7, 7], [12, 12]]), [0, 10_000])
    assert np.all(W.w[0] == 0)
    assert np.array_equal(W.w[1], W.p[1])


# ---------------------------------------------------------------------------
# assignment core == literal pad / replicate + solve pipeline
# ---------------------------------------------------------------------------

def _literal_pipeline(gamma, k):
    """The exact construction, solved by permutation enumeration: replicate
    -k dummy columns (more rows) or append zero-reward dummy rows (fewer
    rows) to square, solve, then project dummy assignments to 'no column'."""
    n, m = gamma.shape
    if n > m:
        cols, obj = brute_force_assignment(replicate_penalty_dummies(gamma, k))
        return [c if c < m else -1 for c in cols], obj
    square = np.vstack([gamma, np.zeros((m - n, m), dtype=gamma.dtype)])
    cols, obj = brute_force_assignment(square)
    return cols[:n], obj


def test_folded_solver_equals_literal_pipeline():
    rng = np.random.default_rng(2024)
    shapes = set()
    for trial in range(900):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, n + 1))
        if trial >= 600:
            n, m = m, n  # as many or fewer rows than columns
        if rng.random() < 0.5:
            gamma = rng.integers(-5, 6, size=(n, m))  # tie-dense
            k = rng.integers(0, 4, size=n)
        else:
            gamma = rng.integers(-756, 757, size=(n, m))
            k = rng.integers(0, 757, size=n)
        want_cols, want_obj = _literal_pipeline(gamma, k)
        got_cols, got_obj = solve(gamma, k)
        assert got_obj == want_obj, f"objective mismatch on trial {trial}"
        assert got_cols == want_cols, f"tie-break mismatch on trial {trial}"
        shapes.add((n > m) - (n < m))
    assert shapes == {-1, 0, 1}


# ---------------------------------------------------------------------------
# dham
# ---------------------------------------------------------------------------

def test_dham_schedules_largest_w():
    W = build_traffic_matrix(np.array([[7], [12], [6]]), [400, 300, 260])
    dec = dispatch("dham", W)
    assert dec.rc_to_ue == (0,)
    assert dec.grants[0] == 400
    assert dec.objective == 400


def test_dham_empty_buffers_means_no_assignment():
    W = build_traffic_matrix(np.array([[7], [12], [6]]), [0, 0, 0])
    dec = dispatch("dham", W)
    assert dec.rc_to_ue == (None,)
    assert dec.total_grant == 0
    assert dec.objective == 0


def test_dham_matches_brute_force_matching():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 4))
        b = rng.integers(0, 900, size=n)
        p = rng.choice([252, 504, 756], size=(n, m))
        W = _w(np.minimum(p, b[:, None]), b=b, p=p)
        _cols, objective = solve(W.w[b > 0])
        best = _brute_best_w(W.w, min(m, int((b > 0).sum())))
        assert objective == best


def _brute_best_w(w, slots):
    n, m = w.shape
    best = 0
    rows = range(n)
    for chosen in permutations(rows, min(slots, n, m)):
        for cols in permutations(range(m), len(chosen)):
            val = sum(w[r, c] for r, c in zip(chosen, cols))
            best = max(best, val)
    return best


# ---------------------------------------------------------------------------
# drop matrix / darts
# ---------------------------------------------------------------------------

def test_darts_three_user_worked_example():
    W = build_traffic_matrix(np.array([[7], [12], [6]]), [400, 300, 260])
    k = np.array([50, 100, 255])
    dec = dispatch("darts", W, k)
    assert dec.rc_to_ue == (2,)
    assert dec.grants[2] == 252
    # faithful ILP objective includes UE3's residual drop d = 255 - 252 = 3:
    # (252 - 3) - (50 + 100) = 99; the printed walkthrough arithmetic that
    # omits d (252 - 150 = 102) is reproduced by the worked-example mode
    assert dec.objective == 99


def test_darts_zero_k_reduces_to_dham():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, n + 1))
        b = rng.integers(1, 900, size=n)
        p = rng.choice([252, 504, 756], size=(n, m))
        W = _w(np.minimum(p, b[:, None]), b=b, p=p)
        zk = np.zeros(n, dtype=np.int64)
        darts = dispatch("darts", W, zk)
        dham = dispatch("dham", W)
        assert darts.rc_to_ue == dham.rc_to_ue
        assert np.array_equal(darts.grants, dham.grants)


def _enumerate_ilp(w, d, k):
    """Exhaustive optimum of the drop-aware program: every RC to a distinct
    UE, unscheduled UEs pay k. Independent of the assignment machinery."""
    n, m = w.shape
    best = None
    for rows in permutations(range(n), m):
        val = sum(w[r, j] - d[r, j] for j, r in enumerate(rows))
        val -= sum(k[r] for r in range(n) if r not in rows)
        if best is None or val > best:
            best = val
    return best


def test_darts_equals_ilp_enumeration():
    """dispatch's darts decision reaches the enumerated optimum of the
    program with the residual drops d = max(0, k_current - w) built here,
    on every row active (b > 0) and with k != k_current, so the penalty and
    the drop term come from different vectors."""
    rng = np.random.default_rng(77)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, min(3, n) + 1))
        b = rng.integers(1, 1500, size=n)
        p = rng.choice([252, 504, 756], size=(n, m))
        w = np.minimum(p, b[:, None])
        k_cur = rng.integers(0, 900, size=n)
        k = k_cur + rng.integers(1, 400, size=n)  # plus a drop history
        d = np.maximum(0, k_cur[:, None] - w)
        dec = dispatch("darts", TrafficMatrixW(w=w, p=p, b=b), k, k_cur)
        assert dec.objective == _enumerate_ilp(w, d, k)
        granted = [(ue, rcs[0]) for ue, rcs in enumerate(dec.ue_rcs) if rcs]
        assert dec.objective == (sum(w[i, j] - d[i, j] for i, j in granted)
                                 - sum(k[i] for i in range(n) if not dec.ue_rcs[i]))


# ---------------------------------------------------------------------------
# iterative surplus
# ---------------------------------------------------------------------------

def test_surplus_single_user_three_chunks():
    p = np.full((1, 3), 504, dtype=np.int64)
    W = TrafficMatrixW(w=np.minimum(p, 1200), p=p, b=np.array([1200]))
    dec = schedule_iterative_surplus(W)
    assert dec.grants[0] == 1200
    assert len(dec.ue_rcs[0]) == 3
    got = sorted(dec.ue_rcs[0])
    assert got == [0, 1, 2]


def test_surplus_empty_buffers():
    p = np.full((2, 3), 252, dtype=np.int64)
    W = TrafficMatrixW(w=np.zeros((2, 3), dtype=np.int64), p=p,
                       b=np.zeros(2, dtype=np.int64))
    dec = schedule_iterative_surplus(W)
    assert dec.total_grant == 0
    assert dec.rc_to_ue == (None, None, None)


def test_surplus_two_users_two_chunks_matches_brute():
    rng = np.random.default_rng(5)
    for _ in range(100):
        b = rng.integers(1, 600, size=2)
        p = rng.choice([252, 504, 756], size=(2, 2))
        w = np.minimum(p, b[:, None])
        W = TrafficMatrixW(w=w, p=p, b=b)
        dec = schedule_iterative_surplus(W)
        # round 1 is a 2x2 matching; both users hold data so both get one RC
        best = max(w[0, 0] + w[1, 1], w[0, 1] + w[1, 0])
        assert int(dec.grants.sum()) >= best  # later rounds may add more
        assert all(len(r) >= 1 for r in dec.ue_rcs)


def test_surplus_grants_never_exceed_buffer():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(n, 9))
        b = rng.integers(0, 3000, size=n)
        p = rng.choice([252, 504, 756], size=(n, m))
        W = TrafficMatrixW(w=np.minimum(p, b[:, None]), p=p, b=b)
        dec = schedule_iterative_surplus(W, rng.integers(0, 500, size=n))
        assert np.all(dec.grants <= b)
        for ue, rcs in enumerate(dec.ue_rcs):
            assert len(set(rcs)) == len(rcs)
        used = [rc for rcs in dec.ue_rcs for rc in rcs]
        assert len(set(used)) == len(used)  # RC exclusivity


def _surplus_numpy_loop(W, k):
    """The surplus rounds as written with numpy bookkeeping (int64 arrays
    for b, k and the grants, numpy reads per element), kept as the reference
    for the Python-int loop. Also returns each round's (active UEs, RCs left)."""
    n, m = W.n_ues, W.n_rcs
    k = np.asarray(k, dtype=np.int64).copy()
    b = W.b.copy()
    remaining = list(range(m))
    grants = np.zeros(n, dtype=np.int64)
    ue_rcs = [[] for _ in range(n)]
    rc_to_ue = [None] * m
    shapes = []
    while remaining:
        active = [i for i in range(n) if b[i] > 0]
        if not active:
            break
        shapes.append((len(active), len(remaining)))
        w_round = np.minimum(W.p[np.ix_(active, remaining)], b[active, None])
        cols, _obj = solve(w_round, k[active])
        taken = []
        for local, ue in enumerate(active):
            c = cols[local]
            got = int(w_round[local, c]) if c >= 0 else 0
            if got <= 0:
                continue
            rc = remaining[c]
            taken.append(rc)
            rc_to_ue[rc] = ue
            ue_rcs[ue].append(rc)
            grants[ue] += got
            b[ue] -= got
            k[ue] = max(0, k[ue] - got)
        if not taken:
            break
        remaining = [rc for rc in remaining if rc not in taken]
    unscheduled = [i for i in range(n) if not ue_rcs[i] and W.b[i] > 0]
    dec = (tuple(rc_to_ue), tuple(tuple(x) for x in ue_rcs), grants,
           int(grants.sum() - k[unscheduled].sum()))
    return dec, shapes


def test_surplus_rounds_equal_the_numpy_loop():
    rng = np.random.default_rng(1313)
    later_penalty_rounds = 0
    for trial in range(400):
        m = int(rng.integers(2, 17))
        n = int(rng.integers(1, m))
        b = rng.integers(1, 2500, size=n) * (rng.random(n) < 0.85)
        p = rng.choice([0, 252, 504, 756], size=(n, m), p=[0.1, 0.3, 0.3, 0.3])
        k = rng.integers(0, 800, size=n) * (rng.random(n) < 0.5)
        W = TrafficMatrixW(w=np.minimum(p, b[:, None]), p=p, b=b)
        dec = schedule_iterative_surplus(W, k)
        (rc_to_ue, ue_rcs, grants, objective), shapes = _surplus_numpy_loop(W, k)
        assert dec.rc_to_ue == rc_to_ue, trial
        assert dec.ue_rcs == ue_rcs, trial
        assert dec.grants.dtype == np.int64 and np.array_equal(dec.grants, grants), trial
        assert type(dec.objective) is int and dec.objective == objective, trial
        later_penalty_rounds += any(a > r for a, r in shapes[1:])
    assert later_penalty_rounds >= 20   # later rounds with more users than RCs left


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def test_dispatch_determinism_and_regimes():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 5))
        b = rng.integers(0, 1200, size=n)
        p = rng.choice([252, 504, 756], size=(n, m))
        W = TrafficMatrixW(w=np.minimum(p, b[:, None]), p=p, b=b)
        k = rng.integers(0, 600, size=n)
        for policy in ("dham", "darts", "dafs"):
            d1 = dispatch(policy, W, k)
            d2 = dispatch(policy, W, k)
            assert d1.rc_to_ue == d2.rc_to_ue
            assert np.array_equal(d1.grants, d2.grants)
            assert np.all(d1.grants <= np.minimum(W.p.max(axis=1) * max(1, m), W.b))
            for ue, rcs in enumerate(d1.ue_rcs):
                if b[ue] == 0:
                    assert rcs == ()  # idle users never hold a chunk


def test_dispatch_equals_the_policy_on_the_active_rows():
    """Idle UEs (b = 0) take no part in a decision, whatever their k: dispatch
    equals solve on the active sub-matrix's rewards w - max(0, k_current - w)
    with penalty k (active >= RCs) or schedule_iterative_surplus (active <
    RCs) run on the active sub-matrix, mapped back."""
    rng = np.random.default_rng(31)
    regimes = set()
    for _ in range(300):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 6))
        b = rng.integers(1, 1500, size=n)
        b[rng.random(n) < 0.4] = 0
        p = rng.choice([252, 504, 756], size=(n, m))
        W = TrafficMatrixW(w=np.minimum(p, b[:, None]), p=p, b=b)
        k = rng.integers(0, 600, size=n)
        k[b == 0] = 10**6  # a large history penalty on every idle UE
        k_cur = np.minimum(k, rng.integers(0, 600, size=n))
        active = np.flatnonzero(b > 0)
        sub = TrafficMatrixW(w=W.w[active], p=p[active], b=b[active])
        for policy in POLICIES:
            kk, kc = (0 * k, 0 * k) if policy == "dham" else (k, k_cur)
            got = dispatch(policy, W, k, k_cur)
            if len(active) < m:
                regimes.add("surplus")
                want = schedule_iterative_surplus(sub, kk[active])
            else:
                regimes.add("square" if len(active) == m else "penalty")
                w = sub.w
                cols, obj = solve(w - np.maximum(0, kc[active][:, None] - w), kk[active])
                want = SimpleNamespace(
                    grants=np.array([w[i, c] if c >= 0 else 0 for i, c in enumerate(cols)]),
                    rc_to_ue=tuple(cols.index(c) if c in cols else None for c in range(m)),
                    objective=obj)
            grants = np.zeros(n, dtype=np.int64)
            grants[active] = want.grants
            assert np.array_equal(got.grants, grants)
            assert got.rc_to_ue == tuple(None if x is None else active[x]
                                         for x in want.rc_to_ue)
            assert got.objective == want.objective
    assert regimes == {"penalty", "square", "surplus"}


@st.composite
def _dispatch_inputs(draw):
    """A CQI grid of 0-5 UEs x 1-5 RCs, buffers with idle (zero) rows, and
    k = k_current + a drop history, so k_current differs from k."""
    n = draw(st.integers(0, 5))
    m = draw(st.integers(1, 5))
    cqi = draw(st.lists(st.lists(st.integers(1, 15), min_size=m, max_size=m),
                        min_size=n, max_size=n))
    b = draw(st.lists(st.sampled_from([0, 0, 1, 40, 300, 700, 2000]), min_size=n, max_size=n))
    k_cur = draw(st.lists(st.integers(0, 800), min_size=n, max_size=n))
    hist = draw(st.lists(st.integers(0, 800), min_size=n, max_size=n))
    W = build_traffic_matrix(np.array(cqi, dtype=np.int64).reshape(n, m), b)
    k_cur = np.array(k_cur, dtype=np.int64)
    return W, k_cur + np.array(hist, dtype=np.int64), k_cur


@settings(max_examples=300, deadline=None)
@given(inputs=_dispatch_inputs(), policy=st.sampled_from(POLICIES))
def test_dispatch_decisions_are_consistent(inputs, policy):
    """No grant exceeds its buffer; each RC has at most one UE, and rc_to_ue
    and ue_rcs agree; outside the surplus regime (as many active UEs as RCs
    or more) each UE has at most one RC and its grant is the w of that RC.
    In the surplus regime each round grants min(p, the bytes left), so the
    grant is min(b, sum of p over its RCs)."""
    W, k, k_cur = inputs
    dec = dispatch(policy, W, k, k_cur)
    n, m = W.n_ues, W.n_rcs
    surplus = np.count_nonzero(W.b) < m
    assert dec.grants.shape == (n,) and np.all(dec.grants >= 0)
    assert np.all(dec.grants <= W.b)
    assert len(dec.rc_to_ue) == m and len(dec.ue_rcs) == n
    held = [(rc, ue) for ue, rcs in enumerate(dec.ue_rcs) for rc in rcs]
    assert sorted(held) == [(rc, ue) for rc, ue in enumerate(dec.rc_to_ue) if ue is not None]
    for ue, rcs in enumerate(dec.ue_rcs):
        if W.b[ue] == 0:
            assert rcs == ()
        if surplus:
            assert dec.grants[ue] == min(W.b[ue], sum(W.p[ue, rc] for rc in rcs))
        else:
            assert len(rcs) <= 1
            assert dec.grants[ue] == sum(W.w[ue, rc] for rc in rcs)
