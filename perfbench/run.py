#!/usr/bin/env python3
"""ulsched benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload voice_darts --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; ulsched is imported from its `src/`.
`--trace 0` measures the end-to-end metrics with nothing traced; `--trace 1`
runs the traced scenario and reports the per-layer metrics. Everything runs
in this one process. The last line of standard output is the JSON result;
the lines before it and `perfbench/results/` hold the full report.
See perfbench/README.md for the workloads and the metrics.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import pickle
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from tracer import Tracer, decision_problems, layer_metrics
from workloads import WORKLOADS, scenario, sub_seed, write_replay_traces

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
MODULES = ("engine", "metrics", "schedulers", "traffic", "channel", "assignment", "ue_tx")

E2E_UNITS = {
    "ms_per_tti": "ms", "setup_s": "s", "decide_p50_us": "us", "decide_p99_us": "us",
    "peak_rss_mb": "MB", "mac_mbps": "Mbps", "jain": "ratio", "rt_delivered_pct": "%",
}
# Per-layer metrics printed in the result line; the report holds more (see README).
LAYER_UNITS = {
    "channel.grid_us_per_tti": "us", "channel.share_pct": "%",
    "traffic.arrivals_us_per_tti": "us", "traffic.onoff_steps_per_tti": "count",
    "traffic.packets_per_tti": "count", "traffic.enqueue_us_per_tti": "us",
    "traffic.age_drop_us_per_tti": "us", "traffic.urgency_calls_per_tti": "count",
    "traffic.urgency_useful_ratio": "ratio", "traffic.rt_drop_pct": "%",
    "traffic.share_pct": "%",
    "schedulers.build_w_us_per_tti": "us", "schedulers.decide_self_us_per_tti": "us",
    "schedulers.regime_penalty_pct": "%", "schedulers.regime_square_pct": "%",
    "schedulers.regime_surplus_pct": "%", "schedulers.regime_idle_pct": "%",
    "schedulers.active_ues_mean": "count", "schedulers.solves_per_decision": "count",
    "schedulers.rc_grant_ratio": "ratio", "schedulers.share_pct": "%",
    "schedulers.darts_30x8_us": "us", "schedulers.darts_60x8_us": "us",
    "schedulers.darts_100x16_us": "us", "schedulers.darts_200x48_us": "us",
    "assignment.solve_us_per_tti": "us", "assignment.solves_per_tti": "count",
    "assignment.us_per_solve": "us", "assignment.cells_per_solve": "count",
    "assignment.share_pct": "%",
    "ue_tx.drain_us_per_tti": "us", "ue_tx.drains_per_tti": "count",
    "ue_tx.queued_pkts_per_drain": "count", "ue_tx.share_pct": "%",
    "metrics.record_us_per_tti": "us", "metrics.finalize_ms": "ms", "metrics.share_pct": "%",
    "engine.loop_self_us_per_tti": "us", "engine.share_pct": "%", "trace.overhead_pct": "%",
}
# Per-layer times that are exactly zero on some workload: report file only.
REPORT_ONLY_UNITS = {
    "traffic.urgency_us_per_tti": "us", "traffic.frame_mean_ms": "ms",
    "traffic.trace_parse_ms": "ms",
}
# (n_ue, n_rc, timed calls) of the synthetic schedule_darts grid
DARTS_GRID = ((30, 8, 60), (60, 8, 40), (100, 16, 20), (200, 48, 7))
RUN_SHARE = 0.7  # of --seconds spent on scenario runs; the rest replays decisions
KERNEL_REF_MS = 2.0  # calibration kernel time on the reference host
PROBE_INTERVAL_MS = 50  # of timed work between speed-probe samples
SETUP_SAMPLES = 5


class CheckFailed(Exception):
    pass


class SetupDone(Exception):
    """Raised at the first decision to end a set-up measurement."""


def load_ulsched():
    """Import ulsched from this checkout's src/ with cold module state: any
    earlier import is dropped first, so module-level caches (such as the video
    frame-size Monte Carlo) start empty as in a fresh process."""
    for name in [n for n in sys.modules if n == "ulsched" or n.startswith("ulsched.")]:
        del sys.modules[name]
    pkg = importlib.import_module("ulsched")
    if Path(pkg.__file__).resolve().parent != (SRC / "ulsched").resolve():
        raise ImportError(f"ulsched was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"ulsched.{m}") for m in MODULES})


class Ops:
    """Operations attempted and failed; an exception or a failed check fails one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, what, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # noqa: BLE001 - every failure is counted and reported
            self.failed += 1
            print(f"FAILED {what}", file=sys.stderr)
            traceback.print_exc()
            return None


def clock_decisions(engine, stop_at_first=False, probe=None, capture=None, stride=1):
    """Rebind engine.dispatch to timestamp each entry into the once-per-TTI
    decision: the first entry ends set-up, and consecutive entries bracket
    whole TTIs. A speed `probe` is sampled when due. With a `capture` list,
    every stride-th (policy, W, urgency) input is appended to it as pickled
    bytes (a copy the garbage collector never scans) with a fingerprint of
    the decision made. Probe and capture work are paused out of the
    timestamps. Returns the timestamps and the function to restore."""
    fn = engine.dispatch
    perf = time.perf_counter_ns
    stamps = []
    paused = 0

    def clocked(*args, **kwargs):
        nonlocal paused
        if probe is not None and probe.due():
            p0 = perf()
            probe.sample()
            paused += perf() - p0
        stamps.append(perf() - paused)
        if stop_at_first:
            raise SetupDone
        if capture is None or len(stamps) % stride:
            return fn(*args, **kwargs)
        c0 = perf()
        inputs = pickle.dumps((args, kwargs))
        c1 = perf()
        out = fn(*args, **kwargs)
        c2 = perf()
        capture.append((inputs, fingerprint(out)))
        paused += (c1 - c0) + (perf() - c2)
        return out

    engine.dispatch = clocked
    return stamps, fn


def summary_problems(mods, summary, cfg):
    tr = mods.traffic
    problems = []
    if not summary.conservation_ok:
        problems.append("byte conservation fails")
    if summary.delay_max_ms[tr.VOICE] > cfg.voice_deadline_ms:
        problems.append(f"voice delay {summary.delay_max_ms[tr.VOICE]} ms past the deadline")
    if summary.delay_max_ms[tr.VIDEO] > cfg.video_deadline_ms:
        problems.append(f"video delay {summary.delay_max_ms[tr.VIDEO]} ms past the deadline")
    if summary.tti_count != cfg.tti_count:
        problems.append(f"{summary.tti_count} TTIs run, {cfg.tti_count} configured")
    return problems


def check_summary(mods, summary, cfg):
    problems = summary_problems(mods, summary, cfg)
    if problems:
        raise CheckFailed("; ".join(problems))


def row_hash(mods, summary, cfg):
    row = mods.metrics.summary_row(summary, cfg.policy, cfg.ue_policy, cfg.seed, cfg.loads_mbps)
    return hashlib.sha256(json.dumps(row, sort_keys=True, default=str).encode()).hexdigest()


def measure_setup(mods, cfg):
    """Seconds from the run() call to the first scheduling decision."""
    stamps, fn = clock_decisions(mods.engine, stop_at_first=True)
    t0 = time.perf_counter_ns()
    try:
        mods.engine.run(cfg)
    except SetupDone:
        return (stamps[0] - t0) / 1e9
    finally:
        mods.engine.dispatch = fn
    raise CheckFailed("run() made no scheduling decision")


def timed_run(mods, cfg, probe, capture=None, stride=1):
    """One untraced run; returns (summary, per-TTI host ns, row hash). TTI t's
    time runs from its decision to the next one, so there is one fewer
    interval than TTIs."""
    stamps, fn = clock_decisions(mods.engine, probe=probe, capture=capture, stride=stride)
    try:
        summary = mods.engine.run(cfg)
    finally:
        mods.engine.dispatch = fn
    if len(stamps) != cfg.tti_count:
        raise CheckFailed(f"{len(stamps)} decisions in {cfg.tti_count} TTIs")
    check_summary(mods, summary, cfg)
    return summary, np.diff(np.array(stamps, dtype=np.int64)), row_hash(mods, summary, cfg)


def fingerprint(decision):
    return hashlib.sha256(pickle.dumps(decision)).digest()


def replay_pass(dispatch, captured, probe, check=False):
    """Time each captured decision, sampling the speed probe when due. With
    check, also compare each result to the decision the run made. Returns
    (times in ns, mismatches)."""
    perf = time.perf_counter_ns
    times = []
    mismatches = 0
    for (args, kwargs), fp in captured:
        if probe.due():
            probe.sample()
        t0 = perf()
        out = dispatch(*args, **kwargs)
        times.append(perf() - t0)
        if check and fingerprint(out) != fp:
            mismatches += 1
    return np.array(times, dtype=np.int64), mismatches


def rt_share(mods, summaries, counter):
    tr = mods.traffic
    part = sum(getattr(s, counter)[c] for s in summaries for c in (tr.VOICE, tr.VIDEO))
    whole = sum(s.arrived[c] for s in summaries for c in (tr.VOICE, tr.VIDEO))
    return 100.0 * part / whole


def calibration_kernel():
    """Fixed interpreter and small-array work, independent of ulsched: half
    small numpy calls, half loops over nested Python lists, as in a TTI."""
    rng = np.random.default_rng(12345)
    acc = 0
    table = {}
    for i in range(90):
        a = rng.integers(0, 100, size=8)
        acc += int(np.minimum(a, 50).sum())
        table[i % 97] = table.get(i % 97, 0) + acc
    rows = [[(7 * r + 3 * c) % 11 for c in range(16)] for r in range(16)]
    for _ in range(9):
        for r, row in enumerate(rows):
            best = min(range(16), key=row.__getitem__)
            for c in range(16):
                row[c] = row[c] - row[best] + ((r ^ c) & 3)
            acc += best
    return acc


class SpeedProbe:
    """Times the calibration kernel every PROBE_INTERVAL_MS of timed work.
    The host's speed drifts by up to half over minutes, so a time measured
    in the probe's window is scaled to the reference host, on which the
    kernel takes KERNEL_REF_MS."""

    def __init__(self):
        calibration_kernel()  # warm-up, not sampled
        self.samples_ms = []
        self._next = 0

    def due(self):
        return time.perf_counter_ns() >= self._next

    def sample(self):
        t0 = time.perf_counter_ns()
        calibration_kernel()
        t1 = time.perf_counter_ns()
        self.samples_ms.append((t1 - t0) / 1e6)
        self._next = t1 + PROBE_INTERVAL_MS * 1_000_000

    def scale(self):
        return KERNEL_REF_MS / statistics.fmean(self.samples_ms)


def end_to_end(wl, seed, seconds, trace_dir, ops, report):
    seeds = [sub_seed(seed, r) for r in range(wl.sub_runs)]
    start = time.perf_counter()
    probes = {phase: SpeedProbe() for phase in ("setup", "runs", "replay")}
    setups = []
    for s in seeds[:SETUP_SAMPLES]:
        mods = load_ulsched()
        cfg = scenario(mods, wl, s, trace_dir)
        probes["setup"].sample()
        got = ops.run(f"setup seed {s}", measure_setup, mods, cfg)
        if got is not None:
            setups.append(got)
    probes["setup"].sample()
    # The scenarios run round-robin, at least once each, until RUN_SHARE of
    # --seconds has passed. Each time is a mean over its phase, scaled by the
    # speed probe sampled during that phase (see SpeedProbe). Peak RSS is
    # read after the first scenario; the first round's later scenarios then
    # capture every stride-th decision input for the replay.
    summaries, captured = [], []
    loop_ns = {}
    peak_rss_mb = None
    run_until = start + RUN_SHARE * seconds
    rnd = 0
    while rnd < 1 or time.perf_counter() < run_until:
        for i, s in enumerate(seeds):
            if rnd and time.perf_counter() >= run_until:
                break
            got = ops.run(f"run seed {s}", timed_run, mods, scenario(mods, wl, s, trace_dir),
                          probes["runs"], captured if rnd == 0 and i else None, wl.stride)
            if rnd == 0 and i == 0:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if got is None:
                continue
            summary, intervals, digest = got
            loop_ns.setdefault(s, []).append(intervals.mean())
            if rnd == 0:
                summaries.append(summary)
                report["row_sha256"][str(s)] = digest
            elif digest != report["row_sha256"].get(str(s)):
                ops.failed += 1
                print(f"FAILED repeat of seed {s} changed its summary row", file=sys.stderr)
        rnd += 1
    probes["runs"].sample()
    if not (setups and summaries and captured):
        return None
    dispatch = mods.schedulers.dispatch
    captured = [(pickle.loads(inputs), fp) for inputs, fp in captured]
    # The copies exist only in the benchmark: keep them out of the garbage
    # collector's full passes, as they would not be there in a real run.
    gc.collect()
    gc.freeze()
    # Replay passes until --seconds has passed, at least three. The first also
    # checks every result against the decision the run made.
    decide = []
    while len(decide) < 3 or time.perf_counter() < start + seconds:
        got = ops.run("replay pass", replay_pass, dispatch, captured, probes["replay"],
                      not decide)
        if got is None:
            return None
        times, mismatches = got
        if not decide:
            ops.attempted += len(captured) - 1  # one operation per replayed decision
            ops.failed += mismatches
            if mismatches:
                print(f"FAILED {mismatches} replayed decisions differ from the run's",
                      file=sys.stderr)
        decide.append(times)
    probes["replay"].sample()
    # A decision's time is its median over the passes, which drops one-off
    # interruptions; p50 and p99 are then taken over the decisions.
    q = statistics.quantiles(np.median(np.stack(decide), axis=0).tolist(), n=100)
    per_scenario = {s: statistics.fmean(v) / 1e6 for s, v in loop_ns.items()}
    raw = {"ms_per_tti": statistics.fmean(per_scenario.values()),
           "setup_s": statistics.median(setups),
           "decide_p50_us": q[49] / 1e3, "decide_p99_us": q[98] / 1e3}
    phase = {"ms_per_tti": "runs", "setup_s": "setup",
             "decide_p50_us": "replay", "decide_p99_us": "replay"}
    report["host_times_unscaled"] = raw
    report["speed_probe_ms"] = {p: statistics.fmean(pr.samples_ms) for p, pr in probes.items()}
    report["rounds"] = rnd
    report["decisions_replayed"] = len(captured)
    report["replay_passes"] = len(decide)
    report["ms_per_tti_by_seed"] = {str(s): v for s, v in per_scenario.items()}
    return {
        **{name: value * probes[phase[name]].scale() for name, value in raw.items()},
        "peak_rss_mb": peak_rss_mb,
        "mac_mbps": statistics.fmean(s.mac_throughput_mbps for s in summaries),
        "jain": statistics.fmean(s.jain for s in summaries),
        "rt_delivered_pct": rt_share(mods, summaries, "transmitted"),
    }


def darts_grid(mods, seed, ops):
    """Median schedule_darts time on seeded synthetic matrices per size."""
    sch = mods.schedulers
    rng = np.random.default_rng([seed, 23])
    out = {}
    for n, m, calls in DARTS_GRID:
        times = []
        for i in range(calls + 1):  # the first call warms up
            b = rng.integers(1, 4000, size=n)
            W = sch.build_traffic_matrix(rng.integers(1, 16, size=(n, m)), b)
            k = rng.integers(0, 800, size=n)
            t0 = time.perf_counter_ns()
            dec = sch.schedule_darts(W, k)
            dt = time.perf_counter_ns() - t0
            ops.attempted += 1
            problems = decision_problems(dec, b)
            if problems:
                ops.failed += 1
                print(f"FAILED darts {n}x{m}: {problems[0]}", file=sys.stderr)
            if i:
                times.append(dt)
        out[f"schedulers.darts_{n}x{m}_us"] = statistics.median(times) / 1e3
    return out


def traced_pair(wl, cfg_seed, trace_dir, tracer):
    """One untraced and one traced run of the same scenario, each in freshly
    imported modules. Returns (untraced ns, traced ns net of hook time,
    traced summary, its modules, row hash, problems found by the checks)."""
    mods = load_ulsched()
    cfg = scenario(mods, wl, cfg_seed, trace_dir)
    t0 = time.perf_counter_ns()
    plain = mods.engine.run(cfg)
    plain_ns = time.perf_counter_ns() - t0
    problems = summary_problems(mods, plain, cfg)
    plain_hash = row_hash(mods, plain, cfg)
    mods = load_ulsched()
    cfg = scenario(mods, wl, cfg_seed, trace_dir)
    before = tracer.excluded_ns
    seen = len(tracer.failures)
    tracer.install(mods)
    try:
        t0 = time.perf_counter_ns()
        traced = mods.engine.run(cfg)
        traced_ns = time.perf_counter_ns() - t0
    finally:
        tracer.uninstall()
    traced_ns -= tracer.excluded_ns - before
    problems += summary_problems(mods, traced, cfg) + tracer.failures[seen:]
    if row_hash(mods, traced, cfg) != plain_hash:
        problems.append("tracing changed the summary row")
    return plain_ns, traced_ns, traced, mods, plain_hash, problems


def per_layer(wl, seed, seconds, trace_dir, ops, report):
    s0 = sub_seed(seed, 0)
    deadline = time.perf_counter() + seconds
    tracer = Tracer()
    plain, traced, summaries = [], [], []
    mods = None
    while not plain or time.perf_counter() < deadline:
        got = ops.run(f"traced pair seed {s0}", traced_pair, wl, s0, trace_dir, tracer)
        if got is None:
            break
        plain.append(got[0])
        traced.append(got[1])
        summaries.append(got[2])
        mods = got[3]
        report["row_sha256"][str(s0)] = got[4]
        if got[5]:
            ops.failed += 1
            print(f"FAILED traced pair seed {s0}: {len(got[5])} checks failed, "
                  f"first: {got[5][0]}", file=sys.stderr)
            break
    if not traced:
        return None
    metrics = layer_metrics(tracer, wl.tti_count * len(traced), len(traced))
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1)
    metrics["traffic.rt_drop_pct"] = rt_share(mods, summaries[:1], "deadline_dropped")
    metrics.update(darts_grid(mods, seed, ops))
    report["absent_names"] = tracer.absent
    report["traced_runs"] = len(traced)
    return metrics


def machine_info():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "cpu": cpu}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    sys.path.insert(0, str(SRC))
    try:
        mods = load_ulsched()
    except ImportError as exc:
        print(f"cannot import ulsched from {SRC}: {exc}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    ops = Ops()
    report = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "machine": machine_info(), "row_sha256": {}}
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="traces-", dir=RESULTS) as tmp:
        trace_dir = Path(tmp)
        if wl.replay:
            n_traces = 1 if args.trace else wl.sub_runs
            for r in range(n_traces):
                ops.run("write replay traces", write_replay_traces, mods, wl,
                        sub_seed(args.seed, r), trace_dir)
        if ops.failed:
            return 1
        measure = per_layer if args.trace else end_to_end
        values = measure(wl, args.seed, args.seconds, trace_dir, ops, report)
    if values is None:
        print("no result: the runs above failed", file=sys.stderr)
        return 1
    units = LAYER_UNITS if args.trace else E2E_UNITS
    report["all_metrics"] = values
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units.get(name) or REPORT_ONLY_UNITS[name]}")
    for s, h in report["row_sha256"].items():
        print(f"summary_row sha256 seed {s}: {h}")
    print(f"machine: {report['machine']}")
    correct = ops.failed == 0
    result = {"correct": correct, "attempted": ops.attempted, "failed": ops.failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    report["result"] = result
    out = RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
