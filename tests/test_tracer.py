"""The benchmark's contract with the package: `perfbench/tracer.py` wraps
engine and scheduler boundary functions and per-TTI methods by name and
checks each TTI's decision and drains, and `perfbench/run.py`'s synthetic
grid calls the scheduler by name. A refactor that renames one of those
names, or changes what the drains do to the buffers, shows up here."""

import dataclasses
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

import ulsched.assignment
import ulsched.channel
import ulsched.engine
import ulsched.metrics
import ulsched.schedulers
import ulsched.traffic
import ulsched.ue_tx
from ulsched.engine import ScenarioConfig
from ulsched.traffic import DATA, VIDEO, VOICE

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


MODULES = SimpleNamespace(assignment=ulsched.assignment, channel=ulsched.channel,
                          engine=ulsched.engine, metrics=ulsched.metrics,
                          schedulers=ulsched.schedulers, traffic=ulsched.traffic,
                          ue_tx=ulsched.ue_tx)


@pytest.mark.parametrize("ue_policy", ["strict", "flip"])
@pytest.mark.parametrize("policy", ["dham", "darts", "dafs"])
def test_traced_run_passes_the_tracer_checks(policy, ue_policy):
    tracer = _load_perfbench("tracer").Tracer()
    # 12 UEs on 8 RCs, overloaded, with short deadlines and small buffers:
    # surplus and penalty decisions, deadline drops and overflow in 40 TTIs
    cfg = ScenarioConfig(policy=policy, ue_policy=ue_policy, seed=2, tti_count=40, n_ues=12,
                         voice_deadline_ms=5, video_deadline_ms=8,
                         buffer_capacity=8000, buffer_threshold=2000,
                         loads_mbps={VOICE: 32.0, VIDEO: 32.0, DATA: 32.0})
    tracer.install(MODULES)
    try:
        summary = ulsched.engine.run(cfg)
    finally:
        tracer.uninstall()
    assert tracer.failures == []
    assert set(tracer.absent) <= {"traffic.compute_urgency"}
    assert summary.conservation_ok and summary.tti_count == 40
    assert sum(summary.deadline_dropped.values()) > 0
    assert tracer.counts["regime.penalty"] > 0 and tracer.counts["regime.surplus"] > 0
    assert tracer.stat(0, "schedulers.dispatch") == 40
    assert tracer.stat(0, "ue_tx.flip_drain", "ue_tx.strict_priority_drain") > 0
    assert ulsched.engine.dispatch is ulsched.schedulers.dispatch  # uninstalled


def test_benchmark_darts_grid_runs_on_this_tree(monkeypatch):
    """The `--trace 1` synthetic grid makes 131 checked decisions on this
    tree (about 0.25 s on a 2-core host) and writes nothing."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports tracer, workloads
    bench = _load_perfbench("run")
    ops = bench.Ops()
    metrics = bench.darts_grid(MODULES, 1, ops)
    assert ops.attempted == sum(calls + 1 for _, _, calls in bench.DARTS_GRID) == 131
    assert ops.failed == 0
    assert sorted(metrics) == sorted(f"schedulers.darts_{n}x{m}_us"
                                     for n, m, _ in bench.DARTS_GRID)


def test_replay_workload_runs_under_the_tracer(tmp_path):
    """`surplus_dham_replay` writes its traces with `CqiSource` by keyword
    and is the only workload that takes the engine's replay branch."""
    workloads = _load_perfbench("workloads")
    wl = dataclasses.replace(workloads.WORKLOADS["surplus_dham_replay"], tti_count=200)
    seed = workloads.sub_seed(1, 0)
    workloads.write_replay_traces(MODULES, wl, seed, tmp_path)
    cfg = workloads.scenario(MODULES, wl, seed, tmp_path)
    tracer = _load_perfbench("tracer").Tracer()
    tracer.install(MODULES)
    try:
        summary = ulsched.engine.run(cfg)
    finally:
        tracer.uninstall()
    assert tracer.failures == []
    assert set(tracer.absent) <= {"traffic.compute_urgency"}
    assert summary.conservation_ok and summary.tti_count == 200
