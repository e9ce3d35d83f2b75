"""The benchmark tracer's contract with the package: `perfbench/tracer.py`
wraps engine and scheduler boundary functions and per-TTI methods by name
and checks each TTI's decision and drains. A refactor that renames one of
those names, or changes what the drains do to the buffers, shows up here."""

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

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
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
    tracer = _load_tracer().Tracer()
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
