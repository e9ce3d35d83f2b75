"""LTE uplink resource-chunk scheduling simulator.

A numpy-based library for studying channel plus buffer aware uplink
schedulers with delay-deadline traffic: one exact integer assignment core in
which unscheduled users pay their imminent-drop bytes, drop-aware policies, a
block-fading channel model, multi-class traffic sources, UE-side drain
policies including priority flipping, and a deterministic discrete-event
engine with fairness and drop metrics.
"""

from .assignment import (
    AssignmentError,
    brute_force_assignment,
    pad_with_zero_dummies,
    replicate_penalty_dummies,
    solve,
)
from .channel import (
    ChannelConfig,
    CqiSource,
    Topology,
    cqi_to_bytes_per_rc,
    load_cqi_trace,
    path_loss,
    sinr_to_cqi,
    uplink_tx_power,
)
from .engine import ConfigError, ScenarioConfig, deploy, run, sweep, validate
from .golden import format_trace, run_scenario, verify_scenario
from .metrics import MetricsCollector, MetricsSummary, jain_index, worst_user
from .schedulers import (
    SchedulerDecision,
    TrafficMatrixW,
    build_traffic_matrix,
    compute_drop_matrix,
    dispatch,
    schedule_darts,
    schedule_iterative_surplus,
)
from .traffic import (
    DATA,
    DataSource,
    Packet,
    UeBuffer,
    VIDEO,
    VOICE,
    VideoSource,
    VoiceSource,
    truncated_pareto_mean,
    truncated_pareto_sample,
)
from .ue_tx import flip_drain, strict_priority_drain

__version__ = "0.1.0"
