"""Channel model tests: path loss, power control, SINR composition, CQI
mapping, grid realization, trace fixtures."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ulsched.channel as chan
from ulsched.channel import (
    FADING_BLOCK_TTIS,
    ChannelConfig,
    ChannelError,
    CqiSource,
    Topology,
    cqi_to_bytes_per_rc,
    load_cqi_trace,
    path_loss,
    pc_estimate_db,
    sinr_to_cqi,
    uplink_tx_power,
)
from ulsched.engine import ScenarioConfig, deploy

CFG = ChannelConfig()


def _topo(distances, shadows=None):
    d = np.asarray(distances, dtype=float)
    shadows = np.zeros_like(d) if shadows is None else np.asarray(shadows, dtype=float)
    angles = np.linspace(0, 2 * np.pi, len(d), endpoint=False)
    xy = np.stack([d * np.cos(angles), d * np.sin(angles)], axis=1)
    centers = np.array([[np.cos(a) * 500.0, np.sin(a) * 500.0]
                        for a in np.linspace(0, 2 * np.pi, 6, endpoint=False)])
    return Topology(neighbor_centers=centers, ue_xy=xy, ue_distance_m=d,
                    ue_shadow_db=shadows, cell_radius_m=CFG.cell_radius_m)


def test_path_loss_reference_points():
    assert path_loss(1000.0) == pytest.approx(128.1, abs=1e-9)
    assert path_loss(100.0) == pytest.approx(128.1 - 37.6, abs=1e-9)


def test_path_loss_monotone_and_domain():
    d = np.linspace(10, 2000, 300)
    pl = path_loss(d)
    assert np.all(np.diff(pl) >= 0)
    with pytest.raises(ChannelError):
        path_loss(0.0)
    with pytest.raises(ChannelError):
        path_loss(-5.0)


def test_uplink_tx_power_examples():
    got = uplink_tx_power(100.0, 6, CFG)
    assert got == pytest.approx(-106.0 + 10 * np.log10(6) + 100.0, abs=1e-9)
    assert round(got, 2) == 1.78
    assert uplink_tx_power(140.0, 6, CFG) == 24.0  # cap active
    cfg0 = ChannelConfig(alpha_pc=0.0)
    assert uplink_tx_power(170.0, 1, cfg0) == -106.0


def test_uplink_tx_power_capped_everywhere():
    pls = np.linspace(40, 180, 200)
    p = uplink_tx_power(pls, 6, CFG)
    assert np.all(p <= CFG.p_max_dbm)
    assert np.all(np.diff(p) >= 0)


def _signal_dbm(topo, cfg):
    """Received power per UE before fading, recomputed straight from the
    formulas: open-loop power minus path loss, penetration and shadowing."""
    pl = 128.1 + 37.6 * np.log10(topo.ue_distance_m / 1000.0)
    estimate = pl + cfg.penetration_loss_db
    ptx = np.minimum(cfg.p_max_dbm,
                     cfg.p_o_dbm + 10 * np.log10(cfg.prb_per_rc) + cfg.alpha_pc * estimate)
    return ptx - (estimate + topo.ue_shadow_db)


def _grid_sinr_within(monkeypatch, topo, cfg, ue, want_db, tol,
                      fading_db=None, interference_dbm=()):
    """Whether the first grid's SINR of (ue, RC 0) lies in [want_db - tol,
    want_db + tol), with fading fixed per UE (fading_db, or none) and the six
    interferers fixed (missing ones silent). The CQI thresholds bracket
    want_db, so the grid reads 7 inside the bracket, 1 below and 15 above."""
    cfg = replace(cfg, fast_fading=fading_db is not None,
                  cqi_thresholds_db=(want_db - tol,) * 7 + (want_db + tol,) * 8)
    per_ue = np.asarray([] if fading_db is None else fading_db, dtype=float)

    def fixed_fading(rngs, out):
        out[...] = per_ue[:, None, None]

    monkeypatch.setattr(chan, "draw_fading_db", fixed_fading)
    rows = np.array(list(interference_dbm) + [-np.inf] * (6 - len(interference_dbm)))
    monkeypatch.setattr(chan, "interference_block_dbm",
                        lambda topo, cfg, rng, draws: np.broadcast_to(rows[:, None], draws.shape[1:]))
    src = CqiSource(topo, cfg, fading_rngs=[None] * topo.n_ues, interference_rng=None)
    cqi = int(src.grid(0)[ue, 0])
    assert cqi in (1, 7, 15)
    return cqi == 7


def test_sinr_equal_signal_and_noise_is_zero_db(monkeypatch):
    topo = _topo([180.0], shadows=[1.5])
    signal = float(_signal_dbm(topo, CFG)[0])
    bw_db = 10 * np.log10(CFG.prb_per_rc * chan.PRB_BANDWIDTH_HZ)
    cfg = replace(CFG, thermal_noise_dbm_hz=signal - bw_db - CFG.noise_figure_db)
    assert cfg.noise_dbm_per_rc() == pytest.approx(signal, abs=1e-12)
    assert _grid_sinr_within(monkeypatch, topo, cfg, 0, 0.0, 1e-12)
    assert not _grid_sinr_within(monkeypatch, topo, cfg, 0, 1e-10, 1e-12)


def test_sinr_single_equal_interferer_with_negligible_noise(monkeypatch):
    topo = _topo([150.0, 300.0])
    cfg = replace(CFG, thermal_noise_dbm_hz=-300.0)
    signal = _signal_dbm(topo, cfg)
    for ue in (0, 1):
        assert _grid_sinr_within(monkeypatch, topo, cfg, ue, 0.0, 1e-3,
                                 interference_dbm=(float(signal[ue]),))
        assert not _grid_sinr_within(monkeypatch, topo, cfg, ue, 0.01, 1e-3,
                                     interference_dbm=(float(signal[ue]),))


def test_sinr_matches_straight_line_recomputation(monkeypatch):
    topo = _topo([120.0, 250.0], shadows=[3.0, -2.0])
    rng = np.random.default_rng(0)
    for ue in (0, 1):
        fading = rng.normal(0, 3, size=2)
        interference = tuple(float(x) for x in rng.uniform(-130, -100, size=6))
        # independent recomputation from the per-term powers
        want_signal = float(_signal_dbm(topo, CFG)[ue]) + fading[ue]
        noise = CFG.noise_dbm_per_rc()
        assert _grid_sinr_within(monkeypatch, topo, CFG, ue, want_signal - noise, 1e-9,
                                 fading_db=fading)
        lin = 10 ** (noise / 10) + sum(10 ** (p / 10) for p in interference)
        want = want_signal - 10 * np.log10(lin)
        assert _grid_sinr_within(monkeypatch, topo, CFG, ue, want, 1e-9,
                                 fading_db=fading, interference_dbm=interference)
        assert not _grid_sinr_within(monkeypatch, topo, CFG, ue, want + 3e-9, 1e-9,
                                     fading_db=fading, interference_dbm=interference)


def test_sinr_to_cqi_clamps_and_boundaries():
    assert sinr_to_cqi(-100.0) == 1
    assert sinr_to_cqi(100.0) == 15
    # threshold of CQI 7 is 6 dB with the default 2 dB grid; half-open left edge
    assert sinr_to_cqi(6.0) == 7
    assert sinr_to_cqi(5.999999) == 6
    grid = sinr_to_cqi(np.linspace(-20, 30, 400))
    assert np.all(np.diff(grid) >= 0)
    assert set(np.unique(grid)) <= set(range(1, 16))


def test_cqi_to_bytes_levels():
    assert cqi_to_bytes_per_rc(7) == 504
    assert cqi_to_bytes_per_rc(12) == 756
    assert cqi_to_bytes_per_rc(6) == 252
    all_vals = cqi_to_bytes_per_rc(np.arange(1, 16))
    assert set(all_vals.tolist()) == {252, 504, 756}
    assert np.all(np.diff(all_vals) >= 0)
    for bad in (0, 16, -3):
        with pytest.raises(ChannelError):
            cqi_to_bytes_per_rc(bad)


def _rngs(seed, n_ue):
    fading = [np.random.default_rng([seed, 4, u]) for u in range(n_ue)]
    interference = np.random.default_rng([seed, 5])
    return fading, interference


def _oracle_grid(topo, cfg, fading_rngs, interference_rng):
    """One TTI's grid, straight line: every static term recomputed, each UE's
    fading drawn for this TTI alone, and the interference draw written out."""
    mw = lambda dbm: np.power(10.0, np.asarray(dbm, dtype=float) / 10.0)
    n_rc = cfg.rc_count
    pc = pc_estimate_db(topo, cfg)
    ptx = uplink_tx_power(pc, cfg.prb_per_rc, cfg)
    signal = (ptx - (pc + topo.ue_shadow_db))[:, None]
    if cfg.fast_fading:
        fading = np.stack([10.0 * np.log10(fading_rngs[u].exponential(1.0, size=n_rc))
                           for u in range(topo.n_ues)])
        signal = signal + fading
    rng = interference_rng
    d_own = topo.cell_radius_m * np.sqrt(rng.uniform(0.0, 1.0, size=(6, n_rc)))
    d_own = np.maximum(d_own, cfg.min_ue_distance_m)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=(6, n_rc))
    pos = topo.neighbor_centers[:, None, :] + np.stack(
        [d_own * np.cos(theta), d_own * np.sin(theta)], axis=-1)
    d_serving = np.maximum(np.hypot(pos[..., 0], pos[..., 1]), cfg.min_ue_distance_m)
    ptx_own = uplink_tx_power(path_loss(d_own) + cfg.penetration_loss_db, cfg.prb_per_rc, cfg)
    shadow = rng.normal(0.0, cfg.shadowing_sigma_db, size=(6, n_rc))
    interference_dbm = ptx_own - (path_loss(d_serving) + cfg.penetration_loss_db + shadow)
    denom_dbm = 10.0 * np.log10(mw(cfg.noise_dbm_per_rc()) + mw(interference_dbm).sum(axis=0))
    return sinr_to_cqi(signal - denom_dbm[None, :], cfg.cqi_thresholds_db)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_ue=st.integers(1, 40),
       prb_per_rc=st.sampled_from([3, 6, 12]), fast_fading=st.booleans(),
       n_tti=st.integers(2 * FADING_BLOCK_TTIS + 1, 4 * FADING_BLOCK_TTIS))
@example(seed=1, n_ue=40, prb_per_rc=3, fast_fading=True, n_tti=3 * FADING_BLOCK_TTIS)
def test_grid_equals_per_tti_oracle(seed, n_ue, prb_per_rc, fast_fading, n_tti):
    # fading drawn ahead in blocks must not show: the same grids, TTI by TTI,
    # across at least two block boundaries
    cfg = ChannelConfig(prb_per_rc=prb_per_rc, fast_fading=fast_fading)
    topo = deploy(ScenarioConfig(seed=seed, n_ues=n_ue, channel=cfg),
                  np.random.default_rng([seed, 0]))
    src = CqiSource(topo, cfg, *_rngs(seed, n_ue))
    fading, interference = _rngs(seed, n_ue)
    for t in range(n_tti):
        got, want = src.grid(t), _oracle_grid(topo, cfg, fading, interference)
        assert got.dtype == want.dtype and np.array_equal(got, want), f"TTI {t}"


def test_realize_grid_deterministic_per_seed():
    topo = _topo([100.0, 200.0, 280.0])
    n_tti = 2 * FADING_BLOCK_TTIS + 5
    runs = []
    for _ in range(2):
        src = CqiSource(topo, CFG, *_rngs(42, 3))
        runs.append(np.stack([src.grid(t) for t in range(n_tti)]))
    assert np.array_equal(runs[0], runs[1])
    assert runs[0].shape == (n_tti, 3, CFG.rc_count)
    assert runs[0].min() >= 1 and runs[0].max() <= 15


def test_realize_grid_same_position_no_fading_identical_rows():
    topo = _topo([150.0, 150.0])
    cfg = ChannelConfig(fast_fading=False)
    src = CqiSource(topo, cfg, *_rngs(7, 2))
    for t in range(3):
        grid = src.grid(t)
        assert np.array_equal(grid[0], grid[1])


def test_cqi_trace_validation(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("7 12\n")
    with pytest.raises(ChannelError):
        load_cqi_trace(bad, n_ue=3, n_rc=1)
    bad.write_text("7 12 19\n")
    with pytest.raises(ChannelError):
        load_cqi_trace(bad, n_ue=3, n_rc=1)
    bad.write_text("")
    with pytest.raises(ChannelError):
        load_cqi_trace(bad, n_ue=3, n_rc=1)
    bad.write_text("7 7 7\n7 7 x\n")
    with pytest.raises(ChannelError, match=f"{bad}:2: .*'x'"):
        load_cqi_trace(bad, n_ue=3, n_rc=1)