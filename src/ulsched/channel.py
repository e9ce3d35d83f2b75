"""Uplink channel model: cell geometry, macro NLOS path loss, lognormal
shadowing, open-loop power control, first-tier interference, and the mapping
from SINR to CQI to transmittable bytes per resource chunk.

One resource chunk (RC) is prb_per_rc contiguous PRBs scheduled for one TTI.
Channel quality is block fading: constant within a TTI, redrawn per TTI.

`CqiSource` is the one realization path. It computes the static link terms
once. Every FADING_BLOCK_TTIS `grid` calls (one per TTI, in TTI order) it
draws a block of Rayleigh fading and interference and maps the block's SINR
to CQI once; each call returns its TTI's slice as a fresh int64 array. The
realization is as per TTI: every UE owns its fading generator, the
interference stream keeps its per-TTI draw order, a fill of N values yields
the same values as N smaller draws in turn, and the map is elementwise. A
replayed trace (`load_cqi_trace`) is indexed by the engine, not the model.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

PRB_BANDWIDTH_HZ = 180e3  # 12 subcarriers x 15 kHz
FADING_BLOCK_TTIS = 16  # TTIs of Rayleigh fading drawn per UE at a time


class ChannelError(ValueError):
    pass


def _default_cqi_thresholds():
    # 15 evenly spaced SINR thresholds, CQI k applies on [t_k, t_{k+1})
    return tuple(-6.0 + 2.0 * i for i in range(15))


@dataclass(frozen=True)
class ChannelConfig:
    inter_site_distance_m: float = 500.0
    n_prb_data: int = 48
    prb_per_rc: int = 6
    p_max_dbm: float = 24.0
    p_o_dbm: float = -106.0
    alpha_pc: float = 1.0
    shadowing_sigma_db: float = 4.0
    penetration_loss_db: float = 20.0  # indoor users, macro evaluation convention
    noise_figure_db: float = 5.0
    thermal_noise_dbm_hz: float = -174.0
    min_ue_distance_m: float = 35.0
    fast_fading: bool = True
    cqi_thresholds_db: tuple = field(default_factory=_default_cqi_thresholds)

    @property
    def rc_count(self) -> int:
        return self.n_prb_data // self.prb_per_rc

    @property
    def cell_radius_m(self) -> float:
        # hexagonal cells approximated as discs with the hex circumradius
        return self.inter_site_distance_m / math.sqrt(3.0)

    def noise_dbm_per_rc(self) -> float:
        bw = self.prb_per_rc * PRB_BANDWIDTH_HZ
        return self.thermal_noise_dbm_hz + 10.0 * math.log10(bw) + self.noise_figure_db


@dataclass(frozen=True)
class Topology:
    """Serving cell at the origin, six first-tier cells, static UEs."""

    neighbor_centers: np.ndarray  # (6, 2) meters
    ue_xy: np.ndarray             # (n_ue, 2) meters
    ue_distance_m: np.ndarray     # (n_ue,) to the serving site
    ue_shadow_db: np.ndarray      # (n_ue,) lognormal shadowing, drawn once
    cell_radius_m: float

    @property
    def n_ues(self) -> int:
        return len(self.ue_distance_m)


def path_loss(distance_m) -> float:
    """Macro NLOS path loss in dB: 128.1 + 37.6 log10(d_km)."""
    d = np.asarray(distance_m, dtype=float)
    if (d <= 0).any():
        raise ChannelError("distance must be positive")
    out = 128.1 + 37.6 * np.log10(d / 1000.0)
    return out.item() if out.ndim == 0 else out


def uplink_tx_power(pl_db, n_prb, cfg: ChannelConfig):
    """Open-loop power control: min(P_max, P_o + 10 log10(n_prb) + alpha*PL).

    pl_db is the loss estimate the UE compensates: the distance-dependent
    path loss plus penetration (what a reference-signal average exposes);
    the shadowing realization stays uncompensated. Users whose estimate
    pushes the uncapped value past P_max transmit at P_max and arrive
    correspondingly weaker: cell-edge users are power-limited.
    """
    if n_prb < 1:
        raise ChannelError("n_prb must be >= 1")
    raw = cfg.p_o_dbm + 10.0 * math.log10(n_prb) + cfg.alpha_pc * np.asarray(pl_db, dtype=float)
    out = np.minimum(cfg.p_max_dbm, raw)
    return out.item() if out.ndim == 0 else out


def pc_estimate_db(topo: Topology, cfg: ChannelConfig):
    """The loss each UE compensates via power control."""
    return path_loss(topo.ue_distance_m) + cfg.penetration_loss_db


def _dbm_to_mw(dbm):
    return np.power(10.0, np.asarray(dbm, dtype=float) / 10.0)


def sinr_to_cqi(sinr_db, thresholds=None):
    """Piecewise-constant step map onto CQI 1..15; [t_k, t_{k+1}) -> k,
    clamped below t_1 to 1 and at or above t_15 to 15. NaN maps to 1."""
    thr = thresholds if thresholds is not None else _default_cqi_thresholds()
    out = _cqi_count(np.asarray(sinr_db, dtype=float), np.asarray(thr, dtype=float))
    return int(out) if out.ndim == 0 else out.astype(np.int64)


def _cqi_count(sinr_db, thresholds):
    """sinr_to_cqi in int8: 1 plus the number of thresholds[1:] at or below the SINR."""
    out = np.ones(sinr_db.shape, dtype=np.int8)
    for t in thresholds[1:].tolist():
        out += sinr_db >= t
    return out


_CQI_BYTES = np.array([0, 252, 252, 252, 252, 252, 252, 504, 504, 504,
                       756, 756, 756, 756, 756, 756], dtype=np.int64)


def cqi_to_bytes_per_rc(cqi):
    """Transmittable bytes on one RC in one TTI: QPSK 252, 16-QAM 504,
    64-QAM 756 (coding overhead ignored)."""
    c = np.asarray(cqi)
    if c.size and (c.min() < 1 or c.max() > 15):
        raise ChannelError(f"CQI out of range 1..15: {cqi}")
    out = _CQI_BYTES[c]
    return out.item() if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# block realization
# ---------------------------------------------------------------------------

def draw_fading_db(rngs, out) -> None:
    """Fill out[u], UE u's (FADING_BLOCK_TTIS, rc_count) block, from rngs[u] with
    Rayleigh-equivalent power fading in dB: 10 log10 X with X ~ Exp(1)."""
    for rng, block in zip(rngs, out):
        rng.standard_exponential(out=block)
    np.log10(out, out=out)
    out *= 10.0


def interference_block_dbm(topo: Topology, cfg: ChannelConfig, rng, draws) -> np.ndarray:
    """Received interference power (FADING_BLOCK_TTIS, 6, rc_count) dBm at the
    serving site. Per TTI and RC each first-tier cell holds one uniformly
    placed UE transmitting under the same power-control law toward its own
    site. `draws` holds the block's radius and angle uniforms and shadowing
    normals, (3, FADING_BLOCK_TTIS, 6, rc_count), refilled in TTI order.
    """
    radius, angle, shadow = draws
    for t in range(FADING_BLOCK_TTIS):
        rng.random(out=radius[t])
        rng.random(out=angle[t])
        rng.standard_normal(out=shadow[t])
    d_own = np.maximum(topo.cell_radius_m * np.sqrt(radius), cfg.min_ue_distance_m)
    theta = angle * (2.0 * math.pi)
    x = topo.neighbor_centers[:, 0, None] + d_own * np.cos(theta)
    y = topo.neighbor_centers[:, 1, None] + d_own * np.sin(theta)
    d_serving = np.maximum(np.hypot(x, y), cfg.min_ue_distance_m)
    ptx = uplink_tx_power(path_loss(d_own) + cfg.penetration_loss_db, cfg.prb_per_rc, cfg)
    return ptx - (path_loss(d_serving) + cfg.penetration_loss_db
                  + cfg.shadowing_sigma_db * shadow)


# ---------------------------------------------------------------------------
# trace fixtures
# ---------------------------------------------------------------------------

def load_cqi_trace(path, n_ue: int, n_rc: int) -> np.ndarray:
    """Read a CQI trace: one line per TTI, whitespace-separated ints,
    row-major (UE-major, RC-minor). Returns int8 CQIs, (n_tti, n_ue, n_rc).

    numpy parses the file in one pass; a file it rejects (an int8 overflow
    such as `300` included), or whose shape or values fail the checks, is
    re-read by `_read_cqi_lines`, which names the first bad `path:line` and
    alone reads the digits only int() accepts (`0_7`, non-ASCII digits), so
    both paths accept the same files as the same arrays. loadtxt reads an
    open handle: from a path it would decompress a .gz, .bz2 or .xz file.
    """
    with open(path) as fh, warnings.catch_warnings():
        warnings.simplefilter("error")  # an empty file only warns
        try:
            flat = np.loadtxt(fh, dtype=np.int8, ndmin=2, comments=None)
        except (ValueError, Warning):
            flat = None
    if (flat is None or flat.shape[1] != n_ue * n_rc or not len(flat)
            or flat.min() < 1 or flat.max() > 15):
        return _read_cqi_lines(path, n_ue, n_rc)
    return flat.reshape(-1, n_ue, n_rc)


def _read_cqi_lines(path, n_ue, n_rc):
    """The line-by-line reader: raises ChannelError naming `path:line`."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != n_ue * n_rc:
                raise ChannelError(
                    f"{path}:{lineno}: expected {n_ue * n_rc} values, got {len(parts)}")
            try:
                vals = [int(p) for p in parts]
            except ValueError as err:
                raise ChannelError(f"{path}:{lineno}: {err}") from None
            if not all(1 <= v <= 15 for v in vals):
                raise ChannelError(f"{path}:{lineno}: CQI values must be in 1..15")
            rows.append(np.array(vals, dtype=np.int8).reshape(n_ue, n_rc))
    if not rows:
        raise ChannelError(f"{path}: empty CQI trace")
    return np.stack(rows)


class CqiSource:
    """Per-TTI CQI grids (n_ue, rc_count) realized from the geometric model.

    Call `grid` once per TTI in TTI order: the k-th call returns the k-th
    TTI's grid whatever `tti` says. fading_rngs holds one generator per UE,
    so adding a UE never perturbs the draws of the others; interference
    placement uses its own stream. Every FADING_BLOCK_TTIS calls draw the
    next block and map its whole SINR to CQI at once; each grid is a fresh
    int64 array, the same as with per-TTI draws and maps, deterministic for
    a fixed master seed.
    """

    def __init__(self, topo, cfg, fading_rngs, interference_rng):
        self._topo = topo
        self._cfg = cfg
        self._fading_rngs = fading_rngs
        self._interference_rng = interference_rng
        self._calls = 0
        pc = pc_estimate_db(topo, cfg)
        ptx = uplink_tx_power(pc, cfg.prb_per_rc, cfg)
        self._signal = (ptx - (pc + topo.ue_shadow_db))[:, None, None]  # dBm
        self._noise_mw = _dbm_to_mw(cfg.noise_dbm_per_rc())
        self._thresholds = np.asarray(cfg.cqi_thresholds_db, dtype=float)
        # per block: signal plus fading (n_ue, TTI, RC), the draws
        # (3, TTI, 6, RC) and the int8 CQI (n_ue, TTI, RC)
        block = (FADING_BLOCK_TTIS, cfg.rc_count)
        self._faded = np.broadcast_to(self._signal, (topo.n_ues,) + block).copy()
        self._draws = np.empty((3, FADING_BLOCK_TTIS, 6, cfg.rc_count))

    def grid(self, tti: int) -> np.ndarray:
        i = self._calls % FADING_BLOCK_TTIS
        self._calls += 1
        if i == 0:
            if self._cfg.fast_fading:
                draw_fading_db(self._fading_rngs, self._faded)
                self._faded += self._signal
            interference = interference_block_dbm(self._topo, self._cfg,
                                                  self._interference_rng, self._draws)
            denom = 10.0 * np.log10(self._noise_mw + _dbm_to_mw(interference).sum(axis=1))
            self._cqi = _cqi_count(self._faded - denom, self._thresholds)
        return self._cqi[:, i].astype(np.int64)
