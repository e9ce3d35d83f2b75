#!/usr/bin/env python3
"""Deploy a cell, realize a few CQI grids, and look at the channel spread.

The serving site sits at the origin with six first-tier interferer cells.
Per TTI, every (user, chunk) pair gets an SINR from open-loop power control,
distance path loss, static shadowing, Rayleigh fading, and one interfering
user per neighbor cell, then quantizes to CQI 1..15 and a byte capacity.
"""

import numpy as np

from ulsched.channel import CqiSource, cqi_to_bytes_per_rc, path_loss
from ulsched.engine import ScenarioConfig, deploy
from ulsched.metrics import worst_user

cfg = ScenarioConfig(seed=5, n_ues=12)
topo = deploy(cfg, np.random.default_rng([cfg.seed, 0]))

print(f"{topo.n_ues} users in a cell of radius {topo.cell_radius_m:.0f} m")
print(f"{'ue':>3} {'dist m':>7} {'PL dB':>7} {'shadow':>7} {'loss dB':>8}")
loss = path_loss(topo.ue_distance_m) + topo.ue_shadow_db
for ue in range(topo.n_ues):
    print(f"{ue:>3} {topo.ue_distance_m[ue]:>7.0f} "
          f"{path_loss(topo.ue_distance_m[ue]):>7.1f} "
          f"{topo.ue_shadow_db[ue]:>7.1f} {loss[ue]:>8.1f}")
worst = worst_user(topo)
print(f"worst user by coupling loss: ue {worst}")

fading = [np.random.default_rng([cfg.seed, 4, u]) for u in range(topo.n_ues)]
interference = np.random.default_rng([cfg.seed, 5])
source = CqiSource(topo, cfg.channel, fading, interference)
cqi = np.stack([source.grid(t) for t in range(200)])  # one call per TTI, in order

print(f"\nCQI over 200 TTIs x {cfg.channel.rc_count} chunks:")
print(f"{'ue':>3} {'mean':>5} {'min':>4} {'max':>4} {'bytes/chunk':>12}")
for ue in range(topo.n_ues):
    row = cqi[:, ue, :]
    mean_bytes = cqi_to_bytes_per_rc(row.ravel()).mean()
    print(f"{ue:>3} {row.mean():>5.1f} {row.min():>4} {row.max():>4} {mean_bytes:>12.0f}")
print(f"\nworst user (ue {worst}) mean CQI: {cqi[:, worst, :].mean():.1f}; "
      f"cell mean: {cqi.mean():.1f}")
