"""Replay the bundled three-vehicle line scenario slot by slot.

Vehicle 2 sits between vehicles 1 and 3 and blocks part of vehicle 1's view,
so vehicle 1 starts the exchange with UNCERTAIN cells in its matrix. The
trace shows every slot: who transmitted, and per vehicle whether it decoded
a frame (D<sender>), saw a collision (C), or heard silence (S).

Run with:  python demos/line_exchange.py
"""

import numpy as np

from zonecast import (
    BlockState,
    build_world,
    bundled_scenario,
    format_matrix,
    load_scenario,
    perceive,
    run,
)

cfg = load_scenario(bundled_scenario("fig5_line3"))
zone, vehicles, world = build_world(cfg)

print("vehicles:", ", ".join(f"{vid} at {pos}" for vid, pos in vehicles))
print()

# Vehicle 1's view before any exchange: the cells behind vehicle 2 are 01.
v1 = perceive(1, vehicles[0][1], world, zone, cfg.grid, cfg.sensing_range)
unc = np.argwhere(v1.cells == BlockState.UNCERTAIN)
print(f"vehicle 1 starts with {len(unc)} UNCERTAIN cell(s) at (row, col): "
      f"{[tuple(map(int, rc)) for rc in unc]}")
print()

metrics = run(cfg)
for line in metrics.trace:
    print(line)
print()
print(f"converged={metrics.converged}  quiescent_slot={metrics.quiescent_slot}  "
      f"latency={metrics.latency_ms} ms")
print(f"transmissions per vehicle: {metrics.tx_slots}")
print()

# Things worth noticing in the trace:
#  * slot 2: vehicles 2 and 3 answer simultaneously with different payloads;
#    vehicle 1 is closer to vehicle 2, so the capture effect lets it decode
#    vehicle 2's frame instead of losing both to a collision.
#  * slot 5: vehicles 1 and 2 transmit the identical merged matrix; the
#    byte-identical frames interfere constructively and vehicle 3 decodes.
#  * slot 6: nobody has anything new - the network is quiescent.

final = metrics.final_matrix.cells
resolved = final[tuple(np.array(unc).T)]
print("vehicle 1's formerly-UNCERTAIN cells resolved to:",
      [f"{int(v):02b}" for v in resolved])
print()
print("final shared matrix (north row first):")
print(format_matrix(metrics.final_matrix))
