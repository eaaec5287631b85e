"""Compare how completion latency scales with vehicle count under the
slotted MAC versus the contention (CSMA) baseline.

Each count runs several random connected placements; the table reports the
mean latency over the trials that completed, plus how many stalled. Runs can
legitimately stall, and the sweep records that rather than hiding it: a deaf
transmitter whose last frame was lost to capture never re-sends, and a
vehicle holding 01 where another holds 00 keeps it, as neither senses the
cell and a merge keeps the receiver's own unsensed value. These presets' point
vehicles without objects never hold a 01 cell, so their stalls are all of the
first kind.

Run with:  python demos/scaling_sweep.py
"""

from dataclasses import replace

import numpy as np

from zonecast import PRESETS, sweep

preset = PRESETS["paper-fig8"]
counts = list(preset.counts)
trials = preset.trials
seed = preset.base.seed

print(f"counts {counts[0]}..{counts[-1]}, {trials} trials per count, "
      f"master seed {seed}\n")

results = {}
for mode in ("l3", "csma"):
    rows = sweep(replace(preset.base, mac_mode=mode), counts, trials, seed)
    results[mode] = rows

print(f"{'count':>5} | {'slotted ms':>10} {'ok':>5} | {'csma ms':>10} {'ok':>5}")
print("-" * 47)
for count in counts:
    cells = {}
    for mode in ("l3", "csma"):
        sub = [r for r in results[mode] if r["count"] == count]
        done = [r["latency_ms"] for r in sub if r["converged"]]
        mean = f"{np.mean(done):10.2f}" if done else f"{'-':>10}"
        cells[mode] = (mean, f"{len(done)}/{len(sub)}")
    print(f"{count:>5} | {cells['l3'][0]} {cells['l3'][1]:>5} | "
          f"{cells['csma'][0]} {cells['csma'][1]:>5}")

print()
l3_means, cs_means, xs = [], [], []
for count in counts:
    a = [r["latency_ms"] for r in results["l3"] if r["count"] == count and r["converged"]]
    b = [r["latency_ms"] for r in results["csma"] if r["count"] == count and r["converged"]]
    if a and b:
        xs.append(count)
        l3_means.append(np.mean(a))
        cs_means.append(np.mean(b))
slope_l3 = np.polyfit(xs, l3_means, 1)[0]
slope_cs = np.polyfit(xs, cs_means, 1)[0]
print(f"latency growth per added vehicle: slotted {slope_l3:.2f} ms, "
      f"csma {slope_cs:.2f} ms")
print("the contention baseline pays for backoff and serial retransmission;")
print("the slotted protocol amortizes both through simultaneous identical")
print("frames (constructive interference) and the capture effect.")
