"""Record the output digests that the benchmark checks runs against.

    PYTHONPATH=src python3 perfbench/record_digests.py

Runs one batch of every workload at the default seed and at the held-out
seed and rewrites perfbench/digests.json. Re-record only when a change is
meant to alter simulated output, and say so in that change.
"""

from __future__ import annotations

import json

import workloads

DEFAULT_SEED = 42  # paper-fig7's own master seed
HELD_OUT_SEED = 7  # not used while tuning a change; its claim must hold here too


def main() -> None:
    recorded = {
        name: {
            str(seed): workloads.batch_digests(workloads.execute(workloads.generate(name, seed)))
            for seed in (DEFAULT_SEED, HELD_OUT_SEED)
        }
        for name in workloads.WORKLOADS
    }
    with open(workloads.DIGESTS_PATH, "w") as f:
        json.dump(
            {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED, "workloads": recorded},
            f,
            indent=1,
        )
        f.write("\n")


if __name__ == "__main__":
    main()
