"""Golden output: proof that a speed-up left the pipeline's outputs bit-identical.

Two SHA-256 values, pinned in ``golden.json``:

- over the confirmation digests (A's then G's) of reference-config trials
  0..199 at master seed 1;
- over the bytes of a paired alpha sweep CSV at alpha 0.3 and 0.7, 10 trials
  per arm.

An intended behaviour change re-pins both by running this file
(``python3 perfbench/golden.py``) and says why in CHANGES.md.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

PINNED = Path(__file__).resolve().with_name("golden.json")


def golden_values() -> dict[str, str]:
    from chirpkey.config import ExperimentConfig
    from chirpkey.pipeline import rows_to_csv, run_pipeline_once, run_sweep

    rounds = hashlib.sha256()
    config = ExperimentConfig()
    for trial in range(200):
        confirmation = run_pipeline_once(config, trial).confirmation
        rounds.update(confirmation.digest_a.digest + confirmation.digest_g.digest)
    sweep = ExperimentConfig(trials=10, sweep_axis="alpha", sweep_values=(0.3, 0.7))
    csv = rows_to_csv(run_sweep(sweep)).encode("ascii")
    return {
        "round_digests_sha256": rounds.hexdigest(),
        "alpha_sweep_csv_sha256": hashlib.sha256(csv).hexdigest(),
    }


def golden_problems() -> list[str]:
    pinned = json.loads(PINNED.read_text())
    actual = golden_values()
    return [f"golden {key}: {actual[key]} != pinned {pinned[key]}"
            for key in pinned if actual[key] != pinned[key]]


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    print(json.dumps(golden_values(), indent=2))
