#!/usr/bin/env python3
"""Generate synthetic IQ capture files for the capture-replay path.

Simulates one probing round and serializes the three receptions (A->G,
G->A, eavesdropper) as interleaved little-endian float32 files, then
demonstrates that replaying them reproduces the simulated round exactly.
"""
import argparse
from dataclasses import replace

from chirpkey import ExperimentConfig, export_probe_captures, run_captures


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dir", default=".", help="output directory")
    ap.add_argument("--trial-seed", type=int, default=0)
    ap.add_argument("--master-seed", type=int, default=1)
    args = ap.parse_args()

    cfg = ExperimentConfig(master_seed=args.master_seed)
    paths = export_probe_captures(cfg, args.trial_seed, args.dir)
    for role, path in paths.items():
        print(f"{role}: {path}")

    result = run_captures(
        replace(
            cfg,
            capture_a2g=paths["a2g"],
            capture_g2a=paths["g2a"],
            capture_eve=paths["eve"],
        ),
        trial_seed=args.trial_seed,
    )
    print(f"replay: key_bits={result.metrics.key_bits} skdr={result.metrics.skdr:.4f} "
          f"confirmed={str(result.confirmation.matched).lower()}")


if __name__ == "__main__":
    main()
