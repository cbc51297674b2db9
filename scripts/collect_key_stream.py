#!/usr/bin/env python3
"""Concatenate reconciled keys from many probing rounds into one bit file.

Useful for feeding the randomness suite (``chirpkey nist --bits FILE``),
which needs far more bits than a single round yields.
"""
import argparse

from chirpkey import ExperimentConfig, rounds


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min-bits", type=int, default=100_000)
    ap.add_argument("--master-seed", type=int, default=1)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    cfg = ExperimentConfig(master_seed=args.master_seed)
    keys = (result.reconciliation.corrected_key for (result,) in rounds(cfg))
    total = used = 0
    with open(args.out, "w") as fh:
        while total < args.min_bits:
            key = next(keys)
            fh.write(str(key) + "\n")
            total += len(key)
            used += 1
    print(f"wrote {total} bits from {used} rounds to {args.out}")


if __name__ == "__main__":
    main()
