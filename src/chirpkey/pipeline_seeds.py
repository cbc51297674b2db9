"""Splittable per-trial seed derivation.

Every trial draws from an independent SeedSequence keyed by (master_seed,
trial_index), so reordering or re-running one trial never perturbs another,
and identical configs reproduce bit-identical experiments.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class TrialSeeds:
    channel: np.random.SeedSequence
    noise_g: np.random.SeedSequence
    noise_a: np.random.SeedSequence
    noise_e: np.random.SeedSequence
    shuffle: int
    qber: int
    cascade: int


@lru_cache(maxsize=8, typed=True)
def derive_trial_seeds(master_seed: int, trial_index: int) -> TrialSeeds:
    """The seeds of one trial, cached per (master_seed, trial_index).

    A trial that is exported and then replayed, or observed once per
    distinct channel, derives them once.  The returned ``TrialSeeds`` and
    its ``SeedSequence`` members are shared by every caller: seed generators
    from them (``default_rng``), never ``spawn`` from them.
    """
    if trial_index < 0:
        raise ParameterError(f"trial index must be >= 0, got {trial_index}")
    root = np.random.SeedSequence((master_seed, trial_index))
    channel, noise_g, noise_a, noise_e, rest = root.spawn(5)
    shuffle_s, qber_s, cascade_s = (int(s.generate_state(1)[0]) for s in rest.spawn(3))
    return TrialSeeds(
        channel=channel,
        noise_g=noise_g,
        noise_a=noise_a,
        noise_e=noise_e,
        shuffle=shuffle_s,
        qber=qber_s,
        cascade=cascade_s,
    )
