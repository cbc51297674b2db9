"""A listener that fits the simulator's L-tap channel to the public censoring.

It reads only what the parties publish and the public config: the retained
positions, the trial's shuffle seed, alpha, the block size, num_taps and the
tap prior's decay.  G's amplitudes are modelled as |sum_l h_l e^(-j 2 pi b l / N)|
over the shuffled bins b; a retained position is one whose standardised
amplitude lies outside +/-alpha, a censored one inside.
"""
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import least_squares

from chirpkey import ExperimentConfig
from chirpkey.channel import exponential_profile
from chirpkey.pipeline import observe
from chirpkey.quantizer import quantize_pipeline, shuffle


def _listener_bits(retained, shuffle_seed, n, alpha, block_size, num_taps, decay_db):
    bins = shuffle(np.arange(n), shuffle_seed)  # the FFT bin at each shuffled position
    steer = np.exp(-2j * np.pi * np.outer(bins, np.arange(num_taps)) / n)
    censored = np.ones(n, dtype=bool)
    censored[retained] = False

    def z_of(x):
        amps = np.abs(steer @ (x[:num_taps] + 1j * x[num_taps:])).reshape(-1, block_size)
        return ((amps - amps.mean(axis=1, keepdims=True)) / amps.std(axis=1, keepdims=True)).ravel()

    def residual(x):
        mag = np.abs(z_of(x))
        return np.where(censored, np.maximum(mag - alpha, 0.0), np.maximum(alpha - mag, 0.0))

    rng = np.random.default_rng(0)
    scale = np.sqrt(np.tile(exponential_profile(num_taps, decay_db), 2) / 2)
    fits = [least_squares(residual, scale * rng.standard_normal(2 * num_taps), method="trf")
            for _ in range(10)]
    best = min(fits, key=lambda fit: fit.cost)
    return (z_of(best.x)[retained] >= 0).astype(np.uint8)


@pytest.mark.slow
def test_listener_recovers_g_key_from_the_public_discussion():
    cfg = ExperimentConfig()
    close = []
    for t in range(10):
        obs = observe(cfg, t)
        qcfg = replace(cfg.quantizer, shuffle_seed=obs.seeds.shuffle)
        (_, key_g), retained = quantize_pipeline([obs.amps_a, obs.amps_g], qcfg)
        guess = _listener_bits(retained, qcfg.shuffle_seed, len(obs.amps_g), qcfg.alpha,
                               qcfg.block_size, cfg.channel.num_taps, cfg.channel.decay_db)
        wrong = np.mean(guess != key_g.bits)
        close.append(min(wrong, 1.0 - wrong) <= 0.05)  # the polarity is not observable
    assert sum(close) >= 8, close
