"""Shared fixtures and reference-sequence helpers."""
from __future__ import annotations

import functools
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from chirpkey import ExperimentConfig, LoRaParams


@functools.lru_cache(maxsize=8)
def constant_bits(name: str, n: int) -> np.ndarray:
    """First n binary digits of pi or e, integer part included.

    This is the digit convention the classic randomness-suite worked
    examples use (pi starts 11.0010010000111111...).
    """
    mpmath.mp.prec = n + 64
    x = {"pi": mpmath.pi, "e": mpmath.e}[name]
    int_part = int(x)
    int_bits = bin(int_part)[2:]
    frac_len = n - len(int_bits)
    frac = int(mpmath.floor((x - int_part) * (1 << frac_len)))
    text = int_bits + bin(frac)[2:].zfill(frac_len)
    return np.array([int(c) for c in text[:n]], dtype=np.uint8)


def bits_from(text: str) -> np.ndarray:
    return np.array([int(c) for c in text if c in "01"], dtype=np.uint8)


@pytest.fixture
def default_params() -> LoRaParams:
    return LoRaParams()


@pytest.fixture
def small_params() -> LoRaParams:
    # sf=5 at critical sampling: 32 samples/symbol, fast exhaustive sweeps
    return LoRaParams(sf=5, bw=250e3, fs=250e3, preamble_len=4)


def cell_config(sf: int, snr_db: float) -> ExperimentConfig:
    """The reference config at one (SF, SNR) cell, as round-replay runs them."""
    ref = ExperimentConfig()
    return replace(ref, lora=replace(ref.lora, sf=sf), channel=replace(ref.channel, snr_db=snr_db))
