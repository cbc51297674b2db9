"""Each pin catches a one-line fault in the code it pins.

A mutant is one src function recompiled from its source with one edit and
patched in wherever a loaded module binds it, test modules included.  Under
each mutant, the pin test named with it must fail, called as pytest would
call it: the golden digests (``golden_problems()`` non-empty) or a
per-stage pin.  Every store the package keeps is cleared before and after
each mutant, as ``tests/test_kept_state.py`` clears them, so no result
computed under a mutant outlives it and none computed before it can hide it.
"""
import __future__

import importlib
import inspect
import sys

import pytest

import test_golden
import test_pipeline
import test_waveform
from test_kept_state import _clear_every_store

pytestmark = pytest.mark.slow


def _pin_fails(pin, *args):
    """A check that ``pin(*args)`` fails, given pytest's ``tmp_path`` if it takes one."""
    def check(tmp_path) -> None:
        takes_tmp = "tmp_path" in inspect.signature(pin).parameters
        with pytest.raises((AssertionError, pytest.fail.Exception)):
            pin(*args, **({"tmp_path": tmp_path} if takes_tmp else {}))
    return check


GOLDEN = _pin_fails(test_golden.test_golden_outputs_unchanged)
AMPLITUDES = _pin_fails(test_pipeline.test_front_end_amplitudes_match_pinned_bytes)
EXPORT = _pin_fails(test_pipeline.test_exported_capture_bytes_match_pin)
# at the default link's frame layout: the energy mutant below moves no pinned
# offset, amplitude or key, so only the threshold decision shows it
THRESHOLD = _pin_fails(test_waveform.test_detect_decides_at_the_threshold, (7, 250e3, 1e6), 8, 1)

# (module, function, text, its replacement, the pin that must fail)
MUTANTS = {
    "energy-one-term-short": ("waveform", "detect_preamble",
                              "cs[n:] - cs[:lags]", "cs[n - 1 : n - 1 + lags] - cs[:lags]",
                              THRESHOLD),
    "cfr-mean-over-k-minus-1": ("cfr", "_frame_bins", "bins /= k", "bins /= k - 1", AMPLITUDES),
    "block-std-ddof-1": ("quantizer", "_row_thresholds", "width /= m", "width /= m - 1",
                         GOLDEN),
    "consume-keeps-last-position": ("reconciliation", "consume_positions",
                                    "keep[positions,] = False", "keep[positions[:-1],] = False",
                                    GOLDEN),
    "qber-floor-0.02": ("reconciliation", "estimate_qber", "max(disagree, 0.01)",
                        "max(disagree, 0.02)", GOLDEN),
    "tap-sum-one-lag-short": ("channel", "_tap_sum", "min(taps.size, len(x))",
                              "min(taps.size, len(x)) - 1", GOLDEN),
    "imaginary-noise-negated": ("channel", "apply_channel", "noise.imag = z[n:]",
                                "noise.imag = -z[n:]", EXPORT),
    "complex128-frame-buffer": ("pipeline", "simulate_probe_frames", "dtype=CAPTURE_DTYPE",
                                "dtype=np.complex128", AMPLITUDES),
}


def _mutant(module, name: str, text: str, replacement: str):
    """``module.name`` recompiled with its one ``text`` replaced."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(text) == 1, f"{name} has {source.count(text)} of {text!r}"
    namespace = dict(vars(module))  # a copy: the module's own binding stays
    code = compile(source.replace(text, replacement), inspect.getsourcefile(module), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    exec(code, namespace)
    return namespace[name]


def _patch_everywhere(monkeypatch, original, mutant) -> int:
    """Rebind every module-level name bound to ``original``, in the package
    and in the test modules that import it by name; the count."""
    patched = 0
    for module in list(sys.modules.values()):
        for attr, value in list(getattr(module, "__dict__", {}).items()):
            if value is original:
                monkeypatch.setattr(module, attr, mutant)
                patched += 1
    return patched


@pytest.fixture
def cleared_stores():
    _clear_every_store()
    yield
    _clear_every_store()


@pytest.mark.parametrize("mutant", MUTANTS)
def test_mutant_is_caught(mutant, monkeypatch, tmp_path, cleared_stores):
    module_name, name, text, replacement, check = MUTANTS[mutant]
    module = importlib.import_module(f"chirpkey.{module_name}")
    original = getattr(module, name)
    assert _patch_everywhere(monkeypatch, original,
                             _mutant(module, name, text, replacement)) >= 1
    check(tmp_path)
