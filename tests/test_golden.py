"""The pipeline's outputs still match the benchmark's pinned golden digests.

A behaviour change that alters any key fails here, before the benchmark runs.
An intended one re-pins ``perfbench/golden.json`` as ``perfbench/golden.py``
describes.
"""
import importlib.util
from pathlib import Path

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.py"


def test_golden_outputs_unchanged():
    spec = importlib.util.spec_from_file_location("perfbench_golden", GOLDEN)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    assert golden.golden_problems() == []
