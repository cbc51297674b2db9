"""Each benchmark workload's traced op still does what its op does.

perfbench's traced rounds call the pipeline's public steps one by one, so a
step that is renamed, re-signed or removed breaks the benchmark; here that
shows before the benchmark runs.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads").WORKLOADS
Tracer = _load("tracing").Tracer


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_op_equals_the_op(name, tmp_path):
    workload = WORKLOADS[name](3, str(tmp_path))
    try:
        inp = workload.make_input(0)
        want = workload.summarize(inp, workload.run(inp))
        assert workload.summarize(inp, workload.run_traced(inp, Tracer())) == want
    finally:
        workload.after_op()
        workload.close()
