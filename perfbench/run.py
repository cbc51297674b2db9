"""chirpkey benchmark: one workload, one seed, one timed closed loop.

    python3 perfbench/run.py --workload round-default --seed 1 --seconds 20 --trace 0

Workloads (workloads.py; BENCHMARK.json says why each is there):
round-default, round-replay, cascade-grid, nist-stream.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same ops untraced for half the time and traced for
the other half, and reports the per-layer metrics: time per op in every
span, each module's self time, counters, ``pipeline.unattributed_ms`` and
the tracing overhead (untraced minus traced ops/s).  Spans are written to
``perfbench/out/trace-<workload>-<seed>.jsonl``.

Op times are scaled to a reference machine speed (calibration.py); the raw
figures are printed too.  Every run checks the outputs: the golden digests
(golden.py), the workload's own checks, and in a traced run that every
traced op gives the same result as the untraced op.  Human-readable lines
come first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  An end-to-end metric a workload
does not produce (such as ``eve_skdr_mean`` on ``nist-stream``) reads
``NOT_APPLICABLE``; a per-layer metric of a layer the workload never calls
reads 0.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3
NOT_APPLICABLE = 1.0


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("round-default", "round-replay", "cascade-grid", "nist-stream"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def import_seconds(workload: str, seed: int, workdir: Path) -> float:
    """Median over fresh interpreters of importing the package and building the config.

    Not scaled to machine speed: the kernel reacts to a busy neighbour far
    more than an import does.
    """
    samples = []
    for _ in range(SETUP_REPS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(workdir)],
            capture_output=True, text=True, timeout=150, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


@dataclass
class Loop:
    raw: list[float]          # seconds per op, as measured
    records: list             # per op; None where the op raised an expected error
    factors: list[float]      # per op, to reference machine speed

    @property
    def scaled(self) -> list[float]:
        return [t * f for t, f in zip(self.raw, self.factors)]

    def ops_per_s(self) -> float:
        return len(self.raw) / sum(self.scaled)


def timed_loop(workload, seconds: float, op) -> Loop:
    """Closed loop: ``op(i, input)`` back to back until ``seconds`` have passed.

    Input generation, summarising, clean-up and the calibration kernel run
    between ops and are not timed.
    """
    from workloads import EXPECTED_ERRORS

    raw, records, kernel = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        inp = workload.make_input(i)
        start = time.perf_counter()
        try:
            out = op(i, inp)
        except EXPECTED_ERRORS:
            out = None
        except Exception:
            print(f"op {i} raised; input: {workload.describe(i)}", file=sys.stderr)
            raise
        end = time.perf_counter()
        raw.append(end - start)
        records.append(None if out is None else workload.summarize(inp, out))
        workload.after_op()
        kernel.append(calibration.sample(calibration.SHARE * raw[-1]))
        i += 1
        if end >= deadline:
            return Loop(raw, records, calibration.op_factors(kernel))


def untraced_record(workload, records: list, i: int):
    """The untraced loop's record of op ``i``, computed now if that loop stopped earlier."""
    from workloads import EXPECTED_ERRORS

    if i < len(records):
        return records[i]
    inp = workload.make_input(i)
    try:
        record = workload.summarize(inp, workload.run(inp))
    except EXPECTED_ERRORS:
        record = None
    workload.after_op()
    return record


def tail(times_ms: list[float]) -> tuple[str, float]:
    """Highest percentile with at least 10 samples above it (max below 11 samples)."""
    xs = sorted(times_ms)
    n = len(xs)
    if n < 11:
        return f"max of {n}", xs[-1]
    return f"p{100 * (n - 11) / (n - 1):.2f} of {n}", xs[n - 11]


def end_to_end(workload, loop: Loop, setup_s: float) -> tuple[dict[str, float], list[str]]:
    ms = [t * 1000 for t in loop.scaled]
    label, tail_ms = tail(ms)
    failed = sum(r is None for r in loop.records)
    values = {
        "setup_s": setup_s,
        "ops_per_s": loop.ops_per_s(),
        "op_ms_p50": statistics.median(ms),
        "op_ms_tail": tail_ms,
        "ok_ratio": 1 - failed / len(loop.records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    values.update(workload.quality(loop.records))
    raw_ms = [t * 1000 for t in loop.raw]
    return values, [
        f"op_ms_tail is the {label} op times",
        f"failed_ratio {failed}/{len(loop.records)} = {failed / len(loop.records)}",
        f"raw (unscaled): ops_per_s {len(raw_ms) / sum(loop.raw)}, "
        f"op_ms_p50 {statistics.median(raw_ms)}, op_ms_tail {tail(raw_ms)[1]}",
        f"machine speed: median scale factor {statistics.median(loop.factors)}",
    ]


def per_layer(workload, tracer, loop: Loop, untraced_rate: float) -> dict[str, float]:
    """Per-op means of span times and module self times; counters are means
    over the values recorded (one per round, or per cascade call on the grid).

    A span ``a.b.<cell>`` counts towards ``a.b_ms`` and ``a.b_ms.<cell>``.
    """
    n = len(loop.raw)
    values: dict[str, float] = defaultdict(float)
    for op_id, per_op in tracer.per_op_totals().items():
        scale = 1000 * loop.factors[op_id] / n
        for key, seconds in per_op.items():
            parts = key.split(".", 2)
            values[".".join(parts[:2]) + "_ms"] += seconds * scale
            if len(parts) == 3:
                values[f"{parts[0]}.{parts[1]}_ms.{parts[2]}"] += seconds * scale
    values["pipeline.unattributed_ms"] = values.pop("pipeline.self_ms")
    values.update({key: statistics.fmean(vs) for key, vs in tracer.counts.items()})
    if hasattr(workload, "cell_efficiency"):
        for cell, f in workload.cell_efficiency(loop.records).items():
            values[f"reconciliation.efficiency_f.{cell}"] = f
        values["reconciliation.residual_error_ratio"] = workload.quality(loop.records)[
            "residual_error_ratio"]
    values["trace.overhead_ops_per_s"] = untraced_rate - loop.ops_per_s()
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "chirpkey" / "__init__.py").is_file():
        sys.exit(f"chirpkey sources not found under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))

    from golden import golden_problems
    from tracing import Tracer
    from workloads import EXPECTED_ERRORS, WORKLOADS

    e2e_units, layer_units = declared_metrics()
    workdir = HERE / "out"
    workdir.mkdir(exist_ok=True)
    setup_s = 0.0 if args.trace else import_seconds(args.workload, args.seed, workdir)

    workload = WORKLOADS[args.workload](args.seed, str(workdir))
    try:
        # warm-up op: caches filled and lazy set-up done before timing
        start = time.perf_counter()
        try:
            workload.run(workload.make_input(0))
        except EXPECTED_ERRORS:
            pass
        setup_s += time.perf_counter() - start
        workload.after_op()
        # keep what import and set-up allocated out of later collections: a
        # full collection then scans only what the run itself keeps alive, and
        # the few that land inside an op no longer decide the tail
        gc.freeze()

        def untraced(i, inp):
            return workload.run(inp)

        problems: list[str] = []
        if not args.trace:
            loop = timed_loop(workload, args.seconds, untraced)
            values, notes = end_to_end(workload, loop, setup_s)
            units, attempted = e2e_units, loop.records
        else:
            loop = timed_loop(workload, args.seconds / 2, untraced)
            tracer = Tracer()

            def traced(i, inp):
                with tracer.op(i):
                    return workload.run_traced(inp, tracer)

            t_loop = timed_loop(workload, args.seconds / 2, traced)
            tracer.write(workdir / f"trace-{args.workload}-{args.seed}.jsonl")
            values = per_layer(workload, tracer, t_loop, loop.ops_per_s())
            notes = [f"ops_per_s untraced {loop.ops_per_s()}, traced {t_loop.ops_per_s()}"]
            units, attempted = layer_units, loop.records + t_loop.records
            for i, rec in enumerate(t_loop.records):
                if rec != untraced_record(workload, loop.records, i):
                    problems.append(f"traced op {i} differs from the untraced op: "
                                    f"{workload.describe(i)}")
        problems += workload.check(loop.records)
        problems += golden_problems()
    finally:
        workload.close()

    for note in notes + workload.notes():
        print(note)
    for name in sorted(values):
        print(f"{name:48s} {values[name]!r} {units.get(name, '')}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    default = 0.0 if args.trace else NOT_APPLICABLE
    print(json.dumps({
        "correct": not problems,
        "attempted": len(attempted),
        "failed": sum(r is None for r in attempted),
        "metrics": {name: {"value": values.get(name, default), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
