"""Import and config of a workload in a fresh interpreter; prints its seconds.

``run.py`` starts this several times and adds the median to the time of
its own warm-up op to report ``setup_s``.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>
"""
import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402


def main() -> None:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.WORKLOADS[name](seed, workdir).close()
    print(time.perf_counter() - START)


if __name__ == "__main__":
    main()
