#!/usr/bin/env python3
"""The performance micro-suite (delegates to ``repro bench``).

Measures the exact simplex, the pruned Fourier–Motzkin projection, an
end-to-end Table-1 WTC slice and the CEGIS oracle/strategy ablation,
and writes the machine-readable trajectory to
``BENCH_kernel.json``.  The implementation lives in
:mod:`repro.reporting.perf` (the suites) and :func:`repro.cli.bench_main`
(the file handling), so the same harness is reachable three ways:

    python benchmarks/perf_kernel.py
    python -m repro bench
    repro bench                            # after `pip install -e .`

Examples::

    python benchmarks/perf_kernel.py --quick           # CI smoke sizes
    python benchmarks/perf_kernel.py --json BENCH_kernel.json
    python benchmarks/perf_kernel.py --seed 7          # reseed the suites
"""

import sys

from repro.cli import bench_main


def main(argv=None) -> int:
    return bench_main(argv)


if __name__ == "__main__":
    sys.exit(main())
