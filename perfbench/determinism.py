"""Check that the program's own counts repeat exactly between two runs.

Run from the root of a checkout::

    python3 perfbench/determinism.py --seed 1

For each workload it runs one traced pass over the same inputs twice
and compares verdicts,
the ``lp_statistics`` counters and the per-layer call counts.  Counts
that differ are listed; under ``nonterm="auto"`` the losing lane of the
race stops at whichever iteration boundary it reaches first, so counts
of that workload may legitimately differ.  Exits 1 if a verdict differs.
"""

from __future__ import annotations

import argparse
import sys

import run


def counts(record) -> dict:
    from metrics import SPAN_LAYERS, program_counters, span_metrics

    values = dict(program_counters(record.tasks))
    layers = span_metrics(record.spans, record.tasks)
    for layer in SPAN_LAYERS:
        values[layer + ".calls"] = layers[layer + ".calls"]
    values["lp.solve_lp.pivots"] = layers["lp.solve_lp.pivots"]
    values["lp.ranking.pivots"] = layers["lp.ranking.pivots"]
    return values


def verdicts(record) -> list:
    return [
        (result.program, result.tool, result.status.value)
        for results in record.tasks
        for result in results
    ]


def check(workload, seed: int) -> bool:
    inputs, config = run._prepare(workload, seed)
    records = []
    for _ in range(2):
        record = run.Pass()
        run.dispatch(workload, config, inputs, record, traced=True)
        records.append(record)
    first, second = (counts(record) for record in records)
    differing = [name for name in first if first[name] != second[name]]
    same_verdicts = verdicts(records[0]) == verdicts(records[1])
    print(
        "%-10s %d analyses; verdicts %s; %d of %d counts repeat exactly"
        % (
            workload.name,
            len(verdicts(records[0])),
            "identical" if same_verdicts else "DIFFER",
            len(first) - len(differing),
            len(first),
        )
    )
    for name in differing:
        print("%-10s   differs: %-44s %d vs %d" % (workload.name, name, first[name], second[name]))
    return same_verdicts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    if not run.use_checkout_source():
        return 2
    import spans
    from workloads import WORKLOADS

    spans.install()
    names = args.workload or list(WORKLOADS)
    ok = all([check(WORKLOADS[name], args.seed) for name in names])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
