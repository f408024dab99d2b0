"""Run every workload of ``BENCHMARK.json`` on several seeds and record
each end-to-end metric's median, quartiles and spread.

Run from the root of a checkout::

    python3 perfbench/record.py --seeds 1-10 --output perfbench/baseline.json

The spread is the quartile distance as a share of the median, the way
the benchmark's bounds are judged.  Runs that exit non-zero are listed
and left out.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from metrics import spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--output")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        benchmark = json.load(stream)
    names = args.workload or [workload["name"] for workload in benchmark["workloads"]]
    record = {"run_seconds": benchmark["run_seconds"], "workloads": {}}
    for name in names:
        values, failures = {}, []
        for seed in _seeds(args.seeds):
            command = benchmark["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(benchmark["run_seconds"]), "--trace", "0",
            ]
            run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if run.returncode != 0:
                failures.append(seed)
                continue
            result = json.loads(run.stdout.strip().splitlines()[-1])
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(name, seed, {m: round(e["value"], 4) for m, e in result["metrics"].items()},
                  flush=True)
        summary = {}
        for metric, samples in values.items():
            q1, median, q3 = statistics.quantiles(samples, n=4)
            summary[metric] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": spread(samples), "values": samples,
            }
            print("%-10s %-16s median %-10.5g spread %.3f" % (name, metric, median,
                                                             summary[metric]["spread"]))
        record["workloads"][name] = {"metrics": summary, "failed_seeds": failures}
    if args.output:
        with open(args.output, "w") as stream:
            json.dump(record, stream, indent=2)
            stream.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
