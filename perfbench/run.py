"""End-to-end benchmark of the termination analyser.

Run from the root of a checkout::

    python3 perfbench/run.py --workload wtc --seed 1 --seconds 30 --trace 0

It sends programs one at a time through the public batch entry
``repro.api.analyze_many(..., jobs=1, timeout=...)`` -- the crash-isolated
fork engine -- and sends the next only after the previous verdict is back
(a closed loop with one client).  Every verdict is held against the
program's ground truth; a contradiction makes the command exit 1.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
inputs untraced and then traced, and prints the per-layer metrics from
spans recorded around the program's public functions (see ``spans.py``);
the spans are written to ``.perfbench/``.  The last line of the output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUTPUT_DIR = os.path.join(ROOT, ".perfbench")

#: Set-up is measured this many times per run, in fresh interpreters.
SETUP_PROBES = 3

#: Passes per measured run at the least.  Each program's task time is the
#: median over its passes, which damps a slow spell of the machine.
MIN_PASSES = 2


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def _prepare(workload, seed):
    """Everything that precedes the first dispatch: imports, inputs, config
    and the engine."""
    import repro.api  # noqa: F401  (numpy comes in here)
    import repro.reporting.parallel  # noqa: F401  (the engine analyze_many uses)

    return workload.inputs(seed), workload.config()


def _probe(workload, seed) -> int:
    _prepare(workload, seed)
    print(repr(time.monotonic()), flush=True)
    return 0


def measure_setup(workload_name: str, seed: int) -> float:
    """Median seconds from interpreter start to the first dispatch.

    Each probe is a fresh interpreter that does the run's set-up and
    prints the (system-wide) monotonic clock at the point where the run
    would dispatch its first program.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.monotonic()
        probe = subprocess.run(
            [
                sys.executable,
                os.path.abspath(__file__),
                "--workload",
                workload_name,
                "--seed",
                str(seed),
                "--setup-probe",
            ],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            check=True,
            timeout=120,
        )
        ready = float(probe.stdout.decode().strip().splitlines()[-1])
        samples.append(ready - started)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class Pass:
    """What one stretch of the closed loop dispatched and got back."""

    def __init__(self):
        self.inputs = []
        self.tasks = []
        self.latencies = []
        self.spans = []
        self.last_span_id = 0
        self.wall = 0.0


def dispatch(workload, config, inputs, record: Pass, traced: bool = False) -> None:
    from repro.api import analyze_many

    from spans import spans_of

    for item in inputs:
        started = time.perf_counter()
        results = analyze_many(
            [item.program],
            workload.tools,
            config,
            names=[item.name],
            jobs=1,
            timeout=workload.timeout,
        )
        record.latencies.append(time.perf_counter() - started)
        record.inputs.append(item)
        record.tasks.append(results)
        if traced:
            shipped = spans_of(results, record.last_span_id)
            record.spans.extend(shipped)
            record.last_span_id = max(
                (span[0] for span in shipped), default=record.last_span_id
            )


def measure(workload, config, inputs, seconds: float, least: int = MIN_PASSES) -> Pass:
    """Run whole passes over *inputs*: as many as fill about *seconds* at
    the first pass's pace, and at least *least*."""
    record = Pass()
    started = time.perf_counter()
    dispatch(workload, config, inputs, record)
    passes = max(least, round(seconds / (time.perf_counter() - started)))
    for _ in range(1, passes):
        dispatch(workload, config, inputs, record)
    record.wall = time.perf_counter() - started
    return record


def replay(workload, config, inputs) -> Pass:
    """Run one pass over *inputs*, traced."""
    import spans

    spans.install()
    record = Pass()
    started = time.perf_counter()
    dispatch(workload, config, inputs, record, traced=True)
    record.wall = time.perf_counter() - started
    return record


def program_latencies(record: Pass) -> list:
    """Each program's task time: the median over the passes that ran it."""
    by_program = {}
    for item, latency in zip(record.inputs, record.latencies):
        by_program.setdefault(item.name, []).append(latency)
    return [statistics.median(samples) for samples in by_program.values()]


# ---------------------------------------------------------------------------
# judging and reporting
# ---------------------------------------------------------------------------


def tally_of(record: Pass):
    from metrics import Tally
    from workloads import CONTRADICTION, judge

    tally = Tally()
    for item, results in zip(record.inputs, record.tasks):
        for result in results:
            outcome = judge(result, item.expected)
            tally.add(outcome)
            if outcome == CONTRADICTION:
                print(
                    "SOUNDNESS: %s says %s on %s, expected %s"
                    % (result.tool, result.status.value, item.name, item.expected),
                    file=sys.stderr,
                )
    return tally


def _completed(record: Pass) -> int:
    return sum(
        result.status.value not in ("error", "timeout")
        for results in record.tasks
        for result in results
    )


def end_to_end(workload, record: Pass, tally, peak_rss_kib: int, setup_seconds: float) -> dict:
    from metrics import tail

    workload_name = workload.name
    latencies = program_latencies(record)
    latency_tail = tail(latencies)
    samples = "n=%d programs, %d passes" % (
        len(latencies), len(record.latencies) // len(latencies)
    )
    rows = [
        ("analyses_per_s", _completed(record) / record.wall, "1/s",
         "%d analyses in %.2f s" % (tally.attempted, record.wall)),
        ("latency_p50_s", statistics.median(latencies), "s", samples),
    ]
    if latency_tail is not None:
        rows.append(("latency_tail_s", latency_tail[0], "s",
                     "p%.1f, %s" % (latency_tail[1], samples)))
    rows += [
        ("decided_share", tally.share(tally.decided), "ratio",
         "%d of %d" % (tally.decided, tally.attempted)),
        ("failed_share", tally.share(tally.failed), "ratio",
         "%d of %d" % (tally.failed, tally.attempted)),
        ("setup_s", setup_seconds, "s", "median of %d" % SETUP_PROBES),
        ("peak_rss_mb", peak_rss_kib / 1024.0, "MB", "largest worker"),
    ]
    for name, value, unit, note in rows:
        print("%-10s %-16s %12.6g %-6s (%s)" % (workload_name, name, value, unit, note))
    timeouts = sum(
        result.status.value == "timeout"
        for results in record.tasks
        for result in results
    )
    print("%-10s %-16s %12d %-6s (per-program limit %g s)"
          % (workload_name, "timeouts", timeouts, "count", workload.timeout))
    # failed_share travels as the result's "failed" count.
    return {
        name: {"value": value, "unit": unit}
        for name, value, unit, _ in rows
        if name != "failed_share"
    }


def verdict_mismatches(untraced: Pass, traced: Pass) -> int:
    """Analyses whose traced verdict differs from the untraced one (a
    timeout on either side is not a verdict and is not compared)."""
    mismatches = 0
    for first, second in zip(untraced.tasks, traced.tasks):
        for a, b in zip(first, second):
            statuses = {a.status.value, b.status.value}
            if "timeout" not in statuses and a.status != b.status:
                mismatches += 1
                print("MISMATCH: %s/%s untraced %s, traced %s"
                      % (a.program, a.tool, a.status.value, b.status.value),
                      file=sys.stderr)
    return mismatches


def per_layer(workload_name, seed, untraced: Pass, traced: Pass) -> dict:
    from metrics import per_layer_spec, span_coverage, span_metrics, stage_metrics

    values = stage_metrics(untraced.tasks, untraced.wall)
    values.update(span_metrics(traced.spans, traced.tasks))
    values["trace.overhead_ratio"] = traced.wall / untraced.wall
    values["trace.span_coverage_ratio"] = span_coverage(traced.spans, traced.wall)
    values["trace.verdict_mismatches"] = verdict_mismatches(untraced, traced)
    lost = sum(1 for results in traced.tasks if not any(r.stages for r in results))
    print("%-10s traced %d programs in %.2f s, untraced %.2f s; %d spans, "
          "%d tasks without spans" % (workload_name, len(traced.tasks), traced.wall,
                                      untraced.wall, len(traced.spans), lost))
    metrics = {}
    for entry in per_layer_spec():
        value = values[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print("%-10s %-48s %14.6g %s" % (workload_name, entry["name"], value, entry["unit"]))
    _write_spans(workload_name, seed, traced)
    return metrics


def _write_spans(workload_name, seed, traced: Pass) -> None:
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    path = os.path.join(OUTPUT_DIR, "spans-%s-%d.jsonl.gz" % (workload_name, seed))
    keys = ("id", "parent", "name", "start", "end", "thread", "analysis", "attr")
    with gzip.open(path, "wt") as stream:
        for span in traced.spans:
            stream.write(json.dumps(dict(zip(keys, span))) + "\n")
    print("spans written to %s" % os.path.relpath(path, ROOT))


def use_checkout_source() -> bool:
    """Put the checkout's ``src`` first on the path; false if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no program source at %s; run from a full checkout" % SRC,
              file=sys.stderr)
        return False
    sys.path.insert(0, SRC)
    return True


def main(argv=None) -> int:
    args = _arguments(argv)
    if not use_checkout_source():
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print("perfbench: unknown workload %r (have %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    if args.setup_probe:
        return _probe(workload, args.seed)

    if args.trace:
        inputs, config = _prepare(workload, args.seed)
        untraced = measure(workload, config, inputs, 0, least=1)
        traced = replay(workload, config, inputs)
        tally = tally_of(untraced)
        metrics = per_layer(args.workload, args.seed, untraced, traced)
        correct = (
            tally.contradictions == 0
            and tally_of(traced).contradictions == 0
            and metrics["trace.verdict_mismatches"]["value"] == 0
        )
    else:
        inputs, config = _prepare(workload, args.seed)
        measured = measure(workload, config, inputs, args.seconds)
        # Read before the set-up probes exist: every child so far is a worker.
        peak_rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        setup_seconds = measure_setup(args.workload, args.seed)
        tally = tally_of(measured)
        metrics = end_to_end(workload, measured, tally, peak_rss_kib, setup_seconds)
        correct = tally.contradictions == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
