"""The measured-performance micro-suite behind ``repro bench``.

Four default suites, cheapest first, plus three opt-in ones, each
returning a plain dict that serialises into ``BENCH_kernel.json``.  The
goal is a *committed* performance trajectory: every claim about the
sparse scaled-integer kernel — and about the CEGIS oracle/strategy
ablation — is a number in the repository, not an assertion in a
docstring.

* ``simplex`` — a seeded batch of one-shot LPs plus one incrementally
  grown :class:`~repro.lp.simplex.SimplexState`, with pivot counts.
* ``projection`` — Fourier–Motzkin projections over seeded systems;
  reports the rows eliminated by the syntactic/Kohler layers and the LP
  calls they saved.
* ``table1_wtc`` — the end-to-end slice: the terminating WTC programs
  proved by the paper's lazy prover (the same slice
  ``bench_lp_size_rank_vs_termite.py`` measures), with total pivots.
* ``cegis_ablation`` — the same WTC slice once per counterexample
  oracle × strategy variant (extremal / arbitrary / random; SMT, DD
  enumeration, sampling), reporting iterations, LP rows and wall time —
  the paper's §4.2 ablation as one committed number series.

The opt-in suites are ``service`` (the analysis service under
concurrent clients), ``nonterm`` (the nonterminating corpus slice end
to end) and ``service_chaos`` (live servers under injected faults).

Reachable as ``repro bench``, ``python -m repro bench`` and
``python benchmarks/perf_kernel.py``.

JSON schema (``schema_version`` 1)::

    {
      "schema_version": 1,
      "quick": false,
      "suites": [
        {"suite": "...", "wall_seconds": ..., ...per-suite counters...},
        ...
      ]
    }
"""

from __future__ import annotations

import json
import math
import random
import threading
import time
from fractions import Fraction
from typing import Dict, List

SCHEMA_VERSION = 1


def bench_simplex(quick: bool = False, seed: int = 0) -> Dict:
    """A seeded batch of exact LPs: one-shot solves plus one warm-started
    incrementally grown instance."""
    from repro.linexpr.expr import LinExpr, var
    from repro.lp.problem import Sense
    from repro.lp.simplex import SimplexState, solve_lp

    rng = random.Random(seed)
    instances = 8 if quick else 30
    size = 5 if quick else 8

    pivots = 0
    solved = 0
    started = time.perf_counter()
    for _ in range(instances):
        names = ["x%d" % i for i in range(size)]
        constraints = []
        for i in range(size):
            constraints.append(var(names[i]) >= -rng.randint(0, 5))
            constraints.append(var(names[i]) <= rng.randint(1, 9))
        for _ in range(size):
            terms = {
                name: Fraction(rng.randint(-3, 3))
                for name in rng.sample(names, 3)
            }
            constraints.append(
                LinExpr(terms) <= rng.randint(0, 12)
            )
        objective = LinExpr(
            {name: Fraction(rng.randint(-4, 4)) for name in names}
        )
        outcome = solve_lp(objective, constraints, Sense.MAXIMIZE)
        pivots += outcome.pivots
        solved += 1

    # Warm-started growth: one persistent LP, one row at a time — the
    # counterexample-loop access pattern of the paper's Algorithm 1.
    state = SimplexState(Sense.MAXIMIZE)
    growth = 10 if quick else 40
    objective = LinExpr()
    for j in range(growth):
        delta = "d%d" % j
        state.declare(delta, nonnegative=True)
        state.add_constraint(var(delta) <= 1)
        if j:
            state.add_constraint(
                var(delta) + var("d%d" % (j - 1)) * rng.randint(-2, 2)
                <= rng.randint(1, 4)
            )
        objective = objective + var(delta)
        state.set_objective(objective)
        state.solve()
        solved += 1
    pivots += state.total_pivots
    wall = time.perf_counter() - started

    return {
        "suite": "simplex",
        "wall_seconds": round(wall, 4),
        "lps_solved": solved,
        "pivots": pivots,
        "warm_solves": state.warm_solves,
    }


def bench_projection(quick: bool = False, seed: int = 0) -> Dict:
    """Seeded Fourier–Motzkin projections, counting pruned rows."""
    from repro.linexpr.constraint import Constraint, Relation
    from repro.linexpr.expr import LinExpr
    from repro.polyhedra import projection

    rng = random.Random(seed)
    systems = 10 if quick else 40
    names = ["a", "b", "c", "d", "e"]

    snapshot = projection.statistics.snapshot()
    started = time.perf_counter()
    for _ in range(systems):
        constraints = []
        for _ in range(rng.randint(4, 8)):
            terms = {
                name: Fraction(rng.randint(-3, 3))
                for name in rng.sample(names, rng.randint(1, 3))
            }
            constraints.append(
                Constraint(
                    LinExpr(terms, Fraction(rng.randint(-5, 5))), Relation.LE
                )
            )
        drop = rng.sample(names, rng.randint(1, 3))
        projection.fourier_motzkin(constraints, drop)
    wall = time.perf_counter() - started
    after = projection.statistics

    return {
        "suite": "projection",
        "wall_seconds": round(wall, 4),
        "systems": systems,
        "variables_eliminated": after.variables_eliminated - snapshot[0],
        "combinations": after.combinations - snapshot[1],
        "lp_calls": after.lp_calls - snapshot[2],
        "lp_calls_saved": after.lp_calls_saved - snapshot[3],
        "rows_eliminated": (
            after.rows_pruned_syntactic
            + after.rows_pruned_kohler
            - snapshot[4]
            - snapshot[5]
        ),
    }


def bench_table1_slice(quick: bool = False) -> Dict:
    """End-to-end: the terminating WTC slice through the lazy prover."""
    from repro.api import AnalysisConfig, analyze
    from repro.benchsuite import get_suite

    programs = [p for p in get_suite("wtc") if p.terminating]
    programs = programs[:2] if quick else programs[:4]
    config = AnalysisConfig(check_certificates=False)

    pivots = warm = cold = proved = 0
    rows = cols = instances = 0
    started = time.perf_counter()
    for program in programs:
        result = analyze(program.build(), tool="termite", config=config)
        proved += int(result.proved)
        statistics = result.lp_statistics
        pivots += statistics.pivots
        warm += statistics.warm_solves
        cold += statistics.cold_solves
        rows += statistics.total_rows
        cols += statistics.total_cols
        instances += statistics.instances
    wall = time.perf_counter() - started

    return {
        "suite": "table1_wtc",
        "wall_seconds": round(wall, 4),
        "programs": len(programs),
        "proved": proved,
        "pivots": pivots,
        "warm_solves": warm,
        "cold_solves": cold,
        "average_lp_rows": round(rows / instances, 2) if instances else 0.0,
        "average_lp_cols": round(cols / instances, 2) if instances else 0.0,
    }


#: The oracle × strategy points of the ``cegis_ablation`` suite: the
#: paper's default, the two §4.2 counterexample-selection ablations, and
#: the two alternative oracles.
CEGIS_ABLATION_VARIANTS = (
    ("smt", "extremal"),
    ("smt", "arbitrary"),
    ("smt", "random"),
    ("dd", "extremal"),
    ("sampling", "random"),
)


def bench_cegis_ablation(quick: bool = False, seed: int = 0) -> Dict:
    """Extremal vs. arbitrary vs. random counterexamples, end to end.

    Runs the WTC Table-1 slice (the same terminating programs as
    ``table1_wtc``) through the lazy prover once per oracle × strategy
    variant and reports the quantities the paper's ablation compares:
    refinement iterations, LP rows (one per counterexample), and wall
    time.  Every variant must prove the same programs — the strategies
    change the *cost*, never the verdict.
    """
    from repro.api import AnalysisConfig, analyze
    from repro.benchsuite import get_suite

    programs = [p for p in get_suite("wtc") if p.terminating]
    programs = programs[:2] if quick else programs[:4]

    variants: List[Dict] = []
    total = 0.0
    for oracle, strategy in CEGIS_ABLATION_VARIANTS:
        config = AnalysisConfig(
            check_certificates=False,
            cex_oracle=oracle,
            cex_strategy=strategy,
            oracle_seed=seed,
        )
        proved = iterations = lp_rows = oracle_queries = 0
        started = time.perf_counter()
        for program in programs:
            result = analyze(
                program.build(), tool="termite", config=config,
                name=program.name,
            )
            proved += int(result.proved)
            iterations += result.iterations
            lp_rows += result.lp_statistics.cex_rows
            oracle_queries += result.lp_statistics.oracle_queries
        wall = time.perf_counter() - started
        total += wall
        variants.append(
            {
                "oracle": oracle,
                "strategy": strategy,
                "programs": len(programs),
                "proved": proved,
                "iterations": iterations,
                "lp_rows": lp_rows,
                "oracle_queries": oracle_queries,
                "wall_seconds": round(wall, 4),
            }
        )

    return {
        "suite": "cegis_ablation",
        "wall_seconds": round(total, 4),
        "programs": len(programs),
        "variants": variants,
    }


def _percentile(values: List[float], fraction: float) -> float:
    """The *fraction* percentile (nearest-rank) of *values*, seconds."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = int(math.ceil(fraction * len(ordered)))
    return ordered[max(0, min(len(ordered), rank) - 1)]


def _drive_service_clients(
    host: str, port: int, batches: List[List[bytes]]
) -> List[float]:
    """Each batch on its own connection+thread; per-request latencies."""
    import socket

    latencies: List[float] = []
    lock = threading.Lock()
    errors: List[BaseException] = []

    def _client(lines: List[bytes]) -> None:
        try:
            with socket.create_connection((host, port)) as sock:
                stream = sock.makefile("rwb")
                for line in lines:
                    started = time.perf_counter()
                    stream.write(line)
                    stream.flush()
                    reply = stream.readline()
                    elapsed = time.perf_counter() - started
                    document = json.loads(reply)
                    if "error" in document:
                        raise RuntimeError(
                            "service error: %r" % (document["error"],)
                        )
                    with lock:
                        latencies.append(elapsed)
        except BaseException as error:  # surfaced to the bench below
            with lock:
                errors.append(error)

    threads = [
        threading.Thread(target=_client, args=(batch,)) for batch in batches
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return latencies


def bench_service(quick: bool = False, seed: int = 0) -> Dict:
    """Sustained throughput and p99 latency of the socket front door.

    Two phases over the terminating WTC slice, under concurrent client
    connections:

    * **cold** — every request carries a distinct cache key (the same
      programs under distinct ``oracle_seed`` configs), so each one pays
      a full analysis in the worker pool;
    * **warm** — the identical requests again, so every one is a cache
      hit re-validated by the independent checker before serving.

    The committed claims are counted, not timed: the warm phase
    dispatches no task to the worker pool (``warm_pool_tasks == 0``, every
    hit is served without an analysis), the cold phase dispatches one per
    request, and ``revalidation_failures == 0``: no cached certificate is
    ever served unchecked.  The p99 latencies and throughputs of both
    phases are reported alongside.
    """
    from repro.api.config import AnalysisConfig
    from repro.api.request import AnalysisRequest
    from repro.benchsuite import get_suite
    from repro.service import run_server_in_thread

    programs = [
        p for p in get_suite("wtc") if p.terminating and p.source is not None
    ]
    programs = programs[:2] if quick else programs[:4]
    variants = 2 if quick else 4
    clients = 2 if quick else 4
    warm_rounds = 2 if quick else 4

    def _lines(requests: List[AnalysisRequest]) -> List[bytes]:
        return [
            json.dumps(
                {
                    "jsonrpc": "2.0",
                    "id": index,
                    "method": "analyze",
                    "params": request.to_dict(),
                },
                sort_keys=True,
            ).encode("utf-8")
            + b"\n"
            for index, request in enumerate(requests)
        ]

    requests = [
        AnalysisRequest(
            program=program.source,
            config=AnalysisConfig(oracle_seed=seed + variant),
            name="%s@%d" % (program.name, variant),
        )
        for program in programs
        for variant in range(variants)
    ]

    server = run_server_in_thread(port=0, jobs=clients)

    def _pool_tasks() -> int:
        return server.cache_stats()["pool"]["tasks_submitted"]

    try:
        # Cold: distinct keys round-robined over concurrent clients.
        cold_batches: List[List[bytes]] = [[] for _ in range(clients)]
        for index, line in enumerate(_lines(requests)):
            cold_batches[index % clients].append(line)
        started = time.perf_counter()
        cold_latencies = _drive_service_clients(
            server.host, server.port, cold_batches
        )
        cold_wall = time.perf_counter() - started
        cold_pool_tasks = _pool_tasks()

        # Warm: every client replays the whole request list — all hits.
        warm_batches = [
            [line for _ in range(warm_rounds) for line in _lines(requests)]
            for _ in range(clients)
        ]
        started = time.perf_counter()
        warm_latencies = _drive_service_clients(
            server.host, server.port, warm_batches
        )
        warm_wall = time.perf_counter() - started
        warm_pool_tasks = _pool_tasks() - cold_pool_tasks

        stats = server.cache_stats()["stats"]
    finally:
        server.stop()

    return {
        "suite": "service",
        "wall_seconds": round(cold_wall + warm_wall, 4),
        "programs": len(programs),
        "clients": clients,
        "cold_requests": len(cold_latencies),
        "cold_wall_seconds": round(cold_wall, 4),
        "cold_programs_per_second": round(len(cold_latencies) / cold_wall, 2)
        if cold_wall
        else None,
        "cold_p99_seconds": round(_percentile(cold_latencies, 0.99), 4),
        "cold_pool_tasks": cold_pool_tasks,
        "warm_requests": len(warm_latencies),
        "warm_wall_seconds": round(warm_wall, 4),
        "warm_programs_per_second": round(len(warm_latencies) / warm_wall, 2)
        if warm_wall
        else None,
        "warm_p99_seconds": round(_percentile(warm_latencies, 0.99), 4),
        "warm_pool_tasks": warm_pool_tasks,
        "cache_hits": stats["hits"],
        "cache_misses": stats["misses"],
        "revalidations": stats["revalidations"],
        "revalidation_failures": stats["revalidation_failures"],
    }


def bench_nonterm(quick: bool = False, seed: int = 0) -> Dict:
    """Recurrence-set synthesis over the nonterminating corpus slice.

    Runs the nontermination engine (``nonterm="only"``) over the seeded
    generator's nonterminating-by-construction gadgets plus the
    possibly-nonterminating WTC suite programs, and reports verdict
    counts, CEGIS refinement iterations, and how many of the claimed
    lasso witnesses the independent recurrence checker re-validated
    (every NONTERMINATING verdict must carry one).
    """
    from repro.api import AnalysisConfig, analyze
    from repro.benchsuite import get_suite
    from repro.checking.generator import NONTERMINATING, ProgramGenerator

    budget = 60 if quick else 200
    generator = ProgramGenerator(seed)
    gadgets = [
        program
        for program in generator.programs(budget)
        if program.expected == NONTERMINATING
    ]
    gadgets = gadgets[:4] if quick else gadgets[:16]
    wtc = [p for p in get_suite("wtc") if not p.terminating]
    wtc = wtc[:2] if quick else wtc[:6]

    config = AnalysisConfig(nonterm="only")
    nonterminating = unknown = errors = 0
    iterations = lassos_checked = lassos_valid = 0
    started = time.perf_counter()
    for kind, name, program in (
        [("gadget", g.name, g.source) for g in gadgets]
        + [("wtc", p.name, p.build()) for p in wtc]
    ):
        result = analyze(program, tool="termite", config=config, name=name)
        iterations += result.iterations
        if result.disproved:
            nonterminating += 1
            if result.lasso is not None:
                lassos_checked += 1
                lassos_valid += int(result.certificate_checked)
        elif result.status.value == "unknown":
            unknown += 1
        else:
            errors += 1
    wall = time.perf_counter() - started

    return {
        "suite": "nonterm",
        "wall_seconds": round(wall, 4),
        "programs": len(gadgets) + len(wtc),
        "gadgets": len(gadgets),
        "wtc_programs": len(wtc),
        "nonterminating": nonterminating,
        "unknown": unknown,
        "errors": errors,
        "iterations": iterations,
        "lassos_checked": lassos_checked,
        "lassos_valid": lassos_valid,
    }


def bench_service_chaos(quick: bool = False, seed: int = 0) -> Dict:
    """The service's robustness claims, exercised under injected faults.

    Three phases against real socket servers:

    * **chaos** — concurrent retrying clients
      (:func:`repro.service.client.call_with_retry`) drive the
      terminating WTC slice through a server running a seeded
      :class:`~repro.service.faults.FaultPlan` (workers killed
      mid-request, workers delayed, disk-cache files corrupted and
      truncated, responses cut off mid-line).  The committed claims:
      **every request is eventually answered** and **zero unsound
      verdicts** are ever served (every program in the slice terminates;
      any ``nonterminating`` answer would be unsound).
    * **restart** — the server is stopped and a fresh one is pointed at
      the same ``--cache-dir``; surviving disk entries must serve as
      revalidated hits (``disk_hits >= 1``) and every corrupted one must
      be dropped, never served (``revalidation_failures == 0``).
    * **overload** — twice the admission capacity in concurrent clients
      against a one-worker server; the gate must shed
      (``OVERLOADED``/-32005 with a ``retry_after_seconds`` hint) while
      the p99 of *accepted* requests stays bounded by the queue depth
      instead of growing with offered load.
    """
    import shutil
    import tempfile

    from repro.api.config import AnalysisConfig
    from repro.api.request import AnalysisRequest
    from repro.benchsuite import get_suite
    from repro.service import run_server_in_thread
    from repro.service.client import (
        ServiceClient,
        ServiceError,
        call_with_retry,
    )

    programs = [
        p for p in get_suite("wtc") if p.terminating and p.source is not None
    ]
    programs = programs[:2] if quick else programs[:3]
    variants = 2 if quick else 3
    clients = 2 if quick else 4
    plan = (
        "seed%d:kill=0.15,delay=0.1,corrupt=0.25,truncate=0.15,drop=0.15,"
        "delay_seconds=0.5" % seed
    )

    requests = [
        AnalysisRequest(
            program=program.source,
            config=AnalysisConfig(oracle_seed=seed + variant),
            name="%s@%d" % (program.name, variant),
        )
        for program in programs
        for variant in range(variants)
    ]

    cache_dir = tempfile.mkdtemp(prefix="repro-chaos-cache-")
    started = time.perf_counter()
    lock = threading.Lock()
    answered = 0
    unsound = 0
    retries = 0
    failures: List[BaseException] = []

    def _chaos_client(index: int, host: str, port: int) -> None:
        nonlocal answered, unsound, retries
        rng = random.Random(seed * 1000 + index)

        def _count_retry(attempt, wait, error):
            nonlocal retries
            with lock:
                retries += 1

        client = ServiceClient(host, port, read_timeout=120.0)
        try:
            for request in requests:
                params = request.to_dict()
                try:
                    result = call_with_retry(
                        lambda: client.analyze(params),
                        max_attempts=10,
                        base_delay=0.05,
                        rng=rng,
                        on_retry=_count_retry,
                    )
                except BaseException as error:
                    with lock:
                        failures.append(error)
                    return
                with lock:
                    answered += 1
                    # Every program in the slice terminates; a served
                    # "nonterminating" would be an unsound verdict.
                    if result["status"] == "nonterminating":
                        unsound += 1
        finally:
            client.close()

    try:
        server = run_server_in_thread(
            port=0,
            jobs=2,
            timeout=30.0,
            cache_dir=cache_dir,
            cache_disk_bytes=4 * 1024 * 1024,
            fault_plan=plan,
            max_queue=64,  # the chaos phase measures faults, not shedding
        )
        try:
            threads = [
                threading.Thread(
                    target=_chaos_client, args=(i, server.host, server.port)
                )
                for i in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            chaos_stats = server.cache_stats()
        finally:
            server.stop()
        if failures:
            raise RuntimeError(
                "chaos client gave up: %s" % failures[0]
            ) from failures[0]

        # -- restart: the disk tier must survive (and stay sound) ------------
        server = run_server_in_thread(
            port=0, jobs=2, cache_dir=cache_dir,
            cache_disk_bytes=4 * 1024 * 1024,
        )
        try:
            client = ServiceClient(server.host, server.port)
            warm_latencies: List[float] = []
            restart_hits = 0
            try:
                for request in requests:
                    call_started = time.perf_counter()
                    result = call_with_retry(
                        lambda: client.analyze(request.to_dict()),
                        max_attempts=4,
                    )
                    warm_latencies.append(time.perf_counter() - call_started)
                    if result["provenance"]["cache"] == "hit":
                        restart_hits += 1
            finally:
                client.close()
            restart_stats = server.cache_stats()["stats"]
        finally:
            server.stop()

        # -- overload: shed fast, keep accepted latency bounded --------------
        overload_clients = 4  # 2x the (max_inflight=1) + (max_queue=1) line
        accepted: List[float] = []
        shed = 0
        hinted = 0
        server = run_server_in_thread(
            port=0, jobs=1, cache=False, max_inflight=1, max_queue=1,
            timeout=60.0,
        )
        try:
            def _overload_client(index: int) -> None:
                nonlocal shed, hinted
                client = ServiceClient(
                    server.host, server.port, read_timeout=120.0
                )
                try:
                    for request in requests[: 3 if quick else 4]:
                        call_started = time.perf_counter()
                        try:
                            client.analyze(request.to_dict())
                        except ServiceError as error:
                            if error.code != -32005:
                                raise
                            with lock:
                                shed += 1
                                if error.retry_after_seconds is not None:
                                    hinted += 1
                            continue
                        with lock:
                            accepted.append(
                                time.perf_counter() - call_started
                            )
                finally:
                    client.close()

            threads = [
                threading.Thread(target=_overload_client, args=(i,))
                for i in range(overload_clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            server.stop()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    wall = time.perf_counter() - started

    return {
        "suite": "service_chaos",
        "wall_seconds": round(wall, 4),
        "fault_plan": plan,
        "clients": clients,
        "requests_total": clients * len(requests),
        "answered": answered,
        "retries": retries,
        "unsound_results": unsound,
        "faults_injected": chaos_stats.get("faults", {}),
        "disk_drops": chaos_stats["stats"]["disk_drops"]
        + restart_stats["disk_drops"],
        "revalidation_failures": chaos_stats["stats"]["revalidation_failures"]
        + restart_stats["revalidation_failures"],
        "pool": chaos_stats.get("pool", {}),
        "restart_requests": len(requests),
        "restart_cache_hits": restart_hits,
        "restart_disk_hits": restart_stats["disk_hits"],
        "warm_p99_seconds": round(_percentile(warm_latencies, 0.99), 4),
        "overload_clients": overload_clients,
        "overload_accepted": len(accepted),
        "overload_shed": shed,
        "overload_retry_after_hinted": hinted,
        "overload_accepted_p99_seconds": round(
            _percentile(accepted, 0.99), 4
        ),
    }


#: Suite name → runner, in the canonical (cheapest-first) order.  The
#: ``service``, ``nonterm`` and ``service_chaos`` suites are opt-in
#: (``repro bench service nonterm service_chaos``): the first forks a
#: worker pool, the second proves the nonterminating corpus slice end to
#: end, and the third injects faults into live servers, so the default
#: ``repro bench`` run leaves them out (see :data:`DEFAULT_SUITES`).
SUITE_RUNNERS = {
    "simplex": bench_simplex,
    "projection": bench_projection,
    "table1_wtc": lambda quick, seed: bench_table1_slice(quick=quick),
    "cegis_ablation": bench_cegis_ablation,
    "service": bench_service,
    "nonterm": bench_nonterm,
    "service_chaos": bench_service_chaos,
}

#: The suites ``repro bench`` runs when none are named.
DEFAULT_SUITES = (
    "simplex",
    "projection",
    "table1_wtc",
    "cegis_ablation",
)


def run_suite(quick: bool = False, seed: int = 0, suites=None) -> Dict:
    """Run the named *suites* (default: :data:`DEFAULT_SUITES`) into the
    JSON document."""
    names = list(suites) if suites else list(DEFAULT_SUITES)
    unknown = [name for name in names if name not in SUITE_RUNNERS]
    if unknown:
        raise ValueError(
            "unknown suite(s) %s; have: %s"
            % (", ".join(unknown), ", ".join(SUITE_RUNNERS))
        )
    documents = [
        SUITE_RUNNERS[name](quick=quick, seed=seed) for name in names
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "quick": quick,
        "seed": seed,
        "total_wall_seconds": round(
            sum(suite["wall_seconds"] for suite in documents), 4
        ),
        "suites": documents,
    }


def merge_bench_documents(previous: Dict, current: Dict) -> Dict:
    """Fold a partial run into an existing report document.

    Suites re-measured by *current* replace their same-named entries in
    *previous* (in place); new suites append.  Every other key of
    *previous* — notably ``baseline`` — is preserved, while
    ``quick``/``seed`` reflect the current run and
    ``total_wall_seconds`` is re-summed over the merged suites.
    """
    merged = dict(previous)
    suites = [dict(suite) for suite in previous.get("suites", [])]
    positions = {suite["suite"]: index for index, suite in enumerate(suites)}
    for suite in current.get("suites", []):
        index = positions.get(suite["suite"])
        if index is None:
            positions[suite["suite"]] = len(suites)
            suites.append(suite)
        else:
            suites[index] = suite
    merged["schema_version"] = current.get(
        "schema_version", previous.get("schema_version", SCHEMA_VERSION)
    )
    merged["quick"] = current.get("quick", False)
    merged["seed"] = current.get("seed", 0)
    merged["suites"] = suites
    merged["total_wall_seconds"] = round(
        sum(suite["wall_seconds"] for suite in suites), 4
    )
    return merged


