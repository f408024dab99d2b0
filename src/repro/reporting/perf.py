"""The measured-performance micro-suite behind ``repro bench``.

Seven default suites, cheapest first, plus three opt-in ones, each
returning a plain dict that serialises into ``BENCH_kernel.json``.  The
goal is a *committed* performance trajectory: every claim about the
sparse scaled-integer kernel — and about the CEGIS oracle/strategy
ablation — is a number in the repository, not an assertion in a
docstring.

* ``kernel_rows`` — the raw row kernel: fused axpy/eliminate/dot on
  :class:`~repro.linalg.sparse.SparseRow` versus the same operations
  entry-by-entry on dense ``Fraction`` lists (the seed representation).
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
* ``kernel_packed`` — the packed int64 row kernel versus the exact
  bignum path on identical wide LP and Fourier–Motzkin workloads,
  asserting bit-identical outcomes before reporting the speedups.
* ``kernel_crossover`` — stacked versus exact LP solves across a width
  sweep: where the stacked kernel starts winning, next to the ``auto``
  threshold :data:`repro.linalg.packed.PACKED_MIN_WIDTH`.

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


def _random_fraction(rng: random.Random) -> Fraction:
    if rng.random() < 0.4:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 7))


def bench_kernel_rows(quick: bool = False, seed: int = 0) -> Dict:
    """Fused sparse row operations vs dense ``Fraction`` loops."""
    from repro.linalg.sparse import SparseRow

    rng = random.Random(seed)
    width = 24 if quick else 48
    pairs = 60 if quick else 300
    rounds = 3 if quick else 10

    dense_rows: List[List[Fraction]] = [
        [_random_fraction(rng) for _ in range(width)] for _ in range(pairs)
    ]
    factors = [
        Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(pairs)
    ]
    sparse_rows = [SparseRow.from_dense(row) for row in dense_rows]

    started = time.perf_counter()
    operations = 0
    for _ in range(rounds):
        for position in range(0, pairs - 1, 2):
            a = sparse_rows[position]
            b = sparse_rows[position + 1]
            a.combine(1, b, factors[position])
            a.dot(b)
            operations += 2
    sparse_seconds = time.perf_counter() - started

    started = time.perf_counter()
    for _ in range(rounds):
        for position in range(0, pairs - 1, 2):
            a = dense_rows[position]
            b = dense_rows[position + 1]
            factor = factors[position]
            [x + factor * y for x, y in zip(a, b)]
            sum((x * y for x, y in zip(a, b)), Fraction(0))
    dense_seconds = time.perf_counter() - started

    return {
        "suite": "kernel_rows",
        "wall_seconds": round(sparse_seconds, 4),
        "dense_wall_seconds": round(dense_seconds, 4),
        "speedup_vs_dense": round(dense_seconds / sparse_seconds, 2)
        if sparse_seconds
        else None,
        "operations": operations,
    }


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


def _kernel_lp_instances(quick: bool, seed: int):
    """Seeded wide LPs in the packed kernel's winning regime.

    Box constraints plus a handful of dense ±1/±2 coupling rows — half of
    them origin-infeasible demand rows, so phase 1 has real work and the
    solve runs thousands of pivots.  Small coefficients keep the
    subdeterminants (and hence every tableau entry) inside int64 for the
    whole solve: zero overflow fallbacks, which is exactly the regime the
    packed representation is built for.  Dense large-coefficient rows
    would blow past int64 mid-solve and measure the fallback path
    instead.
    """
    from repro.linexpr.constraint import Constraint, Relation
    from repro.linexpr.expr import LinExpr

    rng = random.Random(seed)
    instances = 1 if quick else 2
    variables = 120 if quick else 200
    coupling = 12
    density = 0.7
    built = []
    for _ in range(instances):
        names = ["x%d" % i for i in range(variables)]
        constraints = []
        for name in names:
            constraints.append(
                Constraint(LinExpr({name: Fraction(-1)}), Relation.LE)
            )
            constraints.append(
                Constraint(
                    LinExpr({name: Fraction(1)}, Fraction(-rng.randint(5, 25))),
                    Relation.LE,
                )
            )
        for index in range(coupling):
            terms = {
                name: Fraction(rng.choice((-2, -1, 1, 2)))
                for name in names
                if rng.random() < density
            }
            if not terms:
                terms = {names[0]: Fraction(1)}
            if index % 2 == 0:
                # Demand row (sum ≥ rhs): the origin violates it, forcing
                # genuine phase-1 pivoting.
                constraints.append(
                    Constraint(
                        LinExpr(
                            {name: -c for name, c in terms.items()},
                            Fraction(rng.randint(2, variables // 2)),
                        ),
                        Relation.LE,
                    )
                )
            else:
                constraints.append(
                    Constraint(
                        LinExpr(
                            terms,
                            Fraction(-rng.randint(variables, 4 * variables)),
                        ),
                        Relation.LE,
                    )
                )
        objective = LinExpr(
            {name: Fraction(rng.randint(1, 3)) for name in names}
        )
        built.append((objective, constraints))
    return built


def _narrow_lp_instances(variables: int, instances: int, seed: int):
    """Seeded narrow LPs at WTC tableau scale (a handful of variables).

    Same box-plus-coupling shape as the wide batch, scaled down: the
    ranking LPs and SMT theory checks of the paper's corpus live at
    these widths, so this is the regime the ``auto`` crossover has to
    get right.
    """
    from repro.linexpr.constraint import Constraint, Relation
    from repro.linexpr.expr import LinExpr

    rng = random.Random(seed * 1000 + variables)
    coupling = max(3, variables // 3)
    built = []
    for _ in range(instances):
        names = ["x%d" % i for i in range(variables)]
        constraints = []
        for name in names:
            constraints.append(
                Constraint(LinExpr({name: Fraction(-1)}), Relation.LE)
            )
            constraints.append(
                Constraint(
                    LinExpr({name: Fraction(1)}, Fraction(-rng.randint(5, 25))),
                    Relation.LE,
                )
            )
        for index in range(coupling):
            terms = {
                name: Fraction(rng.choice((-2, -1, 1, 2)))
                for name in names
                if rng.random() < 0.8
            }
            if not terms:
                terms = {names[0]: Fraction(1)}
            if index % 2 == 0:
                constraints.append(
                    Constraint(
                        LinExpr(
                            {name: -c for name, c in terms.items()},
                            Fraction(rng.randint(2, max(2, variables // 2))),
                        ),
                        Relation.LE,
                    )
                )
            else:
                constraints.append(
                    Constraint(
                        LinExpr(
                            terms,
                            Fraction(-rng.randint(variables, 4 * variables)),
                        ),
                        Relation.LE,
                    )
                )
        objective = LinExpr(
            {name: Fraction(rng.randint(1, 3)) for name in names}
        )
        built.append((objective, constraints))
    return built


def _kernel_projection_systems(quick: bool, seed: int):
    """Seeded wide constraint systems for the packed FM comparison.

    Wide systems with small ±1/±2 coefficients: the eliminations *and*
    the redundancy LPs (which dominate FM wall time and inherit the
    kernel) both stay inside int64, so the packed rows never fall back.
    """
    from repro.linexpr.constraint import Constraint, Relation
    from repro.linexpr.expr import LinExpr

    rng = random.Random(seed + 1)
    systems = 1 if quick else 2
    rows = 36 if quick else 40
    eliminated = 3 if quick else 4
    names = ["v%d" % i for i in range(120)]
    built = []
    for _ in range(systems):
        constraints = []
        for _ in range(rows):
            terms = {
                name: Fraction(rng.choice((-2, -1, 1, 2)))
                for name in rng.sample(names, 12)
            }
            constraints.append(
                Constraint(
                    LinExpr(terms, Fraction(rng.randint(-9, 9))), Relation.LE
                )
            )
        built.append((constraints, names[:eliminated]))
    return built


def bench_kernel_packed(quick: bool = False, seed: int = 0) -> Dict:
    """Packed int64 kernel vs the exact bignum path, apples to apples.

    Runs the same seeded wide LP batch and the same wide Fourier–Motzkin
    projections under ``kernel="packed"`` and ``kernel="exact"`` and
    asserts **exact agreement** — identical statuses, optima, pivot
    counts and projected constraint sets — before reporting the
    speedups.  A disagreement raises instead of reporting a number: the
    packed kernel is a pure performance change or it is a bug.
    """
    from repro.linalg.packed import (
        numpy_available,
        overflow_fallbacks,
        reset_overflow_fallbacks,
    )
    from repro.lp.problem import Sense
    from repro.lp.simplex import solve_lp
    from repro.polyhedra.projection import fourier_motzkin

    if not numpy_available():
        return {
            "suite": "kernel_packed",
            "wall_seconds": 0.0,
            "skipped": "numpy unavailable (exact kernel only)",
        }

    lps = _kernel_lp_instances(quick, seed)
    projections = _kernel_projection_systems(quick, seed)
    reset_overflow_fallbacks()

    timings = {"packed": 0.0, "exact": 0.0}
    lp_outcomes: Dict[str, List] = {"packed": [], "exact": []}
    for kernel in ("exact", "packed"):
        started = time.perf_counter()
        for objective, constraints in lps:
            outcome = solve_lp(
                objective, constraints, Sense.MAXIMIZE, kernel=kernel
            )
            lp_outcomes[kernel].append(
                (outcome.status, outcome.objective, outcome.pivots)
            )
        timings[kernel] = time.perf_counter() - started
    if lp_outcomes["packed"] != lp_outcomes["exact"]:
        raise AssertionError("packed and exact kernels disagree on an LP")

    # WTC-scale narrow batch: 24 variables standard-form to ~75 columns,
    # the top of the corpus' ranking-LP width band (and squarely in the
    # width class ``auto`` sends to the stacked kernel).  The stacked
    # tableau must win here, or ``auto`` has no business picking it.
    narrow_lps = _narrow_lp_instances(
        24, 12 if quick else 36, seed + 7
    )
    narrow_timings = {"packed": 0.0, "exact": 0.0}
    narrow_outcomes: Dict[str, List] = {"packed": [], "exact": []}
    for kernel in ("exact", "packed"):
        started = time.perf_counter()
        for objective, constraints in narrow_lps:
            outcome = solve_lp(
                objective, constraints, Sense.MAXIMIZE, kernel=kernel
            )
            narrow_outcomes[kernel].append(
                (outcome.status, outcome.objective, outcome.pivots)
            )
        narrow_timings[kernel] = time.perf_counter() - started
    if narrow_outcomes["packed"] != narrow_outcomes["exact"]:
        raise AssertionError(
            "packed and exact kernels disagree on a narrow LP"
        )

    projection_timings = {"packed": 0.0, "exact": 0.0}
    projection_results: Dict[str, List] = {"packed": [], "exact": []}
    for kernel in ("exact", "packed"):
        started = time.perf_counter()
        for constraints, eliminate in projections:
            projected = fourier_motzkin(constraints, eliminate, kernel=kernel)
            projection_results[kernel].append(
                sorted(str(constraint) for constraint in projected)
            )
        projection_timings[kernel] = time.perf_counter() - started
    if projection_results["packed"] != projection_results["exact"]:
        raise AssertionError(
            "packed and exact kernels disagree on a projection"
        )

    pivots = sum(entry[2] for entry in lp_outcomes["packed"])
    return {
        "suite": "kernel_packed",
        "wall_seconds": round(
            timings["packed"]
            + timings["exact"]
            + narrow_timings["packed"]
            + narrow_timings["exact"]
            + projection_timings["packed"]
            + projection_timings["exact"],
            4,
        ),
        "lps_solved": len(lps),
        "pivots": pivots,
        "simplex_packed_seconds": round(timings["packed"], 4),
        "simplex_exact_seconds": round(timings["exact"], 4),
        "simplex_speedup": round(timings["exact"] / timings["packed"], 2)
        if timings["packed"]
        else None,
        "narrow_lps_solved": len(narrow_lps),
        "narrow_pivots": sum(
            entry[2] for entry in narrow_outcomes["packed"]
        ),
        "narrow_packed_seconds": round(narrow_timings["packed"], 4),
        "narrow_exact_seconds": round(narrow_timings["exact"], 4),
        "narrow_speedup": round(
            narrow_timings["exact"] / narrow_timings["packed"], 2
        )
        if narrow_timings["packed"]
        else None,
        "projections": len(projections),
        "projection_packed_seconds": round(projection_timings["packed"], 4),
        "projection_exact_seconds": round(projection_timings["exact"], 4),
        "projection_speedup": round(
            projection_timings["exact"] / projection_timings["packed"], 2
        )
        if projection_timings["packed"]
        else None,
        "overflow_fallbacks": overflow_fallbacks(),
        "verdicts_identical": True,
    }


#: The LP widths (variable counts) of the ``kernel_crossover`` sweep.
#: The sweep stops at 80 variables: past that, the dense ±1/±2
#: coupling rows of the narrow generator push mid-solve subdeterminants
#: over int64 and the measurement becomes a fallback storm rather than
#: a kernel comparison — the in-range wide regime is what
#: ``kernel_packed``'s 200-variable batch measures.
CROSSOVER_WIDTHS = (3, 5, 8, 12, 20, 40, 80)


def bench_kernel_crossover(quick: bool = False, seed: int = 0) -> Dict:
    """Stacked-vs-exact width sweep: where does the fast path start winning?

    Solves seeded LP batches at each width of :data:`CROSSOVER_WIDTHS`
    under both kernels, asserts identical statuses / optima / pivot
    counts per width, and reports the per-width speedup.  The
    ``crossover_width`` — the smallest width from which the stacked
    kernel never loses again — is what :data:`repro.linalg.packed.
    PACKED_MIN_WIDTH` (the ``auto`` threshold) is tuned against; the
    report carries both so a drift between them is visible in CI.
    """
    from repro.linalg.packed import PACKED_MIN_WIDTH, numpy_available
    from repro.lp.problem import Sense
    from repro.lp.simplex import solve_lp

    if not numpy_available():
        return {
            "suite": "kernel_crossover",
            "wall_seconds": 0.0,
            "skipped": "numpy unavailable (exact kernel only)",
        }

    widths = (5, 12, 40) if quick else CROSSOVER_WIDTHS
    wall = 0.0
    points = []
    for width in widths:
        instances = max(2, (48 if quick else 144) // width)
        lps = _narrow_lp_instances(width, instances, seed)
        timings = {"packed": 0.0, "exact": 0.0}
        outcomes: Dict[str, List] = {"packed": [], "exact": []}
        for kernel in ("exact", "packed"):
            started = time.perf_counter()
            for objective, constraints in lps:
                outcome = solve_lp(
                    objective, constraints, Sense.MAXIMIZE, kernel=kernel
                )
                outcomes[kernel].append(
                    (outcome.status, outcome.objective, outcome.pivots)
                )
            timings[kernel] = time.perf_counter() - started
        if outcomes["packed"] != outcomes["exact"]:
            raise AssertionError(
                "packed and exact kernels disagree at width %d" % width
            )
        wall += timings["packed"] + timings["exact"]
        points.append(
            {
                "width": width,
                "instances": instances,
                "pivots": sum(entry[2] for entry in outcomes["packed"]),
                "packed_seconds": round(timings["packed"], 4),
                "exact_seconds": round(timings["exact"], 4),
                "speedup": round(timings["exact"] / timings["packed"], 2)
                if timings["packed"]
                else None,
            }
        )

    # Smallest width from which the stacked kernel never loses again.
    crossover_width = None
    for index, point in enumerate(points):
        speedup = point["speedup"]
        if speedup is not None and speedup >= 1.0:
            tail = points[index:]
            if all(
                later["speedup"] is None or later["speedup"] >= 1.0
                for later in tail
            ):
                crossover_width = point["width"]
                break

    return {
        "suite": "kernel_crossover",
        "wall_seconds": round(wall, 4),
        "points": points,
        "crossover_width": crossover_width,
        "packed_min_width": PACKED_MIN_WIDTH,
        "verdicts_identical": True,
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
    "kernel_rows": bench_kernel_rows,
    "simplex": bench_simplex,
    "projection": bench_projection,
    "table1_wtc": lambda quick, seed: bench_table1_slice(quick=quick),
    "cegis_ablation": bench_cegis_ablation,
    "kernel_packed": bench_kernel_packed,
    "kernel_crossover": bench_kernel_crossover,
    "service": bench_service,
    "nonterm": bench_nonterm,
    "service_chaos": bench_service_chaos,
}

#: The suites ``repro bench`` runs when none are named.
DEFAULT_SUITES = (
    "kernel_rows",
    "simplex",
    "projection",
    "table1_wtc",
    "cegis_ablation",
    "kernel_packed",
    "kernel_crossover",
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


