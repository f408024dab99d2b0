"""A crash-isolated parallel task engine with per-task wall-clock timeouts.

The benchmark harness needs three guarantees that a plain
``concurrent.futures`` pool does not give:

* **hard timeouts** — a prover stuck in an SMT loop must be killed, not
  merely abandoned (a pool worker would stay busy forever);
* **crash isolation** — a segfault, ``os._exit`` or unpicklable exception
  in one benchmark must surface as a failed result, not take the whole
  table down;
* **deterministic ordering** — results come back in submission order
  regardless of completion order, so two runs of the same table are
  diffable.

Each task therefore runs in its own (fork-started, daemonic) process that
reports back over a pipe; the parent multiplexes the pipes with
:func:`multiprocessing.connection.wait` and enforces deadlines.  With
``jobs <= 1`` and no timeout the tasks run inline — same semantics, no
process overhead — which keeps the unit-test path cheap.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
import time
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait_connections
from typing import Any, Callable, List, Optional, Sequence

#: How long (seconds) a terminated worker gets to exit before SIGKILL.
_TERMINATE_GRACE = 2.0


@dataclass
class TaskResult:
    """Envelope for one task: exactly one of the kinds below.

    ``kind`` is ``"ok"`` (``value`` holds the task's return value),
    ``"error"`` (``message`` holds the formatted exception), ``"timeout"``
    (the deadline passed and the worker was killed) or ``"crash"`` (the
    worker died without reporting — segfault, ``os._exit``, OOM kill).
    """

    kind: str
    value: Any = None
    message: str = ""
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.kind == "ok"


def _run_thunk(thunk: Callable[[], Any]) -> TaskResult:
    """Run a task inline.  Ordinary exceptions become error results;
    KeyboardInterrupt/SystemExit propagate so Ctrl-C still aborts an
    inline sweep (the worker-process path catches them separately)."""
    start = time.perf_counter()
    try:
        value = thunk()
    except Exception as error:  # isolate the harness from task bugs
        return TaskResult(
            kind="error",
            message="%s: %s" % (type(error).__name__, error),
            elapsed=time.perf_counter() - start,
        )
    return TaskResult(kind="ok", value=value, elapsed=time.perf_counter() - start)


def _worker(connection, thunk: Callable[[], Any]) -> None:
    start = time.perf_counter()
    try:
        result = _run_thunk(thunk)
    except BaseException as error:  # the process is disposable: report, don't die
        result = TaskResult(
            kind="error",
            message="%s: %s" % (type(error).__name__, error),
            elapsed=time.perf_counter() - start,
        )
    try:
        connection.send(result)
    except Exception as error:  # e.g. the task's return value is unpicklable
        connection.send(
            TaskResult(
                kind="error",
                message="result not transferable: %s" % error,
                elapsed=result.elapsed,
            )
        )
    finally:
        connection.close()


class _ActiveTask:
    __slots__ = ("index", "process", "connection", "started", "deadline")

    def __init__(self, index, process, connection, started, deadline):
        self.index = index
        self.process = process
        self.connection = connection
        self.started = started
        self.deadline = deadline


def _reap(task: _ActiveTask) -> TaskResult:
    """Collect the result of a task whose pipe became readable."""
    try:
        result = task.connection.recv()
    except EOFError:
        exit_code = task.process.exitcode
        result = TaskResult(
            kind="crash",
            message="worker exited without reporting (exit code %s)" % exit_code,
            elapsed=time.monotonic() - task.started,
        )
    task.process.join()
    task.connection.close()
    return result


def _kill(task: _ActiveTask) -> None:
    task.process.terminate()
    task.process.join(_TERMINATE_GRACE)
    if task.process.is_alive():
        task.process.kill()
        task.process.join()
    task.connection.close()


def run_tasks(
    thunks: Sequence[Callable[[], Any]],
    jobs: int = 1,
    timeout: Optional[float] = None,
) -> List[TaskResult]:
    """Run *thunks* with up to *jobs* concurrent worker processes.

    Returns one :class:`TaskResult` per thunk, **in submission order**.
    ``timeout`` is a per-task wall-clock budget in seconds; a task that
    exceeds it is killed and reported as ``kind="timeout"``.  With
    ``jobs <= 1`` and no timeout everything runs inline in this process.
    """
    jobs = max(1, int(jobs))
    if jobs == 1 and timeout is None:
        return [_run_thunk(thunk) for thunk in thunks]

    start_methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in start_methods else "spawn"
    )

    results: List[Optional[TaskResult]] = [None] * len(thunks)
    queue = list(enumerate(thunks))
    next_task = 0
    active: List[_ActiveTask] = []

    while next_task < len(queue) or active:
        while next_task < len(queue) and len(active) < jobs:
            index, thunk = queue[next_task]
            next_task += 1
            parent_end, child_end = context.Pipe(duplex=False)
            process = context.Process(
                target=_worker, args=(child_end, thunk), daemon=True
            )
            process.start()
            child_end.close()
            now = time.monotonic()
            active.append(
                _ActiveTask(
                    index,
                    process,
                    parent_end,
                    now,
                    now + timeout if timeout is not None else None,
                )
            )

        now = time.monotonic()
        wait_budget: Optional[float] = None
        if timeout is not None:
            nearest = min(task.deadline for task in active)
            wait_budget = max(0.0, nearest - now)
        ready = _wait_connections(
            [task.connection for task in active], timeout=wait_budget
        )

        still_active: List[_ActiveTask] = []
        now = time.monotonic()
        for task in active:
            if task.connection in ready:
                results[task.index] = _reap(task)
            elif task.deadline is not None and now >= task.deadline:
                _kill(task)
                results[task.index] = TaskResult(
                    kind="timeout", elapsed=now - task.started
                )
            else:
                still_active.append(task)
        active = still_active

    return [result for result in results if result is not None]


# ---------------------------------------------------------------------------
# The resident worker pool (the long-lived service variant of the engine)
# ---------------------------------------------------------------------------


def _default_context():
    start_methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in start_methods else "spawn"
    )


def _pool_worker_loop(connection, handler: Callable[[Any], Any]) -> None:
    """One resident worker: receive a message, run *handler*, reply.

    The loop ends on the ``None`` shutdown sentinel or when the parent's
    end of the pipe disappears.  Every reply is a :class:`TaskResult`
    envelope, so handler exceptions come back as ``kind="error"`` instead
    of killing the worker — the worker only dies on a genuine crash
    (segfault, ``os._exit``, OOM kill), which the parent detects as EOF.
    """
    while True:
        try:
            message = connection.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if message is None:
            break
        result = _run_thunk(lambda: handler(message))
        try:
            connection.send(result)
        except Exception as error:  # e.g. an unpicklable return value
            try:
                connection.send(
                    TaskResult(
                        kind="error",
                        message="result not transferable: %s" % error,
                        elapsed=result.elapsed,
                    )
                )
            except Exception:
                break
    try:
        connection.close()
    except Exception:
        pass


#: A worker dying sooner than this after spawn counts as a "fast death"
#: for the exponential respawn backoff (a crash-looping request class).
_FAST_DEATH_SECONDS = 5.0


class _PooledWorker:
    __slots__ = ("process", "connection", "slot", "spawned")

    def __init__(self, process, connection, slot, spawned):
        self.process = process
        self.connection = connection
        self.slot = slot
        self.spawned = spawned

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid


class WorkerPool:
    """A fixed set of resident, crash-isolated worker processes.

    Where :func:`run_tasks` forks one disposable process per task (right
    for batch sweeps), the pool keeps ``jobs`` **pre-forked** workers
    alive across requests — each worker pays the interpreter/import cost
    once and keeps the prover registry, interned constraints and any
    warm per-process state resident.  This is the execution engine of the
    analysis service (:mod:`repro.service`).

    Guarantees, per :meth:`submit`:

    * **crash isolation** — a worker dying mid-request surfaces as a
      ``kind="crash"`` envelope and the worker is respawned; the pool is
      never poisoned;
    * **hard timeouts** — a request over its *timeout* kills the worker
      (``kind="timeout"``) and respawns it;
    * **thread safety** — :meth:`submit` may be called from many threads
      concurrently (the asyncio server does); each call exclusively
      leases one worker for the duration of the request.

    Supervision (the overload-hardening additions):

    * **respawn budgets** — each of the ``jobs`` worker slots may be
      respawned at most ``respawn_budget`` times; a slot that exhausts
      its budget is lost, and once every slot is lost :meth:`submit`
      fails fast with a ``kind="crash"`` envelope instead of blocking
      forever on an empty pool;
    * **exponential backoff** — a slot whose workers keep dying within
      :data:`_FAST_DEATH_SECONDS` of spawning is respawned after an
      exponentially growing delay (on a background timer, never blocking
      the caller), so a crash-looping request class cannot turn the
      parent into a fork bomb;
    * **hung-worker watchdog** — even with ``timeout=None``, a request
      older than ``hung_deadline`` SIGKILLs its worker and reports
      ``kind="timeout"``; a wedged worker can never hold a lease
      forever.
    """

    def __init__(
        self,
        handler: Callable[[Any], Any],
        jobs: int = 2,
        context=None,
        respawn_budget: int = 32,
        respawn_backoff: float = 0.05,
        respawn_backoff_max: float = 2.0,
        hung_deadline: Optional[float] = None,
    ):
        self._handler = handler
        self._context = context if context is not None else _default_context()
        self._jobs = max(1, int(jobs))
        self.respawn_budget = max(0, int(respawn_budget))
        self.respawn_backoff = max(0.0, float(respawn_backoff))
        self.respawn_backoff_max = max(0.0, float(respawn_backoff_max))
        self.hung_deadline = hung_deadline
        self._lock = threading.Lock()
        self._closed = False
        self._workers: List[_PooledWorker] = []
        self._idle: "queue.Queue[_PooledWorker]" = queue.Queue()
        self._slot_respawns = [0] * self._jobs
        self._slot_streak = [0] * self._jobs
        self._slot_lost = [False] * self._jobs
        self._hung_kills = 0
        self._submitted = 0
        self._timers: List[threading.Timer] = []
        for slot in range(self._jobs):
            self._idle.put(self._spawn(slot))

    # -- lifecycle ---------------------------------------------------------------

    def _spawn(self, slot: int) -> _PooledWorker:
        parent_end, child_end = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_pool_worker_loop,
            args=(child_end, self._handler),
            daemon=True,
        )
        process.start()
        child_end.close()
        worker = _PooledWorker(process, parent_end, slot, time.monotonic())
        with self._lock:
            self._workers.append(worker)
        return worker

    def _retire(self, worker: _PooledWorker, sigkill: bool = False) -> None:
        with self._lock:
            if worker in self._workers:
                self._workers.remove(worker)
        if sigkill:
            worker.process.kill()
            worker.process.join()
        else:
            worker.process.terminate()
            worker.process.join(_TERMINATE_GRACE)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join()
        try:
            worker.connection.close()
        except Exception:
            pass

    def _schedule_respawn(self, worker: _PooledWorker) -> None:
        """Refill *worker*'s slot — now, after a backoff, or never.

        Never blocks the caller: a backoff delay runs on a daemon timer
        so the response that triggered the respawn returns immediately.
        """
        slot = worker.slot
        now = time.monotonic()
        with self._lock:
            if self._closed or self._slot_lost[slot]:
                return
            if self._slot_respawns[slot] >= self.respawn_budget:
                self._slot_lost[slot] = True
                return
            self._slot_respawns[slot] += 1
            if now - worker.spawned < _FAST_DEATH_SECONDS:
                self._slot_streak[slot] += 1
            else:
                self._slot_streak[slot] = 0
            streak = self._slot_streak[slot]
        delay = 0.0
        if streak > 0 and self.respawn_backoff > 0:
            delay = min(
                self.respawn_backoff_max,
                self.respawn_backoff * (2.0 ** (streak - 1)),
            )
        if delay <= 0.0:
            self._idle.put(self._spawn(slot))
            return

        def _respawn_later() -> None:
            with self._lock:
                if self._closed:
                    return
            replacement = self._spawn(slot)
            with self._lock:
                closed = self._closed
            if closed:
                # shutdown() raced the spawn and has already drained
                # _workers; retire the fresh child ourselves so it is
                # never leaked.
                self._retire(replacement)
                return
            self._idle.put(replacement)

        timer = threading.Timer(delay, _respawn_later)
        timer.daemon = True
        with self._lock:
            self._timers = [t for t in self._timers if t.is_alive()]
            self._timers.append(timer)
        timer.start()

    @property
    def jobs(self) -> int:
        return self._jobs

    def pids(self) -> List[int]:
        """Pids of the currently live workers (for monitoring/tests)."""
        with self._lock:
            return [worker.pid for worker in self._workers if worker.pid]

    def capacity(self) -> int:
        """Worker slots that are still serviceable (live or respawnable)."""
        with self._lock:
            return sum(1 for lost in self._slot_lost if not lost)

    def stats(self) -> dict:
        with self._lock:
            return {
                "jobs": self._jobs,
                "workers_alive": len(self._workers),
                "slots_lost": sum(1 for lost in self._slot_lost if lost),
                "respawns": sum(self._slot_respawns),
                "respawn_budget": self.respawn_budget,
                "hung_kills": self._hung_kills,
                "tasks_submitted": self._submitted,
            }

    # -- execution ---------------------------------------------------------------

    def submit(self, message: Any, timeout: Optional[float] = None) -> TaskResult:
        """Run *message* through one worker; always returns an envelope."""
        with self._lock:
            self._submitted += 1
        worker = self._lease()
        if worker is None:
            with self._lock:
                closed = self._closed
            return TaskResult(
                kind="crash",
                message="pool is shut down"
                if closed
                else "no workers left: every slot exhausted its respawn "
                "budget of %d" % self.respawn_budget,
            )
        started = time.monotonic()
        replace = False
        hung_kill = False
        # The watchdog: even an unbounded request may not hold a lease
        # past `hung_deadline` — the worker is SIGKILLed instead.
        effective = timeout if timeout is not None else self.hung_deadline
        try:
            try:
                worker.connection.send(message)
            except Exception as error:
                replace = True
                return TaskResult(
                    kind="crash",
                    message="worker unreachable: %s" % error,
                    elapsed=time.monotonic() - started,
                )
            try:
                if not worker.connection.poll(effective):
                    replace = True
                    elapsed = time.monotonic() - started
                    if timeout is None:
                        hung_kill = True
                        with self._lock:
                            self._hung_kills += 1
                        return TaskResult(
                            kind="timeout",
                            message="hung-worker watchdog fired after %.1fs "
                            "(worker SIGKILLed)" % elapsed,
                            elapsed=elapsed,
                        )
                    return TaskResult(kind="timeout", elapsed=elapsed)
                result = worker.connection.recv()
            except (EOFError, OSError):
                replace = True
                exit_code = worker.process.exitcode
                return TaskResult(
                    kind="crash",
                    message="worker died mid-request (exit code %s)" % exit_code,
                    elapsed=time.monotonic() - started,
                )
            if not isinstance(result, TaskResult):
                result = TaskResult(kind="ok", value=result)
            return result
        finally:
            if replace:
                self._retire(worker, sigkill=hung_kill)
                if not self._closed:
                    self._schedule_respawn(worker)
            else:
                self._idle.put(worker)

    def _lease(self) -> Optional[_PooledWorker]:
        """One idle worker, or ``None`` once the pool has no capacity.

        Polls rather than blocking forever: the pool can lose capacity
        (respawn budgets exhausting) while a caller waits.
        """
        while True:
            with self._lock:
                if self._closed or not any(
                    not lost for lost in self._slot_lost
                ):
                    return None
            try:
                return self._idle.get(timeout=0.1)
            except queue.Empty:
                continue

    # -- shutdown ----------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop every worker.  Idempotent; in-flight requests should be
        drained first (the service does), stragglers are killed."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers)
            self._workers = []
            timers = list(self._timers)
            self._timers = []
        for timer in timers:
            timer.cancel()
        for worker in workers:
            try:
                worker.connection.send(None)
            except Exception:
                pass
        deadline = time.monotonic() + _TERMINATE_GRACE
        for worker in workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join()
            try:
                worker.connection.close()
            except Exception:
                pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
