"""The two front doors of the analysis service.

``repro serve --stdio`` wires :class:`~repro.service.protocol.
ServiceProtocol` straight to stdin/stdout with an :class:`InlineExecutor`
— one process, no pool, ideal for editor integrations and pipes.

``repro serve --port N`` runs :class:`ServiceServer`: an asyncio socket
server accepting newline-delimited JSON-RPC over TCP.  Requests dispatch
onto a **pre-forked** :class:`~repro.reporting.parallel.WorkerPool`
(forked after the prover registry and interned constraints are resident,
so a request pays the analysis alone), with per-request wall-clock
timeouts, crash isolation with automatic respawn, and graceful drain on
SIGTERM/SIGINT or the ``shutdown`` method: the listener closes first,
queued admissions are refused with ``SHUTTING_DOWN``, in-flight requests
finish (bounded by a grace period), then the pool is torn down.

Overload hardening (see :mod:`repro.service.admission`): every compute
passes the **admission gate** (``--max-inflight`` / ``--max-queue``) —
load beyond both bounds is shed with ``OVERLOADED`` (-32005) carrying
``retry_after_seconds``; under pressure, requests are **degraded**
(``nonterm=auto`` races dropped to termination-only), with every trade
stamped into ``provenance.degraded``.  A per-tool **circuit breaker** fails fast
after repeated worker crashes instead of burning the pool's respawn
budget.

Both doors share one :class:`~repro.service.cache.ResultCache` front:
the parent process answers duplicate requests from the content-addressed
cache — after the independent checker re-validates the certificate —
without ever touching a worker.  With ``--cache-dir`` the cache persists
across restarts (atomically written, checksummed, checker-revalidated on
load), so even a ``kill -9`` costs only the entries in flight.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import json
import os
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Set, Tuple

from repro.api.pipeline import analyze
from repro.api.request import AnalysisRequest
from repro.api.result import AnalysisResult, AnalysisStatus, Provenance
from repro.reporting.parallel import WorkerPool, run_tasks
from repro.service.admission import (
    AdmissionGate,
    CircuitBreaker,
    Overloaded,
    ShuttingDown,
)
from repro.service.cache import (
    DEFAULT_MAX_DISK_BYTES,
    DEFAULT_MAX_ENTRIES,
    ResultCache,
)
from repro.service.faults import INERT_INJECTOR, FaultInjector, FaultPlan
from repro.service.protocol import (
    ANALYSIS_ERROR,
    DEFAULT_MAX_PROGRAM_BYTES,
    OVERLOADED,
    PARSE_ERROR,
    REQUEST_TIMEOUT,
    SHUTTING_DOWN,
    WORKER_CRASH,
    ProtocolError,
    ServiceProtocol,
    error_response,
)

#: Extra seconds granted to in-flight requests during a graceful drain.
DRAIN_GRACE_SECONDS = 30.0

#: The hung-worker watchdog: even with no ``--timeout``, a worker holding
#: one request longer than this is SIGKILLed and its lease reclaimed.
DEFAULT_HUNG_DEADLINE_SECONDS = 300.0

#: Chunk size of the manual line framer.
_READ_CHUNK = 1 << 16


def _analyze_request_document(document: dict) -> dict:
    """The pool worker entry point: one request document in, one
    ``{"result": ..., "pid": ...}`` envelope out.

    Must stay module-level (it crosses the fork/spawn boundary) and must
    never raise for an analysis-level failure — those come back as
    ``status="error"`` results; only a genuine process death is a crash.

    Fault-injection markers (stamped by
    :meth:`repro.service.faults.FaultInjector.annotate_worker_message`)
    are honoured *before* the request parses: a ``kill`` marker dies
    mid-request the way a segfault would, a ``delay`` marker wedges the
    worker past its deadline the way an SMT loop would.
    """
    if "__fault__" in document:
        document = dict(document)
        fault = document.pop("__fault__", None)
        delay = document.pop("__fault_delay__", 0.0)
        if fault == "kill":
            os._exit(23)
        elif fault == "delay":
            time.sleep(float(delay))
    try:
        request = AnalysisRequest.from_dict(document)
        result = analyze(request)
    except Exception as error:
        result = AnalysisResult(
            tool=str(document.get("tool", "termite")),
            program=str(document.get("name", "program")),
            status=AnalysisStatus.ERROR,
            error="%s: %s" % (type(error).__name__, error),
        )
    return {"result": result.to_dict(), "pid": os.getpid()}


def degrade_request(request: AnalysisRequest) -> Tuple[AnalysisRequest, tuple]:
    """The load-shedding degradation tier: trade precision for slots.

    Under pressure the expensive half of a request is dropped — the
    ``nonterm="auto"`` two-thread race becomes termination-only — and
    the trade is named in the returned tuple so the executor can stamp
    it into ``provenance.degraded``.  A request with nothing to shed
    comes back unchanged with an empty tuple.
    """
    config = request.config
    if config.nonterm != "auto":
        return request, ()
    degraded_config = dataclasses.replace(config, nonterm="off")
    return request.replace(config=degraded_config), ("nonterm:auto->off",)


# ---------------------------------------------------------------------------
# executors
# ---------------------------------------------------------------------------


class _CachingExecutor:
    """The shared service spine: cache → breaker → gate → compute → store.

    The admission gate and circuit breaker guard *compute* only — a
    cache hit costs one checker pass on an already-bounded thread pool
    and is exactly the traffic an overloaded service wants to keep
    serving.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        gate: Optional[AdmissionGate] = None,
        breaker: Optional[CircuitBreaker] = None,
        timeout: Optional[float] = None,
        faults: Optional[FaultInjector] = None,
    ):
        self.cache = cache
        self.gate = gate
        self.breaker = breaker
        self.timeout = timeout
        self.faults = faults if faults is not None else INERT_INJECTOR

    #: Width of the analyze_batch fan-out (1 = in-order).
    @property
    def fanout(self) -> int:
        return 1

    def effective_timeout(self, request: AnalysisRequest) -> Optional[float]:
        """The tighter of the server budget and the caller's deadline.

        A caller may only shrink the budget; ``deadline_seconds`` beyond
        the server's ``--timeout`` is capped, never honoured upward.
        """
        deadline = request.deadline_seconds
        if deadline is None:
            return self.timeout
        if self.timeout is None:
            return deadline
        return min(self.timeout, deadline)

    def run(self, request: AnalysisRequest) -> AnalysisResult:
        if self.cache is not None:
            hit = self.cache.lookup(request)
            if hit is not None:
                # The cached payload carries the *first* requester's
                # program name; serve it under the current caller's.
                hit.program = request.name
                return hit
        if self.breaker is not None:
            try:
                self.breaker.check(request.tool)
            except Overloaded as error:
                raise ProtocolError(
                    OVERLOADED,
                    str(error),
                    data={"retry_after_seconds": error.retry_after_seconds},
                ) from None
        # check() may have granted this request the half-open probe; any
        # exit that never reaches a record_* call below must release it
        # (record_neutral) or the tool stays "probe in flight" forever.
        settled = self.breaker is None
        try:
            ticket = None
            if self.gate is not None:
                try:
                    ticket = self.gate.admit()
                except Overloaded as error:
                    raise ProtocolError(
                        OVERLOADED,
                        str(error),
                        data={"retry_after_seconds": error.retry_after_seconds},
                    ) from None
                except ShuttingDown:
                    raise ProtocolError(
                        SHUTTING_DOWN, "service is shutting down"
                    ) from None
            try:
                if (
                    ticket is not None
                    and ticket.waited
                    and self.cache is not None
                ):
                    # We may have queued a while: a duplicate request could
                    # have computed and stored meanwhile.  One more lookup
                    # here turns a whole burst of identical requests into
                    # one compute plus hits.
                    hit = self.cache.lookup(request)
                    if hit is not None:
                        hit.program = request.name
                        return hit
                effective, degradations = request, ()
                if self.gate is not None and self.gate.pressure_tier() >= 1:
                    effective, degradations = degrade_request(request)
                    if degradations:
                        self.gate.note_degraded()
                        if self.cache is not None:
                            hit = self.cache.lookup(effective)
                            if hit is not None:
                                hit.program = request.name
                                hit.provenance.degraded = degradations
                                return hit
                try:
                    result, pid = self._compute(effective)
                except ProtocolError as error:
                    if self.breaker is not None:
                        if error.code == WORKER_CRASH:
                            self.breaker.record_crash(request.tool)
                        elif error.code == ANALYSIS_ERROR:
                            # The worker answered: it is healthy.
                            self.breaker.record_success(request.tool)
                        else:
                            self.breaker.record_neutral(request.tool)
                        settled = True
                    raise
                if self.breaker is not None:
                    self.breaker.record_success(request.tool)
                    settled = True
                # Store *before* releasing the ticket: a queued duplicate
                # woken by the release must find the entry already there.
                disposition = "bypass"
                if self.cache is not None:
                    self.cache.store(effective, result)
                    disposition = "miss"
            finally:
                if ticket is not None:
                    ticket.release()
        finally:
            if not settled:
                self.breaker.record_neutral(request.tool)
        result.provenance = Provenance(
            cache=disposition,
            key=effective.cache_key(),
            revalidated=False,
            worker_pid=pid,
            degraded=degradations,
        )
        return result

    def _compute(self, request: AnalysisRequest) -> Tuple[AnalysisResult, int]:
        raise NotImplementedError

    def begin_drain(self) -> None:
        """Refuse queued and future admissions; in-flight work finishes."""
        if self.gate is not None:
            self.gate.close()

    def cache_stats(self) -> dict:
        document = {
            "enabled": self.cache is not None,
            "stats": self.cache.stats().to_dict()
            if self.cache is not None
            else None,
        }
        if self.gate is not None:
            document["admission"] = self.gate.stats()
        if self.breaker is not None:
            document["breaker"] = self.breaker.stats()
        if self.faults.active:
            document["faults"] = self.faults.log.to_dict()
        return document

    def shutdown(self) -> None:
        pass


def _envelope_to_result(
    envelope, budget: Optional[float], pool_capacity: Optional[int] = None
) -> Tuple[AnalysisResult, int]:
    """Translate a pool/one-shot :class:`TaskResult` into a result or a
    :class:`ProtocolError` (shared by both executors)."""
    if envelope.kind == "timeout":
        raise ProtocolError(
            REQUEST_TIMEOUT,
            envelope.message
            or "request exceeded its %.1fs budget (worker killed and "
            "respawned)" % (budget or 0.0),
            data={"elapsed": round(envelope.elapsed, 3)},
        )
    if envelope.kind == "crash":
        if pool_capacity == 0:
            raise ProtocolError(
                OVERLOADED,
                "worker pool exhausted its respawn budget: %s"
                % envelope.message,
                data={"retry_after_seconds": 30.0},
            )
        raise ProtocolError(
            WORKER_CRASH,
            "worker crashed mid-request (respawned): %s" % envelope.message,
        )
    if envelope.kind != "ok":
        raise ProtocolError(ANALYSIS_ERROR, envelope.message or "analysis failed")
    payload = envelope.value
    result = AnalysisResult.from_dict(payload["result"])
    if result.status is AnalysisStatus.ERROR:
        raise ProtocolError(ANALYSIS_ERROR, result.error or "analysis failed")
    return result, payload["pid"]


class InlineExecutor(_CachingExecutor):
    """Run analyses in the serving process (the stdio front door).

    A request carrying ``deadline_seconds`` (or a server ``timeout``)
    runs in a disposable one-shot worker process instead, so the budget
    is enforced with a real kill — the inline door has no resident pool
    to lease from, but it honours deadlines all the same.
    """

    def _compute(self, request: AnalysisRequest) -> Tuple[AnalysisResult, int]:
        budget = self.effective_timeout(request)
        if budget is not None:
            envelope = run_tasks(
                [functools.partial(_analyze_request_document, request.to_dict())],
                jobs=1,
                timeout=budget,
            )[0]
            return _envelope_to_result(envelope, budget)
        try:
            result = analyze(request)
        except Exception as error:
            raise ProtocolError(
                ANALYSIS_ERROR,
                "analysis failed: %s: %s" % (type(error).__name__, error),
            ) from None
        if result.status is AnalysisStatus.ERROR:
            raise ProtocolError(
                ANALYSIS_ERROR, result.error or "analysis failed"
            )
        return result, os.getpid()


class PoolExecutor(_CachingExecutor):
    """Dispatch analyses onto the pre-forked crash-isolated worker pool."""

    def __init__(
        self,
        jobs: int = 2,
        timeout: Optional[float] = None,
        cache: Optional[ResultCache] = None,
        gate: Optional[AdmissionGate] = None,
        breaker: Optional[CircuitBreaker] = None,
        faults: Optional[FaultInjector] = None,
        respawn_budget: int = 32,
        hung_deadline: Optional[float] = DEFAULT_HUNG_DEADLINE_SECONDS,
    ):
        super().__init__(
            cache=cache, gate=gate, breaker=breaker, timeout=timeout,
            faults=faults,
        )
        self.pool = WorkerPool(
            _analyze_request_document,
            jobs=jobs,
            respawn_budget=respawn_budget,
            hung_deadline=hung_deadline,
        )

    @property
    def fanout(self) -> int:
        # Batch members may fill every compute slot and the whole
        # admission queue, but not shed against themselves beyond that.
        if self.gate is not None:
            return max(1, min(32, self.gate.max_inflight + self.gate.max_queue))
        return max(1, self.pool.jobs)

    def _compute(self, request: AnalysisRequest) -> Tuple[AnalysisResult, int]:
        document = self.faults.annotate_worker_message(request.to_dict())
        budget = self.effective_timeout(request)
        envelope = self.pool.submit(document, timeout=budget)
        return _envelope_to_result(
            envelope, budget, pool_capacity=self.pool.capacity()
        )

    def cache_stats(self) -> dict:
        document = super().cache_stats()
        document["pool"] = self.pool.stats()
        return document

    def shutdown(self) -> None:
        self.pool.shutdown()


# ---------------------------------------------------------------------------
# the stdio front door
# ---------------------------------------------------------------------------


class AnalysisService:
    """Protocol + executor, bundled for embedding (tests, stdio, bench)."""

    def __init__(
        self,
        executor: Optional[_CachingExecutor] = None,
        max_program_bytes: int = DEFAULT_MAX_PROGRAM_BYTES,
    ):
        self.executor = executor if executor is not None else InlineExecutor(
            cache=ResultCache()
        )
        self.protocol = ServiceProtocol(
            self.executor, max_program_bytes=max_program_bytes
        )

    def handle_line(self, line) -> Optional[str]:
        return self.protocol.handle_line(line)

    @property
    def shutdown_requested(self) -> bool:
        return self.protocol.shutdown_requested

    def close(self) -> None:
        self.executor.shutdown()


def serve_stdio(
    input_stream=None,
    output_stream=None,
    cache: bool = True,
    cache_entries: int = DEFAULT_MAX_ENTRIES,
    revalidate: bool = True,
    max_program_bytes: int = DEFAULT_MAX_PROGRAM_BYTES,
    timeout: Optional[float] = None,
    cache_dir: Optional[str] = None,
    cache_disk_bytes: int = DEFAULT_MAX_DISK_BYTES,
) -> int:
    """Speak the protocol over stdin/stdout until EOF or ``shutdown``."""
    stdin = input_stream if input_stream is not None else sys.stdin
    stdout = output_stream if output_stream is not None else sys.stdout
    service = AnalysisService(
        InlineExecutor(
            cache=ResultCache(
                cache_entries,
                revalidate=revalidate,
                cache_dir=cache_dir,
                max_disk_bytes=cache_disk_bytes,
            )
            if cache
            else None,
            timeout=timeout,
        ),
        max_program_bytes=max_program_bytes,
    )
    try:
        for line in stdin:
            response = service.handle_line(line)
            if response is not None:
                stdout.write(response + "\n")
                stdout.flush()
            if service.shutdown_requested:
                break
    finally:
        service.close()
    return 0


# ---------------------------------------------------------------------------
# the asyncio socket front door
# ---------------------------------------------------------------------------


class _LineFramer:
    """Newline framing with a hard per-line cap and oversized recovery.

    ``readline`` returns ``(line, oversized)``: a complete line (without
    its newline), or ``line=None`` at EOF.  A line beyond *max_bytes* is
    reported as ``oversized=True`` with its bytes discarded — crucially,
    the scan continues to the terminating newline first, so the **next**
    line on the same connection frames correctly and the connection
    keeps serving (the transport never conflates "one bad request" with
    "a lost client").
    """

    def __init__(self, reader: asyncio.StreamReader, max_bytes: int):
        self._reader = reader
        self.max_bytes = int(max_bytes)
        self._buffer = bytearray()

    async def readline(self) -> Tuple[Optional[bytes], bool]:
        while True:
            index = self._buffer.find(b"\n")
            if index >= 0:
                line = bytes(self._buffer[:index])
                del self._buffer[: index + 1]
                if len(line) > self.max_bytes:
                    return b"", True
                return line, False
            if len(self._buffer) > self.max_bytes:
                # Oversized with no newline yet: drop what we have and
                # scan forward to the next newline to recover framing.
                self._buffer.clear()
                found = await self._scan_to_newline()
                return (b"", True) if found else (None, True)
            chunk = await self._reader.read(_READ_CHUNK)
            if not chunk:
                if self._buffer:
                    line = bytes(self._buffer)
                    self._buffer.clear()
                    if len(line) > self.max_bytes:
                        return b"", True
                    return line, False
                return None, False
            self._buffer.extend(chunk)

    async def _scan_to_newline(self) -> bool:
        while True:
            chunk = await self._reader.read(_READ_CHUNK)
            if not chunk:
                return False
            index = chunk.find(b"\n")
            if index >= 0:
                self._buffer.extend(chunk[index + 1 :])
                return True


class ServiceServer:
    """Newline-delimited JSON-RPC over TCP, onto the pre-forked pool.

    Lifecycle: :meth:`start` binds (``port=0`` picks a free port and
    updates :attr:`port`), :meth:`serve_forever` runs until a stop is
    requested — by SIGTERM/SIGINT, the protocol's ``shutdown`` method, or
    :meth:`request_stop` — then drains: stop accepting, refuse queued
    admissions with ``SHUTTING_DOWN``, let in-flight connections finish
    (bounded by a grace period), shut the pool down.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        jobs: int = 2,
        timeout: Optional[float] = None,
        cache: bool = True,
        cache_entries: int = DEFAULT_MAX_ENTRIES,
        revalidate: bool = True,
        max_program_bytes: int = DEFAULT_MAX_PROGRAM_BYTES,
        max_inflight: Optional[int] = None,
        max_queue: Optional[int] = None,
        cache_dir: Optional[str] = None,
        cache_disk_bytes: int = DEFAULT_MAX_DISK_BYTES,
        fault_plan=None,
        drain_grace: float = DRAIN_GRACE_SECONDS,
        respawn_budget: int = 32,
        hung_deadline: Optional[float] = DEFAULT_HUNG_DEADLINE_SECONDS,
    ):
        self.host = host
        self.port = port
        self.max_program_bytes = int(max_program_bytes)
        self.drain_grace = float(drain_grace)
        if isinstance(fault_plan, str) or fault_plan is None:
            fault_plan = FaultPlan.parse(fault_plan)
        self.faults = FaultInjector(fault_plan)
        jobs = max(1, int(jobs))
        gate = AdmissionGate(
            max_inflight=jobs if max_inflight is None else max_inflight,
            max_queue=4 * jobs if max_queue is None else max_queue,
        )
        self.executor = PoolExecutor(
            jobs=jobs,
            timeout=timeout,
            cache=ResultCache(
                cache_entries,
                revalidate=revalidate,
                cache_dir=cache_dir,
                max_disk_bytes=cache_disk_bytes,
                fault_injector=self.faults,
            )
            if cache
            else None,
            gate=gate,
            breaker=CircuitBreaker(),
            faults=self.faults,
            respawn_budget=respawn_budget,
            hung_deadline=hung_deadline,
        )
        self.protocol = ServiceProtocol(
            self.executor, max_program_bytes=self.max_program_bytes
        )
        # handle_line blocks (cache revalidation, waiting on a worker
        # pipe, queueing at the admission gate); it runs on this thread
        # pool so the event loop never does.  Sized to the gate: enough
        # threads that a full compute line plus queue never starves the
        # cheap methods.
        self._threads = ThreadPoolExecutor(
            max_workers=max(4, gate.max_inflight + gate.max_queue + 2),
            thread_name_prefix="repro-serve",
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._connections: Set[asyncio.Task] = set()
        # Connections with a request in flight; only these get the drain
        # grace — idle connections (parked in readline) cancel instantly.
        self._busy: Set[asyncio.Task] = set()

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> int:
        """Bind the listener; returns (and records) the bound port."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    def request_stop(self) -> None:
        """Begin a graceful drain (safe to call from any thread)."""
        if self._loop is None or self._stop is None:
            return
        try:
            self._loop.call_soon_threadsafe(self._stop.set)
        except RuntimeError:
            pass  # the loop already finished draining — stop is a no-op

    async def serve_forever(self) -> None:
        """Serve until a stop is requested, then drain and tear down."""
        assert self._server is not None and self._stop is not None
        loop = asyncio.get_running_loop()
        installed = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self._stop.set)
                installed.append(signum)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread or unsupported platform
        try:
            await self._stop.wait()
        finally:
            for signum in installed:
                try:
                    loop.remove_signal_handler(signum)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass
            # Late arrivals on still-open connections get SHUTTING_DOWN,
            # and admissions queued at the gate are woken and refused.
            self.protocol.shutdown_requested = True
            self.executor.begin_drain()
            self._server.close()
            await self._server.wait_closed()
            for task in list(self._connections):
                if task not in self._busy:
                    task.cancel()
            if self._connections:
                done, pending = await asyncio.wait(
                    list(self._connections), timeout=self.drain_grace
                )
                for task in pending:
                    task.cancel()
                if pending:
                    await asyncio.gather(*pending, return_exceptions=True)
            self.executor.shutdown()
            self._threads.shutdown(wait=False)

    async def run(self) -> int:
        """``start()`` + ``serve_forever()`` in one call; returns the port
        it served on (mostly for symmetry with :func:`serve_stdio`)."""
        port = await self.start()
        await self.serve_forever()
        return port

    # -- per-connection loop -----------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        loop = asyncio.get_running_loop()
        # A request line holds the JSON-escaped program plus envelope.
        framer = _LineFramer(
            reader, 2 * self.max_program_bytes + (1 << 16)
        )
        try:
            while True:
                line, oversized = await framer.readline()
                if oversized:
                    payload = json.dumps(
                        error_response(
                            None,
                            PARSE_ERROR,
                            "request line exceeds the %d-byte frame limit; "
                            "the line was discarded" % framer.max_bytes,
                        )
                    )
                    writer.write(payload.encode("utf-8") + b"\n")
                    await writer.drain()
                    if line is None:
                        break
                    continue
                if line is None:
                    break
                if not line.strip():
                    continue
                if task is not None:
                    self._busy.add(task)
                try:
                    response = await loop.run_in_executor(
                        self._threads, self.protocol.handle_line, line
                    )
                    if response is not None:
                        data = response.encode("utf-8") + b"\n"
                        if self.faults.decide("drop_connection"):
                            # Chaos: cut the response off mid-line and
                            # hang up — the client must survive this.
                            writer.write(data[: max(1, len(data) // 2)])
                            await writer.drain()
                            break
                        writer.write(data)
                        await writer.drain()
                finally:
                    if task is not None:
                        self._busy.discard(task)
                if self.protocol.shutdown_requested or self._stop.is_set():
                    self._stop.set()
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
                self._busy.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass


# ---------------------------------------------------------------------------
# embedding helper (tests and the service bench)
# ---------------------------------------------------------------------------


class RunningServer:
    """A :class:`ServiceServer` running on a daemon thread."""

    def __init__(self, server: ServiceServer, thread: threading.Thread):
        self.server = server
        self.thread = thread

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.host

    def cache_stats(self) -> dict:
        return self.server.executor.cache_stats()

    def stop(self, join_timeout: float = 60.0) -> None:
        self.server.request_stop()
        self.thread.join(join_timeout)

    def __enter__(self) -> "RunningServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def run_server_in_thread(**kwargs) -> RunningServer:
    """Start a :class:`ServiceServer` on a background thread.

    Returns once the listener is bound (so ``.port`` is final).  The
    caller stops it with :meth:`RunningServer.stop` (or ``with``).
    """
    server = ServiceServer(**kwargs)
    started = threading.Event()
    failure = []

    def _run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)

        async def _main() -> None:
            try:
                await server.start()
            finally:
                started.set()
            await server.serve_forever()

        try:
            loop.run_until_complete(_main())
        except Exception as error:  # surfaced via `failure` below
            failure.append(error)
            started.set()
        finally:
            loop.close()

    thread = threading.Thread(target=_run, name="repro-service", daemon=True)
    thread.start()
    if not started.wait(timeout=60.0):
        raise RuntimeError("service did not start within 60s")
    if failure:
        raise RuntimeError("service failed to start: %s" % failure[0])
    return RunningServer(server, thread)
