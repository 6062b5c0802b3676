"""The sweep service: a persistent asyncio campaign dispatcher.

:class:`ServiceServer` listens on a local Unix-domain socket and runs
submitted campaigns over one shared :class:`~.scheduler.TaskBroker`
fleet.  Each connection carries one request (see
:mod:`repro.service.protocol`); ``submit`` and ``attach`` answer with a
campaign stream — an obs-EventLog-framed sequence of ``campaign-begin``
/ ``heartbeat`` / ``point`` / ``campaign-finish`` events — while the
campaign's tasks resolve against the shared read-through
:class:`~repro.runner.cache.ResultCache` with single-flight
deduplication.

Persistence is the cache directory, not server memory:

* every submission is recorded as a *campaign ledger*
  (:func:`~repro.runner.campaign.record_ledger`) next to the campaign
  manifest, so a campaign is re-derivable from its key alone;
* ``attach`` rebuilds the task list from the ledger (by unique key
  prefix, like an abbreviated git hash) and streams the campaign —
  completed tasks are cache hits, the remainder executes.  A server
  killed mid-campaign and restarted over the same cache directory
  therefore finishes only the remaining tasks, which is exactly the
  one-shot ``--resume`` contract with the re-run replaced by a client
  reconnection.

Campaign state (ledger and manifest) is read and written on the event
loop, like the broker's cache probe: the files are small, and they are
written only when they change (see :mod:`repro.runner.campaign`), so a
warm resubmission of a complete campaign writes nothing and makes no
thread hop.

Heartbeats from the runner (hit/start/retry/attempt-failed/finish/
fail) are fanned in through one process-wide
:class:`~repro.obs.progress.HeartbeatRouter` and routed to each
connection by its campaign's task keys, so concurrent clients only see
their own campaign's execution, whichever fleet thread emits it.
Every heartbeat the router has delivered by the time the last point
is written goes out before ``campaign-finish``.

:func:`serve_in_thread` hosts a server inside the current process for
tests and benchmarks.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import itertools
import signal
import threading
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.points import point_to_dict
from repro.obs.progress import HeartbeatRouter
from repro.runner import (
    ResultCache,
    RetryPolicy,
    RunTask,
    begin_campaign,
    finish_campaign,
    fused_eligible,
    load_ledger,
    match_campaigns,
    record_ledger,
)
from repro.sim import backend

from .protocol import (
    PROTOCOL_SCHEMA,
    ProtocolError,
    decode_line,
    encode_line,
    normalize_spec,
    spec_campaign,
    stream_event,
    stream_header,
)
from .scheduler import TaskBroker

__all__ = ["ServiceServer", "serve_in_thread"]

#: Heartbeat kinds forwarded into campaign streams.  The campaign
#: markers are excluded — the stream has richer first-class
#: ``campaign-begin`` / ``campaign-finish`` events of its own.
_FORWARDED_PHASES = frozenset({
    "hit", "start", "retry", "attempt-failed", "finish", "fail",
})


class ServiceServer:
    """One campaign dispatcher bound to a cache directory and socket."""

    def __init__(self, cache_dir: "Path | str",
                 socket_path: "Path | str", *,
                 fleet: int = 1,
                 workers: int = 1,
                 retry: Optional[RetryPolicy] = None) -> None:
        self.socket_path = Path(socket_path)
        self.store = ResultCache(Path(cache_dir))
        self.broker = TaskBroker(self.store, fleet=fleet,
                                 workers=workers, retry=retry)
        self.router = HeartbeatRouter()
        self.campaigns_served = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None

    # -- lifecycle ----------------------------------------------------

    async def serve(self, *,
                    ready: Optional[threading.Event] = None) -> None:
        """Listen until :meth:`request_stop` (or SIGINT/SIGTERM).

        ``ready`` is set once the socket is accepting connections —
        :func:`serve_in_thread` blocks on it so callers never race the
        bind.
        """
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._stop = asyncio.Event()
        self.router.start()
        with contextlib.suppress(OSError):
            self.socket_path.unlink()
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        server = await asyncio.start_unix_server(
            self._handle, path=str(self.socket_path))
        handled_signals = []
        for sig in (signal.SIGINT, signal.SIGTERM):
            # Only available on the main thread of the main
            # interpreter; in-thread servers stop via request_stop().
            with contextlib.suppress(NotImplementedError, RuntimeError,
                                     ValueError):
                loop.add_signal_handler(sig, self._stop.set)
                handled_signals.append(sig)
        if ready is not None:
            ready.set()
        try:
            await self._stop.wait()
        finally:
            for sig in handled_signals:
                with contextlib.suppress(NotImplementedError,
                                         RuntimeError, ValueError):
                    loop.remove_signal_handler(sig)
            server.close()
            await server.wait_closed()
            self.router.stop()
            with contextlib.suppress(OSError):
                self.socket_path.unlink()

    def request_stop(self) -> None:
        """Ask a running server to shut down (safe from any thread)."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(stop.set)

    # -- request handling ---------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            raw = await reader.readline()
            if not raw:
                return
            try:
                await self._dispatch(decode_line(raw), writer)
            except ProtocolError as exc:
                await _send_line(writer, {"schema": PROTOCOL_SCHEMA,
                                          "error": str(exc)})
        except (ConnectionError, BrokenPipeError):
            pass  # client went away mid-stream; its campaign continues
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (Exception, asyncio.CancelledError):
                # Nothing follows this close; swallowing a shutdown
                # cancellation here keeps loop teardown quiet.
                pass

    async def _dispatch(self, request: dict,
                        writer: asyncio.StreamWriter) -> None:
        op = request.get("op")
        if op == "ping":
            await _send_line(writer, {"schema": PROTOCOL_SCHEMA,
                                      "ok": True, "op": "ping"})
        elif op == "status":
            payload = {"schema": PROTOCOL_SCHEMA, "ok": True,
                       "op": "status",
                       "campaigns_served": self.campaigns_served}
            payload.update(self.broker.snapshot())
            await _send_line(writer, payload)
        elif op == "shutdown":
            await _send_line(writer, {"schema": PROTOCOL_SCHEMA,
                                      "ok": True, "op": "shutdown"})
            if self._stop is not None:
                self._stop.set()
        elif op == "submit":
            spec = normalize_spec(request.get("spec"))
            await self._stream_campaign(spec, writer)
        elif op == "attach":
            spec = await self._attached_spec(request.get("campaign"))
            await self._stream_campaign(spec, writer)
        else:
            raise ProtocolError(f"unknown op {op!r}")

    async def _attached_spec(self, prefix: object) -> dict:
        if not isinstance(prefix, str) or not prefix:
            raise ProtocolError("attach needs a non-empty string "
                                "'campaign' key prefix")
        matches = match_campaigns(self.store, prefix)
        if not matches:
            raise ProtocolError(
                f"unknown campaign {prefix!r}: no ledger under "
                f"{self.store.root}/sweeps matches")
        if len(matches) > 1:
            raise ProtocolError(
                f"ambiguous campaign prefix {prefix!r} "
                f"({len(matches)} matches); use more characters")
        submission = load_ledger(self.store, matches[0])
        if submission is None:
            raise ProtocolError(
                f"campaign {matches[0]} has a malformed ledger")
        return normalize_spec(submission)

    # -- campaign streaming -------------------------------------------

    async def _stream_campaign(self, spec: dict,
                               writer: asyncio.StreamWriter) -> None:
        campaign, tasks, keys = spec_campaign(spec)
        loop = asyncio.get_running_loop()
        seq = itertools.count()
        lock = asyncio.Lock()

        # Lines are written under the lock, where stream_event draws
        # ``t``, so sequence numbers always match line order on the
        # wire.
        def write(kind: str, **payload: object) -> None:
            writer.write(encode_line(stream_event(seq, kind, **payload)))

        async def emit(kind: str, **payload: object) -> None:
            async with lock:
                write(kind, **payload)
                await writer.drain()

        # The router calls on_beat on whichever thread emits, the
        # loop's included (a cache hit).  The beat is queued at once,
        # so everything delivered so far is in ``beats`` whether or
        # not the pump has woken since.
        beats: "collections.deque[tuple[str, str, str]]" = \
            collections.deque()
        wake = asyncio.Event()

        def on_beat(kind: str, key: str, description: str) -> None:
            if kind in _FORWARDED_PHASES:
                beats.append((kind, key, description))
                loop.call_soon_threadsafe(wake.set)

        async def forward() -> None:
            # Beats leave the queue only under the lock, so cancelling
            # the pump never drops one.
            async with lock:
                while beats:
                    kind, key, description = beats.popleft()
                    write("heartbeat", phase=kind, key=key,
                          description=description)
                await writer.drain()

        async def pump() -> None:
            while True:
                await wake.wait()
                wake.clear()
                await forward()

        async with lock:
            writer.write(encode_line(stream_header(campaign)))
            await writer.drain()
        token = self.router.watch(set(keys), on_beat)
        pump_task = asyncio.create_task(pump())
        try:
            record_ledger(self.store, campaign, spec)
            manifest = begin_campaign(spec["kind"], spec["label"], tasks,
                                      self.store, keys)
            await emit("campaign-begin", campaign=campaign,
                       campaign_kind=spec["kind"], label=spec["label"],
                       planned=len(keys))
            emitted = await self._stream_points(spec, tasks, keys, emit)
            finish_campaign(manifest, self.store, emitted)
            # Forward every heartbeat delivered so far (a warm
            # campaign's hits have had no yield to go out at) ahead of
            # the end of the stream; the cancelled pump writes nothing
            # more.
            pump_task.cancel()
            await forward()
            await emit("campaign-finish", campaign=campaign,
                       points=emitted)
            self.campaigns_served += 1
        except (ConnectionError, BrokenPipeError):
            raise
        except Exception as exc:  # surfaced to the client, not the log
            with contextlib.suppress(ConnectionError, BrokenPipeError):
                await emit("error", message=f"{type(exc).__name__}: "
                                            f"{exc}")
        finally:
            self.router.unwatch(token)
            pump_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await pump_task

    async def _stream_points(self, spec: dict,
                             tasks: "Sequence[RunTask]",
                             keys: "Sequence[str]", emit) -> int:
        """Resolve and emit the campaign's points in cell order.

        Returns the number of ``point`` events emitted.  With
        ``stop_after_saturation`` set the curve is cut after the Nth
        saturated point, mirroring the one-shot sweep.

        A campaign the batch kernel can run is one fused kernel call,
        whatever backend the spec names (a tail past the cut runs
        speculatively and is cached).  The rest runs task by task: the
        whole grid concurrently (bounded by the fleet), or sequentially
        with a cut so the tail is never requested.
        """
        stop = spec["stop_after_saturation"]
        pairs = list(zip(tasks, keys))
        fused = (fused_eligible()
                 and all(backend.batch_supported(t.config,
                                                 t.size_distribution)
                         for t in tasks))
        emitted = 0
        saturated_seen = 0
        waiters: "list[asyncio.Task]" = []
        if fused:
            resolution = await self.broker.run_fused(pairs)
        elif stop is None:
            # Full grid: admit every cell up front; the broker's
            # semaphore bounds actual concurrency.
            waiters = [asyncio.create_task(self.broker.point_for(t, k))
                       for t, k in pairs]
        try:
            for index, (task, key) in enumerate(pairs):
                if fused:
                    status, value = resolution[key]
                    point = (value if status == "hit"
                             else await asyncio.shield(value))
                elif stop is None:
                    point, status = await waiters[index]
                else:
                    # Early-stopping campaigns resolve sequentially so
                    # the tail past the knee is never requested.
                    point, status = await self.broker.point_for(task,
                                                                key)
                await emit("point", key=key, index=index, status=status,
                           point=point_to_dict(point))
                emitted += 1
                if point.saturated:
                    saturated_seen += 1
                    if stop is not None and saturated_seen >= stop:
                        break
        finally:
            for waiter in waiters:
                # Shielded internally: cancelling a waiter abandons
                # this client's await, never the computation.
                if not waiter.done():
                    waiter.cancel()
        return emitted


async def _send_line(writer: asyncio.StreamWriter, payload: dict) -> None:
    writer.write(encode_line(payload))
    await writer.drain()


@contextlib.contextmanager
def serve_in_thread(cache_dir: "Path | str", socket_path: "Path | str",
                    **kwargs):
    """Host a :class:`ServiceServer` on a daemon thread (tests, bench).

    Yields the server once its socket accepts connections; stops it and
    joins the thread on exit.
    """
    server = ServiceServer(cache_dir, socket_path, **kwargs)
    ready = threading.Event()
    thread = threading.Thread(
        target=lambda: asyncio.run(server.serve(ready=ready)),
        name="repro-service", daemon=True)
    thread.start()
    if not ready.wait(timeout=30.0):
        raise RuntimeError("sweep service failed to start within 30s")
    try:
        yield server
    finally:
        server.request_stop()
        thread.join(timeout=30.0)
