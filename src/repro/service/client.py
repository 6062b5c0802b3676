"""Blocking client for the sweep service.

:class:`ServiceClient` speaks the newline-delimited JSON protocol of
:mod:`repro.service.protocol` over a Unix-domain socket with plain
blocking sockets — no asyncio on the client side, so tests, the CLI
and user scripts stay synchronous.

``submit``/``attach`` return a :class:`CampaignStream`: an iterator of
validated stream events that raises :class:`ServiceError` on an
``error`` event and on a connection lost before ``campaign-finish``
(the signal a chaos test uses to detect a killed server).
:func:`collect` folds a stream into a :class:`CampaignResult` with the
points in grid order.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterator, Optional

from repro.analysis.points import SweepPoint, point_from_dict
from repro.obs.events import EVENT_SCHEMA

from .protocol import (
    PROTOCOL_SCHEMA,
    STREAM_SCHEMA,
    ProtocolError,
    decode_line,
    encode_line,
)

__all__ = [
    "ServiceError",
    "ServiceConnectionError",
    "ServiceClient",
    "CampaignStream",
    "CampaignResult",
    "collect",
    "wait_until_ready",
]


class ServiceError(RuntimeError):
    """The service reported an error, or its stream broke."""


class ServiceConnectionError(ServiceError):
    """No server was listening on the socket."""


@dataclass
class CampaignResult:
    """A completed campaign folded out of its stream."""

    campaign: str
    points: "list[SweepPoint]"
    #: Per-point resolution in grid order: "hit" | "computed" |
    #: "deduped".
    statuses: "list[str]" = field(default_factory=list)
    #: The raw ``point`` payload dicts, in grid order — byte-level
    #: ground truth for identity checks against archived sweeps.
    raw_points: "list[dict]" = field(default_factory=list)
    #: Task key per emitted point, in grid order.
    keys: "list[str]" = field(default_factory=list)
    #: Forwarded runner heartbeats ``(phase, key)`` in arrival order.
    heartbeats: "list[tuple[str, str]]" = field(default_factory=list)


def _connect(socket_path: "Path | str",
             timeout: Optional[float]) -> socket.socket:
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    if timeout is not None:
        sock.settimeout(timeout)
    try:
        sock.connect(str(socket_path))
    except OSError as exc:
        sock.close()
        raise ServiceConnectionError(
            f"no sweep service listening at {socket_path} ({exc}); "
            f"start one with 'repro-sim serve --socket "
            f"{socket_path}'") from None
    return sock


def wait_until_ready(socket_path: "Path | str", *,
                     attempts: int = 200,
                     interval: float = 0.05,
                     timeout: Optional[float] = 5.0) -> None:
    """Poll until a server answers ``ping`` (or raise after the budget).

    Bounded by attempt count, not a clock — ``attempts × interval``
    caps the wait (plus per-attempt socket timeouts).
    """
    last: Optional[Exception] = None
    for _ in range(attempts):
        try:
            ServiceClient(socket_path, timeout=timeout).ping()
            return
        except ServiceError as exc:
            last = exc
            time.sleep(interval)
    raise ServiceConnectionError(
        f"sweep service at {socket_path} not ready after "
        f"{attempts} attempts: {last}")


class CampaignStream:
    """Iterator over one campaign's stream events.

    Yields validated event dicts (``campaign-begin`` through
    ``campaign-finish``).  Raises :class:`ServiceError` when the
    server sends an ``error`` event or the connection drops before the
    campaign finishes — a consumer that sees ``campaign-finish`` has
    the whole campaign.  ``reader`` is the one the header was read by.
    """

    def __init__(self, sock: socket.socket, campaign: str,
                 reader: BinaryIO) -> None:
        self._sock = sock
        self._file = reader
        self.campaign = campaign
        self.finished = False

    def __iter__(self) -> "Iterator[dict]":
        try:
            for raw in self._file:
                event = decode_line(raw)
                kind = event.get("kind")
                if kind == "error":
                    raise ServiceError(
                        f"campaign {self.campaign[:12]} failed: "
                        f"{event.get('message')}")
                yield event
                if kind == "campaign-finish":
                    self.finished = True
                    return
            raise ServiceError(
                f"connection lost before campaign "
                f"{self.campaign[:12]} finished")
        except (OSError, ProtocolError) as exc:
            raise ServiceError(
                f"campaign {self.campaign[:12]} stream broke: "
                f"{exc}") from None
        finally:
            self.close()

    def close(self) -> None:
        self._file.close()
        self._sock.close()


class ServiceClient:
    """One service endpoint; each request opens its own connection."""

    def __init__(self, socket_path: "Path | str",
                 timeout: Optional[float] = None) -> None:
        self.socket_path = Path(socket_path)
        self.timeout = timeout

    # -- single-line ops ----------------------------------------------

    def request(self, op: str, **fields: object) -> dict:
        """One request → one response line (ping/status/shutdown)."""
        sock = _connect(self.socket_path, self.timeout)
        try:
            sock.sendall(encode_line({"op": op, **fields}))
            with sock.makefile("rb") as fh:
                raw = fh.readline()
            if not raw:
                raise ServiceError(f"service closed the connection "
                                   f"without answering {op!r}")
            response = decode_line(raw)
        except (OSError, ProtocolError) as exc:
            raise ServiceError(f"{op!r} request failed: {exc}") from None
        finally:
            sock.close()
        if "error" in response:
            raise ServiceError(str(response["error"]))
        if response.get("schema") != PROTOCOL_SCHEMA:
            raise ServiceError(f"unexpected response schema "
                               f"{response.get('schema')!r}")
        return response

    def ping(self) -> dict:
        return self.request("ping")

    def status(self) -> dict:
        return self.request("status")

    def shutdown(self) -> dict:
        return self.request("shutdown")

    # -- campaign streams ---------------------------------------------

    def _stream(self, request: dict) -> CampaignStream:
        sock = _connect(self.socket_path, self.timeout)
        # One reader for header and events: it may already buffer events.
        reader = sock.makefile("rb")
        try:
            try:
                sock.sendall(encode_line(request))
                raw = reader.readline()
                header = decode_line(raw) if raw else None
            except (OSError, ProtocolError) as exc:
                raise ServiceError(f"campaign request failed: "
                                   f"{exc}") from None
            if header is None:
                raise ServiceError("service closed the connection "
                                   "without a stream header")
            if "error" in header:
                raise ServiceError(str(header["error"]))
            if (header.get("schema") != EVENT_SCHEMA
                    or header.get("stream") != STREAM_SCHEMA):
                raise ServiceError(f"unexpected stream header: {header}")
        except ServiceError:
            reader.close()
            sock.close()
            raise
        return CampaignStream(sock, str(header.get("campaign")), reader)

    def submit(self, spec: dict) -> CampaignStream:
        """Submit a campaign spec; returns its event stream."""
        return self._stream({"op": "submit", "spec": spec})

    def attach(self, campaign: str) -> CampaignStream:
        """Reattach to a ledgered campaign by unique key prefix."""
        return self._stream({"op": "attach", "campaign": campaign})

    def run(self, spec: dict) -> CampaignResult:
        """Submit and block until the campaign completes."""
        return collect(self.submit(spec))

    def run_attached(self, campaign: str) -> CampaignResult:
        """Attach and block until the campaign completes."""
        return collect(self.attach(campaign))


def collect(stream: CampaignStream) -> CampaignResult:
    """Fold a campaign stream into a :class:`CampaignResult`.

    ``raw_points`` keeps each ``point`` payload exactly as parsed off
    the wire; since JSON float text round-trips through Python floats
    losslessly, comparing these dicts is a byte-level identity check
    against archived sweep payloads.
    """
    result = CampaignResult(campaign=stream.campaign, points=[])
    for event in stream:
        kind = event.get("kind")
        if kind == "point":
            payload = event["point"]
            result.points.append(point_from_dict(payload))
            result.raw_points.append(payload)
            result.statuses.append(str(event.get("status")))
            result.keys.append(str(event.get("key")))
        elif kind == "heartbeat":
            result.heartbeats.append((str(event.get("phase")),
                                      str(event.get("key"))))
    if not stream.finished:
        raise ServiceError(f"campaign {stream.campaign[:12]} stream "
                           f"ended without campaign-finish")
    return result
