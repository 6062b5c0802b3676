"""ServiceClient stream framing against a stub server.

The stub writes the stream header and every event in a single
``sendall``, so they reach the client in one receive: the header
reader's buffer then already holds event lines, and a client that
re-wraps the socket after the header loses them.
"""

from __future__ import annotations

import itertools
import shutil
import socket
import tempfile
import threading
from pathlib import Path

import pytest

from repro.service import ServiceClient, collect
from repro.service.protocol import encode_line, stream_event, stream_header

CAMPAIGN = "c" * 64
HEARTBEATS = 40


def _stream_bytes() -> bytes:
    seq = itertools.count()
    events = [stream_event(seq, "campaign-begin", campaign=CAMPAIGN,
                           campaign_kind="sweep", label="stub",
                           planned=HEARTBEATS)]
    events += [stream_event(seq, "heartbeat", phase="finish",
                            key=f"{i:064x}", description=f"task {i}")
               for i in range(HEARTBEATS)]
    events.append(stream_event(seq, "campaign-finish", campaign=CAMPAIGN,
                               points=0))
    return b"".join(encode_line(e)
                    for e in [stream_header(CAMPAIGN), *events])


@pytest.fixture
def stub_socket():
    """A one-shot Unix-socket server that answers any request line with
    the whole stream in one ``sendall``."""
    root = Path(tempfile.mkdtemp(prefix="repro-stub-"))
    path = root / "stub.sock"
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(str(path))
    listener.listen(1)

    def serve() -> None:
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as reader:
            reader.readline()
            conn.sendall(_stream_bytes())

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield path
    finally:
        thread.join(timeout=10)
        listener.close()
        shutil.rmtree(root, ignore_errors=True)


def test_events_in_the_header_receive_are_not_dropped(stub_socket):
    stream = ServiceClient(stub_socket, timeout=10).submit({"stub": True})
    result = collect(stream)
    assert stream.finished
    assert result.campaign == CAMPAIGN
    assert result.heartbeats == [("finish", f"{i:064x}")
                                 for i in range(HEARTBEATS)]
