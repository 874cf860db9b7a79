"""The one HTTP send path: every client maps a broken daemon to its own error.

Two misbehaving servers stand in for a daemon that is up but broken: one
accepts connections and never answers (the read times out), one reads the
request and hangs up without a status line (``RemoteDisconnected``).  urllib
does not wrap either fault itself; :func:`repro.transport.send` must, so each
client can map it to its own "unreachable" error.
"""

from __future__ import annotations

import socket
import threading
import urllib.error

import pytest

from repro.fleet.agent import FleetClient
from repro.service.errors import ServiceError
from repro.service.remote import ServiceExecutor
from repro.store import RemoteStore, StoreUnavailable, object_key
from repro.transport import RetryPolicy, send

_TIMEOUT = 0.3
_RETRY = RetryPolicy(max_attempts=2, base_delay=0.0)


@pytest.fixture()
def silent_url():
    """A server whose backlog accepts connections that nobody answers."""
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(16)
    yield f"http://127.0.0.1:{server.getsockname()[1]}"
    server.close()


@pytest.fixture()
def hangup_url():
    """A server that reads each request's headers, then closes the socket."""
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(16)
    server.settimeout(0.1)
    stop = threading.Event()

    def serve() -> None:
        while not stop.is_set():
            try:
                connection, _ = server.accept()
            except socket.timeout:
                continue
            with connection:
                connection.settimeout(1.0)
                received = b""
                while b"\r\n\r\n" not in received:
                    chunk = connection.recv(4096)
                    if not chunk:
                        break
                    received += chunk

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.getsockname()[1]}"
    stop.set()
    thread.join(timeout=5)
    server.close()


@pytest.fixture(params=["silent", "hangup"])
def broken_url(request):
    return request.getfixturevalue(f"{request.param}_url")


def test_send_wraps_read_faults_in_urlerror(broken_url):
    with pytest.raises(urllib.error.URLError) as caught:
        send("GET", f"{broken_url}/healthz", timeout=_TIMEOUT)
    assert not isinstance(caught.value, urllib.error.HTTPError)
    assert isinstance(caught.value.reason, OSError)


def test_service_executor_raises_service_error(broken_url):
    executor = ServiceExecutor(broken_url, timeout=_TIMEOUT, retry=_RETRY)
    with pytest.raises(ServiceError, match="unreachable"):
        executor.status("some-run")
    assert executor.healthy() is False


def test_remote_store_raises_store_unavailable(broken_url):
    store = RemoteStore(broken_url, timeout=_TIMEOUT, retry=_RETRY)
    with pytest.raises(StoreUnavailable):
        store.get(object_key(b"payload"))


def test_fleet_client_raises_urlerror(broken_url):
    client = FleetClient(broken_url, timeout=_TIMEOUT, retry=_RETRY)
    with pytest.raises(urllib.error.URLError):
        client.heartbeat("agent-1", [])
