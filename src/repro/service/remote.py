"""The HTTP executor backend: a client for ``repro-search serve``.

:class:`ServiceExecutor` implements the same
:class:`~repro.service.client.Executor` protocol as the in-process
:class:`~repro.service.local.LocalExecutor`, speaking the daemon's JSON
endpoints (see :mod:`repro.service.daemon`).  ``RunSpec`` JSON is the only
wire format: a submission POSTs the spec's canonical dict, and everything
that comes back (statuses, reports, events) is plain JSON -- events are
rebuilt into typed :class:`~repro.engine.events.EngineEvent` objects via
``EngineEvent.from_dict``, so consumers cannot tell the transports apart.

Each attempt is one :func:`repro.transport.send` under the shared
:class:`~repro.transport.RetryPolicy`: connection-level faults -- refused,
reset or timed out (a daemon restarting or stalled) -- and 5xx answers (a
daemon draining) retry on its deterministic backoff schedule, while 4xx
answers and non-idempotent calls -- submitting, resuming, promoting -- never
retry (a duplicate POST would duplicate the work).  Every request carries an explicit timeout, so a stalled read fails
fast instead of wedging the caller forever; a fault that outlasts the
retries surfaces as :class:`~repro.service.errors.ServiceError`.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.parse
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.api.run import _resolve_spec
from repro.engine.events import EngineEvent
from repro.service import registry as reg
from repro.service.errors import (
    RunCancelled,
    RunFailed,
    RunNotFound,
    RunNotReady,
    ServiceError,
)
from repro.transport import RetryPolicy, send


class ServiceExecutor:
    """Talks to a ``repro-search serve`` daemon over HTTP."""

    def __init__(
        self,
        base_url: str,
        timeout: float = 10.0,
        retry: Optional[RetryPolicy] = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retry = retry or RetryPolicy()

    # -- HTTP plumbing -------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        run_id: Optional[str] = None,
        timeout: Optional[float] = None,
        idempotent: bool = True,
        max_attempts: Optional[int] = None,
    ) -> Dict[str, Any]:
        """One JSON round trip under the shared retry policy.

        ``idempotent=False`` pins the call to a single attempt -- the
        resubmission of a mutating POST whose *response* was lost could have
        landed twice.  Reads and fenced/cancel-style POSTs retry through
        connection faults and 5xx answers on the policy's deterministic
        backoff schedule; 4xx answers surface immediately.
        """
        data = None if payload is None else json.dumps(payload).encode("utf-8")

        def attempt() -> Dict[str, Any]:
            body = send(
                method,
                f"{self.base_url}{path}",
                data=data,
                content_type=None if data is None else "application/json",
                timeout=self.timeout if timeout is None else timeout,
            )
            return json.loads(body)

        try:
            return self.retry.call(
                attempt, idempotent=idempotent, max_attempts=max_attempts
            )
        except urllib.error.HTTPError as error:
            raise self._map_error(error, run_id) from None
        except urllib.error.URLError as error:
            raise ServiceError(
                f"run service unreachable at {self.base_url}: {error.reason}"
            ) from None

    def _map_error(
        self, error: urllib.error.HTTPError, run_id: Optional[str]
    ) -> Exception:
        """Translate the daemon's structured errors into the shared types."""
        message = ""
        try:
            body = json.loads(error.read().decode("utf-8", "replace"))
            message = str(body.get("error", {}).get("message", ""))
        except (ValueError, AttributeError):
            pass
        message = message or f"HTTP {error.code}"
        if error.code == 404 and run_id is not None:
            return RunNotFound(run_id)
        if error.code == 400:
            return ValueError(message)
        if error.code == 409 and run_id is not None:
            return RunNotReady(run_id, message)
        return ServiceError(message, status=error.code)

    # -- the Executor protocol ------------------------------------------------------
    def submit(self, spec: Any, **options: Any) -> str:
        unsupported = {
            name
            for name in ("engine", "train_dataset", "validation_dataset", "design_spec")
            if options.get(name) is not None
        }
        if unsupported or options.get("resume"):
            raise ValueError(
                "service submissions are pure RunSpec JSON; in-process "
                "options are not serializable: "
                f"{sorted(unsupported | ({'resume'} if options.get('resume') else set()))}"
                " (put the engine section in the spec, resume by run id)"
            )
        resolved = _resolve_spec(spec)
        # A retried submission whose first response was dropped would enqueue
        # the run twice -- one attempt only.
        response = self._request(
            "POST", "/runs", payload=resolved.to_dict(), idempotent=False
        )
        return str(response["run_id"])

    def resume(self, run_id: str) -> str:
        quoted = urllib.parse.quote(run_id, safe="")
        response = self._request(
            "POST",
            f"/runs/{quoted}/resume",
            payload={},
            run_id=run_id,
            idempotent=False,  # a duplicate resume re-queues the run twice
        )
        return str(response["run_id"])

    def status(self, run_id: str) -> Dict[str, Any]:
        quoted = urllib.parse.quote(run_id, safe="")
        return self._request("GET", f"/runs/{quoted}", run_id=run_id)

    def report(self, run_id: str) -> Dict[str, Any]:
        quoted = urllib.parse.quote(run_id, safe="")
        return self._request("GET", f"/runs/{quoted}/report", run_id=run_id)

    def result(
        self, run_id: str, timeout: Optional[float] = None, poll_interval: float = 0.3
    ) -> Dict[str, Any]:
        """Poll until the run terminates; return the report payload."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            status = self.status(run_id)
            state = status["state"]
            if state == reg.FINISHED:
                return self.report(run_id)
            if state == reg.CANCELLED:
                raise RunCancelled(run_id)
            if state == reg.FAILED:
                raise RunFailed(run_id, status.get("error") or "unknown error")
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"run {run_id!r} did not complete within {timeout} seconds"
                )
            time.sleep(poll_interval)

    def cancel(self, run_id: str) -> Dict[str, Any]:
        quoted = urllib.parse.quote(run_id, safe="")
        return self._request(
            "POST", f"/runs/{quoted}/cancel", payload={}, run_id=run_id
        )

    def events(
        self,
        run_id: str,
        since: int = 0,
        follow: bool = False,
        poll_interval: float = 0.3,
    ) -> Iterator[EngineEvent]:
        """Page through the events endpoint; with ``follow`` poll until done."""
        cursor = since
        while True:
            events, cursor, done = self._events_page(run_id, cursor)
            for event in events:
                yield event
            if not follow or (done and not events):
                return
            if not events:
                time.sleep(poll_interval)

    def _events_page(
        self, run_id: str, since: int
    ) -> Tuple[List[EngineEvent], int, bool]:
        quoted = urllib.parse.quote(run_id, safe="")
        response = self._request(
            "GET", f"/runs/{quoted}/events?since={since}", run_id=run_id
        )
        events = [EngineEvent.from_dict(entry) for entry in response["events"]]
        return events, int(response["next"]), bool(response["done"])

    def list_runs(self) -> List[Dict[str, Any]]:
        return list(self._request("GET", "/runs")["runs"])

    # -- the model zoo ---------------------------------------------------------------
    def promote(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """POST /models/promote; returns the promoted entry's manifest.

        Promotion retrains the winning child deterministically, so it can
        outlast the default request timeout by a wide margin -- give it ten
        minutes instead.
        """
        response = self._request(
            "POST",
            "/models/promote",
            payload=payload,
            run_id=str(payload.get("run_id", "")),
            timeout=max(self.timeout, 600.0),
            idempotent=False,  # a duplicate promotion moves `latest` again
        )
        return dict(response["model"])

    def list_models(self) -> List[Dict[str, Any]]:
        return list(self._request("GET", "/models")["models"])

    def healthy(self) -> bool:
        """True when the daemon answers its health endpoint (single probe)."""
        try:
            return bool(
                self._request("GET", "/healthz", max_attempts=1).get("ok")
            )
        except ServiceError:
            return False
