"""The one HTTP client path: a single-attempt :func:`send` and :class:`RetryPolicy`.

Every client<->daemon call in the package -- the run-service executor, the
remote store tier, the fleet agent and ``repro-search top`` -- goes through
:func:`send` for each attempt and through :class:`RetryPolicy` for the loop
around it.  Each caller keeps its own status-to-error mapping and declares
its own idempotency; this module only decides what a transport fault looks
like and when to try again.

:func:`send` makes exactly one request through urllib's module-level opener
(no per-call opener, no connection reuse) and normalises its failures to two
shapes:

* ``urllib.error.HTTPError`` -- the daemon answered with a 4xx/5xx status;
  re-raised as is, body still readable, so callers map it to their errors.
* ``urllib.error.URLError`` -- the daemon was not reached or the exchange
  broke.  urllib wraps connect-time faults itself, but faults raised while
  reading the response (``TimeoutError``, ``http.client.RemoteDisconnected``,
  ``ConnectionResetError``, a truncated body) escape it raw; :func:`send`
  wraps those too, so "daemon unreachable" is one exception type everywhere.

Distribution multiplies the ways a single HTTP request can fail -- connection
refused while a daemon restarts, a 503 while it drains, a socket timeout on a
stalled link -- and every caller that invents its own loop invents its own
bugs.  :class:`RetryPolicy` is the single shared answer, with three hard
rules:

* **Deterministic schedule.**  Exponential backoff with *no jitter*: attempt
  ``i`` sleeps ``min(base_delay * multiplier**i, max_delay)`` seconds.  A
  reproduction platform must be replayable end to end, and that includes its
  failure handling -- two runs of the same test against the same fault
  schedule retry at the same instants.
* **Bounded attempts.**  ``max_attempts`` caps the loop; the final failure
  re-raises the original exception untouched so callers keep their existing
  error mapping.
* **Idempotent operations only.**  Retrying a ``POST /runs`` after a dropped
  response could submit the run twice; retrying a ``GET /runs/<id>`` cannot.
  Callers declare each call site's idempotency and the policy refuses to
  retry the unsafe ones -- a non-idempotent call gets exactly one attempt.

What is retryable: connection-level failures (``URLError``, ``ConnectionError``,
timeouts) and the 5xx statuses in ``retry_statuses``.  A 4xx is never
retried -- the request itself is wrong and will be wrong again.
"""

from __future__ import annotations

import http.client
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

DEFAULT_RETRY_STATUSES: Tuple[int, ...] = (500, 502, 503, 504)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, jitter-free exponential backoff for idempotent HTTP calls."""

    max_attempts: int = 4
    base_delay: float = 0.1
    multiplier: float = 2.0
    max_delay: float = 2.0
    retry_statuses: Tuple[int, ...] = DEFAULT_RETRY_STATUSES

    def __post_init__(self) -> None:
        if self.max_attempts <= 0:
            raise ValueError("max_attempts must be positive")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1.0 (backoff never shrinks)")

    def delays(self) -> Tuple[float, ...]:
        """The deterministic sleep schedule between attempts.

        ``max_attempts`` attempts have ``max_attempts - 1`` gaps; the
        schedule is a pure function of the policy, so tests can assert the
        exact instants a client retried at.
        """
        return tuple(
            min(self.base_delay * self.multiplier**index, self.max_delay)
            for index in range(self.max_attempts - 1)
        )

    def is_retryable(self, error: BaseException) -> bool:
        """True for transient transport/server faults; False for caller bugs.

        Order matters: ``HTTPError`` subclasses ``URLError``, so the status
        check must come first or every 404 would look like a dropped
        connection.
        """
        if isinstance(error, urllib.error.HTTPError):
            return error.code in self.retry_statuses
        if isinstance(error, urllib.error.URLError):
            return True
        return isinstance(error, (ConnectionError, TimeoutError, OSError))

    def call(
        self,
        attempt: Callable[[], Any],
        idempotent: bool = True,
        max_attempts: Optional[int] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> Any:
        """Run ``attempt`` under this policy; returns its value.

        ``idempotent=False`` disables retries entirely (one attempt, errors
        propagate) -- declaring idempotency at the call site keeps the
        decision next to the endpoint it describes.  ``max_attempts``
        overrides the policy's bound for probe-style calls (``healthy()``
        passes 1).  ``sleep`` is injectable so tests replay the schedule
        without waiting it out.
        """
        attempts = self.max_attempts if max_attempts is None else max_attempts
        if not idempotent:
            attempts = 1
        schedule = self.delays()
        for index in range(attempts):
            try:
                return attempt()
            except Exception as error:
                if index >= attempts - 1 or not self.is_retryable(error):
                    raise
                delay = schedule[index] if index < len(schedule) else self.max_delay
                if delay > 0:
                    sleep(delay)
        raise AssertionError("unreachable: the loop returns or raises")


def send(
    method: str,
    url: str,
    *,
    data: Optional[bytes] = None,
    content_type: Optional[str] = None,
    timeout: float,
) -> bytes:
    """One HTTP attempt; returns the response body.

    Raises ``HTTPError`` for an error status and ``URLError`` for every
    connection-level fault (see the module docstring).
    """
    headers = {} if content_type is None else {"Content-Type": content_type}
    request = urllib.request.Request(url, data=data, headers=headers, method=method)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.read()
    except urllib.error.URLError:
        raise  # already the right shape (URLError is itself an OSError)
    except (OSError, http.client.HTTPException) as error:
        raise urllib.error.URLError(error) from error
