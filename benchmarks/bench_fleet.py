"""Benchmark: fleet wave completion time under injected faults.

Stands up a real ``RunService`` daemon (port 0) with a fast supervision
contract, joins worker-agent threads over HTTP, and times
``RemoteWorkerPool.map_ordered`` waves through three scenarios:

* **baseline** -- two healthy agents, no faults: the fabric's intrinsic
  overhead (lease polls, heartbeats, completion round trips).
* **kill-agent** -- the only agent dies abruptly after leasing its first
  task; a healthy agent joins after the death.  The wave must still
  complete (every result correct, in order), and the extra wall time is the
  price of one dead-agent detection plus a lease reassignment.
* **lossy-transport** -- dropped lease/complete calls and duplicated
  completions on a deterministic schedule: retries and fencing in steady
  state.

Every scenario asserts the results are exactly what a local map would have
produced -- a slow wave is a finding, a wrong wave is a failure.  Results go
to ``BENCH_fleet.json`` (override with ``BENCH_FLEET_JSON``);
``BENCH_FLEET_QUICK=1`` shrinks the wave for CI.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time

from conftest import run_once

from repro.fleet import (
    ChaosPolicy,
    FleetConfig,
    RemoteWorkerPool,
    WorkerAgent,
)
from repro.service.daemon import RunService
from repro.transport import RetryPolicy

QUICK = os.environ.get("BENCH_FLEET_QUICK", "") not in ("", "0")
WAVE_TASKS = 8 if QUICK else 32

CONFIG = FleetConfig(
    heartbeat_interval=0.1,
    miss_factor=3.0,
    lease_seconds=0.6,
    poll_interval=0.02,
)
RETRY = RetryPolicy(max_attempts=3, base_delay=0.02, max_delay=0.05)


def _task(x):
    # A sliver of real work, so the numbers measure supervision overhead
    # rather than an empty round trip.
    total = 0
    for i in range(200):
        total += (x + i) * (x + i)
    return total


def _start_agent(url, name, chaos=None):
    agent = WorkerAgent(
        url, name=name, chaos=chaos, retry=RETRY, register_timeout=10.0
    )
    thread = threading.Thread(target=agent.run, daemon=True, name=f"agent-{name}")
    thread.start()
    return agent, thread


def _stop_agents(*pairs):
    for agent, _thread in pairs:
        agent.stop()
    for _agent, thread in pairs:
        thread.join(timeout=10)


def _wait_for_agents(supervisor, count, timeout=10.0):
    deadline = time.monotonic() + timeout
    while supervisor.alive_agents() < count:
        assert time.monotonic() < deadline, f"fleet never reached {count} agents"
        time.sleep(0.01)


def _timed_wave(service):
    pool = RemoteWorkerPool(supervisor=service.supervisor)
    payloads = list(range(WAVE_TASKS))
    start = time.perf_counter()
    results = pool.map_ordered(_task, payloads)
    seconds = time.perf_counter() - start
    assert [value for value, _label in results] == [_task(p) for p in payloads]
    return seconds, results


def _scenario_baseline(service):
    pairs = [
        _start_agent(service.url, "steady-a"),
        _start_agent(service.url, "steady-b"),
    ]
    try:
        _wait_for_agents(service.supervisor, 2)
        seconds, _results = _timed_wave(service)
        return {"seconds": seconds, "tasks": WAVE_TASKS}
    finally:
        _stop_agents(*pairs)


def _scenario_kill_agent(service):
    before = service.supervisor.reassignments
    chaos = ChaosPolicy(kill_on_task=0)
    doomed, doomed_thread = _start_agent(service.url, "doomed", chaos=chaos)
    healthy = None
    try:
        _wait_for_agents(service.supervisor, 1)
        waver = {}

        def wave():
            waver["seconds"], waver["results"] = _timed_wave(service)

        runner = threading.Thread(target=wave, name="bench-wave")
        runner.start()
        doomed_thread.join(timeout=30)  # dies holding its first lease
        assert doomed.killed, "chaos kill never fired"
        healthy = _start_agent(service.url, "healthy")
        runner.join(timeout=60)
        assert "seconds" in waver, "the disturbed wave never completed"
        reassigned = service.supervisor.reassignments - before
        assert reassigned >= 1, "the killed agent's lease was never reassigned"
        return {
            "seconds": waver["seconds"],
            "tasks": WAVE_TASKS,
            "reassignments": reassigned,
            "detection_budget_seconds": CONFIG.agent_timeout,
        }
    finally:
        if healthy is not None:
            _stop_agents(healthy)
        doomed.stop()
        doomed_thread.join(timeout=10)


def _scenario_lossy_transport(service):
    chaos = ChaosPolicy(
        drop={"lease": {0, 4}, "complete": {1}},
        duplicate={"complete": {0, 2}},
    )
    pair = _start_agent(service.url, "lossy", chaos=chaos)
    try:
        _wait_for_agents(service.supervisor, 1)
        seconds, _results = _timed_wave(service)
        return {
            "seconds": seconds,
            "tasks": WAVE_TASKS,
            "dropped": chaos.dropped,
            "duplicated": chaos.duplicated,
            "stale_completions_fenced": service.supervisor.stale_completions,
        }
    finally:
        _stop_agents(pair)


def test_bench_fleet(benchmark):
    def harness():
        with tempfile.TemporaryDirectory(prefix="bench-fleet-") as root:
            service = RunService(
                os.path.join(root, "runs"), port=0, fleet=CONFIG
            ).start()
            try:
                return {
                    "baseline": _scenario_baseline(service),
                    "kill_agent": _scenario_kill_agent(service),
                    "lossy_transport": _scenario_lossy_transport(service),
                }
            finally:
                service.shutdown()

    scenarios = run_once(benchmark, harness)

    baseline = scenarios["baseline"]["seconds"]
    recovery_overhead = scenarios["kill_agent"]["seconds"] - baseline
    payload = {
        "quick": QUICK,
        "wave_tasks": WAVE_TASKS,
        "heartbeat_interval_s": CONFIG.heartbeat_interval,
        "lease_seconds": CONFIG.lease_seconds,
        "agent_timeout_s": CONFIG.agent_timeout,
        "scenarios": scenarios,
        "kill_recovery_overhead_seconds": recovery_overhead,
    }
    output_path = os.environ.get("BENCH_FLEET_JSON", "BENCH_fleet.json")
    with open(output_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    print(
        f"\nfleet bench ({WAVE_TASKS}-task waves): baseline "
        f"{baseline:.2f}s, kill-agent "
        f"{scenarios['kill_agent']['seconds']:.2f}s "
        f"({scenarios['kill_agent']['reassignments']} reassignment(s), "
        f"detection budget {CONFIG.agent_timeout:.2f}s), lossy transport "
        f"{scenarios['lossy_transport']['seconds']:.2f}s "
        f"({scenarios['lossy_transport']['dropped']} dropped / "
        f"{scenarios['lossy_transport']['duplicated']} duplicated); "
        f"results in {output_path}"
    )
