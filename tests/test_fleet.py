"""Tests for the fleet fabric: retry policy, chaos harness, lease supervision,
the remote worker pool, the daemon's /agents endpoints, graceful drain, and
the acceptance scenario -- a wave that survives an agent killed mid-task
bit-for-bit identical to an undisturbed local run."""

from __future__ import annotations

import dataclasses
import glob
import json
import operator
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api.cli import build_parser
from repro.api.run import execute
from repro.engine import EngineConfig
from repro.engine.checkpoint import has_checkpoint
from repro.engine.cli import main as cli_main
from repro.engine.events import (
    FLEET_AGENT_DEAD,
    FLEET_DEGRADED,
    FLEET_LEASE_REASSIGNED,
)
from repro.engine.workers import (
    available_backends,
    create_pool,
    ensure_backend,
    register_backend,
)
from repro.fleet import (
    ChaosPolicy,
    DroppedMessage,
    FleetConfig,
    FleetSupervisor,
    RemoteWorkerPool,
    UnknownAgent,
    WorkerAgent,
    install_supervisor,
    installed_supervisor,
)
from repro.fleet.pool import decode_result, encode_task, run_task
from repro.service.daemon import RunService
from repro.service.errors import ServiceDraining, ServiceError
from repro.service.local import LocalExecutor
from repro.service.registry import RunRegistry
from repro.service.remote import ServiceExecutor
from repro.transport import RetryPolicy
from repro.utils.serialization import save_json

from test_service import _comparable, _tiny_spec

# Timing contract sized for tests: agents are declared dead ~0.45s after
# their last heartbeat, unacknowledged leases expire after 0.8s.
FAST = FleetConfig(
    heartbeat_interval=0.15,
    miss_factor=3.0,
    lease_seconds=0.8,
    poll_interval=0.05,
)

# Agent-side retry sized so dropped messages resolve in milliseconds.
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.02, max_delay=0.05)


# Task functions must be importable (pickled by reference, like the process
# backend's contract).
def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom on {x}")


def _slow_identity(x):
    time.sleep(0.7)
    return x


class _Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("deliberately unpicklable")


def _raise_unpicklable(x):
    raise _Unpicklable()


# -- the shared retry policy ----------------------------------------------------------
class TestRetryPolicy:
    def test_delay_schedule_is_deterministic_and_capped(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=0.1, multiplier=2.0, max_delay=0.5
        )
        assert policy.delays() == (0.1, 0.2, 0.4, 0.5)

    def test_retries_connection_faults_on_the_schedule(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.1, multiplier=2.0)
        calls, slept = [], []

        def attempt():
            calls.append(1)
            if len(calls) < 3:
                raise urllib.error.URLError("connection refused")
            return "ok"

        assert policy.call(attempt, sleep=slept.append) == "ok"
        assert len(calls) == 3
        assert slept == [0.1, 0.2]  # the exact jitter-free backoff instants

    def test_4xx_is_never_retried(self):
        policy = RetryPolicy(max_attempts=4)
        calls = []

        def attempt():
            calls.append(1)
            raise urllib.error.HTTPError("http://x", 404, "nf", None, None)

        with pytest.raises(urllib.error.HTTPError):
            policy.call(attempt, sleep=lambda _s: None)
        assert len(calls) == 1

    def test_5xx_retries_then_reraises_the_original(self):
        policy = RetryPolicy(max_attempts=3)
        calls = []

        def attempt():
            calls.append(1)
            raise urllib.error.HTTPError("http://x", 503, "draining", None, None)

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            policy.call(attempt, sleep=lambda _s: None)
        assert excinfo.value.code == 503
        assert len(calls) == 3

    def test_non_idempotent_calls_get_exactly_one_attempt(self):
        policy = RetryPolicy(max_attempts=4)
        calls = []

        def attempt():
            calls.append(1)
            raise urllib.error.URLError("dropped")

        with pytest.raises(urllib.error.URLError):
            policy.call(attempt, idempotent=False, sleep=lambda _s: None)
        assert len(calls) == 1

    def test_max_attempts_override_for_probes(self):
        policy = RetryPolicy(max_attempts=4)
        calls = []

        def attempt():
            calls.append(1)
            raise ConnectionError("refused")

        with pytest.raises(ConnectionError):
            policy.call(attempt, max_attempts=1, sleep=lambda _s: None)
        assert len(calls) == 1

    def test_retryability_classification(self):
        policy = RetryPolicy()
        assert policy.is_retryable(urllib.error.URLError("refused"))
        assert policy.is_retryable(ConnectionError())
        assert policy.is_retryable(TimeoutError())
        assert policy.is_retryable(
            urllib.error.HTTPError("http://x", 502, "bad", None, None)
        )
        assert not policy.is_retryable(
            urllib.error.HTTPError("http://x", 400, "bad", None, None)
        )
        assert not policy.is_retryable(ValueError("caller bug"))

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError, match="delays"):
            RetryPolicy(base_delay=-1.0)


# -- the chaos harness ----------------------------------------------------------------
class TestChaosPolicy:
    def test_drop_schedule_is_deterministic_by_call_index(self):
        chaos = ChaosPolicy(drop={"lease": {0, 2}})
        verdicts = [chaos.on_send("lease") for _ in range(4)]
        assert [v.dropped for v in verdicts] == [True, False, True, False]
        assert chaos.dropped == 2
        assert chaos.calls("lease") == 4
        # Other operations are untouched.
        assert not chaos.on_send("complete").dropped

    def test_dropped_message_is_a_connection_fault(self):
        verdict = ChaosPolicy(drop={"lease": {0}}).on_send("lease")
        with pytest.raises(DroppedMessage) as excinfo:
            verdict.raise_if_dropped()
        assert isinstance(excinfo.value, urllib.error.URLError)  # retryable

    def test_duplicate_schedule(self):
        chaos = ChaosPolicy(duplicate={"complete": {1}})
        assert not chaos.on_send("complete").duplicated
        assert chaos.on_send("complete").duplicated
        assert chaos.duplicated == 1

    def test_kill_on_exact_task_ordinal(self):
        chaos = ChaosPolicy(kill_on_task=2)
        assert not chaos.should_die(0)
        assert not chaos.should_die(1)
        assert chaos.should_die(2)
        assert chaos.kills == 1

    def test_heartbeat_stall_budget(self):
        chaos = ChaosPolicy(stall_heartbeat_after=2)
        assert [chaos.heartbeat_stalled() for _ in range(4)] == [
            False,
            False,
            True,
            True,
        ]
        assert chaos.stalled_heartbeats == 2


# -- the task wire format -------------------------------------------------------------
class TestWireFormat:
    def test_roundtrip(self):
        assert decode_result(run_task(encode_task(_square, 7))) == 49

    def test_task_exception_is_a_result_and_rethrows(self):
        blob = run_task(encode_task(_boom, 3))
        with pytest.raises(ValueError, match="boom on 3"):
            decode_result(blob)

    def test_unpicklable_exception_degrades_to_description(self):
        blob = run_task(encode_task(_raise_unpicklable, 0))
        with pytest.raises(RuntimeError, match="_Unpicklable"):
            decode_result(blob)


# -- the supervisor's lease tables (in-process, no HTTP) ------------------------------
class TestSupervisor:
    def _supervisor(self, **overrides) -> FleetSupervisor:
        config = dataclasses.replace(FAST, **overrides)
        return FleetSupervisor(config)

    def test_register_returns_the_timing_contract(self):
        supervisor = self._supervisor()
        info = supervisor.register_agent("alpha")
        assert info["name"] == "alpha"
        assert info["heartbeat_interval"] == FAST.heartbeat_interval
        assert info["lease_seconds"] == FAST.lease_seconds
        assert supervisor.alive_agents() == 1

    def test_grants_are_lowest_index_first_and_at_most_one(self):
        supervisor = self._supervisor()
        a = supervisor.register_agent("a")["agent_id"]
        b = supervisor.register_agent("b")["agent_id"]
        wave = supervisor.submit_wave([b"t0", b"t1"])
        first = supervisor.lease(a)
        assert first["task_id"] == f"{wave.wave_id}:0"
        second = supervisor.lease(b)
        assert second["task_id"] == f"{wave.wave_id}:1"
        assert supervisor.lease(a) is None  # nothing pending: no double grant
        assert supervisor.complete(a, first["task_id"], b"r0")
        assert supervisor.complete(b, second["task_id"], b"r1")
        assert wave.done
        assert [task.result for task in wave.tasks] == [b"r0", b"r1"]

    def test_unacknowledged_lease_expires_on_its_deadline(self):
        supervisor = self._supervisor(lease_seconds=0.1)
        agent = supervisor.register_agent("a")["agent_id"]
        wave = supervisor.submit_wave([b"t0"])
        grant = supervisor.lease(agent)
        # The grant response was "dropped": the agent heartbeats (staying
        # alive) but never reports the task, so the lease is never renewed.
        deadline = time.monotonic() + 5.0
        while wave.tasks[0].state == "leased" and time.monotonic() < deadline:
            supervisor.heartbeat(agent, active_tasks=[])
            time.sleep(0.03)
        assert wave.tasks[0].state == "pending"
        assert wave.tasks[0].attempts == 1
        assert supervisor.reassignments == 1
        incidents = supervisor.drain_incidents(wave)
        assert incidents[0]["kind"] == "lease-reassigned"
        assert incidents[0]["reason"] == "lease-expired"
        # The stale completion from the fenced-off grant is rejected.
        assert not supervisor.complete(agent, grant["task_id"], b"late")
        assert supervisor.stale_completions == 1

    def test_heartbeat_link_state_renews_acknowledged_leases(self):
        supervisor = self._supervisor(lease_seconds=0.2)
        agent = supervisor.register_agent("a")["agent_id"]
        supervisor.submit_wave([b"t0"])
        grant = supervisor.lease(agent)
        # Renewed leases outlive the base lease duration many times over.
        for _ in range(8):
            supervisor.heartbeat(agent, active_tasks=[grant["task_id"]])
            time.sleep(0.05)
        assert supervisor.complete(agent, grant["task_id"], b"done")
        assert supervisor.reassignments == 0

    def test_dead_agent_is_reaped_and_its_leases_reassigned(self):
        supervisor = self._supervisor(
            heartbeat_interval=0.05, lease_seconds=5.0
        )
        dead = supervisor.register_agent("doomed")["agent_id"]
        wave = supervisor.submit_wave([b"t0"])
        grant = supervisor.lease(dead)
        time.sleep(supervisor.config.agent_timeout + 0.1)  # silence: no beats
        supervisor.reap()
        assert supervisor.alive_agents() == 0
        assert supervisor.agents_died == 1
        assert wave.tasks[0].state == "pending"
        kinds = {i["kind"]: i for i in supervisor.drain_incidents(wave)}
        assert kinds["agent-dead"]["agent"] == "doomed"
        assert kinds["lease-reassigned"]["reason"] == "agent-dead"
        with pytest.raises(UnknownAgent):
            supervisor.heartbeat(dead, [])
        # A survivor picks the task up and completes it normally.
        survivor = supervisor.register_agent("survivor")["agent_id"]
        regrant = supervisor.lease(survivor)
        assert regrant["task_id"] == grant["task_id"]
        assert supervisor.complete(survivor, regrant["task_id"], b"r")

    def test_completion_for_garbage_task_ids_is_fenced_not_raised(self):
        supervisor = self._supervisor()
        agent = supervisor.register_agent("a")["agent_id"]
        assert not supervisor.complete(agent, "no-such-wave:0", b"r")
        assert not supervisor.complete(agent, "malformed", b"r")
        assert supervisor.stale_completions == 2

    def test_claim_local_when_the_fleet_is_empty(self):
        supervisor = self._supervisor()
        wave = supervisor.submit_wave([b"t0", b"t1"])
        assert supervisor.claim_local(wave) == [0, 1]
        supervisor.complete_local(wave, 0, b"r0")
        supervisor.complete_local(wave, 1, b"r1")
        assert wave.done

    def test_claim_local_after_attempts_exhausted(self):
        supervisor = self._supervisor(lease_seconds=0.05, max_task_attempts=1)
        agent = supervisor.register_agent("flaky")["agent_id"]
        wave = supervisor.submit_wave([b"t0"])
        supervisor.lease(agent)
        deadline = time.monotonic() + 5.0
        while wave.tasks[0].state == "leased" and time.monotonic() < deadline:
            supervisor.heartbeat(agent, active_tasks=[])  # never acks
            time.sleep(0.02)
        # Budget burned: the task is withheld from agents, claimed locally.
        assert supervisor.lease(agent) is None
        assert supervisor.claim_local(wave) == [0]

    def test_drain_stops_grants(self):
        supervisor = self._supervisor()
        agent = supervisor.register_agent("a")["agent_id"]
        supervisor.submit_wave([b"t0"])
        supervisor.drain()
        assert supervisor.lease(agent) is None
        assert supervisor.heartbeat(agent, [])["draining"] is True


# -- the engine-facing pool -----------------------------------------------------------
class TestRemoteWorkerPool:
    def test_degraded_execution_with_no_agents(self):
        supervisor = FleetSupervisor(FAST)
        events = []
        pool = RemoteWorkerPool(supervisor=supervisor, events=events.append)
        results = pool.map_ordered(operator.neg, [1, 2, 3])
        assert [value for value, _label in results] == [-1, -2, -3]
        assert {label for _value, label in results} == {"fleet-local"}
        degraded = [e for e in events if e.kind == FLEET_DEGRADED]
        assert degraded and degraded[0].payload["reason"] == "no-live-agents"

    def test_task_exceptions_propagate_to_the_caller(self):
        pool = RemoteWorkerPool(supervisor=FleetSupervisor(FAST))
        with pytest.raises(ValueError, match="boom"):
            pool.map_ordered(_boom, [1])

    def test_pool_requires_a_supervisor(self):
        previous = installed_supervisor()
        install_supervisor(None)
        try:
            with pytest.raises(RuntimeError, match="needs a FleetSupervisor"):
                RemoteWorkerPool()
        finally:
            install_supervisor(previous)

    def test_installed_supervisor_slot(self):
        previous = installed_supervisor()
        supervisor = FleetSupervisor(FAST)
        install_supervisor(supervisor)
        try:
            assert RemoteWorkerPool().supervisor is supervisor
        finally:
            install_supervisor(previous)


# -- backend registration in the engine -----------------------------------------------
class TestBackendRegistration:
    def test_fleet_is_an_available_backend(self):
        assert "fleet" in available_backends()
        assert ensure_backend("fleet") == "fleet"

    def test_engine_config_validates_fleet_by_name(self):
        # Spec parsing must accept the backend without a daemon running.
        assert EngineConfig(backend="fleet").backend == "fleet"

    def test_unknown_backend_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown"):
            ensure_backend("quantum")
        with pytest.raises(ValueError, match="unknown"):
            EngineConfig(backend="quantum")

    def test_register_backend_rejects_builtin_names(self):
        with pytest.raises(ValueError, match="built in"):
            register_backend("serial", lambda **_kw: None)

    def test_builtin_pools_are_untouched(self):
        pool = create_pool("thread", num_workers=1)
        try:
            results = pool.map_ordered(_square, [2, 3])
            assert [value for value, _label in results] == [4, 9]
        finally:
            pool.close()


# -- the daemon's /agents endpoints and live agents -----------------------------------
@pytest.fixture()
def fleet_service(tmp_path):
    service = RunService(str(tmp_path / "runs"), port=0, fleet=FAST).start()
    yield service
    service.shutdown()


def _start_agent(url, name, chaos=None):
    agent = WorkerAgent(
        url, name=name, chaos=chaos, retry=FAST_RETRY, register_timeout=10.0
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
    while time.monotonic() < deadline:
        if supervisor.alive_agents() >= count:
            return
        time.sleep(0.02)
    raise AssertionError(f"fleet never reached {count} live agent(s)")


class TestFleetOverHTTP:
    def test_wave_spreads_across_two_agents(self, fleet_service):
        pairs = [
            _start_agent(fleet_service.url, "alpha"),
            _start_agent(fleet_service.url, "beta"),
        ]
        try:
            _wait_for_agents(fleet_service.supervisor, 2)
            pool = RemoteWorkerPool(supervisor=fleet_service.supervisor)
            results = pool.map_ordered(_square, [1, 2, 3, 4, 5])
            assert [value for value, _label in results] == [1, 4, 9, 16, 25]
            labels = {label for _value, label in results}
            assert labels <= {"agent:alpha", "agent:beta"}
            # GET /agents serves the fleet's link state.
            with urllib.request.urlopen(fleet_service.url + "/agents") as resp:
                payload = json.load(resp)
            assert {a["name"] for a in payload["agents"]} == {"alpha", "beta"}
            assert payload["draining"] is False
        finally:
            _stop_agents(*pairs)

    def test_duplicate_complete_is_fenced(self, fleet_service):
        chaos = ChaosPolicy(duplicate={"complete": {0}})
        pair = _start_agent(fleet_service.url, "dup", chaos=chaos)
        try:
            _wait_for_agents(fleet_service.supervisor, 1)
            pool = RemoteWorkerPool(supervisor=fleet_service.supervisor)
            results = pool.map_ordered(_square, [2, 3, 4])
            assert [value for value, _label in results] == [4, 9, 16]
            assert chaos.duplicated == 1
            assert fleet_service.supervisor.stale_completions >= 1
        finally:
            _stop_agents(pair)

    def test_dropped_messages_are_survived(self, fleet_service):
        # The first lease never leaves the agent (non-idempotent: the loop
        # re-leases) and the first complete is dropped then retried
        # (idempotent: fencing makes the resend safe).
        chaos = ChaosPolicy(drop={"lease": {0}, "complete": {0}})
        pair = _start_agent(fleet_service.url, "lossy", chaos=chaos)
        try:
            _wait_for_agents(fleet_service.supervisor, 1)
            pool = RemoteWorkerPool(supervisor=fleet_service.supervisor)
            results = pool.map_ordered(_square, [5, 6])
            assert [value for value, _label in results] == [25, 36]
            assert chaos.dropped == 2
        finally:
            _stop_agents(pair)

    def test_stalled_heartbeats_mean_death_then_reregistration(
        self, fleet_service
    ):
        # The agent keeps working but every heartbeat is swallowed; its task
        # outlives the agent timeout, so the supervisor declares it dead and
        # the pool degrades to local execution.  The stale agent's eventual
        # completion must be fenced off, and the agent rejoins under a new id.
        supervisor = fleet_service.supervisor
        chaos = ChaosPolicy(stall_heartbeat_after=0)
        pair = _start_agent(fleet_service.url, "mute", chaos=chaos)
        try:
            _wait_for_agents(supervisor, 1)
            first_id = pair[0].agent_id
            pool = RemoteWorkerPool(supervisor=supervisor)
            results = pool.map_ordered(_slow_identity, [42])
            assert results[0][0] == 42
            assert supervisor.agents_died >= 1
            deadline = time.monotonic() + 10.0
            while supervisor.stale_completions < 1:
                assert time.monotonic() < deadline, "stale complete never fenced"
                time.sleep(0.02)
            _wait_for_agents(supervisor, 1)  # re-registered after the 404
            assert pair[0].agent_id != first_id
        finally:
            _stop_agents(pair)

    def test_acceptance_kill_agent_mid_wave_bitwise_parity(self, fleet_service):
        """The issue's acceptance criterion.

        A run on the fleet with an agent killed mid-wave must produce a
        report bit-for-bit identical to an undisturbed local run of the same
        spec, with the recovery visible as a reassignment metric and typed
        fleet events.
        """
        spec = _tiny_spec(episodes=4)
        direct = execute(spec)

        fleet_spec = dataclasses.replace(
            spec, engine=EngineConfig(backend="fleet", num_workers=2)
        )
        # Deterministic fault sequencing: only the doomed agent is up when
        # the wave opens, so it must lease task 0 and die holding it; the
        # healthy agent joins only after the death and inherits the work.
        chaos = ChaosPolicy(kill_on_task=0)
        doomed, doomed_thread = _start_agent(
            fleet_service.url, "doomed", chaos=chaos
        )
        healthy_pair = None
        try:
            _wait_for_agents(fleet_service.supervisor, 1)
            executor = ServiceExecutor(fleet_service.url)
            run_id = executor.submit(fleet_spec)
            doomed_thread.join(timeout=30)
            assert doomed.killed, "chaos kill never fired"
            healthy_pair = _start_agent(fleet_service.url, "healthy")
            fetched = executor.result(run_id, timeout=120)

            assert _comparable(fetched) == _comparable(direct.to_dict())
            assert fleet_service.supervisor.reassignments >= 1
            assert fleet_service.supervisor.agents_died >= 1
            kinds = [event.kind for event in executor.events(run_id)]
            assert FLEET_AGENT_DEAD in kinds
            assert FLEET_LEASE_REASSIGNED in kinds
        finally:
            if healthy_pair is not None:
                _stop_agents(healthy_pair)
            doomed.stop()
            doomed_thread.join(timeout=10)

    def test_agent_exits_when_the_daemon_vanishes(self, tmp_path):
        # No drain, just silence: the daemon dies outright and the agent
        # must give it up for dead instead of polling the corpse forever.
        service = RunService(str(tmp_path / "runs"), port=0, fleet=FAST).start()
        agent = WorkerAgent(
            service.url,
            name="orphan",
            retry=FAST_RETRY,
            register_timeout=10.0,
            daemon_timeout=0.5,
        )
        thread = threading.Thread(target=agent.run, daemon=True)
        thread.start()
        try:
            _wait_for_agents(service.supervisor, 1)
            service.shutdown()  # abrupt: no drain signal ever reaches the agent
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert agent.lost_daemon
            assert not agent.draining
        finally:
            agent.stop()
            thread.join(timeout=10)

    def test_daemon_drain_winds_agents_down(self, fleet_service):
        agent, thread = _start_agent(fleet_service.url, "polite")
        try:
            _wait_for_agents(fleet_service.supervisor, 1)
            checkpointed = fleet_service.drain(timeout=10)
            assert checkpointed == []  # nothing was running
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert agent.draining
            # New submissions are refused with a 503 while draining.
            with pytest.raises(ServiceError) as excinfo:
                ServiceExecutor(fleet_service.url).submit(_tiny_spec())
            assert excinfo.value.status == 503
        finally:
            _stop_agents((agent, thread))


# -- graceful drain of the local executor ---------------------------------------------
class TestDrain:
    def test_drain_refuses_new_work(self, tmp_path):
        executor = LocalExecutor(runs_root=str(tmp_path / "runs"))
        executor.drain(timeout=5)
        with pytest.raises(ServiceDraining, match="submission"):
            executor.submit(_tiny_spec())
        with pytest.raises(ServiceDraining, match="resume"):
            executor.resume("any-run")

    def test_drain_checkpoints_in_flight_and_leaves_queue_intact(self, tmp_path):
        executor = LocalExecutor(runs_root=str(tmp_path / "runs"))
        running = executor.submit(_tiny_spec(episodes=16))
        queued = executor.submit(_tiny_spec())  # FIFO: waits behind `running`
        deadline = time.monotonic() + 30.0
        while executor.status(running)["state"] != "running":
            assert time.monotonic() < deadline, "run never started"
            time.sleep(0.02)
        drained = executor.drain(timeout=30)
        assert drained == [running]
        status = executor.status(running)
        assert status["state"] == "cancelled"
        assert has_checkpoint(status["run_dir"])  # resumable, not lost
        # Accepted-but-unstarted work stays queued for a successor to adopt.
        assert executor.status(queued)["state"] == "queued"


# -- atomic registry writes -----------------------------------------------------------
class TestAtomicWrites:
    def test_save_json_replaces_whole_files(self, tmp_path):
        path = str(tmp_path / "status.json")
        save_json(path, {"state": "queued"})
        save_json(path, {"state": "running"})
        with open(path, encoding="utf-8") as handle:
            assert json.load(handle) == {"state": "running"}
        assert glob.glob(str(tmp_path / "*.tmp")) == []
        assert glob.glob(str(tmp_path / ".*.tmp")) == []

    def test_save_json_cleans_up_on_failure(self, tmp_path):
        path = str(tmp_path / "status.json")
        save_json(path, {"state": "queued"})
        with pytest.raises(TypeError):
            save_json(path, {"bad": {1, 2}})  # sets are not JSON
        # The destination still holds the previous intact payload.
        with open(path, encoding="utf-8") as handle:
            assert json.load(handle) == {"state": "queued"}
        assert glob.glob(str(tmp_path / "*.tmp")) == []
        assert glob.glob(str(tmp_path / ".*.tmp")) == []

    def test_registry_artifacts_have_no_torn_leftovers(self, tmp_path):
        registry = RunRegistry(str(tmp_path / "runs"))
        created = registry.create(_tiny_spec())
        run_id = created["run_id"]
        registry.write_status(registry.load_status(run_id))
        run_dir = registry.run_dir(run_id)
        assert json.load(open(os.path.join(run_dir, "run_spec.json")))
        assert glob.glob(os.path.join(run_dir, "*.tmp")) == []
        assert glob.glob(os.path.join(run_dir, ".*.tmp")) == []


# -- the CLI surface ------------------------------------------------------------------
class TestAgentCLI:
    def test_agent_is_a_subcommand(self):
        args = build_parser().parse_args(["agent", "--url", "http://127.0.0.1:9"])
        assert args.command == "agent"
        assert args.url == "http://127.0.0.1:9"

    def test_agent_exits_nonzero_when_no_daemon(self, capsys):
        code = cli_main(
            [
                "agent",
                "--url",
                "http://127.0.0.1:9",  # discard port: connection refused
                "--register-timeout",
                "0.3",
                "--timeout",
                "0.3",
            ]
        )
        assert code == 1
        assert "no daemon reachable" in capsys.readouterr().err
