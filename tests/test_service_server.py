"""End-to-end service tests: a real daemon on a real Unix socket.

Every test runs a :class:`repro.service.server.ServiceThread` against a
short socket path under ``/tmp`` (AF_UNIX paths are limited to ~107
bytes; pytest's tmp_path is routinely longer than that).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading

import pytest

from repro.cache import ResultCache
from repro.errors import ConfigurationError, ServiceError
from repro.service import ServiceClient, ServiceThread, server_available, submit_or_local
from repro.service.registry import normalize_spec, run_local, render_results


@pytest.fixture()
def service_dir():
    path = tempfile.mkdtemp(prefix="reprosvc-", dir="/tmp")
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _sock(service_dir):
    return os.path.join(service_dir, "s.sock")


def _spec(arms=("off",), transactions=40, **overrides):
    spec = {
        "kind": "netstack",
        "platform": "synthetic",
        "params": {
            "arms": list(arms),
            "transactions_per_core": transactions,
        },
    }
    spec.update(overrides)
    return spec


def _cancel_quietly(client, job_id):
    """Best-effort cleanup cancel: the job may already have finished."""
    try:
        client.cancel(job_id)
    except ServiceError:
        pass


def _next_event(client):
    """Next frame for this connection, draining the client's buffer first."""
    if client._pending:
        return client._pending.pop(0)
    return client._raise_on_error(client._recv())


def _service(service_dir, **kwargs):
    kwargs.setdefault("cache", ResultCache(os.path.join(service_dir, "cache")))
    kwargs.setdefault(
        "artifacts_dir", os.path.join(service_dir, "artifacts")
    )
    return ServiceThread(_sock(service_dir), **kwargs)


class _CellGate:
    """Holds the first netstack cell a job runs until the test releases it.

    A service started with ``jobs=1`` runs its cells one at a time in this
    process, so the patched ``run_point`` applies there: from ``started``
    until ``release`` the job is off the queue and running, however fast
    its cells are.
    """

    def __init__(self, monkeypatch) -> None:
        from repro.experiments import netstack

        self.started = threading.Event()
        self.release = threading.Event()
        #: What the held cell's wait returned (True: released in time).
        self.released = []
        run_point = netstack.run_point

        def gated_run_point(*args, **kwargs):
            if not self.started.is_set():
                self.started.set()
                self.released.append(self.release.wait(timeout=60))
            return run_point(*args, **kwargs)

        monkeypatch.setattr(netstack, "run_point", gated_run_point)


@pytest.fixture()
def gate(monkeypatch):
    return _CellGate(monkeypatch)


class TestEndToEnd:
    def test_served_run_is_byte_identical_to_local(self, service_dir):
        spec = _spec()
        local = submit_or_local(spec, prefer_local=True, cache=None)
        assert not local.served
        with _service(service_dir):
            with ServiceClient(_sock(service_dir)) as client:
                served = client.submit(spec)
        assert served.served
        assert served.status == "done"
        assert served.render() == local.render()
        # Values decode to the real dataclasses, not lossy copies.
        assert [r.value.victim_gbps for r in served.results] == [
            r.value.victim_gbps for r in local.results
        ]

    def test_resubmission_is_fully_cache_hit(self, service_dir):
        spec = _spec()
        with _service(service_dir):
            with ServiceClient(_sock(service_dir)) as client:
                cold = client.submit(spec)
                warm = client.submit(spec)
        assert cold.hits == 0
        assert cold.precached == 0
        assert warm.precached == len(warm.results)
        assert all(result.cached for result in warm.results)
        assert warm.render() == cold.render()

    def test_cells_built_once_and_warm_resubmit_builds_no_preset(
        self, service_dir, monkeypatch
    ):
        # The server runs the cells it built and probed at submit, and every
        # preset is built once per process: a warm resubmit, rendered on the
        # client, builds no platform at all.
        from repro.platform import presets
        from repro.service import registry

        built_cells = []
        built_presets = []
        build_cells = registry.build_cells
        epyc_7302 = presets.epyc_7302

        def spy_build_cells(spec):
            built_cells.append(spec)
            return build_cells(spec)

        def spy_epyc_7302():
            built_presets.append("7302")
            return epyc_7302()

        monkeypatch.setattr(registry, "_built", {})
        monkeypatch.setattr(registry, "build_cells", spy_build_cells)
        monkeypatch.setattr(presets, "epyc_7302", spy_epyc_7302)
        spec = _spec(platform="7302")
        with _service(service_dir):
            with ServiceClient(_sock(service_dir)) as client:
                cold = client.submit(spec).render()
                assert len(built_cells) == 1
                assert built_presets == ["7302"]
                warm = client.submit(spec)
                assert warm.render() == cold
        assert len(built_cells) == 2
        assert built_presets == ["7302"]
        assert all(result.cached for result in warm.results)

    def test_warm_cache_survives_server_restart(self, service_dir):
        spec = _spec()
        with _service(service_dir):
            with ServiceClient(_sock(service_dir)) as client:
                first = client.submit(spec)
        with _service(service_dir):
            with ServiceClient(_sock(service_dir)) as client:
                second = client.submit(spec)
        assert all(result.cached for result in second.results)
        assert second.render() == first.render()

    def test_determinism_across_priorities(self, service_dir):
        spec = _spec()
        with _service(service_dir, cache=None):
            with ServiceClient(_sock(service_dir)) as client:
                low = client.submit(spec, priority=0)
                high = client.submit(spec, priority=9)
        assert high.render() == low.render()

    def test_submission_order_restored_from_arrival_order(self, service_dir):
        # Two arms × two backends: events arrive in completion order, but
        # the outcome is reassembled by index — matching run_local exactly.
        spec = _spec(arms=("off", "credits"))
        with _service(service_dir):
            with ServiceClient(_sock(service_dir)) as client:
                served = client.submit(spec)
        assert [result.index for result in served.results] == [0, 1, 2, 3]
        local = run_local(normalize_spec(spec), cache=None)
        assert render_results(normalize_spec(spec), served.results) == \
            render_results(normalize_spec(spec), local)


class TestOps:
    def test_ping_and_availability(self, service_dir):
        assert not server_available(_sock(service_dir))
        with _service(service_dir):
            assert server_available(_sock(service_dir))
            with ServiceClient(_sock(service_dir)) as client:
                assert client.ping()
                assert client.server_info["kinds"] == [
                    "netstack", "chaos", "trace", "kvstore", "explore"
                ]
        assert not server_available(_sock(service_dir))

    def test_jobs_listing_records_finished_jobs(self, service_dir):
        with _service(service_dir):
            with ServiceClient(_sock(service_dir), client="me") as client:
                client.submit(_spec())
                listing = client.jobs()
        records = listing["records"]
        assert len(records) == 1
        assert records[0]["client"] == "me"
        assert records[0]["status"] == "done"
        assert records[0]["cells"] == 2
        assert listing["running"] is None
        assert listing["queued"] == []

    def test_bad_spec_rejected_server_side(self, service_dir):
        with _service(service_dir):
            with ServiceClient(_sock(service_dir)) as client:
                client._send({"op": "submit", "spec": {"kind": "nope"}})
                with pytest.raises(ServiceError) as excinfo:
                    client._raise_on_error(client._recv())
        assert excinfo.value.code == "bad-request"

    def test_variants_field_rejected(self):
        with pytest.raises(ConfigurationError, match="variants"):
            normalize_spec(_spec(variants={"des_shards": 2}))

    def test_bad_spec_rejected_client_side_too(self, service_dir):
        with _service(service_dir):
            with ServiceClient(_sock(service_dir)) as client:
                with pytest.raises(ConfigurationError):
                    client.submit({"kind": "nope"})

    def test_unknown_op_is_protocol_error(self, service_dir):
        with _service(service_dir):
            with ServiceClient(_sock(service_dir)) as client:
                client._send({"op": "frobnicate"})
                frame = client._recv()
        assert frame["event"] == "error"
        assert frame["code"] == "protocol"

    def test_cancel_unknown_job_is_structured(self, service_dir):
        with _service(service_dir):
            with ServiceClient(_sock(service_dir)) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.cancel("job-999")
        assert excinfo.value.code == "unknown-job"

    def test_stale_socket_is_reclaimed(self, service_dir):
        with open(_sock(service_dir), "w", encoding="utf-8") as handle:
            handle.write("stale")
        with _service(service_dir):
            assert server_available(_sock(service_dir))

    def test_second_server_refuses_live_socket(self, service_dir):
        with _service(service_dir):
            with pytest.raises(ServiceError) as excinfo:
                _service(service_dir).start()
        assert excinfo.value.code == "already-running"


class TestBackpressure:
    def test_queue_full_rejects_with_retry_after(self, service_dir, gate):
        # Depth 1: one held job runs, one waits, the third is rejected at
        # the door with a structured retry-after — and every *admitted*
        # job still completes (nothing is silently dropped).
        held = _spec(arms=("off", "credits", "credits+qos"))
        quick = _spec()
        with _service(service_dir, max_depth=1, cache=None, jobs=1):
            running = ServiceClient(_sock(service_dir), client="hog").connect()
            try:
                running._send({"op": "submit", "spec": normalize_spec(held),
                               "priority": 0})
                accepted = running._raise_on_error(running._recv())
                assert accepted["event"] == "accepted"
                # Its first cell holds: the job is off the queue, so the
                # next submission occupies the depth.
                assert gate.started.wait(timeout=60)
                with ServiceClient(_sock(service_dir), client="b") as other:
                    other._send({
                        "op": "submit", "spec": normalize_spec(quick),
                        "priority": 0,
                    })
                    queued = other._raise_on_error(other._recv())
                    assert queued["event"] == "accepted"
                    with pytest.raises(ServiceError) as excinfo:
                        with ServiceClient(
                            _sock(service_dir), client="c"
                        ) as third:
                            third.submit(quick)
                    assert excinfo.value.code == "queue-full"
                    assert excinfo.value.retry_after_s > 0
                    # The admitted queued job still completes in full.
                    gate.release.set()
                    while True:
                        frame = _next_event(other)
                        if frame.get("event") == "done" and \
                                frame.get("job") == queued["job"]:
                            assert frame["status"] == "done"
                            assert frame["completed"] == 2
                            break
            finally:
                gate.release.set()
                _cancel_quietly(running, accepted["job"])
                running.close()
        assert gate.released == [True]

    def test_rejected_job_recorded(self, service_dir, gate):
        held = _spec(arms=("off", "credits", "credits+qos"))
        with _service(service_dir, max_depth=1, cache=None, jobs=1):
            client = ServiceClient(_sock(service_dir)).connect()
            try:
                client._send({"op": "submit", "spec": normalize_spec(held),
                              "priority": 0})
                accepted = client._raise_on_error(client._recv())
                assert gate.started.wait(timeout=60)
                with ServiceClient(_sock(service_dir)) as other:
                    other._send({"op": "submit",
                                 "spec": normalize_spec(_spec()),
                                 "priority": 0})
                    other._raise_on_error(other._recv())  # fills depth 1
                    with pytest.raises(ServiceError):
                        with ServiceClient(_sock(service_dir)) as third:
                            third.submit(_spec(transactions=41))
                    statuses = {
                        row["job"]: row["status"]
                        for row in other.jobs()["records"]
                    }
                assert "rejected" in statuses.values()
            finally:
                gate.release.set()
                _cancel_quietly(client, accepted["job"])
                client.close()
        assert gate.released == [True]


class TestCancellation:
    def test_cancel_queued_job(self, service_dir, gate):
        held = _spec(arms=("off", "credits", "credits+qos"))
        with _service(service_dir, max_depth=4, cache=None, jobs=1):
            client = ServiceClient(_sock(service_dir)).connect()
            try:
                # The held job runs until the gate opens, so the second
                # job stays queued behind it until the cancel lands.
                client._send({"op": "submit", "spec": normalize_spec(held),
                              "priority": 0})
                held_accepted = client._raise_on_error(client._recv())
                assert gate.started.wait(timeout=60)
                client._send({"op": "submit", "spec": normalize_spec(_spec()),
                              "priority": 0})
                queued = client._await_event("accepted")
                cancelled = client.cancel(queued["job"])
                assert cancelled["where"] == "queue"
                # The subscriber gets a terminal done event for the
                # cancelled job; nothing of it ever ran.
                while True:
                    frame = _next_event(client)
                    if frame.get("event") == "done" and \
                            frame.get("job") == queued["job"]:
                        assert frame["status"] == "cancelled"
                        assert frame["completed"] == 0
                        break
            finally:
                gate.release.set()
                _cancel_quietly(client, held_accepted["job"])
                client.close()
        assert gate.released == [True]

    def test_cancel_running_job_reports_cancelled_cells(
        self, service_dir, gate
    ):
        # The first cell holds until the test releases it — only after the
        # cancel is acknowledged. So the cancel always lands while cell 0
        # runs and cells 1-5 have not started.
        spec = _spec(arms=("off", "credits", "credits+qos"))
        with _service(service_dir, max_depth=4, cache=None, jobs=1):
            client = ServiceClient(_sock(service_dir)).connect()
            try:
                client._send({"op": "submit", "spec": normalize_spec(spec),
                              "priority": 0})
                accepted = client._raise_on_error(client._recv())
                assert gate.started.wait(timeout=60)
                cancelled = client.cancel(accepted["job"])
                assert cancelled["where"] == "running"
                gate.release.set()
                statuses = {}
                while True:
                    frame = _next_event(client)
                    if frame.get("job") != accepted["job"]:
                        continue
                    if frame.get("event") == "cell":
                        statuses[frame["index"]] = frame["status"]
                    elif frame.get("event") == "done":
                        done = frame
                        break
                # Every cell is accounted for: the one in flight finished,
                # the rest are reported cancelled, none is lost.
                assert statuses == {
                    0: "ok", 1: "cancelled", 2: "cancelled",
                    3: "cancelled", 4: "cancelled", 5: "cancelled",
                }
                assert done["status"] == "cancelled"
                assert done["completed"] == 6
            finally:
                gate.release.set()
                client.close()
        assert gate.released == [True]


class TestTraceArtifacts:
    def test_trace_job_exports_content_keyed_artifacts(self, service_dir):
        spec = {
            "kind": "trace",
            "platform": "synthetic",
            "params": {"cell": "netstack", "samples": 10},
        }
        with _service(service_dir):
            with ServiceClient(_sock(service_dir)) as client:
                first = client.submit(spec)
                second = client.submit(spec)
        assert first.status == "done"
        assert len(first.trace_paths) == len(first.results) == 3
        for path in first.trace_paths.values():
            assert os.path.isfile(path)
            assert path.endswith(".json")
        # Same content key, same artifact: the resubmission reuses the
        # exact same files.
        assert second.trace_paths == first.trace_paths
        # The streamed values round-trip well enough to re-render the
        # full breakdown locally, identically to an in-process run.
        local = submit_or_local(spec, prefer_local=True, cache=None)
        assert first.render() == local.render()
