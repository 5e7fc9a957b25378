"""End-to-end service tests: a real daemon on a real Unix socket.

Every test runs a :class:`repro.service.server.ServiceThread` against a
short socket path under ``/tmp`` (AF_UNIX paths are limited to ~107
bytes; pytest's tmp_path is routinely longer than that).
"""

from __future__ import annotations

import asyncio
import gc
import logging
import os
import shutil
import tempfile
import threading
import time
import weakref

import pytest

from repro.cache import ResultCache
from repro.errors import ConfigurationError, ServiceError
from repro.service import ServiceClient, ServiceThread, server_available, submit_or_local
from repro.service import store as store_module
from repro.service.registry import (
    build_cells,
    normalize_spec,
    run_local,
    render_results,
)


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


def _explore_spec(routings=("xy",), seed=0):
    # Cheap explore cells: the netstack gate below never holds them.
    return {
        "kind": "explore",
        "platform": "7302",
        "seed": seed,
        "params": {
            "topologies": ["squeeze-3x2"],
            "routings": list(routings),
            "workloads": ["contention"],
            "packets_per_sender": 10,
        },
    }


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


def _job_frames(client, job_id):
    """This job's frames, read up to and including its done event."""
    frames = []
    while True:
        frame = _next_event(client)
        if frame.get("job") == job_id:
            frames.append(frame)
            if frame.get("event") == "done":
                return frames


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

    def test_every_kind_serves_what_it_runs_locally(self, service_dir):
        # Every artifact kind, cold and then warm, renders from the
        # decoded values exactly what the in-process run renders.
        from repro.service.registry import KINDS

        small = {
            "table2": {"iterations": 60},
            "fig3": {"transactions_per_core": 20},
            "accel": {"dispatch_jobs": 2},
            "chaos": {"severities": [0.5], "transactions_per_core": 20},
            "netstack": {"arms": ["off"], "transactions_per_core": 20},
            "sharded": {"shards": 2, "transactions_per_core": 20},
            "trace": {"cell": "table2", "samples": 10},
            "kvstore": {"requests": 300},
            "explore": _explore_spec()["params"],
        }
        with _service(service_dir, jobs=1):
            with ServiceClient(_sock(service_dir)) as client:
                for kind in KINDS:
                    spec = normalize_spec({
                        "kind": kind, "platform": "9634",
                        "params": small.get(kind, {}),
                    })
                    local = render_results(spec, run_local(spec, cache=None))
                    for __ in range(2):
                        served = client.submit(spec)
                        assert served.render() == local, kind


class TestOps:
    def test_ping_and_availability(self, service_dir):
        assert not server_available(_sock(service_dir))
        with _service(service_dir):
            assert server_available(_sock(service_dir))
            with ServiceClient(_sock(service_dir)) as client:
                assert client.ping()
                assert client.server_info["kinds"] == [
                    "table1", "table2", "table3", "fig3", "fig4", "fig5",
                    "fig6", "suite", "os-scaling", "accel", "chaos",
                    "netstack", "sharded", "trace", "kvstore", "explore",
                    "devtree", "io-relay", "collective", "noc-routing",
                    "core-to-core", "patterns",
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

    def test_uncached_trace_jobs_differing_in_seed_get_their_own_files(
        self, service_dir
    ):
        # With no cache attached every cell is still content-keyed, so two
        # jobs that differ only in seed never share an artifact.
        from repro.trace import chrome_trace, dumps

        specs = [
            {
                "kind": "trace",
                "platform": "synthetic",
                "seed": seed,
                "params": {"cell": "netstack", "samples": 10},
            }
            for seed in (0, 1)
        ]
        with _service(service_dir, cache=None):
            with ServiceClient(_sock(service_dir)) as client:
                outcomes = [client.submit(spec) for spec in specs]
        first, second = outcomes
        assert len(first.trace_paths) == len(second.trace_paths) == 3
        assert set(first.trace_paths.values()).isdisjoint(
            second.trace_paths.values()
        )
        for outcome in outcomes:
            for index, path in outcome.trace_paths.items():
                value = outcome.results[index].value
                with open(path, encoding="utf-8") as handle:
                    assert handle.read() == dumps(
                        chrome_trace([(value.label, value.recording)])
                    )

    def test_keyless_cell_gets_a_job_scoped_file_written_every_time(
        self, service_dir
    ):
        from repro.service.store import JobStore
        from repro.trace import chrome_trace, dumps

        spec = normalize_spec({
            "kind": "trace",
            "platform": "synthetic",
            "params": {"cell": "netstack", "samples": 10},
        })
        first, second = [
            result.value.recording
            for result in run_local(spec, cache=None)[:2]
        ]
        store = JobStore(os.path.join(service_dir, "artifacts"))
        path = store.write_trace(
            None, "cell", first, job_id="job-1", index=0
        )
        again = store.write_trace(
            None, "cell", second, job_id="job-1", index=0
        )
        other = store.write_trace(
            None, "cell", first, job_id="job-2", index=0
        )
        assert path == again != other
        with open(again, encoding="utf-8") as handle:
            # Written again: the second recording replaced the first.
            assert handle.read() == dumps(chrome_trace([("cell", second)]))


class TestAdmission:
    """Cached cells are answered at admission, ahead of any queued work.

    The gate holds a cold netstack job on the job thread. Its patched
    ``run_point`` is a local function, so netstack cells are uncacheable
    under it; the cached specs here are explore sweeps, which the gate
    never holds. An answer that waited for the job thread would wait for
    the gate, so the answered clients read with a socket timeout.
    """

    @staticmethod
    def _hold(gate, client):
        held = _spec(arms=("off", "credits", "credits+qos"))
        client._send({
            "op": "submit", "spec": normalize_spec(held), "priority": 0,
        })
        accepted = client._await_event("accepted")
        assert gate.started.wait(timeout=60)
        return accepted["job"]

    def test_cached_resubmit_is_done_before_the_gate_opens(
        self, service_dir, gate
    ):
        spec = _explore_spec(routings=("xy", "adaptive"))
        with _service(service_dir, jobs=1):
            with ServiceClient(_sock(service_dir), client="hog") as hog:
                cold = hog.submit(spec)
                held = self._hold(gate, hog)
                try:
                    with ServiceClient(
                        _sock(service_dir), client="warm"
                    ) as warm:
                        warm._sock.settimeout(30)
                        outcome = warm.submit(spec)
                    assert not gate.release.is_set()
                finally:
                    gate.release.set()
                    _cancel_quietly(hog, held)
        assert outcome.status == "done"
        assert outcome.precached == len(outcome.results) == 2
        assert all(result.cached for result in outcome.results)
        assert outcome.render() == cold.render()
        assert gate.released == [True]

    def test_partly_cached_job_streams_hits_before_its_misses(
        self, service_dir, gate
    ):
        with _service(service_dir, jobs=1):
            with ServiceClient(_sock(service_dir), client="hog") as hog:
                # Caches cell 0 ("xy") of the two-cell job below.
                hog.submit(_explore_spec(routings=("xy",)))
                held = self._hold(gate, hog)
                try:
                    with ServiceClient(
                        _sock(service_dir), client="part"
                    ) as part:
                        part._sock.settimeout(30)
                        part._send({
                            "op": "submit",
                            "spec": normalize_spec(
                                _explore_spec(routings=("xy", "adaptive"))
                            ),
                            "priority": 0,
                        })
                        accepted = part._await_event("accepted")
                        early = _next_event(part)
                        assert not gate.release.is_set()
                        gate.release.set()
                        late = _job_frames(part, accepted["job"])
                finally:
                    gate.release.set()
                    _cancel_quietly(hog, held)
        assert accepted["precached"] == 1
        assert (early["event"], early["index"], early["status"]) == (
            "cell", 0, "cached"
        )
        # The miss ran after the held job, at its index in the job.
        assert [
            (frame["index"], frame["status"])
            for frame in late if frame["event"] == "cell"
        ] == [(1, "ok")]
        done = late[-1]
        assert done["status"] == "done"
        assert (done["completed"], done["hits"], done["misses"]) == (2, 1, 1)
        assert gate.released == [True]

    def test_queued_cancel_counts_the_hits_already_streamed(
        self, service_dir, gate
    ):
        with _service(service_dir, jobs=1):
            with ServiceClient(_sock(service_dir), client="hog") as hog:
                hog.submit(_explore_spec(routings=("xy",)))
                held = self._hold(gate, hog)
                try:
                    hog._send({
                        "op": "submit",
                        "spec": normalize_spec(
                            _explore_spec(routings=("xy", "adaptive"))
                        ),
                        "priority": 0,
                    })
                    queued = hog._await_event("accepted")["job"]
                    hog._sock.settimeout(30)
                    assert hog.cancel(queued)["where"] == "queue"
                    frames = _job_frames(hog, queued)
                finally:
                    gate.release.set()
                    _cancel_quietly(hog, held)
        assert [
            (frame["index"], frame["status"])
            for frame in frames if frame["event"] == "cell"
        ] == [(0, "cached")]
        done = frames[-1]
        assert (done["status"], done["completed"], done["hits"]) == (
            "cancelled", 1, 1
        )
        assert gate.released == [True]

    def test_full_queue_answers_a_cached_job_and_rejects_misses(
        self, service_dir, gate
    ):
        cache = ResultCache(os.path.join(service_dir, "cache"))
        cached = _explore_spec()
        with _service(service_dir, jobs=1, max_depth=1, cache=cache):
            with ServiceClient(_sock(service_dir), client="hog") as hog:
                hog.submit(cached)
                held = self._hold(gate, hog)
                queued = None
                try:
                    # Uncacheable under the gate: takes the only slot.
                    hog._send({
                        "op": "submit", "spec": normalize_spec(_spec()),
                        "priority": 0,
                    })
                    queued = hog._await_event("accepted")["job"]
                    with ServiceClient(
                        _sock(service_dir), client="late"
                    ) as late:
                        late._sock.settimeout(30)
                        outcome = late.submit(cached)
                        charged = (cache.hits, cache.misses)
                        with pytest.raises(ServiceError) as excinfo:
                            late.submit(_explore_spec(seed=1))
                        # Rejected before any read.
                        assert (cache.hits, cache.misses) == charged
                    assert not gate.release.is_set()
                finally:
                    gate.release.set()
                    if queued is not None:
                        _cancel_quietly(hog, queued)
                    _cancel_quietly(hog, held)
        assert outcome.status == "done"
        assert all(result.cached for result in outcome.results)
        assert excinfo.value.code == "queue-full"
        assert gate.released == [True]


    def test_read_failing_after_its_probe_runs_the_cell_past_a_full_queue(
        self, service_dir, gate
    ):
        # The entry exists (the probe hits) but cannot be read: the
        # accepted job must run that cell, even with the queue full.
        cache = ResultCache(os.path.join(service_dir, "cache"))
        spec = _explore_spec()
        (cell,) = build_cells(normalize_spec(spec))
        with _service(service_dir, jobs=1, max_depth=1, cache=cache):
            with ServiceClient(_sock(service_dir), client="hog") as hog:
                hog.submit(spec)
                key = cache.key_for(cell.fn, cell.args, cell.kwargs)
                with open(cache._path(key), "wb") as handle:
                    handle.write(b"not a pickle")
                held = self._hold(gate, hog)
                queued = None
                try:
                    hog._send({
                        "op": "submit", "spec": normalize_spec(_spec()),
                        "priority": 0,
                    })
                    queued = hog._await_event("accepted")["job"]
                    with ServiceClient(
                        _sock(service_dir), client="late"
                    ) as late:
                        late._send({
                            "op": "submit", "spec": normalize_spec(spec),
                            "priority": 0,
                        })
                        accepted = late._await_event("accepted")
                        gate.release.set()
                        frames = _job_frames(late, accepted["job"])
                finally:
                    gate.release.set()
                    if queued is not None:
                        _cancel_quietly(hog, queued)
                    _cancel_quietly(hog, held)
        assert accepted["precached"] == 1
        assert [
            (frame["index"], frame["status"])
            for frame in frames if frame["event"] == "cell"
        ] == [(0, "ok")]
        done = frames[-1]
        assert (done["status"], done["hits"], done["misses"]) == ("done", 0, 1)
        assert gate.released == [True]


class TestCacheAccounting:
    def test_each_cell_is_charged_once_and_recorded(
        self, service_dir, capsys
    ):
        from repro.cli import main

        root = os.path.join(service_dir, "cache")
        cache = ResultCache(root)
        reads = []
        get = cache.get

        def counting_get(key):
            reads.append(key)
            return get(key)

        cache.get = counting_get
        spec = _spec(arms=("off", "credits"))
        cells = len(build_cells(normalize_spec(spec)))
        with _service(service_dir, cache=cache):
            with ServiceClient(_sock(service_dir)) as client:
                client.submit(spec)
                assert (cache.hits, cache.misses) == (0, cells)
                assert len(reads) == cells
                warm = client.submit(spec)
                assert (cache.hits, cache.misses) == (cells, cells)
                # One read per cell: no cell read twice, none skipped.
                assert sorted(reads[cells:]) == sorted(set(reads[:cells]))
                records = client.jobs()["records"]
                # The warm job never ran, so it wrote no run record: its
                # hits are persisted at shutdown.
                assert ResultCache(root).stats().recorded_runs == 1
        assert warm.hits == cells == 4
        assert [(row["hits"], row["misses"]) for row in records] == [
            (0, cells), (cells, 0)
        ]
        assert main(["cache", "stats", "--dir", root]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "recorded runs: 2" in lines
        assert f"recorded hits: {cells}" in lines
        assert f"recorded misses: {cells}" in lines


class TestLifetimes:
    def test_finished_jobs_pin_no_connection(self, service_dir):
        # One job run on the job thread (cold), one answered at admission
        # (warm): once each is done and its client has closed, the server
        # keeps the job's record but not the connection.
        spec = _spec()
        refs = []
        with _service(service_dir) as thread:
            service = thread.service

            async def connection_named(name):
                return [c for c in service._connections if c.name == name]

            for name in ("cold", "warm"):
                client = ServiceClient(_sock(service_dir), client=name)
                client.connect()
                client.submit(spec)
                (connection,) = asyncio.run_coroutine_threadsafe(
                    connection_named(name), thread._loop
                ).result(timeout=30)
                refs.append(weakref.ref(connection))
                del connection
                client.close()
            deadline = time.monotonic() + 30
            while any(ref() is not None for ref in refs):
                assert time.monotonic() < deadline, "a connection outlived its job"
                time.sleep(0.01)
                gc.collect()
            statuses = [record.status for record in service.store.records()]
        assert statuses == ["done", "done"]


class TestJobRecordBound:
    def test_store_drops_the_oldest_finished_records_only(self, monkeypatch):
        monkeypatch.setattr(store_module, "MAX_FINISHED_RECORDS", 3)
        store = store_module.JobStore()

        def record(index, status):
            return store.add(store_module.JobRecord(
                f"job-{index}", "me", 0, {"kind": "explore"}, 1,
                status=status,
            ))

        queued = record(0, "queued")
        running = record(1, "running")
        for index in range(2, 8):
            record(index, "done")
        assert [r.job_id for r in store.records()] == [
            "job-0", "job-1", "job-5", "job-6", "job-7",
        ]
        # A live record finishes by its status; the next add counts it.
        queued.status = running.status = "cancelled"
        record(8, "rejected")
        assert [r.job_id for r in store.records()] == [
            "job-6", "job-7", "job-8",
        ]
        assert store.get("job-0") is None

    def test_jobs_lists_the_newest_finished_jobs(
        self, service_dir, monkeypatch, capsys
    ):
        from repro.cli import main

        monkeypatch.setattr(store_module, "MAX_FINISHED_RECORDS", 3)
        with _service(service_dir, jobs=1) as thread:
            with ServiceClient(_sock(service_dir), client="me") as client:
                ids = [
                    client.submit(_explore_spec()).job_id for __ in range(6)
                ]
            assert main(["jobs", "--socket", _sock(service_dir)]) == 0
            assert len(thread.service.store) == 3
        listed = [
            line.split()[0] for line in capsys.readouterr().out.splitlines()
            if line.startswith("job-")
        ]
        assert listed == ids[-3:]


class TestShutdown:
    def test_stop_with_a_client_connected_logs_and_prints_nothing(
        self, service_dir, capfd, caplog
    ):
        # Each cycle stops the service while a client is still connected,
        # its handler parked in readline(). A handler left to asyncio.run's
        # teardown is cancelled there, and the stream protocol's
        # done-callback then logs "Exception in callback ...
        # CancelledError" with a traceback.
        caplog.set_level(logging.WARNING)
        capfd.readouterr()
        for __ in range(10):
            with _service(service_dir):
                client = ServiceClient(_sock(service_dir), client="idle")
                client.connect()
                assert client.ping()
            client.close()
        captured = capfd.readouterr()
        assert [record.getMessage() for record in caplog.records] == []
        assert captured.err == ""
        assert captured.out == ""
