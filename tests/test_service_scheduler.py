"""Scheduler tests: priority, fairness, bounded admission, withdrawal."""

from __future__ import annotations

import pytest

from repro.errors import ServiceError
from repro.service.scheduler import JobScheduler, QueuedJob, QueueFull


def _job(job_id, client="a", priority=0):
    return QueuedJob(
        job_id=job_id, client=client, priority=priority,
        spec={"kind": "netstack"},
    )


def _drain(scheduler):
    order = []
    while True:
        job = scheduler.next_job()
        if job is None:
            return order
        order.append(job.job_id)


class TestPriority:
    def test_higher_priority_dispatches_first(self):
        scheduler = JobScheduler(8)
        scheduler.submit(_job("low", priority=0))
        scheduler.submit(_job("high", priority=5))
        scheduler.submit(_job("mid", priority=2))
        assert _drain(scheduler) == ["high", "mid", "low"]

    def test_fifo_within_one_client_and_priority(self):
        scheduler = JobScheduler(8)
        for name in ("first", "second", "third"):
            scheduler.submit(_job(name))
        assert _drain(scheduler) == ["first", "second", "third"]

    def test_negative_priorities_sort_below_zero(self):
        scheduler = JobScheduler(8)
        scheduler.submit(_job("background", priority=-1))
        scheduler.submit(_job("normal", priority=0))
        assert _drain(scheduler) == ["normal", "background"]


class TestFairness:
    def test_round_robin_across_clients(self):
        scheduler = JobScheduler(16)
        # Client a floods; client b submits one job afterwards.
        for index in range(5):
            scheduler.submit(_job(f"a{index}", client="a"))
        scheduler.submit(_job("b0", client="b"))
        order = _drain(scheduler)
        # b's single job must not wait behind a's whole backlog.
        assert order.index("b0") <= 1
        # a's own jobs keep FIFO order.
        a_jobs = [name for name in order if name.startswith("a")]
        assert a_jobs == [f"a{index}" for index in range(5)]

    def test_three_clients_interleave(self):
        scheduler = JobScheduler(16)
        for index in range(2):
            for client in ("a", "b", "c"):
                scheduler.submit(_job(f"{client}{index}", client=client))
        assert _drain(scheduler) == ["a0", "b0", "c0", "a1", "b1", "c1"]

    def test_priority_beats_fairness(self):
        scheduler = JobScheduler(16)
        scheduler.submit(_job("a0", client="a", priority=0))
        scheduler.submit(_job("b0", client="b", priority=1))
        assert _drain(scheduler) == ["b0", "a0"]

    def test_snapshot_matches_dispatch_order(self):
        scheduler = JobScheduler(16)
        scheduler.submit(_job("a0", client="a"))
        scheduler.submit(_job("a1", client="a"))
        scheduler.submit(_job("b0", client="b"))
        scheduler.submit(_job("hi", client="a", priority=9))
        snapshot = [row["job"] for row in scheduler.snapshot()]
        assert snapshot == _drain(scheduler)


class TestAdmission:
    def test_depth_bound_rejects_with_retry_after(self):
        scheduler = JobScheduler(2, initial_estimate_s=7.0)
        scheduler.submit(_job("one"))
        scheduler.submit(_job("two"))
        with pytest.raises(QueueFull) as excinfo:
            scheduler.submit(_job("three"))
        error = excinfo.value
        assert error.code == "queue-full"
        assert error.retry_after_s == pytest.approx(7.0)
        # Nothing was silently dropped: exactly the two admitted jobs run.
        assert _drain(scheduler) == ["one", "two"]

    def test_unbounded_submit_admits_past_depth(self):
        # The server's path for a job it has already accepted.
        scheduler = JobScheduler(1)
        scheduler.submit(_job("one"))
        scheduler.submit(_job("accepted"), bounded=False)
        assert scheduler.depth == 2
        assert _drain(scheduler) == ["one", "accepted"]

    def test_slot_frees_after_dispatch(self):
        scheduler = JobScheduler(1)
        scheduler.submit(_job("one"))
        with pytest.raises(QueueFull):
            scheduler.submit(_job("blocked"))
        assert scheduler.next_job().job_id == "one"
        scheduler.submit(_job("now-fits"))

    def test_duplicate_id_rejected(self):
        scheduler = JobScheduler(4)
        scheduler.submit(_job("dup"))
        with pytest.raises(ServiceError):
            scheduler.submit(_job("dup"))

    def test_retry_after_tracks_observed_durations(self):
        scheduler = JobScheduler(2, ewma_alpha=0.5, initial_estimate_s=1.0)
        scheduler.observe_duration(9.0)
        assert scheduler.retry_after_s() == pytest.approx(5.0)
        scheduler.observe_duration(5.0)
        assert scheduler.retry_after_s() == pytest.approx(5.0)

    def test_invalid_depth_rejected(self):
        with pytest.raises(ValueError):
            JobScheduler(0)


class TestWithdrawal:
    def test_remove_queued_job(self):
        scheduler = JobScheduler(4)
        scheduler.submit(_job("keep"))
        scheduler.submit(_job("drop"))
        assert scheduler.remove("drop").job_id == "drop"
        assert scheduler.remove("drop") is None
        assert scheduler.remove("never-queued") is None
        assert _drain(scheduler) == ["keep"]

    def test_remove_last_job_of_client_cleans_rotation(self):
        scheduler = JobScheduler(4)
        scheduler.submit(_job("a0", client="a"))
        scheduler.submit(_job("b0", client="b"))
        scheduler.remove("a0")
        assert _drain(scheduler) == ["b0"]
        assert scheduler.depth == 0
