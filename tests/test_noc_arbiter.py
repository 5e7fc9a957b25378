"""Tests for FIFO link arbitration."""

import pytest

from repro.noc.arbiter import LinkArbiter
from repro.platform.interconnect import LinkKind, LinkSpec
from repro.sim.engine import Environment


def make_arbiter(env, read=32.0, write=16.0, lanes=1):
    spec = LinkSpec("test-link", LinkKind.GMI, 0.0, read, write)
    return LinkArbiter(env, spec, lanes=lanes)


class TestServiceTime:
    def test_read_service(self):
        env = Environment()
        arb = make_arbiter(env)

        def proc():
            yield from arb.transfer(64, is_write=False)

        env.run(env.process(proc()))
        assert env.now == pytest.approx(64 / 32.0)

    def test_write_direction_slower(self):
        env = Environment()
        arb = make_arbiter(env)

        def proc():
            yield from arb.transfer(64, is_write=True)

        env.run(env.process(proc()))
        assert env.now == pytest.approx(64 / 16.0)

    def test_lanes_split_rate(self):
        env = Environment()
        arb = make_arbiter(env, read=32.0, lanes=4)
        assert arb.read_dir.service_ns(64) == pytest.approx(64 / 8.0)


class TestQueueing:
    def test_serial_transfers_accumulate(self):
        env = Environment()
        arb = make_arbiter(env)

        def proc():
            for __ in range(10):
                yield from arb.transfer(64, is_write=False)

        env.run(env.process(proc()))
        assert env.now == pytest.approx(10 * 2.0)

    def test_concurrent_transfers_serialize(self):
        env = Environment()
        arb = make_arbiter(env)

        def worker():
            yield from arb.transfer(64, is_write=False)

        for __ in range(5):
            env.process(worker())
        env.run()
        # One lane: five 2 ns services back to back.
        assert env.now == pytest.approx(10.0)

    def test_directions_are_independent(self):
        env = Environment()
        arb = make_arbiter(env)

        def reader():
            yield from arb.transfer(640, is_write=False)

        def writer():
            yield from arb.transfer(64, is_write=True)

        env.process(reader())
        env.process(writer())
        env.run()
        # Writer (4 ns) does not wait behind the 20 ns read.
        assert env.now == pytest.approx(20.0)

    def test_max_queue_tracking(self):
        env = Environment()
        arb = make_arbiter(env)

        def worker():
            yield from arb.transfer(64, is_write=False)

        for __ in range(4):
            env.process(worker())
        env.run()
        assert arb.read_dir.max_queue_len == 3


class TestTelemetry:
    def test_bytes_and_utilization(self):
        env = Environment()
        arb = make_arbiter(env)

        def proc():
            for __ in range(8):
                yield from arb.transfer(64, is_write=False)

        env.run(env.process(proc()))
        assert arb.read_dir.bytes_served == 512
        assert arb.utilization(False, env.now) == pytest.approx(1.0)
        assert arb.achieved_gbps(False, env.now) == pytest.approx(32.0)

    def test_idle_utilization(self):
        env = Environment()
        arb = make_arbiter(env)
        assert arb.utilization(False, 100.0) == 0.0
        assert arb.achieved_gbps(True, 0.0) == 0.0

    def test_utilization_fraction(self):
        env = Environment()
        arb = make_arbiter(env)

        def proc():
            yield from arb.transfer(64, is_write=False)  # 2 ns busy

        env.run(env.process(proc()))
        assert arb.utilization(False, 8.0) == pytest.approx(0.25)

    def test_concurrent_workers_saturate_a_gmi_link(self, p7302):
        # Four closed-loop workers keep the read direction of a real
        # preset link busy: the FIFO arbiter leaves no idle gaps.
        env = Environment()
        arb = LinkArbiter(env, p7302.link("gmi/ccd0"))

        def worker():
            for __ in range(50):
                yield from arb.transfer(64, is_write=False)

        for __ in range(4):
            env.process(worker())
        env.run()
        assert arb.read_dir.bytes_served == 4 * 50 * 64
        assert arb.utilization(False, env.now) > 0.8
