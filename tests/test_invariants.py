"""Tests for opt-in strict invariant checking across both backends."""

import pytest

from repro.errors import SimulationError
from repro.fluid.solver import Channel, FluidFlow, Policy
from repro.fluid.timeseries import DemandSchedule, FluidSimulator
from repro.sim.engine import Environment
from repro.transport.message import OpKind
from repro.transport.path import PathResolver
from repro.transport.transaction import TransactionExecutor


# --------------------------------------------------------------------------
# engine strict mode


class TestEngineStrict:
    def test_strict_run_matches_default_run(self):
        def trace(strict):
            env = Environment(strict=strict)
            fired = []

            def ticker():
                for __ in range(5):
                    yield env.timeout(3.0)
                    fired.append(env.now)

            env.process(ticker())
            env.run()
            return fired, env.now

        assert trace(True) == trace(False)

    def test_strict_horizon_semantics(self):
        env = Environment(strict=True)
        fired = []

        def ticker():
            for __ in range(10):
                yield env.timeout(3.0)
                fired.append(env.now)

        env.process(ticker())
        env.run(until=10.0)
        assert env.now == 10.0
        assert fired == [3.0, 6.0, 9.0]
        env.run()
        assert env.now == 30.0

    def test_strict_until_event(self):
        env = Environment(strict=True)

        def task():
            yield env.timeout(4.0)
            return "done"

        assert env.run(env.process(task())) == "done"
        assert env.now == 4.0

    def test_negative_timeout_rejected_either_way(self):
        for strict in (False, True):
            env = Environment(strict=strict)
            with pytest.raises(SimulationError):
                env.timeout(-1.0)


# --------------------------------------------------------------------------
# byte conservation


class TestConservation:
    def _run_load(self, platform, strict):
        env = Environment(strict=strict)
        resolver = PathResolver(env, platform, seed=0)
        executor = TransactionExecutor(env, strict=strict)
        path = resolver.dram_path(0, 0)
        from repro.core.loadgen import ClosedLoopIssuer

        issuer = ClosedLoopIssuer(
            env, executor, (path, path),
            op=OpKind.READ, window=4, count_per_worker=50,
        )
        issuer.run()
        return executor

    def test_books_balance_after_clean_run(self, p7302):
        executor = self._run_load(p7302, strict=True)
        assert executor.bytes_injected > 0
        assert executor.bytes_injected == executor.bytes_delivered
        assert executor.bytes_in_flight == 0
        executor.assert_conserved(drained=True)

    def test_books_kept_even_when_not_strict(self, p7302):
        executor = self._run_load(p7302, strict=False)
        assert executor.bytes_injected == executor.bytes_delivered
        executor.assert_conserved(drained=True)

    def test_lost_bytes_detected(self, p7302):
        executor = self._run_load(p7302, strict=False)
        executor.bytes_in_flight += 64        # simulate an abandoned txn
        executor.bytes_injected += 64
        executor.assert_conserved(drained=False)
        with pytest.raises(SimulationError, match="in flight"):
            executor.assert_conserved(drained=True)

    def test_double_completion_detected(self, p7302):
        executor = self._run_load(p7302, strict=False)
        executor.bytes_in_flight -= 64
        with pytest.raises(SimulationError, match="twice"):
            executor.assert_conserved(drained=False)

    def test_imbalance_detected(self, p7302):
        executor = self._run_load(p7302, strict=False)
        executor.bytes_delivered += 64
        with pytest.raises(SimulationError, match="conservation"):
            executor.assert_conserved(drained=False)

    def test_reset_rebaselines_books(self, p7302):
        executor = self._run_load(p7302, strict=False)
        executor.reset()
        assert executor.bytes_injected == executor.bytes_in_flight == 0
        assert executor.bytes_delivered == 0
        executor.assert_conserved(drained=True)

    def test_strict_rejects_non_positive_size(self, p7302):
        env = Environment()
        resolver = PathResolver(env, p7302, seed=0)
        executor = TransactionExecutor(env, strict=True)
        path = resolver.dram_path(0, 0)
        from repro.transport.message import Transaction

        # The constructor validates size itself, so corrupt one after the
        # fact — strict mode is the backstop for exactly this kind of state.
        txn = Transaction(op=OpKind.READ, size_bytes=64)
        txn.size_bytes = 0
        with pytest.raises(SimulationError, match="size"):
            env.run(env.process(executor.execute(txn, path)))


# --------------------------------------------------------------------------
# fluid strict mode


class TestFluidStrict:
    def _sim(self, strict):
        link = Channel("link", 10.0)
        flows = [
            FluidFlow("a", 8.0, [(link, 1.0)]),
            FluidFlow("b", 8.0, [(link, 1.0)]),
        ]
        return FluidSimulator(
            flows,
            {"a": DemandSchedule(8.0), "b": DemandSchedule(8.0)},
            policy=Policy.MAX_MIN,
            dt_s=0.1,
            strict=strict,
        )

    def test_strict_run_matches_default(self):
        healthy = self._sim(strict=False).run(1.0)
        checked = self._sim(strict=True).run(1.0)
        for name in ("a", "b"):
            assert healthy[name].achieved_gbps == checked[name].achieved_gbps

    def test_strict_catches_oversubscription(self, monkeypatch):
        sim = self._sim(strict=True)

        def bad_solve(flows, policy):
            # A broken allocator granting everyone their full demand.
            return {flow.name: flow.demand_gbps for flow in flows}

        monkeypatch.setattr("repro.fluid.timeseries.solve", bad_solve)
        with pytest.raises(SimulationError, match="oversubscribed"):
            sim.run(1.0)

    def test_strict_catches_over_allocation(self, monkeypatch):
        sim = self._sim(strict=True)

        def bad_solve(flows, policy):
            return {flow.name: flow.demand_gbps + 5.0 for flow in flows}

        monkeypatch.setattr("repro.fluid.timeseries.solve", bad_solve)
        with pytest.raises(SimulationError, match="above its demand"):
            sim.run(1.0)

    def test_strict_catches_negative_allocation(self, monkeypatch):
        sim = self._sim(strict=True)

        def bad_solve(flows, policy):
            return {flow.name: -1.0 for flow in flows}

        monkeypatch.setattr("repro.fluid.timeseries.solve", bad_solve)
        with pytest.raises(SimulationError, match="negative"):
            sim.run(1.0)
