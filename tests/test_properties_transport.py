"""Property-based tests on path compilation and execution invariants."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.presets import epyc_7302, epyc_9634
from repro.sim.engine import Environment
from repro.transport.message import OpKind, Transaction
from repro.transport.path import PathResolver
from repro.transport.transaction import TransactionExecutor
from tests.test_transport import build_cell, check_cell

_P7302 = epyc_7302()
_P9634 = epyc_9634()

platforms = st.sampled_from([_P7302, _P9634])
ops = st.sampled_from([OpKind.READ, OpKind.NT_WRITE])


class TestPathProperties:
    @given(platform=platforms, op=ops, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_compiled_path_preserves_unloaded_latency(self, platform, op, data):
        core_id = data.draw(
            st.sampled_from(sorted(platform.cores)), label="core"
        )
        umc_id = data.draw(st.sampled_from(sorted(platform.umcs)), label="umc")
        env = Environment()
        resolver = PathResolver(env, platform, with_dram_jitter=False)
        path = resolver.dram_path(core_id, umc_id, op=op)
        core = platform.core(core_id)
        assert path.unloaded_ns == pytest.approx(
            platform.dram_latency_ns(core.ccd_id, umc_id)
        )
        assert path.fixed_ns >= 0.0

    @given(platform=platforms, op=ops, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_single_transaction_latency_equals_unloaded(
        self, platform, op, data
    ):
        core_id = data.draw(st.sampled_from(sorted(platform.cores)))
        umc_id = data.draw(st.sampled_from(sorted(platform.umcs)))
        env = Environment()
        resolver = PathResolver(env, platform, with_dram_jitter=False)
        executor = TransactionExecutor(env)
        path = resolver.dram_path(core_id, umc_id, op=op)
        txn = Transaction(op)
        env.run(env.process(executor.execute(txn, path)))
        assert txn.latency_ns == pytest.approx(path.unloaded_ns)

    @given(count=st.integers(2, 40))
    @settings(max_examples=30, deadline=None)
    def test_fifo_completion_order_single_path(self, count):
        # Identical transactions issued together on one path complete in
        # issue order (FIFO everywhere, no overtaking).
        env = Environment()
        resolver = PathResolver(env, _P7302, with_dram_jitter=False)
        executor = TransactionExecutor(env)
        path = replace(resolver.dram_path(0, 0), tokens=[])
        issued = []
        for __ in range(count):
            txn = Transaction(OpKind.READ)
            issued.append(txn.txn_id)
            env.process(executor.execute(txn, path))
        env.run()
        completed = [txn.txn_id for txn in executor.completed]
        assert completed == issued

    @given(
        sizes=st.lists(st.integers(64, 4096), min_size=1, max_size=10),
    )
    @settings(max_examples=30, deadline=None)
    def test_larger_transactions_never_faster(self, sizes):
        env = Environment()
        resolver = PathResolver(env, _P9634, with_dram_jitter=False)
        executor = TransactionExecutor(env)
        latencies = {}
        for size in sorted(set(sizes)):
            path = resolver.dma_path(0, 0, size_bytes=size)
            txn = Transaction(OpKind.READ, size_bytes=size)
            env.run(env.process(executor.execute(txn, path)))
            latencies[size] = txn.latency_ns
        ordered = sorted(latencies)
        for small, large in zip(ordered, ordered[1:]):
            assert latencies[small] <= latencies[large] + 1e-9


class TestFlatLoopProperty:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_flat_loop_matches_nested_chain(self, data):
        # Random DES cells (shared stages, token pools, UMC jitter, both
        # FLIT sizes, pacing, faults): the flat executor loop, untraced
        # and traced, leaves exactly what the nested chain left.
        def pick(options):
            return data.draw(st.sampled_from(options))

        check_cell(build_cell(pick))
