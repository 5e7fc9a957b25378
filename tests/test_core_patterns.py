"""Tests for access patterns and temporal-write (RFO) semantics (§3.1).

The paper's utility generates "random/sequential read/write access patterns,
and temporal or non-temporal writes"; these tests pin the bandwidth
consequences of each mode.
"""

import pytest

from repro.core.fabric import FabricModel
from repro.core.flows import Pattern, Scope, StreamSpec
from repro.core.microbench import MicroBench
from repro.transport.message import OpKind


@pytest.fixture(scope="module")
def fabric7(p7302):
    return FabricModel(p7302)


@pytest.fixture(scope="module")
def fabric9(p9634):
    return FabricModel(p9634)


class TestPatterns:
    def test_random_reads_below_sequential(self, fabric7):
        sequential = fabric7.per_core_ceiling_gbps(
            OpKind.READ, "dram", 0, pattern=Pattern.SEQUENTIAL
        )
        random = fabric7.per_core_ceiling_gbps(
            OpKind.READ, "dram", 0, pattern=Pattern.RANDOM
        )
        assert random < sequential
        assert random == pytest.approx(sequential / 2, rel=0.1)

    def test_pointer_chase_window_one(self, fabric9):
        chase = fabric9.per_core_ceiling_gbps(
            OpKind.READ, "dram", 0, pattern=Pattern.POINTER_CHASE
        )
        # One cacheline per 141 ns.
        assert chase == pytest.approx(64 / 141, rel=0.02)

    def test_random_cxl_reads_scale_down(self, fabric9):
        sequential = fabric9.per_core_ceiling_gbps(
            OpKind.READ, "cxl", 0, pattern=Pattern.SEQUENTIAL
        )
        random = fabric9.per_core_ceiling_gbps(
            OpKind.READ, "cxl", 0, pattern=Pattern.RANDOM
        )
        assert random < sequential

    def test_nt_writes_unaffected_by_pattern(self, fabric7):
        sequential = fabric7.per_core_ceiling_gbps(
            OpKind.NT_WRITE, "dram", 0, pattern=Pattern.SEQUENTIAL
        )
        random = fabric7.per_core_ceiling_gbps(
            OpKind.NT_WRITE, "dram", 0, pattern=Pattern.RANDOM
        )
        # The write-combining buffer limit does not depend on prefetch.
        assert sequential == random

    def test_microbench_exposes_pattern(self, p9634):
        bench = MicroBench(p9634)
        sequential = bench.stream_bandwidth(Scope.CORE, OpKind.READ)
        random = bench.stream_bandwidth(
            Scope.CORE, OpKind.READ, pattern=Pattern.RANDOM
        )
        assert random < sequential

    def test_default_random_mlp_derivation(self, p7302):
        bw = p7302.spec.bandwidth
        assert bw.effective_random_mlp == max(4, bw.mlp_read // 2)


class TestTemporalWrites:
    def test_temporal_write_loads_both_directions(self, fabric7):
        spec = StreamSpec("s", OpKind.WRITE, (0,))
        flow = fabric7.flows_for(spec)[0]
        directions = {channel.name.split(":")[1] for channel, __ in flow.path}
        assert directions == {"r", "w"}

    def test_nt_write_loads_write_direction_only(self, fabric7):
        spec = StreamSpec("s", OpKind.NT_WRITE, (0,))
        flow = fabric7.flows_for(spec)[0]
        directions = {channel.name.split(":")[1] for channel, __ in flow.path}
        assert directions == {"w"}

    def test_temporal_writes_interfere_with_reads(self, fabric9):
        # RFO fills share the read direction: a temporal-write stream
        # reduces a concurrent read stream where an NT stream would not.
        cores = [c.core_id for c in fabric9.platform.cores_of_ccd(0)]
        reader = StreamSpec("reader", OpKind.READ, tuple(cores[:4]))
        nt = StreamSpec(
            "writer", OpKind.NT_WRITE, tuple(cores[4:]), demand_gbps=9.0
        )
        temporal = StreamSpec(
            "writer", OpKind.WRITE, tuple(cores[4:]), demand_gbps=9.0
        )
        with_nt = fabric9.achieved_gbps([reader, nt])["reader"]
        with_temporal = fabric9.achieved_gbps([reader, temporal])["reader"]
        assert with_temporal < with_nt

    def test_ccd_temporal_write_throughput(self, p7302):
        bench = MicroBench(p7302)
        temporal = bench.stream_bandwidth(Scope.CCD, OpKind.WRITE)
        nt = bench.stream_bandwidth(Scope.CCD, OpKind.NT_WRITE)
        read = bench.stream_bandwidth(Scope.CCD, OpKind.READ)
        # Temporal writes land between NT writes and reads on the 7302
        # (the CCX write pool binds both write flavours).
        assert nt <= temporal < read


class TestPatternMatrix:
    """The ``repro patterns`` matrix: §3.1's access-pattern axes."""

    @pytest.mark.parametrize("preset", ["7302", "9634"])
    def test_shape(self, preset, p7302, p9634):
        from repro.experiments import patterns
        from repro.platform.numa import Position

        platform = {"7302": p7302, "9634": p9634}[preset]
        matrix = patterns.run(platform)

        def gbps(combo, scope):
            return matrix.cells[(combo, scope.value)]

        for scope in (Scope.CORE, Scope.CCX, Scope.CPU):
            assert (
                gbps("sequential-read", scope)
                >= gbps("random-read", scope)
                >= gbps("pointer-chase", scope)
            )
        # One line per round trip for a single chasing core.
        near = platform.dram_latency_at(0, Position.NEAR)
        assert gbps("pointer-chase", Scope.CORE) == pytest.approx(
            64.0 / near, rel=0.02
        )
        # RFO stores between NT streams and reads at chiplet scope.
        assert (
            gbps("nt-write", Scope.CCX)
            <= gbps("temporal-write", Scope.CCX)
            < gbps("sequential-read", Scope.CCX)
        )
