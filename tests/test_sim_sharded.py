"""Tier-1 tests for the sharded engine stack.

Covers the engine's shard-stable sequence progression, the numpy event
calendar, the conservative window loop (lookahead guard, deterministic
boundary merge, telemetry), the batched recurrences against brute force
and the closed-loop engine against its reference loop, the CCD shard map,
exact cross-shard byte accounting, trace merging, and the cell cache keys.
The cross-engine agreement sweeps live in the conformance tier
(``tests/test_conformance_sharded.py``).
"""

import random
from heapq import heappop, heappush

import numpy as np
import pytest

from repro.analysis.stats import jain_index
from repro.cache import ResultCache
from repro.core.partition import ccd_shard_map
from repro.core.shardexec import contention_flows, run_cell
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.sharded_cell import run_engine_cell
from repro.sim.batch import (
    BatchFlow,
    BatchLane,
    BatchPool,
    BatchStage,
    FlowTiming,
    open_loop_departures,
    simulate_closed_loops,
)
from repro.sim.calendar import EventCalendar
from repro.sim.engine import Environment, Timeout
from repro.sim.sharded import ShardedEnvironment, default_lookahead_ns


# ------------------------------------------------- shard-stable sequences


class TestShardStableSequences:
    @staticmethod
    def _next_seq(env):
        Timeout(env, 0.0)
        return env._sequence

    def test_default_progression_is_serial(self):
        env = Environment()
        assert [self._next_seq(env) for _ in range(3)] == [1, 2, 3]

    def test_offset_step_progression(self):
        env = Environment(seq_offset=2, seq_step=5)
        assert [self._next_seq(env) for _ in range(3)] == [7, 12, 17]

    def test_shard_progressions_are_disjoint(self):
        n = 4
        envs = [Environment(seq_offset=i, seq_step=n) for i in range(n)]
        seqs = [
            self._next_seq(env) for env in envs for _ in range(10)
        ]
        assert len(set(seqs)) == len(seqs)

    def test_invalid_offset_raises(self):
        with pytest.raises(SimulationError):
            Environment(seq_offset=3, seq_step=2)
        with pytest.raises(SimulationError):
            Environment(seq_offset=-1)


# ------------------------------------------------------------- calendar


class TestEventCalendar:
    def test_fires_buckets_in_order_with_grouped_indices(self):
        env = Environment()
        times = np.array([5.0, 1.0, 5.0, 3.0, 1.0])
        fired = []
        done = EventCalendar(env).schedule(
            times, lambda now, idx: fired.append((now, sorted(idx.tolist())))
        )
        env.run()
        assert done.triggered and done.value == 5
        assert fired == [(1.0, [1, 4]), (3.0, [3]), (5.0, [0, 2])]

    def test_one_timeout_per_bucket(self):
        env = Environment()
        times = np.repeat(np.arange(1.0, 6.0), 200)
        EventCalendar(env).schedule(times, lambda now, idx: None)
        events = 0
        while env.next_event_ns is not None:  # the heap and the FIFO
            env.step()
            events += 1
        # 5 distinct timestamps -> 5 timer events + 5 bucket-done events at
        # most (chained arming), three orders below the 1000 wakeups.
        assert events <= 11

    def test_empty_and_past_times(self):
        env = Environment(initial_time=10.0)
        done = EventCalendar(env).schedule([], lambda now, idx: None)
        assert done.triggered and done.value == 0
        with pytest.raises(SimulationError):
            EventCalendar(env).schedule([5.0], lambda now, idx: None)


# ------------------------------------------------------- batch recurrences


def _brute_force_fifo(arrivals, service, servers):
    """Event-by-event reference for the lag-``servers`` recurrence."""
    free = [0.0] * servers
    out = []
    for arrival in arrivals:
        free.sort()
        begin = max(arrival, free[0])
        free[0] = begin + service
        out.append(begin + service)
    return out


class TestBatchRecurrences:
    @pytest.mark.parametrize("servers", [1, 2, 3, 7])
    def test_constant_service_matches_brute_force(self, servers):
        rng = np.random.default_rng(7)
        arrivals = np.sort(rng.uniform(0.0, 50.0, size=64))
        got = open_loop_departures(arrivals, 3.5, servers=servers)
        want = _brute_force_fifo(arrivals, 3.5, servers)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_constant_service_validation(self):
        with pytest.raises(ConfigurationError):
            open_loop_departures([2.0, 1.0], 1.0)
        with pytest.raises(ConfigurationError):
            open_loop_departures([1.0], -1.0)
        with pytest.raises(ConfigurationError):
            open_loop_departures([1.0], 1.0, servers=0)

    def test_single_lane_matches_vectorized_recurrence(self):
        stage = BatchStage("s", 1)
        pool = BatchPool("p", 4)
        lane = BatchLane(
            stages=((stage, 2.0),), pools=(pool,), fixed_ns=1.0, quota=50
        )
        flow = BatchFlow("f", [lane], size_bytes=64)
        timing = simulate_closed_loops([flow])["f"]
        # One lane, one server: issues chase completions, so arrivals are
        # the previous completion and the recurrence collapses to a ramp.
        assert timing.completed_ns.shape == (50,)
        np.testing.assert_allclose(np.diff(timing.completed_ns), 3.0)

    def test_pacing_gate_never_falls_behind(self):
        stage = BatchStage("s", 8)
        lanes = [
            BatchLane(stages=((stage, 1.0),), pools=(), fixed_ns=0.0, quota=10)
            for _ in range(4)
        ]
        flow = BatchFlow("f", lanes, size_bytes=64, interval_ns=5.0)
        timing = simulate_closed_loops([flow])["f"]
        issued = np.sort(timing.issued_ns)
        assert np.all(np.diff(issued) >= 5.0 - 1e-9)

    def test_warmup_skip_is_per_lane(self):
        stage = BatchStage("s", 2)
        lanes = [
            BatchLane(stages=((stage, 1.0),), pools=(), fixed_ns=0.0, quota=5)
            for _ in range(2)
        ]
        flow = BatchFlow("f", lanes, size_bytes=64, warmup_skip=2)
        timing = simulate_closed_loops([flow])["f"]
        assert int(timing.counted.sum()) == 2 * (5 - 2)

    @pytest.mark.xfail(strict=True, reason=(
        "the kernel is issue-ordered: flow a books the shared stage before "
        "it reaches it, so b queues behind it (b completes at 16, 29, 42 "
        "and 55 ns)"
    ))
    def test_shared_stage_serves_in_arrival_order(self):
        # Flow a reaches the shared stage after a 10 ns private stage; flow
        # b uses only the shared stage. Served in arrival order, as the
        # per-event DES serves it, b's four transactions run back to back
        # from t=0 and a's first one waits for b's fourth.
        private, shared = BatchStage("private", 1), BatchStage("shared", 1)
        a = BatchFlow("a", [
            BatchLane(((private, 10.0), (shared, 3.0)), (), 0.0, quota=4)
        ], size_bytes=64)
        b = BatchFlow("b", [
            BatchLane(((shared, 3.0),), (), 0.0, quota=4)
        ], size_bytes=64)
        timings = simulate_closed_loops([a, b])
        np.testing.assert_array_equal(
            timings["b"].completed_ns, [3.0, 6.0, 9.0, 12.0]
        )


# ------------------------------------------- closed-loop reference loop


def _reference_closed_loops(flows):
    """The per-transaction loop the flat-plan engine replaced, kept as the
    reference it must match bit for bit.

    Stages and pools used to carry this state themselves (``serve``,
    ``gate`` and ``commit``, inlined below): a heap per object that grows
    to ``servers`` / ``capacity`` entries before its earliest is popped.
    Here those heaps live in per-call dicts keyed by object identity.
    """
    if not flows:
        return {}
    busy_heaps = {}
    held_heaps = {}
    next_issue = [0.0] * len(flows)
    totals = [sum(lane.quota for lane in flow.lanes) for flow in flows]
    issued = [np.empty(total) for total in totals]
    completed = [np.empty(total) for total in totals]
    lane_index = [np.empty(total, dtype=np.int64) for total in totals]
    cursor = [0] * len(flows)
    quotas = [[lane.quota for lane in flow.lanes] for flow in flows]
    heap = [
        (0.0, flow_idx, lane_idx)
        for flow_idx, flow in enumerate(flows)
        for lane_idx in range(len(flow.lanes))
        if flow.lanes[lane_idx].quota > 0
    ]
    while heap:
        ready, flow_idx, lane_idx = heappop(heap)
        flow = flows[flow_idx]
        lane = flow.lanes[lane_idx]
        if flow.interval_ns is not None:
            slot = next_issue[flow_idx]
            if ready > slot:
                slot = ready
            next_issue[flow_idx] = slot + flow.interval_ns
            t = slot
        else:
            t = ready
        issue = t
        for pool in lane.pools:  # BatchPool.gate
            held = held_heaps.setdefault(id(pool), [])
            if len(held) >= pool.capacity:
                earliest = heappop(held)
                if earliest > t:
                    t = earliest
        for stage, service in lane.stages:  # BatchStage.serve
            busy = busy_heaps.setdefault(id(stage), [])
            if len(busy) >= stage.servers:
                earliest = heappop(busy)
                if earliest > t:
                    t = earliest
            t = t + service
            heappush(busy, t)
        t += lane.fixed_ns
        for pool in lane.pools:  # BatchPool.commit
            heappush(held_heaps[id(pool)], t)
        at = cursor[flow_idx]
        issued[flow_idx][at] = issue
        completed[flow_idx][at] = t
        lane_index[flow_idx][at] = lane_idx
        cursor[flow_idx] = at + 1
        remaining = quotas[flow_idx][lane_idx] - 1
        quotas[flow_idx][lane_idx] = remaining
        if remaining > 0:
            heappush(heap, (t, flow_idx, lane_idx))

    out = {}
    for flow_idx, flow in enumerate(flows):
        lanes = lane_index[flow_idx]
        counted = np.ones(totals[flow_idx], dtype=bool)
        if flow.warmup_skip > 0:
            seen = np.zeros(len(flow.lanes), dtype=np.int64)
            for position, lane_idx in enumerate(lanes):
                counted[position] = seen[lane_idx] >= flow.warmup_skip
                seen[lane_idx] += 1
        out[flow.name] = FlowTiming(
            flow.name, issued[flow_idx], completed[flow_idx], counted
        )
    return out


def _random_batch_flows(rng):
    """Random coupled closed loops drawn from ``rng`` (a ``random.Random``).

    1-4 flows of 0-6 lanes (quotas 0-12); stages with 1-4 servers shared
    across flows and repeated within lanes; 0-3 distinct pools per lane
    (capacity 1-6); optional pacing; warmup 0-3; zero and tied times.
    Descriptors are named by size alone, so equal-looking stages and pools
    are distinct objects, and some lanes reuse their neighbour's route.
    """

    def duration():
        return rng.choice([0.0, 0.5, 1.0, 2.0, rng.uniform(0.0, 4.0)])

    stages = [
        BatchStage(f"s{servers}", servers)
        for servers in (rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
    ]
    pools = [
        BatchPool(f"p{capacity}", capacity)
        for capacity in (rng.randint(1, 6) for _ in range(rng.randint(0, 4)))
    ]
    flows = []
    for index in range(rng.randint(1, 4)):
        lanes = []
        for _ in range(rng.randint(0, 6)):
            if lanes and rng.random() < 0.3:
                stage_plan = lanes[-1].stages
                pool_plan = lanes[-1].pools
                fixed_ns = lanes[-1].fixed_ns
            else:
                stage_plan = tuple(
                    (rng.choice(stages), duration())
                    for _ in range(rng.randint(0, 5))
                )
                pool_plan = tuple(
                    rng.sample(pools, rng.randint(0, min(3, len(pools))))
                )
                fixed_ns = duration()
            lanes.append(
                BatchLane(stage_plan, pool_plan, fixed_ns, rng.randint(0, 12))
            )
        flows.append(
            BatchFlow(
                f"f{index}",
                lanes,
                size_bytes=64,
                interval_ns=rng.choice([None, duration()]),
                warmup_skip=rng.randint(0, 3),
            )
        )
    return flows


def _assert_same_timings(got, want):
    assert list(got) == list(want)
    for name, timing in want.items():
        for field in ("issued_ns", "completed_ns", "counted"):
            a = getattr(got[name], field)
            b = getattr(timing, field)
            assert a.dtype == b.dtype, (name, field)
            assert a.tobytes() == b.tobytes(), (name, field)


class TestClosedLoopsAgainstReference:
    def test_random_configurations_are_bit_identical(self):
        rng = random.Random(7)
        for _ in range(600):
            flows = _random_batch_flows(rng)
            _assert_same_timings(
                simulate_closed_loops(flows), _reference_closed_loops(flows)
            )

    def test_contention_cell_flows_are_bit_identical(self, p9634, monkeypatch):
        calls = []

        def compare(flows):
            got = simulate_closed_loops(flows)
            _assert_same_timings(got, _reference_closed_loops(flows))
            calls.append(len(flows))
            return got

        monkeypatch.setattr(
            "repro.core.shardexec.simulate_closed_loops", compare
        )
        run_cell(p9634, engine="sharded", shards=4, transactions_per_core=60)
        assert sum(calls) == 12

    def test_second_call_on_same_flows_is_identical(self):
        stage = BatchStage("s", 1)
        pool = BatchPool("p", 2)
        lanes = [
            BatchLane(
                stages=((stage, 2.0),), pools=(pool,), fixed_ns=1.0, quota=5
            )
            for _ in range(3)
        ]
        flow = BatchFlow("f", lanes, size_bytes=64, interval_ns=1.5)
        first = simulate_closed_loops([flow])
        np.testing.assert_array_equal(
            first["f"].completed_ns[:3], [3.0, 5.0, 7.0]
        )
        _assert_same_timings(simulate_closed_loops([flow]), first)

    def test_lane_listing_a_pool_twice_is_rejected(self):
        pool = BatchPool("p", 2)
        lane = BatchLane(
            stages=((BatchStage("s", 1), 1.0),),
            pools=(pool, pool),
            fixed_ns=0.0,
            quota=1,
        )
        with pytest.raises(ConfigurationError, match="same pool twice"):
            simulate_closed_loops([BatchFlow("f", [lane], 64)])


# ------------------------------------------------------------ window loop


class TestShardedEnvironment:
    def test_validation(self):
        with pytest.raises(SimulationError):
            ShardedEnvironment(0, 1.0)
        with pytest.raises(SimulationError):
            ShardedEnvironment(2, 0.0)

    def test_cross_shard_message_delivered_at_barrier(self):
        sharded = ShardedEnvironment(2, lookahead_ns=10.0)
        a, b = sharded.shards
        got = []
        b.on_message(lambda message: got.append((b.now, message.payload)))
        Timeout(a, 5.0).callbacks.append(
            lambda _event: a.send(1, "hello")
        )
        Timeout(b, 100.0)  # keep shard 1's queue alive past delivery
        sharded.run()
        assert got == [(15.0, "hello")]
        assert sharded.cross_messages == 1
        assert sharded.windows >= 1

    def test_delay_below_lookahead_raises(self):
        sharded = ShardedEnvironment(2, lookahead_ns=10.0)
        with pytest.raises(SimulationError):
            sharded.send(0, 1, "x", delay_ns=9.0)
        with pytest.raises(SimulationError):
            sharded.send(0, 2, "x")

    def test_intra_shard_send_bypasses_barrier(self):
        sharded = ShardedEnvironment(2, lookahead_ns=10.0)
        a = sharded.shard(0)
        got = []
        a.on_message(lambda message: got.append(a.now))
        sharded.send(0, 0, "local", delay_ns=2.0)
        sharded.run()
        assert got == [2.0]
        assert sharded.cross_messages == 0

    def test_deterministic_boundary_merge(self):
        """Same-time deliveries merge by (deliver, src shard, seq)."""
        sharded = ShardedEnvironment(3, lookahead_ns=10.0)
        order = []
        target = sharded.shard(2)
        target.on_message(lambda message: order.append(message.payload))
        # Sent from shards 1 then 0, both arriving at t=10.
        sharded.send(1, 2, "from1")
        sharded.send(0, 2, "from0")
        Timeout(target, 50.0)
        sharded.run()
        assert order == ["from0", "from1"]

    def test_horizon_run_matches_serial_semantics(self):
        sharded = ShardedEnvironment(2, lookahead_ns=10.0)
        fired = []
        for shard_id, shard in enumerate(sharded.shards):
            for when in (3.0, 7.0, 12.0):
                Timeout(shard, when).callbacks.append(
                    lambda _e, s=shard_id, w=when: fired.append((s, w))
                )
        sharded.run(until=7.0)
        assert sorted(fired) == [(0, 3.0), (0, 7.0), (1, 3.0), (1, 7.0)]
        assert sharded.now == 7.0

    def test_single_shard_delegates_with_event_horizon(self):
        sharded = ShardedEnvironment(1, lookahead_ns=10.0)
        env = sharded.shard(0)
        timer = Timeout(env, 4.0)
        sharded.run(until=timer)
        assert env.now == 4.0
        with pytest.raises(SimulationError):
            ShardedEnvironment(2, lookahead_ns=1.0).run(
                until=Timeout(env, 1.0)
            )


# ---------------------------------------------------------- shard mapping


class TestCcdShardMap:
    def test_contiguous_balanced_blocks(self, p9634):
        mapping = ccd_shard_map(p9634, 4)
        assert sorted(mapping) == sorted(p9634.ccds)
        assert set(mapping.values()) == {0, 1, 2, 3}
        ordered = [mapping[ccd] for ccd in sorted(mapping)]
        assert ordered == sorted(ordered)  # contiguous blocks
        sizes = [ordered.count(s) for s in range(4)]
        assert max(sizes) - min(sizes) <= 1

    def test_validation(self, p7302):
        with pytest.raises(ConfigurationError):
            ccd_shard_map(p7302, 0)
        with pytest.raises(ConfigurationError):
            ccd_shard_map(p7302, len(p7302.ccds) + 1)


# ------------------------------------------------------------ cell runner


#: shards -> victim CCD -> (windows, events_processed, cross_messages,
#: accounting_bytes) of the ``sharded-closed`` benchmark cells at seed 0.
_SYNC_PINS = {
    2: {
        0: (1082, 2322, 1386, 1881600.0),
        4: (1103, 2322, 1386, 1881600.0),
        8: (1108, 2322, 1386, 1881600.0),
    },
    4: {
        1: (721, 3015, 2079, 2822400.0),
        5: (1007, 3015, 2079, 2822400.0),
        9: (889, 3015, 2079, 2822400.0),
    },
    6: {
        2: (381, 3246, 2310, 3136000.0),
        6: (468, 3246, 2310, 3136000.0),
        10: (468, 3246, 2310, 3136000.0),
    },
    12: {
        3: (295, 3477, 2541, 3449600.0),
        7: (295, 3477, 2541, 3449600.0),
        11: (295, 3477, 2541, 3449600.0),
    },
}


class TestRunCell:
    def test_unknown_engine_raises(self, p7302):
        with pytest.raises(ConfigurationError):
            run_cell(p7302, engine="quantum")

    def test_single_shard_is_fingerprint_identical(self, p7302):
        serial = run_cell(p7302, engine="serial", transactions_per_core=40)
        one = run_cell(
            p7302, engine="sharded", shards=1, transactions_per_core=40
        )
        assert one.engine == "sharded" and one.shards == 1
        assert one.fingerprint() == serial.fingerprint()

    def test_multi_shard_conserves_transactions(self, p7302):
        serial = run_cell(p7302, engine="serial", transactions_per_core=40)
        multi = run_cell(
            p7302, engine="sharded", shards=2, transactions_per_core=40
        )
        assert multi.transactions == serial.transactions
        assert multi.sync["shards"] == 2
        assert multi.sync["cross_messages"] > 0
        assert multi.sync["lookahead_ns"] == default_lookahead_ns(p7302)

    def test_large_cell_accounts_bytes_exactly(self, p9634):
        # Thirds of 64-byte chunks, summed in different orders on the two
        # sides: an absolute float tolerance tripped here.
        outcome = run_cell(
            p9634, engine="sharded", shards=12, transactions_per_core=2500
        )
        assert outcome.sync["accounting_bytes"] == 12320000.0

    @pytest.mark.parametrize("copies", [0, 2])
    def test_lost_or_duplicated_message_fails_the_cell(
        self, p9634, monkeypatch, copies
    ):
        send = ShardedEnvironment.send
        tampered = []

        def tamper(self, *args):
            # The first message is sent ``copies`` times, the rest once.
            for _ in range(1 if tampered else copies):
                send(self, *args)
            tampered.append(args)

        monkeypatch.setattr(ShardedEnvironment, "send", tamper)
        with pytest.raises(SimulationError, match="accounting leaked"):
            run_cell(
                p9634, engine="sharded", shards=12, transactions_per_core=2500
            )
        assert tampered

    @pytest.mark.parametrize("shards", sorted(_SYNC_PINS))
    def test_sync_of_the_benchmark_layouts_is_pinned(self, p9634, shards):
        """Every window count, event count, message count and byte total
        of the ``sharded-closed`` benchmark layouts (seed 0, 700 per core),
        as the heap-only window loops recorded them. A window loop that
        missed the engine's current-instant FIFO would lose events."""
        from benchmarks.e2e.workloads import contention_layout

        for victim, pinned in _SYNC_PINS[shards].items():
            outcome = run_cell(
                p9634, contention_layout(p9634, victim), engine="sharded",
                shards=shards, transactions_per_core=700, seed=0,
            )
            sync = outcome.sync
            assert (
                sync["windows"], sync["events_processed"],
                sync["cross_messages"], sync["accounting_bytes"],
            ) == pinned, (shards, victim)

    def test_contention_flows_cover_all_ccds(self, p9634):
        flows = contention_flows(p9634)
        assert len(flows) == len(p9634.ccds)
        assert flows[0].name == "victim"
        assert flows[0].demand_gbps is not None

    def test_jain_index(self):
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)
        assert jain_index([1.0, 0.0]) == pytest.approx(0.5)
        assert jain_index([0.0, 0.0]) == 1.0


# ------------------------------------------------------------- cache keys


class TestCellKeys:
    def test_keys_split_on_arguments_not_environment(
        self, p7302, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path)
        cells = [
            (p7302, "serial", 1),
            (p7302, "sharded", 1),
            (p7302, "sharded", 2),
            (p7302, "sharded", 4),
        ]

        def keys():
            return [
                cache.key_for(run_engine_cell, args, {"seed": 0})
                for args in cells
            ]

        monkeypatch.delenv("REPRO_DES_SHARDS", raising=False)
        monkeypatch.delenv("REPRO_NET_RECOVERY", raising=False)
        plain = keys()
        assert None not in plain
        assert len(set(plain)) == len(cells)
        # The retired process-global switches no longer reach any key.
        monkeypatch.setenv("REPRO_DES_SHARDS", "4")
        monkeypatch.setenv("REPRO_NET_RECOVERY", "1")
        assert keys() == plain


# ------------------------------------------------- open-loop recurrences


def _brute_force_open_loop(arrivals, service_of_lane, servers):
    """Per-event reference for the lane-bound open-loop pool (request
    ``i`` serves on lane ``i % servers``, matching the DES core binding)."""
    free = [0.0] * servers
    out = []
    for i, arrival in enumerate(arrivals):
        lane = i % servers
        begin = max(arrival, free[lane])
        free[lane] = begin + service_of_lane[lane]
        out.append(free[lane])
    return out


class TestOpenLoopDepartures:
    @pytest.mark.parametrize("servers", [1, 2, 3, 5])
    def test_scalar_service_matches_brute_force(self, servers):
        rng = np.random.default_rng(11)
        # 3 and 1 arrivals: fewer requests than servers, and a single one.
        for size in (64, 3, 1):
            arrivals = np.sort(rng.uniform(0.0, 80.0, size=size))
            got = open_loop_departures(arrivals, 3.5, servers=servers)
            want = _brute_force_open_loop(arrivals, [3.5] * servers, servers)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_per_server_service_matches_brute_force(self):
        rng = np.random.default_rng(12)
        service = np.array([2.0, 5.0, 3.0])
        for size in (64, 2, 1):
            arrivals = np.sort(rng.uniform(0.0, 80.0, size=size))
            got = open_loop_departures(arrivals, service, servers=3)
            want = _brute_force_open_loop(arrivals, service, 3)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_per_job_service_matches_serial_queue(self):
        rng = np.random.default_rng(13)
        arrivals = np.sort(rng.uniform(0.0, 40.0, size=50))
        service = rng.uniform(0.5, 4.0, size=50)
        got = open_loop_departures(arrivals, service, servers=1)
        free, want = 0.0, []
        for arrival, s in zip(arrivals, service):
            free = max(arrival, free) + s
            want.append(free)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_scalar_path_is_first_free_server_fifo(self):
        # Lane-bound service (request i on server i % servers) with one
        # service time serves each request on the first free server.
        arrivals = np.array([0.0, 1.0, 1.5, 9.0])
        np.testing.assert_array_equal(
            open_loop_departures(arrivals, 2.0, servers=2),
            _brute_force_fifo(arrivals, 2.0, 2),
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            open_loop_departures([2.0, 1.0], 1.0)
        with pytest.raises(ConfigurationError):
            open_loop_departures([1.0, 2.0], -1.0)
        with pytest.raises(ConfigurationError):
            open_loop_departures([1.0, 2.0], 1.0, servers=0)
        with pytest.raises(ConfigurationError):
            # Service vector matching neither the pool nor the jobs.
            open_loop_departures([1.0, 2.0], np.ones(3), servers=2)
