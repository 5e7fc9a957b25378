"""Property-based tests (hypothesis) on the sharded engine.

The safety property of null-message PDES, checked mechanically: *no
cross-shard delivery ever lands before its send time plus the lookahead,
and never in a receiver's past*. The engine raises
:class:`~repro.errors.SimulationError` on any violation (the
``_deliver`` guard), so the property is "random workloads never trip the
guard, and every observed delivery respects the bound". The shards'
batched closed-loop engine must match its reference loop bit for bit on
random coupled configurations.

Runs in the conformance tier alongside the agreement sweeps (hypothesis
is a conformance-job install, not a tier-1 dependency).
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.errors import SimulationError  # noqa: E402
from repro.sim.batch import simulate_closed_loops  # noqa: E402
from repro.sim.engine import Timeout  # noqa: E402
from repro.sim.sharded import ShardedEnvironment  # noqa: E402
from tests.test_sim_sharded import (  # noqa: E402
    _assert_same_timings,
    _random_batch_flows,
    _reference_closed_loops,
)

pytestmark = pytest.mark.conformance


sends = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),  # when
        st.integers(min_value=0, max_value=3),                       # src
        st.integers(min_value=0, max_value=3),                       # dst
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),   # extra
    ),
    min_size=1,
    max_size=40,
)


@given(batch=sends, lookahead=st.floats(min_value=0.5, max_value=20.0))
@settings(max_examples=200, deadline=None)
def test_deliveries_respect_lookahead_bound(batch, lookahead):
    """Scheduled sends at random times never violate the lookahead bound."""
    sharded = ShardedEnvironment(4, lookahead_ns=lookahead)
    deliveries = []

    for shard_id, shard in enumerate(sharded.shards):
        shard.on_message(
            lambda message, shard=shard: deliveries.append(
                (shard._now, message)
            )
        )

    for when, src, dst, extra in batch:
        src_env = sharded.shard(src)

        def fire(_event, src=src, dst=dst, extra=extra):
            sharded.send(src, dst, "payload", delay_ns=lookahead + extra)

        Timeout(src_env, when).callbacks.append(fire)

    # The run itself asserts safety: the _deliver guard raises if any
    # message lands in a receiver's past.
    sharded.run()

    assert len(deliveries) == len(batch)
    for clock_ns, message in deliveries:
        assert message.deliver_ns >= message.send_ns + lookahead - 1e-9
        assert clock_ns <= message.deliver_ns + 1e-9


@given(
    shortfall=st.floats(min_value=1e-3, max_value=0.99, allow_nan=False),
    lookahead=st.floats(min_value=0.5, max_value=20.0),
)
@settings(max_examples=50, deadline=None)
def test_undercutting_lookahead_always_raises(shortfall, lookahead):
    sharded = ShardedEnvironment(2, lookahead_ns=lookahead)
    with pytest.raises(SimulationError):
        sharded.send(0, 1, "x", delay_ns=lookahead * (1.0 - shortfall))


@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
        min_size=1,
        max_size=30,
    ),
    lookahead=st.floats(min_value=0.5, max_value=20.0),
)
@settings(max_examples=100, deadline=None)
def test_window_bounds_strictly_increase(times, lookahead):
    """The coordinator always makes progress: windows grow, events drain."""
    sharded = ShardedEnvironment(2, lookahead_ns=lookahead)
    for index, when in enumerate(times):
        Timeout(sharded.shard(index % 2), when)
    sharded.run()
    assert sharded.events_processed == len(times)
    assert all(not shard._queue for shard in sharded.shards)


@given(rng=st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_closed_loops_match_the_reference_loop(rng):
    """Flat plans reproduce the stateful per-transaction loop exactly."""
    flows = _random_batch_flows(rng)
    _assert_same_timings(
        simulate_closed_loops(flows), _reference_closed_loops(flows)
    )
