"""Tests for the discrete-event simulation engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import (
    AllOf,
    AnyOf,
    Environment,
    Resource,
    Store,
    Timeout,
)


class TestEvent:
    def test_untriggered(self):
        env = Environment()
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_succeed_sets_value(self):
        env = Environment()
        event = env.event()
        event.succeed(42)
        assert event.triggered
        assert event.value == 42

    def test_double_succeed_rejected(self):
        env = Environment()
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_value_before_trigger_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            __ = env.event().value


class TestTimeout:
    def test_advances_clock(self):
        env = Environment()
        done = env.timeout(25.0)
        env.run(done)
        assert env.now == 25.0

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            Timeout(env, -1.0)

    def test_zero_delay_allowed(self):
        env = Environment()
        env.run(env.timeout(0.0))
        assert env.now == 0.0

    def test_carries_value(self):
        env = Environment()
        assert env.run(env.timeout(1.0, value="payload")) == "payload"


class TestProcess:
    def test_returns_value(self):
        env = Environment()

        def proc():
            yield env.timeout(10.0)
            return "done"

        assert env.run(env.process(proc())) == "done"
        assert env.now == 10.0

    def test_sequential_timeouts_accumulate(self):
        env = Environment()

        def proc():
            yield env.timeout(3.0)
            yield env.timeout(4.0)

        env.run(env.process(proc()))
        assert env.now == pytest.approx(7.0)

    def test_receives_event_value(self):
        env = Environment()
        received = []

        def proc():
            value = yield env.timeout(1.0, value=99)
            received.append(value)

        env.run(env.process(proc()))
        assert received == [99]

    def test_nested_process(self):
        env = Environment()

        def inner():
            yield env.timeout(5.0)
            return "inner-result"

        def outer():
            result = yield env.process(inner())
            return result + "!"

        assert env.run(env.process(outer())) == "inner-result!"

    def test_failed_event_raises_inside_process(self):
        env = Environment()
        caught = []

        def proc():
            event = env.event()
            event.fail(ValueError("injected"))
            try:
                yield event
            except ValueError as exc:
                caught.append(str(exc))

        env.run(env.process(proc()))
        assert caught == ["injected"]

    def test_yield_non_event_raises(self):
        env = Environment()

        def proc():
            yield 42

        with pytest.raises(SimulationError):
            env.run(env.process(proc()))

    def test_requires_generator(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_waiting_on_already_processed_event(self):
        env = Environment()
        first = env.timeout(1.0, value="early")

        def proc():
            yield env.timeout(5.0)
            value = yield first  # already fired at t=1
            return value

        assert env.run(env.process(proc())) == "early"
        assert env.now == 5.0


class TestEnvironment:
    def test_run_until_time(self):
        env = Environment()
        fired = []

        def proc():
            yield env.timeout(10.0)
            fired.append(env.now)
            yield env.timeout(10.0)
            fired.append(env.now)

        env.process(proc())
        env.run(until=15.0)
        assert fired == [10.0]
        assert env.now == 15.0

    def test_run_until_past_raises(self):
        env = Environment()
        env.run(env.timeout(10.0))
        with pytest.raises(SimulationError):
            env.run(until=5.0)

    def test_run_drains_queue(self):
        env = Environment()
        env.timeout(3.0)
        env.timeout(7.0)
        env.run()
        assert env.now == 7.0

    def test_step_empty_queue_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.step()

    def test_run_until_unreachable_event_raises(self):
        env = Environment()
        never = env.event()
        env.timeout(1.0)
        with pytest.raises(SimulationError):
            env.run(never)

    def test_same_time_events_fire_in_schedule_order(self):
        env = Environment()
        order = []

        def proc(tag):
            yield env.timeout(5.0)
            order.append(tag)

        for tag in ("a", "b", "c"):
            env.process(proc(tag))
        env.run()
        assert order == ["a", "b", "c"]

    def test_failed_awaited_event_propagates(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)
            raise RuntimeError("process blew up")

        with pytest.raises(RuntimeError):
            env.run(env.process(proc()))


class TestCombinators:
    def test_all_of_waits_for_slowest(self):
        env = Environment()
        done = AllOf(env, [env.timeout(3.0, "x"), env.timeout(9.0, "y")])
        values = env.run(done)
        assert env.now == 9.0
        assert values == ["x", "y"]

    def test_all_of_empty(self):
        env = Environment()
        done = AllOf(env, [])
        assert env.run(done) == []

    def test_any_of_fires_on_fastest(self):
        env = Environment()
        done = AnyOf(env, [env.timeout(3.0, "fast"), env.timeout(9.0, "slow")])
        assert env.run(done) == "fast"
        assert env.now == 3.0

    def test_env_helpers(self):
        env = Environment()
        assert isinstance(env.all_of([env.timeout(1)]), AllOf)
        assert isinstance(env.any_of([env.timeout(1)]), AnyOf)


def _failed_and_processed(env, message="boom"):
    """An event that already failed and whose callbacks already ran."""
    bad = env.event()
    bad.fail(RuntimeError(message))
    env.run()
    assert bad.processed
    return bad


class TestCombinatorsOverFailedChildren:
    def test_all_of_fails_with_processed_failure(self):
        env = Environment()
        bad = _failed_and_processed(env)
        done = env.all_of([bad])
        env.run()
        assert done.processed and not done.ok
        assert done.value is bad.value
        with pytest.raises(RuntimeError, match="boom"):
            env.run(done)

    def test_all_of_takes_first_failed_child_in_list_order(self):
        env = Environment()
        good = env.event().succeed("fine")
        first = env.event().fail(RuntimeError("first"))
        second = env.event().fail(RuntimeError("second"))
        env.run()
        done = env.all_of([good, first, second])
        env.run()
        assert not done.ok
        assert done.value is first.value

    def test_all_of_fails_now_despite_pending_children(self):
        env = Environment()
        bad = _failed_and_processed(env)
        pending = env.event()
        done = env.all_of([pending, bad])
        env.run()
        assert done.processed and not done.ok
        assert done.value is bad.value
        pending.succeed("late")
        env.run()
        assert not done.ok and done.value is bad.value

    def test_any_of_fails_with_processed_failure(self):
        env = Environment()
        bad = _failed_and_processed(env)
        done = env.any_of([bad])
        env.run()
        assert done.processed and not done.ok
        assert done.value is bad.value

    def test_any_of_takes_first_processed_child(self):
        env = Environment()
        good = env.event().succeed("fine")
        bad = env.event().fail(RuntimeError("boom"))
        env.run()
        assert env.run(env.any_of([good, bad])) == "fine"
        failed = env.any_of([bad, good])
        with pytest.raises(RuntimeError, match="boom"):
            env.run(failed)
        assert failed.value is bad.value

    @pytest.mark.parametrize("combine", ["all_of", "any_of"])
    def test_exception_thrown_into_waiting_process(self, combine):
        env = Environment()
        bad = _failed_and_processed(env)

        def waiter():
            try:
                yield getattr(env, combine)([bad])
            except RuntimeError as exc:
                return f"caught {exc}"
            return "not thrown"

        assert env.run(env.process(waiter())) == "caught boom"


class TestInlineScheduling:
    """Requests and process bootstraps are scheduled inline; the sequence
    numbers they draw must interleave exactly as ``succeed()`` would."""

    def test_same_time_fire_order_is_creation_order(self):
        env = Environment()
        res = Resource(env, capacity=1)
        fired = []

        def proc():
            fired.append("process")
            yield env.timeout(0.0)

        plain = env.event()
        plain.callbacks.append(lambda event: fired.append("first"))
        plain.succeed()
        granted = res.request()
        granted.callbacks.append(lambda event: fired.append("request"))
        env.process(proc())
        late = env.event()
        late.callbacks.append(lambda event: fired.append("last"))
        late.succeed()
        env.run()
        assert fired == ["first", "request", "process", "last"]

    def test_each_draws_one_step_of_the_progression(self):
        for strict in (False, True):
            env = Environment(seq_offset=1, seq_step=3, strict=strict)
            res = Resource(env, capacity=1)

            def proc():
                yield env.timeout(0.0)

            granted = res.request()
            assert env._sequence == 4
            res.request()  # queued: draws nothing until granted
            assert env._sequence == 4
            env.process(proc())
            assert env._sequence == 7
            # Both are due now: the strict heap holds them at (now, seq);
            # the default FIFO holds them in the same order.
            if strict:
                assert [seq for __, seq, __ in sorted(env._queue)] == [4, 7]
                pending = [event for __, __, event in sorted(env._queue)]
            else:
                assert env._queue == []
                pending = list(env._fifo)
            assert pending[0] is granted
            assert isinstance(pending[1], Timeout) and len(pending) == 2


def _both_loops(scenario):
    """Run ``scenario(strict)`` on the heap-only strict loop and on the
    default loop (heap plus current-instant FIFO); both must agree."""
    reference = scenario(True)
    assert scenario(False) == reference
    return reference


class TestCurrentInstantOrder:
    """The FIFO of events due at ``now`` keeps the heap-only ``(time, seq)``
    order (see the ordering contract in ``repro.sim.engine``)."""

    def test_zero_delay_event_fires_after_those_due_now(self):
        def scenario(strict):
            env = Environment(strict=strict)
            log = []

            def note(name):
                return lambda event: log.append((name, env.now))

            def first(event):
                log.append(("a", env.now))
                Timeout(env, 0.0).callbacks.append(note("zero"))
                env.event().succeed().callbacks.append(note("succeeded"))

            env.timeout(1.0).callbacks.append(first)
            env.timeout(1.0).callbacks.append(note("b"))
            env.timeout(2.0).callbacks.append(note("later"))
            env.timeout(1.0).callbacks.append(note("c"))
            env.run()
            return log

        assert _both_loops(scenario) == [
            ("a", 1.0), ("b", 1.0), ("c", 1.0), ("zero", 1.0),
            ("succeeded", 1.0), ("later", 2.0),
        ]

    def test_a_delay_that_rounds_to_now_keeps_its_place(self):
        # At 2**53 the float spacing is 2.0: now + 0.5 == now, so the
        # half-nanosecond timeout is due now and fires in scheduling order
        # between the two zero-delay ones.
        def scenario(strict):
            env = Environment(initial_time=2.0**53, strict=strict)
            log = []

            def kick(event):
                for name, delay in (("zero", 0.0), ("half", 0.5), ("again", 0.0)):
                    Timeout(env, delay).callbacks.append(
                        lambda event, name=name: log.append((name, env.now))
                    )

            env.timeout(2.0).callbacks.append(kick)
            env.run()
            return log

        now = 2.0**53 + 2.0
        assert now + 0.5 == now
        assert _both_loops(scenario) == [
            ("zero", now), ("half", now), ("again", now),
        ]

    def test_run_until_a_horizon_drains_the_instant_first(self):
        def scenario(strict):
            env = Environment(strict=strict)
            log = []

            def at_three(event):
                log.append(("three", env.now))
                Timeout(env, 0.0).callbacks.append(
                    lambda event: log.append(("zero", env.now))
                )

            Timeout(env, 0.0).callbacks.append(
                lambda event: log.append(("start", env.now))
            )
            env.timeout(3.0).callbacks.append(at_three)
            env.timeout(4.0).callbacks.append(
                lambda event: log.append(("four", env.now))
            )
            env.run(until=3.0)
            log.append(("stopped", env.now))
            env.run(until=10.0)
            log.append(("stopped", env.now))
            return log

        assert _both_loops(scenario) == [
            ("start", 0.0), ("three", 3.0), ("zero", 3.0), ("stopped", 3.0),
            ("four", 4.0), ("stopped", 10.0),
        ]

    def test_run_until_an_event_leaves_the_instant_pending(self):
        def scenario(strict):
            env = Environment(strict=strict)
            log = []

            def awaited(event):
                log.append(("awaited", env.now))
                Timeout(env, 0.0).callbacks.append(
                    lambda event: log.append(("zero", env.now))
                )

            stop = env.timeout(1.0)
            stop.callbacks.append(awaited)
            env.timeout(1.0).callbacks.append(
                lambda event: log.append(("sibling", env.now))
            )
            env.run(until=stop)
            stopped = (list(log), env.now)
            env.run()
            return stopped, log, env.now

        assert _both_loops(scenario) == (
            ([("awaited", 1.0)], 1.0),
            [("awaited", 1.0), ("sibling", 1.0), ("zero", 1.0)],
            1.0,
        )

    @given(
        start=st.sampled_from([0.0, 2.0**53]),
        nodes=st.lists(
            st.tuples(
                st.integers(min_value=-1, max_value=30),
                st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0, 3.5]),
                st.sampled_from(["timeout", "succeed", "process"]),
            ),
            min_size=1,
            max_size=30,
        ),
        horizon=st.one_of(st.none(), st.sampled_from([0.0, 1.0, 2.5, 4.0])),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_programs_fire_in_the_same_order(self, start, nodes, horizon):
        """Node ``i`` is scheduled, with its delay, when its parent fires
        (parents -1 and ``>= i`` mean: at the start)."""

        def scenario(strict):
            env = Environment(initial_time=start, strict=strict)
            log = []
            children = {}
            for index, (parent, __, __) in enumerate(nodes):
                root = parent if 0 <= parent < index else -1
                children.setdefault(root, []).append(index)

            def fire(index):
                log.append((index, env.now))
                for child in children.get(index, ()):
                    schedule(child)

            def schedule(index):
                __, delay, kind = nodes[index]
                if kind == "timeout":
                    Timeout(env, delay).callbacks.append(
                        lambda event: fire(index)
                    )
                elif kind == "succeed":
                    env.event().succeed().callbacks.append(
                        lambda event: fire(index)
                    )
                else:
                    def body():
                        yield env.timeout(delay)
                        fire(index)

                    env.process(body())

            for index in children.get(-1, ()):
                schedule(index)
            if horizon is not None:
                env.run(until=start + horizon)
                log.append(("horizon", env.now))
            env.run()
            return log, env.now

        _both_loops(scenario)


class TestResource:
    def test_capacity_validation(self):
        env = Environment()
        with pytest.raises(SimulationError):
            Resource(env, capacity=0)

    def test_grants_up_to_capacity(self):
        env = Environment()
        res = Resource(env, capacity=2)
        first = res.request()
        second = res.request()
        third = res.request()
        assert first.triggered and second.triggered
        assert not third.triggered
        assert res.count == 2
        assert res.queue_length == 1

    def test_release_grants_fifo(self):
        env = Environment()
        res = Resource(env, capacity=1)
        held = res.request()
        waiter_a = res.request()
        waiter_b = res.request()
        res.release(held)
        assert waiter_a.triggered
        assert not waiter_b.triggered

    def test_release_foreign_request_rejected(self):
        env = Environment()
        res_a = Resource(env)
        res_b = Resource(env)
        req = res_a.request()
        with pytest.raises(SimulationError):
            res_b.release(req)

    def test_over_release_rejected(self):
        env = Environment()
        res = Resource(env)
        req = res.request()
        res.release(req)
        with pytest.raises(SimulationError):
            res.release(req)

    def test_mutual_exclusion_in_processes(self):
        env = Environment()
        res = Resource(env, capacity=1)
        active = []
        overlaps = []

        def worker():
            with res.request() as grant:
                yield grant
                active.append(1)
                overlaps.append(len(active))
                yield env.timeout(5.0)
                active.pop()

        for __ in range(4):
            env.process(worker())
        env.run()
        assert max(overlaps) == 1
        assert env.now == pytest.approx(20.0)

    def test_parallel_capacity_two(self):
        env = Environment()
        res = Resource(env, capacity=2)

        def worker():
            with res.request() as grant:
                yield grant
                yield env.timeout(5.0)

        for __ in range(4):
            env.process(worker())
        env.run()
        assert env.now == pytest.approx(10.0)


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)
        store.put("item")
        got = store.get()
        assert got.triggered
        assert got.value == "item"

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)
        received = []

        def consumer():
            item = yield store.get()
            received.append((env.now, item))

        def producer():
            yield env.timeout(7.0)
            store.put("late")

        env.process(consumer())
        env.process(producer())
        env.run()
        assert received == [(7.0, "late")]

    def test_fifo_order(self):
        env = Environment()
        store = Store(env)
        for i in range(3):
            store.put(i)
        assert [store.get().value for __ in range(3)] == [0, 1, 2]

    def test_len(self):
        env = Environment()
        store = Store(env)
        assert len(store) == 0
        store.put("x")
        assert len(store) == 1
