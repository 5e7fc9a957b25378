"""Unit tests for :mod:`repro.net.recovery` — detect, reclaim, reroute.

The chaos recovery sweep (``tests/test_chaos_determinism.py``, the
conformance tier) exercises the closed loop end to end; these tests pin
the pieces: the health state machine's transition rules, the reclaimable
pool's conservation accounting, the failover router's residual-capacity
choice, and the install contract (disabled installs the plain credit
stack).
"""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.faults.inject import install as install_faults
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.net.inject import NetInstallation
from repro.net.recovery import (
    FailoverRouter,
    HealthMonitor,
    LinkHealth,
    ReclaimableTokenPool,
    RecoveryConfig,
    RecoveryInstallation,
    install,
)
from repro.net.stack import NetStackConfig
from repro.sim.engine import Environment
from repro.sim.sharded import ShardedEnvironment
from repro.transport.message import OpKind
from repro.transport.path import PathResolver
from repro.transport.transaction import TransactionExecutor


class TestRecoveryConfig:
    def test_off_is_disabled_default(self):
        config = RecoveryConfig.off()
        assert not config.enabled

    def test_on_enables_with_overrides(self):
        config = RecoveryConfig.on(dead_after=5)
        assert config.enabled
        assert config.dead_after == 5

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(probe_interval_ns=0.0),
            dict(dead_threshold=0.9, degraded_threshold=0.5),
            dict(dead_threshold=0.0),
            dict(dead_after=0),
            dict(revive_after=0),
            dict(max_retries=-1),
            dict(retry_timeout_ns=0.0),
            dict(service_timeout_ns=0.0),
            dict(backoff_base_ns=0.0),
            dict(backoff_base_ns=100.0, backoff_cap_ns=50.0),
            dict(jitter_fraction=1.0),
            dict(probe_size_bytes=1),
            dict(probe_latency_factor=1.0),
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ConfigurationError):
            RecoveryConfig.on(**overrides)


class TestHealthMonitor:
    def _monitor(self, **overrides):
        return HealthMonitor(RecoveryConfig.on(**overrides))

    def test_unknown_endpoint_is_healthy(self):
        monitor = self._monitor()
        assert monitor.state("umc0") is LinkHealth.HEALTHY
        assert not monitor.is_dead("umc0")
        assert monitor.detect_ns("umc0") is None

    def test_consecutive_collapses_declare_dead(self):
        monitor = self._monitor(dead_after=3)
        for step in range(3):
            monitor.observe_window("umc0", 200.0 * (step + 1), 0.02, queued=True)
        assert monitor.is_dead("umc0")
        assert monitor.detect_ns("umc0") == pytest.approx(600.0)
        assert monitor.dead_endpoints() == ["umc0"]

    def test_idle_windows_never_strike(self):
        monitor = self._monitor(dead_after=1)
        for step in range(5):
            monitor.observe_window("umc0", float(step), 0.0, queued=False)
        assert monitor.state("umc0") is LinkHealth.HEALTHY

    def test_healthy_window_resets_the_strike_count(self):
        monitor = self._monitor(dead_after=3)
        monitor.observe_window("umc0", 200.0, 0.02, queued=True)
        monitor.observe_window("umc0", 400.0, 0.02, queued=True)
        monitor.observe_window("umc0", 600.0, 0.95, queued=True)
        monitor.observe_window("umc0", 800.0, 0.02, queued=True)
        assert not monitor.is_dead("umc0")

    def test_intermediate_ratio_is_degraded(self):
        monitor = self._monitor()
        state = monitor.observe_window("umc0", 200.0, 0.5, queued=True)
        assert state is LinkHealth.DEGRADED

    def test_window_telemetry_never_revives_dead(self):
        monitor = self._monitor(dead_after=1)
        monitor.observe_window("umc0", 200.0, 0.0, queued=True)
        assert monitor.is_dead("umc0")
        monitor.observe_window("umc0", 400.0, 1.0, queued=True)
        assert monitor.is_dead("umc0")

    def test_probes_revive_after_streak(self):
        monitor = self._monitor(dead_after=1, revive_after=3)
        monitor.credit_timeout("umc0", 100.0)
        assert monitor.is_dead("umc0")
        monitor.observe_probe("umc0", 300.0, healthy=True)
        monitor.observe_probe("umc0", 500.0, healthy=False)  # streak resets
        monitor.observe_probe("umc0", 700.0, healthy=True)
        monitor.observe_probe("umc0", 900.0, healthy=True)
        assert monitor.is_dead("umc0")
        monitor.observe_probe("umc0", 1100.0, healthy=True)
        assert monitor.state("umc0") is LinkHealth.HEALTHY

    def test_credit_timeouts_strike(self):
        monitor = self._monitor(dead_after=2)
        monitor.credit_timeout("umc0", 100.0)
        assert not monitor.is_dead("umc0")
        monitor.credit_timeout("umc0", 200.0)
        assert monitor.is_dead("umc0")

    def test_capacity_mask_covers_dead_directions(self):
        monitor = self._monitor(dead_after=1)
        monitor.credit_timeout("umc1", 100.0)
        mask = monitor.capacity_mask()
        assert set(mask) == {"umc1:r", "umc1:w"}
        assert all(0.0 < factor < 0.01 for factor in mask.values())
        assert monitor.capacity_mask(directions=("r",)) == {
            "umc1:r": mask["umc1:r"]
        }

    def test_transitions_are_recorded_once_per_change(self):
        monitor = self._monitor(dead_after=1)
        monitor.credit_timeout("umc0", 100.0)
        monitor.credit_timeout("umc0", 200.0)
        dead = [
            t for t in monitor.transitions if t.state is LinkHealth.DEAD
        ]
        assert len(dead) == 1 and dead[0].t_ns == pytest.approx(100.0)


class TestReclaimableTokenPool:
    def _invariant(self, pool):
        assert pool.available == (
            pool.capacity - pool.leases + pool.forgiven_pending
        )

    def test_plain_acquire_release_keeps_the_invariant(self):
        env = Environment()
        pool = ReclaimableTokenPool(env, 2)

        def flow():
            yield pool.acquire()
            self._invariant(pool)
            assert pool.leases == 1
            yield env.timeout(5.0)
            pool.release()
            self._invariant(pool)
            assert pool.leases == 0

        env.process(flow())
        env.run()
        assert pool.available == pool.capacity
        assert pool.reclaimed_total == 0

    def test_reclaim_sends_stranded_credits_home(self):
        env = Environment()
        pool = ReclaimableTokenPool(env, 2)

        def strand():
            yield pool.acquire()
            yield pool.acquire()
            yield env.timeout(100.0)
            pool.release()  # late return: forgiven, not double-counted
            pool.release()

        def reclaim():
            yield env.timeout(10.0)
            assert pool.reclaim_all() == 2
            assert pool.available == pool.capacity
            assert pool.forgiven_pending == 2
            self._invariant(pool)

        env.process(strand())
        env.process(reclaim())
        env.run()
        assert pool.available == pool.capacity
        assert pool.leases == 0
        assert pool.forgiven_pending == 0
        assert pool.forgiven_total == 2

    def test_reclaim_grants_fifo_waiters_first(self):
        env = Environment()
        pool = ReclaimableTokenPool(env, 1)
        granted = []

        def holder():
            yield pool.acquire()
            yield env.timeout(1000.0)
            pool.release()

        def waiter(name):
            yield pool.acquire()
            granted.append((name, env.now))
            pool.release()

        def reclaimer():
            yield env.timeout(10.0)
            pool.reclaim_all()

        env.process(holder())
        env.process(waiter("a"))
        env.process(waiter("b"))
        env.process(reclaimer())
        env.run()
        # Reclamation granted the first waiter at t=10. Its release is
        # consumed as the forgiveness for the reclaimed credit (no new
        # credit is minted), so the second waiter correctly rides the
        # holder's real return at t=1000 — conservation, not double-spend.
        assert granted == [("a", 10.0), ("b", 1000.0)]
        assert pool.available == pool.capacity
        assert pool.forgiven_pending == 0

    def test_cancel_withdraws_a_waiting_acquire(self):
        env = Environment()
        pool = ReclaimableTokenPool(env, 1)

        def holder():
            yield pool.acquire()
            yield env.timeout(100.0)
            pool.release()

        outcome = {}

        def impatient():
            grant = pool.acquire()
            assert not grant.triggered
            yield env.timeout(5.0)
            outcome["cancelled"] = pool.cancel(grant)

        env.process(holder())
        env.process(impatient())
        env.run()
        assert outcome["cancelled"] is True
        assert pool.queue_length == 0
        assert pool.available == pool.capacity

    def test_cancel_returns_false_once_granted(self):
        env = Environment()
        pool = ReclaimableTokenPool(env, 1)
        outcome = {}

        def flow():
            grant = pool.acquire()
            yield grant
            outcome["cancelled"] = pool.cancel(grant)
            pool.release()

        env.process(flow())
        env.run()
        assert outcome["cancelled"] is False
        assert pool.available == pool.capacity


class TestFailoverRouter:
    def _router(self, platform, dead=()):
        monitor = HealthMonitor(RecoveryConfig.on(dead_after=1))
        for endpoint in dead:
            monitor.credit_timeout(endpoint, 100.0)
        return FailoverRouter(platform, monitor), monitor

    def test_reroute_prefers_most_residual_capacity(self, p7302):
        router, __ = self._router(p7302, dead=("umc0",))
        for umc in (0, 1, 2):
            router.register(
                0, f"umc{umc}", primary=(umc == 0), slice_gbps=6.0
            )
        # umc1 carries someone else's load; umc2 is idle and wins.
        router.register(1, "umc1", primary=True, slice_gbps=10.0)
        rerouted = router.reroute(0)
        assert rerouted is not None and rerouted[0] == "umc2"
        assert router.home(0) == "umc2"

    def test_successive_reroutes_spread_by_load_book(self, p7302):
        router, __ = self._router(p7302, dead=("umc0",))
        for worker in (0, 1):
            for umc in (0, 1, 2):
                router.register(
                    worker, f"umc{umc}", primary=(umc == 0), slice_gbps=6.0
                )
        first = router.reroute(0)
        second = router.reroute(1)
        assert first is not None and second is not None
        # The first failover loads its target, so the second picks the
        # other candidate instead of piling on.
        assert {first[0], second[0]} == {"umc1", "umc2"}

    def test_dead_candidates_are_excluded(self, p7302):
        router, monitor = self._router(p7302, dead=("umc0", "umc2"))
        for umc in (0, 1, 2):
            router.register(0, f"umc{umc}", primary=(umc == 0))
        rerouted = router.reroute(0)
        assert rerouted is not None and rerouted[0] == "umc1"

    def test_no_healthy_candidate_returns_none(self, p7302):
        router, __ = self._router(p7302, dead=("umc0", "umc1"))
        router.register(0, "umc0", primary=True)
        router.register(0, "umc1")
        assert router.reroute(0) is None

    def test_unregistered_worker_returns_none(self, p7302):
        router, __ = self._router(p7302)
        assert router.reroute(7) is None


class TestInstallContract:
    def test_disabled_is_the_plain_stack(self, p7302):
        env = Environment()
        resolver = PathResolver(env, p7302)
        installation = install(
            resolver,
            NetStackConfig.with_credits(),
            RecoveryConfig.off(),
            flows=["victim"],
            endpoints=["umc0"],
        )
        assert type(installation) is NetInstallation

    def test_enabled_requires_credits_and_flows(self, p7302):
        env = Environment()
        resolver = PathResolver(env, p7302)
        with pytest.raises(ConfigurationError):
            install(resolver, NetStackConfig(), RecoveryConfig.on(), flows=["v"])
        with pytest.raises(ConfigurationError):
            install(
                resolver, NetStackConfig.with_credits(), RecoveryConfig.on()
            )

    def test_enabled_builds_the_recovery_installation(self, p7302):
        env = Environment()
        resolver = PathResolver(env, p7302)
        installation = install(
            resolver,
            NetStackConfig.with_credits(),
            RecoveryConfig.on(),
            flows=["victim"],
            endpoints=["umc0", "umc1"],
        )
        assert isinstance(installation, RecoveryInstallation)
        assert installation.scheduler.pool("umc0", "victim").capacity > 0


class TestRecoveryGateFailover:
    def test_dead_home_fails_over_before_issuing(self, p7302):
        env = Environment()
        resolver = PathResolver(env, p7302)
        installation = install(
            resolver,
            NetStackConfig.with_credits(),
            RecoveryConfig.on(dead_after=1),
            flows=["victim"],
            endpoints=["umc0", "umc1"],
        )
        core = p7302.cores_of_ccd(0)[0].core_id
        for umc in (0, 1):
            installation.router.register(
                0, f"umc{umc}",
                path=resolver.dram_path(core, umc),
                primary=(umc == 0),
                slice_gbps=6.0,
            )
        installation.health.credit_timeout("umc0", 0.0)
        assert installation.health.is_dead("umc0")
        executor = TransactionExecutor(env, flow="victim")
        gate = installation.gate(executor, "victim", worker=0)
        from repro.transport.message import Transaction

        results = []

        def issue():
            txn = Transaction(OpKind.READ, 64, src_core=core)
            done = yield from gate.execute(
                txn, resolver.dram_path(core, 0)
            )
            results.append(done)

        env.process(issue())
        env.run()
        assert len(results) == 1
        assert installation.stats.failovers == 1
        assert installation.router.home(0) == "umc1"
        # Delivered bytes accounted at the failover endpoint.
        assert installation.registry.get("umc1").read_bytes == 64
        installation.assert_credits_home()


class TestRecoveryGateDeadline:
    def test_free_credits_arm_no_deadline(self, p7302):
        # The credit-wait deadline is armed at the first wait: an attempt
        # whose credits are all free leaves no timeout on the heap, and
        # one that must wait still times out retry_timeout_ns after it
        # began.
        env = Environment()
        resolver = PathResolver(env, p7302)
        config = RecoveryConfig.on()
        installation = install(
            resolver,
            NetStackConfig.with_credits(),
            config,
            flows=["victim"],
            endpoints=["umc0"],
        )
        gate = installation.gate(
            TransactionExecutor(env, flow="victim"), "victim", worker=0
        )
        pool = installation.scheduler.pool("umc0", "victim")
        outcomes = []

        def attempt(lines):
            held = yield from gate._acquire(
                pool, lines, config.retry_timeout_ns
            )
            outcomes.append((held, env.now))

        env.process(attempt(pool.capacity))
        env.run()
        assert outcomes == [((pool.capacity, False), 0.0)]
        # Nothing was left to fire later: no deadline moved the clock.
        assert env.now == 0.0
        env.process(attempt(1))
        env.run()
        assert outcomes[1] == ((0, True), config.retry_timeout_ns)
        assert pool.queue_length == 0


class TestShardedFaultGuard:
    def _schedule(self):
        return FaultSchedule(
            [FaultEvent.failure("umc0:r", start=100.0, factor=0.05)]
        )

    def test_multi_shard_install_is_refused(self, p7302):
        sharded = ShardedEnvironment(2, lookahead_ns=50.0)
        resolver = PathResolver(sharded.shard(0), p7302)
        with pytest.raises(SimulationError, match="2 shards"):
            install_faults(resolver, self._schedule())

    def test_single_shard_install_is_allowed(self, p7302):
        sharded = ShardedEnvironment(1, lookahead_ns=50.0)
        resolver = PathResolver(sharded.shard(0), p7302)
        processes = install_faults(resolver, self._schedule())
        assert processes

    def test_null_schedule_ignores_sharding(self, p7302):
        sharded = ShardedEnvironment(4, lookahead_ns=50.0)
        resolver = PathResolver(sharded.shard(0), p7302)
        assert install_faults(resolver, FaultSchedule([])) == []
