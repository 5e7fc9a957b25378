"""Property test: credit conservation through arbitrary fault schedules.

The recovery layer's core claim (``docs/ROBUSTNESS.md``): for *any* fault
schedule — derates, permanent failures, stalls, flapping, in any
combination — a recovery-gated run drains to a state where every credit
is accounted for (home + in-flight + reclaimed-with-forgiveness balances
to exactly the configured capacity) and every issued transaction
completed. Hypothesis drives the schedule space; the invariant is checked
by :meth:`repro.net.recovery.ReclaimingCreditScheduler.assert_credits_home`
plus the issuers' own completion counts.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.loadgen import ClosedLoopIssuer
from repro.faults.inject import install as install_faults
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.net.recovery import RecoveryConfig, install as install_recovery
from repro.net.stack import NetStackConfig
from repro.platform.presets import epyc_7302
from repro.sim.engine import Environment
from repro.transport.message import OpKind
from repro.transport.path import PathResolver
from repro.transport.transaction import TransactionExecutor

#: Channels that exist on the 7302 and sit on the victim's data path.
_CHANNELS = ("umc0:r", "umc1:r", "gmi0:r", "noc:r")

_times = st.floats(min_value=0.0, max_value=2500.0)
_spans = st.tuples(_times, st.floats(min_value=50.0, max_value=1500.0))
_factors = st.floats(min_value=0.05, max_value=0.9)


@st.composite
def _events(draw):
    channel = draw(st.sampled_from(_CHANNELS))
    kind = draw(st.sampled_from(("derate", "failure", "stall", "flapping")))
    if kind == "failure":
        return FaultEvent.failure(
            channel, start=draw(_times), factor=draw(_factors)
        )
    start, length = draw(_spans)
    if kind == "derate":
        return FaultEvent.derate(
            channel, start=start, end=start + length, factor=draw(_factors)
        )
    if kind == "stall":
        return FaultEvent.stall(channel, start=start, end=start + length)
    return FaultEvent.flapping(
        channel,
        start=start,
        end=start + length,
        period=draw(st.floats(min_value=50.0, max_value=400.0)),
        factor=draw(_factors),
    )


_schedules = st.lists(_events(), min_size=0, max_size=4).map(FaultSchedule)


@pytest.fixture(scope="module")
def platform():
    return epyc_7302()


@given(schedule=_schedules, seed=st.integers(min_value=0, max_value=7))
@settings(max_examples=20, deadline=None)
def test_credits_conserved_and_no_txn_dropped(platform, schedule, seed):
    env = Environment()
    resolver = PathResolver(env, platform, seed=seed)
    install_faults(resolver, schedule)
    installation = install_recovery(
        resolver,
        NetStackConfig.with_credits(),
        RecoveryConfig.on(),
        flows=["victim"],
        endpoints=["umc0", "umc1"],
        seed=seed,
    )
    cores = [c.core_id for c in platform.cores_of_ccd(0)[:2]]
    count_per_worker = 30
    issuers = []
    finished = []
    for index, core in enumerate(cores):
        umc = index % 2
        executor = TransactionExecutor(env, flow="victim")
        gate = installation.gate(executor, "victim", worker=index)
        for candidate in (0, 1):
            installation.router.register(
                index,
                f"umc{candidate}",
                path=resolver.dram_path(core, candidate),
                primary=(candidate == umc),
                slice_gbps=6.0,
            )
        path = resolver.dram_path(core, umc)
        issuer = ClosedLoopIssuer(
            env,
            gate,
            (path,),
            OpKind.READ,
            window=8,
            count_per_worker=count_per_worker,
            rate_gbps=6.0,
        )
        issuers.append(issuer)
        finished.append(issuer.start())
    for umc in (0, 1):
        installation.watch(
            f"umc{umc}",
            6.0,
            probe_path=resolver.dram_path(cores[0], umc),
        )
    installation.start()
    env.run(env.all_of(finished))
    installation.stop()
    env.run()  # drain wrecks, probes, and the monitors' exit

    # No transaction silently dropped: every issuer delivered its count.
    for issuer in issuers:
        assert issuer.result().stats.count == count_per_worker

    # Conservation: home + in-flight + reclaimed balances exactly.
    installation.assert_credits_home()
    assert installation.forgiveness_settled()
    for pool in installation.scheduler.pools.values():
        assert pool.available == pool.capacity
        assert pool.leases == 0
