"""The DES lowering: one worker-to-endpoint stripe, and the cells it builds.

:func:`repro.core.loadgen.lower_stream` is where every closed-loop DES cell
decides which endpoint each worker targets. The stripe tests pin that
decision, and the fluid model's split of the same streams
(:meth:`repro.core.fabric.FabricModel.flows_for`), so a change to either
stripe has to be deliberate. The md5 pins freeze the DES cells that no
golden reaches.
"""

import dataclasses
import hashlib
import json
from collections import Counter

import pytest

from repro.apps.kvstore import KvServerModel, KvWorkload
from repro.core.fabric import FabricModel
from repro.core.flows import Pattern, StreamSpec
from repro.core.loadgen import lower_stream
from repro.core.microbench import MicroBench
from repro.errors import ConfigurationError
from repro.experiments import chaos, netstack
from repro.experiments.contention import shared_umc_ids
from repro.sim.engine import Environment
from repro.transport.message import OpKind
from repro.transport.path import PathResolver
from repro.transport.transaction import TransactionExecutor

from tests.test_experiments_figs import token_pool_ablation


def _des_stripe(platform, spec):
    """{ccx id: {endpoint stage: workers}} of the lowered stream."""
    env = Environment()
    issuer = lower_stream(
        env, TransactionExecutor(env), PathResolver(env, platform), spec,
        window=1, count_per_worker=1,
    )
    stripe = {}
    for core_id, path in zip(spec.core_ids, issuer.paths):
        ccx = stripe.setdefault(platform.core(core_id).ccx_id, Counter())
        ccx[path.stages[-1].name] += 1
    return {ccx_id: dict(counts) for ccx_id, counts in stripe.items()}


def _fluid_stripe(platform, spec):
    """{ccx id: {endpoint: cores' worth of the CCX's flow}} of the fluid
    split."""
    cores = Counter(platform.core(c).ccx_id for c in spec.core_ids)
    stripe = {}
    for flow in FabricModel(platform).flows_for(spec):
        ccx_id = int(flow.name.rsplit("/ccx", 1)[1])
        stripe[ccx_id] = {
            channel.name.split(":")[0]: weight * cores[ccx_id]
            for channel, weight in flow.path
            if channel.name.startswith(("umc", "cxldev"))
        }
    return stripe


class TestStripe:
    def test_7302_puts_one_core_of_each_ccx_on_each_shared_umc(self, p7302):
        shared = shared_umc_ids(p7302)
        for spec in netstack._cell_streams(p7302):
            expected = {
                p7302.core(c).ccx_id: {f"umc{u}": 1 for u in shared}
                for c in spec.core_ids
            }
            assert _des_stripe(p7302, spec) == expected
            assert _fluid_stripe(p7302, spec) == {
                ccx_id: pytest.approx(umcs)
                for ccx_id, umcs in expected.items()
            }

    def test_9634_des_stripes_3_2_2_where_the_fluid_splits_evenly(
        self, p9634
    ):
        shared = shared_umc_ids(p9634)
        assert shared == [0, 4, 8]
        for spec in netstack._cell_streams(p9634):
            (ccx_id,) = {p9634.core(c).ccx_id for c in spec.core_ids}
            assert len(spec.core_ids) == 7
            assert _des_stripe(p9634, spec) == {
                ccx_id: {"umc0": 3, "umc4": 2, "umc8": 2}
            }
            fluid = _fluid_stripe(p9634, spec)
            assert fluid == {
                ccx_id: pytest.approx({f"umc{u}": 7 / 3 for u in shared})
            }

    def test_cxl_streams_stripe_over_devices(self, p9634):
        spec = StreamSpec(
            "s", OpKind.READ, (0, 1, 2, 3, 4), target="cxl", endpoints=(0, 1)
        )
        assert _des_stripe(p9634, spec) == {
            0: {"cxldev0": 3, "cxldev1": 2}
        }

    def test_no_endpoints_rejected(self, p7302):
        with pytest.raises(ConfigurationError):
            _des_stripe(p7302, StreamSpec("s", OpKind.READ, (0,)))

    def test_netstack_cell_streams_name_the_shared_umcs(self, platform):
        shared = tuple(shared_umc_ids(platform))
        for spec in netstack._cell_streams(platform):
            assert spec.endpoints == shared


def _default_streams(platform):
    """Streams with no endpoints: DRAM on one chiplet, DRAM across
    chiplets and (where the preset has devices) CXL."""
    ccds = sorted(platform.ccds)
    one = tuple(c.core_id for c in platform.cores_of_ccd(ccds[0]))
    across = one + tuple(c.core_id for c in platform.cores_of_ccd(ccds[1]))
    streams = [
        StreamSpec("one-chiplet", OpKind.READ, one),
        StreamSpec("across-chiplets", OpKind.READ, across),
    ]
    if platform.cxl_devices:
        streams.append(StreamSpec("cxl", OpKind.READ, one, target="cxl"))
    return streams


class TestDefaultEndpoints:
    """One rule resolves a stream's default endpoints for both engines."""

    @pytest.mark.parametrize("preset", ["7302", "9634"])
    def test_des_and_fluid_cover_the_same_endpoints(
        self, preset, p7302, p9634
    ):
        platform = {"7302": p7302, "9634": p9634}[preset]
        fabric = FabricModel(platform)
        streams = _default_streams(platform)
        assert len(streams) == (3 if preset == "9634" else 2)
        for spec in streams:
            resolved = dataclasses.replace(
                spec, endpoints=fabric.endpoints_of(spec)
            )
            des = set()
            for counts in _des_stripe(platform, resolved).values():
                des.update(counts)
            fluid = set()
            for split in _fluid_stripe(platform, spec).values():
                fluid.update(split)
            assert des == fluid, spec.name
            prefix = "cxldev" if spec.target == "cxl" else "umc"
            assert fluid == {f"{prefix}{e}" for e in resolved.endpoints}

    def test_default_rule(self, p9634):
        fabric = FabricModel(p9634)
        one, across, cxl = _default_streams(p9634)
        assert fabric.endpoints_of(one) == tuple(shared_umc_ids(p9634))
        assert fabric.endpoints_of(across) == tuple(sorted(p9634.umcs))
        assert fabric.endpoints_of(cxl) == tuple(sorted(p9634.cxl_devices))
        named = dataclasses.replace(one, endpoints=(5, 1))
        assert fabric.endpoints_of(named) == (5, 1)


class TestRecoveryCellHomes:
    """Each chaos recovery worker stream targets its initial home."""

    @pytest.mark.parametrize("preset", ["7302", "9634"])
    def test_worker_endpoint_is_its_home(self, preset, p7302, p9634):
        platform = {"7302": p7302, "9634": p9634}[preset]
        victim = chaos._victim_cell(platform)
        assert victim.endpoints == tuple(sorted(shared_umc_ids(platform)))
        streams = chaos._worker_streams(victim)
        assert [s.core_ids for s in streams] == [
            (core_id,) for core_id in victim.core_ids
        ]
        for index, spec in enumerate(streams):
            home = victim.endpoints[index % len(victim.endpoints)]
            assert spec.endpoints == (home,)
            # DES: the worker's one path ends at its home UMC.
            assert _des_stripe(platform, spec) == {
                platform.core(spec.core_ids[0]).ccx_id: {f"umc{home}": 1}
            }
            # Fluid: the worker's flow loads only its home UMC.
            (split,) = _fluid_stripe(platform, spec).values()
            assert split == {f"umc{home}": pytest.approx(1.0)}


def _digest(value):
    if dataclasses.is_dataclass(value):
        value = dataclasses.astuple(value)
    raw = json.dumps(value, sort_keys=True).encode()
    return hashlib.md5(raw).hexdigest()


class TestUnpinnedCellsAreUnchanged:
    """md5 pins of DES cells that no golden reaches, recorded before the
    cells were routed through the lowering."""

    @pytest.mark.parametrize("preset, expected", [
        ("7302", "e5b2452128520f58abd3aea444314f00"),
        ("9634", "a88631f84e176f5767e9e0dd01c7314c"),
    ])
    def test_token_pool_ablation(self, preset, expected, p7302, p9634):
        platform = {"7302": p7302, "9634": p9634}[preset]
        result = token_pool_ablation(platform, transactions_per_core=60)
        assert _digest(result) == expected

    @pytest.mark.parametrize("tier, background, expected", [
        ("dram", False, "2b060724700589c507357b21bcc238a3"),
        ("dram", True, "4f3ac28c5d720a6f6c564062dc4246b9"),
        ("cxl", False, "8bb30100efc43203f30c82885e081c27"),
        ("cxl", True, "5e6ea0c5375966a62745823906fccaa8"),
    ])
    def test_kvstore_des_on_9634(self, tier, background, expected, p9634):
        cores = [c.core_id for c in p9634.cores_of_ccd(1)]
        report = KvServerModel(p9634, seed=0).serve(
            KvWorkload(qps=4e6, requests=40, value_tier=tier),
            background_cores=cores if background else None,
        )
        assert _digest(report) == expected

    @pytest.mark.parametrize("recover, expected", [
        (False, "d9a186f978dc0364bafbd4a11a340fd0"),
        (True, "bcd800b14362af44b541923ba5039054"),
    ])
    def test_des_recovery_on_9634(self, recover, expected, p9634):
        point = chaos.run_recovery_point(
            p9634, "des", recover, seed=0, transactions_per_core=400
        )
        assert _digest(point) == expected

    @pytest.mark.parametrize("preset, offered, expected", [
        ("7302", None, "52ab8b7eed4ca79abe8187aee03cec5d"),
        ("7302", 10.0, "45f19a910a2afa2c21a69e6ecd651ee0"),
        ("9634", None, "68d66f11f2e6662b0fe043904a226971"),
        ("9634", 10.0, "31facb7ae17e67e16cfd68257509227c"),
    ])
    def test_random_loaded_latency(
        self, preset, offered, expected, p7302, p9634
    ):
        platform = {"7302": p7302, "9634": p9634}[preset]
        cores = [c.core_id for c in platform.cores_of_ccd(0)]
        result = MicroBench(platform, seed=0).loaded_latency(
            cores, OpKind.READ, offered, transactions_per_core=80,
            pattern=Pattern.RANDOM,
        )
        assert _digest(result) == expected
