"""Tests for the stack switchboard and its fluid realization."""

from dataclasses import replace

import pytest

from repro.core.fabric import FabricModel
from repro.errors import ConfigurationError
from repro.experiments.contention import contention_streams, shared_umc_ids
from repro.fluid.solver import Policy
from repro.net.credits import CreditConfig
from repro.net.qos import CLASS_SPECS, QosClass
from repro.net.stack import NetStackConfig, fluid_allocation


class TestNetStackConfig:
    def test_default_is_off(self):
        config = NetStackConfig()
        assert not config.enabled
        assert config.label == "off"

    def test_qos_requires_credits(self):
        with pytest.raises(ConfigurationError):
            NetStackConfig(qos=True)

    def test_labels(self):
        assert NetStackConfig.with_credits().label == "credits"
        assert (
            NetStackConfig.with_qos({"v": QosClass.LATENCY}).label
            == "credits+qos"
        )

    def test_fluid_policy(self):
        assert (
            NetStackConfig.off().fluid_policy()
            is Policy.DEMAND_PROPORTIONAL
        )
        assert (
            NetStackConfig.with_credits().fluid_policy() is Policy.WEIGHTED
        )

    def test_weights_and_scales(self):
        config = NetStackConfig.with_qos(
            {"v": QosClass.LATENCY, "h": QosClass.BULK}
        )
        assert config.weight_of("v") == CLASS_SPECS[QosClass.LATENCY].weight
        assert config.weight_of("unclassified") == 1.0
        assert config.credit_scales() == {
            "v": CLASS_SPECS[QosClass.LATENCY].credit_scale,
            "h": CLASS_SPECS[QosClass.BULK].credit_scale,
        }
        # Without QoS every flow is in the same class.
        plain = NetStackConfig.with_credits()
        assert plain.weight_of("v") == 1.0
        assert plain.credit_scales() == {}

    def test_custom_credit_config_carried(self):
        tuned = CreditConfig(rtt_factor=1.0)
        assert NetStackConfig.with_credits(tuned).credit_config is tuned


class TestFluidAllocation:
    def _cell(self, platform):
        """Both streams on the victim chiplet's shared NPS4 UMCs."""
        shared = tuple(shared_umc_ids(platform))
        specs = [
            replace(spec, endpoints=shared)
            for spec in contention_streams(
                platform,
                victim_cores=tuple(
                    core.core_id for core in platform.cores_of_ccx(0)
                ),
                hog_demand_gbps=64.0,
            )
        ]
        return FabricModel(platform), specs

    def test_disabled_stack_is_bit_identical_to_hardware(self, platform):
        # The acceptance property: stack off routes through the exact
        # pre-existing code path, number for number.
        fabric, specs = self._cell(platform)
        grants = fluid_allocation(fabric, specs, NetStackConfig.off())
        baseline = fabric.achieved_gbps(
            specs, policy=Policy.DEMAND_PROPORTIONAL
        )
        assert grants == baseline

    def test_credits_protect_the_victim(self, p7302):
        fabric, specs = self._cell(p7302)
        off = fluid_allocation(fabric, specs, NetStackConfig.off())
        on = fluid_allocation(fabric, specs, NetStackConfig.with_credits())
        assert on["victim"] > off["victim"]
        assert on["victim"] <= specs[0].demand_gbps + 1e-9

    def test_qos_prioritizes_latency_class(self, p7302):
        fabric, specs = self._cell(p7302)
        credits = fluid_allocation(
            fabric, specs, NetStackConfig.with_credits()
        )
        qos = fluid_allocation(
            fabric, specs,
            NetStackConfig.with_qos(
                {"victim": QosClass.LATENCY, "hog": QosClass.BULK}
            ),
        )
        assert qos["victim"] >= credits["victim"]
        assert qos["hog"] <= credits["hog"] + 1e-9

    def test_no_stream_exceeds_demand(self, platform):
        fabric, specs = self._cell(platform)
        grants = fluid_allocation(
            fabric, specs, NetStackConfig.with_credits()
        )
        for spec in specs:
            if spec.demand_gbps is not None:
                assert grants[spec.name] <= spec.demand_gbps + 1e-9
