"""Tests for the NIC→DRAM→NVMe relay study (§4 #3)."""

import pytest

from repro.errors import ConfigurationError
from repro.io.relay import (
    NicSpec,
    RelayDesign,
    SsdArraySpec,
    relay_throughput,
    render,
    sweep_designs,
)


class TestSpecs:
    def test_nic_validation(self):
        with pytest.raises(ConfigurationError):
            NicSpec(gbps=0.0)

    def test_ssd_validation(self):
        with pytest.raises(ConfigurationError):
            SsdArraySpec(count=0)

    def test_ssd_aggregate(self):
        assert SsdArraySpec(count=8, write_gbps_each=7.0).write_gbps == 56.0


class TestRelay:
    @pytest.fixture(scope="class")
    def results_7302(self, p7302):
        return sweep_designs(p7302)

    @pytest.fixture(scope="class")
    def results_9634(self, p9634):
        return sweep_designs(p9634)

    def test_design_ordering(self, results_7302):
        cpu = results_7302[RelayDesign.CPU_COPY].throughput_gbps
        dma = results_7302[RelayDesign.SINGLE_DOMAIN_DMA].throughput_gbps
        aware = results_7302[RelayDesign.CHANNEL_AWARE].throughput_gbps
        assert cpu < dma < aware

    def test_cpu_copy_binds_on_the_chiplet(self, results_7302, p7302):
        # The paper's claim: the external fabric outpaces a compute chiplet.
        result = results_7302[RelayDesign.CPU_COPY]
        assert result.bottleneck == "compute-chiplet"
        assert result.throughput_gbps == pytest.approx(
            p7302.spec.bandwidth.gmi_write_gbps, rel=0.02
        )
        assert result.throughput_gbps < result.nic.gbps / 3

    def test_single_domain_binds_on_staging(self, results_7302, p7302):
        result = results_7302[RelayDesign.SINGLE_DOMAIN_DMA]
        assert result.bottleneck == "staging-domain"
        # Two DDR4 channels' write rate: 2 x 19.0.
        assert result.throughput_gbps == pytest.approx(38.0, rel=0.02)

    def test_channel_aware_is_device_bound(self, results_7302):
        result = results_7302[RelayDesign.CHANNEL_AWARE]
        assert result.external_bound
        assert result.throughput_gbps == pytest.approx(50.0, rel=0.01)

    def test_9634_ddr5_domain_suffices(self, results_9634):
        # Cross-platform nuance: three DDR5 channels out-run the NIC, so
        # even naive single-domain DMA is device-bound on the 9634.
        result = results_9634[RelayDesign.SINGLE_DOMAIN_DMA]
        assert result.external_bound
        assert results_9634[RelayDesign.CHANNEL_AWARE].external_bound

    def test_9634_cpu_copy_binds_on_the_chiplet(self, results_9634):
        result = results_9634[RelayDesign.CPU_COPY]
        assert result.bottleneck == "compute-chiplet"
        assert result.throughput_gbps == pytest.approx(23.8, rel=0.05)

    def test_ssd_array_can_bind_instead(self, p7302):
        small_array = SsdArraySpec(count=3, write_gbps_each=7.0)  # 21 GB/s
        result = relay_throughput(
            p7302, RelayDesign.CHANNEL_AWARE, ssds=small_array
        )
        assert result.bottleneck == "ssd-array"
        assert result.throughput_gbps == pytest.approx(21.0, rel=0.01)

    def test_slow_nic_restores_cpu_copy(self, p7302):
        # With a 10GbE-class NIC (1.25 GB/s) even the copy path keeps up —
        # the pre-terabit world the conventional stack was designed for.
        result = relay_throughput(
            p7302, RelayDesign.CPU_COPY, nic=NicSpec("10GbE", 1.25)
        )
        assert result.bottleneck == "nic"

    def test_render(self, results_7302):
        text = render(results_7302)
        assert "cpu-copy" in text
        assert "device-bound?" in text
