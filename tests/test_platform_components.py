"""Tests for component dataclasses and link specs."""

import pytest

from repro.errors import ConfigurationError
from repro.platform.components import (
    CCD,
    CCX,
    Core,
    CXLDevice,
    DIMM,
    IOHub,
    RootComplex,
    UMC,
)
from repro.platform.interconnect import LinkKind, LinkSpec


class TestComponentNames:
    def test_core(self):
        assert Core(3, 1, 0).name == "core3"

    def test_ccx(self):
        ccx = CCX(2, 1, (4, 5), 16 * 2**20)
        assert ccx.name == "ccx2"

    def test_ccd(self):
        assert CCD(1, (2, 3), (0, 1)).name == "ccd1"

    def test_umc_and_dimm(self):
        assert UMC(5, (1, 1)).name == "umc5"
        assert DIMM(5, 5, 16 * 2**30).name == "dimm5"

    def test_hub_rc_cxl(self):
        assert IOHub(0, (1, 0)).name == "iohub0"
        assert RootComplex(2, 0).name == "rc2"
        assert CXLDevice(1, 1, 256 * 2**30).name == "cxl1"

    def test_cxl_default_flit_is_68(self):
        # CXL 1.1/2.0 protocol FLIT — what the CZ120 devices use.
        assert CXLDevice(0, 0, 1).flit_bytes == 68

    def test_components_are_frozen(self):
        core = Core(0, 0, 0)
        with pytest.raises(AttributeError):
            core.core_id = 5


class TestLinkSpec:
    def test_valid(self):
        spec = LinkSpec("x", LinkKind.IF, 9.0, 32.0, 16.0)
        assert spec.capacity(is_write=False) == 32.0
        assert spec.capacity(is_write=True) == 16.0

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            LinkSpec("x", LinkKind.IF, -1.0, 32.0, 16.0)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            LinkSpec("x", LinkKind.IF, 1.0, 0.0, 16.0)
        with pytest.raises(ConfigurationError):
            LinkSpec("x", LinkKind.IF, 1.0, 32.0, -3.0)

    def test_kinds_cover_paper_links(self):
        values = {kind.value for kind in LinkKind}
        # The heterogeneous physical layer of §2.3.
        for expected in ("if", "gmi", "noc-hop", "io-hub", "p-link", "cxl", "pcie"):
            assert expected in values
