"""Tests for repro.units."""

from repro import units


class TestConstants:
    def test_cacheline(self):
        assert units.CACHELINE == 64

    def test_cxl_flits(self):
        assert units.CXL_FLIT_SMALL == 68
        assert units.CXL_FLIT_LARGE == 256

    def test_binary_sizes(self):
        assert units.KIB == 1024
        assert units.MIB == 1024 * 1024
        assert units.GIB == 1024 ** 3

    def test_decimal_gb(self):
        assert units.GB == 10 ** 9

