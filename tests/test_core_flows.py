"""Tests for stream specifications and scopes."""

import math

import pytest

from repro.core.flows import Scope, StreamSpec
from repro.errors import ConfigurationError
from repro.transport.message import OpKind


class TestStreamSpec:
    def test_valid(self):
        spec = StreamSpec("s", OpKind.READ, (0, 1), demand_gbps=5.0)
        assert spec.target == "dram"

    def test_empty_cores_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamSpec("s", OpKind.READ, ())

    def test_bad_target_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamSpec("s", OpKind.READ, (0,), target="hbm")

    def test_negative_demand_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamSpec("s", OpKind.READ, (0,), demand_gbps=-1.0)

    @pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf))
    def test_non_finite_demand_rejected(self, value):
        with pytest.raises(ConfigurationError, match="finite"):
            StreamSpec("s", OpKind.READ, (0,), demand_gbps=value)

    def test_none_demand_means_unthrottled(self):
        assert StreamSpec("s", OpKind.READ, (0,)).demand_gbps is None


class TestScopes:
    def test_core_scope(self, platform):
        assert StreamSpec.cores_for_scope(platform, Scope.CORE) == (0,)

    def test_ccx_scope(self, p7302, p9634):
        assert len(StreamSpec.cores_for_scope(p7302, Scope.CCX)) == 2
        assert len(StreamSpec.cores_for_scope(p9634, Scope.CCX)) == 7

    def test_ccd_scope(self, p7302, p9634):
        assert len(StreamSpec.cores_for_scope(p7302, Scope.CCD)) == 4
        assert len(StreamSpec.cores_for_scope(p9634, Scope.CCD)) == 7

    def test_cpu_scope(self, platform):
        cores = StreamSpec.cores_for_scope(platform, Scope.CPU)
        assert len(cores) == platform.spec.cores

    def test_scopes_nest(self, platform):
        core = set(StreamSpec.cores_for_scope(platform, Scope.CORE))
        ccx = set(StreamSpec.cores_for_scope(platform, Scope.CCX))
        ccd = set(StreamSpec.cores_for_scope(platform, Scope.CCD))
        cpu = set(StreamSpec.cores_for_scope(platform, Scope.CPU))
        assert core <= ccx <= ccd <= cpu
