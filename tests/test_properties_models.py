"""Property-based tests on the analytic models (collective, relay) and on
the open-loop serving path against its reference loops."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collective.model import Algorithm, CollectiveCost
from repro.io.relay import NicSpec, RelayDesign, SsdArraySpec, relay_throughput
from repro.analysis.stats import LatencyStats
from repro.platform.presets import epyc_7302, epyc_9634
from tests.test_serving_identity import (
    _reference_merge,
    _assert_same_bits,
    _check_departure_trial,
    _check_serving_cell,
    _random_cell,
    _random_departure_trial,
    _random_parts,
)

_P7302 = epyc_7302()
_P9634 = epyc_9634()

payloads = st.floats(min_value=64.0, max_value=1e9)


class TestCollectiveProperties:
    @given(
        n=payloads,
        k=st.integers(2, 12),
        algorithm=st.sampled_from(list(Algorithm)),
    )
    @settings(max_examples=150, deadline=None)
    def test_time_positive_and_monotone_in_payload(self, n, k, algorithm):
        cost = CollectiveCost.for_platform(_P9634, chiplets=k)
        t_small = cost.time_ns(algorithm, n)
        t_large = cost.time_ns(algorithm, n * 2)
        assert t_small > 0
        assert t_large > t_small

    @given(n=payloads, k=st.integers(2, 12))
    @settings(max_examples=100, deadline=None)
    def test_flat_never_beats_ring_by_bandwidth(self, n, k):
        # Flat serializes (k−1)·n on the root; ring moves n/k per step.
        # For payloads past the latency regime, flat ≥ ring always.
        cost = CollectiveCost.for_platform(_P9634, chiplets=k)
        big = max(n, 1e7)
        assert cost.time_ns(Algorithm.FLAT, big) >= cost.time_ns(
            Algorithm.RING, big
        )

    @given(k=st.integers(2, 12))
    @settings(max_examples=20, deadline=None)
    def test_alpha_grows_weakly_with_participants(self, k):
        # Adding chiplets can only keep or worsen the worst-case hop.
        small = CollectiveCost.for_platform(_P9634, chiplets=2).alpha_ns
        larger = CollectiveCost.for_platform(_P9634, chiplets=k).alpha_ns
        assert larger >= small - 1e-12


class TestRelayProperties:
    @given(
        nic_gbps=st.floats(min_value=0.5, max_value=200.0),
        ssd_each=st.floats(min_value=1.0, max_value=20.0),
        count=st.integers(1, 16),
        design=st.sampled_from(list(RelayDesign)),
    )
    @settings(max_examples=80, deadline=None)
    def test_never_exceeds_any_external_device(
        self, nic_gbps, ssd_each, count, design
    ):
        result = relay_throughput(
            _P7302, design,
            nic=NicSpec("x", nic_gbps),
            ssds=SsdArraySpec(count, ssd_each),
        )
        assert result.throughput_gbps <= nic_gbps * (1 + 1e-9)
        assert result.throughput_gbps <= count * ssd_each * (1 + 1e-9)
        assert result.throughput_gbps > 0

    @given(nic_gbps=st.floats(min_value=0.5, max_value=200.0))
    @settings(max_examples=60, deadline=None)
    def test_channel_aware_weakly_dominates(self, nic_gbps):
        nic = NicSpec("x", nic_gbps)
        aware = relay_throughput(_P7302, RelayDesign.CHANNEL_AWARE, nic=nic)
        for design in (RelayDesign.CPU_COPY, RelayDesign.SINGLE_DOMAIN_DMA):
            other = relay_throughput(_P7302, design, nic=nic)
            assert aware.throughput_gbps >= other.throughput_gbps - 1e-9

    @given(
        slow=st.floats(min_value=0.5, max_value=50.0),
        boost=st.floats(min_value=1.1, max_value=5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_faster_nic_never_hurts(self, slow, boost):
        slow_result = relay_throughput(
            _P9634, RelayDesign.CHANNEL_AWARE, nic=NicSpec("s", slow)
        )
        fast_result = relay_throughput(
            _P9634, RelayDesign.CHANNEL_AWARE, nic=NicSpec("f", slow * boost)
        )
        assert fast_result.throughput_gbps >= slow_result.throughput_gbps - 1e-9


class TestServingPathProperties:
    """The in-place open-loop path matches its reference loops bit for bit
    (the seeded sweeps are in ``tests/test_serving_identity.py``)."""

    @given(rng=st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_serve_tenants_matches_the_reference(self, rng):
        _check_serving_cell(*_random_cell(rng, (_P7302, _P9634)))

    @given(rng=st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_departures_and_stats_match_the_reference(self, rng):
        _check_departure_trial(*_random_departure_trial(rng))
        parts = _random_parts(rng)
        _assert_same_bits(LatencyStats.merge(parts), _reference_merge(parts))
