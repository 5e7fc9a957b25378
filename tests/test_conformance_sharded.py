"""Sharded-engine conformance suite (tier-2; run with ``-m conformance``).

The agreement contracts of :mod:`repro.sim.sharded` against the serial
reference, with the tolerances stated where they are asserted:

* **shards=1 identity** — the one-shard sharded run executes the serial
  cell inside the shard environment with an identical sequence
  progression, so its result fingerprint (md5 over all flow metrics)
  must be *byte-identical* to the serial engine's, on every preset;
* **multi-shard tolerance** — with 2 and 4 shards the in-flight-
  proportional replica partition is an approximation of emergent FIFO
  contention: victim share must agree within ``0.10`` absolute and Jain
  fairness within ``0.05`` (measured worst cases: 0.041 and 0.012,
  across all three presets and shard counts);
* **shard resolution** — :func:`repro.experiments.sharded_cell.resolve_shards`
  takes an explicit count, else one shard per CCD.
"""

import pytest

from repro.core.shardexec import run_cell
from repro.experiments.sharded_cell import resolve_shards
from repro.platform.presets import epyc_7302, epyc_9634, synthetic_ucie

pytestmark = pytest.mark.conformance

#: Documented serial-vs-sharded tolerance on the victim's share of its
#: demand (absolute). Measured worst case 0.041 (7302, 2 shards).
SHARDED_SHARE_TOL = 0.10

#: Documented serial-vs-sharded tolerance on Jain fairness (absolute).
#: Measured worst case 0.012 (7302, 4 shards).
SHARDED_JAIN_TOL = 0.05

_TRANSACTIONS = 150

_PRESETS = {
    "7302": epyc_7302,
    "9634": epyc_9634,
    "synthetic": synthetic_ucie,
}


@pytest.fixture(scope="module", params=sorted(_PRESETS))
def preset(request):
    """Every platform preset, including the synthetic UCIe design."""
    return _PRESETS[request.param]()


@pytest.fixture(scope="module")
def serial_outcome(preset):
    return run_cell(
        preset, engine="serial", transactions_per_core=_TRANSACTIONS
    )


def test_single_shard_is_byte_identical(preset, serial_outcome):
    one = run_cell(
        preset, engine="sharded", shards=1,
        transactions_per_core=_TRANSACTIONS,
    )
    assert one.fingerprint() == serial_outcome.fingerprint()


@pytest.mark.parametrize("shards", [2, 4])
def test_multi_shard_within_documented_tolerance(
    preset, serial_outcome, shards
):
    if shards > len(preset.ccds):
        pytest.skip(f"{preset.name} has only {len(preset.ccds)} CCDs")
    multi = run_cell(
        preset, engine="sharded", shards=shards,
        transactions_per_core=_TRANSACTIONS,
    )
    assert multi.transactions == serial_outcome.transactions
    share_delta = abs(multi.victim_share - serial_outcome.victim_share)
    assert share_delta <= SHARDED_SHARE_TOL, (
        f"{preset.name}/{shards} shards: victim share "
        f"{multi.victim_share:.3f} vs serial "
        f"{serial_outcome.victim_share:.3f}"
    )
    jain_delta = abs(multi.jain - serial_outcome.jain)
    assert jain_delta <= SHARDED_JAIN_TOL, (
        f"{preset.name}/{shards} shards: Jain {multi.jain:.4f} vs serial "
        f"{serial_outcome.jain:.4f}"
    )
    # The window protocol really ran: barriers and boundary traffic.
    assert multi.sync["windows"] > 0
    assert multi.sync["cross_messages"] > 0


def test_resolve_shards_explicit_else_one_per_ccd(preset):
    assert resolve_shards(preset, 2) == 2
    assert resolve_shards(preset) == len(preset.ccds)
