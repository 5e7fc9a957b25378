"""§4 #5: the cross-platform characterization framework.

Runs the full suite on the two calibrated parts *and* the uncalibrated
synthetic UCIe preset, and checks that the paper's idiosyncrasies are
detected everywhere — they are structural, not artifacts of one machine.
"""

from repro.core.suite import CharacterizationSuite
from repro.platform.presets import synthetic_ucie

from benchmarks.conftest import emit


def bench_characterization_suite(benchmark, p7302, p9634):
    suite = CharacterizationSuite(iterations=800)

    def sweep():
        return {
            platform.name: suite.run(platform)
            for platform in (p7302, p9634, synthetic_ucie())
        }

    reports = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for report in reports.values():
        emit(report.render())
        # Idiosyncrasy #1: extended data paths — positional NUMA spread.
        assert report.latency.near < report.latency.horizontal
        # Idiosyncrasy #2: heterogeneous bandwidth domains / the wall.
        linear = (
            report.bandwidth.read_gbps("core")
            * {"EPYC 7302": 16, "EPYC 9634": 84, "Synthetic UCIe": 64}[
                report.platform
            ]
        )
        assert report.bandwidth.read_gbps("cpu") < linear
        # Idiosyncrasy #4: sender-driven partitioning on every link.
        for cases in report.partitioning.outcomes.values():
            outcome = cases["case4-unequal-demands"]
            assert outcome.achieved["flow1"] > outcome.equal_share()
        assert len(report.guidelines) >= 5
