"""Tests for the Figure 3/4/5/6 experiment harnesses (shape criteria).

Also the ablations: the traffic manager against sender-driven
partitioning (``repro all`` prints its headline), and two model checks
that only these tests run, the token pools and the collapsed NoC path
model (:func:`token_pool_ablation`, :func:`detailed_vs_collapsed_noc`).
"""

from dataclasses import replace
from typing import Dict

import pytest

from repro.core.fabric import FabricModel
from repro.core.flows import StreamSpec
from repro.core.loadgen import lower_stream
from repro.experiments import ablations, fig3, fig4, fig5, fig6
from repro.noc.mesh import Mesh
from repro.noc.router import MeshNetwork
from repro.platform.numa import Position
from repro.sim.engine import Environment
from repro.transport.message import OpKind
from repro.transport.path import PathResolver
from repro.transport.transaction import TransactionExecutor
from repro.units import CACHELINE


# ------------------------------------------------------------------ Figure 3

@pytest.fixture(scope="module")
def fig3_gmi_9634(p9634):
    config = [
        c for c in fig3.panel_configs(p9634) if c.panel == "e"
    ][0]
    return {
        op: fig3.run_panel(
            p9634, config, op, transactions_per_core=350, fractions=(0.3, 0.7)
        )
        for op in (OpKind.READ, OpKind.NT_WRITE)
    }


class TestFig3:
    def test_panels_cover_both_platforms(self, p7302, p9634):
        panels7 = {c.panel for c in fig3.panel_configs(p7302)}
        panels9 = {c.panel for c in fig3.panel_configs(p9634)}
        assert panels7 == {"a", "c", "d"}
        assert panels9 == {"b", "e", "f"}

    def test_latency_rises_toward_saturation(self, fig3_gmi_9634):
        sweep = fig3_gmi_9634[OpKind.READ]
        assert sweep.mean_rise() > 1.4

    def test_base_latency_matches_unloaded(self, fig3_gmi_9634, p9634):
        from repro.platform.numa import Position

        sweep = fig3_gmi_9634[OpKind.READ]
        near = p9634.dram_latency_at(0, Position.NEAR)
        assert sweep.base.stats.mean == pytest.approx(near, rel=0.05)

    def test_write_blowup_on_9634_gmi(self, fig3_gmi_9634):
        # Paper: write average rises to ≈695.8 ns (≈4.8× base).
        sweep = fig3_gmi_9634[OpKind.NT_WRITE]
        assert sweep.mean_rise() > 3.5

    def test_tail_above_mean_everywhere(self, fig3_gmi_9634):
        for sweep in fig3_gmi_9634.values():
            for result in sweep.results:
                assert result.stats.p999 > result.stats.mean

    def test_flat_panel_a(self, p7302):
        config = [c for c in fig3.panel_configs(p7302) if c.panel == "a"][0]
        sweep = fig3.run_panel(
            p7302, config, OpKind.READ,
            transactions_per_core=350, fractions=(0.3, 0.7),
        )
        # Paper: "regardless of the load" — flat within a few percent.
        assert sweep.mean_rise() < 1.05
        assert sweep.base.stats.mean == pytest.approx(144.5, rel=0.03)

    def test_render(self, fig3_gmi_9634):
        text = fig3.render(list(fig3_gmi_9634.values()))
        assert "GMI (9634)" in text
        assert "avg ns" in text


@pytest.fixture(scope="module")
def fig3_panels(p7302, p9634):
    """Every panel, both ops, at 1,200 transactions per core."""
    return {
        config.panel: {
            op: fig3.run_panel(
                platform, config, op,
                transactions_per_core=1200, fractions=(0.2, 0.5, 0.8),
            )
            for op in (OpKind.READ, OpKind.NT_WRITE)
        }
        for platform in (p7302, p9634)
        for config in fig3.panel_configs(platform)
    }


def _read_write(sweeps):
    return sweeps[OpKind.READ], sweeps[OpKind.NT_WRITE]


@pytest.mark.conformance
class TestFig3Calibration:
    """Each panel's endpoints against the paper's Figure 3 (§3.4)."""

    def test_a_if_intra_cc_7302_is_flat(self, fig3_panels):
        read, write = _read_write(fig3_panels["a"])
        assert write.mean_rise() < 1.05      # flat "regardless of load"
        assert read.base.stats.p999 == pytest.approx(490, rel=0.15)

    def test_b_if_intra_cc_9634_doubles(self, fig3_panels):
        # "a 2× latency increase when approaching the max bandwidth".
        for sweep in fig3_panels["b"].values():
            assert sweep.mean_rise() == pytest.approx(2.0, abs=0.35)

    def test_c_if_inter_cc_7302_is_flat(self, fig3_panels):
        for sweep in fig3_panels["c"].values():
            assert sweep.mean_rise() < 1.05

    def test_d_gmi_7302(self, fig3_panels):
        read, write = _read_write(fig3_panels["d"])
        assert read.base.stats.mean == pytest.approx(123.7, rel=0.03)
        assert read.peak.stats.mean == pytest.approx(172.5, rel=0.05)
        assert write.peak.stats.mean == pytest.approx(153.5, rel=0.08)
        assert read.peak.stats.p999 > read.base.stats.p999

    def test_e_gmi_9634_write_blowup(self, fig3_panels):
        read, write = _read_write(fig3_panels["e"])
        assert read.base.stats.mean == pytest.approx(143.7, rel=0.03)
        assert read.peak.stats.mean == pytest.approx(249.5, rel=0.06)
        # The paper's headline write blowup: 144.1 → 695.8 ns average.
        assert write.peak.stats.mean == pytest.approx(695.8, rel=0.06)
        assert write.peak.stats.p999 > 1.2 * write.peak.stats.mean

    def test_f_plink_cxl_9634_rises(self, fig3_panels):
        # "1.7/1.4× and 2.1/1.6× average/tail read and write latency
        # increases".
        read, write = _read_write(fig3_panels["f"])
        assert read.mean_rise() == pytest.approx(1.7, abs=0.15)
        assert read.tail_rise() == pytest.approx(1.4, abs=0.15)
        assert write.mean_rise() == pytest.approx(2.1, abs=0.2)
        assert write.tail_rise() == pytest.approx(1.6, abs=0.2)


# ------------------------------------------------------------------ Figure 4

@pytest.fixture(scope="module")
def fig4_results(p7302, p9634):
    return [fig4.run(p7302), fig4.run(p9634)]


class TestFig4:
    def test_links_per_platform(self, fig4_results):
        assert set(fig4_results[0].outcomes) == {"if", "gmi"}
        assert set(fig4_results[1].outcomes) == {"if", "gmi", "plink"}

    def test_case1_everyone_gets_demand(self, fig4_results):
        for result in fig4_results:
            for cases in result.outcomes.values():
                outcome = cases["case1-undersubscribed"]
                assert not outcome.oversubscribed
                for flow, requested in outcome.requested.items():
                    assert outcome.achieved[flow] == pytest.approx(requested)

    def test_case2_aggressive_beats_equal_share(self, fig4_results):
        for result in fig4_results:
            for cases in result.outcomes.values():
                outcome = cases["case2-small-vs-aggressive"]
                assert outcome.achieved["flow1"] > outcome.equal_share()

    def test_case3_equilibrium(self, fig4_results):
        for result in fig4_results:
            for cases in result.outcomes.values():
                outcome = cases["case3-equal-demands"]
                assert outcome.achieved["flow0"] == pytest.approx(
                    outcome.achieved["flow1"]
                )
                assert outcome.achieved["flow0"] == pytest.approx(
                    outcome.equal_share()
                )

    def test_case4_higher_demand_wins(self, fig4_results):
        for result in fig4_results:
            for cases in result.outcomes.values():
                outcome = cases["case4-unequal-demands"]
                assert outcome.achieved["flow1"] > outcome.achieved["flow0"]
                assert outcome.achieved["flow1"] > outcome.equal_share()

    def test_capacity_never_exceeded(self, fig4_results):
        for result in fig4_results:
            for cases in result.outcomes.values():
                for outcome in cases.values():
                    total = sum(outcome.achieved.values())
                    assert total <= outcome.capacity_gbps * (1 + 1e-9)

    def test_plink_requires_cxl(self, p7302):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            fig4.link_capacity_gbps(p7302, "plink")

    def test_render(self, fig4_results):
        text = fig4.render(fig4_results)
        assert "case2-small-vs-aggressive" in text
        assert "EPYC 9634" in text


# ------------------------------------------------------------------ Figure 5

class TestFig5:
    def test_9634_if_harvest_100ms(self, p9634):
        result = fig5.run(p9634, "if")
        assert result.harvest_delay_s == pytest.approx(0.1, abs=0.03)

    def test_9634_plink_harvest_500ms(self, p9634):
        result = fig5.run(p9634, "plink")
        assert result.harvest_delay_s == pytest.approx(0.5, abs=0.1)

    def test_7302_if_oscillates(self, p7302, p9634):
        noisy = fig5.run(p7302, "if")
        smooth = fig5.run(p9634, "if")
        assert noisy.variation_gbps > 3 * smooth.variation_gbps

    def test_harvested_bandwidth_is_the_freed_share(self, p9634):
        result = fig5.run(p9634, "if")
        series = result.traces["flow1"].achieved_series()
        capacity = result.scenario.capacity_gbps
        # Late in the throttle window flow 1 holds C/2 + 2.
        assert series.mean_between(2.7, 3.0) == pytest.approx(
            capacity / 2 + 2.0, abs=0.2
        )

    def test_equal_share_restored_after_throttle(self, p9634):
        result = fig5.run(p9634, "if")
        series = result.traces["flow1"].achieved_series()
        capacity = result.scenario.capacity_gbps
        assert series.mean_between(5.5, 6.0) == pytest.approx(
            capacity / 2, abs=0.3
        )

    def test_flow0_keeps_paced_rate(self, p9634):
        result = fig5.run(p9634, "if")
        series = result.traces["flow0"].achieved_series()
        capacity = result.scenario.capacity_gbps
        assert series.mean_between(2.2, 3.0) == pytest.approx(
            capacity / 2 - 2.0, abs=0.2
        )

    def test_unknown_link_rejected(self, p9634):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            fig5.run(p9634, "sata")

    def test_plink_requires_cxl(self, p7302):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            fig5.scenario_for(p7302, "plink")


# ------------------------------------------------------------------ Figure 6

@pytest.fixture(scope="module")
def fig6_result(p9634):
    return fig6.run(p9634)


class TestFig6:
    def test_16_curves(self, fig6_result):
        assert len(fig6_result.curves) == 16

    def test_if_intra_cc_knees_match_paper(self, fig6_result):
        write_vs_read = fig6_result.curve(
            "if-intra-cc", OpKind.NT_WRITE, OpKind.READ
        )
        read_vs_read = fig6_result.curve(
            "if-intra-cc", OpKind.READ, OpKind.READ
        )
        assert write_vs_read.knee_gbps == pytest.approx(32.8, abs=1.0)
        assert read_vs_read.knee_gbps == pytest.approx(27.7, abs=1.0)

    def test_background_writes_mostly_harmless_intra_cc(self, fig6_result):
        curve = fig6_result.curve("if-intra-cc", OpKind.READ, OpKind.NT_WRITE)
        assert curve.knee_gbps is None

    def test_inter_cc_read_aggregate_55_7(self, fig6_result):
        curve = fig6_result.curve("if-inter-cc", OpKind.READ, OpKind.READ)
        assert curve.knee_aggregate_gbps == pytest.approx(55.7, abs=1.5)

    def test_inter_cc_writes_never_affected(self, fig6_result):
        for y_op in (OpKind.READ, OpKind.NT_WRITE):
            curve = fig6_result.curve("if-inter-cc", OpKind.NT_WRITE, y_op)
            assert curve.knee_gbps is None

    def test_gmi_aggregates(self, fig6_result):
        read = fig6_result.curve("gmi", OpKind.READ, OpKind.READ)
        write = fig6_result.curve("gmi", OpKind.NT_WRITE, OpKind.NT_WRITE)
        assert read.knee_aggregate_gbps == pytest.approx(31.8, abs=1.0)
        assert write.knee_aggregate_gbps == pytest.approx(29.1, abs=1.0)

    def test_plink_aggregates(self, fig6_result):
        read = fig6_result.curve("plink-cxl", OpKind.READ, OpKind.READ)
        write = fig6_result.curve(
            "plink-cxl", OpKind.NT_WRITE, OpKind.NT_WRITE
        )
        assert read.knee_aggregate_gbps == pytest.approx(62.8, abs=1.5)
        assert write.knee_aggregate_gbps == pytest.approx(44.0, abs=1.5)

    def test_x_flat_before_knee_then_declines(self, fig6_result):
        curve = fig6_result.curve("if-inter-cc", OpKind.READ, OpKind.READ)
        flat = [
            x for y, x in zip(curve.y_offered, curve.x_achieved)
            if curve.knee_gbps and y < curve.knee_gbps - 1
        ]
        assert all(x == pytest.approx(curve.baseline) for x in flat)
        assert curve.x_achieved[-1] < curve.baseline

    def test_every_knee_is_flat_before_and_declines_after(self, p9634):
        # X holds its solo bandwidth before the knee and declines after,
        # on every curve that has a knee, at a fine sweep.
        for curve in fig6.run(p9634, points=80).curves:
            if curve.knee_gbps is None:
                continue
            before = [
                x for y, x in zip(curve.y_offered, curve.x_achieved)
                if y < curve.knee_gbps - 1.0
            ]
            after = [
                x for y, x in zip(curve.y_offered, curve.x_achieved)
                if y > curve.knee_gbps + 2.0
            ]
            assert all(
                x == pytest.approx(curve.baseline, rel=0.03) for x in before
            ), curve
            if after:
                assert min(after) < curve.baseline

    def test_requires_cxl_platform(self, p7302):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            fig6.scenarios_for(p7302)

    def test_render(self, fig6_result):
        text = fig6.render(fig6_result)
        assert "if-intra-cc" in text
        assert "knee" in text


# ------------------------------------------------------------------ Ablations

def detailed_vs_collapsed_noc(platform, size_bytes: int = CACHELINE) -> Dict[str, float]:
    """Unloaded mesh traversal: hop-by-hop DES minus the analytic collapse.

    The detailed network adds per-hop serialization (bytes/port-rate) that
    the analytic model folds into the path's fixed service deduction, so
    the comparison subtracts it explicitly.
    """
    lat = platform.spec.latency
    mesh = Mesh(
        width=platform.spec.mesh_grid[0],
        height=platform.spec.mesh_grid[1],
        x_hop_ns=lat.x_hop_ns,
        y_hop_ns=lat.y_hop_ns,
        turn_ns=lat.turn_ns,
    )
    env = Environment()
    port_gbps = platform.spec.bandwidth.noc_read_gbps / platform.spec.ccd_count
    network = MeshNetwork(env, mesh, port_gbps=port_gbps)
    src = platform.ccds[0].coord
    results: Dict[str, float] = {}
    for position in Position:
        umcs = platform.umcs_at(0, position)
        if not umcs:
            continue
        dst = umcs[0].coord
        done = env.process(network.send(src, dst, size_bytes))
        measured = env.run(done)
        hops = mesh.hop_count(src, dst)
        serialization = hops * size_bytes / port_gbps
        analytic = mesh.cost_ns(src, dst)
        detailed = measured - serialization
        # Express-channel (negative turn) credit is analytic-only.
        if mesh.turn_ns < 0 and mesh.turns(src, dst):
            detailed += mesh.turn_ns
        results[position.value] = detailed - analytic
    return results


def token_pool_ablation(
    platform, transactions_per_core: int = 400, seed: int = 0
) -> Dict[str, Dict[str, float]]:
    """GMI saturation with and without the traffic-control modules.

    End-to-end latency is conserved (Little's law: the in-flight requests
    wait *somewhere*), but the token pools move the backlog from the I/O
    die's buffers to the chiplet edge: what the Phantom-Queue-like
    "queueless structure … tokens and backpressure" of §3.2 is for.
    Returns, per variant, the mean latency and the deepest I/O-die-side
    (GMI) backlog.
    """
    spec = StreamSpec(
        "probe", OpKind.READ,
        tuple(c.core_id for c in platform.cores_of_ccd(0)),
    )
    spec = replace(spec, endpoints=FabricModel(platform).endpoints_of(spec))
    out: Dict[str, Dict[str, float]] = {}
    for label, use_pools in (("with_tokens", True), ("without_tokens", False)):
        env = Environment()
        resolver = PathResolver(env, platform, seed=seed)
        executor = TransactionExecutor(env)
        issuer = lower_stream(
            env, executor, resolver, spec,
            window=platform.spec.bandwidth.mlp_read,
            count_per_worker=transactions_per_core,
        )
        if not use_pools:
            # Unstarted: the workers read their paths when the run starts.
            issuer.paths = tuple(
                replace(path, tokens=[]) for path in issuer.paths
            )
        result = issuer.run()
        gmi = resolver.gmi_arbiter(0)
        out[label] = {
            "mean_latency_ns": result.stats.mean,
            "gmi_max_backlog": float(gmi.read_dir.max_queue_len),
        }
    return out


class TestAblations:
    def test_manager_restores_fairness_case4(self, p9634):
        out = ablations.manager_vs_sender_driven(p9634)
        ablation = out["case4-unequal-demands"]
        sender_fair, managed_fair = ablation.fairness()
        assert managed_fair > sender_fair
        assert managed_fair == pytest.approx(1.0)

    def test_manager_protects_small_flow_case2(self, p9634):
        out = ablations.manager_vs_sender_driven(p9634)
        ablation = out["case2-small-vs-aggressive"]
        assert ablation.managed["flow0"] == pytest.approx(
            ablation.requested["flow0"]
        )
        assert ablation.sender_driven["flow0"] < ablation.requested["flow0"]

    def test_detailed_noc_matches_collapsed_model(self, platform):
        deltas = detailed_vs_collapsed_noc(platform)
        for position, delta in deltas.items():
            assert abs(delta) < 1e-9, position

    def test_token_pools_move_backlog_off_the_io_die(self, p7302):
        out = token_pool_ablation(p7302, transactions_per_core=200)
        assert (
            out["with_tokens"]["gmi_max_backlog"]
            < out["without_tokens"]["gmi_max_backlog"]
        )
        # Little's law: end-to-end latency is roughly conserved.
        assert out["with_tokens"]["mean_latency_ns"] == pytest.approx(
            out["without_tokens"]["mean_latency_ns"], rel=0.1
        )
