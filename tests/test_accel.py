"""Tests for the accelerator dispatch subsystem (§4 #4)."""

import pytest

from repro.accel.device import AcceleratorJob, AcceleratorModel, JobTrace
from repro.accel.dispatch import DispatchSimulator, bulk_transfer
from repro.accel.switch import IntraHostSwitch
from repro.core.fabric import FabricModel
from repro.core.flows import StreamSpec
from repro.errors import ConfigurationError
from repro.sim.engine import Environment
from repro.transport.message import OpKind
from repro.transport.path import PathResolver
from repro.transport.transaction import TransactionExecutor


class TestAcceleratorModel:
    def test_kernel_time(self):
        accel = AcceleratorModel(launch_overhead_ns=1000.0, compute_gbps=100.0)
        assert accel.kernel_time_ns(10_000) == pytest.approx(1100.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AcceleratorModel(launch_overhead_ns=-1.0)
        with pytest.raises(ConfigurationError):
            AcceleratorModel(compute_gbps=0.0)

    def test_job_validation(self):
        with pytest.raises(ConfigurationError):
            AcceleratorJob(0, 64)


class TestJobTrace:
    def test_signal_and_data_split(self):
        trace = JobTrace(
            phases={
                "doorbell": 80.0,
                "descriptor_fetch": 140.0,
                "input_dma": 5000.0,
                "compute": 2000.0,
                "output_dma": 3000.0,
                "completion": 280.0,
            },
            start_ns=0.0,
            end_ns=10500.0,
        )
        assert trace.signal_ns == pytest.approx(500.0)
        assert trace.data_ns == pytest.approx(8000.0)
        assert trace.total_ns == pytest.approx(10500.0)


class TestBulkTransfer:
    def test_moves_all_bytes_pipelined(self, p9634):
        env = Environment()
        resolver = PathResolver(env, p9634, with_dram_jitter=False)
        executor = TransactionExecutor(env)
        umcs = sorted(p9634.umcs)

        def path_of(i):
            return resolver.dma_path(
                0, umcs[i % len(umcs)], op=OpKind.READ, size_bytes=4096
            )

        def run():
            elapsed = yield from bulk_transfer(
                env, executor, path_of, OpKind.READ,
                total_bytes=64 * 4096, chunk_bytes=4096, window=16,
            )
            return elapsed

        elapsed = env.run(env.process(run()))
        achieved_gbps = 64 * 4096 / elapsed
        plink = p9634.spec.bandwidth.p_link_read_gbps
        # Pipelined DMA sustains a healthy fraction of the P Link and never
        # exceeds it.
        assert 0.6 * plink <= achieved_gbps <= plink * 1.01

    def test_deeper_window_is_faster(self, p9634):
        def elapsed_with(window):
            env = Environment()
            resolver = PathResolver(env, p9634, with_dram_jitter=False)
            executor = TransactionExecutor(env)
            umcs = sorted(p9634.umcs)

            def path_of(i):
                return resolver.dma_path(
                    0, umcs[i % len(umcs)], op=OpKind.READ, size_bytes=4096
                )

            def run():
                result = yield from bulk_transfer(
                    env, executor, path_of, OpKind.READ,
                    total_bytes=64 * 4096, chunk_bytes=4096, window=window,
                )
                return result

            return env.run(env.process(run()))

        assert elapsed_with(16) < elapsed_with(2)

    def test_validation(self, p9634):
        env = Environment()
        executor = TransactionExecutor(env)
        with pytest.raises(ConfigurationError):
            next(bulk_transfer(env, executor, lambda __: None, OpKind.READ, 0))


class TestDispatchSimulator:
    def _simulate(self, platform, jobs=2):
        env = Environment()
        simulator = DispatchSimulator(
            env, platform, AcceleratorModel(), seed=1
        )
        job = AcceleratorJob(64 * 1024, 32 * 1024)
        return simulator.run_jobs([job] * jobs)

    def test_all_phases_present(self, p9634):
        traces = self._simulate(p9634)
        for trace in traces:
            assert set(trace.phases) == set(JobTrace.PHASE_ORDER)

    def test_unloaded_doorbell_latency(self, p9634):
        trace = self._simulate(p9634)[0]
        assert trace.phases["doorbell"] == pytest.approx(
            p9634.doorbell_latency_ns(0), rel=0.05
        )

    def test_data_plane_dominates(self, p9634):
        trace = self._simulate(p9634)[0]
        assert trace.data_ns > trace.signal_ns

    def test_total_is_sum_of_phases(self, p9634):
        trace = self._simulate(p9634)[0]
        assert trace.total_ns == pytest.approx(sum(trace.phases.values()))

    def test_dma_throughput_bounded_by_plink(self, p9634):
        trace = self._simulate(p9634)[0]
        achieved = 64 * 1024 / trace.phases["input_dma"]
        assert achieved <= p9634.spec.bandwidth.p_link_read_gbps * 1.05

    def test_missing_device_rejected(self, p9634):
        env = Environment()
        with pytest.raises(ConfigurationError):
            DispatchSimulator(
                env, p9634, AcceleratorModel(pcie_dev_id=99)
            )

    def test_works_on_7302_too(self, p7302):
        traces = self._simulate(p7302, jobs=1)
        assert traces[0].total_ns > 0


class TestIntraHostSwitch:
    def test_provision_paces_background(self, p9634):
        switch = IntraHostSwitch(FabricModel(p9634))
        cores = tuple(c.core_id for c in p9634.cores_of_ccd(0)[1:])
        switch.register_background(
            StreamSpec("bg", OpKind.NT_WRITE, cores, target="cxl")
        )
        plan = switch.provision(accelerator_demand_gbps=8.0)
        hub_write = p9634.spec.bandwidth.hub_port_write_gbps
        assert plan.rate_for("bg") == pytest.approx(hub_write - 8.0, abs=0.5)

    def test_duplicate_background_rejected(self, p9634):
        switch = IntraHostSwitch(FabricModel(p9634))
        cores = (p9634.cores_of_ccd(0)[1].core_id,)
        switch.register_background(StreamSpec("bg", OpKind.READ, cores))
        with pytest.raises(ConfigurationError):
            switch.register_background(StreamSpec("bg", OpKind.READ, cores))

    def test_provision_requires_background(self, p9634):
        switch = IntraHostSwitch(FabricModel(p9634))
        with pytest.raises(ConfigurationError):
            switch.provision(8.0)

    def test_unknown_stream_in_plan(self, p9634):
        switch = IntraHostSwitch(FabricModel(p9634))
        cores = (p9634.cores_of_ccd(0)[1].core_id,)
        switch.register_background(StreamSpec("bg", OpKind.READ, cores))
        plan = switch.provision(4.0)
        with pytest.raises(ConfigurationError):
            plan.rate_for("ghost")


class TestDispatchExperiment:
    def test_manager_protects_signal_plane(self, p9634):
        from repro.experiments import accel_dispatch
        from repro.runner import run_cells

        reports = {
            report.mode: report
            for report in run_cells(
                accel_dispatch.cells(p9634, dispatch_jobs=4), jobs=1
            )
        }
        unmanaged = reports["unmanaged"]
        managed = reports["managed"]
        # The switch restores signal latency to near-unloaded (≈506 ns);
        # unmanaged, it queues behind the background writes at the hub port.
        assert managed.mean_signal_ns < 0.6 * unmanaged.mean_signal_ns
        assert unmanaged.mean_signal_ns > 900.0
        assert managed.mean_signal_ns == pytest.approx(510.0, rel=0.1)
        # Work conservation: the data plane is not hurt by management.
        assert managed.mean_data_us == pytest.approx(
            unmanaged.mean_data_us, rel=0.1
        )
        # The background keeps its max-min grant, not zero.
        assert managed.background_rate_gbps > 0.3 * (
            p9634.spec.bandwidth.hub_port_write_gbps
        )

    def test_requires_cxl_platform(self, p7302):
        from repro.experiments import accel_dispatch

        with pytest.raises(ConfigurationError):
            accel_dispatch.run(p7302, managed=False)
