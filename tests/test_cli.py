"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_platform_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["table3", "--platform", "xeon"])

    def test_known_commands_parse(self):
        parser = build_parser()
        for command in (
            "table1", "table2", "table3", "fig3", "fig4", "fig5", "fig6",
            "suite", "os-scaling", "accel", "chaos", "devtree", "io-relay",
            "collective", "noc-routing", "core-to-core", "patterns",
            "netstack",
        ):
            args = parser.parse_args([command])
            assert args.command == command

    def test_every_kind_is_a_subcommand_of_both_doors(self):
        from repro.cli import _KIND_COMMANDS
        from repro.service.registry import KINDS

        assert list(_KIND_COMMANDS) == list(KINDS)
        parser = build_parser()
        for kind in KINDS:
            positional = ["netstack"] if kind == "trace" else []
            assert parser.parse_args([kind] + positional).command == kind
            assert parser.parse_args(["submit", kind]).kind == kind


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Zen 2" in out and "Zen 4" in out

    def test_table3_single_platform(self, capsys):
        assert main(["table3", "--platform", "7302"]) == 0
        out = capsys.readouterr().out
        assert "From CPU" in out
        assert "EPYC 9634" not in out

    def test_table2_reduced(self, capsys):
        assert main([
            "table2", "--platform", "7302", "--iterations", "300"
        ]) == 0
        out = capsys.readouterr().out
        assert "DRAM near" in out

    def test_table2_synthetic_has_na_paper_cells(self, capsys):
        # The paper measured only the two EPYC parts: a preset it did not
        # measure gets N/A paper cells, as in Table 3.
        assert main([
            "table2", "--platform", "synthetic", "--iterations", "60",
            "--jobs", "1", "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "Synthetic UCIe (paper)" in out
        rows = [line for line in out.splitlines() if line.startswith("L1 ")]
        assert rows and rows[0].rstrip().endswith("N/A")

    def test_fig3_synthetic_is_a_usage_error_at_both_doors(self, capsys):
        errors = []
        for argv in (
            ["fig3", "--platform", "synthetic"],
            ["submit", "fig3", "--platform", "synthetic", "--local"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv + ["--no-cache"])
            assert excinfo.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1]
        assert "error: no Figure 3 panels for Synthetic UCIe" in errors[0]

    def test_too_many_shards_is_a_usage_error_at_both_doors(self, capsys):
        errors = []
        for argv in (
            ["sharded", "--shards", "13"],
            ["submit", "sharded", "--shards", "13", "--local"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv + ["--no-cache"])
            assert excinfo.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1]
        assert "shard count must be in [1, 12]" in errors[0]

    def test_fig4(self, capsys):
        assert main(["fig4", "--platform", "9634"]) == 0
        out = capsys.readouterr().out
        assert "case3-equal-demands" in out

    def test_fig5_default_platform(self, capsys):
        assert main(["fig5"]) == 0
        out = capsys.readouterr().out
        assert "harvest delay" in out

    def test_fig6(self, capsys):
        assert main(["fig6"]) == 0
        out = capsys.readouterr().out
        assert "if-intra-cc" in out

    def test_zero_cell_platform_says_its_section_is_empty(self, capsys):
        # fig6 and accel build no cells on a preset without CXL: stdout
        # stays one empty line and the exit 0, and stderr says why, once
        # per such platform.
        assert main(["fig6", "--platform", "7302", "--no-cache"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "\n"
        assert (
            "[repro] fig6: nothing to run on 7302; its section is empty\n"
            in captured.err
        )
        assert main([
            "accel", "--platform", "all", "--dispatch-jobs", "2",
            "--no-cache", "--jobs", "1",
        ]) == 0
        captured = capsys.readouterr()
        assert "unmanaged" in captured.out
        notes = [
            line for line in captured.err.splitlines()
            if "nothing to run" in line
        ]
        assert notes == [
            "[repro] accel: nothing to run on 7302; its section is empty"
        ]

    def test_os_scaling(self, capsys):
        assert main(["os-scaling", "--platform", "7302"]) == 0
        out = capsys.readouterr().out
        assert "multikernel" in out

    def test_devtree(self, capsys):
        assert main(["devtree", "--platform", "synthetic"]) == 0
        out = capsys.readouterr().out
        assert "chiplet-net {" in out

    def test_accel(self, capsys):
        assert main(["accel", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "unmanaged" in out and "managed" in out

    def test_io_relay(self, capsys):
        assert main(["io-relay", "--platform", "7302"]) == 0
        out = capsys.readouterr().out
        assert "cpu-copy" in out

    def test_collective(self, capsys):
        assert main(["collective", "--platform", "9634"]) == 0
        out = capsys.readouterr().out
        assert "ring beats tree" in out

    def test_noc_routing(self, capsys):
        assert main(["noc-routing", "--platform", "7302"]) == 0
        out = capsys.readouterr().out
        assert "deflections/pkt" in out

    def test_core_to_core(self, capsys):
        assert main(["core-to-core", "--platform", "7302"]) == 0
        out = capsys.readouterr().out
        assert "handoff latency" in out

    def test_suite_synthetic(self, capsys):
        assert main(["suite", "--platform", "synthetic"]) == 0
        out = capsys.readouterr().out
        assert "practical guidelines" in out


class TestChaos:
    def test_sweep_renders_degradation_table(self, capsys):
        assert main(["chaos", "--platform", "7302"]) == 0
        out = capsys.readouterr().out
        assert "graceful degradation" in out
        assert "0.00" in out and "1.00" in out

    def test_platform_alias_accepted(self, capsys):
        assert main(["chaos", "--platform", "epyc7302", "--severity", "0"]) == 0
        out = capsys.readouterr().out
        assert "EPYC 7302" in out

    def test_severity_zero_byte_identical_to_healthy_baseline(self, capsys):
        # The acceptance criterion: a severity-0 chaos run produces exactly
        # the indicators a run with no fault machinery would.
        from repro.core.fabric import FabricModel
        from repro.core.flows import Scope, StreamSpec
        from repro.core.microbench import MicroBench
        from repro.experiments.chaos import _VICTIM_DEMAND_GBPS
        from repro.platform.presets import epyc_7302
        from repro.transport.message import OpKind

        assert main(["chaos", "--platform", "epyc7302", "--severity", "0"]) == 0
        row = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("0.00")
        ][0]
        cells = [cell.strip() for cell in row.split("|")]

        platform = epyc_7302()
        fabric = FabricModel(platform)
        cpu_cores = StreamSpec.cores_for_scope(platform, Scope.CPU)
        scan = StreamSpec("scan", OpKind.READ, cpu_cores)
        victim_cores = tuple(c.core_id for c in platform.cores_of_ccd(0))
        victim = StreamSpec(
            "victim", OpKind.READ, victim_cores,
            demand_gbps=_VICTIM_DEMAND_GBPS,
        )
        hog_cores = tuple(c.core_id for c in platform.cores_of_ccd(1))
        hog = StreamSpec("hog", OpKind.READ, hog_cores)
        result = MicroBench(platform, seed=0).loaded_latency(
            list(victim_cores), OpKind.READ, offered_gbps=None,
            transactions_per_core=200,
        )
        expected = [
            "0.00",
            f"{fabric.achieved_gbps([scan])['scan']:.1f}",
            fabric.binding_channel([scan]) or "-",
            f"{fabric.achieved_gbps([victim, hog])['victim'] / _VICTIM_DEMAND_GBPS:.3f}",
            f"{result.stats.mean:.1f}",
            f"{result.stats.p999:.1f}",
        ]
        assert cells == expected


class TestNetstack:
    def test_single_arm_renders_both_backends(self, capsys):
        assert main([
            "netstack", "--platform", "7302", "--arm", "off",
            "--transactions", "60",
        ]) == 0
        out = capsys.readouterr().out
        assert "Netstack" in out
        assert "fluid" in out and "des" in out

    def test_unknown_arm_rejected(self):
        with pytest.raises(SystemExit):
            main(["netstack", "--arm", "turbo"])


class TestCsvExport:
    def test_fig3_csv(self, capsys, tmp_path):
        out_dir = tmp_path / "artifacts"
        assert main([
            "fig3", "--platform", "7302", "--transactions", "150",
            "--csv", str(out_dir),
        ]) == 0
        files = sorted(p.name for p in out_dir.glob("*.csv"))
        assert "fig3_a_read.csv" in files
        assert "fig3_d_nt-write.csv" in files
        header = (out_dir / "fig3_a_read.csv").read_text().splitlines()[0]
        assert header == "offered_gbps,achieved_gbps,avg_ns,p999_ns"

    def test_patterns(self, capsys):
        assert main(["patterns", "--platform", "7302"]) == 0
        out = capsys.readouterr().out
        assert "pointer-chase" in out


class TestCacheCLI:
    @pytest.fixture(autouse=True)
    def _isolated_cache(self, tmp_path, monkeypatch):
        # Point the default store into the sandbox and restore the
        # unset process default afterwards.
        import repro.cache as cache_module

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        yield tmp_path / "store"
        cache_module._default = cache_module._UNSET

    def test_stats_on_empty_store(self, capsys):
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries: 0" in out
        assert "store" in out

    def test_clear_reports_count(self, capsys, tmp_path):
        from repro.cache import ResultCache

        store = tmp_path / "explicit"
        cache = ResultCache(store)
        cache.put("ab" + "0" * 62, {"answer": 42})
        assert main(["cache", "clear", "--dir", str(store)]) == 0
        out = capsys.readouterr().out
        assert "cleared 1 cached result(s)" in out
        assert cache.stats().entries == 0

    def test_no_cache_flag_accepted_everywhere(self):
        parser = build_parser()
        for command in ("fig5", "fig6", "netstack", "chaos", "table2"):
            args = parser.parse_args([command, "--no-cache"])
            assert args.no_cache

    def test_cached_rerun_is_byte_identical(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        argv = [
            "netstack", "--platform", "7302", "--arm", "off",
            "--transactions", "40",
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert warm == cold
        assert main(argv + ["--no-cache"]) == 0
        uncached = capsys.readouterr().out
        assert uncached == cold

    def test_cached_rerun_populates_store(self, capsys, monkeypatch, _isolated_cache):
        from repro.cache import ResultCache

        monkeypatch.setenv("REPRO_CACHE", "1")
        argv = [
            "chaos", "--platform", "7302", "--severity", "0",
            "--transactions", "30",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        store = ResultCache(_isolated_cache)
        populated = store.stats().entries
        assert populated > 0
        assert main(argv) == 0
        capsys.readouterr()
        assert store.stats().entries == populated  # pure hits, no new work


class TestServiceCLI:
    @pytest.fixture(autouse=True)
    def _reset_default_cache(self, monkeypatch):
        # submit/serve paths install a process default; restore the
        # "never explicitly set" state afterwards.
        import repro.cache as cache_module

        monkeypatch.setenv("REPRO_CACHE", "0")
        yield
        cache_module._default = cache_module._UNSET

    def test_service_commands_parse(self):
        parser = build_parser()
        assert parser.parse_args(["serve", "--max-depth", "4"]).command == "serve"
        args = parser.parse_args([
            "submit", "netstack", "--arm", "off", "--priority", "2",
            "--local", "--transactions", "40",
        ])
        assert args.command == "submit"
        assert args.kind == "netstack" and args.priority == 2 and args.local
        assert parser.parse_args(["jobs"]).command == "jobs"

    def test_uniform_flags_on_service_and_cache_commands(self):
        # --no-cache and --jobs are accepted uniformly, including on the
        # maintenance commands that run no cells.
        parser = build_parser()
        for argv in (
            ["cache", "stats"],
            ["serve"],
            ["submit", "netstack"],
            ["jobs"],
        ):
            args = parser.parse_args(argv + ["--no-cache", "--jobs", "2"])
            assert args.no_cache and args.jobs == 2

    def test_submit_unknown_kind_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "nope"])

    def test_submit_has_no_variant_flags(self, capsys):
        # The shard count and the recovery arm belong to their own kinds
        # (`submit sharded --shards`, the direct `chaos --recover`); a
        # netstack submit takes neither.
        for flag in (["--shards", "2"], ["--recover"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["submit", "netstack", "--local"] + flag)
            assert excinfo.value.code == 2
            assert flag[0] in capsys.readouterr().err

    def test_submit_explore_takes_no_platform(self, capsys):
        # Like `repro explore`: its cells bring their own platforms, so a
        # --platform would only repeat the sweep once per platform.
        with pytest.raises(SystemExit) as excinfo:
            main(["submit", "explore", "--platform", "all", "--local"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--platform" in captured.err

    def test_submit_local_matches_direct_command(self, capsys):
        # `repro <kind>` and `repro submit <kind> --local` build the same
        # normalized specs and run the same cells: stdout is byte-identical
        # for every kind, side-by-side tables at --platform all included.
        from repro.service.registry import KINDS

        cases = (
            ["table1"],
            ["table2", "--platform", "all", "--iterations", "60"],
            ["table3", "--platform", "7302"],
            ["fig3", "--platform", "7302", "--transactions", "20"],
            ["fig4", "--platform", "all"],
            ["fig5", "--platform", "all"],
            ["fig6", "--platform", "all"],
            ["suite", "--platform", "7302"],
            ["os-scaling", "--platform", "all"],
            ["accel", "--dispatch-jobs", "2"],
            ["chaos", "--severity", "0.5", "--transactions", "20"],
            ["netstack", "--platform", "7302", "--arm", "off",
             "--transactions", "40"],
            ["sharded", "--platform", "7302", "--transactions", "20"],
            ["trace", "table2", "--samples", "10", "--out", "-"],
            ["kvstore", "--platform", "9634", "--requests", "300"],
            ["explore", "--topology", "squeeze-3x2", "--routing", "xy",
             "--workload", "contention", "--packets", "5"],
            ["devtree", "--platform", "7302"],
            ["io-relay"],
            ["collective"],
            ["noc-routing", "--platform", "7302"],
            ["core-to-core"],
            ["patterns", "--platform", "all"],
        )
        assert [case[0] for case in cases] == list(KINDS)
        for direct in cases:
            # trace's cell is a positional on the direct door; --out is
            # direct-only (it writes the Perfetto file).
            submitted = (
                ["trace", "--cell", "table2", "--samples", "10"]
                if direct[0] == "trace" else direct
            )
            assert main(direct) == 0
            direct_out = capsys.readouterr().out
            assert main(["submit"] + submitted + ["--local"]) == 0
            captured = capsys.readouterr()
            assert captured.out == direct_out, direct[0]
            assert "local" in captured.err

    @pytest.mark.parametrize("kind, flags", [
        ("netstack", ["--transactions", "0"]),
        ("chaos", ["--transactions", "0"]),
        ("kvstore", ["--requests", "5"]),
        ("kvstore", ["--qps", "-5"]),
        ("kvstore", ["--qps", "nan"]),
        ("kvstore", ["--qps", "inf"]),
        ("explore", ["--packets", "0"]),
        ("table2", ["--iterations", "0"]),
        ("fig3", ["--transactions", "0"]),
        ("accel", ["--dispatch-jobs", "0"]),
        ("sharded", ["--transactions", "0"]),
    ], ids=[
        "netstack-transactions-0", "chaos-transactions-0",
        "kvstore-requests-5", "kvstore-qps-negative", "kvstore-qps-nan",
        "kvstore-qps-inf", "explore-packets-0", "table2-iterations-0",
        "fig3-transactions-0", "accel-dispatch-jobs-0",
        "sharded-transactions-0",
    ])
    def test_both_doors_reject_the_same_input(self, capsys, kind, flags):
        # One validator per kind: the registry normalizer range-checks
        # the direct subcommand's flags exactly as it does a submit's.
        errors = []
        for argv in ([kind] + flags, ["submit", kind, "--local"] + flags):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1]
        assert "error: params." in errors[0]

    @pytest.mark.parametrize("argv", [
        ["netstack", "--timeout", "0"],
        ["chaos", "--retries", "-1"],
        ["submit", "netstack", "--local", "--timeout", "0"],
    ], ids=["direct-timeout-0", "direct-retries-negative", "submit-timeout-0"])
    def test_bad_runner_knobs_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--transactions", "10"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: " in captured.err and "Traceback" not in captured.err

    def test_jobs_without_server_fails_cleanly(self, capsys, tmp_path):
        missing = str(tmp_path / "no-service.sock")
        assert main(["jobs", "--socket", missing]) == 1
        err = capsys.readouterr().err
        assert "no service listening" in err


class TestPlatformSpellings:
    @pytest.fixture(autouse=True)
    def _no_default_cache(self, monkeypatch):
        import repro.cache as cache_module

        monkeypatch.setenv("REPRO_CACHE", "0")
        yield
        cache_module._default = cache_module._UNSET

    @pytest.mark.parametrize(
        "command", [["netstack"], ["submit", "netstack", "--local"]],
        ids=["direct", "submit-local"],
    )
    @pytest.mark.parametrize(
        "spelling, canonical",
        [("SYNTHETIC", "synthetic"), (" 7302", "7302"), ("EPYC-7302", "7302")],
    )
    def test_spellings_resolve_through_one_table(
        self, capsys, command, spelling, canonical
    ):
        # A direct subcommand and `submit` share the registry's alias table:
        # case, padding and long names resolve alike in both.
        flags = ["--arm", "off", "--transactions", "20"]
        assert main(command + ["--platform", canonical] + flags) == 0
        expected = capsys.readouterr().out
        assert main(command + ["--platform", spelling] + flags) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize(
        "command", [["table1"], ["submit", "table1", "--local"]],
        ids=["direct", "submit-local"],
    )
    def test_unknown_platform_is_a_usage_error(self, capsys, command):
        # Like every other bad flag value: usage line, message, exit 2.
        with pytest.raises(SystemExit) as excinfo:
            main(command + ["--platform", "bogus"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro")
        assert "error: unknown platform 'bogus'" in err


class TestEnvValidation:
    def test_bad_jobs_env_is_a_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_JOBS", "banana")
        with pytest.raises(SystemExit) as excinfo:
            main(["table1"])
        assert excinfo.value.code == 2
        assert "$REPRO_JOBS" in capsys.readouterr().err

    def test_valid_env_values_accepted(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_JOBS", "auto")
        assert main(["table1"]) == 0
        assert "Zen 2" in capsys.readouterr().out
