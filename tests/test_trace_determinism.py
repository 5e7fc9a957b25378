"""``repro trace`` determinism: byte-identical output for any --jobs/cache.

The acceptance property of the traced cells: a recording is a pure
function of the cell's arguments, the hardened runner returns cells in
submission order, and the exporter serializes deterministically — so the
stdout report and the Perfetto JSON file must be byte-identical whether
the cells ran inline, fanned out over worker processes, or came back from
the content-addressed result cache.
"""

import pytest

from repro.cli import main

_ARGS = ["trace", "netstack", "--platform", "7302", "--samples", "12"]


def _run(capsys, tmp_path, tag, *extra):
    out_path = tmp_path / f"{tag}.json"
    assert main([*_ARGS, "--out", str(out_path), *extra]) == 0
    stdout = capsys.readouterr().out
    # The report names the written file; normalize the run-specific path
    # so the rest of the bytes must match exactly.
    stdout = stdout.replace(str(out_path), "<out>")
    return stdout, out_path.read_bytes()


class TestJobsInvariance:
    @pytest.fixture(scope="class")
    def baseline(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("trace-j1")
        out_path = tmp / "base.json"
        assert main([*_ARGS, "--out", str(out_path), "--jobs", "1"]) == 0
        return str(out_path), out_path.read_bytes()

    @pytest.mark.parametrize("jobs", ["2", "4"])
    def test_trace_bytes_identical_across_jobs(
        self, capsys, tmp_path, baseline, jobs
    ):
        capsys.readouterr()  # drop the baseline fixture's buffered output
        stdout, payload = _run(capsys, tmp_path, f"j{jobs}", "--jobs", jobs)
        assert payload == baseline[1]
        assert "netstack/off" in stdout and "tiles exactly" in stdout

    def test_stdout_identical_across_jobs(self, capsys, tmp_path):
        runs = [
            _run(capsys, tmp_path, f"s{jobs}", "--jobs", jobs)
            for jobs in ("1", "2")
        ]
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]


class TestCacheInvariance:
    def test_cache_miss_then_hit_byte_identical(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        cold = _run(capsys, tmp_path, "miss")  # populates the cache
        warm = _run(capsys, tmp_path, "hit", "--jobs", "3")
        assert cold == warm
        uncached = None
        monkeypatch.setenv("REPRO_CACHE", "0")
        uncached = _run(capsys, tmp_path, "nocache")
        assert uncached == cold

    def test_no_cache_flag_matches_cached(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        cached = _run(capsys, tmp_path, "cached")
        flagged = _run(capsys, tmp_path, "flagged", "--no-cache")
        assert cached == flagged


class TestCliSurface:
    def test_out_dash_writes_no_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main([*_ARGS, "--out", "-"]) == 0
        stdout = capsys.readouterr().out
        assert "wrote" not in stdout
        assert list(tmp_path.iterdir()) == []

    def test_default_out_name(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(_ARGS) == 0
        assert (tmp_path / "trace-netstack-epyc-7302.json").exists()
        assert "wrote trace-netstack-epyc-7302.json" in capsys.readouterr().out

    def test_out_file_with_multiple_platforms_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "trace", "netstack", "--platform", "all",
                "--samples", "12", "--out", str(tmp_path / "t.json"),
            ])

    @pytest.mark.parametrize("bad", ["5", "0", "-3", "bogus"])
    def test_bad_samples_is_a_clean_usage_error(self, capsys, bad):
        """Bad --samples is a usage error (exit 2), no traceback leaks.

        argparse rejects a non-integer; the registry normalizer, which
        ``repro submit trace`` shares, rejects an integer below 10.
        """
        with pytest.raises(SystemExit) as exc:
            main(["trace", "netstack", "--samples", bad])
        assert exc.value.code == 2
        expected = (
            "--samples" if bad == "bogus" else "params.samples must be >= 10"
        )
        assert expected in capsys.readouterr().err
