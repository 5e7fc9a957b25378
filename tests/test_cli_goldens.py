"""Every artifact subcommand's stdout, pinned byte for byte.

Each case runs one ``repro`` command line in process at reduced sizes,
uncached and serial, and compares its stdout with the committed
``tests/goldens/cli/<case>.txt``. Kinds that take a platform run at
``--platform all`` (several of them render every platform into one table),
and the direct-door tails (``chaos --recover``, ``kvstore --engine des``)
ride along. ``pytest --update-goldens`` rewrites the files from the current
code; a refresh is a deliberate change of some artifact, so say which and
why wherever the change is recorded.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN_DIR = Path(__file__).parent / "goldens" / "cli"

#: (case name, argv) — sizes chosen so the whole tier runs in seconds.
CASES = [
    ("table1", ["table1"]),
    ("table2", ["table2", "--iterations", "60"]),
    ("table3", ["table3"]),
    ("fig3", ["fig3", "--transactions", "20"]),
    ("fig4", ["fig4"]),
    ("fig5", ["fig5"]),
    ("fig5-all", ["fig5", "--platform", "all"]),
    ("fig6", ["fig6"]),
    ("fig6-all", ["fig6", "--platform", "all"]),
    ("fig6-7302", ["fig6", "--platform", "7302"]),
    ("suite", ["suite"]),
    ("suite-synthetic", ["suite", "--platform", "synthetic"]),
    ("os-scaling", ["os-scaling"]),
    ("accel", ["accel", "--dispatch-jobs", "2"]),
    ("accel-all", ["accel", "--platform", "all", "--dispatch-jobs", "2"]),
    ("sharded", ["sharded", "--transactions", "20"]),
    ("sharded-all", ["sharded", "--platform", "all", "--transactions", "20"]),
    ("sharded-shards-2", [
        "sharded", "--engine", "sharded", "--shards", "2",
        "--transactions", "20",
    ]),
    ("devtree", ["devtree"]),
    ("io-relay", ["io-relay"]),
    ("collective", ["collective"]),
    ("noc-routing", ["noc-routing"]),
    ("core-to-core", ["core-to-core"]),
    ("patterns", ["patterns"]),
    ("netstack-all", [
        "netstack", "--platform", "all", "--transactions", "20",
    ]),
    ("chaos-all", ["chaos", "--platform", "all", "--transactions", "20"]),
    ("chaos-recover", ["chaos", "--transactions", "20", "--recover"]),
    ("trace-netstack-all", [
        "trace", "netstack", "--platform", "all", "--samples", "10",
        "--out", "-",
    ]),
    ("trace-table2-all", [
        "trace", "table2", "--platform", "all", "--samples", "10",
        "--out", "-",
    ]),
    ("kvstore-all", ["kvstore", "--platform", "all", "--requests", "300"]),
    ("kvstore-des", [
        "kvstore", "--platform", "7302", "--engine", "des",
        "--requests", "100",
    ]),
    ("explore", [
        "explore", "--topology", "squeeze-3x2", "--packets", "5",
    ]),
    ("all-quick", ["all", "--quality", "quick"]),
]


@pytest.mark.parametrize(
    "name, argv", CASES, ids=[name for name, __ in CASES]
)
def test_stdout_matches_golden(name, argv, capsys, update_goldens):
    assert main(argv + ["--no-cache", "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    path = GOLDEN_DIR / f"{name}.txt"
    if update_goldens:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(out, encoding="utf-8")
        return
    assert out == path.read_text(encoding="utf-8"), name
