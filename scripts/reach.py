"""The reach probe: which src functions does anything but the tests enter?

Runs every entry point below with a call profiler in each Python process
it starts, then lists the functions under ``src/repro`` that none of them
entered, with their line counts. A function whose name appears only at
its definition and in ``tests/`` (not in any other src line, benchmark,
example or script) is marked ``tests-only``: nothing but its tests keeps
it.

Entry points:

* every ``repro`` argv of the CLI golden tier
  (``tests/test_cli_goldens.py::CASES``), in one process;
* ``repro trace netstack`` with its default sample count and output
  path, as docs/USAGE.md shows it;
* ``examples/*.py`` and ``scripts/*.py`` (this script excepted);
* each e2e workload with ``--quick``;
* ``repro all --quality full --no-cache --jobs 1``;
* the CLI doors those skip, on a scratch cache and socket: ``repro
  submit <kind> --local``; a ``repro serve`` daemon taking ``repro
  submit`` (a trace cell included), ``repro jobs`` and one cancel through
  ``ServiceClient.cancel``; ``repro fig3 --csv DIR``; ``repro trace ...
  --out FILE``; ``repro cache stats`` and ``repro cache clear``.

Functions kept on purpose are listed in ``scripts/reach_keep.txt``, one
``<file under src>::<qualified name>`` and a one-line reason per line; a
kept function covers the functions nested in it. The report marks an
unentered one ``kept`` instead of ``tests-only``, and names any entry that
matches no src function. The script exits 1 when an entry point fails,
when a function outside the keep-list is unentered, or when an entry
matches no function, so a clean run is the audit passing.

The profiler is a generated ``sitecustomize`` module put first on
``PYTHONPATH``. It calls ``sys.setprofile`` and ``threading.setprofile``
when the interpreter starts, so it runs in every process started with
that environment, daemons and spawned workers included, and a forked
runner worker keeps the profiler of the thread that forked it. Each
process appends one line per newly entered ``repro`` function to its own
file and flushes it at once, so a worker that leaves through
``os._exit`` loses nothing.

Run from the repository root; it takes a few minutes::

    make reach          # or: python scripts/reach.py

:func:`stale_entries` and :func:`unkept_tests_only` are the half that
needs no run; ``tests/test_reach.py`` checks them in tier-1.
"""

from __future__ import annotations

import ast
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tokenize
from collections import Counter
from pathlib import Path
from typing import Dict, List, NamedTuple, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
KEEP_LIST = Path(__file__).resolve().parent / "reach_keep.txt"

#: Where names count as uses that keep a function (tests do not).
USE_DIRS = ("src", "benchmarks", "examples", "scripts")

_HOOK = """\
import os
import sys
import threading

_OUT = {out!r}
_MARK = os.sep + "repro" + os.sep
# id(code) -> code. Holding each code object keeps its address, and so
# its id, from going to a later one once a short-lived one is freed.
_seen = {{}}


def _open():
    global _file
    path = os.path.join(_OUT, "%d.txt" % os.getpid())
    _file = open(path, "a", encoding="utf-8")


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in _seen:
            _seen[id(code)] = code
            if _MARK in code.co_filename:
                _file.write("%s\\t%d\\n" % (code.co_filename, code.co_firstlineno))
                _file.flush()


_open()
os.register_at_fork(after_in_child=_open)
sys.setprofile(_profile)
threading.setprofile(_profile)
"""


#: One ``repro serve`` session: submits through the daemon (one of them a
#: trace cell, so the server writes its artifact), the job listing, and a
#: cancel sent as soon as a fig3 job is accepted; then a shutdown.
_SERVICE = """\
import os
import subprocess
import sys
import time

from repro.service import ServiceClient, server_available
from repro.service.protocol import RemoteError

work = {work!r}
sock = os.path.join(work, "svc.sock")


def repro(*argv):
    subprocess.run(
        [sys.executable, "-m", "repro", *argv, "--socket", sock],
        check=True, stdout=subprocess.DEVNULL,
    )


server = subprocess.Popen([
    sys.executable, "-m", "repro", "serve", "--socket", sock, "--jobs", "1",
    "--artifacts-dir", os.path.join(work, "artifacts"),
])
deadline = time.monotonic() + 30.0
while not server_available(sock):
    assert server.poll() is None and time.monotonic() < deadline
    time.sleep(0.05)
try:
    repro("submit", "table3")
    repro("submit", "trace", "--cell", "netstack", "--samples", "10",
          "--platform", "7302")
    repro("jobs")

    def cancel(frame):
        if frame.get("event") == "accepted":
            with ServiceClient(sock) as other:
                other.cancel(frame["job"])

    with ServiceClient(sock) as client:
        try:
            client.submit(
                {{"kind": "fig3", "params": {{"transactions_per_core": 200}}}},
                on_event=cancel,
            )
        except RemoteError:
            pass  # the job finished before the cancel reached it
        client.shutdown()
except BaseException:
    server.terminate()
    raise
finally:
    assert server.wait(timeout=60) == 0
"""


class Function(NamedTuple):
    path: Path
    first: int  # first decorator line, or the def line: co_firstlineno
    qualname: str
    lines: int


def src_functions() -> List[Function]:
    """Every def (methods and nested ones too) in ``src/repro``."""
    found: List[Function] = []

    def walk(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min(
                    [child.lineno]
                    + [d.lineno for d in child.decorator_list]
                )
                found.append(Function(
                    path, first, prefix + child.name,
                    child.end_lineno - first + 1,
                ))
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return found


def name_uses(directory: Path) -> Counter:
    """How often each identifier is used in ``directory``'s Python files.

    Imports and the name after ``def`` are not uses: re-exporting or
    defining a function does not keep it alive. Names inside f-string
    fields count on every Python version (3.12 tokenizes them, 3.11 does
    not).
    """
    uses: Counter = Counter()
    for path in sorted(directory.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        logical: List[tokenize.TokenInfo] = []
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.NEWLINE:
                _count(logical, uses)
                logical = []
            elif token.type == tokenize.NAME:
                logical.append(token)
            elif token.type == tokenize.STRING:
                uses.update(_fstring_names(token.string))
        _count(logical, uses)
    return uses


def _fstring_names(literal: str) -> List[str]:
    """The names an f-string literal's replacement fields use."""
    prefix = literal[:literal.index(literal[-1])].lower()
    if "f" not in prefix:
        return []
    names: List[str] = []
    for node in ast.walk(ast.parse(literal, mode="eval")):
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    return names


def _count(tokens: List[tokenize.TokenInfo], uses: Counter) -> None:
    if tokens and tokens[0].string in ("import", "from"):
        return
    previous = None
    for token in tokens:
        if previous != "def":
            uses[token.string] += 1
        previous = token.string


def _run(label: str, argv: List[str], env: Dict[str, str], cwd: Path) -> bool:
    began = time.perf_counter()
    done = subprocess.run(
        argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, check=False,
    )
    status = "ok" if done.returncode == 0 else f"exit {done.returncode}"
    print(f"reach: {label}: {status} ({time.perf_counter() - began:.1f} s)",
          file=sys.stderr)
    if done.returncode != 0:
        print(done.stderr[-2000:], file=sys.stderr)
    return done.returncode == 0


def run_entry_points(out: Path, work: Path) -> bool:
    """Run every entry point with the profiler; False if any failed."""
    hook = out.parent / "hook"
    hook.mkdir()
    (hook / "sitecustomize.py").write_text(
        _HOOK.format(out=str(out)), encoding="utf-8"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(hook), str(SRC)])
    env["REPRO_CACHE_DIR"] = str(work / "cache")
    python = sys.executable
    repro = [python, "-m", "repro"]
    goldens = (
        "import sys; sys.path.insert(0, {root!r})\n"
        "from repro.cli import main\n"
        "from tests.test_cli_goldens import CASES\n"
        "for name, argv in CASES:\n"
        "    assert main(argv + ['--no-cache', '--jobs', '1']) == 0, name\n"
    ).format(root=str(ROOT))
    runs: List[Tuple[str, List[str]]] = [
        ("CLI golden argv", [python, "-c", goldens]),
        ("repro all --quality full", [
            python, "-m", "repro", "all", "--quality", "full",
            "--no-cache", "--jobs", "1",
        ]),
    ]
    for path in sorted((ROOT / "examples").glob("*.py")):
        runs.append((f"examples/{path.name}", [python, str(path)]))
    for path in sorted((ROOT / "scripts").glob("*.py")):
        if path.resolve() != Path(__file__).resolve():
            runs.append((f"scripts/{path.name}", [python, str(path)]))
    runs += [
        ("repro submit --local", repro + [
            "submit", "table1", "--local", "--no-cache",
        ]),
        ("repro serve session", [
            python, "-c", _SERVICE.format(work=str(work)),
        ]),
        ("repro fig3 --csv", repro + [
            "fig3", "--platform", "7302", "--transactions", "60",
            "--csv", str(work / "csv"), "--no-cache",
        ]),
        ("repro trace --out", repro + [
            "trace", "table2", "--samples", "10",
            "--out", str(work / "trace.json"),
        ]),
        ("repro trace netstack", repro + ["trace", "netstack"]),
        ("repro cache stats", repro + ["cache", "stats"]),
        ("repro cache clear", repro + ["cache", "clear"]),
    ]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in spec["workloads"]:
        runs.append((f"e2e {workload['name']} --quick", [
            python, str(ROOT / "benchmarks" / "e2e" / "run.py"),
            "--workload", workload["name"], "--quick",
        ]))
    return all([_run(label, argv, env, work) for label, argv in runs])


def entered(out: Path) -> Set[Tuple[str, int]]:
    """(real path, first line) of every function any process entered."""
    seen: Set[Tuple[str, int]] = set()
    for record in out.glob("*.txt"):
        for line in record.read_text(encoding="utf-8").splitlines():
            filename, first = line.rsplit("\t", 1)
            seen.add((os.path.realpath(filename), int(first)))
    return seen


def keep_list() -> Dict[str, str]:
    """``{"<file under src>::<qualified name>": reason}`` of kept functions."""
    kept: Dict[str, str] = {}
    for line in KEEP_LIST.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, reason = line.split(None, 1)
            kept[key] = reason
    return kept


def _key(f: Function) -> str:
    return f"{f.path.relative_to(SRC).as_posix()}::{f.qualname}"


def is_kept(f: Function, kept: Dict[str, str]) -> bool:
    """Whether ``f`` or a function it is nested in is on the keep-list."""
    path = f.path.relative_to(SRC).as_posix()
    parts = f.qualname.split(".")
    return any(
        f"{path}::{'.'.join(parts[:depth])}" in kept
        for depth in range(1, len(parts) + 1)
    )


class Uses(NamedTuple):
    outside: Counter  # name uses in USE_DIRS
    tests: Counter    # name uses in tests/


def uses() -> Uses:
    outside: Counter = Counter()
    for directory in USE_DIRS:
        outside.update(name_uses(ROOT / directory))
    return Uses(outside, name_uses(ROOT / "tests"))


def tests_only(f: Function, named: Uses) -> bool:
    """No line outside ``tests/`` names ``f`` but its own ``def``."""
    name = f.qualname.rsplit(".", 1)[-1]
    return (
        not name.startswith("__")
        and not named.outside[name]
        and bool(named.tests[name])
    )


def stale_entries(functions: List[Function]) -> List[str]:
    """Keep-list entries that name no src function."""
    return sorted(set(keep_list()) - {_key(f) for f in functions})


def unkept_tests_only(functions: List[Function]) -> List[str]:
    """Functions outside the keep-list that only tests name, entered or
    not: the half of the audit that needs no run."""
    kept = keep_list()
    named = uses()
    return [
        _key(f) for f in functions
        if not is_kept(f, kept) and tests_only(f, named)
    ]


def report(
    functions: List[Function], seen: Set[Tuple[str, int]]
) -> Tuple[str, bool]:
    """A count line, then the unentered functions grouped by file; and
    whether the audit is clean (every unentered function kept, no stale
    keep entry)."""
    named = uses()
    kept = keep_list()
    unentered = [
        f for f in functions
        if (os.path.realpath(f.path), f.first) not in seen
    ]
    rows = []
    only_tests = []
    kept_unentered = []
    for f in unentered:
        mark = ""
        if is_kept(f, kept):
            mark = "kept"
            kept_unentered.append(f)
        elif tests_only(f, named):
            mark = "tests-only"
            only_tests.append(f)
        rows.append((f, mark))
    outside = len(unentered) - len(kept_unentered)
    lines = [
        f"{len(functions)} src functions; {len(unentered)} unentered "
        f"({sum(f.lines for f in unentered):,} lines); "
        f"{len(kept_unentered)} of them kept "
        f"({sum(f.lines for f in kept_unentered):,} lines); "
        f"{len(only_tests)} tests-only "
        f"({sum(f.lines for f in only_tests):,} lines); "
        f"{outside} outside the keep-list",
    ]
    stale = stale_entries(functions)
    if stale:
        lines.append("keep-list entries naming no src function: "
                     + ", ".join(stale))
    current = None
    for f, mark in rows:
        if f.path != current:
            current = f.path
            lines.append(f"\n{f.path.relative_to(ROOT)}")
        lines.append(
            f"  {f.first:5d}  {f.qualname:<48} {f.lines:4d} lines  {mark}"
            .rstrip()
        )
    return "\n".join(lines), not outside and not stale


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-reach-") as scratch:
        out = Path(scratch) / "entered"
        work = Path(scratch) / "work"
        out.mkdir()
        work.mkdir()
        ok = run_entry_points(out, work)
        text, clean = report(src_functions(), entered(out))
        print(text)
    if not ok:
        print("reach: some entry points failed; functions only they reach "
              "are listed as unentered", file=sys.stderr)
    if not clean:
        print("reach: unentered functions outside scripts/reach_keep.txt, "
              "or stale entries in it", file=sys.stderr)
    return 0 if ok and clean else 1


if __name__ == "__main__":
    sys.exit(main())
