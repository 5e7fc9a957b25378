"""End-to-end smoke test for the persistent simulation service.

Exercises the full daemon lifecycle the way CI and a developer would:

1. start ``repro serve`` as a real subprocess on a fresh Unix socket,
2. submit a netstack batch, then submit the identical batch again, and
   do the same with a Table 2 column,
3. assert each resubmission is served almost entirely from the warm
   cache (>= 90% hits) and that both artifacts are byte-identical to
   the in-process ``--local`` fallback and to the direct subcommand's
   stdout (``repro netstack``, ``repro table2``),
4. shut the daemon down through the protocol and assert a clean exit:
   exit code 0, socket unlinked, no orphaned worker processes, and no
   traceback on the daemon's stderr (kept in a file, not a pipe, so the
   daemon can never block on a full pipe buffer).

Run via ``make serve-smoke`` (or directly)::

    PYTHONPATH=src python scripts/serve_smoke.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.service import ServiceClient, server_available, submit_or_local

#: The batches, each with the direct subcommand that denotes the same
#: spec: every netstack arm on the synthetic platform, and the 7302's
#: Table 2 column. Both are kept small enough that the cold pass
#: finishes in seconds on one CPU.
BATCHES = (
    (
        {
            "kind": "netstack",
            "platform": "synthetic",
            "params": {"transactions_per_core": 60},
        },
        ["netstack", "--platform", "synthetic", "--transactions", "60"],
    ),
    (
        {"kind": "table2", "platform": "7302", "params": {"iterations": 100}},
        ["table2", "--platform", "7302", "--iterations", "100"],
    ),
)

START_DEADLINE_S = 30.0
SHUTDOWN_DEADLINE_S = 30.0
HIT_FLOOR = 0.90


def fail(message):
    print(f"serve-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def read_text(path):
    with open(path, encoding="utf-8", errors="replace") as file:
        return file.read()


def check_batch(socket_path, env, spec, direct_argv):
    """Cold and warm submits of one spec against both in-process doors."""
    kind = spec["kind"]
    with ServiceClient(socket_path, client="smoke") as client:
        cold = client.submit(spec)
    if cold.status != "done" or cold.failures:
        fail(f"{kind} cold submit: status={cold.status} "
             f"failures={cold.failures}")
    cells = len(cold.results)
    print(
        f"serve-smoke: {kind} cold submit {cold.job_id}: {cells} cells, "
        f"{cold.hits} hits"
    )

    with ServiceClient(socket_path, client="smoke") as client:
        warm = client.submit(spec)
    if warm.status != "done" or warm.failures:
        fail(f"{kind} warm submit: status={warm.status} "
             f"failures={warm.failures}")
    hit_rate = warm.hits / cells
    print(
        f"serve-smoke: {kind} warm submit {warm.job_id}: {warm.hits}/{cells} "
        f"hits ({hit_rate:.0%}), {warm.precached} precached"
    )
    if hit_rate < HIT_FLOOR:
        fail(f"{kind} warm hit rate {hit_rate:.0%} below {HIT_FLOOR:.0%}")

    # Byte-identity: the served artifact must match the in-process
    # fallback exactly (cache off so the local run really computes).
    local = submit_or_local(spec, prefer_local=True, cache=None)
    if not (cold.render() == warm.render() == local.render()):
        fail(f"served {kind} artifact differs from the local fallback")
    print(f"serve-smoke: served {kind} artifact byte-identical to --local")
    direct = subprocess.run(
        [sys.executable, "-m", "repro", *direct_argv, "--no-cache"],
        env=env, stdout=subprocess.PIPE, text=True, check=False,
    )
    if direct.returncode != 0:
        fail(f"repro {' '.join(direct_argv)} exited with {direct.returncode}")
    if direct.stdout != local.render() + "\n":
        fail(f"direct {kind} subcommand's artifact differs from the submit")
    print(f"serve-smoke: direct {kind} subcommand byte-identical to submit")


def main():
    # Unix socket paths are limited to ~108 bytes, so anchor under /tmp
    # rather than wherever $TMPDIR points.
    workdir = tempfile.mkdtemp(prefix="reprosvc-smoke-", dir="/tmp")
    socket_path = os.path.join(workdir, "svc.sock")
    env = dict(os.environ)
    # src first, the caller's entries behind it: a sitecustomize on the
    # caller's path (scripts/reach.py's profiler) must run in the daemon.
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"),
        os.environ.get("PYTHONPATH"),
    ]))
    env["REPRO_CACHE"] = "1"
    env["REPRO_CACHE_DIR"] = os.path.join(workdir, "cache")

    stderr_path = os.path.join(workdir, "serve.stderr")
    with open(stderr_path, "wb") as stderr:
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--socket", socket_path,
                "--artifacts-dir", os.path.join(workdir, "artifacts"),
            ],
            env=env,
            stderr=stderr,
        )
    try:
        deadline = time.monotonic() + START_DEADLINE_S
        while not server_available(socket_path):
            if server.poll() is not None:
                fail(f"server exited early with code {server.returncode}")
            if time.monotonic() > deadline:
                fail("server did not start listening in time")
            time.sleep(0.1)
        print(f"serve-smoke: server up on {socket_path}")

        for spec, direct_argv in BATCHES:
            check_batch(socket_path, env, spec, direct_argv)

        with ServiceClient(socket_path, client="smoke") as client:
            client.shutdown()
        code = server.wait(timeout=SHUTDOWN_DEADLINE_S)
        if code != 0:
            fail(f"server exited with code {code} after shutdown")
        if os.path.exists(socket_path):
            fail("socket file left behind after shutdown")
        if "Traceback" in read_text(stderr_path):
            fail("the daemon printed a traceback (its stderr follows)")
        print("serve-smoke: clean shutdown, socket unlinked, no traceback")
        return 0
    except BaseException:
        sys.stderr.write(read_text(stderr_path))
        raise
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=10)
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
