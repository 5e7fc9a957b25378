"""Command-line interface: regenerate any paper artifact from a shell.

Every artifact subcommand is a kind of :mod:`repro.service.registry`:
``repro <kind>`` builds one job spec per ``--platform``, runs every
spec's cells as one runner batch, and prints the kind's rendering;
``repro submit <kind>`` takes the same spec flags (one declaration per
kind, :data:`_KIND_COMMANDS`) and prints the same bytes, served by
``repro serve`` or run in process. The tails no spec carries are
``repro <kind>`` flags only: ``fig3 --csv``, ``trace --out``,
``chaos --recover`` and ``kvstore --engine``.

Examples::

    python -m repro table2 --platform 9634
    python -m repro table3
    python -m repro fig4 --platform 7302
    python -m repro fig6
    python -m repro suite --platform synthetic
    python -m repro os-scaling
    python -m repro accel
    python -m repro devtree --platform 9634
    python -m repro submit table2 --platform 7302 --iterations 100
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

__all__ = ["main", "build_parser"]

_EPILOG = (
    "Every subcommand accepts --jobs N (or 'auto', the default; also set "
    "via REPRO_JOBS): independent experiment cells fan out over N worker "
    "processes with byte-identical output for any value. Cell results are "
    "cached content-addressed under .repro-cache/ (override with "
    "REPRO_CACHE_DIR, disable with --no-cache or REPRO_CACHE=0; manage "
    "with `repro cache stats|clear`); cached re-runs stay byte-identical. "
    "For repeated sweeps, `repro serve` keeps a warm daemon on a Unix "
    "socket and `repro submit` batches against it (falling back to an "
    "in-process run, byte-identical, when no server is listening)."
)


def _jobs_arg(text: str):
    """argparse type for --jobs: a positive integer or 'auto'."""
    value = text.strip().lower()
    if value == "auto":
        return value
    try:
        count = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {text!r}"
        ) from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def _shards_arg(text: str) -> int:
    """argparse type for --shards: a positive integer (range-checked later
    against the platform's CCD count)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


class _Flag(NamedTuple):
    """One spec flag: its argparse spelling and options, and its param.

    A value of None, or of ``every`` (the flag's "all choices" spelling),
    leaves the param to its normalizer's default; a ``listed`` param takes
    a one-item list. A positional here (``trace``'s cell) is an option on
    ``repro submit``, defaulting to its first choice.
    """

    names: Tuple[str, ...]
    param: str
    options: Dict[str, Any]
    listed: bool = False
    every: Any = None

    @property
    def dest(self) -> str:
        return self.names[0].lstrip("-").replace("-", "_")


#: Every kind's subcommand, in presentation order: its help line, its
#: default ``--platform`` (None: the kind takes no platform), and the spec
#: flags ``repro <kind>`` and ``repro submit <kind>`` share.
_KIND_COMMANDS: Dict[str, Tuple[str, Optional[str], Tuple[_Flag, ...]]] = {
    "table1": ("hardware specifications", "all", ()),
    "table2": ("data-path latency breakdown", "all", (
        _Flag(("--iterations",), "iterations", dict(
            type=int, default=2000,
            help="pointer-chase iterations per point",
        )),
    )),
    "table3": ("max bandwidth by sender scope", "all", ()),
    "fig3": ("latency vs offered load (DES sweep)", "all", (
        _Flag(("--transactions",), "transactions_per_core", dict(
            type=int, default=800,
            help="transactions per core per load point",
        )),
    )),
    "fig4": ("bandwidth partitioning cases", "all", ()),
    "fig5": ("bandwidth-harvesting timelines", "9634", ()),
    "fig6": ("read/write interference knees", "9634", ()),
    "suite": ("full cross-platform characterization + guidelines", "all", ()),
    "os-scaling": (
        "shared-memory vs multikernel scaling (§4 #2)", "all", (),
    ),
    "accel": ("accelerator dispatch protection (§4 #4)", "9634", (
        _Flag(("--dispatch-jobs",), "dispatch_jobs", dict(
            type=int, default=8,
            help="dispatch jobs simulated per scenario (default 8)",
        )),
    )),
    "chaos": (
        "graceful degradation under dynamic fabric faults", "7302", (
            _Flag(("--severity",), "severities", dict(
                type=float, default=None, metavar="S",
                help=(
                    "single fault severity in [0,1] (0 = healthy "
                    "baseline); default: sweep 0, 0.25, 0.5, 0.75, 1"
                ),
            ), listed=True),
            _Flag(("--transactions",), "transactions_per_core", dict(
                type=int, default=None,
                help="DES transactions per core per severity (default 200)",
            )),
        ),
    ),
    "netstack": (
        "networking stack vs sender-driven partitioning (§4)", "7302", (
            _Flag(("--arm",), "arms", dict(
                default=None, choices=("off", "credits", "credits+qos"),
                help="single stack arm (default: compare all three)",
            ), listed=True),
            _Flag(("--transactions",), "transactions_per_core", dict(
                type=int, default=None,
                help="DES transactions per core per arm (default 400)",
            )),
        ),
    ),
    "sharded": (
        "serial vs sharded DES engine on the contention cell", "9634", (
            _Flag(("--engine",), "engines", dict(
                default="both", choices=("serial", "sharded", "both"),
                help="which engine(s) to run (default both, for the "
                     "comparison)",
            ), listed=True, every="both"),
            _Flag(("--shards",), "shards", dict(
                type=_shards_arg, default=None, metavar="N",
                help=(
                    "event-loop shards for the sharded engine (default: one "
                    "per CCD). Unlike --jobs — which fans whole cells over "
                    "processes — shards split one cell's "
                    "event loop and change its results within the "
                    "documented tolerance; shards=1 is bit-identical to "
                    "serial"
                ),
            )),
            _Flag(("--transactions",), "transactions_per_core", dict(
                type=int, default=150,
                help="closed-loop transactions per core (default 150)",
            )),
        ),
    ),
    "trace": (
        "span-trace one cell: per-hop latency attribution + Perfetto JSON",
        "7302", (
            _Flag(("cell",), "cell", dict(
                choices=("netstack", "table2"),
                help=(
                    "netstack: the Fig 4-6 contention cell, one traced DES "
                    "run per stack arm; table2: the DRAM/CXL pointer "
                    "chases, one per position"
                ),
            )),
            _Flag(("--samples",), "samples", dict(
                type=int, default=None, metavar="N",
                help=(
                    "transactions per core (netstack) or chase iterations "
                    "(table2); defaults keep the trace a few MB"
                ),
            )),
        ),
    ),
    "kvstore": (
        "open-loop kvstore serving tails (hybrid batched/fluid engine)",
        "9634", (
            _Flag(("--qps",), "qps", dict(
                type=float, default=None,
                help="offered open-loop arrival rate (default 2,000,000)",
            )),
            _Flag(("--requests",), "requests", dict(
                type=int, default=None,
                help="requests served per (tier, background) arm (default "
                     "100,000)",
            )),
        ),
    ),
    "explore": (
        "generated topology x routing x workload design-space sweep", None, (
            _Flag(("--topology",), "topologies", dict(
                default=None, metavar="NAME",
                help=(
                    "one generated topology from the catalog, or 'all' for "
                    "the full catalog (default all)"
                ),
            ), listed=True, every="all"),
            _Flag(("--routing",), "routings", dict(
                default=None, choices=("xy", "adaptive", "both"),
                help="routing policy arm(s) to sweep (default both)",
            ), listed=True, every="both"),
            _Flag(("--workload",), "workloads", dict(
                default=None, choices=("contention", "uniform", "both"),
                help="workload arm(s) to sweep (default both)",
            ), listed=True, every="both"),
            _Flag(("--packets",), "packets_per_sender", dict(
                type=int, default=None, metavar="N",
                help="DES packets injected per sender per cell (default 60)",
            )),
        ),
    ),
    "devtree": ("chiplet-net device tree export (§4 #1)", "all", ()),
    "io-relay": ("NIC→DRAM→NVMe relay stack designs (§4 #3)", "all", ()),
    "collective": (
        "all-reduce algorithm costs across chiplets (§4 #6)", "all", (),
    ),
    "noc-routing": ("buffered vs bufferless NoC routing (§2.3)", "all", ()),
    "core-to-core": ("cacheline handoff latency matrix", "all", ()),
    "patterns": ("access-pattern bandwidth matrix (§3.1)", "all", ()),
}


def _platform_names_for(
    parser: argparse.ArgumentParser, name: str
) -> List[str]:
    """The preset names ``--platform`` denotes ("all": both EPYC parts).

    Spellings resolve through the service registry's alias table, so a
    direct subcommand and ``submit`` accept exactly the same names; any
    other name is a usage error, like every bad flag value.
    """
    from repro.errors import ConfigurationError
    from repro.service.registry import PLATFORMS, canonical_platform

    if name.strip().lower() == "all":
        return ["7302", "9634"]
    try:
        return [canonical_platform(name)]
    except ConfigurationError:
        parser.error(
            f"unknown platform {name!r} (choose from "
            f"{', '.join(PLATFORMS)}, all)"
        )


def _validate_env(parser: argparse.ArgumentParser) -> None:
    """Reject a malformed ``REPRO_JOBS`` up front, as a usage error.

    It is read deep inside the runner; a typo there should fail like a bad
    flag (clean one-line error, exit 2), not as a traceback halfway
    through a sweep.
    """
    from repro.errors import ConfigurationError
    from repro.runner import JOBS_ENV_VAR, resolve_jobs

    try:
        resolve_jobs(None)
    except ConfigurationError as error:
        parser.error(f"${JOBS_ENV_VAR}: {error}")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Server Chiplet Networking (HotNets '25) reproduction — "
            "regenerate the paper's tables and figures from the simulator."
        ),
        epilog=_EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(
        name: str, help_text: str, platform_default: Optional[str] = "all"
    ):
        cmd = sub.add_parser(name, help=help_text)
        if platform_default is not None:
            cmd.add_argument(
                "--platform",
                default=platform_default,
                help=(
                    f"7302, 9634, synthetic, or all (default "
                    f"{platform_default})"
                ),
            )
        cmd.add_argument(
            "--seed", type=int, default=0, help="simulation seed (default 0)"
        )
        cmd.add_argument(
            "--jobs",
            default=None,
            type=_jobs_arg,
            metavar="N",
            help=(
                "worker processes for independent cells: a count or 'auto' "
                "(default: $REPRO_JOBS, else auto); output is byte-identical "
                "for any value"
            ),
        )
        cmd.add_argument(
            "--no-cache",
            action="store_true",
            help=(
                "recompute every cell instead of reading/writing the "
                "content-addressed result cache (.repro-cache/)"
            ),
        )
        return cmd

    kinds = {}
    for name, (help_text, platform_default, flags) in _KIND_COMMANDS.items():
        kinds[name] = add(name, help_text, platform_default)
        for flag in flags:
            kinds[name].add_argument(*flag.names, **flag.options)

    # The direct door's own flags: tails no spec carries, runner knobs.
    kinds["fig3"].add_argument(
        "--csv", default=None, metavar="DIR",
        help="also write one CSV per panel/op into DIR",
    )
    for name in ("chaos", "netstack"):
        kinds[name].add_argument(
            "--timeout", type=float, default=None, metavar="SECONDS",
            help="per-cell wall-clock timeout (default: none)",
        )
        kinds[name].add_argument(
            "--retries", type=int, default=0,
            help="retry attempts per failed cell (default 0)",
        )
    kinds["chaos"].add_argument(
        "--recover",
        action="store_true",
        help=(
            "also run the failover comparison: a permanent cross-die link "
            "failure with fault-reactive recovery off vs on, per backend "
            "(detection, credit reclamation, retransmission, failover)"
        ),
    )
    chaos_mode = kinds["chaos"].add_mutually_exclusive_group()
    chaos_mode.add_argument(
        "--fail-fast", action="store_true",
        help="abort the sweep on the first severity that fails",
    )
    chaos_mode.add_argument(
        "--keep-going", action="store_true", default=True,
        help="report failed severities in their row and continue (default)",
    )
    kinds["netstack"].add_argument(
        "--fail-fast", action="store_true",
        help="abort the comparison on the first cell that fails",
    )
    kinds["trace"].add_argument(
        "--out", default=None, metavar="FILE",
        help=(
            "trace JSON path (default trace-<cell>-<platform>.json; "
            "'-' skips the file and prints only the breakdown)"
        ),
    )
    kinds["kvstore"].add_argument(
        "--engine", default="hybrid", choices=("hybrid", "des"),
        help=(
            "hybrid: exact batched recurrences with fluid-coupled "
            "background (default); des: the per-event reference model, "
            "for small-cell validation"
        ),
    )
    kinds["explore"].description = (
        "Sweep generated topologies (repro.platform.generator catalog) "
        "against routing policies and workloads through the hardened "
        "runner, scoring each point on victim share, Jain fairness, "
        "p99 DES latency, and bisection utilization."
    )

    all_cmd = add("all", "regenerate every table and figure in one report")
    all_cmd.add_argument(
        "--quality", default="quick", choices=("quick", "full"),
        help=(
            "DES sample counts: quick (~2.5 s) or full (~20 s), timed "
            "uncached with --jobs 1 on a 2-core VM"
        ),
    )
    cache_cmd = sub.add_parser(
        "cache", help="inspect or clear the content-addressed result cache"
    )
    cache_cmd.add_argument(
        "action", choices=("stats", "clear"),
        help="stats: entry count, size, and persisted hit/miss counters; "
             "clear: delete every entry and counter record",
    )
    cache_cmd.add_argument(
        "--dir", default=None, metavar="DIR",
        help="cache directory (default: $REPRO_CACHE_DIR, else .repro-cache)",
    )
    cache_cmd.add_argument(
        "--jobs", default=None, type=_jobs_arg, metavar="N",
        help="accepted for uniformity; cache maintenance runs no cells",
    )
    cache_cmd.add_argument(
        "--no-cache", action="store_true",
        help="accepted for uniformity; maintenance always works on the store",
    )

    def add_service_options(cmd, jobs_help: str):
        cmd.add_argument(
            "--socket", default=None, metavar="PATH",
            help=(
                "service Unix socket (default: $REPRO_SOCKET, else "
                ".repro-service.sock)"
            ),
        )
        cmd.add_argument(
            "--jobs", default=None, type=_jobs_arg, metavar="N",
            help=jobs_help,
        )
        cmd.add_argument(
            "--no-cache", action="store_true",
            help="run without the content-addressed result cache",
        )

    serve_cmd = sub.add_parser(
        "serve",
        help="run the persistent simulation service (daemon on a Unix socket)",
        description=(
            "Start the long-lived job server: clients submit batches with "
            "`repro submit`, the server dedups them against the shared warm "
            "cache, schedules by priority with per-client fairness and "
            "bounded-depth admission, and streams per-cell results back as "
            "line-delimited JSON. Stop with SIGINT/SIGTERM or a client's "
            "shutdown op; the socket is unlinked on exit."
        ),
    )
    add_service_options(
        serve_cmd,
        "worker processes per batch (a count or 'auto'; batches themselves "
        "run one at a time)",
    )
    serve_cmd.add_argument(
        "--max-depth", type=int, default=16, metavar="N",
        help=(
            "admission bound: at most N queued jobs; submissions beyond it "
            "are rejected with a structured retry-after (default 16)"
        ),
    )
    serve_cmd.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-cell wall-clock timeout for every job (default: none)",
    )
    serve_cmd.add_argument(
        "--retries", type=int, default=0,
        help="retry attempts per failed cell (default 0)",
    )
    serve_cmd.add_argument(
        "--artifacts-dir", default=None, metavar="DIR",
        help="trace-artifact directory (default .repro-service/)",
    )

    submit_cmd = sub.add_parser(
        "submit",
        help="submit one batch to the service (or run it locally)",
        description=(
            "Build one job spec per platform and submit it to a running "
            "`repro serve` daemon; when no server is listening the same "
            "spec runs in process, with byte-identical stdout. The "
            "artifact goes to stdout, job/cache accounting to stderr. "
            "Each kind takes the spec flags of `repro <kind>`."
        ),
    )
    submit_kinds = submit_cmd.add_subparsers(
        dest="kind", required=True, metavar="kind",
        help="which artifact kind the batch runs",
    )
    for name, (help_text, platform_default, flags) in _KIND_COMMANDS.items():
        cmd = submit_kinds.add_parser(name, help=help_text)
        if platform_default is not None:
            cmd.add_argument(
                "--platform", default=platform_default,
                help=(
                    f"7302, 9634, synthetic, or all (one job per platform; "
                    f"default {platform_default})"
                ),
            )
        cmd.add_argument(
            "--seed", type=int, default=0, help="simulation seed (default 0)"
        )
        add_service_options(
            cmd, "worker processes for the local fallback (a count or 'auto')"
        )
        cmd.add_argument(
            "--priority", type=int, default=0, metavar="P",
            help="scheduling priority; higher runs first (default 0)",
        )
        cmd.add_argument(
            "--client", default=None, metavar="NAME",
            help="client name for the server's fairness policy (default: "
                 "per-connection)",
        )
        cmd.add_argument(
            "--local", action="store_true",
            help="skip the server probe and run in process",
        )
        for flag in flags:
            names, options = flag.names, flag.options
            if not names[0].startswith("-"):
                names = (f"--{names[0]}",)
                options = dict(options, default=options["choices"][0])
            cmd.add_argument(*names, **options)
        cmd.add_argument(
            "--timeout", type=float, default=None, metavar="SECONDS",
            help="per-cell timeout for the local fallback (default: none)",
        )
        cmd.add_argument(
            "--retries", type=int, default=0,
            help="retry attempts per failed cell in the local fallback",
        )

    jobs_cmd = sub.add_parser(
        "jobs",
        help="list the service's running, queued, and finished jobs",
    )
    add_service_options(
        jobs_cmd, "accepted for uniformity; the listing itself runs no cells"
    )
    return parser


def _spec(kind: str, args, platform_name: str) -> dict:
    """One job spec from the flags of ``repro [submit] <kind>``.

    Only the flags given go into ``params``; :func:`normalize_spec` fills
    the defaults and range-checks every value for both doors.
    """
    params: dict = {}
    for flag in _KIND_COMMANDS[kind][2]:
        value = getattr(args, flag.dest)
        if value is not None and value != flag.every:
            params[flag.param] = [value] if flag.listed else value
    return {
        "kind": kind,
        "platform": platform_name,
        "seed": args.seed,
        "params": params,
    }


def _serve(args) -> int:
    """Run the service daemon until SIGINT/SIGTERM or a shutdown op."""
    import asyncio
    import signal

    from repro.cache import ResultCache, cache_enabled_by_env
    from repro.errors import ServiceError
    from repro.service.server import ReproService

    cache = (
        None if (args.no_cache or not cache_enabled_by_env())
        else ResultCache()
    )
    service = ReproService(
        args.socket,
        max_depth=args.max_depth,
        jobs=args.jobs,
        timeout_s=args.timeout,
        retries=args.retries,
        cache=cache,
        artifacts_dir=args.artifacts_dir,
    )

    async def serve() -> None:
        await service.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(
                signum, lambda: asyncio.ensure_future(service.stop())
            )
        print(
            f"[repro] serving on {service.socket_path} "
            f"(max queue depth {service.scheduler.max_depth}, cache "
            f"{'on' if service.cache is not None else 'off'})",
            file=sys.stderr,
        )
        await service.serve_forever()

    try:
        asyncio.run(serve())
    except ServiceError as error:
        print(f"[repro] serve: {error}", file=sys.stderr)
        return 1
    print("[repro] serve: stopped cleanly", file=sys.stderr)
    return 0


def _jobs_listing(args) -> int:
    """Print the server's queue snapshot and job records."""
    from repro.analysis.report import render_table
    from repro.errors import ServiceError
    from repro.service import ServiceClient
    from repro.service.protocol import resolve_socket_path

    try:
        with ServiceClient(args.socket) as client:
            listing = client.jobs()
    except (OSError, ServiceError) as error:
        print(
            f"[repro] jobs: no service listening on "
            f"{resolve_socket_path(args.socket)} ({error})",
            file=sys.stderr,
        )
        return 1
    print(f"running: {listing.get('running') or '-'}")
    queued = listing.get("queued") or []
    if queued:
        print(render_table(
            ["job", "client", "priority", "kind", "cells"],
            [
                [row["job"], row["client"], row["priority"],
                 row["kind"], row["cells"]]
                for row in queued
            ],
            title="queued (dispatch order)",
        ))
    else:
        print("queued: none")
    records = listing.get("records") or []
    if records:
        print(render_table(
            ["job", "client", "status", "cells", "precached", "hits",
             "misses", "deduped", "failures", "duration s"],
            [
                [
                    row["job"], row["client"], row["status"], row["cells"],
                    row["precached"], row["hits"], row["misses"],
                    row["deduped"], row["failures"],
                    row.get("duration_s", "-"),
                ]
                for row in records
            ],
            title="jobs",
        ))
    else:
        print("jobs: none yet")
    return 0


def _run_kind(parser: argparse.ArgumentParser, args) -> List[str]:
    """``repro <kind>``: one runner batch over every platform's spec.

    Returns the artifact's sections, with the direct-door tails.
    """
    from repro.errors import ConfigurationError
    from repro.runner import run_groups
    from repro.service.registry import build_cells, normalize_spec

    knobs = dict(
        jobs=args.jobs,
        timeout_s=getattr(args, "timeout", None),
        retries=getattr(args, "retries", 0),
        fail_fast=getattr(args, "fail_fast", False),
    )
    # explore has no --platform: its cells bring their own platforms.
    names = _platform_names_for(parser, getattr(args, "platform", "7302"))
    if getattr(args, "out", None) not in (None, "-") and len(names) > 1:
        parser.error("--out names a single file; pick a single --platform")
    try:
        specs = [
            normalize_spec(_spec(args.command, args, name)) for name in names
        ]
        if args.command == "kvstore" and args.engine != "hybrid":
            # --engine is a direct-door flag: a spec always runs the
            # hybrid engine.
            from repro.experiments import kvserve
            from repro.service.registry import resolve_platform

            groups = [
                kvserve.cells(
                    resolve_platform(spec["platform"]), engine=args.engine,
                    seed=spec["seed"], **spec["params"],
                )
                for spec in specs
            ]
        else:
            groups = [build_cells(spec) for spec in specs]
        for spec, group in zip(specs, groups):
            if not group:
                # e.g. fig6 and accel need a CXL device.
                print(
                    f"[repro] {args.command}: nothing to run on "
                    f"{spec['platform']}; its section is empty",
                    file=sys.stderr,
                )
        # A bad runner knob (--timeout 0, --retries -1) raises here, before
        # any cell runs; cell errors come back as failed results.
        pairs = list(zip(specs, run_groups(groups, **knobs)))
    except ConfigurationError as error:
        parser.error(str(error))
    return _with_tails(args, pairs, knobs)


def _with_tails(args, pairs, knobs) -> List[str]:
    """The kind's artifact, with the direct-door tails no spec carries.

    ``chaos --recover`` and ``trace``'s Perfetto file follow each
    platform's section; ``fig3 --csv`` follows the whole figure.
    """
    from repro.runner import run_cells_detailed, values_of
    from repro.service.registry import render_pairs, resolve_platform

    if args.command == "fig3" and args.csv:
        from repro.experiments import fig3

        text = render_pairs(pairs)
        sweeps = [sweep for __, group in pairs for sweep in values_of(group)]
        written = fig3.export_csv(sweeps, args.csv)
        return [text, "wrote: " + ", ".join(written)]
    recover = args.command == "chaos" and args.recover
    perfetto = args.command == "trace" and args.out != "-"
    if not (recover or perfetto):
        text = render_pairs(pairs)
        return [text] if text else []
    from repro.experiments import chaos, trace

    sections = []
    for spec, results in pairs:
        platform = resolve_platform(spec["platform"])
        sections.append(render_pairs([(spec, results)]))
        if recover:
            recovery = run_cells_detailed(
                chaos.recovery_cells(platform, seed=spec["seed"]), **knobs
            )
            sections.append(chaos.render_recovery(platform.name, recovery))
            continue
        path = args.out or trace.default_out_path(args.cell, platform)
        text, events = trace.export_json(results)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        sections.append(f"wrote {path} ({events} trace events)")
    return sections


def _submit(parser: argparse.ArgumentParser, args) -> Optional[List[str]]:
    """``repro submit <kind>``: one job per platform, one artifact.

    Returns the artifact's sections, or None when the server rejected a
    job (the reason is on stderr).
    """
    from repro.errors import ConfigurationError, ServiceError
    from repro.service import submit_or_local
    from repro.service.registry import render_pairs

    # explore has no --platform: its cells bring their own platforms.
    names = _platform_names_for(parser, getattr(args, "platform", "7302"))
    pairs = []
    for platform_name in names:
        try:
            outcome = submit_or_local(
                _spec(args.kind, args, platform_name),
                socket_path=args.socket,
                priority=args.priority,
                client=args.client,
                jobs=args.jobs,
                timeout_s=args.timeout,
                retries=args.retries,
                prefer_local=args.local,
            )
        except ConfigurationError as error:
            parser.error(str(error))
        except ServiceError as error:
            hint = (
                f" (retry in {error.retry_after_s:.1f}s)"
                if error.retry_after_s is not None else ""
            )
            print(f"[repro] submit rejected: {error}{hint}", file=sys.stderr)
            return None
        pairs.append((outcome.spec, outcome.results))
        where = (
            f"job {outcome.job_id} (served)" if outcome.served else "local"
        )
        print(
            f"[repro] submit {platform_name}: {where} "
            f"cells={len(outcome.results)} hits={outcome.hits} "
            f"deduped={outcome.deduped} failures={outcome.failures}",
            file=sys.stderr,
        )
    text = render_pairs(pairs)
    return [text] if text else []


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point: run one subcommand and print its artifact.

    Artifacts go to stdout; a one-line timing summary goes to stderr (so
    redirected artifacts stay byte-identical regardless of ``--jobs``).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    from repro.cache import ResultCache, cache_enabled_by_env, set_default_cache

    _validate_env(parser)

    if args.command == "cache":
        cache = ResultCache(args.dir)
        if args.action == "clear":
            removed = cache.clear()
            print(f"cleared {removed} cached result(s) from {cache.root}")
        else:
            stats = cache.stats()
            print(f"cache: {stats.root}")
            print(f"entries: {stats.entries}")
            print(f"bytes: {stats.bytes}")
            print(f"recorded runs: {stats.recorded_runs}")
            print(f"recorded hits: {stats.recorded_hits}")
            print(f"recorded misses: {stats.recorded_misses}")
            print(f"recorded bytes read: {stats.recorded_bytes_read}")
            print(f"recorded bytes written: {stats.recorded_bytes_written}")
        return 0

    if args.command == "serve":
        return _serve(args)

    if args.command == "jobs":
        return _jobs_listing(args)

    # The CLI opts into result caching (library use stays uncached unless
    # asked); --no-cache or REPRO_CACHE=0 turns it off.
    if args.no_cache or not cache_enabled_by_env():
        set_default_cache(None)
    else:
        set_default_cache(ResultCache())

    started = time.perf_counter()
    if args.command == "all":
        from repro.experiments.summary import reproduce_all

        out = [reproduce_all(
            quality=args.quality, seed=args.seed, jobs=args.jobs
        )]
    elif args.command == "submit":
        out = _submit(parser, args)
        if out is None:
            return 1
    else:
        out = _run_kind(parser, args)

    elapsed = time.perf_counter() - started
    # Persist this run's cache hit/miss deltas so `repro cache stats`
    # reports accounting across processes, not just the live one.
    from repro.cache import default_cache

    run_cache = default_cache()
    if run_cache is not None:
        run_cache.record_run(args.command)
    try:
        print("\n\n".join(out))
    except BrokenPipeError:
        # Downstream pager/head closed early — not an error.
        return 0
    from repro.runner import resolve_jobs

    print(
        f"[repro] {args.command}: {elapsed:.2f}s "
        f"(jobs={resolve_jobs(args.jobs)})",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
