"""DES-backend fault injection: degrade a live simulation mid-run.

:func:`install` takes a :class:`~repro.faults.schedule.FaultSchedule` (times
in nanoseconds, the DES clock) plus the :class:`~repro.transport.path.
PathResolver` that owns a platform's simulated hardware, and starts
interposer processes inside the resolver's environment:

* rate faults (derates, failures, flap phases) re-scale the named link
  direction's service rate at each change point — transactions already in
  service finish at the old rate, everything after pays the new one;
* device stalls seize every service lane of the direction for the stall
  window, so in-flight requests drain but nothing new is served — the
  "device went quiet" failure mode rate scaling cannot express.

Installing a null schedule starts nothing and schedules nothing, so a
severity-0 run is bit-identical to a run that never imported this module.
"""

from __future__ import annotations

import re
from typing import Generator, List, Sequence, Tuple

from repro.errors import FaultInjectionError, SimulationError
from repro.faults.schedule import FaultSchedule
from repro.noc.arbiter import LinkArbiter, _DirectionServer
from repro.sim.engine import Event, Process, Resource
from repro.transport.path import PathResolver

__all__ = ["install", "resolve_channel"]

_CHANNEL_RE = re.compile(r"^(?P<kind>[a-z]+)(?P<index>\d*):(?P<dir>[rw])$")


def resolve_channel(resolver: PathResolver, channel: str) -> _DirectionServer:
    """Map a FabricModel channel name onto the resolver's DES element.

    Supported kinds: ``if``, ``gmi``, ``hub``, ``noc``, ``xgmi``, ``umc``,
    ``plink``, ``cxldev``, ``pciedev``. CCX token pools (``ccx*``) have no
    serialization rate to scale; targeting one raises
    :class:`~repro.errors.FaultInjectionError`.
    """
    match = _CHANNEL_RE.match(channel)
    if match is None:
        raise FaultInjectionError(
            f"malformed channel name {channel!r} (expected e.g. 'gmi0:r')"
        )
    kind = match.group("kind")
    index = int(match.group("index")) if match.group("index") else None
    platform = resolver.platform
    try:
        if kind == "if" and index in platform.ccds:
            arbiter = resolver.if_arbiter(index)
        elif kind == "gmi" and index in platform.ccds:
            arbiter = resolver.gmi_arbiter(index)
        elif kind == "hub" and index in platform.ccds:
            arbiter = resolver.hub_arbiter(index)
        elif kind == "noc" and index is None:
            arbiter = resolver.noc_arbiter()
        elif kind == "xgmi" and index is None and platform.has_remote_socket:
            arbiter = resolver.xgmi_arbiter()
        elif kind == "umc" and index in platform.umcs:
            arbiter = resolver.umc_server(index).arbiter
        elif kind == "plink" and index in platform.root_complexes:
            arbiter = resolver.plink_arbiter(index)
        elif kind == "cxldev" and index in platform.cxl_devices:
            arbiter = resolver.cxl_device(index).arbiter
        elif kind == "pciedev" and index in platform.pcie_devices:
            arbiter = resolver.pcie_arbiter(index)
        else:
            raise FaultInjectionError(
                f"channel {channel!r} does not exist on {platform.name} "
                "(or cannot be fault-injected on the DES backend)"
            )
    except FaultInjectionError:
        raise
    except Exception as exc:
        raise FaultInjectionError(
            f"channel {channel!r} could not be resolved on {platform.name}: {exc}"
        ) from exc
    assert isinstance(arbiter, LinkArbiter)
    return arbiter.write_dir if match.group("dir") == "w" else arbiter.read_dir


def _reshape(
    env, server: _DirectionServer, points: Sequence[Tuple[float, float]]
) -> Generator[Event, None, None]:
    """Apply (time_ns, factor) rate changes to one link direction."""
    base_gbps = server.gbps
    for t_ns, factor in points:
        if t_ns > env.now:
            yield t_ns - env.now
        server.gbps = base_gbps * factor


def _stall(
    env, server: _DirectionServer, start_ns: float, end_ns: float
) -> Generator[Event, None, None]:
    """Hold every service lane of one direction during [start, end)."""
    if start_ns > env.now:
        yield start_ns - env.now
    # Claim the lanes FIFO: in-flight transfers drain first, then the stall
    # owns the direction until the window closes (measured in absolute time,
    # so a slow drain eats into the stall, not past its end).
    # Resource.request, not the direction's own: the claims are not
    # transfers, so they count in neither its transfers nor its backlog.
    grants = [Resource.request(server) for __ in range(server.capacity)]
    for grant in grants:
        yield grant
    if end_ns > env.now:
        yield end_ns - env.now
    for grant in grants:
        server.release(grant)


def install(resolver: PathResolver, schedule: FaultSchedule) -> List[Process]:
    """Start the schedule's interposer processes in the resolver's env.

    Returns the started processes (empty for a null schedule). Channels are
    resolved eagerly, so an impossible schedule fails fast with
    :class:`~repro.errors.FaultInjectionError` before the simulation runs.
    """
    if schedule.is_null:
        return []
    env = resolver.env
    # The interposers mutate shared link service state (server rates, lane
    # resources) with plain attribute writes. Inside a sharded engine those
    # writes race the other shards' event loops within the lookahead window,
    # so the outcome would depend on shard interleaving — refuse rather than
    # silently desynchronize. A single-shard coordinator degenerates to the
    # serial loop and stays safe.
    coordinator = getattr(env, "coordinator", None)
    if coordinator is not None and coordinator.num_shards > 1:
        raise SimulationError(
            "fault injection cannot be installed into a ShardedEnvironment "
            f"with {coordinator.num_shards} shards: rate reshaping and stall "
            "interposers mutate link service state shared across shards, and "
            "cross-shard ordering inside the lookahead window is undefined. "
            "Run fault experiments with num_shards=1 (or the serial engine)."
        )
    processes: List[Process] = []
    for channel in schedule.channels:
        server = resolve_channel(resolver, channel)
        points = schedule.rate_points(channel)
        if points:
            processes.append(env.process(_reshape(env, server, points)))
        for start_ns, end_ns in schedule.stall_windows(channel):
            processes.append(env.process(_stall(env, server, start_ns, end_ns)))
    return processes
