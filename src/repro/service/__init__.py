"""``repro.service`` — persistent simulation service with async jobs.

The CLI-per-invocation model pays process start-up, cold pools, and cold
caches for every sweep. This package is the long-lived posture the ROADMAP
calls "heavy traffic": an asyncio job server on a Unix socket that accepts
batches of simulation cells, dedups them against the content-addressed
:mod:`repro.cache` before scheduling, runs them through the hardened
:mod:`repro.runner` behind a priority queue with per-client fairness and
bounded-depth admission, and streams incremental per-cell results (and
Perfetto trace handles) back as line-delimited JSON.

Modules
-------

:mod:`~repro.service.protocol`
    Wire format: NDJSON framing plus a typed value codec that round-trips
    cell values exactly (floats by repr, dataclasses by field, anything
    else by pickle).
:mod:`~repro.service.registry`
    The artifact kinds, one per CLI artifact subcommand (``table1`` …
    ``patterns``): spec normalization, cell building and rendering.
:mod:`~repro.service.scheduler`
    The admission queue: strict priority, round-robin fairness across
    clients within a priority, bounded depth with structured retry-after
    rejection.
:mod:`~repro.service.store`
    Job records and the trace-artifact store (Perfetto JSON addressed by
    cell content key).
:mod:`~repro.service.bridge`
    The async bridge around :func:`repro.runner.run_cells_detailed`:
    blocking batches run on a worker thread and stream each cell's final
    result back onto the event loop as it lands.
:mod:`~repro.service.server`
    The asyncio daemon behind ``repro serve``.
:mod:`~repro.service.client`
    The synchronous client behind ``repro submit`` / ``repro jobs``, with
    a byte-identical in-process fallback when no server is listening.
"""

from importlib import import_module

#: Where each public name is defined. The package imports none of these
#: modules itself, so ``repro.service.registry`` does not pull in the
#: asyncio daemon; :func:`__getattr__` imports one on its name's first use.
_ORIGINS = {
    "DEFAULT_SOCKET": "repro.service.protocol",
    "PROTOCOL_VERSION": "repro.service.protocol",
    "SOCKET_ENV_VAR": "repro.service.protocol",
    "JobScheduler": "repro.service.scheduler",
    "QueueFull": "repro.service.scheduler",
    "ReproService": "repro.service.server",
    "ServiceClient": "repro.service.client",
    "ServiceThread": "repro.service.server",
    "SubmitOutcome": "repro.service.client",
    "kind_names": "repro.service.registry",
    "normalize_spec": "repro.service.registry",
    "server_available": "repro.service.client",
    "submit_or_local": "repro.service.client",
}

__all__ = [
    "DEFAULT_SOCKET",
    "PROTOCOL_VERSION",
    "SOCKET_ENV_VAR",
    "JobScheduler",
    "QueueFull",
    "ReproService",
    "ServiceClient",
    "ServiceThread",
    "SubmitOutcome",
    "kind_names",
    "normalize_spec",
    "server_available",
    "submit_or_local",
]


def __getattr__(name: str):
    """Resolve a public name from its defining module (PEP 562).

    Nothing is cached here: ``repro.service.X`` is always the defining
    module's current attribute.
    """
    try:
        origin = _ORIGINS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    return getattr(import_module(origin), name)
