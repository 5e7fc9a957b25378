"""Synchronous client for the simulation service, with in-process fallback.

:class:`ServiceClient` speaks the NDJSON protocol over a stdlib
``AF_UNIX`` socket — no asyncio on the client side, so ``repro submit``
stays an ordinary blocking command. :func:`submit_or_local` is the
entry point the CLI uses: if a server is listening on the socket it
submits there; otherwise it runs the same normalized spec through
:func:`repro.service.registry.run_local` in this process. Both paths
return the same :class:`SubmitOutcome` shape with results in submission
order, and since the served path's values round-trip exactly through the
protocol codec and rendering happens locally either way, the printed
artifact is byte-identical whether or not a server was there.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ProtocolError, ServiceError
from repro.runner import CellResult, USE_DEFAULT_CACHE
from repro.service.protocol import (
    PROTOCOL_VERSION,
    decode_failure,
    decode_value,
    dumps_line,
    loads_line,
    resolve_socket_path,
)

__all__ = [
    "ServiceClient",
    "SubmitOutcome",
    "server_available",
    "submit_or_local",
]


@dataclass
class SubmitOutcome:
    """One batch's outcome, identical in shape for served and local runs."""

    spec: Dict[str, Any]
    results: List[CellResult]
    served: bool
    job_id: Optional[str] = None
    status: str = "done"
    precached: int = 0
    trace_paths: Dict[int, str] = field(default_factory=dict)

    @property
    def hits(self) -> int:
        return sum(1 for result in self.results if result.cached)

    @property
    def deduped(self) -> int:
        return sum(1 for result in self.results if result.deduped)

    @property
    def failures(self) -> int:
        return sum(1 for result in self.results if not result.ok)

    def render(self) -> str:
        """The human-readable artifact (byte-identical served or local)."""
        from repro.service.registry import render_results

        return render_results(self.spec, self.results)


class ServiceClient:
    """A blocking NDJSON client bound to one connection."""

    def __init__(
        self,
        socket_path: Optional[str] = None,
        *,
        client: Optional[str] = None,
        connect_timeout_s: float = 5.0,
    ) -> None:
        self.socket_path = resolve_socket_path(socket_path)
        self.client = client
        self.connect_timeout_s = connect_timeout_s
        self._sock: Optional[socket.socket] = None
        self._reader = None
        #: Frames read while waiting for a specific reply (e.g. a job's
        #: streamed events arriving around a cancel ack) — consumed first
        #: by the next read of a job's stream so nothing is dropped.
        self._pending: List[Dict[str, Any]] = []
        self.server_info: Dict[str, Any] = {}

    # ------------------------------------------------------------ framing

    def connect(self) -> "ServiceClient":
        """Connect and complete the hello handshake."""
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.connect_timeout_s)
        try:
            sock.connect(self.socket_path)
        except OSError:
            sock.close()
            raise
        sock.settimeout(None)
        self._sock = sock
        self._reader = sock.makefile("rb")
        frame: Dict[str, Any] = {"op": "hello"}
        if self.client:
            frame["client"] = self.client
        self._send(frame)
        hello = self._recv()
        if hello.get("event") != "hello":
            raise ProtocolError(f"expected hello, got {hello!r}")
        if hello.get("version") != PROTOCOL_VERSION:
            raise ProtocolError(
                f"protocol version mismatch: server speaks "
                f"{hello.get('version')}, client speaks {PROTOCOL_VERSION}"
            )
        self.server_info = hello
        return self

    def close(self) -> None:
        """Close the connection; safe to call twice."""
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:
                pass
            self._reader = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _send(self, frame: Dict[str, Any]) -> None:
        assert self._sock is not None, "client is not connected"
        self._sock.sendall(dumps_line(frame))

    def _recv(self) -> Dict[str, Any]:
        assert self._reader is not None, "client is not connected"
        line = self._reader.readline()
        if not line:
            raise ServiceError(
                "server closed the connection", code="disconnected"
            )
        return loads_line(line)

    def _await_event(self, *events: str) -> Dict[str, Any]:
        """Read until a frame of one of ``events`` (or an error) arrives.

        Anything else read along the way — streamed cell/done events for
        a job this connection subscribed to — is buffered, not dropped.
        """
        while True:
            frame = self._raise_on_error(self._recv())
            if frame.get("event") in events:
                return frame
            self._pending.append(frame)

    @staticmethod
    def _raise_on_error(frame: Dict[str, Any]) -> Dict[str, Any]:
        if frame.get("event") == "error":
            raise ServiceError(
                frame.get("message", "service error"),
                code=frame.get("code", "error"),
                retry_after_s=frame.get("retry_after_s"),
            )
        return frame

    # ---------------------------------------------------------------- ops

    def ping(self) -> bool:
        """Round-trip a ping; True once the server answers."""
        self._send({"op": "ping"})
        return self._await_event("pong") is not None

    def jobs(self) -> Dict[str, Any]:
        """The server's queue snapshot and job records."""
        self._send({"op": "jobs"})
        return self._await_event("jobs")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Cancel a queued or running job; the ack says which it was."""
        self._send({"op": "cancel", "job": job_id})
        return self._await_event("cancelled")

    def shutdown(self) -> None:
        """Ask the server to stop; returns once it acknowledges."""
        self._send({"op": "shutdown"})
        self._await_event("shutting-down")

    def submit(
        self,
        spec: Dict[str, Any],
        *,
        priority: int = 0,
        on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> SubmitOutcome:
        """Submit one spec and stream it to completion.

        Raises :class:`ServiceError` on rejection — ``code="queue-full"``
        carries the server's ``retry_after_s`` backpressure hint.
        ``on_event`` observes every raw frame (for progress display);
        results are reassembled in submission order regardless of the
        order events arrived in.
        """
        from repro.service.registry import normalize_spec

        spec = normalize_spec(spec)
        self._send({"op": "submit", "spec": spec, "priority": priority})
        accepted = self._await_event("accepted")
        job_id = accepted.get("job")
        outcome = SubmitOutcome(
            spec=spec,
            results=[],
            served=True,
            job_id=job_id,
            precached=int(accepted.get("precached", 0)),
        )
        if on_event is not None:
            on_event(accepted)
        by_index: Dict[int, CellResult] = {}
        while True:
            if self._pending:
                frame = self._pending.pop(0)
            else:
                frame = self._raise_on_error(self._recv())
            if on_event is not None:
                on_event(frame)
            if frame.get("job") != job_id:
                continue
            if frame.get("event") == "cell":
                result = self._decode_cell(frame)
                by_index[result.index] = result
                if "trace" in frame:
                    outcome.trace_paths[result.index] = frame["trace"]
            elif frame.get("event") == "done":
                outcome.status = frame.get("status", "done")
                break
        outcome.results = [by_index[index] for index in sorted(by_index)]
        return outcome

    @staticmethod
    def _decode_cell(frame: Dict[str, Any]) -> CellResult:
        index = int(frame.get("index", 0))
        status = frame.get("status")
        attempts = int(frame.get("attempts", 1))
        deduped = bool(frame.get("deduped", False))
        if status in ("failed", "cancelled"):
            return CellResult(
                index,
                failure=decode_failure(index, frame.get("failure", {})),
                attempts=attempts,
                deduped=deduped,
            )
        return CellResult(
            index,
            value=decode_value(frame.get("value")),
            attempts=attempts,
            cached=(status == "cached"),
            deduped=deduped,
        )


def server_available(socket_path: Optional[str] = None) -> bool:
    """Is a live service answering on the socket? Never raises."""
    try:
        with ServiceClient(socket_path) as client:
            return client.ping()
    except (OSError, ServiceError, ProtocolError):
        return False


def submit_or_local(
    spec: Dict[str, Any],
    *,
    socket_path: Optional[str] = None,
    priority: int = 0,
    client: Optional[str] = None,
    jobs: Any = None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    cache: Any = USE_DEFAULT_CACHE,
    on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
    prefer_local: bool = False,
) -> SubmitOutcome:
    """Submit to a running server, or run the spec in this process.

    The local path executes the identical normalized spec through the
    identical registry code, so ``outcome.render()`` is byte-identical
    either way — the CLI's ``repro submit`` contract. ``prefer_local``
    skips the server probe entirely (``repro submit --local``).
    """
    from repro.service.registry import normalize_spec, run_local

    spec = normalize_spec(spec)
    service_client = None
    if not prefer_local:
        try:
            service_client = ServiceClient(
                socket_path, client=client
            ).connect()
        except OSError:
            service_client = None
    if service_client is not None:
        try:
            return service_client.submit(
                spec, priority=priority, on_event=on_event
            )
        finally:
            service_client.close()
    results = run_local(
        spec, jobs=jobs, timeout_s=timeout_s, retries=retries, cache=cache
    )
    return SubmitOutcome(spec=spec, results=results, served=False)
