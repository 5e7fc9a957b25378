"""Wire protocol for the simulation service: NDJSON frames + value codec.

Framing
-------

One JSON object per ``\\n``-terminated line, in both directions. Requests
carry an ``op`` field (``hello``, ``submit``, ``jobs``, ``cancel``,
``ping``, ``shutdown``); responses and streamed job events carry an
``event`` field (``hello``, ``accepted``, ``cell``, ``done``, ``jobs``,
``pong``, ``cancelled``, ``shutting-down``, ``error``). Frames are
serialized with sorted keys and compact separators, so a frame's bytes are
a pure function of its content.

Value codec
-----------

Cell values cross the socket through :func:`encode_value` /
:func:`decode_value`, a typed envelope that round-trips *exactly* — the
client re-renders artifacts from decoded values, and the service's
byte-identity contract (server-backed output == in-process fallback
output) rests on this codec never perturbing a value:

* ``json`` — the exact-round-trip JSON subset (None, bool, int, float,
  str, lists, str-keyed dicts whose keys are in sorted order, since
  frames sort keys and a renderer may iterate a dict). Floats serialize
  by ``repr`` and parse back to the identical IEEE value; NaN/Infinity
  use Python's JSON extensions (this is a private protocol, both ends
  are this module).
* ``tuple`` — tuples, recursively encoded (JSON has no tuple type).
* ``dc`` — dataclasses, by importable class name and field values.
* ``pkl`` — anything else picklable, as base64 (local Unix socket, same
  code on both ends — the trust model of a same-user daemon).
* ``repr`` — unpicklable exceptions degrade to :class:`RemoteError`,
  whose ``repr`` preserves the original's, keeping failure rendering
  byte-identical.
"""

from __future__ import annotations

import base64
import dataclasses
import importlib
import json
import pickle
from typing import Any, Dict, Optional

from repro.errors import ProtocolError

__all__ = [
    "DEFAULT_SOCKET",
    "PROTOCOL_VERSION",
    "SOCKET_ENV_VAR",
    "MAX_FRAME_BYTES",
    "RemoteError",
    "decode_failure",
    "decode_value",
    "dumps_line",
    "encode_failure",
    "encode_value",
    "error_event",
    "loads_line",
]

#: Protocol revision; bumped on incompatible frame changes.
PROTOCOL_VERSION = 1

#: Environment variable naming the service socket path.
SOCKET_ENV_VAR = "REPRO_SOCKET"

#: Default Unix socket path (relative to the working directory, next to
#: ``.repro-cache/`` — one project, one service).
DEFAULT_SOCKET = ".repro-service.sock"

#: Stream limit for one frame: traced cells ship whole span recordings.
MAX_FRAME_BYTES = 256 * 1024 * 1024


class RemoteError(Exception):
    """Stand-in for a server-side exception that could not be pickled.

    Carries the original exception's ``repr`` (and class name) so client
    renderings that embed ``failure.error!r`` stay byte-identical.
    """

    def __init__(self, original_repr: str, original_class: str = "Exception") -> None:
        super().__init__(original_repr)
        self.original_repr = original_repr
        self.original_class = original_class

    def __repr__(self) -> str:  # noqa: D105 — the whole point of the class
        return self.original_repr


# ---------------------------------------------------------------- framing


def dumps_line(frame: Dict[str, Any]) -> bytes:
    """One frame as canonical NDJSON bytes (sorted keys, trailing LF)."""
    return (
        json.dumps(frame, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def loads_line(line: bytes) -> Dict[str, Any]:
    """Parse one frame; anything but a JSON object is a protocol error."""
    try:
        frame = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise ProtocolError(f"undecodable frame: {error}") from None
    if not isinstance(frame, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(frame).__name__}"
        )
    return frame


def error_event(
    code: str,
    message: str,
    retry_after_s: Optional[float] = None,
    **extra: Any,
) -> Dict[str, Any]:
    """A structured error frame (``retry_after_s`` only when backpressure)."""
    frame: Dict[str, Any] = {"event": "error", "code": code, "message": message}
    if retry_after_s is not None:
        frame["retry_after_s"] = retry_after_s
    frame.update(extra)
    return frame


# ------------------------------------------------------------ value codec


def _json_exact(value: Any) -> bool:
    """Does ``value`` survive a JSON round trip without changing type?"""
    if value is None or isinstance(value, (bool, str)):
        return True
    if isinstance(value, int):
        # bool handled above; JSON ints are arbitrary precision in Python.
        return True
    if isinstance(value, float):
        return True
    if isinstance(value, list):
        return all(_json_exact(item) for item in value)
    if isinstance(value, dict):
        # Frames sort keys, so only an already-sorted dict keeps its order.
        keys = list(value)
        return (
            all(isinstance(key, str) for key in keys)
            and keys == sorted(keys)
            and all(_json_exact(item) for item in value.values())
        )
    return False


def encode_value(value: Any) -> Dict[str, Any]:
    """Encode one value as a typed envelope (see the module docstring)."""
    if _json_exact(value):
        return {"t": "json", "v": value}
    if isinstance(value, tuple):
        return {"t": "tuple", "v": [encode_value(item) for item in value]}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        if all(field.init for field in dataclasses.fields(cls)):
            return {
                "t": "dc",
                "cls": f"{cls.__module__}:{cls.__qualname__}",
                "f": {
                    field.name: encode_value(getattr(value, field.name))
                    for field in dataclasses.fields(cls)
                },
            }
    try:
        payload = pickle.dumps(value)
    except Exception:
        return {
            "t": "repr",
            "r": repr(value),
            "cls": type(value).__qualname__,
        }
    return {"t": "pkl", "b": base64.b64encode(payload).decode("ascii")}


def _resolve_class(spec: str) -> Any:
    module_name, _, qualname = spec.partition(":")
    if not module_name or not qualname:
        raise ProtocolError(f"malformed dataclass reference {spec!r}")
    try:
        target: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            target = getattr(target, part)
    except (ImportError, AttributeError) as error:
        raise ProtocolError(
            f"cannot resolve dataclass {spec!r}: {error}"
        ) from None
    return target


def decode_value(envelope: Any) -> Any:
    """Invert :func:`encode_value`; malformed envelopes raise ProtocolError."""
    if not isinstance(envelope, dict) or "t" not in envelope:
        raise ProtocolError(f"malformed value envelope: {envelope!r}")
    tag = envelope["t"]
    if tag == "json":
        return envelope.get("v")
    if tag == "tuple":
        items = envelope.get("v")
        if not isinstance(items, list):
            raise ProtocolError("tuple envelope without a list payload")
        return tuple(decode_value(item) for item in items)
    if tag == "dc":
        cls = _resolve_class(envelope.get("cls", ""))
        fields = envelope.get("f")
        if not isinstance(fields, dict):
            raise ProtocolError("dataclass envelope without field map")
        return cls(**{name: decode_value(item) for name, item in fields.items()})
    if tag == "pkl":
        try:
            return pickle.loads(base64.b64decode(envelope.get("b", "")))
        except Exception as error:
            raise ProtocolError(f"undecodable pickle payload: {error}") from None
    if tag == "repr":
        return RemoteError(
            envelope.get("r", "<unknown remote error>"),
            envelope.get("cls", "Exception"),
        )
    raise ProtocolError(f"unknown value envelope tag {tag!r}")


# --------------------------------------------------------------- failures


def encode_failure(failure: Any) -> Dict[str, Any]:
    """Encode a :class:`repro.runner.CellFailure` for one cell event."""
    return {
        "kind": failure.kind,
        "attempts": failure.attempts,
        "error": encode_value(failure.error),
    }


def decode_failure(index: int, payload: Dict[str, Any]) -> Any:
    """Rebuild a :class:`repro.runner.CellFailure` at the client."""
    from repro.runner import CellFailure

    error = decode_value(payload.get("error", {"t": "json", "v": None}))
    if not isinstance(error, BaseException):
        error = RemoteError(repr(error))
    return CellFailure(
        index=index,
        kind=payload.get("kind", "error"),
        error=error,
        attempts=int(payload.get("attempts", 1)),
    )
