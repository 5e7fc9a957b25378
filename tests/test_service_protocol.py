"""Protocol tests: framing, the value codec's exact round trip, failures."""

from __future__ import annotations

import math

import pytest

from repro.errors import ProtocolError
from repro.runner import CellFailure
from repro.service.protocol import (
    RemoteError,
    decode_failure,
    decode_value,
    dumps_line,
    encode_failure,
    encode_value,
    error_event,
    loads_line,
)


def _roundtrip(value):
    return decode_value(loads_line(dumps_line(encode_value(value))))


class TestFraming:
    def test_line_roundtrip_is_identity(self):
        frame = {"op": "submit", "priority": 3, "spec": {"kind": "netstack"}}
        assert loads_line(dumps_line(frame)) == frame

    def test_frames_are_canonical_bytes(self):
        # Same content, different insertion order — identical bytes.
        a = dumps_line({"x": 1, "y": 2})
        b = dumps_line({"y": 2, "x": 1})
        assert a == b
        assert a.endswith(b"\n")
        assert a.count(b"\n") == 1

    def test_non_object_frame_rejected(self):
        with pytest.raises(ProtocolError):
            loads_line(b"[1, 2, 3]\n")

    def test_undecodable_frame_rejected(self):
        with pytest.raises(ProtocolError):
            loads_line(b"{not json}\n")

    def test_error_event_shape(self):
        event = error_event("queue-full", "full", retry_after_s=2.5)
        assert event == {
            "event": "error", "code": "queue-full", "message": "full",
            "retry_after_s": 2.5,
        }
        assert "retry_after_s" not in error_event("bad-request", "nope")


class TestValueCodec:
    @pytest.mark.parametrize("value", [
        None,
        True,
        0,
        -17,
        10**30,                       # beyond float precision
        "text",
        0.1 + 0.2,                    # classic non-representable sum
        [1, "two", [3.5, None]],
        {"a": 1, "b": {"c": [2]}},
    ])
    def test_json_subset_roundtrips_exactly(self, value):
        assert _roundtrip(value) == value

    def test_float_identity_is_bitwise(self):
        for value in (0.1, 1 / 3, 6.02e23, 5e-324, math.pi):
            out = _roundtrip(value)
            assert math.copysign(1, out) == math.copysign(1, value)
            assert out.hex() == value.hex()

    def test_nan_and_inf_survive(self):
        out = _roundtrip([math.inf, -math.inf, math.nan])
        assert out[0] == math.inf and out[1] == -math.inf
        assert math.isnan(out[2])

    def test_bool_does_not_collapse_to_int(self):
        out = _roundtrip([True, 1, False, 0])
        assert [type(item) for item in out] == [bool, int, bool, int]

    def test_tuples_keep_their_type(self):
        value = (1, ("a", 2.5), [3, (4,)])
        out = _roundtrip(value)
        assert out == value
        assert isinstance(out, tuple)
        assert isinstance(out[1], tuple)
        assert isinstance(out[2], list) and isinstance(out[2][1], tuple)

    def test_dataclass_roundtrip(self):
        from repro.experiments.netstack import NetPoint

        point = NetPoint(
            arm="credits", backend="des", victim_gbps=1.25, hog_gbps=2.5,
            victim_share=0.5, jain=0.99, p50_ns=math.nan, p99_ns=123.456,
        )
        envelope = encode_value(point)
        assert envelope["t"] == "dc"
        out = decode_value(loads_line(dumps_line(envelope)))
        assert isinstance(out, NetPoint)
        assert out.arm == point.arm and out.p99_ns == point.p99_ns
        assert math.isnan(out.p50_ns)

    def test_dict_key_order_survives(self):
        # Frames sort keys: a dict in any other order must not take the
        # JSON envelope, or a renderer iterating it would reorder its rows.
        value = {"b": 1, "a": {"d": 2, "c": 3}}
        assert encode_value(value)["t"] == "pkl"
        out = _roundtrip(value)
        assert list(out) == ["b", "a"] and list(out["a"]) == ["d", "c"]

    def test_picklable_fallback(self):
        value = {1: "int keys are not json", frozenset({2}): "nor these"}
        assert _roundtrip(value) == value

    def test_exception_roundtrips_by_pickle(self):
        error = ValueError("boom")
        out = _roundtrip(error)
        assert isinstance(out, ValueError)
        assert repr(out) == repr(error)

    def test_unpicklable_degrades_to_repr(self):
        class Unpicklable(Exception):  # local class: pickle cannot find it
            def __repr__(self):
                return "Unpicklable('custom')"

        out = _roundtrip(Unpicklable())
        assert isinstance(out, RemoteError)
        assert repr(out) == "Unpicklable('custom')"

    def test_malformed_envelopes_rejected(self):
        for bad in (42, {"v": 1}, {"t": "mystery"}, {"t": "tuple", "v": 3},
                    {"t": "dc", "cls": "nope", "f": {}},
                    {"t": "pkl", "b": "!!not base64 pickle!!"}):
            with pytest.raises(ProtocolError):
                decode_value(bad)


class TestFailureCodec:
    def test_failure_roundtrip(self):
        failure = CellFailure(
            index=4, kind="timeout", error=TimeoutError("slow"), attempts=3
        )
        out = decode_failure(4, loads_line(dumps_line(encode_failure(failure))))
        assert isinstance(out, CellFailure)
        assert (out.index, out.kind, out.attempts) == (4, "timeout", 3)
        assert repr(out.error) == repr(failure.error)

    def test_failure_repr_preserved_for_rendering(self):
        # trace's render() embeds `failure.error!r`; the codec must keep
        # that byte-identical even for unpicklable errors.
        class Weird(Exception):
            def __repr__(self):
                return "Weird(<handle>)"

        failure = CellFailure(index=0, kind="error", error=Weird(), attempts=1)
        out = decode_failure(0, encode_failure(failure))
        assert repr(out.error) == "Weird(<handle>)"
