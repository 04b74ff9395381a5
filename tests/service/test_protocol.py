"""Wire schema: spec validation, float round-trips, WS framing."""

from __future__ import annotations

import math
import struct

import pytest

from repro.service.protocol import (
    OP_BINARY,
    OP_CLOSE,
    OP_CONT,
    OP_PING,
    OP_TEXT,
    ProtocolError,
    RunSpec,
    WSDecoder,
    dumps,
    loads,
    window_to_jsonable,
    ws_accept_key,
    ws_encode,
)


class TestRunSpec:
    def test_minimal_spec(self):
        spec = RunSpec.from_jsonable({"model": "lotka-volterra"})
        assert spec.model == "lotka-volterra"
        assert spec.weight == 1.0
        assert spec.build_model() is not None

    def test_config_fields_pass_through(self):
        spec = RunSpec.from_jsonable({
            "model": "neurospora",
            "omega": 50,
            "config": {"n_simulations": 16, "seed": 7, "quantum": 2.0},
            "weight": 4,
            "label": "sweep"})
        assert spec.config.n_simulations == 16
        assert spec.config.seed == 7
        assert spec.omega == 50.0
        assert spec.weight == 4.0
        assert spec.label == "sweep"

    def test_unknown_model_rejected(self):
        with pytest.raises(ProtocolError, match="unknown model"):
            RunSpec.from_jsonable({"model": "fishes"})

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError):
            RunSpec.from_jsonable(["model"])

    def test_service_owned_config_fields_rejected(self):
        """backend/trace/columnar and the width belong to the service,
        not tenants -- naming them must fail loudly, not be silently
        ignored."""
        for field in ("backend", "trace", "columnar", "keep_cuts",
                      "n_sim_workers",
                      "zero_copy"):  # the last: no such field any more
            with pytest.raises(ProtocolError, match="not settable"):
                RunSpec.from_jsonable({"model": "toggle",
                                       "config": {field: True}})

    def test_invalid_config_value_rejected(self):
        with pytest.raises(ProtocolError, match="bad config"):
            RunSpec.from_jsonable({"model": "toggle",
                                   "config": {"n_simulations": -1}})

    def test_bad_weight_rejected(self):
        with pytest.raises(ProtocolError, match="weight"):
            RunSpec.from_jsonable({"model": "toggle", "weight": 0})
        with pytest.raises(ProtocolError, match="max_inflight"):
            RunSpec.from_jsonable({"model": "toggle", "max_inflight": 0})

    def test_adaptive_species_coerced_to_tuple(self):
        spec = RunSpec.from_jsonable({
            "model": "toggle",
            "config": {"adaptive_ci": 0.5, "adaptive_species": [0, 1]}})
        assert spec.config.adaptive_species == (0, 1)


class TestSweepSpec:
    def test_points_form(self):
        spec = RunSpec.from_jsonable({
            "model": "neurospora",
            "sweep": {"points": [{"translation": 0.2}, {}],
                      "n_trajectories": 8, "seed": 3}})
        assert spec.sweep is not None
        assert spec.sweep.n_points == 2
        assert spec.sweep.n_trajectories == 8
        assert spec.sweep.seed == 3

    def test_grid_form(self):
        spec = RunSpec.from_jsonable({
            "model": "neurospora",
            "sweep": {"grid": {"translation": [0.2, 0.5, 0.8]},
                      "n_trajectories": 4}})
        assert spec.sweep.n_points == 3
        assert spec.sweep.points[1] == {"translation": 0.5}

    def test_absent_sweep_stays_none(self):
        assert RunSpec.from_jsonable({"model": "toggle"}).sweep is None

    def test_non_object_sweep_rejected(self):
        with pytest.raises(ProtocolError, match="sweep must be"):
            RunSpec.from_jsonable({"model": "toggle", "sweep": [1, 2]})

    def test_malformed_sweep_rejected(self):
        with pytest.raises(ProtocolError, match="bad sweep spec"):
            RunSpec.from_jsonable({"model": "toggle",
                                   "sweep": {"points": []}})
        with pytest.raises(ProtocolError, match="bad sweep spec"):
            RunSpec.from_jsonable({"model": "toggle",
                                   "sweep": {"n_trajectories": 4}})


class TestJSONBitExactness:
    def test_awkward_floats_round_trip(self):
        values = [0.1, 1 / 3, 1e-308, 1.7976931348623157e308,
                  math.pi, -0.0, 123456789.123456789]
        decoded = loads(dumps(values))
        for original, back in zip(values, decoded):
            assert struct.pack("<d", original) == struct.pack("<d", back)

    def test_loads_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            loads(b"{not json")
        with pytest.raises(ProtocolError):
            loads(b"\xff\xfe")


class TestWindowSerialisation:
    def test_window_round_trips_through_json(self, lotka_small):
        from repro.pipeline import WorkflowConfig, run_workflow
        config = WorkflowConfig(n_simulations=4, t_end=3.0,
                                sample_every=0.25, quantum=1.0,
                                window_size=8, window_slide=8,
                                kmeans_k=2, seed=5)
        result = run_workflow(lotka_small, config)
        assert result.windows
        payload = [window_to_jsonable(w) for w in result.windows]
        assert loads(dumps(payload)) == payload


class TestWSFraming:
    def test_accept_key_rfc_vector(self):
        # the worked example from RFC 6455 section 1.3
        assert ws_accept_key("dGhlIHNhbXBsZSBub25jZQ==") == \
            "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="

    @pytest.mark.parametrize("size", [0, 5, 125, 126, 127, 65535, 65536,
                                      70000])
    @pytest.mark.parametrize("mask", [False, True])
    def test_encode_decode_round_trip(self, size, mask):
        payload = bytes(i % 251 for i in range(size))
        frame = ws_encode(payload, OP_BINARY, mask=mask)
        messages = WSDecoder().feed(frame)
        assert messages == [(OP_BINARY, payload)]

    def test_partial_feed_reassembles(self):
        payload = b"x" * 300
        frame = ws_encode(payload, OP_TEXT, mask=True)
        decoder = WSDecoder()
        out = []
        for i in range(0, len(frame), 7):
            out.extend(decoder.feed(frame[i:i + 7]))
        assert out == [(OP_TEXT, payload)]

    def test_fragmented_message_reassembled(self):
        decoder = WSDecoder()
        part1 = ws_encode(b"hello ", OP_TEXT, fin=False)
        part2 = ws_encode(b"wor", OP_CONT, fin=False)
        part3 = ws_encode(b"ld", OP_CONT, fin=True)
        assert decoder.feed(part1) == []
        assert decoder.feed(part2) == []
        assert decoder.feed(part3) == [(OP_TEXT, b"hello world")]

    def test_control_frame_interleaves_fragments(self):
        decoder = WSDecoder()
        decoder.feed(ws_encode(b"frag", OP_TEXT, fin=False))
        assert decoder.feed(ws_encode(b"p", OP_PING)) == [(OP_PING, b"p")]
        assert decoder.feed(ws_encode(b"ment", OP_CONT, fin=True)) == \
            [(OP_TEXT, b"fragment")]

    def test_multiple_frames_one_packet(self):
        data = (ws_encode(b"one", OP_TEXT) + ws_encode(b"two", OP_TEXT)
                + ws_encode(b"", OP_CLOSE))
        assert WSDecoder().feed(data) == [
            (OP_TEXT, b"one"), (OP_TEXT, b"two"), (OP_CLOSE, b"")]

    def test_continuation_without_start_rejected(self):
        with pytest.raises(ProtocolError):
            WSDecoder().feed(ws_encode(b"x", OP_CONT, fin=True))

    def test_new_message_inside_fragment_rejected(self):
        decoder = WSDecoder()
        decoder.feed(ws_encode(b"a", OP_TEXT, fin=False))
        with pytest.raises(ProtocolError):
            decoder.feed(ws_encode(b"b", OP_TEXT, fin=True))

    def test_fragmented_control_frame_rejected(self):
        with pytest.raises(ProtocolError):
            WSDecoder().feed(ws_encode(b"p", OP_PING, fin=False))

    def test_reserved_bits_rejected(self):
        frame = bytearray(ws_encode(b"x", OP_TEXT))
        frame[0] |= 0x40  # pretend an extension negotiated RSV1
        with pytest.raises(ProtocolError):
            WSDecoder().feed(bytes(frame))

    def test_oversized_frame_rejected(self):
        header = bytes([0x82, 127]) + struct.pack(
            "!Q", WSDecoder.MAX_MESSAGE + 1)
        with pytest.raises(ProtocolError):
            WSDecoder().feed(header)
