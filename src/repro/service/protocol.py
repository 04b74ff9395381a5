"""Wire schema of the service: JSON payloads + RFC 6455 WS framing.

Everything here is stdlib: the service's promise is *bit-identical
results over the socket*, and that only needs care, not a framework.

**Bit-exactness.**  Window statistics are floats; ``json`` encodes a
float with ``repr``, Python's shortest round-tripping representation,
and decodes it back to the *same* IEEE-754 double.  So
``windows_to_jsonable(run_workflow(...).windows)`` compared (``==``)
against the dicts a WebSocket subscriber decoded is an exact,
bit-level equality check -- the service smoke test and the acceptance
suite both lean on this.

**WebSocket subset.**  Server and client framing for text/binary/
close/ping/pong with 7/16/64-bit lengths, masking, and fragmented
messages (continuation frames are reassembled).  No extensions, no
compression -- a deliberate floor that real clients (``websockets``,
browsers) interoperate with.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import struct
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.analysis.engines import WindowStatistics
from repro.analysis.histogram import Histogram
from repro.analysis.kmeans import KMeansResult
from repro.analysis.stats import CutStatistics
from repro.models import (
    lotka_volterra_network,
    mm_enzyme_network,
    neurospora_cwc_model,
    neurospora_network,
    toggle_switch_network,
)
from repro.pipeline.config import WorkflowConfig
from repro.sweep.spec import SweepSpec


class ProtocolError(ValueError):
    """Malformed request payload or WebSocket stream."""


# ----------------------------------------------------------------------
# run submission
# ----------------------------------------------------------------------

#: models a tenant may submit (name -> factory(omega)); mirrors the
#: batch CLI's registry so "same config via the CLI" is well defined
MODEL_FACTORIES = {
    "neurospora": lambda omega: neurospora_network(omega=omega),
    "neurospora-cwc": lambda omega: neurospora_cwc_model(omega=omega),
    "lotka-volterra": lambda omega: lotka_volterra_network(omega=omega),
    "toggle": lambda omega: toggle_switch_network(omega=omega),
    "enzyme": lambda omega: mm_enzyme_network(omega=omega),
}

#: WorkflowConfig fields a tenant may set.  Backend, tracing and width
#: (``n_sim_workers``: the fleet decides it) are the *service's*
#: business: a spec naming them -- or anything that is no config field
#: at all -- is rejected loudly, not silently ignored.
CONFIG_FIELDS = frozenset({
    "n_simulations", "t_end", "sample_every", "quantum",
    "n_stat_workers", "window_size", "window_slide",
    "kmeans_k", "filter_width", "histogram_bins", "seed",
    "engine", "batch_size", "engine_kernel", "method",
    "adaptive_ci", "adaptive_relative", "adaptive_min_windows",
    "adaptive_species", "adaptive_repriority",
})


@dataclass
class RunSpec:
    """One tenant's run request, validated."""

    model: str
    omega: float = 100.0
    config: WorkflowConfig = field(default_factory=WorkflowConfig)
    weight: float = 1.0
    max_inflight: Optional[int] = None
    label: str = ""
    #: a parameter sweep instead of a single run: the fused sweep plane
    #: executes it over the same fleet (``POST /runs`` with a ``sweep``
    #: object -- points list or grid, n_trajectories, seed)
    sweep: Optional[SweepSpec] = None

    @classmethod
    def from_jsonable(cls, payload: Any) -> "RunSpec":
        if not isinstance(payload, dict):
            raise ProtocolError("run spec must be a JSON object")
        model = payload.get("model")
        if model not in MODEL_FACTORIES:
            raise ProtocolError(
                f"unknown model {model!r}; available: "
                f"{', '.join(sorted(MODEL_FACTORIES))}")
        cfg_payload = payload.get("config", {})
        if not isinstance(cfg_payload, dict):
            raise ProtocolError("config must be a JSON object")
        unknown = set(cfg_payload) - CONFIG_FIELDS
        if unknown:
            raise ProtocolError(
                f"config fields not settable through the service: "
                f"{', '.join(sorted(unknown))}")
        kwargs = dict(cfg_payload)
        if "adaptive_species" in kwargs and kwargs["adaptive_species"] \
                is not None:
            kwargs["adaptive_species"] = tuple(kwargs["adaptive_species"])
        try:
            config = WorkflowConfig(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"bad config: {exc}") from exc
        weight = float(payload.get("weight", 1.0))
        if weight <= 0:
            raise ProtocolError(f"weight must be > 0, got {weight}")
        max_inflight = payload.get("max_inflight")
        if max_inflight is not None:
            max_inflight = int(max_inflight)
            if max_inflight < 1:
                raise ProtocolError("max_inflight must be >= 1")
        sweep_payload = payload.get("sweep")
        sweep = None
        if sweep_payload is not None:
            if not isinstance(sweep_payload, dict):
                raise ProtocolError("sweep must be a JSON object")
            try:
                sweep = SweepSpec.from_dict(sweep_payload)
            except (TypeError, ValueError, KeyError) as exc:
                raise ProtocolError(f"bad sweep spec: {exc}") from exc
        return cls(model=model,
                   omega=float(payload.get("omega", 100.0)),
                   config=config,
                   weight=weight,
                   max_inflight=max_inflight,
                   label=str(payload.get("label", "")),
                   sweep=sweep)

    def build_model(self):
        return MODEL_FACTORIES[self.model](self.omega)


# ----------------------------------------------------------------------
# result serialisation
# ----------------------------------------------------------------------

def _cut_to_jsonable(cut: CutStatistics) -> dict[str, Any]:
    return {
        "grid_index": cut.grid_index,
        "time": cut.time,
        "n_trajectories": cut.n_trajectories,
        "mean": list(cut.mean),
        "variance": list(cut.variance),
        "minimum": list(cut.minimum),
        "maximum": list(cut.maximum),
        "median": list(cut.median),
    }


def _kmeans_to_jsonable(result: KMeansResult) -> dict[str, Any]:
    return {
        "centroids": [list(c) for c in result.centroids],
        "assignments": list(result.assignments),
        "inertia": result.inertia,
        "iterations": result.iterations,
    }


def _histogram_to_jsonable(hist: Histogram) -> dict[str, Any]:
    return {"low": hist.low, "high": hist.high,
            "counts": list(hist.counts)}


def window_to_jsonable(stats: WindowStatistics) -> dict[str, Any]:
    """One analysed window as a JSON-ready dict (floats round-trip
    exactly; see module docstring)."""
    return {
        "window_index": stats.window_index,
        "start_time": stats.start_time,
        "end_time": stats.end_time,
        "cuts": [_cut_to_jsonable(c) for c in stats.cuts],
        "clusters": {str(obs): _kmeans_to_jsonable(r)
                     for obs, r in sorted(stats.clusters.items())},
        "filtered_mean": {str(obs): list(series)
                          for obs, series
                          in sorted(stats.filtered_mean.items())},
        "histograms": {str(obs): _histogram_to_jsonable(h)
                       for obs, h in sorted(stats.histograms.items())},
        "ci_half_width": list(stats.ci_half_width),
        "window_mean": list(stats.window_mean),
        "ci_confidence": stats.ci_confidence,
    }


def windows_to_jsonable(windows: list[WindowStatistics]
                        ) -> list[dict[str, Any]]:
    return [window_to_jsonable(w) for w in windows]


def dumps(payload: Any) -> bytes:
    """Canonical JSON bytes (compact separators, keys untouched)."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def loads(data: bytes) -> Any:
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"invalid JSON payload: {exc}") from exc


# ----------------------------------------------------------------------
# WebSocket framing (RFC 6455, no extensions)
# ----------------------------------------------------------------------

WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

OP_CONT = 0x0
OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA

_CONTROL_OPS = (OP_CLOSE, OP_PING, OP_PONG)


def ws_accept_key(client_key: str) -> str:
    """The ``Sec-WebSocket-Accept`` value for a client's key."""
    digest = hashlib.sha1(
        (client_key.strip() + WS_GUID).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


def ws_encode(payload: bytes, opcode: int = OP_TEXT,
              mask: bool = False, fin: bool = True) -> bytes:
    """One WebSocket frame.  Servers send unmasked, clients masked."""
    header = bytearray([(0x80 if fin else 0) | opcode])
    length = len(payload)
    mask_bit = 0x80 if mask else 0
    if length < 126:
        header.append(mask_bit | length)
    elif length < (1 << 16):
        header.append(mask_bit | 126)
        header += struct.pack("!H", length)
    else:
        header.append(mask_bit | 127)
        header += struct.pack("!Q", length)
    if not mask:
        return bytes(header) + payload
    key = os.urandom(4)
    header += key
    masked = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return bytes(header) + masked


class WSDecoder:
    """Incremental WebSocket frame decoder.

    Feed raw socket bytes, collect complete *messages*:
    ``feed(data) -> [(opcode, payload), ...]``.  Fragmented data
    messages are reassembled (the yielded opcode is the initial
    frame's); control frames are yielded as they arrive (they may
    legally interleave a fragmented message).
    """

    MAX_MESSAGE = 64 * 1024 * 1024  # a service run's largest window set

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._fragments: list[bytes] = []
        self._fragment_opcode: Optional[int] = None

    def feed(self, data: bytes) -> list[tuple[int, bytes]]:
        self._buffer += data
        messages: list[tuple[int, bytes]] = []
        while True:
            frame = self._next_frame()
            if frame is None:
                return messages
            fin, opcode, payload = frame
            if opcode in _CONTROL_OPS:
                if not fin:
                    raise ProtocolError("fragmented control frame")
                messages.append((opcode, payload))
                continue
            if opcode == OP_CONT:
                if self._fragment_opcode is None:
                    raise ProtocolError("continuation without a start")
                self._fragments.append(payload)
            else:
                if self._fragment_opcode is not None:
                    raise ProtocolError("new message inside a fragment")
                self._fragment_opcode = opcode
                self._fragments = [payload]
            if sum(len(f) for f in self._fragments) > self.MAX_MESSAGE:
                raise ProtocolError("message too large")
            if fin:
                messages.append((self._fragment_opcode,
                                 b"".join(self._fragments)))
                self._fragments = []
                self._fragment_opcode = None

    def _next_frame(self) -> Optional[tuple[bool, int, bytes]]:
        buf = self._buffer
        if len(buf) < 2:
            return None
        first, second = buf[0], buf[1]
        if first & 0x70:
            raise ProtocolError("reserved bits set (extensions "
                                "are not negotiated)")
        fin = bool(first & 0x80)
        opcode = first & 0x0F
        masked = bool(second & 0x80)
        length = second & 0x7F
        offset = 2
        if length == 126:
            if len(buf) < offset + 2:
                return None
            (length,) = struct.unpack_from("!H", buf, offset)
            offset += 2
        elif length == 127:
            if len(buf) < offset + 8:
                return None
            (length,) = struct.unpack_from("!Q", buf, offset)
            offset += 8
        if length > self.MAX_MESSAGE:
            raise ProtocolError("frame too large")
        key = b""
        if masked:
            if len(buf) < offset + 4:
                return None
            key = bytes(buf[offset:offset + 4])
            offset += 4
        if len(buf) < offset + length:
            return None
        payload = bytes(buf[offset:offset + length])
        del self._buffer[:offset + length]
        if masked:
            payload = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
        return fin, opcode, payload
