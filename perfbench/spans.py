"""In-memory spans around calls into tempostego's layers.

Every timed operation of a run opens an "op" span. In a traced
execution the module-level bindings listed in LAYERS are replaced by
wrappers that open one span per call, so each layer's time, self time
and work counts can be derived afterwards. Nothing under src/ changes:
the wrappers are installed on the module attributes the package itself
looks up at call time, and removed again when the execution ends.

A span is a list [name, start, end, parent, op, info]: start and end
come from time.perf_counter(), parent is the index of the enclosing
span (or None), op is the operation id, and info holds the work counts
the layer reported for that call.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import time
from contextlib import contextmanager

from tempostego.tempo import TempoConfig

# The splitter scans 20 ms frames (harness.split_on_silence).
SPLIT_FRAME_S = 0.020


def _onset_info(args, kwargs, result):
    buf = args[0]
    config = (args[1] if len(args) > 1 else kwargs.get("config")) or TempoConfig()
    return {"frames": (len(buf) - config.stft_window) // config.stft_hop + 1}


def _tempo_info(args, kwargs, result):
    return {"candidates": len(result.entries), "measured": 1}


def _kernel_info(args, kwargs, result):
    _, _, seq, _, overlap, n_out = args
    hop = seq - overlap
    return {"frames": 1 if n_out <= seq else (n_out - seq + hop - 1) // hop + 1}


def _decode_info(args, kwargs, result):
    return {
        "slices": len(result.per_slice),
        "decided": sum(d.direction is not None for d in result.per_slice),
        "pairs": sum(d.candidate_count_used for d in result.per_slice),
    }


def _read_info(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _write_info(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _split_info(args, kwargs, result):
    stream = args[0]
    frame_n = max(1, int(round(SPLIT_FRAME_S * stream.sample_rate)))
    return {"frames": math.ceil(len(stream) / frame_n), "segments": len(result)}


# (module, attribute, span name, work counts). codec's own bindings of
# estimate_tempo, stretch_tempo and rms_dbfs are wrapped, so the spans
# show what encode and decode spend in each layer; rms_dbfs is called
# from codec only by the reference-silence scan.
LAYERS = (
    ("tempostego.codec", "encode", "codec.encode", None),
    ("tempostego.codec", "decode", "codec.decode", _decode_info),
    ("tempostego.codec", "estimate_tempo", "tempo.estimate_tempo", _tempo_info),
    ("tempostego.codec", "stretch_tempo", "stretch.stretch_tempo", None),
    ("tempostego.codec", "rms_dbfs", "audio.rms_dbfs", None),
    ("tempostego.tempo", "onset_envelope", "tempo.onset_envelope", _onset_info),
    ("tempostego.stretch", "stretch_core", "stretch.kernel", _kernel_info),
    ("tempostego.audio", "read_wav", "audio.read_wav", _read_info),
    ("tempostego.audio", "write_wav", "audio.write_wav", _write_info),
    ("tempostego.harness", "split_on_silence", "harness.split_on_silence", _split_info),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._ops = 0

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, parent, self._op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    @contextmanager
    def op(self, record: dict):
        """One timed operation. record becomes the op span's info; it must
        say whether the layers were traced ("traced")."""
        self._op = self._ops
        self._ops += 1
        try:
            with self.span("op") as s:
                s[5] = record
                yield s
        finally:
            self._op = None

    def wrap(self, fn, name: str, info=None):
        def wrapper(*args, **kwargs):
            s = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(s)
            if info is not None:
                s[5] = info(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def layers(self, enabled: bool):
        """Wrap every binding in LAYERS while the block runs."""
        saved = []
        if enabled:
            for module_name, attr, name, info in LAYERS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn, name, info))
        try:
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, info) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op, "info": info}
                    )
                    + "\n"
                )


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals over the traced operations of a run."""
    ops = [s for s in spans if s[0] == "op"]
    traced_ops = {s[4] for s in ops if s[5]["traced"]}
    child_ms = [0.0] * len(spans)
    for s in spans:
        if s[3] is not None:
            child_ms[s[3]] += (s[2] - s[1]) * 1e3

    ms: dict[str, float] = {}
    self_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    for i, (name, start, end, _, op, info) in enumerate(spans):
        if op not in traced_ops:
            continue
        dur = (end - start) * 1e3
        ms[name] = ms.get(name, 0.0) + dur
        self_ms[name] = self_ms.get(name, 0.0) + dur - child_ms[i]
        calls[name] = calls.get(name, 0) + 1
        for key, value in (info or {}).items():
            if name != "op":
                counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    op_ms = {t: sum((s[2] - s[1]) * 1e3 for s in ops if s[5]["traced"] == t) for t in (True, False)}
    stretch_calls = calls.get("stretch.stretch_tempo", 0)
    return {
        "tempo.estimate_tempo.ms": ms.get("tempo.estimate_tempo", 0.0),
        "tempo.estimate_tempo.self_ms": self_ms.get("tempo.estimate_tempo", 0.0),
        "tempo.estimate_tempo.calls": calls.get("tempo.estimate_tempo", 0),
        "tempo.onset_envelope.ms": ms.get("tempo.onset_envelope", 0.0),
        "tempo.onset_envelope.frames": counts.get("tempo.onset_envelope.frames", 0),
        "tempo.candidates_mean": ratio(
            counts.get("tempo.estimate_tempo.candidates", 0),
            counts.get("tempo.estimate_tempo.measured", 0),
        ),
        "stretch.stretch_tempo.ms": ms.get("stretch.stretch_tempo", 0.0),
        "stretch.stretch_tempo.calls": stretch_calls,
        "stretch.ms_per_slice": ratio(ms.get("stretch.stretch_tempo", 0.0), stretch_calls),
        "stretch.kernel.ms": ms.get("stretch.kernel", 0.0),
        "stretch.frames": counts.get("stretch.kernel.frames", 0),
        "codec.decode.ms": ms.get("codec.decode", 0.0),
        "codec.decode.self_ms": self_ms.get("codec.decode", 0.0),
        "codec.decode.slices": counts.get("codec.decode.slices", 0),
        "codec.decode.decided_frac": ratio(
            counts.get("codec.decode.decided", 0), counts.get("codec.decode.slices", 0)
        ),
        "codec.decode.pairs_kept_mean": ratio(
            counts.get("codec.decode.pairs", 0), counts.get("codec.decode.slices", 0)
        ),
        "codec.encode.ms": ms.get("codec.encode", 0.0),
        "codec.encode.self_ms": self_ms.get("codec.encode", 0.0),
        "codec.reference_scan.ms": ms.get("audio.rms_dbfs", 0.0),
        "audio.rms_dbfs.calls": calls.get("audio.rms_dbfs", 0),
        "audio.read_wav.ms": ms.get("audio.read_wav", 0.0),
        "audio.read_wav.mb": counts.get("audio.read_wav.bytes", 0) / 1e6,
        "audio.write_wav.ms": ms.get("audio.write_wav", 0.0),
        "audio.write_wav.mb": counts.get("audio.write_wav.bytes", 0) / 1e6,
        "harness.split_on_silence.ms": ms.get("harness.split_on_silence", 0.0),
        "harness.split_on_silence.frames": counts.get("harness.split_on_silence.frames", 0),
        "harness.split_on_silence.segments": counts.get("harness.split_on_silence.segments", 0),
        "trace.op_ms": op_ms[True],
        "trace.overhead_frac": ratio(op_ms[True], op_ms[False]) - 1.0 if op_ms[False] else 0.0,
    }
