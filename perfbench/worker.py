"""Run one workload's timed operations in a process of their own.

    python3 perfbench/worker.py MANIFEST --trace 0|1 --spans PATH

run.py starts this process with a manifest written by inputs.build, so
the reported peak RSS belongs to the workload alone. Every operation is
checked, and a failed check or an exception counts the operation as
failed. Before the timed operations an untimed pass warms caches and,
for the workloads whose timed outputs repeat, produces the reference
that is checked once; each timed output must then match it sample for
sample.

A round trip decodes, so a wrong or erased bit fails it. The encode and
split workloads decode their reference only to measure the channel:
their bits count in the bit tallies (ber, bits_ok_frac) but not in the
operation checks. On dense audio the WSOLA alignment follows the bed,
not the beat, and the decoder misread about 0.2% of such bits when this
benchmark was written; that is a limit of the channel, not a fault of
the encode being timed.

With --trace 1 every unit of work runs twice, once plain and once with
the layer bindings wrapped (alternating which goes first), so the
per-layer totals and the tracing overhead come from the same inputs.
The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
import zlib
from contextlib import contextmanager
from importlib import metadata

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import tempostego  # noqa: E402
from tempostego import audio, codec, harness  # noqa: E402
from tempostego.bits import ERASURE, BitString  # noqa: E402
from tempostego.errors import StegoError  # noqa: E402

from inputs import FRAME_N, PHI_N, SR, capacity  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

# Stretched slice lengths, round(10 s / ratio) at delta = 1%: a 1 bit
# plays faster (ratio 1.01), a 0 bit slower (ratio 0.99).
SLICE_LEN = {1: math.floor(PHI_N / 1.01 + 0.5), 0: math.floor(PHI_N / 0.99 + 0.5)}

SETUP_SAMPLES = 10  # set-up calls per run, spread evenly among the operations


def bits_of(text: str) -> BitString:
    return BitString(tuple(int(c) for c in text))


def stego_samples(n: int, message: str) -> int:
    """Length law: untouched parts keep their length, each payload slice
    becomes round(len / ratio) samples."""
    return n + sum(SLICE_LEN[int(b)] - PHI_N for b in message)


def decode_file(path: str, n_bits: int) -> BitString:
    """Decode a written stego file; a missing or unreadable one yields no
    bits, which the comparison counts as erasures."""
    try:
        return codec.decode(audio.read_wav(path), max_bits=n_bits).bits
    except StegoError:
        return BitString(())


def signature(buffers) -> list[tuple[int, int]]:
    return [(len(b), zlib.crc32(b.samples)) for b in buffers]


class Run:
    def __init__(self, trace: bool, setup_cmd: list[str] | None = None, n_ops: int = 1):
        self.trace = trace
        self.tracer = Tracer()
        self.records: list[dict] = []
        self.embedded = self.errors = self.erasures = 0
        self.setup_cmd = setup_cmd
        self.setup_every = max(1, n_ops // SETUP_SAMPLES)
        self.setup_s: list[float] = []
        self.setup_bad = 0

    def measure_setup(self) -> None:
        """Time one fresh `tempostego capacity` call; its printed capacity
        must be 1 (a 30 s carrier)."""
        t0 = time.perf_counter()
        proc = subprocess.run(self.setup_cmd, capture_output=True, text=True, timeout=60)
        self.setup_s.append(time.perf_counter() - t0)
        self.setup_bad += proc.returncode != 0 or proc.stdout.strip() != "1"

    def variants(self, unit: int) -> list[bool]:
        """Traced flags of the executions of one unit of work."""
        if not self.trace:
            return [False]
        return [False, True] if unit % 2 == 0 else [True, False]

    @contextmanager
    def op(self, traced: bool, audio_s: float):
        """Time one operation. An exception inside marks it failed and is
        not propagated; the caller sets rec["ok"] after its checks. The
        caller wraps the layers itself when the execution is traced.
        Set-up calls are spread among the operations, so they sample the
        machine over the whole run."""
        if self.setup_cmd and len(self.records) % self.setup_every == 0:
            self.measure_setup()
        gc.collect()
        rec = {"traced": traced, "audio_s": audio_s, "ok": False, "error": None}
        first = len(self.tracer.spans)
        try:
            with self.tracer.op(rec):
                yield rec
        except Exception as exc:  # the operation failed; count it and go on
            rec["error"] = f"{type(exc).__name__}: {exc}"
        spans = self.tracer.spans
        rec["ms"] = (spans[first][2] - spans[first][1]) * 1e3
        rec["phases"] = {
            s[0][len("phase."):]: (s[2] - s[1]) * 1e3
            for s in spans[first + 1:]
            if s[3] == first and s[0].startswith("phase.")
        }
        self.records.append(rec)

    def compare(self, decoded: BitString, expected: str) -> bool:
        """Tally decoded bits against embedded ones; a wrong bit, an
        erasure or a missing bit fails the comparison."""
        want = [int(c) for c in expected]
        got = list(decoded)
        errors = sum(g != w for g, w in zip(got, want) if g != ERASURE)
        erasures = sum(g == ERASURE for g in got[: len(want)]) + max(0, len(want) - len(got))
        self.embedded += len(want)
        self.errors += errors
        self.erasures += erasures
        return errors == 0 and erasures == 0 and len(got) == len(want)


def run_clicks(m: dict, run: Run) -> None:
    carriers = m["carriers"]
    stego_path = os.path.join(m["work_dir"], "stego.wav")

    def roundtrip(op: dict):
        with run.tracer.span("phase.encode"):
            carrier = audio.read_wav(carriers[op["carrier"]]["path"])
            stego = codec.encode(carrier, bits_of(op["message"]))
            audio.write_wav(stego, stego_path)
        with run.tracer.span("phase.decode"):
            report = codec.decode(audio.read_wav(stego_path), max_bits=len(op["message"]))
        return len(stego), report

    roundtrip(m["ops"][0])  # warm-up
    for i, op in enumerate(m["ops"]):
        n = carriers[op["carrier"]]["samples"]
        for traced in run.variants(i):
            with run.op(traced, n / SR) as rec, run.tracer.layers(traced):
                stego_n, report = roundtrip(op)
            if rec["error"] is None:
                length_ok = stego_n == stego_samples(n, op["message"])
                rec["ok"] = run.compare(report.bits, op["message"]) and length_ok


class _Abort(Exception):
    """A carrier of the playlist failed; the rest of the pass is skipped."""


def run_dense(m: dict, run: Run) -> None:
    carriers = [audio.read_wav(c["path"]) for c in m["carriers"]]
    message = m["message"]
    pieces, at = [], 0
    for c in m["carriers"]:
        cap = capacity(c["samples"])
        pieces.append(message[at : at + cap])
        at += cap

    # Reference pass: encode, check the length law, decode each stego file.
    reference = codec.encode_playlist(carriers, bits_of(message))
    ref_sig = signature(reference)
    ref_ok = []
    for k, (c, stego) in enumerate(zip(m["carriers"], reference)):
        path = os.path.join(m["work_dir"], f"dense-stego-{k}.wav")
        audio.write_wav(stego, path)
        ref_ok.append(len(stego) == stego_samples(c["samples"], pieces[k]))
        run.compare(decode_file(path, len(pieces[k])), pieces[k])
    reference = stego = None

    for p in range(m["passes"]):
        for traced in run.variants(p):
            timed, outputs = [], []
            with run.tracer.layers(traced):
                inner = codec.encode

                # Times each carrier's encode inside encode_playlist. It is
                # installed over the layer wrapper, so layer spans nest in it.
                def hooked(carrier, segment, *args, **kwargs):
                    with run.op(traced, carrier.duration_s) as rec:
                        rec["out"] = inner(carrier, segment, *args, **kwargs)
                    timed.append(rec)
                    if rec["error"] is not None:
                        raise _Abort(rec["error"])
                    return rec.pop("out")

                codec.encode = hooked
                try:
                    outputs = codec.encode_playlist(carriers, bits_of(message))
                except _Abort:
                    pass
                finally:
                    codec.encode = inner
            for k, (rec, sig) in enumerate(zip(timed, signature(outputs))):
                rec["ok"] = sig == ref_sig[k] and ref_ok[k]
            del outputs


def run_stream(m: dict, run: Run) -> None:
    expected = m["carriers"]

    def split(out_dir: str):
        os.makedirs(out_dir, exist_ok=True)
        with run.tracer.span("phase.split"):
            segments = harness.split_on_silence(audio.read_wav(m["stream"]))
            for k, seg in enumerate(segments):
                audio.write_wav(seg, os.path.join(out_dir, f"segment-{k:02d}.wav"))
        return segments

    def shape_ok(segments) -> bool:
        return len(segments) == len(expected) and all(
            abs(len(s) - c["samples"]) <= FRAME_N for s, c in zip(segments, expected)
        )

    # Reference pass: split once, then decode every written segment.
    ref_dir = os.path.join(m["work_dir"], "reference")
    reference = split(ref_dir)
    ref_sig = signature(reference)
    ref_ok = shape_ok(reference)
    reference = None
    for k, c in enumerate(expected):
        run.compare(decode_file(os.path.join(ref_dir, f"segment-{k:02d}.wav"), len(c["message"])),
                    c["message"])

    out_dir = os.path.join(m["work_dir"], "segments")
    for i in range(m["ops"]):
        for traced in run.variants(i):
            with run.op(traced, m["samples"] / SR) as rec, run.tracer.layers(traced):
                segments = split(out_dir)
            if rec["error"] is None:
                rec["ok"] = ref_ok and shape_ok(segments) and signature(segments) == ref_sig
            segments = None


RUNNERS = {
    "clicks-roundtrip": run_clicks,
    "dense-playlist-encode": run_dense,
    "stream-split": run_stream,
}


def machine_facts() -> dict:
    try:
        numba = metadata.version("numba")
    except metadata.PackageNotFoundError:
        numba = None
    try:
        from tempostego._kernels import active_backend

        backend = active_backend()
    except ImportError:
        backend = "numpy"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": numba,
        "stretch_backend": backend,
        "tempostego": tempostego.__version__,
    }


def run_workload(manifest: dict, trace: bool, spans_path: str | None = None) -> dict:
    run = Run(trace, manifest.get("setup_cmd"), manifest["n_ops"])
    RUNNERS[manifest["workload"]](manifest, run)
    if spans_path:
        run.tracer.write(spans_path)
    result = {
        "ops": [
            {k: r[k] for k in ("traced", "ms", "phases", "audio_s", "ok", "error")}
            for r in run.records
        ],
        "bits": {"embedded": run.embedded, "errors": run.errors, "erasures": run.erasures},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": run.setup_s,
        "setup_bad": run.setup_bad,
        "facts": machine_facts(),
    }
    if trace:
        result["layers"] = layer_metrics(run.tracer.spans)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description="run one benchmark workload")
    parser.add_argument("manifest")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="write the spans here as JSON lines")
    args = parser.parse_args()
    with open(args.manifest) as fh:
        manifest = json.load(fh)
    print(json.dumps(run_workload(manifest, bool(args.trace), args.spans)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
