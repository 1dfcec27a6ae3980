"""Identity corpus: a seeded set of encodes, decodes, splits and
perturbations, digested into one JSON document.

    python tests/identity_corpus.py > identity.json

imports tempostego from the environment (an installed package, or
PYTHONPATH), so the same command digests any checkout:

    PYTHONPATH=parent/src python tests/identity_corpus.py > parent.json
    PYTHONPATH=src python tests/identity_corpus.py > change.json
    cmp parent.json change.json

Two trees that write identical JSON on one machine encode, decode, split
and perturb the corpus alike, byte for byte. Sample hashes (keys ending
in "sha256") can differ between machines through FFT and correlation
rounding, so they are for such same-machine comparisons. stable() keeps
the rest, with every float rounded to 1e-6: decoded bits, outcomes and
confidences, sample counts, and split boundaries. That part is
committed as tests/identity_corpus.json, and test_identity_corpus.py
checks it.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import tempfile

import numpy as np

from tempostego import (
    BitString,
    Gain,
    Noise,
    PcmBuffer,
    ResampleRoundTrip,
    concat,
    decode,
    encode,
    generate_click_track,
    perturb,
    read_wav,
    split_on_silence,
    write_wav,
)
from tempostego import codec

SR = 44100
# the acceptance suite's six tempos and 21-bit message
TEMPOS = (90, 110, 120, 128, 140, 174)
MESSAGE_21 = BitString(tuple(int(c) for c in "110110111100111100111"))
# the first ten bits fill a 120 s carrier
MESSAGE_10 = BitString(MESSAGE_21.symbols[:10])
BEDS_DB = (0.0, -5.0)
# encode's worker count in each variant; every variant must write the
# 1-worker samples
WORKERS = {"workers-1": 1, "workers-2": 2, "workers-3": 3, "fork-refused": 3}
VARIANTS = ("workers-2", "workers-3", "fork-refused")


def sha256(data) -> str:
    return hashlib.sha256(data).hexdigest()


def click(bpm: int, seconds: float) -> PcmBuffer:
    return generate_click_track(bpm, seconds, seed=TEMPOS.index(bpm))


def bedded(carrier: PcmBuffer, snr_db: float) -> PcmBuffer:
    """The carrier over a seeded noise bed, scaled to full scale at most."""
    x = perturb(carrier, Noise(snr_db=snr_db, seed=1)).samples
    return PcmBuffer(samples=x / max(1.0, float(np.max(np.abs(x)))), sample_rate=SR)


def sixteen_bit(buf: PcmBuffer, path: str) -> PcmBuffer:
    """buf as a 16-bit file reads back: its int16 form."""
    write_wav(buf, path)
    return read_wav(path)


def refuse_fork():
    raise BlockingIOError(errno.EAGAIN, "no process to spare")


def encode_with(carrier: PcmBuffer, message: BitString, variant: str) -> PcmBuffer:
    """encode at 1, 2 or 3 workers, or at 3 with every fork refused, so
    that the calling process stretches every run itself."""
    saved = codec.usable_cpus, os.fork
    codec.usable_cpus = lambda: WORKERS[variant]
    if variant == "fork-refused":
        os.fork = refuse_fork
    try:
        return encode(carrier, message)
    finally:
        codec.usable_cpus, os.fork = saved


def build() -> dict:
    """The corpus's digest; see the module docstring."""
    digest = {"encode": {}, "decode": {}, "split": {}, "perturb": {}}

    def encode_case(name, carrier, message, variants=(), blind=False) -> PcmBuffer:
        """Digest one encode, its WAV file and a decode of that file, as
        the command line reads it; return what the file reads back as."""
        out = encode_with(carrier, message, "workers-1")
        entry = {"samples": len(out), "sha256": sha256(out.samples)}
        for v in variants:
            entry[f"{v}-sha256"] = sha256(encode_with(carrier, message, v).samples)
        path = os.path.join(tmp, f"{name}.wav")
        write_wav(out, path)
        with open(path, "rb") as f:
            entry["wav-sha256"] = sha256(f.read())
        digest["encode"][name] = entry
        stego = read_wav(path)
        read = "blind" if blind else "max-bits"
        digest["decode"][f"{name}/{read}"] = decode(
            stego, max_bits=None if blind else len(message)).to_dict()
        return stego

    with tempfile.TemporaryDirectory() as tmp:
        # the six acceptance carriers, clean, decoded blind; two of them
        # make the split stream
        parts = []
        for bpm in TEMPOS:
            stego = encode_case(f"{bpm}bpm-240s-clean", click(bpm, 240.0), MESSAGE_21, blind=True)
            if bpm in (90, 140):
                parts.append(stego)
        # the 120 BPM carrier in its 16-bit form
        q = sixteen_bit(click(120, 240.0), os.path.join(tmp, "carrier.wav"))
        encode_case("120bpm-240s-clean-int16", q, MESSAGE_21, VARIANTS)
        # noise beds, 120 s carriers
        for bpm in (120, 174):
            for snr in BEDS_DB:
                bed = bedded(click(bpm, 120.0), snr)
                name = f"{bpm}bpm-120s-{snr:+g}dB"
                encode_case(name, bed, MESSAGE_10, VARIANTS if bpm == 120 and snr == 0 else ())
                if bpm == 120:
                    q = sixteen_bit(bed, os.path.join(tmp, "bed.wav"))
                    encode_case(f"{name}-int16", q, MESSAGE_10)

        # two stego files around a 3 s gap, in their 16-bit form and as floats
        gap = PcmBuffer(samples=np.zeros(3 * SR, dtype="<i2"), sample_rate=SR)
        stream = concat([parts[0], gap, parts[1]])
        digest["split"]["int16"] = [{"samples": len(s), "sha256": sha256(s.samples)}
                                    for s in split_on_silence(stream)]
        twin = PcmBuffer(samples=stream.samples.copy(), sample_rate=SR)
        base = twin.samples.ctypes.data
        # a float stream's segments are views of its samples
        digest["split"]["float"] = [
            {"start": (seg.samples.ctypes.data - base) // 8, "samples": len(seg),
             "sha256": sha256(seg.samples)}
            for seg in split_on_silence(twin)
        ]

    carrier = click(120, 40.0)
    for name, kind in [("noise-20dB", Noise(snr_db=20.0, seed=4)), ("gain-0.5", Gain(0.5)),
                       ("resample-22050", ResampleRoundTrip(22050))]:
        digest["perturb"][name] = {"sha256": sha256(perturb(carrier, kind).samples)}
    return digest


def stable(digest):
    """The digest without its sample hashes, every float rounded to 1e-6."""
    if isinstance(digest, dict):
        return {k: stable(v) for k, v in digest.items() if not k.endswith("sha256")}
    if isinstance(digest, list):
        return [stable(v) for v in digest]
    if isinstance(digest, float):
        return round(digest, 6)
    return digest


def dumps(digest) -> str:
    return json.dumps(digest, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    print(dumps(build()), end="")
