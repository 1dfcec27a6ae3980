"""Seeded inputs for the three benchmark workloads.

Each builder draws everything from one numpy Generator seeded by the
benchmark's --seed, writes the audio as WAV files into a work directory
and returns a JSON-able manifest: what the worker process reads, which
bits were embedded and what the outputs must look like. The worker
never sees the seed.

Carrier lengths are fixed sets, shuffled or cycled by the seed, so every
seed feeds the same amount of audio and runs stay comparable; tempos,
subdivision, noise and messages are what the seed varies.
"""

from __future__ import annotations

import math
import os

import numpy as np

from tempostego import audio, codec
from tempostego.bits import BitString
from tempostego.harness import CLICK_LEN_S, Noise, generate_click_track, perturb

SR = 44100
PHI_N = 10 * SR  # one 10 s slice at the default StegoParams
FRAME_N = int(round(0.020 * SR))  # the splitter's 20 ms frame

WORKLOADS = ("clicks-roundtrip", "dense-playlist-encode", "stream-split")

# Wall time of one unit of work (a round trip, a playlist, a split) with
# the code this benchmark was written against, on a 2-core x86 VM. The unit count is derived from --seconds with
# these constants and never from a measured speed, so a run of a faster
# commit does the same work and its percentiles mean the same thing.
UNIT_S = {"clicks-roundtrip": 0.9, "dense-playlist-encode": 1.5, "stream-split": 0.9}
# Unit counts are multiples of these, so each length and style appears
# equally often.
CYCLE = {"clicks-roundtrip": 6, "dense-playlist-encode": 1, "stream-split": 1}

# Full size, and the tiny size the self-test runs.
SIZES = {
    False: {"clicks": (194.0, 240.0, 300.0), "dense": (240.0, 240.0, 240.0),
            "stream": (130.0, 140.0, 150.0, 160.0)},
    True: {"clicks": (40.0, 45.0, 50.0), "dense": (40.0, 40.0),
           "stream": (45.0, 50.0)},
}

STREAM_GAP_S = 3.0  # silence between carriers: above the 2 s split threshold
PAUSE_MAX_S = 1.9  # silence inside a carrier: below it, so no split
CLICK_N = int(round(CLICK_LEN_S * SR))


def n_units(workload: str, seconds: float, trace: bool = False) -> int:
    """Units of work for a run of about `seconds` at UNIT_S speed. A
    traced run executes each unit twice, so it gets half as many."""
    cycle = CYCLE[workload]
    units = math.ceil(seconds / UNIT_S[workload] / (2 if trace else 1))
    return -(-units // cycle) * cycle


def capacity(n_samples: int) -> int:
    """Payload bits of a carrier: floor(duration / 10 s) - 2."""
    return max(0, n_samples // PHI_N - 2)


def tempos(rng: np.random.Generator, n: int) -> list[float]:
    """n tempos in 80-180 BPM, one from each of n equal strata in seeded
    order, so every seed spans the range alike."""
    width = 100.0 / n
    return [80.0 + (k + float(rng.uniform())) * width for k in rng.permutation(n)]


def random_bits(rng: np.random.Generator, n: int) -> str:
    return "".join(str(b) for b in rng.integers(0, 2, n))


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def _write(samples: np.ndarray, path: str) -> None:
    audio.write_wav(audio.PcmBuffer(samples=samples, sample_rate=SR), path)


def build(workload: str, seed: int, units: int, work_dir: str, tiny: bool = False) -> dict:
    rng = np.random.default_rng(seed)
    sizes = SIZES[tiny]
    if workload == "clicks-roundtrip":
        return _clicks(rng, units, work_dir, sizes["clicks"])
    if workload == "dense-playlist-encode":
        return _dense(rng, units, work_dir, sizes["dense"])
    if workload == "stream-split":
        return _stream(rng, units, work_dir, sizes["stream"])
    raise ValueError(f"unknown workload {workload!r}")


def _clicks(rng, units, work_dir, lengths) -> dict:
    # Six carriers: every length once with and once without half-beat
    # subdivision. Round trip i uses carrier i % 6 with its own message.
    carriers = []
    for k, bpm in enumerate(tempos(rng, 6)):
        duration = lengths[k % 3]
        path = os.path.join(work_dir, f"carrier-{k}.wav")
        buf = generate_click_track(bpm, duration, SR, seed=_seed(rng), subdivision=k % 2 == 1)
        audio.write_wav(buf, path)
        carriers.append({"path": path, "samples": len(buf)})
    ops = [
        {"carrier": i % 6, "message": random_bits(rng, capacity(carriers[i % 6]["samples"]) - 1)}
        for i in range(units)
    ]
    return {"workload": "clicks-roundtrip", "carriers": carriers, "ops": ops,
            "n_ops": units, "work_dir": work_dir}


def _dense(rng, units, work_dir, lengths) -> dict:
    carriers = []
    for k, (duration, bpm) in enumerate(zip(lengths, tempos(rng, len(lengths)))):
        path = os.path.join(work_dir, f"dense-{k}.wav")
        click = generate_click_track(bpm, duration, SR, seed=_seed(rng), subdivision=True)
        buf = perturb(click, Noise(snr_db=10.0, seed=_seed(rng)))
        # keep the 16-bit file free of clipping
        _write(buf.samples / max(1.0, float(np.max(np.abs(buf.samples)))), path)
        carriers.append({"path": path, "samples": len(buf)})
    total = sum(capacity(c["samples"]) for c in carriers)
    return {"workload": "dense-playlist-encode", "carriers": carriers,
            "message": random_bits(rng, total), "passes": units,
            "n_ops": units * len(carriers), "work_dir": work_dir}


def _stream(rng, units, work_dir, lengths) -> dict:
    # Clean click tracks, so decoding the segments is reliable. Each
    # carrier starts on a click and is cut 10 ms into its last click, so
    # its first and last 20 ms frames are loud and the split segment spans
    # the whole carrier. Carriers start on frame boundaries, so each
    # segment is within one frame of its carrier. In the untouched tail a
    # few beats are removed, leaving a pause under 2 s that must not split.
    parts = [np.zeros(SR)]
    at = SR
    carriers = []
    for duration, bpm in zip(rng.permutation(lengths), tempos(rng, len(lengths))):
        period = 60.0 / bpm
        x = generate_click_track(bpm, float(duration) + 1.0, SR, seed=_seed(rng)).samples
        last = math.ceil(duration / period) - 1
        x = x[: int(round(last * period * SR)) + int(round(0.010 * SR))]
        tail_s = (len(x) // PHI_N - 1) * 10.0
        k0 = math.ceil((tail_s + 2.0) / period)
        k1 = k0 + int(PAUSE_MAX_S // period)
        x[int(round(k0 * period * SR)) + CLICK_N : int(round(k1 * period * SR))] = 0.0
        message = random_bits(rng, capacity(len(x)))
        stego = codec.encode(
            audio.PcmBuffer(samples=x, sample_rate=SR), BitString(tuple(int(b) for b in message))
        ).samples
        gap = int(STREAM_GAP_S * SR)
        gap += -(at + len(stego) + gap) % FRAME_N
        parts += [stego, np.zeros(gap)]
        carriers.append({"samples": len(stego), "message": message})
        at += len(stego) + gap
    path = os.path.join(work_dir, "stream.wav")
    _write(np.concatenate(parts), path)
    return {"workload": "stream-split", "stream": path, "samples": at, "carriers": carriers,
            "ops": units, "n_ops": units, "work_dir": work_dir}
