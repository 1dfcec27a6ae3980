"""Deterministic test signals, channel perturbations, and bit-error
accounting for end-to-end evaluation.

Click tracks stand in for real music: they have an unambiguous tempo, are
generated from a seed, and make every capacity and error count exactly
reproducible. Club tracks come closer to the paper's material: a kick,
clap, hat, bass and pad, with optional swing and beatless breakdowns.
The evaluate() protocol encodes the same message prefix into each
carrier (truncated to that carrier's capacity), optionally passes the
result through a perturbation, decodes, and tallies errors and signed
margins against the expected bits.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .audio import PcmBuffer, float_range, frame_mean_squares, view_range
from .bits import ERASURE, BitString
from .codec import StegoParams, decode, encode, plan_slices
from .errors import BufferTooShort, StegoError
from .plan import CARRIER_RATE, CARRIER_SEED, SPLIT_MIN_SILENCE_S, SPLIT_THRESHOLD_DBFS

CLICK_DECAY_S = 0.005
CLICK_LEN_S = 0.030
CLICK_PEAK = 0.8
SUBDIVISION_PEAK = 0.3


def generate_click_track(
    bpm: float,
    duration_s: float,
    sample_rate: int = CARRIER_RATE,
    *,
    seed: int = CARRIER_SEED,
    subdivision: bool = False,
) -> PcmBuffer:
    """Metronome-style carrier: one noise burst per beat from t=0.

    Each click is a seeded white-noise burst with a 5 ms exponential
    decay, peak amplitude 0.8. With subdivision=True, quieter clicks
    (peak 0.3) land on the half beats.
    """
    y = _silent_track(bpm, duration_s, sample_rate)
    rng = np.random.default_rng(seed)
    burst_len = int(round(CLICK_LEN_S * sample_rate))
    t = np.arange(burst_len) / sample_rate
    burst = rng.uniform(-1.0, 1.0, burst_len) * np.exp(-t / CLICK_DECAY_S)
    burst /= np.max(np.abs(burst))

    period = 60.0 / bpm

    click, half_click = CLICK_PEAK * burst, SUBDIVISION_PEAK * burst
    k = 0
    while k * period < duration_s:
        _mix(y, k * period * sample_rate, click)
        if subdivision:
            _mix(y, (k + 0.5) * period * sample_rate, half_click)
        k += 1
    return PcmBuffer(samples=y, sample_rate=sample_rate)


def _mix(y: np.ndarray, at: float, sound: np.ndarray) -> None:
    """Add sound into y from sample round(at) on, cut at y's end."""
    i = int(round(at))
    if i < len(y):
        y[i : i + len(sound)] += sound[: len(y) - i]


def _silent_track(bpm: float, duration_s: float, sample_rate: int) -> np.ndarray:
    """Zeros of the track's length to mix into, once its parameters pass."""
    if not (40.0 <= bpm <= 300.0):
        raise ValueError("bpm must be in [40, 300]")
    if not (1.0 <= duration_s < np.inf):
        raise ValueError("duration must be finite and at least 1 s")
    if sample_rate < 8000:
        raise ValueError("sample rate must be at least 8 kHz")
    return np.zeros(int(round(duration_s * sample_rate)))


# A four-bar loop of (bass root, pad chord), in semitones above A1 (55 Hz):
# A minor, F major, C major, G major
CLUB_ROOT_HZ = 55.0
CLUB_PROGRESSION = ((0, (12, 15, 19)), (-4, (20, 24, 27)), (3, (15, 19, 22)),
                    (-2, (17, 22, 26)))
# the pad's two saws per note sit this many cents either side of it
PAD_DETUNE_CENTS = 7.0


def _saw(freq: float, t: np.ndarray) -> np.ndarray:
    return 2.0 * (freq * t % 1.0) - 1.0


def generate_club_track(
    bpm: float,
    duration_s: float,
    sample_rate: int = CARRIER_RATE,
    *,
    seed: int = CARRIER_SEED,
    swing: float = 0.0,
    sections: Iterable[tuple[float, float]] = (),
) -> PcmBuffer:
    """Four-on-the-floor club carrier: a kick whose pitch falls from 150
    to 50 Hz on every beat from t=0, a noise clap on beats 2 and 4 of
    each bar, a hat and a saw bass note on every off-beat, and a pad of
    detuned saws, one chord per bar, over a four-bar loop
    (CLUB_PROGRESSION).

    swing delays each off-beat by that fraction of a beat, in [0, 0.5).
    sections holds (start_s, end_s) spans that are beatless, a breakdown:
    a hit that starts inside one is left out, and only the pad plays.
    The clap and hat are seeded noise, so a seed gives the same samples.
    The mix is scaled to a peak of 0.9.
    """
    y = _silent_track(bpm, duration_s, sample_rate)
    if not 0.0 <= swing < 0.5:
        raise ValueError("swing must be in [0, 0.5)")
    spans = [(float(a), float(b)) for a, b in sections]
    if not all(0.0 <= a < b < math.inf for a, b in spans):
        raise ValueError("a section must be a finite span (start_s, end_s), 0 <= start_s < end_s")
    sr = sample_rate
    rng = np.random.default_rng(seed)
    period = 60.0 / bpm

    t = np.arange(int(round(0.3 * sr))) / sr
    # phase of a tone whose frequency falls as 50 + 100 exp(-t / 30 ms)
    kick = np.sin(2 * np.pi * (50.0 * t + 3.0 * (1.0 - np.exp(-t / 0.03)))) * np.exp(-t / 0.12)
    clap = 0.5 * rng.standard_normal(len(t)) * np.exp(-t / 0.03)
    hat = 0.25 * np.diff(rng.standard_normal(len(t) + 1)) * np.exp(-t / 0.01)
    # each bar's bass note and pad chord, made once per bar of the loop;
    # the pad fades in and out over 50 ms at the bar's ends
    note_t = t[: int(round(0.4 * period * sr))]
    note_env = 0.35 * np.minimum(1.0, note_t / 0.005) * np.exp(-note_t / 0.15)
    bar_n = int(round(4 * period * sr))
    bar_t = np.arange(bar_n) / sr
    fade = np.minimum(1.0, np.minimum(np.arange(bar_n), bar_n - np.arange(bar_n)) / (0.05 * sr))
    bass, pads = [], []
    for root, chord in CLUB_PROGRESSION:
        bass.append(_saw(CLUB_ROOT_HZ * 2.0 ** (root / 12.0), note_t) * note_env)
        pads.append(0.04 * fade * sum(
            _saw(CLUB_ROOT_HZ * 2.0 ** ((note + cents / 100.0) / 12.0), bar_t)
            for note in chord for cents in (-PAD_DETUNE_CENTS, PAD_DETUNE_CENTS)))

    def beatless(at_s: float) -> bool:
        return any(a <= at_s < b for a, b in spans)

    for k in range(int(np.ceil(duration_s / period))):
        bar = (k // 4) % len(CLUB_PROGRESSION)
        on, off = k * period, (k + 0.5 + swing) * period
        if k % 4 == 0:
            _mix(y, on * sr, pads[bar])
        if not beatless(on):
            _mix(y, on * sr, kick)
            if k % 2 == 1:
                _mix(y, on * sr, clap)
        if not beatless(off):
            _mix(y, off * sr, hat)
            _mix(y, off * sr, bass[bar])
    peak = float(np.max(np.abs(y)))
    return PcmBuffer(samples=y * (0.9 / peak), sample_rate=sr)


# log10 of the largest float: a noise gain of 10**_MAX_LOG10 or more overflows
_MAX_LOG10 = math.log10(np.finfo(np.float64).max)


@dataclass(frozen=True)
class Noise:
    """Additive white Gaussian noise at a given SNR (dB) below signal RMS."""

    snr_db: float
    seed: int = 0

    def __post_init__(self) -> None:
        # +inf dB is no noise; -inf or NaN would make every sample non-finite
        if not -math.inf < self.snr_db <= math.inf:
            raise ValueError("noise SNR must be a number of dB above -inf")
        if -self.snr_db / 20.0 >= _MAX_LOG10:
            raise ValueError(
                f"noise SNR {self.snr_db:g} dB puts the noise level past the float range"
            )

    def apply(self, x: np.ndarray, sample_rate: int) -> np.ndarray:
        if len(x) == 0:
            raise BufferTooShort("noise needs the level of at least one sample")
        sig_rms = float(np.sqrt(np.square(x).sum() / len(x)))
        if sig_rms == 0.0:
            return x.copy()
        noise_rms = sig_rms * 10.0 ** (-self.snr_db / 20.0)
        rng = np.random.default_rng(self.seed)
        return x + rng.standard_normal(len(x)) * noise_rms


@dataclass(frozen=True)
class Gain:
    """Uniform amplitude scaling."""

    factor: float

    def __post_init__(self) -> None:
        if not 0 < self.factor < math.inf:
            raise ValueError("gain factor must be positive and finite")

    def apply(self, x: np.ndarray, sample_rate: int) -> np.ndarray:
        return x * self.factor


@dataclass(frozen=True)
class ResampleRoundTrip:
    """Linear resample to an intermediate rate and back, as a lossy
    broadcast chain would."""

    rate: int

    def __post_init__(self) -> None:
        if not 4000 <= self.rate < math.inf:
            raise ValueError("intermediate rate must be finite and at least 4 kHz")

    def apply(self, x: np.ndarray, sample_rate: int) -> np.ndarray:
        n = len(x)
        n_mid = int(round(n * self.rate / sample_rate))
        if n_mid == 0:
            raise BufferTooShort(
                f"{n} samples at {sample_rate} Hz leave no sample at {self.rate} Hz"
            )
        step = sample_rate / self.rate
        mid = np.interp(np.arange(n_mid) * step, np.arange(n), x)
        return np.interp(np.arange(n) / step, np.arange(n_mid), mid)


# Each raises ValueError when made with parameters that cannot apply, and
# its apply(x, sample_rate) returns a new array of len(x) floats, or raises
# BufferTooShort for a buffer too short to carry it
Perturbation = Noise | Gain | ResampleRoundTrip


def perturb(buf: PcmBuffer, kind: Perturbation) -> PcmBuffer:
    """Apply a channel perturbation, returning a new float buffer of the
    same length and sample rate; buf keeps its form and its samples.
    Raises TypeError for an unknown perturbation, and BufferTooShort for
    Noise on an empty buffer and for a ResampleRoundTrip that leaves no
    intermediate sample."""
    if not isinstance(kind, Perturbation):
        raise TypeError(f"unknown perturbation {kind!r}")
    x = kind.apply(float_range(buf, 0, len(buf)), buf.sample_rate)
    return PcmBuffer(samples=x, sample_rate=buf.sample_rate)


def compare_bits(decoded: BitString, expected: BitString) -> tuple[int, int, int]:
    """(errors, erasures, compared) over the overlapping prefix.

    Erasures are positions the decoder declined; they are not errors and
    not compared.
    """
    errors = 0
    erasures = 0
    compared = 0
    for got, want in zip(decoded, expected):
        if got == ERASURE:
            erasures += 1
            continue
        compared += 1
        if got != want:
            errors += 1
    return errors, erasures, compared


@dataclass(frozen=True)
class FileResult:
    name: str
    duration_s: float
    capacity: int
    bits: BitString | None
    errors: int
    erasures: int
    compared: int
    failure: str | None = None
    # one per compared slice, in order: its confidence, negated when the
    # bit is wrong (erasures are not compared)
    margins: tuple[float, ...] = ()


@dataclass(frozen=True)
class EvalResult:
    files: tuple[FileResult, ...]
    message: BitString
    params_used: StegoParams

    @property
    def total_errors(self) -> int:
        return sum(f.errors for f in self.files)

    @property
    def total_erasures(self) -> int:
        return sum(f.erasures for f in self.files)

    @property
    def total_compared(self) -> int:
        return sum(f.compared for f in self.files)

    @property
    def ber(self) -> float:
        if self.total_compared == 0:
            return 0.0
        return self.total_errors / self.total_compared

    @property
    def margin_p5(self) -> float | None:
        """The 5th percentile of every file's signed margins, or None
        when no slice was compared."""
        margins = [m for f in self.files for m in f.margins]
        return float(np.percentile(margins, 5)) if margins else None

    def format_table(self) -> str:
        """Render per-file decoded bits, padded with 'x' beyond each
        file's capacity, plus a totals line, which ends with the 5th
        percentile signed margin when any slice was compared."""
        name_w = max([len("(message)")] + [len(f.name) for f in self.files]) + 2
        bits_w = max(1, 2 * len(self.message) - 1)
        lines = [
            f"{'#':>3}  {'carrier':<{name_w}}{'dur_s':>7}  {'cap':>4}  "
            f"{'decoded bits':<{bits_w}}  {'err':>4}  {'ers':>4}"
        ]
        lines.append(
            f"{0:>3}  {'(message)':<{name_w}}{'-':>7}  {'-':>4}  "
            f"{str(self.message):<{bits_w}}  {'-':>4}  {'-':>4}"
        )
        for i, f in enumerate(self.files, start=1):
            if f.failure is not None:
                shown = f"<{f.failure}>"
                err = ers = "-"
            else:
                padded = list(f.bits.symbols) + [ERASURE] * (len(self.message) - len(f.bits))
                shown = str(BitString(tuple(padded)))
                err, ers = str(f.errors), str(f.erasures)
            lines.append(
                f"{i:>3}  {f.name:<{name_w}}{f.duration_s:>7.1f}  {f.capacity:>4}  "
                f"{shown:<{bits_w}}  {err:>4}  {ers:>4}"
            )
        totals = (
            f"totals: errors {self.total_errors}/{self.total_compared}"
            f" (BER {self.ber:.4f}), erasures {self.total_erasures}"
        )
        if self.margin_p5 is not None:
            totals += f", p5 margin {self.margin_p5:.3f}"
        lines.append(totals)
        return "\n".join(lines)


def evaluate(
    carriers: Iterable[PcmBuffer],
    message: BitString,
    params: StegoParams = StegoParams(),
    perturbation: Perturbation | None = None,
    names: list[str] | None = None,
) -> EvalResult:
    """Encode, (optionally) perturb, and decode the same message prefix
    in every carrier; tally bit errors and signed margins per file.

    A carrier that fails outright (for example a silent reference) is
    recorded with the error name instead of bits and contributes nothing
    to the totals. Carriers are taken one at a time, so a generator
    holds only one in memory. Raises ValueError when names and carriers
    differ in length. A perturbation checks its parameters when it is
    made, so one that cannot apply never reaches this call.
    """
    if names is None:
        named = ((c, f"carrier-{i}") for i, c in enumerate(carriers, start=1))
    else:
        named = zip(carriers, names, strict=True)
    results = []
    for carrier, name in named:
        cap = plan_slices(len(carrier), carrier.sample_rate, params).capacity
        prefix = message[: min(cap, len(message))]
        bits, failure, margins = None, None, ()
        errors = erasures = compared = 0
        try:
            stego = encode(carrier, prefix, params)
            if perturbation is not None:
                stego = perturb(stego, perturbation)
            report = decode(stego, params, max_bits=len(prefix))
            bits = report.bits
            errors, erasures, compared = compare_bits(bits, prefix)
            margins = tuple(
                d.confidence if got == want else -d.confidence
                for d, got, want in zip(report.per_slice, bits, prefix)
                if got != ERASURE
            )
        except StegoError as exc:
            failure = type(exc).__name__
        results.append(
            FileResult(
                name=name,
                duration_s=carrier.duration_s,
                capacity=cap,
                bits=bits,
                errors=errors,
                erasures=erasures,
                compared=compared,
                failure=failure,
                margins=margins,
            )
        )
    return EvalResult(files=tuple(results), message=message, params_used=params)


def split_on_silence(
    stream: PcmBuffer,
    min_silence_s: float = SPLIT_MIN_SILENCE_S,
    threshold_dbfs: float = SPLIT_THRESHOLD_DBFS,
) -> list[PcmBuffer]:
    """Cut a stream at silent gaps, as a broadcast recording splitter.

    The stream is scanned in 20 ms frames; runs of frames below
    threshold_dbfs lasting at least min_silence_s become separators.
    Returned segments keep their interior short pauses but have leading
    and trailing silent frames removed. All-silent input yields [].
    Each frame's mean square comes from audio.frame_mean_squares, which
    scans a block of frames at a time, so a 16-bit stream is never
    widened whole. Both forms take its one path, and a 16-bit frame's
    sum differs from its float twin's by an exact power of two, so the
    levels, and with them the segments, are those of a float stream
    holding the same samples, at any threshold. A float frame's level
    is np.einsum's sum of squares over frame_n, which may differ from
    np.mean's in the last bits.
    Segments share the stream's memory, in its form: a float stream's
    segments are views of its samples (copy one before mutating it), and
    a 16-bit stream's (one read from a 16-bit file, or built from int16
    samples) are 16-bit views of its int16 samples, whose `samples` are
    read-only, so no edit reaches the stream. A threshold of +inf makes
    every frame silent and -inf none; a NaN threshold raises ValueError,
    as does a min_silence_s that is not positive and finite.
    """
    if not (0.0 < min_silence_s < math.inf):
        raise ValueError("min_silence_s must be positive and finite")
    if math.isnan(threshold_dbfs):
        raise ValueError("threshold_dbfs must not be NaN")
    sr = stream.sample_rate
    frame_n = max(1, int(round(0.020 * sr)))
    n = len(stream)
    mean_sq = frame_mean_squares(stream, frame_n)
    n_frames = len(mean_sq)
    with np.errstate(divide="ignore"):
        # log10(0) is -inf: digital silence is below any finite threshold
        silent = 10.0 * np.log10(mean_sq) < threshold_dbfs
    # no run is longer than the stream, so a longer need changes nothing
    # and the cap keeps a huge finite min_silence_s from overflowing
    need = max(1, int(np.ceil(min(min_silence_s * sr / frame_n, n_frames + 1))))

    # j - i - 1 silent frames lie between loud frames i < j: a gap of `need`
    # or more separates segments, each from its first loud frame to its last
    loud = np.flatnonzero(~silent)
    cut = np.flatnonzero(np.diff(loud) > need)
    firsts = np.concatenate((loud[:1], loud[cut + 1]))
    lasts = np.concatenate((loud[cut], loud[-1:]))
    return [view_range(stream, a * frame_n, min(n, (b + 1) * frame_n))
            for a, b in zip(firsts, lasts)]
