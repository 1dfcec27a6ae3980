"""Channel parameters and slice geometry: the one source of the slice
plan and of capacity, shared by encoder, decoder and CLI.

Everything here is integer and float arithmetic on lengths and rates, so
it loads without numpy: the CLI's `capacity` needs only this module and
a WAV header (wavheader).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

# The shortest window the tempo estimator measures, in seconds
MIN_MEASURE_S = 9.0

# The largest tempo offset fraction a payload slice may carry. The
# estimator's band covers every tempo encode can write from a 60-200 BPM
# carrier, so a slice lowered from 60 BPM still measures inside it.
MAX_DELTA = 0.03

# A payload slice's attribute is about 100 * delta percent, and a discard
# gate under it erases the slice. The estimate's error adds a part that
# does not scale with delta: over 310 random click carriers a slice needed
# at most 1.52 * 100 * delta, and at most 1.2 * 100 * delta + 0.17. At
# MAX_DELTA this gate is 3.9, so the default 4.0 admits every delta.
_DISCARD_MARGIN = 1.2
_DISCARD_SLACK_PCT = 0.3


class BoundaryMode(enum.Enum):
    STATIC = "static"
    TRACKED = "tracked"


@dataclass(frozen=True)
class StegoParams:
    """Channel geometry shared by encoder and decoder.

    phi_s: slice length in seconds (one hidden bit per payload slice).
    delta: tempo offset fraction; 0.01 means payload slices play 1%
        faster or slower than the reference.
    trim_frac: fraction trimmed from each end of a slice before measuring
        tempo, so boundary artifacts and drift stay out of the window.
    discard_pct: attribute gate; candidate-pair differences larger than
        this (in percent) compare different harmonics and are ignored.
    boundary_mode: how the decoder advances slice boundaries.
    """

    phi_s: float = 10.0
    delta: float = 0.01
    trim_frac: float = 0.05
    discard_pct: float = 4.0
    boundary_mode: BoundaryMode = BoundaryMode.TRACKED

    def __post_init__(self):
        # each range is written so that NaN and infinity fall outside it
        if not (10.0 <= self.phi_s < math.inf):
            raise ValueError("phi_s must be finite and at least 10 s")
        if not (0.0 < self.delta <= MAX_DELTA):
            raise ValueError(f"delta must be in (0, {MAX_DELTA:g}]")
        if not (0.0 <= self.trim_frac < 0.5):
            raise ValueError("trim_frac must be in [0, 0.5)")
        gate = _DISCARD_MARGIN * 100.0 * self.delta + _DISCARD_SLACK_PCT
        if not (gate <= self.discard_pct < math.inf):
            raise ValueError(f"discard_pct must be finite and at least {gate:g} at this delta")
        if self.phi_s * (1.0 - 2.0 * self.trim_frac) < MIN_MEASURE_S:
            raise ValueError(f"trimmed window would be under {MIN_MEASURE_S:g} s")


@dataclass(frozen=True)
class SlicePlan:
    """Sample intervals covering the whole carrier: reference, payload
    slices, untouched tail. Intervals are contiguous and non-overlapping."""

    reference: tuple[int, int]
    data: tuple[tuple[int, int], ...]
    tail: tuple[int, int]

    @property
    def capacity(self) -> int:
        return len(self.data)


def capacity(duration_s: float, params: StegoParams = StegoParams()) -> int:
    """Payload bits a carrier of this duration can hold.

    One whole slice anchors the reference and one is reserved for the
    tail, so floor(duration / phi_s) - 2, floored at zero. This works in
    seconds; for a buffer in hand, plan_slices(...).capacity is the
    figure encode enforces, which can be one lower when phi_s * rate is
    not a whole number of samples. A NaN or infinite duration raises
    ValueError.
    """
    if not math.isfinite(duration_s):
        raise ValueError(f"capacity needs a finite duration, not {duration_s} s")
    n_slices = int(math.floor(duration_s / params.phi_s + 1e-9))
    return max(0, n_slices - 2)


def _geometry(sample_rate: int, params: StegoParams) -> tuple[int, int, int]:
    """Slice length, per-edge trim and measurement window, in samples."""
    if not math.isfinite(params.phi_s * sample_rate):
        raise ValueError(f"phi_s {params.phi_s:g} s is too long at {sample_rate} Hz")
    phi_n = int(round(params.phi_s * sample_rate))
    trim_n = int(round(params.trim_frac * params.phi_s * sample_rate))
    return phi_n, trim_n, phi_n - 2 * trim_n


def plan_slices(n_samples: int, sample_rate: int, params: StegoParams) -> SlicePlan:
    phi_n, _, _ = _geometry(sample_rate, params)
    n_slices = n_samples // phi_n
    if n_slices == 0:
        return SlicePlan((0, n_samples), (), (n_samples, n_samples))
    data = tuple((i * phi_n, (i + 1) * phi_n) for i in range(1, n_slices - 1))
    tail_start = max(1, n_slices - 1) * phi_n
    return SlicePlan((0, phi_n), data, (tail_start, n_samples))
