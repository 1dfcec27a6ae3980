"""Hide and recover bit strings in constant-tempo music by slice-wise
tempo modulation.

The carrier is divided into fixed slices; each payload slice plays a
fraction of a percent faster or slower than the untouched reference
slice at the start. The offset is inaudible and too small for absolute
tempo measurement, but comparing each slice's tempo candidates against
the reference recovers the direction, and with it the hidden bit.

The public API covers WAV I/O (audio), bit-string payloads (bits),
pitch-preserving time stretching (stretch), tempo candidate estimation
(tempo), the encoder/decoder (codec), and an evaluation harness with
deterministic click-track carriers (harness). The tempostego CLI wraps
all of it.
"""

from .audio import PcmBuffer, concat, read_wav, rms_dbfs, slice_buffer, write_wav
from .bits import (
    ERASURE,
    BitString,
    bits_to_text,
    parse_bitstring,
    plan_spanning,
    text_to_bits,
)
from .codec import (
    BoundaryMode,
    DecodeReport,
    Direction,
    SliceDecision,
    SlicePlan,
    StegoParams,
    capacity,
    classify_slice,
    decode,
    encode,
    encode_playlist,
    plan_slices,
)
from .errors import (
    BufferTooShort,
    ClippingWarning,
    InsufficientCapacity,
    InvalidSymbol,
    IoError,
    LowEnergy,
    MalformedHeader,
    MessageTooLong,
    NonFiniteSamples,
    NoPeriodicity,
    OutOfRange,
    RatioOutOfRange,
    ReferenceSilent,
    SampleRateMismatch,
    StegoError,
    TooShort,
    Undecidable,
    UnsupportedFormat,
)
from .harness import (
    EvalResult,
    FileResult,
    Gain,
    Noise,
    ResampleRoundTrip,
    compare_bits,
    evaluate,
    generate_click_track,
    perturb,
    split_on_silence,
)
from .stretch import stretch_tempo
from .tempo import TempoCandidates, estimate_tempo, onset_envelope

__version__ = "0.1.0"

__all__ = [
    "PcmBuffer",
    "concat",
    "read_wav",
    "rms_dbfs",
    "slice_buffer",
    "write_wav",
    "ERASURE",
    "BitString",
    "bits_to_text",
    "parse_bitstring",
    "plan_spanning",
    "text_to_bits",
    "BoundaryMode",
    "DecodeReport",
    "Direction",
    "SliceDecision",
    "SlicePlan",
    "StegoParams",
    "capacity",
    "classify_slice",
    "decode",
    "encode",
    "encode_playlist",
    "plan_slices",
    "BufferTooShort",
    "ClippingWarning",
    "InsufficientCapacity",
    "InvalidSymbol",
    "IoError",
    "LowEnergy",
    "MalformedHeader",
    "MessageTooLong",
    "NonFiniteSamples",
    "NoPeriodicity",
    "OutOfRange",
    "RatioOutOfRange",
    "ReferenceSilent",
    "SampleRateMismatch",
    "StegoError",
    "TooShort",
    "Undecidable",
    "UnsupportedFormat",
    "EvalResult",
    "FileResult",
    "Gain",
    "Noise",
    "ResampleRoundTrip",
    "compare_bits",
    "evaluate",
    "generate_click_track",
    "perturb",
    "split_on_silence",
    "stretch_tempo",
    "TempoCandidates",
    "estimate_tempo",
    "onset_envelope",
    "__version__",
]
