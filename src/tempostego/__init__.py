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

Each exported name is loaded from its module on first access (PEP 562),
so `import tempostego` loads neither numpy nor any module a caller does
not use: StegoParams and plan_slices come from the numpy-free plan module.
"""

import importlib

__version__ = "0.1.0"

# each exported name by the module it is defined in
_EXPORTS = {
    "audio": ("PcmBuffer", "concat", "read_wav", "rms_dbfs", "slice_buffer", "write_wav"),
    "bits": ("ERASURE", "BitString", "bits_to_text", "parse_bitstring", "plan_spanning",
             "text_to_bits"),
    "plan": ("BoundaryMode", "SlicePlan", "StegoParams", "capacity", "plan_slices"),
    "codec": ("DecodeReport", "Direction", "SliceDecision", "classify_slice", "decode",
              "encode", "encode_playlist"),
    "errors": ("BufferTooShort", "ClippingWarning", "InsufficientCapacity", "InvalidSymbol",
               "IoError", "LowEnergy", "MalformedHeader", "MessageTooLong",
               "NonFiniteSamples", "NoPeriodicity", "OutOfRange", "RatioOutOfRange",
               "ReferenceSilent", "SampleRateMismatch", "StegoError", "TooShort",
               "Undecidable", "UnsupportedFormat"),
    "harness": ("EvalResult", "FileResult", "Gain", "Noise", "ResampleRoundTrip",
                "compare_bits", "evaluate", "generate_click_track", "perturb",
                "split_on_silence"),
    "stretch": ("stretch_tempo",),
    "tempo": ("TempoCandidates", "estimate_tempo", "onset_envelope"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

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


def __getattr__(name: str):
    # a module named in _EXPORTS is an attribute too, imported on first
    # access (importing it binds it here), so `import tempostego` then
    # `tempostego.audio` works
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups do not reach here
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
