"""Exception taxonomy shared by all modules.

Every error raised on a contract violation derives from StegoError, so CLI
code can catch one type and report the class name as a machine-readable
error code.
"""


class StegoError(Exception):
    """Base class for all library errors."""


class InvalidSymbol(StegoError):
    """A bit string contained a character outside its alphabet."""


class InsufficientCapacity(StegoError):
    """A message does not fit the combined capacity of the given carriers."""

    def __init__(self, required: int, available: int):
        super().__init__(f"message needs {required} bits, carriers hold {available}")
        self.required = required
        self.available = available


class IoError(StegoError):
    """Underlying file I/O failed."""


class MalformedHeader(StegoError):
    """A WAV file is structurally broken (bad RIFF layout, truncated chunks)."""


class UnsupportedFormat(StegoError):
    """A WAV file uses an encoding this toolkit does not handle."""


class NonFiniteSamples(StegoError):
    """Samples include NaN or infinity (WAV read/write, encode, decode)."""


class OutOfRange(StegoError):
    """A requested time interval falls outside the buffer."""


class SampleRateMismatch(StegoError):
    """Buffers with different sample rates cannot be combined."""


class BufferTooShort(StegoError):
    """The buffer is shorter than the operation's minimum length."""


class RatioOutOfRange(StegoError):
    """Tempo ratio outside the supported stretch range."""


class LowEnergy(StegoError):
    """Signal energy below the measurement gate (near-silence)."""


class TooShort(StegoError):
    """Buffer shorter than the minimum needed for a tempo measurement."""


class NoPeriodicity(StegoError):
    """No autocorrelation peak stands above the flat baseline."""


class MessageTooLong(StegoError):
    """Message exceeds the capacity of a single carrier."""

    def __init__(self, message_bits: int, capacity: int):
        super().__init__(f"message of {message_bits} bits exceeds capacity {capacity}")
        self.message_bits = message_bits
        self.capacity = capacity


class ReferenceSilent(StegoError):
    """The reference slice contains silence; tempo comparisons would be
    anchored to a bad measurement and may decode inverted."""


class Undecidable(StegoError):
    """The direction classifier could not decide (all attributes discarded
    or the survivor sum is exactly zero)."""


class ClippingWarning(UserWarning):
    """Samples outside [-1, 1] were saturated when writing."""
