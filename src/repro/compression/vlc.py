"""Variable-length codes (VLC) used by CGR.

The paper (Appendix B) uses two families of instantaneous codes for positive
integers:

* **Elias gamma code** -- the unary length of the value's significant bits,
  followed by the significant bits with the leading ``1`` omitted.
* **zeta_k code** (Boldi & Vigna) -- a unary count ``h`` meaning the value is
  written in exactly ``h * k`` binary digits, followed by those digits.  With
  ``k = 1`` the code degenerates to (a variant of) gamma.

Both code families encode integers ``>= 1``; CGR applies a ``+1`` shift before
encoding whenever a value may legally be zero (Appendix C), which is handled
by :mod:`repro.compression.gaps` and :mod:`repro.compression.cgr`.

The module-level :data:`VLC_SCHEMES` registry maps scheme names (``"gamma"``,
``"zeta2"`` ... ``"zeta6"``, ``"delta"``) to :class:`VLCScheme` objects so that
the benchmark harness can sweep encoding schemes exactly as Figure 11 does.

Besides the one-value ``encode``/``decode`` pair, every scheme exposes a
**bulk run decoder** (:func:`decode_gamma_run`, :func:`decode_delta_run`,
:func:`decode_zeta_run`, reachable uniformly through
:meth:`VLCScheme.decode_run` / :meth:`VLCScheme.decode_run_positions`) that
decodes ``n`` consecutive codes per call against the packed-word read
primitives of :class:`~repro.compression.bitarray.PackedBits` -- one
word-level unary scan plus one field extract per code, with no per-bit Python
work and no per-value reader dispatch.  CGR residual runs, the traversal
plans' pre-decode and the warp-centric decoder all go through this API; on
readers whose backing store lacks the packed primitives (e.g. the retained
:mod:`repro.compression.reference` baseline) the bulk calls fall back to the
serial per-value path, so the decoded values are identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.compression.bitarray import BitReader, BitWriter


class VLCError(ValueError):
    """Raised when a value cannot be encoded by the selected code."""


def _require_positive(value: int) -> None:
    if value < 1:
        raise VLCError(f"VLC codes encode integers >= 1, got {value}")


# ---------------------------------------------------------------------------
# Unary code
# ---------------------------------------------------------------------------

def encode_unary(writer: BitWriter, value: int) -> None:
    """Encode ``value >= 0`` as ``value`` zeros followed by a one."""
    if value < 0:
        raise VLCError(f"unary code encodes integers >= 0, got {value}")
    writer.write_unary(value)


def decode_unary(reader: BitReader) -> int:
    """Decode a unary code: count of zeros before the terminating one."""
    return reader.read_unary()


# ---------------------------------------------------------------------------
# Elias gamma code
# ---------------------------------------------------------------------------

def encode_gamma(writer: BitWriter, value: int) -> None:
    """Encode ``value >= 1`` in Elias gamma code.

    Layout: ``L-1`` zeros, a one, then the ``L-1`` bits of ``value`` below its
    leading one, where ``L`` is the bit length of ``value``.  Examples from
    Table 3 of the paper: ``1 -> 1``, ``2 -> 010``, ``12 -> 0001100``.
    """
    _require_positive(value)
    length = value.bit_length()
    writer.write_unary(length - 1)
    writer.write_bits(value - (1 << (length - 1)), length - 1)


def decode_gamma(reader: BitReader) -> int:
    """Decode one Elias gamma code and return the integer."""
    length = reader.read_unary() + 1
    rest = reader.read_bits(length - 1)
    return (1 << (length - 1)) | rest


def gamma_length(value: int) -> int:
    """Bits of the gamma code of ``value >= 1``: ``2L - 1`` for bit length ``L``."""
    _require_positive(value)
    return 2 * value.bit_length() - 1


# ---------------------------------------------------------------------------
# Elias delta code (not used in the paper's chosen configuration, provided
# for completeness of the codec substrate and for ablations)
# ---------------------------------------------------------------------------

def encode_delta(writer: BitWriter, value: int) -> None:
    """Encode ``value >= 1`` in Elias delta code (gamma-coded length)."""
    _require_positive(value)
    length = value.bit_length()
    encode_gamma(writer, length)
    writer.write_bits(value - (1 << (length - 1)), length - 1)


def decode_delta(reader: BitReader) -> int:
    """Decode one Elias delta code and return the integer."""
    length = decode_gamma(reader)
    rest = reader.read_bits(length - 1)
    return (1 << (length - 1)) | rest


def delta_length(value: int) -> int:
    """Bits of the delta code of ``value >= 1``: gamma(``L``) plus ``L - 1``."""
    _require_positive(value)
    length = value.bit_length()
    return 2 * length.bit_length() + length - 2


# ---------------------------------------------------------------------------
# zeta_k code
# ---------------------------------------------------------------------------

def encode_zeta(writer: BitWriter, value: int, k: int) -> None:
    """Encode ``value >= 1`` in the paper's zeta_k layout.

    The unary prefix holds ``h`` (written as ``h - 1`` zeros and a one) where
    ``h`` is the smallest integer such that ``value`` fits in ``h * k`` binary
    digits; the suffix is ``value`` written in exactly ``h * k`` digits.
    Examples from Table 3: ``zeta3(1) = 1001``, ``zeta3(12) = 01001100``,
    ``zeta2(34) = 001100010``.
    """
    _require_positive(value)
    if k < 1:
        raise VLCError(f"zeta parameter k must be >= 1, got {k}")
    h = 1
    while value >= (1 << (h * k)):
        h += 1
    writer.write_unary(h - 1)
    writer.write_bits(value, h * k)


def decode_zeta(reader: BitReader, k: int) -> int:
    """Decode one zeta_k code and return the integer."""
    if k < 1:
        raise VLCError(f"zeta parameter k must be >= 1, got {k}")
    h = reader.read_unary() + 1
    return reader.read_bits(h * k)


def _make_zeta_length(k: int) -> Callable[[int], int]:
    """The zeta_k code length: ``h * (k + 1)`` bits for ``value >= 1``.

    ``h = ceil(L / k)`` for bit length ``L`` is the digit-group count
    :func:`encode_zeta` writes as ``h - 1`` zeros and a one.  ``k`` is bound
    in a closure so each length costs one flat call.
    """
    group = k + 1

    def zeta_length(value: int) -> int:
        _require_positive(value)
        return -(-value.bit_length() // k) * group

    return zeta_length


# ---------------------------------------------------------------------------
# Bulk run decoders (packed-word fast path)
# ---------------------------------------------------------------------------
#
# Each run decoder reads ``count`` consecutive codes against the packed
# backing store and returns ``(values, end_positions)``: the decoded integers
# in stream order and the absolute bit offset just past each code (so callers
# can reconstruct every code's bit extent).  The reader's cursor is left
# after the last code, i.e. exactly where ``count`` serial ``decode`` calls
# would have left it.  On a mid-run error (truncated stream, malformed code)
# :class:`EOFError` is raised and the reader's position is unchanged.
#
# The decoders never touch individual bits: a :class:`StreamDecoder` holds a
# right-aligned integer *window* over the stream, refilled with one bulk
# :meth:`~repro.compression.bitarray.PackedBits.extract` per up to
# ``_REFILL_BITS`` bits.  Inside the window a whole code costs a handful of
# local integer operations -- the unary prefix falls out of
# ``int.bit_length`` (a constant-time leading-zero count) and the payload out
# of one shift-and-mask -- so the per-code cost is independent of the code's
# bit count and there is no per-value method dispatch at all.  The decoder is
# seekable, so one instance can walk a whole CGR node (headers, interval
# tuples, residual segments at fixed offsets) reusing its window.

#: Bits pulled into the decode window per refill on long runs.  At the
#: paper's ~5 bits per zeta3 code one refill serves ~100 codes.  Short runs
#: (header fields) refill one word at a time instead, so decoding a 5-bit
#: count never pays for a 512-bit window.
_REFILL_BITS = 512


class StreamDecoder:
    """Seekable word-window VLC decoder over a packed bit source.

    Subclasses implement :meth:`run_positions` for one code family.  The
    window invariant: ``_buf`` holds the ``_avail`` stream bits starting at
    absolute offset :attr:`position`, right-aligned.  On a decode error the
    instance is left at its pre-call position with an empty window.
    """

    __slots__ = ("source", "position", "_extract", "_total", "_buf", "_avail")

    def __init__(self, source, position: int = 0) -> None:
        self.source = source
        self._extract = source.extract
        self._total = len(source)
        self.position = position
        self._buf = 0
        self._avail = 0

    def seek(self, position: int) -> None:
        """Jump to an absolute bit offset, keeping the window when possible.

        Forward seeks inside the buffered window (the common case: a CGR
        segment boundary a few bits ahead) just drop the skipped bits;
        anything else resets the window.
        """
        delta = position - self.position
        if 0 <= delta <= self._avail:
            self._avail -= delta
            self._buf &= (1 << self._avail) - 1
        else:
            self._buf = 0
            self._avail = 0
        self.position = position

    def run(self, count: int) -> list[int]:
        """Decode ``count`` consecutive codes and return just the values."""
        return self.run_positions(count)[0]

    def run_positions(self, count: int) -> tuple[list[int], list[int]]:
        """Decode ``count`` codes; return (values, end offsets)."""
        raise NotImplementedError  # pragma: no cover - abstract


class GammaStreamDecoder(StreamDecoder):
    """Window decoder for Elias gamma codes."""

    __slots__ = ()

    def run_positions(self, count: int) -> tuple[list[int], list[int]]:
        """Decode ``count`` gamma codes; return (values, end offsets)."""
        extract = self._extract
        total = self._total
        position = self.position
        buf = self._buf
        avail = self._avail
        refill = 64 if count <= 2 else _REFILL_BITS
        values: list[int] = []
        ends: list[int] = []
        append_value = values.append
        append_end = ends.append
        for _ in range(count):
            while True:
                if buf:
                    width = avail - buf.bit_length()  # unary zeros == payload
                    code_bits = width + 1 + width
                    if code_bits <= avail:
                        break
                take = total - position - avail
                if take <= 0:
                    self._buf = 0
                    self._avail = 0
                    raise EOFError("bit stream exhausted")
                if take > refill:
                    take = refill
                buf = (buf << take) | extract(position + avail, take)
                avail += take
            rest = avail - code_bits
            append_value((1 << width) | ((buf >> rest) & ((1 << width) - 1)))
            avail = rest
            buf &= (1 << rest) - 1
            position += code_bits
            append_end(position)
        self.position = position
        self._buf = buf
        self._avail = avail
        return values, ends


class DeltaStreamDecoder(StreamDecoder):
    """Window decoder for Elias delta codes (gamma-coded length + payload)."""

    __slots__ = ()

    def run_positions(self, count: int) -> tuple[list[int], list[int]]:
        """Decode ``count`` delta codes; return (values, end offsets)."""
        extract = self._extract
        total = self._total
        position = self.position
        buf = self._buf
        avail = self._avail
        refill = 64 if count <= 2 else _REFILL_BITS
        values: list[int] = []
        ends: list[int] = []
        append_value = values.append
        append_end = ends.append
        for _ in range(count):
            while True:
                if buf:
                    gamma_width = avail - buf.bit_length()
                    gamma_bits = gamma_width + 1 + gamma_width
                    if gamma_bits <= avail:
                        break
                take = total - position - avail
                if take <= 0:
                    self._buf = 0
                    self._avail = 0
                    raise EOFError("bit stream exhausted")
                if take > refill:
                    take = refill
                buf = (buf << take) | extract(position + avail, take)
                avail += take
            length = (1 << gamma_width) | (
                (buf >> (avail - gamma_bits)) & ((1 << gamma_width) - 1)
            )
            width = length - 1
            code_bits = gamma_bits + width
            while code_bits > avail:
                take = total - position - avail
                if take <= 0:
                    self._buf = 0
                    self._avail = 0
                    raise EOFError("bit stream exhausted")
                if take > refill:
                    take = refill
                buf = (buf << take) | extract(position + avail, take)
                avail += take
            rest = avail - code_bits
            append_value((1 << width) | ((buf >> rest) & ((1 << width) - 1)))
            avail = rest
            buf &= (1 << rest) - 1
            position += code_bits
            append_end(position)
        self.position = position
        self._buf = buf
        self._avail = avail
        return values, ends


class ZetaStreamDecoder(StreamDecoder):
    """Window decoder for zeta_k codes."""

    __slots__ = ("_k",)

    def __init__(self, source, position: int = 0, k: int = 3) -> None:
        super().__init__(source, position)
        if k < 1:
            raise VLCError(f"zeta parameter k must be >= 1, got {k}")
        self._k = k

    def run_positions(self, count: int) -> tuple[list[int], list[int]]:
        """Decode ``count`` zeta codes; return (values, end offsets)."""
        k = self._k
        extract = self._extract
        total = self._total
        position = self.position
        buf = self._buf
        avail = self._avail
        refill = 64 if count <= 2 else _REFILL_BITS
        values: list[int] = []
        ends: list[int] = []
        append_value = values.append
        append_end = ends.append
        for _ in range(count):
            while True:
                if buf:
                    zeros = avail - buf.bit_length()
                    width = (zeros + 1) * k  # h * k digits
                    code_bits = zeros + 1 + width
                    if code_bits <= avail:
                        break
                take = total - position - avail
                if take <= 0:
                    self._buf = 0
                    self._avail = 0
                    raise EOFError("bit stream exhausted")
                if take > refill:
                    take = refill
                buf = (buf << take) | extract(position + avail, take)
                avail += take
            rest = avail - code_bits
            append_value((buf >> rest) & ((1 << width) - 1))
            avail = rest
            buf &= (1 << rest) - 1
            position += code_bits
            append_end(position)
        self.position = position
        self._buf = buf
        self._avail = avail
        return values, ends


def decode_gamma_run(
    reader: BitReader, count: int
) -> tuple[list[int], list[int]]:
    """Bulk-decode ``count`` Elias gamma codes from ``reader``'s position."""
    decoder = GammaStreamDecoder(reader.bits, reader.position)
    result = decoder.run_positions(count)
    reader.position = decoder.position
    return result


def decode_delta_run(
    reader: BitReader, count: int
) -> tuple[list[int], list[int]]:
    """Bulk-decode ``count`` Elias delta codes from ``reader``'s position."""
    decoder = DeltaStreamDecoder(reader.bits, reader.position)
    result = decoder.run_positions(count)
    reader.position = decoder.position
    return result


def decode_zeta_run(
    reader: BitReader, count: int, k: int
) -> tuple[list[int], list[int]]:
    """Bulk-decode ``count`` zeta_k codes from ``reader``'s position."""
    decoder = ZetaStreamDecoder(reader.bits, reader.position, k)
    result = decoder.run_positions(count)
    reader.position = decoder.position
    return result


# ---------------------------------------------------------------------------
# Scheme registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VLCScheme:
    """A named encode/decode pair over positive integers, with the code's
    closed-form length (:meth:`encoded_length`), which the CGR encoder
    reads to partition residual segments before writing them.

    ``bulk_decode`` is the scheme's packed-word run decoder (``None`` for
    schemes without one); use :meth:`decode_run` /
    :meth:`decode_run_positions`, which pick the fast path automatically and
    fall back to serial per-value decoding on non-packed readers.
    """

    name: str
    encode: Callable[[BitWriter, int], None]
    decode: Callable[[BitReader], int]
    #: Closed-form code length, ``code_length(value) -> bits``.
    code_length: Callable[[int], int] = field(repr=False, compare=False)
    bulk_decode: Callable[
        [BitReader, int], tuple[list[int], list[int]]
    ] | None = field(default=None, repr=False, compare=False)
    #: Factory for a seekable :class:`StreamDecoder` over a packed source:
    #: ``stream_decoder(source, position)``.  ``None`` when the scheme has no
    #: word-window decoder.
    stream_decoder: Callable[..., StreamDecoder] | None = field(
        default=None, repr=False, compare=False
    )

    def encoded_length(self, value: int) -> int:
        """Number of bits this scheme needs for ``value``.

        Closed-form (no bits written), so the CGR encoder can size each
        residual segment before writing it.  Raises :class:`VLCError` for
        ``value < 1``, as ``encode`` does.
        """
        return self.code_length(value)

    def encode_to_bits(self, value: int) -> str:
        """Return the code word for ``value`` as a bit string (for tests)."""
        writer = BitWriter()
        self.encode(writer, value)
        return writer.to_bitstring()

    def decode_run_positions(
        self, reader: BitReader, count: int
    ) -> tuple[list[int], list[int]]:
        """Decode ``count`` consecutive codes; return (values, end offsets).

        ``end offsets`` holds the absolute bit position just past each code.
        Dispatches to the scheme's bulk word-level decoder when the reader's
        backing store exposes the packed primitives, else decodes serially --
        the results are identical, only the cost differs.
        """
        bulk = self.bulk_decode
        if bulk is not None and hasattr(reader.bits, "scan"):
            return bulk(reader, count)
        values: list[int] = []
        ends: list[int] = []
        for _ in range(count):
            values.append(self.decode(reader))
            ends.append(reader.position)
        return values, ends

    def decode_run(self, reader: BitReader, count: int) -> list[int]:
        """Decode ``count`` consecutive codes and return just the values."""
        return self.decode_run_positions(reader, count)[0]


def _make_zeta_scheme(k: int) -> VLCScheme:
    return VLCScheme(
        name=f"zeta{k}",
        encode=lambda writer, value, _k=k: encode_zeta(writer, value, _k),
        decode=lambda reader, _k=k: decode_zeta(reader, _k),
        code_length=_make_zeta_length(k),
        bulk_decode=lambda reader, count, _k=k: decode_zeta_run(reader, count, _k),
        stream_decoder=lambda source, position=0, _k=k: ZetaStreamDecoder(
            source, position, _k
        ),
    )


VLC_SCHEMES: dict[str, VLCScheme] = {
    "gamma": VLCScheme(
        "gamma", encode_gamma, decode_gamma, gamma_length,
        decode_gamma_run, GammaStreamDecoder,
    ),
    "delta": VLCScheme(
        "delta", encode_delta, decode_delta, delta_length,
        decode_delta_run, DeltaStreamDecoder,
    ),
}
for _k in range(2, 7):
    VLC_SCHEMES[f"zeta{_k}"] = _make_zeta_scheme(_k)


def get_scheme(name: str) -> VLCScheme:
    """Look up a VLC scheme by name (``gamma``, ``delta``, ``zeta2``..``zeta6``).

    Raises ``KeyError`` with the list of known names when the name is unknown.
    """
    try:
        return VLC_SCHEMES[name]
    except KeyError:
        known = ", ".join(sorted(VLC_SCHEMES))
        raise KeyError(f"unknown VLC scheme {name!r}; known schemes: {known}") from None
