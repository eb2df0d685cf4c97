"""Variable-length integer coding primitives.

The compression pipeline (Section 7 of the paper: summarization
composes with any downstream graph compression) needs a concrete
codec; this module provides LEB128-style varints and zig-zag coding,
the standard building blocks of adjacency-list compressors such as
WebGraph's successors.
"""

from __future__ import annotations

from typing import Iterable, Iterator

__all__ = [
    "encode_varint",
    "decode_varint",
    "encode_varints",
    "decode_varints",
    "pack_varints",
    "read_varints",
    "zigzag_encode",
    "zigzag_decode",
]


def encode_varint(value: int) -> bytes:
    """Encode a non-negative integer as a LEB128 varint."""
    if value < 0:
        raise ValueError("varints encode non-negative integers only")
    out = bytearray()
    pack_varints(out, (value,))
    return bytes(out)


def decode_varint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode one varint from ``data[offset:]``.

    Returns ``(value, next_offset)``; raises ``ValueError`` on
    truncated input.
    """
    (value,), offset = read_varints(data, offset, 1)
    return value, offset


def pack_varints(out: bytearray, values: Iterable[int]) -> None:
    """Append the varint encoding of each of ``values`` to ``out`` —
    one loop for a whole record instead of one call and one ``bytes``
    per value.  A negative value raises ``ValueError``, leaving the
    encodings of the values before it in ``out``."""
    append = out.append
    for value in values:
        while value > 0x7F:
            append(value & 0x7F | 0x80)
            value >>= 7
        append(value)


def read_varints(
    data: bytes, offset: int, count: int
) -> tuple[list[int], int]:
    """Decode ``count`` consecutive varints from ``data[offset:]``.

    Returns ``(values, next_offset)``; raises ``ValueError`` on
    truncated input.
    """
    values = []
    append = values.append
    try:
        for _ in range(count):
            value = shift = 0
            byte = data[offset]
            offset += 1
            while byte > 0x7F:
                value |= (byte & 0x7F) << shift
                shift += 7
                byte = data[offset]
                offset += 1
            append(value | byte << shift)
    except IndexError:
        raise ValueError("truncated varint") from None
    return values, offset


def encode_varints(values: Iterable[int]) -> bytes:
    """Concatenate the varint encodings of ``values``."""
    out = bytearray()
    pack_varints(out, values)
    return bytes(out)


def decode_varints(data: bytes) -> Iterator[int]:
    """Decode a stream of concatenated varints."""
    offset = 0
    while offset < len(data):
        value, offset = decode_varint(data, offset)
        yield value


def zigzag_encode(value: int) -> int:
    """Map a signed integer to an unsigned one (0, -1, 1, -2, ...)."""
    return (value << 1) ^ (value >> 63) if value >= 0 else ((-value) << 1) - 1


def zigzag_decode(value: int) -> int:
    """Inverse of :func:`zigzag_encode`."""
    if value & 1:
        return -((value + 1) >> 1)
    return value >> 1
