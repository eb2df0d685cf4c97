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
    "zigzag_encode",
    "zigzag_decode",
]


def encode_varint(value: int) -> bytes:
    """Encode a non-negative integer as a LEB128 varint."""
    if value < 0:
        raise ValueError("varints encode non-negative integers only")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode one varint from ``data[offset:]``.

    Returns ``(value, next_offset)``; raises ``ValueError`` on
    truncated input.
    """
    value = 0
    shift = 0
    position = offset
    while True:
        if position >= len(data):
            raise ValueError("truncated varint")
        byte = data[position]
        position += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, position
        shift += 7


def encode_varints(values: Iterable[int]) -> bytes:
    """Concatenate the varint encodings of ``values``."""
    out = bytearray()
    for value in values:
        out.extend(encode_varint(value))
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
