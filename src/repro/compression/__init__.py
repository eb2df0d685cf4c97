"""Downstream graph compression (Section 7: composes with summaries)."""

from repro.compression.codec import (
    CompressionReport,
    GraphCodec,
    SummaryCodec,
    compression_report,
)
from repro.compression.varint import (
    decode_varint,
    decode_varints,
    encode_varint,
    encode_varints,
    zigzag_decode,
    zigzag_encode,
)

__all__ = [
    "CompressionReport",
    "GraphCodec",
    "SummaryCodec",
    "compression_report",
    "decode_varint",
    "decode_varints",
    "encode_varint",
    "encode_varints",
    "zigzag_decode",
    "zigzag_encode",
]
