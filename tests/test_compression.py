"""Tests for the varint/gap codecs and the compression pipeline."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algorithms.mags import MagsSummarizer
from repro.algorithms.mags_dm import MagsDMSummarizer
from repro.compression.codec import (
    GraphCodec,
    SummaryCodec,
    compression_report,
)
from repro.compression.varint import (
    decode_varint,
    decode_varints,
    encode_varint,
    encode_varints,
    pack_varints,
    read_varints,
    zigzag_decode,
    zigzag_encode,
)
from repro.core.encoding import encode
from repro.core.supernodes import SuperNodePartition
from repro.graph.generators import templated_web
from repro.graph.graph import Graph


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**21, 2**63])
    def test_roundtrip(self, value):
        data = encode_varint(value)
        decoded, offset = decode_varint(data)
        assert decoded == value
        assert offset == len(data)

    def test_single_byte_boundary(self):
        assert len(encode_varint(127)) == 1
        assert len(encode_varint(128)) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_varint(-1)

    def test_truncated_input(self):
        data = encode_varint(300)[:1]
        with pytest.raises(ValueError, match="truncated"):
            decode_varint(data)

    def test_stream_roundtrip(self):
        values = [0, 5, 1000, 7, 2**40]
        assert list(decode_varints(encode_varints(values))) == values

    def test_pack_appends_the_single_value_encodings(self):
        values = [0, 127, 128, 300, 2**35]
        out = bytearray(b"x")
        pack_varints(out, values)
        assert bytes(out) == b"x" + b"".join(map(encode_varint, values))

    @given(st.lists(st.integers(0, 2**64), max_size=20), st.binary(max_size=3))
    def test_read_counted_run(self, values, prefix):
        data = prefix + encode_varints(values) + b"\xff"
        decoded, offset = read_varints(data, len(prefix), len(values))
        assert decoded == values
        assert offset == len(data) - 1

    def test_read_truncated_run(self):
        data = encode_varints([1, 300])[:-1]
        with pytest.raises(ValueError, match="truncated"):
            read_varints(data, 0, 2)

    @given(st.integers(-(2**31), 2**31))
    def test_zigzag_roundtrip(self, value):
        assert zigzag_decode(zigzag_encode(value)) == value

    def test_zigzag_interleaves(self):
        assert [zigzag_encode(v) for v in (0, -1, 1, -2, 2)] == [0, 1, 2, 3, 4]


class TestGraphCodec:
    def test_roundtrip(self, paper_like_graph):
        blob = GraphCodec.encode(paper_like_graph)
        assert GraphCodec.decode(blob) == paper_like_graph

    def test_empty_graph(self):
        g = Graph(0, [])
        assert GraphCodec.decode(GraphCodec.encode(g)) == g

    def test_edgeless_graph(self):
        g = Graph(7, [])
        assert GraphCodec.decode(GraphCodec.encode(g)) == g

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="not a graph"):
            GraphCodec.decode(b"XXXX")

    def test_gap_coding_beats_raw_ints(self, community_graph):
        blob = GraphCodec.encode(community_graph)
        # 2 x 4-byte ints per edge would be 8 bytes/edge.
        assert len(blob) < 8 * community_graph.m

    @given(st.integers(0, 10_000))
    def test_random_graph_roundtrip(self, seed):
        from repro.graph.generators import erdos_renyi

        g = erdos_renyi(30, 0.2, seed=seed % 50)
        assert GraphCodec.decode(GraphCodec.encode(g)) == g


class TestSummaryCodec:
    def _roundtrip(self, graph, rep):
        decoded = SummaryCodec.decode(SummaryCodec.encode(rep))
        assert decoded.n == rep.n
        assert decoded.m == rep.m
        assert decoded.reconstruct_edges() == graph.edge_set()
        return decoded

    def test_singleton_encoding(self, paper_like_graph):
        rep = encode(SuperNodePartition(paper_like_graph))
        self._roundtrip(paper_like_graph, rep)

    def test_mags_output(self, community_graph):
        rep = MagsSummarizer(iterations=8, seed=1).summarize(
            community_graph
        ).representation
        self._roundtrip(community_graph, rep)

    def test_structure_preserved_modulo_renumbering(self, twin_graph):
        rep = MagsDMSummarizer(iterations=8, seed=1).summarize(
            twin_graph
        ).representation
        decoded = self._roundtrip(twin_graph, rep)
        original_members = sorted(
            tuple(sorted(m)) for m in rep.supernodes.values()
        )
        decoded_members = sorted(
            tuple(sorted(m)) for m in decoded.supernodes.values()
        )
        assert original_members == decoded_members

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="not a summary"):
            SummaryCodec.decode(b"XXXXXX")


class TestCompressionPipeline:
    def test_summary_compresses_further_on_web_graphs(self):
        """The Section 7 claim: summarize-then-compress beats
        compress-alone on summarizable structure."""
        graph = templated_web(600, 25, 70, 8, 0.03, seed=9)
        rep = MagsDMSummarizer(iterations=15, seed=1).summarize(
            graph
        ).representation
        report = compression_report(graph, rep)
        assert report.ratio < 0.7
        assert report.summary_bits_per_edge < report.graph_bits_per_edge

    def test_report_on_incompressible_graph(self):
        from repro.graph.generators import erdos_renyi

        graph = erdos_renyi(150, 0.08, seed=4)
        rep = MagsDMSummarizer(iterations=10, seed=1).summarize(
            graph
        ).representation
        report = compression_report(graph, rep)
        # Random graphs barely summarize; the pipeline must not blow
        # the size up by more than structural overhead.
        assert report.ratio < 1.6

    def test_report_fields(self, community_graph):
        rep = encode(SuperNodePartition(community_graph))
        report = compression_report(community_graph, rep)
        assert report.m == community_graph.m
        assert report.graph_bytes > 0
        assert report.summary_bytes > 0
        assert report.graph_bits_per_edge == pytest.approx(
            8 * report.graph_bytes / community_graph.m
        )
