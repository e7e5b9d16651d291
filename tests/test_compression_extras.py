"""Tests for byte-RLE compression."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.compression.byte_rle import ByteRLEGraph
from repro.compression.cgr import encode_graph
from repro.graph.generators import web_locality_graph


class TestByteRLE:
    def test_round_trip_small_graph(self, tiny_graph):
        compressed = ByteRLEGraph.from_adjacency(tiny_graph.adjacency())
        for node in range(tiny_graph.num_nodes):
            assert compressed.neighbors(node) == tiny_graph.neighbors(node)
            assert compressed.degree(node) == tiny_graph.out_degree(node)

    def test_round_trip_web_graph(self, web_graph):
        compressed = ByteRLEGraph.from_adjacency(web_graph.adjacency())
        for node in range(0, web_graph.num_nodes, 7):
            assert compressed.neighbors(node) == web_graph.neighbors(node)

    def test_compression_rate_between_one_and_cgr(self, web_graph):
        byte_rle = ByteRLEGraph.from_adjacency(web_graph.adjacency())
        cgr = encode_graph(web_graph.adjacency())
        assert byte_rle.compression_rate > 1.0
        assert cgr.compression_rate > byte_rle.compression_rate

    def test_out_of_range_node(self, tiny_graph):
        compressed = ByteRLEGraph.from_adjacency(tiny_graph.adjacency())
        with pytest.raises(IndexError):
            compressed.neighbors(100)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=60), max_size=30),
        min_size=1,
        max_size=30,
    )
)
def test_property_byte_rle_round_trip(adjacency):
    padded = [sorted({v for v in neighbors if v < len(adjacency)}) for neighbors in adjacency]
    compressed = ByteRLEGraph.from_adjacency(padded)
    for node, neighbors in enumerate(padded):
        assert compressed.neighbors(node) == neighbors


def test_byte_rle_and_cgr_agree_on_realistic_graph():
    graph = web_locality_graph(120, seed=5)
    byte_rle = ByteRLEGraph.from_adjacency(graph.adjacency())
    cgr = encode_graph(graph.adjacency())
    for node in range(graph.num_nodes):
        assert byte_rle.neighbors(node) == cgr.neighbors(node)
