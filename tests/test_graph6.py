"""graph6 codec: round trips, networkx cross-checks, and error reporting."""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from distcrit import Graph, Graph6Error, decode_graph6, encode_graph6
from distcrit.graph6 import to_dot
from conftest import random_graph


def nx_encode(g: Graph) -> str:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return nx.to_graph6_bytes(h, header=False).decode().strip()


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_encode_decode_identity(self, data):
        n = data.draw(st.integers(0, 40))
        rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
        g = random_graph(n, rng.choice([0.1, 0.5, 0.9]), rng)
        assert decode_graph6(encode_graph6(g)) == g

    def test_long_form_headers(self):
        rng = random.Random(3)
        for n in (62, 63, 64, 100, 200):
            g = random_graph(n, 0.05, rng)
            text = encode_graph6(g)
            assert decode_graph6(text) == g
            if n >= 63:
                assert text.startswith(chr(126))

    def test_empty_and_tiny(self):
        for n in range(0, 4):
            g = Graph.empty(n)
            assert decode_graph6(encode_graph6(g)) == g


class TestAgainstNetworkx:
    def test_random_graphs_match(self):
        rng = random.Random(17)
        for _ in range(300):
            g = random_graph(rng.randint(1, 20), rng.choice([0.2, 0.5, 0.8]), rng)
            assert encode_graph6(g) == nx_encode(g)

    def test_decode_networkx_output(self):
        rng = random.Random(19)
        for _ in range(100):
            g = random_graph(rng.randint(1, 15), 0.4, rng)
            assert decode_graph6(nx_encode(g)) == g

    def test_known_strings(self):
        c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        assert encode_graph6(c5) == "Dhc"
        k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert encode_graph6(k4) == "C~"
        assert decode_graph6("?") == Graph.empty(0)


class TestErrors:
    @pytest.mark.parametrize("bad", ["", " ", "\x1f", "!!!", "D", "Dhc~", "Dh"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(Graph6Error):
            decode_graph6(bad)

    def test_distinct_messages(self):
        with pytest.raises(Graph6Error, match="outside graph6 range"):
            decode_graph6("!")
        with pytest.raises(Graph6Error, match="truncated"):
            decode_graph6("D")
        with pytest.raises(Graph6Error, match="trailing"):
            decode_graph6("Dhcc")

    def test_non_minimal_headers(self):
        # C5 as "Dhc" with the 4- and the 8-character size header
        for bad in ("~??Dhc", "~~?????Dhc"):
            with pytest.raises(Graph6Error, match="non-minimal size header"):
                decode_graph6(bad)
        # n = 63 takes the 4-character header, not the 8-character one
        g = Graph.empty(63)
        with pytest.raises(Graph6Error, match="non-minimal size header"):
            decode_graph6("~~???" + encode_graph6(g)[1:])

    def test_padding_bits_must_be_zero(self):
        text = encode_graph6(Graph.from_edges(5, [(0, 1)]))
        tampered = text[:-1] + chr(((ord(text[-1]) - 63) | 1) + 63)
        with pytest.raises(Graph6Error):
            decode_graph6(tampered)


def test_to_dot_shape():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    dot = to_dot(g)
    assert dot.startswith("graph")
    assert "0 -- 1" in dot and "1 -- 2" in dot and "--" in dot
    assert dot.count("--") == 2
