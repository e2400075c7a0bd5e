"""graph6 codec: round trips, networkx cross-checks, and error reporting."""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from distcrit import Graph, Graph6Error, decode_graph6, encode_graph6
from distcrit.constructions import regular_extremal
from distcrit.graph import MAX_VERTICES
from distcrit.graph6 import _data_len
from conftest import WIDTH_BOUNDARIES, random_graph


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


def reference_decode(text: str) -> Graph:
    """The per-bit graph6 decoder: every check and message of
    decode_graph6, with the adjacency read one bit at a time."""
    if not text:
        raise Graph6Error("empty graph6 string")
    vals = []
    for ch in text:
        o = ord(ch)
        if not 63 <= o <= 126:
            raise Graph6Error(f"character {ch!r} outside graph6 range 63..126")
        vals.append(o - 63)
    if vals[0] != 63:
        n, pos = vals[0], 1
    elif len(vals) >= 2 and vals[1] != 63:
        if len(vals) < 4:
            raise Graph6Error("truncated long-form size header")
        n, pos = (vals[1] << 12) | (vals[2] << 6) | vals[3], 4
    else:
        if len(vals) < 8:
            raise Graph6Error("truncated long-form size header")
        n = 0
        for v in vals[2:8]:
            n = (n << 6) | v
        pos = 8
    minimal = 1 if n <= 62 else 4 if n <= 258047 else 8
    if pos != minimal:
        raise Graph6Error(f"non-minimal size header: {pos} characters for "
                          f"n = {n}, which takes {minimal}")
    if n > MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} exceeds supported {MAX_VERTICES}")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(vals) - pos < need:
        raise Graph6Error(f"truncated adjacency data: {len(vals) - pos} of {need} groups")
    if len(vals) - pos > need:
        raise Graph6Error(f"trailing characters after {need} adjacency groups")
    adj = [0] * n
    bit_index = 0
    nbits = n * (n - 1) // 2
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    for v in vals[pos:]:
        for k in range(5, -1, -1):
            bit = v >> k & 1
            if bit_index >= nbits:
                if bit:
                    raise Graph6Error("nonzero padding bits")
            elif bit:
                i, j = pairs[bit_index]
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            bit_index += 1
    return Graph(n, adj, check=False)


def reference_encode(g: Graph) -> str:
    """The per-bit graph6 encoder: the upper triangle in column order,
    packed six bits at a time, zero padded, after the minimal header."""
    n = g.n
    if n <= 62:
        out = [n + 63]
    else:
        out = [126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    group = filled = 0
    for j in range(1, n):
        for i in range(j):
            group = group << 1 | (g.adj[j] >> i & 1)
            filled += 1
            if filled == 6:
                out.append(group + 63)
                group = filled = 0
    if filled:
        out.append((group << (6 - filled)) + 63)
    return "".join(map(chr, out))


def outcome(decode, text: str):
    try:
        return decode(text)
    except Graph6Error as exc:
        return str(exc)


def test_encoder_matches_per_bit_encoder():
    rng = random.Random(29)
    graphs = [random_graph(n, p, rng)
              for n in [*range(71), 100, 300, 1024, *WIDTH_BOUNDARIES]
              for p in ((0.0, 0.5, 1.0) if n <= 70 else (0.01, 0.5))]
    graphs.append(regular_extremal(1024))
    for g in graphs:
        assert encode_graph6(g) == reference_encode(g)


class TestAgainstPerBitDecoder:
    SIZES = [*range(71), 200, 1024, *WIDTH_BOUNDARIES]

    def test_random_graphs(self):
        rng = random.Random(23)
        for n in self.SIZES:
            for p in ((0.0, 0.5, 1.0) if n <= 70 else (0.01, 0.5)):
                g = random_graph(n, p, rng)
                text = encode_graph6(g)
                assert decode_graph6(text) == reference_decode(text) == g

    def test_header_boundary(self):
        # n = 62 is the last one-character header, 63 the first long one
        for n in (62, 63):
            text = encode_graph6(Graph.empty(n))
            assert len(text) - _data_len(n) == (1 if n == 62 else 4)
            for bad in ("~??" + chr(63 + n) + text[-_data_len(n):],
                        chr(63 + n) + text[-_data_len(n):],
                        "~~????" + chr(63 + (n >> 6)) + chr(63 + (n & 63))
                        + text[-_data_len(n):],
                        text[:3], text[:-1], text + "?"):
                assert outcome(decode_graph6, bad) == \
                    outcome(reference_decode, bad)

    def test_every_padding_position(self):
        # in the empty graph's last group, setting any one padding bit is
        # refused, setting a data bit is an edge
        padded = 0
        for n in self.SIZES:
            if n < 2:
                continue
            text = encode_graph6(Graph.empty(n))
            pad = 6 * _data_len(n) - n * (n - 1) // 2
            for k in range(6):
                tampered = text[:-1] + chr(63 + (1 << k))
                got = outcome(decode_graph6, tampered)
                assert got == outcome(reference_decode, tampered)
                assert (got == "nonzero padding bits") == (k < pad)
                padded += k < pad
        assert padded >= 100

    def test_mutated_strings(self):
        # truncations, extensions and character swaps: the same graph or
        # the same message
        rng = random.Random(29)
        for _ in range(400):
            n = rng.choice(self.SIZES[:71] + [200])
            text = encode_graph6(random_graph(n, 0.3, rng))
            cut = rng.randrange(len(text) + 1)
            bad = rng.choice([
                text[:cut],
                text + chr(rng.randrange(63, 127)),
                text[:cut] + chr(rng.randrange(32, 200)) + text[cut + 1:],
            ])
            assert outcome(decode_graph6, bad) == outcome(reference_decode, bad)


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

    def test_encoder_keeps_the_vertex_limit(self):
        # the encoder refuses what the decoder would refuse, with its
        # message; a Graph can exceed the limit only when built unchecked
        big = Graph(MAX_VERTICES + 1, (0,) * (MAX_VERTICES + 1), check=False)
        with pytest.raises(Graph6Error,
                           match=f"vertex count {MAX_VERTICES + 1} exceeds"):
            encode_graph6(big)
        g = random_graph(MAX_VERTICES, 0.01, random.Random(1024))
        assert decode_graph6(encode_graph6(g)) == g
