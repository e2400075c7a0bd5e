"""graph6 text codec.

graph6 packs the upper triangle of the adjacency matrix in column order
((0,1), (0,2), (1,2), (0,3), ...) into 6-bit groups, each printed as the
ASCII character 63 + value.  The size header is chr(63 + n) for n <= 62,
'~' plus three 6-bit digits for n <= 258047, and '~~' plus six digits
beyond.  Encoding always emits the minimal-length header and zero padding
bits, so equal graphs map to equal strings byte for byte; decoding
accepts only that header.  Both directions refuse more than MAX_VERTICES
vertices, so every string the encoder writes decodes.
"""

from __future__ import annotations

from .graph import MAX_VERTICES, Graph


class Graph6Error(ValueError):
    """Raised for malformed graph6 text; the message names the defect."""


def _data_len(n: int) -> int:
    return (n * (n - 1) // 2 + 5) // 6


# each graph6 character as its 6-bit group, most significant bit first
_GROUP_BITS = str.maketrans({chr(63 + v): f"{v:06b}" for v in range(64)})
# and the inverse, for the encoder
_GROUP_CHAR = {f"{v:06b}": chr(63 + v) for v in range(64)}


def decode_graph6(text: str) -> Graph:
    """Parse one graph6 string (no trailing newline) into a Graph.

    The adjacency groups are joined into one bit string, so column j of
    the upper triangle is one slice of it, read reversed as the row mask
    of j's neighbours below j; only its set bits are mirrored into the
    rows of those neighbours.
    """
    if not text:
        raise Graph6Error("empty graph6 string")
    if not "?" <= min(text) <= max(text) <= "~":
        ch = next(ch for ch in text if not "?" <= ch <= "~")
        raise Graph6Error(f"character {ch!r} outside graph6 range 63..126")

    head = [ord(ch) - 63 for ch in text[:8]]
    if head[0] != 63:
        n = head[0]
        pos = 1
    elif len(head) >= 2 and head[1] != 63:
        if len(head) < 4:
            raise Graph6Error("truncated long-form size header")
        n = (head[1] << 12) | (head[2] << 6) | head[3]
        pos = 4
    else:
        if len(head) < 8:
            raise Graph6Error("truncated long-form size header")
        n = 0
        for v in head[2:8]:
            n = (n << 6) | v
        pos = 8
    minimal = 1 if n <= 62 else 4 if n <= 258047 else 8
    if pos != minimal:
        raise Graph6Error(f"non-minimal size header: {pos} characters for "
                          f"n = {n}, which takes {minimal}")
    if n > MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} exceeds supported {MAX_VERTICES}")

    need = _data_len(n)
    if len(text) - pos < need:
        raise Graph6Error(f"truncated adjacency data: {len(text) - pos} of {need} groups")
    if len(text) - pos > need:
        raise Graph6Error(f"trailing characters after {need} adjacency groups")

    stream = text[pos:].translate(_GROUP_BITS)
    if "1" in stream[n * (n - 1) // 2:]:
        raise Graph6Error("nonzero padding bits")
    # column-major upper triangle: column j holds rows 0..j-1
    adj = [0] * n
    end = 0
    for j in range(1, n):
        start, end = end, end + j
        adj[j] = col = int(stream[start:end][::-1], 2)
        bit_j = 1 << j
        while col:
            low = col & -col
            adj[low.bit_length() - 1] |= bit_j
            col ^= low
    return Graph(n, adj, check=False)


def encode_graph6(g: Graph) -> str:
    """Canonical graph6 text: minimal size header, zero padding.

    The decoder's column layout, written forwards: column j is the row
    mask of j's neighbours below j, lowest first, as one slice.
    """
    n = g.n
    if n > MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} exceeds supported {MAX_VERTICES}")
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr((n >> shift & 63) + 63)
                             for shift in (12, 6, 0))
    adj = g.adj
    stream = "".join(format(adj[j] & ((1 << j) - 1), f"0{j}b")[::-1]
                     for j in range(1, n))
    stream += "0" * (-len(stream) % 6)
    return head + "".join(_GROUP_CHAR[stream[k:k + 6]]
                          for k in range(0, len(stream), 6))
