"""graph6 text codec.

graph6 packs the upper triangle of the adjacency matrix in column order
((0,1), (0,2), (1,2), (0,3), ...) into 6-bit groups, each printed as the
ASCII character 63 + value.  The size header is chr(63 + n) for n <= 62,
'~' plus three 6-bit digits for n <= 258047, and '~~' plus six digits
beyond.  Encoding always emits the minimal-length header and zero padding
bits, so equal graphs map to equal strings byte for byte; decoding
accepts only that header.  Both directions refuse more than MAX_VERTICES
vertices, so every string the encoder writes decodes.

The 6-bit groups are base64's in another alphabet, so one
bytes.translate and binascii turn the characters into the triangle's
bits and back in C.  Column j of the triangle is row j's neighbours
below j, one slice of those bits, so each direction takes one string
slice per vertex; the decoder adds each row's neighbours above it with
one graph._transpose, not one step per edge.
"""

from __future__ import annotations

import binascii

from .graph import MAX_VERTICES, Graph, _transpose


class Graph6Error(ValueError):
    """Raised for malformed graph6 text; the message names the defect."""


def _data_len(n: int) -> int:
    return (n * (n - 1) // 2 + 5) // 6


# graph6 characters and base64 digits, each in the order of its value
_GRAPH6 = bytes(range(63, 127))
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_BASE64 = bytes.maketrans(_GRAPH6, _BASE64)
_TO_GRAPH6 = bytes.maketrans(_BASE64, _GRAPH6)


def decode_graph6(text: str) -> Graph:
    """Parse one graph6 string (no trailing newline) into a Graph.

    Every character, the size header, the data length and the padding
    bits are checked, each failure with its own message.  The groups are
    base64-decoded into one int, the triangle's bits; written in binary
    and reversed, column j (rows j-1 down to 0) is one slice that int()
    reads as row j's neighbours below j.  Those rows ORed with their
    transpose are the adjacency rows.
    """
    if not text:
        raise Graph6Error("empty graph6 string")
    if not text.isascii() or text.encode().translate(None, _GRAPH6):
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

    # zero groups ('?') fill the last base64 quantum of four
    data = (text[pos:] + "?" * (-need % 4)).encode().translate(_TO_BASE64)
    raw = binascii.a2b_base64(data)
    nbits = n * (n - 1) // 2
    pad = 8 * len(raw) - nbits
    triangle = int.from_bytes(raw, "big")
    if triangle & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits")
    # the column-major upper triangle in binary, last bit first
    backward = f"{triangle >> pad:0{nbits}b}"[::-1]
    lower = [0] * n
    start = nbits
    for j in range(1, n):
        start, end = start - j, start
        lower[j] = int(backward[start:end], 2)
    return Graph(n, map(int.__or__, lower, _transpose(lower)), check=False)


def encode_graph6(g: Graph) -> str:
    """Canonical graph6 text: minimal size header, zero padding.

    The decoder's layout, written forwards: column j is row j's
    neighbours below j, lowest first, one formatted slice of a binary
    string.  Zero-filled to whole base64 quanta of 24 bits, the string
    is one int; b2a_base64 cuts its bytes into 6-bit groups, a translate
    prints them as graph6 characters, and the groups of fill alone are
    dropped.
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
    stream = "".join([format(adj[j] & ((1 << j) - 1), f"0{j}b")[::-1]
                      for j in range(1, n)])
    fill = -len(stream) % 24
    raw = (int(stream or "0", 2) << fill).to_bytes((len(stream) + fill) // 8, "big")
    groups = binascii.b2a_base64(raw, newline=False).translate(_TO_GRAPH6)
    return head + groups[:_data_len(n)].decode()
