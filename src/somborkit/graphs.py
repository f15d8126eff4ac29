"""Simple undirected graphs on bitset adjacency rows, with graph6 I/O.

Vertices are 0..n-1.  Each adjacency row is a Python int used as a bit set,
so a graph is just ``(n, rows)`` with ``rows[u] >> v & 1`` telling whether
uv is an edge.  Graphs are immutable; every operation here is a pure
function returning fresh values.

graph6 codec
    ``parse_graph6`` reads one line without a per-bit Python loop.  One
    ``str.translate`` turns the body into a string of '0'/'1' characters,
    six per byte; the bits of column v (its adjacency to 0..v-1) are the
    slice ``bits[v(v-1)/2 : v(v+1)/2]``.  The columns, zero-padded to n
    characters, make an n-by-n string holding the edges uv with u < v
    at v * n + u; its transpose, n stride-n slices, holds those with
    u > v.  Each string read backwards as one binary number has bit
    v * n + u set for those edges, so their OR is the adjacency matrix
    and each row is an n-bit shift of it.  The parser is strict (graph6
    characters only, exact body length, zero padding) and raises
    ``Graph6Error`` otherwise.  ``encode_graph6`` writes the standard
    form back, with the short size header whenever n <= 62
    (``graph6_header``), and without a per-bit loop either: the low part
    of each row, packed into one int, is the body with its bits
    reversed; one ``bytes.translate`` reverses them back, and the body
    is written as base64 digits, six bits each like graph6's, mapped to
    graph6 characters by another translate.  The body encoder,
    ``_graph6_body(n, rows)``, also writes enumeration's canonical keys
    of discrete partitions, which are graph6 bodies in canonical order.

Degree profile
    ``edge_stats`` returns what every index, bound and family test reads:
    the endpoint-degree pair histogram, the degree counts (how many
    vertices have each degree) and the component count.  No field names a
    vertex, so a profile can also be written from degrees alone.
    The histogram is counted per pair of degree classes: the rows of one
    class, packed into one int, are popcounted against the bit set of the
    other, copied into every row's lane.
"""

from __future__ import annotations

from binascii import b2a_base64
from collections import Counter
from typing import Iterator, NamedTuple, Sequence


class Graph6Error(ValueError):
    """Raised on malformed graph6 text."""


class Graph(NamedTuple):
    """Immutable simple graph: ``rows[u]`` is the neighbour bit set of u.

    Invariants (guaranteed by the constructors in this module):
    adjacency is symmetric, the diagonal is zero, and ``m`` equals half
    the total population count of the rows.  As a named tuple it also
    equals the plain tuple ``(n, rows, m)``.
    """

    n: int
    rows: tuple[int, ...]
    m: int

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges (u, v) with u < v, in ascending order."""
        for u in range(self.n):
            rest = self.rows[u] >> (u + 1)
            v = u + 1
            while rest:
                if rest & 1:
                    yield (u, v)
                rest >>= 1
                v += 1


def graph_from_edges(n: int, edges) -> Graph:
    """Build a graph on n vertices from (u, v) pairs.

    Duplicate pairs collapse to one edge.  Loops and out-of-range
    endpoints are rejected.
    """
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop at vertex {u} rejected (simple graphs only)")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows), sum(r.bit_count() for r in rows) // 2)


def _reachable(rows: Sequence[int], start: int) -> int:
    """Bit set of vertices reachable from start (bitset BFS)."""
    seen = 1 << start
    frontier = seen
    while frontier:
        nxt = 0
        f = frontier
        while f:
            v = (f & -f).bit_length() - 1
            nxt |= rows[v]
            f &= f - 1
        frontier = nxt & ~seen
        seen |= frontier
    return seen


def component_count(g: Graph) -> int:
    remaining = (1 << g.n) - 1
    count = 0
    while remaining:
        start = (remaining & -remaining).bit_length() - 1
        remaining &= ~_reachable(g.rows, start)
        count += 1
    return count


def is_connected(g: Graph) -> bool:
    """True iff g has exactly one component (the order-0 graph counts as
    disconnected)."""
    return component_count(g) == 1


class EdgeStats(NamedTuple):
    """Degree profile: everything the indices, bounds and family tests read.

    ``endpoint_degree_counts[(i, j)]`` with i <= j counts edges whose
    endpoint degrees are {i, j}; it sums to m.  ``degree_counts[k]``
    counts the vertices of degree k, isolated ones under 0; it sums to n.
    Both hold only nonzero counts, and no field names a vertex.  The
    histogram fixes every count but that of degree 0: the pair ends at
    degree k, each pair's count taken once per end of degree k, are k
    times ``degree_counts[k]``.  ``components`` is the number of connected
    components; n, m and nu are derived from these.
    """

    endpoint_degree_counts: dict[tuple[int, int], int]
    degree_counts: dict[int, int]
    components: int

    @property
    def n(self) -> int:
        return sum(self.degree_counts.values())

    @property
    def m(self) -> int:
        return sum(self.endpoint_degree_counts.values())

    @property
    def nu(self) -> int:
        """Cyclomatic number, the count of independent cycles:
        m - n + components."""
        return self.m - self.n + self.components


def edge_stats(g: Graph) -> EdgeStats:
    """The degree profile of g.

    With C_j the bit set of the vertices of degree j, the rows of the
    degree-i vertices meet C_j in sum |N(u) & C_j| edge ends: each edge
    between the two classes once when i < j, twice when i == j.  The rows
    of a class are packed n bits apart into one int, so that sum is one
    popcount against C_j copied into every n-bit lane.
    """
    n = g.n
    rows = g.rows
    deg = tuple(map(int.bit_count, rows))
    packed: dict[int, int] = {}  # degree -> the rows of that class
    masks: dict[int, int] = {}  # degree -> bit set of that class
    for v, d in enumerate(deg):
        if d:
            packed[d] = packed.get(d, 0) << n | rows[v]
            masks[d] = masks.get(d, 0) | 1 << v
    ones = ((1 << n * n) - 1) // ((1 << n) - 1) if n > 1 else 0  # 1 in every lane
    classes = sorted(masks)
    lanes = [masks[j] * ones for j in classes]
    by_pair: dict[tuple[int, int], int] = {}
    for a, i in enumerate(classes):
        rows_i = packed[i]
        for b in range(a, len(classes)):
            ends = (rows_i & lanes[b]).bit_count()
            if ends:
                by_pair[(i, classes[b])] = ends if a < b else ends // 2
    return EdgeStats(by_pair, Counter(deg), component_count(g))


# ---------------------------------------------------------------------------
# graph6
#
# Header N(n): one byte n+63 for n <= 62, else '~' followed by three bytes
# holding n in 18 bits, big-endian, 6 bits per byte, each +63.  Body R(x):
# the upper-triangle bits x(0,1), x(0,2), x(1,2), x(0,3), ... taken
# column-by-column, packed 6 per byte MSB-first, zero-padded, each +63.
# ---------------------------------------------------------------------------

GRAPH6_MAX_N = 64


def graph6_header(n: int) -> str:
    """The size header N(n): one byte for n <= 62, else '~' and three."""
    if n <= 62:
        return chr(n + 63)
    return "~" + chr((n >> 12 & 63) + 63) + chr((n >> 6 & 63) + 63) + chr((n & 63) + 63)


# bytes.translate table reversing the bit order within each byte
_REVERSED_BYTE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
# bytes.translate table from base64 digit i to the graph6 character i + 63
_BASE64_TO_GRAPH6 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/", bytes(range(63, 127))
)


def _graph6_body(n: int, rows: Sequence[int]) -> int:
    """The body bits x(0,1), x(0,2), x(1,2), x(0,3), ... of the order-n
    graph with adjacency rows ``rows``, as one binary number, x(0,1) most
    significant.  Only the bits u < v of each row v are read."""
    nbits = n * (n - 1) // 2
    # bit u of row v (u < v) goes to bit v(v-1)/2 + u: the body reversed
    reversed_body = 0
    for v in range(n - 1, 0, -1):
        reversed_body = reversed_body << v | rows[v] & ((1 << v) - 1)
    size = (nbits + 7) // 8
    raw = reversed_body.to_bytes(size, "little").translate(_REVERSED_BYTE)
    return int.from_bytes(raw, "big") >> (8 * size - nbits)


def _graph6_from_body(n: int, body: int) -> str:
    """graph6 text of order n with the given body bits (see
    ``_graph6_body``).  The zero-padded bytes are written as base64, whose
    first ceil(nbits / 6) digits are the body's six-bit groups."""
    nbits = n * (n - 1) // 2
    size = (nbits + 7) // 8
    digits = b2a_base64((body << (8 * size - nbits)).to_bytes(size, "big"), newline=False)
    return graph6_header(n) + digits[: (nbits + 5) // 6].translate(_BASE64_TO_GRAPH6).decode()


def encode_graph6(g: Graph) -> str:
    if g.n > GRAPH6_MAX_N:
        raise ValueError(f"graph6 encoding supported for n <= {GRAPH6_MAX_N}, got n={g.n}")
    return _graph6_from_body(g.n, _graph6_body(g.n, g.rows))


# str.translate table: each graph6 character to its six bits, MSB first
_BITS = {c: format(c - 63, "06b") for c in range(63, 127)}


def parse_graph6(text: str) -> Graph:
    """Parse one graph6 line (strict: exact length, clean padding)."""
    s = text.strip()
    if not s:
        raise Graph6Error("empty graph6 string")
    if min(s) < "?" or max(s) > "~":
        bad = next(ch for ch in s if not "?" <= ch <= "~")
        raise Graph6Error(f"character {bad!r} outside graph6 range")
    if s[0] == "~":  # long-form header
        if len(s) < 4:
            raise Graph6Error("truncated long-form size header")
        n = (ord(s[1]) - 63) << 12 | (ord(s[2]) - 63) << 6 | (ord(s[3]) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    if n > GRAPH6_MAX_N:
        raise Graph6Error(f"n={n} exceeds supported maximum {GRAPH6_MAX_N}")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) != nbytes:
        raise Graph6Error(
            f"body length {len(body)} does not match n={n} (expected {nbytes} bytes)"
        )
    bits = body.translate(_BITS)
    if "1" in bits[nbits:]:
        raise Graph6Error("padding bits beyond the upper triangle are set")
    if not n:
        return Graph(0, (), 0)
    # square[v * n + u] is the bit of edge uv when u < v, else '0', and
    # transpose[v * n + u] the same for u > v; read backwards as binary
    # numbers, both put edge uv at bit v * n + u.
    square = "".join(
        [bits[v * (v - 1) // 2 : v * (v + 1) // 2] + "0" * (n - v) for v in range(n)]
    )
    transpose = "".join([square[u::n] for u in range(n)])
    both = int(square[::-1], 2) | int(transpose[::-1], 2)
    full = (1 << n) - 1
    return Graph(n, tuple([both >> v * n & full for v in range(n)]), bits.count("1"))
