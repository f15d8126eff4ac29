"""Isomorph-free generation of small graphs and brute-force extremal search.

Canonical form
    The canonical form of a graph is the lexicographically smallest
    row-by-row adjacency encoding over all vertex orders that list the
    cells of an iterated degree-refinement partition in ascending color
    order.  The refinement keys are graph-invariant, so the constrained
    minimum is reached by isomorphic graphs and only by them: equal forms
    iff isomorphic.  Refinement stops as soon as every vertex has its own
    color, because a further round leads every key with the current
    color and so cannot reorder a discrete partition; such a partition
    admits one order, which is encoded directly.  Otherwise the search is
    a prefix-pruned backtrack.  Two vertices v, w are twins when
    N(v) - w == N(w) - v (equal open or equal closed neighbourhoods);
    swapping them is an automorphism that fixes every other vertex.  So
    once a candidate u has been tried at a position, a later candidate
    that is a twin of u is skipped: with the placed prefix fixed by the
    swap, its subtree is the image of u's and yields the same encodings,
    so the minimum is unchanged.  A star or a complete graph then costs a
    single root-to-leaf path.  Walking every admissible order stays
    costly only for twin-free graphs with large automorphism groups that
    refinement cannot split, such as cycles; the order cap of 10 vertices
    keeps that feasible.

    The encoding is one int, the key: b_1, ..., b_{n-1} concatenated with
    b_1 most significant, where b_p holds the adjacency of the vertex at
    position p to positions 0..p-1, position 0 most significant.  Each
    b_p has exactly p bits, so keys of one order compare as the tuples
    (b_1, ..., b_{n-1}) do, and the key is the graph6 body of the graph
    in canonical order (column p of the upper triangle is b_p).

Generation
    At or below the middle level (2m <= C(n,2)) the classes of an order
    are grown edge by edge as two disjoint chains, each from parents of
    its own kind: the children of a level are its representatives plus
    one edge, deduplicated by canonical form.  Edges are ranked by the
    isomorphism invariant (endpoint-degree sum d(u) + d(v), triangle
    count |N(u) & N(v)|, sum of the degrees of the endpoints'
    neighbours), compared in that order, and a child is canonicalized
    only if no child edge that counts outranks its new edge (ties pass):

    - disconnected (n, m): the children of disconnected (n, m-1) that stay
      disconnected, i.e. all but those whose parent has two components
      that the new edge joins; every edge counts.  Deleting any edge of a
      disconnected graph leaves it disconnected.
    - trees, connected (n, n-1): the children of disconnected (n, n-2)
      whose new edge joins its two components; every edge counts.  Every
      tree edge is a bridge, and a tree minus an edge is a two-component
      forest.
    - connected (n, m), m >= n: the children of connected (n, m-1); only
      the cycle edges (non-bridges) count.  The new edge closes a cycle,
      and a first-ranked cycle edge is no bridge, so deleting it leaves
      a connected graph.

    This misses no class.  Let G have m edges and e be a first-ranked
    edge of G among those that count in its chain.  By the arguments
    above, G - e is in the parent chain, so it is isomorphic to some
    representative P there, by a map f, and P + f(e) is a child of the
    kind of G whose new edge f(e) ranks as e does: first (a map keeps
    bridges bridges).  Any automorphism s of P maps that child to the
    child P + s(f(e)), with the same ranks, so the test passes for every
    non-edge of the orbit of f(e) under the automorphisms of P.  Of each
    parent, only one non-edge per orbit of its twin swaps is grown: uv
    is skipped when u or v has a twin w smaller than itself other than
    the opposite endpoint.  Swapping w in maps uv to a lexicographically
    smaller non-edge of the same orbit, so the smallest non-edge of each
    orbit is never skipped.  Deduplication stays global, so no child
    needs to be the only one of its class.

    One rank test serves the three chains.  Every other child edge
    keeps its parent endpoint-degree sum or gains 1, so with t the sum of
    the new edge in the child only parent edges of sum t - 1 or more can
    tie with it or beat it.  Each parent's edges are sorted by sum once
    and walked from the largest for every non-edge grown.  Among the
    children of connected parents an edge that stays a bridge of the
    child does not count: a non-bridge of the parent stays one in every
    child, and a parent bridge stays a bridge unless the new edge joins
    its two sides.  An edge on a triangle is no bridge; any other parent
    edge is asked whether it is one at most once, by a bitset search that
    stops when it meets the other endpoint.

    A level at or below the middle is the union of its two chains.
    Above the middle (2m > C(n,2)) a level is the canonical forms of the
    complements of level C(n,2) - m, and its connected part is filtered
    from it: growing the dense connected levels edge by edge took 0.92 s
    against 0.36 s for the complements at n = 8 (2 cores, Python 3.11).
    The chains are cached per (n, m, connected) and the upper levels per
    (n, m), as tuples of keys in ascending canonical order, which makes
    every downstream artifact deterministic regardless of worker count.  With more than
    one worker, a level with more than four parents (or complements) per
    worker is built in chunks by one process pool per worker count:
    children below the middle, complement forms above it.  The pool is
    started at the first level that needs it and reused by every later
    level and call in the process; interpreter exit, or
    ``shutdown_pools``, joins its workers.

Scope caps: generation covers every n <= 9 and every m (274,668 classes
at n = 9); canonical forms go up to n = 10.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable

from .families import h_graph, is_h_graph, max_reduced_sombor_value, max_sombor_value
from .graphs import Graph, _reachable, is_connected, max_degree
from .indices import _is_tie, edge_sum, reduced_sombor, sombor

CANON_MAX_N = 10
SCOPE_MAX_N = 9

UNIQUENESS_GAP = 1e-6

_HUGE = 1 << 70  # larger than any (n-1)-bit row encoding


class AmbiguousMaximumError(RuntimeError):
    """A single maximizer was found but the runner-up gap is too small to
    distinguish from a float tie; the run refuses to claim uniqueness."""


def _wl_partition(n: int, rows: tuple[int, ...]) -> list[int]:
    """Iterated neighbour-degree refinement; returns invariant color ints.

    Stops once the colors are stable or every vertex has its own color:
    a further round cannot reorder a discrete partition, because the
    current color leads every refinement key.
    """
    colors = [rows[v].bit_count() for v in range(n)]
    ncolors = len(set(colors))
    while True:
        keys = []
        for v in range(n):
            nb = rows[v]
            sig = []
            while nb:
                sig.append(colors[(nb & -nb).bit_length() - 1])
                nb &= nb - 1
            sig.sort()
            keys.append((colors[v], tuple(sig)))
        palette = {k: i for i, k in enumerate(sorted(set(keys)))}
        colors = [palette[k] for k in keys]
        if len(palette) == ncolors or len(palette) == n:
            return colors
        ncolors = len(palette)


def _twin_masks(rows: tuple[int, ...]) -> list[int]:
    """Bitmask per vertex of its twins: the w with N(v) - w == N(w) - v,
    i.e. equal open rows (false twins) or equal closed rows (true twins)."""
    by_open: dict[int, int] = {}
    by_closed: dict[int, int] = {}
    for v, row in enumerate(rows):
        bit = 1 << v
        by_open[row] = by_open.get(row, 0) | bit
        by_closed[row | bit] = by_closed.get(row | bit, 0) | bit
    return [by_open[row] | by_closed[row | 1 << v] for v, row in enumerate(rows)]


def _canonical_key(n: int, rows: tuple[int, ...]) -> int:
    """Minimal packed row-bits encoding b_1..b_{n-1} over admissible orders.

    b_p holds the adjacency of the vertex at position p to positions
    0..p-1, earliest position as most significant bit; the key is their
    concatenation, b_1 most significant.
    """
    if n <= 1:
        return 0
    colors = _wl_partition(n, rows)
    if max(colors) == n - 1:  # discrete: color c is the vertex at position c
        order = [0] * n
        for v, c in enumerate(colors):
            order[c] = v
        key = 0
        earlier = 1 << order[0]
        for p in range(1, n):
            v = order[p]
            nb = rows[v] & earlier
            b = 0
            while nb:
                low = nb & -nb
                b |= 1 << (p - 1 - colors[low.bit_length() - 1])
                nb ^= low
            key = key << p | b
            earlier |= 1 << v
        return key
    cells: dict[int, list[int]] = {}
    for v in range(n):
        cells.setdefault(colors[v], []).append(v)
    pos_color = sorted(colors)
    best = [_HUGE] * (n - 1)
    placed = [0] * n
    used = [False] * n
    twins = _twin_masks(rows)

    def extend(p: int) -> None:
        if p == n:
            return
        cands = []
        for v in cells[pos_color[p]]:
            if not used[v]:
                row = rows[v]
                b = 0
                for j in range(p):
                    b = b << 1 | (row >> placed[j] & 1)
                cands.append((b, v))
        cands.sort()
        tried = 0  # twins of the candidates already tried here
        for b, v in cands:
            if p and b > best[p - 1]:
                break
            if tried >> v & 1:
                continue
            if p and b < best[p - 1]:
                best[p - 1] = b
                for i in range(p, n - 1):
                    best[i] = _HUGE
            used[v] = True
            placed[p] = v
            extend(p + 1)
            used[v] = False
            tried |= twins[v]

    extend(0)
    key = 0
    for p, b in enumerate(best, start=1):
        key = key << p | b
    return key


def _rows_from_key(n: int, key: int) -> tuple[int, ...]:
    """Adjacency rows of the order-n graph whose packed encoding is key."""
    rows = [0] * n
    shift = n * (n - 1) // 2
    for p in range(1, n):
        shift -= p
        b = key >> shift & ((1 << p) - 1)
        while b:
            low = b & -b
            j = p - low.bit_length()
            rows[p] |= 1 << j
            rows[j] |= 1 << p
            b ^= low
    return tuple(rows)


@dataclass(frozen=True, order=True, slots=True)
class CanonicalForm:
    """Permutation-invariant adjacency encoding; equal iff isomorphic."""

    n: int
    key: int

    def to_graph(self) -> Graph:
        return Graph(self.n, _rows_from_key(self.n, self.key), self.key.bit_count())


def canonical_form(g: Graph) -> CanonicalForm:
    if g.n > CANON_MAX_N:
        raise ValueError(f"canonical form capped at n <= {CANON_MAX_N}, got n={g.n}")
    return CanonicalForm(g.n, _canonical_key(g.n, g.rows))


def check_scope(n: int, m: int) -> None:
    """Raise ValueError unless (n, m) is a level generation can build."""
    if n < 0 or m < 0 or m > n * (n - 1) // 2:
        raise ValueError(f"no graphs with n={n}, m={m}")
    if n > SCOPE_MAX_N:
        raise ValueError(f"generation capped at n <= {SCOPE_MAX_N}, got n={n}")


def _two_component_split(rows: tuple[int, ...]) -> int:
    """The vertex set of one of the two components of a graph with
    exactly two, else 0."""
    n = len(rows)
    side = _reachable(rows, n - 1)
    rest = (1 << n) - 1 ^ side
    if not rest:
        return 0
    if rest & (rest - 1) == 0:  # one vertex apart
        return side
    return side if _reachable(rows, (rest & -rest).bit_length() - 1) == rest else 0


def _bridge_side(rows: tuple[int, ...], x: int, y: int) -> int:
    """The vertices that x reaches without the edge xy when xy is a
    bridge, else 0, by a bitset search from x that stops once it meets y."""
    seen = 1 << x
    frontier = rows[x] ^ 1 << y
    while frontier:
        seen |= frontier
        nxt = 0
        while frontier:
            nxt |= rows[(frontier & -frontier).bit_length() - 1]
            frontier &= frontier - 1
        if nxt >> y & 1:
            return 0
        frontier = nxt & ~seen
    return seen


def _children_of_chunk(args: tuple[int, tuple[int, ...], bool, bool]) -> set[int]:
    """Canonical keys of the children of the parent keys that are
    ``connected`` (or not) and whose new edge uv ranks first among the
    child's edges that count, trying one non-edge per orbit of twin swaps
    in each parent.  Every edge counts, except that with ``cyclic`` (the
    parents are connected) only the child's non-bridges do.  A child of a
    disconnected parent is connected iff the parent has two components
    and uv joins them.

    The rank of an edge is (endpoint-degree sum, triangle count, sum of
    the endpoints' neighbour degrees).  Every other child edge keeps its
    parent sum or gains 1 (it can share at most one endpoint with uv), so
    with t = d(u) + d(v) + 2 in the child only the parent edges of sum
    t - 1 or more can tie with uv or beat it.  They are walked in order of
    descending sum: one that sums below t in the child is passed over, so
    is one that stays a bridge of the child when bridges do not count,
    one that sums above t rejects uv, and the ties are ranked further.
    """
    n, chunk, cyclic, connected = args
    out: set[int] = set()
    for key in chunk:
        rows = _rows_from_key(n, key)
        # n vertices and m edges make at least n - m components
        split = 0 if cyclic or n - key.bit_count() > 2 else _two_component_split(rows)
        if connected and not (cyclic or split):
            continue  # no child of this parent is connected
        deg = [r.bit_count() for r in rows]
        nsum = [0] * n  # the sum of each vertex's neighbours' degrees
        edges = []  # (endpoint-degree sum, x, y), largest sum first
        for x in range(n):
            for y in range(x + 1, n):
                if rows[x] >> y & 1:
                    edges.append((deg[x] + deg[y], x, y))
                    nsum[x] += deg[y]
                    nsum[y] += deg[x]
        edges.sort(reverse=True)
        twins = _twin_masks(rows)
        sides: dict[tuple[int, int], int] = {}  # _bridge_side of the parent edges asked about
        for u in range(n):
            if twins[u] & ((1 << u) - 1):
                continue  # a swap with a smaller twin maps uv to a smaller pair
            for v in range(u + 1, n):
                if rows[u] >> v & 1 or twins[v] & ~(1 << u) & ((1 << v) - 1):
                    continue
                if split and (split >> u ^ split >> v) & 1 != connected:
                    continue  # uv joins the two components iff the child is to be connected
                t = deg[u] + deg[v] + 2
                ends = 1 << u | 1 << v
                tied: list[tuple[int, int]] | None = []
                for s, x, y in edges:
                    if s < t - 1:
                        break
                    s += (ends >> x | ends >> y) & 1  # the sum in the child
                    if s < t:
                        continue
                    if cyclic and not rows[x] & rows[y]:  # one on a triangle is no bridge
                        side = sides.get((x, y))
                        if side is None:
                            side = sides[x, y] = _bridge_side(rows, x, y)
                        if side and not (side >> u ^ side >> v) & 1:
                            continue  # a bridge of the child
                    if s > t:
                        tied = None
                        break
                    tied.append((x, y))
                if tied is None:
                    continue  # outranked on the sum
                grown = list(rows)
                grown[u] |= 1 << v
                grown[v] |= 1 << u
                if tied and _outranking(rows, grown, deg, nsum, u, v, tied):
                    continue
                out.add(_canonical_key(n, tuple(grown)))
    return out


def _outranking(
    rows: tuple[int, ...],
    grown: list[int],
    deg: list[int],
    nsum: list[int],
    u: int,
    v: int,
    rivals: list[tuple[int, int]],
) -> bool:
    """Whether a child edge of ``rivals`` (all tied with the new edge uv
    on the degree sum) has more triangles than uv in the child
    ``grown``, or as many and a larger sum of its endpoints' neighbour
    degrees.  ``deg`` and ``nsum`` are the parent's degrees and
    neighbour-degree sums; in the child u and v each gain one neighbour
    and one degree."""
    ends = 1 << u | 1 << v

    def child_nsum(w: int) -> int:
        gained = deg[u + v - w] + 1 if ends >> w & 1 else 0
        return nsum[w] + (rows[w] & ends).bit_count() + gained

    triangles = (rows[u] & rows[v]).bit_count()
    mine = -1
    for x, y in rivals:
        theirs = (grown[x] & grown[y]).bit_count()
        if theirs > triangles:
            return True
        if theirs == triangles:
            if mine < 0:
                mine = child_nsum(u) + child_nsum(v)
            if child_nsum(x) + child_nsum(y) > mine:
                return True
    return False


def _complement_keys(args: tuple[int, tuple[int, ...]]) -> list[int]:
    """Canonical keys of the complements of the given keys."""
    n, chunk = args
    full = (1 << n) - 1
    out = []
    for key in chunk:
        rows = _rows_from_key(n, key)
        out.append(_canonical_key(n, tuple(full ^ r ^ 1 << v for v, r in enumerate(rows))))
    return out


_level_cache: dict[tuple, tuple[int, ...]] = {}
_pools: dict[int, ProcessPoolExecutor] = {}


def _pool(workers: int) -> ProcessPoolExecutor:
    """The process's one pool of ``workers`` workers, started on first use.
    Interpreter exit joins its workers."""
    pool = _pools.get(workers)
    if pool is None:
        pool = _pools[workers] = ProcessPoolExecutor(max_workers=workers)
    return pool


def shutdown_pools() -> None:
    """Join the workers of every pool this process started.  A process
    that ends on a signal must call this first: its forked workers would
    otherwise wait for work forever, as orphans."""
    while _pools:
        _pools.popitem()[1].shutdown(cancel_futures=True)


def _map_chunks(fn: Callable, n: int, keys: tuple[int, ...], workers: int, *flags: bool) -> list:
    """``fn((n, chunk, *flags))`` over chunks of ``keys``, in the pool when
    there are more than four keys per worker, else one call in this
    process."""
    if workers > 1 and len(keys) > 4 * workers:
        step = (len(keys) + 4 * workers - 1) // (4 * workers)
        chunks = [(n, keys[i : i + step], *flags) for i in range(0, len(keys), step)]
        try:
            return list(_pool(workers).map(fn, chunks))
        except BrokenProcessPool:
            del _pools[workers]  # the next call starts a fresh pool
            raise
    return [fn((n, keys, *flags))]


def _chain(n: int, m: int, connected: bool, workers: int = 1) -> tuple[int, ...]:
    """Sorted canonical keys of the connected (or the disconnected)
    classes with n vertices and m edges, at or below the middle level.
    Cached as (n, m, connected)."""
    if connected and (n == 0 or m < n - 1):
        return ()
    key = (n, m, connected)
    cached = _level_cache.get(key)
    if cached is not None:
        return cached
    if m == 0:
        result: tuple[int, ...] = (0,) if connected == (n == 1) else ()
    else:
        cyclic = connected and m >= n  # trees grow from two-component forests
        parents = _chain(n, m - 1, cyclic, workers)
        parts = _map_chunks(_children_of_chunk, n, parents, workers, cyclic, connected)
        result = tuple(sorted(set().union(*parts)))
    _level_cache[key] = result
    return result


def _level(n: int, m: int, workers: int = 1) -> tuple[int, ...]:
    """Sorted canonical keys of all isomorphism classes with n vertices,
    m edges: the union of the two chains at or below the middle level,
    the complements of a lower level above it (cached as (n, m))."""
    slots = n * (n - 1) // 2
    if 2 * m <= slots:
        return tuple(sorted(_chain(n, m, True, workers) + _chain(n, m, False, workers)))
    key = (n, m)
    cached = _level_cache.get(key)
    if cached is None:
        parts = _map_chunks(_complement_keys, n, _level(n, slots - m, workers), workers)
        cached = _level_cache[key] = tuple(sorted(k for part in parts for k in part))
    return cached


def all_graphs(n: int, m: int, workers: int = 1) -> list[Graph]:
    """One canonical representative per isomorphism class of (n, m)-graphs,
    in ascending canonical order."""
    check_scope(n, m)
    return [CanonicalForm(n, key).to_graph() for key in _level(n, m, workers)]


def connected_graphs(n: int, m: int, workers: int = 1) -> list[Graph]:
    """The connected members of ``all_graphs(n, m)``, in the same order."""
    check_scope(n, m)
    if 2 * m > n * (n - 1) // 2:
        return [g for g in all_graphs(n, m, workers=workers) if is_connected(g)]
    return [CanonicalForm(n, key).to_graph() for key in _chain(n, m, True, workers)]


INDEX_FUNCTIONS: dict[str, Callable[[Graph], float]] = {
    "so": sombor,
    "sored": reduced_sombor,
}

# the maximum of each named index over a cell, attained by h_graph(n, nu)
CLOSED_FORMS: dict[str, Callable[[int, int], float]] = {
    "so": max_sombor_value,
    "sored": max_reduced_sombor_value,
}


@dataclass(frozen=True, slots=True)
class ExtremalReport:
    """Outcome of a brute-force maximum search over one (n, nu) universe.

    ``max_degree_all_maximizers`` is the smallest maximum degree among the
    maximizers; it equals n-1 exactly when every maximizer has a
    dominating vertex.  ``confirms_h`` is the verdict on the cell: the
    maximizer is unique, ``is_h_graph`` accepts it, and ``max_value``
    ties the closed form under ``indices._is_tie`` (for a callable term,
    the term's value on h_graph); every graph whose value ties
    ``max_value`` is a maximizer.  Two more checks follow from it: h_graph
    has a dominating vertex, and a unique maximizer whose runner-up gap is
    at most ``UNIQUENESS_GAP`` raises ``AmbiguousMaximumError`` instead.
    """

    n: int
    nu: int
    index: str
    universe_size: int
    max_value: float
    maximizers: tuple[Graph, ...]
    runner_up_gap: float
    unique: bool
    max_degree_all_maximizers: int
    confirms_h: bool


def extremal_search(
    n: int,
    nu: int,
    index: str | Callable[[int, int], float] = "so",
    workers: int = 1,
) -> ExtremalReport:
    """Exact maximum of an index over connected graphs with n vertices and
    cyclomatic number nu (edge count n-1+nu).

    ``index`` is "so", "sored", or a symmetric edge-term function of the
    two endpoint degrees.
    """
    if not 0 <= nu <= n - 2:
        raise ValueError(f"need 0 <= nu <= n-2, got nu={nu}, n={n}")
    if callable(index):
        term = index
        value_of = lambda g: edge_sum(g, term)  # noqa: E731
        label = getattr(index, "__name__", "custom")
        expected = value_of(h_graph(n, nu))
    else:
        if index not in INDEX_FUNCTIONS:
            raise ValueError(f"unknown index {index!r} (one of {sorted(INDEX_FUNCTIONS)})")
        value_of = INDEX_FUNCTIONS[index]
        label = index
        expected = CLOSED_FORMS[index](n, nu)
    universe = connected_graphs(n, n - 1 + nu, workers=workers)
    values = [value_of(g) for g in universe]
    max_value = max(values)
    maximizers = tuple(g for g, v in zip(universe, values) if _is_tie(v, max_value))
    rest = [v for v in values if not _is_tie(v, max_value)]
    runner_up_gap = max_value - max(rest) if rest else float("inf")
    unique = len(maximizers) == 1
    if unique and runner_up_gap <= UNIQUENESS_GAP:
        raise AmbiguousMaximumError(
            f"n={n}, nu={nu}, index={label}: runner-up gap {runner_up_gap:.3e} "
            f"is below {UNIQUENESS_GAP:.0e}; refusing to claim a unique maximizer"
        )
    confirms_h = unique and is_h_graph(maximizers[0]) and _is_tie(expected, max_value)
    return ExtremalReport(
        n=n,
        nu=nu,
        index=label,
        universe_size=len(universe),
        max_value=max_value,
        maximizers=maximizers,
        runner_up_gap=runner_up_gap,
        unique=unique,
        max_degree_all_maximizers=min(max_degree(g) for g in maximizers),
        confirms_h=confirms_h,
    )
