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
    admits one order, the vertex of color c at position c, so its key is
    ``graphs._graph6_body`` of the rows relabeled by color.  Otherwise the
    search is a prefix-pruned backtrack.  Two vertices v, w are twins
    when N(v) - w == N(w) - v (equal open or equal closed neighbourhoods);
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

    Above the middle level (2m > C(n,2)) the key of G is instead the flip
    of its complement's key: with F = 2^C(n,2) - 1, key(G) = F ^ key(co-G)
    for the complement co-G.  This is still a complete invariant.  Every
    bit of an encoding says whether a vertex pair is an edge, so flipping
    them all encodes the complement in the same vertex order: the flipped
    key is the encoding of G in the canonical order of co-G, hence G's
    graph6 body in that order.  Two graphs have equal flipped keys iff
    their complements have equal keys, iff the complements are
    isomorphic, iff the graphs are (a map is an isomorphism of two graphs
    iff it is one of their complements).  Each b_p is flipped within its
    own p bits, so keys of one order still compare as their row tuples,
    and the flip reverses that order: F ^ a < F ^ b iff a > b.

Generation
    At or below the middle level (2m <= C(n,2)) the classes are grown as
    two chains, each from parents of its own kind only, and deduplicated
    by canonical form:

    - all (n, m): the children of all (n, m-1), a child being a parent
      plus one edge; every edge counts.
    - trees, connected (n, n-1): the trees of order n-1 plus a leaf, the
      new vertex n-1, attached at one vertex per orbit of twin swaps.
    - connected (n, m), m >= n: the children of connected (n, m-1); only
      the cycle edges (non-bridges) count.  The new edge closes a cycle,
      and a first-ranked cycle edge is no bridge, so deleting it leaves
      a connected graph.

    The leaf rule misses no tree.  A tree T of order n >= 2 has a leaf x,
    and T - x is a tree of order n-1, isomorphic to some representative P
    by a map f; attaching a leaf to P at f(y), for the neighbour y of x,
    gives a tree isomorphic to T.  A vertex u with a twin w < u is passed
    over: swapping u and w is an automorphism of P that maps the leaf at u
    to the leaf at w, and a descent through smaller twins ends at a vertex
    with none, which is tried.  No rank test applies, so a tree is reached
    from each of its leaves, and the dedupe keeps one.

    In the two edge chains, edges are ranked by the isomorphism invariant
    (endpoint-degree sum d(u) + d(v), triangle count |N(u) & N(v)|, sum of
    the degrees of the endpoints' neighbours), compared in that order, and
    a child is canonicalized only if no child edge that counts outranks
    its new edge (ties pass).  This misses no class.  Let G have m edges
    and e be a first-ranked edge of G among those that count in its chain.
    G - e is in the parent level (for the connected chain by the argument
    above), so it is isomorphic to some representative P there, by a map
    f, and P + f(e) is a child of the kind of G whose new edge f(e) ranks
    as e does: first (a map keeps bridges bridges).  Any automorphism s
    of P maps that child to the child P + s(f(e)), with the same ranks,
    so the test passes for every non-edge of the orbit of f(e) under the
    automorphisms of P.  Of each parent, only one non-edge per orbit of
    its twin swaps is grown: uv is skipped when u or v has a twin w
    smaller than itself other than the opposite endpoint.  Swapping w in
    maps uv to a lexicographically smaller non-edge of the same orbit, so
    the smallest non-edge of each orbit is never skipped.  Deduplication
    stays global, so no child needs to be the only one of its class.

    One rank test serves the two edge chains.  Every other child edge
    keeps its parent endpoint-degree sum or gains 1, so with t the sum of
    the new edge in the child only parent edges of sum t - 1 or more can
    tie with it or beat it.  Each parent's edges are sorted by sum once
    and walked from the largest for every non-edge grown.  Among the
    children of connected parents an edge that stays a bridge of the
    child does not count: a non-bridge of the parent stays one in every
    child, and a parent bridge stays a bridge unless the new edge joins
    its two sides.  An edge on a triangle is no bridge; any other parent
    edge xy is asked whether it is one at most once per parent, by
    ``graphs._reachable`` from x in the parent with xy cut: xy is a bridge
    iff y is not reached, and the reached set is then the side of x.  The
    per-parent memo and the triangle shortcut stay because a search for
    a non-bridge runs through all of x's component: without them the
    connected chains of n = 8 made 75,102 searches instead of 3,659, and
    the sparse cells (n = 4..9, nu = 0..2) took 12% more CPU time and the
    connected chain of n = 9 33% more (Python 3.11, one process).

    A level at or below the middle is the chain of all graphs.  Above the
    middle (2m > C(n,2)) a level is the flips of the keys of level
    C(n,2) - m, taken in descending order so that they ascend.
    Complementation maps the classes with m edges one to one onto those
    with C(n,2) - m edges, so an upper level makes no canonical call.  Its
    connected part is filtered from it: growing the dense connected
    levels edge by edge took 0.92 s against 0.36 s for canonicalizing the
    complements at n = 8 (2 cores, Python 3.11), and the flips cost less
    still.  The chains are cached per (n, m, connected), with False for
    the chain of all graphs, as tuples of keys in ascending canonical
    order, which makes every downstream artifact deterministic regardless
    of worker count; an upper level is flipped again at each call.  With
    more than one worker, a chain level is grown in the process pool of
    min(workers, CPU count) workers, in four chunks per pool worker, once
    it has more than four parents per pool worker.  The process holds one
    pool at a time, started at the first level that needs it and reused by
    every later level and call of the same size; a call of another size
    first joins its workers, so the process never forks while another
    pool's threads run.  Interpreter exit, or ``shutdown_pools``, joins the
    workers of the last one.

Extremal search
    ``extremal_search`` profiles every connected class of a cell once and
    decides its maximizers by ``indices._is_tie`` alone.  The docstring of
    that rule proves it sound for ``so`` and ``sored``: a unique maximizer
    is the one exact maximizer, and no exact tie is missed.  The cell
    confirms h_graph when that maximizer passes ``families.is_h_graph``,
    an exact test of its degree sequence, which only h_graph realizes; the
    maximum is then h_graph's own computed value.

Scope caps: generation covers every n <= 9 and every m (274,668 classes
at n = 9); canonical forms go up to n = 10.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, NamedTuple

from .families import is_h_graph
from .graphs import Graph, _graph6_body, _reachable, edge_stats, is_connected
from .indices import INDEX_FUNCTIONS, _is_tie

CANON_MAX_N = 10
SCOPE_MAX_N = 9

_HUGE = 1 << 70  # larger than any (n-1)-bit row encoding


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
        relabeled = [0] * n
        for v, c in enumerate(colors):
            nb = rows[v]
            while nb:
                low = nb & -nb
                relabeled[c] |= 1 << colors[low.bit_length() - 1]
                nb ^= low
        return _graph6_body(n, relabeled)
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


def _graph_of_key(n: int, key: int) -> Graph:
    """The order-n graph whose packed encoding is key."""
    return Graph(n, _rows_from_key(n, key), key.bit_count())


def canonical_form(g: Graph) -> tuple[int, int]:
    """Permutation-invariant ``(n, key)``; equal iff isomorphic.

    ``key`` is the graph6 body of g in one vertex order: the minimal
    encoding at or below the middle level (2m <= C(n,2)), the flip of the
    complement's key above it.  ``_graph_of_key(n, key)`` is that graph.
    """
    if g.n > CANON_MAX_N:
        raise ValueError(f"canonical form capped at n <= {CANON_MAX_N}, got n={g.n}")
    n = g.n
    slots = n * (n - 1) // 2
    if 2 * g.m <= slots:
        return n, _canonical_key(n, g.rows)
    full = (1 << n) - 1
    complement = tuple(full ^ r ^ 1 << v for v, r in enumerate(g.rows))
    return n, (1 << slots) - 1 ^ _canonical_key(n, complement)


def check_scope(n: int, m: int) -> None:
    """Raise ValueError unless (n, m) is a level generation can build."""
    if n < 0 or m < 0 or m > n * (n - 1) // 2:
        raise ValueError(f"no graphs with n={n}, m={m}")
    if n > SCOPE_MAX_N:
        raise ValueError(f"generation capped at n <= {SCOPE_MAX_N}, got n={n}")


def _trees_of_chunk(args: tuple[int, tuple[int, ...]]) -> set[int]:
    """Canonical keys of the trees of order n that are a parent tree of
    order n - 1 plus a leaf, the new vertex n - 1, attached at each vertex
    with no smaller twin: one vertex per orbit of twin swaps."""
    n, chunk = args
    out: set[int] = set()
    for key in chunk:
        rows = _rows_from_key(n - 1, key)
        twins = _twin_masks(rows)
        for u in range(n - 1):
            if twins[u] & ((1 << u) - 1):
                continue  # swapping u with a smaller twin maps the leaf at u to one there
            grown = [*rows, 1 << u]
            grown[u] |= 1 << (n - 1)
            out.add(_canonical_key(n, tuple(grown)))
    return out


def _children_of_chunk(args: tuple[int, tuple[int, ...], bool]) -> set[int]:
    """Canonical keys of the children of the parent keys whose new edge uv
    ranks first among the child's edges that count, trying one non-edge
    per orbit of twin swaps in each parent.  Every edge counts, except
    that with ``cyclic`` (the parents are connected) only the child's
    non-bridges do.

    The rank of an edge is (endpoint-degree sum, triangle count, sum of
    the endpoints' neighbour degrees).  Every other child edge keeps its
    parent sum or gains 1 (it can share at most one endpoint with uv), so
    with t = d(u) + d(v) + 2 in the child only the parent edges of sum
    t - 1 or more can tie with uv or beat it.  They are walked in order of
    descending sum: one that sums below t in the child is passed over, so
    is one that stays a bridge of the child when bridges do not count,
    one that sums above t rejects uv, and the ties are ranked further.
    """
    n, chunk, cyclic = args
    out: set[int] = set()
    for key in chunk:
        rows = _rows_from_key(n, key)
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
        sides: dict[tuple[int, int], int] = {}  # what x reaches in the parent without xy
        for u in range(n):
            if twins[u] & ((1 << u) - 1):
                continue  # a swap with a smaller twin maps uv to a smaller pair
            for v in range(u + 1, n):
                if rows[u] >> v & 1 or twins[v] & ~(1 << u) & ((1 << v) - 1):
                    continue
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
                            cut = list(rows)
                            cut[x] ^= 1 << y
                            cut[y] ^= 1 << x
                            side = sides[x, y] = _reachable(cut, x)
                        if not side >> y & 1 and not (side >> u ^ side >> v) & 1:
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


_level_cache: dict[tuple[int, int, bool], tuple[int, ...]] = {}
_pools: dict[int, ProcessPoolExecutor] = {}


def _pool(size: int) -> ProcessPoolExecutor:
    """The process's one pool, of ``size`` workers.  A pool of another size
    is shut down and its workers joined before this one starts, since
    forking while that pool's threads run can deadlock the child.
    Interpreter exit joins the workers."""
    pool = _pools.get(size)
    if pool is None:
        shutdown_pools()
        pool = _pools[size] = ProcessPoolExecutor(max_workers=size)
    return pool


def shutdown_pools() -> None:
    """Join the workers of the process's pool, if it has one.  A process
    that ends on a signal must call this first: its forked workers would
    otherwise wait for work forever, as orphans."""
    while _pools:
        _pools.popitem()[1].shutdown(cancel_futures=True)


def _map_chunks(fn: Callable, n: int, keys: tuple[int, ...], workers: int, *flags: bool) -> list:
    """``fn((n, chunk, *flags))`` in the pool of min(workers, CPU count)
    workers, over four chunks of ``keys`` per pool worker, when ``workers``
    > 1 and there are more than four keys per pool worker; else one call
    in this process.  A forked pool starts all of its workers at the first
    task, hence the cap."""
    size = min(workers, os.cpu_count() or 1)
    if workers > 1 and len(keys) > 4 * size:
        step = (len(keys) + 4 * size - 1) // (4 * size)
        chunks = [(n, keys[i : i + step], *flags) for i in range(0, len(keys), step)]
        try:
            return list(_pool(size).map(fn, chunks))
        except BrokenProcessPool:
            del _pools[size]  # the next call starts a fresh pool
            raise
    return [fn((n, keys, *flags))]


def _chain(n: int, m: int, connected: bool, workers: int = 1) -> tuple[int, ...]:
    """Sorted canonical keys of the connected classes (or of all classes)
    with n vertices and m edges, at or below the middle level: trees from
    the trees of order n - 1, every other level from the level m - 1 of
    its own chain.  Cached as (n, m, connected)."""
    if connected and (n == 0 or m < n - 1):
        return ()
    key = (n, m, connected)
    cached = _level_cache.get(key)
    if cached is not None:
        return cached
    if m == 0:
        parts: list[set[int]] = [{0}]
    elif connected and m == n - 1:
        parts = _map_chunks(_trees_of_chunk, n, _chain(n - 1, n - 2, True, workers), workers)
    else:
        parents = _chain(n, m - 1, connected, workers)
        parts = _map_chunks(_children_of_chunk, n, parents, workers, connected)
    result = _level_cache[key] = tuple(sorted(set().union(*parts)))
    return result


def _level(n: int, m: int, workers: int = 1) -> tuple[int, ...]:
    """Sorted canonical keys of all isomorphism classes with n vertices,
    m edges: the chain of all graphs at or below the middle level, the
    flips of the keys of level C(n,2) - m above it."""
    slots = n * (n - 1) // 2
    if 2 * m <= slots:
        return _chain(n, m, False, workers)
    full = (1 << slots) - 1
    return tuple(full ^ k for k in reversed(_level(n, slots - m, workers)))


def all_graphs(n: int, m: int, workers: int = 1) -> list[Graph]:
    """One canonical representative per isomorphism class of (n, m)-graphs,
    in ascending canonical order."""
    check_scope(n, m)
    return [_graph_of_key(n, key) for key in _level(n, m, workers)]


def connected_graphs(n: int, m: int, workers: int = 1) -> list[Graph]:
    """The connected members of ``all_graphs(n, m)``, in the same order."""
    check_scope(n, m)
    if 2 * m > n * (n - 1) // 2:
        return [g for g in all_graphs(n, m, workers=workers) if is_connected(g)]
    return [_graph_of_key(n, key) for key in _chain(n, m, True, workers)]


class ExtremalReport(NamedTuple):
    """Outcome of a brute-force maximum search over one (n, nu) universe.

    ``confirms_h`` is the verdict on the cell: the maximizer is unique and
    ``is_h_graph`` accepts it; every graph whose value ties ``max_value``
    under ``indices._is_tie`` is a maximizer.  For ``so`` and ``sored`` a
    unique maximizer is thus the one exact maximizer (see ``_is_tie``),
    and a second value within the tie tolerance of the maximum fails the
    verdict.  A verdict also confirms a dominating vertex, which h_graph
    has.
    """

    n: int
    nu: int
    universe_size: int
    max_value: float
    maximizers: tuple[Graph, ...]
    runner_up_gap: float
    unique: bool
    confirms_h: bool


def extremal_search(n: int, nu: int, index: str = "so", workers: int = 1) -> ExtremalReport:
    """Exact maximum of an index over connected graphs with n vertices and
    cyclomatic number nu (edge count n-1+nu).  ``index`` is a key of
    ``INDEX_FUNCTIONS``."""
    if not 0 <= nu <= n - 2:
        raise ValueError(f"need 0 <= nu <= n-2, got nu={nu}, n={n}")
    if index not in INDEX_FUNCTIONS:
        raise ValueError(f"unknown index {index!r} (one of {sorted(INDEX_FUNCTIONS)})")
    value_of = INDEX_FUNCTIONS[index]
    universe = connected_graphs(n, n - 1 + nu, workers=workers)
    # each class is profiled once; the first profile of greatest value is
    # kept, as it is the maximizer's when that is unique
    values: list[float] = []
    max_value, top = float("-inf"), None
    for s in map(edge_stats, universe):
        values.append(value_of(s))
        if values[-1] > max_value:
            max_value, top = values[-1], s
    maximizers = tuple(g for g, v in zip(universe, values) if _is_tie(v, max_value))
    rest = [v for v in values if not _is_tie(v, max_value)]
    runner_up_gap = max_value - max(rest) if rest else float("inf")
    unique = len(maximizers) == 1
    return ExtremalReport(
        n=n,
        nu=nu,
        universe_size=len(universe),
        max_value=max_value,
        maximizers=maximizers,
        runner_up_gap=runner_up_gap,
        unique=unique,
        confirms_h=unique and is_h_graph(top),
    )
