"""Immutable simple graphs with bitset adjacency, patterns, and induced-copy counting.

Vertices are dense 0-based integers.  A vertex set is a plain Python int
used as a bitmask over 0..n-1; helpers below convert to and from sorted
id lists.  Certificates elsewhere in the package always speak host-graph
ids, translating through the index map returned by :func:`induced_subgraph`
with :func:`lift`.

A graph is checked once, where it enters: ``Graph(n, adj)`` checks its
rows in full, and the three builders whose rows are valid by construction
(:func:`complement`, :func:`induced_subgraph`, the clean loader
:func:`_clean_edge_list`) skip the check through :func:`_derived`, each
proving its rows in its docstring.  The symmetry check, and the
relabelling of :func:`induced_subgraph`, transpose the rows as one packed
bit matrix (:func:`_transpose`) while :func:`_packs` allows it, else take
one step per edge; so a graph costs time and memory linear in n plus its
rows' bits.

Edge lists are read by :func:`load_graph_text`: one fast pass for clean
text, in windows of a fixed number of characters, with one table lookup
per edge (a window with an id past the table runs the range check and
shifts; the table holds about as many bytes as the text at most), and
otherwise the line parser :func:`from_edge_list`, one line at a time and
the one source of parse errors.  The per-vertex counts (:func:`with_at_least`,
:func:`degree_range`) and :func:`mask_to_ids` on a dense mask run as C-level
``compress`` and ``map`` kernels, with no Python step per vertex.

A *copy* of a pattern H in G is an injective map phi from the pattern
vertices into V(G) that preserves both adjacency and non-adjacency;
:func:`count_induced_copies` counts them as |Aut(H)| times the vertex
sets inducing H, by the way of least predicted work (:func:`plan`): a
closed form, :mod:`rpt.fourvertex` or :mod:`rpt.fivepath` on G or its
complement, or the backtracker under symmetry-breaking order constraints,
which :func:`count_embeddings_into_parts` shares without constraints.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress, islice, repeat
from math import isqrt


class GraphParseError(ValueError):
    """Malformed graph input; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def mask_from_ids(ids) -> int:
    m = 0
    for v in ids:
        m |= 1 << v
    return m


def mask_to_ids(mask: int) -> list[int]:
    """The vertices of ``mask``, in increasing order.  A dense mask is read
    by one ``compress`` over its binary digits (:func:`_above`); a sparse
    one a bit at a time from the top, then reversed.  Each such step drops
    the top bit, so the int shrinks as it goes, where a step from the
    bottom would copy all of a wide row."""
    if mask.bit_count() << 4 > mask.bit_length():
        return list(_above(mask, -1, mask.bit_length()))
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    out.reverse()
    return out


def iter_bits(mask: int):
    return iter(mask_to_ids(mask))


# bin() digits "0"/"1" as the false/true selector bytes of itertools.compress
_SELECTORS = bytes.maketrans(b"01", b"\0\1")


def _digits(mask: int) -> bytes:
    """One ``compress`` selector byte per vertex 0..bit_length-1 of ``mask``."""
    return bin(mask)[:1:-1].encode().translate(_SELECTORS)


def _above(row: int, u: int, n: int):
    """The vertices v > u of ``row`` (v < n), in increasing order: one
    ``compress`` over the reversed binary digits, no Python step per bit."""
    return compress(range(u + 1, n), _digits(row >> (u + 1)))


def _width(n: int) -> int:
    """Side of the packed bit matrix for n vertices: a power of two >= max(8, n)."""
    return max(8, 1 << (n - 1).bit_length())


def _pack(rows, w: int) -> int:
    """Rows of at most w bits each, packed row-major: row r at bits [r*w, (r+1)*w)."""
    data = b"".join(map(int.to_bytes, rows, repeat(w // 8), repeat("little")))
    return int.from_bytes(data, "little")


# The masks of one width take w**2 log2(w) / 8 bytes: 1.25 MiB at w = 1024,
# 24 MiB at 4096.  Only widths up to this one stay cached between calls;
# a wider transpose builds each mask as its swap needs it.
_CACHED_WIDTH = 1024


def _swap_mask_iter(w: int):
    """Yield the (shift, mask) of each delta swap of :func:`_transpose` at width w.

    Swap j exchanges bit (r, c) with bit (r + j, c - j), which sits
    s = j*(w-1) places higher, wherever bit j of r is 0 and bit j of c is 1;
    the mask marks those (r, c).  Rows are byte-aligned because w >= 8.
    """
    step = w // 8
    j = 1
    while j < w:
        if j < 8:
            row = bytes([{1: 0xAA, 2: 0xCC, 4: 0xF0}[j]]) * step
        else:
            row = (bytes(j // 8) + b"\xff" * (j // 8)) * (w // (2 * j))
        block = row * j + bytes(step * j)
        yield j * (w - 1), int.from_bytes(block * (w // (2 * j)), "little")
        j *= 2


@lru_cache(maxsize=8)
def _swap_masks(w: int) -> tuple[tuple[int, int], ...]:
    return tuple(_swap_mask_iter(w))


def _transpose(x: int, w: int) -> int:
    """Transpose of a w x w bit matrix packed row-major into ``x``.

    Bit (r, c) sits at r*w + c, and w is a power of two >= 8.  Each of the
    log2(w) delta swaps (Warren, *Hacker's Delight*, section 7-3) exchanges
    the off-diagonal j x j blocks of every 2j x 2j diagonal block; together
    they move (r, c) to (c, r).
    """
    masks = _swap_masks(w) if w <= _CACHED_WIDTH else _swap_mask_iter(w)
    for s, m in masks:
        t = ((x >> s) ^ x) & m
        x ^= t ^ (t << s)
    return x


# The packed matrix is used only while its w**2 bits are at most this many
# times the bits of the rows it packs, and at most 8 times this many times
# the rows' set bits (their edges).  On a 2-CPU x86-64 host with CPython
# 3.11, a step per edge takes about 400 ns and the swaps about 3 ns per
# matrix bit at w >= 256, so the second bound, 128 matrix bits per edge, is
# where the two cost about the same; the first keeps memory linear in the
# rows' bits.  A sparse row with one high neighbour has a long bit length
# and few set bits: only the second bound sends such graphs to the steps.
_PACK_RATIO = 16


def _packs(rows, w: int) -> bool:
    """Does the w x w matrix of ``rows`` stay within :data:`_PACK_RATIO`
    times the rows' own bits, and within 8 times that ratio per set bit?
    The one rule between packing and a step per edge, for the symmetry
    check, the loader's mirror and relabelling."""
    return w * w <= _PACK_RATIO * min(
        sum(map(int.bit_length, rows)), 8 * sum(map(int.bit_count, rows))
    )


def _transposed_rows(rows: list[int], w: int, ids) -> list[int]:
    """Rows ``ids`` of the transpose of the w x w bit matrix whose first
    rows are ``rows`` (the rest zero): row v holds bit r wherever rows[r]
    holds bit v.  Packed and transposed when :func:`_packs` allows it, else
    one step per set bit."""
    if _packs(rows, w):
        step = w // 8
        data = _transpose(_pack(rows, w), w).to_bytes(w * step, "little")
        return [int.from_bytes(data[v * step : v * step + step], "little") for v in ids]
    cols = [0] * w
    for r in compress(range(len(rows)), rows):
        for v in iter_bits(rows[r]):
            cols[v] |= 1 << r
    return [cols[v] for v in ids]


@dataclass(frozen=True)
class Graph:
    """Simple graph: ``adj[v]`` is the neighbor bitmask of vertex v."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0 or len(self.adj) != self.n:
            raise ValueError("adjacency length must equal vertex count")
        adj = self.adj
        n = self.n
        # Rows from ``last`` on are zero and pass every check; finding them
        # takes no Python-level step per row.
        last = bytes(map(bool, adj)).rfind(1) + 1
        for v, row in enumerate(islice(adj, last)):
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            if row >> n:
                raise ValueError(f"adjacency row {v} mentions out-of-range vertices")
        # k is 1 + the highest vertex that has, or is, a neighbour.
        k = max(last, max(map(int.bit_length, islice(adj, last)), default=0))
        # Symmetric iff the packed matrix equals its transpose.  The scan
        # below runs when they differ, to name the first asymmetric pair, and
        # in place of the matrix when :func:`_packs` refuses it.  Rows from k
        # on are zero and no row has a bit at k or above, so rows[:k] suffice.
        rows = adj[:k]
        w = _width(k)
        if _packs(rows, w):
            packed = _pack(rows, w)
            if _transpose(packed, w) == packed:
                return
        for v in range(k):
            for u in iter_bits(adj[v]):
                if not adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop edge ({u},{v})")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if rows[u] >> v & 1:
                raise ValueError(f"duplicate edge ({u},{v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows))

    @staticmethod
    def empty(n: int) -> "Graph":
        return Graph(n, tuple([0] * n))

    @staticmethod
    def complete(n: int) -> "Graph":
        full = (1 << n) - 1
        return Graph(n, tuple(full ^ (1 << v) for v in range(n)))

    @staticmethod
    def path(n: int) -> "Graph":
        return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @staticmethod
    def cycle(n: int) -> "Graph":
        if n < 3:
            raise ValueError("cycles need at least 3 vertices")
        return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] & (1 << v))

    def edges(self) -> list[tuple[int, int]]:
        adj, n = self.adj, self.n
        return [(u, v) for u in compress(range(n), adj) for v in _above(adj[u], u, n)]

    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.adj)) // 2

    def edges_inside(self, mask: int) -> int:
        return sum(_counts(self.adj, mask, mask)) // 2

    def edges_between(self, a: int, b: int) -> int:
        if a & b:
            raise ValueError("edges_between requires disjoint sets")
        return sum(_counts(self.adj, a, b))


def _derived(n: int, adj: tuple[int, ...]) -> Graph:
    """A Graph on rows valid by construction, without ``Graph.__post_init__``'s
    check: only for :func:`complement`, :func:`induced_subgraph`, :func:`_clean_edge_list`."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", adj)
    return g


def _counts(adj, s: int, t: int):
    """The neighbours in t of each vertex of s, in increasing order, by C-level maps."""
    if s >> len(adj):
        raise ValueError("vertex set out of range")
    return map(int.bit_count, map(t.__and__, compress(adj, _digits(s))))


def with_at_least(g: Graph, s: int, t: int, k: int) -> int:
    """The vertices of s that have at least k neighbours in t.

    This is the one per-vertex count of neighbours in a set: a caller with
    a rational bound rounds it to the integer k once (a count c has c >= x
    iff c >= ceil(x)), and reads a bound on non-neighbours as |t| - c.
    """
    return mask_from_ids(compress(iter_bits(s), map(k.__le__, _counts(g.adj, s, t))))


def degree_range(g: Graph, s: int) -> tuple[int, int]:
    """The least and the largest degree in G[s], over a nonempty s."""
    degrees = list(_counts(g.adj, s, s))
    return min(degrees), max(degrees)


def complement(g: Graph) -> Graph:
    """The complement of G, valid because G is: row v holds the u != v
    below n that G's row v misses, and u misses v iff v misses u."""
    full = g.full_mask
    return _derived(g.n, tuple((full ^ row) & ~(1 << v) for v, row in enumerate(g.adj)))


def induced_subgraph(g: Graph, mask: int) -> tuple[Graph, list[int]]:
    """Subgraph induced by ``mask`` plus the new-id -> host-id map.

    The kept rows, cut to ``mask``, are packed as rows 0..k-1 and
    transposed once: row v of the transpose holds the new ids of v's kept
    neighbours, so by symmetry the transpose's rows at the kept ids are the
    relabelled rows.  The matrix is as wide as the highest kept id, not n.
    They need no check: new row i holds bit r iff ids[r] ~ ids[i], which is
    symmetric in i and r, never holds i, and holds no r >= len(ids).
    """
    if mask & ~g.full_mask:
        raise ValueError("vertex set out of range")
    ids = mask_to_ids(mask)
    rows = _transposed_rows([g.adj[v] & mask for v in ids], _width(mask.bit_length()), ids)
    return _derived(len(ids), tuple(rows)), ids


def lift(ids: list[int], mask: int) -> int:
    """The host-graph mask of ``mask``, a vertex set of the subgraph whose
    new-id -> host-id map ``ids`` came from :func:`induced_subgraph`."""
    return mask_from_ids(compress(ids, _digits(mask)))


def degree_planes(adj, mask: int) -> list[int]:
    """The degrees in G[mask] of the vertices of ``mask``, bit-sliced: plane
    j holds bit j of every degree (Knuth, TAOCP 4A, section 7.1.3).

    There are as many planes as the largest degree has bits.  The degrees
    are written as one binary string, nb digits per vertex from the highest
    id down (vertices outside ``mask`` read 0), so plane j is every nb-th
    digit: one Python step per vertex of ``mask``, and no w x w matrix.
    """
    ids = mask_to_ids(mask)
    degs = list(_counts(adj, mask, mask))
    nb = max(degs, default=0).bit_length()
    if not nb:
        return []
    cells = ["0" * nb] * mask.bit_length()
    fmt = f"0{nb}b"
    for v, d in zip(ids, degs):
        cells[v] = format(d, fmt)
    text = "".join(reversed(cells))
    return [int(text[nb - 1 - j :: nb], 2) for j in range(nb)]


def count_up(planes: list[int], which: int) -> None:
    """Add 1 to the counter of every vertex of ``which``: a ripple carry
    from plane 0 that stops once no carry is left, and a new top plane when
    one still is."""
    for j, p in enumerate(planes):
        planes[j] = p ^ which
        which &= p
        if not which:
            return
    planes.append(which)


def count_down(planes: list[int], which: int) -> None:
    """Subtract 1 from the counter of every vertex of ``which``, each of
    which must be positive: a ripple borrow that stops once none is left."""
    for j, p in enumerate(planes):
        planes[j] = p ^ which
        which &= ~p
        if not which:
            return


def extreme_degree(planes: list[int], cand: int, top: bool) -> tuple[int, int]:
    """(d, ties): the largest (top) or smallest counter d over the nonempty
    set ``cand``, and the vertices of ``cand`` that hold it.

    ``cand`` narrows plane by plane from the highest to those with a 1 (top)
    or a 0 there, whenever any are left; d is read off as it narrows.
    """
    d = 0
    j = len(planes)
    if top:
        while j:
            j -= 1
            hit = cand & planes[j]
            if hit:
                cand = hit
                d |= 1 << j
    else:
        while j:
            j -= 1
            hit = cand & ~planes[j]
            if hit:
                cand = hit
            else:
                d |= 1 << j
    return d, cand


def peel_order(g: Graph, mask: int, side: str):
    """Yield (v, d): the vertices of mask in deletion order, each with its
    degree d in what is left of mask just before v goes.

    side="low" deletes a maximum-degree vertex, side="high" a minimum-
    degree one; ties go to the lowest vertex id.  The degrees are kept as
    bit-planes (:func:`degree_planes`): the next vertex is the lowest set
    bit of :func:`extreme_degree` over what is left, and a deletion takes
    1 from its remaining neighbours with :func:`count_down`, so each step
    costs O(log n) whole-mask operations, not one per neighbour.  The
    deletion of v happens when the next vertex is requested.
    """
    if mask & ~g.full_mask:
        raise ValueError("vertex set out of range")
    return _peel(g.adj, mask, side == "low")


def _peel(adj, mask: int, top: bool):
    planes = degree_planes(adj, mask)
    left = mask
    while left:
        d, ties = extreme_degree(planes, left, top)
        bit = ties & -ties
        v = bit.bit_length() - 1
        yield v, d
        left ^= bit
        count_down(planes, adj[v] & left)


def edge_density(g: Graph, mask: int | None = None) -> Fraction:
    """|E(G[S])| / C(|S|,2), exactly; 0 by convention when |S| <= 1."""
    if mask is None:
        mask = g.full_mask
    size = mask.bit_count()
    if size <= 1:
        return Fraction(0)
    return Fraction(g.edges_inside(mask), size * (size - 1) // 2)


@dataclass(frozen=True)
class Pattern:
    """A pattern graph together with its labeled vertex order.

    ``order[k]`` is the pattern vertex playing label k+1; embeddings and
    blowups index their parts by these labels.
    """

    graph: Graph
    order: tuple[int, ...]

    def __post_init__(self):
        if self.graph.n < 1:
            raise ValueError("patterns need at least one vertex")
        if sorted(self.order) != list(range(self.graph.n)):
            raise ValueError("order must be a permutation of the pattern vertices")

    @property
    def size(self) -> int:
        return self.graph.n

    @staticmethod
    def of(graph: Graph, order=None) -> "Pattern":
        return Pattern(graph, tuple(order) if order else tuple(range(graph.n)))

    def label_edge(self, i: int, j: int) -> bool:
        """Is there a pattern edge between labels i and j (1-based)?"""
        return self.graph.has_edge(self.order[i - 1], self.order[j - 1])

    def prefix(self, t: int) -> "Pattern":
        """Pattern induced by the first t labels, relabeled 0..t-1 in label order."""
        if not 1 <= t <= self.size:
            raise ValueError("prefix length out of range")
        edges = [
            (i, j)
            for i in range(t)
            for j in range(i + 1, t)
            if self.label_edge(i + 1, j + 1)
        ]
        return Pattern.of(Graph.from_edges(t, edges))


NAMED_PATTERNS = {
    "K1": lambda: Graph.empty(1),
    "K2": lambda: Graph.complete(2),
    "K3": lambda: Graph.complete(3),
    "K4": lambda: Graph.complete(4),
    "K5": lambda: Graph.complete(5),
    "P2": lambda: Graph.path(2),
    "P3": lambda: Graph.path(3),
    "P4": lambda: Graph.path(4),
    "P5": lambda: Graph.path(5),
    "C4": lambda: Graph.cycle(4),
    "C5": lambda: Graph.cycle(5),
}


def named_pattern(name: str) -> Pattern:
    try:
        return Pattern.of(NAMED_PATTERNS[name]())
    except KeyError:
        raise ValueError(
            f"unknown pattern {name!r}; known: {', '.join(sorted(NAMED_PATTERNS))}"
        ) from None


# A line and its break (every break of str.splitlines, "\r\n" as one), compiled on
# first use by re's cache: a run on clean text skips the 0.4 MB compile peak.
_LINE = r"(?s)([^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*)(?:\r\n|.|\Z)"


def _data_lines(text: str):
    """(line number, stripped line) for each line that is not blank or a '#'
    comment, one at a time, numbered as by :meth:`str.splitlines`."""
    for lineno, match in enumerate(re.finditer(_LINE, text), start=1):
        line = match[1].strip()
        if line and not line.startswith("#"):
            yield lineno, line


def from_edge_list(text: str) -> Graph:
    """Parse the edge-list format.

    First non-comment line is the vertex count n; each following line is
    "u v" with 0 <= u < v < n.  '#' starts a comment line; blank lines,
    surrounding whitespace and any line break :meth:`str.splitlines` knows
    are accepted.  Every :class:`GraphParseError` an edge list can raise,
    with its line number, comes from here: :func:`load_graph_text` reads
    only clean text in its fast pass and hands the rest to this parser.
    """
    n = None
    rows: list[int] = []
    for lineno, line in _data_lines(text):
        parts = line.split()
        if n is None:
            if len(parts) != 1:
                raise GraphParseError("expected a single vertex count", lineno)
            try:
                n = int(parts[0])
            except ValueError:
                raise GraphParseError(f"bad vertex count {parts[0]!r}", lineno) from None
            if n < 0:
                raise GraphParseError("vertex count must be nonnegative", lineno)
            rows = [0] * n
            continue
        if len(parts) != 2:
            raise GraphParseError("expected an edge 'u v'", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"bad edge {line!r}", lineno) from None
        if u == v:
            raise GraphParseError(f"self-loop ({u},{v})", lineno)
        if not 0 <= u < v:
            raise GraphParseError(f"edge must satisfy 0 <= u < v, got ({u},{v})", lineno)
        if v >= n:
            raise GraphParseError(f"vertex {v} out of range for n={n}", lineno)
        if rows[u] >> v & 1:
            raise GraphParseError(f"duplicate edge ({u},{v})", lineno)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    if n is None:
        raise GraphParseError("no vertex count found")
    return Graph(n, tuple(rows))


def to_edge_list(g: Graph) -> str:
    """The vertex count, then "u v" for each edge u < v, in the order of
    :meth:`Graph.edges`; a row's edges are written by one join over the
    names of its upper neighbours."""
    adj, n = g.adj, g.n
    names = list(map(str, range(max(map(int.bit_length, adj), default=0))))
    lines = [str(n)]
    for u in compress(range(n), adj):
        upper = list(map(names.__getitem__, _above(adj[u], u, n)))
        if upper:
            lines.append(f"{u} " + f"\n{u} ".join(upper))
    return "\n".join(lines) + "\n"


def from_graph6(line: str) -> Graph:
    """Decode a single graph6 line (short or long size header): a body of
    exactly ceil(n(n-1)/12) characters whose padding bits are 0."""
    data = [ord(c) - 63 for c in line.strip()]
    if any(not 0 <= x <= 63 for x in data):
        raise GraphParseError("invalid graph6 character")
    if not data:
        raise GraphParseError("empty graph6 input")
    if data[0] <= 62:
        n, body = data[0], data[1:]
    elif len(data) >= 4 and data[1] <= 62:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        raise GraphParseError("unsupported graph6 size header")
    need = n * (n - 1) // 2
    if len(body) != -(-need // 6):
        raise GraphParseError(f"graph6 body has {len(body)} characters, not {-(-need // 6)}")
    bits = "".join(format(x, "06b") for x in body)
    if "1" in bits[need:]:
        raise GraphParseError("graph6 padding bits must be 0")
    pairs = ((i, j) for j in range(1, n) for i in range(j))
    return Graph.from_edges(n, [e for e, bit in zip(pairs, bits) if bit == "1"])


def to_graph6(g: Graph) -> str:
    if g.n > 62:
        raise ValueError("only short-form graph6 encoding is supported")
    bits = "".join("01"[g.has_edge(i, j)] for j in range(1, g.n) for i in range(j))
    bits += "0" * (-len(bits) % 6)
    return chr(g.n + 63) + "".join(chr(int(bits[k : k + 6], 2) + 63)
                                   for k in range(0, len(bits), 6))


# Both separators of an edge list, as the commas of one JSON array.
_COMMAS = str.maketrans(" \n", ",,")

# The edge lines are read in windows of at least this many characters, each
# cut at a "\n", so a load holds the text and one window's ids at a time.
_WINDOW = 1 << 17


def _read_window(rows: list[int], body: str, bits: list[int], top: int) -> int:
    """Set the bits of the edge lines ``body`` (no final "\\n") in ``rows``;
    return their number, or 0 if the skeleton or an id >= ``top`` rejects
    them.  Each edge is one lookup in the shift table ``bits``, which is
    also its range check: an id past the table, or a u past ``rows``,
    raises IndexError, and only then does the window check its max and
    shift its ids (a bit set twice is set once).  The ids are freed on
    return, before the next window is read."""
    k = body.count("\n") + 1
    if body.encode("ascii").translate(None, b"0123456789") != (b" \n" * k)[:-1]:
        return 0
    ids = json.loads("[" + body.translate(_COMMAS) + "]")
    pairs = iter(ids)
    try:
        for u, v in zip(pairs, pairs):
            rows[u] |= bits[v]
    except IndexError:
        if max(ids) >= top:
            return 0
        pairs = iter(ids)
        for u, v in zip(pairs, pairs):
            rows[u] |= 1 << v
    return k


def _clean_edge_list(text: str) -> Graph | None:
    """The graph of a clean edge list, or None for :func:`from_edge_list` to parse.

    Clean means: the vertex count alone on the first line, in canonical
    decimal, then one "u v" per line with 0 <= u < v < n, no edge twice,
    a single space between the two ids, each id in canonical decimal, lines
    separated by "\\n", and at most one final "\\n".  Anything else returns
    None, so the line parser stays the one source of error messages.  The
    edge lines are read in windows of whole lines by :func:`_read_window`,
    each :data:`_WINDOW` characters and on to the next "\\n".  Each
    malformed form fails one step, the first three in its window:

    * the skeleton: with the digits deleted, the window must read " \\n"
      per line, without the last "\\n", which rejects every other character,
      blank or comment line, line without exactly one space, and a second
      final "\\n";
    * JSON: the window's ids, joined by commas, must parse as JSON integers
      (no empty id, no leading zero);
    * the table lookup: each edge sets its bit by one lookup in a table of
      1 << v for v below min(n, len(text), isqrt(16 len(text))), so the
      table holds about len(text) bytes at most and covers every id of a
      dense or narrow graph; an id past the table, as in a wide sparse
      graph, or a u at or above n, misses it, and only that window runs
      the max check, which refuses an id at or above n or len(text), so
      that a short text costs no shift wider than itself, and shifts its
      ids (a u at or above len(text) with v in the table fails the lowest
      bit);
    * the popcount: a repeated edge leaves fewer bits than lines;
    * the lowest bit: an edge with v <= u leaves a row whose lowest bit is
      at or below its own vertex.

    The rows U so read are strictly upper triangular and in range, since
    each v lies in the table or passed the max check and each u < v by the
    lowest bits; with no edge twice, by the popcount.  So
    U | U^T, mirrored by :func:`_transposed_rows`, is symmetric, loopless
    and in range, and needs no check by ``Graph``.
    """
    # The count line, and the edge lines without at most one final "\n".
    end = len(text) - text.endswith("\n")
    # A "\n" before ``end`` ends the count line and starts at least one edge
    # line, maybe empty; without one there are no edge lines.
    cut = text.find("\n", 0, end)
    if cut < 0:
        cut = end
    head = text[:cut]
    lines = 0
    try:
        n = int(head)
        if n < 0 or str(n) != head:
            return None
        top = min(n, len(text))
        rows = [0] * n
        # 1 << v for each v below the cap: about isqrt(16 L)^2 / 16 = L bytes
        # for a text of L characters
        bits = [1 << v for v in range(min(top, isqrt(16 * len(text))))]
        start = cut + 1
        while start <= end:
            stop = text.find("\n", start + _WINDOW - 1, end)
            if stop < 0:
                stop = end
            k = _read_window(rows, text[start:stop], bits, top)
            if not k:
                return None
            lines += k
            start = stop + 1
    except (ValueError, OverflowError, MemoryError):
        return None
    if sum(map(int.bit_count, rows)) != lines:
        return None
    # Every edge has u < v: no row from k on holds a bit, and the lowest bit
    # of each row lies above the row's own vertex.
    k = max(map(int.bit_length, rows), default=0)
    if any(islice(rows, k, None)):
        return None
    for u, row in enumerate(islice(rows, k)):
        if row and (row & -row).bit_length() <= u + 1:
            return None
    for v, lower in enumerate(_transposed_rows(rows[:k], _width(k), range(k))):
        rows[v] |= lower
    return _derived(n, tuple(rows))


def load_graph_text(text: str) -> Graph:
    """Edge-list or graph6, detected by whether the first data line (not
    blank, not a '#' comment) is an integer.

    A clean edge list (one "u v" per "\\n"-ended line, see
    :func:`_clean_edge_list`) is read in one fast pass; the fast pass never
    raises, and any other text goes through :func:`from_edge_list` or
    :func:`from_graph6`, which alone report errors, bar one: graph6 text
    holds one graph, so a second data line is an error.  Both ways give the
    same graph.
    """
    g = _clean_edge_list(text)
    if g is not None:
        return g
    data = list(islice(_data_lines(text), 2))
    if not data:
        raise GraphParseError("empty graph input")
    try:
        int(data[0][1].split()[0])
    except ValueError:
        g = from_graph6(data[0][1])
        if len(data) > 1:
            raise GraphParseError("graph6 input holds a second data line", data[1][0])
        return g
    return from_edge_list(text)


def _extends_to_automorphism(adj: tuple[int, ...], forced: dict[int, int]) -> bool:
    """Does some automorphism of the graph with rows ``adj`` map each key of
    ``forced`` to its value?

    A first-found search with forward checking: each vertex keeps the set of
    images still consistent with the vertices placed so far, and the vertex
    with the fewest goes next.  It stops at the first automorphism, so it
    never lists the group.
    """
    by_degree: dict[int, int] = {}
    for v, row in enumerate(adj):
        by_degree[row.bit_count()] = by_degree.get(row.bit_count(), 0) | 1 << v
    domain = {v: by_degree[row.bit_count()] for v, row in enumerate(adj)}
    for v, x in forced.items():
        domain[v] &= 1 << x

    def rec(domain: dict[int, int]) -> bool:
        if not domain:
            return True
        w = min(domain, key=lambda v: (domain[v].bit_count(), v))
        for x in iter_bits(domain[w]):
            rest = {
                v: d & ~(1 << x) & (adj[x] if adj[w] >> v & 1 else ~adj[x])
                for v, d in domain.items()
                if v != w
            }
            if all(rest.values()) and rec(rest):
                return True
        return False

    return rec(domain)


@lru_cache(maxsize=256)
def _symmetry(h: Graph) -> tuple[int, tuple[tuple[int, int], ...]]:
    """|Aut(H)| and the symmetry-breaking constraints of H.

    Walks a stabilizer chain of Aut(H) with the vertices 0..n-1 as its base:
    at vertex v, the group is the pointwise stabilizer of 0..v-1, and the
    orbit of v under it is found by one automorphism search per candidate
    image.  A nontrivial orbit of v adds the constraints phi(v) < phi(u),
    written ``(v, u)``, for every other u in it.
    |Aut(H)| is the product of the orbit sizes.  Of the |Aut(H)| labelled
    maps onto one induced copy, exactly one meets every constraint: level by
    level, the constraints pick the coset whose image of v is least.
    """
    aut = 1
    less: list[tuple[int, int]] = []
    fixed: dict[int, int] = {}
    for v in range(h.n):
        orbit = [v] + [
            u for u in range(v + 1, h.n) if _extends_to_automorphism(h.adj, {**fixed, v: u})
        ]
        if len(orbit) > 1:
            aut *= len(orbit)
            less += [(v, u) for u in orbit[1:]]
        fixed[v] = v
    return aut, tuple(less)


def _links(h: Graph, order, less) -> list[list[tuple[bool, int]]]:
    """How the positions of ``order`` constrain each other.

    ``links[k][m - k - 1]`` relates positions k < m: whether their pattern
    vertices are adjacent, and +1 (-1) when the image at m must lie above
    (below) the image at k under a constraint of ``less``, else 0.
    """
    return [
        [(bool(h.adj[a] >> b & 1), ((a, b) in less) - ((b, a) in less)) for b in order[k + 1 :]]
        for k, a in enumerate(order)
    ]


def _count_backtrack(g: Graph, links, parts: list[int] | None) -> int:
    """Injective maps phi meeting ``links``, placed one position at a time.

    ``masks[m]`` holds the images still open to a later position m (capped
    by ``parts[m]`` when parts are given).  Placing x at position k ANDs
    each of them with the row of x in the table for the (k, m) link: the
    neighbours of x, or its non-neighbours other than x, cut to the ids
    above x (``& -(2 << x)``) or below it (``& (1 << x) - 1``) when an order
    constraint ties the two positions.  Both rows exclude x, so injectivity
    needs no used set.

    The last three positions a, b, c run as one flat loop nest over ints:
    each x open to a gives b's candidates cb = ``mb & rab[x]`` and c's mask
    m = ``mc & rac[x]``, and the pairs of the last two are summed as one
    ``bit_count`` per bit of the smaller of the two (``rcb`` reverses the
    last link's order constraint).  Each position above is a recursive step.
    """
    hn = len(links)
    if hn > g.n:
        return 0
    full = g.full_mask
    masks = [full] * hn if parts is None else parts
    if hn == 1:
        return masks[0].bit_count()
    tables: dict[tuple[bool, int], list[int]] = {}

    def table(edge: bool, order: int) -> list[int]:
        if (edge, order) not in tables:
            rows = g.adj if edge else [full ^ row ^ 1 << v for v, row in enumerate(g.adj)]
            if order > 0:
                rows = [row & -(2 << v) for v, row in enumerate(rows)]
            elif order < 0:
                rows = [row & (1 << v) - 1 for v, row in enumerate(rows)]
            tables[edge, order] = rows
        return tables[edge, order]

    later = [[table(*link) for link in row] for row in links]
    (rbc,) = later[-2]
    ((edge, order),) = links[-2]
    rcb = table(edge, -order)
    if hn == 2:
        cand, mc = masks
        rows = rbc
        if cand.bit_count() > mc.bit_count():
            cand, mc, rows = mc, cand, rcb
        total = 0
        while cand:
            low = cand & -cand
            total += (mc & rows[low.bit_length() - 1]).bit_count()
            cand ^= low
        return total
    a = hn - 3
    rab, rac = later[a]

    def rec(k: int, masks: list[int]) -> int:
        cand, rest = masks[0], masks[1:]
        total = 0
        if k == a:
            mb, mc = rest
            while cand:
                low = cand & -cand
                x = low.bit_length() - 1
                cand ^= low
                cb = mb & rab[x]
                if cb:
                    m = mc & rac[x]
                    if m:
                        rows = rbc
                        if cb.bit_count() > m.bit_count():
                            cb, m, rows = m, cb, rcb
                        while cb:
                            low = cb & -cb
                            total += (m & rows[low.bit_length() - 1]).bit_count()
                            cb ^= low
            return total
        rows = later[k]
        while cand:
            low = cand & -cand
            x = low.bit_length() - 1
            new = [mask & row[x] for row, mask in zip(rows, rest)]
            if all(new):
                total += rec(k + 1, new)
            cand ^= low
        return total

    return rec(0, masks)


def plan(
    g: Graph, h: Graph, within: int | None = None
) -> tuple[float, str, bool, tuple[int, ...]]:
    """How to count the vertex sets of G (inside ``within``, if given) that
    induce H: ``(work, route, flip, order)``, the plan of least work as
    :mod:`rpt.costmodel` predicts it.  The routes: ``"closed"`` for H on at
    most three vertices (:func:`small_sets`, work n + m), ``"four"`` for
    any 4-vertex H (:mod:`rpt.fourvertex`) and ``"five"`` for P5 and the
    house (:mod:`rpt.fivepath`), on the complements of G and H with
    ``flip``; or ``"backtrack"`` in the position ``order``, the only one
    inside ``within``."""
    n, m, pairs = g.n, g.edge_count(), g.n * (g.n - 1) // 2
    if within is None and h.n <= 3:
        return float(n + m), "closed", False, ()
    # imported here: a run that plans no order never compiles the cost model
    from .costmodel import best_order, route_work

    size = n if within is None else within.bit_count()
    work, order = best_order(h, size, m / pairs if pairs else 0.0)
    best = (work, "backtrack", False, order)
    four = within is None and h.n == 4
    five = within is None and (is_path(h) or is_path(complement(h)))
    routes = ([("four", False), ("four", True)] if four
              else [("five", not is_path(h))] if five else [])
    deg = list(map(int.bit_count, g.adj)) if routes else []
    for route, flip in routes:
        side = (pairs - m, [n - 1 - d for d in deg]) if flip else (m, deg)
        best = min(best, (route_work(route, n, *side), route, flip, order))
    return best


def is_path(h: Graph) -> bool:
    """Is H the path on five vertices?  Exactly: degrees 1, 1, 2, 2, 2 and no
    triangle, which K3 + K2, the one other such graph, has."""
    return h.n == 5 and sorted(map(int.bit_count, h.adj)) == [1, 1, 2, 2, 2] and not triangles(h)


def induced_sets(g: Graph, h: Graph, within: int | None = None) -> int:
    """Vertex sets of G (inside ``within``, if given) that induce a copy of
    H, by the backtracker: each is enumerated once under the order
    constraints of :func:`_symmetry`, in the position order of its plan
    (:func:`plan`)."""
    order = plan(g, h, g.full_mask if within is None else within)[3]
    parts = None if within is None else [within] * h.n
    return _count_backtrack(g, _links(h, order, _symmetry(h)[1]), parts)


def triangles(g: Graph) -> int:
    """The triangles of G, in one pass over the lower rows N-(u) (the
    neighbours below u): each is found once, from its highest vertex u and
    its middle vertex v, as a bit of N-(u) & N-(v).  The rows N-(v) of a
    dense N-(u) are read by one ``compress`` over its digits, of a sparse
    one through :func:`mask_to_ids`, under its rule.  An empty
    row is skipped before it is cut."""
    low = [row and row & (1 << u) - 1 for u, row in enumerate(g.adj)]
    total = 0
    for a in filter(None, low):
        if a.bit_count() << 4 > a.bit_length():
            rows = compress(low, _digits(a))
        else:
            rows = map(low.__getitem__, mask_to_ids(a))
        total += sum(map(int.bit_count, map(a.__and__, rows)))
    return total


def small_sets(g: Graph, h: Graph) -> int:
    """Vertex sets of G inducing H on at most three vertices, in closed form.
    With S the sum of C(d_v, 2) and t the triangles: m(n - 2), the pairs of
    an edge and a third vertex, counts a 3-set once per edge, and S counts
    one with two edges once and a triangle three times.  So t, S - 3t and
    m(n - 2) - 2S + 3t 3-sets have 3, 2 and 1 edges, and the rest none."""
    n, m, e = g.n, g.edge_count(), h.edge_count()
    if h.n < 3:
        return [n, n * (n - 1) // 2 - m, m][h.n - 1 + e]
    s = sum(d * (d - 1) for d in map(int.bit_count, g.adj)) // 2
    t = triangles(g)
    sets = [0, m * (n - 2) - 2 * s + 3 * t, s - 3 * t, t]
    return n * (n - 1) * (n - 2) // 6 - sum(sets) if e == 0 else sets[e]


def sets_by_plan(g: Graph, h: Graph, route: str, flip: bool, order) -> int:
    """Vertex sets of G inducing H, by the route, side and position order of
    a plan (:func:`plan`).  Every plan gives the same count."""
    if flip:
        g, h = complement(g), complement(h)
    if route == "closed":
        return small_sets(g, h)
    if route == "four":
        # imported here: a run that takes no route never compiles one
        from .fourvertex import induced_four_sets

        return induced_four_sets(g, h)
    if route == "five":
        from .fivepath import path_sets

        return path_sets(g)
    return _count_backtrack(g, _links(h, order, _symmetry(h)[1]), None)


def count_induced_copies(g: Graph, pat: Pattern) -> int:
    """Number of injective maps preserving adjacency and non-adjacency: the
    vertex sets inducing H, counted by the plan of least predicted work
    (:func:`plan`), times |Aut(H)|."""
    h = pat.graph
    return _symmetry(h)[0] * sets_by_plan(g, h, *plan(g, h)[1:])


def count_embeddings_into_parts(g: Graph, pat: Pattern, parts) -> int:
    """Copies phi with phi(v_i) in parts[i-1] for every label i."""
    parts = list(parts)
    if len(parts) != pat.size:
        raise ValueError("need exactly one part per pattern label")
    union = 0
    for p in parts:
        if p & ~g.full_mask:
            raise ValueError("parts must hold only vertices of the graph")
        if p & union:
            raise ValueError("parts must be pairwise disjoint")
        union |= p
    return _count_backtrack(g, _links(pat.graph, pat.order, ()), parts)
