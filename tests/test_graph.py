import gc
import json
import random
import sys
import time
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, islice, permutations, product
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_small_patterns, peeling_graphs, random_graph, random_pattern, wide_graphs
import rpt.graph
from rpt.adversarial import naive_count
import rpt.fivepath
from rpt.fivepath import path_sets
from rpt.fourvertex import _degree_key, _four_vertex_inclusion, _spanning_counts
from rpt.costmodel import _AND, _FIVE, _FOUR, _LAST, _NODE, _ROW, best_order
from rpt.graph import (
    _COMMAS,
    _WINDOW,
    _clean_edge_list,
    _count_backtrack,
    _links,
    _packs,
    _swap_masks,
    _symmetry,
    _transpose,
    _transposed_rows,
    _width,
    Graph,
    GraphParseError,
    mask_to_ids,
    Pattern,
    complement,
    count_embeddings_into_parts,
    count_induced_copies,
    degree_range,
    edge_density,
    from_edge_list,
    from_graph6,
    induced_sets,
    induced_subgraph,
    is_path,
    lift,
    load_graph_text,
    mask_from_ids,
    named_pattern,
    peel_order,
    plan,
    sets_by_plan,
    small_sets,
    to_edge_list,
    to_graph6,
    triangles,
    with_at_least,
)


def test_edge_list_parsing_path():
    g = from_edge_list("3\n0 1\n1 2")
    assert g.n == 3 and g.edge_count() == 2
    assert g.has_edge(0, 1) and g.has_edge(1, 2) and not g.has_edge(0, 2)


def test_edge_list_singleton_and_comments():
    g = from_edge_list("# a singleton\n1\n")
    assert g.n == 1 and g.edge_count() == 0


def test_edge_list_k4():
    g = from_edge_list("4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3")
    assert g.edge_count() == 6
    assert degree_range(g, g.full_mask) == (3, 3)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("3\n0 5", "out of range"),
        ("3\n1 1", "self-loop"),
        ("3\n0 1\n0 1", "duplicate"),
        ("3\nx y", "edge"),
        ("", "vertex count"),
        ("3\n1 0", "u < v"),
    ],
)
def test_edge_list_errors_carry_line_numbers(text, fragment):
    with pytest.raises(GraphParseError) as err:
        from_edge_list(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "text,message",
    [
        ("# c\n3\n0 1\n\n0 5", "line 5: vertex 5 out of range for n=3"),
        ("3\n1 1", "line 2: self-loop (1,1)"),
        ("3\n0 1\n1 2\n0 1", "line 4: duplicate edge (0,1)"),
        ("3\nx y", "line 2: bad edge 'x y'"),
        ("3\n0 1 2", "line 2: expected an edge 'u v'"),
        ("3 4", "line 1: expected a single vertex count"),
        ("-1", "line 1: vertex count must be nonnegative"),
        ("  # only a comment", "no vertex count found"),
        ("3\n2 1", "line 2: edge must satisfy 0 <= u < v, got (2,1)"),
    ],
)
def test_edge_list_error_messages(text, message):
    with pytest.raises(GraphParseError) as err:
        from_edge_list(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "adj,message",
    [
        ((0b010, 0b000, 0b000), "asymmetric adjacency between 1 and 0"),
        ((0b000, 0b001, 0b000), "asymmetric adjacency between 0 and 1"),
        ((0b100, 0b100, 0b010), "asymmetric adjacency between 2 and 0"),
        ((0b000, 0b010, 0b000), "self-loop at vertex 1"),
        ((0b1000, 0b000, 0b000), "adjacency row 0 mentions out-of-range vertices"),
        ((0b010, 0b001), "adjacency length must equal vertex count"),
    ],
)
def test_graph_rejects_bad_adjacency(adj, message):
    with pytest.raises(ValueError) as err:
        Graph(3, adj)
    assert str(err.value) == message


def test_from_edges_errors():
    with pytest.raises(ValueError, match=r"^duplicate edge \(1,0\)$"):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match=r"^edge \(0,3\) out of range for n=3$"):
        Graph.from_edges(3, [(0, 3)])


def test_complement_spot_values():
    assert complement(Graph.complete(4)).edge_count() == 0
    c5 = Graph.cycle(5)
    cc = complement(c5)
    assert cc.edge_count() == 5  # self-complementary
    assert count_induced_copies(cc, Pattern.of(Graph.cycle(5))) == count_induced_copies(
        c5, Pattern.of(Graph.cycle(5))
    )
    p3c = complement(Graph.path(3))
    assert p3c.edges() == [(0, 2)]


@given(st.integers(0, 400), st.integers(2, 8))
@settings(max_examples=60)
def test_complement_involution(seed, n):
    g = random_graph(n, 0.5, seed)
    assert complement(complement(g)) == g


def test_induced_subgraph_examples(petersen):
    c5 = Graph.cycle(5)
    sub, ids = induced_subgraph(c5, 0b00011)
    assert sub.n == 2 and sub.edge_count() == 1 and ids == [0, 1]
    sub, _ = induced_subgraph(Graph.complete(4), 0b0111)
    assert sub == Graph.complete(3)
    outer, _ = induced_subgraph(petersen, mask_from_ids(range(5)))
    assert count_induced_copies(outer, Pattern.of(Graph.cycle(5))) > 0


# Sizes on both sides of every packed-matrix width (8, 16, ..., 512).
WIDTH_EDGES = [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129, 255, 256, 257]


def _oracle_check(n, adj):
    """Graph.__post_init__ as it was before the transpose: the reference scan."""
    if n < 0 or len(adj) != n:
        raise ValueError("adjacency length must equal vertex count")
    full = (1 << n) - 1
    # Symmetric iff every bit below the diagonal is mirrored above it and
    # the two halves hold equally many bits; the full scan below runs
    # only to name the first asymmetric pair.
    mirrored = True
    lower = upper = 0
    for v, row in enumerate(adj):
        if row & (1 << v):
            raise ValueError(f"self-loop at vertex {v}")
        if row & ~full:
            raise ValueError(f"adjacency row {v} mentions out-of-range vertices")
        below = row & ((1 << v) - 1)
        count = below.bit_count()
        lower += count
        upper += row.bit_count() - count
        while below and mirrored:
            low = below & -below
            mirrored = adj[low.bit_length() - 1] >> v & 1
            below ^= low
    if not mirrored or lower != upper:
        for v in range(n):
            for u in mask_to_ids(adj[v]):
                if not adj[u] & (1 << v):
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")


def _oracle_induced_subgraph(g, mask):
    """induced_subgraph as it was before the transpose: rows and id map."""
    if mask & ~g.full_mask:
        raise ValueError("vertex set out of range")
    ids = mask_to_ids(mask)
    pos = {v: i for i, v in enumerate(ids)}
    rows = [0] * len(ids)
    for i, v in enumerate(ids):
        for u in mask_to_ids(g.adj[v] & mask):
            rows[i] |= 1 << pos[u]
    return tuple(rows), ids


@pytest.mark.parametrize("w", [8, 16, 32, 64, 128, 256, 512])
def test_transpose_matches_naive_and_is_involution(w):
    rng = random.Random(w)
    x = rng.getrandbits(w * w)
    bits = format(x, f"0{w * w}b")[::-1]  # bits[r * w + c] is bit (r, c)
    naive = int("".join(bits[r * w + c] for c in range(w) for r in range(w))[::-1], 2)
    assert _transpose(x, w) == naive
    assert _transpose(naive, w) == x


@given(st.sampled_from(WIDTH_EDGES), st.sampled_from([0.1, 0.5, 0.9]), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_induced_subgraph_matches_oracle(n, p, seed):
    g = random_graph(n, p, seed)
    rng = random.Random(seed)
    masks = [0, g.full_mask, rng.getrandbits(n) if n else 0]
    if n:
        masks.append(1 << rng.randrange(n))
        # kept ids all low: the packed matrix is narrower than the host's
        masks.append(rng.getrandbits(rng.randrange(n + 1)))
    for mask in masks:
        sub, ids = induced_subgraph(g, mask)
        assert (sub.adj, ids) == _oracle_induced_subgraph(g, mask)


@given(st.integers(0, 64), st.integers(0, 10**6), st.data())
@settings(max_examples=200, deadline=None)
def test_lift_matches_comprehension(n, seed, data):
    # the per-call-site comprehension that lift replaced, as the oracle
    g = random_graph(n, 0.5, seed)
    mask = data.draw(st.integers(0, g.full_mask))
    sub, ids = induced_subgraph(g, mask)
    local = data.draw(st.integers(0, sub.full_mask))
    assert lift(ids, local) == mask_from_ids(ids[v] for v in mask_to_ids(local))
    assert lift(ids, sub.full_mask) == mask


def _corrupt(adj, kind, rng):
    """One bad row: a flipped off-diagonal bit, a diagonal bit, a bit >= n or a negative row."""
    n = len(adj)
    adj = list(adj)
    v = rng.randrange(n)
    if kind == "flip":
        u = rng.choice([u for u in range(n) if u != v])
        adj[v] ^= 1 << u
    elif kind == "diagonal":
        adj[v] |= 1 << v
    elif kind == "beyond":
        adj[v] |= 1 << (n + rng.randrange(8))
    else:
        adj[v] = -1 - rng.getrandbits(n + 1)
    return tuple(adj)


@pytest.mark.parametrize(
    "n,kind",
    [
        (n, kind)
        for n in WIDTH_EDGES
        for kind in ["flip", "diagonal", "beyond", "negative"]
        if n >= 1 + (kind == "flip")
    ],
)
def test_graph_rejection_messages_match_oracle(n, kind):
    for seed in range(3):
        rng = random.Random(seed * 1000 + n)
        adj = _corrupt(random_graph(n, 0.5, seed).adj, kind, rng)
        with pytest.raises(ValueError) as want:
            _oracle_check(n, adj)
        with pytest.raises(ValueError) as got:
            Graph(n, adj)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "m,kind",
    [
        (m, kind)
        for m in WIDTH_EDGES
        for kind in ["flip", "diagonal", "beyond", "negative", None]
        if m >= 2 or kind is None
    ],
)
def test_isolated_tails_keep_their_messages(m, kind):
    # the packed matrix covers only the rows up to the last vertex with a
    # neighbour; a bad row in the tail or past the matrix's width is still
    # caught, with the message of the full scan
    for seed, tail in enumerate([1, 9, 300]):
        rng = random.Random(seed * 1000 + m)
        n = m + tail
        adj = random_graph(m, 0.5, seed).adj + (0,) * tail
        if kind is not None:
            adj = _corrupt(adj, kind, rng)
        try:
            _oracle_check(n, adj)
        except ValueError as want:
            with pytest.raises(ValueError) as got:
                Graph(n, adj)
            assert str(got.value) == str(want)
        else:
            assert Graph(n, adj).adj == adj


def test_edge_density_values():
    c5 = Graph.cycle(5)
    assert edge_density(c5) == Fraction(1, 2)
    assert edge_density(c5, 0b00001) == 0
    assert edge_density(Graph.complete(4)) == 1
    assert edge_density(Graph.empty(3), 0) == 0


@given(st.integers(0, 300), st.integers(2, 8))
@settings(max_examples=60)
def test_density_complement_duality(seed, n):
    g = random_graph(n, 0.4, seed)
    assert edge_density(g) + edge_density(complement(g)) == 1


def test_count_spot_values():
    assert count_induced_copies(Graph.complete(7), named_pattern("K1")) == 7
    assert count_induced_copies(Graph.complete(3), named_pattern("K2")) == 6
    c5 = Graph.cycle(5)
    assert count_induced_copies(c5, named_pattern("P3")) == 10
    assert count_induced_copies(Graph.complete(3), named_pattern("P3")) == 0


def test_count_respects_pattern_order():
    # a labeled path v1-v2-v3 vs the same graph with order (1,0,2):
    # counts agree (they range over all isomorphisms) but parts-capped
    # counts differ.
    g = Graph.path(3)
    p_natural = Pattern.of(Graph.path(3))
    p_swapped = Pattern(Graph.path(3), (1, 0, 2))
    assert count_induced_copies(g, p_natural) == count_induced_copies(g, p_swapped)
    parts = [0b001, 0b010, 0b100]
    # natural order: v1=0, v2=1, v3=2 must map onto the path in order
    assert count_embeddings_into_parts(g, p_natural, parts) == 1
    # swapped order wants the middle vertex in part 0
    assert count_embeddings_into_parts(g, p_swapped, parts) == 0


def test_embeddings_into_parts_bipartite():
    g = Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
    k2 = named_pattern("K2")
    assert count_embeddings_into_parts(g, k2, [0b000111, 0b111000]) == 9
    assert count_embeddings_into_parts(Graph.empty(6), k2, [0b000111, 0b111000]) == 0


def test_embeddings_into_parts_rejects_overlap():
    with pytest.raises(ValueError):
        count_embeddings_into_parts(Graph.empty(4), named_pattern("K2"), [0b0011, 0b0110])


def test_embeddings_into_parts_rejects_vertices_outside_the_graph():
    # a part is not cut to the graph: the copy bound of a blowup counts its size
    for part in (0b10000, 0b11000, -1):
        with pytest.raises(ValueError, match="only vertices of the graph"):
            count_embeddings_into_parts(Graph.complete(4), named_pattern("K2"), [0b0011, part])


@given(st.integers(0, 300))
@settings(max_examples=50, deadline=None)
def test_parts_count_matches_injective_map_oracle(seed):
    import itertools
    import random as _random

    rng = _random.Random(seed)
    g = random_graph(7, rng.uniform(0.2, 0.8), seed)
    pat = random_pattern(rng.choice([2, 3]), seed + 5)
    h = pat.size
    ids = list(range(7))
    rng.shuffle(ids)
    cut = sorted(rng.sample(range(1, 7), h - 1)) if h > 1 else []
    bounds = [0] + cut + [7]
    parts = [mask_from_ids(ids[bounds[i] : bounds[i + 1]]) for i in range(h)]
    # oracle: enumerate all injective maps directly
    expect = 0
    order = pat.order
    for phi in itertools.product(*[mask_to_ids(p) for p in parts]):
        if len(set(phi)) != h:
            continue
        if all(
            g.has_edge(phi[i], phi[j]) == pat.graph.has_edge(order[i], order[j])
            for i in range(h)
            for j in range(i + 1, h)
        ):
            expect += 1
    assert count_embeddings_into_parts(g, pat, parts) == expect


@given(st.integers(0, 200))
@settings(max_examples=40, deadline=None)
def test_singleton_parts_sum_to_total(seed):
    import itertools

    g = random_graph(5, 0.5, seed)
    pat = random_pattern(3, seed + 1)
    total = 0
    for combo in itertools.permutations(range(5), 3):
        total += count_embeddings_into_parts(g, pat, [1 << v for v in combo])
    assert total == count_induced_copies(g, pat)


@given(st.integers(0, 200), st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_count_complement_duality(seed, h):
    g = random_graph(6, 0.5, seed)
    pat = random_pattern(h, seed + 7)
    assert count_induced_copies(g, pat) == count_induced_copies(
        complement(g), Pattern(complement(pat.graph), pat.order)
    )


def test_graph6_known_strings():
    assert to_graph6(Graph.complete(3)) == "Bw"
    assert to_graph6(Graph.complete(4)) == "C~"
    assert from_graph6("Bw") == Graph.complete(3)
    assert from_graph6("C~") == Graph.complete(4)


@given(st.integers(0, 300), st.integers(1, 9))
@settings(max_examples=60)
def test_graph6_round_trip(seed, n):
    g = random_graph(n, 0.5, seed)
    assert from_graph6(to_graph6(g)) == g


def _graph6_long_form(g: Graph) -> str:
    """g in graph6 with the four-byte size header (n < 2^18), encoded here
    from the format's definition: the upper triangle column by column, six
    bits to a character, padded with 0 bits."""
    bits = [int(g.has_edge(i, j)) for j in range(1, g.n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = [int("".join(map(str, bits[k:k + 6])), 2) for k in range(0, len(bits), 6)]
    header = [63, g.n >> 12 & 63, g.n >> 6 & 63, g.n & 63]
    return "".join(chr(63 + x) for x in header + body)


@pytest.mark.parametrize("n", [5, 63, 100])
def test_graph6_long_size_header(n):
    # n >= 63 needs the long header, which to_graph6 does not write; at n = 5
    # the long form must decode as the short one does
    g = random_graph(n, 0.5, n)
    assert from_graph6(_graph6_long_form(g)) == g
    if n < 63:
        assert to_graph6(g)[1:] == _graph6_long_form(g)[4:]


def test_load_graph_text_detects_format():
    c5 = Graph.cycle(5)
    assert load_graph_text(to_edge_list(c5)) == c5
    assert load_graph_text(to_graph6(c5) + "\n") == c5


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("Dhczzzz", "graph6 body has 6 characters, not 2"),  # trailing characters
        ("Dh", "graph6 body has 1 characters, not 2"),
        ("?" + "?", "graph6 body has 1 characters, not 0"),
        ("A" + chr(94), "graph6 padding bits must be 0"),  # K1 + K1 with all 5 padding bits set
        ("Dhd", "graph6 padding bits must be 0"),  # C5 with its last padding bit set
        ("Dhe", "graph6 padding bits must be 0"),  # C5 with its first padding bit set
        ("Dhc\n\nextra line\n", "line 3: graph6 input holds a second data line"),
        ("Dhc\nDhc\n", "line 2: graph6 input holds a second data line"),
    ],
)
def test_graph6_input_is_strict(text, fragment):
    with pytest.raises(GraphParseError, match=fragment):
        load_graph_text(text)


def test_graph6_allows_blank_and_comment_lines_around_its_one_line():
    c5 = Graph.cycle(5)
    assert to_graph6(c5) == "Dhc"
    for text in ("Dhc", "Dhc\n", "Dhc\n\n", "# c5\nDhc\n# done\n", "A_", "A?", "?"):
        g = load_graph_text(text)
        assert g == {"A_": Graph.complete(2), "A?": Graph.empty(2), "?": Graph.empty(0)}.get(
            text, c5
        )


def _oracle_load(text):
    """load_graph_text as it was before the fast pass: detect, then parse."""
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            int(line.split()[0])
        except ValueError:
            return from_graph6(line)
        return from_edge_list(text)
    raise GraphParseError("empty graph input")


# The fast pass as it was before it read its edge lines in windows, kept
# verbatim as an oracle (only the name and the docstring differ).
def _oracle_json_clean_edge_list(text: str) -> Graph | None:
    """The fast pass that read all its edge lines as one JSON array,
    before it read them in windows."""
    # The count line, and the edge lines without at most one final "\n".
    end = len(text) - text.endswith("\n")
    cut = text.find("\n", 0, end)
    if cut < 0:
        head, body, lines = text[:end], "", 0
    else:
        head, body = text[:cut], text[cut + 1 : end]
        lines = body.count("\n") + 1
    try:
        n = int(head)
        if n < 0 or str(n) != head:
            return None
        if body.encode("ascii").translate(None, b"0123456789") != (b" \n" * lines)[:-1]:
            return None
        array = "[" + body.translate(_COMMAS) + "]"
        del body  # each large string is freed before the next is made
        ids = json.loads(array)
        del array
        if max(ids, default=-1) >= min(n, len(text)):
            return None
        rows = [0] * n
        pairs = iter(ids)
        for u, v in zip(pairs, pairs):
            rows[u] |= 1 << v
    except (ValueError, OverflowError, MemoryError):
        return None
    del ids, pairs  # freed before the matrix work, so the two peaks do not add up
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
    return Graph(n, tuple(rows))


# The default window, one that ends at every "\n", and one that ends at
# every "\n" of a line of three or more characters.
WINDOWS = [_WINDOW, 1, 3]


@contextmanager
def _window(size):
    """The fast pass, and the windowed oracle below, with windows of
    ``size`` characters."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rpt.graph, "_WINDOW", size)
        mp.setitem(globals(), "_WINDOW", size)
        yield


# The windowed fast pass as it was before it set its bits from a shift
# table, kept verbatim as an oracle (only the names, the docstrings, and
# Graph in place of _derived, so that its rows get the full check, differ).
def _oracle_read_window(rows: list[int], body: str, top: int) -> int:
    """One window of the windowed pass: a max check, then one shift per edge."""
    k = body.count("\n") + 1
    if body.encode("ascii").translate(None, b"0123456789") != (b" \n" * k)[:-1]:
        return 0
    ids = json.loads("[" + body.translate(_COMMAS) + "]")
    if max(ids) >= top:
        return 0
    pairs = iter(ids)
    for u, v in zip(pairs, pairs):
        rows[u] |= 1 << v
    return k


def _oracle_window_clean_edge_list(text: str) -> Graph | None:
    """The windowed fast pass that shifted each edge's bit in place."""
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
        start = cut + 1
        while start <= end:
            stop = text.find("\n", start + _WINDOW - 1, end)
            if stop < 0:
                stop = end
            k = _oracle_read_window(rows, text[start:stop], top)
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
    return Graph(n, tuple(rows))


# The fast pass, Graph.edges and to_edge_list as they were before the fast
# pass read its ids as one JSON array and the writers used compress, kept
# verbatim as oracles (only the names differ).
def _oracle_clean_edge_list(text: str) -> Graph | None:
    """The fast pass that split the text into lines and looked each id up
    in a dict of canonical decimals."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        return None
    try:
        n = int(lines[0])
        if n < 0 or str(n) != lines[0]:
            return None
        # At most len(text) keys, so a huge n costs no more than its rows;
        # a text that names a higher id is left to the line parser.
        ids = {str(v): v for v in range(min(n, len(text)))}
        rows = [0] * n
        for line in islice(lines, 1, None):
            u, v = line.split(" ")
            rows[ids[u]] |= 1 << ids[v]
    except (ValueError, KeyError, OverflowError, MemoryError):
        return None
    if sum(map(int.bit_count, rows)) != len(lines) - 1:
        return None
    del lines  # freed before the matrix work, so the two peaks do not add up
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
    return Graph(n, tuple(rows))


def _oracle_edges(g):
    return [(u, v) for u in range(g.n) for v in mask_to_ids(g.adj[u]) if u < v]


def _oracle_to_edge_list(g: Graph) -> str:
    lines = [str(g.n)]
    lines += [f"{u} {v}" for u, v in _oracle_edges(g)]
    return "\n".join(lines) + "\n"


def _outcome(load, text):
    """The graph ``load`` gives, or the type and text of what it raised."""
    try:
        return load(text)
    except (ValueError, OverflowError, MemoryError) as exc:
        return type(exc), str(exc)


def _edge_list_text(n, p, seed, newline):
    """An edge list of G(n, p) with its edge lines shuffled."""
    g = random_graph(n, p, seed)
    lines = [f"{u} {v}" for u, v in g.edges()]
    random.Random(seed).shuffle(lines)
    return g, "\n".join([str(n)] + lines) + ("\n" if newline else "")


@given(st.integers(0, 40), st.sampled_from([0.0, 0.1, 0.5, 1.0]), st.integers(0, 10**6),
       st.booleans())
@settings(max_examples=150, deadline=None)
def test_clean_edge_lists_take_the_fast_pass(n, p, seed, newline):
    g, text = _edge_list_text(n, p, seed, newline)
    assert from_edge_list(text) == load_graph_text(text) == g
    # an id at or above len(text) has no key, so such a (short, sparse)
    # text goes to the line parser; every other clean text is read fast
    keyed = all(v < len(text) for _, v in g.edges())
    for clean in [text, to_edge_list(g)]:
        fast = _clean_edge_list(clean)
        assert fast == g if keyed else fast in (None, g)


@pytest.mark.parametrize("window", WINDOWS)
@given(st.integers(0, 40), st.sampled_from([0.0, 0.1, 0.5, 1.0]), st.integers(0, 10**6),
       st.booleans())
@settings(max_examples=150, deadline=None)
def test_fast_pass_and_writers_match_their_old_code(window, n, p, seed, newline):
    g, text = _edge_list_text(n, p, seed, newline)
    assert g.edges() == _oracle_edges(g)
    assert to_edge_list(g) == _oracle_to_edge_list(g)
    for clean in [text, to_edge_list(g), text + "\n", text.replace("\n", "\n\n", 1),
                  text.replace("\n", "\n\n", 2), text + "\n\n"]:
        with _window(window):
            fast = _clean_edge_list(clean)
            assert fast == _oracle_window_clean_edge_list(clean)
        assert fast == _oracle_json_clean_edge_list(clean) == _oracle_clean_edge_list(clean)


@given(wide_graphs())
@settings(max_examples=40, deadline=None)
def test_writers_match_their_old_code_on_wide_rows(g):
    assert g.edges() == _oracle_edges(g)
    assert to_edge_list(g) == _oracle_to_edge_list(g)
    text = to_edge_list(g)
    assert _clean_edge_list(text) == _oracle_clean_edge_list(text)


@pytest.mark.parametrize("n", [0, 1])
def test_fast_pass_tiny_graphs(n):
    for text in [f"{n}", f"{n}\n"]:
        assert _clean_edge_list(text) == Graph.empty(n) == from_edge_list(text)


# Text that only a JSON tokenizer could misread: put at a random place in
# a line, or in place of one of its ids.
JSON_INSERTS = {"comma": ",", "open": "[", "close": "]"}
JSON_TOKENS = {"exponent": "1e2", "negzero": "-0", "float": "1.0", "plus": "+1",
               "true": "true", "nan": "NaN", "long": "1" * 5000, "arabic": "\u0661"}
EDITS = ["letter", "space", "tab", "cr", "vtab", "blank", "comment", "zero", "swap",
         "duplicate", "range", "huge", *JSON_INSERTS, *JSON_TOKENS]


def _edit(text, kind, rng):
    """``text`` with one corruption of the given kind on a random line."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    i = rng.randrange(len(lines))
    edges = range(1, len(lines))
    j = rng.choice(edges) if edges else None
    line = lines[i]
    if kind == "letter":
        c = rng.randrange(len(line))
        if line[c].isdigit():
            line = line[:c] + rng.choice("xlO") + line[c + 1 :]
    elif kind in ("space", "tab", "cr", "vtab", *JSON_INSERTS):
        c = rng.randrange(len(line) + 1)
        inserts = {"space": " ", "tab": "\t", "cr": "\r", "vtab": "\x0b", **JSON_INSERTS}
        line = line[:c] + inserts[kind] + line[c:]
    elif kind in JSON_TOKENS:
        tokens = line.split(" ")
        tokens[rng.randrange(len(tokens))] = JSON_TOKENS[kind]
        line = " ".join(tokens)
    elif kind == "blank":
        lines.insert(i, "")
    elif kind == "comment":
        lines.insert(i, "# a comment")
    elif kind == "zero":
        tokens = line.split(" ")
        t = rng.randrange(len(tokens))
        tokens[t] = "0" + tokens[t]
        line = " ".join(tokens)
    elif kind == "swap" and j is not None:
        lines[j] = " ".join(reversed(lines[j].split(" ")))
    elif kind == "duplicate" and j is not None:
        lines.insert(rng.randrange(1, len(lines) + 1), lines[j])
    elif kind == "range" and j is not None:
        u, _ = lines[j].split(" ")
        lines[j] = f"{u} {int(lines[0]) + rng.randrange(3)}"
    elif kind == "huge":
        lines[0] = str(rng.choice([10**5 + rng.randrange(10**4), 10**30]))
    if kind not in ("blank", "comment", "swap", "duplicate", "range", "huge"):
        lines[i] = line
    return "\n".join(lines) + rng.choice(["", "\n"])


@pytest.mark.parametrize("window", WINDOWS)
@given(st.integers(0, 24), st.sampled_from([0.1, 0.5]), st.integers(0, 10**6),
       st.sampled_from(EDITS))
@settings(max_examples=400, deadline=None)
def test_one_edit_corruptions_match_the_line_parser(window, n, p, seed, kind):
    _, text = _edge_list_text(n, p, seed, True)
    bad = _edit(text, kind, random.Random(seed))
    with _window(window):
        got = _outcome(load_graph_text, bad)
    assert got == _outcome(_oracle_load, bad)


@pytest.mark.parametrize("window", WINDOWS)
@given(st.integers(0, 24), st.sampled_from([0.1, 0.5]), st.integers(0, 10**6),
       st.sampled_from(EDITS))
@settings(max_examples=400, deadline=None)
def test_one_edit_corruptions_match_the_old_fast_pass(window, n, p, seed, kind):
    _, text = _edge_list_text(n, p, seed, True)
    bad = _edit(text, kind, random.Random(seed))
    with _window(window):
        fast = _clean_edge_list(bad)
        assert fast == _oracle_window_clean_edge_list(bad)
    assert fast == _oracle_json_clean_edge_list(bad) == _oracle_clean_edge_list(bad)


@pytest.mark.parametrize(
    "text",
    ["", "\n", "3\n\n", "3\n0 1\n\n", "03\n0 1\n", "+3\n0 1\n", "-1\n", " 3\n", "3 \n",
     "3\r\n0 1\r\n", "3\n0 1\r\n", "3\n0 1\x0c", "3\n0\t1\n", "3\n0 1 2\n", "3\n0 1\n0 1\n",
     "3\n1 0\n", "3\n1 1\n", "3\n0 3\n", "3\n0 -1\n", "3\n00 1\n", "3\n0 ١\n", "3\n0 ²\n",
     "٣\n0 1\n", "²\n", "1" * 5000 + "\n", "16\n0 15\n", "1000\n0 999\n", "# c\n3\n0 1\n",
     "3\n0,1\n", "3\n[0 1]\n", "3\n0 1,\n", "3\n0 1e0\n", "3\n0 1.0\n", "3\n-0 1\n",
     "3\n0 true\n", "3\n0 NaN\n", "3\n 1\n", "3\n0 \n", "3\n0 1\n1 2\n\n", "0\n\n",
     "3\n\n0 1\n", "3\n0 1\n\n1 2\n", "3\n0 1\n1 2\n\n\n", "3\n0 1\n1 2", "3\n0 1\n0"],
)
@pytest.mark.parametrize("window", WINDOWS)
def test_fast_pass_falls_back_or_agrees(window, text):
    with _window(window):
        fast = _clean_edge_list(text)
        loaded = _outcome(load_graph_text, text)
        assert fast == _oracle_window_clean_edge_list(text)
    assert fast == _oracle_json_clean_edge_list(text) == _oracle_clean_edge_list(text)
    assert fast is None or fast == from_edge_list(text)
    assert loaded == _outcome(_oracle_load, text)


# Ids placed at the edges of the shift table and of the max check, each
# worked out from the vertex count and the length of the finished text.
BOUNDARIES = {
    "cap-1": lambda n, size: _table_size(n, size) - 1,
    "cap": lambda n, size: _table_size(n, size),
    "cap+1": lambda n, size: _table_size(n, size) + 1,
    "top-1": lambda n, size: min(n, size) - 1,
    "top": lambda n, size: min(n, size),
    "n-1": lambda n, size: n - 1,
    "n": lambda n, size: n,
    "len": lambda n, size: size,
    "len+1": lambda n, size: size + 1,
}


def _table_size(n, size):
    """The fast pass's shift table length for a text of ``size`` characters."""
    return min(n, size, isqrt(16 * size))


def _render(n, lines, newline):
    """The edge list of ``lines``, each id an int, a string kept as written,
    or a BOUNDARIES name, resolved against the final length of the text."""
    size = 0
    for _ in range(8):
        ids = [[max(BOUNDARIES[v](n, size), 0) if v in BOUNDARIES else v for v in line]
               for line in lines]
        text = "\n".join([str(n)] + [" ".join(map(str, line)) for line in ids])
        text += "\n" if newline else ""
        if len(text) == size:
            break
        size = len(text)
    return text


@st.composite
def table_edge_lists(draw):
    """An edge list with ids at the table's cap, at min(n, len(text)), at n
    and at len(text), perhaps with a repeated edge, an edge with v <= u and
    an id with a leading zero, each line at a random place."""
    # a large n puts the cap below n and len(text) once the text has 16 characters
    n = draw(st.sampled_from([10**5, 10**6]) if draw(st.booleans()) else st.integers(0, 80))
    edges = draw(st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=80))
    lines = [[u, v] for u, v in sorted({(min(e), max(e)) for e in edges})
             if u != v and max(u, v) < n]
    for kind in draw(st.lists(st.sampled_from(sorted(BOUNDARIES)), max_size=3)):
        line = [draw(st.integers(0, 3)), kind]
        if not draw(st.integers(0, 3)):  # the boundary id as u
            line.reverse()
        lines.insert(draw(st.integers(0, len(lines))), line)
    for edit in draw(st.lists(st.sampled_from(["repeat", "swap", "zero"]), max_size=2)):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        if edit == "repeat":
            lines.insert(draw(st.integers(0, len(lines))), list(lines[i]))
        elif edit == "swap":
            lines[i] = lines[i][::-1]
        elif isinstance(lines[i][1], int):
            lines[i] = [lines[i][0], f"0{lines[i][1]}"]
    return _render(n, lines, draw(st.booleans()))


@contextmanager
def _table_sizes(sizes):
    """Record the length of the shift table each window of the fast pass reads."""
    read = rpt.graph._read_window

    def spy(rows, body, bits, top):
        sizes.append(len(bits))
        return read(rows, body, bits, top)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rpt.graph, "_read_window", spy)
        yield


@pytest.mark.parametrize("window", WINDOWS)
@given(table_edge_lists())
@settings(max_examples=150, deadline=None)
def test_table_pass_matches_the_window_pass(window, text):
    sizes = []
    with _window(window), _table_sizes(sizes):
        fast = _clean_edge_list(text)
        old = _oracle_window_clean_edge_list(text)
    assert fast == old
    assert all(size <= isqrt(16 * len(text)) for size in sizes)


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("kind", sorted(BOUNDARIES))
def test_a_table_miss_in_a_middle_window(window, kind):
    # the text is long enough that the cap lies below n and len(text), so a
    # miss at the cap runs the max check and the shifts in that window alone
    n = 10**5
    lines = [[u, u + 1] for u in range(60)]
    lines.insert(30, [0, kind])
    text = _render(n, lines, True)
    assert _table_size(n, len(text)) < min(n, len(text))
    with _window(window):
        fast = _clean_edge_list(text)
        assert fast == _oracle_window_clean_edge_list(text)
    v = int(text.split("\n")[31].split(" ")[1])
    assert (fast is not None) == (v < len(text))
    if fast is not None:
        assert fast == from_edge_list(text) and fast.has_edge(0, v)


def _peak_mib(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_edgeless_graphs_cost_their_rows():
    # a w x w packing for n = 10**6 would need about 128 GiB
    assert _peak_mib(lambda: load_graph_text("1000000\n")) < 64
    assert _peak_mib(lambda: Graph.empty(10**6)) < 64
    # an isolated tail: only the rows up to the last vertex with an edge pack
    assert _peak_mib(lambda: load_graph_text("1000000\n0 1\n1 2\n")) < 64
    assert load_graph_text("1000000\n0 1\n1 2\n").edges() == [(0, 1), (1, 2)]


def test_small_induced_subgraph_of_a_large_host_costs_its_rows():
    # packing at the host's width would build an 8192 x 8192 bit matrix
    host = Graph.from_edges(8000, [(0, 1), (1, 7999)])
    assert _peak_mib(lambda: induced_subgraph(host, 0b111)) < 1
    assert induced_subgraph(host, 0b111) == (Graph.from_edges(3, [(0, 1)]), [0, 1, 2])


def test_fast_pass_peak_is_no_higher_than_the_old_pass():
    # count's G(500, 1/2) file has 62k lines; the JSON array of its ids must
    # not cost more than the old pass's list of line strings did
    text = to_edge_list(random_graph(500, 0.5, 1))
    assert text.count("\n") > 62000
    assert _clean_edge_list(text) == _oracle_clean_edge_list(text)  # caches the w = 512 masks
    assert _peak_mib(lambda: _clean_edge_list(text)) <= _peak_mib(
        lambda: _oracle_clean_edge_list(text))


def test_clean_load_peak_does_not_grow_with_the_edges():
    # G(1024, 1/2): 262k edges in 2 MiB of text, read in 16 windows.  One
    # JSON array of all its ids peaked at 17 MiB, about 65 bytes an edge;
    # one window's ids and the 1024-wide matrix work stay under a fixed bound
    g = random_graph(1024, 0.5, 1)
    text = to_edge_list(g)
    assert g.edge_count() >= 250_000
    assert _clean_edge_list(text) == _oracle_json_clean_edge_list(text) == g  # caches the masks
    assert _peak_mib(lambda: load_graph_text(text)) < 4


def test_shift_table_stays_within_its_cap():
    # K60 under n = 10**5: a 10 KB text whose table, capped at isqrt(16 * 10**4)
    # = 400 shifts, holds about 20 KB; a table up to min(n, len(text)) would
    # hold about 6.7 MB
    text = "100000\n" + "".join(f"{u} {v}\n" for u, v in combinations(range(60), 2))
    assert 10_000 < len(text) < 11_000
    assert _clean_edge_list(text) == from_edge_list(text)
    assert _peak_mib(lambda: _clean_edge_list(text)) * 2**20 < 3_000_000


def test_wide_sparse_graphs_cost_their_edges():
    # one edge at vertex 15999 packed a 16384 x 16384 matrix: 3.1 s at a
    # 611 MiB peak, both in Graph's symmetry check and in the loader's mirror
    assert _peak_mib(lambda: load_graph_text("16000\n0 15999\n")) < 64
    assert load_graph_text("16000\n0 15999\n").edges() == [(0, 15999)]
    # long enough for the fast pass to read ids up to 15999
    text = "16000\n0 15999\n" + "".join(f"{v} {v + 1}\n" for v in range(1, 3000))
    assert _peak_mib(lambda: _clean_edge_list(text)) < 64
    assert _clean_edge_list(text) == from_edge_list(text)
    host = Graph.from_edges(16000, [(0, 15999), (1, 15999)])
    assert _peak_mib(lambda: induced_subgraph(host, host.full_mask)) < 64
    assert induced_subgraph(host, 1 | 1 << 15999)[0] == Graph.complete(2)
    adj = [0] * 16000
    adj[0] = 1 << 15999
    with pytest.raises(ValueError, match=r"^asymmetric adjacency between 15999 and 0$"):
        _peak_mib(lambda: Graph(16000, tuple(adj)))


@given(st.sampled_from(WIDTH_EDGES), st.sampled_from([0.05, 0.5]), st.integers(0, 10**6),
       st.sampled_from([0, 10**9]))
@settings(max_examples=120, deadline=None)
def test_packed_and_per_edge_paths_agree(n, p, seed, ratio):
    # _PACK_RATIO 0 sends every matrix to the per-edge path, 10**9 packs
    # every one that has a bit
    g, text = _edge_list_text(n, p, seed, True)
    rng = random.Random(seed)
    masks = [g.full_mask, rng.getrandbits(n) if n else 0]
    bad = _corrupt(g.adj, "flip", rng) if n >= 2 else None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rpt.graph, "_PACK_RATIO", ratio)
        fast = _clean_edge_list(text)
        assert fast == _oracle_clean_edge_list(text)
        assert fast == g or any(v >= len(text) for _, v in g.edges())
        for mask in masks:
            sub, ids = induced_subgraph(g, mask)
            assert (sub.adj, ids) == _oracle_induced_subgraph(g, mask)
        if bad is not None:
            with pytest.raises(ValueError) as want:
                _oracle_check(n, bad)
            with pytest.raises(ValueError) as got:
                Graph(n, bad)
            assert str(got.value) == str(want.value)


# Vertices 0..299 joined to 3700..3999: 90,000 edges, which pack a 4096 x
# 4096 matrix under both bounds of _packs (a 300-edge star at vertex 3999
# has the bit lengths for it, but too few edges).
WIDE_PACKED = [(u, v) for u in range(300) for v in range(3700, 4000)]


def test_wide_transpose_masks_are_not_kept():
    # the delta-swap masks of w = 4096 take 24 MiB; only widths up to 1024
    # stay cached, among them w = 512 for count's G(500, 1/2)
    # (one edge packs no matrix at all; WIDE_PACKED packs one)
    assert _packs(Graph.from_edges(4000, WIDE_PACKED).adj, 4096)
    assert not _packs(Graph.from_edges(4000, [(v, 3999) for v in range(300)]).adj, 4096)
    for build in [lambda: load_graph_text("4000\n0 3999\n"),
                  lambda: Graph.from_edges(4000, WIDE_PACKED)]:
        _swap_masks.cache_clear()
        tracemalloc.start()
        try:
            build()
            gc.collect()
            kept_mib = tracemalloc.get_traced_memory()[0] / 2**20
        finally:
            tracemalloc.stop()
        assert kept_mib < 2
    # a 500-vertex path now takes the per-edge steps; the complete graph packs
    Graph.complete(500)
    Graph.complete(500)
    assert _swap_masks.cache_info().hits == 1


def test_wide_transpose_builds_one_mask_at_a_time():
    # the 12 masks of w = 4096 take 2 MiB each; built all at once they put
    # this 2 MiB matrix's check at a 34 MiB peak
    assert _peak_mib(lambda: Graph.from_edges(4000, WIDE_PACKED)) < 20


# The Matula-Beck bucket queue that peel_order ran before it kept its
# degrees as bit-planes, kept verbatim as an oracle.
def peel_order_buckets(g: Graph, mask: int, side: str):
    adj = g.adj
    deg = [0] * g.n
    buckets = [0] * mask.bit_count()
    for v in mask_to_ids(mask):
        d = (adj[v] & mask).bit_count()
        deg[v] = d
        buckets[d] |= 1 << v
    low = side == "low"
    d = len(buckets) - 1 if low else 0
    left = mask
    while left:
        if low:
            while not buckets[d]:
                d -= 1
        else:
            while not buckets[d]:
                d += 1
        bit = buckets[d] & -buckets[d]
        v = bit.bit_length() - 1
        yield v, d
        buckets[d] ^= bit
        left ^= bit
        nbrs = adj[v] & left
        while nbrs:
            b = nbrs & -nbrs
            u = b.bit_length() - 1
            du = deg[u]
            buckets[du] ^= b
            buckets[du - 1] |= b
            deg[u] = du - 1
            nbrs ^= b
        if not low and d:
            d -= 1


@given(st.one_of(peeling_graphs(), wide_graphs()), st.data())
@settings(max_examples=300, deadline=None)
def test_peel_order_matches_bucket_queue(g, data):
    mask = data.draw(st.integers(0, g.full_mask))
    kind = data.draw(st.sampled_from(["any", "full", "high ids", "empty"]))
    if kind == "full":
        mask = g.full_mask
    elif kind == "high ids":
        mask &= -(1 << data.draw(st.integers(0, g.n)))
    elif kind == "empty":
        mask = 0
    for side in ("low", "high"):
        assert list(peel_order(g, mask, side)) == list(peel_order_buckets(g, mask, side))


def test_peel_order_rejects_vertices_beyond_the_graph():
    with pytest.raises(ValueError, match="vertex set out of range"):
        peel_order(Graph.path(3), 0b1001, "low")
    assert list(peel_order(Graph.empty(0), 0, "high")) == []


# The vertex-by-vertex loop that Graph.edges_inside ran before it zipped
# the rows with the mask's binary digits, kept verbatim as an oracle.
def edges_inside_loop(self, mask: int) -> int:
    total = 0
    for v in mask_to_ids(mask):
        total += (self.adj[v] & mask).bit_count()
    return total // 2


@given(st.one_of(peeling_graphs(), wide_graphs()), st.data())
@settings(max_examples=300, deadline=None)
def test_edges_inside_matches_vertex_loop(g, data):
    mask = data.draw(st.integers(0, g.full_mask))
    kind = data.draw(st.sampled_from(["any", "full", "high ids", "empty"]))
    if kind == "full":
        mask = g.full_mask
    elif kind == "high ids":
        mask &= -(1 << data.draw(st.integers(0, g.n)))
    elif kind == "empty":
        mask = 0
    assert g.edges_inside(mask) == edges_inside_loop(g, mask)


def test_edges_inside_rejects_vertices_beyond_the_graph():
    with pytest.raises(ValueError, match="vertex set out of range"):
        Graph.path(3).edges_inside(0b1001)
    assert Graph.empty(0).edges_inside(0) == 0


# Six vertices, trivial automorphism group: a triangle 0-1-2 with a
# pendant 4 on 1 and a pendant path 3-5 on 0.
ASYMMETRIC = Pattern.of(
    Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (3, 5)])
)


P5 = Graph.path(5)
HOUSE = complement(P5)
TWO_K2 = Pattern.of(Graph.from_edges(4, [(0, 1), (2, 3)]))
K1_K3 = Pattern.of(Graph.from_edges(4, [(1, 2), (1, 3), (2, 3)]))


def test_automorphism_count_matches_brute_force():
    """|Aut(H)| from the stabilizer chain equals the number of
    edge-preserving permutations, and exactly one automorphism meets every
    symmetry-breaking constraint."""
    import itertools

    graphs = [ASYMMETRIC.graph]
    for h in range(1, 6):
        pairs = list(itertools.combinations(range(h), 2))
        for bits in range(1 << len(pairs)):
            graphs.append(Graph.from_edges(h, [e for i, e in enumerate(pairs) if bits >> i & 1]))
    for h in graphs:
        edges = set(h.edges())
        auts = [
            perm
            for perm in itertools.permutations(range(h.n))
            if {tuple(sorted((perm[u], perm[v]))) for u, v in edges} == edges
        ]
        aut, less = _symmetry(h)
        assert aut == len(auts), h
        kept = [perm for perm in auts if all(perm[a] < perm[b] for a, b in less)]
        assert len(kept) == 1, h
    assert _symmetry(ASYMMETRIC.graph) == (1, ())


def test_automorphism_count_does_not_list_the_group():
    assert _symmetry(Graph.empty(12))[0] == 479001600
    assert _symmetry(Graph.complete(12))[0] == 479001600


def test_small_patterns_are_isomorphism_classes():
    sizes = [pat.size for pat in all_small_patterns(4)]
    assert [sizes.count(h) for h in range(1, 5)] == [1, 2, 4, 11]


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_count_matches_naive_on_every_small_pattern(p):
    patterns = [pat for pat in all_small_patterns(5) if pat.size >= 2]
    assert len(patterns) == 2 + 4 + 11 + 34
    for n, seed in ((6, 3), (8, 4)):
        g = random_graph(n, p, seed)
        for pat in patterns:
            assert count_induced_copies(g, pat) == naive_count(g, pat), (n, pat.graph.edges())


def test_count_edge_cases():
    k1 = named_pattern("K1")
    assert count_induced_copies(Graph.empty(0), k1) == 0
    assert count_induced_copies(Graph.empty(5), k1) == 5
    assert count_induced_copies(Graph.complete(2), named_pattern("K3")) == 0
    assert count_induced_copies(Graph.cycle(4), named_pattern("C5")) == 0
    empty3 = Pattern.of(Graph.empty(3))
    assert count_induced_copies(Graph.empty(6), empty3) == 6 * 5 * 4
    assert count_induced_copies(Graph.empty(6), named_pattern("K3")) == 0
    assert count_induced_copies(Graph.complete(6), named_pattern("K3")) == 6 * 5 * 4
    assert count_induced_copies(Graph.complete(6), empty3) == 0
    assert count_induced_copies(Graph.complete(6), named_pattern("P3")) == 0
    # disconnected patterns: 2K2 has |Aut| = 8, K1+K3 has 6
    assert _symmetry(TWO_K2.graph)[0] == 8 and _symmetry(K1_K3.graph)[0] == 6
    assert count_induced_copies(Graph.cycle(6), TWO_K2) == 8 * 3
    for seed in range(4):
        g = random_graph(8, 0.5, seed)
        for pat in (TWO_K2, K1_K3):
            assert count_induced_copies(g, pat) == naive_count(g, pat), seed
    # the count ranges over all labelled maps, whatever the label order
    c5 = Graph.cycle(5)
    g = random_graph(8, 0.5, 4)
    relabelled = Pattern(c5, (2, 0, 4, 1, 3))
    want = naive_count(g, relabelled)
    assert want > 0
    assert count_induced_copies(g, relabelled) == want == count_induced_copies(g, Pattern.of(c5))


@pytest.mark.parametrize("name", ["K3", "P4", "C4", "C5", "P5", "house", "2K2", "asymmetric"])
def test_count_matches_networkx_graph_matcher(name):
    """A third, independent counting oracle: networkx's node-induced
    subgraph isomorphisms, each one a labelled induced copy."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    def to_nx(g: Graph):
        out = nx.Graph()
        out.add_nodes_from(range(g.n))
        out.add_edges_from(g.edges())
        return out

    pat = {"asymmetric": ASYMMETRIC, "2K2": TWO_K2, "house": Pattern.of(HOUSE)}.get(
        name) or named_pattern(name)
    hx = to_nx(pat.graph)
    if name == "asymmetric":
        assert sum(1 for _ in GraphMatcher(hx, hx).isomorphisms_iter()) == 1
    for n in (6, 10, 14):
        for seed in range(3):
            g = random_graph(n, 0.5, seed)
            oracle = sum(1 for _ in GraphMatcher(to_nx(g), hx).subgraph_isomorphisms_iter())
            assert count_induced_copies(g, pat) == oracle, (n, seed)


def with_at_least_brute(g: Graph, s: int, t: int, k: int) -> int:
    return mask_from_ids(
        v for v in mask_to_ids(s) if sum(g.has_edge(v, u) for u in mask_to_ids(t)) >= k
    )


def degree_range_brute(g: Graph, s: int) -> tuple[int, int]:
    ids = mask_to_ids(s)
    degrees = [sum(g.has_edge(v, u) for u in ids) for v in ids]
    return min(degrees), max(degrees)


@given(st.one_of(peeling_graphs(), wide_graphs()), st.data())
@settings(max_examples=200, deadline=None)
def test_with_at_least_matches_brute_force(g, data):
    s = data.draw(st.integers(0, g.full_mask), label="s")  # empty or overlapping t at times
    t = data.draw(st.integers(0, g.full_mask), label="t")
    if data.draw(st.booleans(), label="t holds s"):
        t |= s
    k = data.draw(st.integers(-2, t.bit_count() + 2), label="k")  # k <= 0 and k > |t| too
    assert with_at_least(g, s, t, k) == with_at_least_brute(g, s, t, k)
    assert with_at_least(g, s, t, 0) == s
    assert with_at_least(g, s, t, t.bit_count() + 1) == 0
    assert with_at_least(g, 0, t, k) == 0


@given(st.one_of(peeling_graphs(), wide_graphs()), st.data())
@settings(max_examples=200, deadline=None)
def test_degree_range_matches_brute_force(g, data):
    if g.n == 0:
        with pytest.raises(ValueError):
            degree_range(g, 0)
        return
    s = data.draw(st.integers(1, g.full_mask), label="s")
    assert degree_range(g, s) == degree_range_brute(g, s)
    lo, hi = degree_range(complement(g), s)
    assert (lo, hi) == (s.bit_count() - 1 - degree_range(g, s)[1],
                        s.bit_count() - 1 - degree_range(g, s)[0])


# ---------------------------------------------------------- 4-vertex counts

FOUR_VERTEX = [pat.graph for pat in all_small_patterns(4) if pat.size == 4]


def backtrack_copies(g: Graph, h: Graph) -> int:
    return _symmetry(h)[0] * induced_sets(g, h)


def test_inclusion_matrix_matches_brute_force():
    """M[i][j] is the number of spanning subgraphs of class i in class j:
    the edge-preserving injections of H_i into H_j, one per automorphism of
    H_i.  The degree key tells the eleven classes apart, M is unitriangular
    and the cached inverse is its inverse."""
    classes, m, inv = _four_vertex_inclusion()
    assert _four_vertex_inclusion() is _four_vertex_inclusion()
    reps = {_degree_key(h): h for h in FOUR_VERTEX}
    assert len(reps) == 11 and sorted(reps) == sorted(classes)
    for i, ki in enumerate(classes):
        hi = reps[ki]
        for j, kj in enumerate(classes):
            maps = sum(
                all(reps[kj].has_edge(perm[u], perm[v]) for u, v in hi.edges())
                for perm in permutations(range(4))
            )
            assert maps % _symmetry(hi)[0] == 0
            assert m[i][j] == maps // _symmetry(hi)[0], (ki, kj)
            if i >= j:
                assert m[i][j] == (i == j)
    size = len(classes)
    for i in range(size):
        for j in range(size):
            assert sum(m[i][k] * inv[k][j] for k in range(size)) == (i == j)


@given(
    st.integers(0, 14),
    st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
    st.integers(0, 10**6),
    st.integers(0, 10),
    st.permutations(range(4)),
)
@settings(max_examples=300, deadline=None)
def test_four_vertex_counts_match_the_oracles(n, p, seed, which, perm):
    """Every 4-vertex class, in a shuffled labelling, on hosts with n < 4 up
    to 14: count_induced_copies equals the backtracker and naive_count, on
    G and on its complement.  The spanning counts of either side, through
    the inverse inclusion matrix, give every class's count, so the route is
    checked on the side with more edges as well."""
    g = random_graph(n, p, seed)
    h = Graph.from_edges(4, [(perm[u], perm[v]) for u, v in FOUR_VERTEX[which].edges()])
    want = backtrack_copies(g, h)
    assert count_induced_copies(g, Pattern.of(h)) == want == naive_count(g, Pattern.of(h))
    assert count_induced_copies(complement(g), Pattern.of(complement(h))) == want
    classes, _, inv = _four_vertex_inclusion()
    for side in (g, complement(g)):
        s = _spanning_counts(side)
        for row, k in zip(inv, classes):
            hk = next(x for x in FOUR_VERTEX if _degree_key(x) == k)
            sets = sum(c * s[kk] for c, kk in zip(row, classes))
            assert sets * _symmetry(hk)[0] == backtrack_copies(side, hk), k


def test_four_vertex_counts_on_a_wide_sparse_host():
    """n = 5000 and m = 10000: the distance-two pairs, not all pairs, are read."""
    rng = random.Random(5000)
    edges = set()
    while len(edges) < 10000:
        edges.add(tuple(sorted(rng.sample(range(5000), 2))))
    g = Graph.from_edges(5000, sorted(edges))
    paw = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    claw = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    for h in (Graph.path(4), Graph.cycle(4), paw, claw):
        assert count_induced_copies(g, Pattern.of(h)) == backtrack_copies(g, h) > 0


def test_cliques_and_edgeless_four_sets_take_the_codegree_route():
    """E4 on the edgeless host of 10**5 vertices and K4 on K300: every
    4-set induces the pattern, so each count is n(n-1)(n-2)(n-3) labelled
    copies.  The codegree route reads them from C(n, 4) in one pass (K4 as
    E4 on the edgeless complement); the backtracker, which visits every
    4-set, did not count E4 on 2,000 vertices in 15 s."""
    for g, h in ((load_graph_text("100000\n"), Graph.empty(4)),
                 (Graph.complete(300), Graph.complete(4))):
        n, pat = g.n, Pattern.of(h)
        assert plan(g, h)[1] == "four"
        start = time.perf_counter()
        assert count_induced_copies(g, pat) == n * (n - 1) * (n - 2) * (n - 3)
        assert time.perf_counter() - start < 1
        assert _peak_mib(lambda: count_induced_copies(g, pat)) < 16


@given(st.integers(0, 2**300), st.integers(0, 400))
@settings(max_examples=200, deadline=None)
def test_ids_lists_every_vertex_of_a_mask(mask, shift):
    for m in (mask, mask << shift, 1 << shift | 1):
        assert mask_to_ids(m) == [v for v in range(m.bit_length()) if m >> v & 1]


# ------------------------------------------------- P5, the house and triangles

# Same degree sequences as P5 and the house, and not isomorphic to either.
K3_K2 = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
K2_3 = Graph.from_edges(5, [(u, v) for u in range(2) for v in range(2, 5)])


def test_path_test_is_exact():
    """is_path holds for P5 in every labelling and for no other of the 34
    classes on five vertices, K3 + K2 (P5's degree sequence) among them."""
    assert _degree_key(K3_K2) == _degree_key(P5) and _degree_key(K2_3) == _degree_key(HOUSE)
    five = [pat.graph for pat in all_small_patterns(5) if pat.size == 5]
    assert len(five) == 34 and sum(map(is_path, five)) == 1
    for perm in permutations(range(5)):
        assert is_path(Graph.from_edges(5, [(perm[u], perm[v]) for u, v in P5.edges()]))
    assert not is_path(K3_K2) and not is_path(HOUSE) and not is_path(Graph.path(4))


@given(
    st.integers(0, 14),
    st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]),
    st.integers(0, 10**6),
    st.sampled_from([P5, HOUSE]),
    st.permutations(range(5)),
)
@settings(max_examples=80, deadline=None)
def test_path_and_house_counts_match_the_oracles(n, p, seed, base, perm):
    """P5 or the house, in a shuffled labelling, on hosts with n < 5 up to
    14: count_induced_copies equals the backtracker and naive_count, on G
    and, as the complement pattern, on its complement.  The cherry identity
    called directly holds on both sides, the denser one included."""
    g = random_graph(n, p, seed)
    h = Graph.from_edges(5, [(perm[u], perm[v]) for u, v in base.edges()])
    want = backtrack_copies(g, h)
    assert count_induced_copies(g, Pattern.of(h)) == want == naive_count(g, Pattern.of(h))
    assert count_induced_copies(complement(g), Pattern.of(complement(h))) == want
    for side in (g, complement(g)):
        assert path_sets(side) == induced_sets(side, P5)


@pytest.mark.parametrize("n,p", [(30, 0.8), (40, 0.6), (25, 0.95)])
def test_path_identity_holds_on_dense_hosts(n, p):
    for seed in range(2):
        g = random_graph(n, p, seed)
        assert path_sets(g) == induced_sets(g, P5)


def test_routes_are_taken_as_planned():
    """count_induced_copies runs the plan's route on the plan's side: the
    four-vertex pass and the cherry pass see the host, or its complement,
    exactly when :func:`plan` says so, and are skipped when it backtracks."""
    seen = []
    hosts = [random_graph(n, p, 1) for n, p in ((12, 0.3), (12, 0.7), (60, 0.5), (80, 0.2))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rpt.fivepath, "path_sets", lambda g: seen.append(g) or 0)
        mp.setattr(rpt.fourvertex, "induced_four_sets", lambda g, h: seen.append(g) or 0)
        for g in hosts:
            for h in (P5, HOUSE, K3_K2, K2_3, Graph.path(4), Graph.cycle(4), Graph.complete(4)):
                seen.clear()
                count_induced_copies(g, Pattern.of(h))
                _, route, flip, _ = plan(g, h)
                assert seen == ([] if route == "backtrack" else [complement(g) if flip else g])
                assert route != "five" or (is_path(h) and not flip or is_path(complement(h)) and flip)


@pytest.mark.parametrize("p", [0.3, 0.7])
def test_degree_twins_of_the_path_and_the_house_count_exactly(p):
    """K3 + K2 and K2,3 share the degrees of P5 and the house; on either side
    of density 1/2 their counts still match naive_count."""
    total = 0
    for seed in range(3):
        g = random_graph(10, p, seed)
        for h in (K3_K2, K2_3):
            got = count_induced_copies(g, Pattern.of(h))
            assert got == naive_count(g, Pattern.of(h)), (seed, h.edges())
            total += got
    assert total > 0


def upper_row_triangles(g: Graph) -> int:
    """triangles as it was before it read the lower rows: one pass over the
    upper rows N+(u), each triangle a bit of N+(u) & N+(v) for its lowest
    vertex u and its middle vertex v."""
    up = [row & -(2 << u) for u, row in enumerate(g.adj)]
    return sum(
        sum(map(int.bit_count, map(a.__and__, map(up.__getitem__, mask_to_ids(a))))) for a in up if a
    )


@given(st.one_of(peeling_graphs(), wide_graphs()))
@settings(max_examples=100, deadline=None)
def test_triangle_pass_matches_the_backtracker(g):
    k3, e3 = Graph.complete(3), Graph.empty(3)
    assert triangles(g) == induced_sets(g, k3) == upper_row_triangles(g)
    assert count_induced_copies(g, Pattern.of(k3)) == 6 * induced_sets(g, k3)
    assert count_induced_copies(g, Pattern.of(e3)) == 6 * induced_sets(g, e3)


def test_triangles_on_a_wide_sparse_host():
    """n = 20000 and m = 40000: the lower rows are sparse and read through
    mask_to_ids; a dense one is read by compress."""
    rng = random.Random(20000)
    edges = set()
    while len(edges) < 40000:
        edges.add(tuple(sorted(rng.sample(range(20000), 2))))
    # one dense lower row: vertex 200 joined to every vertex below it
    edges |= {(v, 200) for v in range(200)}
    g = Graph.from_edges(20000, sorted(edges))
    assert g.adj[200] & (1 << 200) - 1 == (1 << 200) - 1
    assert triangles(g) == upper_row_triangles(g) > 0


def test_wide_sparse_random_graphs_take_the_per_edge_steps():
    """8,000 vertices and 16,000 random edges: the rows' bit lengths allow an
    8192 x 8192 matrix (8 MiB), their edges do not, so the symmetry check
    takes a step per edge.  count's sparsest host, G(80, 1/10), still packs."""
    rng = random.Random(8000)
    edges = set()
    while len(edges) < 16000:
        edges.add(tuple(sorted(rng.sample(range(8000), 2))))
    rows = list(Graph.from_edges(8000, sorted(edges)).adj)
    assert not _packs(rows, 8192)
    assert _peak_mib(lambda: Graph(8000, tuple(rows))) < 2
    assert _packs(random_graph(80, 0.1, 1).adj, 128)


# ------------------------------------------------- the backtracker's loop nest


def reference_backtrack(g: Graph, links, parts: list[int] | None) -> int:
    """Injective maps phi meeting ``links``, placed one position at a time.

    ``masks[m]`` holds the images still open to a later position m (capped
    by ``parts[m]`` when parts are given).  Placing x at position k ANDs
    each of them with the row of x in the table for the (k, m) link: the
    neighbours of x, or its non-neighbours other than x, cut to the ids
    above x (``& -(2 << x)``) or below it (``& (1 << x) - 1``) when an order
    constraint ties the two positions.  Both rows exclude x, so injectivity
    needs no used set.  The last position is counted with ``bit_count``.
    """
    # The recursive kernel that graph._count_backtrack replaced: one call and
    # one list per node above the last position.  Kept as its oracle.
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
    last = hn - 1

    def rec(k: int, masks: list[int]) -> int:
        cand, rest = masks[0], masks[1:]
        rows = later[k]
        total = 0
        if k + 1 == last:
            (row,), (mask,) = rows, rest
            while cand:
                low = cand & -cand
                total += (mask & row[low.bit_length() - 1]).bit_count()
                cand ^= low
            return total
        while cand:
            low = cand & -cand
            x = low.bit_length() - 1
            new = [mask & row[x] for row, mask in zip(rows, rest)]
            if all(new):
                total += rec(k + 1, new)
            cand ^= low
        return total

    return rec(0, masks)


def maps_into_parts(g: Graph, pat: Pattern, parts) -> int:
    """Labelled induced copies with phi(v_i) in parts[i-1], by enumerating
    every tuple of the parts' product."""
    order = pat.order
    return sum(
        len(set(phi)) == len(phi)
        and all(
            g.has_edge(phi[i], phi[j]) == pat.graph.has_edge(order[i], order[j])
            for i, j in combinations(range(len(phi)), 2)
        )
        for phi in product(*map(mask_to_ids, parts))
    )


@given(st.integers(1, 6), st.integers(0, 16), st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
       st.integers(0, 10**6), st.sampled_from(["none", "disjoint", "within"]), st.data())
@settings(max_examples=400, deadline=None)
def test_loop_nest_matches_the_recursive_backtracker(h, n, p, seed, kind, data):
    """Any pattern on 1 to 6 vertices, placed in any position order with the
    symmetry-breaking constraints of :func:`_symmetry`, on hosts with n = 0
    to 16: the loop nest counts what the recursive kernel counts, without
    parts, with random disjoint parts (some of them empty) and with one
    shared ``within`` mask."""
    pairs = list(combinations(range(h), 2))
    bits = data.draw(st.integers(0, (1 << len(pairs)) - 1), label="edges")
    pattern = Graph.from_edges(h, [e for i, e in enumerate(pairs) if bits >> i & 1])
    order = data.draw(st.permutations(range(h)), label="order")
    links = _links(pattern, order, _symmetry(pattern)[1])
    g = random_graph(n, p, seed)
    if kind == "none":
        parts = None
    elif kind == "disjoint":
        labels = data.draw(st.lists(st.integers(-1, h - 1), min_size=n, max_size=n), label="labels")
        parts = [mask_from_ids(v for v, i in enumerate(labels) if i == k) for k in range(h)]
    else:
        parts = [data.draw(st.integers(0, g.full_mask), label="within")] * h
    want = reference_backtrack(g, links, None if parts is None else list(parts))
    assert _count_backtrack(g, links, None if parts is None else list(parts)) == want


@pytest.mark.parametrize("h", [1, 2, 3])
def test_backtracker_at_one_two_and_three_positions(h):
    """Three positions are the fewest that reach the loop nest; one and two
    are counted before it.  Every pattern of each size, on hosts of 0 to 9
    vertices, whole and cut into disjoint parts."""
    for pat in [q for q in all_small_patterns(3) if q.size == h]:
        for n, p, seed in ((0, 0.5, 0), (1, 0.5, 0), (2, 1.0, 0), (3, 0.0, 0), (7, 0.5, 1),
                           (9, 0.3, 2), (9, 0.8, 3)):
            g = random_graph(n, p, seed)
            assert _symmetry(pat.graph)[0] * induced_sets(g, pat.graph) == naive_count(g, pat)
            rng = random.Random(seed)
            labels = [rng.randrange(-1, h) for _ in range(n)]
            parts = [mask_from_ids(v for v, i in enumerate(labels) if i == k) for k in range(h)]
            assert count_embeddings_into_parts(g, pat, parts) == maps_into_parts(g, pat, parts)


def test_backtracker_with_more_positions_than_vertices():
    for pat in all_small_patterns(5):
        for n in range(pat.size):
            g = random_graph(n, 0.5, n)
            assert induced_sets(g, pat.graph) == 0 == naive_count(g, pat)
            parts = [1 << k if k < n else 0 for k in range(pat.size)]
            assert count_embeddings_into_parts(g, pat, parts) == 0


def test_backtracker_with_an_empty_part():
    """An empty part at any position gives no copy; refilled with one
    vertex, the same parts give one copy per choice from the others."""
    g = Graph.complete(12)
    for size in (2, 3, 4, 5):
        pat = Pattern.of(Graph.complete(size))
        for k in range(size):
            parts = [0 if i == k else 1 << i | 1 << (i + size) for i in range(size)]
            assert count_embeddings_into_parts(g, pat, parts) == 0 == maps_into_parts(g, pat, parts)
            parts[k] = 1 << (2 * size)
            assert count_embeddings_into_parts(g, pat, parts) == 2 ** (size - 1)


def test_backtracker_with_a_part_that_empties_at_the_last_position():
    """The last position's part keeps a candidate until the position before
    it is placed, and only then runs empty."""
    k3 = Pattern.of(Graph.complete(3))
    g = Graph.from_edges(4, [(0, 1), (0, 3)])
    parts = [0b0001, 0b0010, 0b1100]
    assert count_embeddings_into_parts(g, k3, parts) == 0 == maps_into_parts(g, k3, parts)
    # K4: vertex 3 drops out at vertex 2, vertex 4 at vertex 1; vertex 5 stays
    k4 = Pattern.of(Graph.complete(4))
    edges = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (2, 4)]
    g = Graph.from_edges(6, edges)
    parts = [0b0001, 0b0010, 0b0100, 0b11000]
    assert count_embeddings_into_parts(g, k4, parts) == 0 == maps_into_parts(g, k4, parts)
    g = Graph.from_edges(6, edges + [(0, 5), (1, 5), (2, 5)])
    parts[3] |= 1 << 5
    assert count_embeddings_into_parts(g, k4, parts) == 1 == maps_into_parts(g, k4, parts)


def test_within_that_cuts_every_candidate_at_the_second_to_last_position():
    """K3 inside an independent set, and K4 inside a perfect matching: each
    first vertex leaves the next position open, and every candidate there
    leaves the second-to-last position nothing.  The clique outside the
    mask is still counted without it."""
    matching = [(2 * i, 2 * i + 1) for i in range(4)]
    clique = [(u, v) for u in range(8, 12) for v in range(u + 1, 12)]
    g = Graph.from_edges(12, matching + clique)
    k3, k4 = Graph.complete(3), Graph.complete(4)
    evens = mask_from_ids(range(0, 8, 2))
    assert induced_sets(g, k3, within=evens) == 0 == induced_sets(g, Graph.complete(2), within=evens)
    assert induced_sets(g, k4, within=0xFF) == 0 and induced_sets(g, Graph.complete(2), within=0xFF) == 4
    assert induced_sets(g, k3) == 4 and induced_sets(g, k4) == 1
    for h, within in ((k3, evens), (k4, 0xFF), (k4, 0xFFF)):
        pat = Pattern.of(h)
        sub, _ = induced_subgraph(g, within)
        assert _symmetry(h)[0] * induced_sets(g, h, within=within) == naive_count(sub, pat)


# ------------------------------------------------------------------ the plan

ROUTE_PATTERNS = FOUR_VERTEX + [P5, HOUSE, K3_K2, K2_3]


def counted_work(g: Graph, links, parts: list[int] | None = None) -> float:
    """The work that costmodel.best_order predicts, counted on G by an
    instrumented copy of graph._count_backtrack: each node above the last three
    positions and its ANDs, each candidate at the third from the end, the
    bits of the smaller of its last two masks (the side the walk takes),
    and a row of each table built."""
    hn = len(links)
    full = g.full_mask
    masks = [full] * hn if parts is None else parts
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
    work = _ROW * g.n * len(tables)
    a = hn - 3

    def rec(k: int, masks: list[int]) -> None:
        nonlocal work
        cand, rest = masks[0], masks[1:]
        for x in mask_to_ids(cand):
            if k == a:
                work += _LAST
                cb, m = rest[0] & later[a][0][x], rest[1] & later[a][1][x]
                if cb and m:
                    work += min(cb.bit_count(), m.bit_count())
                continue
            work += _NODE + _AND * len(rest)
            new = [mask & row[x] for row, mask in zip(later[k], rest)]
            if all(new):
                rec(k + 1, new)

    rec(0, masks)
    return work


def counted_route_work(route: str, g: Graph) -> float:
    """A route's work counted on G in the units of costmodel.route_work: its
    passes' events, exactly, plus the counted work of the K4 or C5 count it
    backtracks in its planned order."""
    adj, n, m = g.adj, g.n, g.edge_count()
    if route == "four":
        far, rich = 0, 0
        for u in range(n):
            once = twice = 0
            for v in mask_to_ids(adj[u]):
                twice |= once & adj[v]
                once |= adj[v]
            far += (twice & ~adj[u] & -(2 << u)).bit_count()
            if sum((adj[u] & adj[v]).bit_count() for v in mask_to_ids(adj[u])) >= 6:
                rich |= 1 << u
        passes = _FOUR[0] * sum(map(bool, adj)) + _FOUR[1] * 2 * m + _FOUR[2] * far
        h, parts = Graph.complete(4), [rich] * 4
        order = plan(g, h, rich)[3]
    else:
        cherries = 0
        for c in range(n):
            live = mask_from_ids(b for b in mask_to_ids(adj[c]) if adj[b] & ~(adj[c] | 1 << c))
            cherries += sum((live & ~adj[b] & -(2 << b)).bit_count() for b in mask_to_ids(live))
        passes = _FIVE[0] * n + _FIVE[1] * 2 * m + _FIVE[2] * cherries
        h, parts = Graph.cycle(5), None
        order = plan(g, h, g.full_mask)[3]
    return passes + counted_work(g, _links(h, order, _symmetry(h)[1]), parts)


def all_plans(g: Graph, h: Graph, orders) -> list[tuple[str, bool, tuple[int, ...]]]:
    """Every plan for H: the backtracker in each of ``orders``, and each
    route, on each side, that H can take."""
    plans = [("backtrack", False, tuple(order)) for order in orders]
    if h.n <= 3:
        plans.append(("closed", False, ()))
    if h.n == 4:
        plans += [("four", False, ()), ("four", True, ())]
    plans += [("five", flip, ()) for flip in (False, True)
              if is_path(complement(h) if flip else h)]
    return plans


@given(st.integers(1, 6), st.integers(0, 14), st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
       st.integers(0, 10**6), st.data())
@settings(max_examples=300, deadline=None)
def test_every_plan_gives_the_backtracked_count(h, n, p, seed, data):
    """Every plan, forced: the routes on either side they apply to, the
    closed forms, and the backtracker in any position order, count what the
    recursive kernel counts, on patterns of 1 to 6 vertices (a route's
    pattern in a shuffled labelling, or any graph) and hosts of 0 to 14
    vertices.  With ``within``, and with any mask per position, the loop
    nest matches the kernel too, its last link's order constraint walked
    from whichever side is smaller."""
    if h in (4, 5) and data.draw(st.booleans(), label="route pattern"):
        base = data.draw(st.sampled_from([x for x in ROUTE_PATTERNS if x.n == h]), label="base")
        perm = data.draw(st.permutations(range(h)), label="perm")
        pattern = Graph.from_edges(h, [(perm[u], perm[v]) for u, v in base.edges()])
    else:
        pairs = list(combinations(range(h), 2))
        bits = data.draw(st.integers(0, (1 << len(pairs)) - 1), label="edges")
        pattern = Graph.from_edges(h, [e for i, e in enumerate(pairs) if bits >> i & 1])
    g = random_graph(n, p, seed)
    less = _symmetry(pattern)[1]
    want = reference_backtrack(g, _links(pattern, range(h), less), None)
    order = data.draw(st.permutations(range(h)), label="order")
    for route, flip, o in all_plans(g, pattern, [order]):
        assert sets_by_plan(g, pattern, route, flip, o) == want, (route, flip, o)
    assert count_induced_copies(g, Pattern.of(pattern)) == _symmetry(pattern)[0] * want
    within = data.draw(st.integers(0, g.full_mask), label="within")
    links = _links(pattern, plan(g, pattern, within)[3], less)
    assert induced_sets(g, pattern, within) == reference_backtrack(g, links, [within] * h)
    links = _links(pattern, order, less)
    masks = data.draw(st.lists(st.integers(0, g.full_mask), min_size=h, max_size=h), label="masks")
    assert _count_backtrack(g, links, list(masks)) == reference_backtrack(g, links, list(masks))


def test_the_last_link_is_walked_from_either_side():
    """The last two masks are walked on their smaller side, the last one
    through the table that reverses the last link's order constraint.
    Orders of K2, K3, P3 and their complements whose last link carries a
    constraint, with masks that make either side the smaller."""
    constrained = 0
    for h in (Graph.complete(2), Graph.empty(2), Graph.complete(3), Graph.empty(3), Graph.path(3),
              complement(Graph.path(3))):
        less = _symmetry(h)[1]
        for order in permutations(range(h.n)):
            links = _links(h, order, less)
            constrained += links[-2][0][1] != 0
            for seed in range(3):
                g = random_graph(16, 0.5, seed)
                wide, narrow = g.full_mask ^ 0b111, 0b110001001
                for last in ([wide, narrow], [narrow, wide]):
                    masks = [g.full_mask] * (h.n - 2) + last
                    assert _count_backtrack(g, links, list(masks)) == reference_backtrack(
                        g, links, list(masks))
    assert constrained >= 8


@given(st.integers(0, 40), st.floats(0, 1), st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_closed_forms_match_the_backtracker(n, p, seed):
    """Every pattern on at most three vertices, on hosts of 0 to 40 vertices
    at densities 0 to 1: the closed forms count what the backtracker does."""
    g = random_graph(n, p, seed)
    for pat in all_small_patterns(3):
        assert small_sets(g, pat.graph) == induced_sets(g, pat.graph), pat.graph.edges()
        assert plan(g, pat.graph)[1] == "closed"


def test_small_patterns_cost_the_rows_on_a_large_edgeless_host(tmp_path):
    """Every pattern on at most three vertices, named or read from a file,
    counted on the edgeless host of 10**6 vertices: no table of n-bit
    non-neighbour rows (a P3 count on 40,000 vertices peaked at 431 MB)."""
    from rpt.cli import _load_pattern

    g = load_graph_text("1000000\n")
    pats = [named_pattern(name) for name in ("K1", "K2", "K3", "P2", "P3")]
    for k, edges in enumerate(([], [(0, 1)])):
        path = tmp_path / f"h{k}.el"
        path.write_text(to_edge_list(Graph.from_edges(3, edges)))
        pats.append(_load_pattern(str(path)))
    n = 10**6
    want = {(1, 0): n, (2, 0): 0, (2, 1): 0, (3, 0): n * (n - 1) * (n - 2), (3, 1): 0, (3, 2): 0,
            (3, 3): 0}
    for pat in pats:
        assert _peak_mib(lambda: count_induced_copies(g, pat)) < 64
        assert count_induced_copies(g, pat) == want.get((pat.size, pat.graph.edge_count()))


def test_commented_text_holds_one_line_list():
    """A commented G(1024, 1/2) goes to the line parser, which reads the
    text one line at a time, as does the format detection.  The load peaks
    well below one list of the text's lines (16.3 MiB), at about 0.8 MiB;
    splitting the text once peaked at 16.3 MiB, twice at 32.5 MiB."""
    g = random_graph(1024, 0.5, 1)
    text = "# a comment\n" + to_edge_list(g)
    assert load_graph_text(text) == g
    lines = text.splitlines()
    one_list = (sys.getsizeof(lines) + sum(map(sys.getsizeof, lines))) / 2**20
    del lines
    assert _peak_mib(lambda: load_graph_text(text)) < 0.1 * one_list


NAMED_ROUTED = ["P4", "C4", "K4", "P5", "C5", "K5"]  # the named patterns on more than 3 vertices


@pytest.mark.parametrize("name", NAMED_ROUTED)
def test_predicted_work_matches_counted_work(name):
    """best_order's predicted work for its order is within a few tens of
    percent of the work counted on G(60, p) by the instrumented copy."""
    h = named_pattern(name).graph
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        g = random_graph(60, p, 2)
        work, order = best_order(h, g.n, float(edge_density(g)))
        counted = counted_work(g, _links(h, order, _symmetry(h)[1]))
        assert 0.8 <= work / counted <= 1.3, (p, work, counted)


@pytest.mark.parametrize("p", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
def test_plan_does_near_the_least_counted_work(p):
    """On G(60, p), each named pattern on more than three vertices: the
    plan's counted work is within 1.25 times the least over every plan,
    every position order of the backtracker (the last two taken in either
    order walk alike) and every route and side."""
    g = random_graph(60, p, 1)
    for name in NAMED_ROUTED:
        h = named_pattern(name).graph
        less = _symmetry(h)[1]
        orders = [o for o in permutations(range(h.n)) if o[-2] < o[-1]]
        work = {}
        for route, flip, order in all_plans(g, h, orders):
            if route == "backtrack":
                work[route, flip, order] = counted_work(g, _links(h, order, less))
            else:
                work[route, flip, order] = counted_route_work(route, complement(g) if flip else g)
        _, route, flip, order = plan(g, h)
        key = (route, flip, order if route == "backtrack" else ())
        assert work[key] <= 1.25 * min(work.values()), (name, key)


def test_plan_keeps_the_measured_choices():
    """The choices measured on the count benchmark's kind of host: C4 on
    G(100, 1/2) backtracks, whose route's K4 count costs as much as C4
    itself; P4 there and on G(150, 1/5), and P5 on G(60, 1/2), take their
    routes; C5 on 70 vertices at densities 0.49, 0.5 and 0.51 places vertex 0
    and its two neighbours first, where the greedy order it replaced took
    [0, 2, 3, 1, 4], twice as slow, past density 1/2."""
    for seed in (1, 2):
        assert plan(random_graph(100, 0.5, seed), Graph.cycle(4))[1] == "backtrack"
        assert plan(random_graph(100, 0.5, seed), Graph.path(4))[1] == "four"
        assert plan(random_graph(150, 0.2, seed), Graph.path(4))[1:3] == ("four", False)
        assert plan(random_graph(60, 0.5, seed), P5)[1:3] == ("five", False)
    for p in (0.49, 0.5, 0.51):
        work, order = best_order(Graph.cycle(5), 70, p)
        assert order[:3] in ((0, 1, 4), (1, 0, 4), (0, 4, 1), (4, 0, 1), (1, 4, 0), (4, 1, 0))


def test_best_order_past_ten_vertices_is_greedy():
    # past 10 vertices the order puts next the vertex with most edges to
    # those placed, lowest id first, and predicts no work; the path P11
    # has 2n labelled induced copies in the cycle C_n for n >= 13
    p11 = Graph.path(11)
    assert best_order(p11, 14, 1 / 7) == (float("inf"), tuple(range(11)))
    star = Graph.from_edges(11, [(5, v) for v in range(11) if v != 5])
    assert best_order(star, 20, 0.5)[1] == (0, 5, 1, 2, 3, 4, 6, 7, 8, 9, 10)
    for n in (13, 14, 20):
        assert count_induced_copies(Graph.cycle(n), Pattern.of(p11)) == 2 * n
