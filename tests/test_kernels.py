"""The C-level kernels of rpt.graph against the Python loops they replaced,
and the graphs built without the full check against that check."""

import random
from fractions import Fraction
from math import ceil, floor

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_graph
from rpt.graph import (
    Graph,
    GraphParseError,
    _pack,
    complement,
    degree_range,
    from_edge_list,
    induced_subgraph,
    load_graph_text,
    mask_from_ids,
    mask_to_ids,
    to_edge_list,
    with_at_least,
)
from rpt.values import ceil_frac, floor_frac


# The loops the kernels replaced, kept verbatim as oracles.


def old_iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def old_with_at_least(g: Graph, s: int, t: int, k: int) -> int:
    adj = g.adj
    return mask_from_ids(v for v in old_iter_bits(s) if (adj[v] & t).bit_count() >= k)


def old_degree_range(g: Graph, s: int) -> tuple[int, int]:
    adj = g.adj
    degrees = [(adj[v] & s).bit_count() for v in old_iter_bits(s)]
    return min(degrees), max(degrees)


def old_pack(rows, w: int) -> int:
    return int.from_bytes(b"".join(row.to_bytes(w // 8, "little") for row in rows), "little")


def old_from_edge_list(text: str) -> Graph:
    n = None
    rows: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
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


@st.composite
def masks(draw, width: int | None = None) -> int:
    """Masks that are empty, a single bit, wide and sparse, dense, or with
    exactly one bit in 16 of their length: at the dense/sparse rule of
    mask_to_ids, and one bit either side of it."""
    width = width or draw(st.integers(1, 2000))
    kind = draw(st.sampled_from(["empty", "single", "sparse", "dense", "rule"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "empty":
        return 0
    if kind == "single":
        return 1 << draw(st.integers(0, width - 1))
    if kind == "rule" and width >= 16:
        length = 16 * draw(st.integers(1, width // 16))
        count = length // 16 + draw(st.sampled_from([-1, 0, 1]))
        if not count:
            return 0
        return mask_from_ids(rng.sample(range(length - 1), count - 1)) | 1 << (length - 1)
    p = draw(st.floats(0.0, 1 / 32)) if kind == "sparse" else draw(st.floats(1 / 16, 1.0))
    return mask_from_ids(v for v in range(width) if rng.random() < p)


@given(masks())
@settings(max_examples=300)
@example(0)
@example(1)
@example(1 << 1999)
@example((1 << 16) | 1)  # 2 bits in 17: sparse
@example((1 << 15) | 1)  # 2 bits in 16: dense
def test_mask_to_ids_matches_the_generator(mask):
    assert mask_to_ids(mask) == list(old_iter_bits(mask))


@st.composite
def graph_and_sets(draw):
    n = draw(st.integers(1, 200))
    g = random_graph(n, draw(st.floats(0.0, 1.0)), draw(st.integers(0, 10**6)))
    return g, draw(masks(n)), draw(masks(n))


@given(graph_and_sets(), st.integers(-2, 60))
@settings(max_examples=200)
def test_with_at_least_matches_the_loop(case, k):
    g, s, t = case
    assert with_at_least(g, s, t, k) == old_with_at_least(g, s, t, k)


@given(graph_and_sets())
@settings(max_examples=100)
def test_degree_range_matches_the_loop(case):
    g, s, _ = case
    if s:
        assert degree_range(g, s) == old_degree_range(g, s)


@given(st.integers(0, 6).map(lambda j: 8 << j), st.data())
@settings(max_examples=100)
def test_pack_matches_the_loop(w, data):
    rows = data.draw(st.lists(masks(w), max_size=w))
    assert _pack(rows, w) == old_pack(rows, w)


@given(st.fractions(0, 1).filter(bool), st.integers(0, 10**6))
@settings(max_examples=300)
@example(Fraction(1), 10**6)
@example(Fraction(1, 10**6), 10**6)
@example(Fraction(999_999, 10**6), 10**6 - 1)
def test_integer_thresholds_match_the_fractions(q, k):
    assert floor_frac(q, k) == floor(q * k) == floor_frac(q * k)
    assert ceil_frac(q, k) == ceil(q * k) == ceil_frac(q * k)


@st.composite
def edge_list_texts(draw) -> str:
    n = draw(st.integers(0, 300))
    g = random_graph(n, draw(st.floats(0.0, 1.0)), draw(st.integers(0, 10**6)))
    return to_edge_list(g)


def _full_check(g: Graph) -> Graph:
    """The graph rebuilt through the public, fully checked constructor."""
    return Graph(g.n, tuple(g.adj))


@given(edge_list_texts(), st.data())
@settings(max_examples=60, deadline=None)
def test_derived_graphs_pass_the_full_check(text, data):
    """Every graph the clean loader, complement and induced_subgraph build
    without the check passes it, and the loader agrees with the line
    parser."""
    g = load_graph_text(text)
    assert _full_check(g) == g == from_edge_list(text)
    gc = complement(g)
    assert _full_check(gc) == gc
    mask = data.draw(masks(g.n)) if g.n else 0
    sub, ids = induced_subgraph(g, mask)
    assert _full_check(sub) == sub and ids == mask_to_ids(mask)
    sub_c, _ = induced_subgraph(gc, mask)
    assert _full_check(sub_c) == sub_c == complement(sub)


# Every line break str.splitlines knows, "\r\n" among them.
BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
LINES = ["3", "4", "0 1", "1 2", "0 2", "2 3", "1 1", "2 1", "0 9", "x", "0 1 2", "-1",
         "# note", "", "  ", "\t0 1 ", "0\x1f1"]


@given(st.lists(st.tuples(st.sampled_from(LINES), st.sampled_from(BREAKS)), max_size=12),
       st.booleans())
@settings(max_examples=300)
@example([("3", "\r\n"), ("0 1", "\u2028"), ("1 2", "\x85")], True)
@example([("# c", "\r"), ("\n", "\n")], False)
def test_line_parser_matches_the_split_text(lines, final_break):
    """The line-at-a-time parser against the split-text one: the same graph,
    or the same error at the same line."""
    text = "".join(line + brk for line, brk in lines)
    if lines and not final_break:
        text = text[: -len(lines[-1][1])]

    def outcome(parse):
        try:
            return parse(text)
        except GraphParseError as exc:
            return str(exc), exc.line

    assert outcome(from_edge_list) == outcome(old_from_edge_list)
    data = [line.strip() for line in text.splitlines()
            if line.strip() and not line.strip().startswith("#")]
    if data and data[0].split()[0].lstrip("-").isdigit():  # detected as an edge list
        assert outcome(load_graph_text) == outcome(old_from_edge_list)
