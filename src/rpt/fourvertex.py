"""Induced counts of 4-vertex patterns from codegrees and one clique count.

For every 4-vertex H, K4 and the empty graph included, the number of
vertex sets of G inducing H follows from degree and codegree sums plus the
number of K4s (Kloks, Kratsch & Mueller, Inf. Process. Lett. 74, 2000).
One pass over G gives S(H'), the spanning-subgraph count of every
4-vertex class H'; the backtracker of :mod:`rpt.graph` counts the K4s;
and the inverse of the classes' unitriangular inclusion matrix turns the
S(H') into induced counts.  :func:`rpt.graph.plan` picks by predicted
cost whether the pass runs on G, on its complement (for the complement
class) or not at all, and :func:`rpt.graph.sets_by_plan` imports this
module when a plan takes it.  Formulas and proofs: docs/four-vertex-counts.md.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import accumulate, compress
from operator import and_, mul, or_

from .graph import Graph, induced_sets, mask_from_ids, mask_to_ids


def _degree_key(h: Graph) -> tuple[int, ...]:
    """The sorted degree sequence: a complete invariant on four vertices."""
    return tuple(sorted(map(int.bit_count, h.adj)))


@lru_cache(maxsize=1)
def _four_vertex_inclusion():
    """The eleven 4-vertex classes, the inclusion matrix M and its inverse.

    Classes are degree keys (:func:`_degree_key`) sorted by edge count.
    M[i][j] is the number of spanning subgraphs of class i in one graph of
    class j, found by trying every edge subset of it.  A spanning subgraph
    has fewer edges than its host unless it is the host, so M is
    unitriangular.  Its inverse is M with the sign (-1)^(e_j - e_i), the
    inclusion-exclusion over the edges a spanning subgraph leaves out.
    """
    pairs = [(u, v) for v in range(4) for u in range(v)]

    def key(edges) -> tuple[int, ...]:
        return _degree_key(Graph.from_edges(4, edges))

    def subsets(edges):
        for bits in range(1 << len(edges)):
            yield [e for k, e in enumerate(edges) if bits >> k & 1]

    reps: dict[tuple[int, ...], list] = {}
    for edges in subsets(pairs):
        reps.setdefault(key(edges), edges)
    classes = sorted(reps, key=lambda k: (sum(k), k))
    index = {k: i for i, k in enumerate(classes)}
    m = [[0] * len(classes) for _ in classes]
    for j, k in enumerate(classes):
        for edges in subsets(reps[k]):
            m[index[key(edges)]][j] += 1
    # a key sums to twice the edge count, so e_j - e_i is even iff 4 | the difference
    inv = [[x if (sum(kj) - sum(ki)) % 4 == 0 else -x for kj, x in zip(classes, row)]
           for ki, row in zip(classes, m)]
    return tuple(classes), tuple(map(tuple, m)), tuple(map(tuple, inv))


def _spanning_counts(g: Graph) -> dict[tuple[int, ...], int]:
    """S(H) for every 4-vertex class H: the 4-sets X of G with a spanning
    subgraph of G[X] of class H, each counted once per such subgraph.

    One pass over the vertices u with a neighbour ORs the rows of N(u) into
    the vertices with at least one, and with at least two, neighbours in
    N(u).  The codegree c_uv = |N(u) & N(v)|, one ``bit_count``, is read
    only where it can be nonzero: on the edges uv with v in the first set,
    and on the non-edges uv with u < v and v in the second, the only pairs
    that add to the sum of C(c_uv, 2) besides the edges.  K4 comes from the
    backtracker, run on the vertices in three triangles or more, the only
    ones a K4 can use.
    """
    adj, n = g.adj, g.n
    deg = list(map(int.bit_count, adj))
    m = sum(deg) // 2
    wedges = sum(d * (d - 1) for d in deg) // 2
    # each edge sum runs over both ends of every edge, so twice over E
    triangles6 = paws2 = diamonds4 = paths2 = far2 = 0
    rich = []
    for u in compress(range(n), adj):
        a, d = adj[u], deg[u]
        ids = mask_to_ids(a)
        paths2 += (d - 1) * (sum(map(deg.__getitem__, ids)) - d)
        rows = list(map(adj.__getitem__, ids))
        before = list(accumulate(rows, or_))  # before[i]: the union of rows[:i + 1]
        tri = a & before[-1]  # the neighbours v with c_uv > 0
        tri_rows = rows if tri == a else map(adj.__getitem__, mask_to_ids(tri))
        cs = list(map(int.bit_count, map(a.__and__, tri_rows)))
        t2 = sum(cs)  # twice the triangles at u
        if t2 >= 6:
            rich.append(u)
        triangles6 += t2
        paws2 += t2 * (d - 2)
        diamonds4 += sum(map(mul, cs, cs)) - t2
        twos = reduce(or_, map(and_, rows[1:], before), 0) & ~a & -(2 << u)
        if twos:
            cs = list(map(int.bit_count, map(a.__and__, map(adj.__getitem__, mask_to_ids(twos)))))
            far2 += sum(map(mul, cs, cs)) - sum(cs)
    t = triangles6 // 6
    diamonds = diamonds4 // 4
    rest = n - 3
    return {
        (0, 0, 0, 0): n * (n - 1) * (n - 2) * (n - 3) // 24,  # E4
        (0, 0, 1, 1): m * (n - 2) * rest // 2,  # K2 + 2K1
        (0, 1, 1, 2): wedges * rest,  # P3 + K1
        (1, 1, 1, 1): m * (m - 1) // 2 - wedges,  # 2K2
        (0, 2, 2, 2): t * rest,  # K3 + K1
        (1, 1, 1, 3): sum(d * (d - 1) * (d - 2) for d in deg) // 6,  # claw
        (1, 1, 2, 2): paths2 // 2 - 3 * t,  # P4
        (1, 2, 2, 3): paws2 // 2,  # paw
        (2, 2, 2, 2): (diamonds + far2 // 2) // 2,  # C4
        (2, 2, 3, 3): diamonds,  # diamond
        (3, 3, 3, 3): induced_sets(g, Graph.complete(4), mask_from_ids(rich)) if rich else 0,  # K4
    }


def induced_four_sets(g: Graph, h: Graph) -> int:
    """Vertex sets of G inducing the 4-vertex graph H: the row of H's class
    in the inverse inclusion matrix applied to the spanning counts S(H')."""
    classes, _, inv = _four_vertex_inclusion()
    s = _spanning_counts(g)
    return sum(c * s[k] for c, k in zip(inv[classes.index(_degree_key(h))], classes))
