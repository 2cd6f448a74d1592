"""Induced counts of P5 and the house from induced cherries and one C5 count.

Call b-c-d an induced cherry when b and d are neighbours of c and b, d are
not adjacent.  A pair (a, e) with a in N(b) - (N[c] | N(d)) and e in
N(d) - (N[c] | N(b)) closes an induced P5 a-b-c-d-e when a, e are not
adjacent, and an induced C5 when they are.  A P5 has one middle cherry and
a C5 has five, so

    ind(P5) = sum over induced cherries of |A| * |E|  -  5 * ind(C5),

with A and E those two sets.  The sum is one pass over the cherries; the
backtracker of :mod:`rpt.graph` counts the C5s.  :func:`rpt.graph.plan`
picks the route, for P5 on G or the house as P5 on the complement, by
predicted cost, and :func:`rpt.graph.sets_by_plan` imports this module
when a plan takes it.  Identity, proof and cost terms are in
docs/five-vertex-paths.md.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import mul, sub

from .graph import Graph, induced_sets, mask_to_ids


def cherry_sum(g: Graph) -> int:
    """The sum over induced cherries b-c-d of G of |A| * |E|, where
    A = N(b) - (N[c] | N(d)) and E = N(d) - (N[c] | N(b)).

    For each c, the rows of N(c) are cut to the vertices outside N[c]:
    out[b] = N(b) - N[c].  Then A = out[b] - out[d] and E = out[d] - out[b],
    so with k = |out[b] & out[d]| a cherry adds (|out[b]| - k)(|out[d]| - k),
    one ``bit_count`` per cherry.  Only b and d with out nonzero can add, and
    each cherry is read once, from its lower end b.
    """
    adj = g.adj
    out = [0] * g.n
    size = [0] * g.n
    total = 0
    for c in compress(range(g.n), adj):
        a = adj[c]
        keep = ~(a | 1 << c)
        live = 0
        for b in mask_to_ids(a):
            row = adj[b] & keep
            if row:
                out[b] = row
                size[b] = row.bit_count()
                live |= 1 << b
        for b in mask_to_ids(live):
            ds = mask_to_ids(live & ~adj[b] & -(2 << b))
            rb = out[b]
            ks = list(map(int.bit_count, map(rb.__and__, map(out.__getitem__, ds))))
            total += sum(map(mul, map(sub, repeat(size[b]), ks),
                             map(sub, map(size.__getitem__, ds), ks)))
    return total


def path_sets(g: Graph) -> int:
    """Vertex sets of G inducing P5, by the cherry identity, on any host."""
    return cherry_sum(g) - 5 * induced_sets(g, Graph.cycle(5))
