"""The cost model behind :func:`rpt.graph.plan`.

A plan's work is counted in steps of the backtracker's innermost walk (one
mask AND and one bit_count, about 0.33 us on a 2-CPU x86-64 host under
CPython 3.11); the other events were timed against it, by a least-squares
fit of the backtracker's and the routes' times to their counted events.
The backtracker: a node above its last three positions and its ANDs, a
candidate at the third position from the end, a table row.  The routes:
per vertex with a neighbour, per edge end and per non-adjacent pair at
distance two (:mod:`rpt.fourvertex`); per vertex, per edge end and per
induced cherry (:mod:`rpt.fivepath`).

:func:`rpt.graph.plan` imports this module the first time it plans a
count of four or more vertices, or one inside a mask, so a run that
counts no such pattern never compiles it.
"""

from __future__ import annotations

from functools import lru_cache
from math import exp, inf, prod

from .graph import Graph, _links, _symmetry, mask_from_ids, mask_to_ids

_NODE, _AND, _LAST, _ROW = 2.7, 0.95, 1.3, 0.9
_FOUR, _FIVE = (15.0, 1.6, 1.3), (3.4, 8.4, 1.5)


@lru_cache(maxsize=256)
def best_order(h: Graph, n: int, p: float) -> tuple[float, tuple[int, ...]]:
    """The backtracker's cheapest position order for H on n vertices of
    edge density p, and its predicted work.

    ``big[S]`` = (n)_|S| p^e(S) (1-p)^(non-edges of S) share(S) is the
    expected number of maps of the pattern vertices S that meet their
    links, share(S) being the share of the |S|! orders of S that meet the
    constraints of :func:`rpt.graph._symmetry`, so each constraint cuts where it
    falls.  w's mask after S holds mu = big[S + w] / big[S] vertices and is
    nonempty with chance 1 - exp(-mu).  Placing w after S visits big[S + w]
    candidates times that chance for each later mask: a node with an AND
    per later position, or, third from the end, a candidate whose last two
    masks are walked on the smaller side.  A dynamic program over prefix
    sets (System R's join order search) finds the cheapest order; each
    table adds a row per vertex.  Past 10 vertices the 2^h prefix sets cost
    more than they can save, and the vertex with most edges to those placed
    goes next.
    """
    hn = h.n
    if hn <= 2:
        return float(n), tuple(range(hn))
    if hn > 10:
        order = [0]
        for _ in range(hn - 1):
            order.append(max(set(range(hn)) - set(order),
                             key=lambda u: ((h.adj[u] & mask_from_ids(order)).bit_count(), -u)))
        return inf, tuple(order)
    after = [0] * hn  # after[w]: the vertices that the constraints, chained, put after w
    for a, b in _symmetry(h)[1]:
        after[a] |= 1 << b
    for k in range(hn):
        after = [row | after[k] if row >> k & 1 else row for row in after]
    before = [sum(1 << x for x in range(hn) if after[x] >> w & 1) for w in range(hn)]
    share, big = [1.0] * (1 << hn), [1.0] * (1 << hn)
    for s in range(1, 1 << hn):
        # the last vertex of an order of S meeting the constraints precedes none of S
        share[s] = sum(share[s ^ 1 << w] for w in mask_to_ids(s) if not after[w] & s) / s.bit_count()
        w = (s & -s).bit_length() - 1
        r, k = s ^ 1 << w, s.bit_count() - 1
        e = (h.adj[w] & r).bit_count()
        big[s] = big[r] * max(n - k, 0) * p**e * (1 - p) ** (k - e) * share[s] / share[r]

    def mu(s: int, w: int) -> float:
        return big[s | 1 << w] / big[s] if big[s] else 0.0

    level = {0: (0.0, ())}
    for k in range(hn - 2):
        nxt: dict[int, tuple[float, tuple[int, ...]]] = {}
        for s, (work, order) in level.items():
            for w in (w for w in range(hn) if not s >> w & 1):
                t = s | 1 << w
                rest = [u for u in range(hn) if not t >> u & 1]
                # later masks that S cuts alike are one set, empty or not together
                alike = {(h.adj[u] & s, after[u] & s, before[u] & s): u for u in rest}
                visits = big[t] * prod(1 - exp(-mu(s, u)) for u in alike.values())
                if k < hn - 3:
                    step = _NODE + _AND * len(rest)
                else:
                    (b, c), mb, mc = rest, mu(t, rest[0]), mu(t, rest[1])
                    if (after[b] & before[c] | after[c] & before[b]) & t:
                        # a placed vertex lies between b and c: their masks lie in
                        # disjoint ranges, one short where the other is long
                        step = _LAST + (mb * mc / (mb + mc) if mb else 0.0)
                    else:
                        step = _LAST + min(mb * (1 - exp(-mc)), mc * (1 - exp(-mb)))
                nxt[t] = min(nxt.get(t, (inf,)), (work + visits * step, order + (w,)))
        level = nxt
    work, order = min(level.values())
    order += tuple(u for u in range(hn) if u not in order)
    tables = {link for row in _links(h, order, _symmetry(h)[1]) for link in row}
    return work + _ROW * n * len(tables), order


def route_work(route: str, n: int, m: int, deg: list[int]) -> float:
    """Predicted work of a route on n vertices, m edges and degrees ``deg``
    as G(n, p): its passes (:data:`_FOUR`, :data:`_FIVE`) and the count it
    backtracks, K4 on the vertices in three triangles or more, or C5."""
    pairs = n * (n - 1) // 2
    p = m / pairs if pairs else 0.0
    if route == "four":
        two = (n - 2) * p * p  # the mean codegree
        far = pairs * (1 - p) * (1 - exp(-two) * (1 + two))
        tri = (n - 1) * (n - 2) / 2 * p**3  # the mean number of triangles at a vertex
        rich = round(n * (1 - exp(-tri) * (1 + tri + tri * tri / 2)))
        passes = _FOUR[0] * sum(map(bool, deg)) + _FOUR[1] * 2 * m + _FOUR[2] * far
        return passes + best_order(Graph.complete(4), rich, p)[0]
    cherries = (1 - p) * sum(d * (d - 1) for d in deg) / 2
    passes = _FIVE[0] * n + _FIVE[1] * 2 * m + _FIVE[2] * cherries
    return passes + best_order(Graph.cycle(5), n, p)[0]
