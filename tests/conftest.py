import itertools
import random
from fractions import Fraction

import pytest

from rpt.graph import Graph, Pattern


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_pattern(h: int, seed: int) -> Pattern:
    rng = random.Random(seed)
    edges = [(i, j) for i in range(h) for j in range(i + 1, h) if rng.random() < 0.5]
    return Pattern.of(Graph.from_edges(h, edges))


def all_small_patterns(max_h: int = 4) -> list[Pattern]:
    """All graphs on 1..max_h vertices up to isomorphism (as patterns).

    The canonical form of an edge set is the least sorted tuple of its
    relabelled edges over all permutations.
    """
    out = []
    for h in range(1, max_h + 1):
        seen = set()
        pairs = list(itertools.combinations(range(h), 2))
        for bits in range(1 << len(pairs)):
            edges = [e for i, e in enumerate(pairs) if bits >> i & 1]
            canon = min(
                tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))
                for perm in itertools.permutations(range(h))
            )
            if canon not in seen:
                seen.add(canon)
                out.append(Pattern.of(Graph.from_edges(h, edges)))
    return out


@pytest.fixture(scope="session")
def small_patterns():
    return all_small_patterns(4)


@pytest.fixture
def petersen():
    return Graph.from_edges(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
        + [(i, i + 5) for i in range(5)]
        + [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
    )


HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)
