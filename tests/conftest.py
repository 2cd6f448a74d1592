import itertools
import json
import os
import random
import resource
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

import rpt
from rpt.graph import Graph, Pattern


@contextmanager
def count_fraction_ops():
    """Count Fraction comparisons and multiplications made inside the block;
    yields a one-element list that holds the count."""
    calls = [0]
    with pytest.MonkeyPatch.context() as mp:
        for name in ("__lt__", "__le__", "__gt__", "__ge__", "__mul__", "__rmul__"):
            def counted(x, y, op=getattr(Fraction, name)):
                calls[0] += 1
                return op(x, y)

            mp.setattr(Fraction, name, counted)
        yield calls


_BOUNDED_RUNS = """
import contextlib, io, json, sys, time, tracemalloc
from rpt.cli import main
out = []
for argv in json.loads(sys.argv[1]):
    text = io.StringIO()
    tracemalloc.start()
    start = time.perf_counter()
    with contextlib.redirect_stdout(text):
        code = main(argv)
    out.append([code, time.perf_counter() - start, tracemalloc.get_traced_memory()[1],
                text.getvalue()])
    tracemalloc.stop()
print(json.dumps(out))
"""


def _cap_address_space():
    gib = 2**30
    resource.setrlimit(resource.RLIMIT_AS, (gib, gib))


def bounded_cli_runs(argvs: list[list[str]]) -> tuple[list, list[str]]:
    """Run each ``rpt`` argv in turn in one child process under a 1 GiB
    address-space limit: per run [exit code, seconds, peak traced bytes,
    stdout], and the child's stderr lines."""
    src = str(Path(rpt.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    child = subprocess.run([sys.executable, "-c", _BOUNDED_RUNS, json.dumps(argvs)], env=env,
                           timeout=60, capture_output=True, text=True,
                           preexec_fn=_cap_address_space)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout), child.stderr.splitlines()


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


@st.composite
def peeling_graphs(draw) -> Graph:
    """Graphs on at most 40 vertices, with many degree ties among them:
    G(n, p), cycles, circulant (regular) graphs, empty and complete graphs,
    and a clique joined to an independent set."""
    n = draw(st.integers(0, 40))
    kind = draw(st.sampled_from(["gnp", "cycle", "circulant", "empty", "complete", "split"]))
    if kind == "gnp":
        return random_graph(n, draw(st.floats(0.0, 1.0)), draw(st.integers(0, 10**6)))
    if kind == "cycle" and n >= 3:
        return Graph.cycle(n)
    if kind == "circulant" and n >= 2:
        jumps = draw(st.sets(st.integers(1, n // 2), max_size=4))
        return Graph.from_edges(n, {tuple(sorted((v, (v + j) % n)))
                                    for v in range(n) for j in jumps if (v + j) % n != v})
    if kind == "complete":
        return Graph.complete(n)
    if kind == "split":
        c = draw(st.integers(0, n))
        return Graph.from_edges(n, [(u, v) for u in range(c) for v in range(u + 1, n)])
    return Graph.empty(n)


@st.composite
def wide_graphs(draw) -> Graph:
    """G(n, p) on 65 to 200 vertices, so that rows and masks take more than
    one machine word."""
    n = draw(st.integers(65, 200))
    return random_graph(n, draw(st.floats(0.0, 1.0)), draw(st.integers(0, 10**6)))


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
