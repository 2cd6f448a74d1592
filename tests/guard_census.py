"""Guard census: which refusals of src/rpt the Tier-1 suite reaches.

A refusal is a ``raise`` statement or a ``return Verdict(False, ...)``.
The script runs the suite once under a ``sys.settrace`` tracer and prints
every refusal in ``src/rpt/*.py`` that ran, with its exception (``Verdict``
for a refuted verdict), its message and a test that reached it, then the
sites that no test reaches, counted by module.  A ``sitecustomize`` module
on the child ``PYTHONPATH`` installs the same tracer in every Python
process the suite starts, so the ``rpt`` subprocesses of the CLI tests are
counted too, each hit under the test that was running
(``PYTEST_CURRENT_TEST``, which the subprocesses inherit).

Last, it checks every site against the ``GUARDS`` table of
``tests/test_source.py``.  Each ``raise AssertionError`` outside
``Verdict.require`` has a row, and so does each other site that no input
can reach.  A row that names a test must be reached by that test, a
``guarantee:`` or ``unreachable:`` row by none, and a site with no row
by some test.

    python tests/guard_census.py [pytest arguments]

It is a script, not a Tier-1 test, because tracing takes about two and a
half times the suite's time.  It exits 0 when the suite passes and every site agrees
with the table, and 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rpt"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_source import GUARDS, refusal_sites  # noqa: E402

# Installed in every process of the run: a global trace function that
# follows only the code objects holding a wanted line, and records each
# wanted line that runs with the test that was running.
SITECUSTOMIZE = '''
import atexit, json, os, sys, threading

_OUT = os.environ["RPT_GUARD_CENSUS"]
with open(os.path.join(_OUT, "sites.json"), encoding="utf-8") as _fh:
    _WANTED = {path: frozenset(lines) for path, lines in json.load(_fh).items()}
_files, _codes, _hits = {}, {}, set()


def _lines(code):
    lines = _codes.get(code)
    if lines is None:
        name = code.co_filename
        if name not in _files:
            _files[name] = _WANTED.get(os.path.realpath(name), frozenset())
        wanted = _files[name]
        lines = _codes[code] = frozenset(line for _, _, line in code.co_lines()
                                         if line in wanted)
    return lines


def _trace(frame, event, arg):
    lines = _lines(frame.f_code)
    if not lines:
        return None

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in lines:
            test = os.environ.get("PYTEST_CURRENT_TEST", "")
            _hits.add((os.path.realpath(frame.f_code.co_filename), frame.f_lineno, test))
        return local

    return local


@atexit.register
def _dump():
    with open(os.path.join(_OUT, f"hits-{os.getpid()}.json"), "w", encoding="utf-8") as fh:
        json.dump(sorted(_hits), fh)


sys.settrace(_trace)
threading.settrace(_trace)
'''


def _test_name(current: str) -> str:
    """``tests/x.py::T::test_y[p] (call)`` -> ``tests/x.py::T::test_y``."""
    return current.split(" ")[0].split("[")[0]


def main(pytest_args: list[str]) -> int:
    sites = []  # (path, function, first line, last line, exception, message)
    for path in sorted(SRC.glob("*.py")):
        sites += [(str(path), *site) for site in refusal_sites(path)]
    where = {}  # (path, line) -> index into sites
    for idx, (path, _, first, last, _, _) in enumerate(sites):
        for line in range(first, last + 1):
            where[(path, line)] = idx

    with tempfile.TemporaryDirectory(prefix="guard-census-") as tmp:
        lines = defaultdict(list)
        for path, line in where:
            lines[path].append(line)
        Path(tmp, "sites.json").write_text(json.dumps(lines))
        Path(tmp, "sitecustomize.py").write_text(SITECUSTOMIZE)
        path_var = [tmp, str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "RPT_GUARD_CENSUS": tmp,
               "PYTHONPATH": os.pathsep.join(filter(None, path_var))}
        start = time.perf_counter()
        suite = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                                *pytest_args], cwd=ROOT, env=env)
        elapsed = time.perf_counter() - start
        reached = defaultdict(set)  # site index -> test names
        for hits in Path(tmp).glob("hits-*.json"):
            for path, line, test in json.loads(hits.read_text()):
                reached[where[(path, line)]].add(_test_name(test))

    def label(idx: int) -> str:
        _, function, first, _, name, message = sites[idx]
        return f"{function}:{first}  {name}  {message!r}"

    print(f"\nrefusal sites reached ({len(reached)} of {len(sites)}):")
    for idx in sorted(reached):
        tests = sorted(reached[idx])
        print(f"  {label(idx)}  <- {tests[0] or '(outside a test)'}"
              + (f" and {len(tests) - 1} more" if len(tests) > 1 else ""))
    unreached = defaultdict(list)
    for idx, site in enumerate(sites):
        if idx not in reached:
            unreached[site[1].split(".")[0]].append(idx)
    print(f"\nrefusal sites no test reaches ({len(sites) - len(reached)}):")
    for module in sorted(unreached):
        print(f"  {module}: {len(unreached[module])}")
        for idx in unreached[module]:
            print(f"    {label(idx)}")

    disagree = []
    for idx, (_, function, _, _, name, message) in enumerate(sites):
        why = GUARDS.get((function, message))
        if why is None:
            if name == "AssertionError" and function != "predicates.Verdict.require":
                disagree.append(f"{label(idx)}: no row in GUARDS")
            elif not reached[idx]:
                disagree.append(f"{label(idx)}: reached by no test, and no row in GUARDS")
        elif why.startswith(("guarantee: ", "unreachable: ")):
            if reached[idx]:
                disagree.append(f"{label(idx)}: reached by {sorted(reached[idx])[0]}, "
                                f"but its row says {why.split(':')[0]}")
        elif why not in reached[idx]:
            disagree.append(f"{label(idx)}: its row names {why}, which does not reach it")
    print(f"\nGUARDS: {len(GUARDS)} rows; {len(disagree)} sites disagree with the run")
    for line in disagree:
        print(f"  {line}")
    print(f"suite exit {suite.returncode}, {elapsed:.1f} s traced")
    return 0 if suite.returncode == 0 and not disagree else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
