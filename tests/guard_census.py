"""Line census: which lines and refusals of src/rpt the Tier-1 suite runs.

The script runs the suite once under a ``sys.settrace`` tracer and records
every line of ``src/rpt/*.py`` that runs: a line is one that ``compile``
gives the module's code objects.  A refusal is a ``raise`` statement or a
``return Verdict(False, ...)``; the script prints every refusal that ran,
with its exception (``Verdict`` for a refuted verdict), its message and a
test that reached it, then the refusals and the lines that no test
reaches, counted by module.  A ``sitecustomize`` module on the child
``PYTHONPATH`` installs the same tracer in every Python process the suite
starts, so the ``rpt`` subprocesses of the CLI tests are counted too, each
hit under the test that was running (``PYTEST_CURRENT_TEST``, which the
subprocesses inherit).  A refusal's lines are recorded under every test
that runs them; any other line only under the first, and a code object
stops being traced once all its lines have run.

Then it checks every refusal against the ``GUARDS`` table of
``tests/test_source.py``.  Each ``raise AssertionError`` outside
``Verdict.require`` has a row, and so does each other refusal that no
input can reach.  A row that names a test must be reached by that test, a
``guarantee:`` or ``unreachable:`` row by none, and a refusal with no row
by some test.  Last, every line must run, except the lines of a
``guarantee:`` or ``unreachable:`` refusal and the imports under
``if TYPE_CHECKING:``.

    python tests/guard_census.py [pytest arguments]

It is a script, not a Tier-1 test, because tracing takes about two and a
half times the suite's time.  It exits 0 when the suite passes, every
refusal agrees with the table and every other line runs, and 1 otherwise.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rpt"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_source import GUARDS, refusal_sites  # noqa: E402

# Installed in every process of the run: a global trace function that
# follows only the code objects holding a line not yet run or a refusal's
# line, and records each such line that runs with the test that was running.
SITECUSTOMIZE = '''
import atexit, json, os, sys, threading

_OUT = os.environ["RPT_GUARD_CENSUS"]
with open(os.path.join(_OUT, "lines.json"), encoding="utf-8") as _fh:
    _WANTED = {path: (frozenset(lines), frozenset(sites))
               for path, (lines, sites) in json.load(_fh).items()}
_NONE = (frozenset(), frozenset())
_files, _codes, _hits = {}, {}, set()


def _entry(code):
    """(file, refusal lines, lines of ``code`` still to record): the set is
    shared by the code's frames.  A function's first line runs in the code
    that defines it."""
    entry = _codes.get(code)
    if entry is None:
        name = code.co_filename
        if name not in _files:
            real = os.path.realpath(name)
            _files[name] = (real, *_WANTED.get(real, _NONE))
        real, wanted, sites = _files[name]
        pending = {line for _, _, line in code.co_lines() if line in wanted}
        if code.co_flags & 0x2:  # CO_NEWLOCALS: a function's own code
            pending.discard(code.co_firstlineno)
        entry = _codes[code] = (real, sites, pending)
    return entry


def _trace(frame, event, arg):
    real, sites, pending = _entry(frame.f_code)
    if not pending:
        return None

    def local(frame, event, arg):
        line = frame.f_lineno
        if event == "line" and line in pending:
            _hits.add((real, line, os.environ.get("PYTEST_CURRENT_TEST", "")))
            if line not in sites:
                pending.discard(line)
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


def code_lines(path: Path) -> set[int]:
    """Every line that ``compile`` gives the module's code objects."""
    todo, lines = [compile(path.read_text(), str(path), "exec")], set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if isinstance(c, CodeType)]
    return lines


def type_checking_lines(path: Path) -> set[int]:
    """The lines of the statements under ``if TYPE_CHECKING:``."""
    return {line for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"
            for stmt in node.body for line in range(stmt.lineno, stmt.end_lineno + 1)}


def main(pytest_args: list[str]) -> int:
    sites = []  # (path, function, first line, last line, exception, message)
    lines = {}  # path -> its lines
    exempt = defaultdict(set)  # path -> lines that may stay unreached
    for path in sorted(SRC.glob("*.py")):
        sites += [(str(path), *site) for site in refusal_sites(path)]
        lines[str(path)] = code_lines(path)
        exempt[str(path)] |= type_checking_lines(path)
    where = {}  # (path, line) -> index into sites
    for idx, (path, function, first, last, _, message) in enumerate(sites):
        why = GUARDS.get((function, message), "")
        for line in range(first, last + 1):
            where[(path, line)] = idx
            if why.startswith(("guarantee: ", "unreachable: ")):
                exempt[path].add(line)

    with tempfile.TemporaryDirectory(prefix="guard-census-") as tmp:
        site_lines = defaultdict(list)
        for path, line in where:
            site_lines[path].append(line)
        wanted = {path: (sorted(lines[path]), site_lines[path]) for path in lines}
        Path(tmp, "lines.json").write_text(json.dumps(wanted))
        Path(tmp, "sitecustomize.py").write_text(SITECUSTOMIZE)
        path_var = [tmp, str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "RPT_GUARD_CENSUS": tmp,
               "PYTHONPATH": os.pathsep.join(filter(None, path_var))}
        start = time.perf_counter()
        suite = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                                *pytest_args], cwd=ROOT, env=env)
        elapsed = time.perf_counter() - start
        reached = defaultdict(set)  # site index -> test names
        ran = defaultdict(set)  # path -> lines that ran
        for hits in Path(tmp).glob("hits-*.json"):
            for path, line, test in json.loads(hits.read_text()):
                ran[path].add(line)
                if (path, line) in where:
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

    total = sum(map(len, lines.values()))
    missed = {path: sorted(lines[path] - ran[path]) for path in lines}
    print(f"\nlines run: {total - sum(map(len, missed.values()))} of {total}")
    unexplained = []
    for path in sorted(missed):
        if not missed[path]:
            continue
        source = Path(path).read_text().splitlines()
        print(f"  {Path(path).name}: {len(missed[path])} not run")
        for line in missed[path]:
            ok = line in exempt[path]
            print(f"    {line:5d}{'  ' if ok else ' *'} {source[line - 1].strip()}")
            if not ok:
                unexplained.append(f"{Path(path).name}:{line}")
    print(f"{len(unexplained)} lines not run with no guarantee, unreachable or TYPE_CHECKING reason"
          + (f" (marked *): {', '.join(unexplained)}" if unexplained else ""))
    print(f"suite exit {suite.returncode}, {elapsed:.1f} s traced")
    return 0 if suite.returncode == 0 and not disagree and not unexplained else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
