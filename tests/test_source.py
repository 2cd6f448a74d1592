"""Source-level rules for the package itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import rpt
from conftest import random_graph
from rpt.graph import to_edge_list

SRC = Path(rpt.__file__).parent


def test_no_bare_asserts():
    # `python -O` strips assert statements, so no guard may rely on one.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"bare asserts: {', '.join(found)}"


# Raising wrappers kept for callers that want an exception, and the hard
# instance's dict report (it is the `counterexample` JSON payload).
NOT_VERDICTS = {
    "keypartition.verify_key_result",
    "assembly.RemovalResult.verify",
    "adversarial.verify_hard_graph",
}


def test_verifiers_return_verdicts():
    # every certificate verifier reports through the one Verdict type
    found, wrong = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes = [(path.stem, tree)]
        scopes += [(f"{path.stem}.{node.name}", node) for node in tree.body
                   if isinstance(node, ast.ClassDef)]
        for prefix, scope in scopes:
            for node in scope.body:
                if not isinstance(node, ast.FunctionDef):
                    continue
                named = (node.name in ("verify", "is_full_pair", "is_tight_to")
                         or node.name.startswith("verify_"))
                if not named:
                    continue
                name = f"{prefix}.{node.name}"
                found.add(name)
                returns = node.returns and ast.unparse(node.returns)
                if name not in NOT_VERDICTS and returns != "Verdict":
                    wrong.append(f"{name} -> {returns}")
    assert NOT_VERDICTS <= found, f"stale exceptions: {sorted(NOT_VERDICTS - found)}"
    assert not wrong, f"verifiers not annotated -> Verdict: {', '.join(wrong)}"


def _is_not_ok(test) -> bool:
    """`not <x>.ok`."""
    return (isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not)
            and isinstance(test.operand, ast.Attribute) and test.operand.attr == "ok")


def _raises_assertion_on_a_failed_verdict(node) -> bool:
    """`if not <x>.ok:` or `if <y> and not <x>.ok:` with a
    `raise AssertionError(...)` in its body."""
    test = node.test if isinstance(node, ast.If) else None
    tests = test.values if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And) else [test]
    return (any(map(_is_not_ok, tests))
            and any(isinstance(s, ast.Raise) and isinstance(s.exc, ast.Call)
                    and getattr(s.exc.func, "id", None) == "AssertionError" for s in node.body))


def test_a_failed_verdict_is_raised_through_require():
    # Verdict.require is the one way a producer refuses a result its verifier rejects
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        own = {id(node) for f in ast.walk(tree) if getattr(f, "name", None) == "require"
               for node in ast.walk(f)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if id(node) not in own and _raises_assertion_on_a_failed_verdict(node)]
    assert not found, f"hand-rolled raises on a failed verdict: {', '.join(found)}"


def _text(arg) -> str:
    """A message argument as written: a plain string's value, else its source."""
    return (arg.value if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            else ast.unparse(arg) if arg else "")


def _refuted_verdict(node) -> ast.Call | None:
    """The call of ``return Verdict(False, ...)``, else None."""
    call = node.value if isinstance(node, ast.Return) else None
    if (isinstance(call, ast.Call) and ast.unparse(call.func) == "Verdict" and call.args
            and isinstance(call.args[0], ast.Constant) and call.args[0].value is False):
        return call
    return None


def refusal_sites(path: Path) -> list[tuple[str, int, int, str, str]]:
    """(module.function, first line, last line, exception, message) of each
    refusal in one module: a ``raise``, or a ``return Verdict(False, ...)``
    with exception ``Verdict``.  The function is named through its
    enclosing classes and defs.  A raise's message is the text of its first
    argument, "" when there is none; a verdict's is its clause and detail,
    joined by " | " when it has both."""
    sites = []

    def visit(node, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Raise):
                exc = child.exc
                call = exc if isinstance(exc, ast.Call) else None
                name = ast.unparse(call.func if call else exc) if exc else ""
                message = _text(call.args[0] if call and call.args else None)
                sites.append((scope, child.lineno, child.end_lineno, name, message))
            elif (verdict := _refuted_verdict(child)) is not None:
                words = verdict.args[1:] + [k.value for k in verdict.keywords if k.arg == "detail"]
                message = " | ".join(_text(arg) for arg in words)
                sites.append((scope, child.lineno, child.end_lineno, "Verdict", message))
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    return sites


def all_refusal_sites() -> list[tuple[str, str, str]]:
    """(module.function, exception, message) of each refusal in src/rpt."""
    return [(function, name, message) for path in sorted(SRC.glob("*.py"))
            for function, _, _, name, message in refusal_sites(path)]


# Every `raise AssertionError` left in src/rpt outside Verdict.require, and
# every other refusal that no input can reach.  A refusal that re-checks a
# fact its own call path has established is deleted, and its function's
# docstring proves the fact.  The guards left check a result, or a
# guarantee of the paper on the run.  Each row names the test that reaches
# its guard, or says `guarantee:` (what the paper promises there) or
# `unreachable:` (why no input gets there).  Every other refusal, a `raise`
# or a `return Verdict(False, ...)`, has no row: some test reaches it.
# `tests/guard_census.py` checks all of this against a traced Tier-1 run.
GUARDS = {
    ("adversarial.min_removal_oracle", "unreachable: removing everything always succeeds"):
        "unreachable: at r = n the graph left is empty, and exact_n_restricted accepts it",
    ("embedding.validate_witness", "witness labels out of order"):
        "tests/test_embedding.py::TestCountingDichotomy::test_validate_witness_refuses_each_clause",
    ("embedding.validate_witness", "witness sets leak outside their parts"):
        "tests/test_embedding.py::TestCountingDichotomy::test_validate_witness_refuses_each_clause",
    ("embedding.validate_witness", "witness a-side below threshold"):
        "tests/test_embedding.py::TestCountingDichotomy::test_validate_witness_refuses_each_clause",
    ("embedding.validate_witness", "witness b-side below threshold"):
        "tests/test_embedding.py::TestCountingDichotomy::test_validate_witness_refuses_each_clause",
    ("embedding.validate_witness", "witness mode contradicts the pattern edge"):
        "tests/test_embedding.py::TestCountingDichotomy::test_validate_witness_refuses_each_clause",
    ("embedding.witness_or_count",
     "no witness found yet the certified lower bound fails; this contradicts the counting dichotomy"):
        "guarantee: with no tight pair the parts hold at least "
        "prod (1 - delta_t) eps_t^t prod |D_i| labelled copies",
    ("embedding.find_tight_pair", "count arm fails the kappa threshold despite |G| >= 2h"):
        "guarantee: once |G| >= 2h a split with no tight pair has more than "
        "kappa |G|^h labelled copies",
    ("extraction.find_low_or_high_density_subset", "low-side result misses its density claim"):
        "tests/test_extraction.py::TestDensitySubset::test_a_wrong_side_from_the_search_is_refused",
    ("extraction.find_low_or_high_density_subset", "high-side result misses its density claim"):
        "tests/test_extraction.py::TestDensitySubset::test_a_wrong_side_from_the_search_is_refused",
    ("keypartition.run_key_lemma", "iteration exceeded h steps without finishing"):
        "unreachable: a step that does not finish raises t by one and t = h returns, "
        "so the h + 1 rounds from t >= 0 end in a return",
    ("keypartition._blowup_found", "exact-schedule contradiction failed: count within kappa*d^h"):
        "guarantee: under the exact schedule a full blowup has more than kappa d^h copies, "
        "while the precheck found ind(G) <= kappa d^h",
    ("predicates.extract_restricted_from_weak", "greedy extraction missed its postcondition"):
        "tests/test_predicates.py::TestExtractFromWeak::test_postcondition_catches_a_wrong_peeling",
}


def suite_test_ids() -> set[str]:
    """``tests/<file>::<name>`` and ``tests/<file>::<Class>::<name>`` for
    every test function of the suite."""
    ids = set()
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        prefix = f"tests/{path.name}::"
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test"):
                ids.add(prefix + node.name)
            elif isinstance(node, ast.ClassDef) and node.name.startswith("Test"):
                ids |= {f"{prefix}{node.name}::{f.name}" for f in node.body
                        if isinstance(f, ast.FunctionDef) and f.name.startswith("test")}
    return ids


def test_every_assertion_guard_has_its_row():
    sites = all_refusal_sites()
    guards = [(function, message) for function, name, message in sites
              if name == "AssertionError" and function != "predicates.Verdict.require"]
    assert len(set(guards)) == len(guards), "two guards share a function and a message"
    assert not set(guards) - set(GUARDS), f"guards with no row: {sorted(set(guards) - set(GUARDS))}"
    named = {(function, message) for function, _, message in sites}
    assert not set(GUARDS) - named, f"rows with no refusal: {sorted(set(GUARDS) - named)}"
    known = suite_test_ids()
    unsupported = [key for key, why in GUARDS.items()
                   if why not in known and not why.startswith(("guarantee: ", "unreachable: "))]
    assert not unsupported, f"rows naming no test and no reason: {unsupported}"


def _id_maps(tree) -> set[str]:
    """Names bound to the id map of ``sub, ids = induced_subgraph(...)``."""
    return {
        node.targets[0].elts[1].id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Call)
        and ast.unparse(node.value.func).endswith("induced_subgraph")
        and isinstance(node.targets[0], ast.Tuple)
        and len(node.targets[0].elts) == 2
        and isinstance(node.targets[0].elts[1], ast.Name)
    }


def test_no_verifier_samples():
    # a sampled check must never count as verified: only the hard-instance
    # generator and its oracles, in rpt.adversarial, draw random numbers
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "adversarial":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name and name.split(".")[0] == "random"]
    assert not found, f"modules importing random: {', '.join(found)}"


def test_subgraph_masks_lift_through_graph_lift():
    # a subgraph mask goes back to host ids through graph.lift alone, not
    # through mask_from_ids(ids[v] for v in ...) written out at each call site
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "graph.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        id_maps = _id_maps(tree)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and ast.unparse(node.func).endswith("mask_from_ids")
                    and node.args):
                continue
            arg = node.args[0]
            if (isinstance(arg, (ast.GeneratorExp, ast.ListComp))
                    and isinstance(arg.elt, ast.Subscript)
                    and isinstance(arg.elt.value, ast.Name)
                    and arg.elt.value.id in id_maps):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"hand-written lifts (use graph.lift): {', '.join(found)}"


def _builds_mask_by_hand(node) -> bool:
    """``for v in ids: m |= 1 << v``: a loop whose only statement ORs the
    bit of its own target into a name."""
    if not (isinstance(node, ast.For) and isinstance(node.target, ast.Name)
            and len(node.body) == 1):
        return False
    stmt = node.body[0]
    return (isinstance(stmt, ast.AugAssign) and isinstance(stmt.op, ast.BitOr)
            and isinstance(stmt.target, ast.Name)
            and isinstance(stmt.value, ast.BinOp) and isinstance(stmt.value.op, ast.LShift)
            and ast.unparse(stmt.value.left) == "1"
            and isinstance(stmt.value.right, ast.Name)
            and stmt.value.right.id == node.target.id)


def test_masks_from_id_lists_use_mask_from_ids():
    # a mask built from an id list goes through graph.mask_from_ids
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "graph.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if _builds_mask_by_hand(node)]
    assert not found, f"hand-written masks (use graph.mask_from_ids): {', '.join(found)}"


def test_fast_edge_list_pass_never_raises():
    # the line parser is the one source of GraphParseError messages: the
    # fast pass may only give up (return None), never raise or assert
    tree = ast.parse((SRC / "graph.py").read_text())
    (fast,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "_clean_edge_list"]
    found = [f"graph.py:{node.lineno}" for node in ast.walk(fast)
             if isinstance(node, (ast.Raise, ast.Assert))]
    assert not found, f"raise or assert in the fast pass: {', '.join(found)}"


UNCHECKED_BUILDERS = {"graph.complement", "graph.induced_subgraph", "graph._clean_edge_list"}


def test_only_the_proven_builders_skip_the_graph_check():
    # graph._derived builds a Graph without Graph.__post_init__'s check; each
    # of its callers proves its rows valid in its docstring, so no other
    # function may name it, and none but _derived may build a Graph through
    # object.__new__
    callers, bypasses = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            scope = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else (
                    node.attr if isinstance(node, ast.Attribute) else None)
                if name == "_derived":
                    callers.add(scope)
                if (isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__new__"
                        and scope != "graph._derived"):
                    bypasses.append(f"{path.name}:{node.lineno}")
    assert callers == UNCHECKED_BUILDERS, f"unchecked Graph builders: {sorted(callers)}"
    assert not bypasses, f"Graphs built around the check: {', '.join(bypasses)}"


def _loops_over_ids(node) -> list[tuple[ast.AST, set[str]]]:
    """(loop, names it binds) for a for loop or comprehension over mask_to_ids(...)."""
    if isinstance(node, ast.For):
        gens = [(node.target, node.iter)]
    elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        gens = [(gen.target, gen.iter) for gen in node.generators]
    else:
        return []
    names = {
        name.id
        for target, it in gens
        if isinstance(it, ast.Call) and ast.unparse(it.func).endswith("mask_to_ids")
        for name in ast.walk(target)
        if isinstance(name, ast.Name)
    }
    return [(node, names)] if names else []


def _counts_a_row(call, names: set[str]) -> bool:
    """``(... adj[v] & ...).bit_count()`` with v one of ``names``."""
    if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and call.func.attr == "bit_count" and isinstance(call.func.value, ast.BinOp)
            and isinstance(call.func.value.op, ast.BitAnd)):
        return False
    return any(isinstance(sub, ast.Subscript) and ast.unparse(sub.value).endswith("adj")
               and isinstance(sub.slice, ast.Name) and sub.slice.id in names
               for sub in ast.walk(call.func.value))


def _calls(node, name: str) -> list[ast.Call]:
    return [c for c in ast.walk(node) if isinstance(c, ast.Call) and ast.unparse(c.func) == name]


def test_certificate_fields_go_through_the_schema_table():
    """Each ``*_from_json`` loader touches its object only as the argument
    of its one ``_read`` call, and each ``*_to_json`` writer returns one
    ``_write`` call whose values fill its kind's table; a loader and a
    writer of one name share a kind, and every kind is both read and
    written.  So a field can be neither written nor accepted unless the
    table lists it, and every field written is read back."""
    from rpt.serialize import SCHEMAS

    tree = ast.parse((SRC / "serialize.py").read_text())
    loaded, written, problems = {}, {}, []
    for fn in (node for node in tree.body if isinstance(node, ast.FunctionDef)):
        if fn.name.endswith("_from_json"):
            obj = fn.args.args[0].arg
            reads = _calls(fn, "_read")
            uses = [n for n in ast.walk(fn) if isinstance(n, ast.Name) and n.id == obj]
            if len(reads) != 1 or len(uses) != 1 or reads[0].args[1] is not uses[0]:
                problems.append(f"{fn.name} reads {obj} outside one _read call")
                continue
            loaded[fn.name.removesuffix("_from_json")] = reads[0].args[0].value
        elif fn.name.endswith("_to_json"):
            returns = [n for n in ast.walk(fn) if isinstance(n, ast.Return)]
            call = returns[0].value if len(returns) == 1 else None
            if not (isinstance(call, ast.Call) and ast.unparse(call.func) == "_write"):
                problems.append(f"{fn.name} does not return one _write call")
                continue
            kind = call.args[0].value
            if len(call.args) - 1 != len(SCHEMAS[kind]) or any(
                    isinstance(a, ast.Starred) for a in call.args):
                problems.append(f"{fn.name} does not give each {kind} field one value")
            written[fn.name.removesuffix("_to_json")] = kind
    assert not problems, problems
    assert {stem: written[stem] for stem in loaded} == loaded
    assert {c.args[0].value for c in _calls(tree, "_read")} == set(SCHEMAS)
    assert set(written.values()) == set(SCHEMAS)


def test_neighbours_in_a_set_are_counted_in_graph():
    # how many neighbours each vertex of one set has in another is counted by
    # graph.with_at_least or graph.degree_range, not by a loop at each call site
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "graph.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            for loop, names in _loops_over_ids(node):
                if any(_counts_a_row(call, names) for call in ast.walk(loop)):
                    found.append(f"{path.name}:{loop.lineno}")
    assert not found, f"per-vertex neighbour counts (use graph.with_at_least): {', '.join(found)}"


LAZY_ROUTES = ("rpt.fourvertex", "rpt.fivepath", "rpt.costmodel")


def test_counting_routes_are_imported_on_first_use():
    # compiling a counting route on every import of the package raised
    # peak_rss_mb by about 0.5 MB; a route is imported the first time a plan
    # takes it, and the plan's cost model the first time a count needs it,
    # so a fresh `import rpt, rpt.cli` loads none of them.  The plan takes
    # both routes on the Paley graph on 61 vertices (on a path of six
    # vertices it backtracks, which costs less there)
    code = ("import sys, rpt, rpt.cli\n"
            f"print(*[m in sys.modules for m in {LAZY_ROUTES!r}])\n"
            "g = rpt.Graph.from_edges(61, [(u, v) for v in range(61) for u in range(v)\n"
            "                              if pow(v - u, 30, 61) == 1])\n"
            "for name in ('P4', 'P5'):\n"
            "    rpt.count_induced_copies(g, rpt.named_pattern(name))\n"
            f"print(*[m in sys.modules for m in {LAZY_ROUTES!r}])\n")
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True).stdout
    assert out.split("\n")[:2] == ["False False False", "True True True"]


def _run(code: str) -> list[str]:
    """The stdout lines of ``code`` run in a fresh interpreter on this package."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True).stdout
    return out.splitlines()


# the modules only the pipeline runs (extraction, the key lemma, assembly, ...)
PIPELINE = ("adversarial", "assembly", "embedding", "extraction", "fullpair", "keypartition",
            "predicates")


def test_each_entry_point_loads_only_the_modules_it_runs(tmp_path):
    # the package and the CLI used to import every module eagerly, so each
    # `rpt` process compiled all of them before it ran anything: most of
    # `rpt constants`' start-up, and half of `rpt count`'s
    graph = tmp_path / "g.el"
    graph.write_text(to_edge_list(random_graph(60, 0.5, 1)))
    loaded = ("def loaded():\n"
              "    return ' '.join(sorted(m.removeprefix('rpt.') for m in sys.modules\n"
              "                           if m == 'rpt' or m.startswith('rpt.')))\n")
    quiet = "import contextlib, io\nrun = contextlib.redirect_stdout(io.StringIO())\n"
    lines = _run("import sys\n" + loaded + "import rpt\nprint(loaded())\n"
                 "for sub in ('cli', 'serialize', 'values', 'ledger', 'graph'):\n"
                 "    __import__(f'rpt.{sub}')\n"
                 "print(loaded())\n")
    assert lines == ["rpt", "cli graph ledger rpt serialize values"]
    argv = ["constants", "--h", "3", "--eps", "1/4", "--eta", "1/4", "--theta", "1/4"]
    lines = _run("import sys, rpt.cli\n" + loaded + quiet
                 + f"with run:\n    code = rpt.cli.main({argv!r})\nprint(code, loaded())\n")
    assert lines == ["0 cli graph ledger rpt serialize values"]
    # counting loads no pipeline module, and the removal pipeline no brute-force oracle
    runs = [(["count", "--graph", str(graph), "--pattern", pattern], set(PIPELINE))
            for pattern in ("K3", "C4", "P5")]
    runs.append((["theorem", "--graph", str(graph), "--pattern", "K3", "--eps", "1/4", "--d", "5"],
                 {"adversarial"}))
    for argv, unused in runs:
        code, *names = _run("import sys, rpt.cli\n" + loaded + quiet
                            + f"with run:\n    code = rpt.cli.main({argv!r})\n"
                            "print(code, loaded())\n")[0].split()
        assert code == "0" and not unused & set(names), (argv, names)


def test_the_package_resolves_its_names_lazily():
    """Every exported name is its defining module's object, read on first
    use and then cached; an unknown name is an AttributeError, and an
    ImportError raised inside a real submodule reaches the caller unchanged."""
    for name in rpt.__all__:
        value = getattr(rpt, name)
        if isinstance(value, ModuleType):
            assert value is sys.modules[f"rpt.{name}"]
        else:
            assert getattr(sys.modules[value.__module__], name) is value, name
    assert not hasattr(rpt, "nosuch")
    with pytest.raises(AttributeError, match="'nosuch'"):
        rpt.nosuch  # noqa: B018
    lines = _run("import rpt\n"
                 "print(set(rpt.__all__) <= set(dir(rpt)), 'build_ledger' in vars(rpt))\n"
                 "build = rpt.build_ledger\n"
                 "print('build_ledger' in vars(rpt), rpt.build_ledger is build)\n")
    assert lines == ["True False", "True True"]
    # mpmath made unimportable: the ledger, and values under it, cannot load
    lines = _run("import sys, rpt\n"
                 "sys.modules['mpmath'] = None\n"
                 "for name in ('build_ledger', 'values'):\n"
                 "    try:\n"
                 "        getattr(rpt, name)\n"
                 "    except ImportError as exc:\n"
                 "        print(type(exc).__name__, exc.name)\n")
    assert lines == ["ModuleNotFoundError mpmath"] * 2
