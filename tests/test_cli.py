import contextlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import rpt
from conftest import random_graph
from rpt import serialize
from rpt.cli import main, parse_args
from rpt.graph import NAMED_PATTERNS, Graph, to_edge_list, to_graph6


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.el"
    path.write_text(to_edge_list(Graph.cycle(5)))
    return str(path)


@pytest.fixture
def k4_g6_file(tmp_path):
    path = tmp_path / "k4.g6"
    path.write_text(to_graph6(Graph.complete(4)) + "\n")
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestParse:
    def test_count_plan(self, c5_file):
        args = parse_args(["count", "--graph", c5_file, "--pattern", "K3"])
        assert args.subcommand == "count" and not args.json
        assert not hasattr(args, "mode") and not hasattr(args, "seed")

    def test_theorem_plan_with_globals_after_subcommand(self, c5_file):
        args = parse_args(
            [
                "theorem",
                "--graph",
                c5_file,
                "--pattern",
                "P4",
                "--eps",
                "1/4",
                "--d",
                "10",
                "--json",
            ]
        )
        assert args.subcommand == "theorem" and args.json and not hasattr(args, "mode")

    def test_constants_plan(self):
        args = parse_args(
            ["constants", "--h", "3", "--eps", "1/4", "--eta", "1/4", "--theta", "1/4"]
        )
        assert args.subcommand == "constants"

    def test_malformed_fraction_rejected(self, c5_file):
        code = main(["extract", "--graph", c5_file, "--pattern", "K2",
                     "--op", "density", "--eps", "nonsense"])
        assert code == 1

    def test_paper_mode_forbids_ledger_overrides(self, c5_file):
        code = main(
            [
                "keylemma",
                "--graph",
                c5_file,
                "--pattern",
                "K2",
                "--d",
                "1",
                "--mode",
                "paper",
                "--delta-prime",
                "1/8",
            ]
        )
        assert code == 1


class TestCommands:
    def test_count_human_and_json(self, capsys, c5_file):
        code, out = run_cli(capsys, ["count", "--graph", c5_file, "--pattern", "P3"])
        assert code == 0 and "10" in out
        code, out = run_cli(
            capsys, ["count", "--graph", c5_file, "--pattern", "P3", "--json"]
        )
        assert code == 0 and json.loads(out)["value"] == "10"

    def test_count_reads_graph6(self, capsys, k4_g6_file):
        code, out = run_cli(
            capsys, ["count", "--graph", k4_g6_file, "--pattern", "K3", "--json"]
        )
        assert code == 0 and json.loads(out)["value"] == "24"

    def test_check_valid_partition(self, capsys, tmp_path, c5_file):
        cert = tmp_path / "cert.json"
        cert.write_text(
            json.dumps(
                {
                    "kind": "restricted_partition",
                    "parts": [[0, 1], [2, 3], [4]],
                    "eps": "1/4",
                    "N": 3,
                }
            )
        )
        code, out = run_cli(capsys, ["check", "--graph", c5_file, "--cert", str(cert)])
        assert code == 0 and "VERIFIED" in out

    def test_check_mutated_partition_exit_2(self, capsys, tmp_path, c5_file):
        cert = tmp_path / "cert.json"
        cert.write_text(
            json.dumps(
                {
                    "kind": "restricted_partition",
                    "parts": [[0, 1, 2], [3], [4]],
                    "eps": "0",
                    "N": 3,
                }
            )
        )
        code, out = run_cli(capsys, ["check", "--graph", c5_file, "--cert", str(cert)])
        assert code == 2 and "part 0" in out
        # well formed but false: more parts than the certificate's own N
        cert.write_text(
            json.dumps(
                {
                    "kind": "restricted_partition",
                    "parts": [[0, 1], [2, 3, 4]],
                    "eps": "1/2",
                    "N": 1,
                }
            )
        )
        code, out = run_cli(
            capsys, ["check", "--graph", c5_file, "--cert", str(cert), "--json"]
        )
        assert code == 2
        assert json.loads(out)["detail"] == "part count exceeds the bound"

    def test_theorem_roundtrip_through_check(self, capsys, tmp_path, c5_file):
        code, out = run_cli(
            capsys,
            ["theorem", "--graph", c5_file, "--pattern", "K2", "--eps", "1/4",
             "--d", "2", "--json"],
        )
        assert code == 0
        cert = tmp_path / "removal.json"
        cert.write_text(out)
        code, out = run_cli(capsys, ["check", "--graph", c5_file, "--cert", str(cert)])
        assert code == 0

    def test_keylemma_result_round_trip_through_check(self, capsys, tmp_path, c5_file):
        code, out = run_cli(
            capsys,
            ["keylemma", "--graph", c5_file, "--pattern", "K2", "--d", "2", "--json"],
        )
        assert code == 0
        cert = tmp_path / "kl.json"
        cert.write_text(out)
        code, _ = run_cli(capsys, ["check", "--graph", c5_file, "--cert", str(cert)])
        assert code == 0
        obj = json.loads(out)
        obj["C"] = [c for c in obj["C"] if c != [4]]  # vertex 4 vanishes
        cert.write_text(json.dumps(obj))
        code, out2 = run_cli(capsys, ["check", "--graph", c5_file, "--cert", str(cert)])
        assert code == 2 and "cover" in out2

    def test_key_result_with_pair_through_check(self, capsys, tmp_path):
        from fractions import Fraction

        from rpt import serialize
        from rpt.graph import mask_from_ids, named_pattern
        from rpt.keypartition import KeyLemmaResult, KeyParams, verify_key_result

        # A independent, each B vertex sees 2 < |A|/4 of A, C a clique,
        # vertex 20 removed
        a, b, c = range(12), (12, 13), range(14, 20)
        edges = [(0, 12), (1, 12), (2, 13), (3, 13)]
        edges += [(u, v) for u in c for v in c if u < v]
        edges += [(u, 20) for u in range(0, 20, 3)]
        g = Graph.from_edges(21, edges)
        k2 = named_pattern("K2")
        res = KeyLemmaResult(
            1 << 20,
            ((mask_from_ids(a), mask_from_ids(b)),),
            (mask_from_ids(c),),
            KeyParams.practical(k2, Fraction(1, 4)),
            1,
        )
        verify_key_result(g, k2, res)
        g_path = tmp_path / "g.el"
        g_path.write_text(to_edge_list(g))
        cert = tmp_path / "kl.json"
        payload = serialize.key_result_to_json(res)
        cert.write_text(json.dumps(payload))
        argv = ["check", "--graph", str(g_path), "--cert", str(cert), "--json"]
        code, out = run_cli(capsys, argv)
        assert code == 0, out
        payload["B"] = [[12, 13, 14]]  # 14 is also in C
        cert.write_text(json.dumps(payload))
        code, out = run_cli(capsys, argv)
        assert code == 2
        assert json.loads(out)["detail"] == "single 0 empty or overlapping"

    def test_unguaranteed_peel_chain_through_check(self, capsys, tmp_path):
        import random

        rng = random.Random(0)
        n, p = rng.randint(10, 40), rng.random()
        g = Graph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        )
        g_path = tmp_path / "g.el"
        g_path.write_text(to_edge_list(g))
        code, out = run_cli(
            capsys,
            ["extract", "--graph", str(g_path), "--pattern", "K3", "--op", "peel",
             "--eps", "1/4", "--eta", "1/4", "--delta", "1/2", "--json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert not payload["guaranteed"]
        assert len(payload["peels"]) > payload["phi_bound"]
        cert = tmp_path / "peel.json"
        cert.write_text(out)
        argv = ["check", "--graph", str(g_path), "--cert", str(cert), "--json"]
        code, out = run_cli(capsys, argv)
        assert code == 0, out
        # a chain claiming the guarantee is held to phi(delta, eta)
        payload["guaranteed"] = True
        cert.write_text(json.dumps(payload))
        code, out = run_cli(capsys, argv)
        assert code == 2
        assert json.loads(out)["detail"] == "more peels than phi(delta, eta)"

    def test_blowup_found_round_trip_through_check(self, capsys, tmp_path):
        from fractions import Fraction

        from rpt import serialize
        from rpt.graph import Graph, mask_from_ids, named_pattern, to_edge_list
        from rpt.keypartition import KeyParams, MNTPartition, run_key_lemma

        k2 = named_pattern("K2")
        core = 10
        edges = [(i, j) for i in range(core) for j in range(i + 1, core)]
        edges += [(i, core) for i in range(core)]
        g = Graph.from_edges(core + 1, edges)
        params = KeyParams.practical(k2, Fraction(1, 4))
        start = MNTPartition(
            (), (), (), (mask_from_ids(range(core)),), 1 << core, params, 0
        )
        found = run_key_lemma(g, k2, params, 0, start=start)
        payload = serialize.blowup_found_to_json(found)
        g_path = tmp_path / "g.el"
        g_path.write_text(to_edge_list(g))
        cert = tmp_path / "bf.json"
        cert.write_text(json.dumps(payload))
        code, out = run_cli(capsys, ["check", "--graph", str(g_path), "--cert", str(cert)])
        assert code == 0, out
        payload["copy_count"] = "999999"
        cert.write_text(json.dumps(payload))
        code, _ = run_cli(capsys, ["check", "--graph", str(g_path), "--cert", str(cert)])
        assert code == 2

    def test_keylemma_transcript(self, capsys, c5_file):
        code, out = run_cli(
            capsys,
            ["keylemma", "--graph", c5_file, "--pattern", "K2", "--d", "2",
             "--transcript", "--json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "key_lemma_result"
        assert all(rec["kind"] == "step_record" for rec in payload["transcript"])

    @pytest.mark.parametrize("subcommand", ["keylemma", "theorem"])
    def test_delta_prime_zero_rejected(self, capsys, c5_file, subcommand):
        # both subcommands read --delta-prime through one default and one check
        code = main([subcommand, "--graph", c5_file, "--pattern", "K2", "--d", "2",
                     "--delta-prime", "0"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "error: delta_prime must lie in (0, 1/4]\n"

    def test_extract_peel(self, capsys, c5_file):
        code, out = run_cli(
            capsys,
            ["extract", "--graph", c5_file, "--pattern", "K2", "--op", "peel",
             "--eps", "1/2", "--eta", "1/4", "--delta", "1/5", "--json"],
        )
        assert code == 0
        assert json.loads(out)["kind"] == "peel_chain"

    def test_counterexample_inline(self, capsys):
        code, out = run_cli(
            capsys,
            ["counterexample", "--m", "20", "--n", "24", "--big-n", "1",
             "--eps", "1/20", "--seed", "7", "--json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] and payload["core"] == list(range(20))

    def test_constants_json(self, capsys):
        code, out = run_cli(
            capsys,
            ["constants", "--h", "2", "--eps", "1/4", "--eta", "1/4",
             "--theta", "1/4", "--json"],
        )
        assert code == 0
        entries = json.loads(out)["entries"]
        assert entries["xi"]["exact"] == "1/16"

    def test_constants_h4_phi_and_n_are_not_upper_bounds(self, capsys):
        # delta' and eta' saturate at h = 4, so phi and N are lower bounds
        argv = ["constants", "--h", "4", "--eps", "1/4", "--eta", "1/4", "--theta", "1/4"]
        code, out = run_cli(capsys, argv)
        assert code == 0
        lines = dict(line.split(": ", 1) for line in out.splitlines())
        assert lines["delta_prime"].startswith("<= 2^-")
        for name in ("phi(delta_prime,eta_prime)", "N"):
            assert lines[name].startswith("2^3.168"), name
        code, out = run_cli(capsys, argv + ["--json"])
        entries = json.loads(out)["entries"]
        assert entries["delta_prime"]["saturated"] and entries["eta_prime"]["saturated"]
        for name in ("phi(delta_prime,eta_prime)", "N"):
            assert entries[name]["exact"] is None and not entries[name]["saturated"], name

    @pytest.mark.parametrize("workload", ["count", "pipeline", "check", "constants"])
    def test_workload_outputs_match_the_benchmark_record(self, workload, tmp_path, monkeypatch):
        """Every operation of the benchmark's workload at seed 1, built with
        perfbench/workloads.py in a scratch directory, gives the exit code and
        stdout sha256 recorded in perfbench/expected.json.  Files under
        perfbench/ are only read: no bytecode is written there either."""
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        bench = Path(__file__).resolve().parent.parent / "perfbench"
        modules = {}
        for name in ("workloads", "run"):
            spec = importlib.util.spec_from_file_location(f"perfbench_{name}", bench / f"{name}.py")
            modules[name] = importlib.util.module_from_spec(spec)
            monkeypatch.setitem(sys.modules, spec.name, modules[name])  # dataclasses look it up
            spec.loader.exec_module(modules[name])
        workloads, run = modules["workloads"], modules["run"]
        recorded = json.loads((bench / "expected.json").read_text())[workload]["1"]
        work = workloads.BUILDERS[workload](workloads.Builder(rpt, workload, 1, str(tmp_path)))
        assert sorted(op.op_id for op in work.ops) == sorted(recorded)
        for op in work.ops:
            code, out, _ = run.run_op(rpt, op)
            assert [code, run.digest(out)] == recorded[op.op_id], op.op_id

    def test_missing_file_is_error(self, capsys):
        code, _ = run_cli(capsys, ["count", "--graph", "/nonexistent", "--pattern", "K2"])
        assert code == 1


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--graph", "{c5}", "--pattern", "P3", "--json"],
            ["theorem", "--graph", "{c5}", "--pattern", "K2", "--eps", "1/4",
             "--d", "2", "--json"],
            ["keylemma", "--graph", "{c5}", "--pattern", "K2", "--d", "1", "--json"],
            ["extract", "--graph", "{c5}", "--pattern", "K2", "--op", "density",
             "--eps", "1/4", "--json"],
            ["counterexample", "--m", "20", "--n", "22", "--big-n", "1",
             "--eps", "1/20", "--seed", "5", "--json"],
            ["constants", "--h", "2", "--eps", "1/4", "--eta", "1/4",
             "--theta", "1/4", "--json"],
            ["oracle", "--op", "n-restricted", "--n-parts", "2", "--eps", "1/4",
             "--graph", "{c5}", "--json"],
        ],
    )
    def test_byte_identical_json(self, capsys, c5_file, argv):
        argv = [a.format(c5=c5_file) for a in argv]
        code1, out1 = run_cli(capsys, argv)
        code2, out2 = run_cli(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_one_process_matches_fresh_runs(self, capsys, monkeypatch, c5_file):
        # the parser is built once per process; a run must not see the ones
        # before it, including a usage error and a help request
        monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal
        runs = [
            ["count", "--graph", c5_file, "--pattern", "P3", "--json"],
            ["extract", "--graph", c5_file, "--pattern", "K2", "--op", "density",
             "--eps", "nonsense"],
            ["constants", "--h", "2", "--eps", "1/4", "--eta", "1/4",
             "--theta", "1/4", "--json"],
            ["check", "--help"],
            ["count", "--graph", c5_file, "--pattern", "K3"],
        ]
        src = str(Path(rpt.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        for argv in runs:
            fresh = subprocess.run([sys.executable, "-m", "rpt.cli", *argv], env=env,
                                   capture_output=True, text=True, timeout=60)
            assert run_cli(capsys, argv) == (fresh.returncode, fresh.stdout), argv


K44 = [(u, v) for u in range(4) for v in range(4, 8)]
K2_JSON = {"n": 2, "edges": [[0, 1]], "order": [0, 1]}
BLOWUP_K44 = {
    "kind": "blowup",
    "parts": [[0, 1, 2, 3], [4, 5, 6, 7]],
    "c": "1/2",
    "eps": "1/4",
    "pattern": K2_JSON,
}

# kind -> (graph edges, valid certificate, (field, mutated value), the
# `rpt check --json` line the mutant prints)
CHECK_CASES = {
    "full_pair": (
        (8, K44),
        {"kind": "full_pair", "a": [0, 1, 2, 3], "b": [4, 5, 6, 7], "c": "1/2",
         "eps": "1/4", "polarity": "full"},
        ("polarity", "empty"),
        "violating subpair a=[0, 1] b=[4, 5]",
    ),
    "blowup": (
        (8, K44),
        BLOWUP_K44,
        ("pattern", {"n": 2, "edges": [], "order": [0, 1]}),
        "failing pair (1, 2)",
    ),
    "restricted_partition": (
        (5, Graph.cycle(5).edges()),
        {"kind": "restricted_partition", "parts": [[0, 1, 2, 3, 4]], "eps": "1/2", "N": 1},
        ("eps", "1/4"),
        "part 0 not restricted",
    ),
    "path_partition": (
        (5, Graph.cycle(5).edges()),
        {"kind": "path_partition", "blocks": [[0, 1, 2, 3, 4]], "eps": "1/4"},
        ("blocks", [[0, 1, 2, 3]]),
        "cover",
    ),
    "removal_result": (
        (5, [(0, 1)]),
        {"kind": "removal_result", "removed": [], "parts": [[0, 1, 2, 3, 4]],
         "eps": "3/10", "N": 1, "d": 0, "verified": True},
        ("eps", "1/10"),
        "removal result failed recheck: part 0 not restricted",
    ),
    "key_lemma_result": (
        (5, Graph.cycle(5).edges()),
        {"kind": "key_lemma_result", "S": [], "A": [], "B": [], "C": [[0, 1, 2, 3, 4]],
         "d": 0, "h": 2, "eps": "2/5", "eta": "1/4", "theta": "1/4",
         "delta_prime": "1/8", "eta_prime": "1/512"},
        ("eps", "1/4"),
        "single 0 not eps-restricted",
    ),
    "blowup_found": (
        (8, K44),
        {"kind": "blowup_found", "certificate": BLOWUP_K44, "copy_count": "16",
         "copy_bound": "1/1", "contradiction_checked": False},
        ("copy_count", "17"),
        "copy count does not match a recount",
    ),
    "peel_chain": (
        (5, Graph.cycle(5).edges()),
        {"kind": "peel_chain", "peels": [[0, 1, 2, 3, 4]], "leftover": [], "eps": "1/2",
         "eta": "1/4", "delta": "1/2", "phi_bound": 2, "guaranteed": True},
        ("peels", [[0, 1, 2, 3]]),
        "peels plus leftover do not cover V(G)",
    ),
}


# `rpt count --json` stdout on G(40, p) from conftest.random_graph with seed 1,
# recorded from the labelled-map counter that walked every automorphic
# image of each copy; the symmetry-broken counter must print the same bytes.
COUNT_GOLDEN = {
    "1/2": {
        "K3": '{"h":3,"kind":"count","n":40,"value":"6732"}',
        "P4": '{"h":4,"kind":"count","n":40,"value":"33692"}',
        "C4": '{"h":4,"kind":"count","n":40,"value":"32704"}',
        "K4": '{"h":4,"kind":"count","n":40,"value":"27144"}',
        "C5": '{"h":5,"kind":"count","n":40,"value":"73430"}',
        "P5": '{"h":5,"kind":"count","n":40,"value":"78516"}',
    },
    "1/5": {
        "K3": '{"h":3,"kind":"count","n":40,"value":"384"}',
        "P4": '{"h":4,"kind":"count","n":40,"value":"8576"}',
        "C4": '{"h":4,"kind":"count","n":40,"value":"2152"}',
        "K4": '{"h":4,"kind":"count","n":40,"value":"48"}',
        "C5": '{"h":5,"kind":"count","n":40,"value":"8290"}',
        "P5": '{"h":5,"kind":"count","n":40,"value":"30886"}',
    },
}


@pytest.mark.parametrize("p", sorted(COUNT_GOLDEN))
def test_count_json_golden(capsys, tmp_path, p):
    num, den = map(int, p.split("/"))
    path = tmp_path / "g.el"
    path.write_text(to_edge_list(random_graph(40, num / den, 1)))
    for name, line in COUNT_GOLDEN[p].items():
        argv = ["count", "--graph", str(path), "--pattern", name, "--json"]
        assert run_cli(capsys, argv) == (0, line + "\n"), name


class TestCheckKinds:
    def test_cases_cover_every_kind(self):
        from rpt import cli

        assert sorted(CHECK_CASES) == sorted(cli._CHECKS)

    @pytest.mark.parametrize("kind", sorted(CHECK_CASES))
    def test_valid_and_mutant_lines(self, capsys, tmp_path, kind):
        (n, edges), cert, (field, value), detail = CHECK_CASES[kind]
        g_path = tmp_path / "g.el"
        g_path.write_text(to_edge_list(Graph.from_edges(n, edges)))
        cert_path = tmp_path / "cert.json"
        argv = ["check", "--graph", str(g_path), "--cert", str(cert_path), "--json"]

        cert_path.write_text(json.dumps(cert))
        code, out = run_cli(capsys, argv)
        assert (code, out) == (
            0,
            f'{{"certificate":"{kind}","detail":"","kind":"check_result","ok":true}}\n',
        )

        cert_path.write_text(json.dumps({**cert, field: value}))
        code, out = run_cli(capsys, argv)
        assert (code, out) == (
            2,
            f'{{"certificate":"{kind}","detail":"{detail}","kind":"check_result","ok":false}}\n',
        )


    @pytest.mark.parametrize("kind", sorted(CHECK_CASES))
    def test_non_object_and_non_string_kind_are_malformed(self, capsys, tmp_path, kind):
        """Each certificate as the one element of a top-level JSON list,
        with its kind as a list, and with a kind no loader has: malformed
        (exit 1), and the message says what was expected, without a Python
        type name."""
        (n, edges), cert, _, _ = CHECK_CASES[kind]
        g_path = tmp_path / "g.el"
        g_path.write_text(to_edge_list(Graph.from_edges(n, edges)))
        cert_path = tmp_path / "cert.json"
        argv = ["check", "--graph", str(g_path), "--cert", str(cert_path), "--json"]
        for bad, message in (([cert], "a certificate must be a JSON object"),
                             ({**cert, "kind": [kind]},
                              'the certificate field "kind" must be a string'),
                             ({**cert, "kind": "nosuch"}, "unknown certificate kind 'nosuch'")):
            cert_path.write_text(json.dumps(bad))
            code = main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n")
            assert not re.search(r"\b(list|dict|str|int|NoneType|unhashable|attribute)\b",
                                 captured.err)


def _field_paths(obj: dict, path: tuple = ()):
    """The path to every field of a certificate, nested objects' fields too."""
    for key, value in obj.items():
        yield (*path, key)
        if isinstance(value, dict):
            yield from _field_paths(value, (*path, key))


def _edited(cert: dict, path: tuple, *value) -> dict:
    """A copy of ``cert`` with the field at ``path`` set to ``value``, or
    deleted when no value is given."""
    out = json.loads(json.dumps(cert))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if value:
        parent[path[-1]] = value[0]
    else:
        del parent[path[-1]]
    return out


# fields a certificate may leave out: each has a default (a pattern's order
# is its labels in order; "verified" is read for its form only), or is the
# kind of a nested certificate
OPTIONAL_FIELDS = {"guaranteed", "contradiction_checked", "verified", "order"}
FRACTION_FIELDS = {"c", "eps", "eta", "theta", "delta", "delta_prime", "eta_prime", "copy_bound"}


class TestMalformedFields:
    """A certificate with a field missing, or a fraction field that is not
    a string, is malformed (exit 1), and the message names the field; it
    used to print only the field's name in quotes, or a Python error."""

    def run(self, capsys, tmp_path, kind, cert):
        (n, edges), _, _, _ = CHECK_CASES[kind]
        g_path = tmp_path / "g.el"
        g_path.write_text(to_edge_list(Graph.from_edges(n, edges)))
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(cert))
        code = main(["check", "--graph", str(g_path), "--cert", str(cert_path), "--json"])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("kind", sorted(CHECK_CASES))
    def test_each_missing_field_is_named(self, capsys, tmp_path, kind):
        cert = CHECK_CASES[kind][1]
        valid = self.run(capsys, tmp_path, kind, cert)
        assert valid[0] == 0
        for path in _field_paths(cert):
            field = path[-1]
            got = self.run(capsys, tmp_path, kind, _edited(cert, path))
            if field in OPTIONAL_FIELDS or (field == "kind" and len(path) > 1):
                assert got == valid, path
            elif field in ("delta_prime", "eta_prime"):
                assert got == (1, "", "error: delta_prime and eta_prime must be stated together\n")
            else:
                assert got == (1, "", f'error: the certificate field "{field}" is missing\n'), path

    @pytest.mark.parametrize("kind", sorted(CHECK_CASES))
    def test_a_fraction_field_must_be_a_string(self, capsys, tmp_path, kind):
        cert = CHECK_CASES[kind][1]
        paths = [p for p in _field_paths(cert) if p[-1] in FRACTION_FIELDS]
        assert paths
        for path in paths:
            field = path[-1]
            for value in (float("nan"), 0.25, None, [1, 4]):
                got = self.run(capsys, tmp_path, kind, _edited(cert, path, value))
                assert got == (
                    1, "", f'error: {field} must be a fraction string such as "1/4", got {value!r}\n'
                ), path

    @pytest.mark.parametrize("kind", sorted(CHECK_CASES))
    def test_a_list_or_object_field_of_another_type_is_named(self, capsys, tmp_path, kind):
        """Each list or object field, and each id list inside a list field,
        given a number, a string or the other container: the message names
        the field and its JSON type.  "parts": 5 used to print "'int' object
        is not iterable", and a "certificate" of [] a missing "parts"."""
        cert = CHECK_CASES[kind][1]
        checked = 0
        for path in _field_paths(cert):
            value = cert
            for key in path:
                value = value[key]
            if type(value) not in (list, dict):
                continue
            name = "pattern order" if path[-1] == "order" else path[-1]
            want = "a JSON array" if type(value) is list else "a JSON object"
            for bad in (5, "x", {} if type(value) is list else []):
                got = self.run(capsys, tmp_path, kind, _edited(cert, path, bad))
                assert got == (1, "", f"error: {name} must be {want}, got {bad!r}\n"), path
            if type(value) is list and value and type(value[0]) is list:
                entry = "pattern edge" if name == "edges" else f"an entry of {name}"
                got = self.run(capsys, tmp_path, kind, _edited(cert, path, [5]))
                assert got == (1, "", f"error: {entry} must be a JSON array, got 5\n"), path
            checked += 1
        assert checked

    @pytest.mark.parametrize("kind", sorted(CHECK_CASES))
    def test_an_unknown_key_is_named(self, capsys, tmp_path, kind):
        """A key the kind's table does not list, at the top and in each
        nested object, is malformed: no field is accepted unread."""
        cert = CHECK_CASES[kind][1]
        nested = {"certificate": "blowup", "pattern": "pattern"}
        for path in [(), *(p for p in _field_paths(cert) if p[-1] in nested)]:
            got = self.run(capsys, tmp_path, kind, _edited(cert, (*path, "extra"), 1))
            owner = nested[path[-1]] if path else kind
            assert got == (1, "", f'error: {owner} has no field "extra"\n'), path

    def test_a_nested_certificate_of_another_kind_is_named(self, capsys, tmp_path):
        cert = _edited(CHECK_CASES["blowup_found"][1], ("certificate", "kind"), "full_pair")
        assert self.run(capsys, tmp_path, "blowup_found", cert) == (
            1, "", """error: the "kind" of a blowup must be "blowup", got 'full_pair'\n""")

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("eps", "1/2", "eps must lie in (0, 1/2)"),
            ("eta", "3/2", "eta must lie in (0, 1/2)"),
            ("eta", "0", "eta must lie in (0, 1/2)"),
            ("theta", "0", "theta must lie in (0, 1/2)"),
            ("theta", "-1/4", "theta must lie in (0, 1/2)"),
            ("delta_prime", "1/3", "delta_prime must lie in (0, 1/4]"),
            ("delta_prime", "0", "delta_prime must lie in (0, 1/4]"),
            ("eta_prime", "0", "eta_prime must lie in (0, 1)"),
            ("eta_prime", "-1/2", "eta_prime must lie in (0, 1)"),
            ("eta_prime", "1", "eta_prime must lie in (0, 1)"),
            ("eta_prime", "2", "eta_prime must lie in (0, 1)"),
        ],
    )
    def test_a_key_parameter_outside_its_domain_is_named(self, capsys, tmp_path, field, value,
                                                         message):
        """The key-lemma certificate is held to KeyParams' own domain, with
        KeyParams' own message."""
        cert = {**CHECK_CASES["key_lemma_result"][1], field: value}
        assert self.run(capsys, tmp_path, "key_lemma_result", cert) == (
            1, "", f"error: {message}\n")

    @pytest.mark.parametrize("kind", ["full_pair", "peel_chain", "key_lemma_result"])
    def test_a_fraction_over_the_digit_limit_is_named(self, capsys, tmp_path, kind):
        cert = {**CHECK_CASES[kind][1], "eps": "1/" + "3" * 5000}
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # the interpreter's default
        try:
            got = self.run(capsys, tmp_path, kind, cert)
        finally:
            sys.set_int_max_str_digits(old)
        assert got == (1, "", "error: eps: an integer of 5000 digits exceeds Python's limit "
                       "of 4300 integer digits\n")


def test_a_closed_pipe_ends_the_run_quietly():
    """`rpt constants ... | head -1`: once the reader has gone, the run
    exits 141 (128 + SIGPIPE, as a shell reports a program that SIGPIPE
    ended) with nothing on stderr.  The read end is closed before the
    child's first write, so its write meets a pipe without a reader."""
    src = str(Path(rpt.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    argv = ["constants", "--h", "3", "--eps", "1/4", "--eta", "1/4", "--theta", "1/4"]
    proc = subprocess.Popen([sys.executable, "-m", "rpt.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


# kind -> the path to a vertex id list starting with 0 in its CHECK_CASES certificate
ID_LIST = {
    "full_pair": ("a",),
    "blowup": ("parts", 0),
    "restricted_partition": ("parts", 0),
    "path_partition": ("blocks", 0),
    "removal_result": ("parts", 0),
    "key_lemma_result": ("C", 0),
    "blowup_found": ("certificate", "parts", 0),
    "peel_chain": ("peels", 0),
}


def _id_list(cert: dict, kind: str) -> list:
    ids = cert
    for key in ID_LIST[kind]:
        ids = ids[key]
    return ids


class TestMalformedIds:
    @pytest.mark.parametrize("kind", sorted(ID_LIST))
    @pytest.mark.parametrize(
        "bad, message",
        [
            (-1, "vertex id -1 is not a nonnegative integer"),
            (1.5, "vertex id 1.5 is not a nonnegative integer"),
            ("3", "vertex id '3' is not a nonnegative integer"),
            (True, "vertex id True is not a nonnegative integer"),
            (0, "vertex id 0 is repeated"),
            (10**8, "vertex id 100000000 out of range for a graph on {n} vertices"),
        ],
    )
    def test_rejected_with_exit_1(self, capsys, tmp_path, kind, bad, message):
        (n, _), _, _, _ = CHECK_CASES[kind]
        self._check_exits_1(capsys, tmp_path, kind, lambda ids: ids.append(bad),
                            message.format(n=n))

    @pytest.mark.parametrize("kind", sorted(ID_LIST))
    def test_unsorted_rejected_with_exit_1(self, capsys, tmp_path, kind):
        ids = _id_list(CHECK_CASES[kind][1], kind)
        message = f"vertex id {ids[-2]} follows {ids[-1]}; id lists must be sorted"
        self._check_exits_1(capsys, tmp_path, kind, list.reverse, message)

    @staticmethod
    def _check_exits_1(capsys, tmp_path, kind, edit, message):
        (n, edges), cert, _, _ = CHECK_CASES[kind]
        cert = json.loads(json.dumps(cert))
        edit(_id_list(cert, kind))
        g_path = tmp_path / "g.el"
        g_path.write_text(to_edge_list(Graph.from_edges(n, edges)))
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(cert))
        code = main(["check", "--graph", str(g_path), "--cert", str(cert_path), "--json"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n")


class TestMalformedIntegers:
    """Integer fields are JSON integers (no bool, no float, no string), and
    copy_count is a string in canonical decimal; anything else exits 1."""

    @pytest.mark.parametrize(
        "kind, field, bad, message",
        [
            ("restricted_partition", "N", 3.9, "N must be an integer, got 3.9"),
            ("restricted_partition", "N", True, "N must be an integer, got True"),
            ("removal_result", "N", "1", "N must be an integer, got '1'"),
            ("removal_result", "d", 0.0, "d must be an integer, got 0.0"),
            ("key_lemma_result", "d", True, "d must be an integer, got True"),
            ("key_lemma_result", "h", 2.0, "h must be an integer, got 2.0"),
            ("peel_chain", "phi_bound", "11", "phi_bound must be an integer, got '11'"),
            ("peel_chain", "phi_bound", False, "phi_bound must be an integer, got False"),
            ("peel_chain", "phi_bound", None, "phi_bound must be an integer, got None"),
            ("restricted_partition", "N", 0, "N must be at least 1, got 0"),
            ("removal_result", "N", 0, "N must be at least 1, got 0"),
            ("removal_result", "N", -1, "N must be at least 1, got -1"),
            ("removal_result", "d", -5, "d must be at least 0, got -5"),
            ("key_lemma_result", "d", -1, "d must be at least 0, got -1"),
            ("key_lemma_result", "h", 0, "h must be at least 1, got 0"),
        ] + [
            ("blowup_found", "copy_count", bad,
             f"copy_count must be a canonical decimal string, got {bad!r}")
            for bad in ("1_6", " 16 ", "016", "+16", "16.0", "", 16, True, 16.0, None)
        ],
    )
    def test_rejected_with_exit_1(self, capsys, tmp_path, kind, field, bad, message):
        (n, edges), cert, _, _ = CHECK_CASES[kind]
        g_path = tmp_path / "g.el"
        g_path.write_text(to_edge_list(Graph.from_edges(n, edges)))
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps({**cert, field: bad}))
        code = main(["check", "--graph", str(g_path), "--cert", str(cert_path), "--json"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n")


class TestMalformedPatterns:
    """A certificate's pattern has a JSON integer vertex count, edge
    endpoints and order entries (no bool, no float); anything else exits 1
    with a one-line error, for blowup and blowup_found alike."""

    @pytest.mark.parametrize("kind", ["blowup", "blowup_found"])
    @pytest.mark.parametrize(
        "pattern, message",
        [
            ({**K2_JSON, "edges": [[0, True]]}, "pattern edge entry True is not an integer"),
            ({**K2_JSON, "edges": [[False, 1]]}, "pattern edge entry False is not an integer"),
            ({**K2_JSON, "edges": [[0, 1.0]]}, "pattern edge entry 1.0 is not an integer"),
            ({**K2_JSON, "edges": [["0", 1]]}, "pattern edge entry '0' is not an integer"),
            ({**K2_JSON, "edges": [[0]]}, "pattern edge [0] does not have two endpoints"),
            ({**K2_JSON, "edges": [[0, 1, 1]]}, "pattern edge [0, 1, 1] does not have two endpoints"),
            ({**K2_JSON, "order": [False, True]}, "pattern order entry False is not an integer"),
            ({**K2_JSON, "order": [0, 1.0]}, "pattern order entry 1.0 is not an integer"),
            ({**K2_JSON, "n": True}, "n must be an integer, got True"),
            ({**K2_JSON, "n": 2.0}, "n must be an integer, got 2.0"),
            ({"n": 0, "edges": [], "order": []}, "patterns need at least one vertex"),
            ({**K2_JSON, "order": [0, 0]}, "order must be a permutation of the pattern vertices"),
            ({**K2_JSON, "edges": [[0, 0]]}, "self-loop edge (0,0)"),
        ],
    )
    def test_rejected_with_exit_1(self, capsys, tmp_path, kind, pattern, message):
        (n, edges), cert, _, _ = CHECK_CASES[kind]
        if kind == "blowup":
            cert = {**cert, "pattern": pattern}
        else:
            cert = {**cert, "certificate": {**cert["certificate"], "pattern": pattern}}
        g_path = tmp_path / "g.el"
        g_path.write_text(to_edge_list(Graph.from_edges(n, edges)))
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(cert))
        code = main(["check", "--graph", str(g_path), "--cert", str(cert_path), "--json"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n")

    def test_pattern_without_order_reads_in_id_order(self, capsys, tmp_path):
        (n, edges), cert, _, _ = CHECK_CASES["blowup"]
        pattern = {k: v for k, v in K2_JSON.items() if k != "order"}
        g_path = tmp_path / "g.el"
        g_path.write_text(to_edge_list(Graph.from_edges(n, edges)))
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps({**cert, "pattern": pattern}))
        code = main(["check", "--graph", str(g_path), "--cert", str(cert_path)])
        assert code == 0


@pytest.mark.parametrize(
    "text, message",
    [
        ("Dhczzzz\n", "graph6 body has 6 characters, not 2"),
        ("A" + chr(94) + "\n", "graph6 padding bits must be 0"),
        ("Dhc\n\nextra line\n", "line 3: graph6 input holds a second data line"),
        ("~\n", "unsupported graph6 size header"),
    ],
)
def test_count_rejects_malformed_graph6_with_exit_1(capsys, tmp_path, text, message):
    path = tmp_path / "g.g6"
    path.write_text(text)
    code = main(["count", "--graph", str(path), "--pattern", "K2"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n")


FULL_PAIR_K44 = CHECK_CASES["full_pair"][1]

# Certificates that a full pair's or a blowup's own constructor refuses:
# rpt check on K_{4,4} exits 1 naming the refusal
HOSTILE_CERTIFICATES = {
    "polarity": ({**FULL_PAIR_K44, "polarity": "both"}, "polarity must be 'full' or 'empty'"),
    "c-zero": ({**FULL_PAIR_K44, "c": "0"}, "c must lie in (0,1]"),
    "eps-one": ({**FULL_PAIR_K44, "eps": "1"}, "eps must lie in (0,1)"),
    "empty-side": ({**FULL_PAIR_K44, "a": []}, "both sides must be nonempty"),
    "shared-side": ({**FULL_PAIR_K44, "b": [3, 4, 5, 6, 7]}, "sides must be disjoint"),
    "pattern-size": ({**BLOWUP_K44, "pattern": {"n": 3, "edges": [], "order": [0, 1, 2]}},
                     "pattern size must match the number of parts"),
    "empty-part": ({**BLOWUP_K44, "parts": [[], [4, 5, 6, 7]]}, "blowup parts must be nonempty"),
    "shared-part": ({**BLOWUP_K44, "parts": [[0, 1, 2, 3], [3, 4, 5]]},
                    "blowup parts must be disjoint"),
}


@pytest.mark.parametrize("case", HOSTILE_CERTIFICATES)
def test_a_hostile_certificate_exits_1(capsys, tmp_path, case):
    cert, message = HOSTILE_CERTIFICATES[case]
    assert _check(capsys, tmp_path, 8, K44, cert) == (1, "", f"error: {message}\n")


# Arguments and inputs that a library check refuses, with the graph file's
# text where the command reads one: each run exits 1 naming the refusal
SMALL_CORE = ["counterexample", "--allow-small-core", "--m", "3"]
HOSTILE_RUNS = {
    "unknown-pattern": (["count", "--pattern", "nosuch"], "3\n0 1\n",
                        f"unknown pattern 'nosuch'; known: {', '.join(sorted(NAMED_PATTERNS))}"),
    "big-n-0": (["counterexample", "--big-n", "0", "--m", "3", "--n", "4"], None,
                "restriction budget must be >= 1"),
    "n-below-m": ([*SMALL_CORE, "--n", "2"], None, "total size must be at least the core size"),
    "pattern-k1": ([*SMALL_CORE, "--n", "4", "--pattern", "K1"], None,
                   "pattern must have at least two vertices"),
    # with N >= n every graph is (N, eps)-restricted, so no resample is kept
    "no-hard-core": ([*SMALL_CORE, "--n", "4", "--big-n", "5"], None,
                     "resampling budget exhausted; raise the core size or lower the "
                     "restriction budget"),
    "oracle-budget": (["oracle", "--op", "min-removal"], "11\n0 1\n",
                      "graph on 11 vertices exceeds the oracle budget 10"),
}


@pytest.mark.parametrize("case", HOSTILE_RUNS)
def test_a_hostile_run_exits_1(capsys, tmp_path, case):
    argv, text, message = HOSTILE_RUNS[case]
    if text is not None:
        path = tmp_path / "g.txt"
        path.write_text(text)
        argv = [*argv, "--graph", str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n")


def _check(capsys, tmp_path, n, edges, cert):
    """`rpt check --json` on a certificate dict: (exit code, stdout, stderr)."""
    g_path = tmp_path / "g.el"
    g_path.write_text(to_edge_list(Graph.from_edges(n, edges)))
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert))
    code = main(["check", "--graph", str(g_path), "--cert", str(cert_path), "--json"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _check_line(kind: str, ok: bool, detail: str) -> str:
    return serialize.dumps(
        {"certificate": kind, "detail": detail, "kind": "check_result", "ok": ok}
    ) + "\n"


class TestOptionScopes:
    """Each option is registered only on the subcommands that read it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--graph", "{c5}", "--pattern", "K2", "--seed", "1"],
            ["check", "--graph", "{c5}", "--cert", "{c5}", "--mode", "paper"],
            ["constants", "--h", "2", "--eps", "1/4", "--eta", "1/4", "--theta", "1/4",
             "--mode", "paper"],
            # theorem and extract run practical parameters only
            ["theorem", "--graph", "{c5}", "--pattern", "K2", "--d", "1", "--mode", "paper"],
            ["extract", "--graph", "{c5}", "--pattern", "K2", "--op", "density",
             "--mode", "paper"],
        ],
    )
    def test_foreign_option_is_a_usage_error(self, capsys, c5_file, argv):
        code = main([a.format(c5=c5_file) for a in argv])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "unrecognized arguments: " + " ".join(argv[-2:]) in captured.err

    def test_seed_and_mode_still_parse_where_read(self, c5_file):
        args = parse_args(["counterexample", "--m", "20", "--n", "22", "--seed", "7"])
        assert args.seed == 7
        argv = ["keylemma", "--graph", c5_file, "--pattern", "K2", "--d", "1", "--mode", "paper"]
        assert parse_args(argv).mode == "paper"


class _Reads:
    """An argparse namespace that records the names read from it."""

    def __init__(self, args, reads: set):
        self._args, self._reads = args, reads

    def __getattr__(self, name):
        self._reads.add(name)
        return getattr(self._args, name)


# One run per subcommand, per extract op and per oracle path that reads its
# own options; each subcommand's handler must read every option it registers.
OPTION_RUNS = [
    ["count", "--graph", "{c5}", "--pattern", "P3"],
    ["check", "--graph", "{c5}", "--cert", "{cert}"],
    ["extract", "--graph", "{c5}", "--pattern", "K2", "--op", "density"],
    ["extract", "--graph", "{c5}", "--pattern", "K2", "--op", "restricted"],
    ["extract", "--graph", "{c5}", "--pattern", "K2", "--op", "peel"],
    ["keylemma", "--graph", "{c5}", "--pattern", "K2", "--d", "2"],
    ["theorem", "--graph", "{c5}", "--pattern", "K2", "--d", "2"],
    ["counterexample", "--m", "20", "--n", "22", "--out", "{out}"],
    ["constants", "--h", "2", "--eps", "1/4", "--eta", "1/4", "--theta", "1/4"],
    ["oracle", "--op", "count", "--graph", "{c5}"],
    ["oracle", "--op", "min-removal", "--graph", "{c5}"],
]


def test_every_registered_option_is_read(capsys, tmp_path, c5_file):
    from rpt import cli

    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(CHECK_CASES["restricted_partition"][1]))
    registered: dict[str, set] = {}
    read: dict[str, set] = {}
    for argv in OPTION_RUNS:
        argv = [a.format(c5=c5_file, cert=cert, out=tmp_path / "hard.el") for a in argv]
        args = parse_args(argv)
        sub = args.subcommand
        registered[sub] = set(vars(args)) - {"subcommand"}
        assert cli._DISPATCH[sub](_Reads(args, read.setdefault(sub, set()))) == 0, argv
    capsys.readouterr()
    assert sorted(registered) == sorted(cli._DISPATCH)
    unread = {sub: sorted(registered[sub] - read[sub]) for sub in sorted(registered)}
    assert unread == {sub: [] for sub in unread}


def _singletons_certificate(**bounds) -> dict:
    return {"kind": "key_lemma_result", "S": [], "A": [], "B": [],
            "C": [[v] for v in range(60)], "d": 0, "h": 2, "eps": "1/4",
            "eta": "1/4", "theta": "1/4", **bounds}


class TestKeySingleCountClause:
    """60 singletons against N = C(2,2) + phi(1/8, 1/512) = 48."""

    def test_stated_bounds_are_checked(self, capsys, tmp_path):
        cert = _singletons_certificate(delta_prime="1/8", eta_prime="1/512")
        assert _check(capsys, tmp_path, 60, [], cert) == (
            2, _check_line("key_lemma_result", False, "single count exceeds N = 48"), "")

    @pytest.mark.parametrize("field, value", [("delta_prime", "1/8"), ("eta_prime", "1/512")])
    def test_one_bound_alone_is_malformed(self, capsys, tmp_path, field, value):
        cert = _singletons_certificate(**{field: value})
        assert _check(capsys, tmp_path, 60, [], cert) == (
            1, "", "error: delta_prime and eta_prime must be stated together\n")

    def test_unstated_bounds_say_the_clause_is_not_checked(self, capsys, tmp_path):
        detail = "single-count clause not checked: delta_prime and eta_prime not stated"
        assert _check(capsys, tmp_path, 60, [], _singletons_certificate()) == (
            0, _check_line("key_lemma_result", True, detail), "")


class TestStrictBooleans:
    @pytest.mark.parametrize("bad", ["false", 0, None, "yes", 1])
    def test_guaranteed_must_be_a_boolean(self, capsys, tmp_path, bad):
        (n, edges), cert, _, _ = CHECK_CASES["peel_chain"]
        assert _check(capsys, tmp_path, n, edges, {**cert, "guaranteed": bad}) == (
            1, "", f"error: guaranteed must be true or false, got {bad!r}\n")

    def test_missing_guaranteed_is_held_to_the_bound(self, capsys, tmp_path):
        (n, edges), cert, _, _ = CHECK_CASES["peel_chain"]
        cert = {k: v for k, v in cert.items() if k != "guaranteed"}
        cert = {**cert, "peels": [[0], [1], [2], [3], [4]]}  # 5 > phi(1/2, 1/4) = 2
        assert _check(capsys, tmp_path, n, edges, cert) == (
            2, _check_line("peel_chain", False, "more peels than phi(delta, eta)"), "")

    @pytest.mark.parametrize("bad", ["no", "true", 1, None])
    def test_verified_must_be_a_boolean(self, capsys, tmp_path, bad):
        (n, edges), cert, _, _ = CHECK_CASES["removal_result"]
        assert _check(capsys, tmp_path, n, edges, {**cert, "verified": bad}) == (
            1, "", f"error: verified must be true or false, got {bad!r}\n")

    @pytest.mark.parametrize("bad", ["no", "true", 1, None])
    def test_contradiction_checked_must_be_a_boolean(self, capsys, tmp_path, bad):
        (n, edges), cert, _, _ = CHECK_CASES["blowup_found"]
        cert = {**cert, "contradiction_checked": bad}
        assert _check(capsys, tmp_path, n, edges, cert) == (
            1, "", f"error: contradiction_checked must be true or false, got {bad!r}\n")

    def test_claimed_contradiction_is_reported_unchecked(self, capsys, tmp_path):
        (n, edges), cert, _, _ = CHECK_CASES["blowup_found"]
        cert = {**cert, "contradiction_checked": True}
        detail = "contradiction not re-checked: the certificate carries no kappa and no d"
        assert _check(capsys, tmp_path, n, edges, cert) == (
            0, _check_line("blowup_found", True, detail), "")


C5 = (5, Graph.cycle(5).edges())
E5 = (5, [])
KEY_ROWS = {"kind": "key_lemma_result", "S": [], "A": [], "B": [], "C": [], "d": 0, "h": 2,
            "eps": "1/4", "eta": "1/4", "theta": "1/4"}

# (graph, certificate, the clause or detail `rpt check` prints): one refutation
# per clause of the certificate verifiers that the other tests do not reach
REFUTATIONS = {
    "path:shape": (C5, {"kind": "path_partition", "blocks": [], "eps": "1/4"}, "shape"),
    "path:nonempty": (C5, {"kind": "path_partition", "blocks": [[0, 1, 2, 3, 4], []],
                           "eps": "1/4"}, "nonempty:1"),
    "path:disjoint": (C5, {"kind": "path_partition", "blocks": [[0, 1, 2], [2, 3, 4]],
                           "eps": "1/4"}, "disjoint"),
    "restricted:empty": (C5, {"kind": "restricted_partition", "parts": [[], [0, 1, 2, 3, 4]],
                              "eps": "1/2", "N": 2}, "empty part 0"),
    "restricted:overlap": (C5, {"kind": "restricted_partition", "parts": [[0, 1, 2], [2, 3, 4]],
                                "eps": "1/2", "N": 2}, "part 1 overlaps"),
    "removal:budget": (C5, {"kind": "removal_result", "removed": [0], "parts": [[1, 2, 3, 4]],
                            "eps": "1/4", "N": 1, "d": 0}, "removed more than the budget"),
    "removal:intersect": (C5, {"kind": "removal_result", "removed": [0],
                               "parts": [[0, 1, 2, 3, 4]], "eps": "1/4", "N": 1, "d": 1},
                          "parts intersect the removed set"),
    "peel:leftover": (C5, {"kind": "peel_chain", "peels": [], "leftover": [0, 1, 2, 3, 4],
                           "eps": "1/2", "eta": "1/4", "delta": "1/2", "phi_bound": 2},
                      "leftover exceeds eta |G|"),
    "peel:phi": (C5, {"kind": "peel_chain", "peels": [[0, 1, 2, 3, 4]], "leftover": [],
                      "eps": "1/2", "eta": "1/4", "delta": "1/2", "phi_bound": 3},
                 "phi bound does not match its parameters"),
    "key:removed": (C5, {**KEY_ROWS, "S": [0]}, "removed set exceeds d"),
    "key:rows": (C5, {**KEY_ROWS, "A": [[0, 1]]}, "pair rows have unequal lengths"),
    "key:pairs": (C5, {**KEY_ROWS, "A": [[0], [2]], "B": [[1], [3]]},
                  "more pairs than C(h,2)"),
    "key:empty-side": (E5, {**KEY_ROWS, "A": [[0, 1, 2, 3]], "B": [[]]},
                       "pair 0 has an empty side"),
    "key:overlap": (E5, {**KEY_ROWS, "S": [0], "d": 1, "A": [[0, 1, 2, 3]], "B": [[4]]},
                    "pair 0 overlaps earlier sets"),
    "key:restricted": (C5, {**KEY_ROWS, "A": [[0, 1, 2, 3]], "B": [[4]]},
                       "pair 0: A not eps-restricted"),
    "key:b-size": (E5, {**KEY_ROWS, "A": [[0, 1, 2]], "B": [[3, 4]]},
                   "pair 0: B larger than eta*|A|"),
    "key:tight": ((5, [(0, 4), (1, 4)]), {**KEY_ROWS, "A": [[0, 1, 2, 3]], "B": [[4]]},
                  "pair 0: B not theta-tight to A"),
    "key:single-count": ((60, []), _singletons_certificate(delta_prime="1/8",
                                                           eta_prime="1/512"),
                         "single count exceeds N = 48"),
    "blowup_found:blowup": ((8, K44), {**CHECK_CASES["blowup_found"][1], "certificate": {
        **BLOWUP_K44, "pattern": {"n": 2, "edges": [], "order": [0, 1]}}},
                            "failing pair (1, 2)"),
    "blowup_found:bound": ((8, K44), {**CHECK_CASES["blowup_found"][1], "copy_bound": "17"},
                           "copy count below the stated bound"),
}


@pytest.mark.parametrize("case", sorted(REFUTATIONS))
def test_every_refutation_clause_is_reached(capsys, tmp_path, case):
    (n, edges), cert, detail = REFUTATIONS[case]
    assert _check(capsys, tmp_path, n, edges, cert) == (
        2, _check_line(cert["kind"], False, detail), "")


def test_removed_set_out_of_range_is_refuted():
    # the loader rejects such ids first, so only the library reaches the clause
    from rpt.assembly import RemovalResult, RestrictedPartition, verify_removal_result

    r = RemovalResult(1 << 5, RestrictedPartition((0b11111,), Fraction(1, 2), 1), 1)
    assert verify_removal_result(Graph.cycle(5), r).detail == "removed set out of range"


@pytest.mark.parametrize("bad", ["2", "0", "-1/2", "1/3"])
def test_removal_eps_outside_the_theorem_domain_exits_1(capsys, tmp_path, bad):
    """A removal certificate from `rpt theorem` verifies at its own eps = 1/4.
    With eps outside (0, 1/3) it is malformed, even where every part would
    pass at that eps (at eps = 2 every set is restricted)."""
    g = random_graph(60, 0.5, 60)
    g_path = tmp_path / "g.el"
    g_path.write_text(to_edge_list(g))
    assert main(["theorem", "--graph", str(g_path), "--pattern", "K3", "--eps", "1/4",
                 "--d", "2", "--json"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["eps"] == "1/4"
    assert _check(capsys, tmp_path, g.n, g.edges(), cert) == (
        0, _check_line("removal_result", True, ""), "")
    assert _check(capsys, tmp_path, g.n, g.edges(), {**cert, "eps": bad}) == (
        1, "", "error: eps must lie in (0, 1/3)\n")


@pytest.fixture(scope="module")
def g60_certificates(tmp_path_factory):
    """G(60, 1/2) and the certificates that `rpt theorem` (K3, eps 1/4, d 2),
    `rpt keylemma --transcript` (K2, d 2) and `rpt extract --op peel` (K3)
    produce on it."""
    g = random_graph(60, 0.5, 60)
    g_path = tmp_path_factory.mktemp("g60") / "g.el"
    g_path.write_text(to_edge_list(g))
    runs = {
        "removal_result": ["theorem", "--pattern", "K3", "--eps", "1/4", "--d", "2"],
        "key_lemma_result": ["keylemma", "--pattern", "K2", "--d", "2", "--transcript"],
        "peel_chain": ["extract", "--pattern", "K3", "--op", "peel"],
    }
    certs = {}
    for kind, argv in runs.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([*argv, "--graph", str(g_path), "--json"]) == 0
        certs[kind] = json.loads(out.getvalue())
    return g, certs


@pytest.mark.parametrize(
    "kind, field, value, message",
    [
        ("removal_result", "extra", 1, 'removal_result has no field "extra"'),
        ("removal_result", "verified", "no", "verified must be true or false, got 'no'"),
        ("removal_result", "N", 0, "N must be at least 1, got 0"),
        ("removal_result", "d", -5, "d must be at least 0, got -5"),
        ("key_lemma_result", "extra", 1, 'key_lemma_result has no field "extra"'),
        ("key_lemma_result", "verified", "no", 'key_lemma_result has no field "verified"'),
        ("key_lemma_result", "eta", "3/2", "eta must lie in (0, 1/2)"),
        ("key_lemma_result", "theta", "0", "theta must lie in (0, 1/2)"),
        ("key_lemma_result", "h", 0, "h must be at least 1, got 0"),
        ("key_lemma_result", "d", -5, "d must be at least 0, got -5"),
    ],
)
def test_a_produced_certificate_with_a_field_out_of_domain_exits_1(
        capsys, tmp_path, g60_certificates, kind, field, value, message):
    """Each edit used to read VERIFIED (exit 0), or, for N, d and h, to be
    refuted (exit 2, h = 0 with "N = -492"); each is malformed, and the
    message names the field."""
    g, certs = g60_certificates
    assert _check(capsys, tmp_path, g.n, g.edges(), certs[kind]) == (
        0, _check_line(kind, True, ""), "")
    assert _check(capsys, tmp_path, g.n, g.edges(), {**certs[kind], field: value}) == (
        1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("extra", 1, 'step_record has no field "extra"'),
        ("kind", "blowup", """the "kind" of a step_record must be "step_record", got 'blowup'"""),
        ("finished", "yes", "finished must be true or false, got 'yes'"),
        ("t", 1.0, "t must be an integer, got 1.0"),
        ("S", [60], "vertex id 60 out of range for a graph on 60 vertices"),
        ("chain", [5], "an entry of chain must be a JSON array, got 5"),
    ],
)
def test_a_malformed_transcript_step_exits_1(capsys, tmp_path, g60_certificates, field, value,
                                             message):
    """Step records are read for their form (they are not verified): a
    wrongly formed step makes the key-lemma certificate malformed."""
    g, certs = g60_certificates
    cert = json.loads(json.dumps(certs["key_lemma_result"]))
    cert["transcript"][0][field] = value
    assert _check(capsys, tmp_path, g.n, g.edges(), cert) == (1, "", f"error: {message}\n")
    for bad, message in (({}, "transcript must be a JSON array, got {}"),
                         ([5], "an entry of transcript must be a JSON object, got 5")):
        assert _check(capsys, tmp_path, g.n, g.edges(), {**cert, "transcript": bad}) == (
            1, "", f"error: {message}\n")


def test_every_certificate_round_trips_byte_for_byte(g60_certificates):
    """Writer, loader, writer: the JSON of every certificate the CLI
    produces here and of every CHECK_CASES certificate comes back byte for
    byte, through the table and through the public loader and writer."""
    from rpt import cli
    from rpt.extraction import PeelChain

    g, certs = g60_certificates
    cases = [(kind, g.n, cert) for kind, cert in certs.items()]
    cases += [(kind, n, cert) for kind, ((n, _), cert, _, _) in CHECK_CASES.items()]
    for kind, n, cert in cases:
        want = serialize.dumps(cert)
        assert serialize.dumps(serialize._write(kind, *serialize._read(kind, cert, n))) == want
        if kind == "key_lemma_result":  # its loader builds a KeyCertificate
            continue
        loader = cli._CHECKS[kind][0]
        loaded = getattr(serialize, loader)(cert, n)
        if kind == "peel_chain":
            loaded = PeelChain(**loaded)
        writer = getattr(serialize, loader.replace("_from_json", "_to_json"))
        assert serialize.dumps(writer(loaded)) == want, kind
    assert certs["key_lemma_result"]["transcript"]


@pytest.mark.parametrize("subcommand", ["theorem", "keylemma"])
def test_one_run_decides_each_power_once(capsys, tmp_path, monkeypatch, subcommand):
    """phi and depth_for are cached, so one run calls least_power once per
    distinct (q, x): the peel chain, its self-check and both key-lemma
    bounds used to decide the same phi(delta', eta') again, five calls for
    two pairs."""
    import rpt.ledger

    g_path = tmp_path / "g.el"
    g_path.write_text(to_edge_list(random_graph(80, 0.5, 1)))
    calls = []
    least_power = rpt.ledger.least_power
    monkeypatch.setattr(rpt.ledger, "least_power",
                        lambda q, x: calls.append((q, x)) or least_power(q, x))
    rpt.ledger.phi.cache_clear()
    rpt.ledger.depth_for.cache_clear()
    assert main([subcommand, "--graph", str(g_path), "--pattern", "K3", "--d", "10",
                 "--json"]) == 0
    capsys.readouterr()
    assert len(calls) == len(set(calls)) >= 2


def test_one_peel_run_decides_each_depth_once(capsys, tmp_path, monkeypatch):
    """depth_for is cached as phi is: on G(60, 1/2) the peel chain's exact
    extractor asks for the depth of one eps more than once, and one
    `rpt extract --op peel` run calls least_power once per distinct (q, x)
    (three calls for two pairs before the cache)."""
    import rpt.ledger

    g_path = tmp_path / "g.el"
    g_path.write_text(to_edge_list(random_graph(60, 0.5, 1)))
    calls = []
    least_power = rpt.ledger.least_power
    monkeypatch.setattr(rpt.ledger, "least_power",
                        lambda q, x: calls.append((q, x)) or least_power(q, x))
    rpt.ledger.phi.cache_clear()
    rpt.ledger.depth_for.cache_clear()
    assert main(["extract", "--graph", str(g_path), "--pattern", "K3", "--op", "peel",
                 "--json"]) == 0
    capsys.readouterr()
    assert len(calls) == len(set(calls)) == 2


class TestHostilePhiParameters:
    """A peel chain whose delta makes phi(delta, eta) enormous is refuted
    at once: the check never builds (1 - delta)^phi exactly."""

    @pytest.mark.parametrize("delta", ["1/10000000", f"1/{2**300}"], ids=["1e-7", "2^-300"])
    def test_refuted_within_a_second(self, capsys, tmp_path, delta):
        import time

        g = random_graph(80, 0.9, 5)
        g_path = tmp_path / "g.el"
        g_path.write_text(to_edge_list(g))
        code, out = run_cli(capsys, ["extract", "--graph", str(g_path), "--pattern", "K2",
                                     "--op", "peel", "--json"])
        assert code == 0
        cert = {**json.loads(out), "delta": delta}
        start = time.perf_counter()
        result = _check(capsys, tmp_path, g.n, g.edges(), cert)
        assert time.perf_counter() - start < 1.0
        assert result == (
            2, _check_line("peel_chain", False, "phi bound does not match its parameters"), "")


def test_blank_exception_message_names_its_type(capsys, monkeypatch, c5_file):
    from rpt import cli

    def raise_bare(args):
        raise ZeroDivisionError()

    monkeypatch.setitem(cli._DISPATCH, "count", raise_bare)
    code = main(["count", "--graph", c5_file, "--pattern", "K2"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", "error: ZeroDivisionError\n")


@pytest.mark.parametrize("n, edges", [(0, []), (5, [(0, 1), (1, 2)])], ids=["empty", "path5"])
@pytest.mark.parametrize("command", [["theorem", "--eps", "1/4"], ["keylemma"]])
def test_a_negative_d_is_refused(capsys, tmp_path, n, edges, command):
    # `theorem` on the 0-vertex graph used to take its shortcut first and
    # print "d": -1
    g_path = tmp_path / "g.el"
    g_path.write_text(to_edge_list(Graph.from_edges(n, edges)))
    code = main([*command, "--graph", str(g_path), "--pattern", "K2", "--d", "-1", "--json"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        1, "", "error: removal budget must be nonnegative\n")


@pytest.mark.parametrize("h", ["0", "-3", "1"])
def test_the_ledger_refuses_h_below_2(capsys, c5_file, h):
    # these used to exit 1 with "min() arg is an empty sequence" (h <= 0)
    # and "log2 of a nonpositive rational" (h = 1)
    runs = [["constants", "--h", h, "--eps", "1/4", "--eta", "1/4", "--theta", "1/4"]]
    if h == "1":
        runs.append(["keylemma", "--graph", c5_file, "--pattern", "K1", "--mode", "paper",
                     "--eps", "1/4", "--d", "1"])
    for argv in runs:
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            1, "", f"error: h must be at least 2, got {h}\n")


# Each producer on the 0-vertex graph `0\n`: its exit code, and for each
# certificate it emits the exit code of `rpt check` on it.  A density
# subset is promised nonempty and a 0-vertex graph has none, so
# `extract --op density` and `--op restricted` refuse it.
EMPTY_GRAPH_RUNS = {
    "count": (["count", "--pattern", "K2"], 0, None),
    "extract-density": (["extract", "--pattern", "K2", "--op", "density"], 1, None),
    "extract-restricted": (["extract", "--pattern", "K2", "--op", "restricted"], 1, None),
    "extract-peel": (["extract", "--pattern", "K2", "--op", "peel"], 0, 0),
    "keylemma": (["keylemma", "--pattern", "K2", "--d", "0", "--transcript"], 0, 0),
    "theorem": (["theorem", "--pattern", "K3", "--eps", "1/4", "--d", "0"], 0, 0),
}


@pytest.mark.parametrize("run", EMPTY_GRAPH_RUNS)
def test_every_producer_on_the_empty_graph(capsys, tmp_path, run):
    argv, code, check_code = EMPTY_GRAPH_RUNS[run]
    g_path = tmp_path / "e0.txt"
    g_path.write_text("0\n")
    got = main([*argv, "--graph", str(g_path), "--json"])
    captured = capsys.readouterr()
    if code:
        assert (got, captured.out, captured.err) == (code, "", "error: empty graph\n")
        return
    assert (got, captured.err) == (0, "")
    if check_code is None:
        assert json.loads(captured.out)["value"] == "0"
        return
    assert _check(capsys, tmp_path, 0, [], json.loads(captured.out))[0] == check_code


def test_extract_density_runs_at_the_given_depth(capsys, c5_file):
    from rpt.extraction import ExtractionBudget, find_low_or_high_density_subset
    from rpt.graph import mask_to_ids, named_pattern

    code, out = run_cli(capsys, ["extract", "--graph", c5_file, "--pattern", "K2",
                                 "--op", "density", "--depth", "2", "--json"])
    quarter = Fraction(1, 4)
    res = find_low_or_high_density_subset(Graph.cycle(5), named_pattern("K2"),
                                          ExtractionBudget(quarter, quarter, 2))
    obj = json.loads(out)
    assert code == 0
    assert (obj["vertices"], obj["side"], obj["guaranteed"]) == (
        mask_to_ids(res.vertices), res.side, res.guaranteed)


def test_keylemma_blowup_found_passes_check(capsys, tmp_path, c5_file):
    # K1 on C5: the first step's core is a one-vertex blowup, t = h = 1
    argv = ["keylemma", "--graph", c5_file, "--pattern", "K1", "--d", "0"]
    code, out = run_cli(capsys, [*argv, "--json"])
    obj = json.loads(out)
    assert code == 0 and obj["kind"] == "blowup_found"
    cert = tmp_path / "found.json"
    cert.write_text(out)
    assert run_cli(capsys, ["check", "--graph", c5_file, "--cert", str(cert), "--json"]) == (
        0, _check_line("blowup_found", True, ""))
    assert run_cli(capsys, argv) == (
        0, f"blowup found: {obj['copy_count']} labeled copies (bound {obj['copy_bound']})\n")


def test_keylemma_human_transcript_prints_the_json_steps(capsys, c5_file):
    argv = ["keylemma", "--graph", c5_file, "--pattern", "K2", "--d", "2", "--transcript"]
    code, human = run_cli(capsys, argv)
    assert code == 0
    first, *steps = human.splitlines()
    assert first == "removed 0 <= d=2; 0 pairs, 3 singles"
    assert [json.loads(line) for line in steps] == json.loads(
        run_cli(capsys, [*argv, "--json"])[1])["transcript"]
