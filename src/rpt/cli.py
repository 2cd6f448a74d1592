"""Batch command-line surface.

Subcommands: count, check, extract, keylemma, theorem, counterexample,
constants, oracle.  All fractions are parsed exactly ('p/q' or decimal
strings); graph inputs are edge-list or graph6 (auto-detected); output
is human-readable by default and deterministic JSON with --json.

Exit codes: 0 verified success, 2 a check that verified false, 1 errors.

The module itself imports only ``serialize``, ``graph`` and ``values``; each
``_cmd_*`` imports the rest of the package it runs at its top, so a command
compiles only its own modules (``rpt constants`` compiles ``ledger``, not
the pipeline).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import replace
from fractions import Fraction
from importlib import import_module

from . import serialize
from .graph import (
    Graph,
    Pattern,
    count_induced_copies,
    edge_density,
    load_graph_text,
    mask_to_ids,
    named_pattern,
    to_edge_list,
)
from .values import format_fraction, parse_fraction


def _fraction(text: str) -> Fraction:
    try:
        return parse_fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return load_graph_text(fh.read())


def _load_pattern(spec: str) -> Pattern:
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            return Pattern.of(load_graph_text(fh.read()))
    return named_pattern(spec)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The whole argparse tree, built once per process: parsing never
    changes it, and building it costs more than most checks."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    top = argparse.ArgumentParser(
        prog="rpt",
        description="count induced copies, verify certificates, and run the "
        "removal/partition pipeline",
    )
    sub = top.add_subparsers(dest="subcommand", required=True)

    def add(name: str, help_text: str, *parents) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help_text, parents=[common, *parents])

    c = add("count", "number of induced copies of a pattern")
    c.add_argument("--graph", required=True)
    c.add_argument("--pattern", required=True)

    k = add("check", "verify a certificate JSON against a graph")
    k.add_argument("--graph", required=True)
    k.add_argument("--cert", required=True)

    e = add("extract", "density / restricted / peel extraction")
    e.add_argument("--graph", required=True)
    e.add_argument("--pattern", required=True)
    e.add_argument("--op", choices=["density", "restricted", "peel"], required=True)
    e.add_argument("--eps", type=_fraction, default=Fraction(1, 4))
    e.add_argument("--eps2", type=_fraction, default=None)
    e.add_argument("--delta", type=_fraction, default=Fraction(1, 8))
    e.add_argument("--eta", type=_fraction, default=Fraction(1, 4))
    e.add_argument("--depth", type=int, default=None)

    kl = add("keylemma", "run the working-partition iteration")
    kl.add_argument("--graph", required=True)
    kl.add_argument("--pattern", required=True)
    kl.add_argument("--eps", type=_fraction, default=Fraction(1, 4))
    kl.add_argument("--eta", type=_fraction, default=Fraction(1, 4))
    kl.add_argument("--theta", type=_fraction, default=Fraction(1, 4))
    kl.add_argument("--d", type=int, required=True)
    kl.add_argument("--delta-prime", type=_fraction, default=None)
    kl.add_argument("--transcript", action="store_true", help="emit step records")

    t = add("theorem", "remove <= d vertices, partition the rest")
    t.add_argument("--graph", required=True)
    t.add_argument("--pattern", required=True)
    t.add_argument("--eps", type=_fraction, default=Fraction(1, 4))
    t.add_argument("--d", type=int, required=True)
    t.add_argument("--delta-prime", type=_fraction, default=None)

    x = add("counterexample", "generate a verified hard instance")
    x.add_argument("--seed", type=int, default=0)
    x.add_argument("--big-n", type=int, default=1, help="restriction budget N")
    x.add_argument("--m", type=int, required=True)
    x.add_argument("--n", type=int, required=True)
    x.add_argument("--eps", type=_fraction, default=Fraction(1, 20))
    x.add_argument("--pattern", default="K2")
    x.add_argument("--allow-small-core", action="store_true")
    x.add_argument("--out", default=None, help="write the edge list here")

    n = add("constants", "dump the constants ledger")
    n.add_argument("--h", type=int, required=True)
    n.add_argument("--eps", type=_fraction, required=True)
    n.add_argument("--eta", type=_fraction, required=True)
    n.add_argument("--theta", type=_fraction, required=True)

    o = add("oracle", "exhaustive baselines on small graphs")
    o.add_argument("--graph", required=True)
    o.add_argument("--pattern", default=None)
    o.add_argument(
        "--op", choices=["count", "n-restricted", "min-removal"], required=True
    )
    o.add_argument("--n-parts", type=int, default=2)
    o.add_argument("--eps", type=_fraction, default=Fraction(1, 4))
    return top


def parse_args(argv) -> argparse.Namespace:
    return build_parser().parse_args(argv)


def _emit(args: argparse.Namespace, payload: Callable[[], dict], human: Callable[[], str]) -> None:
    """Print the JSON payload under --json, else the human text.  Both are
    zero-argument builders, and only the one printed is called."""
    print(serialize.dumps(payload()) if args.json else human())


def _cmd_count(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    pat = _load_pattern(args.pattern)
    value = count_induced_copies(g, pat)
    _emit(
        args,
        lambda: {"kind": "count", "value": str(value), "n": g.n, "h": pat.size},
        lambda: f"ind = {value} (graph on {g.n} vertices, pattern on {pat.size})",
    )
    return 0


# certificate kind -> (its JSON loader in rpt.serialize, the module and name
# of the library's verifier returning a Verdict).  Both are looked up when
# the check runs, so only that verifier's modules are imported, and a
# wrapped or patched function is honoured.
_CHECKS = {
    "full_pair": ("full_pair_from_json", "predicates", "is_full_pair"),
    "blowup": ("blowup_from_json", "predicates", "verify_blowup"),
    "restricted_partition": (
        "restricted_partition_from_json", "assembly", "verify_restricted_partition",
    ),
    "path_partition": ("path_partition_from_json", "assembly", "verify_path_partition"),
    "removal_result": ("removal_result_from_json", "assembly", "verify_removal_result"),
    "key_lemma_result": ("key_result_from_json", "keypartition", "verify_key_certificate"),
    "blowup_found": ("blowup_found_from_json", "keypartition", "verify_blowup_found"),
    "peel_chain": ("peel_chain_from_json", "extraction", "verify_peel_chain"),
}


def _cmd_check(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    with open(args.cert, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("a certificate must be a JSON object")
    kind = serialize.required_field(obj, "kind")
    if not isinstance(kind, str):
        raise ValueError('the certificate field "kind" must be a string')
    if kind not in _CHECKS:
        raise ValueError(f"unknown certificate kind {kind!r}")
    loader, module_name, verifier = _CHECKS[kind]
    cert = getattr(serialize, loader)(obj, g.n)
    module = import_module(f"{__package__}.{module_name}")
    if kind == "peel_chain":  # its loader returns the chain's fields by name
        cert = module.PeelChain(**cert)
    v = getattr(module, verifier)(g, cert)
    detail = v.clause or v.detail
    _emit(
        args,
        lambda: {"kind": "check_result", "certificate": kind, "ok": v.ok, "detail": detail},
        lambda: f"{kind}: {'VERIFIED' if v.ok else 'FAILED'}"
        + (f" ({detail})" if detail else ""),
    )
    return 0 if v.ok else 2


def _cmd_extract(args: argparse.Namespace) -> int:
    from .extraction import (
        ExtractionBudget,
        extract_restricted_exact,
        find_low_or_high_density_subset,
        peel_chain,
    )
    from .ledger import depth_for

    g = _load_graph(args.graph)
    pat = _load_pattern(args.pattern)
    if args.op == "density":
        eps2 = args.eps2 if args.eps2 is not None else args.eps
        depth = depth_for(min(args.eps, eps2)) if args.depth is None else args.depth
        res = find_low_or_high_density_subset(g, pat, ExtractionBudget(args.eps, eps2, depth))
        _emit(
            args,
            lambda: {
                "kind": "density_subset",
                "vertices": mask_to_ids(res.vertices),
                "side": res.side,
                "guaranteed": res.guaranteed,
                "density": format_fraction(edge_density(g, res.vertices)),
            },
            lambda: f"{res.side}-density subset of size {res.vertices.bit_count()} "
            f"(guaranteed: {res.guaranteed})",
        )
        return 0
    if args.op == "restricted":
        t = extract_restricted_exact(g, pat, args.eps, args.delta, depth=args.depth)
        _emit(
            args,
            lambda: {
                "kind": "restricted_set",
                "vertices": mask_to_ids(t),
                "eps": format_fraction(args.eps),
                "size": t.bit_count(),
            },
            lambda: f"eps-restricted set of size {t.bit_count()}",
        )
        return 0
    pc = peel_chain(g, pat, args.eps, args.eta, args.delta)
    _emit(
        args,
        lambda: serialize.peel_chain_to_json(pc),
        lambda: f"{pc.length} peels, leftover {pc.leftover.bit_count()} "
        f"(phi bound {pc.phi_bound}, guaranteed: {pc.guaranteed})",
    )
    return 0


def _delta_prime(args, g: Graph) -> Fraction:
    """--delta-prime, or 1/max(8, n) when it is not given."""
    return Fraction(1, max(8, g.n)) if args.delta_prime is None else args.delta_prime


def _cmd_keylemma(args: argparse.Namespace) -> int:
    from .keypartition import BlowupFound, KeyParams, run_key_lemma

    g = _load_graph(args.graph)
    pat = _load_pattern(args.pattern)
    params = KeyParams.practical(pat, args.eps, eta=args.eta, theta=args.theta,
                                 delta_prime=_delta_prime(args, g))
    res = run_key_lemma(g, pat, params, args.d)
    if isinstance(res, BlowupFound):
        _emit(
            args,
            lambda: serialize.blowup_found_to_json(res),
            lambda: f"blowup found: {res.copy_count} labeled copies (bound {res.copy_bound})",
        )
        return 0

    def payload() -> dict:
        shown = res if args.transcript else replace(res, transcript=())
        return serialize.key_result_to_json(shown)

    def human() -> str:
        text = (
            f"removed {res.removed.bit_count()} <= d={args.d}; "
            f"{len(res.pairs)} pairs, {len(res.singles)} singles"
        )
        if args.transcript:
            # one JSON line per step so the run can be re-verified externally
            text += "\n" + "\n".join(
                serialize.dumps(serialize.step_record_to_json(r)) for r in res.transcript
            )
        return text

    _emit(args, payload, human)
    return 0


def _decimal_digits(n: int) -> int:
    """The number of decimal digits of n >= 1, found without writing n out."""
    d = int(math.log10(n))  # floor(log10 n), or one off where the float rounds
    return d + (n >= 10**d) + (n >= 10 ** (d + 1))


def _cmd_theorem(args: argparse.Namespace) -> int:
    """Practical parameters, as every run of the key lemma takes (see
    ``rpt.keypartition``); ``rpt constants`` reports the paper's.

    A part bound N of more decimal digits than the interpreter writes out
    (``sys.get_int_max_str_digits``, 4300 by default; eps = 1/2000 gives
    N ~ 2^16000) is refused before any output, naming N and its digits."""
    from .assembly import run_main_theorem
    from .keypartition import KeyParams

    g = _load_graph(args.graph)
    pat = _load_pattern(args.pattern)
    key = KeyParams.practical(pat, args.eps, delta_prime=_delta_prime(args, g))
    res = run_main_theorem(g, pat, args.eps, args.d, key)
    limit = sys.get_int_max_str_digits()
    if limit and res.partition.bound >= 10**limit:
        digits = _decimal_digits(res.partition.bound)
        raise ValueError(f"the part bound N has {digits} decimal digits, more than the "
                         f"{limit} this interpreter writes out")
    _emit(
        args,
        lambda: serialize.removal_result_to_json(res),
        lambda: f"removed {res.removed.bit_count()} <= d={args.d}; "
        f"{len(res.partition.parts)} eps-restricted parts (bound {res.partition.bound})",
    )
    return 0


def _cmd_counterexample(args: argparse.Namespace) -> int:
    from .adversarial import HardInstanceSpec, generate_hard_graph, verify_hard_graph

    spec = HardInstanceSpec(
        restriction_budget=args.big_n,
        core_size=args.m,
        total_size=args.n,
        eps=args.eps,
        pattern=_load_pattern(args.pattern),
        seed=args.seed,
        allow_small_core=args.allow_small_core,
    )
    inst = generate_hard_graph(spec)
    report = verify_hard_graph(inst, count_induced_copies)
    edge_list = to_edge_list(inst.graph)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(edge_list)

    def payload() -> dict:
        out = {
            "kind": "hard_instance",
            "core": mask_to_ids(inst.core),
            "spec": {
                "N": args.big_n,
                "m": args.m,
                "n": args.n,
                "eps": format_fraction(args.eps),
                "pattern": args.pattern,
                "seed": args.seed,
            },
            "resamples": inst.resamples,
            "core_exactly_verified": inst.core_exactly_verified,
            "verified_clauses": report["clauses"],
            "ok": report["ok"],
        }
        if not args.out:
            out["edge_list"] = edge_list
        return out

    _emit(
        args,
        payload,
        lambda: f"hard instance on {args.n} vertices (core {args.m}), "
        f"verification {'OK' if report['ok'] else 'FAILED'}",
    )
    return 0 if report["ok"] else 2


def _cmd_constants(args: argparse.Namespace) -> int:
    from .ledger import build_ledger

    led = build_ledger(args.h, args.eps, args.eta, args.theta)
    _emit(
        args,
        lambda: {"kind": "constants", "h": args.h, "entries": led.as_dict()},
        lambda: "\n".join(f"{name}: {entry.describe()}" for name, entry in led.entries.items()),
    )
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    from .adversarial import exact_n_restricted, min_removal_oracle, naive_count

    g = _load_graph(args.graph)
    if args.op == "count":
        value = naive_count(g, _load_pattern(args.pattern or "K2"))
        _emit(
            args,
            lambda: {"kind": "oracle_count", "value": str(value)},
            lambda: f"naive count = {value}",
        )
        return 0
    if args.op == "n-restricted":
        ok, parts = exact_n_restricted(g, args.n_parts, args.eps)
        _emit(
            args,
            lambda: {
                "kind": "oracle_n_restricted",
                "ok": ok,
                "parts": None if parts is None else [mask_to_ids(p) for p in parts],
            },
            lambda: f"({args.n_parts}, {args.eps})-restricted: {ok}",
        )
        return 0
    size, removed, parts = min_removal_oracle(g, args.n_parts, args.eps)
    _emit(
        args,
        lambda: {
            "kind": "oracle_min_removal",
            "size": size,
            "removed": mask_to_ids(removed),
            "parts": [mask_to_ids(p) for p in parts],
        },
        lambda: f"minimum removal = {size}",
    )
    return 0


_DISPATCH = {
    "count": _cmd_count,
    "check": _cmd_check,
    "extract": _cmd_extract,
    "keylemma": _cmd_keylemma,
    "theorem": _cmd_theorem,
    "counterexample": _cmd_counterexample,
    "constants": _cmd_constants,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    try:
        args = parse_args(argv if argv is not None else sys.argv[1:])
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        code = _DISPATCH[args.subcommand](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader has gone (`rpt ... | head -1`).  As the signal module's
        # note on SIGPIPE shows, point stdout at devnull so that the flush at
        # exit raises no second error, and exit as a shell reports a program
        # ended by SIGPIPE: 128 + 13.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
