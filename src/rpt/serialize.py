"""JSON forms for certificates and results.

Fractions travel as exact "p/q" strings, vertex sets as sorted id lists,
counts as decimal strings (they outgrow doubles quickly).  Emission is
deterministic: sorted keys, fixed separators, no timestamps.  Every
``*_from_json`` loader takes the host graph's vertex count ``n`` when it is
known, and then rejects vertex ids outside the graph.  A missing field, a
fraction field that is not a string, and a list or object field of another
JSON type are named in a ValueError.

The certificate types are imported inside the loaders that build them, so
a command that writes or reads no certificate compiles none of their
modules.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING

from .graph import Graph, Pattern, mask_to_ids
from .values import format_fraction, parse_fraction

if TYPE_CHECKING:
    from .assembly import PathPartition, RemovalResult, RestrictedPartition
    from .extraction import PeelChain
    from .keypartition import BlowupFound, KeyCertificate, KeyLemmaResult, StepRecord
    from .predicates import BlowupCertificate, FullPairCertificate


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


_JSON_TYPES = {list: "a JSON array", dict: "a JSON object"}


def required_field(obj: dict, key: str, kind: type | None = None):
    """The required field ``key`` of a certificate, of JSON type ``kind`` if given."""
    if key not in obj:
        raise ValueError(f'the certificate field "{key}" is missing')
    return obj[key] if kind is None else _typed(obj[key], kind, key)


def _typed(v, kind: type, what: str):
    if type(v) is not kind:
        raise ValueError(f"{what} must be {_JSON_TYPES[kind]}, got {v!r}")
    return v


def _vertex_sets(obj: dict, key: str, n: int | None) -> tuple[int, ...]:
    """The field ``key`` of a certificate: a JSON array of id lists."""
    entries = required_field(obj, key, list)
    return tuple(_mask(_typed(x, list, f"an entry of {key}"), n) for x in entries)


def _fraction(obj: dict, key: str) -> Fraction:
    """The fraction field ``key`` of a certificate: a string that
    parse_fraction reads ("1/4", "0.25"), not a JSON number."""
    v = required_field(obj, key)
    if type(v) is not str:
        raise ValueError(f'{key} must be a fraction string such as "1/4", got {v!r}')
    try:
        return parse_fraction(v)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def _integer(obj: dict, key: str) -> int:
    """The integer field ``key`` of a certificate: a JSON integer (not a
    bool or a float), or for copy_count, which travels as a decimal string,
    a string in canonical decimal ("12", not "012", " 12" or "1_2")."""
    v = required_field(obj, key)
    if key == "copy_count":
        digits = type(v) is str and v.isascii() and v.removeprefix("-").isdigit()
        if not (digits and str(int(v)) == v):
            raise ValueError(f"{key} must be a canonical decimal string, got {v!r}")
        return int(v)
    if type(v) is not int:
        raise ValueError(f"{key} must be an integer, got {v!r}")
    return v


def _boolean(obj: dict, key: str, default: bool) -> bool:
    """The boolean field ``key`` of a certificate, or ``default`` when it is
    absent: a JSON true or false, not a string, a number or null."""
    v = obj.get(key, default)
    if type(v) is not bool:
        raise ValueError(f"{key} must be true or false, got {v!r}")
    return v


def _mask(vertex_ids, n: int | None = None) -> int:
    """The vertex set of a sorted id list, rejecting ids that are not
    nonnegative integers (booleans included), repeated ids, ids out of
    ascending order and, when the graph's vertex count ``n`` is given,
    ids >= n, before any shift by such an id."""
    m = 0
    prev = -1
    for v in vertex_ids:
        if type(v) is not int or v < 0:
            raise ValueError(f"vertex id {v!r} is not a nonnegative integer")
        if n is not None and v >= n:
            raise ValueError(f"vertex id {v} out of range for a graph on {n} vertices")
        if m >> v & 1:
            raise ValueError(f"vertex id {v} is repeated")
        if v < prev:
            raise ValueError(f"vertex id {v} follows {prev}; id lists must be sorted")
        m |= 1 << v
        prev = v
    return m


def pattern_to_json(pat: Pattern) -> dict:
    return {
        "n": pat.size,
        "edges": sorted(map(list, pat.graph.edges())),
        "order": list(pat.order),
    }


def _integers(values, what: str) -> tuple[int, ...]:
    """A list of JSON integers (not bools or floats) as a tuple."""
    for v in _typed(values, list, what):
        if type(v) is not int:
            raise ValueError(f"{what} entry {v!r} is not an integer")
    return tuple(values)


def pattern_from_json(obj: dict) -> Pattern:
    """The pattern's vertex count, edge endpoints and order entries are read
    as JSON integers and each edge as two endpoints; Graph.from_edges and
    Pattern check their ranges."""
    n = _integer(obj, "n")
    edges = [_integers(e, "pattern edge") for e in required_field(obj, "edges", list)]
    for e in edges:
        if len(e) != 2:
            raise ValueError(f"pattern edge {list(e)} does not have two endpoints")
    order = _integers(obj["order"], "pattern order") if "order" in obj else tuple(range(n))
    return Pattern(Graph.from_edges(n, edges), order)


def full_pair_to_json(cert: FullPairCertificate) -> dict:
    return {
        "kind": "full_pair",
        "a": mask_to_ids(cert.a),
        "b": mask_to_ids(cert.b),
        "c": format_fraction(cert.c),
        "eps": format_fraction(cert.eps),
        "polarity": cert.polarity,
    }


def full_pair_from_json(obj: dict, n: int | None = None) -> FullPairCertificate:
    from .predicates import FullPairCertificate

    return FullPairCertificate(
        _mask(required_field(obj, "a", list), n),
        _mask(required_field(obj, "b", list), n),
        _fraction(obj, "c"),
        _fraction(obj, "eps"),
        required_field(obj, "polarity"),
    )


def blowup_to_json(cert: BlowupCertificate) -> dict:
    return {
        "kind": "blowup",
        "parts": [mask_to_ids(p) for p in cert.parts],
        "c": format_fraction(cert.c),
        "eps": format_fraction(cert.eps),
        "pattern": pattern_to_json(cert.pattern),
    }


def blowup_from_json(obj: dict, n: int | None = None) -> BlowupCertificate:
    from .predicates import BlowupCertificate

    return BlowupCertificate(
        _vertex_sets(obj, "parts", n),
        _fraction(obj, "c"),
        _fraction(obj, "eps"),
        pattern_from_json(required_field(obj, "pattern", dict)),
    )


def peel_chain_to_json(pc: PeelChain) -> dict:
    return {
        "kind": "peel_chain",
        "peels": [mask_to_ids(p) for p in pc.peels],
        "leftover": mask_to_ids(pc.leftover),
        "eps": format_fraction(pc.eps),
        "eta": format_fraction(pc.eta),
        "delta": format_fraction(pc.delta),
        "phi_bound": pc.phi_bound,
        "guaranteed": pc.guaranteed,
    }


def peel_chain_from_json(obj: dict, n: int | None = None) -> dict:
    """The PeelChain fields by name.  A chain that does not state
    "guaranteed" is held to the phi(delta, eta) length bound."""
    return {
        "peels": _vertex_sets(obj, "peels", n),
        "leftover": _mask(required_field(obj, "leftover", list), n),
        "eps": _fraction(obj, "eps"),
        "eta": _fraction(obj, "eta"),
        "delta": _fraction(obj, "delta"),
        "phi_bound": _integer(obj, "phi_bound"),
        "guaranteed": _boolean(obj, "guaranteed", True),
    }


def key_result_to_json(res: KeyLemmaResult) -> dict:
    out = {
        "kind": "key_lemma_result",
        "S": mask_to_ids(res.removed),
        "A": [mask_to_ids(a) for a, _ in res.pairs],
        "B": [mask_to_ids(b) for _, b in res.pairs],
        "C": [mask_to_ids(c) for c in res.singles],
        "d": res.d_budget,
        "h": res.params.h,
        "eps": format_fraction(res.params.eps),
        "eta": format_fraction(res.params.eta),
        "theta": format_fraction(res.params.theta),
    }
    if isinstance(res.params.delta_prime, Fraction) and isinstance(
        res.params.eta_prime, Fraction
    ):
        out["delta_prime"] = format_fraction(res.params.delta_prime)
        out["eta_prime"] = format_fraction(res.params.eta_prime)
    return out


def key_result_from_json(obj: dict, n: int | None = None) -> KeyCertificate:
    from .keypartition import KeyCertificate

    stated = "delta_prime" in obj
    if stated != ("eta_prime" in obj):
        raise ValueError("delta_prime and eta_prime must be stated together")
    return KeyCertificate(
        _mask(required_field(obj, "S", list), n),
        _vertex_sets(obj, "A", n),
        _vertex_sets(obj, "B", n),
        _vertex_sets(obj, "C", n),
        _integer(obj, "d"),
        _integer(obj, "h"),
        _fraction(obj, "eps"),
        _fraction(obj, "eta"),
        _fraction(obj, "theta"),
        _fraction(obj, "delta_prime") if stated else None,
        _fraction(obj, "eta_prime") if stated else None,
    )


def blowup_found_to_json(found: BlowupFound) -> dict:
    return {
        "kind": "blowup_found",
        "certificate": blowup_to_json(found.certificate),
        "copy_count": str(found.copy_count),
        "copy_bound": format_fraction(found.copy_bound),
        "contradiction_checked": found.contradiction_checked,
    }


def blowup_found_from_json(obj: dict, n: int | None = None) -> BlowupFound:
    from .keypartition import BlowupFound

    return BlowupFound(
        blowup_from_json(required_field(obj, "certificate", dict), n),
        _integer(obj, "copy_count"),
        _fraction(obj, "copy_bound"),
        _boolean(obj, "contradiction_checked", False),
    )


def step_record_to_json(rec: StepRecord) -> dict:
    return {
        "kind": "step_record",
        "t": rec.t,
        "S": mask_to_ids(rec.correct_set),
        "finished": rec.finished,
        "L_parts": [mask_to_ids(x) for x in rec.l_parts],
        "core": mask_to_ids(rec.core),
        "chain": [mask_to_ids(x) for x in rec.chain],
        "D_primes": [mask_to_ids(x) for x in rec.d_primes],
        "P_sets": [mask_to_ids(x) for x in rec.p_sets],
        "peels": [mask_to_ids(x) for x in rec.peel_sets],
        "peel_leftover": mask_to_ids(rec.peel_leftover),
    }


def restricted_partition_to_json(p: RestrictedPartition) -> dict:
    return {
        "kind": "restricted_partition",
        "parts": [mask_to_ids(x) for x in p.parts],
        "eps": format_fraction(p.eps),
        "N": p.bound,
    }


def restricted_partition_from_json(obj: dict, n: int | None = None) -> RestrictedPartition:
    from .assembly import RestrictedPartition

    return RestrictedPartition(
        _vertex_sets(obj, "parts", n),
        _fraction(obj, "eps"),
        _integer(obj, "N"),
    )


def path_partition_to_json(p: PathPartition) -> dict:
    return {
        "kind": "path_partition",
        "blocks": [mask_to_ids(x) for x in p.blocks],
        "eps": format_fraction(p.eps),
    }


def path_partition_from_json(obj: dict, n: int | None = None) -> PathPartition:
    from .assembly import PathPartition

    return PathPartition(_vertex_sets(obj, "blocks", n), _fraction(obj, "eps"))


def removal_result_to_json(r: RemovalResult) -> dict:
    return {
        "kind": "removal_result",
        "removed": mask_to_ids(r.removed),
        "parts": [mask_to_ids(x) for x in r.partition.parts],
        "eps": format_fraction(r.partition.eps),
        "N": r.partition.bound,
        "d": r.d_budget,
        "verified": True,
    }


def removal_result_from_json(obj: dict, n: int | None = None) -> RemovalResult:
    """A removal certificate; its eps must lie in the theorem's domain."""
    from .assembly import RemovalResult, RestrictedPartition, theorem_eps

    partition = RestrictedPartition(
        _vertex_sets(obj, "parts", n),
        theorem_eps(_fraction(obj, "eps")),
        _integer(obj, "N"),
    )
    removed = _mask(required_field(obj, "removed", list), n)
    return RemovalResult(removed, partition, _integer(obj, "d"))
