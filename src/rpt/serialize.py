"""JSON forms for certificates and results.

``SCHEMAS`` lists each kind's fields once, in the order of the type they
load into, each with one codec: the (read, write) pair of its JSON form.
Every ``*_to_json`` writer is one ``_write`` of that table and every
``*_from_json`` loader one ``_read``, which rejects a key its kind does not
list, so no field is accepted unread.  Fractions travel as exact "p/q"
strings, vertex sets as sorted id lists, counts as decimal strings.
Emission is deterministic: sorted keys, fixed separators, no timestamps.
Every loader takes the host graph's vertex count ``n`` when it is known,
and then rejects vertex ids outside the graph.  A missing or unknown field,
a field of another JSON type and an integer below its bound are named in a
ValueError.

The certificate types are imported inside the loaders that build them, so
a command that writes or reads no certificate compiles none of their
modules.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .graph import Graph, Pattern, mask_to_ids
from .values import format_fraction, parse_fraction

if TYPE_CHECKING:
    from .assembly import PathPartition, RemovalResult, RestrictedPartition
    from .extraction import PeelChain
    from .keypartition import BlowupFound, KeyCertificate, KeyLemmaResult, StepRecord
    from .predicates import BlowupCertificate, FullPairCertificate


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def required_field(obj: dict, key: str):
    """The required field ``key`` of a certificate."""
    if key not in obj:
        raise ValueError(f'the certificate field "{key}" is missing')
    return obj[key]


_JSON_TYPES = {list: "a JSON array", dict: "a JSON object"}
_REQUIRED = object()


class Codec(NamedTuple):
    """A field's JSON form.  ``read(value, key, n)`` checks a JSON value and
    returns what it loads into (``n`` is the host's vertex count, or None);
    ``write`` maps that back.  A field with a default may be left out."""

    read: Callable
    write: Callable
    default: object = _REQUIRED


def _same(v):
    return v


def _typed(v, kind: type, what: str):
    if type(v) is not kind:
        raise ValueError(f"{what} must be {_JSON_TYPES[kind]}, got {v!r}")
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


def _id_lists(v, key: str, n: int | None) -> tuple[int, ...]:
    return tuple(_IDS.read(x, f"an entry of {key}", n) for x in _typed(v, list, key))


def _fraction(v, key: str, n: int | None) -> Fraction:
    """A string that parse_fraction reads ("1/4", "0.25"), not a JSON number."""
    if type(v) is not str:
        raise ValueError(f'{key} must be a fraction string such as "1/4", got {v!r}')
    try:
        return parse_fraction(v)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def _of_type(kind: type, what: str, least: int | None = None) -> Codec:
    """A JSON value of exactly type ``kind`` (so an integer is not a bool or
    a float), at least ``least`` if given."""

    def read(v, key: str, n: int | None):
        if type(v) is not kind:
            raise ValueError(f"{key} must be {what}, got {v!r}")
        if least is not None and v < least:
            raise ValueError(f"{key} must be at least {least}, got {v}")
        return v

    return Codec(read, _same)


def _integer(least: int | None = None) -> Codec:
    return _of_type(int, "an integer", least)


def _decimal(v, key: str, n: int | None) -> int:
    """A count too large for a double: a string in canonical decimal ("12",
    not "012", " 12" or "1_2")."""
    digits = type(v) is str and v.isascii() and v.removeprefix("-").isdigit()
    if not (digits and str(int(v)) == v):
        raise ValueError(f"{key} must be a canonical decimal string, got {v!r}")
    return int(v)


def _integers(values, what: str) -> tuple[int, ...]:
    """A list of JSON integers (not bools or floats) as a tuple."""
    for v in _typed(values, list, what):
        if type(v) is not int:
            raise ValueError(f"{what} entry {v!r} is not an integer")
    return tuple(values)


def _edges(v, key: str, n: int | None) -> tuple[tuple[int, ...], ...]:
    edges = tuple(_integers(e, "pattern edge") for e in _typed(v, list, key))
    for e in edges:
        if len(e) != 2:
            raise ValueError(f"pattern edge {list(e)} does not have two endpoints")
    return edges


def _step_records(v, key: str, n: int | None) -> tuple[StepRecord, ...]:
    from .keypartition import StepRecord

    return tuple(StepRecord(*_read("step_record", _typed(x, dict, f"an entry of {key}"), n))
                 for x in _typed(v, list, key))


_IDS = Codec(lambda v, key, n: _mask(_typed(v, list, key), n), mask_to_ids)
_ID_LISTS = Codec(_id_lists, lambda masks: [mask_to_ids(m) for m in masks])
_FRACTION = Codec(_fraction, format_fraction)
_BOOLEAN = _of_type(bool, "true or false")

# A nested pattern or certificate goes through its loader and writer below.
SCHEMAS: dict[str, dict[str, Codec]] = {
    "pattern": {
        "n": _integer(),
        "edges": Codec(_edges, lambda edges: sorted(map(list, edges))),
        "order": Codec(lambda v, key, n: _integers(v, "pattern order"), list, None),
    },
    "full_pair": {"a": _IDS, "b": _IDS, "c": _FRACTION, "eps": _FRACTION,
                  "polarity": _of_type(str, "a string")},
    "blowup": {
        "parts": _ID_LISTS, "c": _FRACTION, "eps": _FRACTION,
        "pattern": Codec(lambda v, key, n: pattern_from_json(_typed(v, dict, key)),
                         lambda pat: pattern_to_json(pat)),
    },
    "peel_chain": {"peels": _ID_LISTS, "leftover": _IDS, "eps": _FRACTION, "eta": _FRACTION,
                   "delta": _FRACTION, "phi_bound": _integer(),
                   "guaranteed": _BOOLEAN._replace(default=True)},
    "key_lemma_result": {
        "S": _IDS, "A": _ID_LISTS, "B": _ID_LISTS, "C": _ID_LISTS,
        "d": _integer(0), "h": _integer(1), "eps": _FRACTION, "eta": _FRACTION,
        "theta": _FRACTION, "delta_prime": _FRACTION, "eta_prime": _FRACTION,
        "transcript": Codec(_step_records, lambda recs: [step_record_to_json(r) for r in recs],
                            None),
    },
    "step_record": {"t": _integer(), "S": _IDS, "finished": _BOOLEAN, "L_parts": _ID_LISTS,
                    "core": _IDS, "chain": _ID_LISTS, "D_primes": _ID_LISTS,
                    "P_sets": _ID_LISTS, "peels": _ID_LISTS, "peel_leftover": _IDS},
    "blowup_found": {
        "certificate": Codec(lambda v, key, n: blowup_from_json(_typed(v, dict, key), n),
                             lambda cert: blowup_to_json(cert)),
        "copy_count": Codec(_decimal, str),
        "copy_bound": _FRACTION,
    },
    "restricted_partition": {"parts": _ID_LISTS, "eps": _FRACTION, "N": _integer(1)},
    "path_partition": {"blocks": _ID_LISTS, "eps": _FRACTION},
    "removal_result": {"removed": _IDS, "parts": _ID_LISTS, "eps": _FRACTION,
                       "N": _integer(1), "d": _integer(0),
                       "verified": _BOOLEAN._replace(default=True)},
}


def _read(kind: str, obj: dict, n: int | None = None) -> tuple:
    """The values of a ``kind`` object's fields, in SCHEMAS order: each read
    by its codec, or its default when absent.  A key the kind does not list,
    or a "kind" other than ``kind``, makes the object malformed."""
    schema = SCHEMAS[kind]
    for key in obj:
        if key not in schema and key != "kind":
            raise ValueError(f'{kind} has no field "{key}"')
    if obj.get("kind", kind) != kind:
        raise ValueError(f'the "kind" of a {kind} must be "{kind}", got {obj["kind"]!r}')
    return tuple(
        codec.default if codec.default is not _REQUIRED and key not in obj
        else codec.read(required_field(obj, key), key, n)
        for key, codec in schema.items()
    )


def _write(kind: str, *values) -> dict:
    """The JSON object of a ``kind`` whose fields, in SCHEMAS order, hold
    ``values``; a field whose value is None is left out.  Every kind but a
    pattern, which is part of a certificate, states its "kind"."""
    out = {} if kind == "pattern" else {"kind": kind}
    for (key, codec), value in zip(SCHEMAS[kind].items(), values, strict=True):
        if value is not None:
            out[key] = codec.write(value)
    return out


def pattern_to_json(pat: Pattern) -> dict:
    return _write("pattern", pat.size, pat.graph.edges(), pat.order)


def pattern_from_json(obj: dict) -> Pattern:
    """Graph.from_edges and Pattern check the ranges; the order defaults to
    the vertices in id order."""
    n, edges, order = _read("pattern", obj)
    return Pattern(Graph.from_edges(n, edges), tuple(range(n)) if order is None else order)


def full_pair_to_json(cert: FullPairCertificate) -> dict:
    return _write("full_pair", cert.a, cert.b, cert.c, cert.eps, cert.polarity)


def full_pair_from_json(obj: dict, n: int | None = None) -> FullPairCertificate:
    from .predicates import FullPairCertificate

    return FullPairCertificate(*_read("full_pair", obj, n))


def blowup_to_json(cert: BlowupCertificate) -> dict:
    return _write("blowup", cert.parts, cert.c, cert.eps, cert.pattern)


def blowup_from_json(obj: dict, n: int | None = None) -> BlowupCertificate:
    from .predicates import BlowupCertificate

    return BlowupCertificate(*_read("blowup", obj, n))


def peel_chain_to_json(pc: PeelChain) -> dict:
    return _write("peel_chain", pc.peels, pc.leftover, pc.eps, pc.eta, pc.delta, pc.phi_bound,
                  pc.guaranteed)


def peel_chain_from_json(obj: dict, n: int | None = None) -> dict:
    """The PeelChain fields by name (its table's keys).  A chain that does
    not state "guaranteed" is held to the phi(delta, eta) length bound."""
    return dict(zip(SCHEMAS["peel_chain"], _read("peel_chain", obj, n)))


def key_result_to_json(res: KeyLemmaResult) -> dict:
    """The transcript is stated when the result carries one."""
    p = res.params
    return _write("key_lemma_result", res.removed, [a for a, _ in res.pairs],
                  [b for _, b in res.pairs], res.singles, res.d_budget, p.h, p.eps, p.eta,
                  p.theta, p.delta_prime, p.eta_prime, res.transcript or None)


def key_result_from_json(obj: dict, n: int | None = None) -> KeyCertificate:
    """A key-lemma certificate; its parameters must lie in the key lemma's
    domain.  Its transcript's step records are read for their form only."""
    from .keypartition import KeyCertificate, key_domain

    *fields, _ = _read("key_lemma_result", obj, n)
    key_domain(*fields[-5:])
    return KeyCertificate(*fields)


def blowup_found_to_json(found: BlowupFound) -> dict:
    return _write("blowup_found", found.certificate, found.copy_count, found.copy_bound)


def blowup_found_from_json(obj: dict, n: int | None = None) -> BlowupFound:
    from .keypartition import BlowupFound

    return BlowupFound(*_read("blowup_found", obj, n))


def step_record_to_json(rec: StepRecord) -> dict:
    return _write("step_record", rec.t, rec.correct_set, rec.finished, rec.l_parts, rec.core,
                  rec.chain, rec.d_primes, rec.p_sets, rec.peel_sets, rec.peel_leftover)


def restricted_partition_to_json(p: RestrictedPartition) -> dict:
    return _write("restricted_partition", p.parts, p.eps, p.bound)


def restricted_partition_from_json(obj: dict, n: int | None = None) -> RestrictedPartition:
    from .assembly import RestrictedPartition

    return RestrictedPartition(*_read("restricted_partition", obj, n))


def path_partition_to_json(p: PathPartition) -> dict:
    return _write("path_partition", p.blocks, p.eps)


def path_partition_from_json(obj: dict, n: int | None = None) -> PathPartition:
    from .assembly import PathPartition

    return PathPartition(*_read("path_partition", obj, n))


def removal_result_to_json(r: RemovalResult) -> dict:
    p = r.partition
    return _write("removal_result", r.removed, p.parts, p.eps, p.bound, r.d_budget, True)


def removal_result_from_json(obj: dict, n: int | None = None) -> RemovalResult:
    """A removal certificate; its eps must lie in the theorem's domain.  Its
    "verified" flag is read for its form only."""
    from .assembly import RemovalResult, RestrictedPartition, theorem_eps

    removed, parts, eps, bound, d_budget, _ = _read("removal_result", obj, n)
    return RemovalResult(removed, RestrictedPartition(parts, theorem_eps(eps), bound), d_budget)
