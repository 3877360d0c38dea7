"""JSON (de)serialization for every file format the CLI reads and writes.

All payloads carry a schema version field "v": 1.  Dumps are byte-
deterministic: keys sorted, members sorted, rationals in lowest terms as
[numerator, denominator].  Loaders check the JSON type of every field they
read, so a field of the wrong type or shape raises InputError, not a raw
Python error.

A bundle stores only what the construction cannot derive: the realized
base and the join constraints enforced on it, and a reduction bundle its
ground costs as well.  A gadget-bank base is stored as its ids alone, any
other base in full.  Loading replays the construction; the market, its
bookkeeping and a reduction's pair costs are never read from a bundle.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Mapping

from .antimatroids import AntimatroidFamily, PathPoset, ReductionBundle
from .augment import ExtendableMarket, omega_extend
from .constraints import JoinConstraint
from .errors import InputError, InvariantError
from .markets import (
    DEFAULT_NODE_BOUND,
    ChoiceSpec,
    IfElse,
    Matching,
    MatchingMarket,
    PreferenceList,
    Regular,
    Triggered,
)
from .orders import Lattice, lattice_from_order, lattice_from_tables, poset_from_pairs, set_key
from .rotations import RealizedBase, Rotation, RotationPoset, antichain_base, extract_rotations, is_gadget_bank

VERSION = 1


def dumps(payload: Mapping[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_json(path: str | Path, payload: Mapping[str, Any]) -> None:
    Path(path).write_text(dumps(payload), encoding="utf-8")


def read_json(path: str | Path) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deeply to read") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object")
    return data


# Readers take (value, where) and return the value checked for its JSON type.


def _of(kind: type, value, where: str):
    if not isinstance(value, kind) or isinstance(value, bool):
        raise InputError(f"{where}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _str(value, where: str) -> str:
    """A string that encodes as UTF-8: JSON's escapes can spell a lone
    surrogate, which no file or terminal can write back."""
    try:
        _of(str, value, where).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise InputError(f"{where}: string is not valid UTF-8 ({exc.reason})") from exc
    return value


_int = partial(_of, int)
_list = partial(_of, list)


def _strs(value, where: str) -> list[str]:
    return [_str(x, where) for x in _list(value, where)]


def _str_lists(value, where: str) -> list[list[str]]:
    return [_strs(x, where) for x in _list(value, where)]


def _pairs(value, where: str) -> list[tuple[str, str]]:
    rows = _str_lists(value, where)
    if any(len(r) != 2 for r in rows):
        raise InputError(f"{where}: expected a list of [x, y] pairs")
    return [(x, y) for x, y in rows]


def _map(read: Callable, value, where: str) -> dict:
    return {_str(k, where): read(v, f"{where}.{k}") for k, v in _of(dict, value, where).items()}


def _need(data, key: str, where: str, read: Callable = lambda v, _: v):
    if not isinstance(data, dict):
        raise InputError(f"{where}: expected a JSON object")
    if key not in data:
        raise InputError(f"{where}: missing field {key!r}")
    return read(data[key], f"{where}.{key}")


def _sorted_sets(sets) -> list[list[str]]:
    return [sorted(s) for s in sorted(sets, key=set_key)]


# ---------------------------------------------------------------- lattices


def lattice_to_json(lat: Lattice) -> dict:
    els = list(lat.elements)
    return {
        "v": VERSION,
        "elements": els,
        "leq": sorted([x, y] for (x, y) in lat.poset.relation if x != y),
    }


def lattice_from_json(data: Mapping) -> Lattice:
    els = _need(data, "elements", "lattice", _strs)
    if "join" in data or "meet" in data:
        return lattice_from_tables(
            els, _need(data, "join", "lattice", _str_lists), _need(data, "meet", "lattice", _str_lists)
        )
    return lattice_from_order(poset_from_pairs(els, _need(data, "leq", "lattice", _pairs), close=True))


# ----------------------------------------------------------------- markets


def _spec_to_json(spec: ChoiceSpec) -> dict:
    if isinstance(spec, PreferenceList):
        return {"kind": "preference_list", "list": [sorted(e) for e in spec.entries]}
    if isinstance(spec, Triggered):
        return {
            "kind": "triggered",
            "watch": sorted(spec.watch),
            "trigger": spec.trigger,
            "alpha": _sorted_sets(spec.alpha_groups),
            "f_rho": {r: sorted(fs) for r, fs in spec.blocks},
        }
    if isinstance(spec, IfElse):
        return {"kind": "if_else", "priority": spec.priority, "else_set": sorted(spec.else_set)}
    if isinstance(spec, Regular):
        return {
            "kind": "regular",
            "tiers": [sorted(t) for t in spec.tiers],
            "aux_pairs": [list(p) for p in spec.aux_pairs],
        }
    raise InputError(f"unknown spec type {type(spec).__name__}")


def _spec_from_json(data, where: str) -> ChoiceSpec:
    kind = _need(data, "kind", where, _str)
    if kind == "preference_list":
        return PreferenceList(tuple(frozenset(e) for e in _need(data, "list", where, _str_lists)))
    if kind == "triggered":
        return Triggered(
            frozenset(_need(data, "watch", where, _strs)),
            _need(data, "trigger", where, _str),
            alpha_groups=tuple(frozenset(g) for g in _need(data, "alpha", where, _str_lists)),
            blocks=tuple(sorted(
                (r, frozenset(fs)) for r, fs in _need(data, "f_rho", where, partial(_map, _strs)).items()
            )),
        )
    if kind == "if_else":
        return IfElse(_need(data, "priority", where, _str), frozenset(_need(data, "else_set", where, _strs)))
    if kind == "regular":
        return Regular(
            tuple(frozenset(t) for t in _need(data, "tiers", where, _str_lists)),
            tuple(_need(data, "aux_pairs", where, _pairs)),
        )
    raise InputError(f"{where}: unknown choice kind {kind!r}")


def market_to_json(market: MatchingMarket) -> dict:
    return {
        "v": VERSION,
        "firms": list(market.firms),
        "workers": list(market.workers),
        "choice": {a: _spec_to_json(s) for a, s in sorted(market.choice.items())},
    }


def market_from_json(data: Mapping) -> MatchingMarket:
    return MatchingMarket(
        tuple(_need(data, "firms", "market", _strs)),
        tuple(_need(data, "workers", "market", _strs)),
        _need(data, "choice", "market", partial(_map, _spec_from_json)),
    )


def matching_to_json(mu: Matching) -> dict:
    return {"pairs": [list(p) for p in sorted(mu.pairs)]}


def matching_from_json(data: Mapping) -> Matching:
    return Matching(frozenset(_need(data, "pairs", "matching", _pairs)))


def matchings_to_json(ms) -> dict:
    return {"v": VERSION, "matchings": [matching_to_json(m) for m in ms]}


# --------------------------------------------------------------- rotations


def rotation_poset_to_json(rp: RotationPoset) -> dict:
    return {
        "v": VERSION,
        "rotations": [
            {"id": rid, "plus": [list(p) for p in sorted(rot.plus)], "minus": [list(p) for p in sorted(rot.minus)]}
            for rid, rot in sorted(rp.rotations.items())
        ],
        "leq": sorted([a, b] for (a, b) in rp.poset.relation if a != b),
        "worker_optimal": matching_to_json(rp.worker_optimal),
    }


def rotation_poset_from_json(data: Mapping) -> RotationPoset:
    rots = {}
    for r in _need(data, "rotations", "rotation poset", _list):
        rid = _need(r, "id", "rotation", _str)
        rots[rid] = Rotation(
            rid,
            frozenset(_need(r, "plus", f"rotation {rid!r}", _pairs)),
            frozenset(_need(r, "minus", f"rotation {rid!r}", _pairs)),
        )
    poset = poset_from_pairs(sorted(rots), _pairs(data.get("leq", []), "rotation poset.leq"), close=True)
    return RotationPoset(poset, rots, matching_from_json(_need(data, "worker_optimal", "rotation poset")))


def realized_base_to_json(base: RealizedBase) -> dict:
    """The gadget bank of some ids as those ids; any other base in full."""
    if is_gadget_bank(base):
        return {"v": VERSION, "gadgets": list(base.rotation_poset.ids())}
    return {
        "v": VERSION,
        "market": market_to_json(base.market),
        "rotation_poset": rotation_poset_to_json(base.rotation_poset),
    }


def realized_base_from_json(data: Mapping, node_bound: int = DEFAULT_NODE_BOUND) -> RealizedBase:
    """A gadget bank is rebuilt from its ids.  A base stored in full must not
    be a gadget bank, and its rotation poset must be the one its market's
    stable matchings derive, enumerated under node_bound."""
    if "gadgets" in _of(dict, data, "realized base"):
        return antichain_base(_need(data, "gadgets", "realized base", _strs))
    base = RealizedBase(
        market_from_json(_need(data, "market", "realized base")),
        rotation_poset_from_json(_need(data, "rotation_poset", "realized base")),
    )
    if is_gadget_bank(base):
        raise InputError("realized base: a gadget bank is stored as its ids; re-synthesize or re-reduce this bundle")
    try:
        agree = extract_rotations(base.market, node_bound) == base.rotation_poset
    except InvariantError as exc:
        raise InputError(f"realized base: market realizes no rotation poset ({exc})") from exc
    if not agree:
        raise InputError("realized base: market and rotation poset disagree")
    return base


# ------------------------------------------------------------- constraints


def constraint_to_json(jc: JoinConstraint) -> dict:
    return {"alpha": _sorted_sets(jc.alpha_groups), "beta": sorted(jc.beta_ids)}


def constraint_from_json(data: Mapping) -> JoinConstraint:
    return JoinConstraint.make(
        _need(data, "alpha", "constraint", _str_lists), _need(data, "beta", "constraint", _strs)
    )


# ----------------------------------------------------------------- bundles


def extendable_to_json(em: ExtendableMarket) -> dict:
    return {
        "v": VERSION,
        "base": realized_base_to_json(em.base),
        "constraints": [constraint_to_json(jc) for jc in em.constraints],
    }


def extendable_from_json(data: Mapping, node_bound: int = DEFAULT_NODE_BOUND) -> ExtendableMarket:
    base = realized_base_from_json(_need(data, "base", "bundle"), node_bound)
    constraints = _need(data, "constraints", "bundle", _list)
    return omega_extend(base, [constraint_from_json(c) for c in constraints])


def pair_costs_to_json(pair_costs: Mapping) -> list:
    return [
        [f, w, v.numerator, v.denominator]
        for (f, w), v in sorted(pair_costs.items())
    ]


def _fraction(value, where: str) -> Fraction:
    """A rational stored as [numerator, denominator]."""
    row = _list(value, where)
    if len(row) != 2:
        raise InputError(f"{where}: expected [numerator, denominator]")
    num, den = _int(row[0], where), _int(row[1], where)
    if den == 0:
        raise InputError(f"{where}: zero denominator")
    return Fraction(num, den)


def pair_costs_from_json(rows, where: str = "pair costs") -> dict:
    out = {}
    for row in _list(rows, where):
        if not isinstance(row, list) or len(row) != 4:
            raise InputError(f"{where}: expected [firm, worker, numerator, denominator] rows")
        f, w = _str(row[0], where), _str(row[1], where)
        if (f, w) in out:
            raise InputError(f"{where}: two rows for the pair ({f!r}, {w!r})")
        out[(f, w)] = _fraction(row[2:], f"{where} ({f!r}, {w!r})")
    return out


def reduction_to_json(bundle: ReductionBundle) -> dict:
    return {
        "v": VERSION,
        "extension": extendable_to_json(bundle.extendable),
        "costs": {x: [v.numerator, v.denominator] for x, v in bundle.costs.items()},
    }


def reduction_from_json(data: Mapping, node_bound: int = DEFAULT_NODE_BOUND) -> ReductionBundle:
    """The pair costs are derived from the stored ground costs; a bundle that
    stores `pair_costs` instead (an older layout) exits 2 naming `costs`."""
    em = extendable_from_json(_need(data, "extension", "reduction bundle"), node_bound)
    return ReductionBundle(em, _need(data, "costs", "reduction bundle", partial(_map, _fraction)))


# ------------------------------------------------------------- antimatroids


def antimatroid_to_json(fam: AntimatroidFamily) -> dict:
    return {"v": VERSION, "ground": list(fam.ground), "feasible": [sorted(g) for g in fam.feasible]}


def path_poset_to_json(pp: PathPoset) -> dict:
    return {
        "v": VERSION,
        "ground": list(pp.ground),
        "paths": [{"set": sorted(s), "endpoint": e} for s, e in pp.paths],
    }


def _feasible_sets(value) -> list[list[str]]:
    """_str_lists in one flat pass: every entry a list, and all members
    joined into one string (join rejects a non-string) that encodes as
    UTF-8.  Only a rejected payload is read again, entry by entry, to name
    its first bad entry."""
    try:
        if type(value) is list and {*map(type, value)} <= {list}:
            "".join(chain.from_iterable(value)).encode("utf-8")
            return value
    except (TypeError, UnicodeEncodeError):
        pass
    return _str_lists(value, "antimatroid.feasible")


def antimatroid_from_json(data: Mapping) -> AntimatroidFamily | PathPoset:
    ground = _need(data, "ground", "antimatroid", _strs)
    if "feasible" in data:
        return AntimatroidFamily.of(ground, _feasible_sets(data["feasible"]))
    if "paths" in data:
        return PathPoset.of(ground, [
            (frozenset(_need(p, "set", "path", _strs)), _need(p, "endpoint", "path", _str))
            for p in _list(data["paths"], "antimatroid.paths")
        ])
    raise InputError("antimatroid: need either 'feasible' or 'paths'")


def costs_from_json(data: Mapping):
    """Returns ('ground', dict) or ('pairs', dict) depending on the payload."""
    if "ground" in data:
        return "ground", _map(_int, data["ground"], "costs.ground")
    if "pairs" in data:
        return "pairs", pair_costs_from_json(data["pairs"], "costs.pairs")
    raise InputError("costs: need either 'ground' or 'pairs'")
