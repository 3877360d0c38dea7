"""Antimatroids, path posets, and the reduction to minimum-cost stable matching.

An antimatroid is encoded either by its feasible family or by its path poset
(paths ordered by containment).  The reduction realizes the ground set as a
gadget-bank market, enforces at most one constraint per ground element
describing which endpoint patterns admit it (none for an element that is a
path on its own), and transfers ground costs onto the minus pairs of the
corresponding rotations, exactly (rational arithmetic).  Optimizers here
are exhaustive by design.

The axiom checks and the path poset share one pass on int masks over the
sorted ground set (validate_antimatroid, compute_path_poset): it builds the
masks and endpoint masks once, in O(|F| * |ground|), reads the paths off
them, checks union closure exactly against the paths alone, in
O(|F| * |paths|) lookups, and scans only a failing axiom for its witness.
A path file is checked without its family in O(|paths|^2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import countOf, or_
from typing import Collection, Iterable, Mapping, Sequence

from .augment import ExtendableMarket, _stable_projection, omega_extend
from .constraints import JoinConstraint
from .errors import DuplicateId, InputError, InvariantError
from .markets import DEFAULT_NODE_BOUND, Matching, MatchingMarket, _stable_leaves
from .orders import _bit_of, _mask, set_key
from .rotations import RealizedBase, _RotationMasks, antichain_base

Pair = tuple[str, str]


@dataclass(frozen=True)
class AntimatroidFamily:
    ground: tuple[str, ...]
    feasible: tuple[frozenset[str], ...]

    @staticmethod
    def of(ground: Iterable[str], feasible: Iterable[Iterable[str]]) -> "AntimatroidFamily":
        """The distinct sets in set_key order: by size, then the set that holds
        the least id of the two sets' difference first.  So one int key sorts
        them, each set's mask with the least id on the highest bit."""
        sets = {frozenset(g) for g in feasible}
        bit = _bit_of(sorted(frozenset().union(*sets), reverse=True))
        top = 1 << len(bit)
        return AntimatroidFamily(tuple(sorted(ground)), tuple(sorted(sets, key=lambda g: len(g) * top - _mask(bit, g))))

    @property
    def ground_set(self) -> frozenset[str]:
        return frozenset(self.ground)


@dataclass(frozen=True)
class PathPoset:
    """Paths of an antimatroid with their unique endpoints, ordered by containment."""

    ground: tuple[str, ...]
    paths: tuple[tuple[frozenset[str], str], ...]

    @staticmethod
    def of(ground: Iterable[str], paths: Iterable[tuple[Iterable[str], str]]) -> "PathPoset":
        ps = sorted(((frozenset(s), e) for s, e in paths), key=lambda p: set_key(p[0]))
        return PathPoset(tuple(sorted(ground)), tuple(ps))

    def path_sets(self) -> list[frozenset[str]]:
        return [s for s, _ in self.paths]

    def with_endpoint(self, x: str) -> list[frozenset[str]]:
        return [s for s, e in self.paths if e == x]


def _elements(ground: Sequence[str]) -> list[str]:
    """The ground ids, sorted; DuplicateId names the least id listed twice."""
    elements = sorted(set(ground))
    if len(elements) < len(ground):
        raise DuplicateId(min(x for x in elements if ground.count(x) > 1))
    return elements


def _endpoint_masks(members: Collection[int]) -> dict[int, int]:
    """Each member's endpoints as a mask: the bits b of m with m ^ b a member."""
    ends = {}
    for m in members:
        e, rest = 0, m
        while rest:
            b = rest & -rest
            rest ^= b
            if m ^ b in members:
                e |= b
        ends[m] = e
    return ends


def _is_path(ends: int) -> bool:
    """Exactly one endpoint."""
    return ends != 0 and ends & (ends - 1) == 0


def _antimatroid_pass(fam: AntimatroidFamily, elements: Sequence[str]) -> tuple[object | None, list]:
    """validate_antimatroid's axioms, in its order, on masks over the sorted
    distinct ground ids, each tested by set operations; only a failing one
    is scanned, in set_key order, for its witness.  Returns the witness
    (None for an antimatroid) and the paths, each with its endpoint."""
    bit = _bit_of(elements)
    if not frozenset().union(*fam.feasible) <= bit.keys():
        g = min((g for g in fam.feasible if not g <= bit.keys()), key=set_key)
        return ("outside-ground", tuple(sorted(g - bit.keys()))), []
    set_of = {_mask(bit, g): g for g in fam.feasible}
    members = set(set_of)
    ends = _endpoint_masks(members)

    def first(masks: Iterable[int]) -> int:
        return min(masks, key=lambda m: set_key(set_of[m]))

    if countOf(ends.values(), 0) != (0 in members):
        return ("not-accessible", tuple(sorted(set_of[first(m for m, e in ends.items() if m and not e)]))), []
    paths = [m for m, e in ends.items() if _is_path(e)]
    if not all(members.issuperset(map(p.__or__, members)) for p in paths):
        a = first(m for m in members if not members.issuperset(map(m.__or__, paths)))
        p = first(p for p in paths if a | p not in members)
        return ("not-union-closed", (tuple(sorted(set_of[a])), tuple(sorted(set_of[p])))), []
    if (1 << len(elements)) - 1 not in members:
        return ("ground-not-feasible", tuple(fam.ground)), []
    return None, [(set_of[m], elements[ends[m].bit_length() - 1]) for m in paths]


def validate_antimatroid(fam: AntimatroidFamily) -> tuple[bool, object | None]:
    """Check, in this order, that every feasible set lies in the ground set,
    accessibility, closure under union, and that the ground set is feasible;
    the witness names the first failing set, or pair of sets, in set_key
    order.

    Union closure is checked against the paths only, which is exact: in an
    accessible family a member g with endpoints x != y is (g - x) | (g - y),
    so every member is a union of paths, and the family is union-closed iff
    a | p is feasible for every feasible a and path p."""
    witness = _antimatroid_pass(fam, sorted(fam.ground_set))[0]
    return witness is None, witness


def compute_path_poset(fam: AntimatroidFamily) -> PathPoset:
    """Check the family and return its paths, the feasible sets with exactly
    one endpoint, each with it, by validate_antimatroid's pass (DuplicateId
    first, for a ground id listed twice; InputError with the pass's witness
    for a rejected family).  In an antimatroid the paths are exactly the
    union-irreducible feasible sets; the tests check the two definitions
    against each other."""
    witness, paths = _antimatroid_pass(fam, _elements(fam.ground))
    if witness is not None:
        raise InputError(f"not an antimatroid: {witness}")
    return PathPoset.of(fam.ground, paths)


def validate_path_poset(pp: PathPoset) -> PathPoset:
    """Check a path file, and return it, in O(|paths|^2) mask operations,
    without forming the family F of all unions of its paths.  It rejects a
    ground id listed twice, then a path outside the ground set, a path
    listed twice, paths that miss part of the ground set, and a path p with
    endpoint x where x is not in p or the paths strictly inside p do not
    unite to p - x (not-accessible if no p - y is such a union either).

    Exact: F is union-closed, and the paths cover the ground set.  Each
    p - x is in F, so by induction every path, and so every member of F, is
    reached from the empty set one element at a time.  No path is a union
    of smaller members, so F's union-irreducible sets, its paths, are the
    given ones; a second endpoint y would make p = (p - x) | (p - y) reducible."""
    bit = _bit_of(_elements(pp.ground))
    for s in pp.path_sets():
        if not s <= bit.keys():
            raise InputError(f"not an antimatroid: {('outside-ground', tuple(sorted(s - bit.keys())))}")
    masks = [_mask(bit, s) for s in pp.path_sets()]
    for k, (s, m) in enumerate(zip(pp.path_sets(), masks)):
        if masks.index(m) < k:
            raise InputError(f"not the paths of an antimatroid: {('listed-twice', tuple(sorted(s)))}")
    if reduce(or_, masks, 0) != (1 << len(bit)) - 1:
        raise InputError(f"not an antimatroid: {('ground-not-feasible', tuple(pp.ground))}")
    for (s, x), p in zip(pp.paths, masks):
        inside = [q for q in masks if q != p and q | p == p]
        if x not in s or reduce(or_, inside, 0) != p ^ bit[x]:
            if s and not any(reduce(or_, (q for q in inside if not q & bit[y]), 0) == p ^ bit[y] for y in s):
                raise InputError(f"not an antimatroid: {('not-accessible', tuple(sorted(s)))}")
            raise InputError(f"not the paths of an antimatroid: {(tuple(sorted(s)), x)}")
    return pp


def family_from_path_poset(pp: PathPoset) -> AntimatroidFamily:
    """All unions of the paths once validate_path_poset accepts them, the
    empty set included: O(|paths| * |family|) ORs on int masks."""
    elements = sorted(validate_path_poset(pp).ground)
    bit = _bit_of(elements)
    family = {0}
    for s in pp.path_sets():
        p = _mask(bit, s)
        family |= {m | p for m in family}
    return AntimatroidFamily.of(
        pp.ground, (frozenset(x for i, x in enumerate(elements) if m >> i & 1) for m in family)
    )


def antimatroid_constraints(pp: PathPoset) -> list[JoinConstraint]:
    """At most one join constraint per ground element x, read on the set T
    of rotations that occurred, the ground elements outside a feasible set:
    if every path ending at x has a subpath whose endpoint is in T, then x
    is in T.  So x may only be feasible together with the full endpoint
    pattern of one of its paths.

    Each path g ending at x gives one alpha group, the endpoints of g's
    subpaths.  That is all of g: a minimal feasible subset of g that holds
    an element z has an endpoint (accessibility), and minimality leaves z
    as the only one.  Two rewrites, each exact on every T, narrow the
    groups:
    - x is dropped from every group: if x is in T the constraint holds
      either way, and if it is not, T meets a group exactly when it meets
      the group minus x;
    - a group left empty (the path {x}) makes alpha false whenever x is not
      in T, so the constraint holds on every set and is not generated.
    No group then strictly contains another, so CNF absorption drops
    nothing: of two paths ending at x, the smaller grows to the larger one
    feasible element at a time, and the last element added is a second
    endpoint of the larger.  An element that ends no path keeps alpha
    empty, so it is always in T."""
    out = []
    for x in pp.ground:
        paths = pp.with_endpoint(x)
        if frozenset({x}) not in paths:
            out.append(JoinConstraint.make([g - {x} for g in paths], {x}))
    return out


def edge_id(u: str, v: str) -> str:
    a, b = sorted((u, v))
    return f"{a}~{b}"


def independent_set_antimatroid(
    vertices: Sequence[str], edges: Sequence[tuple[str, str]]
) -> tuple[AntimatroidFamily, dict[str, int]]:
    """The gadget family over vertices and edges: all unions of the paths {v}
    for each vertex and {u, uv} and {v, uv} for each edge uv, so a set is
    feasible when every included edge has an included endpoint.  Weights
    make the maximum-weight feasible set equal the graph's independence
    number.  The path check rejects a repeated vertex or edge (either way
    round), a self-loop and an edge to an unknown vertex."""
    ids = [edge_id(u, v) for u, v in edges]
    paths = [({v}, v) for v in vertices] + [({x, e}, e) for edge, e in zip(edges, ids) for x in edge]
    fam = family_from_path_poset(PathPoset.of([*vertices, *ids], paths))
    weights = {v: 1 - sum(v in edge for edge in edges) for v in sorted(vertices)}
    weights.update(dict.fromkeys(ids, 1))
    return fam, weights


def min_cost_feasible(
    fam: AntimatroidFamily, costs: Mapping[str, int | Fraction], sense: str = "min"
) -> tuple[frozenset[str], Fraction]:
    """Exhaustive optimum over the feasible family; ties go to the canonically
    smallest set.  Maximization runs as minimization of the negated costs."""
    if sense not in ("min", "max"):
        raise InputError(f"sense must be 'min' or 'max', not {sense!r}")
    sign = 1 if sense == "min" else -1
    best = None
    best_val = None
    for g in sorted(fam.feasible, key=set_key):
        val = sum((Fraction(costs.get(x, 0)) for x in g), Fraction(0))
        if best_val is None or sign * val < sign * best_val:
            best, best_val = g, val
    if best is None:
        raise InputError("empty feasible family")
    return best, best_val


def transfer_costs(base: RealizedBase, costs: Mapping[str, int | Fraction]) -> dict[Pair, Fraction]:
    """Spread each ground element's cost evenly over the minus pairs of its
    rotation, the rotation of the same id; all other pairs cost zero (left
    implicit).  A cost for an element outside the ground set is an
    InputError."""
    unknown = sorted(set(costs) - set(base.rotation_poset.rotations))
    if unknown:
        raise InputError(f"costs name elements outside the ground set: {unknown}")
    out: dict[Pair, Fraction] = {}
    for x, rot in sorted(base.rotation_poset.rotations.items()):
        share = Fraction(costs.get(x, 0), len(rot.minus))
        for pair in rot.minus:
            out[pair] = share
    return {p: v for p, v in out.items() if v != 0}


@dataclass(frozen=True)
class ReductionBundle:
    """A reduced market with its ground costs.  The pair costs are derived
    from them once, at construction, by transfer_costs, which rejects a
    cost for an element outside the ground set."""

    extendable: ExtendableMarket
    costs: Mapping[str, int | Fraction]
    pair_costs: dict[Pair, Fraction] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "pair_costs", transfer_costs(self.extendable.base, self.costs))

    @property
    def ground(self) -> tuple[str, ...]:
        """The ground set: the base's rotation ids, one per element."""
        return self.extendable.base.rotation_poset.ids()

    def recover(self, mu: Matching) -> frozenset[str]:
        """Map a stable matching of the reduced market back to a ground subset:
        the elements whose rotation did not occur."""
        base = self.extendable.base
        hold = _stable_projection(self.extendable, mu)
        return frozenset(self.ground) - _RotationMasks(base.rotation_poset, base.market.kernel).rotation_set(hold)


def reduce_to_matching(pp: PathPoset, costs: Mapping[str, int | Fraction]) -> ReductionBundle:
    """Theorem-2 pipeline: gadget-bank base over the ground set, one
    augmentation per constraint of antimatroid_constraints (at most one per
    ground element), costs transferred onto base minus pairs."""
    em = omega_extend(antichain_base(list(pp.ground)), antimatroid_constraints(pp))
    return ReductionBundle(em, dict(costs))


def min_cost_stable(
    market: MatchingMarket,
    pair_costs: Mapping[Pair, Fraction],
    sense: str = "min",
    node_bound: int = DEFAULT_NODE_BOUND,
) -> tuple[Matching, Fraction]:
    """Exact optimum of a pair-cost function over the stable matchings; ties
    go to the canonically first matching.  The costs are scaled once by the
    lcm of their denominators into an int table by worker and firm position
    (negated for max), and enumerate_stable's search runs on it as branch
    and bound: a branch whose exact lower bound is strictly above the
    cheapest stable leaf found so far is cut, so every leaf of least cost is
    still reached.  Each leaf the search yields costs no more than the ones
    before it, so a copy of its hold masks replaces the incumbent when it is
    cheaper or ties with a smaller _Masks.key (Matching.key's order, on
    masks); the incumbent's key is computed at its first tie and kept
    beside it, and the incumbent is decoded once, at the end.  node_bound counts
    the pruned search's nodes.  The optimum is returned as that int over
    the scale."""
    if sense not in ("min", "max"):
        raise InputError(f"sense must be 'min' or 'max', not {sense!r}")
    firm_bit, worker_bit = market.kernel.firm_bit, market.kernel.worker_bit
    for f, w in sorted(pair_costs):
        if f not in firm_bit or w not in worker_bit:
            raise InputError(f"pair cost ({f!r}, {w!r}) names an agent outside the market")
    scale = lcm(*(v.denominator for v in pair_costs.values()))
    sign = 1 if sense == "min" else -1
    rows: dict[int, dict[int, int]] = {}
    for (f, w), v in pair_costs.items():
        if v:
            rows.setdefault(worker_bit[w].bit_length() - 1, {})[firm_bit[f].bit_length() - 1] = (
                sign * v.numerator * (scale // v.denominator))
    best = best_val = best_key = None
    key = market.kernel.key
    for hold, val in _stable_leaves(market, node_bound, rows):
        if best_val is None or val < best_val:
            best, best_val, best_key = list(hold), val, None
        else:
            if best_key is None:
                best_key = key(best)
            if (hold_key := key(hold)) < best_key:
                best, best_key = list(hold), hold_key
    if best is None:
        raise InvariantError("no stable matchings found")
    return market.kernel.decode(best), Fraction(sign * best_val, scale)
