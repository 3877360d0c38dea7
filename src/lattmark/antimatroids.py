"""Antimatroids, path posets, and the reduction to minimum-cost stable matching.

An antimatroid is encoded either by its feasible family or by its path poset
(paths ordered by containment).  The reduction realizes the ground set as a
gadget-bank market, enforces one constraint per ground element describing
which endpoint patterns admit each element, and transfers ground costs onto
the minus pairs of the corresponding rotations, exactly (rational
arithmetic).  Optimizers here are exhaustive by design.

The axiom check, the path poset and the union closure of paths work on int
masks over the sorted ground set.  Union closure is checked exactly against
the paths alone, in O(|F| * (|ground| + |paths|)) mask lookups, and the
paths are read off the endpoint masks in O(|F| * |ground|).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Collection, Iterable, Mapping, Sequence

from .augment import ExtendableMarket, omega_extend, project_to_base
from .constraints import JoinConstraint
from .errors import InputError, InvariantError
from .markets import DEFAULT_NODE_BOUND, Matching, MatchingMarket, _leaf_matching, _stable_leaves
from .orders import set_key
from .rotations import RealizedBase, antichain_base, matching_to_rotations

Pair = tuple[str, str]


@dataclass(frozen=True)
class AntimatroidFamily:
    ground: tuple[str, ...]
    feasible: tuple[frozenset[str], ...]

    @staticmethod
    def of(ground: Iterable[str], feasible: Iterable[Iterable[str]]) -> "AntimatroidFamily":
        fam = sorted({frozenset(g) for g in feasible}, key=set_key)
        return AntimatroidFamily(tuple(sorted(ground)), tuple(fam))

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

    def endpoint_of(self) -> dict[frozenset[str], str]:
        return {s: e for s, e in self.paths}

    def with_endpoint(self, x: str) -> list[frozenset[str]]:
        return [s for s, e in self.paths if e == x]

    def subpaths(self, member: frozenset[str]) -> list[frozenset[str]]:
        return [s for s, _ in self.paths if s <= member]


def _mask(s: Iterable[str], bit: Mapping[str, int]) -> int:
    return sum(map(bit.__getitem__, s))


def _bits(elements: Sequence[str]) -> dict[str, int]:
    return {x: 1 << i for i, x in enumerate(elements)}


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


def validate_antimatroid(fam: AntimatroidFamily) -> tuple[bool, object | None]:
    """Check, in this order, that every feasible set lies in the ground set,
    accessibility, closure under union, and that the ground set is feasible.

    Union closure is checked against the paths only, which is exact: in an
    accessible family a member g with endpoints x != y is (g - x) | (g - y),
    so every member is a union of paths, and the family is union-closed iff
    a | p is feasible for every feasible a and path p."""
    ground = fam.ground_set
    ordered = sorted(set(fam.feasible), key=set_key)
    for g in ordered:
        if not g <= ground:
            return False, ("outside-ground", tuple(sorted(g - ground)))
    bit = _bits(sorted(ground))
    masks = [_mask(g, bit) for g in ordered]
    members = set(masks)
    ends = _endpoint_masks(members)
    for g, m in zip(ordered, masks):
        if m and not ends[m]:
            return False, ("not-accessible", tuple(sorted(g)))
    paths = [(p, m) for p, m in zip(ordered, masks) if _is_path(ends[m])]
    for a, am in zip(ordered, masks):
        for p, pm in paths:
            if am | pm not in members:
                return False, ("not-union-closed", (tuple(sorted(a)), tuple(sorted(p))))
    if (1 << len(ground)) - 1 not in members:
        return False, ("ground-not-feasible", tuple(fam.ground))
    return True, None


def compute_path_poset(fam: AntimatroidFamily) -> PathPoset:
    """The feasible sets with exactly one endpoint, each with it.  In an
    antimatroid these are exactly the union-irreducible feasible sets; the
    tests check the two definitions against each other."""
    ok, witness = validate_antimatroid(fam)
    if not ok:
        raise InputError(f"not an antimatroid: {witness}")
    elements = sorted(fam.ground_set)
    bit = _bits(elements)
    set_of = {_mask(g, bit): g for g in fam.feasible}
    ends = _endpoint_masks(set_of.keys())
    return PathPoset.of(fam.ground, [(set_of[m], elements[e.bit_length() - 1]) for m, e in ends.items() if _is_path(e)])


def family_from_path_poset(pp: PathPoset) -> AntimatroidFamily:
    """All unions of paths, the empty set included: the union closure, grown
    one path at a time on int masks, so it costs O(|paths| * |family|) ORs."""
    elements = sorted(set(pp.ground).union(*pp.path_sets()))
    bit = _bits(elements)
    family = {0}
    for s in pp.path_sets():
        p = _mask(s, bit)
        family |= {m | p for m in family}
    return AntimatroidFamily.of(
        pp.ground, (frozenset(x for i, x in enumerate(elements) if m >> i & 1) for m in family)
    )


def antimatroid_constraints(pp: PathPoset) -> list[JoinConstraint]:
    """One join constraint per ground element x, read on the set T of
    rotations that occurred, the ground elements outside a feasible set: if
    every path ending at x has a subpath whose endpoint is in T, then x is
    in T.  So x may only be feasible together with the full endpoint pattern
    of one of its paths."""
    endpoint_of = pp.endpoint_of()
    return [
        JoinConstraint.make([{endpoint_of[s] for s in pp.subpaths(g)} for g in pp.with_endpoint(x)], {x})
        for x in pp.ground
    ]


def edge_id(u: str, v: str) -> str:
    a, b = sorted((u, v))
    return f"{a}~{b}"


def independent_set_antimatroid(
    vertices: Sequence[str], edges: Sequence[tuple[str, str]]
) -> tuple[AntimatroidFamily, dict[str, int]]:
    """The gadget family over vertices and edges: a set is feasible when every
    included edge has an included endpoint.  Weights make the maximum-weight
    feasible set equal the graph's independence number."""
    vs = sorted(set(vertices))
    if len(vs) != len(vertices):
        raise InputError("duplicate vertices")
    es = []
    degree = {v: 0 for v in vs}
    for u, v in edges:
        if u not in degree or v not in degree or u == v:
            raise InputError(f"bad edge ({u!r}, {v!r})")
        es.append((u, v))
        degree[u] += 1
        degree[v] += 1
    ground = vs + sorted(edge_id(u, v) for u, v in es)
    endpoint_map = {edge_id(u, v): (u, v) for u, v in es}
    feasible = []
    for mask in range(1 << len(ground)):
        t = frozenset(ground[i] for i in range(len(ground)) if mask >> i & 1)
        ok = all(endpoint_map[e][0] in t or endpoint_map[e][1] in t for e in t if e in endpoint_map)
        if ok:
            feasible.append(t)
    weights = {v: 1 - degree[v] for v in vs}
    weights.update({e: 1 for e in endpoint_map})
    return AntimatroidFamily.of(ground, feasible), weights


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


def _check_pairs(market: MatchingMarket, pair_costs: Mapping[Pair, Fraction]) -> None:
    """Every costed pair is a firm and a worker of the market."""
    for f, w in sorted(pair_costs):
        if f not in market.firm_set or w not in market.worker_set:
            raise InputError(f"pair cost ({f!r}, {w!r}) names an agent outside the market")


@dataclass(frozen=True)
class ReductionBundle:
    """A reduced market with its pair costs; `cost_scale` is the factor the
    ground costs were multiplied by before they were transferred."""

    extendable: ExtendableMarket
    pair_costs: dict[Pair, Fraction]
    cost_scale: int = 1

    def __post_init__(self):
        _check_pairs(self.extendable.market, self.pair_costs)

    @property
    def ground(self) -> tuple[str, ...]:
        """The ground set: the base's rotation ids, one per element."""
        return self.extendable.base.rotation_poset.ids()

    def recover(self, mu: Matching) -> frozenset[str]:
        """Map a stable matching of the reduced market back to a ground subset:
        the elements whose rotation did not occur."""
        rp = self.extendable.base.rotation_poset
        occurred = matching_to_rotations(rp, project_to_base(self.extendable, mu))
        return frozenset(self.ground) - occurred


def reduce_to_matching(pp: PathPoset, costs: Mapping[str, int | Fraction]) -> ReductionBundle:
    """Theorem-2 pipeline: gadget-bank base over the ground set, one
    augmentation per ground element's constraint, costs transferred onto
    base minus pairs."""
    base = antichain_base(list(pp.ground))
    em = omega_extend(base, antimatroid_constraints(pp))
    pair_costs = transfer_costs(base, costs)
    return ReductionBundle(em, pair_costs)


def min_cost_stable(
    market: MatchingMarket,
    pair_costs: Mapping[Pair, Fraction],
    sense: str = "min",
    node_bound: int = DEFAULT_NODE_BOUND,
) -> tuple[Matching, Fraction]:
    """Exhaustive optimum of a pair-cost function over the stable matchings;
    ties go to the canonically first matching.  The costs are scaled once by
    the lcm of their denominators into an int table by worker and firm
    position, so each stable leaf of enumerate_stable's search is costed and
    compared as an exact int; only a leaf that beats or ties the incumbent
    becomes a Matching, and a tie keeps the smaller Matching.key().  The
    optimum is returned as that int over the scale."""
    if sense not in ("min", "max"):
        raise InputError(f"sense must be 'min' or 'max', not {sense!r}")
    _check_pairs(market, pair_costs)
    scale = lcm(*(v.denominator for v in pair_costs.values()))
    sign = 1 if sense == "min" else -1
    firm_at = {f: i for i, f in enumerate(market.firms)}
    worker_at = {w: j for j, w in enumerate(market.workers)}
    rows: dict[int, dict[int, int]] = {}
    for (f, w), v in pair_costs.items():
        if v:
            rows.setdefault(worker_at[w], {})[firm_at[f]] = sign * v.numerator * (scale // v.denominator)
    best = best_key = best_val = None
    for at in _stable_leaves(market, node_bound):
        val = 0
        for j, row in rows.items():
            for i in at[j]:
                val += row.get(i, 0)
        if best_val is None or val <= best_val:
            mu = _leaf_matching(market, at)
            key = mu.key()
            if best_val is None or val < best_val or key < best_key:
                best, best_key, best_val = mu, key, val
    if best is None:
        raise InvariantError("no stable matchings found")
    return best, Fraction(sign * best_val, scale)
