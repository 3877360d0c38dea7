"""Antimatroids, path posets, and the reduction to minimum-cost stable matching.

An antimatroid is encoded either by its feasible family or by its path poset
(paths ordered by containment).  The reduction realizes the ground set as a
gadget-bank market, enforces one constraint per ground element describing
which endpoint patterns admit each element, and transfers ground costs onto
the minus pairs of the corresponding rotations, exactly (rational
arithmetic).  Optimizers here are exhaustive by design.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

from .augment import ExtendableMarket, omega_extend, project_to_base
from .constraints import JoinConstraint
from .errors import InputError, InvariantError
from .markets import DEFAULT_NODE_BOUND, Matching, MatchingMarket, enumerate_stable
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


def validate_antimatroid(fam: AntimatroidFamily) -> tuple[bool, object | None]:
    """Check ground feasibility, closure under union, and accessibility."""
    sets = set(fam.feasible)
    for g in sets:
        if not g <= fam.ground_set:
            return False, ("outside-ground", tuple(sorted(g - fam.ground_set)))
    ordered = sorted(sets, key=set_key)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            if a | b not in sets:
                return False, ("not-union-closed", (tuple(sorted(a)), tuple(sorted(b))))
    if fam.ground_set not in sets:
        return False, ("ground-not-feasible", tuple(fam.ground))
    for g in ordered:
        if g and not any(g - {x} in sets for x in g):
            return False, ("not-accessible", tuple(sorted(g)))
    return True, None


def endpoints(fam: AntimatroidFamily, members: Iterable[str]) -> frozenset[str]:
    g = frozenset(members)
    sets = set(fam.feasible)
    return frozenset(x for x in g if g - {x} in sets)


def compute_path_poset(fam: AntimatroidFamily) -> PathPoset:
    """Feasible sets with exactly one endpoint, cross-checked against the
    union-irreducibility characterization."""
    ok, witness = validate_antimatroid(fam)
    if not ok:
        raise InputError(f"not an antimatroid: {witness}")
    sets = sorted(set(fam.feasible), key=set_key)
    paths = []
    for g in sets:
        eps = endpoints(fam, g)
        if len(eps) == 1:
            paths.append((g, next(iter(eps))))
    union_irreducible = []
    for g in sets:
        if not g:
            continue
        others = [h for h in sets if h != g and h <= g]
        if not any(a | b == g for i, a in enumerate(others) for b in others[i:]):
            union_irreducible.append(g)
    if sorted(s for s, _ in paths) != sorted(union_irreducible):
        raise InvariantError("path definitions disagree: endpoint count vs union irreducibility")
    return PathPoset.of(fam.ground, paths)


def family_from_path_poset(pp: PathPoset) -> AntimatroidFamily:
    """All unions of paths, the empty set included: the union closure, grown
    one path at a time, so it costs O(|paths| * |family|)."""
    family = {frozenset()}
    for p in pp.path_sets():
        family |= {s | p for s in family}
    return AntimatroidFamily.of(pp.ground, family)


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


def pair_cost(pair_costs: Mapping[Pair, Fraction], mu: Matching) -> Fraction:
    return sum((pair_costs.get(p, Fraction(0)) for p in mu.pairs), Fraction(0))


def _check_pairs(market: MatchingMarket, pair_costs: Mapping[Pair, Fraction]) -> None:
    """Every costed pair is a firm and a worker of the market."""
    for f, w in sorted(pair_costs):
        if f not in market.firm_set or w not in market.worker_set:
            raise InputError(f"pair cost ({f!r}, {w!r}) names an agent outside the market")


@dataclass(frozen=True)
class ReductionBundle:
    extendable: ExtendableMarket
    pair_costs: dict[Pair, Fraction]

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
    the lcm of their denominators, so each matching is costed and compared
    as an exact int; the optimum is returned as that int over the scale."""
    if sense not in ("min", "max"):
        raise InputError(f"sense must be 'min' or 'max', not {sense!r}")
    _check_pairs(market, pair_costs)
    scale = lcm(*(v.denominator for v in pair_costs.values()))
    scaled = {p: v.numerator * (scale // v.denominator) for p, v in pair_costs.items() if v}
    sign = 1 if sense == "min" else -1
    best = None
    best_val = None
    for mu in enumerate_stable(market, node_bound=node_bound):
        val = sign * sum(c for p, c in scaled.items() if p in mu.pairs)
        if best_val is None or val < best_val:
            best, best_val = mu, val
    if best is None:
        raise InvariantError("no stable matchings found")
    return best, Fraction(sign * best_val, scale)
