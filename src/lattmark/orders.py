"""Finite posets and lattices over opaque string ids.

Element ids are opaque strings; every canonical ordering used for
deterministic output is lexicographic on ids, and families of sets are
ordered by (size, sorted members).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Mapping

from .errors import (
    DuplicateId,
    EnumerationBoundExceeded,
    InputError,
    NotALattice,
    NotAntisymmetric,
    NotReflexive,
    NotTransitive,
    UnknownElementId,
)

LOWER_SET_BOUND = 20


def set_key(s: Iterable[str]) -> tuple:
    """Canonical sort key for a set of ids: by size, then lexicographic."""
    t = tuple(sorted(s))
    return (len(t), t)


@dataclass(frozen=True)
class Poset:
    """A finite partial order: elements plus the full relation (x, y) meaning x <= y."""

    elements: tuple[str, ...]
    relation: frozenset[tuple[str, str]]

    def __post_init__(self):
        seen = set()
        for e in self.elements:
            if e in seen:
                raise DuplicateId(e)
            seen.add(e)

    def leq(self, x: str, y: str) -> bool:
        return (x, y) in self.relation

    def lt(self, x: str, y: str) -> bool:
        return x != y and (x, y) in self.relation

    def has(self, x: str) -> bool:
        return x in self._element_set

    @cached_property
    def _element_set(self) -> frozenset[str]:
        return frozenset(self.elements)

    @cached_property
    def covers(self) -> tuple[tuple[str, str], ...]:
        """All cover pairs (x, y) with x strictly below y and nothing between."""
        out = []
        for x in self.elements:
            for y in self.elements:
                if not self.lt(x, y):
                    continue
                if any(self.lt(x, z) and self.lt(z, y) for z in self.elements):
                    continue
                out.append((x, y))
        return tuple(sorted(out))

    def down_set(self, x: str) -> frozenset[str]:
        return frozenset(z for z in self.elements if self.leq(z, x))

    def restrict(self, subset: Iterable[str]) -> "Poset":
        keep = set(subset)
        for s in keep:
            if s not in self._element_set:
                raise UnknownElementId(s)
        elements = tuple(e for e in self.elements if e in keep)
        relation = frozenset(p for p in self.relation if p[0] in keep and p[1] in keep)
        return Poset(elements, relation)

    def maximal_of(self, members: Iterable[str]) -> frozenset[str]:
        ms = set(members)
        for m in ms:
            if m not in self._element_set:
                raise UnknownElementId(m)
        return frozenset(m for m in ms if not any(self.lt(m, z) for z in ms))

    def minimal_of(self, members: Iterable[str]) -> frozenset[str]:
        ms = set(members)
        return frozenset(m for m in ms if not any(self.lt(z, m) for z in ms))


def trivial_poset(elements: Iterable[str]) -> Poset:
    els = tuple(sorted(elements))
    return Poset(els, frozenset((e, e) for e in els))


def validate_poset(elements: Iterable[str], matrix: Iterable[Iterable[bool]]) -> Poset:
    """Check the three order axioms on a boolean matrix and build the Poset.

    Raises NotReflexive / NotAntisymmetric / NotTransitive with the first
    witness found (scanning in element order).
    """
    els = tuple(elements)
    rows = [list(r) for r in matrix]
    if len(rows) != len(els) or any(len(r) != len(els) for r in rows):
        raise UnknownElementId("<matrix shape does not match element list>")
    n = len(els)
    for i in range(n):
        if not rows[i][i]:
            raise NotReflexive(els[i])
    for i in range(n):
        for j in range(n):
            if i != j and rows[i][j] and rows[j][i]:
                raise NotAntisymmetric(els[i], els[j])
    for i in range(n):
        for j in range(n):
            if not rows[i][j]:
                continue
            for k in range(n):
                if rows[j][k] and not rows[i][k]:
                    raise NotTransitive(els[i], els[j], els[k])
    rel = frozenset((els[i], els[j]) for i in range(n) for j in range(n) if rows[i][j])
    return Poset(els, rel)


def poset_from_pairs(elements: Iterable[str], pairs: Iterable[tuple[str, str]], *, close: bool = False) -> Poset:
    """Build a Poset from related pairs.

    With close=True the pairs are treated as generators: reflexive pairs are
    added and the transitive closure is taken before validation (handy for
    cover-style input).  Without it, the pairs must already be a full order.
    """
    els = tuple(elements)
    idx = {e: i for i, e in enumerate(els)}
    n = len(els)
    rows = [[False] * n for _ in range(n)]
    for (x, y) in pairs:
        if x not in idx or y not in idx:
            raise UnknownElementId(x if x not in idx else y)
        rows[idx[x]][idx[y]] = True
    if close:
        for i in range(n):
            rows[i][i] = True
        for k in range(n):
            for i in range(n):
                if rows[i][k]:
                    ri, rk = rows[i], rows[k]
                    for j in range(n):
                        if rk[j]:
                            ri[j] = True
    return validate_poset(els, rows)


def lower_sets(poset: Poset) -> list[frozenset[str]]:
    """All downward closed subsets, in canonical (size, lexicographic) order.

    Elements are added in a linear extension (by down-set size), so each
    lower set is built once: from the lower sets of the elements so far, by
    adding the next element to those that hold everything below it.
    """
    if len(poset.elements) > LOWER_SET_BOUND:
        raise EnumerationBoundExceeded(len(poset.elements), LOWER_SET_BOUND)
    below = {e: poset.down_set(e) - {e} for e in poset.elements}
    family = [frozenset()]
    for e in sorted(poset.elements, key=lambda x: len(below[x])):
        family += [s | {e} for s in family if below[e] <= s]
    return sorted(family, key=set_key)


@dataclass(frozen=True, eq=False)
class Lattice:
    """A poset with join/meet tables; built through lattice_from_order."""

    poset: Poset
    join_table: Mapping[tuple[str, str], str] = field(repr=False)
    meet_table: Mapping[tuple[str, str], str] = field(repr=False)

    @property
    def elements(self) -> tuple[str, ...]:
        return self.poset.elements

    def leq(self, x: str, y: str) -> bool:
        return self.poset.leq(x, y)

    def lt(self, x: str, y: str) -> bool:
        return self.poset.lt(x, y)

    def join(self, x: str, y: str) -> str:
        return self.join_table[(x, y)]

    def meet(self, x: str, y: str) -> str:
        return self.meet_table[(x, y)]

    @cached_property
    def bottom(self) -> str:
        (b,) = [e for e in self.elements if all(self.leq(e, z) for z in self.elements)]
        return b

    @cached_property
    def top(self) -> str:
        (t,) = [e for e in self.elements if all(self.leq(z, e) for z in self.elements)]
        return t

    def __eq__(self, other):
        return (
            isinstance(other, Lattice)
            and self.poset == other.poset
            and dict(self.join_table) == dict(other.join_table)
            and dict(self.meet_table) == dict(other.meet_table)
        )


def lattice_from_order(poset: Poset) -> Lattice:
    """Compute join/meet tables by enumerating bounds; fail on the first bad pair."""
    els = poset.elements
    if not els:
        raise InputError("a lattice needs at least one element (its bottom)")
    join: dict[tuple[str, str], str] = {}
    meet: dict[tuple[str, str], str] = {}
    for x in els:
        for y in els:
            ub = [z for z in els if poset.leq(x, z) and poset.leq(y, z)]
            least = [u for u in ub if all(poset.leq(u, v) for v in ub)]
            if len(least) != 1:
                raise NotALattice(x, y, poset.minimal_of(ub), kind="upper")
            join[(x, y)] = least[0]
            lb = [z for z in els if poset.leq(z, x) and poset.leq(z, y)]
            greatest = [u for u in lb if all(poset.leq(v, u) for v in lb)]
            if len(greatest) != 1:
                raise NotALattice(x, y, poset.maximal_of(lb), kind="lower")
            meet[(x, y)] = greatest[0]
    return Lattice(poset, join, meet)


def lattice_from_tables(
    elements: Iterable[str],
    join_rows: Iterable[Iterable[str]],
    meet_rows: Iterable[Iterable[str]],
) -> Lattice:
    """Build a lattice from join/meet tables, deriving and cross-checking the order.

    The order is read off the join table (x <= y iff x v y = y); the result
    must reproduce both tables when joins/meets are recomputed by bound
    enumeration.
    """
    els = tuple(elements)
    jr = [list(r) for r in join_rows]
    mr = [list(r) for r in meet_rows]
    n = len(els)
    if len(jr) != n or len(mr) != n or any(len(r) != n for r in jr + mr):
        raise UnknownElementId("<table shape does not match element list>")
    rows = [[jr[i][j] == els[j] for j in range(n)] for i in range(n)]
    poset = validate_poset(els, rows)
    lat = lattice_from_order(poset)
    for i, x in enumerate(els):
        for j, y in enumerate(els):
            if lat.join(x, y) != jr[i][j]:
                raise NotALattice(x, y, {jr[i][j], lat.join(x, y)}, kind="upper")
            if lat.meet(x, y) != mr[i][j]:
                raise NotALattice(x, y, {mr[i][j], lat.meet(x, y)}, kind="lower")
    return lat


def join_irreducibles(lattice: Lattice) -> tuple[tuple[str, ...], Poset]:
    """Elements covering exactly one other element, with the induced order.

    In a finite lattice these are exactly the elements that cannot be written
    as the join of a subset excluding themselves.
    """
    poset = lattice.poset
    lower_cover_count = {e: 0 for e in poset.elements}
    for (_, y) in poset.covers:
        lower_cover_count[y] += 1
    xj = tuple(e for e in poset.elements if lower_cover_count[e] == 1)
    return xj, poset.restrict(xj)


def canonical_partial_rep(lattice: Lattice) -> dict[str, frozenset[str]]:
    """Map each element x to the join-irreducibles weakly below x."""
    xj, _ = join_irreducibles(lattice)
    return {x: frozenset(j for j in xj if lattice.leq(j, x)) for x in lattice.elements}


def check_order_embedding(f: Mapping, src: Poset, leq: Callable) -> tuple[bool, tuple | None]:
    """Check x <= x' iff leq(f(x), f(x')) for all pairs."""
    for x in src.elements:
        for y in src.elements:
            if src.leq(x, y) != bool(leq(f[x], f[y])):
                return False, (x, y)
    return True, None


def check_order_isomorphism(f: Mapping, src: Poset, dst_elements: Iterable, leq: Callable) -> tuple[bool, object | None]:
    ok, witness = check_order_embedding(f, src, leq)
    if not ok:
        return False, witness
    image = {f[x] for x in src.elements}
    targets = set(dst_elements)
    if image != targets:
        missing = sorted(targets - image, key=repr)
        extra = sorted(image - targets, key=repr)
        return False, ("image mismatch", tuple(missing), tuple(extra))
    return True, None


def is_distributive(lattice: Lattice) -> tuple[bool, tuple | None]:
    """Exhaustive check of a v (b ^ c) = (a v b) ^ (a v c); the dual law follows."""
    els = lattice.elements
    for a in els:
        for b in els:
            for c in els:
                left = lattice.join(a, lattice.meet(b, c))
                right = lattice.meet(lattice.join(a, b), lattice.join(a, c))
                if left != right:
                    return False, (a, b, c)
    return True, None
