"""Finite posets and lattices over opaque string ids.

Element ids are opaque strings; every canonical ordering used for
deterministic output is lexicographic on ids, and families of sets are
ordered by (size, sorted members).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    DuplicateId,
    InputError,
    NotALattice,
    NotAntisymmetric,
    NotReflexive,
    NotTransitive,
    UnknownElementId,
)

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
        unknown = {e for pair in self.relation for e in pair} - seen
        if unknown:
            raise UnknownElementId(min(unknown))

    def leq(self, x: str, y: str) -> bool:
        return (x, y) in self.relation

    def lt(self, x: str, y: str) -> bool:
        return x != y and (x, y) in self.relation

    def has(self, x: str) -> bool:
        return x in self.index

    @cached_property
    def index(self) -> dict[str, int]:
        """Each element's position in elements: its bit in the masks."""
        return {e: i for i, e in enumerate(self.elements)}

    @cached_property
    def masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Each element's up-set and down-set as int masks, bit i standing
        for elements[i]."""
        idx = self.index
        up, down = [0] * len(idx), [0] * len(idx)
        for x, y in self.relation:
            up[idx[x]] |= 1 << idx[y]
            down[idx[y]] |= 1 << idx[x]
        return tuple(up), tuple(down)

    def _members(self, mask: int) -> list[str]:
        return [self.elements[i] for i in _bits(mask)]

    @cached_property
    def covers(self) -> tuple[tuple[str, str], ...]:
        """All cover pairs (x, y) with x strictly below y and nothing between:
        x's strict up-set minus everything a member of it strictly reaches."""
        up, _ = self.masks
        return tuple(sorted((x, self.elements[j]) for i, x in enumerate(self.elements)
                            for j in _bits(_uncovered(up[i] & ~(1 << i), up))))

    def restrict(self, subset: Iterable[str]) -> "Poset":
        keep = set(subset)
        for s in keep:
            if s not in self.index:
                raise UnknownElementId(s)
        elements = tuple(e for e in self.elements if e in keep)
        relation = frozenset(p for p in self.relation if p[0] in keep and p[1] in keep)
        return Poset(elements, relation)


def trivial_poset(elements: Iterable[str]) -> Poset:
    els = tuple(sorted(elements))
    return Poset(els, frozenset((e, e) for e in els))


def inclusion_poset(family: Iterable[frozenset]) -> tuple[Poset, list[frozenset]]:
    """The family's distinct sets ordered by inclusion, and the sets in
    set_key order: element x<i> of the poset names the i-th set."""
    sets = sorted(set(family), key=set_key)
    names = {s: f"x{i}" for i, s in enumerate(sets)}
    return Poset(tuple(names.values()), frozenset((names[a], names[b]) for a in sets for b in sets if a <= b)), sets


def validate_poset(elements: Iterable[str], matrix: Iterable[Iterable[bool]]) -> Poset:
    """Check the three order axioms on a boolean matrix and build the Poset.

    Raises NotReflexive / NotAntisymmetric / NotTransitive with the first
    witness found (scanning in element order).
    """
    els = tuple(elements)
    rows = [list(r) for r in matrix]
    if len(rows) != len(els) or any(len(r) != len(els) for r in rows):
        raise UnknownElementId("<matrix shape does not match element list>")
    return _order_from_masks(els, [sum(1 << j for j, v in enumerate(r) if v) for r in rows])


def _order_from_masks(els: tuple[str, ...], rows: list[int]) -> Poset:
    """validate_poset on row masks: bit j of rows[i] means els[i] <= els[j]."""
    n = len(els)
    for i in range(n):
        if not rows[i] >> i & 1:
            raise NotReflexive(els[i])
    cols = [0] * n
    for i in range(n):
        for j in _bits(rows[i]):
            cols[j] |= 1 << i
    for i in range(n):
        mutual = rows[i] & cols[i] & ~(1 << i)
        if mutual:
            raise NotAntisymmetric(els[i], els[_bits(mutual)[0]])
    for i in range(n):
        for j in _bits(rows[i]):
            missing = rows[j] & ~rows[i]
            if missing:
                raise NotTransitive(els[i], els[j], els[_bits(missing)[0]])
    return Poset(els, frozenset((els[i], els[j]) for i in range(n) for j in _bits(rows[i])))


def _bits(mask: int) -> list[int]:
    """The positions of a mask's set bits, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _bit_of(names: Iterable[str]) -> dict[str, int]:
    """Each name's bit, 1 << its position."""
    return {x: 1 << i for i, x in enumerate(names)}


def _mask(bit: Mapping[str, int], names: Iterable[str]) -> int:
    """The names' bits, ORed."""
    return sum(map(bit.__getitem__, names))


def _uncovered(mask: int, reach: Sequence[int]) -> int:
    """The members of a mask that no other member reaches: with up-set
    masks its minimal members, with down-set masks its maximal ones."""
    reached = 0
    for i in _bits(mask):
        reached |= reach[i] & ~(1 << i)
    return mask & ~reached


def poset_from_pairs(elements: Iterable[str], pairs: Iterable[tuple[str, str]], *, close: bool = False) -> Poset:
    """Build a Poset from related pairs.

    With close=True the pairs are treated as generators: reflexive pairs are
    added and the transitive closure is taken before validation (handy for
    cover-style input).  Without it, the pairs must already be a full order.
    """
    els = tuple(elements)
    idx = {e: i for i, e in enumerate(els)}
    rows = [0] * len(els)
    for (x, y) in pairs:
        if x not in idx or y not in idx:
            raise UnknownElementId(x if x not in idx else y)
        rows[idx[x]] |= 1 << idx[y]
    if close:
        rows = [r | 1 << i for i, r in enumerate(rows)]
        for k in range(len(rows)):
            for i, ri in enumerate(rows):
                if ri >> k & 1:
                    rows[i] = ri | rows[k]
    return _order_from_masks(els, rows)


@dataclass(frozen=True)
class Lattice:
    """A poset whose every pair has a join and a meet; built through
    lattice_from_order.  Both are read off the poset's masks: x v y is the
    element whose up-set mask is up[x] & up[y], and meets are dual."""

    poset: Poset

    @property
    def elements(self) -> tuple[str, ...]:
        return self.poset.elements

    def leq(self, x: str, y: str) -> bool:
        return self.poset.leq(x, y)

    def lt(self, x: str, y: str) -> bool:
        return self.poset.lt(x, y)

    @cached_property
    def _by_up(self) -> dict[int, str]:
        return dict(zip(self.poset.masks[0], self.elements))

    @cached_property
    def _by_down(self) -> dict[int, str]:
        return dict(zip(self.poset.masks[1], self.elements))

    def join(self, x: str, y: str) -> str:
        up, idx = self.poset.masks[0], self.poset.index
        return self._by_up[up[idx[x]] & up[idx[y]]]

    def meet(self, x: str, y: str) -> str:
        down, idx = self.poset.masks[1], self.poset.index
        return self._by_down[down[idx[x]] & down[idx[y]]]

    @property
    def bottom(self) -> str:
        return self._by_up[(1 << len(self.elements)) - 1]

    @property
    def top(self) -> str:
        return self._by_down[(1 << len(self.elements)) - 1]


def lattice_from_order(poset: Poset) -> Lattice:
    """The lattice of a poset, after checking every pair in element order
    for a join and a meet.

    The upper bounds of x and y form the up-set mask up[x] & up[y], and
    their least element, when there is one, is the one z with up[z] equal
    to it; meets are dual.  The first pair without one raises NotALattice
    with its minimal upper (maximal lower) bounds, computed only then.
    """
    els = poset.elements
    if not els:
        raise InputError("a lattice needs at least one element (its bottom)")
    lat = Lattice(poset)
    up, down = poset.masks
    for x, ux, dx in zip(els, up, down):
        for y, uy, dy in zip(els, up, down):
            if ux & uy not in lat._by_up:
                raise NotALattice(x, y, poset._members(_uncovered(ux & uy, up)), kind="upper")
            if dx & dy not in lat._by_down:
                raise NotALattice(x, y, poset._members(_uncovered(dx & dy, down)), kind="lower")
    return lat


def lattice_from_tables(
    elements: Iterable[str],
    join_rows: Iterable[Iterable[str]],
    meet_rows: Iterable[Iterable[str]],
) -> Lattice:
    """Build a lattice from join/meet tables, deriving and cross-checking the order.

    The order is read off the join table (x <= y iff x v y = y); the result
    must reproduce both tables when joins/meets are recomputed from it.
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
    lower_covers = Counter(y for _, y in poset.covers)
    xj = tuple(e for e in poset.elements if lower_covers[e] == 1)
    return xj, poset.restrict(xj)


def canonical_partial_rep(lattice: Lattice) -> dict[str, frozenset[str]]:
    """Map each element x to the join-irreducibles weakly below x."""
    poset = lattice.poset
    xj, _ = join_irreducibles(lattice)
    irreducible = sum(1 << poset.index[j] for j in xj)
    return {x: frozenset(poset._members(d & irreducible)) for x, d in zip(poset.elements, poset.masks[1])}


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
