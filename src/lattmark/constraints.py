"""Join constraints over a representation poset.

A join constraint (alpha, beta) reads "whenever alpha holds of a set T, beta
must hold too": alpha is a conjunction of disjunction groups (CNF over set
membership), beta a plain conjunction.  Boolean conventions throughout:
an empty conjunction evaluates to 1, an empty disjunction to 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import AlphaArgumentsComparable, SearchBoundExceeded, UnknownElementId
from .markets import DEFAULT_NODE_BOUND
from .orders import Lattice, Poset, _bit_of, _bits, _mask, _uncovered, join_irreducibles, set_key


@dataclass(frozen=True)
class JoinConstraint:
    """alpha_groups: CNF over membership indicators; beta_ids: a conjunction."""

    alpha_groups: tuple[frozenset[str], ...]
    beta_ids: frozenset[str]

    @staticmethod
    def make(alpha_groups: Iterable[Iterable[str]], beta_ids: Iterable[str]) -> "JoinConstraint":
        groups = {frozenset(g) for g in alpha_groups}
        return JoinConstraint(tuple(sorted(groups, key=set_key)), frozenset(beta_ids))

    @property
    def alpha_ids(self) -> frozenset[str]:
        out: set[str] = set()
        for g in self.alpha_groups:
            out |= g
        return frozenset(out)

    def alpha(self, members: frozenset[str]) -> bool:
        return all(bool(g & members) for g in self.alpha_groups)

    def beta(self, members: frozenset[str]) -> bool:
        return self.beta_ids <= members

    def holds(self, members: frozenset[str]) -> bool:
        """Whether the set satisfies the constraint: alpha implies beta."""
        return not self.alpha(members) or self.beta(members)

    def key(self) -> tuple:
        return (tuple(set_key(g) for g in self.alpha_groups), set_key(self.beta_ids))


def validate_join_constraint(jc: JoinConstraint, rep_poset: Poset) -> None:
    """The union of alpha's arguments must be an antichain of the representation poset."""
    args = sorted(jc.alpha_ids)
    for a in args:
        if not rep_poset.has(a):
            raise UnknownElementId(a)
    for b in sorted(jc.beta_ids):
        if not rep_poset.has(b):
            raise UnknownElementId(b)
    for i, x in enumerate(args):
        for y in args[i + 1:]:
            if rep_poset.lt(x, y) or rep_poset.lt(y, x):
                raise AlphaArgumentsComparable(x, y)


def constraints_from_lattice(lattice: Lattice) -> tuple[JoinConstraint, ...]:
    """One constraint per ordered element pair whose join adds a
    join-irreducible, pruning joins back to the lattice.

    For the pair (x, y): alpha's arguments are the maximal elements of
    rep(x) | rep(y) in the join-irreducible poset (singleton groups), beta's
    are rep(x v y).  A pair with rep(x v y) == rep(x) | rep(y) is skipped: its
    beta lies in the down-set of its alpha, so the constraint holds on every
    lower set (this covers the bottom/bottom pair, whose alpha would be an
    empty conjunction).  Exact duplicates are dropped.  All of it runs on
    the order masks (rep(x) is x's down-set mask cut to the
    join-irreducibles); ids are decoded only for the constraints returned.
    """
    poset = lattice.poset
    els, (up, down) = poset.elements, poset.masks
    irreducible = sum(1 << poset.index[j] for j in join_irreducibles(lattice)[0])
    rep = [d & irreducible for d in down]
    rep_of_up = dict(zip(up, rep))
    found = {(_uncovered(rx | ry, down), rep_of_up[ux & uy])
             for ux, rx in zip(up, rep) for uy, ry in zip(up, rep) if rep_of_up[ux & uy] != rx | ry}
    out = [JoinConstraint.make([{els[i]} for i in _bits(alpha)], [els[i] for i in _bits(beta)]) for alpha, beta in found]
    return tuple(sorted(out, key=JoinConstraint.key))


def decision_order(poset: Poset, constraints: Iterable[JoinConstraint]) -> tuple[str, ...]:
    """The poset's elements in a linear extension that also puts the beta
    ids of each single-premise constraint (one alpha group of one id) before
    its alpha id where it can, ties broken by id.  An element left on a cycle
    of such constraints goes at the smallest id whose predecessors in the
    poset are all placed."""
    els, idx = poset.elements, poset.index
    below = [d & ~(1 << i) for i, d in enumerate(poset.masks[1])]
    before = list(below)
    for jc in constraints:
        groups = jc.alpha_groups
        if len(groups) == 1 and len(groups[0]) == 1:
            (alpha,) = groups[0]
            before[idx[alpha]] |= sum(1 << idx[b] for b in jc.beta_ids - {alpha})
    order: list[int] = []
    placed = 0
    by_id = sorted(range(len(els)), key=els.__getitem__)
    while len(order) < len(els):
        left = [i for i in by_id if not placed >> i & 1]
        ready = [i for i in left if not before[i] & ~placed] or [i for i in left if not below[i] & ~placed]
        order.append(ready[0])
        placed |= 1 << ready[0]
    return tuple(els[i] for i in order)


def lower_sets_satisfying(
    poset: Poset, constraints: Iterable[JoinConstraint], node_bound: int = DEFAULT_NODE_BOUND
) -> list[frozenset[str]]:
    """The lower sets of the poset that satisfy every constraint, in set_key
    order.

    A depth-first search decides each element in or out along
    decision_order, on int masks.  A branch dies as soon as something is
    decided false: an element in with an element below it out, or a
    constraint whose every alpha group has an id in and some beta id out.
    A constraint can only turn false when one of its ids is decided, so it
    is tested then: on an alpha id decided in, or a beta id decided out.
    Each decision counts one node; node number node_bound + 1 raises
    SearchBoundExceeded.  An id a constraint names outside the poset raises
    UnknownElementId.
    """
    cs = tuple(constraints)
    for jc in cs:
        for x in sorted(jc.alpha_ids | jc.beta_ids):
            if not poset.has(x):
                raise UnknownElementId(x)
    order = decision_order(poset, cs)
    bit, down = _bit_of(order), poset.masks[1]
    below = [_mask(bit, poset._members(down[poset.index[x]])) & ~(1 << i) for i, x in enumerate(order)]
    on_in: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in order]
    on_out: list[list[tuple[int, ...]]] = [[] for _ in order]
    for jc in cs:
        groups, beta = tuple(_mask(bit, g) for g in jc.alpha_groups), _mask(bit, jc.beta_ids)
        for i in _bits(_mask(bit, jc.alpha_ids)):
            on_in[i].append((groups, beta))
        for i in _bits(beta):
            on_out[i].append(groups)

    n, nodes, found = len(order), 0, []
    stack = [(0, 0)]
    while stack:
        i, inn = stack.pop()
        if i == n:
            found.append(inn)
            continue
        out, now = ((1 << i) - 1) & ~inn, inn | 1 << i
        for decide_in in (False, True):
            nodes += 1
            if nodes > node_bound:
                raise SearchBoundExceeded(nodes, node_bound, "lower-set")
            if decide_in:
                if below[i] & out or any(beta & out and all(g & now for g in groups) for groups, beta in on_in[i]):
                    continue
                stack.append((i + 1, now))
            elif not any(all(g & inn for g in groups) for groups in on_out[i]):
                stack.append((i + 1, inn))
    return sorted((frozenset(x for i, x in enumerate(order) if m >> i & 1) for m in found), key=set_key)
