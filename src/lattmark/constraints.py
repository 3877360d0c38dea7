"""Join constraints over a representation poset.

A join constraint (alpha, beta) reads "whenever alpha holds of a set T, beta
must hold too": alpha is a conjunction of disjunction groups (CNF over set
membership), beta a plain conjunction.  Boolean conventions throughout:
an empty conjunction evaluates to 1, an empty disjunction to 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import AlphaArgumentsComparable, UnknownElementId
from .orders import Lattice, Poset, canonical_partial_rep, join_irreducibles, set_key


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
    empty conjunction).  Exact duplicates are dropped.
    """
    rep = canonical_partial_rep(lattice)
    _, xj_poset = join_irreducibles(lattice)
    out: list[JoinConstraint] = []
    seen = set()
    for x in lattice.elements:
        for y in lattice.elements:
            union = rep[x] | rep[y]
            x_beta = rep[lattice.join(x, y)]
            if x_beta == union:
                continue
            x_alpha = xj_poset.maximal_of(union)
            jc = JoinConstraint.make([{z} for z in sorted(x_alpha)], x_beta)
            if jc.key() not in seen:
                seen.add(jc.key())
                out.append(jc)
    return tuple(sorted(out, key=JoinConstraint.key))


def filter_lower_sets(family: Sequence[frozenset[str]], omega: Iterable[JoinConstraint]) -> list[frozenset[str]]:
    """Members of the family satisfying every constraint, order preserved."""
    cs = tuple(omega)
    return [t for t in family if all(c.holds(t) for c in cs)]
