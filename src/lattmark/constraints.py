"""Join constraints over a representation poset, and their complements.

A join constraint (alpha, beta) reads "whenever alpha holds of a set T, beta
must hold too": alpha is a conjunction of disjunction groups (CNF over set
membership), beta a plain conjunction.  Boolean conventions throughout:
an empty conjunction evaluates to 1, an empty disjunction to 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import AlphaArgumentsComparable, UnknownElementId
from .orders import Lattice, Poset, canonical_partial_rep, set_key


def _canon_groups(groups: Iterable[Iterable[str]]) -> tuple[frozenset[str], ...]:
    gs = {frozenset(g) for g in groups}
    return tuple(sorted(gs, key=set_key))


@dataclass(frozen=True)
class JoinConstraint:
    """alpha_groups: CNF over membership indicators; beta_ids: a conjunction."""

    alpha_groups: tuple[frozenset[str], ...]
    beta_ids: frozenset[str]

    @staticmethod
    def make(alpha_groups: Iterable[Iterable[str]], beta_ids: Iterable[str]) -> "JoinConstraint":
        return JoinConstraint(_canon_groups(alpha_groups), frozenset(beta_ids))

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

    def key(self) -> tuple:
        return (tuple(set_key(g) for g in self.alpha_groups), set_key(self.beta_ids))


@dataclass(frozen=True)
class ComplementJoinConstraint:
    """De Morgan dual of a JoinConstraint: beta^c a disjunction, alpha^c a DNF."""

    beta_c_ids: frozenset[str]
    alpha_c_groups: tuple[frozenset[str], ...]

    @staticmethod
    def make(beta_c_ids: Iterable[str], alpha_c_groups: Iterable[Iterable[str]]) -> "ComplementJoinConstraint":
        return ComplementJoinConstraint(frozenset(beta_c_ids), _canon_groups(alpha_c_groups))

    def beta_c(self, members: frozenset[str]) -> bool:
        return bool(self.beta_c_ids & members)

    def alpha_c(self, members: frozenset[str]) -> bool:
        return any(g <= members for g in self.alpha_c_groups)


def eval_join_constraint(jc: JoinConstraint, members: Iterable[str], universe: Iterable[str] | None = None) -> tuple[bool, bool, bool]:
    """Return (alpha_bit, beta_bit, satisfied) for the given set.

    If a universe is supplied, every member and argument id must belong to it.
    """
    t = frozenset(members)
    if universe is not None:
        known = frozenset(universe)
        for e in (t | jc.alpha_ids | jc.beta_ids):
            if e not in known:
                raise UnknownElementId(e)
    a = jc.alpha(t)
    b = jc.beta(t)
    return a, b, (not a) or b


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
    """One constraint per ordered element pair, pruning joins back to the lattice.

    For the pair (x, y): alpha's arguments are the maximal elements of
    rep(x) | rep(y) in the join-irreducible poset (singleton groups), beta's
    are rep(x v y).  Exact duplicates are dropped; the bottom/bottom pair,
    whose alpha would be an empty conjunction, is skipped.
    """
    rep = canonical_partial_rep(lattice)
    from .orders import join_irreducibles

    _, xj_poset = join_irreducibles(lattice)
    out: list[JoinConstraint] = []
    seen = set()
    for x in lattice.elements:
        for y in lattice.elements:
            union = rep[x] | rep[y]
            if not union:
                continue
            x_alpha = xj_poset.maximal_of(union)
            x_beta = rep[lattice.join(x, y)]
            jc = JoinConstraint.make([{z} for z in sorted(x_alpha)], x_beta)
            if jc.key() not in seen:
                seen.add(jc.key())
                out.append(jc)
    return tuple(sorted(out, key=JoinConstraint.key))


def filter_lower_sets(family: Sequence[frozenset[str]], omega: Iterable[JoinConstraint]) -> list[frozenset[str]]:
    """Members of the family satisfying every constraint, order preserved."""
    cs = tuple(omega)
    return [t for t in family if all(eval_join_constraint(c, t)[2] for c in cs)]


def complement(jc: JoinConstraint) -> ComplementJoinConstraint:
    """Structural De Morgan dual; complement(complement(.)) is the identity."""
    return ComplementJoinConstraint(jc.beta_ids, jc.alpha_groups)


def uncomplement(cjc: ComplementJoinConstraint) -> JoinConstraint:
    return JoinConstraint(cjc.alpha_c_groups, cjc.beta_c_ids)


def satisfies_complement(members: Iterable[str], cjc: ComplementJoinConstraint) -> bool:
    t = frozenset(members)
    return (not cjc.beta_c(t)) or cjc.alpha_c(t)
