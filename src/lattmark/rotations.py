"""Rotation structure of one-to-one markets and the antichain gadget bank.

A rotation is the minimal difference between a stable matching and an
immediate successor.  For one-to-one markets the lower closed sets of the
rotation poset represent the whole stable matching lattice; the gadget bank
realizes any trivially ordered set as such a rotation poset, two firms and
two workers per element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import (
    DuplicateId,
    InputError,
    NonLatticeStructure,
    NotLowerClosed,
    NotRepresentable,
)
from .markets import (
    DEFAULT_NODE_BOUND,
    Matching,
    MatchingMarket,
    PreferenceList,
    stable_lattice,
)
from .orders import Poset, join_irreducibles

Pair = tuple[str, str]


@dataclass(frozen=True)
class Rotation:
    id: str
    plus: frozenset[Pair]
    minus: frozenset[Pair]

    def __post_init__(self):
        if not self.plus or not self.minus:
            raise InputError(f"rotation {self.id!r} must have nonempty plus and minus sets")
        if self.plus & self.minus:
            raise InputError(f"rotation {self.id!r} has overlapping plus and minus sets")

    def firms_minus(self) -> frozenset[str]:
        return frozenset(f for f, _ in self.minus)

    def workers_plus(self) -> frozenset[str]:
        return frozenset(w for _, w in self.plus)


@dataclass(frozen=True)
class RotationPoset:
    poset: Poset
    rotations: Mapping[str, Rotation]
    worker_optimal: Matching

    def ids(self) -> tuple[str, ...]:
        return self.poset.elements


@dataclass(frozen=True)
class RealizedBase:
    """A one-to-one market with its rotation poset; the poset it realizes is
    the rotation poset itself, each element its own rotation id."""

    market: MatchingMarket
    rotation_poset: RotationPoset


def gadget_agents(element: str) -> tuple[str, str, str, str]:
    """Firm and worker ids of the 4-agent swap gadget for one element."""
    return (f"{element}.f1", f"{element}.f2", f"{element}.w1", f"{element}.w2")


def _gadget_bank(ids: Iterable[str]) -> tuple[dict, dict, frozenset[Pair]]:
    """The gadget bank of ids as plain data: each agent's preference-list
    entries, its two partners best first; each id's rotation as (id, plus,
    minus); and the worker-optimal pairs, every firm with its second partner."""
    entries, rotations = {}, {}
    for i in ids:
        f1, f2, w1, w2 = agents = gadget_agents(i)
        F1, F2, W1, W2 = (frozenset([a]) for a in agents)
        entries.update({f1: (W2, W1), f2: (W1, W2), w1: (F1, F2), w2: (F2, F1)})
        rotations[i] = (i, frozenset({(f1, w2), (f2, w1)}), frozenset({(f1, w1), (f2, w2)}))
    return entries, rotations, frozenset().union(*(minus for _, _, minus in rotations.values()))


def antichain_base(ids: Sequence[str]) -> RealizedBase:
    """The gadget bank: one swap gadget per id, two stable matchings each,
    one rotation each, rotations mutually incomparable, rotation ids equal
    to the input ids.  No ids give the empty market, whose one stable
    matching is empty."""
    ids = list(ids)
    if len(set(ids)) != len(ids):
        raise DuplicateId(sorted(i for i in ids if ids.count(i) > 1)[0])
    entries, rotations, mu = _gadget_bank(ids)
    choice = {a: PreferenceList(e) for a, e in entries.items()}
    market = MatchingMarket(tuple(sorted(f for f, _ in mu)), tuple(sorted(w for _, w in mu)), choice)
    poset = Poset(tuple(sorted(ids)), frozenset((i, i) for i in ids))
    rp = RotationPoset(poset, {i: Rotation(*r) for i, r in rotations.items()}, Matching(mu))
    return RealizedBase(market, rp)


def is_gadget_bank(base: RealizedBase) -> bool:
    """Whether base == antichain_base(its rotation ids), decided on base's
    own fields against the bank's plain data, without building the bank."""
    rp, market = base.rotation_poset, base.market
    ids = rp.ids()
    entries, rotations, mu = _gadget_bank(ids)
    return (
        list(ids) == sorted(ids)
        and rp.poset.relation == {(i, i) for i in ids}
        and {i: (r.id, r.plus, r.minus) for i, r in rp.rotations.items()} == rotations
        and rp.worker_optimal.pairs == mu
        and market.firms == tuple(sorted(f for f, _ in mu))
        and market.workers == tuple(sorted(w for _, w in mu))
        and market.choice.keys() == entries.keys()
        and all(type(s) is PreferenceList and s.entries == entries[a] for a, s in market.choice.items())
    )


def extract_rotations(market: MatchingMarket, node_bound: int = DEFAULT_NODE_BOUND) -> RotationPoset:
    """Recover the rotation poset of a one-to-one market by enumeration.

    The rotations are the join-irreducibles of the stable matching lattice
    (Birkhoff): each join-irreducible j has one lower cover c, its rotation
    takes at[c] to at[j], and the rotations are ordered as their
    join-irreducibles are.  Every cover of the lattice must carry one of
    these rotations, and no two join-irreducibles the same one.
    """
    lat, ms = stable_lattice(market, node_bound=node_bound)
    for mu in ms:
        if any(len(mu.workers_of(f)) > 1 for f in market.firms) or any(
            len(mu.firms_of(w)) > 1 for w in market.workers
        ):
            raise InputError("extract_rotations requires a one-to-one market")

    at = dict(zip(lat.elements, ms))
    step = {(x, y): (at[x].pairs - at[y].pairs, at[y].pairs - at[x].pairs) for x, y in lat.poset.covers}
    xj, xj_poset = join_irreducibles(lat)
    irreducible = set(xj)
    of = {y: minus_plus for (_, y), minus_plus in step.items() if y in irreducible}
    labels = set(of.values())
    if len(labels) < len(of) or not labels.issuperset(step.values()):
        raise NonLatticeStructure("the lattice's covers do not carry one rotation per join-irreducible")

    ordered = sorted(of, key=lambda j: [sorted(pairs) for pairs in of[j]])
    name = {j: f"r{k + 1}" for k, j in enumerate(ordered)}
    rotations = {name[j]: Rotation(name[j], plus=of[j][1], minus=of[j][0]) for j in ordered}
    rel = frozenset((name[a], name[b]) for a, b in xj_poset.relation)
    rp = RotationPoset(Poset(tuple(sorted(rotations)), rel), rotations, at[lat.bottom])
    for mu in ms:
        matching_to_rotations(rp, mu)  # raises NotRepresentable on mismatch
    return rp


def matching_to_rotations(rp: RotationPoset, mu: Matching) -> frozenset[str]:
    """The unique lower closed rotation set that rebuilds mu from the
    worker-optimal matching; verified by reconstruction.

    Each firm walks from its worker-optimal partner to its partner in mu,
    each step taking the rotation whose minus pairs hold the firm's current
    pair; the union of the walks is the representation.  A walk is tracked
    per firm, since one rotation moves several firms.
    """
    removed_by = {pair: rid for rid, rot in rp.rotations.items() for pair in rot.minus}
    occurred: set[str] = set()
    for f in sorted({f for f, _ in rp.worker_optimal.pairs | mu.pairs}):
        current, target = rp.worker_optimal.workers_of(f), mu.workers_of(f)
        walked: set[str] = set()
        while current != target:
            rid = next((removed_by[(f, w)] for w in sorted(current) if (f, w) in removed_by), None)
            if rid is None or rid in walked:
                raise NotRepresentable(f"firm {f!r} holds {sorted(target)}, reachable by no rotation prefix")
            walked.add(rid)
            rot = rp.rotations[rid]
            current = (current - {w for ff, w in rot.minus if ff == f}) | {w for ff, w in rot.plus if ff == f}
        occurred |= walked

    r = frozenset(occurred)
    try:
        rebuilt = rotations_to_matching(rp, r)
    except NotLowerClosed as exc:
        raise NotRepresentable(f"derived rotation set {sorted(r)} is not lower closed: {exc}") from exc
    if rebuilt.pairs != mu.pairs:
        raise NotRepresentable(
            f"rotation set {sorted(r)} rebuilds {sorted(rebuilt.pairs)}, not {sorted(mu.pairs)}"
        )
    return r


def rotations_to_matching(rp: RotationPoset, rotation_ids: Iterable[str]) -> Matching:
    """Apply a lower closed rotation set to the worker-optimal matching;
    NotLowerClosed names the first missing predecessor in element order."""
    r = frozenset(rotation_ids)
    els, idx, down = rp.poset.elements, rp.poset.index, rp.poset.masks[1]
    held = sum(1 << idx[rid] for rid in r if rid in idx)
    for rid in sorted(r):
        if rid not in idx:
            raise NotLowerClosed(rid, "<unknown rotation>")
        missing = down[idx[rid]] & ~held
        if missing:
            raise NotLowerClosed(rid, els[(missing & -missing).bit_length() - 1])
    plus: set[Pair] = set()
    minus: set[Pair] = set()
    for rid in r:
        plus |= rp.rotations[rid].plus
        minus |= rp.rotations[rid].minus
    return Matching(frozenset((rp.worker_optimal.pairs | plus) - minus))

