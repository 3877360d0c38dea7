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
    _Masks,
    stable_lattice,
)
from .orders import Poset, _bits, join_irreducibles

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
    encoded = [market.kernel.encode(mu) for mu in ms]
    if any(m & m - 1 for sides in encoded for side in sides for m in side):
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
    walk = _RotationMasks(rp, market.kernel)
    for _, hold in encoded:
        walk.rotation_set(hold)  # raises NotRepresentable on mismatch
    return rp


def matching_to_rotations(rp: RotationPoset, mu: Matching) -> frozenset[str]:
    """The unique lower closed rotation set that rebuilds mu from the
    worker-optimal matching (_RotationMasks.rotation_set)."""
    masks = _RotationMasks.on_names(rp, mu.pairs)
    return masks.rotation_set(masks.kernel.encode(mu)[1])


def rotations_to_matching(rp: RotationPoset, rotation_ids: Iterable[str]) -> Matching:
    """Apply a lower closed rotation set to the worker-optimal matching (_RotationMasks.apply)."""
    masks = _RotationMasks.on_names(rp)
    return masks.kernel.decode(masks.apply(frozenset(rotation_ids)))


class _RotationMasks:
    """A rotation poset on a market kernel's masks: start[i] is firm i's
    worker mask in the worker-optimal matching; moves[k] maps each firm
    that rotation k (its position in rp.poset.elements) moves to the firm's
    (minus, plus) worker masks; removed_by[i] maps each worker position to
    the last rotation in rp.rotations whose minus pairs hold it with firm i.

    The moves are read off each rotation's minus and plus pairs through the
    kernel's bit maps, one lookup a pair; a pair naming an agent the market
    does not declare on that side raises UnknownPartnerId, as encode."""

    def __init__(self, rp: RotationPoset, kernel: _Masks):
        self.rp, self.kernel, self.start = rp, kernel, kernel.encode(rp.worker_optimal)[1]
        self.moves: list[dict[int, tuple[int, int]]] = [{} for _ in rp.poset.elements]
        self.removed_by: list[dict[int, int]] = [{} for _ in self.start]
        firm_bit, worker_bit = kernel.firm_bit, kernel.worker_bit
        for rid, rot in rp.rotations.items():
            k = rp.poset.index[rid]
            minus: dict[int, int] = {}
            plus: dict[int, int] = {}
            try:
                for masks, pairs in ((minus, rot.minus), (plus, rot.plus)):
                    for f, w in pairs:
                        i = firm_bit[f].bit_length() - 1
                        masks[i] = masks.get(i, 0) | worker_bit[w]
            except KeyError:
                raise kernel.unknown_pair(f, w) from None
            self.moves[k] = {i: (minus.get(i, 0), plus.get(i, 0)) for i in minus.keys() | plus.keys()}
            for i, m in minus.items():
                self.removed_by[i].update(dict.fromkeys(_bits(m), k))

    @staticmethod
    def on_names(rp: RotationPoset, pairs: Iterable[Pair] = ()) -> "_RotationMasks":
        """rp on the kernel of a market of the sorted firms and workers in
        its pairs and the given ones, so bit order is name order."""
        pairs = {*pairs, *rp.worker_optimal.pairs, *(p for rot in rp.rotations.values() for p in rot.minus | rot.plus)}
        firms, workers = (tuple(sorted({pair[k] for pair in pairs})) for k in (0, 1))
        return _RotationMasks(rp, MatchingMarket(firms, workers, {}).kernel)

    def apply(self, r: frozenset[str]) -> list[int]:
        """The hold masks of the matching the lower closed rotation set r
        rebuilds from the worker-optimal one; NotLowerClosed names the first
        missing predecessor in element order."""
        els, idx, down = self.rp.poset.elements, self.rp.poset.index, self.rp.poset.masks[1]
        held = sum(1 << idx[rid] for rid in r if rid in idx)
        for rid in sorted(r):
            if rid not in idx:
                raise NotLowerClosed(rid, "<unknown rotation>")
            missing = down[idx[rid]] & ~held
            if missing:
                raise NotLowerClosed(rid, els[(missing & -missing).bit_length() - 1])
        minus, plus = [0] * len(self.start), [0] * len(self.start)
        for k in _bits(held):
            for i, (m, p) in self.moves[k].items():
                minus[i] |= m
                plus[i] |= p
        return [(s | p) & ~m for s, m, p in zip(self.start, minus, plus)]

    def rotation_set(self, hold: Sequence[int]) -> frozenset[str]:
        """The rotation set of the matching in which firm i holds hold[i],
        verified by reconstruction: the union of one walk per firm from its
        worker-optimal mask to hold[i], each step taking the last rotation in
        rp.rotations whose minus pairs hold the firm's lowest current worker."""
        occurred = 0
        for i, (current, target) in enumerate(zip(self.start, hold)):
            walked, removed_by = 0, self.removed_by[i]
            while current != target:
                k = next((removed_by[j] for j in _bits(current) if j in removed_by), None)
                if k is None or walked >> k & 1:
                    held = sorted(self.kernel.workers[j] for j in _bits(target))
                    firm = self.kernel.firms[i]
                    raise NotRepresentable(f"firm {firm!r} holds {held}, reachable by no rotation prefix")
                walked |= 1 << k
                minus, plus = self.moves[k][i]
                current = current & ~minus | plus
            occurred |= walked
        r = frozenset(self.rp.poset.elements[k] for k in _bits(occurred))
        try:
            rebuilt = self.apply(r)
        except NotLowerClosed as exc:
            raise NotRepresentable(f"derived rotation set {sorted(r)} is not lower closed: {exc}") from exc
        if rebuilt != list(hold):
            rebuilt_pairs, pairs = (sorted(self.kernel.decode(h).pairs) for h in (rebuilt, hold))
            raise NotRepresentable(f"rotation set {sorted(r)} rebuilds {rebuilt_pairs}, not {pairs}")
        return r
