"""Matching markets under path-independent choice functions.

Four data-driven choice-function families are supported: explicit preference
lists, triggered choice (a watch set plus a trigger firm gated by a boolean
function of the offer), if-else choice (a priority worker, else a fallback
set), and regular choice (ordered disjoint tiers plus conditional auxiliary
additions).  On top of them: stability checking, deferred acceptance, the
firm-side comparison order over stable matchings, and an exhaustive
stable-matching enumeration oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import combinations
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    InputError,
    NonLatticeStructure,
    NotALattice,
    SearchBoundExceeded,
    SpecError,
    UnknownPartnerId,
)
from .orders import Lattice, Poset, _bit_of, _bits, _mask, lattice_from_order, set_key

DEFAULT_NODE_BOUND = 10 ** 9


def _every_subset(universe: frozenset[str], limit: int) -> Iterator[frozenset[str]]:
    """Every subset of a universe of at most limit partners, decoded from
    the masks in ascending order; a larger one raises SearchBoundExceeded
    naming its size and the limit."""
    if len(universe) > limit:
        raise SearchBoundExceeded.candidate_scan(len(universe), limit)
    items = sorted(universe)
    return (frozenset(items[i] for i in _bits(m)) for m in range(1 << len(items)))


# Each family states its choice once, on int masks (on_masks: given each
# partner's bit, a function from offer mask to choice mask), names the
# partners that can appear in or influence a choice (universe), and lists
# the partner sets its agent can be assigned in enumerate_stable
# (candidates).  _Family compiles the choice once on the sorted universe,
# for choose().
class _Family:
    @cached_property
    def _on_universe(self) -> tuple[list[str], dict[str, int], Callable[[int], int]]:
        names = sorted(self.universe)
        bit = _bit_of(names)
        return names, bit, self.on_masks(bit)


@dataclass(frozen=True)
class PreferenceList(_Family):
    """Strictly ordered acceptable partner sets, best first; chooses the first
    entry fully contained in the offer."""

    entries: tuple[frozenset[str], ...]

    def __post_init__(self):
        if any(not e for e in self.entries):
            raise SpecError("preference list entries must be nonempty (omit the empty set)")
        if len(set(self.entries)) != len(self.entries):
            raise SpecError("preference list entries must be pairwise distinct")

    @staticmethod
    def of(*entries) -> "PreferenceList":
        return PreferenceList(tuple(frozenset([e]) if isinstance(e, str) else frozenset(e) for e in entries))

    def on_masks(self, bit: Mapping[str, int]) -> Callable[[int], int]:
        entries = [_mask(bit, e) for e in self.entries]

        def chosen(offer: int) -> int:
            for e in entries:
                if not e & ~offer:
                    return e
            return 0
        return chosen

    @cached_property
    def universe(self) -> frozenset[str]:
        return frozenset().union(*self.entries)

    def candidates(self) -> tuple[frozenset[str], ...]:
        return (*self.entries, frozenset())


@dataclass(frozen=True)
class Triggered(_Family):
    """Every watched firm offered, plus the trigger firm when the trigger
    condition fires: a CNF over rotation ids (alpha_groups), where a
    rotation counts as hidden when its firm block is disjoint from the
    offer."""

    watch: frozenset[str]
    trigger: str
    alpha_groups: tuple[frozenset[str], ...]
    blocks: tuple[tuple[str, frozenset[str]], ...]

    def __post_init__(self):
        unblocked = frozenset().union(*self.alpha_groups) - {r for r, _ in self.blocks}
        if unblocked:
            raise SpecError(f"trigger alpha arguments {sorted(unblocked)} lack firm blocks")
        outside = frozenset().union(*(fs for _, fs in self.blocks)) - self.universe
        if outside:
            raise SpecError(f"trigger blocks name firms {sorted(outside)} outside the watch set and trigger")

    def on_masks(self, bit: Mapping[str, int]) -> Callable[[int], int]:
        watch, trigger = _mask(bit, self.watch), bit[self.trigger]
        # a group is met when one of its rotations' blocks misses the offer
        groups = [[_mask(bit, fs) for r, fs in self.blocks if r in g] for g in self.alpha_groups]

        def chosen(offer: int) -> int:
            if offer & trigger and all(any(not b & offer for b in g) for g in groups):
                return offer & watch | trigger
            return offer & watch
        return chosen

    @cached_property
    def universe(self) -> frozenset[str]:
        return self.watch | {self.trigger}

    def candidates(self) -> Iterable[frozenset[str]]:
        return _every_subset(self.universe, 25)


@dataclass(frozen=True)
class IfElse(_Family):
    """The priority worker alone when offered, else every offered fallback."""

    priority: str
    else_set: frozenset[str]

    def on_masks(self, bit: Mapping[str, int]) -> Callable[[int], int]:
        priority, fallback = bit[self.priority], _mask(bit, self.else_set)
        return lambda offer: priority if offer & priority else offer & fallback

    @cached_property
    def universe(self) -> frozenset[str]:
        return self.else_set | {self.priority}

    def candidates(self) -> Iterable[frozenset[str]]:
        return _every_subset(self.universe, 16)


@dataclass(frozen=True)
class Regular(_Family):
    """Ordered disjoint tiers; the best nonempty tier intersection is chosen,
    then auxiliary workers whose anchor tier is not beaten are added."""

    tiers: tuple[frozenset[str], ...]
    aux_pairs: tuple[tuple[str, str], ...]

    def __post_init__(self):
        seen: set[str] = set()
        for t in self.tiers:
            if t & seen:
                raise SpecError(f"regular tiers overlap on {sorted(t & seen)}")
            seen |= t
        seconds = [s for _, s in self.aux_pairs]
        if len(set(seconds)) != len(seconds):
            raise SpecError("each auxiliary worker may appear in at most one aux pair")
        for anchor, _ in self.aux_pairs:
            if anchor not in seen:
                raise SpecError(f"aux pair anchor {anchor!r} lies in no tier")

    def on_masks(self, bit: Mapping[str, int]) -> Callable[[int], int]:
        tiers = [_mask(bit, t) for t in self.tiers]
        # each aux worker's bit, and the tiers that beat its anchor's
        at = {m: i for i, t in enumerate(self.tiers) for m in t}
        aux = [(bit[s], sum(tiers[:at[a]])) for a, s in self.aux_pairs]

        def chosen(offer: int) -> int:
            out = next((offer & t for t in tiers if offer & t), 0)
            for b, beaten_by in aux:
                if offer & b and not offer & beaten_by:
                    out |= b
            return out
        return chosen

    @cached_property
    def universe(self) -> frozenset[str]:
        return frozenset().union(*self.tiers, (s for _, s in self.aux_pairs))

    def candidates(self) -> Iterable[frozenset[str]]:
        return _every_subset(self.universe, 16)


ChoiceSpec = PreferenceList | Triggered | IfElse | Regular

EMPTY_LIST = PreferenceList(())


def choose(spec: ChoiceSpec, offered: Iterable[str]) -> frozenset[str]:
    """Evaluate a choice function on names: the offer is encoded onto the
    spec's sorted universe (partners outside it drop out) and the choice
    decoded; always returns a subset of the offer."""
    names, bit, chosen = spec._on_universe
    offer = 0
    for x in offered:
        offer |= bit.get(x, 0)
    return frozenset(names[i] for i in _bits(chosen(offer)))


def spec_universe(spec: ChoiceSpec) -> frozenset[str]:
    """Partners that can ever appear in the spec's output or influence it."""
    return spec.universe


@dataclass(frozen=True)
class MatchingMarket:
    firms: tuple[str, ...]
    workers: tuple[str, ...]
    choice: Mapping[str, ChoiceSpec] = field(repr=False)

    def __post_init__(self):
        fs, ws = set(self.firms), set(self.workers)
        if len(fs) != len(self.firms) or len(ws) != len(self.workers) or fs & ws:
            raise SpecError("agent ids must be unique and sides disjoint")
        for agent, spec in self.choice.items():
            if agent in fs:
                allowed = ws
            elif agent in ws:
                allowed = fs
            else:
                raise SpecError(f"choice entry for undeclared agent {agent!r}")
            bad = spec_universe(spec) - allowed
            if bad:
                raise SpecError(f"spec of {agent!r} references non-partners {sorted(bad)}")

    @cached_property
    def firm_set(self) -> frozenset[str]:
        return frozenset(self.firms)

    @cached_property
    def worker_set(self) -> frozenset[str]:
        return frozenset(self.workers)

    @cached_property
    def kernel(self) -> "_Masks":
        """The market's mask kernel, built on first use and kept with its memos."""
        return _Masks(self)

    def spec(self, agent: str) -> ChoiceSpec:
        return self.choice.get(agent, EMPTY_LIST)


@dataclass(frozen=True)
class Matching:
    pairs: frozenset[tuple[str, str]]

    @staticmethod
    def of(pairs: Iterable[tuple[str, str]]) -> "Matching":
        return Matching(frozenset((f, w) for f, w in pairs))

    def key(self) -> tuple:
        return tuple(sorted(self.pairs))


def is_stable(market: MatchingMarket, mu: Matching) -> bool:
    """Individual rationality on both sides and no blocking pair, decided on
    the market's mask kernel: _Masks.encode, then _Masks.stable."""
    return market.kernel.stable(*market.kernel.encode(mu))


def deferred_acceptance(market: MatchingMarket, proposing: str = "firms") -> Matching:
    """Cumulative-offer deferred acceptance, on masks, through each agent's
    compiled choice rather than the kernel's memo, which keeps to the
    search's offers.

    Each round every proposer offers its choice from the receivers that have
    not rejected it; each receiver holds its choice from the offers received
    and permanently rejects the rest.  Stops when a round produces no new
    rejection.  Every round that goes on adds a rejection (p, r) that is
    new, since r was offered p, so it had not rejected p; so it stops within
    |proposers|·|receivers| + 1 rounds.  With path-independent choice
    functions the result is the proposer-optimal stable matching.
    """
    kernel = market.kernel
    if proposing == "firms":
        proposers, receivers = kernel.firm_choice, kernel.worker_choice
    elif proposing == "workers":
        proposers, receivers = kernel.worker_choice, kernel.firm_choice
    else:
        raise InputError(f"proposing side must be 'firms' or 'workers', not {proposing!r}")
    propose, hold = [m.chosen for m in proposers], [m.chosen for m in receivers]
    open_to = [(1 << len(receivers)) - 1] * len(proposers)  # the receivers that have not rejected p
    changed = True
    while changed:
        offers = [ch(o) for ch, o in zip(propose, open_to)]
        received = [0] * len(receivers)
        for p, offer in enumerate(offers):
            for r in _bits(offer):
                received[r] |= 1 << p
        changed = False
        for r, got in enumerate(received):
            if got:
                for p in _bits(got & ~hold[r](got)):
                    open_to[p] &= ~(1 << r)
                    changed = True
    firms, workers = market.firms, market.workers
    return Matching(frozenset((firms[p], workers[r]) if proposing == "firms" else (firms[r], workers[p])
                              for p, offer in enumerate(offers) for r in _bits(offer)))


class FirmOrder(Enum):
    GEQ = "geq"
    LEQ = "leq"
    EQ = "eq"
    INCOMPARABLE = "incomparable"


def firm_order_compare(market: MatchingMarket, mu1: Matching, mu2: Matching) -> FirmOrder:
    """Firm-side comparison: mu1 >= mu2 iff every firm picks its mu1 partners
    out of the union of its partners under both matchings."""
    if mu1.pairs == mu2.pairs:
        return FirmOrder.EQ
    geq = leq = True
    kernel = market.kernel
    for i, (a, b) in enumerate(zip(kernel.encode(mu1)[1], kernel.encode(mu2)[1])):
        if a != b:
            chosen = kernel.firm_choice[i].chosen(a | b)
            geq, leq = geq and chosen == a, leq and chosen == b
            if not geq and not leq:
                return FirmOrder.INCOMPARABLE
    # distinct matchings cannot compare equal: some firm has a != b, and the
    # chosen set matches at most one of them
    return FirmOrder.GEQ if geq else FirmOrder.LEQ


def firm_leq(market: MatchingMarket, ms: Sequence[Matching]) -> frozenset[tuple[int, int]]:
    """The firm-side order over a list of matchings: the index pairs (i, j)
    with ms[i] <= ms[j], read by _Masks.order off their encodings."""
    return market.kernel.order([market.kernel.encode(mu)[1] for mu in ms])


class _Memo(dict):
    """One agent's memo from offer mask to choice mask.  A miss, memo[offer],
    evaluates the agent's compiled choice, chosen, and stores the result;
    calling chosen directly stores nothing."""

    def __init__(self, chosen: Callable[[int], int]):
        super().__init__()
        self.chosen = chosen

    def __missing__(self, offer: int) -> int:
        out = self[offer] = self.chosen(offer)
        return out


# A candidate scan stores its evaluations in the memo only when the worker's
# universe has at most this many partners, so at most 2^16 entries an agent.
# A larger scan (a triggered worker scans up to 2^25 subsets) calls the
# compiled choice and stores nothing, and the memo keeps to the offers the
# search makes.
_SCAN_MEMO_LIMIT = 16


class _Masks:
    """A market's kernel (MatchingMarket.kernel, one per market): its agents
    as bit positions, firms and workers each counted from 0 in declared
    order, and a memo per agent from offer mask to choice mask, read by
    subscript, which evaluates the agent's choice, compiled once against
    these bit positions, on a miss.  firm_choice[i] and worker_choice[j]
    are the memos, also reachable as memo[agent]; acceptable[j] lists the
    positions of the firms in worker j's universe, in firm order."""

    def __init__(self, market: MatchingMarket):
        self.firms, self.workers = market.firms, market.workers
        self.firm_bit = _bit_of(market.firms)
        self.worker_bit = _bit_of(market.workers)
        self.firm_choice = [_Memo(market.spec(f).on_masks(self.worker_bit)) for f in market.firms]
        self.worker_choice = [_Memo(market.spec(w).on_masks(self.firm_bit)) for w in market.workers]
        self.memo = dict(zip((*market.firms, *market.workers), (*self.firm_choice, *self.worker_choice)))
        self.acceptable = [_bits(_mask(self.firm_bit, spec_universe(market.spec(w)))) for w in market.workers]

    def encode(self, mu: Matching) -> tuple[list[int], list[int]]:
        """mu as (assigned, hold): worker j holds the firm mask assigned[j],
        firm i the worker mask hold[i].  A pair naming an agent the market
        does not declare on that side raises UnknownPartnerId: reversed for
        a (worker, firm) pair, else with the pair's other member as agent."""
        firm_bit, worker_bit = self.firm_bit, self.worker_bit
        assigned, hold = [0] * len(worker_bit), [0] * len(firm_bit)
        try:
            for f, w in mu.pairs:
                fb, wb = firm_bit[f], worker_bit[w]
                hold[fb.bit_length() - 1] |= wb
                assigned[wb.bit_length() - 1] |= fb
        except KeyError:
            if f in worker_bit and w in firm_bit:
                raise UnknownPartnerId.reversed_pair(f, w) from None
            raise (UnknownPartnerId(w, f) if f not in firm_bit else UnknownPartnerId(f, w)) from None
        return assigned, hold

    def decode(self, hold: Sequence[int]) -> Matching:
        """The matching in which firm i holds the workers of the mask hold[i]."""
        return Matching(frozenset((self.firms[i], self.workers[j]) for i, held in enumerate(hold) for j in _bits(held)))

    def order(self, holds: Sequence[Sequence[int]]) -> frozenset[tuple[int, int]]:
        """The firm-side order over matchings given by their hold masks
        (holds[k][i] is firm i's worker mask in matching k): the index pairs
        (k, l) with matching k <= matching l.  Each firm groups the matchings
        by its mask and makes one choice per pair of distinct masks, from
        their union: the mask not chosen lies below the chosen one, and when
        neither is chosen the two are incomparable.  k <= l when every firm
        puts k's mask at or below l's."""
        down = [(1 << len(holds)) - 1] * len(holds)  # down[l]: the matchings at or below matching l
        for f_choice, masks in zip(self.firm_choice, zip(*holds)):
            groups: dict[int, int] = {}  # a worker mask -> the matchings giving this firm that mask
            for k, a in enumerate(masks):
                groups[a] = groups.get(a, 0) | 1 << k
            if len(groups) == 1:
                continue
            below = dict(groups)
            for (a, in_a), (b, in_b) in combinations(groups.items(), 2):
                c = f_choice.chosen(a | b)
                if c == a:
                    below[a] |= in_b
                elif c == b:
                    below[b] |= in_a
            for a, in_a in groups.items():
                for k in _bits(in_a):
                    down[k] &= below[a]
        return frozenset((k, l) for l, d in enumerate(down) for k in _bits(d))

    def stable(self, assigned: Sequence[int], hold: Sequence[int]) -> bool:
        """Stability of the matching in which worker j holds the firm mask
        assigned[j] and firm i the worker mask hold[i]: individual
        rationality on both sides and no blocking pair."""
        firm_choice, worker_choice = self.firm_choice, self.worker_choice
        for i, held in enumerate(hold):
            if held and firm_choice[i][held] != held:
                return False
        for j, own in enumerate(assigned):
            w_choice = worker_choice[j]
            if own and w_choice[own] != own:
                return False
            wb = 1 << j
            for i in self.acceptable[j]:
                fb = 1 << i
                if not own & fb and w_choice[own | fb] & fb and firm_choice[i][hold[i] | wb] & wb:
                    return False
        return True


def enumerate_stable(market: MatchingMarket, node_bound: int = DEFAULT_NODE_BOUND) -> list[Matching]:
    """Exhaustive, exact enumeration of all stable matchings.

    Backtracking over workers: each worker's candidate partner sets are the
    individually rational sets among its spec's candidates that lie, in its
    own preference, between its deferred-acceptance worst and best outcomes
    (opposition of interests makes this sound).  Firm-side individual
    rationality is pruned incrementally (substitutability makes a violation
    permanent), pairs are checked for blocking as soon as a firm's offer pool
    is complete, and full stability is re-verified at every leaf.  Two more
    rules follow from stability and path independence and are stated through
    the choice functions: a triggered worker whose firms' demands for it are
    fixed gets its choice from the firms that demand it, and the fallback
    workers of an if-else firm that each take the firm from their whole
    universe are matched to it all or none.

    Workers are searched in the market's declared order, market.workers.  The
    order only affects search performance, never the result, but it can
    change the node count by orders of magnitude: a constructed market lists
    its workers in the order its construction is searched fastest in.

    The search runs on the market's mask kernel (market.kernel): partner
    sets are bit masks and every choice goes through a per-agent memo, kept
    with the market, so each distinct offer is evaluated once per market (a
    candidate scan over more than _SCAN_MEMO_LIMIT partners stores nothing).
    It is one loop over an explicit stack (_stable_leaves), so the number of
    workers is bounded by memory, not by the recursion limit.  The two
    deferred-acceptance anchors are encoded once (_Masks.encode) and every
    check reads masks; only leaves that pass the stability check are
    decoded into Matching objects.

    Assumes path-independent choice functions, like deferred acceptance; an
    unstable anchor raises SpecError.  The output is canonically sorted.
    """
    leaves = _stable_leaves(market, node_bound, {})
    return sorted((market.kernel.decode(hold) for hold, _ in leaves), key=Matching.key)


def _stable_leaves(
    market: MatchingMarket, node_bound: int, costs: Mapping[int, Mapping[int, int]]
) -> Iterator[tuple[list[int], int]]:
    """enumerate_stable's search, as branch and bound on an int cost table:
    costs[j][i] is what worker j pays for holding firm i (worker and firm
    positions; a missing entry is 0).  It yields (leaf, cost) in search order,
    the leaf as the list whose entry i is firm i's worker mask.  The list is
    the search's own state, valid until the generator resumes.

    A candidate is skipped, uncounted as a node, when the cost spent on the
    workers before it, plus its own cost, plus the floor of the workers after
    it (the sum of their rows' negative entries, which no firm set can
    undercut) is strictly above the incumbent: the cheapest stable leaf
    yielded so far, and before the first the cheaper of the two
    deferred-acceptance anchors, which are stable leaves themselves.  So
    every leaf of least cost is yielded, and each yielded leaf costs no more
    than those yielded before it.  With no costs nothing is skipped, and the
    leaves are all the stable matchings.

    Raises SearchBoundExceeded on node number node_bound + 1 and SpecError on
    an unstable anchor, as enumerate_stable.
    """
    firms, workers, masks = market.firms, market.workers, market.kernel
    # Each anchor is encoded once, for its stability guard (which warms the
    # memo the search reads) and for each worker's worst and best firm masks.
    (worst, _), (best, _) = anchors = [masks.encode(deferred_acceptance(market, side)) for side in ("firms", "workers")]
    for anchor in anchors:
        if not masks.stable(*anchor):
            raise SpecError("deferred acceptance produced an unstable matching; "
                            "choice functions are not path-independent")

    firm_bit, firm_choice, worker_choice, acceptable = (
        masks.firm_bit, masks.firm_choice, masks.worker_choice, masks.acceptable)
    specs = [market.spec(w) for w in workers]
    rows = [costs.get(j, {}) for j in range(len(workers))]
    floor = [0] * (len(workers) + 1)  # floor[j]: the least workers j, j + 1, ... can cost
    for j in reversed(range(len(workers))):
        floor[j] = floor[j + 1] + sum(v for v in rows[j].values() if v < 0)
    incumbent = min(sum(v for j, row in enumerate(rows) for i, v in row.items() if at[j] >> i & 1) for at, _ in anchors)

    interested: list[list[int]] = [[] for _ in firms]
    for j in range(len(workers)):
        for i in acceptable[j]:
            interested[i].append(j)
    triggered = [isinstance(sp, Triggered) for sp in specs]
    regular_workers = sum(1 << j for j in range(len(workers)) if not triggered[j])
    # Workers are placed in declared order, so firm i's offer pool is
    # complete once worker interested[i][-1] is placed (final_at lists the
    # firms each worker completes), and its regular workers are all placed
    # once worker last_regular[i] is.
    final_at: list[list[int]] = [[] for _ in workers]
    for i, ws in enumerate(interested):
        if ws:
            final_at[ws[-1]].append(i)
    last_regular = [max((j for j in ws if not triggered[j]), default=-1) for ws in interested]
    settles = [isinstance(market.spec(f), (Regular, IfElse)) for f in firms]

    def keep(j: int, cand: int, store: bool = True) -> bool:
        ch = worker_choice[j].__getitem__ if store else worker_choice[j].chosen
        return ch(cand) == cand and ch(cand | best[j]) == best[j] and ch(worst[j] | cand) == cand

    # Structural fact about if-else firms f whose fallback workers e all take
    # f from their whole universe U_e, f in ch_e(U_e): a stable matching
    # matches either all of them or none of them to f.  (By substitutability
    # each e then takes f from every offer that contains f.  All there is
    # fine.  One there, one away: if the priority worker is held the firm
    # keeps only it, breaking the first one's individual rationality;
    # otherwise the firm demands the away worker, which demands the firm
    # back, a blocking pair.)  Workers are placed in declared order, so a later
    # member j must agree with the group's first: follows[j] holds (first, f's bit).
    follows: list[list[tuple[int, int]]] = [[] for _ in workers]
    for i, f in enumerate(firms):
        f_spec = market.spec(f)
        if isinstance(f_spec, IfElse) and f_spec.else_set:
            members = _bits(_mask(masks.worker_bit, f_spec.else_set))
            if all(worker_choice[e][_mask(firm_bit, spec_universe(specs[e]))] >> i & 1 for e in members):
                for e in members[1:]:
                    follows[e].append((members[0], 1 << i))

    hold = [0] * len(firms)
    assigned = [0] * len(workers)
    assigned_at: list[list[int]] = [[] for _ in workers]  # the bit positions of assigned[j]

    def priced(j: int, cand: int) -> tuple[int, list[int], int]:
        """A candidate: its firm mask, the positions of its bits, its cost."""
        held_by = _bits(cand)
        return cand, held_by, sum(rows[j].get(i, 0) for i in held_by)

    def mutual_demand(j: int) -> list[tuple[int, list[int], int]]:
        # Sound only once every firm in j's universe has a fixed demand for j
        # (settled below).  Let D be the firms that demand j.  j's firms A lie
        # in D (firm individual rationality), ch_j(A) = A, and no firm f of
        # D - A is in ch_j(A | {f}) (no blocking pair); path independence then
        # gives ch_j(D) = A, so ch_j(D) is j's only possible assignment.
        wb = 1 << j
        demand = sum(1 << i for i in acceptable[j] if firm_choice[i][hold[i] | wb] & wb)
        cand = worker_choice[j][demand]
        return [priced(j, cand)] if keep(j, cand) else []

    def settled(i: int, j: int) -> bool:
        # A firm's demand for an auxiliary worker is fixed for the rest of a
        # live branch, at worker j, once the regular workers of its offer
        # pool are all placed, or once it holds some regular worker: a later
        # arrival could only alter the tier winner by displacing that
        # worker, killing the branch at that point.
        return settles[i] and (last_regular[i] < j or bool(hold[i] & regular_workers))

    # keep(j, .) depends only on j and the two anchors, so a worker's kept
    # candidates are computed on its first visit and reused.
    kept: dict[int, list[tuple[int, list[int], int]]] = {}

    def candidates(j: int) -> list[tuple[int, list[int], int]]:
        if triggered[j] and all(settled(i, j) for i in acceptable[j]):
            return mutual_demand(j)
        if j not in kept:
            store = len(spec_universe(specs[j])) <= _SCAN_MEMO_LIMIT
            found = (s for s in specs[j].candidates() if keep(j, _mask(firm_bit, s), store))
            kept[j] = [priced(j, _mask(firm_bit, s)) for s in sorted(found, key=set_key)]
        return kept[j]

    def dies(j: int, cand: int, held_by: list[int]) -> bool:
        """Whether worker j, just placed on the firms cand (at positions
        held_by), kills the branch: it splits an if-else group, a firm does
        not keep all it holds, or a firm whose offer pool j completes forms
        a blocking pair."""
        for first, fb in follows[j]:
            if (assigned[first] ^ cand) & fb:
                return True
        for i in held_by:
            if firm_choice[i][hold[i]] != hold[i]:
                return True
        for i in final_at[j]:
            pool, fb, f_choice = hold[i], 1 << i, firm_choice[i]
            for j2 in interested[i]:
                own, wb2 = assigned[j2], 1 << j2
                if not own & fb and worker_choice[j2][own | fb] & fb and f_choice[pool | wb2] & wb2:
                    return True
        return False

    if not workers:
        if masks.stable(assigned, hold):
            yield hold, 0
        return
    # Level j of the stack is an iterator over worker j's candidates and the
    # cost of workers 0..j-1; every level below the top has placed its worker.
    last = len(workers) - 1
    pending = [iter(candidates(0))]
    spent = [0]
    nodes = 0
    j = 0
    while True:
        step = next(pending[j], None)
        if step is None:
            if not j:
                return
            pending.pop()
            spent.pop()
            j -= 1
        else:
            cand, held_by, cost = step
            if spent[j] + cost + floor[j + 1] > incumbent:
                continue
            nodes += 1
            if nodes > node_bound:
                raise SearchBoundExceeded(nodes, node_bound)
            assigned[j], assigned_at[j] = cand, held_by
            wb = 1 << j
            for i in held_by:
                hold[i] |= wb
            if not dies(j, cand, held_by):
                if j < last:
                    spent.append(spent[j] + cost)
                    j += 1
                    pending.append(iter(candidates(j)))
                    continue
                if masks.stable(assigned, hold):
                    incumbent = spent[j] + cost  # at most the old incumbent, by the skip test
                    yield hold, incumbent
        assigned[j] = 0  # take worker j's placement back
        wb = 1 << j
        for i in assigned_at[j]:
            hold[i] &= ~wb


def stable_lattice(
    market: MatchingMarket, node_bound: int = DEFAULT_NODE_BOUND
) -> tuple[Lattice, list[Matching]]:
    """Enumerate the stable matchings and organize them as a lattice.

    Returns the lattice over synthetic ids m000, m001, ... aligned with the
    returned canonical matching list.  Raises NonLatticeStructure if the
    comparison order fails to produce joins and meets.
    """
    ms = enumerate_stable(market, node_bound=node_bound)
    width = max(3, len(str(max(len(ms) - 1, 0))))
    ids = tuple(f"m{i:0{width}d}" for i in range(len(ms)))
    poset = Poset(ids, frozenset((ids[i], ids[j]) for i, j in firm_leq(market, ms)))
    try:
        lat = lattice_from_order(poset)
    except NotALattice as exc:
        raise NonLatticeStructure(str(exc)) from exc
    return lat, ms


def check_path_independence(spec: ChoiceSpec, exhaustive_limit: int = 16) -> tuple[bool, tuple | None]:
    """Verify substitutability and consistency over the spec's universe.

    Checks the one-element-removal forms of both properties, which imply the
    general ones by induction, on offer masks over the sorted universe (bit
    i stands for its i-th partner, so ascending bits visit partners in
    sorted order), through the spec's choice compiled on those bits (the
    compile _Family._on_universe caches for choose), memoised for the
    check.  The offers are every subset when the universe has at most
    exhaustive_limit members; otherwise 512 subsets drawn by a random
    generator seeded with 0, so the verdict is deterministic.
    """
    u, _, compiled = spec._on_universe
    n = len(u)
    chosen = _Memo(compiled)
    if n <= exhaustive_limit:
        offers: Iterable[int] = range(1 << n)
    else:
        rng = random.Random(0)
        offers = (sum(1 << i for i in range(n) if rng.random() < 0.5) for _ in range(512))
    for s in offers:
        picked = chosen[s]
        missing = 0  # picked partners x lost from the choice of s - {y}, y != x
        left = s
        while left:  # remove each partner y of s in turn, as its bit yb
            yb = left & -left
            left ^= yb
            rest = chosen[s ^ yb]
            if not picked & yb and rest != picked:
                return False, ("consistency", tuple(u[i] for i in _bits(s)), u[yb.bit_length() - 1])
            missing |= picked & ~rest & ~yb
        if missing:
            x = _bits(missing)[0]
            y = next(y for y in _bits(s) if y != x and not chosen[s ^ 1 << y] >> x & 1)
            return False, ("substitutability", tuple(u[i] for i in _bits(s)), (u[x], u[y]))
    return True, None
