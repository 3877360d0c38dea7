"""Matching markets under path-independent choice functions.

Three data-driven choice-function families are supported: explicit
preference lists, triggered choice (a watch set plus a trigger firm gated by
a boolean function of the offer), and regular choice (ordered disjoint tiers
plus conditional auxiliary additions; two tiers ({p}, E) make the if-else
choice of p alone when offered, else every offered member of E).  On top of
them: stability checking, deferred acceptance, the firm-side comparison
order over stable matchings, and an exhaustive stable-matching enumeration
oracle.
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
            out = 0
            for t in tiers:
                if offer & t:
                    out = offer & t
                    break
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


ChoiceSpec = PreferenceList | Triggered | Regular

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
    """Cumulative-offer deferred acceptance (_Masks.deferred_acceptance),
    decoded into a Matching: with path-independent choice functions, the
    proposer-optimal stable matching."""
    return market.kernel.decode(market.kernel.deferred_acceptance(proposing)[1])


class FirmOrder(Enum):
    GEQ = "geq"
    LEQ = "leq"
    EQ = "eq"
    INCOMPARABLE = "incomparable"


def firm_order_compare(market: MatchingMarket, mu1: Matching, mu2: Matching) -> FirmOrder:
    """Firm-side comparison: mu1 >= mu2 iff every firm picks its mu1 partners
    out of the union of its partners under both matchings, read off
    firm_leq on the two."""
    order = firm_leq(market, (mu1, mu2))
    geq, leq = (1, 0) in order, (0, 1) in order
    if geq and leq:
        return FirmOrder.EQ
    return FirmOrder.GEQ if geq else FirmOrder.LEQ if leq else FirmOrder.INCOMPARABLE


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
    are the memos; acceptable[j] lists the positions of the firms in worker
    j's universe, in firm order."""

    def __init__(self, market: MatchingMarket):
        self.firms, self.workers = market.firms, market.workers
        self.firm_bit = _bit_of(market.firms)
        self.worker_bit = _bit_of(market.workers)
        self.firm_choice = [_Memo(market.spec(f).on_masks(self.worker_bit)) for f in market.firms]
        self.worker_choice = [_Memo(market.spec(w).on_masks(self.firm_bit)) for w in market.workers]
        self.acceptable = [_bits(_mask(self.firm_bit, spec_universe(market.spec(w)))) for w in market.workers]
        # each agent's position among its side's names in sorted order (a
        # declared order need not be name order), a firm's times the number
        # of workers, so the sum of a pair's ranks orders pairs as names do
        f_at, w_at = ({x: r for r, x in enumerate(sorted(names))} for names in (self.firms, self.workers))
        self.firm_rank = [f_at[f] * len(self.workers) for f in self.firms]
        self.worker_rank = [w_at[w] for w in self.workers]

    def encode(self, mu: Matching) -> tuple[list[int], list[int]]:
        """mu as (assigned, hold): worker j holds the firm mask assigned[j],
        firm i the worker mask hold[i].  A pair naming an agent the market
        does not declare on that side raises UnknownPartnerId (unknown_pair)."""
        firm_bit, worker_bit = self.firm_bit, self.worker_bit
        assigned, hold = [0] * len(worker_bit), [0] * len(firm_bit)
        try:
            for f, w in mu.pairs:
                fb, wb = firm_bit[f], worker_bit[w]
                hold[fb.bit_length() - 1] |= wb
                assigned[wb.bit_length() - 1] |= fb
        except KeyError:
            raise self.unknown_pair(f, w) from None
        return assigned, hold

    def unknown_pair(self, f: str, w: str) -> UnknownPartnerId:
        """The error for a pair (f, w) that names an agent the market does
        not declare on that side: reversed for a (worker, firm) pair, else
        with the pair's other member as agent."""
        if f in self.worker_bit and w in self.firm_bit:
            return UnknownPartnerId.reversed_pair(f, w)
        return UnknownPartnerId(w, f) if f not in self.firm_bit else UnknownPartnerId(f, w)

    def decode(self, hold: Sequence[int]) -> Matching:
        """The matching in which firm i holds the workers of the mask hold[i]."""
        return Matching(frozenset((self.firms[i], self.workers[j]) for i, held in enumerate(hold) for j in _bits(held)))

    def deferred_acceptance(self, proposing: str = "firms") -> tuple[list[int], list[int]]:
        """Cumulative-offer deferred acceptance, as (assigned, hold) like
        encode, through each agent's compiled choice rather than its memo,
        which keeps to the search's offers.

        Each round every proposer offers its choice from the receivers that
        have not rejected it; each receiver holds its choice from the offers
        received and permanently rejects the rest.  Stops when a round
        produces no new rejection, so each receiver holds all it received.
        Every round that goes on adds a rejection (p, r) that is new, since r
        was offered p, so it had not rejected p; so it stops within
        |proposers|·|receivers| + 1 rounds.  With path-independent choice
        functions the result is the proposer-optimal stable matching.
        """
        if proposing == "firms":
            proposers, receivers = self.firm_choice, self.worker_choice
        elif proposing == "workers":
            proposers, receivers = self.worker_choice, self.firm_choice
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
        return (received, offers) if proposing == "firms" else (offers, received)

    def key(self, hold: Sequence[int]) -> list[int]:
        """decode(hold).key() on ints, in the same order: each pair as the
        sum of its firm's and its worker's rank."""
        firm_rank, worker_rank = self.firm_rank, self.worker_rank
        return sorted(firm_rank[i] + worker_rank[j] for i, held in enumerate(hold) for j in _bits(held))

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
    rules follow from stability and path independence, stated and gated
    through the choice functions alone, so they hold on any path-independent
    market whatever its families: a worker that chooses several firms from
    its whole universe, once its firms' demands for it are fixed, gets its
    choice from the firms that demand it; and when a firm's pool splits into
    its choice S and the rest G, with |G| >= 2, G chosen whole, no member
    of G kept beside a worker of S, and each member taking the firm from
    its own whole universe, G is matched to the firm all or none.

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
    deferred-acceptance anchors come as masks (_Masks.deferred_acceptance),
    so nothing is decoded or encoded before the search, and every check
    reads masks.  A candidate is tested before it is placed, and only a
    live one is written into the search's state.  The leaves that pass the
    stability check are sorted on their masks (stable_holds), and each is
    decoded once into a Matching.

    Assumes path-independent choice functions, like deferred acceptance; an
    unstable anchor raises SpecError.  The output is canonically sorted.
    """
    return [market.kernel.decode(hold) for hold in stable_holds(market, node_bound)]


def stable_holds(market: MatchingMarket, node_bound: int = DEFAULT_NODE_BOUND) -> list[list[int]]:
    """enumerate_stable's matchings, in its order, as copies of their hold
    masks (entry i is firm i's worker mask), sorted by _Masks.key."""
    return sorted((list(hold) for hold, _ in _stable_leaves(market, node_bound, {})), key=market.kernel.key)


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

    Every other candidate is a node.  The group rule and each of its firms'
    individual rationality are tested on the holds it would make before
    anything is written, so a candidate that fails them is never placed.  A
    live candidate is placed, then its completed firms are checked for
    blocking pairs, and it is taken back when its branch is done; once the
    generator is exhausted every hold is empty again.

    Raises SearchBoundExceeded on node number node_bound + 1 and SpecError on
    an unstable anchor, as enumerate_stable.
    """
    firms, workers, masks = market.firms, market.workers, market.kernel
    # The anchors, as masks, serve their stability guard (which warms the
    # memo the search reads) and each worker's worst and best firm masks.
    (worst, _), (best, _) = anchors = [masks.deferred_acceptance(side) for side in ("firms", "workers")]
    for anchor in anchors:
        if not masks.stable(*anchor):
            raise SpecError("deferred acceptance produced an unstable matching; "
                            "choice functions are not path-independent")

    firm_bit, firm_choice, worker_choice, acceptable = (
        masks.firm_bit, masks.firm_choice, masks.worker_choice, masks.acceptable)
    rows = [costs.get(j, {}) for j in range(len(workers))]
    floor = [0] * (len(workers) + 1)  # floor[j]: the least workers j, j + 1, ... can cost
    for j in reversed(range(len(workers))):
        floor[j] = floor[j + 1] + sum(v for v in rows[j].values() if v < 0)
    incumbent = min(sum(v for j, row in enumerate(rows) for i, v in row.items() if at[j] >> i & 1) for at, _ in anchors)

    interested: list[list[int]] = [[] for _ in firms]
    for j in range(len(workers)):
        for i in acceptable[j]:
            interested[i].append(j)
    pool = [sum(1 << j for j in ws) for ws in interested]  # firm i's offer pool, as a worker mask
    # takes[j]: worker j's choice from its whole universe, as a firm mask
    takes = [worker_choice[j][sum(1 << i for i in acceptable[j])] for j in range(len(workers))]
    # Workers are placed in declared order, so firm i's offer pool is
    # complete once worker interested[i][-1] is placed.  completes[j] lists
    # the firms worker j completes, each as (position, bit, memo, and its
    # pool's (worker bit, position, memo)).
    completes: list[list[tuple]] = [[] for _ in workers]
    for i, ws in enumerate(interested):
        if ws:
            completes[ws[-1]].append((i, 1 << i, firm_choice[i], [(1 << u, u, worker_choice[u]) for u in ws]))

    def keep(j: int, cand: int, store: bool = True) -> bool:
        ch = worker_choice[j].__getitem__ if store else worker_choice[j].chosen
        return ch(cand) == cand and ch(cand | best[j]) == best[j] and ch(worst[j] | cand) == cand

    # The group rule.  Firm i's pool splits into S = ch_i(pool) and the group
    # G, the rest.  Let |G| >= 2, ch_i(G) = G, no x of G lie in ch_i({u, x})
    # for a u of S (for each u, one test: ch_i({u} | G) misses G, by
    # substitutability and consistency), and each member take i from its
    # whole universe, so from every offer with i.  A stable hold H = ch_i(H)
    # meeting G then lies in G (substitutability carries the pair test up to
    # H), so i demands any absent member, which demands i back: G goes to i
    # all or none.  Workers are placed in declared order, so a later member
    # j must agree with the group's first: follows[j] holds (first, i's bit).
    follows: list[list[tuple[int, int]]] = [[] for _ in workers]
    for i, f_choice in enumerate(firm_choice):
        chosen = f_choice[pool[i]]
        group = pool[i] & ~chosen
        members = _bits(group)
        if (len(members) > 1 and all(takes[e] >> i & 1 for e in members) and f_choice[group] == group
                and not any(f_choice[1 << u | group] & group for u in _bits(chosen))):
            for e in members[1:]:
                follows[e].append((members[0], 1 << i))

    hold = [0] * len(firms)
    assigned = [0] * len(workers)
    assigned_at: list[list[int]] = [[] for _ in workers]  # the bit positions of assigned[j]

    def priced(j: int, cand: int) -> tuple[int, list[int], int]:
        """A candidate: its firm mask, the positions of its bits, its cost."""
        held_by = _bits(cand)
        return cand, held_by, sum(rows[j].get(i, 0) for i in held_by)

    joinable: list[dict[int, int]] = [{} for _ in firms]  # [i][h]: i's pool workers u after h with ch_i(h | u) = h | u

    def fixed_demand(j: int) -> int | None:
        """The firms that demand worker j, the next placed, as a mask, if
        each one's demand for j is fixed for the rest of a live branch, else
        None.  Let H be firm i's hold and U the unplaced workers u of its
        pool with ch_i(H | u) = H | u.  i never demands j once j is not in
        ch_i(H | j), since holds only grow; it always demands j once j is in
        ch_i(H | U | j), since any other arrival makes i reject a held worker
        for good, so every live final hold lies in H | U (both by
        substitutability).  All unplaced pool workers, a superset of U, go first."""
        wb, demand = 1 << j, 0
        for i in acceptable[j]:
            h, f_choice = hold[i], firm_choice[i]
            if not f_choice[h | wb] & wb:
                continue
            unplaced = pool[i] & -wb
            if not f_choice[h | unplaced] & wb:
                if h not in joinable[i]:
                    after = pool[i] >> h.bit_length() << h.bit_length()
                    joinable[i][h] = sum(1 << u for u in _bits(after) if f_choice[h | 1 << u] == h | 1 << u)
                if not f_choice[h | joinable[i][h] & unplaced | wb] & wb:
                    return None
            demand |= 1 << i
        return demand

    # keep(j, .) depends only on j and the two anchors, so a worker's kept
    # candidates are computed on its first visit and reused; the loop pushes
    # them without a call once they are, unless j takes several firms from
    # its universe (several[j]), the workers mutual demand runs on.  Their
    # forced move depends also on the holds of their firms, the only state
    # fixed_demand reads, so it is memoised by those holds (None when j's
    # demand is not fixed).
    kept: list[list[tuple[int, list[int], int]] | None] = [None] * len(workers)
    forced: list[dict[tuple[int, ...], list[tuple[int, list[int], int]] | None]] = [{} for _ in workers]
    several = [takes[j] & takes[j] - 1 for j in range(len(workers))]

    def candidates(j: int) -> list[tuple[int, list[int], int]]:
        if several[j]:
            at = tuple(map(hold.__getitem__, acceptable[j]))
            if at not in forced[j]:
                # Mutual demand: j's firms A lie in the demanders D, ch_j(A) = A
                # (both individual rationality), and no f of D - A is in
                # ch_j(A | {f}) (no blocking pair); path independence gives
                # ch_j(D) = A, j's only option.
                cand = None if (demand := fixed_demand(j)) is None else worker_choice[j][demand]
                forced[j][at] = None if cand is None else [priced(j, cand)] if keep(j, cand) else []
            if forced[j][at] is not None:
                return forced[j][at]
        if kept[j] is None:
            store = len(acceptable[j]) <= _SCAN_MEMO_LIMIT
            found = [(s, m) for s in market.spec(workers[j]).candidates() if keep(j, m := _mask(firm_bit, s), store)]
            kept[j] = [priced(j, m) for _, m in sorted(found, key=lambda sm: set_key(sm[0]))]
        return kept[j]

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
            # The candidate dies unplaced if j splits a group or one of its
            # firms would not keep all it holds beside j.
            wb = 1 << j
            live = True
            for first, fb in follows[j]:
                if (assigned[first] ^ cand) & fb:
                    live = False
                    break
            if live:
                for i in held_by:
                    h = hold[i] | wb
                    if firm_choice[i][h] != h:
                        live = False
                        break
            if not live:
                continue
            assigned[j], assigned_at[j] = cand, held_by
            for i in held_by:
                hold[i] |= wb
            # Placed, it dies if a firm whose offer pool j completes forms a
            # blocking pair.
            dead = False
            for i, fb, f_choice, members in completes[j]:
                held = hold[i]
                for ub, u, w_choice in members:
                    own = assigned[u]
                    if not own & fb and w_choice[own | fb] & fb and f_choice[held | ub] & ub:
                        dead = True
                        break
            if not dead:
                if j < last:
                    spent.append(spent[j] + cost)
                    j += 1
                    ready = kept[j]
                    pending.append(iter(candidates(j) if ready is None or several[j] else ready))
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
    returned canonical matching list, ordered by _Masks.order on the leaf
    masks of stable_holds, each decoded once.  Raises NonLatticeStructure if
    the comparison order fails to produce joins and meets.
    """
    holds = stable_holds(market, node_bound)
    width = max(3, len(str(max(len(holds) - 1, 0))))
    ids = tuple(f"m{i:0{width}d}" for i in range(len(holds)))
    poset = Poset(ids, frozenset((ids[i], ids[j]) for i, j in market.kernel.order(holds)))
    try:
        lat = lattice_from_order(poset)
    except NotALattice as exc:
        raise NonLatticeStructure(str(exc)) from exc
    return lat, [market.kernel.decode(hold) for hold in holds]


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
