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
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    InputError,
    NonConvergence,
    NonLatticeStructure,
    NotALattice,
    SearchBoundExceeded,
    SpecError,
    UnknownPartnerId,
)
from .orders import Lattice, Poset, lattice_from_order, set_key

DEFAULT_NODE_BOUND = 10 ** 9


def _subsets(items: Sequence[str]):
    n = len(items)
    for mask in range(1 << n):
        yield frozenset(items[i] for i in range(n) if mask >> i & 1)


def _every_subset(universe: frozenset[str], limit: int):
    """Every subset of a universe of at most limit partners; a larger one
    raises SearchBoundExceeded with the number of subsets it has."""
    if len(universe) > limit:
        raise SearchBoundExceeded(1 << len(universe), 1 << limit)
    return _subsets(sorted(universe))


# Each family evaluates its choice over a frozenset offer (choose), names the
# partners that can appear in or influence a choice (universe), and lists the
# partner sets its agent can be assigned in enumerate_stable (candidates).


@dataclass(frozen=True)
class PreferenceList:
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

    def choose(self, offered: frozenset[str]) -> frozenset[str]:
        for entry in self.entries:
            if entry <= offered:
                return entry
        return frozenset()

    @cached_property
    def universe(self) -> frozenset[str]:
        return frozenset().union(*self.entries)

    def candidates(self) -> tuple[frozenset[str], ...]:
        return (*self.entries, frozenset())


@dataclass(frozen=True)
class Triggered:
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

    def choose(self, offered: frozenset[str]) -> frozenset[str]:
        selected = offered & self.watch
        if self.trigger in offered:
            hidden = {r for r, fs in self.blocks if not fs & offered}
            if all(g & hidden for g in self.alpha_groups):
                selected |= {self.trigger}
        return selected

    @cached_property
    def universe(self) -> frozenset[str]:
        return self.watch | {self.trigger}

    def candidates(self) -> Iterable[frozenset[str]]:
        return _every_subset(self.universe, 25)


@dataclass(frozen=True)
class IfElse:
    """The priority worker alone when offered, else every offered fallback."""

    priority: str
    else_set: frozenset[str]

    def choose(self, offered: frozenset[str]) -> frozenset[str]:
        if self.priority in offered:
            return frozenset([self.priority])
        return offered & self.else_set

    @cached_property
    def universe(self) -> frozenset[str]:
        return self.else_set | {self.priority}

    def candidates(self) -> Iterable[frozenset[str]]:
        return _every_subset(self.universe, 16)


@dataclass(frozen=True)
class Regular:
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

    @cached_property
    def tier_index(self) -> dict[str, int]:
        return {m: i for i, t in enumerate(self.tiers) for m in t}

    def choose(self, offered: frozenset[str]) -> frozenset[str]:
        selected: frozenset[str] = frozenset()
        hit_index = None
        for i, tier in enumerate(self.tiers):
            hit = offered & tier
            if hit:
                selected = hit
                hit_index = i
                break
        for anchor, aux in self.aux_pairs:
            if aux in offered and (hit_index is None or hit_index >= self.tier_index[anchor]):
                selected |= {aux}
        return selected

    @cached_property
    def universe(self) -> frozenset[str]:
        return frozenset().union(*self.tiers, (s for _, s in self.aux_pairs))

    def candidates(self) -> Iterable[frozenset[str]]:
        return _every_subset(self.universe, 16)


ChoiceSpec = PreferenceList | Triggered | IfElse | Regular

EMPTY_LIST = PreferenceList(())


def choose(spec: ChoiceSpec, offered: Iterable[str]) -> frozenset[str]:
    """Evaluate a choice function; always returns a subset of the offer."""
    return spec.choose(frozenset(offered))


def spec_universe(spec: ChoiceSpec) -> frozenset[str]:
    """Partners that can ever appear in the spec's output or influence it."""
    return spec.universe


@dataclass(frozen=True, eq=False)
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

    def __eq__(self, other):
        return (
            isinstance(other, MatchingMarket)
            and self.firms == other.firms
            and self.workers == other.workers
            and dict(self.choice) == dict(other.choice)
        )

    @cached_property
    def firm_set(self) -> frozenset[str]:
        return frozenset(self.firms)

    @cached_property
    def worker_set(self) -> frozenset[str]:
        return frozenset(self.workers)

    def spec(self, agent: str) -> ChoiceSpec:
        return self.choice.get(agent, EMPTY_LIST)


@dataclass(frozen=True)
class Matching:
    pairs: frozenset[tuple[str, str]]

    @staticmethod
    def of(pairs: Iterable[tuple[str, str]]) -> "Matching":
        return Matching(frozenset((f, w) for f, w in pairs))

    @cached_property
    def by_firm(self) -> dict[str, frozenset[str]]:
        out: dict[str, set[str]] = {}
        for f, w in self.pairs:
            out.setdefault(f, set()).add(w)
        return {f: frozenset(ws) for f, ws in out.items()}

    @cached_property
    def by_worker(self) -> dict[str, frozenset[str]]:
        out: dict[str, set[str]] = {}
        for f, w in self.pairs:
            out.setdefault(w, set()).add(f)
        return {w: frozenset(fs) for w, fs in out.items()}

    def workers_of(self, firm: str) -> frozenset[str]:
        return self.by_firm.get(firm, frozenset())

    def firms_of(self, worker: str) -> frozenset[str]:
        return self.by_worker.get(worker, frozenset())

    def key(self) -> tuple:
        return tuple(sorted(self.pairs))


def _validate_matching(market: MatchingMarket, mu: Matching) -> None:
    for f, w in mu.pairs:
        if f not in market.firm_set:
            raise UnknownPartnerId(f, f)
        if w not in market.worker_set:
            raise UnknownPartnerId(w, w)


def is_individually_rational(market: MatchingMarket, mu: Matching) -> tuple[bool, str | None]:
    """Every agent keeps exactly its assigned partners when offered them."""
    _validate_matching(market, mu)
    for f, ws in sorted(mu.by_firm.items()):
        if choose(market.spec(f), ws) != ws:
            return False, f
    for w, fs in sorted(mu.by_worker.items()):
        if choose(market.spec(w), fs) != fs:
            return False, w
    return True, None


def blocking_pairs(market: MatchingMarket, mu: Matching) -> list[tuple[str, str]]:
    """All pairs outside the matching where each side demands the other.

    Only pairs the worker finds acceptable can block (a worker never demands
    a firm outside its spec's universe), so the scan is restricted to those.
    """
    _validate_matching(market, mu)
    out = []
    for w in market.workers:
        w_spec = market.spec(w)
        held = mu.firms_of(w)
        for f in sorted(spec_universe(w_spec)):
            if (f, w) in mu.pairs:
                continue
            if f not in choose(w_spec, held | {f}):
                continue
            if w in choose(market.spec(f), mu.workers_of(f) | {w}):
                out.append((f, w))
    return sorted(out)


def is_stable(market: MatchingMarket, mu: Matching) -> bool:
    ok, _ = is_individually_rational(market, mu)
    return ok and not blocking_pairs(market, mu)


def deferred_acceptance(market: MatchingMarket, proposing: str = "firms") -> Matching:
    """Cumulative-offer deferred acceptance.

    Each round every proposer offers its choice from the partners that have
    not rejected it; each receiver holds its choice from the offers received
    and permanently rejects the rest.  Stops when a round produces no new
    rejection, at the latest after 4·|firms|·|workers| + 4 rounds.  With
    path-independent choice functions the result is the proposer-optimal
    stable matching.
    """
    if proposing == "firms":
        proposers, receivers = market.firms, market.workers
    elif proposing == "workers":
        proposers, receivers = market.workers, market.firms
    else:
        raise InputError(f"proposing side must be 'firms' or 'workers', not {proposing!r}")
    round_cap = 4 * len(market.firms) * len(market.workers) + 4
    opposite = frozenset(receivers)
    rejected: dict[str, set[str]] = {p: set() for p in proposers}
    offers: dict[str, frozenset[str]] = {}
    for _ in range(round_cap):
        for p in proposers:
            offers[p] = choose(market.spec(p), opposite - rejected[p])
        received: dict[str, set[str]] = {r: set() for r in receivers}
        for p in proposers:
            for r in offers[p]:
                received[r].add(p)
        changed = False
        for r in receivers:
            held = choose(market.spec(r), received[r])
            for p in received[r] - held:
                rejected[p].add(r)
                changed = True
        if not changed:
            pairs = set()
            for p in proposers:
                for r in offers[p]:
                    pairs.add((p, r) if proposing == "firms" else (r, p))
            return Matching(frozenset(pairs))
    raise NonConvergence(round_cap)


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
    geq = True
    leq = True
    for f in market.firms:
        a, b = mu1.workers_of(f), mu2.workers_of(f)
        if a == b:
            continue
        chosen = choose(market.spec(f), a | b)
        if chosen != a:
            geq = False
        if chosen != b:
            leq = False
        if not geq and not leq:
            return FirmOrder.INCOMPARABLE
    # distinct matchings cannot compare equal: some firm has a != b, and the
    # chosen set matches at most one of them
    return FirmOrder.GEQ if geq else FirmOrder.LEQ


def firm_leq(market: MatchingMarket, ms: Sequence[Matching]) -> frozenset[tuple[int, int]]:
    """The firm-side order over a list of matchings: the index pairs (i, j)
    with ms[i] <= ms[j], from one comparison per unordered pair."""
    rel = {(i, i) for i in range(len(ms))}
    for i, j in combinations(range(len(ms)), 2):
        cmp = firm_order_compare(market, ms[i], ms[j])
        if cmp in (FirmOrder.LEQ, FirmOrder.EQ):
            rel.add((i, j))
        if cmp in (FirmOrder.GEQ, FirmOrder.EQ):
            rel.add((j, i))
    return frozenset(rel)


def _bits(mask: int) -> list[int]:
    """The positions of a mask's set bits, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _mask_choice(spec: ChoiceSpec, names: Sequence[str], bit: Mapping[str, int], table: dict[int, int]):
    """The spec's choice function on masks: bit i of an offer stands for
    names[i], and the choice is encoded through bit.  A miss decodes the
    offer, evaluates choose() and, with store, keeps the result in table."""

    def chosen(offer: int, store: bool = True) -> int:
        out = table.get(offer)
        if out is None:
            out = 0
            for x in choose(spec, [names[i] for i in _bits(offer)]):
                out |= bit[x]
            if store:
                table[offer] = out
        return out

    return chosen


# A candidate scan stores its evaluations in the memo only when the worker's
# universe has at most this many partners, so at most 2^16 entries an agent.
# A larger scan (a triggered worker scans up to 2^25 subsets) reads the memo
# but stores nothing, and the memo keeps to the offers the search makes.
_SCAN_MEMO_LIMIT = 16


class _Masks:
    """One market's agents as bit positions, firms and workers each counted
    from 0 in declared order, and a memo per agent from offer mask to choice
    mask.  A miss decodes the offer and evaluates the spec's own choose
    through choose(), so each family's semantics stay defined once, over
    frozensets.  firm_choice[i] and worker_choice[j] are the memoised choice
    functions, memo[agent] their tables; acceptable[j] lists (i, 1 << i) for
    the firms in worker j's universe, in firm order."""

    def __init__(self, market: MatchingMarket):
        self.firm_bit = {f: 1 << i for i, f in enumerate(market.firms)}
        self.worker_bit = {w: 1 << j for j, w in enumerate(market.workers)}
        self.memo: dict[str, dict[int, int]] = {a: {} for a in (*market.firms, *market.workers)}
        self.firm_choice = [_mask_choice(market.spec(f), market.workers, self.worker_bit, self.memo[f])
                            for f in market.firms]
        self.worker_choice = [_mask_choice(market.spec(w), market.firms, self.firm_bit, self.memo[w])
                              for w in market.workers]
        self.acceptable = [
            [(i, 1 << i) for i, f in enumerate(market.firms) if f in spec_universe(market.spec(w))]
            for w in market.workers
        ]

    def stable(self, assigned: Sequence[int], hold: Sequence[int]) -> bool:
        """Stability of the matching in which worker j holds the firm mask
        assigned[j] and firm i the worker mask hold[i]: individual
        rationality on both sides and no blocking pair, as is_stable."""
        firm_choice, worker_choice = self.firm_choice, self.worker_choice
        for i, held in enumerate(hold):
            if held and firm_choice[i](held) != held:
                return False
        for j, own in enumerate(assigned):
            w_choice = worker_choice[j]
            if own and w_choice(own) != own:
                return False
            wb = 1 << j
            for i, fb in self.acceptable[j]:
                if not own & fb and w_choice(own | fb) & fb and firm_choice[i](hold[i] | wb) & wb:
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
    is complete, and full stability is re-verified at every leaf.

    Workers are searched in the market's declared order, market.workers.  The
    order only affects search performance, never the result, but it can
    change the node count by orders of magnitude: a constructed market lists
    its workers in the order its construction is searched fastest in.

    The search runs on int masks (_Masks): partner sets are bit masks and
    every choice goes through a per-agent memo, so the search evaluates each
    distinct offer once (a candidate scan over more than _SCAN_MEMO_LIMIT
    partners stores nothing).  It is one loop over an explicit stack
    (_stable_leaves), so the number of workers is bounded by memory, not by
    the recursion limit.  Only leaves that pass the stability check become
    Matching objects.

    Assumes path-independent choice functions, like deferred acceptance; the
    two deferred-acceptance anchors are stability-checked up front as a
    guard, and an unstable one raises SpecError.  The output is canonically
    sorted.
    """
    return sorted((_leaf_matching(market, at) for at in _stable_leaves(market, node_bound)), key=Matching.key)


def _leaf_matching(market: MatchingMarket, at: Sequence[Sequence[int]]) -> Matching:
    """The matching in which worker j holds the firms at positions at[j]."""
    firms = market.firms
    return Matching(frozenset((firms[i], w) for w, held_by in zip(market.workers, at) for i in held_by))


def _stable_leaves(market: MatchingMarket, node_bound: int) -> Iterator[list[list[int]]]:
    """enumerate_stable's search, yielding each stable leaf in search order as
    the list whose entry j holds worker j's firm positions (ascending indexes
    into market.firms).  The list is the search's own state, valid until the
    generator resumes.  Raises SearchBoundExceeded on node number
    node_bound + 1 and SpecError on an unstable anchor, as enumerate_stable.
    """
    mu_f = deferred_acceptance(market, "firms")
    worker_optimal = deferred_acceptance(market, "workers")
    for anchor in (mu_f, worker_optimal):
        if not is_stable(market, anchor):
            raise SpecError("deferred acceptance produced an unstable matching; "
                            "choice functions are not path-independent")

    firms, workers = market.firms, market.workers
    masks = _Masks(market)
    firm_bit, firm_choice, worker_choice, acceptable = (
        masks.firm_bit, masks.firm_choice, masks.worker_choice, masks.acceptable)
    specs = [market.spec(w) for w in workers]

    def firm_mask(names: Iterable[str]) -> int:
        return sum(firm_bit[f] for f in names)

    best = [firm_mask(worker_optimal.firms_of(w)) for w in workers]
    worst = [firm_mask(mu_f.firms_of(w)) for w in workers]
    interested: list[list[int]] = [[] for _ in firms]
    for j in range(len(workers)):
        for i, _ in acceptable[j]:
            interested[i].append(j)
    triggered = [isinstance(sp, Triggered) for sp in specs]
    regular_workers = sum(1 << j for j in range(len(workers)) if not triggered[j])
    rem_any = [len(ws) for ws in interested]
    rem_reg = [sum(1 for j in ws if not triggered[j]) for ws in interested]
    settles = [isinstance(market.spec(f), (Regular, IfElse)) for f in firms]

    def keep(j: int, cand: int, store: bool = True) -> bool:
        ch = worker_choice[j]
        return (ch(cand, store) == cand and ch(cand | best[j], store) == best[j]
                and ch(worst[j] | cand, store) == cand)

    # Structural fact about if-else firms whose fallback workers all list the
    # firm first: a stable matching matches either all of them or none of
    # them to it.  (All there is fine.  One there, one away: if the priority
    # worker is held the firm keeps only it, breaking the first one's
    # individual rationality; otherwise the firm demands the away worker,
    # which demands the firm back as its first choice, a blocking pair.)
    group_firm: list[int] = []
    member_groups: dict[int, list[int]] = {}
    worker_index = {w: j for j, w in enumerate(workers)}
    for i, f in enumerate(firms):
        f_spec = market.spec(f)
        if isinstance(f_spec, IfElse) and f_spec.else_set:
            members = [worker_index[e] for e in f_spec.else_set]
            if all(
                isinstance(specs[e], PreferenceList)
                and specs[e].entries
                and specs[e].entries[0] == frozenset([f])
                for e in members
            ):
                for e in members:
                    member_groups.setdefault(e, []).append(len(group_firm))
                group_firm.append(1 << i)
    group_at = [0] * len(group_firm)
    group_away = [0] * len(group_firm)

    hold = [0] * len(firms)
    assigned = [0] * len(workers)
    assigned_at: list[list[int]] = [[] for _ in workers]  # the bit positions of assigned[j]

    def triggered_forced(j: int) -> list[tuple[int, list[int]]]:
        # Sound only once every firm in the universe has its full regular
        # offer pool: the mutual-demand set is then the only assignment that
        # can survive individual rationality plus blocking checks.
        sp = specs[j]
        wb = 1 << j
        cand = 0
        for f in sp.watch:
            fb = firm_bit[f]
            i = fb.bit_length() - 1
            if firm_choice[i](hold[i] | wb) & wb:
                cand |= fb
        tb = firm_bit[sp.trigger]
        t = tb.bit_length() - 1
        if worker_choice[j](cand | tb) & tb and firm_choice[t](hold[t] | wb) & wb:
            cand |= tb
        return [(cand, _bits(cand))] if keep(j, cand) else []

    def settled(i: int) -> bool:
        # A firm's demand for an auxiliary worker is fixed for the rest of a
        # live branch once its offer pool is complete, or once it holds some
        # regular worker: a later arrival could only alter the tier winner by
        # displacing that worker, killing the branch at that point.
        return settles[i] and (rem_reg[i] == 0 or bool(hold[i] & regular_workers))

    # keep(j, .) depends only on j and the two anchors, so a worker's kept
    # candidates are computed on its first visit and reused.  A candidate is
    # its firm mask with the positions of its bits.
    kept: dict[int, list[tuple[int, list[int]]]] = {}

    def candidates(j: int) -> list[tuple[int, list[int]]]:
        if triggered[j] and all(settled(i) for i, _ in acceptable[j]):
            return triggered_forced(j)
        if j not in kept:
            store = len(spec_universe(specs[j])) <= _SCAN_MEMO_LIMIT
            found = (s for s in specs[j].candidates() if keep(j, firm_mask(s), store))
            kept[j] = [(firm_mask(s), _bits(firm_mask(s))) for s in sorted(found, key=set_key)]
        return kept[j]

    def place(j: int, cand: int, held_by: list[int]) -> bool:
        """Assign worker j the firms cand, at positions held_by; returns
        whether the branch lives.  Either way unplace(j) undoes it."""
        assigned[j] = cand
        assigned_at[j] = held_by
        wb = 1 << j
        for i in held_by:
            hold[i] |= wb
        newly_final = []
        is_reg = not triggered[j]
        for i, _ in acceptable[j]:
            rem_any[i] -= 1
            if is_reg:
                rem_reg[i] -= 1
            if rem_any[i] == 0:
                newly_final.append(i)
        dead = False
        for gi in member_groups.get(j, ()):
            if cand & group_firm[gi]:
                group_at[gi] += 1
            else:
                group_away[gi] += 1
            if group_at[gi] and group_away[gi]:
                dead = True
        if dead:
            return False
        for i in held_by:
            if firm_choice[i](hold[i]) != hold[i]:
                return False
        for i in newly_final:
            pool, fb, f_choice = hold[i], 1 << i, firm_choice[i]
            for j2 in interested[i]:
                own, wb2 = assigned[j2], 1 << j2
                if not own & fb and worker_choice[j2](own | fb) & fb and f_choice(pool | wb2) & wb2:
                    return False
        return True

    def unplace(j: int) -> None:
        cand = assigned[j]
        assigned[j] = 0
        wb = 1 << j
        for i in assigned_at[j]:
            hold[i] &= ~wb
        is_reg = not triggered[j]
        for i, _ in acceptable[j]:
            rem_any[i] += 1
            if is_reg:
                rem_reg[i] += 1
        for gi in member_groups.get(j, ()):
            if cand & group_firm[gi]:
                group_at[gi] -= 1
            else:
                group_away[gi] -= 1

    if not workers:
        if masks.stable(assigned, hold):
            yield assigned_at
        return
    # Level j of the stack is an iterator over worker j's candidates; every
    # level below the top has placed its worker.
    last = len(workers) - 1
    pending = [iter(candidates(0))]
    nodes = 0
    j = 0
    while True:
        step = next(pending[j], None)
        if step is None:
            if not j:
                return
            pending.pop()
            j -= 1
            unplace(j)
            continue
        nodes += 1
        if nodes > node_bound:
            raise SearchBoundExceeded(nodes, node_bound)
        if place(j, *step):
            if j < last:
                j += 1
                pending.append(iter(candidates(j)))
                continue
            if masks.stable(assigned, hold):
                yield assigned_at
        unplace(j)


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
    sorted order).  The offers are every subset when the universe has at
    most exhaustive_limit members; otherwise 512 subsets drawn by a random
    generator seeded with 0, so the verdict is deterministic.
    """
    u = sorted(spec_universe(spec))
    n = len(u)
    chosen = _mask_choice(spec, u, {x: 1 << i for i, x in enumerate(u)}, {})
    if n <= exhaustive_limit:
        offers: Iterable[int] = range(1 << n)
    else:
        rng = random.Random(0)
        offers = (sum(1 << i for i in range(n) if rng.random() < 0.5) for _ in range(512))
    for s in offers:
        picked = chosen(s)
        missing = 0  # picked partners x lost from the choice of s - {y}, y != x
        left = s
        while left:  # remove each partner y of s in turn, as its bit yb
            yb = left & -left
            left ^= yb
            rest = chosen(s ^ yb)
            if not picked & yb and rest != picked:
                return False, ("consistency", tuple(u[i] for i in _bits(s)), u[yb.bit_length() - 1])
            missing |= picked & ~rest & ~yb
        if missing:
            x = _bits(missing)[0]
            y = next(y for y in _bits(s) if y != x and not chosen(s ^ 1 << y) >> x & 1)
            return False, ("substitutability", tuple(u[i] for i in _bits(s)), (u[x], u[y]))
    return True, None
