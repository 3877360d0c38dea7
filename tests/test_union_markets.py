"""A differential corpus of arbitrary path-independent many-to-many markets.

The other market tests meet the search, deferred acceptance and the firm
order on markets built by the construction and on one-to-one markets.  Here
every agent's choice is a test double: the union, over a few preference
lists of single partners, of each list's best offered partner.  A union of
path-independent choice functions is path-independent, so the search's
generic rules (the anchor interval, permanent firm individual rationality,
the pool-complete blocking check) must hold on every such market.

A second corpus draws every spec from the three families, the if-else
choice as Regular's two-tier case among them, with random fields and keeps a
market only when each spec is path-independent: the search's rules gated on
what a choice does (mutual demand, the group rule) must hold there too, also
on markets the construction never builds.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations

from lattmark import (
    Matching,
    MatchingMarket,
    PreferenceList,
    Regular,
    Triggered,
    check_path_independence,
    deferred_acceptance,
    enumerate_stable,
    firm_leq,
    is_stable,
    min_cost_stable,
    stable_lattice,
    synthesize_from_lattice,
)
from lattmark import markets
from lattmark.antimatroids import compute_path_poset, reduce_to_matching

from oracles import (
    choose_by_sets,
    firm_leq_by_pairs,
    if_else,
    min_cost_by_matchings,
    reference_stable_matchings,
    stable_by_blocking_pairs,
    workers_of,
)


class UnionOfLists(markets._Family):
    """Each list's best offered partner, joined over the lists."""

    def __init__(self, lists):
        self.lists = tuple(tuple(ranked) for ranked in lists)
        self.universe = frozenset(x for ranked in self.lists for x in ranked)
        self.memo = {}  # offer -> choice, for choose

    def on_masks(self, bit):
        lists = [[bit[x] for x in ranked] for ranked in self.lists]

        def chosen(offer):
            out = 0
            for ranked in lists:
                out |= next((b for b in ranked if offer & b), 0)
            return out
        return chosen

    def choose(self, offered):
        """The same choice on frozensets, the oracle's own (choose_by_sets)."""
        if offered not in self.memo:
            self.memo[offered] = frozenset(next(x for x in ranked if x in offered) for ranked in self.lists
                                           if not offered.isdisjoint(ranked))
        return self.memo[offered]

    def candidates(self):
        items = sorted(self.universe)
        return [frozenset(s) for k in range(len(items) + 1) for s in combinations(items, k)]


def _lists(own, others, rng):
    """A perturbed cyclic list, starting at the partner own and cut short
    with probability 0.3, plus with probability 0.3 each up to two random
    lists."""
    n = len(others)
    first = [others[(own + k) % n] for k in range(n)]
    for k in range(n - 1):
        if rng.random() < 0.1:
            first[k], first[k + 1] = first[k + 1], first[k]
    lists = [first[:rng.randint(2, n)] if rng.random() < 0.3 else first]
    while len(lists) < 3 and rng.random() < 0.3:
        lists.append(rng.sample(others, rng.randint(1, n)))
    return lists


def union_market(n_firms, n_workers, rng):
    firms = [f"f{i}" for i in range(n_firms)]
    workers = [f"w{j}" for j in range(n_workers)]
    choice = {f: UnionOfLists(_lists(i, workers, rng)) for i, f in enumerate(firms)}
    # workers rank firms from the next one on, against the firms' cycle
    choice.update({w: UnionOfLists(_lists(j + 1, firms, rng)) for j, w in enumerate(workers)})
    return MatchingMarket(tuple(firms), tuple(workers), choice)


def union_corpus():
    """300 seeded markets: 100 of 3 firms and 3 workers, 100 of 4 and 4, 30
    of 5 and 5 (as many of each, the cyclic lists give most stable
    matchings), and 70 of 3-5 firms and 3-5 workers.  The reference search
    takes about 0.2 s on a market of 5 and 5, so those are few."""
    rng = random.Random(17)
    shapes = [(3, 3)] * 100 + [(4, 4)] * 100 + [(5, 5)] * 30
    shapes += [(rng.randint(3, 5), rng.randint(3, 5)) for _ in range(70)]
    return [union_market(n_firms, n_workers, rng) for n_firms, n_workers in shapes]


def firm_leq_by_definition(market, ms):
    """ms[i] <= ms[j] when every firm chooses its ms[j] partners from the
    union of its partners under both, on frozensets."""
    return frozenset(
        (i, j) for i, mi in enumerate(ms) for j, mj in enumerate(ms)
        if all(choose_by_sets(market.spec(f), workers_of(mi, f) | workers_of(mj, f)) == workers_of(mj, f)
               for f in market.firms))


def test_union_markets_agree_with_the_oracles():
    t0 = time.monotonic()
    rng = random.Random(3)
    corpus = union_corpus()
    sizes, shared = [], 0
    for market in corpus:
        ms = enumerate_stable(market)
        assert ms == reference_stable_matchings(market), market
        sizes.append(len(ms))
        shared += any(len({p[k] for p in mu.pairs}) < len(mu.pairs) for mu in ms for k in (0, 1))

        acceptable = sorted((f, w) for f in market.firms for w in market.spec(f).universe)
        probes = [*ms, *(Matching(mu.pairs - {p}) for mu in ms for p in mu.pairs)]
        probes += [Matching.of(p for p in acceptable if rng.random() < 0.4) for _ in range(4)]
        for mu in probes:
            assert is_stable(market, mu) == stable_by_blocking_pairs(market, mu), (market, mu)

        leq = firm_leq(market, ms)
        assert leq == firm_leq_by_pairs(market, ms) == firm_leq_by_definition(market, ms), market
        top, bottom = ms.index(deferred_acceptance(market, "firms")), ms.index(deferred_acceptance(market, "workers"))
        assert all((k, top) in leq and (bottom, k) in leq for k in range(len(ms))), market
        stable_lattice(market)

        pair_costs = {p: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for p in acceptable if rng.random() < 0.7}
        for sense in ("min", "max"):
            assert min_cost_stable(market, pair_costs, sense) == min_cost_by_matchings(ms, pair_costs, sense)

        for spec in {id(s): s for s in market.choice.values()}.values():
            assert check_path_independence(spec) == (True, None)
    assert len(corpus) >= 300 and max(sizes) >= 3 and shared >= 100
    print(f"union markets: {len(corpus)}, stable matchings per market up to {max(sizes)}, "
          f"{sum(s > 1 for s in sizes)} with more than one, {shared} with an agent of several partners "
          f"in a stable matching, {time.monotonic() - t0:.2f}s")


def test_stable_holds_are_the_stable_leaves_in_key_order():
    """stable_holds returns the search's leaves sorted as their decodings
    sort by Matching.key, on the union corpus and on each of its markets
    with both declared orders reversed, so that declared order is not name
    order."""
    corpus = union_corpus()
    corpus += [MatchingMarket(m.firms[::-1], m.workers[::-1], m.choice) for m in corpus]
    reordered = 0
    for market in corpus:
        leaves = [market.kernel.decode(hold) for hold, _ in markets._stable_leaves(market, markets.DEFAULT_NODE_BOUND, {})]
        decoded = [market.kernel.decode(hold) for hold in markets.stable_holds(market)]
        assert decoded == sorted(leaves, key=Matching.key), market
        reordered += decoded != leaves
    assert len(corpus) == 600 and reordered >= 50, reordered


def test_the_search_takes_back_every_placement(pentagon, hexagon, quad_antimatroid):
    """Once _stable_leaves is exhausted, the hold list it yielded, the
    search's own state, is empty again: every placement was taken back.
    With and without an int cost table, on the union corpus, the pentagon's
    and the hexagon's built markets and a reduction bundle's market."""
    rng = random.Random(5)
    corpus = union_corpus()
    corpus += [synthesize_from_lattice(lat, verify=False).extendable.market for lat in (pentagon, hexagon)]
    corpus.append(reduce_to_matching(compute_path_poset(quad_antimatroid), {}).extendable.market)
    for market in corpus:
        acceptable = market.kernel.acceptable
        costs = {j: {i: rng.randint(-9, 9) for i in acceptable[j] if rng.random() < 0.7}
                 for j in range(len(market.workers))}
        for table in ({}, costs):
            yielded = [hold for hold, _ in markets._stable_leaves(market, markets.DEFAULT_NODE_BOUND, table)]
            assert yielded and all(hold is yielded[0] for hold in yielded), market
            assert not any(yielded[0]), (market, table)
    assert len(corpus) == 303


def random_spec(partners, rng):
    """A spec of one of four kinds, picked uniformly, over some of the
    partners, with random fields (any of them may leave the spec not
    path-independent): a preference list, a triggered spec, an if-else
    choice (Regular's two-tier case) or a Regular spec of up to three
    tiers."""
    def some(pool):
        return frozenset(x for x in pool if rng.random() < 0.5)
    family = rng.randrange(4)
    if family == 0:
        subsets = [frozenset(s) for k in range(1, len(partners) + 1) for s in combinations(partners, k)]
        return PreferenceList(tuple(rng.sample(subsets, min(len(subsets), rng.randint(0, 3)))))
    if family == 1:
        watch, trigger = some(partners), rng.choice(partners)
        blocks = tuple((f"r{k}", some(sorted(watch | {trigger}))) for k in range(rng.randint(0, 2)))
        ids = [r for r, _ in blocks]
        groups = tuple(some(ids) or frozenset(ids[:1]) for _ in range(rng.randint(0, 2))) if ids else ()
        return Triggered(watch, trigger, groups, blocks)
    if family == 2:
        return if_else(rng.choice(partners), some(partners))
    tiers = [set() for _ in range(rng.randint(1, 3))]
    for x in partners:
        if rng.random() < 0.7:
            rng.choice(tiers).add(x)
    tiers = tuple(frozenset(t) for t in tiers if t)
    anchors = sorted(frozenset().union(*tiers))
    seconds = rng.sample(partners, rng.randint(0, min(2, len(partners)))) if anchors else []
    return Regular(tiers, tuple((rng.choice(anchors), s) for s in seconds))


def family_corpus(n, seed):
    """n seeded markets of 1-4 firms and 1-4 workers whose specs are
    random_spec draws, each kept only when every spec passes
    check_path_independence (exhaustive at these sizes)."""
    rng = random.Random(seed)
    corpus = []
    while len(corpus) < n:
        firms = tuple(f"f{i}" for i in range(rng.randint(1, 4)))
        workers = tuple(f"w{j}" for j in range(rng.randint(1, 4)))
        choice = {f: random_spec(workers, rng) for f in firms}
        choice.update({w: random_spec(firms, rng) for w in workers})
        if all(check_path_independence(spec)[0] for spec in choice.values()):
            corpus.append(MatchingMarket(firms, workers, choice))
    return corpus


def test_random_family_markets_agree_with_the_reference():
    """On 3,000 path-independent markets of the three families,
    enumerate_stable equals the naive reference search.  Each of two rules
    that read a family's fields, not its choice, fails here on its own: an
    if-else group that counts a priority worker also listed in the else-set
    (115 markets wrong), and a firm's demand taken as fixed because the firm
    is Regular or if-else (5 wrong)."""
    t0 = time.monotonic()
    corpus = family_corpus(3000, 2)
    for market in corpus:
        assert enumerate_stable(market) == reference_stable_matchings(market), market
    families = {type(spec).__name__ for market in corpus for spec in market.choice.values()}
    assert families == {"PreferenceList", "Triggered", "Regular"}
    print(f"random family markets: {len(corpus)}, {time.monotonic() - t0:.2f}s")
