"""A differential corpus of arbitrary path-independent many-to-many markets.

The other market tests meet the search, deferred acceptance and the firm
order on markets built by the construction and on one-to-one markets.  Here
every agent's choice is a test double: the union, over a few preference
lists of single partners, of each list's best offered partner.  A union of
path-independent choice functions is path-independent, so the search's
generic rules (the anchor interval, permanent firm individual rationality,
the pool-complete blocking check) must hold on every such market.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations

from lattmark import (
    Matching,
    MatchingMarket,
    check_path_independence,
    deferred_acceptance,
    enumerate_stable,
    firm_leq,
    is_stable,
    min_cost_stable,
    stable_lattice,
)
from lattmark import markets

from oracles import (
    choose_by_sets,
    firm_leq_by_pairs,
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
