from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattmark import (
    FirmOrder,
    Matching,
    MatchingMarket,
    PreferenceList,
    Regular,
    Triggered,
    firm_leq,
    firm_order_compare,
    check_path_independence,
    choose,
    deferred_acceptance,
    enumerate_stable,
    independent_set_antimatroid,
    is_distributive,
    is_stable,
    min_cost_stable,
    stable_lattice,
    synthesize_from_lattice,
)
from lattmark import markets
from lattmark.antimatroids import compute_path_poset, reduce_to_matching
from lattmark.errors import InputError, SearchBoundExceeded, SpecError, UnknownPartnerId
from lattmark.markets import spec_universe

from oracles import (
    blocking_pairs,
    chain_lattice,
    choose_by_sets,
    deferred_acceptance_by_sets,
    firm_leq_by_pairs,
    firms_of,
    if_else,
    if_else_by_sets,
    is_individually_rational,
    min_cost_by_matchings,
    on_masks_by_sets,
    one_to_one_stable_matchings,
    path_independence_by_subsets,
    reference_stable_matchings,
    stable_by_blocking_pairs,
    workers_of,
    wrap_compiled_choices,
)
from test_union_markets import UnionOfLists


def two_list_market():
    return MatchingMarket(
        ("fa", "fb"),
        ("wa", "wb"),
        {
            "fa": PreferenceList.of("wb", "wa"),
            "fb": PreferenceList.of("wa", "wb"),
            "wa": PreferenceList.of("fa", "fb"),
            "wb": PreferenceList.of("fb", "fa"),
        },
    )


FAMILY_SPECS = [
    PreferenceList.of({"p0", "p1"}, "p2", "p0"),
    Triggered(
        frozenset({"f1", "f2", "f3"}), "f0",
        alpha_groups=(frozenset({"r1"}), frozenset({"r2"})),
        blocks=(("r1", frozenset({"f2", "f3"})), ("r2", frozenset({"f1"}))),
    ),
    if_else("p0", {"p1", "p2", "p3"}),
    Regular((frozenset({"p0", "p1"}), frozenset({"p2"})), (("p0", "p4"), ("p2", "p5"))),
]


class TestChoose:
    def test_preference_list_picks_first_contained_entry(self):
        spec = PreferenceList.of({"w1", "w2"}, "w1")
        assert choose(spec, {"w1", "w3"}) == frozenset({"w1"})
        assert choose(spec, {"w1", "w2", "w3"}) == frozenset({"w1", "w2"})
        assert choose(spec, {"w3"}) == frozenset()

    def test_if_else(self):
        spec = if_else("w0", {"w3", "w4"})
        assert choose(spec, {"w0", "w3"}) == frozenset({"w0"})
        assert choose(spec, {"w3", "w9"}) == frozenset({"w3"})

    def test_if_else_is_the_two_tier_regular_choice(self):
        """Regular's tiers ({p}, E - {p}) choose what the if-else definition
        does, with p inside E and outside it, on every offer over universes
        of up to 5 partners, and name the same universe."""
        for n in range(1, 6):
            partners = [f"x{i}" for i in range(n)]
            subsets = [frozenset(x for i, x in enumerate(partners) if m >> i & 1) for m in range(1 << n)]
            for else_set in subsets:
                for p in partners:
                    spec = if_else(p, else_set)
                    assert spec_universe(spec) == else_set | {p}
                    for offer in subsets:
                        assert choose(spec, offer) == if_else_by_sets(p, else_set, offer), (p, else_set, offer)

    def test_triggered_selects_watch_and_gates_the_trigger(self):
        spec = Triggered(
            frozenset({"f1", "f2", "f3"}), "f0",
            alpha_groups=(frozenset({"r1"}), frozenset({"r2"})),
            blocks=(("r1", frozenset({"f2", "f3"})), ("r2", frozenset({"f1"}))),
        )
        # all watched firms offered: no rotation hidden, trigger stays out
        assert choose(spec, {"f0", "f1", "f2", "f3"}) == frozenset({"f1", "f2", "f3"})
        # nothing else offered: both rotations hidden, trigger fires
        assert choose(spec, {"f0"}) == frozenset({"f0"})
        # one block visible: alpha not satisfied
        assert choose(spec, {"f0", "f1"}) == frozenset({"f1"})

    def test_regular_tiers_and_aux(self):
        spec = Regular(
            tiers=(frozenset({"w5", "w5x"}), frozenset({"w1"})),
            aux_pairs=(("w1", "w0"),),
        )
        assert choose(spec, {"w5", "w1"}) == frozenset({"w5"})
        assert choose(spec, {"w1", "w0"}) == frozenset({"w1", "w0"})
        assert choose(spec, {"w5", "w0"}) == frozenset({"w5"})
        # no tier hit at all: the aux addition still applies
        assert choose(spec, {"w0"}) == frozenset({"w0"})

    def test_regular_invariants_enforced(self):
        with pytest.raises(SpecError):
            Regular(tiers=(frozenset({"w"}), frozenset({"w"})), aux_pairs=())
        with pytest.raises(SpecError):
            Regular(tiers=(frozenset({"w"}),), aux_pairs=(("zz", "w0"),))

    def test_partners_outside_the_universe_never_change_the_choice(self):
        """choose, derived from each family's mask definition, equals the
        frozenset oracle on the offer's part in the universe."""
        for spec in FAMILY_SPECS:
            universe = spec_universe(spec)
            offerable = sorted(universe | {"outsider"})
            for mask in range(1 << len(offerable)):
                s = frozenset(x for i, x in enumerate(offerable) if mask >> i & 1)
                chosen = choose(spec, s)
                assert chosen <= s & universe, (spec, s)
                assert chosen == choose_by_sets(spec, s & universe), (spec, s)

    def test_each_compiled_choice_is_a_subset_of_its_offer(self):
        """On a bit map that also holds partners outside the universe, in
        shuffled positions, each compiled choice picks a subset of the offer,
        ignores the outside bits and equals the frozenset oracle."""
        rng = random.Random(5)
        for spec in FAMILY_SPECS:
            names = sorted(spec_universe(spec) | {"out0", "out1"})
            positions = rng.sample(range(len(names)), len(names))
            bit = {x: 1 << p for x, p in zip(names, positions)}
            inside = sum(bit[x] for x in spec_universe(spec))
            chosen = spec.on_masks(bit)
            for offer in range(1 << len(names)):
                got = chosen(offer)
                assert not got & ~offer and got == chosen(offer & inside), (spec, offer)
                want = choose_by_sets(spec, (x for x in names if offer & bit[x]))
                assert got == sum(bit[x] for x in want), (spec, offer)

    def test_choose_is_subset_and_idempotent(self):
        rng = random.Random(1)
        universe = [f"p{i}" for i in range(6)]
        specs = [
            PreferenceList.of({"p0", "p1"}, "p0", {"p2"}),
            if_else("p0", {"p1", "p2", "p3"}),
            Regular((frozenset({"p0", "p1"}), frozenset({"p2"})), (("p2", "p4"),)),
        ]
        for spec in specs:
            for _ in range(40):
                t = frozenset(u for u in universe if rng.random() < 0.5)
                chosen = choose(spec, t)
                assert chosen <= t
                assert choose(spec, chosen) == chosen


class TestStability:
    def test_market_validation(self):
        with pytest.raises(SpecError):
            MatchingMarket(("f",), ("w",), {"f": PreferenceList.of("nope")})

    def test_empty_matching_is_individually_rational(self, seven_market):
        assert is_individually_rational(seven_market, Matching(frozenset()))[0]

    def test_unacceptable_pair_with_witness(self, seven_market):
        ok, agent = is_individually_rational(seven_market, Matching.of([("f1", "w2")]))
        assert not ok and agent == "f1"

    def test_golden_matchings_are_stable(self, seven_market, seven_stables):
        for mu in seven_stables.values():
            assert is_stable(seven_market, mu)
            assert blocking_pairs(seven_market, mu) == []

    def test_empty_matching_blocks(self, seven_market):
        assert ("f1", "w1") in blocking_pairs(seven_market, Matching(frozenset()))

    def test_removing_a_pair_exposes_a_blocker(self, seven_market, seven_stables):
        mu4 = seven_stables["mu4"]
        damaged = Matching(mu4.pairs - {("f4", "w3")})
        assert ("f4", "w3") in blocking_pairs(seven_market, damaged)
        damaged1 = Matching(seven_stables["mu1"].pairs - {("f1", "w1")})
        assert not is_stable(seven_market, damaged1)

    def test_an_unknown_partner_is_named_with_the_other_member_of_its_pair(self, seven_market):
        cases = [
            (("f1", "zz"), "'zz' is not a declared partner for agent 'f1'"),  # unknown worker
            (("zz", "w1"), "'zz' is not a declared partner for agent 'w1'"),  # unknown firm
            (("w1", "f1"), "pair ('w1', 'f1') is reversed: 'w1' is a worker, where the firm goes"),
        ]
        for pair, message in cases:
            for check in (is_stable, stable_by_blocking_pairs):
                with pytest.raises(UnknownPartnerId) as exc:
                    check(seven_market, Matching.of([pair]))
                assert str(exc.value) == message, check


class TestDeferredAcceptance:
    def test_seven_pair_extremes(self, seven_market, seven_stables):
        assert deferred_acceptance(seven_market, "firms") == seven_stables["mu10"]
        assert deferred_acceptance(seven_market, "workers") == seven_stables["mu1"]

    def test_two_gadget(self):
        m = two_list_market()
        assert deferred_acceptance(m, "firms") == Matching.of([("fa", "wb"), ("fb", "wa")])
        assert deferred_acceptance(m, "workers") == Matching.of([("fa", "wa"), ("fb", "wb")])

    def test_empty_preferences_give_empty_matching(self):
        m = MatchingMarket(("f",), ("w",), {})
        assert deferred_acceptance(m, "firms") == Matching(frozenset())

    def test_a_bad_proposing_side_raises(self, seven_market):
        for da in (deferred_acceptance, deferred_acceptance_by_sets):
            with pytest.raises(InputError, match="'firms' or 'workers'"):
                da(seven_market, "banks")


def _count_compiled_evaluations_outside_deferred_acceptance(monkeypatch):
    """Count the evaluations of every choice compiled from here on, per
    (compiled function, offer mask), so per agent and offer, except those
    made by deferred acceptance, which calls the compiled choices directly
    rather than through the kernel's memo: its mask core, which the search
    calls, and deferred_acceptance, which decodes the core's outcome."""
    calls = Counter()
    counting = [True]

    def count(chosen):
        def counted(offer):
            if counting[0]:
                calls[id(counted), offer] += 1
            return chosen(offer)
        return counted

    def uncounted(fn):
        def run(*args, **kwargs):
            counting[0] = False
            try:
                return fn(*args, **kwargs)
            finally:
                counting[0] = True
        return run

    wrap_compiled_choices(monkeypatch, count)
    monkeypatch.setattr(markets, "deferred_acceptance", uncounted(markets.deferred_acceptance))
    monkeypatch.setattr(markets._Masks, "deferred_acceptance", uncounted(markets._Masks.deferred_acceptance))
    return calls


class TestEnumerate:
    def test_seven_pair_exact_set(self, seven_market, seven_stables):
        got = enumerate_stable(seven_market)
        assert {m.key() for m in got} == {m.key() for m in seven_stables.values()}

    def test_against_rank_table_oracle(self, seven_market):
        firm_lists = {f: [next(iter(e)) for e in seven_market.spec(f).entries] for f in seven_market.firms}
        worker_lists = {w: [next(iter(e)) for e in seven_market.spec(w).entries] for w in seven_market.workers}
        oracle = one_to_one_stable_matchings(firm_lists, worker_lists)
        got = sorted(m.pairs for m in enumerate_stable(seven_market))
        assert sorted(oracle, key=sorted) == sorted(got, key=sorted)

    def test_random_one_to_one_markets_match_oracle(self):
        rng = random.Random(77)
        for _ in range(25):
            nf, nw = rng.randint(1, 4), rng.randint(1, 4)
            firms = [f"f{i}" for i in range(nf)]
            workers = [f"w{i}" for i in range(nw)]
            firm_lists = {}
            worker_lists = {}
            choice = {}
            for f in firms:
                ws = rng.sample(workers, rng.randint(0, nw))
                firm_lists[f] = ws
                if ws:
                    choice[f] = PreferenceList.of(*ws)
            for w in workers:
                fs = rng.sample(firms, rng.randint(0, nf))
                worker_lists[w] = fs
                if fs:
                    choice[w] = PreferenceList.of(*fs)
            market = MatchingMarket(tuple(firms), tuple(workers), choice)
            got = sorted((m.pairs for m in enumerate_stable(market)), key=sorted)
            # one-sided listings can neither match nor block, so the rank
            # oracle sees the mutually trimmed lists
            fl = {f: [w for w in ws if f in worker_lists.get(w, [])] for f, ws in firm_lists.items()}
            wl = {w: [f for f in fs if w in firm_lists.get(f, [])] for w, fs in worker_lists.items()}
            want = one_to_one_stable_matchings(fl, wl)
            assert sorted(want, key=sorted) == got

    def test_stable_holds_are_in_key_order_when_declared_order_is_not_name_order(self):
        """stable_holds sorts on masks by each agent's rank among its side's
        names, so its order is Matching.key's, not the declared positions'
        (f2, f10, f1 and wc, wa, wb)."""
        firms, workers = ("f2", "f10", "f1"), ("wc", "wa", "wb")
        choice = {f: PreferenceList.of(*(workers[(i + k) % 3] for k in range(3))) for i, f in enumerate(firms)}
        choice.update({w: PreferenceList.of(*(firms[(j + 1 + k) % 3] for k in range(3))) for j, w in enumerate(workers)})
        market = MatchingMarket(firms, workers, choice)
        holds = markets.stable_holds(market)
        assert [market.kernel.decode(h) for h in holds] == sorted(reference_stable_matchings(market), key=Matching.key)
        by_position = sorted(holds, key=lambda h: sorted((i, j) for i, held in enumerate(h) for j in range(3) if held >> j & 1))
        assert len(holds) == 3 and holds != by_position

    def test_empty_market(self):
        m = MatchingMarket((), (), {})
        assert enumerate_stable(m) == [Matching(frozenset())]

    @pytest.mark.parametrize("e1, e2", [
        (Regular((frozenset({"f"}), frozenset({"g"})), ()), PreferenceList.of("f", "h")),
        (PreferenceList.of("f", "g"), PreferenceList.of({"f", "h"}, "f", "h")),
    ], ids=["regular-first-tier", "list-with-set-first-entry"])
    def test_if_else_group_of_workers_that_always_take_the_firm(self, e1, e2):
        """Firm f's fallback workers e1 and e2 take f out of every offer, and
        one of them is not a list whose first entry is {f}: the if-else group
        rule applies, and f holds either its priority worker p or both."""
        market = MatchingMarket(("f", "g", "h"), ("p", "e1", "e2"), {
            "f": if_else("p", {"e1", "e2"}),
            "g": PreferenceList.of("e1", "p"),
            "h": PreferenceList.of("e2"),
            "p": PreferenceList.of("g", "f"),
            "e1": e1,
            "e2": e2,
        })
        got = enumerate_stable(market)
        assert got == reference_stable_matchings(market)
        assert len(got) == 2
        assert {workers_of(mu, "f") for mu in got} == {frozenset({"p"}), frozenset({"e1", "e2"})}

    def test_if_else_fallback_workers_split_when_one_prefers_another_firm(self):
        """e1 takes g before f, so the group rule must not apply: the one
        stable matching gives f only e2."""
        market = MatchingMarket(("f", "g"), ("p", "e1", "e2"), {
            "f": if_else("p", {"e1", "e2"}),
            "g": PreferenceList.of("e1", "p"),
            "p": PreferenceList.of("g"),
            "e1": Regular((frozenset({"g"}), frozenset({"f"})), ()),
            "e2": PreferenceList.of("f"),
        })
        got = enumerate_stable(market)
        assert got == reference_stable_matchings(market) == [Matching.of([("f", "e2"), ("g", "e1")])]

    def test_an_if_else_group_leaves_out_a_priority_worker_listed_as_a_fallback(self):
        """f's else-set also names its priority worker p.  The group is what
        f does not choose from its universe, {e} alone, so p with f and e
        unmatched is not split off as half a group: it is the one stable
        matching."""
        market = MatchingMarket(("f",), ("p", "e"), {
            "f": if_else("p", {"e", "p"}),
            "p": PreferenceList.of("f"),
            "e": PreferenceList.of("f"),
        })
        got = enumerate_stable(market)
        assert got == reference_stable_matchings(market) == [Matching.of([("f", "p")])]

    def test_a_triggered_worker_is_not_forced_while_a_later_arrival_can_displace_it(self):
        """f takes t2 over t1, and the trigger firm g accepts no one.  When t1
        is placed f demands it, but t2 comes later and would displace it, so
        f's demand for t1 is not fixed and t1 is not forced onto f: the one
        stable matching gives f only t2."""
        triggered = Triggered(frozenset({"f"}), "g", (), ())
        market = MatchingMarket(("f", "g"), ("t1", "t2"), {
            "f": if_else("t2", {"t1"}),
            "g": Regular((), ()),
            "t1": triggered,
            "t2": triggered,
        })
        got = enumerate_stable(market)
        assert got == reference_stable_matchings(market) == [Matching.of([("f", "t2")])]

    def test_both_rules_run_on_any_family_whose_choices_meet_them(self):
        """Regular firm f chooses p from its pool and takes the rest, e1 and
        e2, whole; p beats each of them, and each takes f from its whole
        universe, so the group rule applies.  Worker d, a preference list,
        takes its better firm of each of two swap gadgets, so two firms from
        its universe, and mutual demand runs on it.  The search takes 42
        nodes; with the group rule alone it takes 66, with mutual demand
        alone 78, and with neither 126.  Enumeration and branch and bound
        agree with the reference."""
        market = MatchingMarket(("a1", "a2", "b1", "b2", "f", "g", "h"), ("e1", "e2", "y1", "y2", "d", "p"), {
            "f": Regular((frozenset({"p"}), frozenset({"e1", "e2"})), ()),
            "g": PreferenceList.of("e1", "p"),
            "h": PreferenceList.of("e2"),
            "p": PreferenceList.of("g", "f"),
            "e1": Regular((frozenset({"f"}), frozenset({"g"})), ()),
            "e2": PreferenceList.of("f", "h"),
            "a1": PreferenceList.of("d", "y1"), "b1": PreferenceList.of("y1", "d"),
            "a2": PreferenceList.of("d", "y2"), "b2": PreferenceList.of("y2", "d"),
            "y1": PreferenceList.of("a1", "b1"), "y2": PreferenceList.of("a2", "b2"),
            "d": PreferenceList.of({"b1", "b2"}, {"b1", "a2"}, {"a1", "b2"}, {"a1", "a2"}, "b1", "a1", "b2", "a2"),
        })
        assert all(check_path_independence(spec)[0] for spec in market.choice.values())
        want = reference_stable_matchings(market)
        assert enumerate_stable(market, node_bound=42) == want and len(want) == 8
        with pytest.raises(SearchBoundExceeded) as exc:
            enumerate_stable(market, node_bound=41)
        assert exc.value.explored == 42
        rng = random.Random(5)
        pairs = sorted({p for mu in want for p in mu.pairs})
        for _ in range(20):
            pair_costs = {p: Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for p in pairs}
            for sense in ("min", "max"):
                assert min_cost_stable(market, pair_costs, sense) == min_cost_by_matchings(want, pair_costs, sense)

    def test_a_group_needs_each_chosen_worker_to_beat_each_member(self):
        """f takes the best offered worker of each of two lists, (u, x, y, v)
        and (v, y, x, u).  It chooses u and v from its pool and takes the
        rest, x and y, whole, and each of x and y takes f from everything;
        but x stays beside u (x is in ch_f({u, x})), so a hold can meet both
        parts and the group rule must not apply.  The one stable matching
        gives f x and v without y, and a group rule without the pair
        condition loses it."""
        market = MatchingMarket(("f", "g"), ("u", "x", "y", "v"), {
            "f": UnionOfLists([("u", "x", "y", "v"), ("v", "y", "x", "u")]),
            "g": PreferenceList.of("u"),
            "u": PreferenceList.of("g", "f"),
            "x": PreferenceList.of("f"),
            "y": PreferenceList.of("f"),
            "v": PreferenceList.of("f"),
        })
        assert check_path_independence(market.spec("f")) == (True, None)
        want = [Matching.of([("f", "x"), ("f", "v"), ("g", "u")])]
        assert enumerate_stable(market) == reference_stable_matchings(market) == want

    def test_each_offer_is_evaluated_once(self, quad_antimatroid, monkeypatch):
        """Past deferred acceptance, enumerate_stable on a fresh market
        evaluates each agent's compiled choice at most once per distinct
        offer, through its memo: the anchors' stability checks and the
        search share the market's kernel, and a second enumeration
        evaluates nothing."""
        market = reduce_to_matching(compute_path_poset(quad_antimatroid), {}).extendable.market
        want = enumerate_stable(market)
        fresh = MatchingMarket(market.firms, market.workers, market.choice)
        calls = _count_compiled_evaluations_outside_deferred_acceptance(monkeypatch)
        assert markets.enumerate_stable(fresh) == want
        assert calls and max(calls.values()) == 1, calls.most_common(1)
        calls.clear()
        assert markets.enumerate_stable(fresh) == want
        assert not calls, calls.most_common(1)

    def test_a_scan_above_the_memo_limit_stores_nothing(self, pentagon, monkeypatch):
        """A triggered worker searched before its firms are settled scans
        every subset of its universe.  Within the limit the memo keeps each
        scanned subset; above it only the offers the search makes, and the
        output is the same."""
        built = synthesize_from_lattice(pentagon, verify=False).extendable.market
        within, above = (MatchingMarket(built.firms, built.workers[::-1], built.choice) for _ in range(2))
        subsets = {w: 2 ** len(built.spec(w).universe)
                   for w in built.workers if isinstance(built.spec(w), Triggered)}
        want = enumerate_stable(built)
        assert markets.enumerate_stable(within) == want
        monkeypatch.setattr(markets, "_SCAN_MEMO_LIMIT", 0)
        assert markets.enumerate_stable(above) == want
        memo_within, memo_above = (dict(zip(m.workers, m.kernel.worker_choice)) for m in (within, above))
        assert any(len(memo_within[w]) == n for w, n in subsets.items())
        assert all(len(memo_above[w]) < n for w, n in subsets.items())

    def test_worker_permutation_does_not_change_results(self, seven_market):
        m = seven_market
        reversed_market = MatchingMarket(m.firms, m.workers[::-1], m.choice)
        assert enumerate_stable(reversed_market) == enumerate_stable(m)

    def test_node_counts_are_pinned(self, seven_market, pentagon, hexagon):
        """The smallest node_bound under which each search completes, recorded
        from the recursive search before it became one loop: that bound
        passes and one less raises SearchBoundExceeded, so the loop visits
        the same nodes.  The K3 and C4 reductions are counted on their
        rewritten (narrower) join constraints."""

        def reduction(vertices, edges):
            fam, _ = independent_set_antimatroid(vertices, edges)
            return reduce_to_matching(compute_path_poset(fam), {}).extendable.market

        cases = [
            ("seven-pair", seven_market, 112),
            ("pentagon", synthesize_from_lattice(pentagon, verify=False).extendable.market, 195),
            ("hexagon", synthesize_from_lattice(hexagon, verify=False).extendable.market, 845),
            ("16-chain", synthesize_from_lattice(chain_lattice(16), verify=False).extendable.market, 1994),
            ("K3", reduction(["u", "v", "x"], [("u", "v"), ("v", "x"), ("u", "x")]), 1135),
            ("C4", reduction(["v1", "v2", "v3", "v4"], [("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v1", "v4")]),
             4167),
        ]
        for name, market, nodes in cases:
            enumerate_stable(market, node_bound=nodes)
            with pytest.raises(SearchBoundExceeded) as exc:
                enumerate_stable(market, node_bound=nodes - 1)
            assert exc.value.explored == nodes, name

    def test_solve_node_counts_are_pinned(self):
        """The smallest node_bound under which min_cost_stable completes on the
        K3 and C4 reductions with independent-set costs, under min and max.
        Branch and bound starts from the cheaper deferred-acceptance anchor
        (from the sum of the positive costs, these were 352, 184, 535 and
        339), and the optimum does not move."""
        cases = [
            ("K3", ["u", "v", "x"], [("u", "v"), ("v", "x"), ("u", "x")], {"min": (352, -1), "max": (183, 3)}),
            ("C4", ["v1", "v2", "v3", "v4"], [("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v1", "v4")],
             {"min": (535, -2), "max": (338, 4)}),
        ]
        for name, vertices, edges, pins in cases:
            fam, weights = independent_set_antimatroid(vertices, edges)
            bundle = reduce_to_matching(compute_path_poset(fam), {x: -w for x, w in weights.items()})
            market, pair_costs = bundle.extendable.market, bundle.pair_costs
            for sense, (nodes, value) in pins.items():
                assert min_cost_stable(market, pair_costs, sense, node_bound=nodes)[1] == value, (name, sense)
                with pytest.raises(SearchBoundExceeded) as exc:
                    min_cost_stable(market, pair_costs, sense, node_bound=nodes - 1)
                assert exc.value.explored == nodes, (name, sense)


class TestFirmOrder:
    def test_top_dominates(self, seven_market, seven_stables):
        assert firm_order_compare(seven_market, seven_stables["mu10"], seven_stables["mu4"]) is FirmOrder.GEQ

    def test_reflexive_equality(self, seven_market, seven_stables):
        assert firm_order_compare(seven_market, seven_stables["mu1"], seven_stables["mu1"]) is FirmOrder.EQ

    def test_incomparable_pair(self, seven_market, seven_stables):
        assert firm_order_compare(seven_market, seven_stables["mu2"], seven_stables["mu3"]) is FirmOrder.INCOMPARABLE

    def test_extremes_bound_everything(self, seven_market, seven_stables):
        top, bottom = seven_stables["mu10"], seven_stables["mu1"]
        for mu in seven_stables.values():
            assert firm_order_compare(seven_market, top, mu) in (FirmOrder.GEQ, FirmOrder.EQ)
            assert firm_order_compare(seven_market, bottom, mu) in (FirmOrder.LEQ, FirmOrder.EQ)

    def test_opposition_of_interests(self, seven_market, seven_stables):
        ms = list(seven_stables.values())
        for m1 in ms:
            for m2 in ms:
                if firm_order_compare(seven_market, m1, m2) is not FirmOrder.GEQ:
                    continue
                for w in seven_market.workers:
                    union = firms_of(m1, w) | firms_of(m2, w)
                    assert choose(seven_market.spec(w), union) == firms_of(m2, w)

    def test_firm_leq_is_the_pairwise_order(self, seven_market, seven_stables):
        """firm_order_compare reads firm_leq, so the reference is the
        oracle's one comparison per pair of matchings."""
        ms = [*seven_stables.values(), seven_stables["mu4"]]  # one matching twice
        assert firm_leq(seven_market, ms) == firm_leq_by_pairs(seven_market, ms)
        assert firm_leq(seven_market, []) == frozenset()


class TestStableLattice:
    def test_seven_pair_is_a_ten_element_distributive_lattice(self, seven_market):
        lat, ms = stable_lattice(seven_market)
        assert len(ms) == 10
        assert is_distributive(lat)[0]

    def test_two_gadget_is_a_two_chain(self):
        lat, ms = stable_lattice(two_list_market())
        assert len(ms) == 2
        assert len(lat.poset.covers) == 1


class TestPathIndependence:
    def test_responsive_preference_lists_pass(self):
        ok, _ = check_path_independence(PreferenceList.of({"w1", "w2"}, "w1", "w2"))
        assert ok

    def test_truncated_set_list_is_not_substitutable(self):
        # w2 is chosen inside {w1, w2} but rejected alone: substitutability
        # fails once the singleton entry is omitted
        ok, witness = check_path_independence(PreferenceList.of({"w1", "w2"}, "w1"))
        assert not ok and witness[0] == "substitutability"

    def test_every_family_passes(self):
        specs = [
            PreferenceList.of("a", "b", "c"),
            Triggered(frozenset({"f1", "f2"}), "f0", (frozenset({"r1"}),), (("r1", frozenset({"f1", "f2"})),)),
            if_else("w0", {"w1", "w2"}),
            Regular((frozenset({"w1", "w1x"}), frozenset({"w2"})), (("w2", "w0"),)),
        ]
        for spec in specs:
            ok, witness = check_path_independence(spec)
            assert ok, witness

    def test_broken_choice_yields_witness(self):
        # chooses a from {a, b} but drops it once b is gone
        spec = PreferenceList.of({"a", "b"}, {"b"})
        ok, witness = check_path_independence(spec)
        assert not ok and witness[0] == "substitutability"

    def test_exhaustive_verdicts_and_witnesses_match_the_subset_reference(self):
        """The mask table returns the frozenset reference's verdict and
        witness on random choice tables, which break either property."""

        class Table(markets._Family):
            def __init__(self, universe, table):
                self.universe, self.table = frozenset(universe), table

            def choose(self, offered):
                return self.table[frozenset(offered)]

            def on_masks(self, bit):
                return on_masks_by_sets(self.choose, bit)

        rng = random.Random(11)
        kinds = Counter()
        for _ in range(300):
            u = [f"p{i}" for i in range(rng.randint(1, 5))]
            table = {}
            for mask in range(1 << len(u)):
                s = [x for i, x in enumerate(u) if mask >> i & 1]
                table[frozenset(s)] = frozenset(x for x in s if rng.random() < 0.9)
            spec = Table(u, table)
            got = check_path_independence(spec)
            assert got == path_independence_by_subsets(spec), sorted(u)
            kinds[got[1][0] if got[1] else "ok"] += 1
        assert set(kinds) == {"ok", "consistency", "substitutability"}, kinds

    def test_sampled_mode_on_large_universe(self):
        entries = [{f"w{i}"} for i in range(20)]
        spec = PreferenceList.of(*entries)
        ok, _ = check_path_independence(spec)
        assert ok

    def test_sampled_verdicts_and_witnesses_match_the_subset_reference(self):
        """Above exhaustive_limit partners the check returns the frozenset
        reference's verdict and witness on the same 512 seeded subsets."""

        class Lazy(markets._Family):
            """A choice rule over the offer sorted best first."""

            def __init__(self, n, rule):
                self.universe, self.rule = frozenset(f"p{i:02}" for i in range(n)), rule

            def choose(self, offered):
                return frozenset(self.rule(sorted(offered)))

            def on_masks(self, bit):
                return on_masks_by_sets(self.choose, bit)

        specs = [
            Lazy(17, lambda s: s[:3]),  # responsive: the best three
            # the best one while the worst partner is offered, else the best
            # two: substitutable, but dropping the worst changes the choice
            Lazy(18, lambda s: s[:1 if "p17" in s else 2]),
            # p00 and p01 only together: consistent, not substitutable
            Lazy(19, lambda s: s if {"p00", "p01"} <= set(s) else set(s) - {"p00", "p01"}),
            Regular(tuple(frozenset({f"w{i}", f"w{i}x"}) for i in range(9)), (("w0", "a0"), ("w8", "a1"))),
            Triggered(
                frozenset(f"f{i:02}" for i in range(19)), "t",
                alpha_groups=(frozenset({"r1"}), frozenset({"r2"})),
                blocks=(("r1", frozenset({"f00", "f01"})), ("r2", frozenset({"f02"}))),
            ),
        ]
        kinds = Counter()
        for spec in specs:
            u = sorted(spec_universe(spec))
            assert 17 <= len(u) <= 20
            rng = random.Random(0)
            subsets = [frozenset(x for x in u if rng.random() < 0.5) for _ in range(512)]
            got = check_path_independence(spec)
            assert got == path_independence_by_subsets(spec, subsets), u
            kinds[got[1][0] if got[1] else "ok"] += 1
        assert kinds == {"ok": 3, "consistency": 1, "substitutability": 1}, kinds

    @settings(max_examples=60, derandomize=True)
    @given(st.integers(min_value=0, max_value=2 ** 12 - 1))
    def test_consistency_of_regular_specs(self, mask):
        universe = sorted(spec_universe(
            Regular((frozenset({"a", "b"}), frozenset({"c", "d"})), (("c", "x"), ("a", "y")))
        ))
        spec = Regular((frozenset({"a", "b"}), frozenset({"c", "d"})), (("c", "x"), ("a", "y")))
        t = frozenset(u for i, u in enumerate(universe) if mask >> i & 1)
        chosen = choose(spec, t)
        for y in t - chosen:
            assert choose(spec, t - {y}) == chosen


class TestInputValidation:
    def test_trigger_rule_arguments_need_blocks(self):
        with pytest.raises(SpecError):
            Triggered(frozenset({"f1"}), "f0", alpha_groups=(frozenset({"r9"}),), blocks=())

    def test_trigger_blocks_must_lie_in_the_universe(self):
        # a block firm outside watch | {trigger} would make the choice depend
        # on a partner outside the spec's universe
        rule = (frozenset({"r1"}),), (("r1", frozenset({"f9"})),)
        with pytest.raises(SpecError):
            Triggered(frozenset({"f1"}), "f0", *rule)
        assert Triggered(frozenset({"f1", "f9"}), "f0", *rule).universe == {"f0", "f1", "f9"}
        assert Triggered(frozenset({"f1"}), "f9", *rule).universe == {"f1", "f9"}

    def test_node_bound_is_enforced(self, seven_market):
        with pytest.raises(SearchBoundExceeded) as exc:
            enumerate_stable(seven_market, node_bound=3)
        assert exc.value.explored > 3
