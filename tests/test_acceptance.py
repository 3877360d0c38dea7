"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime and asserting the stated budget, plus a cross-check of the
constructed markets' search order on the whole corpus.

Budgets (wall clock): 1) 1s  2) 1s  3) 5s  4) 30s  5) 600s  6) 120s
7) 120s  8) 600s  9) 60s.  The agent-count bound for synthesis is pinned at
agents <= 1 * |X|^4.
"""

from __future__ import annotations

import random
import time

import pytest

from lattmark import (
    ExtendableMarket,
    FirmOrder,
    JoinConstraint,
    antichain_base,
    antimatroid_constraints,
    firm_order_compare,
    canonical_partial_rep,
    check_order_isomorphism,
    check_path_independence,
    compute_path_poset,
    constraints_from_lattice,
    deferred_acceptance,
    enumerate_stable,
    extract_rotations,
    filter_lower_sets,
    independent_set_antimatroid,
    is_stable,
    join_irreducibles,
    lower_sets,
    min_cost_feasible,
    min_cost_stable,
    omega_extend,
    project_to_base,
    matching_to_rotations,
    rotations_to_matching,
    reduce_to_matching,
    synthesize_from_lattice,
    validate_antimatroid,
)
from lattmark.fixtures import (
    diamond_lattice,
    four_element_antimatroid,
    hexagon_lattice,
    pentagon_lattice,
    seven_pair_market,
    seven_pair_rotations,
    seven_pair_stable_matchings,
)
from lattmark.generators import all_lattices_upto, random_antimatroid, random_graph, random_lattice
from lattmark.markets import Matching, MatchingMarket, _Masks
from lattmark.orders import trivial_poset

from oracles import augmentation_copies, independence_number

AGENT_BOUND_FACTOR = 1  # agents <= factor * |X|^4 on every synthesized market
SEED = 2024


def report(criterion: int, elapsed: float, budget: float, detail: str = ""):
    print(f"PASS criterion {criterion}: {elapsed:.2f}s (budget {budget:.0f}s) {detail}")
    assert elapsed < budget


@pytest.fixture(scope="module")
def suite_lattices():
    rng = random.Random(SEED)
    named = [
        ("hexagon", hexagon_lattice()),
        ("pentagon", pentagon_lattice()),
        ("diamond", diamond_lattice()),
    ]
    named += [(f"exhaustive-{i}", lat) for i, lat in enumerate(all_lattices_upto(5))]
    named += [(f"random-{i}", random_lattice(rng.randint(1, 8), rng)) for i in range(50)]
    return named


@pytest.fixture(scope="module")
def synthesized(suite_lattices):
    t0 = time.monotonic()
    out = []
    for name, lat in suite_lattices:
        out.append((name, lat, synthesize_from_lattice(lat)))
    return time.monotonic() - t0, out


@pytest.fixture(scope="module")
def worked_augmentation():
    market = seven_pair_market()
    rp = extract_rotations(market)
    names = {}
    for rid, rot in rp.rotations.items():
        for key, (plus, minus) in seven_pair_rotations().items():
            if (rot.plus, rot.minus) == (plus, minus):
                names[key] = rid
    from lattmark import RealizedBase

    base = RealizedBase(market, rp)
    jc = JoinConstraint.make(
        [{names["rot1"]}, {names["rot2"]}], {names["rot3"], names["rot4"]}
    )
    em = omega_extend(base, [jc])
    return base, em, jc, names


def test_criterion_1_partial_representation_table():
    t0 = time.monotonic()
    lat = hexagon_lattice()
    rep = canonical_partial_rep(lat)
    assert rep == {
        "a": frozenset(),
        "b": frozenset({"b"}),
        "c": frozenset({"c"}),
        "d": frozenset({"c", "d"}),
        "e": frozenset({"c", "e"}),
        "f": frozenset({"b", "c", "d", "e"}),
    }
    report(1, time.monotonic() - t0, 1.0, "six-row representation table exact")


def test_criterion_2_constraint_filtering():
    t0 = time.monotonic()
    lat = hexagon_lattice()
    rep = canonical_partial_rep(lat)
    _, xj_poset = join_irreducibles(lat)
    family = lower_sets(xj_poset)
    assert len(family) == 10
    filtered = filter_lower_sets(family, constraints_from_lattice(lat))
    want = [set(), {"b"}, {"c"}, {"c", "d"}, {"c", "e"}, {"b", "c", "d", "e"}]
    assert [set(s) for s in filtered] == want
    ok, witness = check_order_isomorphism(rep, lat.poset, filtered, lambda a, b: a <= b)
    assert ok, witness
    report(2, time.monotonic() - t0, 1.0, "filtered family exact and order-isomorphic")


def test_criterion_3_golden_instance():
    t0 = time.monotonic()
    market = seven_pair_market()
    expected = seven_pair_stable_matchings()
    stables = enumerate_stable(market)
    assert {m.pairs for m in stables} == {m.pairs for m in expected.values()}
    assert len(stables) == 10

    rp = extract_rotations(market)
    got = {(rot.plus, rot.minus) for rot in rp.rotations.values()}
    want = seven_pair_rotations()
    assert got == set(want.values())
    names = {}
    for rid, rot in rp.rotations.items():
        for key, (plus, minus) in want.items():
            if (rot.plus, rot.minus) == (plus, minus):
                names[key] = rid
    p = rp.poset
    strict_pairs = {(a, b) for a in p.elements for b in p.elements if p.lt(a, b)}
    assert strict_pairs == {
        (names["rot1"], names["rot3"]),
        (names["rot1"], names["rot4"]),
    }

    assert deferred_acceptance(market, "firms") == expected["mu10"]
    assert deferred_acceptance(market, "workers") == expected["mu1"]
    report(3, time.monotonic() - t0, 5.0, "ten matchings, four rotations, both optima")


def test_criterion_4_worked_augmentation(worked_augmentation):
    t0 = time.monotonic()
    _, em, _, _ = worked_augmentation
    (_,) = em.constraints
    assert em.market.spec("w0#1").watch == frozenset({"f1", "f2", "f3", "f4", "f5"})
    assert em.market.spec("f0#1").else_set == augmentation_copies(em, 1)
    assert {em.copy_map[c] for c in augmentation_copies(em, 1)} == {"w3", "w4", "w6", "w7"}

    assert {f: em.market.spec(f).aux_pairs for f in em.base.market.firms} == {
        "f1": (("w1", "w0#1"),),
        "f2": (("w2", "w0#1"),),
        "f3": (("w3", "w0#1"),),
        "f4": (("w4", "w0#1"),),
        "f5": (("w5", "w0#1"),),
        "f6": (),
        "f7": (),
    }
    copy_lists = {
        "w3#1": ("f0#1", "f6"),
        "w4#1": ("f0#1", "f7"),
        "w6#1": ("f0#1", "f4"),
        "w7#1": ("f0#1", "f2"),
    }
    for copy_id, firms in copy_lists.items():
        assert tuple(next(iter(e)) for e in em.market.spec(copy_id).entries) == firms

    stables = enumerate_stable(em.market)
    assert len(stables) == 7

    expected = seven_pair_stable_matchings()
    rename = {
        "w0": "w0#1", "f0": "f0#1",
        "w3''": "w3#1", "w4''": "w4#1", "w6''": "w6#1", "w7''": "w7#1",
    }
    listed = {
        "mu1''": [("f1", "w1"), ("f1", "w0"), ("f2", "w2"), ("f2", "w0"), ("f3", "w3"), ("f3", "w0"),
                  ("f4", "w4"), ("f4", "w0"), ("f5", "w5"), ("f5", "w0"), ("f6", "w6"), ("f7", "w7"),
                  ("f0", "w3''"), ("f0", "w4''"), ("f0", "w6''"), ("f0", "w7''")],
        "mu2''": [("f1", "w5"), ("f2", "w2"), ("f2", "w0"), ("f3", "w3"), ("f3", "w0"), ("f4", "w4"),
                  ("f4", "w0"), ("f5", "w1"), ("f6", "w6"), ("f7", "w7"),
                  ("f0", "w3''"), ("f0", "w4''"), ("f0", "w6''"), ("f0", "w7''")],
        "mu3''": [("f1", "w1"), ("f1", "w0"), ("f2", "w4"), ("f3", "w2"), ("f4", "w3"), ("f5", "w5"),
                  ("f5", "w0"), ("f6", "w6"), ("f7", "w7"),
                  ("f0", "w3''"), ("f0", "w4''"), ("f0", "w6''"), ("f0", "w7''")],
        "mu5''": [("f1", "w1"), ("f1", "w0"), ("f2", "w4"), ("f3", "w2"), ("f4", "w6"), ("f5", "w5"),
                  ("f5", "w0"), ("f6", "w3"), ("f7", "w7"),
                  ("f0", "w3''"), ("f0", "w4''"), ("f0", "w6''"), ("f0", "w7''")],
        "mu6''": [("f1", "w1"), ("f1", "w0"), ("f2", "w7"), ("f3", "w2"), ("f4", "w3"), ("f5", "w5"),
                  ("f5", "w0"), ("f6", "w6"), ("f7", "w4"),
                  ("f0", "w3''"), ("f0", "w4''"), ("f0", "w6''"), ("f0", "w7''")],
        "mu9''": [("f1", "w1"), ("f1", "w0"), ("f2", "w7"), ("f3", "w2"), ("f4", "w6"), ("f5", "w5"),
                  ("f5", "w0"), ("f6", "w3"), ("f7", "w4"),
                  ("f0", "w3''"), ("f0", "w4''"), ("f0", "w6''"), ("f0", "w7''")],
        "mu10''": [("f1", "w5"), ("f2", "w7"), ("f2", "w7''"), ("f3", "w2"), ("f4", "w6"), ("f4", "w6''"),
                   ("f5", "w1"), ("f6", "w3"), ("f6", "w3''"), ("f7", "w4"), ("f7", "w4''"), ("f0", "w0")],
    }
    want = {
        name: frozenset((rename.get(f, f), rename.get(w, w)) for f, w in pairs)
        for name, pairs in listed.items()
    }
    assert {m.pairs for m in stables} == set(want.values())
    assert deferred_acceptance(em.market, "workers").pairs == want["mu1''"]
    assert deferred_acceptance(em.market, "firms").pairs == want["mu10''"]

    projected = {project_to_base(em, mu).pairs for mu in stables}
    assert projected == {
        expected[k].pairs for k in ("mu1", "mu2", "mu3", "mu5", "mu6", "mu9", "mu10")
    }
    report(4, time.monotonic() - t0, 30.0, "augmentation artifacts and seven matchings exact")


def test_criterion_5_synthesis_property_suite(synthesized):
    build_time, instances = synthesized
    t0 = time.monotonic()
    worst_ratio = 0.0
    for name, lat, result in instances:
        em = result.extendable
        market = em.market
        stables = enumerate_stable(market)
        assert len(stables) == len(lat.elements), name

        by_key = {m.key(): f"s{i}" for i, m in enumerate(stables)}
        mapping = {x: by_key[result.iso[x].key()] for x in lat.elements}

        def stable_leq(k1, k2, _s=stables, _m=market, _b=by_key):
            i1 = next(i for i, m in enumerate(_s) if _b[m.key()] == k1)
            i2 = next(i for i, m in enumerate(_s) if _b[m.key()] == k2)
            cmp = firm_order_compare(_m, _s[i1], _s[i2])
            return cmp in (FirmOrder.LEQ, FirmOrder.EQ)

        ok, witness = check_order_isomorphism(
            mapping, lat.poset, [f"s{i}" for i in range(len(stables))], stable_leq
        )
        assert ok, (name, witness)

        n = len(lat.elements)
        ratio = em.agent_count() / n ** 4
        worst_ratio = max(worst_ratio, ratio)
        assert em.agent_count() <= AGENT_BOUND_FACTOR * n ** 4, (name, em.agent_count())
    report(
        5,
        build_time + time.monotonic() - t0,
        600.0,
        f"{len(instances)} lattices, worst agents/|X|^4 = {worst_ratio:.3f}",
    )


def test_criterion_6_path_independence_suite(synthesized, worked_augmentation):
    t0 = time.monotonic()
    _, em4, _, _ = worked_augmentation
    specs = set()
    for _, _, result in synthesized[1]:
        market = result.extendable.market
        for agent in (*market.firms, *market.workers):
            specs.add(market.spec(agent))
    for agent in (*em4.market.firms, *em4.market.workers):
        specs.add(em4.market.spec(agent))
    checked = 0
    for spec in sorted(specs, key=repr):
        ok, witness = check_path_independence(spec)
        assert ok, (spec, witness)
        checked += 1
    report(6, time.monotonic() - t0, 120.0, f"{checked} distinct choice functions")


def feasible_by_constraints(fam, pp):
    """The ground subsets whose complement, the rotations that occurred,
    satisfies every constraint of the reduction."""
    ground = fam.ground_set
    occurred = filter_lower_sets(lower_sets(trivial_poset(ground)), antimatroid_constraints(pp))
    return {ground - t for t in occurred}


def test_criterion_7_antimatroid_suite():
    t0 = time.monotonic()
    fam = four_element_antimatroid()
    assert validate_antimatroid(fam) == (True, None)
    pp = compute_path_poset(fam)
    endpoint_of = pp.endpoint_of()
    assert endpoint_of[frozenset({"a"})] == "a"
    assert endpoint_of[frozenset({"a", "c"})] == "c"
    assert endpoint_of[frozenset({"a", "c", "d"})] == "d"
    assert feasible_by_constraints(fam, pp) == set(fam.feasible)

    rng = random.Random(SEED)
    for _ in range(100):
        fam = random_antimatroid(rng.randint(1, 6), rng)
        assert validate_antimatroid(fam) == (True, None)
        pp = compute_path_poset(fam)
        assert feasible_by_constraints(fam, pp) == set(fam.feasible)
    report(7, time.monotonic() - t0, 120.0, "fixture plus 100 random instances")


def reduction_graphs():
    """The graph gadgets of criterion 8: named paths and cycles plus 25 seeded random graphs."""
    graphs = [
        ("K3", ["u", "v", "x"], [("u", "v"), ("v", "x"), ("u", "x")]),
        ("P3", ["u", "v", "x"], [("u", "v"), ("v", "x")]),
        ("C4", ["v1", "v2", "v3", "v4"],
         [("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v1", "v4")]),
        ("C5", ["v1", "v2", "v3", "v4", "v5"],
         [("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v4", "v5"), ("v1", "v5")]),
    ]
    rng = random.Random(SEED)
    for i in range(25):
        vertices, edges = random_graph(rng.randint(1, 5), rng)
        graphs.append((f"random-{i}", vertices, edges))
    return graphs


def test_criterion_8_reduction_end_to_end():
    t0 = time.monotonic()
    graphs = reduction_graphs()
    for name, vertices, edges in graphs:
        fam, weights = independent_set_antimatroid(vertices, edges)
        costs = {x: -w for x, w in weights.items()}
        pp = compute_path_poset(fam)
        bundle = reduce_to_matching(pp, costs)
        mu, value = min_cost_stable(bundle.extendable.market, bundle.pair_costs)
        best_set, best_value = min_cost_feasible(fam, costs)
        assert value == best_value, name  # exact rational equality
        recovered = bundle.recover(mu)
        assert recovered in set(fam.feasible), name
        assert sum(costs[x] for x in recovered) == best_value, name

        _, max_value = min_cost_feasible(fam, weights, sense="max")
        assert max_value == independence_number(vertices, edges), name
    report(8, time.monotonic() - t0, 600.0, f"{len(graphs)} graphs, zero-tolerance equality")


def test_criterion_9_representation_round_trip(synthesized, seven_base):
    t0 = time.monotonic()
    fixtures = [
        seven_pair_market(),
        antichain_base(["p"]).market,
        antichain_base(["p", "q"]).market,
        antichain_base(["p", "q", "r"]).market,
    ]
    for market in fixtures:
        rp = extract_rotations(market)
        stables = enumerate_stable(market)
        family = lower_sets(rp.poset)
        assert len(family) == len(stables)
        for r in family:
            mu = rotations_to_matching(rp, r)
            assert is_stable(market, mu)
            assert matching_to_rotations(rp, mu) == r
        # matching_to_rotations is an order isomorphism onto the lower closed sets
        rep = {m.key(): matching_to_rotations(rp, m) for m in stables}
        for m1 in stables:
            for m2 in stables:
                cmp = firm_order_compare(market, m1, m2)
                contains = rep[m1.key()] >= rep[m2.key()]
                assert contains == (cmp in (FirmOrder.GEQ, FirmOrder.EQ))

    # The lattice certificate reads a base's stable matchings off its rotation
    # poset; check that against the exhaustive enumerator on every base the
    # synthesis corpus (criterion 5) and the reductions (criterion 8) build.
    bases = [seven_base, *(result.extendable.base for _, _, result in synthesized[1])]
    for _, vertices, edges in reduction_graphs():
        fam, _ = independent_set_antimatroid(vertices, edges)
        bases.append(reduce_to_matching(compute_path_poset(fam), {}).extendable.base)
    for base in bases:
        rp = base.rotation_poset
        rebuilt = {rotations_to_matching(rp, r) for r in lower_sets(rp.poset)}
        assert rebuilt == set(enumerate_stable(base.market)), sorted(rp.ids())
    report(9, time.monotonic() - t0, 60.0, f"bijection and order preserved on all fixtures, {len(bases)} bases")


def _in_step_order(em):
    """em's market with the workers declared in step order: the sorted base
    workers, then each augmentation's sorted copies and its auxiliary worker."""
    workers = sorted(em.base.market.workers)
    for k in range(1, len(em.constraints) + 1):
        workers += [*sorted(augmentation_copies(em, k)), f"w0#{k}"]
    return MatchingMarket(em.market.firms, tuple(workers), em.market.choice)


def test_search_order_leaves_every_corpus_enumeration_unchanged(synthesized, worked_augmentation):
    """A constructed market declares its workers in constraint order; the
    enumeration must equal the one in step order on the criterion-5
    lattices, the criterion-8 reductions and the seven-pair base."""
    t0 = time.monotonic()
    base, em4, _, _ = worked_augmentation
    ems = [ExtendableMarket(base), em4, *(result.extendable for _, _, result in synthesized[1])]
    for _, vertices, edges in reduction_graphs():
        fam, _ = independent_set_antimatroid(vertices, edges)
        ems.append(reduce_to_matching(compute_path_poset(fam), {}).extendable)
    reordered = 0
    for em in ems:
        step_order = _in_step_order(em)
        reordered += em.market.workers != step_order.workers
        assert enumerate_stable(em.market) == enumerate_stable(step_order)
    assert reordered
    print(f"search order: {len(ems)} markets, {reordered} reordered, {time.monotonic() - t0:.2f}s")


@pytest.fixture(scope="module")
def corpus_markets(synthesized):
    """The criterion-5 markets and the criterion-8 reductions."""
    out = [result.extendable.market for _, _, result in synthesized[1]]
    for _, vertices, edges in reduction_graphs():
        fam, weights = independent_set_antimatroid(vertices, edges)
        out.append(reduce_to_matching(compute_path_poset(fam), weights).extendable.market)
    return out


def _bit_mask(bit, names):
    return sum(bit[x] for x in names)


def _subsets_of(items):
    for mask in range(1 << len(items)):
        yield frozenset(x for i, x in enumerate(items) if mask >> i & 1)


def test_mask_kernel_choice_matches_each_spec_on_the_corpus(corpus_markets):
    """enumerate_stable's memoised mask choice equals the spec's own choose on
    every subset of every universe of at most 16 partners, for every agent."""
    t0 = time.monotonic()
    subsets = 0
    for market in corpus_markets:
        masks = _Masks(market)
        sides = [(market.firms, masks.firm_choice, masks.worker_bit),
                 (market.workers, masks.worker_choice, masks.firm_bit)]
        for agents, memo, bit in sides:
            for agent, chosen in zip(agents, memo):
                spec = market.spec(agent)
                universe = sorted(spec.universe)
                if len(universe) > 16:
                    continue
                for offered in _subsets_of(universe):
                    want = _bit_mask(bit, spec.choose(offered))
                    assert chosen(_bit_mask(bit, offered)) == want, (agent, sorted(offered))
                    subsets += 1
    print(f"mask choice: {subsets} offers, {time.monotonic() - t0:.2f}s")


def test_mask_leaf_check_matches_is_stable_on_the_corpus(corpus_markets):
    """The kernel's leaf check agrees with is_stable on every stable matching
    of the corpus, on each with one pair removed, and on each with one
    acceptable pair added; the corpus holds both verdicts."""
    t0 = time.monotonic()
    rng = random.Random(SEED)
    verdicts = {True: 0, False: 0}
    for market in corpus_markets:
        masks = _Masks(market)
        acceptable = sorted((f, w) for w in market.workers for f in market.spec(w).universe)
        for mu in enumerate_stable(market):
            variants = [mu]
            if mu.pairs:
                variants.append(Matching(mu.pairs - {rng.choice(sorted(mu.pairs))}))
            outside = [p for p in acceptable if p not in mu.pairs]
            if outside:
                variants.append(Matching(mu.pairs | {rng.choice(outside)}))
            for nu in variants:
                assigned = [_bit_mask(masks.firm_bit, nu.firms_of(w)) for w in market.workers]
                hold = [_bit_mask(masks.worker_bit, nu.workers_of(f)) for f in market.firms]
                want = is_stable(market, nu)
                assert masks.stable(assigned, hold) == want, sorted(nu.pairs)
                verdicts[want] += 1
    assert verdicts[True] and verdicts[False], verdicts
    print(f"leaf check: {verdicts}, {time.monotonic() - t0:.2f}s")
