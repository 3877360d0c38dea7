from __future__ import annotations

import ast
import random
from collections import Counter
from fractions import Fraction

import pytest

from lattmark import (
    AntimatroidFamily,
    PathPoset,
    antichain_base,
    antimatroid_constraints,
    compute_path_poset,
    enumerate_stable,
    family_from_path_poset,
    independent_set_antimatroid,
    min_cost_feasible,
    min_cost_stable,
    reduce_to_matching,
    transfer_costs,
    validate_antimatroid,
    validate_path_poset,
)
from lattmark.errors import InputError, SearchBoundExceeded
from lattmark.generators import random_antimatroid, random_graph
from lattmark.markets import check_path_independence, spec_universe
from lattmark.orders import set_key, trivial_poset

from oracles import (
    antimatroid_axiom_failures,
    brute_force_satisfying_subsets,
    filter_lower_sets,
    full_antimatroid_constraints,
    independence_number,
    independent_set_family_by_filter,
    independent_set_path_poset,
    lower_sets,
    min_cost_by_matchings,
    pair_cost,
    path_file_accepted_by_closure,
    union_closure,
    union_irreducible_paths,
    validate_antimatroid_pairwise,
)
from test_acceptance import reduction_graphs


def feasible_by_constraints(ground, cs):
    """The subsets of the ground set whose complement, the rotations that
    occurred, satisfies every constraint."""
    ground = frozenset(ground)
    return {ground - t for t in filter_lower_sets(lower_sets(trivial_poset(ground)), cs)}


class TestValidation:
    def test_fixture_is_valid(self, quad_antimatroid):
        assert validate_antimatroid(quad_antimatroid) == (True, None)

    def test_missing_ground_set(self):
        fam = AntimatroidFamily.of(["a", "b"], [[], ["a"]])
        ok, witness = validate_antimatroid(fam)
        assert not ok and witness[0] == "ground-not-feasible"

    def test_union_closure_violation(self):
        fam = AntimatroidFamily.of(["a", "b"], [[], ["a"], ["b"]])
        ok, witness = validate_antimatroid(fam)
        assert not ok and witness[0] == "not-union-closed"

    def test_accessibility_violation(self):
        fam = AntimatroidFamily.of(["a", "b"], [[], ["a", "b"]])
        ok, witness = validate_antimatroid(fam)
        assert not ok and witness[0] == "not-accessible"


def _one_set_mutants(fam, rng):
    """The family with a non-empty non-ground set dropped, with the ground
    set dropped, with a random subset added, and with a copy of one set plus
    an element outside the ground set added."""
    sets = list(fam.feasible)
    droppable = [g for g in sets if g and g != fam.ground_set]
    out = [sets + [frozenset(x for x in fam.ground if rng.random() < 0.5)]]
    if droppable:
        dropped = rng.choice(droppable)
        out.append([g for g in sets if g != dropped])
    out.append([g for g in sets if g != fam.ground_set])
    out.append(sets + [rng.choice(sets) | {"zz"}])
    return [AntimatroidFamily.of(fam.ground, m) for m in out]


def _is_violation(fam, witness) -> bool:
    """The witness names a real breach of the axiom of its kind."""
    sets, ground = set(fam.feasible), fam.ground_set
    kind, what = witness
    if kind == "outside-ground":
        return bool(what) and any(g - ground == frozenset(what) for g in sets)
    if kind == "not-union-closed":
        a, b = map(frozenset, what)
        return a in sets and b in sets and a | b not in sets
    if kind == "ground-not-feasible":
        return ground not in sets
    if kind == "not-accessible":
        g = frozenset(what)
        return g in sets and bool(g) and not any(g - {x} in sets for x in g)
    return False


class TestAgainstThePairwiseOracle:
    def test_validation_and_paths_agree_on_random_families_and_their_mutants(self):
        rng = random.Random(43)
        seen = Counter()
        for _ in range(500):
            fam = random_antimatroid(rng.randint(1, 6), rng)
            for f in [fam, *_one_set_mutants(fam, rng)]:
                assert list(f.feasible) == sorted(set(f.feasible), key=set_key), f
                ok, witness = validate_antimatroid(f)
                failures = antimatroid_axiom_failures(f)
                assert ok == validate_antimatroid_pairwise(f)[0] == (not failures), f
                if ok:
                    seen["ok"] += 1
                    assert set(compute_path_poset(f).paths) == union_irreducible_paths(f), f
                    continue
                # the one-pass check raises the witness of the ordered scan
                with pytest.raises(InputError) as raised:
                    compute_path_poset(f)
                assert str(raised.value) == f"not an antimatroid: {witness}", f
                assert _is_violation(f, witness), (f, witness)
                if len(failures) == 1:
                    seen[witness[0]] += 1
                    assert {witness[0]} == failures, (f, witness)
        # every kind a one-set mutation can break alone is seen breaking alone
        alone = ("outside-ground", "not-union-closed", "not-accessible")
        assert seen["ok"] >= 500 and min(seen[k] for k in alone) >= 50, seen

    def test_each_witness_kind_alone(self):
        cases = {
            "outside-ground": [[], ["a"], ["a", "b"], ["a", "b", "c"], ["a", "b", "c", "z"]],
            "not-union-closed": [[], ["a"], ["b"], ["a", "c"], ["b", "c"], ["a", "b", "c"]],
            "ground-not-feasible": [[], ["a"], ["b"], ["a", "b"]],
            "not-accessible": [[], ["a"], ["a", "b", "c"]],
        }
        for kind, sets in cases.items():
            fam = AntimatroidFamily.of("abc", sets)
            assert antimatroid_axiom_failures(fam) == {kind}
            ok, witness = validate_antimatroid(fam)
            assert not ok and witness[0] == kind and _is_violation(fam, witness), kind
            with pytest.raises(InputError, match=f"^not an antimatroid: \\('{kind}'"):
                compute_path_poset(fam)


class TestPaths:
    def test_fixture_paths(self, quad_antimatroid):
        pp = compute_path_poset(quad_antimatroid)
        got = {(s, e) for s, e in pp.paths}
        assert got == {
            (frozenset({"a"}), "a"),
            (frozenset({"b"}), "b"),
            (frozenset({"a", "c"}), "c"),
            (frozenset({"a", "c", "d"}), "d"),
        }

    def test_single_element_free_antimatroid(self):
        fam = AntimatroidFamily.of(["x"], [[], ["x"]])
        pp = compute_path_poset(fam)
        assert pp.paths == ((frozenset({"x"}), "x"),)
        assert family_from_path_poset(pp) == fam

    def test_path_definitions_agree_on_random_instances(self):
        """compute_path_poset's one-endpoint paths are the oracle's
        union-irreducible sets, each with its endpoint, on seeded random
        antimatroids and on the criterion-8 independent-set families."""
        rng = random.Random(13)
        families = [random_antimatroid(rng.randint(1, 6), rng) for _ in range(500)]
        families += [independent_set_antimatroid(v, e)[0] for _, v, e in reduction_graphs()]
        for fam in families:
            assert validate_antimatroid(fam) == (True, None)
            assert set(compute_path_poset(fam).paths) == union_irreducible_paths(fam), fam

    def test_family_round_trip(self, quad_antimatroid):
        pp = compute_path_poset(quad_antimatroid)
        assert family_from_path_poset(pp) == quad_antimatroid

    def test_family_round_trip_on_random_instances(self):
        rng = random.Random(37)
        for _ in range(100):
            fam = random_antimatroid(rng.randint(1, 6), rng)
            assert family_from_path_poset(compute_path_poset(fam)) == fam

    def test_feasible_sets_are_unions_of_their_path_subsets(self, quad_antimatroid):
        pp = compute_path_poset(quad_antimatroid)
        for g in quad_antimatroid.feasible:
            assert frozenset().union(*(s for s, _ in pp.paths if s <= g)) == g


def _path_file_draw(rng):
    """(ground, paths) over at most 5 elements: an antimatroid's paths, by
    the oracle, with one mutation drawn (none, an endpoint restated, a path
    dropped, listed twice, added or replaced), or 0-6 freely drawn paths.
    A drawn set may hold z, which is outside the ground set."""
    n = rng.randint(0, 5)
    ground = [chr(ord("a") + i) for i in range(n)]
    pool = ground + ["z"]

    def drawn():
        s = frozenset(x for x in pool if rng.random() < (0.1 if x == "z" else 0.4))
        return s, rng.choice(sorted(s) or pool)

    if not n or rng.random() < 0.5:
        return ground, [drawn() for _ in range(rng.randint(0, 6))]
    paths = sorted(union_irreducible_paths(random_antimatroid(n, rng)), key=lambda p: (sorted(p[0]), p[1]))
    k = rng.randrange(len(paths))
    mutation = rng.randrange(6)
    if mutation == 1:
        paths[k] = (paths[k][0], rng.choice(pool))
    elif mutation == 2:
        del paths[k]
    elif mutation == 3:
        paths.append(paths[k])
    elif mutation == 4:
        paths.append(drawn())
    elif mutation == 5:
        paths[k] = drawn()
    return ground, paths


def _names_a_fault(ground, paths, witness) -> bool:
    """A validate_path_poset witness names a real fault of the path file."""
    kind, what = witness
    sets = [s for s, _ in paths]
    family = union_closure(sets)
    if kind == "outside-ground":
        return any(s - set(ground) == frozenset(what) != frozenset() for s in sets)
    if kind == "listed-twice":
        return sets.count(frozenset(what)) > 1
    if kind == "ground-not-feasible":
        return frozenset().union(*sets) != frozenset(ground)
    if kind == "not-accessible":
        g = frozenset(what)
        return g in family and bool(g) and not any(g - {x} in family for x in g)
    fam = AntimatroidFamily.of(ground, family)
    return (frozenset(kind), what) in paths and (frozenset(kind), what) not in union_irreducible_paths(fam)


class TestPathFileCheck:
    def test_check_agrees_with_the_closure_oracle(self):
        """validate_path_poset accepts exactly the path files whose union
        closure is an antimatroid with exactly the given paths, and each
        rejection names a real fault; every rejection kind occurs."""
        rng = random.Random(61)
        seen = Counter()
        for _ in range(4000):
            ground, paths = _path_file_draw(rng)
            accepted = path_file_accepted_by_closure(ground, paths)
            pp = PathPoset.of(ground, paths)
            try:
                assert validate_path_poset(pp) is pp and accepted, (ground, paths)
                seen["accepted"] += 1
            except InputError as exc:
                message = str(exc)
                witness = ast.literal_eval(message[message.index(": (") + 2:])
                assert not accepted and _names_a_fault(ground, paths, witness), (ground, paths, message)
                seen[witness[0] if isinstance(witness[0], str) else "not-a-path"] += 1
        kinds = ("accepted", "outside-ground", "listed-twice", "ground-not-feasible", "not-accessible", "not-a-path")
        assert min(seen[k] for k in kinds) >= 200, seen

    def test_family_of_a_rejected_path_file_is_not_formed(self):
        pp = PathPoset.of(["a", "b"], [({"a", "b"}, "a")])
        with pytest.raises(InputError, match="not-accessible"):
            family_from_path_poset(pp)


class TestConstraints:
    def test_fixture_filtering(self, quad_antimatroid):
        pp = compute_path_poset(quad_antimatroid)
        cs = antimatroid_constraints(pp)
        # a and b are singleton paths, so only c and d are constrained
        assert [c.beta_ids for c in cs] == [{"c"}, {"d"}]
        got = feasible_by_constraints(quad_antimatroid.ground, cs)
        assert got == set(quad_antimatroid.feasible)
        # independent brute force over all 16 subsets
        feasible = set(quad_antimatroid.feasible)
        want = brute_force_satisfying_subsets(
            quad_antimatroid.ground, lambda t: t in feasible
        )
        assert sorted(got, key=sorted) == sorted(want, key=sorted)

    def test_complement_semantics_on_fixture(self, quad_antimatroid):
        # each constraint is read on the complement of a candidate set
        pp = compute_path_poset(quad_antimatroid)
        (c_d,) = [c for c in antimatroid_constraints(pp) if c.beta_ids == frozenset({"d"})]
        assert c_d.holds(frozenset("abcd") - {"a", "c", "d"})
        assert not c_d.holds(frozenset("abcd") - {"d"})

    def test_element_in_no_path_is_everywhere_excluded(self):
        from lattmark.antimatroids import PathPoset

        pp = PathPoset.of(["x", "y"], [(frozenset({"x"}), "x")])
        cs = antimatroid_constraints(pp)
        got = feasible_by_constraints(pp.ground, cs)
        assert all("y" not in t for t in got)

    def test_random_instances_filter_back_to_family(self):
        rng = random.Random(31)
        for _ in range(60):
            fam = random_antimatroid(rng.randint(1, 6), rng)
            cs = antimatroid_constraints(compute_path_poset(fam))
            got = feasible_by_constraints(fam.ground, cs)
            assert got == set(fam.feasible)

    @staticmethod
    def _oracle_cases(quad_antimatroid):
        """The quad fixture, 100 seeded random antimatroids of 1-8 elements
        and every criterion-8 graph gadget of at most 12 elements."""
        rng = random.Random(71)
        fams = [quad_antimatroid] + [random_antimatroid(rng.randint(1, 8), rng) for _ in range(100)]
        gadgets = (independent_set_antimatroid(v, e)[0] for _, v, e in reduction_graphs())
        return fams + [fam for fam in gadgets if len(fam.ground) <= 12]

    def test_rewritten_constraints_admit_the_full_constraints_family(self, quad_antimatroid):
        """The rewritten constraints admit exactly the sets the unrewritten
        ones admit, over all 2^|ground| subsets."""
        for fam in self._oracle_cases(quad_antimatroid):
            pp = compute_path_poset(fam)
            want = feasible_by_constraints(fam.ground, full_antimatroid_constraints(pp))
            assert feasible_by_constraints(fam.ground, antimatroid_constraints(pp)) == want, fam

    def test_rewritten_constraints_are_narrow(self, quad_antimatroid):
        """No alpha meets its beta, no group strictly contains another, and
        an element that is a singleton path gets no constraint."""
        for fam in self._oracle_cases(quad_antimatroid):
            pp = compute_path_poset(fam)
            singletons = {x for s, x in pp.paths if s == {x}}
            for c in antimatroid_constraints(pp):
                assert not c.alpha_ids & c.beta_ids, (fam, c)
                assert not any(g < h for g in c.alpha_groups for h in c.alpha_groups), (fam, c)
                assert not c.beta_ids & singletons, (fam, c)


class TestIndependentSetGadget:
    def test_triangle(self):
        fam, weights = independent_set_antimatroid(["u", "v", "x"], [("u", "v"), ("v", "x"), ("u", "x")])
        assert validate_antimatroid(fam) == (True, None)
        _, value = min_cost_feasible(fam, weights, sense="max")
        assert value == 1

    def test_edgeless_graph(self):
        fam, weights = independent_set_antimatroid(["u", "v", "x"], [])
        _, value = min_cost_feasible(fam, weights, sense="max")
        assert value == 3

    def test_three_path(self):
        fam, weights = independent_set_antimatroid(["u", "v", "x"], [("u", "v"), ("v", "x")])
        _, value = min_cost_feasible(fam, weights, sense="max")
        assert value == 2

    def test_closure_equals_the_filtered_family(self):
        """The family closed from the gadget's paths is the one its definition
        filters out of all 2^|ground| subsets, and its paths are the given ones."""
        for seed in range(1, 6):
            vertices, edges = random_graph(6, random.Random(seed))
            fam, _ = independent_set_antimatroid(vertices, edges)
            assert fam == independent_set_family_by_filter(vertices, edges), seed
            assert compute_path_poset(fam) == independent_set_path_poset(vertices, edges), seed

    def test_matches_independence_number_on_random_graphs(self):
        rng = random.Random(19)
        for _ in range(40):
            n = rng.randint(1, 6)
            vertices, edges = random_graph(n, rng)
            fam, weights = independent_set_antimatroid(vertices, edges)
            _, value = min_cost_feasible(fam, weights, sense="max")
            assert value == independence_number(vertices, edges)


class TestCosts:
    def test_uniform_negative_cost_selects_ground(self, quad_antimatroid):
        best, value = min_cost_feasible(quad_antimatroid, {x: -1 for x in quad_antimatroid.ground})
        assert best == quad_antimatroid.ground_set and value == -4

    def test_uniform_positive_cost_selects_empty(self, quad_antimatroid):
        best, value = min_cost_feasible(quad_antimatroid, {x: 1 for x in quad_antimatroid.ground})
        assert best == frozenset() and value == 0

    def test_transfer_splits_evenly(self):
        base = antichain_base(["x"])
        costs = transfer_costs(base, {"x": 6})
        rot = base.rotation_poset.rotations["x"]
        assert costs == {pair: Fraction(3) for pair in rot.minus}

    def test_transfer_keeps_exact_rationals(self):
        base = antichain_base(["x"])
        costs = transfer_costs(base, {"x": 1})
        assert set(costs.values()) == {Fraction(1, 2)}

    def test_zero_costs_vanish(self):
        base = antichain_base(["x", "y"])
        assert transfer_costs(base, {}) == {}


class TestReduction:
    def test_fixture_reduction_bijects(self, quad_antimatroid):
        pp = compute_path_poset(quad_antimatroid)
        bundle = reduce_to_matching(pp, {x: -1 for x in quad_antimatroid.ground})
        ms = enumerate_stable(bundle.extendable.market)
        assert len(ms) == len(quad_antimatroid.feasible)
        recovered = {bundle.recover(mu) for mu in ms}
        assert recovered == set(quad_antimatroid.feasible)

    def test_single_element_reduction(self):
        fam = AntimatroidFamily.of(["x"], [[], ["x"]])
        bundle = reduce_to_matching(compute_path_poset(fam), {"x": 5})
        ms = enumerate_stable(bundle.extendable.market)
        assert {bundle.recover(mu) for mu in ms} == {frozenset(), frozenset({"x"})}

    def test_cost_identity_on_every_stable_matching(self, quad_antimatroid):
        rng = random.Random(3)
        pp = compute_path_poset(quad_antimatroid)
        costs = {x: rng.randint(-5, 5) for x in quad_antimatroid.ground}
        bundle = reduce_to_matching(pp, costs)
        for mu in enumerate_stable(bundle.extendable.market):
            recovered = bundle.recover(mu)
            assert pair_cost(bundle.pair_costs, mu) == sum(costs[x] for x in recovered)

    def test_firm_optimal_matching_costs_nothing(self, quad_antimatroid):
        from lattmark import deferred_acceptance

        pp = compute_path_poset(quad_antimatroid)
        bundle = reduce_to_matching(pp, {x: 7 for x in quad_antimatroid.ground})
        top = deferred_acceptance(bundle.extendable.market, "firms")
        assert pair_cost(bundle.pair_costs, top) == 0

    def test_three_path_reduction_value(self):
        fam, weights = independent_set_antimatroid(["u", "v", "x"], [("u", "v"), ("v", "x")])
        costs = {x: -w for x, w in weights.items()}
        bundle = reduce_to_matching(compute_path_poset(fam), costs)
        _, value = min_cost_stable(bundle.extendable.market, bundle.pair_costs)
        assert value == -2

    def test_min_and_max_senses_agree_with_feasible_side(self, quad_antimatroid):
        rng = random.Random(8)
        pp = compute_path_poset(quad_antimatroid)
        costs = {x: rng.randint(-4, 4) for x in quad_antimatroid.ground}
        bundle = reduce_to_matching(pp, costs)
        for sense in ("min", "max"):
            _, got = min_cost_stable(bundle.extendable.market, bundle.pair_costs, sense=sense)
            _, want = min_cost_feasible(quad_antimatroid, costs, sense=sense)
            assert got == want

    def test_integer_costing_matches_the_fraction_reference(self, quad_antimatroid):
        """min_cost_stable costs each matching as a scaled int; its optimum
        and argmin are the Fraction reference's, the first canonical matching
        of least (or greatest) pair_cost.  Both optima are tied."""
        costs = {"a": Fraction(1, 3), "b": 0, "c": 0, "d": Fraction(-7, 5)}
        bundle = reduce_to_matching(compute_path_poset(quad_antimatroid), costs)
        assert {v.denominator for v in bundle.pair_costs.values()} - {1}
        market = bundle.extendable.market
        ms = enumerate_stable(market)
        for sense, pick in (("min", min), ("max", max)):
            want = pick(pair_cost(bundle.pair_costs, mu) for mu in ms)
            assert sum(pair_cost(bundle.pair_costs, mu) == want for mu in ms) > 1, sense
            mu, value = min_cost_stable(market, bundle.pair_costs, sense=sense)
            assert isinstance(value, Fraction) and value == want, sense
            assert mu == next(m for m in ms if pair_cost(bundle.pair_costs, m) == want), sense

    def test_leaf_costing_matches_the_matching_by_matching_oracle(self):
        """min_cost_stable costs the search's leaves on masks; its value and
        matching equal the oracle's, which costs every canonically sorted
        Matching, on the criterion-8 reductions under min and max with
        zero costs on a third of the pairs (every matching ties, so the
        canonical first wins), mixed-denominator Fraction ground costs, and
        seeded random costs on a third of the pairs."""
        rng = random.Random(21)
        for name, vertices, edges in reduction_graphs():
            fam, _ = independent_set_antimatroid(vertices, edges)
            em = reduce_to_matching(compute_path_poset(fam), {}).extendable
            market = em.market
            ms = enumerate_stable(market)
            acceptable = sorted((f, w) for w in market.workers for f in market.spec(w).universe)
            ground = {x: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7))) for x in fam.ground}
            cases = {
                "zero": dict.fromkeys(rng.sample(acceptable, len(acceptable) // 3), Fraction(0)),
                "fractions": transfer_costs(em.base, ground),
                "random": {p: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                           for p in rng.sample(acceptable, len(acceptable) // 3)},
            }
            for kind, pair_costs in cases.items():
                for sense in ("min", "max"):
                    want = min_cost_by_matchings(ms, pair_costs, sense)
                    assert min_cost_stable(market, pair_costs, sense=sense) == want, (name, kind, sense)
                    assert kind != "zero" or want == (ms[0], 0), (name, sense)

    def test_cost_bound_matches_the_matching_by_matching_oracle(self):
        """min_cost_stable prunes on a cost floor; under min and max its value
        and matching equal the oracle's on seeded random antimatroid
        reductions and the independent-set reductions of K3, C5, K4 and
        random graphs.  The costs are skewed so the floor bites: large
        negative costs on the workers the search places last, positive ones
        on the first.  A second table puts -1 on one pair held by several,
        but not all, stable matchings, so the optimum ties."""
        rng = random.Random(61)
        k4 = ["a", "b", "c", "d"]
        families = [random_antimatroid(rng.randint(1, 4), rng) for _ in range(4)]
        graphs = [(["u", "v", "x"], [("u", "v"), ("v", "x"), ("u", "x")]),
                  ([f"v{i}" for i in range(5)], [(f"v{i}", f"v{(i + 1) % 5}") for i in range(5)]),
                  (k4, [(p, q) for i, p in enumerate(k4) for q in k4[i + 1:]])]
        graphs += [random_graph(rng.randint(2, 4), rng) for _ in range(3)]
        families += [independent_set_antimatroid(vertices, edges)[0] for vertices, edges in graphs]
        ties = 0
        for fam in families:
            market = reduce_to_matching(compute_path_poset(fam), {}).extendable.market
            ms = enumerate_stable(market)
            position = {w: j for j, w in enumerate(market.workers)}
            late = len(market.workers) // 2
            skewed = {(f, w): Fraction(-rng.randint(5, 20) if position[w] >= late else rng.randint(0, 5),
                                       rng.choice((1, 2, 3)))
                      for w in market.workers for f in market.spec(w).universe}
            held = Counter(pair for mu in ms for pair in mu.pairs)
            shared = [pair for pair, n in held.items() if 1 < n < len(ms)]
            tables = [skewed]
            if shared:
                tables.append({max(shared, key=lambda p: position[p[1]]): Fraction(-1)})
                ties += 1
            for pair_costs in tables:
                for sense in ("min", "max"):
                    want = min_cost_by_matchings(ms, pair_costs, sense)
                    assert min_cost_stable(market, pair_costs, sense=sense) == want, (fam, sense)
        assert ties >= 6, ties

    def test_cost_bound_prunes_the_search(self):
        """On K4's independent-set reduction the cost bound cuts the search
        below a node bound that the search without costs exceeds."""
        k4 = ["a", "b", "c", "d"]
        fam, weights = independent_set_antimatroid(k4, [(p, q) for i, p in enumerate(k4) for q in k4[i + 1:]])
        bundle = reduce_to_matching(compute_path_poset(fam), {x: -w for x, w in weights.items()})
        market = bundle.extendable.market
        _, value = min_cost_stable(market, bundle.pair_costs, node_bound=5000)
        assert value == -1
        with pytest.raises(SearchBoundExceeded):
            enumerate_stable(market, node_bound=5000)

    def test_reduction_specs_are_exhaustively_path_independent(self):
        """Every distinct choice function of the criterion-8 reductions and
        of random_antimatroid(8) at seeds 1-4 has at most 16 partners, so
        check_path_independence tries every offer, and passes."""
        fams = [independent_set_antimatroid(v, e)[0] for _, v, e in reduction_graphs()]
        fams += [random_antimatroid(8, random.Random(seed)) for seed in range(1, 5)]
        specs = set()
        for fam in fams:
            market = reduce_to_matching(compute_path_poset(fam), {}).extendable.market
            specs.update(market.spec(a) for a in (*market.firms, *market.workers))
        for spec in sorted(specs, key=repr):
            assert len(spec_universe(spec)) <= 16, spec
            assert check_path_independence(spec) == (True, None), spec

    def test_bad_sense_rejected(self, quad_antimatroid):
        with pytest.raises(InputError):
            min_cost_feasible(quad_antimatroid, {}, sense="upward")

    def test_random_antimatroid_reductions_agree(self):
        rng = random.Random(55)
        for _ in range(6):
            fam = random_antimatroid(rng.randint(1, 4), rng)
            costs = {x: rng.randint(-4, 4) for x in fam.ground}
            bundle = reduce_to_matching(compute_path_poset(fam), costs)
            ms = enumerate_stable(bundle.extendable.market)
            assert {bundle.recover(mu) for mu in ms} == set(fam.feasible)
            _, got = min_cost_stable(bundle.extendable.market, bundle.pair_costs)
            _, want = min_cost_feasible(fam, costs)
            assert got == want


class TestGadgetInputValidation:
    def test_duplicate_vertices_rejected(self):
        with pytest.raises(InputError):
            independent_set_antimatroid(["u", "u"], [])

    def test_self_loop_rejected(self):
        with pytest.raises(InputError):
            independent_set_antimatroid(["u", "v"], [("u", "u")])

    def test_repeated_edge_rejected(self):
        for edges in ([("u", "v"), ("v", "u")], [("u", "v"), ("u", "v")]):
            with pytest.raises(InputError, match="duplicate id 'u~v'"):
                independent_set_antimatroid(["u", "v"], edges)

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(InputError):
            independent_set_antimatroid(["u"], [("u", "zz")])
