from __future__ import annotations

import random

import pytest

from lattmark import (
    canonical_partial_rep,
    check_order_embedding,
    check_order_isomorphism,
    is_distributive,
    join_irreducibles,
    lattice_from_order,
    lattice_from_tables,
    lower_sets,
    poset_from_pairs,
    validate_poset,
)
from lattmark.errors import (
    EnumerationBoundExceeded,
    NotALattice,
    NotAntisymmetric,
    NotReflexive,
    NotTransitive,
)
from lattmark.fixtures import boolean_lattice, pentagon_lattice
from lattmark.generators import random_distributive_lattice, random_lattice
from lattmark.orders import trivial_poset

from oracles import (
    count_lower_sets,
    greatest_lower_bound,
    join_all,
    join_irreducibles_by_definition,
    least_upper_bound,
)


def identity_matrix(n):
    return [[i == j for j in range(n)] for i in range(n)]


class TestValidatePoset:
    def test_identity_relation_is_the_trivial_order(self):
        p = validate_poset(["a", "b", "c"], identity_matrix(3))
        assert p.leq("a", "a") and not p.leq("a", "b")

    def test_hexagon_join_irreducible_relation(self):
        # reflexivity plus c below d and c below e
        els = ["b", "c", "d", "e"]
        m = identity_matrix(4)
        m[1][2] = m[1][3] = True
        p = validate_poset(els, m)
        assert p.lt("c", "d") and p.lt("c", "e") and not p.lt("b", "d")

    def test_mutual_relation_is_not_antisymmetric(self):
        m = identity_matrix(2)
        m[0][1] = m[1][0] = True
        with pytest.raises(NotAntisymmetric) as exc:
            validate_poset(["a", "b"], m)
        assert set(exc.value.witness) == {"a", "b"}

    def test_missing_reflexive_pair(self):
        m = identity_matrix(2)
        m[1][1] = False
        with pytest.raises(NotReflexive):
            validate_poset(["a", "b"], m)

    def test_broken_transitivity(self):
        m = identity_matrix(3)
        m[0][1] = m[1][2] = True
        with pytest.raises(NotTransitive) as exc:
            validate_poset(["a", "b", "c"], m)
        assert exc.value.witness == ("a", "b", "c")


class TestLatticeFromOrder:
    def test_hexagon_tables(self, hexagon):
        assert hexagon.join("b", "c") == "f"
        assert hexagon.meet("d", "e") == "c"
        # oracle: joins and meets agree with bound scans over the raw order
        for x in hexagon.elements:
            for y in hexagon.elements:
                assert hexagon.join(x, y) == least_upper_bound(
                    hexagon.elements, hexagon.leq, x, y
                )
                assert hexagon.meet(x, y) == greatest_lower_bound(
                    hexagon.elements, hexagon.leq, x, y
                )

    def test_boolean_lattice_is_union_intersection(self):
        lat = boolean_lattice(2)
        assert lat.join("{a1}", "{a2}") == "{a1,a2}"
        assert lat.meet("{a1}", "{a2}") == "{}"

    def test_two_maximal_elements_fail(self):
        p = poset_from_pairs(["a", "b", "c"], [("a", "b"), ("a", "c")], close=True)
        with pytest.raises(NotALattice) as exc:
            lattice_from_order(p)
        assert set(exc.value.witness) == {"b", "c"}

    def test_order_agrees_with_tables(self, hexagon):
        for x in hexagon.elements:
            for y in hexagon.elements:
                assert hexagon.leq(x, y) == (hexagon.join(x, y) == y)
                assert hexagon.leq(x, y) == (hexagon.meet(x, y) == x)

    def test_tables_round_trip(self, hexagon):
        els = hexagon.elements
        join_rows = [[hexagon.join(x, y) for y in els] for x in els]
        meet_rows = [[hexagon.meet(x, y) for y in els] for x in els]
        again = lattice_from_tables(els, join_rows, meet_rows)
        assert again.poset == hexagon.poset

    def test_inconsistent_tables_rejected(self):
        with pytest.raises(NotALattice):
            lattice_from_tables(
                ["a", "b"],
                [["a", "b"], ["b", "b"]],
                [["a", "b"], ["b", "b"]],  # meet(a, b) must be a
            )


class TestJoinIrreducibles:
    def test_hexagon(self, hexagon):
        xj, poset = join_irreducibles(hexagon)
        assert set(xj) == {"b", "c", "d", "e"}
        assert poset.covers == (("c", "d"), ("c", "e"))

    def test_chain(self):
        lat = lattice_from_order(
            poset_from_pairs(["x1", "x2", "x3"], [("x1", "x2"), ("x2", "x3")], close=True)
        )
        xj, _ = join_irreducibles(lat)
        assert set(xj) == {"x2", "x3"}

    def test_boolean_atoms(self):
        lat = boolean_lattice(3)
        xj, _ = join_irreducibles(lat)
        assert set(xj) == {"{a1}", "{a2}", "{a3}"}

    def test_matches_definitional_oracle(self, hexagon, pentagon):
        for lat in (hexagon, pentagon, boolean_lattice(2)):
            xj, _ = join_irreducibles(lat)
            assert set(xj) == set(join_irreducibles_by_definition(lat))


class TestLowerSets:
    def test_hexagon_join_irreducible_lower_sets(self, hexagon):
        _, poset = join_irreducibles(hexagon)
        family = lower_sets(poset)
        want = [
            set(),
            {"b"},
            {"c"},
            {"b", "c"},
            {"c", "d"},
            {"c", "e"},
            {"b", "c", "d"},
            {"b", "c", "e"},
            {"c", "d", "e"},
            {"b", "c", "d", "e"},
        ]
        assert [set(s) for s in family] == want

    def test_trivial_poset_gives_all_subsets(self):
        family = lower_sets(trivial_poset(["x", "y", "z"]))
        assert len(family) == 8

    def test_chain_gives_prefixes(self):
        p = poset_from_pairs(["1", "2", "3"], [("1", "2"), ("2", "3")], close=True)
        assert len(lower_sets(p)) == 4

    def test_bound_is_enforced(self):
        p = trivial_poset([f"e{i}" for i in range(21)])
        with pytest.raises(EnumerationBoundExceeded):
            lower_sets(p)

    def test_counts_match_recursive_oracle(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(1, 7)
            pairs = [(f"n{i}", f"n{j}") for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
            p = poset_from_pairs([f"n{i}" for i in range(n)], pairs, close=True)
            assert len(lower_sets(p)) == count_lower_sets(p.elements, p.leq)


class TestCanonicalPartialRep:
    def test_hexagon_table(self, hexagon):
        rep = canonical_partial_rep(hexagon)
        assert rep == {
            "a": frozenset(),
            "b": frozenset({"b"}),
            "c": frozenset({"c"}),
            "d": frozenset({"c", "d"}),
            "e": frozenset({"c", "e"}),
            "f": frozenset({"b", "c", "d", "e"}),
        }

    def test_extremes(self, hexagon, pentagon):
        for lat in (hexagon, pentagon):
            rep = canonical_partial_rep(lat)
            xj, _ = join_irreducibles(lat)
            assert rep[lat.bottom] == frozenset()
            assert rep[lat.top] == frozenset(xj)

    def test_boolean_representation(self):
        lat = boolean_lattice(2)
        rep = canonical_partial_rep(lat)
        assert rep["{a1,a2}"] == frozenset({"{a1}", "{a2}"})

    def test_join_of_rep_recovers_element(self, hexagon):
        rep = canonical_partial_rep(hexagon)
        for x in hexagon.elements:
            assert join_all(hexagon, rep[x]) == x

    def test_is_always_an_order_embedding(self, hexagon, pentagon, diamond):
        rng = random.Random(11)
        lats = [hexagon, pentagon, diamond] + [random_lattice(rng.randint(2, 8), rng) for _ in range(20)]
        for lat in lats:
            rep = canonical_partial_rep(lat)
            ok, witness = check_order_embedding(rep, lat.poset, lambda a, b: a <= b)
            assert ok, witness

    def test_birkhoff_on_distributive_lattices(self):
        rng = random.Random(23)
        for _ in range(20):
            lat = random_distributive_lattice(rng.randint(2, 10), rng)
            assert is_distributive(lat)[0]
            rep = canonical_partial_rep(lat)
            _, poset = join_irreducibles(lat)
            family = lower_sets(poset)
            ok, witness = check_order_isomorphism(
                rep, lat.poset, family, lambda a, b: a <= b
            )
            assert ok, witness


class TestEmbeddingChecks:
    def test_hexagon_rep_is_embedding_not_isomorphism(self, hexagon):
        rep = canonical_partial_rep(hexagon)
        _, poset = join_irreducibles(hexagon)
        family = lower_sets(poset)
        assert check_order_embedding(rep, hexagon.poset, lambda a, b: a <= b)[0]
        ok, witness = check_order_isomorphism(rep, hexagon.poset, family, lambda a, b: a <= b)
        assert not ok
        assert witness[0] == "image mismatch"

    def test_identity_map(self, pentagon):
        f = {x: x for x in pentagon.elements}
        assert check_order_embedding(f, pentagon.poset, pentagon.poset.leq)[0]

    def test_constant_map_fails_with_witness(self):
        p = poset_from_pairs(["lo", "hi"], [("lo", "hi")], close=True)
        f = {"lo": "lo", "hi": "lo"}
        ok, witness = check_order_embedding(f, p, p.leq)
        assert not ok and witness == ("hi", "lo")


class TestMaximalElements:
    def test_hexagon_subset(self, hexagon):
        _, poset = join_irreducibles(hexagon)
        assert poset.maximal_of({"b", "c", "d"}) == frozenset({"b", "d"})

    def test_empty(self, hexagon):
        assert hexagon.poset.maximal_of(set()) == frozenset()

    def test_trivial_order_keeps_everything(self):
        p = trivial_poset(["x", "y"])
        assert p.maximal_of({"x", "y"}) == frozenset({"x", "y"})


class TestDistributivity:
    def test_hexagon_is_not(self, hexagon):
        ok, witness = is_distributive(hexagon)
        assert not ok and witness is not None

    def test_boolean_is(self):
        assert is_distributive(boolean_lattice(3))[0]

    def test_pentagon_is_not(self):
        assert not is_distributive(pentagon_lattice())[0]
