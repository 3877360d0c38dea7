from __future__ import annotations

import random

import pytest

from lattmark import (
    JoinConstraint,
    antimatroid_constraints,
    canonical_partial_rep,
    check_order_isomorphism,
    compute_path_poset,
    constraints_from_lattice,
    independent_set_antimatroid,
    join_irreducibles,
    lower_sets_satisfying,
    reduce_to_matching,
    synthesize_from_lattice,
    validate_join_constraint,
)
from lattmark.errors import AlphaArgumentsComparable, UnknownElementId
from lattmark.fixtures import boolean_lattice
from lattmark.generators import all_lattices_upto, random_lattice
from lattmark.orders import trivial_poset

from oracles import (
    canonical_partial_rep_by_sets,
    chain_lattice,
    constraints_from_lattice_by_sets,
    filter_lower_sets,
    lower_sets,
    m_lattice,
)
from test_acceptance import reduction_graphs


def hexagon_example_constraint():
    # "if b and c then d and e"
    return JoinConstraint.make([{"b"}, {"c"}], {"d", "e"})


class TestEvaluation:
    def test_unsatisfied_on_partial_set(self):
        jc, t = hexagon_example_constraint(), frozenset({"b", "c", "d"})
        assert (jc.alpha(t), jc.beta(t), jc.holds(t)) == (True, False, False)

    def test_satisfied_on_full_set(self):
        assert hexagon_example_constraint().holds(frozenset({"b", "c", "d", "e"}))

    def test_beta_true_makes_satisfied(self):
        jc = JoinConstraint.make([{"b"}], {"d"})
        assert jc.holds(frozenset({"d"}))

    def test_empty_alpha_is_true_empty_group_is_false(self):
        assert JoinConstraint.make([], set()).alpha(frozenset())
        assert not JoinConstraint.make([set()], set()).alpha(frozenset({"b"}))

    def test_monotonicity(self):
        rng = random.Random(3)
        universe = ["p", "q", "r", "s"]
        for _ in range(50):
            groups = [
                {u for u in universe if rng.random() < 0.5} or {"p"}
                for _ in range(rng.randint(0, 2))
            ]
            beta = {u for u in universe if rng.random() < 0.3}
            jc = JoinConstraint.make(groups, beta)
            small = frozenset(u for u in universe if rng.random() < 0.4)
            grown = small | frozenset(u for u in universe if rng.random() < 0.4)
            assert jc.alpha(small) <= jc.alpha(grown)
            assert jc.beta(small) <= jc.beta(grown)


class TestValidation:
    def test_alpha_over_comparable_pair_rejected(self, hexagon):
        _, poset = join_irreducibles(hexagon)
        with pytest.raises(AlphaArgumentsComparable) as exc:
            validate_join_constraint(JoinConstraint.make([{"c"}, {"d"}], set()), poset)
        assert set(exc.value.witness) == {"c", "d"}

    def test_everything_is_an_antichain_in_a_trivial_poset(self):
        p = trivial_poset(["x", "y", "z"])
        validate_join_constraint(JoinConstraint.make([{"x", "y"}, {"z"}], {"x"}), p)

    def test_first_unknown_beta_id_is_reported(self):
        p = trivial_poset(["x"])
        with pytest.raises(UnknownElementId) as exc:
            validate_join_constraint(JoinConstraint.make([{"x"}], {"zz3", "zz1", "zz2"}), p)
        assert exc.value.element == "zz1"

    def test_generated_constraints_always_validate(self, hexagon):
        _, poset = join_irreducibles(hexagon)
        for jc in constraints_from_lattice(hexagon):
            validate_join_constraint(jc, poset)


class TestGeneration:
    def test_pair_b_c_yields_the_example_constraint(self, hexagon):
        omega = constraints_from_lattice(hexagon)
        want = JoinConstraint.make([{"b"}, {"c"}], {"b", "c", "d", "e"})
        assert want in omega

    def test_comparable_pair_constraint_vacuous_on_lower_sets(self, hexagon):
        # pair (c, d): beta is within the down-closure of alpha's arguments
        rep = canonical_partial_rep(hexagon)
        _, poset = join_irreducibles(hexagon)
        jc = JoinConstraint.make([{"d"}], rep["d"])
        assert all(jc.holds(t) for t in lower_sets(poset))

    def test_no_constraint_holds_on_every_lower_set(self, hexagon, pentagon, diamond):
        rng = random.Random(5)
        lats = [hexagon, pentagon, diamond] + [random_lattice(rng.randint(2, 8), rng) for _ in range(15)]
        for lat in lats:
            _, poset = join_irreducibles(lat)
            family = lower_sets(poset)
            for jc in constraints_from_lattice(lat):
                assert not all(jc.holds(t) for t in family), jc
        assert constraints_from_lattice(boolean_lattice(3)) == ()

    def test_count_bounded_by_square(self):
        rng = random.Random(9)
        for _ in range(10):
            lat = random_lattice(rng.randint(2, 8), rng)
            assert len(constraints_from_lattice(lat)) <= len(lat.elements) ** 2


class TestFiltering:
    def test_hexagon_filtered_family(self, hexagon):
        _, poset = join_irreducibles(hexagon)
        got = lower_sets_satisfying(poset, constraints_from_lattice(hexagon))
        want = [set(), {"b"}, {"c"}, {"c", "d"}, {"c", "e"}, {"b", "c", "d", "e"}]
        assert [set(s) for s in got] == want

    def test_empty_omega_keeps_everything(self, hexagon):
        _, poset = join_irreducibles(hexagon)
        assert lower_sets_satisfying(poset, []) == lower_sets(poset)

    def test_extremes_always_survive(self):
        rng = random.Random(17)
        for _ in range(15):
            lat = random_lattice(rng.randint(2, 8), rng)
            xj, poset = join_irreducibles(lat)
            got = lower_sets_satisfying(poset, constraints_from_lattice(lat))
            assert frozenset() in got and frozenset(xj) in got

    def test_round_trip_restores_the_lattice(self, hexagon, pentagon, diamond):
        rng = random.Random(29)
        lats = [hexagon, pentagon, diamond] + [random_lattice(rng.randint(2, 8), rng) for _ in range(25)]
        for lat in lats:
            rep = canonical_partial_rep(lat)
            _, poset = join_irreducibles(lat)
            got = lower_sets_satisfying(poset, constraints_from_lattice(lat))
            assert set(got) == set(rep.values())
            ok, witness = check_order_isomorphism(rep, lat.poset, got, lambda a, b: a <= b)
            assert ok, witness


def small_lattices():
    """Every lattice of at most 5 elements, chains of 2-16 elements, M_3-M_10
    and 20 seeded random lattices of 10-20 elements."""
    rng = random.Random(41)
    randoms = [random_lattice(rng.randint(10, 20), rng) for _ in range(20)]
    return [*all_lattices_upto(5), *map(chain_lattice, range(2, 17)), *map(m_lattice, range(3, 11)), *randoms]


def lattice_corpus():
    """The small lattices with at most 16 join-irreducibles."""
    return [lat for lat in small_lattices() if len(join_irreducibles(lat)[0]) <= 16]


def test_mask_constraints_and_partial_rep_equal_the_frozenset_oracles():
    lats = [*small_lattices(), boolean_lattice(6)]
    for lat in lats:
        assert canonical_partial_rep(lat) == canonical_partial_rep_by_sets(lat)
        assert constraints_from_lattice(lat) == constraints_from_lattice_by_sets(lat)
    assert len(lats) == 54


class TestImageSearchAgainstTheFilter:
    """lower_sets_satisfying equals the 2^|J| filter, set for set and in
    order, with Horn (lattice) and non-Horn (reduction) constraints."""

    def test_lattice_bases_and_join_irreducible_posets(self):
        lats = lattice_corpus()
        for lat in lats:
            _, xj_poset = join_irreducibles(lat)
            cs = constraints_from_lattice(lat)
            assert lower_sets_satisfying(xj_poset, cs) == filter_lower_sets(lower_sets(xj_poset), cs)
            em = synthesize_from_lattice(lat, verify=False).extendable
            base = em.base.rotation_poset.poset
            want = filter_lower_sets(lower_sets(base), em.constraints)
            assert lower_sets_satisfying(base, em.constraints) == want
            assert len(want) == len(lat.elements)
        assert len(lats) > 50

    def test_reduction_constraints(self):
        for _, vertices, edges in reduction_graphs():
            fam, _ = independent_set_antimatroid(vertices, edges)
            pp = compute_path_poset(fam)
            base = reduce_to_matching(pp, {}).extendable.base.rotation_poset.poset
            cs = antimatroid_constraints(pp)
            assert lower_sets_satisfying(base, cs) == filter_lower_sets(lower_sets(base), cs)

    def test_random_constraints_over_the_seven_pair_rotations(self, seven_rotation_poset):
        # the seven-pair rotation poset is not an antichain, so down-closure
        # prunes too; alpha may be empty, hold an empty group, or groups of
        # several ids
        poset = seven_rotation_poset.poset
        ids = sorted(poset.elements)
        rng = random.Random(43)
        family = lower_sets(poset)
        kinds = set()
        for _ in range(300):
            cs = []
            for _ in range(rng.randint(0, 4)):
                groups = [rng.sample(ids, rng.randint(0, 3)) for _ in range(rng.randint(0, 3))]
                cs.append(JoinConstraint.make(groups, rng.sample(ids, rng.randint(0, 2))))
                kinds |= {"empty alpha"} if not groups else set()
                kinds |= {"empty group"} if any(not g for g in groups) else set()
                kinds |= {"multi-id group"} if any(len(g) > 1 for g in groups) else set()
            assert lower_sets_satisfying(poset, cs) == filter_lower_sets(family, cs), cs
        assert kinds == {"empty alpha", "empty group", "multi-id group"}

    def test_an_unknown_id_is_rejected(self):
        for jc in (JoinConstraint.make([{"x"}], {"y"}), JoinConstraint.make([{"y"}], {"x"})):
            with pytest.raises(UnknownElementId) as exc:
                lower_sets_satisfying(trivial_poset(["x"]), [jc])
            assert exc.value.element == "y"
