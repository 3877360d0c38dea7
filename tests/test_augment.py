from __future__ import annotations

import random

import pytest

from lattmark import (
    ExtendableMarket,
    FirmOrder,
    JoinConstraint,
    Matching,
    antichain_base,
    firm_order_compare,
    check_path_independence,
    choose,
    deferred_acceptance,
    enumerate_stable,
    omega_extend,
    project_to_base,
    matching_to_rotations,
    synthesize_from_lattice,
    verify_extension,
)
from lattmark.errors import AlphaArgumentsComparable, OverlappingRotationAgents, UnknownElementId
from lattmark.fixtures import boolean_lattice, diamond_lattice, hexagon_lattice, pentagon_lattice
from lattmark.generators import all_lattices_upto, random_distributive_lattice, random_lattice
from lattmark.orders import join_irreducibles

from oracles import augmentation_copies, chain_lattice, reference_stable_matchings
from lattmark.markets import MatchingMarket, PreferenceList, Regular, Triggered
from lattmark.rotations import RealizedBase, extract_rotations


@pytest.fixture(scope="module")
def worked(seven_base, rot_ids):
    """The seven-pair base augmented with 'rot1 and rot2 force rot3 and rot4'."""
    jc = JoinConstraint.make([{rot_ids["rot1"]}, {rot_ids["rot2"]}], {rot_ids["rot3"], rot_ids["rot4"]})
    return ExtendableMarket(seven_base), omega_extend(seven_base, [jc])


def conclusion_workers(em: ExtendableMarket) -> frozenset[str]:
    """The base workers a one-augmentation market copies, read off the
    market: the base workers behind the second tier of its auxiliary firm,
    which must be the copies its constraint's beta rotations name."""
    (_,) = em.constraints
    copies = em.market.spec("f0#1").tiers[1]
    assert copies == augmentation_copies(em, 1)
    return frozenset(em.copy_map[c] for c in copies)


class TestDeriveSets:
    """Each step derives the agents its constraint touches from the base."""

    def test_worked_constraint_sets(self, worked):
        _, em1 = worked
        assert em1.market.spec("w0#1").watch == frozenset({"f1", "f2", "f3", "f4", "f5"})
        assert conclusion_workers(em1) == frozenset({"w3", "w4", "w6", "w7"})

    def test_singleton_beta_worker_set(self, seven_base, rot_ids):
        em = omega_extend(seven_base, [JoinConstraint.make([], {rot_ids["rot4"]})])
        assert conclusion_workers(em) == frozenset({"w4", "w7"})

    def test_gadget_alpha_firms(self):
        em = omega_extend(antichain_base(["p", "q"]), [JoinConstraint.make([{"p"}], set())])
        assert em.market.spec("w0#1").watch == frozenset({"p.f1", "p.f2"})

    def test_comparable_alpha_arguments_rejected(self, seven_base, rot_ids):
        jc = JoinConstraint.make([{rot_ids["rot1"]}, {rot_ids["rot3"]}], set())
        with pytest.raises(AlphaArgumentsComparable):
            ExtendableMarket(seven_base, (jc,))

    def test_unknown_rotation_rejected(self, seven_base):
        with pytest.raises(UnknownElementId):
            ExtendableMarket(seven_base, (JoinConstraint.make([{"nope"}], set()),))

    def test_overlapping_conclusion_agents_rejected(self, seven_base, rot_ids):
        # rot1 and rot4 both move the plus-side worker w4
        jc = JoinConstraint.make([], {rot_ids["rot1"], rot_ids["rot4"]})
        with pytest.raises(OverlappingRotationAgents) as exc:
            omega_extend(seven_base, [jc])
        assert exc.value.witness[2] == ("w4",)
        with pytest.raises(OverlappingRotationAgents):
            ExtendableMarket(seven_base, (jc,))


class TestAugment:
    def test_agent_growth(self, worked):
        em0, em1 = worked
        added = {*em1.market.firms, *em1.market.workers} - {*em0.market.firms, *em0.market.workers}
        assert added == {"w0#1", "f0#1", *augmentation_copies(em1, 1)}

    def test_copy_lists(self, worked):
        _, em1 = worked
        want = {
            "w3#1": ("f0#1", "f6"),
            "w4#1": ("f0#1", "f7"),
            "w6#1": ("f0#1", "f4"),
            "w7#1": ("f0#1", "f2"),
        }
        for copy_id, firms in want.items():
            entries = em1.market.spec(copy_id).entries
            assert tuple(next(iter(e)) for e in entries) == firms

    def test_aux_pair_table(self, worked):
        _, em1 = worked
        aux_pairs = {f: em1.market.spec(f).aux_pairs for f in em1.base.market.firms}
        assert aux_pairs["f1"] == (("w1", "w0#1"),)
        assert aux_pairs["f2"] == (("w2", "w0#1"),)
        assert aux_pairs["f3"] == (("w3", "w0#1"),)
        assert aux_pairs["f4"] == (("w4", "w0#1"),)
        assert aux_pairs["f5"] == (("w5", "w0#1"),)
        assert aux_pairs["f6"] == ()
        assert aux_pairs["f7"] == ()

    def test_aux_worker_choice_behaviour(self, worked):
        _, em1 = worked
        spec = em1.market.spec("w0#1")
        assert isinstance(spec, Triggered)
        # trigger joins only when no watched firm is offered
        assert choose(spec, {"f0#1"}) == frozenset({"f0#1"})
        assert choose(spec, {"f0#1", "f1"}) == frozenset({"f1"})
        assert choose(spec, {"f1", "f2", "f3", "f4", "f5"}) == frozenset({"f1", "f2", "f3", "f4", "f5"})

    def test_aux_firm_choice_behaviour(self, worked):
        _, em1 = worked
        spec = em1.market.spec("f0#1")
        assert spec == Regular((frozenset({"w0#1"}), augmentation_copies(em1, 1)), ())
        assert choose(spec, {"w0#1", "w3#1"}) == frozenset({"w0#1"})
        assert choose(spec, {"w3#1", "w7#1"}) == frozenset({"w3#1", "w7#1"})

    def test_regular_firm_keeps_class_and_gains_aux(self, worked):
        _, em1 = worked
        spec = em1.market.spec("f1")
        assert isinstance(spec, Regular)
        assert choose(spec, {"w1", "w0#1"}) == frozenset({"w1", "w0#1"})
        assert choose(spec, {"w5", "w0#1"}) == frozenset({"w5"})

    def test_seven_surviving_matchings(self, worked, seven_stables):
        _, em1 = worked
        stables = enumerate_stable(em1.market)
        assert len(stables) == 7
        projected = {project_to_base(em1, mu).pairs for mu in stables}
        want = {seven_stables[k].pairs for k in ("mu1", "mu2", "mu3", "mu5", "mu6", "mu9", "mu10")}
        assert projected == want

    def test_all_choice_functions_stay_path_independent(self, worked):
        _, em1 = worked
        for agent in (*em1.market.firms, *em1.market.workers):
            ok, witness = check_path_independence(em1.market.spec(agent))
            assert ok, (agent, witness)


class TestProjections:
    def test_project_to_base_folds_copies_and_drops_aux(self, worked, seven_stables):
        _, em1 = worked
        top = deferred_acceptance(em1.market, "firms")
        assert project_to_base(em1, top) == seven_stables["mu10"]
        bottom = deferred_acceptance(em1.market, "workers")
        assert project_to_base(em1, bottom) == seven_stables["mu1"]

    def test_project_to_base_is_identity_on_base_matchings(self, worked, seven_stables):
        _, em1 = worked
        assert project_to_base(em1, seven_stables["mu2"]) == seven_stables["mu2"]

    def test_project_to_base_checks_stability(self, worked):
        _, em1 = worked
        from lattmark.errors import ProjectionNotStable

        bogus = Matching.of([("f1", "w2")])
        with pytest.raises(ProjectionNotStable):
            project_to_base(em1, bogus)

    def test_containment_chain(self, worked):
        em0, em1 = worked
        # folding the copies adds no pair: the projection of a stable
        # matching is its pairs among base agents
        base_firms, base_workers = set(em0.market.firms), set(em0.market.workers)
        for mu2 in enumerate_stable(em1.market):
            mu0 = project_to_base(em1, mu2)
            assert mu0.pairs == {(f, w) for f, w in mu2.pairs if f in base_firms and w in base_workers}

    def test_projections_preserve_order(self, worked):
        em0, em1 = worked
        stables = enumerate_stable(em1.market)
        for m1 in stables:
            for m2 in stables:
                up = firm_order_compare(em1.market, m1, m2)
                down = firm_order_compare(
                    em0.base.market, project_to_base(em1, m1), project_to_base(em1, m2)
                )
                assert up == down


class TestOmegaExtend:
    def test_empty_constraint_list_is_identity(self, seven_base):
        em = omega_extend(seven_base, [])
        assert em.agent_count() == len(seven_base.market.firms) + len(seven_base.market.workers)
        stables = enumerate_stable(em.market)
        assert len(stables) == 10

    def test_order_constraint_on_two_gadgets(self):
        base = antichain_base(["p", "q"])
        em = omega_extend(base, [JoinConstraint.make([{"q"}], {"p"})])
        stables = enumerate_stable(em.market)
        assert len(stables) == 3
        reps = {matching_to_rotations(base.rotation_poset, project_to_base(em, mu)) for mu in stables}
        assert reps == {frozenset(), frozenset({"p"}), frozenset({"p", "q"})}

    def test_two_stage_augmentation_verifies(self):
        base = antichain_base(["p", "q", "r"])
        omega = [
            JoinConstraint.make([{"q"}], {"p"}),
            JoinConstraint.make([{"r"}], {"q"}),
        ]
        em = omega_extend(base, omega)
        report = verify_extension(em)
        assert report.ok, report.failures()

    def test_alpha_only_constraint_forces_beta_globally(self):
        base = antichain_base(["p", "q"])
        em = omega_extend(base, [JoinConstraint.make([], {"p"})])
        stables = enumerate_stable(em.market)
        reps = {matching_to_rotations(base.rotation_poset, project_to_base(em, mu)) for mu in stables}
        assert reps == {frozenset({"p"}), frozenset({"p", "q"})}

    def test_beta_empty_constraint_is_vacuous(self):
        base = antichain_base(["p", "q"])
        em = omega_extend(base, [JoinConstraint.make([{"q"}], set())])
        assert em.market.spec("f0#1").tiers[1] == augmentation_copies(em, 1) == frozenset()
        assert em.agent_count() == 8 + 2
        stables = enumerate_stable(em.market)
        assert len(stables) == 4

    def test_worked_extension_report(self, seven_base, rot_ids):
        omega = [JoinConstraint.make([{rot_ids["rot1"]}, {rot_ids["rot2"]}], {rot_ids["rot3"], rot_ids["rot4"]})]
        em = omega_extend(seven_base, omega)
        report = verify_extension(em)
        assert report.ok, report.failures()


class TestSynthesis:
    @pytest.mark.parametrize("lattice_fn", [hexagon_lattice, pentagon_lattice, diamond_lattice])
    def test_fixture_lattices(self, lattice_fn):
        lat = lattice_fn()
        result = synthesize_from_lattice(lat)
        stables = enumerate_stable(result.extendable.market)
        assert len(stables) == len(lat.elements)
        report = verify_extension(result.extendable)
        assert report.ok, report.failures()

    def test_single_element_lattice(self):
        lat = all_lattices_upto(1)[0]
        result = synthesize_from_lattice(lat)
        assert enumerate_stable(result.extendable.market) == [Matching(frozenset())]
        assert list(result.iso.values()) == [Matching(frozenset())]

    def test_iso_map_preserves_order(self, hexagon):
        result = synthesize_from_lattice(hexagon)
        market = result.extendable.market
        for x in hexagon.elements:
            for y in hexagon.elements:
                if x == y:
                    continue
                cmp = firm_order_compare(market, result.iso[x], result.iso[y])
                assert (cmp is FirmOrder.LEQ) == hexagon.lt(x, y)
                assert (cmp is FirmOrder.GEQ) == hexagon.lt(y, x)

    def test_iso_maps_extremes_to_market_extremes(self, pentagon):
        result = synthesize_from_lattice(pentagon)
        market = result.extendable.market
        assert result.iso[pentagon.top] == deferred_acceptance(market, "firms")
        assert result.iso[pentagon.bottom] == deferred_acceptance(market, "workers")

    def test_agents_added_per_augmentation(self):
        rng = random.Random(4)
        lat = random_lattice(6, rng)
        result = synthesize_from_lattice(lat)
        em = result.extendable
        base_agents = len(em.base.market.firms) + len(em.base.market.workers)
        expected = base_agents + sum(2 + len(augmentation_copies(em, k)) for k in range(1, len(em.constraints) + 1))
        assert em.agent_count() == expected


class TestEnumerationAgainstReference:
    """The enumerator's prunes must never change the result set.

    The reference searcher knows nothing beyond firm-side individual
    rationality, so it independently exercises the interval restriction, the
    forced auxiliary assignments, and the structural group rule.  Kept to
    compositions where the naive search stays affordable.
    """

    def test_single_augmentations_on_two_gadgets(self):
        base = antichain_base(["p", "q"])
        constraints = [
            JoinConstraint.make([{"q"}], {"p"}),
            JoinConstraint.make([{"p"}, {"q"}], set()),
            JoinConstraint.make([], {"q"}),
            JoinConstraint.make([{"p", "q"}], {"p"}),
        ]
        for jc in constraints:
            em = omega_extend(base, [jc])
            fast = enumerate_stable(em.market)
            slow = reference_stable_matchings(em.market)
            assert [m.pairs for m in fast] == [m.pairs for m in slow], jc

    def test_stacked_augmentations(self):
        base = antichain_base(["p", "q"])
        em = omega_extend(base, [
            JoinConstraint.make([{"q"}], {"p"}),
            JoinConstraint.make([{"p"}], {"q"}),
        ])
        fast = enumerate_stable(em.market)
        slow = reference_stable_matchings(em.market)
        assert [m.pairs for m in fast] == [m.pairs for m in slow]

    def test_two_rotation_premise_on_three_gadgets(self):
        # premise "p and q occurred" forces r; only the {p, q} pattern dies
        base = antichain_base(["p", "q", "r"])
        em = omega_extend(base, [JoinConstraint.make([{"p"}, {"q"}], {"r"})])
        fast = enumerate_stable(em.market)
        slow = reference_stable_matchings(em.market)
        assert [m.pairs for m in fast] == [m.pairs for m in slow]
        assert len(fast) == 7


class TestOptimaAgainstEnumeration:
    def test_deferred_acceptance_hits_the_enumerated_extremes(self):
        rng = random.Random(41)
        for _ in range(10):
            lat = random_lattice(rng.randint(2, 6), rng)
            em = synthesize_from_lattice(lat).extendable
            stables = enumerate_stable(em.market)
            top = deferred_acceptance(em.market, "firms")
            bottom = deferred_acceptance(em.market, "workers")
            for mu in stables:
                assert firm_order_compare(em.market, top, mu) in (FirmOrder.GEQ, FirmOrder.EQ)
                assert firm_order_compare(em.market, bottom, mu) in (FirmOrder.LEQ, FirmOrder.EQ)


class TestDefaultOrderOnAugmentedMarkets:
    def test_worked_market_without_an_order_hint(self, worked):
        # lexicographic order places the auxiliary worker first, driving the
        # subset-enumeration path for triggered workers
        _, em1 = worked
        m = em1.market
        assert m.workers != tuple(sorted(m.workers))
        sorted_market = MatchingMarket(m.firms, tuple(sorted(m.workers)), m.choice)
        assert enumerate_stable(sorted_market) == enumerate_stable(m)


class TestConstructionSearchOrder:
    def test_workers_are_declared_gadget_by_gadget_in_constraint_order(self):
        # "a occurring forces b" ranks b before a; the step names a last
        em = omega_extend(antichain_base(["a", "b"]), [JoinConstraint.make([{"a"}], {"b"})])
        assert em.market.workers == ("b.w1", "b.w2", "a.w1", "a.w2", "b.w1#1", "b.w2#1", "w0#1")

    def test_steps_follow_the_last_gadget_they_name(self):
        base = antichain_base(["p", "q", "r"])
        em = omega_extend(base, [JoinConstraint.make([{"r"}], {"q"}), JoinConstraint.make([{"q"}], {"p"})])
        assert em.market.workers == (
            "p.w1", "p.w2", "q.w1", "q.w2", "p.w1#2", "p.w2#2", "w0#2",
            "r.w1", "r.w2", "q.w1#1", "q.w2#1", "w0#1",
        )

    def test_workers_in_no_rotation_go_first(self):
        # a gadget plus a pair that is matched in every stable matching
        gadget = antichain_base(["p"]).market
        choice = {**gadget.choice, "fz": PreferenceList.of("wz"), "wz": PreferenceList.of("fz")}
        market = MatchingMarket((*gadget.firms, "fz"), (*gadget.workers, "wz"), choice)
        em = ExtendableMarket(RealizedBase(market, extract_rotations(market)))
        assert em.market.workers == ("wz", "p.w1", "p.w2")

    @pytest.mark.parametrize("lattice_fn, agents", [
        (lambda: chain_lattice(16), 116),
        (lambda: boolean_lattice(4), 16),
        (hexagon_lattice, 64),
        (pentagon_lattice, 24),
    ])
    def test_pinned_agent_counts(self, lattice_fn, agents):
        assert synthesize_from_lattice(lattice_fn(), verify=False).extendable.agent_count() == agents

    def test_distributive_lattices_keep_no_lattice_constraint(self):
        rng = random.Random(12)
        lattices = [chain_lattice(9), boolean_lattice(3), *(random_distributive_lattice(rng.randint(2, 10), rng)
                                                      for _ in range(8))]
        for lat in lattices:
            em = synthesize_from_lattice(lat).extendable
            _, xj_poset = join_irreducibles(lat)
            order_cs = {JoinConstraint.make([{q}], {p}) for p, q in xj_poset.covers}
            assert set(em.constraints) == order_cs
            assert len(em.constraints) == len(xj_poset.covers)

    def test_a_16_chain_enumerates_in_few_nodes(self):
        em = synthesize_from_lattice(chain_lattice(16), verify=False).extendable
        assert len(enumerate_stable(em.market, node_bound=4000)) == 16
