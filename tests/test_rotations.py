from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from lattmark import (
    FirmOrder,
    Matching,
    antichain_base,
    firm_order_compare,
    deferred_acceptance,
    enumerate_stable,
    extract_rotations,
    is_distributive,
    is_stable,
    matching_to_rotations,
    rotations_to_matching,
    stable_lattice,
)
from lattmark import jsonio
from lattmark.errors import DuplicateId, InputError, NotLowerClosed, NotRepresentable
from lattmark.fixtures import seven_pair_market, seven_pair_rotations
from lattmark.markets import MatchingMarket, PreferenceList, Regular
from lattmark.orders import Poset
from lattmark.rotations import RealizedBase, Rotation, RotationPoset, gadget_agents, is_gadget_bank

from oracles import (
    deferred_acceptance_by_sets,
    down_set,
    extract_rotations_by_occurrence,
    lower_sets,
    matching_to_rotations_by_chains,
    one_to_one_stable_matchings,
)


class TestAntichainBase:
    def test_single_gadget_is_a_two_chain(self):
        base = antichain_base(["p"])
        ms = enumerate_stable(base.market)
        assert len(ms) == 2
        lat, _ = stable_lattice(base.market)
        assert len(lat.poset.covers) == 1

    def test_three_gadgets_give_a_boolean_lattice(self):
        base = antichain_base(["p", "q", "r"])
        lat, ms = stable_lattice(base.market)
        assert len(ms) == 8
        assert is_distributive(lat)[0]
        counts = sorted(len(down_set(lat.poset, e)) for e in lat.elements)
        assert counts == sorted(
            len([t for t in range(8) if t & s == t]) for s in range(8)
        )

    def test_first_and_last_choices_are_dual(self):
        base = antichain_base(["p", "q"])
        m = base.market
        for agent in (*m.firms, *m.workers):
            entries = m.spec(agent).entries
            first, last = next(iter(entries[0])), next(iter(entries[-1]))
            assert next(iter(m.spec(first).entries[-1])) == agent
            assert next(iter(m.spec(last).entries[0])) == agent

    def test_every_stable_matching_is_perfect(self):
        base = antichain_base(["p", "q"])
        for mu in enumerate_stable(base.market):
            for agent in base.market.firms:
                assert len(mu.workers_of(agent)) == 1
            for agent in base.market.workers:
                assert len(mu.firms_of(agent)) == 1

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DuplicateId):
            antichain_base(["p", "p"])

    def test_empty_bank_has_no_agents_and_one_stable_matching(self):
        base = antichain_base([])
        assert base.market.firms == base.market.workers == ()
        assert base.rotation_poset.ids() == ()
        assert enumerate_stable(base.market) == [Matching(frozenset())]

    def test_declared_rotations_match_extraction(self):
        base = antichain_base(["p", "q", "r"])
        rp = extract_rotations(base.market)
        declared = {(r.plus, r.minus) for r in base.rotation_poset.rotations.values()}
        extracted = {(r.plus, r.minus) for r in rp.rotations.values()}
        assert declared == extracted
        assert rp.worker_optimal == base.rotation_poset.worker_optimal
        assert all(
            not rp.poset.lt(a, b)
            for a in rp.poset.elements
            for b in rp.poset.elements
            if a != b
        )

    def test_is_gadget_bank_is_equality_with_the_bank(self):
        """is_gadget_bank(base) == (base == antichain_base(its ids)) on banks
        and on bases one agent, spec, rotation, order or worker-optimal pair
        away from one."""
        bank = antichain_base(["p", "q", "r"])
        m, rp = bank.market, bank.rotation_poset
        rot, (f1, _, w1, w2) = rp.rotations["p"], gadget_agents("p")
        choice = dict(m.choice)
        unordered = Poset(("q", "p", "r"), rp.poset.relation)
        ordered = Poset(rp.poset.elements, rp.poset.relation | {("p", "q")})
        without_r = Poset(("p", "q"), frozenset({("p", "p"), ("q", "q")}))
        variants = [
            bank,
            antichain_base([]),
            antichain_base(["a.f1", "a"]),
            RealizedBase(MatchingMarket(m.firms, m.workers, {**choice, f1: PreferenceList.of(w1, w2)}), rp),
            RealizedBase(MatchingMarket(m.firms, m.workers, {**choice, f1: PreferenceList.of(w2)}), rp),
            RealizedBase(MatchingMarket(m.firms, m.workers, {**choice, f1: Regular((frozenset({w2, w1}),), ())}), rp),
            RealizedBase(MatchingMarket((*m.firms, "z"), m.workers, choice), rp),
            RealizedBase(MatchingMarket((*m.firms, "z"), m.workers, {**choice, "z": PreferenceList.of(w1)}), rp),
            RealizedBase(MatchingMarket(m.firms[::-1], m.workers, choice), rp),
            RealizedBase(m, RotationPoset(rp.poset, {**rp.rotations, "p": Rotation("p", rot.minus, rot.plus)},
                                          rp.worker_optimal)),
            RealizedBase(m, RotationPoset(unordered, rp.rotations, rp.worker_optimal)),
            RealizedBase(m, RotationPoset(ordered, rp.rotations, rp.worker_optimal)),
            RealizedBase(m, RotationPoset(without_r, {x: rp.rotations[x] for x in "pq"}, rp.worker_optimal)),
            RealizedBase(m, RotationPoset(rp.poset, rp.rotations, Matching(rp.worker_optimal.pairs - {(f1, w1)}))),
        ]
        for base in variants:
            assert is_gadget_bank(base) == (base == antichain_base(base.rotation_poset.ids())), base
        assert [is_gadget_bank(base) for base in variants] == [True] * 3 + [False] * (len(variants) - 3)

    def test_gadget_plus_pairs_disjoint_from_other_minus_pairs(self):
        base = antichain_base(["p", "q", "r"])
        rots = list(base.rotation_poset.rotations.values())
        for r1 in rots:
            for r2 in rots:
                assert not (r1.plus & r2.minus)


class TestExtractRotations:
    def test_seven_pair_rotations_and_order(self, seven_rotation_poset, rot_ids):
        got = {(r.plus, r.minus) for r in seven_rotation_poset.rotations.values()}
        assert got == set(seven_pair_rotations().values())
        p = seven_rotation_poset.poset
        assert p.lt(rot_ids["rot1"], rot_ids["rot3"])
        assert p.lt(rot_ids["rot1"], rot_ids["rot4"])
        for other in ("rot1", "rot3", "rot4"):
            assert not p.lt(rot_ids["rot2"], rot_ids[other])
            assert not p.lt(rot_ids[other], rot_ids["rot2"])
        assert not p.lt(rot_ids["rot3"], rot_ids["rot4"])
        assert not p.lt(rot_ids["rot4"], rot_ids["rot3"])

    def test_unique_stable_matching_has_no_rotations(self):
        m = MatchingMarket(
            ("f",),
            ("w",),
            {"f": PreferenceList.of("w"), "w": PreferenceList.of("f")},
        )
        rp = extract_rotations(m)
        assert rp.rotations == {}

    def test_rotation_agent_disjointness(self, seven_rotation_poset):
        rots = list(seven_rotation_poset.rotations.values())
        for i, r1 in enumerate(rots):
            for r2 in rots[i + 1:]:
                assert not (r1.plus & r2.plus)
                assert not (r1.minus & r2.minus)

    def test_rotations_sharing_an_agent_are_comparable(self, seven_rotation_poset):
        p = seven_rotation_poset.poset
        rots = seven_rotation_poset.rotations
        for a in rots:
            for b in rots:
                if a == b:
                    continue
                firms_a = {f for f, _ in rots[a].minus}
                firms_b = {f for f, _ in rots[b].minus}
                workers_a = {w for _, w in rots[a].minus}
                workers_b = {w for _, w in rots[b].minus}
                if firms_a & firms_b or workers_a & workers_b:
                    assert p.lt(a, b) or p.lt(b, a)

    def test_requires_one_to_one(self):
        market = MatchingMarket(
            ("f",),
            ("w1", "w2"),
            {
                "f": PreferenceList.of({"w1", "w2"}, "w1", "w2"),
                "w1": PreferenceList.of("f"),
                "w2": PreferenceList.of("f"),
            },
        )
        with pytest.raises(InputError):
            extract_rotations(market)


class TestRepresentation:
    def test_golden_values(self, seven_rotation_poset, seven_stables, rot_ids):
        rp = seven_rotation_poset
        assert matching_to_rotations(rp, seven_stables["mu1"]) == frozenset()
        assert matching_to_rotations(rp, seven_stables["mu2"]) == frozenset({rot_ids["rot2"]})
        assert matching_to_rotations(rp, seven_stables["mu3"]) == frozenset({rot_ids["rot1"]})
        assert matching_to_rotations(rp, seven_stables["mu10"]) == frozenset(rp.poset.elements)

    def test_inverse_of_empty_is_worker_optimal(self, seven_rotation_poset, seven_stables):
        assert rotations_to_matching(seven_rotation_poset, frozenset()) == seven_stables["mu1"]

    def test_inverse_of_rho2(self, seven_rotation_poset, seven_stables, rot_ids):
        assert rotations_to_matching(seven_rotation_poset, {rot_ids["rot2"]}) == seven_stables["mu2"]

    def test_round_trip_bijection(self, seven_market, seven_rotation_poset):
        rp = seven_rotation_poset
        seen = set()
        for r in lower_sets(rp.poset):
            mu = rotations_to_matching(rp, r)
            assert is_stable(seven_market, mu)
            assert matching_to_rotations(rp, mu) == r
            seen.add(mu.pairs)
        assert len(seen) == 10

    def test_representation_is_an_order_isomorphism(self, seven_market, seven_rotation_poset):
        rp = seven_rotation_poset
        ms = enumerate_stable(seven_market)
        for m1 in ms:
            for m2 in ms:
                cmp = firm_order_compare(seven_market, m1, m2)
                contains = matching_to_rotations(rp, m1) >= matching_to_rotations(rp, m2)
                assert contains == (cmp in (FirmOrder.GEQ, FirmOrder.EQ))

    def test_not_lower_closed_rejected(self, seven_rotation_poset, rot_ids):
        with pytest.raises(NotLowerClosed):
            rotations_to_matching(seven_rotation_poset, {rot_ids["rot3"]})

    def test_not_lower_closed_names_the_first_missing_rotation_under_any_hash_seed(self):
        """Rotations u, v, x, y below z: the witness for {z} is u, the first
        missing predecessor in element order, whatever the set order."""
        script = "\n".join([
            "from lattmark import antichain_base, rotations_to_matching",
            "from lattmark.errors import NotLowerClosed",
            "from lattmark.orders import poset_from_pairs",
            "from lattmark.rotations import RotationPoset",
            "rp = antichain_base(['u', 'v', 'x', 'y', 'z']).rotation_poset",
            "poset = poset_from_pairs(rp.poset.elements, [(r, 'z') for r in 'uvxy'], close=True)",
            "try:",
            "    rotations_to_matching(RotationPoset(poset, rp.rotations, rp.worker_optimal), {'z'})",
            "except NotLowerClosed as exc:",
            "    print(exc.witness)",
        ])
        src = str(Path(jsonio.__file__).resolve().parent.parent)
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
            done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
            assert done.stdout.strip() == "('z', 'u')", (seed, done.stdout, done.stderr)

    def test_unstable_matching_not_representable(self, seven_rotation_poset):
        shuffled = Matching.of([("f1", "w2"), ("f2", "w1")])
        with pytest.raises(NotRepresentable):
            matching_to_rotations(seven_rotation_poset, shuffled)


class TestGadgetSemantics:
    def test_gadget_agent_names(self):
        assert gadget_agents("x") == ("x.f1", "x.f2", "x.w1", "x.w2")

    def test_gadget_stable_pair_structure(self):
        base = antichain_base(["x"])
        f1, f2, w1, w2 = gadget_agents("x")
        ms = enumerate_stable(base.market)
        assert {m.pairs for m in ms} == {
            frozenset({(f1, w1), (f2, w2)}),
            frozenset({(f1, w2), (f2, w1)}),
        }
        rot = base.rotation_poset.rotations["x"]
        assert rot.minus == frozenset({(f1, w1), (f2, w2)})
        assert rot.plus == frozenset({(f1, w2), (f2, w1)})

    def test_matches_rank_table_oracle(self):
        base = antichain_base(["p", "q"])
        m = base.market
        fl = {f: [next(iter(e)) for e in m.spec(f).entries] for f in m.firms}
        wl = {w: [next(iter(e)) for e in m.spec(w).entries] for w in m.workers}
        want = one_to_one_stable_matchings(fl, wl)
        got = sorted((mu.pairs for mu in enumerate_stable(m)), key=sorted)
        assert sorted(want, key=sorted) == got

    def test_deferred_acceptance_hits_the_rotation_extremes(self):
        base = antichain_base(["p", "q"])
        assert deferred_acceptance(base.market, "workers") == base.rotation_poset.worker_optimal
        top = rotations_to_matching(base.rotation_poset, frozenset(base.rotation_poset.poset.elements))
        assert deferred_acceptance(base.market, "firms") == top


def _market(firm_lists, worker_lists):
    choice = {a: PreferenceList.of(*prefs) for a, prefs in {**firm_lists, **worker_lists}.items()}
    return MatchingMarket(tuple(sorted(firm_lists)), tuple(sorted(worker_lists)), choice)


def _latin_square(n, rng):
    """Cyclic preferences: firm i ranks workers i, i+1, ..., and the worker
    a firm ranks last ranks that firm first; agents named in a random order."""
    f = [f"f{k}" for k in rng.sample(range(n), n)]
    w = [f"w{k}" for k in rng.sample(range(n), n)]
    return (
        {f[i]: [w[(i + k) % n] for k in range(n)] for i in range(n)},
        {w[j]: [f[(j + 1 + k) % n] for k in range(n)] for j in range(n)},
    )


def _opposed(n, rng):
    """Random scores: firms rank workers by descending score, workers rank
    firms by ascending score; some pairs are unacceptable to both sides."""
    score = {(i, j): rng.random() for i in range(n) for j in range(n)}
    ok = {p for p in score if rng.random() < 0.85}
    return (
        {f"f{i}": [f"w{j}" for j in sorted(range(n), key=lambda j: -score[i, j]) if (i, j) in ok] for i in range(n)},
        {f"w{j}": [f"f{i}" for i in sorted(range(n), key=lambda i: score[i, j]) if (i, j) in ok] for j in range(n)},
    )


def _seven_pair():
    m = seven_pair_market()
    lists = {a: [next(iter(e)) for e in m.spec(a).entries] for a in (*m.firms, *m.workers)}
    return {f: lists[f] for f in m.firms}, {w: lists[w] for w in m.workers}


def _union(parts):
    """Disjoint union of markets given as (firm lists, worker lists), each
    part's agents prefixed with its index."""
    firms, workers = {}, {}
    for k, (fl, wl) in enumerate(parts):
        firms.update({f"u{k}.{a}": [f"u{k}.{b}" for b in prefs] for a, prefs in fl.items()})
        workers.update({f"u{k}.{a}": [f"u{k}.{b}" for b in prefs] for a, prefs in wl.items()})
    return firms, workers


def rotation_corpus():
    """Seeded one-to-one markets: cyclic latin squares, random opposed
    preferences, and disjoint unions of both with the seven-pair market."""
    rng = random.Random(19)
    corpus = [_latin_square(n, rng) for n in range(1, 7) for _ in range(6)]
    corpus += [_opposed(rng.randint(2, 6), rng) for _ in range(100)]
    for _ in range(70):
        parts = [_seven_pair()] if rng.random() < 0.6 else []
        parts += [rng.choice((_latin_square, _opposed))(rng.randint(2, 4), rng) for _ in range(rng.randint(1, 3))]
        corpus.append(_union(parts))
    return [_market(*lists) for lists in corpus]


class TestAgainstTheOccurrenceOracle:
    def test_rotation_posets_and_representations_agree(self):
        corpus = rotation_corpus()
        sizes = []
        for market in corpus:
            rp = extract_rotations(market)
            lat, stables = stable_lattice(market)
            assert jsonio.rotation_poset_to_json(rp) == jsonio.rotation_poset_to_json(
                extract_rotations_by_occurrence(market, lat, stables)
            )
            sizes.append(len(rp.rotations))
            for mu in stables:
                assert matching_to_rotations(rp, mu) == matching_to_rotations_by_chains(rp, mu)
            # swapping two firms' partners in the firm-optimal matching
            top = stables[-1]
            pairs = sorted(top.pairs)
            if len(pairs) >= 2:
                (f1, w1), (f2, w2) = pairs[:2]
                swapped = Matching(top.pairs - {(f1, w1), (f2, w2)} | {(f1, w2), (f2, w1)})
                if not is_stable(market, swapped):
                    for derive in (matching_to_rotations, matching_to_rotations_by_chains):
                        with pytest.raises(NotRepresentable):
                            derive(rp, swapped)
        assert len(corpus) >= 200 and max(sizes) >= 8
        assert sum(size >= 8 for size in sizes) >= 10

    def test_deferred_acceptance_matches_the_frozenset_oracle(self):
        """deferred_acceptance, on masks, equals the frozenset oracle from
        both sides on every market of the corpus."""
        for market in rotation_corpus():
            for side in ("firms", "workers"):
                assert deferred_acceptance(market, side) == deferred_acceptance_by_sets(market, side), side

    def test_both_reject_a_market_that_is_not_one_to_one(self):
        market = MatchingMarket(
            ("f",),
            ("w1", "w2"),
            {
                "f": PreferenceList.of({"w1", "w2"}, "w1", "w2"),
                "w1": PreferenceList.of("f"),
                "w2": PreferenceList.of("f"),
            },
        )
        for extract in (extract_rotations, extract_rotations_by_occurrence):
            with pytest.raises(InputError):
                extract(market)
