"""Built-in fixture checks behind the `lattmark selftest` command."""

from __future__ import annotations

import random
import time
from fractions import Fraction

from .antimatroids import (
    AntimatroidFamily,
    compute_path_poset,
    antimatroid_constraints,
    independent_set_antimatroid,
    min_cost_feasible,
    min_cost_stable,
    reduce_to_matching,
    validate_antimatroid,
)
from .augment import synthesize_from_lattice
from .constraints import constraints_from_lattice, lower_sets_satisfying
from .fixtures import (
    four_element_antimatroid,
    hexagon_lattice,
    pentagon_lattice,
    seven_pair_market,
    seven_pair_rotations,
    seven_pair_stable_matchings,
)
from .generators import random_graph
from .markets import deferred_acceptance, enumerate_stable
from .orders import canonical_partial_rep, join_irreducibles, trivial_poset
from .rotations import extract_rotations


def run(quick: bool = False) -> int:
    failures = 0

    def check(name: str, ok: bool):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures += 1

    t0 = time.monotonic()

    lat = hexagon_lattice()
    rep = canonical_partial_rep(lat)
    check(
        "hexagon partial representation table",
        rep == {
            "a": frozenset(),
            "b": frozenset({"b"}),
            "c": frozenset({"c"}),
            "d": frozenset({"c", "d"}),
            "e": frozenset({"c", "e"}),
            "f": frozenset({"b", "c", "d", "e"}),
        },
    )
    _, xj_poset = join_irreducibles(lat)
    filtered = lower_sets_satisfying(xj_poset, constraints_from_lattice(lat))
    check("hexagon constraint filtering", set(filtered) == set(rep.values()))

    market = seven_pair_market()
    stables = enumerate_stable(market)
    expected = seven_pair_stable_matchings()
    check("seven-pair market has its ten stable matchings",
          {m.key() for m in stables} == {m.key() for m in expected.values()})
    check("seven-pair firm-proposing optimum",
          deferred_acceptance(market, "firms") == expected["mu10"])
    check("seven-pair worker-proposing optimum",
          deferred_acceptance(market, "workers") == expected["mu1"])
    rp = extract_rotations(market)
    got = {(rot.plus, rot.minus) for rot in rp.rotations.values()}
    check("seven-pair rotations", got == set(seven_pair_rotations().values()))

    fam = four_element_antimatroid()
    ok, _ = validate_antimatroid(fam)
    check("four-element antimatroid axioms", ok)
    ok, witness = validate_antimatroid(AntimatroidFamily.of(["a", "b"], [[], ["a"], ["b"]]))
    check("{}, {a}, {b} over {a, b} rejected as not union-closed", not ok and witness[0] == "not-union-closed")
    pp = compute_path_poset(fam)
    ground = fam.ground_set
    occurred = lower_sets_satisfying(trivial_poset(ground), antimatroid_constraints(pp))
    check("four-element antimatroid constraint filtering", {ground - t for t in occurred} == set(fam.feasible))

    check("pentagon synthesis verifies", synthesize_from_lattice(pentagon_lattice()).report.ok)

    gadget, weights = independent_set_antimatroid(["u", "v", "x"], [("u", "v"), ("v", "x")])
    bundle = reduce_to_matching(compute_path_poset(gadget), {x: -w for x, w in weights.items()})
    market, pair_costs = bundle.extendable.market, bundle.pair_costs
    costed = [(sum((pair_costs.get(p, 0) for p in mu.pairs), Fraction(0)), mu) for mu in enumerate_stable(market)]
    for sense, pick in (("min", min), ("max", max)):
        want = pick(c for c, _ in costed)
        check(f"three-path reduction: cost-bounded {sense} equals the {sense} over every stable matching",
              min_cost_stable(market, pair_costs, sense) == (next(mu for c, mu in costed if c == want), want))

    if not quick:
        check("hexagon synthesis verifies", synthesize_from_lattice(lat).report.ok)

        vertices, edges = random_graph(3, random.Random(7), p=0.9)
        gadget, weights = independent_set_antimatroid(vertices, edges)
        costs = {x: -w for x, w in weights.items()}
        bundle = reduce_to_matching(compute_path_poset(gadget), costs)
        _, best = min_cost_stable(bundle.extendable.market, bundle.pair_costs)
        _, want = min_cost_feasible(gadget, costs)
        check("independent-set reduction optimum agrees", best == want)

    print(f"{'OK' if failures == 0 else 'FAILED'}  ({time.monotonic() - t0:.1f}s)")
    return 0 if failures == 0 else 4
