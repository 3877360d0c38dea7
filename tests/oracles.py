"""Independent oracles used to freeze expected values.

Everything here recomputes results from first definitions with plain loops,
deliberately avoiding the library's own algorithms: bound scans instead of
join tables, recursive counting instead of enumeration, rank-table stability
instead of choice-function machinery.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product


def least_upper_bound(elements, leq, x, y):
    """Scan for the unique minimum of the upper bound set; None if absent."""
    ubs = [z for z in elements if leq(x, z) and leq(y, z)]
    least = [u for u in ubs if all(leq(u, v) for v in ubs)]
    return least[0] if len(least) == 1 else None


def greatest_lower_bound(elements, leq, x, y):
    lbs = [z for z in elements if leq(z, x) and leq(z, y)]
    greatest = [u for u in lbs if all(leq(v, u) for v in lbs)]
    return greatest[0] if len(greatest) == 1 else None


def count_lower_sets(elements, leq):
    """count(P) = count(P minus a maximal m) + count(P minus the down-set of m)."""
    elements = list(elements)
    if not elements:
        return 1
    m = next(e for e in elements if not any(leq(e, z) and e != z for z in elements))
    without_m = [e for e in elements if e != m]
    without_down = [e for e in elements if not leq(e, m)]
    return count_lower_sets(without_m, leq) + count_lower_sets(without_down, leq)


def join_all(lattice, members):
    """The join of members, folded pairwise from the bottom."""
    out = lattice.bottom
    for m in members:
        out = lattice.join(out, m)
    return out


def join_irreducibles_by_definition(lattice):
    """Elements not expressible as the join of any subset excluding them."""
    els = lattice.elements
    out = []
    for a in els:
        rest = [e for e in els if e != a]
        reducible = False
        for k in range(len(rest) + 1):
            for combo in combinations(rest, k):
                if join_all(lattice, combo) == a:
                    reducible = True
                    break
            if reducible:
                break
        if not reducible:
            out.append(a)
    return tuple(out)


def one_to_one_stable_matchings(firm_lists, worker_lists):
    """All stable matchings of a market given by singleton preference lists.

    Classic definition: rank tables, individual rationality is list
    membership, blocking means both strictly prefer each other to their
    current assignment (or are unmatched).
    """
    firm_rank = {f: {w: i for i, w in enumerate(ws)} for f, ws in firm_lists.items()}
    worker_rank = {w: {f: i for i, f in enumerate(fs)} for w, fs in worker_lists.items()}
    workers = sorted(worker_lists)
    options = [[None] + list(worker_lists[w]) for w in workers]
    stable = []
    for assignment in product(*options):
        match_of_firm = {}
        ok = True
        for w, f in zip(workers, assignment):
            if f is None:
                continue
            if w not in firm_rank.get(f, {}):
                ok = False
                break
            if f in match_of_firm:
                ok = False
                break
            match_of_firm[f] = w
        if not ok:
            continue
        match_of_worker = {w: f for w, f in zip(workers, assignment) if f is not None}

        def prefers_firm(f, w):
            cur = match_of_firm.get(f)
            return cur is None or firm_rank[f][w] < firm_rank[f][cur]

        def prefers_worker(w, f):
            cur = match_of_worker.get(w)
            return cur is None or worker_rank[w][f] < worker_rank[w][cur]

        blocked = any(
            w in firm_rank.get(f, {})
            and match_of_worker.get(w) != f
            and prefers_firm(f, w)
            and prefers_worker(w, f)
            for f in firm_lists
            for w in firm_rank[f]
        )
        if not blocked:
            stable.append(frozenset((f, w) for w, f in match_of_worker.items()))
    return sorted(set(stable), key=sorted)


def independence_number(vertices, edges):
    best = 0
    edge_set = {frozenset(e) for e in edges}
    for k in range(len(vertices), -1, -1):
        for combo in combinations(vertices, k):
            if not any(frozenset((u, v)) in edge_set for u, v in combinations(combo, 2)):
                return k
    return best


def brute_force_satisfying_subsets(universe, predicate):
    out = []
    universe = sorted(universe)
    for mask in range(1 << len(universe)):
        t = frozenset(universe[i] for i in range(len(universe)) if mask >> i & 1)
        if predicate(t):
            out.append(t)
    return out


def reference_stable_matchings(market, node_budget=3_000_000):
    """Reference enumeration kept deliberately naive.

    Every worker ranges over all its individually rational partner sets (no
    preference-interval restriction, no forced assignments, no structural
    rules); the only pruning is firm-side individual rationality, whose
    permanence under growth is immediate from substitutability.  Leaves are
    kept when stable.  Exponential; raises ValueError past the node budget.
    """
    from lattmark.markets import Matching, choose, is_stable, spec_universe

    workers = sorted(market.workers)
    options = []
    for w in workers:
        spec = market.spec(w)
        universe = sorted(spec_universe(spec))
        options.append([
            s
            for s in brute_force_satisfying_subsets(universe, lambda t: True)
            if choose(spec, s) == s
        ])

    hold = {f: set() for f in market.firms}
    out = []
    nodes = 0

    def recurse(i):
        nonlocal nodes
        if i == len(workers):
            mu = Matching(frozenset((f, w2) for w2 in assigned for f in assigned[w2]))
            if is_stable(market, mu):
                out.append(mu)
            return
        w = workers[i]
        for s in options[i]:
            nodes += 1
            if nodes > node_budget:
                raise ValueError(f"explored {nodes} nodes, over the reference budget")
            for f in s:
                hold[f].add(w)
            assigned[w] = s
            if all(choose(market.spec(f), frozenset(hold[f])) == frozenset(hold[f]) for f in s):
                recurse(i + 1)
            del assigned[w]
            for f in s:
                hold[f].discard(w)

    assigned = {}
    recurse(0)
    return sorted(out, key=lambda m: tuple(sorted(m.pairs)))


def path_independence_by_subsets(spec, subsets=None):
    """The one-element-removal check on frozensets, over the given subsets of
    the spec's universe in order, by default every subset in binary-counter
    order over the sorted universe; consistency before substitutability,
    partners in sorted order."""
    if subsets is None:
        u = sorted(spec.universe)
        subsets = [frozenset(x for i, x in enumerate(u) if mask >> i & 1) for mask in range(1 << len(u))]
    for s in subsets:
        chosen = spec.choose(s)
        for y in sorted(s - chosen):
            if spec.choose(s - {y}) != chosen:
                return False, ("consistency", tuple(sorted(s)), y)
        for x in sorted(chosen):
            for y in sorted(s - {x}):
                if x not in spec.choose(s - {y}):
                    return False, ("substitutability", tuple(sorted(s)), (x, y))
    return True, None


def _set_key(s):
    return (len(s), tuple(sorted(s)))


def validate_antimatroid_pairwise(fam):
    """The antimatroid axioms on frozensets, union closure over every pair of
    feasible sets: outside-ground, then union closure, then the ground set,
    then accessibility, each failure with its witness."""
    ground = frozenset(fam.ground)
    sets = set(fam.feasible)
    ordered = sorted(sets, key=_set_key)
    for g in ordered:
        if not g <= ground:
            return False, ("outside-ground", tuple(sorted(g - ground)))
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            if a | b not in sets:
                return False, ("not-union-closed", (tuple(sorted(a)), tuple(sorted(b))))
    if ground not in sets:
        return False, ("ground-not-feasible", tuple(fam.ground))
    for g in ordered:
        if g and not any(g - {x} in sets for x in g):
            return False, ("not-accessible", tuple(sorted(g)))
    return True, None


def antimatroid_axiom_failures(fam):
    """The witness kinds of every antimatroid axiom the family breaks, each
    checked on its own by its definition."""
    ground = frozenset(fam.ground)
    sets = set(fam.feasible)
    failures = set()
    if any(not g <= ground for g in sets):
        failures.add("outside-ground")
    if any(a | b not in sets for a in sets for b in sets):
        failures.add("not-union-closed")
    if ground not in sets:
        failures.add("ground-not-feasible")
    if any(g and not any(g - {x} in sets for x in g) for g in sets):
        failures.add("not-accessible")
    return failures


def union_irreducible_paths(fam):
    """The paths by their other definition: the non-empty feasible sets that
    are no union of two other feasible subsets, each with the elements x
    whose removal leaves a feasible set (one, in an antimatroid)."""
    members = set(fam.feasible)
    sets = sorted(members, key=_set_key)
    out = set()
    for g in sets:
        if not g:
            continue
        others = [h for h in sets if h != g and h <= g]
        if not any(a | b == g for i, a in enumerate(others) for b in others[i:]):
            out |= {(g, x) for x in g if g - {x} in members}
    return out


def union_closure(sets):
    """All unions of the given sets, the empty union included."""
    family = {frozenset()}
    changed = True
    while changed:
        grown = family | {a | frozenset(s) for a in family for s in sets}
        changed = grown != family
        family = grown
    return family


def pair_cost(pair_costs, mu):
    """The exact Fraction sum of a matching's costed pairs."""
    return sum((Fraction(pair_costs[p]) for p in mu.pairs if p in pair_costs), Fraction(0))


def augmentation_copies(em, k):
    """The copies augmentation k of an ExtendableMarket adds, from its
    constraint alone: w#k for each plus-side worker w of a beta rotation."""
    rotations = em.base.rotation_poset.rotations
    return frozenset(f"{w}#{k}" for rid in em.constraints[k - 1].beta_ids for w in rotations[rid].workers_plus())


def min_cost_by_matchings(matchings, pair_costs, sense="min"):
    """The optimum of pair costs over a canonically sorted list of stable
    matchings, one Matching at a time: each costs the exact Fraction sum over
    its costed pairs, and the first of least (for max, greatest) cost wins.
    Returns (matching, value)."""
    sign = 1 if sense == "min" else -1
    best = best_val = None
    for mu in matchings:
        val = pair_cost(pair_costs, mu)
        if best_val is None or sign * val < sign * best_val:
            best, best_val = mu, val
    return best, best_val
