"""Independent oracles used to freeze expected values.

Everything here recomputes results from first definitions with plain loops,
deliberately avoiding the library's own algorithms: bound scans instead of
join tables, recursive counting instead of enumeration, rank-table stability
instead of choice-function machinery.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, product

from lattmark.antimatroids import AntimatroidFamily, PathPoset, edge_id
from lattmark.errors import (
    InputError, NonLatticeStructure, NotALattice, NotLowerClosed, NotRepresentable, UnknownPartnerId,
)
from lattmark.markets import (
    FirmOrder, IfElse, Matching, PreferenceList, Regular, Triggered, firm_order_compare, spec_universe, stable_lattice,
)
from lattmark.constraints import JoinConstraint
from lattmark.orders import Poset, join_irreducibles, lattice_from_order, poset_from_pairs
from lattmark.rotations import Rotation, RotationPoset, rotations_to_matching


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


def lower_sets(poset):
    """All downward closed subsets, in (size, lexicographic) order: elements
    are added in a linear extension (by down-set size), each to the lower
    sets so far that hold everything below it.  Builds every lower set, so
    it costs 2^n on an n-element antichain whatever a filter keeps."""
    below = {e: down_set(poset, e) - {e} for e in poset.elements}
    family = [frozenset()]
    for e in sorted(poset.elements, key=lambda x: len(below[x])):
        family += [s | {e} for s in family if below[e] <= s]
    return sorted(family, key=_set_key)


def filter_lower_sets(family, omega):
    """Members of the family satisfying every constraint, order preserved."""
    cs = tuple(omega)
    return [t for t in family if all(c.holds(t) for c in cs)]


def down_set(poset, x):
    """The elements weakly below x, by scanning the relation."""
    return frozenset(z for z in poset.elements if poset.leq(z, x))


def maximal_of(poset, members):
    """The members with no member strictly above them."""
    ms = set(members)
    return frozenset(m for m in ms if not any(poset.lt(m, z) for z in ms))


def minimal_of(poset, members):
    """The members with no member strictly below them."""
    ms = set(members)
    return frozenset(m for m in ms if not any(poset.lt(z, m) for z in ms))


def lattice_from_order_by_scan(poset):
    """Join and meet tables, as dicts keyed by ordered pairs, by scanning
    every element for the bounds of every pair; NotALattice on the first
    pair, in element order, whose upper (then lower) bounds have no least
    (greatest) member."""
    els = poset.elements
    join, meet = {}, {}
    for x in els:
        for y in els:
            ub = [z for z in els if poset.leq(x, z) and poset.leq(y, z)]
            least = [u for u in ub if all(poset.leq(u, v) for v in ub)]
            if len(least) != 1:
                raise NotALattice(x, y, minimal_of(poset, ub), kind="upper")
            join[(x, y)] = least[0]
            lb = [z for z in els if poset.leq(z, x) and poset.leq(z, y)]
            greatest = [u for u in lb if all(poset.leq(v, u) for v in lb)]
            if len(greatest) != 1:
                raise NotALattice(x, y, maximal_of(poset, lb), kind="lower")
            meet[(x, y)] = greatest[0]
    return join, meet


def canonical_partial_rep_by_sets(lattice):
    """Each element mapped to the join-irreducibles weakly below it, by
    testing leq on every pair."""
    xj, _ = join_irreducibles(lattice)
    return {x: frozenset(j for j in xj if lattice.leq(j, x)) for x in lattice.elements}


def constraints_from_lattice_by_sets(lattice):
    """The lattice's join constraints on frozensets: for every ordered pair
    (x, y) whose rep(x v y) exceeds rep(x) | rep(y), alpha is the maximal
    members of the union in the join-irreducible poset, as singleton
    groups, and beta is rep(x v y); duplicates dropped, sorted by key."""
    rep = canonical_partial_rep_by_sets(lattice)
    _, xj_poset = join_irreducibles(lattice)
    out = {}
    for x in lattice.elements:
        for y in lattice.elements:
            union, beta = rep[x] | rep[y], rep[lattice.join(x, y)]
            if beta != union:
                jc = JoinConstraint.make([{z} for z in sorted(maximal_of(xj_poset, union))], beta)
                out.setdefault(jc.key(), jc)
    return tuple(sorted(out.values(), key=JoinConstraint.key))


def covers_by_scan(poset):
    """Cover pairs (x, y), sorted: x strictly below y, nothing between."""
    els = poset.elements
    return tuple(sorted(
        (x, y) for x in els for y in els
        if poset.lt(x, y) and not any(poset.lt(x, z) and poset.lt(z, y) for z in els)
    ))


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


def choose_by_sets(spec, offered):
    """Each choice-spec family's choice by its definition on frozensets, the
    oracle for the families' mask definitions (on_masks) and for
    markets.choose, derived from them.  A spec of any other type, a test
    double, states its own choice on frozensets as spec.choose."""
    offered = frozenset(offered)
    if isinstance(spec, PreferenceList):
        return next((entry for entry in spec.entries if entry <= offered), frozenset())
    if isinstance(spec, Triggered):
        selected = offered & spec.watch
        if spec.trigger in offered:
            hidden = {r for r, fs in spec.blocks if not fs & offered}
            if all(g & hidden for g in spec.alpha_groups):
                selected |= {spec.trigger}
        return selected
    if isinstance(spec, IfElse):
        return frozenset([spec.priority]) if spec.priority in offered else offered & spec.else_set
    if isinstance(spec, Regular):
        tier_index = {m: i for i, t in enumerate(spec.tiers) for m in t}
        selected, hit_index = frozenset(), None
        for i, tier in enumerate(spec.tiers):
            if offered & tier:
                selected, hit_index = offered & tier, i
                break
        for anchor, aux in spec.aux_pairs:
            if aux in offered and (hit_index is None or hit_index >= tier_index[anchor]):
                selected |= {aux}
        return selected
    return spec.choose(offered)


def on_masks_by_sets(choose, bit):
    """A choice stated on frozensets as a choice on masks through bit, so a
    test double can run through the library's mask code."""
    name = {b: x for x, b in bit.items()}

    def chosen(offer):
        out = 0
        for x in choose(frozenset(name[b] for b in bit.values() if offer & b)):
            out |= bit[x]
        return out
    return chosen


def wrap_compiled_choices(monkeypatch, wrap):
    """Test instrumentation: every choice the four families compile from
    here on is replaced by wrap(compiled choice)."""
    for family in (PreferenceList, Triggered, IfElse, Regular):
        def on_masks(spec, bit, compile_choice=family.on_masks):
            return wrap(compile_choice(spec, bit))
        monkeypatch.setattr(family, "on_masks", on_masks)


def deferred_acceptance_by_sets(market, proposing="firms"):
    """Cumulative-offer deferred acceptance on frozensets, through
    choose_by_sets: the oracle for markets.deferred_acceptance."""
    if proposing == "firms":
        proposers, receivers = market.firms, market.workers
    elif proposing == "workers":
        proposers, receivers = market.workers, market.firms
    else:
        raise InputError(f"proposing side must be 'firms' or 'workers', not {proposing!r}")
    opposite = frozenset(receivers)
    rejected = {p: set() for p in proposers}
    while True:
        offers = {p: choose_by_sets(market.spec(p), opposite - rejected[p]) for p in proposers}
        received = {r: set() for r in receivers}
        for p in proposers:
            for r in offers[p]:
                received[r].add(p)
        changed = False
        for r in receivers:
            held = choose_by_sets(market.spec(r), received[r])
            for p in received[r] - held:
                rejected[p].add(r)
                changed = True
        if not changed:
            return Matching(frozenset((p, r) if proposing == "firms" else (r, p)
                                      for p in proposers for r in offers[p]))


def _validate_matching(market, mu):
    for f, w in mu.pairs:
        if f in market.worker_set and w in market.firm_set:
            raise UnknownPartnerId.reversed_pair(f, w)
        if f not in market.firm_set:
            raise UnknownPartnerId(w, f)
        if w not in market.worker_set:
            raise UnknownPartnerId(f, w)


def is_individually_rational(market, mu):
    """Every agent keeps exactly its assigned partners when offered them;
    (False, the first agent that does not) otherwise."""
    _validate_matching(market, mu)
    for f, ws in sorted(mu.by_firm.items()):
        if choose_by_sets(market.spec(f), ws) != ws:
            return False, f
    for w, fs in sorted(mu.by_worker.items()):
        if choose_by_sets(market.spec(w), fs) != fs:
            return False, w
    return True, None


def blocking_pairs(market, mu):
    """All pairs outside the matching where each side demands the other, on
    frozensets.  Only pairs the worker finds acceptable can block (a worker
    never demands a firm outside its spec's universe)."""
    _validate_matching(market, mu)
    out = []
    for w in market.workers:
        w_spec = market.spec(w)
        held = mu.firms_of(w)
        for f in sorted(spec_universe(w_spec)):
            if (f, w) in mu.pairs:
                continue
            if f not in choose_by_sets(w_spec, held | {f}):
                continue
            if w in choose_by_sets(market.spec(f), mu.workers_of(f) | {w}):
                out.append((f, w))
    return sorted(out)


def stable_by_blocking_pairs(market, mu):
    """Stability by its definition on frozensets, the oracle for the
    library's is_stable, which decides it on the market's mask kernel."""
    return is_individually_rational(market, mu)[0] and not blocking_pairs(market, mu)


def firm_leq_by_pairs(market, ms):
    """The firm-side order over a list of matchings, (i, j) for ms[i] <= ms[j],
    by one firm_order_compare per unordered pair."""
    rel = {(i, i) for i in range(len(ms))}
    for i, j in combinations(range(len(ms)), 2):
        cmp = firm_order_compare(market, ms[i], ms[j])
        if cmp in (FirmOrder.LEQ, FirmOrder.EQ):
            rel.add((i, j))
        if cmp in (FirmOrder.GEQ, FirmOrder.EQ):
            rel.add((j, i))
    return frozenset(rel)


def reference_stable_matchings(market, node_budget=3_000_000):
    """Reference enumeration kept deliberately naive.

    Every worker ranges over all its individually rational partner sets (no
    preference-interval restriction, no forced assignments, no structural
    rules); the only pruning is firm-side individual rationality, whose
    permanence under growth is immediate from substitutability.  Leaves are
    kept when stable.  Exponential; raises ValueError past the node budget.
    """
    workers = sorted(market.workers)
    options = []
    for w in workers:
        spec = market.spec(w)
        universe = sorted(spec_universe(spec))
        options.append([
            s
            for s in brute_force_satisfying_subsets(universe, lambda t: True)
            if choose_by_sets(spec, s) == s
        ])

    hold = {f: set() for f in market.firms}
    out = []
    nodes = 0

    def recurse(i):
        nonlocal nodes
        if i == len(workers):
            mu = Matching(frozenset((f, w2) for w2 in assigned for f in assigned[w2]))
            if stable_by_blocking_pairs(market, mu):
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
            if all(choose_by_sets(market.spec(f), hold[f]) == frozenset(hold[f]) for f in s):
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
        chosen = choose_by_sets(spec, s)
        for y in sorted(s - chosen):
            if choose_by_sets(spec, s - {y}) != chosen:
                return False, ("consistency", tuple(sorted(s)), y)
        for x in sorted(chosen):
            for y in sorted(s - {x}):
                if x not in choose_by_sets(spec, s - {y}):
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


def independent_set_family_by_filter(vertices, edges):
    """The independent-set gadget family by its definition: every subset of
    vertices and edge ids in which each included edge has an included
    endpoint, filtered out of all 2^|ground| subsets."""
    ends = {edge_id(u, v): (u, v) for u, v in edges}
    ground = sorted(vertices) + sorted(ends)
    feasible = []
    for mask in range(1 << len(ground)):
        t = frozenset(ground[i] for i in range(len(ground)) if mask >> i & 1)
        if all(ends[e][0] in t or ends[e][1] in t for e in t if e in ends):
            feasible.append(t)
    return AntimatroidFamily.of(ground, feasible)


def independent_set_path_poset(vertices, edges):
    """The independent-set gadget's paths, listed from its definition: {v}
    for each vertex, and {u, uv} and {v, uv} for each edge uv."""
    paths = [({v}, v) for v in vertices]
    paths += [({x, edge_id(u, v)}, edge_id(u, v)) for u, v in edges for x in (u, v)]
    return PathPoset.of([*vertices, *(edge_id(u, v) for u, v in edges)], paths)


def path_file_accepted_by_closure(ground, paths):
    """Whether (set, endpoint) pairs are exactly the paths of an antimatroid
    on the ground set, each listed once: all unions of the sets form one
    (pairwise check), and its union-irreducible paths are the given ones."""
    fam = AntimatroidFamily.of(ground, union_closure([s for s, _ in paths]))
    return validate_antimatroid_pairwise(fam)[0] and Counter(paths) == Counter(union_irreducible_paths(fam))


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


def full_antimatroid_constraints(pp):
    """The reduction's join constraints before any rewrite: for each ground
    element x, beta {x} and one alpha group per path g ending at x, the
    endpoints of g's subpaths (x among them, since g is its own subpath)."""
    return [
        JoinConstraint.make([{e for s, e in pp.paths if s <= g} for g, end in pp.paths if end == x], {x})
        for x in pp.ground
    ]


def chain_lattice(n):
    """The n-element chain c00 < c01 < ..."""
    labels = [f"c{i:02d}" for i in range(n)]
    return lattice_from_order(poset_from_pairs(labels, list(zip(labels, labels[1:])), close=True))


def m_lattice(n):
    """M_n: a bottom, n pairwise incomparable atoms a00, a01, ... and a top."""
    atoms = [f"a{i:02d}" for i in range(n)]
    covers = [("bot", a) for a in atoms] + [(a, "top") for a in atoms]
    return lattice_from_order(poset_from_pairs(["bot", *atoms, "top"], covers, close=True))


def extract_rotations_by_occurrence(market, lat=None, ms=None):
    """The rotation poset read off every cover of the stable matching
    lattice, ordered by occurrence sets: one rotation sits below another
    when it occurs wherever the other does.  The lattice is stable_lattice's
    unless given with its matchings."""
    if lat is None:
        lat, ms = stable_lattice(market)
    for mu in ms:
        if any(len(mu.workers_of(f)) > 1 for f in market.firms) or any(
            len(mu.firms_of(w)) > 1 for w in market.workers
        ):
            raise InputError("extract_rotations requires a one-to-one market")

    at = dict(zip(lat.elements, ms))
    found = {}
    lower_covers = {x: [] for x in lat.elements}
    for x, y in lat.poset.covers:
        plus = at[y].pairs - at[x].pairs
        minus = at[x].pairs - at[y].pairs
        key = (tuple(sorted(plus)), tuple(sorted(minus)))
        found[key] = (plus, minus)
        lower_covers[y].append((x, key))

    ordered = sorted(found, key=lambda key: (key[1], key[0]))
    names = {key: f"r{k + 1}" for k, key in enumerate(ordered)}
    rotations = {names[key]: Rotation(names[key], *found[key]) for key in ordered}

    # occurrence sets, in a linear extension from the bottom; in a
    # distributive lattice every lower cover gives the same set
    occ_of = {}
    for y in sorted(lat.elements, key=lambda e: len(down_set(lat.poset, e))):
        via = {occ_of[x] | {names[key]} for x, key in lower_covers[y]}
        if len(via) > 1:
            raise NonLatticeStructure("occurrence sets depend on the chain taken")
        occ_of[y] = via.pop() if via else frozenset()

    occ = {rid: frozenset(x for x in lat.elements if rid in occ_of[x]) for rid in rotations}
    ids = sorted(rotations)
    rel = {(a, b) for a in ids for b in ids if occ[b] <= occ[a]}
    for a in ids:
        for b in ids:
            if a != b and (a, b) in rel and (b, a) in rel:
                raise NonLatticeStructure(f"rotations {a} and {b} have identical occurrence sets")
    rp = RotationPoset(Poset(tuple(ids), frozenset(rel)), rotations, at[lat.bottom])
    for mu in ms:
        matching_to_rotations_by_chains(rp, mu)
    return rp


def matching_to_rotations_by_chains(rp, mu):
    """Each firm's rotations sorted into a chain by counting the rotations
    below each; the prefix that takes the firm from its worker-optimal
    partner to its partner in mu occurred.  Checked by reconstruction."""
    chains = {}
    for rid, rot in rp.rotations.items():
        for f in {f for f, _ in rot.minus} | {f for f, _ in rot.plus}:
            chains.setdefault(f, []).append(rid)

    occurred = set()
    for f, chain in sorted(chains.items()):
        below = {rid: sum(1 for o in chain if rp.poset.leq(o, rid)) for rid in chain}
        if sorted(below.values()) != list(range(1, len(chain) + 1)):
            raise NotRepresentable(f"rotations moving firm {f!r} are not totally ordered")
        chain.sort(key=below.__getitem__)
        current = rp.worker_optimal.workers_of(f)
        target = mu.workers_of(f)
        if current == target:
            continue
        prefix = None
        for i, rid in enumerate(chain):
            rot = rp.rotations[rid]
            current = (current - {w for ff, w in rot.minus if ff == f}) | {w for ff, w in rot.plus if ff == f}
            if current == target:
                prefix = chain[: i + 1]
                break
        if prefix is None:
            raise NotRepresentable(f"firm {f!r} holds {sorted(target)}, reachable by no rotation prefix")
        occurred.update(prefix)

    r = frozenset(occurred)
    try:
        rebuilt = rotations_to_matching(rp, r)
    except NotLowerClosed as exc:
        raise NotRepresentable(f"derived rotation set {sorted(r)} is not lower closed: {exc}") from exc
    if rebuilt.pairs != mu.pairs:
        raise NotRepresentable(f"rotation set {sorted(r)} rebuilds {sorted(rebuilt.pairs)}, not {sorted(mu.pairs)}")
    return r
