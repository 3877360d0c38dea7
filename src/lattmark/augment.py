"""Join-constraint augmentation of one-to-one base markets.

One augmentation enforces one join constraint on the base market's stable
matchings: it adds an auxiliary worker watching the constraint's alpha-side
firms, an auxiliary firm arbitrating between that worker and fresh copies of
the beta-side workers, and rewires the regular firms' choice functions so
that exactly the stable matchings violating the constraint disappear.
Iterating over a constraint set and starting from a gadget-bank base yields
the full lattice synthesis pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from .constraints import (
    JoinConstraint,
    constraints_from_lattice,
    decision_order,
    lower_sets_satisfying,
    validate_join_constraint,
)
from .errors import (
    IsomorphismFailure,
    NotRepresentable,
    OverlappingRotationAgents,
    ProjectionNotStable,
    SpecError,
)
from .markets import (
    DEFAULT_NODE_BOUND,
    IfElse,
    Matching,
    MatchingMarket,
    PreferenceList,
    Regular,
    Triggered,
    deferred_acceptance,
    enumerate_stable,
)
from .orders import Lattice, _bits, canonical_partial_rep, check_order_embedding, join_irreducibles, set_key
from .rotations import RealizedBase, RotationPoset, _RotationMasks, antichain_base


@dataclass(frozen=True)
class ExtendableMarket:
    """A one-to-one base market plus the join constraints over its rotation
    ids enforced on it, in order; construction rejects a constraint the base
    does not support.  The other fields are derived from these two in one
    pass and are never passed in: the grown market and the copy map (every
    copy and base worker onto its base worker).  Augmentation k adds the
    auxiliary worker w0#k, the auxiliary firm f0#k and the copies that make
    up f0#k's IfElse else_set.  Each base firm's auxiliary pair table is its
    Regular spec's aux_pairs."""

    base: RealizedBase
    constraints: tuple[JoinConstraint, ...] = ()
    market: MatchingMarket = field(init=False, repr=False, compare=False)
    copy_map: Mapping[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, value in zip(("market", "copy_map"), _grow(self.base, self.constraints)):
            object.__setattr__(self, name, value)

    def agent_count(self) -> int:
        return len(self.market.firms) + len(self.market.workers)


def _singleton_entries(spec, agent: str) -> list[str]:
    if not isinstance(spec, PreferenceList) or any(len(e) != 1 for e in spec.entries):
        raise SpecError(f"agent {agent!r} of the base market must have a one-to-one preference list")
    return [next(iter(e)) for e in spec.entries]


def _touched(jc: JoinConstraint, rp: RotationPoset) -> tuple[dict[str, frozenset[str]], frozenset[str]]:
    """Check a constraint against the base's rotation poset and derive the
    agents it touches: the minus-side firms of each alpha rotation, and the
    plus-side workers of its beta rotations.  Every id must be known, the
    alpha ids pairwise incomparable, and no agent may belong to two alpha
    rotations or to two beta rotations."""
    validate_join_constraint(jc, rp.poset)
    f_rho = {rid: rp.rotations[rid].firms_minus() for rid in sorted(jc.alpha_ids)}
    w_rho = {rid: rp.rotations[rid].workers_plus() for rid in sorted(jc.beta_ids)}
    for groups in (f_rho, w_rho):
        taken: dict[str, str] = {}
        for rid, agents in groups.items():
            for agent in sorted(agents):
                if agent in taken:
                    raise OverlappingRotationAgents(taken[agent], rid, {agent})
                taken[agent] = rid
    return f_rho, frozenset().union(*w_rho.values())


def _copy_list(base: RealizedBase, jc: JoinConstraint, wj: str, f0: str) -> PreferenceList:
    """A copy of beta-side worker wj prefers the auxiliary firm, then the
    tail of wj's base list from its worst plus-side firm on."""
    entries = _singleton_entries(base.market.spec(wj), wj)
    candidates = {
        f for rid in jc.beta_ids for f, w in base.rotation_poset.rotations[rid].plus if w == wj
    }
    missing = candidates - set(entries)
    if missing:
        raise SpecError(f"plus-side firms {sorted(missing)} absent from base list of {wj!r}")
    return PreferenceList.of(f0, *entries[max(entries.index(f) for f in candidates):])


def _grow(base: RealizedBase, constraints: tuple[JoinConstraint, ...]) -> tuple:
    """Check every constraint against the base (_touched), then apply every
    augmentation to the base at once.

    Step k adds w0#k, f0#k and the copies w#k, and appends (w, w0#k) to the
    auxiliary pair table of f for each minus pair (f, w) of its alpha
    rotations.  Each regular firm's
    list becomes a regular choice function whose tiers are the copy classes
    of its base entries.  The market lists its workers in the enumeration's
    search order, one segment per rotation in decision_order (workers in no
    rotation first): the base workers of the lowest-ranked rotation
    they appear in, then, for each step whose constraint names that rotation
    last, the step's sorted copies directly followed by its auxiliary worker.
    A base prefix that breaks a constraint then dies inside the step that
    rules it out, not after every base worker has been placed.
    """
    m, rp = base.market, base.rotation_poset
    touched = [_touched(jc, rp) for jc in constraints]
    choice: dict = {}
    for w in m.workers:
        _singleton_entries(m.spec(w), w)
        choice[w] = m.spec(w)
    copy_map = {w: w for w in m.workers}
    aux_pairs: dict[str, tuple[tuple[str, str], ...]] = {f: () for f in m.firms}
    rank = {rid: i for i, rid in enumerate(decision_order(rp.poset, constraints))}
    segments: list[list[str]] = [[] for _ in range(len(rank) + 1)]
    moved = {rid: {w for _, w in rot.plus | rot.minus} for rid, rot in rp.rotations.items()}
    for w in sorted(m.workers):
        segments[1 + min((rank[rid] for rid in rank if w in moved[rid]), default=-1)].append(w)
    firms = list(m.firms)
    for k, (jc, (f_rho, beta_workers)) in enumerate(zip(constraints, touched), 1):
        w0, f0 = f"w0#{k}", f"f0#{k}"
        copies = {f"{wj}#{k}": wj for wj in sorted(beta_workers)}
        for wc, wj in copies.items():
            choice[wc] = _copy_list(base, jc, wj, f0)
        copy_map.update(copies)
        for rid in f_rho:
            for f, w in sorted(rp.rotations[rid].minus):
                if f not in aux_pairs:
                    raise SpecError(f"rotation {rid!r} moves {f!r}, which is not a base firm")
                aux_pairs[f] += ((w, w0),)
        choice[w0] = Triggered(watch=frozenset().union(*f_rho.values()), trigger=f0,
                               alpha_groups=jc.alpha_groups, blocks=tuple(f_rho.items()))
        choice[f0] = IfElse(priority=w0, else_set=frozenset(copies))
        firms.append(f0)
        named = jc.alpha_ids | jc.beta_ids
        segments[1 + max((rank[rid] for rid in named), default=-1)] += [*sorted(copies), w0]

    classes: dict[str, set[str]] = {w: set() for w in m.workers}
    for member, base_worker in copy_map.items():
        classes[base_worker].add(member)
    for f in m.firms:
        tiers = tuple(frozenset(classes[w]) for w in _singleton_entries(m.spec(f), f))
        choice[f] = Regular(tiers, aux_pairs[f])
    market = MatchingMarket(tuple(sorted(firms)), tuple(w for seg in segments for w in seg), choice)
    return market, copy_map


def project_to_base(em: ExtendableMarket, mu: Matching, check: bool = True) -> Matching:
    """Project all the way to the base market: base firms only, copies folded
    onto base workers, auxiliary agents dropped (_project, on masks)."""
    [(assigned, hold)] = _project(em, [em.market.kernel.encode(mu)[1]])
    out = em.base.market.kernel.decode(hold)
    if check and not em.base.market.kernel.stable(assigned, hold):
        raise ProjectionNotStable(f"projected pairs {sorted(out.pairs)}")
    return out


def _project(em: ExtendableMarket, holds: Iterable[Sequence[int]]) -> Iterator[tuple[list[int], list[int]]]:
    """Matchings of em's market, given by their hold masks, projected onto
    the base market's kernel as (assigned, hold) through one map: each base
    firm's position in em's market, and each worker's base worker bit
    through copy_map, 0 for an auxiliary worker."""
    base, firm_bit = em.base.market.kernel, em.market.kernel.firm_bit
    firm_at = [firm_bit[f].bit_length() - 1 for f in base.firms]
    worker_to = [base.worker_bit[em.copy_map[w]] if w in em.copy_map else 0 for w in em.market.workers]
    for hold in holds:
        assigned, held_by = [0] * len(base.workers), [0] * len(base.firms)
        for i, at in enumerate(firm_at):
            for j in _bits(hold[at]):
                if worker_to[j]:
                    held_by[i] |= worker_to[j]
                    assigned[worker_to[j].bit_length() - 1] |= 1 << i
        yield assigned, held_by


def omega_extend(base: RealizedBase, constraints: Iterable[JoinConstraint]) -> ExtendableMarket:
    """Augment the base by every constraint, in the given order."""
    return ExtendableMarket(base, tuple(constraints))


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    witness: object = None


@dataclass(frozen=True)
class ExtensionReport:
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]


def _extension_checks(
    em: ExtendableMarket, node_bound: int = DEFAULT_NODE_BOUND
) -> tuple[list[Check], list[Matching], dict, frozenset]:
    """Enumerate the extended market once and run the four extension checks;
    also returns the stable matchings, the index of each keyed by the base
    rotation set of its projection, and their firm-side order (_Masks.order).

    Each stable matching is encoded once and projected to base masks
    (_project), which every check reads.  The expected image, the lower
    rotation sets satisfying every enforced constraint, is searched by
    lower_sets_satisfying under the same node bound; the base market itself
    is never enumerated."""
    base, rp = em.base, em.base.rotation_poset
    kernel, base_kernel = em.market.kernel, base.market.kernel
    expected = lower_sets_satisfying(rp.poset, em.constraints, node_bound)
    extended = enumerate_stable(em.market, node_bound=node_bound)
    holds = [kernel.encode(mu)[1] for mu in extended]
    projected = list(_project(em, holds))
    unstable = [hold for at, hold in projected if not base_kernel.stable(at, hold)]
    checks = [Check("projections-stable-in-base", not unstable,
                    base_kernel.decode(unstable[0]).key() if unstable else None)]

    by_rep: dict[frozenset[str], int] = {}
    unrepresentable = []
    walk = _RotationMasks(rp, base_kernel)
    for k, (_, hold) in enumerate(projected):
        try:
            by_rep.setdefault(walk.rotation_set(hold), k)
        except NotRepresentable as exc:
            unrepresentable.append(str(exc))
    image_ok = not unrepresentable and set(by_rep) == set(expected)
    checks.append(Check("image-equals-constrained-base", image_ok, None if image_ok else {
        "image": [sorted(r) for r in sorted(by_rep, key=set_key)],
        "expected": [sorted(r) for r in expected],
        "unrepresentable": unrepresentable,
    }))

    # witness: the first index pair (i, j) on which the two orders disagree,
    # with whether extended[i] <= extended[j] above and below the projection
    up, down = kernel.order(holds), base_kernel.order([hold for _, hold in projected])
    diff = min(up ^ down, default=None)
    checks.append(Check("projection-order-embedding", diff is None, None if diff is None else (
        extended[diff[0]].key(), extended[diff[1]].key(), diff in up, diff in down)))

    seen = {tuple(hold) for _, hold in projected}
    extremes = [deferred_acceptance(base.market, side) for side in ("firms", "workers")]
    extremes_ok = all(tuple(base_kernel.encode(mu)[1]) in seen for mu in extremes)
    checks.append(Check("base-extremes-in-image", extremes_ok,
                        None if extremes_ok else tuple(mu.key() for mu in extremes)))
    return checks, extended, by_rep, up


def verify_extension(em: ExtendableMarket) -> ExtensionReport:
    """Check, by one enumeration of the extended market, that its stable
    matchings project exactly onto the base stable matchings satisfying every
    enforced constraint, that the projection preserves order, and that both
    base extremes survive."""
    return ExtensionReport(tuple(_extension_checks(em)[0]))


def certify_lattice(
    em: ExtendableMarket, lattice: Lattice, node_bound: int = DEFAULT_NODE_BOUND
) -> tuple[ExtensionReport, dict[str, Matching]]:
    """The certificate that em's market realizes the lattice, from one
    enumeration of the extended market: the four extension checks, then
    counts-match and order-isomorphism.  Each element x maps to the stable
    matching whose projection is represented by the join-irreducibles below
    x, which the base realizes as rotations of the same ids; the map must be
    a bijection that agrees with the firm-side order."""
    checks, extended, by_rep, up = _extension_checks(em, node_bound)
    n = len(lattice.elements)
    checks.append(Check("counts-match", len(extended) == n, {"stable": len(extended), "lattice": n}))
    rep = canonical_partial_rep(lattice)
    at = {x: by_rep[rep[x]] for x in lattice.elements if rep[x] in by_rep}
    if len(at) == n == len(extended):
        ok, witness = check_order_embedding(at, lattice.poset, lambda i, j: (i, j) in up)
    else:
        ok, witness = False, "no representation-based mapping"
    checks.append(Check("order-isomorphism", ok, witness))
    return ExtensionReport(tuple(checks)), {x: extended[k] for x, k in at.items()}


@dataclass(frozen=True)
class SynthesisResult:
    """The constructed market and, when certified, its certificate and the
    element-to-matching isomorphism."""

    extendable: ExtendableMarket
    iso: Mapping[str, Matching]
    report: ExtensionReport | None


def synthesize_from_lattice(lattice: Lattice, verify: bool = True) -> SynthesisResult:
    """Build a market whose stable matching lattice is order-isomorphic to the
    given lattice.

    Pipeline: take the join-irreducible poset, realize its elements as an
    antichain of gadget rotations of the same ids, enforce each covering
    relation p below q as the constraint "q occurring forces p", then enforce
    the lattice's own join constraints (constraints_from_lattice generates
    none that every lower set of the join-irreducibles satisfies, so a
    distributive lattice has none).  With verify, certify_lattice checks
    the result and a failed check raises IsomorphismFailure; without it the
    market is constructed only, never enumerated.
    """
    xj, xj_poset = join_irreducibles(lattice)
    base = antichain_base(xj)
    order_cs = sorted((JoinConstraint.make([{q}], {p}) for p, q in xj_poset.covers), key=JoinConstraint.key)
    em = omega_extend(base, [*order_cs, *constraints_from_lattice(lattice)])
    if not verify:
        return SynthesisResult(em, {}, None)
    report, iso = certify_lattice(em, lattice)
    if not report.ok:
        raise IsomorphismFailure("; ".join(f"{c.name}: {c.witness}" for c in report.failures()))
    return SynthesisResult(em, iso, report)
