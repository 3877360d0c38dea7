"""Seeded fixture generators: lattices, antimatroids, graphs.

These exist for tests and the selftest command.  The random lattice sampler
draws intersection-closed set families (every finite lattice arises that
way); the antimatroid generator closes random seeds under union and repairs
accessibility, so it reaches valid instances but is not a uniform sampler.
"""

from __future__ import annotations

import random
from itertools import permutations
from operator import and_, or_
from typing import Iterable

from .antimatroids import AntimatroidFamily
from .errors import InputError, NotALattice
from .orders import Lattice, Poset, inclusion_poset, lattice_from_order, set_key


def _family_lattice(family: Iterable[frozenset]) -> Lattice:
    return lattice_from_order(inclusion_poset(family)[0])


def _close(family: set[frozenset], ops) -> set[frozenset]:
    """The least superset of family closed under each binary set operation."""
    out = set(family)
    grew = True
    while grew:
        grew = False
        items = sorted(out, key=set_key)
        for i, a in enumerate(items):
            for b in items[i + 1:]:
                for op in ops:
                    c = op(a, b)
                    if c not in out:
                        out.add(c)
                        grew = True
    return out


def _sample_lattice(n: int, rng: random.Random, ops) -> Lattice:
    """Rejection-sample set families over a small universe, closed under ops,
    until one has exactly n members; InputError after 20,000 tries."""
    if n < 1:
        raise InputError("a lattice needs at least one element")
    if n == 1:
        return _family_lattice({frozenset()})
    for _ in range(20000):
        u = rng.randint(2, max(2, min(n, 7)))
        universe = frozenset(range(u))
        family = {frozenset(), universe}
        for _ in range(rng.randint(1, n)):
            family.add(frozenset(i for i in range(u) if rng.random() < 0.5))
        family = _close(family, ops)
        if len(family) == n:
            return _family_lattice(family)
    raise InputError(f"could not sample a lattice with {n} elements")


def random_lattice(n: int, rng: random.Random) -> Lattice:
    """A random lattice with exactly n elements, by rejection sampling over
    intersection-closed set families."""
    return _sample_lattice(n, rng, (and_,))


def random_distributive_lattice(n: int, rng: random.Random) -> Lattice:
    """Like random_lattice, but the family is closed under union too."""
    return _sample_lattice(n, rng, (and_, or_))


def all_lattices_upto(n: int) -> list[Lattice]:
    """Every lattice with at most n elements, one per isomorphism class.

    Enumerates strict orders inside the upper triangle (every poset has such
    a labeling), keeps the transitive ones that carry joins and meets, and
    dedups by the minimum relation matrix over relabelings.  Feasible for
    n <= 6.
    """
    out: list[Lattice] = []
    for size in range(1, n + 1):
        pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
        seen_forms: set[tuple] = set()
        for mask in range(1 << len(pairs)):
            lt = {pairs[k] for k in range(len(pairs)) if mask >> k & 1}
            if any((i, j) in lt and (j, k) in lt and (i, k) not in lt
                   for i in range(size) for j in range(size) for k in range(size)):
                continue
            leq = lt | {(i, i) for i in range(size)}
            form = min(
                tuple(sorted((p[i], p[j]) for i, j in leq))
                for p in permutations(range(size))
            )
            if form in seen_forms:
                continue
            names = tuple(f"x{i}" for i in range(size))
            poset = Poset(names, frozenset((names[i], names[j]) for i, j in leq))
            try:
                out.append(lattice_from_order(poset))
                seen_forms.add(form)
            except NotALattice:
                continue
    return out


def random_antimatroid(n: int, rng: random.Random) -> AntimatroidFamily:
    """Draw four seed subsets, close under union, add the ground set, then repair
    accessibility by deleting random elements from stuck sets."""
    if n < 1 or n > 26:
        raise InputError("ground size must be between 1 and 26")
    ground = [chr(ord("a") + i) for i in range(n)]
    full = frozenset(ground)
    fam: set[frozenset[str]] = {frozenset(), full}
    for _ in range(4):
        fam.add(frozenset(g for g in ground if rng.random() < 0.5))
    changed = True
    while changed:
        changed = False
        items = sorted(fam, key=set_key)
        for i, a in enumerate(items):
            for b in items[i + 1:]:
                if a | b not in fam:
                    fam.add(a | b)
                    changed = True
        for g in sorted(fam, key=set_key):
            if g and not any(g - {x} in fam for x in g):
                x = rng.choice(sorted(g))
                fam.add(g - frozenset([x]))
                changed = True
    return AntimatroidFamily.of(ground, fam)


def random_graph(n: int, rng: random.Random, p: float = 0.5) -> tuple[list[str], list[tuple[str, str]]]:
    vertices = [f"v{i + 1}" for i in range(n)]
    edges = [
        (vertices[i], vertices[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return vertices, edges
