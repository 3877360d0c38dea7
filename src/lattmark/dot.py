"""DOT rendering of Hasse diagrams: cover edges only, drawn bottom-up."""

from __future__ import annotations

import json
from typing import Iterable, Mapping, Sequence

from .antimatroids import AntimatroidFamily
from .orders import Poset, _bit_of, _mask
from .rotations import RotationPoset


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _hasse_dot(name: str, nodes: Sequence[tuple[str, str]], covers: Iterable[tuple[str, str]]) -> str:
    """A digraph of labelled nodes (id, label) and cover edges between them,
    in the given order; each node id is quoted once."""
    quoted = {e: _quote(e) for e, _ in nodes}
    lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=box];"]
    lines += [f"  {quoted[e]} [label={_quote(label)}];" for e, label in nodes]
    lines += [f"  {quoted[x]} -> {quoted[y]};" for x, y in covers]
    lines.append("}")
    return "\n".join(lines) + "\n"


def poset_dot(poset: Poset, labels: Mapping[str, str] | None = None, name: str = "hasse") -> str:
    labels = labels or {}
    return _hasse_dot(name, [(e, labels.get(e, e)) for e in poset.elements], poset.covers)


def rotation_poset_dot(rp: RotationPoset) -> str:
    labels = {
        rid: f"{rid}: +{sorted(rot.plus)} -{sorted(rot.minus)}"
        for rid, rot in rp.rotations.items()
    }
    return poset_dot(rp.poset, labels, name="rotations")


def _set_member(x: str) -> str:
    """An id as written in a set label: JSON-quoted when it contains a
    character of the label's own syntax, so distinct sets get distinct
    labels; any other id as it is."""
    return json.dumps(x, ensure_ascii=False) if any(c in x for c in ',{}"') else x


def antimatroid_dot(fam: AntimatroidFamily) -> str:
    """Nodes are named by their index in set_key order and labelled with their
    sets, so ids that contain commas cannot make two sets share a node.

    The family must be an antimatroid, checked by the caller
    (compute_path_poset, or family_from_path_poset for a path file): there
    A is covered by B iff B = A | {x} for some x not in A, so the covers are
    the one-element extensions, found on int masks.  fam.feasible holds
    distinct sets in set_key order, as AntimatroidFamily.of makes it."""
    ground = sorted(fam.ground_set)
    bit, member = _bit_of(ground), {x: _set_member(x) for x in ground}
    index = {_mask(bit, s): i for i, s in enumerate(fam.feasible)}
    names = [f"x{i}" for i in range(len(index))]
    covers = sorted(
        (names[i], names[index[m | b]]) for m, i in index.items() for b in bit.values() if not m & b and m | b in index
    )
    nodes = [(names[i], "{" + ",".join([member[x] for x in sorted(s)]) + "}") for i, s in enumerate(fam.feasible)]
    return _hasse_dot("feasible_sets", nodes, covers)
