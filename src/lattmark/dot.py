"""DOT rendering of Hasse diagrams: cover edges only, drawn bottom-up."""

from __future__ import annotations

import json
from typing import Mapping

from .antimatroids import AntimatroidFamily
from .orders import Poset, inclusion_poset
from .rotations import RotationPoset


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def poset_dot(poset: Poset, labels: Mapping[str, str] | None = None, name: str = "hasse") -> str:
    labels = labels or {}
    lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=box];"]
    for e in poset.elements:
        label = labels.get(e, e)
        lines.append(f"  {_quote(e)} [label={_quote(label)}];")
    for x, y in poset.covers:
        lines.append(f"  {_quote(x)} -> {_quote(y)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


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
    sets, so ids that contain commas cannot make two sets share a node."""
    poset, sets = inclusion_poset(fam.feasible)
    labels = {x: "{" + ",".join(map(_set_member, sorted(s))) + "}" for x, s in zip(poset.elements, sets)}
    return poset_dot(poset, labels, name="feasible_sets")
