"""Command line interface.

Every command validates its inputs, emits a machine-readable run report to
stdout, and exits 0 on success, 2 on a validation failure, 3 on an exceeded
search bound, and 4 on an internal invariant breach.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from dataclasses import replace
from itertools import permutations
from math import lcm
from pathlib import Path

from . import jsonio, selftest
from .antimatroids import (
    PathPoset,
    compute_path_poset,
    family_from_path_poset,
    min_cost_stable,
    reduce_to_matching,
    transfer_costs,
)
from .augment import certify_lattice, synthesize_from_lattice
from .dot import antimatroid_dot, poset_dot, rotation_poset_dot
from .errors import EnumerationBoundExceeded, InputError, LattmarkError
from .markets import DEFAULT_NODE_BOUND, enumerate_stable, stable_lattice
from .orders import check_order_isomorphism
from .rotations import extract_rotations


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


class Report:
    def __init__(self, command: str, inputs: list[str]):
        self.payload = {
            "command": command,
            "inputs": {p: _digest(p) for p in inputs},
            "checks": [],
            "outputs": [],
            "outcome": "ok",
        }
        self.start = time.monotonic()

    def check(self, name: str, ok: bool, witness=None):
        entry = {"name": name, "ok": bool(ok)}
        if not ok and witness is not None:
            entry["witness"] = witness
        self.payload["checks"].append(entry)
        if not ok:
            self.payload["outcome"] = "failed"

    def wrote(self, path: str):
        self.payload["outputs"].append(str(path))

    def emit(self, extra: dict | None = None) -> int:
        self.payload["elapsed_s"] = round(time.monotonic() - self.start, 3)
        if extra:
            self.payload.update(extra)
        print(json.dumps(self.payload, sort_keys=True, indent=2, default=str))
        return 0 if self.payload["outcome"] == "ok" else 4


def _load_market_or_bundle(path: str, args):
    """A bundle's base is checked under the command's --bound-nodes."""
    data = jsonio.read_json(path)
    if "extension" in data:
        bundle = jsonio.reduction_from_json(data, node_bound=args.bound_nodes)
        return bundle.extendable.market, bundle.extendable, bundle
    if "base" in data:
        em = jsonio.extendable_from_json(data, node_bound=args.bound_nodes)
        return em.market, em, None
    return jsonio.market_from_json(data), None, None


def cmd_synthesize(args) -> int:
    report = Report("synthesize", [args.lattice])
    lattice = jsonio.lattice_from_json(jsonio.read_json(args.lattice))
    result = synthesize_from_lattice(lattice)
    em = result.extendable
    for c in result.report.checks:
        report.check(c.name, c.ok, c.witness)
    jsonio.write_json(args.out, jsonio.extendable_to_json(em))
    report.wrote(args.out)
    iso_table = {x: jsonio.matching_to_json(mu) for x, mu in sorted(result.iso.items())}
    extra = {"agents": em.agent_count(), "iso": iso_table}
    if args.iso:
        jsonio.write_json(args.iso, {"v": 1, "iso": iso_table})
        report.wrote(args.iso)
    return report.emit(extra)


def cmd_verify(args) -> int:
    report = Report("verify", [args.market, args.lattice])
    market, em, _ = _load_market_or_bundle(args.market, args)
    lattice = jsonio.lattice_from_json(jsonio.read_json(args.lattice))
    if em is not None:
        certificate, _ = certify_lattice(em, lattice, node_bound=args.bound_nodes)
        for c in certificate.checks:
            report.check(c.name, c.ok, c.witness)
        return report.emit()
    if len(lattice.elements) > 8:
        raise InputError("plain-market verification searches over permutations; 8 elements max")
    lat, ms = stable_lattice(market, node_bound=args.bound_nodes)
    report.check("counts-match", len(ms) == len(lattice.elements),
                 {"stable": len(ms), "lattice": len(lattice.elements)})
    found = False
    if len(ms) == len(lattice.elements):
        for perm in permutations(range(len(ms))):
            mapping = {x: lat.elements[perm[i]] for i, x in enumerate(lattice.elements)}
            ok, _ = check_order_isomorphism(mapping, lattice.poset, lat.elements, lat.leq)
            if ok:
                found = True
                break
    report.check("order-isomorphism", found)
    return report.emit()


def cmd_enumerate(args) -> int:
    report = Report("enumerate", [args.market])
    market, _, _ = _load_market_or_bundle(args.market, args)
    ms = enumerate_stable(market, node_bound=args.bound_nodes)
    payload = jsonio.matchings_to_json(ms)
    if args.out:
        jsonio.write_json(args.out, payload)
        report.wrote(args.out)
    return report.emit({"count": len(ms)} if args.out else {"count": len(ms), "matchings": payload["matchings"]})


def cmd_rotations(args) -> int:
    report = Report("rotations", [args.market])
    market, _, _ = _load_market_or_bundle(args.market, args)
    rp = extract_rotations(market, node_bound=args.bound_nodes)
    payload = jsonio.rotation_poset_to_json(rp)
    if args.out:
        jsonio.write_json(args.out, payload)
        report.wrote(args.out)
    if args.dot:
        Path(args.dot).write_text(rotation_poset_dot(rp), encoding="utf-8")
        report.wrote(args.dot)
    return report.emit({"rotations": payload["rotations"], "leq": payload["leq"]})


def cmd_reduce(args) -> int:
    report = Report("reduce", [args.antimatroid, args.costs])
    payload = jsonio.antimatroid_from_json(jsonio.read_json(args.antimatroid))
    if len(payload.ground) > args.bound_elements:
        raise EnumerationBoundExceeded(len(payload.ground), args.bound_elements)
    # A path file is checked through the family its paths generate, which
    # must be an antimatroid whose paths are exactly the given ones.
    fam = family_from_path_poset(payload) if isinstance(payload, PathPoset) else payload
    # validates the axioms once; a violation raises InputError with its witness
    pp = compute_path_poset(fam)
    if isinstance(payload, PathPoset) and pp != payload:
        raise InputError("antimatroid: the given paths are not the paths of the family they generate")
    report.check("antimatroid-axioms", True)
    kind, costs = jsonio.costs_from_json(jsonio.read_json(args.costs))
    if kind != "ground":
        raise InputError("reduce expects ground costs")
    bundle = reduce_to_matching(pp, costs)
    if args.integer_costs:
        # scale so every transferred pair cost is integral
        base = bundle.extendable.base
        scale = lcm(*(len(rot.minus) for rot in base.rotation_poset.rotations.values()))
        bundle = replace(bundle, pair_costs=transfer_costs(base, {x: c * scale for x, c in costs.items()}),
                         cost_scale=scale)
    jsonio.write_json(args.out, jsonio.reduction_to_json(bundle))
    report.wrote(args.out)
    return report.emit({
        "agents": bundle.extendable.agent_count(),
        "ground": list(bundle.ground),
        "cost_scale": bundle.cost_scale,
    })


def cmd_solve(args) -> int:
    inputs = [args.bundle] + ([args.costs] if args.costs else [])
    report = Report("solve", inputs)
    market, _, reduction = _load_market_or_bundle(args.bundle, args)
    # a bundle's own pair costs carry its cost_scale, which the value is
    # divided by (and reported), so the value is in ground units
    scale = 1
    if args.costs:
        kind, costs = jsonio.costs_from_json(jsonio.read_json(args.costs))
        if kind == "ground":
            if reduction is None:
                raise InputError("ground costs require a reduction bundle")
            pair_costs = transfer_costs(reduction.extendable.base, costs)
        else:
            pair_costs = costs
    elif reduction is not None:
        pair_costs, scale = reduction.pair_costs, reduction.cost_scale
    else:
        raise InputError("no costs given and the input is not a reduction bundle")
    mu, value = min_cost_stable(market, pair_costs, sense=args.sense, node_bound=args.bound_nodes)
    value /= scale
    extra = {
        "value": [value.numerator, value.denominator],
        "matching": jsonio.matching_to_json(mu),
    }
    if reduction is not None:
        extra["recovered_set"] = sorted(reduction.recover(mu))
    if scale != 1:
        extra["cost_scale"] = scale
    return report.emit(extra)


def cmd_export_dot(args) -> int:
    report = Report("export-dot", [args.input])
    data = jsonio.read_json(args.input)
    if "rotations" in data:
        text = rotation_poset_dot(jsonio.rotation_poset_from_json(data))
    elif "feasible" in data or "paths" in data:
        payload = jsonio.antimatroid_from_json(data)
        if isinstance(payload, PathPoset):
            payload = family_from_path_poset(payload)
        text = antimatroid_dot(payload)
    elif "elements" in data:
        lat = jsonio.lattice_from_json(data)
        text = poset_dot(lat.poset)
    else:
        raise InputError("cannot infer a diagram from this payload")
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        report.wrote(args.out)
        return report.emit()
    print(text, end="")
    return 0


def cmd_selftest(args) -> int:
    return selftest.run(quick=args.quick, seed=args.seed)


def _non_negative_int(text: str) -> int:
    """A non-negative int option; anything else is a usage error (exit 2)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once a process: parsing reads it and never
    changes it.  It names no handler; main looks cmd_<command> up when it
    runs, so a handler rebound since (as the benchmark's tracer does) is
    the one called."""
    parser = argparse.ArgumentParser(
        prog="lattmark",
        description="Realize finite lattices as stable-matching markets; "
        "reduce antimatroid optimization to minimum-cost stable matching.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="lattice file -> market bundle with verified isomorphism")
    p.add_argument("lattice")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--iso", help="also write the element -> matching table")

    p = sub.add_parser("verify", help="check a market (or bundle) against a lattice")
    p.add_argument("market")
    p.add_argument("lattice")
    p.add_argument("--bound-nodes", type=_non_negative_int, default=DEFAULT_NODE_BOUND)

    p = sub.add_parser("enumerate", help="list all stable matchings")
    p.add_argument("market")
    p.add_argument("-o", "--out")
    p.add_argument("--bound-nodes", type=_non_negative_int, default=DEFAULT_NODE_BOUND)

    p = sub.add_parser("rotations", help="extract the rotation poset of a one-to-one market")
    p.add_argument("market")
    p.add_argument("-o", "--out")
    p.add_argument("--dot")
    p.add_argument("--bound-nodes", type=_non_negative_int, default=DEFAULT_NODE_BOUND)

    p = sub.add_parser("reduce", help="antimatroid + ground costs -> reduction bundle")
    p.add_argument("antimatroid")
    p.add_argument("costs")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--bound-elements", type=_non_negative_int, default=20)
    p.add_argument("--integer-costs", action="store_true",
                   help="pre-scale ground costs so pair costs are integers")

    p = sub.add_parser("solve", help="optimize pair costs over stable matchings")
    p.add_argument("bundle")
    p.add_argument("costs", nargs="?")
    p.add_argument("--sense", choices=["min", "max"], default="min")
    p.add_argument("--bound-nodes", type=_non_negative_int, default=DEFAULT_NODE_BOUND)

    p = sub.add_parser("export-dot", help="Hasse diagram of a lattice/rotation/antimatroid file")
    p.add_argument("input")
    p.add_argument("-o", "--out")

    p = sub.add_parser("selftest", help="run the built-in fixture checks")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--seed", type=int, default=7)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except LattmarkError as exc:
        print(json.dumps({"outcome": "error", "error": str(exc), "kind": type(exc).__name__}))
        return getattr(exc, "exit_code", 2)
    except OSError as exc:
        kind = "FileNotFound" if isinstance(exc, FileNotFoundError) else type(exc).__name__
        print(json.dumps({"outcome": "error", "error": str(exc), "kind": kind}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
