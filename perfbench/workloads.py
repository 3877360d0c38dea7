"""The benchmark's workloads: seeded input generation, the timed steps of each
instance, and the oracle that checks each instance's answers.

An instance is one lattice's synthesize -> verify, one antimatroid's
reduce -> solve, or one market's synthesize -> certify.  Every instance has
two phases: ``build`` writes a market bundle (synthesize or reduce) and
``check`` consumes it (verify, solve or certify).  The program sees only the
files written here; calls go through module attributes so that a traced pass
sees them.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

from lattmark import antimatroids, cli, fixtures, generators, jsonio, markets, orders

# the package attribute ``augment`` is the function of that name, not the module
augment = importlib.import_module("lattmark.augment")


@dataclass
class Instance:
    name: str
    steps: list  # (phase, argv for lattmark.cli.main, or a no-argument callable)
    check: Callable[[list], list[str]]  # step outputs -> problems found
    tamper: Callable[[list], list]  # step outputs -> outputs with one answer altered
    bundle: Path


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _report(label: str, output: tuple[int, str], problems: list[str]) -> dict:
    rc, text = output
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        problems.append(f"{label}: exit {rc}, report is not JSON")
        return {}
    if rc != 0 or report.get("outcome") != "ok":
        problems.append(f"{label}: exit {rc}, outcome {report.get('outcome')!r}: {report.get('error')}")
    failed = [c["name"] for c in report.get("checks", []) if not c.get("ok")]
    if failed:
        problems.append(f"{label}: failed checks {failed}")
    return report


def _retext(output: tuple[int, str], edit: Callable[[dict], None]) -> tuple[int, str]:
    report = json.loads(output[1])
    edit(report)
    return output[0], json.dumps(report)


# ---------------------------------------------------------------- lattices


def _lattice_instance(name: str, lattice, work: Path, check_phase: str) -> Instance:
    """synthesize -> verify (check_phase "verify") or synthesize -> certify."""
    lattice_path = work / f"{name}.lattice.json"
    bundle = work / f"{name}.bundle.json"
    jsonio.write_json(lattice_path, jsonio.lattice_to_json(lattice))
    elements = set(lattice.elements)
    build = ["synthesize", str(lattice_path), "-o", str(bundle)]
    unstable: dict[str, list[str]] = {}  # iso table text -> its elements whose matching is not stable

    def check_synthesis(output, problems):
        report = _report(f"{name} synthesize", output, problems)
        iso = report.get("iso", {})
        distinct = {json.dumps(m, sort_keys=True) for m in iso.values()}
        if set(iso) != elements or len(distinct) != len(elements):
            problems.append(f"{name} synthesize: iso table does not map |L|={len(elements)} elements "
                            "onto distinct matchings")
            return
        # Bundles are byte-identical between passes, so one check per iso table.
        key = json.dumps(iso, sort_keys=True)
        if key not in unstable:
            market = jsonio.extendable_from_json(jsonio.read_json(bundle)).market
            unstable[key] = sorted(x for x, m in iso.items()
                                   if not markets.is_stable(market, jsonio.matching_from_json(m)))
        if unstable[key]:
            problems.append(f"{name} synthesize: iso matchings of {unstable[key][:3]} are not stable "
                            "in the written market")

    if check_phase == "verify":
        def check(outputs):
            problems: list[str] = []
            check_synthesis(outputs[0], problems)
            report = _report(f"{name} verify", outputs[1], problems)
            names = {c["name"] for c in report.get("checks", [])}
            if not {"counts-match", "order-isomorphism"} <= names:
                problems.append(f"{name} verify: counts-match or order-isomorphism missing, got {sorted(names)}")
            return problems

        def tamper(outputs):
            def drop_one(report):
                report["iso"].pop(min(report["iso"]))
            return [_retext(outputs[0], drop_one), outputs[1]]

        steps = [("build", build), ("check", ["verify", str(bundle), str(lattice_path)])]
        return Instance(name, steps, check, tamper, bundle)

    def certify():
        market = jsonio.extendable_from_json(jsonio.read_json(bundle)).market
        specs = dict.fromkeys(market.spec(a) for a in (*market.firms, *market.workers))
        return [markets.check_path_independence(spec) for spec in specs]

    def check(outputs):
        problems: list[str] = []
        check_synthesis(outputs[0], problems)
        results = outputs[1]
        bad = [witness for ok, witness in results if not ok]
        if not results or bad:
            problems.append(f"{name} certify: {len(bad)} of {len(results)} specs not path-independent: {bad[:1]}")
        return problems

    def tamper(outputs):
        return [outputs[0], [(False, "altered")] + outputs[1][1:]]

    return Instance(name, [("build", build), ("check", certify)], check, tamper, bundle)


def _labelled_chain(n: int, rng: random.Random):
    labels = [f"e{k}" for k in rng.sample(range(100, 1000), n)]
    covers = list(zip(labels, labels[1:]))
    return orders.lattice_from_order(orders.poset_from_pairs(labels, covers, close=True))


def _m8():
    atoms = [f"a{i}" for i in range(1, 7)]
    covers = [("bot", a) for a in atoms] + [(a, "top") for a in atoms]
    return orders.lattice_from_order(orders.poset_from_pairs(["bot", *atoms, "top"], covers, close=True))


# Chain sizes of one chain-ladder pass.  A chain's join-irreducibles form a
# chain, so verify_extension enumerates 2^(n-1) base matchings; the ladder
# is weighted towards 9-11, where that exponential enumeration dominates.
CHAIN_SIZES = (6, 7, 8, 8, 9, 9, 9, 10, 10, 11)


def chain_ladder(rng: random.Random, work: Path) -> list[Instance]:
    sizes = list(CHAIN_SIZES)
    rng.shuffle(sizes)
    return [_lattice_instance(f"chain{n}-{i}", _labelled_chain(n, rng), work, "verify")
            for i, n in enumerate(sizes)]


def _relabelled(lattice, rng: random.Random):
    elements = list(lattice.elements)
    rng.shuffle(elements)
    names = dict(zip(elements, (f"e{k}" for k in rng.sample(range(100, 1000), len(elements)))))
    pairs = [(names[x], names[y]) for x, y in lattice.poset.relation]
    return orders.lattice_from_order(orders.poset_from_pairs(list(names.values()), pairs))


# random_lattice draws per size.  The shapes come from a fixed catalogue seed
# and the workload seed relabels them: random lattices of one size differ in
# cost by up to 5x, and a pass holds too few draws to average that out.
MIX_SIZES = range(10, 15)
MIX_PER_SIZE = 2
MIX_CATALOGUE_SEED = "lattice-mix/catalogue"


def lattice_mix(rng: random.Random, work: Path) -> list[Instance]:
    draws = random.Random(MIX_CATALOGUE_SEED)
    named = [("hexagon", fixtures.hexagon_lattice()), ("boolean4", fixtures.boolean_lattice(4)), ("m8", _m8())]
    named += [(f"random{n}-{k}", generators.random_lattice(n, draws))
              for n in MIX_SIZES for k in range(MIX_PER_SIZE)]
    rng.shuffle(named)
    return [_lattice_instance(name, _relabelled(lat, rng), work, "verify") for name, lat in named]


def _largest_universe(lattice) -> int:
    market = augment.synthesize_from_lattice(lattice, verify=False).extendable.market
    return max(len(markets.spec_universe(market.spec(a))) for a in (*market.firms, *market.workers))


def pi_certify(rng: random.Random, work: Path) -> list[Instance]:
    """Every lattice of 2-5 elements whose market has no spec of exactly 16
    partners, plus the hexagon, each relabelled by the seed.  The exhaustive
    check costs about u^2 * 2^u for a spec with u partners, so a random
    draw's cost swings with its largest universe; a fixed catalogue keeps a
    pass's cost the same for every seed.  The one 5-element lattice with a
    16-partner spec takes about 10 s, more than a whole pass."""
    catalogue = [lat for lat in generators.all_lattices_upto(5)
                 if len(lat.elements) >= 2 and _largest_universe(lat) != 16]
    catalogue.append(fixtures.hexagon_lattice())
    named = [(f"lattice{i}-{len(lat.elements)}", _relabelled(lat, rng)) for i, lat in enumerate(catalogue)]
    rng.shuffle(named)
    return [_lattice_instance(name, lat, work, "certify") for name, lat in named]


# --------------------------------------------------------------- reduction


def _graph_with(n: int, m: int, rng: random.Random):
    """A seeded random_graph with exactly n vertices and m edges."""
    p = m / (n * (n - 1) / 2)
    while True:
        vertices, edges = generators.random_graph(n, rng, p)
        if len(edges) == m:
            return vertices, edges


# (vertices, edges) of the random graphs in one reduce-solve pass.  The ground
# set of the independent-set antimatroid has vertices + edges elements, which
# sets the order of the cost.  The graphs come from a fixed catalogue seed and
# the workload seed renames their vertices, because graphs of one shape still
# differ in cost.
GRAPH_SHAPES = ((3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (4, 3), (5, 2), (5, 3), (5, 3), (6, 2), (5, 4))
GRAPH_CATALOGUE_SEED = "reduce-solve/catalogue"


def reduce_solve(rng: random.Random, work: Path) -> list[Instance]:
    k4 = ["a", "b", "c", "d"]
    graphs = [
        ("K3", ["u", "v", "x"], [("u", "v"), ("v", "x"), ("u", "x")]),
        ("C5", [f"v{i}" for i in range(1, 6)], [(f"v{i}", f"v{i % 5 + 1}") for i in range(1, 6)]),
        ("K4", k4, [(p, q) for i, p in enumerate(k4) for q in k4[i + 1:]]),
    ]
    draws = random.Random(GRAPH_CATALOGUE_SEED)
    graphs += [(f"g{n}v{m}e-{i}", *_graph_with(n, m, draws)) for i, (n, m) in enumerate(GRAPH_SHAPES)]
    rng.shuffle(graphs)
    instances = []
    for name, vertices, edges in graphs:
        names = dict(zip(vertices, (f"v{k}" for k in rng.sample(range(100, 1000), len(vertices)))))
        instances.append(_reduction_instance(name, [names[v] for v in vertices],
                                             [(names[u], names[v]) for u, v in edges], work))
    return instances


def _reduction_instance(name: str, vertices, edges, work: Path) -> Instance:
    fam, weights = antimatroids.independent_set_antimatroid(vertices, edges)
    costs = {x: -w for x, w in weights.items()}
    fam_path = work / f"{name}.antimatroid.json"
    costs_path = work / f"{name}.costs.json"
    bundle = work / f"{name}.bundle.json"
    jsonio.write_json(fam_path, jsonio.antimatroid_to_json(fam))
    jsonio.write_json(costs_path, {"v": 1, "ground": costs})
    optimum: list[Fraction] = []

    def check(outputs):
        problems: list[str] = []
        _report(f"{name} reduce", outputs[0], problems)
        solved = _report(f"{name} solve", outputs[1], problems)
        if problems:
            return problems
        if not optimum:
            optimum.append(antimatroids.min_cost_feasible(fam, costs)[1])
        value = Fraction(*solved["value"])
        recovered = frozenset(solved.get("recovered_set", ()))
        if value != optimum[0]:
            problems.append(f"{name} solve: value {value} != exhaustive optimum {optimum[0]}")
        if recovered not in set(fam.feasible):
            problems.append(f"{name} solve: recovered set {sorted(recovered)} is not feasible")
        elif sum(costs[x] for x in recovered) != value:
            problems.append(f"{name} solve: recovered set costs {sum(costs[x] for x in recovered)}, not {value}")
        return problems

    def tamper(outputs):
        def shift(report):
            report["value"][0] += 1
        return [outputs[0], _retext(outputs[1], shift)]

    steps = [("build", ["reduce", str(fam_path), str(costs_path), "-o", str(bundle)]),
             ("check", ["solve", str(bundle)])]
    return Instance(name, steps, check, tamper, bundle)


WORKLOADS = {
    "chain-ladder": chain_ladder,
    "lattice-mix": lattice_mix,
    "reduce-solve": reduce_solve,
    "pi-certify": pi_certify,
}


def generate(workload: str, seed: int, work: Path) -> list[Instance]:
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"), work)


class StepRaised:
    """Output of a step that raised instead of returning."""

    def __init__(self, text: str):
        self.text = text


def run_instance(instance: Instance) -> tuple[dict[str, float], list]:
    """Run an instance's steps in order; returns seconds per phase and the
    step outputs.  Closed loop: each step starts when the previous returns."""
    times: dict[str, float] = {}
    outputs = []
    for phase, step in instance.steps:
        start = perf_counter()
        try:
            out = run_cli(step) if isinstance(step, list) else step()
        except Exception:  # an uncaught error fails the instance, not the run
            out = StepRaised(traceback.format_exc(limit=-3))
        times[phase] = times.get(phase, 0.0) + perf_counter() - start
        outputs.append(out)
    return times, outputs


def problems_of(instance: Instance, outputs: list) -> list[str]:
    raised = [o.text for o in outputs if isinstance(o, StepRaised)]
    if raised:
        return [f"{instance.name}: step raised: {raised[0]}"]
    return instance.check(outputs)
