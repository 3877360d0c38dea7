from __future__ import annotations

import contextlib
import copy
import functools
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lattmark import antichain_base, omega_extend, JoinConstraint
from lattmark import project_to_base, synthesize_from_lattice
from lattmark import cli, jsonio, markets
from lattmark.antimatroids import (
    AntimatroidFamily,
    ReductionBundle,
    antimatroid_constraints,
    compute_path_poset,
    independent_set_antimatroid,
    min_cost_feasible,
    reduce_to_matching,
)
from lattmark.dot import antimatroid_dot, poset_dot, rotation_poset_dot
from lattmark.errors import InputError, NotALattice, SearchBoundExceeded
from lattmark.fixtures import (
    diamond_lattice,
    four_element_antimatroid,
    hexagon_lattice,
    pentagon_lattice,
    seven_pair_market,
)
from lattmark.generators import all_lattices_upto, random_antimatroid, random_graph
from lattmark.markets import IfElse, Matching, MatchingMarket, PreferenceList, Triggered
from lattmark.orders import Poset, inclusion_poset
from lattmark.rotations import RealizedBase, Rotation, RotationPoset, extract_rotations

from oracles import (
    chain_lattice,
    full_antimatroid_constraints,
    independent_set_path_poset,
    lattice_from_order_by_scan,
    m_lattice,
    path_file_accepted_by_closure,
    union_irreducible_paths,
    validate_antimatroid_pairwise,
    wrap_compiled_choices,
)


def _swap_gadgets(*gadgets):
    """A one-to-one market of 2x2 swap gadgets, one per (f1, f2, w1, w2),
    and its rotation poset, built without enumeration: the antichain of the
    gadgets' swaps r1, r2, ..."""
    choice, rotations = {}, {}
    for k, (f1, f2, w1, w2) in enumerate(gadgets, 1):
        choice.update({f1: PreferenceList.of(w2, w1), f2: PreferenceList.of(w1, w2),
                       w1: PreferenceList.of(f1, f2), w2: PreferenceList.of(f2, f1)})
        rotations[f"r{k}"] = Rotation(f"r{k}", frozenset({(f1, w2), (f2, w1)}), frozenset({(f1, w1), (f2, w2)}))
    market = MatchingMarket(
        tuple(sorted(a for g in gadgets for a in g[:2])), tuple(sorted(a for g in gadgets for a in g[2:])), choice
    )
    ids = tuple(sorted(rotations))
    worker_optimal = Matching(frozenset().union(*(r.minus for r in rotations.values())))
    return market, RotationPoset(Poset(ids, frozenset((i, i) for i in ids)), rotations, worker_optimal)


AB_GADGETS = (("A1", "A2", "x1", "x2"), ("B1", "B2", "y1", "y2"))


class TestJsonRoundTrips:
    def test_lattice_via_leq(self, hexagon):
        again = jsonio.lattice_from_json(jsonio.lattice_to_json(hexagon))
        assert again == hexagon

    def test_lattice_via_tables(self, hexagon):
        els = list(hexagon.elements)
        data = {
            "v": 1,
            "elements": els,
            "join": [[hexagon.join(x, y) for y in els] for x in els],
            "meet": [[hexagon.meet(x, y) for y in els] for x in els],
        }
        assert jsonio.lattice_from_json(data) == hexagon

    def test_market(self, seven_market):
        again = jsonio.market_from_json(jsonio.market_to_json(seven_market))
        assert again == seven_market

    def test_market_with_all_spec_kinds(self, seven_base, rot_ids):
        jc = JoinConstraint.make([{rot_ids["rot1"]}, {rot_ids["rot2"]}], {rot_ids["rot3"], rot_ids["rot4"]})
        em = omega_extend(seven_base, [jc])
        again = jsonio.market_from_json(jsonio.market_to_json(em.market))
        assert again == em.market

    def test_matching(self):
        mu = Matching.of([("f1", "w2"), ("f2", "w1")])
        assert jsonio.matching_from_json(jsonio.matching_to_json(mu)) == mu

    def test_rotation_poset(self, seven_rotation_poset):
        data = jsonio.rotation_poset_to_json(seven_rotation_poset)
        again = jsonio.rotation_poset_from_json(data)
        assert again == seven_rotation_poset

    def test_extendable_bundle(self, seven_base, rot_ids):
        jc = JoinConstraint.make([{rot_ids["rot1"]}, {rot_ids["rot2"]}], {rot_ids["rot3"], rot_ids["rot4"]})
        ab, _ = _swap_gadgets(*AB_GADGETS)
        full, ids = {"v", "market", "rotation_poset"}, {"v", "gadgets"}
        # a gadget bank is stored as its ids, any other base in full
        for em, base_keys in ((omega_extend(seven_base, [jc]), full),
                              (omega_extend(RealizedBase(ab, extract_rotations(ab)), []), full),
                              (omega_extend(antichain_base(["p", "q"]), [JoinConstraint.make([{"q"}], {"p"})]), ids)):
            data = jsonio.extendable_to_json(em)
            assert set(data) == {"v", "base", "constraints"}
            assert set(data["base"]) == base_keys
            again = jsonio.extendable_from_json(data)
            assert again == em
            assert again.market == em.market

    def test_reduction_bundle(self, quad_antimatroid):
        pp = compute_path_poset(quad_antimatroid)
        bundle = reduce_to_matching(pp, {"a": -2, "b": Fraction(3, 4), "c": 0, "d": 5})
        data = jsonio.reduction_to_json(bundle)
        assert set(data) == {"v", "extension", "costs"}
        assert data["extension"]["base"] == {"v": 1, "gadgets": ["a", "b", "c", "d"]}
        assert data["costs"] == {"a": [-2, 1], "b": [3, 4], "c": [0, 1], "d": [5, 1]}
        again = jsonio.reduction_from_json(data)
        assert again.extendable == bundle.extendable
        assert again.costs == bundle.costs and again.pair_costs == bundle.pair_costs
        assert again.ground == bundle.ground

    def test_antimatroid_both_forms(self, quad_antimatroid):
        fam = jsonio.antimatroid_from_json(jsonio.antimatroid_to_json(quad_antimatroid))
        assert fam == quad_antimatroid
        pp = compute_path_poset(quad_antimatroid)
        pp2 = jsonio.antimatroid_from_json(jsonio.path_poset_to_json(pp))
        assert pp2 == pp

    def test_costs_forms(self):
        kind, costs = jsonio.costs_from_json({"ground": {"a": -1, "b": 2}})
        assert kind == "ground" and costs == {"a": -1, "b": 2}
        kind, costs = jsonio.costs_from_json({"pairs": [["f", "w", 1, 2]]})
        assert kind == "pairs" and costs == {("f", "w"): Fraction(1, 2)}

    def test_dump_is_byte_deterministic(self, hexagon):
        a = jsonio.dumps(jsonio.lattice_to_json(hexagon))
        b = jsonio.dumps(jsonio.lattice_to_json(hexagon_lattice()))
        assert a == b

    def test_bad_payloads_raise_input_errors(self):
        with pytest.raises(InputError):
            jsonio.lattice_from_json({"v": 1})
        with pytest.raises(InputError):
            jsonio.antimatroid_from_json({"ground": ["a"]})
        with pytest.raises(InputError):
            jsonio.costs_from_json({})

    def test_malformed_leaves_raise_input_errors(self, seven_rotation_poset):
        data = jsonio.rotation_poset_to_json(seven_rotation_poset)
        del data["rotations"][0]["id"]
        with pytest.raises(InputError):
            jsonio.rotation_poset_from_json(data)
        with pytest.raises(InputError):
            jsonio.costs_from_json({"ground": {"a": "x"}})
        with pytest.raises(InputError):
            jsonio.costs_from_json({"pairs": [["f", "w", 1, 0]]})


class TestDot:
    def test_poset_dot_lists_cover_edges_only(self, hexagon):
        text = poset_dot(hexagon.poset)
        assert "rankdir=BT" in text
        assert '"a" -> "b"' in text and '"a" -> "c"' in text
        assert '"a" -> "f"' not in text  # transitive edge suppressed

    def test_rotation_dot(self, seven_rotation_poset):
        text = rotation_poset_dot(seven_rotation_poset)
        assert text.count("->") == 2  # two cover pairs in the rotation order

    def test_antimatroid_dot(self, quad_antimatroid):
        text = antimatroid_dot(quad_antimatroid)
        assert '"{}"' in text and '"{a,b,c,d}"' in text

    def test_antimatroid_dot_draws_the_inclusion_order(self):
        """The one-element extensions are the covers of the inclusion order
        on an antimatroid; the drawing is the inclusion poset's."""
        rng = random.Random(5)
        for fam in [random_antimatroid(rng.randint(1, 6), rng) for _ in range(60)]:
            poset, sets = inclusion_poset(fam.feasible)
            labels = {x: "{" + ",".join(sorted(s)) + "}" for x, s in zip(poset.elements, sets)}
            assert antimatroid_dot(fam) == poset_dot(poset, labels, name="feasible_sets")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


class TestCli:
    def test_synthesize_verify_enumerate(self, tmp_path, capsys):
        lattice_file = tmp_path / "pentagon.json"
        jsonio.write_json(lattice_file, jsonio.lattice_to_json(pentagon_lattice()))
        bundle_file = tmp_path / "bundle.json"
        code, report = run_cli(capsys, "synthesize", str(lattice_file), "-o", str(bundle_file))
        assert code == 0 and report["outcome"] == "ok"
        assert report["agents"] == 24

        code, report = run_cli(capsys, "verify", str(bundle_file), str(lattice_file))
        assert code == 0 and report["outcome"] == "ok"

        out_file = tmp_path / "matchings.json"
        code, report = run_cli(capsys, "enumerate", str(bundle_file), "-o", str(out_file))
        assert code == 0 and report["count"] == 5

    def test_verify_plain_market_by_permutation_search(self, tmp_path, capsys):
        market_file = tmp_path / "market.json"
        jsonio.write_json(market_file, jsonio.market_to_json(antichain_base(["p"]).market))
        lattice_file = tmp_path / "chain2.json"
        jsonio.write_json(
            lattice_file,
            {"v": 1, "elements": ["lo", "hi"], "leq": [["lo", "hi"]]},
        )
        code, report = run_cli(capsys, "verify", str(market_file), str(lattice_file))
        assert code == 0 and report["outcome"] == "ok"

    def test_rotations_command(self, tmp_path, capsys):
        market_file = tmp_path / "market.json"
        jsonio.write_json(market_file, jsonio.market_to_json(seven_pair_market()))
        dot_file = tmp_path / "rot.dot"
        code, report = run_cli(capsys, "rotations", str(market_file), "--dot", str(dot_file))
        assert code == 0
        assert len(report["rotations"]) == 4
        assert dot_file.read_text().startswith("digraph")

    def test_rotations_command_writes_the_reported_poset(self, tmp_path, capsys):
        market_file = tmp_path / "market.json"
        jsonio.write_json(market_file, jsonio.market_to_json(seven_pair_market()))
        out_file = tmp_path / "rotations.json"
        code, report = run_cli(capsys, "rotations", str(market_file), "-o", str(out_file))
        written = json.loads(out_file.read_text())
        assert code == 0 and len(report["rotations"]) == 4
        assert (written["rotations"], written["leq"]) == (report["rotations"], report["leq"])

    def test_reduce_and_solve(self, tmp_path, capsys):
        anti_file = tmp_path / "anti.json"
        jsonio.write_json(anti_file, jsonio.antimatroid_to_json(four_element_antimatroid()))
        costs_file = tmp_path / "costs.json"
        jsonio.write_json(costs_file, {"v": 1, "ground": {x: -1 for x in "abcd"}})
        bundle_file = tmp_path / "reduction.json"
        code, report = run_cli(capsys, "reduce", str(anti_file), str(costs_file), "-o", str(bundle_file))
        assert code == 0
        assert set(json.loads(bundle_file.read_text())) == {"v", "extension", "costs"}

        code, report = run_cli(capsys, "solve", str(bundle_file))
        assert code == 0
        assert report["value"] == [-4, 1]
        assert report["recovered_set"] == ["a", "b", "c", "d"]

        code, report = run_cli(capsys, "solve", str(bundle_file), "--sense", "max")
        assert code == 0 and report["value"] == [0, 1]

        # the one-set antimatroid reduces to the empty market
        jsonio.write_json(anti_file, {"v": 1, "ground": [], "feasible": [[]]})
        jsonio.write_json(costs_file, {"v": 1, "ground": {}})
        code, report = run_cli(capsys, "reduce", str(anti_file), str(costs_file), "-o", str(bundle_file))
        assert (code, report["agents"], report["ground"]) == (0, 0, [])
        code, report = run_cli(capsys, "solve", str(bundle_file))
        assert (code, report["value"], report["recovered_set"]) == (0, [0, 1], [])

    def test_export_dot(self, tmp_path, capsys):
        lattice_file = tmp_path / "hexagon.json"
        jsonio.write_json(lattice_file, jsonio.lattice_to_json(hexagon_lattice()))
        code, out = run_cli(capsys, "export-dot", str(lattice_file))
        assert code == 0 and out.startswith("digraph")

    def test_export_dot_escapes_backslashes(self, tmp_path, capsys):
        lattice_file = tmp_path / "lattice.json"
        jsonio.write_json(lattice_file, {"v": 1, "elements": ["a\\", "b"], "leq": [["a\\", "b"]]})
        code, out = run_cli(capsys, "export-dot", str(lattice_file))
        assert code == 0
        assert '  "a\\\\" [label="a\\\\"];' in out.splitlines()
        assert '  "a\\\\" -> "b";' in out.splitlines()

    def test_export_dot_of_antimatroid_with_commas_in_ids(self, tmp_path, capsys):
        ground = ["a", "a,b", "b"]
        feasible = [[x for i, x in enumerate(ground) if mask >> i & 1] for mask in range(1 << len(ground))]
        anti_file = tmp_path / "free.json"
        jsonio.write_json(anti_file, {"v": 1, "ground": ground, "feasible": feasible})
        code, out = run_cli(capsys, "export-dot", str(anti_file))
        assert code == 0
        nodes, labels = zip(*(line.split(" [label=", 1) for line in out.splitlines() if "[label=" in line))
        assert len(nodes) == len(set(nodes)) == len(feasible)
        assert len(set(labels)) == len(feasible)
        assert '[label="{a,\\"a,b\\",b}"];' in out and '[label="{a,b}"];' in out

    def test_validation_failure_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"v": 1, "elements": ["a", "b"], "leq": [["a","b"],["b","a"]]}')
        out_file = tmp_path / "out.json"
        code, report = run_cli(capsys, "synthesize", str(bad), "-o", str(out_file))
        assert code == 2
        assert report["kind"] == "NotAntisymmetric"

    def test_missing_file_exit_code(self, tmp_path, capsys):
        code, report = run_cli(capsys, "enumerate", str(tmp_path / "absent.json"))
        assert code == 2

    def test_determinism_of_written_bundles(self, tmp_path, capsys):
        lattice_file = tmp_path / "pentagon.json"
        jsonio.write_json(lattice_file, jsonio.lattice_to_json(pentagon_lattice()))
        out1, out2 = tmp_path / "b1.json", tmp_path / "b2.json"
        run_cli(capsys, "synthesize", str(lattice_file), "-o", str(out1))
        run_cli(capsys, "synthesize", str(lattice_file), "-o", str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_selftest_quick(self, capsys):
        code = cli.main(["selftest", "--quick"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out

    def test_selftest_full(self, capsys):
        """The full selftest adds the hexagon synthesis and an
        independent-set reduction to the quick checks, and passes them."""
        code = cli.main(["selftest"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0 and not [line for line in lines if line.startswith("FAIL")]
        for name in ("hexagon synthesis verifies", "independent-set reduction optimum agrees"):
            assert f"PASS  {name}" in lines, name

    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run([sys.executable, "-m", "lattmark", "selftest", "--quick"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "FAIL" not in done.stdout


class TestCliVariants:
    def test_solve_plain_market_with_pair_costs(self, tmp_path, capsys):
        market_file = tmp_path / "market.json"
        jsonio.write_json(market_file, jsonio.market_to_json(antichain_base(["p"]).market))
        costs_file = tmp_path / "pair_costs.json"
        jsonio.write_json(costs_file, {"v": 1, "pairs": [["p.f1", "p.w1", 5, 1]]})
        code, report = run_cli(capsys, "solve", str(market_file), str(costs_file))
        assert code == 0 and report["value"] == [0, 1]
        code, report = run_cli(capsys, "solve", str(market_file), str(costs_file), "--sense", "max")
        assert code == 0 and report["value"] == [5, 1]

    def test_solve_without_costs_on_plain_market_fails(self, tmp_path, capsys):
        market_file = tmp_path / "market.json"
        jsonio.write_json(market_file, jsonio.market_to_json(antichain_base(["p"]).market))
        code, report = run_cli(capsys, "solve", str(market_file))
        assert code == 2

    def test_solve_ground_costs_need_a_reduction_bundle(self, tmp_path, capsys):
        """Ground costs name rotations of a reduction; given with a synthesis
        bundle or a plain market, solve exits 2."""
        lattice_file, bundle_file = tmp_path / "pentagon.json", tmp_path / "bundle.json"
        jsonio.write_json(lattice_file, jsonio.lattice_to_json(pentagon_lattice()))
        assert run_cli(capsys, "synthesize", str(lattice_file), "-o", str(bundle_file))[0] == 0
        market_file = tmp_path / "market.json"
        jsonio.write_json(market_file, jsonio.market_to_json(antichain_base(["p"]).market))
        costs_file = tmp_path / "costs.json"
        jsonio.write_json(costs_file, {"v": 1, "ground": {"p": 1}})
        for target in (bundle_file, market_file):
            code, report = run_cli(capsys, "solve", str(target), str(costs_file))
            assert (code, report["error"]) == (2, "ground costs require a reduction bundle"), target

    def test_rotations_file_must_be_an_order(self, tmp_path, capsys):
        rp = extract_rotations(seven_pair_market())
        rot_file, out_file = tmp_path / "rot.json", tmp_path / "rot.dot"
        data = jsonio.rotation_poset_to_json(rp)
        jsonio.write_json(rot_file, data)
        assert jsonio.rotation_poset_from_json(jsonio.read_json(rot_file)) == rp
        code, _ = run_cli(capsys, "export-dot", str(rot_file), "-o", str(out_file))
        assert code == 0 and out_file.read_text(encoding="utf-8") == rotation_poset_dot(rp)
        # cover pairs suffice, as in a lattice file
        covers = [list(p) for p in rp.poset.covers]
        jsonio.write_json(rot_file, {**data, "leq": covers})
        assert jsonio.rotation_poset_from_json(jsonio.read_json(rot_file)) == rp
        jsonio.write_json(rot_file, {**data, "leq": [["r2", "r3"], ["r3", "r2"], ["r1", "r4"], ["r4", "r2"]]})
        code, report = run_cli(capsys, "export-dot", str(rot_file))
        assert code == 2 and report["kind"] == "NotAntisymmetric"

    def test_export_dot_checks_the_antimatroid_axioms(self, tmp_path, capsys):
        """export-dot rejects what reduce rejects, a ground id listed twice
        in either form included."""
        anti_file, costs_file, out = tmp_path / "anti.json", tmp_path / "costs.json", str(tmp_path / "out.json")
        jsonio.write_json(costs_file, {"v": 1, "ground": {"a": 1, "b": 1}})
        for data, kind, text in (
            ({"v": 1, "ground": ["a", "b"], "feasible": [[], ["a"], ["b"]]}, "InputError", "not-union-closed"),
            ({"v": 1, "ground": ["a", "b"], "paths": [{"set": ["a", "b"], "endpoint": "b"}]},
             "InputError", "not-accessible"),
            ({"v": 1, "ground": ["a", "a"], "feasible": [[], ["a"]]}, "DuplicateId", "duplicate id 'a'"),
            ({"v": 1, "ground": ["a", "a"], "paths": [{"set": ["a"], "endpoint": "a"}]}, "DuplicateId", "duplicate id 'a'"),
        ):
            jsonio.write_json(anti_file, data)
            for argv in (["export-dot", str(anti_file)], ["reduce", str(anti_file), str(costs_file), "-o", out]):
                code, report = run_cli(capsys, *argv)
                assert (code, report["kind"]) == (2, kind) and text in report["error"], (data, argv)

    def test_export_dot_of_a_14_element_free_path_file(self, tmp_path, capsys):
        ground = [f"e{i:02d}" for i in range(14)]
        anti_file, out_file = tmp_path / "free14.json", tmp_path / "free14.dot"
        jsonio.write_json(anti_file, {"v": 1, "ground": ground, "paths": [{"set": [x], "endpoint": x} for x in ground]})
        start = time.monotonic()
        code, _ = run_cli(capsys, "export-dot", str(anti_file), "-o", str(out_file))
        assert code == 0 and time.monotonic() - start < 10
        text = out_file.read_text(encoding="utf-8")
        assert text.count("[label=") == 2 ** 14 and text.count(" -> ") == 14 * 2 ** 13

    def test_export_dot_of_rotations_file(self, tmp_path, capsys):
        rot_file = tmp_path / "rot.json"
        rp = extract_rotations(antichain_base(["p", "q"]).market)
        jsonio.write_json(rot_file, jsonio.rotation_poset_to_json(rp))
        out_file = tmp_path / "rot.dot"
        code, _ = run_cli(capsys, "export-dot", str(rot_file), "-o", str(out_file))
        assert code == 0 and out_file.read_text().startswith("digraph rotations")

    def test_reduce_has_no_integer_costs_option(self, tmp_path, capsys):
        anti_file, costs_file = self._quad_files(tmp_path, {"a": 3, "b": -2, "c": 5, "d": -7})
        with pytest.raises(SystemExit) as exc:
            cli.main(["reduce", str(anti_file), str(costs_file), "-o", str(tmp_path / "out.json"), "--integer-costs"])
        assert exc.value.code == 2 and "--integer-costs" in capsys.readouterr().err

    def test_solve_transfers_ground_costs_from_the_bundle_or_a_file_alike(self, tmp_path, capsys):
        """A ground-cost file given to solve is transferred unscaled: it solves
        to the value and set of a bundle reduced with those costs."""
        fam = four_element_antimatroid()
        anti_file, costs_file = self._quad_files(tmp_path, {"a": 3, "b": -2, "c": 5, "d": -7})
        other = tmp_path / "other.json"
        other_costs = {"a": -1, "b": 4, "c": -3, "d": -2}
        jsonio.write_json(other, {"v": 1, "ground": other_costs})
        bundle, other_bundle = tmp_path / "bundle.json", tmp_path / "other.bundle.json"
        run_cli(capsys, "reduce", str(anti_file), str(costs_file), "-o", str(bundle))
        run_cli(capsys, "reduce", str(anti_file), str(other), "-o", str(other_bundle))
        for sense in ("min", "max"):
            code, got = run_cli(capsys, "solve", str(bundle), str(other), "--sense", sense)
            _, want = run_cli(capsys, "solve", str(other_bundle), "--sense", sense)
            assert code == 0 and (got["value"], got["recovered_set"]) == (want["value"], want["recovered_set"])
            assert Fraction(*got["value"]) == min_cost_feasible(fam, other_costs, sense)[1], sense

    def test_solve_rejects_bad_ground_costs_in_a_bundle(self, tmp_path, capsys):
        bundle_file = _reduction_file(tmp_path)
        data = json.loads(bundle_file.read_text())
        for bad in ({"zz": [-5, 1]}, {"a": [1, 0]}, {"a": [1, 2, 3]}, {"a": 1}, {"a": ["1", 2]},
                    {"a": [1.5, 2]}, {"a": [True, 1]}, {"a": None}):
            jsonio.write_json(bundle_file, {**data, "costs": {**data["costs"], **bad}})
            code, report = run_cli(capsys, "solve", str(bundle_file))
            assert (code, report["kind"]) == (2, "InputError"), bad
            assert "costs" in report["error"] and next(iter(bad)) in report["error"], (bad, report["error"])

    def test_solve_rejects_a_bundle_that_stores_pair_costs(self, tmp_path, capsys):
        """The older layout stored the transferred pair costs, and a
        `cost_scale` when they were scaled to integers."""
        bundle_file = _reduction_file(tmp_path)
        data = json.loads(bundle_file.read_text())
        bundle = jsonio.reduction_from_json(data)
        older = {"v": 1, "extension": data["extension"], "pair_costs": jsonio.pair_costs_to_json(bundle.pair_costs)}
        scaled = {**older, "pair_costs": jsonio.pair_costs_to_json({p: 2 * v for p, v in bundle.pair_costs.items()}),
                  "cost_scale": 2}
        for old in (older, scaled):
            jsonio.write_json(bundle_file, old)
            code, report = run_cli(capsys, "solve", str(bundle_file))
            assert (code, report["kind"]) == (2, "InputError") and "'costs'" in report["error"]

    def _quad_files(self, tmp_path, ground_costs):
        anti_file = tmp_path / "anti.json"
        jsonio.write_json(anti_file, jsonio.antimatroid_to_json(four_element_antimatroid()))
        costs_file = tmp_path / "costs.json"
        jsonio.write_json(costs_file, {"v": 1, "ground": ground_costs})
        return anti_file, costs_file

    def test_reduce_rejects_ground_costs_outside_the_ground_set(self, tmp_path, capsys):
        anti_file, costs_file = self._quad_files(tmp_path, {"a": 1, "b": -2, "zz": -100})
        code, report = run_cli(capsys, "reduce", str(anti_file), str(costs_file), "-o", str(tmp_path / "out.json"))
        assert (code, report["kind"]) == (2, "InputError") and "'zz'" in report["error"]

    def test_solve_rejects_ground_costs_outside_the_ground_set(self, tmp_path, capsys):
        bundle_file = _reduction_file(tmp_path)
        _, costs_file = self._quad_files(tmp_path, {"a": 1, "b": -2, "zz": -100})
        code, report = run_cli(capsys, "solve", str(bundle_file), str(costs_file))
        assert (code, report["kind"]) == (2, "InputError") and "'zz'" in report["error"]

    def test_solve_rejects_pair_costs_outside_the_market(self, tmp_path, capsys):
        market_file = tmp_path / "market.json"
        jsonio.write_json(market_file, jsonio.market_to_json(antichain_base(["p"]).market))
        costs_file = tmp_path / "pair_costs.json"
        jsonio.write_json(costs_file, {"v": 1, "pairs": [["nofirm", "noworker", -5, 1]]})
        code, report = run_cli(capsys, "solve", str(market_file), str(costs_file))
        assert (code, report["kind"]) == (2, "InputError") and "'nofirm'" in report["error"]

    def test_solve_rejects_two_rows_for_one_pair(self, tmp_path, capsys):
        market_file = tmp_path / "market.json"
        jsonio.write_json(market_file, jsonio.market_to_json(antichain_base(["p"]).market))
        costs_file = tmp_path / "pair_costs.json"
        jsonio.write_json(costs_file, {"v": 1, "pairs": [["p.f1", "p.w1", 5, 1], ["p.f1", "p.w1", -5, 1]]})
        code, report = run_cli(capsys, "solve", str(market_file), str(costs_file))
        assert (code, report["kind"]) == (2, "InputError") and "'p.f1', 'p.w1'" in report["error"]

    def test_empty_lattice_file_exits_2(self, tmp_path, capsys):
        lattice_file = tmp_path / "empty.json"
        jsonio.write_json(lattice_file, {"v": 1, "elements": [], "leq": []})
        code, report = run_cli(capsys, "synthesize", str(lattice_file), "-o", str(tmp_path / "out.json"))
        assert code == 2 and report["kind"] == "InputError"
        market_file = tmp_path / "market.json"
        jsonio.write_json(market_file, jsonio.market_to_json(antichain_base(["p"]).market))
        code, report = run_cli(capsys, "verify", str(market_file), str(lattice_file))
        assert code == 2 and report["kind"] == "InputError"

    def test_if_else_worker_over_16_partners_exits_3(self, tmp_path, capsys):
        market_file = tmp_path / "market.json"
        for partners, want in ((16, 0), (17, 3)):
            firms = tuple(f"f{i}" for i in range(partners))
            choice = {f: PreferenceList.of("w") for f in firms}
            choice["w"] = IfElse(firms[0], frozenset(firms[1:]))
            jsonio.write_json(market_file, jsonio.market_to_json(MatchingMarket(firms, ("w",), choice)))
            code, report = run_cli(capsys, "enumerate", str(market_file))
            assert code == want, report
        assert report["kind"] == "SearchBoundExceeded"

    def test_candidate_scan_limit_names_the_spec_size_not_a_node_count(self, tmp_path, capsys):
        """An if-else worker over 17 firms exits 3 before any search node,
        whatever --bound-nodes says; a triggered spec's limit is 25."""
        firms = tuple(f"f{i:02d}" for i in range(17))
        choice = {f: PreferenceList.of("w") for f in firms}
        choice["w"] = IfElse(firms[0], frozenset(firms[1:]))
        market_file = tmp_path / "market.json"
        jsonio.write_json(market_file, jsonio.market_to_json(MatchingMarket(firms, ("w",), choice)))
        code, report = run_cli(capsys, "enumerate", str(market_file), "--bound-nodes", "5")
        assert (code, report["kind"]) == (3, "SearchBoundExceeded")
        assert report["error"] == "a choice spec names 17 partners, its candidate scan is limited to 16"
        watch = frozenset(f"g{i:02d}" for i in range(25))
        spec = Triggered(watch, "t", (frozenset({"r1"}),), (("r1", frozenset({"g00"})),))
        with pytest.raises(SearchBoundExceeded) as exc:
            spec.candidates()
        assert str(exc.value) == "a choice spec names 26 partners, its candidate scan is limited to 25"

    def test_trigger_block_outside_the_universe_exits_2(self, tmp_path, capsys):
        firms = ["f0", "f1", "f9"]
        choice = {f: {"kind": "preference_list", "list": [["w"]]} for f in firms}
        choice["w"] = {"kind": "triggered", "watch": ["f1"], "trigger": "f0",
                       "alpha": [["r1"]], "f_rho": {"r1": ["f9"]}}
        market_file = tmp_path / "market.json"
        jsonio.write_json(market_file, {"v": 1, "firms": firms, "workers": ["w"], "choice": choice})
        code, report = run_cli(capsys, "enumerate", str(market_file))
        assert code == 2 and report["kind"] == "SpecError"

    def test_choice_functions_that_are_not_path_independent_exit_2(self, tmp_path, capsys):
        # deferred acceptance settles on an unstable matching: no bound is
        # exceeded, the input is invalid
        lists = {"f1": [["w1"], ["w1", "w2"], ["w2"]], "f2": [["w1", "w2"], ["w2"]],
                 "w1": [["f2"], ["f1"], ["f1", "f2"]], "w2": [["f1", "f2"]]}
        market_file = tmp_path / "market.json"
        jsonio.write_json(market_file, {"v": 1, "firms": ["f1", "f2"], "workers": ["w1", "w2"], "choice": {
            a: {"kind": "preference_list", "list": entries} for a, entries in lists.items()}})
        code, report = run_cli(capsys, "enumerate", str(market_file))
        assert code == 2 and report["kind"] == "SpecError" and "path-independent" in report["error"]

    def test_more_workers_than_the_recursion_limit_enumerate(self, tmp_path, capsys):
        # 1,200 firm-worker pairs, each agent listing only its own partner:
        # exactly one stable matching, found by a search 1,200 workers deep
        firms = tuple(f"f{i:04d}" for i in range(1200))
        workers = tuple(f"w{i:04d}" for i in range(1200))
        choice = {f: PreferenceList.of(w) for f, w in zip(firms, workers)}
        choice.update({w: PreferenceList.of(f) for f, w in zip(firms, workers)})
        market_file = tmp_path / "pairs.json"
        jsonio.write_json(market_file, jsonio.market_to_json(MatchingMarket(firms, workers, choice)))
        code, report = run_cli(capsys, "enumerate", str(market_file), "-o", str(tmp_path / "out.json"))
        assert code == 0 and report["count"] == 1

    def test_m12_enumerate_under_a_node_bound_exits_3(self, tmp_path, capsys):
        # M_12, twelve pairwise incomparable atoms between a bottom and a top,
        # constructs a market of 1,674 workers
        lattice = m_lattice(12)
        em = synthesize_from_lattice(lattice, verify=False).extendable
        assert len(em.market.workers) == 1674
        bundle_file = tmp_path / "m12.bundle.json"
        jsonio.write_json(bundle_file, jsonio.extendable_to_json(em))
        code, report = run_cli(capsys, "enumerate", str(bundle_file), "--bound-nodes", "5000")
        assert code == 3 and report["kind"] == "SearchBoundExceeded"

    def test_synthesize_and_verify_enumerate_only_the_extended_market_once(self, tmp_path, capsys, monkeypatch):
        real, seen = markets.enumerate_stable, []

        def counting(market, *args, **kwargs):
            seen.append(market)
            return real(market, *args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "lattmark" and getattr(module, "enumerate_stable", None) is real:
                monkeypatch.setattr(module, "enumerate_stable", counting)
        lattice_file, bundle_file = _pentagon_files(tmp_path, capsys)
        extended = jsonio.extendable_from_json(jsonio.read_json(bundle_file)).market
        assert seen == [extended]
        seen.clear()
        code, report = run_cli(capsys, "verify", str(bundle_file), str(lattice_file))
        assert code == 0 and report["outcome"] == "ok"
        assert seen == [extended]

    def test_verify_makes_one_choice_per_firm_per_pair_of_partner_sets(self, tmp_path, capsys, monkeypatch):
        """verify orders the extended market's stable matchings and their
        projections by one firm_leq call each.  A call makes one choice per
        firm per pair of distinct partner sets the firm gets, and compares
        no pair of matchings on its own."""
        lattice_file, bundle_file = _pentagon_files(tmp_path, capsys)
        em = jsonio.extendable_from_json(jsonio.read_json(bundle_file))
        extended = markets.enumerate_stable(em.market)
        projected = [project_to_base(em, mu) for mu in extended]
        want = [sum(math.comb(len({mu.workers_of(f) for mu in ms}), 2) for f in market.firms)
                for market, ms in ((em.market, extended), (em.base.market, projected))]
        choices = _choices_per_firm_leq_call(monkeypatch)

        def compare(*args):
            raise AssertionError("firm_order_compare called")

        monkeypatch.setattr(markets, "firm_order_compare", compare)
        code, report = run_cli(capsys, "verify", str(bundle_file), str(lattice_file))
        assert code == 0 and report["outcome"] == "ok"
        assert len(extended) == 5 and choices == want == [26, 6]

    def test_verify_fails_the_isomorphism_on_a_wrong_lattice_or_order(self, tmp_path, capsys, monkeypatch):
        lattice_file, bundle_file = _pentagon_files(tmp_path, capsys)
        diamond_file = tmp_path / "diamond.json"
        jsonio.write_json(diamond_file, jsonio.lattice_to_json(diamond_lattice()))
        code, report = run_cli(capsys, "verify", str(bundle_file), str(diamond_file))
        assert code == 4 and {c["name"]: c["ok"] for c in report["checks"]}["order-isomorphism"] is False

        # reverse each firm's grouped comparison: it chooses what is left of
        # the union of two partner sets
        choices = _choices_per_firm_leq_call(monkeypatch, lambda offer, chosen: offer & ~chosen)
        code, report = run_cli(capsys, "verify", str(bundle_file), str(lattice_file))
        assert code == 4 and {c["name"]: c["ok"] for c in report["checks"]}["order-isomorphism"] is False
        assert len(choices) == 2 and all(choices)

    def test_plain_market_verify_rejects_a_large_lattice_before_enumerating(self, tmp_path, capsys):
        market_file, lattice_file = tmp_path / "market.json", tmp_path / "chain9.json"
        jsonio.write_json(market_file, jsonio.market_to_json(seven_pair_market()))
        chain = [f"c{i}" for i in range(9)]
        jsonio.write_json(lattice_file, {"v": 1, "elements": chain, "leq": [list(p) for p in zip(chain, chain[1:])]})
        code, report = run_cli(capsys, "verify", str(market_file), str(lattice_file), "--bound-nodes", "1")
        assert code == 2 and report["kind"] == "InputError"


def _reduction_file(tmp_path):
    fam = four_element_antimatroid()
    bundle = reduce_to_matching(compute_path_poset(fam), {x: -1 for x in fam.ground})
    path = tmp_path / "reduction.json"
    jsonio.write_json(path, jsonio.reduction_to_json(bundle))
    return path


def _synthesized_files(tmp_path, capsys, name, lattice):
    lattice_file = tmp_path / f"{name}.json"
    jsonio.write_json(lattice_file, jsonio.lattice_to_json(lattice))
    bundle_file = tmp_path / f"{name}.bundle.json"
    code, _ = run_cli(capsys, "synthesize", str(lattice_file), "-o", str(bundle_file))
    assert code == 0
    return lattice_file, bundle_file


def _choices_per_firm_leq_call(monkeypatch, fault=None):
    """Patch every lattmark module's firm_leq to count the evaluations of
    compiled choices it makes, one count per firm_leq call in the returned
    list; with fault, those evaluations return fault(offer, chosen) on
    masks instead.  Every choice compiled from here on is wrapped."""
    real_leq = markets.firm_leq
    counts, inside = [], [False]

    def leq(*args):
        counts.append(0)
        inside[0] = True
        try:
            return real_leq(*args)
        finally:
            inside[0] = False

    def counted(compiled):
        def chosen(offer):
            out = compiled(offer)
            if not inside[0]:
                return out
            counts[-1] += 1
            return out if fault is None else fault(offer, out)
        return chosen

    wrap_compiled_choices(monkeypatch, counted)
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "lattmark" and getattr(module, "firm_leq", None) is real_leq:
            monkeypatch.setattr(module, "firm_leq", leq)
    return counts


def _pentagon_files(tmp_path, capsys):
    return _synthesized_files(tmp_path, capsys, "pentagon", pentagon_lattice())


def _mutations(data):
    """Copies of data with one object key deleted, or one leaf retyped, or
    one string leaf renamed (which breaks references between fields)."""
    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                yield path + (key,), None
                yield from walk(value, path + (key,))
        elif isinstance(node, list):
            for i, value in enumerate(node):
                yield from walk(value, path + (i,))
        elif isinstance(node, str):
            yield path, 7
            yield path, node + "'"
        else:
            yield path, "7"

    for path, leaf in walk(data, ()):
        out = copy.deepcopy(data)
        parent = out
        for step in path[:-1]:
            parent = parent[step]
        if leaf is None:
            del parent[path[-1]]
        else:
            parent[path[-1]] = leaf
        yield path, out


def _sweep_mutations(capsys, mutated, cases):
    """Run each command on every mutation of its source file, written to
    mutated: it must exit with a contract code, never raise, and the whole
    sweep must stay under 10 s."""
    t0 = time.monotonic()
    for source, argv in cases:
        for path, data in _mutations(json.loads(source.read_text())):
            jsonio.write_json(mutated, data)
            try:
                code = cli.main(argv)
            except Exception as exc:  # the contract is an exit code, never a traceback
                pytest.fail(f"{source.name} mutated at {path}: {exc!r}")
            capsys.readouterr()
            assert code in (0, 2, 3, 4), (source.name, path, code)
    assert time.monotonic() - t0 < 10


class TestBundleContract:
    def test_solve_bound_nodes(self, tmp_path, capsys):
        bundle_file = _reduction_file(tmp_path)
        code, report = run_cli(capsys, "solve", str(bundle_file), "--bound-nodes", "1")
        assert code == 3 and report["kind"] == "SearchBoundExceeded"
        code, report = run_cli(capsys, "solve", str(bundle_file))
        assert code == 0 and report["value"] == [-4, 1]

    def test_old_layout_bundle_exits_2(self, tmp_path, capsys):
        bundle_file = _reduction_file(tmp_path)
        data = json.loads(bundle_file.read_text())
        del data["extension"]["constraints"]
        jsonio.write_json(bundle_file, data)
        code, report = run_cli(capsys, "solve", str(bundle_file))
        assert code == 2 and "constraints" in report["error"]

        # an older bundle stores its gadget bank in full
        lattice_file, bundle_file = _pentagon_files(tmp_path, capsys)
        data = json.loads(bundle_file.read_text())
        base = antichain_base(data["base"]["gadgets"])
        data["base"] = {"v": 1, "market": jsonio.market_to_json(base.market),
                        "rotation_poset": jsonio.rotation_poset_to_json(base.rotation_poset)}
        jsonio.write_json(bundle_file, data)
        code, report = run_cli(capsys, "verify", str(bundle_file), str(lattice_file))
        assert code == 2 and "gadget bank" in report["error"]

    def test_stored_derived_fields_are_ignored(self, tmp_path, capsys):
        junk = {
            "market": jsonio.market_to_json(seven_pair_market()),
            "copy_map": {}, "aux_workers": [], "aux_firms": [], "a_f": {}, "augment_count": 9, "steps": [],
        }
        bundle_file = _reduction_file(tmp_path)
        _, want = run_cli(capsys, "solve", str(bundle_file))
        data = json.loads(bundle_file.read_text())
        assert not set(junk) & set(data["extension"]) and "ground" not in data
        data["extension"].update(junk)
        data["ground"] = ["b", "c", "d"]  # no feasible set of the antimatroid
        jsonio.write_json(bundle_file, data)
        _, got = run_cli(capsys, "solve", str(bundle_file))
        assert (got["value"], got["matching"], got["recovered_set"]) == (
            want["value"], want["matching"], want["recovered_set"])

        lattice_file, bundle_file = _pentagon_files(tmp_path, capsys)
        data = json.loads(bundle_file.read_text())
        data.update(junk)
        jsonio.write_json(bundle_file, data)
        code, report = run_cli(capsys, "verify", str(bundle_file), str(lattice_file))
        assert code == 0 and report["outcome"] == "ok"

    def test_plain_market_file_keeps_the_search_order(self, tmp_path, capsys):
        # The sorted order needs over 14,000 nodes on this market; the
        # declared order needs under 500.
        market = synthesize_from_lattice(chain_lattice(8), verify=False).extendable.market
        market_file = tmp_path / "chain8.market.json"
        jsonio.write_json(market_file, jsonio.market_to_json(market))
        code, report = run_cli(capsys, "enumerate", str(market_file), "--bound-nodes", "2000")
        assert code == 0 and report["count"] == 8

    def test_tampered_base_exits_2(self, tmp_path, capsys, seven_base, rot_ids):
        lattice_file, bundle_file = _pentagon_files(tmp_path, capsys)
        good = json.loads(bundle_file.read_text())
        assert good["base"]["gadgets"] == ["p", "q1", "q2"]
        for gadgets, kind in ((["p", "q2"], "UnknownElementId"), (["p", "q1", "q1", "q2"], "DuplicateId")):
            data = copy.deepcopy(good)
            data["base"]["gadgets"] = gadgets
            jsonio.write_json(bundle_file, data)
            code, report = run_cli(capsys, "verify", str(bundle_file), str(lattice_file))
            assert (code, report["kind"]) == (2, kind), gadgets

        # a base stored in full is checked against its market's rotations
        jc = JoinConstraint.make([{rot_ids["rot1"]}, {rot_ids["rot2"]}], {rot_ids["rot3"], rot_ids["rot4"]})
        good = jsonio.extendable_to_json(omega_extend(seven_base, [jc]))
        swapped = copy.deepcopy(good)
        rotations = swapped["base"]["rotation_poset"]["rotations"]
        rotations[0]["plus"], rotations[1]["plus"] = rotations[1]["plus"], rotations[0]["plus"]
        shortened = copy.deepcopy(good)
        shortened["base"]["market"]["choice"]["w1"]["list"].pop()
        # an antichain base that is no gadget bank
        ab, _ = _swap_gadgets(*AB_GADGETS)
        ab_bundle = jsonio.extendable_to_json(omega_extend(RealizedBase(ab, extract_rotations(ab)), []))
        for data, want in ((good, (0, 7)), (ab_bundle, (0, 4)), (swapped, (2, None)), (shortened, (2, None))):
            jsonio.write_json(bundle_file, data)
            code, report = run_cli(capsys, "enumerate", str(bundle_file))
            assert (code, report.get("count")) == want, report

    def test_a_base_stored_in_full_is_checked_under_the_node_bound(self):
        # 2^10 stable matchings; unbounded, extract_rotations takes minutes
        market, rp = _swap_gadgets(*((f"F{i}", f"G{i}", f"x{i}", f"y{i}") for i in range(10)))
        data = jsonio.extendable_to_json(omega_extend(RealizedBase(market, rp), []))
        assert set(data["base"]) == {"v", "market", "rotation_poset"}
        with pytest.raises(SearchBoundExceeded):
            jsonio.extendable_from_json(data, node_bound=100)

    def test_reduce_validates_the_antimatroid_once(self, tmp_path, capsys, monkeypatch):
        """One check of the family and one gadget bank per reduce: the bundle
        writer tells a gadget bank without building a second."""
        from lattmark import antimatroids, rotations

        calls = {}
        for owner, name in ((antimatroids, "compute_path_poset"), (rotations, "antichain_base")):
            real, seen = getattr(owner, name), calls.setdefault(name, [])
            for mod_name, module in list(sys.modules.items()):
                if mod_name.partition(".")[0] == "lattmark" and getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, lambda x, real=real, seen=seen: seen.append(x) or real(x))
        anti_file, costs_file = tmp_path / "anti.json", tmp_path / "costs.json"
        jsonio.write_json(anti_file, jsonio.antimatroid_to_json(four_element_antimatroid()))
        jsonio.write_json(costs_file, {"v": 1, "ground": {x: 1 for x in "abcd"}})
        code, report = run_cli(capsys, "reduce", str(anti_file), str(costs_file), "-o", str(tmp_path / "out.json"))
        assert code == 0 and {name: len(seen) for name, seen in calls.items()} == {
            "compute_path_poset": 1, "antichain_base": 1}
        assert {"name": "antimatroid-axioms", "ok": True} in report["checks"]

        jsonio.write_json(anti_file, {"v": 1, "ground": ["a", "b"], "feasible": [[], ["a"], ["b"], ["a", "b"], ["c"]]})
        code, report = run_cli(capsys, "reduce", str(anti_file), str(costs_file), "-o", str(tmp_path / "out.json"))
        assert code == 2 and "outside-ground" in report["error"]

    def test_reduce_checks_a_path_file(self, tmp_path, capsys):
        anti_file, costs_file, out = tmp_path / "anti.json", tmp_path / "costs.json", str(tmp_path / "out.json")
        jsonio.write_json(costs_file, {"v": 1, "ground": {"a": -1, "b": -5}})
        # the one path generates {}, {a, b}: no antimatroid, and {a} is no union of paths
        jsonio.write_json(anti_file, {"v": 1, "ground": ["a", "b"], "paths": [{"set": ["a", "b"], "endpoint": "a"}]})
        code, report = run_cli(capsys, "reduce", str(anti_file), str(costs_file), "-o", out)
        assert code == 2 and "not-accessible" in report["error"]

        # an antimatroid's paths with one endpoint misstated
        data = jsonio.path_poset_to_json(compute_path_poset(four_element_antimatroid()))
        (acd,) = [p for p in data["paths"] if p["set"] == ["a", "c", "d"]]
        acd["endpoint"] = "c"
        jsonio.write_json(anti_file, data)
        code, report = run_cli(capsys, "reduce", str(anti_file), str(costs_file), "-o", out)
        assert code == 2 and report["kind"] == "InputError" and "paths" in report["error"]

    def test_export_dot_rejects_the_path_files_reduce_rejects(self, tmp_path, capsys):
        """The four-element antimatroid's path file with {a, c, d}'s endpoint
        misstated, with a path listed twice, or with a ground id listed
        twice exits 2 from both commands."""
        anti_file, costs_file, out = tmp_path / "anti.json", tmp_path / "costs.json", str(tmp_path / "out.json")
        jsonio.write_json(costs_file, {"v": 1, "ground": {x: 1 for x in "abcd"}})
        misstated = jsonio.path_poset_to_json(compute_path_poset(four_element_antimatroid()))
        twice, ground_twice = copy.deepcopy(misstated), copy.deepcopy(misstated)
        (acd,) = [p for p in misstated["paths"] if p["set"] == ["a", "c", "d"]]
        acd["endpoint"] = "c"
        twice["paths"].append(twice["paths"][0])
        ground_twice["ground"].append("b")
        for data, kind, tail in ((misstated, "InputError", "(('a', 'c', 'd'), 'c')"),
                                 (twice, "InputError", "('listed-twice', ('a',))"),
                                 (ground_twice, "DuplicateId", "duplicate id 'b'")):
            jsonio.write_json(anti_file, data)
            for argv in (["reduce", str(anti_file), str(costs_file), "-o", out], ["export-dot", str(anti_file)]):
                code, report = run_cli(capsys, *argv)
                assert (code, report["kind"]) == (2, kind) and report["error"].endswith(tail), argv

    def test_path_and_feasible_files_reduce_to_the_same_bundle(self, tmp_path, capsys):
        fam = four_element_antimatroid()
        forms = {"feasible": jsonio.antimatroid_to_json(fam),
                 "paths": jsonio.path_poset_to_json(compute_path_poset(fam))}
        costs_file = tmp_path / "costs.json"
        jsonio.write_json(costs_file, {"v": 1, "ground": {"a": 3, "b": -2, "c": 5, "d": -7}})
        bundles = []
        for name, data in forms.items():
            anti_file, out = tmp_path / f"{name}.json", tmp_path / f"{name}.bundle.json"
            jsonio.write_json(anti_file, data)
            code, report = run_cli(capsys, "reduce", str(anti_file), str(costs_file), "-o", str(out))
            assert code == 0 and {"name": "antimatroid-axioms", "ok": True} in report["checks"], name
            bundles.append(out.read_bytes())
        assert bundles[0] == bundles[1]

    def test_a_bundle_of_the_full_constraints_solves_to_the_same_value(self, tmp_path, capsys):
        """A bundle written from the unrewritten constraints, one per ground
        element, loads and solves to the value of a fresh reduce, whose
        report counts its (fewer) augmentations."""
        triangle, weights = independent_set_antimatroid(["u", "v", "x"], [("u", "v"), ("v", "x"), ("u", "x")])
        cases = [(four_element_antimatroid(), {"a": 3, "b": -2, "c": 5, "d": -7}),
                 (triangle, {x: -w for x, w in weights.items()})]
        costs_file = tmp_path / "costs.json"
        for k, (fam, costs) in enumerate(cases):
            pp = compute_path_poset(fam)
            anti_file, fresh, full = (tmp_path / f"{k}.{name}.json" for name in ("anti", "fresh", "full"))
            jsonio.write_json(anti_file, jsonio.antimatroid_to_json(fam))
            jsonio.write_json(costs_file, {"v": 1, "ground": costs})
            code, report = run_cli(capsys, "reduce", str(anti_file), str(costs_file), "-o", str(fresh))
            assert code == 0 and report["augmentations"] == len(antimatroid_constraints(pp)) < len(fam.ground), k
            base = antichain_base(list(pp.ground))
            em = omega_extend(base, full_antimatroid_constraints(pp))
            jsonio.write_json(full, jsonio.reduction_to_json(ReductionBundle(em, costs)))
            for sense in ("min", "max"):
                _, want = run_cli(capsys, "solve", str(fresh), "--sense", sense)
                code, got = run_cli(capsys, "solve", str(full), "--sense", sense)
                assert code == 0 and got["value"] == want["value"], (k, sense)

    def test_synthesize_reports_its_augmentations(self, tmp_path, capsys):
        lattice_file = tmp_path / "pentagon.json"
        jsonio.write_json(lattice_file, jsonio.lattice_to_json(pentagon_lattice()))
        bundle_file = tmp_path / "bundle.json"
        code, report = run_cli(capsys, "synthesize", str(lattice_file), "-o", str(bundle_file))
        constraints = json.loads(bundle_file.read_text())["constraints"]
        assert code == 0 and report["augmentations"] == len(constraints) > 0

    def test_reduce_checks_21_element_files_without_a_bound(self, tmp_path, capsys):
        """No ground-set bound stands before the checks: an invalid 21-element
        family exits 2 with its witness, and 21 free paths, which generate
        2^21 sets, reduce."""
        ground = [f"x{i:02}" for i in range(21)]
        costs_file, anti_file, out = tmp_path / "costs.json", tmp_path / "anti.json", str(tmp_path / "out.json")
        jsonio.write_json(costs_file, {"v": 1, "ground": {x: 1 for x in ground}})
        jsonio.write_json(anti_file, {"v": 1, "ground": ground, "feasible": [[]]})
        code, report = run_cli(capsys, "reduce", str(anti_file), str(costs_file), "-o", out)
        assert (code, report["kind"]) == (2, "InputError")
        assert report["error"] == f"not an antimatroid: {('ground-not-feasible', tuple(ground))}"
        jsonio.write_json(anti_file, {"v": 1, "ground": ground, "paths": [{"set": [x], "endpoint": x} for x in ground]})
        code, report = run_cli(capsys, "reduce", str(anti_file), str(costs_file), "-o", out)
        assert code == 0 and report["augmentations"] == 0 and report["ground"] == ground

    def test_reduce_of_a_920_element_path_file(self, tmp_path, capsys):
        """The path file of the independent-set gadget of random_graph(60)
        (seed 1) is checked and reduced in polynomial time."""
        pp = independent_set_path_poset(*random_graph(60, random.Random(1)))
        anti_file, costs_file = tmp_path / "anti.json", tmp_path / "costs.json"
        jsonio.write_json(anti_file, jsonio.path_poset_to_json(pp))
        jsonio.write_json(costs_file, {"v": 1, "ground": {x: 1 for x in pp.ground}})
        start = time.monotonic()
        code, report = run_cli(capsys, "reduce", str(anti_file), str(costs_file), "-o", str(tmp_path / "out.json"))
        assert code == 0 and time.monotonic() - start < 3
        assert (len(report["ground"]), report["augmentations"], report["agents"]) == (920, 860, 7120)

    def test_long_chains_certify(self, tmp_path, capsys):
        """The expected image is searched, not filtered out of 2^|J| sets, so
        chains of more than 21 elements no longer exit 3."""
        for n in (22, 30):
            lattice_file, bundle_file = _synthesized_files(tmp_path, capsys, f"chain{n}", chain_lattice(n))
            code, report = run_cli(capsys, "verify", str(bundle_file), str(lattice_file))
            checks = {c["name"]: c["ok"] for c in report["checks"]}
            assert code == 0 and checks["counts-match"] and all(checks.values()), n

    def test_the_image_search_counts_against_bound_nodes(self, tmp_path, capsys):
        lattice_file, bundle_file = _synthesized_files(tmp_path, capsys, "chain20", chain_lattice(20))
        code, report = run_cli(capsys, "verify", str(bundle_file), str(lattice_file), "--bound-nodes", "5")
        assert code == 3 and report["kind"] == "SearchBoundExceeded"
        assert report["error"] == "lower-set search explored 6 nodes, bound is 5"

    def test_paths_outside_the_ground_set_exit_2_before_any_union(self, tmp_path, capsys):
        """Paths are closed over the ground set only: 40 singleton paths
        outside it are rejected at once, not closed into 2^40 sets."""
        paths = [{"set": [x], "endpoint": x} for x in ["a"] + [f"z{i:02}" for i in range(40)]]
        anti_file, costs_file = tmp_path / "anti.json", tmp_path / "costs.json"
        jsonio.write_json(anti_file, {"v": 1, "ground": ["a"], "paths": paths})
        jsonio.write_json(costs_file, {"v": 1, "ground": {"a": 1}})
        out = str(tmp_path / "out.json")
        for argv in (["reduce", str(anti_file), str(costs_file), "-o", out], ["export-dot", str(anti_file)]):
            code, report = run_cli(capsys, *argv)
            assert (code, report["kind"]) == (2, "InputError"), argv
            assert "not an antimatroid: ('outside-ground', ('z" in report["error"], argv

    def test_bundle_with_overlapping_conclusion_agents_exits_2(self, tmp_path, capsys, seven_base, rot_ids):
        lattice_file = tmp_path / "pentagon.json"
        jsonio.write_json(lattice_file, jsonio.lattice_to_json(pentagon_lattice()))
        jc = JoinConstraint.make([{rot_ids["rot1"]}, {rot_ids["rot2"]}], {rot_ids["rot3"], rot_ids["rot4"]})
        data = jsonio.extendable_to_json(omega_extend(seven_base, [jc]))
        # rot1 and rot4 both move the plus-side worker w4
        data["constraints"][0]["beta"] = sorted([rot_ids["rot1"], rot_ids["rot4"]])
        bundle_file = tmp_path / "worked.bundle.json"
        jsonio.write_json(bundle_file, data)
        for argv in (["enumerate", str(bundle_file)], ["verify", str(bundle_file), str(lattice_file)]):
            code, report = run_cli(capsys, *argv)
            assert code == 2 and report["kind"] == "OverlappingRotationAgents", argv

    def test_directory_paths_exit_2(self, tmp_path, capsys):
        lattice_file = tmp_path / "pentagon.json"
        jsonio.write_json(lattice_file, jsonio.lattice_to_json(pentagon_lattice()))
        for argv in (["synthesize", str(lattice_file), "-o", str(tmp_path)],
                     ["synthesize", str(tmp_path), "-o", str(tmp_path / "out.json")],
                     ["verify", str(tmp_path), str(lattice_file)],
                     ["enumerate", str(tmp_path)]):
            code, report = run_cli(capsys, *argv)
            assert code == 2 and report["kind"] == "IsADirectoryError", argv

    def test_negative_bounds_exit_2(self, tmp_path, capsys):
        bundle_file = _reduction_file(tmp_path)
        for argv in (["solve", str(bundle_file), "--bound-nodes", "-5"],
                     ["enumerate", str(bundle_file), "--bound-nodes", "-1"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2, argv
            assert "non-negative" in capsys.readouterr().err
        # reduce has no bound to set
        with pytest.raises(SystemExit) as exc:
            cli.main(["reduce", "anti.json", "costs.json", "-o", "out.json", "--bound-elements", "2"])
        assert exc.value.code == 2 and "--bound-elements" in capsys.readouterr().err
        code, report = run_cli(capsys, "solve", str(bundle_file), "--bound-nodes", "0")
        assert code == 3 and report["kind"] == "SearchBoundExceeded"

    def test_json_nested_too_deeply_exits_2(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        depth = 100_000
        deep.write_text('{"v": 1, "firms": ' + "[" * depth + "]" * depth + "}")
        code, report = run_cli(capsys, "enumerate", str(deep))
        assert (code, report["kind"]) == (2, "InputError")

    def test_ids_that_are_not_utf8_exit_2(self, tmp_path, capsys):
        # "\ud800" is a lone surrogate: JSON decodes it, UTF-8 cannot encode it
        lattice_file, market_file = tmp_path / "lattice.json", tmp_path / "market.json"
        lattice_file.write_text('{"v": 1, "elements": ["a\\ud800", "b"], "leq": [["a\\ud800", "b"]]}')
        market_file.write_text('{"v": 1, "firms": ["f\\ud800"], "workers": ["w"], "choice": {'
                               '"f\\ud800": {"kind": "preference_list", "list": [["w"]]}, '
                               '"w": {"kind": "preference_list", "list": [["f\\ud800"]]}}}')
        dot = str(tmp_path / "out.dot")
        for argv in (["export-dot", str(lattice_file)], ["export-dot", str(lattice_file), "-o", dot],
                     ["rotations", str(market_file), "--dot", dot]):
            code, report = run_cli(capsys, *argv)
            assert (code, report["kind"]) == (2, "InputError"), argv

    def test_malformed_feasible_lists_name_their_first_bad_entry(self, tmp_path, capsys):
        """The family loader's one flat pass rejects exactly what the
        per-entry readers reject, with their message: a feasible field that
        is no list, an entry that is no list, and an int, bool, null or
        lone-surrogate member at every position."""
        good = jsonio.antimatroid_to_json(four_element_antimatroid())
        feasible = good["feasible"]
        variants = ["ab", "", 1, None, {}, {"a": ["a"]}]
        variants += [[*feasible[:i], bad, *feasible[i + 1:]] for i in range(len(feasible)) for bad in ("a", "", 1, None, {})]
        variants += [
            [*feasible[:i], [*g[:j], bad, *g[j + 1:]], *feasible[i + 1:]]
            for i, g in enumerate(feasible) for j in range(len(g)) for bad in (1, True, None, ["a"], "a\ud800")
        ]
        anti_file, costs_file, out = tmp_path / "anti.json", tmp_path / "costs.json", str(tmp_path / "out.json")
        jsonio.write_json(costs_file, {"v": 1, "ground": {x: 1 for x in "abcd"}})
        for value in variants:
            with pytest.raises(InputError) as want:
                jsonio._str_lists(value, "antimatroid.feasible")
            anti_file.write_text(json.dumps({**good, "feasible": value}), encoding="utf-8")
            for argv in (["reduce", str(anti_file), str(costs_file), "-o", out], ["export-dot", str(anti_file)]):
                code, report = run_cli(capsys, *argv)
                assert (code, report["kind"], report["error"]) == (2, "InputError", str(want.value)), (value, argv)
        assert len(variants) > 100

    def test_malformed_files_keep_the_exit_code_contract(self, tmp_path, capsys, seven_base, rot_ids):
        lattice_file, bundle_file = _pentagon_files(tmp_path, capsys)
        reduction_file = _reduction_file(tmp_path)
        costs_file = tmp_path / "costs.json"
        jsonio.write_json(costs_file, {"v": 1, "ground": {x: 2 for x in "abcd"}})
        mutated = tmp_path / "mutated.json"
        _sweep_mutations(capsys, mutated, [
            (lattice_file, ["verify", str(bundle_file), str(mutated), "--bound-nodes", "2000"]),
            (reduction_file, ["solve", str(mutated), "--bound-nodes", "2000"]),
            (reduction_file, ["solve", str(mutated), str(costs_file), "--bound-nodes", "2000"]),
        ])
        # a base stored in full: its market and rotation poset are checked on load
        jc = JoinConstraint.make([{rot_ids["rot1"]}, {rot_ids["rot2"]}], {rot_ids["rot3"], rot_ids["rot4"]})
        general_file = tmp_path / "worked.bundle.json"
        jsonio.write_json(general_file, jsonio.extendable_to_json(omega_extend(seven_base, [jc])))
        _sweep_mutations(capsys, mutated, [(general_file, ["enumerate", str(mutated), "--bound-nodes", "2000"])])

    def test_malformed_inputs_of_every_command_keep_the_exit_code_contract(self, tmp_path, capsys):
        chain_file, chain_bundle = _synthesized_files(tmp_path, capsys, "chain3", chain_lattice(3))
        anti_file = tmp_path / "antimatroid.json"
        jsonio.write_json(anti_file, jsonio.antimatroid_to_json(four_element_antimatroid()))
        costs_file = tmp_path / "costs.json"
        jsonio.write_json(costs_file, {"v": 1, "ground": {x: 2 for x in "abcd"}})
        rot_file = tmp_path / "rotations.json"
        jsonio.write_json(rot_file, jsonio.rotation_poset_to_json(extract_rotations(seven_pair_market())))
        mutated, out = tmp_path / "mutated.json", str(tmp_path / "out.json")
        _sweep_mutations(capsys, mutated, [
            (chain_bundle, ["verify", str(mutated), str(chain_file), "--bound-nodes", "2000"]),
            (anti_file, ["reduce", str(mutated), str(costs_file), "-o", out]),
            (rot_file, ["export-dot", str(mutated)]),
        ])
        # plain market files: the seven-pair market, and the pentagon's
        # constructed market written as one
        lattice_file, bundle_file = _pentagon_files(tmp_path, capsys)
        for name, market in (("seven", seven_pair_market()),
                             ("pentagon", jsonio.extendable_from_json(jsonio.read_json(bundle_file)).market)):
            market_file = tmp_path / f"{name}.market.json"
            jsonio.write_json(market_file, jsonio.market_to_json(market))
            _sweep_mutations(capsys, mutated, [
                (market_file, ["enumerate", str(mutated), "--bound-nodes", "2000"]),
                (market_file, ["rotations", str(mutated), "--bound-nodes", "2000"]),
                (market_file, ["verify", str(mutated), str(lattice_file), "--bound-nodes", "2000"]),
            ])
        # ground-cost and pair-cost files
        reduction_file = _reduction_file(tmp_path)
        pairs_file = tmp_path / "pairs.json"
        pair_costs = jsonio.reduction_from_json(jsonio.read_json(reduction_file)).pair_costs
        jsonio.write_json(pairs_file, {"v": 1, "pairs": jsonio.pair_costs_to_json(pair_costs)})
        _sweep_mutations(capsys, mutated, [
            (costs, argv) for costs in (costs_file, pairs_file) for argv in (
                ["solve", str(reduction_file), str(mutated), "--bound-nodes", "2000"],
                ["reduce", str(anti_file), str(mutated), "-o", out],
            )
        ])


@st.composite
def _antimatroid_files(draw):
    """An antimatroid file over at most 5 elements, in either form, and
    whether the oracles accept it.  Its sets come from random_antimatroid or
    are drawn freely (an element outside the ground set included); a path
    file takes the oracle's paths of an accepted family, else drawn
    endpoints; then one entry may be replaced by a drawn one."""
    n = draw(st.integers(0, 5))
    ground = [chr(ord("a") + i) for i in range(n)]
    subsets = st.frozensets(st.sampled_from(ground + ["z"]))
    if n and draw(st.booleans()):
        sets = list(random_antimatroid(n, random.Random(draw(st.integers(0, 2 ** 16)))).feasible)
    else:
        sets = draw(st.lists(subsets, max_size=10))

    def entry(s):
        return s, draw(st.sampled_from(sorted(s) or ["z"]))

    if draw(st.booleans()):
        if sets and draw(st.booleans()):
            sets[draw(st.integers(0, len(sets) - 1))] = draw(subsets)
        fam = AntimatroidFamily.of(ground, sets)
        data = {"v": 1, "ground": ground, "feasible": [sorted(g) for g in sets]}
        return data, validate_antimatroid_pairwise(fam)[0]
    fam = AntimatroidFamily.of(ground, sets)
    if validate_antimatroid_pairwise(fam)[0]:
        paths = sorted(union_irreducible_paths(fam), key=lambda p: (sorted(p[0]), p[1]))
    else:
        paths = [entry(s) for s in sets]
    if paths and draw(st.booleans()):
        paths[draw(st.integers(0, len(paths) - 1))] = entry(draw(subsets))
    data = {"v": 1, "ground": ground, "paths": [{"set": sorted(s), "endpoint": e} for s, e in paths]}
    return data, path_file_accepted_by_closure(ground, paths)


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_antimatroid_files())
def test_reduce_accepts_exactly_the_antimatroids_the_oracles_accept(case):
    """reduce and export-dot share one definition of a valid antimatroid
    file: both exit 0 on the files the oracles accept and 2 on the rest."""
    data, accepted = case
    with tempfile.TemporaryDirectory() as tmp:
        anti_file, costs_file, out = Path(tmp, "anti.json"), Path(tmp, "costs.json"), str(Path(tmp, "out.json"))
        jsonio.write_json(anti_file, data)
        jsonio.write_json(costs_file, {"v": 1, "ground": {x: 1 for x in data["ground"]}})
        with contextlib.redirect_stdout(io.StringIO()) as report:
            codes = (cli.main(["reduce", str(anti_file), str(costs_file), "-o", out]),
                     cli.main(["export-dot", str(anti_file), "-o", str(Path(tmp, "out.dot"))]))
    assert codes == ((0, 0) if accepted else (2, 2)), (data, report.getvalue())


def _scan_accepts(data):
    """Whether a lattice file holds a lattice, decided by the scan oracles:
    distinct ids; for leq pairs, known ids whose reflexive-transitive
    closure is antisymmetric; for tables, an order read off the join table
    (x <= y iff x v y = y) that is one, with both tables equal to the
    scanned ones; and joins and meets for every pair."""
    els = data["elements"]
    if not els or len(set(els)) < len(els):
        return False
    if "join" in data:
        rel = {(x, y) for x, row in zip(els, data["join"]) for y, z in zip(els, row) if z == y}
        if (any((x, x) not in rel for x in els) or any((y, x) in rel for x, y in rel if x != y)
                or any((x, w) not in rel for x, y in rel for z, w in rel if y == z)):
            return False
    else:
        if any(e not in els for pair in data["leq"] for e in pair):
            return False
        rel = {(x, x) for x in els} | {tuple(p) for p in data["leq"]}
        while not rel >= (grown := rel | {(x, w) for x, y in rel for z, w in rel if y == z}):
            rel = grown
        if any((y, x) in rel for x, y in rel if x != y):
            return False
    try:
        join, meet = lattice_from_order_by_scan(Poset(tuple(els), frozenset(rel)))
    except NotALattice:
        return False
    if "join" in data:
        return all(data["join"][i][j] == join[(x, y)] and data["meet"][i][j] == meet[(x, y)]
                   for i, x in enumerate(els) for j, y in enumerate(els))
    return True


@functools.cache
def _lattices_upto_5():
    return all_lattices_upto(5)


@st.composite
def _lattice_files(draw):
    """A lattice file over at most 5 elements, as leq pairs or as join/meet
    tables, and whether the scan oracles accept it.  It starts from a
    relabelled lattice of all_lattices_upto(5) or from drawn ids and pairs;
    then an id may be listed twice, and one pair or table entry may be
    replaced by drawn ids, an unknown one included."""
    if draw(st.booleans()):
        lat = draw(st.sampled_from(_lattices_upto_5()))
        name = dict(zip(lat.elements, draw(st.permutations("abcde"))))
        els = [name[e] for e in lat.elements]
        leq = [[name[x], name[y]] for x, y in sorted(lat.poset.relation) if x != y]
    else:
        els = draw(st.lists(st.sampled_from("abcde"), max_size=5, unique=True))
        leq = draw(st.lists(st.lists(st.sampled_from(els or ["a"]), min_size=2, max_size=2), max_size=6))
    ids = st.sampled_from([*els, "z"])
    if draw(st.booleans()):
        data = {"v": 1, "elements": els, "leq": leq}
        if leq and draw(st.booleans()):
            leq[draw(st.integers(0, len(leq) - 1))] = [draw(ids), draw(ids)]
    else:
        rel = {(x, y) for x, y in leq} | {(x, x) for x in els}
        upper = {(x, y): [z for z in els if (x, z) in rel and (y, z) in rel] for x in els for y in els}
        lower = {(x, y): [z for z in els if (z, x) in rel and (z, y) in rel] for x in els for y in els}
        join = [[max(upper[(x, y)], key=lambda z: len(upper[(z, z)]), default="z") for y in els] for x in els]
        meet = [[max(lower[(x, y)], key=lambda z: len(lower[(z, z)]), default="z") for y in els] for x in els]
        data = {"v": 1, "elements": els, "join": join, "meet": meet}
        if els and draw(st.booleans()):
            table = draw(st.sampled_from([join, meet]))
            table[draw(st.integers(0, len(els) - 1))][draw(st.integers(0, len(els) - 1))] = draw(ids)
    if els and draw(st.booleans()):
        els.append(draw(st.sampled_from(els)))
    return data, _scan_accepts(data)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_lattice_files())
def test_export_dot_accepts_exactly_the_lattice_files_the_oracles_accept(case):
    data, accepted = case
    with tempfile.TemporaryDirectory() as tmp:
        lattice_file = Path(tmp, "lattice.json")
        jsonio.write_json(lattice_file, data)
        with contextlib.redirect_stdout(io.StringIO()) as report:
            code = cli.main(["export-dot", str(lattice_file)])
    assert code == (0 if accepted else 2), (data, report.getvalue())
