from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lattmark import antichain_base, omega_extend, JoinConstraint
from lattmark import lattice_from_order, poset_from_pairs, synthesize_from_lattice
from lattmark import cli, jsonio, markets
from lattmark.antimatroids import AntimatroidFamily, compute_path_poset, reduce_to_matching
from lattmark.dot import antimatroid_dot, poset_dot, rotation_poset_dot
from lattmark.errors import InputError, SearchBoundExceeded
from lattmark.fixtures import (
    diamond_lattice,
    four_element_antimatroid,
    hexagon_lattice,
    pentagon_lattice,
    seven_pair_market,
)
from lattmark.generators import random_antimatroid
from lattmark.markets import IfElse, Matching, MatchingMarket, PreferenceList
from lattmark.orders import Poset
from lattmark.rotations import RealizedBase, Rotation, RotationPoset, extract_rotations

from oracles import union_closure, union_irreducible_paths, validate_antimatroid_pairwise


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
        bundle = reduce_to_matching(pp, {x: -2 for x in quad_antimatroid.ground})
        data = jsonio.reduction_to_json(bundle)
        assert set(data) == {"v", "extension", "pair_costs"}
        assert data["extension"]["base"] == {"v": 1, "gadgets": ["a", "b", "c", "d"]}
        again = jsonio.reduction_from_json(data)
        assert again.extendable == bundle.extendable
        assert again.pair_costs == bundle.pair_costs
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

    def test_reduce_and_solve(self, tmp_path, capsys):
        anti_file = tmp_path / "anti.json"
        jsonio.write_json(anti_file, jsonio.antimatroid_to_json(four_element_antimatroid()))
        costs_file = tmp_path / "costs.json"
        jsonio.write_json(costs_file, {"v": 1, "ground": {x: -1 for x in "abcd"}})
        bundle_file = tmp_path / "reduction.json"
        code, report = run_cli(capsys, "reduce", str(anti_file), str(costs_file), "-o", str(bundle_file))
        assert code == 0

        code, report = run_cli(capsys, "solve", str(bundle_file))
        assert code == 0
        assert report["value"] == [-4, 1]
        assert report["recovered_set"] == ["a", "b", "c", "d"]

        code, report = run_cli(capsys, "solve", str(bundle_file), "--sense", "max")
        assert code == 0 and report["value"] == [0, 1]

        # the one-set antimatroid reduces to the empty market
        jsonio.write_json(anti_file, {"v": 1, "ground": [], "feasible": [[]]})
        jsonio.write_json(costs_file, {"v": 1, "ground": {}})
        for flags in ([], ["--integer-costs"]):
            code, report = run_cli(capsys, "reduce", str(anti_file), str(costs_file), "-o", str(bundle_file), *flags)
            assert (code, report["agents"], report["ground"]) == (0, 0, []), flags
            code, report = run_cli(capsys, "solve", str(bundle_file))
            assert (code, report["value"], report["recovered_set"]) == (0, [0, 1], []), flags

    def test_export_dot(self, tmp_path, capsys):
        lattice_file = tmp_path / "hexagon.json"
        jsonio.write_json(lattice_file, jsonio.lattice_to_json(hexagon_lattice()))
        code, out = run_cli(capsys, "export-dot", str(lattice_file))
        assert code == 0 and out.startswith("digraph")

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

    def test_export_dot_of_rotations_file(self, tmp_path, capsys):
        rot_file = tmp_path / "rot.json"
        rp = extract_rotations(antichain_base(["p", "q"]).market)
        jsonio.write_json(rot_file, jsonio.rotation_poset_to_json(rp))
        out_file = tmp_path / "rot.dot"
        code, _ = run_cli(capsys, "export-dot", str(rot_file), "-o", str(out_file))
        assert code == 0 and out_file.read_text().startswith("digraph rotations")

    def test_reduce_bound_elements(self, tmp_path, capsys):
        anti_file = tmp_path / "anti.json"
        jsonio.write_json(anti_file, jsonio.antimatroid_to_json(four_element_antimatroid()))
        costs_file = tmp_path / "costs.json"
        jsonio.write_json(costs_file, {"v": 1, "ground": {x: 1 for x in "abcd"}})
        code, _ = run_cli(capsys, "reduce", str(anti_file), str(costs_file),
                          "-o", str(tmp_path / "out.json"), "--bound-elements", "2")
        assert code == 3

    def test_reduce_integer_costs(self, tmp_path, capsys):
        anti_file = tmp_path / "anti.json"
        jsonio.write_json(anti_file, jsonio.antimatroid_to_json(four_element_antimatroid()))
        costs_file = tmp_path / "costs.json"
        jsonio.write_json(costs_file, {"v": 1, "ground": {"a": 3, "b": -2, "c": 5, "d": -7}})
        plain, scaled = tmp_path / "plain.json", tmp_path / "scaled.json"
        code, _ = run_cli(capsys, "reduce", str(anti_file), str(costs_file), "-o", str(plain))
        assert code == 0
        code, report = run_cli(capsys, "reduce", str(anti_file), str(costs_file), "-o", str(scaled),
                               "--integer-costs")
        assert code == 0 and report["cost_scale"] == 2
        assert any(den != 1 for *_, den in json.loads(plain.read_text())["pair_costs"])
        data = json.loads(scaled.read_text())
        assert data["cost_scale"] == 2
        assert data["pair_costs"] and all(den == 1 for *_, den in data["pair_costs"])
        _, want = run_cli(capsys, "solve", str(plain))
        _, got = run_cli(capsys, "solve", str(scaled))
        assert Fraction(*got["value"]) == Fraction(*want["value"])

    def test_solve_reports_ground_units_on_a_scaled_bundle(self, tmp_path, capsys):
        anti_file, costs_file = self._quad_files(tmp_path, {"a": 3, "b": -2, "c": 5, "d": -7})
        plain, scaled = tmp_path / "plain.json", tmp_path / "scaled.json"
        run_cli(capsys, "reduce", str(anti_file), str(costs_file), "-o", str(plain))
        run_cli(capsys, "reduce", str(anti_file), str(costs_file), "-o", str(scaled), "--integer-costs")
        _, want = run_cli(capsys, "solve", str(plain))
        assert "cost_scale" not in want
        code, got = run_cli(capsys, "solve", str(scaled))
        assert code == 0 and got["cost_scale"] == 2
        assert (got["value"], got["recovered_set"]) == (want["value"], want["recovered_set"])
        # a ground-costs file is transferred unscaled, so nothing is divided
        other = tmp_path / "other.json"
        jsonio.write_json(other, {"v": 1, "ground": {"a": -1, "b": 4, "c": -3, "d": -2}})
        _, want = run_cli(capsys, "solve", str(plain), str(other))
        code, got = run_cli(capsys, "solve", str(scaled), str(other))
        assert code == 0 and "cost_scale" not in got and got["value"] == want["value"]

    def test_solve_rejects_a_bad_cost_scale(self, tmp_path, capsys):
        bundle_file = _reduction_file(tmp_path)
        data = json.loads(bundle_file.read_text())
        for bad in (0, -2, "2", True, 1.5, None):
            jsonio.write_json(bundle_file, {**data, "cost_scale": bad})
            code, report = run_cli(capsys, "solve", str(bundle_file))
            assert (code, report["kind"]) == (2, "InputError") and "cost_scale" in report["error"], bad

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

    def test_solve_rejects_a_reduction_costing_pairs_outside_its_market(self, tmp_path, capsys):
        bundle_file = _reduction_file(tmp_path)
        data = json.loads(bundle_file.read_text())
        data["pair_costs"].append(["nofirm", "noworker", -5, 1])
        jsonio.write_json(bundle_file, data)
        code, report = run_cli(capsys, "solve", str(bundle_file))
        assert (code, report["kind"]) == (2, "InputError") and "'nofirm'" in report["error"]

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
        atoms = [f"a{i:02d}" for i in range(12)]
        covers = [("bot", a) for a in atoms] + [(a, "top") for a in atoms]
        lattice = lattice_from_order(poset_from_pairs(["bot", *atoms, "top"], covers, close=True))
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

    def test_verify_compares_each_pair_of_matchings_once_per_market(self, tmp_path, capsys, monkeypatch):
        real, calls = markets.firm_order_compare, []

        def counting(*args):
            calls.append(args[0])
            return real(*args)

        lattice_file, bundle_file = _pentagon_files(tmp_path, capsys)
        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "lattmark" and getattr(module, "firm_order_compare", None) is real:
                monkeypatch.setattr(module, "firm_order_compare", counting)
        code, report = run_cli(capsys, "verify", str(bundle_file), str(lattice_file))
        assert code == 0 and report["outcome"] == "ok"
        # C(5, 2) pairs of stable matchings, once above and once below the projection
        assert len(calls) == 20

    def test_verify_fails_the_isomorphism_on_a_wrong_lattice_or_order(self, tmp_path, capsys, monkeypatch):
        lattice_file, bundle_file = _pentagon_files(tmp_path, capsys)
        diamond_file = tmp_path / "diamond.json"
        jsonio.write_json(diamond_file, jsonio.lattice_to_json(diamond_lattice()))
        code, report = run_cli(capsys, "verify", str(bundle_file), str(diamond_file))
        assert code == 4 and {c["name"]: c["ok"] for c in report["checks"]}["order-isomorphism"] is False

        real, swap = markets.firm_order_compare, {markets.FirmOrder.LEQ: markets.FirmOrder.GEQ,
                                                   markets.FirmOrder.GEQ: markets.FirmOrder.LEQ}
        monkeypatch.setattr(markets, "firm_order_compare", lambda *args: swap.get(real(*args), real(*args)))
        code, report = run_cli(capsys, "verify", str(bundle_file), str(lattice_file))
        assert code == 4 and {c["name"]: c["ok"] for c in report["checks"]}["order-isomorphism"] is False

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
        labels = [f"e{i}" for i in range(8)]
        chain = lattice_from_order(poset_from_pairs(labels, list(zip(labels, labels[1:])), close=True))
        market = synthesize_from_lattice(chain, verify=False).extendable.market
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
        from lattmark import antimatroids

        real, calls = antimatroids.validate_antimatroid, []
        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "lattmark" and getattr(module, "validate_antimatroid", None) is real:
                monkeypatch.setattr(module, "validate_antimatroid", lambda fam: calls.append(fam) or real(fam))
        anti_file, costs_file = tmp_path / "anti.json", tmp_path / "costs.json"
        jsonio.write_json(anti_file, jsonio.antimatroid_to_json(four_element_antimatroid()))
        jsonio.write_json(costs_file, {"v": 1, "ground": {x: 1 for x in "abcd"}})
        code, report = run_cli(capsys, "reduce", str(anti_file), str(costs_file), "-o", str(tmp_path / "out.json"))
        assert code == 0 and len(calls) == 1
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

    def test_path_and_feasible_files_reduce_to_the_same_bundle(self, tmp_path, capsys):
        fam = four_element_antimatroid()
        forms = {"feasible": jsonio.antimatroid_to_json(fam),
                 "paths": jsonio.path_poset_to_json(compute_path_poset(fam))}
        costs_file = tmp_path / "costs.json"
        jsonio.write_json(costs_file, {"v": 1, "ground": {"a": 3, "b": -2, "c": 5, "d": -7}})
        for flags in ([], ["--integer-costs"]):
            bundles = []
            for name, data in forms.items():
                anti_file, out = tmp_path / f"{name}.json", tmp_path / f"{name}.bundle.json"
                jsonio.write_json(anti_file, data)
                code, report = run_cli(capsys, "reduce", str(anti_file), str(costs_file), "-o", str(out), *flags)
                assert code == 0 and {"name": "antimatroid-axioms", "ok": True} in report["checks"], name
                bundles.append(out.read_bytes())
            assert bundles[0] == bundles[1], flags

    def test_reduce_checks_the_bound_before_the_antimatroid(self, tmp_path, capsys):
        ground = [f"x{i:02}" for i in range(21)]
        costs_file = tmp_path / "costs.json"
        jsonio.write_json(costs_file, {"v": 1, "ground": {x: 1 for x in ground}})
        # an invalid family, and free paths that generate 2^21 sets
        for data in ({"v": 1, "ground": ground, "feasible": [[]]},
                     {"v": 1, "ground": ground, "paths": [{"set": [x], "endpoint": x} for x in ground]}):
            anti_file = tmp_path / "anti.json"
            jsonio.write_json(anti_file, data)
            code, report = run_cli(capsys, "reduce", str(anti_file), str(costs_file), "-o", str(tmp_path / "out.json"))
            assert code == 3 and report["kind"] == "EnumerationBoundExceeded"

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
                     ["enumerate", str(bundle_file), "--bound-nodes", "-1"],
                     ["reduce", "anti.json", "costs.json", "-o", "out.json", "--bound-elements", "-1"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2, argv
            assert "non-negative" in capsys.readouterr().err
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
        labels = ["c0", "c1", "c2"]
        chain = lattice_from_order(poset_from_pairs(labels, list(zip(labels, labels[1:])), close=True))
        chain_file, chain_bundle = _synthesized_files(tmp_path, capsys, "chain3", chain)
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
    generated = AntimatroidFamily.of(ground, union_closure([s for s, _ in paths]))
    accepted = (validate_antimatroid_pairwise(generated)[0]
                and Counter(paths) == Counter(union_irreducible_paths(generated)))
    return data, accepted


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_antimatroid_files())
def test_reduce_accepts_exactly_the_antimatroids_the_oracles_accept(case):
    data, accepted = case
    with tempfile.TemporaryDirectory() as tmp:
        anti_file, costs_file, out = Path(tmp, "anti.json"), Path(tmp, "costs.json"), str(Path(tmp, "out.json"))
        jsonio.write_json(anti_file, data)
        jsonio.write_json(costs_file, {"v": 1, "ground": {x: 1 for x in data["ground"]}})
        with contextlib.redirect_stdout(io.StringIO()) as report:
            code = cli.main(["reduce", str(anti_file), str(costs_file), "-o", out])
    assert code in (0, 2, 3), report.getvalue()
    assert (code == 0) == accepted, (data, report.getvalue())
