"""Every name a module imports is used in it (the package's __init__.py,
whose imports are its public re-exports, excepted), and every package module
imports at module level, never inside a function body; every method and
private function is used; every function the benchmark's per-layer metrics
name exists; the stable-matching search reads the choice-spec families
only through their choice functions and names none of them, and src/
holds exactly four isinstance tests on them; markets.py builds a Matching
in two places; the 2^|J| lower-set filter, the antimatroid element bound,
the frozenset stability definition and the frozenset choice bodies stay
out of the package; the names kept only for the benchmark go unused in
it; names become bits only in orders; no class writes its own __eq__; only
written files are indented; and the certificate reads the search's leaf
masks."""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import typing
from pathlib import Path

from lattmark import markets

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    files = [p for p in sorted((ROOT / "src" / "lattmark").glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "tests").glob("*.py"))
    found = [entry for path in files for entry in unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)


def function_local_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    return sorted({
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for fn in functions for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))
    })


def test_no_imports_inside_functions():
    files = sorted((ROOT / "src" / "lattmark").glob("*.py"))
    found = [entry for path in files for entry in function_local_imports(path)]
    assert not found, "imports inside a function body (move them to module level):\n" + "\n".join(found)


# Public methods kept though src/ calls none of them.
UNREFERENCED_BY_DESIGN = {
    "Lattice.top",  # the dual of Lattice.bottom
    "JoinConstraint.holds",  # the definition lower_sets_satisfying decides on masks
}


def unreferenced_definitions() -> list[str]:
    """Each method of a class in src/ (dunders excepted) and each private
    module-level function whose name no Name or Attribute node in src/
    reads outside the definition itself."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "lattmark").glob("*.py"))}
    definitions = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                definitions += [(path, f"{node.name}.{fn.name}", fn) for fn in node.body
                                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("__")]
            elif isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.startswith("__"):
                definitions.append((path, node.name, node))
    reads: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if name is not None:
                reads.setdefault(name, []).append(node)
    found = []
    for path, qualname, fn in definitions:
        inside = {id(n) for n in ast.walk(fn)}
        if all(id(n) in inside for n in reads.get(fn.name, [])):
            found.append(f"{path.relative_to(ROOT)}:{fn.lineno}: {qualname}")
    return found


def test_every_method_and_private_function_is_used():
    found = [entry for entry in unreferenced_definitions() if entry.rpartition(" ")[2] not in UNREFERENCED_BY_DESIGN]
    assert not found, "defined but never used in src/ (delete it, or pin it here):\n" + "\n".join(found)


def test_benchmark_per_layer_names_resolve():
    """The traced benchmark wraps each function its per-layer metrics name,
    and reads check_path_independence's exhaustive_limit default and
    markets.spec_universe when it hooks that check."""
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    functions = [n.split(".")[:2] for n in names if n.count(".") == 2 and n.endswith((".calls", ".self_s"))]
    missing = [
        f"{layer}.{name}" for layer, name in functions
        if getattr(getattr(importlib.import_module(f"lattmark.{layer}"), name, None), "__module__", None)
        != f"lattmark.{layer}"
    ]
    assert functions and not missing, missing
    assert "exhaustive_limit" in inspect.signature(markets.check_path_independence).parameters
    assert inspect.isfunction(markets.spec_universe) and markets.spec_universe.__module__ == "lattmark.markets"


SPEC_FAMILIES = {"PreferenceList", "Triggered", "Regular"}


def test_search_reads_no_spec_family_fields():
    """markets._stable_leaves states its prune rules through the memoised
    choice functions: it reads no field of a spec family and names no
    family."""
    tree = ast.parse((ROOT / "src" / "lattmark" / "markets.py").read_text(encoding="utf-8"))
    search = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_stable_leaves")
    fields = {"watch", "trigger", "entries", "tiers", "aux_pairs", "alpha_groups", "blocks"}
    read = sorted({n.attr for n in ast.walk(search) if isinstance(n, ast.Attribute) and n.attr in fields})
    named = sorted({n.id for n in ast.walk(search) if isinstance(n, ast.Name) and n.id in SPEC_FAMILIES})
    assert not read and not named, (read, named)


def test_few_isinstance_branches_on_spec_families():
    """Exactly 4 isinstance tests against the three spec families remain in
    src/: the spec codec in jsonio (3) and augment's input validation (1).
    The search tests none."""
    found = []
    for path in sorted((ROOT / "src" / "lattmark").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
                    and len(node.args) == 2
                    and any(isinstance(n, ast.Name) and n.id in SPEC_FAMILIES for n in ast.walk(node.args[1]))):
                found.append(path.name)
    assert sorted(found) == ["augment.py", "jsonio.py", "jsonio.py", "jsonio.py"], found


def test_markets_builds_a_matching_in_two_places():
    """In markets.py a Matching is built only by _Masks.decode, from hold
    masks, and by Matching.of, from pairs."""
    tree = ast.parse((ROOT / "src" / "lattmark" / "markets.py").read_text(encoding="utf-8"))
    found = set()
    for cls in [tree, *(n for n in tree.body if isinstance(n, ast.ClassDef))]:
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "Matching"
                    for n in ast.walk(fn)):
                found.add(f"{cls.name}.{fn.name}" if isinstance(cls, ast.ClassDef) else fn.name)
    assert found == {"_Masks.decode", "Matching.of"}, found


def test_only_written_files_are_indented():
    """Run reports print as one line through json's C encoder: the one
    indent= argument in src/ is jsonio.dumps', which formats written files."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "lattmark").glob("*.py"))}
    dumps = next(n for n in trees["jsonio.py"].body if isinstance(n, ast.FunctionDef) and n.name == "dumps")
    inside = {id(n) for n in ast.walk(dumps)}
    found = [(name, node.lineno, id(node) in inside) for name, tree in trees.items()
             for node in ast.walk(tree) if isinstance(node, ast.keyword) and node.arg == "indent"]
    assert [inside for *_, inside in found] == [True], found


def test_the_certificate_reads_the_search_leaf_masks():
    """augment._extension_checks takes the extended market's stable
    matchings as hold masks from stable_holds and the base market's two
    deferred-acceptance extremes as masks from the base kernel: it calls no
    enumerate_stable, no encode and no decoding deferred_acceptance."""
    tree = ast.parse((ROOT / "src" / "lattmark" / "augment.py").read_text(encoding="utf-8"))
    checks = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_extension_checks")
    calls = [n.func for n in ast.walk(checks) if isinstance(n, ast.Call)]
    named = {f.id if isinstance(f, ast.Name) else f.attr for f in calls if isinstance(f, (ast.Name, ast.Attribute))}
    extremes = [ast.unparse(f) for f in calls if isinstance(f, (ast.Name, ast.Attribute))
                and (f.id if isinstance(f, ast.Name) else f.attr) == "deferred_acceptance"]
    assert "stable_holds" in named and not {"enumerate_stable", "encode"} & named, named
    assert extremes == ["base_kernel.deferred_acceptance"], extremes


def names_in_src(names: set[str]) -> list[str]:
    """Each read, definition, import or string constant in src/ that spells
    one of the names."""
    found = []
    for path in sorted((ROOT / "src" / "lattmark").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.alias))
                    else node.value if isinstance(node, ast.Constant) else None)
            if name in names:
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    return found


def test_the_filtered_lower_sets_stay_out_of_the_package():
    """The expected image is searched (constraints.lower_sets_satisfying);
    the 2^|J| enumeration and its filter live in tests/oracles.py only."""
    gone = {"lower_sets", "filter_lower_sets", "LOWER_SET_BOUND"}
    exported = gone & set(dir(importlib.import_module("lattmark")))
    assert not names_in_src(gone) and not exported, (names_in_src(gone), exported)


def test_no_element_bound_comes_back():
    """A path file is checked in time polynomial in its paths and a family
    file in its own size, so no ground-set bound guards reduce: neither
    the error nor the option may return to src/ or the package exports."""
    gone = {"EnumerationBoundExceeded", "bound_elements", "--bound-elements"}
    modules = ["lattmark", "lattmark.errors", "lattmark.cli"]
    exported = {name for m in modules for name in dir(importlib.import_module(m))} & gone
    assert not names_in_src(gone) and not exported, (names_in_src(gone), exported)


def test_stability_is_defined_once_in_the_package():
    """is_stable decides on the market's mask kernel; the frozenset
    definition (individual rationality and blocking pairs) is the test
    oracle in tests/oracles.py and stays out of src/ and the exports."""
    gone = {"blocking_pairs", "is_individually_rational"}
    modules = ["lattmark", "lattmark.markets"]
    exported = {name for m in modules for name in dir(importlib.import_module(m))} & gone
    assert not names_in_src(gone) and not exported, (names_in_src(gone), exported)


def test_each_choice_is_defined_once_on_masks():
    """Each of the three spec families states its choice once, as
    on_masks; choose is derived from it.  They are the _Family subclasses
    markets defines and the members of ChoiceSpec: the if-else choice is
    Regular's two-tier case, not a family of its own.  The frozenset family
    bodies and the frozenset deferred acceptance are test oracles in
    tests/oracles.py: no family carries a choose method, and the oracles
    stay out of src/ and the exports."""
    families = [getattr(markets, name) for name in sorted(SPEC_FAMILIES)]
    defined = {cls.__name__ for cls in markets._Family.__subclasses__() if cls.__module__ == markets.__name__}
    assert defined == SPEC_FAMILIES, defined
    assert set(typing.get_args(markets.ChoiceSpec)) == set(families)
    misdefined = [cls.__name__ for cls in families if "choose" in vars(cls) or "on_masks" not in vars(cls)]
    gone = {"choose_by_sets", "deferred_acceptance_by_sets", "on_masks_by_sets", "if_else_by_sets", "IfElse"}
    modules = ["lattmark", "lattmark.markets"]
    exported = {name for m in modules for name in dir(importlib.import_module(m))} & gone
    assert not misdefined and not names_in_src(gone) and not exported, (misdefined, names_in_src(gone), exported)


def test_names_become_bits_only_in_orders():
    """Every name-to-bit encoding goes through orders._bit_of and
    orders._mask: no other module under src/ defines either name."""
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}"
        for path in sorted((ROOT / "src" / "lattmark").glob("*.py")) if path.name != "orders.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name in {"_bit_of", "_mask"}
    ]
    assert not found, found


def test_no_class_writes_its_own_equality():
    """Classes under src/ compare by their dataclass fields (compare=False
    leaves a derived field out); none defines __eq__ in its body."""
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}"
        for path in sorted((ROOT / "src" / "lattmark").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef) and any(
            isinstance(fn, ast.FunctionDef) and fn.name == "__eq__" for fn in node.body)
    ]
    assert not found, found


# Public functions src/ never calls, kept because a per-layer metric of the
# benchmark names them.
KEPT_FOR_BENCHMARK = {
    "markets.firm_order_compare",  # firm_leq reads the order off grouped partner sets
    "markets.choose",  # the kernel, deferred acceptance and the firm order call the compiled choices
}


def test_names_kept_for_the_benchmark_are_named_by_it_and_unused_in_src():
    names = {".".join(m["name"].split(".")[:2])
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert KEPT_FOR_BENCHMARK <= names, KEPT_FOR_BENCHMARK - names
    for qualname in sorted(KEPT_FOR_BENCHMARK):
        layer, name = qualname.split(".")
        assert inspect.isfunction(getattr(importlib.import_module(f"lattmark.{layer}"), name))
        # the definition and the package's re-export are its only mentions
        uses = [entry for entry in names_in_src({name})
                if not entry.startswith((f"src/lattmark/{layer}.py", "src/lattmark/__init__.py"))]
        src = (ROOT / "src" / "lattmark" / f"{layer}.py").read_text(encoding="utf-8")
        calls = [n for n in ast.walk(ast.parse(src)) if isinstance(n, ast.Name) and n.id == name]
        assert not uses and not calls, (qualname, uses, len(calls))
