"""Static checks on the package source."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "twofluid"


def _definitions_and_references():
    """({qualified name: bare name} of every module-level function and
    class and every method but the dunders, which Python calls, {every
    Name, Attribute and import-alias name}) over src/twofluid/*.py."""
    defs, refs = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("__")):
                        defs[f"{node.name}.{item.name}"] = item.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name)
    return defs, refs


def test_unreferenced_definitions_are_the_test_oracles():
    # a definition that no src/ code names serves only tests; the two kept
    # are the independent oracles that the README's API notes name
    defs, refs = _definitions_and_references()
    unreferenced = {q for q, name in defs.items() if name not in refs}
    assert unreferenced == {"sim.load_state",
                            "GreenReconstructor.full_profile"}


def _call_sites(callee: str) -> list[str]:
    """The function around each call of `callee`, by bare or attribute
    name, in src/twofluid/*.py, a raise of it included: "module.function"
    or "Class.method" (a nested function is "outer.inner")."""
    sites = []

    class Visitor(ast.NodeVisitor):
        def __init__(self, module):
            self.scope = [module]

        def visit_ClassDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_FunctionDef = visit_ClassDef

        def visit_Call(self, node):
            if callee in (getattr(node.func, "id", None),
                          getattr(node.func, "attr", None)):
                sites.append(".".join(self.scope[-2:]))
            self.generic_visit(node)

    for path in sorted(SRC.glob("*.py")):
        Visitor(path.stem).visit(
            ast.parse(path.read_text(encoding="utf-8")))
    return sites


def test_each_input_is_checked_in_one_place():
    # parameter files, Green times and simulator states each pass one gate,
    # in the layer that owns them
    assert _call_sites("validate_params") == ["model.solve_equilibrium"]
    assert _call_sites("check_times") == ["GreenReconstructor.entry_profile"]
    assert _call_sites("AdmissibilityError") == ["model.solve_fraction_map"]


def test_src_imports_no_scipy():
    # scipy is a test oracle only: no module of the package imports it, at
    # the top or inside a function
    imports = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            imports += [f"{path.stem}: {name}" for name in names
                        if name.split(".")[0] == "scipy"]
    assert imports == []
