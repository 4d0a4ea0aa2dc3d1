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
