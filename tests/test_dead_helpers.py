"""Every top-level function and class under src/ serves something that is run.

A definition counts as reached when another top-level statement of some
module under src/blockcraft uses its name (an import alone does not count,
nor do the re-exports of __init__.py), when it is a check registered with
cli._register, when tests/test_acceptance.py imports it, or when the
README's library tour imports it.  Anything else is a helper that only its
own tests call: it belongs in the test file, as an oracle, or nowhere.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "blockcraft"


def _imported_names(tree: ast.AST) -> set[str]:
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _used_names(node: ast.AST) -> set[str]:
    # Names only: src/ imports what it calls, and an attribute such as
    # DegreeMultiset.character_count must not hide a function of that name.
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def _is_registered(node: ast.AST) -> bool:
    return any(
        isinstance(dec, ast.Call) and getattr(dec.func, "id", None) == "_register"
        for dec in getattr(node, "decorator_list", ())
    )


def _tour_names() -> set[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library quick tour", 1)[1]
    return _imported_names(ast.parse(tour.split("```python", 1)[1].split("```", 1)[0]))


def unreached_definitions() -> list[str]:
    """module.name for each top-level def or class nothing above reaches.

    A use counts only from a statement that is itself reached, so a helper
    called only by an unreached helper is unreached too.
    """
    definitions = []  # (module, name, node)
    uses = []  # (node, names used in it)
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((path.stem, node.name, node))
            uses.append((node, _used_names(node)))
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    exempt = _imported_names(ast.parse(acceptance)) | _tour_names()
    unreached: list = []
    while True:
        dead = {id(node) for _, _, node in unreached}
        live = [(node, names) for node, names in uses if id(node) not in dead]
        found = [
            (module, name, node)
            for module, name, node in definitions
            if name not in exempt
            and not _is_registered(node)
            and not any(name in names for other, names in live if other is not node)
        ]
        if len(found) == len(unreached):
            return [f"{module}.{name}" for module, name, _ in found]
        unreached = found


def test_every_src_definition_is_reached():
    unreached = unreached_definitions()
    assert not unreached, "reached only by their own tests, if at all: " + ", ".join(unreached)


def test_the_guard_sees_the_exemptions():
    tour = _tour_names()
    assert {"mn_character_value", "verify_gl_mckay", "block_of"} <= tour
    assert not _is_registered(ast.parse("def f(): pass").body[0])
    assert _is_registered(ast.parse("@_register('x', 'a b')\ndef f(): pass").body[0])
