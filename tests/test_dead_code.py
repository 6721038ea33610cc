"""No definition in the library or its scripts that nothing names.

Every function, method and class under ``src/repro/``, in
``benchmarks/*.py`` (the layered harness under ``benchmarks/layered/``
is the driver's, not scanned) and in ``examples/*.py`` is mentioned
somewhere in ``src/``, ``tests/``, ``benchmarks/`` or ``examples/``
besides its own ``def`` / ``class`` line.  The scan is by identifier
token over the whole text, so a name looked up from a string
(``launch = "_launch_query"``) or listed in an ``__all__`` counts as
named: it is a floor, not a caller audit -- what it catches is the
helper whose last caller was deleted.
"""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "benchmarks", "examples")


def found_by_rule(name: str) -> bool:
    # __dunder__ methods are called by the interpreter; ``PGridNode.receive``
    # finds ``_on_<kind>`` by name for each kind in ``protocol.CATEGORY``
    # (``tests/test_protocol.py`` holds the two in step); pytest collects
    # ``test_*``.
    return (name.startswith("__") and name.endswith("__")) or name.startswith(
        ("_on_", "test_")
    )


def defining_files(root: pathlib.Path):
    yield from sorted((root / "src" / "repro").rglob("*.py"))
    yield from sorted((root / "benchmarks").glob("*.py"))
    yield from sorted((root / "examples").glob("*.py"))


def unnamed_definitions(root: pathlib.Path = ROOT):
    mentions = collections.Counter()
    for tree in TREES:
        for path in (root / tree).rglob("*.py"):
            mentions.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", path.read_text()))
    definitions = collections.defaultdict(list)
    for path in defining_files(root):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions[node.name].append(f"{path.relative_to(root)}:{node.lineno}")
    return {
        name: where
        for name, where in definitions.items()
        if mentions[name] <= len(where)
        and not found_by_rule(name)
    }


def test_every_definition_is_named_somewhere_else():
    dead = unnamed_definitions()
    assert not dead, (
        "defined but named nowhere else (delete them; if something finds "
        f"them by name at run time, say how in found_by_rule): {dead}"
    )


def test_the_scan_finds_a_definition_nothing_names(tmp_path):
    # Guards the scan itself: a moved tree must not turn it into a pass.
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    for tree in TREES[1:]:
        (tmp_path / tree).mkdir()
    (package / "m.py").write_text(
        "def called():\n    pass\n\n"
        "def orphan():\n    pass\n\n"
        "class Node:\n    def _on_ping(self):\n        pass\n"
    )
    (tmp_path / "tests" / "test_m.py").write_text("called()\nNode()\n")
    (tmp_path / "benchmarks" / "gate.py").write_text(
        "def last_caller_removed():\n    pass\n"
    )
    (tmp_path / "benchmarks" / "layered").mkdir()
    (tmp_path / "benchmarks" / "layered" / "run.py").write_text("def theirs():\n    pass\n")
    (tmp_path / "examples" / "demo.py").write_text("def main():\n    pass\n\nmain()\n")
    assert unnamed_definitions(tmp_path) == {
        "orphan": ["src/repro/m.py:4"],
        "last_caller_removed": ["benchmarks/gate.py:1"],
    }
