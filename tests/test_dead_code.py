"""No definition, module or ``__all__`` entry in the library that nothing uses.

* Every function, method and class under ``src/repro/``, in
  ``benchmarks/*.py`` (the layered harness under ``benchmarks/layered/``
  is the driver's, not scanned) and in ``examples/*.py`` is mentioned
  somewhere in the code of ``src/``, ``tests/``, ``benchmarks/`` or
  ``examples/`` besides its own ``def`` / ``class`` line.  The scan is by
  identifier token, skipping comments and docstrings, so a name looked
  up from a string (``launch = "_launch_query"``) or listed in an
  ``__all__`` counts as named and a name a docstring only talks about
  does not: it is a floor, not a caller audit -- what it catches is the
  helper whose last caller was deleted.
* Every module under ``src/repro/`` is imported by a file outside
  ``tests/``: a module only tests reach is a mechanism no claim or caller
  needs.  A package ``__init__`` counts only for the names its own code
  uses, not for its re-exports or a blanket ``from . import x``.
* Every name an ``__all__`` lists is an attribute of its module.
"""

import ast
import collections
import importlib
import io
import pathlib
import re
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "benchmarks", "examples")
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# Python 3.12 splits an f-string into tokens; its literal text is
# FSTRING_MIDDLE, its expressions ordinary NAME tokens.
STRINGS = {tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}


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


def code_mentions(text: str) -> collections.Counter:
    """Identifier tokens of ``text``'s code and string literals; the
    words of its comments and docstrings (bare string statements) are
    prose, not uses."""
    prose = {
        (node.lineno, node.col_offset)
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    }
    mentions = collections.Counter()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.NAME:
            mentions[token.string] += 1
        elif token.type in STRINGS and token.start not in prose:
            mentions.update(IDENTIFIER.findall(token.string))
    return mentions


def unnamed_definitions(root: pathlib.Path = ROOT):
    mentions = collections.Counter()
    for tree in TREES:
        for path in (root / tree).rglob("*.py"):
            mentions.update(code_mentions(path.read_text()))
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
        '"""Module prose: ``described()`` is only talked about."""\n\n'
        "def called():\n    pass\n\n"
        "def orphan():\n    pass\n\n"
        "def described():\n    pass  # described() once more, in a comment\n\n"
        'def looked_up():\n    pass\n\nHANDLER = "looked_up"\n\n'
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
        "orphan": ["src/repro/m.py:6"],
        "described": ["src/repro/m.py:9"],
        "last_caller_removed": ["benchmarks/gate.py:1"],
    }


# -- modules: imported by a caller, not only by tests ---------------------------


def module_name(src: pathlib.Path, path: pathlib.Path) -> str:
    """``src/repro/a/b.py`` -> ``repro.a.b``; a package's ``__init__``
    is the package."""
    parts = path.relative_to(src).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imports(path: pathlib.Path, package: str):
    """``(module, aliases)`` per import statement of ``path``; ``package``
    is what its relative imports are relative to.  ``import x`` has no
    aliases: it names the module itself."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            base = package.rsplit(".", node.level - 1)[0] if node.level else ""
            yield ".".join(filter(None, (base, node.module))), node.names


def unimported_modules(root: pathlib.Path = ROOT):
    """Modules under ``src/repro/`` no file outside ``tests/`` imports.

    A name imported from a package counts for the module the package's
    ``__init__`` takes it from (``from repro.scenarios import
    runner_for``, defined in that ``__init__``, counts for the
    ``__init__`` alone).  An ``__init__`` is itself an importer only of
    the names its own code uses (``scenarios/__init__``'s backend table
    holds ``ScenarioRunner``): a name it only re-exports through
    ``__all__``, or a blanket ``from . import x``, loads the module for
    everyone and so says nothing about who needs it.
    """
    src = root / "src"
    files = {module_name(src, path): path for path in (src / "repro").rglob("*.py")}
    packages = {name for name, path in files.items() if path.name == "__init__.py"}
    taken_from = {
        f"{package}.{alias.asname or alias.name}": module
        for package in packages
        for module, aliases in imports(files[package], package)
        for alias in aliases
    }

    def source(package: str, name: str):
        # ``package.name`` is a module, or a name its __init__ takes from
        # a module -- or from a subpackage, which is asked in turn.
        qualified = f"{package}.{name}"
        if qualified in files:
            return qualified
        module = taken_from.get(qualified)
        if module in packages and module != package:
            return source(module, name)
        return module

    reached = set()
    for tree in ("src", "benchmarks", "examples"):
        for path in (root / tree).rglob("*.py"):
            package = module_name(src, path) if tree == "src" else ""
            used = None
            if path.name == "__init__.py":
                code = ast.parse(path.read_text())
                used = {node.id for node in ast.walk(code) if isinstance(node, ast.Name)}
            else:
                package = package.rpartition(".")[0]
            for module, aliases in imports(path, package):
                if used is not None:
                    aliases = [a for a in aliases if (a.asname or a.name) in used]
                    if not aliases:
                        continue
                if module in packages:
                    reached.update(source(module, alias.name) for alias in aliases)
                else:
                    reached.add(module)
    return sorted(set(files) - packages - reached)


def test_every_module_has_a_caller_outside_the_tests():
    orphans = unimported_modules()
    assert not orphans, (
        "imported only by tests or by a package __init__ (give each a caller "
        f"or a claim row in benchmarks/paper_claims.py, or delete it): {orphans}"
    )


def test_the_scan_finds_modules_only_tests_or_an_init_import(tmp_path):
    package = tmp_path / "src" / "repro" / "pkg"
    package.mkdir(parents=True)
    for tree in TREES[1:]:
        (tmp_path / tree).mkdir()
    (package.parent / "__init__.py").write_text("from .pkg import thing\n")
    (package / "__init__.py").write_text(
        "from . import blanket\n"
        "from .used import thing\n"
        "from .reexported import name\n"
        "from .dispatched import Runner\n\n"
        '__all__ = ["thing", "name"]\n'
        'RUNNERS = {"default": Runner}\n'
    )
    for module in ("used", "helper", "reexported", "dispatched", "blanket", "test_only"):
        (package / f"{module}.py").write_text("")
    (package / "user.py").write_text("from .helper import value\n")
    (tmp_path / "tests" / "test_pkg.py").write_text("from repro.pkg import test_only\n")
    (tmp_path / "benchmarks" / "bench.py").write_text(
        "from repro import thing\nimport repro.pkg.user\n"
    )
    assert unimported_modules(tmp_path) == [
        "repro.pkg.blanket", "repro.pkg.reexported", "repro.pkg.test_only"
    ]


# -- __all__: every entry resolves ----------------------------------------------


def test_every_all_entry_is_an_attribute_of_its_module():
    src = ROOT / "src"
    stale = {}
    for path in sorted((src / "repro").rglob("*.py")):
        module = importlib.import_module(module_name(src, path))
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        if missing:
            stale[module.__name__] = missing
    assert not stale, f"__all__ lists names its module does not define: {stale}"
