"""Run the doctests embedded in the library modules."""

import ast
import doctest
import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

import braidcryst
import braidcryst.cli

# every module that defines a public name, so a new module cannot skip the
# checks below
MODULES = [importlib.import_module(f"braidcryst.{name}") for name in braidcryst.EXPORTS]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    failures, _ = doctest.testmod(module, verbose=False)
    assert failures == 0


def _tree(module):
    return ast.parse(Path(module.__file__).read_text())


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_has_no_assert_statement(module):
    # python -O strips assert statements, and with them any check they make
    tree = _tree(module)
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []


@pytest.mark.parametrize("module", [*MODULES, braidcryst, braidcryst.cli], ids=lambda m: m.__name__)
def test_module_does_not_import_dataclasses(module):
    # dataclasses (with inspect) costs a CLI call more than most verbs' work
    imported = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
    assert {name.split(".")[0] for name in imported} & {"dataclasses", "inspect"} == set()


@pytest.mark.parametrize("module", [*MODULES, braidcryst, braidcryst.cli], ids=lambda m: m.__name__)
def test_module_has_no_unused_import(module):
    # a deletion must not leave an import behind that nothing reads
    tree = _tree(module)
    imported = {
        (alias.asname or alias.name).split(".")[0]: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in imported.items() if name not in used} == {}


def test_package_has_no_unused_private_definition():
    # a fold or a deletion must not leave a private helper behind: each
    # private function, method or class is named again somewhere in the
    # package source, beyond its own definitions
    sources = [path.read_text() for path in sorted(Path(braidcryst.__file__).parent.glob("*.py"))]
    defined = Counter(
        node.name
        for text in sources
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.endswith("__")
    )
    unused = [
        name for name, count in sorted(defined.items())
        if sum(len(re.findall(rf"\b{name}\b", text)) for text in sources) <= count
    ]
    assert unused == []


# public names that nothing in the package or the benchmark calls, kept
# because each reproduces a statement of the paper that a test checks
PAPER_ONLY_EXPORTS = {
    # the full twist generates the center of B_n and is pure: its image in
    # B_n/[P_n,P_n] is the all-ones pair vector
    "full_twist_word",
    # for odd n the quotient has an element of order n over the full cycle:
    # the quotient has torsion
    "cyclic_torsion_element",
    # the finite orders are the odd orders of elements of S_n, from the
    # correspondence of finite-order classes with odd-order classes of S_n
    "finite_orders",
}


def _top_level_names(node):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [target.id for target in targets if isinstance(target, ast.Name)]


def test_every_export_has_a_caller_or_reproduces_the_paper():
    # a public name must appear in the package or the benchmark beyond its
    # own definition, or be one of the paper's statements above
    root = Path(braidcryst.__file__).parent
    paths = [path for path in sorted(root.glob("*.py")) if path.name != "__init__.py"]
    paths += sorted((root.parents[1] / "bench").glob("*.py"))
    texts = {path: path.read_text() for path in paths}
    unused = []
    for module, names in braidcryst.EXPORTS.items():
        home = root / f"{module}.py"
        lines = texts[home].splitlines()
        spans = {
            name: (node.lineno - 1, node.end_lineno)
            for node in ast.parse(texts[home]).body for name in _top_level_names(node)
        }
        for name in names:
            start, end = spans[name]
            rest = "\n".join(lines[:start] + lines[end:])
            others = [text for path, text in texts.items() if path != home]
            if not any(re.search(rf"\b{name}\b", text) for text in [rest, *others]):
                unused.append(name)
    assert sorted(set(unused) - PAPER_ONLY_EXPORTS) == []
    # an allow-list entry that gains a caller leaves the list
    assert sorted(PAPER_ONLY_EXPORTS - set(unused)) == []
