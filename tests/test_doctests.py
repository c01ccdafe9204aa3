"""Run the doctests embedded in the library modules."""

import ast
import doctest
import importlib
from pathlib import Path

import pytest

import braidcryst
import braidcryst.cli
from braidcryst.permutation import Record

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


def _code_references(path):
    """The names that the code of ``path`` reads: the id of each ``ast.Name``
    and the attribute of each ``ast.Attribute`` it loads, except where a
    definition reads its own name (a recursive call, say).  Strings,
    docstrings and comments are not code, so a name that only they mention is
    not read."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name not in inside:
                found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text()), frozenset())
    return found


PACKAGE_PATHS = sorted(Path(braidcryst.__file__).parent.glob("*.py"))


def test_only_record_defines_value_semantics():
    # immutability, equality, hashing, pickling and repr live in
    # permutation.Record alone
    classes = [
        value
        for path in PACKAGE_PATHS if path.stem != "__init__"
        for value in vars(importlib.import_module(f"braidcryst.{path.stem}")).values()
        if isinstance(value, type) and value.__module__ == f"braidcryst.{path.stem}"
    ]
    assert len(classes) >= 10
    redefined = {"__setattr__", "__delattr__", "__reduce__", "__repr__", "__eq__", "__hash__"}
    assert sorted(
        f"{cls.__name__}.{name}" for cls in classes if cls.__name__ != "Record"
        for name in redefined & vars(cls).keys()
    ) == []
    # a value keeps its storage and nothing else: every Record declares its
    # own __slots__ (so it has no instance __dict__), and no module caches
    # state on an instance
    assert sorted(
        cls.__name__ for cls in classes if issubclass(cls, Record) and "__slots__" not in vars(cls)
    ) == []
    assert [path.name for path in PACKAGE_PATHS if "cached_property" in _code_references(path)] == []


def test_package_has_no_unused_private_definition():
    # a fold or a deletion must not leave a private helper behind: the code
    # of the package reads each private function, method or class somewhere
    # beyond its own definition
    defined = {
        node.name
        for path in PACKAGE_PATHS
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.endswith("__")
    }
    read = set().union(*map(_code_references, PACKAGE_PATHS))
    assert sorted(defined - read) == []


# public names that no code in the package, the demos or the benchmark reads,
# kept because each reproduces a statement of the paper that a test checks
PAPER_ONLY_EXPORTS = {
    # the full twist generates the center of B_n and is pure: its image in
    # B_n/[P_n,P_n] is the all-ones pair vector
    "full_twist_word",
    # for odd n the quotient has an element of order n over the full cycle:
    # the quotient has torsion
    "cyclic_torsion_element",
    # the order-21 Frobenius group F21 embeds in B_n/[P_n,P_n] for every
    # n >= 7, through the standard inclusion of its seven-strand witness
    "embed",
    # the orbit coordinates of the pair-basis tables of the block torsion
    # elements, labelled by block and offset as in the paper's tables
    "relabeled_basis",
}


def _workload_functions(path):
    """The function names that the benchmark's ops call by string, the
    second argument of each ``Op(kind, func, ...)``."""
    return {
        node.args[1].value
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Op"
        and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
    }


ROOT = Path(braidcryst.__file__).parents[2]


def _code_read():
    """The names read by code: the package, the demos, and the benchmark
    except ``tracing.py``, which only wraps names and so calls none."""
    bench = [path for path in sorted((ROOT / "bench").glob("*.py")) if path.name != "tracing.py"]
    paths = [*PACKAGE_PATHS, *sorted((ROOT / "demos").glob("*.py")), *bench]
    return set().union(*map(_code_references, paths))


def test_every_export_has_a_caller_or_reproduces_the_paper():
    # a public name must be read by code: in the package beyond its own
    # definition, in a demo, or in the benchmark, whose ops also name their
    # function by a string
    read = _code_read() | _workload_functions(ROOT / "bench" / "workloads.py")
    unused = {name for names in braidcryst.EXPORTS.values() for name in names} - read
    assert sorted(unused - PAPER_ONLY_EXPORTS) == []
    # an allow-list entry that gains a caller leaves the list
    assert sorted(PAPER_ONLY_EXPORTS - unused) == []


def test_every_public_module_name_is_exported_or_read():
    # a public module-level name that is not exported must be read by code,
    # as an export must: a constant only the tests read belongs in the tests
    read = _code_read()
    exported = {name for names in braidcryst.EXPORTS.values() for name in names}
    unread = []
    for path in PACKAGE_PATHS:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            unread += [
                f"{path.stem}.{name}" for name in names
                if not name.startswith("_") and name not in exported and name not in read
            ]
    assert sorted(unread) == []


def test_every_public_member_has_a_reader():
    # a public method or property of a package class must be read by code,
    # as an export must.  The counter goes by name, so a member passes when
    # its name is read on any object (every to_json passes once one is
    # read), and fields and dunder methods such as __contains__ are not
    # listed: those need a check by hand
    read = _code_read()
    unread = [
        f"{cls.name}.{node.name}"
        for path in PACKAGE_PATHS
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_") and node.name not in read
    ]
    assert sorted(unread) == []
