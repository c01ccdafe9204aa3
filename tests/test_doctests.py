"""Run the doctests embedded in the library modules."""

import ast
import doctest
from pathlib import Path

import pytest

import braidcryst.braidword
import braidcryst.conjugacy
import braidcryst.frobenius
import braidcryst.orbits
import braidcryst.permutation
import braidcryst.quotient
import braidcryst.subgroups
import braidcryst.torsion
import braidcryst.zlinalg

MODULES = [
    braidcryst.braidword,
    braidcryst.conjugacy,
    braidcryst.frobenius,
    braidcryst.orbits,
    braidcryst.permutation,
    braidcryst.quotient,
    braidcryst.subgroups,
    braidcryst.torsion,
    braidcryst.zlinalg,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    failures, _ = doctest.testmod(module, verbose=False)
    assert failures == 0


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_has_no_assert_statement(module):
    # python -O strips assert statements, and with them any check they make
    tree = ast.parse(Path(module.__file__).read_text())
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []
