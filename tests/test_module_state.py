"""The library keeps no state that functions rebind at module level: a
counter or switch there is shared by every caller in the process, so one
test (or one caller) changes what the next one sees."""

import ast
import pathlib

import pytest

import qasm2cudaq

MODULES = sorted(pathlib.Path(qasm2cudaq.__file__).parent.glob("*.py"))


def test_every_module_is_walked():
    assert {path.name for path in MODULES} >= {"frontend.py", "kir.py", "sema.py", "sim.py", "suites.py"}


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_global_statement(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [
        f"{path.name}:{node.lineno} global {', '.join(node.names)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Global)
    ]
    assert not found, found
