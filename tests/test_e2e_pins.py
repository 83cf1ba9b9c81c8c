"""The ``repro`` names the end-to-end benchmark pins still resolve.

``benchmarks/e2e`` measures the program from outside: ``layers.py``
wraps the callables its ``TARGETS`` name, and ``harness.py`` and
``peers.py`` import from ``repro`` by path.  A module that moves must
leave those names behind (``repro.runtime.codec`` and
``repro.runtime.logdump`` are re-exports for exactly this reason), and
this test is where a broken name shows, without running the benchmark.
The benchmark files are read, not imported.
"""

import ast
import importlib
import pathlib
from typing import List, Tuple

import pytest

E2E = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"


def _targets() -> List[Tuple[str, str]]:
    """``(module, attribute path)`` of every ``layers.TARGETS`` entry."""
    tree = ast.parse((E2E / "layers.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and \
                isinstance(node.target, ast.Name) and \
                node.target.id == "TARGETS":
            assert isinstance(node.value, ast.Tuple)
            return [(ast.literal_eval(entry.elts[0]),
                     ast.literal_eval(entry.elts[1]))
                    for entry in node.value.elts
                    if isinstance(entry, ast.Tuple)]
    raise AssertionError("layers.py defines no TARGETS")


def _repro_imports(name: str) -> List[Tuple[str, str]]:
    """``(module, name)`` for every ``repro`` import of one e2e file;
    ``name`` is empty for a plain ``import repro.x``."""
    tree = ast.parse((E2E / name).read_text())
    out: List[Tuple[str, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "repro":
            out += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            out += [(alias.name, "") for alias in node.names
                    if alias.name.split(".")[0] == "repro"]
    return out


PINS = sorted(set(_targets()) | set(_repro_imports("harness.py"))
              | set(_repro_imports("peers.py")))


def test_pins_were_found():
    modules = {module for module, _ in PINS}
    assert {"repro.runtime.codec", "repro.runtime.logdump",
            "repro.store.seglog", "repro.runtime.tcp"} <= modules


@pytest.mark.parametrize("module,path", PINS,
                         ids=[f"{m}:{p}" for m, p in PINS])
def test_pinned_name_resolves(module, path):
    obj = importlib.import_module(module)
    for attribute in filter(None, path.split(".")):
        obj = getattr(obj, attribute)
