"""The packages of ``src/repro`` form one checked order.

A package may import only packages before it in :data:`ORDER`, and
every import of a ``repro`` module sits at module level — never inside
a function, a class or an ``if TYPE_CHECKING:`` block, which is how a
cycle hides.  DESIGN.md's "Package layers" paragraph states the same
order.
"""

import ast
import pathlib
from typing import Iterator, List, Optional, Tuple

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Bottom to top.
ORDER = ("obs", "crypto", "bgp", "core", "mtt", "netsim", "traces",
         "spider", "store", "runtime", "netreview", "faults", "harness",
         "analysis")


def _package(module: str) -> Optional[str]:
    """The top-level package of a dotted ``repro`` module name."""
    parts = module.split(".")
    if parts[0] != "repro":
        return None
    return parts[1] if len(parts) > 1 else ""


def _imports(path: pathlib.Path) -> Iterator[Tuple[ast.stmt, str, bool]]:
    """``(node, imported module, at module level)`` for every import in
    one file, relative imports resolved."""
    package = list(path.relative_to(SRC).parts[:-1])
    tree = ast.parse(path.read_text(), filename=str(path))
    top = {id(node) for node in tree.body}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] \
                if node.level else []
            module = ".".join(base + [node.module] if node.module
                              else base)
            names = [module]
            if module == "repro":  # ``from repro import store``
                names = [f"repro.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            yield node, name, id(node) in top


def _violations() -> Tuple[List[str], List[str]]:
    against: List[str] = []
    deferred: List[str] = []
    rank = {name: i for i, name in enumerate(ORDER)}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).parts
        where = "/".join(parts)
        source = parts[1] if len(parts) > 2 else ""
        for node, module, at_top in _imports(path):
            target = _package(module)
            if target is None:
                continue
            if not at_top:
                deferred.append(f"{where}:{node.lineno} imports {module}")
            if source and target and source != target and \
                    rank[target] > rank[source]:
                against.append(f"{where}:{node.lineno}: {source} -> "
                               f"{module}")
    return against, deferred


def test_every_package_is_ranked():
    packages = {p.name for p in (SRC / "repro").iterdir()
                if (p / "__init__.py").is_file()}
    assert packages == set(ORDER)


def test_imports_follow_the_package_order():
    against, _ = _violations()
    assert against == []


def test_repro_imports_are_module_level():
    _, deferred = _violations()
    assert deferred == []
