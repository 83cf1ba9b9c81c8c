"""Program index and call-resolution heuristics."""

import ast

from repro.analysis.callgraph import Program

MAIN = '''\
"""Module under test."""

from repro.helpers.util import transform
from .sibling import local_thing
from ..crypto.rc4 import Rc4Csprng


def top(x):
    return helper(x)


def helper(x):
    """Helps."""
    return transform(x)


class Widget:

    def __init__(self, x):
        self.x = x

    def run_once(self):
        return self.refresh()

    def refresh(self):
        return self.x
'''

UTIL = '''\
def transform(x):
    return x + 1
'''

SIBLING = '''\
def local_thing():
    return 7
'''


def _program():
    return Program.from_sources([
        ("repro/helpers/main.py", MAIN),
        ("repro/helpers/util.py", UTIL),
        ("repro/helpers/sibling.py", SIBLING),
    ])


def _call(source: str) -> ast.Call:
    expr = ast.parse(source).body[0]
    assert isinstance(expr, ast.Expr)
    assert isinstance(expr.value, ast.Call)
    return expr.value


def test_functions_are_indexed_with_qualnames():
    program = _program()
    assert "repro/helpers/main.py::top" in program.functions
    assert "repro/helpers/main.py::Widget.run_once" in program.functions
    info = program.functions["repro/helpers/main.py::Widget.__init__"]
    assert info.cls == "Widget"
    assert info.params == ("self", "x")


def test_same_module_call_resolves():
    program = _program()
    caller = program.functions["repro/helpers/main.py::top"]
    targets = program.resolve_call(_call("helper(x)"), caller)
    assert [t.qualname for t in targets] == \
        ["repro/helpers/main.py::helper"]


def test_imported_call_resolves_across_modules():
    program = _program()
    caller = program.functions["repro/helpers/main.py::helper"]
    targets = program.resolve_call(_call("transform(x)"), caller)
    assert [t.qualname for t in targets] == \
        ["repro/helpers/util.py::transform"]


def test_relative_import_resolves():
    program = _program()
    caller = program.functions["repro/helpers/main.py::top"]
    targets = program.resolve_call(_call("local_thing()"), caller)
    assert [t.qualname for t in targets] == \
        ["repro/helpers/sibling.py::local_thing"]


def test_self_call_resolves_within_class():
    program = _program()
    caller = program.functions["repro/helpers/main.py::Widget.run_once"]
    targets = program.resolve_call(_call("self.refresh()"), caller)
    assert [t.qualname for t in targets] == \
        ["repro/helpers/main.py::Widget.refresh"]


def test_constructor_resolves_to_init():
    program = _program()
    caller = program.functions["repro/helpers/main.py::top"]
    targets = program.resolve_call(_call("Widget(x)"), caller)
    assert [t.qualname for t in targets] == \
        ["repro/helpers/main.py::Widget.__init__"]


def test_cls_call_in_a_method_resolves_to_its_own_init():
    """``cls(...)`` in a classmethod builds the enclosing class; from a
    plain function the name ``cls`` means nothing."""
    program = _program()
    method = program.functions["repro/helpers/main.py::Widget.refresh"]
    targets = program.resolve_call(_call("cls(x)"), method)
    assert [t.qualname for t in targets] == \
        ["repro/helpers/main.py::Widget.__init__"]
    function = program.functions["repro/helpers/main.py::top"]
    assert program.resolve_call(_call("cls(x)"), function) == []


def test_common_method_names_stay_unresolved():
    program = _program()
    caller = program.functions["repro/helpers/main.py::top"]
    assert program.resolve_call(_call("thing.append(x)"), caller) == []


def test_parse_errors_are_collected_not_raised():
    program = Program.from_sources([
        ("repro/helpers/broken.py", "def broken(:\n")])
    assert program.modules == {}
    assert len(program.parse_errors) == 1
    assert "parse error" in program.parse_errors[0]
