"""Documentation sanity: the docs reference things that actually exist.

Keeps README/DESIGN/EXPERIMENTS honest as the code evolves: every module
path, bench file, and example they mention must exist, and the public
API surfaces they advertise must import.
"""

import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The documents whose ``repro`` names must exist.
DOCS = ("DESIGN.md", "README.md", "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md")


def resolves(name: str) -> bool:
    """Whether a dotted name is a module or an attribute of one."""
    try:
        importlib.import_module(name)
        return True
    except ImportError:
        module, _, attribute = name.rpartition(".")
    try:
        return hasattr(importlib.import_module(module), attribute)
    except ImportError:
        return False


@pytest.fixture(scope="module")
def readme():
    return (ROOT / "README.md").read_text()


@pytest.fixture(scope="module")
def design():
    return (ROOT / "DESIGN.md").read_text()


class TestFilesExist:
    def test_required_documents(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                     "pyproject.toml"):
            assert (ROOT / name).is_file(), name

    def test_examples_mentioned_in_readme_exist(self, readme):
        for match in re.findall(r"`(\w+\.py)`", readme):
            if (ROOT / "examples" / match).exists():
                continue
            # Bench files are referenced the same way.
            assert (ROOT / "benchmarks" / match).exists() or \
                match.startswith("test_ablation_"), match

    def test_bench_files_in_design_index_exist(self, design):
        for match in re.findall(r"benchmarks/(test_\w+\.py)", design):
            assert (ROOT / "benchmarks" / match).exists(), match

    def test_test_files_in_design_exist(self, design):
        for match in re.findall(r"tests/([\w/]+\.py)", design):
            assert (ROOT / "tests" / match).exists(), match


class TestModulesImport:
    @pytest.mark.parametrize("module", [
        "repro", "repro.crypto", "repro.bgp", "repro.core", "repro.mtt",
        "repro.spider", "repro.netreview", "repro.netsim",
        "repro.traces", "repro.faults", "repro.harness",
    ])
    def test_package_imports(self, module):
        importlib.import_module(module)

    @pytest.mark.parametrize("module", [
        "repro.crypto", "repro.bgp", "repro.core", "repro.mtt",
        "repro.spider", "repro.netsim", "repro.traces", "repro.faults",
    ])
    def test_all_exports_resolve(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"

    @pytest.mark.parametrize("doc", DOCS)
    def test_names_in_docs_resolve(self, doc):
        """Every backticked ``repro.*`` name and every name a ``from
        repro… import …`` line imports is a module or an attribute of
        one."""
        text = (ROOT / doc).read_text().replace("\\\n", " ")
        names = set(re.findall(r"`(repro\.[\w.]+)`", text))
        for module, wrapped, imported in re.findall(
                r"^\s*from (repro[\w.]*) import "
                r"(?:\(([^)]*)\)|([\w ,]+))", text, re.M):
            names.update(f"{module}.{name.split()[0]}"
                         for name in (wrapped or imported).split(",")
                         if name.strip())
        assert sorted(name for name in names if not resolves(name)) == []

    def test_verify_skill_drive_snippet_runs(self):
        """The skill's ``python`` block is a recipe, not a sketch: it
        runs as written and every verification comes back clean."""
        text = (ROOT / DOCS[-1]).read_text()
        (snippet,) = re.findall(r"```python\n(.*?)```", text, re.S)
        exec(compile(snippet, DOCS[-1], "exec"), {})


class TestExamplesAreValidPython:
    @pytest.mark.parametrize("path", sorted(
        (ROOT / "examples").glob("*.py")))
    def test_compiles(self, path):
        compile(path.read_text(), str(path), "exec")

    @pytest.mark.parametrize("path", sorted(
        (ROOT / "examples").glob("*.py")))
    def test_has_main_guard_and_docstring(self, path):
        source = path.read_text()
        assert '__main__' in source
        assert source.lstrip().startswith(("#!", '"""'))
