"""The public surface: the top-level exports and every name the demos import."""

import ast
import importlib
from pathlib import Path

import pytest

import sara

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def sara_imports(path: Path):
    """(module, name) for each ``from sara... import name`` in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sara":
            for alias in node.names:
                yield node.module, alias.name


def test_top_level_exports():
    assert sorted(sara.__all__) == ["SaraConfig", "SaraError", "run_ablation", "run_select"]
    for name in sara.__all__:
        assert getattr(sara, name) is not None
    assert isinstance(sara.__version__, str)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    imports = list(sara_imports(demo))
    assert imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
