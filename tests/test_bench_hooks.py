"""The benchmark's tracer hooks private names of the package by path.

``perfbench/tracer.py`` lists in ``EXTRA_HOOKS`` the private helpers and
methods that its per-layer metrics read.  A hook whose path no longer
resolves makes its metric read null in a traced run, and nothing else
fails; so every path is resolved here.  The file is read as a syntax
tree, not imported.
"""

import ast
import importlib
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def extra_hooks():
    """The (module, attribute path) pairs of the EXTRA_HOOKS tuple."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "EXTRA_HOOKS" for t in node.targets
        ):
            return [(e.elts[0].value, e.elts[1].value) for e in node.value.elts]
    raise AssertionError("perfbench/tracer.py defines no EXTRA_HOOKS")


def test_every_extra_hook_of_the_tracer_resolves_in_the_package():
    hooks = extra_hooks()
    assert hooks
    for module, path in hooks:
        owner = importlib.import_module(f"daggermp.{module}")
        for part in path.split("."):
            assert hasattr(owner, part), f"daggermp.{module}.{path}"
            owner = getattr(owner, part)
        assert callable(owner), f"daggermp.{module}.{path}"
