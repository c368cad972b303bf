"""The instance contract asks only for what the generic code cannot derive.

The overridable capabilities of ``DaggerInstance`` are its methods that
are neither abstract nor the generic equality machinery (``compose``,
``norm``, ``compare``, ``equals``).  Each defaults to raising
``CapabilityError``, and each is read somewhere in ``src/`` outside
``DaggerInstance`` itself.  What the generic code derives is not a hook:
a biproduct's projection is the dagger of its injection, a map is
positive when it is its own positive part, and the full form's kernels have no
hook of their own: each comes from the ``split_with_kernel`` call that
splits its projector.  The scans read the syntax tree, so docstrings
and comments that name a capability pass.
"""

import ast
import inspect
import pathlib

import pytest

import daggermp
from daggermp import (
    CapabilityError, DaggerInstance, MatrixInstance, PInjInstance, RelInstance,
)

SRC = pathlib.Path(daggermp.__file__).parent
CAPABILITIES = {
    "split_idempotent", "split_with_kernel", "positive_part", "add", "direct_sum",
    "injection", "zero", "mp",
}
GENERIC = {"__init__", "compose", "norm", "compare", "equals"}
# The names the package gives an instance where it reads a capability.
INSTANCE_NAMES = {"inst", "self"}


def overridable(cls):
    return {
        name for name, fn in vars(cls).items()
        if inspect.isfunction(fn)
        and not getattr(fn, "__isabstractmethod__", False)
        and name not in GENERIC
    }


def capability_reads(source, names=CAPABILITIES):
    """The names read as an attribute of ``inst`` or ``self``, or through
    getattr, outside the body of class DaggerInstance."""
    tree = ast.parse(source)
    base = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "DaggerInstance"
        for inner in ast.walk(node)
    }
    found = set()
    for node in ast.walk(tree):
        if id(node) in base:
            continue
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in INSTANCE_NAMES
        ):
            found.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            found.add(node.args[1].value)
    return found & names


def test_the_contract_has_exactly_the_underivable_capabilities():
    assert overridable(DaggerInstance) == CAPABILITIES


def test_each_capability_defaults_to_a_capability_error():
    class Bare(DaggerInstance):
        compose2 = dagger = identity = source = target = deviation = None

    inst = Bare(None)
    for name in sorted(CAPABILITIES):
        method = getattr(inst, name)
        args = [None] * len(inspect.signature(method).parameters)
        with pytest.raises(CapabilityError):
            method(*args)


@pytest.mark.parametrize("cls", [MatrixInstance, RelInstance, PInjInstance])
def test_an_instance_defines_only_what_the_contract_names(cls):
    def names(c):
        return {name for name in vars(c) if not name.startswith("__")}

    assert names(cls) <= names(DaggerInstance)


def test_the_read_scan_catches_each_form():
    def reads(body):
        return capability_reads("def f(inst, x):\n    " + body)

    assert reads("return inst.split_with_kernel(x)") == {"split_with_kernel"}
    assert reads("provider = inst.positive_part") == {"positive_part"}
    assert reads("return getattr(inst, 'mp')(x)") == {"mp"}
    assert reads("def g(i):\n        return inst.zero(1, 1)") == {"zero"}
    method = "class MatrixInstance:\n    def g(self, x):\n        return self.add(x, x)"
    assert capability_reads(method) == {"add"}
    base = "class DaggerInstance:\n    def g(self, x):\n        return self.zero(x, x)"
    assert capability_reads(base) == set()
    assert reads('"""inst.split_with_kernel(x)"""  # inst.zero(1, 1)') == set()
    assert reads("seen = set()\n    seen.add(x)") == set()
    assert capability_reads("class A:\n    def add(self, f, g):\n        return f") == set()
    assert reads("return inst.projection((1, 1), 0)") == set()
    assert capability_reads("x = inst.projection", {"projection"}) == {"projection"}


def test_each_capability_is_read_outside_the_contract():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= capability_reads(path.read_text(encoding="utf-8"))
    assert found == CAPABILITIES
