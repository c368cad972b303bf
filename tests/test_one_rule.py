"""The package's one equality rule: only ``DaggerInstance.compare`` calls
``core.within``; and its one refusal: only ``core._refuse`` passes
``residual=`` to an error.

Every equation the package checks is measured by an instance's
``deviation`` and judged by ``compare`` (through ``equals``, ``check``,
``verify_mp`` and ``require_mp``), which returns it as one
``core.Equation`` record: the deviation, the verdict, and the scale and
cond it was judged at.  A failed record is refused by ``_refuse``, which
reads all four, so what a refusal reports is what the instance measured.
A module applying ``within`` to numbers of its own would be a second
equality path, and an error built with a residual of its own a second
refusal path.  The scans read the syntax tree, so docstrings and
comments that name ``within`` or ``residual=`` pass.
"""

import ast
import inspect
import pathlib

import daggermp
from daggermp.core import DaggerInstance, _refuse

SRC = pathlib.Path(daggermp.__file__).parent
RULE = "within"


def rule_uses(source):
    """Line numbers of every reference to within (a call, an attribute
    read or an alias) and of every import of it by name."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        if (
            (isinstance(node, ast.Name) and node.id == RULE)
            or (isinstance(node, ast.Attribute) and node.attr == RULE)
            or (
                isinstance(node, ast.ImportFrom)
                and any(alias.name == RULE for alias in node.names)
            )
        ):
            bad.append(node.lineno)
    return sorted(set(bad))


def test_the_scan_catches_each_form():
    assert rule_uses("ok = within(dev, scale, eq_tol)") == [1]
    assert rule_uses("from .core import within") == [1]
    assert rule_uses("from daggermp.core import check, within as w\nw(d, s, t)") == [1]
    assert rule_uses("from . import core\nok = core.within(d, s, t)") == [2]
    assert rule_uses("rule = core.within") == [1]
    assert rule_uses("check(inst, f, g, InputError, 'within bounds')") == []
    assert rule_uses('"""within(dev, scale, eq_tol)"""\n# within') == []
    assert rule_uses("def within_limits(x):\n    return x") == []


def test_only_compare_applies_the_equality_rule():
    files = sorted(SRC.glob("*.py"))
    found = {f.name: rule_uses(f.read_text(encoding="utf-8")) for f in files}
    core = found.pop("core.py")
    assert {name: lines for name, lines in found.items() if lines} == {}
    lines, start = inspect.getsourcelines(DaggerInstance.compare)
    assert core and all(start <= n < start + len(lines) for n in core)


def residual_passes(source):
    """Line numbers of every call that passes ``residual=``."""
    return sorted({
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and any(k.arg == "residual" for k in node.keywords)
    })


def test_the_residual_scan_catches_each_form():
    assert residual_passes("raise error(what, residual=dev)") == [1]
    assert residual_passes("err = NoMPInverseError(\n    'no', residual=eq.deviation)") == [1]
    assert residual_passes("raise error(what, dev)") == []
    assert residual_passes("def f(message, residual=None):\n    pass") == []
    assert residual_passes('"""error(what, residual=dev)"""\n# residual=dev') == []


def test_only_refuse_passes_a_residual():
    files = sorted(SRC.glob("*.py"))
    found = {f.name: residual_passes(f.read_text(encoding="utf-8")) for f in files}
    core = found.pop("core.py")
    assert {name: lines for name, lines in found.items() if lines} == {}
    lines, start = inspect.getsourcelines(_refuse)
    assert core and all(start <= n < start + len(lines) for n in core)
