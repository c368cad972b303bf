"""No equation on morphisms is decided by ``==``.

Whether two morphisms agree is the instance's question: its
``deviation`` measures them and ``compare`` judges the measurement (see
``tests/test_one_rule.py``), so a refusal can carry the residual.  A
``==`` or ``!=`` on a composite, a converse or a dagger would be a
second rule, one that reports no residual.  The scan reads the syntax
tree: any comparison with an operand that calls ``compose``,
``compose2``, ``converse`` or ``dagger`` (as a method or a function) is
flagged.  Comparing sizes, tuples of rows or maps inside an instance's
own ``deviation`` is not flagged.
"""

import ast
import pathlib

import daggermp

SRC = pathlib.Path(daggermp.__file__).parent
MORPHISM_CALLS = {"compose", "compose2", "converse", "dagger"}


def _is_morphism_call(node):
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name in MORPHISM_CALLS


def morphism_equalities(source):
    """Line numbers of every ``==``/``!=`` with an operand that calls
    compose, compose2, converse or dagger."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            continue
        if any(_is_morphism_call(x) for x in [node.left, *node.comparators]):
            bad.append(node.lineno)
    return sorted(set(bad))


def test_the_scan_catches_each_form():
    assert morphism_equalities("ok = r.compose(c).compose(r) == r") == [1]
    assert morphism_equalities("ok = f != f.dagger()") == [1]
    assert morphism_equalities("ok = inst.compose2(f, g) == h") == [1]
    assert morphism_equalities("ok = compose(inst, f, g) == h") == [1]
    assert morphism_equalities("ok = r == r.converse()") == [1]
    assert morphism_equalities("ok = a == b == p.compose(q)") == [1]
    assert morphism_equalities("x = 1\nok = (\n  p.compose(q)\n  == q.compose(p)\n)") == [3]
    assert morphism_equalities("ok = inst.equals(p.compose(q), q)") == []
    assert morphism_equalities("ok = f.rows == g.rows") == []
    assert morphism_equalities("ok = f.src != g.tgt") == []
    assert morphism_equalities("ok = f.compose(g) is h") == []
    assert morphism_equalities('"""r.compose(c) == r"""\n# f.dagger() == f') == []


def test_no_morphism_equation_is_decided_by_eq():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {f.name: morphism_equalities(f.read_text(encoding="utf-8")) for f in files}
    assert {name: lines for name, lines in found.items() if lines} == {}
