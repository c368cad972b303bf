"""A splitting is certified in one place: ``core.split``.

The ``split_idempotent`` capability of each instance only builds its
candidate r.  ``core.split`` checks e = e†, r r† = e and r† r = 1 for
the callers that hand a split to the user, and ``decomp._compact`` (the
compact form of ``gcsvd_from_mp``, ``gsvd_from_mp`` and ``rel.gcsvd_rel``)
takes the raw candidate because its compact-form equations certify it.
So the capability is read nowhere else in ``src/``, and no
``split_idempotent`` method, nor any function of its module that it
calls, checks an equation or raises a refusal.  The same holds for
``split_with_kernel``, which splits a projection together with its
kernel for the full form of ``gsvd_from_mp``: only ``decomp._compact``
reads it.  The scans read the syntax tree, so docstrings and comments
that name them pass.
"""

import ast
import pathlib

import daggermp

SRC = pathlib.Path(daggermp.__file__).parent
CAPABILITY = "split_idempotent"
KERNEL_CAPABILITY = "split_with_kernel"
READERS = {("core.py", "split"), ("decomp.py", "_compact")}
CHECKS = {"check", "compare", "equals", "verify_mp", "require_mp"}
REFUSALS = {"PreconditionError", "ConsistencyError"}


def _functions(tree):
    """(qualified name, node) of every function and method, nested ones too."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    out.append((name, child))
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def _reads_capability(node, name=CAPABILITY):
    return (isinstance(node, ast.Attribute) and node.attr == name) or (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "getattr"
        and any(isinstance(a, ast.Constant) and a.value == name for a in node.args)
    )


def capability_readers(source, name=CAPABILITY):
    """Names of the innermost functions (or "<module>") that read the
    capability as an attribute or through getattr."""
    tree = ast.parse(source)
    inner = {}
    for qualified, fn in _functions(tree):  # outer first, so inner ones overwrite
        for node in ast.walk(fn):
            inner[id(node)] = qualified
    readers = {inner.get(id(node), "<module>") for node in ast.walk(tree)
               if _reads_capability(node, name)}
    return sorted(readers)


def _called_name(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _raised_name(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def capability_checks(source, name=CAPABILITY):
    """(method, what) for each equation check or refusal reachable from a
    method of that name through calls to functions of the same module."""
    tree = ast.parse(source)
    top = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    found = []
    for qualified, fn in _functions(tree):
        if fn.name != name:
            continue
        stack, seen = [fn], set()
        while stack:
            body = stack.pop()
            if id(body) in seen:
                continue
            seen.add(id(body))
            for node in ast.walk(body):
                if isinstance(node, ast.Call):
                    called = _called_name(node)
                    if called in CHECKS:
                        found.append((qualified, called))
                    elif isinstance(node.func, ast.Name) and called in top:
                        stack.append(top[called])
                elif isinstance(node, ast.Raise) and node.exc is not None:
                    if _raised_name(node) in REFUSALS:
                        found.append((qualified, _raised_name(node)))
    return sorted(set(found))


def test_the_reader_scan_catches_each_form():
    def reader(body):
        return capability_readers("def f(inst, e):\n    " + body)

    assert reader("return inst.split_idempotent(e)") == ["f"]
    assert reader("split = inst.split_idempotent") == ["f"]
    assert reader("return getattr(inst, 'split_idempotent')(e)") == ["f"]
    assert reader("def g(i):\n        i.split_idempotent(e)") == ["f.g"]
    method = "class A:\n    def g(self):\n        self.split_idempotent"
    assert capability_readers(method) == ["A.g"]
    assert capability_readers("split = inst.split_idempotent") == ["<module>"]
    assert reader("return e") == []
    assert capability_readers("def split_idempotent(self, e):\n    return e") == []
    assert reader('"""inst.split_idempotent(e)"""  # inst.split_idempotent') == []


def test_the_check_scan_catches_each_form():
    def checks(body, before=""):
        method = "class A:\n    def split_idempotent(self, e):\n        "
        return [what for _, what in capability_checks(before + method + body)]

    assert checks("check(self, e, e, E, 'x')") == ["check"]
    assert checks("return self.equals(e, e)") == ["equals"]
    assert checks("raise PreconditionError('x')") == ["PreconditionError"]
    helper = (
        "def helper(e):\n    raise ConsistencyError\n"
        "def build(e):\n    return helper(e)\n"
    )
    assert checks("return build(e)", helper) == ["ConsistencyError"]
    assert checks("raise NumericError('overflow')") == []
    assert checks("return e", "def other(e):\n    check(e, e, e, E, 'x')\n") == []


def _scan(scan):
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for hit in scan(path.read_text(encoding="utf-8")):
            found.setdefault(path.name, []).append(hit)
    return found


def test_only_core_split_and_gcsvd_read_the_capability():
    found = _scan(capability_readers)
    assert {(name, fn) for name, fns in found.items() for fn in fns} == READERS


def test_no_split_capability_checks_an_equation():
    assert _scan(capability_checks) == {}


def test_only_the_compact_form_reads_the_kernel_split_and_it_checks_nothing():
    found = _scan(lambda source: capability_readers(source, KERNEL_CAPABILITY))
    assert found == {"decomp.py": ["_compact"]}
    assert _scan(lambda source: capability_checks(source, KERNEL_CAPABILITY)) == {}
