"""What importing daggermp loads: the lazy export table, the exact
instances' commands that run without numpy, a package that never
imports ``dataclasses``, and the CLI-path commands that do not load
``decomp``.

The subprocess checks start a fresh interpreter that lists
``sys.modules`` on exit, so they see what a user's ``python -m
daggermp.cli`` loads, with nothing imported ahead of it.
"""

import ast
import contextlib
import importlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import daggermp
from daggermp.cli import main

SRC = pathlib.Path(daggermp.__file__).parent
NUMPY_MODULES = {"_jacobi.py", "matrix.py"}


def imports_numpy(source):
    """True if any import statement in source, function bodies included,
    names numpy or one of its submodules."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "numpy" for name in names):
            return True
    return False


def test_the_import_scan_catches_each_form():
    assert imports_numpy("import numpy as np")
    assert imports_numpy("from numpy import zeros")
    assert imports_numpy("import numpy.linalg")
    assert imports_numpy("try:\n    import numpy\nexcept ImportError:\n    pass")
    assert imports_numpy("class A:\n    import numpy")
    assert imports_numpy("def f():\n    import numpy as np")
    assert imports_numpy("def f():\n    def g():\n        from numpy import zeros")
    assert imports_numpy("class A:\n    def m(self):\n        import numpy")
    assert not imports_numpy("from .matrix import pinv")
    assert not imports_numpy("def f():\n    from .matrix import pinv")
    assert not imports_numpy("import numbers")


def test_only_the_matrix_stack_imports_numpy():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {f.name for f in files if imports_numpy(f.read_text(encoding="utf-8"))}
    assert found == NUMPY_MODULES


# ``dataclasses`` pulls in inspect, ast and dis: about 10 ms of a CLI
# process that numpy does not already pay.  No module imports it.


def imports(source):
    """(dotted name, line, innermost enclosing function or None) for each
    module or name an import statement in source binds, relative ones
    resolved in the package: ``from .decomp import f`` gives
    ``daggermp.decomp`` and ``daggermp.decomp.f``."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((a.name, child.lineno, func) for a in child.names)
            elif isinstance(child, ast.ImportFrom):
                base = (("daggermp." if child.level else "") + (child.module or "")).rstrip(".")
                found.append((base, child.lineno, func))
                found.extend((f"{base}.{a.name}", child.lineno, func) for a in child.names)
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


def lean_path_violations(name, source):
    """Lines of source, the module file name, that break the lean path's
    rule: any import of dataclasses, and in rel.py an import of decomp
    outside gcsvd_rel."""
    bad = set()
    for dotted, line, func in imports(source):
        if dotted.split(".")[0] == "dataclasses":
            bad.add(line)
        if (
            name == "rel.py"
            and (dotted + ".").startswith("daggermp.decomp.")
            and func != "gcsvd_rel"
        ):
            bad.add(line)
    return sorted(bad)


def test_the_lean_path_scan_catches_each_form():
    assert lean_path_violations("core.py", "from dataclasses import dataclass") == [1]
    assert lean_path_violations("core.py", "import dataclasses") == [1]
    assert lean_path_violations("cli.py", "def f():\n    import dataclasses as d") == [2]
    assert lean_path_violations("rel.py", "from .decomp import gcsvd_from_mp") == [1]
    assert lean_path_violations("rel.py", "from . import decomp") == [1]
    assert lean_path_violations("rel.py", "import daggermp.decomp") == [1]
    assert lean_path_violations("rel.py", "def f():\n    from .decomp import g") == [2]
    assert lean_path_violations("rel.py", "def gcsvd_rel():\n    from .decomp import g") == []
    assert lean_path_violations(
        "rel.py", "def gcsvd_rel():\n    def h():\n        from .decomp import g"
    ) == [3]
    assert lean_path_violations("cli.py", "def f():\n    from .decomp import g") == []
    assert lean_path_violations("rel.py", "from .core import split, decomposition") == []
    assert lean_path_violations("rel.py", "from .decomposer import g") == []
    assert lean_path_violations("core.py", '"""from dataclasses import dataclass"""') == []


def test_no_module_imports_dataclasses_and_rel_loads_decomp_on_demand():
    files = sorted(SRC.glob("*.py"))
    assert {"decomp.py", "engine.py", "rel.py"} <= {f.name for f in files}
    found = {f.name: lean_path_violations(f.name, f.read_text(encoding="utf-8")) for f in files}
    assert {name: lines for name, lines in found.items() if lines} == {}


# Prints the names in sys.modules as the last line of stderr on exit.
_LIST_MODULES = (
    "import atexit, json, sys\n"
    "atexit.register(lambda: print(json.dumps(sorted(sys.modules)), file=sys.stderr))\n"
)
# What ``python -m daggermp.cli ARGS`` runs.
_CLI = "import runpy\nrunpy.run_module('daggermp.cli', run_name='__main__', alter_sys=True)\n"


def _imported(code, *args):
    """Run code in a fresh python with args; (exit code, stdout, module names)."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c", _LIST_MODULES + code, *args],
        capture_output=True, text=True, env=env, timeout=60,
    )
    return proc.returncode, proc.stdout, set(json.loads(proc.stderr.splitlines()[-1]))


def test_bare_import_loads_no_submodule_and_no_numpy():
    code, _, modules = _imported("import daggermp")
    assert code == 0
    assert "daggermp" in modules
    assert "numpy" not in modules
    assert not {m for m in modules if m.startswith("daggermp.")}


INPUTS = {
    "r": {"src": 3, "tgt": 2, "pairs": [[0, 0], [1, 0], [2, 1]]},
    "rc": {"src": 2, "tgt": 3, "pairs": [[0, 0], [0, 1], [1, 2]]},
    "e": {"src": 2, "tgt": 2, "pairs": [[0, 0], [0, 1], [1, 0], [1, 1]]},
    "f": {"src": 3, "tgt": 3, "map": [[0, 2], [2, 0]]},
    "g": {"src": 3, "tgt": 3, "map": [[1, 1]]},
    "a": {"rows": 1, "cols": 1, "data": [[2.0, 0.0]]},
    "ai": {"rows": 1, "cols": 1, "data": [[0.5, 0.0]]},
}

# Commands on relations and partial injections, with their input keys.
EXACT_COMMANDS = {
    "rel-mp": ("rel mp", "r"),
    "rel-oracle": ("rel oracle", "r"),
    "rel-difunctional": ("rel difunctional", "r"),
    "rel-split-per": ("rel split-per", "e"),
    "rel-gcsvd": ("rel gcsvd", "r"),
    "pinj-verify": ("pinj verify", "f", "g"),
    "verify-mp-relations": ("verify-mp", "r", "rc"),
    "pinv-relation": ("pinv", "r"),
    "split-idem-relation": ("split-idem", "e"),
    "gcsvd-relation": ("gcsvd", "r"),
    "pinv-pinj": ("pinv", "f"),
    "karoubi-check-relation": ("karoubi check", "r"),
    "karoubi-check-pinj": ("karoubi check", "f"),
}


def _argv(tmp_path, command, *keys):
    argv = command.split()
    for key in keys:
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(INPUTS[key]), encoding="utf-8")
        argv += ["--in", str(path)]
    return argv


def _cli_modules(tmp_path, command, *keys):
    """(exit code, stdout, module names) of the command in a fresh
    python, whose code and stdout are those of this process, where all
    is loaded."""
    argv = _argv(tmp_path, command, *keys)
    code, out, modules = _imported(_CLI, *argv)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        expected = main(argv)
    assert (code, out) == (expected, buf.getvalue())
    return code, out, modules


@pytest.mark.parametrize("name", list(EXACT_COMMANDS))
def test_exact_commands_never_load_numpy(tmp_path, name):
    code, out, modules = _cli_modules(tmp_path, *EXACT_COMMANDS[name])
    assert code == 0 and out
    assert "numpy" not in modules
    assert "daggermp.matrix" not in modules


# Commands and what each must not load: no command loads a dataclass,
# and those that need no factorization leave decomp alone.  numpy
# imports inspect itself, so a matrix command is held to the others.
UNLOADED = {"dataclasses", "inspect", "daggermp.decomp"}
LEAN_COMMANDS = {
    "rel-oracle": (("rel oracle", "r"), UNLOADED),
    "rel-mp": (("rel mp", "r"), UNLOADED),
    "pinj-verify": (("pinj verify", "f", "g"), UNLOADED),
    "karoubi-check-relation": (("karoubi check", "r"), UNLOADED),
    "pinv-matrix": (("pinv", "a"), UNLOADED - {"inspect"}),
    "verify-mp-matrix": (("verify-mp", "a", "ai"), UNLOADED - {"inspect"}),
    "gcsvd-matrix": (("gcsvd", "a"), {"dataclasses"}),
    "gsvd-matrix": (("gsvd", "a"), {"dataclasses"}),
    "polar-matrix": (("polar", "a"), {"dataclasses"}),
}


@pytest.mark.parametrize("name", list(LEAN_COMMANDS))
def test_cli_commands_load_no_dataclasses_and_no_decomp(tmp_path, name):
    command, unloaded = LEAN_COMMANDS[name]
    code, out, modules = _cli_modules(tmp_path, *command)
    assert code == 0 and out
    assert modules & unloaded == set()


def test_rel_gcsvd_loads_decomp_on_demand(tmp_path):
    code, out, modules = _cli_modules(tmp_path, "rel gcsvd", "r")
    assert "daggermp.decomp" in modules
    assert (code, out) == (0, (
        '{"r": {"src": 3, "tgt": 2, "pairs": [[0, 0], [1, 0], [2, 1]]}, '
        '"d": {"src": 2, "tgt": 2, "pairs": [[0, 0], [1, 1]]}, '
        '"s": {"src": 2, "tgt": 2, "pairs": [[0, 0], [1, 1]]}}\n'
    ))


def test_a_matrix_command_loads_the_matrix_stack(tmp_path):
    # The probe does see numpy when a command needs it.
    code, out, modules = _imported(_CLI, *_argv(tmp_path, "pinv", "a"))
    assert code == 0 and json.loads(out)["data"] == [[0.5, 0.0]]
    assert {"numpy", "daggermp.matrix", "daggermp._jacobi"} <= modules


def test_every_export_is_its_home_module_object():
    assert len(daggermp.__all__) == len(set(daggermp.__all__)) == 83
    for name in daggermp.__all__:
        obj = getattr(daggermp, name)
        home = obj.__module__
        assert home.startswith("daggermp.") and home.count(".") == 1, name
        assert getattr(importlib.import_module(home), name) is obj, name


def test_dir_lists_every_export_before_any_is_read():
    code, out, modules = _imported(
        "import daggermp; print(sorted(set(daggermp.__all__) - set(dir(daggermp))))"
    )
    assert code == 0 and out == "[]\n"
    assert "numpy" not in modules


def test_star_import_binds_all_exports():
    namespace = {}
    exec("from daggermp import *", namespace)
    assert set(daggermp.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(daggermp, name) for name in daggermp.__all__)


def test_submodules_resolve_after_a_bare_import():
    code, out, modules = _imported(
        "import daggermp; print(daggermp.rel.__name__, daggermp.matrix.__name__, "
        "daggermp.rel._candidate_grid.__name__)",
    )
    assert code == 0
    assert out.split() == ["daggermp.rel", "daggermp.matrix", "_candidate_grid"]


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        daggermp.no_such_name
    assert not hasattr(daggermp, "Numpy")
