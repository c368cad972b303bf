"""What importing daggermp loads: the lazy export table, and the exact
instances' commands that run without numpy.

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


@pytest.mark.parametrize("name", list(EXACT_COMMANDS))
def test_exact_commands_never_load_numpy(tmp_path, name):
    argv = _argv(tmp_path, *EXACT_COMMANDS[name])
    code, out, modules = _imported(_CLI, *argv)
    assert code == 0 and out
    assert "numpy" not in modules
    assert "daggermp.matrix" not in modules
    # The same bytes and exit code as in this process, where all is loaded.
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        expected = main(argv)
    assert (code, out) == (expected, buf.getvalue())


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
