"""The library's own rule: no LAPACK factorization, no scipy.

Every factorization in ``src/daggermp`` is written in the package; of
``numpy.linalg`` only ``norm`` may appear.  The scan reads the syntax
tree, so docstrings and comments that name ``numpy.linalg`` pass.
"""

import ast
import pathlib

import daggermp

SRC = pathlib.Path(daggermp.__file__).parent


def _is_linalg(node):
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "linalg"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


def lapack_uses(source):
    """Line numbers of the forbidden references in a module's source."""
    tree = ast.parse(source)
    norms = {
        id(n.value)
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and n.attr == "norm"
    }
    bad = [n.lineno for n in ast.walk(tree) if _is_linalg(n) and id(n) not in norms]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            if name.split(".")[0] == "scipy" or (
                name.startswith("numpy.linalg") and name != "numpy.linalg.norm"
            ):
                bad.append(node.lineno)
    return sorted(set(bad))


def test_the_scan_catches_each_form():
    assert lapack_uses("import numpy as np\nx = np.linalg.norm(a)\n") == []
    assert lapack_uses("np.linalg.svd(a)") == [1]
    assert lapack_uses("la = numpy.linalg") == [1]
    assert lapack_uses("import scipy.linalg") == [1]
    assert lapack_uses("from scipy import linalg") == [1]
    assert lapack_uses("from numpy.linalg import qr") == [1]
    assert lapack_uses("from numpy import linalg") == [1]
    assert lapack_uses("from numpy.linalg import norm") == []


def test_library_uses_no_lapack():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {f.name: lapack_uses(f.read_text(encoding="utf-8")) for f in files}
    assert {name: lines for name, lines in found.items() if lines} == {}
