"""The two constructors of each morphism type.

``ComplexMatrix(...)``, ``FiniteRelation(...)``, ``PartialInjection(...)``
and their ``from_rows`` / ``from_pairs`` validate outside input and raise
InputError; ``identity``, ``zeros``, ``empty`` and ``full`` check only
their sizes.  Every morphism the package builds is built without the
full check: a matrix by ``matrix._computed`` (which reports a non-finite
entry as the overflow it must be, NumericError) or ``matrix._wrap``, a
relation by ``rel._relation``, a partial injection by
``pinj._injection``.  The scan keeps computed results from drifting back
to the public constructors; the runtime checks see the same from
outside.
"""

import ast
import pathlib

import numpy as np
import pytest

import daggermp
from daggermp import (
    ComplexMatrix,
    MatrixInstance,
    biproduct_injection,
    biproduct_projection,
    dagger_kernel,
    direct_sum,
    gsvd_from_mp,
    herm_eig,
    herm_mp,
    matrix_from_obj,
    matrix_to_obj,
    mp_via_gram,
    pinv,
    polar_from_mp,
    split_dagger_idempotent,
    svd,
)

SRC = pathlib.Path(daggermp.__file__).parent


MORPHISMS = {"ComplexMatrix", "FiniteRelation", "PartialInjection"}


def public_constructor_calls(source):
    """The enclosing function of each call of a morphism class, and of each
    cls(...) call inside one; "<module>" outside any function."""
    found = []

    def visit(node, func, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, func, child.name in MORPHISMS)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name, in_class)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                if name in MORPHISMS or (in_class and name == "cls"):
                    found.append(func)
            visit(child, func, in_class)

    visit(ast.parse(source), "<module>", False)
    return found


def test_the_constructor_scan_catches_each_form():
    scan = public_constructor_calls
    assert scan("def f():\n    return ComplexMatrix(a)") == ["f"]
    assert scan("def f():\n    return dm.ComplexMatrix(a)") == ["f"]
    assert scan("x = g(h(ComplexMatrix(a)))") == ["<module>"]
    assert scan("def f():\n    def g():\n        return ComplexMatrix(a)") == ["g"]
    assert scan("class ComplexMatrix:\n    def zeros(cls):\n        return cls(z)") == ["zeros"]
    assert scan("class Tolerance:\n    def exact(cls):\n        return cls(0)") == []
    assert scan("def f():\n    return _computed(a)") == []
    assert scan("def f():\n    return FiniteRelation(1, 1, (1,))") == ["f"]
    assert scan("def f():\n    return pinj.PartialInjection(1, 1, (0,))") == ["f"]
    assert scan("class FiniteRelation:\n    def full(cls):\n        return cls(1, 1, (1,))") == ["full"]
    assert scan("class PartialInjection:\n    def identity(cls, n):\n        return cls(n)") == ["identity"]
    assert scan("def f():\n    return _relation(1, 1, (1,)), _injection(1, 1, (0,))") == []
    assert scan("def f():\n    return FiniteRelation.identity(2)") == []


def test_only_the_input_boundary_calls_the_public_constructor():
    calls = {}
    for path in sorted(SRC.glob("*.py")):
        for func in public_constructor_calls(path.read_text(encoding="utf-8")):
            calls.setdefault(func, []).append(path.name)
    assert calls == {
        "from_rows": ["matrix.py"],
        "matrix_from_obj": ["matrix.py"],
        "from_pairs": ["pinj.py", "rel.py"],
    }


def _routes(a):
    """Computed matrices from every constructor path of the matrix module."""
    inst = MatrixInstance()
    p = a @ a.dagger()
    res, eig = svd(a), herm_eig(p)
    g = pinv(a)
    gsvd = gsvd_from_mp(inst, a, g)
    polar = polar_from_mp(inst, a, g)
    e = ComplexMatrix.from_rows([[1, 0], [0, 0]])
    return [
        a.dagger(), p, g, res.u, res.v, res.sigma_matrix(), res.reconstruct(),
        eig.q, eig.reconstruct(), herm_mp(p), *inst.sqrt_positive(p),
        inst.add(a, a), dagger_kernel(a), direct_sum(a, a),
        biproduct_injection((1, 2), 1), biproduct_projection((1, 2), 1),
        ComplexMatrix.identity(2), ComplexMatrix.zeros(1, 2),
        split_dagger_idempotent(e), mp_via_gram(inst, a, herm_mp),
        gsvd.u, gsvd.d, gsvd.v, polar.u, polar.h,
    ]


def test_computed_matrices_are_read_only():
    a = ComplexMatrix.from_rows([[1, 2j, 0], [3, 4, 1j]])
    for m in _routes(a):
        assert type(m) is ComplexMatrix and m.array.dtype == np.complex128
        with pytest.raises(ValueError):
            m.array[0, 0] = 7.0


def test_computing_validates_no_input(monkeypatch):
    a = matrix_from_obj(matrix_to_obj(ComplexMatrix.from_rows([[1, 2j, 0], [3, 4, 1j]])))
    seen = []
    validate = ComplexMatrix.__post_init__

    def counted(self):
        seen.append(self.array.shape)
        validate(self)

    monkeypatch.setattr(ComplexMatrix, "__post_init__", counted)
    _routes(a)
    assert seen == [(2, 2)]  # the idempotent read by from_rows
