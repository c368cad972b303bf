"""The package's immutable values and records, none of them a dataclass.

``Tolerance``, ``FiniteRelation``, ``PartialInjection``, ``SplitObject``,
``SplitMorphism``, ``ComplexMatrix`` and the factorization records
``GCSVDTriple``, ``GSVDTriple`` and ``PolarPair`` are plain classes on
the frozen guard ``core._Frozen``; ``MPReport``, ``SVDResult``,
``HermEigResult``, ``DerivedIdentitiesReport`` and ``CompositionReport``
are ``NamedTuple`` records.  Their constructors, messages, reprs, ``==``,
``hash`` and immutability are pinned here as the frozen dataclasses they
replace had them, and so are the caches they carry: a matrix's norm and
the certificates of ``core._certify``.
"""

import dataclasses
import math

import pytest

from daggermp.core import (
    EQ_TOL_DEFAULT,
    InputError,
    MPReport,
    NumericError,
    Tolerance,
    _certified,
    require_mp,
    verify_mp,
)
from daggermp.decomp import (
    GCSVDTriple,
    GSVDTriple,
    PolarPair,
    gcsvd_from_mp,
    gsvd_from_mp,
    polar_from_mp,
)
from daggermp.engine import (
    CompositionReport,
    DerivedIdentitiesReport,
    composition_criteria,
    derived_identities_check,
)
from daggermp.karoubi import SplitMorphism, SplitObject, embed, iso_from_mp, mp_from_iso
from daggermp.matrix import ComplexMatrix, HermEigResult, MatrixInstance, SVDResult, herm_eig, svd
from daggermp.pinj import PartialInjection
from daggermp.rel import FiniteRelation, RelInstance

R = FiniteRelation.from_pairs(3, 2, [(0, 0), (1, 0), (2, 1)])
S = FiniteRelation.from_pairs(2, 2, [(0, 1), (1, 0)])
A = ComplexMatrix.from_rows([[2, 0], [0, 1]])


def _samples():
    """name: (an object of the class, one of its fields)."""
    inst, minst = RelInstance(), MatrixInstance()
    forward, _ = iso_from_mp(inst, R, inst.mp(R))
    return {
        "Tolerance": (Tolerance(1e-3, 1e-9), "eq_tol"),
        "MPReport": (verify_mp(inst, R, R.converse()), "mp1"),
        "FiniteRelation": (R, "rows"),
        "PartialInjection": (PartialInjection(3, 3, (2, None, 0)), "mapping"),
        "SplitObject": (forward.dom, "idempotent"),
        "SplitMorphism": (forward, "f"),
        "ComplexMatrix": (A, "array"),
        "SVDResult": (svd(A), "sigma"),
        "HermEigResult": (herm_eig(A), "q"),
        "GCSVDTriple": (gcsvd_from_mp(inst, R, inst.mp(R)), "r"),
        "GSVDTriple": (gsvd_from_mp(minst, A, minst.mp(A)), "dims"),
        "PolarPair": (polar_from_mp(minst, A, minst.mp(A)), "h_mp"),
        "DerivedIdentitiesReport": (derived_identities_check(inst, R, inst.mp(R)), "gram_inverses"),
        "CompositionReport": (
            composition_criteria(inst, R, inst.mp(R), S, inst.mp(S)), "composite_mp"
        ),
    }


def test_reprs_are_the_dataclass_ones():
    inst = RelInstance()
    assert [repr(x) for x, _ in _samples().values()] == [
        "Tolerance(rank_tol=0.001, eq_tol=1e-09)",
        "MPReport(mp1=True, mp2=True, mp3=True, mp4=True, residuals=(0.0, 0.0, 0.0, 0.0))",
        "FiniteRelation(3, 2, pairs=[(0, 0), (1, 0), (2, 1)])",
        "PartialInjection(3, 3, pairs=[(0, 2), (2, 0)])",
        "SplitObject(base=3)",
        "SplitMorphism(dom=SplitObject(base=3), cod=SplitObject(base=2), "
        "f=FiniteRelation(3, 2, pairs=[(0, 0), (1, 0), (2, 1)]))",
        "ComplexMatrix(2x2)",
        "SVDResult(u=ComplexMatrix(2x2), sigma=(2.0, 1.0), v=ComplexMatrix(2x2), rank=2)",
        "HermEigResult(q=ComplexMatrix(2x2), eigenvalues=(2.0, 1.0))",
        "GCSVDTriple(r=FiniteRelation(3, 2, pairs=[(0, 0), (1, 0), (2, 1)]), "
        "d=FiniteRelation(2, 2, pairs=[(0, 0), (1, 1)]), "
        "s=FiniteRelation(2, 2, pairs=[(0, 0), (1, 1)]), "
        "d_inv=FiniteRelation(2, 2, pairs=[(0, 0), (1, 1)]), "
        "residuals={'coisometry': 0.0, 'isometry': 0.0, 'invertible_left': 0.0, "
        "'invertible_right': 0.0, 'reconstruction': 0.0})",
        "GSVDTriple(u=ComplexMatrix(2x2), d=ComplexMatrix(2x2), v=ComplexMatrix(2x2), "
        "d_inv=ComplexMatrix(2x2), dims=(2, 0, 2, 0), "
        "residuals={'kernel_source': 0.0, 'kernel_target': 0.0, 'reconstruction': 0.0})",
        "PolarPair(u=ComplexMatrix(2x2), h=ComplexMatrix(2x2), h_mp=ComplexMatrix(2x2), "
        "residuals={'square': 0.0, 'partial_isometry': 0.0, 'range_projector': 0.0, "
        "'reconstruction': 0.0})",
        "DerivedIdentitiesReport(double_mp=True, dagger_mp_swap=True, "
        "projector_idempotents=True, gram_inverses=True, projector_alternatives=True, "
        "f_absorption=True, mp_absorption=True, dagger_absorption=True, "
        "self_adjoint_transfer=True, dagger_mp_partial_isometry=True)",
        "CompositionReport(condition_a=True, condition_b=True, condition_c=True, "
        "composite_mp=FiniteRelation(2, 3, pairs=[(0, 2), (1, 0), (1, 1)]), "
        "biconditional_lhs=True, biconditional_rhs=True)",
    ]
    assert repr(Tolerance()) == "Tolerance(rank_tol=None, eq_tol=2.220446049250313e-14)"
    assert repr(Tolerance.exact()) == "Tolerance(rank_tol=0.0, eq_tol=0.0)"
    assert repr(embed(inst, R)) == (
        "SplitMorphism(dom=SplitObject(base=3), cod=SplitObject(base=2), "
        "f=FiniteRelation(3, 2, pairs=[(0, 0), (1, 0), (2, 1)]))"
    )
    assert repr(MPReport(False, True, True, True, (math.inf, 1.0, 0.0, 0.0))) == (
        "MPReport(mp1=False, mp2=True, mp3=True, mp4=True, residuals=(inf, 1.0, 0.0, 0.0))"
    )


@pytest.mark.parametrize("name", list(_samples()))
def test_assignment_and_deletion_raise_attribute_error(name):
    obj, attr = _samples()[name]
    before = getattr(obj, attr)
    with pytest.raises(AttributeError):
        setattr(obj, attr, None)
    with pytest.raises(AttributeError):
        delattr(obj, attr)
    with pytest.raises(AttributeError):
        obj.new_attribute = 1
    assert getattr(obj, attr) is before
    assert not dataclasses.is_dataclass(obj)


def test_the_guard_names_the_field_as_a_frozen_dataclass_did():
    with pytest.raises(AttributeError, match=r"^cannot assign to field 'src'$"):
        R.src = 1
    with pytest.raises(AttributeError, match=r"^cannot delete field 'src'$"):
        del R.src
    with pytest.raises(AttributeError, match=r"^cannot assign to field 'foo'$"):
        Tolerance().foo = 1


def test_values_compare_and_hash_by_their_fields():
    pairs = [
        (
            Tolerance(1e-3, 1e-9), Tolerance(rank_tol=1e-3, eq_tol=1e-9),
            Tolerance(1e-3), (1e-3, 1e-9),
        ),
        (
            R, FiniteRelation(3, 2, (1, 1, 2)),
            FiniteRelation(3, 2, (1, 1, 1)), (3, 2, (1, 1, 2)),
        ),
        (
            PartialInjection(3, 3, (2, None, 0)),
            PartialInjection.from_pairs(3, 3, [(0, 2), (2, 0)]),
            PartialInjection(3, 3, (2, None, 1)), (3, 3, (2, None, 0)),
        ),
        (
            MPReport(True, True, True, True, (0.0,) * 4),
            MPReport(True, True, True, True, (0.0,) * 4),
            MPReport(True, True, True, False, (0.0, 0.0, 0.0, 1.0)),
            (True, True, True, True, (0.0,) * 4),
        ),
    ]
    for a, same, other, fields in pairs:
        assert a == same and not a != same and hash(a) == hash(same)
        assert a != other and not a == other
        assert hash(a) == hash(fields)
    assert Tolerance() == Tolerance(None, EQ_TOL_DEFAULT)
    # Another class with the same fields is not equal.
    assert FiniteRelation(1, 1, (0,)) != PartialInjection(1, 1, (0,))
    assert R != (3, 2, (1, 1, 2)) and Tolerance() != (None, EQ_TOL_DEFAULT)
    assert len({R, FiniteRelation(3, 2, (1, 1, 2)), Tolerance(), Tolerance()}) == 2


def test_morphisms_of_the_split_and_matrix_classes_compare_by_identity():
    inst = RelInstance()
    twins = [
        (A, ComplexMatrix(A.array)),
        (SplitObject(3, R), SplitObject(3, R)),
        (embed(inst, R), embed(inst, R)),
    ]
    for a, b in twins:
        assert a == a and a != b
        assert hash(a) == object.__hash__(a) != hash(b)
    u = svd(A)
    assert u == SVDResult(u.u, u.sigma, u.v, u.rank)
    assert hash(u) == hash((u.u, u.sigma, u.v, u.rank))
    assert u != svd(A)  # a fresh factorization holds other matrix objects
    e = herm_eig(A)
    assert e == HermEigResult(e.q, e.eigenvalues) and hash(e) == hash((e.q, e.eigenvalues))


def test_factorization_records_compare_by_fields_and_do_not_hash():
    # As their frozen dataclasses did: a dict field makes hash a TypeError.
    samples = _samples()
    for name in ("GCSVDTriple", "GSVDTriple", "PolarPair"):
        rec = samples[name][0]
        fields = [getattr(rec, n) for n in rec._fields]
        twin = type(rec)(*fields)
        assert rec == twin and not rec != twin
        assert rec != type(rec)(*fields[:-1], {}) and rec != tuple(fields)
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(rec)
    g = samples["GCSVDTriple"][0]
    assert GCSVDTriple(r=g.r, d=g.d, s=g.s, d_inv=g.d_inv, residuals={}).residuals == {}
    assert g != GSVDTriple(g.r, g.d, g.s, g.d_inv, None, g.residuals)
    p = samples["PolarPair"][0]
    assert PolarPair(u=p.u, h=p.h, h_mp=p.h_mp, residuals=p.residuals) == p


def test_engine_reports_compare_and_hash_as_their_field_tuples():
    samples = _samples()
    for name, cls in (
        ("DerivedIdentitiesReport", DerivedIdentitiesReport),
        ("CompositionReport", CompositionReport),
    ):
        report = samples[name][0]
        fields = tuple(getattr(report, n) for n in cls._fields)
        assert report == cls(*fields) and hash(report) == hash(fields)
        assert report != cls(*fields[:-1], not fields[-1])
    derived = samples["DerivedIdentitiesReport"][0]
    assert derived.all_hold and not derived._replace(f_absorption=False).all_hold
    composed = samples["CompositionReport"][0]
    assert composed.conditions_hold is composed.condition_a is True


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Tolerance(rank_tol=-1.0), "rank_tol must be finite and nonnegative"),
        (lambda: Tolerance(rank_tol=math.nan), "rank_tol must be finite and nonnegative"),
        (lambda: Tolerance(eq_tol=math.inf), "eq_tol must be finite and nonnegative"),
        (lambda: FiniteRelation(2, 1, [1, 0]),
         "rows must be a tuple with one entry per source element"),
        (lambda: FiniteRelation(2, 1, (1,)),
         "rows must be a tuple with one entry per source element"),
        (lambda: FiniteRelation(1, 1, (2,)), "row bitmask out of range for target size"),
        (lambda: FiniteRelation(1, 1, (True,)), "row bitmask out of range for target size"),
        (lambda: FiniteRelation(-1, 1, ()), "sizes must be nonnegative ints, got (-1, 1)"),
        (lambda: PartialInjection(2, 2, [0, 1]),
         "mapping must be a tuple with one entry per source point"),
        (lambda: PartialInjection(1, 2, (2,)), "image 2 out of range for target 2"),
        (lambda: PartialInjection(2, 2, (1, 1)), "target 1 hit twice; map is not injective"),
        (lambda: PartialInjection(1, True, (0,)),
         "sizes must be nonnegative ints, got (1, True)"),
        (lambda: ComplexMatrix([1.0, 2.0]), "matrix must be 2-dimensional, got shape (2,)"),
        (lambda: ComplexMatrix([[math.inf]]), "matrix entries must be finite"),
        (lambda: ComplexMatrix([[True]]),
         "matrix entries must be int, float or complex numbers, got bool"),
    ],
)
def test_bad_arguments_give_the_same_messages(build, message):
    with pytest.raises(InputError) as info:
        build()
    assert str(info.value) == message


def test_constructors_take_their_fields_by_keyword():
    assert FiniteRelation(src=1, tgt=1, rows=(1,)) == FiniteRelation(1, 1, (1,))
    assert PartialInjection(src=1, tgt=1, mapping=(0,)).pairs == [(0, 0)]
    assert ComplexMatrix(array=[[1.0]]).array.tolist() == [[1 + 0j]]
    m = SplitMorphism(dom=SplitObject(base=1, idempotent=None), cod=None, f=None)
    assert m.dom.base == 1 and m.cod is None


def test_the_caches_are_still_stored_and_read(monkeypatch):
    inst = RelInstance()
    conv = inst.mp(R)  # a certified converse
    assert _certified(conv, inst, R, attr="_mp_cert")
    forward, backward = iso_from_mp(inst, R, conv)
    assert _certified(backward, inst, forward)
    calls = []
    measure = RelInstance.deviation
    monkeypatch.setattr(
        RelInstance, "deviation", lambda self, f, g: calls.append(1) or measure(self, f, g)
    )
    assert mp_from_iso(inst, forward, backward) == (R, conv)
    assert calls == []  # read from the certificate
    assert verify_mp(inst, R, conv).all_hold and len(calls) == 4  # the probe counts

    a = ComplexMatrix([[3.0, 4.0]])
    assert "_norm" not in vars(a)
    assert a.norm() == 5.0 and vars(a)["_norm"] == 5.0
    assert vars(a.dagger())["_norm"] == 5.0
    minst = MatrixInstance()
    g = require_mp(minst, a, minst.mp(a), NumericError, "pinv")
    assert _certified(g, minst, a, attr="_mp_cert")
    t = gsvd_from_mp(minst, A, minst.mp(A))  # a constructor certifies its record
    assert _certified(t, minst)
    assert not _certified(GSVDTriple(*(getattr(t, n) for n in t._fields)), minst)
