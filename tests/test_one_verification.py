"""One verification per M-P pair, no SVD for the kernels of gsvd, and
one solve per ``karoubi check``.

``core.require_mp`` certifies a pair that passes: the candidate keeps the
f object, the instance object and its tolerance object it passed for,
and a later call with all three the same returns without measuring.
``verify_mp`` only reports.  ``gsvd_from_mp`` takes the kernels of f and
of f† from the instance's ``split_with_kernel``, which for matrices
splits f f° and f° f and gives their kernels from one pivoted QR each;
polar's positive part reads the SVD that ``pinv`` kept on f°.  No route
stores anything on its input.  The CLI's ``karoubi check``
hands the inverse it reports to ``mp_in_karoubi`` as its base solver.
Measurements of the four identities are counted at ``core._mp_report``,
where each of them runs.
"""

import contextlib
import io
import json

import numpy as np
import pytest

import daggermp as dm
from conftest import random_partial_injection, seeded_product
from daggermp import (
    ComplexMatrix,
    DecompositionError,
    FiniteRelation,
    MatrixInstance,
    PartialInjection,
    PInjInstance,
    RelInstance,
    Tolerance,
    dagger_kernel,
    pinv,
)
from daggermp import _jacobi, cli, core, engine

CERT = "_mp_cert"
INSTANCES = (MatrixInstance, RelInstance, PInjInstance)
EPS = np.finfo(float).eps


def _counted(monkeypatch, owner, name):
    """Wrap owner.name, and its alias in engine or cli if there is one,
    with a call counter; call it through owner."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (owner, engine, cli):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def _require(inst, f, g):
    return core.require_mp(inst, f, g, DecompositionError, "pair")


def test_a_certificate_is_read_only_for_its_own_f_and_instance(monkeypatch):
    f = ComplexMatrix(seeded_product(3, 6, 5, 2))
    g = pinv(f)
    inst = MatrixInstance()
    measured = _counted(monkeypatch, core, "_mp_report")
    assert _require(inst, f, g) is g
    cert = vars(g)[CERT]
    assert cert[0] is f and cert[1] is inst and cert[2] is inst.tolerance
    assert _require(inst, f, g) is g and len(measured) == 1
    twin = ComplexMatrix(f.array)  # equal entries, another object
    _require(inst, twin, g)
    assert len(measured) == 2
    other = MatrixInstance(inst.tolerance)  # the same tolerance, another instance
    _require(other, twin, g)
    assert len(measured) == 3
    _require(other, twin, g)
    assert len(measured) == 3


def test_a_failed_pair_stores_no_certificate(monkeypatch):
    f = ComplexMatrix(seeded_product(4, 5, 4, 2))
    bad = ComplexMatrix(pinv(f).array * 2.0)
    inst = MatrixInstance()
    measured = _counted(monkeypatch, core, "_mp_report")
    residuals = []
    for _ in range(2):
        with pytest.raises(DecompositionError) as err:
            _require(inst, f, bad)
        residuals.append(err.value.residual)
        assert CERT not in vars(bad)
    assert len(measured) == 2
    assert residuals[0] is not None and residuals[0] == residuals[1]


def test_verify_mp_stores_nothing():
    f = ComplexMatrix(seeded_product(5, 4, 6, 3))
    inst = MatrixInstance()
    for g in (pinv(f), ComplexMatrix(pinv(f).array * 2.0)):
        core.verify_mp(inst, f, g)
        assert CERT not in vars(g) and CERT not in vars(f)


@pytest.mark.parametrize("kind", ["rel", "pinj"])
def test_exact_candidates_take_the_same_path(kind, monkeypatch):
    if kind == "rel":
        inst = RelInstance()
        f = FiniteRelation.from_pairs(3, 3, [(0, 0), (1, 0), (2, 1), (2, 2)])
        twin = FiniteRelation(f.src, f.tgt, f.rows)
        g = f.converse()
    else:
        inst = PInjInstance()
        f = random_partial_injection(np.random.default_rng(7), 5, 4)
        twin = PartialInjection(f.src, f.tgt, f.mapping)
        g = f.dagger()
    measured = _counted(monkeypatch, core, "_mp_report")
    core.verify_mp(inst, f, g)
    assert CERT not in vars(g)
    assert _require(inst, f, g) is g and vars(g)[CERT][0] is f
    _require(inst, f, g)
    assert len(measured) == 2
    assert twin == f
    _require(inst, twin, g)
    assert len(measured) == 3


def test_the_corpus_routes_verify_each_pair_once_and_run_one_svd(monkeypatch):
    # The route sequence of one ``corpus`` case on a 6x5 rank-2 input:
    # one SVD, in pinv; polar's positive part reads the factors pinv kept
    # on f°, and gsvd takes its kernels from the QRs that split its
    # projectors.  13 _mp_report calls, as the routes after the first
    # certified (f, f°) skip it, polar's inverse check skips the (h, h°)
    # its constructor proved, and the derived check reads (f°)° = f from
    # the certificate.  Every measurement of the four identities runs in
    # core._mp_report, which verify_mp calls and which the certifying
    # helper and the derived check call with the products they share.
    a = ComplexMatrix(seeded_product(11, 6, 5, 2))
    inst = MatrixInstance(Tolerance(eq_tol=1e-9))
    svds = _counted(monkeypatch, _jacobi, "one_sided_svd")
    measured = _counted(monkeypatch, core, "_mp_report")
    g = dm.pinv(a)
    assert core.verify_mp(inst, a, g).all_hold
    dm.mp_via_gram(inst, a, lambda p: dm.herm_mp(p, eq_tol=1e-9))
    dm.mp_from_gcsvd(inst, dm.gcsvd_from_mp(inst, a, g))
    dm.mp_from_gsvd(inst, dm.gsvd_from_mp(inst, a, g))
    dm.mp_from_polar(inst, dm.polar_from_mp(inst, a, g))
    assert dm.derived_identities_check(inst, a, g).all_hold
    dm.mp_from_iso(inst, *dm.iso_from_mp(inst, a, g))
    assert len(svds) == 1
    assert len(measured) == 13
    assert set(vars(a)) <= {"array", "_norm"}


@pytest.mark.parametrize(
    "shape", [(7, 4, 2), (4, 7, 2), (6, 4, 4), (3, 8, 3), (6, 6, 3), (5, 3, 0)]
)
def test_both_kernels_of_gsvd_come_from_one_svd(shape, monkeypatch):
    # No SVD runs: the kernels of f and of f† come with the splits of
    # f f° and f° f, one pivoted QR per nonzero projector.  Tall, wide,
    # full-rank, square rank-deficient and zero inputs.
    rows, cols, inner = shape
    inst = MatrixInstance()
    f = ComplexMatrix(seeded_product(21, rows, cols, inner))
    g = pinv(f)
    svds = _counted(monkeypatch, _jacobi, "one_sided_svd")
    qrs = _counted(monkeypatch, _jacobi, "_qrcp")
    t = dm.gsvd_from_mp(inst, f, g)
    assert len(svds) == 0
    assert len(qrs) == (2 if inner else 0)  # a zero projector needs no QR
    x, z, y, w = t.dims
    assert (x, z, y, w) == (inner, rows - inner, inner, cols - inner)
    k = ComplexMatrix(np.ascontiguousarray(t.u.array[:, x:].conj().T))
    c = ComplexMatrix(np.ascontiguousarray(t.v.array[y:]))
    assert inst.compare(k @ f, ComplexMatrix.zeros(z, cols), f.norm())[1]
    assert inst.compare(c @ f.dagger(), ComplexMatrix.zeros(w, rows), f.norm())[1]
    for unitary in (t.u, t.v):
        n = unitary.rows
        assert inst.equals(unitary @ unitary.dagger(), ComplexMatrix.identity(n))
        assert inst.equals(unitary.dagger() @ unitary, ComplexMatrix.identity(n))
    assert set(vars(f)) <= {"array", "_norm"}


def test_no_route_stores_anything_on_its_input(tmp_path, monkeypatch):
    # What the package learns about an input lives on what it returns (a
    # norm, the SVD pinv keeps on f°, a certificate), never on the input:
    # a memo there would let a repeated call skip its work.  The dense
    # route sequence, the positivity test, the positive part with and
    # without f°, the rank, the kernel, and the CLI's polar command, which
    # hands inst.mp's f° to polar and so runs one SVD.
    a = ComplexMatrix(seeded_product(12, 7, 5, 3))
    inst = MatrixInstance(Tolerance(eq_tol=1e-9))
    g = pinv(a)
    assert core.verify_mp(inst, a, g).all_hold
    dm.mp_via_gram(inst, a, lambda p: dm.herm_mp(p, eq_tol=1e-9))
    p = ComplexMatrix(a.dagger().array @ a.array)
    assert dm.is_positive(inst, p)
    inst.positive_part(a)
    inst.positive_part(a, g)
    assert dm.numeric_rank(a) == 3
    assert dagger_kernel(a).rows == 4
    assert set(vars(a)) <= {"array", "_norm"} and set(vars(p)) <= {"array", "_norm"}
    seen = []
    polar = dm.decomp.polar_from_mp

    def spy(inst, f, f_mp):
        seen.append(f)
        return polar(inst, f, f_mp)

    monkeypatch.setattr(dm.decomp, "polar_from_mp", spy)
    path = tmp_path / "a.json"
    path.write_text(json.dumps(dm.matrix_to_obj(a)), encoding="utf-8")
    svds = _counted(monkeypatch, _jacobi, "one_sided_svd")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["polar", "--in", str(path)]) == 0
    assert len(seen) == 1 and len(svds) == 1
    assert set(vars(seen[0])) <= {"array", "_norm"}


def _first_entries_real(k, unit_tol):
    """The phase rule of svd on the rows of a kernel: each row's first
    entry of modulus above unit_tol is real and positive, to rounding."""
    for row in k.array:
        first = row[np.abs(row) > unit_tol][0]
        assert first.real > 0.0 and abs(first.imag) <= 4 * EPS * abs(first)


@pytest.mark.parametrize("rank_tol", [None, 1e-9])
def test_a_kernel_follows_the_rank_and_phase_rule_of_svd(rank_tol):
    # At an explicit cutoff the kernel is svd()'s trailing columns of u,
    # byte for byte.  At the default one the SVD skips the null block its
    # QR reveals, so the kernel is another orthonormal basis of the same
    # space, phased by the same rule.
    inst = MatrixInstance()
    for seed, shape in enumerate([(5, 7, 2), (7, 5, 2), (6, 6, 3), (4, 4, 4)]):
        f = ComplexMatrix(seeded_product(30 + seed, *shape))
        res = dm.svd(f, rank_tol=rank_tol)
        k = dagger_kernel(f, rank_tol=rank_tol)
        trailing = res.u.array[:, res.rank:]
        if rank_tol is not None:
            assert k.array.tobytes() == trailing.conj().T.tobytes()
        else:
            z = trailing.shape[1]
            assert k.rows == z
            projector = ComplexMatrix(np.ascontiguousarray(trailing @ trailing.conj().T))
            assert inst.equals(k.dagger() @ k, projector)
            assert inst.equals(k @ k.dagger(), ComplexMatrix.identity(z))
            assert inst.compare(k @ f, ComplexMatrix.zeros(z, f.cols), f.norm())[1]
            _first_entries_real(k, max(f.rows, f.cols) * EPS)
        assert set(vars(f)) <= {"array", "_norm"}
    for rows, cols in [(0, 3), (3, 0), (0, 0)]:
        empty = ComplexMatrix.zeros(rows, cols)
        k = dagger_kernel(empty, rank_tol=rank_tol)
        assert k.array.tobytes() == dm.svd(empty).u.array.conj().T.tobytes()


def test_gsvd_does_not_depend_on_an_earlier_kernel_of_its_input():
    inst = MatrixInstance()
    f = ComplexMatrix(seeded_product(22, 6, 6, 3))
    g = pinv(f)
    before = dm.gsvd_from_mp(inst, f, g).u.array.tobytes()
    dagger_kernel(f)
    dagger_kernel(f.dagger())
    assert dm.gsvd_from_mp(inst, f, g).u.array.tobytes() == before


def test_a_certificate_is_not_read_after_the_tolerance_changes(monkeypatch):
    f = ComplexMatrix(seeded_product(24, 5, 4, 2))
    g = pinv(f)
    inst = MatrixInstance()
    measured = _counted(monkeypatch, core, "_mp_report")
    _require(inst, f, g)
    inst.tolerance = Tolerance(eq_tol=1e-30)
    with pytest.raises(DecompositionError):
        _require(inst, f, g)
    assert len(measured) == 2


def test_a_self_inverse_candidate_stores_no_certificate():
    inst = MatrixInstance()
    e = ComplexMatrix.from_rows([[1, 0], [0, 0]])
    assert engine.mp_of_dagger_idempotent(inst, e) is e
    assert CERT not in vars(e)


def _karoubi_check(tmp_path, obj):
    """Exit code and stdout document of ``daggermp karoubi check`` on obj."""
    path = tmp_path / "f.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["karoubi", "check", "--in", str(path)])
    return code, json.loads(out.getvalue())


def test_karoubi_check_solves_a_matrix_once(tmp_path, monkeypatch):
    # One SVD in pinv; the four identities measured once, for the
    # certificate that iso_from_mp takes and mp_in_karoubi then reads:
    # iso_from_mp refuses a pair that fails them, so the report reads it.
    f = ComplexMatrix(seeded_product(11, 6, 5, 2))
    svds = _counted(monkeypatch, _jacobi, "one_sided_svd")
    measured = _counted(monkeypatch, core, "_mp_report")
    code, doc = _karoubi_check(tmp_path, dm.matrix_to_obj(f))
    assert code == 0
    assert doc["mp_all_hold"] and doc["round_trip_matches"]
    assert doc["karoubi_inverse_matches"]
    assert len(svds) == 1 and len(measured) == 1


def test_karoubi_check_solves_a_relation_once(tmp_path, monkeypatch):
    solves = _counted(monkeypatch, RelInstance, "mp")
    code, doc = _karoubi_check(tmp_path, {"src": 2, "tgt": 3, "pairs": [[0, 1], [1, 2]]})
    assert code == 0 and doc["karoubi_inverse_matches"]
    assert len(solves) == 1


@pytest.mark.parametrize(
    "obj, deviations",
    [
        ({"rows": 2, "cols": 2, "data": [[1, 0], [2, 0], [3, 0], [4, 0]]}, 8),
        ({"src": 3, "tgt": 2, "pairs": [[0, 0], [1, 0], [2, 1]]}, 5),
        ({"src": 3, "tgt": 3, "map": [[0, 1], [2, 0]]}, 8),
    ],
    ids=["matrix", "rel", "pinj"],
)
def test_karoubi_check_measures_its_pair_once(tmp_path, monkeypatch, obj, deviations):
    # The pair's identities once: the four of iso_from_mp, or a relation's
    # zig-zag, whose certificate iso_from_mp reads; then the embedded map's
    # fixed-point check and the three comparisons of the report.
    calls = [_counted(monkeypatch, cls, "deviation") for cls in INSTANCES]
    code, doc = _karoubi_check(tmp_path, obj)
    assert code == 0 and all(doc[key] for key in doc if key != "instance")
    assert sum(map(len, calls)) == deviations
