"""Each equation is measured once per call.

The factorization constructors certify the records they return:
``gcsvd_from_mp``, ``gsvd_from_mp`` and ``polar_from_mp`` store
``(inst, inst.tolerance)`` on their record, and ``iso_from_mp`` stores
``(forward, inst, inst.tolerance)`` on its backward morphism.  A consumer
handed a record certified for the same instance object and tolerance
object skips the record's own equations; any other record (hand-built,
rebuilt by its constructor, another instance, a reassigned tolerance) is
measured in full and meets the same verdict.  ``verify_mp`` of a pair
(f, f) forms f f and (f f) f once, and ``derived_identities_check``
reads (f°)° = f from the certificate, as ``verify_mp(f°, f)`` measures
the four equations of ``verify_mp(f, f°)`` swapped.  At eq_tol 0 the
check measures only e e = e of the projections e = f f° and f° f, and
a pair with f° = f† (an inverse category's) has its other repeats read
from the certificate too.  ``core._mp_projections`` hands the compact
form, the derived check and ``iso_from_mp`` the projections f f° and
f° f, formed once: the products an uncertified pair is measured with;
``polar_from_mp`` measures (h, h°) with them and compares u† u with the
h h° it gets.  ``RelInstance.mp`` certifies the converse it returns.
"""

import contextlib
import io
import json

import numpy as np
import pytest

import daggermp as dm
from conftest import (
    all_partial_injections,
    all_relations,
    random_partial_injection,
    seeded_product,
    uniform_complex,
)
from daggermp import (
    ComplexMatrix,
    DaggerError,
    FiniteRelation,
    MatrixInstance,
    PInjInstance,
    RelInstance,
    Tolerance,
    core,
    pinv,
)
from daggermp import cli
from daggermp.karoubi import SplitMorphism
from daggermp.rel import is_difunctional, rel_to_obj

GUARD_SHAPES = [(6, 5, 2), (5, 7, 2), (6, 6, 3)]


def _hex(residuals):
    return [r.hex() for r in residuals]


def _swapped(report):
    """The verdicts and residuals of a report with f and g exchanged."""
    r1, r2, r3, r4 = report.residuals
    return (report.mp2, report.mp1, report.mp4, report.mp3), _hex((r2, r1, r4, r3))


def _as_swapped(report):
    return (report.mp1, report.mp2, report.mp3, report.mp4), _hex(report.residuals)


def _corpus_pairs():
    """pinv and a candidate off by a factor of 2 on every corpus shape:
    1-8 per side, once full rank and once of rank min(rows, cols) // 2."""
    rng = np.random.default_rng(5)
    for n in range(1, 9):
        for m in range(1, 9):
            for k in (min(n, m), min(n, m) // 2):
                f = ComplexMatrix(uniform_complex(rng, n, k) @ uniform_complex(rng, k, m))
                g = pinv(f)
                yield f, g
                yield f, ComplexMatrix(g.array * 2.0)


def test_swapping_the_pair_swaps_the_residuals_byte_for_byte():
    inst = MatrixInstance(Tolerance(eq_tol=1e-9))
    for f, g in _corpus_pairs():
        assert _as_swapped(core.verify_mp(inst, g, f)) == _swapped(core.verify_mp(inst, f, g))


def test_swapping_an_exact_pair_swaps_the_residuals():
    rel, pinj = RelInstance(), PInjInstance()
    full = FiniteRelation(3, 3, (7, 7, 7))
    difunctional = 0
    for r in all_relations(3, 3):
        g = dm.mp_inverse_rel(r)
        if g is None:
            continue
        difunctional += 1
        for cand in (g, full):
            assert _as_swapped(core.verify_mp(rel, cand, r)) == _swapped(
                core.verify_mp(rel, r, cand)
            )
    assert difunctional == 128
    rng = np.random.default_rng(9)
    for src in range(1, 5):
        for tgt in range(1, 5):
            for f in all_partial_injections(src, tgt):
                for g in (f.dagger(), random_partial_injection(rng, tgt, src)):
                    assert _as_swapped(core.verify_mp(pinj, g, f)) == _swapped(
                        core.verify_mp(pinj, f, g)
                    )


def _count_products(monkeypatch, cls):
    """The operands of each cls.compose2 call, and one entry a cls.deviation call."""
    calls = []
    original = cls.compose2

    def counted(self, f, g):
        calls.append((f, g))
        return original(self, f, g)

    monkeypatch.setattr(cls, "compose2", counted)
    return calls, _count_deviations(monkeypatch, cls)


@pytest.mark.parametrize("seed", [0, 1])
def test_a_self_pair_forms_two_products(seed, monkeypatch):
    inst = MatrixInstance()
    projector = ComplexMatrix(seeded_product(seed, 5, 5, 2))
    projector = pinv(projector) @ projector  # a dagger idempotent, to rounding
    square = ComplexMatrix(seeded_product(seed, 4, 4, 4))  # not its own inverse
    for e in (projector, square):
        twin = ComplexMatrix(e.array)  # the same entries, another object
        full = core.verify_mp(inst, e, twin)
        products, deviations = _count_products(monkeypatch, MatrixInstance)
        report = core.verify_mp(inst, e, e)
        assert len(products) == 2 and len(deviations) == 2
        monkeypatch.undo()
        assert report.mp1 == report.mp2 and report.mp3 == report.mp4
        r1, r2, r3, r4 = report.residuals
        assert r1.hex() == r2.hex() and r3.hex() == r4.hex()
        assert _as_swapped(report) == _as_swapped(full)


def _idempotent_then_mp(inst, e):
    """mp_of_dagger_idempotent as two public checks: the rule, then require_mp."""
    core.require_dagger_idempotent(inst, e)
    return core.require_mp(
        inst, e, e, dm.ConsistencyError,
        "dagger idempotent constructor produced a candidate failing the axioms",
    )


@pytest.mark.parametrize("seed", [0, 1])
def test_the_inverse_of_a_dagger_idempotent_forms_e_e_once(seed, monkeypatch):
    projector = ComplexMatrix(seeded_product(seed, 5, 5, 2))
    projector = pinv(projector) @ projector  # a dagger idempotent, to rounding
    products, deviations = _count_products(monkeypatch, MatrixInstance)
    assert dm.mp_of_dagger_idempotent(MatrixInstance(), projector) is projector
    monkeypatch.undo()
    # e e, which the rule and MP1 share, and (e e) e; e = e†, e e = e, MP1, MP3
    assert len(products) == 2 and len(deviations) == 4
    square = ComplexMatrix(seeded_product(seed, 4, 4, 4))  # not idempotent
    for eq_tol in (1e-9, core.EQ_TOL_DEFAULT, 1e-17, 0.0):
        inst = MatrixInstance(Tolerance(eq_tol=eq_tol))
        for e in (projector, _perturbed(projector), square):
            got = _outcome(lambda: dm.mp_of_dagger_idempotent(inst, e))
            assert got == _outcome(lambda: _idempotent_then_mp(inst, e)), (eq_tol, e)


def _record_equations(monkeypatch, cls):
    """Every (lhs bytes, rhs bytes, scale, cond) that cls.compare measures."""
    seen = []
    original = cls.compare

    def recorded(self, f, g, scale=None, cond=1.0):
        resolved = max(self.norm(f), self.norm(g)) if scale is None else scale
        seen.append((
            f.array.shape, f.array.tobytes(), g.array.shape, g.array.tobytes(),
            resolved, cond,
        ))
        return original(self, f, g, scale, cond)

    monkeypatch.setattr(cls, "compare", recorded)
    return seen


ROUTES = {
    "gcsvd": lambda inst, a, g: dm.mp_from_gcsvd(inst, dm.gcsvd_from_mp(inst, a, g)),
    "gsvd": lambda inst, a, g: dm.mp_from_gsvd(inst, dm.gsvd_from_mp(inst, a, g)),
    "polar": lambda inst, a, g: dm.mp_from_polar(inst, dm.polar_from_mp(inst, a, g)),
    "iso": lambda inst, a, g: dm.mp_from_iso(inst, *dm.iso_from_mp(inst, a, g)),
    "gram": lambda inst, a, g: dm.mp_via_gram(
        inst, a, lambda p: dm.herm_mp(p, eq_tol=inst.tolerance.eq_tol)
    ),
    "derived": dm.derived_identities_check,
    "induced": lambda inst, a, g: dm.mp_from_gcsvd(
        inst, dm.induced_gcsvd(inst, dm.gsvd_from_mp(inst, a, g))
    ),
}


@pytest.mark.parametrize("shape", GUARD_SHAPES)
@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("certified_first", [False, True])
def test_no_route_measures_an_equation_twice(shape, route, certified_first, monkeypatch):
    a = ComplexMatrix(seeded_product(51, *shape))
    inst = MatrixInstance(Tolerance(eq_tol=1e-9))
    g = pinv(a)
    if certified_first:  # as in a corpus case, where an earlier route certified (a, g)
        core.require_mp(inst, a, g, DaggerError, "pair")
    seen = _record_equations(monkeypatch, MatrixInstance)
    ROUTES[route](inst, a, g)
    assert len(set(seen)) == len(seen)


def _count_deviations(monkeypatch, cls):
    calls = []
    original = cls.deviation

    def counted(self, f, g):
        calls.append(1)
        return original(self, f, g)

    monkeypatch.setattr(cls, "deviation", counted)
    return calls


def _outcome(fn):
    """The returned matrix's bytes, or the error's type, message and residual."""
    try:
        out = fn()
    except DaggerError as err:
        return type(err), str(err), err.residual
    return out.array.tobytes()


def _perturbed(m):
    return ComplexMatrix(m.array * (1.0 + 1e-6))


def _rebuilt(rec, **changes):
    """rec's fields, with changes, through its own constructor: no certificate."""
    return type(rec)(**{**{n: getattr(rec, n) for n in rec._fields}, **changes})


RECORDS = {
    "gcsvd": (dm.gcsvd_from_mp, dm.mp_from_gcsvd, "r"),
    "gsvd": (dm.gsvd_from_mp, dm.mp_from_gsvd, "u"),
    "induced": (dm.gsvd_from_mp, lambda inst, t: dm.induced_gcsvd(inst, t).r, "v"),
    "polar": (dm.polar_from_mp, dm.mp_from_polar, "u"),
}


@pytest.mark.parametrize("kind", sorted(RECORDS))
def test_a_record_is_measured_unless_certified_for_the_instance(kind, monkeypatch):
    build, consume, factor = RECORDS[kind]
    a = ComplexMatrix(seeded_product(52, 6, 5, 2))
    inst = MatrixInstance(Tolerance(eq_tol=1e-9))
    rec = build(inst, a, pinv(a))
    twin = _rebuilt(rec)  # the same fields, no certificate
    deviations = _count_deviations(monkeypatch, MatrixInstance)

    def measured(i, t):
        deviations.clear()
        outcome = _outcome(lambda: consume(i, t))
        return outcome, len(deviations)

    certified, n_certified = measured(inst, rec)
    full, n_full = measured(inst, twin)
    assert certified == full and n_certified < n_full
    # Two fresh instances: measuring (h, h°) certifies it for the instance.
    foreign = measured(MatrixInstance(inst.tolerance), rec)
    assert foreign == measured(MatrixInstance(inst.tolerance), twin)
    bad = _rebuilt(rec, **{factor: _perturbed(getattr(rec, factor))})
    refused = _outcome(lambda: consume(inst, bad))
    assert refused[0] is dm.InputError and refused[2] > 0.0
    inst.tolerance = Tolerance(eq_tol=1e-30)
    strict = measured(inst, rec)
    assert strict == measured(inst, twin) and isinstance(strict[0], tuple)


def test_a_backward_morphism_is_certified_for_its_own_forward(monkeypatch):
    a = ComplexMatrix(seeded_product(53, 5, 7, 2))
    b = ComplexMatrix(seeded_product(54, 5, 7, 2))
    inst = MatrixInstance(Tolerance(eq_tol=1e-9))
    fwd, bwd = dm.iso_from_mp(inst, a, pinv(a))
    fwd_b, bwd_b = dm.iso_from_mp(inst, b, pinv(b))
    deviations = _count_deviations(monkeypatch, MatrixInstance)
    assert dm.mp_from_iso(inst, fwd, bwd) == (a, bwd.f) and not deviations
    hand_built = SplitMorphism(bwd.dom, bwd.cod, bwd.f)
    dm.mp_from_iso(inst, fwd, hand_built)
    assert deviations
    deviations.clear()
    dm.mp_from_iso(MatrixInstance(inst.tolerance), fwd, bwd)
    assert deviations
    with pytest.raises(dm.InputError):  # a backward from another pair is measured
        dm.mp_from_iso(inst, fwd_b, bwd)
    deviations.clear()
    inst.tolerance = Tolerance(eq_tol=1e-9)  # equal, but another object
    assert dm.mp_from_iso(inst, fwd_b, bwd_b) == (b, bwd_b.f) and deviations


def _record_reports(monkeypatch):
    """The (f, g, fg, gf) of every measurement of the four identities: each
    runs in core._mp_report, which engine also calls by its own name."""
    calls = []
    original = core._mp_report

    def recorded(inst, f, g, fg, gf):
        calls.append((f, g, fg, gf))
        return original(inst, f, g, fg, gf)

    for module in (core, dm.engine):
        monkeypatch.setattr(module, "_mp_report", recorded)
    return calls


def test_the_derived_check_reads_double_mp_from_the_certificate(monkeypatch):
    a = ComplexMatrix(seeded_product(55, 6, 5, 2))
    inst = MatrixInstance(Tolerance(eq_tol=1e-9))
    g = pinv(a)
    reports = _record_reports(monkeypatch)
    assert dm.derived_identities_check(inst, a, g).double_mp
    assert (a, g) in [r[:2] for r in reports] and (g, a) not in [r[:2] for r in reports]
    with pytest.raises(dm.PreconditionError):
        dm.derived_identities_check(inst, a, ComplexMatrix(g.array * 2.0))


# The derived check's products on the full path, with the pair certified:
# f f° and f° f, verify_mp of (f†, f°†) on the shared f† f°† and f°† f†,
# for each e of f f° and f° f the e e of e = e† and e e = e and the (e e) e
# of verify_mp(e, e), the two gram pairs of verify_mp, the shared f f†, f† f,
# f† f°† and f°† f†, f° f°† and f°† f°, the six absorption composites and
# f f† f.
FULL_PATH_PRODUCTS = 30
# With f° = f† at eq_tol 0: f f° and f° f, then e e for each e of the two.
SHORT_PATH_PRODUCTS = 4
# Uncertified, the pair's certification adds (f f°) f and (f° f) f°.
UNCERTIFIED_SHORT_PATH_PRODUCTS = 6


# Deviations of the check on a certified pair with f° = f†, besides those of
# self_adjoint_transfer: on the full path 30, on the short path f° = f† and
# e e = e for both e.
FULL_PATH_DEVIATIONS = 30
SHORT_PATH_DEVIATIONS = 3


def _transfer_deviations(inst, f):
    """self_adjoint_transfer's deviations: on an endomorphism f = f†, then
    f° = f°† and f° f = f f° if that held."""
    if inst.source(f) != inst.target(f):
        return 0
    return 3 if inst.equals(inst.dagger(f), f) else 1


def _inverse_category_pairs(kind):
    """(fresh instance, f, f°) with f° = f†: every difunctional relation of
    shapes up to 3x3, 2x4 and 4x2 (433), or every partial injection up to
    4x4 (499)."""
    if kind == "rel":
        shapes = [(a, b) for a in range(4) for b in range(4)] + [(2, 4), (4, 2)]
        for r in (r for shape in shapes for r in all_relations(*shape)):
            g = dm.mp_inverse_rel(r)
            if g is not None:
                yield RelInstance(), r, g
    else:
        for src in range(5):
            for tgt in range(5):
                for f in all_partial_injections(src, tgt):
                    yield PInjInstance(), f, f.dagger()


@pytest.mark.parametrize("kind, count", [("rel", 433), ("pinj", 499)])
def test_an_inverse_category_pair_reads_its_repeats_from_the_certificate(
    kind, count, monkeypatch
):
    pairs = list(_inverse_category_pairs(kind))
    assert len(pairs) == count
    cls = RelInstance if kind == "rel" else PInjInstance
    for inst, f, g in pairs:
        expected = SHORT_PATH_DEVIATIONS + _transfer_deviations(inst, f)
        products, deviations = _count_products(monkeypatch, cls)
        first = dm.derived_identities_check(inst, f, g)  # certifies the pair
        assert len(products) == UNCERTIFIED_SHORT_PATH_PRODUCTS, f
        assert len(deviations) == expected + 4, f  # and MP1-MP4
        products.clear()
        deviations.clear()
        report = dm.derived_identities_check(inst, f, g)
        monkeypatch.undo()
        assert report == first and report.all_hold, f
        assert len(products) == SHORT_PATH_PRODUCTS and len(deviations) == expected, f
        inst.tolerance = Tolerance(eq_tol=1e-300)  # misses the certificate: full path
        assert dm.derived_identities_check(inst, f, g) == report, f


class _SquaresToTheIdentity(PInjInstance):
    """Partial injections whose composite of an endomorphism with itself,
    the same object, is the identity: not a category, so a pair passes
    MP1-MP4 while its projection e = f f° fails e e = e."""

    def compose2(self, f, g):
        if f is g and f.src == f.tgt:
            return dm.PartialInjection.identity(f.src)
        return super().compose2(f, g)


def test_gram_inverses_is_measured_where_a_projector_is_not_idempotent():
    # f f° is the identity on {0, 2} of 3 points, so its square is not it;
    # verify_mp(e, e) still passes, as (e e) e = e and (e e)† = e e.
    inst = _SquaresToTheIdentity()
    f = dm.PartialInjection.from_pairs(3, 2, [(0, 1), (2, 0)])
    g = f.dagger()
    core.require_mp(inst, f, g, DaggerError, "pair")
    report = dm.derived_identities_check(inst, f, g)
    assert not report.projector_idempotents and report.gram_inverses
    e = inst.compose(f, g)
    assert core.verify_mp(inst, e, e).all_hold


# Partial permutations with entries ±1 and ±i: every product is exact, and
# f† is f°; the square one is self-adjoint.
UNIT_PARTIAL_PERMUTATIONS = [
    [[0, 1j, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1j]],
    [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]],
]


@pytest.mark.parametrize("entries", UNIT_PARTIAL_PERMUTATIONS)
def test_a_matrix_pair_skips_its_repeats_only_at_eq_tol_zero(entries, monkeypatch):
    f = ComplexMatrix(np.array(entries, dtype=complex))
    fd = f.dagger()
    reports = []
    for eq_tol, expected, deviations_expected in (
        (1e-9, FULL_PATH_PRODUCTS, FULL_PATH_DEVIATIONS),
        (0.0, SHORT_PATH_PRODUCTS, SHORT_PATH_DEVIATIONS),
    ):
        inst = MatrixInstance(Tolerance(eq_tol=eq_tol))
        core.require_mp(inst, f, fd, DaggerError, "pair")
        products, deviations = _count_products(monkeypatch, MatrixInstance)
        reports.append(dm.derived_identities_check(inst, f, fd))
        monkeypatch.undo()
        assert len(products) == expected, eq_tol
        deviations_expected += _transfer_deviations(inst, f)
        assert len(deviations) == deviations_expected, eq_tol
    assert reports[0] == reports[1] and reports[0].all_hold


# The three callers of core._mp_projections, each with the message it refuses with.
PROJECTION_SITES = {
    "compact": (dm.gcsvd_from_mp, "compact form needs an M-P pair"),
    "derived": (dm.derived_identities_check, "derived identities need a verified M-P pair"),
    "iso": (dm.iso_from_mp, "needs a verified M-P pair"),
}


def _a_3x2():
    return ComplexMatrix(uniform_complex(np.random.default_rng(57), 3, 2))


def _projection_pair(kind):
    """(fresh instance, f, f°) of an M-P pair of each instance."""
    if kind == "matrix":
        a = _a_3x2()
        return MatrixInstance(Tolerance(eq_tol=1e-9)), a, pinv(a)
    if kind == "rel":
        f = FiniteRelation.from_pairs(3, 3, [(0, 0), (1, 0), (2, 1), (2, 2)])
        return RelInstance(), f, f.converse()
    f = random_partial_injection(np.random.default_rng(7), 5, 4)
    return PInjInstance(), f, f.dagger()


def _failing_pair(kind):
    """(fresh instance, f, g) with g not the M-P inverse of f."""
    if kind == "matrix":
        a = _a_3x2()
        return MatrixInstance(), a, ComplexMatrix(pinv(a).array + 1e-3)
    if kind == "rel":
        f = FiniteRelation.from_pairs(2, 2, [(0, 0), (1, 0), (1, 1)])
        return RelInstance(), f, f.converse()
    f = dm.PartialInjection.from_pairs(3, 2, [(0, 1), (2, 0)])
    g = dm.PartialInjection.from_pairs(2, 3, [(0, 2), (1, 1)])  # f† sends 1 to 0
    return PInjInstance(), f, g


INSTANCE_KINDS = ["matrix", "rel", "pinj"]


def _run_site(site, inst, f, g):
    """A call site's outcome; the partial injections cannot split, so the
    compact form raises CapabilityError after the pair is certified."""
    try:
        PROJECTION_SITES[site][0](inst, f, g)
    except dm.CapabilityError:
        assert isinstance(inst, PInjInstance) and site == "compact"


@pytest.mark.parametrize("site", sorted(PROJECTION_SITES))
@pytest.mark.parametrize("kind", INSTANCE_KINDS)
def test_a_call_site_forms_the_projections_once_and_measures_them_once(
    kind, site, monkeypatch
):
    inst, f, g = _projection_pair(kind)
    cls = type(inst)
    for certified in (False, True):  # the first call certifies the pair
        products, _ = _count_products(monkeypatch, cls)
        reports = _record_reports(monkeypatch)
        _run_site(site, inst, f, g)
        monkeypatch.undo()
        assert sum(a is f and b is g for a, b in products) == 1
        assert sum(a is g and b is f for a, b in products) == 1
        pair_reports = [r for r in reports if r[:2] == (f, g)]
        assert len(pair_reports) == (0 if certified else 1)
        assert core._certified(g, inst, f, attr="_mp_cert")


@pytest.mark.parametrize("kind", INSTANCE_KINDS)
def test_the_projections_are_the_products_the_pair_is_measured_with(kind, monkeypatch):
    inst, f, g = _projection_pair(kind)
    products, deviations = _count_products(monkeypatch, type(inst))
    reports = _record_reports(monkeypatch)
    fg, gf = core._mp_projections(inst, f, g, DaggerError, "pair")
    assert len(reports) == 1 and len(deviations) == 4
    assert reports[0][2] is fg and reports[0][3] is gf
    assert inst.deviation(fg, inst.compose(f, g)) == 0.0
    assert inst.deviation(gf, inst.compose(g, f)) == 0.0
    products.clear()
    deviations.clear()
    reports.clear()
    again = core._mp_projections(inst, f, g, DaggerError, "pair")
    assert len(products) == 2 and not deviations and not reports
    assert [inst.deviation(a, b) for a, b in zip(again, (fg, gf))] == [0.0, 0.0]


@pytest.mark.parametrize("site", [None] + sorted(PROJECTION_SITES))
@pytest.mark.parametrize("kind", INSTANCE_KINDS)
def test_a_failing_pair_is_refused_as_require_mp_refuses_it(kind, site):
    inst, f, g = _failing_pair(kind)
    if site is None:
        error, what = DaggerError, "pair"

        def call():
            return core._mp_projections(inst, f, g, error, what)
    else:
        error, what = dm.PreconditionError, PROJECTION_SITES[site][1]

        def call():
            return PROJECTION_SITES[site][0](inst, f, g)

    with pytest.raises(DaggerError) as refused:
        call()
    with pytest.raises(DaggerError) as reference:
        core.require_mp(inst, f, g, error, what)
    outcome = [(type(e.value), str(e.value), e.value.residual) for e in (refused, reference)]
    assert outcome[0] == outcome[1] and outcome[0][0] is error
    assert outcome[0][2] > 0.0 and "_mp_cert" not in vars(g)


def _operand_bytes(products):
    return [(f.array.tobytes(), g.array.tobytes()) for f, g in products]


@pytest.mark.parametrize("shape", GUARD_SHAPES)
def test_polar_forms_h_h_mp_once(shape, monkeypatch):
    # (h, h°) is measured with the h h° and h° h that _mp_projections forms,
    # and u† u is compared with that h h°: 9 products, none with the
    # operands of another, as the positive part is taken from f and no
    # gram f† f or square h h is formed.  The round trip forms u h again
    # in mp_from_polar, which needs the map it inverts: 15, one repeat.
    a = ComplexMatrix(seeded_product(51, *shape))
    inst = MatrixInstance(Tolerance(eq_tol=1e-9))
    g = pinv(a)
    core.require_mp(inst, a, g, DaggerError, "pair")  # as in a corpus case
    products, _ = _count_products(monkeypatch, MatrixInstance)
    pair = dm.polar_from_mp(inst, a, g)
    formed = _operand_bytes(products)
    assert len(formed) == 9 and len(set(formed)) == 9
    dm.mp_from_polar(inst, pair)
    formed = _operand_bytes(products)
    assert len(formed) == 15 and len(set(formed)) == 14


def test_polar_refuses_a_bad_root_inverse_as_require_mp_does():
    a = ComplexMatrix(seeded_product(52, 5, 4, 2))
    inst = MatrixInstance(Tolerance(eq_tol=1e-9))
    h, h_mp = inst.positive_part(a)
    bad = ComplexMatrix(h_mp.array * 2.0)
    what = "square root inverse fails the axioms"

    class BadRoot(MatrixInstance):
        def positive_part(self, f, f_mp=None):
            return h, bad

    with pytest.raises(dm.PreconditionError) as refused:
        dm.polar_from_mp(BadRoot(inst.tolerance), a, pinv(a))
    with pytest.raises(dm.PreconditionError) as reference:
        core.require_mp(inst, h, ComplexMatrix(bad.array), dm.PreconditionError, what)
    assert str(refused.value) == str(reference.value)
    assert refused.value.residual == reference.value.residual > 0.0


def _cli_quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def test_a_relation_inverse_is_certified_by_its_zig_zag(tmp_path, monkeypatch):
    # RelInstance.mp measures r r° r = r and certifies the converse it
    # returns: MP2 is that equation's converse and MP3 and MP4 hold for a
    # converse, so no consumer measures an identity again.  pinv and rel
    # mp: 1 deviation; gcsvd and rel gcsvd: 1 and the 5 compact equations.
    r = FiniteRelation.from_pairs(3, 2, [(0, 0), (1, 0), (2, 1)])
    path = tmp_path / "r.json"
    path.write_text(json.dumps(rel_to_obj(r)), encoding="utf-8")
    for argv, expected in (
        (["pinv"], 1), (["rel", "mp"], 1), (["gcsvd"], 6), (["rel", "gcsvd"], 6)
    ):
        deviations = _count_deviations(monkeypatch, RelInstance)
        assert _cli_quiet(argv + ["--in", str(path)]) == 0
        monkeypatch.undo()
        assert len(deviations) == expected, argv


def _relation_outcomes(inst, r, g):
    """What pinv, gcsvd, karoubi check and the derived check make of (r, g)."""
    t = dm.gcsvd_from_mp(inst, r, g)
    return (
        core.require_mp(inst, r, g, DaggerError, "pinv"),
        (t.r, t.d, t.s, t.d_inv, t.residuals),
        core.verify_mp(inst, r, g),
        dm.mp_from_iso(inst, *dm.iso_from_mp(inst, r, g)),
        dm.derived_identities_check(inst, r, g),
    )


def test_a_certified_relation_inverse_changes_no_outcome():
    shapes = [(src, tgt) for src in range(4) for tgt in range(4)] + [(2, 4), (4, 2)]
    for src, tgt in shapes:
        for r in all_relations(src, tgt):
            inst = RelInstance()
            try:
                g = inst.mp(r)
            except dm.NoMPInverseError:
                assert not is_difunctional(r)
                continue
            assert core._certified(g, inst, r, attr="_mp_cert")
            plain = FiniteRelation(g.src, g.tgt, g.rows)  # equal, uncertified
            assert _relation_outcomes(inst, r, g) == _relation_outcomes(
                RelInstance(), r, plain
            ), r
