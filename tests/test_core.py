"""Contract-level behavior: tolerances, predicates, the axiom checker."""

import math

import numpy as np
import pytest

from conftest import random_partial_injection, random_relation, uniform_complex
from daggermp import (
    CapabilityError,
    ComplexMatrix,
    ConsistencyError,
    DaggerError,
    DecompositionError,
    FiniteRelation,
    InputError,
    MatrixInstance,
    MPReport,
    NoMPInverseError,
    NumericError,
    PartialInjection,
    PInjInstance,
    PreconditionError,
    RelInstance,
    Tolerance,
    herm_mp,
    is_coisometry,
    is_dagger_idempotent,
    is_isometry,
    is_partial_isometry,
    is_positive,
    is_self_adjoint,
    is_unitary,
    mp_via_gram,
    pinv,
    verify_mp,
)
from daggermp.core import check, require_mp, split, within

M = ComplexMatrix.from_rows


def test_tolerance_validation():
    with pytest.raises(InputError):
        Tolerance(rank_tol=-1.0)
    with pytest.raises(InputError):
        Tolerance(eq_tol=-1.0)
    with pytest.raises(InputError):
        Tolerance(eq_tol=float("nan"))
    with pytest.raises(InputError):
        Tolerance(rank_tol=float("inf"))
    exact = Tolerance.exact()
    assert exact.rank_tol == 0.0 and exact.eq_tol == 0.0
    assert Tolerance().rank_tol is None


@pytest.mark.parametrize(
    "value",
    [
        "1e-9", b"0", 1j, np.complex64(1), True, np.bool_(False), np.zeros(2),
        np.array(1e-9), np.ones((1, 1)),
    ],
)
def test_a_tolerance_that_is_not_a_real_number_is_an_input_error(value):
    # Not a TypeError from math.isfinite, and a bool is not a number here.
    # An array of any shape is refused, 0-d included: its repr is not a
    # number's, and it cannot be hashed (ROADMAP defect 10).
    got = type(value).__name__
    for kw in ("rank_tol", "eq_tol"):
        with pytest.raises(InputError, match=f"^{kw} must be a real number, got {got}$"):
            Tolerance(**{kw: value})
    with pytest.raises(InputError, match="^eq_tol must be a real number, got NoneType$"):
        Tolerance(eq_tol=None)
    with pytest.raises(InputError, match=f"^rank_tol must be a real number, got {got}$"):
        pinv(M([[1, 2]]), rank_tol=value)


def test_a_tolerance_keeps_ints_floats_and_numpy_reals_as_given():
    for value in (0, 3, 1e-9, np.float32(0.5), np.float64(1e-9), np.int64(2), np.uint8(1)):
        tol = Tolerance(rank_tol=value, eq_tol=value)
        assert tol.rank_tol is value and tol.eq_tol is value
        assert repr(tol) == f"Tolerance(rank_tol={value!r}, eq_tol={value!r})"
        assert hash(tol) == hash((value, value))
    assert Tolerance(rank_tol=None).rank_tol is None


def test_exception_hierarchy():
    assert issubclass(InputError, ValueError)
    assert issubclass(InputError, DaggerError)
    assert issubclass(NumericError, RuntimeError)
    err = PreconditionError("broken", residual=0.5)
    assert err.residual == 0.5
    assert "5.000e-01" in str(err)
    assert PreconditionError("plain").residual is None


def test_identity_satisfies_every_predicate(minst):
    eye = ComplexMatrix.identity(3)
    assert is_isometry(minst, eye)
    assert is_coisometry(minst, eye)
    assert is_unitary(minst, eye)
    assert is_partial_isometry(minst, eye)
    assert is_self_adjoint(minst, eye)
    assert is_dagger_idempotent(minst, eye)
    assert is_positive(minst, eye)


def test_projector_predicates(minst):
    p = M([[1, 0], [0, 0]])
    assert is_dagger_idempotent(minst, p)
    assert is_partial_isometry(minst, p)
    assert is_self_adjoint(minst, p)
    assert is_positive(minst, p)
    assert not is_isometry(minst, p)
    assert not is_coisometry(minst, p)
    assert not is_unitary(minst, p)


def test_what_is_not_a_dagger_idempotent(minst, rel_inst):
    assert not is_dagger_idempotent(minst, M([[1, 1], [0, 0]]))  # idempotent only
    assert not is_dagger_idempotent(minst, M([[2, 0], [0, 0]]))  # Hermitian only
    assert not is_dagger_idempotent(rel_inst, FiniteRelation.from_pairs(2, 2, [(0, 1)]))
    assert not is_dagger_idempotent(
        rel_inst, FiniteRelation.from_pairs(2, 2, [(0, 1), (1, 0)])
    )  # symmetric, not idempotent


class FixedSplit(RelInstance):
    """A relation instance whose split capability returns a fixed candidate."""

    def __init__(self, candidate):
        super().__init__()
        self.candidate = candidate

    def split_idempotent(self, e):
        return self.candidate


def test_split_certifies_the_capability_candidate(minst, rel_inst):
    eye = FiniteRelation.identity(1)
    assert split(rel_inst, eye) == eye
    assert split(minst, M([[1, 0], [0, 0]])).cols == 1
    with pytest.raises(InputError, match="requires an endomorphism"):
        split(rel_inst, FiniteRelation.empty(1, 2))
    # r r† = e holds but r† r is the full relation on 2 points
    with pytest.raises(PreconditionError, match="split: coisometry equation fails"):
        split(FixedSplit(FiniteRelation.full(1, 2)), eye)
    with pytest.raises(PreconditionError, match="split: recomposition equation fails"):
        split(FixedSplit(FiniteRelation.empty(1, 1)), eye)


def test_row_isometry_is_not_coisometry(minst):
    s = ComplexMatrix(np.array([[1.0, 1.0]]) / np.sqrt(2.0))
    assert is_isometry(minst, s)
    assert not is_coisometry(minst, s)
    # and the other orientation swaps the two
    assert is_coisometry(minst, s.dagger())
    assert not is_isometry(minst, s.dagger())


def test_relation_isometry_example(rel_inst):
    # one point related to everything: s s-converse is the identity on {0}
    s = FiniteRelation.from_pairs(1, 2, [(0, 0), (0, 1)])
    assert is_isometry(rel_inst, s)
    assert not is_coisometry(rel_inst, s)
    assert is_partial_isometry(rel_inst, s)


def test_positivity_examples(minst):
    assert is_positive(minst, M([[2, 0], [0, 3]]))
    assert not is_positive(minst, M([[0, 1], [1, 0]]))
    assert is_positive(minst, M([[1, 1j], [-1j, 1]]))
    assert not is_positive(minst, M([[0, 1], [0, 0]]))  # not even hermitian
    assert is_positive(minst, ComplexMatrix.zeros(2, 2))


def test_positivity_gated_by_capability(rel_inst, pinj_inst):
    with pytest.raises(CapabilityError):
        is_positive(rel_inst, FiniteRelation.identity(2))
    with pytest.raises(CapabilityError):
        is_positive(pinj_inst, PartialInjection.identity(2))


def test_self_adjointness_requires_endomorphism(minst):
    with pytest.raises(InputError):
        is_self_adjoint(minst, ComplexMatrix.zeros(2, 3))
    with pytest.raises(InputError):
        is_dagger_idempotent(minst, ComplexMatrix.zeros(2, 3))


def test_verify_mp_identity_pair(minst):
    eye = ComplexMatrix.identity(2)
    report = verify_mp(minst, eye, eye)
    assert report.all_hold
    assert report.residuals == (0.0, 0.0, 0.0, 0.0)
    d = report.as_dict()
    assert d["all_hold"] is True and d["mp1"] is True


def test_verify_mp_frozen_rank_one_pair(minst):
    a = M([[1, 2], [2, 4]])
    g = ComplexMatrix(a.array / 25.0)
    report = verify_mp(minst, a, g)
    assert report.all_hold
    assert max(report.residuals) < 1e-14


def test_verify_mp_identity_is_not_inverse_of_projector(minst):
    report = verify_mp(minst, M([[1, 0], [0, 0]]), ComplexMatrix.identity(2))
    assert (report.mp1, report.mp2, report.mp3, report.mp4) == (
        True,
        False,
        True,
        True,
    )
    assert report.residuals[1] == 1.0
    assert not report.all_hold


def test_verify_mp_rejects_mistyped_candidate(minst):
    with pytest.raises(InputError):
        verify_mp(minst, ComplexMatrix.zeros(2, 3), ComplexMatrix.zeros(2, 3))


def test_verify_mp_detects_wrong_relation_inverse(rel_inst):
    r = FiniteRelation.from_pairs(2, 2, [(0, 0), (1, 1)])
    wrong = FiniteRelation.from_pairs(2, 2, [(0, 0)])
    assert verify_mp(rel_inst, r, r.converse()).all_hold
    assert not verify_mp(rel_inst, r, wrong).all_hold


def test_zero_dimensional_morphisms_are_inverse_pairs(minst, rel_inst, pinj_inst):
    f = ComplexMatrix.zeros(0, 3)
    assert verify_mp(minst, f, ComplexMatrix.zeros(3, 0)).all_hold
    r = FiniteRelation.empty(0, 2)
    assert verify_mp(rel_inst, r, r.converse()).all_hold
    p = PartialInjection(0, 1, ())
    assert verify_mp(pinj_inst, p, p.dagger()).all_hold


def test_compose_is_variadic_and_associative(minst):
    rng = np.random.default_rng(5)
    f = ComplexMatrix(uniform_complex(rng, 2, 3))
    g = ComplexMatrix(uniform_complex(rng, 3, 4))
    h = ComplexMatrix(uniform_complex(rng, 4, 2))
    assert minst.compose(f) is f
    left = minst.compose(minst.compose(f, g), h)
    right = minst.compose(f, minst.compose(g, h))
    assert minst.equals(left, right)
    assert minst.equals(minst.compose(f, g, h), left)


def test_equality_is_relative_to_operand_norms():
    inst = MatrixInstance(Tolerance(eq_tol=1e-12))
    big = ComplexMatrix(np.eye(2) * 1e6)
    nudged = ComplexMatrix(big.array + 1e-8)
    assert inst.equals(big, nudged)     # 2e-8 against 1e-12 * |big| = 1.4e-6
    small = ComplexMatrix.identity(2)
    assert not inst.equals(small, ComplexMatrix(small.array + 1e-8))
    with pytest.raises(InputError):
        inst.deviation(big, ComplexMatrix.identity(3))


def _functor_law_cases(inst, make, rng, count):
    for _ in range(count):
        f, g = make(rng)
        fg = inst.compose(f, g)
        assert inst.equals(inst.dagger(inst.dagger(f)), f)
        assert inst.equals(
            inst.dagger(fg), inst.compose(inst.dagger(g), inst.dagger(f))
        )
        src = inst.source(f)
        assert inst.equals(
            inst.compose(inst.identity(src), f), f
        )
        assert inst.equals(inst.dagger(inst.identity(src)), inst.identity(src))


def test_dagger_functor_laws_matrices(minst):
    def make(rng):
        n, k, m = (int(x) for x in rng.integers(1, 6, 3))
        return (
            ComplexMatrix(uniform_complex(rng, n, k)),
            ComplexMatrix(uniform_complex(rng, k, m)),
        )

    _functor_law_cases(minst, make, np.random.default_rng(11), 200)


def test_dagger_functor_laws_relations(rel_inst):
    def make(rng):
        n, k, m = (int(x) for x in rng.integers(0, 6, 3))
        return random_relation(rng, n, k), random_relation(rng, k, m)

    _functor_law_cases(rel_inst, make, np.random.default_rng(12), 200)


def test_dagger_functor_laws_partial_injections(pinj_inst):
    def make(rng):
        n, k, m = (int(x) for x in rng.integers(0, 6, 3))
        return (
            random_partial_injection(rng, n, k),
            random_partial_injection(rng, k, m),
        )

    _functor_law_cases(pinj_inst, make, np.random.default_rng(13), 200)


def test_verified_inverses_are_unique(minst):
    # two verified candidates along different routes must coincide
    rng = np.random.default_rng(17)
    for _ in range(25):
        n, m = (int(x) for x in rng.integers(1, 6, 2))
        f = ComplexMatrix(uniform_complex(rng, n, m))
        g1 = minst.mp(f)
        g2 = mp_via_gram(minst, f, herm_mp)
        assert verify_mp(minst, f, g1).all_hold
        assert verify_mp(minst, f, g2).all_hold
        assert minst.equals(g1, g2)


def test_every_error_can_carry_a_residual():
    for cls in (
        DaggerError, InputError, CapabilityError, PreconditionError, NumericError,
        NoMPInverseError, ConsistencyError, DecompositionError,
    ):
        err = cls("broken", residual=0.25)
        assert err.residual == 0.25 and "2.500e-01" in str(err)
        assert cls("plain").residual is None


def test_compare_is_the_equality_rule(minst):
    a, b = M([[1.0, 0.0]]), M([[1.0, 1e-20]])
    eq = minst.compare(a, b)
    assert eq.deviation == 1e-20 and eq.ok and minst.equals(a, b)
    eq = minst.compare(a, M([[1.0, 1e-3]]))
    assert eq.deviation == 1e-3 and not eq.ok and not minst.equals(a, M([[1.0, 1e-3]]))
    assert minst.compare(a, b)[2:] == (1.0, 1.0)  # the scale and cond it was judged at
    assert minst.compare(a, b, 2.0, 3.0)[2:] == (2.0, 3.0)


def test_check_returns_the_residual_or_raises_with_it(minst):
    assert check(minst, M([[2.0]]), M([[2.0]]), DecompositionError, "same") == 0.0
    with pytest.raises(DecompositionError) as exc:
        check(minst, M([[2.0]]), M([[3.0]]), DecompositionError, "differ")
    assert exc.value.residual == 1.0 and str(exc.value).startswith("differ")


@pytest.mark.parametrize(
    "eq_tol, scale, what, message",
    [
        (1e-9, math.inf, "x equation fails", "x equation cannot be certified at scale inf"),
        (2.0, None, "not a dagger idempotent",
         "not a dagger idempotent: cannot be certified at cond 1.000e+00 with eq_tol 2"),
        (1e-9, 2.0, "x equation fails", "x equation fails"),
    ],
)
def test_a_refusal_names_the_guard_only_when_it_forced_the_failure(
    eq_tol, scale, what, message
):
    # A slack eq_tol * cond of at least 1, or a scale that is not finite,
    # makes within() pass deviation 0 alone; a deviation the slack would
    # cover is then refused under the guard's name, with the same residual.
    inst = MatrixInstance(Tolerance(eq_tol=eq_tol))
    with pytest.raises(DecompositionError) as exc:
        check(inst, M([[2.0]]), M([[3.0]]), DecompositionError, what, scale)
    assert str(exc.value) == f"{message} (residual 1.000e+00)" and exc.value.residual == 1.0


def test_require_mp_names_the_first_failing_identity(minst):
    p = M([[1, 0], [0, 0]])
    assert require_mp(minst, p, p, ConsistencyError, "projector") is p
    with pytest.raises(ConsistencyError) as exc:
        require_mp(minst, p, ComplexMatrix.identity(2), ConsistencyError, "identity")
    assert "MP2" in str(exc.value) and exc.value.residual == 1.0


def test_non_finite_residual_never_passes():
    # f g f - f = -3.4e308 overflows to inf against the finite bound |f|^2 |g|.
    report = verify_mp(MatrixInstance(), M([[1.7e308]]), M([[-1 / 1.7e308]]))
    assert report.residuals[0] == float("inf")
    assert not report.mp1 and not report.all_hold


def test_overflowing_bound_passes_only_exact_identities():
    # |f| |g| overflows: f g = g f = 0 exactly, so MP3 and MP4 hold, while
    # f g f and g f g miss f and g by 1e200 and may not pass on that bound.
    f, g = M([[1e200, 0], [0, 0]]), M([[0, 0], [0, 1e200]])
    report = verify_mp(MatrixInstance(), f, g)
    assert report.mp3 and report.mp4 and report.residuals[2:] == (0.0, 0.0)
    assert not (report.mp1 or report.mp2)


@pytest.mark.parametrize("t", [1e13, 1e14, 1e100])
def test_a_large_candidate_cannot_widen_its_own_bound(t):
    # Under the bound eq_tol |g| (|f| |g|), g = diag(1, t) passed MP2 for
    # f = diag(1, 0) once t >= 1 / eq_tol, and f = diag(1, t) passed MP1
    # against g = diag(1, 0): each miss is t, each bound eq_tol t^2.
    inst = MatrixInstance()
    report = verify_mp(inst, M([[1, 0], [0, 0]]), M([[1, 0], [0, t]]))
    assert report.residuals[1] == t and not report.mp2 and not report.all_hold
    report = verify_mp(inst, M([[1, 0], [0, t]]), M([[1, 0], [0, 0]]))
    assert report.residuals[0] == t and not report.mp1 and not report.all_hold


def test_within_is_the_one_rule():
    assert within(0.0, float("inf"), 0.0) and within(0.0, float("nan"), 1.0, 2.0)
    assert within(0.5, 1.0, 0.5) and within(0.5, 1.0, 0.25, 3.0)
    assert not within(0.5, 1.0, 0.5, 2.0)  # a slack of 1 verifies nothing
    assert not within(1.0, float("inf"), 0.5) and not within(float("nan"), 1.0, 0.5)
    assert not within(1e-3, 1.0, 1e-2, float("inf"))


def test_equality_has_no_absolute_floor():
    # Under a bound of eq_tol * max(1, |f| |g|) these passed: 2e150 <= 2.2e286.
    inst = MatrixInstance()
    assert not inst.equals(M([[1e150]]), M([[-1e150]]))
    assert not inst.equals(M([[1e-150]]), M([[-1e-150]]))
    assert inst.equals(M([[1e150]]), M([[1e150 * (1 + 2**-52)]]))


def test_non_finite_residuals_are_written_as_null():
    report = MPReport(False, True, True, True, (math.inf, math.nan, 0.0, 1e-300))
    assert report.as_dict()["residuals"] == [None, None, 0.0, 1e-300]
    assert report.residuals[0] == math.inf
