"""Generic constructions: canonical inverses, derived identities, composition."""

import numpy as np
import pytest

from conftest import (
    all_relations,
    random_partial_injection,
    random_relation,
    uniform_complex,
)
from daggermp import (
    ComplexMatrix,
    FiniteRelation,
    InputError,
    NoMPInverseError,
    PreconditionError,
    composition_criteria,
    derived_identities_check,
    herm_mp,
    mp_of_dagger_idempotent,
    mp_of_partial_isometry,
    mp_via_gram,
    pinv,
    verify_mp,
)

M = ComplexMatrix.from_rows


def random_unitary(rng, n):
    q, _ = np.linalg.qr(uniform_complex(rng, n, n))
    return ComplexMatrix(q)


def test_partial_isometry_inverse_is_dagger(minst):
    rng = np.random.default_rng(71)
    for _ in range(10):
        u = random_unitary(rng, int(rng.integers(1, 6)))
        assert minst.equals(mp_of_partial_isometry(minst, u), u.dagger())
    p = M([[1, 0], [0, 0]])
    assert minst.equals(mp_of_partial_isometry(minst, p), p)


def test_partial_isometry_constructor_rejects_others(minst):
    with pytest.raises(PreconditionError) as exc:
        mp_of_partial_isometry(minst, M([[2, 0], [0, 0]]))
    assert exc.value.residual is not None and exc.value.residual > 1.0


def test_dagger_idempotent_inverse_is_itself(minst, rel_inst):
    e = M([[0.5, 0.5], [0.5, 0.5]])
    assert minst.equals(mp_of_dagger_idempotent(minst, e), e)
    per = FiniteRelation.from_pairs(3, 3, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert mp_of_dagger_idempotent(rel_inst, per) == per
    with pytest.raises(PreconditionError):
        mp_of_dagger_idempotent(minst, M([[1, 1], [0, 1]]))


def test_difunctional_relation_is_partial_isometry(rel_inst):
    r = FiniteRelation.from_pairs(3, 2, [(0, 0), (1, 0), (2, 1)])
    assert mp_of_partial_isometry(rel_inst, r) == r.converse()


def test_gram_route_frozen_examples(minst):
    got = mp_via_gram(minst, M([[1], [1]]), herm_mp)
    assert np.allclose(got.array, [[0.5, 0.5]], atol=1e-14)

    eye = ComplexMatrix.identity(2)
    assert minst.equals(mp_via_gram(minst, eye, herm_mp), eye)

    a = M([[1, 2], [2, 4]])
    got = mp_via_gram(minst, a, herm_mp)
    assert np.allclose(got.array, a.array / 25.0, atol=1e-12)
    assert minst.equals(got, pinv(a))


def test_gram_route_agrees_with_pinv(minst):
    rng = np.random.default_rng(73)
    for _ in range(40):
        n, m = (int(x) for x in rng.integers(1, 7, 2))
        k = int(rng.integers(0, min(n, m) + 1))
        a = ComplexMatrix(
            uniform_complex(rng, n, k) @ uniform_complex(rng, k, m)
            if k
            else np.zeros((n, m))
        )
        assert minst.equals(mp_via_gram(minst, a, herm_mp), pinv(a))


def test_gram_route_rejects_unverified_solver_output(minst):
    with pytest.raises(PreconditionError):
        mp_via_gram(minst, ComplexMatrix.identity(2), lambda p: M([[2, 0], [0, 2]]))


def test_gram_route_works_in_rel(rel_inst):
    r = FiniteRelation.from_pairs(2, 2, [(0, 0), (0, 1)])
    assert rel_inst.compose(r, r.converse(), r) == r  # difunctional
    got = mp_via_gram(rel_inst, r, rel_inst.mp)
    assert got == r.converse()


def test_gram_route_refuses_nondifunctional_relation(rel_inst):
    r = FiniteRelation.from_pairs(2, 2, [(0, 0), (1, 0), (1, 1)])
    # its gram endomorphism is the full relation, which is its own inverse,
    # so the solver succeeds and the absorption test is what fails
    with pytest.raises(NoMPInverseError) as exc:
        mp_via_gram(rel_inst, r, rel_inst.mp)
    assert exc.value.residual == 1.0


def test_derived_identities_on_identity(minst):
    eye = ComplexMatrix.identity(2)
    report = derived_identities_check(minst, eye, eye)
    assert report.all_hold
    assert tuple(report) == (True,) * 10


def test_derived_identities_need_verified_pair(minst):
    with pytest.raises(PreconditionError):
        derived_identities_check(
            minst, M([[1, 0], [0, 0]]), ComplexMatrix.identity(2)
        )


def test_derived_identities_random_matrices(minst):
    rng = np.random.default_rng(79)
    for _ in range(60):
        n, m = (int(x) for x in rng.integers(1, 6, 2))
        k = int(rng.integers(0, min(n, m) + 1))
        a = ComplexMatrix(
            uniform_complex(rng, n, k) @ uniform_complex(rng, k, m)
            if k
            else np.zeros((n, m))
        )
        report = derived_identities_check(minst, a, pinv(a))
        assert report.all_hold, (a, report)


def test_derived_identities_all_difunctional_relations(rel_inst):
    for src in range(3):
        for tgt in range(3):
            for r in all_relations(src, tgt):
                if rel_inst.compose(r, r.converse(), r) != r:
                    continue
                report = derived_identities_check(rel_inst, r, r.converse())
                assert report.all_hold, r


def test_derived_identities_random_partial_injections(pinj_inst):
    rng = np.random.default_rng(83)
    for _ in range(100):
        n, m = (int(x) for x in rng.integers(0, 7, 2))
        f = random_partial_injection(rng, n, m)
        assert derived_identities_check(pinj_inst, f, f.dagger()).all_hold


def test_composition_of_unitaries(minst):
    rng = np.random.default_rng(89)
    f = random_unitary(rng, 4)
    g = random_unitary(rng, 4)
    report = composition_criteria(minst, f, f.dagger(), g, g.dagger())
    assert report.conditions_hold
    assert report.condition_a == report.condition_b == report.condition_c == True
    assert report.biconditional_lhs and report.biconditional_rhs
    assert minst.equals(report.composite_mp, minst.compose(f, g).dagger())


def test_composition_of_orthogonal_projectors(minst):
    f = M([[1, 0], [0, 0]])
    g = M([[0, 0], [0, 1]])
    report = composition_criteria(minst, f, f, g, g)
    assert report.conditions_hold
    assert minst.equals(report.composite_mp, ComplexMatrix.zeros(2, 2))
    assert report.biconditional_lhs and report.biconditional_rhs


def test_composition_criteria_frozen_failure(minst):
    # invertible times projector: composite has an inverse, but it is not
    # the reversed composite of the two inverses
    f = M([[1, 1], [0, 1]])
    f_mp = M([[1, -1], [0, 1]])
    g = M([[1, 0], [0, 0]])
    report = composition_criteria(minst, f, f_mp, g, g)
    assert not report.conditions_hold
    assert report.composite_mp is None
    assert not report.biconditional_lhs
    assert not report.biconditional_rhs

    fg = minst.compose(f, g)
    reversed_candidate = minst.compose(g, f_mp)
    direct = pinv(fg)
    assert verify_mp(minst, fg, direct).all_hold
    assert not verify_mp(minst, fg, reversed_candidate).all_hold
    assert not minst.equals(direct, reversed_candidate)
    assert np.allclose(direct.array, [[1, 0], [0, 0]], atol=1e-12)
    assert np.allclose(reversed_candidate.array, [[1, -1], [0, 0]], atol=1e-12)


def test_composition_biconditional_sides_agree(minst):
    # the two sides of the exact characterization, sampled across a mix
    # of generic, unitary and projector-like factors
    rng = np.random.default_rng(97)
    agree_true = agree_false = 0
    for trial in range(120):
        n, k, m = (int(x) for x in rng.integers(1, 5, 3))
        kind = trial % 3
        if kind == 0:
            f = ComplexMatrix(uniform_complex(rng, n, k))
            g = ComplexMatrix(uniform_complex(rng, k, m))
        elif kind == 1:
            f = random_unitary(rng, k)
            g = ComplexMatrix(uniform_complex(rng, k, m))
        else:
            q = random_unitary(rng, k).array
            j = int(rng.integers(0, k + 1))
            f = ComplexMatrix(q[:, :j] @ q[:, :j].conj().T)
            g = ComplexMatrix(q[:, -1:] @ q[:, -1:].conj().T)
        report = composition_criteria(minst, f, pinv(f), g, pinv(g))
        assert report.biconditional_lhs == report.biconditional_rhs
        if report.biconditional_lhs:
            agree_true += 1
        else:
            agree_false += 1
        if report.conditions_hold:
            assert report.composite_mp is not None
            assert verify_mp(
                minst, minst.compose(f, g), report.composite_mp
            ).all_hold
    # the sample must exercise both outcomes to mean anything
    assert agree_true > 0 and agree_false > 0


def test_composition_criteria_in_rel(rel_inst):
    rng = np.random.default_rng(101)
    seen_hold = seen_fail = 0
    for _ in range(300):
        n, k, m = (int(x) for x in rng.integers(1, 4, 3))
        f = random_relation(rng, n, k)
        g = random_relation(rng, k, m)
        if rel_inst.compose(f, f.converse(), f) != f:
            continue
        if rel_inst.compose(g, g.converse(), g) != g:
            continue
        report = composition_criteria(
            rel_inst, f, f.converse(), g, g.converse()
        )
        assert report.biconditional_lhs == report.biconditional_rhs
        if report.conditions_hold:
            seen_hold += 1
            assert report.composite_mp is not None
        else:
            seen_fail += 1
    assert seen_hold > 0 and seen_fail > 0


def test_composition_criteria_input_checks(minst):
    eye = ComplexMatrix.identity(2)
    with pytest.raises(InputError):
        composition_criteria(minst, ComplexMatrix.zeros(2, 3), eye, eye, eye)
    with pytest.raises(PreconditionError):
        composition_criteria(minst, M([[1, 0], [0, 0]]), eye, eye, eye)
