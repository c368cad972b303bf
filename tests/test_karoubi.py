"""Formal idempotent splitting and the invertibility view of M-P inverses."""

import numpy as np
import pytest

from conftest import random_partial_injection, uniform_complex
from daggermp import (
    ComplexMatrix,
    FiniteRelation,
    InputError,
    PartialInjection,
    PreconditionError,
    SplitMorphism,
    compose_split,
    dagger_split,
    embed,
    is_difunctional,
    iso_from_mp,
    mp_from_iso,
    mp_in_karoubi,
    pinv,
    same_object,
    split_identity,
    split_morphism,
    split_object,
    verify_mp,
)

M = ComplexMatrix.from_rows


def test_split_object_accepts_dagger_idempotents(minst, rel_inst):
    obj = split_object(minst, M([[1, 0], [0, 0]]))
    assert obj.base == 2
    per = FiniteRelation.from_pairs(2, 2, [(0, 0)])
    assert split_object(rel_inst, per).base == 2


def test_split_object_rejections(minst):
    with pytest.raises(InputError):
        split_object(minst, ComplexMatrix.zeros(2, 3))
    with pytest.raises(PreconditionError) as exc:
        split_object(minst, M([[2, 0], [0, 0]]))
    assert exc.value.residual is not None


def test_same_object_compares_idempotents(minst):
    a = split_object(minst, M([[1, 0], [0, 0]]))
    b = split_object(minst, M([[1, 0], [0, 0]]))
    c = split_object(minst, M([[0, 0], [0, 1]]))
    assert same_object(minst, a, b)
    assert not same_object(minst, a, c)


def test_split_morphism_validation(minst):
    e = M([[1, 0], [0, 0]])
    obj = split_object(minst, e)
    m = split_morphism(minst, obj, obj, e)
    assert minst.equals(m.f, e)
    with pytest.raises(InputError):
        split_morphism(minst, obj, obj, ComplexMatrix.zeros(3, 2))
    with pytest.raises(InputError):
        split_morphism(minst, obj, obj, ComplexMatrix.identity(2))


def test_split_identity_is_neutral(minst):
    e = M([[0.5, 0.5], [0.5, 0.5]])
    obj = split_object(minst, e)
    ident = split_identity(minst, obj)
    m = split_morphism(minst, obj, obj, ComplexMatrix(e.array * 0.3))
    assert minst.equals(compose_split(minst, ident, m).f, m.f)
    assert minst.equals(compose_split(minst, m, ident).f, m.f)


def test_compose_split_requires_matching_objects(minst):
    a = split_object(minst, M([[1, 0], [0, 0]]))
    b = split_object(minst, M([[0, 0], [0, 1]]))
    ma = split_identity(minst, a)
    mb = split_identity(minst, b)
    with pytest.raises(InputError):
        compose_split(minst, ma, mb)


def test_embed_is_functorial(minst, rel_inst):
    rng = np.random.default_rng(137)
    for _ in range(20):
        n, k, m = (int(x) for x in rng.integers(1, 5, 3))
        f = ComplexMatrix(uniform_complex(rng, n, k))
        g = ComplexMatrix(uniform_complex(rng, k, m))
        lhs = embed(minst, minst.compose(f, g))
        rhs = compose_split(minst, embed(minst, f), embed(minst, g))
        assert minst.equals(lhs.f, rhs.f)
        assert same_object(minst, lhs.dom, rhs.dom)
        assert minst.equals(dagger_split(minst, embed(minst, f)).f, f.dagger())

    r1 = FiniteRelation.from_pairs(2, 3, [(0, 1), (1, 2)])
    r2 = FiniteRelation.from_pairs(3, 2, [(1, 0), (2, 0)])
    assert (
        embed(rel_inst, r1.compose(r2)).f
        == compose_split(rel_inst, embed(rel_inst, r1), embed(rel_inst, r2)).f
    )


def test_mp_in_karoubi_restricts_the_base_solver(minst):
    rng = np.random.default_rng(139)
    f = ComplexMatrix(uniform_complex(rng, 3, 4))
    km = mp_in_karoubi(minst, embed(minst, f))
    assert minst.equals(km.f, pinv(f))
    assert km.dom.base == 4 and km.cod.base == 3


def test_mp_in_karoubi_between_proper_splittings(minst):
    rng = np.random.default_rng(141)
    f = ComplexMatrix(uniform_complex(rng, 3, 3))
    g = pinv(f)
    fwd, bwd = iso_from_mp(minst, f, g)
    km = mp_in_karoubi(minst, fwd)
    assert minst.equals(km.f, bwd.f)
    assert same_object(minst, km.dom, bwd.dom)
    assert same_object(minst, km.cod, bwd.cod)


def test_mp_in_karoubi_rejects_bad_solver(minst):
    f = embed(minst, M([[1, 0], [0, 0]]))
    with pytest.raises(PreconditionError):
        mp_in_karoubi(minst, f, base_mp=lambda _: ComplexMatrix.identity(2))


def test_mp_in_karoubi_checks_its_input_is_fixed(minst):
    # A hand-built formal morphism whose map the domain idempotent moves.
    dom = split_object(minst, M([[1, 0], [0, 0]]))
    cod = split_object(minst, ComplexMatrix.identity(2))
    f = SplitMorphism(dom, cod, M([[1, 2], [3, 4]]))
    with pytest.raises(InputError, match="not fixed by the chosen idempotents") as err:
        mp_in_karoubi(minst, f)
    assert err.value.residual > 0


def test_iso_round_trip_matrices(minst):
    rng = np.random.default_rng(149)
    for _ in range(30):
        n, m = (int(x) for x in rng.integers(1, 6, 2))
        k = int(rng.integers(0, min(n, m) + 1))
        f = ComplexMatrix(
            uniform_complex(rng, n, k) @ uniform_complex(rng, k, m)
            if k
            else np.zeros((n, m))
        )
        g = pinv(f)
        fwd, bwd = iso_from_mp(minst, f, g)
        assert minst.equals(fwd.dom.idempotent, minst.compose(f, g))
        assert minst.equals(fwd.cod.idempotent, minst.compose(g, f))
        f2, g2 = mp_from_iso(minst, fwd, bwd)
        assert minst.equals(f2, f) and minst.equals(g2, g)


def test_iso_round_trip_unitary_case(minst):
    rng = np.random.default_rng(151)
    q, _ = np.linalg.qr(uniform_complex(rng, 4, 4))
    u = ComplexMatrix(q)
    fwd, bwd = iso_from_mp(minst, u, u.dagger())
    # a unitary splits through the full identities on both sides
    assert minst.equals(fwd.dom.idempotent, ComplexMatrix.identity(4))
    assert minst.equals(fwd.cod.idempotent, ComplexMatrix.identity(4))
    f2, g2 = mp_from_iso(minst, fwd, bwd)
    assert minst.equals(f2, u) and minst.equals(g2, u.dagger())


def test_iso_round_trip_relations_exact(rel_inst):
    rng = np.random.default_rng(157)
    seen = 0
    for _ in range(200):
        src, tgt = (int(x) for x in rng.integers(1, 5, 2))
        rows = tuple(int(x) for x in rng.integers(0, 1 << tgt, src))
        r = FiniteRelation(src, tgt, rows)
        if not is_difunctional(r):
            continue
        seen += 1
        fwd, bwd = iso_from_mp(rel_inst, r, r.converse())
        f2, g2 = mp_from_iso(rel_inst, fwd, bwd)
        assert f2 == r and g2 == r.converse()
    assert seen > 20


def test_iso_round_trip_partial_injections(pinj_inst):
    rng = np.random.default_rng(163)
    for _ in range(60):
        n, m = (int(x) for x in rng.integers(0, 6, 2))
        f = random_partial_injection(rng, n, m)
        fwd, bwd = iso_from_mp(pinj_inst, f, f.dagger())
        f2, g2 = mp_from_iso(pinj_inst, fwd, bwd)
        assert f2 == f and g2 == f.dagger()


def test_iso_from_mp_needs_verified_pair(minst):
    with pytest.raises(PreconditionError):
        iso_from_mp(minst, M([[1, 0], [0, 0]]), ComplexMatrix.identity(2))


def test_mp_from_iso_rejects_wrong_pairing(minst):
    rng = np.random.default_rng(167)
    f = ComplexMatrix(uniform_complex(rng, 3, 3))
    fwd, bwd = iso_from_mp(minst, f, pinv(f))
    with pytest.raises(InputError):
        mp_from_iso(minst, fwd, fwd)  # objects do not match up


def test_mp_from_iso_rejects_noninverse_composites(minst):
    e = M([[1, 0], [0, 0]])
    obj = split_object(minst, e)
    half = split_morphism(minst, obj, obj, ComplexMatrix(e.array * 0.5))
    with pytest.raises(InputError):
        mp_from_iso(minst, half, half)  # composes to e/4, not to e


def test_karoubi_inverse_of_projector_viewed_on_its_image(minst):
    # on the split pair the projector becomes an identity, hence self-inverse
    e = M([[0.5, 0.5], [0.5, 0.5]])
    obj = split_object(minst, e)
    ident = split_identity(minst, obj)
    km = mp_in_karoubi(minst, ident)
    assert minst.equals(km.f, e)
