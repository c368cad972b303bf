"""Compact, padded, and polar factorizations built from a verified M-P pair."""

import numpy as np
import pytest
from hypothesis import assume, given

from conftest import (
    SCALING,
    PinnedScaleInstance,
    monomials,
    rotated_root,
    seeded_product,
    uniform_complex,
)
from daggermp import (
    _jacobi,
    CapabilityError,
    ComplexMatrix,
    DecompositionError,
    FiniteRelation,
    GCSVDTriple,
    GSVDTriple,
    InputError,
    MatrixInstance,
    PreconditionError,
    RelInstance,
    Tolerance,
    direct_sum,
    gcsvd_from_mp,
    gcsvd_intertwiners,
    gsvd_from_mp,
    gsvd_intertwiners,
    induced_gcsvd,
    is_unitary,
    mp_from_gcsvd,
    mp_from_gsvd,
    mp_from_polar,
    pinv,
    polar_from_mp,
    verify_mp,
)

M = ComplexMatrix.from_rows


def _product_case(rng, n, m):
    k = int(rng.integers(0, min(n, m) + 1))
    if k == 0:
        return ComplexMatrix.zeros(n, m)
    return ComplexMatrix(uniform_complex(rng, n, k) @ uniform_complex(rng, k, m))


# --- compact form -----------------------------------------------------------


def test_gcsvd_of_identity(minst):
    i3 = ComplexMatrix.identity(3)
    t = gcsvd_from_mp(minst, i3, i3)
    assert minst.equals(t.r, i3) and minst.equals(t.d, i3) and minst.equals(t.s, i3)
    assert set(t.residuals) == {
        "coisometry",
        "isometry",
        "invertible_left",
        "invertible_right",
        "reconstruction",
    }


def test_gcsvd_frozen_rank_one(minst):
    a = M([[1, 2], [2, 4]])
    t = gcsvd_from_mp(minst, a, pinv(a))
    v = 1 / np.sqrt(5)
    assert np.allclose(t.r.array, [[v], [2 * v]], atol=1e-12)
    assert np.allclose(t.d.array, [[5.0]], atol=1e-12)
    assert np.allclose(t.s.array, [[v, 2 * v]], atol=1e-12)
    assert minst.equals(minst.compose(t.r, t.d, t.s), a)


def test_gcsvd_middle_factor_properties(minst):
    rng = np.random.default_rng(173)
    for _ in range(25):
        n, m = (int(x) for x in rng.integers(1, 6, 2))
        a = _product_case(rng, n, m)
        t = gcsvd_from_mp(minst, a, pinv(a))
        k = t.d.rows
        assert t.r.cols == k and t.s.rows == k
        ident = ComplexMatrix.identity(k)
        assert minst.equals(minst.compose(t.d, t.d_inv), ident)
        assert minst.equals(minst.compose(t.d_inv, t.d), ident)
        assert minst.equals(minst.compose(t.r, t.d, t.s), a)


def test_mp_from_gcsvd_matches_direct_route(minst):
    rng = np.random.default_rng(179)
    for _ in range(25):
        n, m = (int(x) for x in rng.integers(1, 7, 2))
        a = _product_case(rng, n, m)
        g = pinv(a)
        t = gcsvd_from_mp(minst, a, g)
        assert minst.equals(mp_from_gcsvd(minst, t), g)


def test_gcsvd_triple_invariant_checks(minst):
    a = M([[1, 2], [2, 4]])
    t = gcsvd_from_mp(minst, a, pinv(a))
    bad_r = M([[1], [2]])  # not a coisometry
    with pytest.raises(InputError):
        mp_from_gcsvd(minst, GCSVDTriple(bad_r, t.d, t.s, t.d_inv, t.residuals))


class _BadSplitInstance(MatrixInstance):
    def split_idempotent(self, e):
        return M([[1], [0]])  # splits diag(1,0), not the identity


def test_gcsvd_refuses_bad_splitter():
    i2 = ComplexMatrix.identity(2)
    with pytest.raises(DecompositionError):
        gcsvd_from_mp(_BadSplitInstance(Tolerance(eq_tol=1e-9)), i2, i2)


def test_gcsvd_intertwiners_identity_on_same_triple(minst):
    rng = np.random.default_rng(181)
    a = _product_case(rng, 4, 3)
    t = gcsvd_from_mp(minst, a, pinv(a))
    p, q = gcsvd_intertwiners(minst, t, t)
    k = t.d.rows
    assert minst.equals(p, ComplexMatrix.identity(k))
    assert minst.equals(q, ComplexMatrix.identity(k))


def test_gcsvd_intertwiners_recover_a_unitary_change(minst):
    rng = np.random.default_rng(191)
    a = _product_case(rng, 4, 4)
    t1 = gcsvd_from_mp(minst, a, pinv(a))
    k = t1.d.rows
    w, _ = np.linalg.qr(uniform_complex(rng, k, k))
    wm = ComplexMatrix(w)
    # rotate the left leg and compensate in the middle: r2 d2 s2 still equals a
    t2 = GCSVDTriple(
        minst.compose(t1.r, wm),
        minst.compose(wm.dagger(), t1.d),
        t1.s,
        minst.compose(t1.d_inv, wm),
        t1.residuals,
    )
    p, q = gcsvd_intertwiners(minst, t1, t2)
    assert is_unitary(minst, p) and is_unitary(minst, q)
    assert minst.equals(p, wm)
    assert minst.equals(q, ComplexMatrix.identity(k))


def test_gcsvd_intertwiners_reject_different_maps(minst):
    rng = np.random.default_rng(193)
    a = _product_case(rng, 3, 3)
    b = ComplexMatrix(a.array + 1.0)
    t1 = gcsvd_from_mp(minst, a, pinv(a))
    t2 = gcsvd_from_mp(minst, b, pinv(b))
    with pytest.raises(InputError):
        gcsvd_intertwiners(minst, t1, t2)


# --- padded form ------------------------------------------------------------


def test_gsvd_of_identity(minst):
    i3 = ComplexMatrix.identity(3)
    t = gsvd_from_mp(minst, i3, i3)
    assert t.dims == (3, 0, 3, 0)
    assert is_unitary(minst, t.u) and is_unitary(minst, t.v)
    assert minst.equals(minst.compose(t.u, t.d, t.v), i3)


def test_gsvd_of_zero(minst):
    z = ComplexMatrix.zeros(2, 2)
    t = gsvd_from_mp(minst, z, z)
    assert t.dims == (0, 2, 0, 2)
    assert minst.equals(mp_from_gsvd(minst, t), z)


def _padded(t):
    x, z, y, w = t.dims
    return direct_sum(t.d, ComplexMatrix.zeros(z, w))


def test_gsvd_frozen_nilpotent(minst):
    a = M([[0, 2], [0, 0]])
    g = pinv(a)
    t = gsvd_from_mp(minst, a, g)
    assert t.dims == (1, 1, 1, 1)
    assert set(t.residuals) == {"kernel_source", "kernel_target", "reconstruction"}
    assert minst.equals(minst.compose(t.u, _padded(t), t.v), a)
    got = mp_from_gsvd(minst, t)
    assert np.allclose(got.array, [[0, 0], [0.5, 0]], atol=1e-12)


def test_gsvd_unitary_factors_and_padding(minst):
    rng = np.random.default_rng(197)
    for _ in range(20):
        n, m = (int(x) for x in rng.integers(1, 6, 2))
        a = _product_case(rng, n, m)
        t = gsvd_from_mp(minst, a, pinv(a))
        x, z, y, w = t.dims
        assert x + z == n and y + w == m
        assert is_unitary(minst, t.u) and is_unitary(minst, t.v)
        assert minst.equals(minst.compose(t.u, _padded(t), t.v), a)
        assert minst.equals(mp_from_gsvd(minst, t), pinv(a))


def test_gsvd_padding_blocks_are_zero(minst):
    rng = np.random.default_rng(199)
    a = _product_case(rng, 5, 3)
    t = gsvd_from_mp(minst, a, pinv(a))
    x, z, y, w = t.dims
    mid = _padded(t).array
    assert mid.shape == (5, 3)
    assert np.all(mid[x:, :] == 0) and np.all(mid[:, y:] == 0)
    assert np.linalg.matrix_rank(mid, tol=1e-10) == x


def test_induced_gcsvd_agrees_with_direct_compact_form(minst):
    rng = np.random.default_rng(211)
    a = _product_case(rng, 4, 5)
    g = pinv(a)
    t = gsvd_from_mp(minst, a, g)
    compact = induced_gcsvd(minst, t)
    assert minst.equals(minst.compose(compact.r, compact.d, compact.s), a)
    direct = gcsvd_from_mp(minst, a, g)
    p, q = gcsvd_intertwiners(minst, direct, compact)
    assert is_unitary(minst, p) and is_unitary(minst, q)


def test_gsvd_triple_invariant_checks(minst):
    a = M([[0, 2], [0, 0]])
    t = gsvd_from_mp(minst, a, pinv(a))
    doctored = GSVDTriple(
        ComplexMatrix(t.u.array * 2), t.d, t.v, t.d_inv, t.dims, t.residuals
    )
    with pytest.raises(InputError):
        mp_from_gsvd(minst, doctored)


def test_gsvd_requires_kernel_capability(rel_inst):
    r = FiniteRelation.identity(2)
    with pytest.raises(CapabilityError):
        gsvd_from_mp(rel_inst, r, r.converse())


class _ShortKernelInstance(MatrixInstance):
    """A matrix instance whose kernel misses one direction of 1 - e."""

    def split_with_kernel(self, e):
        r, k = super().split_with_kernel(e)
        return r, ComplexMatrix(k.array[1:])


def test_gsvd_refuses_when_kernel_misses_the_complement():
    # the pair verifies and the compact form holds, but a kernel that
    # misses a direction cannot cover the source: the constructor must
    # notice and refuse rather than emit a non-unitary factor
    inst = _ShortKernelInstance(Tolerance(eq_tol=1e-2))
    f = M([[1, 0], [0, 1e-4]])
    f_mp = M([[1, 0], [0, 0]])
    assert verify_mp(inst, f, f_mp).all_hold
    with pytest.raises(DecompositionError, match="kernel_source") as exc:
        gsvd_from_mp(inst, f, f_mp)
    assert exc.value.residual == pytest.approx(1.0, rel=1e-6)


def test_gsvd_exists_where_gcsvd_does():
    # f° = diag(1, 0) passes as the inverse of diag(1, 1e-4) at eq_tol
    # 1e-2; the kernels come from the splits of f f° and f° f, so they
    # follow the rank the compact form uses, and both forms accept with
    # the reconstruction residual 1e-4
    inst = MatrixInstance(Tolerance(eq_tol=1e-2))
    f = M([[1, 0], [0, 1e-4]])
    f_mp = M([[1, 0], [0, 0]])
    compact = gcsvd_from_mp(inst, f, f_mp)
    full = gsvd_from_mp(inst, f, f_mp)
    assert full.dims == (1, 1, 1, 1)
    assert np.array_equal(full.d.array, compact.d.array)
    assert np.array_equal(full.u.array[:, :1], compact.r.array)
    assert np.array_equal(full.v.array[:1], compact.s.array)
    for t in (compact, full):
        assert t.residuals["reconstruction"] == pytest.approx(1e-4, rel=1e-6)


def test_gsvd_intertwiners_identity_on_same_triple(minst):
    rng = np.random.default_rng(223)
    a = _product_case(rng, 4, 3)
    t = gsvd_from_mp(minst, a, pinv(a))
    p, q, kp, kq = gsvd_intertwiners(minst, t, t)
    x, z, y, w = t.dims
    assert minst.equals(p, ComplexMatrix.identity(x))
    assert minst.equals(q, ComplexMatrix.identity(y))
    assert minst.equals(kp, ComplexMatrix.identity(z))
    assert minst.equals(kq, ComplexMatrix.identity(w))


def test_gsvd_intertwiners_recover_block_conjugation(minst):
    rng = np.random.default_rng(227)
    a = _product_case(rng, 5, 4)
    t1 = gsvd_from_mp(minst, a, pinv(a))
    x, z, y, w = t1.dims

    def rand_u(k):
        if k == 0:
            return ComplexMatrix.identity(0)
        q, _ = np.linalg.qr(uniform_complex(rng, k, k))
        return ComplexMatrix(q)

    wx, wz, wy, ww = rand_u(x), rand_u(z), rand_u(y), rand_u(w)
    left = direct_sum(wx, wz)
    right = direct_sum(wy, ww)
    # rotate each block and compensate inside the rank part of the middle
    t2 = GSVDTriple(
        minst.compose(t1.u, left),
        minst.compose(wx.dagger(), t1.d, wy),
        minst.compose(right.dagger(), t1.v),
        minst.compose(wy.dagger(), t1.d_inv, wx),
        t1.dims,
        t1.residuals,
    )
    assert minst.equals(minst.compose(t2.u, _padded(t2), t2.v), a)
    p, q, kp, kq = gsvd_intertwiners(minst, t1, t2)
    assert minst.equals(p, wx)
    assert minst.equals(q, wy)
    assert minst.equals(kp, wz)
    assert minst.equals(kq, ww)


# --- polar form -------------------------------------------------------------


def test_polar_of_unitary(minst):
    rng = np.random.default_rng(229)
    q, _ = np.linalg.qr(uniform_complex(rng, 3, 3))
    u = ComplexMatrix(q)
    pair = polar_from_mp(minst, u, u.dagger())
    assert minst.equals(pair.u, u)
    assert minst.equals(pair.h, ComplexMatrix.identity(3))
    assert set(pair.residuals) == {"partial_isometry", "range_projector", "reconstruction"}


def test_polar_frozen_nilpotent(minst):
    a = M([[0, 2], [0, 0]])
    pair = polar_from_mp(minst, a, pinv(a))
    assert np.allclose(pair.u.array, [[0, 1], [0, 0]], atol=1e-12)
    assert np.allclose(pair.h.array, [[0, 0], [0, 2]], atol=1e-12)
    assert minst.equals(minst.compose(pair.u, pair.h), a)


def test_polar_of_zero(minst):
    z = ComplexMatrix.zeros(3, 3)
    pair = polar_from_mp(minst, z, z)
    assert minst.equals(pair.u, z) and minst.equals(pair.h, z)


def test_polar_invariants_on_random_squares(minst):
    rng = np.random.default_rng(233)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        a = _product_case(rng, n, n)
        g = pinv(a)
        pair = polar_from_mp(minst, a, g)
        # factor through u: a = u h with h the square root of a† a
        assert minst.equals(minst.compose(pair.u, pair.h), a)
        assert minst.equals(
            minst.compose(pair.h, pair.h), minst.compose(a.dagger(), a)
        )
        assert minst.equals(
            minst.compose(pair.u, pair.u.dagger(), pair.u), pair.u
        )
        assert minst.equals(mp_from_polar(minst, pair), g)


def test_polar_of_rectangular_map(minst):
    # nothing forces endomorphisms: the positive part lives on the target
    rng = np.random.default_rng(231)
    a = _product_case(rng, 2, 4)
    g = pinv(a)
    pair = polar_from_mp(minst, a, g)
    assert pair.u.rows == 2 and pair.u.cols == 4
    assert pair.h.rows == 4 and pair.h.cols == 4
    assert minst.equals(minst.compose(pair.u, pair.h), a)
    assert minst.equals(mp_from_polar(minst, pair), g)


class _NotSelfAdjointRoot(MatrixInstance):
    def positive_part(self, f, f_mp=None):
        return M([[0, 1], [0, 0]]), M([[0, 0], [1, 0]])


class _WrongRootInverse(MatrixInstance):
    def positive_part(self, f, f_mp=None):
        return super().positive_part(f, f_mp)[0], ComplexMatrix.identity(2)


def test_polar_provider_output_is_checked():
    a = M([[1, 2], [2, 4]])
    g = pinv(a)
    for cls in (_NotSelfAdjointRoot, _WrongRootInverse):
        with pytest.raises(PreconditionError):
            polar_from_mp(cls(Tolerance(eq_tol=1e-9)), a, g)


class _RotatedRoot(MatrixInstance):
    def __init__(self, tolerance, w):
        super().__init__(tolerance)
        self._w = w

    def positive_part(self, f, f_mp=None):
        return rotated_root(f, self._w)


def test_polar_uniqueness_under_independent_square_roots(minst):
    rng = np.random.default_rng(239)
    for _ in range(15):
        n = int(rng.integers(1, 6))
        a = _product_case(rng, n, n)
        g = pinv(a)
        p1 = polar_from_mp(minst, a, g)

        # compute the root in a rotated basis; uniqueness says the polar
        # factors cannot depend on how the root was obtained
        q, _ = np.linalg.qr(uniform_complex(rng, n, n))
        p2 = polar_from_mp(_RotatedRoot(minst.tolerance, q), a, g)
        tol = 10 * minst.tolerance.eq_tol * max(1.0, a.norm())
        assert np.linalg.norm(p1.u.array - p2.u.array) <= tol
        assert np.linalg.norm(p1.h.array - p2.h.array) <= tol


def test_mp_from_polar_rejects_doctored_pair(minst):
    a = M([[0, 2], [0, 0]])
    pair = polar_from_mp(minst, a, pinv(a))
    from daggermp import PolarPair

    bad = PolarPair(ComplexMatrix(pair.u.array * 2), pair.h, pair.h_mp, pair.residuals)
    with pytest.raises(InputError):
        mp_from_polar(minst, bad)


@SCALING
@given(monomials())
def test_polar_of_a_monomial_matrix_is_exact(case):
    # The polar factors of a monomial matrix are known exactly: h is
    # diag(|w|) on the matched columns and u the partial permutation that
    # carries the phases w / |w|.  At the default cutoff c, as for pinv,
    # every |w| <= c counts as 0.  Wherever require_mp accepts pinv, polar
    # is accepted and both factors match byte for byte, once the sign of
    # zero is dropped (adding 0.0 makes -0.0 read 0.0).
    a, _, w = case
    n, m = a.shape
    f, inst = ComplexMatrix(a), MatrixInstance()
    g = pinv(f)
    assume(verify_mp(inst, f, g).all_hold)
    cut = max(n, m) * np.finfo(np.float64).eps * max(map(abs, w.values()), default=0.0)
    u, h = np.zeros((n, m), dtype=np.complex128), np.zeros((m, m), dtype=np.complex128)
    for (i, j), x in w.items():
        if abs(x) > cut:
            u[i, j], h[j, j] = x / abs(x), abs(x)
    pair = polar_from_mp(inst, f, g)
    assert (pair.u.array + 0.0).tobytes() == (u + 0.0).tobytes()
    assert (pair.h.array + 0.0).tobytes() == (h + 0.0).tobytes()


# --- the positive part from the SVD that built f° ----------------------------


def _count_svds(monkeypatch):
    """Record each call of _jacobi.one_sided_svd."""
    original, calls = _jacobi.one_sided_svd, []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(_jacobi, "one_sided_svd", counted)
    return calls


def _polar_bytes(pair):
    """The bytes of u, h and h° and the residuals of a polar record."""
    arrays = [x.array.tobytes() for x in (pair.u, pair.h, pair.h_mp)]
    return arrays, [(k, v.hex()) for k, v in pair.residuals.items()]


@pytest.mark.parametrize("rank_tol", [None, 1e-9])
@pytest.mark.parametrize("shape", [(6, 5, 2), (4, 7, 3), (5, 5, 5), (3, 4, 0)])
def test_polar_reads_the_svd_that_pinv_kept(shape, rank_tol, monkeypatch):
    # pinv's g keeps the SVD it was built from; a plain copy of g carries
    # none, so its positive part runs the SVD again, which is
    # deterministic: both polar records match byte for byte.
    f = ComplexMatrix(seeded_product(71, *shape))
    inst = MatrixInstance(Tolerance(rank_tol=rank_tol, eq_tol=1e-9))
    g = pinv(f, rank_tol=rank_tol)
    copy = ComplexMatrix(g.array)
    svds = _count_svds(monkeypatch)
    kept = polar_from_mp(inst, f, g)
    assert len(svds) == 0
    plain = polar_from_mp(inst, f, copy)
    assert len(svds) == 1
    assert _polar_bytes(kept) == _polar_bytes(plain)
    assert set(vars(f)) <= {"array", "_norm"}


def test_a_kept_svd_is_used_only_for_its_own_f_and_rank_tol(monkeypatch):
    f = ComplexMatrix(seeded_product(72, 6, 5, 2))
    g = pinv(f)
    inst = MatrixInstance(Tolerance(eq_tol=1e-9))
    twin = ComplexMatrix(f.array)  # equal entries, another object
    svds = _count_svds(monkeypatch)
    reference = _polar_bytes(polar_from_mp(inst, twin, g))
    assert len(svds) == 1
    assert _polar_bytes(polar_from_mp(inst, f, g)) == reference
    assert len(svds) == 1
    # Another rank_tol, 0.0 against None included, runs its own SVD.
    for rank_tol in (0.0, 1e-9):
        MatrixInstance(Tolerance(rank_tol=rank_tol)).positive_part(f, g)
    assert len(svds) == 3
    g0 = pinv(f, rank_tol=0.0)
    MatrixInstance().positive_part(f, g0)
    assert len(svds) == 5
    MatrixInstance(Tolerance(rank_tol=0.0)).positive_part(f, g0)
    assert len(svds) == 5


@pytest.mark.parametrize("shape", [(6, 5, 2), (4, 7, 3), (3, 4, 0), (0, 3, 0)])
def test_the_kept_factors_are_read_only(shape):
    rows, cols, rank = shape
    f = ComplexMatrix(seeded_product(73, *shape))
    a, rank_tol, s, v = vars(pinv(f))["_svd"]
    assert a is f and rank_tol is None
    assert s.shape == (rank,) and v.shape == (cols, rank)
    for x in (s, v):
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[...] = 0.0


@pytest.mark.parametrize("tamper", ["sigma", "columns"])
@pytest.mark.parametrize("eq_tol", [None, 1e-9])
def test_a_tampered_kept_svd_is_refused(tamper, eq_tol):
    # Polar measures whatever the positive part returns: σ scaled by
    # 1 + 1e-6 or two right vectors swapped still give a self-adjoint h
    # with its M-P inverse, but no partial isometry u = f h°.
    f = ComplexMatrix(seeded_product(74, 6, 5, 3))
    g = pinv(f)
    a, rank_tol, s, v = vars(g)["_svd"]
    if tamper == "sigma":
        s = s * (1.0 + 1e-6)
    else:
        v = v[:, [1, 0, 2]]
    object.__setattr__(g, "_svd", (a, rank_tol, s, v))
    tol = Tolerance() if eq_tol is None else Tolerance(eq_tol=eq_tol)
    with pytest.raises(DecompositionError, match="^polar form: partial_isometry"):
        polar_from_mp(MatrixInstance(tol), f, g)


# --- route agreement --------------------------------------------------------


def test_three_routes_agree_pairwise(small_matrix_corpus):
    for a in small_matrix_corpus[:60]:
        inst = PinnedScaleInstance(a.norm(), 1e-9)
        g = pinv(a)
        routes = [
            mp_from_gcsvd(inst, gcsvd_from_mp(inst, a, g)),
            mp_from_gsvd(inst, gsvd_from_mp(inst, a, g)),
            mp_from_polar(inst, polar_from_mp(inst, a, g)),
        ]
        bound = 10 * inst.tolerance.eq_tol * max(1.0, a.norm())
        for i in range(len(routes)):
            for j in range(i + 1, len(routes)):
                dev = np.linalg.norm(routes[i].array - routes[j].array)
                assert dev <= bound


def test_rel_compact_form_through_generic_constructor(rel_inst):
    r = FiniteRelation.from_pairs(3, 3, [(0, 0), (1, 0), (2, 1), (2, 2)])
    t = gcsvd_from_mp(rel_inst, r, r.converse())
    assert t.r.compose(t.d).compose(t.s) == r
    assert t.residuals["reconstruction"] == 0.0


def test_each_defining_equation_is_measured_once(minst, monkeypatch):
    rng = np.random.default_rng(61)
    f = ComplexMatrix(uniform_complex(rng, 6, 3) @ uniform_complex(rng, 3, 5))
    calls = []
    measure = MatrixInstance.deviation

    def counted(self, a, b):
        calls.append(1)
        return measure(self, a, b)

    monkeypatch.setattr(MatrixInstance, "deviation", counted)
    # 4 MP identities + 5 compact equations; gcsvd measures no split
    # equation, as the compact ones certify the unchecked splits.  gsvd:
    # + 2 kernel covers, 4 unitarity and 1 reconstruction; polar: 4 +
    # self-adjoint + the 4 of (h, h°) + 3, as the positive part comes from
    # the SVD of f and no gram is formed or checked.  Each route gets its own
    # candidate; run again on the same one, it skips the 4 MP identities
    # that its first run certified.
    for route, expected in ((gcsvd_from_mp, 9), (gsvd_from_mp, 16), (polar_from_mp, 12)):
        f_mp = pinv(f)
        for count in (expected, expected - 4):
            calls.clear()
            route(minst, f, f_mp)
            assert len(calls) == count, route.__name__
