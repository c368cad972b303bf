"""Dense complex matrices: factorizations checked against numpy oracles.

numpy.linalg is allowed here as an independent reference; the library
itself never calls it for anything beyond norms.
"""

import json

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import SCALING, products, seeded_product, uniform_complex
from daggermp import (
    ComplexMatrix,
    InputError,
    NumericError,
    PreconditionError,
    dagger_kernel,
    has_mp_wrt_transpose,
    herm_eig,
    herm_mp,
    hermitian_sqrt,
    is_positive,
    load_matrix,
    matrix_from_obj,
    matrix_to_obj,
    MatrixInstance,
    numeric_rank,
    pinv,
    save_matrix,
    svd,
    verify_mp,
)
from daggermp.core import EQ_TOL_DEFAULT
from daggermp.matrix import (
    _frobenius,
    _phases,
    _transpose_ranks,
    biproduct_injection,
    biproduct_projection,
    direct_sum,
    kernel_universality_holds,
    split_dagger_idempotent,
)

M = ComplexMatrix.from_rows


def random_cases(seed, count, max_dim=6):
    rng = np.random.default_rng(seed)
    for idx in range(count):
        n = int(rng.integers(1, max_dim + 1))
        m = int(rng.integers(1, max_dim + 1))
        if idx % 3 == 2:
            k = int(rng.integers(0, min(n, m)))
            arr = uniform_complex(rng, n, k) @ uniform_complex(rng, k, m)
        else:
            arr = uniform_complex(rng, n, m)
        yield ComplexMatrix(arr)


def test_matrix_validation():
    with pytest.raises(InputError):
        ComplexMatrix(np.zeros(3))
    with pytest.raises(InputError):
        ComplexMatrix(np.array([[np.inf, 0.0]]))
    with pytest.raises(InputError):
        ComplexMatrix(np.array([[np.nan, 0.0]]))
    a = M([[1, 2j]])
    with pytest.raises(InputError):
        a @ M([[1, 2j]])
    arr = a.array
    with pytest.raises(ValueError):
        arr[0, 0] = 5.0  # storage is frozen


def test_svd_against_numpy_oracle():
    for a in random_cases(101, 120):
        res = svd(a)
        n, m = a.rows, a.cols
        assert res.u.rows == res.u.cols == n
        assert res.v.rows == res.v.cols == m
        assert np.allclose(
            res.u.array @ res.u.array.conj().T, np.eye(n), atol=1e-12
        )
        assert np.allclose(
            res.v.array @ res.v.array.conj().T, np.eye(m), atol=1e-12
        )
        assert np.allclose(res.reconstruct().array, a.array, atol=1e-12)
        ref = np.linalg.svd(a.array, compute_uv=False)
        assert np.allclose(np.asarray(res.sigma), ref, atol=1e-11)
        assert all(
            res.sigma[i] >= res.sigma[i + 1] for i in range(len(res.sigma) - 1)
        )


def test_svd_rank_matches_oracle_on_products():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n, m = (int(x) for x in rng.integers(1, 7, 2))
        k = int(rng.integers(0, min(n, m) + 1))
        a = ComplexMatrix(
            uniform_complex(rng, n, k) @ uniform_complex(rng, k, m)
            if k
            else np.zeros((n, m))
        )
        assert svd(a).rank == np.linalg.matrix_rank(a.array)


def test_svd_frozen_examples():
    res = svd(M([[3, 0], [0, 4]]))
    assert res.sigma == (4.0, 3.0)
    assert res.rank == 2

    res = svd(M([[0, 2], [0, 0]]))
    assert np.allclose(res.sigma, (2.0, 0.0))
    assert res.rank == 1

    res = svd(ComplexMatrix.zeros(2, 3))
    assert res.sigma == (0.0, 0.0)
    assert res.rank == 0

    res = svd(ComplexMatrix.zeros(0, 3))
    assert res.sigma == () and res.rank == 0
    assert res.v.rows == 3


def test_svd_accepts_rank_tol_override():
    a = M([[1, 0], [0, 1e-7]])
    assert svd(a).rank == 2
    assert svd(a, rank_tol=1e-3).rank == 1
    assert numeric_rank(a, rank_tol=1e-3) == 1
    assert numeric_rank(a) == 2


def test_svd_is_deterministic():
    a = M([[1, 2j, 0], [3, 4, 5j]])
    r1, r2 = svd(a), svd(a)
    assert np.array_equal(r1.u.array, r2.u.array)
    assert np.array_equal(r1.v.array, r2.v.array)
    assert r1.sigma == r2.sigma


def test_svd_sweep_budget_exhaustion():
    rng = np.random.default_rng(3)
    a = ComplexMatrix(uniform_complex(rng, 5, 5))
    with pytest.raises(NumericError):
        svd(a, max_sweeps=1)


def test_pinv_against_numpy_oracle():
    for a in random_cases(307, 120):
        got = pinv(a)
        ref = np.linalg.pinv(a.array)
        assert np.allclose(got.array, ref, atol=1e-9 * max(1.0, a.norm()))


def test_pinv_frozen_examples():
    a = M([[1, 2], [2, 4]])
    assert np.allclose(pinv(a).array, a.array / 25.0, atol=1e-14)
    assert numeric_rank(a) == 1

    assert np.allclose(pinv(M([[4]])).array, [[0.25]])
    assert np.array_equal(pinv(M([[0]])).array, [[0.0]])
    assert np.array_equal(pinv(ComplexMatrix.zeros(2, 3)).array, np.zeros((3, 2)))


def test_pinv_involution_and_inverse_agreement():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n, m = (int(x) for x in rng.integers(1, 6, 2))
        a = ComplexMatrix(uniform_complex(rng, n, m))
        back = pinv(pinv(a))
        assert np.allclose(back.array, a.array, atol=1e-10 * max(1.0, a.norm()))
    for _ in range(20):
        n = int(rng.integers(1, 6))
        arr = uniform_complex(rng, n, n) + 3.0 * np.eye(n)
        a = ComplexMatrix(arr)
        assert np.allclose(pinv(a).array, np.linalg.inv(arr), atol=1e-10)


def test_transpose_dagger_existence():
    assert not has_mp_wrt_transpose(M([[1j, 1]]))
    assert has_mp_wrt_transpose(M([[1, 1]]))
    assert has_mp_wrt_transpose(M([[1, 0], [0, 0]]))
    rng = np.random.default_rng(37)
    for _ in range(30):
        n, m = (int(x) for x in rng.integers(1, 6, 2))
        real = ComplexMatrix(rng.uniform(-1, 1, (n, m)))
        assert has_mp_wrt_transpose(real)


def test_transpose_existence_does_not_depend_on_scale():
    # a aᵀ of [[1e-310]] underflows and that of the second overflows
    # unless a is scaled first; every real matrix has an inverse
    assert _transpose_ranks(M([[1e-310]])) == (1, 1, 1)
    assert has_mp_wrt_transpose(M([[1e-310]]))
    assert has_mp_wrt_transpose(M([[1e200, 1], [1, 1]]))
    assert has_mp_wrt_transpose(M([[5e-324, 0], [0, 5e-324]]))
    rng = np.random.default_rng(38)
    for _ in range(20):
        n, m = (int(x) for x in rng.integers(1, 6, 2))
        k = int(rng.integers(1, min(n, m) + 1))
        arr = uniform_complex(rng, n, k) @ uniform_complex(rng, k, m)
        ranks = _transpose_ranks(ComplexMatrix(arr))
        for e in (-1000, -300, 300, 1000):
            assert _transpose_ranks(ComplexMatrix(arr * 2.0**e)) == ranks
    # an explicit cutoff is scaled with a, so it keeps its meaning
    assert _transpose_ranks(M([[1e-310]]), 0.0) == (1, 1, 1)
    assert _transpose_ranks(M([[1e-310]]), 1e-300) == (0, 0, 0)
    assert _transpose_ranks(M([[1e300]]), 1e-300) == (1, 1, 1)
    assert not has_mp_wrt_transpose(M([[1j * 2.0**-1000, 2.0**-1000]]))
    assert not has_mp_wrt_transpose(M([[1j * 2.0**1000, 2.0**1000]]))


def test_herm_eig_against_numpy_oracle():
    rng = np.random.default_rng(41)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        raw = uniform_complex(rng, n, n)
        p = ComplexMatrix((raw + raw.conj().T) / 2.0)
        res = herm_eig(p)
        assert np.allclose(res.reconstruct().array, p.array, atol=1e-12)
        assert np.allclose(
            res.q.array @ res.q.array.conj().T, np.eye(n), atol=1e-12
        )
        ref = np.linalg.eigvalsh(p.array)[::-1]
        assert np.allclose(np.asarray(res.eigenvalues), ref, atol=1e-11)


def test_herm_eig_input_checks():
    with pytest.raises(InputError):
        herm_eig(ComplexMatrix.zeros(2, 3))
    with pytest.raises(InputError):
        herm_eig(M([[0, 1], [0, 0]]))
    assert herm_eig(ComplexMatrix.identity(0)).eigenvalues == ()


def test_herm_mp_is_an_eigenvalue_route():
    assert np.allclose(herm_mp(M([[2, 0], [0, 0]])).array, [[0.5, 0], [0, 0]])
    rng = np.random.default_rng(43)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        raw = uniform_complex(rng, n, n)
        p = ComplexMatrix((raw + raw.conj().T) / 2.0)
        assert np.allclose(
            herm_mp(p).array,
            np.linalg.pinv(p.array),
            atol=1e-9 * max(1.0, p.norm()),
        )


def test_split_dagger_idempotent_examples():
    r = split_dagger_idempotent(ComplexMatrix.identity(2))
    assert r.cols == 2
    assert np.allclose(r.array @ r.array.conj().T, np.eye(2), atol=1e-12)

    r = split_dagger_idempotent(M([[1, 0], [0, 0]]))
    assert np.allclose(r.array, [[1.0], [0.0]], atol=1e-12)

    r = split_dagger_idempotent(M([[0.5, 0.5], [0.5, 0.5]]))
    assert np.allclose(r.array, np.array([[1.0], [1.0]]) / np.sqrt(2), atol=1e-12)

    r = split_dagger_idempotent(ComplexMatrix.zeros(2, 2))
    assert r.cols == 0 and r.rows == 2


def test_split_dagger_idempotent_rejections():
    with pytest.raises(PreconditionError):
        split_dagger_idempotent(M([[2, 0], [0, 0]]))
    with pytest.raises(InputError):
        split_dagger_idempotent(M([[1, 1], [0, 0]]))  # idempotent, not hermitian
    with pytest.raises(InputError):
        split_dagger_idempotent(ComplexMatrix.zeros(2, 3))


def test_split_dagger_idempotent_random_projectors():
    rng = np.random.default_rng(47)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(0, n + 1))
        q, _ = np.linalg.qr(uniform_complex(rng, n, n))
        e = ComplexMatrix(q[:, :k] @ q[:, :k].conj().T)
        r = split_dagger_idempotent(e)
        assert r.cols == k
        assert np.allclose(r.array @ r.array.conj().T, e.array, atol=1e-12)
        assert np.allclose(
            r.array.conj().T @ r.array, np.eye(k), atol=1e-12
        )


def test_dagger_kernel_examples():
    k = dagger_kernel(ComplexMatrix.identity(2))
    assert k.rows == 0 and k.cols == 2

    k = dagger_kernel(ComplexMatrix.zeros(2, 3))
    assert k.rows == 2
    assert np.allclose(k.array @ k.array.conj().T, np.eye(2), atol=1e-12)

    k = dagger_kernel(M([[1, 0], [1, 0]]))
    assert np.allclose(k.array, np.array([[1.0, -1.0]]) / np.sqrt(2), atol=1e-12)


def test_dagger_kernel_annihilates_and_spans():
    rng = np.random.default_rng(53)
    for _ in range(40):
        n, m = (int(x) for x in rng.integers(1, 7, 2))
        k_in = int(rng.integers(0, min(n, m) + 1))
        a = ComplexMatrix(
            uniform_complex(rng, n, k_in) @ uniform_complex(rng, k_in, m)
            if k_in
            else np.zeros((n, m))
        )
        k = dagger_kernel(a)
        assert k.rows == n - numeric_rank(a)
        assert np.allclose(k.array @ a.array, 0.0, atol=1e-12)
        assert np.allclose(
            k.array @ k.array.conj().T, np.eye(k.rows), atol=1e-12
        )


def test_kernel_universality():
    a = M([[1, 0], [1, 0]])
    k = dagger_kernel(a)
    g = M([[2, -2]])
    assert kernel_universality_holds(a, k, g)
    with pytest.raises(InputError):
        kernel_universality_holds(a, k, M([[1, 0]]))  # does not annihilate
    with pytest.raises(InputError):
        kernel_universality_holds(a, k, M([[1, 0, 0]]))


def test_kernel_universality_has_no_absolute_floor():
    # |g a| = 1e-20 = |g| |a|: g annihilates nothing, at any scale.
    a = M([[1, 0], [0, 0]])
    k = dagger_kernel(a)
    with pytest.raises(InputError, match="does not annihilate"):
        kernel_universality_holds(a, k, M([[1e-20, 0]]))
    assert kernel_universality_holds(a, k, M([[0, 1e-20]]))
    # g a is rounding noise, not zero: bounded by |g| |a| at every scale.
    a = ComplexMatrix(seeded_product(5, 4, 3, 2))
    k = dagger_kernel(a)
    g = seeded_product(6, 1, 2, 2) @ k.array
    assert np.linalg.norm(g @ a.array) > 0.0
    for scale in (1e-20, 1.0, 1e20):
        assert kernel_universality_holds(a, k, ComplexMatrix(g * scale))


def test_hermitian_sqrt_examples():
    assert np.allclose(
        hermitian_sqrt(M([[4, 0], [0, 9]])).array, [[2, 0], [0, 3]], atol=1e-13
    )
    assert np.allclose(
        hermitian_sqrt(M([[0, 0], [0, 4]])).array, [[0, 0], [0, 2]], atol=1e-13
    )
    h = hermitian_sqrt(M([[2, 1], [1, 2]]))
    assert np.allclose(h.array @ h.array, [[2, 1], [1, 2]], atol=1e-12)
    assert np.allclose(h.array, h.array.conj().T)
    with pytest.raises(InputError):
        hermitian_sqrt(M([[-1, 0], [0, 1]]))


def test_hermitian_sqrt_random_psd():
    rng = np.random.default_rng(59)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(0, n + 1))
        b = uniform_complex(rng, n, k) if k else np.zeros((n, 0))
        p = ComplexMatrix(b @ b.conj().T)
        h = hermitian_sqrt(p)
        assert np.allclose(
            h.array @ h.array, p.array, atol=1e-11 * max(1.0, p.norm())
        )
        lam = np.linalg.eigvalsh(h.array)
        assert lam.size == 0 or lam.min() > -1e-12


def test_direct_sum_and_biproduct_maps():
    d = direct_sum(M([[1]]), M([[2]]))
    assert np.array_equal(d.array, [[1, 0], [0, 2]])
    a = M([[1, 2j], [3, 4]])
    assert np.array_equal(
        direct_sum(ComplexMatrix.zeros(0, 0), a).array, a.array
    )

    i0 = biproduct_injection((2, 3), 0)
    i1 = biproduct_injection((2, 3), 1)
    p0 = biproduct_projection((2, 3), 0)
    p1 = biproduct_projection((2, 3), 1)
    assert i0.rows == 2 and i0.cols == 5
    assert p0.rows == 5 and p0.cols == 2
    assert np.array_equal((i0 @ p0).array, np.eye(2))
    assert np.array_equal((i1 @ p1).array, np.eye(3))
    assert np.array_equal((i0 @ p1).array, np.zeros((2, 3)))
    # the two injections jointly cover the sum
    cover = p0.array @ i0.array + p1.array @ i1.array
    assert np.array_equal(cover, np.eye(5))
    with pytest.raises(InputError):
        biproduct_injection((2, 3), 2)


def test_json_round_trip(tmp_path):
    rng = np.random.default_rng(61)
    a = ComplexMatrix(uniform_complex(rng, 3, 2))
    obj = matrix_to_obj(a)
    assert obj["rows"] == 3 and obj["cols"] == 2
    back = matrix_from_obj(obj)
    assert np.array_equal(back.array, a.array)
    # serialization is byte-stable
    assert json.dumps(matrix_to_obj(a)) == json.dumps(matrix_to_obj(back))

    path = tmp_path / "a.json"
    save_matrix(a, str(path))
    assert np.array_equal(load_matrix(str(path)).array, a.array)


def test_json_rejects_malformed_objects():
    good = matrix_to_obj(ComplexMatrix.identity(2))
    for breakage in (
        lambda o: o.pop("rows"),
        lambda o: o.update(rows="2"),
        lambda o: o.update(data=[[1.0, 0.0]]),          # wrong length
        lambda o: o.update(data=[[1.0], [0], [0], [1]]),  # wrong arity
        lambda o: o.update(extra=1),
        lambda o: o.update(data="nope"),
        lambda o: o.update(rows=True),
        lambda o: o.update(cols=False),
        lambda o: o.update(data=[[True, False], [0, 0], [0, 0], [1, 0]]),
    ):
        obj = json.loads(json.dumps(good))
        breakage(obj)
        with pytest.raises(InputError):
            matrix_from_obj(obj)
    with pytest.raises(InputError):
        matrix_from_obj([1, 2, 3])


def test_overflowing_product_is_a_numeric_error():
    with pytest.raises(NumericError) as exc:
        M([[1e200]]) @ M([[1e200]])
    assert not isinstance(exc.value, InputError)


@pytest.mark.parametrize("scale", [1e-160, 1e-100, 1e100, 1e160])
def test_kernels_are_scale_safe(scale):
    rng = np.random.default_rng(21)
    base = uniform_complex(rng, 5, 3) @ uniform_complex(rng, 3, 4)
    a = ComplexMatrix(base * scale)
    assert numeric_rank(a) == 3
    assert verify_mp(MatrixInstance(), a, pinv(a)).all_hold


def _phase_by_loop(col, cutoff):
    """The phase rule one column at a time, in Python complex arithmetic."""
    above = [z for z in col.tolist() if abs(z) > cutoff]
    z = above[0] if above else complex(col[int(np.argmax(np.abs(col)))])
    return z.conjugate() / abs(z) if z else 1.0


def test_phases_follow_the_column_loop():
    rng = np.random.default_rng(12)
    cols = np.zeros((3, 5), dtype=np.complex128)
    cols[:, 0] = [1e-20, 3.0, 1 - 1j]  # first entry above the cutoff is real
    cols[:, 1] = [1e-20j, -2e-20j, 0.0]  # none above: the largest decides
    cols[:, 3:] = uniform_complex(rng, 3, 2)  # column 2 stays zero
    got = _phases(cols, 1e-15)
    ref = [_phase_by_loop(cols[:, j], 1e-15) for j in range(5)]
    assert np.allclose(got, ref, rtol=0.0, atol=2 * np.finfo(float).eps)
    assert got[:3].tolist() == [1.0, 1j, 1.0]


@SCALING
@given(a=products(tall=False, max_dim=8), k=st.integers(-300, 300))
def test_factorizations_commute_with_power_of_two_scaling(a, k):
    f, f_k = ComplexMatrix(a), ComplexMatrix(a * 2.0**k)
    res, res_k = svd(f), svd(f_k)
    assert res_k.u.array.tobytes() == res.u.array.tobytes()
    assert res_k.v.array.tobytes() == res.v.array.tobytes()
    assert res_k.sigma == tuple(s * 2.0**k for s in res.sigma)
    assert res_k.rank == res.rank
    assert np.array_equal(pinv(f_k).array, pinv(f).array * 2.0**-k)
    p = a.conj().T @ a
    eig = herm_eig(ComplexMatrix(p))
    eig_k = herm_eig(ComplexMatrix(p * 2.0**k))
    assert eig_k.q.array.tobytes() == eig.q.array.tobytes()
    assert eig_k.eigenvalues == tuple(x * 2.0**k for x in eig.eigenvalues)


def test_pinv_of_a_huge_triangle_is_verified():
    a = M([[1e100, 1e100], [0, 1e100]])
    assert verify_mp(MatrixInstance(), a, pinv(a)).all_hold


def test_norm_does_not_overflow():
    got = ComplexMatrix(np.full((2, 2), 1e160)).norm()
    assert abs(got - 2e160) <= 1e-15 * 2e160
    assert ComplexMatrix(np.full((2, 2), 1e-170)).norm() > 0.0
    assert ComplexMatrix.zeros(2, 2).norm() == 0.0


@pytest.mark.parametrize("scale", [1e-15, 1e-200])
def test_zero_is_not_the_inverse_of_a_small_matrix(scale):
    f = ComplexMatrix(seeded_product(21, 5, 4, 3) * scale)
    report = verify_mp(MatrixInstance(), f, ComplexMatrix.zeros(4, 5))
    assert not report.mp1 and not report.all_hold


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_pinv_verifies_at_extreme_scales(scale):
    f = ComplexMatrix(seeded_product(21, 5, 4, 3) * scale)
    g = pinv(f)
    assert verify_mp(MatrixInstance(), f, g).all_hold
    ref = np.linalg.pinv(seeded_product(21, 5, 4, 3))
    assert np.linalg.norm(g.array * scale - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_non_hermitian_matrix_is_refused_at_every_scale(scale):
    p = M([[1, 1], [0, 1]]).array * scale
    with pytest.raises(InputError, match="not Hermitian"):
        herm_eig(ComplexMatrix(p))
    assert not is_positive(MatrixInstance(), ComplexMatrix(p))
    assert is_positive(MatrixInstance(), ComplexMatrix(np.eye(2) * scale))


def test_exact_inverse_verifies_where_the_factor_norm_bound_overflows():
    # |f| (|f| |g|) = 1e300 * 1e10 overflows; every residual is 0.
    f = ComplexMatrix(np.diag([1e300, 1e290]).astype(complex))
    g = pinv(f)
    assert np.allclose(g.array, np.diag([1e-300, 1e-290]), rtol=1e-15, atol=0.0)
    report = verify_mp(MatrixInstance(), f, g)
    assert report.all_hold and report.residuals == (0.0, 0.0, 0.0, 0.0)


def test_ill_conditioned_inverse_verifies_on_the_factor_norm_bound():
    # |f| |g| = 1.6e9: f g f and g f g miss f and g by about 1e-9
    # relative, far above eq_tol at cond 1 but within eq_tol |f| |g|.
    rng = np.random.default_rng(3)
    q = np.linalg.qr(uniform_complex(rng, 4, 4))[0]
    f = ComplexMatrix(q @ np.diag([1, 1e-3, 1e-6, 1e-9]) @ q.conj().T)
    g = pinv(f)
    report = verify_mp(MatrixInstance(), f, g)
    assert report.all_hold
    assert report.residuals[0] > 1e3 * EQ_TOL_DEFAULT * f.norm()
    assert report.residuals[1] > 1e3 * EQ_TOL_DEFAULT * g.norm()


@SCALING
@given(a=products(tall=False, max_dim=8), j=st.integers(0, 900))
def test_a_candidate_cannot_widen_its_own_bound(a, j):
    # f = a (+) 0 and g = pinv(a) (+) t: g f g misses g by t.  With
    # t >= 1 / (eq_tol |f|) the slack eq_tol |f| |g| is at least 1, so
    # MP2 must fail, however large t makes the factor-norm bound.
    f = np.zeros((a.shape[0] + 1, a.shape[1] + 1), complex)
    f[:-1, :-1] = a
    norm = np.linalg.norm(a)
    assume(norm > 0.0)
    g = np.zeros_like(f.T)
    g[:-1, :-1] = pinv(ComplexMatrix(a)).array
    g[-1, -1] = 2.0**j / (EQ_TOL_DEFAULT * norm)
    report = verify_mp(MatrixInstance(), ComplexMatrix(f), ComplexMatrix(g))
    assert not report.mp2 and not report.all_hold


def test_frobenius_of_an_overflowed_entry_is_inf():
    assert _frobenius(np.array([[-np.inf + 0j, 1.0]])) == np.inf
    assert _frobenius(np.array([[1.0, complex(0.0, np.inf)]])) == np.inf


@SCALING
@given(
    a=products(tall=False, max_dim=8),
    k=st.integers(-300, 300),
    candidate=st.sampled_from(["pinv", "noisy", "zero"]),
)
def test_verify_mp_verdicts_commute_with_power_of_two_scaling(a, k, candidate):
    f = ComplexMatrix(a)
    g = pinv(f).array
    if candidate == "noisy":
        g = g + 1e-9 * seeded_product(abs(k), a.shape[1], a.shape[0], 2)
    elif candidate == "zero":
        g = np.zeros_like(g)
    inst = MatrixInstance()
    report = verify_mp(inst, f, ComplexMatrix(g))
    scaled = verify_mp(inst, ComplexMatrix(a * 2.0**k), ComplexMatrix(g * 2.0**-k))
    verdicts = (report.mp1, report.mp2, report.mp3, report.mp4)
    assert (scaled.mp1, scaled.mp2, scaled.mp3, scaled.mp4) == verdicts


# Overflow of a computed value from finite input is a NumericError, never
# the InputError that the public constructor raises on outside input.


def test_a_reciprocal_that_overflows_is_a_numeric_error():
    tiny = M([[1e-310]])  # 1/1e-310 overflows
    for route in (pinv, herm_mp):
        with pytest.raises(NumericError):
            route(tiny)


def test_a_sum_that_overflows_is_a_numeric_error():
    with pytest.raises(NumericError):
        MatrixInstance().add(M([[1e308]]), M([[1e308]]))


@pytest.mark.parametrize("route", [svd, pinv, herm_eig])
def test_a_singular_value_or_eigenvalue_that_overflows_is_a_numeric_error(route):
    # Finite entries; the largest singular value and eigenvalue are 2e308.
    with pytest.raises(NumericError):
        route(M([[1e308, 1e308], [1e308, 1e308]]))


@pytest.mark.parametrize(
    "p, eigenvalues",
    [
        (np.diag([1.7e308, 0.0]), (1.7e308, 0.0)),  # p + p† overflows
        ([[5e-324]], (5e-324,)),  # p/2 rounds to 0
        ([[1.5e-323]], (1.5e-323,)),
        ([[1.5e-323, 5e-324], [5e-324, 1.5e-323]], (2e-323, 1e-323)),
    ],
)
def test_herm_eig_symmetrizes_without_overflow_or_underflow(p, eigenvalues):
    assert herm_eig(M(p)).eigenvalues == eigenvalues


def test_subnormal_hermitian_input_is_not_rounded_to_zero():
    np.testing.assert_allclose(
        hermitian_sqrt(M([[5e-324]])).array, [[np.sqrt(5e-324)]], rtol=1e-15
    )
    with pytest.raises(NumericError):  # 1/5e-324 overflows
        herm_mp(M([[5e-324]]))
