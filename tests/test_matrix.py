"""Dense complex matrices: factorizations checked against numpy oracles.

numpy.linalg is allowed here as an independent reference; the library
itself never calls it for anything beyond norms.
"""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import (
    HARD_INPUTS,
    SCALING,
    graded_columns,
    monomials,
    products,
    row_graded,
    seeded_product,
    uniform_complex,
)
from daggermp import (
    _jacobi,
    matrix,
    ComplexMatrix,
    DaggerError,
    InputError,
    NumericError,
    PreconditionError,
    dagger_kernel,
    gsvd_from_mp,
    has_mp_wrt_transpose,
    herm_eig,
    herm_mp,
    hermitian_sqrt,
    is_positive,
    matrix_from_obj,
    matrix_to_obj,
    MatrixInstance,
    PInjInstance,
    numeric_rank,
    pinv,
    polar_from_mp,
    svd,
    verify_mp,
)
from daggermp.core import EQ_TOL_DEFAULT, within
from daggermp.matrix import (
    _FLAG_FREE,
    _computed,
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


@SCALING
@given(monomials())
def test_a_monomial_matrix_meets_its_exact_inverse_rank_and_values(case):
    # The 0/1 matrix of a partial injection is a dagger functor's image, so
    # the inverse puts 1/w at the pairs of the injection's inverse.  At the
    # default cutoff c every |w| <= c counts as 0.  The bytes compare with
    # the sign of zero dropped (adding 0.0 makes -0.0 read 0.0).
    a, p, w = case
    n, m = a.shape
    mags = sorted((abs(x) for x in w.values()), reverse=True)
    cut = max(n, m) * np.finfo(np.float64).eps * (mags[0] if mags else 0.0)
    ref = np.zeros((m, n), dtype=np.complex128)
    for j, i in PInjInstance().mp(p).pairs:
        if abs(w[i, j]) > cut:
            ref[j, i] = 1 / w[i, j]
    f = ComplexMatrix(a)
    assert (pinv(f).array + 0.0).tobytes() == (ref + 0.0).tobytes()
    assert numeric_rank(f) == sum(x > cut for x in mags)
    assert svd(f).sigma[: len(mags)] == tuple(mags)


def test_svd_sweep_budget_exhaustion(monkeypatch):
    # svd passes on the kernel's NumericError; give the kernel one sweep
    monkeypatch.setattr(_jacobi, "MAX_SWEEPS", 1)
    rng = np.random.default_rng(3)
    a = ComplexMatrix(uniform_complex(rng, 5, 5))
    with pytest.raises(NumericError):
        svd(a)


def test_pinv_against_numpy_oracle():
    for a in random_cases(307, 120):
        got = pinv(a)
        ref = np.linalg.pinv(a.array)
        assert np.allclose(got.array, ref, atol=1e-9 * max(1.0, a.norm()))


# Tall, wide and rank-deficient shapes up to 256 x 8: (rows, cols, inner).
THIN_SHAPES = [
    (256, 8, 8), (128, 4, 4), (256, 8, 3), (9, 1, 1), (8, 64, 8), (4, 24, 4),
    (8, 64, 5), (1, 9, 1), (48, 48, 24), (16, 16, 16), (16, 16, 7), (6, 5, 0),
]


@pytest.mark.parametrize("rank_tol", [None, 1e-9])
@pytest.mark.parametrize("shape", THIN_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_pinv_of_the_thin_svd_against_numpy_oracle(shape, rank_tol):
    # The bound of test_pinv_against_numpy_oracle; numpy's default cutoff
    # and 1e-9 both fall between the kept and the noise-level values.
    a = ComplexMatrix(seeded_product(sum(shape), *shape))
    ref = np.linalg.pinv(a.array)
    got = pinv(a, rank_tol=rank_tol)
    assert np.allclose(got.array, ref, atol=1e-9 * max(1.0, a.norm()))
    assert numeric_rank(a, rank_tol=rank_tol) == np.linalg.matrix_rank(a.array)


@pytest.mark.parametrize("shape", [(256, 8), (8, 256)])
def test_pinv_asks_the_kernel_for_the_leading_columns_only(shape, monkeypatch):
    kernel = _jacobi.one_sided_svd
    widths = []

    def recording(a, **kw):
        out = kernel(a, **kw)
        widths.append(out[0].shape[1])
        return out

    monkeypatch.setattr(_jacobi, "one_sided_svd", recording)
    a = ComplexMatrix(uniform_complex(np.random.default_rng(8), *shape))
    pinv(a)
    pinv(a, rank_tol=1e-9)
    numeric_rank(a)
    assert widths and max(widths) <= 8


@pytest.mark.parametrize("shape", [(48, 48, 24), (256, 8, 3), (8, 64, 5), (6, 5, 0)])
def test_the_deflated_thin_svd_completes_no_right_vector(shape, monkeypatch):
    # At the default cutoff the factor on the smaller side holds exactly
    # the rank's vectors, with no completion to an orthonormal basis.
    def refuse(u, k):
        raise AssertionError("completed a right vector")

    monkeypatch.setattr(_jacobi, "_complete_columns", refuse)
    a = ComplexMatrix(seeded_product(sum(shape), *shape))
    u, _, v, rank = matrix._thin_svd(a, None)
    assert rank == numeric_rank(a) == shape[2]
    assert (v if a.rows >= a.cols else u).shape[1] == rank
    if rank:
        ref = np.linalg.pinv(a.array)
        assert np.allclose(pinv(a).array, ref, atol=1e-9 * a.norm())


@pytest.mark.parametrize("shape", [(48, 48, 24), (256, 8, 3), (8, 64, 5)])
def test_the_default_rank_is_capped_at_the_vectors_formed(shape, monkeypatch):
    # Unscaling values into the subnormal range can round one above the
    # cutoff it was below; counting every value stands in for that.
    a = ComplexMatrix(seeded_product(sum(shape), *shape))
    ref = pinv(a).array
    monkeypatch.setattr(matrix, "_svd_rank", lambda s, rows, cols, tol: len(s))
    assert numeric_rank(a) == shape[2]
    assert np.array_equal(pinv(a).array, ref)


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
    # the products' singular values are squares of a's, so is their cutoff
    assert _transpose_ranks(M([[1e-6]]), 1e-10) == (1, 1, 1)
    assert _transpose_ranks(M([[1e-6]]), 1e-5) == (0, 0, 0)
    assert _transpose_ranks(M([[1, 0], [0, 1e-6]]), 1e-7) == (2, 2, 2)
    assert _transpose_ranks(M([[1, 0], [0, 1e-6]]), 1e-5) == (1, 1, 1)
    assert not has_mp_wrt_transpose(M([[1j * 2.0**-1000, 2.0**-1000]]))
    assert not has_mp_wrt_transpose(M([[1j * 2.0**1000, 2.0**1000]]))


@pytest.mark.parametrize(
    "a, ranks",
    [
        (HARD_INPUTS["hilbert8"], (8, 8, 8)),
        (HARD_INPUTS["kahan20"], (20, 20, 20)),
        # c [1, i] with c = 0.3 + 0.7i: a aᵀ = c² (1 + i²) = 0 exactly
        ((0.3 + 0.7j) * np.array([[1.0, 1j]]), (1, 0, 1)),
    ],
    ids=["hilbert8", "kahan20", "isotropic"],
)
def test_transpose_ranks_come_from_the_singular_bases(a, ranks):
    assert _transpose_ranks(ComplexMatrix(a)) == ranks
    assert has_mp_wrt_transpose(ComplexMatrix(a)) is (ranks[0] == ranks[1] == ranks[2])


def real_orthogonal(seed, n):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return q


def signed_permutation(seed, n):
    rng = np.random.default_rng(seed)
    return np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], n)


@SCALING
@given(
    a=products(tall=False, max_dim=6),
    k=st.integers(-600, 600),
    seed=st.integers(0, 2**32 - 1),
)
def test_transpose_verdict_survives_scaling_and_real_rotations(a, k, seed):
    # The transpose dagger is not unitarily invariant: only real
    # orthogonal o1, o2 keep (o1 a o2)ᵀ = o2ᵀ aᵀ o1ᵀ.
    n, m = a.shape
    verdict = has_mp_wrt_transpose(ComplexMatrix(a))
    rotated = real_orthogonal(seed, n) @ a @ real_orthogonal(seed + 1, m)
    assert has_mp_wrt_transpose(ComplexMatrix(a * 2.0**k)) is verdict
    assert has_mp_wrt_transpose(ComplexMatrix(rotated)) is verdict


@SCALING
@given(
    case=st.integers(0, 2**32 - 1),
    m=st.integers(2, 6),
    k=st.integers(-600, 600),
    seed=st.integers(0, 2**32 - 1),
)
def test_isotropic_rows_have_no_transpose_inverse(case, m, k, seed):
    # a = x yᵀ with yᵀ y = 0 exactly.  A rounded rotation would move a
    # off that variety, where the verdict is ill-posed, so the real
    # orthogonal maps here are signed permutations, which are exact.
    rng = np.random.default_rng(case)
    n = int(rng.integers(1, 5))
    y = np.zeros(m, dtype=complex)
    y[:2] = (1.0, 1j)
    a = np.outer(uniform_complex(rng, n, 1), y)
    for b in (a * 2.0**k, signed_permutation(seed, n) @ a @ signed_permutation(seed, m)):
        assert _transpose_ranks(ComplexMatrix(b)) == (1, 0, 1)


@pytest.mark.parametrize("name", ["hilbert8", "kahan20", "graded5"])
def test_real_inputs_keep_their_transpose_inverse(name):
    a = HARD_INPUTS[name]
    o1, o2 = real_orthogonal(3, a.shape[0]), real_orthogonal(4, a.shape[1])
    for b in (a, a * 2.0**-600, a * 2.0**600, o1 @ a @ o2):
        assert has_mp_wrt_transpose(ComplexMatrix(b))


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
    with pytest.raises(PreconditionError):
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
    with pytest.raises(PreconditionError):
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


@st.composite
def rank_deficient(draw, max_dim=8):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    inner = draw(st.integers(0, min(rows, cols) - 1))
    return seeded_product(draw(st.integers(0, 2**32 - 1)), rows, cols, inner)


@SCALING
@given(f=rank_deficient(), k=st.sampled_from([-600, 600]))
def test_split_of_computed_projectors_has_the_rank_of_f(f, k):
    f = ComplexMatrix(f * 2.0**k)
    g, rank = pinv(f), svd(f).rank
    for e in (f @ g, g @ f):
        r = split_dagger_idempotent(e).array
        assert r.shape == (e.rows, rank)
        assert within(_frobenius(r @ r.conj().T - e.array), e.norm(), EQ_TOL_DEFAULT)
        eye_dev = _frobenius(r.conj().T @ r - np.eye(rank))
        assert within(eye_dev, np.sqrt(rank), EQ_TOL_DEFAULT)


def test_split_keeps_the_columns_of_the_untruncated_qr():
    # The QR stops after k = trace(e) reflectors; the later ones never
    # touch the first k columns of Q, so r keeps its bytes.  Every
    # corpus shape, full rank and a product of rank min(rows, cols) // 2.
    inst = MatrixInstance()
    for seed, (rows, cols, half) in enumerate(
        (n, m, half) for n in range(1, 9) for m in range(1, 9) for half in (False, True)
    ):
        inner = min(rows, cols) // 2 if half else max(rows, cols)
        f = ComplexMatrix(seeded_product(seed, rows, cols, inner))
        for e in (f @ pinv(f), pinv(f) @ f):
            k = round(float(np.trace(e.array).real))
            scaled = e.array * 2.0 ** _jacobi._pow2_exponent(e.array)
            q = _jacobi._qrcp(scaled)[0][:, :k]
            q *= _phases(q, e.rows * np.finfo(float).eps)
            assert inst.split_idempotent(e).array.tobytes() == q.tobytes()


def test_split_runs_no_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the split ran the eigensolver")

    monkeypatch.setattr(_jacobi, "hermitian_jacobi", refuse)
    r = split_dagger_idempotent(M([[0.5, 0.5j], [-0.5j, 0.5]]))
    assert np.allclose(r.array @ r.array.conj().T, [[0.5, 0.5j], [-0.5j, 0.5]])


@pytest.mark.parametrize("k", [-600, 0, 600])
def test_split_refuses_non_hermitian_and_non_idempotent_input(k):
    q, _ = np.linalg.qr(uniform_complex(np.random.default_rng(48), 4, 4))
    near = 0.9 * q[:, :2] @ q[:, :2].conj().T  # Hermitian, eigenvalues 0.9 and 0
    for e, what in (
        ([[1, 1], [0, 0]], "self_adjoint"),  # idempotent, not Hermitian
        ([[1, 1e-6], [0, 1]], "self_adjoint"),
        ([[2, 0], [0, 0]], "recomposition"),
        (0.5 * np.eye(3), "recomposition"),
        (near, "recomposition"),
    ):
        with pytest.raises(PreconditionError, match=f"split: {what} equation fails"):
            split_dagger_idempotent(ComplexMatrix(np.asarray(e) * 2.0**k))
    with pytest.raises(PreconditionError, match="recomposition equation fails"):
        # |column| overflows unless the QR runs on a power-of-two prescale
        split_dagger_idempotent(M([[1e308, 1e308], [1e308, 1e308]]))


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
    with pytest.raises(PreconditionError):
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


def _rank_deficient_grams():
    """f†f for the wide corpus shapes (rows < cols <= 8), an 8x64 and a
    6x48 input, and a 48x48 product of rank 24."""
    shapes = [(n, m, n) for m in range(2, 9) for n in range(1, m)]
    shapes += [(8, 64, 8), (6, 48, 6), (48, 48, 24)]
    for seed, (n, m, k) in enumerate(shapes):
        f = seeded_product(seed, n, m, k)
        p = f.conj().T @ f
        yield ComplexMatrix((p + p.conj().T) / 2.0)


def test_eigenvalue_routes_match_numpy_on_rank_deficient_grams():
    for p in _rank_deficient_grams():
        n = p.rows
        ref = np.linalg.pinv(p.array, rcond=n * np.finfo(float).eps, hermitian=True)
        assert np.allclose(herm_mp(p).array, ref, atol=1e-9 * max(1.0, p.norm()))
        h = hermitian_sqrt(p).array
        assert np.allclose(h @ h, p.array, atol=1e-11 * max(1.0, p.norm()))
        assert np.linalg.eigvalsh(h).min() > -1e-12


def test_herm_mp_runs_jacobi_only_on_the_revealed_rank(monkeypatch):
    # The 8x64 gram of the kernels' rank-boundary test: with every
    # eigenvalue resolved, the eigensolver runs 567 steps of order 64.
    b = uniform_complex(np.random.default_rng(64), 8, 64)
    gram = b.conj().T @ b
    p = ComplexMatrix((gram + gram.conj().T) / 2)
    orders = []
    schedule = _jacobi._schedule

    def recording(m):
        orders.append(m)
        return schedule(m)

    monkeypatch.setattr(_jacobi, "_schedule", recording)
    herm_mp(p)
    assert orders and max(orders) <= 8
    orders.clear()
    herm_eig(p)
    assert set(orders) == {64}


def test_an_explicit_tiny_cutoff_keeps_every_graded_eigenvalue():
    # The graded positive definite h of the kernels' relative-accuracy
    # test: eigenvalues from about 10 down to below 1e-22.
    rng = np.random.default_rng(41)
    uniform_complex(rng, 12, 10)  # that test's graded a
    g = uniform_complex(rng, 10, 10)
    c = g.conj().T @ g + 10.0 * np.eye(10)
    d = rng.permutation(np.logspace(0, -12, 10))
    h = d[:, None] * c * d
    p = ComplexMatrix((h + h.conj().T) / 2)
    lam = herm_eig(p).eigenvalues
    assert lam[-1] < 1e-22
    inv = herm_mp(p, rank_tol=1e-300).array
    assert np.linalg.matrix_rank(inv @ p.array, tol=0.5) == 10
    root = np.linalg.eigvalsh(hermitian_sqrt(p, rank_tol=1e-300).array)
    assert root.min() > 0.5 * math.sqrt(lam[-1])


@pytest.mark.parametrize("factor", [0.5, 2.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_eigenvalues_near_the_default_cutoff_keep_their_rank(factor, seed):
    # Eigenvalues 1, 0.5, factor * cutoff and 0 (three times), with the
    # default cutoff 6 eps for the largest eigenvalue 1; seed 0 permutes
    # a diagonal, the others rotate it by a random unitary.
    rng = np.random.default_rng(seed)
    if seed:
        q = np.linalg.qr(uniform_complex(rng, 6, 6))[0]
    else:
        q = np.eye(6)[rng.permutation(6)]
    lam = np.array([1.0, 0.5, factor * 6 * np.finfo(float).eps, 0.0, 0.0, 0.0])
    p = (q * lam) @ q.conj().T
    p = ComplexMatrix((p + p.conj().T) / 2)
    rank = 3 if factor > 1 else 2
    assert round(float(np.trace(herm_mp(p).array @ p.array).real)) == rank
    h = hermitian_sqrt(p).array
    assert int(np.count_nonzero(np.linalg.eigvalsh(h) > 1e-10)) == rank


def test_eigenvalue_routes_keep_a_tail_whose_squares_underflow():
    # 1e-170 squared underflows to 0, and 1e-170 is far above rank_tol:
    # the eigenvalue must survive the cut.
    p = M([[1, 0], [0, 1e-170]])
    np.testing.assert_allclose(
        herm_mp(p, rank_tol=1e-200).array, np.diag([1.0, 1e170]), rtol=1e-15
    )
    np.testing.assert_allclose(
        hermitian_sqrt(p, rank_tol=1e-200).array, np.diag([1.0, 1e-85]), rtol=1e-15
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_an_explicit_cutoff_moves_no_kept_eigenvalue(seed):
    # Eigenvalues 1, 1.3e-3, 3e-4 and 0 under a random unitary, cut at
    # rank_tol = 1e-3: the routes must match the spectral truncation of
    # numpy's eigh to rounding, so no part of p near the cut is dropped
    # unresolved.
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(uniform_complex(rng, 4, 4))[0]
    p = (q * np.array([1.0, 1.3e-3, 3e-4, 0.0])) @ q.conj().T
    p = (p + p.conj().T) / 2
    lam, v = np.linalg.eigh(p)
    keep = lam > 1e-3
    inv = (v[:, keep] / lam[keep]) @ v[:, keep].conj().T
    root = (v[:, keep] * np.sqrt(lam[keep])) @ v[:, keep].conj().T
    got = herm_mp(ComplexMatrix(p), rank_tol=1e-3).array
    assert np.linalg.norm(got - inv) <= 1e-12 * np.linalg.norm(inv)
    got = hermitian_sqrt(ComplexMatrix(p), rank_tol=1e-3).array
    assert np.linalg.norm(got - root) <= 1e-12 * np.linalg.norm(root)


@pytest.mark.filterwarnings("error")
def test_eigenvalue_routes_do_not_warn_at_1e200():
    # At 1e200 a square of an entry overflows.
    bad = ComplexMatrix(np.array([[1, 1], [0, 1]]) * 1e200)
    for route in (herm_mp, hermitian_sqrt):
        with pytest.raises(PreconditionError, match="not Hermitian"):
            route(bad)
    assert is_positive(MatrixInstance(), ComplexMatrix(np.eye(2) * 1e200))
    f = seeded_product(7, 3, 5, 2)
    base = f.conj().T @ f
    base = (base + base.conj().T) / 2
    p = ComplexMatrix(base * 1e200)
    ref = np.linalg.pinv(base, rcond=1e-12, hermitian=True)
    got = herm_mp(p).array * 1e200
    assert np.allclose(got, ref, rtol=0.0, atol=1e-9 * np.linalg.norm(ref))
    h = hermitian_sqrt(p).array * 1e-100
    assert np.allclose(h @ h, base, rtol=0.0, atol=1e-11 * np.linalg.norm(base))


@st.composite
def _deficient_grams(draw):
    """f†f with f = b c of inner order below cols(f), so f†f is singular."""
    cols = draw(st.integers(2, 8))
    f = seeded_product(
        draw(st.integers(0, 2**32 - 1)),
        draw(st.integers(1, 8)),
        cols,
        draw(st.integers(0, cols - 1)),
    )
    p = f.conj().T @ f
    return (p + p.conj().T) / 2


@SCALING
@given(p=_deficient_grams(), k=st.integers(-150, 150))
def test_eigenvalue_routes_commute_with_power_of_two_scaling(p, k):
    # The cutoffs scale with p, so which eigenvalues the kernel returns
    # as 0 does not depend on the scale, and neither do the bytes.
    base, scaled = ComplexMatrix(p), ComplexMatrix(p * 4.0**k)
    assert herm_mp(scaled).array.tobytes() == (herm_mp(base).array * 4.0**-k).tobytes()
    root = hermitian_sqrt(base).array * 2.0**k
    assert hermitian_sqrt(scaled).array.tobytes() == root.tobytes()


def _rank_deficient_inputs():
    """The rank-deficient corpus shapes (every shape up to 8 x 8 at rank
    min(rows, cols) // 2), 8x64 and 6x48 at half rank, and a 48x48
    product of rank 24."""
    shapes = [(n, m, min(n, m) // 2) for n in range(1, 9) for m in range(1, 9)]
    shapes += [(8, 64, 4), (6, 48, 3), (48, 48, 24)]
    for seed, (n, m, k) in enumerate(shapes):
        yield ComplexMatrix(seeded_product(seed, n, m, k))


def test_svd_routes_match_numpy_on_rank_deficient_input():
    for a in _rank_deficient_inputs():
        n, m = a.rows, a.cols
        cut = max(n, m) * np.finfo(float).eps
        ref = np.linalg.pinv(a.array, rcond=cut)
        assert np.allclose(pinv(a).array, ref, atol=1e-9 * max(1.0, a.norm()))
        k = dagger_kernel(a).array
        u, sigma, _ = np.linalg.svd(a.array)
        rank = int(np.count_nonzero(sigma > cut * sigma[0]))
        assert k.shape == (n - rank, n) and numeric_rank(a) == rank
        assert np.allclose(k @ a.array, 0.0, atol=1e-12 * max(1.0, a.norm()))
        assert np.allclose(k @ k.conj().T, np.eye(n - rank), atol=1e-12)
        null = u[:, rank:] @ u[:, rank:].conj().T
        assert np.allclose(k.conj().T @ k, null, atol=1e-12)


def test_pinv_runs_jacobi_only_on_the_revealed_rank(monkeypatch):
    a = ComplexMatrix(seeded_product(0, 48, 48, 24))
    orders = []
    schedule = _jacobi._schedule

    def recording(m):
        orders.append(m)
        return schedule(m)

    monkeypatch.setattr(_jacobi, "_schedule", recording)
    pinv(a)
    assert orders and max(orders) <= 24
    orders.clear()
    svd(a)
    assert set(orders) == {48}


def test_only_the_default_cutoff_deflates_the_svd(monkeypatch):
    # The public svd and every explicit cutoff resolve every singular
    # value, as the kernel does by default.
    kernel = _jacobi.one_sided_svd
    asked = []

    def recording(a, **kw):
        asked.append(kw.get("_deflate", False))
        return kernel(a, **kw)

    monkeypatch.setattr(_jacobi, "one_sided_svd", recording)
    a = ComplexMatrix(seeded_product(1, 6, 9, 3))
    for call, deflates in (
        (lambda: svd(a), False),
        (lambda: svd(a, rank_tol=1e-9), False),
        (lambda: pinv(a, rank_tol=1e-9), False),
        (lambda: dagger_kernel(a, rank_tol=1e-9), False),
        (lambda: numeric_rank(a, rank_tol=1e-9), False),
        (lambda: pinv(a), True),
        (lambda: dagger_kernel(a), True),
        (lambda: numeric_rank(a), True),
    ):
        asked.clear()
        call()
        assert asked == [deflates]
    # svd() keeps the rounding-level singular values of the null space,
    # bit for bit those of the kernel at its default.
    res = svd(a)
    _, sigma, _ = kernel(a.array.conj().T)
    assert np.asarray(res.sigma).tobytes() == sigma.tobytes()
    assert min(res.sigma) > 0.0


@pytest.mark.parametrize("factor", [0.5, 2.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_singular_values_near_the_default_cutoff_keep_their_rank(factor, seed):
    # Singular values 1, 0.5, factor * cutoff and 0 (three times), with
    # the default cutoff 6 eps for the largest singular value 1; seed 0
    # permutes a diagonal, the others take random unitary factors.
    rng = np.random.default_rng(seed)
    if seed:
        u, v = (np.linalg.qr(uniform_complex(rng, 6, 6))[0] for _ in range(2))
    else:
        u, v = (np.eye(6)[rng.permutation(6)] for _ in range(2))
    sigma = np.array([1.0, 0.5, factor * 6 * np.finfo(float).eps, 0.0, 0.0, 0.0])
    a = ComplexMatrix((u * sigma) @ v.conj().T)
    rank = 3 if factor > 1 else 2
    assert numeric_rank(a) == rank
    assert round(float(np.trace(pinv(a).array @ a.array).real)) == rank
    assert dagger_kernel(a).rows == 6 - rank


def _column_graded():
    """12x10, columns graded from 1 down to 1e-24."""
    return ComplexMatrix(
        uniform_complex(np.random.default_rng(41), 12, 10) * np.logspace(0, -24, 10)
    )


def test_an_explicit_tiny_cutoff_keeps_every_graded_singular_value():
    # At the default cutoff the smallest singular values are cut, at
    # 1e-300 none is.
    a = _column_graded()
    smallest = svd(a).sigma[-1]
    assert numeric_rank(a) < 10 and smallest > 0.0
    assert numeric_rank(a, rank_tol=1e-300) == 10
    # ‖a°‖₂ = 1 / σ_min once every singular value is kept
    norm = np.linalg.norm(pinv(a, rank_tol=1e-300).array, 2)
    assert abs(norm * smallest - 1.0) <= 1e-6
    assert dagger_kernel(a, rank_tol=1e-300).rows == 2


@pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="ROADMAP defects 6 and 9: below the completion level pinv pairs "
    "arbitrary right vectors with the left ones and returns the result unchecked",
)
def test_an_explicit_tiny_cutoff_is_verified_or_refused():
    a = _column_graded()
    try:
        g = pinv(a, rank_tol=1e-300)
    except DaggerError:
        return
    assert verify_mp(MatrixInstance(), a, g).all_hold


@SCALING
@given(f=rank_deficient(), k=st.integers(-150, 150))
def test_pinv_commutes_with_power_of_two_scaling(f, k):
    # The deflation rule scales with f, so the null block it drops does
    # not depend on the scale, and neither do the bytes.
    base, scaled = ComplexMatrix(f), ComplexMatrix(f * 4.0**k)
    assert pinv(scaled).array.tobytes() == (pinv(base).array * 4.0**-k).tobytes()
    assert dagger_kernel(scaled).array.tobytes() == dagger_kernel(base).array.tobytes()


def _row_graded(seed, span):
    return ComplexMatrix(row_graded(seed, span))


_ROW_GRADED = [(span, seed) for span in (150, 200) for seed in range(6)]


@pytest.mark.parametrize("span, seed", _ROW_GRADED)
def test_row_graded_input_has_a_verified_inverse_and_kernel(span, seed):
    # ROADMAP defect 3: the rows below about 1e-154 of the largest, whose
    # squared norms underflow, lie in the null block the default cutoff
    # drops, so pinv and dagger_kernel no longer run Jacobi on them.
    f = _row_graded(seed, span)
    g = pinv(f)
    assert verify_mp(MatrixInstance(), f, g).all_hold
    k = dagger_kernel(f).array
    assert k.shape == (7 - numeric_rank(f), 7)
    assert np.allclose(k @ k.conj().T, np.eye(k.shape[0]), atol=1e-12)
    assert _frobenius(k @ f.array) <= 1e-12 * f.norm()


@pytest.mark.parametrize("span, seed", _ROW_GRADED)
def test_herm_mp_of_row_graded_input_is_verified(span, seed):
    # f f† for rows graded over 10^±(span / 2) has entries graded over
    # 10^±span; the eigensolver's QR stops at the null order there too.
    f = row_graded(seed, span / 2)
    p = f @ f.conj().T
    p = ComplexMatrix((p + p.conj().T) / 2)
    assert verify_mp(MatrixInstance(), p, herm_mp(p)).all_hold


@pytest.mark.parametrize("seed", range(8))
def test_full_gsvd_of_column_graded_input_is_verified(seed):
    # The kernel of f† ran the full solve on the rows of R below 1e-154
    # of the first and did not converge for six of these seeds; at the
    # default cutoff they are dropped, and gsvd_from_mp checks its
    # covers, unitary factors and reconstruction.
    f = ComplexMatrix(graded_columns(seed))
    t = gsvd_from_mp(MatrixInstance(), f, pinv(f))
    x, z, y, w = t.dims
    assert x + z == y + w == 5 and x == numeric_rank(f)


@pytest.mark.parametrize(
    "span, seed",
    [
        case if case == (150, 3) else pytest.param(
            *case,
            marks=pytest.mark.xfail(
                raises=NumericError,
                strict=True,
                reason="ROADMAP item 3: the full solve rotates rows whose "
                "squared norms underflow in every sweep",
            ),
        )
        for case in _ROW_GRADED
    ],
)
def test_svd_of_row_graded_input_converges(span, seed):
    f = _row_graded(seed, span)
    assert _frobenius(svd(f).reconstruct().array - f.array) <= 1e-12 * f.norm()


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


@pytest.mark.parametrize("dims, j", [
    ((2, 1.5), 1), ((2, True), 0), ((2, -1), 0), ((2, None), 0),
    ((2, 3), True), ((2, 3), 1.0), ((2, 3), -1),
])
def test_a_biproduct_with_a_bad_size_or_index_is_refused(dims, j):
    for build in (biproduct_injection, biproduct_projection):
        with pytest.raises(InputError):
            build(dims, j)


def test_json_round_trip():
    rng = np.random.default_rng(61)
    a = ComplexMatrix(uniform_complex(rng, 3, 2))
    obj = matrix_to_obj(a)
    assert obj["rows"] == 3 and obj["cols"] == 2
    back = matrix_from_obj(obj)
    assert np.array_equal(back.array, a.array)
    # serialization is byte-stable
    assert json.dumps(matrix_to_obj(a)) == json.dumps(matrix_to_obj(back))


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
    for shape in [(2, 2), (0, 3), (3, 0)]:
        assert ComplexMatrix.zeros(*shape).norm() == 0.0


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
    with pytest.raises(PreconditionError, match="not Hermitian"):
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


@pytest.mark.parametrize("x", [1e-158, 1e-160, 1e-161])
def test_frobenius_keeps_accuracy_when_the_sum_of_squares_is_subnormal(x):
    # The sum of squares is 1.58 x², subnormal here: summed as is, the
    # norm read 1.6e-8, 6.9e-6 and 3.2e-4 relative off.
    a = np.array([[complex(1.0, 0.3) * x, 0.7 * x]])
    ref = float(np.linalg.norm(a * 2.0**600)) * 2.0**-600
    assert abs(_frobenius(a) - ref) <= 4 * np.finfo(float).eps * ref


# Largest exponent k of a power-of-two part per branch of _frobenius: with
# at most 18 parts of modulus at most 2^k, the sum of squares is normal
# for k in [-511, 509], below the smallest normal 2^-1022 for k <= -514
# and inf for k >= 512.
_NORM_BRANCHES = {"normal": (-511, 509), "subnormal": (-1074, -514), "overflow": (512, 1023)}


@st.composite
def pow2_arrays(draw, branch):
    """Up to 3 x 3, each part 0 or ±2^k, the largest part 2^top."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    top = draw(st.integers(*_NORM_BRANCHES[branch]))
    part = st.one_of(
        st.just(0.0),
        st.builds(
            lambda sign, k: sign * math.ldexp(1.0, k),
            st.sampled_from([1.0, -1.0]),
            st.integers(-1074, top),
        ),
    )
    parts = draw(st.lists(part, min_size=2 * rows * cols, max_size=2 * rows * cols))
    parts[draw(st.integers(0, len(parts) - 1))] = math.ldexp(1.0, top)
    return np.array(parts).view(np.complex128).reshape(rows, cols), top


@SCALING
@given(data=st.data(), branch=st.sampled_from(sorted(_NORM_BRANCHES)))
def test_frobenius_matches_a_rescaled_reference(data, branch):
    a, top = data.draw(pow2_arrays(branch))
    scaled = np.ldexp(a.real, -top) + 1j * np.ldexp(a.imag, -top)  # exact
    with np.errstate(over="ignore"):
        ref = float(np.ldexp(np.linalg.norm(scaled), top))
    got = _frobenius(a)
    if math.isinf(ref):
        assert got == ref
    else:
        assert abs(got - ref) <= 4 * math.ulp(ref)


_PART = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e154, max_value=1.7e308),
    st.sampled_from([np.inf, -np.inf, np.nan]),
)


@SCALING
@given(data=st.data(), rows=st.integers(0, 3), cols=st.integers(0, 3))
def test_computed_refuses_exactly_the_non_finite_entries(data, rows, cols):
    parts = data.draw(st.lists(_PART, min_size=2 * rows * cols, max_size=2 * rows * cols))
    a = np.array(parts, dtype=np.float64).view(np.complex128).reshape(rows, cols)
    if np.isfinite(a).all():
        m = _computed(a)
        assert m.array is a and not a.flags.writeable
    else:
        with pytest.raises(NumericError):
            _computed(a)


# The matrix layer sets its own floating-point error state where it
# needs one: a caller that raises on overflow, invalid and divide still
# gets a result or a daggermp error.  Underflow is left out, as gradual
# underflow is normal arithmetic.
_GUARD_INPUTS = {
    "huge": [[1.7e308]],
    "huge_and_one": [[1e200, 1], [1, 1]],
    "subnormal_diagonal": np.diag([5e-324, 1e-310, 2e-315]),
    "tiny_row": [[1e-160, 2e-160j]],
    "zero_2x3": np.zeros((2, 3)),
    "squares_overflow": [[1e154, 1e154], [1e154, -1e154]],
}


def _guarded_routes(f):
    inst = MatrixInstance()
    try:
        g = pinv(f)
    except DaggerError:
        g = ComplexMatrix.zeros(f.cols, f.rows)
    return {
        "pinv": lambda: pinv(f),
        "verify_mp": lambda: verify_mp(inst, f, g),
        "herm_eig": lambda: herm_eig(f if f.rows == f.cols else f.dagger() @ f),
        "polar_from_mp": lambda: polar_from_mp(inst, f, g),
        "gsvd_from_mp": lambda: gsvd_from_mp(inst, f, g),
        "deviation": lambda: inst.deviation(f, ComplexMatrix(-f.array)),
    }


@pytest.mark.parametrize("name", sorted(_GUARD_INPUTS))
def test_the_callers_error_state_reaches_no_route(name):
    f = ComplexMatrix(_GUARD_INPUTS[name])
    for route, call in _guarded_routes(f).items():
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            try:
                call()
            except DaggerError:
                pass
            except FloatingPointError as exc:
                pytest.fail(f"{route}: {exc}")


@pytest.mark.parametrize("seed", [2, 4, 6])
def test_projector_of_column_graded_input_has_eigenvalues_one_and_zero(seed):
    # At one QR step every tail square underflowed and ‖x‖ was subnormal
    # (5.18e-318 for seed 2), so 1 / (alpha - beta) overflowed.
    f = ComplexMatrix(graded_columns(seed))
    eig = herm_eig(pinv(f) @ f)
    np.testing.assert_allclose(eig.eigenvalues, [1, 0, 0, 0, 0], rtol=0.0, atol=1e-12)


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


# Outside input holds numbers only: the constructor is the one check on it.


@pytest.mark.parametrize(
    "data, fault",
    [
        ([["1+2j"]], "got str"),
        ([[b"1"]], "got bytes"),
        (np.array([[True]]), "got bool"),
        ([[1, True]], "got bool"),
        ([[None]], "got NoneType"),
        (np.array([["1"]]), "got str"),
        ([[10**400]], "finite"),
    ],
)
def test_outside_matrices_hold_only_numbers(data, fault):
    with pytest.raises(InputError, match=fault):
        ComplexMatrix(data)


@pytest.mark.parametrize(
    "rows, fault",
    [
        ([[1, 2], [3]], "same length"),
        ([], "at least one row"),
        ([1, 2], "sequence of rows"),
        ([["1", "2"]], "got str"),
    ],
)
def test_from_rows_names_the_fault(rows, fault):
    with pytest.raises(InputError, match=fault):
        ComplexMatrix.from_rows(rows)


@pytest.mark.parametrize(
    "build, args",
    [
        ("identity", (-1,)),
        ("identity", (2.5,)),
        ("identity", (True,)),
        ("identity", (np.int64(2),)),
        ("zeros", (True, 2)),
        ("zeros", (2, -1)),
        ("zeros", (2.0, 2)),
    ],
    ids=str,
)
def test_constant_constructors_reject_bad_sizes(build, args):
    with pytest.raises(InputError, match="sizes"):
        getattr(ComplexMatrix, build)(*args)


def test_outside_numbers_of_every_kind_are_accepted():
    a = M([[1, 2.5, 3j], [np.int8(4), np.float32(0.5), np.complex64(2j)]])
    assert a.array.tolist() == [[1, 2.5, 3j], [4, 0.5, 2j]]
    assert ComplexMatrix(np.array([[1, 2**70]], dtype=object)).array[0, 1] == 2.0**70
    assert ComplexMatrix(np.arange(6, dtype=np.uint8).reshape(2, 3)).rows == 2


# A computed matrix carries its Frobenius norm: _computed stores it from
# the sum of squares it takes anyway, norm() on first use, and the
# dagger hands it on.  Either way it is the norm _frobenius gives.

_NORM_EDGES = {
    "subnormal_entries": [[5e-324, 1e-310j], [2e-315, 0]],
    "tiny": [[1e-160, 2e-160j], [3e-161, 0]],
    "subnormal_product_sum": [[1e-79, 2e-79j], [3e-80, 1e-79]],
    "near_overflow": [[1.7e308, -1e300], [1e-300, 1j]],
    "squares_overflow": [[1e154, 1e154], [1e154, -1e154]],
    "zero": np.zeros((2, 3)),
}


def _assert_norms_are_frobenius(f, g):
    """f, g, their daggers and the finite products among them: every norm,
    stored or computed on use, is _frobenius of the array bit for bit."""
    found = [f, g]
    for x, y in ((f, g), (g, f), (f, f.dagger()), (f.dagger(), f)):
        try:
            found.append(x @ y)
        except NumericError:
            pass
    found += [m.dagger() for m in found]
    for m in found:
        ref = _frobenius(m.array).hex()
        stored = vars(m).get("_norm")
        assert stored is None or stored.hex() == ref
        assert m.norm().hex() == ref
        assert m.dagger().norm().hex() == _frobenius(m.array.conj().T).hex() == ref


@SCALING
@given(a=products(tall=False, max_dim=8), k=st.integers(-600, 600))
def test_stored_norms_are_the_frobenius_norm(a, k):
    _assert_norms_are_frobenius(
        ComplexMatrix(a * 2.0**k), ComplexMatrix(a.conj().T * 2.0**-k)
    )


@pytest.mark.parametrize("name", sorted(_NORM_EDGES))
def test_stored_norms_are_the_frobenius_norm_at_the_edges(name):
    f = M(_NORM_EDGES[name])
    _assert_norms_are_frobenius(f, f.dagger())


def test_products_daggers_and_constants_store_their_norm():
    f = M([[1, 2j], [3, 4]])
    p = f @ f.dagger()
    assert vars(p)["_norm"] == _frobenius(p.array)
    assert vars(p.dagger())["_norm"] == vars(p)["_norm"]
    for c in (ComplexMatrix.identity(0), ComplexMatrix.identity(3), ComplexMatrix.zeros(2, 3)):
        assert vars(c)["_norm"].hex() == _frobenius(c.array).hex()


# Products and deviations either side of the 2^1000 bound that lets them
# skip the overflow guard, and near the largest float, under an error
# state that raises on every flag with warnings as errors: each gives the
# correct result, or NumericError for a product that overflows (inf for
# a deviation that does).

_GUARD_EXPONENTS = {
    "below_2^1000": 1000,
    "above_2^1000": 1001,
    "near_max": 1024,
    "beyond_max": 1030,
}


def _pair(kind):
    rng = np.random.default_rng(1000)
    if kind == "rank_one":  # ‖a b‖ = ‖a‖ ‖b‖ for b = a†
        a = uniform_complex(rng, 4, 1) @ uniform_complex(rng, 1, 4)
        return a, a.conj().T
    return uniform_complex(rng, 4, 3), uniform_complex(rng, 3, 5)


def _ldexp(z, e):
    """z 2^e, part by part: exact unless it overflows or underflows."""
    parts = np.ascontiguousarray(z, dtype=np.complex128).view(np.float64)
    with np.errstate(over="ignore"):
        return np.ldexp(parts, e).view(np.complex128)


def _strict(call):
    """call() where every floating-point flag raises and warnings are errors;
    None for NumericError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            try:
                return call()
            except NumericError:
                return None


@pytest.mark.parametrize("where", sorted(_GUARD_EXPONENTS))
@pytest.mark.parametrize("kind", ["rank_one", "full"])
def test_products_at_the_guard_bound_raise_no_flag(kind, where):
    a, b = _pair(kind)
    # ‖a‖ ‖b‖ 2^s lies in [2^(E-1), 2^E)
    s = _GUARD_EXPONENTS[where] - math.frexp(_frobenius(a) * _frobenius(b))[1]
    f, g = ComplexMatrix(_ldexp(a, s // 2)), ComplexMatrix(_ldexp(b, s - s // 2))
    assert (f.norm() * g.norm() < _FLAG_FREE) == (where == "below_2^1000")
    got = _strict(lambda: f @ g)
    ref = a @ b
    exact_overflows = not np.isfinite(_ldexp(ref, s)).all()
    if got is None:
        assert where in ("near_max", "beyond_max")
    else:
        assert not exact_overflows
        atol = 8 * np.finfo(float).eps * abs(ref).max()
        np.testing.assert_allclose(_ldexp(got.array, -s), ref, rtol=0, atol=atol)
    if where == "beyond_max" and kind == "rank_one":  # an entry passes 2^1026
        assert exact_overflows and got is None


# For a deviation, "beyond_max" puts ‖f - g‖ in [2^1024, 2^1025): its
# norm overflows, and so does the entry of the real 1 x 1 difference.
_DEVIATION_EXPONENTS = dict(_GUARD_EXPONENTS, beyond_max=1025)


@pytest.mark.parametrize("where", sorted(_DEVIATION_EXPONENTS))
@pytest.mark.parametrize("shape", [(1, 1), (3, 4)])
def test_deviations_at_the_guard_bound_raise_no_flag(shape, where):
    a = uniform_complex(np.random.default_rng(1001), *shape)
    if shape == (1, 1):
        a = a.real
    # ‖f - g‖ = ‖f‖ + ‖g‖ = 2 ‖a‖ 2^s lies in [2^(E-1), 2^E)
    top = _DEVIATION_EXPONENTS[where]
    s = top - math.frexp(2 * _frobenius(a))[1]
    f, g = ComplexMatrix(_ldexp(a, s)), ComplexMatrix(_ldexp(-a, s))
    assert (f.norm() + g.norm() < _FLAG_FREE) == (where == "below_2^1000")
    got = _strict(lambda: MatrixInstance().deviation(f, g))
    ref = 2 * _frobenius(a)
    if top > 1024:
        assert got == math.inf
    else:
        assert abs(math.ldexp(got, -s) - ref) <= 4 * math.ulp(ref)


def test_verify_mp_of_an_ordinary_pair_enters_no_error_state(monkeypatch):
    f = ComplexMatrix(uniform_complex(np.random.default_rng(8), 8, 8))
    g = pinv(f)
    entered = []

    class counted(np.errstate):
        def __enter__(self):
            entered.append(self)
            return super().__enter__()

    monkeypatch.setattr(np, "errstate", counted)
    assert verify_mp(MatrixInstance(), f, g).all_hold
    assert entered == []


def test_split_checks_enter_no_error_state(monkeypatch):
    # The operands' norms are known (|e|, and |r r†|, |r† r| < k + 1 for
    # unit columns), so the three checks skip the overflow guard.
    q = np.linalg.qr(uniform_complex(np.random.default_rng(9), 6, 6))[0]
    e = ComplexMatrix(q[:, :3] @ q[:, :3].conj().T)
    entered = []

    class counted(np.errstate):
        def __enter__(self):
            entered.append(self)
            return super().__enter__()

    monkeypatch.setattr(np, "errstate", counted)
    assert split_dagger_idempotent(e).cols == 3
    with pytest.raises(PreconditionError, match="self_adjoint equation fails"):
        split_dagger_idempotent(M([[1, 1], [0, 0]]))
    assert entered == []


# An invertible input and a Hermitian idempotent; every call below is
# given an invalid tolerance through one of its parameters.
A, P = M([[1, 2], [3, 4]]), M([[0.5, 0.5], [0.5, 0.5]])
TOLERANT = {
    "svd": lambda t: svd(A, rank_tol=t),
    "pinv": lambda t: pinv(A, rank_tol=t),
    "numeric_rank": lambda t: numeric_rank(A, rank_tol=t),
    "dagger_kernel": lambda t: dagger_kernel(A, rank_tol=t),
    "has_mp_wrt_transpose": lambda t: has_mp_wrt_transpose(A, rank_tol=t),
    "herm_mp-rank_tol": lambda t: herm_mp(P, rank_tol=t),
    "herm_mp-eq_tol": lambda t: herm_mp(P, eq_tol=t),
    "hermitian_sqrt-rank_tol": lambda t: hermitian_sqrt(P, rank_tol=t),
    "hermitian_sqrt-eq_tol": lambda t: hermitian_sqrt(P, eq_tol=t),
    "herm_eig": lambda t: herm_eig(P, eq_tol=t),
    "split_dagger_idempotent": lambda t: split_dagger_idempotent(P, eq_tol=t),
    "kernel_universality_holds": lambda t: kernel_universality_holds(
        A, ComplexMatrix.zeros(0, 2), ComplexMatrix.zeros(1, 2), eq_tol=t
    ),
}


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0], ids=["nan", "inf", "-1"])
@pytest.mark.parametrize("name", sorted(TOLERANT))
def test_an_invalid_tolerance_is_refused_before_any_solve(monkeypatch, name, tol):
    def refuse(*args, **kwargs):
        raise AssertionError("a solver ran before the tolerance was checked")

    for solver in ("one_sided_svd", "hermitian_jacobi", "_qrcp"):
        monkeypatch.setattr(_jacobi, solver, refuse)
    with pytest.raises(InputError, match="must be finite and nonnegative"):
        TOLERANT[name](tol)


def measured_pairs(monkeypatch):
    """Each (f, g, deviation) that MatrixInstance.deviation returns, in order."""
    measured = []
    deviation = MatrixInstance.deviation

    def spy(self, f, g):
        measured.append((f, g, deviation(self, f, g)))
        return measured[-1][2]

    monkeypatch.setattr(MatrixInstance, "deviation", spy)
    return measured


@pytest.mark.parametrize("refuse", [herm_eig, split_dagger_idempotent, hermitian_sqrt])
def test_a_hermitian_refusal_carries_the_instance_deviation(monkeypatch, refuse):
    p = M([[1, 1e-6], [0, 1]])
    measured = measured_pairs(monkeypatch)
    what = "self_adjoint equation" if refuse is split_dagger_idempotent else "not Hermitian"
    with pytest.raises(PreconditionError, match=what) as exc:
        refuse(p)
    [(f, g, dev)] = measured
    assert f is p and np.array_equal(g.array, p.array.conj().T)
    assert exc.value.residual == dev == _frobenius(p.array - p.array.conj().T)


def test_a_split_refusal_carries_the_instance_deviation(monkeypatch):
    q = np.linalg.qr(uniform_complex(np.random.default_rng(49), 4, 4))[0]
    measured = measured_pairs(monkeypatch)
    for e in (M([[2, 0], [0, 0]]), ComplexMatrix(0.9 * q[:, :2] @ q[:, :2].conj().T)):
        measured.clear()
        with pytest.raises(PreconditionError, match="recomposition equation fails") as exc:
            split_dagger_idempotent(e)
        (_, _, hermitian), (rrd, rhs, dev) = measured
        assert hermitian <= EQ_TOL_DEFAULT * e.norm() and rhs is e
        assert exc.value.residual == dev == _frobenius(rrd.array - e.array)
