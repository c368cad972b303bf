"""Dense complex matrices: factorizations checked against numpy oracles.

numpy.linalg is allowed here as an independent reference; the library
itself never calls it for anything beyond norms.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import (
    HARD_INPUTS,
    SCALING,
    graded_columns,
    products,
    seeded_product,
    uniform_complex,
)
from daggermp import (
    _jacobi,
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
    numeric_rank,
    pinv,
    polar_from_mp,
    svd,
    verify_mp,
)
from daggermp.core import EQ_TOL_DEFAULT, within
from daggermp.matrix import (
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


def test_svd_sweep_budget_exhaustion(monkeypatch):
    # svd passes on the kernel's NumericError; give the kernel one sweep
    kernel = _jacobi.one_sided_svd
    monkeypatch.setattr(_jacobi, "one_sided_svd", lambda a: kernel(a, max_sweeps=1))
    rng = np.random.default_rng(3)
    a = ComplexMatrix(uniform_complex(rng, 5, 5))
    with pytest.raises(NumericError):
        svd(a)


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
        ([[1, 1], [0, 0]], "not Hermitian"),  # idempotent, not Hermitian
        ([[1, 1e-6], [0, 1]], "not Hermitian"),
        ([[2, 0], [0, 0]], "not an idempotent"),
        (0.5 * np.eye(3), "not an idempotent"),
        (near, "not an idempotent"),
    ):
        with pytest.raises(PreconditionError, match=what):
            split_dagger_idempotent(ComplexMatrix(np.asarray(e) * 2.0**k))
    with pytest.raises(PreconditionError, match="not an idempotent"):
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
