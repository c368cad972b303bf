"""The Jacobi kernels: round-robin schedule, determinism, sweep budget,
basis completion, and agreement with numpy.linalg as an oracle.
"""

import itertools

import numpy as np
import pytest

from conftest import uniform_complex
from daggermp import NumericError
from daggermp._jacobi import (
    _complete_columns,
    _schedule,
    hermitian_jacobi,
    one_sided_svd,
)


def _unitarity_error(u):
    return np.linalg.norm(u.conj().T @ u - np.eye(u.shape[1]))


@pytest.mark.parametrize("m", range(1, 10))
def test_schedule_meets_each_pair_once_in_disjoint_steps(m):
    seen = []
    for ps, qs, p_idx, q_idx, pq in _schedule(m):
        step = list(zip(ps, qs))
        assert all(p < q < m for p, q in step)
        assert len(set(ps + qs)) == 2 * len(step) == 2 * (m // 2)
        assert p_idx.tolist() == list(ps) and q_idx.tolist() == list(qs)
        assert pq.tolist() == list(ps + qs)
        seen.extend(step)
    assert sorted(seen) == list(itertools.combinations(range(m), 2))


def test_kernels_are_byte_deterministic():
    rng = np.random.default_rng(5)
    a = uniform_complex(rng, 9, 6)
    h = a.conj().T @ a
    first, second = one_sided_svd(a), one_sided_svd(a)
    for x, y in zip(first, second):
        assert x.tobytes() == y.tobytes()
    first, second = hermitian_jacobi(h), hermitian_jacobi(h)
    for x, y in zip(first, second):
        assert x.tobytes() == y.tobytes()


def test_one_sweep_budget_raises_in_both_kernels():
    rng = np.random.default_rng(8)
    a = uniform_complex(rng, 6, 6)
    with pytest.raises(NumericError):
        one_sided_svd(a, max_sweeps=1)
    with pytest.raises(NumericError):
        hermitian_jacobi(a + a.conj().T, max_sweeps=1)


def test_completed_basis_is_unitary():
    rng = np.random.default_rng(13)
    tall = uniform_complex(rng, 256, 4)
    deficient = uniform_complex(rng, 40, 3) @ uniform_complex(rng, 3, 6)
    for a, good in ((tall, 4), (deficient, 3)):
        u, sigma, _ = one_sided_svd(a)
        assert int(np.count_nonzero(sigma > 1e-12 * sigma[0])) == good
        assert _unitarity_error(u) <= 1e-13


def test_completion_ties_go_to_the_lowest_index():
    u = np.zeros((5, 5), dtype=np.complex128)
    _complete_columns(u, 0)
    assert np.array_equal(u, np.eye(5))
    u = np.zeros((4, 4), dtype=np.complex128)
    u[3, 0] = 1.0
    _complete_columns(u, 1)
    assert np.array_equal(u[:, 1:], np.eye(4)[:, :3])


def _complete_by_projector(u, k):
    """The completion rule spelled out: rebuild I - U U† for every column."""
    n = u.shape[0]
    for j in range(k, n):
        cur = u[:, :j]
        resid = np.eye(n) - cur @ cur.conj().T
        col = resid[:, int(np.argmax(resid.diagonal().real))]
        col = col / np.linalg.norm(col)
        col = col - cur @ (cur.conj().T @ col)
        u[:, j] = col / np.linalg.norm(col)


def test_completion_follows_the_projector_rule():
    rng = np.random.default_rng(17)
    u, _, _ = one_sided_svd(uniform_complex(rng, 30, 4))
    got, ref = u.copy(), u.copy()
    _complete_columns(got, 4)
    _complete_by_projector(ref, 4)
    assert np.allclose(got, ref, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("n", [2, 3, 17, 48])
def test_values_agree_with_numpy(n):
    rng = np.random.default_rng(100 + n)
    a = uniform_complex(rng, n + 3, n)
    _, sigma, _ = one_sided_svd(a)
    ref = np.linalg.svd(a, compute_uv=False)
    assert np.allclose(sigma, ref, rtol=0.0, atol=1e-13 * ref[0])
    h = a.conj().T @ a - np.eye(n)
    q, lam = hermitian_jacobi(h)
    ref = np.linalg.eigvalsh(h)[::-1]
    scale = np.abs(ref).max()
    assert np.allclose(lam, ref, rtol=0.0, atol=1e-13 * scale)
    assert np.linalg.norm((q * lam) @ q.conj().T - h) <= 1e-13 * scale
