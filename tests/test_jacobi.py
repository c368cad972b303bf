"""The Jacobi kernels: round-robin schedule, the rotation rule of a step
(Python floats below the gate, arrays from it), determinism, sweep
budget, basis completion, the pivoted QR ahead of both kernels,
convergence at the rank boundary and at order 128, relative accuracy on
graded input, invariance under power-of-two scaling, and agreement with
numpy.linalg as an oracle.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import SCALING, kahan, products, row_graded, seeded_product, uniform_complex
from daggermp import NumericError, _jacobi
from daggermp._jacobi import (
    _ARRAY_PAIRS,
    _EPS,
    _array_step,
    _complete_columns,
    _pow2_exponent,
    _qrcp,
    _scalar_step,
    _schedule,
    hermitian_jacobi,
    one_sided_svd,
)

# The lowest order whose steps compute their rotations as arrays.
GATE = 2 * _ARRAY_PAIRS


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


def _step_inputs():
    """One step of order 8 and its inputs: couplings far above, just above
    and below the threshold, and a zero one between equal diagonal
    entries; the diagonal has both signs."""
    step = _schedule(8)[0]
    ps, qs = step[0], step[1]
    vals = np.random.default_rng(9).uniform(-2.0, 2.0, 8)
    vals[qs[3]] = vals[ps[3]]
    bound = [_EPS * math.sqrt(abs(vals[p])) * math.sqrt(abs(vals[q])) for p, q in zip(ps, qs)]
    g = np.array([0.3 - 0.4j, 3.0 * bound[1] * 1j, 0.5 * bound[2], 0.0])
    return step, vals, g


def test_scalar_and_array_steps_follow_one_rule():
    step, vals, g = _step_inputs()
    ps, qs = step[0], step[1]
    scalar_vals, array_vals = vals.tolist(), vals.copy()
    scalar_blocks, scalar_entries = _scalar_step(scalar_vals, step, g, True)
    array_blocks, array_entries = _array_step(array_vals, step, g, True)
    rotated = [ps[0], ps[1], qs[0], qs[1]]
    assert scalar_entries[0] == array_entries[0].tolist() == rotated
    assert scalar_entries[1] == array_entries[1].tolist() == rotated[2:] + rotated[:2]
    assert _array_step(vals.copy(), step, g, False)[1] is None
    assert np.allclose(array_blocks, scalar_blocks, rtol=0.0, atol=4 * _EPS)
    assert np.allclose(array_vals, scalar_vals, rtol=4 * _EPS, atol=0.0)
    for i in (2, 3):
        assert np.array_equal(array_blocks[i], np.eye(2))
        assert np.array_equal(scalar_blocks[i], np.eye(2))
    for i in (0, 1):
        p, q = ps[i], qs[i]
        b = np.array([[vals[p], g[i]], [np.conj(g[i]), vals[q]]])
        j = array_blocks[i].T
        assert np.abs(j.conj().T @ j - np.eye(2)).max() <= 4 * _EPS
        d = j.conj().T @ b @ j
        assert abs(d[0, 1]) <= 8 * _EPS * np.abs(b).max()
        assert np.allclose(d.diagonal().real, array_vals[[p, q]], rtol=0.0, atol=8 * _EPS)


def test_a_step_below_threshold_rotates_nothing():
    step, vals, g = _step_inputs()
    g[:2] = 0.0
    assert _scalar_step(vals.tolist(), step, g, True) is None
    kept = vals.copy()
    assert _array_step(kept, step, g, True) is None
    assert np.array_equal(kept, vals)


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


def test_one_sweep_budget_raises_in_both_kernels(monkeypatch):
    rng = np.random.default_rng(8)
    a = uniform_complex(rng, 6, 6)
    monkeypatch.setattr(_jacobi, "MAX_SWEEPS", 1)
    with pytest.raises(NumericError, match="in 1 sweeps"):
        one_sided_svd(a)
    with pytest.raises(NumericError, match="in 1 sweeps"):
        hermitian_jacobi(a + a.conj().T)


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


@pytest.mark.parametrize("n", [2, 3, 17, GATE - 1, GATE, 40, 48])
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


def _qrcp_inputs():
    rng = np.random.default_rng(31)
    yield uniform_complex(rng, 7, 4)
    yield uniform_complex(rng, 4, 7)
    yield uniform_complex(rng, 6, 6)
    yield uniform_complex(rng, 9, 3) @ uniform_complex(rng, 3, 6)
    yield np.zeros((3, 4), dtype=np.complex128)
    yield uniform_complex(rng, 1, 3)
    yield np.diag([1.0, 3.0, -2.0, 3.0j]).astype(np.complex128)


@pytest.mark.parametrize(
    "a", list(_qrcp_inputs()), ids=lambda a: "x".join(map(str, a.shape))
)
def test_qrcp_factors_with_pivoting(a):
    q, r, perm = _qrcp(a)
    rows, cols = a.shape
    assert sorted(perm.tolist()) == list(range(cols))
    assert np.linalg.norm(a[:, perm] - q @ r) <= 1e-14 * max(np.linalg.norm(a), 1.0)
    assert _unitarity_error(q) <= 1e-14 * rows
    assert not np.tril(r, -1).any()
    d = np.abs(np.diagonal(r))
    assert np.all(d[1:] <= d[:-1])


def test_qrcp_ties_go_to_the_lowest_index():
    _, _, perm = _qrcp(np.diag([1.0, 2.0, 2.0]).astype(np.complex128))
    assert perm.tolist() == [1, 2, 0]
    _, _, perm = _qrcp(np.ones((3, 3), dtype=np.complex128))
    assert perm.tolist() == [0, 1, 2]


def test_qrcp_keeps_a_diagonal_exact():
    a = np.array([[3.0, 0.0], [0.0, 4.0]], dtype=np.complex128)
    q, r, perm = _qrcp(a)
    assert perm.tolist() == [1, 0]
    assert np.array_equal(q @ r, a[:, perm])
    assert np.diagonal(r).tolist() == [4.0, 3.0]


def test_qrcp_reflects_columns_whose_squares_underflow():
    # The squares of 1e-170 underflow to 0; the reflector still needs ‖x‖.
    a = np.array([[1.0, 0.0], [0.0, 1e-170], [0.0, 1e-170]], dtype=np.complex128)
    q, r, perm = _qrcp(a)
    assert perm.tolist() == [0, 1]
    assert abs(abs(r[1, 1]) - np.sqrt(2.0) * 1e-170) <= 1e-15 * 1e-170
    assert np.abs(q @ r - a).max() <= 1e-15 * 1e-170


def test_qrcp_reflects_a_column_whose_norm_is_subnormal():
    # ‖x‖ = 5e-318: 1 / (alpha - beta) overflowed before x was scaled.
    a = np.array([[1.0, 0.0], [0.0, 3e-318], [0.0, 4e-318j]], dtype=np.complex128)
    q, r, perm = _qrcp(a)
    assert perm.tolist() == [0, 1]
    assert abs(r[1, 1]) == np.hypot(3e-318, 4e-318)
    assert np.array_equal(q @ r, a)
    assert _unitarity_error(q) <= 1e-15 * 3


def _hypot_null_order(r):
    """The null order of a whole R, every norm taken by hypot: the
    smallest k with sqrt(2) ‖r[k:, :]‖_F <= cut / 2 (rows(r) if none),
    cut = rows(r) eps ‖r[0, :]‖₂."""
    n = r.shape[0]
    rows = np.hypot.reduce(np.abs(r), axis=1)
    tails = np.hypot.accumulate(rows[::-1])[::-1]
    below = tails <= n * _EPS * float(rows[0]) / (2.0 * math.sqrt(2.0))
    return int(below.argmax()) if below.any() else n


def _stop_inputs():
    rng = np.random.default_rng(12)
    product = seeded_product(0, 48, 48, 24)
    yield "zero", np.zeros((5, 3), dtype=np.complex128)
    yield "1x6", uniform_complex(rng, 1, 6)
    yield "6x1", uniform_complex(rng, 6, 1)
    yield "rank24", product
    yield "rank24-gram", product.conj().T @ product
    yield "kahan20", kahan(20, 0.5).astype(np.complex128)
    for span in (150, 200):
        for seed in range(6):
            yield f"rowgraded{span}-{seed}", row_graded(seed, span)


@pytest.mark.parametrize("name, a", list(_stop_inputs()), ids=lambda x: x if isinstance(x, str) else "")
def test_qrcp_stops_at_the_null_order_of_the_full_r(name, a):
    a = a * 2.0**_pow2_exponent(a)  # the callers' prescale
    rows, cols = a.shape
    q, r, perm = _qrcp(a)
    k = _hypot_null_order(r[: min(rows, cols)])
    q_k, r_k, perm_k = _qrcp(a, deflate=True)
    assert r_k.shape == (k, cols) and q_k.shape == (rows, rows)
    # The first k steps are those of the full run, bit for bit; later
    # pivots only reorder the trailing columns of R[:k].
    assert q_k[:, :k].tobytes() == q[:, :k].tobytes()
    assert _unpivoted(r_k, perm_k).tobytes() == _unpivoted(r[:k], perm).tobytes()
    thin, r_t, _ = _qrcp(a, deflate=True, thin=True)
    assert thin.shape == (rows, k) and r_t.tobytes() == r_k.tobytes()
    assert np.abs(thin - q[:, :k]).max(initial=0.0) <= 1e-14 * rows


def _unpivoted(r, perm):
    """r with its columns back in the order of the input."""
    return r[:, np.argsort(perm)]


@pytest.mark.parametrize(
    "a", list(_qrcp_inputs()), ids=lambda a: "x".join(map(str, a.shape))
)
def test_qrcp_stopped_at_a_rank_keeps_the_leading_columns(a):
    q, r, perm = _qrcp(a)
    for k in range(min(a.shape) + 1):
        q_k, r_k, perm_k = _qrcp(a, rank=k)
        assert q_k[:, :k].tobytes() == q[:, :k].tobytes()
        assert _unpivoted(r_k, perm_k).tobytes() == _unpivoted(r[:k], perm).tobytes()
        assert _unitarity_error(q_k) <= 1e-14 * a.shape[0]
        thin, _, _ = _qrcp(a, rank=k, thin=True)
        assert thin.shape == (a.shape[0], k)
        assert np.abs(thin - q[:, :k]).max(initial=0.0) <= 1e-14 * a.shape[0]


@pytest.mark.parametrize("tiny", [1e-170, 1e-160])
def test_svd_keeps_singular_values_whose_squares_underflow(tiny):
    # tiny² underflows to 0 (1e-170) or to a subnormal (1e-160): σ₂ is
    # still √2·tiny, not 0 or a value off in the sixth digit.
    a = np.array([[1.0, 0.0], [0.0, tiny], [0.0, tiny]], dtype=np.complex128)
    _, sigma, _ = one_sided_svd(a)
    assert sigma[0] == 1.0
    assert abs(sigma[1] - np.sqrt(2.0) * tiny) <= 1e-15 * tiny


def _rank_boundary_cases():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        yield uniform_complex(rng, 48, 24) @ uniform_complex(rng, 24, 48)


def test_preconditioned_kernels_converge_at_the_rank_boundary(monkeypatch):
    # Without the QR these inputs take 14-21 sweeps.
    monkeypatch.setattr(_jacobi, "MAX_SWEEPS", 12)
    for a in _rank_boundary_cases():
        _, sigma, _ = one_sided_svd(a)
        assert int(np.count_nonzero(sigma > 1e-12 * sigma[0])) == 24
        gram = a.conj().T @ a
        hermitian_jacobi((gram + gram.conj().T) / 2)
    b = uniform_complex(np.random.default_rng(64), 8, 64)
    gram = b.conj().T @ b
    _, lam = hermitian_jacobi((gram + gram.conj().T) / 2)
    assert int(np.count_nonzero(lam > 1e-12 * lam[0])) == 8


def test_both_kernels_converge_at_order_128(monkeypatch):
    # Sweeps after the QR: 12 for the SVD and 9 for the eigensolver on
    # this input; over default_rng(0..23), 11-12 and 9.
    monkeypatch.setattr(_jacobi, "MAX_SWEEPS", 12)
    a = uniform_complex(np.random.default_rng(0), 128, 128)
    _, sigma, _ = one_sided_svd(a)
    assert np.allclose(sigma, np.linalg.svd(a, compute_uv=False), rtol=0.0, atol=1e-13 * sigma[0])
    gram = a.conj().T @ a
    hermitian_jacobi((gram + gram.conj().T) / 2)


def _reference_values(a, hermitian):
    """Singular values or eigenvalues of a from mpmath at 50 digits, descending."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        m = mpmath.matrix(a.tolist())
        vals = mpmath.eighe(m, eigvals_only=True) if hermitian else mpmath.svd_c(
            m, compute_uv=False
        )
        return np.sort([float(x) for x in vals])[::-1]


def test_graded_values_keep_relative_accuracy():
    rng = np.random.default_rng(41)
    a = uniform_complex(rng, 12, 10) * np.logspace(0, -12, 10)
    _, sigma, _ = one_sided_svd(a)
    ref = _reference_values(a, hermitian=False)
    assert np.all(np.abs(sigma - ref) <= 1e-13 * ref)

    g = uniform_complex(rng, 10, 10)
    c = g.conj().T @ g + 10.0 * np.eye(10)
    d = rng.permutation(np.logspace(0, -12, 10))
    h = d[:, None] * c * d
    h = (h + h.conj().T) / 2
    _, lam = hermitian_jacobi(h)
    ref = _reference_values(h, hermitian=True)
    assert ref[-1] < 1e-22
    assert np.all(np.abs(lam - ref) <= 1e-13 * ref)


@SCALING
@given(a=products(tall=True), k=st.integers(-300, 300))
# Drawn orders stay at or below 12; these reach both sides of the gate.
@example(a=seeded_product(1, GATE + 2, GATE - 1, GATE - 1), k=-300)
@example(a=seeded_product(2, GATE, GATE, GATE // 2), k=300)
@example(a=seeded_product(3, 40, 40, 40), k=-77)
def test_svd_commutes_with_power_of_two_scaling(a, k):
    u, sigma, v = one_sided_svd(a)
    u_k, sigma_k, v_k = one_sided_svd(a * 2.0**k)
    assert u_k.tobytes() == u.tobytes() and v_k.tobytes() == v.tobytes()
    assert np.array_equal(sigma_k, sigma * 2.0**k)


@SCALING
@given(b=products(tall=False), k=st.integers(-300, 300))
@example(b=seeded_product(4, GATE + 3, GATE - 1, GATE - 1), k=300)
@example(b=seeded_product(5, 8, GATE, 8), k=-300)
@example(b=seeded_product(6, 40, 40, 40), k=77)
def test_eigensolver_commutes_with_power_of_two_scaling(b, k):
    p = b.conj().T @ b
    p = (p + p.conj().T) / 2
    q, lam = hermitian_jacobi(p)
    q_k, lam_k = hermitian_jacobi(p * 2.0**k)
    assert q_k.tobytes() == q.tobytes()
    assert np.array_equal(lam_k, lam * 2.0**k)
