"""Jacobi rotation kernels backing the matrix instance.

Two solvers live here, sharing one 2x2 rotation routine:

* :func:`one_sided_svd` orthogonalizes the columns of a tall matrix by
  right-multiplying complex plane rotations, which yields the singular
  value decomposition without ever forming a Gram matrix.
* :func:`hermitian_jacobi` diagonalizes a Hermitian matrix with
  two-sided rotations.

Both sweep in the Brent–Luk round-robin order (Brent & Luk, SIAM J. Sci.
Stat. Comput. 6(1), 1985): a sweep of order m is m - 1 steps (m when m
is odd) of ⌊m/2⌋ disjoint pairs, so the rotations of one step commute
and apply as one stacked 2x2 matmul on rows of row-major storage (the
columns of ``w``, ``v`` and ``q`` are kept as rows).  The threshold test
and the rotation parameters stay per pair, as Python scalars.

A rotation at (p, q) is triggered only while the coupling entry exceeds
machine epsilon relative to the participating norms; the threshold is
formed as a product of square roots, so it cannot overflow.  Before
iterating, the input is scaled by an exact power of two taken from its
largest entry (as in Drmač & Veselić, SIMAX 29(4), 2008), so entries
near the overflow or underflow threshold neither overflow nor lose their
squares; singular values and eigenvalues are unscaled on the way out.

Both solvers run until a full sweep triggers no rotation.  The sweep
budget is fixed; exceeding it raises :class:`~daggermp.core.NumericError`.
All paths are deterministic: identical input bytes give identical output
bytes.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import NumericError

_EPS = float(np.finfo(np.float64).eps)
MAX_SWEEPS = 30


def _pow2_exponent(a: np.ndarray) -> int:
    """e putting the largest real or imaginary part of a in [0.5, 1).

    Clamped so that 2**e stays a finite normal number; 0 for a zero
    matrix.  Scaling by a power of two is exact unless a result leaves
    the normal range.
    """
    parts = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
    big = float(np.abs(parts).max(initial=0.0))
    return min(max(-math.frexp(big)[1], -1022), 1023)


def _scaled(a: np.ndarray):
    """(x, e) with x = [a 2**e | I], I the identity of order rows(a)."""
    e = _pow2_exponent(a)
    rows, cols = a.shape
    x = np.zeros((rows, cols + rows), dtype=np.complex128)
    np.multiply(a, 2.0**e, out=x[:, :cols])
    x[:, cols:].flat[:: rows + 1] = 1.0
    return x, e


@functools.lru_cache(maxsize=64)
def _schedule(m: int) -> tuple:
    """Round-robin sweep of order m: a tuple of steps (ps, qs, p_idx, q_idx, pq).

    Step i pairs ps[i] < qs[i].  The pairs of a step are disjoint, and a
    sweep meets every unordered pair exactly once.  ``p_idx`` and
    ``q_idx`` hold ps and qs as read-only index arrays, ``pq`` their
    concatenation.
    """
    players = list(range(m + m % 2))
    half = len(players) // 2
    steps = []
    for _ in range(len(players) - 1):
        pairs = sorted(
            (min(a, b), max(a, b))
            for a, b in zip(players[:half], reversed(players[half:]))
            if max(a, b) < m
        )
        ps = tuple(p for p, _ in pairs)
        qs = tuple(q for _, q in pairs)
        arrays = [np.array(ix, dtype=np.intp) for ix in (ps, qs, ps + qs)]
        for arr in arrays:
            arr.setflags(write=False)
        steps.append((ps, qs, *arrays))
        players = [players[0], players[-1]] + players[1:-1]
    return tuple(steps)


def _rotation(app: float, aqq: float, g: complex):
    """The unitary zeroing g, as (block, t).

    For the Hermitian 2x2 block B = [[app, g], [conj(g), aqq]] with g != 0,
    J = [[c, s], [-s*phase, c*phase]] makes J† B J diagonal, and block is
    Jᵀ = [[c, -s*phase], [s, c*phase]]: the new columns p, q are
    block[0] and block[1] applied to the old ones.  t is tan of the
    underlying real rotation angle.
    """
    mag = abs(g)
    phase = g.conjugate() / mag
    tau = (aqq - app) / (2.0 * mag)
    t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c
    return ((c, -s * phase), (s, c * phase)), t


# The block of a pair that does not rotate: it leaves both rows' values
# unchanged.
_KEEP = ((1.0, 0.0), (0.0, 1.0))


def _rotated(blocks, y: np.ndarray) -> np.ndarray:
    """Rows [p_0..p_k-1; q_0..q_k-1] of y mixed by one 2x2 block per pair.

    Row p_i becomes b00 y[p_i] + b01 y[q_i] and row q_i becomes
    b10 y[p_i] + b11 y[q_i], with (b00, b01), (b10, b11) = blocks[i]; all
    pairs go through one stacked matmul.
    """
    k = len(blocks)
    pairs = y.reshape(2, k, -1).transpose(1, 0, 2)
    mixed = np.asarray(blocks, dtype=np.complex128) @ pairs
    return mixed.transpose(1, 0, 2).reshape(y.shape)


def _complete_columns(u: np.ndarray, k: int) -> None:
    """Extend the orthonormal columns u[:, :k] to a full basis in place.

    Greedy pick: at each step take the standard basis vector e_pick with
    the largest residual 1 - Σⱼ|u[pick, j]|² against the columns so far
    (ties resolve to the lowest index), project it off as
    e_pick - U (U† e_pick), and renormalize twice for orthogonality at
    machine precision.  The residual diagonal is downdated by |new
    column|² per column, so the whole completion is O(n³).  Columns are
    read as rows of u.T, which is contiguous when u is column-major.
    """
    n = u.shape[0]
    if k == n:
        return
    rows = u.T
    resid = 1.0 - np.einsum("ij,ij->j", rows[:k].conj(), rows[:k]).real
    for j in range(k, n):
        cur = rows[:j]
        pick = int(np.argmax(resid))
        col = -(cur[:, pick].conj() @ cur)
        col[pick] += 1.0
        col /= np.linalg.norm(col)
        col -= (cur @ col.conj()).conj() @ cur
        col /= np.linalg.norm(col)
        rows[j] = col
        resid -= col.real * col.real + col.imag * col.imag


def one_sided_svd(a: np.ndarray, max_sweeps: int = MAX_SWEEPS):
    """Factor a tall matrix: returns (u, sigma, v) with a = u Σ v†.

    Requires rows >= cols >= 1.  u is rows x rows unitary, sigma the
    cols singular values sorted descending, v cols x cols unitary, and
    Σ the rows x cols diagonal extension of sigma.  Column phases are
    not normalized here; the caller owns that policy.
    """
    n, m = a.shape
    # Row i of x is column i of w = a 2**e, then column i of v.
    x, e = _scaled(a.T)
    wt = x[:, :n]
    if m > 1:
        for _ in range(max_sweeps):
            rotated = False
            norms = np.einsum("ij,ij->i", wt.conj(), wt).real.tolist()
            for ps, qs, _p, _q, pq in _schedule(m):
                k = len(ps)
                y = x[pq]
                gs = np.einsum("ij,ij->i", y[:k, :n].conj(), y[k:, :n]).tolist()
                blocks = [_KEEP] * k
                for i, (p, q, g) in enumerate(zip(ps, qs, gs)):
                    mag = abs(g)
                    if mag <= _EPS * math.sqrt(norms[p]) * math.sqrt(norms[q]):
                        continue
                    blocks[i], t = _rotation(norms[p], norms[q], g)
                    norms[p] = max(norms[p] - t * mag, 0.0)
                    norms[q] = max(norms[q] + t * mag, 0.0)
                if blocks.count(_KEEP) < k:
                    rotated = True
                    x[pq] = _rotated(blocks, y)
            if not rotated:
                break
        else:
            raise NumericError(
                f"one-sided Jacobi SVD did not converge in {max_sweeps} sweeps"
            )
    sigma = np.sqrt(np.einsum("ij,ij->i", wt.conj(), wt).real)
    order = (-sigma).argsort(kind="stable")
    sigma = sigma[order]
    zero_tol = max(n, m) * _EPS * float(sigma[0])
    good = int(np.count_nonzero(sigma > zero_tol))
    # u is filled column-major, so its columns are contiguous rows of u.T.
    u = np.zeros((n, n), dtype=np.complex128).T
    u[:, :good] = wt[order[:good]].T / sigma[:good]
    _complete_columns(u, good)
    v = x[order, n:].T
    return np.ascontiguousarray(u), sigma * 2.0**-e, np.ascontiguousarray(v)


def hermitian_jacobi(p: np.ndarray, max_sweeps: int = MAX_SWEEPS):
    """Diagonalize an exactly Hermitian matrix: returns (q, lam).

    p = q diag(lam) q† with lam real and sorted descending.  The caller
    is responsible for symmetrizing near-Hermitian input and for any
    phase policy on the columns of q.
    """
    n = p.shape[0]
    # x = [A | q†] with A = p 2**e: a step applies J† to the rows of x,
    # then J to the columns of A.
    x, e = _scaled(p)
    a = x[:, :n]
    if n > 1:
        for _ in range(max_sweeps):
            rotated = False
            diag = a.diagonal().real.tolist()
            for ps, qs, p_idx, q_idx, pq in _schedule(n):
                gs = a[p_idx, q_idx].tolist()
                blocks = [_KEEP] * len(ps)
                hit_p, hit_q = [], []
                for i, (p, q, g) in enumerate(zip(ps, qs, gs)):
                    app, aqq = diag[p], diag[q]
                    mag = abs(g)
                    if mag <= _EPS * math.sqrt(abs(app)) * math.sqrt(abs(aqq)):
                        continue
                    blocks[i], t = _rotation(app, aqq, g)
                    diag[p] = app - t * mag
                    diag[q] = aqq + t * mag
                    hit_p.append(p)
                    hit_q.append(q)
                if not hit_p:
                    continue
                rotated = True
                # J† on the rows of [A | q†] (c and s are real, so its
                # blocks are the conjugates), then J on the columns of A.
                kb = np.array(blocks, dtype=np.complex128)
                x[pq] = _rotated(kb.conj(), x[pq])
                a[:, pq] = _rotated(kb, a[:, pq].T).T
                a[hit_p + hit_q, hit_q + hit_p] = 0.0
                a.imag[pq, pq] = 0.0
            if not rotated:
                break
        else:
            raise NumericError(
                f"Jacobi eigensolver did not converge in {max_sweeps} sweeps"
            )
    lam = a.diagonal().real
    order = (-lam).argsort(kind="stable")
    q = x[order, n:].conj().T
    return np.ascontiguousarray(q), lam[order] * 2.0**-e
