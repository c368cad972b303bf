"""Jacobi rotation kernels backing the matrix instance.

Two solvers live here, sharing one rule for the 2x2 rotations:

* :func:`one_sided_svd` orthogonalizes the columns of a tall matrix by
  right-multiplying complex plane rotations, which yields the singular
  value decomposition without ever forming a Gram matrix.
* :func:`hermitian_jacobi` diagonalizes a Hermitian matrix with
  two-sided rotations.

Both sweep in the Brent–Luk round-robin order (Brent & Luk, SIAM J. Sci.
Stat. Comput. 6(1), 1985): a sweep of order m is m - 1 steps (m when m
is odd) of ⌊m/2⌋ disjoint pairs, so the rotations of one step commute
and a step is computed whole.  Both solvers diagonalize a Hermitian B;
for the SVD, B = W†W is never formed, B[p, q] being the inner product
of columns p and q of W.  A pair rotates while g = B[p, q] exceeds
machine epsilon times sqrt|B[p, p]| sqrt|B[q, q]|, a product of square
roots that cannot overflow.  With d = B[q, q] - B[p, p] and
r = copysign(2, d) / (|d| + hypot(d, 2|g|)), the rotation has tangent
t = r|g|, c = 1 / hypot(1, t) and sigma = c r conj(g), so nothing is
divided by |g|.  Its block [[c, -sigma], [conj(sigma), c]] mixes
columns p and q (J = blockᵀ makes J† B J diagonal in the pair), a pair
that does not rotate gets the identity block, and the tracked diagonal
moves by -t|g| and +t|g|.  The blocks of a step apply as one stacked
2x2 matmul on rows of row-major storage (the columns of ``w``, ``v`` and
``q`` are kept as rows), written into a buffer allocated once per call.

Steps of at least ``_ARRAY_PAIRS`` pairs (order 22 and up) compute the
threshold test and the rotation parameters as numpy arrays; smaller
steps loop over their pairs with Python floats, where the fixed cost of
each array operation outweighs the loop.  The measured crossover lies
between orders 18 and 24 and moves with the speed of the host; from
order 22 on, the arrays were within 3 % of the loop or faster in every
measurement.  The gate depends only on the order, so an input always
takes the same path; the two paths follow the same rule and may differ
in the last bit.  The sweep loop, the application of the blocks and the
convergence test are shared.

Before iterating, the input is scaled by an exact power of two taken
from its largest entry (as in Drmač & Veselić, SIMAX 29(4), 2008), so
entries near the overflow or underflow threshold neither overflow nor
lose their squares; singular values and eigenvalues are unscaled on the
way out, and one that overflows there raises
:class:`~daggermp.core.NumericError`.

After the prescale, both solvers are preconditioned by a Householder QR
with column pivoting, :func:`_qrcp`, written here in numpy (Drmač &
Veselić, "New fast and accurate Jacobi SVD algorithm I/II").  The SVD
of a tall a runs Jacobi on the cols x cols R†, whose columns pivoting
has graded by size, and takes the complement of the range from Q; the
eigensolver runs Jacobi on Q† p Q.  A numerical null space ends as
trailing rows of R at rounding level, so inputs at the rank boundary
need about half the sweeps (a rank-24 48x48 product: 17-21 sweeps
unpreconditioned, 9-10 here).  The QR sorts rows by decreasing largest
entry first, as LAPACK's xGEJSV does with row pivoting, so that graded
rows keep the relative accuracy of Jacobi (Demmel & Veselić, SIMAX
13(4), 1992).  The same QR splits a dagger idempotent of rank k on its
own: the first k columns of Q span its range and the others its
kernel (see :meth:`~daggermp.matrix.MatrixInstance.split_idempotent`
and :meth:`~daggermp.matrix.MatrixInstance.split_with_kernel`).  The QR
stops at the rank its caller keeps: after k reflectors for the split,
at the null order below for a deflating solver; the reflectors it
skips would not have touched the first k columns of Q.  A caller that
reads only those columns, as :func:`~daggermp.matrix.pinv` does, gets
them formed from the stored reflectors, as xUNGQR does, in place of a
rows x rows Q.

A caller that zeroes every eigenvalue or singular value below the
default cutoff lets the solvers drop the trailing rows of R outright,
by one rule, the null order that :func:`_qrcp` stops at: the first
step k whose remaining block has sqrt(2) ‖R[k:, :]‖_F <= cut / 2,
read off the squared column norms that pivoting computes anyway.  The
eigensolver then runs Jacobi only on the leading block of Q† p Q, the
SVD only on the leading rows of R, and the dropped values come back as
exact zeros (see :func:`hermitian_jacobi` and :func:`one_sided_svd`).
On the rank-8 gram of an 8x64 input that leaves a problem of order 8,
where resolving the rounding noise of the other 56 eigenvalues took 567
steps of order 64; the SVD of a rank-24 48x48 product runs at order
24, not 48.  Rows of R below about 1e-154 of the first, whose squared
norms underflow, fall in the dropped block at that cutoff, so
row-graded inputs that the full solve cannot converge on factor there.

Both solvers run until a full sweep after the QR, over the whole
matrix or over its leading block, triggers no rotation.
The sweep budget is :data:`MAX_SWEEPS`, read at each call; exceeding
it raises :class:`~daggermp.core.NumericError`.  All paths are
deterministic: identical input bytes give identical output bytes.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import NumericError

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)
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


def _unscale(values: np.ndarray, e: int) -> np.ndarray:
    """values * 2**-e, undoing the prescale; NumericError if one overflows."""
    with np.errstate(over="ignore"):
        out = values * 2.0**-e
    if not np.isfinite(out).all():
        raise NumericError("a singular value or eigenvalue overflowed")
    return out


def _with_identity(w: np.ndarray) -> np.ndarray:
    """[w | I], I the identity of order rows(w)."""
    rows, cols = w.shape
    x = np.zeros((rows, cols + rows), dtype=np.complex128)
    x[:, :cols] = w
    x[:, cols:].flat[:: rows + 1] = 1.0
    return x


def _qrcp(a: np.ndarray, rank: int | None = None, deflate: bool = False, thin: bool = False):
    """Householder QR with column pivoting: (q, r, perm) with a[:, perm] = q r.

    q is rows x rows unitary, r rows x cols upper trapezoidal with
    |r[j, j]| non-increasing (pivoting compares sums of squares, so
    columns below about 1e-154 of the largest keep their order).  The
    rows are first sorted by decreasing largest entry (a stable sort,
    folded into q).  Step j then brings forward the remaining column of
    largest norm below row j (ties go to the lowest position) and zeroes
    it below the diagonal with
    H = I - tau v v†, v[0] = 1, in the xLARFG form: for the column part
    x = [alpha, x'], beta = -sign(Re alpha) ‖x‖, tau = (beta - alpha) /
    beta and v' = x' / (alpha - beta), so that H† x = beta e_0 with
    nothing normalized away.  A column already zero below the diagonal
    with a real head gets no reflector, and neither does the last row,
    so real diagonal inputs, and triangular ones already in pivot order,
    come out exact.

    A caller that keeps only the leading k columns of q stops the QR
    there.  ``rank`` stops it after that many reflectors.  ``deflate``
    stops it at the null order, the first step j whose remaining block
    meets sqrt(2) ‖R[j:, :]‖_F <= cut / 2 with cut = min(rows, cols) eps
    ‖R[0, :]‖₂ (j = 0 only for a zero a).  With either, or with
    ``thin``, r is R[:k], k the rows computed: min(rows, cols) unless a
    stop came first.  q is still rows x rows, its first k columns those
    of the full QR (later reflectors never touch them), unless ``thin``
    asks for q[:, :k] alone: then the reflectors are stored and applied
    backward to the first k columns of I, as xUNGQR does, instead of
    being accumulated into a rows x rows q.
    """
    rows, cols = a.shape
    k = min(rows, cols) if rank is None else min(rows, cols, rank)
    # Rows of t: the columns of the row-sorted Π a, then those of Πᵀ
    # unless thin.  The reflectors apply to both, so with Π a[:, perm] =
    # Q̂ r the last rows end as the columns of (Πᵀ Q̂)† = q†.
    order = (-np.abs(a).max(axis=1)).argsort(kind="stable")
    t = np.zeros((cols + (0 if thin else rows), rows), dtype=np.complex128)
    t[:cols] = a[order].T
    if not thin:
        t[cols + order, np.arange(rows)] = 1.0
    reflectors = []
    perm = list(range(cols))
    # The null order's bound on ‖R[j:, :]‖_F, 0 until row 0 of R is known.
    # It is compared with a sum of squares: after the callers'
    # power-of-two prescale ‖R[0, :]‖₂ >= 0.5, so the bound is at least
    # eps / 6, about 4e-17, and its square about 1e-33, far above where
    # squares underflow; an entry whose square underflows (below about
    # 1e-154) adds at most about 1e-308 to the sum.
    limit = 0.0
    for j in range(k):
        tail = t[j:cols, j:]
        norms = np.einsum("ij,ij->i", tail.conj(), tail).real
        if deflate:
            if j == 1:
                head = float(np.hypot.reduce(np.abs(t[:cols, 0])))
                limit = min(rows, cols) * _EPS * head / (2.0 * math.sqrt(2.0))
            if math.sqrt(float(norms.sum())) <= limit:
                k = j
                break
        if j == rows - 1:
            break
        pick = int(norms.argmax())
        if pick:
            row = t[j].copy()
            t[j] = t[j + pick]
            t[j + pick] = row
            perm[j], perm[j + pick] = perm[j + pick], perm[j]
        x = t[j, j:]
        alpha = complex(x[0])
        if alpha.imag == 0.0 and not np.count_nonzero(x[1:]):
            reflectors.append(None)
            continue
        # ‖x‖ by hypot: a sum of squares can underflow to 0 for x != 0.
        norm = float(np.hypot.reduce(np.abs(x)))
        e = 0
        if norm < _TINY:
            # 1 / (alpha - beta) would overflow: as xLARFG does, scale x
            # into the normal range first; tau and v do not change.
            e = _pow2_exponent(x)
            x *= 2.0**e
            alpha = complex(x[0])
            norm = float(np.hypot.reduce(np.abs(x)))
        beta = -math.copysign(norm, alpha.real)
        tau = (beta - alpha) / beta
        v = x / (alpha - beta)
        v[0] = 1.0
        x[0] = beta * 2.0**-e
        x[1:] = 0.0
        rest = t[j + 1 :, j:]
        rest -= (rest @ (v.conj() * tau.conjugate()))[:, None] * v
        reflectors.append((v, tau))
    r = t[:cols].T
    if rank is not None or deflate or thin:
        r = r[:k]
    if not thin:
        return t[cols:].conj(), r, np.array(perm)
    q = np.zeros((rows, k), dtype=np.complex128)
    np.fill_diagonal(q, 1.0)
    for j in reversed(range(len(reflectors))):
        if reflectors[j] is not None:
            v, tau = reflectors[j]
            block = q[j:, j:]
            block -= np.outer(tau * v, v.conj() @ block)
    out = np.empty_like(q)
    out[order] = q
    return out, r, np.array(perm)


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


# Steps of at least this many pairs compute their rotations as arrays
# (_array_step), smaller ones pair by pair (_scalar_step).
_ARRAY_PAIRS = 11

# The block of a pair that does not rotate.
_KEEP = ((1.0, 0.0), (0.0, 1.0))


def _scalar_step(vals: list, step, g: np.ndarray, couplings: bool):
    """:func:`_array_step` one pair at a time, with vals a list of floats.

    The coupling entries come back as lists whether or not they are
    asked for: building them costs less than the test.
    """
    ps, qs = step[0], step[1]
    blocks = [_KEEP] * len(ps)
    hit_p, hit_q = [], []
    for i, (p, q, gi) in enumerate(zip(ps, qs, g.tolist())):
        app, aqq = vals[p], vals[q]
        mag = abs(gi)
        if mag <= _EPS * math.sqrt(abs(app)) * math.sqrt(abs(aqq)):
            continue
        d = aqq - app
        r = math.copysign(2.0, d) / (abs(d) + math.hypot(d, 2.0 * mag))
        t = r * mag
        c = 1.0 / math.hypot(1.0, t)
        sigma = c * (r * gi.conjugate())
        blocks[i] = ((c, -sigma), (sigma.conjugate(), c))
        vals[p] = app - t * mag
        vals[q] = aqq + t * mag
        hit_p.append(p)
        hit_q.append(q)
    if not hit_p:
        return None
    return np.array(blocks, dtype=np.complex128), (hit_p + hit_q, hit_q + hit_p)


def _array_step(vals: np.ndarray, step, g: np.ndarray, couplings: bool):
    """The rotations of one step: (blocks, entries), or None if none rotates.

    vals holds the diagonal of B (for the SVD, the squared column norms)
    and is updated in place; g holds B[p, q] for the step's pairs.  The
    rule is the one in the module docstring; a pair that does not rotate
    gets the identity block through the masked division.  With
    couplings, entries = (rows, cols) indexes B[p, q] and B[q, p] of
    every rotated pair; otherwise it is None.
    """
    pq = step[4]
    k = len(g)
    v = vals[pq]
    mag = np.abs(g)
    roots = np.sqrt(np.abs(v))
    hit = mag > roots[:k] * _EPS * roots[k:]
    if not hit.any():
        return None
    d = v[k:] - v[:k]
    den = np.hypot(d, 2.0 * mag)
    den += np.abs(d)
    r = np.divide(np.copysign(2.0, d), den, out=np.zeros(k), where=hit)
    t = r * mag
    blocks = np.empty((k, 2, 2), dtype=np.complex128)
    flat = blocks.reshape(k, 4)
    c = 1.0 / np.hypot(1.0, t)
    flat[:, 0] = c
    flat[:, 3] = c
    sigma_bar = np.multiply(r, g, out=flat[:, 2])
    sigma_bar *= c
    np.negative(sigma_bar.conj(), out=flat[:, 1])
    t *= mag
    v[:k] -= t
    v[k:] += t
    vals[pq] = v
    if not couplings:
        return blocks, None
    hit_p, hit_q = step[2][hit], step[3][hit]
    return blocks, (np.concatenate((hit_p, hit_q)), np.concatenate((hit_q, hit_p)))


def _mix(blocks: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Rows [p_0..p_k-1; q_0..q_k-1] of y mixed by one 2x2 block per pair.

    Row p_i of out is b00 y[p_i] + b01 y[q_i] and row q_i is
    b10 y[p_i] + b11 y[q_i], with blocks[i] = [[b00, b01], [b10, b11]];
    all pairs go through one stacked matmul written straight into out.
    """
    k = len(blocks)
    np.matmul(
        blocks,
        y.reshape(2, k, -1).transpose(1, 0, 2),
        out=out.reshape(2, k, -1).transpose(1, 0, 2),
    )
    return out


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


def one_sided_svd(a: np.ndarray, _deflate: bool = False, _thin: bool = False):
    """Factor a tall matrix: returns (u, sigma, v) with a = u Σ v†.

    Requires rows >= cols >= 1.  u is rows x rows unitary, sigma the
    cols singular values sorted descending, v cols x cols unitary, and
    Σ the rows x cols diagonal extension of sigma.  Column phases are
    not normalized here; the caller owns that policy.

    With a 2**e P = Q R, Jacobi runs on the cols x cols R†: R† V = U Σ
    gives u = [Q₁V | Q₂] and v = P U.  By default every singular value
    is resolved to full relative accuracy.

    ``_deflate`` is private to the callers that cut every singular
    value at most the default cutoff max(rows, cols) eps max(sigma).
    Then the QR stops at its null order k, so that
    sqrt(2) ‖R[k:, :]‖_F <= cut / 2 with cut = cols eps ‖R[0, :]‖₂, at
    most the callers' cutoff for a 2**e (‖R[0, :]‖₂ = ‖(a 2**e P)† Q e₀‖₂
    is at most its largest singular value), and Jacobi runs only on the
    leading k rows of R.  The dropped block E = R[k:, :] has
    ‖E‖₂ <= ‖E‖_F, so by Weyl's bound the cols - k singular values
    returned as exact 0, with the trailing columns of Q as left vectors
    and :func:`_complete_columns` completing the right ones, and the
    shift of every other one are below cut / 2, a shift at the level of
    rounding.

    ``_thin`` is private to the callers that read only the leading
    singular pairs: u is then rows x k, k the columns Jacobi ran on
    (cols, or the null order with ``_deflate``), and Q₁ is formed from
    the stored reflectors without the rows x rows Q.  With ``_deflate``
    as well, v is cols x g, g the count of singular values above
    max(rows, cols) eps max(sigma), taken before they are unscaled, and
    no right vector is completed.  Unscaling is exact, so the same cut
    of the returned sigma keeps g values, unless a value leaves the
    normal range there (see :func:`~daggermp.matrix._thin_svd`).
    """
    n, m = a.shape
    e = _pow2_exponent(a)
    u, r, perm = _qrcp(a * 2.0**e, deflate=_deflate, thin=_thin)
    r = r[:m]
    k = len(r)
    # Row i of x is column i of w = R[:k]†, then column i of V.
    x = _with_identity(r[:k].conj())
    wt = x[:, :m]
    if k > 1:
        half = k // 2
        arrays = half >= _ARRAY_PAIRS
        rotations = _array_step if arrays else _scalar_step
        mixed = np.empty((2 * half, m + k), dtype=np.complex128)
        for _ in range(MAX_SWEEPS):
            rotated = False
            norms = np.einsum("ij,ij->i", wt.conj(), wt).real
            if not arrays:
                norms = norms.tolist()
            for step in _schedule(k):
                pq = step[4]
                y = x[pq]
                g = np.einsum("ij,ij->i", y[:half, :m].conj(), y[half:, :m])
                found = rotations(norms, step, g, False)
                if found is not None:
                    rotated = True
                    x[pq] = _mix(found[0], y, mixed)
            if not rotated:
                break
        else:
            raise NumericError(
                f"one-sided Jacobi SVD did not converge in {MAX_SWEEPS} sweeps"
            )
    squares = np.einsum("ij,ij->i", wt.conj(), wt).real
    sigma = np.sqrt(squares)
    # A row whose sum of squares is 0 or subnormal can still be nonzero:
    # take its norm by hypot, which does not underflow.
    for i in np.flatnonzero(squares < _TINY):
        sigma[i] = np.hypot.reduce(np.abs(wt[i]))
    order = (-sigma).argsort(kind="stable")
    sigma = np.concatenate((sigma[order], np.zeros(m - k)))
    zero_tol = max(n, m) * _EPS * float(sigma[0])
    good = int(np.count_nonzero(sigma > zero_tol))
    width = good if _thin and _deflate else m
    # uw is filled column-major, so its columns are contiguous rows of uw.T.
    uw = np.zeros((width, m), dtype=np.complex128).T
    uw[:, :good] = wt[order[:good]].T / sigma[:good]
    if width == m:
        _complete_columns(uw, good)
    v = np.empty((m, width), dtype=np.complex128)
    v[perm] = uw
    u[:, :k] = u[:, :k] @ x[order, m:].T
    return u, _unscale(sigma, e), v


def hermitian_jacobi(p: np.ndarray, _deflate: bool = False):
    """Diagonalize a Hermitian matrix: returns (q, lam).

    p = q diag(lam) q† with lam real and sorted descending, p taken as
    its symmetrization (p + p†)/2 (the real diagonal when n is 1).  The
    caller is responsible for any phase policy on the columns of q.

    With s = (p 2**e + (p 2**e)†)/2, which the prescale keeps finite
    (and exact where p 2**e is normal), and s P = Q R, Jacobi runs on
    B = Q† s Q (which is R Pᵀ Q), symmetrized exactly, and q is Q times
    the eigenvectors of B.  By default every eigenvalue is resolved to
    full relative accuracy.

    ``_deflate`` is private to the callers that zero every eigenvalue
    of modulus at most the default cutoff n eps max|lam|.  Then the QR
    stops at its null order k, the first step with
    sqrt(2) ‖R[k:, :]‖_F <= cut / 2, where cut = n eps ‖R[0, :]‖₂ is
    known before the solve and at most the callers' cutoff
    (‖R[0, :]‖₂ = ‖s Q e₀‖₂ <= ‖s‖₂ = max|lam|), and Jacobi runs only
    on the leading k x k block of B.  Rows k: of B are
    rows k: of R times a unitary and B is Hermitian, so the rest of B,
    E, has ‖E‖₂ <= sqrt(2) ‖R[k:, :]‖_F, and by Weyl's bound the n - k
    eigenvalues returned as exact 0, with the trailing columns of Q as
    eigenvectors, and the shift of every other one are at most cut / 2,
    a shift at the level of rounding.
    """
    n = p.shape[0]
    if n == 1:
        return np.ones((1, 1), dtype=np.complex128), p.diagonal().real.copy()
    e = _pow2_exponent(p)
    scaled = p * 2.0**e
    scaled = (scaled + scaled.conj().T) / 2.0
    qh, rh, _ = _qrcp(scaled, deflate=_deflate)
    k = len(rh)
    lead = qh[:, :k]
    b = lead.conj().T @ scaled @ lead
    # Rows of vt: the conjugated eigenvectors of B, with I on the
    # trailing n - k coordinates.
    vt = np.eye(n, dtype=np.complex128)
    lam = np.zeros(n)
    if k:
        vt[:k, :k], lam[:k] = _jacobi_sweeps(b)
    order = (-lam).argsort(kind="stable")
    return qh @ vt[order].conj().T, _unscale(lam[order], e)


def _jacobi_sweeps(b: np.ndarray):
    """(vt, lam): b = vt† diag(lam) vt with b Hermitian, lam unsorted."""
    n = b.shape[0]
    # x = [A | vt] with A = b: a step applies J† to the rows of x, then
    # J to the columns of A.
    x = _with_identity((b + b.conj().T) / 2.0)
    a = x[:, :n]
    k = n // 2
    arrays = k >= _ARRAY_PAIRS
    rotations = _array_step if arrays else _scalar_step
    mixed_rows = np.empty((2 * k, 2 * n), dtype=np.complex128)
    mixed_cols = np.empty((2 * k, n), dtype=np.complex128)
    for _ in range(MAX_SWEEPS):
        rotated = False
        diag = a.diagonal().real.copy()
        if not arrays:
            diag = diag.tolist()
        for step in _schedule(n):
            _, _, p_idx, q_idx, pq = step
            found = rotations(diag, step, a[p_idx, q_idx], True)
            if found is None:
                continue
            rotated = True
            blocks, couplings = found
            # J = blocksᵀ per pair: J† mixes the rows of x by the
            # conjugate blocks, J the columns of A by the blocks.
            x[pq] = _mix(blocks.conj(), x[pq], mixed_rows)
            a[:, pq] = _mix(blocks, a[:, pq].T, mixed_cols).T
            a[couplings] = 0.0
            a.imag[pq, pq] = 0.0
        if not rotated:
            break
    else:
        raise NumericError(
            f"Jacobi eigensolver did not converge in {MAX_SWEEPS} sweeps"
        )
    return x[:, n:], a.diagonal().real
