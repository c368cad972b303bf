"""Dense complex matrices as a dagger category instance.

A morphism ``n -> m`` is an n-by-m complex matrix, ``compose(f, g)`` is
the ordinary product ``f @ g`` (composition reads left to right), and
the dagger is the conjugate transpose.  Two consequences worth keeping
in mind:

* an isometry has orthonormal rows (``s @ s.dagger() == I`` on the source),
* a coisometry has orthonormal columns (``r.dagger() @ r == I`` on the target).

The SVD and the Hermitian eigendecomposition are computed in-repo with
Jacobi rotations, and dagger idempotents are split by the pivoted QR
that preconditions them (see ``_jacobi``); numpy supplies array storage
and elementwise arithmetic only.  Both factorizations are deterministic:
singular values sort descending and each left singular vector's phase
is fixed so its first component of modulus above max(rows, cols) times
machine epsilon is real and nonnegative, with the phase compensated in
the right factor; eigenvectors follow the same rule with rows times
machine epsilon.  The cutoffs sit on the unit scale of the vectors, so
scaling the input by a power of two scales the values and leaves the
vectors' bytes unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _jacobi
from .core import (
    EQ_TOL_DEFAULT,
    CapabilityError,
    DaggerInstance,
    InputError,
    NumericError,
    PreconditionError,
    Tolerance,
    check,
    is_plain_int,
    json_fields,
    within,
)

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True, eq=False)
class ComplexMatrix:
    """Immutable dense complex matrix; the morphism type of this instance.

    ``ComplexMatrix(array)`` validates outside input: it copies array to
    complex128 and raises InputError unless it is 2-D with finite entries.
    Every matrix the package computes is wrapped by :func:`_computed`
    instead, uncopied and read-only; no writable alias of its array may
    outlive the wrap.  :meth:`dagger`, :meth:`identity` and :meth:`zeros`
    skip even that scan and only wrap (:func:`_wrap`): the conjugate
    transpose of finite entries and a constant built from 0 and 1 are
    finite by construction.
    """

    array: np.ndarray

    def __post_init__(self):
        arr = np.array(self.array, dtype=np.complex128)
        if arr.ndim != 2:
            raise InputError(f"matrix must be 2-dimensional, got shape {arr.shape}")
        if arr.size and not np.all(np.isfinite(arr)):
            raise InputError("matrix entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[complex]]) -> "ComplexMatrix":
        return cls(np.array(rows, dtype=np.complex128).reshape(len(rows), -1))

    @classmethod
    def identity(cls, n: int) -> "ComplexMatrix":
        return _wrap(np.eye(n, dtype=np.complex128))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ComplexMatrix":
        return _wrap(np.zeros((rows, cols), dtype=np.complex128))

    def dagger(self) -> "ComplexMatrix":
        return _wrap(self.array.conj().T)

    def norm(self) -> float:
        return _frobenius(self.array)

    def __matmul__(self, other: "ComplexMatrix") -> "ComplexMatrix":
        if self.cols != other.rows:
            raise InputError(
                f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}"
            )
        with np.errstate(over="ignore", invalid="ignore"):  # NumericError on overflow
            return _computed(self.array @ other.array)

    def __repr__(self):
        return f"ComplexMatrix({self.rows}x{self.cols})"


def _sum_of_squares(arr: np.ndarray) -> float:
    """Σ|a_ij|² as one BLAS dot product, with no floating-point flag check.

    ``ravel(order="K")`` copies nothing for a C- or F-ordered array (a
    conjugate transpose is F-ordered).  An inf or nan entry makes the
    sum nan or inf, and finite entries may overflow or underflow it.
    """
    flat = arr.ravel(order="K")
    return float(np.vdot(flat, flat).real)


def _wrap(arr: np.ndarray) -> ComplexMatrix:
    """Wrap a complex128 2-D array known to be finite, read-only, uncopied."""
    arr.setflags(write=False)
    out = object.__new__(ComplexMatrix)
    object.__setattr__(out, "array", arr)
    return out


def _computed(arr: np.ndarray) -> ComplexMatrix:
    """Wrap a computed complex128 2-D array; as every input was finite, a
    non-finite entry is an overflow and raises NumericError.

    A finite sum of squares proves every entry finite, so the
    elementwise scan runs only when the sum is not: then either an entry
    is inf or nan, or finite entries above about 1e154 overflowed the
    sum.
    """
    if not math.isfinite(_sum_of_squares(arr)) and not np.isfinite(arr).all():
        raise NumericError("a computed %dx%d matrix overflowed" % arr.shape)
    return _wrap(arr)


def _frobenius(arr: np.ndarray) -> float:
    """Frobenius norm that neither overflows nor underflows to zero.

    The norm is √s for the sum of squares s of :func:`_sum_of_squares`
    when s is finite and normal, or when arr is zero.  Otherwise s
    overflowed, as an entry passed about 1e154, or it is below the
    smallest normal, as every entry is below about 1e-154 and the
    squares lost bits, or an entry is not finite.  An array holding an
    overflowed inf reads inf from ``np.linalg.norm``; any other is first
    rescaled by a power of two (Blue, ACM TOMS 4(1), 1978), which can
    neither overflow nor produce a nan.
    """
    s = _sum_of_squares(arr)
    if _TINY <= s < math.inf or not arr.any():
        return math.sqrt(s)
    if not np.isfinite(arr).all():
        return float(np.linalg.norm(arr))
    e = _jacobi._pow2_exponent(arr)
    return math.sqrt(_sum_of_squares(arr * 2.0**e)) * 2.0**-e


def _default_rank_tol(rows: int, cols: int, sigma_max: float) -> float:
    return max(rows, cols) * _EPS * sigma_max


def _eig_cutoff(p: ComplexMatrix, lam: np.ndarray, rank_tol: Optional[float]) -> float:
    """rank_tol, or the default cutoff for p scaled by the largest |eigenvalue|."""
    if rank_tol is not None:
        return rank_tol
    lam_max = float(np.max(np.abs(lam))) if lam.size else 0.0
    return _default_rank_tol(p.rows, p.cols, lam_max)


@dataclass(frozen=True)
class SVDResult:
    """u Σ v† = a with u, v unitary and Σ the diagonal extension of sigma."""

    u: ComplexMatrix
    sigma: tuple[float, ...]
    v: ComplexMatrix
    rank: int

    def sigma_matrix(self) -> ComplexMatrix:
        n, m = self.u.rows, self.v.rows
        out = np.zeros((n, m), dtype=np.complex128)
        k = len(self.sigma)
        out[:k, :k] = np.diag(self.sigma)
        return _computed(out)

    def reconstruct(self) -> ComplexMatrix:
        return self.u @ self.sigma_matrix() @ self.v.dagger()


@dataclass(frozen=True)
class HermEigResult:
    """q diag(eigenvalues) q† = p with q unitary, eigenvalues descending."""

    q: ComplexMatrix
    eigenvalues: tuple[float, ...]

    def reconstruct(self) -> ComplexMatrix:
        return _computed(_congruence(self.q.array, np.asarray(self.eigenvalues)))


def _congruence(q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """q diag(w) q†; an entry of w that overflowed leaves inf or nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (q * w) @ q.conj().T


def _reciprocal(x: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """1/x where keep holds, else 0; a reciprocal that overflows reads inf."""
    with np.errstate(over="ignore"):
        return np.where(keep, 1.0 / np.where(keep, x, 1.0), 0.0)


def _phases(cols: np.ndarray, cutoff: float) -> np.ndarray:
    """Per column of unit vectors, the unit scalar making its first entry
    of modulus above cutoff real and nonnegative.

    A column with no such entry uses its largest entry; a zero column
    gets 1.  The parts are divided by the modulus one by one, so a real
    positive entry gets exactly 1.
    """
    mods = np.abs(cols)
    above = mods > cutoff
    first = np.where(above.any(axis=0), above.argmax(axis=0), mods.argmax(axis=0))
    z = cols[first, np.arange(cols.shape[1])].conj()
    z[z == 0.0] = 1.0
    mag = np.abs(z)
    z.real /= mag
    z.imag /= mag
    return z


def svd(a: ComplexMatrix, rank_tol: Optional[float] = None) -> SVDResult:
    """One-sided Jacobi SVD, run on the taller orientation.

    ``rank_tol`` overrides the cutoff used for the rank count; the
    default is ``max(rows, cols) * machine_eps * sigma_max``.  The phase
    of each column of u (and of the matching column of v) is fixed on
    the unit scale: its first entry of modulus above
    ``max(rows, cols) * machine_eps`` is real and nonnegative, so the
    factors do not depend on the scale of ``a`` or on ``rank_tol``.
    """
    n, m = a.rows, a.cols
    if min(n, m) == 0:
        return SVDResult(ComplexMatrix.identity(n), (), ComplexMatrix.identity(m), 0)
    if n >= m:
        u, s, v = _jacobi.one_sided_svd(a.array)
    else:
        vb, s, ub = _jacobi.one_sided_svd(a.array.conj().T)
        u, v = ub, vb
    k = len(s)
    smax = float(s[0]) if k else 0.0
    tol = rank_tol if rank_tol is not None else _default_rank_tol(n, m, smax)
    unit_tol = max(n, m) * _EPS
    phases = _phases(u, unit_tol)
    u *= phases
    v[:, :k] *= phases[:k]
    if m > k:
        v[:, k:] *= _phases(v[:, k:], unit_tol)
    rank = int(np.count_nonzero(s > tol))
    return SVDResult(_computed(u), tuple(float(x) for x in s), _computed(v), rank)


def pinv(a: ComplexMatrix, rank_tol: Optional[float] = None) -> ComplexMatrix:
    """Moore-Penrose inverse via the SVD, singular values cut at rank_tol."""
    res = svd(a, rank_tol=rank_tol)
    k = res.rank
    if k == 0:
        return ComplexMatrix.zeros(a.cols, a.rows)
    vk, uk = res.v.array[:, :k], res.u.array[:, :k]
    with np.errstate(over="ignore", invalid="ignore"):  # NumericError on overflow
        return _computed((vk / np.asarray(res.sigma[:k])) @ uk.conj().T)


def numeric_rank(a: ComplexMatrix, rank_tol: Optional[float] = None) -> int:
    """Count of singular values above the cutoff; 0 for the zero matrix."""
    return svd(a, rank_tol=rank_tol).rank


def _transpose_ranks(
    a: ComplexMatrix, rank_tol: Optional[float] = None
) -> tuple[int, int, int]:
    """rank(a), rank(a aᵀ) and rank(aᵀ a), with the unconjugated transpose.

    With a = U_k Σ_k V_k† from :func:`svd`, σ cut at rank_tol,
    a aᵀ = U_k Σ_k (V_k† V̄_k) Σ_k U_kᵀ with Σ_k invertible and U_k of
    full column rank, so rank(a aᵀ) = rank(V_kᵀ V_k); likewise
    rank(aᵀ a) = rank(U_kᵀ U_k).  Both are k x k of unit scale and are
    cut at the fixed max(rows, cols) * machine_eps: nothing is squared,
    and neither the scale of a nor rank_tol reaches the two products.
    """
    res = svd(a, rank_tol=rank_tol)
    u, v = res.u.array[:, : res.rank], res.v.array[:, : res.rank]
    cut = max(a.rows, a.cols) * _EPS
    return res.rank, *(numeric_rank(_computed(w.T @ w), cut) for w in (v, u))


def has_mp_wrt_transpose(a: ComplexMatrix, rank_tol: Optional[float] = None) -> bool:
    """Existence test for the plain-transpose dagger.

    With the unconjugated transpose as dagger, a Moore-Penrose inverse
    exists iff rank(a aᵀ) = rank(a) = rank(aᵀ a).  Complex entries can
    collapse the products' rank ([i, 1] is the classic failure); real
    matrices always pass.
    """
    r, r_left, r_right = _transpose_ranks(a, rank_tol)
    return r_left == r == r_right


def _distance(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """|lhs - rhs|, inf when the difference overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        diff = lhs - rhs
    return _frobenius(diff)


def _require_equal(lhs: np.ndarray, rhs: np.ndarray, scale, eq_tol, what) -> None:
    """PreconditionError carrying |lhs - rhs| unless :func:`within` passes it."""
    dev = _distance(lhs, rhs)
    if not within(dev, scale, eq_tol):
        raise PreconditionError(what, residual=dev)


def _require_hermitian(p: ComplexMatrix, eq_tol: float) -> None:
    """p = p† at scale |p| (PreconditionError); InputError unless square."""
    if p.rows != p.cols:
        raise InputError("a Hermitian matrix must be square")
    arr = p.array
    _require_equal(arr, arr.conj().T, p.norm(), eq_tol, "matrix is not Hermitian")


def herm_eig(
    p: ComplexMatrix, eq_tol: float = EQ_TOL_DEFAULT, _deflate: bool = False
) -> HermEigResult:
    """Eigendecomposition of a Hermitian matrix via two-sided Jacobi.

    p must pass :func:`_require_hermitian` at eq_tol; the kernel
    symmetrizes it after its power-of-two prescale, so the factorization
    reproduces (p + p†)/2 without overflow or underflow.  ``_deflate``
    is private to :func:`herm_mp` and :func:`hermitian_sqrt` at their
    default cutoff (see :func:`~daggermp._jacobi.hermitian_jacobi`).
    """
    _require_hermitian(p, eq_tol)
    if p.rows == 0:
        return HermEigResult(ComplexMatrix.identity(0), ())
    q, lam = _jacobi.hermitian_jacobi(p.array, _deflate=_deflate)
    q *= _phases(q, p.rows * _EPS)
    return HermEigResult(_computed(q), tuple(float(x) for x in lam))


def herm_mp(
    p: ComplexMatrix,
    rank_tol: Optional[float] = None,
    eq_tol: float = EQ_TOL_DEFAULT,
) -> ComplexMatrix:
    """Moore-Penrose inverse of a Hermitian matrix via its eigenvalues.

    This is the eigendecomposition route (invert eigenvalues above the
    cutoff, zero the rest); it is independent of the SVD-based
    :func:`pinv` and serves as the gram solver for matrices.  The
    cutoff is rank_tol, or by default rows times machine epsilon times
    the largest |eigenvalue|.  At the default the eigensolver returns
    as exact 0 the eigenvalues of the null space that its pivoted QR
    reveals below half the cutoff, and every other eigenvalue moves by
    at most half the cutoff, a shift at the level of rounding.  With an
    explicit rank_tol every eigenvalue is resolved before the cut.
    """
    eig = herm_eig(p, eq_tol=eq_tol, _deflate=rank_tol is None)
    lam = np.asarray(eig.eigenvalues)
    tol = _eig_cutoff(p, lam, rank_tol)
    return _computed(_congruence(eig.q.array, _reciprocal(lam, np.abs(lam) > tol)))


def split_dagger_idempotent(
    e: ComplexMatrix, eq_tol: float = EQ_TOL_DEFAULT
) -> ComplexMatrix:
    """Split a dagger idempotent: returns r (n x k) with r r† = e, r† r = I_k.

    The rank k of a dagger idempotent is its trace; r is the first k
    columns of Q from a pivoted QR of e, phases fixed as for eigenvectors.
    e = e† at scale |e|, r r† = e at scale |e| and r† r = I_k at scale
    √k must pass :func:`~daggermp.core.within` at eq_tol, or
    PreconditionError is raised.
    """
    _require_hermitian(e, eq_tol)
    # The diagonal of a dagger idempotent lies in [0, 1]: clipping it
    # changes nothing there and keeps k in [0, n] for any other input.
    k = round(float(np.clip(e.array.diagonal().real, 0.0, 1.0).sum()))
    r = np.zeros((e.rows, 0), dtype=np.complex128)
    if k:
        r = _jacobi._qrcp(e.array * 2.0 ** _jacobi._pow2_exponent(e.array))[0][:, :k]
        r *= _phases(r, e.rows * _EPS)
    rd = r.conj().T
    _require_equal(r @ rd, e.array, e.norm(), eq_tol, "not an idempotent")
    _require_equal(rd @ r, np.eye(k), math.sqrt(k), eq_tol, "split is not a coisometry")
    return _computed(r)


def dagger_kernel(a: ComplexMatrix, rank_tol: Optional[float] = None) -> ComplexMatrix:
    """Kernel of a as an isometry: k is z x n with k a = 0 and k k† = I_z.

    The rows of k are an orthonormal basis of the left null space, taken
    from the final columns of the SVD's left factor; z = n - rank(a).
    """
    res = svd(a, rank_tol=rank_tol)
    return _computed(res.u.array[:, res.rank:].conj().T)


def kernel_universality_holds(
    a: ComplexMatrix,
    k: ComplexMatrix,
    g: ComplexMatrix,
    eq_tol: float = EQ_TOL_DEFAULT,
) -> bool:
    """Check that g factors through the kernel: g = (g k†) k.

    ``g`` must satisfy g a = 0 with scale |g| |a|, or InputError is
    raised; the return value reports whether the mediation holds.
    """
    if g.cols != a.rows or k.cols != a.rows:
        raise InputError("kernel universality arguments must map into source(a)")
    inst = MatrixInstance(Tolerance(eq_tol=eq_tol))
    zero = inst.zero(g.rows, a.cols)
    check(inst, g @ a, zero, InputError, "g does not annihilate a", g.norm() * a.norm())
    return inst.equals((g @ k.dagger()) @ k, g)


def hermitian_sqrt(
    p: ComplexMatrix,
    rank_tol: Optional[float] = None,
    eq_tol: float = EQ_TOL_DEFAULT,
) -> ComplexMatrix:
    """Positive square root of a positive matrix via the eigenvalue route.

    Eigenvalues below the cutoff truncate to zero, so the root of a
    singular positive matrix is again singular rather than polluted by
    noise-level negative eigenvalues.  The cutoff is that of
    :func:`herm_mp`, and as there, at the default cutoff the eigensolver
    returns the null space it reveals below half the cutoff as exact
    zeros, moving every other eigenvalue by at most half the cutoff.
    """
    return _sqrt_with_mp(p, rank_tol=rank_tol, eq_tol=eq_tol)[0]


def _sqrt_with_mp(
    p: ComplexMatrix,
    rank_tol: Optional[float] = None,
    eq_tol: float = EQ_TOL_DEFAULT,
) -> tuple[ComplexMatrix, ComplexMatrix]:
    """Square root of a positive matrix plus the root's M-P inverse.

    Both come from one eigendecomposition, which keeps h and h_mp
    consistent to machine precision.
    """
    # PreconditionError when not Hermitian
    eig = herm_eig(p, eq_tol=eq_tol, _deflate=rank_tol is None)
    lam = np.asarray(eig.eigenvalues)
    tol = _eig_cutoff(p, lam, rank_tol)
    if lam.size and float(np.min(lam)) < -tol:
        raise PreconditionError(
            f"matrix is not positive (eigenvalue {float(np.min(lam)):.3e})"
        )
    roots = np.sqrt(np.where(lam < tol, 0.0, lam))
    qa = eig.q.array
    h = _congruence(qa, roots)
    h_mp = _congruence(qa, _reciprocal(roots, roots > 0.0))
    return _computed((h + h.conj().T) / 2.0), _computed((h_mp + h_mp.conj().T) / 2.0)


def direct_sum(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    out = np.zeros((a.rows + b.rows, a.cols + b.cols), dtype=np.complex128)
    out[: a.rows, : a.cols] = a.array
    out[a.rows :, a.cols :] = b.array
    return _computed(out)


def _block_offsets(dims: Sequence[int], j: int) -> tuple[int, int, int]:
    if not 0 <= j < len(dims):
        raise InputError(f"block index {j} out of range for {len(dims)} blocks")
    total = int(sum(dims))
    off = int(sum(dims[:j]))
    return total, off, int(dims[j])


def biproduct_injection(dims: Sequence[int], j: int) -> ComplexMatrix:
    """Injection of block j into the direct sum: a dims[j] x sum(dims) matrix."""
    total, off, d = _block_offsets(dims, j)
    out = np.zeros((d, total), dtype=np.complex128)
    out[:, off : off + d] = np.eye(d)
    return _computed(out)


def biproduct_projection(dims: Sequence[int], j: int) -> ComplexMatrix:
    """Projection of the direct sum onto block j; the dagger of the injection."""
    return biproduct_injection(dims, j).dagger()


class MatrixInstance(DaggerInstance):
    """The dagger category of finite-dimensional complex matrices.

    Objects are nonnegative integers (dimensions); morphisms are
    :class:`ComplexMatrix`.  Equality is :func:`~daggermp.core.within` on the
    Frobenius deviation, at scale ``max(|f|, |g|)`` or at the factor-norm
    bounds of the inverse identities.  All optional capabilities are
    provided: positivity, idempotent splitting, kernels, square roots, biproducts.
    """

    name = "matrix"

    def __init__(self, tolerance: Optional[Tolerance] = None):
        super().__init__(tolerance if tolerance is not None else Tolerance())

    def compose2(self, f: ComplexMatrix, g: ComplexMatrix) -> ComplexMatrix:
        return f @ g

    def dagger(self, f: ComplexMatrix) -> ComplexMatrix:
        return f.dagger()

    def identity(self, obj: int) -> ComplexMatrix:
        return ComplexMatrix.identity(obj)

    def source(self, f: ComplexMatrix) -> int:
        return f.rows

    def target(self, f: ComplexMatrix) -> int:
        return f.cols

    def deviation(self, f: ComplexMatrix, g: ComplexMatrix) -> float:
        if (f.rows, f.cols) != (g.rows, g.cols):
            raise InputError(
                f"cannot compare {f.rows}x{f.cols} with {g.rows}x{g.cols}"
            )
        return _distance(f.array, g.array)

    def norm(self, f: ComplexMatrix) -> float:
        return f.norm()

    def positivity_witness(self, p: ComplexMatrix) -> bool:
        try:  # a square root h = h† witnesses p = h h†
            self.sqrt_positive(p)
        except PreconditionError:  # not Hermitian, or an eigenvalue below -cutoff
            return False
        return True

    def split_idempotent(self, e: ComplexMatrix) -> ComplexMatrix:
        return split_dagger_idempotent(e, eq_tol=self.tolerance.eq_tol)

    def kernel(self, f: ComplexMatrix) -> ComplexMatrix:
        return dagger_kernel(f, rank_tol=self.tolerance.rank_tol)

    def sqrt_positive(self, p: ComplexMatrix) -> tuple[ComplexMatrix, ComplexMatrix]:
        return _sqrt_with_mp(
            p, rank_tol=self.tolerance.rank_tol, eq_tol=self.tolerance.eq_tol
        )

    def add(self, f: ComplexMatrix, g: ComplexMatrix) -> ComplexMatrix:
        if (f.rows, f.cols) != (g.rows, g.cols):
            raise InputError("can only add parallel morphisms")
        with np.errstate(over="ignore"):  # NumericError on overflow
            return _computed(f.array + g.array)

    def direct_sum(self, f: ComplexMatrix, g: ComplexMatrix) -> ComplexMatrix:
        return direct_sum(f, g)

    def injection(self, dims: tuple, j: int) -> ComplexMatrix:
        return biproduct_injection(dims, j)

    def projection(self, dims: tuple, j: int) -> ComplexMatrix:
        return biproduct_projection(dims, j)

    def zero(self, src: int, tgt: int) -> ComplexMatrix:
        return ComplexMatrix.zeros(src, tgt)

    def mp(self, f: ComplexMatrix) -> ComplexMatrix:
        return pinv(f, rank_tol=self.tolerance.rank_tol)


def matrix_to_obj(a: ComplexMatrix) -> dict:
    data = []
    for z in a.array.reshape(-1):
        data.append([float(z.real), float(z.imag)])
    return {"rows": a.rows, "cols": a.cols, "data": data}


def matrix_from_obj(obj: dict) -> ComplexMatrix:
    rows, cols, data = json_fields(obj, "matrix", ("rows", "cols", "data"))
    if not (is_plain_int(rows) and is_plain_int(cols)) or rows < 0 or cols < 0:
        raise InputError("rows and cols must be nonnegative integers")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise InputError("data must list rows*cols entries in row-major order")
    flat = np.zeros(rows * cols, dtype=np.complex128)
    for i, entry in enumerate(data):
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(isinstance(x, float) or is_plain_int(x) for x in entry)
        ):
            raise InputError(f"entry {i} must be a [re, im] pair")
        flat[i] = complex(entry[0], entry[1])
    return ComplexMatrix(flat.reshape(rows, cols))

