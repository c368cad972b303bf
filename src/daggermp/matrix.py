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
from typing import NamedTuple, Optional, Sequence

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
    _Frozen,
    check,
    check_sizes,
    is_plain_int,
    json_fields,
    split,
)

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)


class ComplexMatrix(_Frozen):
    """Immutable dense complex matrix; the morphism type of this instance.

    ``ComplexMatrix(array)`` and :meth:`from_rows` validate outside
    input: the entries must be int, float or complex numbers (not bool,
    str, bytes or None) and finite, the array 2-D; they are copied to
    complex128, and anything else raises InputError.  Every matrix the
    package computes is wrapped by :func:`_computed` instead, uncopied
    and read-only; no writable alias of its array may outlive the wrap.
    :meth:`dagger`, :meth:`identity` and :meth:`zeros` skip even that
    scan and only wrap (:func:`_wrap`): the conjugate transpose of
    finite entries and a constant built from 0 and 1 are finite by
    construction.

    A matrix keeps its Frobenius norm once it is known: :func:`_computed`
    stores it from the sum of squares it takes anyway, :meth:`norm`
    stores it on first use otherwise, and :meth:`dagger` hands it on.
    As the array is read-only, the stored norm cannot go stale.  With
    the norms known, a product runs under the overflow guard of
    ``np.errstate`` only when ‖A‖·‖B‖ reaches :data:`_FLAG_FREE`.
    """

    _norm = None  # the Frobenius norm, once known

    def __init__(self, array: np.ndarray) -> None:
        object.__setattr__(self, "array", array)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check and copy ``self.array`` as the class docstring says: the
        validation step of ``ComplexMatrix(array)``, a method of its own
        so that it can be counted or timed (``perfbench``'s tracer)."""
        arr = _complex_input(self.array)
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
        try:
            lengths = {len(row) for row in rows}
        except TypeError:
            raise InputError("from_rows needs a sequence of rows of entries") from None
        if len(lengths) != 1:
            raise InputError(
                "rows must all have the same length" if lengths
                else "from_rows needs at least one row"
            )
        return cls(np.array(rows, dtype=object))

    @classmethod
    def identity(cls, n: int) -> "ComplexMatrix":
        check_sizes(n)
        return _wrap(np.eye(n, dtype=np.complex128), math.sqrt(n))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ComplexMatrix":
        check_sizes(rows, cols)
        return _wrap(np.zeros((rows, cols), dtype=np.complex128), 0.0)

    def dagger(self) -> "ComplexMatrix":
        return _wrap(self.array.conj().T, self._norm)

    def norm(self) -> float:
        norm = self._norm
        if norm is None:
            norm = _frobenius(self.array)
            object.__setattr__(self, "_norm", norm)
        return norm

    def __matmul__(self, other: "ComplexMatrix") -> "ComplexMatrix":
        if self.cols != other.rows:
            raise InputError(
                f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}"
            )
        if self.norm() * other.norm() < _FLAG_FREE:
            return _computed(self.array @ other.array)
        with np.errstate(over="ignore", invalid="ignore"):  # NumericError on overflow
            return _computed(self.array @ other.array)

    def __repr__(self):
        return f"ComplexMatrix({self.rows}x{self.cols})"


# By Cauchy-Schwarz every entry and every partial sum of a product AB is
# at most ‖A‖‖B‖ (Frobenius norms), and every entry of A - B at most
# ‖A‖ + ‖B‖.  Below this bound, rounding included, neither can overflow
# or meet inf - inf, so no overflow or invalid flag can be raised.
_FLAG_FREE = 2.0**1000


def _complex_input(data) -> np.ndarray:
    """A complex128 copy of outside data; InputError unless every entry
    is an int, float or complex number (Python or numpy, never bool)."""
    raw = data if isinstance(data, np.ndarray) else np.array(data, dtype=object)
    if raw.dtype == object:
        for kind in {type(x) for x in raw.flat}:
            if kind is bool or not issubclass(kind, (int, float, complex, np.number)):
                raise InputError(
                    f"matrix entries must be int, float or complex numbers, "
                    f"got {kind.__name__}"
                )
    elif raw.dtype.kind not in "iufc":
        raise InputError(
            f"matrix entries must be int, float or complex numbers, "
            f"got {raw.dtype.type.__name__} data"
        )
    try:
        return np.array(raw, dtype=np.complex128)
    except OverflowError:  # a Python int beyond the float range
        raise InputError("matrix entries must be finite") from None


def _sum_of_squares(arr: np.ndarray) -> float:
    """Σ|a_ij|² as one BLAS dot product, with no floating-point flag check.

    ``ravel(order="K")`` copies nothing for a C- or F-ordered array (a
    conjugate transpose is F-ordered).  An inf or nan entry makes the
    sum nan or inf, and finite entries may overflow or underflow it.
    """
    flat = arr.ravel(order="K")
    return float(np.vdot(flat, flat).real)


def _wrap(arr: np.ndarray, norm: Optional[float] = None) -> ComplexMatrix:
    """Wrap a complex128 2-D array known to be finite, read-only, uncopied,
    with its Frobenius norm when known."""
    arr.setflags(write=False)
    out = object.__new__(ComplexMatrix)
    object.__setattr__(out, "array", arr)
    if norm is not None:
        object.__setattr__(out, "_norm", norm)
    return out


def _computed(arr: np.ndarray) -> ComplexMatrix:
    """Wrap a computed complex128 2-D array; as every input was finite, a
    non-finite entry is an overflow and raises NumericError.

    A finite sum of squares proves every entry finite, so the
    elementwise scan runs only when the sum is not: then either an entry
    is inf or nan, or finite entries above about 1e154 overflowed the
    sum.  A finite normal sum s also gives the norm, √s, as
    :func:`_frobenius` would.
    """
    s = _sum_of_squares(arr)
    if _TINY <= s < math.inf:
        return _wrap(arr, math.sqrt(s))
    if not math.isfinite(s) and not np.isfinite(arr).all():
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


def _cut_eig(
    p: ComplexMatrix, rank_tol: Optional[float], eq_tol: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """The eigenvectors and eigenvalues of :func:`herm_eig` of p, and the
    cutoff: rank_tol, or the default for p scaled by the largest
    |eigenvalue|.  A rank_tol that :class:`~daggermp.core.Tolerance`
    refuses raises InputError before the solve."""
    Tolerance(rank_tol=rank_tol)
    eig = herm_eig(p, eq_tol=eq_tol, _deflate=rank_tol is None)
    lam = np.asarray(eig.eigenvalues)
    if rank_tol is None:
        lam_max = float(np.max(np.abs(lam))) if lam.size else 0.0
        rank_tol = _default_rank_tol(p.rows, p.cols, lam_max)
    return eig.q.array, lam, rank_tol


class SVDResult(NamedTuple):
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


class HermEigResult(NamedTuple):
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
    Every singular value is resolved, at any cutoff.  A rank_tol that
    :class:`Tolerance` refuses raises InputError before the solve.
    """
    Tolerance(rank_tol=rank_tol)
    n, m = a.rows, a.cols
    if min(n, m) == 0:
        return SVDResult(ComplexMatrix.identity(n), (), ComplexMatrix.identity(m), 0)
    u, s, v = _raw_svd(a, False)
    k = len(s)
    unit_tol = max(n, m) * _EPS
    phases = _phases(u, unit_tol)
    u *= phases
    v[:, :k] *= phases[:k]
    if m > k:
        v[:, k:] *= _phases(v[:, k:], unit_tol)
    rank = _svd_rank(s, n, m, rank_tol)
    return SVDResult(_computed(u), tuple(float(x) for x in s), _computed(v), rank)


def _raw_svd(a: ComplexMatrix, deflate: bool, thin: bool = False) -> tuple:
    """(u, sigma, v) with a = u Σ v†, from :func:`~daggermp._jacobi.one_sided_svd`
    on the taller orientation of a nonempty a; phases not yet fixed.
    With thin, the factor on the taller side keeps only its leading
    columns (u for a tall a, v for a wide one)."""
    if a.rows >= a.cols:
        return _jacobi.one_sided_svd(a.array, _deflate=deflate, _thin=thin)
    vb, s, ub = _jacobi.one_sided_svd(a.array.conj().T, _deflate=deflate, _thin=thin)
    return ub, s, vb


def _svd_rank(s: np.ndarray, rows: int, cols: int, rank_tol: Optional[float]) -> int:
    """How many singular values s of a rows x cols matrix exceed rank_tol,
    by default ``max(rows, cols) * machine_eps * sigma_max``."""
    if rank_tol is None:
        rank_tol = _default_rank_tol(rows, cols, float(s[0]) if len(s) else 0.0)
    return int(np.count_nonzero(s > rank_tol))


def pinv(a: ComplexMatrix, rank_tol: Optional[float] = None) -> ComplexMatrix:
    """Moore-Penrose inverse V_k Σ_k⁻¹ U_k†, singular values cut at rank_tol.

    The SVD runs on the taller orientation and forms only the leading
    columns of the factor on the taller side (see
    :func:`~daggermp._jacobi.one_sided_svd`); as the inverse does not
    depend on the phase of a singular pair, no phase is fixed.  At the
    default cutoff the SVD returns as exact 0 the singular values of the
    null space that its pivoted QR reveals below half the cutoff, and
    every other singular value moves by less than half the cutoff, a
    shift at the level of rounding.  With an explicit rank_tol every
    singular value is resolved before the cut.

    The result is an unverified candidate: nothing here checks the four
    identities, and at a tiny explicit cutoff it can fail them.  Pass it
    to :func:`~daggermp.core.require_mp` to have it certified or refused.

    The result keeps the factors it was built from as ``_svd``:
    ``(a, rank_tol, σ_k, V_k)``, both arrays read-only, stored as a
    matrix stores its norm; U_k is not kept, and nothing is stored on a.
    :meth:`MatrixInstance.positive_part` reads them for this very a at
    this rank_tol, so the polar form of (a, pinv(a)) runs no second SVD.
    """
    u, s, v, k = _thin_svd(a, rank_tol)
    s, v = s[:k], v[:, :k]
    if k == 0:
        g = ComplexMatrix.zeros(a.cols, a.rows)
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # NumericError on overflow
            g = _computed((v / s) @ u[:, :k].conj().T)
    s.setflags(write=False)
    v.setflags(write=False)
    object.__setattr__(g, "_svd", (a, rank_tol, s, v))
    return g


def numeric_rank(a: ComplexMatrix, rank_tol: Optional[float] = None) -> int:
    """Count of singular values above the cutoff; 0 for the zero matrix.

    The singular values come from the SVD of :func:`pinv`, which at the
    default cutoff skips the null space its pivoted QR reveals.
    """
    return _thin_svd(a, rank_tol)[3]


def _thin_svd(a: ComplexMatrix, rank_tol: Optional[float]) -> tuple:
    """(u, sigma, v, rank) of :func:`_raw_svd` with thin factors, deflated
    at the default cutoff; rank 0 and factors of no column for an empty
    a.  A rank_tol that :class:`Tolerance` refuses raises InputError
    before the solve.

    At the default cutoff the factor on the smaller side holds only the
    vectors of the singular values the kernel kept above that cutoff
    before unscaling them.  Unscaled values that fall below the normal
    range are rounded, which can move the count at the cutoff; the rank
    is then capped at the vectors formed, the count of the exact values.
    """
    Tolerance(rank_tol=rank_tol)
    if min(a.rows, a.cols) == 0:
        return (
            np.zeros((a.rows, 0), dtype=np.complex128), np.zeros(0),
            np.zeros((a.cols, 0), dtype=np.complex128), 0,
        )
    u, s, v = _raw_svd(a, rank_tol is None, thin=True)
    rank = _svd_rank(s, a.rows, a.cols, rank_tol)
    return u, s, v, min(rank, u.shape[1], v.shape[1])


def _leading_factors(
    a: ComplexMatrix, a_mp: Optional[ComplexMatrix], rank_tol: Optional[float]
) -> tuple[np.ndarray, np.ndarray]:
    """(σ_k, V_k) of the thin SVD of a cut at its rank at rank_tol: those
    :func:`pinv` kept on a_mp if it built a_mp from this a object at an
    equal rank_tol (None only with None), else those of a new
    :func:`_thin_svd`.  Nothing is stored on a."""
    kept = getattr(a_mp, "_svd", None)
    if kept is not None and kept[0] is a and kept[1] == rank_tol:
        return kept[2], kept[3]
    _, s, v, k = _thin_svd(a, rank_tol)
    return s[:k], v[:, :k]


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
    return _transpose_rule(*_transpose_ranks(a, rank_tol))


def _transpose_rule(r: int, r_left: int, r_right: int) -> bool:
    """The verdict of :func:`has_mp_wrt_transpose` on the ranks that
    :func:`_transpose_ranks` returns."""
    return r_left == r == r_right


def _require_hermitian(p: ComplexMatrix, eq_tol: float) -> None:
    """PreconditionError unless p = p† passes its check at scale |p| on the
    instance at eq_tol; InputError unless eq_tol is valid and p square."""
    inst = MatrixInstance(Tolerance(eq_tol=eq_tol))
    if p.rows != p.cols:
        raise InputError("a Hermitian matrix must be square")
    norm = p.norm()  # taken before the dagger, which then carries it
    check(inst, p, p.dagger(), PreconditionError, "matrix is not Hermitian", norm)


def herm_eig(
    p: ComplexMatrix, eq_tol: float = EQ_TOL_DEFAULT, _deflate: bool = False
) -> HermEigResult:
    """Eigendecomposition of a Hermitian matrix via two-sided Jacobi.

    p = p† must pass :func:`~daggermp.core.check` on a
    :class:`MatrixInstance` at eq_tol, at scale |p|, or PreconditionError
    carries its deviation; an eq_tol that :class:`~daggermp.core.Tolerance`
    refuses raises InputError.  The kernel symmetrizes p after its
    power-of-two prescale, so the factorization reproduces (p + p†)/2
    without overflow or underflow.  ``_deflate`` is private to
    :func:`herm_mp` and :func:`hermitian_sqrt` at their default cutoff
    (see :func:`~daggermp._jacobi.hermitian_jacobi`).
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
    q, lam, tol = _cut_eig(p, rank_tol, eq_tol)
    return _computed(_congruence(q, _reciprocal(lam, np.abs(lam) > tol)))


def split_dagger_idempotent(
    e: ComplexMatrix, eq_tol: float = EQ_TOL_DEFAULT
) -> ComplexMatrix:
    """Split a dagger idempotent: returns r (n x k) with r r† = e, r† r = I_k.

    r is :meth:`MatrixInstance.split_idempotent`, certified by
    :func:`~daggermp.core.split` on a :class:`MatrixInstance` at eq_tol:
    e = e† at scale |e|, r r† = e at scale |e| and r† r = I_k at scale
    √k, or PreconditionError carries the deviation of the first that
    fails.  A non-square e, or an eq_tol that
    :class:`~daggermp.core.Tolerance` refuses, raises InputError.
    """
    return split(MatrixInstance(Tolerance(eq_tol=eq_tol)), e)


def dagger_kernel(a: ComplexMatrix, rank_tol: Optional[float] = None) -> ComplexMatrix:
    """Kernel of a as an isometry: k is z x n with k a = 0 and k k† = I_z.

    The rows of k are an orthonormal basis of the left null space: the
    conjugate transpose of the columns of the SVD's left factor past the
    rank at rank_tol, each column phased by the rule of :func:`svd`;
    z = n - rank(a), and an empty a has the identity as kernel.  At the
    default cutoff the SVD skips the null space its pivoted QR reveals,
    as for :func:`pinv`; the rows then span the same space as the
    trailing columns of :func:`svd`'s u, in another basis.
    """
    Tolerance(rank_tol=rank_tol)
    n, m = a.rows, a.cols
    if min(n, m) == 0:
        return ComplexMatrix.identity(n).dagger()
    u, s, _ = _raw_svd(a, rank_tol is None)
    u = u[:, _svd_rank(s, n, m, rank_tol) :]
    return _computed((u * _phases(u, max(n, m) * _EPS)).conj().T)


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
    q, lam, tol = _cut_eig(p, rank_tol, eq_tol)  # PreconditionError if not Hermitian
    if lam.size and float(np.min(lam)) < -tol:
        raise PreconditionError(
            f"matrix is not positive (eigenvalue {float(np.min(lam)):.3e})"
        )
    roots = np.sqrt(np.where(lam < tol, 0.0, lam))
    h = _congruence(q, roots)
    h_mp = _congruence(q, _reciprocal(roots, roots > 0.0))
    return _computed((h + h.conj().T) / 2.0), _computed((h_mp + h_mp.conj().T) / 2.0)


def direct_sum(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    out = np.zeros((a.rows + b.rows, a.cols + b.cols), dtype=np.complex128)
    out[: a.rows, : a.cols] = a.array
    out[a.rows :, a.cols :] = b.array
    return _computed(out)


def _block_offsets(dims: Sequence[int], j: int) -> tuple[int, int, int]:
    check_sizes(*dims)
    if not (is_plain_int(j) and 0 <= j < len(dims)):
        raise InputError(f"block index {j!r} out of range for {len(dims)} blocks")
    return sum(dims), sum(dims[:j]), dims[j]


def biproduct_injection(dims: Sequence[int], j: int) -> ComplexMatrix:
    """Injection of block j into the direct sum: a dims[j] x sum(dims) matrix."""
    total, off, d = _block_offsets(dims, j)
    out = np.zeros((d, total), dtype=np.complex128)
    out[:, off : off + d] = np.eye(d)
    return _computed(out)


def biproduct_projection(dims: Sequence[int], j: int) -> ComplexMatrix:
    """Projection of the direct sum onto block j; the dagger of the injection."""
    return biproduct_injection(dims, j).dagger()


def _split_qr(e: ComplexMatrix) -> tuple[np.ndarray, int]:
    """(q, k) for a dagger idempotent e: k is its trace, which is its rank,
    and q the rows x rows unitary Q of a pivoted QR of e stopped after k
    reflectors (the identity for k = 0), phases not yet fixed.  The first
    k columns of q span the range of e, and the rest its complement."""
    # The diagonal of a dagger idempotent lies in [0, 1]: clipping it
    # changes nothing there and keeps k in [0, n] for any other input.
    k = round(float(np.clip(e.array.diagonal().real, 0.0, 1.0).sum()))
    if not k:
        return np.eye(e.rows, dtype=np.complex128), 0
    scaled = e.array * 2.0 ** _jacobi._pow2_exponent(e.array)
    return _jacobi._qrcp(scaled, rank=k)[0], k


class MatrixInstance(DaggerInstance):
    """The dagger category of finite-dimensional complex matrices.

    Objects are nonnegative integers (dimensions); morphisms are
    :class:`ComplexMatrix`.  Equality is :meth:`~daggermp.core.DaggerInstance.compare`
    on the Frobenius deviation, at scale ``max(|f|, |g|)`` or at the
    factor-norm bounds of the inverse identities.  The module's own
    preconditions (the Hermitian check, and the split's equations in
    :func:`~daggermp.core.split`) are checked the same way, on an
    instance at the caller's eq_tol, so :meth:`deviation` measures
    every matrix equation.  All optional
    capabilities are provided: idempotent splitting, alone or with the
    kernel, both from one pivoted QR; the positive part from a thin SVD
    at the cutoff of :func:`pinv`, biproducts and zero maps, and ``pinv``
    as the M-P route.
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
        if f.norm() + g.norm() < _FLAG_FREE:
            return _frobenius(f.array - g.array)
        with np.errstate(over="ignore", invalid="ignore"):  # inf on overflow
            diff = f.array - g.array
        return _frobenius(diff)

    def norm(self, f: ComplexMatrix) -> float:
        return f.norm()

    def split_idempotent(self, e: ComplexMatrix) -> ComplexMatrix:
        """The first k columns of Q from a pivoted QR of e (:func:`_split_qr`),
        phases fixed as for eigenvectors; unchecked, as
        :func:`split_dagger_idempotent` certifies it."""
        q, k = _split_qr(e)
        r = q[:, :k]
        return _computed(r * _phases(r, e.rows * _EPS) if k else r)

    def split_with_kernel(
        self, e: ComplexMatrix
    ) -> tuple[ComplexMatrix, ComplexMatrix]:
        """Both parts of the Q of :func:`_split_qr`, each column phased as in
        :meth:`split_idempotent`: its first k columns are that split, and
        the conjugate transpose of the rest is the kernel; unchecked, as
        the full form's equations certify both."""
        q, k = _split_qr(e)
        if k:
            q *= _phases(q, e.rows * _EPS)
        return _computed(q[:, :k]), _computed(q[:, k:].conj().T)

    def positive_part(
        self, f: ComplexMatrix, f_mp: Optional[ComplexMatrix] = None
    ) -> tuple[ComplexMatrix, ComplexMatrix]:
        """h = V_k Σ_k V_k† and h° = V_k Σ_k⁻¹ V_k† from the thin SVD of f
        at the instance's rank_tol, so f† f is never formed; the zero pair
        at rank 0.  The factors are those :func:`pinv` kept on f_mp when
        it built f_mp from this very f at this rank_tol, else those of a
        new :func:`_thin_svd` (:func:`_leading_factors`); the SVD is
        deterministic, so both give the same bytes.  Each is symmetrized
        as h/2 + h†/2, which cannot overflow where h does not; unchecked,
        as the polar form's equations certify both."""
        s, v = _leading_factors(f, f_mp, self.tolerance.rank_tol)
        if not s.size:
            return (ComplexMatrix.zeros(f.cols, f.cols),) * 2
        with np.errstate(over="ignore"):  # NumericError on overflow
            parts = _congruence(v, s), _congruence(v, 1.0 / s)
        return tuple(_computed(h / 2.0 + h.conj().T / 2.0) for h in parts)

    def add(self, f: ComplexMatrix, g: ComplexMatrix) -> ComplexMatrix:
        if (f.rows, f.cols) != (g.rows, g.cols):
            raise InputError("can only add parallel morphisms")
        with np.errstate(over="ignore"):  # NumericError on overflow
            return _computed(f.array + g.array)

    def direct_sum(self, f: ComplexMatrix, g: ComplexMatrix) -> ComplexMatrix:
        return direct_sum(f, g)

    def injection(self, dims: tuple, j: int) -> ComplexMatrix:
        return biproduct_injection(dims, j)

    def zero(self, src: int, tgt: int) -> ComplexMatrix:
        return ComplexMatrix.zeros(src, tgt)

    def mp(self, f: ComplexMatrix) -> ComplexMatrix:
        """:func:`pinv` at the instance's rank_tol: an unverified candidate,
        as there; pass it to :func:`~daggermp.core.require_mp` to have it
        certified or refused."""
        return pinv(f, rank_tol=self.tolerance.rank_tol)


def matrix_to_obj(a: ComplexMatrix) -> dict:
    # ravel copies an F-ordered array (a dagger) to row-major order, and the
    # float64 parts of complex128 entries read as [re, im] rows.
    data = a.array.ravel().view(np.float64).reshape(-1, 2).tolist()
    return {"rows": a.rows, "cols": a.cols, "data": data}


def matrix_from_obj(obj: dict) -> ComplexMatrix:
    rows, cols, data = json_fields(obj, "matrix", ("rows", "cols", "data"))
    check_sizes(rows, cols)
    if not isinstance(data, list) or len(data) != rows * cols:
        raise InputError("data must list rows*cols entries in row-major order")
    for i, entry in enumerate(data):
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(isinstance(x, float) or is_plain_int(x) for x in entry)
        ):
            raise InputError(f"entry {i} must be a [re, im] pair")
    # The check leaves plain numbers: build their float64 parts in one pass
    # and read each [re, im] row as one complex128.
    try:
        parts = np.array(data, dtype=np.float64).reshape(-1, 2)
    except OverflowError:  # an int beyond the float range
        raise InputError("matrix entries must be finite") from None
    return ComplexMatrix(parts.view(np.complex128).reshape(rows, cols))

