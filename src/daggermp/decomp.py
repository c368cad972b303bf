"""Three factorizations of a Moore-Penrose invertible morphism.

All of them are assembled from a verified pair (f, f°) using only
instance capabilities, so they work verbatim for matrices and, where the
capabilities exist, for relations.

compact form    f = r . d . s     r coisometry, d invertible, s isometry
full form       f = u . (d + 0) . v   u, v unitary, built from kernels
polar form      f = u . h         u partial isometry, h positive

Each constructor records its defining equations as residuals and
refuses (DecompositionError, carrying the residual) when one fails at
the instance tolerance.  Those equations define the factorization, so
they also certify what it is built from: the splittings of f f° and
f° f come unchecked from the instance capability, and r† r = 1,
s s† = 1, d's two-sided inverse and r d s = f hold only if r r† = f f°
and s† s = f° f.  The full form takes the kernels of f and f† from the
capability calls that split the two projections
(``split_with_kernel``), unchecked too: f f° + k† k = 1,
f° f + c† c = 1 and the unitarity of u and v certify them.  Refusals
happen in practice: the equations are algebraic consequences of the
axioms, but at aggressive tolerances or borderline numerical rank the
verification can genuinely miss.  Loosen the instance's eq_tol to
accept more rounding error, or treat the refusal as the answer.  To
try another splitting or square root, subclass the instance and
override the capability.

A record that a constructor returns is certified: it keeps
``(inst, inst.tolerance)``, set as :func:`~daggermp.core.require_mp`
sets its certificate.  Handed back with the same instance object and
tolerance object, its consumer skips the equations the constructor
measured: :func:`mp_from_gcsvd` the four factor equations,
:func:`mp_from_gsvd` the unitarity of u and v and d's two-sided
inverse, :func:`induced_gcsvd` the unitarity of u and v and the four
factor equations of the compact form it returns (those of the compact
form the full one was built from), and :func:`mp_from_polar` h = h†,
the pair (h, h°) and u u† u = u.  A record built by its constructor
(an equal copy included), another instance, or a tolerance reassigned
on the instance is measured in full.  Each consumer still verifies
the inverse it reassembles.
"""

from __future__ import annotations

from typing import Any

from .core import (
    DaggerInstance,
    DecompositionError,
    InputError,
    PreconditionError,
    _Value,
    _certified,
    _certify,
    _mp_projections,
    check,
    require_mp,
)


def _residuals(inst: DaggerInstance, error: type, what: str, equations: dict) -> dict:
    """Check each named equation lhs == rhs in order; return the residuals by name.

    The first failing equation raises ``error``, naming it and carrying
    its residual.
    """
    return {
        name: check(inst, lhs, rhs, error, f"{what}: {name} equation fails")
        for name, (lhs, rhs) in equations.items()
    }


def _check_unitary(inst: DaggerInstance, u: Any, error: type, what: str) -> None:
    ud = inst.dagger(u)
    _residuals(inst, error, what, {
        "isometry": (inst.compose(u, ud), inst.identity(inst.source(u))),
        "coisometry": (inst.compose(ud, u), inst.identity(inst.target(u))),
    })


def _compact_residuals(
    inst: DaggerInstance, r: Any, d: Any, s: Any, d_inv: Any, error: type, f: Any = None
) -> dict:
    """The compact-form equations for r . d . s, checked in order.

    The four factor equations raise ``error``.  The reconstruction
    r . d . s == f is checked when f is given and raises
    DecompositionError.
    """
    mid, mid_cod = inst.source(d), inst.target(d)
    residuals = _residuals(inst, error, "compact form", {
        "coisometry": (inst.compose(inst.dagger(r), r), inst.identity(mid)),
        "isometry": (inst.compose(s, inst.dagger(s)), inst.identity(mid_cod)),
        "invertible_left": (inst.compose(d, d_inv), inst.identity(mid)),
        "invertible_right": (inst.compose(d_inv, d), inst.identity(mid_cod)),
    })
    if f is not None:
        residuals["reconstruction"] = _reconstruction(inst, r, d, s, f)
    return residuals


def _reconstruction(inst: DaggerInstance, r: Any, d: Any, s: Any, f: Any) -> float:
    return check(
        inst, inst.compose(r, d, s), f, DecompositionError,
        "compact form: reconstruction equation fails",
    )


class GCSVDTriple(_Value):
    """Compact factorization f = r . d . s with a two-sided inverse for d."""

    _fields = ("r", "d", "s", "d_inv", "residuals")

    def __init__(self, r: Any, d: Any, s: Any, d_inv: Any, residuals: dict) -> None:
        self._set_fields(r, d, s, d_inv, residuals)


def gcsvd_from_mp(inst: DaggerInstance, f: Any, f_mp: Any) -> GCSVDTriple:
    """Compact factorization through the splittings of f f° and f° f.

    The instance's ``split_idempotent`` should send a dagger idempotent e
    to some m with m . m-dagger == e and m-dagger . m an identity; its
    exceptions propagate (an instance that cannot split reports that
    here).  Its output is not checked on its own: the compact-form
    equations certify it, and refuse a wrong one.  The record returned
    is certified for inst at its tolerance.
    """
    return _compact(inst, f, f_mp)[0]


def _compact(
    inst: DaggerInstance, f: Any, f_mp: Any, kernels: bool = False
) -> tuple[GCSVDTriple, Any, Any, Any, Any]:
    """:func:`gcsvd_from_mp`'s record, the projections f f° and f° f it
    split, and with ``kernels`` the kernels (k, c) of f and of f†, which
    :func:`gsvd_from_mp` reuses.

    The projections are those that certify the pair
    (:func:`~daggermp.core._mp_projections`): an uncertified pair has its
    four identities measured with them, a certified one only forms them.
    With ``kernels`` each projection is split by the instance's
    ``split_with_kernel``, which gives k† k = 1 - f f° and c† c = 1 - f° f
    from the factorization that splits them; without, by
    ``split_idempotent``, and k and c are None.
    """
    ffmp, fmpf = _mp_projections(
        inst, f, f_mp, PreconditionError, "compact form needs an M-P pair"
    )
    if kernels:
        (r, k), (sd, c) = inst.split_with_kernel(ffmp), inst.split_with_kernel(fmpf)
    else:
        r, sd = inst.split_idempotent(ffmp), inst.split_idempotent(fmpf)
        k = c = None
    s = inst.dagger(sd)
    d = inst.compose(inst.dagger(r), f, inst.dagger(s))
    d_inv = inst.compose(s, f_mp, r)
    residuals = _compact_residuals(inst, r, d, s, d_inv, DecompositionError, f)
    return _certify(GCSVDTriple(r, d, s, d_inv, residuals), inst), ffmp, fmpf, k, c


def mp_from_gcsvd(inst: DaggerInstance, t: GCSVDTriple) -> Any:
    """Recover the M-P inverse from compact factors: s-dagger . d_inv . r-dagger.

    The factor equations are measured unless t is certified for inst.
    """
    if not _certified(t, inst):
        _compact_residuals(inst, t.r, t.d, t.s, t.d_inv, InputError)
    f = inst.compose(t.r, t.d, t.s)
    candidate = inst.compose(inst.dagger(t.s), t.d_inv, inst.dagger(t.r))
    return require_mp(
        inst, f, candidate, DecompositionError, "reassembled inverse fails the axioms"
    )


def _same_map(inst: DaggerInstance, f1: Any, f2: Any) -> None:
    if inst.source(f1) != inst.source(f2) or inst.target(f1) != inst.target(f2):
        raise InputError("triples factor maps of different types")
    check(inst, f1, f2, InputError, "triples factor different maps")


def gcsvd_intertwiners(
    inst: DaggerInstance, t1: GCSVDTriple, t2: GCSVDTriple
) -> tuple[Any, Any]:
    """Unitaries linking two compact factorizations of the same map.

    Returns (p, q) with r1 . p == r2, d1 . q == p . d2 and q . s2 == s1,
    exhibiting the factorization as unique up to unitary change of the
    middle objects.
    """
    _same_map(inst, inst.compose(t1.r, t1.d, t1.s), inst.compose(t2.r, t2.d, t2.s))
    p = inst.compose(inst.dagger(t1.r), t2.r)
    q = inst.compose(t1.s, inst.dagger(t2.s))
    _check_unitary(inst, p, DecompositionError, "intertwiner p")
    _check_unitary(inst, q, DecompositionError, "intertwiner q")
    _residuals(inst, DecompositionError, "intertwiners", {
        "source_link": (inst.compose(t1.r, p), t2.r),
        "middle_link": (inst.compose(t1.d, q), inst.compose(p, t2.d)),
        "target_link": (inst.compose(q, t2.s), t1.s),
    })
    return p, q


class GSVDTriple(_Value):
    """Full factorization f = u . (d + 0) . v with u, v unitary.

    ``dims`` holds the four block sizes (rank part and kernel part on
    each side) needed to rebuild the padded middle map.
    """

    _fields = ("u", "d", "v", "d_inv", "dims", "residuals")

    def __init__(
        self, u: Any, d: Any, v: Any, d_inv: Any, dims: tuple[int, int, int, int],
        residuals: dict,
    ) -> None:
        self._set_fields(u, d, v, d_inv, dims, residuals)


def _full_map(inst: DaggerInstance, u: Any, d: Any, v: Any, dims: tuple) -> Any:
    """u . (d + 0) . v, the zero block sized by the kernel parts of dims."""
    x, z, y, w = dims
    return inst.compose(u, inst.direct_sum(d, inst.zero(z, w)), v)


def gsvd_from_mp(inst: DaggerInstance, f: Any, f_mp: Any) -> GSVDTriple:
    """Full unitary factorization, padding the compact form with kernels.

    Needs the split_with_kernel, add, direct_sum, injection and zero
    capabilities; instances without them raise CapabilityError here.
    Each projection is the dagger of its injection.  The compact form's
    r and s and the kernels k of f and c of f† come from the two calls
    of ``split_with_kernel`` that split f f° and f° f: the matrix
    instance takes each pair from one pivoted QR, so the kernels follow
    the rank of the splits, no SVD runs, and nothing is stored on f.
    The kernels, like the splits, are certified by the equations below.
    """
    compact, ffmp, fmpf, k, c = _compact(inst, f, f_mp, kernels=True)
    cover_src = inst.add(ffmp, inst.compose(inst.dagger(k), k))
    cover_tgt = inst.add(fmpf, inst.compose(inst.dagger(c), c))
    residuals = _residuals(inst, DecompositionError, "range and kernel projections", {
        "kernel_source": (cover_src, inst.identity(inst.source(f))),
        "kernel_target": (cover_tgt, inst.identity(inst.target(f))),
    })
    dims = x, z, y, w = (
        inst.target(compact.r), inst.source(k), inst.source(compact.s), inst.source(c)
    )
    u = inst.add(
        inst.compose(compact.r, inst.injection((x, z), 0)),
        inst.compose(inst.dagger(k), inst.injection((x, z), 1)),
    )
    v = inst.add(
        inst.compose(inst.dagger(inst.injection((y, w), 0)), compact.s),
        inst.compose(inst.dagger(inst.injection((y, w), 1)), c),
    )
    _check_unitary(inst, u, DecompositionError, "outer factor u")
    _check_unitary(inst, v, DecompositionError, "outer factor v")
    residuals["reconstruction"] = check(
        inst, _full_map(inst, u, compact.d, v, dims), f, DecompositionError,
        "full form: reconstruction equation fails",
    )
    return _certify(GSVDTriple(u, compact.d, v, compact.d_inv, dims, residuals), inst)


def _check_outer_factors(inst: DaggerInstance, t: GSVDTriple) -> None:
    _check_unitary(inst, t.u, InputError, "full-form triple: u")
    _check_unitary(inst, t.v, InputError, "full-form triple: v")


def mp_from_gsvd(inst: DaggerInstance, t: GSVDTriple) -> Any:
    """Recover the inverse by transposing the picture: v' . (d_inv + 0) . u'.

    The unitarity of u and v and d's two-sided inverse are measured
    unless t is certified for inst.
    """
    if not _certified(t, inst):
        _check_outer_factors(inst, t)
        x, _, y, _ = t.dims
        _residuals(inst, InputError, "full-form triple", {
            "invertible_left": (inst.compose(t.d, t.d_inv), inst.identity(x)),
            "invertible_right": (inst.compose(t.d_inv, t.d), inst.identity(y)),
        })
    x, z, y, w = t.dims
    f = _full_map(inst, t.u, t.d, t.v, t.dims)
    candidate = inst.compose(
        inst.dagger(t.v),
        inst.direct_sum(t.d_inv, inst.zero(w, z)),
        inst.dagger(t.u),
    )
    return require_mp(
        inst, f, candidate, DecompositionError, "reassembled inverse fails the axioms"
    )


def induced_gcsvd(inst: DaggerInstance, t: GSVDTriple) -> GCSVDTriple:
    """Restrict the full form back to rank blocks: a compact factorization.

    The unitarity of u and v and the four factor equations of the result
    are measured unless t is certified for inst.  A certified t was built
    by :func:`gsvd_from_mp` from a compact form whose factor equations it
    measured: r and s here are that form's r and s in value, and d and
    d_inv are its own, so the residuals hold the reconstruction alone.
    The reconstruction r d s = u (d + 0) v is always measured.  The
    record returned is certified for inst at its tolerance.
    """
    certified = _certified(t, inst)
    if not certified:
        _check_outer_factors(inst, t)
    x, z, y, w = t.dims
    r = inst.compose(t.u, inst.dagger(inst.injection((x, z), 0)))
    s = inst.compose(inst.injection((y, w), 0), t.v)
    f = _full_map(inst, t.u, t.d, t.v, t.dims)
    if certified:
        residuals = {"reconstruction": _reconstruction(inst, r, t.d, s, f)}
    else:
        residuals = _compact_residuals(inst, r, t.d, s, t.d_inv, InputError, f)
    return _certify(GCSVDTriple(r, t.d, s, t.d_inv, residuals), inst)


def gsvd_intertwiners(
    inst: DaggerInstance, t1: GSVDTriple, t2: GSVDTriple
) -> tuple[Any, Any, Any, Any]:
    """Blockwise unitaries linking two full factorizations of the same map.

    Returns (p, q, kp, kq): p and q link the rank blocks exactly as in
    the compact case, kp and kq link the kernel blocks, and
    u1 . (p + kp) == u2, (q + kq) . v2 == v1.
    """
    x1, z1, y1, w1 = t1.dims
    x2, z2, y2, w2 = t2.dims
    _same_map(
        inst, _full_map(inst, t1.u, t1.d, t1.v, t1.dims),
        _full_map(inst, t2.u, t2.d, t2.v, t2.dims),
    )
    link_u = inst.compose(inst.dagger(t1.u), t2.u)
    link_v = inst.compose(t1.v, inst.dagger(t2.v))

    def block(dims1, link, dims2, j):
        return inst.compose(
            inst.injection(dims1, j), link, inst.dagger(inst.injection(dims2, j))
        )

    p, kp = (block((x1, z1), link_u, (x2, z2), j) for j in (0, 1))
    q, kq = (block((y1, w1), link_v, (y2, w2), j) for j in (0, 1))
    _residuals(inst, DecompositionError, "intertwiners", {
        "source_link": (inst.compose(t1.u, inst.direct_sum(p, kp)), t2.u),
        "middle_link": (inst.compose(t1.d, q), inst.compose(p, t2.d)),
        "target_link": (inst.compose(inst.direct_sum(q, kq), t2.v), t1.v),
    })
    return p, q, kp, kq


class PolarPair(_Value):
    """Polar factorization f = u . h, partial isometry times positive part."""

    _fields = ("u", "h", "h_mp", "residuals")

    def __init__(self, u: Any, h: Any, h_mp: Any, residuals: dict) -> None:
        self._set_fields(u, h, h_mp, residuals)


def polar_from_mp(inst: DaggerInstance, f: Any, f_mp: Any) -> PolarPair:
    """Polar factorization through the square root of f-dagger . f.

    The instance's ``sqrt_positive`` must return (h, h°) with h
    self-adjoint, h . h equal to its input and the pair verified; its
    exceptions propagate.  The pair (h, h°) is measured with the h h°
    and h° h it forms (:func:`~daggermp.core._mp_projections`), and
    u† u is compared with that h h°.  The reconstruction u h is formed
    again by :func:`mp_from_polar`, which needs the map it inverts.
    """
    require_mp(inst, f, f_mp, PreconditionError, "polar form needs an M-P pair")
    gram = inst.compose(inst.dagger(f), f)
    h, h_mp = inst.sqrt_positive(gram)
    root = _residuals(inst, PreconditionError, "square root provider output", {
        "self_adjoint": (inst.dagger(h), h),
        "square": (inst.compose(h, h), gram),
    })
    hh, _ = _mp_projections(
        inst, h, h_mp, PreconditionError, "square root inverse fails the axioms"
    )
    u = inst.compose(f, h_mp)
    ud = inst.dagger(u)
    residuals = {"square": root["square"]}
    residuals.update(_residuals(inst, DecompositionError, "polar form", {
        "partial_isometry": (inst.compose(u, ud, u), u),
        "range_projector": (inst.compose(ud, u), hh),
        "reconstruction": (inst.compose(u, h), f),
    }))
    return _certify(PolarPair(u, h, h_mp, residuals), inst)


def mp_from_polar(inst: DaggerInstance, pair: PolarPair) -> Any:
    """Recover the inverse from polar factors: h° . u-dagger.

    h = h†, the pair (h, h°) and u u† u = u are measured unless pair is
    certified for inst.
    """
    what = "pair does not satisfy the polar-form invariants"
    u, h, ud = pair.u, pair.h, inst.dagger(pair.u)
    if not _certified(pair, inst):
        check(inst, inst.dagger(h), h, InputError, what)
        require_mp(inst, h, pair.h_mp, InputError, what)
        check(inst, inst.compose(u, ud, u), u, InputError, what)
    candidate = inst.compose(pair.h_mp, ud)
    return require_mp(
        inst, inst.compose(u, h), candidate, DecompositionError,
        "reassembled inverse fails the axioms",
    )
