"""Dagger-category contract and the Moore-Penrose predicate suite.

An *instance* supplies a morphism type together with composition, an
involutive dagger, identities, and tolerance-aware equality.  Everything
else in this package (the derivation engine, the Karoubi envelope, the
decomposition pipelines) is written against :class:`DaggerInstance` and
never inspects morphisms directly.

Composition is diagrammatic throughout: ``compose(f, g)`` means "f then
g", so ``f: A -> B`` composes with ``g: B -> C`` and yields ``A -> C``.
Under this convention an isometry ``s`` satisfies ``s s† = 1`` on its
source and a coisometry ``r`` satisfies ``r† r = 1`` on its target.

A Moore-Penrose inverse of ``f: A -> B`` is a morphism ``g: B -> A``
satisfying the four identities

    f g f = f        g f g = g        (f g)† = f g        (g f)† = g f

and it is unique when it exists.

Every equation the package checks is one :class:`Equation` record,
returned by :meth:`DaggerInstance.compare`: the instance's deviation,
the verdict of :func:`within`, and the scale and cond it was judged at.
Predicates, reports and certification read that record; a failed one
is refused by one function, ``_refuse``, which raises the caller's error
with the deviation as its residual and names the slack guard of
:func:`within` when only the guard failed it.
"""

from __future__ import annotations

import math
import sys
from abc import ABC, abstractmethod
from typing import Any, Iterator, NamedTuple, NoReturn, Optional

MACHINE_EPS = sys.float_info.epsilon
EQ_TOL_DEFAULT = 100.0 * MACHINE_EPS


class DaggerError(Exception):
    """Base class for every error raised by this package.

    ``residual`` is the deviation of the equation whose failure raised
    the error, when there is one; it is appended to the message.
    """

    def __init__(self, message: str, residual: Optional[float] = None):
        if residual is not None:
            message = f"{message} (residual {residual:.3e})"
        super().__init__(message)
        self.residual = residual


class InputError(DaggerError, ValueError):
    """Malformed or type-mismatched input (wrong shapes, bad JSON, ...)."""


class CapabilityError(DaggerError):
    """The instance does not provide the requested optional capability."""


class PreconditionError(DaggerError):
    """A documented precondition failed."""


class NumericError(DaggerError, RuntimeError):
    """A numeric routine failed: no convergence, or a result overflowed."""


class NoMPInverseError(DaggerError):
    """No Moore-Penrose inverse exists along the attempted route."""


class ConsistencyError(DaggerError):
    """Checks that must agree disagreed; signals a tolerance or logic bug."""


class DecompositionError(DaggerError):
    """A decomposition was refused because a defining equation failed."""


def is_plain_int(x: Any) -> bool:
    """True for an int that is not a bool (JSON ``true`` parses as one)."""
    return type(x) is int


def check_sizes(*sizes: Any) -> None:
    """InputError unless every size (a matrix's rows and cols, an exact
    morphism's src and tgt) is a plain nonnegative int."""
    if not all(is_plain_int(n) and n >= 0 for n in sizes):
        raise InputError(f"sizes must be nonnegative ints, got {sizes!r}")


def pair_items(pairs: Any) -> Iterator[tuple[Any, Any]]:
    """Each entry of pairs as (i, j); InputError unless pairs is iterable
    and each entry unpacks into exactly two items."""
    try:
        entries = iter(pairs)
    except TypeError:
        raise InputError("pairs must be an iterable of (i, j) pairs") from None
    for entry in entries:
        try:
            i, j = entry
        except (TypeError, ValueError):
            raise InputError(f"not an (i, j) pair: {entry!r}") from None
        yield i, j


def json_fields(obj: Any, what: str, keys: tuple[str, ...]) -> tuple:
    """The values of keys, in order, of a decoded JSON object that has
    exactly those keys; InputError for any other value."""
    if not isinstance(obj, dict):
        raise InputError(f"{what} JSON must be an object")
    if set(obj) != set(keys):
        raise InputError(f"{what} JSON needs the keys {list(keys)}, got {list(obj)}")
    return tuple(obj[k] for k in keys)


def pairs_from_obj(obj: Any, what: str, key: str) -> tuple[int, int, list]:
    """(src, tgt, pairs) of ``{"src": int, "tgt": int, key: [[i, j], ...]}``,
    the JSON form of both exact instances."""
    src, tgt, entries = json_fields(obj, what, ("src", "tgt", key))
    check_sizes(src, tgt)
    if not isinstance(entries, list):
        raise InputError(f"{key} must be a list of [i, j] pairs")
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != 2 or not all(
            map(is_plain_int, entry)
        ):
            raise InputError(f"bad {what} entry: {entry!r}")
    return src, tgt, [(i, j) for i, j in entries]


def within(dev: float, scale: float, eq_tol: float, cond: float = 1.0) -> bool:
    """The equality rule: dev is 0, or dev <= eq_tol * cond * scale with the
    slack eq_tol * cond below 1 (a larger one verifies nothing) and scale finite.

    ``scale`` is of degree 1 with no floor, ``cond`` of degree 0.  Its one
    caller is :meth:`DaggerInstance.compare`: every equation the package
    checks is measured by an instance's deviation and passes or fails here.
    """
    slack = eq_tol * cond
    return dev == 0.0 or (slack < 1.0 and math.isfinite(scale) and dev <= slack * scale)


class Equation(NamedTuple):
    """One measured equation, as :meth:`DaggerInstance.compare` returns it.

    ``deviation`` is the instance's distance between the two sides, and
    ``ok`` the verdict of :func:`within` at ``scale`` and ``cond``, the
    numbers it was judged at.  A refusal reads all four
    (:func:`_refuse`); ``compare(...)[1]`` is the verdict alone.
    """

    deviation: float
    ok: bool
    scale: float
    cond: float


class _Frozen:
    """Base of the package's immutable classes that are not tuples.

    The package has one rule for its records: a plain result is a
    ``NamedTuple`` (:class:`Equation`, :class:`MPReport`, the matrix
    factorizations, the engine's reports), and a value that validates
    outside input or carries a cache or a certificate is a
    :class:`_Frozen` or :class:`_Value`: a tuple takes no attribute
    beyond its fields.  None is a dataclass: importing ``dataclasses``
    (with ``inspect``, ``ast`` and ``dis``) costs a process that does
    not load numpy about 10 ms.

    Assigning or deleting an attribute raises AttributeError.  The
    constructors (:meth:`_set_fields`), the unchecked builders and the
    caches a value carries (a matrix's norm, a certificate of
    :func:`_certify`) store attributes with ``object.__setattr__``.  The
    repr lists the attributes named in ``_fields``, as a dataclass's
    does; ``==`` and ``hash`` are object identity, unless the class is a
    :class:`_Value`.
    """

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _set_fields(self, *values: Any) -> None:
        """Store values as the attributes named in ``_fields``, in order."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)


class _Value(_Frozen):
    """A :class:`_Frozen` class whose ``==`` and ``hash`` read its
    ``_fields`` in order: two objects of the same class are equal when
    those are, and the hash is the hash of their tuple."""

    def _key(self) -> tuple:
        return tuple(getattr(self, n) for n in self._fields)

    def __eq__(self, other: Any) -> Any:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())


class Tolerance(_Value):
    """Numeric slack for an instance.

    ``rank_tol`` is the singular-value cutoff.  ``None`` lets the
    instance derive a per-morphism default (the matrix instance uses
    ``max(rows, cols) * machine_eps * sigma_max``).  ``eq_tol`` is the
    slack of :func:`within`.  Exact instances run with both at zero.
    """

    _fields = ("rank_tol", "eq_tol")

    def __init__(
        self, rank_tol: Optional[float] = None, eq_tol: float = EQ_TOL_DEFAULT
    ) -> None:
        if rank_tol is not None:
            _check_slack("rank_tol", rank_tol)
        _check_slack("eq_tol", eq_tol)
        object.__setattr__(self, "rank_tol", rank_tol)
        object.__setattr__(self, "eq_tol", eq_tol)

    @classmethod
    def exact(cls) -> "Tolerance":
        return cls(rank_tol=0.0, eq_tol=0.0)


def _check_slack(name: str, value: Any) -> None:
    """InputError unless value is a finite nonnegative real number.

    A real number is an int, a float or a numpy real scalar, told by a
    real part of its own type: a complex's is a float, a bool's an int,
    and str, bytes and None have none.  numpy's bool is refused by its
    type's name (core does not load numpy), and so is what
    ``math.isfinite`` cannot read, such as an array.
    """
    kind = type(value)
    try:
        real = type(value.real) is kind and kind.__name__ not in ("bool", "bool_")
        finite = real and math.isfinite(value)
    except (AttributeError, TypeError):
        real = False
    if not real:
        raise InputError(f"{name} must be a real number, got {kind.__name__}")
    if not (finite and value >= 0.0):
        raise InputError(f"{name} must be finite and nonnegative")


class MPReport(NamedTuple):
    """Outcome of checking the four Moore-Penrose identities.

    ``residuals`` holds the instance's deviation measure for each
    identity in order (0.0 on exact instances when the identity holds).
    :meth:`as_dict` writes a residual that is not finite as None, so the
    dict is strict JSON.
    """

    mp1: bool
    mp2: bool
    mp3: bool
    mp4: bool
    residuals: tuple[float, float, float, float]

    @property
    def all_hold(self) -> bool:
        return self.mp1 and self.mp2 and self.mp3 and self.mp4

    def as_dict(self) -> dict:
        return {
            "mp1": self.mp1,
            "mp2": self.mp2,
            "mp3": self.mp3,
            "mp4": self.mp4,
            "residuals": [r if math.isfinite(r) else None for r in self.residuals],
            "all_hold": self.all_hold,
        }


class DaggerInstance(ABC):
    """Contract an instance implements to plug into the generic machinery.

    The mandatory part is composition, dagger, identities, typing, and a
    deviation measure.  The capability hooks below are optional and hold
    only what the generic code cannot derive: a biproduct's projection is
    the dagger of its injection, and positivity is having a square root.
    The default implementations raise :class:`CapabilityError`, and
    generic code is expected to let that propagate.  A capability that
    builds a morphism checks no equation of what it returns: that is a
    candidate, certified by its consumer (a factorization's defining
    equations, or :func:`split` for a splitting handed to the user).
    """

    name = "instance"

    def __init__(self, tolerance: Tolerance):
        self.tolerance = tolerance

    @abstractmethod
    def compose2(self, f: Any, g: Any) -> Any:
        """Diagrammatic composite "f then g"."""

    def compose(self, f: Any, *rest: Any) -> Any:
        out = f
        for g in rest:
            out = self.compose2(out, g)
        return out

    @abstractmethod
    def dagger(self, f: Any) -> Any: ...

    @abstractmethod
    def identity(self, obj: Any) -> Any: ...

    @abstractmethod
    def source(self, f: Any) -> Any: ...

    @abstractmethod
    def target(self, f: Any) -> Any: ...

    @abstractmethod
    def deviation(self, f: Any, g: Any) -> float:
        """Nonnegative distance between parallel morphisms."""

    def norm(self, f: Any) -> float:
        """Size of f, of degree 1 in its entries, that equality bounds scale with."""
        return 1.0

    def compare(
        self, f: Any, g: Any, scale: Optional[float] = None, cond: float = 1.0
    ) -> Equation:
        """The :class:`Equation` record of f against g: the deviation, and
        whether it passes :func:`within` at ``scale`` and ``cond``.

        ``scale`` defaults to ``max(norm(f), norm(g))``; callers may pass
        factor-norm products, split into ``scale`` and ``cond``.  Every
        equation the package checks is measured here.
        """
        dev = self.deviation(f, g)
        scale = max(self.norm(f), self.norm(g)) if scale is None else scale
        ok = within(dev, scale, self.tolerance.eq_tol, cond)
        return tuple.__new__(Equation, (dev, ok, scale, cond))

    def equals(self, f: Any, g: Any) -> bool:
        return self.compare(f, g)[1]

    # Optional capabilities: what the generic code cannot derive.

    def split_idempotent(self, e: Any) -> Any:
        """Candidate coisometry r with r r† = e and r† r = 1 on the new
        object, for a dagger idempotent e; unchecked (see :func:`split`)."""
        raise CapabilityError(f"{self.name} instance cannot split idempotents")

    def split_with_kernel(self, e: Any) -> tuple[Any, Any]:
        """Candidates (r, k) for a dagger idempotent e, from one
        factorization: r splits e as :meth:`split_idempotent` does, and
        the isometry k is the kernel of e, with k e = 0, k k† = 1 and
        k† k = 1 - e; unchecked, as the full form's equations certify both."""
        raise CapabilityError(f"{self.name} instance provides no kernels")

    def sqrt_positive(self, p: Any) -> tuple[Any, Any]:
        """Pair (h, h_mp): positive square root of p and its M-P inverse;
        PreconditionError when p has none."""
        raise CapabilityError(f"{self.name} instance provides no square roots")

    def add(self, f: Any, g: Any) -> Any:
        raise CapabilityError(f"{self.name} instance has no additive structure")

    def direct_sum(self, f: Any, g: Any) -> Any:
        raise CapabilityError(f"{self.name} instance has no biproducts")

    def injection(self, dims: tuple, j: int) -> Any:
        """Injection of block j into the biproduct of dims; its dagger is
        the projection onto that block."""
        raise CapabilityError(f"{self.name} instance has no biproducts")

    def zero(self, src: Any, tgt: Any) -> Any:
        raise CapabilityError(f"{self.name} instance has no zero morphisms")

    def mp(self, f: Any) -> Any:
        """The instance's default Moore-Penrose inverse route, if any."""
        raise CapabilityError(f"{self.name} instance has no default M-P route")


def is_isometry(inst: DaggerInstance, f: Any) -> bool:
    """f f† = 1 on the source."""
    return inst.equals(
        inst.compose(f, inst.dagger(f)), inst.identity(inst.source(f))
    )


def is_coisometry(inst: DaggerInstance, f: Any) -> bool:
    """f† f = 1 on the target."""
    return inst.equals(
        inst.compose(inst.dagger(f), f), inst.identity(inst.target(f))
    )


def is_unitary(inst: DaggerInstance, f: Any) -> bool:
    return is_isometry(inst, f) and is_coisometry(inst, f)


def is_partial_isometry(inst: DaggerInstance, f: Any) -> bool:
    """f f† f = f."""
    return inst.equals(inst.compose(f, inst.dagger(f), f), f)


def _require_endo(inst: DaggerInstance, f: Any, what: str) -> None:
    if inst.source(f) != inst.target(f):
        raise InputError(f"{what} requires an endomorphism")


def is_self_adjoint(inst: DaggerInstance, f: Any) -> bool:
    _require_endo(inst, f, "self-adjointness")
    return inst.equals(inst.dagger(f), f)


def require_dagger_idempotent(inst: DaggerInstance, e: Any) -> None:
    """PreconditionError unless e = e† and e e = e, carrying the deviation
    of the first that fails; InputError unless e is an endomorphism."""
    eq, _ = _dagger_idempotent(inst, e)
    if not eq.ok:
        _refuse(inst, eq, PreconditionError, "not a dagger idempotent")


def _dagger_idempotent(inst: DaggerInstance, e: Any) -> tuple[Equation, Any]:
    """The rule of :func:`require_dagger_idempotent` and
    :func:`is_dagger_idempotent`: e = e†, then, once that passed, e e = e.

    Returns the last record measured (the failing one, if any) and e e,
    None when it was not formed.
    """
    _require_endo(inst, e, "dagger idempotency")
    eq = inst.compare(inst.dagger(e), e)
    if not eq.ok:
        return eq, None
    ee = inst.compose(e, e)
    return inst.compare(ee, e), ee


def is_dagger_idempotent(inst: DaggerInstance, f: Any) -> bool:
    """f = f† and f f = f."""
    return _dagger_idempotent(inst, f)[0].ok


def split(inst: DaggerInstance, e: Any) -> Any:
    """The instance's splitting r of a dagger idempotent e, certified.

    InputError unless e is an endomorphism.  e = e† at scale |e|, then
    r r† = e at scale |e| and r† r = 1 at scale |1| must pass
    :func:`check`, or PreconditionError carries the deviation of the
    first that fails.  The last two imply e e = e.
    """
    _require_endo(inst, e, "splitting")
    scale = inst.norm(e)  # taken before the dagger, which then carries it
    check(
        inst, e, inst.dagger(e), PreconditionError,
        "split: self_adjoint equation fails", scale,
    )
    r = inst.split_idempotent(e)
    rd = inst.dagger(r)
    check(
        inst, inst.compose(r, rd), e, PreconditionError,
        "split: recomposition equation fails", scale,
    )
    one = inst.identity(inst.target(r))
    check(
        inst, inst.compose(rd, r), one, PreconditionError,
        "split: coisometry equation fails", inst.norm(one),
    )
    return r


def is_positive(inst: DaggerInstance, p: Any) -> bool:
    """p = h h† for some h: the instance finds a square root h = h† of p.

    Its PreconditionError (p not Hermitian, or an eigenvalue below the
    cutoff) means False; its CapabilityError propagates.
    """
    _require_endo(inst, p, "positivity")
    try:
        inst.sqrt_positive(p)
    except PreconditionError:
        return False
    return True


def verify_mp(inst: DaggerInstance, f: Any, g: Any) -> MPReport:
    """Check the four Moore-Penrose identities for the candidate pair.

    ``g`` must have the dual type of ``f`` (source(g) = target(f) and
    target(g) = source(f)); anything else raises :class:`InputError`.
    A report stores nothing: :func:`require_mp` certifies.  When g is f,
    g f is f g and MP2 and MP4 are MP1 and MP3 to the byte, so f g and
    (f g) f are formed once and their residuals read twice.  Swapping f
    and g swaps MP1 with MP2 and MP3 with MP4, byte for byte: the same
    products, at the same scales and conds.  The four equations are
    measured by the private ``_mp_report``, which also measures them for
    :func:`require_mp` and for callers that hold f g and g f already
    (``_mp_projections``, and the derived-identities check), so those
    products are not formed twice.
    """
    mp = _mp_report(inst, f, g, *_mp_products(inst, f, g))
    return MPReport(*(m.ok for m in mp), tuple(m.deviation for m in mp))


def _mp_products(inst: DaggerInstance, f: Any, g: Any) -> tuple[Any, Any]:
    """(f g, g f), after :func:`verify_mp`'s dual-type check; g f is f g when g is f."""
    if inst.source(g) != inst.target(f) or inst.target(g) != inst.source(f):
        raise InputError("candidate inverse must have the dual type of f")
    fg = inst.compose(f, g)
    return fg, fg if g is f else inst.compose(g, f)


def _mp_report(inst: DaggerInstance, f: Any, g: Any, fg: Any, gf: Any) -> tuple:
    """The records of MP1-MP4 for (f, g), in order, measured with the given
    fg = f g and gf = g f (gf is fg when g is f)."""
    self_pair = g is f
    # Factor-norm bounds, as |fl(AB) - AB| <= c|A||B|; |f||g| is MP1's and MP2's cond.
    nf, ng = inst.norm(f), inst.norm(g)
    nfg = nf * ng
    mp1 = inst.compare(inst.compose(fg, f), f, nf, nfg)
    mp2 = mp1 if self_pair else inst.compare(inst.compose(gf, g), g, ng, nfg)
    mp3 = inst.compare(inst.dagger(fg), fg, nfg)
    mp4 = mp3 if self_pair else inst.compare(inst.dagger(gf), gf, nfg)
    return mp1, mp2, mp3, mp4


def _refuse(inst: DaggerInstance, eq: Equation, error: type, what: str) -> NoReturn:
    """Raise ``error(what, residual=eq.deviation)`` for the failed record eq:
    the package's one refusal.

    When eq failed only because :func:`within` forced an exact comparison
    (its slack eq_tol * cond is at least 1, or its scale is not finite)
    while the deviation is within eq_tol * cond * scale, the message names
    that guard and its numbers in place of the verdict: "MP1 fails"
    becomes "MP1 cannot be certified at cond 1.549e+10 with eq_tol 1e-09".
    """
    eq_tol = inst.tolerance.eq_tol
    slack = eq_tol * eq.cond
    if math.isfinite(eq.deviation) and eq.deviation <= slack * eq.scale:
        guard = (
            f"cond {eq.cond:.3e} with eq_tol {eq_tol:g}" if slack >= 1.0
            else f"scale {eq.scale:.3e}"
        )
        head = what[: -len(" fails")] if what.endswith(" fails") else what + ":"
        what = f"{head} cannot be certified at {guard}"
    raise error(what, residual=eq.deviation)


def check(
    inst: DaggerInstance, lhs: Any, rhs: Any, error: type, what: str,
    scale: Optional[float] = None,
) -> float:
    """Return the deviation of lhs from rhs, raising ``error`` if they differ.

    ``scale`` is as in :meth:`DaggerInstance.compare`.  The returned
    deviation is what factorizations record.  A failed record is refused
    by :func:`_refuse`: ``error`` carries the deviation, and its message
    is ``what``, or names the slack guard that forced the failure.
    """
    eq = inst.compare(lhs, rhs, scale)
    if not eq.ok:
        _refuse(inst, eq, error, what)
    return eq.deviation


def _certified(obj: Any, inst: DaggerInstance, *partner: Any, attr: str = "_cert") -> bool:
    """True if obj holds the certificate ``(*partner, inst, inst.tolerance)``
    as attr, compared object by object.

    :func:`_certify` stores it once every equation of obj (with its
    partner, if any) has passed at that tolerance.  Morphisms and the
    records built from them are immutable and a tolerance is frozen, so
    those equations would pass again.  Any other object (an equal copy,
    another instance, a tolerance reassigned on the instance) misses.
    """
    cert = getattr(obj, attr, None)
    if cert is None:
        return False
    key = (*partner, inst, inst.tolerance)
    return len(cert) == len(key) and all(a is b for a, b in zip(cert, key))


def _certify(obj: Any, inst: DaggerInstance, *partner: Any, attr: str = "_cert") -> Any:
    """Store the certificate that :func:`_certified` reads on obj, as a
    matrix stores its norm, and return obj."""
    object.__setattr__(obj, attr, (*partner, inst, inst.tolerance))
    return obj


def require_mp(inst: DaggerInstance, f: Any, g: Any, error: type, what: str) -> Any:
    """Return g if it is the M-P inverse of f, else raise ``error``.

    The error names the first failing identity and carries its residual.
    A pair that passes is certified: g keeps ``(f, inst, inst.tolerance)``
    as ``_mp_cert`` (:func:`_certify`), and a later call with the same f
    object, instance object and tolerance object returns g without
    measuring.  A failed pair, and a g that is f (which would refer to
    itself), store nothing; :func:`verify_mp` only reports.
    """
    if not _certified(g, inst, f, attr="_mp_cert"):
        _certify_mp(inst, f, g, *_mp_products(inst, f, g), error, what)
    return g


def _mp_projections(
    inst: DaggerInstance, f: Any, g: Any, error: type, what: str
) -> tuple[Any, Any]:
    """The projections (f g, g f) of the M-P pair (f, g), each formed once.

    A pair that :func:`require_mp` would return at once (certified for f,
    inst and its tolerance) has them formed and nothing measured.  Any
    other pair has its four identities measured with these very products
    and is refused or certified as :func:`require_mp` does it, with the
    same error, message and residual.
    """
    fg, gf = _mp_products(inst, f, g)
    if not _certified(g, inst, f, attr="_mp_cert"):
        _certify_mp(inst, f, g, fg, gf, error, what)
    return fg, gf


def _certify_mp(
    inst: DaggerInstance, f: Any, g: Any, fg: Any, gf: Any, error: type, what: str
) -> None:
    """Measure MP1-MP4 of (f, g) with fg = f g and gf = g f (``_mp_report``)
    and refuse the first that failed, as ``error`` naming it; else certify
    g for f, unless g is f."""
    for i, eq in enumerate(_mp_report(inst, f, g, fg, gf), 1):
        if not eq.ok:
            _refuse(inst, eq, error, f"{what}: MP{i} fails")
    if g is not f:
        _certify(g, inst, f, attr="_mp_cert")
