"""Splitting dagger idempotents formally.

Objects here are pairs (base object, dagger idempotent on it); a
morphism between two such pairs is a base morphism fixed by the chosen
idempotents on both sides.  Composition and dagger are inherited, and
the idempotent itself acts as the identity of its pair.

The point of the construction for this library: a map has a
Moore-Penrose inverse exactly when it becomes invertible between the
pairs carved out by its two projections.  :func:`iso_from_mp` and
:func:`mp_from_iso` are the two directions of that correspondence, and
:func:`mp_in_karoubi` shows inverses need nothing new after splitting.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .core import (
    ConsistencyError,
    DaggerInstance,
    Equation,
    InputError,
    PreconditionError,
    _Frozen,
    _certified,
    _certify,
    _mp_projections,
    _refuse,
    check,
    require_dagger_idempotent,
    require_mp,
)


class SplitObject(_Frozen):
    """A base object together with a dagger idempotent on it."""

    def __init__(self, base: Any, idempotent: Any) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "idempotent", idempotent)

    def __repr__(self) -> str:
        return f"SplitObject(base={self.base!r})"


class SplitMorphism(_Frozen):
    """Base morphism f with dom.idempotent . f . cod.idempotent == f."""

    _fields = ("dom", "cod", "f")

    def __init__(self, dom: SplitObject, cod: SplitObject, f: Any) -> None:
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "f", f)


def split_object(inst: DaggerInstance, e: Any) -> SplitObject:
    """Wrap a dagger idempotent as a formal object."""
    require_dagger_idempotent(inst, e)
    return SplitObject(inst.source(e), e)


def same_object(inst: DaggerInstance, a: SplitObject, b: SplitObject) -> bool:
    eq = _object_equation(inst, a, b)
    return eq is not None and eq.ok


def _require_same_object(
    inst: DaggerInstance, a: SplitObject, b: SplitObject, what: str
) -> None:
    eq = _object_equation(inst, a, b)
    if eq is None:
        raise InputError(what)
    if not eq.ok:
        _refuse(inst, eq, InputError, what)


def _object_equation(
    inst: DaggerInstance, a: SplitObject, b: SplitObject
) -> Optional[Equation]:
    """The record of a's idempotent against b's, read by :func:`same_object`
    and :func:`_require_same_object`; None, measuring nothing, when their
    bases differ."""
    return inst.compare(a.idempotent, b.idempotent) if a.base == b.base else None


def split_morphism(
    inst: DaggerInstance, dom: SplitObject, cod: SplitObject, f: Any
) -> SplitMorphism:
    """Check f is fixed by the two idempotents and wrap it."""
    if inst.source(f) != dom.base or inst.target(f) != cod.base:
        raise InputError(
            f"map has type {inst.source(f)} -> {inst.target(f)}, expected "
            f"{dom.base} -> {cod.base}"
        )
    check(
        inst, inst.compose(dom.idempotent, f, cod.idempotent), f, InputError,
        "map is not fixed by the chosen idempotents",
    )
    return SplitMorphism(dom, cod, f)


def split_identity(inst: DaggerInstance, obj: SplitObject) -> SplitMorphism:
    """The idempotent itself, acting as the identity of its pair."""
    return SplitMorphism(obj, obj, obj.idempotent)


def embed(inst: DaggerInstance, f: Any) -> SplitMorphism:
    """A base morphism viewed between identity splittings."""
    dom = SplitObject(inst.source(f), inst.identity(inst.source(f)))
    cod = SplitObject(inst.target(f), inst.identity(inst.target(f)))
    return SplitMorphism(dom, cod, f)


def compose_split(
    inst: DaggerInstance, f: SplitMorphism, g: SplitMorphism
) -> SplitMorphism:
    _require_same_object(
        inst, f.cod, g.dom,
        "codomain of the first map differs from domain of the second",
    )
    return SplitMorphism(f.dom, g.cod, inst.compose(f.f, g.f))


def dagger_split(inst: DaggerInstance, f: SplitMorphism) -> SplitMorphism:
    return SplitMorphism(f.cod, f.dom, inst.dagger(f.f))


def mp_in_karoubi(
    inst: DaggerInstance,
    f: SplitMorphism,
    base_mp: Optional[Callable[[Any], Any]] = None,
) -> SplitMorphism:
    """M-P inverse of a formal morphism: the base inverse, re-housed.

    f is first checked as :func:`split_morphism` checks it, as a
    hand-built :class:`SplitMorphism` need not be fixed by its
    idempotents (InputError).  The certified base inverse g of such an f
    is fixed by the same idempotents from the other side (g = g f g, and
    MP3 and MP4 let f g and g f absorb them), so splitting adds no new
    inverses.  ``base_mp`` defaults to the instance solver; whatever it
    raises propagates.
    """
    split_morphism(inst, f.dom, f.cod, f.f)
    solver = base_mp if base_mp is not None else inst.mp
    g = require_mp(
        inst, f.f, solver(f.f), PreconditionError, "base solver output fails the axioms"
    )
    return SplitMorphism(f.cod, f.dom, g)


def iso_from_mp(
    inst: DaggerInstance, f: Any, f_mp: Any
) -> tuple[SplitMorphism, SplitMorphism]:
    """View an M-P invertible map as invertible between its projections.

    Returns (forward, backward): f itself from (source, f f°) to
    (target, f° f), and f° the other way, composing to the two split
    identities.  That f and f° are fixed by these projections follows
    from MP1 and MP2, which certify the pair at the factor-norm bound
    as :func:`~daggermp.core.require_mp` does; it is not measured again.
    The projections are the products that certification measures with
    (:func:`~daggermp.core._mp_projections`), and a pair already
    certified only has them formed.  backward keeps
    ``(forward, inst, inst.tolerance)`` as its certificate, which
    :func:`mp_from_iso` reads.
    """
    ffmp, fmpf = _mp_projections(
        inst, f, f_mp, PreconditionError, "needs a verified M-P pair"
    )
    dom = SplitObject(inst.source(f), ffmp)
    cod = SplitObject(inst.target(f), fmpf)
    forward = SplitMorphism(dom, cod, f)
    return forward, _certify(SplitMorphism(cod, dom, f_mp), inst, forward)


def mp_from_iso(
    inst: DaggerInstance, forward: SplitMorphism, backward: SplitMorphism
) -> tuple[Any, Any]:
    """Mutually inverse formal morphisms give an M-P pair in the base.

    Requires forward . backward and backward . forward to equal the two
    split identities; then the underlying base maps already satisfy all
    four axioms, which is verified before returning them unless
    :func:`~daggermp.core.require_mp` has already certified the pair for
    the same f object and instance.  A backward that :func:`iso_from_mp`
    returned with this forward, for this instance at its tolerance, is
    certified, and then nothing is measured.
    """
    if _certified(backward, inst, forward):
        return forward.f, backward.f
    for a, b in ((forward.dom, backward.cod), (forward.cod, backward.dom)):
        _require_same_object(inst, a, b, "maps do not go between the same two pairs")
    check(
        inst, inst.compose(forward.f, backward.f), forward.dom.idempotent,
        InputError, "composite onto the domain is not its identity",
    )
    check(
        inst, inst.compose(backward.f, forward.f), forward.cod.idempotent,
        InputError, "composite onto the codomain is not its identity",
    )
    require_mp(
        inst, forward.f, backward.f, ConsistencyError, "inverse pair fails the axioms"
    )
    return forward.f, backward.f
