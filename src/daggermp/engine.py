"""Constructions and identity checks valid in any dagger category.

Everything here is written against the instance contract: canonical
Moore-Penrose inverses for the maps that always have one, the gram
route that reduces inversion of ``f`` to inversion of ``f† f``, the
battery of identities a verified inverse pair must satisfy, and the
criteria under which inverses compose contravariantly.

Constructors re-verify their postconditions before returning; a verified
claim failing afterwards is reported as a consistency error rather than
silently accepted.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Optional

from .core import (
    ConsistencyError,
    DaggerInstance,
    InputError,
    NoMPInverseError,
    PreconditionError,
    _certify_mp,
    _dagger_idempotent,
    _mp_projections,
    _mp_report,
    _refuse,
    check,
    is_partial_isometry,
    is_self_adjoint,
    require_mp,
    verify_mp,
)


def mp_of_partial_isometry(inst: DaggerInstance, f: Any) -> Any:
    """M-P inverse of a partial isometry: its dagger."""
    fd = inst.dagger(f)
    check(inst, inst.compose(f, fd, f), f, PreconditionError, "not a partial isometry")
    return require_mp(
        inst, f, fd, ConsistencyError,
        "partial isometry constructor produced a candidate failing the axioms",
    )


def mp_of_dagger_idempotent(inst: DaggerInstance, e: Any) -> Any:
    """M-P inverse of a dagger idempotent: itself.

    The four identities of (e, e) are measured with the e e that the
    dagger-idempotent rule formed, so e e is formed once, as
    :func:`_is_self_mp_projector` measures them.
    """
    eq, ee = _dagger_idempotent(inst, e)
    if not eq.ok:
        _refuse(inst, eq, PreconditionError, "not a dagger idempotent")
    _certify_mp(
        inst, e, e, ee, ee, ConsistencyError,
        "dagger idempotent constructor produced a candidate failing the axioms",
    )
    return e


def _is_self_mp_projector(inst: DaggerInstance, e: Any) -> bool:
    """e is a dagger idempotent and its own M-P inverse: the measurement of
    :func:`mp_of_dagger_idempotent`, read as a verdict."""
    eq, ee = _dagger_idempotent(inst, e)
    return eq.ok and all(m.ok for m in _mp_report(inst, e, e, ee, ee))


def mp_via_gram(
    inst: DaggerInstance, f: Any, gram_solver: Callable[[Any], Any]
) -> Any:
    """M-P inverse of f from an inverse of the gram endomorphism f† f.

    ``gram_solver`` must return a verified M-P inverse of ``f† f``; the
    route then succeeds iff ``f (f†f)° (f†f) = f``, in which case the
    answer is ``(f†f)° f†``.  Failure of that condition means f has no
    M-P inverse reachable this way, reported as
    :class:`NoMPInverseError`.
    """
    fd = inst.dagger(f)
    gram = inst.compose(fd, f)
    gram_mp = require_mp(
        inst, gram, gram_solver(gram), PreconditionError,
        "gram_solver did not return a verified inverse of f†f",
    )
    check(
        inst, inst.compose(f, gram_mp, gram), f, NoMPInverseError,
        "gram route fails: f (f†f)° (f†f) differs from f",
    )
    return require_mp(
        inst, f, inst.compose(gram_mp, fd), ConsistencyError,
        "gram route produced a candidate failing the axioms",
    )


class DerivedIdentitiesReport(NamedTuple):
    """Identities every Moore-Penrose pair (f, f°) satisfies.

    The two conditional items hold vacuously when their hypothesis
    fails: ``self_adjoint_transfer`` only constrains self-adjoint f, and
    ``dagger_mp_partial_isometry`` only constrains pairs with f° = f†.
    """

    double_mp: bool                    # (f°)° = f
    dagger_mp_swap: bool               # (f†)° = (f°)†
    projector_idempotents: bool        # ff°, f°f dagger idempotents, self-M-P
    gram_inverses: bool                # (ff†)° = f†° f°,  (f†f)° = f° f†°
    projector_alternatives: bool       # ff° = f†° f†,  f°f = f† f†°
    f_absorption: bool                 # f = f f† f†° = f†° f† f
    mp_absorption: bool                # f° = f° f†° f† = f† f†° f°
    dagger_absorption: bool            # f† = f† f f° = f° f f†
    self_adjoint_transfer: bool        # f = f† implies f° = f°† and f°f = ff°
    dagger_mp_partial_isometry: bool   # f° = f† implies f f† f = f

    @property
    def all_hold(self) -> bool:
        return all(self)


def derived_identities_check(
    inst: DaggerInstance, f: Any, f_mp: Any
) -> DerivedIdentitiesReport:
    """Evaluate the ten consequences of the axioms for a verified pair.

    The pair is certified first, and its projections f f° and f° f are
    the products that certification measures with (an uncertified pair)
    or only forms (a certified one).  ``double_mp`` is read from the
    certificate: ``verify_mp(f°, f)`` forms the same products as
    ``verify_mp(f, f°)`` and measures the same four equations at the
    same scales and conds, MP1 and MP2 swapped and MP3 and MP4 swapped.
    f f†, f† f, f† f°† and f°† f† are each formed once and shared by the
    identities that use them (f† f°† and f°† f† with
    ``verify_mp(f†, f°†)``), as are f f°, f° f and f° f°†, each in the
    association the identity is stated in.  ``projector_idempotents``
    measures, for each e of f f° and f° f, e = e† and e e = e, then
    ``verify_mp(e, e)`` with that same e e.

    When the tolerance's ``eq_tol`` is 0, an identity that only repeats
    a computation already passed for the pair is read, not measured
    again.  At eq_tol 0 :func:`~daggermp.core.within` passes deviation 0
    alone, whatever the scale and cond, and every instance operation is
    a function of its operands' values: an equation formed by the same
    compose and dagger calls on equal operands has the same deviation,
    and an equation that passed holds by value.  With e = f f° or f° f,
    ``projector_idempotents`` is read so on every pair, and the other
    identities below when f° also equals f†, and so f°† = f, as in an
    inverse category: a difunctional relation's inverse is its converse,
    a partial injection's its dagger.  Each side below is formed in the
    association written:

    ==========================  =========================================
    identity                    repeats
    ==========================  =========================================
    projector_idempotents       e = e† is MP3 or MP4 of the pair, and
                                e e = e alone is measured.  With e = e†
                                it makes (e e) e = e and (e e)† = e e by
                                value, so verify_mp(e, e) holds
    dagger_mp_swap              verify_mp(f°, f), the certified pair swapped
    f_absorption                MP1: (f f†) f°† and (f°† f†) f are (f f°) f
    dagger_mp_partial_isometry  MP1: (f f†) f is (f f°) f
    mp_absorption               MP2: (f° f°†) f† and (f† f°†) f° are (f° f) f°
    dagger_absorption           MP2: (f† f) f° and (f° f) f† are (f° f) f°
    projector_alternatives      f°† f† is f f° and f† f°† is f° f: each is
                                compared with itself, at deviation 0
    gram_inverses               verify_mp(e, e), as (f f†, f°† f°) and
                                (f† f, f° f°†) are (e, e): read where
                                e e = e passed, measured where it failed
    ==========================  =========================================

    ``self_adjoint_transfer`` is evaluated as on every other pair.  Any
    other tolerance or pair is evaluated in full.
    """
    ffmp, fmpf = _mp_projections(
        inst, f, f_mp, PreconditionError, "derived identities need a verified M-P pair"
    )
    dg = inst.dagger
    comp = inst.compose
    eq = inst.equals
    fd = dg(f)
    mp_is_dagger = eq(f_mp, fd)

    endo = inst.source(f) == inst.target(f)
    if endo and is_self_adjoint(inst, f):
        self_adjoint_transfer = is_self_adjoint(inst, f_mp) and eq(fmpf, ffmp)
    else:
        self_adjoint_transfer = True

    double_mp = True
    exact = inst.tolerance.eq_tol == 0.0
    if exact:  # read as tabulated above
        projector_idempotents = eq(comp(ffmp, ffmp), ffmp) and eq(comp(fmpf, fmpf), fmpf)
    else:
        projector_idempotents = (
            _is_self_mp_projector(inst, ffmp) and _is_self_mp_projector(inst, fmpf)
        )
    if exact and mp_is_dagger:
        dagger_mp_swap = projector_alternatives = f_absorption = True
        mp_absorption = dagger_absorption = dagger_mp_partial_isometry = True
        gram_inverses = projector_idempotents or (
            verify_mp(inst, ffmp, ffmp).all_hold and verify_mp(inst, fmpf, fmpf).all_hold
        )
    else:
        fmd = dg(f_mp)
        fdfmd, fmdfd = comp(fd, fmd), comp(fmd, fd)
        dagger_mp_swap = all(m.ok for m in _mp_report(inst, fd, fmd, fdfmd, fmdfd))
        ffd, fdf = comp(f, fd), comp(fd, f)
        fmpfmd = comp(f_mp, fmd)
        gram_inverses = (
            verify_mp(inst, ffd, comp(fmd, f_mp)).all_hold
            and verify_mp(inst, fdf, fmpfmd).all_hold
        )
        projector_alternatives = eq(ffmp, fmdfd) and eq(fmpf, fdfmd)
        f_absorption = eq(f, comp(ffd, fmd)) and eq(f, comp(fmdfd, f))
        mp_absorption = eq(f_mp, comp(fmpfmd, fd)) and eq(f_mp, comp(fdfmd, f_mp))
        dagger_absorption = eq(fd, comp(fdf, f_mp)) and eq(fd, comp(fmpf, fd))
        dagger_mp_partial_isometry = (
            is_partial_isometry(inst, f) if mp_is_dagger else True
        )

    return DerivedIdentitiesReport(
        double_mp,
        dagger_mp_swap,
        projector_idempotents,
        gram_inverses,
        projector_alternatives,
        f_absorption,
        mp_absorption,
        dagger_absorption,
        self_adjoint_transfer,
        dagger_mp_partial_isometry,
    )


class CompositionReport(NamedTuple):
    """Outcome of the contravariant-composition criteria for (f, g).

    ``condition_a`` through ``condition_c`` are three equivalent
    sufficient conditions for ``(fg)° = g° f°``; the constructor raises
    if they disagree, so one boolean ``conditions_hold`` summarizes
    them.  ``composite_mp`` holds ``g° f°`` when they hold, else None.
    ``biconditional_lhs``/``biconditional_rhs`` record both sides of the
    exact characterization (the left side checks the axioms for
    ``g° f°`` directly, the right side its four algebraic clauses);
    whether the two agree is an empirical question for each instance, so
    they are reported rather than enforced.
    """

    condition_a: bool
    condition_b: bool
    condition_c: bool
    composite_mp: Optional[Any]
    biconditional_lhs: bool
    biconditional_rhs: bool

    @property
    def conditions_hold(self) -> bool:
        return self.condition_a


def composition_criteria(
    inst: DaggerInstance, f: Any, f_mp: Any, g: Any, g_mp: Any
) -> CompositionReport:
    """Check whether the M-P inverse of f then g is g° then f°."""
    if inst.target(f) != inst.source(g):
        raise InputError("f and g are not composable")
    for m, m_mp, name in ((f, f_mp, "f"), (g, g_mp, "g")):
        require_mp(
            inst, m, m_mp, PreconditionError,
            f"composition criteria need a verified pair for {name}",
        )
    dg = inst.dagger
    comp = inst.compose
    eq = inst.equals

    def self_adj(x):
        return eq(dg(x), x)

    def idem(x):
        return eq(comp(x, x), x)

    cond_a = (
        self_adj(comp(g, g_mp, f_mp, f))
        and self_adj(comp(f, g, g_mp, f_mp))
        and self_adj(comp(g_mp, f_mp, f, g))
    )
    cond_b = self_adj(comp(g, dg(g), f_mp, f)) and self_adj(
        comp(dg(f), f, g, g_mp)
    )
    cond_c = eq(
        comp(f_mp, f, g, dg(g), dg(f)), comp(g, dg(g), dg(f))
    ) and eq(comp(g, g_mp, dg(f), f, g), comp(dg(f), f, g))
    if not (cond_a == cond_b == cond_c):
        raise ConsistencyError(
            "equivalent composition conditions disagree: "
            f"a={cond_a} b={cond_b} c={cond_c}"
        )

    rhs = (
        idem(comp(f_mp, f, g, g_mp))
        and idem(comp(g, g_mp, f_mp, f))
        and eq(comp(f, g, g_mp, f_mp), comp(dg(f_mp), g, g_mp, dg(f)))
        and eq(comp(g_mp, f_mp, f, g), comp(dg(g), f_mp, f, dg(g_mp)))
    )
    candidate = comp(g_mp, f_mp)
    lhs = verify_mp(inst, comp(f, g), candidate).all_hold

    composite_mp = None
    if cond_a:
        if not lhs:
            raise ConsistencyError(
                "composition conditions hold but g° f° fails the axioms"
            )
        composite_mp = candidate
    return CompositionReport(cond_a, cond_b, cond_c, composite_mp, lhs, rhs)
