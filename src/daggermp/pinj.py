"""Partial injections between finite sets.

A partial injection src -> tgt is stored as one entry per source point,
either the image index or None.  The dagger reverses the graph, and it
is always the Moore-Penrose inverse: this is the instance where every
morphism is a partial isometry.  The defining laws of that situation
(each map is regular over its reversal, and the domain/range projections
commute) are checked by :func:`verify_inverse_category_laws`.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from .core import (
    DaggerInstance,
    InputError,
    Tolerance,
    _Value,
    check_sizes,
    is_plain_int,
    pair_items,
    pairs_from_obj,
)


class PartialInjection(_Value):
    """Injective partial map; mapping[i] is the image of i or None.

    ``PartialInjection(src, tgt, mapping)`` and :meth:`from_pairs`
    validate outside input and raise InputError: plain nonnegative int
    endpoints, a tuple of one entry per source point, each None or a
    plain int below tgt, no image hit twice.  :meth:`identity` checks
    only its size.  The identities, composites and daggers the package
    builds are built by :func:`_injection`, which checks nothing.  Two
    maps are equal when their three fields are.
    """

    _fields = ("src", "tgt", "mapping")

    def __init__(self, src: int, tgt: int, mapping: tuple[Optional[int], ...]) -> None:
        check_sizes(src, tgt)
        if not isinstance(mapping, tuple) or len(mapping) != src:
            raise InputError("mapping must be a tuple with one entry per source point")
        hit: set[int] = set()
        for value in mapping:
            if value is None:
                continue
            if not is_plain_int(value) or not (0 <= value < tgt):
                raise InputError(f"image {value!r} out of range for target {tgt}")
            if value in hit:
                raise InputError(f"target {value} hit twice; map is not injective")
            hit.add(value)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "tgt", tgt)
        object.__setattr__(self, "mapping", mapping)

    @classmethod
    def from_pairs(
        cls, src: int, tgt: int, pairs: Iterable[tuple[int, int]]
    ) -> "PartialInjection":
        check_sizes(src, tgt)
        mapping: list[Optional[int]] = [None] * src
        for i, j in pair_items(pairs):
            if not (is_plain_int(i) and 0 <= i < src):
                raise InputError(f"source {i!r} out of range")
            if mapping[i] is not None:
                raise InputError(f"source {i} mapped twice")
            mapping[i] = j
        return cls(src, tgt, tuple(mapping))

    @classmethod
    def identity(cls, n: int) -> "PartialInjection":
        check_sizes(n)
        return _injection(n, n, tuple(range(n)))

    @property
    def pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i, j in enumerate(self.mapping) if j is not None]

    def compose(self, other: "PartialInjection") -> "PartialInjection":
        """self then other."""
        if self.tgt != other.src:
            raise InputError(
                f"cannot compose {self.src}->{self.tgt} with {other.src}->{other.tgt}"
            )
        mapping = tuple(
            other.mapping[j] if j is not None else None for j in self.mapping
        )
        return _injection(self.src, other.tgt, mapping)

    def dagger(self) -> "PartialInjection":
        mapping: list[Optional[int]] = [None] * self.tgt
        for i, j in enumerate(self.mapping):
            if j is not None:
                mapping[j] = i
        return _injection(self.tgt, self.src, tuple(mapping))

    def __repr__(self) -> str:
        return f"PartialInjection({self.src}, {self.tgt}, pairs={self.pairs})"


def _injection(
    src: int, tgt: int, mapping: tuple[Optional[int], ...]
) -> PartialInjection:
    """A partial injection computed from valid ones, built without validation."""
    out = object.__new__(PartialInjection)
    object.__setattr__(out, "src", src)
    object.__setattr__(out, "tgt", tgt)
    object.__setattr__(out, "mapping", mapping)
    return out


def verify_inverse_category_laws(
    f: PartialInjection, g: PartialInjection
) -> tuple[bool, bool]:
    """The two laws making daggers here genuine inverses.

    For parallel f and g, returns (regular, projections_commute): each
    map is regular over its dagger (f f-dagger f = f), and the domain
    projections f f-dagger and g g-dagger commute, each equation decided
    by :class:`PInjInstance`'s equality.  Both always hold for partial
    injections; exposed as a check rather than an assumption.
    """
    if (f.src, f.tgt) != (g.src, g.tgt):
        raise InputError("maps must be parallel")
    p = f.compose(f.dagger())
    q = g.compose(g.dagger())
    eq = _PINJ.equals
    regular = eq(p.compose(f), f) and eq(q.compose(g), g)
    return regular, eq(p.compose(q), q.compose(p))


class PInjInstance(DaggerInstance):
    """Partial injections: exact, and every dagger is the inverse."""

    name = "pinj"

    def __init__(self) -> None:
        super().__init__(Tolerance.exact())

    def compose2(self, f: PartialInjection, g: PartialInjection) -> PartialInjection:
        return f.compose(g)

    def dagger(self, f: PartialInjection) -> PartialInjection:
        return f.dagger()

    def identity(self, obj: int) -> PartialInjection:
        return PartialInjection.identity(obj)

    def source(self, f: PartialInjection) -> int:
        return f.src

    def target(self, f: PartialInjection) -> int:
        return f.tgt

    def deviation(self, f: PartialInjection, g: PartialInjection) -> float:
        if (f.src, f.tgt) != (g.src, g.tgt):
            raise InputError(
                f"cannot compare {f.src}->{f.tgt} with {g.src}->{g.tgt}"
            )
        if f.mapping == g.mapping:
            return 0.0
        return float(
            sum(a != b for a, b in zip(f.mapping, g.mapping))
        )

    def mp(self, f: PartialInjection) -> PartialInjection:
        return f.dagger()


_PINJ = PInjInstance()


def pinj_to_obj(f: PartialInjection) -> dict:
    return {"src": f.src, "tgt": f.tgt, "map": [[i, j] for i, j in f.pairs]}


def pinj_from_obj(obj: Any) -> PartialInjection:
    return PartialInjection.from_pairs(*pairs_from_obj(obj, "partial injection", "map"))
