"""Finite relations as a dagger category with exact arithmetic.

A relation between finite sets {0..src-1} and {0..tgt-1} is stored as
one bitmask per source element, so composition is a few integer ORs and
every comparison is exact.  The dagger is the converse.  A relation has
a Moore-Penrose inverse precisely when it is difunctional (zig-zag
closed), and then the inverse is the converse; :func:`brute_force_mp`
checks that equivalence from the other side by scanning every candidate
relation at small sizes, held as numpy arrays of row bitmasks.  The
oracle and its cached candidate table are the only code here that uses
numpy, and they import it themselves, so the rest of the module runs
without loading it.

Symmetric idempotents here are partial equivalence relations; they split
through their set of equivalence classes (:func:`split_per`), and the
compact decomposition of a difunctional relation (:func:`gcsvd_rel`) is
made of two such splits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Iterable, Optional

from .core import (
    ConsistencyError,
    DaggerInstance,
    InputError,
    NoMPInverseError,
    PreconditionError,
    Tolerance,
    check,
    check_sizes,
    is_plain_int,
    pair_items,
    pairs_from_obj,
    split,
)

BRUTE_FORCE_LIMIT = 16  # max src*tgt for the exhaustive candidate scan


@dataclass(frozen=True)
class FiniteRelation:
    """Relation src -> tgt; bit j of rows[i] set iff (i, j) related.

    ``FiniteRelation(src, tgt, rows)`` and the classmethods validate
    outside input and raise InputError: plain nonnegative int endpoints,
    a tuple of one row per source point, each row a plain int bitmask
    below 2^tgt.  Every relation the package computes from valid ones
    (:meth:`compose`, :meth:`converse`, :func:`split_per`,
    :func:`gcsvd_rel`, :func:`brute_force_mp`) is built by
    :func:`_relation` instead, which checks nothing.
    """

    src: int
    tgt: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        check_sizes(self.src, self.tgt)
        if not isinstance(self.rows, tuple) or len(self.rows) != self.src:
            raise InputError("rows must be a tuple with one entry per source element")
        full = (1 << self.tgt) - 1
        for row in self.rows:
            if not is_plain_int(row) or row < 0 or row > full:
                raise InputError("row bitmask out of range for target size")

    @classmethod
    def from_pairs(
        cls, src: int, tgt: int, pairs: Iterable[tuple[int, int]]
    ) -> "FiniteRelation":
        check_sizes(src, tgt)
        rows = [0] * src
        for i, j in pair_items(pairs):
            if not (is_plain_int(i) and is_plain_int(j)) or not (
                0 <= i < src and 0 <= j < tgt
            ):
                raise InputError(f"pair ({i!r}, {j!r}) out of range for {src} -> {tgt}")
            rows[i] |= 1 << j
        return cls(src, tgt, tuple(rows))

    @classmethod
    def identity(cls, n: int) -> "FiniteRelation":
        check_sizes(n)
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def empty(cls, src: int, tgt: int) -> "FiniteRelation":
        check_sizes(src, tgt)
        return cls(src, tgt, (0,) * src)

    @classmethod
    def full(cls, src: int, tgt: int) -> "FiniteRelation":
        check_sizes(src, tgt)
        return cls(src, tgt, ((1 << tgt) - 1,) * src)

    @property
    def pairs(self) -> list[tuple[int, int]]:
        return [
            (i, j)
            for i in range(self.src)
            for j in range(self.tgt)
            if (self.rows[i] >> j) & 1
        ]

    def has(self, i: int, j: int) -> bool:
        if not (is_plain_int(i) and is_plain_int(j)) or not (
            0 <= i < self.src and 0 <= j < self.tgt
        ):
            raise InputError(f"({i!r}, {j!r}) out of range for {self.src} -> {self.tgt}")
        return bool((self.rows[i] >> j) & 1)

    def converse(self) -> "FiniteRelation":
        rows = [0] * self.tgt
        for i, row in enumerate(self.rows):
            j = 0
            while row:
                if row & 1:
                    rows[j] |= 1 << i
                row >>= 1
                j += 1
        return _relation(self.tgt, self.src, tuple(rows))

    def compose(self, other: "FiniteRelation") -> "FiniteRelation":
        """self then other (source side first)."""
        if self.tgt != other.src:
            raise InputError(
                f"cannot compose {self.src}->{self.tgt} with {other.src}->{other.tgt}"
            )
        rows = []
        for row in self.rows:
            acc = 0
            j = 0
            while row:
                if row & 1:
                    acc |= other.rows[j]
                row >>= 1
                j += 1
            rows.append(acc)
        return _relation(self.src, other.tgt, tuple(rows))

    def __repr__(self) -> str:
        return f"FiniteRelation({self.src}, {self.tgt}, pairs={self.pairs})"


def _relation(src: int, tgt: int, rows: tuple[int, ...]) -> FiniteRelation:
    """A relation computed from valid ones, built without validation."""
    out = object.__new__(FiniteRelation)
    object.__setattr__(out, "src", src)
    object.__setattr__(out, "tgt", tgt)
    object.__setattr__(out, "rows", rows)
    return out


def is_difunctional(r: FiniteRelation) -> bool:
    """True iff r . converse(r) . r == r (zig-zag closed)."""
    return r.compose(r.converse()).compose(r) == r


def mp_inverse_rel(r: FiniteRelation) -> Optional[FiniteRelation]:
    """Converse when r is difunctional, else None: the only possible inverse."""
    return r.converse() if is_difunctional(r) else None


@functools.lru_cache(maxsize=8)
def _candidate_grid(rows: int, cols: int):
    """All 2^(rows*cols) relations rows -> cols, one uint16 array per row.

    Entry c of array i is the bitmask of row i of the relation whose
    code c has bit (i*cols + j) set iff (i, j) is related.  The arrays
    are read-only, as the cache hands the same ones to every caller.
    """
    import numpy as np

    codes = np.arange(1 << (rows * cols), dtype=np.uint32)
    mask = (1 << cols) - 1
    grid = tuple(
        ((codes >> (i * cols)) & mask).astype(np.uint16) for i in range(rows)
    )
    for row in grid:
        row.setflags(write=False)
    return grid


def brute_force_mp(r: FiniteRelation) -> Optional[FiniteRelation]:
    """Scan every relation tgt -> src for one satisfying all four axioms.

    Independent of the difunctionality theory: plain exhaustive search
    over the whole candidate stack, each candidate g held as tgt row
    bitmasks.  f g ORs g's rows over each row of f; g f and f g f look
    rows up in the table of unions of f's rows.  MP1 (f g f = f) runs on
    every candidate, and the two symmetries and MP2 (g f g = g) on the
    ones that pass it.  Sizes are capped at src*tgt <= 16 (65536
    candidates).  Raises ConsistencyError if two distinct candidates
    pass, since verified inverses are unique.
    """
    import numpy as np

    if r.src * r.tgt > BRUTE_FORCE_LIMIT:
        raise InputError(
            f"brute force capped at src*tgt <= {BRUTE_FORCE_LIMIT}, "
            f"got {r.src}x{r.tgt}"
        )
    grid = _candidate_grid(r.tgt, r.src)
    n = 1 << (r.src * r.tgt)
    # unions[m] = union of the rows of f over the source points in mask m
    unions = np.zeros(1, dtype=np.uint16)
    for row in r.rows:
        unions = np.concatenate((unions, unions | row))
    fg = []                              # rows of f g : src -> src
    for row in r.rows:
        acc = np.zeros(n, dtype=np.uint16)
        for j in range(r.tgt):
            if (row >> j) & 1:
                acc |= grid[j]
        fg.append(acc)
    regular_f = np.ones(n, dtype=bool)  # MP1 on every candidate
    for acc, row in zip(fg, r.rows):
        regular_f &= unions[acc] == row
    keep = np.flatnonzero(regular_f)
    g = [row[keep] for row in grid]
    fg = [acc[keep] for acc in fg]
    gf = [unions[row] for row in g]      # rows of g f : tgt -> tgt
    # on MP1's survivors: f g and g f symmetric, and MP2
    ok = np.ones(len(keep), dtype=bool)
    for sq in (fg, gf):
        for i in range(len(sq)):
            for j in range(i):
                ok &= ((sq[i] >> j) & 1) == ((sq[j] >> i) & 1)
    for acc, row in zip(gf, g):
        gfg = np.zeros(len(keep), dtype=np.uint16)
        for j in range(r.tgt):
            gfg |= g[j] * ((acc >> j) & 1)
        ok &= gfg == row
    hits = keep[ok]
    if len(hits) == 0:
        return None
    if len(hits) > 1:
        raise ConsistencyError(
            f"{len(hits)} distinct candidates satisfy the axioms for {r!r}; "
            "inverses must be unique"
        )
    code = int(hits[0])
    return _relation(r.tgt, r.src, tuple(int(row[code]) for row in grid))


def split_per(e: FiniteRelation) -> FiniteRelation:
    """Membership relation of a partial equivalence relation's classes.

    For symmetric idempotent e on n points, returns mem : n -> k sending
    each point in e's domain to its equivalence class, classes ordered
    by least member (:meth:`RelInstance.split_idempotent`).
    :func:`~daggermp.core.split` certifies it: e == converse(e),
    mem . converse(mem) == e and converse(mem) . mem the identity on k
    points, or PreconditionError; InputError unless e is an endo-relation.
    """
    return split(RelInstance(), e)


def gcsvd_rel(
    r: FiniteRelation,
) -> tuple[FiniteRelation, FiniteRelation, FiniteRelation]:
    """Exact compact decomposition r = mem . d . s of a difunctional relation.

    mem : src -> X is the class membership of r.converse-composite on the
    source side (a coisometry), s : Y -> tgt the converse membership on
    the target side (an isometry), and d : X -> Y a bijection between
    the two class sets.  A difunctional r makes r r° and r° r partial
    equivalence relations, so the memberships are
    :meth:`RelInstance.split_idempotent`, unchecked.  Each equation is
    checked by :func:`~daggermp.core.check` on a :class:`RelInstance`:
    r r° r = r (else PreconditionError), then d d° = 1, d° d = 1 and
    mem d s = r (else ConsistencyError), the refusal carrying the
    deviation.
    """
    inst = RelInstance()
    rc = r.converse()
    left = r.compose(rc)
    check(inst, left.compose(r), r, PreconditionError, "relation is not difunctional")
    mem_src = inst.split_idempotent(left)
    mem_tgt = inst.split_idempotent(rc.compose(r))
    d = mem_src.converse().compose(r).compose(mem_tgt)
    dc = d.converse()
    what = "middle factor of a difunctional relation not a bijection"
    check(inst, d.compose(dc), inst.identity(d.src), ConsistencyError, what)
    check(inst, dc.compose(d), inst.identity(d.tgt), ConsistencyError, what)
    s = mem_tgt.converse()
    check(
        inst, mem_src.compose(d).compose(s), r, ConsistencyError,
        "compact factors do not recompose the relation",
    )
    return mem_src, d, s


class RelInstance(DaggerInstance):
    """Finite relations: everything exact, tolerance zero."""

    name = "rel"

    def __init__(self) -> None:
        super().__init__(Tolerance.exact())

    def compose2(self, f: FiniteRelation, g: FiniteRelation) -> FiniteRelation:
        return f.compose(g)

    def dagger(self, f: FiniteRelation) -> FiniteRelation:
        return f.converse()

    def identity(self, obj: int) -> FiniteRelation:
        return FiniteRelation.identity(obj)

    def source(self, f: FiniteRelation) -> int:
        return f.src

    def target(self, f: FiniteRelation) -> int:
        return f.tgt

    def deviation(self, f: FiniteRelation, g: FiniteRelation) -> float:
        if (f.src, f.tgt) != (g.src, g.tgt):
            raise InputError(
                f"cannot compare {f.src}->{f.tgt} with {g.src}->{g.tgt}"
            )
        return float(
            sum((a ^ b).bit_count() for a, b in zip(f.rows, g.rows))
        )

    def mp(self, f: FiniteRelation) -> FiniteRelation:
        fc = f.converse()
        check(
            self, f.compose(fc).compose(f), f, NoMPInverseError,
            "relation is not difunctional, so no inverse exists",
        )
        return fc

    def split_idempotent(self, e: FiniteRelation) -> FiniteRelation:
        """Each point of e's domain sent to its row, the class it lies in if
        e is a partial equivalence relation; unchecked, as :func:`split_per`
        and :func:`gcsvd_rel` certify it."""
        index: dict[int, int] = {}
        for row in e.rows:
            if row:
                index.setdefault(row, len(index))
        rows = tuple((1 << index[row]) if row else 0 for row in e.rows)
        return _relation(e.src, len(index), rows)


def rel_to_obj(r: FiniteRelation) -> dict:
    return {"src": r.src, "tgt": r.tgt, "pairs": [[i, j] for i, j in r.pairs]}


def rel_from_obj(obj: Any) -> FiniteRelation:
    return FiniteRelation.from_pairs(*pairs_from_obj(obj, "relation", "pairs"))
