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
through their set of equivalence classes (:func:`split_per`), which is
what the compact-decomposition construction for difunctional relations
(:func:`gcsvd_rel`) is made of.
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
    is_plain_int,
)

BRUTE_FORCE_LIMIT = 16  # max src*tgt for the exhaustive candidate scan


@dataclass(frozen=True)
class FiniteRelation:
    """Relation src -> tgt; bit j of rows[i] set iff (i, j) related."""

    src: int
    tgt: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if not is_plain_int(self.src) or not is_plain_int(self.tgt):
            raise InputError("relation endpoints must be ints")
        if self.src < 0 or self.tgt < 0:
            raise InputError("relation endpoints must be nonnegative")
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
        rows = [0] * src
        for i, j in pairs:
            if not (0 <= i < src and 0 <= j < tgt):
                raise InputError(f"pair ({i}, {j}) out of range for {src} -> {tgt}")
            rows[i] |= 1 << j
        return cls(src, tgt, tuple(rows))

    @classmethod
    def identity(cls, n: int) -> "FiniteRelation":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def empty(cls, src: int, tgt: int) -> "FiniteRelation":
        return cls(src, tgt, (0,) * src)

    @classmethod
    def full(cls, src: int, tgt: int) -> "FiniteRelation":
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
        if not (0 <= i < self.src and 0 <= j < self.tgt):
            raise InputError(f"({i}, {j}) out of range for {self.src} -> {self.tgt}")
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
        return FiniteRelation(self.tgt, self.src, tuple(rows))

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
        return FiniteRelation(self.src, other.tgt, tuple(rows))

    def __repr__(self) -> str:
        return f"FiniteRelation({self.src}, {self.tgt}, pairs={self.pairs})"


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
    return FiniteRelation(r.tgt, r.src, tuple(int(row[code]) for row in grid))


def split_per(e: FiniteRelation) -> FiniteRelation:
    """Membership relation of a partial equivalence relation's classes.

    For symmetric idempotent e on n points, returns mem : n -> k sending
    each point in e's domain to its equivalence class, classes ordered
    by least member.  Then mem . converse(mem) == e exactly and
    converse(mem) . mem is the identity on k points.
    """
    if e.src != e.tgt:
        raise InputError("only endo-relations can be split")
    if e.converse() != e or e.compose(e) != e:
        raise PreconditionError("relation is not a symmetric idempotent")
    classes: list[int] = []
    seen: set[int] = set()
    for row in e.rows:
        if row and row not in seen:
            seen.add(row)
            classes.append(row)
    index = {mask: c for c, mask in enumerate(classes)}
    rows = tuple(
        (1 << index[row]) if row else 0 for row in e.rows
    )
    mem = FiniteRelation(e.src, len(classes), rows)
    if mem.compose(mem.converse()) != e:
        raise ConsistencyError("class membership does not recompose the idempotent")
    if mem.converse().compose(mem) != FiniteRelation.identity(len(classes)):
        raise ConsistencyError("equivalence classes are not disjoint")
    return mem


def gcsvd_rel(
    r: FiniteRelation,
) -> tuple[FiniteRelation, FiniteRelation, FiniteRelation]:
    """Exact compact decomposition r = mem . d . s of a difunctional relation.

    mem : src -> X is the class membership of r.converse-composite on the
    source side (a coisometry), s : Y -> tgt the converse membership on
    the target side (an isometry), and d : X -> Y a bijection between
    the two class sets.
    """
    if not is_difunctional(r):
        raise PreconditionError("relation is not difunctional")
    mem_src = split_per(r.compose(r.converse()))
    mem_tgt = split_per(r.converse().compose(r))
    d = mem_src.converse().compose(r).compose(mem_tgt)
    s = mem_tgt.converse()
    x, y = d.src, d.tgt
    bijection = (
        x == y
        and all(row.bit_count() == 1 for row in d.rows)
        and d.converse().compose(d) == FiniteRelation.identity(y)
        and d.compose(d.converse()) == FiniteRelation.identity(x)
    )
    if not bijection:
        raise ConsistencyError("middle factor of a difunctional relation not a bijection")
    if mem_src.compose(d).compose(s) != r:
        raise ConsistencyError("compact factors do not recompose the relation")
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
        g = mp_inverse_rel(f)
        if g is None:
            zigzag = f.compose(f.converse()).compose(f)
            raise NoMPInverseError(
                "relation is not difunctional, so no inverse exists",
                residual=self.deviation(zigzag, f),
            )
        return g

    def split_idempotent(self, e: FiniteRelation) -> FiniteRelation:
        return split_per(e)


def rel_to_obj(r: FiniteRelation) -> dict:
    return {"src": r.src, "tgt": r.tgt, "pairs": [[i, j] for i, j in r.pairs]}


def rel_from_obj(obj: Any) -> FiniteRelation:
    if not isinstance(obj, dict):
        raise InputError("relation JSON must be an object")
    extra = set(obj) - {"src", "tgt", "pairs"}
    if extra:
        raise InputError(f"unexpected relation keys: {sorted(extra)}")
    try:
        src, tgt, pairs = obj["src"], obj["tgt"], obj["pairs"]
    except KeyError as exc:
        raise InputError(f"relation JSON missing key {exc.args[0]!r}") from None
    if not is_plain_int(src) or not is_plain_int(tgt):
        raise InputError("src and tgt must be integers")
    if not isinstance(pairs, list):
        raise InputError("pairs must be a list of [i, j] pairs")
    cleaned = []
    for entry in pairs:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(is_plain_int(x) for x in entry)
        ):
            raise InputError(f"bad relation pair: {entry!r}")
        cleaned.append((entry[0], entry[1]))
    return FiniteRelation.from_pairs(src, tgt, cleaned)
