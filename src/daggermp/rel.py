"""Finite relations as a dagger category with exact arithmetic.

A relation between finite sets {0..src-1} and {0..tgt-1} is stored as
one bitmask per source element, so composition is a few integer ORs and
every comparison is exact.  The dagger is the converse.  A relation has
a Moore-Penrose inverse precisely when it is difunctional (zig-zag
closed), and then the inverse is the converse; :func:`brute_force_mp`
checks that equivalence from the other side by testing every candidate
relation at small sizes at once, one bit of a Python int per candidate.
Nothing here uses numpy.

Symmetric idempotents here are partial equivalence relations; they split
through their set of equivalence classes (:func:`split_per`).  The
compact decomposition of a difunctional relation (:func:`gcsvd_rel`) is
the generic :func:`~daggermp.decomp.gcsvd_from_mp`, made of two such
splits and certified by its compact-form equations.
"""

from __future__ import annotations

import functools
from typing import Any, Iterable, Optional

from .core import (
    ConsistencyError,
    DaggerInstance,
    Equation,
    InputError,
    NoMPInverseError,
    Tolerance,
    _Value,
    _certify,
    _refuse,
    check_sizes,
    is_plain_int,
    pair_items,
    pairs_from_obj,
    split,
)

BRUTE_FORCE_LIMIT = 16  # max src*tgt for the exhaustive candidate scan


class FiniteRelation(_Value):
    """Relation src -> tgt; bit j of rows[i] set iff (i, j) related.

    ``FiniteRelation(src, tgt, rows)`` and :meth:`from_pairs` validate
    outside input and raise InputError: plain nonnegative int endpoints,
    a tuple of one row per source point, each row a plain int bitmask
    below 2^tgt.  :meth:`identity`, :meth:`empty` and :meth:`full` check
    only their sizes.  Every relation the package builds (those three,
    :meth:`compose`, :meth:`converse`, :func:`split_per`,
    :func:`brute_force_mp`, and so the factors of :func:`gcsvd_rel`) is
    built by :func:`_relation`, which checks nothing.  Two relations are
    equal when their three fields are.
    """

    _fields = ("src", "tgt", "rows")

    def __init__(self, src: int, tgt: int, rows: tuple[int, ...]) -> None:
        check_sizes(src, tgt)
        if not isinstance(rows, tuple) or len(rows) != src:
            raise InputError("rows must be a tuple with one entry per source element")
        full = (1 << tgt) - 1
        for row in rows:
            if not is_plain_int(row) or row < 0 or row > full:
                raise InputError("row bitmask out of range for target size")
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "tgt", tgt)
        object.__setattr__(self, "rows", rows)

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
        return _relation(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def empty(cls, src: int, tgt: int) -> "FiniteRelation":
        check_sizes(src, tgt)
        return _relation(src, tgt, (0,) * src)

    @classmethod
    def full(cls, src: int, tgt: int) -> "FiniteRelation":
        check_sizes(src, tgt)
        return _relation(src, tgt, ((1 << tgt) - 1,) * src)

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
    return mp_inverse_rel(r) is not None


def mp_inverse_rel(r: FiniteRelation) -> Optional[FiniteRelation]:
    """Converse when r is difunctional, else None: the only possible inverse.

    The verdict is :meth:`RelInstance.mp`'s, read from the same
    measurement without raising.
    """
    conv, eq = _zig_zag(_REL, r)
    return conv if eq.ok else None


def _zig_zag(inst: "RelInstance", r: FiniteRelation) -> tuple[FiniteRelation, Equation]:
    """The converse of r, and inst's record of r r° r against r.

    The package's one difunctionality rule: the converse is formed once,
    for the test and the answer, and nothing is raised.
    """
    conv = r.converse()
    return conv, inst.compare(r.compose(conv).compose(r), r)


@functools.lru_cache(maxsize=8)
def _candidate_grid(rows: int, cols: int) -> tuple[tuple[int, ...], ...]:
    """All 2^(rows*cols) relations rows -> cols, bit-sliced: one int per cell.

    Candidate c relates i to j iff bit (i*cols + j) of c is set, and bit
    c of entry [i][j] is that bit, so one int holds cell (i, j) of every
    candidate at once.  The entry of bit p repeats 2^p zeros then 2^p
    ones, built by doubling.  Ints are immutable, so the cache hands the
    same tables to every caller.
    """
    total = 1 << (rows * cols)
    cells = []
    for p in range(rows * cols):
        span = 2 << p
        acc = ((1 << (1 << p)) - 1) << (1 << p)
        while span < total:
            acc |= acc << span
            span <<= 1
        cells.append(acc)
    return tuple(tuple(cells[i * cols : (i + 1) * cols]) for i in range(rows))


def _union(cells, index) -> int:
    """OR of cells[k] over the k in index."""
    acc = 0
    for k in index:
        acc |= cells[k]
    return acc


def _asymmetric(sq) -> int:
    """Bit c set iff the square relation sq, one int per cell, differs from
    its converse in candidate c."""
    bad = 0
    for i in range(len(sq)):
        for j in range(i):
            bad |= sq[i][j] ^ sq[j][i]
    return bad


def brute_force_mp(r: FiniteRelation) -> Optional[FiniteRelation]:
    """Scan every relation tgt -> src for one satisfying all four axioms.

    Independent of the difunctionality theory: plain exhaustive search
    over the whole candidate set, bit-sliced (Biham, FSE 1997): bit c of
    every int below speaks for candidate g number c of
    :func:`_candidate_grid`, so each cell of f g, f g f, g f and g f g
    is a few ORs and ANDs of ints.  Each axiom in turn clears the
    candidates that fail it from the mask ``alive``: MP1 (f g f = f),
    the symmetry of f g, then of g f, then MP2 (g f g = g), and the
    scan returns None once none is left.  Sizes are capped at
    src*tgt <= 16 (65536 candidates).  Raises ConsistencyError if two
    distinct candidates pass, since verified inverses are unique.
    """
    if r.src * r.tgt > BRUTE_FORCE_LIMIT:
        raise InputError(
            f"brute force capped at src*tgt <= {BRUTE_FORCE_LIMIT}, "
            f"got {r.src}x{r.tgt}"
        )
    grid = _candidate_grid(r.tgt, r.src)  # grid[k][i]: g relates k to i
    gcols = [tuple(row[i] for row in grid) for i in range(r.src)]
    image = [[k for k in range(r.tgt) if (row >> k) & 1] for row in r.rows]
    preimage = [[i for i, row in enumerate(r.rows) if (row >> k) & 1] for k in range(r.tgt)]
    alive = (1 << (1 << (r.src * r.tgt))) - 1
    fg = [[_union(gcol, ks) for gcol in gcols] for ks in image]  # src -> src
    bad = 0
    for row, fg_row in zip(r.rows, fg):  # MP1
        for k, sources in enumerate(preimage):
            fgf = _union(fg_row, sources)
            if (row >> k) & 1:
                alive &= fgf
            else:
                bad |= fgf
    alive &= ~bad
    if not alive:
        return None
    alive &= ~_asymmetric(fg)
    if not alive:
        return None
    gf = [[_union(g_row, sources) for sources in preimage] for g_row in grid]  # tgt -> tgt
    alive &= ~_asymmetric(gf)
    if not alive:
        return None
    bad = 0
    for gf_row, g_row in zip(gf, grid):  # MP2, one row of g f g at a time
        for cell, gcol in zip(g_row, gcols):
            gfg = 0
            for a, b in zip(gf_row, gcol):
                gfg |= a & b
            bad |= gfg ^ cell
        if not alive & ~bad:
            return None
    alive &= ~bad
    if alive & (alive - 1):
        raise ConsistencyError(
            f"{alive.bit_count()} distinct candidates satisfy the axioms for {r!r}; "
            "inverses must be unique"
        )
    code = alive.bit_length() - 1
    rows = tuple(sum(((cell >> code) & 1) << i for i, cell in enumerate(g)) for g in grid)
    return _relation(r.tgt, r.src, rows)


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

    :func:`~daggermp.decomp.gcsvd_from_mp` on a :class:`RelInstance`
    with the converse as inverse.  mem : src -> X sends each source
    point to its class of r r° (a coisometry), s : Y -> tgt is the
    converse membership of r° r (an isometry), and d : X -> Y is a
    bijection between the two class sets.  A relation that is not
    difunctional raises PreconditionError; a failing compact-form
    equation raises DecompositionError, each carrying the deviation.

    ``decomp`` is imported by the first call, so that the other relation
    commands do not load it, and kept in ``_decomp``: an import
    statement run on every call costs 1-3 µs, 2-5 % of the call.
    """
    global _decomp
    if _decomp is None:
        from . import decomp as _decomp
    t = _decomp.gcsvd_from_mp(RelInstance(), r, r.converse())
    return t.r, t.d, t.s


_decomp = None  # daggermp.decomp, once gcsvd_rel has imported it


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
        if f.rows == g.rows:
            return 0.0
        return float(
            sum((a ^ b).bit_count() for a, b in zip(f.rows, g.rows))
        )

    def mp(self, f: FiniteRelation) -> FiniteRelation:
        """The converse of a difunctional f, certified for f as
        :func:`~daggermp.core.require_mp` certifies a pair: MP1 is the
        zig-zag equation measured here, and MP2-MP4 of a converse have its
        verdict by value (MP2 is its converse, MP3 and MP4 hold exactly)."""
        fc, eq = _zig_zag(self, f)
        if not eq.ok:
            _refuse(
                self, eq, NoMPInverseError,
                "relation is not difunctional, so no inverse exists",
            )
        return _certify(fc, self, f, attr="_mp_cert")

    def split_idempotent(self, e: FiniteRelation) -> FiniteRelation:
        """Each point of e's domain sent to its row, the class it lies in if
        e is a partial equivalence relation; unchecked, as
        :func:`~daggermp.core.split` and the compact form of
        :func:`~daggermp.decomp.gcsvd_from_mp` certify it."""
        index: dict[int, int] = {}
        for row in e.rows:
            if row:
                index.setdefault(row, len(index))
        rows = tuple((1 << index[row]) if row else 0 for row in e.rows)
        return _relation(e.src, len(index), rows)


_REL = RelInstance()


def rel_to_obj(r: FiniteRelation) -> dict:
    return {"src": r.src, "tgt": r.tgt, "pairs": [[i, j] for i, j in r.pairs]}


def rel_from_obj(obj: Any) -> FiniteRelation:
    return FiniteRelation.from_pairs(*pairs_from_obj(obj, "relation", "pairs"))
