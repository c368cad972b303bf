"""Finite relations: exact theory cross-checked against exhaustive search."""

import itertools
import json

import numpy as np
import pytest

from conftest import all_partial_injections, all_relations, random_relation
from daggermp import (
    ConsistencyError,
    DecompositionError,
    FiniteRelation,
    InputError,
    NoMPInverseError,
    PreconditionError,
    RelInstance,
    brute_force_mp,
    gcsvd_from_mp,
    gcsvd_intertwiners,
    gcsvd_rel,
    is_coisometry,
    is_difunctional,
    is_isometry,
    is_unitary,
    mp_from_gcsvd,
    mp_inverse_rel,
    rel_from_obj,
    rel_to_obj,
    split_per,
    verify_mp,
)
from daggermp.rel import _candidate_grid

R = FiniteRelation.from_pairs


def test_relation_validation():
    with pytest.raises(InputError):
        FiniteRelation(-1, 2, ())
    with pytest.raises(InputError):
        FiniteRelation(2, 2, (0,))  # one row missing
    with pytest.raises(InputError):
        FiniteRelation(1, 2, (4,))  # bit outside the target set
    with pytest.raises(InputError):
        R(2, 2, [(0, 5)])
    r = R(2, 3, [(0, 1), (1, 2)])
    assert r.has(0, 1) and not r.has(1, 1)
    with pytest.raises(InputError):
        r.has(2, 0)


@pytest.mark.parametrize("i, j", [("a", 0), (True, 1), (0, 1.0), (0, None), (-1, 0)])
def test_has_refuses_an_index_that_is_not_a_plain_int_in_range(i, j):
    with pytest.raises(InputError, match="out of range"):
        R(2, 3, [(0, 1), (1, 1)]).has(i, j)


def test_relation_algebra_basics():
    r = R(2, 3, [(0, 0), (0, 2), (1, 1)])
    assert r.converse().converse() == r
    assert sorted(r.converse().pairs) == [(0, 0), (1, 1), (2, 0)]
    eye = FiniteRelation.identity(3)
    assert r.compose(eye) == r
    assert FiniteRelation.identity(2).compose(r) == r
    with pytest.raises(InputError):
        r.compose(r)
    assert FiniteRelation.full(2, 2).pairs == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert FiniteRelation.empty(2, 2).pairs == []


def test_composition_associativity_random():
    rng = np.random.default_rng(103)
    for _ in range(100):
        a, b, c, d = (int(x) for x in rng.integers(0, 5, 4))
        f = random_relation(rng, a, b)
        g = random_relation(rng, b, c)
        h = random_relation(rng, c, d)
        assert f.compose(g).compose(h) == f.compose(g.compose(h))
        assert f.compose(g).converse() == g.converse().compose(f.converse())


def _difunctional_by_quadruples(r):
    # zig-zag closure spelled out pointwise, as an independent reference
    for i, j in r.pairs:
        for k, l in r.pairs:
            if r.has(k, j) and not r.has(i, l):
                return False
    return True


def test_difunctionality_examples():
    assert is_difunctional(FiniteRelation.full(3, 2))
    assert is_difunctional(FiniteRelation.empty(3, 2))
    assert is_difunctional(FiniteRelation.identity(4))
    assert not is_difunctional(R(2, 2, [(0, 0), (1, 0), (1, 1)]))


def test_difunctionality_matches_pointwise_definition():
    for src, tgt in ((2, 2), (2, 3), (3, 3)):
        for r in all_relations(src, tgt):
            assert is_difunctional(r) == _difunctional_by_quadruples(r), r


def test_mp_inverse_rel_is_converse_or_nothing():
    assert mp_inverse_rel(FiniteRelation.identity(2)) == FiniteRelation.identity(2)
    r = R(3, 2, [(0, 0), (1, 0), (2, 1)])
    assert mp_inverse_rel(r) == r.converse()
    assert mp_inverse_rel(R(2, 2, [(0, 0), (1, 0), (1, 1)])) is None


def test_mp_inverse_rel_forms_one_converse(monkeypatch):
    relations = list(all_relations(3, 3))
    expected = [
        r.converse() if r.compose(r.converse()).compose(r) == r else None
        for r in relations
    ]
    original = FiniteRelation.converse
    formed = []

    def counted(self):
        formed.append(self)
        return original(self)

    monkeypatch.setattr(FiniteRelation, "converse", counted)
    for r, want in zip(relations, expected):
        formed.clear()
        assert mp_inverse_rel(r) == want
        assert formed == [r]


def test_every_small_relation_gets_one_difunctionality_verdict():
    # is_difunctional, mp_inverse_rel, RelInstance.mp and the oracle agree,
    # and a refusal carries compare's deviation of r r° r from r.
    inst = RelInstance()
    shapes = [(src, tgt) for src in range(4) for tgt in range(4)] + [(2, 4), (4, 2)]
    refused = 0
    for src, tgt in shapes:
        for r in all_relations(src, tgt):
            conv = r.converse()
            eq = inst.compare(r.compose(conv).compose(r), r)
            want = conv if eq.ok else None
            assert is_difunctional(r) is eq.ok, r
            assert mp_inverse_rel(r) == want and brute_force_mp(r) == want, r
            if eq.ok:
                assert inst.mp(r) == conv, r
                continue
            refused += 1
            with pytest.raises(
                NoMPInverseError, match="relation is not difunctional, so no inverse exists"
            ) as err:
                inst.mp(r)
            assert err.value.residual == eq.deviation > 0.0, r
    assert refused > 0


def test_brute_force_matches_theory_exhaustively():
    for src, tgt in ((1, 1), (2, 2), (2, 3), (3, 2), (3, 3)):
        for r in all_relations(src, tgt):
            got = brute_force_mp(r)
            if is_difunctional(r):
                assert got == r.converse(), r
            else:
                assert got is None, r


def test_brute_force_matches_theory_random_4x4():
    rng = np.random.default_rng(107)
    for _ in range(200):
        r = random_relation(rng, 4, 4)
        got = brute_force_mp(r)
        if is_difunctional(r):
            assert got == r.converse(), r
        else:
            assert got is None, r


def test_brute_force_size_cap():
    with pytest.raises(InputError):
        brute_force_mp(FiniteRelation.empty(5, 4))
    # 4x4 = 16 sits exactly on the cap
    assert brute_force_mp(FiniteRelation.identity(4)) == FiniteRelation.identity(4)


def _reference_mp(f):
    # literal scan of every candidate against the four axioms, with only
    # compose and converse, as an independent reference for the oracle
    hits = []
    for g in all_relations(f.tgt, f.src):
        fg, gf = f.compose(g), g.compose(f)
        if (
            fg.compose(f) == f
            and gf.compose(g) == g
            and fg.converse() == fg
            and gf.converse() == gf
        ):
            hits.append(g)
    assert len(hits) <= 1, f
    return hits[0] if hits else None


def test_brute_force_matches_literal_scan_on_every_small_shape():
    shapes = [(s, t) for s in range(7) for t in range(7) if s * t <= 6]
    for src, tgt in shapes:
        for r in all_relations(src, tgt):
            assert brute_force_mp(r) == _reference_mp(r), r


@pytest.mark.parametrize("src, tgt", [(1, 16), (16, 1), (2, 8), (8, 2)])
def test_brute_force_matches_theory_at_the_mask_width(src, tgt):
    rng = np.random.default_rng(113 + src)
    cases = [
        FiniteRelation.empty(src, tgt),
        FiniteRelation.full(src, tgt),
        R(src, tgt, [(i, i) for i in range(min(src, tgt))]),
        R(src, tgt, [(src - 1, tgt - 1)]),
        R(src, tgt, [(0, tgt - 1), (src - 1, 0)]),
    ]
    cases += [random_relation(rng, src, tgt) for _ in range(6)]
    for r in cases:
        got = brute_force_mp(r)
        if is_difunctional(r):
            assert got == r.converse(), r
        else:
            assert got is None, r


TABLE_SHAPES = [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 4), (2, 8), (8, 2), (1, 16), (16, 1)]


@pytest.mark.parametrize("rows, cols", TABLE_SHAPES)
def test_candidate_tables_hold_one_bit_per_candidate(rows, cols):
    grid = _candidate_grid(rows, cols)
    assert _candidate_grid(rows, cols) is grid
    assert type(grid) is tuple and len(grid) == rows
    assert all(type(row) is tuple and len(row) == cols for row in grid)
    assert all(type(cell) is int for row in grid for cell in row)
    n = rows * cols
    assert all(0 <= cell < 1 << (1 << n) for row in grid for cell in row)
    rng = np.random.default_rng(127 + n)
    for c in [0, (1 << n) - 1] + [int(c) for c in rng.integers(0, 1 << n, 8)]:
        for i in range(rows):
            for j in range(cols):
                assert (grid[i][j] >> c) & 1 == (c >> (i * cols + j)) & 1, (c, i, j)


def test_two_passing_candidates_break_the_uniqueness_guard(monkeypatch):
    # Both codes of the 1x1 table relate 0 to 0, so the identity has two
    # inverses among the candidates.
    monkeypatch.setattr("daggermp.rel._candidate_grid", lambda rows, cols: ((0b11,),))
    with pytest.raises(ConsistencyError, match="2 distinct candidates"):
        brute_force_mp(FiniteRelation.identity(1))


def test_split_per_examples():
    assert split_per(FiniteRelation.identity(3)) == FiniteRelation.identity(3)

    mem = split_per(FiniteRelation.full(3, 3))
    assert mem == FiniteRelation(3, 1, (1, 1, 1))

    # one class {1} inside a two point set
    mem = split_per(R(2, 2, [(1, 1)]))
    assert mem == FiniteRelation(2, 1, (0, 1))

    mem = split_per(FiniteRelation.empty(2, 2))
    assert mem == FiniteRelation(2, 0, (0, 0))


def test_split_per_orders_classes_by_first_member():
    e = R(4, 4, [(0, 0), (0, 2), (2, 0), (2, 2), (1, 1), (1, 3), (3, 1), (3, 3)])
    mem = split_per(e)
    # class of 0 is column 0, class of 1 is column 1
    assert mem == FiniteRelation(4, 2, (1, 2, 1, 2))
    assert mem.compose(mem.converse()) == e
    assert mem.converse().compose(mem) == FiniteRelation.identity(2)


def test_split_per_rejections():
    with pytest.raises(InputError):
        split_per(FiniteRelation.empty(2, 3))
    with pytest.raises(PreconditionError):
        split_per(R(2, 2, [(0, 1)]))  # not symmetric
    with pytest.raises(PreconditionError):
        split_per(R(2, 2, [(0, 1), (1, 0)]))  # symmetric but not idempotent


def test_split_per_all_small_pers():
    for n in range(5):
        for e in all_relations(n, n):
            if e.converse() != e or e.compose(e) != e:
                continue
            mem = split_per(e)
            assert mem.compose(mem.converse()) == e
            assert mem.converse().compose(mem) == FiniteRelation.identity(mem.tgt)


def test_gcsvd_rel_identity():
    mem, d, s = gcsvd_rel(FiniteRelation.identity(2))
    eye = FiniteRelation.identity(2)
    assert mem == eye and d == eye and s == eye


def test_gcsvd_rel_block_example(rel_inst):
    r = R(3, 3, [(0, 0), (1, 0), (2, 1), (2, 2)])
    assert is_difunctional(r)
    mem, d, s = gcsvd_rel(r)
    assert mem == FiniteRelation(3, 2, (1, 1, 2))
    assert d == FiniteRelation.identity(2)
    assert s == FiniteRelation(2, 3, (1, 6))
    assert mem.compose(d).compose(s) == r
    assert is_coisometry(rel_inst, mem)
    assert is_isometry(rel_inst, s)
    assert is_unitary(rel_inst, d)


def test_gcsvd_rel_empty_relation():
    mem, d, s = gcsvd_rel(FiniteRelation.empty(2, 2))
    assert mem.tgt == 0 and d.src == d.tgt == 0 and s.src == 0


def test_gcsvd_rel_refuses_nondifunctional():
    with pytest.raises(
        PreconditionError, match="compact form needs an M-P pair: MP1 fails"
    ) as err:
        gcsvd_rel(R(2, 2, [(0, 0), (1, 0), (1, 1)]))
    assert err.value.residual == 1.0  # r r° r relates 0 to 1 as well


@pytest.mark.parametrize("mem, what, residual", [
    (FiniteRelation(2, 2, (1, 0)), "coisometry", 1.0),  # class 1 empty
    (FiniteRelation(2, 1, (1, 1)), "reconstruction", 2.0),  # one class for both
])
def test_gcsvd_rel_certifies_its_splits(mem, what, residual, monkeypatch):
    # gcsvd_rel takes the memberships from the split capability unchecked;
    # the compact-form equations refuse a wrong one, carrying the deviation.
    monkeypatch.setattr(RelInstance, "split_idempotent", lambda self, e: mem)
    with pytest.raises(
        DecompositionError, match=f"compact form: {what} equation fails"
    ) as err:
        gcsvd_rel(FiniteRelation.identity(2))
    assert err.value.residual == residual


def test_gcsvd_rel_all_small_difunctionals(rel_inst):
    for src, tgt in ((2, 2), (2, 3), (3, 3)):
        for r in all_relations(src, tgt):
            if not is_difunctional(r):
                continue
            mem, d, s = gcsvd_rel(r)
            assert mem.compose(d).compose(s) == r
            assert is_unitary(rel_inst, d)


def test_gcsvd_rel_is_the_generic_compact_form(rel_inst):
    shapes = [(a, b) for a in range(4) for b in range(4)] + [(2, 4), (4, 2)]
    seen = 0
    for r in (r for shape in shapes for r in all_relations(*shape)):
        if not is_difunctional(r):
            continue
        t = gcsvd_from_mp(rel_inst, r, r.converse())
        assert gcsvd_rel(r) == (t.r, t.d, t.s), r
        seen += 1
    assert seen == 433


def test_generic_compact_pipeline_matches_rel_construction(rel_inst):
    r = R(3, 3, [(0, 0), (1, 0), (2, 1), (2, 2)])
    triple = gcsvd_from_mp(rel_inst, r, r.converse())
    mem, d, s = gcsvd_rel(r)
    assert triple.r == mem and triple.d == d and triple.s == s
    assert triple.d_inv == d.converse()
    assert mp_from_gcsvd(rel_inst, triple) == r.converse()
    assert triple.residuals["reconstruction"] == 0.0


def test_compact_intertwiners_are_class_permutations(rel_inst):
    r = R(4, 4, [(0, 1), (1, 1), (2, 2), (3, 3)])
    t1 = gcsvd_from_mp(rel_inst, r, r.converse())
    k = t1.d.src
    # same factorization with the middle classes cyclically relabeled
    perm = FiniteRelation.from_pairs(k, k, [(i, (i + 1) % k) for i in range(k)])
    t2 = type(t1)(
        t1.r.compose(perm),
        perm.converse().compose(t1.d),
        t1.s,
        t1.d_inv.compose(perm),
        t1.residuals,
    )
    p, q = gcsvd_intertwiners(rel_inst, t1, t2)
    assert p == perm
    assert q == FiniteRelation.identity(k)
    assert is_unitary(rel_inst, p)


def test_rel_instance_errors(rel_inst):
    with pytest.raises(InputError):
        rel_inst.deviation(FiniteRelation.empty(2, 2), FiniteRelation.empty(2, 3))
    with pytest.raises(NoMPInverseError) as exc:
        rel_inst.mp(R(2, 2, [(0, 0), (1, 0), (1, 1)]))
    assert exc.value.residual == 1.0
    with pytest.raises(InputError):
        split_per(FiniteRelation.empty(2, 3))
    with pytest.raises(PreconditionError):
        split_per(R(2, 2, [(0, 1)]))


def test_rel_deviation_counts_disagreeing_pairs(rel_inst):
    a = R(2, 2, [(0, 0), (1, 1)])
    b = R(2, 2, [(0, 0), (0, 1)])
    assert rel_inst.deviation(a, b) == 2.0
    assert rel_inst.equals(a, a)
    assert not rel_inst.equals(a, b)


def test_exact_deviations_count_every_pair_exhaustively(rel_inst, pinj_inst):
    # Equal and unequal morphisms both: the equal ones take the early return.
    rels = list(all_relations(2, 2))
    for a, b in itertools.product(rels, repeat=2):
        assert rel_inst.deviation(a, b) == len(set(a.pairs) ^ set(b.pairs))
    # A partial injection's deviation counts the source points whose
    # images differ, each named once by the differing pairs.
    maps = list(all_partial_injections(2, 3))
    for a, b in itertools.product(maps, repeat=2):
        differ = {i for i, _ in set(a.pairs) ^ set(b.pairs)}
        assert pinj_inst.deviation(a, b) == len(differ)


def test_verify_mp_exact_for_difunctionals(rel_inst):
    rng = np.random.default_rng(109)
    seen = 0
    for _ in range(300):
        r = random_relation(rng, 4, 3)
        if not is_difunctional(r):
            continue
        seen += 1
        report = verify_mp(rel_inst, r, r.converse())
        assert report.all_hold and report.residuals == (0.0, 0.0, 0.0, 0.0)
    assert seen > 20


def test_json_round_trip():
    r = R(3, 2, [(0, 1), (2, 0)])
    obj = rel_to_obj(r)
    assert obj == {"src": 3, "tgt": 2, "pairs": [[0, 1], [2, 0]]}
    assert rel_from_obj(json.loads(json.dumps(obj))) == r


def test_json_rejects_malformed_objects():
    with pytest.raises(InputError):
        rel_from_obj([1])
    with pytest.raises(InputError):
        rel_from_obj({"src": 2, "tgt": 2})
    with pytest.raises(InputError):
        rel_from_obj({"src": 2, "tgt": 2, "pairs": [], "rows": 1})
    with pytest.raises(InputError):
        rel_from_obj({"src": "2", "tgt": 2, "pairs": []})
    with pytest.raises(InputError):
        rel_from_obj({"src": 2, "tgt": 2, "pairs": [[0]]})
    with pytest.raises(InputError):
        rel_from_obj({"src": 2, "tgt": 2, "pairs": [[0, 9]]})
    with pytest.raises(InputError):
        rel_from_obj({"src": 2, "tgt": True, "pairs": []})
    with pytest.raises(InputError):
        rel_from_obj({"src": 2, "tgt": 2, "pairs": [[True, 0]]})


@pytest.mark.parametrize("args", [(True, 1, (1,)), (1, True, (1,)), (1, 1, (True,))])
def test_bools_are_not_endpoints_or_rows(args):
    # rel_from_obj rejects JSON true, so a bool here would serialize to
    # output that the parser refuses.
    with pytest.raises(InputError):
        FiniteRelation(*args)


# Relations with src * tgt <= 6, the empty shapes 0 x k and k x 0 included.
SMALL_SHAPES = [(s, t) for s in range(7) for t in range(7) if s * t <= 6]


def rebuilt(r):
    """r through the public constructor, which must accept it unchanged."""
    assert type(r) is FiniteRelation
    out = FiniteRelation(r.src, r.tgt, r.rows)
    assert out == r and hash(out) == hash(r)
    return out


def test_composites_and_converses_pass_the_public_checks():
    small = {shape: list(all_relations(*shape)) for shape in SMALL_SHAPES}
    for (a, b), left in small.items():
        for r in left:
            rebuilt(r.converse())
        for c in range(7):
            for s in small.get((b, c), ()):
                for r in left:
                    rebuilt(r.compose(s))


def test_split_gcsvd_and_oracle_outputs_pass_the_public_checks():
    for r in (r for shape in SMALL_SHAPES + [(3, 3)] for r in all_relations(*shape)):
        g = brute_force_mp(r)
        if g is None:
            continue
        rebuilt(g)
        for factor in gcsvd_rel(r):
            rebuilt(factor)
        if r.src == r.tgt and r.converse() == r and r.compose(r) == r:
            rebuilt(split_per(r))


@pytest.mark.parametrize(
    "method, args",
    [
        ("identity", (-1,)),
        ("identity", (True,)),
        ("identity", (2.0,)),
        ("empty", (-1, 2)),
        ("empty", (2, True)),
        ("full", (1, -1)),
        ("full", (True, 1)),
        ("from_pairs", (-1, 2, [])),
        ("from_pairs", (2, 2, [(0, 2)])),
        ("from_pairs", (2, 2, [(-1, 0)])),
        ("from_pairs", (2, 2, [(True, 0)])),
        ("from_pairs", (2, 2, [(0, 1, 2)])),
        ("from_pairs", (2, 2, [(0,)])),
        ("from_pairs", (2, 2, [5])),
        ("from_pairs", (2, 2, 5)),
        ("from_pairs", (2, 2, [(0, 1.0)])),
        ("new", (2, 2, (0, 4))),
        ("new", (2, 2, (0, -1))),
        ("new", (2, 2, [0, 1])),
    ],
    ids=str,
)
def test_public_constructors_reject_bad_arguments(method, args):
    build = getattr(FiniteRelation, method, FiniteRelation)
    with pytest.raises(InputError):
        build(*args)
