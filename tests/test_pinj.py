"""Partial injections: the instance where the dagger is always the inverse."""

import itertools
import json

import numpy as np
import pytest

from conftest import all_partial_injections, random_partial_injection
from daggermp import (
    CapabilityError,
    FiniteRelation,
    InputError,
    PartialInjection,
    PInjInstance,
    RelInstance,
    pinj_from_obj,
    pinj_to_obj,
    verify_inverse_category_laws,
    verify_mp,
)


def test_validation():
    with pytest.raises(InputError):
        PartialInjection(2, 2, (0, 0))  # target hit twice
    with pytest.raises(InputError):
        PartialInjection(1, 2, (5,))
    with pytest.raises(InputError):
        PartialInjection(2, 2, (0,))
    with pytest.raises(InputError):
        PartialInjection.from_pairs(2, 2, [(0, 0), (0, 1)])  # source reused
    f = PartialInjection(2, 3, (2, None))
    assert f.pairs == [(0, 2)]


def test_compose_and_dagger_frozen():
    f = PartialInjection(1, 2, (1,))
    assert f.dagger() == PartialInjection(2, 1, (None, 0))
    assert f.dagger().dagger() == f
    # f then its reversal is the identity on the defined part
    assert f.compose(f.dagger()) == PartialInjection.identity(1)

    g = PartialInjection(2, 1, (0, None))
    assert f.compose(g) == PartialInjection(1, 1, (None,))  # lands off-domain
    with pytest.raises(InputError):
        g.compose(g)


def test_permutations_compose_to_identity(pinj_inst):
    rng = np.random.default_rng(113)
    for _ in range(30):
        n = int(rng.integers(0, 7))
        perm = list(range(n))
        rng.shuffle(perm)
        f = PartialInjection(n, n, tuple(perm))
        assert pinj_inst.compose(f, f.dagger()) == PartialInjection.identity(n)
        assert pinj_inst.compose(f.dagger(), f) == PartialInjection.identity(n)


def test_dagger_reverses_composition():
    rng = np.random.default_rng(127)
    for _ in range(100):
        n, k, m = (int(x) for x in rng.integers(0, 6, 3))
        f = random_partial_injection(rng, n, k)
        g = random_partial_injection(rng, k, m)
        assert f.compose(g).dagger() == g.dagger().compose(f.dagger())


def test_dagger_is_mp_inverse_exhaustively(pinj_inst):
    for src in range(4):
        for tgt in range(4):
            for f in all_partial_injections(src, tgt):
                report = verify_mp(pinj_inst, f, f.dagger())
                assert report.all_hold
                assert report.residuals == (0.0, 0.0, 0.0, 0.0)


def test_dagger_is_mp_inverse_random_larger(pinj_inst):
    rng = np.random.default_rng(131)
    for _ in range(200):
        n, m = (int(x) for x in rng.integers(0, 8, 2))
        f = random_partial_injection(rng, n, m)
        assert verify_mp(pinj_inst, f, pinj_inst.mp(f)).all_hold


def test_inverse_category_laws_exhaustively():
    for src, tgt in ((2, 2), (2, 3), (3, 3)):
        maps = list(all_partial_injections(src, tgt))
        for f, g in itertools.product(maps, repeat=2):
            regular, commute = verify_inverse_category_laws(f, g)
            assert regular and commute, (f, g)


def test_inverse_category_laws_form_each_projection_once(monkeypatch):
    maps = list(all_partial_injections(2, 3))
    original = PartialInjection.dagger
    formed = []

    def counted(self):
        formed.append(self)
        return original(self)

    monkeypatch.setattr(PartialInjection, "dagger", counted)
    for f, g in itertools.product(maps, repeat=2):
        formed.clear()
        assert verify_inverse_category_laws(f, g) == (True, True)
        assert formed == [f, g]


def test_inverse_category_laws_require_parallel_maps():
    f = PartialInjection(2, 2, (0, 1))
    g = PartialInjection(2, 3, (0, 1))
    with pytest.raises(InputError):
        verify_inverse_category_laws(f, g)


def test_instance_deviation_and_capabilities(pinj_inst):
    a = PartialInjection(3, 3, (0, 1, None))
    b = PartialInjection(3, 3, (0, 2, None))
    assert pinj_inst.deviation(a, b) == 1.0
    assert pinj_inst.equals(a, a)
    assert not pinj_inst.equals(a, b)
    with pytest.raises(InputError):
        pinj_inst.deviation(a, PartialInjection(2, 3, (0, 1)))
    with pytest.raises(CapabilityError):
        pinj_inst.split_with_kernel(a)
    with pytest.raises(CapabilityError):
        pinj_inst.zero(2, 2)
    with pytest.raises(CapabilityError):
        pinj_inst.positive_part(a)


def test_json_round_trip():
    f = PartialInjection(3, 2, (1, None, 0))
    obj = pinj_to_obj(f)
    assert obj == {"src": 3, "tgt": 2, "map": [[0, 1], [2, 0]]}
    assert pinj_from_obj(json.loads(json.dumps(obj))) == f


def test_json_rejects_malformed_objects():
    with pytest.raises(InputError):
        pinj_from_obj("nope")
    with pytest.raises(InputError):
        pinj_from_obj({"src": 2, "tgt": 2})
    with pytest.raises(InputError):
        pinj_from_obj({"src": 2, "tgt": 2, "map": [], "extra": 0})
    with pytest.raises(InputError):
        pinj_from_obj({"src": 2, "tgt": 2, "map": [[0, 0, 0]]})
    with pytest.raises(InputError):
        pinj_from_obj({"src": 2, "tgt": 2, "map": [[0, 0], [1, 0]]})
    with pytest.raises(InputError):
        pinj_from_obj({"src": True, "tgt": 2, "map": []})
    with pytest.raises(InputError):
        pinj_from_obj({"src": 2, "tgt": 2, "map": [[False, True]]})


@pytest.mark.parametrize(
    "args", [(2, 2, (True, None)), (True, 1, (None,)), (1, True, (None,))]
)
def test_bools_are_not_points(args):
    # pinj_from_obj rejects JSON true, so a bool here would serialize to
    # output that the parser refuses.
    with pytest.raises(InputError):
        PartialInjection(*args)


def rebuilt(f):
    """f through the public constructor, which must accept it unchanged."""
    assert type(f) is PartialInjection
    out = PartialInjection(f.src, f.tgt, f.mapping)
    assert out == f and hash(out) == hash(f)
    return out


def test_composites_and_daggers_pass_the_public_checks():
    sizes = range(4)
    maps = {(s, t): list(all_partial_injections(s, t)) for s in sizes for t in sizes}
    for (a, b), left in maps.items():
        for f in left:
            rebuilt(f.dagger())
        for c in sizes:
            for g in maps[b, c]:
                for f in left:
                    rebuilt(f.compose(g))


@pytest.mark.parametrize(
    "method, args",
    [
        ("identity", (-1,)),
        ("identity", (True,)),
        ("identity", (2.0,)),
        ("from_pairs", (-1, 2, [])),
        ("from_pairs", (2, True, [])),
        ("from_pairs", (2, 2, [(0, 2)])),
        ("from_pairs", (2, 2, [(2, 0)])),
        ("from_pairs", (2, 2, [(True, 0)])),
        ("from_pairs", (2, 2, [(0, 1, 2)])),
        ("from_pairs", (2, 2, [(0,)])),
        ("from_pairs", (2, 2, [5])),
        ("from_pairs", (2, 2, 5)),
        ("from_pairs", (2, 2, [(0, 1), (1, 1)])),
        ("new", (2, 2, (1, 1))),
        ("new", (2, 2, (0, -1))),
        ("new", (2, 2, [0, 1])),
    ],
    ids=str,
)
def test_public_constructors_reject_bad_arguments(method, args):
    build = getattr(PartialInjection, method, PartialInjection)
    with pytest.raises(InputError):
        build(*args)


def test_the_graph_functor_carries_the_inverse_to_the_relation_inverse():
    # The graph of a partial injection is a difunctional relation, and a
    # dagger functor carries M-P inverses to M-P inverses: RelInstance.mp
    # of the graph is the graph of PInjInstance.mp, on every partial
    # injection with both sides up to 3.
    rel, pinj = RelInstance(), PInjInstance()
    count = 0
    for src, tgt in itertools.product(range(4), repeat=2):
        for f in all_partial_injections(src, tgt):
            g = pinj.mp(f)
            graph = FiniteRelation.from_pairs(src, tgt, f.pairs)
            assert rel.mp(graph) == FiniteRelation.from_pairs(tgt, src, g.pairs)
            count += 1
    assert count == 90
