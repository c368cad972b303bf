"""Acceptance harness.

Nine checks the build must pass, run against the shared random corpus
and the exhaustive small-size enumerations.  Each test prints exactly
one verdict line (the suite runs unbuffered, so the lines land in the
terminal) and then asserts, so a red criterion is visible both ways.
"""

import itertools
import time

import numpy as np

from conftest import (
    CORPUS_SEED,
    PinnedScaleInstance,
    all_partial_injections,
    all_relations,
    rotated_root,
    uniform_complex,
)
from daggermp import (
    ComplexMatrix,
    FiniteRelation,
    PInjInstance,
    RelInstance,
    brute_force_mp,
    dagger_kernel,
    derived_identities_check,
    gcsvd_from_mp,
    gsvd_from_mp,
    has_mp_wrt_transpose,
    herm_mp,
    is_difunctional,
    iso_from_mp,
    mp_from_gcsvd,
    mp_from_gsvd,
    mp_from_iso,
    mp_from_polar,
    mp_via_gram,
    pinv,
    polar_from_mp,
    verify_inverse_category_laws,
    verify_mp,
)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"\nacceptance {num} ({name}): {verdict} [{detail}]")
    assert ok, f"acceptance {num} ({name}): {detail}"


def test_criterion_1_axiom_suite(matrix_corpus):
    start = time.perf_counter()
    worst = 0.0
    failures = 0
    for a in matrix_corpus:
        g = pinv(a)
        inst = PinnedScaleInstance(a.norm(), 1e-9)
        report = verify_mp(inst, a, g)
        if not report.all_hold:
            failures += 1
        bound = 1e-9 * max(1.0, a.norm())
        worst = max(worst, max(report.residuals) / bound)
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 10.0
    _report(
        1,
        "axiom suite",
        ok,
        f"{len(matrix_corpus)} cases, {failures} failures, "
        f"worst residual {worst:.2e} of bound, {elapsed:.1f}s < 10s",
    )


def test_criterion_2_route_agreement(matrix_corpus):
    start = time.perf_counter()
    worst = 0.0
    failures = 0
    for a in matrix_corpus:
        g = pinv(a)
        inst = PinnedScaleInstance(a.norm(), 1e-8)
        routes = [
            g,
            mp_via_gram(inst, a, lambda p: herm_mp(p)),
            mp_from_gcsvd(inst, gcsvd_from_mp(inst, a, g)),
            mp_from_gsvd(inst, gsvd_from_mp(inst, a, g)),
            mp_from_polar(inst, polar_from_mp(inst, a, g)),
        ]
        bound = 1e-8 * max(1.0, a.norm())
        for i in range(len(routes)):
            for j in range(i + 1, len(routes)):
                dev = float(np.linalg.norm(routes[i].array - routes[j].array))
                worst = max(worst, dev / bound)
                if dev > bound:
                    failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 30.0
    _report(
        2,
        "route agreement",
        ok,
        f"5 routes pairwise on {len(matrix_corpus)} cases, {failures} failures, "
        f"worst deviation {worst:.2e} of bound, {elapsed:.1f}s < 30s",
    )


def test_criterion_3_derived_identities(matrix_corpus):
    failures = 0
    for a in matrix_corpus:
        g = pinv(a)
        inst = PinnedScaleInstance(a.norm(), 1e-9)
        report = derived_identities_check(inst, a, g)
        if not report.all_hold:
            failures += 1
    ok = failures == 0
    _report(
        3,
        "derived identities",
        ok,
        f"10 identities on {len(matrix_corpus)} cases, {failures} failures",
    )


def test_criterion_4_relation_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(CORPUS_SEED)
    cases = list(all_relations(3, 3))
    for _ in range(1000):
        rows = tuple(int(x) for x in rng.integers(0, 16, 4))
        cases.append(FiniteRelation(4, 4, rows))
    mismatches = 0
    for r in cases:
        brute = brute_force_mp(r)
        if (brute is not None) != is_difunctional(r):
            mismatches += 1
        elif brute is not None and brute != r.converse():
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60.0
    _report(
        4,
        "relation oracle equivalence",
        ok,
        f"{len(cases)} relations (all 3x3 plus 1000 random 4x4), "
        f"{mismatches} mismatches, {elapsed:.1f}s < 60s",
    )


def test_criterion_5_transpose_dagger_gap():
    row_complex = ComplexMatrix.from_rows([[1j, 1]])
    row_real = ComplexMatrix.from_rows([[1, 1]])
    gap = has_mp_wrt_transpose(row_complex) is False
    real_ok = has_mp_wrt_transpose(row_real) is True
    ok = gap and real_ok
    _report(
        5,
        "transpose-dagger existence gap",
        ok,
        f"(i, 1) has inverse: {not gap}; (1, 1) has inverse: {real_ok}",
    )


def test_criterion_6_kernel_complement(matrix_corpus):
    worst = 0.0
    failures = 0
    for a in matrix_corpus:
        g = pinv(a)
        k = dagger_kernel(a).array
        c = dagger_kernel(a.dagger()).array
        n, m = a.rows, a.cols
        left = a.array @ g.array + k.conj().T @ k
        right = g.array @ a.array + c.conj().T @ c
        bound = 1e-9 * max(1.0, a.norm())
        dev = max(
            float(np.linalg.norm(left - np.eye(n))),
            float(np.linalg.norm(right - np.eye(m))),
        )
        worst = max(worst, dev / bound)
        if dev > bound:
            failures += 1
    ok = failures == 0
    _report(
        6,
        "kernel complements the range",
        ok,
        f"{len(matrix_corpus)} cases, {failures} failures, "
        f"worst deviation {worst:.2e} of bound",
    )


def test_criterion_7_karoubi_round_trip(matrix_corpus, rel_inst):
    failures = 0
    for a in matrix_corpus[:200]:
        g = pinv(a)
        inst = PinnedScaleInstance(a.norm(), 1e-9)
        fwd, bwd = iso_from_mp(inst, a, g)
        f2, g2 = mp_from_iso(inst, fwd, bwd)
        if not (inst.equals(f2, a) and inst.equals(g2, g)):
            failures += 1

    rel_count = 0
    for src, tgt in itertools.product(range(0, 5), repeat=2):
        for r in all_relations(src, tgt):
            if not is_difunctional(r):
                continue
            fwd, bwd = iso_from_mp(rel_inst, r, r.converse())
            f2, g2 = mp_from_iso(rel_inst, fwd, bwd)
            if not (f2 == r and g2 == r.converse()):
                failures += 1
            rel_count += 1
    ok = failures == 0
    _report(
        7,
        "invertibility round trip",
        ok,
        f"200 matrix cases and {rel_count} difunctional relations, "
        f"{failures} failures",
    )


class _RotatedRootInstance(PinnedScaleInstance):
    """Takes square roots in the basis rotated by the unitary w."""

    def __init__(self, pinned, eq_tol, w):
        super().__init__(pinned, eq_tol)
        self._w = w

    def sqrt_positive(self, p):
        return rotated_root(p, self._w)


def test_criterion_8_polar_invariants(matrix_corpus):
    rng = np.random.default_rng(CORPUS_SEED + 1)
    worst = 0.0
    failures = 0
    for a in matrix_corpus:
        g = pinv(a)
        inst = PinnedScaleInstance(a.norm(), 1e-8)
        bound = 1e-8 * max(1.0, a.norm())
        p1 = polar_from_mp(inst, a, g)
        dev = max(p1.residuals.values())

        # independent second pair: take the square root in a rotated basis
        m = a.cols
        w_q, _ = np.linalg.qr(uniform_complex(rng, m, m))
        p2 = polar_from_mp(_RotatedRootInstance(a.norm(), 1e-8, w_q), a, g)
        dev = max(
            dev,
            float(np.linalg.norm(p1.u.array - p2.u.array)),
            float(np.linalg.norm(p1.h.array - p2.h.array)),
        )
        worst = max(worst, dev / bound)
        if dev > bound:
            failures += 1
    ok = failures == 0
    _report(
        8,
        "polar invariants and uniqueness",
        ok,
        f"{len(matrix_corpus)} cases, two roots each, {failures} failures, "
        f"worst deviation {worst:.2e} of bound",
    )


def test_criterion_9_partial_injections_exhaustive(pinj_inst):
    map_count = 0
    pair_count = 0
    failures = 0
    for src, tgt in itertools.product(range(0, 4), repeat=2):
        maps = list(all_partial_injections(src, tgt))
        for f in maps:
            report = verify_mp(pinj_inst, f, f.dagger())
            if not (report.all_hold and report.residuals == (0.0, 0.0, 0.0, 0.0)):
                failures += 1
            map_count += 1
        for f, g in itertools.product(maps, maps):
            regular, commute = verify_inverse_category_laws(f, g)
            if not (regular and commute):
                failures += 1
            pair_count += 1
    ok = failures == 0
    _report(
        9,
        "partial injections exhaustive",
        ok,
        f"{map_count} maps, {pair_count} ordered pairs, sizes up to 3, "
        f"{failures} failures",
    )
