"""Shared corpora and helpers for the test suite.

The matrix corpus is seeded once and reused session-wide so the
acceptance timings exclude generation cost and every module sees the
same cases.
"""

import itertools

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from daggermp import (
    ComplexMatrix,
    FiniteRelation,
    MatrixInstance,
    PartialInjection,
    PInjInstance,
    RelInstance,
    Tolerance,
)

CORPUS_SEED = 20260816


def uniform_complex(rng, n, m):
    return rng.uniform(-1.0, 1.0, (n, m)) + 1j * rng.uniform(-1.0, 1.0, (n, m))


def seeded_product(seed, rows, cols, inner):
    """b c with b rows x inner and c inner x cols, from default_rng(seed).

    inner >= min(rows, cols) gives full rank, a smaller inner a
    rank-deficient product (inner 0: the zero matrix).
    """
    rng = np.random.default_rng(seed)
    return uniform_complex(rng, rows, inner) @ uniform_complex(rng, inner, cols)


@st.composite
def products(draw, tall, max_dim=12):
    """Seeded products of order up to max_dim (rows >= cols when tall)."""
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, rows if tall else max_dim))
    inner = draw(st.integers(0, max_dim))
    return seeded_product(draw(st.integers(0, 2**32 - 1)), rows, cols, inner)


# Exact phases: exp(2πik/4) has a real part of about 6e-17 at k = 1.
PHASES = (1, 1j, -1, -1j)


@st.composite
def monomials(draw, max_dim=8):
    """(a, p, w): a monomial matrix, its matching and its weights.

    p is a partial injection from the n rows to the m columns (each up to
    max_dim), w gives each matched pair (i, j) its weight, a phase of
    PHASES times 2**e with the exponents of one matrix spanning 0 to
    600, and a is the n x m complex array that is w on the pairs of p
    and 0 elsewhere.  Its inverse, singular values and rank at any
    cutoff are known exactly.
    """
    n, m = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    rows, cols = draw(st.permutations(range(n))), draw(st.permutations(range(m)))
    mapping = [None] * n
    for i, j in zip(rows[: draw(st.integers(0, min(n, m)))], cols):
        mapping[i] = j
    p = PartialInjection(n, m, tuple(mapping))
    span = draw(st.integers(0, 600))
    low = draw(st.integers(-300, 300 - span))
    w = {
        pair: draw(st.sampled_from(PHASES)) * 2.0 ** draw(st.integers(low, low + span))
        for pair in p.pairs
    }
    a = np.zeros((n, m), dtype=np.complex128)
    for pair, x in w.items():
        a[pair] = x
    return a, p, w


def hilbert(n):
    """The real n x n Hilbert matrix 1 / (i + j + 1)."""
    i = np.arange(n)
    return 1.0 / (i[:, None] + i[None, :] + 1.0)


def kahan(n, theta):
    """Kahan's upper triangle diag(s^i) (I - c U), s = sin θ, c = cos θ and
    U the strictly upper triangle of ones."""
    s, c = np.sin(theta), np.cos(theta)
    return np.diag(s ** np.arange(n)) @ (np.eye(n) - c * np.triu(np.ones((n, n)), 1))


def graded_columns(seed=2):
    """B diag(1e-120, 1e-60, 1, 1e60, 1e120), B 5 x 5 standard normal
    from default_rng(seed)."""
    b = np.random.default_rng(seed).standard_normal((5, 5))
    return b * np.array([1e-120, 1e-60, 1.0, 1e60, 1e120])


def row_graded(seed, span):
    """diag(10^linspace(-span, span, 7)) B, B complex 7 x 5 standard normal
    from default_rng(seed): ROADMAP defect 3."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
    return np.logspace(-span, span, 7)[:, None] * b


# Valid inputs that are hard on the numeric kernels.
HARD_INPUTS = {
    "hilbert8": hilbert(8),
    "kahan20": kahan(20, 0.5),
    "graded5": graded_columns(),
}


# Power-of-two scaling properties: a fixed example set, so that tier-1
# runs the same cases every time.
SCALING = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def make_matrix_corpus(seed=CORPUS_SEED, count=1000, max_dim=8):
    """Random complex matrices; every other one a rank-deficient product."""
    rng = np.random.default_rng(seed)
    out = []
    for idx in range(count):
        n = int(rng.integers(1, max_dim + 1))
        m = int(rng.integers(1, max_dim + 1))
        if idx % 2 == 0:
            arr = uniform_complex(rng, n, m)
        else:
            k = int(rng.integers(0, min(n, m)))
            arr = uniform_complex(rng, n, k) @ uniform_complex(rng, k, m)
        out.append(ComplexMatrix(np.ascontiguousarray(arr)))
    return out


class PinnedScaleInstance(MatrixInstance):
    """Matrix instance comparing at eq_tol * max(1, pinned norm).

    The acceptance bounds are stated against the Frobenius norm of the
    matrix under test, not against the operands of each individual
    comparison, so the scale is pinned once per case.  It replaces the
    scale of every comparison, the factor-norm products that
    ``verify_mp`` passes for the four identities included.
    """

    def __init__(self, pinned, eq_tol):
        super().__init__(Tolerance(eq_tol=eq_tol))
        self._pinned = max(1.0, float(pinned))

    def compare(self, f, g, scale=None, cond=1.0):
        return super().compare(f, g, self._pinned)


def rotated_root(p, w):
    """(h, h°) for the positive matrix p, the root taken in the basis
    rotated by the unitary array w: w† sqrt(w p w†) w.  Polar uniqueness
    says the factors cannot depend on how the root was obtained."""
    from daggermp.matrix import _sqrt_with_mp

    h, h_mp = _sqrt_with_mp(ComplexMatrix(w @ p.array @ w.conj().T))
    back = lambda x: ComplexMatrix(w.conj().T @ x.array @ w)
    return back(h), back(h_mp)


def all_relations(src, tgt):
    mask = (1 << tgt) - 1
    for code in range(1 << (src * tgt)):
        yield FiniteRelation(
            src, tgt, tuple((code >> (i * tgt)) & mask for i in range(src))
        )


def random_relation(rng, src, tgt):
    return FiniteRelation(
        src, tgt, tuple(int(x) for x in rng.integers(0, 1 << tgt, src))
    )


def all_partial_injections(src, tgt):
    choices = [None] + list(range(tgt))
    for mapping in itertools.product(choices, repeat=src):
        hit = [j for j in mapping if j is not None]
        if len(hit) == len(set(hit)):
            yield PartialInjection(src, tgt, mapping)


def random_partial_injection(rng, src, tgt):
    targets = list(range(tgt))
    rng.shuffle(targets)
    mapping = []
    for i in range(src):
        if targets and rng.random() < 0.7:
            mapping.append(targets.pop())
        else:
            mapping.append(None)
    return PartialInjection(src, tgt, tuple(mapping))


@pytest.fixture(scope="session")
def matrix_corpus():
    return make_matrix_corpus()


@pytest.fixture(scope="session")
def small_matrix_corpus():
    return make_matrix_corpus(seed=CORPUS_SEED + 1, count=120, max_dim=5)


@pytest.fixture
def minst():
    return MatrixInstance(Tolerance(eq_tol=1e-9))


@pytest.fixture
def rel_inst():
    return RelInstance()


@pytest.fixture
def pinj_inst():
    return PInjInstance()
