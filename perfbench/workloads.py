"""The four workloads of the daggermp benchmark.

A workload is built from a seed (its set-up: inputs, reference answers,
warm caches), then runs one case at a time with :meth:`run`.  Each
outcome is checked afterwards with :meth:`check`, outside the case's
timed interval.  A check returns the number of operations the case
attempted and one ``(operation, wrong)`` entry per failed operation:
``wrong`` is true for an answer that disagrees with the reference or
for an untyped exception, false for a typed refusal (``DaggerError``)
or a negative verdict of the library's own checks.

The library only ever sees the generated inputs; the references come
from ``numpy.linalg`` (matrices) or from the boolean-matrix code here
(relations), never from daggermp itself.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np

import daggermp as dm
import hostspeed

CHECK_REL = 1e-8       # agreement bound: CHECK_REL * max(1, |reference|)
ACCEPT_EQ_TOL = 1e-9   # acceptance level; at the default 100 eps the gram
                       # route refuses n >= 32 and polar some full-rank 8x8


class Raised:
    """Stands in for the value of an operation that raised."""

    def __init__(self, exc: BaseException, typed: bool):
        self.exc = exc
        self.typed = typed

    def __repr__(self):
        return f"Raised({type(self.exc).__name__}: {self.exc})"


SKIPPED = Raised(RuntimeError("not run: an earlier operation failed"), True)


def _call(out: dict, op: str, fn, *args):
    try:
        value = fn(*args)
    except dm.DaggerError as exc:
        value = Raised(exc, True)
    except Exception as exc:  # an untyped error is a defect: record it, keep going
        value = Raised(exc, False)
    out[op] = value
    return value


# Operations whose value is the library's own verdict.  A negative verdict
# is a failed operation but, like a typed refusal, not a wrong answer.
VERDICTS = frozenset({"verify_mp", "derived", "laws"})


def _failures(ops, out: dict, checks: dict) -> list:
    fails = []
    for op in ops:
        value = out.get(op, SKIPPED)
        if isinstance(value, Raised):
            fails.append((op, not value.typed))
        elif not checks[op](value):
            fails.append((op, op not in VERDICTS))
    return fails


def _uniform(rng, n: int, m: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, (n, m)) + 1j * rng.uniform(-1.0, 1.0, (n, m))


def _close(x, ref: np.ndarray) -> bool:
    arr = x.array if isinstance(x, dm.ComplexMatrix) else x
    if arr.shape != ref.shape:
        return False
    bound = CHECK_REL * max(1.0, float(np.linalg.norm(ref)))
    return float(np.linalg.norm(arr - ref)) <= bound


class _MatrixWorkload:
    """Shared case logic of ``corpus`` and ``dense``."""

    OPS: tuple = ()

    def _set_refs(self, arrays):
        self.inputs = [dm.ComplexMatrix(np.ascontiguousarray(a)) for a in arrays]
        self.refs = [np.linalg.pinv(a) for a in arrays]
        self.size = len(self.inputs)
        self.check(0, self.run(0))  # warm-up, outside any timed phase

    def _herm_mp(self, p):
        return dm.herm_mp(p, eq_tol=self.inst.tolerance.eq_tol)

    def checks_for(self, i: int, out: dict) -> dict:
        a, ref = self.inputs[i % self.size], self.refs[i % self.size]
        g = out.get("pinv")
        g_ref = g.array if isinstance(g, dm.ComplexMatrix) else ref

        def iso_ok(pair):
            f2, g2 = pair
            return _close(f2, a.array) and _close(g2, g_ref)

        return {
            "pinv": lambda v: _close(v, ref),
            "verify_mp": lambda v: v.all_hold,
            "gram": lambda v: _close(v, g_ref),
            "gcsvd": lambda v: _close(v, g_ref),
            "gsvd": lambda v: _close(v, g_ref),
            "polar": lambda v: _close(v, g_ref),
            "derived": lambda v: v.all_hold,
            "iso": iso_ok,
        }

    def check(self, i: int, out: dict):
        return len(self.OPS), _failures(self.OPS, out, self.checks_for(i, out))

    def perturb(self, out: dict) -> dict:
        bad = dict(out)
        bad["pinv"] = dm.ComplexMatrix(out["pinv"].array + 1e-3)
        return bad


# One corpus pass: every shape with 1-8 rows and 1-8 columns, once full rank
# and once a rank-deficient product of rank min(rows, cols) // 2 (the zero
# matrix on a side of 1).  The schedule is fixed, so the seed changes the
# entries, not the amount of work, and every run times the same mix.
CORPUS_SHAPES = tuple(
    (n, m, deficient)
    for n in range(1, 9)
    for m in range(1, 9)
    for deficient in (False, True)
)


class Corpus(_MatrixWorkload):
    """Acceptance-corpus shapes: 1-8 per side, every other one rank-deficient.

    At n <= 8 the time goes to per-call overhead (re-validation, repeated
    deviation work, the Python rotation loop), not to arithmetic.  Runs
    at eq_tol 1e-9, the level of the acceptance corpus, on which no route
    refuses.  At the default ``Tolerance()`` the gram and polar routes
    refuse a few of these inputs; the traced run counts those refusals
    (:func:`default_tol_failures`) instead of timing them.
    """

    OPS = ("pinv", "verify_mp", "gram", "gcsvd", "gsvd", "polar", "derived", "iso")

    def __init__(self, seed: int, root: str, tolerance=None):
        rng = np.random.default_rng(seed)
        arrays = []
        for n, m, deficient in CORPUS_SHAPES:
            if deficient:
                k = min(n, m) // 2
                arrays.append(_uniform(rng, n, k) @ _uniform(rng, k, m))
            else:
                arrays.append(_uniform(rng, n, m))
        self.inst = dm.MatrixInstance(tolerance or dm.Tolerance(eq_tol=ACCEPT_EQ_TOL))
        self._set_refs(arrays)

    def run(self, i: int) -> dict:
        a = self.inputs[i % self.size]
        inst = self.inst
        out: dict = {}
        g = _call(out, "pinv", dm.pinv, a)
        if isinstance(g, Raised):
            return out
        _call(out, "verify_mp", dm.verify_mp, inst, a, g)
        _call(out, "gram", dm.mp_via_gram, inst, a, self._herm_mp)
        _call(out, "gcsvd", lambda: dm.mp_from_gcsvd(inst, dm.gcsvd_from_mp(inst, a, g)))
        _call(out, "gsvd", lambda: dm.mp_from_gsvd(inst, dm.gsvd_from_mp(inst, a, g)))
        _call(out, "polar", lambda: dm.mp_from_polar(inst, dm.polar_from_mp(inst, a, g)))
        _call(out, "derived", dm.derived_identities_check, inst, a, g)
        _call(out, "iso", lambda: dm.mp_from_iso(inst, *dm.iso_from_mp(inst, a, g)))
        return out


def default_tol_failures(seed: int) -> dict:
    """Failed operations of one corpus pass at the default ``Tolerance()``,
    by operation: the refusals the CLI's users meet on these inputs."""
    wl = Corpus(seed, None, dm.Tolerance())
    counts: dict = {}
    for i in range(wl.size):
        for op, _ in wl.check(i, wl.run(i))[1]:
            counts[op] = counts.get(op, 0) + 1
    return counts


# One cycle of dense shapes: (rows, cols, rank-deficient).  Squares load
# one_sided_svd and hermitian_jacobi, tall ones _complete_columns (O(n^4)),
# wide ones hermitian_jacobi through the gram route.  Wide columns stay
# <= 64 (4x128 takes seconds per case).  The schedule is fixed so that the
# seed changes the entries, not the amount of work; one pass takes about
# 7 s on a 2-vCPU VM, so a run times each case several times.
DENSE_CYCLE = (
    (16, 16, False), (128, 4, False), (4, 16, False),
    (24, 24, True), (160, 8, False), (8, 32, False),
    (32, 32, False), (192, 4, False), (6, 48, False),
    (48, 48, True),
    (16, 16, True), (256, 8, False), (4, 24, False),
    (24, 24, False), (128, 8, False), (8, 64, False),
    (32, 32, True), (224, 4, False), (6, 40, False),
    (48, 48, False),
)


class Dense(_MatrixWorkload):
    """Square 16-48, tall 128-256 x 4-8 and wide 4-8 x <= 64 matrices.

    Here the time goes to ``_jacobi`` and overhead is negligible.  Runs at
    eq_tol 1e-9: at the default tolerance the gram route refuses every
    random square input from n = 32 up, so the workload would time
    refusals instead of solves (``corpus`` already shows that defect).
    """

    OPS = ("pinv", "verify_mp", "gram")

    def __init__(self, seed: int, root: str):
        rng = np.random.default_rng(seed)
        arrays = []
        for n, m, deficient in DENSE_CYCLE:
            if deficient:
                k = n // 2
                arrays.append(_uniform(rng, n, k) @ _uniform(rng, k, m))
            else:
                arrays.append(_uniform(rng, n, m))
        self.inst = dm.MatrixInstance(dm.Tolerance(eq_tol=ACCEPT_EQ_TOL))
        self._set_refs(arrays)

    def run(self, i: int) -> dict:
        a = self.inputs[i % self.size]
        out: dict = {}
        g = _call(out, "pinv", dm.pinv, a)
        if isinstance(g, Raised):
            return out
        _call(out, "verify_mp", dm.verify_mp, self.inst, a, g)
        _call(out, "gram", dm.mp_via_gram, self.inst, a, self._herm_mp)
        return out


def _bits(src: int, tgt: int, rows) -> np.ndarray:
    """Boolean src x tgt matrix of a relation given as row bitmasks."""
    return np.array(
        [[(row >> j) & 1 for j in range(tgt)] for row in rows], dtype=bool
    ).reshape(src, tgt)


def _rel_bits(r) -> np.ndarray:
    return _bits(r.src, r.tgt, r.rows)


def _bool_product(*mats: np.ndarray) -> np.ndarray:
    out = mats[0].astype(np.int64)
    for m in mats[1:]:
        out = (out @ m.astype(np.int64)) > 0
    return out.astype(bool)


def _difunctional(b: np.ndarray) -> bool:
    return bool(np.array_equal(_bool_product(b, b.T, b), b))


def _random_difunctional(rng, src: int, tgt: int) -> list:
    """Pairs of a difunctional relation: i ~ j iff both fall in one class."""
    classes = int(rng.integers(1, min(src, tgt) + 1))
    left = rng.integers(-1, classes, src)
    right = rng.integers(-1, classes, tgt)
    return [(i, j) for i in range(src) for j in range(tgt) if left[i] == right[j] >= 0]


def _random_pinj_map(rng, src: int, tgt: int) -> tuple:
    targets = list(rng.permutation(tgt))
    return tuple(
        int(targets.pop()) if targets and rng.random() < 0.7 else None
        for _ in range(src)
    )


# One exact pass: all 512 relations on 3x3, four pairs of partial injections
# of every shape from 1x1 to 6x6 (144 pairs), and three random 4x4
# relations, in seeded order.  The 4x4 oracle scans 65 536 candidates
# (about 36 ms, against 0.3-1 ms for the others), so it is kept to about
# one case in 200: at 3 in 20 it took over 90% of the time, and the
# workload then measured the oracle's memory traffic instead of the
# generic code it exists for.
EXACT_PINJ_PER_SHAPE = 4
EXACT_REL4 = 3


class Exact:
    """Exact bitmask morphisms through the generic core/engine/karoubi code.

    All 512 relations on 3x3, seeded random 4x4 relations and partial
    injections of size <= 6.  A generic-layer change that helps matrices
    but costs exact instances shows here.
    """

    def __init__(self, seed: int, root: str):
        rng = np.random.default_rng(seed)
        cases = []
        for code in range(512):
            rows = tuple((code >> (3 * i)) & 7 for i in range(3))
            cases.append(self._relation(3, 3, rows))
        for src in range(1, 7):
            for tgt in range(1, 7):
                for _ in range(EXACT_PINJ_PER_SHAPE):
                    f = dm.PartialInjection(src, tgt, _random_pinj_map(rng, src, tgt))
                    g = dm.PartialInjection(src, tgt, _random_pinj_map(rng, src, tgt))
                    cases.append(("pinj", f, g))
        for _ in range(EXACT_REL4):
            rows = tuple(int(x) for x in rng.integers(0, 16, 4))
            cases.append(self._relation(4, 4, rows))
        self.cases = [cases[int(k)] for k in rng.permutation(len(cases))]
        self.size = len(self.cases)
        self.rel = dm.RelInstance()
        self.pinj = dm.PInjInstance()
        for shape in ((3, 3), (4, 4)):
            dm.rel._candidate_grid(*shape)
        self.check(0, self.run(0))  # warm-up, outside any timed phase

    @staticmethod
    def _relation(src, tgt, rows):
        b = _bits(src, tgt, rows)
        return ("rel", dm.FiniteRelation(src, tgt, rows), b, _difunctional(b))

    def run(self, i: int) -> dict:
        case = self.cases[i % self.size]
        out: dict = {}
        if case[0] == "rel":
            r = case[1]
            inst = self.rel
            _call(out, "oracle", dm.brute_force_mp, r)
            g = _call(out, "criterion", dm.mp_inverse_rel, r)
            if g is None or isinstance(g, Raised):
                return out
            _call(out, "derived", dm.derived_identities_check, inst, r, g)
            _call(out, "iso", lambda: dm.mp_from_iso(inst, *dm.iso_from_mp(inst, r, g)))
            _call(out, "gcsvd", dm.gcsvd_rel, r)
        else:
            _, f, g = case
            inst = self.pinj
            fd = _call(out, "dagger", f.dagger)
            if isinstance(fd, Raised):
                return out
            _call(out, "verify_mp", dm.verify_mp, inst, f, fd)
            _call(out, "derived", dm.derived_identities_check, inst, f, fd)
            _call(out, "laws", dm.verify_inverse_category_laws, f, g)
        return out

    def check(self, i: int, out: dict):
        case = self.cases[i % self.size]
        if case[0] == "pinj":
            ops = ("dagger", "verify_mp", "derived", "laws")
            f = case[1]
            checks = {
                "dagger": lambda v: sorted(v.pairs) == sorted((j, k) for k, j in f.pairs),
                "verify_mp": lambda v: v.all_hold,
                "derived": lambda v: v.all_hold,
                "laws": lambda v: tuple(v) == (True, True),
            }
            return len(ops), _failures(ops, out, checks)
        _, r, b, difunctional = case
        conv = b.T

        def inverse_ok(v):
            if not difunctional:
                return v is None
            return v is not None and np.array_equal(_rel_bits(v), conv)

        def iso_ok(pair):
            f2, g2 = pair
            return np.array_equal(_rel_bits(f2), b) and np.array_equal(_rel_bits(g2), conv)

        def gcsvd_ok(triple):
            mem, d, s = (_rel_bits(x) for x in triple)
            return np.array_equal(_bool_product(mem, d, s), b)

        ops = ("oracle", "criterion")
        if difunctional:
            ops += ("derived", "iso", "gcsvd")
        checks = {
            "oracle": inverse_ok,
            "criterion": inverse_ok,
            "derived": lambda v: v.all_hold,
            "iso": iso_ok,
            "gcsvd": gcsvd_ok,
        }
        return len(ops), _failures(ops, out, checks)

    def perturb(self, out: dict) -> dict:
        bad = dict(out)
        if "dagger" in out:
            # Drop the first defined image of f-dagger, or define one if none is.
            d = out["dagger"]
            mapping = list(d.mapping)
            first = next((k for k, v in enumerate(mapping) if v is not None), None)
            if first is None:
                mapping[0] = 0
            else:
                mapping[first] = None
            bad["dagger"] = dm.PartialInjection(d.src, d.tgt, tuple(mapping))
            return bad
        g = out["criterion"]
        if g is None:
            bad["criterion"] = dm.FiniteRelation.identity(3)
        else:
            bad["criterion"] = dm.FiniteRelation(g.src, g.tgt, (g.rows[0] ^ 1,) + g.rows[1:])
        return bad


def _matrix_obj(a: np.ndarray) -> dict:
    return {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "data": [[float(z.real), float(z.imag)] for z in a.reshape(-1)],
    }


def _obj_matrix(obj: dict) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in obj["data"]], dtype=np.complex128)
    return flat.reshape(obj["rows"], obj["cols"])


CLI_COMMANDS = (
    ("pinv", "a"),
    ("polar", "a"),
    ("gsvd", "a"),
    ("verify-mp", "a", "g"),
    ("rel oracle", "r"),
    ("rel mp", "r"),
    ("karoubi check", "d"),
    ("pinj verify", "f", "h"),
)
CLI_MATRIX = frozenset({"pinv", "polar", "gsvd", "verify-mp"})
CLI_VARIANTS = 2


class Cli:
    """One ``python -m daggermp.cli`` process at a time, with PYTHONPATH=src.

    A fixed rotation of eight commands over two seeded input variants:
    interpreter start, numpy and daggermp import and JSON I/O are most of
    a user's latency here, and no in-process workload sees them.  Each
    (command, variant) pair recurs every 16 cases, and its stdout must
    repeat byte for byte.  Matrix commands run at ``--eq-tol 1e-9``: the
    default-tolerance refusals are ``corpus``'s to show.
    """

    size = len(CLI_COMMANDS) * CLI_VARIANTS
    # Cases run in child processes: scale them by a child's start-up time,
    # probed every second of case time (a probe takes about 0.2 s).
    HOST_PROBE = (hostspeed.start_s, hostspeed.START_REF_S, 1.0)

    def __init__(self, seed: int, root: str):
        rng = np.random.default_rng(seed)
        self.root = root
        self.dir = os.path.join(root, ".perfbench_work", f"cli-{seed}")
        os.makedirs(self.dir, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH="src")
        self.files = []
        self.expect = []
        for v in range(CLI_VARIANTS):
            a = _uniform(rng, 8, 8)
            rel_pairs = (
                _random_difunctional(rng, 4, 4)
                if v % 2
                else [(i, j) for i in range(4) for j in range(4) if rng.random() < 0.4]
            )
            d_pairs = _random_difunctional(rng, 4, 4)
            fs, ft = (int(x) for x in rng.integers(1, 7, 2))
            f_map = _random_pinj_map(rng, fs, ft)
            h_map = _random_pinj_map(rng, fs, ft)
            objs = {
                "a": _matrix_obj(a),
                "g": _matrix_obj(np.linalg.pinv(a)),
                "r": {"src": 4, "tgt": 4, "pairs": [list(p) for p in rel_pairs]},
                "d": {"src": 4, "tgt": 4, "pairs": [list(p) for p in d_pairs]},
                "f": {"src": fs, "tgt": ft, "map": [[i, j] for i, j in enumerate(f_map) if j is not None]},
                "h": {"src": fs, "tgt": ft, "map": [[i, j] for i, j in enumerate(h_map) if j is not None]},
            }
            paths = {}
            for key, obj in objs.items():
                paths[key] = os.path.join(self.dir, f"{key}{v}.json")
                with open(paths[key], "w", encoding="utf-8") as fh:
                    json.dump(obj, fh)
            self.files.append(paths)
            rb = np.zeros((4, 4), dtype=bool)
            for i, j in rel_pairs:
                rb[i, j] = True
            self.expect.append({"a": a, "ref": np.linalg.pinv(a), "r": rb})
        self._first: dict = {}

    def argv(self, i: int) -> list:
        command, *keys = CLI_COMMANDS[i % len(CLI_COMMANDS)]
        paths = self.files[(i // len(CLI_COMMANDS)) % CLI_VARIANTS]
        args = command.split()
        if command in CLI_MATRIX:
            args += ["--eq-tol", repr(ACCEPT_EQ_TOL)]
        for key in keys:
            args += ["--in", paths[key]]
        return args

    def _spawn(self, argv: list) -> tuple:
        proc = subprocess.run(
            argv, cwd=self.root, env=self.env, capture_output=True, timeout=120
        )
        return proc.returncode, proc.stdout, proc.stderr

    def run(self, i: int) -> tuple:
        return self._spawn([sys.executable, "-m", "daggermp.cli"] + self.argv(i))

    def run_traced(self, i: int, spans_path: str) -> tuple:
        child = os.path.join(self.root, "perfbench", "cli_child.py")
        return self._spawn([sys.executable, child, spans_path] + self.argv(i))

    def check(self, i: int, out: tuple):
        code, stdout, stderr = out
        command = CLI_COMMANDS[i % len(CLI_COMMANDS)][0]
        expected = self._expected_code(i)
        if code == 1 and expected == 0 and stderr.startswith(b"refused:"):
            return 1, [(command, False)]
        first = self._first.setdefault(i % self.size, stdout)
        try:
            ok = code == expected and stdout == first and self._semantic(
                i, json.loads(stdout)
            )
        except (ValueError, KeyError, TypeError):
            ok = False
        return 1, [] if ok else [(command, True)]

    def _expected_code(self, i: int) -> int:
        command = CLI_COMMANDS[i % len(CLI_COMMANDS)][0]
        exp = self.expect[(i // len(CLI_COMMANDS)) % CLI_VARIANTS]
        if command in ("rel oracle", "rel mp") and not _difunctional(exp["r"]):
            return 1
        return 0

    def _semantic(self, i: int, obj: dict) -> bool:
        command = CLI_COMMANDS[i % len(CLI_COMMANDS)][0]
        exp = self.expect[(i // len(CLI_COMMANDS)) % CLI_VARIANTS]
        a = exp["a"]
        if command == "pinv":
            return _close(_obj_matrix(obj), exp["ref"])
        if command == "polar":
            u, h = _obj_matrix(obj["u"]), _obj_matrix(obj["h"])
            return (
                _close(u @ h, a)
                and _close(h, h.conj().T)
                and _close(u @ u.conj().T @ u, u)
            )
        if command == "gsvd":
            u, d, v = (_obj_matrix(obj[k]) for k in ("u", "d", "v"))
            x, z, y, w = obj["dims"]
            middle = np.zeros((x + z, y + w), dtype=np.complex128)
            middle[:x, :y] = d
            return (
                _close(u @ middle @ v, a)
                and _close(u @ u.conj().T, np.eye(u.shape[0]))
                and _close(v @ v.conj().T, np.eye(v.shape[0]))
            )
        if command == "verify-mp":
            return obj["instance"] == "matrix" and obj["all_hold"] is True
        if command in ("rel oracle", "rel mp"):
            rb = exp["r"]
            if not _difunctional(rb):
                return obj == {"exists": False}
            got = np.zeros((obj["src"], obj["tgt"]), dtype=bool)
            for j, k in obj["pairs"]:
                got[j, k] = True
            return np.array_equal(got, rb.T)
        if command == "karoubi check":
            return obj == {
                "instance": "rel",
                "mp_all_hold": True,
                "round_trip_matches": True,
                "karoubi_inverse_matches": True,
            }
        return obj == {
            "mp_all_hold": True,
            "law_regular": True,
            "law_projections_commute": True,
        }

    def perturb(self, out: tuple) -> tuple:
        code, stdout, stderr = out
        obj = json.loads(stdout)
        obj["data"][0][0] += 1e-3
        return code, (json.dumps(obj) + "\n").encode(), stderr


WORKLOADS = {"corpus": Corpus, "dense": Dense, "exact": Exact, "cli": Cli}
