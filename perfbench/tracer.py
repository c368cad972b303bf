"""Spans around the calls into daggermp, recorded from outside the library.

:meth:`Hooks.install` wraps every public function of each daggermp module,
the private helpers and methods the per-layer metrics read, then rebinds
every alias of a wrapped function in every daggermp module
(``verify_mp`` is imported by name into ``engine``, ``decomp``,
``karoubi``, ``cli`` and the package itself, for instance).  Without the
rebinding, calls made inside the library would miss their spans.

Spans live in memory as parallel arrays (name, start, end, parent, case,
status) and are written out once, when the run ends.  A layer's self
time is its span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array

MODULES = ("core", "_jacobi", "matrix", "engine", "decomp", "karoubi", "rel", "pinj", "cli")

OK, REFUSED, NONCONVERGED, ERROR = 0, 1, 2, 3


def _cols_added(tr, args, kwargs, result):
    u, k = args[0], args[1]
    tr.count("_jacobi._complete_columns.cols_added", u.shape[0] - k)


def _mp_pass(tr, args, kwargs, result):
    tr.count("core.verify_mp.passed", int(result.all_hold))


def _derived_pass(tr, args, kwargs, result):
    tr.count("engine.derived_identities_check.passed", int(result.all_hold))


def _oracle(tr, args, kwargs, result):
    r = args[0]
    tr.count("rel.brute_force_mp.candidates", 1 << (r.src * r.tgt))
    tr.count("rel.brute_force_mp.hits", int(result is not None))


# (module, attribute path, span name, counter hook).  Public functions
# are found by inspection; these are the private helpers and methods
# that a per-layer metric reads, so a missing one is reported.
EXTRA_HOOKS = (
    ("_jacobi", "_complete_columns", "_jacobi._complete_columns", _cols_added),
    ("matrix", "_sqrt_with_mp", "matrix.sqrt_with_mp", None),
    ("matrix", "ComplexMatrix.__post_init__", "matrix.ComplexMatrix", None),
    ("matrix", "MatrixInstance.deviation", "core.deviation", None),
    ("rel", "RelInstance.deviation", "core.deviation", None),
    ("pinj", "PInjInstance.deviation", "core.deviation", None),
    ("rel", "FiniteRelation.compose", "rel.compose", None),
    ("pinj", "PartialInjection.compose", "pinj.compose", None),
    ("pinj", "PartialInjection.dagger", "pinj.dagger", None),
    ("cli", "_load_json", "cli.json_in", None),
)

COUNTER_HOOKS = {
    "core.verify_mp": _mp_pass,
    "engine.derived_identities_check": _derived_pass,
    "rel.brute_force_mp": _oracle,
}


class Tracer:
    """In-memory span store; one per process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.case = array("i")
        self.status = array("b")
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self.case_id = -1
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished top-level span timed by the caller."""
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(-1)
        self.case.append(self.case_id)
        self.status.append(OK)

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name: str, fn, hook=None):
        nid = self.name_id(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.case.append(self.case_id)
            self.status.append(OK)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end[idx] = clock()
                stack.pop()
                self.status[idx] = self._classify(exc)
                raise
            self.end[idx] = clock()
            stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @staticmethod
    def _classify(exc: BaseException) -> int:
        from daggermp.core import DaggerError, NumericError

        if isinstance(exc, NumericError):
            return NONCONVERGED
        if isinstance(exc, DaggerError):
            return REFUSED
        return ERROR

    def merge(self, other: dict, parent: int, case_id: int) -> None:
        """Append spans dumped by a traced child process under ``parent``."""
        base = len(self.start)
        ids = [self.name_id(n) for n in other["names"]]
        for nid, s, e, p, st in zip(
            other["name"], other["start"], other["end"], other["parent"], other["status"]
        ):
            self.name.append(ids[nid])
            self.start.append(s)
            self.end.append(e)
            self.parent.append(parent if p < 0 else base + p)
            self.case.append(case_id)
            self.status.append(st)
        for key, n in other["counters"].items():
            self.count(key, n)
        for m in other["missing"]:
            if m not in self.missing:
                self.missing.append(m)

    def dump(self) -> dict:
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "status": self.status.tolist(),
            "counters": self.counters,
            "missing": self.missing,
        }

    def write_tsv(self, path: str) -> None:
        """One span per line: index, name, start, end, parent, case, status."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("idx\tname\tstart\tend\tparent\tcase\tstatus\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.case[i]}\t"
                    f"{self.status[i]}\n"
                )


class _JsonProxy:
    """Stands in for ``json`` inside ``daggermp.cli`` so output encoding is timed."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, attr):
        return getattr(json, attr)


class Hooks:
    """Installed wrappers; :meth:`remove` puts every original back."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Hooks":
        import daggermp

        tr = self.tracer
        mods = {m: importlib.import_module(f"daggermp.{m}") for m in MODULES}
        namespaces = [daggermp] + list(mods.values())
        replaced: dict = {}
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                span = f"{short}.{attr}"
                replaced[fn] = tr.wrap(span, fn, COUNTER_HOOKS.get(span))
        for short, path, span, hook in EXTRA_HOOKS:
            owner = mods[short]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                tr.missing.append(span)
                continue
            wrapped = tr.wrap(span, fn, hook)
            if outer:
                self._set(owner, attr, wrapped)
            else:
                replaced[fn] = wrapped
        # Rebind every alias of a wrapped function in every daggermp namespace.
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in replaced:
                    self._set(ns, attr, replaced[value])
        cli = mods["cli"]
        self._set(cli, "json", _JsonProxy(tr.wrap("cli.json_out", json.dumps)))
        return self

    def remove(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def span_stats(tr: Tracer) -> dict:
    """Per span name: calls, total and self seconds, and failure counts.

    Only spans that belong to a case (case id >= 0) count.  ``outer_refused``
    counts refusals not already counted on a span of the same module
    further out, so a refusal passed up through nested calls counts once.
    """
    import numpy as np

    name = np.frombuffer(tr.name, dtype=np.int32)
    start = np.frombuffer(tr.start, dtype=np.float64)
    end = np.frombuffer(tr.end, dtype=np.float64)
    parent = np.frombuffer(tr.parent, dtype=np.int32)
    case = np.frombuffer(tr.case, dtype=np.int32)
    status = np.frombuffer(tr.status, dtype=np.int8)
    dur = end - start
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    own = dur - child
    module = np.array([n.split(".")[0] for n in tr.names] or [""])
    parent_module = np.where(
        has_parent, module[name[np.where(has_parent, parent, 0)]], ""
    )
    outer = parent_module != module[name]
    in_case = case >= 0
    stats = {}
    for nid, nm in enumerate(tr.names):
        sel = in_case & (name == nid)
        failed = sel & (status != OK)
        stats[nm] = {
            "calls": int(sel.sum()),
            "total_s": float(dur[sel].sum()),
            "self_s": float(own[sel].sum()),
            "refused": int(failed.sum()),
            "outer_refused": int((failed & outer).sum()),
            "nonconverged": int((sel & (status == NONCONVERGED)).sum()),
            "child_s": float(child[sel].sum()),
        }
    return stats
