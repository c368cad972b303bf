"""daggermp benchmark: four workloads, end-to-end metrics, a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 7 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``corpus``,
``dense``, ``exact`` and ``cli``.  Each is one closed-loop client: the
next case starts only after the previous one returned.

``--trace 0`` measures the end-to-end metrics with tracing off:
``setup_s`` (median of this process's set-up and four more in child
processes), ``cases_per_s``, ``case_ms_p50``, ``case_ms_p90`` and
``peak_rss_mb`` (on ``cli``, the peak of the CLI processes).  Every time
is scaled to the reference host speed (``hostspeed.py``); the summary
also prints the unscaled rate and the scale factors.  The client
runs the workload's fixed pass of cases again and again; the timed phase
lasts ``--seconds`` of case time, one whole pass and at least 100 cases.
Each case is taken at the median of its repetitions: ``cases_per_s`` is
the pass's case count over the time of one pass, and the percentiles are
over every case run.  ``failed_share`` (failed / ``ops``) is printed beside the
metrics and is the ``failed`` / ``attempted`` pair of the result line.

``--trace 1`` runs the size probes, the default-tolerance probe (one
untraced corpus pass at ``Tolerance()``) and, except on ``cli``, one
traced pass of the CLI commands; then whole passes over the workload's
cases, untraced and then the same number traced, and reports the
per-layer metrics from the traced passes, per traced case.  Spans are
written to ``.perfbench_work/spans-<workload>.tsv``.

Every outcome is checked outside the timed intervals, and a perturbed
answer must be caught by the same check (the self-test), else ``correct``
is false.  The last line of stdout is the JSON result.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# One BLAS thread, before numpy loads: with the default thread pool,
# back-to-back runs on a shared 2-core machine spread twice as wide.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
MIN_CASES = 100
MAX_TIMED_S = 150.0
SETUP_CHILDREN = 4
WORKLOAD_NAMES = ("cli", "corpus", "dense", "exact")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def commit_id() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, np) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_id(),
    }


def timed_loop(wl, seconds: float):
    """Closed loop from case 0, over the workload's cases again and again,
    until ``seconds`` of case time, MIN_CASES cases and one whole pass are
    all reached.  Each outcome is checked right after its case, outside
    the timed interval, and then dropped, so memory does not grow with the
    number of cases.  The host-speed probe runs between cases, every
    ``host.every_s`` of case time.  Returns raw durations, the factors
    that scale them to the reference host speed, ops, failures and the
    outcome of case 0 (for the self-test)."""
    import hostspeed

    durations, factors, fails = [], [], []
    ops = 0
    first = None
    host = hostspeed.HostSpeed(*getattr(wl, "HOST_PROBE", ()))
    host.probe(hostspeed.WINDOW)
    next_probe = 0.0
    clock = time.perf_counter
    start = clock()
    timed = 0.0
    i = 0
    while True:
        if timed >= next_probe:
            host.probe()
            next_probe = timed + host.every_s
            factor = host.factor()
        factors.append(factor)
        t0 = clock()
        out = wl.run(i)
        t1 = clock()
        durations.append(t1 - t0)
        timed += t1 - t0
        attempted, failed = wl.check(i, out)
        ops += attempted
        fails += [(i, op, wrong, out) for op, wrong in failed]
        if i == 0:
            first = out
        i += 1
        if (timed >= seconds and i >= max(MIN_CASES, wl.size)) or t1 - start >= MAX_TIMED_S:
            return durations, factors, ops, fails, first


def case_medians(durations, size: int) -> list:
    """Each case of the pass at the median of its repetitions in the run:
    a stall of the shared host that hits fewer than half of a case's
    repetitions does not move it."""
    return [statistics.median(durations[j::size]) for j in range(size)]


def passes(run, pass_size: int, budget: float = None, count: int = None):
    """Whole passes over cases 0..pass_size-1: ``count`` of them, or as many
    as fit in ``budget`` (at least one).  Returns outcomes, passes, wall."""
    outcomes = []
    clock = time.perf_counter
    start = clock()
    done = 0
    while True:
        p0 = clock()
        for i in range(pass_size):
            outcomes.append(run(i))
        done += 1
        now = clock()
        if count is not None:
            if done >= count:
                break
        elif now - start + (now - p0) > budget:
            break
    return outcomes, done, clock() - start


def check_all(wl, outcomes, pass_size=None):
    ops = 0
    fails = []
    for n, out in enumerate(outcomes):
        i = n % pass_size if pass_size else n
        attempted, failed = wl.check(i, out)
        ops += attempted
        fails += [(i, op, wrong, out) for op, wrong in failed]
    return ops, fails


def self_test(wl, out0) -> bool:
    """A perturbed answer must count as a wrong operation."""
    _, failed = wl.check(0, wl.perturb(out0))
    return any(wrong for _, wrong in failed)


def report_failures(fails) -> None:
    """Print the first five distinct (case, operation) failures to stderr."""
    seen = {}
    for i, op, wrong, out in fails:
        seen.setdefault((i, op), (wrong, out))
    for (i, op), (wrong, out) in list(seen.items())[:5]:
        kind = "wrong" if wrong else "refused"
        detail = out.get(op) if isinstance(out, dict) else out[2][-300:]
        print(f"case {i}: {op} {kind}: {detail!r}", file=sys.stderr)
    if len(fails) > 5:
        print(f"{len(fails)} failed operations in all", file=sys.stderr)


def setup_children(args) -> list:
    times = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def size_probes(workloads, seed: int) -> dict:
    """Untraced ``pinv`` at n = 8, 32, 128 and ``svd`` of 256x4, in ms."""
    import numpy as np

    dm = workloads.dm
    rng = np.random.default_rng(seed)

    def median_ms(fn, arg, reps):
        ts = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn(arg)
            ts.append(time.perf_counter() - t0)
        return statistics.median(ts) * 1e3

    def mat(n, m):
        return dm.ComplexMatrix(workloads._uniform(rng, n, m))

    return {
        "matrix.pinv.n8_ms": median_ms(dm.pinv, mat(8, 8), 5),
        "matrix.pinv.n32_ms": median_ms(dm.pinv, mat(32, 32), 3),
        "matrix.pinv.n128_ms": median_ms(dm.pinv, mat(128, 128), 1),
        "matrix.svd.256x4_ms": median_ms(dm.svd, mat(256, 4), 1),
    }


def default_tol_probe(workloads, seed: int) -> dict:
    """Failed operations of one untraced corpus pass at the default
    ``Tolerance()`` (128 cases, 1024 operations): the refusals that the
    timed corpus workload, at eq_tol 1e-9, does not meet."""
    counts = workloads.default_tol_failures(seed)
    return {
        "engine.mp_via_gram.default_tol_refused": counts.get("gram", 0),
        "decomp.default_tol_refused": sum(counts.get(op, 0) for op in ("gcsvd", "gsvd", "polar")),
        "probe.default_tol_failed_ops": sum(counts.values()),
    }


def cli_spans(run_child, tr, indices, spans_path, nest: bool):
    """Run traced CLI children; merge their spans into ``tr``, under the
    case span that ``run_child`` opens when ``nest`` is set."""
    outcomes = []
    for i in indices:
        tr.case_id = i
        parent = len(tr.start) if nest else -1
        outcomes.append(run_child(i, spans_path))
        with open(spans_path, encoding="utf-8") as fh:
            tr.merge(json.load(fh), parent, i)
    return outcomes


SELF_MS = (
    "_jacobi.one_sided_svd", "_jacobi.hermitian_jacobi", "_jacobi._complete_columns",
    "matrix.ComplexMatrix", "matrix.svd", "matrix.pinv", "matrix.herm_eig",
    "matrix.split_dagger_idempotent", "matrix.dagger_kernel", "matrix.sqrt_with_mp",
    "core.verify_mp", "core.deviation", "engine.mp_via_gram",
    "engine.derived_identities_check", "decomp.gcsvd_from_mp", "decomp.gsvd_from_mp",
    "decomp.polar_from_mp", "karoubi.iso_from_mp", "karoubi.mp_from_iso",
    "rel.brute_force_mp", "rel.compose", "rel.gcsvd_rel", "pinj.compose",
    "pinj.verify_inverse_category_laws",
)
CALLS = (
    "_jacobi.one_sided_svd", "_jacobi.hermitian_jacobi", "matrix.ComplexMatrix",
    "core.verify_mp", "core.deviation", "engine.derived_identities_check",
    "rel.brute_force_mp", "rel.compose", "pinj.compose",
)
MP_FROM = ("decomp.mp_from_gcsvd", "decomp.mp_from_gsvd", "decomp.mp_from_polar")


def layer_metrics(tracer, tr, cli_tr, cases: int, overhead: float, probes: dict) -> dict:
    """Per-layer metrics; a metric whose hook is missing reads null."""
    stats = tracer.span_stats(tr)
    cli_stats = tracer.span_stats(cli_tr) if cli_tr is not tr else stats
    missing = set(tr.missing) | set(cli_tr.missing)
    counters = tr.counters

    def get(name, table=stats):
        if name not in table or name in missing:
            missing.add(name)
            return None
        return table[name]

    def per_case(x):
        return x / cases

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in CALLS:
        s = get(name)
        m[f"{name}.calls"] = None if s is None else per_case(s["calls"])
    for name in SELF_MS:
        s = get(name)
        m[f"{name}.self_ms"] = None if s is None else per_case(s["self_s"]) * 1e3
    jac = [s for n, s in stats.items() if n.startswith("_jacobi.")]
    m["_jacobi.nonconverged"] = per_case(sum(s["nonconverged"] for s in jac))
    cc = get("_jacobi._complete_columns")
    m["_jacobi._complete_columns.cols_added"] = None if cc is None else per_case(
        counters.get("_jacobi._complete_columns.cols_added", 0)
    )
    m.update(probes)
    vm = get("core.verify_mp")
    m["core.verify_mp.pass_ratio"] = None if vm is None else ratio(
        counters.get("core.verify_mp.passed", 0), vm["calls"]
    )
    gram = get("engine.mp_via_gram")
    m["engine.mp_via_gram.refused"] = None if gram is None else per_case(gram["refused"])
    dic = get("engine.derived_identities_check")
    m["engine.derived_identities_check.pass_ratio"] = None if dic is None else ratio(
        counters.get("engine.derived_identities_check.passed", 0), dic["calls"]
    )
    mp_from = [get(n) for n in MP_FROM]
    m["decomp.mp_from.self_ms"] = (
        None if None in mp_from else per_case(sum(s["self_s"] for s in mp_from)) * 1e3
    )
    dec = [s for n, s in stats.items() if n.startswith("decomp.")]
    m["decomp.refused"] = per_case(sum(s["outer_refused"] for s in dec))
    bf = get("rel.brute_force_mp")
    m["rel.brute_force_mp.candidates"] = None if bf is None else per_case(
        counters.get("rel.brute_force_mp.candidates", 0)
    )
    m["rel.brute_force_mp.hit_ratio"] = None if bf is None else ratio(
        counters.get("rel.brute_force_mp.hits", 0), bf["calls"]
    )
    main = get("cli.main", cli_stats)
    for metric, name in (
        ("cli.import_ms", "cli.import"),
        ("cli.json_in_ms", "cli.json_in"),
        ("cli.json_out_ms", "cli.json_out"),
    ):
        s = get(name, cli_stats)
        m[metric] = None if s is None or main is None else ratio(s["total_s"], main["calls"]) * 1e3
    m["cli.main_ms"] = None if main is None else ratio(main["total_s"], main["calls"]) * 1e3
    case = stats["bench.case"]
    m["trace.attributed_ratio"] = ratio(case["child_s"], case["total_s"])
    m["trace.overhead_ratio"] = overhead
    m["trace.cases"] = cases
    m["trace.missing_hooks"] = len(missing)
    if missing:
        print(f"missing hooks (metrics read null): {sorted(missing)}", file=sys.stderr)
    # Metric names must start with a letter: "_jacobi.x" is reported as "jacobi.x".
    return {k.lstrip("_"): v for k, v in m.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "daggermp", "__init__.py")):
        print(f"error: no daggermp sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(WORK, exist_ok=True)

    import numpy as np

    import hostspeed
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    setup_raw = time.perf_counter() - T0
    host = hostspeed.HostSpeed()
    host.probe(hostspeed.WINDOW)
    setup_s = setup_raw * host.factor()
    if args.setup_only:
        print(f"{setup_s:.9f}")
        return 0
    env = environment(args, np)
    if args.trace:
        result, summary = traced_run(args, wl, workloads)
        samples = {}
    else:
        result, summary, samples = untraced_run(args, wl, setup_s)
    record = dict(result, env=env, **samples)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(summary)
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


def _verdict(wl, fails, first):
    """Report failures; return (failed, wrong, self-test passed)."""
    report_failures(fails)
    ok = self_test(wl, first)
    if not ok:
        print("self-test failed: a perturbed answer passed the check", file=sys.stderr)
    return len(fails), sum(1 for f in fails if f[2]), ok


def untraced_run(args, wl, setup_main: float):
    raw, factors, ops, fails, first = timed_loop(wl, args.seconds)
    durations = [d * f for d, f in zip(raw, factors)]
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    failed, wrong, self_ok = _verdict(wl, fails, first)
    setups = [setup_main] + setup_children(args)
    wall = sum(raw)
    n = len(durations)
    medians = case_medians(durations, wl.size)
    rate = wl.size / sum(medians)
    raw_rate = wl.size / sum(case_medians(raw, wl.size))
    # Every case run, each at its case's median: the run's mix of cases,
    # without the stalls.
    ms = [medians[i % wl.size] * 1e3 for i in range(n)]
    p90 = statistics.quantiles(ms, n=10)[8]
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "cases_per_s": {"value": rate, "unit": "1/s"},
        "case_ms_p50": {"value": statistics.median(ms), "unit": "ms"},
        "case_ms_p90": {"value": p90, "unit": "ms"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    beyond = sum(1 for x in ms if x > p90)
    share = failed / ops if ops else 0.0
    summary = "\n".join([
        f"{args.workload} seed {args.seed}: {n} cases in {wall:.2f} s of case time, "
        f"{failed} of {ops} ops failed ({wrong} wrong), self-test "
        f"{'ok' if self_ok else 'FAILED'}",
        f"  setup_s      {metrics['setup_s']['value']:.4f} s   "
        f"(median of {len(setups)} set-ups: {', '.join(f'{s:.4f}' for s in setups)})",
        f"  cases_per_s  {rate:.3f} 1/s  ({wl.size} cases a pass, each at the median of "
        f"its {n // wl.size}-{-(-n // wl.size)} runs; the same for p50 and p90)",
        f"  unscaled     {raw_rate:.3f} 1/s by the same medians, {n / wall:.3f} 1/s over all "
        f"cases; host speed factor {min(factors):.3f}-{max(factors):.3f}, "
        f"median {statistics.median(factors):.3f}",
        f"  case_ms_p50  {metrics['case_ms_p50']['value']:.3f} ms  (n={n})",
        f"  case_ms_p90  {p90:.3f} ms  (n={n}, {beyond} beyond)",
        f"  failed_share {share:.6f} ratio  (ops={ops}, failed={failed})",
        f"  peak_rss_mb  {peak_mb:.1f} MB"
        + ("  (peak of the CLI processes)" if args.workload == "cli" else ""),
    ])
    result = {
        "correct": wrong == 0 and self_ok,
        "attempted": ops,
        "failed": failed,
        "metrics": metrics,
    }
    samples = {"case_ms": [d * 1e3 for d in durations], "host_factor": factors, "setups_s": setups}
    return result, summary, samples


def traced_run(args, wl, workloads):
    import tracer

    start = time.perf_counter()
    probes = size_probes(workloads, args.seed)
    probes.update(default_tol_probe(workloads, args.seed))
    spans_path = os.path.join(WORK, f"child-spans-{args.workload}.json")
    tr = tracer.Tracer()
    cli_tr = tr
    if args.workload != "cli":
        cli_tr = tracer.Tracer()
        cli_wl = workloads.Cli(args.seed, ROOT)
        indices = range(len(workloads.CLI_COMMANDS))
        cli_spans(cli_wl.run_traced, cli_tr, indices, spans_path, nest=False)
    size = wl.size
    half = max(args.seconds - (time.perf_counter() - start), 0.0) / 2
    plain, count, wall_plain = passes(wl.run, size, budget=half)

    if args.workload == "cli":
        case = tr.wrap("bench.case", wl.run_traced)
        hooks = None

        def run(i):
            return cli_spans(case, tr, [i], spans_path, nest=True)[0]
    else:
        case = tr.wrap("bench.case", wl.run)
        hooks = tracer.Hooks(tr).install()

        def run(i):
            tr.case_id = i
            return case(i)
    try:
        traced, _, wall_traced = passes(run, size, count=count)
    finally:
        if hooks is not None:
            hooks.remove()
    tr.case_id = -1
    ops, fails = check_all(wl, plain + traced, size)
    failed, wrong, self_ok = _verdict(wl, fails, plain[0])
    cases = count * size
    metrics = layer_metrics(tracer, tr, cli_tr, cases, wall_traced / wall_plain, probes)
    tr.write_tsv(os.path.join(WORK, f"spans-{args.workload}.tsv"))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        units = {e["name"]: e["unit"] for e in json.load(fh)["per_layer"]}
    metrics = {k: metrics.get(k) for k in units}
    result = {
        "correct": wrong == 0 and self_ok,
        "attempted": ops,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    width = max(len(k) for k in metrics)
    lines = [
        f"{args.workload} seed {args.seed} traced: {count} pass(es) of {size} cases "
        f"untraced {wall_plain:.2f} s, traced {wall_traced:.2f} s; "
        f"{failed} of {ops} ops failed ({wrong} wrong)",
    ]
    lines += [f"  {k:<{width}} {v!r} {units[k]}" for k, v in metrics.items()]
    return result, "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
