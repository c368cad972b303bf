"""Run one daggermp CLI command with spans on, for the traced benchmark run.

Usage (from the repository root, with PYTHONPATH=src):

    python3 perfbench/cli_child.py SPANS.json COMMAND [ARG ...]

Behaves like ``python -m daggermp.cli COMMAND ...`` (same stdout, same
exit code) and also writes its spans to SPANS.json.  The time of
``import daggermp`` is recorded as the span ``cli.import``.
"""

import time

_t0 = time.perf_counter()
import daggermp  # noqa: E402  (timed: this import is what cli.import measures)

_t1 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import tracer  # noqa: E402


def main() -> int:
    tr = tracer.Tracer()
    tr.case_id = 0
    tr.record("cli.import", _t0, _t1)
    tracer.Hooks(tr).install()
    from daggermp import cli

    try:
        return cli.main(sys.argv[2:])
    finally:
        sys.stdout.flush()
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump(tr.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
