"""Host-speed probe: scales measured times to a fixed reference speed.

The benchmark runs on a shared 2-vCPU VM whose speed changes with the
load of other tenants: each vCPU switches between two speeds, in which
the kernel below takes about 1.1 ms and 2.1 ms, and stays in one for a
fraction of a second to over a minute.  CPU time slows with wall time
(no steal), so neither clock hides it, and the share of slow time
differs from run to run: raw times then spread by 15-35 % across runs.

The in-process probe is a fixed kernel of interpreter and small-array
numpy work, like the work of a daggermp case, that uses no daggermp code.
On ``cli``, where each case is a child process, the probe is a child
process that starts an interpreter and imports numpy instead: the
parent's kernel ran at the same speed in runs whose children were 15 %
slower, and a bare interpreter start did not follow them either.  The
run times its probe between cases, every ``EVERY_S`` seconds of case time
(every second on ``cli``), and each case's wall time is multiplied by the
probe's reference time over the median of the last ``WINDOW`` probe
times.  Reported times are thus wall times at the host speed at which
the probe takes its reference time; a change to daggermp moves them in
full, while a change of host speed moves the probe with the case and
cancels.
"""

import statistics
import subprocess
import sys
import time

import numpy as np

KERNEL_REF_S = 0.002  # the probes' times at the reference speed: about
START_REF_S = 0.2     # their medians on a 2-vCPU Intel Xeon VM, so that
                      # scaled times stay near raw ones
EVERY_S = 0.1   # seconds of case time between kernel probes
WINDOW = 5      # probes in the median that scales a case


def kernel() -> float:
    a = np.arange(16.0).reshape(4, 4)
    s = 0.0
    for i in range(300):
        s += float((a * i).sum()) + sum(j * j for j in range(20))
    return s


def kernel_s() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def start_s() -> float:
    """Wall time of a child process that starts an interpreter and imports
    numpy, most of a CLI case's start-up.  No timeout: ``Popen.wait`` with
    one polls in sleeps that round the time."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - t0


class HostSpeed:
    """Probe times of one run; :meth:`factor` scales a time measured now."""

    def __init__(self, probe=kernel_s, ref_s: float = KERNEL_REF_S, every_s: float = EVERY_S):
        self.probe_s = probe
        self.ref_s = ref_s
        self.every_s = every_s
        self.times = []

    def probe(self, count: int = 1) -> None:
        for _ in range(count):
            self.times.append(self.probe_s())

    def factor(self) -> float:
        return self.ref_s / statistics.median(self.times[-WINDOW:])
