"""Shared pieces: percentiles, host-speed calibration, the span recorder,
the environment stamp."""

from __future__ import annotations

import bisect
import contextlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Percentiles a tail latency may be reported at.  A workload reports the
# highest one that leaves at least TAIL_BEYOND samples above it in its
# smallest run, so that the percentile is the same on every run.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10


def now() -> float:
    """Seconds on the system-wide monotonic clock (comparable across
    processes on one machine)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile q in [0, 100] of a non-empty list."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def tail_percentile(min_samples: int) -> float:
    """Highest ladder percentile with TAIL_BEYOND samples beyond it when a
    run holds min_samples; the maximum (100) when even p50 has too few."""
    best = 100.0
    for q in TAIL_LADDER:
        if min_samples * (1 - q / 100.0) >= TAIL_BEYOND:
            best = q
    return best


# --- host speed ------------------------------------------------------------------
#
# The hosts this runs on change speed by up to a quarter over seconds to
# minutes (one deterministic gate pass took 14-24 s in five runs in a row),
# and every timing moves with them.  So each pass also times a fixed
# stdlib-only slice of work, CAL_INTERVAL_S apart while the pass runs, and
# the pass's timings are reported at the reference speed at which the slice
# takes CAL_REF_S: measured time x CAL_REF_S / median slice time.  The slice
# touches no trigsum code, so no change to the program moves it; time spent
# in slices is taken out of every timing.  An operation is scaled by the
# slices around the moment it ran, a whole pass by its operations.

CAL_REF_S = 0.001
CAL_INTERVAL_S = 0.1


def calibration_slice() -> float:
    """Seconds for one run of the fixed calibration slice."""
    start = now()
    total = 0
    for i in range(8000):
        total += (i * 7) % 13
    acc = Fraction(0)
    for k in range(1, 24):
        acc += Fraction(1, k * k)
    return now() - start


class SpeedProbe:
    """Calibration slices for one pass: on a SIGALRM timer while the pass
    computes in this process, or taken explicitly between operations when
    the pass waits on child processes (a timer would run beside the
    child)."""

    def __init__(self):
        self.samples = []  # slice seconds, in time order
        self.stamps = []   # when each slice ran
        self.spent = 0.0   # seconds spent in slices, to subtract

    def _tick(self, *_):
        start = now()
        self.samples.append(calibration_slice())
        self.stamps.append(start)
        self.spent += now() - start

    def take(self, count: int = 1) -> None:
        for _ in range(count):
            self._tick()

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self) -> float:
        """Factor from measured seconds to seconds at the reference speed,
        from every slice of the pass."""
        if not self.samples:
            self.take()
        return CAL_REF_S / median(self.samples)

    def local_scales(self, intervals, least: int = 5) -> list:
        """The factor for each (start, end) interval, from the slices inside
        it, widened to the nearest ones until there are `least`: the speed
        of a short operation is the speed of the moment it ran."""
        stamps, out = self.stamps, []
        for t0, t1 in intervals:
            lo, hi = bisect.bisect_left(stamps, t0), bisect.bisect_right(stamps, t1)
            while hi - lo < least and (lo > 0 or hi < len(stamps)):
                if lo > 0 and (hi == len(stamps) or t0 - stamps[lo - 1] <= stamps[hi] - t1):
                    lo -= 1
                else:
                    hi += 1
            out.append(CAL_REF_S / median(self.samples[lo:hi]))
        return out


# --- spans -------------------------------------------------------------------

class Tracer:
    """Records spans (name, start, end, parent index, operation id) in
    memory.  Spans nest by the order they are opened; one thread only.
    Its clock leaves out the time spent in the probe's calibration slices."""

    def __init__(self, probe: SpeedProbe):
        self.spans = []
        self._stack = []
        self.op_id = None
        self._probe = probe

    def _clock(self) -> float:
        return now() - self._probe.spent

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, self._clock(), None, parent, self.op_id])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = self._clock()

    def self_times(self):
        """(name, self seconds, op id) per span: duration minus the time its
        direct children cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return [(name, end - start - child_time[i], op)
                for i, (name, start, end, _, op) in enumerate(self.spans)]


class NoTracer:
    """Stands in for Tracer in timed runs: records nothing."""

    op_id = None
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


# --- environment ---------------------------------------------------------------

def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def env_stamp() -> dict:
    """Interpreter and library versions; collected in a child process so the
    caller does not import mpmath or numpy itself."""
    code = ("import json, mpmath, numpy, mpmath.libmp as l;"
            "print(json.dumps({'mpmath': mpmath.__version__,"
            " 'mpmath_backend': l.BACKEND, 'numpy': numpy.__version__}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, env=child_env())
    stamp = {"python": platform.python_version(),
             "implementation": platform.python_implementation()}
    stamp.update(json.loads(out.stdout))
    stamp["nproc"] = len(os.sched_getaffinity(0))
    stamp["commit"] = git_commit()
    return stamp


def child_env() -> dict:
    """Environment for every child: the checkout's src first on the path
    and one thread for the numeric libraries."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env
