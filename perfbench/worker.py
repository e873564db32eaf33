"""One pass of one workload in a fresh interpreter, so that memo tables
start empty as they do for a CLI user.

    python3 perfbench/worker.py <workload> <seed> <pass> <mode>

mode is one of
  timed    run the pass's operations, timing each; no spans
  traced   the same operations with spans, plus the workload's per-request
           diagnostics after the timed loop
  extra    the workload's traced-only detail work (gate: registry rows;
           cli: the same argv in-process)
  probes   the workload's known-defect probes
  profile  the pass's operations under cProfile, no checks; prints a
           report, no JSON

Prints one JSON object as its last stdout line; the workload's own prints
go to stderr.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import resource
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import NoTracer, SpeedProbe, Tracer, now  # noqa: E402


class Crash:
    def __init__(self, exc: BaseException):
        self.message = f"crashed: {type(exc).__name__}: {str(exc)[:200]}"


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_pass(wl, seed: int, index: int, traced: bool) -> dict:
    ops = wl.make_ops(seed, index)
    probe = SpeedProbe()
    tracer = Tracer(probe) if traced else NoTracer()
    # calibration slices on a timer while this process computes; between
    # operations when it waits on children
    children = getattr(wl, "CHILD_PROCESSES", False)
    latencies, intervals, results = [], [], []
    if not children:
        probe.start_timer()
    for i, op in enumerate(ops):
        tracer.op_id = i
        if children:
            probe.take(3)
        t0, spent0 = now(), probe.spent
        try:
            result = wl.run_op(op, tracer)
        except Exception as exc:  # a crash is a failed operation, not a harness error
            result = Crash(exc)
        t1 = now()
        latencies.append(t1 - t0 - (probe.spent - spent0))
        intervals.append((t0, t1))
        results.append(result)
    if children:
        probe.take(3)
    else:
        probe.stop_timer()
    scaled = [x * f for x, f in zip(latencies, probe.local_scales(intervals))]
    rss = _peak_rss_mb(children)
    if traced and hasattr(wl, "run_diagnostics"):
        for i, (op, result) in enumerate(zip(ops, results)):
            if not isinstance(result, Crash):
                tracer.op_id = i
                wl.run_diagnostics(op, result, tracer)
    messages = _check(wl, ops, results)
    # wall_s: the times of the operation list summed, each at the speed it
    # ran at; a workload may time only the first WALL_OPS operations
    n = getattr(wl, "WALL_OPS", len(ops))
    out = {"wall": sum(scaled[:n]), "latencies": scaled, "raw_wall": sum(latencies[:n]),
           "raw_latencies": latencies, "rss_mb": rss, "scale": probe.scale(),
           "failures": [[wl.describe(op), msg] for op, msg in zip(ops, messages) if msg],
           "counters": _counters(wl, results)}
    if traced:
        out["spans"] = tracer.self_times()
    return out


def _check(wl, ops, results):
    live = [(op, r) for op, r in zip(ops, results) if not isinstance(r, Crash)]
    if hasattr(wl, "check_pass"):
        checked = iter(wl.check_pass([op for op, _ in live], [r for _, r in live]))
    else:
        checked = (wl.check(op, r) for op, r in live)
    return [r.message if isinstance(r, Crash) else next(checked) for r in results]


def _counters(wl, results) -> dict:
    if not hasattr(wl, "counters"):
        return {}
    return wl.counters([r for r in results if not isinstance(r, Crash)])


def run_extra(wl, seed: int) -> dict:
    probe = SpeedProbe()
    tracer = Tracer(probe)
    counters: dict = {}
    failures = []
    probe.start_timer()
    if hasattr(wl, "run_extra"):
        failures = wl.run_extra(seed, tracer, counters)
    elif hasattr(wl, "run_inprocess"):
        wl.run_inprocess(wl.make_ops(seed, 0), tracer)
    probe.stop_timer()
    return {"spans": tracer.self_times(), "counters": counters, "scale": probe.scale(),
            "failures": [["extra", msg] for msg in failures]}


def run_profile(wl, seed: int, index: int, stream) -> None:
    import cProfile
    import pstats
    ops = wl.make_ops(seed, index)
    tracer = NoTracer()
    profiler = cProfile.Profile()
    profiler.enable()
    for op in ops:   # the operations only: no checks
        try:
            wl.run_op(op, tracer)
        except Exception:  # a crash shows in the timed runs; profile the rest
            pass
    profiler.disable()
    stats = pstats.Stats(profiler)
    by_module: dict = {}
    for (filename, _, _), (_, _, tottime, _, _) in stats.stats.items():
        module = _module_of(filename)
        by_module[module] = by_module.get(module, 0.0) + tottime
    total = sum(by_module.values()) or 1.0
    print(f"self time by module ({wl.__name__[3:]}, seed {seed}, pass {index})", file=stream)
    for module, secs in sorted(by_module.items(), key=lambda kv: -kv[1])[:15]:
        print(f"  {secs:8.3f} s {100 * secs / total:5.1f}%  {module}", file=stream)
    print("top functions by self time", file=stream)
    stats.stream = stream
    stats.sort_stats("tottime").print_stats(20)


def _module_of(filename: str) -> str:
    if filename.startswith("<") or filename == "~":
        return "builtins"
    parts = os.path.normpath(filename).split(os.sep)
    for anchor in ("trigsum", "mpmath", "numpy"):
        if anchor in parts:
            at = parts.index(anchor)
            return ".".join(parts[at:at + 2]).removesuffix(".py")
    if "perfbench" in parts:
        return "perfbench." + parts[-1].removesuffix(".py")
    return parts[-1].removesuffix(".py")


def main(argv) -> int:
    workload, seed, index, mode = argv[0], int(argv[1]), int(argv[2]), argv[3]
    wl = importlib.import_module("wl_" + workload)
    for name in wl.ENTRY:
        importlib.import_module(name)
    real_stdout = sys.stdout
    with contextlib.redirect_stdout(sys.stderr):
        if mode == "profile":
            run_profile(wl, seed, index, real_stdout)
            return 0
        if mode in ("timed", "traced"):
            out = run_pass(wl, seed, index, traced=mode == "traced")
        elif mode == "extra":
            out = run_extra(wl, seed)
        elif mode == "probes":
            out = {"probes": [[name, wl.run_probe(name)] for name in wl.PROBES]}
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out), file=real_stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
