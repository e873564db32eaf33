"""trigsum benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload gate|symbolic|precision|cli \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --profile <workload> [--seed N]

Runs from the root of a source checkout; nothing needs installing, the
children put the checkout's src/ on PYTHONPATH.  All load comes from one
process at a time with no threads: every pass of a workload runs in a fresh
interpreter (perfbench/worker.py), so memo tables start empty, and the
passes run one after another until --seconds have gone by and the
workload's minimum pass count is met.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
untraced and traced passes in pairs plus the workload's traced-only detail
work, and reports every per-layer metric (0 where the workload does not
call into that layer) with the tracing overhead.  Times are reported at the
reference speed of a calibration slice timed during each pass (see
common.SpeedProbe); the measured values are printed too.  Human-readable
lines go first; the last stdout line is the JSON result.  --profile prints
the top cProfile entries of one pass grouped by module, for diagnosis only.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import re
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import (ROOT, SRC, SpeedProbe, child_env, env_stamp,  # noqa: E402
                    median, now, percentile, tail_percentile)

WORKLOADS = ("gate", "symbolic", "precision", "cli")
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
WORKER_TIMEOUT_S = 170


class HarnessError(RuntimeError):
    pass


def spawn(args, timeout=WORKER_TIMEOUT_S):
    """Run one child to completion.  It gets a session of its own, so that
    on a timeout the whole group (a cli worker's CLI children too) is killed
    and reaped before the error goes up."""
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=child_env(),
                            cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


def worker(workload: str, seed: int, index: int, mode: str) -> dict:
    out = spawn([os.path.join(HERE, "worker.py"), workload, str(seed), str(index), mode])
    if out.returncode != 0 or not out.stdout.strip():
        tail = out.stderr.strip().splitlines()[-5:]
        raise HarnessError(f"{mode} worker for {workload} pass {index} exited "
                           f"{out.returncode}: " + " | ".join(tail))
    return json.loads(out.stdout.strip().splitlines()[-1])


def measure_setup(entry) -> tuple:
    """Seconds from spawning a fresh interpreter until the entry modules
    are imported, read on the shared monotonic clock; each sample as
    measured and at the reference speed of calibration slices taken just
    before and after it."""
    code = ("import time\n" + "".join(f"import {m}\n" for m in entry)
            + "print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))")
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        probe = SpeedProbe()
        probe.take(10)
        start = now()
        out = spawn(["-c", code], timeout=60)
        seconds = float(out.stdout.strip()) - start if out.returncode == 0 else None
        probe.take(10)
        if seconds is None:
            raise HarnessError(f"set-up failed: {out.stderr.strip()[-300:]}")
        raw.append(seconds)
        scaled.append(seconds * probe.scale())
    return raw, scaled


def measure_imports(scale: float) -> dict:
    """Interpreter floor, in-process import of trigsum.cli, and the
    -X importtime split of that import (medians, scaled by the run's
    speed factor)."""
    start_ms, import_ms, numpy_ms, mpmath_ms, registry_ms = [], [], [], [], []
    timed_import = ("import time\nt = time.perf_counter()\nimport trigsum.cli\n"
                    "print(time.perf_counter() - t)")
    for _ in range(IMPORT_REPEATS):
        t = now()
        spawn(["-c", "pass"], timeout=60)
        start_ms.append((now() - t) * 1e3)
        import_ms.append(float(spawn(["-c", timed_import], timeout=60).stdout) * 1e3)
        out = spawn(["-X", "importtime", "-c", "import trigsum.cli"], timeout=60)
        own, cumulative = {}, {}   # microseconds per module
        for line in out.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)", line)
            if m:
                own[m.group(3)] = int(m.group(1))
                cumulative[m.group(3)] = int(m.group(2))
        numpy_ms.append(cumulative.get("numpy", 0) / 1e3)
        mpmath_ms.append(cumulative.get("mpmath", 0) / 1e3)
        registry_ms.append(own.get("trigsum.registry", 0) / 1e3)
    return {"cli.python_start_ms": median(start_ms) * scale,
            "cli.import_ms": median(import_ms) * scale,
            "cli.import.numpy_ms": median(numpy_ms) * scale,
            "cli.import.mpmath_ms": median(mpmath_ms) * scale,
            "cli.import.registry_self_ms": median(registry_ms) * scale}


# --- per-layer aggregation -----------------------------------------------------------

def _spans(passes, name=None, prefix=None):
    """(name, self seconds at the reference speed, op id) of matching spans."""
    out = []
    for p in passes:
        for span_name, secs, op in p.get("spans", []):
            if span_name == name or (prefix and span_name.startswith(prefix)):
                out.append((span_name, secs * p["scale"], op))
    return out


def _p50(passes, name, per_second):
    """Median self time of the named spans, in seconds x per_second."""
    values = [secs for _, secs, _ in _spans(passes, name)]
    return median(values) * per_second if values else 0.0


def layer_metrics(wl, traced: list, extra: dict) -> dict:
    m = {}
    for i in range(1, 9):
        values = [s for _, s, _ in _spans(traced, f"acceptance.c{i}")]
        if values:
            m[f"acceptance.c{i}_s"] = median(values)
    if extra:
        ex = [extra]
        m["registry.grid_rows_s"] = sum(s for _, s, _ in _spans(ex, prefix="registry.grid."))
        m["registry.endpoint_rows_s"] = sum(s for _, s, _ in _spans(ex, prefix="registry.endpoint."))
        m["registry.endpoint.thm16-r1_s"] = sum(
            s for _, s, _ in _spans(ex, "registry.endpoint.thm16-zeta-odd-cos-r1"))
        m["registry.endpoint.thm21-r1_s"] = sum(
            s for _, s, _ in _spans(ex, "registry.endpoint.thm21-eta-odd-r1"))
        m["registry.grid.lemma4_s"] = sum(s for _, s, _ in _spans(ex, prefix="registry.grid.lemma4-"))
        m["registry.closed_form_eval.p50_ms"] = _p50(ex, "registry.closed_form_eval", 1e3)
        for sub in ("exact", "operator", "map", "zeta-odd", "oracle", "verify", "identities"):
            m[f"cli.cmd.{sub}.p50_ms"] = _p50(ex, f"cli.cmd.{sub}", 1e3)
        m.update(extra.get("counters", {}))
    for d in (30, 100, 300):
        m[f"dirichlet.zeta_odd.d{d}.p50_ms"] = _p50(traced, f"dirichlet.zeta_odd.d{d}", 1e3)
        m[f"dirichlet.oracle.d{d}.p50_ms"] = _p50(traced, f"dirichlet.oracle.d{d}", 1e3)
    m["dirichlet.repeat.p50_us"] = _p50(traced, "dirichlet.repeat", 1e6)
    exact = [s for _, s, _ in _spans(traced, "exact")]
    if exact:
        q = tail_percentile(wl.MIN_PASSES * wl.EXACT_COUNT)
        m["exact.p50_ms"] = median(exact) * 1e3
        m["exact.tail_ms"] = percentile(exact, q) * 1e3
    m["expr.parse.p50_us"] = _p50(traced, "expr.parse", 1e6)
    m["expr.to_text.p50_us"] = _p50(traced, "expr.to_text", 1e6)
    m["operators.apply.p50_ms"] = _p50(traced, "operators.apply", 1e3)
    m["operators.simplify.p50_ms"] = _p50(traced, "operators.simplify", 1e3)
    own = []
    for p in traced:
        per_op = {}
        for name, secs, op in p.get("spans", []):
            sign = {"mapping.map": 1, "operators.apply.in_map": -1,
                    "operators.simplify": -1}.get(name)
            if sign:
                per_op[op] = per_op.get(op, 0.0) + sign * secs * p["scale"]
        own.extend(per_op.values())
    if own:
        q = tail_percentile(wl.MIN_PASSES * wl.MAP_REQUESTS)
        m["mapping.map.p50_ms"] = median(own) * 1e3
        m["mapping.map.tail_ms"] = percentile(own, q) * 1e3
    for key in ("dirichlet.series_terms", "mapping.output_nodes", "mapping.refused"):
        values = [p["counters"][key] for p in traced if key in p.get("counters", {})]
        if values:
            m[key] = median(values)
    return m


# --- the run -----------------------------------------------------------------------------

def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    contract = load_contract()
    # the workload modules import trigsum (and numpy) here too; keep this
    # process single-threaded like its children
    os.environ.update(child_env())
    sys.path.insert(1, str(SRC))
    wl = importlib.import_module("wl_" + workload)
    stamp = env_stamp()
    run_start = now()
    setups_raw, setups = measure_setup(wl.ENTRY)
    timed, traced = [], []
    index = 0
    while index < wl.MIN_PASSES or now() - run_start < seconds:
        timed.append(worker(workload, seed, index, "timed"))
        if trace:
            traced.append(worker(workload, seed, index, "traced"))
        index += 1
    extra = worker(workload, seed, 0, "extra") if trace and (
        hasattr(wl, "run_extra") or hasattr(wl, "run_inprocess")) else {}
    probes = worker(workload, seed, 0, "probes")["probes"] if hasattr(wl, "PROBES") else []

    runs = timed + traced
    attempted = sum(len(p["latencies"]) for p in runs)
    failures = [f for p in runs for f in p["failures"]] + extra.get("failures", [])
    q = tail_percentile(wl.MIN_PASSES * wl.OPS_PER_PASS)

    def end_to_end(scaled: bool) -> dict:
        prefix = "" if scaled else "raw_"
        lat = [x for p in timed for x in p[prefix + "latencies"]]
        return {"setup_s": median(setups if scaled else setups_raw),
                "wall_s": median([p[prefix + "wall"] for p in timed]),
                "latency_p50_ms": median(lat) * 1e3,
                "latency_tail_ms": percentile(lat, q) * 1e3,
                "peak_rss_mb": max(p["rss_mb"] for p in timed)}

    e2e, raw = end_to_end(True), end_to_end(False)
    n_lat = sum(len(p["latencies"]) for p in timed)
    beyond = sum(1 for p in timed for x in p["latencies"]
                 if x * 1e3 > e2e["latency_tail_ms"])
    speed = median([p["scale"] for p in timed])
    notes = {"setup_s": f"median of {len(setups)} fresh interpreters importing "
                        + ", ".join(wl.ENTRY),
             "wall_s": f"median of {len(timed)} passes of {wl.OPS_PER_PASS} "
                       "operations, checks excluded",
             "latency_p50_ms": f"p50 of n={n_lat}",
             "latency_tail_ms": f"p{q:g} of n={n_lat}, {beyond} beyond",
             "peak_rss_mb": "max over passes" + (" of the CLI children" if workload == "cli" else "")}

    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print("env " + json.dumps(stamp, sort_keys=True))
    print(f"speed: times are at the reference speed of the calibration slice, "
          f"measured x {speed:.4f} (median over passes); as measured: "
          + ", ".join(f"{k} {v:.6g}" for k, v in raw.items() if k != "peak_rss_mb"))
    if trace:
        layers = layer_metrics(wl, traced, extra)
        layers.update(measure_imports(speed))
        layers["trace.overhead_s"] = (median([p["wall"] for p in traced])
                                      - median([p["wall"] for p in timed]))
        layers["probes.failed"] = sum(1 for _, reason in probes if reason is not None)
        declared = contract["per_layer"]
        print("untraced end-to-end: " + ", ".join(f"{k} {v:.4g}" for k, v in e2e.items()))
    else:
        layers = e2e
        declared = contract["end_to_end"]
    metrics = {}
    for spec in declared:
        value = layers.get(spec["name"], 0.0)
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        note = f"  ({notes[spec['name']]})" if spec["name"] in notes and not trace else ""
        print(f"{spec['name']} {value:.6g} {spec['unit']}{note}")
    print(f"fail_share {len(failures) / attempted:.4f}  ({len(failures)} of {attempted} "
          "operations wrong, crashed or timed out)")
    for what, msg in failures[:20]:
        print(f"  FAIL {what}: {msg}")
    for name, reason in probes:
        print(f"probe {name}: {'PASS' if reason is None else 'FAIL (' + reason + ')'}")
    if trace:
        print(f"(trace.overhead_s: traced minus untraced wall_s, medians over "
              f"{len(traced)} pass pairs)")
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=WORKLOADS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "trigsum", "__init__.py")):
        print(f"error: no trigsum sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.profile:
        out = spawn([os.path.join(HERE, "worker.py"), args.profile, str(args.seed), "0",
                     "profile"])
        sys.stdout.write(out.stdout)
        return out.returncode
    if not args.workload:
        parser.error("--workload or --profile is required")
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
