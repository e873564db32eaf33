"""gate: the eight acceptance criteria in order, as `trigsum verify --all`
runs them; wall_s is the time of these eight.  The criteria carry their own
fixed data, so the seed changes nothing here.

The verdict gives only eight latency samples, and their median rests on two
criteria of about 0.1 s that the host's speed noise moves by a fifth.  So
each pass then runs the seven criteria other than the registry sweep
REPEAT_ROUNDS more times (warm), and the latency metrics rest on all of
them.  The traced run adds one verify/verify_endpoint call per registry
suite row, in a fresh interpreter, to split criterion 6."""

from __future__ import annotations

from trigsum import acceptance

ENTRY = ["trigsum.acceptance"]
MIN_PASSES = 1
REPEAT_ROUNDS = 5
FAST = [c for c in acceptance.ALL_CRITERIA
        if c is not acceptance.criterion_6_registry_sweep]
WALL_OPS = len(acceptance.ALL_CRITERIA)
OPS_PER_PASS = WALL_OPS + REPEAT_ROUNDS * len(FAST)


def make_ops(seed: int, index: int):
    """(criterion, repeat) pairs: the verdict, then the warm repeats."""
    return ([(c, False) for c in acceptance.ALL_CRITERIA]
            + [(c, True) for c in FAST] * REPEAT_ROUNDS)


def run_op(op, tracer):
    criterion, repeat = op
    number = criterion.__name__.split("_")[1]
    with tracer.span(f"acceptance.{'repeat' if repeat else 'c' + number}"):
        return criterion()


def check(op, outcome):
    name, ok, detail = outcome
    return None if ok else f"criterion {name} failed: {detail}"


def describe(op) -> str:
    return op[0].__name__ + (" (repeat)" if op[1] else "")


def run_extra(seed: int, tracer, counters: dict):
    """Traced only: every registry suite row on its own, then one interior
    closed-form evaluation per grid row.  Returns failure messages."""
    import math

    from trigsum.dirichlet import PrecisionContext
    from trigsum.registry import (closed_form_eval, default_suite,
                                  endpoint_suite, get_record, verify,
                                  verify_endpoint)
    failures = []
    rows = terms = 0
    for entry in default_suite():
        r_tag = "" if entry.r is None else f"-r{entry.r}"
        with tracer.span(f"registry.grid.{entry.id}{r_tag}"):
            rep = verify(entry.id, entry.r, N=entry.N, tol=entry.tol)
        rows += 1
        terms += rep.N * rep.grid
        if not rep.passed:
            failures.append(f"registry row {rep.id} r={rep.r} failed")
    for rid, r in endpoint_suite():
        with tracer.span(f"registry.endpoint.{rid}-r{r}"):
            rep = verify_endpoint(rid, r)
        rows += 1
        terms += rep.N * rep.grid
        if not rep.passed:
            failures.append(f"registry endpoint {rid} r={r} failed")
    ctx = PrecisionContext.for_digits(30)
    for entry in default_suite():
        rec = get_record(entry.id)
        if rec.kind == "value":
            x, c = 0.0, 1.0
        else:
            c = math.pi if rec.kind == "cospow" else 1.0
            a, b = rec.interval
            x = float(a + b) / 2 * c
        with tracer.span("registry.closed_form_eval"):
            value = closed_form_eval(rec, entry.r, c=c, x=x, ctx=ctx,
                                     series_eps=entry.tol / 20)
        if not math.isfinite(float(value)):
            failures.append(f"closed_form_eval {entry.id} not finite")
    counters["registry.rows"] = rows
    counters["registry.float_terms"] = terms
    return failures
