"""minsess benchmark: `check`, `run` and `explore` over one seeded generator.

    python3 perfbench/run.py --workload check --seed 1 --seconds 30 --trace 0

One client in one process runs operations back to back (a closed loop) in
the order the seed fixes, and checks every result against the reference
the generator built. The seed fixes a pool of operations; the run goes
through the whole pool in passes, each operation once per pass, for about
`--seconds` seconds (it ends at the pass boundary nearest the deadline,
after at least one pass and MIN_OPS timed operations). The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics`. `attempted` is the pool's size and `failed` the number of its
operations that failed, so both depend on the seed and the program only,
never on the machine's speed. NOTES.json says why each workload exists and
what each metric should move.

`--trace 0` reports the end-to-end metrics, untraced:
  p50_ms, p90_ms  median and 90th percentile of one operation's wall time,
                  over every timed operation of every pass.
                  A failed operation (it raised, answered wrongly, or its
                  exploration was truncated) is recorded as the run length
                  plus its own time, so it sorts above every success and a
                  fix that turns failures into successes can only lower them.
                  Percentiles interpolate linearly between the closest ranks.
  ok_share        pool operations that succeeded / pool size.
  setup_s         median over several set-ups (at least SETUPS, spread over
                  at least SETUP_WINDOW seconds) of the time to import
                  minsess afresh and build the workload's inputs.
  peak_rss_mb     peak resident memory of this process.

`--trace 1` first runs passes untraced for a third of the time, then
runs one pass again under the layer tracer and reports the per-layer
metrics (per operation means), the scaling exponents and failure shares of
each family from the untraced passes, and the tracing overhead.
Spans and the failure list are written under `.perfbench-out/`.

The program is imported from `src/` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

# setup_s is the median of at least SETUPS set-ups spread over SETUP_WINDOW s
SETUPS = 9
SETUP_WINDOW = 3.0
TRACE_SHARE = 1 / 3  # share of --seconds spent on the untraced passes of --trace 1
TRACED_CAP = 2.5  # the traced pass stops after this many times --seconds
WORKLOADS = sorted(gen.POOLS)
# so that at least ten operations lie beyond the 90th percentile
MIN_OPS = 110
FAMILIES = gen.CHECK_FAMILIES + gen.RUN_FAMILIES + gen.EXPLORE_FAMILIES

LAYER_CALLS = (
    "semantics.normalize", "semantics.enabled", "semantics.apply_redex",
    "semantics.canonical_key", "terms.substitute", "terms.free_names",
    "terms.used_bases", "terms.iter_subterms", "terms.encode_namepass",
    "typecheck.check_process", "types.equal_types", "types.canon_key",
    "types.dual", "types.gdecomp",
)
LAYER_CALLS_ONLY = ("types.unfold",)


def per_layer_spec() -> list[dict]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    spec = []
    for name in LAYER_CALLS:
        spec.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        spec.append({"name": f"{name}.self_ms", "unit": "ms", "better": "lower"})
    for name in LAYER_CALLS_ONLY:
        spec.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
    spec += [
        {"name": "semantics.steps", "unit": "count", "better": "lower"},
        {"name": "semantics.normalize_per_step", "unit": "ratio", "better": "lower"},
        {"name": "semantics.states", "unit": "count", "better": "lower"},
        {"name": "semantics.dedup_ratio", "unit": "ratio", "better": "higher"},
        {"name": "semantics.state_components", "unit": "count", "better": "lower"},
        {"name": "semantics.state_nodes", "unit": "count", "better": "lower"},
        {"name": "typecheck.types_seen", "unit": "count", "better": "lower"},
    ]
    spec += [{"name": f"scale.{f}.exp", "unit": "slope", "better": "lower"} for f in FAMILIES]
    spec += [{"name": f"fail.{f}", "unit": "ratio", "better": "lower"} for f in FAMILIES]
    spec.append({"name": "trace.overhead", "unit": "ratio", "better": "lower"})
    return spec


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


class Record:
    __slots__ = ("index", "op", "seconds", "status", "error", "out")

    def __init__(self, index, op, seconds, status, error, out):
        self.index, self.op, self.seconds = index, op, seconds
        self.status, self.error, self.out = status, error, out

    @property
    def failed(self) -> bool:
        return self.status != wl.OK


def run_one(lib, op, index: int, keep: bool = False) -> Record:
    """Time one operation; every exception is caught and recorded."""
    start = time.perf_counter()
    try:
        out = wl.execute(lib, op)
    except Exception as e:  # the failure is the measurement
        seconds = time.perf_counter() - start
        return Record(index, op, seconds, wl.RAISED, type(e).__name__, None)
    seconds = time.perf_counter() - start
    status, detail = wl.verify(lib, op, out)
    return Record(index, op, seconds, status, detail or None, out if keep else None)


def measure(lib, pool, seconds: float, min_ops: int = MIN_OPS) -> list[Record]:
    """Closed loop over the pool in whole passes, so every operation is
    timed equally often. After at least one pass and min_ops operations,
    the run ends at the pass boundary nearest `seconds`: another pass is
    started only if less than half of it would lie beyond the deadline."""
    records: list[Record] = []
    start = time.perf_counter()
    passes = 0
    while True:
        records += [run_one(lib, op, passes * len(pool) + j) for j, op in enumerate(pool)]
        passes += 1
        elapsed = time.perf_counter() - start
        if len(records) >= min_ops and elapsed + elapsed / passes / 2 >= seconds:
            return records


def failed_ops(records: list[Record], pool_size: int) -> list[Record]:
    """The first failed record of each pool operation that failed, in pool order."""
    out: dict[int, Record] = {}
    for r in records:
        if r.failed:
            out.setdefault(r.index % pool_size, r)
    return [out[i] for i in sorted(out)]


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between the closest ranks, at p * (n - 1)."""
    ordered = sorted(values)
    pos = p * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def ranked_ms(records: list[Record], run_seconds: float) -> list[float]:
    return [(r.seconds + (run_seconds if r.failed else 0.0)) * 1e3 for r in records]


def slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(seconds) against log(size)."""
    if len({x for x, _ in points}) < 2:
        return 0.0
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def family_metrics(records: list[Record], pool) -> dict:
    """scale.<family>.exp over well-typed successes, and fail.<family>
    over the pool's operations."""
    points = defaultdict(list)
    for r in records:
        if not r.failed and r.op.mutant is None:
            points[r.op.family].append((r.op.size, r.seconds))
    tried = Counter(op.family for op in pool)
    failed = Counter(r.op.family for r in failed_ops(records, len(pool)))
    out = {}
    for f in FAMILIES:
        out[f"scale.{f}.exp"] = slope(points[f]) if len(points[f]) >= 3 else 0.0
        out[f"fail.{f}"] = failed[f] / tried[f] if tried[f] else 0.0
    return out


def traced_pass(lib, records: list[Record], cap_seconds: float):
    """Re-run the given operations under the tracer, in the same order."""
    rows = []
    with Tracer() as tracer:
        stop = time.perf_counter() + cap_seconds
        for r in records:
            tracer.begin_op(r.index)
            again = run_one(lib, r.op, r.index, keep=True)
            calls, self_ms = tracer.end_op()
            counts = wl.layer_counts(lib, r.op, again.out) if again.out is not None else None
            again.out = None
            rows.append((r, again, calls, self_ms, counts))
            if time.perf_counter() >= stop:
                break
    return tracer, rows


def layer_metrics(rows) -> dict:
    n = len(rows)
    calls, self_ms = Counter(), Counter()
    for _, _, c, s, _ in rows:
        calls.update(c)
        self_ms.update(s)
    out = {}
    for name in LAYER_CALLS:
        out[f"{name}.calls"] = calls[name] / n
        out[f"{name}.self_ms"] = self_ms[name] / n
    for name in LAYER_CALLS_ONLY:
        out[f"{name}.calls"] = calls[name] / n
    sem = [(c, k) for _, _, c, _, k in rows if k is not None and "steps" in k]
    steps = sum(k["steps"] for _, k in sem)
    out["semantics.steps"] = steps / len(sem) if sem else 0.0
    out["semantics.normalize_per_step"] = (
        sum(c.get("semantics.normalize", 0) for c, _ in sem) / steps if steps else 0.0
    )
    out["semantics.states"] = statistics.fmean(k["states"] for _, k in sem) if sem else 0.0
    out["semantics.dedup_ratio"] = sum(k["dedup"] for _, k in sem) / steps if steps else 0.0
    for key in ("state_components", "state_nodes"):
        out[f"semantics.{key}"] = statistics.fmean(k[key] for _, k in sem) if sem else 0.0
    seen = [k["types_seen"] for *_, k in rows if k is not None and "types_seen" in k]
    out["typecheck.types_seen"] = statistics.fmean(seen) if seen else 0.0
    return out


def failure_table(failed: list[Record]) -> dict:
    """family -> {status or exception type: count}, over failed operations."""
    table: dict = defaultdict(Counter)
    for r in failed:
        what = r.error if r.status == wl.RAISED else r.status
        table[r.op.family][what] += 1
    return {f: dict(c) for f, c in sorted(table.items())}


def write_failures(path: Path, failed: list[Record], pool) -> None:
    """Every failed pool operation, with the pool's operations per family."""
    rows = [
        {"workload": r.op.workload, "family": r.op.family, "size": r.op.size,
         "tier": r.op.tier, "mutant": r.op.mutant, "status": r.status, "error": r.error}
        for r in failed
    ]
    attempted = Counter(op.family for op in pool)
    path.write_text(json.dumps({"attempted": attempted, "failed": rows}, indent=0) + "\n")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def setup(workload: str, seed: int):
    """Import minsess afresh and build the inputs; returns (lib, pool, s).

    The modules and inputs of an earlier set-up are collected first, so
    that every set-up starts from the same heap; no GC setting changes.
    """
    gc.collect()
    start = time.perf_counter()
    lib = gen.Lib()
    pool = gen.build_pool(lib, workload, seed)
    return lib, pool, time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not (SRC / "minsess" / "__init__.py").is_file():
        print(f"minsess sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setups = []
    window = time.perf_counter() + SETUP_WINDOW
    while len(setups) < SETUPS or time.perf_counter() < window:
        lib = pool = None  # release the previous set-up before the next
        lib, pool, took = setup(args.workload, args.seed)
        setups.append(took)
    if not Path(lib.ty.__file__).resolve().is_relative_to(SRC):
        print(f"minsess was imported from {lib.ty.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace == 0:
        records = measure(lib, pool, args.seconds)
        ranked = ranked_ms(records, args.seconds)
        metrics = {
            "p50_ms": (percentile(ranked, 0.5), "ms"),
            "p90_ms": (percentile(ranked, 0.9), "ms"),
            "ok_share": (1 - len(failed_ops(records, len(pool))) / len(pool), "ratio"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        wrong = [r for r in records if r.status == wl.WRONG]
    else:
        records = measure(lib, pool, args.seconds * TRACE_SHARE, min_ops=1)
        tracer, rows = traced_pass(lib, records[:len(pool)], args.seconds * TRACED_CAP)
        tracer.dump(OUT / f"spans-{tag}.tsv")
        untraced = sum(r.seconds for r, *_ in rows)
        traced = sum(again.seconds for _, again, *_ in rows)
        values = {**layer_metrics(rows), **family_metrics(records, pool)}
        values["trace.overhead"] = traced / untraced
        units = {m["name"]: m["unit"] for m in per_layer_spec()}
        metrics = {name: (values[name], unit) for name, unit in units.items()}
        wrong = [r for r in records if r.status == wl.WRONG]
        wrong += [again for _, again, *_ in rows if again.status == wl.WRONG]

    failed = failed_ops(records, len(pool))
    write_failures(OUT / f"failures-{tag}.json", failed, pool)
    for r in wrong[:5]:
        print(f"wrong answer: {r.op.family} size {r.op.size}: {r.error}")
    passes = [sum(r.seconds for r in records[i:i + len(pool)]) for i in range(0, len(records), len(pool))]
    print(f"pool {len(pool)} operations, {len(records)} timed in passes of "
          f"{[round(s, 3) for s in passes]} s; failed pool operations by family "
          f"{json.dumps(failure_table(failed))}")
    print(f"{len(setups)} set-ups, seconds: median {statistics.median(setups):.4f}, "
          f"min {min(setups):.4f}, max {max(setups):.4f}")
    result = {
        "correct": not wrong,
        "attempted": len(pool),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
