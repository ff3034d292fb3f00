"""Tests of the benchmark itself: generator, references, tracer, harness.

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run as harness  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return gen.Lib()


def small_pool(lib, workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    make = {"check": gen.check_pool, "run": gen.run_pool, "explore": gen.explore_pool}[workload]
    return make(lib, rng, {"check": 1, "run": 3, "explore": 1}[workload])


def ops_equal(a, b) -> bool:
    return (a.family, a.size, a.tier, a.mutant) == (b.family, b.size, b.tier, b.mutant) and (
        wl.same_tree(tuple(sorted(a.inputs.items())), tuple(sorted(b.inputs.items())))
        and wl.same_tree(tuple(sorted(a.ref.items())), tuple(sorted(b.ref.items())))
    )


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["check", "run", "explore"])
def test_same_seed_same_inputs(lib, workload):
    a, b = small_pool(lib, workload, 3), small_pool(lib, workload, 3)
    assert len(a) == len(b)
    assert all(ops_equal(x, y) for x, y in zip(a, b))
    c = small_pool(lib, workload, 4)
    assert not all(ops_equal(x, y) for x, y in zip(a, c))


def test_check_block_shares(lib):
    block = small_pool(lib, "check", 1)
    assert len(block) == gen.CHECK_BLOCK
    assert sorted(op.mutant for op in block if op.mutant) == sorted(gen.MUTANTS)
    assert sum(op.tier == "long" for op in block) == 1
    for f in gen.CHECK_FAMILIES:
        assert sum(op.family == f for op in block) == 4


def brute_force(lengths, same):
    """States, edges and terminals of independent chains by enumeration;
    identical copies are identified up to permutation."""
    start = tuple(0 for _ in lengths)
    key = (lambda s: tuple(sorted(s))) if same else (lambda s: s)
    seen, frontier, edges, terminals = {key(start)}, [start], 0, 0
    while frontier:
        nxt = []
        for state in frontier:
            succ = [state[:i] + (q + 1,) + state[i + 1:]
                    for i, q in enumerate(state) if q + 1 < lengths[i]]
            if not succ:
                terminals += 1
            edges += len(succ)
            for t in succ:
                if key(t) not in seen:
                    seen.add(key(t))
                    nxt.append(t)
        frontier = nxt
    return {"states": len(seen), "edges": edges, "terminals": terminals}


SHAPES = [gen.Rpc(a, c, 1, 2, 3) for a in (False, True) for c in (False, True)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_explore_reference_matches_enumeration(k):
    for shape in SHAPES:
        assert gen.explore_counts([shape] * k, True) == brute_force([shape.states] * k, True)
    for combo in itertools.product(SHAPES, repeat=k):
        assert gen.explore_counts(list(combo), False) == brute_force([r.states for r in combo], False)


EXPECTED_RULE = {
    "payload": {"Val"},
    "label": {"Sel"},
    "arity": {"Send"},
    "lintwice": {"Var"},
    # the unfinished endpoint is caught by the rule that closes its scope
    "unfinished": {"Par", "Bra", "Abs"},
}


@pytest.mark.parametrize(
    "family,mutant",
    [(f, m) for m in gen.MUTANTS for f in gen.MUTANT_FAMILIES[m]],
)
def test_each_mutant_breaks_one_rule(lib, family, mutant):
    kit = gen.Kit(lib)
    for n in (8, 21, 40):
        base = gen.check_op(kit, random.Random(n), family, n, "normal", None)
        bad = gen.check_op(kit, random.Random(n), family, n, "normal", mutant)
        assert base.ref["ok"] and not bad.ref["ok"]
        verdicts = []
        for op in (base, bad):
            p = op.inputs["process"]
            if family == "deleg":
                p = lib.tm.encode_namepass(p, op.inputs["name_types"])
            verdicts.append(lib.tc.check_process(op.inputs["envs"], p))
        assert verdicts[0].ok, verdicts[0].first_error()
        assert not verdicts[1].ok
        assert [d.rule for d in verdicts[1].diagnostics][0] in EXPECTED_RULE[mutant]


def test_long_protocols_build_without_recursion(lib):
    kit = gen.Kit(lib)
    for f in gen.CHECK_FAMILIES:
        op = gen.check_op(kit, random.Random(0), f, 4000, "long", None)
        assert wl.term_nodes(lib, op.inputs["process"]) > 4000


# ---------------------------------------------------------------------------
# Checking against references
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["check", "run", "explore"])
def test_references_hold_and_wrong_reference_fails(lib, workload):
    pool = small_pool(lib, workload, 5)
    pick = next(op for op in pool if op.family in ("msg", "wide", "rpc-same", "rpc-mixed"))
    rec = harness.run_one(lib, pick, 0)
    assert rec.status == wl.OK, rec.error
    key = {"check": "ok", "run": "steps", "explore": "states"}[workload]
    pick.ref[key] = not pick.ref[key] if key == "ok" else pick.ref[key] + 1
    rec = harness.run_one(lib, pick, 0)
    assert rec.status == wl.WRONG and rec.failed


def test_failed_operations_rank_above_successes():
    class Op:
        family, size, mutant = "msg", 8, None

    recs = [harness.Record(i, Op(), 0.5, wl.OK, None, None) for i in range(8)]
    recs += [harness.Record(8 + i, Op(), 0.001, wl.RAISED, "TypeError", None) for i in range(2)]
    ranked = harness.ranked_ms(recs, 10)
    assert harness.percentile(ranked, 0.5) == 500.0
    assert harness.percentile(ranked, 0.9) > max(r.seconds for r in recs) * 1e3


def test_runs_whole_passes_and_counts_pool_failures(lib):
    pool = small_pool(lib, "run", 5)  # deep protocols fail at seed
    records = harness.measure(lib, pool, 0.0, min_ops=len(pool) + 1)
    assert len(records) == 2 * len(pool)
    assert [r.op for r in records] == pool + pool
    failed = harness.failed_ops(records, len(pool))
    assert failed == [r for r in records[:len(pool)] if r.failed]


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


def minsess_attributes():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name.startswith("minsess") and mod is not None
        for attr, value in vars(mod).items()
    }


def test_tracer_wraps_aliases_and_restores_them(lib):
    before = minsess_attributes()
    original = lib.tm.substitute
    with Tracer():
        assert lib.sem.substitute is lib.tm.substitute is not original
        assert lib.tc.equal_types is lib.ty.equal_types
        changed = [k for k, v in minsess_attributes().items() if before[k] is not v]
        assert ("minsess.semantics", "substitute") in changed
    after = minsess_attributes()
    assert all(after[k] is v for k, v in before.items())


def test_tracer_layers_per_workload(lib):
    counts = {}
    for workload in ("check", "run", "explore"):
        pool = small_pool(lib, workload, 2)[:6]
        with Tracer() as tracer:
            calls = Counter()
            for i, op in enumerate(pool):
                tracer.begin_op(i)
                harness.run_one(lib, op, i)
                calls.update(tracer.end_op()[0])
        counts[workload] = calls
        spans = [s for s in tracer.spans if s is not None]
        assert spans and all(s[2] <= s[3] for s in spans)
    assert not any(k.startswith("semantics.") for k in counts["check"])
    assert counts["check"]["typecheck.check_process"] > 0
    for workload in ("run", "explore"):
        assert counts[workload]["typecheck.check_process"] == 0
        assert counts[workload]["semantics.normalize"] > 0


def test_recursive_function_timed_at_outermost_call(lib):
    kit = gen.Kit(lib)
    op = gen.check_op(kit, random.Random(1), "msg", 30, "normal", None)
    with Tracer() as tracer:
        tracer.begin_op(0)
        lib.ty.gdecomp(op.inputs["stype"])
        calls, _ = tracer.end_op()
    assert calls["types.gdecomp"] > 1
    assert sum(1 for s in tracer.spans if s and s[1] == "types.gdecomp") == 1


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [m["name"] for m in harness.per_layer_spec()]
    assert {w["name"] for w in spec["workloads"]} == set(harness.WORKLOADS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "check", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""

