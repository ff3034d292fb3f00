"""Time one workload's pools in one process for several checkouts, interleaved.

    python3 tools/ab_pools.py --workload run --rounds 5 --src A/src --src B/src

imports `minsess` from each <dir> (a checkout's `src/`) in turn, each time
afresh (`perfbench/gen.py`'s `Lib` drops every `minsess` module from
`sys.modules` first), and builds the pools of seeds 1-3 of the workload with
that checkout, as `tools/dump_pools.py` does. Each round then times
`workloads.execute` once on every operation of every checkout, the
checkouts' order alternating from round to round, and checks each result
with `workloads.verify`; a result that is not `ok` ends the script with
status 1.

For each checkout it prints the sum, median and 90th percentile of the
per-operation minimums over the rounds, in milliseconds, and under that
line the sum for each family and tier of the pools, so a difference can be
traced to the protocols that make it. A minimum over
interleaved rounds discounts the host's noise that a single pass of each
side would keep. The benchmark directory is only read: no bytecode is
written to it.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEEDS = (1, 2, 3)


def load(src: Path, workload: str, gen):
    """The `minsess` modules imported from src and the workload's pools built with them."""
    sys.path.insert(0, str(src))
    try:
        lib = gen.Lib()
        if not Path(lib.ty.__file__).resolve().is_relative_to(src):
            raise SystemExit(f"minsess was imported from {lib.ty.__file__}, not {src}")
        ops = [op for seed in SEEDS for op in gen.build_pool(lib, workload, seed)]
    finally:
        sys.path.remove(str(src))
    return lib, ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("check", "run", "explore"))
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--src", action="append", required=True, type=lambda s: Path(s).resolve(),
                        help="directory that holds the minsess package; give one per checkout")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    import gen
    import workloads

    sides = [load(src, args.workload, gen) for src in args.src]
    best = [[float("inf")] * len(ops) for _, ops in sides]
    for k in range(args.rounds):
        order = range(len(sides)) if k % 2 == 0 else reversed(range(len(sides)))
        for s in order:
            lib, ops = sides[s]
            gc.collect()
            for i, op in enumerate(ops):
                start = time.perf_counter()
                out = workloads.execute(lib, op)
                took = time.perf_counter() - start
                status, detail = workloads.verify(lib, op, out)
                if status != workloads.OK:
                    print(f"{args.src[s]}: {op.family} size {op.size}: {status} {detail}",
                          file=sys.stderr)
                    return 1
                best[s][i] = min(best[s][i], took)
    for src, (_, ops), times in zip(args.src, sides, best):
        ms = [t * 1000 for t in times]
        p90 = statistics.quantiles(ms, n=10, method="inclusive")[-1]
        print(f"{src}: {len(ms)} operations, sum {sum(ms):.1f} ms, "
              f"p50 {statistics.median(ms):.3f} ms, p90 {p90:.3f} ms")
        groups: dict = {}
        for op, t in zip(ops, ms):
            groups.setdefault((op.family, op.tier), []).append(t)
        for (family, tier), group in sorted(groups.items()):
            print(f"  {family} {tier}: {len(group)} operations, sum {sum(group):.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
