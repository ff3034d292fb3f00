"""Print what `minsess` computes on the benchmark's pools, one line per item.

    python3 tools/dump_pools.py --src <dir>

imports `minsess` from <dir> (a checkout's `src/`) and builds the pools of
seeds 1-3 of every workload with `perfbench/gen.py` next to this file.
Each line names its operation (workload, seed, position, family, size)
and gives one item of what it computed:

  check    the verdict, every diagnostic, the number of types seen and,
           for `deleg`, the template of the encoded process; then the
           decomposition of the session type, its dual, and the types the
           restrictions and abstractions of the checked process hold in
           preorder, each as the count and a sha256 of their `canon_key`s;
  run      the template of the initial state, the status, then a line
           per step: its kind, subject, label and the key of the state it
           reached, and a line with the template of that state's term;
           each template is of the term as `run` materialized it, so it
           shows the component order that the key re-sorts away; then
           a line with every counter of the run's `stats`;
  explore  two lines per state: its depth, terminal status and key, and
           the template of the term stored under that key with the count
           and sha256 of the types its restrictions and abstractions hold,
           which the template erases; then the edge count and whether the
           exploration was truncated, and a line with every counter of its
           `stats`.

Counters are printed sorted by name, so the dumps also show whether two
checkouts do the same work, not only whether they compute the same results.

The last line gives the number of lines before it and their sha256, so two
checkouts compute the same outputs when their dumps compare equal under
`cmp`. The benchmark directory is only read: no bytecode is written to it.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEEDS = (1, 2, 3)


def keyed(lib, types) -> str:
    """The count of types and the sha256 of their keys, one per line."""
    keys = [lib.ty.canon_key(t) + "\n" for t in types]
    return f"{len(keys)} {hashlib.sha256(''.join(keys).encode()).hexdigest()}"


def held_types(lib, process):
    """The types the restrictions and abstractions of process hold, in preorder."""
    for x in lib.tm.iter_subterms(process):
        if isinstance(x, lib.tm.Res):
            yield x.annot
        elif isinstance(x, lib.tm.Abs):
            yield from (c for _, c in x.params)


def counted(stats) -> str:
    return " ".join(f"{k}={stats[k]}" for k in sorted(stats))


def check_lines(lib, op):
    process, encoded = op.inputs["process"], ""
    if op.family == "deleg":
        process = lib.tm.encode_namepass(process, op.inputs["name_types"])
        encoded = lib.tm.template(process)[0]
    result = lib.tc.check_process(op.inputs["envs"], process)
    diagnostics = " | ".join(map(str, result.diagnostics))
    yield f"{result.ok} [{diagnostics}] {len(result.types_seen)} {encoded}"
    stype = op.inputs["stype"]
    yield f"parts {keyed(lib, lib.ty.gdecomp(stype))}"
    yield f"dual {keyed(lib, [lib.ty.dual(stype)])}"
    yield f"held {keyed(lib, held_types(lib, process))}"


def run_lines(lib, op):
    trace = lib.sem.run(op.inputs["process"])
    yield f"initial {lib.tm.template(trace.initial)[0]}"
    yield trace.status
    for s in trace.steps:
        yield f"step {s.index} {s.kind} {s.subject} {s.label} {lib.sem.canonical_key(s.term)}"
        yield f"term {s.index} {lib.tm.template(s.term)[0]}"
    yield f"stats {counted(trace.stats)}"


def explore_lines(lib, op):
    ex = lib.sem.explore(op.inputs["process"])
    for k in ex.states:
        yield f"state {ex.depth[k]} {ex.terminals.get(k)} {k}"
        t = ex.states[k]
        yield f"stored {lib.tm.template(t)[0]} {keyed(lib, held_types(lib, t))}"
    yield f"edges {ex.edges} truncated {ex.truncated}"
    yield f"stats {counted(ex.stats)}"


LINES = {"check": check_lines, "run": run_lines, "explore": explore_lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory that holds the minsess package")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(Path(args.src).resolve()), str(BENCH)]
    import gen

    lib = gen.Lib()
    digest, count = hashlib.sha256(), 0
    for workload, lines in LINES.items():
        for seed in SEEDS:
            for i, op in enumerate(gen.build_pool(lib, workload, seed)):
                for line in lines(lib, op):
                    text = f"{workload} {seed} {i} {op.family} {op.size} {line}\n"
                    digest.update(text.encode())
                    count += 1
                    sys.stdout.write(text)
    print(f"{count} lines, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
