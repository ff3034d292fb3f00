"""Byte-identical behaviour of `run` and `explore` on hand-built protocols,
and agreement of the public entry points with the states they reach.

`semantics_fixture.json` was recorded by the step loop that re-normalized
the whole state three times per step, before the state became a cached
soup; the soup must reproduce every trace step and every explored key
exactly. Regenerate it only for a deliberate change of behaviour:

    PYTHONPATH=src python tests/test_equivalence.py
"""

import json
from pathlib import Path

import pytest

from minsess.semantics import (
    _det_rank,
    apply_redex,
    canonical_key,
    enabled,
    explore,
    normalize,
    run,
)
from minsess.terms import (
    Abs,
    App,
    Branch,
    Inact,
    Input,
    Lit,
    Name,
    Output,
    Par,
    Res,
    Select,
    Var,
    parallel,
    prop_name,
    rec_server_name,
)
from minsess.types import BOOL, INT, SBra, SEnd, SIn, SOut, SSel, TArrow, TChan

FIXTURE = Path(__file__).with_name("semantics_fixture.json")
END = SEnd()
LIN_INT = TArrow((INT,), shared=False)
FUEL = 400


def sname(base, index=None):
    return Name(base, index, False, "session")


def sink():
    return Abs(((Var("b"), INT),), Inact(), shared=False)


# ---------------------------------------------------------------------------
# Protocols
# ---------------------------------------------------------------------------


def binary(inters, fork_base=None):
    """One session s between A (holding s) and B (holding ~s).

    inters, in order: ("msg", sender, "Int" | "Bool" | "Abs"),
    ("choice", selector, labels, chosen) or ("ho", sender): an abstraction
    over a channel of type ?<Int>;end that the receiver applies to a fresh
    restricted channel r, named `fork_base` if given (so forks collide)
    and r<i> otherwise.
    """
    s = sname("s")
    ends = {"A": s, "B": s.dualized()}
    t = END
    procs = {"A": Inact(), "B": Inact()}
    for i in range(len(inters) - 1, -1, -1):
        it = inters[i]
        if it[0] == "choice":
            _, sel, labels, chosen = it
            other = "B" if sel == "A" else "A"
            branches = tuple((l, t if l == chosen else END) for l in labels)
            t = SSel(branches) if sel == "A" else SBra(branches)
            new = {
                sel: Select(ends[sel], chosen, procs[sel]),
                other: Branch(
                    ends[other],
                    tuple((l, procs[other] if l == chosen else Inact()) for l in labels),
                ),
            }
        else:
            snd = it[1]
            rcv = "B" if snd == "A" else "A"
            x = Var(f"x{i}")
            rest = procs[rcv]
            if it[0] == "ho":
                c = SIn((INT,), END)
                y, z = Var(f"y{i}"), Var(f"z{i}")
                u = TArrow((c,), False)
                value = Abs(((y, c),), Input(y, (z,), Inact()), False)
                r = sname(fork_base or f"r{i}")
                fork = Res(r, c, Par(App(x, (r,)), Output(r.dualized(), (Lit(i),), Inact())))
                rest = Par(fork, rest)
            elif it[2] == "Abs":
                u, value = LIN_INT, sink()
                rest = Par(App(x, (Lit(i),)), rest)
            else:
                u = INT if it[2] == "Int" else BOOL
                value = Lit(i) if it[2] == "Int" else Lit(i % 2 == 0)
            t = SOut((u,), t) if snd == "A" else SIn((u,), t)
            new = {snd: Output(ends[snd], (value,), procs[snd]), rcv: Input(ends[rcv], (x,), rest)}
        procs = {side: new[side] for side in "AB"}
    return Res(s, t, Par(procs["A"], procs["B"]))


def relay(stages, abstraction):
    """A source, `stages` forwarding stages and a sink, one channel per hop,
    listed in a scrambled order."""
    value = sink() if abstraction else Lit(7)
    chans = [sname(f"c{i}") for i in range(stages + 1)]
    x = Var("x")
    tail = App(x, (Lit(3),)) if abstraction else Inact()
    comps = [Output(chans[0], (value,), Inact()), Input(chans[stages].dualized(), (x,), tail)]
    comps += [
        Input(chans[i - 1].dualized(), (x,), Output(chans[i], (x,), Inact()))
        for i in range(1, stages + 1)
    ]
    comps = comps[::3] + comps[1::3] + comps[2::3]
    annot = SOut((LIN_INT if abstraction else INT,), END)
    p = parallel(comps)
    for c in reversed(chans):
        p = Res(c, annot, p)
    return p


def rpc(chan, request, reply, is_abs=False, choice=False):
    """Request/response: optional "go" selection, a request, an Int reply;
    a server that received an abstraction applies it after replying."""
    s = sname(chan)
    x, y = Var("x"), Var("y")
    value = sink() if is_abs else Lit(request)
    tail = App(x, (Lit(reply),)) if is_abs else Inact()
    t = SOut((LIN_INT if is_abs else INT,), SIn((INT,), END))
    client = Output(s, (value,), Input(s, (y,), Inact()))
    server = Input(s.dualized(), (x,), Output(s.dualized(), (Lit(reply),), tail))
    if choice:
        t = SSel((("go", t), ("stop", END)))
        client = Select(s, "go", client)
        server = Branch(s.dualized(), (("go", server), ("stop", Inact())))
    return Res(s, t, Par(client, server))


def comm_pair(c, rest_out=None, rest_in=None):
    return Par(
        Output(c, (sink(),), rest_out or Inact()),
        Input(c.dualized(), (Var("x"),), rest_in or Inact()),
    )


ONE = SOut((LIN_INT,), END)


def reserved_order():
    c1, c2, c3 = prop_name(1), prop_name(2), prop_name(3)
    body = Par(comm_pair(c1), Par(comm_pair(c3), comm_pair(c2)))
    return Res(c1, ONE, Res(c2, ONE, Res(c3, ONE, body)))


def reserved_vs_source_and_beta():
    c1, s = prop_name(1), sname("s", 1)
    beta = App(Abs(((Var("z"), BOOL),), Inact()), (Lit(True),))
    return Res(c1, ONE, Res(s, ONE, Par(Par(comm_pair(s), comm_pair(c1)), beta)))


def unindexed_reserved_first():
    server = rec_server_name(sname("a", 1))
    c5 = prop_name(5)
    shared = Abs(((Var("b"), BOOL),), Inact(), shared=True)
    serve = Par(Output(server, (shared,), Inact()), Input(server, (Var("h"),), Inact()))
    return Res(server, TChan(TArrow((BOOL,), True)), Res(c5, ONE, Par(serve, comm_pair(c5))))


def rebinding(c):
    """A beta releases a restriction of c while the outer c is live (its
    output waits for an exchange on s), so the inner one is hoisted under
    a fresh name: the next index for a reserved c, a primed base otherwise."""
    s = sname("s")
    release = App(Abs(((Var("z"), BOOL),), Res(c, ONE, comm_pair(c))), (Lit(False),))
    outer = Par(
        Input(s.dualized(), (Var("w"),), Output(c, (sink(),), Inact())),
        Input(c.dualized(), (Var("x"),), Inact()),
    )
    body = parallel([outer, Output(s, (Lit(1),), Inact()), release])
    return Res(c, ONE, Res(s, SOut((INT,), END), body))


DEEP_SHORT = [
    ("msg", "A", "Int"), ("msg", "B", "Abs"), ("choice", "A", ("go", "stop"), "go"),
    ("msg", "B", "Bool"), ("msg", "A", "Abs"), ("choice", "B", ("l", "m", "r"), "m"),
]
DEEP_LONG = DEEP_SHORT + [
    ("ho", "A"), ("msg", "A", "Int"), ("msg", "B", "Int"), ("choice", "A", ("p", "q"), "q"),
    ("msg", "A", "Bool"), ("msg", "B", "Int"), ("msg", "A", "Abs"), ("msg", "B", "Bool"),
]

PROTOCOLS = {
    "deep-short": lambda: binary(DEEP_SHORT),
    "deep-long": lambda: binary(DEEP_LONG),
    "deep-forks-share-a-name": lambda: binary(
        [("ho", "A"), ("msg", "B", "Abs"), ("ho", "B"), ("ho", "A")], fork_base="r"
    ),
    "relay-10-int": lambda: relay(10, False),
    "relay-12-abs": lambda: relay(12, True),
    "rpc-2-same": lambda: Par(rpc("s4", 5, 6), rpc("s9", 5, 6)),
    "rpc-3-same-one-name": lambda: parallel([rpc("s", 1, 2, True, True)] * 3),
    "rpc-2-mixed": lambda: Par(rpc("s1", 10, 11, is_abs=True), rpc("s2", 20, 21, choice=True)),
    "rpc-3-mixed": lambda: parallel(
        [rpc("a", 1, 2), rpc("b", 3, 4, True, False), rpc("c", 5, 6, False, True)]
    ),
    "reserved-order": reserved_order,
    "reserved-vs-source-and-beta": reserved_vs_source_and_beta,
    "unindexed-reserved-first": unindexed_reserved_first,
    "reserved-rebinding": lambda: rebinding(prop_name(1)),
    "ordinary-rebinding": lambda: rebinding(sname("a")),
}


# ---------------------------------------------------------------------------
# Recording and comparison
# ---------------------------------------------------------------------------


def observe(p) -> dict:
    t = run(p, fuel=FUEL)
    ex = explore(p, fuel=FUEL)
    return {
        "run": {
            "initial": canonical_key(t.initial),
            "steps": [[s.kind, s.subject, s.label, canonical_key(s.term)] for s in t.steps],
            "status": t.status,
        },
        "explore": {
            "depth": dict(sorted(ex.depth.items())),
            "terminals": dict(sorted(ex.terminals.items())),
            "edges": ex.edges,
            "truncated": ex.truncated,
        },
    }


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_protocol(recorded):
    assert sorted(recorded) == sorted(PROTOCOLS)


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_run_and_explore_reproduce_the_fixture(name, recorded):
    assert observe(PROTOCOLS[name]()) == recorded[name]


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_entry_points_agree_with_run(name):
    t = run(PROTOCOLS[name](), fuel=FUEL)
    states = [t.initial] + [s.term for s in t.steps]
    for state, nxt in zip(states, states[1:]):
        assert normalize(state) == state
        assert apply_redex(state, min(enabled(state), key=_det_rank)) == nxt
    assert normalize(t.final) == t.final and not enabled(t.final)


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_entry_points_agree_with_explore(name):
    ex = explore(PROTOCOLS[name](), fuel=FUEL)
    for key, state in ex.states.items():
        assert normalize(state) == state
        assert canonical_key(state) == key
        for r in enabled(state):
            succ = canonical_key(apply_redex(state, r))
            assert ex.depth[succ] <= ex.depth[key] + 1


if __name__ == "__main__":
    data = {name: observe(make()) for name, make in sorted(PROTOCOLS.items())}
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE} ({FIXTURE.stat().st_size} bytes)")
