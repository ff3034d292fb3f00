"""Long protocols through the public API, and how the cost of `run` grows.

A deep session is one binary session whose interactions cycle through an
Int message, a lin(Int) abstraction that the receiver applies beside its
continuation, and a choice, the two sides taking turns; a relay is a
source, forwarding stages and a sink, one channel per hop. Both are built
back to front with loops. Sessions side by side multiply `explore`'s
states, but not the components it builds.
"""

import pytest

from minsess import types
from minsess.semantics import _Comp, canonical_key, explore, normalize, run
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
    TermError,
    Var,
    alpha_eq,
    encode_namepass,
    free_names,
    parallel,
    rename_channel,
    substitute,
)
from minsess.typecheck import TypeEnvs, check_process, check_value
from minsess.types import BOOL, INT, SBra, SEnd, SIn, SOut, SRec, SSel, SVar, TArrow

END = SEnd()
LIN_INT = TArrow((INT,), shared=False)


def sname(base):
    return Name(base, None, False, "session")


def deep(n: int):
    """(deep session of n interactions, the number of steps it runs)."""
    s = sname("s")
    ends = {"A": s, "B": s.dualized()}
    procs = {"A": Inact(), "B": Inact()}
    t = END
    betas = 0
    for i in range(n - 1, -1, -1):
        snd, rcv = ("A", "B") if i % 2 == 0 else ("B", "A")
        if i % 3 == 2:
            arms = tuple((l, t if l == "go" else END) for l in ("go", "stop"))
            t = SSel(arms) if snd == "A" else SBra(arms)
            procs = {
                snd: Select(ends[snd], "go", procs[snd]),
                rcv: Branch(ends[rcv], (("go", procs[rcv]), ("stop", Inact()))),
            }
            continue
        x = Var(f"x{i}")
        rest = procs[rcv]
        if i % 3 == 1:
            u, value = LIN_INT, Abs(((Var("b"), INT),), Inact())
            rest = Par(App(x, (Lit(i),)), rest)
            betas += 1
        else:
            u, value = INT, Lit(i)
        t = SOut((u,), t) if snd == "A" else SIn((u,), t)
        procs = {snd: Output(ends[snd], (value,), procs[snd]), rcv: Input(ends[rcv], (x,), rest)}
    return Res(s, t, Par(procs["A"], procs["B"])), n + betas


def relay(n: int):
    """(relay through n stages, the number of steps it runs)."""
    chans = [sname(f"c{i}") for i in range(n + 1)]
    x = Var("x")
    comps = [Output(chans[0], (Lit(7),), Inact()), Input(chans[n].dualized(), (x,), Inact())]
    comps += [
        Input(chans[i - 1].dualized(), (x,), Output(chans[i], (x,), Inact()))
        for i in range(1, n + 1)
    ]
    p = parallel(comps[::2] + comps[1::2])
    for c in reversed(chans):
        p = Res(c, SOut((INT,), END), p)
    return p, n + 1


def rpc(chan: str, reply: int):
    """Five states on chan: the client selects "go", sends a lin(Int)
    abstraction and awaits an Int reply; the server replies and then
    applies the abstraction."""
    s, ns = sname(chan), sname(chan).dualized()
    x, y = Var("x"), Var("y")
    client = Select(s, "go", Output(s, (Abs(((Var("b"), INT),), Inact()),), Input(s, (y,), Inact())))
    serve = Input(ns, (x,), Output(ns, (Lit(reply),), App(x, (Lit(reply),))))
    t = SSel((("go", SOut((LIN_INT,), SIn((INT,), END))), ("stop", END)))
    return Res(s, t, Par(client, Branch(ns, (("go", serve), ("stop", Inact())))))


def chain(n: int, binder: str = "x"):
    """One component of n prefixes on s, inputs and outputs alternating."""
    s = sname("s")
    p = Inact()
    for i in range(n):
        p = Output(s, (Lit(i),), p) if i % 2 else Input(s.dualized(), (Var(f"{binder}{i}"),), p)
    return p


def test_long_chains_key_normalize_compare_and_substitute():
    s, r = sname("s"), sname("r")
    p = chain(1500)
    q = Res(s, SOut((INT,), END), p)
    key = canonical_key(q)
    assert key.startswith("nu n1.(n1!(lit:int:1499).n1~?(v2).n1!(lit:int:1497).")
    assert canonical_key(normalize(q)) == key
    assert alpha_eq(p, chain(1500, binder="y"))
    assert not alpha_eq(p, chain(1499))
    renamed = substitute(p, rename_channel(s, r))
    assert free_names(renamed) == [r, r.dualized()]
    assert canonical_key(Res(r, SOut((INT,), END), renamed)) == key


X = Var("x")


@pytest.mark.parametrize("misplace,message", [
    (lambda c: check_process(None, Par(Abs(((X, INT),), c), Inact())).diagnostics[0],
     "[Proc] at left: unknown process node Abs"),
    (lambda c: check_value(None, c)[1].diagnostics[0], "[Val] at top: unknown value node Output"),
    (lambda c: substitute(Output(X, (Lit(1),), Inact()), {X: c}),
     "substitution put a non-channel in subject position: Output"),
    (lambda c: encode_namepass(Abs(((X, INT),), c)),
     "unsupported construct for the first-order front end: Abs"),
], ids=["process", "value", "subject", "encoding"])
def test_a_long_misplaced_term_is_named_by_its_class(misplace, message):
    # printing the 3,000-prefix term itself would recurse once per prefix
    try:
        got = misplace(chain(3000))
    except TermError as e:
        got = e
    assert str(got) == message


def test_a_loop_unfolds_its_type_once_however_long_it_runs(monkeypatch):
    """A loop meets the same recursive type object at each round; the
    checker unfolds it once per call, at N = 50 and 200 rounds."""
    calls = 0
    unfold = types.unfold

    def counting(t):
        nonlocal calls
        calls += 1
        return unfold(t)

    monkeypatch.setattr(types, "unfold", counting)

    def unfolds(n):
        nonlocal calls
        s, y = sname("s"), Var("y")
        loop = SRec("t", SOut((INT,), SIn((BOOL,), SVar("t"))))
        p = App(y, (s,))
        for i in range(n):
            p = Output(s, (Lit(i),), Input(s, (Var(f"x{i}"),), p))
        calls = 0
        assert check_process(TypeEnvs(lam={y: TArrow((loop,), False)}, delta={s: loop}), p).ok
        return calls

    assert unfolds(50) == unfolds(200) > 0


def test_a_5000_interaction_deep_session_runs_to_inert():
    p, steps = deep(5000)
    t = run(p, fuel=2 * steps)
    assert t.status == "inert"
    assert len(t.steps) == steps
    assert isinstance(t.final, Inact)


@pytest.mark.parametrize("build", [deep, relay], ids=["deep", "relay"])
def test_run_work_grows_linearly(build):
    """Nodes rendered, substituted and scanned for free names, at N = 100
    and 400: a step that walked the whole state would grow 16 times."""

    def work(n):
        p, steps = build(n)
        t = run(p, fuel=steps + 1)
        assert t.status == "inert" and len(t.steps) == steps
        return sum(t.stats[k] for k in ("nodes_rendered", "nodes_substituted", "nodes_scanned"))

    small, large = work(100), work(400)
    assert 0 < large <= 4.5 * small


def test_run_renders_nothing_until_a_state_is_read():
    """`run` never asks for the order of a state; the states it reached
    are sorted, and normal, when they are read."""
    p, steps = deep(400)
    t = run(p, fuel=steps + 1)
    assert t.stats["nodes_rendered"] == t.stats["full_renderings"] == 0
    for x in (t.initial, *(s.term for s in t.steps), t.final):
        assert normalize(x) == x


@pytest.mark.parametrize("build", [deep, relay], ids=["deep", "relay"])
def test_reading_every_state_sorts_what_each_step_made(build, monkeypatch):
    """A state read takes the order of the state before it and merges in
    what its step made, so reading all of them compares components a
    number of times that grows as n log n at N = 100 and 400; sorting each
    state of a relay anew grows 22 times. The nodes rendered while reading
    grow linearly: rendering every component whole, however early two
    differ, grows 16 times on the deep session."""
    calls = 0
    less = _Comp.__lt__

    def counting(a, b):
        nonlocal calls
        calls += 1
        return less(a, b)

    monkeypatch.setattr(_Comp, "__lt__", counting)

    def read(n):
        nonlocal calls
        p, steps = build(n)
        t = run(p, fuel=steps + 1)
        calls = 0
        # `t.stats` is a copy taken when `run` returns; the work of reading
        # shows only in the counters of the memo the call's states share
        stats = t._start.memo.stats
        rendered = stats["nodes_rendered"]
        terms = [s.term for s in t.steps]
        return terms, calls, stats["nodes_rendered"] - rendered

    (terms, small, small_nodes), (_, large, large_nodes) = read(100), read(400)
    assert 0 < large <= 6 * small
    assert 0 < large_nodes <= 4.5 * small_nodes
    assert all(normalize(x) == x for x in terms)


def test_trace_and_exploration_count_their_work():
    p, steps = deep(12)
    t = run(p, fuel=steps + 1)
    assert t.stats["normalizations"] == steps + 1
    assert t.stats["components_built"] >= steps
    s, r = sname("s"), sname("r")
    pair = [Par(Output(c, (Lit(1),), Inact()), Input(c.dualized(), (Var("x"),), Inact())) for c in (s, r)]
    ex = explore(Res(s, SOut((INT,), END), Res(r, SOut((INT,), END), Par(*pair))))
    # the two one-step states are alpha-equivalent: one edge finds a known state
    assert ex.stats["dedup_hits"] == ex.edges - (len(ex.states) - 1) == 1
    assert ex.stats["normalizations"] == ex.edges + 1
    assert ex.stats["full_renderings"] >= 1


def test_explore_work_grows_linearly_in_the_sessions():
    """k distinct sessions side by side reach 5**k states, but each
    session's redexes make their components, and render them, once."""
    work = {}
    for k in (2, 3, 4):
        ex = explore(parallel([rpc(f"s{i}", i) for i in range(k)]))
        assert len(ex.states) == 5**k and not ex.truncated
        assert ex.stats["dedup_hits"] == ex.edges - (len(ex.states) - 1)
        # an edge to a state whose components were met before is not
        # normalized; distinct sessions commute, so every edge to a known
        # state reaches the very components it was first keyed with
        assert ex.stats["normalizations"] + ex.stats["identity_hits"] == ex.edges + 1
        assert ex.stats["identity_hits"] == ex.stats["dedup_hits"] > 0
        work[k] = ex.stats["components_built"], ex.stats["full_renderings"]
    for k in (3, 4):
        assert all(0 < w <= w2 * k / 2 for w, w2 in zip(work[k], work[2])), work
