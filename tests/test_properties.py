"""Properties of state identity over generated closed sessions.

Two families of protocols are generated: a binary session of one to four
interactions (an Int literal or a lin(Int) abstraction sent either way, or
a choice made by either side), and two or three request/response sessions
in parallel, whose channel names may clash. A protocol and its
alpha-variants must have the same key and explored key set; a variant
renames input and abstraction binders to fresh identifiers and may also
rename restriction binders and permute the parallel components under the
top-level restrictions. Every state a protocol reaches must be normal and
well typed, and `explore`, which reuses what a redex makes, must reach
what a search that builds every state from its term reaches. A protocol is alpha-equal to its variant with every binder
renamed and to its image under the identity substitution. Checking a
protocol twice gives the same verdict. `explore` and `run` compute
and count the same on a protocol whether it shares one object per name or
holds a new one at every occurrence.

Substitution avoids capture: a protocol opened up with a free name and
free variables beside every binder's scope, under a substitution whose
values reuse the identifiers the protocol binds, gives the same result as
its alpha-variant does, and the free names and variables the law of
substitution predicts.

Session types are generated from the end backwards: Int and Bool
messages, higher-order payloads over a short generated protocol, binary
choices of either polarity, and, at the tail, a loop around a recursion
binder: a tail loop of messages, a loop whose variable rides in a payload,
or a loop of messages under a choice. Duality is an involution on them (up
to one unfolding of a payload loop), their decomposition is minimal
outside loops under a choice, a loop equals its unfolding, and keys ignore
binder names. A selection arm carries the decomposition of its dual
continuation, which outside non-tail loops is the duals of the
continuation's parts.
"""

import copy
import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

from minsess.semantics import (
    _as_soup, _det_rank, _key, apply_redex, canonical_key, enabled, explore, normalize, run,
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
    alpha_eq,
    free_names,
    free_vars,
    parallel,
    prop_name,
    substitute,
    template,
)
from minsess.typecheck import check_process
from minsess.types import (
    BOOL,
    INT,
    SBra,
    SEnd,
    SIn,
    SOut,
    SRec,
    SSel,
    SVar,
    TArrow,
    TBase,
    balanced,
    canon_key,
    dual,
    env_step,
    equal_types,
    gdecomp,
    is_minimal,
    is_tail_recursive,
    unfold,
)
from test_semantics import bool_session

END = SEnd()
LIN_INT = TArrow((INT,), shared=False)
LABELS = ("l", "r")
FRESH = tuple(f"q{i}" for i in range(40))
SETTINGS = settings(max_examples=40, deadline=None)


def sname(base):
    return Name(base, None, False, "session")


def sink():
    return Abs(((Var("b"), INT),), Inact())


@st.composite
def binary_sessions(draw, chan="s"):
    """(νs:T)(A | B), A holding s and B holding ~s, T written from A's
    side; a received abstraction is applied beside the continuation."""
    s = sname(chan)
    a, b, t = Inact(), Inact(), END
    steps = st.tuples(st.sampled_from(("int", "abs", "choice")), st.booleans(), st.integers(0, 2))
    for kind, a_acts, v in reversed(draw(st.lists(steps, min_size=1, max_size=4))):
        act, other = (s, s.dualized()) if a_acts else (s.dualized(), s)
        p, q = (a, b) if a_acts else (b, a)
        if kind == "choice":
            chosen = LABELS[v % 2]
            p = Select(act, chosen, p)
            q = Branch(other, tuple((l, q if l == chosen else Inact()) for l in LABELS))
            arms = tuple((l, t if l == chosen else END) for l in LABELS)
            t = SSel(arms) if a_acts else SBra(arms)
        else:
            x = Var("x")
            if kind == "int":
                u, value = INT, Lit(v)
            else:
                u, value = LIN_INT, sink()
                q = Par(App(x, (Lit(v),)), q)
            p = Output(act, (value,), p)
            q = Input(other, (x,), q)
            t = SOut((u,), t) if a_acts else SIn((u,), t)
        a, b = (p, q) if a_acts else (q, p)
    return Res(s, t, Par(a, b))


@st.composite
def request_response(draw):
    """Two or three sessions: the client may select "go", sends an Int or
    a lin(Int) abstraction and awaits an Int reply; a server that received
    an abstraction applies it after replying."""
    sessions = []
    for _ in range(draw(st.integers(2, 3))):
        s = sname(draw(st.sampled_from(("a", "b", "c"))))
        is_abs, choice = draw(st.booleans()), draw(st.booleans())
        request, reply, arg = (draw(st.integers(0, 2)) for _ in range(3))
        x, y = Var("x"), Var("y")
        t = SOut((LIN_INT if is_abs else INT,), SIn((INT,), END))
        client = Output(s, (sink() if is_abs else Lit(request),), Input(s, (y,), Inact()))
        tail = App(x, (Lit(arg),)) if is_abs else Inact()
        server = Input(s.dualized(), (x,), Output(s.dualized(), (Lit(reply),), tail))
        if choice:
            t = SSel((("go", t), ("stop", END)))
            client = Select(s, "go", client)
            server = Branch(s.dualized(), (("go", server), ("stop", Inact())))
        sessions.append(Res(s, t, Par(client, server)))
    return parallel(sessions)


protocols = st.one_of(binary_sessions(), request_response())


def alpha(t, fresh, names: bool = True):
    """t with every input and abstraction binder, and with names also
    every restriction binder, renamed to the next identifier of fresh."""

    def go(t, nenv: dict, venv: dict):
        def name(n):
            new = nenv.get(n.dualized() if n.dual else n)
            if new is None:
                return n
            return new.dualized() if n.dual else new

        def val(v):
            if isinstance(v, Var):
                return venv.get(v, v)
            if isinstance(v, Name):
                return name(v)
            if isinstance(v, Abs):
                ps = {x: Var(next(fresh)) for x, _ in v.params}
                params = tuple((ps[x], c) for x, c in v.params)
                return Abs(params, go(v.body, nenv, {**venv, **ps}), v.shared)
            return v

        if isinstance(t, Inact):
            return t
        if isinstance(t, Output):
            return Output(val(t.subject), tuple(map(val, t.payload)), go(t.cont, nenv, venv))
        if isinstance(t, Input):
            bs = {x: Var(next(fresh)) for x in t.binders}
            binders = tuple(bs[x] for x in t.binders)
            return Input(val(t.subject), binders, go(t.cont, nenv, {**venv, **bs}))
        if isinstance(t, Select):
            return Select(val(t.subject), t.label, go(t.cont, nenv, venv))
        if isinstance(t, Branch):
            return Branch(val(t.subject), tuple((l, go(p, nenv, venv)) for l, p in t.branches))
        if isinstance(t, App):
            return App(val(t.fun), tuple(map(val, t.args)))
        if isinstance(t, Par):
            return Par(go(t.left, nenv, venv), go(t.right, nenv, venv))
        if not names:
            return Res(t.binder, t.annot, go(t.body, nenv, venv))
        b = Name(next(fresh), t.binder.index, False, t.binder.kind)
        return Res(b, t.annot, go(t.body, {**nenv, t.binder: b}, venv))

    return go(t, {}, {})


def shuffled(draw, t):
    """t with the parallel components under its top-level restrictions,
    at every level, permuted."""
    if isinstance(t, Res):
        return Res(t.binder, t.annot, shuffled(draw, t.body))
    parts, stack = [], [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Par):
            stack += (u.right, u.left)
        else:
            parts.append(shuffled(draw, u) if isinstance(u, Res) else u)
    return parallel(draw(st.permutations(parts)))


@st.composite
def variants(draw, family, whole: bool = True):
    """(p, an alpha-variant of p): whole renames every binder and permutes
    the components, otherwise only input and abstraction binders are
    renamed."""
    p = draw(family)
    q = alpha(p, iter(draw(st.permutations(FRESH))), names=whole)
    return p, shuffled(draw, q) if whole else q


def assert_same_identity(p, q):
    assert canonical_key(p) == canonical_key(q)
    assert set(explore(p).states) == set(explore(q).states)


@SETTINGS
@given(variants(protocols, whole=False))
def test_key_ignores_variable_names(pair):
    assert_same_identity(*pair)


@SETTINGS
@given(variants(binary_sessions()))
def test_key_ignores_names_and_order_in_one_session(pair):
    assert_same_identity(*pair)


def _rpc_pair(first: str, second: str):
    """Two sessions whose clients render alike and whose servers do not."""
    s, r = sname(first), sname(second)
    t = SOut((LIN_INT,), SIn((INT,), END))

    def session(c, reply):
        client = Output(c, (sink(),), Input(c, (Var("y"),), Inact()))
        reply_then_apply = Output(c.dualized(), (Lit(reply),), App(Var("x"), (Lit(0),)))
        server = Input(c.dualized(), (Var("x"),), reply_then_apply)
        return Res(c, t, Par(client, server))

    return Par(session(s, 1), session(r, 2))


@pytest.mark.xfail(
    strict=True,
    reason="components whose abstract keys tie are ordered by their literal "
    "names, so the hoisted binders' numbering, and with it the key, can "
    "depend on the names of distinct sessions",
)
@SETTINGS
@example((_rpc_pair("a", "b"), _rpc_pair("b", "a")))
@given(variants(protocols))
def test_key_ignores_names_and_order(pair):
    assert_same_identity(*pair)


@SETTINGS
@given(protocols)
def test_reached_states_are_normal_and_well_typed(p):
    assert check_process(None, p).ok
    ex = explore(p)
    assert not ex.truncated
    for key, state in ex.states.items():
        assert normalize(state) == state
        assert canonical_key(state) == key
        result = check_process(None, state)
        assert result.ok, result.first_error()


@SETTINGS
@given(protocols, st.permutations(FRESH))
def test_alpha_variants_and_identity_substitution_are_alpha_equal(p, fresh):
    assert alpha_eq(p, alpha(p, iter(fresh), names=True))
    assert alpha_eq(substitute(p, {}), p)


M = sname("m")


def leak():
    """A component with the free name m, the free subject w and the free
    payload z."""
    return Output(M, (Var("z"),), Output(Var("w"), (Lit(0),), Inact()))


def planted(t):
    """t with `leak()` beside the scope of every binder."""
    if isinstance(t, Par):
        return Par(planted(t.left), planted(t.right))
    if isinstance(t, Res):
        return Res(t.binder, t.annot, Par(leak(), planted(t.body)))
    if isinstance(t, Input):
        return Input(t.subject, t.binders, Par(leak(), planted(t.cont)))
    if isinstance(t, Output):
        payload = tuple(
            Abs(v.params, Par(leak(), planted(v.body)), v.shared) if isinstance(v, Abs) else v
            for v in t.payload
        )
        return Output(t.subject, payload, planted(t.cont))
    if isinstance(t, Select):
        return Select(t.subject, t.label, planted(t.cont))
    if isinstance(t, Branch):
        return Branch(t.subject, tuple((l, planted(p)) for l, p in t.branches))
    return t


@st.composite
def capturing_substitutions(draw):
    """σ on m, ~m, w and z, whose values reuse the identifiers that the
    generated protocols bind: inputs x and y, abstraction parameters b,
    restrictions s, a, b and c. σ also maps a variable no protocol uses,
    named as the first fresh identifier for a renamed binder is."""
    n = sname(draw(st.sampled_from("sabc")))
    consumer = Abs(((Var("v"), INT),), Output(n, (Var("y"),), App(Var("x"), (Var("v"),))))
    vmap = {
        Var("z"): draw(st.sampled_from((Var("x"), Var("y"), Var("b"), consumer, Lit(1)))),
        Var("w"): draw(st.sampled_from((n, n.dualized(), Var("x")))),
        Var(draw(st.sampled_from(("x'", "y'", "b'")))): Lit(2),
    }
    return {**vmap, M: n, M.dualized(): n.dualized()}


def free(t) -> set:
    return set(free_names(t)) | set(free_vars(t))


@SETTINGS
@given(protocols, capturing_substitutions(), st.permutations(FRESH))
def test_substitution_avoids_capture(p, sigma, fresh):
    q = Par(leak(), planted(p))
    got = substitute(q, sigma)
    assert alpha_eq(got, substitute(alpha(q, iter(fresh)), sigma))
    images = dict(sigma)
    want = free(q) - set(images)
    for x in free(q) & set(images):
        want |= free(images[x])
    assert free(got) == want


@SETTINGS
@given(protocols)
def test_check_process_is_deterministic(p):
    first, second = check_process(None, p), check_process(None, p)
    assert first.ok == second.ok
    assert first.first_error() == second.first_error()
    assert len(first.types_seen) == len(second.types_seen)


@st.composite
def relays(draw):
    """A source, one to five forwarding stages and a sink, one channel per
    hop, in a drawn order; the value is an Int or a lin(Int) abstraction
    the sink applies."""
    n = draw(st.integers(1, 5))
    chans = [sname(b) for b in draw(st.permutations(FRESH))[: n + 1]]
    is_abs = draw(st.booleans())
    x = Var("x")
    comps = [
        Output(chans[0], (sink() if is_abs else Lit(draw(st.integers(0, 2))),), Inact()),
        Input(chans[n].dualized(), (x,), App(x, (Lit(0),)) if is_abs else Inact()),
    ]
    comps += [
        Input(chans[i - 1].dualized(), (x,), Output(chans[i], (x,), Inact()))
        for i in range(1, n + 1)
    ]
    p = parallel(draw(st.permutations(comps)))
    for c in reversed(chans):
        p = Res(c, SOut((LIN_INT if is_abs else INT,), END), p)
    return p


RELEASES = ("none", "same", "other", "dead")


@st.composite
def clashing_sessions(draw):
    """Int messages from A to B on c, a plain or a reserved name. After
    each, B may release a restriction: of c itself, hoisted and live or
    just dead, so it is renamed; of another name, which two releases may
    share; or of a name it never uses, which is dropped. A released
    channel carries one abstraction, which is applied."""
    c = draw(st.sampled_from((sname("c"), prop_name(1), prop_name(2))))
    other = draw(st.sampled_from((sname("d"), sname("c"), prop_name(1), prop_name(3))))
    one = SOut((LIN_INT,), END)

    def pair(n):
        x = Var("x")
        return Par(Output(n, (sink(),), Inact()), Input(n.dualized(), (x,), App(x, (Lit(1),))))

    releases = draw(st.lists(st.sampled_from(RELEASES), min_size=1, max_size=4))
    a, b, t = Inact(), Inact(), END
    for k, release in reversed(list(enumerate(releases))):
        if release == "same":
            b = Par(Res(c, one, pair(c)), b)
        elif release == "other":
            b = Par(Res(other, one, pair(other)), b)
        elif release == "dead":
            b = Par(Res(other, one, Inact()), b)
        a = Output(c, (Lit(k),), a)
        b = Input(c.dualized(), (Var("y"),), b)
        t = SOut((INT,), t)
    return Res(c, t, Par(a, b))


@SETTINGS
@given(st.one_of(protocols, relays(), clashing_sessions()))
def test_run_agrees_with_the_term_path(p):
    """Each state `run` reaches is the normal form of its own materialized
    term, and firing the policy's redex on that term from scratch gives the
    next state."""
    t = run(p, fuel=60)
    assert t.status == "inert"
    states = [t.initial] + [s.term for s in t.steps]
    for step, state, nxt in zip(t.steps, states, states[1:]):
        assert normalize(state) == state
        r = min(enabled(state), key=_det_rank)
        assert (r.kind, r.label) == (step.kind, step.label)
        assert step.subject == (None if r.subject is None else str(r.subject))
        assert apply_redex(state, r) == nxt
    assert normalize(t.final) == t.final and not enabled(t.final)


def _ending(term) -> str:
    """How a state with no redex ends: "inert" if every component is a
    prefix waiting for a partner, else "stuck"."""
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Res):
            stack.append(t.body)
        elif isinstance(t, Par):
            stack += (t.left, t.right)
        elif not isinstance(t, (Inact, Input, Output, Select, Branch)):
            return "stuck"
    return "inert"


def _term_path_closure(p):
    """(depth of each key, terminals, edges) of a breadth-first search that
    fires every enabled redex on each materialized state, from scratch."""
    first = normalize(p)
    depth = {canonical_key(first): 0}
    terminals: dict = {}
    edges = 0
    frontier = [first]
    while frontier:
        nxt = []
        for t in frontier:
            k = canonical_key(t)
            rs = enabled(t)
            if not rs:
                terminals[k] = _ending(t)
            for r in rs:
                u = apply_redex(t, r)
                edges += 1
                uk = canonical_key(u)
                if uk not in depth:
                    depth[uk] = depth[k] + 1
                    nxt.append(u)
        frontier = nxt
    return depth, terminals, edges


@SETTINGS
@given(st.one_of(
    protocols, relays(),
    st.tuples(clashing_sessions(), clashing_sessions()).map(lambda pq: Par(*pq)),
))
def test_explore_agrees_with_the_term_path(p):
    """`explore`, which reuses the components a redex makes wherever it
    fires again, reaches the states, depths, edges and terminals of a
    search in which every step builds its state anew. Two clashing
    sessions side by side meet reused redexes with ones whose released
    restrictions are hoisted and renamed. An edge that `explore` resolves
    by the components it would reach is not normalized, and every stored
    state has the key it is stored under."""
    ex = explore(p)
    assert not ex.truncated
    depth, terminals, edges = _term_path_closure(p)
    assert ex.depth == depth and set(ex.states) == set(depth)
    assert ex.terminals == terminals
    assert ex.edges == edges
    assert all(canonical_key(t) == k for k, t in ex.states.items())
    assert ex.stats["normalizations"] + ex.stats["identity_hits"] == ex.edges + 1


@SETTINGS
@given(st.one_of(protocols, relays()), st.one_of(protocols, relays()))
def test_tuple_keys_and_text_keys_split_states_alike(p, q):
    """`explore` tells states apart by their `_key` tuples and prints them
    as text: two states of two explorations have equal tuples exactly when
    they have equal texts, each keyed afresh from its term."""
    states = [*explore(p).states.values(), *explore(q).states.values()]
    keys = [(_key(_as_soup(t)), canonical_key(t)) for t in states]
    for a, b in keys:
        for c, d in keys:
            assert (a == c) == (b == d)


def _rebuilt(t, name):
    """t with each occurrence n of a name replaced by name(n); types are
    kept as they are."""
    if isinstance(t, Name):
        return name(t)
    if isinstance(t, tuple):
        return tuple(_rebuilt(x, name) for x in t)
    if isinstance(t, (Output, Input, Select, Branch, App, Par, Res, Abs)):
        fields = dataclasses.fields(t)
        return type(t)(**{f.name: _rebuilt(getattr(t, f.name), name) for f in fields if f.init})
    return t


def _outcome(p) -> tuple:
    """What `explore` and `run` compute on p, and the work they count."""
    ex, trace = explore(p), run(p)
    steps = [(s.kind, s.subject, s.label, canonical_key(s.term)) for s in trace.steps]
    return (list(ex.states), ex.depth, ex.terminals, ex.edges, ex.stats,
            [template(t)[0] for t in ex.states.values()], steps, trace.status, trace.stats)


@SETTINGS
@example(Par(bool_session(sname("s"), True), bool_session(sname("r"), False)))
@example(Par(bool_session(sname("s"), True), bool_session(sname("s"), True)))
@example(_rpc_pair("a", "b"))
@example(_rpc_pair("a", "a"))
@given(st.one_of(
    protocols, relays(),
    st.tuples(clashing_sessions(), clashing_sessions()).map(lambda pq: Par(*pq)),
))
def test_names_are_matched_alike_whether_or_not_their_objects_are_shared(p):
    """A call keeps one object per name, so a protocol built with one
    object per name and one built with a new object at every occurrence,
    both endpoints of a session included, explore and run alike, with the
    same counts of work."""
    one: dict = {}
    shared = _rebuilt(p, lambda n: one.setdefault(n, n))
    unshared = _rebuilt(p, lambda n: Name(n.base, n.index, n.dual, n.kind))
    assert _outcome(shared) == _outcome(unshared)


def _payloads(depth: int, labels):
    base = st.sampled_from((INT, BOOL))
    if depth == 0:
        return base
    inner = session_types(depth - 1, loop=st.none(), labels=labels).map(lambda pair: pair[0])
    return st.one_of(base, st.builds(TArrow, st.tuples(inner), st.booleans()))


LOOPS = st.sampled_from(("tail", "payload", "choice"))


def _build(prefix, loop, var, labels=None):
    (go, stop), (again, done) = (labels, labels) if labels else (("go", "stop"), ("again", "done"))
    t = SEnd()
    if loop is not None:
        kind, steps = loop
        if kind == "payload":
            # the variable rides in the first payload; the body ends
            steps = [(steps[0][0], TArrow((SEnd(), SVar(var)), True))] + steps[1:]
        body = SEnd() if kind == "payload" else SVar(var)
        for step, u in reversed(steps):
            body = (SOut if step in ("out", "sel") else SIn)((u,), body)
        if kind == "choice":
            body = SSel(((again, body), (done, SEnd())))
        t = SRec(var, body)
    for step, u in reversed(prefix):
        if step in ("out", "in"):
            t = (SOut if step == "out" else SIn)((u,), t)
        else:
            arms = ((go, t), (stop, SEnd()))
            t = SSel(arms) if step == "sel" else SBra(arms)
    return t


@st.composite
def session_types(draw, depth: int = 1, loop=st.none() | LOOPS, labels=None):
    """(t, u): a session type, and the same type with its recursion
    binder, if it has one, named u instead of t. A loop is a tail loop of
    messages, a loop whose variable rides in a payload, or a loop of
    messages under a choice. Choices are over two fixed labels, or over a
    pair drawn from the strategy labels."""
    steps = st.tuples(st.sampled_from(("out", "in", "sel", "bra")), _payloads(depth, labels))
    prefix = draw(st.lists(steps, max_size=4))
    kind = draw(loop)
    body = (kind, draw(st.lists(steps, min_size=1, max_size=3))) if kind else None
    names = draw(labels) if labels is not None else None
    return _build(prefix, body, "t", names), _build(prefix, body, "u", names)


def _recursive_tail(t):
    while not isinstance(t, (SRec, SEnd)):
        t = t.cont if isinstance(t, (SOut, SIn)) else t.branches[0][1]
    return t


def _loop_kind(t):
    tail = _recursive_tail(t)
    if not isinstance(tail, SRec):
        return None
    if isinstance(tail.body, SSel):
        return "choice"
    return "tail" if is_tail_recursive(tail) else "payload"


@SETTINGS
@given(session_types())
def test_dual_is_an_involution(pair):
    t, _ = pair
    if _loop_kind(t) == "payload":
        # dual unfolds a loop whose variable rides in a payload
        assert equal_types(dual(dual(t)), t)
    else:
        assert dual(dual(t)) == t


@SETTINGS
@given(session_types(loop=st.sampled_from((None, "tail", "payload"))))
def test_decomposition_is_minimal(pair):
    # recursion decomposes one prefix at a time, so a loop under a choice
    # stays a loop over a choice, which is not minimal
    assert all(is_minimal(g) for g in gdecomp(pair[0]))


@SETTINGS
@given(session_types(loop=LOOPS))
def test_loops_equal_their_unfolding(pair):
    loop = _recursive_tail(pair[0])
    assert equal_types(loop, unfold(loop))
    assert equal_types(unfold(loop), loop)


@SETTINGS
@given(session_types(loop=LOOPS))
def test_keys_ignore_binder_names(pair):
    t, u = pair
    assert canon_key(t) == canon_key(u)
    assert equal_types(t, u)


@SETTINGS
@given(session_types())
def test_decomposition_commutes_with_duality(pair):
    t, _ = pair
    (_, carried), = gdecomp(SSel((("l", t),)))[0].branches
    assert carried == SIn((TArrow(tuple(gdecomp(dual(t))), False),), SEnd())
    if _loop_kind(t) in (None, "tail"):
        # what lets a selection arm take the dual of its continuation's parts
        assert gdecomp(dual(t)) == [dual(g) for g in gdecomp(t)]


# labels from identifiers and the punctuation of keys
KEY_LABELS = st.lists(st.text("xye,:}@$ ", max_size=4), min_size=2, max_size=2, unique=True)
LABELLED = (SRec("t", SSel((("x:e,y", END),))), SRec("t", SSel((("x", END), ("y", END)))))
BASE_NAMED = (SRec("t", SIn((TArrow((TBase("Int,e"),), False),), SVar("t"))),
              SRec("t", SIn((TArrow((INT, END), False),), SVar("t"))))


@SETTINGS
@given(session_types(labels=KEY_LABELS), session_types(labels=KEY_LABELS), st.booleans())
@example((LABELLED[0], None), (LABELLED[1], None), False)
@example((BASE_NAMED[0], None), (BASE_NAMED[1], None), False)
def test_keys_decide_equality(first, second, again):
    # every binder is named t, so equality up to binder names is equality
    t = first[0]
    u = copy.deepcopy(t) if again else second[0]
    assert (canon_key(t) == canon_key(u)) == (t == u)
    assert t != u or hash(t) == hash(u)


@SETTINGS
@given(session_types())
def test_stepped_environments_stay_balanced(pair):
    s = sname("s")
    envs = [{s: pair[0], s.dualized(): dual(pair[0])}]
    for _ in range(4):
        assert all(balanced(env) for env in envs)
        envs = [stepped for env in envs for stepped in env_step(env)]
    assert all(balanced(env) for env in envs)
