"""Properties of state identity over generated closed sessions.

Two families of protocols are generated: a binary session of one to four
interactions (an Int literal or a lin(Int) abstraction sent either way, or
a choice made by either side), and two or three request/response sessions
in parallel, whose channel names may clash. A protocol and its
alpha-variants must have the same key and explored key set; a variant
renames input and abstraction binders to fresh identifiers and may also
rename restriction binders and permute the parallel components under the
top-level restrictions. Every state a protocol reaches must be normal and
well typed.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from minsess.semantics import canonical_key, explore, normalize
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
)
from minsess.typecheck import check_process
from minsess.types import INT, SBra, SEnd, SIn, SOut, SSel, TArrow

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
