"""Session types and their decomposition into minimal session types.

A session type prescribes a channel protocol: a sequence of polyadic
inputs/outputs of value types, labelled internal/external choices, and
tail recursion. A *minimal* session type has no sequencing: at most one
prefix before `end` (or before the recursion variable in the recursive
case). `gdecomp` flattens an arbitrary session type into a list of
minimal ones; `rsdecomp` and `findex` handle the recursive bookkeeping
needed when a protocol is split across a tuple of channels.

Every query is one rule over one traversal. `_CHILDREN` lists each node's
children, payloads and parameters first and the continuations last, and
`_HEAD` what else a node carries: arity, labels, the `shared` flag, a
variable or base name. `fold` walks the children post-order on an
explicit stack, so that a protocol thousands of prefixes long costs no
Python stack depth, and a query's rule maps a node and its children's
values to the node's value; a rule that builds types rebuilds each node
through `remake`, which keeps its head. `dual` and `gdecomp` follow the
continuation spine alone; `gdecomp` decomposes each payload by a call of
its own, so that nesting, not length, costs stack. A selection's arm
takes the duals of its continuation's parts, which are minimal, instead
of decomposing the dualized continuation; the two agree unless the
continuation's spine holds a recursion binder that is not tail-recursive,
and such an arm decomposes its dual as before. The binder-scoped queries,
`canon_key`, `subst_tvar` and `free_tvars`, pass an environment down the
same stack, which a recursion binder extends for its body.

One printer, `_format_rule`, gives the surface syntax of `format_type`
and the key of `canon_key`, which is that text with recursion binders
numbered by depth, free variables marked `@`, and labels and names
escaped by `_text`, as in term renderings: two types share a key exactly
when they are equal up to binder names. It builds ropes of nested tuples
that `_flatten` joins once, so a key costs time linear in its length. One
worklist, `_same`, compares two types node by node: with unfolding it is
`equal_types`, without it `==`, whose `hash` is that of the key.

Everything here is immutable and pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Mapping, Union


class TypeError_(Exception):
    """Raised on ill-formed or unsupported types."""


# ---------------------------------------------------------------------------
# Type grammar
# ---------------------------------------------------------------------------


class _Printed:
    """Types print, and show in `repr`, in their surface syntax, compare
    node by node and hash by their key; none of the three recurses."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_type(self)

    __repr__ = __str__

    def __eq__(self, other) -> bool:
        return _same(self, other, False) if other.__class__ in _HEAD else NotImplemented

    def __hash__(self) -> int:
        return hash(canon_key(self))


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class SEnd(_Printed):
    """Completed protocol."""


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class _Prefix(_Printed):
    payload: tuple["VType", ...]
    cont: "SType"

    def __post_init__(self) -> None:
        if not self.payload:
            what = "output" if self.__class__ is SOut else "input"
            raise TypeError_(f"{what} type needs a non-empty payload tuple")


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class SOut(_Prefix):
    """Send a tuple of values, then continue: !<U,...>;S."""


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class SIn(_Prefix):
    """Receive a tuple of values, then continue: ?<U,...>;S."""


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class _Choice(_Printed):
    branches: tuple[tuple[str, "SType"], ...]

    def __post_init__(self) -> None:
        if not self.branches:
            raise TypeError_("choice type needs at least one branch")
        labels = [l for l, _ in self.branches]
        if len(set(labels)) != len(labels):
            raise TypeError_(f"duplicate branch labels: {labels}")


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class SSel(_Choice):
    """Internal choice +{l:S, ...}: this side picks the label."""


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class SBra(_Choice):
    """External choice &{l:S, ...}: this side offers all labels."""


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class SRec(_Printed):
    """rec t . S, contractive (body is not a bare variable)."""

    var: str
    body: "SType"

    def __post_init__(self) -> None:
        if isinstance(self.body, SVar):
            raise TypeError_("non-contractive recursive type")


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class SVar(_Printed):
    var: str


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class TBase(_Printed):
    """Opaque base type (Int, Bool)."""

    name: str


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class TArrow(_Printed):
    """Abstraction type over channel parameters: lin(C,...) or un(C,...)."""

    params: tuple["CType", ...]
    shared: bool

    def __post_init__(self) -> None:
        if not self.params:
            raise TypeError_("arrow type needs at least one parameter")


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class TChan(_Printed):
    """Shared channel type chan U carrying values of type U."""

    payload: "VType"


SType = Union[SEnd, SOut, SIn, SSel, SBra, SRec, SVar]
VType = Union[TArrow, TBase]
# Channel-position types: what a name or binder can be annotated with.
CType = Union[SType, TChan, TBase]
AnyType = Union[SType, TChan, TArrow, TBase]

INT = TBase("Int")
BOOL = TBase("Bool")
END = SEnd()


def is_session(t: AnyType) -> bool:
    return isinstance(t, (SEnd, SOut, SIn, SSel, SBra, SRec, SVar))


# ---------------------------------------------------------------------------
# The child table and the fold
# ---------------------------------------------------------------------------


def _arms(t) -> tuple:
    return tuple(s for _, s in t.branches)


# node class -> its children: payloads and parameters first, continuations last
_CHILDREN: dict = {
    SEnd: lambda t: (), SVar: lambda t: (), TBase: lambda t: (),
    SOut: lambda t: t.payload + (t.cont,), SIn: lambda t: t.payload + (t.cont,),
    SSel: _arms, SBra: _arms, SRec: lambda t: (t.body,),
    TArrow: lambda t: t.params, TChan: lambda t: (t.payload,),
}
# the continuations alone: no payloads, and no children for value types
_SPINE: dict = {
    **dict.fromkeys(_CHILDREN, _CHILDREN[SEnd]),
    SOut: lambda t: (t.cont,), SIn: lambda t: (t.cont,),
    SSel: _arms, SBra: _arms, SRec: _CHILDREN[SRec],
}
# node class -> what a node carries besides its children
_HEAD: dict = {
    SEnd: lambda t: None, SVar: lambda t: t.var, TBase: lambda t: t.name,
    SOut: lambda t: len(t.payload), SIn: lambda t: len(t.payload),
    SSel: lambda t: [l for l, _ in t.branches], SBra: lambda t: [l for l, _ in t.branches],
    SRec: lambda t: t.var, TArrow: lambda t: (len(t.params), t.shared), TChan: lambda t: None,
}


def remake(t: AnyType, kids, cls=None) -> AnyType:
    """A node of class cls, t's own by default, with t's head and the
    children kids in `_CHILDREN` order; a prefix given its continuation
    alone, as in a fold along the spine, keeps its payloads."""
    cls = cls or t.__class__
    if cls is SOut or cls is SIn:
        return cls(tuple(kids[:-1]) if len(kids) > 1 else t.payload, kids[-1])
    if cls is SSel or cls is SBra:
        return cls(tuple(zip([l for l, _ in t.branches], kids)))
    if cls is SRec:
        return SRec(t.var, kids[0])
    if cls is TArrow:
        return TArrow(tuple(kids), t.shared)
    return TChan(kids[0]) if cls is TChan else t


def fold(t: AnyType, rule: Callable, bind: Callable = None, env=None, spine: bool = False):
    """Post-order fold of t on an explicit stack.

    `rule(node, kids, env)` gives a node's value from its children's values,
    in `_CHILDREN` order (continuations only, with `spine`). `bind(rec,
    env)` gives the environment a recursion binder's body sees, and the
    binder's own rule sees it too; every other node passes env unchanged."""
    table = _SPINE if spine else _CHILDREN
    out: list = []
    stack = [(t, env, -1)]
    push, pop = stack.append, stack.pop
    while stack:
        node, env, n = pop()
        if n >= 0:
            kids = out[len(out) - n:]
            del out[len(out) - n:]
            out.append(rule(node, kids, env))
            continue
        children = table.get(node.__class__)
        if children is None:
            raise TypeError_(f"unknown type node {node!r}")
        kids = children(node)
        if bind is not None and node.__class__ is SRec:
            env = bind(node, env)
        if kids:
            push((node, env, len(kids)))
            for k in reversed(kids):
                push((k, env, -1))
        else:
            out.append(rule(node, (), env))
    return out[0]


def _joined(parts, sep: str) -> list:
    """parts with sep between each two, as one level of a rope."""
    out = [sep] * (2 * len(parts) - 1)
    out[::2] = parts
    return out


def _flatten(rope) -> str:
    """Join a rope, nested tuples and lists of strings, left to right."""
    out: list[str] = []
    stack = [rope]
    while stack:
        x = stack.pop()
        if x.__class__ is str:
            out.append(x)
        else:
            stack.extend(reversed(x))
    return "".join(out)


# ---------------------------------------------------------------------------
# Recursion-variable plumbing
# ---------------------------------------------------------------------------


def free_tvars(t: AnyType) -> set[str]:
    out: set[str] = set()

    def rule(t, kids, bound) -> None:
        if t.__class__ is SVar and t.var not in bound:
            out.add(t.var)

    fold(t, rule, lambda r, bound: bound | {r.var}, frozenset())
    return out


def subst_tvar(t: AnyType, var: str, repl: SType) -> AnyType:
    """Capture-avoiding substitution of a session type for a variable.

    The environment maps each variable to its replacement and that
    replacement's free variables. A binder drops its own variable and,
    where it would capture a free variable of a replacement, is renamed by
    priming."""

    def bind(r: SRec, env: dict) -> dict:
        env = {v: s for v, s in env.items() if v != r.var}
        danger = set().union(*(free for _, free in env.values()))
        if r.var in danger:
            taken = danger | free_tvars(r.body) | set(env)
            fresh = r.var
            while fresh in taken:
                fresh += "'"
            env[r.var] = (SVar(fresh), {fresh})
        return env

    def rule(t, kids, env):
        if t.__class__ is SVar:
            return env[t.var][0] if t.var in env else t
        if t.__class__ is SRec and t.var in env:  # a renamed binder
            return SRec(env[t.var][0].var, kids[0])
        return remake(t, kids)

    return fold(t, rule, bind, {var: (repl, free_tvars(repl))})


def unfold(t: SRec) -> SType:
    """One-step unfolding: body with the whole type for its variable."""
    return subst_tvar(t.body, t.var, t)


def unfold_top(t: SType) -> SType:
    """Unfold until the head is not a recursive binder. A binder's body is
    no bare variable, so each unfolding strips one leading binder."""
    while isinstance(t, SRec):
        t = unfold(t)
    return t


def _tvar_sites(body: SType, var: str) -> tuple[bool, bool]:
    """Where var occurs free in body: (inside a communicated payload, on
    the continuation spine)."""

    def rule(t, kids, env) -> tuple[bool, bool]:
        cls = t.__class__
        if cls is SVar:
            return False, t.var == var
        if cls is SRec and t.var == var:
            return False, False
        if cls is SOut or cls is SIn:
            return kids[-1][0] or any(a or b for a, b in kids[:-1]), kids[-1][1]
        return any(a for a, _ in kids), any(b for _, b in kids)

    return fold(body, rule)


def is_tail_recursive(t: SType) -> bool:
    """rec t.S whose body is a prefix chain ending in its own variable."""
    if not isinstance(t, SRec) or _tvar_sites(t.body, t.var)[0]:
        return False
    body = t.body
    while isinstance(body, (SOut, SIn)):
        body = body.cont
    return isinstance(body, SVar) and body.var == t.var


# ---------------------------------------------------------------------------
# Duality
# ---------------------------------------------------------------------------


_SWAP = {SOut: SIn, SIn: SOut, SSel: SBra, SBra: SSel}


def _dual_rule(t, kids, env):
    cls = t.__class__
    swapped = _SWAP.get(cls)
    if swapped is not None:
        return remake(t, kids, swapped)
    if cls is SRec:
        in_payload, on_spine = _tvar_sites(t.body, t.var)
        if in_payload and on_spine:
            raise TypeError_("recursion variable occurs both in a payload and on the "
                             "spine; duality is not defined on this fragment")
        # the swapped unfolding is the swapped body with the whole type for
        # the variable, since payloads are not swapped
        return subst_tvar(kids[0], t.var, t) if in_payload else remake(t, kids)
    if cls is SEnd or cls is SVar:
        return t
    raise TypeError_(f"dual undefined for {t!r}")


def dual(t: SType) -> SType:
    """Endpoint-compatible partner type: swaps ! with ? and + with &.
    Payloads are unchanged. For recursive types whose variable occurs
    only along the continuation spine the swap commutes with the binder;
    when the variable occurs inside a payload the swap is applied to the
    unfolding instead (the binder's scope does not survive the swap).
    Variables occurring both in a payload and on the spine are out of
    the supported fragment."""
    return fold(t, _dual_rule, spine=True)


# ---------------------------------------------------------------------------
# Canonical keys and equivalence
# ---------------------------------------------------------------------------


def canon_key(t: AnyType) -> str:
    """The printed type with binders numbered by depth, free variables
    marked and names escaped (see `_format_rule`)."""
    bind = lambda r, env: (env[0] + 1, {**env[1], r.var: env[0]})  # noqa: E731
    return _flatten(fold(t, _format_rule, bind, (0, {})))


def _same(a: AnyType, b: AnyType, unfolding: bool) -> bool:
    """Whether a and b agree node by node, heads and children, on a
    worklist of pairs; with unfolding, up to unfolding and binder names.
    Sound and complete on regular types: the pairs explored are drawn
    from the finite subterm closures of both sides. Only a pair with a
    recursive side is keyed: it holds if the keys agree, and is unfolded
    once per pair of keys otherwise. A shared subterm holds at once; a
    node of no type class equals only itself."""
    seen: set[tuple[str, str]] = set()
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        ca = a.__class__
        if unfolding and (ca is SRec or b.__class__ is SRec):
            key = (canon_key(a), canon_key(b))
            if key[0] != key[1] and key not in seen:
                seen.add(key)
                stack.append((unfold(a), b) if ca is SRec else (a, unfold(b)))
            continue
        head = _HEAD.get(ca)
        if head is None or ca is not b.__class__ or head(a) != head(b):
            return False
        stack.extend(zip(_CHILDREN[ca](a), _CHILDREN[ca](b)))
    return True


def equal_types(a: AnyType, b: AnyType) -> bool:
    """Equivalence up to unfolding of recursive types (and binder names)."""
    return _same(a, b, True)


# ---------------------------------------------------------------------------
# Minimality and decomposition into minimal types
# ---------------------------------------------------------------------------


def _minimal_rule(t, kids, env) -> bool:
    if isinstance(t, (SOut, SIn)):
        return isinstance(t.cont, (SEnd, SVar)) and all(kids)
    if isinstance(t, SRec):
        return isinstance(t.body, (SOut, SIn)) and kids[0]
    return all(kids)


def is_minimal(t: AnyType) -> bool:
    """No sequencing anywhere: one prefix before end (or the recursion
    variable), choices over minimal continuations, payloads minimal."""
    return fold(t, _minimal_rule)


def gdecomp_val(u: AnyType) -> AnyType:
    """Decompose a value (or channel) type in place: arrows flatten their
    parameter tuples, shared channels decompose their payload."""
    if is_session(u):
        raise TypeError_(f"not a value type: {u!r}")
    return u if u.__class__ is TBase else gdecomp(u)


def gdecomp_params(params: tuple[CType, ...]) -> tuple[CType, ...]:
    """Flatten a parameter tuple: each session parameter contributes its
    full decomposition, other parameters contribute themselves decomposed."""
    out: list[CType] = []
    for c in params:
        if isinstance(c, TArrow):
            raise TypeError_(f"not a channel parameter type: {c!r}")
        out += gdecomp(c) if is_session(c) else [gdecomp_val(c)]
    return tuple(out)


def gwidth(c: CType) -> int:
    """How many channels a parameter of this type decomposes into."""
    return len(gdecomp(c)) if is_session(c) else 1


def _gdecomp_rule(t, kids, env):
    """A value type's decomposition, or, for a session type, its minimal
    parts kept last first (so that a prefix appends in place) and whether
    its spine holds a recursion binder that is not tail-recursive."""
    cls = t.__class__
    if cls is SOut or cls is SIn:
        head = remake(t, (*map(gdecomp_val, t.payload), END))
        if isinstance(t.cont, SEnd):
            return [head], False
        kids[0][0].append(head)
        return kids[0]
    if cls is SRec:
        if is_tail_recursive(t):
            # one single-prefix loop per prefix; the variable closes the list
            var = SVar(t.var)
            return [remake(t, (remake(h, (var,)),)) for h in kids[0][0][1:]], False
        return [remake(t, (g,)) for g in kids[0][0]], True
    if cls is TArrow:
        return remake(t, gdecomp_params(t.params))
    if cls is TChan:
        return remake(t, (gdecomp_val(t.payload),))
    if cls is not SSel and cls is not SBra:
        return ([t], False) if cls is SEnd or cls is SVar else t
    if cls is SBra:
        # offering side: each label carries the continuation implementation
        arms = [SOut((TArrow(tuple(reversed(k)), False),), END) for k, _ in kids]
    else:
        # selecting side: receives the implementation for the dual
        # continuation, whose parts are the duals of the continuation's
        # unless a binder there is not tail-recursive: dual unfolds such a
        # binder, in the continuation or in the parts that carry it
        arms = []
        for (_, s), (k, odd) in zip(t.branches, kids):
            parts = gdecomp(dual(s)) if odd else [dual(g) for g in reversed(k)]
            arms.append(SIn((TArrow(tuple(parts), False),), END))
    return [remake(t, arms)], any(odd for _, odd in kids)


def gdecomp(t: AnyType):
    """Decompose a type into minimal form: a session type into the list of
    minimal session types its prefix sequence flattens into, a value or
    channel type into a single decomposed type."""
    got = fold(t, _gdecomp_rule, spine=True)
    return got[0][::-1] if got.__class__ is tuple else got


def _rec_core(t: SType) -> tuple[SRec, int]:
    """The tail-recursive type behind t's leading prefixes, and their number."""
    skipped = 0
    while isinstance(t, (SOut, SIn)):
        t, skipped = t.cont, skipped + 1
    if not isinstance(t, SRec):
        raise TypeError_(f"no recursive core reachable in {t!r}")
    if not is_tail_recursive(t):
        raise TypeError_("recursive core is not tail-recursive")
    return t, skipped


def rsdecomp(t: SType) -> list[SType]:
    """Decomposition seen from inside an unfolded recursive protocol:
    leading prefixes are skipped, the recursive core is decomposed."""
    return gdecomp(_rec_core(t)[0])


def findex(t: SType) -> int:
    """Which channel of the decomposed tuple carries the next action.

    For a recursive type the answer is 1; for a partial unfolding it is
    the position of the current head prefix within the recursion body.
    """
    core, skipped = _rec_core(unfold(t) if isinstance(t, SRec) else t)
    return len(gdecomp(core)) - skipped + 1


# ---------------------------------------------------------------------------
# Environments
# ---------------------------------------------------------------------------


def envdecomp(env: Mapping) -> dict:
    """Decompose a typing environment.

    Session entries must be keyed by indexed names; an entry u_i : S
    becomes |gdecomp(S)| consecutive entries u_i .. u_{i+n-1}. All other
    entries decompose pointwise in place.
    """
    out: dict = {}
    for key, t in env.items():
        if is_session(t):
            if getattr(key, "index", None) is None:
                raise TypeError_(f"session entry {key} is not indexed")
            for off, part in enumerate(gdecomp(t)):
                out[key.with_index(key.index + off)] = part
        else:
            out[key] = gdecomp_val(t)
    return out


def _partner(key, delta: Mapping):
    """The other endpoint of the session name key if delta holds it, else
    None: a variable, a shared name or a lone endpoint has no partner."""
    partner = key.dualized() if getattr(key, "kind", None) == "session" else None
    return partner if partner in delta else None


def balanced(delta: Mapping) -> bool:
    """Co-located endpoints must carry mutually dual protocols."""
    for key, t in delta.items():
        partner = _partner(key, delta)
        if partner is not None and not equal_types(dual(t), delta[partner]):
            return False
    return True


def env_step(delta: Mapping) -> list[dict]:
    """All one-step evolutions of a session environment: a dual pair of
    entries exchanges a payload or resolves one labelled choice."""
    out: list[dict] = []
    seen_pairs: set = set()
    for key, t in delta.items():
        partner = _partner(key, delta)
        if partner is None:
            continue
        pair = (key, partner) if not key.dual else (partner, key)
        if pair in seen_pairs:
            continue
        seen_pairs.add(pair)
        a, b = pair
        ta, tb = unfold_top(delta[a]), unfold_top(delta[b])
        for send, recv, st, rt in ((a, b, ta, tb), (b, a, tb, ta)):
            if isinstance(st, SOut) and isinstance(rt, SIn):
                if len(st.payload) == len(rt.payload) and all(
                    equal_types(x, y) for x, y in zip(st.payload, rt.payload)
                ):
                    out.append({**delta, send: st.cont, recv: rt.cont})
            if isinstance(st, SSel) and isinstance(rt, SBra):
                offered = dict(rt.branches)
                for label, cont in st.branches:
                    if label in offered:
                        out.append({**delta, send: cont, recv: offered[label]})
    return out


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def _format_rule(t, kids, env):
    """A node's text, as a rope, from its children's: the surface syntax
    with env None, and the key under the binder levels env otherwise."""
    cls = t.__class__
    if cls is SOut or cls is SIn:
        return "!<" if cls is SOut else "?<", _joined(kids[:-1], ","), ">;", kids[-1]
    if cls is SSel or cls is SBra:
        arms = [(l if env is None else _text(l), ": ", k) for (l, _), k in zip(t.branches, kids)]
        return "+{" if cls is SSel else "&{", _joined(arms, ", "), "}"
    if cls is SRec:
        return "rec ", t.var if env is None else f"%{env[0] - 1}", ".", kids[0]
    if cls is TArrow:
        return "un(" if t.shared else "lin(", _joined(kids, ","), ")"
    if cls is TChan:
        return "chan ", kids[0]
    if cls is SEnd or env is None:
        return "end" if cls is SEnd else t.var if cls is SVar else t.name
    if cls is SVar:
        return f"%{env[1][t.var]}" if t.var in env[1] else "@" + _text(t.var)
    return _text(t.name) if t.name != "end" else "$3:end"  # not the end of a protocol


def format_type(t: AnyType) -> str:
    """Render a type in its readable surface syntax."""
    return _flatten(fold(t, _format_rule))


_PLAIN = re.compile(r"[\w'#]*")


def _text(text: str) -> str:
    """text as it stands in a key or a term rendering: identifiers, primed
    or reserved ones too, verbatim, and anything else as `$<length>:` and
    the text, so that no two texts render alike."""
    if text.isidentifier() or _PLAIN.fullmatch(text):
        return text
    return f"${len(text)}:{text}"
