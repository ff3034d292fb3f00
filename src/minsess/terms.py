"""Terms of a higher-order session calculus.

Processes communicate *abstractions* (parameterized processes) and base
literals over session or shared channels; names themselves are never
payloads. The only binders are value inputs, abstraction parameters,
and channel restriction, which for a session name binds both endpoints
at once.

Names carry an optional positive index (u_1, u_2, ...) used by the
decomposition to address the channels a protocol splits into, plus a
polarity flag for session endpoints. Variables carry the same optional
index because a session-typed variable stands for a channel and is
indexed in place exactly like one.

Identifiers starting with '#' are reserved for machine-generated
channels: '#k' for the sequencing channels the decomposition threads
between trios and '#rec:n' for the shared servers that carry
recursive-channel tuples.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Generator, Iterable, Iterator, Mapping, Optional, Union

from .types import (
    BOOL,
    CType,
    END,
    INT,
    SIn,
    SOut,
    TArrow,
    TBase,
    TChan,
    TypeError_,
    _text,
    canon_key,
    fold,
    is_session,
    remake,
)

RESERVED_PREFIX = "#"
REC_SERVER_PREFIX = "#rec:"


class TermError(Exception):
    """Raised on ill-formed terms or invalid substitutions."""


# ---------------------------------------------------------------------------
# Names and variables
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Name:
    base: str
    index: Optional[int] = None
    dual: bool = False
    kind: str = "session"  # "session" | "shared"
    # the hash of the fields, computed on first use: names key most maps
    _hash: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("session", "shared"):
            raise TermError(f"bad name kind {self.kind!r}")
        if self.kind == "shared" and self.dual:
            raise TermError("shared names are self-dual; no dual polarity")
        if self.index is not None and self.index < 1:
            raise TermError("name indices start at 1")

    def __hash__(self) -> int:
        h = self._hash
        if not h:
            h = hash((self.base, self.index, self.dual, self.kind))
            object.__setattr__(self, "_hash", h)
        return h

    def dualized(self) -> "Name":
        if self.kind == "shared":
            return self
        return Name(self.base, self.index, not self.dual, self.kind)

    def with_index(self, index: Optional[int]) -> "Name":
        return Name(self.base, index, self.dual, self.kind)

    def __str__(self) -> str:
        text = self.base if self.index is None else f"{self.base}_{self.index}"
        return "~" + text if self.dual else text


@dataclass(frozen=True, slots=True)
class Var:
    base: str
    index: Optional[int] = None
    _hash: int = field(default=0, init=False, repr=False, compare=False)  # as for Name

    def __hash__(self) -> int:
        h = self._hash
        if not h:
            h = hash((self.base, self.index))
            object.__setattr__(self, "_hash", h)
        return h

    def with_index(self, index: Optional[int]) -> "Var":
        return Var(self.base, index)

    def __str__(self) -> str:
        return self.base if self.index is None else f"{self.base}_{self.index}"


def prop_name(k: int) -> Name:
    """The k-th sequencing channel of a decomposition."""
    return Name(RESERVED_PREFIX, k, False, "session")


def is_prop(n: object) -> bool:
    return isinstance(n, Name) and n.base == RESERVED_PREFIX


def rec_server_name(carrier: Name) -> Name:
    """The shared server channel for a recursively-typed name.

    Keyed by base and polarity; indices are irrelevant because one
    server feeds every indexed slice of the same endpoint.
    """
    tag = ("~" if carrier.dual else "") + carrier.base
    return Name(REC_SERVER_PREFIX + tag, None, False, "shared")


def is_reserved(n: object) -> bool:
    return isinstance(n, (Name, Var)) and n.base.startswith(RESERVED_PREFIX)


# ---------------------------------------------------------------------------
# Values and processes
# ---------------------------------------------------------------------------


class _Term:
    """Processes and abstractions compare node by node on a worklist through
    their rows of `_NODES`, and hash by their template, so neither recurses."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        if not isinstance(other, _Term):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            x, y = stack.pop()
            cls = x.__class__
            if x is y:
                continue
            if cls is not y.__class__:
                return False
            row = _NODES.get(cls)
            if row is None:  # names, variables and literals by their fields
                if x != y:
                    return False
                continue
            scope, head, _ = row
            (xs, *xb), (ys, *yb) = scope(x), scope(y)
            if len(xs) != len(ys) or xb != yb or head(x) != head(y):
                return False
            stack += zip(xs, ys)
        return True

    def __hash__(self) -> int:
        return hash(template(self)[0])


@dataclass(frozen=True, slots=True, eq=False)
class Lit:
    """A base literal. It compares and hashes by the type and the value, so
    Lit(1) and Lit(True) differ, as in templates."""

    value: object  # int | bool

    def __post_init__(self) -> None:
        if not isinstance(self.value, (bool, int)):
            raise TermError(f"unsupported literal {self.value!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not Lit:
            return NotImplemented
        return self.value.__class__ is other.value.__class__ and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.value.__class__, self.value))

    @property
    def btype(self) -> TBase:
        return BOOL if isinstance(self.value, bool) else INT


@dataclass(frozen=True, slots=True, eq=False)
class Abs(_Term):
    """Abstraction \\lin(x:C,...) -> P or \\un(...) -> P.

    Linear abstractions may capture linear resources and must be applied
    exactly once; shared ones may be copied but must not capture
    anything linear.
    """

    params: tuple[tuple[Var, CType], ...]
    body: "Process"
    shared: bool = False

    def __post_init__(self) -> None:
        if not self.params:
            raise TermError("abstractions bind at least one parameter")
        names = [v for v, _ in self.params]
        if len(set(names)) != len(names):
            raise TermError(f"duplicate abstraction parameters: {names}")


Value = Union[Var, Abs, Lit]
# Output payloads admit Name only in the first-order front end consumed by
# encode_namepass; encoded processes carry values exclusively.
Payload = Union[Value, Name]
Arg = Union[Name, Var, Lit]
Subject = Union[Name, Var]


@dataclass(frozen=True, slots=True, eq=False)
class Inact(_Term):
    pass


@dataclass(frozen=True, slots=True, eq=False)
class Output(_Term):
    subject: Subject
    payload: tuple[Payload, ...]
    cont: "Process"


@dataclass(frozen=True, slots=True, eq=False)
class Input(_Term):
    subject: Subject
    binders: tuple[Var, ...]
    cont: "Process"

    def __post_init__(self) -> None:
        if len(set(self.binders)) != len(self.binders):
            raise TermError(f"duplicate input binders: {self.binders}")


@dataclass(frozen=True, slots=True, eq=False)
class Select(_Term):
    subject: Subject
    label: str
    cont: "Process"


@dataclass(frozen=True, slots=True, eq=False)
class Branch(_Term):
    subject: Subject
    branches: tuple[tuple[str, "Process"], ...]

    def __post_init__(self) -> None:
        if not self.branches:
            raise TermError("branch needs at least one label")
        labels = [l for l, _ in self.branches]
        if len(set(labels)) != len(labels):
            raise TermError(f"duplicate branch labels: {labels}")

    def branch(self, label: str) -> "Process":
        for l, p in self.branches:
            if l == label:
                return p
        raise KeyError(label)


@dataclass(frozen=True, slots=True, eq=False)
class App(_Term):
    fun: Value
    args: tuple[Arg, ...]

    def __post_init__(self) -> None:
        if isinstance(self.fun, Lit):
            raise TermError("literals cannot be applied")


@dataclass(frozen=True, slots=True, eq=False)
class Par(_Term):
    left: "Process"
    right: "Process"


@dataclass(frozen=True, slots=True, eq=False)
class Res(_Term):
    """new n : T in P. A session annotation binds both n and ~n."""

    binder: Name
    annot: CType
    body: "Process"

    def __post_init__(self) -> None:
        if self.binder.dual:
            raise TermError("restriction binds the plain-polarity endpoint")
        want = "session" if is_session(self.annot) else "shared"
        if self.binder.kind != want:
            raise TermError(
                f"restriction kind mismatch: {self.binder} with {self.annot}"
            )


Process = Union[Inact, Output, Input, Select, Branch, App, Par, Res]


def parallel(parts: Iterable[Process]) -> Process:
    """Right-nested parallel composition of a component list."""
    items = list(parts)
    if not items:
        return Inact()
    out = items[-1]
    for p in reversed(items[:-1]):
        out = Par(p, out)
    return out


# ---------------------------------------------------------------------------
# Free names / variables (first occurrence, preorder)
# ---------------------------------------------------------------------------


class Memo:
    """What one call learns about the subterms it meets, for its lifetime.

    `free` maps the id of a compound subterm to its free names, its free
    variables (tuples in first-occurrence preorder) and the subterm
    itself, which keeps the id from being reused. Each subterm is scanned
    once; a term that shares subterms with one already scanned costs only
    its new nodes. `stats` counts the nodes scanned, substituted and rendered,
    and what the semantics layer adds. `names` maps each name the
    semantics layer meets, either polarity, to the one object of its
    positive endpoint, so its maps match names by identity. A `run` or
    `explore` call owns one Memo; every other entry point makes its own, so
    nothing outlives a call."""

    __slots__ = ("free", "stats", "names")

    def __init__(self) -> None:
        self.free: dict = {}
        self.stats: Counter = Counter()
        self.names: dict = {}


_LEAVES = (Name, Var, Lit, Inact)
_NO_FREE = ((), ())


# node class -> its row: its scope (children in preorder, and the names and
# the variables its last child binds), its head (what else it carries: its
# labels or `shared` flag, and the types it holds) and its rebuild, a node
# made of a head, binders and children. The term rewrites handle the nodes
# they change and pass every other one through its row.
_NODES: dict = {
    Inact: (lambda t: ((), (), ()), lambda t: (None, ()), lambda h, b: Inact()),
    Output: (lambda t: ((t.subject, *t.payload, t.cont), (), ()), lambda t: (None, ()),
             lambda h, b, s, *rest: Output(s, rest[:-1], rest[-1])),
    Input: (lambda t: ((t.subject, t.cont), (), t.binders), lambda t: (None, ()),
            lambda h, b, s, p: Input(s, b, p)),
    Select: (lambda t: ((t.subject, t.cont), (), ()), lambda t: (t.label, ()),
             lambda h, b, s, p: Select(s, h[0], p)),
    Branch: (lambda t: ((t.subject, *(p for _, p in t.branches)), (), ()),
             lambda t: (tuple(l for l, _ in t.branches), ()),
             lambda h, b, s, *ps: Branch(s, tuple(zip(h[0], ps)))),
    App: (lambda t: ((t.fun, *t.args), (), ()), lambda t: (None, ()),
          lambda h, b, f, *args: App(f, args)),
    Par: (lambda t: ((t.left, t.right), (), ()), lambda t: (None, ()),
          lambda h, b, p, q: Par(p, q)),
    Res: (lambda t: ((t.body,), (t.binder, t.binder.dualized()), ()),
          lambda t: (None, (t.annot,)),
          lambda h, b, p: Res(b[0], h[1][0], p)),
    Abs: (lambda t: ((t.body,), (), tuple(v for v, _ in t.params)),
          lambda t: (t.shared, tuple(c for _, c in t.params)),
          lambda h, b, p: Abs(tuple(zip(b, h[1])), p, h[0])),
}


def _scope(t) -> tuple:
    """t's children in preorder, and the names and the variables its last
    child binds, from its row of `_NODES`."""
    row = _NODES.get(t.__class__)
    if row is None:
        raise TermError(f"unknown term node {t!r}")
    return row[0](t)


def _join(a: tuple, b: tuple) -> tuple:
    """The order-preserving union of a and b; one of them if it is the
    union."""
    if not b or a is b:
        return a
    if not a:
        return b
    if len(a) == 1 and (b[0] is a[0] or b[0] == a[0]):
        return b
    merged = tuple(dict.fromkeys(a + b))
    if len(merged) == len(a):
        return a
    return b if merged == b else merged


def _minus(items: tuple, bound: tuple) -> tuple:
    if not items or not bound:
        return items
    bound = set(bound)
    kept = tuple(x for x in items if x not in bound)
    return items if len(kept) == len(items) else kept


def _fv(t, memo: Memo) -> tuple:
    """(free names, free variables) of t, from the memo or scanned into it
    bottom-up on an explicit stack."""
    cls = t.__class__
    if cls is Name:
        return (t,), ()
    if cls is Var:
        return (), (t,)
    if cls is Lit or cls is Inact:
        return _NO_FREE
    free = memo.free
    got = free.get(id(t))
    if got is not None:
        return got
    stack: list = [t]
    scanned = 0
    while stack:
        x = stack[-1]
        if id(x) in free:
            stack.pop()
            continue
        kids, bound_names, bound_vars = _scope(x)
        pending = [k for k in kids if k.__class__ not in _LEAVES and id(k) not in free]
        if pending:
            stack += pending
            continue
        stack.pop()
        names = vs = ()
        last = len(kids) - 1
        for i, k in enumerate(kids):
            kc = k.__class__
            if kc is Name:
                kn, kv = (k,), ()
            elif kc is Var:
                kn, kv = (), (k,)
            elif kc is Lit or kc is Inact:
                continue
            else:
                kn, kv, _ = free[id(k)]
            if i == last:
                kn = _minus(kn, bound_names)
                kv = _minus(kv, bound_vars)
            names = _join(names, kn)
            vs = _join(vs, kv)
        free[id(x)] = (names, vs, x)
        scanned += 1
    memo.stats["nodes_scanned"] += scanned
    return free[id(t)]


def free_names(term: Union[Process, Value], memo: Optional[Memo] = None) -> list[Name]:
    return list(_fv(term, memo or Memo())[0])


def free_vars(term: Union[Process, Value]) -> list[Var]:
    return list(_fv(term, Memo())[1])


def used_bases(term: Union[Process, Value]) -> set[str]:
    """Every base identifier occurring anywhere, bound or free."""
    return {x.base for x in iter_subterms(term) if x.__class__ is Name or x.__class__ is Var}


class NameSupply:
    """Deterministic fresh-identifier source: primes a hint until unused.

    `scan` returns the identifiers already in use. It runs on the first call
    to `fresh`, so a supply that never has to invent a name never walks the
    terms it guards. Each hint resumes its priming where it last stopped:
    every shorter priming is already taken.
    """

    def __init__(self, scan: Callable[[], Iterable[str]]) -> None:
        self._scan: Optional[Callable[[], Iterable[str]]] = scan
        self._used: set[str] = set()
        self._last: dict[str, str] = {}

    def fresh(self, hint: str) -> str:
        if self._scan is not None:
            self._used.update(self._scan())
            self._scan = None
        hint = hint.rstrip("'") or "x"
        candidate = self._last.get(hint, hint)
        while candidate in self._used:
            candidate += "'"
        self._used.add(candidate)
        self._last[hint] = candidate
        return candidate


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------
#
# A substitution sigma is one map, applied simultaneously as P{sigma}: it
# sends variables to values (or to names, for application arguments) and
# names to names, each polarity listed as an entry of its own.


def rename_channel(old: Name, new: Name) -> dict:
    """The substitution renaming both endpoints of a channel; a shared name
    is its own dual."""
    return {old: new, old.dualized(): new.dualized()}


def init_names(names: list[Name]) -> list[Name]:
    """Give every name of a tuple the starting index 1."""
    for n in names:
        if n.index is not None:
            raise TermError(f"already indexed: {n}")
    return [n.with_index(1) for n in names]


def init_subst(term: Union[Process, Value]) -> dict:
    """The index-initializing substitution for a term's free names."""
    return {n: n.with_index(1) for n in free_names(term) if n.index is None}


def substitute(term, sigma: Mapping, memo: Optional[Memo] = None):
    """Apply sigma, one map from the variables and names it replaces to
    their images, to a process or value, renaming binders on capture. A
    subterm in which nothing sigma replaces is free comes back as it is,
    so the cost is that of the paths to the replaced occurrences; free
    sets come from memo (a fresh one if none is given). The walk is a
    chain of plain `trampoline` steps, one or more per node, so long
    continuations cost no stack depth."""

    def scan() -> set[str]:
        used = used_bases(term)
        for v in sigma.values():
            used |= {v.base} if isinstance(v, (Name, Var)) else used_bases(v)
        return used

    memo = memo or Memo()
    if term.__class__ not in _LEAVES and not _reaches(term, sigma, memo):
        return term
    return trampoline((_sub, term, sigma, NameSupply(scan), memo))


def _reaches(t, sigma: Mapping, memo: Memo) -> bool:
    """Whether a name or a variable that sigma replaces is free in t."""
    names, vs = _fv(t, memo)[:2]
    return any(x in (names if x.__class__ is Name else vs) for x in sigma)


def _leaf(t, sigma: Mapping):
    cls = t.__class__
    if cls is Name or cls is Var:
        return sigma.get(t, t)
    return t


def _sub(t, sigma: Mapping, supply: NameSupply, memo: Memo):
    """A trampoline step: t with the substitution applied. Leaves come back
    at once, and so does a subterm in which nothing sigma replaces is free;
    any other node goes on in `_sub_kids`."""
    cls = t.__class__
    if cls in _LEAVES:
        return _leaf(t, sigma)
    if not _reaches(t, sigma, memo):
        return t
    memo.stats["nodes_substituted"] += 1
    return _sub_kids(t, _NODES[cls][0](t), sigma, supply, memo, [], None)


def _sub_kids(t, scope: tuple, sigma: Mapping, supply: NameSupply, memo: Memo, done: list, got):
    """A trampoline step: t's children substituted from `len(done)` on, got
    being the image of the one before, if that was a sub-step. Leaves are
    substituted here and every other child but the last is a sub-step that
    resumes here; then a binder that would capture is renamed by one more
    entry in the map, and the last child is a Tail into the node's rebuild.
    An application has no such last child: its arguments are checked as
    they are placed."""
    cls = t.__class__
    kids, bound_names, bound_vars = scope
    _, head, make = _NODES[cls]
    if got is not None:
        done.append(_placed(cls, len(done), kids[len(done)], got))
    n = len(kids) if cls is App else len(kids) - 1
    while len(done) < n:
        k = kids[len(done)]
        if k.__class__ not in _LEAVES:
            return Tail((_sub, k, sigma, supply, memo), _sub_kids, t, scope, sigma, supply, memo, done)
        done.append(_placed(cls, len(done), k, _leaf(k, sigma)))
    if cls is App:
        return make(head(t), (), *done)
    last, bound = kids[-1], bound_names or bound_vars
    if bound:
        sigma, bound = _rebind(bound, last, sigma, supply, memo)
    if last.__class__ in _LEAVES:
        return make(head(t), bound, *done, _placed(cls, n, last, _leaf(last, sigma)))
    return Tail((_sub, last, sigma, supply, memo), make, head(t), bound, *done)


def _placed(cls, i: int, old, new):
    """new, substituted for old as the i-th child of a cls node, if it may
    stand there."""
    if cls is App:
        if i == 0 and new.__class__ is Name:
            raise TermError("substitution put a bare name in function position")
        if i and new.__class__ is Abs:
            raise TermError("substitution put an abstraction in argument position")
    elif old.__class__ is Var and new.__class__ is not Var:
        if i == 0 and new.__class__ is not Name:  # a subject
            raise TermError(
                f"substitution put a non-channel in subject position: {new.__class__.__name__}"
            )
        if i and new.__class__ is Name:
            # only the first-order front end carries name payloads; a
            # variable standing for a value must not become a name here
            raise TermError("substitution put a name in payload position")
    return new


def _rebind(bound: tuple, body, sigma: Mapping, supply: NameSupply, memo: Memo):
    """The map for the scope body of the binders bound, either names or
    variables, and the binders: the entries they shadow are dropped, and if
    a binder occurs free, as a name or a variable like itself, in what an
    entry puts into body, it is renamed to a fresh identifier by one more
    entry. A name binder is renamed with its dual, each capturing variable
    alone."""
    names, vs = _fv(body, memo)[:2]
    sigma = {k: v for k, v in sigma.items() if k not in bound}
    on_names = bound[0].__class__ is Name
    danger = set()
    for k, v in sigma.items():
        if k in (names if k.__class__ is Name else vs):
            danger.update(_fv(v, memo)[0 if on_names else 1])
    if danger.isdisjoint(bound):
        return sigma, bound
    if on_names:
        b = bound[0]
        renames = rename_channel(b, Name(supply.fresh(b.base), b.index, False, b.kind))
    else:
        renames = {b: Var(supply.fresh(b.base), b.index) for b in bound if b in danger}
    sigma.update(renames)
    return sigma, tuple(renames.get(b, b) for b in bound)


# ---------------------------------------------------------------------------
# Canonical rendering and alpha-equivalence
# ---------------------------------------------------------------------------


def _tokens(t, slots: tuple, out: list, stats: Counter):
    """Render t into out on an explicit stack, pausing once after `_PAUSE`
    nodes; returns the number of fields used.

    A token is text or a field number. Field k < len(slots) stands for the
    free name slots[k] (a positive endpoint, either polarity); binders take
    the next fields in order of registration, names after the text n and
    variables after v. Everything else prints literally, labels and free
    bases through `_text`. Names are looked up by base, index and kind,
    which both endpoints share, and variables by base and index: plain
    tuples hash faster than the term classes. A tuple on the stack undoes
    a binding once its scope is rendered."""
    nenv = {(n.base, n.index, n.kind): k for k, n in enumerate(slots)}
    venv: dict = {}
    fields = len(slots)
    emit = out.append
    stack = [t]
    push, pop = stack.append, stack.pop
    rendered, pause = 0, _PAUSE
    while stack:
        x = pop()
        cls = x.__class__
        if cls is str or cls is int:
            emit(x)
            continue
        if cls is tuple:
            env, key, prev = x
            if prev is None:
                del env[key]
            else:
                env[key] = prev
            continue
        rendered += 1
        if cls is Output:
            _leaf_tokens(x.subject, nenv, venv, emit)
            emit("!(")
            push(x.cont)
            _push_list(stack, x.payload, ").")
        elif cls is Input or cls is Abs:
            if cls is Input:
                _leaf_tokens(x.subject, nenv, venv, emit)
                emit("?(")
                bound, close, body = x.binders, ").", x.cont
            else:
                emit("un(" if x.shared else "lin(")
                bound, close, body = [v for v, _ in x.params], "){", x.body
            for k, v in enumerate(bound):
                key = (v.base, v.index)
                push((venv, key, venv.get(key)))
                venv[key] = fields
                if k:
                    emit(",")
                emit("v")
                emit(fields)
                fields += 1
            emit(close)
            if cls is Abs:
                push("}")
            push(body)
        elif cls is Select:
            _leaf_tokens(x.subject, nenv, venv, emit)
            emit(f"<{_text(x.label)}.")
            push(x.cont)
        elif cls is Branch:
            _leaf_tokens(x.subject, nenv, venv, emit)
            emit(">{")
            push("}")
            for k in range(len(x.branches) - 1, -1, -1):
                label, p = x.branches[k]
                push(p)
                push(f";{_text(label)}:" if k else f"{_text(label)}:")
        elif cls is App:
            emit("app(")
            _push_list(stack, x.args, ")")
            push(")(")
            push(x.fun)
        elif cls is Par:
            emit("(")
            push(")")
            push(x.right)
            push("|")
            push(x.left)
        elif cls is Res:
            b = x.binder
            key = (b.base, b.index, b.kind)
            push((nenv, key, nenv.get(key)))
            nenv[key] = fields
            emit("nu n")
            emit(fields)
            emit(".(")
            fields += 1
            push(")")
            push(x.body)
        elif cls is Inact:
            emit("0")
        else:
            _leaf_tokens(x, nenv, venv, emit)
        if rendered == pause:  # once: rendered counts on from 1, never 0
            stats["nodes_rendered"] += rendered
            rendered = pause = 0
            yield
    stats["nodes_rendered"] += rendered
    return fields


def _push_list(stack: list, items: tuple, close: str) -> None:
    """Push items to be rendered separated by commas, then close."""
    stack.append(close)
    for k in range(len(items) - 1, -1, -1):
        stack.append(items[k])
        if k:
            stack.append(",")


def _leaf_tokens(x, nenv: dict, venv: dict, emit) -> None:
    cls = x.__class__
    if cls is Name:
        ref = nenv.get((x.base, x.index, x.kind))
        if ref is None:
            emit(f"{_text(x.base)}.{x.index}.{x.kind}")
        else:
            emit("n")
            emit(ref)
        if x.dual:
            emit("~")
    elif cls is Var:
        ref = venv.get((x.base, x.index))
        if ref is None:
            emit(f"fv:{_text(x.base)}.{x.index}")
        else:
            emit("v")
            emit(ref)
    elif cls is Lit:
        emit(f"lit:{type(x.value).__name__}:{x.value!r}")
    else:
        raise TermError(f"unknown term node {x!r}")


_PAUSE = 32


class Rendering:
    """The template of a term over some slots (see `_tokens`), rendered in
    two stages: its first `_PAUSE` nodes when it is made, the rest when
    `fmt` asks for it or `less` needs it.

    `text` is what is rendered so far, with slot fields as 0 and binder
    fields numbered from 1, so the whole text is alpha-invariant and does
    not depend on the slots' names. `less` orders two renderings by their
    whole texts, and finishes them only when their texts agree as far as
    both are rendered. `fmt` is the same template as a `str.format`
    string; once it is built the tokens are dropped."""

    __slots__ = ("tokens", "slots", "binders", "stats", "text", "_rest", "_fmt")

    def __init__(self, t, slots: tuple, memo: Memo) -> None:
        self.tokens: Optional[list] = []
        self.slots = slots
        self.binders = 0  # known once the rendering is complete
        self.stats = memo.stats
        self._rest: Optional[Generator] = _tokens(t, slots, self.tokens, self.stats)
        self._fmt: Optional[str] = None
        self._render()

    def _render(self) -> None:
        """Render up to the pause, or from it to the end, and set `text`."""
        try:
            next(self._rest)
        except StopIteration as done:
            self._rest = None
            self.binders = done.value - len(self.slots)
            self.stats["full_renderings"] += 1
        n = len(self.slots)
        self.text = "".join([
            x if x.__class__ is str else "0" if x < n else str(x - n + 1) for x in self.tokens
        ])

    def fmt(self) -> str:
        if self._fmt is None:
            if self._rest is not None:
                self._render()
            self._fmt = "".join([
                x.replace("{", "{{").replace("}", "}}") if x.__class__ is str else f"{{{x}}}"
                for x in self.tokens
            ])
            self.tokens = None
        return self._fmt

    def less(self, other: "Rendering") -> Optional[bool]:
        """Whether self's text sorts before other's; None if they are equal."""
        a, b = self.text, other.text
        if (self._rest is not None or other._rest is not None) and (
            a.startswith(b) or b.startswith(a)
        ):
            for r in (self, other):
                if r._rest is not None:
                    r._render()
            a, b = self.text, other.text
        return None if a == b else a < b


def template(t) -> tuple[str, int]:
    """Alpha-invariant, type-erased rendering of t as a `str.format`
    template (see `_tokens`), and the number of binders it registers."""
    r = Rendering(t, (), Memo())
    return r.fmt(), r.binders


def alpha_eq(a, b) -> bool:
    """Structural equality up to consistent renaming of bound names,
    bound variables, and recursion binders inside annotations: the type-
    erased templates agree, and so do the types the nodes' heads hold
    (restriction annotations and abstraction parameter types), in
    preorder."""

    def annots(t) -> list[str]:
        return [
            canon_key(c)
            for x in iter_subterms(t) if x.__class__ in _NODES
            for c in _NODES[x.__class__][1](x)[1]
        ]

    return template(a) == template(b) and annots(a) == annots(b)


# ---------------------------------------------------------------------------
# First-order front end: encoding name passing away
# ---------------------------------------------------------------------------


def _np_rule(t, kids, table: dict):
    """The rule of the fold that translates a first-order type: a prefix's
    payloads, each translated as a kid, become their package types."""
    if t.__class__ is SOut or t.__class__ is SIn:
        for u in t.payload:
            if not (isinstance(u, TBase) or is_session(u)):
                raise TypeError_(f"unsupported first-order payload {u!r}")
        kids = [*(_np_payload(u, table, k)[2] for u, k in zip(t.payload, kids)), kids[-1]]
    return remake(t, kids)


def _np_payload(c, table: dict, hot=None) -> tuple:
    """What packaging an item of type c takes: (c translated, the type of
    the channel that carries its package, the package's type). Made once
    per type up to binder names in table, keyed by `canon_key`, so one
    translation serves a payload, a carrier and a restriction; hot is c
    translated, when a fold has made it already."""
    key = canon_key(c)
    got = table.get(key)
    if got is None:
        if hot is None:
            hot = fold(c, _np_rule, env=table) if is_session(c) else c
        carrier = package_type(hot)
        got = table[key] = (hot, carrier, TArrow((carrier,), shared=False))
    return got


def encode_nptype(t):
    """Translate a first-order session type: a communicated channel type C
    becomes the abstraction type (?<lin(C')>;end) -> diamond that its
    package is typed with, where C' is C translated."""
    if isinstance(t, (TArrow, TChan)):
        raise TypeError_(f"unsupported first-order type {t!r}")
    return fold(t, _np_rule, env={})


def package_type(c: CType) -> SIn:
    """Session type of the fresh channel the receiving side opens: it
    receives the abstraction that will consume the packaged item."""
    return SIn((TArrow((c,), shared=False),), END)


class Tail:
    """What a step returns to hand on its work: the step `sub`, a tuple
    `(function, *args)` to be called next, and what to do with its value
    v, which is `then(*args, v)` (v itself without `then`). A step that
    needs a sub-result before it can go on returns a Tail whose `then` is
    its second half; one whose last work is another step returns a Tail
    without `then`. `sub` may be a Tail in turn, and so may what a step or
    a `then` returns. The trampoline keeps only `then` and `args` while
    the step runs, so the step's tuple and the Tail are freed."""

    __slots__ = ("sub", "then", "args")

    def __init__(self, sub: Union[tuple, "Tail"], then: Optional[Callable] = None, *args) -> None:
        self.sub, self.then, self.args = sub, then, args


def trampoline(step: tuple):
    """Run a recursion of plain steps on an explicit stack: call the step,
    a tuple `(function, *args)`; while the result is a Tail, keep its
    `then` pending and call its step; a plain value goes to the latest
    pending `then`, or is the answer when none is left. Nesting costs heap,
    not Python stack. Exceptions propagate."""
    stack: list = []
    push, pop = stack.append, stack.pop
    value = Tail(step)
    while True:
        while value.__class__ is Tail:
            if value.then is not None:
                push(value.then)
                push(value.args)
            step = value.sub
            value = step if step.__class__ is Tail else step[0](*step[1:])
        if not stack:
            return value
        args = pop()
        value = pop()(*args, value)


def encode_namepass(term: Process, name_types: Optional[Mapping] = None) -> Process:
    """Compile first-order name/literal passing into abstraction passing.

    An output n!<m>.P packs m into a linear abstraction that forwards it;
    an input n?(x).Q opens a fresh channel, applies the received package
    to it, and sends the real consumer along it. All other constructs map
    homomorphically. `name_types` assigns each packaged name (and each
    packaging input binder) the channel type it has at that point, so the
    emitted abstractions can be annotated; literal payloads infer theirs.
    Every clause binds what it is written with, z and x in a package and y
    and s on the receiving side, drawn fresh for the term at the first
    packaging and shared: a package binds nothing it forwards, and a
    consumer never mentions the y and s that a clause in its body shadows.
    Outputs of equal items share one package.
    """
    types = dict(name_types or {})
    supply = NameSupply(lambda: used_bases(term))
    table: dict = {}  # key of a type -> its entry, as in `_np_payload`
    packed: dict = {}  # id of a type met -> (the type, its entry in table)
    sent: dict = {}  # a packaged item -> the payload packing it
    fixed: dict = {}  # the clauses' binders, and what is built of them alone
    kept: list = []  # what the encoding keeps as it is, to check for names sent

    def clause(part: str):
        if not fixed:
            z, x, y = (Var(supply.fresh(h)) for h in "zxy")
            s = Name(supply.fresh("s"), None, False, "session")
            fixed.update(z=z, x=x, xs=(x,), ys=(y,), s=s, sd=s.dualized(), nil=Inact())
            fixed["apply"] = App(y, (s,))
        return fixed[part]

    def pack(c) -> tuple:
        """c's entry in table, found by id once c is met, so a long protocol
        keys each of its types once."""
        got = packed.get(id(c))
        if got is None:
            got = packed[id(c)] = (c, _np_payload(c, table))
        return got[1]

    def lookup(item) -> CType:
        if isinstance(item, Lit):
            return item.btype
        if item in types:
            return types[item]
        raise TermError(f"no declared type for packaged item {item}")

    def receive(subject, param: tuple, carrier, body: Process) -> Input:
        consumer = Abs((param,), body, shared=False)
        feed = Par(clause("apply"), Output(clause("sd"), (consumer,), clause("nil")))
        return Input(subject, clause("ys"), Res(clause("s"), carrier, feed))

    def go(t: Process):
        # a step ends in a Tail that rebuilds its node around the encoded
        # continuation, so only the pending constructors stay on the stack
        cls = t.__class__
        if cls is Inact or cls is App:
            kept.append(t)
            return t
        if cls is Output:
            item = t.payload[0] if len(t.payload) == 1 else None
            if isinstance(item, (Name, Lit)) or (isinstance(item, Var) and item in types):
                payload = sent.get(item)
                if payload is None:  # outputs of equal items share one package
                    forward = Input(clause("z"), clause("xs"), App(clause("x"), t.payload))
                    carrier = pack(lookup(item))[1]
                    payload = sent[item] = (Abs(((clause("z"), carrier),), forward),)
                return Tail((go, t.cont), Output, t.subject, payload)
            kept.append(Output(t.subject, t.payload, Inact()))  # its payload is kept
        elif cls is Input:
            if len(t.binders) == 1 and t.binders[0] in types:
                hot, carrier, _ = pack(lookup(t.binders[0]))
                return Tail((go, t.cont), receive, t.subject, (t.binders[0], hot), carrier)
        elif cls not in (Select, Branch, Par, Res):
            raise TermError(f"unsupported construct for the first-order front end: {cls.__name__}")
        # any other node: its subject and payload kept, every other child
        # encoded as a process
        kids = _NODES[cls][0](t)[0]
        keep = 0 if cls is Par or cls is Res else 1 + len(t.payload) if cls is Output else 1
        return rebuild(t, kids, list(kids[:keep]), None)

    def rebuild(t: Process, kids: tuple, done: list, got):
        """A step: t's children encoded from `len(done)` on, got being the
        encoding of the one before, if any; the last is a Tail into t's
        rebuild, with the types t's head holds translated."""
        if got is not None:
            done.append(got)
        if len(done) < len(kids) - 1:
            return Tail((go, kids[len(done)]), rebuild, t, kids, done)
        scope, head, make = _NODES[t.__class__]
        _, bound_names, bound_vars = scope(t)
        extra, held = head(t)
        hot = tuple(pack(c)[0] for c in held)
        return Tail((go, kids[-1]), make, (extra, hot), bound_names or bound_vars, *done)

    out = trampoline((go, term))
    if any(
        isinstance(v, Output) and any(isinstance(p, Name) for p in v.payload)
        for k in kept for v in iter_subterms(k)
    ):
        raise TermError("first-order payloads survived the encoding")
    return out


def iter_subterms(t) -> Iterator:
    """Preorder walk over processes and values, subjects, application
    arguments and binders included, through the rows of `_NODES`: a node's
    children but the last, then the name or the variables it binds (a
    restriction's binder, an input's binders, an abstraction's
    parameters), then its last child."""
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        row = _NODES.get(t.__class__)
        if row is not None:
            kids, names, vs = row[0](t)
            if kids:
                stack.append(kids[-1])
                stack += reversed(vs or names[:1])
                stack += reversed(kids[:-1])
