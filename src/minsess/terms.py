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

import re
from dataclasses import dataclass
from typing import Callable, Generator, Iterable, Iterator, Mapping, Optional, Union

from .types import (
    BOOL,
    CType,
    END,
    INT,
    SIn,
    SOut,
    SSel,
    SBra,
    SRec,
    TArrow,
    TBase,
    TChan,
    TypeError_,
    canon_key,
    fold,
    is_session,
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

    def __post_init__(self) -> None:
        if self.kind not in ("session", "shared"):
            raise TermError(f"bad name kind {self.kind!r}")
        if self.kind == "shared" and self.dual:
            raise TermError("shared names are self-dual; no dual polarity")
        if self.index is not None and self.index < 1:
            raise TermError("name indices start at 1")

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

    def with_index(self, index: Optional[int]) -> "Var":
        return Var(self.base, index)

    def __str__(self) -> str:
        return self.base if self.index is None else f"{self.base}_{self.index}"


def prop_name(k: int, dual: bool = False) -> Name:
    """The k-th sequencing channel of a decomposition."""
    return Name(RESERVED_PREFIX, k, dual, "session")


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


@dataclass(frozen=True, slots=True)
class Lit:
    value: object  # int | bool

    def __post_init__(self) -> None:
        if not isinstance(self.value, (bool, int)):
            raise TermError(f"unsupported literal {self.value!r}")

    @property
    def btype(self) -> TBase:
        return BOOL if isinstance(self.value, bool) else INT


@dataclass(frozen=True, slots=True)
class Abs:
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


@dataclass(frozen=True, slots=True)
class Inact:
    pass


@dataclass(frozen=True, slots=True)
class Output:
    subject: Subject
    payload: tuple[Payload, ...]
    cont: "Process"


@dataclass(frozen=True, slots=True)
class Input:
    subject: Subject
    binders: tuple[Var, ...]
    cont: "Process"

    def __post_init__(self) -> None:
        if len(set(self.binders)) != len(self.binders):
            raise TermError(f"duplicate input binders: {self.binders}")


@dataclass(frozen=True, slots=True)
class Select:
    subject: Subject
    label: str
    cont: "Process"


@dataclass(frozen=True, slots=True)
class Branch:
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


@dataclass(frozen=True, slots=True)
class App:
    fun: Value
    args: tuple[Arg, ...]

    def __post_init__(self) -> None:
        if isinstance(self.fun, Lit):
            raise TermError("literals cannot be applied")


@dataclass(frozen=True, slots=True)
class Par:
    left: "Process"
    right: "Process"


@dataclass(frozen=True, slots=True)
class Res:
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


def _free(term) -> tuple[dict, dict]:
    """The free names and the free variables of term, each a dict (values
    unused) in first-occurrence preorder.

    The walk loops along continuations, right parallel branches, last
    branch arms and restriction and abstraction bodies, and recurses only
    into subjects, payloads, arguments, left parallel branches and earlier
    arms, so a long session costs no stack depth."""
    names: dict = {}
    vs: dict = {}

    def go(t, bn: frozenset, bv: frozenset) -> None:
        while True:
            cls = t.__class__
            if cls is Name:
                if t not in bn:
                    names[t] = None
                return
            if cls is Var:
                if t not in bv:
                    vs[t] = None
                return
            if cls is Output:
                go(t.subject, bn, bv)
                for v in t.payload:
                    go(v, bn, bv)
                t = t.cont
            elif cls is Input:
                go(t.subject, bn, bv)
                bv = bv.union(t.binders)
                t = t.cont
            elif cls is Select:
                go(t.subject, bn, bv)
                t = t.cont
            elif cls is Par:
                go(t.left, bn, bv)
                t = t.right
            elif cls is Res:
                bn = bn.union((t.binder, t.binder.dualized()))
                t = t.body
            elif cls is Branch:
                go(t.subject, bn, bv)
                for _, p in t.branches[:-1]:
                    go(p, bn, bv)
                t = t.branches[-1][1]
            elif cls is App:
                go(t.fun, bn, bv)
                for a in t.args:
                    go(a, bn, bv)
                return
            elif cls is Abs:
                bv = bv.union(v for v, _ in t.params)
                t = t.body
            elif cls is Inact or cls is Lit:
                return
            else:
                raise TermError(f"unknown term node {t!r}")

    go(term, frozenset(), frozenset())
    return names, vs


def free_names(term: Union[Process, Value]) -> list[Name]:
    return list(_free(term)[0])


def free_vars(term: Union[Process, Value]) -> list[Var]:
    return list(_free(term)[1])


def used_bases(term: Union[Process, Value]) -> set[str]:
    """Every base identifier occurring anywhere, bound or free."""
    out: set[str] = set()
    for t in iter_subterms(term):
        cls = t.__class__
        if cls is Name or cls is Var:
            out.add(t.base)
        elif cls is Input:
            out.update(v.base for v in t.binders)
        elif cls is Abs:
            out.update(v.base for v, _ in t.params)
    return out


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


@dataclass(frozen=True, slots=True)
class Subst:
    """Simultaneous capture-avoiding substitution.

    var_map sends variables to values (or to names, for application);
    name_map sends names to names, each polarity listed explicitly.
    """

    var_map: tuple[tuple[Var, Union[Value, Name]], ...] = ()
    name_map: tuple[tuple[Name, Name], ...] = ()

    @staticmethod
    def of_vars(mapping: Mapping[Var, Union[Value, Name]]) -> "Subst":
        return Subst(tuple(mapping.items()), ())

    @staticmethod
    def of_names(mapping: Mapping[Name, Name]) -> "Subst":
        return Subst((), tuple(mapping.items()))

    @staticmethod
    def rename_channel(old: Name, new: Name) -> "Subst":
        """Rename both endpoints of a channel consistently."""
        entries = {old: new}
        if old.kind == "session":
            entries[old.dualized()] = new.dualized()
        return Subst.of_names(entries)

    def vars(self) -> dict:
        return dict(self.var_map)

    def names(self) -> dict:
        return dict(self.name_map)


def init_names(names: list[Name]) -> list[Name]:
    """Give every name of a tuple the starting index 1."""
    for n in names:
        if n.index is not None:
            raise TermError(f"already indexed: {n}")
    return [n.with_index(1) for n in names]


def init_subst(term: Union[Process, Value]) -> Subst:
    """The index-initializing substitution for a term's free names."""
    fns = [n for n in free_names(term) if n.index is None]
    return Subst.of_names({n: n.with_index(1) for n in fns})


def substitute(term, sigma: Subst):
    """Apply sigma to a process or value, renaming binders on capture."""
    vmap = sigma.vars()
    nmap = sigma.names()

    def scan() -> set[str]:
        used = used_bases(term)
        for v in vmap.values():
            used |= {v.base} if isinstance(v, (Name, Var)) else used_bases(v)
        used.update(n.base for n in nmap.values())
        return used

    return _sub(term, vmap, nmap, NameSupply(scan))


def _sub(t, vmap: dict, nmap: dict, supply: NameSupply):
    if isinstance(t, Name):
        return nmap.get(t, t)
    if isinstance(t, Var):
        return vmap.get(t, t)
    if isinstance(t, Lit) or isinstance(t, Inact):
        return t
    if isinstance(t, Output):
        return Output(
            _sub_subject(t.subject, vmap, nmap),
            tuple(_sub_payload(v, vmap, nmap, supply) for v in t.payload),
            _sub(t.cont, vmap, nmap, supply),
        )
    if isinstance(t, Input):
        binders, vmap2, ren = _scope_vars(t.binders, vmap, supply)
        cont = t.cont if not ren else _sub(t.cont, ren, {}, supply)
        return Input(
            _sub_subject(t.subject, vmap, nmap),
            binders,
            _sub(cont, vmap2, nmap, supply),
        )
    if isinstance(t, Select):
        return Select(
            _sub_subject(t.subject, vmap, nmap),
            t.label,
            _sub(t.cont, vmap, nmap, supply),
        )
    if isinstance(t, Branch):
        return Branch(
            _sub_subject(t.subject, vmap, nmap),
            tuple((l, _sub(p, vmap, nmap, supply)) for l, p in t.branches),
        )
    if isinstance(t, App):
        fun = _sub(t.fun, vmap, nmap, supply)
        if isinstance(fun, Name):
            raise TermError("substitution put a bare name in function position")
        args = []
        for a in t.args:
            b = _sub(a, vmap, nmap, supply)
            if isinstance(b, Abs):
                raise TermError("substitution put an abstraction in argument position")
            args.append(b)
        return App(fun, tuple(args))
    if isinstance(t, Par):
        return Par(_sub(t.left, vmap, nmap, supply), _sub(t.right, vmap, nmap, supply))
    if isinstance(t, Res):
        binder, nmap2, ren = _scope_name(t.binder, vmap, nmap, supply)
        body = t.body if not ren else _sub(t.body, {}, ren, supply)
        return Res(binder, t.annot, _sub(body, vmap, nmap2, supply))
    if isinstance(t, Abs):
        pv = tuple(v for v, _ in t.params)
        binders, vmap2, ren = _scope_vars(pv, vmap, supply)
        body = t.body if not ren else _sub(t.body, ren, {}, supply)
        params = tuple((b, c) for b, (_, c) in zip(binders, t.params))
        return Abs(params, _sub(body, vmap2, nmap, supply), t.shared)
    raise TermError(f"unknown term node {t!r}")


def _sub_subject(s: Subject, vmap: dict, nmap: dict) -> Subject:
    if isinstance(s, Name):
        return nmap.get(s, s)
    got = vmap.get(s, s)
    if not isinstance(got, (Name, Var)):
        raise TermError(f"substitution put a non-channel in subject position: {got!r}")
    return got


def _sub_payload(v, vmap, nmap, supply):
    got = _sub(v, vmap, nmap, supply)
    if isinstance(got, Name):
        # only the first-order front end carries name payloads; a variable
        # standing for a value must not become a name here
        if isinstance(v, Var):
            raise TermError("substitution put a name in payload position")
    return got


def _scope_vars(binders, vmap, supply):
    """Drop shadowed entries; rename binders that would capture."""
    vmap = {k: v for k, v in vmap.items() if k not in binders}
    danger: set[Var] = set()
    for v in vmap.values():
        danger.update(_free(v)[1])
    renames: dict[Var, Var] = {}
    fresh_binders = []
    for b in binders:
        if b in danger:
            nb = Var(supply.fresh(b.base), b.index)
            renames[b] = nb
            fresh_binders.append(nb)
        else:
            fresh_binders.append(b)
    return tuple(fresh_binders), vmap, (renames or None)


def _scope_name(binder: Name, vmap, nmap, supply):
    both = {binder, binder.dualized()}
    nmap = {k: v for k, v in nmap.items() if k not in both}
    danger: set[Name] = set(nmap.values())
    for v in vmap.values():
        danger.update(_free(v)[0])
    if both & danger:
        nb = Name(supply.fresh(binder.base), binder.index, False, binder.kind)
        ren = {binder: nb}
        if binder.kind == "session":
            ren[binder.dualized()] = nb.dualized()
        return nb, nmap, ren
    return binder, nmap, None


# ---------------------------------------------------------------------------
# Canonical rendering and alpha-equivalence
# ---------------------------------------------------------------------------


_PLAIN = re.compile(r"[\w'#]*")


def _text(text: str) -> str:
    """text as it stands in a template: identifiers, primed or reserved ones
    too, verbatim, and anything else as `$<length>:` and the text escaped,
    so that no two texts render alike."""
    if text.isidentifier() or _PLAIN.fullmatch(text):
        return text
    return f"${len(text)}:" + _escape(text)


def _escape(text: str) -> str:
    """text with its braces doubled, to stand literally in a template."""
    return text.replace("{", "{{").replace("}", "}}")


def template(t, slots: tuple) -> tuple[str, int]:
    """Alpha-invariant, type-erased rendering of t as a `str.format`
    template, and the number of binders it registers.

    Field k < len(slots) stands for the free name slots[k] (a positive
    endpoint, either polarity); binders take the next fields in order of
    registration, names as n{...} and variables as v{...}. Everything else
    prints literally, labels and free bases through `_text`. Names are
    looked up by base, index and kind, which both endpoints share, and
    variables by base and index: plain tuples hash faster than the term
    classes."""
    nenv = {(n.base, n.index, n.kind): f"n{{{k}}}" for k, n in enumerate(slots)}
    venv: dict = {}
    first = field = len(slots)

    def bind(env: dict, x, tag: str):
        nonlocal field
        prev = env.get(x)
        env[x] = f"{tag}{{{field}}}"
        field += 1
        return prev

    def unbind(env: dict, x, prev) -> None:
        if prev is None:
            del env[x]
        else:
            env[x] = prev

    def name(n: Name) -> str:
        ref = nenv.get((n.base, n.index, n.kind))
        if ref is None:
            ref = f"{_text(n.base)}.{n.index}.{n.kind}"
        return ref + "~" if n.dual else ref

    def val(v) -> str:
        if isinstance(v, Lit):
            return f"lit:{type(v.value).__name__}:{v.value!r}"
        if isinstance(v, Var):
            ref = venv.get((v.base, v.index))
            if ref is None:
                ref = f"fv:{_text(v.base)}.{v.index}"
            return ref
        if isinstance(v, Name):
            return name(v)
        if isinstance(v, Abs):
            keys = [(x.base, x.index) for x, _ in v.params]
            prevs = [bind(venv, x, "v") for x in keys]
            head = ",".join(venv[x] for x in keys)
            body = go(v.body)
            for x, prev in zip(reversed(keys), reversed(prevs)):
                unbind(venv, x, prev)
            tag = "un" if v.shared else "lin"
            return f"{tag}({head}){{{{{body}}}}}"
        raise TermError(f"unknown term node {v!r}")

    def subj(s) -> str:
        return name(s) if isinstance(s, Name) else val(s)

    def go(t) -> str:
        if isinstance(t, Inact):
            return "0"
        if isinstance(t, Output):
            ps = ",".join(val(v) for v in t.payload)
            return f"{subj(t.subject)}!({ps}).{go(t.cont)}"
        if isinstance(t, Input):
            subject = subj(t.subject)
            keys = [(x.base, x.index) for x in t.binders]
            prevs = [bind(venv, x, "v") for x in keys]
            head = ",".join(venv[x] for x in keys)
            body = go(t.cont)
            for x, prev in zip(reversed(keys), reversed(prevs)):
                unbind(venv, x, prev)
            return f"{subject}?({head}).{body}"
        if isinstance(t, Select):
            return f"{subj(t.subject)}<{_text(t.label)}.{go(t.cont)}"
        if isinstance(t, Branch):
            arms = [f"{_text(l)}:{go(p)}" for l, p in t.branches]
            return f"{subj(t.subject)}>{{{{{';'.join(arms)}}}}}"
        if isinstance(t, App):
            args = ",".join(val(a) if not isinstance(a, Name) else name(a) for a in t.args)
            return f"app({val(t.fun)})({args})"
        if isinstance(t, Par):
            return f"({go(t.left)}|{go(t.right)})"
        if isinstance(t, Res):
            b = t.binder
            key = (b.base, b.index, b.kind)
            prev = bind(nenv, key, "n")
            head = nenv[key]
            body = go(t.body)
            unbind(nenv, key, prev)
            return f"nu {head}.({body})"
        return val(t)

    return go(t), field - first


def alpha_eq(a, b) -> bool:
    """Structural equality up to consistent renaming of bound names,
    bound variables, and recursion binders inside annotations: the type-
    erased templates agree, and so do the restriction annotations and
    abstraction parameter types, in preorder."""

    def annots(t) -> list[str]:
        out = []
        for x in iter_subterms(t):
            if x.__class__ is Res:
                out.append(canon_key(x.annot))
            elif x.__class__ is Abs:
                out.extend(canon_key(c) for _, c in x.params)
        return out

    return template(a, ()) == template(b, ()) and annots(a) == annots(b)


# ---------------------------------------------------------------------------
# First-order front end: encoding name passing away
# ---------------------------------------------------------------------------


def _np_rule(t, kids, packages: dict):
    cls = t.__class__
    if cls is SOut or cls is SIn:
        return cls(tuple(_np_payload(u, k, packages) for u, k in zip(t.payload, kids)), kids[-1])
    if cls is SSel or cls is SBra:
        return cls(tuple((l, k) for (l, _), k in zip(t.branches, kids)))
    if cls is SRec:
        return SRec(t.var, kids[0])
    return t  # end, variables, base types; arrows, rejected as payloads


def _np_payload(c, inner, packages: dict):
    """The package type of a payload of type c translated to inner; payloads
    of one type up to binder names share one, keyed by `canon_key` in
    packages."""
    if not (isinstance(c, TBase) or is_session(c)):
        raise TypeError_(f"unsupported first-order payload {c!r}")
    key = canon_key(c)
    got = packages.get(key)
    if got is None:
        got = packages[key] = TArrow((package_type(inner),), shared=False)
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
    """A step's last sub-computation, returned instead of yielded: the
    step's frame is released and, when the generator `sub` returns v, the
    step's result is `then(*args, v)` (v itself without `then`). `then`
    may return a Tail in turn. The trampoline keeps `(then, *args)` only."""

    __slots__ = ("sub", "then", "args")

    def __init__(self, sub: Generator, then: Optional[Callable] = None, *args) -> None:
        self.sub, self.then, self.args = sub, then, args


def trampoline(gen: Generator):
    """Run a generator-based recursion on an explicit stack: a step `yield`s
    the generator of a sub-computation and resumes with its return value,
    so nesting costs heap, not Python stack; a step that ends in a Tail
    leaves only its `then` on the stack. Exceptions propagate."""
    stack: list = []
    push, pop = stack.append, stack.pop
    sub, value = gen, None
    while True:
        if sub is not None:  # start a step, unwrapping tails
            while sub.__class__ is Tail:
                if sub.then is not None:
                    push((sub.then, *sub.args))  # one tuple per pending step
                sub = sub.sub
            push(sub)
            sub = value = None
        elif not stack:
            return value
        top = stack[-1]
        if top.__class__ is tuple:
            pop()
            value = top[0](*top[1:], value)
            sub = None
        else:
            try:
                sub = top.send(value)
                continue
            except StopIteration as done:
                pop()
                value = done.value
        if value.__class__ is Tail:
            sub = value


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
    Outputs of equal literals at one type share one package.
    """
    types = dict(name_types or {})
    supply = NameSupply(lambda: used_bases(term))
    packs: dict = {}  # key of a channel type -> (its translation, package type)
    packages: dict = {}  # the translations' package types, as in encode_nptype
    params: dict = {}  # id of a package type -> the parameters of its packages
    sent: dict = {}  # (id of a package type, literal type, value) -> the payload packing it
    fixed: dict = {}  # the clauses' binders, and what is built of them alone

    def clause(part: str):
        if not fixed:
            z, x, y = (Var(supply.fresh(h)) for h in "zxy")
            s = Name(supply.fresh("s"), None, False, "session")
            fixed.update(z=z, x=x, xs=(x,), ys=(y,), s=s, sd=s.dualized(), nil=Inact())
            fixed["apply"] = App(y, (s,))
        return fixed[part]

    def pack(c) -> tuple:
        """A channel type translated, and the type of the channel that carries
        a package of it; once per type up to binder names and call, so a long
        protocol holds each once."""
        key = canon_key(c)
        if key not in packs:
            hot = fold(c, _np_rule, env=packages) if is_session(c) else c
            packs[key] = (hot, package_type(hot))
        return packs[key]

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
        if isinstance(t, (Inact, App)):
            return t
        if isinstance(t, Output):
            item = t.payload[0] if len(t.payload) == 1 else None
            if isinstance(item, (Name, Lit)) or (isinstance(item, Var) and item in types):
                carrier = pack(lookup(item))[1]
                key = (id(carrier), type(item.value), item.value) if isinstance(item, Lit) else None
                payload = sent.get(key)
                if payload is None:  # equal literals share one package
                    forward = Input(clause("z"), clause("xs"), App(clause("x"), t.payload))
                    payload = (Abs(params.setdefault(id(carrier), ((clause("z"), carrier),)), forward),)
                    if key is not None:
                        sent[key] = payload
                return Tail(go(t.cont), Output, t.subject, payload)
            return Tail(go(t.cont), Output, t.subject, t.payload)
        if isinstance(t, Input):
            if len(t.binders) == 1 and t.binders[0] in types:
                hot, carrier = pack(lookup(t.binders[0]))
                return Tail(go(t.cont), receive, t.subject, (t.binders[0], hot), carrier)
            return Tail(go(t.cont), Input, t.subject, t.binders)
        if isinstance(t, Select):
            return Tail(go(t.cont), Select, t.subject, t.label)
        if isinstance(t, Branch):
            arms = []
            for l, p in t.branches:
                arms.append((l, (yield go(p))))
            return Branch(t.subject, tuple(arms))
        if isinstance(t, Par):
            left = yield go(t.left)
            return Tail(go(t.right), Par, left)
        if isinstance(t, Res):
            return Tail(go(t.body), Res, t.binder, pack(t.annot)[0])
        raise TermError(f"unsupported construct for the first-order front end: {t!r}")

    out = trampoline(go(term))
    if any(
        isinstance(v, Output) and any(isinstance(p, Name) for p in v.payload)
        for v in iter_subterms(out)
    ):
        raise TermError("first-order payloads survived the encoding")
    return out


def iter_subterms(t) -> Iterator:
    """Preorder walk over processes and values, subjects, application
    arguments and restriction binders included."""
    stack = [t]
    push, extend = stack.append, stack.extend
    while stack:
        t = stack.pop()
        yield t
        cls = t.__class__
        if cls is Output:
            push(t.cont)
            extend(reversed(t.payload))
            push(t.subject)
        elif cls is Input or cls is Select:
            push(t.cont)
            push(t.subject)
        elif cls is Par:
            push(t.right)
            push(t.left)
        elif cls is Res:
            push(t.body)
            push(t.binder)
        elif cls is Branch:
            extend(p for _, p in reversed(t.branches))
            push(t.subject)
        elif cls is App:
            extend(reversed(t.args))
            push(t.fun)
        elif cls is Abs:
            push(t.body)
