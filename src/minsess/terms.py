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
channels and rejected by the surface parser: '#k' for the sequencing
channels the decomposition threads between trios and '#rec:n' for the
shared servers that carry recursive-channel tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

from .types import (
    BOOL,
    CType,
    INT,
    SEnd,
    SIn,
    SOut,
    SSel,
    SBra,
    SRec,
    SVar,
    TArrow,
    TBase,
    TypeError_,
    is_session,
    type_alpha_eq,
)

RESERVED_PREFIX = "#"
REC_SERVER_PREFIX = "#rec:"


class TermError(Exception):
    """Raised on ill-formed terms or invalid substitutions."""


# ---------------------------------------------------------------------------
# Names and variables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Lit:
    value: object  # int | bool

    def __post_init__(self) -> None:
        if not isinstance(self.value, (bool, int)):
            raise TermError(f"unsupported literal {self.value!r}")

    @property
    def btype(self) -> TBase:
        return BOOL if isinstance(self.value, bool) else INT


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Inact:
    pass


@dataclass(frozen=True)
class Output:
    subject: Subject
    payload: tuple[Payload, ...]
    cont: "Process"


@dataclass(frozen=True)
class Input:
    subject: Subject
    binders: tuple[Var, ...]
    cont: "Process"

    def __post_init__(self) -> None:
        if len(set(self.binders)) != len(self.binders):
            raise TermError(f"duplicate input binders: {self.binders}")


@dataclass(frozen=True)
class Select:
    subject: Subject
    label: str
    cont: "Process"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class App:
    fun: Value
    args: tuple[Arg, ...]

    def __post_init__(self) -> None:
        if isinstance(self.fun, Lit):
            raise TermError("literals cannot be applied")


@dataclass(frozen=True)
class Par:
    left: "Process"
    right: "Process"


@dataclass(frozen=True)
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


def _ordered_add(acc: list, seen: set, item) -> None:
    if item not in seen:
        seen.add(item)
        acc.append(item)


def free_names(term: Union[Process, Value]) -> list[Name]:
    acc: list[Name] = []
    seen: set[Name] = set()

    def go(t, bound: frozenset) -> None:
        if isinstance(t, Name):
            if t not in bound:
                _ordered_add(acc, seen, t)
        elif isinstance(t, (Var, Lit, Inact)):
            pass
        elif isinstance(t, Output):
            go(t.subject, bound)
            for v in t.payload:
                go(v, bound)
            go(t.cont, bound)
        elif isinstance(t, Input):
            go(t.subject, bound)
            go(t.cont, bound)
        elif isinstance(t, (Select,)):
            go(t.subject, bound)
            go(t.cont, bound)
        elif isinstance(t, Branch):
            go(t.subject, bound)
            for _, p in t.branches:
                go(p, bound)
        elif isinstance(t, App):
            go(t.fun, bound)
            for a in t.args:
                go(a, bound)
        elif isinstance(t, Par):
            go(t.left, bound)
            go(t.right, bound)
        elif isinstance(t, Res):
            go(t.body, bound | {t.binder, t.binder.dualized()})
        elif isinstance(t, Abs):
            go(t.body, bound)
        else:
            raise TermError(f"unknown term node {t!r}")

    go(term, frozenset())
    return acc


def free_vars(term: Union[Process, Value]) -> list[Var]:
    acc: list[Var] = []
    seen: set[Var] = set()

    def go(t, bound: frozenset) -> None:
        if isinstance(t, Var):
            if t not in bound:
                _ordered_add(acc, seen, t)
        elif isinstance(t, (Name, Lit, Inact)):
            pass
        elif isinstance(t, Output):
            go(t.subject, bound)
            for v in t.payload:
                go(v, bound)
            go(t.cont, bound)
        elif isinstance(t, Input):
            go(t.subject, bound)
            go(t.cont, bound | set(t.binders))
        elif isinstance(t, Select):
            go(t.subject, bound)
            go(t.cont, bound)
        elif isinstance(t, Branch):
            go(t.subject, bound)
            for _, p in t.branches:
                go(p, bound)
        elif isinstance(t, App):
            go(t.fun, bound)
            for a in t.args:
                go(a, bound)
        elif isinstance(t, Par):
            go(t.left, bound)
            go(t.right, bound)
        elif isinstance(t, Res):
            go(t.body, bound)
        elif isinstance(t, Abs):
            go(t.body, bound | {v for v, _ in t.params})
        else:
            raise TermError(f"unknown term node {t!r}")

    go(term, frozenset())
    return acc


def used_bases(term: Union[Process, Value]) -> set[str]:
    """Every base identifier occurring anywhere, bound or free."""
    out: set[str] = set()

    def go(t) -> None:
        if isinstance(t, (Name, Var)):
            out.add(t.base)
        elif isinstance(t, (Lit, Inact)):
            pass
        elif isinstance(t, Output):
            go(t.subject)
            for v in t.payload:
                go(v)
            go(t.cont)
        elif isinstance(t, Input):
            go(t.subject)
            for b in t.binders:
                go(b)
            go(t.cont)
        elif isinstance(t, Select):
            go(t.subject)
            go(t.cont)
        elif isinstance(t, Branch):
            go(t.subject)
            for _, p in t.branches:
                go(p)
        elif isinstance(t, App):
            go(t.fun)
            for a in t.args:
                go(a)
        elif isinstance(t, Par):
            go(t.left)
            go(t.right)
        elif isinstance(t, Res):
            go(t.binder)
            go(t.body)
        elif isinstance(t, Abs):
            for v, _ in t.params:
                go(v)
            go(t.body)

    go(term)
    return out


class NameSupply:
    """Deterministic fresh-identifier source: primes a hint until unused.

    `scan` returns the identifiers already in use. It runs on the first call
    to `fresh`, so a supply that never has to invent a name never walks the
    terms it guards.
    """

    def __init__(self, scan: Callable[[], Iterable[str]]) -> None:
        self._scan: Optional[Callable[[], Iterable[str]]] = scan
        self._used: set[str] = set()

    def fresh(self, hint: str) -> str:
        if self._scan is not None:
            self._used.update(self._scan())
            self._scan = None
        hint = hint.rstrip("'") or "x"
        candidate = hint
        while candidate in self._used:
            candidate += "'"
        self._used.add(candidate)
        return candidate


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
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


def _value_free_idents(v) -> tuple[set[Var], set[Name]]:
    if isinstance(v, Name):
        return set(), {v}
    return set(free_vars(v)), set(free_names(v))


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
    for v in list(vmap.values()):
        danger |= _value_free_idents(v)[0]
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
        danger |= _value_free_idents(v)[1]
    if both & danger:
        nb = Name(supply.fresh(binder.base), binder.index, False, binder.kind)
        ren = {binder: nb}
        if binder.kind == "session":
            ren[binder.dualized()] = nb.dualized()
        return nb, nmap, ren
    return binder, nmap, None


# ---------------------------------------------------------------------------
# Alpha-equivalence
# ---------------------------------------------------------------------------


def alpha_eq(a, b) -> bool:
    """Structural equality up to consistent renaming of bound names,
    bound variables, and recursion binders inside annotations."""

    def go(a, b, venv: dict, nenv: dict) -> bool:
        if type(a) is not type(b):
            return False
        if isinstance(a, Inact):
            return True
        if isinstance(a, Name):
            if a in nenv:
                return nenv[a] == b
            return a == b and b not in set(nenv.values())
        if isinstance(a, Var):
            if a in venv:
                return venv[a] == b
            return a == b and b not in set(venv.values())
        if isinstance(a, Lit):
            return type(a.value) is type(b.value) and a.value == b.value
        if isinstance(a, Output):
            return (
                go(a.subject, b.subject, venv, nenv)
                and len(a.payload) == len(b.payload)
                and all(go(x, y, venv, nenv) for x, y in zip(a.payload, b.payload))
                and go(a.cont, b.cont, venv, nenv)
            )
        if isinstance(a, Input):
            if len(a.binders) != len(b.binders):
                return False
            if not go(a.subject, b.subject, venv, nenv):
                return False
            venv2 = dict(venv)
            venv2.update(zip(a.binders, b.binders))
            return go(a.cont, b.cont, venv2, nenv)
        if isinstance(a, Select):
            return (
                a.label == b.label
                and go(a.subject, b.subject, venv, nenv)
                and go(a.cont, b.cont, venv, nenv)
            )
        if isinstance(a, Branch):
            if [l for l, _ in a.branches] != [l for l, _ in b.branches]:
                return False
            if not go(a.subject, b.subject, venv, nenv):
                return False
            return all(
                go(p, q, venv, nenv)
                for (_, p), (_, q) in zip(a.branches, b.branches)
            )
        if isinstance(a, App):
            return (
                go(a.fun, b.fun, venv, nenv)
                and len(a.args) == len(b.args)
                and all(go(x, y, venv, nenv) for x, y in zip(a.args, b.args))
            )
        if isinstance(a, Par):
            return go(a.left, b.left, venv, nenv) and go(a.right, b.right, venv, nenv)
        if isinstance(a, Res):
            if not type_alpha_eq(a.annot, b.annot):
                return False
            nenv2 = dict(nenv)
            nenv2[a.binder] = b.binder
            nenv2[a.binder.dualized()] = b.binder.dualized()
            return go(a.body, b.body, venv, nenv2)
        if isinstance(a, Abs):
            if a.shared != b.shared or len(a.params) != len(b.params):
                return False
            for (_, ca), (_, cb) in zip(a.params, b.params):
                if not type_alpha_eq(ca, cb):
                    return False
            venv2 = dict(venv)
            venv2.update(
                (va, vb) for (va, _), (vb, _) in zip(a.params, b.params)
            )
            return go(a.body, b.body, venv2, nenv)
        raise TermError(f"unknown term node {a!r}")

    return go(a, b, {}, {})


# ---------------------------------------------------------------------------
# First-order front end: encoding name passing away
# ---------------------------------------------------------------------------


def encode_nptype(t):
    """Translate a first-order session type: a communicated channel type C
    becomes the abstraction type (?<lin(C')>;end) -> diamond that its
    package is typed with, where C' is C translated."""
    if isinstance(t, (SEnd, SVar, TBase)):
        return t
    if isinstance(t, SOut):
        return SOut(tuple(_np_payload(u) for u in t.payload), encode_nptype(t.cont))
    if isinstance(t, SIn):
        return SIn(tuple(_np_payload(u) for u in t.payload), encode_nptype(t.cont))
    if isinstance(t, SSel):
        return SSel(tuple((l, encode_nptype(s)) for l, s in t.branches))
    if isinstance(t, SBra):
        return SBra(tuple((l, encode_nptype(s)) for l, s in t.branches))
    if isinstance(t, SRec):
        return SRec(t.var, encode_nptype(t.body))
    raise TypeError_(f"unsupported first-order type {t!r}")


def _np_payload(c):
    if isinstance(c, TBase):
        inner = c
    elif is_session(c):
        inner = encode_nptype(c)
    else:
        raise TypeError_(f"unsupported first-order payload {c!r}")
    receiver = SIn((TArrow((inner,), shared=False),), SEnd())
    return TArrow((receiver,), shared=False)


def package_type(c: CType) -> SIn:
    """Session type of the fresh channel the receiving side opens: it
    receives the abstraction that will consume the packaged item."""
    return SIn((TArrow((c,), shared=False),), SEnd())


def encode_namepass(term: Process, name_types: Optional[Mapping] = None) -> Process:
    """Compile first-order name/literal passing into abstraction passing.

    An output n!<m>.P packs m into a linear abstraction that forwards it;
    an input n?(x).Q opens a fresh channel, applies the received package
    to it, and sends the real consumer along it. All other constructs map
    homomorphically. `name_types` assigns each packaged name (and each
    packaging input binder) the channel type it has at that point, so the
    emitted abstractions can be annotated; literal payloads infer theirs.
    """
    types = dict(name_types or {})
    supply = NameSupply(lambda: used_bases(term))

    def lookup(item) -> CType:
        if isinstance(item, Lit):
            return item.btype
        if item in types:
            return types[item]
        raise TermError(f"no declared type for packaged item {item}")

    def is_packaged(p) -> bool:
        return isinstance(p, (Name, Lit)) or (isinstance(p, Var) and p in types)

    def go(t: Process) -> Process:
        if isinstance(t, Inact):
            return t
        if isinstance(t, Output):
            if len(t.payload) == 1 and is_packaged(t.payload[0]):
                item = t.payload[0]
                c = lookup(item)
                hot = encode_nptype(c) if is_session(c) else c
                z = Var(supply.fresh("z"))
                x = Var(supply.fresh("x"))
                package = Abs(
                    params=((z, package_type(hot)),),
                    body=Input(z, (x,), App(x, (item,))),
                    shared=False,
                )
                return Output(t.subject, (package,), go(t.cont))
            return Output(t.subject, t.payload, go(t.cont))
        if isinstance(t, Input):
            if len(t.binders) == 1 and t.binders[0] in types:
                x = t.binders[0]
                c = lookup(x)
                hot = encode_nptype(c) if is_session(c) else c
                y = Var(supply.fresh("y"))
                s = Name(supply.fresh("s"), None, False, "session")
                consumer = Abs(((x, hot),), go(t.cont), shared=False)
                return Input(
                    t.subject,
                    (y,),
                    Res(
                        s,
                        package_type(hot),
                        Par(
                            App(y, (s,)),
                            Output(s.dualized(), (consumer,), Inact()),
                        ),
                    ),
                )
            return Input(t.subject, t.binders, go(t.cont))
        if isinstance(t, Select):
            return Select(t.subject, t.label, go(t.cont))
        if isinstance(t, Branch):
            return Branch(t.subject, tuple((l, go(p)) for l, p in t.branches))
        if isinstance(t, App):
            return t
        if isinstance(t, Par):
            return Par(go(t.left), go(t.right))
        if isinstance(t, Res):
            return Res(t.binder, encode_nptype(t.annot) if is_session(t.annot) else t.annot, go(t.body))
        raise TermError(f"unsupported construct for the first-order front end: {t!r}")

    out = go(term)
    leftover = [
        v for v in iter_subterms(out)
        if isinstance(v, Output) and any(isinstance(p, Name) for p in v.payload)
    ]
    if leftover:
        raise TermError("first-order payloads survived the encoding")
    return out


def iter_subterms(t) -> Iterator:
    """Preorder walk over processes and values, subjects, application
    arguments and restriction binders included."""
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, Output):
            kids = (t.subject, *t.payload, t.cont)
        elif isinstance(t, (Input, Select)):
            kids = (t.subject, t.cont)
        elif isinstance(t, Branch):
            kids = (t.subject, *(p for _, p in t.branches))
        elif isinstance(t, App):
            kids = (t.fun, *t.args)
        elif isinstance(t, Par):
            kids = (t.left, t.right)
        elif isinstance(t, Res):
            kids = (t.binder, t.body)
        elif isinstance(t, Abs):
            kids = (t.body,)
        else:
            continue
        stack.extend(reversed(kids))
