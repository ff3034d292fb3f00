"""Session types and their decomposition into minimal session types.

A session type prescribes a channel protocol: a sequence of polyadic
inputs/outputs of value types, labelled internal/external choices, and
tail recursion. A *minimal* session type has no sequencing: at most one
prefix before `end` (or before the recursion variable in the recursive
case). `gdecomp` flattens an arbitrary session type into a list of
minimal ones; `rsdecomp` and `findex` handle the recursive bookkeeping
needed when a protocol is split across a tuple of channels.

Everything here is immutable and pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union


class TypeError_(Exception):
    """Raised on ill-formed or unsupported types."""


# ---------------------------------------------------------------------------
# Type grammar
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SEnd:
    """Completed protocol."""

    def __str__(self) -> str:
        return format_type(self)


@dataclass(frozen=True)
class SOut:
    """Send a tuple of values, then continue: !<U,...>;S."""

    payload: tuple["VType", ...]
    cont: "SType"

    def __post_init__(self) -> None:
        if not self.payload:
            raise TypeError_("output type needs a non-empty payload tuple")

    def __str__(self) -> str:
        return format_type(self)


@dataclass(frozen=True)
class SIn:
    """Receive a tuple of values, then continue: ?<U,...>;S."""

    payload: tuple["VType", ...]
    cont: "SType"

    def __post_init__(self) -> None:
        if not self.payload:
            raise TypeError_("input type needs a non-empty payload tuple")

    def __str__(self) -> str:
        return format_type(self)


@dataclass(frozen=True)
class SSel:
    """Internal choice +{l:S, ...}: this side picks the label."""

    branches: tuple[tuple[str, "SType"], ...]

    def __post_init__(self) -> None:
        _check_branches(self.branches)

    def __str__(self) -> str:
        return format_type(self)


@dataclass(frozen=True)
class SBra:
    """External choice &{l:S, ...}: this side offers all labels."""

    branches: tuple[tuple[str, "SType"], ...]

    def __post_init__(self) -> None:
        _check_branches(self.branches)

    def __str__(self) -> str:
        return format_type(self)


@dataclass(frozen=True)
class SRec:
    """rec t . S, contractive (body is not a bare variable)."""

    var: str
    body: "SType"

    def __post_init__(self) -> None:
        if isinstance(self.body, SVar):
            raise TypeError_("non-contractive recursive type")

    def __str__(self) -> str:
        return format_type(self)


@dataclass(frozen=True)
class SVar:
    var: str

    def __str__(self) -> str:
        return format_type(self)


@dataclass(frozen=True)
class TBase:
    """Opaque base type (Int, Bool)."""

    name: str

    def __str__(self) -> str:
        return format_type(self)


@dataclass(frozen=True)
class TArrow:
    """Abstraction type over channel parameters: lin(C,...) or un(C,...)."""

    params: tuple["CType", ...]
    shared: bool

    def __post_init__(self) -> None:
        if not self.params:
            raise TypeError_("arrow type needs at least one parameter")

    def __str__(self) -> str:
        return format_type(self)


@dataclass(frozen=True)
class TChan:
    """Shared channel type chan U carrying values of type U."""

    payload: "VType"

    def __str__(self) -> str:
        return format_type(self)


SType = Union[SEnd, SOut, SIn, SSel, SBra, SRec, SVar]
VType = Union[TArrow, TBase]
# Channel-position types: what a name or binder can be annotated with.
CType = Union[SType, TChan, TBase]
AnyType = Union[SType, TChan, TArrow, TBase]

INT = TBase("Int")
BOOL = TBase("Bool")


def _check_branches(branches: tuple[tuple[str, "SType"], ...]) -> None:
    if not branches:
        raise TypeError_("choice type needs at least one branch")
    labels = [l for l, _ in branches]
    if len(set(labels)) != len(labels):
        raise TypeError_(f"duplicate branch labels: {labels}")


def is_session(t: AnyType) -> bool:
    return isinstance(t, (SEnd, SOut, SIn, SSel, SBra, SRec, SVar))


# ---------------------------------------------------------------------------
# Recursion-variable plumbing
# ---------------------------------------------------------------------------


def free_tvars(t: AnyType) -> set[str]:
    out: set[str] = set()

    def go(t: AnyType, bound: frozenset[str]) -> None:
        if isinstance(t, SVar):
            if t.var not in bound:
                out.add(t.var)
        elif isinstance(t, (SOut, SIn)):
            for u in t.payload:
                go(u, bound)
            go(t.cont, bound)
        elif isinstance(t, (SSel, SBra)):
            for _, s in t.branches:
                go(s, bound)
        elif isinstance(t, SRec):
            go(t.body, bound | {t.var})
        elif isinstance(t, TArrow):
            for c in t.params:
                go(c, bound)
        elif isinstance(t, TChan):
            go(t.payload, bound)

    go(t, frozenset())
    return out


def subst_tvar(t: AnyType, var: str, repl: SType) -> AnyType:
    """Capture-avoiding substitution of a session type for a variable."""
    repl_free = free_tvars(repl)

    def go(t: AnyType) -> AnyType:
        if isinstance(t, SVar):
            return repl if t.var == var else t
        if isinstance(t, SEnd) or isinstance(t, TBase):
            return t
        if isinstance(t, SOut):
            return SOut(tuple(go(u) for u in t.payload), go(t.cont))
        if isinstance(t, SIn):
            return SIn(tuple(go(u) for u in t.payload), go(t.cont))
        if isinstance(t, SSel):
            return SSel(tuple((l, go(s)) for l, s in t.branches))
        if isinstance(t, SBra):
            return SBra(tuple((l, go(s)) for l, s in t.branches))
        if isinstance(t, SRec):
            if t.var == var:
                return t
            if t.var in repl_free:
                fresh = t.var
                taken = repl_free | free_tvars(t.body) | {var}
                while fresh in taken:
                    fresh += "'"
                body = subst_tvar(t.body, t.var, SVar(fresh))
                return SRec(fresh, go(body))
            return SRec(t.var, go(t.body))
        if isinstance(t, TArrow):
            return TArrow(tuple(go(c) for c in t.params), t.shared)
        if isinstance(t, TChan):
            return TChan(go(t.payload))
        raise TypeError_(f"unknown type node {t!r}")

    return go(t)


def unfold(t: SRec) -> SType:
    """One-step unfolding: body with the whole type for its variable."""
    return subst_tvar(t.body, t.var, t)


def unfold_top(t: SType, limit: int = 64) -> SType:
    """Unfold until the head is not a recursive binder."""
    n = 0
    while isinstance(t, SRec):
        t = unfold(t)
        n += 1
        if n > limit:
            raise TypeError_("recursive type does not reach a head constructor")
    return t


def _spine_tvar_tail(body: SType, var: str) -> bool:
    """Does var occur along the continuation spine (outside payloads)?"""
    t = body
    while True:
        if isinstance(t, SVar):
            return t.var == var
        if isinstance(t, (SOut, SIn)):
            t = t.cont
            continue
        if isinstance(t, (SSel, SBra)):
            return any(_spine_tvar_tail(s, var) for _, s in t.branches)
        if isinstance(t, SRec):
            if t.var == var:
                return False
            t = t.body
            continue
        return False


def _payload_tvar(body: SType, var: str) -> bool:
    """Does var occur inside any communicated payload type?"""
    if isinstance(body, (SOut, SIn)):
        if any(var in free_tvars(u) for u in body.payload):
            return True
        return _payload_tvar(body.cont, var)
    if isinstance(body, (SSel, SBra)):
        return any(_payload_tvar(s, var) for _, s in body.branches)
    if isinstance(body, SRec):
        return False if body.var == var else _payload_tvar(body.body, var)
    return False


def is_tail_recursive(t: SType) -> bool:
    """rec t.S whose body is a prefix chain ending in its own variable."""
    if not isinstance(t, SRec):
        return False
    if _payload_tvar(t.body, t.var):
        return False
    body = t.body
    while isinstance(body, (SOut, SIn)):
        body = body.cont
    return isinstance(body, SVar) and body.var == t.var


# ---------------------------------------------------------------------------
# Duality
# ---------------------------------------------------------------------------


def dual(t: SType) -> SType:
    """Endpoint-compatible partner type: swaps ! with ? and + with &.

    Payloads are unchanged. For recursive types whose variable occurs
    only along the continuation spine the swap commutes with the binder;
    when the variable occurs inside a payload the swap is applied to the
    unfolding instead (the binder's scope does not survive the swap).
    Variables occurring both in a payload and on the spine are out of
    the supported fragment.
    """
    if isinstance(t, SEnd) or isinstance(t, SVar):
        return t
    if isinstance(t, SOut):
        return SIn(t.payload, dual(t.cont))
    if isinstance(t, SIn):
        return SOut(t.payload, dual(t.cont))
    if isinstance(t, SSel):
        return SBra(tuple((l, dual(s)) for l, s in t.branches))
    if isinstance(t, SBra):
        return SSel(tuple((l, dual(s)) for l, s in t.branches))
    if isinstance(t, SRec):
        in_payload = _payload_tvar(t.body, t.var)
        on_spine = _spine_tvar_tail(t.body, t.var)
        if in_payload and on_spine:
            raise TypeError_(
                "recursion variable occurs both in a payload and on the "
                "spine; duality is not defined on this fragment"
            )
        if in_payload:
            return dual(unfold(t))
        return SRec(t.var, dual(t.body))
    raise TypeError_(f"dual undefined for {t!r}")


# ---------------------------------------------------------------------------
# Canonical keys and equivalence
# ---------------------------------------------------------------------------


def canon_key(t: AnyType) -> str:
    """Deterministic key, recursion binders numbered by nesting depth."""

    def go(t: AnyType, env: tuple[str, ...]) -> str:
        if isinstance(t, SEnd):
            return "e"
        if isinstance(t, SVar):
            if t.var in env:
                return f"v{len(env) - 1 - env.index(t.var)}"
            return f"f:{t.var}"
        if isinstance(t, SOut):
            ps = ",".join(go(u, env) for u in t.payload)
            return f"!({ps}){go(t.cont, env)}"
        if isinstance(t, SIn):
            ps = ",".join(go(u, env) for u in t.payload)
            return f"?({ps}){go(t.cont, env)}"
        if isinstance(t, SSel):
            bs = ",".join(f"{l}:{go(s, env)}" for l, s in t.branches)
            return f"+[{bs}]"
        if isinstance(t, SBra):
            bs = ",".join(f"{l}:{go(s, env)}" for l, s in t.branches)
            return f"&[{bs}]"
        if isinstance(t, SRec):
            return f"u.{go(t.body, env + (t.var,))}"
        if isinstance(t, TBase):
            return f"b:{t.name}"
        if isinstance(t, TArrow):
            tag = "sh" if t.shared else "ln"
            ps = ",".join(go(c, env) for c in t.params)
            return f"{tag}({ps})"
        if isinstance(t, TChan):
            return f"c({go(t.payload, env)})"
        raise TypeError_(f"unknown type node {t!r}")

    # env is keyed by innermost-last; index from the right
    return go(t, ())


def type_alpha_eq(a: AnyType, b: AnyType) -> bool:
    """Syntactic equality up to renaming of recursion binders."""
    return canon_key(a) == canon_key(b)


def equal_types(a: AnyType, b: AnyType) -> bool:
    """Equivalence up to unfolding of recursive types (and binder names).

    Sound and complete on regular types: the pairs explored are drawn
    from the finite subterm closures of both sides, memoized by key.
    """
    seen: set[tuple[str, str]] = set()

    def go(a: AnyType, b: AnyType) -> bool:
        ka, kb = canon_key(a), canon_key(b)
        if ka == kb:
            return True
        if (ka, kb) in seen:
            return True
        seen.add((ka, kb))
        if isinstance(a, SRec):
            return go(unfold(a), b)
        if isinstance(b, SRec):
            return go(a, unfold(b))
        if isinstance(a, SOut) and isinstance(b, SOut) or isinstance(
            a, SIn
        ) and isinstance(b, SIn):
            return (
                len(a.payload) == len(b.payload)
                and all(go(x, y) for x, y in zip(a.payload, b.payload))
                and go(a.cont, b.cont)
            )
        if (isinstance(a, SSel) and isinstance(b, SSel)) or (
            isinstance(a, SBra) and isinstance(b, SBra)
        ):
            if [l for l, _ in a.branches] != [l for l, _ in b.branches]:
                return False
            return all(go(x, y) for (_, x), (_, y) in zip(a.branches, b.branches))
        if isinstance(a, TArrow) and isinstance(b, TArrow):
            return (
                a.shared == b.shared
                and len(a.params) == len(b.params)
                and all(go(x, y) for x, y in zip(a.params, b.params))
            )
        if isinstance(a, TChan) and isinstance(b, TChan):
            return go(a.payload, b.payload)
        return False

    return go(a, b)


# ---------------------------------------------------------------------------
# Minimality
# ---------------------------------------------------------------------------


def is_minimal(t: AnyType) -> bool:
    """No sequencing anywhere: one prefix before end (or the recursion
    variable), choices over minimal continuations, payloads minimal."""
    if isinstance(t, (SEnd, SVar, TBase)):
        return True
    if isinstance(t, (SOut, SIn)):
        if not isinstance(t.cont, (SEnd, SVar)):
            return False
        return all(is_minimal(u) for u in t.payload)
    if isinstance(t, (SSel, SBra)):
        return all(is_minimal(s) for _, s in t.branches)
    if isinstance(t, SRec):
        if not isinstance(t.body, (SOut, SIn)):
            return False
        return is_minimal(t.body)
    if isinstance(t, TArrow):
        return all(is_minimal(c) for c in t.params)
    if isinstance(t, TChan):
        return is_minimal(t.payload)
    raise TypeError_(f"unknown type node {t!r}")


# ---------------------------------------------------------------------------
# Decomposition into minimal types
# ---------------------------------------------------------------------------


def gdecomp_val(u: AnyType) -> AnyType:
    """Decompose a value (or channel) type in place: arrows flatten their
    parameter tuples, shared channels decompose their payload."""
    if isinstance(u, TBase):
        return u
    if isinstance(u, TArrow):
        return TArrow(gdecomp_params(u.params), u.shared)
    if isinstance(u, TChan):
        return TChan(gdecomp_val(u.payload))
    raise TypeError_(f"not a value type: {u!r}")


def gdecomp_params(params: tuple[CType, ...]) -> tuple[CType, ...]:
    """Flatten a parameter tuple: each session parameter contributes its
    full decomposition, other parameters contribute themselves decomposed."""
    out: list[CType] = []
    for c in params:
        if is_session(c):
            out.extend(gdecomp(c))
        elif isinstance(c, TChan):
            out.append(TChan(gdecomp_val(c.payload)))
        elif isinstance(c, TBase):
            out.append(c)
        else:
            raise TypeError_(f"not a channel parameter type: {c!r}")
    return tuple(out)


def gwidth(c: CType) -> int:
    """How many channels a parameter of this type decomposes into."""
    if is_session(c):
        return len(gdecomp(c))
    return 1


def gdecomp(t: AnyType):
    """Decompose a type into minimal form.

    Session types return the list of minimal session types their prefix
    sequence flattens into; value and channel types return a single
    decomposed type.
    """
    if isinstance(t, (TArrow, TBase, TChan)):
        return gdecomp_val(t)
    if isinstance(t, SEnd):
        return [SEnd()]
    if isinstance(t, SVar):
        return [t]
    if isinstance(t, SOut):
        head = SOut(tuple(gdecomp_val(u) for u in t.payload), SEnd())
        if isinstance(t.cont, SEnd):
            return [head]
        return [head] + gdecomp(t.cont)
    if isinstance(t, SIn):
        head = SIn(tuple(gdecomp_val(u) for u in t.payload), SEnd())
        if isinstance(t.cont, SEnd):
            return [head]
        return [head] + gdecomp(t.cont)
    if isinstance(t, SBra):
        # offering side: each label carries the continuation implementation
        out = tuple(
            (l, SOut((TArrow(tuple(gdecomp(s)), shared=False),), SEnd()))
            for l, s in t.branches
        )
        return [SBra(out)]
    if isinstance(t, SSel):
        # selecting side: receives the implementation for the dual continuation
        out = tuple(
            (l, SIn((TArrow(tuple(gdecomp(dual(s))), shared=False),), SEnd()))
            for l, s in t.branches
        )
        return [SSel(out)]
    if isinstance(t, SRec):
        if is_tail_recursive(t):
            return _rchain(t.body, t.var)
        return [SRec(t.var, g) for g in gdecomp(t.body)]
    raise TypeError_(f"gdecomp undefined for {t!r}")


def _rchain(body: SType, var: str) -> list[SType]:
    """One single-prefix recursive type per prefix of a tail-recursive body."""
    if isinstance(body, SVar):
        if body.var != var:
            raise TypeError_(f"foreign recursion variable {body.var}")
        return []
    if isinstance(body, SOut):
        head = SRec(var, SOut(tuple(gdecomp_val(u) for u in body.payload), SVar(var)))
        return [head] + _rchain(body.cont, var)
    if isinstance(body, SIn):
        head = SRec(var, SIn(tuple(gdecomp_val(u) for u in body.payload), SVar(var)))
        return [head] + _rchain(body.cont, var)
    raise TypeError_(f"not a tail-recursive prefix chain at {body!r}")


def rsdecomp(t: SType) -> list[SType]:
    """Decomposition seen from inside an unfolded recursive protocol:
    leading prefixes are skipped, the recursive core is decomposed."""
    if isinstance(t, (SOut, SIn)):
        return rsdecomp(t.cont)
    if isinstance(t, SRec):
        if not is_tail_recursive(t):
            raise TypeError_("recursive core is not tail-recursive")
        return _rchain(t.body, t.var)
    raise TypeError_(f"no recursive core reachable in {t!r}")


def findex(t: SType) -> int:
    """Which channel of the decomposed tuple carries the next action.

    For a recursive type the answer is 1; for a partial unfolding it is
    the position of the current head prefix within the recursion body.
    """
    if isinstance(t, SRec):
        return _fprime(unfold(t), 0)
    return _fprime(t, 0)


def _fprime(t: SType, skipped: int) -> int:
    if isinstance(t, SRec):
        if not is_tail_recursive(t):
            raise TypeError_("recursive core is not tail-recursive")
        return len(_rchain(t.body, t.var)) - skipped + 1
    if isinstance(t, (SOut, SIn)):
        return _fprime(t.cont, skipped + 1)
    raise TypeError_(f"not an unfolded recursive type: {t!r}")


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
            parts = gdecomp(t)
            base = key.index
            for off, part in enumerate(parts):
                out[key.with_index(base + off)] = part
        else:
            out[key] = gdecomp_val(t)
    return out


def balanced(delta: Mapping) -> bool:
    """Co-located endpoints must carry mutually dual protocols."""
    for key, t in delta.items():
        partner = key.dualized()
        if partner == key or partner not in delta:
            continue
        if not equal_types(dual(t), delta[partner]):
            return False
    return True


def env_step(delta: Mapping) -> list[dict]:
    """All one-step evolutions of a session environment: a dual pair of
    entries exchanges a payload or resolves one labelled choice."""
    out: list[dict] = []
    seen_pairs: set = set()
    for key, t in delta.items():
        partner = key.dualized()
        if partner == key or partner not in delta:
            continue
        pair = (key, partner) if not getattr(key, "dual", False) else (partner, key)
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
                    nxt = dict(delta)
                    nxt[send] = st.cont
                    nxt[recv] = rt.cont
                    out.append(nxt)
            if isinstance(st, SSel) and isinstance(rt, SBra):
                offered = dict(rt.branches)
                for label, cont in st.branches:
                    if label in offered:
                        nxt = dict(delta)
                        nxt[send] = cont
                        nxt[recv] = offered[label]
                        out.append(nxt)
    return out


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def format_type(t: AnyType) -> str:
    """Render a type in the surface syntax accepted by the parser."""
    if isinstance(t, SEnd):
        return "end"
    if isinstance(t, SVar):
        return t.var
    if isinstance(t, SOut):
        ps = ",".join(format_type(u) for u in t.payload)
        return f"!<{ps}>;{format_type(t.cont)}"
    if isinstance(t, SIn):
        ps = ",".join(format_type(u) for u in t.payload)
        return f"?<{ps}>;{format_type(t.cont)}"
    if isinstance(t, SSel):
        bs = ", ".join(f"{l}: {format_type(s)}" for l, s in t.branches)
        return "+{" + bs + "}"
    if isinstance(t, SBra):
        bs = ", ".join(f"{l}: {format_type(s)}" for l, s in t.branches)
        return "&{" + bs + "}"
    if isinstance(t, SRec):
        return f"rec {t.var}.{format_type(t.body)}"
    if isinstance(t, TBase):
        return t.name
    if isinstance(t, TArrow):
        head = "un" if t.shared else "lin"
        ps = ",".join(format_type(c) for c in t.params)
        return f"{head}({ps})"
    if isinstance(t, TChan):
        return f"chan {format_type(t.payload)}"
    raise TypeError_(f"unknown type node {t!r}")
