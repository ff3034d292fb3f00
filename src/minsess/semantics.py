"""Reduction semantics over a normalized process soup.

A state is kept as a restriction prefix over a flat parallel composition:
top-level restrictions are hoisted (renaming on collision), nil components
dropped, dead restrictions erased, and components sorted by an
alpha-invariant type-erased key. Communication fires between complementary
top-level prefixes; beta fires on a top-level application whose head is an
abstraction. Restriction annotations advance along with the channel they
govern, so every intermediate state carries a well-formed session
environment for its restricted names.

A state is held as a `_Soup`: the hoisted binders plus one `_Comp` per
component. A `_Comp` finds its free names once, when it is made, and
renders itself at most once for each set of its free names that are
hoisted, as one `terms.template`: a `str.format` template with a field
for each such name and for each binder inside it. That template gives the
component's sort key (hoisted names as n0), its literal tie-breaker (the
template for the empty set) and its part of the state key:
`canonical_key` fills the templates with the state's binder numbers and
joins them, walking no term. The largest reserved index is found only
when needed. `normalize`, `enabled`, `apply_redex` and `canonical_key`
take a term or a soup; on a term they build its soup first and answer
with a term, on a soup they answer with a soup. `run` and `explore` step
through them on soups, so a step is one `apply_redex` and one
`normalize`, which flattens and renders only the components the redex
produces and reuses every other `_Comp`: no step walks the whole state,
and the identifiers in use and the reserved indices of the state are
gathered only when a hoisted binder collides.
The cached data lives in the soups of one `run` or `explore` call and
nowhere else.

The deterministic policy orders enabled redexes:
  1. reserved bookkeeping channels ("#..."), highest index first,
     index-free ones (recursion servers) ahead of all indexed ones;
  2. applications, leftmost component first;
  3. source-channel synchronizations, by subject then position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from . import terms as tm
from .terms import (
    Abs,
    App,
    Branch,
    Inact,
    Input,
    Name,
    NameSupply,
    Output,
    Par,
    Res,
    Select,
    Subst,
    free_names,
    iter_subterms,
    parallel,
    substitute,
    template,
    used_bases,
)
from .types import SBra, SIn, SOut, SRec, SSel, unfold_top


class SemanticsError(Exception):
    pass


# ---------------------------------------------------------------------------
# Normal form
# ---------------------------------------------------------------------------


def _positive(n: Name) -> Name:
    return n.dualized() if n.dual else n


def _top_reserved(ts) -> int:
    """Largest index of a reserved "#" name anywhere in the terms ts, free
    or bound."""
    return max(
        (x.index or 0 for t in ts for x in iter_subterms(t) if tm.is_prop(x)),
        default=0,
    )


_NONE: frozenset = frozenset()


class _Comp:
    """One top-level component of a soup and what is known about it.

    Its rendering is a `terms.template` with one field for each of its free
    names that is hoisted, made at most once for each such set of names
    and cached with its sort key. Filling the fields with the binders'
    numbers in the state gives the component's part of the state key; the
    template for the empty set gives the literal tie-breaker."""

    __slots__ = ("term", "names", "positives", "_templates", "_literal", "_reserved")

    def __init__(self, term) -> None:
        self.term = term
        # positive endpoints of the free names, in first-occurrence order
        self.names = tuple(dict.fromkeys(_positive(n) for n in free_names(term)))
        self.positives = frozenset(self.names)
        self._templates: dict = {}
        self._literal: Optional[str] = None
        self._reserved: Optional[int] = None

    def template(self, hoisted: frozenset) -> tuple:
        """(fmt, slots, nbinders, abstract key) for the component's free
        names in hoisted: the `terms.template` over slots, those names in
        some fixed order, and the sort key, which renders every slot as n0
        and numbers the binders from 1."""
        mine = self.positives & hoisted
        entry = self._templates.get(mine)
        if entry is None:
            slots = tuple(mine)
            fmt, nb = template(self.term, slots)
            abstract = fmt.format(*(0,) * len(slots), *range(1, nb + 1))
            entry = self._templates[mine] = (fmt, slots, nb, abstract)
        return entry

    def __lt__(self, other: "_Comp") -> bool:
        """Components whose abstract renderings tie are ordered by their
        literal renderings (the sort key for the empty set), made only for
        such ties."""
        if self._literal is None:
            self._literal = self.template(_NONE)[3]
        if other._literal is None:
            other._literal = other.template(_NONE)[3]
        return self._literal < other._literal

    def reserved(self) -> int:
        if self._reserved is None:
            self._reserved = _top_reserved((self.term,))
        return self._reserved


class _Soup(NamedTuple):
    """A state: binders (Name, annotation) and components, followed by the
    terms `raw` not yet flattened in. A normalized soup has no raw terms,
    its binders in first-use order and its components in sort-key order."""

    binders: tuple
    comps: tuple
    raw: tuple = ()

    def term(self):
        body = parallel(c.term for c in self.comps)
        for b, annot in reversed(self.binders):
            body = Res(b, annot, body)
        return body


def _normalize(soup: _Soup) -> _Soup:
    """The normalized soup: the raw terms are flattened in after the
    components, which are already normal and in order.

    A raw restriction whose binder collides with a claimed binder or a
    free name is renamed throughout its scope (both polarities): reserved
    bookkeeping names move to an index above every reserved name of the
    state, others take a primed base. Dead binders are then dropped."""
    binders = list(soup.binders)
    kept, raw = soup.comps, soup.raw
    comps = list(kept)
    taken: Optional[set] = None
    next_reserved: Optional[int] = None
    supply = NameSupply(
        lambda: {n.base for n, _ in binders}.union(
            *(used_bases(c.term) for c in kept), *(used_bases(t) for t in raw)
        )
    )

    def claim(b: Name) -> Optional[Name]:
        nonlocal taken, next_reserved
        if taken is None:
            taken = {n for n, _ in binders}
            for c in kept:
                taken |= c.positives
            for t in raw:
                taken.update(map(_positive, free_names(t)))
        if b not in taken:
            return None
        if b.base != tm.RESERVED_PREFIX:
            return Name(supply.fresh(b.base), b.index, False, b.kind)
        if next_reserved is None:
            top = _top_reserved([*(n for n, _ in binders), *raw])
            next_reserved = 1 + max([top, *(c.reserved() for c in kept)])
        next_reserved += 1
        return Name(tm.RESERVED_PREFIX, next_reserved - 1, False, "session")

    stack = list(reversed(raw))
    while stack:
        t = stack.pop()
        if isinstance(t, Inact):
            continue
        if isinstance(t, Par):
            stack += (t.right, t.left)
        elif isinstance(t, Res):
            b, body = t.binder, t.body
            fresh = claim(b)
            if fresh is not None:
                body = substitute(body, Subst.rename_channel(b, fresh))
                b = fresh
            taken.add(b)
            binders.append((b, t.annot))
            stack.append(body)
        else:
            comps.append(_Comp(t))

    used: set[Name] = set()
    for c in comps:
        used |= c.positives
    binders = [(b, a) for b, a in binders if b in used]
    hoisted = frozenset(b for b, _ in binders)
    comps.sort(key=lambda c: (c.template(hoisted)[3], c))
    order: dict[Name, int] = {}
    for c in comps:
        for n in c.names:
            if n in hoisted and n not in order:
                order[n] = len(order)
    binders.sort(key=lambda ba: order[ba[0]])
    return _Soup(tuple(binders), tuple(comps))


def normalize(p):
    """Restriction-prefixed sorted soup; idempotent. A term gives a term; a
    `_Soup` gives a `_Soup` that reuses the components it already has."""
    if isinstance(p, _Soup):
        return _normalize(p)
    return _normalize(_Soup((), (), (p,))).term()


def _as_soup(p) -> _Soup:
    return p if isinstance(p, _Soup) else normalize(_Soup((), (), (p,)))


def canonical_key(p) -> str:
    """The rendering of the normalized state: its binders numbered 1..k
    in order, then each component's template filled with the numbers of
    its hoisted names and the next free numbers for its own binders, the
    components joined right-nested."""
    soup = _as_soup(p)
    number = {b: k for k, (b, _) in enumerate(soup.binders, 1)}
    hoisted = frozenset(number)
    offset = len(number)
    parts = []
    for c in soup.comps:
        fmt, slots, nb, _ = c.template(hoisted)
        parts.append(fmt.format(*[number[n] for n in slots], *range(offset + 1, offset + nb + 1)))
        offset += nb
    if not parts:
        return "0"
    body = "".join(f"({x}|" for x in parts[:-1]) + parts[-1] + ")" * (len(parts) - 1)
    return "".join(f"nu n{k}.(" for k in number.values()) + body + ")" * len(number)


def state_equal(p, q) -> bool:
    return canonical_key(p) == canonical_key(q)


# ---------------------------------------------------------------------------
# Redexes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Redex:
    kind: str  # "comm" | "select" | "beta"
    i: int
    j: Optional[int] = None
    subject: Optional[Name] = None
    label: Optional[str] = None


def _partner(out_subject: Name) -> Name:
    """The subject of the prefix an output or selection on out_subject
    synchronizes with."""
    return out_subject if out_subject.kind == "shared" else out_subject.dualized()


def enabled(p) -> list[Redex]:
    comps = [c.term for c in _as_soup(p).comps]
    receivers: dict[Name, list[int]] = {}
    for j, d in enumerate(comps):
        if isinstance(d, (Input, Branch)) and isinstance(d.subject, Name):
            receivers.setdefault(d.subject, []).append(j)
    out: list[Redex] = []
    for i, c in enumerate(comps):
        if isinstance(c, App) and isinstance(c.fun, Abs):
            out.append(Redex("beta", i))
        elif isinstance(c, Output) and isinstance(c.subject, Name):
            for j in receivers.get(_partner(c.subject), ()):
                d = comps[j]
                if isinstance(d, Input) and len(c.payload) == len(d.binders):
                    out.append(Redex("comm", i, j, _positive(c.subject)))
        elif isinstance(c, Select) and isinstance(c.subject, Name):
            for j in receivers.get(_partner(c.subject), ()):
                d = comps[j]
                if isinstance(d, Branch) and any(l == c.label for l, _ in d.branches):
                    out.append(Redex("select", i, j, _positive(c.subject), c.label))
    return out


_BIG = 10**9


def _det_rank(r: Redex) -> tuple:
    if r.kind == "beta":
        return (1, 0, r.i, -1)
    n = r.subject
    if tm.is_reserved(n):
        idx = n.index if n.index is not None else _BIG
        return (0, -idx, r.i, r.j)
    return (2, (n.base, n.index or 0, n.kind), r.i, r.j)


def _advance(annot, binder: Name, out_subject: Name, label: Optional[str]):
    """Move a restriction annotation along the action just performed on it.
    The annotation tracks the positive endpoint."""
    t = unfold_top(annot) if isinstance(annot, SRec) else annot
    sender_is_positive = _positive(out_subject) == binder and not out_subject.dual
    if label is None:
        if sender_is_positive and isinstance(t, SOut):
            return t.cont
        if not sender_is_positive and isinstance(t, SIn):
            return t.cont
        return annot
    branches = None
    if sender_is_positive and isinstance(t, SSel):
        branches = t.branches
    if not sender_is_positive and isinstance(t, SBra):
        branches = t.branches
    if branches is not None:
        for l, s in branches:
            if l == label:
                return s
    return annot


def apply_redex(p, r: Redex):
    """The state after firing r, normalized: only the components r produces
    are new."""
    soup = normalize(_fire(_as_soup(p), r))
    return soup if isinstance(p, _Soup) else soup.term()


def _fire(soup: _Soup, r: Redex) -> _Soup:
    """The soup after firing r, with the produced terms still raw."""
    comps = soup.comps
    kept = [c for k, c in enumerate(comps) if k not in (r.i, r.j)]
    binders = soup.binders
    if r.kind == "beta":
        a: App = comps[r.i].term
        f: Abs = a.fun
        if len(f.params) != len(a.args):
            raise SemanticsError("application arity mismatch")
        sub = Subst.of_vars({x: v for (x, _), v in zip(f.params, a.args)})
        return _Soup(binders, tuple(kept), (substitute(f.body, sub),))
    out_c = comps[r.i].term
    in_c = comps[r.j].term
    if r.kind == "comm":
        sub = Subst.of_vars(dict(zip(in_c.binders, out_c.payload)))
        new = [out_c.cont, substitute(in_c.cont, sub)]
    else:
        new = [out_c.cont, in_c.branch(r.label)]
    if out_c.subject.kind == "session":
        pos = _positive(out_c.subject)
        binders = tuple(
            (b, _advance(a, b, out_c.subject, r.label) if b == pos else a)
            for b, a in binders
        )
    return _Soup(binders, tuple(kept), tuple(new))


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass
class Step:
    index: int
    kind: str
    subject: Optional[str]
    label: Optional[str]
    term: object


@dataclass
class Trace:
    initial: object
    steps: list
    final: object
    status: str  # "inert" | "stuck" | "fuel"

    def __len__(self) -> int:
        return len(self.steps)


def _terminal_status(soup: _Soup) -> str:
    for c in soup.comps:
        if not isinstance(c.term, (Input, Output, Select, Branch)):
            return "stuck"
    return "inert"


def run(p, fuel: int = 200) -> Trace:
    """Execute to quiescence or fuel exhaustion, firing at each step the
    enabled redex that comes first in the documented priority order
    (explore() covers all interleavings instead)."""
    soup = _as_soup(p)
    state = initial = soup.term()
    steps: list[Step] = []
    while len(steps) < fuel:
        rs = enabled(soup)
        if not rs:
            return Trace(initial, steps, state, _terminal_status(soup))
        r = min(rs, key=_det_rank)
        soup = apply_redex(soup, r)
        state = soup.term()
        steps.append(
            Step(
                len(steps) + 1,
                r.kind,
                str(r.subject) if r.subject is not None else None,
                r.label,
                state,
            )
        )
    return Trace(initial, steps, state, "fuel")


@dataclass
class Exploration:
    states: dict
    depth: dict
    terminals: dict  # key -> "inert" | "stuck"
    truncated: bool
    edges: int = 0


def explore(p, fuel: int = 50, max_states: int = 50000) -> Exploration:
    """Breadth-first closure of the reachable state space up to `fuel`
    reduction steps, memoized on the canonical erased form."""
    s0 = _as_soup(p)
    k0 = canonical_key(s0)
    states = {k0: s0.term()}
    depth = {k0: 0}
    terminals: dict = {}
    truncated = False
    frontier = [(k0, s0)]
    edges = 0
    while frontier:
        nxt: list = []
        for k, s in frontier:
            d = depth[k]
            rs = enabled(s)
            if not rs:
                terminals[k] = _terminal_status(s)
                continue
            if d >= fuel:
                truncated = True
                continue
            for r in rs:
                t = apply_redex(s, r)
                edges += 1
                tk = canonical_key(t)
                if tk not in states:
                    if len(states) >= max_states:
                        truncated = True
                        continue
                    states[tk] = t.term()
                    depth[tk] = d + 1
                    nxt.append((tk, t))
        frontier = nxt
    return Exploration(states, depth, terminals, truncated, edges)
