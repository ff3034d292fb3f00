"""Reduction semantics over a normalized process soup.

A state is kept as a restriction prefix over a flat parallel composition:
top-level restrictions are hoisted (renaming on collision), nil components
dropped, dead restrictions erased, and components sorted by an
alpha-invariant type-erased key. Communication fires between complementary
top-level prefixes; beta fires on a top-level application whose head is an
abstraction. Restriction annotations advance along with the channel they
govern, so every intermediate state carries a well-formed session
environment for its restricted names.

A state is held as a `_Soup`: the hoisted binders with their annotations,
one `_Comp` per component, sorted ones and then an unsorted tail, and how
many components each free name occurs in. `normalize`, `enabled`,
`apply_redex` and `canonical_key` take a term or a soup; on a term they
build its soup first and answer with a term, on a soup with a soup. `run`
and `explore` step on soups, and a step costs what its redex consumes and
makes:

- Free names come from the call's memo (`terms.Memo`), which scans each
  subterm once and maps each name to one object, its positive endpoint,
  so maps keyed by names match by identity; `terms.substitute` returns a
  subterm in which nothing it replaces is free as it is, so a comm
  rebuilds only the paths to the received variable.
- A component's sort key is a `terms.Rendering` of it, hoisted names as
  n0; components whose keys tie are ordered by the rendering with every
  name literal. A rendering renders a component's first nodes when it is
  made, and the rest only when a comparison finds two texts equal that
  far or when a state's key asks for the template.
- `_normalize` appends the new components to the tail; a binder dies when
  its count of components does. A term, a key or `enabled` merges the tail
  into the sorted components, whose hoisted names cannot change, as a
  stable sort would. So `explore`, which keys each state, sorts each one;
  `run` finds each state's redexes by the same scan of the components'
  roles as `enabled` (the `role` each component is given when made), over
  the components as they lie, and keeps no index between steps; it sorts
  a state only when two redexes tie in the policy's first rank, or when
  its term is read, then from the order of the state it stepped from, with
  only the step's new components to merge in.
- The components a redex makes are recorded with the component that
  fired it, under its partner and label, and reused, renderings included,
  in every state of `explore` where the same components meet again. Only
  products with no restriction on their parallel spine are recorded, since
  hoisting and collision renaming depend on the state; the free names of
  the others are among the consumed components' names, so which of them
  are hoisted does not depend on the state either.
- A state's key is a tuple: for each component in sort order, its finished
  template, its number of binders and the numbers of its hoisted names.
  One printer, `_text`, gives it as the text `canonical_key` returns. A
  key depends only on the components' terms and slots, and a kept
  component keeps its slots, so `explore` indexes the key of each state it
  keeps or cuts by the state's components as objects. When a redex reuses
  recorded components, the state it reaches holds the state's components
  less those it consumes plus those recorded; if that multiset is indexed,
  the edge takes the key it maps to and is neither fired, normalized,
  sorted nor keyed. Converging interleavings of independent redexes meet
  this way.
- `explore` deduplicates on the tuples and keeps each state as its soup.
  `Exploration` prints a state's key as text when the key is read, and
  materializes its term when the term is read, as `run`'s steps do.

Every cache lives in the soups or the result of one `run` or `explore`
call, or in the soups of one call of another entry point, and nowhere
else.

The deterministic policy orders enabled redexes:
  1. reserved bookkeeping channels ("#..."), highest index first,
     index-free ones (recursion servers) ahead of all indexed ones;
  2. applications, leftmost component first;
  3. source-channel synchronizations, by subject then position.
"""

from __future__ import annotations

from bisect import insort_right
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Optional

from . import terms as tm
from .terms import (
    Abs,
    App,
    Branch,
    Inact,
    Input,
    Memo,
    Name,
    NameSupply,
    Output,
    Par,
    Rendering,
    Res,
    Select,
    Var,
    free_names,
    iter_subterms,
    parallel,
    substitute,
)
from .types import SBra, SIn, SOut, SSel, unfold_top


class SemanticsError(Exception):
    pass


# ---------------------------------------------------------------------------
# Normal form
# ---------------------------------------------------------------------------


def _positive(n: Name, memo: Memo) -> Name:
    """The call's one object for n's positive endpoint, from `memo.names`."""
    p = memo.names.get(n)
    if p is None:
        p = n.dualized() if n.dual else n
        p = memo.names[n] = memo.names.setdefault(p, p)
    return p


_ROLES = {App: "beta", Output: "send", Select: "send", Input: "receive", Branch: "receive"}


class _Comp:
    """One top-level component of a soup and what is known about it.

    `names` are the positive endpoints of its free names, in first-
    occurrence order, each the call's one object for it (see `_positive`);
    `slots` are those that are hoisted binders. `role` is its part in a
    redex, "beta" for an application of an abstraction, "send" or
    "receive" for a prefix on a name, whose positive endpoint is then
    `names[0]`, else None; `run` and `enabled` find redexes by it. A
    component is only made by `_normalize`, of a class in `_ROLES`, and the
    binders among its free names never change while it is kept: a new
    binder that collides with one of its names is renamed. So its sort key
    is fixed: `key`, the `terms.Rendering` over its slots, ordered
    first, and on a tie the rendering over no slots, the literal
    tie-breaker, made only for such ties.

    `fired` maps (partner, label) to the components a redex of this one
    with that partner made, when they can be reused in every state where
    the redex fires (see `_normalize`); the partner is None for a beta."""

    __slots__ = ("term", "names", "slots", "role", "fired", "_memo", "_key", "_literal")

    def __init__(self, term, memo: Memo) -> None:
        self.term = term
        self.names = tuple(dict.fromkeys(_positive(n, memo) for n in free_names(term, memo)))
        cls = term.__class__
        live = term.fun.__class__ is Abs if cls is App else term.subject.__class__ is Name
        self.role = _ROLES[cls] if live else None
        self.slots: tuple = ()
        self.fired: Optional[dict] = None
        self._memo = memo
        self._key: Optional[Rendering] = None
        self._literal: Optional[Rendering] = None

    def key(self) -> Rendering:
        if self._key is None:
            self._key = Rendering(self.term, self.slots, self._memo)
        return self._key

    def literal(self) -> Rendering:
        if self._literal is None:
            self._literal = self.key() if not self.slots else Rendering(self.term, (), self._memo)
        return self._literal

    def __lt__(self, other: "_Comp") -> bool:
        less = self.key().less(other.key())
        if less is None:
            less = self.literal().less(other.literal())
        return bool(less)


class _Soup:
    """A state: `binders` maps each hoisted binder to its annotation,
    `comps` holds its first `nsorted` components in sort-key order and then
    the tail, those added since in the order they came, which `sort`
    merges in, and `counts` says in how many components each positive free
    name occurs, so a binder dies when its count does. The binders' order
    and the term are computed only when asked for. `memo` is the call's
    `terms.Memo`.

    A soup whose `raw` is not None is still to be normalized: it comes
    from `_fire` or `_as_soup` with the `raw` terms to flatten in and the
    `made` components a fired redex reuses, owns its containers, and
    `_normalize` completes them in place, checking the names in `dying`
    (counts that fell to zero) for dead binders and recording what it made
    under `source`, the fired component and its key, when it can be
    reused; `run` clears `source`, since a component it consumed never
    fires again. A normal soup is not changed, except that `sort` merges
    its tail in, that `explore` drops the counts and `fresh` of a soup it
    has expanded, and that `run`, which keeps one soup per step for its
    term, drops the counts of a soup it has stepped from and links each
    soup to it as `prev`: `fresh` lists the components its normalization
    added, which are its last ones until it is sorted."""

    __slots__ = ("binders", "comps", "counts", "memo", "raw", "made", "dying", "source",
                 "fresh", "nsorted", "prev", "_term")

    def __init__(self, binders: dict, comps: list, counts: Optional[dict], memo: Memo,
                 raw: Optional[tuple] = None, made: tuple = (), dying: tuple = (),
                 source: Optional[tuple] = None, fresh: list = (), nsorted: int = 0) -> None:
        self.binders, self.comps, self.counts, self.memo = binders, comps, counts, memo
        self.raw, self.made, self.dying, self.source = raw, made, dying, source
        self.fresh, self.nsorted = fresh, nsorted
        self.prev: Optional[_Soup] = None
        self._term = None

    def sort(self) -> list:
        """Merge the tail in, each component after every one that does not
        sort after it, and give the components, now in order.

        A soup of `run` whose kept components, those before `fresh`, are
        not in order takes their order from `prev`, the soup it stepped
        from, with what the step consumed left out (no component occurs
        twice in a state of `run`, which reuses none); `prev` is sorted
        first, the same way. So the soups are walked back to the first
        whose kept components are in order, and then forward, each merging
        in only the components its step made."""
        if self.nsorted < len(self.comps):
            chain = [self]
            while chain[-1].prev is not None and chain[-1].nsorted < chain[-1]._nkept():
                chain.append(chain[-1].prev)
            *later, first = chain
            first._merge()
            for s in reversed(later):
                comps, n = s.comps, s._nkept()
                kept = set(comps[:n])
                comps[:n] = [c for c in s.prev.comps if c in kept]
                s.nsorted = n
                s._merge()
        return self.comps

    def _nkept(self) -> int:
        return len(self.comps) - len(self.fresh)

    def _merge(self) -> None:
        comps, n = self.comps, self.nsorted
        if n < len(comps):
            tail = comps[n:]
            del comps[n:]
            for c in tail:
                insort_right(comps, c)
            self.nsorted = len(comps)

    def term(self):
        """The state's term: its binders, in order of first use by the
        sorted components, restricting their parallel composition."""
        if self._term is None:
            comps = self.sort()
            body = parallel(c.term for c in comps)
            for b in reversed(dict.fromkeys(n for c in comps for n in c.slots)):
                body = Res(b, self.binders[b], body)
            self._term = body
        return self._term


def _normalize(soup: _Soup) -> _Soup:
    """The normalized soup: the made components and then the raw terms,
    flattened, are appended to the tail of the components, which are
    already normal; `_Soup.sort` sorts them when the order is asked for.

    A raw restriction whose binder collides with a binder, a free name of
    the state or a free name of the raw terms is renamed throughout its
    scope (both polarities): reserved bookkeeping names move to an index
    above every reserved name of the state, others take a primed base.
    Dead binders are then dropped. The identifiers in use and the reserved
    indices of the state are gathered only when a binder collides.

    Raw terms with no restriction on their parallel spine flatten to the
    same components in every state: their free names are among those of
    the components the redex consumed, and so are their hoisted ones, the
    slots. Such components are recorded under the soup's `source`, and
    the redex reuses them wherever it fires again. A raw term that is not
    a process, such as a value, raises `SemanticsError`."""
    raw, memo = soup.raw, soup.memo
    binders, kept, counts = soup.binders, soup.comps, soup.counts
    claims: Optional[_Claims] = None
    new: list = []
    claimed: list = []
    stack = list(reversed(raw))
    while stack:
        t = stack.pop()
        cls = t.__class__
        if cls is Inact:
            continue
        if cls is Par:
            stack += (t.right, t.left)
        elif cls is Res:
            b, body = _positive(t.binder, memo), t.body
            if claims is None:
                claims = _Claims(soup)
            fresh = claims.fresh(b)
            if fresh is not None:
                body = substitute(body, tm.rename_channel(b, fresh), memo)
                b = _positive(fresh, memo)
            binders[b] = t.annot
            claimed.append(b)
            stack.append(body)
        elif cls in _ROLES:
            new.append(_Comp(t, memo))
        else:
            raise SemanticsError(f"{cls.__name__} is not a process")

    if claims is None and soup.source is not None:
        owner, key = soup.source
        if owner.fired is None:
            owner.fired = {}
        owner.fired[key] = tuple(new)
    added = [*soup.made, *new]
    for c in added:
        for n in c.names:
            counts[n] = counts.get(n, 0) + 1
    for b in (*soup.dying, *claimed):
        if b not in counts and b in binders:
            del binders[b]
    for c in new:
        c.slots = tuple(n for n in c.names if n in binders)
    kept += added
    stats = memo.stats
    stats["normalizations"] += 1
    stats["components_built"] += len(new)
    return _Soup(binders, kept, counts, memo, fresh=added, nsorted=soup.nsorted)


class _Claims:
    """Fresh binders for the raw restrictions of one normalization that
    collide with a binder, a free name of the state or a free name of the
    raw terms; made at the first raw restriction. At the first collision
    one walk over the binders, the kept components and the raw terms
    gathers the identifiers in use and the top reserved index."""

    def __init__(self, soup: _Soup) -> None:
        self.soup = soup
        self.raw_free = _spine_free(soup.raw, soup.memo)
        self.supply: Optional[NameSupply] = None
        self.next_reserved = 0

    def fresh(self, b: Name) -> Optional[Name]:
        """b's new name if it collides, else None."""
        soup = self.soup
        if b not in soup.binders and b not in soup.counts and b not in self.raw_free:
            return None
        if self.supply is None:
            bases, top = set(), 0
            for t in (*soup.binders, *(c.term for c in soup.comps), *soup.raw):
                for x in iter_subterms(t):
                    if x.__class__ is Name or x.__class__ is Var:
                        bases.add(x.base)
                        if tm.is_prop(x):
                            top = max(top, x.index or 0)
            self.supply = NameSupply(lambda: bases)
            self.next_reserved = top + 1
        if b.base != tm.RESERVED_PREFIX:
            return Name(self.supply.fresh(b.base), b.index, False, b.kind)
        self.next_reserved += 1
        return tm.prop_name(self.next_reserved - 1)


def _spine_free(raw: tuple, memo: Memo) -> set:
    """Positive free names of the raw terms. Their parallel and
    restriction spine is walked with a count of the binders in scope, and
    only what hangs off it is scanned, so a long spine is not summarized
    once per node."""
    out: set = set()
    bound: dict = {}
    stack = list(raw)
    while stack:
        t = stack.pop()
        cls = t.__class__
        if cls is Par:
            stack += (t.right, t.left)
        elif cls is Res:
            b = _positive(t.binder, memo)
            bound[b] = bound.get(b, 0) + 1
            stack += ((b,), t.body)
        elif cls is tuple:  # the scope of a binder ends
            b = t[0]
            bound[b] -= 1
            if not bound[b]:
                del bound[b]
        else:
            out.update(p for n in free_names(t, memo) if (p := _positive(n, memo)) not in bound)
    return out


def normalize(p):
    """Restriction-prefixed sorted soup; idempotent. A term gives a term; a
    pending `_Soup`, one that `_as_soup` or `_fire` made, gives the normal
    `_Soup` that reuses the components it already has."""
    if isinstance(p, _Soup):
        return _normalize(p)
    return _as_soup(p).term()


def _as_soup(p) -> _Soup:
    return p if isinstance(p, _Soup) else normalize(_Soup({}, [], {}, Memo(), (p,)))


def _key(soup: _Soup) -> tuple:
    """The state's key: for each component in sort order, its finished
    template, its number of binders and the numbers of its hoisted names,
    numbered 1..k in order of first use. It finishes the renderings the
    sort began, so no component is rendered twice."""
    number: dict = {}
    key: list = []
    append = key.append
    for c in soup.sort():
        r = c.key()
        append(r.fmt())
        append(r.binders)
        for n in c.slots:
            append(number.setdefault(n, len(number) + 1))
    return tuple(key)


def _text(key: tuple) -> str:
    """The text of a state's key (see `canonical_key`)."""
    comps: list = []
    for x in key:
        if x.__class__ is str:
            comps.append([x])
        else:
            comps[-1].append(x)
    hoisted = offset = max((n for c in comps for n in c[2:]), default=0)
    parts = []
    for fmt, nb, *slots in comps:
        parts.append(fmt.format(*slots, *range(offset + 1, offset + nb + 1)))
        offset += nb
    if not parts:
        return "0"
    body = "".join(f"({x}|" for x in parts[:-1]) + parts[-1] + ")" * (len(parts) - 1)
    return "".join(f"nu n{k}.(" for k in range(1, hoisted + 1)) + body + ")" * hoisted


def canonical_key(p) -> str:
    """The normalized state's key as text: its hoisted binders numbered
    1..k in order, then each component's template filled with the numbers
    of its hoisted names and the next free numbers for its own binders,
    the components joined right-nested. Two states have equal texts
    exactly when their `_key` tuples are equal, which is what `explore`
    compares."""
    return _text(_key(_as_soup(p)))


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


def _meets(out, inp) -> bool:
    """Whether a sender and a receiver on endpoints of one channel
    synchronize: on opposite endpoints of a session, or on one shared name,
    an output whose payload has as many values as the input has binders, or
    a selection whose label the branch offers."""
    if out.subject.kind == "session" and out.subject.dual == inp.subject.dual:
        return False
    if out.__class__ is Output:
        return inp.__class__ is Input and len(out.payload) == len(inp.binders)
    return inp.__class__ is Branch and any(l == out.label for l, _ in inp.branches)


def enabled(p) -> list[Redex]:
    """Every redex of the state, at the positions of its sorted components
    (see `_scan`)."""
    return _scan(_as_soup(p).sort())


def _scan(comps: list) -> list[Redex]:
    """Every redex of a state whose components are comps, found by their
    roles, at the positions where they lie."""
    receivers: dict[Name, list[int]] = {}
    for j, d in enumerate(comps):
        if d.role == "receive":
            receivers.setdefault(d.names[0], []).append(j)
    out: list[Redex] = []
    for i, c in enumerate(comps):
        role = c.role
        if role == "beta":
            out.append(Redex("beta", i))
        elif role == "send":
            t, n = c.term, c.names[0]
            for j in receivers.get(n, ()):
                if _meets(t, comps[j].term):
                    out.append(Redex("comm", i, j, n) if t.__class__ is Output else
                               Redex("select", i, j, n, t.label))
    return out


_BIG = 10**9
# what `run` and `explore` count, each reported, as 0 if it never rose
_COUNTERS = ("normalizations", "components_built", "steps_reused", "full_renderings",
             "nodes_scanned", "nodes_substituted", "nodes_rendered")


def _rank(n: Optional[Name]) -> tuple:
    """The policy's rank of a redex on subject n (None: a beta) up to ties."""
    if n is None:
        return (1, 0)
    if tm.is_reserved(n):
        return (0, -(n.index if n.index is not None else _BIG))
    return (2, (n.base, n.index or 0, n.kind))


def _det_rank(r: Redex) -> tuple:
    return (*_rank(r.subject), r.i, -1 if r.j is None else r.j)


def _pick(soup: _Soup) -> Optional[Redex]:
    """`min(enabled(soup), key=_det_rank)`, at the positions where the
    soup's components lie: the soup is sorted, and positions compared,
    only when the policy's first rank by subject ties at the top."""
    rs = _scan(soup.comps)
    if len(rs) < 2:  # the common case, with nothing to rank
        return rs[0] if rs else None
    ranks = [_rank(r.subject) for r in rs]
    if ranks.count(min(ranks)) > 1:
        rs = _scan(soup.sort())
    return min(rs, key=_det_rank)


def _advance(annot, out_subject: Name, label: Optional[str]):
    """Move a restriction annotation, which tracks the positive endpoint,
    along the action a sender on out_subject just performed on it."""
    t = unfold_top(annot)
    if label is None:
        return t.cont if isinstance(t, SIn if out_subject.dual else SOut) else annot
    if isinstance(t, SBra if out_subject.dual else SSel):
        for l, s in t.branches:
            if l == label:
                return s
    return annot


def apply_redex(p, r: Redex):
    """The state after firing r, normalized: only the components r produces
    are new. r's positions are those `enabled` gives: in the soup as
    `enabled` left it, sorted, or in the sorted soup of a term. On a term,
    r must be one of its `enabled` redexes, else `SemanticsError`; a soup's
    redex is not checked."""
    if isinstance(p, _Soup):
        return normalize(_fire(p, r))
    soup = _as_soup(p)
    if r not in enabled(soup):
        at = r.i if r.j is None else f"{r.i}, {r.j} on {r.subject}"
        raise SemanticsError(f"{r.kind} at {at} is not enabled")
    return normalize(_fire(soup, r)).term()


def _fire(soup: _Soup, r: Redex) -> _Soup:
    """The soup after firing r, whose positions are in the soup's
    components as they lie, with what it produces still to normalize: the
    consumed components are sliced out and their names' counts lowered.
    The components r makes are taken from r's entry in the `fired` table
    of its sender or application, if there is one; else the produced
    terms are left raw, and their normalization may record them there."""
    comps, memo, head = soup.comps, soup.memo, soup.nsorted
    binders = dict(soup.binders)
    c = comps[r.i]
    if r.kind == "beta":
        gone = (c,)
        kept = comps[:r.i] + comps[r.i + 1:]
        nsorted = head - (r.i < head)
    else:
        lo, hi = sorted((r.i, r.j))
        gone = (c, comps[r.j])
        kept = comps[:lo] + comps[lo + 1:hi] + comps[hi + 1:]
        nsorted = head - (lo < head) - (hi < head)
        out = c.term
        if out.subject.kind == "session":
            pos = c.names[0]  # the positive endpoint of the subject
            if pos in binders:
                binders[pos] = _advance(binders[pos], out.subject, r.label)
    key, made = _recorded(comps, r)
    if made is not None:
        memo.stats["steps_reused"] += 1
        raw, source = (), None
    else:
        raw, made, source = _produce(r, gone, memo), (), (c, key)
    counts = dict(soup.counts)
    dying = []
    for g in gone:
        for n in g.names:
            k = counts[n] - 1
            if k:
                counts[n] = k
            else:
                del counts[n]
                dying.append(n)
    return _Soup(binders, kept, counts, memo, raw, made, tuple(dying), source, nsorted=nsorted)


def _recorded(comps: list, r: Redex) -> tuple:
    """r's entry in the `fired` table of its sender or application, whose
    positions are in comps, and the components recorded there, or None."""
    c = comps[r.i]
    key = (comps[r.j] if r.j is not None else None, r.label)
    return key, (c.fired.get(key) if c.fired is not None else None)


def _produce(r: Redex, gone: tuple, memo: Memo) -> tuple:
    """The terms that firing r on the components gone produces."""
    if r.kind == "beta":
        a: App = gone[0].term
        f: Abs = a.fun
        if len(f.params) != len(a.args):
            raise SemanticsError("application arity mismatch")
        return (substitute(f.body, {x: v for (x, _), v in zip(f.params, a.args)}, memo),)
    out_c, in_c = gone[0].term, gone[1].term
    if r.kind == "comm":
        return (out_c.cont, substitute(in_c.cont, dict(zip(in_c.binders, out_c.payload)), memo))
    return (out_c.cont, in_c.branch(r.label))


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass
class Step:
    """One step of a run. `term`, the state it reached, is materialized
    from the step's soup when first read and then kept."""

    index: int
    kind: str
    subject: Optional[str]
    label: Optional[str]
    _soup: _Soup = field(repr=False, compare=False)

    @property
    def term(self):
        return self._soup.term()


@dataclass
class Trace:
    """A run. `initial` and `final`, its first and last state, are
    materialized when read, as a step's `term` is."""

    steps: list
    status: str  # "inert" | "stuck" | "fuel"
    stats: dict
    _start: _Soup = field(repr=False, compare=False)

    @property
    def initial(self):
        return self._start.term()

    @property
    def final(self):
        return self.steps[-1].term if self.steps else self.initial


def _terminal_status(soup: _Soup) -> str:
    for c in soup.comps:
        if not isinstance(c.term, (Input, Output, Select, Branch)):
            return "stuck"
    return "inert"


def run(p, fuel: int = 200) -> Trace:
    """Execute to quiescence or fuel exhaustion, firing at each step the
    enabled redex that comes first in the documented priority order
    (explore() covers all interleavings instead). Each step scans the
    state's components for their redexes as `enabled` does, but where they
    lie, and keeps no index between steps; a state is sorted only when two
    redexes tie in the policy's first rank, and materialized only when its
    term is read. `stats` counts normalizations, components built, reused
    and rendered in full, and term nodes scanned, substituted and
    rendered; one that never rose is 0. `fuel` is at least 0."""
    if fuel < 0:
        raise SemanticsError(f"fuel must be at least 0, not {fuel}")
    soup = start = _as_soup(p)
    steps: list[Step] = []
    # the next redex is looked for first, so a run that ends with its fuel
    # reports how the last state ends
    while (r := _pick(soup)) is not None and len(steps) < fuel:
        pending = _fire(soup, r)
        pending.source = None  # what a consumed component made is never reused
        last, soup = soup, normalize(pending)
        soup.prev = last
        # what is left of the last state only materializes its term
        last.counts = None
        subject = str(r.subject) if r.subject is not None else None
        steps.append(Step(len(steps) + 1, r.kind, subject, r.label, soup))
    status = "fuel" if r is not None else _terminal_status(soup)
    return Trace(steps, status, dict.fromkeys(_COUNTERS, 0) | soup.memo.stats, start)


def _ident(comps: list) -> tuple:
    """A state's components as a multiset of objects, ordered by id; held
    as a key, it keeps them alive, so no id is reused."""
    return tuple(sorted(comps, key=id))


def _reached(comps: list, r: Redex, made: tuple) -> tuple:
    """The `_ident` of the state that r, whose positions are in comps,
    reaches when it reuses the components made."""
    after = [*comps, *made]
    for n in sorted((r.i,) if r.j is None else (r.i, r.j), reverse=True):
        del after[n]
    return _ident(after)


class _Texts:
    """The text keys of one exploration's states, shared by its mappings:
    each is printed once, when first read, and the map from text back to
    key is built when a key is first looked up by its text."""

    def __init__(self, keys) -> None:
        self._keys = keys  # every kept state's key
        self._printed: dict = {}
        self._by_text: Optional[dict] = None

    def text(self, key: tuple) -> str:
        text = self._printed.get(key)
        if text is None:
            text = self._printed[key] = _text(key)
        return text

    def find(self, text) -> Optional[tuple]:
        if self._by_text is None:
            self._by_text = {self.text(k): k for k in self._keys}
        return self._by_text.get(text)


class _Keyed(Mapping):
    """A read-only mapping by text key over a dict by tuple key, in its
    order: `len` and `values` print no key, iteration prints each once,
    and a lookup finds the tuple through `texts`. `read` makes a value
    what is read, as `_Soup.term` does for `Exploration.states`."""

    def __init__(self, by_key: dict, texts: _Texts, read=None) -> None:
        self._by_key, self._texts, self._read = by_key, texts, read

    def __getitem__(self, text):
        key = self._texts.find(text)
        if key not in self._by_key:
            raise KeyError(text)
        value = self._by_key[key]
        return value if self._read is None else self._read(value)

    def __contains__(self, text) -> bool:
        return self._texts.find(text) in self._by_key

    def __iter__(self):
        return map(self._texts.text, self._by_key)

    def __len__(self) -> int:
        return len(self._by_key)

    def values(self) -> list:
        """The values in order; no key is printed."""
        values = self._by_key.values()
        return list(values) if self._read is None else [self._read(v) for v in values]

    def __repr__(self) -> str:
        return repr(dict(self))


@dataclass
class Exploration:
    """`states`, `depth` and `terminals` are read-only mappings from a kept
    state's key, as text, to its term, its depth and, for a state with no
    redex, "inert" or "stuck". They hold the keys as tuples and print a
    key when it is read: `len`, `values`, `edges`, `truncated` and `stats`
    print none, iteration prints each key once for all three, and a lookup
    by text prints every key once. A term is materialized from the state's
    soup when first read, and then kept."""

    states: Mapping
    depth: Mapping
    terminals: Mapping
    truncated: bool
    edges: int = 0
    stats: dict = field(default_factory=dict)


def explore(p, fuel: int = 50, max_states: int = 50000) -> Exploration:
    """Breadth-first closure of the reachable state space up to `fuel`
    reduction steps, deduplicated on each state's `_key` tuple;
    `max_states`, at least 1, bounds the states kept. A redex whose
    products have no restriction on their parallel spine makes its
    components once and reuses them in every state where it fires again.
    The call keeps one index from the components of each state it kept or
    cut, as objects, to the state's key: an edge whose redex reuses
    components and whose state to reach holds components indexed so takes
    that key without firing, and meets the same dedup and `max_states`
    tests as every other edge. A kept state stays a soup, with its counts
    and `fresh` dropped once it is expanded, and its key stays a tuple
    until it is read as text (see `Exploration`).
    `stats` counts what `run`'s does, and `dedup_hits`: edges to a state
    already seen; `steps_reused`: edges whose redex reused its components;
    `identity_hits`: edges resolved by the index, which are not
    normalized, so normalizations plus identity hits are the edges plus
    one; `cut_by_fuel`: states left unexpanded at depth `fuel`; and
    `cut_by_max_states`: states reached but left out because `max_states`
    were already kept. `truncated` is set when either cut is not zero.
    `fuel` is at least 0."""
    if fuel < 0:
        raise SemanticsError(f"fuel must be at least 0, not {fuel}")
    if max_states < 1:
        raise SemanticsError(f"max_states must be at least 1, not {max_states}")
    s0 = _as_soup(p)
    k0 = _key(s0)
    soups = {k0: s0}
    depth = {k0: 0}
    terminals: dict = {}
    cut_by_fuel = 0
    cut_by_max_states: set = set()
    frontier = [(k0, s0)]
    index = {_ident(s0.comps): k0}
    edges = hits = resolved = 0
    while frontier:
        nxt: list = []
        for k, s in frontier:
            d = depth[k]
            rs = enabled(s)
            if not rs:
                terminals[k] = _terminal_status(s)
            elif d >= fuel:
                cut_by_fuel += 1
            else:
                for r in rs:
                    edges += 1
                    _, made = _recorded(s.comps, r)
                    ident = None if made is None else _reached(s.comps, r, made)
                    tk = None if ident is None else index.get(ident)
                    t = None
                    if tk is not None:
                        resolved += 1
                        s0.memo.stats["steps_reused"] += 1
                    else:
                        t = apply_redex(s, r)
                        tk = _key(t)
                    if tk in soups:
                        hits += 1
                        continue
                    if t is not None:  # fired: its state is new or was cut
                        index[_ident(t.comps) if ident is None else ident] = tk
                    if len(soups) >= max_states:
                        cut_by_max_states.add(tk)
                        continue
                    # an indexed key was kept or cut, so t is this edge's state
                    soups[tk] = t
                    depth[tk] = d + 1
                    nxt.append((tk, t))
            # what is left of a state only materializes its term
            s.counts, s.fresh = None, ()
        frontier = nxt
    stats = dict(dict.fromkeys(_COUNTERS, 0) | s0.memo.stats, dedup_hits=hits,
                 identity_hits=resolved, cut_by_fuel=cut_by_fuel,
                 cut_by_max_states=len(cut_by_max_states))
    truncated = bool(cut_by_fuel or cut_by_max_states)
    texts = _Texts(soups)
    return Exploration(_Keyed(soups, texts, _Soup.term), _Keyed(depth, texts),
                       _Keyed(terminals, texts), truncated, edges, stats)
