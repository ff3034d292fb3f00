"""Seeded protocol generator shared by the three benchmark workloads.

Every input is built from a `random.Random(seed)` and carries the answer
the benchmark expects, known by construction: typecheck verdicts,
decomposition widths, dual types, the unfolding of recursive types, step
counts of `run`, and the state, edge and terminal counts of `explore`.
No reference is ever computed by calling into `minsess`; the library is
only used here for its constructors, which validate the terms they build.

Sizes are log-uniform, taken from a fixed base-2 van der Corput sequence
rather than drawn independently: every prefix of a schedule covers the size
range evenly, and every seed has the same sizes, family mix, mutant share
and long-protocol share. The seed decides everything else: the order, the
contents of each protocol, and which mutant lands on which family. The
families whose checking cost grows fastest with size (`choice`, `deleg`)
have regular contents and put their mutant in the middle, so a protocol's
cost, and whether it exceeds the recursion limit, depends on its size alone.

Long protocols (thousands of prefixes) are built back to front with loops,
never by recursion, so the generator itself works at any length.
"""

from __future__ import annotations

import importlib
import itertools
import math
import random
import sys
from dataclasses import dataclass
from math import comb

CHECK_FAMILIES = ("msg", "choice", "ho", "deleg", "rec")
RUN_FAMILIES = ("deep", "wide")
EXPLORE_FAMILIES = ("rpc-same", "rpc-mixed")
MUTANTS = ("unfinished", "payload", "label", "arity", "lintwice")
# families on which each mutant kind can be placed
MUTANT_FAMILIES = {
    "unfinished": ("msg", "choice", "ho", "deleg", "rec"),
    "payload": ("msg", "deleg", "rec"),
    "label": ("choice",),
    "arity": ("msg", "ho", "rec"),
    "lintwice": ("msg", "ho", "rec"),
}
CHECK_SIZES = (8, 256)
LONG_SIZES = (1000, 4000)
RUN_SIZES = (8, 64)
CHECK_BLOCK = 20  # 5 families x 4: 1 long protocol and 5 mutants per block
EXPLORE_KS = (2, 3, 4)


class Lib:
    """The four `minsess` modules, imported afresh from `sys.path`."""

    def __init__(self) -> None:
        for name in [m for m in sys.modules if m == "minsess" or m.startswith("minsess.")]:
            del sys.modules[name]
        importlib.import_module("minsess")
        self.ty = importlib.import_module("minsess.types")
        self.tm = importlib.import_module("minsess.terms")
        self.tc = importlib.import_module("minsess.typecheck")
        self.sem = importlib.import_module("minsess.semantics")


@dataclass
class Op:
    """One benchmark operation: its inputs and the reference answer."""

    workload: str
    family: str
    size: int  # interactions; for explore, the reference state count
    inputs: dict
    ref: dict
    tier: str = "normal"  # "normal" | "long"
    mutant: str | None = None


def radical_inverse(i: int) -> float:
    """Base-2 van der Corput point of i."""
    out, f = 0.0, 0.5
    while i:
        if i & 1:
            out += f
        i >>= 1
        f /= 2
    return out


class SizeStream:
    """Log-uniform integers on [lo, hi], low-discrepancy in every prefix."""

    def __init__(self, lo: int, hi: int) -> None:
        self.lo, self.hi = lo, hi
        self.i = 0

    def next(self) -> int:
        q = (radical_inverse(self.i) + 1 / 256) % 1.0
        self.i += 1
        return int(round(math.exp(math.log(self.lo) + q * math.log(self.hi / self.lo))))


# ---------------------------------------------------------------------------
# Constructors and reference types, built without minsess's own functions
# ---------------------------------------------------------------------------


class Kit:
    """Shorthands over one imported `Lib`."""

    def __init__(self, lib: Lib) -> None:
        ty, tm = lib.ty, lib.tm
        self.lib = lib
        self.ty, self.tm = ty, tm
        self.END = ty.SEnd()
        self.INT, self.BOOL = ty.INT, ty.BOOL
        self.ABS = ty.TArrow((ty.INT,), False)  # lin(Int)

    def sname(self, base: str):
        return self.tm.Name(base, None, False, "session")

    def lit(self, rng: random.Random, base: str):
        # one draw either way, so a mutant keeps the draws of its original
        v = rng.randrange(100)
        return self.tm.Lit(v if base == "Int" else v % 2 == 0)

    def vtype(self, kind: str):
        return {"Int": self.INT, "Bool": self.BOOL, "Abs": self.ABS}[kind]

    def abs_value(self):
        tm = self.tm
        return tm.Abs(((tm.Var("b"), self.INT),), tm.Inact(), False)

    def pkg(self, u):
        """Encoded payload type of a first-order item of type u."""
        ty = self.ty
        receiver = ty.SIn((ty.TArrow((u,), False),), self.END)
        return ty.TArrow((receiver,), False)


def chain_type(kit: Kit, prefixes, tail):
    """Build a prefix chain back to front. prefixes: (dir, payloads) with
    dir "!" or "?"; returns (type, dual type) over the given tails."""
    ty = kit.ty
    t, d = tail
    for direction, payload in reversed(prefixes):
        if direction == "!":
            t, d = ty.SOut(payload, t), ty.SIn(payload, d)
        else:
            t, d = ty.SIn(payload, t), ty.SOut(payload, d)
    return t, d


# ---------------------------------------------------------------------------
# Binary sessions: msg, choice, ho (check) and deep (run)
# ---------------------------------------------------------------------------
#
# An interaction is a tuple; "A" and "B" name the two endpoints of the
# session s (A holds s, B holds ~s). The session type is written from A's
# side.
#   ("msg", sender, kind)        kind in Int | Bool | Abs (lin(Int))
#   ("choice", selector, labels, chosen)
#   ("ho", sender, "in" | "out") abstraction over a channel of type
#                                ?<Int>;end or !<Bool>;end, applied by the
#                                receiver to a fresh channel it restricts


def binary_protocol(kit: Kit, rng: random.Random, inters, mutant=None):
    """(type of s on A's side, its dual, A's process, B's process).

    mutant: None or (kind, index of the interaction it alters); an
    "unfinished" mutant drops A's last action instead.
    """
    ty, tm = kit.ty, kit.tm
    s = kit.sname("s")
    ends = {"A": s, "B": s.dualized()}
    t, d = kit.END, kit.END
    procs = {"A": tm.Inact(), "B": tm.Inact()}
    mkind, mat = mutant if mutant else (None, -1)
    last = len(inters) - 1
    for i in range(last, -1, -1):
        it = inters[i]
        here = mkind if mat == i else None
        if it[0] == "choice":
            _, sel, labels, chosen = it
            other = "B" if sel == "A" else "A"
            branches = tuple((l, t if l == chosen else kit.END) for l in labels)
            dbranches = tuple((l, d if l == chosen else kit.END) for l in labels)
            if sel == "A":
                t, d = ty.SSel(branches), ty.SBra(dbranches)
            else:
                t, d = ty.SBra(branches), ty.SSel(dbranches)
            label = "zz" if here == "label" else chosen
            sel_p = tm.Select(ends[sel], label, procs[sel])
            bra_p = tm.Branch(
                ends[other],
                tuple((l, procs[other] if l == chosen else tm.Inact()) for l in labels),
            )
            new = {sel: sel_p, other: bra_p}
        else:
            kind, snd = it[0], it[1]
            rcv = "B" if snd == "A" else "A"
            x = tm.Var(f"x{i}")
            rest = procs[rcv]
            if kind == "msg":
                u = kit.vtype(it[2])
                if it[2] == "Abs":
                    value = kit.abs_value()
                    use = tm.App(x, (tm.Lit(rng.randrange(100)),))
                    rest = tm.Par(use, rest)
                    if here == "lintwice":
                        rest = tm.Par(use, rest)
                else:
                    wrong = {"Int": "Bool", "Bool": "Int"}[it[2]]
                    value = kit.lit(rng, wrong if here == "payload" else it[2])
            else:  # higher-order: abstraction over a channel parameter
                c, partner = ho_channel(kit, rng, it[2], i)
                u = ty.TArrow((c,), False)
                y = tm.Var(f"y{i}")
                value = tm.Abs(((y, c),), partner(y, invert=False), False)
                r = kit.sname(f"r{i}")
                fork = tm.Res(
                    r, c, tm.Par(tm.App(x, (r,)), partner(r.dualized(), invert=True))
                )
                rest = tm.Par(fork, rest)
            payload = (value, value) if here == "arity" else (value,)
            if snd == "A":
                t, d = ty.SOut((u,), t), ty.SIn((u,), d)
            else:
                t, d = ty.SIn((u,), t), ty.SOut((u,), d)
            new = {
                snd: tm.Output(ends[snd], payload, procs[snd]),
                rcv: tm.Input(ends[rcv], (x,), rest),
            }
        for side in ("A", "B"):
            if not (mkind == "unfinished" and i == last and side == "A"):
                procs[side] = new[side]
    return t, d, procs["A"], procs["B"]


def ho_channel(kit: Kit, rng: random.Random, mode: str, i: int):
    """Channel type c of an abstraction parameter and a builder of the
    process that drives an endpoint of type c (invert=False) or of its
    dual (invert=True) to end."""
    ty, tm = kit.ty, kit.tm
    z = tm.Var(f"z{i}")
    if mode == "in":
        c = ty.SIn((kit.INT,), kit.END)
        n = rng.randrange(100)

        def partner(end, invert):
            if invert:
                return tm.Output(end, (tm.Lit(n),), tm.Inact())
            return tm.Input(end, (z,), tm.Inact())
    else:
        c = ty.SOut((kit.BOOL,), kit.END)
        b = rng.random() < 0.5

        def partner(end, invert):
            if invert:
                return tm.Input(end, (z,), tm.Inact())
            return tm.Output(end, (tm.Lit(b),), tm.Inact())

    return c, partner


def closed(kit: Kit, t, a, b):
    tm = kit.tm
    return tm.Res(kit.sname("s"), t, tm.Par(a, b))


def balanced(rng: random.Random, options, n: int) -> list:
    """n items taking the options in equal shares, in random order."""
    items = [options[i % len(options)] for i in range(n)]
    rng.shuffle(items)
    return items


def random_msg(rng: random.Random):
    return ("msg", rng.choice("AB"), rng.choice(("Int", "Bool", "Abs")))


def check_interactions(family: str, rng: random.Random, n: int, mutant):
    """Interaction list for a binary check family and the mutant's site.
    Contents come in balanced shares, so every kind of site exists."""
    if family == "msg":
        kinds = balanced(rng, ("Int", "Bool", "Abs"), n)
        inters = [("msg", snd, k) for snd, k in zip(balanced(rng, "AB", n), kinds)]
    elif family == "choice":
        first = rng.choice("AB")
        inters = [random_choice(rng, "AB"[("AB".index(first) + i) % 2], 2) for i in range(n)]
    else:  # ho
        modes = balanced(rng, ("lit", "in", "out"), n)
        inters = [("ho", snd, m) for snd, m in zip(balanced(rng, "AB", n), modes)]
        inters = [("msg", it[1], "Abs") if it[2] == "lit" else it for it in inters]
    site = None
    if mutant in ("payload", "arity", "lintwice", "label"):
        fits = {
            "payload": lambda it: it[0] == "msg" and it[2] != "Abs",
            "arity": lambda it: it[0] != "choice",
            "lintwice": lambda it: it[0] == "msg" and it[2] == "Abs",
            "label": lambda it: it[0] == "choice",
        }[mutant]
        site = middle([i for i, it in enumerate(inters) if fits(it)], n)
    return inters, site


def middle(sites: list[int], n: int) -> int:
    """The site nearest the middle of the protocol."""
    return min(sites, key=lambda i: (abs(2 * i - n), i))


def random_choice(rng: random.Random, selector: str | None = None, width: int = 0):
    labels = tuple(rng.sample(("ok", "no", "retry", "quit", "more"), width or rng.choice((2, 3))))
    return ("choice", selector or rng.choice("AB"), labels, rng.choice(labels))


# ---------------------------------------------------------------------------
# Check workload families
# ---------------------------------------------------------------------------


def check_binary(kit, rng, family, n, mutant):
    inters, site = check_interactions(family, rng, n, mutant)
    t, d, a, b = binary_protocol(kit, rng, inters, (mutant, site) if mutant else None)
    return {
        "inputs": {"process": closed(kit, t, a, b), "envs": None, "stype": t},
        # G(.) gives one minimal type per message prefix, one per choice
        "ref": {"ok": mutant is None, "width": 1 if family == "choice" else n, "dual": d},
    }


def check_deleg(kit, rng, n, mutant):
    """First-order channel passing, compiled by encode_namepass.

    ("msg", sender, Int|Bool) sends a literal; ("deleg", sender, in|out)
    sends the endpoint m_i of a fresh channel of type ?<Int>;end or
    !<Bool>;end, and the sender keeps driving ~m_i. Every third interaction
    delegates and the direction alternates.
    """
    ty, tm = kit.ty, kit.tm
    phase, first = rng.randrange(3), rng.randrange(2)
    modes = iter(balanced(rng, ("in", "out"), n))
    kinds = iter(balanced(rng, ("Int", "Bool"), n))
    inters = [
        ("deleg", "AB"[(first + i) % 2], next(modes))
        if (i + phase) % 3 == 0
        else ("msg", "AB"[(first + i) % 2], next(kinds))
        for i in range(n)
    ]
    site = None
    if mutant == "payload":
        site = middle([i for i, it in enumerate(inters) if it[0] == "msg"], n)
    s = kit.sname("s")
    ends = {"A": s, "B": s.dualized()}
    name_types: dict = {}
    chans = []
    t = enc = encd = kit.END
    procs = {"A": tm.Inact(), "B": tm.Inact()}
    last = n - 1
    for i in range(last, -1, -1):
        kind, snd, what = inters[i]
        rcv = "B" if snd == "A" else "A"
        x = tm.Var(f"x{i}")
        if kind == "msg":
            u = kit.vtype(what)
            wrong = {"Int": "Bool", "Bool": "Int"}[what]
            item = kit.lit(rng, wrong if site == i else what)
            name_types[x] = u
            snd_p = tm.Output(ends[snd], (item,), procs[snd])
            rcv_p = tm.Input(ends[rcv], (x,), procs[rcv])
            enc_u = kit.pkg(u)
        else:
            c, partner = ho_channel(kit, rng, what, i)
            z = tm.Var(f"z{i}")
            name_types[z] = kit.INT if what == "in" else kit.BOOL
            m = kit.sname(f"m{i}")
            chans.append((m, c))
            name_types[m] = c
            name_types[x] = c
            u = c
            snd_p = tm.Output(ends[snd], (m,), tm.Par(partner(m.dualized(), True), procs[snd]))
            rcv_p = tm.Input(ends[rcv], (x,), tm.Par(partner(x, False), procs[rcv]))
            if what == "in":
                inner = ty.SIn((kit.pkg(kit.INT),), kit.END)
            else:
                inner = ty.SOut((kit.pkg(kit.BOOL),), kit.END)
            enc_u = kit.pkg(inner)
        if snd == "A":
            t = ty.SOut((u,), t)
            enc, encd = ty.SOut((enc_u,), enc), ty.SIn((enc_u,), encd)
        else:
            t = ty.SIn((u,), t)
            enc, encd = ty.SIn((enc_u,), enc), ty.SOut((enc_u,), encd)
        for side, p in ((snd, snd_p), (rcv, rcv_p)):
            if not (mutant == "unfinished" and i == last and side == "A"):
                procs[side] = p
    p = closed(kit, t, procs["A"], procs["B"])
    for m, c in chans:
        p = tm.Res(m, c, p)
    return {
        "inputs": {"process": p, "name_types": name_types, "envs": None, "stype": enc},
        "ref": {"ok": mutant is None, "width": n, "dual": encd, "encoded_stype": enc},
    }


def check_rec(kit, rng, n, mutant):
    """n prefixes of a tail-recursive protocol on a free channel s, then
    the rest of the protocol handed to a linear continuation y."""
    ty, tm = kit.ty, kit.tm
    body_len = rng.randrange(2, 7)
    body = list(zip(balanced(rng, "!?", body_len), balanced(rng, ("Int", "Bool", "Abs"), body_len)))
    if mutant in ("payload", "arity", "lintwice"):
        want = {
            "payload": lambda b: b[0] == "!" and b[1] != "Abs",
            "arity": lambda b: b[0] == "!",
            "lintwice": lambda b: b[0] == "?" and b[1] == "Abs",
        }[mutant]
        if not any(want(b) for b in body):
            body[0] = {"payload": ("!", "Int"), "arity": ("!", "Bool"), "lintwice": ("?", "Abs")}[mutant]
    prefixes = [(dr, (kit.vtype(k),)) for dr, k in body]
    var = ty.SVar("t")
    chain, dchain = chain_type(kit, prefixes, (var, var))
    stype = ty.SRec("t", chain)
    dual = ty.SRec("t", dchain)
    unfolding, _ = chain_type(kit, prefixes, (stype, stype))
    s = kit.sname("s")
    y = tm.Var("y")
    site = None
    if mutant in ("payload", "arity", "lintwice"):
        site = middle([i for i in range(n) if want(body[i % body_len])], n)
    rest_type = stype
    if n % body_len:
        rest_type, _ = chain_type(kit, prefixes[n % body_len:], (stype, stype))
    proc = tm.Inact() if mutant == "unfinished" else tm.App(y, (s,))
    for i in range(n - 1, -1, -1):
        dr, k = body[i % body_len]
        here = mutant if i == site else None
        if dr == "!":
            if k == "Abs":
                value = kit.abs_value()
            else:
                value = kit.lit(rng, {"Int": "Bool", "Bool": "Int"}[k] if here == "payload" else k)
            payload = (value, value) if here == "arity" else (value,)
            proc = tm.Output(s, payload, proc)
        else:
            x = tm.Var(f"x{i}")
            if k == "Abs":
                use = tm.App(x, (tm.Lit(rng.randrange(100)),))
                proc = tm.Par(use, proc)
                if here == "lintwice":
                    proc = tm.Par(use, proc)
            proc = tm.Input(s, (x,), proc)
    envs = kit.lib.tc.TypeEnvs(lam={y: ty.TArrow((rest_type,), False)}, delta={s: stype})
    return {
        "inputs": {"process": proc, "envs": envs, "stype": stype, "unfolding": unfolding},
        "ref": {"ok": mutant is None, "width": body_len, "dual": dual, "equal": True},
    }


def check_op(kit, rng, family, n, tier, mutant) -> Op:
    if family == "deleg":
        built = check_deleg(kit, rng, n, mutant)
    elif family == "rec":
        built = check_rec(kit, rng, n, mutant)
    else:
        built = check_binary(kit, rng, family, n, mutant)
    return Op("check", family, n, built["inputs"], built["ref"], tier, mutant)


def check_pool(lib: Lib, rng: random.Random, blocks: int) -> list[Op]:
    """Blocks of 20: every family four times, one long protocol and one
    mutant of each kind (each on a family that has a site for it)."""
    kit = Kit(lib)
    sizes = {(f, m): SizeStream(*CHECK_SIZES) for f in CHECK_FAMILIES for m in (False, True)}
    long_sizes = SizeStream(*LONG_SIZES)
    long_order = list(CHECK_FAMILIES)
    rng.shuffle(long_order)
    ops: list[Op] = []
    for b in range(blocks):
        assignment = rng.choice(MUTANT_PAIRINGS)
        long_family = long_order[b % len(long_order)]
        slots = []
        for f in CHECK_FAMILIES:
            kinds = [k for k, fam in assignment.items() if fam == f]
            specs = [("normal", k) for k in kinds]
            if f == long_family:
                specs.append(("long", None))
            specs += [("normal", None)] * (4 - len(specs))
            slots += [(f, tier, m) for tier, m in specs]
        rng.shuffle(slots)
        for f, tier, m in slots:
            n = long_sizes.next() if tier == "long" else sizes[f, m is not None].next()
            ops.append(check_op(kit, rng, f, n, tier, m))
    return ops


# bijections from mutant kinds to families that admit them, so that every
# family carries exactly one mutant per block
MUTANT_PAIRINGS = [
    dict(zip(MUTANTS, fams))
    for fams in itertools.permutations(CHECK_FAMILIES)
    if all(f in MUTANT_FAMILIES[k] for k, f in zip(MUTANTS, fams))
]


# ---------------------------------------------------------------------------
# Run workload
# ---------------------------------------------------------------------------


def deep_op(kit: Kit, rng: random.Random, n: int) -> Op:
    """One binary session of n interactions. Messages, abstraction passing
    and choices each flow both ways at least once; a received abstraction
    is applied to a literal, which costs one beta step."""
    inters = [("msg", side, rng.choice(("Int", "Bool"))) for side in "AB"]
    inters += [("msg", side, "Abs") for side in "AB"]
    inters += [random_choice(rng, side) for side in "AB"]
    while len(inters) < n:
        inters.append(random_msg(rng) if rng.random() < 2 / 3 else random_choice(rng))
    rng.shuffle(inters)
    t, _, a, b = binary_protocol(kit, rng, inters)
    betas = sum(1 for it in inters if it[0] == "msg" and it[2] == "Abs")
    return Op("run", "deep", n, {"process": closed(kit, t, a, b)}, {"steps": n + betas})


def wide_op(kit: Kit, rng: random.Random, n: int) -> Op:
    """A relay: a source, n forwarding stages and a sink, one channel per
    hop. The value is an Int or a linear abstraction the sink applies."""
    ty, tm = kit.ty, kit.tm
    is_abs = rng.random() < 0.5
    u = kit.ABS if is_abs else kit.INT
    value = kit.abs_value() if is_abs else tm.Lit(rng.randrange(100))
    chans = [kit.sname(f"c{i}") for i in range(n + 1)]
    x = tm.Var("x")
    sink_tail = tm.App(x, (tm.Lit(rng.randrange(100)),)) if is_abs else tm.Inact()
    comps = [tm.Output(chans[0], (value,), tm.Inact()), tm.Input(chans[n].dualized(), (x,), sink_tail)]
    comps += [
        tm.Input(chans[i - 1].dualized(), (x,), tm.Output(chans[i], (x,), tm.Inact()))
        for i in range(1, n + 1)
    ]
    rng.shuffle(comps)
    p = tm.parallel(comps)
    annot = ty.SOut((u,), kit.END)
    for c in reversed(chans):
        p = tm.Res(c, annot, p)
    return Op("run", "wide", n, {"process": p}, {"steps": n + 1 + is_abs})


def run_pool(lib: Lib, rng: random.Random, pairs: int) -> list[Op]:
    """Pairs of one deep and one wide protocol, in seeded order."""
    kit = Kit(lib)
    deep_sizes = SizeStream(*RUN_SIZES)
    wide_sizes = SizeStream(*RUN_SIZES)
    ops = []
    for _ in range(pairs):
        pair = [deep_op(kit, rng, deep_sizes.next()), wide_op(kit, rng, wide_sizes.next())]
        rng.shuffle(pair)
        ops += pair
    return ops


# ---------------------------------------------------------------------------
# Explore workload
# ---------------------------------------------------------------------------
#
# One request/response session: the client optionally selects "go" among
# two labels, sends an Int or a lin(Int) abstraction, and receives an Int
# reply; a server that received an abstraction applies it after replying.
# Its state graph is a chain of 3 + abs + choice states.


@dataclass(frozen=True)
class Rpc:
    is_abs: bool
    choice: bool
    request: int
    reply: int
    apply_to: int

    @property
    def states(self) -> int:
        return 3 + self.is_abs + self.choice


def rpc_process(kit: Kit, rpc: Rpc, chan: str):
    ty, tm = kit.ty, kit.tm
    s = kit.sname(chan)
    x, y = tm.Var("x"), tm.Var("y")
    u = kit.ABS if rpc.is_abs else kit.INT
    value = kit.abs_value() if rpc.is_abs else tm.Lit(rpc.request)
    tail = tm.App(x, (tm.Lit(rpc.apply_to),)) if rpc.is_abs else tm.Inact()
    t = ty.SOut((u,), ty.SIn((kit.INT,), kit.END))
    client = tm.Output(s, (value,), tm.Input(s, (y,), tm.Inact()))
    server = tm.Input(s.dualized(), (x,), tm.Output(s.dualized(), (tm.Lit(rpc.reply),), tail))
    if rpc.choice:
        t = ty.SSel((("go", t), ("stop", kit.END)))
        client = tm.Select(s, "go", client)
        server = tm.Branch(s.dualized(), (("go", server), ("stop", tm.Inact())))
    return tm.Res(s, t, tm.Par(client, server))


def explore_counts(rpcs: list[Rpc], same: bool) -> dict:
    """States, edges and terminals of k independent chain-shaped sessions.

    Distinct sessions give the product of their chains. Identical copies
    give multisets of chain positions, since a state does not record
    which copy is where. Every non-final position enables one step.
    """
    if same:
        n, k = rpcs[0].states, len(rpcs)
        states = comb(n + k - 1, k)
        edges = sum(
            sum(1 for q in combo if q != n - 1)
            for combo in itertools.combinations_with_replacement(range(n), k)
        )
    else:
        sizes = [r.states for r in rpcs]
        states = math.prod(sizes)
        edges = sum((sizes[i] - 1) * math.prod(sizes[:i] + sizes[i + 1:]) for i in range(len(sizes)))
    return {"states": states, "edges": edges, "terminals": 1}


def explore_op(kit: Kit, rng: random.Random, family: str, k: int, n_abs: int, n_choice: int) -> Op:
    lits = rng.sample(range(1000), 3 * k)
    slots = list(range(k))
    abs_at = set(rng.sample(slots, n_abs))
    choice_at = set(rng.sample(slots, n_choice))
    if family == "rpc-same":
        one = Rpc(bool(n_abs), bool(n_choice), *lits[:3])
        rpcs = [one] * k
    else:
        rpcs = [Rpc(j in abs_at, j in choice_at, *lits[3 * j:3 * j + 3]) for j in range(k)]
    names = rng.sample(range(100), k)
    p = kit.tm.parallel([rpc_process(kit, r, f"s{c}") for r, c in zip(rpcs, names)])
    ref = explore_counts(rpcs, family == "rpc-same")
    return Op("explore", family, ref["states"], {"process": p}, ref)


def explore_pool(lib: Lib, rng: random.Random, blocks: int) -> list[Op]:
    """Blocks of 24, alike in cost: at each k, identical copies of each of
    the four session shapes, and distinct sessions carrying abstractions in
    half of them (rounded down and up) with one choice or none."""
    kit = Kit(lib)
    ops = []
    for _ in range(blocks):
        block = []
        for k, v, choice in itertools.product(EXPLORE_KS, (0, 1), (0, 1)):
            block.append(explore_op(kit, rng, "rpc-same", k, v, choice))
            block.append(explore_op(kit, rng, "rpc-mixed", k, (k + v) // 2, choice))
        rng.shuffle(block)
        ops += block
    return ops


POOLS = {
    "check": (check_pool, 5),
    "run": (run_pool, 32),
    "explore": (explore_pool, 2),
}


def build_pool(lib: Lib, workload: str, seed: int) -> list[Op]:
    """The workload's operations for one seed, in schedule order."""
    make, count = POOLS[workload]
    return make(lib, random.Random(f"{workload}:{seed}"), count)
