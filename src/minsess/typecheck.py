"""Algorithmic typechecking over shared/linear/session environments.

The declarative rules split linear environments nondeterministically;
here splitting is resolved by leftover threading: a subterm receives the
whole linear environment and returns what it did not consume. Soundness
of the threading needs one extra discipline: a session entry *touched*
by one thread must be driven all the way to `end` by that thread, so a
sibling can never continue a partially-used endpoint.

Environment conventions:
  gamma  shared: channel-typed names, shared abstractions, base values;
         admits weakening and contraction
  lam    linear abstractions; consumed exactly once
  delta  session-typed names and variables; consumed down to end

Shared outputs type their payload with the full linear context threaded
through (the restrictive reading with an empty linear payload context
rejects machine-generated servers whose payloads close over linear
state, and is not what the system's own metatheory uses).

Each rule is a plain `terms.trampoline` step: it returns the touched keys,
or a `terms.Tail` whose step is a sub-derivation and whose `then` finishes
the rule with the sub-derivation's result as its last argument, so depth
costs heap, not Python stack. Only that small function waits on the stack
with its arguments: `_touch`, `_joined`, `_sent`, `_received`,
`_abstracted` and the module-level `_closed` for every restriction after a
rule's last sub-derivation; `_left`, `_arms` and `_applied` after a `Par`'s
left thread, each `Branch` arm (the arms run in order) and an `App`'s
function; `_sent` after an abstraction payload. Rules update `lam`
and `delta` in place into the leftovers; only `Branch` arms and promoted
abstractions work on copies. Every binder, an input's values, a
restriction's endpoints (session or shared) and an abstraction's
parameters, enters its environment through `_bind`, whose token `_unbind`
hands back when the scope ends, with the value the binder left
(`_MISSING` if it was consumed). Touched keys travel up as sets; a `Par`'s
left keys wait as a tuple. A path is a linked tuple `(parent, *steps)`
ending in `()`, flattened only into `Diagnostic.path`. What a check asks
of one type or binder object more than once, its dual or its recursive
head unfolded, `_Checker.known` answers once per call.
`types_seen` lists the types alone; `check_minimal_typed` tests each as
it is seen and keeps the path of the first non-minimal one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import types as ty
from .terms import (
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
    Tail,
    Var,
    trampoline,
)
from .types import (
    SEnd,
    SIn,
    SOut,
    SBra,
    SRec,
    SSel,
    TArrow,
    TChan,
    equal_types,
    is_minimal,
    is_session,
    unfold_top,
)

Path = tuple


@dataclass
class TypeEnvs:
    gamma: dict = field(default_factory=dict)
    lam: dict = field(default_factory=dict)
    delta: dict = field(default_factory=dict)


@dataclass
class Diagnostic:
    path: Path
    rule: str
    message: str

    def __str__(self) -> str:
        loc = "/".join(str(p) for p in self.path) or "top"
        return f"[{self.rule}] at {loc}: {self.message}"


@dataclass
class CheckResult:
    ok: bool
    leftover: TypeEnvs
    diagnostics: list[Diagnostic]
    types_seen: list = field(default_factory=list)

    def first_error(self) -> Optional[str]:
        return str(self.diagnostics[0]) if self.diagnostics else None


class CheckError(Exception):
    """A type error, raised as the `Diagnostic` it reports."""

    def __init__(self, path, rule: str, message: str) -> None:
        super().__init__(f"[{rule}] {message}")
        self.diagnostic = Diagnostic(_steps(path), rule, message)


def _touch(key, touched: set) -> set:
    touched.add(key)
    return touched


def _steps(path) -> Path:
    """A linked path, `(parent, *steps)` ending in `()`, as the tuple of its
    steps from the root."""
    steps: list = []
    while path:
        steps += reversed(path[1:])
        path = path[0]
    return tuple(reversed(steps))


def _compat(actual, expected) -> bool:
    """Type fit for a value against an expected type: equality up to
    unfolding, where a shared arrow also fits as its linear form. The same
    object fits at once, and so does an arrow over the very parameter
    types expected, as an abstraction's type is built from its annotations."""
    if actual is expected:
        return True
    if actual.__class__ is TArrow and expected.__class__ is TArrow:
        if actual.shared or not expected.shared:
            a, e = actual.params, expected.params
            if len(a) == len(e) and all(x is y for x, y in zip(a, e)):
                return True
        if actual.shared and not expected.shared:
            actual = TArrow(actual.params, False)
    return equal_types(actual, expected)


class _Checker:
    """Process rules leave the leftovers in `lam` and `delta` and return
    the touched session keys; `value` returns a value's type. A
    value leaves no touched key: a linear abstraction captures them all."""

    def __init__(self, gamma: dict, minimal: bool = False) -> None:
        self.gamma = dict(gamma)
        # (query, id of an object) -> (the object, the answer), for the
        # call: the entry keeps the object, so its id is not reused
        self.memo: dict = {}
        self.seen: list = []
        # with minimal set: the path and type of the first non-minimal type seen
        self.minimal, self.non_minimal = minimal, None

    def known(self, query, x):
        """query(x), once per object and call: an encoded protocol restricts
        one binder at one carrier type again and again, and a loop meets its
        recursive type again at each round."""
        key = (query, id(x))
        got = self.memo.get(key)
        if got is None:
            got = self.memo[key] = (x, query(x))
        return got[1]

    def see(self, path, t) -> None:
        self.seen.append(t)
        if self.minimal and self.non_minimal is None and not is_minimal(t):
            self.non_minimal = (path, t)

    # -- subjects ----------------------------------------------------------

    def _subject(self, u, lam: dict, delta: dict, path):
        if u in delta:
            return "session", delta[u]
        got = self.gamma.get(u)
        if isinstance(got, TChan):
            return "shared", got
        if u in lam:
            raise CheckError(path, "Subj", f"{u} is a linear value, not a channel")
        if got is not None:
            raise CheckError(path, "Subj", f"{u} : {ty.format_type(got)} cannot be a subject")
        raise CheckError(path, "Subj", f"unknown channel {u}")

    def _head(self, u, t, cls, path, rule: str, what: str):
        """t unfolded to its head, which must be a cls."""
        if t.__class__ is SRec:
            t = self.known(unfold_top, t)
        if not isinstance(t, cls):
            raise CheckError(path, rule, f"{u} : {ty.format_type(t)} {what}")
        return t

    # -- processes ----------------------------------------------------------

    def proc(self, p, lam: dict, delta: dict, path) -> tuple:
        """The derivation of p as a trampoline step: it leaves the leftovers
        in lam and delta and returns the touched session keys."""
        rule = _RULES.get(p.__class__)
        if rule is None:
            raise CheckError(path, "Proc", f"unknown process node {p.__class__.__name__}")
        return (rule, self, p, lam, delta, path)

    def _inact(self, p: Inact, lam: dict, delta: dict, path):
        return set()

    def _select(self, p: Select, lam: dict, delta: dict, path):
        kind, t = self._subject(p.subject, lam, delta, path)
        if kind != "session":
            raise CheckError(path, "Sel", f"selection needs a session subject, got {p.subject}")
        t = self._head(p.subject, t, SSel, path, "Sel", "does not offer internal choice")
        conts = dict(t.branches)
        if p.label not in conts:
            raise CheckError(path, "Sel", f"label {p.label} not in {list(conts)}")
        delta[p.subject] = conts[p.label]
        return Tail(self.proc(p.cont, lam, delta, (path, "cont")), _touch, p.subject)

    def _par(self, p: Par, lam: dict, delta: dict, path):
        left = (path, "left")
        return Tail(self.proc(p.left, lam, delta, left), _Checker._left, self, p, lam, delta, path, left)

    def _left(self, p: Par, lam: dict, delta: dict, path, left, t1: set):
        """With the left thread done, touching t1: the right thread."""
        self._require_finished(delta, t1, left)
        right = (path, "right")
        # the left keys wait as a tuple while the right thread runs
        return Tail(self.proc(p.right, lam, delta, right), _Checker._joined, self, delta, tuple(t1), right)

    def _joined(self, delta: dict, t1: tuple, right, t2: set) -> set:
        self._require_finished(delta, t2, right)
        t2.update(t1)
        return t2

    def _output(self, p: Output, lam: dict, delta: dict, path):
        for v in p.payload:
            if isinstance(v, Name):
                raise CheckError(
                    path, "Send", "first-order payload; run the encoding front end first"
                )
        kind, t = self._subject(p.subject, lam, delta, path)
        if kind == "session":
            t = self._head(p.subject, t, SOut, path, "Send", "cannot send here")
            if len(t.payload) != len(p.payload):
                raise CheckError(
                    path, "Send",
                    f"arity {len(p.payload)} against payload type tuple {len(t.payload)}",
                )
            expected = t.payload
        elif len(p.payload) != 1:
            raise CheckError(path, "Req", "shared outputs carry exactly one value")
        else:  # shared: one payload, channel type unchanged
            expected = (t.payload,)
        return self._sent(p, lam, delta, path, kind, t, expected, 0, None)

    def _sent(self, p: Output, lam: dict, delta: dict, path, kind, t, expected, i: int, got):
        """With payload value i - 1 typed got: the values from i on, an
        abstraction as a tail, then the continuation."""
        while True:
            if i and not _compat(got, expected[i - 1]):
                raise CheckError(
                    (path, "payload", i - 1), "Val",
                    f"value of type {ty.format_type(got)} where "
                    f"{ty.format_type(expected[i - 1])} is required",
                )
            if i == len(p.payload):
                break
            v, here = p.payload[i], (path, "payload", i)
            self.see(here, expected[i])
            i += 1
            if isinstance(v, Abs):
                args = (self, p, lam, delta, path, kind, t, expected, i)
                return Tail(self.value(v, lam, delta, here), _Checker._sent, *args)
            got = self._atom(v, lam, delta, here)
        cont = self.proc(p.cont, lam, delta, (path, "cont"))
        if kind != "session":
            return Tail(cont)
        delta[p.subject] = t.cont
        return Tail(cont, _touch, p.subject)

    def _input(self, p: Input, lam: dict, delta: dict, path):
        kind, t = self._subject(p.subject, lam, delta, path)
        if kind == "session":
            t = self._head(p.subject, t, SIn, path, "Rcv", "cannot receive here")
            if len(t.payload) != len(p.binders):
                raise CheckError(
                    path, "Rcv",
                    f"{len(p.binders)} binders against payload type tuple {len(t.payload)}",
                )
            expected = t.payload
            delta[p.subject] = t.cont
        elif len(p.binders) != 1:
            raise CheckError(path, "Acc", "shared inputs bind exactly one value")
        else:  # shared: one binder, channel type unchanged
            expected = (t.payload,)
        for u in expected:
            self.see((path, "binder"), u)
        tokens = tuple(
            _bind(lam if isinstance(u, TArrow) and not u.shared else self.gamma, x, u)
            for x, u in zip(p.binders, expected)
        )
        cont = self.proc(p.cont, lam, delta, (path, "cont"))
        return Tail(cont, _Checker._received, self, p.subject, lam, path, kind, tokens)

    def _received(self, subject, lam: dict, path, kind: str, tokens: tuple, touched: set) -> set:
        for token in reversed(tokens):
            if _unbind(token) is not _MISSING and token[0] is lam:
                rule = "Rcv" if kind == "session" else "Acc"
                raise CheckError(path, rule, f"linear value {token[1]} not consumed")
        if kind == "session":
            touched.add(subject)
        return touched

    def _branch(self, p: Branch, lam: dict, delta: dict, path):
        kind, t = self._subject(p.subject, lam, delta, path)
        if kind != "session":
            raise CheckError(path, "Bra", f"branching needs a session subject, got {p.subject}")
        t = self._head(p.subject, t, SBra, path, "Bra", "does not offer external choice")
        offered = dict(t.branches)
        have = [l for l, _ in p.branches]
        if set(have) != set(offered):
            raise CheckError(
                path, "Bra", f"labels {have} against type labels {sorted(offered)}"
            )
        return self._arms(p, lam, delta, path, offered, [], None)

    def _arms(self, p: Branch, lam: dict, delta: dict, path, offered: dict, results: list, t1):
        """The arms from `len(results)` on, in order, t1 being what the one
        before touched, if that one ran as a sub-step; then the arms agree.
        An arm `0` touches nothing and needs no sub-step."""
        if t1 is not None:
            results[-1].append(t1)
        while len(results) < len(p.branches):
            # each arm threads its own copies; the first arm's leftovers stand
            label, q = p.branches[len(results)]
            lam1, d1 = dict(lam), dict(delta)
            d1[p.subject] = offered[label]
            results.append([label, lam1, d1])
            if q.__class__ is not Inact:
                step = self.proc(q, lam1, d1, (path, "branch", label))
                return Tail(step, _Checker._arms, self, p, lam, delta, path, offered, results)
            results[-1].append(set())
        base_label, lam0, d0, t0 = results[0]
        for label, lam1, d1, t1 in results[1:]:
            if set(lam0) != set(lam1) or set(d0) != set(d1):
                raise CheckError(
                    path, "Bra",
                    f"branches {base_label} and {label} consume different resources",
                )
            for k, u in d0.items():
                if u is not d1[k] and not equal_types(u, d1[k]):
                    raise CheckError(
                        path, "Bra",
                        f"branches {base_label} and {label} leave {k} at different types",
                    )
            t0 |= t1
        lam.clear()
        lam.update(lam0)
        delta.clear()
        delta.update(d0)
        t0.add(p.subject)
        return t0

    def _app(self, p: App, lam: dict, delta: dict, path):
        step = (_Checker.value, self, p.fun, lam, delta, (path, "fun"))
        return Tail(step, _Checker._applied, self, p, delta, path)

    def _applied(self, p: App, delta: dict, path, ftype):
        """With the function typed ftype: the arguments against its parameters."""
        here = (path, "fun")
        if not isinstance(ftype, TArrow):
            raise CheckError(
                path, "App", f"cannot apply a value of type {ty.format_type(ftype)}"
            )
        self.see(here, ftype)
        if len(p.args) != len(ftype.params):
            raise CheckError(
                path, "App",
                f"{len(p.args)} arguments against {len(ftype.params)} parameters",
            )
        for i, (a, c) in enumerate(zip(p.args, ftype.params)):
            here = (path, "arg", i)
            # an endpoint passed on is taken over whole by the abstraction:
            # it is gone from delta, and so from what touched can report
            held = delta.pop(a, None)
            got = a.btype if isinstance(a, Lit) else held or self.gamma.get(a)
            if got is None:
                raise CheckError(here, "App", f"unknown argument {a}")
            if not equal_types(got, c):
                what = (f"literal {a.value!r}" if isinstance(a, Lit)
                        else f"session channel {a}" if held and not is_session(c)
                        else f"{a} : {ty.format_type(got)}")
                raise CheckError(here, "App", f"{what} against parameter {ty.format_type(c)}")
        return set()

    def _res(self, p: Res, lam: dict, delta: dict, path):
        self.see((path, "annot"), p.annot)
        body_path = (path, "body")
        if is_session(p.annot):
            dual_end = self.known(Name.dualized, p.binder)
            ends = (_bind(delta, p.binder, p.annot), _bind(delta, dual_end, self.known(ty.dual, p.annot)))
        else:
            ends = (_bind(self.gamma, p.binder, p.annot),)
        return Tail(self.proc(p.body, lam, delta, body_path), _closed, ends, body_path)

    def _require_finished(self, delta: dict, touched: set, path) -> None:
        for k in touched:
            if k in delta and not isinstance(delta[k], SEnd):
                raise CheckError(
                    path, "Par",
                    f"{k} touched here but left at {ty.format_type(delta[k])}",
                )

    # -- values --------------------------------------------------------------

    def _atom(self, v, lam: dict, delta: dict, path):
        """The type of a value other than an abstraction; consumes a linear
        variable from lam."""
        if isinstance(v, Lit):
            return v.btype
        if isinstance(v, Var):
            if v in lam:
                return lam.pop(v)
            got = self.gamma.get(v)
            if got is not None:
                if isinstance(got, TChan):
                    raise CheckError(path, "Var", f"channel {v} used as a value")
                return got
            if v in delta:
                raise CheckError(path, "Var", f"session channel {v} used as a value")
            raise CheckError(path, "Var", f"unknown variable {v}")
        if isinstance(v, Name):
            raise CheckError(path, "Val", f"names are not values: {v}")
        raise CheckError(path, "Val", f"unknown value node {v.__class__.__name__}")

    def value(self, v, lam: dict, delta: dict, path):
        """A value's type, as a trampoline step: an abstraction's body is a
        sub-derivation."""
        if not isinstance(v, Abs):
            return self._atom(v, lam, delta, path)
        for _, c in v.params:
            self.see((path, "param"), c)
        body_path = (path, "abs-body")
        # a promoted body sees no linear context at all; a linear one may
        # capture anything in scope
        lam_b, d_b = ({}, {}) if v.shared else (lam, delta)
        tokens = tuple(_bind(d_b if is_session(c) else self.gamma, x, c) for x, c in v.params)
        body = self.proc(v.body, lam_b, d_b, body_path)
        return Tail(body, _Checker._abstracted, self, v, delta, lam_b, body_path, tokens)

    def _abstracted(self, v: Abs, delta: dict, lam_b: dict, body_path, tokens: tuple,
                    touched: set) -> TArrow:
        rule = "Prom" if v.shared else "Abs"
        if v.shared and lam_b:
            raise CheckError(body_path, rule, "shared abstraction kept linear leftovers")
        for token in tokens:
            t = _unbind(token)
            if token[0] is not self.gamma and (t is _MISSING or not isinstance(t, SEnd)):
                raise CheckError(
                    body_path, rule,
                    f"parameter {token[1]} not driven to end "
                    f"({'missing' if t is _MISSING else ty.format_type(t)})",
                )
        if v.shared:
            return TArrow(tuple(c for _, c in v.params), True)
        # endpoints the body touched are captured: they must be finished,
        # and they belong to the closure, not to the surrounding process,
        # which is left with no touched endpoint in delta
        param_vars = {x for x, _ in v.params}
        captured = {k for k in touched - param_vars if k in delta}
        for k in captured:
            if not isinstance(delta[k], SEnd):
                raise CheckError(
                    body_path, rule,
                    f"captured endpoint {k} left at {ty.format_type(delta[k])}",
                )
            del delta[k]
        return TArrow(tuple(c for _, c in v.params), False)


_MISSING = object()


def _bind(env: dict, key, t) -> tuple:
    """Bind key to t in env for a scope; the token restores what key had."""
    token = (env, key, env.get(key, _MISSING))
    env[key] = t
    return token


def _unbind(token: tuple):
    """End the scope of a binding: the value key has left (`_MISSING` if
    it was consumed), and key restored to what it had."""
    env, key, prev = token
    left = env.pop(key, _MISSING)
    if prev is not _MISSING:
        env[key] = prev
    return left


def _closed(ends: tuple, body_path, touched: set) -> set:
    """Finish a restriction: each endpoint leaves scope, at `end` if it is
    a session endpoint the body did not hand on."""
    for token in ends:
        t = _unbind(token)
        if t is not _MISSING and is_session(t) and not isinstance(t, SEnd):
            raise CheckError(
                body_path, "Res",
                f"restricted endpoint {token[1]} left at {ty.format_type(t)}",
            )
        touched.discard(token[1])
    return touched
_RULES = {Inact: _Checker._inact, Output: _Checker._output, Input: _Checker._input,
          Select: _Checker._select, Branch: _Checker._branch, App: _Checker._app,
          Par: _Checker._par, Res: _Checker._res}


def _result(
    checker: _Checker, lam: dict, delta: dict, diagnostics: list[Diagnostic]
) -> CheckResult:
    leftover = TypeEnvs(
        gamma={},
        lam=dict(lam),
        delta={k: t for k, t in delta.items() if not isinstance(t, SEnd)},
    )
    ok = not diagnostics
    return CheckResult(ok, leftover, diagnostics, checker.seen)


def check_process(envs: Optional[TypeEnvs], p) -> CheckResult:
    """Typecheck a process; verdict ok iff a derivation exists and nothing
    linear is left unconsumed."""
    envs = envs or TypeEnvs()
    return _derive(_Checker(envs.gamma), envs, p)


def _derive(ck: _Checker, envs: TypeEnvs, p) -> CheckResult:
    for t in list(envs.gamma.values()) + list(envs.lam.values()) + list(envs.delta.values()):
        ck.see(((), "env"), t)
    lam, delta = dict(envs.lam), dict(envs.delta)
    try:
        touched = trampoline(ck.proc(p, lam, delta, ()))
        ck._require_finished(delta, touched, ())
    except CheckError as e:
        return _result(ck, envs.lam, envs.delta, [e.diagnostic])
    diagnostics: list[Diagnostic] = []
    if lam:
        diagnostics.append(
            Diagnostic((), "leftover", f"unconsumed linear values: {sorted(map(str, lam))}")
        )
    bad = {k: t for k, t in delta.items() if not isinstance(t, SEnd)}
    if bad:
        msgs = ", ".join(f"{k} : {ty.format_type(t)}" for k, t in bad.items())
        diagnostics.append(Diagnostic((), "leftover", f"unfinished sessions: {msgs}"))
    return _result(ck, lam, delta, diagnostics)


def check_value(envs: Optional[TypeEnvs], v):
    """Type a value; returns (type or None, CheckResult)."""
    envs = envs or TypeEnvs()
    ck = _Checker(envs.gamma)
    lam, delta = dict(envs.lam), dict(envs.delta)
    try:
        vtype = trampoline((_Checker.value, ck, v, lam, delta, ()))
    except CheckError as e:
        return None, _result(ck, envs.lam, envs.delta, [e.diagnostic])
    return vtype, _result(ck, lam, delta, [])


def check_minimal_typed(p, envs: Optional[TypeEnvs] = None) -> CheckResult:
    """check_process, plus: every type the derivation mentions is minimal."""
    envs = envs or TypeEnvs()
    ck = _Checker(envs.gamma, minimal=True)
    result = _derive(ck, envs, p)
    if result.ok and ck.non_minimal is not None:
        path, t = ck.non_minimal
        result.ok = False
        result.diagnostics.append(
            Diagnostic(_steps(path), "minimal", f"non-minimal type {ty.format_type(t)}")
        )
    return result
