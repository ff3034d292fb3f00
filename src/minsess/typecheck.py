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
    Var,
)
from .types import (
    SEnd,
    SIn,
    SOut,
    SBra,
    SRec,
    SSel,
    TArrow,
    TBase,
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
    def __init__(self, path: Path, rule: str, message: str) -> None:
        super().__init__(f"[{rule}] {message}")
        self.path = path
        self.rule = rule
        self.message = message


def _is_end(t) -> bool:
    return isinstance(t, SEnd)


def _compat(actual, expected) -> bool:
    """Type fit for a value against an expected type: equality up to
    unfolding, or a shared arrow where a linear one is expected."""
    if equal_types(actual, expected):
        return True
    if (
        isinstance(actual, TArrow)
        and isinstance(expected, TArrow)
        and actual.shared
        and not expected.shared
        and len(actual.params) == len(expected.params)
    ):
        return all(equal_types(a, b) for a, b in zip(actual.params, expected.params))
    return False


class _Checker:
    def __init__(self, gamma: dict) -> None:
        self.gamma = dict(gamma)
        self.types_seen: list = []

    def see(self, path: Path, t) -> None:
        self.types_seen.append((path, t))

    # -- gamma scoping -----------------------------------------------------

    def _gamma_add(self, key, t):
        prev = self.gamma.get(key, _MISSING)
        self.gamma[key] = t
        return prev

    def _gamma_restore(self, key, prev) -> None:
        if prev is _MISSING:
            self.gamma.pop(key, None)
        else:
            self.gamma[key] = prev

    # -- subjects ----------------------------------------------------------

    def _subject(self, u, lam: dict, delta: dict, path: Path):
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

    # -- processes ----------------------------------------------------------

    def proc(self, p, lam: dict, delta: dict, path: Path):
        """Returns (leftover lam, leftover delta, touched delta keys)."""
        if isinstance(p, Inact):
            return dict(lam), dict(delta), frozenset()

        if isinstance(p, Output):
            return self._output(p, lam, delta, path)

        if isinstance(p, Input):
            return self._input(p, lam, delta, path)

        if isinstance(p, Select):
            kind, t = self._subject(p.subject, lam, delta, path)
            if kind != "session":
                raise CheckError(path, "Sel", f"selection needs a session subject, got {p.subject}")
            t = unfold_top(t) if isinstance(t, SRec) else t
            if not isinstance(t, SSel):
                raise CheckError(
                    path, "Sel",
                    f"{p.subject} : {ty.format_type(t)} does not offer internal choice",
                )
            conts = dict(t.branches)
            if p.label not in conts:
                raise CheckError(path, "Sel", f"label {p.label} not in {list(conts)}")
            d2 = dict(delta)
            d2[p.subject] = conts[p.label]
            lam2, d3, touched = self.proc(p.cont, lam, d2, path + ("cont",))
            return lam2, d3, touched | {p.subject}

        if isinstance(p, Branch):
            return self._branch(p, lam, delta, path)

        if isinstance(p, App):
            return self._app(p, lam, delta, path)

        if isinstance(p, Par):
            lam1, d1, t1 = self.proc(p.left, lam, delta, path + ("left",))
            self._require_finished(d1, t1, path + ("left",))
            lam2, d2, t2 = self.proc(p.right, lam1, d1, path + ("right",))
            self._require_finished(d2, t2, path + ("right",))
            return lam2, d2, t1 | t2

        if isinstance(p, Res):
            return self._res(p, lam, delta, path)

        raise CheckError(path, "Proc", f"unknown process node {p!r}")

    def _output(self, p: Output, lam: dict, delta: dict, path: Path):
        for v in p.payload:
            if isinstance(v, Name):
                raise CheckError(
                    path, "Send", "first-order payload; run the encoding front end first"
                )
        kind, t = self._subject(p.subject, lam, delta, path)
        if kind == "session":
            t = unfold_top(t) if isinstance(t, SRec) else t
            if not isinstance(t, SOut):
                raise CheckError(
                    path, "Send",
                    f"{p.subject} : {ty.format_type(t)} cannot send here",
                )
            if len(t.payload) != len(p.payload):
                raise CheckError(
                    path, "Send",
                    f"arity {len(p.payload)} against payload type tuple {len(t.payload)}",
                )
            touched = {p.subject}
            for i, (v, u) in enumerate(zip(p.payload, t.payload)):
                self.see(path + ("payload", i), u)
                lam, delta, tch = self._value_against(v, u, lam, delta, path + ("payload", i))
                touched |= tch
            d2 = dict(delta)
            d2[p.subject] = t.cont
            lam2, d3, tch = self.proc(p.cont, lam, d2, path + ("cont",))
            return lam2, d3, touched | tch
        # shared: one payload, channel type unchanged
        if len(p.payload) != 1:
            raise CheckError(path, "Req", "shared outputs carry exactly one value")
        u = t.payload
        self.see(path + ("payload", 0), u)
        lam, delta, touched = self._value_against(p.payload[0], u, lam, delta, path + ("payload", 0))
        lam2, d2, tch = self.proc(p.cont, lam, delta, path + ("cont",))
        return lam2, d2, touched | tch

    def _bind_value_var(self, x: Var, u, lam: dict, path: Path):
        """Bind an input binder according to its payload type; returns a
        restore token."""
        if isinstance(u, TArrow) and not u.shared:
            prev = lam.get(x, _MISSING)
            lam[x] = u
            return ("lam", x, prev)
        prev = self._gamma_add(x, u)
        return ("gamma", x, prev)

    def _release_binder(self, token, lam: dict, path: Path, rule: str) -> None:
        where, x, prev = token
        if where == "lam":
            if x in lam:
                raise CheckError(path, rule, f"linear value {x} not consumed")
            if prev is not _MISSING:
                lam[x] = prev
        else:
            self._gamma_restore(x, prev)

    def _input(self, p: Input, lam: dict, delta: dict, path: Path):
        kind, t = self._subject(p.subject, lam, delta, path)
        if kind == "session":
            t = unfold_top(t) if isinstance(t, SRec) else t
            if not isinstance(t, SIn):
                raise CheckError(
                    path, "Rcv",
                    f"{p.subject} : {ty.format_type(t)} cannot receive here",
                )
            if len(t.payload) != len(p.binders):
                raise CheckError(
                    path, "Rcv",
                    f"{len(p.binders)} binders against payload type tuple {len(t.payload)}",
                )
            lam2 = dict(lam)
            tokens = []
            for x, u in zip(p.binders, t.payload):
                self.see(path + ("binder",), u)
                tokens.append(self._bind_value_var(x, u, lam2, path))
            d2 = dict(delta)
            d2[p.subject] = t.cont
            lam3, d3, touched = self.proc(p.cont, lam2, d2, path + ("cont",))
            for token in reversed(tokens):
                self._release_binder(token, lam3, path, "Rcv")
            return lam3, d3, touched | {p.subject}
        # shared input: one binder, channel type unchanged
        if len(p.binders) != 1:
            raise CheckError(path, "Acc", "shared inputs bind exactly one value")
        u = t.payload
        self.see(path + ("binder",), u)
        lam2 = dict(lam)
        token = self._bind_value_var(p.binders[0], u, lam2, path)
        lam3, d2, touched = self.proc(p.cont, lam2, delta, path + ("cont",))
        self._release_binder(token, lam3, path, "Acc")
        return lam3, d2, touched

    def _branch(self, p: Branch, lam: dict, delta: dict, path: Path):
        kind, t = self._subject(p.subject, lam, delta, path)
        if kind != "session":
            raise CheckError(path, "Bra", f"branching needs a session subject, got {p.subject}")
        t = unfold_top(t) if isinstance(t, SRec) else t
        if not isinstance(t, SBra):
            raise CheckError(
                path, "Bra",
                f"{p.subject} : {ty.format_type(t)} does not offer external choice",
            )
        offered = dict(t.branches)
        have = [l for l, _ in p.branches]
        if set(have) != set(offered):
            raise CheckError(
                path, "Bra", f"labels {have} against type labels {sorted(offered)}"
            )
        results = []
        for label, q in p.branches:
            d2 = dict(delta)
            d2[p.subject] = offered[label]
            results.append(
                (label, self.proc(q, dict(lam), d2, path + ("branch", label)))
            )
        base_label, (lam0, d0, t0) = results[0]
        for label, (lam1, d1, t1) in results[1:]:
            if set(lam0) != set(lam1) or set(d0) != set(d1):
                raise CheckError(
                    path, "Bra",
                    f"branches {base_label} and {label} consume different resources",
                )
            for k in d0:
                if not equal_types(d0[k], d1[k]):
                    raise CheckError(
                        path, "Bra",
                        f"branches {base_label} and {label} leave {k} at different types",
                    )
            t0 = t0 | t1
        return lam0, d0, t0 | {p.subject}

    def _app(self, p: App, lam: dict, delta: dict, path: Path):
        ftype, lam, delta, touched = self.value(p.fun, lam, delta, path + ("fun",))
        if not isinstance(ftype, TArrow):
            raise CheckError(
                path, "App", f"cannot apply a value of type {ty.format_type(ftype)}"
            )
        self.see(path + ("fun",), ftype)
        if len(p.args) != len(ftype.params):
            raise CheckError(
                path, "App",
                f"{len(p.args)} arguments against {len(ftype.params)} parameters",
            )
        lam2, d2 = dict(lam), dict(delta)
        for i, (a, c) in enumerate(zip(p.args, ftype.params)):
            here = path + ("arg", i)
            if isinstance(a, Lit):
                if not (isinstance(c, TBase) and equal_types(a.btype, c)):
                    raise CheckError(
                        here, "App",
                        f"literal {a.value!r} against parameter {ty.format_type(c)}",
                    )
                continue
            if a in d2:
                if not is_session(c):
                    raise CheckError(
                        here, "App",
                        f"session channel {a} against parameter {ty.format_type(c)}",
                    )
                if not equal_types(d2[a], c):
                    raise CheckError(
                        here, "App",
                        f"{a} : {ty.format_type(d2[a])} against parameter {ty.format_type(c)}",
                    )
                # the abstraction takes over the whole endpoint
                del d2[a]
                touched = touched | {a}
                continue
            got = self.gamma.get(a)
            if got is None:
                raise CheckError(here, "App", f"unknown argument {a}")
            if not equal_types(got, c):
                raise CheckError(
                    here, "App",
                    f"{a} : {ty.format_type(got)} against parameter {ty.format_type(c)}",
                )
        return lam2, d2, touched

    def _res(self, p: Res, lam: dict, delta: dict, path: Path):
        self.see(path + ("annot",), p.annot)
        body_path = path + ("body",)
        if is_session(p.annot):
            s, sd = p.binder, p.binder.dualized()
            d2 = dict(delta)
            saved = [(k, d2.get(k, _MISSING)) for k in (s, sd)]
            d2[s] = p.annot
            d2[sd] = ty.dual(p.annot)
            lam2, d3, touched = self.proc(p.body, lam, d2, body_path)
            for k in (s, sd):
                t = d3.pop(k, _MISSING)
                if t is _MISSING:
                    continue
                if not _is_end(t):
                    raise CheckError(
                        body_path, "Res",
                        f"restricted endpoint {k} left at {ty.format_type(t)}",
                    )
            for k, prev in saved:
                if prev is not _MISSING:
                    d3[k] = prev
            return lam2, d3, touched - {s, sd}
        # shared restriction
        prev = self._gamma_add(p.binder, p.annot)
        lam2, d2, touched = self.proc(p.body, lam, delta, body_path)
        self._gamma_restore(p.binder, prev)
        return lam2, d2, touched

    def _require_finished(self, delta: dict, touched: frozenset, path: Path) -> None:
        for k in touched:
            if k in delta and not _is_end(delta[k]):
                raise CheckError(
                    path, "Par",
                    f"{k} touched here but left at {ty.format_type(delta[k])}",
                )

    # -- values --------------------------------------------------------------

    def value(self, v, lam: dict, delta: dict, path: Path):
        """Returns (type, leftover lam, leftover delta, touched)."""
        if isinstance(v, Lit):
            return v.btype, dict(lam), dict(delta), frozenset()
        if isinstance(v, Var):
            if v in lam:
                lam2 = dict(lam)
                t = lam2.pop(v)
                return t, lam2, dict(delta), frozenset()
            got = self.gamma.get(v)
            if got is not None:
                if isinstance(got, TChan):
                    raise CheckError(path, "Var", f"channel {v} used as a value")
                return got, dict(lam), dict(delta), frozenset()
            if v in delta:
                raise CheckError(path, "Var", f"session channel {v} used as a value")
            raise CheckError(path, "Var", f"unknown variable {v}")
        if isinstance(v, Abs):
            return self._abs(v, lam, delta, path)
        if isinstance(v, Name):
            raise CheckError(path, "Val", f"names are not values: {v}")
        raise CheckError(path, "Val", f"unknown value node {v!r}")

    def _abs(self, v: Abs, lam: dict, delta: dict, path: Path):
        for _, c in v.params:
            self.see(path + ("param",), c)
        arrow = TArrow(tuple(c for _, c in v.params), v.shared)
        body_path = path + ("abs-body",)

        if v.shared:
            # promoted: the body sees no linear context at all
            d_body: dict = {}
            tokens = []
            for x, c in v.params:
                if is_session(c):
                    d_body[x] = c
                else:
                    tokens.append(self._gamma_add(x, c))
            lam_b, d_b, _ = self.proc(v.body, {}, d_body, body_path)
            for (x, c), tok in zip(
                [(x, c) for x, c in v.params if not is_session(c)], tokens
            ):
                self._gamma_restore(x, tok)
            if lam_b:
                raise CheckError(body_path, "Prom", "shared abstraction kept linear leftovers")
            for x, c in v.params:
                if is_session(c):
                    t = d_b.get(x)
                    if t is None or not _is_end(t):
                        raise CheckError(
                            body_path, "Prom",
                            f"parameter {x} not driven to end "
                            f"({'missing' if t is None else ty.format_type(t)})",
                        )
            return arrow, dict(lam), dict(delta), frozenset()

        # linear abstraction: may capture anything in scope
        d2 = dict(delta)
        saved = []
        for x, c in v.params:
            if is_session(c):
                saved.append((x, d2.get(x, _MISSING)))
                d2[x] = c
        tokens = []
        for x, c in v.params:
            if not is_session(c):
                tokens.append((x, self._gamma_add(x, c)))
        lam_b, d_b, touched = self.proc(v.body, lam, d2, body_path)
        for x, tok in tokens:
            self._gamma_restore(x, tok)
        for x, c in v.params:
            if is_session(c):
                t = d_b.pop(x, _MISSING)
                if t is _MISSING or not _is_end(t):
                    raise CheckError(
                        body_path, "Abs",
                        f"parameter {x} not driven to end "
                        f"({'missing' if t is _MISSING else ty.format_type(t)})",
                    )
        for x, prev in saved:
            if prev is not _MISSING:
                d_b[x] = prev
        # endpoints the body touched are captured: they must be finished,
        # and they belong to the closure, not to the surrounding process
        param_vars = {x for x, _ in v.params}
        captured = {k for k in touched - param_vars if k in d_b}
        for k in captured:
            if not _is_end(d_b[k]):
                raise CheckError(
                    body_path, "Abs",
                    f"captured endpoint {k} left at {ty.format_type(d_b[k])}",
                )
            del d_b[k]
        return arrow, lam_b, d_b, frozenset(touched - param_vars)

    def _value_against(self, v, expected, lam: dict, delta: dict, path: Path):
        got, lam2, d2, touched = self.value(v, lam, delta, path)
        if not _compat(got, expected):
            raise CheckError(
                path, "Val",
                f"value of type {ty.format_type(got)} where "
                f"{ty.format_type(expected)} is required",
            )
        return lam2, d2, touched


_MISSING = object()


def _result(
    checker: _Checker, lam: dict, delta: dict, diagnostics: list[Diagnostic]
) -> CheckResult:
    leftover = TypeEnvs(
        gamma={},
        lam=dict(lam),
        delta={k: t for k, t in delta.items() if not _is_end(t)},
    )
    ok = not diagnostics
    return CheckResult(ok, leftover, diagnostics, checker.types_seen)


def check_process(
    envs: Optional[TypeEnvs],
    p,
    require_consumed: bool = True,
) -> CheckResult:
    """Typecheck a process; verdict ok iff a derivation exists (and, when
    required, nothing linear is left unconsumed)."""
    envs = envs or TypeEnvs()
    ck = _Checker(envs.gamma)
    for t in list(envs.gamma.values()) + list(envs.lam.values()) + list(envs.delta.values()):
        ck.see(("env",), t)
    try:
        lam, delta, touched = ck.proc(p, dict(envs.lam), dict(envs.delta), ())
        ck._require_finished(delta, touched, ())
    except CheckError as e:
        return _result(ck, envs.lam, envs.delta, [Diagnostic(e.path, e.rule, e.message)])
    diagnostics: list[Diagnostic] = []
    if require_consumed:
        if lam:
            diagnostics.append(
                Diagnostic((), "leftover", f"unconsumed linear values: {sorted(map(str, lam))}")
            )
        bad = {k: t for k, t in delta.items() if not _is_end(t)}
        if bad:
            msgs = ", ".join(f"{k} : {ty.format_type(t)}" for k, t in bad.items())
            diagnostics.append(Diagnostic((), "leftover", f"unfinished sessions: {msgs}"))
    return _result(ck, lam, delta, diagnostics)


def check_value(envs: Optional[TypeEnvs], v):
    """Type a value; returns (type or None, CheckResult)."""
    envs = envs or TypeEnvs()
    ck = _Checker(envs.gamma)
    try:
        vtype, lam, delta, _ = ck.value(v, dict(envs.lam), dict(envs.delta), ())
    except CheckError as e:
        return None, _result(ck, envs.lam, envs.delta, [Diagnostic(e.path, e.rule, e.message)])
    return vtype, _result(ck, lam, delta, [])


def check_minimal_typed(p, envs: Optional[TypeEnvs] = None) -> CheckResult:
    """check_process, plus: every type the derivation mentions is minimal."""
    result = check_process(envs, p)
    if not result.ok:
        return result
    for path, t in result.types_seen:
        if not is_minimal(t):
            result.ok = False
            result.diagnostics.append(
                Diagnostic(path, "minimal", f"non-minimal type {ty.format_type(t)}")
            )
            return result
    return result
