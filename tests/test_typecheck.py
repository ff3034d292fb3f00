"""Typechecker behavior: leftover threading, strict linearity, promotion,
choice, application, recursion unfolding, and the minimality sweep."""

import pytest

from minsess.terms import (
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
    encode_namepass,
    encode_nptype,
)
from minsess.types import (
    BOOL,
    INT,
    SEnd,
    SIn,
    SOut,
    SBra,
    SRec,
    SSel,
    SVar,
    TArrow,
    TChan,
    dual,
)
from minsess.typecheck import (
    TypeEnvs,
    check_minimal_typed,
    check_process,
    check_value,
)

END = SEnd()
UNIT_ARROW = TArrow((END,), shared=True)


def sname(base, index=None, dual_=False):
    return Name(base, index, dual_, "session")


def shname(base):
    return Name(base, None, False, "shared")


def ok(result):
    assert result.ok, result.first_error()
    return result


def bad(result, rule=None):
    assert not result.ok
    if rule is not None:
        assert any(d.rule == rule for d in result.diagnostics), result.diagnostics
    return result


BOOL_SINK = Abs(((Var("b"), BOOL),), Inact(), shared=False)  # (Bool) lin arrow
U_SINK = TArrow((BOOL,), shared=False)


class TestBasics:
    def test_inact_empty(self):
        ok(check_process(None, Inact()))

    def test_inact_weakens_end(self):
        envs = TypeEnvs(delta={sname("s"): END})
        ok(check_process(envs, Inact()))

    def test_inact_leftover_session(self):
        s = sname("s")
        envs = TypeEnvs(delta={s: SOut((U_SINK,), END)})
        res = bad(check_process(envs, Inact()), "leftover")
        assert s in res.leftover.delta

    def test_unknown_subject(self):
        bad(check_process(None, Output(sname("s"), (Lit(True),), Inact())), "Subj")

    def test_send_then_end(self):
        s = sname("s")
        envs = TypeEnvs(delta={s: SOut((U_SINK,), END)})
        ok(check_process(envs, Output(s, (BOOL_SINK,), Inact())))

    def test_send_against_input_type(self):
        s = sname("s")
        envs = TypeEnvs(delta={s: SIn((U_SINK,), END)})
        bad(check_process(envs, Output(s, (BOOL_SINK,), Inact())), "Send")

    def test_send_payload_type_mismatch(self):
        s = sname("s")
        envs = TypeEnvs(delta={s: SOut((TArrow((INT,), False),), END)})
        bad(check_process(envs, Output(s, (BOOL_SINK,), Inact())), "Val")

    def test_first_order_payload_rejected(self):
        s, m = sname("s"), sname("m")
        envs = TypeEnvs(delta={s: SOut((U_SINK,), END), m: END})
        bad(check_process(envs, Output(s, (m,), Inact())), "Send")


class TestLinearity:
    def test_linear_binder_must_be_consumed(self):
        s = sname("s")
        envs = TypeEnvs(delta={s: SIn((U_SINK,), END)})
        bad(check_process(envs, Input(s, (Var("f"),), Inact())), "Rcv")

    def test_linear_binder_consumed_by_app(self):
        s = sname("s")
        envs = TypeEnvs(delta={s: SIn((U_SINK,), END)})
        p = Input(s, (Var("f"),), App(Var("f"), (Lit(True),)))
        ok(check_process(envs, p))

    def test_linear_value_single_use(self):
        s = sname("s")
        two = SOut((U_SINK,), SOut((U_SINK,), END))
        envs = TypeEnvs(lam={Var("f"): U_SINK}, delta={s: two})
        p = Output(s, (Var("f"),), Output(s, (Var("f"),), Inact()))
        bad(check_process(envs, p), "Var")

    def test_shared_value_contraction(self):
        s = sname("s")
        u = TArrow((BOOL,), shared=True)
        two = SOut((u,), SOut((u,), END))
        envs = TypeEnvs(gamma={Var("f"): u}, delta={s: two})
        p = Output(s, (Var("f"),), Output(s, (Var("f"),), Inact()))
        ok(check_process(envs, p))

    def test_unused_linear_env_value_is_leftover(self):
        envs = TypeEnvs(lam={Var("f"): U_SINK})
        bad(check_process(envs, Inact()), "leftover")


class TestAbstraction:
    def test_check_value_linear_abs(self):
        t, res = check_value(None, BOOL_SINK)
        ok(res)
        assert t == U_SINK

    def test_promotion_cannot_touch_sessions(self):
        s = sname("s")
        envs = TypeEnvs(delta={s: SOut((U_SINK,), END)})
        v = Abs(((Var("x"), END),), Output(s, (BOOL_SINK,), Inact()), shared=True)
        _, res = check_value(envs, v)
        bad(res, "Subj")

    def test_linear_abs_captures_sessions(self):
        s = sname("s")
        envs = TypeEnvs(delta={s: SOut((U_SINK,), END)})
        v = Abs(((Var("x"), END),), Output(s, (BOOL_SINK,), Inact()), shared=False)
        t, res = check_value(envs, v)
        ok(res)
        assert t == TArrow((END,), shared=False)
        assert s not in res.leftover.delta

    def test_linear_abs_must_finish_capture(self):
        s = sname("s")
        two = SOut((U_SINK,), SOut((U_SINK,), END))
        envs = TypeEnvs(delta={s: two})
        v = Abs(((Var("x"), END),), Output(s, (BOOL_SINK,), Inact()), shared=False)
        _, res = check_value(envs, v)
        bad(res, "Abs")

    def test_abs_session_param_driven_to_end(self):
        st = SOut((U_SINK,), END)
        good = Abs(((Var("x"), st),), Output(Var("x"), (BOOL_SINK,), Inact()))
        t, res = check_value(None, good)
        ok(res)
        assert t == TArrow((st,), shared=False)
        lazy = Abs(((Var("x"), st),), Inact())
        _, res = check_value(None, lazy)
        bad(res, "Abs")

    def test_eprom_shared_accepted_for_linear(self):
        s = sname("s")
        envs = TypeEnvs(delta={s: SOut((U_SINK,), END)})
        shared_sink = Abs(((Var("b"), BOOL),), Inact(), shared=True)
        ok(check_process(envs, Output(s, (shared_sink,), Inact())))

    def test_linear_not_accepted_for_shared(self):
        s = sname("s")
        want_shared = TArrow((BOOL,), shared=True)
        envs = TypeEnvs(delta={s: SOut((want_shared,), END)})
        bad(check_process(envs, Output(s, (BOOL_SINK,), Inact())), "Val")


    @pytest.mark.parametrize("sent,want,error", [
        (Abs(((Var("b"), BOOL),), Inact(), shared=True), TArrow((BOOL,), False), None),
        (Abs(((Var("b"), BOOL),), Inact(), shared=True), TArrow((BOOL,), True), None),
        (BOOL_SINK, TArrow((BOOL,), True),
         "[Val] at payload/0: value of type lin(Bool) where un(Bool) is required"),
        (Abs(((Var("b"), BOOL),), Inact(), shared=True), TArrow((INT,), False),
         "[Val] at payload/0: value of type un(Bool) where lin(Int) is required"),
        (Abs(((Var("b"), BOOL),), Inact(), shared=True), TArrow((BOOL, BOOL), False),
         "[Val] at payload/0: value of type un(Bool) where lin(Bool,Bool) is required"),
    ], ids=["shared-for-linear", "shared-for-shared", "linear-for-shared",
            "shared-for-other-linear", "shared-for-other-arity"])
    def test_value_fit_at_its_edges(self, sent, want, error):
        s = sname("s")
        result = check_process(TypeEnvs(delta={s: SOut((want,), END)}), Output(s, (sent,), Inact()))
        assert result.first_error() == error


class TestParallel:
    def test_communicating_pair(self):
        s = sname("s")
        st = SOut((U_SINK,), END)
        p = Par(
            Output(s, (BOOL_SINK,), Inact()),
            Input(s.dualized(), (Var("f"),), App(Var("f"), (Lit(False),))),
        )
        ok(check_process(None, Res(s, st, p)))

    def test_endpoint_not_splittable(self):
        s = sname("s")
        two = SOut((U_SINK,), SOut((U_SINK,), END))
        envs = TypeEnvs(delta={s: two})
        p = Par(
            Output(s, (BOOL_SINK,), Inact()),
            Output(s, (BOOL_SINK,), Inact()),
        )
        bad(check_process(envs, p), "Par")

    def test_single_thread_must_finish(self):
        s = sname("s")
        two = SOut((U_SINK,), SOut((U_SINK,), END))
        envs = TypeEnvs(delta={s: two})
        bad(check_process(envs, Output(s, (BOOL_SINK,), Inact())))


class TestRestriction:
    def test_res_unused_end_ok(self):
        ok(check_process(None, Res(sname("s"), END, Inact())))

    def test_res_unused_live_type_rejected(self):
        st = SOut((U_SINK,), END)
        bad(check_process(None, Res(sname("s"), st, Inact())), "Res")

    def test_res_shadowing_restores_outer(self):
        s = sname("s")
        st = SOut((U_SINK,), END)
        inner = Res(
            s, st,
            Par(
                Output(s, (BOOL_SINK,), Inact()),
                Input(s.dualized(), (Var("f",),), App(Var("f"), (Lit(True),))),
            ),
        )
        outer_body = Par(inner, Output(s, (BOOL_SINK,), Inact()))
        envs = TypeEnvs(delta={s: st, s.dualized(): dual(st)})
        p = Par(outer_body, Input(s.dualized(), (Var("g"),), App(Var("g"), (Lit(True),))))
        ok(check_process(envs, p))

    def test_shared_restriction(self):
        a = shname("a")
        u = TArrow((BOOL,), shared=True)
        p = Res(
            a, TChan(u),
            Par(
                Output(a, (Abs(((Var("b"), BOOL),), Inact(), shared=True),), Inact()),
                Input(a, (Var("h"),), App(Var("h"), (Lit(True),))),
            ),
        )
        ok(check_process(None, p))

    def test_shared_input_linear_payload_consumed(self):
        a = shname("a")
        envs = TypeEnvs(gamma={a: TChan(U_SINK)})
        bad(check_process(envs, Input(a, (Var("f"),), Inact())), "Acc")


class TestChoice:
    ST = SBra((("go", SIn((U_SINK,), END)), ("quit", END)))

    def test_branch_ok(self):
        s = sname("s")
        envs = TypeEnvs(delta={s: self.ST})
        p = Branch(
            s,
            (
                ("go", Input(s, (Var("f"),), App(Var("f"), (Lit(True),)))),
                ("quit", Inact()),
            ),
        )
        ok(check_process(envs, p))

    def test_branch_label_mismatch(self):
        s = sname("s")
        envs = TypeEnvs(delta={s: self.ST})
        bad(check_process(envs, Branch(s, (("go", Inact()),))), "Bra")

    def test_branch_unequal_consumption(self):
        s, r = sname("s"), sname("r")
        rt = SOut((U_SINK,), END)
        envs = TypeEnvs(delta={s: SBra((("a", END), ("b", END))), r: rt})
        p = Branch(
            s,
            (
                ("a", Output(r, (BOOL_SINK,), Inact())),
                ("b", Inact()),
            ),
        )
        bad(check_process(envs, p), "Bra")

    def test_select_ok_and_bad_label(self):
        s = sname("s")
        st = SSel((("add", SOut((U_SINK,), END)), ("sub", END)))
        envs = TypeEnvs(delta={s: st})
        ok(check_process(envs, Select(s, "add", Output(s, (BOOL_SINK,), Inact()))))
        bad(check_process(envs, Select(s, "mul", Inact())), "Sel")


class TestApplication:
    def test_literal_args(self):
        v = Abs(((Var("x"), INT), (Var("y"), INT)), Inact(), shared=True)
        ok(check_process(None, App(v, (Lit(16), Lit(26)))))
        bad(check_process(None, App(v, (Lit(16), Lit(True)))), "App")

    def test_session_arg_consumed_whole(self):
        s = sname("s")
        st = SOut((U_SINK,), END)
        v = Abs(((Var("x"), st),), Output(Var("x"), (BOOL_SINK,), Inact()))
        envs = TypeEnvs(delta={s: st})
        ok(check_process(envs, App(v, (s,))))

    def test_session_arg_type_must_match(self):
        s = sname("s")
        st = SOut((U_SINK,), END)
        v = Abs(((Var("x"), st),), Output(Var("x"), (BOOL_SINK,), Inact()))
        envs = TypeEnvs(delta={s: SOut((U_SINK,), SOut((U_SINK,), END))})
        bad(check_process(envs, App(v, (s,))), "App")

    def test_arity_mismatch(self):
        v = Abs(((Var("x"), INT),), Inact(), shared=True)
        bad(check_process(None, App(v, (Lit(1), Lit(2)))), "App")

    def test_apply_nonarrow(self):
        envs = TypeEnvs(gamma={Var("n"): INT})
        bad(check_process(envs, App(Var("n"), (Lit(1),))), "App")

    @pytest.mark.parametrize("gamma,error", [
        (INT, None),
        (BOOL, "[App] at arg/0: a : chan Bool against parameter chan Int"),
        (None, "[App] at arg/0: unknown argument a"),
    ], ids=["matching", "mismatched", "unknown"])
    def test_shared_name_arg(self, gamma, error):
        a = shname("a")
        envs = TypeEnvs(gamma={} if gamma is None else {a: TChan(gamma)})
        v = Abs(((Var("x"), TChan(INT)),), Inact())
        assert check_process(envs, App(v, (a,))).first_error() == error


class TestValues:
    @pytest.mark.parametrize("envs,error", [
        (TypeEnvs(gamma={Var("v"): TChan(INT)}, delta={sname("s"): SOut((INT,), END)}),
         "[Var] at payload/0: channel v used as a value"),
        (TypeEnvs(delta={sname("s"): SOut((INT,), END), Var("v"): SIn((INT,), END)}),
         "[Var] at payload/0: session channel v used as a value"),
    ], ids=["shared", "session"])
    def test_channel_variables_are_not_values(self, envs, error):
        result = check_process(envs, Output(sname("s"), (Var("v"),), Inact()))
        assert bad(result, "Var").first_error() == error

    def test_names_are_not_values(self):
        vtype, result = check_value(None, shname("a"))
        assert vtype is None
        assert bad(result, "Val").first_error() == "[Val] at top: names are not values: a"


_S, _U, _A = sname("s"), sname("u"), shname("a")
_X, _Y, _F = Var("x"), Var("y"), Var("f")


class TestDiagnosticsAsPrinted:
    @pytest.mark.parametrize("envs,p,error", [
        (TypeEnvs(lam={_X: TArrow((END,), False)}), Output(_X, (Lit(1),), Inact()),
         "[Subj] at top: x is a linear value, not a channel"),
        (TypeEnvs(gamma={_X: INT}), Output(_X, (Lit(1),), Inact()),
         "[Subj] at top: x : Int cannot be a subject"),
        (None, Lit(1), "[Proc] at top: unknown process node Lit"),
        (TypeEnvs(gamma={_A: TChan(INT)}), Select(_A, "l", Inact()),
         "[Sel] at top: selection needs a session subject, got a"),
        (TypeEnvs(gamma={_A: TChan(INT)}), Output(_A, (Lit(1), Lit(2)), Inact()),
         "[Req] at top: shared outputs carry exactly one value"),
        (TypeEnvs(delta={_S: SIn((INT,), END)}), Input(_S, (_X, _Y), Inact()),
         "[Rcv] at top: 2 binders against payload type tuple 1"),
        (TypeEnvs(gamma={_A: TChan(INT)}), Input(_A, (_X, _Y), Inact()),
         "[Acc] at top: shared inputs bind exactly one value"),
        (TypeEnvs(gamma={_A: TChan(INT)}), Branch(_A, (("l", Inact()),)),
         "[Bra] at top: branching needs a session subject, got a"),
        (TypeEnvs(lam={_F: TArrow((END,), False)}, delta={_S: SBra((("a", END), ("b", END))), _U: END}),
         Branch(_S, (("a", App(_F, (_U,))), ("b", Inact()))),
         "[Bra] at top: branches a and b consume different resources"),
        (TypeEnvs(lam={_F: TArrow((INT,), False)}, delta={_U: END}), App(_F, (_U,)),
         "[App] at arg/0: session channel u against parameter Int"),
        (TypeEnvs(lam={_F: TArrow((BOOL,), False)}), App(_F, (Lit(1),)),
         "[App] at arg/0: literal 1 against parameter Bool"),
        (TypeEnvs(lam={_F: TArrow((SIn((INT,), END),), False)}, delta={_S: SOut((INT,), END)}),
         App(_F, (_S,)), "[App] at arg/0: s : !<Int>;end against parameter ?<Int>;end"),
        (TypeEnvs(delta={_S: SOut((INT,), END)}), Output(_S, (Inact(),), Inact()),
         "[Val] at payload/0: unknown value node Inact"),
    ], ids=["subject-linear", "subject-value", "unknown-process", "select-shared",
            "request-arity", "receive-arity", "accept-arity", "branch-shared",
            "branch-resources", "session-argument", "literal-argument", "argument-mismatch",
            "unknown-value"])
    def test_first_error(self, envs, p, error):
        assert bad(check_process(envs, p)).first_error() == error


class TestRecursion:
    def test_unfold_at_prefix_and_handoff(self):
        loop = SRec("t", SIn((U_SINK,), SOut((U_SINK,), SVar("t"))))
        s = sname("s")
        y = Var("y")
        p = Input(s, (Var("f"),), Output(s, (Var("f"),), App(y, (s,))))
        envs = TypeEnvs(lam={y: TArrow((loop,), shared=False)}, delta={s: loop})
        ok(check_process(envs, p))

    def test_unfinished_loop_rejected(self):
        loop = SRec("t", SIn((U_SINK,), SOut((U_SINK,), SVar("t"))))
        s = sname("s")
        p = Input(s, (Var("f"),), Output(s, (Var("f"),), Inact()))
        bad(check_process(TypeEnvs(delta={s: loop}), p))

    def test_a_label_holding_key_punctuation_is_one_label(self):
        # rec t.+{"x:e,y": end} and rec t.+{x: end, y: end} are different
        # types, though they once shared a key
        ra = SRec("t", SSel((("x:e,y", END),)))
        rb = SRec("t", SSel((("x", END), ("y", END))))
        c, z = sname("c"), Var("z")
        payload = Abs(((z, ra),), Select(z, "x:e,y", Inact()))
        envs = TypeEnvs(delta={c: SOut((TArrow((rb,), False),), END)})
        bad(check_process(envs, Output(c, (payload,), Inact())), "Val")
        envs = TypeEnvs(delta={c: SOut((TArrow((ra,), False),), END)})
        ok(check_process(envs, Output(c, (payload,), Inact())))


class TestEncodedExample:
    # a channel name is delegated, then a boolean flows over it
    S_M0 = SOut((BOOL,), END)
    U_V0 = SOut((S_M0,), END)

    def build(self):
        m, u = sname("m"), sname("u")
        b, x = Var("b"), Var("x")
        source = Res(
            u,
            self.U_V0,
            Par(
                Output(u, (m,), Input(m.dualized(), (b,), Inact())),
                Input(u.dualized(), (x,), Output(x, (Lit(True),), Inact())),
            ),
        )
        return m, encode_namepass(
            source, {m: self.S_M0, Var("x"): self.S_M0, Var("b"): BOOL}
        )

    def test_encoded_delegation_typechecks(self):
        m, encoded = self.build()
        envs = TypeEnvs(
            delta={
                m: encode_nptype(self.S_M0),
                m.dualized(): encode_nptype(dual(self.S_M0)),
            }
        )
        ok(check_process(envs, encoded))

    def test_encoded_types_happen_to_be_minimal(self):
        m, encoded = self.build()
        envs = TypeEnvs(
            delta={
                m: encode_nptype(self.S_M0),
                m.dualized(): encode_nptype(dual(self.S_M0)),
            }
        )
        ok(check_minimal_typed(encoded, envs))


class TestMinimalSweep:
    def test_long_session_type_flagged(self):
        s = sname("s")
        eq = SIn((INT,), SIn((INT,), SOut((BOOL,), END)))
        p = Input(s, (Var("a"),), Input(s, (Var("b"),), Output(s, (Lit(True),), Inact())))
        envs = TypeEnvs(delta={s: eq})
        ok(check_process(envs, p))
        res = check_minimal_typed(p, TypeEnvs(delta={s: eq}))
        bad(res, "minimal")

    def test_first_non_minimal_type_is_reported_where_seen(self):
        s = sname("s")
        pair = SIn((INT,), SIn((INT,), END))
        reader = Input(s, (Var("a"),), Input(s, (Var("b"),), Inact()))
        writer = Output(s.dualized(), (Lit(1),), Output(s.dualized(), (Lit(2),), Inact()))
        res = check_minimal_typed(Res(s, pair, Par(reader, writer)))
        assert res.first_error() == "[minimal] at annot: non-minimal type ?<Int>;?<Int>;end"
        assert len(res.types_seen) == 5

    def test_minimal_chain(self):
        c = sname("#", 1)
        unit = Abs(((Var("x"), END),), Inact(), shared=True)
        p = Res(
            c,
            SIn((UNIT_ARROW,), END),
            Par(
                Output(c.dualized(), (unit,), Inact()),
                Input(c, (Var("z"),), Inact()),
            ),
        )
        ok(check_minimal_typed(p))


LONG = 3000


def message_session(n, wrong_at=None):
    """(νs)(A | B): A sends n Int literals and B receives them; the
    literal at index wrong_at is a Bool."""
    s = sname("s")
    t, a, b = END, Inact(), Inact()
    for i in reversed(range(n)):
        t = SOut((INT,), t)
        a = Output(s, (Lit(True if i == wrong_at else i),), a)
        b = Input(s.dualized(), (Var(f"x{i}"),), b)
    return Res(s, t, Par(a, b))


class TestLongProtocols:
    def test_message_session(self):
        res = ok(check_process(None, message_session(LONG)))
        assert len(res.types_seen) == 1 + 2 * LONG

    def test_message_session_error_path(self):
        res = bad(check_process(None, message_session(LONG, wrong_at=LONG - 1)), "Val")
        path = res.diagnostics[0].path
        assert path == ("body", "left") + ("cont",) * (LONG - 1) + ("payload", 0)
        assert str(res.diagnostics[0]).startswith("[Val] at body/left/cont/cont/")

    def test_tail_recursive_session(self):
        # rec t.!<lin(Int)>;?<Int>;t driven LONG prefixes, then handed on
        loop = SRec("t", SOut((U_SINK,), SIn((INT,), SVar("t"))))
        s, y = sname("s"), Var("y")
        p = App(y, (s,))
        for i in reversed(range(LONG)):
            p = Output(s, (BOOL_SINK,), p) if i % 2 == 0 else Input(s, (Var(f"x{i}"),), p)
        envs = TypeEnvs(lam={y: TArrow((loop,), shared=False)}, delta={s: loop})
        ok(check_process(envs, p))
        bad(check_process(envs, Input(s, (Var("x"),), p)), "Rcv")

    def test_encoded_delegation(self):
        # every other interaction delegates a fresh channel of type ?<Int>;end
        # whose other end the sender drives; the rest send Int literals
        n = 2000
        c = SIn((INT,), END)
        s = sname("s")
        t, a, b, name_types, chans = END, Inact(), Inact(), {}, []
        for i in reversed(range(n)):
            x = Var(f"x{i}")
            if i % 2:
                m, z = sname(f"m{i}"), Var(f"z{i}")
                chans.append((m, c))
                name_types.update({m: c, x: c, z: INT})
                t = SOut((c,), t)
                a = Output(s, (m,), Par(Output(m.dualized(), (Lit(i),), Inact()), a))
                b = Input(s.dualized(), (x,), Par(Input(x, (z,), Inact()), b))
            else:
                name_types[x] = INT
                t = SOut((INT,), t)
                a = Output(s, (Lit(i),), a)
                b = Input(s.dualized(), (x,), b)
        p = Res(s, t, Par(a, b))
        for m, annot in chans:
            p = Res(m, annot, p)
        ok(check_process(None, encode_namepass(p, name_types)))
