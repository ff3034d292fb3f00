"""Normal form, canonical state identity, stepping, policy order, and the
exhaustive explorer."""

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
    free_names,
    parallel,
    prop_name,
)
from minsess.types import (
    BOOL,
    SEnd,
    SIn,
    SOut,
    SBra,
    SSel,
    TArrow,
    TChan,
)
from minsess.semantics import (
    Redex,
    SemanticsError,
    _det_rank,
    apply_redex,
    canonical_key,
    enabled,
    explore,
    normalize,
    run,
)
from minsess import semantics
from minsess.typecheck import check_process

END = SEnd()
U_SINK = TArrow((BOOL,), shared=False)
SINK = Abs(((Var("b"), BOOL),), Inact(), shared=False)


def sname(base, index=None):
    return Name(base, index, False, "session")


def comm_pair(s, payload=SINK, binder="x", rest_out=None, rest_in=None):
    return Par(
        Output(s, (payload,), rest_out or Inact()),
        Input(s.dualized(), (Var(binder),), rest_in or Inact()),
    )


class TestNormalize:
    def test_drops_nil_and_flattens(self):
        s = sname("s")
        p = Par(Inact(), Par(Output(s, (SINK,), Inact()), Inact()))
        q = normalize(p)
        assert isinstance(q, Output)

    @pytest.mark.parametrize("value, cls", [
        (Lit(1), "Lit"),
        (Var("x"), "Var"),
        (sname("s"), "Name"),
        (Abs(((Var("x"), BOOL),), Inact()), "Abs"),
        (Res(sname("s"), END, Lit(2)), "Lit"),
    ], ids=["Lit", "Var", "Name", "Abs", "Res-over-Lit"])
    @pytest.mark.parametrize("call", [run, explore, normalize, enabled, canonical_key],
                             ids=lambda f: f.__name__)
    def test_a_value_is_not_a_state(self, value, cls, call):
        with pytest.raises(SemanticsError, match=f"^{cls} is not a process$"):
            call(value)

    def test_dead_restriction_dropped(self):
        p = Res(sname("s"), END, Inact())
        assert isinstance(normalize(p), Inact)

    def test_idempotent(self):
        s, r = sname("s"), sname("r")
        p = Res(
            s,
            SOut((U_SINK,), END),
            Par(comm_pair(s), Res(r, END, Output(r, (SINK,), Inact()))),
        )
        q = normalize(p)
        assert canonical_key(q) == canonical_key(normalize(q))
        assert str(q) == str(normalize(q)) if hasattr(q, "__str__") else True

    def test_scope_extrusion_renames_on_clash(self):
        s = sname("s")
        inner = Res(s, SOut((U_SINK,), END), Output(s, (SINK,), Inact()))
        p = Par(inner, Input(s.dualized(), (Var("x"),), Inact()))
        q = normalize(p)
        # the hoisted binder must not capture the free ~s of the right leg
        assert not enabled(q)

    def test_scope_extrusion_never_captures_a_free_reserved_name(self):
        # #_2 occurs only as an application argument and #_1 clashes with
        # the free ~#_1: the hoisted #_1 must move above #_2, not onto it
        c1, c2 = prop_name(1), prop_name(2)
        x = Var("x")
        uses_c2 = App(Abs(((x, SOut((U_SINK,), END)),), Output(x, (SINK,), Inact())), (c2,))
        p = Par(
            Par(uses_c2, Res(c1, SOut((U_SINK,), END), Output(c1, (SINK,), Inact()))),
            Input(c1.dualized(), (Var("y"),), Inact()),
        )
        q = normalize(p)
        assert set(free_names(q)) == {c2, c1.dualized()}
        assert isinstance(q, Res) and q.binder == prop_name(3)

    def test_a_released_binder_never_captures_a_free_name_of_the_state(self):
        # g is free in a component the step keeps, not a binder: the
        # restriction the beta releases must still take a fresh name
        g = sname("g")
        one = SOut((U_SINK,), END)
        release = App(Abs(((Var("z"), BOOL),), Res(g, one, Output(g, (SINK,), Inact()))), (Lit(True),))
        p = Par(Input(g.dualized(), (Var("x"),), Inact()), release)
        t = run(p, fuel=1)
        assert t.steps[0].term == Res(sname("g'"), one, Par(
            Input(g.dualized(), (Var("x"),), Inact()), Output(sname("g'"), (SINK,), Inact())
        ))
        assert t.status == "inert" and not enabled(t.final)

    def test_a_released_reserved_binder_moves_above_the_kept_components(self):
        # #_5 is bound only inside a component the beta keeps: the #_1 it
        # releases clashes with the free ~#_1 and must move above #_5
        c1, c5 = prop_name(1), prop_name(5)
        one = SOut((U_SINK,), END)
        kept = Input(sname("h"), (Var("y"),), Res(c5, one, Output(c5, (SINK,), Inact())))
        release = App(Abs(((Var("z"), BOOL),), Res(c1, one, Output(c1, (SINK,), Inact()))), (Lit(True),))
        p = parallel([Input(c1.dualized(), (Var("x"),), Inact()), kept, release])
        q = run(p, fuel=1).steps[0].term
        assert isinstance(q, Res) and q.binder == prop_name(6)

    def test_clashing_reserved_binders_take_the_next_free_indices(self):
        c1, c4 = prop_name(1), prop_name(4)
        one = SOut((U_SINK,), END)

        def sender(c):
            return Res(c, one, Output(c, (SINK,), Inact()))

        # #_4 is bound under a prefix, so the fresh indices start above it
        waiting = Input(c1.dualized(), (Var("x"),), sender(c4))
        q = normalize(Par(sender(c1), Par(sender(c1), waiting)))
        c5, c6 = prop_name(5), prop_name(6)
        assert q == Res(
            c5, one, Res(c6, one, Par(
                waiting,
                Par(Output(c5, (SINK,), Inact()), Output(c6, (SINK,), Inact())),
            ))
        )
        assert canonical_key(q) == (
            "nu n1.(nu n2.((#.1.session~?(v3).nu n4.(n4!(lin(v5){0}).0)"
            "|(n1!(lin(v6){0}).0|n2!(lin(v7){0}).0))))"
        )

    def test_clashing_binders_take_primed_bases(self):
        s = sname("s")
        one = SOut((U_SINK,), END)
        sender = Res(s, one, Output(s, (SINK,), Inact()))
        q = normalize(Par(sender, Par(sender, Input(s.dualized(), (Var("x"),), Inact()))))
        s1, s2 = sname("s'"), sname("s''")
        # equal abstract renderings: the literal one puts s'' before s'
        assert q == Res(
            s2, one, Res(s1, one, Par(
                Output(s2, (SINK,), Inact()),
                Par(Output(s1, (SINK,), Inact()), Input(s.dualized(), (Var("x"),), Inact())),
            ))
        )
        assert canonical_key(q) == (
            "nu n1.(nu n2.((n1!(lin(v3){0}).0|(n2!(lin(v4){0}).0|s.None.session~?(v5).0))))"
        )

    def test_component_order_is_canonical(self):
        s, r = sname("s"), sname("r")
        a = Output(s, (SINK,), Inact())
        b = Input(r, (Var("x"),), Inact())
        assert canonical_key(Par(a, b)) == canonical_key(Par(b, a))


class TestCanonicalKey:
    def test_alpha_invariance_of_restrictions(self):
        def mk(base):
            c = sname(base)
            return Res(c, SOut((U_SINK,), END), comm_pair(c))

        assert canonical_key(mk("a")) == canonical_key(mk("b"))

    def test_alpha_invariance_of_binders(self):
        s = sname("s")

        def mk(v):
            return Input(s, (Var(v),), App(Var(v), (Lit(True),)))

        assert canonical_key(mk("x")) == canonical_key(mk("y"))

    def test_free_names_distinguish(self):
        assert canonical_key(Output(sname("s"), (SINK,), Inact())) != canonical_key(
            Output(sname("r"), (SINK,), Inact())
        )

    def test_types_do_not_distinguish_states(self):
        s = sname("s")
        p = Res(s, SOut((U_SINK,), END), comm_pair(s))
        q = Res(s, END, comm_pair(s))
        assert canonical_key(p) == canonical_key(q)



class TestKeyComposition:
    """State keys composed from per-component templates, pinned to the
    keys the whole-state renderer gave."""

    def test_braces_in_labels_and_names_print_literally(self):
        c, k = sname("c{0}"), sname("k}{1")
        p = Res(
            c,
            END,
            Par(
                Select(c, "l{x}", Output(k, (SINK,), Inact())),
                Branch(
                    c.dualized(),
                    (
                        ("l{x}", App(Var("f{"), (Lit(1), k.dualized()))),
                        ("}r", Inact()),
                    ),
                ),
            ),
        )
        assert canonical_key(p) == (
            "nu n1.((n1<$4:l{x}.$4:k}{1.None.session!(lin(v2){0}).0"
            "|n1~>{$4:l{x}:app(fv:$2:f{.None)(lit:int:1,$4:k}{1.None.session~);$2:}r:0}))"
        )

    def test_numbers_cross_a_digit_boundary(self):
        # 12 hoisted binders, 48 internal ones; the last component names
        # three hoisted channels out of their order
        chans = [sname("s", i) for i in range(1, 13)]
        r = sname("r")
        thunk = Abs(
            ((Var("y"), BOOL),),
            Res(
                r,
                END,
                Par(Output(r, (Var("y"),), Inact()), Input(r.dualized(), (Var("z"),), Inact())),
            ),
        )
        comps = []
        for s in chans:
            comps.append(Output(s, (thunk,), Inact()))
            comps.append(Input(s.dualized(), (Var("x"),), App(Var("x"), (Lit(True),))))
        comps.append(
            Select(chans[7], "a", Select(chans[2], "b", Select(chans[10], "c", Inact())))
        )
        p = parallel(comps)
        for s in reversed(chans):
            p = Res(s, END, p)
        assert canonical_key(p) == (
            "nu n1.(nu n2.(nu n3.(nu n4.(nu n5.(nu n6.(nu n7.(nu n8.(nu n9.(nu n10.(nu n11.(nu n12.("
            "(n1!(lin(v13){nu n14.((n14!(v13).0|n14~?(v15).0))}).0|"
            "(n2!(lin(v16){nu n17.((n17!(v16).0|n17~?(v18).0))}).0|"
            "(n3!(lin(v19){nu n20.((n20!(v19).0|n20~?(v21).0))}).0|"
            "(n4!(lin(v22){nu n23.((n23!(v22).0|n23~?(v24).0))}).0|"
            "(n5!(lin(v25){nu n26.((n26!(v25).0|n26~?(v27).0))}).0|"
            "(n6!(lin(v28){nu n29.((n29!(v28).0|n29~?(v30).0))}).0|"
            "(n7!(lin(v31){nu n32.((n32!(v31).0|n32~?(v33).0))}).0|"
            "(n8!(lin(v34){nu n35.((n35!(v34).0|n35~?(v36).0))}).0|"
            "(n9!(lin(v37){nu n38.((n38!(v37).0|n38~?(v39).0))}).0|"
            "(n10!(lin(v40){nu n41.((n41!(v40).0|n41~?(v42).0))}).0|"
            "(n11!(lin(v43){nu n44.((n44!(v43).0|n44~?(v45).0))}).0|"
            "(n12!(lin(v46){nu n47.((n47!(v46).0|n47~?(v48).0))}).0|"
            "(n11<a.n6<b.n3<c.0|"
            "(n1~?(v49).app(v49)(lit:bool:True)|"
            "(n2~?(v50).app(v50)(lit:bool:True)|"
            "(n3~?(v51).app(v51)(lit:bool:True)|"
            "(n4~?(v52).app(v52)(lit:bool:True)|"
            "(n5~?(v53).app(v53)(lit:bool:True)|"
            "(n6~?(v54).app(v54)(lit:bool:True)|"
            "(n7~?(v55).app(v55)(lit:bool:True)|"
            "(n8~?(v56).app(v56)(lit:bool:True)|"
            "(n9~?(v57).app(v57)(lit:bool:True)|"
            "(n10~?(v58).app(v58)(lit:bool:True)|"
            "(n11~?(v59).app(v59)(lit:bool:True)|"
            "n12~?(v60).app(v60)(lit:bool:True)))))))))))))))))))))))))))))))))))))"
        )

    def test_single_component(self):
        s = sname("s")
        p = Res(s, END, Output(s, (SINK,), Output(sname("a"), (SINK,), Inact())))
        assert canonical_key(p) == "nu n1.(n1!(lin(v2){0}).a.None.session!(lin(v3){0}).0)"
        assert canonical_key(normalize(p)) == canonical_key(p)

    def test_all_nil(self):
        p = Par(Inact(), Res(sname("s"), END, Par(Inact(), Inact())))
        assert canonical_key(p) == "0"


class TestStepping:
    def test_session_comm(self):
        s = sname("s")
        p = Res(
            s,
            SOut((U_SINK,), END),
            comm_pair(s, rest_in=App(Var("x"), (Lit(True),))),
        )
        rs = enabled(p)
        assert [r.kind for r in rs] == ["comm"]
        q = apply_redex(p, rs[0])
        # binder is dead after the exchange; one beta remains
        rs2 = enabled(q)
        assert [r.kind for r in rs2] == ["beta"]
        final = apply_redex(q, rs2[0])
        assert isinstance(final, Inact)

    def test_shared_comm_self_dual(self):
        a = Name("a", None, False, "shared")
        p = Res(
            a,
            TChan(TArrow((BOOL,), True)),
            Par(
                Output(a, (Abs(((Var("b"), BOOL),), Inact(), shared=True),), Inact()),
                Input(a, (Var("h"),), Inact()),
            ),
        )
        rs = enabled(p)
        assert len(rs) == 1 and rs[0].kind == "comm"
        assert isinstance(apply_redex(p, rs[0]), Inact)

    def test_select_advances_annotation(self):
        s = sname("s")
        st = SSel((("go", SOut((U_SINK,), END)), ("quit", END)))
        p = Res(
            s,
            st,
            Par(
                Select(s, "go", Output(s, (SINK,), Inact())),
                Branch(
                    s.dualized(),
                    (
                        ("go", Input(s.dualized(), (Var("x"),), Inact())),
                        ("quit", Inact()),
                    ),
                ),
            ),
        )
        rs = enabled(p)
        assert [r.kind for r in rs] == ["select"]
        q = apply_redex(p, rs[0])
        assert isinstance(q, Res)
        assert q.annot == SOut((U_SINK,), END)
        t = run(q, fuel=10)
        assert t.status == "inert" and len(t.steps) == 1

    def test_one_endpoint_does_not_meet_itself(self):
        s = sname("s")
        p = Res(s, SOut((U_SINK,), END), Par(
            Output(s, (Lit(1),), Inact()), Input(s, (Var("x"),), Inact())))
        assert enabled(p) == []

    def test_select_outside_the_annotation_leaves_it_as_it_was(self):
        s = sname("s")
        st = SSel((("a", END),))
        p = Res(s, st, Par(
            Select(s, "b", Output(s, (SINK,), Inact())),
            Branch(s.dualized(), (("b", Input(s.dualized(), (Var("x"),), Inact())),)),
        ))
        t = run(p)
        assert [x.kind for x in t.steps] == ["select", "comm"]
        first = t.steps[0].term
        assert isinstance(first, Res) and first.annot == st

    def test_beta_arity_mismatch_raises(self):
        f = Abs(((Var("x"), BOOL),), Inact())
        with pytest.raises(SemanticsError, match="^application arity mismatch$"):
            run(App(f, (Lit(True), Lit(False))))

    def test_beta_polyadic(self):
        s = sname("s")
        v = Abs(
            ((Var("x"), SOut((U_SINK,), END)), (Var("n"), BOOL)),
            Output(Var("x"), (SINK,), Inact()),
        )
        p = Res(
            s,
            SOut((U_SINK,), END),
            Par(App(v, (s, Lit(True))), Input(s.dualized(), (Var("y"),), Inact())),
        )
        t = run(p, fuel=10)
        assert t.status == "inert"
        assert [x.kind for x in t.steps] == ["beta", "comm"]

    def test_a_sender_and_a_receiver_on_different_channels_do_not_fire(self):
        s, t, u = sname("s"), sname("t"), sname("u")
        p = Par(
            Output(s, (Lit(1),), Inact()),
            Input(t.dualized(), (Var("x"),), Output(u, (Var("x"),), Inact())),
        )
        assert enabled(p) == []
        for i, j in ((0, 1), (1, 0)):
            with pytest.raises(SemanticsError, match=f"^comm at {i}, {j} on s is not enabled$"):
                apply_redex(p, Redex("comm", i, j, subject=s))

    def test_a_redex_out_of_range_or_of_the_wrong_kind_does_not_fire(self):
        s = sname("s")
        p = Res(s, SOut((U_SINK,), END), comm_pair(s))
        (r,) = enabled(p)
        assert r == Redex("comm", 0, 1, subject=s)
        wrong = (
            Redex("comm", 0, 2, subject=s),
            Redex("comm", 5, 1, subject=s),
            Redex("beta", 0),
            Redex("beta", 9),
            Redex("select", 0, 1, subject=s, label="go"),
        )
        for bad in wrong:
            with pytest.raises(SemanticsError, match="is not enabled$"):
                apply_redex(p, bad)
        assert isinstance(apply_redex(p, r), Inact)


class TestPolicy:
    def test_reserved_highest_index_first(self):
        c1, c2 = prop_name(1), prop_name(2)
        p = Res(
            c1,
            SOut((U_SINK,), END),
            Res(
                c2,
                SOut((U_SINK,), END),
                Par(
                    comm_pair(c1),
                    comm_pair(c2),
                ),
            ),
        )
        t = run(p, fuel=10)
        assert [s.subject for s in t.steps] == [str(c2), str(c1)]

    def test_unindexed_reserved_preempts_indexed(self):
        from minsess.terms import rec_server_name

        ca = rec_server_name(sname("a", 1))
        c5 = prop_name(5)
        p = Res(
            ca,
            TChan(TArrow((BOOL,), True)),
            Res(
                c5,
                SOut((U_SINK,), END),
                Par(
                    Par(
                        Output(ca, (Abs(((Var("b"), BOOL),), Inact(), shared=True),), Inact()),
                        Input(ca, (Var("h"),), Inact()),
                    ),
                    comm_pair(c5),
                ),
            ),
        )
        t = run(p, fuel=10)
        assert t.steps[0].subject == str(ca)

    def test_source_syncs_after_reserved(self):
        c1 = prop_name(1)
        s = sname("s", 1)
        p = Res(
            c1,
            SOut((U_SINK,), END),
            Res(
                s,
                SOut((U_SINK,), END),
                Par(comm_pair(s), comm_pair(c1)),
            ),
        )
        t = run(p, fuel=10)
        assert [x.subject for x in t.steps] == [str(c1), str(s)]

    def test_beta_between(self):
        c1 = prop_name(1)
        s = sname("s", 1)
        p = Res(
            c1,
            SOut((U_SINK,), END),
            Res(
                s,
                SOut((U_SINK,), END),
                Par(
                    Par(comm_pair(s), comm_pair(c1)),
                    App(Abs(((Var("z"), BOOL),), Inact()), (Lit(True),)),
                ),
            ),
        )
        t = run(p, fuel=10)
        assert [x.kind for x in t.steps] == ["comm", "beta", "comm"]
        assert t.steps[0].subject == str(c1)


def beta(body):
    return App(Abs(((Var("z"), BOOL),), body), (Lit(True),))


class TestTies:
    """`run` ranks its candidates by subject and sorts the state only when
    two of them tie; each case writes or makes the tied components in the
    reverse of their sort order, so only the sorted positions pick right."""

    def assert_run_follows_the_policy(self, p):
        t = run(p)
        state = normalize(p)
        assert t.initial == state
        for step in t.steps:
            r = min(enabled(state), key=_det_rank)
            subject = None if r.subject is None else str(r.subject)
            assert (step.kind, step.subject, step.label) == (r.kind, subject, r.label)
            state = apply_redex(state, r)
            assert step.term == state
        assert t.final == state and t.status == "inert"
        return t

    def test_two_betas(self):
        s, r = sname("s"), sname("r")
        # the beta on r sorts first
        t = self.assert_run_follows_the_policy(
            Par(beta(Output(s, (SINK,), Inact())), beta(Output(r, (SINK,), Inact())))
        )
        assert [x.kind for x in t.steps] == ["beta", "beta"]

    def test_two_senders_on_a_shared_name(self):
        s, a = sname("s"), Name("a", None, False, "shared")
        # the comm on s makes a!<2> and then a!<1>, which sorts first
        p = Res(s, SOut((U_SINK,), END), parallel([
            Output(s, (SINK,), Output(a, (Lit(2),), Inact())),
            Input(s.dualized(), (Var("x"),), Output(a, (Lit(1),), Inact())),
            Input(a, (Var("y"),), Inact()),
        ]))
        t = self.assert_run_follows_the_policy(p)
        assert t.final == Output(a, (Lit(2),), Inact())

    def test_a_rename_avoids_a_name_of_the_tail(self):
        g, g1 = sname("g"), sname("g'")
        # the betas tie, so the state is sorted; the one that sorts first
        # makes a g' component, which waits in the tail while the other
        # releases a g that collides with the free ~g and takes g''
        p = parallel([
            Input(g.dualized(), (Var("x"),), Inact()),
            beta(Res(g, SOut((U_SINK,), END), Output(g, (SINK,), Inact()))),
            beta(Output(g1, (SINK,), Inact())),
        ])
        t = self.assert_run_follows_the_policy(p)
        assert isinstance(t.final, Res) and t.final.binder == sname("g''")


class TestRun:
    def test_inert_on_guarded_leftover(self):
        s = sname("s")
        p = Output(s, (SINK,), Inact())
        t = run(p)
        assert t.status == "inert" and not t.steps

    def test_stuck_on_free_variable_application(self):
        p = App(Var("y"), (Lit(True),))
        t = run(p)
        assert t.status == "stuck"

    def test_fuel_exhaustion(self):
        s = sname("s")
        p = Res(s, SOut((U_SINK,), END), comm_pair(s))
        t = run(p, fuel=0)
        assert t.status == "fuel"

    @pytest.mark.parametrize("ending", ["inert", "stuck"])
    def test_fuel_for_exactly_the_steps_reports_how_the_run_ends(self, ending):
        p = two_message_session()
        if ending == "stuck":
            p = Par(p, App(Var("y"), (Lit(True),)))
        assert len(run(p).steps) == 4
        assert run(p, fuel=4).status == ending
        assert run(p, fuel=3).status == "fuel"


def two_message_session():
    """(νs:!⟨U⟩;!⟨U⟩;end)(s!⟨SINK⟩.s!⟨SINK⟩.0 | s̄?(x).s̄?(y).(x true | y false))"""
    s = sname("s")
    return Res(
        s,
        SOut((U_SINK,), SOut((U_SINK,), END)),
        Par(
            Output(s, (SINK,), Output(s, (SINK,), Inact())),
            Input(
                s.dualized(),
                (Var("x"),),
                Input(
                    s.dualized(),
                    (Var("y"),),
                    Par(App(Var("x"), (Lit(True),)), App(Var("y"), (Lit(False),))),
                ),
            ),
        ),
    )


def bool_session(c, v, rest_in=None):
    """(νc:!⟨Bool⟩;end)(c!⟨v⟩.0 | c̄?(x).rest_in)"""
    return Res(c, SOut((BOOL,), END), comm_pair(c, payload=Lit(v), rest_in=rest_in))


def rpc_session(c, v):
    """(νc:!⟨Bool⟩;?⟨Bool⟩;end)(c!⟨v⟩.c?(y).0 | c̄?(x).c̄!⟨x⟩.0)"""
    x, y = Var("x"), Var("y")
    client = Output(c, (Lit(v),), Input(c, (y,), Inact()))
    server = Input(c.dualized(), (x,), Output(c.dualized(), (x,), Inact()))
    return Res(c, SOut((BOOL,), SIn((BOOL,), END)), Par(client, server))


class TestMultiStep:
    """Each comm instantiates an input continuation that itself starts with
    an input, so substitution must pass under an input prefix."""

    def test_run_two_message_session(self):
        t = run(two_message_session(), fuel=20)
        assert t.status == "inert"
        assert [(x.kind, x.subject) for x in t.steps] == [
            ("comm", "s"),
            ("comm", "s"),
            ("beta", None),
            ("beta", None),
        ]

    def test_explore_two_message_session(self):
        ex = explore(two_message_session(), fuel=20)
        assert not ex.truncated
        # initial, after each comm, either beta first, then 0
        assert len(ex.states) == 6
        assert set(ex.terminals.values()) == {"inert"}
        for st in ex.states.values():
            res = check_process(None, st)
            assert res.ok, res.first_error()


class TestExplore:
    def test_diamond(self):
        s, r = sname("s"), sname("r")
        p = Res(
            s,
            SOut((U_SINK,), END),
            Res(r, SOut((U_SINK,), END), Par(comm_pair(s), comm_pair(r))),
        )
        ex = explore(p, fuel=10)
        # the two one-step states are alpha-equivalent, so three classes
        assert len(ex.states) == 3
        assert not ex.truncated
        assert set(ex.terminals.values()) == {"inert"}

    def test_truncation(self):
        s = sname("s")
        p = Res(s, SOut((U_SINK,), END), comm_pair(s))
        ex = explore(p, fuel=0)
        assert ex.truncated

    def test_counters_of_reuse_and_cuts(self):
        # two sessions that tell their states apart: four states, four edges
        p = Par(bool_session(sname("s"), True), bool_session(sname("r"), False))
        ex = explore(p)
        assert (len(ex.states), ex.edges) == (4, 4)
        # each comm fires in two states and makes its components once
        assert ex.stats["steps_reused"] == 2
        assert (ex.stats["cut_by_fuel"], ex.stats["cut_by_max_states"]) == (0, 0)
        assert not ex.truncated
        # both states at depth 1 have a redex left
        ex = explore(p, fuel=1)
        assert (ex.stats["cut_by_fuel"], ex.stats["cut_by_max_states"]) == (2, 0)
        assert ex.truncated
        # one state at depth 1 and the one at depth 2 are reached but not kept
        ex = explore(p, max_states=2)
        assert len(ex.states) == 2
        assert (ex.stats["cut_by_fuel"], ex.stats["cut_by_max_states"]) == (0, 2)
        assert ex.truncated

    def test_an_edge_resolved_by_its_components_meets_the_cut(self):
        # three sessions: states at depth 2 are reached along two
        # interleavings, the second resolved by the components it reaches
        sessions = (("s", True), ("r", False), ("q", True))
        p = parallel([bool_session(sname(c), v) for c, v in sessions])
        ex = explore(p, max_states=4)
        assert (len(ex.states), ex.edges) == (4, 9)
        # those edges reach states left out, and are cut, not deduplicated
        assert ex.stats["identity_hits"] == 3
        assert (ex.stats["dedup_hits"], ex.stats["cut_by_max_states"]) == (0, 2)

    @pytest.mark.parametrize("bound", [0, -1])
    def test_max_states_below_one_raises(self, bound):
        with pytest.raises(SemanticsError, match="max_states"):
            explore(bool_session(sname("s"), True), max_states=bound)

    def test_negative_fuel_raises(self):
        p = bool_session(sname("s"), True)
        for call in (run, explore):
            with pytest.raises(SemanticsError, match="fuel must be at least 0, not -1"):
                call(p, fuel=-1)
        assert run(p, fuel=0).status == "fuel" and len(explore(p, fuel=0).states) == 1

    def test_states_are_materialized_when_read(self, monkeypatch):
        sessions = (("s", True), ("r", False), ("q", True))
        p = parallel([rpc_session(sname(c), v) for c, v in sessions])
        calls = []

        def counted(parts):
            calls.append(None)
            return parallel(parts)

        monkeypatch.setattr(semantics, "parallel", counted)
        ex = explore(p)
        keys = list(ex.states)
        assert len(ex.states) == len(set(keys)) > 1
        assert all(k in ex.states for k in keys) and "?" not in ex.states
        assert not calls
        values = [ex.states[k] for k in keys]
        assert len(calls) == len(keys)
        # a value read again is the term kept from the first read
        assert all(ex.states[k] is t for k, t in zip(keys, values))
        assert repr(ex.states) == repr(dict(zip(keys, values)))
        assert len(calls) == len(keys)
        for k, t in zip(keys, values):
            assert normalize(t) == t and canonical_key(t) == k

    def test_keys_are_printed_when_read(self, monkeypatch):
        sessions = (("s", True), ("r", False), ("q", True))
        p = parallel([rpc_session(sname(c), v) for c, v in sessions])
        first = canonical_key(p)
        printed = []
        text = semantics._text

        def counted(key):
            printed.append(key)
            return text(key)

        monkeypatch.setattr(semantics, "_text", counted)
        looked_up = explore(p)
        ex = explore(p)
        assert len(ex.states) == len(ex.depth) > len(ex.terminals) > 0 and ex.edges
        assert set(ex.terminals.values()) == {"inert"} and not ex.truncated
        assert len(ex.states.values()) == len(ex.states) and not printed
        # a lookup by text prints every key once, before any iteration
        assert looked_up.depth[first] == 0 and first in looked_up.states
        assert looked_up.terminals.get(first) is None and "?" not in looked_up.depth
        assert len(printed) == len(looked_up.states)
        del printed[:]
        keys = list(ex.states)
        assert len(printed) == len(keys) == len(set(keys)) == len(ex.states)
        # the three mappings share what is printed
        assert list(ex.states) == list(ex.depth) == keys and not set(ex.terminals) - set(keys)
        assert len(printed) == len(keys)
        assert ex.depth[first] == 0 and first in ex.states and ex.terminals.get(first) is None
        assert all(ex.terminals.get(k) == "inert" for k in ex.terminals)
        assert len(printed) == len(keys)
        # breadth-first, as the states were reached
        depths = [ex.depth[k] for k in keys]
        assert depths == sorted(depths) == list(ex.depth.values())
        assert ex.depth == dict(zip(keys, depths)) != dict(zip(keys, depths[::-1]))
        assert ex.terminals == looked_up.terminals and ex.depth == looked_up.depth

    def test_products_with_a_restriction_are_not_reused(self):
        # hoisting a released binder depends on the state, so a comm that
        # releases one makes its components afresh wherever it fires
        dead = Res(sname("d"), END, Inact())
        p = Par(bool_session(sname("s"), True, dead), bool_session(sname("r"), False, dead))
        ex = explore(p)
        assert (len(ex.states), ex.edges) == (4, 4)
        assert ex.stats["steps_reused"] == ex.stats["identity_hits"] == 0

    def test_what_a_sender_made_is_kept_apart_per_partner(self):
        # two servers on one shared name: the client's two redexes make
        # different states from the same sender
        a, b, c = (Name(x, None, False, "shared") for x in "abc")
        x = Var("x")
        servers = [Input(a, (x,), Output(n, (x,), Inact())) for n in (b, c)]
        p = parallel([Output(a, (Lit(1),), Inact()), *servers])
        want = {canonical_key(p)} | {canonical_key(apply_redex(p, r)) for r in enabled(p)}
        ex = explore(p)
        assert set(ex.states) == want and len(want) == 3
        assert (ex.edges, len(ex.terminals)) == (2, 2)
