"""Normal form, canonical state identity, stepping, policy order, and the
exhaustive explorer."""

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
    apply_redex,
    canonical_key,
    enabled,
    explore,
    normalize,
    run,
    state_equal,
)
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

        assert state_equal(mk("a"), mk("b"))

    def test_alpha_invariance_of_binders(self):
        s = sname("s")

        def mk(v):
            return Input(s, (Var(v),), App(Var(v), (Lit(True),)))

        assert state_equal(mk("x"), mk("y"))

    def test_free_names_distinguish(self):
        assert not state_equal(
            Output(sname("s"), (SINK,), Inact()),
            Output(sname("r"), (SINK,), Inact()),
        )

    def test_types_do_not_distinguish_states(self):
        s = sname("s")
        p = Res(s, SOut((U_SINK,), END), comm_pair(s))
        q = Res(s, END, comm_pair(s))
        assert state_equal(p, q)



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
            "nu n1.((n1<l{x}.k}{1.None.session!(lin(v2){0}).0"
            "|n1~>{l{x}:app(fv:f{.None)(lit:int:1,k}{1.None.session~);}r:0}))"
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
