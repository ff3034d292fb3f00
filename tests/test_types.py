import pytest

from minsess.types import (
    BOOL,
    INT,
    SBra,
    SEnd,
    SIn,
    SOut,
    SRec,
    SSel,
    SVar,
    TArrow,
    TBase,
    TChan,
    TypeError_,
    balanced,
    canon_key,
    dual,
    env_step,
    envdecomp,
    equal_types,
    findex,
    format_type,
    gdecomp,
    gdecomp_params,
    gdecomp_val,
    gwidth,
    is_minimal,
    free_tvars,
    is_tail_recursive,
    rsdecomp,
    remake,
    unfold,
    unfold_top,
)
from minsess.terms import Name, Var, encode_nptype

END = SEnd()

# the equality-service protocol: two queries in, one verdict out
EQ_SERVICE = SIn((INT,), SIn((INT,), SOut((BOOL,), END)))

# three-action loop used throughout the recursive tests
LOOP = SRec("t", SIn((INT,), SIn((BOOL,), SOut((BOOL,), SVar("t")))))


def test_gdecomp_eq_service():
    assert gdecomp(EQ_SERVICE) == [
        SIn((INT,), END),
        SIn((INT,), END),
        SOut((BOOL,), END),
    ]


def test_gdecomp_end():
    assert gdecomp(END) == [END]


def test_gdecomp_single_prefix():
    u = TArrow((END,), shared=True)
    assert gdecomp(SOut((u,), END)) == [SOut((u,), END)]


def test_gdecomp_tail_recursive_loop():
    assert gdecomp(LOOP) == [
        SRec("t", SIn((INT,), SVar("t"))),
        SRec("t", SIn((BOOL,), SVar("t"))),
        SRec("t", SOut((BOOL,), SVar("t"))),
    ]


def test_rsdecomp_skips_prefixes():
    partial = SIn((BOOL,), SOut((BOOL,), LOOP))
    assert rsdecomp(partial) == gdecomp(LOOP)


def test_rsdecomp_single():
    t = SRec("t", SOut((INT,), SVar("t")))
    assert rsdecomp(t) == [t]


def test_rsdecomp_skip_then_recurse():
    u = TArrow((END,), shared=True)
    t = SOut((u,), SRec("t", SIn((u,), SVar("t"))))
    assert rsdecomp(t) == [SRec("t", SIn((u,), SVar("t")))]


def test_rsdecomp_rejects_nonrecursive():
    with pytest.raises(TypeError_):
        rsdecomp(EQ_SERVICE)


def test_findex_values():
    assert findex(LOOP) == 1
    assert findex(SIn((BOOL,), SOut((BOOL,), LOOP))) == 2
    assert findex(SOut((BOOL,), LOOP)) == 3


def test_findex_rejects_nonrecursive():
    with pytest.raises(TypeError_):
        findex(EQ_SERVICE)


def test_dual_basics():
    assert dual(END) == END
    u = TArrow((END,), shared=True)
    assert dual(SOut((u,), END)) == SIn((u,), END)
    two = SRec("t", SIn((INT,), SOut((INT,), SVar("t"))))
    assert dual(two) == SRec("t", SOut((INT,), SIn((INT,), SVar("t"))))


def test_dual_swaps_choices():
    s = SSel((("a", END), ("b", SOut((INT,), END))))
    assert dual(s) == SBra((("a", END), ("b", SIn((INT,), END))))


def test_dual_involution_samples():
    samples = [
        END,
        EQ_SERVICE,
        LOOP,
        SSel((("l", SIn((BOOL,), END)),)),
        SBra((("l", END), ("r", LOOP))),
    ]
    for s in samples:
        assert dual(dual(s)) == s


def test_dual_payload_recursion_unfolds():
    # the recursion variable rides inside the payload, not on the spine:
    # the swap must apply to the unfolding
    tr = SRec("t", SIn((TArrow((END, SVar("t")), shared=True),), END))
    expect = SOut((TArrow((END, tr), shared=True),), END)
    assert dual(tr) == expect
    assert dual(expect) == SIn((TArrow((END, tr), shared=True),), END)


def test_dual_mixed_recursion_rejected():
    mixed = SRec("t", SIn((TArrow((SVar("t"),), shared=True),), SVar("t")))
    with pytest.raises(TypeError_):
        dual(mixed)


def test_rec_binder_shadowed_in_a_payload():
    # the inner binder hides t, so the outer t occurs on the spine alone
    inner = SRec("t", SOut((INT,), SVar("t")))
    t = SRec("t", SOut((TArrow((inner,), False),), SVar("t")))
    assert is_tail_recursive(t)
    assert format_type(dual(t)) == "rec t.?<lin(rec t.!<Int>;t)>;t"


def test_is_tail_recursive():
    assert is_tail_recursive(LOOP)
    assert not is_tail_recursive(EQ_SERVICE)
    payload_rec = SRec("t", SIn((TArrow((END, SVar("t")), shared=True),), END))
    assert not is_tail_recursive(payload_rec)


def test_is_minimal():
    assert is_minimal(END)
    assert is_minimal(SIn((INT,), END))
    assert not is_minimal(SIn((INT,), SIn((INT,), END)))
    assert is_minimal(SRec("t", SIn((INT,), SVar("t"))))
    assert not is_minimal(LOOP)
    # payload recursion in the one-prefix form stays minimal
    assert is_minimal(SRec("t", SIn((TArrow((END, SVar("t")), shared=True),), END)))
    # choices are minimal when every branch is
    assert is_minimal(SBra((("l", SOut((TArrow((END,), False),), END)),)))
    assert not is_minimal(SBra((("l", SIn((INT,), SIn((INT,), END))),)))


def test_gdecomp_results_are_minimal():
    for s in (EQ_SERVICE, LOOP, SBra((("l", EQ_SERVICE),)), SSel((("l", EQ_SERVICE),))):
        for m in gdecomp(s):
            assert is_minimal(m)


def test_gdecomp_branch_offers_continuations():
    inner = SOut((TArrow((END,), shared=True),), END)
    got = gdecomp(SBra((("go", inner),)))
    assert len(got) == 1
    (label, carried), = got[0].branches
    assert label == "go"
    assert carried == SOut((TArrow(tuple(gdecomp(inner)), shared=False),), END)


def test_gdecomp_select_receives_dual_continuations():
    inner = SOut((TArrow((END,), shared=True),), END)
    got = gdecomp(SSel((("go", inner),)))
    (label, carried), = got[0].branches
    assert carried == SIn((TArrow(tuple(gdecomp(dual(inner))), shared=False),), END)


@pytest.mark.parametrize("cont", [
    # a payload-recursive loop two prefixes long: dual unfolds it
    SRec("t", SIn((TArrow((END, SVar("t")), shared=True),), SIn((INT,), END))),
    # a loop around a choice: its parts carry the variable in a payload
    SRec("t", SSel((("a", SOut((INT,), SVar("t"))), ("b", END)))),
], ids=["payload-loop", "choice-loop"])
def test_gdecomp_select_over_nontail_recursion(cont):
    # the arm carries the decomposition of the dual continuation, which
    # here is not the duals of the continuation's parts
    got = gdecomp(SSel((("l", cont),)))
    (label, carried), = got[0].branches
    parts = gdecomp(dual(cont))
    assert carried == SIn((TArrow(tuple(parts), shared=False),), END)
    assert [canon_key(g) for g in parts] != [canon_key(dual(g)) for g in gdecomp(cont)]


def test_gdecomp_select_over_payload_loop_prints():
    cont = SRec("t", SIn((TArrow((END, SVar("t")), shared=True),), SIn((INT,), END)))
    assert format_type(gdecomp(SSel((("l", cont),)))[0]) == (
        "+{l: ?<lin(!<un(end,rec t.?<un(end,t)>;end,rec t.?<Int>;end)>;end,!<Int>;end)>;end}"
    )


def test_gdecomp_nontail_recursion_wraps_pointwise():
    payload_rec = SRec("t", SIn((TArrow((END, SVar("t")), shared=True),), END))
    got = gdecomp(payload_rec)
    assert got == [payload_rec]
    assert all(is_minimal(m) for m in got)


def test_gdecomp_params_flatten_sessions():
    params = (EQ_SERVICE, TChan(TArrow((END,), shared=True)), INT)
    flat = gdecomp_params(params)
    assert len(flat) == 3 + 1 + 1
    assert gwidth(EQ_SERVICE) == 3
    assert gwidth(params[1]) == 1


def test_envdecomp_expands_session_entries():
    s1 = Name("s", 1)
    # a session-typed variable is indexed in place like a name
    env = {s1: EQ_SERVICE, Var("x", 1): SOut((INT,), SIn((BOOL,), END))}
    got = envdecomp(env)
    assert got == {
        Name("s", 1): SIn((INT,), END),
        Name("s", 2): SIn((INT,), END),
        Name("s", 3): SOut((BOOL,), END),
        Var("x", 1): SOut((INT,), END),
        Var("x", 2): SIn((BOOL,), END),
    }


def test_envdecomp_pointwise_on_shared():
    a = Name("a", 1, False, "shared")
    u = TArrow((EQ_SERVICE,), shared=False)
    got = envdecomp({a: TChan(u)})
    assert got == {a: TChan(TArrow(tuple(gdecomp(EQ_SERVICE)), shared=False))}


def test_envdecomp_rejects_unindexed():
    with pytest.raises(TypeError_):
        envdecomp({Name("s"): EQ_SERVICE})


def test_balanced():
    s, sd = Name("s", 1), Name("s", 1, True)
    u = TArrow((END,), shared=True)
    assert balanced({})
    assert balanced({s: SOut((u,), END), sd: SIn((u,), END)})
    assert not balanced({s: SOut((u,), END), sd: SOut((u,), END)})
    # unmatched endpoints are vacuously fine
    assert balanced({s: SOut((u,), END)})


def test_env_step_send():
    s, sd = Name("s", 1), Name("s", 1, True)
    u = TArrow((END,), shared=True)
    nxt = env_step({s: SOut((u,), END), sd: SIn((u,), END)})
    assert nxt == [{s: END, sd: END}]


def test_env_step_choice():
    s, sd = Name("s", 1), Name("s", 1, True)
    sel = SSel((("a", END), ("b", SOut((INT,), END))))
    nxt = env_step({s: sel, sd: dual(sel)})
    assert {canon_key(d[s]) for d in nxt} == {canon_key(END), canon_key(SOut((INT,), END))}


def test_env_step_unfolds_recursion():
    s, sd = Name("s", 1), Name("s", 1, True)
    nxt = env_step({s: LOOP, sd: dual(LOOP)})
    assert len(nxt) == 1
    assert equal_types(nxt[0][s], SIn((BOOL,), SOut((BOOL,), LOOP)))


def test_variable_keys_have_no_partner():
    # the checker keys session-typed abstraction parameters by variable
    x, s, sd = Var("x"), Name("s", 1), Name("s", 1, True)
    lone = {x: SOut((INT,), END)}
    assert balanced(lone)
    assert env_step(lone) == []
    assert env_step({**lone, s: SOut((INT,), END), sd: SIn((INT,), END)}) == [
        {x: SOut((INT,), END), s: END, sd: END}]


def test_equal_types_unfolding():
    assert equal_types(LOOP, unfold(LOOP))
    assert not equal_types(LOOP, dual(LOOP))
    assert equal_types(SRec("a", SIn((INT,), SVar("a"))), SRec("b", SIn((INT,), SVar("b"))))


def test_unfold_renames_a_binder_that_would_capture():
    # unfolding puts T under `rec b`, where T's free b would be captured
    t = SRec("a", SSel((("l", SVar("b")), ("r", SRec("b", SIn((INT,), SVar("a")))))))
    once = unfold(t)
    assert format_type(once) == "+{l: b, r: rec b'.?<Int>;rec a.+{l: b, r: rec b.?<Int>;a}}"
    assert free_tvars(once) == {"b"}
    u = SRec("b", SOut((INT,), t))
    assert equal_types(u, unfold(u))


def test_type_alpha_eq_binders():
    assert canon_key(SRec("a", SIn((INT,), SVar("a")))) == canon_key(SRec("b", SIn((INT,), SVar("b"))))
    assert canon_key(LOOP) != canon_key(unfold(LOOP))


def test_format_type_surface():
    assert format_type(EQ_SERVICE) == "?<Int>;?<Int>;!<Bool>;end"
    assert format_type(LOOP) == "rec t.?<Int>;?<Bool>;!<Bool>;t"
    assert format_type(TChan(TArrow((END,), shared=True))) == "chan un(end)"
    assert format_type(SSel((("a", END),))) == "+{a: end}"


# two pairs of loops that print alike: a label and a base name holding
# key punctuation, against two labels and two parameters
LABELLED = (SRec("t", SSel((("x:e,y", END),))), SRec("t", SSel((("x", END), ("y", END)))))
BASE_NAMED = (
    SRec("t", SIn((TArrow((TBase("Int,e"),), False),), SVar("t"))),
    SRec("t", SIn((TArrow((INT, END), False),), SVar("t"))),
)


@pytest.mark.parametrize("pair", [LABELLED, BASE_NAMED], ids=["labels", "base-names"])
def test_keys_separate_types_whose_names_hold_punctuation(pair):
    t, u = pair
    assert canon_key(t) != canon_key(u)
    assert not equal_types(t, u) and not equal_types(u, t)
    assert t != u and equal_types(t, t) and equal_types(u, u)


def test_keys_mark_names_that_print_like_syntax():
    # a base named end, a free variable and a bound one each key apart
    ends = [END, TBase("end"), SVar("end"), SRec("end", SOut((INT,), SVar("end")))]
    assert len({canon_key(TArrow((c,), False)) for c in ends}) == len(ends)
    assert canon_key(SRec("a", SOut((SVar("b"),), SVar("a")))) == "rec %0.!<@b>;%0"
    assert canon_key(SSel((("go on", END),))) == "+{$5:go on: end}"
    assert format_type(SSel((("go on", END),))) == "+{go on: end}"


def test_equality_is_structural_and_hashes_by_key():
    again = SRec("t", SIn((INT,), SIn((BOOL,), SOut((BOOL,), SVar("t")))))
    assert LOOP == again and hash(LOOP) == hash(again)
    renamed = SRec("u", SIn((INT,), SIn((BOOL,), SOut((BOOL,), SVar("u")))))
    assert LOOP != renamed and equal_types(LOOP, renamed)
    assert LOOP != unfold(LOOP) and equal_types(LOOP, unfold(LOOP))
    assert END != INT and INT != "Int" and len({INT, TBase("Int"), BOOL}) == 2


def test_remake_keeps_what_a_node_carries():
    t = SOut((INT, BOOL), END)
    assert remake(t, (BOOL, INT, LOOP)) == SOut((BOOL, INT), LOOP)
    assert remake(t, (LOOP,), SIn) == SIn((INT, BOOL), LOOP)
    arms = SSel((("a", END), ("b", END)))
    assert remake(arms, (LOOP, END), SBra) == SBra((("a", LOOP), ("b", END)))
    assert remake(TArrow((END,), True), (LOOP,)) == TArrow((LOOP,), True)
    assert remake(INT, ()) is INT


def test_unfold_top_strips_any_number_of_leading_binders():
    # each unfolding strips one leading binder, since no body is a bare
    # variable; a bound of 64 unfoldings used to reject this type
    t = SOut((INT,), SVar("t0"))
    for i in range(100):
        t = SRec(f"t{i}", t)
    head = unfold_top(t)
    assert isinstance(head, SOut) and head.payload == (INT,)
    assert equal_types(head, t) and equal_types(head.cont, t)


@pytest.mark.parametrize("make,message", [
    (lambda: SOut((), END), "output type needs a non-empty payload tuple"),
    (lambda: SIn((), END), "input type needs a non-empty payload tuple"),
    (lambda: TArrow((), False), "arrow type needs at least one parameter"),
    (lambda: SSel(()), "choice type needs at least one branch"),
    (lambda: SBra((("a", END), ("a", END))), "duplicate branch labels: ['a', 'a']"),
    (lambda: dual("x"), "unknown type node 'x'"),
    (lambda: dual(INT), "dual undefined for Int"),
    (lambda: gdecomp_val(END), "not a value type: end"),
    (lambda: gdecomp_params((TArrow((END,), False),)), "not a channel parameter type: lin(end)"),
    (lambda: rsdecomp(SRec("t", SSel((("a", SVar("t")),)))), "recursive core is not tail-recursive"),
], ids=["output", "input", "arrow", "choice", "labels", "unknown-node", "dual-value",
        "value-type", "parameter-type", "rec-core"])
def test_type_errors_as_printed(make, message):
    with pytest.raises(TypeError_) as raised:
        make()
    assert str(raised.value) == message


def test_contractivity_enforced():
    with pytest.raises(TypeError_):
        SRec("t", SVar("t"))


LONG = 3000
HO = TArrow((SOut((BOOL,), END),), shared=False)


def long_protocol(var=None, last=BOOL):
    """LONG prefixes cycling through an Int output, a higher-order input,
    a binary selection whose other arm ends, and a Bool input, the last
    one of type last, and the dual built alongside; with var, messages
    only, closed by var."""
    t = d = END if var is None else SVar(var)
    for i in reversed(range(LONG)):
        kind = i % 4 if var is None else i % 2 * 3
        if kind == 0:
            t, d = SOut((INT,), t), SIn((INT,), d)
        elif kind == 1:
            t, d = SIn((HO,), t), SOut((HO,), d)
        elif kind == 2:
            t, d = SSel((("go", t), ("stop", END))), SBra((("go", d), ("stop", END)))
        else:
            u = last if i == LONG - 1 else BOOL
            t, d = SIn((u,), t), SOut((u,), d)
    return t, d


def test_type_queries_walk_long_protocols():
    t, d = long_protocol()
    again, _ = long_protocol()
    assert canon_key(dual(t)) == canon_key(d)
    assert canon_key(dual(d)) == canon_key(t)
    assert canon_key(t) == canon_key(again) and t is not again
    assert equal_types(t, again) and not equal_types(t, d)
    assert free_tvars(t) == set()
    assert not is_minimal(t)
    assert format_type(t).count("+{") == LONG // 4
    # a selection ends the list of parts: the rest rides in its arm, as the
    # decomposition of the dual continuation, one nesting level per choice
    first, second, sel = gdecomp(t)
    assert all(is_minimal(g) for g in (first, second, sel))
    assert format_type(sel).count("&{") == LONG // 4 - 1


def test_long_types_compare_and_hash_without_recursion():
    t, d = long_protocol()
    again, _ = long_protocol()
    assert t == again and hash(t) == hash(again) and t != d
    # a difference at the far end: the last input reads an Int
    near, _ = long_protocol(last=INT)
    assert near != t and hash(near) != hash(t) and not equal_types(near, t)


def test_repr_is_the_surface_syntax_of_long_protocols():
    # so that a failing assertion on a long type prints it
    t, _ = long_protocol()
    loop = SRec("t", long_protocol(var="t")[0])
    assert repr(t) == format_type(t)
    assert repr([loop]) == f"[{format_type(loop)}]"
    assert repr(HO) == "lin(!<Bool>;end)"


def test_encode_nptype_walks_long_protocols():
    def pkg(c):
        return TArrow((SIn((TArrow((c,), False),), END),), False)

    delegated = SIn((INT,), END)
    t = want = END
    for i in reversed(range(LONG)):
        if i % 2:
            t, want = SOut((INT,), t), SOut((pkg(INT),), want)
        else:
            t, want = SIn((delegated,), t), SIn((pkg(encode_nptype(delegated)),), want)
    assert canon_key(encode_nptype(t)) == canon_key(want)
    assert canon_key(encode_nptype(dual(t))) == canon_key(dual(want))


def test_tail_recursive_long_protocol():
    body, dbody = long_protocol(var="t")
    loop = SRec("t", body)
    assert is_tail_recursive(loop)
    assert free_tvars(body) == {"t"} and free_tvars(loop) == set()
    assert canon_key(dual(loop)) == canon_key(SRec("t", dbody))
    assert equal_types(loop, unfold(loop))
    assert equal_types(SRec("u", long_protocol(var="u")[0]), loop)
    parts = gdecomp(loop)
    assert len(parts) == LONG and all(is_minimal(g) for g in parts)
    assert findex(loop) == 1 and findex(unfold(loop).cont) == 2
