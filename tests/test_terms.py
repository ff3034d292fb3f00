from collections import Counter
from dataclasses import fields

import pytest

from minsess import terms
from minsess.terms import (
    Abs,
    App,
    Branch,
    Inact,
    Input,
    Lit,
    Name,
    NameSupply,
    Output,
    Par,
    Memo,
    Rendering,
    Res,
    Select,
    TermError,
    Var,
    alpha_eq,
    encode_namepass,
    encode_nptype,
    free_names,
    free_vars,
    init_names,
    init_subst,
    is_prop,
    iter_subterms,
    is_reserved,
    prop_name,
    rec_server_name,
    rename_channel,
    substitute,
    Tail,
    template,
    trampoline,
    used_bases,
)
from minsess.types import BOOL, INT, SEnd, SIn, SOut, SRec, SVar, TArrow, TChan, TypeError_, canon_key

END = SEnd()
U_SH = TArrow((END,), shared=True)


def test_name_polarity():
    s = Name("s", 1)
    assert s.dualized() == Name("s", 1, True)
    assert s.dualized().dualized() == s
    a = Name("a", kind="shared")
    assert a.dualized() == a


def test_shared_names_reject_dual_flag():
    with pytest.raises(TermError):
        Name("a", None, True, "shared")


def test_reserved_names():
    c3 = prop_name(3)
    assert is_prop(c3) and is_reserved(c3)
    assert c3.index == 3
    assert is_reserved(rec_server_name(Name("a", 1, True)))
    assert rec_server_name(Name("a", 1, True)) == rec_server_name(Name("a", 7, True))
    assert rec_server_name(Name("a", 1, True)) != rec_server_name(Name("a", 1))


def test_free_vars_ordering():
    assert free_vars(Inact()) == []
    u, y = Name("u"), Var("y")
    assert free_vars(Output(u, (y,), Inact())) == [y]
    # first occurrence wins, preorder
    p = Par(Output(u, (Var("b"), Var("a")), Inact()), App(Var("a"), ()))
    assert free_vars(p) == [Var("b"), Var("a")]


def test_free_vars_closed_package():
    m1 = Name("m", 1)
    v = Abs(
        ((Var("z"), SIn((TArrow((SOut((U_SH,), END),), False),), END)),),
        Input(Var("z"), (Var("x"),), App(Var("x"), (m1,))),
        shared=False,
    )
    assert free_vars(v) == []
    assert free_names(v) == [m1]


def test_res_binds_both_polarities():
    s = Name("s")
    body = Par(Output(s, (Lit(True),), Inact()), Input(s.dualized(), (Var("b"),), Inact()))
    assert free_names(Res(s, SOut((BOOL,), END), body)) == []
    assert free_names(body) == [s, s.dualized()]


def test_init_names():
    a, b = Name("a", kind="shared"), Name("s")
    assert init_names([a, b, b.dualized()]) == [
        Name("a", 1, False, "shared"),
        Name("s", 1),
        Name("s", 1, True),
    ]
    assert init_names([]) == []
    with pytest.raises(TermError):
        init_names([Name("s", 2)])


def test_init_subst_polarity_preserving():
    s = Name("s")
    p = Par(Output(s, (Lit(1),), Inact()), Input(s.dualized(), (Var("x"),), Inact()))
    sigma = init_subst(p)
    got = substitute(p, sigma)
    assert free_names(got) == [Name("s", 1), Name("s", 1, True)]


def test_substitute_variable_for_value():
    x, u = Var("x"), Name("u", 1)
    v = Abs(((Var("z"), END),), Inact(), shared=False)
    assert substitute(App(x, (u,)), {x: v}) == App(v, (u,))


def test_substitute_index_shift():
    u1, u2 = Name("u", 1), Name("u", 2)
    p = Output(u1, (Var("y"),), Input(u1, (Var("z"),), Inact()))
    got = substitute(p, {u1: u2})
    assert got == Output(u2, (Var("y"),), Input(u2, (Var("z"),), Inact()))


def test_substitute_avoids_capture():
    x, y, u = Var("x"), Var("y"), Name("u", 1)
    # u?(y). x (y)  with x := y  must not capture the binder
    p = Input(u, (y,), App(x, (y,)))
    got = substitute(p, {x: y})
    assert isinstance(got, Input)
    binder = got.binders[0]
    assert binder != y
    assert got.cont == App(y, (binder,))


def test_substitute_input_binder_shadows():
    x, u = Var("x"), Name("u", 1)
    v = Abs(((Var("z"), END),), Inact(), shared=False)
    # u?(x). x (u)  with x := v : the binder shadows x, nothing changes
    p = Input(u, (x,), App(x, (u,)))
    assert substitute(p, {x: v}) == p


def test_substitute_input_shadows_and_renames():
    x, y, w, u = Var("x"), Var("y"), Var("w"), Name("u", 1)
    v = Abs(((Var("z"), BOOL),), Inact(), shared=False)
    # u?(x, y). (x true | w y)  with x := v, w := y : x is shadowed, y renamed
    p = Input(u, (x, y), Par(App(x, (Lit(True),)), App(w, (y,))))
    got = substitute(p, {x: v, w: y})
    assert got.binders[0] == x
    y2 = got.binders[1]
    assert y2 != y
    assert got.cont == Par(App(x, (Lit(True),)), App(y, (y2,)))


def test_substitute_index_shift_through_abs_input():
    u1, u2 = Name("u", 1), Name("u", 2)
    z, y = Var("z"), Var("y")
    body = Input(u1, (y,), App(y, (u1,)))
    v = Abs(((z, END),), body, shared=False)
    got = substitute(v, {u1: u2})
    assert got == Abs(((z, END),), Input(u2, (y,), App(y, (u2,))), shared=False)


def test_substitute_name_into_subject():
    x, u = Var("x"), Name("u", 1)
    p = Output(x, (Lit(0),), Inact())
    got = substitute(p, {x: u})
    assert got == Output(u, (Lit(0),), Inact())


def test_a_renamed_binder_is_not_substituted_again():
    # the capturing binder y is renamed to y', which sigma also maps: the
    # renaming and sigma apply at once, so y' stays bound
    s, x, y, y1 = Name("s"), Var("x"), Var("y"), Var("y'")
    got = substitute(Input(s, (y,), Output(s, (x, y), Inact())), {x: y, y1: Lit(5)})
    assert got == Input(s, (y1,), Output(s, (y, y1), Inact()))


def test_substitute_rejects_name_in_payload():
    x, u = Var("x"), Name("u", 1)
    p = Output(Name("n", 1), (x,), Inact())
    with pytest.raises(TermError):
        substitute(p, {x: u})


def test_rename_channel_covers_both_ends():
    s, t = Name("s"), Name("t")
    sigma = rename_channel(s, t)
    p = Par(Output(s, (Lit(1),), Inact()), Input(s.dualized(), (Var("x"),), Inact()))
    got = substitute(p, sigma)
    assert free_names(got) == [t, t.dualized()]


def test_iter_subterms_preorder_with_subjects_args_and_binders():
    s, f, x = Name("s"), Var("f"), Var("x")
    out = Output(s, (Lit(1),), Inact())
    app = App(f, (prop_name(4),))
    sel = Select(s, "l", app)
    bra = Branch(s.dualized(), (("l", out), ("r", Inact())))
    p = Res(prop_name(2), END, Par(Par(out, Input(s.dualized(), (x,), sel)), bra))
    assert list(iter_subterms(p)) == [
        p, prop_name(2), p.body, p.body.left,
        out, s, Lit(1), Inact(),
        p.body.left.right, s.dualized(), x, sel, s, app, f, prop_name(4),
        bra, s.dualized(), out, s, Lit(1), Inact(), Inact(),
    ]


def test_used_bases_include_binders_that_never_occur():
    s, x, z = Name("s"), Var("x"), Var("z")
    p = Res(s, SIn((INT,), END), Input(s, (x,), App(Abs(((z, END),), Inact()), (s.dualized(),))))
    assert list(iter_subterms(p.body.cont.fun)) == [p.body.cont.fun, z, Inact()]
    assert used_bases(p) == {"s", "x", "z"}


def test_iter_subterms_walks_long_continuations():
    p = Inact()
    for _ in range(5000):
        p = Output(Name("s"), (Lit(1),), p)
    assert sum(1 for _ in iter_subterms(p)) == 3 * 5000 + 1


def test_free_names_vars_and_bases_walk_long_sessions():
    s, t, x, k = Name("s"), Name("t"), Var("x"), Var("k")
    p = App(k, (t,))
    for _ in range(2500):
        p = Input(s, (x,), Output(s.dualized(), (x,), p))
    assert free_names(p) == [s, s.dualized(), t]
    assert free_vars(p) == [k]
    assert used_bases(p) == {"s", "t", "x", "k"}


def test_alpha_eq_positive():
    s, t = Name("s"), Name("t")
    v = Abs(((Var("z"), END),), Inact(), shared=False)
    a = Res(s, SOut((U_SH,), END), Output(s, (v,), Inact()))
    b = Res(t, SOut((U_SH,), END), Output(t, (v,), Inact()))
    assert alpha_eq(a, b)
    lam1 = Abs(((Var("x"), END),), App(Var("x"), (Name("u", 1),)), shared=False)
    lam2 = Abs(((Var("y"), END),), App(Var("y"), (Name("u", 1),)), shared=False)
    assert alpha_eq(lam1, lam2)


def test_alpha_eq_negative():
    u = Name("u", 1)
    a = Input(u, (Var("x"),), Inact())
    b = Input(u, (Var("x"),), App(Var("x"), ()))
    assert not alpha_eq(a, b)
    # free/bound confusion must not be accepted
    assert not alpha_eq(
        Abs(((Var("x"), END),), App(Var("y"), ()), shared=False),
        Abs(((Var("y"), END),), App(Var("y"), ()), shared=False),
    )
    # literal kinds matter
    assert not alpha_eq(Lit(True), Lit(1))


def test_binders_are_numbered_in_order():
    s, t, x, y = Name("s"), Name("t"), Var("x"), Var("y")
    first = Input(s, (x, y), Output(t, (x,), Inact()))
    assert template(first) == ("s.None.session?(v{0},v{1}).t.None.session!(v{0}).0", 2)
    assert not alpha_eq(first, Input(s, (x, y), Output(t, (y,), Inact())))
    assert alpha_eq(
        Abs(((x, INT), (y, INT)), Output(t, (x,), Inact()), shared=False),
        Abs(((y, INT), (x, INT)), Output(t, (y,), Inact()), shared=False),
    )


def test_alpha_eq_compares_annotations():
    s = Name("s")
    send = Output(s, (Lit(1),), Inact())
    assert not alpha_eq(Res(s, SOut((INT,), END), send), Res(s, SOut((BOOL,), END), send))
    assert not alpha_eq(
        Abs(((Var("x"), INT),), Inact(), shared=False),
        Abs(((Var("x"), BOOL),), Inact(), shared=False),
    )


def test_alpha_eq_renames_recursion_binders_in_annotations():
    s, t = Name("s"), Name("t")
    loop_a = SRec("a", SOut((INT,), SVar("a")))
    loop_b = SRec("b", SOut((INT,), SVar("b")))
    assert alpha_eq(
        Res(s, loop_a, Output(s, (Lit(1),), Inact())),
        Res(t, loop_b, Output(t, (Lit(1),), Inact())),
    )


def test_substitute_identity_is_alpha_id():
    u = Name("u", 1)
    p = Input(u, (Var("x"),), App(Var("x"), (u,)))
    assert alpha_eq(substitute(p, {}), p)


def test_encode_nptype():
    # sending a Bool-carrying channel becomes sending its package type
    np = SOut((SOut((BOOL,), END),), END)
    got = encode_nptype(np)
    inner = encode_nptype(SOut((BOOL,), END))
    package = TArrow((SIn((TArrow((inner,), False),), END),), False)
    assert got == SOut((package,), END)


def test_encode_namepass_inact():
    assert encode_namepass(Inact()) == Inact()


def test_encode_namepass_output_clause():
    n, m = Name("n"), Name("m")
    c_m = SOut((BOOL,), END)
    got = encode_namepass(Output(n, (m,), Inact()), {m: c_m})
    assert isinstance(got, Output) and got.subject == n
    (pkg,) = got.payload
    assert isinstance(pkg, Abs) and not pkg.shared
    z = pkg.params[0][0]
    inner = pkg.body
    assert isinstance(inner, Input) and inner.subject == z
    x = inner.binders[0]
    assert inner.cont == App(x, (m,))


def test_encode_namepass_input_clause():
    n, x = Name("n"), Var("x")
    c_x = SOut((BOOL,), END)
    got = encode_namepass(Input(n, (x,), Output(x, (Lit(True),), Inact())), {x: c_x})
    assert isinstance(got, Input) and got.subject == n
    y = got.binders[0]
    r = got.cont
    assert isinstance(r, Res)
    par = r.body
    assert isinstance(par, Par)
    assert par.left == App(y, (r.binder,))
    out = par.right
    assert isinstance(out, Output) and out.subject == r.binder.dualized()
    (consumer,) = out.payload
    assert isinstance(consumer, Abs)
    assert consumer.params[0][0] == x
    # the continuation was encoded recursively: the literal got packaged too
    assert isinstance(consumer.body, Output)
    assert isinstance(consumer.body.payload[0], Abs)


def test_encode_namepass_requires_types():
    n, m = Name("n"), Name("m")
    with pytest.raises(TermError):
        encode_namepass(Output(n, (m,), Inact()))


@pytest.mark.parametrize("place", [
    lambda v: Par(v, Inact()),
    lambda v: Branch(Name("u"), (("a", v), ("b", Inact()))),
], ids=["left", "arm"])
def test_encode_namepass_rejects_a_value_in_process_position(place):
    # a child before the last one, as a value in the last one always was
    with pytest.raises(TermError, match="unsupported construct for the first-order front end: Abs"):
        encode_namepass(place(Abs(((Var("x"), INT),), Inact())), {})


def test_branch_labels_unique():
    with pytest.raises(TermError):
        Branch(Name("u", 1), (("l", Inact()), ("l", Inact())))


def test_select_roundtrip_fields():
    p = Select(Name("u", 1), "go", Inact())
    assert p.label == "go"


def test_name_supply_scans_once_primes_in_order_and_resumes():
    scans = []

    def scan():
        scans.append(1)
        return {"z", "z'", "x"}

    supply = NameSupply(scan)
    assert scans == []
    assert [supply.fresh("z") for _ in range(3)] == ["z''", "z" + "'" * 3, "z" + "'" * 4]
    # a primed hint names the same family and resumes where it stopped
    assert supply.fresh("z'") == "z" + "'" * 5
    assert supply.fresh("y") == "y"
    assert supply.fresh("y") == "y'"
    assert supply.fresh("") == "x'"
    assert scans == [1]


def test_labels_with_template_punctuation_keep_terms_apart():
    s = Name("s")
    one = Branch(s, (("x:0;y", Inact()),))
    two = Branch(s, (("x", Inact()), ("y", Inact())))
    assert template(one) != template(two)
    assert not alpha_eq(one, two)
    assert not alpha_eq(Select(s, "a.b", Inact()), Select(s, "a", Select(s, "b", Inact())))


def test_name_bases_with_template_punctuation_keep_terms_apart():
    f = Var("f")
    glued = App(f, (Name("a.None.session,b"),))
    apart = App(f, (Name("a"), Name("b")))
    assert template(glued) != template(apart)
    assert not alpha_eq(glued, apart)


def test_identifier_bases_and_labels_render_verbatim():
    s, k = Name("s'"), Name("#", 2)
    p = Select(s, "go_1", Output(k, (Var("x'"),), Inact()))
    assert template(p) == ("s'.None.session<go_1.#.2.session!(fv:x'.None).0", 0)


def test_encode_namepass_clauses_share_their_binders():
    # as in the clauses, every package binds z and x and every receiving
    # side y and s, each drawn fresh for the term once
    n = 2000
    s = Name("s")
    a, b, name_types = Inact(), Inact(), {}
    for i in reversed(range(n)):
        x = Var(f"x{i}")
        name_types[x] = INT
        a, b = Output(s, (Lit(i),), a), Input(s.dualized(), (x,), b)
    source = Res(s, END, Par(a, b))
    assert used_bases(encode_namepass(source, name_types)) - used_bases(source) == {
        "z", "x", "y", "s'"
    }


def test_encode_namepass_shares_packages_of_equal_literals():
    s = Name("s")
    first = encode_namepass(Output(s, (Lit(1),), Output(s, (Lit(1),), Output(s, (Lit(True),), Inact()))))
    second, third = first.cont, first.cont.cont
    assert second.payload is first.payload
    assert third.payload != first.payload  # True is a Bool, not the Int 1


def test_literals_compare_and_hash_by_type_and_value():
    assert Lit(1) != Lit(True) and Lit(0) != Lit(False)
    assert Lit(1) == Lit(1) and hash(Lit(True)) == hash(Lit(True))
    assert len({Lit(1), Lit(True), Lit(1), Lit(0), Lit(False)}) == 4
    assert Lit(1) != 1 and Lit(1).__eq__(Var("x")) is NotImplemented


def test_encode_namepass_translates_each_type_once(monkeypatch):
    # the carrier type ?<Int>;end of the delegated channels is also a
    # payload type of s: one translation serves both
    folds = Counter()
    fold = terms.fold

    def counted(t, rule, *args, **kwargs):
        if rule is terms._np_rule:
            folds[canon_key(t)] += 1
        return fold(t, rule, *args, **kwargs)

    monkeypatch.setattr(terms, "fold", counted)
    encode_namepass(*delegation(6))
    assert folds[canon_key(SIn((INT,), END))] == 1
    assert set(folds.values()) == {1}


def test_encode_namepass_shares_carriers():
    # each receive clause opens its channel at the very carrier object that
    # the package type of its item's type holds in s's translated annotation
    p, name_types = delegation(6)
    out = encode_namepass(p, name_types)
    t = next(x for x in iter_subterms(p) if isinstance(x, Res) and x.binder == Name("s")).annot
    hot = next(x for x in iter_subterms(out) if isinstance(x, Res) and x.binder == Name("s")).annot
    carriers = {}
    while isinstance(t, SOut):
        carrier = carriers.setdefault(canon_key(t.payload[0]), hot.payload[0].params[0])
        assert hot.payload[0].params[0] is carrier
        t, hot = t.cont, hot.cont
    shared = [
        x.cont.annot is carriers[canon_key(name_types[x.cont.body.right.payload[0].params[0][0]])]
        for x in iter_subterms(out)
        if isinstance(x, Input) and isinstance(x.cont, Res) and isinstance(x.cont.body, Par)
    ]
    assert shared == [True] * 9


def test_encode_deeply_nested_payloads():
    # !<!<...!<Int>;end...>;end>;end, 2,000 levels deep: each payload is
    # translated before the level that carries it, on no Python frame per level
    def pkg(c):
        return TArrow((SIn((TArrow((c,), False),), END),), False)

    t, want = SOut((INT,), END), SOut((pkg(INT),), END)
    for _ in range(1999):
        t, want = SOut((t,), END), SOut((pkg(want),), END)
    assert canon_key(encode_nptype(t)) == canon_key(want)
    a, s = Name("a"), Name("s")
    (package,) = encode_namepass(Output(s, (a,), Inact()), {a: t}).payload
    ((_, carrier),) = package.params
    assert canon_key(carrier) == canon_key(SIn((TArrow((want,), False),), END))


def test_trampoline_tails_release_their_step():
    # count down 100,000 plain steps: each ends in a tail whose `then` adds
    # one, and every fifth first runs a sub-step and resumes in its second
    # half, `rest`, which gets the sub-result as its last argument
    def down(n):
        if n % 5 == 0 and n:
            return Tail((down, 0), rest, n)
        return rest(n, 0)

    def rest(n, got):
        assert got == 0
        if n == 0:
            return 0
        return Tail((down, n - 1), lambda a, b, got: got + a + b, 1, 0)

    def nested():
        return Tail(Tail((down, 3), lambda got: got * 10))

    assert trampoline((down, 100_000)) == 100_000
    assert trampoline((nested,)) == 30


def long_session(n, last=0):
    """(νs)(A | B): A sends n Int literals, the last one last, and B
    receives them; s is annotated with the n outputs."""
    s = Name("s")
    t, a, b = END, Inact(), Inact()
    for i in reversed(range(n)):
        t = SOut((INT,), t)
        a = Output(s, (Lit(last if i == n - 1 else i),), a)
        b = Input(s.dualized(), (Var(f"x{i}"),), b)
    return Res(s, t, Par(a, b))


def delegation(n, last=0):
    """n interactions on s, every other one delegating a fresh channel of
    type ?<Int>;end whose other end the sender drives, the rest sending Int
    literals, the last one last; and the types of the packaged items."""
    c, s = SIn((INT,), END), Name("s")
    t, a, b, name_types, chans = END, Inact(), Inact(), {}, []
    for i in reversed(range(n)):
        x = Var(f"x{i}")
        if i % 2:
            m, z = Name(f"m{i}"), Var(f"z{i}")
            chans.append(m)
            name_types.update({m: c, x: c, z: INT})
            t = SOut((c,), t)
            a = Output(s, (m,), Par(Output(m.dualized(), (Lit(i),), Inact()), a))
            b = Input(s.dualized(), (x,), Par(Input(x, (z,), Inact()), b))
        else:
            name_types[x] = INT
            t = SOut((INT,), t)
            a = Output(s, (Lit(last if i == n - 2 else i),), a)
            b = Input(s.dualized(), (x,), b)
    p = Res(s, t, Par(a, b))
    for m in chans:
        p = Res(m, c, p)
    return p, name_types


def test_long_terms_compare_and_hash_without_recursion():
    first, again = long_session(3000), long_session(3000)
    assert first == again and hash(first) == hash(again)
    far = long_session(3000, last=-1)
    assert first != far and hash(first) != hash(far)
    encoded = [encode_namepass(*delegation(2000, last)) for last in (0, 0, -1)]
    assert encoded[0] == encoded[1] and hash(encoded[0]) == hash(encoded[1])
    assert encoded[0] != encoded[2]


def test_template_renders_without_a_scan(monkeypatch):
    scans = Counter()
    fv = terms._fv

    def counted(t, memo):
        scans["_fv"] += 1
        return fv(t, memo)

    monkeypatch.setattr(terms, "_fv", counted)
    t = long_session(50)
    template(t)
    hash(t)
    assert alpha_eq(t, long_session(50))
    assert scans["_fv"] == 0


def test_term_equality_compares_what_scope_does_not_list():
    s, x = Name("s"), Var("x")
    assert Select(s, "a", Inact()) != Select(s, "b", Inact())
    assert Branch(s, (("a", Inact()),)) != Branch(s, (("b", Inact()),))
    assert Res(s, END, Inact()) != Res(s, SOut((INT,), END), Inact())
    assert Abs(((x, INT),), Inact()) != Abs(((x, BOOL),), Inact())
    assert Abs(((x, INT),), Inact()) != Abs(((x, INT),), Inact(), shared=True)
    # a literal's type counts, as in templates
    assert Output(s, (Lit(1),), Inact()) != Output(s, (Lit(True),), Inact())
    # children of different classes
    assert Output(s, (Lit(1),), Inact()) != Output(s, (Lit(1),), Par(Inact(), Inact()))
    # bound names count too, though templates, and so hashes, ignore them
    renamed = Input(s, (Var("y"),), Inact())
    assert Input(s, (x,), Inact()) != renamed
    assert hash(Input(s, (x,), Inact())) == hash(renamed)
    assert Inact() == Inact() and Inact() != s and Output(s, (x,), Inact()) != s
    assert len({Inact(), Inact(), Par(Inact(), Inact())}) == 2


def _one_of_each_node():
    s, x, y = Name("s"), Var("x"), Var("y")
    body = Output(s, (Lit(True), x), Inact())
    return [
        Inact(),
        Output(s, (Lit(1), x, Abs(((y, INT),), Inact())), Inact()),
        Input(s, (x, y), body),
        Select(s, "right", body),
        Branch(s, (("left", Inact()), ("right", body))),
        App(x, (s, Lit(True))),
        App(y, ()),
        Par(body, Inact()),
        Res(Name("r"), SOut((BOOL,), END), body),
        Res(Name("a", kind="shared"), U_SH, body),
        Abs(((x, INT), (y, SIn((BOOL,), END))), body, shared=True),
    ]


@pytest.mark.parametrize("node", _one_of_each_node(), ids=lambda t: type(t).__name__)
def test_a_node_rebuilt_from_its_row_is_the_node(node):
    scope, head, make = terms._NODES[node.__class__]
    kids, bound_names, bound_vars = scope(node)
    again = make(head(node), bound_names or bound_vars, *kids)
    assert again == node
    # field by field too, so a head that drops what a node carries fails
    # even though `==` compares heads
    assert [getattr(again, f.name) for f in fields(node)] == [getattr(node, f.name) for f in fields(node)]


def test_every_term_class_has_a_row():
    # a slotted dataclass replaces the class it decorates, which lingers
    # among the subclasses until it is collected
    classes = {c for c in terms._Term.__subclasses__() if getattr(terms, c.__name__) is c}
    assert classes == set(terms._NODES) == {type(t) for t in _one_of_each_node()}


_S, _X, _F = Name("s"), Var("x"), Var("f")


@pytest.mark.parametrize("make,error,message", [
    (lambda: Name("s", None, False, "linear"), TermError, "bad name kind 'linear'"),
    (lambda: Name("s", 0), TermError, "name indices start at 1"),
    (lambda: Lit("one"), TermError, "unsupported literal 'one'"),
    (lambda: Abs((), Inact()), TermError, "abstractions bind at least one parameter"),
    (lambda: Abs(((_X, INT), (_X, INT)), Inact()), TermError,
     "duplicate abstraction parameters: [Var(base='x', index=None), Var(base='x', index=None)]"),
    (lambda: Input(_S, (_X, _X), Inact()), TermError,
     "duplicate input binders: (Var(base='x', index=None), Var(base='x', index=None))"),
    (lambda: Branch(_S, ()), TermError, "branch needs at least one label"),
    (lambda: Branch(_S, (("a", Inact()),)).branch("b"), KeyError, "'b'"),
    (lambda: App(Lit(1), (_S,)), TermError, "literals cannot be applied"),
    (lambda: Res(_S.dualized(), END, Inact()), TermError,
     "restriction binds the plain-polarity endpoint"),
    (lambda: Res(_S, TChan(INT), Inact()), TermError, "restriction kind mismatch: s with chan Int"),
    (lambda: free_names(Output(_S, (1.5,), Inact())), TermError, "unknown term node 1.5"),
    (lambda: template(Output(Inact(), (Lit(1),), Inact())), TermError, "unknown term node Inact()"),
    (lambda: substitute(App(_F, (Lit(1),)), {_F: _S}), TermError,
     "substitution put a bare name in function position"),
    (lambda: substitute(App(_F, (_X,)), {_X: Abs(((_X, INT),), Inact())}), TermError,
     "substitution put an abstraction in argument position"),
    (lambda: substitute(Output(_X, (Lit(1),), Inact()), {_X: Lit(2)}), TermError,
     "substitution put a non-channel in subject position: Lit"),
    (lambda: encode_nptype(SOut((TArrow((END,), False),), END)), TypeError_,
     "unsupported first-order payload lin(end)"),
    (lambda: encode_nptype(SOut((SOut((TArrow((END,), False),), END),), END)), TypeError_,
     "unsupported first-order payload lin(end)"),
    (lambda: encode_nptype(SIn((SOut((INT,), SIn((TArrow((END,), True),), END)),), END)),
     TypeError_, "unsupported first-order payload un(end)"),
    (lambda: encode_nptype(TArrow((END,), False)), TypeError_, "unsupported first-order type lin(end)"),
    (lambda: encode_namepass(Abs(((_X, INT),), Inact())), TermError,
     "unsupported construct for the first-order front end: Abs"),
    (lambda: encode_namepass(Output(_S, (Name("a"), Name("b")), Inact())), TermError,
     "first-order payloads survived the encoding"),
], ids=["name-kind", "name-index", "literal", "abs-empty", "abs-duplicate", "input-duplicate",
        "branch-empty", "branch-missing", "app-literal", "res-polarity", "res-kind",
        "scan-unknown", "render-unknown", "sub-function", "sub-argument", "sub-subject",
        "np-payload", "np-nested-payload", "np-deep-payload", "np-type", "np-construct", "np-survivor"])
def test_term_errors_as_printed(make, error, message):
    with pytest.raises(error) as raised:
        make()
    assert str(raised.value) == message


def test_rendering_order_agrees_with_finished_texts():
    # chain(n) renders 2n + 3 nodes plus those of its end: "s!(1).0" is a
    # strict prefix of the text of every longer chain ("s!(1).0x..."), so
    # chains of 15 or more links agree through the pause at 32 nodes;
    # `late` differs from chain(40) only in its last literal, and `exact`
    # (32 nodes) ends exactly at the pause
    def chain(n, end=Inact()):
        t = end
        for _ in range(n):
            t = Output(Name("0x"), (Lit(1),), t)
        return Output(Name("s"), (Lit(1),), t)

    def rendering(t):
        return Rendering(t, (), Memo())

    def finished(t):
        r = rendering(t)
        r.fmt()
        return r

    late = chain(39, Output(Name("0x"), (Lit(2),), Inact()))
    exact = chain(14, Input(Name("0x"), (Var("x"),), Inact()))
    terms = [chain(0), exact, chain(14), chain(30), chain(30), chain(40), late, chain(41)]
    texts = [finished(t).text for t in terms]
    paused = [rendering(t).text for t in (chain(30), chain(40), late, chain(41))]
    assert len(set(paused)) == 1 and all(len(paused[0]) < len(t) for t in texts[3:])
    # each node is counted once, whether its rendering stops at the pause
    # or is finished later
    for t, nodes in ((exact, 32), (chain(40), 83)):
        memo = Memo()
        r = Rendering(t, (), memo)
        assert memo.stats["nodes_rendered"] == 32
        r.fmt()
        assert memo.stats["nodes_rendered"] == nodes
    assert finished(exact).text == rendering(exact).text == texts[1]
    for a, ta in zip(terms, texts):
        for b, tb in zip(terms, texts):
            want = None if ta == tb else ta < tb
            assert rendering(a).less(rendering(b)) == want
            assert finished(a).less(rendering(b)) == want
