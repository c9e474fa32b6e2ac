import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from sessionkit import lts, randgen
from sessionkit import types as ty


def auto(seed, max_nodes=8, higher_order=False):
    return randgen.random_automaton(random.Random(seed), max_nodes,
                                    higher_order=higher_order)


types_st = st.integers(0, 10**9).map(auto)

ONE = ty.parse_type("type T = end!")
BOT = ty.parse_type("type T = end?")


def test_termination_axioms_loop():
    assert ty.equiv(lts.derivative(ONE, lts.star("out"), "must"), ONE)
    assert ty.equiv(lts.derivative(BOT, lts.star("in"), "must"), BOT)
    assert lts.derivative(ONE, lts.star("in"), "full") is None
    assert lts.derivative(BOT, lts.star("out"), "full") is None


def test_choice_axioms():
    t = ty.parse_type("type S = +{ a@2: end!, b: end? }")
    d = lts.derivative(t, lts.tag("out", "a", 2), "must")
    assert ty.equiv(d, ONE)
    assert lts.derivative(t, lts.tag("out", "a", 1), "must") is None  # measure must match
    assert lts.derivative(t, lts.tag("in", "a", 2), "must") is None  # wrong direction


def test_channel_axioms_need_bisimilar_payload():
    t = ty.parse_type("type S = !(P) . end?  type P = +{ a: P }")
    unfolded = ty.parse_type("type P = +{ a: +{ a: P } }")
    other = ty.parse_type("type P = +{ a: +{ b: P } }")
    assert lts.derivative(t, lts.chan("out", unfolded), "must") is not None
    assert lts.derivative(t, lts.chan("out", other), "must") is None
    assert lts.derivative(t, lts.chan("in", unfolded), "must") is None


def test_input_buffers_through_outputs():
    # a late input is anticipated past the pending output in ind and full
    t = ty.parse_type("type S = +{ a: &{ b: end! } }")
    l = lts.tag("in", "b")
    assert lts.derivative(t, l, "must") is None
    d = lts.derivative(t, l, "ind")
    assert ty.equiv(d, ty.parse_type("type S = +{ a: end! }"))
    assert ty.equiv(lts.derivative(t, l, "full"), d)


def test_full_exceeds_ind_on_fair_loops():
    # the input is reachable on every fair run, but not within any bound
    src = "type S1 = +{ a: S1, b: &{ c: end! } }"
    t = ty.parse_type(src)
    l = lts.tag("in", "c")
    assert lts.derivative(t, l, "ind") is None
    d = lts.derivative(t, l, "full")
    assert ty.equiv(d, ty.parse_type("type S = +{ a: S, b: end! }"))


def test_full_requires_all_branches():
    # one looping branch never offers the input: no full transition
    t = ty.parse_type("type S = +{ a: S, b: &{ c: end! }, d: end! }")
    assert lts.derivative(t, lts.tag("in", "c"), "full") is None


def test_external_choice_buffers_outputs():
    t = ty.parse_type("type S = &{ a: +{ c: end? } }")
    assert lts.derivative(t, lts.tag("out", "c"), "full") is not None
    assert lts.derivative(t, lts.tag("out", "d"), "full") is None


def test_empty_choices_are_vacuous():
    zero = ty.parse_type("type Z = +{}")
    top = ty.parse_type("type X = &{}")
    # 0 inputs everything (no branch can fail); ⊤ outputs everything
    assert lts.derivative(zero, lts.tag("in", "x"), "full") is not None
    assert lts.derivative(zero, lts.tag("out", "x"), "full") is None
    assert lts.derivative(top, lts.tag("out", "x"), "full") is not None
    assert lts.derivative(top, lts.tag("in", "x"), "full") is None
    # but not immediately
    assert lts.derivative(zero, lts.tag("in", "x"), "must") is None


def test_enumerate_labels_satellite():
    t = ty.parse_type("type S = +{ cmd: S, stop: &{ data: end? } }")
    outs = {str(l) for l in lts.enumerate_labels(t, "out", "must")}
    assert outs == {"!cmd", "!stop"}
    ins = {str(l) for l in lts.enumerate_labels(t, "in", "full")}
    assert ins == {"?data"}


def test_label_parse_and_render():
    for text in ("?a", "!b@2", "?*", "!*"):
        assert str(lts.parse_label(text)) == text
    l = lts.parse_label("?(+{ a: end! })")
    assert l.msg[0] == "chan" and l.direction == "in"
    # a measure that is not a number, a second measure, a negative one, a tag
    # no type can contain, a missing measure, an unclosed payload
    for text in ("!a@x", "!a@1@2", "!a@-1", "!é", "!a@", "?(end!"):
        with pytest.raises(ty.TypeError_, match=r"\(line 1, col \d+\)$"):
            lts.parse_label(text)


def test_labels_are_interned():
    assert lts.tag("in", "a") is lts.Label("in", ("tag", "a", 0))
    assert lts.tag("in", "a") is not lts.tag("out", "a") != lts.tag("in", "a", 1)
    # two handles, built apart, of one payload: a loop and its unrolling
    src = "type P = +{ a: P, b: end! }  type Q = +{ a: +{ a: Q, b: end! }, b: end! }"
    p, q = ty.parse_type(src, "P"), ty.parse_type(src, "Q")
    assert p is not q and p == q
    l = lts.chan("in", p)
    assert lts.chan("in", q) is l and lts.Label("in", ("chan", q)) is l
    assert lts.parse_label("?(Q)", ty.parse_decls(src)) is l
    assert lts.parse_label("?(+{ a: P, b: end! })", ty.parse_decls(src)) is l
    assert l.flip() is lts.chan("out", q) and l.flip().flip() is l
    assert l.key() == ("in", "chan", p) and str(l) == "?(+{a: %0, b: end!})"
    for text, key in (("?a", ("in", "tag", "a", 0)), ("!b@2", ("out", "tag", "b", 2)),
                      ("!*", ("out", "star"))):
        assert lts.parse_label(text).key() == key and str(lts.parse_label(text)) == text
        assert lts.parse_label(text) is lts.Label(key[0], key[1:])


@given(types_st)
@settings(max_examples=60, deadline=None)
def test_mode_monotonicity(t):
    for d in ("in", "out"):
        must = {l.key() for l in lts.enumerate_labels(t, d, "must")}
        ind = {l.key() for l in lts.enumerate_labels(t, d, "ind")}
        full = {l.key() for l in lts.enumerate_labels(t, d, "full")}
        assert must <= ind <= full


@given(types_st)
@settings(max_examples=60, deadline=None)
def test_duality_symmetry(t):
    # !l transitions of t correspond exactly to ?l transitions of dual(t)
    d = ty.dual(t)
    for mode in ("must", "ind", "full"):
        outs = {l.key()[1:] for l in lts.enumerate_labels(t, "out", mode)
                if l.is_first_order}
        ins = {l.key()[1:] for l in lts.enumerate_labels(d, "in", mode)
               if l.is_first_order}
        assert outs == ins


def test_duality_symmetry_channels():
    t = ty.parse_type("type S = !(+{ a: end! }) . end?")
    p = ty.parse_type("type P = +{ a: end! }")
    assert lts.enabled(t, lts.chan("out", p), "must")
    assert lts.enabled(ty.dual(t), lts.chan("in", ty.dual(p)), "must")


@given(st.integers(0, 10**9), st.booleans())
@settings(max_examples=100, deadline=None)
def test_full_agrees_with_independent_oracle(seed, higher_order):
    t = auto(seed, 6 if higher_order else 8, higher_order)
    for d in ("in", "out"):
        for l in lts.enumerate_labels(t, d, "full"):
            assert lts.fas_oracle(t, l)
    # and labels that are *not* full-enabled, channels with dual payloads among them
    for l in (lts.tag("in", "a"), lts.tag("out", "a"), *_candidate_labels(t)):
        assert lts.enabled(t, l, "full") == lts.fas_oracle(t, l), str(l)


@given(types_st)
@settings(max_examples=100, deadline=None)
def test_diamond(t):
    ins = [l for l in lts.enumerate_labels(t, "in", "full") if l.is_first_order]
    outs = [l for l in lts.enumerate_labels(t, "out", "full") if l.is_first_order]
    for li in ins[:3]:
        for lo in outs[:3]:
            if li.msg == ("star",) or lo.msg == ("star",):
                continue
            a = lts.derivative(t, li, "full")
            b = lts.derivative(t, lo, "full")
            ab = lts.derivative(a, lo, "full")
            ba = lts.derivative(b, li, "full")
            assert ab is not None and ba is not None
            assert ty.equiv(ab, ba)


def _sweep(keys, holds):
    """Reference for lts.prune: ascending sweeps until one removes nothing."""
    live, removed = set(keys), []
    changed = True
    while changed:
        changed = False
        for k in keys:
            if k in live and not holds(k, live):
                live.discard(k)
                removed.append(k)
                changed = True
    return live, removed


@st.composite
def and_or_games(draw):
    n = draw(st.integers(1, 12))
    gates = draw(st.lists(st.tuples(st.sampled_from((all, any)),
                                    st.lists(st.integers(0, n - 1), max_size=4)),
                          min_size=n, max_size=n))
    keys = sorted(draw(st.sets(st.integers(0, n - 1))))
    return keys, gates


@given(and_or_games())
@settings(max_examples=300, deadline=None)
def test_prune_replays_the_sweeps(game):
    keys, gates = game

    def holds(k, live):
        gate, succs = gates[k]
        return gate(s in live for s in succs)

    users = [[k for k in keys if j in gates[k][1]] for j in range(len(gates))]
    assert lts.prune(keys, holds, users) == _sweep(keys, holds)


def _axiom(t, n, l):
    """The view id node ``n`` of ``t`` steps to by an axiom under ``l``, or None."""
    b, m, out = t.nodes[n], l.msg, l.direction == "out"
    if m[0] == "star":
        return n if b[0] == ("one" if out else "bot") else None
    if m[0] == "tag":
        if b[0] != ("plus" if out else "with"):
            return None
        return next((c for tg, mm, c in b[1] if (tg, mm) == m[1:]), None)
    if b[0] != ("times" if out else "par"):
        return None
    payload = SimpleNamespace(nodes=t.nodes, root=b[1])  # a view, not a store node
    return b[2] if ty.equiv(payload, m[1]) else None


def _buffered(t, n, l):
    """The view ids the buffering rule at node ``n`` of ``t`` defers to, or None."""
    b, out = t.nodes[n], l.direction == "out"
    if b[0] == ("with" if out else "plus"):
        return [c for _, _, c in b[1]]
    if b[0] == ("par" if out else "times"):
        return [b[2]]
    return None


def _chaotic_enabled(t, l, mode):
    """Reference for lts.enabled_nodes: plain chaotic iteration of the rules."""
    ids = range(t.size())
    ax = {n for n in ids if _axiom(t, n, l) is not None}

    def lfp(fair):
        cur = set(ax)
        changed = True
        while changed:
            changed = False
            for n in ids:
                prem = _buffered(t, n, l)
                if n in cur or prem is None:
                    continue
                ok = all(c in cur for c in prem)
                if fair and not ok and t.nodes[n][0] in ("plus", "with"):
                    ok = any(c in cur for c in prem)
                if ok:
                    cur.add(n)
                    changed = True
        return cur

    if mode == "ind":
        return lfp(fair=False)
    cur = lfp(fair=True)
    changed = True
    while changed:
        changed = False
        for n in list(cur):
            prem = _buffered(t, n, l)
            if n not in ax and (prem is None or not all(c in cur for c in prem)):
                cur.discard(n)
                changed = True
    return cur


def _candidate_labels(t):
    for d in ("in", "out"):
        yield lts.star(d)
        for b in t.nodes:
            if b[0] in ("plus", "with"):
                for tg, m, _ in b[1]:
                    yield lts.tag(d, tg, m)
            elif b[0] in ("times", "par"):
                yield lts.chan(d, t.at(b[1]))
                yield lts.chan(d, ty.dual(t.at(b[1])))


@given(st.integers(0, 10**9), st.booleans())
@settings(max_examples=150, deadline=None)
def test_enabled_nodes_match_chaotic_iteration(seed, higher_order):
    t = auto(seed, higher_order=higher_order)
    for l in _candidate_labels(t):
        for mode in ("ind", "full"):
            assert lts.enabled_nodes(t, l, mode) == _chaotic_enabled(t, l, mode)


@given(st.integers(0, 10**9), st.booleans())
@settings(max_examples=100, deadline=None)
def test_memos_match_fresh_computation(seed, higher_order):
    t = auto(seed, 6 if higher_order else 8, higher_order)
    modes = ("must", "ind", "full")
    queries = [(lts.enumerate_labels, d, mode) for mode in modes for d in ("in", "out")]
    queries += [(f, l, mode) for mode in modes for l in _candidate_labels(t)
                for f in (lts.enabled_nodes, lts.derivative)]

    def answer(f, x, mode):
        r = f(t, x, mode)
        if f is lts.derivative:
            assert r is f(t, x, mode)
            return r if r is None else r.nodes
        return r

    warm = [answer(*q) for q in queries]
    assert [answer(*q) for q in queries] == warm
    for q, w in zip(queries, warm):
        for n in t.key().reach():
            n.memo.clear()  # each answer computed with nothing memoized
        assert answer(*q) == w


def _two_layer_derivative(t, l, mode):
    """Reference for lts.derivative: the product over two copies of ``t``.

    Node ``("o", n)`` is node ``n`` of ``t`` as it stands, ``("s", n)`` is
    ``n`` with the action pushed past it.  Axiom nodes continue into the
    ``"o"`` layer, buffering nodes into the ``"s"`` layer; every reached
    node of either layer is rebuilt under its key.
    """
    if not lts.enabled(t, l, mode):
        return None

    def ref(n):
        tgt = _axiom(t, n, l)
        return ("o", tgt) if tgt is not None else ("s", n)

    root = ref(t.root)
    nodes, queue = {}, [root]
    for key in queue:
        if key in nodes:
            continue
        layer, n = key
        b = t.nodes[n]
        if layer == "o":
            if b[0] in ("plus", "with"):
                body = (b[0], tuple((tg, m, ("o", c)) for tg, m, c in b[1]))
            elif b[0] in ("times", "par"):
                body = (b[0], ("o", b[1]), ("o", b[2]))
            else:
                body = b
        elif b[0] in ("plus", "with"):
            body = (b[0], tuple((tg, m, ref(c)) for tg, m, c in b[1]))
        else:
            body = (b[0], ("o", b[1]), ref(b[2]))
        nodes[key] = body
        if body[0] in ("plus", "with"):
            queue.extend(c for _, _, c in body[1])
        elif body[0] in ("times", "par"):
            queue.extend(body[1:])
    return nodes, root


@given(st.integers(0, 10**9), st.booleans())
@settings(max_examples=150, deadline=None)
def test_derivative_matches_two_layer_product(seed, higher_order):
    t = auto(seed, 6 if higher_order else 8, higher_order)
    for mode in ("must", "ind", "full"):
        for d in ("in", "out"):
            for l in lts.enumerate_labels(t, d, mode):
                nodes, root = _two_layer_derivative(t, l, mode)
                got = lts.derivative(t, l, mode)
                assert got == ty.Type(nodes, root), (str(l), mode)
                assert ty.equiv(got, ty.Type(nodes, root)), (str(l), mode)


def test_unknown_mode_stores_nothing():
    t = ty.parse_type("type T = +{ a: T, b: end! }")
    before = dict(t.memo)
    for call in (lts.enabled_nodes, lts.derivative):
        with pytest.raises(ValueError):
            call(t, lts.star("out"), "fair")
    with pytest.raises(ValueError):
        lts.enumerate_labels(t, "out", "fair")
    assert t.memo == before
