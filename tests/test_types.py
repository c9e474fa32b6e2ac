import gc
import random
import weakref
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from sessionkit import fixtures, lts, process, randgen
from sessionkit import types as ty


def auto(seed, max_nodes=8, higher_order=False):
    return randgen.random_automaton(random.Random(seed), max_nodes,
                                    higher_order=higher_order)


types_st = st.integers(0, 10**9).map(auto)
ho_types_st = st.integers(0, 10**9).map(lambda s: auto(s, 6, True))


@st.composite
def raw_tables(draw, max_nodes=6):
    """Raw, usually non-minimal tables with root 0, higher-order included."""
    n = draw(st.integers(1, max_nodes))
    node = st.integers(0, n - 1)
    branches = st.dictionaries(st.sampled_from("abc"), st.tuples(st.integers(0, 1), node),
                               max_size=3)
    body = st.one_of(
        st.sampled_from([("one",), ("bot",)]),
        st.tuples(st.sampled_from(["plus", "with"]), branches.map(
            lambda d: tuple(sorted((tg, m, c) for tg, (m, c) in d.items())))),
        st.tuples(st.sampled_from(["times", "par"]), node, node))
    return dict(enumerate(draw(st.lists(body, min_size=n, max_size=n))))


@st.composite
def deep_tables(draw, max_nodes=80):
    """Raw tables that are mostly one long chain of choices over few tags and measures.

    The chain repeats a short pattern of bodies with a few changes.  It ends
    in 1 or loops back, often by a whole number of periods, and side branches
    and ``times``/``par`` payloads jump a few nodes along it.  So nodes are
    often bisimilar, and refinement must split many times to tell the others
    apart.
    """
    n = draw(st.integers(2, max_nodes))
    body = st.tuples(st.sampled_from(["plus"] * 4 + ["with"] * 2 + ["times", "par"]),
                     st.sampled_from([0, 0, 0, 1]), st.booleans(), st.integers(-6, 12))
    pattern = draw(st.lists(body, min_size=1, max_size=6))
    changed = draw(st.dictionaries(st.integers(0, n - 2), body, max_size=3))
    loop = draw(st.one_of(st.none(), st.integers(0, n - 1),
                          st.integers(1, 4).map(lambda k: max(0, n - k * len(pattern)))))

    def fold(i):  # a node past the end is the end, or a node of the loop
        if i < n:
            return max(i, 0)
        return n - 1 if loop is None else loop + (i - loop) % (n - loop)

    raw = {}
    for i in range(n if loop is not None else n - 1):
        kind, m, side, offset = changed.get(i, pattern[i % len(pattern)])
        nxt, jump = fold(i + 1), fold(i + offset)
        if kind in ("times", "par"):
            raw[i] = (kind, jump, nxt)
        else:
            raw[i] = (kind, (("a", m, nxt),) + ((("b", 0, jump),) if side else ()))
    return raw if loop is not None else {**raw, n - 1: ("one",)}


def doubled(raw):
    """Two copies of a table with edges crossing between them: bisimilar to it."""
    n = len(raw)
    return {i + n * j: ty._renamed(b, {c: c + n * ((i + c + j) % 2) for c in raw})
            for i, b in raw.items() for j in (0, 1)}


def test_parse_smallest():
    t = ty.parse_type("type S = +{ a: end! }")
    assert t.kind(t.root) == "plus"
    tags = [b[0] for b in t.body(t.root)[1]]
    assert tags == ["a"]


def test_parse_mutual_recursion():
    src = "type S = +{ task@1: S, stop: T }  type T = &{ res: T, stop: end? }"
    s = ty.parse_type(src, "S")
    assert s.kind(s.root) == "plus"
    (tag1, m1, c1), (tag2, m2, c2) = sorted(s.body(s.root)[1])
    assert (tag1, m1) == ("stop", 0)
    assert (tag2, m2, c2) == ("task", 1, s.root)


def test_unguarded_recursion_rejected():
    with pytest.raises(ty.TypeError_):
        ty.parse_type("type S = S")
    with pytest.raises(ty.TypeError_):
        ty.parse_type("type A = B  type B = A", "A")


def test_duplicate_tag_rejected():
    with pytest.raises(ty.TypeError_):
        ty.parse_type("type S = +{ a: end!, a: end! }")


def test_bad_character_offset():
    # the offset points at the bad character, not at the space before it
    with pytest.raises(ty.TypeError_, match=r"offset 19: '\$'"):
        ty.parse_type("type S = +{ a: S } $")
    # every lexing and parsing error ends with the line and column, 1-based
    with pytest.raises(ty.TypeError_, match=r"offset 49: '\$' \(line 3, col 13\)$"):
        ty.parse_type("type S = +{ a: S }\ntype T = &{ b: T,\n  c: end? } $")
    with pytest.raises(ty.TypeError_, match=r"measure, got 'x' \(line 3, col 15\)$"):
        ty.parse_type("type S = +{ a: S }\n\ntype T = &{ b@x: T }")
    with pytest.raises(ty.TypeError_, match=r"end of input \(line 3, col 1\)$"):
        ty.parse_type("# head\ntype S = +{ a: S,\n")
    with pytest.raises(process.ProcessError, match=r"offset 36: '\$' \(line 3, col 11\)$"):
        process.parse_program("sig A(x: end!)\ndef A(x) =\n    close $x")
    with pytest.raises(process.ProcessError, match=r"got 'done' \(line 4, col 12\)$"):
        process.parse_program("sig A(x: end!)\ndef A(x) =\n  x!a.\n    wait x done")


def test_unknown_name():
    with pytest.raises(ty.TypeError_):
        ty.parse_type("type S = end!", "T")


def test_nesting_limit():
    k = ty.MAX_NESTING - 1  # choices around the innermost end!
    t = ty.parse_expr("+{ a: " * k + "end!" + " }" * k)
    assert t.size() == ty.MAX_NESTING
    assert ty.equiv(ty.parse_type(ty.render(t)), t)
    assert ty.equiv(ty.parse_expr(ty.render_inline(t)), t)
    with pytest.raises(ty.TypeError_, match="nested deeper"):
        ty.parse_expr("+{ a: " * (k + 1) + "end!" + " }" * (k + 1))


def test_higher_order_parse():
    t = ty.parse_type("type S = !(end!) . ?(end?) . end!")
    assert t.kind(t.root) == "times"
    _, payload, cont = t.body(t.root)
    assert t.kind(payload) == "one"
    assert t.kind(cont) == "par"


def test_empty_choices():
    zero = ty.parse_type("type Z = +{}")
    top = ty.parse_type("type X = &{}")
    assert zero.kind(zero.root) == "plus" and not zero.body(zero.root)[1]
    assert top.kind(top.root) == "with" and not top.body(top.root)[1]
    assert zero != top


def test_dual_swaps_constructors():
    t = ty.parse_type("type S = +{ a: !(end!) . end! }")
    d = ty.dual(t)
    assert d.kind(d.root) == "with"
    _, branches = d.body(d.root)
    (_, _, cont), = branches
    assert d.kind(cont) == "par"


@given(types_st)
@settings(max_examples=80, deadline=None)
def test_dual_involution(t):
    assert ty.equiv(ty.dual(ty.dual(t)), t)


@given(ho_types_st)
@settings(max_examples=40, deadline=None)
def test_dual_involution_higher_order(t):
    assert ty.equiv(ty.dual(ty.dual(t)), t)


@given(types_st)
@settings(max_examples=80, deadline=None)
def test_canonicalize_idempotent_and_bisimilar(t):
    assert ty.canonicalize(t) is t
    again = ty.Type(t.nodes)  # minimizing a minimal table changes nothing
    assert again.nodes == t.nodes and ty.equiv(again, t)


@given(types_st)
@settings(max_examples=60, deadline=None)
def test_key_characterizes_bisimilarity(t):
    d = ty.dual(t)
    assert (t.key() == d.key()) == ty.equiv(t, d)


def test_equiv_folds_unfoldings():
    a = ty.parse_type("type S = +{ a: S }")
    b = ty.parse_type("type S = +{ a: +{ a: S } }")
    assert ty.equiv(a, b)
    assert a == b  # hashes by canonical key
    c = ty.parse_type("type S = +{ a: +{ b: S } }")
    assert not ty.equiv(a, c)


def test_measures_distinguish():
    a = ty.parse_type("type S = +{ a@1: end! }")
    b = ty.parse_type("type S = +{ a@2: end! }")
    assert not ty.equiv(a, b)


def test_fair_termination():
    detail = {}
    assert ty.is_fairly_terminating(ty.parse_type("type S = +{ a: S, b: end! }"), detail)
    assert not detail["degenerate"]

    assert not ty.is_fairly_terminating(ty.parse_type("type S = +{ a: S }"))

    # 0 and ⊤ have no maximal runs at all: vacuously terminating, flagged
    for src in ("type Z = +{}", "type X = &{}"):
        detail = {}
        assert ty.is_fairly_terminating(ty.parse_type(src), detail)
        assert detail["degenerate"]


def test_fair_termination_payload_counts():
    t = ty.parse_type("type S = !(+{ a: P }) . end!  type P = +{ a: P }")
    assert not ty.is_fairly_terminating(t)


def fairly_terminating_raw(raw, root=0):
    """The definition on a raw table: from every node reachable from ``root``,
    payloads included, a forward walk over continuations meets 1, bot or an
    empty choice."""
    def conts(b):
        if b[0] in ("plus", "with"):
            return [c for _, _, c in b[1]]
        return [b[2]] if b[0] in ("times", "par") else []

    reach, todo = {root}, [root]
    while todo:
        b = raw[todo.pop()]
        for c in conts(b) + ([b[1]] if b[0] in ("times", "par") else []):
            if c not in reach:
                reach.add(c)
                todo.append(c)
    for n in reach:
        seen, todo = {n}, [n]
        while todo:
            b = raw[todo.pop()]
            if b[0] in ("one", "bot") or b[0] in ("plus", "with") and not b[1]:
                break
            todo += [c for c in conts(b) if c not in seen]
            seen.update(todo)
        else:
            return False
    return True


@given(st.one_of(raw_tables(), deep_tables(),
                 ho_types_st.map(lambda t: dict(enumerate(t.nodes)))))
@settings(max_examples=300, deadline=None)
def test_fair_termination_matches_forward_search(raw):
    t, detail = ty.Type(raw), {}
    assert ty.is_fairly_terminating(t, detail) == fairly_terminating_raw(raw)
    assert all(t.nodes[n] in (("plus", ()), ("with", ())) for n in detail["degenerate"])


@given(st.one_of(raw_tables(), deep_tables(max_nodes=30)))
@settings(max_examples=100, deadline=None)
def test_root_facts_match_fresh_computation(raw):
    t = ty.Type(raw)
    subs = [t.at(i) for i in range(t.size())]

    def facts(u):
        return ty.render_inline(u), ty.is_fairly_terminating(u), ty.is_first_order(u)

    warm = [facts(u) for u in subs]
    assert all({"inline", "fair", "first_order"} <= u.node.memo.keys() for u in subs)
    assert [facts(u) for u in subs] == warm  # read back from the memos
    for n in t.key().reach():
        n.memo.clear()  # each fact computed with nothing memoized
    assert [facts(u) for u in reversed(subs)] == warm[::-1]
    assert [ty.is_fairly_terminating(u, {}) for u in subs] == [f[1] for f in warm]
    assert warm[0][1] == fairly_terminating_raw(raw)
    assert warm[0][2] == all(b[0] not in ("times", "par") for b in t.nodes)


@given(types_st)
@settings(max_examples=60, deadline=None)
def test_render_round_trip(t):
    again = ty.parse_type(ty.render(t, "R"), "R")
    assert ty.equiv(again, t)


@given(ho_types_st)
@settings(max_examples=30, deadline=None)
def test_json_round_trip(t):
    assert ty.equiv(ty.from_json(ty.to_json(t)), t)


@given(types_st)
@settings(max_examples=40, deadline=None)
def test_dual_preserves_fair_termination(t):
    assert ty.is_fairly_terminating(t) == ty.is_fairly_terminating(ty.dual(t))


@given(raw_tables())
@settings(max_examples=150, deadline=None)
def test_views_and_duals_match_settled_tables(raw):
    t = ty.Type(raw)
    for n in range(t.size()):
        assert t.at(n).nodes == ty.Type(t.nodes, n).nodes
    swapped = {i: (ty._DUAL_KIND[b[0]], *b[1:]) for i, b in raw.items()}
    assert ty.dual(t).nodes == ty.Type(swapped).nodes


def reachable(nodes, root):
    """Ids of a raw table reachable from ``root``, in BFS order."""
    order = [root]
    for n in order:  # grows while it is walked
        for c in ty._kids(nodes[n]):
            if c not in order:
                order.append(c)
    return order


def bisimilar_raw(a, b, x=0, y=0):
    """The oracle on raw tables, with no minimization in between."""
    return ty.equiv(SimpleNamespace(nodes=a, root=x), SimpleNamespace(nodes=b, root=y))


@given(raw_tables(), raw_tables())
@settings(max_examples=150, deadline=None)
def test_equality_is_bisimilarity(s, t):
    assert (ty.Type(s) == ty.Type(t)) == bisimilar_raw(s, t)
    assert ty.Type(doubled(s)) == ty.Type(s) and bisimilar_raw(doubled(s), s)
    classes = []  # one representative per bisimilarity class
    for i in reachable(s, 0):
        if not any(bisimilar_raw(s, s, i, j) for j in classes):
            classes.append(i)
    assert ty.Type(s).size() == len(classes)


@given(deep_tables())
@settings(max_examples=60, deadline=None)
def test_partition_is_bisimilarity_on_deep_tables(raw):
    reach = reachable(raw, 0)
    cls = ty._quotient(raw, reach)
    for k, i in enumerate(reach):
        for j in reach[k + 1:]:
            assert (cls[i] == cls[j]) == bisimilar_raw(raw, raw, i, j), (i, j)
    assert ty.Type(raw).size() == len(set(cls.values()))


def test_types_settle_on_first_read(monkeypatch):
    calls = []
    canonical = ty._canonical_table
    monkeypatch.setattr(ty, "_canonical_table", lambda *a: calls.append(a) or canonical(*a))
    t = ty.Type({0: ("plus", (("a", 0, 1), ("b", 0, 0))), 1: ("with", (("c", 0, 0),))})
    assert calls == []
    t.nodes
    assert len(calls) == 1
    hash(t), t.node.memo, t.size()
    assert len(calls) == 1


@given(raw_tables())
@settings(max_examples=100, deadline=None)
def test_bisimilar_types_share_one_table_and_memo(raw):
    a, b = ty.Type(raw), ty.Type(doubled(raw))
    assert a.key() is b.key() and a.nodes is b.nodes and a.node.memo is b.node.memo
    assert ty.Type(a.nodes).key() is a.key()


def test_intern_map_keeps_nothing_alive():
    def build():
        t = ty.parse_type("type T = +{ a: T, only_here: &{ c: T } }")
        d = lts.derivative(t, lts.tag("out", "a"), "full")
        assert d == t and d.node.memo is t.node.memo  # a cycle: t's memo holds d, d holds t
        e = lts.derivative(t, lts.tag("in", "c"), "full")  # a stepped copy of the loop
        assert e != t and ty.dual(e) != e
        for x in (t, e, ty.dual(e)):  # fill the per-node facts too
            ty.render_inline(x), ty.is_fairly_terminating(x), ty.is_first_order(x)
        # channel labels over these payloads and their flips, each label also
        # a memo key on the node it is asked of
        labels = [lts.chan(d, x) for x in (t, e, ty.dual(e)) for d in ("in", "out")]
        labels += [l.flip() for l in labels]
        for l in labels:
            lts.enabled(t, l), lts.derivative(e, l)
        keys = [(l.direction, "chan", l.msg[1].node.serial) for l in labels]
        assert all(lts._LABELS[k] is l for k, l in zip(keys, labels))
        return [weakref.ref(n) for x in (t, e, ty.dual(e)) for n in x.key().reach()] + \
            [weakref.ref(l) for l in labels], keys

    gc.collect()
    before, labels_before = len(ty._STORE), len(lts._LABELS)
    refs, keys = build()
    gc.collect()
    assert len(ty._STORE) <= before and all(r() is None for r in refs)
    assert len(lts._LABELS) <= labels_before and not any(k in lts._LABELS for k in keys)


def test_cycle_bisimilar_to_a_node_it_reaches():
    # X steps into E, and the loop X is E; the tags are this test's own, so
    # neither is in the store unless this test put it there
    src = "type X = +{ p_xe: X, q_xe: E }  type E = +{ p_xe: E, q_xe: E }"
    for first in ("X", "E"):
        gc.collect()
        kept = ty.parse_type(src, first)
        assert kept.size() == 1
        x, e = ty.parse_type(src, "X"), ty.parse_type(src, "E")
        assert x == e and x.size() == 1 and x.key() is kept.key()
        del kept, x, e
    gc.collect()
    every = ty.resolve_all(ty.parse_decls(src))
    assert every["X"] == every["E"] and every["X"].size() == 1
    # the same cycle reached through a longer loop, numbered the other way
    raw = {0: ("plus", (("p_xe", 0, 1), ("q_xe", 0, 2))), 1: ("plus", (("p_xe", 0, 0),
           ("q_xe", 0, 2))), 2: ("plus", (("p_xe", 0, 2), ("q_xe", 0, 2)))}
    assert ty.Type(raw) == every["E"] and ty.Type(raw).size() == 1


@given(st.one_of(raw_tables(), deep_tables(max_nodes=30)))
@settings(max_examples=150, deadline=None)
def test_store_agrees_with_the_oracle(raw):
    t = ty.Type(raw)
    view = t.nodes
    for i in range(len(view)):
        for j in range(i, len(view)):
            assert (t.at(i) == t.at(j)) == bisimilar_raw(view, view, i, j), (i, j)
    derived = [lts.derivative(t, l, mode) for mode in ("must", "ind", "full")
               for d in ("in", "out") for l in lts.enumerate_labels(t, d, mode)]
    for u in [t.at(i) for i in range(len(view))] + [ty.dual(t)] + derived:
        assert u == ty.Type(u.nodes)
    for u in [ty.dual(t)] + derived:  # views are minimal; the partition is tested above
        assert len(set(ty._quotient(u.nodes, range(u.size())).values())) == u.size()


@given(st.one_of(raw_tables(), deep_tables()))
@settings(max_examples=100, deadline=None)
def test_resolve_all_matches_resolve(raw):
    label = [f"N{i}" for i in range(len(raw))]
    src = "".join(f"type N{i} = {ty._render_body(b, label)}\n" for i, b in raw.items())
    decls = ty.parse_decls(src + "type A = N0\ntype B = A\n")
    every = ty.resolve_all(decls)
    assert list(every) == list(decls)
    for name, t in every.items():
        assert t.nodes == ty.resolve(decls, name).nodes
    assert every["B"] == ty.Type(raw)


FUZZ_SOURCES = [fixtures.SATELLITE_TYPES, fixtures.SLOT_TYPES, fixtures.VARIANCE_TYPES,
                fixtures.ASYNC_TYPES, fixtures.SERVER_WORKER_TYPES, fixtures.SERVER_PROGRAM,
                fixtures.LINK_SUBSUMPTION_PROGRAM, fixtures.DEADLOCK_PROGRAM,
                fixtures.OMEGA_PROGRAM]
FUZZ_TOKENS = ["(+)", "||", "><", "+{", "&{", "end!", "end?", "{", "}", "(", ")", "@", ":",
               ",", ".", "!", "?", "=", "*", "#", "type", "sig", "def", "case", "new", "done",
               "a", "x", "S", "0", "12", "$", "-", "é"]


@st.composite
def mutated_sources(draw):
    """A fixture source after a few token deletions, duplications, replacements and swaps."""
    toks = ty.Cursor(draw(st.sampled_from(FUZZ_SOURCES))).toks[:-1]
    for _ in range(draw(st.integers(1, 3))):
        i, j = (draw(st.integers(0, len(toks) - 1)) for _ in range(2))
        op = draw(st.sampled_from(["delete", "duplicate", "replace", "swap"]))
        if op == "delete":
            del toks[i]
        elif op == "duplicate":
            toks.insert(i, toks[i])
        elif op == "replace":
            toks[i] = draw(st.sampled_from(FUZZ_TOKENS))
        else:
            toks[i], toks[j] = toks[j], toks[i]
    return " ".join(toks)


labels_st = st.tuples(st.sampled_from(["?", "!", ""]),
                      st.lists(st.sampled_from(FUZZ_TOKENS + [" ", "b1"]), max_size=5)
                      ).map(lambda t: t[0] + "".join(t[1]))


@given(mutated_sources(), labels_st)
@settings(max_examples=300, deadline=None)
def test_parsers_raise_only_their_errors(src, label):
    for parse in (lambda s: ty.resolve_all(ty.parse_decls(s)), process.parse_program):
        try:
            parse(src)
        except (ty.TypeError_, process.ProcessError):
            pass
    try:
        lts.parse_label(label, ty.parse_decls(fixtures.SATELLITE_TYPES))
    except ty.TypeError_:
        pass
