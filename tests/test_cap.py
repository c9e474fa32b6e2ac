import pytest

from sessionkit import fixtures, measures, process, runtime


def parse(src):
    return process.parse_program(src)


def test_parse_worker_def():
    prog = parse("sig W(y: &{ task: +{ res: end! } })\n"
                 "def W(y) = case y { task: y!res.close y }")
    params, body = prog.defs["W"]
    assert params == ("y",)
    assert isinstance(body, process.Case)
    branches = dict(body.branches)
    assert isinstance(branches["task"], process.Select)


def test_parse_done_and_choice_assoc():
    prog = parse("done (+) done (+) done")
    m = prog.main
    assert isinstance(m, process.Choice)
    assert isinstance(m.left, process.Choice)  # left-associative


def test_choice_binds_loosest():
    prog = parse("sig A(x: +{ a: end! })\ndef A(x) = x!a.close x (+) x!a.close x")
    assert isinstance(prog.defs["A"][1], process.Choice)


def test_unguarded_call_rejected():
    with pytest.raises(process.ProcessError):
        parse("sig A()\ndef A() = A()")


def test_choice_counts_as_guard():
    parse("sig A()\ndef A() = A() (+) done")  # fine: the runtime can escape


def test_arity_mismatch_rejected():
    with pytest.raises(process.ProcessError):
        parse("sig A(x: end!)\ndef A(x) = done\nA()")


def test_def_free_name_mismatch():
    with pytest.raises(process.ProcessError):
        parse("sig A(x: end!)\ndef A(x) = close z")


def test_to_configuration_splits_prefixes():
    prog = parse("sig P(x: +{ a: +{ b: end! } }, y: end?)\n"
                 "def P(x, y) = x!a.x!b.wait y.done")
    cfg = runtime.to_configuration(prog.defs["P"][1])
    assert isinstance(cfg, runtime.Thread)
    assert [(i.chan, i.tag) for i in cfg.pending] == [("x", "a"), ("x", "b")]
    assert isinstance(cfg.guard, process.Wait)


def test_select_reduction():
    prog = parse("new x : +{ a: end! } >< &{ a: end? } "
                 "{ x!a.close x || case x { a: wait x.done } }")
    fresh = runtime._Fresh()
    cfg = runtime.to_configuration(prog.main, fresh=fresh)
    redexes = runtime.enabled_redexes(cfg)
    kinds = sorted(r.rule for r in redexes)
    assert kinds == ["select"]
    cfg = runtime.step(cfg, redexes[0], fresh)
    # after the select, only the close/wait synchronization remains
    (r,) = runtime.enabled_redexes(cfg)
    assert r.rule == "close"
    cfg = runtime.step(cfg, r, fresh)
    assert runtime.is_done(cfg)


def test_output_buffering_is_asynchronous():
    # the sender runs ahead: its selects sit in the buffer before the
    # receiver ever moves
    prog = parse("new x : +{ a: +{ b: end! } } >< &{ a: &{ b: end? } } "
                 "{ x!a.x!b.close x || case x { a: case x { b: wait x.done } } }")
    cfg = runtime.to_configuration(prog.main)
    left = cfg.left
    assert len(left.pending) == 2  # both outputs floated into the buffer
    res = runtime.run(prog.main, prog.defs, runtime.RoundRobinFair())
    assert res.outcome == "DoneReached"


def test_fork_reduction_builds_nested_cut():
    prog = parse(
        "new x : !(end!) . end! >< ?(end?) . end? "
        "{ x!(y){ close y }.close x || x?(z).wait z.wait x.done }")
    res = runtime.run(prog.main, None, runtime.RoundRobinFair())
    assert res.outcome == "DoneReached"


def test_link_reduction():
    prog = parse(
        "sig F(u: end!)\ndef F(u) = close u\n"
        "new x : end? >< end! { new y : end! >< end? { F(y) || link y x } || wait x.done }")
    res = runtime.run(prog.main, prog.defs, runtime.RoundRobinFair())
    assert res.outcome == "DoneReached"


def test_close_blocked_by_pending_items():
    # an unconsumed buffered output on x, on either side, blocks the
    # close/wait synchronization
    for src in ("new x : +{ a: end! } >< end? { x!a.close x || wait x.done }",
                "new x : end! >< end? { close x || x!a.wait x.done }"):
        cfg = runtime.to_configuration(parse(src).main)
        assert runtime.enabled_redexes(cfg) == []


def test_deadlock_is_stuck():
    prog = parse(fixtures.DEADLOCK_PROGRAM)
    res = runtime.run(prog.main, None, runtime.RandomScheduler(1))
    assert res.outcome == "StuckNotDone"


def test_omega_exhausts_budget():
    prog = parse(fixtures.OMEGA_PROGRAM)
    res = runtime.run(prog.main, prog.defs, runtime.RandomScheduler(1), max_steps=40)
    assert res.outcome == "BudgetExhausted"
    assert res.steps == 40


def test_probe():
    prog = parse(fixtures.OMEGA_PROGRAM)
    assert not runtime.is_weakly_terminating_probe(prog.main, prog.defs, 200)
    escapable = parse("sig O()\ndef O() = O() (+) done\nO()")
    assert runtime.is_weakly_terminating_probe(escapable.main, escapable.defs, 200)


def test_server_program_runs_to_done():
    prog = parse(fixtures.SERVER_PROGRAM)
    for seed in range(5):
        res = runtime.run(prog.main, prog.defs, runtime.RandomScheduler(seed),
                          max_steps=5000)
        assert res.outcome == "DoneReached", seed


def test_trace_format():
    prog = parse("new x : +{ a: end! } >< &{ a: end? } "
                 "{ x!a.close x || case x { a: wait x.done } }")
    res = runtime.run(prog.main, None, runtime.RoundRobinFair(), collect_trace=True)
    assert res.outcome == "DoneReached"
    assert len(res.trace) == res.steps
    for entry in res.trace:
        assert {"rule", "channel"} <= set(entry)


def test_config_key_is_structural():
    prog = parse("sig O()\ndef O() = O() (+) done\nO()")
    a = runtime.to_configuration(prog.main, prog.defs)
    b = runtime.to_configuration(prog.main, prog.defs)
    assert a is not b and a == b and hash(a) == hash(b)


# Reference substitution: every binder renamed by its own walk over its
# scope, then the arguments substituted by a second walk.
def _freshen(term, fresh):
    P = process
    if isinstance(term, P.Fork):
        y = fresh(term.y)
        return P.Fork(term.x, y,
                      _freshen(P.rename(term.payload, {term.y: y}), fresh),
                      _freshen(term.cont, fresh))
    if isinstance(term, P.Join):
        y = fresh(term.y)
        return P.Join(term.x, y, _freshen(P.rename(term.cont, {term.y: y}), fresh))
    if isinstance(term, P.Cut):
        x = fresh(term.x)
        return P.Cut(x, term.left_type, term.right_type,
                     _freshen(P.rename(term.left, {term.x: x}), fresh),
                     _freshen(P.rename(term.right, {term.x: x}), fresh),
                     term.cut_id)
    if isinstance(term, (P.Wait, P.Select)):
        return type(term)(**{**{f: getattr(term, f) for f in term.__dataclass_fields__},
                             "cont": _freshen(term.cont, fresh)})
    if isinstance(term, P.Case):
        return P.Case(term.x, tuple((t, _freshen(q, fresh)) for t, q in term.branches))
    if isinstance(term, P.Choice):
        return P.Choice(_freshen(term.left, fresh), _freshen(term.right, fresh))
    return term


# Reference configuration builder: each fork or cut binder renames its
# whole scope before the scope is built.
def _to_configuration_raw(term, fresh):
    P, R = process, runtime

    def build(t):
        pending = []
        while True:
            if isinstance(t, P.Select):
                pending.append(R.TagOut(t.x, t.tag))
                t = t.cont
            elif isinstance(t, P.Fork):
                y = fresh(t.y)
                pending.append(R.ChanOut(t.x, y, build(P.rename(t.payload, {t.y: y}))))
                t = t.cont
            else:
                break
        if isinstance(t, P.Cut):
            x = fresh(t.x)
            node = R.CutNode(x, build(P.rename(t.left, {t.x: x})),
                             build(P.rename(t.right, {t.x: x})))
            return R.push_items(node, pending)
        return R.Thread(tuple(pending), t)

    return build(term)


# binders that reuse a parameter's name, on forks, receives and cuts
SHADOWING_PROGRAMS = [
    "def S(x, y) = x!(y) { close y } . new y : end! >< end? "
    "{ close y || wait y . x!(x) { close x } . close x }\n"
    "def C(x, w) = x?(w) . wait w . x?(y) . wait y . wait x . done\n"
    "new x : end! >< end? { S(x, x) || C(x, x) }",
    "def P(x, y) = new x : end! >< end? { y!(x) { close x } . close x || wait x . Q(y) }\n"
    "def Q(y) = y!(y) { new y : end! >< end? { close y || wait y . close y } } . close y\n"
    "def R(y) = (y?(a) . wait a . y?(b) . wait b . wait y . done) (+) "
    "(y?(y) . wait y . done)\n"
    "new y : end! >< end? { P(y, y) || R(y) }",
]


def test_rename_with_fresh_matches_freshen_then_rename():
    sources = [f["source"] for f in fixtures.corpus() if f["kind"] == "program"]
    bodies = []
    for src in sources + SHADOWING_PROGRAMS:
        prog = parse(src)
        bodies += [(ps, body) for ps, body in prog.defs.values()]
        if prog.main is not None:
            bodies.append(((), prog.main))
    assert len(bodies) > 10
    new, ref = runtime._Fresh(), runtime._Fresh()
    for params, body in bodies:
        # the identity, and a rotation that maps parameters onto each other
        for args in (params, params[1:] + params[:1]):
            sub = dict(zip(params, args))
            got = process.rename(body, sub, new)
            assert got == process.rename(_freshen(body, ref), sub)
            assert new.n == ref.n
            for term in (body, got):
                assert runtime.to_configuration_raw(term, new) \
                    == _to_configuration_raw(term, ref)
                assert new.n == ref.n
    assert new.n > 50


# Reference redex enumeration: every cut lists the leaf threads of both of
# its sides again, sender by sender.
def _leaf_threads(c, path=()):
    if isinstance(c, runtime.Thread):
        yield path, c
    else:
        yield from _leaf_threads(c.left, path + ("l",))
        yield from _leaf_threads(c.right, path + ("r",))


def _first_item_on(thread, chan):
    for idx, item in enumerate(thread.pending):
        if item.chan == chan:
            return idx, item
    return None, None


def _enabled_redexes(c):
    P, R = process, runtime
    out = []
    for path, th in _leaf_threads(c):
        if isinstance(th.guard, P.Choice):
            out.append(R.Redex("choice", path, None, ("left",)))
            out.append(R.Redex("choice", path, None, ("right",)))

    def visit(node, path):
        if isinstance(node, R.Thread):
            return
        x = node.chan
        sides = (("l", node.left, node.right), ("r", node.right, node.left))
        for side, mine, other in sides:
            for spath, sth in _leaf_threads(mine, ()):
                idx, item = _first_item_on(sth, x)
                if item is None:
                    continue
                for rpath, rth in _leaf_threads(other, ()):
                    g = rth.guard
                    if isinstance(item, R.TagOut) and isinstance(g, P.Case) and g.x == x:
                        if item.tag in dict(g.branches):
                            out.append(R.Redex("select", path, x,
                                               (side, spath, rpath, item.tag)))
                    elif isinstance(item, R.ChanOut) and isinstance(g, P.Join) and g.x == x:
                        out.append(R.Redex("fork", path, x, (side, spath, rpath)))
            if isinstance(mine, R.Thread) and isinstance(mine.guard, P.Close) \
                    and mine.guard.x == x and not mine.pending:
                for rpath, rth in _leaf_threads(other, ()):
                    g = rth.guard
                    if isinstance(g, P.Wait) and g.x == x \
                            and _first_item_on(rth, x)[1] is None:
                        out.append(R.Redex("close", path, x, (side, rpath)))
            if isinstance(mine, R.Thread) and isinstance(mine.guard, P.Link) \
                    and x in (mine.guard.x, mine.guard.y) \
                    and _first_item_on(mine, x)[1] is None:
                out.append(R.Redex("link", path, x, (side,)))
        visit(node.left, path + ("l",))
        visit(node.right, path + ("r",))

    visit(c, ())
    return out


# Reference substitution: one recursive walk with a closure per call.
def _rename(p, sub, fresh=None):
    P = process
    if not sub and fresh is None:
        return p
    r = lambda q: _rename(q, sub, fresh)  # noqa: E731
    s = lambda n: sub.get(n, n)  # noqa: E731
    if isinstance(p, P.Done):
        return p
    if isinstance(p, P.Link):
        return P.Link(s(p.x), s(p.y))
    if isinstance(p, P.Close):
        return P.Close(s(p.x))
    if isinstance(p, P.Wait):
        return P.Wait(s(p.x), r(p.cont))
    if isinstance(p, P.Select):
        return P.Select(s(p.x), p.tag, r(p.cont))
    if isinstance(p, P.Case):
        return P.Case(s(p.x), tuple((t, r(q)) for t, q in p.branches))
    if isinstance(p, P.Fork):
        inner, y = P._bind(sub, p.y, fresh)
        return P.Fork(s(p.x), y, _rename(p.payload, inner, fresh), r(p.cont))
    if isinstance(p, P.Join):
        inner, y = P._bind(sub, p.y, fresh)
        return P.Join(s(p.x), y, _rename(p.cont, inner, fresh))
    if isinstance(p, P.Choice):
        return P.Choice(r(p.left), r(p.right))
    if isinstance(p, P.Cut):
        inner, x = P._bind(sub, p.x, fresh)
        return P.Cut(x, p.left_type, p.right_type, _rename(p.left, inner, fresh),
                     _rename(p.right, inner, fresh), p.cut_id)
    if isinstance(p, P.Call):
        return P.Call(p.name, tuple(s(a) for a in p.args))
    raise process.ProcessError(f"not a term: {p!r}")


# Reference normalization: every definition renamed afresh on every unfold,
# and every cut rebuilt.
def _normalize(c, defs, fresh):
    P, R = process, runtime
    while isinstance(c, R.Thread) and isinstance(c.guard, (P.Call, P.Select, P.Fork, P.Cut)):
        guard = c.guard
        if isinstance(guard, P.Call):
            params, body = defs[guard.name]
            guard = _rename(body, dict(zip(params, guard.args)), fresh)
        c = R.push_items(R.to_configuration_raw(guard, fresh), list(c.pending))
    if isinstance(c, R.CutNode):
        return R.CutNode(c.chan, _normalize(c.left, defs, fresh),
                         _normalize(c.right, defs, fresh))
    return c


def _unrolled(n):
    """The corpus server program with the producer unrolled into Split0..Splitn."""
    return "\n".join([
        "type V = +{ resp: end! }", "type S = +{ task@1: S, stop: T }",
        "type T = &{ res: T, stop: end? }",
        "type U = &{ task@1: +{ res: U }, stop: +{ stop: end! } }",
        "type XS = &{ req: V }", "type XC = +{ req: &{ resp: end? } }",
        f"def Server(x) = case x {{ req: new y : S >< U {{ Split{n}(x, y) || Worker(y) }} }}",
        "def Split0(x, y) = y!stop.Gather(x, y)",
        *(f"def Split{k}(x, y) = y!task.Split{k - 1}(x, y)" for k in range(1, n + 1)),
        "def Gather(x, y) = case y { res: Gather(x, y), stop: wait y.x!resp.close x }",
        "def Worker(y) = case y { task: y!res.Worker(y), stop: y!stop.close y }",
        "def C(x) = x!req.case x { resp: wait x.done }",
        "new x : XS >< XC { Server(x) || C(x) }"])


def _cut_chain(n, last="close u"):
    """n definitions, each opening a cut around the next one's call."""
    return "\n".join(
        [f"def A{i}(u) = new z : end! >< end? {{ A{i + 1}(z) || wait z . close u }}"
         for i in range(n)]
        + [f"def A{n}(u) = {last}", "new u : end! >< end? { A0(u) || wait u . done }"])


FORK_LINK_PROGRAM = (
    "def F(u) = close u\n"
    "def S(x) = x!(y) { F(y) } . close x\n"
    "def C(x) = x?(a) . new b : end? >< end! { link a b || wait b . wait x . done }\n"
    "new x : end! >< end? { S(x) || C(x) }")


@pytest.mark.parametrize("src", [_unrolled(n) for n in (25, 50, 100, 200, 300)]
                         + [fixtures.SERVER_PROGRAM, _cut_chain(50), FORK_LINK_PROGRAM],
                         ids=["unrolled-25", "unrolled-50", "unrolled-100", "unrolled-200",
                              "unrolled-300", "server", "cut-chain-50", "fork-link"])
def test_one_walk_redexes_and_normalize_match_the_references(src):
    prog = parse(src)
    try:
        mu = measures.infer_measures(prog)
    except measures.MeasureError:
        mu = {}
    rules = set()
    for sched in (runtime.MinMeasure(mu), runtime.RoundRobinFair(0),
                  runtime.RandomScheduler(7)):
        fresh, ref = runtime._Fresh(), runtime._Fresh()
        c = runtime.to_configuration(prog.main, prog.defs, fresh)
        assert c == _normalize(runtime.Thread((), prog.main), prog.defs, ref)
        assert fresh.n == ref.n
        for _ in range(5000):
            redexes = runtime.enabled_redexes(c)
            assert redexes == _enabled_redexes(c)
            if not redexes:
                break
            r = sched.pick(c, redexes)
            rules.add(r.rule)
            stepped = runtime.step(c, r, fresh)
            c = runtime.normalize(stepped, prog.defs, fresh)
            assert c == _normalize(stepped, prog.defs, ref)
            assert fresh.n == ref.n
            assert runtime.normalize(c, prog.defs, fresh) is c  # nothing left to change
        assert runtime.is_done(c)
    assert rules & {"select", "close", "fork", "link"}


def test_rename_matches_the_reference():
    sources = [f["source"] for f in fixtures.corpus() if f["kind"] == "program"]
    new, ref = runtime._Fresh(), runtime._Fresh()
    for src in sources + SHADOWING_PROGRAMS + [FORK_LINK_PROGRAM]:
        prog = parse(src)
        bodies = list(prog.defs.values()) + ([((), prog.main)] if prog.main else [])
        for params, body in bodies:
            for args in (params, params[1:] + params[:1]):
                sub = dict(zip(params, args))
                assert process.rename(body, sub) == _rename(body, sub)
                assert process.rename(body, sub, new) == _rename(body, sub, ref)
                assert new.n == ref.n
    assert new.n > 20


UNFOLDINGS = ("def B(x) = x!a . close x\n"
              "def N(x) = new z : end! >< end? { close z || wait z . close x }\n"
              "def F(x) = x!(y) { close y } . close x\n"
              "def J(x) = x?(y) . wait y . close x\n")


def test_binder_free_unfolding_is_built_once_per_run():
    prog = parse(UNFOLDINGS)
    fresh = runtime._Fresh()

    def unfold(name):
        thread = runtime.Thread((), process.Call(name, ("u",)))
        return runtime.normalize(thread, prog.defs, fresh)

    first, again = unfold("B"), unfold("B")
    assert first.guard is again.guard and first.pending == again.pending
    assert fresh.n == 0
    # a body with a binder draws fresh names on every unfold
    for name in ("N", "F", "J"):
        before = fresh.n
        a = unfold(name)
        middle = fresh.n
        b = unfold(name)
        assert before < middle < fresh.n and a != b, name


def test_runs_share_no_unfoldings(monkeypatch):
    made = []

    class Spy(runtime._Fresh):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(runtime, "_Fresh", Spy)
    prog = parse(fixtures.SERVER_PROGRAM)
    for _ in range(2):
        assert runtime.run(prog.main, prog.defs, runtime.RandomScheduler(3)).outcome \
            == "DoneReached"
    first, second = (m.unfoldings for m in made)
    assert first and second and first is not second
    for key in first.keys() & second.keys():
        assert first[key][1] is not second[key][1]


def test_no_module_level_caches():
    # runs and probes leave every module-level container of runtime and process
    # as it was, and nothing there is a functools cache
    def containers():
        return {(m.__name__, name): repr(value) for m in (runtime, process)
                for name, value in vars(m).items()
                if not name.startswith("__") and isinstance(value, (dict, list, set))}

    before = containers()
    for src in (fixtures.SERVER_PROGRAM, UNFOLDINGS + "new u : end! >< end? { B(u) || "
                "case u { a: wait u . done } }", FORK_LINK_PROGRAM):
        prog = parse(src)
        assert runtime.run(prog.main, prog.defs, runtime.RandomScheduler(3)).outcome \
            == "DoneReached"
        assert runtime.is_weakly_terminating_probe(prog.main, prog.defs, 50)
    assert containers() == before
    for module in (runtime, process):
        for name, value in vars(module).items():
            assert not hasattr(value, "cache_info"), (module.__name__, name)


# two independent selects, on a and on b, at the bottom of a deep cut tree
TWO_SELECTS = ("new a : +{k: end!} >< &{k: end?} { a!k . close a || "
               "new c : end! >< end? { case a { k: wait a . close c } || "
               "new b : +{k: end!} >< &{k: end?} { b!k . close b || "
               "case b { k: wait b . wait c . close u } } } }")


def test_deep_configurations_compare_without_recursion():
    # the two interleavings of the selects rebuild the whole spine of a tree
    # 400 cuts deep, so they are equal trees that share no cut on the way down
    prog = parse(_cut_chain(400, TWO_SELECTS))
    fresh = runtime._Fresh()
    c = runtime.to_configuration(prog.main, prog.defs, fresh)
    redexes = runtime.enabled_redexes(c)
    assert [r.rule for r in redexes] == ["select", "select"]
    first, second = (runtime.step(c, r, fresh) for r in redexes)
    ends = [runtime.step(a, b, fresh)
            for a, b in ((first, runtime.enabled_redexes(first)[-1]),
                         (second, runtime.enabled_redexes(second)[0]))]
    assert ends[0] is not ends[1] and ends[0].left is not ends[1].left
    assert ends[0] == ends[1] and hash(ends[0]) == hash(ends[1])
    assert first != second and ends[0] != c
    assert runtime.is_weakly_terminating_probe(prog.main, prog.defs, 2000) is True
