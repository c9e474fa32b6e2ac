import pytest

from sessionkit import fixtures, process, runtime


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
    # an unconsumed buffered output on x blocks the close/wait synchronization
    prog = parse("new x : +{ a: end! } >< end? { x!a.close x || wait x.done }")
    cfg = runtime.to_configuration(prog.main)
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
