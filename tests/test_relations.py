import dataclasses
import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from sessionkit import fixtures, lts, randgen, relations
from sessionkit import types as ty


def tractable(seed, max_nodes=8, higher_order=False):
    return randgen.random_tractable(random.Random(seed), max_nodes,
                                    higher_order=higher_order)


tractable_st = st.integers(0, 10**9).map(tractable)


def check(decls, a, b, kind, **kw):
    return relations.check(ty.parse_type(decls, a), ty.parse_type(decls, b),
                           kind, relations.Budget(**kw) if kw else None)


# ----------------------------------------------------------------------------
# composition


def test_dual_composes_simple():
    s = ty.parse_type("type S = +{ a@1: S, b: end! }")
    v = relations.dual_composes(s)
    assert v.answer == "yes"
    ok, why = relations.validate_witness("compose", v.witness)
    assert ok, why


def test_compose_needs_opposite_polarity():
    v = check("type A = &{ a: end? }  type B = &{ b: end? }", "A", "B", "compose")
    assert v.answer == "no"
    assert v.trace[-1]["clause"] == "polarity"


def test_compose_mixed_polarity_examples():
    # an output meets the matching input even when nested under other actions
    decls = ("type A = &{ a: +{ b: end! } }  type B = +{ a: &{ b: end? } }\n"
             "type C = +{ b: &{ a: end! } }")
    assert check(decls, "A", "B", "compose").answer == "yes"
    assert check(decls, "C", "B", "compose").answer == "yes"


def test_compose_empty_choices():
    decls = ("type Z = +{}  type X = &{}  type P = +{ a: end! }  type N = &{ a: end? }\n"
             "type H = !(end!) . end!")
    assert check(decls, "Z", "N", "compose").answer == "yes"
    assert check(decls, "Z", "P", "compose").answer == "yes"  # 0 absorbs anything
    assert check(decls, "Z", "H", "compose").answer == "yes"  # even unseen payloads
    assert check(decls, "X", "P", "compose").answer == "no"
    assert check(decls, "X", "Z", "compose").answer == "yes"


def test_compose_measure_mismatch():
    v = check("type A = +{ a@1: end! }  type B = &{ a@2: end? }", "A", "B", "compose")
    assert v.answer == "no"
    assert any("measure" in (s.get("note") or "") for s in v.trace)


def test_compose_higher_order_payloads_must_be_dual():
    decls = ("type A = !(end!) . end!  type B = ?(end?) . end?\n"
             "type C = ?(end!) . end?")
    assert check(decls, "A", "B", "compose").answer == "yes"
    assert check(decls, "A", "C", "compose").answer == "no"


def test_server_worker_compose_unknown():
    v = check(fixtures.SERVER_WORKER_TYPES, "S", "U", "compose", max_pairs=2000)
    assert v.answer == "unknown"
    assert v.stats["pairs_frontier"] > 0


# ----------------------------------------------------------------------------
# subtyping


def test_satellite_witness_small():
    v = check(fixtures.SATELLITE_TYPES, "S", "U", "fairsub")
    assert v.answer == "yes"
    assert len(v.witness) <= 6
    root = (ty.parse_type(fixtures.SATELLITE_TYPES, "S"),
            ty.parse_type(fixtures.SATELLITE_TYPES, "U"))
    assert v.witness[0] == root
    ok, why = relations.validate_witness("fairsub", v.witness)
    assert ok, why


def test_witness_validation_rejects_broken_closure():
    v = check(fixtures.SATELLITE_TYPES, "S", "U", "fairsub")
    # deleting any non-root pair breaks clause closure
    for i in range(1, len(v.witness)):
        broken = v.witness[:i] + v.witness[i + 1:]
        ok, _ = relations.validate_witness("fairsub", broken)
        if not ok:
            break
    else:
        pytest.fail("no deletion broke the witness")


def test_counterexample_replays():
    decls = fixtures.VARIANCE_TYPES
    S, T = ty.parse_type(decls, "S"), ty.parse_type(decls, "T")
    v = relations.check(S, T, "fairsub")
    assert v.answer == "no"
    ok, why = relations.validate_counterexample(S, T, "fairsub", v.trace)
    assert ok, why


def test_anticipation_law():
    decls = "type E = !(end!) . ?(end!) . end!  type L = ?(end!) . !(end!) . end!"
    assert check(decls, "E", "L", "fairsub").answer == "yes"
    assert check(decls, "L", "E", "fairsub").answer == "no"


def test_slot_machine_spread():
    expected = {"fairsub": "unknown", "bzfairsub": "no",
                "syncsub": "yes", "asyncsub": "yes"}
    for kind, want in expected.items():
        assert check(fixtures.SLOT_TYPES, "T", "S", kind).answer == want, kind


def test_variant_kinds_reject_higher_order():
    decls = "type A = !(end!) . end!  type B = !(end!) . end!"
    for kind in ("syncsub", "asyncsub", "bzfairsub", "auxsub"):
        with pytest.raises(ValueError):
            check(decls, "A", "B", kind)


def test_async_bounded_anticipation():
    assert check(fixtures.ASYNC_TYPES, "PS", "T", "asyncsub").answer == "no"
    assert check(fixtures.ASYNC_TYPES, "PS", "T", "fairsub").answer == "yes"
    assert check(fixtures.ASYNC_TYPES, "APos", "ASup", "asyncsub").answer == "yes"


def test_zero_and_top_are_extremes():
    rng = random.Random(7)
    zero = ty.parse_type("type Z = +{}")
    top = ty.parse_type("type X = &{}")
    ts = [randgen.random_tractable(rng) for _ in range(10)]
    # channels whose payload occurs nowhere in the empty choice
    ts += [ty.parse_expr("?(end!) . end?"), ty.parse_expr("!(end!) . end!")]
    for t in ts:
        for a, b in ((zero, t), (t, top)):
            v = relations.check(a, b, "fairsub")
            assert v.answer == "yes"
            ok, why = relations.validate_witness("fairsub", v.witness)
            assert ok, why


def test_unknown_names_the_caps_that_cut_the_frontier():
    exhausted = "budget exhausted before the game closed: "
    # one pair on the frontier, cut by the node cap, not the pair budget
    v = check(fixtures.SERVER_WORKER_TYPES, "S", "U", "compose", max_pairs=20000)
    assert v.answer == "unknown" and v.stats["pairs_frontier"] == 1
    assert v.reason == exhausted + "max_nodes_per_type=64 cut the frontier"
    v = check(fixtures.SLOT_TYPES, "T", "S", "fairsub")
    assert v.answer == "unknown" and v.stats["pairs_frontier"] == 1
    assert v.reason == exhausted + "max_nodes_per_type=64 cut the frontier"
    v = check(fixtures.SERVER_WORKER_TYPES, "S", "U", "compose", max_pairs=32)
    assert v.answer == "unknown" and v.stats["pairs_explored"] > 32
    assert v.reason == exhausted + "max_pairs=32 cut the frontier"
    # two server/worker chains, one padded so that it meets the node cap first
    two = fixtures.SERVER_WORKER_TYPES + """
        type A = +{ x: S, y: P }  type P = +{ job@1: P, stop: V }
        type V = &{ res: V, stop: &{ p: &{ q: &{ r: end? } } } }
        type B = &{ x: U, y: W }
        type W = &{ job@1: +{ res: W }, stop: +{ stop: +{ p: +{ q: +{ r: end! } } } } }"""
    v = check(two, "A", "B", "compose", max_pairs=34, max_nodes_per_type=11)
    assert v.answer == "unknown"
    assert v.reason == exhausted + "max_nodes_per_type=11 and max_pairs=34 cut the frontier"


def test_budget_is_frozen():
    b = relations.Budget(32)
    for budget in (b, relations._BUDGET):
        with pytest.raises(dataclasses.FrozenInstanceError):
            budget.max_pairs = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            budget.max_nodes_per_type = 1
    assert repr(b) == "Budget(max_pairs=32, max_nodes_per_type=64)"
    assert repr(relations._BUDGET) == "Budget(max_pairs=2000, max_nodes_per_type=64)"
    assert b == relations.Budget(max_pairs=32) and relations._BUDGET == relations.Budget()


def _batch(seed, pairs):
    """Seeded (S, T) pairs, a quarter drawn higher-order, most T mutants of S."""
    rng = random.Random(seed)
    for i in range(pairs):
        S = randgen.random_tractable(rng, 6, higher_order=i % 4 == 0)
        T = randgen.mutate(rng, S) if i % 3 else \
            randgen.random_tractable(rng, 6, higher_order=i % 4 == 0)
        yield S, T


def _kinds(S, T):
    first_order = ty.is_first_order(S) and ty.is_first_order(T)
    return [k for k in relations.KINDS if first_order or not relations.MODES[k][3]]


def test_label_tables_are_built_once_per_node(monkeypatch):
    # each side's moves are a fact of its root node: a game reads them from
    # the node's table and never enumerates labels again
    built, build = Counter(), lts._build_table

    def counted(n, direction, mode):
        built[n, direction, mode] += 1  # holds n, so no node dies and returns
        return build(n, direction, mode)

    def enumerate_labels(*args):
        raise AssertionError("a game enumerated labels")

    batch = list(_batch(39, 40))  # randgen enumerates labels to draw
    monkeypatch.setattr(lts, "_build_table", counted)
    monkeypatch.setattr(lts, "enumerate_labels", enumerate_labels)
    answers, higher_order = Counter(), 0
    for S, T in batch:
        higher_order += not ty.is_first_order(S)
        for kind in _kinds(S, T):
            for pair in ((S, T), (S, S), (ty.dual(S), S)):
                answers[relations.check(*pair, kind).answer] += 1
    assert higher_order and answers["yes"] and answers["no"]
    assert {mode for _, _, mode in built} == {"must", "ind", "full"}
    assert set(built.values()) == {1}


_HASH_SEED_BATCH = """
import json, sys
sys.path.insert(0, {tests!r})
from test_relations import _batch, _kinds
from sessionkit import relations
for S, T in _batch(21, 40):
    for kind in _kinds(S, T):
        print(json.dumps(relations.check(S, T, kind).to_json()))
"""


def test_verdicts_ignore_hash_seed():
    src = os.path.dirname(os.path.dirname(relations.__file__))
    script = _HASH_SEED_BATCH.format(tests=os.path.dirname(os.path.abspath(__file__)))
    outs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]
        outs.append(done.stdout)
    verdicts = [json.loads(line) for line in outs[0].splitlines()]
    assert len(verdicts) > 150 and {v["answer"] for v in verdicts} >= {"yes", "no"}
    assert any("witness" in v for v in verdicts) and any("trace" in v for v in verdicts)
    assert outs[0] == outs[1]


def test_unknown_budget_and_monotone_stats():
    decls = fixtures.SERVER_WORKER_TYPES
    explored = []
    for n in (100, 400, 1600):
        v = check(decls, "S", "U", "compose", max_pairs=n)
        assert v.answer == "unknown"
        explored.append(v.stats["pairs_explored"])
    assert explored == sorted(explored)


def test_cross_check_consistency():
    r = relations.cross_check_correct_subt(
        ty.parse_type(fixtures.SERVER_WORKER_TYPES, "S"),
        ty.parse_type(fixtures.SERVER_WORKER_TYPES, "U"))
    assert r["consistent"]
    assert r["compose"] == "unknown" and r["fairsub"] == "unknown"


def test_unfair_inputs_warn():
    v = check("type A = +{ a: A }  type B = +{ a: B }", "A", "B", "syncsub")
    assert v.warnings


@given(tractable_st)
@settings(max_examples=30, deadline=None)
def test_reflexivity(t):
    for kind in ("fairsub", "syncsub", "asyncsub", "auxsub"):
        assert relations.check(t, t, kind).answer == "yes"


@given(tractable_st)
@settings(max_examples=25, deadline=None)
def test_dual_composes_random(t):
    v = relations.dual_composes(t)
    assert v.answer == "yes"
    ok, why = relations.validate_witness("compose", v.witness)
    assert ok, why


@given(tractable_st, st.integers(0, 10**9))
@settings(max_examples=25, deadline=None)
def test_definitive_verdicts_validate(t, seed):
    other = randgen.mutate(random.Random(seed), t)
    v = relations.check(t, other, "fairsub")
    if v.answer == "yes":
        ok, why = relations.validate_witness("fairsub", v.witness)
        assert ok, why
    elif v.answer == "no":
        ok, why = relations.validate_counterexample(t, other, "fairsub", v.trace)
        assert ok, why


MIRRORED = {"send-left": "send-sub", "send-right": "receive-sup",
            "send-chan-left": "send-chan-sub", "send-chan-right": "receive-chan-sup"}


def _shape(expansion, rename=lambda clause: clause):
    pol_ok, chs = expansion
    return pol_ok, Counter((rename(clause), label.msg[0], len(responses))
                           for clause, label, responses in chs)


@given(st.integers(0, 10**9), st.booleans(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_compose_mirrors_fairsub_against_dual(seed, higher_order, mutant):
    # compose(S, T) faces T where fairsub(S, dual T) compares with dual T:
    # every challenge has a mirror image with as many responses
    rng = random.Random(seed)
    S = randgen.random_tractable(rng, 6, higher_order=higher_order)
    T = (randgen.mutate(rng, S) if mutant
         else randgen.random_tractable(rng, 6, higher_order=higher_order))
    assert (_shape(relations._expand("compose", S, T), MIRRORED.get)
            == _shape(relations._expand("fairsub", S, ty.dual(T))))


@dataclass
class _Response:
    label: object
    succs: list


@dataclass
class _Challenge:
    clause: str
    label: object
    responses: list
    note: str | None = None


def _view_measure_note(responder, l, mode):
    """Reference for relations._note on tags: a walk of the responder's view."""
    if l.msg[0] != "tag":
        return None
    name, m = l.msg[1], l.msg[2]
    for b in responder.nodes:
        if b[0] in ("plus", "with"):
            for tg, mm, _ in b[1]:
                if tg == name and mm != m:
                    alt = lts.Label(l.direction, ("tag", name, mm))
                    if lts.enabled(responder, alt, mode):
                        return f"measure mismatch on tag {name!r}: {m} vs {mm}"
    return None


def _view_must_reachable_outputs(T):
    """Reference for relations._must_reachable_outputs, over enumerate_labels."""
    queue, out = [T], {}
    for u in queue:  # grows as derivatives are discovered
        for l in lts.enumerate_labels(u, "out", "must"):
            if l.is_first_order:
                out.setdefault(l)
        for l in lts.enumerate_labels(u, "in", "must"):
            if l.is_first_order and lts.derivative(u, l, "must") not in queue:
                queue.append(lts.derivative(u, l, "must"))
    return list(out)


def _dataclass_expand(kind, S, T):
    """Reference for relations._expand: the game as objects, asking ``enabled``
    before ``derivative`` and building a fresh response label every time."""
    game, chal, resp, first_order, reach = relations.MODES[kind]
    sides = (S, T)
    chs = []
    for clause, c, cd, rd, is_chan, note in relations.RULES[game]:
        if is_chan and first_order:
            continue
        X, Y = sides[c], sides[1 - c]
        for l in lts.enumerate_labels(X, cd, chal):
            if l.is_first_order == is_chan:
                continue
            if is_chan:
                hint = lts.chan(rd, l.msg[1] if cd == rd else ty.dual(l.msg[1]))
                answers = [m for m in lts.enumerate_labels(Y, rd, resp)
                           if not m.is_first_order]
                if hint not in answers and lts.enabled(Y, hint, resp):
                    answers.append(hint)
                miss = note
            else:
                m = lts.Label(rd, l.msg)
                answers = [m] if lts.enabled(Y, m, resp) else []
                miss = None if answers else _view_measure_note(Y, m, resp)
            after = lts.derivative(X, l, chal) if answers else None
            rs = []
            for m in answers:
                succs = [(l.msg[1], m.msg[1])] if is_chan else []
                succs.append((after, lts.derivative(Y, m, resp)))
                rs.append(_Response(m, [p[::-1] if c else p for p in succs]))
            chs.append(_Challenge(clause, l, rs, None if rs else miss))
    if reach and any(l.is_first_order for l in lts.enumerate_labels(S, "out", "must")):
        for tau in _view_must_reachable_outputs(T):
            if not lts.enabled(S, tau, "must"):
                chs.append(_Challenge(
                    "must-output-reachability", tau, [],
                    "supertype reaches this output over must inputs; "
                    "candidate cannot emit it now"))
    pol_ok = S.kind() in ty.POSITIVE or (T.kind() in ty.POSITIVE) == (game == "compose")
    return pol_ok, chs


@given(st.integers(0, 10**9), st.booleans(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_expand_matches_dataclass_reference(seed, higher_order, mutant):
    rng = random.Random(seed)
    S = randgen.random_tractable(rng, 6, higher_order=higher_order)
    T = (randgen.mutate(rng, S) if mutant
         else randgen.random_tractable(rng, 6, higher_order=higher_order))
    # also the reflexive and the dual pair, whose games run longer
    for kind, root in itertools.product(relations.KINDS, ((S, T), (S, S), (ty.dual(S), S))):
        queue, seen = [root], {root}
        for pair in queue:  # grows, up to 12 pairs, as the game reaches them
            pol_ok, chs = relations._expand(kind, *pair)
            ref_ok, ref = _dataclass_expand(kind, *pair)
            assert pol_ok == ref_ok
            assert [(clause, label, [(m, list(succs)) for m, succs in responses])
                    for clause, label, responses in chs] == \
                [(ch.clause, ch.label, [(r.label, r.succs) for r in ch.responses])
                 for ch in ref], kind
            for (clause, label, responses), ch in zip(chs, ref):
                if not responses:  # the explanation a trace would end with
                    assert relations._note(kind, pair, clause, label) == ch.note, kind
            for _, _, responses in chs:
                for _, succs in responses:
                    for p in succs:
                        if p not in seen and len(queue) < 12:
                            seen.add(p)
                            queue.append(p)


def _shared_chain(levels):
    """T_i = +{ a: T_i+1, b: T_i+1 } down to end!, against the same chain of
    external choices down to &{ c: end? }: the pairs' written text doubles
    per level, as both branches reach one shared node, while the game is a
    path of ``levels + 1`` pairs that compose answers no to."""
    decls = "\n".join(f"type T{i} = +{{ a: T{i + 1}, b: T{i + 1} }}  "
                      f"type U{i} = &{{ a: U{i + 1}, b: U{i + 1} }}" for i in range(levels))
    decls += f"\ntype T{levels} = end!  type U{levels} = &{{ c: end? }}"
    return ty.parse_type(decls, "T0"), ty.parse_type(decls, "U0")


def test_the_game_renders_no_text(monkeypatch):
    # check and the validators keep moves and types; a verdict becomes text
    # only when it is printed, so a no costs its game and not its rendering
    cases = [(f["relation"], fixtures._resolve(f["types"], f["left"]),
              fixtures._resolve(f["types"], f["right"]), None)
             for f in fixtures.corpus() if f["kind"] == "relation"]
    tight = relations.Budget(max_pairs=3, max_nodes_per_type=5)
    for seed in range(40):
        rng = random.Random(seed)
        S = randgen.random_tractable(rng, 6, higher_order=seed % 3 == 0)
        T = (randgen.mutate(rng, S) if seed % 2
             else randgen.random_tractable(rng, 6, higher_order=seed % 3 == 0))
        for kind in relations.KINDS:
            if not relations.MODES[kind][3] or ty.is_first_order(S) and ty.is_first_order(T):
                cases += [(kind, S, T, None), (kind, S, T, tight)]
    chain = _shared_chain(19)

    def refuse(t):
        raise AssertionError("a type was rendered during the game")

    monkeypatch.setattr(ty, "render_inline", refuse)
    verdicts = []
    for kind, S, T, budget in cases + [("compose", *chain, None)]:
        v = relations.check(S, T, kind, budget)
        if v.answer == "yes":
            assert relations.validate_witness(kind, v.witness) == (True, None)
        elif v.answer == "no":
            assert relations.validate_counterexample(S, T, kind, v.trace) == (True, None)
        verdicts.append((kind, v))
    monkeypatch.undo()
    assert {kind for kind, _ in verdicts} == set(relations.KINDS)
    assert {v.answer for _, v in verdicts} == {"yes", "no", "unknown"}
    last = verdicts.pop()[1]
    assert last.answer == "no" and len(last.trace) == 20
    assert last.trace[0]["pair"] == chain
    assert all(a["next"] == b["pair"] for a, b in zip(last.trace, last.trace[1:]))
    for _, v in verdicts:  # the chain's trace would render 2^19 nodes
        json.dumps(v.to_json())
