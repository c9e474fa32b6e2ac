import itertools
import random
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
                           for clause, label, responses, _ in chs)


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
                miss = None if answers else relations._measure_note(Y, m, resp)
            after = lts.derivative(X, l, chal) if answers else None
            rs = []
            for m in answers:
                succs = [(l.msg[1], m.msg[1])] if is_chan else []
                succs.append((after, lts.derivative(Y, m, resp)))
                rs.append(_Response(m, [p[::-1] if c else p for p in succs]))
            chs.append(_Challenge(clause, l, rs, None if rs else miss))
    if reach and any(l.is_first_order for l in lts.enumerate_labels(S, "out", "must")):
        for tau in relations._must_reachable_outputs(T):
            if not lts.enabled(S, tau, "must"):
                chs.append(_Challenge(
                    "must-output-reachability", tau, [],
                    "supertype reaches this output over must inputs; "
                    "candidate cannot emit it now"))
    pol_ok = S.is_positive() or T.is_positive() == (game == "compose")
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
            assert [(clause, label, [(m, list(succs)) for m, succs in responses], note)
                    for clause, label, responses, note in chs] == \
                [(ch.clause, ch.label, [(r.label, r.succs) for r in ch.responses], ch.note)
                 for ch in ref], kind
            for _, _, responses, _ in chs:
                for _, succs in responses:
                    for p in succs:
                        if p not in seen and len(queue) < 12:
                            seen.add(p)
                            queue.append(p)
