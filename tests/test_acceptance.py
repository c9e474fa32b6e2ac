"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Budgets and tolerances are pinned here.  All verdicts produced while running
these tests are recorded and re-validated by the final criterion: every
definitive yes must carry a checkable witness and every definitive no a
replayable counterexample.
"""

import math
import random

import pytest

from sessionkit import fixtures, lts, measures, process, qm, randgen, relations, runtime
from sessionkit import types as ty

BUDGET = relations.Budget(max_pairs=2000)

# every definitive verdict produced by the criteria below lands here for
# criterion 12 to re-validate
_VERDICTS = []


def checked(S, T, kind, budget=None):
    v = relations.check(S, T, kind, budget or BUDGET)
    _VERDICTS.append((S, T, kind, v))
    return v


def report(n, ok, desc):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} — {desc}")
    assert ok, f"criterion {n}: {desc}"


def test_criterion_1_duality_composition():
    rng = random.Random(101)
    bad = []
    for i in range(200):
        t = randgen.random_tractable(rng, max_nodes=8)
        if checked(ty.dual(t), t, "compose").answer != "yes":
            bad.append(("fo", i))
    for i in range(50):
        t = randgen.random_tractable(rng, max_nodes=6, higher_order=True)
        if checked(ty.dual(t), t, "compose").answer != "yes":
            bad.append(("ho", i))
    report(1, not bad,
           f"compose(dual(S), S) = yes for 200 first-order + 50 higher-order "
           f"random types ({len(bad)} failures)")


def test_criterion_2_full_vs_oracle():
    rng = random.Random(202)
    disagreements = 0
    for _ in range(500):
        t = randgen.random_automaton(rng, max_nodes=8)
        labels = [lts.star("in"), lts.star("out")]
        for d in ("in", "out"):
            labels += [l for l in lts.enumerate_labels(t, d, "full")
                       if l.is_first_order]
            labels += [lts.tag(d, "a"), lts.tag(d, "z", 1)]
        for l in labels:
            if lts.enabled(t, l, "full") != lts.fas_oracle(t, l):
                disagreements += 1
    report(2, disagreements == 0,
           f"full-mode enabledness matches the independent oracle on 500 "
           f"random automata ({disagreements} disagreements)")


def test_criterion_3_diamond():
    rng = random.Random(303)
    failures = 0
    for _ in range(500):
        t = randgen.random_automaton(rng, max_nodes=8)
        ins = [l for l in lts.enumerate_labels(t, "in", "full")
               if l.is_first_order and l.msg[0] == "tag"]
        outs = [l for l in lts.enumerate_labels(t, "out", "full")
                if l.is_first_order and l.msg[0] == "tag"]
        for li in ins[:2]:
            for lo in outs[:2]:
                a = lts.derivative(lts.derivative(t, li, "full"), lo, "full")
                b = lts.derivative(lts.derivative(t, lo, "full"), li, "full")
                if a is None or b is None or not ty.equiv(a, b):
                    failures += 1
    report(3, failures == 0,
           f"input/output derivatives commute on 500 random automata "
           f"({failures} failures)")


def test_criterion_4_canonical_fixtures():
    failures = []

    def want(label, got, expected):
        if got != expected:
            failures.append(f"{label}: got {got}, want {expected}")

    sat = fixtures.SATELLITE_TYPES
    v = checked(ty.parse_type(sat, "S"), ty.parse_type(sat, "U"), "fairsub")
    want("satellite yes", v.answer, "yes")
    if v.witness is not None:
        want("satellite witness size <= 6", len(v.witness) <= 6, True)

    ant = "type E = !(end!) . ?(end!) . end!  type L = ?(end!) . !(end!) . end!"
    want("anticipation yes",
         checked(ty.parse_type(ant, "E"), ty.parse_type(ant, "L"), "fairsub").answer,
         "yes")
    want("anticipation inverse no",
         checked(ty.parse_type(ant, "L"), ty.parse_type(ant, "E"), "fairsub").answer,
         "no")

    slot = fixtures.SLOT_TYPES
    T, S = ty.parse_type(slot, "T"), ty.parse_type(slot, "S")
    # True but out of reach: every fair-subtyping witness for this pair is
    # infinite, so the bounded game cannot answer yes.  Kept as an honest
    # failure rather than weakening the criterion.
    want("slot-machine fairsub yes", checked(T, S, "fairsub").answer, "yes")
    want("slot-machine bzfairsub no", checked(T, S, "bzfairsub").answer, "no")

    var = fixtures.VARIANCE_TYPES
    want("failed-variance no",
         checked(ty.parse_type(var, "S"), ty.parse_type(var, "T"), "fairsub").answer,
         "no")
    want("early-output-commit yes",
         checked(ty.parse_type(var, "Sub"), ty.parse_type(var, "S"), "fairsub").answer,
         "yes")

    rng = random.Random(404)
    zero = ty.parse_type("type Z = +{}")
    top = ty.parse_type("type X = &{}")
    for _ in range(50):
        t = randgen.random_tractable(rng)
        want("0 <= T", checked(zero, t, "fairsub").answer, "yes")
        want("T <= top", checked(t, top, "fairsub").answer, "yes")

    asy = fixtures.ASYNC_TYPES
    want("bounded-anticipation asyncsub no",
         checked(ty.parse_type(asy, "PS"), ty.parse_type(asy, "T"), "asyncsub").answer,
         "no")

    report(4, not failures, "canonical subtyping fixtures exact verdicts"
           + ("" if not failures else f" ({'; '.join(failures)})"))


def _random_pairs(seed, n):
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < n:
        t = randgen.random_tractable(rng, max_nodes=6)
        other = randgen.mutate(rng, t) if rng.random() < 0.7 else \
            randgen.random_tractable(rng, max_nodes=6)
        pairs.append((t, other))
    return pairs


PAIRS = _random_pairs(505, 300)


def test_criterion_5_inclusions():
    violations = 0
    for s, t in PAIRS:
        sync = checked(s, t, "syncsub").answer
        asyn = checked(s, t, "asyncsub").answer
        fair = checked(s, t, "fairsub").answer
        bz = checked(s, t, "bzfairsub").answer
        if sync == "yes" and asyn != "yes":
            violations += 1
        if asyn == "yes" and fair != "yes":
            violations += 1
        if bz == "yes" and fair != "yes":
            violations += 1
    report(5, violations == 0,
           f"sync ⊆ async ⊆ fair and bzfair ⊆ fair over 300 random pairs "
           f"({violations} violations)")


def test_criterion_6_compose_subtyping_agreement():
    contradictions = 0
    corpus = PAIRS[:100] + [
        (ty.parse_type(fixtures.SERVER_WORKER_TYPES, "S"),
         ty.parse_type(fixtures.SERVER_WORKER_TYPES, "U"))]
    for s, t in corpus:
        comp = checked(s, t, "compose").answer
        sub = checked(s, ty.dual(t), "fairsub").answer
        if {comp, sub} == {"yes", "no"}:
            contradictions += 1
    report(6, contradictions == 0,
           f"compose(S,T) vs fairsub(S,dual(T)) never contradictory "
           f"({contradictions} contradictions)")


def test_criterion_7_duality_closure():
    bad = 0
    yes_count = 0
    for s, t in PAIRS:
        v = checked(s, t, "fairsub")
        if v.answer != "yes":
            continue
        yes_count += 1
        dv = checked(ty.dual(t), ty.dual(s), "fairsub")
        if dv.answer != "yes":
            bad += 1
            continue
        dual_witness = [(ty.dual(b), ty.dual(a)) for a, b in v.witness]
        ok, _ = relations.validate_witness("fairsub", dual_witness)
        if not ok:
            bad += 1
    report(7, bad == 0 and yes_count > 0,
           f"every fairsub yes ({yes_count} of them) survives dualization "
           f"with a valid dualized witness ({bad} failures)")


def test_criterion_8_server_worker_honesty():
    S = ty.parse_type(fixtures.SERVER_WORKER_TYPES, "S")
    U = ty.parse_type(fixtures.SERVER_WORKER_TYPES, "U")
    v = checked(S, U, "compose", relations.Budget(max_pairs=2000))
    ok = v.answer == "unknown"
    explored = []
    for n in (500, 2000, 8000):
        explored.append(relations.check(S, U, "compose",
                                        relations.Budget(max_pairs=n))
                        .stats["pairs_explored"])
    # non-decreasing: once another limit (pair size) is the binding
    # constraint, a larger pair budget cannot shrink the exploration
    monotone = explored == sorted(explored)
    report(8, ok and monotone,
           f"server/worker compose is unknown at 2000 pairs and exploration "
           f"is monotone in the budget {explored}")


def test_criterion_9_measures():
    prog = process.parse_program(fixtures.SERVER_PROGRAM)
    mu = measures.infer_measures(prog)
    exact = (mu["Gather"], mu["Split"], mu["Worker"], mu["Server"]) == (2, 4, 2, 6)

    zeroed = process.parse_program(fixtures.SERVER_PROGRAM.replace("task@1", "task"))
    worker_inf = math.isinf(measures.infer_measures(zeroed)["Worker"])

    micro = process.parse_program(
        "type TM = +{ a: TM, b: +{ b: end! } }\nsig M(x: TM)\n"
        "def M(x) = x!a.M(x) (+) x!b.x!b.close x")
    micro_ok = measures.infer_measures(micro)["M"] == 4

    report(9, exact and worker_inf and micro_ok,
           f"measures Gather=2 Split=4 Worker=2 Server=6 (got {mu}), zeroed "
           f"Worker=inf ({worker_inf}), micro-equation m=1+min(1+m,3) -> 4 "
           f"({micro_ok})")


def test_criterion_10_simulator():
    prog = process.parse_program(fixtures.SERVER_PROGRAM)
    mu = measures.infer_measures(prog)
    failures = []

    res = runtime.run(prog.main, prog.defs, runtime.MinMeasure(mu), max_steps=200)
    if res.outcome != "DoneReached":
        failures.append(f"minmeasure: {res.outcome}")
    # the run is deterministic, so a shorter budget stops it at each sampled prefix
    sampled = [runtime.run(prog.main, prog.defs, runtime.MinMeasure(mu), max_steps=k).final
               for k in range(0, res.steps, 10)]
    for cfg in sampled:
        if not runtime.is_weakly_terminating_probe(cfg, prog.defs, 2000):
            failures.append("sampled prefix failed the termination probe")

    for seed in range(50):
        r = runtime.run(prog.main, prog.defs, runtime.RandomScheduler(seed),
                        max_steps=5000)
        if r.outcome != "DoneReached":
            failures.append(f"random seed {seed}: {r.outcome}")

    dprog = process.parse_program(fixtures.DEADLOCK_PROGRAM)
    dres = runtime.run(dprog.main, None, runtime.RandomScheduler(0))
    if dres.outcome != "StuckNotDone":
        failures.append(f"deadlock fixture: {dres.outcome}")
    if measures.typecheck(dprog).status != "IllTyped":
        failures.append("deadlock fixture not rejected by the typechecker")

    report(10, not failures,
           "server+client reaches done under minmeasure (200 steps) and 50 "
           "random seeds (5000 steps), sampled prefixes stay weakly "
           "terminating, deadlock fixture stuck and ill-typed"
           + ("" if not failures else f" ({failures[:3]})"))


def test_criterion_11_queue_machines():
    rng = random.Random(1111)
    failures = 0
    accepted = 0
    for _ in range(20):
        m = qm.random_machine(rng)
        word = "".join(rng.choice(m.sigma) for _ in range(rng.randint(0, 4)))
        rep = qm.step_correspondence(m, word, max_steps=200)
        if not rep["all_ok"]:
            failures += 1
            continue
        if rep["sim"].outcome == "Accepted":
            accepted += 1
            qt, ct = qm.encode(m, word)
            if checked(qt, ct, "compose", relations.Budget(400)).answer == "yes":
                failures += 1
    report(11, failures == 0,
           f"per-step correspondence for 20 random machines; {accepted} "
           f"accepting runs, none of their encodings composes "
           f"({failures} failures)")


def test_criterion_12_all_verdicts_validate():
    assert _VERDICTS, "criteria 1-11 must run first"
    bad = []
    for s, t, kind, v in _VERDICTS:
        if v.answer == "yes":
            ok, why = relations.validate_witness(kind, v.witness)
            if not ok:
                bad.append((kind, "witness", why))
        elif v.answer == "no":
            ok, why = relations.validate_counterexample(s, t, kind, v.trace)
            if not ok:
                bad.append((kind, "trace", why))
    report(12, not bad,
           f"all {len(_VERDICTS)} verdicts from criteria 1-11 re-validate "
           f"({len(bad)} failures{': ' + str(bad[:3]) if bad else ''})")
