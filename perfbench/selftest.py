"""Self-test of the benchmark's checks: no check may be vacuous.

Usage: python3 perfbench/selftest.py

Each workload's checker gets real outputs, which must pass, and tampered
ones (a flipped answer, a dropped witness pair, a truncated trace, a wrong
step count or measure), which must each be reported as a problem, so that
the operation carrying them would count as failed.  Exits 1 if any
tampering goes unnoticed or any real output is flagged.
"""

import copy
import dataclasses
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from sessionkit import measures, process, qm, relations, runtime, types as ty  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402

SLOT = """
type S = &{ play: +{ win: S, lose: S }, quit: end! }
type T = &{ play: +{ lose: T }, quit: end! }
"""
SATELLITE = """
type U = &{ data: U, stop: V }
type V = +{ cmd: V, stop: end? }
type S = +{ cmd: S, stop: T }
type T = &{ data: T, stop: end? }
"""
COUNTDOWN = {"states": ["s"], "sigma": ["a"], "gamma": ["a", "$"], "dollar": "$",
             "start": "s", "delta": {"s,a": ["s", ""], "s,$": ["s", ""]}}


def cases():
    """(description, problems, should the checker object) triples."""
    out = []

    # relation-mix: honesty of yes and no verdicts
    sat_s, sat_u = ty.parse_type(SATELLITE, "S"), ty.parse_type(SATELLITE, "U")
    yes = relations.check(sat_s, sat_u, "fairsub")
    slot_t, slot_s = ty.parse_type(SLOT, "T"), ty.parse_type(SLOT, "S")
    no = relations.check(slot_t, slot_s, "bzfairsub")
    if not (yes.answer == "yes" and len(yes.witness) >= 2
            and no.answer == "no" and len(no.trace) >= 2):
        raise SystemExit("self-test inputs no longer give a long witness and trace")

    def tampered(v, **changes):
        return dataclasses.replace(copy.copy(v), **changes)

    out += [
        ("real yes", checks.verdict("fairsub", sat_s, sat_u, yes), False),
        ("real no", checks.verdict("bzfairsub", slot_t, slot_s, no), False),
        ("yes flipped to no", checks.verdict(
            "fairsub", sat_s, sat_u, tampered(yes, answer="no")), True),
        ("no flipped to yes", checks.verdict(
            "bzfairsub", slot_t, slot_s, tampered(no, answer="yes")), True),
        ("witness without the queried pair", checks.verdict(
            "fairsub", sat_s, sat_u, tampered(yes, witness=yes.witness[1:])), True),
        ("witness missing a later pair", checks.verdict(
            "fairsub", sat_s, sat_u, tampered(yes, witness=yes.witness[:-1])), True),
        ("truncated trace", checks.verdict(
            "bzfairsub", slot_t, slot_s, tampered(no, trace=no.trace[:-1])), True),
        ("verdict for another relation", checks.verdict(
            "syncsub", slot_t, slot_s, no), True),
    ]

    # relation-mix and growth: properties across verdicts
    out += [
        ("syncsub yes, asyncsub no",
         checks.inclusions({"syncsub": "yes", "asyncsub": "no"}, "asyncsub"), True),
        ("bzfairsub yes, fairsub no",
         checks.inclusions({"bzfairsub": "yes", "fairsub": "no"}, "fairsub"), True),
        ("inclusions that hold",
         checks.inclusions({"syncsub": "yes", "asyncsub": "yes", "fairsub": "unknown",
                            "bzfairsub": "no"}, "fairsub"), False),
        ("compose yes, fairsub against the dual no", checks.agreement("yes", "no"), True),
        ("a true relation answered no", checks.never_no("no", "fairsub(T, T)"), True),
        ("accepting encoding composes", checks.never_yes("yes", "compose"), True),
        ("exploration shrinks", checks.monotone([34, 66, 60]), True),
        ("exploration grows", checks.monotone([34, 66, 126]), False),
    ]

    # growth: queue machines against the benchmark's own interpreter
    m = qm.QueueMachine.from_json(COUNTDOWN)
    rep = qm.step_correspondence(m, "aa", 50)
    sim = rep["sim"]
    out += [
        ("real queue-machine run", checks.queue_run(COUNTDOWN, "aa", 50, sim)
         + checks.correspondence(rep, sim.steps), False),
        ("one step too many", checks.queue_run(
            COUNTDOWN, "aa", 50, dataclasses.replace(sim, steps=sim.steps + 1)), True),
        ("wrong outcome", checks.queue_run(
            COUNTDOWN, "aa", 50, dataclasses.replace(sim, outcome="OutOfFuel")), True),
        ("correspondence fails", checks.correspondence(
            {**rep, "all_ok": False}, sim.steps), True),
        ("correspondence drops a step", checks.correspondence(
            {**rep, "steps_ok": rep["steps_ok"][:-1]}, sim.steps), True),
    ]

    # programs: step counts, outcomes, measures and typecheck reports
    prog = process.parse_program(gen.unrolled_program(4))
    report = measures.typecheck(prog, assume_cuts=("cut-y",))
    done = runtime.run(prog.main, prog.defs, runtime.RandomScheduler(0))
    steps, want = checks.unrolled_steps(4), checks.unrolled_measures(4)
    out += [
        ("real run", checks.run_outcome(done, steps), False),
        ("wrong step count", checks.run_outcome(
            dataclasses.replace(done, steps=done.steps - 1), steps), True),
        ("run stuck", checks.run_outcome(
            dataclasses.replace(done, outcome="StuckNotDone"), None), True),
        ("real measures", checks.measures(report.measures, want), False),
        ("one measure off", checks.measures(
            {**report.measures, "Split2": report.measures["Split2"] + 1}, want), True),
        ("real typecheck report", checks.typecheck(report, {"cut-y"}, {"cut-x": "yes"}),
         False),
        ("obligation verdict differs", checks.typecheck(
            report, {"cut-y"}, {"cut-x": "unknown"}), True),
        ("status differs", checks.typecheck(
            dataclasses.replace(report, status="WellTyped"), {"cut-y"}, {"cut-x": "yes"}),
         True),
    ]
    return out


def main():
    bad = [(what, probs) for what, probs, should in cases() if bool(probs) != should]
    for what, probs in bad:
        print(f"self-test: {what}: "
              f"{'flagged ' + '; '.join(probs) if probs else 'not noticed'}",
              file=sys.stderr)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
