"""Checks on the program's outputs, made apart from the fast paths they check.

Every function returns a list of problems; an empty list means the check
holds.  The workloads attach each problem to the operation whose output it
judges, and an operation with a problem counts as failed.  Expected values
(measures, step counts, queue-machine runs) are derived here by hand or by a
separate interpreter, never copied from the program's own output.
"""

from __future__ import annotations

from collections import deque

from sessionkit import relations, types as ty

SUBTYPE_INCLUSIONS = (("syncsub", "asyncsub"), ("asyncsub", "fairsub"),
                      ("bzfairsub", "fairsub"))


def verdict(kind, S, T, v) -> list:
    """Three-valued honesty: `yes` with a witness that holds the queried pair
    and validates, `no` with a trace that replays, `unknown` otherwise."""
    if v.answer == "yes":
        if not v.witness:
            return [f"{kind}: yes without a witness"]
        root = (ty.canonicalize(S).key(), ty.canonicalize(T).key())
        members = {(ty.canonicalize(a).key(), ty.canonicalize(b).key())
                   for a, b in v.witness}
        if root not in members:
            return [f"{kind}: witness misses the queried pair"]
        ok, why = relations.validate_witness(kind, v.witness)
        return [] if ok else [f"{kind}: witness does not validate: {why}"]
    if v.answer == "no":
        ok, why = relations.validate_counterexample(S, T, kind, v.trace or [])
        return [] if ok else [f"{kind}: trace does not replay: {why}"]
    if v.answer == "unknown":
        return []
    return [f"{kind}: answer {v.answer!r} is not yes/no/unknown"]


def never_no(answer, what) -> list:
    """For relations that hold by construction: a `no` is a wrong answer."""
    return [f"{what} answered no but holds"] if answer == "no" else []


def never_yes(answer, what) -> list:
    return [f"{what} answered yes but fails"] if answer == "yes" else []


def inclusions(answers: dict, kind: str) -> list:
    """Inclusions between answered relations, judged at `kind`: a yes for
    the smaller relation must not meet a no for the larger one."""
    return [f"{sub} yes but {sup} no" for sub, sup in SUBTYPE_INCLUSIONS
            if kind in (sub, sup) and answers.get(sub) == "yes"
            and answers.get(sup) == "no"]


def agreement(compose_answer, fairsub_dual_answer) -> list:
    """compose(S, T) and fairsub(S, dual T) decide the same question."""
    if {compose_answer, fairsub_dual_answer} == {"yes", "no"}:
        return [f"compose {compose_answer} but fairsub against the dual "
                f"{fairsub_dual_answer}"]
    return []


def monotone(explored: list) -> list:
    """A larger pair budget never explores fewer pairs."""
    if any(b < a for a, b in zip(explored, explored[1:])):
        return [f"pairs_explored shrinks as the budget grows: {explored}"]
    return []


def run_queue_machine(machine: dict, word: str, max_steps: int):
    """(outcome, steps) of a queue machine given in its JSON form."""
    state, queue = machine["start"], deque(word + machine["dollar"])
    for n in range(max_steps):
        if not queue:
            return "Accepted", n
        move = machine["delta"].get(f"{state},{queue.popleft()}")
        if move is None:
            return "Stuck", n
        state, appended = move
        queue.extend(appended)
    return ("Accepted" if not queue else "OutOfFuel"), max_steps


def queue_run(machine: dict, word: str, max_steps: int, sim) -> list:
    want = run_queue_machine(machine, word, max_steps)
    got = (sim.outcome, sim.steps)
    return [] if got == want else [f"simulate gives {got}, interpreter {want}"]


def correspondence(report: dict, steps: int) -> list:
    probs = []
    if not report["all_ok"]:
        probs.append("step correspondence fails")
    if len(report["steps_ok"]) != steps:
        probs.append(f"{len(report['steps_ok'])} correspondence steps for "
                     f"{steps} machine steps")
    return probs


def unrolled_measures(n: int) -> dict:
    """Least measures of the unrolled server program, derived by hand.

    Split0 = 1 (stop) + Gather = 3, Split_k = 1 + 1 (task@1) + Split_{k-1},
    Gather = max(Gather, 1 + 1) = 2, Worker = max(1 + Worker - 1, 2) = 2,
    Server = Split_n + Worker, C = 1.
    """
    mu = {f"Split{k}": 3 + 2 * k for k in range(n + 1)}
    mu.update(Server=2 * n + 5, Gather=2, Worker=2, C=1)
    return mu


# The corpus server program: Split = 1 + min(2 + Split, 1 + Gather) = 4.
SERVER_MEASURES = {"Server": 6, "Split": 4, "Gather": 2, "Worker": 2, "C": 1}


def unrolled_steps(n: int) -> int:
    """Steps of any run of the unrolled program: the request, n tasks each
    answered by a result, then stop, stop, close y, resp and close x."""
    return 2 * n + 6


def measures(got: dict, want: dict) -> list:
    if got != want:
        bad = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        return [f"measures differ on {bad[:5]}"]
    return []


def typecheck(report, assumed: set, decided: dict) -> list:
    """Status and obligations: assumed cuts are reported assumed, the others
    carry the verdict that an independent re-check reached."""
    probs = []
    got = {o["id"]: o["verdict"] for o in report.obligations}
    want = {cid: "assumed" for cid in assumed} | decided
    if got != want:
        probs.append(f"obligations {got}, expected {want}")
    if "no" in want.values():
        status = "IllTyped"
    elif {"unknown", "assumed"} & set(want.values()):
        status = "Conditional"
    else:
        status = "WellTyped"
    if report.status != status:
        probs.append(f"status {report.status}, expected {status}")
    return probs


def run_outcome(result, steps: int | None) -> list:
    probs = []
    if result.outcome != "DoneReached":
        probs.append(f"run ends {result.outcome}")
    if steps is not None and result.steps != steps:
        probs.append(f"run takes {result.steps} steps, expected {steps}")
    return probs
