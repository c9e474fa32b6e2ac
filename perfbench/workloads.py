"""The three workloads, as run by the measured interpreter.

Each workload has a `load` step (part of set-up: parse the serialized inputs)
and a `run` step (the timed phase).  `run` makes a fixed list of operations
whatever the seed; each operation is recorded in a `Tally` with the problems
the checks in `checks.py` found in its output, so `failed / attempted` only
changes when the program's answers change.
"""

from __future__ import annotations

import time

from sessionkit import measures, process, qm, relations, runtime, types as ty

import checks


class Tally:
    """Operations attempted and failed, and the timings a pass reports."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0  # failures outside the operations of a named fault
        self.problems = []
        self.latencies_ms = []
        self.typecheck_s = 0.0
        self.sim_steps = 0
        self.sim_s = 0.0

    def record(self, what, problems, known_fault=False):
        self.attempted += 1
        if problems:
            self.failed += 1
            if not known_fault:
                self.unexpected += 1
            if len(self.problems) < 5:
                self.problems.append(f"{what}: {'; '.join(problems)}")

    def query(self, S, T, kind, budget=None):
        """One verdict: `relations.check` plus validating its yes/no."""
        t0 = time.perf_counter()
        v = relations.check(S, T, kind, budget)
        probs = checks.verdict(kind, S, T, v)
        self.latencies_ms.append((time.perf_counter() - t0) * 1e3)
        return v, probs


EMPTY_PLUS = ty.Type({0: ("plus", ())}, 0)  # +{}: a subtype of every type
EMPTY_WITH = ty.Type({0: ("with", ())}, 0)  # &{}: a supertype of every type


def _guarded(tally, what, fn, known_fault=False):
    """Run one operation; an exception counts it as failed."""
    try:
        probs = fn()
    except Exception as e:  # the program raising is a failed operation
        probs = [f"raises {type(e).__name__}: {e}"]
    tally.record(what, probs, known_fault)


# ---------------------------------------------------------------------------
# relation-mix


def load_relation_mix(inp):
    pairs = [(ty.from_json(p["s"]), ty.from_json(p["t"]), p["higher_order"])
             for p in inp["pairs"]]
    fault_types = [ty.from_json(t) for t in inp["fault_types"]]
    return pairs, fault_types


def _empty_choice_ops(tally, T, what, known_fault):
    for S2, T2, side in ((EMPTY_PLUS, T, "+{} <= T"), (T, EMPTY_WITH, "T <= &{}")):
        def op(S2=S2, T2=T2, side=side):
            v, probs = tally.query(S2, T2, "fairsub")
            return probs + checks.never_no(v.answer, f"fairsub {side}")
        _guarded(tally, f"{what} {side}", op, known_fault)


def _pair_ops(tally, S, T, ho, i):
    answers = {}
    for kind in ("fairsub",) if ho else relations.SUB_KINDS:
        def subtype(kind=kind):
            v, p = tally.query(S, T, kind)
            answers[kind] = v.answer
            return p + checks.inclusions(answers, kind)
        _guarded(tally, f"pair {i} {kind}", subtype)

    comp = {}

    def compose():
        v, p = tally.query(S, T, "compose")
        comp["answer"] = v.answer
        return p

    def fairsub_dual():
        v, p = tally.query(S, ty.dual(T), "fairsub")
        return p + checks.agreement(comp.get("answer"), v.answer)

    def dual_compose():
        v, p = tally.query(ty.dual(S), S, "compose")
        return p + checks.never_no(v.answer, "compose(dual S, S)")

    _guarded(tally, f"pair {i} compose", compose)
    _guarded(tally, f"pair {i} fairsub(S, dual T)", fairsub_dual)
    _guarded(tally, f"pair {i} compose(dual S, S)", dual_compose)
    for side, X in (("S", S), ("T", T)):
        def reflexive(X=X):
            v, p = tally.query(X, X, "fairsub")
            return p + checks.never_no(v.answer, "fairsub(T, T)")
        _guarded(tally, f"pair {i} {side} reflexive", reflexive)
        if not ho:
            _empty_choice_ops(tally, X, f"pair {i} {side}", known_fault=False)


def run_relation_mix(state, tally):
    pairs, fault_types = state
    for i, (S, T, ho) in enumerate(pairs):
        _pair_ops(tally, S, T, ho, i)
    # Higher-order types from a fixed seed: some of these checks fail
    # through the channel-label fault, the same ones in every run.
    for j, T in enumerate(fault_types):
        _empty_choice_ops(tally, T, f"fault type {j}", known_fault=True)


# ---------------------------------------------------------------------------
# growth


def load_growth(inp):
    slot_t = ty.parse_type(inp["slot_types"], "T")
    slot_s = ty.parse_type(inp["slot_types"], "S")
    sw_s = ty.parse_type(inp["server_worker_types"], "S")
    sw_u = ty.parse_type(inp["server_worker_types"], "U")
    machines = [(qm.QueueMachine.from_json(m["machine"]), m["machine"], m["word"])
                for m in inp["machines"]]
    return (slot_t, slot_s, sw_s, sw_u, machines, inp["slot_caps"],
            inp["pair_budgets"], inp["machine_steps"])


def run_growth(state, tally):
    slot_t, slot_s, sw_s, sw_u, machines, caps, budgets, max_steps = state
    fair = {}
    for cap in caps:
        def slot(cap=cap):
            v, p = tally.query(slot_t, slot_s, "fairsub", relations.Budget(2000, cap))
            fair[cap] = v.answer
            return p + checks.never_no(v.answer, "slot fairsub")
        _guarded(tally, f"slot fairsub cap {cap}", slot)

    def slot_bz():
        v, p = tally.query(slot_t, slot_s, "bzfairsub")
        return p + sum((checks.inclusions({"bzfairsub": v.answer, "fairsub": a},
                                          "bzfairsub") for a in fair.values()), [])
    _guarded(tally, "slot bzfairsub", slot_bz)

    explored = []
    for b in budgets:
        def server_worker(b=b):
            v, p = tally.query(sw_s, sw_u, "compose", relations.Budget(b))
            explored.append(v.stats["pairs_explored"])
            return p + checks.never_no(v.answer, "server/worker compose") \
                + checks.monotone(explored)
        _guarded(tally, f"server/worker compose budget {b}", server_worker)

    for k, (m, mjson, word) in enumerate(machines):
        def machine(m=m, mjson=mjson, word=word):
            rep = qm.step_correspondence(m, word, max_steps)
            sim = rep["sim"]
            p = checks.queue_run(mjson, word, max_steps, sim) \
                + checks.correspondence(rep, sim.steps)
            if sim.outcome == "Accepted":
                qt, ct = qm.encode(m, word)
                v, vp = tally.query(qt, ct, "compose", relations.Budget(400))
                p += vp + checks.never_yes(v.answer, "compose of an accepting encoding")
            return p
        _guarded(tally, f"machine {k}", machine)


# ---------------------------------------------------------------------------
# programs


def _cuts(term, out):
    """Map each cut id in a term to the two types the cut annotates."""
    if isinstance(term, process.Cut):
        out[term.cut_id] = (term.left_type, term.right_type)
    if isinstance(term, process.Case):
        children = [q for _, q in term.branches]
    else:
        children = [getattr(term, f) for f in ("payload", "cont", "left", "right")
                    if hasattr(term, f)]
    for child in children:
        _cuts(child, out)
    return out


def load_programs(inp):
    progs = []
    for p in inp["programs"]:
        prog = process.parse_program(p["source"])
        cuts = {}
        for _, body in prog.defs.values():
            _cuts(body, cuts)
        if prog.main is not None:
            _cuts(prog.main, cuts)
        progs.append((p, prog, cuts))
    return progs, inp["assume"], inp["random_seeds"], inp["max_steps"]


def run_programs(state, tally):
    progs, assume, seeds, max_steps = state
    for p, prog, cuts in progs:
        n = p["unrolled"]
        name = f"program {p['name']}"
        decided, mu = {}, {}

        def recheck():
            # cut obligations re-checked directly, as independent verdicts
            probs = []
            for cid, (left, right) in cuts.items():
                if cid in assume:
                    continue
                v, vp = tally.query(left, right, "compose")
                decided[cid] = v.answer
                probs += vp
            return probs
        _guarded(tally, f"{name} cut obligations", recheck)

        def typecheck():
            t0 = time.perf_counter()
            rep = measures.typecheck(prog, assume_cuts=assume)
            tally.typecheck_s += time.perf_counter() - t0
            mu.update(rep.measures)
            want = checks.SERVER_MEASURES if n is None else checks.unrolled_measures(n)
            return checks.typecheck(rep, set(assume), decided) \
                + checks.measures(rep.measures, want)
        _guarded(tally, f"{name} typecheck", typecheck)

        schedulers = [("minmeasure", lambda: runtime.MinMeasure(mu)),
                      ("fair", lambda: runtime.RoundRobinFair(0))]
        schedulers += [(f"random {s}", lambda s=s: runtime.RandomScheduler(s))
                       for s in seeds]
        for sname, make in schedulers:
            def run(make=make):
                t0 = time.perf_counter()
                res = runtime.run(prog.main, prog.defs, make(), max_steps=max_steps)
                tally.sim_s += time.perf_counter() - t0
                tally.sim_steps += res.steps
                return checks.run_outcome(res, None if n is None else checks.unrolled_steps(n))
            _guarded(tally, f"{name} run {sname}", run)


WORKLOADS = {
    "relation-mix": (load_relation_mix, run_relation_mix),
    "growth": (load_growth, run_growth),
    "programs": (load_programs, run_programs),
}
