"""Input generation, a step apart from the measured interpreter.

Usage: python3 perfbench/gen.py WORKLOAD SEED > inputs.json

Writes the inputs of one workload as JSON: types as `types.to_json`, queue
machines as `QueueMachine.to_json`, programs as source text.  The same seed
gives the same inputs.  Rejection sampling in `randgen` runs here, so its
time and its caches never reach a timed phase.
"""

import json
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from sessionkit import fixtures, qm, randgen, types as ty  # noqa: E402

# relation-mix
PAIRS = 1600
HIGHER_ORDER_PAIRS = 320  # the first ones; a fixed count keeps op counts seed-free
MUTANT_SHARE = 7  # of every 10 pairs, T is a mutant of S; else another type
MAX_NODES = 6
MUTATE_TRIES = 20
FAULT_SEED = 7  # higher-order types of the channel-label fault demonstration
FAULT_TYPES = 40

# growth
SLOT_CAPS = [16, 32, 48]
PAIR_BUDGETS = [32, 64, 128]
MACHINE_SEED = 1111  # the acceptance suite's queue-machine corpus
MACHINES = 20
MACHINE_STEPS = 60

# programs
UNROLLED_SIZES = [25, 50, 100, 200, 300]
RANDOM_RUNS = 3
PROGRAM_STEPS = 5000


def tractable(t) -> bool:
    """The filter `randgen.random_tractable` applies to its own draws."""
    return (ty.is_fairly_terminating(t) and randgen.closure_size(t) is not None
            and randgen.closure_size(ty.dual(t)) is not None)


def relation_mix(seed):
    rng = random.Random(seed)
    pairs = []
    for i in range(PAIRS):
        ho = i < HIGHER_ORDER_PAIRS
        s = randgen.random_tractable(rng, MAX_NODES, higher_order=ho)
        t = None
        if i % 10 < MUTANT_SHARE:
            # a mutant whose games would grow to the node cap is growth's
            # job, not this workload's: draw again, then fall back
            for _ in range(MUTATE_TRIES):
                cand = randgen.mutate(rng, s)
                if tractable(cand):
                    t = cand
                    break
        if t is None:
            t = randgen.random_tractable(rng, MAX_NODES, higher_order=ho)
        pairs.append({"s": ty.to_json(s), "t": ty.to_json(t), "higher_order": ho})
    frng = random.Random(FAULT_SEED)
    fault = [ty.to_json(randgen.random_tractable(frng, MAX_NODES, higher_order=True))
             for _ in range(FAULT_TYPES)]
    return {"pairs": pairs, "fault_types": fault}


def growth(seed):
    # The slot machine, the server/worker pair and the machine corpus are
    # fixed: a seeded machine set changes the time of a pass by more than a
    # factor of two between seeds (about 3% of machines accept after a run
    # whose encoding costs 1-3 s at Budget(400)), which would drown any
    # change in the layers this workload is for.
    rng = random.Random(MACHINE_SEED)
    machines = []
    for _ in range(MACHINES):
        m = qm.random_machine(rng)
        word = "".join(rng.choice(m.sigma) for _ in range(rng.randint(0, 4)))
        machines.append({"machine": m.to_json(), "word": word})
    return {"slot_types": fixtures.SLOT_TYPES,
            "server_worker_types": fixtures.SERVER_WORKER_TYPES,
            "slot_caps": SLOT_CAPS, "pair_budgets": PAIR_BUDGETS,
            "machines": machines, "machine_steps": MACHINE_STEPS}


def unrolled_program(n: int) -> str:
    """The corpus server program with the producer unrolled into
    Split0..Splitn: Split_k sends task and calls Split_{k-1}, Split0 stops."""
    lines = [
        "type V = +{ resp: end! }",
        "type S = +{ task@1: S, stop: T }",
        "type T = &{ res: T, stop: end? }",
        "type U = &{ task@1: +{ res: U }, stop: +{ stop: end! } }",
        "type XS = &{ req: V }",
        "type XC = +{ req: &{ resp: end? } }",
        "sig Server(x: XS)",
        *(f"sig Split{k}(x: V, y: S)" for k in range(n + 1)),
        "sig Gather(x: V, y: T)",
        "sig Worker(y: U)",
        "sig C(x: XC)",
        f"def Server(x) = case x {{ req: new y : S >< U {{ Split{n}(x, y) || Worker(y) }} }}",
        "def Split0(x, y) = y!stop.Gather(x, y)",
        *(f"def Split{k}(x, y) = y!task.Split{k - 1}(x, y)" for k in range(1, n + 1)),
        "def Gather(x, y) = case y { res: Gather(x, y), stop: wait y.x!resp.close x }",
        "def Worker(y) = case y { task: y!res.Worker(y), stop: y!stop.close y }",
        "def C(x) = x!req.case x { resp: wait x.done }",
        "new x : XS >< XC { Server(x) || C(x) }",
    ]
    return "\n".join(lines) + "\n"


def programs(seed):
    rng = random.Random(seed)
    progs = [{"name": f"unrolled-{n}", "unrolled": n, "source": unrolled_program(n)}
             for n in UNROLLED_SIZES]
    progs.append({"name": "server", "unrolled": None, "source": fixtures.SERVER_PROGRAM})
    return {"programs": progs, "assume": ["cut-y"],
            "random_seeds": [rng.randrange(2 ** 31) for _ in range(RANDOM_RUNS)],
            "max_steps": PROGRAM_STEPS}


GENERATORS = {"relation-mix": relation_mix, "growth": growth, "programs": programs}


if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    json.dump({name: GENERATORS[name](seed)}, sys.stdout)
