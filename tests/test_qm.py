import json
import random

from sessionkit import lts, qm, relations
from sessionkit import types as ty


def machine(delta, states=("s",), sigma=("a",), gamma=("a", "$")):
    return qm.QueueMachine.from_json({
        "states": list(states), "sigma": list(sigma), "gamma": list(gamma),
        "dollar": "$", "start": states[0],
        "delta": {f"{q},{a}": [q2, w] for (q, a), (q2, w) in delta.items()}})


DRAIN = machine({("s", "a"): ("s", ""), ("s", "$"): ("s", "")})
LOOP = machine({("s", "a"): ("s", "a"), ("s", "$"): ("s", "$")})


def test_simulate_accepts():
    res = qm.simulate(DRAIN, "aaa")
    assert res.outcome == "Accepted"
    assert res.steps == 4  # three letters plus the end marker
    assert res.history[0] == ("s", "aaa$")
    assert res.history[-1] == ("s", "")


def test_simulate_stuck():
    m = machine({("s", "$"): ("s", "")})  # no rule for letter a
    assert qm.simulate(m, "a").outcome == "Stuck"


def test_simulate_out_of_fuel():
    assert qm.simulate(LOOP, "a", max_steps=50).outcome == "OutOfFuel"


def test_json_round_trip():
    blob = json.dumps(DRAIN.to_json())
    again = qm.QueueMachine.from_json(json.loads(blob))
    assert again.to_json() == DRAIN.to_json()


def test_queue_type_spells_contents():
    t = qm.queue_type(DRAIN, "a$")
    assert t.kind(t.root) == "plus"
    (tag, _, cont), = t.body(t.root)[1]
    assert tag == "a"
    assert t.kind(cont) == "plus"


def test_control_type_inputs_then_outputs():
    t = qm.control_type(LOOP, "s")
    assert t.kind(t.root) == "with"
    # after reading a, the control re-emits it
    d = lts.derivative(t, lts.tag("in", "a"), "must")
    assert d is not None
    assert lts.derivative(d, lts.tag("out", "a"), "must") is not None


def test_step_correspondence_examples():
    for m, w in ((DRAIN, "aa"), (LOOP, "a"), (DRAIN, ""), (LOOP, "")):
        rep = qm.step_correspondence(m, w, max_steps=30)
        assert rep["all_ok"], (m.to_json(), w)


def test_accepting_encoding_never_composes():
    qt, ct = qm.encode(DRAIN, "aa")
    v = relations.check(qt, ct, "compose", relations.Budget(400))
    assert v.answer != "yes"


def test_random_machines_correspond():
    rng = random.Random(2024)
    for _ in range(8):
        m = qm.random_machine(rng)
        word = "".join(rng.choice(m.sigma) for _ in range(rng.randint(0, 4)))
        rep = qm.step_correspondence(m, word)
        assert rep["all_ok"]
        if rep["sim"].outcome == "Accepted":
            qt, ct = qm.encode(m, word)
            v = relations.check(qt, ct, "compose", relations.Budget(400))
            assert v.answer != "yes"


def raw_queue(echo, contents):
    """The queue as a raw table over the echo loop's store node, front-first."""
    if not contents:
        return echo
    nodes, root = {}, echo.node
    for nid, a in enumerate(reversed(contents)):
        nodes[nid] = ("plus", ((a, 0, root),))
        root = nid
    return ty.Type(nodes, root)


def reference_correspondence(m, word, max_steps):
    """``step_correspondence``'s per-step booleans, by ``equiv`` on raw-table queues."""
    echo, controls, queues = qm.queue_echo_type(m), qm._controls(m), {}

    def queue_of(contents):
        if contents not in queues:
            queues[contents] = raw_queue(echo, contents)
        return queues[contents]

    sim = qm.simulate(m, word, max_steps)
    checks = []
    for (q, queue), (q2, queue2) in zip(sim.history, sim.history[1:]):
        a = queue[0]
        out = lts.derivative(queue_of(queue), lts.tag("out", a), "must")
        cur = lts.derivative(controls[q], lts.tag("in", a), "must")
        ok = out is not None and cur is not None and ty.equiv(out, queue_of(queue[1:]))
        rest = queue[1:]
        for c in m.delta[(q, a)][1]:
            if not ok:
                break
            emit = lts.derivative(cur, lts.tag("out", c), "must")
            took = lts.derivative(out, lts.tag("in", c), "full")
            rest += c
            ok = emit is not None and took is not None and ty.equiv(took, queue_of(rest))
            out, cur = took, emit
        checks.append(ok and ty.equiv(out, queue_of(queue2)) and ty.equiv(cur, controls[q2]))
    return checks


def test_equiv_is_the_oracle_of_the_encodings(monkeypatch):
    # the machines of criterion 11, then 50 more
    rng, cases = random.Random(1111), []
    for _ in range(20):
        m = qm.random_machine(rng)
        cases.append((m, "".join(rng.choice(m.sigma) for _ in range(rng.randint(0, 4)))))
    rng = random.Random(18)
    for _ in range(50):
        m = qm.random_machine(rng)
        cases.append((m, "".join(rng.choice(m.sigma) for _ in range(rng.randint(0, 4)))))
    made = {}  # contents -> every queue built for them in one call
    queue, controls = qm._queue, qm._controls

    def recorded(built, contents):
        t = queue(built, contents)
        made.setdefault(contents, set()).add(t)
        return t

    monkeypatch.setattr(qm, "_queue", recorded)
    failing = queues = 0
    for m, word in cases:
        for rotate in (0, 1):  # as built, then each state's control moved to the next state
            if rotate:
                c = controls(m)
                monkeypatch.setattr(qm, "_controls", lambda m: {
                    q: c[m.states[(i + 1) % len(m.states)]] for i, q in enumerate(m.states)})
            made.clear()
            rep = qm.step_correspondence(m, word, 60)
            assert rep["steps_ok"] == reference_correspondence(m, word, 60), (m.to_json(), word)
            failing += not rep["all_ok"]
            echo = qm.queue_echo_type(m)
            for w, ts in made.items():
                (t,) = ts  # one store node per contents
                assert ty.equiv(t, raw_queue(echo, w)), (m.to_json(), w)
            queues += len(made)
            monkeypatch.setattr(qm, "_controls", controls)
    assert queues and failing  # moved controls break some correspondences
