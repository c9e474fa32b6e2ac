"""Queue machines and their encoding into session types.

A queue machine reads the symbol at the front of its queue and, according to
its transition function, appends a (possibly empty) string at the back.  It
accepts by emptying the queue.  Queue machines are Turing-complete, and they
embed into session types: the queue becomes an internal-choice stack that
echoes what it receives, the control becomes an external choice following
the transition function.  Accepting runs of the machine correspond to
interactions after which the two types can no longer terminate together,
which is what makes safe composition undecidable in general.
"""

from __future__ import annotations

from dataclasses import dataclass
import json

from . import types as ty
from .types import Type


@dataclass(frozen=True)
class QueueMachine:
    states: tuple
    sigma: tuple  # input alphabet
    gamma: tuple  # queue alphabet (includes sigma and the end marker)
    dollar: str
    start: str
    delta: dict  # (state, symbol) -> (state, appended string)

    def validate(self):
        if self.start not in self.states:
            raise ValueError("start state unknown")
        if self.dollar not in self.gamma:
            raise ValueError("end marker not in queue alphabet")
        for s in self.sigma:
            if s not in self.gamma:
                raise ValueError(f"input symbol {s!r} not in queue alphabet")
        for (q, a), (q2, w) in self.delta.items():
            if q not in self.states or q2 not in self.states:
                raise ValueError(f"transition {q}->{q2} uses unknown states")
            if a not in self.gamma or any(c not in self.gamma for c in w):
                raise ValueError(f"transition on {a!r} uses unknown symbols")

    @staticmethod
    def from_json(d: dict) -> "QueueMachine":
        """Build and validate a machine; a ValueError names the bad key."""
        if not isinstance(d, dict):
            raise ValueError("a machine must be a JSON object")
        for key in ("states", "sigma", "gamma"):
            if not (isinstance(d.get(key), list)
                    and all(isinstance(x, str) for x in d[key])):
                raise ValueError(f"{key!r} must be a list of strings")
        for key in ("dollar", "start"):
            if not isinstance(d.get(key), str):
                raise ValueError(f"{key!r} must be a string")
        if not isinstance(d.get("delta"), dict):
            raise ValueError("'delta' must be an object")
        delta = {}
        for k, v in d["delta"].items():
            if (k.count(",") != 1 or not isinstance(v, list) or len(v) != 2
                    or not all(isinstance(x, str) for x in v)):
                raise ValueError(f"delta entry {k!r} must read "
                                 '"state,symbol": ["state", "appended string"]')
            q, a = k.split(",")
            delta[(q, a)] = (v[0], v[1])
        m = QueueMachine(tuple(d["states"]), tuple(d["sigma"]), tuple(d["gamma"]),
                         d["dollar"], d["start"], delta)
        m.validate()
        return m

    def to_json(self) -> dict:
        return {"states": list(self.states), "sigma": list(self.sigma),
                "gamma": list(self.gamma), "dollar": self.dollar,
                "start": self.start,
                "delta": {f"{q},{a}": [q2, w] for (q, a), (q2, w) in self.delta.items()}}


@dataclass
class SimResult:
    outcome: str  # Accepted | Stuck | OutOfFuel
    steps: int
    history: list  # [(state, queue), ...] including the initial configuration


def simulate(m: QueueMachine, word: str, max_steps: int = 200) -> SimResult:
    q, queue = m.start, word + m.dollar
    history = [(q, queue)]
    for n in range(max_steps):
        if not queue:
            return SimResult("Accepted", n, history)
        a, rest = queue[0], queue[1:]
        if (q, a) not in m.delta:
            return SimResult("Stuck", n, history)
        q, suffix = m.delta[(q, a)]
        queue = rest + suffix
        history.append((q, queue))
    if not queue:
        return SimResult("Accepted", max_steps, history)
    return SimResult("OutOfFuel", max_steps, history)


# ---------------------------------------------------------------------------
# encoding


def queue_echo_type(m: QueueMachine) -> Type:
    """The empty-queue endpoint: receive any symbol, send it back, repeat."""
    nodes = {0: ("with", tuple())}
    branches = []
    nid = 1
    for a in sorted(m.gamma):
        nodes[nid] = ("plus", ((a, 0, 0),))
        branches.append((a, 0, nid))
        nid += 1
    nodes[0] = ("with", tuple(sorted(branches)))
    return Type(nodes, 0)


def queue_type(m: QueueMachine, contents: str) -> Type:
    """Queue with the given contents: emit them front-first, then echo."""
    return _queue(queue_echo_type(m), contents)


def _queue(echo: Type, contents: str) -> Type:
    """``contents`` emitted front-first, ending in the echo's store node."""
    if not contents:
        return echo
    nodes, root = {}, echo.node
    for nid, a in enumerate(reversed(contents)):
        nodes[nid] = ("plus", ((a, 0, root),))
        root = nid
    return Type(nodes, root)


def control_type(m: QueueMachine, state: str | None = None) -> Type:
    """The control endpoint: read a symbol, emit the appended string, continue."""
    return _controls(m)[state or m.start]


def _controls(m: QueueMachine) -> dict:
    """The control endpoint at every state, its table interned once."""
    nodes = {}
    state_node = {q: i for i, q in enumerate(m.states)}
    nid = len(m.states)
    for q in m.states:
        branches = []
        for a in sorted(m.gamma):
            if (q, a) not in m.delta:
                continue
            q2, w = m.delta[(q, a)]
            tgt = state_node[q2]
            for c in reversed(w):
                nodes[nid] = ("plus", ((c, 0, tgt),))
                tgt = nid
                nid += 1
            branches.append((a, 0, tgt))
        nodes[state_node[q]] = ("with", tuple(sorted(branches)))
    res = ty._intern(nodes, state_node.values())
    return {q: Type._of(res[i]) for q, i in state_node.items()}


def encode(m: QueueMachine, word: str) -> tuple[Type, Type]:
    """(queue endpoint for word+$, control endpoint at the start state)."""
    m.validate()
    return queue_type(m, word + m.dollar), control_type(m, m.start)


def step_correspondence(m: QueueMachine, word: str, max_steps: int = 200) -> dict:
    """Mirror each machine step on the encoded types and check they agree.

    For a step (q, Aα) -> (q', αγ): the queue type must emit A reaching the
    encoding of α; the control type must consume A and emit γ symbol by
    symbol, each echoed into the queue type; the final pair must be the
    encodings of (q', αγ).  Returns per-step booleans plus the simulation.
    """
    from . import lts

    # a step starts from the encodings the previous step ended on, so each
    # queue is built, and settled on its first ``equiv``, once per call, over
    # one echo loop; the control table is interned once for every state
    echo, controls, queues = queue_echo_type(m), _controls(m), {}

    def queue_of(contents):
        if contents not in queues:
            queues[contents] = _queue(echo, contents)
        return queues[contents]

    sim = simulate(m, word, max_steps)
    checks = []
    for (q, queue), (q2, queue2) in zip(sim.history, sim.history[1:]):
        a = queue[0]
        _, suffix = m.delta[(q, a)]
        qt, ct = queue_of(queue), controls[q]
        ok = True
        out = lts.derivative(qt, lts.tag("out", a), "must")
        inp = lts.derivative(ct, lts.tag("in", a), "must")
        ok = ok and out is not None and inp is not None
        if ok:
            ok = ty.equiv(out, queue_of(queue[1:]))
        qcur = out
        ccur = inp
        rest = queue[1:]
        for c in suffix:
            if not ok:
                break
            emit = lts.derivative(ccur, lts.tag("out", c), "must")
            took = lts.derivative(qcur, lts.tag("in", c), "full")
            ok = ok and emit is not None and took is not None
            if ok:
                rest = rest + c
                ok = ty.equiv(took, queue_of(rest))
                qcur, ccur = took, emit
        if ok:
            ok = ty.equiv(qcur, queue_of(queue2)) and \
                ty.equiv(ccur, controls[q2])
        checks.append(ok)
    return {"sim": sim, "steps_ok": checks, "all_ok": all(checks)}


def random_machine(rng, n_states: int = 3, n_symbols: int = 3) -> QueueMachine:
    states = tuple(f"q{i}" for i in range(rng.randint(1, n_states)))
    letters = "abc"[: rng.randint(1, n_symbols)]
    gamma = tuple(letters) + ("$",)
    delta = {}
    for q in states:
        for a in gamma:
            if rng.random() < 0.8:
                q2 = rng.choice(states)
                w = "".join(rng.choice(gamma) for _ in range(rng.randint(0, 2)))
                delta[(q, a)] = (q2, w)
    return QueueMachine(states, tuple(letters), gamma, "$", states[0], delta)
