"""Seeded random session type automata for property testing.

Two flavours:

- ``random_automaton``: arbitrary closed automata, used to stress the
  transition engine (no filtering whatsoever);
- ``random_tractable``: rejection-sampled automata that are fairly
  terminating and whose full-mode derivative closure is finite and small,
  so that the pair games over them close within budget.  The filter uses
  only the transition engine, never the relation checker.
"""

from __future__ import annotations

import random

from . import lts, types as ty
from .types import Type

_TAGS = ["a", "b", "c", "d"]
_MEASURES = [0, 0, 0, 1, 2]  # drawn for each branch
_MAX_TRIES = 200  # draws before random_tractable gives up


def random_automaton(rng: random.Random, max_nodes: int = 8,
                     higher_order: bool = False) -> Type:
    n = rng.randint(1, max_nodes)
    nodes = {}
    kinds = ["one", "bot", "plus", "with"] + (["times", "par"] if higher_order else [])
    for i in range(n):
        k = rng.choice(kinds)
        if k in ("one", "bot"):
            nodes[i] = (k,)
        elif k in ("plus", "with"):
            width = rng.choice([0, 1, 1, 2, 2, 3])
            tags = rng.sample(_TAGS, min(width, len(_TAGS)))
            nodes[i] = (k, tuple(sorted(
                (t, rng.choice(_MEASURES), rng.randrange(n)) for t in tags)))
        else:
            nodes[i] = (k, rng.randrange(n), rng.randrange(n))
    return Type(nodes, 0)


def closure_size(t: Type, max_types: int = 40, max_nodes: int = 40):
    """Number of distinct full-mode derivatives reachable from t (payloads
    included), or None if it exceeds the caps."""
    seen = set()
    queue = [t]
    for cur in queue:  # grows as derivatives are discovered
        if cur in seen:
            continue
        seen.add(cur)
        if len(seen) > max_types or cur.size() > max_nodes:
            return None
        for d in ("in", "out"):
            for l in lts.enumerate_labels(cur, d, "full"):
                queue.append(lts.derivative(cur, l, "full"))
                if not l.is_first_order:
                    queue.append(l.msg[1])
    return len(seen)


def random_tractable(rng: random.Random, max_nodes: int = 8,
                     higher_order: bool = False) -> Type:
    for _ in range(_MAX_TRIES):
        t = random_automaton(rng, max_nodes, higher_order)
        if not ty.is_fairly_terminating(t):
            continue
        if closure_size(t) is None or closure_size(ty.dual(t)) is None:
            continue
        return t
    raise RuntimeError("rejection sampling failed to find a tractable automaton")


def mutate(rng: random.Random, t: Type) -> Type:
    """A structure-preserving tweak: drop an internal-choice branch or add an
    external-choice branch, the directions subtyping is covariant in."""
    nodes = dict(enumerate(t.nodes))
    cands = [i for i, b in nodes.items() if b[0] == "plus" and len(b[1]) >= 2]
    if cands and rng.random() < 0.5:
        i = rng.choice(cands)
        bs = list(nodes[i][1])
        bs.pop(rng.randrange(len(bs)))
        nodes[i] = ("plus", tuple(bs))
        return Type(nodes, t.root)
    cands = [i for i, b in nodes.items() if b[0] == "with"]
    if cands:
        i = rng.choice(cands)
        bs = dict((tg, (m, c)) for tg, m, c in nodes[i][1])
        free = [tg for tg in _TAGS if tg not in bs]
        if free:
            bs[rng.choice(free)] = (0, t.root)
            nodes[i] = ("with", tuple(sorted((tg, m, c) for tg, (m, c) in bs.items())))
            return Type(nodes, t.root)
    return t
