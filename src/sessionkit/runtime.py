"""Executable configurations for the process calculus.

A configuration is a binary tree of cuts whose leaves are threads.  A thread
is a FIFO list of already-sent output items (tags and forked channels) in
front of a guard term.  Reduction happens only at cuts: the earliest pending
item for the cut's channel on one side meets the guard on the other side.

This realizes asynchrony: a sender deposits its outputs into its own pending
list and moves on; matching is deferred until a receiver is ready.

Every channel name occurs in exactly one session of the tree.  Names become
fresh in two places: when ``normalize`` unfolds a definition, ``process.rename``
gives every binder of the copied body a fresh name while it substitutes the
arguments; and ``to_configuration_raw`` freshens each fork and cut binder that
it strips into a pending item or a cut node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import random

from . import process as pr
from .process import (Done, Link, Close, Wait, Select, Case, Fork, Join,
                      Choice, Cut, Call, ProcessError)


@dataclass(frozen=True)
class TagOut:
    chan: str
    tag: str

    def __str__(self):
        return f"{self.chan}!{self.tag}"


@dataclass(frozen=True)
class ChanOut:
    chan: str
    bound: str
    payload: object  # Configuration

    def __str__(self):
        return f"{self.chan}!({self.bound}){{…}}"


@dataclass(frozen=True)
class Thread:
    pending: tuple
    guard: object  # term


@dataclass(frozen=True)
class CutNode:
    chan: str
    left: object
    right: object


def config_free_names(c) -> frozenset:
    if isinstance(c, Thread):
        names = pr.free_names(c.guard)
        for i in c.pending:
            names |= {i.chan}
            if isinstance(i, ChanOut):
                names |= config_free_names(i.payload) - {i.bound}
        return names
    return (config_free_names(c.left) | config_free_names(c.right)) - {c.chan}


class _Fresh:
    def __init__(self):
        self.n = 0

    def __call__(self, base):
        self.n += 1
        return f"{base}#{self.n}"


# ---------------------------------------------------------------------------
# building configurations from terms


def to_configuration(term_or_config, defs=None, fresh: _Fresh | None = None):
    """Normalize a configuration, or a bare term as a thread with nothing
    pending, under the definitions ``defs``."""
    if not isinstance(term_or_config, (Thread, CutNode)):
        term_or_config = Thread((), term_or_config)
    return normalize(term_or_config, defs or {}, fresh or _Fresh())


def push_items(c, items):
    """Route output items to the subtree where their channel endpoint lives.

    Items come ordered oldest-first and end up *in front of* existing pending
    items, which were produced later by the continuation.
    """
    if not items:
        return c
    if isinstance(c, Thread):
        return Thread(tuple(items) + c.pending, c.guard)
    left_names = config_free_names(c.left)
    right_names = config_free_names(c.right)
    lt, rt, park = [], [], []
    for i in items:
        in_l, in_r = i.chan in left_names, i.chan in right_names
        if in_l and not in_r:
            lt.append(i)
        elif in_r and not in_l:
            rt.append(i)
        else:
            park.append(i)  # orphan (or ambiguous): keep left, order preserved
    node = CutNode(c.chan,
                   push_items(c.left, lt + park) if (lt or park) else c.left,
                   push_items(c.right, rt) if rt else c.right)
    return node


def normalize(c, defs, fresh):
    """Unfold invocations at guard position and re-split exposed prefixes.

    A thread loops until its guard is neither a call nor a prefix that
    ``to_configuration_raw`` strips; only the two sides of a cut recurse.
    """
    while isinstance(c, Thread) and isinstance(c.guard, (Call, Select, Fork, Cut)):
        guard = c.guard
        if isinstance(guard, Call):
            if guard.name not in defs:
                raise ProcessError(f"call to unknown definition {guard.name!r}")
            params, body = defs[guard.name]
            guard = pr.rename(body, dict(zip(params, guard.args)), fresh)
        c = push_items(to_configuration_raw(guard, fresh), list(c.pending))
    if isinstance(c, CutNode):
        return CutNode(c.chan, normalize(c.left, defs, fresh),
                       normalize(c.right, defs, fresh))
    return c


def to_configuration_raw(term, fresh):
    """Strip output prefixes into pending lists and mirror cuts as tree nodes.

    Each fork and cut binder gets a fresh name, carried down as a
    substitution that renames each thread's guard once, at its leaf.
    """
    def build(t, sub):
        pending = []
        while True:
            if isinstance(t, Select):
                pending.append(TagOut(sub.get(t.x, t.x), t.tag))
                t = t.cont
            elif isinstance(t, Fork):
                y = fresh(t.y)
                pending.append(ChanOut(sub.get(t.x, t.x), y,
                                       build(t.payload, {**sub, t.y: y})))
                t = t.cont
            else:
                break
        if isinstance(t, Cut):
            x = fresh(t.x)
            inner = {**sub, t.x: x}
            node = CutNode(x, build(t.left, inner), build(t.right, inner))
            return push_items(node, pending)
        return Thread(tuple(pending), pr.rename(t, sub))

    return build(term, {})


def rename_config(c, old, new):
    if isinstance(c, Thread):
        items = tuple(
            TagOut(new if i.chan == old else i.chan, i.tag) if isinstance(i, TagOut)
            else ChanOut(new if i.chan == old else i.chan, i.bound,
                         rename_config(i.payload, old, new))
            for i in c.pending)
        return Thread(items, pr.rename(c.guard, {old: new}))
    if c.chan == old:
        return c
    return CutNode(c.chan, rename_config(c.left, old, new),
                   rename_config(c.right, old, new))


# ---------------------------------------------------------------------------
# redexes


@dataclass(frozen=True)
class Redex:
    rule: str  # choice | select | fork | close | link
    path: tuple  # path to the cut (or thread, for choice): "l"/"r" steps
    chan: str | None = None
    detail: tuple = ()

    def describe(self):
        return {"rule": self.rule, "path": "".join(self.path), "channel": self.chan,
                "detail": list(map(str, self.detail))}


def _subtree(c, path):
    for step in path:
        c = c.left if step == "l" else c.right
    return c


def _replace(c, path, new):
    if not path:
        return new
    if path[0] == "l":
        return CutNode(c.chan, _replace(c.left, path[1:], new), c.right)
    return CutNode(c.chan, c.left, _replace(c.right, path[1:], new))


def _leaf_threads(c, path=()):
    if isinstance(c, Thread):
        yield path, c
    else:
        yield from _leaf_threads(c.left, path + ("l",))
        yield from _leaf_threads(c.right, path + ("r",))


def _first_item_on(thread: Thread, chan: str):
    for idx, item in enumerate(thread.pending):
        if item.chan == chan:
            return idx, item
    return None, None


def enabled_redexes(c) -> list:
    out = []
    for path, th in _leaf_threads(c):
        if isinstance(th.guard, Choice):
            out.append(Redex("choice", path, None, ("left",)))
            out.append(Redex("choice", path, None, ("right",)))

    def visit(node, path):
        if isinstance(node, Thread):
            return
        x = node.chan
        sides = (("l", node.left, node.right), ("r", node.right, node.left))
        for side, mine, other in sides:
            # sender candidates: leaf threads in `mine` whose first x-item leads
            for spath, sth in _leaf_threads(mine, ()):
                idx, item = _first_item_on(sth, x)
                if item is None:
                    continue
                for rpath, rth in _leaf_threads(other, ()):
                    g = rth.guard
                    if isinstance(item, TagOut) and isinstance(g, Case) and g.x == x:
                        if item.tag in dict(g.branches):
                            out.append(Redex("select", path, x,
                                             (side, spath, rpath, item.tag)))
                    elif isinstance(item, ChanOut) and isinstance(g, Join) and g.x == x:
                        out.append(Redex("fork", path, x, (side, spath, rpath)))
            # close: the whole side must be a single thread with guard close x
            # and nothing pending at all (messages must be consumed first)
            if isinstance(mine, Thread) and isinstance(mine.guard, Close) \
                    and mine.guard.x == x and not mine.pending:
                for rpath, rth in _leaf_threads(other, ()):
                    g = rth.guard
                    if isinstance(g, Wait) and g.x == x \
                            and _first_item_on(rth, x)[1] is None:
                        out.append(Redex("close", path, x, (side, rpath)))
            # link: single thread guarded by link mentioning x, no x-items pending
            if isinstance(mine, Thread) and isinstance(mine.guard, Link) \
                    and x in (mine.guard.x, mine.guard.y) \
                    and _first_item_on(mine, x)[1] is None:
                out.append(Redex("link", path, x, (side,)))
        visit(node.left, path + ("l",))
        visit(node.right, path + ("r",))

    visit(c, ())
    return out


def step(c, r: Redex, fresh: _Fresh):
    if r.rule == "choice":
        th = _subtree(c, r.path)
        branch = th.guard.left if r.detail[0] == "left" else th.guard.right
        return _replace(c, r.path, Thread(th.pending, branch))

    node = _subtree(c, r.path)
    x = node.chan

    if r.rule in ("select", "fork"):
        side, spath, rpath = r.detail[:3]
        mine = node.left if side == "l" else node.right
        other = node.right if side == "l" else node.left
        sth = _subtree(mine, spath)
        idx, item = _first_item_on(sth, x)
        mine = _replace(mine, spath,
                        Thread(sth.pending[:idx] + sth.pending[idx + 1:], sth.guard))
        rth = _subtree(other, rpath)
        g = rth.guard  # Case(x, branches) or Join(x, z, cont)
        if r.rule == "select":
            cont = dict(g.branches)[item.tag]
        else:
            cont = pr.rename(g.cont, {g.y: item.bound})
        other = _replace(other, rpath, Thread(rth.pending, cont))
        left, right = (mine, other) if side == "l" else (other, mine)
        node = CutNode(x, left, right)
        if r.rule == "fork":
            # the payload becomes one side of a brand-new cut on the sent channel
            node = CutNode(item.bound, item.payload, node)
        return _replace(c, r.path, node)

    if r.rule == "close":
        side, rpath = r.detail
        other = node.right if side == "l" else node.left
        rth = _subtree(other, rpath)
        other = _replace(other, rpath, Thread(rth.pending, rth.guard.cont))
        return _replace(c, r.path, other)

    if r.rule == "link":
        side = r.detail[0]
        mine = node.left if side == "l" else node.right
        other = node.right if side == "l" else node.left
        g = mine.guard
        y = g.y if g.x == x else g.x
        # forward: the peer of x continues as y; leftover non-x items of the
        # link thread (necessarily on y) are re-routed in front
        result = rename_config(other, x, y)
        if mine.pending:
            result = push_items(result, list(mine.pending))
        return _replace(c, r.path, result)

    raise ProcessError(f"unknown redex {r!r}")


def is_done(c) -> bool:
    return isinstance(c, Thread) and not c.pending and isinstance(c.guard, Done)


# ---------------------------------------------------------------------------
# schedulers


class RandomScheduler:
    name = "random"

    def __init__(self, seed=0):
        self.rng = random.Random(seed)

    def pick(self, c, redexes):
        return self.rng.choice(redexes)


class RoundRobinFair:
    """Deterministic rotation over the sorted redex list; every persistently
    enabled redex is eventually chosen."""
    name = "fair"

    def __init__(self, seed=0):
        self.count = seed

    def pick(self, c, redexes):
        redexes = sorted(redexes, key=lambda r: (r.rule, r.path, str(r.detail)))
        r = redexes[self.count % len(redexes)]
        self.count += 1
        return r


class MinMeasure:
    """Prefer communication; resolve choices toward the branch with the
    smaller measure, which drives well-typed programs to termination."""
    name = "minmeasure"

    def __init__(self, measures=None):
        self.measures = dict(measures or {})

    def term_measure(self, t):
        INF = float("inf")
        if isinstance(t, Done):
            return 0
        if isinstance(t, (Close, Link)):
            return 1
        if isinstance(t, (Wait, Join)):
            return self.term_measure(t.cont)
        if isinstance(t, Select):
            return 1 + self.term_measure(t.cont)
        if isinstance(t, Case):
            return max((self.term_measure(q) for _, q in t.branches), default=0)
        if isinstance(t, Fork):
            return 1 + self.term_measure(t.payload) + self.term_measure(t.cont)
        if isinstance(t, Choice):
            return 1 + min(self.term_measure(t.left), self.term_measure(t.right))
        if isinstance(t, Cut):
            return self.term_measure(t.left) + self.term_measure(t.right)
        if isinstance(t, Call):
            return self.measures.get(t.name, INF)
        return 0

    def pick(self, c, redexes):
        comms = sorted((r for r in redexes if r.rule != "choice"),
                       key=lambda r: (r.rule, r.path, str(r.detail)))
        if comms:
            return comms[0]

        def choice_weight(r):
            th = _subtree(c, r.path)
            branch = th.guard.left if r.detail[0] == "left" else th.guard.right
            return self.term_measure(branch)

        return min(redexes, key=lambda r: (choice_weight(r), r.path, str(r.detail)))


# ---------------------------------------------------------------------------
# the interpreter


@dataclass
class RunResult:
    outcome: str  # DoneReached | StuckNotDone | BudgetExhausted
    steps: int
    final: object
    trace: list = field(default_factory=list)


def run(term_or_config, defs=None, scheduler=None, max_steps=1000,
        collect_trace=False, prefix_hook=None) -> RunResult:
    defs = defs or {}
    fresh = _Fresh()
    c = to_configuration(term_or_config, defs, fresh)
    sched = scheduler or MinMeasure()
    trace = []
    for n in range(max_steps):
        if prefix_hook is not None and n % 10 == 0:
            prefix_hook(c, n)
        if is_done(c):
            return RunResult("DoneReached", n, c, trace)
        redexes = enabled_redexes(c)
        if not redexes:
            return RunResult("StuckNotDone", n, c, trace)
        r = sched.pick(c, redexes)
        if collect_trace:
            entry = r.describe()
            entry["step"] = n
            entry["scheduler"] = getattr(sched, "name", "?")
            trace.append(entry)
        c = step(c, r, fresh)
        c = normalize(c, defs, fresh)
    if is_done(c):
        return RunResult("DoneReached", max_steps, c, trace)
    return RunResult("BudgetExhausted", max_steps, c, trace)


def is_weakly_terminating_probe(c, defs=None, budget=2000) -> bool | None:
    """Can this configuration still reach done?  Bounded breadth-first search.

    False only when every reachable configuration was explored; None when
    the budget ran out with configurations still queued.
    """
    defs = defs or {}
    fresh = _Fresh()
    c = to_configuration(c, defs, fresh)
    seen = {c}  # configurations compare and hash structurally
    queue = [c]
    explored = 0
    while queue and explored < budget:
        cur = queue.pop(0)
        explored += 1
        if is_done(cur):
            return True
        for r in enabled_redexes(cur):
            nxt = normalize(step(cur, r, fresh), defs, fresh)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return None if queue else False
