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

A step costs what it touches.  ``enabled_redexes`` files each leaf once, by
channel, as a sender (its first pending item on it) and as a receiver (its
guard reads it), so a cut reads only its own channel's leaves.  ``normalize``
keeps every subtree in which nothing changed.  A body that binds nothing draws
no fresh name, so its unfolding depends only on the call's name and arguments:
the run's ``_Fresh`` builds it once.  No walk recurses.
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

    def __hash__(self):
        # kept on the node, and settled bottom-up by a loop: no recursion
        todo = [self]
        while not hasattr(self, "_hash"):
            c = todo[-1]
            kids = [k for k in (c.left, c.right)
                    if type(k) is CutNode and not hasattr(k, "_hash")]
            if kids:
                todo += kids
            else:
                object.__setattr__(todo.pop(), "_hash", hash((c.chan, c.left, c.right)))
        return self._hash

    def __eq__(self, other):
        # a loop over both trees, like the hash; shared subtrees are skipped, and
        # the kept hashes refuse most unequal pairs early
        if type(other) is not CutNode:
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if type(a) is not CutNode or type(b) is not CutNode:
                if a != b:
                    return False
            elif a is not b:
                if a.chan != b.chan or hash(a) != hash(b):
                    return False
                todo += ((a.right, b.right), (a.left, b.left))
        return True


def config_free_names(c) -> frozenset:
    out, todo = [], [c]
    while todo:
        c = todo.pop()
        if type(c) is CutNode:
            todo += (c.chan, c.right, c.left)
        elif type(c) is Thread:
            out.append(pr.free_names(c.guard).union(
                {i.chan for i in c.pending},
                *(config_free_names(i.payload) - {i.bound}
                  for i in c.pending if isinstance(i, ChanOut))))
        else:  # the channel of a cut, once both of its sides are on `out`
            out[-2:] = [(out[-2] | out[-1]) - {c}]
    return out[0]


def _rebuild(c, arg, visit):
    """Map ``visit(node, arg)`` over the tree ``c`` in a loop: a finished subtree, or
    ``(cut, left_arg, right_arg)`` to go into both sides, left first.  Keeps unchanged cuts."""
    out, todo = [], [(c, arg)]
    while todo:
        c, arg = todo.pop()
        if arg is None:  # a cut whose two sides are done
            right, left = out.pop(), out.pop()
            out.append(c if left is c.left and right is c.right
                       else CutNode(c.chan, left, right))
            continue
        c = visit(c, arg)
        if type(c) is tuple:
            todo += ((c[0], None), (c[0].right, c[2]), (c[0].left, c[1]))
        else:
            out.append(c)
    return out[0]


class _Fresh:
    """A run's fresh-name counter, and its memo of binder-free unfoldings."""

    def __init__(self):
        self.n = 0
        self.unfoldings = {}

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
    if type(c) is Thread:
        return Thread(tuple(items) + c.pending, c.guard) if items else c
    return _rebuild(c, items, _push) if items else c


def _push(c, items):
    if type(c) is Thread or not items:
        return push_items(c, items)
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
    return c, lt + park, rt


def normalize(c, defs, fresh):
    """Unfold invocations at guard position and re-split exposed prefixes.

    A thread loops until its guard is neither a call nor a prefix that
    ``to_configuration_raw`` strips, then each side of a cut, left first.
    A subtree in which nothing changed comes back as the same object."""
    return _rebuild(c, (defs, fresh), _normalize)


def _normalize(c, ctx):
    defs, fresh = ctx
    while type(c) is Thread and type(c.guard) in (Call, Select, Fork, Cut):
        guard = c.guard
        raw = (_unfold(guard, defs, fresh) if type(guard) is Call
               else to_configuration_raw(guard, fresh))
        c = push_items(raw, c.pending)
    return (c, ctx, ctx) if type(c) is CutNode else c


def _unfold(call, defs, fresh):
    """A call's body as a configuration, built once per run when it binds nothing."""
    d = defs.get(call.name)
    if d is None:
        raise ProcessError(f"call to unknown definition {call.name!r}")
    key = call.name, call.args
    hit = fresh.unfoldings.get(key)
    if hit is not None and hit[0] is d:
        return hit[1]
    n = fresh.n
    raw = to_configuration_raw(pr.rename(d[1], dict(zip(d[0], call.args)), fresh), fresh)
    if fresh.n == n:  # nothing bound, so the same every time
        fresh.unfoldings[key] = d, raw
    return raw


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
    return _rebuild(c, {old: new}, _rename_config)


def _rename_config(c, sub):
    if type(c) is Thread:
        items = tuple(
            TagOut(sub.get(i.chan, i.chan), i.tag) if isinstance(i, TagOut)
            else ChanOut(sub.get(i.chan, i.chan), i.bound,
                         _rebuild(i.payload, sub, _rename_config))
            for i in c.pending)
        return Thread(items, pr.rename(c.guard, sub))
    return c if c.chan in sub else (c, sub, sub)


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
    spine = []
    for step in path:
        spine.append(c)
        c = c.left if step == "l" else c.right
    for step in reversed(path):
        c = spine.pop()
        new = CutNode(c.chan, new, c.right) if step == "l" else CutNode(c.chan, c.left, new)
    return new


def _first_item_on(thread: Thread, chan: str):
    for idx, item in enumerate(thread.pending):
        if item.chan == chan:
            return idx, item
    return None, None


def enabled_redexes(c) -> list:
    """The choices, leaf by leaf from the left, then each cut's communications,
    cut by cut in pre-order.  Paths stay links ``(parent, step)`` until a redex
    spells one out, so a deep tree costs no quadratic work."""
    out, cuts, senders, receivers, ends = [], [], {}, {}, set()
    todo = [(c, None)]
    while todo:
        c, link = todo.pop()
        if type(c) is CutNode:
            cuts.append((c, link))
            todo += ((c.right, (link, "r")), (c.left, (link, "l")))
            continue
        g, firsts = c.guard, {}
        if type(g) is Choice:
            out += [Redex("choice", _steps(link), None, (b,)) for b in ("left", "right")]
        elif type(g) in (Case, Join, Wait):
            receivers.setdefault(g.x, []).append((link, c))
        elif type(g) in (Close, Link):  # the channels a close or a link could end
            ends.update((g.x, getattr(g, "y", g.x)))
        for i in c.pending:
            if i.chan not in firsts:
                firsts[i.chan] = i
                senders.setdefault(i.chan, []).append((link, i))

    for node, link in cuts:
        x, path, comms = node.chan, None, {"l": [], "r": []}
        if x not in senders and x not in ends:
            continue
        recvs = [(q[1:] if q[0] is link else _steps(q, link), th)
                 for q, th in receivers.get(x, ())]
        for q, item in senders.get(x, ()) if recvs else ():
            # each sender meets each receiver on the other side
            p = q[1:] if q[0] is link else _steps(q, link)
            for r, th in recvs if p else ():
                g = th.guard
                if not r or r[0] == p[0]:
                    continue
                if type(item) is TagOut and type(g) is Case and item.tag in dict(g.branches):
                    path = path or _steps(link)
                    comms[p[0]].append(Redex("select", path, x, (p[0], p[1:], r[1:], item.tag)))
                elif type(item) is ChanOut and type(g) is Join:
                    path = path or _steps(link)
                    comms[p[0]].append(Redex("fork", path, x, (p[0], p[1:], r[1:])))
        for side, mine in (("l", node.left), ("r", node.right)):
            out += comms[side]
            g = mine.guard if type(mine) is Thread else None
            # close: this whole side is one thread closing x with nothing pending
            # at all (messages must be consumed first), and the peer waits
            if type(g) is Close and g.x == x and not mine.pending:
                out += [Redex("close", _steps(link), x, (side, r[1:])) for r, th in recvs
                        if r and r[0] != side and type(th.guard) is Wait
                        and _first_item_on(th, x)[1] is None]
            # link: one thread guarded by a link mentioning x, no x-items pending
            elif type(g) is Link and x in (g.x, g.y) and _first_item_on(mine, x)[1] is None:
                out.append(Redex("link", _steps(link), x, (side,)))
    return out


def _steps(link, top=None):
    """The path from the cut at link ``top`` (the root) down to ``link``, or None."""
    steps = []
    while link is not top and link is not None:
        link, step = link
        steps.append(step)
    return tuple(reversed(steps)) if link is top else None


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
