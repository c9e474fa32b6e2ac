"""Labelled transitions for session type automata.

A label is an input or output of either the termination signal ``*``, a tag
(with its measure), or a channel carrying a payload type.  Transitions come
in three modes:

- ``must``: the axioms only — the constructor at the root fires directly.
- ``ind``:  least fixed point of the axioms plus the buffering rules that
  let a type input behind pending outputs (and dually).  Witnesses actions
  that happen after finitely many own actions.
- ``full``: adds the fairness corules, then takes the greatest fixed point:
  actions that every fair run eventually performs.

All three come from one engine, ``prune``: ``must`` is the axiom set, and
each fixed point above it is a pruning of the nodes against their premises.

``derivative`` produces the type after an action, again as an automaton:
its table is the parent's own table followed by "stepped" copies of the
buffering nodes, with the action pushed past them.  Nodes that fire an
axiom continue into the parent's table.

``enabled_nodes``, ``derivative`` and ``enumerate_labels`` keep their results
in the ``memo`` of the type they are asked about, which every bisimilar type
shares while it lives; there is no module-level cache.
"""

from __future__ import annotations

from dataclasses import dataclass
import heapq

from . import types as ty
from .types import Type


@dataclass(frozen=True)
class Label:
    direction: str  # "in" | "out"
    msg: tuple  # ("star",) | ("tag", name, measure) | ("chan", Type)

    def __str__(self):
        arrow = "?" if self.direction == "in" else "!"
        if self.msg[0] == "star":
            return arrow + "*"
        if self.msg[0] == "tag":
            _, name, m = self.msg
            return f"{arrow}{name}@{m}" if m else arrow + name
        return f"{arrow}({ty.render_inline(self.msg[1])})"

    def key(self):
        return (self.direction, *self.msg)

    @property
    def is_first_order(self):
        return self.msg[0] != "chan"


def star(direction: str) -> Label:
    return Label(direction, ("star",))


def tag(direction: str, name: str, measure: int = 0) -> Label:
    return Label(direction, ("tag", name, measure))


def chan(direction: str, payload: Type) -> Label:
    return Label(direction, ("chan", payload))


def parse_label(text: str, env: dict | None = None) -> Label:
    """``?a``, ``!b@2``, ``!*``, ``?(T)`` with T a type expression."""
    c = ty.Cursor(text)
    arrow = c.peek()
    if arrow not in ("?", "!"):
        c.fail(f"label must start with ? or !: {text.strip()!r}")
    c.next()
    d = "in" if arrow == "?" else "out"
    if c.peek() == "*":
        c.next()
        l = star(d)
    elif c.peek() == "(":
        c.next()
        payload = c.type_expr()
        c.expect(")")
        l = chan(d, ty.resolve_expr(payload, env))
    else:
        l = tag(d, *c.tag())
    c.end()
    return l


# ---------------------------------------------------------------------------
# enabledness


def _axiom_target(t: Type, nid: int, l: Label):
    """Node the axiom steps to, or None if no axiom applies at ``nid``."""
    b = t.nodes[nid]
    k, d, m = b[0], l.direction, l.msg
    if k == "one" and d == "out" and m[0] == "star":
        return nid
    if k == "bot" and d == "in" and m[0] == "star":
        return nid
    if k == "plus" and d == "out" and m[0] == "tag":
        for tg, mm, c in b[1]:
            if tg == m[1] and mm == m[2]:
                return c
    if k == "with" and d == "in" and m[0] == "tag":
        for tg, mm, c in b[1]:
            if tg == m[1] and mm == m[2]:
                return c
    if k == "times" and d == "out" and m[0] == "chan":
        if t.at(b[1]) == m[1]:
            return b[2]
    if k == "par" and d == "in" and m[0] == "chan":
        if t.at(b[1]) == m[1]:
            return b[2]
    return None


def _may_premises(t: Type, nid: int, l: Label):
    """Continuations the buffering rule defers to, or None if it never applies.

    A choice node passes an action of the opposite direction down all of its
    branches; a times/par node passes actions of the opposite direction past
    the payload into the continuation.
    """
    b = t.nodes[nid]
    k, d = b[0], l.direction
    if k == "plus" and d == "in":
        return [c for _, _, c in b[1]]
    if k == "with" and d == "out":
        return [c for _, _, c in b[1]]
    if k == "times" and d == "in":
        return [b[2]]
    if k == "par" and d == "out":
        return [b[2]]
    return None


def prune(keys, holds, users):
    """Remove keys from a live set while ``holds(key, live)`` fails.

    ``keys`` ascend, ``users[k]`` lists the keys whose ``holds`` reads ``k``,
    and ``holds`` may only turn false as ``live`` shrinks.  Returns the live
    set and the removal order, which is that of repeated ascending sweeps
    until one removes nothing: a heap of ``(sweep, key)`` replays them but
    revisits only the users of removed keys.
    """
    live, removed, last = set(keys), [], None
    heap = [(0, k) for k in keys]
    while heap:
        item = r, k = heapq.heappop(heap)
        if k in live and item != last and not holds(k, live):
            live.discard(k)
            removed.append(k)
            for u in users[k]:
                if u in live:  # later in this sweep, or in the next one
                    heapq.heappush(heap, (r if u > k else r + 1, u))
        last = item
    return live, removed


def enabled_nodes(t: Type, l: Label, mode: str) -> frozenset:
    """Set of node ids of ``t`` that derive ``l`` in ``mode``."""
    memo, ck = t.memo, ("enabled", l, mode)
    hit = memo.get(ck)
    if hit is not None:
        return hit
    ids = range(t.size())
    out = ax = {n for n in ids if _axiom_target(t, n, l) is not None}
    if mode in ("ind", "full"):
        fair = mode == "full"
        prem = [_may_premises(t, n, l) for n in ids]
        users = [[] for _ in ids]
        for n in ids:
            for c in prem[n] or ():
                users[c].append(n)

        def underivable(n, live):  # fairly, a choice needs only one premise
            p = prem[n]
            if fair and t.nodes[n][0] in ("plus", "with"):
                return p is None or bool(p) and live.issuperset(p)
            return p is None or not live.isdisjoint(p)

        # the least fixed point is what stays outside the underivable nodes;
        # full then keeps only the nodes whose premises all stay in it
        stuck, _ = prune([n for n in ids if n not in ax], underivable, users)
        out = [n for n in ids if n not in stuck]
        if fair:
            out, _ = prune(out, lambda n, live: n in ax or live.issuperset(prem[n]), users)
    elif mode != "must":
        raise ValueError(f"unknown mode {mode!r}")
    out = memo[ck] = frozenset(out)
    return out


def enabled(t: Type, l: Label, mode: str = "full") -> bool:
    return t.root in enabled_nodes(t, l, mode)


def derivative(t: Type, l: Label, mode: str = "full") -> Type | None:
    """The residual type after performing ``l``, or None if not enabled.

    The table is the parent's nodes, ids ``0 .. size - 1``, followed by the
    stepped copy of node ``n`` at ``size + n``, filled in only when reached.
    An enabled node's residual is the parent node its axiom steps to, or its
    stepped copy if it buffers.  A stepped choice keeps its tags and each
    branch goes to the branch's residual; a stepped ``times``/``par`` keeps
    the parent's payload and goes to its continuation's residual.  ``Type``
    minimizes the table.
    """
    memo, ck = t.memo, ("derivative", l, mode)
    hit = memo.get(ck, False)  # None is a result: not enabled
    if hit is not False:
        return hit
    if t.root not in enabled_nodes(t, l, mode):
        memo[ck] = None
        return None
    nodes = t.nodes
    size = len(nodes)

    def ref(n):  # n is enabled
        tgt = _axiom_target(t, n, l)
        return size + n if tgt is None else tgt

    root = ref(t.root)
    table = list(nodes) + [None] * size
    todo = [root]
    while todo:
        s = todo.pop()
        if s < size or table[s] is not None:
            continue
        b = nodes[s - size]
        if b[0] in ("plus", "with"):
            table[s] = (b[0], tuple((tg, m, ref(c)) for tg, m, c in b[1]))
            todo.extend(c for _, _, c in table[s][1])
        else:  # times/par buffering: payload kept, action pushed into cont
            table[s] = (b[0], b[1], ref(b[2]))
            todo.append(table[s][2])
    out = memo[ck] = Type(table, root)
    return out


def enumerate_labels(t: Type, direction: str, mode: str = "full") -> list:
    """The enabled labels in the given direction, among those the table names.

    Candidates are ``*``, every (tag, measure) pair that occurs in the
    automaton, and every payload type (deduplicated up to bisimilarity).
    Other labels can be derived too: an empty choice derives every label of
    the opposite direction vacuously, so ``+{}`` enables ``?a`` in ``full``
    mode although only ``?*`` is listed.  That gap is why
    ``relations._expand`` also offers the challenge's payload, or its dual,
    as a channel response the responder's table may not name.
    """
    memo, ck = t.memo, ("labels", direction, mode)
    hit = memo.get(ck)
    if hit is not None:
        return list(hit)
    cands = [star(direction)]
    seen_tags = set()
    seen_chans = set()
    for b in t.nodes:
        if b[0] in ("plus", "with"):
            for tg, m, _ in b[1]:
                if (tg, m) not in seen_tags:
                    seen_tags.add((tg, m))
                    cands.append(tag(direction, tg, m))
        elif b[0] in ("times", "par"):
            p = t.at(b[1])
            if p not in seen_chans:
                seen_chans.add(p)
                cands.append(chan(direction, p))
    out = memo[ck] = tuple(l for l in cands if t.root in enabled_nodes(t, l, mode))
    return list(out)


# ---------------------------------------------------------------------------
# fair asynchronous derivability oracle


def fas_oracle(t: Type, l: Label) -> bool:
    """Graph-theoretic test for full-mode derivability of ``l``.

    For an input label: (a) the type must not reach a state from which it can
    emit outputs forever, and (b) every reachable state with no outputs left
    must input ``l`` directly.  Dually for output labels.
    """
    own = "out" if l.direction == "in" else "in"

    def own_succs(n):
        b = t.nodes[n]
        if own == "out":
            if b[0] == "one":
                return [n]
            if b[0] == "plus":
                return [c for _, _, c in b[1]]
            if b[0] == "times":
                return [b[2]]
        else:
            if b[0] == "bot":
                return [n]
            if b[0] == "with":
                return [c for _, _, c in b[1]]
            if b[0] == "par":
                return [b[2]]
        return []

    # states reachable while the type acts on its own (buffering direction only)
    ids = [t.root]
    seen = {t.root}
    i = 0
    while i < len(ids):
        for s in own_succs(ids[i]):
            if s not in seen:
                seen.add(s)
                ids.append(s)
        i += 1
    # (a) greatest set of states that can keep doing own-direction actions forever
    div = {n for n in ids if own_succs(n)}
    changed = True
    while changed:
        changed = False
        for n in list(div):
            if not all(s in div for s in own_succs(n)):
                div.discard(n)
                changed = True
    if div:  # ids is exactly what's reachable from the root
        return False
    # (b) every own-terminal state must derive l by axiom (empty choices are vacuous)
    for n in ids:
        if own_succs(n):
            continue
        b = t.nodes[n]
        if b[0] == "plus" and not b[1] and l.direction == "in":
            continue
        if b[0] == "with" and not b[1] and l.direction == "out":
            continue
        if _axiom_target(t, n, l) is None:
            return False
    return True
