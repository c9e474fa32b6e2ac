"""Labelled transitions for session type automata.

A label is an input or output of either the termination signal ``*``, a tag
(with its measure), or a channel carrying a payload type.  Labels are
interned as types are, so every memo keyed by a label hashes and compares
an identity.  Transitions come in three modes:

- ``must``: the axioms only — the constructor at the root fires directly.
- ``ind``:  least fixed point of the axioms plus the buffering rules that
  let a type input behind pending outputs (and dually).  Witnesses actions
  that happen after finitely many own actions.
- ``full``: adds the fairness corules, then takes the greatest fixed point:
  actions that every fair run eventually performs.

All three come from one engine, ``prune``: ``must`` is the axiom set, and
each fixed point above it is a pruning of the nodes against their premises.

``derivative`` produces the type after an action: "stepped" copies of the
buffering nodes, with the action pushed past them, over the parent's own
store nodes, into which the nodes that fire an axiom continue.  It makes
the copies with ``types._image``, the one builder of new store nodes.
``fas_oracle``, the independent check of ``full``, reads only views.

Results live in the ``memo`` of store nodes (see ``types``), so every
bisimilar type shares them while the node lives; there is no module-level
cache.  A node keeps one dict per mode, keyed by the label alone.  It holds
the node's enabledness bit: a bit depends only on the nodes the node
reaches, so a derived type solves only the nodes no earlier question
reached, and the game reads the bit of the root alone.  Once ``derivative``
is asked at the node as a root, the bit True gives way to the derivative's
``Type``.  Under ``"in"`` and ``"out"`` the dict keeps the node's label
table, which ``enumerate_labels`` and the games read.  Stepped copies, the
same in every mode, are memoized per label in the node's ``"residual"``
dict, so ``derivative`` interns only copies that were never made before.
"""

from __future__ import annotations

import heapq
import weakref

from . import types as ty
from .types import Type


_LABELS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()  # key -> label


class Label:
    """An action: ``direction`` "in" | "out" and ``msg``, one of ``("star",)``,
    ``("tag", name, measure)`` and ``("chan", Type)``.

    ``Label(direction, msg)`` returns the one live label for that direction
    and message, so ``==`` and ``hash`` are identity, also where a label is
    part of a node memo key.  A channel label is keyed by its payload's store
    node, by serial, so the weakly held table keeps no node alive.
    ``flip()`` memoizes the label of the same message, other direction.
    """

    __slots__ = ("direction", "msg", "_flip", "__weakref__")

    def __new__(cls, direction: str, msg: tuple):
        k = (direction, "chan", msg[1].node.serial) if msg[0] == "chan" else (direction, *msg)
        l = _LABELS.get(k)
        if l is None:
            l = _LABELS[k] = object.__new__(cls)
            l.direction, l.msg, l._flip = direction, msg, None
        return l

    def flip(self) -> "Label":
        if self._flip is None:
            self._flip = Label("out" if self.direction == "in" else "in", self.msg)
        return self._flip

    def __repr__(self):
        return f"Label({self.direction!r}, {self.msg!r})"

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


def _step(n, l: Label):
    """The store node an axiom takes node ``n`` to under ``l``, or None."""
    b, d, m = n.body, l.direction, l.msg
    k = b[0]
    if m[0] == "star":
        return n if (k == "one" and d == "out") or (k == "bot" and d == "in") else None
    if m[0] == "tag":
        if (k == "plus" and d == "out") or (k == "with" and d == "in"):
            for tg, mm, c in b[1]:
                if tg == m[1] and mm == m[2]:
                    return c
        return None
    if ((k == "times" and d == "out") or (k == "par" and d == "in")) and b[1] is m[1].node:
        return b[2]
    return None


def _premises(n, l: Label):
    """Continuations the buffering rule defers to at node ``n``, or None if it never applies.

    A choice node passes an action of the opposite direction down all of its
    branches; a times/par node passes actions of the opposite direction past
    the payload into the continuation.
    """
    b, d = n.body, l.direction
    k = b[0]
    if (k == "plus" and d == "in") or (k == "with" and d == "out"):
        return [c for _, _, c in b[1]]
    if (k == "times" and d == "in") or (k == "par" and d == "out"):
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


def _moves(n, mode: str) -> dict:
    """The per-mode dict of node ``n``; an unknown mode makes none."""
    if mode not in ("must", "ind", "full"):
        raise ValueError(f"unknown mode {mode!r}")
    return n.memo.get(mode) or n.memo.setdefault(mode, {})


def _enabled(n, l: Label, mode: str) -> bool:
    """Whether node ``n`` derives ``l`` in ``mode``; ind and full bits are memoized."""
    if mode == "must":
        return _step(n, l) is not None
    bit = _moves(n, mode).get(l)
    if bit is None:
        _solve(n, l, mode)
        bit = n.memo[mode][l]
    return bit is not False  # a derivative stands for True


def _solve(n, l: Label, mode: str):
    """Memoize the ``l`` bit of ``n`` and of every node it rests on that lacks one.

    A node that fires an axiom derives ``l``; one the buffering rule never
    applies to does not.  The others are solved together by ``prune``
    against their premises, and premises with a bit already are constants:
    a node's bit depends only on the nodes it reaches, so it is the same in
    every type that holds the node.  In ``full`` mode those constants are
    the final bits in both fixed points, which leaves both unchanged.
    """
    def known(c):  # the bit of c, a derivative, or None
        moves = _moves(c, mode)
        bit = moves.get(l)
        if bit is None:
            if _step(c, l) is not None:
                bit = moves[l] = True
            elif _premises(c, l) is None:
                bit = moves[l] = False
        return bit

    if known(n) is not None:
        return
    local, order, inner, outer = {n: 0}, [n], [], []
    for x in order:  # grows while it is walked
        ins, outs = [], []
        for c in _premises(x, l):
            bit = known(c)
            if bit is None:
                j = local.setdefault(c, len(order))
                if j == len(order):
                    order.append(c)
                ins.append(j)
            else:
                outs.append(bit is not False)
        inner.append(ins)
        outer.append(outs)
    users = [[] for _ in order]
    for i, ins in enumerate(inner):
        for j in ins:
            users[j].append(i)

    def underivable(i, live):  # fairly, a choice needs only one premise
        if mode == "full" and order[i].body[0] in ("plus", "with"):
            return bool(inner[i] or outer[i]) and True not in outer[i] \
                and live.issuperset(inner[i])
        return False in outer[i] or not live.isdisjoint(inner[i])

    # the least fixed point is what stays outside the underivable nodes;
    # full then keeps only the nodes whose premises all stay in it
    keys = range(len(order))
    stuck, _ = prune(keys, underivable, users)
    out = [i for i in keys if i not in stuck]
    if mode == "full":
        out, _ = prune(out, lambda i, live: False not in outer[i] and live.issuperset(inner[i]),
                       users)
    out = set(out)
    for i, x in enumerate(order):
        x.memo[mode][l] = i in out


def enabled_nodes(t: Type, l: Label, mode: str) -> frozenset:
    """Set of view ids of ``t`` whose nodes derive ``l`` in ``mode``."""
    return frozenset(i for i, n in enumerate(t.node.reach()) if _enabled(n, l, mode))


def enabled(t: Type, l: Label, mode: str = "full") -> bool:
    return _enabled(t.node, l, mode)


def derivative(t: Type, l: Label, mode: str = "full") -> Type | None:
    """The residual type after performing ``l``, or None if not enabled.

    An enabled node's residual is the node its axiom steps to, or else its
    stepped copy: a stepped choice keeps its tags and each branch goes to
    the branch's residual; a stepped ``times``/``par`` keeps its payload and
    goes to its continuation's residual.  Every node a stepped copy reaches
    is enabled, since enabled nodes that do not fire an axiom have all their
    premises enabled.  A stepped copy is the residual of its node as a root,
    whatever the mode, so it is memoized on the node and reused by every
    later derivative that reaches the node; only new copies are interned.
    """
    node = t.node
    moves = _moves(node, mode)
    hit = moves.get(l)  # the bit, until the derivative replaces True
    if isinstance(hit, Type) or hit is False or not _enabled(node, l, mode):
        return hit or None  # the derivative, or None: not enabled

    def known(n):
        return _step(n, l) or n.memo.get("residual", {}).get(l)

    def body(b, ref):
        if b[0] in ("plus", "with"):
            return (b[0], tuple((tg, m, ref(c)) for tg, m, c in b[1]))
        return (b[0], b[1], ref(b[2]))  # times/par: payload kept, action pushed into cont

    root, made = ty._image(node, known, body)
    for n, copy in made.items():
        n.memo.setdefault("residual", {})[l] = copy
    out = moves[l] = Type._of(root)
    return out


def label_table(n, direction: str, mode: str) -> tuple:
    """All, first-order and channel labels node ``n`` enables in ``direction``, in view order.

    Candidates are ``*``, every (tag, measure) pair that occurs in the
    automaton, and every payload type (deduplicated up to bisimilarity).
    Other labels can be derived too: an empty choice derives every label of
    the opposite direction vacuously, so ``+{}`` enables ``?a`` in ``full``
    mode although only ``?*`` is listed.  So ``relations._expand`` also
    offers the challenge's payload, or its dual, as a channel response.
    """
    moves = _moves(n, mode)
    return moves.get(direction) or moves.setdefault(direction, _build_table(n, direction, mode))


def _build_table(n, direction: str, mode: str) -> tuple:
    cands, seen = [star(direction)], set()
    for x in n.reach():
        b = x.body
        if b[0] in ("plus", "with"):
            for tg, m, _ in b[1]:
                if (tg, m) not in seen:
                    seen.add((tg, m))
                    cands.append(tag(direction, tg, m))
        elif b[0] in ("times", "par") and b[1] not in seen:
            seen.add(b[1])
            cands.append(chan(direction, Type._of(b[1])))
    labels = tuple(l for l in cands if _enabled(n, l, mode))
    fo = tuple(l for l in labels if l.is_first_order)  # shares labels' tuple if all are
    return (labels, labels if len(fo) == len(labels) else fo,
            tuple(l for l in labels if not l.is_first_order))


def enumerate_labels(t: Type, direction: str, mode: str = "full") -> tuple:
    """The enabled labels in the given direction: the first part of ``label_table``."""
    return label_table(t.node, direction, mode)[0]


# ---------------------------------------------------------------------------
# fair asynchronous derivability oracle


def fas_oracle(t: Type, l: Label) -> bool:
    """Graph-theoretic test for full-mode derivability of ``l``.

    For an input label: (a) the type must not reach a state from which it can
    emit outputs forever, and (b) every reachable state with no outputs left
    must input ``l`` directly.  Dually for output labels.  It reads only
    views, and none of the rules of the fast path.
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
    # (b) every own-terminal state must derive l by axiom (empty choices are
    # vacuous); the axiom is read off the view body, payloads compared by equiv
    m = l.msg
    axiom = {"star": ("one", "bot"), "tag": ("plus", "with"),
             "chan": ("times", "par")}[m[0]][l.direction == "in"]
    for n in ids:
        if own_succs(n):
            continue
        b = t.nodes[n]
        if b[0] == "plus" and not b[1] and l.direction == "in":
            continue
        if b[0] == "with" and not b[1] and l.direction == "out":
            continue
        if b[0] != axiom:
            return False
        if m[0] == "tag" and m[1:] not in [(tg, mm) for tg, mm, _ in b[1]]:
            return False
        if m[0] == "chan" and not ty.equiv(t.at(b[1]), m[1]):
            return False
    return True
