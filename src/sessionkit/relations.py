"""Composability and the subtyping family, decided by bounded pair games.

Every relation here is a largest fixed point over pairs of types: a pair is
in the relation when every *challenge* (a transition one side must answer
for) has a *response* whose successor pairs are again in the relation.  The
solver explores pairs breadth-first up to a budget, then solves the game
with ``lts.prune``:

- pessimistically (unexplored pairs lose): if the root survives, the answer
  is a definite *yes* with an extractable witness;
- optimistically (unexplored pairs win, so the same game when there are
  none): if the root still fails, the answer is a definite *no* with a
  replayable counterexample trace;
- otherwise *unknown*.

The trace is read off the order in which ``lts.prune`` removes pairs, the
order of repeated sweeps over the pairs as they were discovered.

Budgets are monotone: growing them only turns unknowns into answers.

Relation kinds, with their challenge / response modes (``MODES``):

- ``compose``    full / full  safe composition of the two endpoint types
- ``fairsub``    full / full  fair asynchronous subtyping
- ``syncsub``    must / must  synchronous subtyping, first-order
- ``asyncsub``   must / ind   asynchronous subtyping, first-order
- ``bzfairsub``  must / full  first-order, with the output-reachability condition
- ``auxsub``     must / full  first-order, without that condition

``_expand`` plays every game from the clause table ``RULES``.  Composition
plays send-left, send-right, send-chan-left and send-chan-right: outputs of
one side answered by inputs of the other.  Subtyping plays receive-sup and
send-sub, then receive-chan-sup and send-chan-sub, which first-order kinds
skip; ``bzfairsub`` adds must-output-reachability.  The challenger's labels
and the responder's channel answers are read from the label tables memoized
on each side's root node (``lts.label_table``), and responses from the
derivatives memoized beside them, so a pair costs only its own moves.

A challenge is a tuple ``(clause, label, responses, note)``, and a response
is ``(label, successor pairs)``; ``note`` says why a challenge has none.
``check`` numbers the pairs by their root nodes, ``_extract_trace`` reads
the clause, labels and note of the pairs it visits, and the validators call
``_expand`` themselves; ``validate_witness`` keys the members by root nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import lts, types as ty
from .types import Type, dual

# kind -> (game, challenge mode, response mode, first-order only?,
#          output-reachability condition?)
MODES = {
    "compose": ("compose", "full", "full", False, False),
    "fairsub": ("sub", "full", "full", False, False),
    "syncsub": ("sub", "must", "must", True, False),
    "asyncsub": ("sub", "must", "ind", True, False),
    "bzfairsub": ("sub", "must", "full", True, True),
    "auxsub": ("sub", "must", "full", True, False),
}

# game -> clauses in the order they are played: (name, challenging side
# (0 left, 1 right), challenge direction, response direction, channel
# clause?, note when no channel answers).  The other side responds.
RULES = {
    "compose": (
        ("send-left", 0, "out", "in", False, None),
        ("send-right", 1, "out", "in", False, None),
        ("send-chan-left", 0, "out", "in", True, "no channel input on the right"),
        ("send-chan-right", 1, "out", "in", True, "no channel input on the left"),
    ),
    "sub": (
        ("receive-sup", 1, "in", "in", False, None),
        ("send-sub", 0, "out", "out", False, None),
        ("receive-chan-sup", 1, "in", "in", True, "no channel input in candidate"),
        ("send-chan-sub", 0, "out", "out", True, "no channel output in supertype"),
    ),
}

KINDS = tuple(MODES)

SUB_KINDS = tuple(k for k, m in MODES.items() if m[0] == "sub")


@dataclass(frozen=True, slots=True)
class Budget:
    max_pairs: int = 2000
    max_nodes_per_type: int = 64


_BUDGET = Budget()  # the budget of a check made without one


@dataclass(slots=True)
class Verdict:
    kind: str
    answer: str  # "yes" | "no" | "unknown"
    witness: list | None = None
    trace: list | None = None
    reason: str | None = None
    stats: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    def to_json(self):
        d = {"kind": self.kind, "answer": self.answer, "stats": self.stats,
             "warnings": self.warnings}
        if self.reason:
            d["reason"] = self.reason
        if self.witness is not None:
            d["witness"] = [[ty.render_inline(a), ty.render_inline(b)]
                            for a, b in self.witness]
        if self.trace is not None:
            d["trace"] = [
                {k: (str(v) if k in ("label", "response") and v is not None else v)
                 for k, v in step.items() if k != "_next_key"}
                for step in self.trace
            ]
        return d


def _measure_note(responder: Type, l, mode: str) -> str | None:
    """Distinguish a missing tag from one enabled under another measure; ``l`` is not."""
    if l.msg[0] == "tag":
        for alt in lts.label_table(responder.node, l.direction, mode)[1]:
            if alt.msg[:2] == l.msg[:2]:
                return f"measure mismatch on tag {l.msg[1]!r}: {l.msg[2]} vs {alt.msg[2]}"
    return None


def _must_reachable_outputs(T: Type) -> list:
    """Output labels must-enabled anywhere T can get by must-mode inputs."""
    queue, seen, out = [T], {T.node}, {}
    for u in queue:  # grows as derivatives are discovered
        for l in lts.label_table(u.node, "out", "must")[1]:
            out.setdefault(l)
        for l in lts.label_table(u.node, "in", "must")[1]:
            v = lts.derivative(u, l, "must")
            if v.node not in seen:
                seen.add(v.node)
                queue.append(v)
    return list(out)


def _expand(kind: str, S: Type, T: Type):
    """Polarity and the challenges of ``kind``'s game at the pair (S, T)."""
    game, chal, resp, first_order, reach = MODES[kind]
    sides = (S, T)
    chs = []
    for clause, c, cd, rd, is_chan, note in RULES[game]:
        if is_chan and first_order:
            continue
        X, Y = sides[c], sides[1 - c]
        for l in lts.label_table(X.node, cd, chal)[2 if is_chan else 1]:
            if not is_chan:  # Y answers with the same message, or cannot
                m = l if cd == rd else l.flip()
                y = lts.derivative(Y, m, resp)
                if y is None:
                    chs.append((clause, l, (), _measure_note(Y, m, resp)))
                else:
                    x = lts.derivative(X, l, chal)
                    pair = (y, x) if c else (x, y)
                    chs.append((clause, l, ((m, (pair,)),), None))
                continue
            # the same payload when both sides act alike, its dual when they
            # face each other: an empty choice derives it vacuously
            hint = lts.chan(rd, l.msg[1] if cd == rd else dual(l.msg[1]))
            answers = lts.label_table(Y.node, rd, resp)[2]
            if hint not in answers and lts.enabled(Y, hint, resp):
                answers += (hint,)
            after = lts.derivative(X, l, chal) if answers else None
            rs = []
            for m in answers:
                # (challenger's part, responder's part), put as (left, right)
                succs = ((l.msg[1], m.msg[1]), (after, lts.derivative(Y, m, resp)))
                rs.append((m, tuple(p[::-1] for p in succs) if c else succs))
            chs.append((clause, l, rs, None if rs else note))
    if reach and lts.label_table(S.node, "out", "must")[1]:
        for tau in _must_reachable_outputs(T):
            if not lts.enabled(S, tau, "must"):
                chs.append(("must-output-reachability", tau, (),
                            "supertype reaches this output over must inputs; "
                            "candidate cannot emit it now"))
    # composition faces the right side's dual; subtyping compares it as is
    pol_ok = S.node.body[0] in ty.POSITIVE or \
        (T.node.body[0] in ty.POSITIVE) == (game == "compose")
    return pol_ok, chs


# ---------------------------------------------------------------------------
# the solver


def check(S: Type, T: Type, kind: str, budget: Budget | None = None) -> Verdict:
    if kind not in KINDS:
        raise ValueError(f"unknown relation kind {kind!r}")
    b = budget or _BUDGET
    warnings = []
    if MODES[kind][3]:
        if not (ty.is_first_order(S) and ty.is_first_order(T)):
            raise ValueError(f"{kind} is defined for first-order types only")
        for side, t in (("left", S), ("right", T)):
            if not ty.is_fairly_terminating(t):
                warnings.append(f"{side} input is not fairly terminating")

    ids = {(S.node, T.node): 0}  # pair of root nodes -> number, in discovery order
    order = [(S, T)]
    users = [[]]  # number -> numbers of the pairs whose responses reach it
    nodes = []  # number -> (pol_ok, challenges, successor numbers per response) | None
    cut = set()  # the caps that cut a frontier pair
    for i, key in enumerate(order):  # grows as successors are discovered
        if i and len(order) > b.max_pairs:
            cut.add("max_pairs")
        elif max(len(key[0].node.reach()), len(key[1].node.reach())) > b.max_nodes_per_type:
            cut.add("max_nodes_per_type")
        else:
            pol_ok, chs = _expand(kind, *key)
            succs = []
            for _, _, responses, _ in chs:
                rs = []
                for _, pairs in responses:
                    js = []
                    for p in pairs:
                        j = ids.setdefault((p[0].node, p[1].node), len(order))
                        if j == len(order):
                            order.append(p)
                            users.append([])
                        users[j].append(i)
                        js.append(j)
                    rs.append(js)
                succs.append(rs)
            nodes.append((pol_ok, chs, succs))
            continue
        nodes.append(None)  # frontier

    def holds(i, live):  # unexplored pairs lose
        node = nodes[i]
        if node is None or not node[0]:
            return False
        for rs in node[2]:  # every challenge has a response inside live
            for r in rs:
                if live.issuperset(r):
                    break
            else:
                return False
        return True

    n_frontier = nodes.count(None)
    stats = {"pairs_explored": len(order),
             "pairs_expanded": len(order) - n_frontier,
             "pairs_frontier": n_frontier,
             "max_pairs": b.max_pairs}

    keys = range(len(order))
    pess, removed = lts.prune(keys, holds, users)
    if 0 in pess:
        witness = _extract_witness(nodes, order, pess)
        return Verdict(kind, "yes", witness=witness, stats=stats, warnings=warnings)
    opt = pess
    if n_frontier:  # the optimistic game differs only where pairs are unexplored
        opt, removed = lts.prune(keys, lambda i, live: nodes[i] is None or holds(i, live),
                                 users)
    if 0 not in opt:
        trace, reason = _extract_trace(nodes, order, removed)
        return Verdict(kind, "no", trace=trace, reason=reason, stats=stats,
                       warnings=warnings)
    caps = " and ".join(f"{c}={getattr(b, c)}" for c in sorted(cut))
    return Verdict(kind, "unknown", stats=stats, warnings=warnings,
                   reason=f"budget exhausted before the game closed: {caps} cut the frontier")


def _extract_witness(nodes, order, good):
    """The pairs the first surviving responses reach, root first, in BFS order."""
    keep, kept = [0], {0}
    for i in keep:
        for rs in nodes[i][2]:
            for r in rs:  # the first response inside good
                if good.issuperset(r):
                    break
            for j in r:
                if j not in kept:
                    kept.add(j)
                    keep.append(j)
    return [order[i] for i in keep]


def _extract_trace(nodes, order, removed):
    """Follow the optimistic game's removals from the root to a violation."""
    rank = {i: n for n, i in enumerate(removed)}
    steps = []
    i = 0
    while True:
        pol_ok, chs, succs = nodes[i]
        pair_txt = [ty.render_inline(x) for x in order[i]]
        if not pol_ok:
            steps.append({"pair": pair_txt, "clause": "polarity", "label": None,
                          "note": "both endpoints negative"})
            return steps, "polarity violation"
        cut = rank[i]
        for (clause, label, resps, note), rs in zip(chs, succs):
            hits = [[j for j in js if rank.get(j, cut) < cut] for js in rs]
            if all(hits):
                break
        if not rs:
            steps.append({"pair": pair_txt, "clause": clause, "label": label,
                          "note": note or "no response"})
            return steps, ("measure mismatch" if note and "measure" in note
                           else f"unanswered challenge in {clause}")
        r, nxt = min(((r, j) for r, js in zip(resps, hits) for j in js),
                     key=lambda p: rank[p[1]])
        steps.append({"pair": pair_txt, "clause": clause, "label": label,
                      "response": r[0],
                      "_next_key": order[nxt],
                      "next": [ty.render_inline(x) for x in order[nxt]]})
        i = nxt


# ---------------------------------------------------------------------------
# validation helpers (used by tests and the cross-check commands)


def validate_witness(kind: str, members: list) -> tuple[bool, str | None]:
    """Check clause-closure of a claimed witness set of (Type, Type) pairs."""
    keys = {(a.node, b.node) for a, b in members}
    for a, b in members:
        pol_ok, chs = _expand(kind, a, b)
        if not pol_ok:
            return False, f"polarity fails at ({ty.render_inline(a)}, {ty.render_inline(b)})"
        for clause, label, resps, _ in chs:
            for _, succs in resps:  # a response whose successors are all members
                for x, y in succs:
                    if (x.node, y.node) not in keys:
                        break
                else:
                    break
            else:
                return False, (f"challenge {clause} {label} unanswered at "
                               f"({ty.render_inline(a)}, {ty.render_inline(b)})")
    return True, None


def validate_counterexample(S: Type, T: Type, kind: str, trace: list) -> tuple[bool, str | None]:
    """Replay a trace: each step must be a real transition, the last a violation."""
    if not trace:
        return False, "empty trace"
    cur = (S, T)
    for i, step in enumerate(trace):
        pol_ok, chs = _expand(kind, *cur)
        if step["clause"] == "polarity":
            if pol_ok:
                return False, f"step {i}: polarity holds"
            return True, None
        match = [resps for clause, label, resps, _ in chs
                 if clause == step["clause"] and label == step["label"]]
        if not match:
            return False, f"step {i}: challenge not present at this pair"
        resps = match[0]
        if i == len(trace) - 1:
            if resps:
                return False, f"step {i}: final challenge has responses"
            return True, None
        nxt = step.get("_next_key")
        resp = step.get("response")
        found = next((s for label, succs in resps if resp is None or label == resp
                      for s in succs if nxt is None or s == nxt), None)
        if found is None:
            return False, f"step {i}: recorded response/successor not derivable"
        cur = found
    return False, "trace did not terminate in a violation"


def cross_check_correct_subt(S: Type, T: Type, budget: Budget | None = None) -> dict:
    """Correct composition and subtyping against the dual must agree.

    Runs compose(S, T) and fairsub(S, dual(T)); the two semi-decisions may
    each report unknown, but a definite yes on one side with a definite no
    on the other is a checker bug.
    """
    comp = check(S, T, "compose", budget)
    sub = check(S, dual(T), "fairsub", budget)
    definitive = {"yes", "no"}
    consistent = not (comp.answer in definitive and sub.answer in definitive
                      and comp.answer != sub.answer)
    return {"compose": comp.answer, "fairsub": sub.answer,
            "consistent": consistent}


def dual_composes(S: Type, budget: Budget | None = None) -> Verdict:
    """Every type composes with its dual; useful as an end-to-end self-test."""
    return check(dual(S), S, "compose", budget)
