"""Composability and the subtyping family, decided by bounded pair games.

Every relation here is a largest fixed point over pairs of types: a pair is
in the relation when every *challenge* (a transition one side must answer
for) has a *response* whose successor pairs are again in the relation.  The
solver explores pairs breadth-first up to a budget, then evaluates the game
twice:

- pessimistically (unexplored pairs lose): if the root survives, the answer
  is a definite *yes* with an extractable witness;
- optimistically (unexplored pairs win): if the root still fails, the answer
  is a definite *no* with a replayable counterexample trace;
- otherwise *unknown*.

Budgets are monotone: growing them only turns unknowns into answers.

Relation kinds:

- ``compose``    safe composition of the two endpoint types
- ``fairsub``    fair asynchronous subtyping (full-mode challenges/responses)
- ``syncsub``    synchronous subtyping (must-mode only, first-order)
- ``asyncsub``   asynchronous subtyping (must challenges, inductive responses)
- ``bzfairsub``  must/full subtyping with the output-reachability condition
- ``auxsub``     must/full subtyping without that condition
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import lts, types as ty
from .types import Type, canonicalize, dual

KINDS = ("compose", "fairsub", "syncsub", "asyncsub", "bzfairsub", "auxsub")

SUB_KINDS = ("fairsub", "syncsub", "asyncsub", "bzfairsub", "auxsub")


@dataclass
class Budget:
    max_pairs: int = 2000
    max_nodes_per_type: int = 64


@dataclass
class Response:
    label: object  # lts.Label | None
    succs: list  # [(Type, Type)]


@dataclass
class Challenge:
    clause: str
    label: object
    responses: list
    note: str | None = None


@dataclass
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


def _fo(t, d, mode):
    return [l for l in lts.enumerate_labels(t, d, mode) if l.is_first_order]


def _chans(t, d, mode, payload=None):
    """Enabled channel labels of ``t``, plus a channel carrying ``payload`` if
    ``t`` derives it: an empty choice derives every channel vacuously, but
    ``enumerate_labels`` only offers the payloads in ``t``'s own table."""
    ls = [l for l in lts.enumerate_labels(t, d, mode) if not l.is_first_order]
    if payload is not None:
        extra = lts.chan(d, payload)
        if (all(l.key() != extra.key() for l in ls)
                and lts.enabled(t, extra, mode)):
            ls.append(extra)
    return ls


def _measure_note(responder: Type, l, mode: str) -> str | None:
    """Distinguish a missing tag from a tag present under another measure."""
    if l.msg[0] != "tag":
        return None
    name, m = l.msg[1], l.msg[2]
    for n in responder.reachable():
        b = responder.nodes[n]
        if b[0] in ("plus", "with"):
            for tg, mm, _ in b[1]:
                if tg == name and mm != m:
                    alt = lts.Label(l.direction, ("tag", name, mm))
                    if lts.enabled(responder, alt, mode):
                        return f"measure mismatch on tag {name!r}: {m} vs {mm}"
    return None


def _first_order_only(t: Type) -> bool:
    return all(t.nodes[n][0] not in ("times", "par") for n in t.reachable())


def _expand_compose(S: Type, T: Type):
    pol_ok = S.is_positive() or T.is_positive()
    chs = []
    for l in _fo(S, "out", "full"):
        flip = lts.Label("in", l.msg)
        resp, note = [], None
        if lts.enabled(T, flip, "full"):
            resp.append(Response(flip, [(lts.derivative(S, l), lts.derivative(T, flip))]))
        else:
            note = _measure_note(T, flip, "full")
        chs.append(Challenge("send-left", l, resp, note))
    for l in _fo(T, "out", "full"):
        flip = lts.Label("in", l.msg)
        resp, note = [], None
        if lts.enabled(S, flip, "full"):
            resp.append(Response(flip, [(lts.derivative(S, flip), lts.derivative(T, l))]))
        else:
            note = _measure_note(S, flip, "full")
        chs.append(Challenge("send-right", l, resp, note))
    for l in _chans(S, "out", "full"):
        S1, S2 = l.msg[1], lts.derivative(S, l)
        resp = [Response(lt, [(S1, lt.msg[1]), (S2, lts.derivative(T, lt))])
                for lt in _chans(T, "in", "full", dual(S1))]
        chs.append(Challenge("send-chan-left", l, resp,
                             None if resp else "no channel input on the right"))
    for l in _chans(T, "out", "full"):
        T1, T2 = l.msg[1], lts.derivative(T, l)
        resp = [Response(ls, [(ls.msg[1], T1), (lts.derivative(S, ls), T2)])
                for ls in _chans(S, "in", "full", dual(T1))]
        chs.append(Challenge("send-chan-right", l, resp,
                             None if resp else "no channel input on the left"))
    return pol_ok, chs


_SUB_MODES = {
    # kind -> (challenge mode, response mode, higher-order?, bz condition?)
    "fairsub": ("full", "full", True, False),
    "syncsub": ("must", "must", False, False),
    "asyncsub": ("must", "ind", False, False),
    "bzfairsub": ("must", "full", False, True),
    "auxsub": ("must", "full", False, False),
}


def _must_reachable_outputs(T: Type) -> list:
    """Output labels must-enabled anywhere T can get by must-mode inputs."""
    seen = {T.key(): T}
    queue = [T]
    out = {}
    while queue:
        u = queue.pop(0)
        for l in _fo(u, "out", "must"):
            out.setdefault(l.key(), l)
        for l in _fo(u, "in", "must"):
            v = lts.derivative(u, l, "must")
            if v.key() not in seen:
                seen[v.key()] = v
                queue.append(v)
    return list(out.values())


def _expand_sub(kind: str, S: Type, T: Type):
    chal, resp_mode, ho, bz = _SUB_MODES[kind]
    pol_ok = S.is_positive() or not T.is_positive()
    chs = []
    for l in _fo(T, "in", chal):
        resp, note = [], None
        if lts.enabled(S, l, resp_mode):
            resp.append(Response(l, [(lts.derivative(S, l, resp_mode),
                                      lts.derivative(T, l, chal))]))
        else:
            note = _measure_note(S, l, resp_mode)
        chs.append(Challenge("receive-sup", l, resp, note))
    for l in _fo(S, "out", chal):
        resp, note = [], None
        if lts.enabled(T, l, resp_mode):
            resp.append(Response(l, [(lts.derivative(S, l, chal),
                                      lts.derivative(T, l, resp_mode))]))
        else:
            note = _measure_note(T, l, resp_mode)
        chs.append(Challenge("send-sub", l, resp, note))
    if ho:
        for lt in _chans(T, "in", chal):
            resp = [Response(ls, [(ls.msg[1], lt.msg[1]),
                                  (lts.derivative(S, ls, resp_mode),
                                   lts.derivative(T, lt, chal))])
                    for ls in _chans(S, "in", resp_mode, lt.msg[1])]
            chs.append(Challenge("receive-chan-sup", lt, resp,
                                 None if resp else "no channel input in candidate"))
        for ls in _chans(S, "out", chal):
            resp = [Response(lt, [(ls.msg[1], lt.msg[1]),
                                  (lts.derivative(S, ls, chal),
                                   lts.derivative(T, lt, resp_mode))])
                    for lt in _chans(T, "out", resp_mode, ls.msg[1])]
            chs.append(Challenge("send-chan-sub", ls, resp,
                                 None if resp else "no channel output in supertype"))
    if bz and _fo(S, "out", "must"):
        for tau in _must_reachable_outputs(T):
            if not lts.enabled(S, tau, "must"):
                chs.append(Challenge(
                    "must-output-reachability", tau, [],
                    "supertype reaches this output over must inputs; "
                    "candidate cannot emit it now"))
    return pol_ok, chs


def _expand(kind, S, T):
    if kind == "compose":
        return _expand_compose(S, T)
    return _expand_sub(kind, S, T)


# ---------------------------------------------------------------------------
# the solver


def check(S: Type, T: Type, kind: str, budget: Budget | None = None) -> Verdict:
    if kind not in KINDS:
        raise ValueError(f"unknown relation kind {kind!r}")
    b = budget or Budget()
    S, T = canonicalize(S), canonicalize(T)
    warnings = []
    if kind in ("syncsub", "asyncsub", "bzfairsub", "auxsub"):
        if not (_first_order_only(S) and _first_order_only(T)):
            raise ValueError(f"{kind} is defined for first-order types only")
        for side, t in (("left", S), ("right", T)):
            if not ty.is_fairly_terminating(t):
                warnings.append(f"{side} input is not fairly terminating")

    pairs = {}  # key -> record
    root = (S.key(), T.key())
    order = [root]
    pairs[root] = {"S": S, "T": T, "status": "pending"}
    qi = 0
    while qi < len(order):
        key = order[qi]
        qi += 1
        rec = pairs[key]
        if len(pairs) > b.max_pairs and key != root:
            continue  # stays pending -> frontier
        if rec["S"].size() > b.max_nodes_per_type or rec["T"].size() > b.max_nodes_per_type:
            rec["status"] = "frontier"
            continue
        pol_ok, chs = _expand(kind, rec["S"], rec["T"])
        rec["status"] = "expanded"
        rec["pol_ok"] = pol_ok
        rec["challenges"] = chs
        for ch in chs:
            for r in ch.responses:
                keyed = []
                for A, B in r.succs:
                    A, B = canonicalize(A), canonicalize(B)
                    k2 = (A.key(), B.key())
                    keyed.append(k2)
                    if k2 not in pairs:
                        pairs[k2] = {"S": A, "T": B, "status": "pending"}
                        order.append(k2)
                r.succs = keyed
    for rec in pairs.values():
        if rec["status"] == "pending":
            rec["status"] = "frontier"

    def survivors(frontier_good: bool, removed_info: dict | None = None):
        good = set(pairs)
        seq = [0]
        changed = True
        while changed:
            changed = False
            for key in order:
                if key not in good:
                    continue
                rec = pairs[key]
                if rec["status"] != "expanded":
                    ok = frontier_good
                    cause = None
                else:
                    ok = rec["pol_ok"]
                    cause = None if ok else "polarity"
                    if ok:
                        for ch in rec["challenges"]:
                            if not any(all(s in good for s in r.succs)
                                       for r in ch.responses):
                                ok = False
                                cause = ch
                                break
                if not ok:
                    good.discard(key)
                    if removed_info is not None:
                        removed_info[key] = (seq[0], cause)
                        seq[0] += 1
                    changed = True
        return good

    pess = survivors(frontier_good=False)
    removed: dict = {}
    opt = survivors(frontier_good=True, removed_info=removed)

    n_frontier = sum(1 for r in pairs.values() if r["status"] != "expanded")
    stats = {"pairs_explored": len(pairs),
             "pairs_expanded": len(pairs) - n_frontier,
             "pairs_frontier": n_frontier,
             "max_pairs": b.max_pairs}

    if root in pess:
        witness = _extract_witness(pairs, order, root, pess)
        return Verdict(kind, "yes", witness=witness, stats=stats, warnings=warnings)
    if root not in opt:
        trace, reason = _extract_trace(pairs, root, removed)
        return Verdict(kind, "no", trace=trace, reason=reason, stats=stats,
                       warnings=warnings)
    return Verdict(kind, "unknown", stats=stats, warnings=warnings,
                   reason="budget exhausted before the game closed")


def _extract_witness(pairs, order, root, good):
    keep = {root}
    queue = [root]
    while queue:
        key = queue.pop(0)
        rec = pairs[key]
        for ch in rec["challenges"]:
            chosen = next(r for r in ch.responses
                          if all(s in good for s in r.succs))
            for s in chosen.succs:
                if s not in keep:
                    keep.add(s)
                    queue.append(s)
    return [(pairs[k]["S"], pairs[k]["T"]) for k in keep]


def _extract_trace(pairs, root, removed):
    steps = []
    key = root
    reason = None
    for _ in range(len(pairs) + 1):
        rec = pairs[key]
        pair_txt = [ty.render_inline(rec["S"]), ty.render_inline(rec["T"])]
        seq, cause = removed[key]
        if cause == "polarity":
            steps.append({"pair": pair_txt, "clause": "polarity", "label": None,
                          "note": "both endpoints negative" if rec.get("pol_ok") is False else None})
            reason = reason or "polarity violation"
            break
        ch = cause
        if not ch.responses:
            steps.append({"pair": pair_txt, "clause": ch.clause, "label": ch.label,
                          "note": ch.note or "no response"})
            reason = reason or (("measure mismatch" if ch.note and "measure" in ch.note
                                 else None) or f"unanswered challenge in {ch.clause}")
            break
        # every response has a successor refuted strictly earlier; follow the
        # earliest-refuted one down to a ground violation
        best = None
        for r in ch.responses:
            for s in r.succs:
                if s in removed and removed[s][0] < seq:
                    if best is None or removed[s][0] < best[0]:
                        best = (removed[s][0], r, s)
        if best is None:  # response blocked by a frontier pair: shouldn't happen in a "no"
            steps.append({"pair": pair_txt, "clause": ch.clause, "label": ch.label,
                          "note": "refutation passes through unexplored pairs"})
            reason = reason or "incomplete trace"
            break
        _, r, nxt = best
        steps.append({"pair": pair_txt, "clause": ch.clause, "label": ch.label,
                      "response": r.label,
                      "_next_key": nxt,
                      "next": [ty.render_inline(pairs[nxt]["S"]),
                               ty.render_inline(pairs[nxt]["T"])]})
        key = nxt
    return steps, reason


# ---------------------------------------------------------------------------
# validation helpers (used by tests and the cross-check commands)


def validate_witness(kind: str, members: list) -> tuple[bool, str | None]:
    """Check clause-closure of a claimed witness set of (Type, Type) pairs."""
    keys = {(canonicalize(a).key(), canonicalize(b).key()) for a, b in members}
    for a, b in members:
        a, b = canonicalize(a), canonicalize(b)
        pol_ok, chs = _expand(kind, a, b)
        if not pol_ok:
            return False, f"polarity fails at ({ty.render_inline(a)}, {ty.render_inline(b)})"
        for ch in chs:
            ok = any(all((canonicalize(x).key(), canonicalize(y).key()) in keys
                         for x, y in r.succs)
                     for r in ch.responses)
            if not ok:
                return False, (f"challenge {ch.clause} {ch.label} unanswered at "
                               f"({ty.render_inline(a)}, {ty.render_inline(b)})")
    return True, None


def validate_counterexample(S: Type, T: Type, kind: str, trace: list) -> tuple[bool, str | None]:
    """Replay a trace: each step must be a real transition, the last a violation."""
    if not trace:
        return False, "empty trace"
    cur = (canonicalize(S), canonicalize(T))
    for i, step in enumerate(trace):
        pol_ok, chs = _expand(kind, *cur)
        if step["clause"] == "polarity":
            if pol_ok:
                return False, f"step {i}: polarity holds"
            return True, None
        match = [ch for ch in chs
                 if ch.clause == step["clause"]
                 and ch.label is not None and ch.label.key() == step["label"].key()]
        if not match:
            return False, f"step {i}: challenge not present at this pair"
        ch = match[0]
        if i == len(trace) - 1:
            if ch.responses:
                return False, f"step {i}: final challenge has responses"
            return True, None
        nxt = step.get("_next_key")
        resp = step.get("response")
        found = None
        for r in ch.responses:
            if resp is not None and (r.label is None or r.label.key() != resp.key()):
                continue
            for A, B in r.succs:
                A, B = canonicalize(A), canonicalize(B)
                if nxt is None or (A.key(), B.key()) == nxt:
                    found = (A, B)
                    break
            if found:
                break
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
    b = budget or Budget()
    comp = check(S, T, "compose", b)
    sub = check(S, dual(T), "fairsub", b)
    definitive = {"yes", "no"}
    consistent = not (comp.answer in definitive and sub.answer in definitive
                      and comp.answer != sub.answer)
    return {"compose": comp.answer, "fairsub": sub.answer,
            "consistent": consistent}


def dual_composes(S: Type, budget: Budget | None = None) -> Verdict:
    """Every type composes with its dual; useful as an end-to-end self-test."""
    return check(dual(S), S, "compose", budget)
