"""Measure inference and type checking for the process calculus.

Measures bound the number of "credits" a process needs to finish its work:
outputs are charged to the sender (1 per close/select/fork plus the tag's
annotation), receivers discharge tag annotations, and a choice costs one
credit plus the cheaper branch.  Definition measures are the least solution
of the resulting equation system, found by Kleene iteration from zero;
values exceeding the cap (2**20) diverge to Infinity, as do definitions
still changing after the round limit.

One walk over each definition does both jobs.  It checks the term against
the declared signature, enforcing linearity (every channel consumed exactly
once, ``done`` in an empty context, ``close x`` in exactly {x: end!}), and
returns the term's measure as a function of the definition measures, which
the Kleene iteration then evaluates without walking the term again.  A
definition that fails to check has no measure.  Side conditions are recorded
as obligations for the relation checker: a cut needs its two annotations to
compose, a link ``link x y`` at {x: S, y: T} needs dual(S) <= T.
``typecheck`` decides them after the walk; obligations listed in
``assume_cuts`` are taken on trust and reported as Assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

from . import process as pr, relations, types as ty
from .process import (Done, Link, Close, Wait, Select, Case, Fork, Join,
                      Choice, Cut, Call)
from .types import Type

INF = math.inf
CAP = 2 ** 20
ROUND_LIMIT = 1000


class MeasureError(Exception):
    pass


def _branches(t: Type) -> dict:
    return {tg: (m, t.at(c)) for tg, m, c in t.body()[1]}


def _cap(v):
    return INF if v > CAP else v


def _walk(prog: pr.Program, term, ctx: dict, where: str, obligations: list):
    """Check ``term`` in ``ctx`` and return its measure as a function of the
    definition measures.  Side conditions are appended to ``obligations`` as
    ``(kind, id, left, right, relation)``; failures raise MeasureError."""
    if isinstance(term, Done):
        if ctx:
            raise MeasureError(f"{where}: done with live channels {sorted(ctx)}")
        return lambda mu: 0
    if isinstance(term, Close):
        if term.x not in ctx or ctx[term.x].kind() != "one":
            raise MeasureError(f"{where}: close {term.x} needs {term.x}: end!")
        if set(ctx) != {term.x}:
            extra = sorted(set(ctx) - {term.x})
            raise MeasureError(f"{where}: close {term.x} with live channels {extra}")
        return lambda mu: 1
    if isinstance(term, Wait):
        _want(ctx, term.x, "bot", where)
        rest = {k: v for k, v in ctx.items() if k != term.x}
        return _walk(prog, term.cont, rest, where, obligations)
    if isinstance(term, Link):
        if set(ctx) != {term.x, term.y} or term.x == term.y:
            raise MeasureError(f"{where}: link {term.x} {term.y} needs exactly "
                               f"those two channels, context has {sorted(ctx)}")
        obligations.append(("link", f"link-{term.x}-{term.y}",
                            ty.dual(ctx[term.x]), ctx[term.y], "fairsub"))
        return lambda mu: 1
    if isinstance(term, Select):
        bs = _branches(_want(ctx, term.x, "plus", where))
        if term.tag not in bs:
            raise MeasureError(f"{where}: tag {term.tag!r} not in the type of {term.x}")
        m, cont = bs[term.tag]
        k = _walk(prog, term.cont, {**ctx, term.x: cont}, where, obligations)
        return lambda mu: _cap(1 + m + k(mu))
    if isinstance(term, Case):
        bs = _branches(_want(ctx, term.x, "with", where))
        pbs = dict(term.branches)
        # the empty external choice types a case in any context
        arms = []
        for tg, (m, cont) in bs.items():
            if tg not in pbs:
                raise MeasureError(f"{where}: case on {term.x} misses branch {tg!r}")
            arms.append((m, _walk(prog, pbs[tg], {**ctx, term.x: cont}, where,
                                  obligations)))
        return lambda mu: _cap(max([0, *(k(mu) - m for m, k in arms)]))
    if isinstance(term, Fork):
        t = _want(ctx, term.x, "times", where)
        pay, cont = t.at(t.body()[1]), t.at(t.body()[2])
        need = pr.free_names(term.payload) - {term.y}
        gp, gq = _split(ctx, term.x, need)
        if need - set(gp):
            raise MeasureError(f"{where}: payload of {term.x}!({term.y}) uses "
                               f"unknown channels {sorted(need - set(gp))}")
        kp = _walk(prog, term.payload, {**gp, term.y: pay}, where, obligations)
        kc = _walk(prog, term.cont, {**gq, term.x: cont}, where, obligations)
        return lambda mu: _cap(1 + kp(mu) + kc(mu))
    if isinstance(term, Join):
        t = _want(ctx, term.x, "par", where)
        pay, cont = t.at(t.body()[1]), t.at(t.body()[2])
        if term.y in ctx:
            raise MeasureError(f"{where}: received channel {term.y} shadows a live one")
        return _walk(prog, term.cont, {**ctx, term.x: cont, term.y: pay}, where,
                     obligations)
    if isinstance(term, Choice):
        kl = _walk(prog, term.left, ctx, where, obligations)
        kr = _walk(prog, term.right, ctx, where, obligations)
        return lambda mu: _cap(1 + min(kl(mu), kr(mu)))
    if isinstance(term, Cut):
        need = pr.free_names(term.left) - {term.x}
        gl, gr = _split(ctx, None, need)
        if need - set(gl):
            raise MeasureError(f"{where}: cut on {term.x} uses unknown channels "
                               f"{sorted(need - set(gl))}")
        obligations.append(("cut", term.cut_id, term.left_type, term.right_type,
                            "compose"))
        kl = _walk(prog, term.left, {**gl, term.x: term.left_type}, where, obligations)
        kr = _walk(prog, term.right, {**gr, term.x: term.right_type}, where, obligations)
        return lambda mu: _cap(kl(mu) + kr(mu))
    if isinstance(term, Call):
        sig = prog.sigs.get(term.name)
        if sig is None:
            raise MeasureError(f"{where}: call to {term.name!r} without a signature")
        if len(term.args) != len(sig) or len(set(term.args)) != len(term.args):
            raise MeasureError(f"{where}: bad argument list for {term.name}")
        if set(term.args) != set(ctx):
            raise MeasureError(f"{where}: {term.name} call leaves channels "
                               f"{sorted(set(ctx) ^ set(term.args))} unaccounted")
        for a, (p, t) in zip(term.args, sig):
            if ctx[a] != t:
                raise MeasureError(f"{where}: channel {a} has the wrong type "
                                   f"for parameter {p} of {term.name}")
        name = term.name
        return lambda mu: mu.get(name, 0)
    raise MeasureError(f"{where}: not a term: {term!r}")


def _want(ctx, x, kind, where):
    if x not in ctx:
        raise MeasureError(f"{where}: channel {x!r} not in context")
    if ctx[x].kind() != kind:
        raise MeasureError(f"{where}: channel {x!r} has kind {ctx[x].kind()!r}, "
                           f"expected {kind!r}")
    return ctx[x]


def _split(ctx, drop, left_names):
    g = {k: v for k, v in ctx.items() if k != drop}
    gl = {k: v for k, v in g.items() if k in left_names}
    gr = {k: v for k, v in g.items() if k not in left_names}
    return gl, gr


def _walk_def(prog: pr.Program, name: str, obligations: list):
    params, body = prog.defs[name]
    sig = prog.sigs.get(name)
    if sig is None:
        raise MeasureError(f"def {name}: missing signature")
    if len(sig) != len(params):
        raise MeasureError(f"def {name}: signature arity mismatch")
    ctx = dict(zip(params, (t for _, t in sig)))
    return _walk(prog, body, ctx, f"def {name}", obligations)


def _solve(equations: dict) -> dict:
    """Least fixed point of ``name -> measure function`` by Kleene iteration."""
    mu = {name: 0 for name in equations}
    for _ in range(ROUND_LIMIT + 1):
        nxt = {name: _cap(k(mu)) for name, k in equations.items()}
        if nxt == mu:
            return mu
        mu = nxt
    # still changing: the remaining growth is unbounded
    return {name: (mu[name] if k(mu) == mu[name] else INF)
            for name, k in equations.items()}


def infer_measures(prog: pr.Program) -> dict:
    """Least fixed point of the definition measure equations."""
    return _solve({name: _walk_def(prog, name, []) for name in prog.defs})


# ---------------------------------------------------------------------------
# type checking


@dataclass
class TypeReport:
    status: str  # WellTyped | IllTyped | Conditional
    reasons: list = field(default_factory=list)
    obligations: list = field(default_factory=list)
    measures: dict = field(default_factory=dict)

    def to_json(self):
        return {"status": self.status, "reasons": self.reasons,
                "obligations": self.obligations,
                "measures": {k: ("Infinity" if v == INF else v)
                             for k, v in self.measures.items()}}


def typecheck(prog: pr.Program, assume_cuts=(), budget=None) -> TypeReport:
    budget = budget or relations.Budget()
    assume_cuts = set(assume_cuts)
    errors = []
    pending = []  # (kind, id, left, right, relation), in walk order
    equations = {}
    for name in prog.defs:
        try:
            equations[name] = _walk_def(prog, name, pending)
        except MeasureError as e:
            errors.append(str(e))
    if prog.main is not None:
        try:
            _walk(prog, prog.main, {}, "main", pending)
        except MeasureError as e:
            errors.append(str(e))

    measures = _solve(equations) if len(equations) == len(prog.defs) else {}
    reasons = [f"def {name}: no finite measure"
               for name, v in measures.items() if v == INF]
    reasons += errors
    obligations = []
    for kind, ident, left, right, relation in pending:
        if kind == "cut" and ident in assume_cuts:
            verdict = "assumed"
        else:
            verdict = relations.check(left, right, relation, budget).answer
        obligations.append({"kind": kind, "id": ident, "verdict": verdict})
    reasons += [f"{o['kind']} {o['id']}: side condition fails"
                for o in obligations if o["verdict"] == "no"]
    if reasons:
        status = "IllTyped"
    elif any(o["verdict"] in ("unknown", "assumed") for o in obligations):
        status = "Conditional"
    else:
        status = "WellTyped"
    return TypeReport(status, reasons, obligations, measures)
