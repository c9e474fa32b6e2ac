"""Surface syntax and terms of the asynchronous process calculus.

A program file is a sequence of declarations followed by an optional bare
process term used as the entry point:

    type NAME = T                      session type declarations
    sig  NAME(x: T, y: T)              typing signatures for definitions
    def  NAME(x, y) = P                process definitions
    P                                  optional main process

Process grammar:

    P ::= done | link x y | close x | wait x . P
        | x ! tag . P | case x { tag: P, ... }
        | x !(y) { P } . P             send a fresh channel y, payload P
        | x ?(y) . P                   receive a channel, bind it to y
        | P (+) P                      non-deterministic choice
        | new x : T >< T { P || P }    cut: connect two processes on x
        | NAME(x, ...)                 invocation

A term nests at most ``types.MAX_NESTING`` (256) levels deep, counting each
prefix, each body of a ``case``, ``new`` or fork, each parenthesis, each
``(+)`` and each level of a type written inside it; a deeper program is a
``ProcessError`` (or a ``TypeError_`` when the limit falls inside a type).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import types as ty
from .types import Type


class ProcessError(Exception):
    pass


@dataclass(frozen=True)
class Done:
    pass


@dataclass(frozen=True)
class Link:
    x: str
    y: str


@dataclass(frozen=True)
class Close:
    x: str


@dataclass(frozen=True)
class Wait:
    x: str
    cont: object


@dataclass(frozen=True)
class Select:
    x: str
    tag: str
    cont: object


@dataclass(frozen=True)
class Case:
    x: str
    branches: tuple  # ((tag, term), ...)


@dataclass(frozen=True)
class Fork:
    x: str
    y: str
    payload: object
    cont: object


@dataclass(frozen=True)
class Join:
    x: str
    y: str
    cont: object


@dataclass(frozen=True)
class Choice:
    left: object
    right: object


@dataclass(frozen=True)
class Cut:
    x: str
    left_type: Type
    right_type: Type
    left: object
    right: object
    cut_id: str = ""


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


@dataclass
class Program:
    types: dict  # name -> Type (resolved)
    sigs: dict  # def name -> ((param, Type), ...)
    defs: dict  # def name -> (params, body)
    main: object | None


def free_names(p) -> frozenset:
    if isinstance(p, Done):
        return frozenset()
    if isinstance(p, Link):
        return frozenset({p.x, p.y})
    if isinstance(p, Close):
        return frozenset({p.x})
    if isinstance(p, Wait):
        return free_names(p.cont) | {p.x}
    if isinstance(p, Select):
        return free_names(p.cont) | {p.x}
    if isinstance(p, Case):
        out = frozenset({p.x})
        for _, q in p.branches:
            out |= free_names(q)
        return out
    if isinstance(p, Fork):
        return (free_names(p.payload) - {p.y}) | (free_names(p.cont)) | {p.x}
    if isinstance(p, Join):
        return (free_names(p.cont) - {p.y}) | {p.x}
    if isinstance(p, Choice):
        return free_names(p.left) | free_names(p.right)
    if isinstance(p, Cut):
        return (free_names(p.left) | free_names(p.right)) - {p.x}
    if isinstance(p, Call):
        return frozenset(p.args)
    raise ProcessError(f"not a term: {p!r}")


def rename(p, sub: dict, fresh=None):
    """Substitute ``sub`` for the free names of ``p``.

    Without ``fresh`` a binder keeps its name and hides itself from ``sub``
    in its scope; this avoids capture only when no value of ``sub`` is bound
    in ``p``.  With ``fresh`` every binder (fork and receive ``y``, cut ``x``)
    becomes ``fresh(binder)`` in pre-order (the binder, then the payload or
    left side, then the continuation or right side) and its scope is renamed
    in the same walk, so the result never captures.
    """
    cls, get = type(p), sub.get
    if cls is Done or not sub and fresh is None:
        return p
    if cls is Select:
        return Select(get(p.x, p.x), p.tag, rename(p.cont, sub, fresh))
    if cls is Case:
        return Case(get(p.x, p.x), tuple([(t, rename(q, sub, fresh))
                                           for t, q in p.branches]))
    if cls is Call:
        return Call(p.name, tuple([get(a, a) for a in p.args]))
    if cls is Wait:
        return Wait(get(p.x, p.x), rename(p.cont, sub, fresh))
    if cls is Close:
        return Close(get(p.x, p.x))
    if cls is Link:
        return Link(get(p.x, p.x), get(p.y, p.y))
    if cls is Choice:
        return Choice(rename(p.left, sub, fresh), rename(p.right, sub, fresh))
    if cls is Fork:
        inner, y = _bind(sub, p.y, fresh)
        return Fork(get(p.x, p.x), y, rename(p.payload, inner, fresh),
                    rename(p.cont, sub, fresh))
    if cls is Join:
        inner, y = _bind(sub, p.y, fresh)
        return Join(get(p.x, p.x), y, rename(p.cont, inner, fresh))
    if cls is Cut:
        inner, x = _bind(sub, p.x, fresh)
        return Cut(x, p.left_type, p.right_type, rename(p.left, inner, fresh),
                   rename(p.right, inner, fresh), p.cut_id)
    raise ProcessError(f"not a term: {p!r}")


def _bind(sub, name, fresh):
    """The substitution in a binder's scope, and the binder's new name."""
    if fresh is None:
        return {k: v for k, v in sub.items() if k != name}, name
    new = fresh(name)
    return {**sub, name: new}, new


# ---------------------------------------------------------------------------
# parser, over the token stream of ``types.Cursor``

_KEYWORDS = {"done", "link", "close", "wait", "case", "new", "type", "sig", "def"}


def _name(c, what="name"):
    return c.ident(what, _KEYWORDS)


def _branch(c):
    tag = _name(c, "tag")
    c.expect(":")
    return tag, _term(c)


def _term(c, choice=True):
    """A term; a prefix's continuation (``choice`` false) stops before ``(+)``."""
    depth = c.depth
    c.enter("process term")
    t = c.peek()
    if t == "done":
        c.next()
        p = Done()
    elif t == "link":
        c.next()
        p = Link(_name(c), _name(c))
    elif t == "close":
        c.next()
        p = Close(_name(c))
    elif t == "wait":
        c.next()
        x = _name(c)
        c.expect(".")
        p = Wait(x, _term(c, False))
    elif t == "case":
        c.next()
        x = _name(c)
        c.expect("{")
        p = Case(x, tuple(c.commas(_branch, "}", "duplicate tags in case")))
    elif t == "new":
        c.next()
        x = _name(c)
        c.expect(":")
        lt = c.type_expr()
        c.expect("><")
        rt = c.type_expr()
        c.expect("{")
        left = _term(c)
        c.expect("||")
        right = _term(c)
        c.expect("}")
        p = Cut(x, lt, rt, left, right)  # types resolved later
    elif t == "(":
        c.next()
        p = _term(c)
        c.expect(")")
    else:
        # identifier-led: call NAME(...), or a channel action x!.., x!(y).., x?(y)..
        name = _name(c)
        t = c.peek()
        if t == "(":
            c.next()
            p = Call(name, tuple(c.commas(_name, ")")))
        elif t == "!":
            c.next()
            if c.peek() == "(":
                c.next()
                y = _name(c)
                c.expect(")")
                c.expect("{")
                payload = _term(c)
                c.expect("}")
                c.expect(".")
                p = Fork(name, y, payload, _term(c, False))
            else:
                tag = _name(c, "tag")
                c.expect(".")
                p = Select(name, tag, _term(c, False))
        elif t == "?":
            c.next()
            c.expect("(")
            y = _name(c)
            c.expect(")")
            c.expect(".")
            p = Join(name, y, _term(c, False))
        else:
            c.fail(f"unexpected token after {name!r}: {t!r}")
    c.depth = depth
    while choice and c.peek() == "(+)":
        c.next()
        c.enter("process term")  # each choice nests the ones before it
        p = Choice(p, _term(c, False))
    c.depth = depth
    return p


def _param(c):
    x = _name(c)
    c.expect(":")
    return x, c.type_expr()


def parse_program(src: str) -> Program:
    c = ty.Cursor(src, ProcessError)
    type_asts = {}
    sigs_raw = {}
    defs = {}
    main = None
    while c.peek() is not None:
        t = c.peek()
        if t == "type":
            c.decl(type_asts, _KEYWORDS)
        elif t == "sig":
            c.next()
            name = _name(c, "definition name")
            c.expect("(")
            sigs_raw[name] = tuple(c.commas(_param, ")"))
        elif t == "def":
            c.next()
            name = _name(c, "definition name")
            at = c.i - 1
            c.expect("(")
            params = tuple(c.commas(_name, ")"))
            c.expect("=")
            if name in defs:
                c.fail(f"duplicate definition {name!r}", at)
            defs[name] = (params, _term(c))
        else:
            if main is not None:
                c.fail("more than one bare main term")
            main = _term(c)

    types = ty.resolve_all(type_asts)

    def resolve_ast(ast):
        if ast[0] == "name" and ast[1] in types:
            return types[ast[1]]
        return ty.resolve_expr(ast, type_asts)

    sigs = {n: tuple((x, resolve_ast(a)) for x, a in ps)
            for n, ps in sigs_raw.items()}

    counter = {}

    def fix(term):
        # resolve cut annotations and assign stable cut ids
        if isinstance(term, Cut):
            k = counter.get(term.x, 0) + 1
            counter[term.x] = k
            cid = f"cut-{term.x}" if k == 1 else f"cut-{term.x}-{k}"
            return Cut(term.x, resolve_ast(term.left_type), resolve_ast(term.right_type),
                       fix(term.left), fix(term.right), cid)
        if isinstance(term, (Wait, Select)):
            return type(term)(**{**vars_of(term), "cont": fix(term.cont)})
        if isinstance(term, Case):
            return Case(term.x, tuple((t, fix(q)) for t, q in term.branches))
        if isinstance(term, Fork):
            return Fork(term.x, term.y, fix(term.payload), fix(term.cont))
        if isinstance(term, Join):
            return Join(term.x, term.y, fix(term.cont))
        if isinstance(term, Choice):
            return Choice(fix(term.left), fix(term.right))
        return term

    def vars_of(term):
        return {f: getattr(term, f) for f in term.__dataclass_fields__}

    defs = {n: (ps, fix(b)) for n, (ps, b) in defs.items()}
    prog = Program(types, sigs, defs, fix(main) if main is not None else None)
    _check_arities(prog)
    _check_free_names(prog)
    _check_guardedness(prog)
    return prog


def _check_free_names(prog: Program):
    for name, (params, body) in prog.defs.items():
        extra = free_names(body) - set(params)
        if extra:
            raise ProcessError(
                f"def {name}: free channels {sorted(extra)} not among parameters")


def _check_arities(prog: Program):
    def walk(term, where):
        if isinstance(term, Call):
            if term.name not in prog.defs:
                raise ProcessError(f"{where}: call to unknown definition {term.name!r}")
            want = len(prog.defs[term.name][0])
            if len(term.args) != want:
                raise ProcessError(
                    f"{where}: {term.name} takes {want} channels, got {len(term.args)}")
        for child in _children(term):
            walk(child, where)

    for n, (ps, b) in prog.defs.items():
        if n in prog.sigs and len(prog.sigs[n]) != len(ps):
            raise ProcessError(f"signature of {n} disagrees with its parameter list")
        walk(b, f"def {n}")
    if prog.main is not None:
        walk(prog.main, "main")


def _children(term):
    if isinstance(term, (Wait, Select)):
        return [term.cont]
    if isinstance(term, Case):
        return [q for _, q in term.branches]
    if isinstance(term, Fork):
        return [term.payload, term.cont]
    if isinstance(term, Join):
        return [term.cont]
    if isinstance(term, Choice):
        return [term.left, term.right]
    if isinstance(term, Cut):
        return [term.left, term.right]
    return []


def _check_guardedness(prog: Program):
    # runtime.normalize unfolds, without a step, calls behind output prefixes,
    # in fork continuations and on both sides of a cut: no cycle may pass there
    def unfolded(term):
        if isinstance(term, Call):
            return [term.name]
        if isinstance(term, (Select, Fork)):
            return unfolded(term.cont)
        if isinstance(term, Cut):
            return unfolded(term.left) + unfolded(term.right)
        return []

    calls = {n: iter(unfolded(body)) for n, (_, body) in prog.defs.items()}
    on_path = {}  # name -> still on the depth-first path?
    for start in calls:
        path = [] if start in on_path else [start]
        while path:
            on_path[path[-1]] = True
            nxt = next(calls[path[-1]], None)
            if nxt is None:
                on_path[path.pop()] = False
            elif on_path.get(nxt):
                raise ProcessError(f"unguarded invocation cycle through {nxt!r}")
            elif nxt not in on_path:
                path.append(nxt)
