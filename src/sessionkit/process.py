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
"""

from __future__ import annotations

from dataclasses import dataclass
import re

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


def rename(p, sub: dict):
    """Capture-avoiding only under the assumption that bound names are fresh;
    the runtime freshens every binder before substituting."""
    if not sub:
        return p
    r = lambda q: rename(q, sub)
    s = lambda n: sub.get(n, n)
    if isinstance(p, Done):
        return p
    if isinstance(p, Link):
        return Link(s(p.x), s(p.y))
    if isinstance(p, Close):
        return Close(s(p.x))
    if isinstance(p, Wait):
        return Wait(s(p.x), r(p.cont))
    if isinstance(p, Select):
        return Select(s(p.x), p.tag, r(p.cont))
    if isinstance(p, Case):
        return Case(s(p.x), tuple((t, r(q)) for t, q in p.branches))
    if isinstance(p, Fork):
        inner = {k: v for k, v in sub.items() if k != p.y}
        return Fork(s(p.x), p.y, rename(p.payload, inner), r(p.cont))
    if isinstance(p, Join):
        inner = {k: v for k, v in sub.items() if k != p.y}
        return Join(s(p.x), p.y, rename(p.cont, inner))
    if isinstance(p, Choice):
        return Choice(r(p.left), r(p.right))
    if isinstance(p, Cut):
        inner = {k: v for k, v in sub.items() if k != p.x}
        return Cut(p.x, p.left_type, p.right_type,
                   rename(p.left, inner), rename(p.right, inner), p.cut_id)
    if isinstance(p, Call):
        return Call(p.name, tuple(s(a) for a in p.args))
    raise ProcessError(f"not a term: {p!r}")


# ---------------------------------------------------------------------------
# tokenizer / parser

_OPS = ["(+)", "||", "><", "+{", "&{", "end!", "end?",
        "{", "}", "(", ")", ":", ",", ".", "!", "?", "@", "="]

_TOK = re.compile(
    "|".join([r"#[^\n]*"] + [re.escape(o) for o in _OPS] +
             [r"[A-Za-z_][A-Za-z0-9_]*", r"\d+"]))


def _tokenize(src: str):
    toks = []
    pos = 0
    n = len(src)
    while pos < n:
        if src[pos].isspace():
            pos += 1
            continue
        m = _TOK.match(src, pos)
        if not m:
            raise ProcessError(f"bad character at offset {pos}: {src[pos]!r}")
        pos = m.end()
        if not m.group(0).startswith("#"):
            toks.append(m.group(0))
    return toks


class _P:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self, k=0):
        j = self.i + k
        return self.toks[j] if j < len(self.toks) else None

    def next(self):
        if self.i >= len(self.toks):
            raise ProcessError("unexpected end of input")
        self.i += 1
        return self.toks[self.i - 1]

    def expect(self, tok):
        got = self.next()
        if got != tok:
            raise ProcessError(f"expected {tok!r}, got {got!r}")

    def ident(self, what="name"):
        t = self.next()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", t or "") or t in (
                "done", "link", "close", "wait", "case", "new", "type", "sig", "def"):
            raise ProcessError(f"expected {what}, got {t!r}")
        return t

    def type_expr(self):
        # the type grammar shares this token stream
        tp = ty._Parser(self.toks)
        tp.i = self.i
        ast = tp.type_expr()
        self.i = tp.i
        return ast

    def term(self):
        left = self.term1()
        while self.peek() == "(+)":
            self.next()
            left = Choice(left, self.term1())
        return left

    def term1(self):
        t = self.peek()
        if t == "done":
            self.next()
            return Done()
        if t == "link":
            self.next()
            return Link(self.ident(), self.ident())
        if t == "close":
            self.next()
            return Close(self.ident())
        if t == "wait":
            self.next()
            x = self.ident()
            self.expect(".")
            return Wait(x, self.term1())
        if t == "case":
            self.next()
            x = self.ident()
            self.expect("{")
            branches = []
            if self.peek() != "}":
                while True:
                    tag = self.ident("tag")
                    self.expect(":")
                    branches.append((tag, self.term()))
                    if self.peek() == ",":
                        self.next()
                        continue
                    break
            self.expect("}")
            tags = [b[0] for b in branches]
            if len(set(tags)) != len(tags):
                raise ProcessError(f"duplicate tags in case: {tags}")
            return Case(x, tuple(branches))
        if t == "new":
            self.next()
            x = self.ident()
            self.expect(":")
            lt = self.type_expr()
            self.expect("><")
            rt = self.type_expr()
            self.expect("{")
            left = self.term()
            self.expect("||")
            right = self.term()
            self.expect("}")
            return Cut(x, lt, rt, left, right)  # types resolved later
        if t == "(":
            self.next()
            inner = self.term()
            self.expect(")")
            return inner
        # identifier-led: call NAME(...), or a channel action x!.., x!(y).., x?(y)..
        name = self.ident()
        t = self.peek()
        if t == "(":
            self.next()
            args = []
            if self.peek() != ")":
                while True:
                    args.append(self.ident())
                    if self.peek() == ",":
                        self.next()
                        continue
                    break
            self.expect(")")
            return Call(name, tuple(args))
        if t == "!":
            self.next()
            if self.peek() == "(":
                self.next()
                y = self.ident()
                self.expect(")")
                self.expect("{")
                payload = self.term()
                self.expect("}")
                self.expect(".")
                return Fork(name, y, payload, self.term1())
            tag = self.ident("tag")
            self.expect(".")
            return Select(name, tag, self.term1())
        if t == "?":
            self.next()
            self.expect("(")
            y = self.ident()
            self.expect(")")
            self.expect(".")
            return Join(name, y, self.term1())
        raise ProcessError(f"unexpected token after {name!r}: {t!r}")


def parse_program(src: str) -> Program:
    p = _P(_tokenize(src))
    type_asts = {}
    sigs_raw = {}
    defs = {}
    main = None
    while p.peek() is not None:
        t = p.peek()
        if t == "type":
            p.next()
            name = p.ident("type name")
            p.expect("=")
            if name in type_asts:
                raise ProcessError(f"duplicate type {name!r}")
            type_asts[name] = p.type_expr()
        elif t == "sig":
            p.next()
            name = p.ident("definition name")
            p.expect("(")
            params = []
            if p.peek() != ")":
                while True:
                    x = p.ident()
                    p.expect(":")
                    params.append((x, p.type_expr()))
                    if p.peek() == ",":
                        p.next()
                        continue
                    break
            p.expect(")")
            sigs_raw[name] = tuple(params)
        elif t == "def":
            p.next()
            name = p.ident("definition name")
            p.expect("(")
            params = []
            if p.peek() != ")":
                while True:
                    params.append(p.ident())
                    if p.peek() == ",":
                        p.next()
                        continue
                    break
            p.expect(")")
            p.expect("=")
            if name in defs:
                raise ProcessError(f"duplicate definition {name!r}")
            defs[name] = (tuple(params), p.term())
        else:
            if main is not None:
                raise ProcessError("more than one bare main term")
            main = p.term()

    types = ty.resolve_all(type_asts)

    def resolve_ast(ast):
        if ast[0] == "name" and ast[1] in types:
            return types[ast[1]]
        decls = dict(type_asts)
        decls["__it__"] = ast
        return ty.resolve(decls, "__it__")

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
    # only a bare chain of invocations (def A = B(...), def B = A(...)) is
    # unguarded; anything else delays the next unfolding by a real step
    for start in prog.defs:
        seen = {start}
        body = prog.defs[start][1]
        while isinstance(body, Call):
            if body.name in seen:
                raise ProcessError(f"unguarded invocation cycle through {body.name!r}")
            seen.add(body.name)
            body = prog.defs[body.name][1]
