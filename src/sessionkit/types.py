"""Regular session types as rooted finite automata.

A type is a table of nodes plus a root id.  Node bodies are plain tuples so
they hash and compare structurally:

    ("one",)                                   terminated output side, 1
    ("bot",)                                   terminated input side
    ("plus", ((tag, measure, cont_id), ...))   internal choice; () is the empty type 0
    ("with", ((tag, measure, cont_id), ...))   external choice; () is the full type
    ("times", payload_id, cont_id)             send a channel of the payload type
    ("par", payload_id, cont_id)               receive a channel of the payload type

Branch tuples are kept sorted by tag.  Measures are non-negative ints and
default to 0 in the surface syntax.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import re


class TypeError_(Exception):
    """Raised on bad surface syntax or unresolvable/unguarded definitions."""


POSITIVE = {"one", "plus", "times"}
NEGATIVE = {"bot", "with", "par"}

_DUAL_KIND = {
    "one": "bot", "bot": "one",
    "plus": "with", "with": "plus",
    "times": "par", "par": "times",
}


@dataclass
class Type:
    """A rooted automaton over the node bodies described in the module docstring."""

    nodes: dict
    root: int
    _canonical: tuple | None = field(default=None, repr=False, compare=False)

    def kind(self, nid=None):
        return self.nodes[self.root if nid is None else nid][0]

    def body(self, nid=None):
        return self.nodes[self.root if nid is None else nid]

    def is_positive(self, nid=None) -> bool:
        return self.kind(nid) in POSITIVE

    def at(self, nid: int) -> "Type":
        """The same table viewed from a different root."""
        return Type(self.nodes, nid)

    def reachable(self, *, follow_payloads: bool = True) -> list:
        """Node ids reachable from the root, in BFS order (tags sorted)."""
        seen = [self.root]
        seen_set = {self.root}
        i = 0
        while i < len(seen):
            b = self.nodes[seen[i]]
            i += 1
            succs = []
            if b[0] in ("plus", "with"):
                succs = [c for _, _, c in b[1]]
            elif b[0] in ("times", "par"):
                succs = [b[1], b[2]] if follow_payloads else [b[2]]
            for s in succs:
                if s not in seen_set:
                    seen_set.add(s)
                    seen.append(s)
        return seen

    def size(self) -> int:
        return len(self.reachable())

    def key(self) -> tuple:
        """Canonical table as a hashable value; equal iff bisimilar."""
        if self._canonical is None:
            self._canonical = _canonical_table(self)
        return self._canonical

    def __hash__(self):
        return hash(self.key())

    def __eq__(self, other):
        return isinstance(other, Type) and self.key() == other.key()


def make(nodes: dict, root: int) -> Type:
    return Type(dict(nodes), root)


def one() -> Type:
    return Type({0: ("one",)}, 0)


def bot() -> Type:
    return Type({0: ("bot",)}, 0)


# ---------------------------------------------------------------------------
# duality / polarity


def dual(t: Type) -> Type:
    """Swap every constructor for its dual; measures and tags are untouched."""
    nodes = {}
    for nid, b in t.nodes.items():
        k = _DUAL_KIND[b[0]]
        if b[0] in ("one", "bot"):
            nodes[nid] = (k,)
        elif b[0] in ("plus", "with"):
            nodes[nid] = (k, b[1])
        else:
            nodes[nid] = (k, b[1], b[2])
    return Type(nodes, t.root)


# ---------------------------------------------------------------------------
# bisimilarity and canonical form


def equiv(a: Type, b: Type) -> bool:
    """Bisimilarity with exact tag and measure matching.

    The automata are deterministic (one body per node), so a visited-pair
    walk is both sound and complete.
    """
    seen = set()
    stack = [(a.root, b.root)]
    while stack:
        x, y = stack.pop()
        if (x, y) in seen:
            continue
        seen.add((x, y))
        bx, by = a.nodes[x], b.nodes[y]
        if bx[0] != by[0]:
            return False
        if bx[0] in ("plus", "with"):
            if tuple((t, m) for t, m, _ in bx[1]) != tuple((t, m) for t, m, _ in by[1]):
                return False
            stack.extend(((cx, cy) for (_, _, cx), (_, _, cy) in zip(bx[1], by[1])))
        elif bx[0] in ("times", "par"):
            stack.append((bx[1], by[1]))
            stack.append((bx[2], by[2]))
    return True


def _canonical_table(t: Type):
    # Partition refinement down to bisimilarity classes, then renumber the
    # classes in BFS order from the root so equal tables mean equal types.
    ids = t.reachable()
    cls = {n: t.nodes[n][0] if t.nodes[n][0] in ("one", "bot")
           else (t.nodes[n][0], tuple((tg, m) for tg, m, _ in t.nodes[n][1]))
           if t.nodes[n][0] in ("plus", "with")
           else t.nodes[n][0]
           for n in ids}
    while True:
        sig = {}
        for n in ids:
            b = t.nodes[n]
            if b[0] in ("plus", "with"):
                sig[n] = (cls[n], tuple(cls[c] for _, _, c in b[1]))
            elif b[0] in ("times", "par"):
                sig[n] = (cls[n], cls[b[1]], cls[b[2]])
            else:
                sig[n] = (cls[n],)
        renum = {}
        new = {}
        for n in ids:
            new[n] = renum.setdefault(sig[n], len(renum))
        if len(set(new.values())) == len(set(cls.values())):
            cls = new
            break
        cls = new

    # BFS order over classes
    order = {}
    queue = [t.root]
    while queue:
        n = queue.pop(0)
        c = cls[n]
        if c in order:
            continue
        order[c] = len(order)
        b = t.nodes[n]
        if b[0] in ("plus", "with"):
            queue.extend(c2 for _, _, c2 in b[1])
        elif b[0] in ("times", "par"):
            queue.extend([b[1], b[2]])

    rep = {}
    for n in ids:
        rep.setdefault(order[cls[n]], n)
    table = []
    for i in range(len(order)):
        b = t.nodes[rep[i]]
        if b[0] in ("plus", "with"):
            table.append((b[0], tuple((tg, m, order[cls[c]]) for tg, m, c in b[1])))
        elif b[0] in ("times", "par"):
            table.append((b[0], order[cls[b[1]]], order[cls[b[2]]]))
        else:
            table.append(b)
    return tuple(table)


def canonicalize(t: Type) -> Type:
    """Minimal automaton, root 0, nodes in BFS order, branches tag-sorted."""
    table = t.key()
    out = Type({i: b for i, b in enumerate(table)}, 0)
    out._canonical = table
    return out


# ---------------------------------------------------------------------------
# fair termination


def is_fairly_terminating(t: Type, detail: dict | None = None) -> bool:
    """True iff every run can always still reach a terminated state.

    Computed per strongly connected component of the immediate-transition
    graph: every reachable terminal SCC must either contain a 1/bot node or be
    a transition-less singleton (the empty choices, vacuously terminating —
    these are flagged in ``detail['degenerate']``).  Payload types are checked
    as independent roots.
    """
    if detail is not None:
        detail.setdefault("degenerate", [])
        detail.setdefault("bad_scc", None)

    todo = [t.root]
    done_roots = set()
    while todo:
        root = todo.pop()
        if root in done_roots:
            continue
        done_roots.add(root)
        ids = t.at(root).reachable(follow_payloads=False)
        for n in ids:
            b = t.nodes[n]
            if b[0] in ("times", "par"):
                todo.append(b[1])
        if not _fair_component(t, ids, detail):
            return False
    return True


def _succs(t: Type, n: int) -> list:
    b = t.nodes[n]
    if b[0] in ("one", "bot"):
        return [n]
    if b[0] in ("plus", "with"):
        return [c for _, _, c in b[1]]
    return [b[2]]


def _fair_component(t: Type, ids: list, detail) -> bool:
    sccs = _tarjan(ids, lambda n: _succs(t, n))
    comp = {}
    for i, scc in enumerate(sccs):
        for n in scc:
            comp[n] = i
    for i, scc in enumerate(sccs):
        terminal = all(comp[s] == i for n in scc for s in _succs(t, n))
        if not terminal:
            continue
        if any(t.nodes[n][0] in ("one", "bot") for n in scc):
            continue
        if len(scc) == 1 and not _succs(t, scc[0]):
            if detail is not None:
                detail["degenerate"].append(scc[0])
            continue
        if detail is not None:
            detail["bad_scc"] = sorted(scc)
        return False
    return True


def _tarjan(ids, succs):
    index = {}
    low = {}
    on = set()
    stack = []
    out = []
    counter = [0]

    def visit(v):
        # iterative Tarjan to dodge recursion limits on long chains
        work = [(v, iter(succs(v)))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on.add(w)
                    work.append((w, iter(succs(w))))
                    advanced = True
                    break
                elif w in on:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    w = stack.pop()
                    on.discard(w)
                    scc.append(w)
                    if w == node:
                        break
                out.append(scc)

    for v in ids:
        if v not in index:
            visit(v)
    return out


# ---------------------------------------------------------------------------
# surface syntax

_TOKEN = re.compile(
    r"(end!|end\?)|([A-Za-z_][A-Za-z0-9_]*)|(\d+)|([+&]\{|[{}@:,.()!?=])|(#[^\n]*)"
)

_KEYWORDS = {"type"}

# Type expressions nest at most this deep (each choice branch, payload and
# continuation is one level); names give arbitrarily deep types.
MAX_NESTING = 256


def _tokenize(src: str):
    toks = []
    pos = 0
    n = len(src)
    while pos < n:
        if src[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(src, pos)
        if not m:
            raise TypeError_(f"bad character at offset {pos}: {src[pos]!r}")
        pos = m.end()
        if not m.group(5):  # comment
            toks.append(m.group(0))
    return toks


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        if self.i >= len(self.toks):
            raise TypeError_("unexpected end of input")
        self.i += 1
        return self.toks[self.i - 1]

    def expect(self, tok):
        got = self.next()
        if got != tok:
            raise TypeError_(f"expected {tok!r}, got {got!r}")
        return got

    def type_expr(self, depth=1):
        if depth > MAX_NESTING:
            raise TypeError_(f"type expression nested deeper than {MAX_NESTING} levels")
        t = self.peek()
        if t == "end!":
            self.next()
            return ("one",)
        if t == "end?":
            self.next()
            return ("bot",)
        if t in ("+{", "&{"):
            self.next()
            kind = "plus" if t == "+{" else "with"
            branches = []
            if self.peek() != "}":
                while True:
                    tag = self.next()
                    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tag or ""):
                        raise TypeError_(f"expected a tag, got {tag!r}")
                    m = 0
                    if self.peek() == "@":
                        self.next()
                        n = self.next()
                        if not n.isdigit():
                            raise TypeError_(f"expected a measure, got {n!r}")
                        m = int(n)
                    self.expect(":")
                    branches.append((tag, m, self.type_expr(depth + 1)))
                    if self.peek() == ",":
                        self.next()
                        continue
                    break
            self.expect("}")
            tags = [b[0] for b in branches]
            if len(set(tags)) != len(tags):
                raise TypeError_(f"duplicate tag in choice: {tags}")
            return (kind, tuple(sorted(branches)))
        if t in ("!", "?"):
            self.next()
            self.expect("(")
            payload = self.type_expr(depth + 1)
            self.expect(")")
            self.expect(".")
            cont = self.type_expr(depth + 1)
            return ("times" if t == "!" else "par", payload, cont)
        if t and re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", t) and t not in _KEYWORDS:
            self.next()
            return ("name", t)
        raise TypeError_(f"expected a type, got {t!r}")


def parse_decls(src: str) -> dict:
    """Parse ``type NAME = T`` declarations into an AST map (unresolved)."""
    p = _Parser(_tokenize(src))
    decls = {}
    while p.peek() is not None:
        p.expect("type")
        name = p.next()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name or "") or name in _KEYWORDS:
            raise TypeError_(f"bad type name {name!r}")
        if name in decls:
            raise TypeError_(f"duplicate declaration of {name!r}")
        p.expect("=")
        decls[name] = p.type_expr()
    return decls


def resolve(decls: dict, name: str) -> Type:
    """Build the automaton for ``name``, rejecting unguarded alias cycles."""
    if name not in decls:
        raise TypeError_(f"unknown type name {name!r}")
    shells = {}  # node id -> (constructor AST, child ids filled in later)
    name_node = {}

    def alias_target(n):
        # follow bare-name chains; a cycle means an unguarded definition
        trail = set()
        while True:
            if n in trail:
                raise TypeError_(f"unguarded cycle through type name {n!r}")
            if n not in decls:
                raise TypeError_(f"unknown type name {n!r}")
            if decls[n][0] != "name":
                return n
            trail.add(n)
            n = decls[n][1]

    # Depth-first, children left to right: node ids and the first error
    # reported are those of a recursive descent.  Each entry fills one slot.
    root = [None]
    stack = [(root, 0, ("name", name))]
    while stack:
        slot, i, ast = stack.pop()
        if ast[0] == "name":
            n = alias_target(ast[1])
            if n in name_node:  # loops tie back to the name's node
                slot[i] = name_node[n]
                continue
            name_node[n] = len(shells)
            ast = decls[n]
        nid = slot[i] = len(shells)
        subs = ([sub for _, _, sub in ast[1]] if ast[0] in ("plus", "with")
                else list(ast[1:]) if ast[0] in ("times", "par") else [])
        kids = [None] * len(subs)
        shells[nid] = (ast, kids)
        stack.extend((kids, j, sub) for j, sub in reversed(list(enumerate(subs))))
    nodes = {}
    for nid, (ast, kids) in shells.items():
        if ast[0] in ("plus", "with"):
            nodes[nid] = (ast[0], tuple((tg, m, c) for (tg, m, _), c in zip(ast[1], kids)))
        elif ast[0] in ("times", "par"):
            nodes[nid] = (ast[0], *kids)
        else:
            nodes[nid] = ast
    return canonicalize(Type(nodes, root[0]))


def parse_type(src: str, name: str | None = None) -> Type:
    """Parse declarations and resolve one of them (the first, by default)."""
    decls = parse_decls(src)
    if not decls:
        raise TypeError_("no declarations found")
    return resolve(decls, name if name is not None else next(iter(decls)))


def parse_expr(src: str, env: dict | None = None) -> Type:
    """Parse a bare type expression, optionally against existing declarations."""
    decls = dict(env or {})
    p = _Parser(_tokenize(src))
    ast = p.type_expr()
    if p.peek() is not None:
        raise TypeError_(f"trailing input: {p.peek()!r}")
    decls["__it__"] = ast
    return resolve(decls, "__it__")


# ---------------------------------------------------------------------------
# rendering


def render(t: Type, name: str = "T") -> str:
    """Declarations that parse back to a bisimilar type (one per shared node)."""
    t = canonicalize(t)
    ids = t.reachable()
    label = {n: (name if n == t.root else f"{name}{n}") for n in ids}
    lines = [f"type {label[n]} = {_render_body(t, n, label)}" for n in ids]
    return "\n".join(lines)


def _render_body(t: Type, n: int, label) -> str:
    b = t.nodes[n]
    if b[0] == "one":
        return "end!"
    if b[0] == "bot":
        return "end?"
    if b[0] in ("plus", "with"):
        open_ = "+{" if b[0] == "plus" else "&{"
        parts = []
        for tg, m, c in b[1]:
            at = f"@{m}" if m else ""
            parts.append(f"{tg}{at}: {label[c]}")
        return open_ + " " + ", ".join(parts) + " }" if parts else open_ + "}"
    op = "!" if b[0] == "times" else "?"
    return f"{op}({label[b[1]]}) . {label[b[2]]}"


def render_inline(t: Type) -> str:
    """One-line rendition; loops fall back to node references ``%N``."""
    t = canonicalize(t)

    def go(n, trail):
        if n in trail:
            return f"%{n}"
        b = t.nodes[n]
        if b[0] == "one":
            return "end!"
        if b[0] == "bot":
            return "end?"
        if b[0] in ("plus", "with"):
            open_ = "+{" if b[0] == "plus" else "&{"
            inner = ", ".join(
                f"{tg}{f'@{m}' if m else ''}: {go(c, trail | {n})}" for tg, m, c in b[1]
            )
            return open_ + inner + "}"
        op = "!" if b[0] == "times" else "?"
        return f"{op}({go(b[1], trail | {n})}).{go(b[2], trail | {n})}"

    return go(t.root, frozenset())


def to_json(t: Type) -> dict:
    t = canonicalize(t)
    return {"root": 0, "nodes": [list(_json_body(b)) for b in (t.nodes[i] for i in range(len(t.nodes)))]}


def _json_body(b):
    if b[0] in ("plus", "with"):
        return (b[0], [list(x) for x in b[1]])
    return b


def from_json(d: dict) -> Type:
    nodes = {}
    for i, b in enumerate(d["nodes"]):
        if b[0] in ("plus", "with"):
            nodes[i] = (b[0], tuple(sorted((t, m, c) for t, m, c in b[1])))
        elif b[0] in ("times", "par"):
            nodes[i] = (b[0], b[1], b[2])
        else:
            nodes[i] = (b[0],)
    return Type(nodes, d.get("root", 0))
