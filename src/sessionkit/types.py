"""Regular session types as rooted finite automata.

A ``Type`` is always its minimal automaton: ``nodes`` is a tuple of node
bodies with the root at 0, one node per bisimilarity class, numbered
breadth-first from the root with branches in tag order.  So two types are
bisimilar exactly when their ``nodes`` are equal, and ``==`` and ``hash``
compare those tables.  ``Type(nodes, root)`` accepts any raw table (a dict or
sequence of bodies) and does no work until it is first read.

Minimal types are hash-consed (Filliâtre and Conchon, "Type-safe modular
hash-consing", 2006): the first read of ``nodes``, ``hash`` or ``memo``
settles a type by minimizing its table, and the first type settled on a
table is interned.  Every bisimilar type settled while it lives shares its
``nodes`` tuple, its hash and its ``memo``, the dict in which ``lts`` keeps
enabledness, derivatives and labels.  The intern map holds types weakly, so
it keeps nothing alive and needs no eviction.

Node bodies are plain tuples so they hash and compare structurally:

    ("one",)                                   terminated output side, 1
    ("bot",)                                   terminated input side
    ("plus", ((tag, measure, cont_id), ...))   internal choice; () is the empty type 0
    ("with", ((tag, measure, cont_id), ...))   external choice; () is the full type
    ("times", payload_id, cont_id)             send a channel of the payload type
    ("par", payload_id, cont_id)               receive a channel of the payload type

Branch tuples are kept sorted by tag, in raw tables too.  Measures are
non-negative ints and default to 0 in the surface syntax.
"""

from __future__ import annotations

import re
import weakref


class TypeError_(Exception):
    """Raised on bad surface syntax or unresolvable/unguarded definitions."""


POSITIVE = {"one", "plus", "times"}

_DUAL_KIND = {
    "one": "bot", "bot": "one",
    "plus": "with", "with": "plus",
    "times": "par", "par": "times",
}


class Type:
    """A rooted automaton over the node bodies described in the module docstring.

    ``_raw`` holds the raw table and root until the type settles.  Then the
    type either becomes the interned one, or adopts the interned type's
    ``nodes``, hash and memo and keeps it in ``_raw``, so that the interned
    type lives as long as any type that shares its memo.
    """

    __slots__ = ("_raw", "_nodes", "_hash", "_memo", "__weakref__")
    root = 0

    def __init__(self, nodes, root: int = 0):
        self._raw, self._nodes = (nodes, root), None

    @classmethod
    def _minimal(cls, table: tuple) -> "Type":
        """The interned type over a table that is already minimal and numbered."""
        t = _INTERNED.get(table)
        if t is None:
            t = cls.__new__(cls)
            t._settle(table)
        return t

    def _settle(self, table: tuple | None = None):
        """Intern this type on its minimal table, or share the interned type's fields."""
        if table is None:
            table = _canonical_table(*self._raw)
        t = _INTERNED.setdefault(table, self)
        if t is self:
            self._raw, self._nodes, self._hash, self._memo = None, table, hash(table), {}
        else:
            self._raw, self._nodes, self._hash, self._memo = t, t._nodes, t._hash, t._memo

    @property
    def nodes(self) -> tuple:
        if self._nodes is None:
            self._settle()
        return self._nodes

    @property
    def memo(self) -> dict:
        """Results computed on this type, shared by every bisimilar type."""
        if self._nodes is None:
            self._settle()
        return self._memo

    def kind(self, nid=0):
        return self.nodes[nid][0]

    def body(self, nid=0):
        return self.nodes[nid]

    def is_positive(self, nid=0) -> bool:
        return self.kind(nid) in POSITIVE

    def at(self, nid: int) -> "Type":
        """The type of node ``nid``: part of a minimal automaton is minimal."""
        return self if nid == 0 else Type._minimal(_bfs_table(self.nodes, nid))

    def size(self) -> int:
        return len(self.nodes)

    def key(self) -> tuple:
        """The minimal table; equal iff bisimilar."""
        return self.nodes

    def __hash__(self):
        if self._nodes is None:
            self._settle()
        return self._hash

    def __eq__(self, other):
        # bisimilar types alive together share one ``nodes`` tuple; the table
        # compare is the fallback for a copy that never went through the map
        if self is other:
            return True
        if not isinstance(other, Type):
            return False
        a, b = self.nodes, other.nodes
        return a is b or (self._hash == other._hash and a == b)

    def __repr__(self):
        return f"Type({self.nodes!r})"


# minimal table -> the interned type over it
_INTERNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


# ---------------------------------------------------------------------------
# duality / polarity


def dual(t: Type) -> Type:
    """Swap every constructor for its dual; measures and tags are untouched.

    Duality keeps both the bisimilarity classes and the BFS order, so the
    swapped table is minimal as it stands.
    """
    return Type._minimal(tuple((_DUAL_KIND[b[0]], *b[1:]) for b in t.nodes))


# ---------------------------------------------------------------------------
# bisimilarity and canonical form


def equiv(a: Type, b: Type) -> bool:
    """Bisimilarity with exact tag and measure matching.

    The automata are deterministic (one body per node), so a visited-pair
    walk is both sound and complete.  It is the independent check of ``==``.
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


def _reachable(nodes, root) -> list:
    """Node ids reachable from ``root``, in BFS order (tags sorted)."""
    order, seen = [root], {root}
    for n in order:  # grows while it is walked
        b = nodes[n]
        kids = ((c for _, _, c in b[1]) if b[0] in ("plus", "with")
                else b[1:] if b[0] in ("times", "par") else ())
        for c in kids:
            if c not in seen:
                seen.add(c)
                order.append(c)
    return order


def _renamed(b, new):
    """Body ``b`` with every successor id ``c`` replaced by ``new[c]``."""
    if b[0] in ("plus", "with"):
        return (b[0], tuple((tg, m, new[c]) for tg, m, c in b[1]))
    if b[0] in ("times", "par"):
        return (b[0], new[b[1]], new[b[2]])
    return b


def _bfs_table(nodes, root) -> tuple:
    """The nodes reachable from ``root`` renumbered in BFS order, root 0."""
    order = {n: i for i, n in enumerate(_reachable(nodes, root))}
    return tuple(_renamed(nodes[n], order) for n in order)


def _quotient(nodes, ids) -> tuple[dict, dict]:
    """Bisimilarity classes of ``ids``, a set closed under successors.

    Returns the class of each node and the quotient table over the classes;
    class ids are arbitrary, since callers renumber with ``_bfs_table``.

    Hopcroft's refinement (Hopcroft, "An n log n algorithm for minimizing
    states in a finite automaton", 1971; Paige and Tarjan, "Three partition
    refinement algorithms", SIAM J. Comput. 1987).  The first partition
    groups nodes by constructor, tags and measures.  An edge's symbol is its
    branch index in a choice, or 0 (payload) and 1 (continuation) in
    ``times``/``par``; every node of a block has the same tags, so a symbol
    means the same edge across a block.  A worklist holds splitter blocks:
    popping one splits every block by the preimage of the splitter under
    each symbol.  When a block splits, the new part is queued if the block
    still waits, and otherwise only the smaller part is: refinement by a
    block and by one part of it implies refinement by the other part.  That
    argument, like leaving the largest first block out of the worklist,
    holds for complete automata; ours are partial, but the first partition
    already makes every block agree on which edges exist, so every block is
    stable under the whole node set, which is all it needs.
    """
    first, cls, preds = {}, {}, {}  # preds: target -> [(symbol, source)]
    for n in ids:
        b = nodes[n]
        if b[0] in ("plus", "with"):
            key = (b[0], tuple((tg, m) for tg, m, _ in b[1]))
            for i, (_, _, c) in enumerate(b[1]):
                preds.setdefault(c, []).append((i, n))
        else:
            key = b[0]
            if key in ("times", "par"):
                preds.setdefault(b[1], []).append((0, n))
                preds.setdefault(b[2], []).append((1, n))
        cls[n] = first.setdefault(key, len(first))
    if len(first) < len(cls):
        blocks = [set() for _ in first]
        for n, c in cls.items():
            blocks[c].add(n)
        waiting = set(range(len(blocks)))
        waiting.remove(max(waiting, key=lambda i: len(blocks[i])))
        while waiting and len(blocks) < len(cls):
            pre = {}  # symbol -> sources with that edge into the splitter
            for t in blocks[waiting.pop()]:
                for sym, src in preds.get(t, ()):
                    pre.setdefault(sym, []).append(src)
            for srcs in pre.values():
                touched = {}
                for src in srcs:
                    touched.setdefault(cls[src], set()).add(src)
                for y, part in touched.items():
                    rest = blocks[y]
                    if len(part) == len(rest):
                        continue
                    rest -= part
                    new = len(blocks)
                    blocks.append(part)
                    for n in part:
                        cls[n] = new
                    waiting.add(new if y in waiting or len(part) <= len(rest) else y)
    table = {}
    for n in ids:
        if cls[n] not in table:
            table[cls[n]] = _renamed(nodes[n], cls)
    return cls, table


def _canonical_table(nodes, root) -> tuple:
    """The minimal automaton of a raw table from ``root``, numbered in BFS order."""
    cls, table = _quotient(nodes, _reachable(nodes, root))
    return _bfs_table(table, cls[root])


def canonicalize(t: Type) -> Type:
    """``t`` itself: every ``Type`` is its minimal automaton already."""
    return t


# ---------------------------------------------------------------------------
# fair termination


def is_fairly_terminating(t: Type, detail: dict | None = None) -> bool:
    """True iff every run can always still reach a terminated state.

    A node is terminated if it is 1/bot, or a choice with no branches: 0 and
    ⊤ have no maximal runs, so they terminate vacuously, and they are listed
    in ``detail['degenerate']``.  One backward search over continuation
    edges, seeded with the terminated nodes, must mark every node reachable
    from the root, payload types included; in a minimal table that is every
    node.  That holds exactly when every terminal strongly connected
    component of the continuation graph holds a terminated node.
    """
    nodes = t.nodes
    preds = [[] for _ in nodes]
    done = []
    for n, b in enumerate(nodes):
        if b[0] in ("times", "par"):
            preds[b[2]].append(n)
        elif b[0] in ("one", "bot") or not b[1]:
            done.append(n)
        else:
            for _, _, c in b[1]:
                preds[c].append(n)
    if detail is not None:
        detail.setdefault("degenerate", []).extend(
            n for n in done if nodes[n][0] in ("plus", "with"))
    marked = set(done)
    for n in done:  # grows while it is walked
        for p in preds[n]:
            if p not in marked:
                marked.add(p)
                done.append(p)
    return len(marked) == len(nodes)


# ---------------------------------------------------------------------------
# surface syntax

# One token set for type declarations, programs and labels.  Each match skips
# whitespace and comments, then takes one token: group 1 punctuation (with
# end! and end?), 2 a word (name, tag or keyword), 3 a measure, 4 a character
# no token starts with.  It matches empty only at the end of the text.
_TOKEN = re.compile(r"""(?:\s|\#[^\n]*)*
    (?: (end[!?]|\(\+\)|\|\||><|[+&]\{|[{}()@:,.!?=*])
      | ([A-Za-z_][A-Za-z0-9_]*)
      | (\d+)
      | (.)
      | \Z )""", re.X | re.S)
_WORD, _NUMBER, _BAD = 2, 3, 4

_KEYWORDS = {"type"}

# Types and programs nest at most this deep (each choice branch, payload,
# continuation, prefix, body and parenthesis is one level); names give
# arbitrarily deep types and definitions arbitrarily long runs.
MAX_NESTING = 256


def _where(src: str, off: int) -> str:
    """``(line L, col C)`` of offset ``off``, both counted from 1."""
    line = src.count("\n", 0, off) + 1
    col = off - src.rfind("\n", 0, off)
    return f"(line {line}, col {col})"


class Cursor:
    """The tokens of one source text and a position in them.

    ``error`` is the exception class for lexing errors and for the caller's
    grammar; the type grammar always raises ``TypeError_``.  Every error ends
    with the line and column of the offending token.
    """

    def __init__(self, src: str, error=TypeError_):
        self.src, self.error = src, error
        toks, kinds, offs = [], [], []
        for m in _TOKEN.finditer(src):
            k = m.lastindex
            if k is None:
                break
            off = m.start(k)
            if k == _BAD:
                raise error(f"bad character at offset {off}: {src[off]!r} {_where(src, off)}")
            toks.append(m.group(k))
            kinds.append(k)
            offs.append(off)
        # a None token marks the end; its offset is the end of the text
        self.toks, self.kinds, self.offs = toks + [None], kinds + [None], offs + [len(src)]
        self.i = 0
        self.depth = 0

    def fail(self, msg: str, at: int | None = None):
        """Raise ``msg`` located at token ``at`` (the current one by default)."""
        raise self.error(f"{msg} {_where(self.src, self.offs[self.i if at is None else at])}")

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        if t is None:
            self.fail("unexpected end of input")
        self.i += 1
        return t

    def expect(self, tok):
        got = self.next()
        if got != tok:
            self.fail(f"expected {tok!r}, got {got!r}", self.i - 1)

    def ident(self, what: str, keywords=()):
        t = self.next()
        if self.kinds[self.i - 1] != _WORD or t in keywords:
            self.fail(f"expected {what}, got {t!r}", self.i - 1)
        return t

    def end(self):
        if self.peek() is not None:
            self.fail(f"trailing input: {self.peek()!r}")

    def enter(self, what: str):
        """One nesting level deeper; the caller takes ``depth`` back down."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"{what} nested deeper than {MAX_NESTING} levels")

    def commas(self, item, close: str, duplicate: str | None = None) -> list:
        """``item(self), item(self), ...`` up to the token ``close``, possibly none.

        With ``duplicate``, items are tuples keyed by their first element and
        a repeated key is an error with that text.
        """
        out, starts = [], []
        if self.peek() != close:
            while True:
                starts.append(self.i)
                out.append(item(self))
                if self.peek() != ",":
                    break
                self.next()
        self.expect(close)
        if duplicate:
            keys, seen = [it[0] for it in out], set()
            for k, at in zip(keys, starts):
                if k in seen:
                    self.fail(f"{duplicate}: {keys}", at)
                seen.add(k)
        return out

    def tag(self) -> tuple:
        """``tag`` or ``tag@measure``, as (tag, measure)."""
        tag = self.ident("a tag")
        m = 0
        if self.peek() == "@":
            self.next()
            n = self.next()
            if self.kinds[self.i - 1] != _NUMBER:
                self.fail(f"expected a measure, got {n!r}", self.i - 1)
            m = int(n)
        return tag, m

    def type_expr(self):
        """The AST of a type expression; its errors are ``TypeError_``."""
        error, self.error = self.error, TypeError_
        ast = self._type()
        self.error = error
        return ast

    def _branch(self):
        tag, m = self.tag()
        self.expect(":")
        return tag, m, self._type()

    def _type(self):
        self.enter("type expression")
        t = self.peek()
        if t == "end!":
            self.next()
            ast = ("one",)
        elif t == "end?":
            self.next()
            ast = ("bot",)
        elif t in ("+{", "&{"):
            self.next()
            branches = self.commas(Cursor._branch, "}", "duplicate tag in choice")
            ast = ("plus" if t == "+{" else "with", tuple(sorted(branches)))
        elif t in ("!", "?"):
            self.next()
            self.expect("(")
            payload = self._type()
            self.expect(")")
            self.expect(".")
            ast = ("times" if t == "!" else "par", payload, self._type())
        elif self.kinds[self.i] == _WORD and t not in _KEYWORDS:
            self.next()
            ast = ("name", t)
        else:
            self.fail(f"expected a type, got {t!r}")
        self.depth -= 1
        return ast

    def decl(self, decls: dict, keywords):
        """``type NAME = T``, added to ``decls``; ``keywords`` are not names."""
        self.expect("type")
        name = self.ident("type name", keywords)
        if name in decls:
            self.fail(f"duplicate type {name!r}", self.i - 1)
        self.expect("=")
        decls[name] = self.type_expr()


def parse_decls(src: str) -> dict:
    """Parse ``type NAME = T`` declarations into an AST map (unresolved)."""
    c = Cursor(src)
    decls = {}
    while c.peek() is not None:
        c.decl(decls, _KEYWORDS)
    return decls


def _build(decls: dict, names: list) -> tuple[dict, list]:
    """One raw table for ``names``, sharing nodes, and the node of each name.

    Rejects unknown names and unguarded alias cycles.
    """
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

    # Depth-first, children left to right, names in order: node ids and the
    # first error reported are those of a recursive descent from each name
    # in turn.  Each entry fills one slot.
    roots = [None] * len(names)
    stack = [(roots, i, ("name", n)) for i, n in reversed(list(enumerate(names)))]
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
    return nodes, roots


def resolve(decls: dict, name: str) -> Type:
    """Build the automaton for ``name``, rejecting unguarded alias cycles."""
    nodes, (root,) = _build(decls, [name])
    return Type(nodes, root)


def resolve_all(decls: dict) -> dict:
    """``resolve`` of every declared name; the shared table is minimized once."""
    nodes, roots = _build(decls, list(decls))
    cls, table = _quotient(nodes, list(nodes))
    return {n: Type._minimal(_bfs_table(table, cls[r])) for n, r in zip(decls, roots)}


def parse_type(src: str, name: str | None = None) -> Type:
    """Parse declarations and resolve one of them (the first, by default)."""
    decls = parse_decls(src)
    if not decls:
        raise TypeError_("no declarations found")
    return resolve(decls, name if name is not None else next(iter(decls)))


def parse_expr(src: str, env: dict | None = None) -> Type:
    """Parse a bare type expression, optionally against existing declarations."""
    c = Cursor(src)
    ast = c.type_expr()
    c.end()
    return resolve_expr(ast, env)


def resolve_expr(ast, decls: dict | None = None) -> Type:
    """The type of an expression's AST over the declarations ``decls``."""
    return resolve({**(decls or {}), "__it__": ast}, "__it__")


# ---------------------------------------------------------------------------
# rendering


def render(t: Type, name: str = "T") -> str:
    """Declarations that parse back to a bisimilar type (one per shared node)."""
    label = [name] + [f"{name}{n}" for n in range(1, t.size())]
    return "\n".join(f"type {label[n]} = {_render_body(b, label)}"
                     for n, b in enumerate(t.nodes))


def _render_body(b, label) -> str:
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
    # An explicit stack of text, nodes to render and ("leave", node) marks,
    # so deep types render without recursion.
    out, path, todo = [], set(), [0]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, tuple):
            path.discard(item[1])
        elif item in path:
            out.append(f"%{item}")
        else:
            b = t.nodes[item]
            if b[0] in ("one", "bot"):
                out.append("end!" if b[0] == "one" else "end?")
                continue
            path.add(item)
            if b[0] in ("plus", "with"):
                parts = ["+{" if b[0] == "plus" else "&{"]
                for i, (tg, m, c) in enumerate(b[1]):
                    parts += [f"{', ' if i else ''}{tg}{f'@{m}' if m else ''}: ", c]
                parts.append("}")
            else:
                parts = ["!(" if b[0] == "times" else "?(", b[1], ").", b[2]]
            todo.append(("leave", item))
            todo.extend(reversed(parts))
    return "".join(out)


def to_json(t: Type) -> dict:
    return {"root": 0, "nodes": [list(_json_body(b)) for b in t.nodes]}


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
