"""Regular session types, hash-consed as nodes of one minimal store.

Every type lives in one process-wide store of nodes.  A node is a body over
other store nodes:

    ("one",)                                 terminated output side, 1
    ("bot",)                                 terminated input side
    ("plus", ((tag, measure, node), ...))    internal choice; () is the empty type 0
    ("with", ((tag, measure, node), ...))    external choice; () is the full type
    ("times", payload, cont)                 send a channel of the payload type
    ("par", payload, cont)                   receive a channel of the payload type

Branch tuples are sorted by tag.  Measures are non-negative ints and default
to 0 in the surface syntax.  The store stays minimal as nodes are added: no
two of its nodes are bisimilar.  A ``Type`` is a handle on its root node, so
two types are bisimilar exactly when their roots are the same node, and
``==`` and ``hash`` are O(1).

This is hash-consing (Filliâtre and Conchon, "Type-safe modular
hash-consing", 2006) extended to cyclic terms one strongly connected
component at a time (Mauborgne, "An incremental unique representation for
regular trees", 2000).  A node on no cycle is found or added by its body,
whose successors are store nodes already.  A cyclic component is first
refined together with the cyclic components it steps into, because a cycle
can be bisimilar to a node it reaches: ``X = +{a: X, b: E}`` is
``E = +{a: E, b: E}``.  Otherwise its minimal quotient is looked up by a
key that does not depend on how its nodes were numbered, and added if it is
not there.  The store holds nodes weakly, so it keeps alive only what some
live ``Type`` reaches, and needs no eviction.  Each node carries its dual
and the ``memo`` in which ``lts`` keeps a dict per mode and the residuals,
and this module keeps three facts of the node as a root: ``"inline"``
(``render_inline``), ``"fair"`` (``is_fairly_terminating``) and
``"first_order"`` (``is_first_order``).
New nodes are made from old ones one way, by ``_image``: ``dual`` and
``lts.derivative`` give it the image of each node they already know and the
body of each one they lack, and it interns the new bodies together.

``Type(nodes, root)`` accepts a raw table, a dict or sequence of bodies over
table ids, and settles it into the store when it is first read.
``Type.nodes`` is a view: the nodes reachable from the root, numbered
breadth-first from 0 with branches in tag order, as bodies over those
numbers.  It is built once per node, when asked for.  Rendering, JSON,
``equiv`` and fair termination read views; ``equiv`` never reads the store.
"""

from __future__ import annotations

from collections import Counter
import itertools
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


class _Node:
    """A node of the store: its body, its dual, its memo and its views.

    ``scc`` is the tuple of the nodes of its cyclic component, or None on
    no cycle.
    """

    __slots__ = ("body", "serial", "scc", "dual", "memo", "_reach", "_table", "__weakref__")

    def __init__(self, body):
        self.body, self.serial, self.memo = body, next(_SERIALS), {}
        self.scc = self.dual = self._reach = self._table = None

    def reach(self) -> tuple:
        """The nodes reachable from this one, breadth-first with branches in tag order."""
        if self._reach is None:
            order, seen = [self], {self}
            for n in order:  # grows while it is walked
                for c in _kids(n.body):
                    if c not in seen:
                        seen.add(c)
                        order.append(c)
            self._reach = tuple(order)
        return self._reach

    def table(self) -> tuple:
        """The bodies of ``reach()`` over their positions in it."""
        if self._table is None:
            order = self.reach()
            at = {n: i for i, n in enumerate(order)}
            self._table = tuple(_renamed(n.body, at) for n in order)
        return self._table


_SERIALS = itertools.count()
_STORE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()  # _key(body) -> node
_CYCLES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()  # cycle key -> first node


class Type:
    """A handle on a store node: ``node``, the root.

    A type made from a raw table keeps the table and root in ``_raw`` and
    has no ``node`` until it is first read; reading it then falls through
    to ``__getattr__``, which settles the table.
    """

    __slots__ = ("_raw", "node")
    root = 0

    def __init__(self, nodes, root: int = 0):
        self._raw = (nodes, root)

    @classmethod
    def _of(cls, node: _Node) -> "Type":
        t = cls.__new__(cls)
        t.node = node
        return t

    def __getattr__(self, name):
        if name != "node":
            raise AttributeError(name)
        self.node = _canonical_table(*self._raw)[0]
        del self._raw
        return self.node

    @property
    def nodes(self) -> tuple:
        return self.node.table()

    def kind(self, nid=0):
        return (self.node.reach()[nid] if nid else self.node).body[0]

    def body(self, nid=0):
        return self.nodes[nid]

    def at(self, nid: int) -> "Type":
        """The type of node ``nid`` of the view."""
        return self if nid == 0 else Type._of(self.node.reach()[nid])

    def size(self) -> int:
        return len(self.node.reach())

    def key(self) -> _Node:
        """The root node; the same iff bisimilar."""
        return self.node

    def __hash__(self):
        return self.node.serial

    def __eq__(self, other):
        return self is other or isinstance(other, Type) and self.node is other.node

    def __repr__(self):
        return f"Type({self.nodes!r})"


# ---------------------------------------------------------------------------
# duality / polarity


def dual(t: Type) -> Type:
    """Swap every constructor for its dual; measures and tags are untouched.

    The dual of a node is memoized both ways on every node it reaches.
    """
    node = t.node
    if node.dual is None:
        def body(b, ref):
            if b[0] in ("plus", "with"):
                return (_DUAL_KIND[b[0]], tuple((tg, m, ref(c)) for tg, m, c in b[1]))
            return (_DUAL_KIND[b[0]], *map(ref, b[1:]))

        for n, d in _image(node, lambda n: n.dual, body)[1].items():
            n.dual, d.dual = d, n
    return Type._of(node.dual)


# ---------------------------------------------------------------------------
# bisimilarity and the store


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


def _kids(b):
    """The successors of body ``b``, in branch order, payload before continuation."""
    if b[0] in ("plus", "with"):
        return [c for _, _, c in b[1]]
    return b[1:] if b[0] in ("times", "par") else ()


def _renamed(b, new):
    """Body ``b`` with every successor ``c`` replaced by ``new.get(c, c)``."""
    if b[0] in ("plus", "with"):
        return (b[0], tuple((tg, m, new.get(c, c)) for tg, m, c in b[1]))
    if b[0] in ("times", "par"):
        return (b[0], new.get(b[1], b[1]), new.get(b[2], b[2]))
    return b


def _quotient(nodes, ids) -> dict:
    """Bisimilarity classes of ``ids``: the class number of each.

    Successors outside ``ids`` are fixed, distinct nodes: store nodes, never
    bisimilar to each other.  Hopcroft's refinement (Hopcroft, "An n log n
    algorithm for minimizing states in a finite automaton", 1971; Paige and
    Tarjan, "Three partition refinement algorithms", SIAM J. Comput. 1987).
    The first partition groups nodes by constructor, tags, measures and
    outside successors.  An edge's symbol is its branch index in a choice,
    or 0 (payload) and 1 (continuation) in ``times``/``par``; every node of
    a block has the same tags, so a symbol means the same edge across a
    block.  A worklist holds splitter blocks: popping one splits every block
    by the preimage of the splitter under each symbol.  When a block splits,
    the new part is queued if the block still waits, and otherwise only the
    smaller part is: refinement by a block and by one part of it implies
    refinement by the other part.  That argument, like leaving the largest
    first block out of the worklist, holds for complete automata; ours are
    partial, but the first partition already makes every block agree on
    which edges exist, so every block is stable under the whole node set,
    which is all it needs.
    """
    members = set(ids)
    first, cls, preds = {}, {}, {}  # preds: target -> [(symbol, source)]
    for n in ids:
        b = nodes[n]
        kids = _kids(b)
        for i, c in enumerate(kids):
            if c in members:
                preds.setdefault(c, []).append((i, n))
        outside = tuple(None if c in members else c for c in kids)
        key = (b[0], tuple((tg, m) for tg, m, _ in b[1]) if b[0] in ("plus", "with") else (),
               outside)
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
    return cls


def _key(b) -> tuple:
    """A body over store nodes with their serials for them: a key that keeps no node alive."""
    if b[0] in ("plus", "with"):
        return (b[0], tuple((tg, m, c.serial) for tg, m, c in b[1]))
    if b[0] in ("times", "par"):
        return (b[0], b[1].serial, b[2].serial)
    return b


def _components(nodes, roots) -> list:
    """Strongly connected components of the raw ids reachable from ``roots``.

    Each comes after every component it reaches (Tarjan's algorithm, with an
    explicit stack).  Successors that are store nodes are not walked.
    """
    num, low, stack, done, out = {}, {}, [], set(), []
    for r in roots:
        if r in num:
            continue
        num[r] = low[r] = len(num)
        stack.append(r)
        work = [(r, iter(_kids(nodes[r])))]
        while work:
            v, kids = work[-1]
            for w in kids:
                if isinstance(w, _Node) or w in done:
                    continue
                if w not in num:
                    num[w] = low[w] = len(num)
                    stack.append(w)
                    work.append((w, iter(_kids(nodes[w]))))
                    break
                low[v] = min(low[v], num[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == num[v]:
                    comp = []
                    while not comp or comp[-1] != v:
                        comp.append(stack.pop())
                    done.update(comp)
                    out.append(comp)
    return out


def _intern(nodes, roots) -> dict:
    """Add what the raw ids reachable from ``roots`` stand for to the store.

    A raw body's successors are ids of ``nodes`` or store nodes.  Components
    are added successors first, so a node on no cycle is looked up by its
    body over store nodes.  Returns the store node of every id reached.
    """
    res = {}
    for comp in _components(nodes, roots):
        v = comp[0]
        if len(comp) == 1 and v not in _kids(nodes[v]):
            b = _renamed(nodes[v], res)
            k = _key(b)
            n = _STORE.get(k)
            if n is None:
                n = _STORE[k] = _Node(b)
            res[v] = n
        else:
            _add_cycle({v: _renamed(nodes[v], res) for v in comp}, res)
    return res


def _image(root: _Node, known, body) -> tuple:
    """The image of ``root`` under a map of store nodes, making what it lacks.

    ``known(n)`` is the image of ``n`` if it is in the store already, else
    None; ``body(b, ref)`` is the image of a node with body ``b``, over
    ``ref`` of the successors it maps.  The nodes to make are numbered as
    found, root first, then successors in branch order, and interned by one
    ``_intern``.  Returns the root's image and ``{node: image}`` of those made.
    """
    made, todo = {}, []

    def ref(n):
        img = known(n)
        if img is None:
            img = made.setdefault(n, len(todo))
            if img == len(todo):
                todo.append(n)
        return img

    top = ref(root)
    if not todo:
        return top, {}
    raw = [body(n.body, ref) for n in todo]  # todo grows while it is walked
    res = _intern(raw, [top])
    return res[top], {n: res[i] for n, i in made.items()}


def _add_cycle(bodies: dict, res: dict):
    """Put the store node of each id of a cyclic component into ``res``.

    ``bodies`` maps the component's ids to bodies over its ids and store
    nodes.  If one node of the component is bisimilar to a store node, all
    are, since each reaches every other.  When that node is in a cyclic
    component the new one reaches, the first step out of the new component
    on the way there already lands in it: so refining the new component
    together with the cyclic components it steps into finds it.  Otherwise
    the minimal quotient is isomorphic to the store component it matches,
    and ``_cycle_key`` finds that one by its key.
    """
    near = {}  # first node -> the cyclic component it heads
    for b in bodies.values():
        for c in _kids(b):
            if isinstance(c, _Node) and c.scc is not None:
                near[c.scc[0]] = c.scc
    if near or len(bodies) > 1:
        table = dict(bodies)
        for scc in near.values():
            table.update((n, n.body) for n in scc)
        cls = _quotient(table, table)
        old = {cls[n]: n for scc in near.values() for n in scc}
        if cls[next(iter(bodies))] in old:
            for v in bodies:
                res[v] = old[cls[v]]
            return
    else:  # minimal as it stands: one node stepping into no cycle
        cls = {v: v for v in bodies}
    quotient = {}
    for v, b in bodies.items():
        if cls[v] not in quotient:
            quotient[cls[v]] = _renamed(b, {c: cls[c] for c in _kids(b) if c in bodies})
    key, order = _cycle_key(quotient)
    first = _CYCLES.get(key)
    if first is None:
        new = {k: _Node(None) for k in order}
        scc = tuple(new[k] for k in order)
        for k, n in new.items():
            n.body, n.scc = _renamed(quotient[k], new), scc
            _STORE[_key(n.body)] = n
        _CYCLES[key] = scc[0]
    else:  # equal keys list the nodes of two minimal components in the same order
        new = dict(zip(order, first.scc))
    for v in bodies:
        res[v] = new[cls[v]]


def _cycle_key(bodies: dict) -> tuple:
    """A key of a minimal cyclic component that its numbering does not change.

    ``bodies`` maps ids to bodies over ids and store nodes.  The key lists
    the bodies breadth-first from a start node, with the component's nodes
    as their positions and store nodes as ``-1 - serial``.  The start is the
    node whose key is least among those with the rarest signature (its body
    with every node of the component blanked); nodes of a minimal component
    all have different keys.  Returns the key and the ids in its order.
    """
    def code(b, inner):
        out = tuple(-1 - c.serial if isinstance(c, _Node) else inner(c) for c in _kids(b))
        if b[0] in ("plus", "with"):
            return (b[0], tuple((tg, m, c) for (tg, m, _), c in zip(b[1], out)))
        return (b[0], *out)

    def from_(start):
        order, at = [start], {start: 0}

        def inner(c):
            i = at.setdefault(c, len(order))
            if i == len(order):
                order.append(c)
            return i

        key = [code(bodies[k], inner) for k in order]  # order grows while it is walked
        return tuple(key), order

    sig = {k: code(b, lambda c: 0) for k, b in bodies.items()}
    if len(sig) == 1:  # one node: its signature is its key
        return tuple(sig.values()), list(sig)
    count = Counter(sig.values())
    best = min(count, key=lambda s: (count[s], s))
    return min((from_(k) for k, s in sig.items() if s == best), key=lambda ko: ko[0])


def _canonical_table(nodes, root) -> tuple:
    """Settle a raw table: the store nodes its root reaches, root first."""
    return _intern(nodes, [root])[root].reach()


def canonicalize(t: Type) -> Type:
    """``t`` itself: every ``Type`` is a node of the minimal store already."""
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
    component of the continuation graph holds a terminated node.  The
    answer is memoized on the root, and read back when no detail is asked.
    """
    memo = t.node.memo
    if detail is None and "fair" in memo:
        return memo["fair"]
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
    memo["fair"] = len(marked) == len(nodes)
    return memo["fair"]


def is_first_order(t: Type) -> bool:
    """True iff no node of ``t`` sends or receives a channel; memoized on the root."""
    memo = t.node.memo
    if "first_order" not in memo:
        memo["first_order"] = not any(b[0] in ("times", "par") for b in t.nodes)
    return memo["first_order"]


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
    """``resolve`` of every declared name; the shared table is interned once."""
    nodes, roots = _build(decls, list(decls))
    res = _intern(nodes, roots)
    return {n: Type._of(res[r]) for n, r in zip(decls, roots)}


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
    """One-line rendition; loops fall back to node references ``%N``.  Memoized on the root."""
    memo = t.node.memo
    if "inline" in memo:
        return memo["inline"]
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
    memo["inline"] = "".join(out)
    return memo["inline"]


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
