"""Expression trees for elementary functions of one variable.

The expression language covers rational constants, the constant pi, symbols,
negation, sums, products, quotients, integer powers and a fixed set of
function heads.  Expressions form a hash-consed DAG: each node is interned
on (kind, args, value), so structurally equal expressions are one object,
equality is identity and a shared subterm is stored once.  Nodes are
immutable and hash by identity (which is what ``==`` means).  Every pass
over the DAG is a loop over one walk, ``postorder``, which keeps its own
stack.  A result that depends on the node alone lives in a slot on the
node, filled bottom-up by ``fill``: ``fold``, ``to_text``,
``free_symbols``, and ``trigpoly``'s ``split_rational`` and term
expansion.  A leaf, and a node that a folding constructor (``neg``,
``add``, ``mul``, ``div``, ``ipow``, ``func``) builds over folded
arguments, is born with its fold slot filled: it is a fixed point of
``fold``, since none of its constructor's rules applied.  So ``fold``
walks only what the parser or a raw ``Expr(...)`` built.  A pass whose
result also depends on its call's arguments keeps one dict per call.
Numeric evaluation compiles the walk once per call into a program that it
runs at each point (``trigsum.evaluate``).  Either way a distinct node is
worked on once.  No slot, memo or program holds a cycle back to its own
node, so a dropped DAG is freed at once, without the garbage collector.
Copies are the node itself, and a pickle holds the DAG as flat rows, so
neither recurses.  Parsing inverts printing:
``parse_expr(to_text(e)) is e``.  The intern table is an implementation
detail that callers never see: a plain dict from key to a weak reference to
the node.  A hit takes no lock and a miss inserts under one after looking
again, so threads building equal expressions get one node.  A dead node's
reference callback removes its key without the lock (a node can die in a
thread that holds it), and only while the key still maps to a dead
reference, in one atomic step, so it never evicts a newer live node.  A
memo slot only ever receives the value every thread would compute.

Numeric evaluation lives in ``trigsum.evaluate``, the module that imports
mpmath; ``eval_real``, ``eval_complex`` and ``ComplexVal`` resolve from it
on first use (PEP 562), so that building, parsing and printing expressions
never load mpmath.
"""

from __future__ import annotations

import math
import threading
import weakref
from _weakref import _remove_dead_weakref
from fractions import Fraction
from typing import Mapping, Union

__all__ = [
    "Expr",
    "ExprError",
    "ParseError",
    "EvalError",
    "DomainError",
    "PoleError",
    "BranchCutError",
    "UnboundSymbolError",
    "FUNCTIONS",
    "PI",
    "ZERO",
    "ONE",
    "rational",
    "symbol",
    "neg",
    "add",
    "sub",
    "mul",
    "div",
    "ipow",
    "func",
    "parse_expr",
    "to_text",
    "substitute",
    "fold",
    "free_symbols",
    "postorder",
    "fill",
    "eval_real",
    "eval_complex",
    "ComplexVal",
]

# Function heads admitted by the grammar.  tanh/artanh/arcoth occur only in
# operator images, never as operator operands.
FUNCTIONS = (
    "exp", "ln", "sin", "cos", "tan", "cot", "sec", "csc",
    "sinh", "cosh", "tanh", "arctan", "arccot", "artanh", "arcoth", "sqrt",
)

class ExprError(Exception):
    pass


class ParseError(ExprError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class EvalError(ExprError):
    pass


class DomainError(EvalError):
    pass


class PoleError(EvalError):
    pass


class BranchCutError(EvalError):
    pass


class UnboundSymbolError(EvalError):
    pass


class _Ref(weakref.ref):
    """The intern table's weak reference to a node, carrying the node's key."""
    __slots__ = ("key",)


_INTERN: "dict[tuple, _Ref]" = {}
_INTERN_LOCK = threading.Lock()
_set = object.__setattr__


def _forget(ref: _Ref, drop=_remove_dead_weakref, table=_INTERN) -> None:
    # deletes ref's key only if it still maps to a dead reference, as one C
    # call, so a newer live node under the key stays; the names are bound
    # here so that the callback still works while the interpreter shuts down
    drop(table, ref.key)


class Expr:
    """One node of an expression DAG.

    kind is one of "rat", "pi", "sym", "neg", "add", "mul", "div", "pow",
    "call".  ``value`` carries the Fraction payload of "rat", the name of a
    "sym", the integer exponent of "pow" or the function name of "call".
    ``Expr(kind, args, value)`` returns the one node with that structure
    (keyed with the value's type, so Fraction(1), 1 and True differ);
    ``==`` and ``hash`` are object identity, inherited from object.
    """

    __slots__ = ("kind", "args", "value", "_fold", "_text", "_free", "_split",
                 "_terms", "__weakref__")

    def __new__(cls, kind: str, args: tuple = (), value: object = None):
        key = (kind, args, type(value), value)
        ref = _INTERN.get(key)
        node = None if ref is None else ref()
        if node is None:
            with _INTERN_LOCK:
                ref = _INTERN.get(key)
                node = None if ref is None else ref()
                if node is None:
                    node = object.__new__(cls)
                    _set(node, "kind", kind)
                    _set(node, "args", args)
                    _set(node, "value", value)
                    _set(node, "_fold", None if args else True)   # a leaf is folded
                    _set(node, "_text", None)
                    _set(node, "_free", None)
                    _set(node, "_split", None)   # trigpoly.split_rational's memo
                    _set(node, "_terms", None)   # trigpoly's term expansion
                    ref = _Ref(node, _forget)
                    ref.key = key
                    _INTERN[key] = ref
        return node

    def __setattr__(self, name, value):
        raise AttributeError("Expr nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError("Expr nodes are immutable")

    def __copy__(self):         # immutable and interned: a copy is the node
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):       # pickle: the DAG as flat rows, children first
        index, rows = {}, []
        for x in postorder((self,)):
            index[x] = len(rows)
            rows.append((x.kind, tuple(index[a] for a in x.args), x.value))
        return _from_rows, (rows,)

    def __str__(self) -> str:
        return to_text(self)

    def __repr__(self) -> str:
        return f"Expr({to_text(self)!r})"


def _from_rows(rows) -> Expr:
    """The node that ``Expr.__reduce__`` flattened into rows (kind, argument
    indices, value), rebuilt through the intern table; the last row is the
    root."""
    nodes = []
    for kind, args, value in rows:
        nodes.append(Expr(kind, tuple(nodes[i] for i in args), value))
    return nodes[-1]


# ---------------------------------------------------------------------------
# the one walk

def postorder(roots, stop=None, marked: bool = False):
    """Yield each distinct node reachable from the sequence ``roots`` once,
    children before parents, left to right, but a quotient's denominator
    before its numerator; a node where ``stop(node)`` is true comes without
    its children.  With ``marked``, a quotient also comes as the 1-tuple
    ``(node,)`` between its denominator's nodes and its numerator's."""
    seen, path, pending = set(), [], [iter(roots)]  # path: the nodes entered
    while pending:
        for node in pending[-1]:
            if marked and node.__class__ is tuple:     # a quotient's mark
                yield node
            elif node not in seen:
                seen.add(node)
                args = node.args
                if args and not (stop and stop(node)):
                    if node.kind == "div":
                        args = (args[1], (node,), args[0]) if marked else args[::-1]
                    path.append(node)
                    pending.append(iter(args))
                    break
                yield node
        else:
            pending.pop()
            if path:
                yield path.pop()


def fill(e: Expr, slot: str, make, kinds=None):
    """The value of ``slot`` on ``e``, set where empty to ``make(node)`` on
    each node below e, children first; the walk stops at a filled slot and
    at a kind not in ``kinds`` (default: all; e's own is one of them)."""
    get = _SLOTS[slot]
    if get(e) is None:
        stop = get if kinds is None else lambda x: x.kind not in kinds or get(x)
        for x in (e,) if all(map(stop, e.args)) else postorder((e,), stop):
            if get(x) is None and (kinds is None or x.kind in kinds):
                _set(x, slot, make(x))
    return get(e)


_SLOTS = {s: getattr(Expr, s).__get__   # true once filled, bar an empty frozenset
          for s in ("_fold", "_text", "_free", "_split", "_terms")}


# ---------------------------------------------------------------------------
# leaves; the parser builds inner nodes unfolded, as Expr(kind, args, value)

PI = Expr("pi")
ZERO = Expr("rat", value=Fraction(0))
ONE = Expr("rat", value=Fraction(1))


def rational(p: Union[int, Fraction], q: int = 1) -> Expr:
    return Expr("rat", value=Fraction(p, q))


def symbol(name: str) -> Expr:
    return Expr("sym", value=name)


# ---------------------------------------------------------------------------
# folding constructors (light, deterministic simplification)

def is_rat(e: Expr) -> bool:
    return e.kind == "rat"


def rat_value(e: Expr) -> Fraction:
    assert e.kind == "rat"
    return e.value  # type: ignore[return-value]


def is_zero(e: Expr) -> bool:
    return e is ZERO


def is_one(e: Expr) -> bool:
    return e is ONE


def _built(kind: str, args: tuple, value: object = None) -> Expr:
    """A folding constructor's node once none of its rules applied; over
    folded args (one or two, so the first and the last) it is a fold fixed
    point, and its slot says so."""
    node = Expr(kind, args, value)
    if node._fold is None and args[0]._fold is True and args[-1]._fold is True:
        _set(node, "_fold", True)
    return node


def neg(a: Expr) -> Expr:
    if is_rat(a):
        return rational(-rat_value(a))
    if a.kind == "neg":
        return a.args[0]
    return _built("neg", (a,))


def add(a: Expr, b: Expr) -> Expr:
    if is_rat(a) and is_rat(b):
        return rational(rat_value(a) + rat_value(b))
    if is_zero(a):
        return b
    if is_zero(b):
        return a
    return _built("add", (a, b))


def sub(a: Expr, b: Expr) -> Expr:
    return add(a, neg(b))


def mul(a: Expr, b: Expr) -> Expr:
    if is_rat(a) and is_rat(b):
        return rational(rat_value(a) * rat_value(b))
    if is_zero(a) or is_zero(b):
        return ZERO
    if is_one(a):
        return b
    if is_one(b):
        return a
    return _built("mul", (a, b))


def div(a: Expr, b: Expr) -> Expr:
    if is_rat(b):
        if rat_value(b) == 0:
            raise ExprError("quotient with constant zero denominator")
        if is_rat(a):
            return rational(rat_value(a) / rat_value(b))
        # canonical form: division by a rational becomes a scalar multiple
        return mul(rational(1 / rat_value(b)), a)
    return _built("div", (a, b))


def ipow(a: Expr, n: int) -> Expr:
    n = int(n)
    if n == 0:
        return ONE
    if n == 1:
        return a
    if is_rat(a):
        v = rat_value(a)
        if v == 0 and n < 0:
            raise ExprError("zero to a negative power")
        return rational(v ** n)
    return _built("pow", (a,), n)


_EXACT_CALLS = {
    ("exp", Fraction(0)): ONE,
    ("ln", Fraction(1)): ZERO,
    ("sin", Fraction(0)): ZERO,
    ("cos", Fraction(0)): ONE,
    ("tan", Fraction(0)): ZERO,
    ("sinh", Fraction(0)): ZERO,
    ("cosh", Fraction(0)): ONE,
    ("tanh", Fraction(0)): ZERO,
    ("arctan", Fraction(0)): ZERO,
    ("artanh", Fraction(0)): ZERO,
    ("sqrt", Fraction(0)): ZERO,
    ("sqrt", Fraction(1)): ONE,
}


_ODD_HEADS = ("sin", "tan", "cot", "csc", "sinh", "tanh", "arctan", "artanh", "arcoth")
_EVEN_HEADS = ("cos", "sec", "cosh")


def _strip_sign(e: Expr):
    """Pull the sign of a product tree out front: e == sign * result."""
    if _unsigned(e) or e.kind in ("mul", "div") and all(map(_unsigned, e.args)):
        return 1, e
    memo = {}
    for x in postorder((e,), _unsigned):
        if x.kind == "neg":
            s, inner = memo[x.args[0]]
            memo[x] = -s, inner
        elif x.kind in ("mul", "div"):
            (s1, a), (s2, b) = memo[x.args[0]], memo[x.args[1]]
            memo[x] = s1 * s2, x if (a, b) == x.args else rebuild(x, (a, b))
        else:                   # a leaf of the product, or a negative rational
            memo[x] = (1, x) if _unsigned(x) else (-1, rational(-rat_value(x)))
    return memo[e]


def _unsigned(e: Expr) -> bool:   # neither a sign nor a product holding one
    return e.kind not in ("neg", "mul", "div") and (e.kind != "rat" or e.value >= 0)


def func(name: str, a: Expr) -> Expr:
    if name not in FUNCTIONS:
        raise ExprError(f"unknown function head {name!r}")
    if is_rat(a):
        hit = _EXACT_CALLS.get((name, rat_value(a)))
        if hit is not None:
            return hit
        if name == "sqrt":
            v = rat_value(a)
            if v >= 0 and _is_square(v.numerator) and _is_square(v.denominator):
                return rational(Fraction(math.isqrt(v.numerator),
                                         math.isqrt(v.denominator)))
    if name in _ODD_HEADS or name in _EVEN_HEADS:
        sign, inner = _strip_sign(a)
        if inner is not a:      # the rules above, checked on what is built
            body = func(name, inner)
            return neg(body) if sign < 0 and name in _ODD_HEADS else body
    if name == "arccot" and is_zero(a):
        return div(PI, rational(2))
    return _built("call", (a,), name)


def _is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def fold(e: Expr) -> Expr:
    """Rebuild a DAG bottom-up through the folding constructors, once per
    distinct node; a node they built is its own fold, found at once."""
    out = e._fold or fill(e, "_fold", _fold)
    return e if out is True else out


def _fold(e: Expr):
    """The fold slot of e, its children folded; a node that folds to itself
    records True, not a cycle to itself."""
    out = rebuild(e, tuple(map(fold, e.args))) if e.args else e
    return True if out is e else out


def rebuild(e: Expr, args: tuple) -> Expr:
    """A node of e's kind and value over ``args``, through the folding
    constructors."""
    if e.kind == "neg":
        return neg(args[0])
    if e.kind == "add":
        return add(*args)
    if e.kind == "mul":
        return mul(*args)
    if e.kind == "div":
        return div(*args)
    if e.kind == "pow":
        return ipow(args[0], e.value)  # type: ignore[arg-type]
    if e.kind == "call":
        return func(e.value, args[0])  # type: ignore[arg-type]
    raise ExprError(f"unknown node kind {e.kind!r}")


def substitute(e: Expr, bindings: Mapping[str, Expr]) -> Expr:
    """Replace symbols by expressions; the result is folded.  Each distinct
    node is rebuilt once."""
    memo = {}
    for x in postorder((e,)):
        memo[x] = (bindings.get(x.value, x) if x.kind == "sym"  # type: ignore
                   else rebuild(x, tuple(memo[a] for a in x.args)) if x.args else x)
    return memo[e]


def free_symbols(e: Expr) -> frozenset:
    return e._free if e._free is not None else fill(e, "_free", _free)


def _free(e: Expr) -> frozenset:
    return frozenset((e.value,)) if e.kind == "sym" else frozenset().union(
        *(a._free for a in e.args))


# ---------------------------------------------------------------------------
# parser
#
# expr   := term (('+'|'-') term)*
# term   := factor (('*'|'/') factor)*
# factor := ('-' factor) | atom ('^' integer)?
# atom   := number | 'pi' | symbol | func '(' expr ')' | '(' expr ')'
# number := integer ('/' integer)?
#
# Unary minus binds looser than '^' (precedence ^ > unary - > * / > + -),
# so "-x^2" parses as -(x^2).  An integer followed by '/' and another
# integer is a single rational literal.

_TOKEN_OPS = "+-*/^()"


def _tokenize(text: str):
    tokens = []  # (kind, payload, pos); kind in {"int","name","op"}
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in _TOKEN_OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


# Deepest nesting of parentheses, calls and unary minus that parse_expr
# accepts; deeper input is a ParseError instead of a RecursionError.
MAX_NESTING = 100
# Largest |n| of a power that the operator pair expands; a larger one is an
# ExprError before any term is built.  Every walk keeps its own stack, so a
# higher cap would answer too: `map cospow` on t^52 takes 0.2 s and prints
# 20-22 kB, on t^64 0.2 s and 33-37 kB (fresh process, 2 vCPUs).
MAX_POWER = 48


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def descend(self, pos: int):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"expression nesting depth exceeds {MAX_NESTING}", pos)

    def peek(self, k: int = 0):
        return self.tokens[min(self.i + k, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, payload, pos = self.next()
        if kind != "op" or payload != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self) -> Expr:
        e = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, payload, _ = self.peek()
            if kind == "op" and payload in "+-":
                self.next()
                rhs = self.term()
                e = Expr("add", (e, Expr("neg", (rhs,)) if payload == "-" else rhs))
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, payload, _ = self.peek()
            if kind == "op" and payload in "*/":
                self.next()
                rhs = self.factor()
                e = Expr("mul" if payload == "*" else "div", (e, rhs))
            else:
                return e

    def factor(self) -> Expr:
        kind, payload, pos = self.peek()
        if kind == "op" and payload == "-":
            self.next()
            self.descend(pos)
            inner = self.factor()
            self.depth -= 1
            # fold a literal directly into a negative rational constant
            if inner.kind == "rat":
                return rational(-rat_value(inner))
            return Expr("neg", (inner,))
        e = self.atom()
        kind, payload, _ = self.peek()
        if kind == "op" and payload == "^":
            self.next()
            e = Expr("pow", (e,), self.integer())
        return e

    def integer(self) -> int:
        kind, payload, pos = self.next()
        sign = 1
        if kind == "op" and payload == "-":
            sign = -1
            kind, payload, pos = self.next()
        if kind != "int":
            raise ParseError("expected integer exponent", pos)
        return sign * payload

    def atom(self) -> Expr:
        kind, payload, pos = self.next()
        if kind == "int":
            nkind, npayload, _ = self.peek()
            if nkind == "op" and npayload == "/" and self.peek(1)[0] == "int":
                self.next()
                _, den, dpos = self.next()
                if den == 0:
                    raise ParseError("zero denominator in rational literal", dpos)
                return rational(payload, den)
            return rational(payload)
        if kind == "name":
            if payload == "pi":
                return PI
            nkind, npayload, _ = self.peek()
            if nkind == "op" and npayload == "(":
                if payload not in FUNCTIONS:
                    raise ParseError(f"unknown function name {payload!r}", pos)
                self.next()
                self.descend(pos)
                inner = self.expr()
                self.expect_op(")")
                self.depth -= 1
                return Expr("call", (inner,), payload)
            return symbol(payload)
        if kind == "op" and payload == "(":
            self.descend(pos)
            inner = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise ParseError("expected an atom", pos)


def parse_expr(text: str) -> Expr:
    """Parse ``text`` under standard precedence; whitespace-insensitive.
    Nesting deeper than MAX_NESTING is refused with a ParseError."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# printer

_PREC_ADD, _PREC_NEG, _PREC_MUL, _PREC_POW, _PREC_ATOM = 10, 15, 20, 30, 40


def _prec(e: Expr) -> int:
    if e.kind == "add":
        return _PREC_ADD
    if e.kind == "neg":
        return _PREC_NEG
    if e.kind in ("mul", "div"):
        return _PREC_MUL
    if e.kind == "pow":
        return _PREC_POW
    if e.kind == "rat" and rat_value(e) < 0:
        return _PREC_NEG
    return _PREC_ATOM


def _wrap(e: Expr, minimum: int) -> str:
    s = e._text
    return f"({s})" if _prec(e) < minimum else s


def to_text(e: Expr) -> str:
    return e._text or fill(e, "_text", _to_text)


def _to_text(e: Expr) -> str:
    if e.kind == "rat":
        v = rat_value(e)
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if e.kind == "pi":
        return "pi"
    if e.kind == "sym":
        return str(e.value)
    if e.kind == "neg":
        # unary minus binds a single factor: parenthesize anything looser
        return "-" + _wrap(e.args[0], _PREC_POW)
    if e.kind == "add":
        a, b = e.args
        left = _wrap(a, _PREC_ADD)
        if b.kind == "neg":
            return f"{left} - {_wrap(b.args[0], _PREC_ADD + 1)}"
        return f"{left} + {_wrap(b, _PREC_ADD + 1)}"
    if e.kind == "mul":
        a, b = e.args
        return f"{_wrap(a, _PREC_MUL)}*{_wrap(b, _PREC_MUL + 1)}"
    if e.kind == "div":
        a, b = e.args
        left = _wrap(a, _PREC_MUL)
        right = _wrap(b, _PREC_MUL + 1)
        # an integer right after '/' would re-lex as part of a rational
        # literal; parenthesize any denominator that starts with a digit
        if right[0].isdigit():
            right = f"({right})"
        return f"{left}/{right}"
    if e.kind == "pow":
        n = e.value
        base = _wrap(e.args[0], _PREC_ATOM)
        return f"{base}^{n}" if n >= 0 else f"{base}^-{-n}"
    if e.kind == "call":
        return f"{e.value}({e.args[0]._text})"
    raise ExprError(f"unknown node kind {e.kind!r}")


# ---------------------------------------------------------------------------
# numeric evaluation, loaded with mpmath on first use

_EVALUATE = ("eval_real", "eval_complex", "ComplexVal")


def __getattr__(name):
    if name not in _EVALUATE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import evaluate
    value = getattr(evaluate, name)
    globals()[name] = value
    return value
