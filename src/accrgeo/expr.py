"""Small deterministic arithmetic expression language.

Used to define metric components, structure fields and transformation
functions.  The grammar is standard precedence climbing:

    expr    := term (("+" | "-") term)*
    term    := unary (("*" | "/") unary)*
    unary   := "-" unary | power
    power   := primary ["^" exponent]
    primary := NUMBER | NAME | NAME "(" expr ")" | "(" expr ")"

``^`` binds tighter than unary minus and takes a (possibly negated)
numeric literal exponent.  Function application requires parentheses;
whitespace is insignificant.  Expression trees are immutable and
evaluation is pure.

One evaluator reads a tree: :func:`eval_jets` computes the truncated
Taylor jets of a sequence of trees at a batch of points, under bindings
of the variables to jets (a plain value is the jet's value row; the
tests keep a float evaluator as an independent oracle).
It is the one place where scalar jets (coefficient arrays of shape
``(ncoeff, *batch)``, see :mod:`accrgeo.jets`) are combined: ``+``,
``-`` and negation are array operations, ``*`` and ``/`` the truncated
product ``jmul``.  A constant operand of ``+ - * /`` beside a
non-constant one stays a number: it scales the other jet (``X / c`` by
the value of the jet 1/c, domain checks included, ``c / X`` the
reciprocal of X) or shifts its value row.  A node object that several
trees, or several places of one tree, share is evaluated once for the
whole batch, through a memo keyed by node identity that lives for that
one call.  :func:`eval_jet` is the same for a single tree.  Trees built
in code share subtrees by reusing objects, and :func:`expr_table` makes
equal text entries and equal constants of a table one object, so a
table of d x d entries costs one evaluation per distinct node, not per
entry.

Parsing rejects text that opens more than ``MAX_DEPTH`` parentheses
inside one another, or whose tree nests more than ``MAX_DEPTH``
operations: the parser, the evaluator, ``free_vars`` and ``serialize``
all recurse, and the bound keeps them within Python's stack.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass

import numpy as np

from .jets import (FUNCTION_TABLE, JetDomainError, JetSpace, _reciprocal,
                   jmul, jpow)

FUNCTIONS = frozenset(FUNCTION_TABLE)
MAX_DEPTH = 100


class ParseError(ValueError):
    """Malformed expression text."""

    def __init__(self, offset: int, expected: str, found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        super().__init__(
            f"parse error at offset {offset}: expected {expected}, "
            f"found {found}")


class EvalError(ArithmeticError):
    """Unbound variable or domain error during evaluation."""


# The match statements below name the fields of a node by keyword: on
# CPython 3.11 a positional class pattern looks up __match_args__ by a new
# string at each match, which the interpreter's type attribute cache then
# keeps: evaluation would leave thousands of them allocated, more the more
# nodes it matches.
@dataclass(frozen=True)
class Expr:
    def __str__(self):
        return serialize(self)

    # operator helpers for building trees programmatically
    def __add__(self, other):
        return Bin("+", self, as_expr(other))

    def __radd__(self, other):
        return Bin("+", as_expr(other), self)

    def __sub__(self, other):
        return Bin("-", self, as_expr(other))

    def __mul__(self, other):
        return Bin("*", self, as_expr(other))

    def __rmul__(self, other):
        return Bin("*", as_expr(other), self)

    def __truediv__(self, other):
        return Bin("/", self, as_expr(other))

    def __rtruediv__(self, other):
        return Bin("/", as_expr(other), self)

    def __neg__(self):
        return Neg(self)

    def __pow__(self, exponent):
        return Pow(self, float(exponent))


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Bin(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: float


@dataclass(frozen=True)
class Func(Expr):
    name: str
    arg: Expr


def as_expr(x) -> Expr:
    """Coerce to Expr: a tree is returned as is, text is parsed and a
    number becomes a constant; :class:`ParseError` if it is not finite."""
    if isinstance(x, Expr):
        return x
    if isinstance(x, str):
        return parse(x)
    try:
        value = float(x)
    except OverflowError:               # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ParseError(0, "a finite number", str(value))
    return Const(value)


def expr_table(entries, shape) -> np.ndarray:
    """Object array of Expr of exactly ``shape``, coercing every entry
    with :func:`as_expr`; build tables once, not per point.

    Equal text entries become one tree, and so do constants with equal
    bit patterns (``-0.0`` stays apart from ``0.0``), so that
    :func:`eval_jets` evaluates each of them once per batch of points."""
    arr = np.asarray(entries, dtype=object)
    if arr.shape != tuple(shape):
        raise ValueError(f"expected a table of shape {tuple(shape)}, "
                         f"got {arr.shape}")
    out = np.empty(arr.shape, dtype=object)
    shared = {}
    for idx in np.ndindex(arr.shape):
        x = arr[idx]
        if isinstance(x, Expr) and not isinstance(x, Const):
            out[idx] = x
            continue
        value = x.value if isinstance(x, Const) else x
        key = (value if isinstance(value, str)
               else struct.pack("<d", float(value)))
        if key not in shared:
            shared[key] = as_expr(x)
        out[idx] = shared[key]
    return out


def func(name: str, arg) -> Func:
    if name not in FUNCTIONS:
        raise ValueError(f"unknown function {name!r}")
    return Func(name, as_expr(arg))


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == m.start():
            rest = text[pos:]
            stripped = rest.lstrip()
            if not stripped:
                break
            off = pos + len(rest) - len(stripped)
            raise ParseError(off, "a token", repr(stripped[0]))
        pos = m.end()
        if m.lastgroup is None:
            continue
        kind = m.lastgroup
        value = m.group(kind)
        tokens.append((kind, value, m.start(kind)))
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: str):
        kind, value, offset = self.peek()
        found = "end of input" if kind == "eof" else repr(value)
        raise ParseError(offset, expected, found)

    def expect_op(self, op: str):
        kind, value, _ = self.peek()
        if kind != "op" or value != op:
            self.fail(repr(op))
        self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        if self.peek()[0] != "eof":
            self.fail("end of input")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                e = Bin(value, e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                e = Bin(value, e, self.unary())
            else:
                return e

    def unary(self) -> Expr:
        # a loop, not recursion: a long run of signs costs no stack
        signs = 0
        while self.peek()[:2] == ("op", "-"):
            self.advance()
            signs += 1
        e = self.power()
        for _ in range(signs):
            e = Neg(e)
        return e

    def power(self) -> Expr:
        base = self.primary()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return Pow(base, self.exponent())
        return base

    def exponent(self) -> float:
        sign = 1.0
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            sign = -1.0
        if self.peek()[0] != "number":
            self.fail("a numeric exponent")
        return sign * self.number()

    def number(self) -> float:
        """The number token at hand, which must be finite (``1e999`` is
        not)."""
        x = float(self.peek()[1])
        if not math.isfinite(x):
            self.fail("a finite number")
        self.advance()
        return x

    def nested_expr(self) -> Expr:
        """The expression after an opening parenthesis."""
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            self.fail(f"parentheses nested at most {MAX_DEPTH} deep")
        e = self.expr()
        self.nesting -= 1
        self.expect_op(")")
        return e

    def primary(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "number":
            return Const(self.number())
        if kind == "name":
            self.advance()
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                if value not in FUNCTIONS:
                    self.pos -= 1
                    self.fail("a known function name")
                self.advance()
                return Func(value, self.nested_expr())
            return Var(value)
        if kind == "op" and value == "(":
            self.advance()
            return self.nested_expr()
        self.fail("a number, name or '('")


def parse(text: str) -> Expr:
    """Parse expression text; raises :class:`ParseError` on malformed
    input, on a number that is not finite and on nesting deeper than
    ``MAX_DEPTH``."""
    e = _Parser(text).parse()
    if (levels := depth(e)) > MAX_DEPTH:
        raise ParseError(0, f"at most {MAX_DEPTH} nested operations",
                         str(levels))
    return e


# ---------------------------------------------------------------------------
# Evaluation / inspection
# ---------------------------------------------------------------------------

def depth(e: Expr) -> int:
    """Operations on the longest root-to-leaf path (0 for a leaf),
    counted without recursion so that any tree can be measured."""
    deepest, stack = 0, [(e, 0)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        match node:
            case Neg(arg=arg) | Func(arg=arg) | Pow(base=arg):
                stack.append((arg, level + 1))
            case Bin(left=left, right=right):
                stack += [(left, level + 1), (right, level + 1)]
    return deepest


def free_vars(e: Expr) -> frozenset[str]:
    match e:
        case Const():
            return frozenset()
        case Var(name=name):
            return frozenset((name,))
        case Neg(arg=arg) | Func(arg=arg):
            return free_vars(arg)
        case Bin(left=left, right=right):
            return free_vars(left) | free_vars(right)
        case Pow(base=base):
            return free_vars(base)
    raise TypeError(f"not an Expr: {e!r}")


def eval_jets(space: JetSpace, exprs,
              bindings: dict[str, np.ndarray]) -> list[np.ndarray]:
    """Evaluate a sequence of trees over jets of ``space``, with the
    variables bound to scalar jets of one shape ``(space.ncoeff, *batch)``
    (no binding is the empty batch); each result is the exact truncated
    Taylor expansion of its expression at every bound point.  One memo,
    keyed by node identity, spans the whole sequence, so a node shared
    between or within the trees is evaluated once.

    A domain error at any point, and any float overflow, division by zero
    or invalid operation (the first step at which a jet would turn
    non-finite), raises :class:`EvalError` naming the node."""
    exprs = list(exprs)     # keeps every node, and so its id, alive
    batch = next(iter(bindings.values())).shape[1:] if bindings else ()
    # a batch of one point runs as the empty batch: without this path the
    # single-point benchmark verified 6-7% fewer points a second
    inner = () if math.prod(batch) == 1 else batch
    if inner != batch:
        bindings = {k: v.reshape(v.shape[:1]) for k, v in bindings.items()}
    memo = {}
    # numpy raises where a jet would turn non-finite, in place of a warning
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        jets = [_eval_node(e, bindings, space, memo, inner) for e in exprs]
    return [j.reshape(j.shape[:1] + batch) for j in jets]


def eval_jet(space: JetSpace, e: Expr,
             bindings: dict[str, np.ndarray]) -> np.ndarray:
    """Evaluate one tree over jets (see :func:`eval_jets`)."""
    return eval_jets(space, [e], bindings)[0]


def _eval_node(node: Expr, bindings, space, memo: dict,
               batch: tuple) -> np.ndarray:
    # the memo is an argument, not a closure cell: a recursive closure
    # over it would be a reference cycle that keeps every call's jets
    # alive until the garbage collector runs
    key = id(node)
    jet = memo.get(key)
    if jet is not None:
        return jet
    try:
        match node:
            case Const(value=value):
                jet = np.zeros((space.ncoeff,) + batch)
                jet[0] = value
            case Var(name=name):
                try:
                    jet = bindings[name]
                except KeyError:
                    raise EvalError(f"unbound variable {name!r}") from None
            case Neg(arg=arg):
                jet = -_eval_node(arg, bindings, space, memo, batch)
            case Bin(op=op, left=Const(value=c),
                     right=right) if not isinstance(right, Const):
                x = _eval_node(right, bindings, space, memo, batch)
                if op in "+-":
                    jet = x.copy() if op == "+" else -x
                    jet[:1] = c + x[:1] if op == "+" else c - x[:1]
                else:
                    jet = c * (x if op == "*" else _reciprocal(space, x))
            case Bin(op=op, left=left,
                     right=Const(value=c) as right) if not isinstance(
                    left, Const):
                x = _eval_node(left, bindings, space, memo, batch)
                if op in "+-":
                    jet = x.copy()
                    jet[:1] = x[:1] + c if op == "+" else x[:1] - c
                elif op == "*":
                    jet = x * c
                elif c == 0.0:
                    raise ZeroDivisionError("division by zero")
                else:       # times the number 1/c, which must be finite
                    inverse = 1.0 / c
                    if not math.isfinite(inverse):
                        raise OverflowError("math range error")
                    jet = x * inverse
            case Bin(op=op, left=left, right=right):
                a = _eval_node(left, bindings, space, memo, batch)
                b = _eval_node(right, bindings, space, memo, batch)
                if op == "+":
                    jet = a + b
                elif op == "-":
                    jet = a - b
                elif op == "*":
                    jet = jmul(space, a, b)
                else:
                    jet = jmul(space, a, _reciprocal(space, b))
            case Pow(base=base, exponent=exponent):
                jet = jpow(space,
                           _eval_node(base, bindings, space, memo, batch),
                           exponent)
            case Func(name=name, arg=arg):
                jet = FUNCTION_TABLE[name](
                    space, _eval_node(arg, bindings, space, memo, batch))
            case _:
                raise TypeError(f"not an Expr: {node!r}")
    except (JetDomainError, FloatingPointError, OverflowError,
            ZeroDivisionError) as err:
        # raised here, at the innermost node: its parents pass it on
        raise EvalError(f"{err} at {_quote(node)}") from err
    memo[key] = jet
    return jet


def _quote(node: Expr, limit: int = 200) -> str:
    text = serialize(node)
    return text if len(text) <= limit else text[:limit - 3] + "..."


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def serialize(e: Expr) -> str:
    """Canonical fully parenthesized text; re-parsing yields a
    structurally identical tree."""
    match e:
        case Const(value=value):
            return _fmt(value)
        case Var(name=name):
            return name
        case Neg(arg=arg):
            return f"(-{serialize(arg)})"
        case Bin(op=op, left=left, right=right):
            return f"({serialize(left)} {op} {serialize(right)})"
        case Pow(base=base, exponent=exponent):
            if exponent < 0:
                return f"({serialize(base)} ^ -{_fmt(-exponent)})"
            return f"({serialize(base)} ^ {_fmt(exponent)})"
        case Func(name=name, arg=arg):
            return f"{name}({serialize(arg)})"
    raise TypeError(f"not an Expr: {e!r}")
