"""Expression DSL: parse, differentiate exactly, simplify, and evaluate.

Expressions are complex-valued functions of real variables (time, coordinates,
velocities, named parameters). Complex values enter only through constants;
the bare identifier ``i`` is reserved for the imaginary unit and cannot be
bound. Differentiation is structural tree rewriting, so second partials
(mass matrices and the like) carry no truncation error.

Grammar, loosest to tightest binding::

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?          right-associative
    atom   := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")"

Identifiers are ``[A-Za-z_][A-Za-z0-9_]*``; numeric literals are decimal with
an optional exponent. Supported calls: sin, cos, exp, ln, sqrt, tanh.

Nodes are immutable and hash-consed: equal trees are one object, so `==`
and `hash` are identity. A node is interned by one atomic `setdefault`, so
expressions are safe to build and share across threads.

This module owns the trees and the passes over them; `codegen` compiles them.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Union

FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt", "tanh")
IMAGINARY_UNIT = "i"

Bindings = Mapping[str, float]


class ExprError(Exception):
    """Base class for expression-engine failures."""


class ExprSyntaxError(ExprError):
    """Malformed source text; carries the offset and the expected token set."""

    def __init__(self, position: int, expected: Iterable[str]) -> None:
        self.position = position
        self.expected = frozenset(expected)
        wanted = ", ".join(sorted(self.expected))
        super().__init__(f"syntax error at offset {position}: expected {wanted}")


class UnknownFunction(ExprError):
    def __init__(self, name: str, position: int = -1) -> None:
        self.name = name
        self.position = position
        super().__init__(
            f"unknown function '{name}' (supported: {', '.join(FUNCTIONS)})"
        )


class DomainError(ExprError):
    """Evaluation left the supported domain (ln of nonpositive real, x/0, 0^negative)."""


class UnboundSymbol(ExprError):
    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(f"unbound symbol '{name}'")


Number = Union[int, float, complex]


_NODES: dict[tuple, "Expr"] = {}


@dataclass(frozen=True, eq=False, init=False)
class Expr:
    """Immutable expression node. Arithmetic operators build trees.

    Building a node equal in structure to an existing one returns that node,
    so `==` is identity, O(1) at any depth. A constant is its exact value:
    Const(0.0) is not Const(-0.0), though the values are equal.
    """

    def __new__(cls, *fields):
        key = (cls, *fields)
        if cls is Const:  # repr keeps the sign of a zero apart, unlike ==
            fields = (complex(fields[0]),)
            key = (cls, repr(fields[0]))
        node = _NODES.get(key)
        if node is None:
            node = object.__new__(cls)
            node.__dict__.update(zip(cls.__match_args__, fields))
            node = _NODES.setdefault(key, node)
        return node

    def __reduce__(self):  # copies and pickles are rebuilt through the table
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __add__(self, other: "Expr | Number") -> "Expr":
        return BinOp("+", self, as_expr(other))

    def __radd__(self, other: Number) -> "Expr":
        return BinOp("+", as_expr(other), self)

    def __sub__(self, other: "Expr | Number") -> "Expr":
        return BinOp("-", self, as_expr(other))

    def __rsub__(self, other: Number) -> "Expr":
        return BinOp("-", as_expr(other), self)

    def __mul__(self, other: "Expr | Number") -> "Expr":
        return BinOp("*", self, as_expr(other))

    def __rmul__(self, other: Number) -> "Expr":
        return BinOp("*", as_expr(other), self)

    def __truediv__(self, other: "Expr | Number") -> "Expr":
        return BinOp("/", self, as_expr(other))

    def __rtruediv__(self, other: Number) -> "Expr":
        return BinOp("/", as_expr(other), self)

    def __pow__(self, other: "Expr | Number") -> "Expr":
        return BinOp("^", self, as_expr(other))

    def __neg__(self) -> "Expr":
        return Neg(self)


@dataclass(frozen=True, eq=False, init=False)
class Const(Expr):
    value: complex


@dataclass(frozen=True, eq=False, init=False)
class Sym(Expr):
    name: str


@dataclass(frozen=True, eq=False, init=False)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, eq=False, init=False)
class BinOp(Expr):
    op: str  # one of + - * / ^
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False, init=False)
class Call(Expr):
    fn: str  # one of FUNCTIONS
    arg: Expr


ZERO = Const(0.0)
ONE = Const(1.0)
I = Const(1j)


def as_expr(x: "Expr | Number") -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float, complex)):
        return Const(complex(x))
    raise TypeError(f"cannot coerce {type(x).__name__} to Expr")


# --- tokenizer / parser ---------------------------------------------------

_NUM = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_OPS = "+-*/^()"


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "ident" | one of _OPS | "eof"
    text: str
    pos: int


def _tokenize(source: str) -> list[_Token]:
    out: list[_Token] = []
    pos = 0
    n = len(source)
    while pos < n:
        ch = source[pos]
        if ch in " \t\r\n":
            pos += 1
            continue
        if ch in _OPS:
            out.append(_Token(ch, ch, pos))
            pos += 1
            continue
        m = _NUM.match(source, pos)
        if m:
            out.append(_Token("num", m.group(), pos))
            pos = m.end()
            continue
        m = _IDENT.match(source, pos)
        if m:
            out.append(_Token("ident", m.group(), pos))
            pos = m.end()
            continue
        raise ExprSyntaxError(pos, {"number", "identifier", "operator", "parenthesis"})
    out.append(_Token("eof", "", n))
    return out


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        self.idx = 0

    def peek(self) -> _Token:
        return self.tokens[self.idx]

    def take(self) -> _Token:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind: str, expected: Iterable[str]) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(tok.pos, expected)
        return self.take()

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise ExprSyntaxError(tok.pos, {"end of input", "binary operator"})
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind in "+-":
            e = BinOp(self.take().kind, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.peek().kind in "*/":
            e = BinOp(self.take().kind, e, self.unary())
        return e

    def unary(self) -> Expr:
        if self.peek().kind == "-":
            self.take()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek().kind == "^":
            self.take()
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.take()
            return Const(complex(float(tok.text)))
        if tok.kind == "ident":
            self.take()
            if self.peek().kind == "(":
                if tok.text not in FUNCTIONS:
                    raise UnknownFunction(tok.text, tok.pos)
                self.take()
                arg = self.expr()
                self.expect(")", {"')'"})
                return Call(tok.text, arg)
            if tok.text == IMAGINARY_UNIT:
                return I
            return Sym(tok.text)
        if tok.kind == "(":
            self.take()
            e = self.expr()
            self.expect(")", {"')'"})
            return e
        raise ExprSyntaxError(tok.pos, {"number", "identifier", "'('"})


def parse(source: str) -> Expr:
    """Parse `source` into an Expr; position-reporting on invalid input."""
    return _Parser(_tokenize(source)).parse()


# --- evaluation -----------------------------------------------------------


def _domain_pow(a: complex, b: complex) -> complex:
    if a == 0 and b.real < 0:
        raise DomainError("zero raised to a negative power")
    try:
        return a**b
    except ZeroDivisionError:
        raise DomainError("zero raised to a negative power") from None
    except OverflowError:
        raise DomainError("power overflowed") from None
    except ValueError:
        # negative real base with fractional exponent: principal complex branch
        return complex(a) ** complex(b)


def _domain_div(a: complex, b: complex) -> complex:
    if b == 0:
        raise DomainError("division by zero")
    return a / b


_CMATH = dict(sin=cmath.sin, cos=cmath.cos, exp=cmath.exp, tanh=cmath.tanh, sqrt=cmath.sqrt, ln=cmath.log)
_INLINE_CALLS = ("sin", "cos", "exp", "tanh")


def _apply_call(fn: str, z: complex) -> complex:
    if fn not in _CMATH:
        raise UnknownFunction(fn)
    if fn == "ln" and z.imag == 0 and z.real <= 0:
        raise DomainError("ln of nonpositive real")
    try:
        v = _CMATH[fn](z)
    except OverflowError:
        raise DomainError(f"{fn} overflowed") from None
    except ValueError:  # cmath's domain error: sin or cos of an infinite real part, say
        raise DomainError(f"{fn} of an infinite argument") from None
    # a real argument keeps a real value, as the array ufuncs give: above
    # exponent 100, Python's complex power would leave an imaginary part
    return v if isinstance(z, complex) or v.imag else v.real


def evaluate(e: Expr, bindings: Bindings) -> complex:
    """Evaluate to an IEEE double-precision number, complex when warranted.

    Variables are real by contract and complexness enters only through
    constants, so real subtrees run in plain float arithmetic. The compiled
    fast path emits the same operations on the same literal values, which
    keeps the two evaluators bitwise interchangeable.
    """
    if isinstance(e, Const):
        v = e.value
        return v.real if v.imag == 0 else v
    if isinstance(e, Sym):
        try:
            return bindings[e.name]
        except KeyError:
            raise UnboundSymbol(e.name) from None
    if isinstance(e, Neg):
        return -evaluate(e.arg, bindings)
    if isinstance(e, BinOp):
        a = evaluate(e.left, bindings)
        b = evaluate(e.right, bindings)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            return _domain_div(a, b)
        return _domain_pow(a, b)
    if isinstance(e, Call):
        return _apply_call(e.fn, evaluate(e.arg, bindings))
    raise TypeError(f"not an Expr node: {e!r}")


# --- differentiation ------------------------------------------------------


def _diff_call(e: Call, s: str) -> Expr:
    inner = _diff_raw(e.arg, s)
    fn, arg = e.fn, e.arg
    if fn == "sin":
        outer: Expr = Call("cos", arg)
    elif fn == "cos":
        outer = Neg(Call("sin", arg))
    elif fn == "exp":
        outer = e
    elif fn == "tanh":
        outer = BinOp("-", ONE, BinOp("^", Call("tanh", arg), Const(2.0)))
    elif fn == "sqrt":
        outer = BinOp("/", Const(0.5), Call("sqrt", arg))
    elif fn == "ln":
        outer = BinOp("/", ONE, arg)
    else:
        raise UnknownFunction(fn)
    return BinOp("*", outer, inner)


def _diff_raw(e: Expr, s: str) -> Expr:
    if s not in free_symbols(e):  # no dead 0/x or 0*x subtrees
        return ZERO
    if isinstance(e, Sym):
        return ONE
    if isinstance(e, Neg):
        return Neg(_diff_raw(e.arg, s))
    if isinstance(e, BinOp):
        l, r = e.left, e.right
        dl, dr = _diff_raw(l, s), _diff_raw(r, s)
        if e.op in "+-":
            return BinOp(e.op, dl, dr)
        if e.op == "*":
            return BinOp("+", BinOp("*", dl, r), BinOp("*", l, dr))
        if e.op == "/":
            num = BinOp("-", BinOp("*", dl, r), BinOp("*", l, dr))
            return BinOp("/", num, BinOp("^", r, Const(2.0)))
        # power rule; general case via f^g * (g' ln f + g f'/f)
        if isinstance(r, Const):
            c = r.value
            if c == 0:
                return ZERO
            return BinOp("*", BinOp("*", Const(c), BinOp("^", l, Const(c - 1))), dl)
        if isinstance(l, Const):
            if l.value == 0:
                return ZERO
            logc = Const(cmath.log(l.value))
            return BinOp("*", BinOp("*", e, logc), dr)
        lhs = BinOp("*", dr, Call("ln", l))
        rhs = BinOp("*", r, BinOp("/", dl, l))
        return BinOp("*", e, BinOp("+", lhs, rhs))
    if isinstance(e, Call):
        return _diff_call(e, s)
    raise TypeError(f"not an Expr node: {e!r}")


@lru_cache(maxsize=None)
def diff(e: Expr, s: str) -> Expr:
    """Exact partial derivative of `e` with respect to the symbol named `s`."""
    return simplify(_diff_raw(e, s))


# --- simplification -------------------------------------------------------


def _is_const(e: Expr, value: complex) -> bool:
    return isinstance(e, Const) and e.value == value


def _raises(e: Expr) -> bool:
    """Whether the simplified `e` is a fold `simplify` left in place because it
    raises: it holds no free symbol, yet is not a constant."""
    return not isinstance(e, Const) and not free_symbols(e)


@lru_cache(maxsize=None)
def simplify(e: Expr) -> Expr:
    """Constant folding plus identity elimination (x+0, x*1, x*0, x^1, x^0).

    Conservative by design: no trig identities, no factoring. Evaluation is
    preserved; folds that would raise (e.g. 1/0) are left in place so error
    semantics survive, also as a factor of zero or a base to the power zero.
    """
    if isinstance(e, (Const, Sym)):
        return e
    if isinstance(e, Neg):
        arg = simplify(e.arg)
        if isinstance(arg, Const):
            return Const(-arg.value)
        if isinstance(arg, Neg):
            return arg.arg
        return Neg(arg)
    if isinstance(e, Call):
        arg = simplify(e.arg)
        if isinstance(arg, Const):
            try:
                return Const(_apply_call(e.fn, evaluate(arg, {})))  # a real constant as a float
            except ExprError:
                pass
        return Call(e.fn, arg)
    if isinstance(e, BinOp):
        l = simplify(e.left)
        r = simplify(e.right)
        op = e.op
        if isinstance(l, Const) and isinstance(r, Const):
            try:
                return Const(evaluate(BinOp(op, l, r), {}))
            except ExprError:
                pass
        if op == "+":
            if _is_const(l, 0):
                return r
            if _is_const(r, 0):
                return l
        elif op == "-":
            if _is_const(r, 0):
                return l
            if _is_const(l, 0):
                return simplify(Neg(r))
        elif op == "*":
            if (_is_const(l, 0) and not _raises(r)) or (_is_const(r, 0) and not _raises(l)):
                return ZERO
            if _is_const(l, 1):
                return r
            if _is_const(r, 1):
                return l
        elif op == "/":
            if _is_const(r, 1):
                return l
        elif op == "^":
            if _is_const(r, 1):
                return l
            if _is_const(r, 0) and not _raises(l):
                return ONE  # matches evaluation: 0^0 == 1
        return BinOp(op, l, r)
    raise TypeError(f"not an Expr node: {e!r}")


# --- printing -------------------------------------------------------------


def _num_src(x: float) -> str:
    return repr(float(x))


def _const_src(z: complex) -> str:
    if z.imag == 0:
        return _num_src(z.real)
    if z.real == 0:
        return f"({_num_src(z.imag)} * i)"
    return f"({_num_src(z.real)} + ({_num_src(z.imag)} * i))"


def to_source(e: Expr) -> str:
    """Render parseable text with explicit parentheses; round-trips exactly."""
    if isinstance(e, Const):
        return _const_src(e.value)
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Neg):
        return f"(-{to_source(e.arg)})"
    if isinstance(e, BinOp):
        return f"({to_source(e.left)} {e.op} {to_source(e.right)})"
    if isinstance(e, Call):
        return f"{e.fn}({to_source(e.arg)})"
    raise TypeError(f"not an Expr node: {e!r}")


# --- structure helpers ----------------------------------------------------


@lru_cache(maxsize=None)
def free_symbols(e: Expr) -> frozenset[str]:
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, Sym):
        return frozenset((e.name,))
    if isinstance(e, Neg):
        return free_symbols(e.arg)
    if isinstance(e, BinOp):
        return free_symbols(e.left) | free_symbols(e.right)
    if isinstance(e, Call):
        return free_symbols(e.arg)
    raise TypeError(f"not an Expr node: {e!r}")


def subs(trees: tuple[Expr, ...], values: Mapping[str, "Expr | Number"]) -> tuple[Expr, ...]:
    """`trees` with each symbol named in `values` replaced by its tree, or by a number
    as a `Const`, in one pass over their shared subtrees; a tree holding one is
    simplified, any other comes back as the same object."""
    done: dict[Expr, Expr] = {Sym(name): as_expr(v) for name, v in values.items()}

    def put(e: Expr) -> Expr:
        if e not in done:
            hit = not values.keys().isdisjoint(free_symbols(e))
            done[e] = type(e)(*(put(x) if isinstance(x, Expr) else x for x in vars(e).values())) if hit else e
        return done[e]

    return tuple(t if put(t) is t else simplify(put(t)) for t in trees)


@lru_cache(maxsize=None)
def conj_expr(e: Expr) -> Expr:
    """Structural conjugate: flips the imaginary part of every constant.

    Serves only `split`'s fallback. Since variables are real and the
    supported calls have real Taylor coefficients, eval(conj_expr(e)) ==
    conj(eval(e)) whenever evaluation stays off the branch cuts of
    sqrt/ln/^ (negative real axis).
    """
    if isinstance(e, Const):
        return Const(e.value.conjugate())
    if isinstance(e, Sym):
        return e
    if isinstance(e, Neg):
        return Neg(conj_expr(e.arg))
    if isinstance(e, BinOp):
        return BinOp(e.op, conj_expr(e.left), conj_expr(e.right))
    if isinstance(e, Call):
        return Call(e.fn, conj_expr(e.arg))
    raise TypeError(f"not an Expr node: {e!r}")


def _conj_split(e: Expr) -> tuple[Expr, Expr]:
    """(e + conj e)/2 and (e - conj e)/(2i): `split` of a node it cannot
    split by structure."""
    c = conj_expr(e)
    return simplify((e + c) * Const(0.5)), simplify((e - c) * Const(-0.5j))


@lru_cache(maxsize=None)
def split(e: Expr) -> tuple[Expr, Expr]:
    """(Re e, Im e) as two real-valued trees, built by structure.

    Constants split into their parts and symbols are real. Neg, +, - and *
    follow complex arithmetic, operation for operation as Python's complex
    type computes them; `/` by a real denominator divides both parts, and
    `^` and calls of real arguments are real. A node none of these covers
    (a complex denominator, a power or call of a complex argument) splits
    in the conjugate form, `_conj_split`. Both trees are simplified; a real
    `e` gives simplify(e) and a zero imaginary part.
    """
    if isinstance(e, Const):
        return Const(e.value.real), Const(e.value.imag)
    if isinstance(e, Sym):
        return e, ZERO
    if isinstance(e, Neg):
        re, im = split(e.arg)
        return simplify(Neg(re)), simplify(Neg(im))
    if isinstance(e, Call):
        re, im = split(e.arg)
        return (simplify(Call(e.fn, re)), ZERO) if _is_const(im, 0) else _conj_split(e)
    if not isinstance(e, BinOp):
        raise TypeError(f"not an Expr node: {e!r}")
    (a, b), (c, d) = split(e.left), split(e.right)
    if e.op in "+-":
        return simplify(BinOp(e.op, a, c)), simplify(BinOp(e.op, b, d))
    if e.op == "*":
        return simplify(a * c - b * d), simplify(a * d + b * c)
    if not _is_const(d, 0) or (e.op == "^" and not _is_const(b, 0)):
        return _conj_split(e)
    if e.op == "/":
        return simplify(a / c), ZERO if _is_const(b, 0) else simplify(b / c)
    return simplify(BinOp("^", a, c)), ZERO

