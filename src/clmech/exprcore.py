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
"""

from __future__ import annotations

import cmath
import operator
import re
from dataclasses import dataclass
from functools import lru_cache, partial
from textwrap import indent
from typing import Callable, Iterable, Iterator, Mapping, Union

import numpy as np

FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt", "tanh")
IMAGINARY_UNIT = "i"
BLOWUP_LIMIT = 1e12  # the bound of a sample loop's state entries

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
            op = self.take().kind
            e = BinOp(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.peek().kind in "*/":
            op = self.take().kind
            e = BinOp(op, e, self.unary())
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
        if e.op == "+":
            return BinOp("+", dl, dr)
        if e.op == "-":
            return BinOp("-", dl, dr)
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
            down = BinOp("^", l, Const(c - 1))
            return BinOp("*", BinOp("*", Const(c), down), dl)
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


# --- compiled fast path ---------------------------------------------------


def _where(state: Mapping[str, float]) -> str:
    return ", ".join(f"{name}={x!r}" for name, x in state.items())


def _not_real(values: tuple[complex, ...], state: Mapping[str, float]) -> None:
    k, v = next((k, v) for k, v in enumerate(values) if v.imag)
    raise DomainError(f"real map {k} took the complex value {v!r} at {_where(state)}")


@lru_cache(maxsize=None)
def _may_turn_complex(e: Expr) -> bool:
    """Whether `e` can be complex at real arguments: it holds a complex or
    non-finite constant, sqrt, ln, or `^` to other than an integral real constant."""
    if isinstance(e, Const):
        return bool(e.value.imag) or not cmath.isfinite(e.value)
    if isinstance(e, Call) and e.fn in ("sqrt", "ln"):
        return True
    if isinstance(e, BinOp) and e.op == "^":  # a complex exponent is a complex constant, found below
        if not (isinstance(e.right, Const) and e.right.value.real.is_integer()):
            return True
    return any(_may_turn_complex(x) for x in vars(e).values() if isinstance(x, Expr))


def _codegen(
    trees: tuple[Expr, ...],
    args: tuple[str, ...],
    bare: bool,
    real: bool,
    bound: dict | None = None,
    ret="return ",
    inline: bool = False,
) -> tuple[str, dict[str, complex]]:
    """Source of one function computing every tree, and the names it reads, added to `bound` if given.

    Its last line is `ret` and the tuple of the trees' values, or with `bare`
    the value of the only tree; with `real`, their real parts once every
    imaginary part is checked to be zero.

    A subtree occurring more than once across `trees` is computed once into
    a local; everything else stays inline. Real finite literals are written
    out; complex and non-finite ones are bound by name, so each keeps its
    exact value (the text of a complex literal can lose the sign of a zero).

    Every `/`, `^` and call goes through the helpers `_h_div`, `_h_pow` and
    `_h_call`, unless `inline` (a scalar kernel's fast path) writes it as
    plain Python: `/`, `**` to a finite real constant, and cmath's sin, cos,
    exp and tanh (`_c_sin`, ...) of a tree that stays real. Each raises where
    its helper raises; where the helper returns, it is the same operation on
    the same operands. A call of `abs` (a step's sample) is Python's.
    """
    uses: dict[Expr, int] = {}

    def count(e: Expr) -> None:
        seen = uses.get(e, 0)
        uses[e] = seen + 1
        if not seen:  # a repeat is computed once, so its children are not reused
            for child in vars(e).values():
                if isinstance(child, Expr):
                    count(child)

    for tree in trees:
        count(tree)

    arg_set = frozenset(args)
    bound = {} if bound is None else bound
    names: dict[Expr, str] = {}
    lines: list[str] = []

    def literal(v: complex) -> str:
        if v.imag == 0 and cmath.isfinite(v):
            return repr(v.real)
        name = f"_k{len(bound)}"
        bound[name] = v if v.imag else v.real
        return name

    def emit(e: Expr) -> str:
        if e in names:
            return names[e]
        if isinstance(e, Const):
            return literal(e.value)
        if isinstance(e, Sym):
            if e.name in arg_set:
                return e.name
            raise UnboundSymbol(e.name)
        if isinstance(e, Neg):
            src = f"(-{emit(e.arg)})"
        elif isinstance(e, BinOp):
            l, r = emit(e.left), emit(e.right)
            if e.op == "/" and not inline:
                src = f"_h_div({l}, {r})"
            elif e.op == "^" and inline and isinstance(e.right, Const) and not _may_turn_complex(e.right):
                src = f"(({l}) ** {r})"  # a finite real exponent; -2.0 ** c would be -(2.0 ** c)
            elif e.op == "^":
                src = f"_h_pow({l}, {r})"
            else:
                src = f"({l} {e.op} {r})"
        elif isinstance(e, Call):
            if e.fn == "abs":
                src = f"abs({emit(e.arg)})"
            elif inline and e.fn in _INLINE_CALLS and not _may_turn_complex(e.arg):
                # a real argument gives an imaginary part of +-0, which `_apply_call` drops too
                src = f"_c_{e.fn}({emit(e.arg)}).real"
            else:
                src = f"_h_call({e.fn!r}, ({emit(e.arg)}))"
        else:
            raise TypeError(f"not an Expr node: {e!r}")
        if uses[e] == 1:
            return src
        name = names[e] = f"_v{len(names)}"
        lines.append(f"    {name} = {src}")
        return name

    outs = [emit(tree) for tree in trees]
    if real:
        for k, src in enumerate(outs):
            lines.append(f"    _o{k} = {src}")
        outs = [f"_o{k}" for k in range(len(outs))]
        state = ", ".join(f"{a!r}: {a}" for a in args)
        lines.append(f"    if {' or '.join(o + '.imag' for o in outs)}:")
        lines.append(f"        _h_not_real(({', '.join(outs)},), {{{state}}})")
        outs = [o + ".real" for o in outs]
    lines.append(f"    {ret}{outs[0] if bare else '(' + ', '.join(outs) + ',)'}")
    return f"def _f({', '.join(args)}):\n" + "\n".join(lines) + "\n", bound


# --- array kernels ---------------------------------------------------------

LANE_BLOCK = 2048


def lane_blocks(n: int) -> Iterator[slice]:
    """Consecutive slices of at most LANE_BLOCK lanes covering range(n).

    Array-kernel callers evaluate in these blocks into preallocated columns,
    so their temporaries stay the same size whatever the sample count.
    """
    return (slice(k, min(k + LANE_BLOCK, n)) for k in range(0, n, LANE_BLOCK))


class _LaneFailure(Exception):
    """Some lane of an array kernel left the domain; the wrapper finds which."""


def _lanes_div(a, b):
    if np.any(b == 0):
        raise _LaneFailure("division by zero")
    return a / b


# Python's own `**` lane by lane: numpy squares by multiplication and its
# SIMD pow rounds differently from libm's pow, which the scalar helper calls.
_py_pow = np.frompyfunc(operator.pow, 2, 1)


def _lanes_pow(a, b):
    # Python's complex power raises for zero to a complex power as well
    if np.any((a == 0) & ((np.real(b) < 0) | (np.imag(b) != 0))):
        raise _LaneFailure("zero raised to a negative power")
    out = _py_pow(a, b)  # its OverflowError signals a failing lane too
    # a negative float base with a fractional exponent gives a complex in
    # its own lanes only; the array takes the common type
    return np.array(out.tolist()) if isinstance(out, np.ndarray) else out


_UFUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "tanh": np.tanh, "ln": np.log}


def _lanes_call(fn: str, z):
    z = np.asarray(z)
    if fn == "ln":
        if np.any((z.imag == 0) & (z.real <= 0)):
            raise _LaneFailure("ln of nonpositive real")
    elif fn == "sqrt":
        if np.iscomplexobj(z):
            return np.sqrt(z)
        root = np.sqrt(np.abs(z))
        # cmath.sqrt(-x) is 0.0 + sqrt(x)*1j, complex in those lanes only
        return np.where(z < 0, root * 1j, root) if np.any(z < 0) else root
    # cmath raises on sin or cos of an infinite real part, unless the imaginary part is nan
    if fn in ("sin", "cos") and np.any(np.isinf(z.real) & ~np.isnan(z.imag)):
        raise _LaneFailure(f"{fn} of an infinite argument")
    out = _UFUNCS[fn](z)
    # cmath raises where a finite argument overflows (exp, sin and cos)
    if np.any(~np.isfinite(out) & np.isfinite(z)):
        raise _LaneFailure(f"{fn} overflowed")
    return out


def _lane_kernel(fn: Callable, scalar: Callable, args: tuple[str, ...], bare: bool, real: bool):
    """Wrap generated array code: lane shape, real guard, lane-named errors.

    The array code only signals that some lane failed. Then `scalar()`, the
    helper kernel of the same trees with `real` off, runs lane by lane, and
    the first lane whose scalar call fails, or with `real` takes a complex
    value, names the DomainError. That is the kernel every scalar kernel's
    inline fast path falls back to (`_with_fallback`), so a lane fails with
    the error its scalar call raises.
    """

    def kernel(*cols):
        cols = [np.asarray(c, dtype=float) for c in cols]
        shape = np.broadcast_shapes(*(c.shape for c in cols))
        try:
            with np.errstate(all="ignore"):  # IEEE results, as Python floats give
                vals = fn(*cols)
            vals = [
                np.asarray(v) if np.shape(v) == shape else np.full(shape, v)
                for v in ((vals,) if bare else vals)
            ]
            if real:
                if any(np.iscomplexobj(v) and v.imag.any() for v in vals):
                    raise _LaneFailure("a real map took a complex value")
                vals = [np.real(v) for v in vals]
            return vals[0] if bare else tuple(vals)
        except (_LaneFailure, OverflowError) as signal:
            message = str(signal)
        lane = scalar()
        for point in zip(*(np.broadcast_to(c, shape).ravel().tolist() for c in cols)):
            state = dict(zip(args, point))
            try:
                values = lane(*point)
            except DomainError as err:
                raise DomainError(f"{err} at {_where(state)}") from None
            values = (values,) if bare else values
            if real and any(v.imag for v in values):
                _not_real(values, state)
        raise DomainError(message)

    return kernel


_SCALAR_HELPERS = {
    "_h_div": _domain_div,
    "_h_pow": _domain_pow,
    "_h_call": _apply_call,
    "_h_not_real": _not_real,
    **{f"_c_{fn}": _CMATH[fn] for fn in _INLINE_CALLS},
    "ArithmeticError": ArithmeticError,
    "ValueError": ValueError,
}
_LANE_HELPERS = {"_h_div": _lanes_div, "_h_pow": _lanes_pow, "_h_call": _lanes_call}


def _with_fallback(src: str, kernels: str, ns: dict, slow: Callable[[], Callable], extra: str = "") -> str:
    """`src`, one function, with its body under `try`: where an inline operation raises
    (ArithmeticError, or cmath's ValueError), the call is made again on `_h_slow()`, bound
    in `ns` to `slow`, the same function built on the helpers (its parameters then `extra`),
    and its DomainError, or its value where a helper returns one, is the call's.

    `kernels` is the text of the kernel bodies `_codegen` wrote into `src` with `inline`.
    Only an inline operation writes `/`, `**` or `_c_` there; without one the function is
    the helpers' own, and `src` comes back unwrapped, since a `try` slows the compile."""
    if not any(op in kernels for op in ("/", "**", "_c_")):
        return src
    ns["_h_slow"] = slow
    head, body = src.split("\n", 1)
    params = head[head.index("(") + 1 : head.index(")")]
    fallback = f"    except (ArithmeticError, ValueError):\n        return _h_slow()({params}{extra})\n"
    return f"{head}\n    try:\n{indent(body, '    ')}{fallback}"


@lru_cache(maxsize=None)
def _compile(
    trees: tuple[Expr, ...],
    args: tuple[str, ...],
    const_items: tuple[tuple[str, complex], ...],
    bare: bool,
    real: bool,
    vectorized: bool,
    inline: bool = True,
):
    trees = subs(trees, {name: v for name, v in const_items if name not in args})
    real = real and any(map(_may_turn_complex, trees))
    inline = inline and not vectorized  # numpy does not raise on a zero divisor
    # the array wrapper does the real guard, so the source never holds it
    src, bound = _codegen(trees, args, bare, real and not vectorized, None, "return ", inline)
    helpers = _LANE_HELPERS if vectorized else _SCALAR_HELPERS
    ns = {"__builtins__": {}, **helpers, **bound}
    if inline:  # the helper kernel compiles on the first call that raises
        src = _with_fallback(src, src, ns, partial(_compile, trees, args, (), bare, real, False, False))
    exec(src, ns)  # noqa: S102 - source is generated from a validated tree
    if not vectorized:
        return ns["_f"]
    scalar = partial(_compile, trees, args, (), bare, False, False, False)
    return _lane_kernel(ns["_f"], scalar, args, bare, real)


def compile_expr(
    e: Expr | tuple[Expr, ...],
    args: tuple[str, ...],
    consts: Mapping[str, float] | None = None,
    *,
    real: bool = False,
    vectorized: bool = False,
) -> Callable[..., complex]:
    """Compile to a positional-argument function; semantics match `evaluate`.

    Symbols listed in `args` become positional parameters; the symbols in
    `consts` are put in by `subs` before code generation, so parameter
    arithmetic runs once (an argument shadows a constant of its name). Any
    other free symbol raises UnboundSymbol at compile time.

    The scalar function has two paths. Its fast path writes `/`, `^` to a
    finite real constant and sin, cos, exp and tanh of a real argument as
    plain Python (`/`, `**`, cmath's function), so the arguments must be
    real, as `evaluate`'s variables are. Where one of them raises, the call
    is made again on the helper kernel, the same trees with every `/`, `^`
    and call through `evaluate`'s domain guards, compiled on the first such
    call. So every value is the one the helpers compute, and every error is
    theirs, as `evaluate` raises it.

    Given a tuple of trees, the function returns all their values as a
    tuple and computes each subtree the trees share only once; every value
    is bitwise the one `evaluate` gives with the constants bound, but for a
    sign of zero or a NaN of 0 * inf where a folded constant is zero
    (`simplify` turns x + 0 into x and x * 0 into 0; a complex one with a
    zero imaginary part turns real). A single tree is the 1-tuple case
    whose function returns the bare value.

    With `real`, the trees are real maps: the function returns float real
    parts and raises DomainError when a value has a nonzero imaginary part.
    Only trees that `_may_turn_complex` get that check; the others keep
    real arguments real, so they compute and return plain floats.

    With `vectorized`, the same generated source runs over equal-length
    float64 arrays, one sample per lane, and every value is an array of the
    lane shape (constants are broadcast). Lane k is the scalar function's
    value at sample k, bitwise for real `+ - * /` and `sqrt` and for every
    `^`; numpy's `exp`, `tanh` and `ln`, and its complex multiply, divide
    and square root, differ from libm's and cmath's by a few ulp. It raises
    DomainError exactly where some lane's scalar call would, naming the
    first such lane and its arguments: on a failure in the arrays, the
    scalar function runs lane by lane and its error is the one raised.
    """
    items = tuple(sorted((k, complex(v)) for k, v in (consts or {}).items()))
    bare = not isinstance(e, tuple)
    return _compile((e,) if bare else e, tuple(args), items, bare, real, vectorized)


def _fold(e: Expr, values: Mapping[str, Expr]) -> Expr:
    """`e` with each symbol named in `values` put in, folded by rules that give the same float for
    every operand, signed zeros, infinities and NaNs included (IEEE 754; Goldberg, ACM Computing
    Surveys 23(1), 1991): real constants by `evaluate`'s float operation, unless it raises or gives
    a NaN or a complex; x*1.0, 1.0*x, x/1.0, x - 0.0, x + (-0.0) and -(-x) to x. Unlike `simplify`,
    it keeps 0.0*x, x + 0.0 and 0.0 + x, which turn some -0.0, infinite or NaN x into another value."""
    if not isinstance(e, (Neg, BinOp)):
        return values.get(e.name, e) if isinstance(e, Sym) else Call(e.fn, _fold(e.arg, values)) if isinstance(e, Call) else e
    kids = [_fold(x, values) for x in vars(e).values() if isinstance(x, Expr)]
    e = BinOp(e.op, *kids) if isinstance(e, BinOp) else Neg(*kids)
    if all(isinstance(x, Const) and not x.value.imag for x in kids):
        try:
            v = evaluate(e, {})
        except ExprError:
            v = None
        if isinstance(v, float) and v == v:
            return Const(v)
    if isinstance(e, Neg):
        return kids[0].arg if isinstance(kids[0], Neg) else e
    l, r = kids
    if (e.op in "*/" and r is ONE) or (e.op == "-" and r is ZERO) or (e.op == "+" and r is Const(-0.0)):
        return l
    return r if e.op == "*" and l is ONE else e


def compile_step(
    trees: tuple, args: tuple, outs: tuple, tail: tuple, sample, last: tuple | str = (), names: tuple = (), start: str = ""
) -> Callable[..., int | None]:
    """The sample loop of the classical RK4 step (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.1)
    of a state (x, y), generated as `_loop(grid, x0, y0, dt, h2, h6, c0, c1, c2, c3, n, s0)`: at each of
    the n + 1 samples it returns the sample's index if a state entry is NaN or beyond +-BLOWUP_LIMIT,
    else stores x and the sample's s0, s1, s2 in the memoryview columns c0..c3 ([k], or [k, a] for a
    list state) and, but at the last sample, steps the state in place. The argument s0 is what the
    text reads as s0 before the first sample sets it: a Newton's warm start.

    `args` is (t, x, y) for a float state, or (t, x_1..x_n, y_1..y_n) for a state of n > 1 coordinates
    passed as the lists x0 and y0. One template writes both, entry by entry in scalars: a float state's
    entries are its parameters `{x}0, {y}0` with the slope `kx, ky`, a list state's the scalars `x0_a,
    y0_a` that x0 and y0 unpack to, with `kx_a, ky_a`, so each entry rounds as a float state's does.
    Each stage assigns its point to `args`, so a guard names it as the kernel does, runs the real kernel
    body of the folded `trees` with the values bound to `outs`, then the pieces of `tail`, which set the
    slope; the piece `sample` sets s0, s1, s2 after stage 1, and the text `start` runs before stage 1
    alone. A piece is text, or a pair (names, trees) setting the names to the trees' values, folded by
    `_fold` and computed with plain `/` and `**` as text is. With no trees a stage is its tail alone.
    A float state's outs that are constants go into those trees, and the body assigns them only
    if it checks for an imaginary part, which names a map by its place; else an out only `sample` reads,
    whose tree cannot raise, is computed once, at the sample. The last sample runs stage 1 alone; or,
    where `last` is text, that text, then `sample`; or, where it is trees, on a float state,
    `_f(t, x, y)` -> (*sample, x, y), the body of `last` bound to the first `outs`.
    `names` pairs are bound as globals.

    Where an inline operation of the kernel bodies (`compile_expr`'s fast path) raises, that sample
    alone is taken again on the step built on the helpers, `_step(t0, x0, y0, dt, h2, h6)` -> (*sample,
    next x, next y) with dt None at the last sample: it raises the helpers' error at the same stage,
    or gives the sample and the loop goes on; a loop of text-only stages, the only kind that reads the
    argument s0, has no kernel body and so no such step. Loops are cached on their arguments, so a
    derive of the same system reuses its loop.
    """
    return _step(trees, args, outs, tail, sample, last, names, start, True)


@lru_cache(maxsize=None)
def _step(
    trees: tuple, args: tuple, outs: tuple, tail: tuple, sample, last: tuple | str, names: tuple, start: str, inline: bool
) -> Callable:
    bound: dict = {}
    t, state, n = args[0], args[1:], (len(args) - 1) // 2
    listed, join = n > 1, ", ".join
    leaves = {} if listed else {o: e for o, e in zip(outs, trees) if isinstance(e, Const)}

    def body(pairs: list) -> str:
        guarded = any(_may_turn_complex(e) for _, e in pairs)
        # a guard names a map by its place, so a guarded body keeps every out, and any body one
        kept = [(o, e) for o, e in pairs if guarded or o not in leaves] or pairs[:1]
        lhs, kept = f"{join(o for o, _ in kept)} = ", tuple(e for _, e in kept)
        return _codegen(kept, args, len(kept) == 1, guarded, bound, lhs, inline)[0]

    def put(piece) -> str:
        if isinstance(piece, str):
            return piece + "\n"
        lhs, values = piece[0], tuple(_fold(e, leaves) for e in piece[1])
        reads = tuple(frozenset().union(*map(free_symbols, values)))  # args, outs and the tail's names
        return _codegen(values, reads, len(lhs) == 1, False, bound, f"{join(lhs)} = ", True)[0].split("\n", 1)[1]

    pairs, tails = list(zip(outs, trees)), "".join(map(put, tail))
    # outs only the sample reads (an f-string's prefix is no name) are computed once, at the sample,
    # unless a guard names them by place, or they can raise, so that stages 2 to 4 would skip an error
    read = set(outs) if any(map(_may_turn_complex, trees)) else {*leaves, *re.findall(r"\w+\b(?!\")", tails)}
    late = [(o, e) for o, e in pairs if o not in read and trees.count(e) == 1]
    once = body(late).split("\n", 1)[1] if late else ""
    if any(op in once for op in ("/", "**", "_c_", "_h_")):
        late, once = [], ""
    kernels = body([p for p in pairs if p not in late]) if trees else "\n"  # a text-only stage has none
    stage = kernels.split("\n", 1)[1] + tails
    entries = [(v, f"_{a}" if listed else "") for v in "xy" for a in range(1, n + 1)]
    base = [f"{v}0{s}" for v, s in entries] if listed else [f"{x}0" for x in state]
    slopes = lambda k="": [f"k{v}{k}{s}" for v, s in entries]  # noqa: E731 - stage k's, or the current
    params = ("x0", "y0") if listed else base
    unpack = f"    {join(base[:n])} = x0\n    {join(base[n:])} = y0\n" if listed else ""
    here = f"    {t}, {join(state)} = {t}0, {join(base)}\n"
    first, head = f"{here}{start}{stage}{once}{put(sample)}", ""
    if isinstance(last, str):  # the last sample runs the text, then `sample`
        end = f"{here}{put(last)}{put(sample)}"
    elif last:
        head = f"{body(list(zip(outs, last)))}{put(sample)}    return (s0, s1, s2, {join(state)})\n"
        end = f"    s0, s1, s2 = _f({t}0, {join(base)})[:3]\n"
    rest = ""
    for k, h in ((1, "h2"), (2, "h2"), (3, "dt")):
        point = (f"{b} + {h} * {s}" for b, s in zip(base, slopes(k)))
        rest += f"    {join(slopes(k))} = {join(slopes())}\n    {t}, {join(state)} = {t}0 + {h}, {join(point)}\n{stage}"
    new = [f"{b} + h6 * ({s1} + 2 * {s2} + 2 * {s3} + {s})" for b, s1, s2, s3, s in zip(base, *map(slopes, (1, 2, 3, "")))]
    rest += f"    {join(base)} = {join(new)}\n"
    at_end, more = ("_i == _n", "_i < _n") if inline else ("dt is None", "dt is not None")  # the last sample
    sampled = f"{first}    if {more}:\n{indent(rest, '    ')}" if not last else (
        f"    if {at_end}:\n{indent(end, '    ')}    else:\n{indent(first + rest, '    ')}")
    ns = {"__builtins__": {}, **_SCALAR_HELPERS, "abs": abs, "max": max, "range": range, **bound, **dict(names)}
    at = (f"[{join(base[:n])}]", f"[{join(base[n:])}]") if listed else base
    if not inline:  # the per-sample step a sample that raises in the loop is taken again on
        src = f"def _step({t}0, {join(params)}, dt, h2, h6):\n{unpack}{sampled}    return (s0, s1, s2, {join(at)})\n"
        exec(head + src, ns)  # noqa: S102 - generated from validated trees
        return ns["_step"]
    slow = partial(_step, trees, args, outs, tail, sample, last, names, start, False)
    head = head and _with_fallback(head, head, ns, slow, ", None, 0.0, 0.0")
    row = lambda c: join(f"_c{c}[_i, {a}]" for a in range(n)) if listed else f"_c{c}[_i]"  # noqa: E731
    within = " and ".join(f"{-BLOWUP_LIMIT!r} <= {b} <= {BLOWUP_LIMIT!r}" for b in base)  # false for NaN too
    src = f"def _loop(_tg, {join(params)}, dt, h2, h6, _c0, _c1, _c2, _c3, _n, s0):\n{unpack}    for _i in range(_n + 1):\n"
    src += f"        {t}0 = _tg[_i]\n        if not ({within}):\n            return _i\n        {row(0)} = {join(base[:n])}\n"
    if any(op in kernels for op in ("/", "**", "_c_")):
        ns["_h_slow"] = slow
        retry = f"s0, s1, s2, {join(params)} = _h_slow()({t}0, {join(at)}, dt if _i < _n else None, h2, h6)"
        sampled = f"    try:\n{indent(sampled, '    ')}    except (ArithmeticError, ValueError):\n        {retry}\n"
        sampled += indent(unpack, "    ")
    store = f"        {row(1)} = s0\n        {row(2)} = s1\n        _c3[_i] = s2\n"
    exec(f"{head}{src}{indent(sampled, '    ')}{store}", ns)  # noqa: S102 - generated from validated trees
    return ns["_loop"]
