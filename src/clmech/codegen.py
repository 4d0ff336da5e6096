"""Generated code: `exprcore` trees compiled to Python functions (`compile_expr`) and to RK4
sample loops (`compile_step`), with the values and errors `evaluate` gives. `_codegen` writes
their text and `_fold` folds a step's constants bit for bit. The array form of a kernel,
`compile_expr(vectorized=True)`, runs in `lanes`, which is imported only there.
"""

from __future__ import annotations

import cmath
import re
from functools import lru_cache, partial
from textwrap import indent
from typing import Callable, Mapping

from .exprcore import _CMATH, _INLINE_CALLS, ONE, ZERO, BinOp, Call, Const, DomainError, Expr, ExprError, Neg, Sym
from .exprcore import UnboundSymbol, _apply_call, _domain_div, _domain_pow, evaluate, free_symbols, subs

BLOWUP_LIMIT = 1e12  # the bound of a sample loop's state entries


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


_SCALAR_HELPERS = {
    "_h_div": _domain_div,
    "_h_pow": _domain_pow,
    "_h_call": _apply_call,
    "_h_not_real": _not_real,
    **{f"_c_{fn}": _CMATH[fn] for fn in _INLINE_CALLS},
    "ArithmeticError": ArithmeticError,
    "ValueError": ValueError,
}


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
    if vectorized:  # imported here, not at the top: `lanes` imports numpy and this module
        from .lanes import _LANE_HELPERS, _lane_kernel
    helpers = _LANE_HELPERS if vectorized else _SCALAR_HELPERS
    ns = {"__builtins__": {}, **helpers, **bound}
    # where an inline operation raises (ArithmeticError, or cmath's ValueError), the call is made again on
    # `_h_slow()`, the helper kernel, compiled then; no `try` without an inline op, since a `try` slows the compile
    if inline and any(op in src for op in ("/", "**", "_c_")):
        ns["_h_slow"] = partial(_compile, trees, args, (), bare, real, False, False)
        head, body = src.split("\n", 1)
        fallback = f"    except (ArithmeticError, ValueError):\n        return _h_slow()({', '.join(args)})\n"
        src = f"{head}\n    try:\n{indent(body, '    ')}{fallback}"
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


@lru_cache(maxsize=None)
def compile_step(
    trees: tuple, args: tuple, outs: tuple, tail: tuple, sample, last: tuple | str = (), names: tuple = (), start: str = ""
) -> Callable[..., int | None]:
    """The sample loop of the classical RK4 step (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.1)
    of a state (x, y), generated as `_loop(grid, x0, y0, dt, h2, h6, c0, c1, c2, c3, n, s0)`: at each of
    the n + 1 samples it returns the sample's index if a state entry is NaN or beyond +-BLOWUP_LIMIT,
    else stores x and the sample's s0, s1, s2 in the memoryview columns c0..c3 ([k], or [k, a] for a
    list state) and, but at the last sample, steps the state in place. The argument s0 is the text's
    s0 before the first sample sets it: a Newton's warm start.

    `args` is (t, x, y) for a float state, or (t, x_1..x_n, y_1..y_n) for a state of n > 1 coordinates
    passed as the lists x0 and y0. One template writes both, entry by entry in scalars: a float state's
    entries are its parameters `{x}0, {y}0` with the slope `kx, ky`, a list state's the scalars `x0_a,
    y0_a` that x0 and y0 unpack to, with `kx_a, ky_a`, so each entry rounds as a float state's does.
    Each stage assigns its point to `args` (t only where a tree, a guard, which names the state, or
    a `tail` piece reads it), runs the real kernel body of the folded `trees` with the values bound
    to `outs`, then the `tail` pieces, which set the slope; `sample` sets s0, s1, s2 after stage 1,
    and the text `start` runs before stage 1 alone. A piece is text, or a pair (names, trees) setting
    the names to the trees' values, folded by `_fold` and computed with plain `/` and `**` as text is.
    With no trees a stage is its tail alone. Constant outs go into those trees (texts write their
    literals); the body assigns them only if it checks for an imaginary part, naming a map by its
    place. An out only `sample` reads, whose tree cannot raise, is computed once, at the sample. The
    last sample runs stage 1 alone, or, where `last` is text rather than (), that text, then `sample`.
    `names` pairs are bound as globals: the functions a text calls, a `compile_expr` kernel among them.

    The kernel body and the pairs compute with `compile_expr`'s fast path. Where one of its inline
    operations raises (ArithmeticError, or cmath's ValueError; a text raises neither), the loop calls
    the helper kernel of each piece with inline arithmetic on the stage's locals, then re-raises: the
    body's `_h_slow`, then the pairs' `_h_slow1`, `_h_slow2`, ... in stage order, each compiled on its
    first call, as `compile_expr`'s is. The pieces before the one that raised return, and its helper
    raises the DomainError that `evaluate` gives. After `last` only the sample runs, where the other
    helpers would see a point no stage reached; each caller's sample is + - * and abs, with no inline
    operation. Loops are cached on their arguments: a derive of the same system reuses its loop.
    """
    bound: dict = {}
    t, state, n = args[0], args[1:], (len(args) - 1) // 2
    listed, join = n > 1, ", ".join
    leaves = {o: e for o, e in zip(outs, trees) if isinstance(e, Const)}
    reads = lambda values: tuple(sorted(frozenset().union(*map(free_symbols, values))))  # noqa: E731

    def body(pairs: list) -> tuple[str, tuple]:
        guarded = any(_may_turn_complex(e) for _, e in pairs)
        # a guard names a map by its place, so a guarded body keeps every out, and any body one
        kept = [(o, e) for o, e in pairs if guarded or o not in leaves] or pairs[:1]
        lhs, kept = f"{join(o for o, _ in kept)} = ", tuple(e for _, e in kept)
        return _codegen(kept, args, len(kept) == 1, guarded, bound, lhs, True)[0].split("\n", 1)[1], kept

    def fold(piece):  # a pair's trees with the constant outs put in; they read args, outs and the tail's names
        return piece if isinstance(piece, str) else (piece[0], tuple(_fold(e, leaves) for e in piece[1]))

    def put(piece) -> str:  # a text, or a folded pair
        if isinstance(piece, str):
            return piece + "\n"
        lhs, values = piece
        return _codegen(values, reads(values), len(lhs) == 1, False, bound, f"{join(lhs)} = ", True)[0].split("\n", 1)[1]

    pairs, folded = list(zip(outs, trees)), [fold(piece) for piece in (*tail, sample)]
    texts = [put(piece) for piece in folded]
    # outs only the sample reads (an f-string's prefix is no name) are computed once, at the sample,
    # unless a guard names them by place, or they can raise, so that stages 2 to 4 would skip an error
    guarded, tails = any(map(_may_turn_complex, trees)), "".join(texts[:-1])
    read = set(outs) if guarded else {*leaves, *re.findall(r"\w+\b(?!\")", tails)}
    late = [(o, e) for o, e in pairs if o not in read and trees.count(e) == 1]
    once = body(late)[0] if late else ""
    if any(op in once for op in ("/", "**", "_c_", "_h_")):
        late, once = [], ""
    kernels, kept = body([p for p in pairs if p not in late]) if trees else ("", ())  # a text-only stage has none
    stage = kernels + tails
    # the trees of each piece with inline arithmetic, in stage order, for its helper kernel
    candidates = [(kept, kernels), *((p[1], src) for p, src in zip(folded, texts) if not isinstance(p, str))]
    slow = [values for values, src in candidates if any(op in src for op in ("/", "**", "_c_"))]
    entries = [(v, f"_{a}" if listed else "") for v in "xy" for a in range(1, n + 1)]
    base = [f"{v}0{s}" for v, s in entries] if listed else [f"{x}0" for x in state]
    slopes = lambda k="": [f"k{v}{k}{s}" for v, s in entries]  # noqa: E731 - stage k's, or the current
    params = ("x0", "y0") if listed else base
    unpack = f"    {join(base[:n])} = x0\n    {join(base[n:])} = y0\n" if listed else ""
    # t is set where a tree, a guard (which names the state) or a piece of the tail reads it
    timed = guarded or t in read.union(*map(free_symbols, trees))
    here = f"    {f'{t}, ' * timed}{join(state)} = {f'{t}0, ' * timed}{join(base)}\n"
    first = f"{here}{start}{stage}{once}{texts[-1]}"
    rest = ""
    for k, h in ((1, "h2"), (2, "h2"), (3, "dt")):
        point = (f"{b} + {h} * {s}" for b, s in zip(base, slopes(k)))
        rest += f"    {join(slopes(k))} = {join(slopes())}\n    {f'{t}, ' * timed}{join(state)} = {f'{t}0 + {h}, ' * timed}{join(point)}\n{stage}"
    new = [f"{b} + h6 * ({s1} + 2 * {s2} + 2 * {s3} + {s})" for b, s1, s2, s3, s in zip(base, *map(slopes, (1, 2, 3, "")))]
    rest += f"    {join(base)} = {join(new)}\n"
    sampled = f"{first}    if _i < _n:\n{indent(rest, '    ')}" if not last else (
        f"    if _i == _n:\n{indent(here + put(last) + put(folded[-1]), '    ')}    else:\n{indent(first + rest, '    ')}")
    ns = {"__builtins__": {}, **_SCALAR_HELPERS, "abs": abs, "max": max, "range": range, **bound, **dict(names)}
    row = lambda c: join(f"_c{c}[_i, {a}]" for a in range(n)) if listed else f"_c{c}[_i]"  # noqa: E731
    within = " and ".join(f"{-BLOWUP_LIMIT!r} <= {b} <= {BLOWUP_LIMIT!r}" for b in base)  # false for NaN too
    src = f"def _loop(_tg, {join(params)}, dt, h2, h6, _c0, _c1, _c2, _c3, _n, s0):\n{unpack}    for _i in range(_n + 1):\n"
    src += f"        {t}0 = _tg[_i]\n        if not ({within}):\n            return _i\n        {row(0)} = {join(base[:n])}\n"
    if slow:
        calls = ""
        for k, values in enumerate(slow):
            ns[f"_h_slow{k or ''}"] = partial(_compile, values, reads(values), (), False, True, False, False)
            calls += f"        _h_slow{k or ''}()({join(reads(values))})\n"
        sampled = f"    try:\n{indent(sampled, '    ')}    except (ArithmeticError, ValueError):\n{calls}        raise\n"
    store = f"        {row(1)} = s0\n        {row(2)} = s1\n        _c3[_i] = s2\n"
    exec(f"{src}{indent(sampled, '    ')}{store}", ns)  # noqa: S102 - generated from validated trees
    return ns["_loop"]
