import cmath
import copy
import functools
import math
import pickle
import re
import struct
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from clmech import codegen as gen  # the spies below keep the real `_codegen` in a local `codegen`
from clmech import exprcore
from clmech.codegen import _codegen, compile_expr
from clmech.corpus import bundled_corpus, corpus_scenario
from clmech.exprcore import (
    BinOp,
    Call,
    Const,
    DomainError,
    Expr,
    ExprSyntaxError,
    Sym,
    UnboundSymbol,
    UnknownFunction,
    ZERO,
    _conj_split,
    conj_expr,
    diff,
    evaluate,
    free_symbols,
    parse,
    simplify,
    split,
    subs,
    to_source,
)
from clmech.lagrangian import derive_eom

finite = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


def ev(src, **bindings):
    return evaluate(parse(src), bindings)


# one complex node each, which `split` can only split in the conjugate form
FALLBACK_INPUTS = ("exp(i*q)", "1/(1 + i*qd)", "(q + i*qd)^2", "sqrt(1 + i*q)")

# the real terms tests/test_oracle.py multiplies by complex coefficients;
# qa, qb and va, vb name the coordinates and velocities a term uses
TERM_TEMPLATES = (
    "{va}*{vb}",
    "{qa}*{vb}",
    "cos({qa})",
    "exp(-{qa}^2/2)",
    "ln(1 + {qa}^2)",
    "sqrt(1 + {va}^2)",
    "t*{qa}",
)


class TestParse:
    def test_precedence(self):
        assert ev("2 + 3 * 4 ^ 2") == 50

    def test_power_right_associative(self):
        assert ev("2^3^2") == 512

    def test_unary_minus_binds_below_power(self):
        assert ev("-2^2") == -4

    def test_imaginary_unit(self):
        assert parse("i") is Const(1j)
        assert ev("i*i") == -1

    def test_functions(self):
        assert ev("sin(t)", t=math.pi / 2) == pytest.approx(1.0)
        assert ev("ln(exp(2))") == pytest.approx(2.0)

    def test_whitespace_and_parens(self):
        assert ev(" ( q + 1 ) * 2 ", q=3) == 8

    def test_threads_building_equal_trees_get_one_object(self):
        # sources no other test parses, so every node is built while 4
        # threads race to intern it
        sources = [f"sin(q*{k}.5 + qd)^2 - {k}.25*exp(t)/(1 + q^{k})" for k in range(300)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                trees = list(pool.map(lambda _: [parse(s) for s in sources], range(4), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert all(a is b for other in trees[1:] for a, b in zip(trees[0], other))

    @pytest.mark.parametrize("bad", ["q +", "(q", "q q", "", "1..2", "sin 3", "*q"])
    def test_syntax_errors(self, bad):
        with pytest.raises(ExprSyntaxError):
            parse(bad)

    def test_unknown_function(self):
        with pytest.raises(UnknownFunction):
            parse("sinh(q)")


class TestEvaluate:
    def test_unbound_symbol(self):
        with pytest.raises(UnboundSymbol):
            ev("m*qd", m=1.0)

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            ev("1/q", q=0.0)

    def test_zero_to_negative_power(self):
        with pytest.raises(DomainError):
            ev("q^(0-1)", q=0.0)

    def test_ln_of_nonpositive(self):
        with pytest.raises(DomainError):
            ev("ln(q)", q=-1.0)

    def test_negative_base_fractional_power_takes_principal_branch(self):
        z = ev("q^0.5", q=-4.0)
        assert z == pytest.approx(2j)


class TestOperators:
    def test_overloads_build_trees(self):
        q = Sym("q")
        e = (q + 1) * 2 - q / 4
        assert evaluate(e, {"q": 4.0}) == pytest.approx(9.0)

    def test_pow_and_neg(self):
        q = Sym("q")
        assert evaluate(-(q**2), {"q": 3.0}) == -9

    def test_rejects_unknown_operand(self):
        with pytest.raises(TypeError):
            Sym("q") + "nope"


class TestDiff:
    @given(finite)
    def test_polynomial(self, x):
        e = parse("q^3 - 2*q")
        assert evaluate(diff(e, "q"), {"q": x}) == pytest.approx(3 * x * x - 2)

    @given(st.floats(min_value=-3, max_value=3, allow_nan=False))
    @settings(max_examples=50)
    def test_chain_and_product_vs_finite_difference(self, x):
        e = parse("sin(q^2) * exp(0.3*q)")
        h = 1e-6
        fd = (evaluate(e, {"q": x + h}) - evaluate(e, {"q": x - h})) / (2 * h)
        assert evaluate(diff(e, "q"), {"q": x}) == pytest.approx(fd, abs=1e-6, rel=1e-6)

    def test_quotient_rule(self):
        e = parse("q / (1 + q^2)")
        val = evaluate(diff(e, "q"), {"q": 2.0})
        assert val == pytest.approx((1 - 4) / 25)
        # a tree built apart is the parsed one, and its derivative, derived
        # afresh, is the first derivative's object
        first = diff(e, "q")
        diff.cache_clear()
        simplify.cache_clear()
        q = Sym("q")
        assert q / (1 + q**2) is e
        assert diff(q / (1 + q**2), "q") is first

    def test_other_symbols_are_constants(self):
        assert simplify(diff(parse("m*qd"), "q")) == Const(0.0)

    def test_a_tree_free_of_the_symbol_differentiates_to_zero(self):
        # the quotient rule would leave 0/(1 + q^2)^2 behind
        assert diff(parse("1/(1 + q^2)"), "qd") is ZERO


class TestSimplify:
    def test_identities(self):
        q = Sym("q")
        assert simplify(q + Const(0.0)) == q
        assert simplify(q * Const(1.0)) == q
        assert simplify(q * Const(0.0)) == Const(0.0)

    def test_constant_folding(self):
        assert simplify(parse("2*3 + 4")) is Const(10.0)
        # a constant is its exact value: the sign of a zero tells two apart
        assert Const(1) is Const(1.0)
        assert Const(0.0) is not Const(-0.0)
        assert Const(0.0).value == Const(-0.0).value

    @pytest.mark.parametrize("src", ["exp(1000)", "10^400", "(0-10)^401"])
    def test_overflowing_constant_stays_unfolded(self, src):
        e = simplify(parse(src))
        assert not isinstance(e, Const)
        with pytest.raises(DomainError, match="overflowed"):
            evaluate(e, {})

    @pytest.mark.parametrize("src", ["exp(1000)*(1 - 1)", "(2 - 2)*exp(1000)", "exp(1000)^(1 - 1)"])
    def test_a_zero_factor_or_exponent_keeps_an_overflowing_constant(self, src):
        e = simplify(parse(src))
        assert not isinstance(e, Const)
        with pytest.raises(DomainError, match="overflowed"):
            evaluate(e, {})
        assert simplify(parse(src.replace("exp(1000)", "q"))) in (Const(0.0), Const(1.0))

    @pytest.mark.parametrize("src", ["sqrt(-2)", "sqrt(0 - 2)", "sin(-2)"])
    def test_a_call_of_a_constant_folds_to_its_value(self, src):
        # -2 folds to a complex constant with a negative zero imaginary part,
        # which would put sqrt on the other side of its branch cut
        e = parse(src)
        assert _bits(simplify(e).value) == _bits(evaluate(e, {}))

    def test_preserves_value(self):
        e = parse("(q + 0) * (1 * qd) + 0 * t")
        s = simplify(e)
        b = {"q": 1.7, "qd": -0.3, "t": 5.0}
        assert evaluate(s, b) == evaluate(e, b)


class TestSource:
    @pytest.mark.parametrize(
        "src",
        ["0.5*m*qd^2 - 0.5*k*q^2", "i*a0*q*qd", "sin(t)*q + exp(0-t)", "-q^2/3"],
    )
    def test_round_trip(self, src):
        e = parse(src)
        assert parse(src) is e
        assert copy.deepcopy(e) is e and pickle.loads(pickle.dumps(e)) is e
        b = {"m": 1.1, "k": 0.7, "a0": 2.0, "q": 0.4, "qd": -1.2, "t": 0.9}
        assert evaluate(parse(to_source(e)), b) == evaluate(e, b)

    def test_complex_constant_renders_with_i(self):
        assert "i" in to_source(Const(0.5j))


class TestFreeSymbols:
    def test_collects(self):
        assert free_symbols(parse("0.5*m*qd^2 - 0.5*k*q^2")) == {"m", "k", "q", "qd"}

    def test_imaginary_unit_not_free(self):
        assert free_symbols(parse("i*q")) == {"q"}


class TestConjugationSplit:
    @given(finite, finite)
    @settings(max_examples=50)
    def test_conj_commutes_with_eval(self, q, qd):
        e = parse("(0.5*i)*(qd^2 - q^2) + 0.3*q*qd")
        b = {"q": q, "qd": qd}
        # real variables: conjugating the tree must conjugate the value bitwise
        assert evaluate(conj_expr(e), b) == evaluate(e, b).conjugate()

    @given(finite, finite)
    @settings(max_examples=50)
    def test_re_im_reassemble(self, q, qd):
        b = {"q": q, "qd": qd}
        # all but the first split a complex node in the conjugate form
        for src in ("(1+2*i)*q^2 + i*q*qd", *FALLBACK_INPUTS):
            e = parse(src)
            z = evaluate(e, b)
            re, im = split(e)
            assert evaluate(re, b) == pytest.approx(z.real)
            assert evaluate(im, b) == pytest.approx(z.imag)

    def test_real_expression_has_structurally_zero_imag(self):
        e = parse("0.5*m*qd^2 - 0.5*k*q^2")
        assert split(e) == (simplify(e), Const(0.0))

    def test_split_values_are_real_typed(self):
        val = evaluate(split(parse("i*q*qd"))[0], {"q": 1.0, "qd": 2.0})
        assert val.imag == 0.0

    def test_bundled_and_oracle_inputs_need_no_fallback(self, monkeypatch):
        fallbacks = []
        monkeypatch.setattr(exprcore, "_conj_split", lambda e: fallbacks.append(e) or _conj_split(e))

        def count(e) -> int:
            fallbacks.clear()
            split.cache_clear()  # a cached node would not be split again
            split(e)
            return len(fallbacks)

        for src in FALLBACK_INPUTS:
            assert count(parse(src)) == 1
        names = dict(qa="q1", qb="q2", va="qd1", vb="qd2")
        terms = [parse(f"(0.3 + 0.7*i)*({t.format(**names)})") for t in TERM_TEMPLATES]
        lagrangians = [sc.build_lagrangian() for sc in bundled_corpus()]
        for e in terms + [lagr.expr for lagr in lagrangians]:
            assert count(e) == 0

        def constants(e):
            children = [x for x in vars(e).values() if isinstance(x, Expr)]
            return [e.value] if isinstance(e, Const) else sum(map(constants, children), [])

        for lagr in lagrangians:
            assert not any(c.imag for c in constants(lagr.L_expr) + constants(lagr.M_expr))


class TestSubs:
    def test_replaces_a_symbol_by_a_tree(self):
        e, tree = parse("q*qd + sin(qd)^2"), parse("(p - q)/2")
        (got,) = subs((e,), {"qd": tree})
        assert free_symbols(got) == {"p", "q"}
        b = {"p": 0.7, "q": -0.4}
        assert evaluate(got, b) == evaluate(e, {**b, "qd": evaluate(tree, b)})

    def test_result_is_simplified(self):
        assert subs((parse("0.5*m*2*qd + k*q"),), {"qd": Const(0.0)}) == (simplify(parse("k*q")),)
        assert subs((parse("q*t"),), {"qd": Sym("p")}) == (parse("q*t"),)

    def test_several_names_in_one_call(self):
        e, tree = parse("m*q*qd + sin(qd)^2 - m"), parse("(p - q)/2")
        (got,) = subs((e,), {"qd": tree, "m": 3.0})
        assert free_symbols(got) == {"p", "q"}
        b = {"p": 0.7, "q": -0.4}
        assert evaluate(got, b) == evaluate(e, {**b, "qd": evaluate(tree, b), "m": 3.0})

    def test_a_tree_free_of_every_name_is_the_same_object(self):
        e, held = parse("q*1 + 0*t"), parse("qd*1")  # neither is simplified
        got = subs((e, held), {"qd": Sym("p"), "m": 2.0})
        assert got[0] is e and got[1] is Sym("p")

    @given(st.deferred(lambda: FOLD_TREES), st.sampled_from([-2.0, 0.0, 0.5, 3.0]))
    @settings(max_examples=200, deadline=None)
    def test_equals_chained_one_name_substitutions(self, e, value):
        tree = parse("(p - q)/2")
        (got,) = subs((e,), {"a": tree, "b": value})
        assert got is subs(subs((e,), {"a": tree}), {"b": value})[0]
        assert got is subs(subs((e,), {"b": value}), {"a": tree})[0]

    def test_a_number_goes_in_as_the_const_compile_expr_folds(self, monkeypatch):
        trees = []
        codegen = gen._codegen
        monkeypatch.setattr(gen, "_codegen", lambda t, *a: trees.append(t) or codegen(t, *a))
        e = parse("m*q")
        assert compile_expr(e, ("q",), {"m": 2})(3.0) == 6.0
        assert subs((e,), {"m": 2}) == subs((e,), {"m": 2.0}) == trees[0]
        assert subs((Sym("m"),), {"m": 2})[0] is Const(2.0)


class TestCompile:
    def test_matches_evaluate(self):
        e = parse("0.5*m*qd^2 - 0.5*k*q^2 + sin(t)")
        fn = compile_expr(e, ("t", "q", "qd"), {"m": 2.0, "k": 3.0})
        b = {"t": 0.3, "q": 1.1, "qd": -0.6, "m": 2.0, "k": 3.0}
        assert fn(0.3, 1.1, -0.6) == evaluate(e, b)

    def test_missing_const_raises(self):
        with pytest.raises(UnboundSymbol):
            compile_expr(parse("m*q"), ("q",), {})

    def test_division_by_zero_at_runtime(self):
        fn = compile_expr(parse("1/q"), ("q",), {})
        with pytest.raises(DomainError):
            fn(0.0)

    def test_domain_pow_at_runtime(self):
        fn = compile_expr(parse("q^(0-2)"), ("q",), {})
        with pytest.raises(DomainError):
            fn(0.0)

    @given(finite, finite, finite)
    @settings(max_examples=50)
    def test_compiled_agrees_on_samples(self, t, q, qd):
        e = parse("cos(q)*qd + t^2 - i*q")
        fn = compile_expr(e, ("t", "q", "qd"), {})
        assert fn(t, q, qd) == evaluate(e, {"t": t, "q": q, "qd": qd})


def _bits(z: complex) -> bytes:
    z = complex(z)
    return struct.pack("<dd", z.real, z.imag)


@functools.lru_cache(maxsize=None)
def _bundled_systems():
    """(params, derived map trees, real-map kernel) per bundled scenario."""
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for sc in bundled_corpus():
            lagr = sc.build_lagrangian()
            eom = derive_eom(lagr, sc.probe_state(), closure_mass=sc.closure_mass)
            trees = eom.f + eom.g + sum(eom.A, ()) + sum(eom.f_q, ()) + eom.f_t
            out.append((lagr.params, trees, eom.maps.kernel))
    return out


class TestFusedKernel:
    def test_shared_subtrees_are_computed_once(self):
        e = parse("sin(q*qd)^2 + cos(q*qd)")
        trees = (e, diff(e, "q"))
        src, _ = _codegen(trees, ("q", "qd"), False, False)
        assert src.count("_h_call('sin'") == 1
        assert src.count("_h_call('cos'") == 1
        assert src.count("(q * qd)") == 1
        b = {"q": 0.3, "qd": -1.2}
        fn = compile_expr(trees, ("q", "qd"))
        assert fn(0.3, -1.2) == tuple(evaluate(tree, b) for tree in trees)

    def test_real_kernel_rejects_an_imaginary_part(self):
        fn = compile_expr((parse("sqrt(q)"),), ("q",), real=True)
        assert fn(4.0) == (2.0,)
        with pytest.raises(DomainError, match="q=-1.0"):
            fn(-1.0)

    @pytest.mark.parametrize("power", [2.0, 101.0, 102.0])
    def test_a_real_call_stays_real_under_a_high_power(self, power):
        # a complex sin(q) would go through Python's polar complex power above
        # exponent 100 and leave an imaginary part of about 1e-22
        e = BinOp("^", Call("sin", Sym("q")), Const(power))
        want = evaluate(e, {"q": -1.0})
        assert isinstance(want, float)
        assert compile_expr((e,), ("q",), real=True)(-1.0) == (want,)
        lanes = compile_expr((e,), ("q",), real=True, vectorized=True)(np.array([1.0, -1.0]))
        assert lanes[0].tolist() == [evaluate(e, {"q": 1.0}), want]

    def test_signed_zero_constants_are_kept_apart(self):
        # Const(0.0) == Const(-0.0), but q*0.0 and q*-0.0 differ at q = -1
        e = Sym("q") * Const(0.0) + Sym("q") * Const(-0.0)
        assert _bits(compile_expr(e, ("q",))(-1.0)) == _bits(evaluate(e, {"q": -1.0}))

    @given(finite, finite, finite)
    @settings(max_examples=60)
    def test_bundled_maps_match_evaluate_bitwise(self, t, q, qd):
        for params, trees, kernel in _bundled_systems():
            b = {**params, "t": t, "q": q, "qd": qd}
            expected = [evaluate(tree, b) for tree in trees]
            fused = compile_expr(trees, ("t", "q", "qd"), params)(t, q, qd)
            assert [_bits(v) for v in fused] == [_bits(v) for v in expected]
            assert [_bits(v) for v in kernel(t, q, qd)] == [_bits(v.real) for v in expected]


@functools.lru_cache(maxsize=None)
def _bundled_kernels():
    """(name, scalar kernel, array kernel) for each bundled scenario's real
    maps and Lagrangian."""

    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for sc in bundled_corpus():
            lagr = sc.build_lagrangian()
            eom = derive_eom(lagr, sc.probe_state(), closure_mass=sc.closure_mass)
            args = ("t",) + lagr.coords + lagr.vels
            out += [
                (f"{sc.name} maps", eom.maps.kernel, eom.maps.lanes),
                (
                    f"{sc.name} lagrangian",
                    compile_expr((lagr.expr,), args, lagr.params),
                    compile_expr((lagr.expr,), args, lagr.params, vectorized=True),
                ),
            ]
    return out


def _ulps(a: complex, b: complex) -> float:
    """|a - b| in ulps of the larger magnitude (normwise for complex values)."""
    a, b = complex(a), complex(b)
    return 0.0 if a == b else abs(a - b) / math.ulp(max(abs(a), abs(b)))


STATES = st.lists(st.tuples(finite, finite, finite), min_size=1, max_size=40)


def _lanes(samples):
    return [np.array(column) for column in zip(*samples)]


def _where(samples, k: int) -> str:
    return ", ".join(f"{n}={x!r}" for n, x in zip(("t", "q", "qd"), samples[k]))


def _first_scalar_failure(fn, samples):
    """(lane, message) of the first sample whose scalar call raises DomainError."""
    for k, sample in enumerate(samples):
        try:
            fn(*sample)
        except DomainError as err:
            return k, str(err)
    return None


VARIABLES = st.sampled_from([Sym("t"), Sym("q"), Sym("qd")])


def _positive_tree_extend(sub):
    """Trees whose every value is positive, so no step cancels: ln only of
    2 + x and exp only of tanh(x), which also keeps exp from overflowing."""
    return st.one_of(
        st.builds(BinOp, st.sampled_from("+*/"), sub, sub),
        st.builds(lambda x, c: BinOp("^", x, Const(c)), sub, st.sampled_from([-1.0, 0.5, 1.5, 2.0])),
        st.builds(lambda x: Call("sqrt", x), sub),
        st.builds(lambda x: Call("tanh", x), sub),
        st.builds(lambda x: Call("ln", BinOp("+", Const(2.0), x)), sub),
        st.builds(lambda x: Call("exp", Call("tanh", x)), sub),
    )


POSITIVE_TREES = st.recursive(
    VARIABLES | st.floats(0.5, 2.0).map(Const), _positive_tree_extend, max_leaves=6
)
POSITIVE_STATES = st.lists(
    st.tuples(*[st.floats(0.25, 3.0)] * 3), min_size=1, max_size=20
)
# few distinct values, zero and negatives among them, so that divisions by
# zero, logarithms of nonpositive reals and complex square roots all occur
SMALL = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0])
DOMAIN_TREES = st.recursive(
    VARIABLES | SMALL.map(Const),
    lambda sub: st.builds(BinOp, st.sampled_from("+-*/^"), sub, sub)
    | st.builds(Call, st.sampled_from(["sqrt", "ln"]), sub),
    max_leaves=6,
)


class TestArrayKernel:
    @given(STATES)
    @settings(max_examples=60, deadline=None)
    def test_bundled_lanes_match_the_scalar_kernel_bitwise(self, samples):
        for name, scalar, array in _bundled_kernels():
            got = array(*_lanes(samples))
            for k, sample in enumerate(samples):
                want = scalar(*sample)
                assert [_bits(v[k]) for v in got] == [_bits(v) for v in want], (name, k)

    @given(POSITIVE_TREES, POSITIVE_STATES)
    @settings(max_examples=300, deadline=None)
    def test_generated_trees_agree_within_8_ulp(self, tree, samples):
        # numpy's tanh differs from libm's by up to 3 ulp and its log from
        # cmath's by up to 2, and an exponent or a product adds them up
        args = ("t", "q", "qd")
        scalar = compile_expr(tree, args)
        got = np.broadcast_to(compile_expr(tree, args, vectorized=True)(*_lanes(samples)), len(samples))
        for k, sample in enumerate(samples):
            assert _ulps(got[k], scalar(*sample)) <= 8, (to_source(tree), sample)

    @given(DOMAIN_TREES, st.lists(st.tuples(SMALL, SMALL, SMALL), min_size=1, max_size=12), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_raises_exactly_where_a_lane_raises(self, tree, samples, real):
        args = ("t", "q", "qd")
        failure = _first_scalar_failure(compile_expr((tree,), args, real=real), samples)
        array = compile_expr((tree,), args, real=real, vectorized=True)
        if failure is None:
            array(*_lanes(samples))  # raises nothing
            return
        k, message = failure
        with pytest.raises(DomainError) as caught:
            array(*_lanes(samples))
        text = str(caught.value)
        # the first failing lane, named by its arguments, and the scalar
        # kernel's reason (the complex value itself may differ by an ulp)
        assert text.endswith(" at " + _where(samples, k)), (text, k)
        assert text.split(" took ")[0].split(" at ")[0] == message.split(" took ")[0].split(" at ")[0]

    def test_constant_outputs_broadcast_to_the_lanes(self):
        fn = compile_expr((Sym("q"), Const(2.0), Const(1j)), ("q",), vectorized=True)
        q, two, unit = fn(np.array([1.0, 3.0, 5.0]))
        assert two.tolist() == [2.0, 2.0, 2.0] and unit.tolist() == [1j, 1j, 1j]

    def test_negative_base_goes_complex_in_its_own_lanes(self):
        fn = compile_expr(parse("q^0.5"), ("q",), vectorized=True)
        got = fn(np.array([4.0, -4.0, 9.0]))
        assert got.tolist() == [compile_expr(parse("q^0.5"), ("q",))(x) for x in (4.0, -4.0, 9.0)]
        assert got.imag.tolist() == [0.0, 2.0, 0.0]

    @pytest.mark.parametrize("src,message", [("exp(q)", "exp overflowed"), ("q^q", "power overflowed")])
    def test_overflow_is_a_domain_error_at_its_lane(self, src, message):
        q = np.array([1.0, 2.0, 800.0, 900.0])
        with pytest.raises(DomainError, match=f"^{message} at q=800.0$"):
            compile_expr(parse(src), ("q",), vectorized=True)(q)
        with pytest.raises(DomainError, match=f"^{message}$"):
            compile_expr(parse(src), ("q",))(800.0)

    @pytest.mark.parametrize("src", ["sin(q)", "cos(q)", "cos(q*(1 + i))"])
    def test_sin_or_cos_of_infinity_is_a_domain_error_at_its_lane(self, src):
        message = f"{src[:3]} of an infinite argument"
        with pytest.raises(DomainError, match=f"^{message} at q=inf$"):
            compile_expr(parse(src), ("q",), vectorized=True)(np.array([1.0, np.inf, -np.inf]))
        with pytest.raises(DomainError, match=f"^{message}$"):
            compile_expr(parse(src), ("q",))(math.inf)

    @pytest.mark.parametrize(
        "trees,q,message",
        [
            (("1/q",), [1.0, 2.0, 0.0, 3.0], "division by zero at t=2.0, q=0.0"),
            (("q^(-2)",), [1.0, 0.0, 2.0], "zero raised to a negative power at t=1.0, q=0.0"),
            (("q^q",), [1.0, 2.0, 800.0], "power overflowed at t=2.0, q=800.0"),
            (("ln(q)",), [1.0, 2.0, -1.0], "ln of nonpositive real at t=2.0, q=-1.0"),
            (("exp(q)",), [1.0, 800.0, 2.0], "exp overflowed at t=1.0, q=800.0"),
            (("q", "sqrt(q)"), [4.0, 1.0, -4.0], "real map 1 took the complex value 2j at t=2.0, q=-4.0"),
        ],
    )
    def test_error_message_for_each_failure_kind(self, trees, q, message):
        fn = compile_expr(tuple(parse(s) for s in trees), ("t", "q"), real=True, vectorized=True)
        with pytest.raises(DomainError) as caught:
            fn(np.arange(float(len(q))), np.array(q))
        assert str(caught.value) == message

    def test_error_names_the_first_lane_in_sample_order(self):
        # ln fails at lane 2 and the division, computed first, at lane 3
        fn = compile_expr(parse("1/(q - 3) + ln(q)"), ("t", "q"), vectorized=True)
        with pytest.raises(DomainError, match=r"^ln of nonpositive real at t=2.0, q=-1.0$"):
            fn(np.arange(5.0), np.array([1.0, 2.0, -1.0, 3.0, 4.0]))


def _generated_source(monkeypatch, trees, args, consts=None, real=True):
    """The source `compile_expr` generates for `trees`, compiled afresh."""
    sources = []
    codegen = gen._codegen
    monkeypatch.setattr(gen, "_codegen", lambda *a: sources.append(codegen(*a)) or sources[-1])
    items = tuple(sorted((k, complex(v)) for k, v in (consts or {}).items()))
    gen._compile.__wrapped__(trees, args, items, False, real, False)
    return sources[0][0]


def _outcome(fn, args: tuple) -> list | tuple:
    """The bytes of each value `fn(*args)` returns, or its exception's type and text."""
    try:
        return [_bits(v) for v in fn(*args)]
    except Exception as err:  # noqa: BLE001 - the type and text are compared
        return type(err), str(err)


def _unfolded_values(e: Expr, params: dict) -> list:
    """The values of the largest subtrees of `e` that hold no variable, which
    `subs` turns into constants; a failing one is left in place."""
    if free_symbols(e) <= params.keys():
        try:
            return [evaluate(e, params)]
        except DomainError:
            return []
    return [v for x in vars(e).values() if isinstance(x, Expr) for v in _unfolded_values(x, params)]


PARAMS = st.sampled_from([Sym("a"), Sym("b")])
FOLD_TREES = st.recursive(
    VARIABLES | PARAMS | st.sampled_from([-2.0, 0.5, 1.0, 3.0]).map(Const),
    lambda sub: st.builds(BinOp, st.sampled_from("+-*/"), sub, sub)
    | st.builds(lambda x, c: BinOp("^", x, c), sub, PARAMS | st.sampled_from([2.0, 0.5]).map(Const))
    | st.builds(Call, st.sampled_from(["sin", "exp", "tanh", "sqrt", "ln"]), sub),
    max_leaves=8,
)
NONZERO = st.floats(0.25, 4.0) | st.floats(-4.0, -0.25)


class TestFold:
    def test_damped_oscillator_kernel_holds_no_parameter_and_no_guard(self, monkeypatch):
        lagr = corpus_scenario("damped_oscillator").build_lagrangian()
        maps = lagr.maps
        src = _generated_source(monkeypatch, maps._all, maps._args, lagr.params)
        assert ".imag" not in src and ".real" not in src and "(0.5 * 1.0)" not in src
        assert not set(lagr.params) & set(re.findall(r"[A-Za-z_]\w*", src)), src

    def test_a_tree_that_can_turn_complex_keeps_the_guard(self, monkeypatch):
        src = _generated_source(monkeypatch, (parse("0.5*c*sqrt(q)"),), ("q",), {"c": 2.0})
        assert ".imag" in src and "_h_not_real" in src
        assert ".imag" not in _generated_source(monkeypatch, (parse("q^c"),), ("q",), {"c": 2.0})
        assert ".imag" in _generated_source(monkeypatch, (parse("q^c"),), ("q",), {"c": 2.5})

    def test_an_unguarded_kernel_keeps_int_arguments_real(self):
        fn = compile_expr(parse("c*sin(q)"), ("q",), {"c": 2.0}, real=True)
        assert type(fn(1)) is float and fn(1) == fn(1.0)

    def test_an_argument_shadows_a_constant_of_its_name(self):
        fn = compile_expr(parse("q*c + c"), ("q", "c"), {"c": 10.0, "q": 7.0})
        assert fn(2.0, 3.0) == 9.0
        assert compile_expr(parse("q + 1"), ("q",), {"q": 10.0}, real=True)(2.0) == 3.0

    @given(FOLD_TREES, NONZERO, NONZERO, st.tuples(finite, finite, finite), st.booleans())
    # ln(-1) does not fold, so the product with a + b = 0 must not fold to 0 either
    @example(parse("ln(a)*(a + b)"), -1.0, 1.0, (0.0, 0.0, 0.0), False)
    # where the inline `/`, `**` and calls raise, and where Python's operation is not the helper's
    @example(parse("a/q"), 1.0, 1.0, (0.0, 0.0, 0.0), False)
    @example(parse("a/q"), 1.0, 1.0, (0.0, -0.0, 0.0), True)
    @example(parse("q^a"), -2.0, 1.0, (0.0, 0.0, 0.0), True)  # 0.0 ** -2.0
    @example(parse("q^a"), 2.0, 1.0, (0.0, 1e200, 0.0), False)  # power overflowed
    @example(parse("exp(q)"), 1.0, 1.0, (0.0, 710.0, 0.0), True)
    @example(parse("sin(qd)"), 1.0, 1.0, (0.0, 0.0, math.inf), False)
    @example(BinOp("^", Const(-2.0), Const(-0.5)), 1.0, 1.0, (0.0, 0.0, 0.0), False)  # -2.0 ** -0.5 is real
    @example(BinOp("^", Sym("q"), Const(-math.inf)), 1.0, 1.0, (0.0, 0.0, 0.0), False)  # 0.0 ** -inf is inf
    @settings(max_examples=300, deadline=None)
    def test_folded_kernels_match_unfolded_ones_bitwise(self, tree, a, b, state, real):
        params = {"a": a, "b": b}
        folded = compile_expr((tree,), ("t", "q", "qd"), params, real=real)
        unfolded = compile_expr((tree,), ("t", "q", "qd", "a", "b"), real=real)
        items = tuple(sorted((k, complex(v)) for k, v in params.items()))
        helpers = (  # the helper kernels (`inline` off) the fast paths' raises fall back to
            gen._compile((tree,), ("t", "q", "qd"), items, False, real, False, False),
            gen._compile((tree,), ("t", "q", "qd", "a", "b"), (), False, real, False, False),
        )
        for fn, helper, values in zip((folded, unfolded), helpers, (state, (*state, a, b))):
            assert _outcome(fn, values) == _outcome(helper, values)
        # a constant part folding to zero may flip the sign of a zero result,
        # and a complex one with a zero imaginary part becomes a real literal
        values = _unfolded_values(tree, params)
        assume(all(v != 0 and cmath.isfinite(v) and (type(v) is float or v.imag) for v in values))
        try:
            want = unfolded(*state, a, b)
        except DomainError as err:
            message = str(err).split(", a=")[0]  # the folded kernel's state has no a and b
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                folded(*state)
            return
        assert [_bits(v) for v in folded(*state)] == [_bits(v) for v in want]


FOLD_LEAF = st.one_of(
    st.just(Sym("x")),
    st.sampled_from((0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 1e308, math.inf, -math.inf, math.nan)).map(Const),
)
FOLD_TREE = st.recursive(
    FOLD_LEAF,
    lambda kids: st.one_of(kids.map(exprcore.Neg), st.tuples(st.sampled_from("+-*/"), kids, kids).map(lambda t: BinOp(*t))),
    max_leaves=8,
)
_FLOAT = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b, "/": lambda a, b: a / b}


def _run_floats(e, x: float) -> float:
    """`e` at x by Python's float operations, as a generated step computes it."""
    if isinstance(e, Const):
        return e.value.real
    if isinstance(e, Sym):
        return x
    if isinstance(e, exprcore.Neg):
        return -_run_floats(e.arg, x)
    return _FLOAT[e.op](_run_floats(e.left, x), _run_floats(e.right, x))


@given(FOLD_TREE, st.sampled_from((0.0, -0.0, 1.5, -2.0, 1e308, math.inf, -math.inf, math.nan)))
@example(BinOp("+", Sym("x"), Const(-0.0)), -0.0)
@example(BinOp("+", Const(0.0), Sym("x")), -0.0)  # kept: 0.0 + x, x + 0.0 and 0.0*x move a bit here
@example(BinOp("+", Sym("x"), Const(0.0)), -0.0)
@example(BinOp("*", Const(0.0), Sym("x")), math.inf)
@example(BinOp("-", Sym("x"), Const(0.0)), -0.0)
@example(exprcore.Neg(exprcore.Neg(Sym("x"))), math.nan)
@settings(max_examples=400, deadline=None)
def test_step_fold_moves_no_bit(tree, x):
    """`codegen._fold`, the generated step's rule set: the folded tree gives every bit of the
    tree's value, signed zeros and infinities included, a NaN where it gives a NaN, or raises
    the same error. (Which of two NaN operands `+` and `*` keep depends on whether CPython 3.11
    runs them specialised, as `_solution` in test_generated_step.py notes, so NaNs are one NaN.)"""

    def outcome(e):
        try:
            v = _run_floats(e, x)
        except ArithmeticError as err:
            return type(err)
        return struct.pack("<d", v) if v == v else "nan"

    assert outcome(gen._fold(tree, {})) == outcome(tree)
    if x == x:  # with x put in as a constant, every operation on constants folds or stays
        assert outcome(gen._fold(tree, {"x": Const(x)})) == outcome(tree)


# trees of + - * and abs over two names and constants, with zero terms +-0.0 * (...) among the kids
DROP_LEAF = st.one_of(st.sampled_from((Sym("x"), Sym("y"))), st.sampled_from((0.0, -0.0, 1.0, -1.5, 2.0)).map(Const))
DROP_TREE = st.recursive(
    DROP_LEAF,
    lambda kids: st.one_of(
        kids.map(exprcore.Neg),
        kids.map(lambda e: Call("abs", e)),
        st.tuples(st.sampled_from("+-*"), kids, kids).map(lambda t: BinOp(*t)),
        st.tuples(st.sampled_from((0.0, -0.0)), kids, st.booleans()).map(
            lambda t: BinOp("*", Const(t[0]), t[1]) if t[2] else BinOp("*", t[1], Const(t[0]))
        ),
    ),
    max_leaves=10,
)


def _run_abs_floats(e, at: dict) -> float:
    """`e` at the names' values by Python's float operations and `abs`."""
    if isinstance(e, Call):
        return abs(_run_abs_floats(e.arg, at))
    if isinstance(e, BinOp):
        return _FLOAT[e.op](_run_abs_floats(e.left, at), _run_abs_floats(e.right, at))
    if isinstance(e, exprcore.Neg):
        return -_run_abs_floats(e.arg, at)
    return at[e.name] if isinstance(e, Sym) else e.value.real


FINITE = st.sampled_from((0.0, -0.0, 1.5, -2.0, 3.0, -0.5))


@given(DROP_TREE, FINITE, FINITE)
@example(BinOp("+", Const(0.0), BinOp("*", Const(0.0), Sym("x"))), -1.5, 0.0)  # +0.0 + z is +0.0
@example(BinOp("+", BinOp("*", Sym("x"), Const(-0.0)), Const(0.0)), 2.0, 0.0)  # z + +0.0 is +0.0
@example(BinOp("-", BinOp("+", Const(0.0), Sym("x")), BinOp("*", Const(-0.0), Sym("y"))), -0.0, -1.5)
@example(Call("abs", BinOp("-", Sym("x"), BinOp("*", Const(0.0), Sym("y")))), -0.0, -2.0)
@example(BinOp("+", Sym("x"), BinOp("*", Const(0.0), Sym("y"))), -0.0, 1.5)  # kept: x may be -0.0
@example(BinOp("+", Const(-0.0), BinOp("*", Const(0.0), Sym("y"))), 0.0, 1.5)  # kept: -0.0 + +0.0 is +0.0
@example(BinOp("+", BinOp("*", Sym("y"), Const(0.0)), Sym("x")), -0.0, 1.5)  # kept: z + x, x may be -0.0
@settings(max_examples=400, deadline=None)
def test_zero_term_drop_moves_no_bit(tree, x, y):
    """`codegen._drop`, the zero-term rules beside `_fold`: with every zero term of the tree
    dropped where a rule allows, the tree gives the same bits at finite operands, signed zeros
    included (operands small enough that no product of the drawn trees overflows)."""
    zeros = frozenset(e for e in gen._closure([tree], gen._kids) if gen._zero_operand(e) is not None)
    dropped = gen._drop(tree, zeros)
    at = {"x": x, "y": y}
    assert struct.pack("<d", _run_abs_floats(dropped, at)) == struct.pack("<d", _run_abs_floats(tree, at))


def _stage(ky, sample_extra=Const(0.0), kernel=None):
    """The folded pieces of a float-state stage (slope (qd, ky)) and its sample, and its kernel."""
    qd, g = Sym("qd"), Sym("g")
    kernel = {"g": -Sym("q"), "f": 2.0 * qd} if kernel is None else kernel
    sample = (("s0", "s1", "s2"), (qd, Sym("f"), Call("abs", BinOp("-", BinOp("-", g, Sym("ky")), sample_extra))))
    return [(("kx", "ky"), (qd, ky)), sample], kernel


class TestZeroTermPass:
    """`codegen._drop_zero_terms` on a stage's folded pieces: it drops a zero term only where the
    run ends where it did for a non-finite operand too, and otherwise returns the pieces as given."""

    ZERO_QD = BinOp("*", Const(0.0), Sym("qd"))

    def _pass(self, pieces, kernel):
        return gen._drop_zero_terms(pieces, kernel, ["kx", "ky"], ("q", "qd"))

    def test_drops_the_regular_steps_zero_terms(self):
        pieces, kernel = _stage(BinOp("-", Sym("g"), BinOp("+", Const(0.0), self.ZERO_QD)), self.ZERO_QD)
        (slope, sample) = self._pass(pieces, kernel)
        assert slope == (("kx", "ky"), (Sym("qd"), Sym("g")))
        assert sample[1][2] == Call("abs", BinOp("-", Sym("g"), Sym("ky")))

    @pytest.mark.parametrize(
        "g",
        [
            BinOp("/", Sym("q"), Sym("qd")),  # a divisor that can be zero
            BinOp("^", Sym("q"), Const(2.0)),  # a power, which can overflow
            Call("cos", Sym("q")),  # a call, which raises at an infinite argument
            Call("sqrt", Sym("q")),  # a guard
        ],
        ids=["division", "power", "call", "guard"],
    )
    def test_a_stage_that_can_raise_comes_back_unchanged(self, g):
        pieces, kernel = _stage(BinOp("-", Sym("g"), BinOp("+", Const(0.0), self.ZERO_QD)), self.ZERO_QD, {"g": g, "f": Sym("qd")})
        assert self._pass(pieces, kernel) is pieces

    def test_a_text_piece_leaves_the_stage_unchanged(self):
        pieces, kernel = _stage(BinOp("-", Sym("g"), BinOp("+", Const(0.0), self.ZERO_QD)))
        pieces.insert(0, "    r = 1.0")
        assert self._pass(pieces, kernel) is pieces

    def test_a_zero_term_whose_operand_reaches_no_slope_stays(self):
        # m is computed from q and qd but read by no slope outside the zero term
        kernel = {"g": -Sym("q"), "f": Sym("qd"), "m": BinOp("*", Sym("q"), Sym("qd"))}
        ky = BinOp("-", Sym("g"), BinOp("+", Const(0.0), BinOp("*", Const(0.0), Sym("m"))))
        pieces, _ = _stage(ky, kernel=kernel)
        assert self._pass(pieces, kernel) == pieces

    def test_a_sampled_zero_term_needs_a_state_entry(self):
        # the sample reads 0.0 * f, and f = 2 qd, a kernel out, can overflow where qd is finite
        kernel = {"g": -Sym("q"), "f": 2.0 * Sym("qd")}
        ky = BinOp("+", Sym("g"), Sym("f"))
        pieces, _ = _stage(ky, BinOp("*", Const(0.0), Sym("f")), kernel)
        assert self._pass(pieces, kernel) == pieces
