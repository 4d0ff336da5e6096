import cmath
import functools
import math
import struct
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clmech.exprcore import (
    Call,
    Const,
    DomainError,
    ExprSyntaxError,
    Sym,
    UnboundSymbol,
    UnknownFunction,
    _codegen,
    compile_expr,
    conj_expr,
    diff,
    evaluate,
    free_symbols,
    im_part,
    parse,
    re_part,
    simplify,
    to_source,
)

finite = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


def ev(src, **bindings):
    return evaluate(parse(src), bindings)


class TestParse:
    def test_precedence(self):
        assert ev("2 + 3 * 4 ^ 2") == 50

    def test_power_right_associative(self):
        assert ev("2^3^2") == 512

    def test_unary_minus_binds_below_power(self):
        assert ev("-2^2") == -4

    def test_imaginary_unit(self):
        assert parse("i") == Const(1j)
        assert ev("i*i") == -1

    def test_functions(self):
        assert ev("sin(t)", t=math.pi / 2) == pytest.approx(1.0)
        assert ev("ln(exp(2))") == pytest.approx(2.0)

    def test_whitespace_and_parens(self):
        assert ev(" ( q + 1 ) * 2 ", q=3) == 8

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

    def test_other_symbols_are_constants(self):
        assert simplify(diff(parse("m*qd"), "q")) == Const(0.0)


class TestSimplify:
    def test_identities(self):
        q = Sym("q")
        assert simplify(q + Const(0.0)) == q
        assert simplify(q * Const(1.0)) == q
        assert simplify(q * Const(0.0)) == Const(0.0)

    def test_constant_folding(self):
        assert simplify(parse("2*3 + 4")) == Const(10.0)

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
        e = parse("(1+2*i)*q^2 + i*q*qd")
        b = {"q": q, "qd": qd}
        z = evaluate(e, b)
        assert evaluate(re_part(e), b) == pytest.approx(z.real)
        assert evaluate(im_part(e), b) == pytest.approx(z.imag)

    def test_real_expression_has_structurally_zero_imag(self):
        assert im_part(parse("0.5*m*qd^2 - 0.5*k*q^2")) == Const(0.0)

    def test_split_values_are_real_typed(self):
        val = evaluate(re_part(parse("i*q*qd")), {"q": 1.0, "qd": 2.0})
        assert val.imag == 0.0


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
    from clmech.corpus import bundled_corpus
    from clmech.lagrangian import derive_eom

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
        src, _ = _codegen(trees, ("q", "qd"), {}, False, False)
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
