import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clmech import geometry
from clmech.corpus import bundled_corpus
from clmech.dynamics import integrate
from clmech.exprcore import DomainError, diff, evaluate, parse
from clmech.geometry import (
    CARTAN_SUBSTEPS,
    OneForm,
    lie_theta,
    lie_theta_cartan,
    rhs_pairing_form,
    theta,
)
from clmech.lagrangian import (
    ComplexLagrangian,
    DegenerateWithoutClosure,
    MechState,
    coordinate_names,
    derive_eom,
    force,
    momentum,
    velocity_names,
    wirtinger,
)
from clmech.sampling import sample_states
from clmech.suites import RunContext

PROBE = MechState(0.0, (1.0,), (1.0,))


def make(expr, omega0=1.0, params=None, closure_mass=None, dim=1):
    lagr = ComplexLagrangian(parse(expr), omega0, dim=dim, params=params or {})
    probe = PROBE if dim == 1 else MechState(0.0, (1.0,) * dim, (1.0,) * dim)
    return lagr, derive_eom(lagr, probe, closure_mass=closure_mass)


FAMILIES = [
    make("0.5*m*qd^2 - 0.5*k*q^2", params={"m": 2.0, "k": 3.0}),
    make("i*a0*q*qd", params={"a0": 1.5}),
    make("0.5*i*(m*qd^2 - k*q^2)", params={"m": 1.0, "k": 1.0}, closure_mass=(-1.0,)),
    make(
        "0.5*(m*qd^2 - k*q^2) + 0.5*i*l0*qd^2",
        params={"m": 1.0, "k": 1.0, "l0": 0.1},
    ),
]


class TestOneForm:
    def test_requires_matching_lengths(self):
        with pytest.raises(ValueError):
            OneForm((1.0,), (1.0, 2.0), PROBE)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            OneForm((math.nan,), (0.0,), PROBE)


class TestTheta:
    def test_momentum_in_dq_slot_only(self):
        lagr, eom = FAMILIES[0]
        s = MechState(0.2, (0.5,), (-1.5,))
        form = theta(lagr, eom, s)
        assert form.dq[0] == pytest.approx(momentum(eom, s)[0])
        assert form.dqd[0] == 0.0


class TestLieDerivativeIdentity:
    @pytest.mark.parametrize("idx", range(len(FAMILIES)))
    def test_closed_form_equals_pairing_form(self, idx):
        # L_X Theta = (g, f) must match the one-form read off i w0 dL/dw
        lagr, eom = FAMILIES[idx]
        worst = 0.0
        for s in sample_states(1, 100):
            lt = lie_theta(lagr, eom, s)
            pf = rhs_pairing_form(lagr, s)
            worst = max(worst, abs(lt.dq[0] - pf.dq[0]), abs(lt.dqd[0] - pf.dqd[0]))
        assert worst < 1e-10

    def test_components_are_force_and_momentum(self):
        lagr, eom = FAMILIES[3]
        s = MechState(0.7, (-0.3,), (0.9,))
        lt = lie_theta(lagr, eom, s)
        assert lt.dq[0] == pytest.approx(force(eom, s)[0])
        assert lt.dqd[0] == pytest.approx(momentum(eom, s)[0])

    def test_classical_collapse_when_m_vanishes(self):
        # real Lagrangian: the identity reduces to the plain gradient of L
        lagr, eom = FAMILIES[0]
        s = MechState(0.0, (0.4,), (1.1,))
        lt = lie_theta(lagr, eom, s)
        assert lt.dq[0] == pytest.approx(-3.0 * 0.4, abs=1e-12)  # dL/dq
        assert lt.dqd[0] == pytest.approx(2.0 * 1.1, abs=1e-12)  # dL/dqd

    def test_two_dof(self):
        lagr, eom = make(
            "0.5*(qd1^2 + qd2^2) - 0.5*(q1^2 + 2*q2^2)", dim=2
        )
        for s in sample_states(2, 20):
            lt = lie_theta(lagr, eom, s)
            pf = rhs_pairing_form(lagr, s)
            for a in range(2):
                assert lt.dq[a] == pytest.approx(pf.dq[a], abs=1e-10)
                assert lt.dqd[a] == pytest.approx(pf.dqd[a], abs=1e-10)


class TestLinearity:
    def test_real_scalar_combinations(self):
        # theta and the Lie derivative are additive over real coefficients
        a, b = 0.75, 0.5
        e1 = parse("0.5*(2*qd^2 - 3*q^2)")
        e2 = parse("0.5*(qd^2 - q^2) + 0.5*i*0.1*qd^2")
        lagr1 = ComplexLagrangian(e1, 1.0)
        lagr2 = ComplexLagrangian(e2, 1.0)
        combo = ComplexLagrangian(parse("0.75")*e1 + parse("0.5")*e2, 1.0)
        eom1, eom2 = derive_eom(lagr1, PROBE), derive_eom(lagr2, PROBE)
        eomc = derive_eom(combo, PROBE)
        for s in sample_states(1, 25, seed=3):
            for fn in (theta, lie_theta):
                f1, f2, fc = fn(lagr1, eom1, s), fn(lagr2, eom2, s), fn(combo, eomc, s)
                assert fc.dq[0] == pytest.approx(a * f1.dq[0] + b * f2.dq[0], abs=1e-12)
                assert fc.dqd[0] == pytest.approx(a * f1.dqd[0] + b * f2.dqd[0], abs=1e-12)


class TestCartanCrossCheck:
    @pytest.mark.parametrize("idx", [0, 1, 3])
    def test_differenced_flow_matches_closed_form(self, idx):
        lagr, eom = FAMILIES[idx]
        for s in sample_states(1, 5, seed=77):
            ct = lie_theta_cartan(lagr, eom, s)
            cf = lie_theta(lagr, eom, s)
            assert ct.dq[0] == pytest.approx(cf.dq[0], abs=1e-9)
            assert ct.dqd[0] == pytest.approx(cf.dqd[0], abs=1e-9)

    def test_one_integration_each_way(self, monkeypatch):
        # the seven stencil points come from one arc forward and one back
        arcs = []

        def spy(eom, init, cfg):
            arcs.append(cfg)
            return integrate(eom, init, cfg)

        monkeypatch.setattr(geometry, "integrate", spy)
        lagr, eom = FAMILIES[0]
        s = MechState(0.2, (0.5,), (-0.3,))
        lie_theta_cartan(lagr, eom, s)
        assert [(c.t_start, c.t_end - c.t_start > 0, c.n_steps) for c in arcs] == [
            (0.2, False, 3 * CARTAN_SUBSTEPS),
            (0.2, True, 3 * CARTAN_SUBSTEPS),
        ]

    def test_consistent_closure_flow_also_matches(self):
        # the first-order flow of a consistent closure transports f the same way
        lagr, eom = FAMILIES[2]
        s = MechState(0.0, (0.8,), (0.8,))
        ct = lie_theta_cartan(lagr, eom, s)
        cf = lie_theta(lagr, eom, s)
        assert ct.dq[0] == pytest.approx(cf.dq[0], abs=1e-9)


# --- the per-state loops the geometry suite ran before its lane read ---------


def _reference_form(dq, dqd, s):
    if not all(map(math.isfinite, (*dq, *dqd))):
        raise DomainError(f"one-form coefficients are not finite at t={s.t!r}, q={s.q!r}, qd={s.qd!r}")
    return OneForm(dq=tuple(dq), dqd=tuple(dqd), state=s)


def reference_lie_forms(eom, states):
    """A frozen copy of `lie_theta` at each state: one kernel call per state."""
    forms = []
    for s in states:
        f, g, *_ = eom.maps(s.t, s.q, s.qd)
        forms.append(_reference_form(g, f, s))
    return forms


def _reference_wirtinger(lagr, s, a):
    b = lagr.bindings(s)
    d_vel = evaluate(diff(lagr.expr, lagr.vels[a]), b)
    d_pos = evaluate(diff(lagr.expr, lagr.coords[a]), b)
    return (d_vel - (1j / lagr.omega0) * d_pos) / math.sqrt(2.0)


def reference_pairing_forms(lagr, states):
    """A frozen copy of `rhs_pairing_form` at each state, its derivatives walked by `evaluate`."""
    forms = []
    for s in states:
        dq, dqd = [], []
        for a in range(lagr.dim):
            z = math.sqrt(2.0) * _reference_wirtinger(lagr, s, a)
            dq.append(-lagr.omega0 * z.imag)
            dqd.append(z.real)
        forms.append(_reference_form(dq, dqd, s))
    return forms


def outcome(run):
    """The forms' repr, or the exception's type and text."""
    try:
        return repr(run())
    except Exception as err:  # noqa: BLE001 - the type and text are compared
        return type(err).__name__, str(err)


def assert_same_forms(lagr, eom, states):
    """The lane-read Lie forms and the compiled pairing forms against the loops, by repr;
    returns the two outcomes."""
    lies = outcome(lambda: [OneForm(*v, s) for v, s in zip(geometry.lie_values(eom, states), states)])
    assert lies == outcome(lambda: reference_lie_forms(eom, states))
    pairs = outcome(lambda: [rhs_pairing_form(lagr, s) for s in states])
    assert pairs == outcome(lambda: reference_pairing_forms(lagr, states))
    return lies, pairs


GEOMETRY_CORPUS = [sc for sc in bundled_corpus() if "geometry" in sc.checks]


@pytest.mark.filterwarnings("error")
class TestReferenceParity:
    @pytest.mark.parametrize("seed", [0xC0FFEE, 9, 31])
    @pytest.mark.parametrize("sc", GEOMETRY_CORPUS, ids=[sc.name for sc in GEOMETRY_CORPUS])
    def test_corpus_states(self, sc, seed):
        lagr, eom, _ = RunContext(sc).derived
        assert_same_forms(lagr, eom, sample_states(sc.dim, 100, seed))

    @pytest.mark.parametrize("idx", range(len(FAMILIES)))
    def test_families(self, idx):
        assert_same_forms(*FAMILIES[idx], sample_states(1, 100))

    def test_two_coordinates(self):
        lagr, eom = make("0.5*(qd1^2 + qd2^2) - 0.5*(q1^2 + 2*q2^2) + i*q1*qd2 + sin(q2)*t", dim=2)
        assert_same_forms(lagr, eom, sample_states(2, 100, 5))

    def test_overflowing_coefficient(self):
        # f = 1e308 q^3 qd overflows at the first state with |q^3 qd| > 1.8
        lagr, eom = make("big*q^3*qd^2", params={"big": 5e307})
        lies, pairs = assert_same_forms(lagr, eom, sample_states(1, 100))
        assert lies[0] == pairs[0] == "DomainError"
        assert lies[1].startswith("one-form coefficients are not finite at")

    @pytest.mark.parametrize("term", ["q*ln(q + 1)", "sqrt(q + 1)*qd"])
    def test_kernel_domain_error(self, term):
        # lanes fail; the state named is the first where the per-state loop fails
        lagr, eom = make(f"0.5*qd^2 + {term}", params={})
        lies, _ = assert_same_forms(lagr, eom, sample_states(1, 100))
        assert lies[0] == "DomainError"


def _coefficients(forms) -> list[tuple[list[float], list[float]]]:
    return [(list(form.dq), list(form.dqd)) for form in forms]


@pytest.mark.parametrize(
    "source,params",
    [
        ("0.5*m*qd^2 - 0.5*k*q^2 + 0.5*i*l0*qd^2", {"m": 1.0, "k": 1.0, "l0": 0.1}),
        ("big*q^3*qd^2", {"big": 5e307}),  # not finite from some state on
        ("0.5*qd^2 + q*ln(q + 1)", {}),  # the kernel fails at some state
        ("0.5*qd^2 + sqrt(q + 1)*qd", {}),
    ],
)
def test_the_suite_reads_the_coefficients_of_the_forms(source, params):
    # the geometry suite reads every Lie value, then the pairing state by state, and builds no form
    lagr, eom = make(source, params=params)
    states = sample_states(1, 100)
    got = outcome(lambda: (geometry.lie_values(eom, states), [geometry.pairing_values(lagr, s) for s in states]))
    want = outcome(lambda: (_coefficients(reference_lie_forms(eom, states)), _coefficients(reference_pairing_forms(lagr, states))))
    assert got == want


POLY_TEMPLATES = ("{va}*{vb}", "{qa}*{vb}", "cos({qa})", "sqrt(1 + {va}^2)", "t*{qa}")
PART = st.floats(-2.0, 2.0, allow_nan=False).map(lambda x: round(x, 2))


@st.composite
def _drawn(draw):
    """A Lagrangian over one or two coordinates of terms whose lanes are the scalar
    kernel's values bit for bit: no exp or ln."""
    dim = draw(st.integers(1, 2))
    coords, vels, index = coordinate_names(dim), velocity_names(dim), st.integers(0, dim - 1)
    terms = [f"0.5*{v}^2" for v in vels]
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(index), draw(index)
        names = dict(qa=coords[a], qb=coords[b], va=vels[a], vb=vels[b])
        terms.append(f"({draw(PART)!r} + {draw(PART)!r}*i)*({draw(st.sampled_from(POLY_TEMPLATES)).format(**names)})")
    return " + ".join(terms), dim, draw(st.sampled_from([1.0, 0.7, 2.5]))


@given(_drawn(), st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_drawn_forms_match_the_loops(drawn, seed):
    source, dim, omega0 = drawn
    lagr = ComplexLagrangian(parse(source), omega0, dim)
    states = sample_states(dim, 50, seed)
    try:
        eom = derive_eom(lagr, states[0])
    except DegenerateWithoutClosure:
        assume(False)
    assert_same_forms(lagr, eom, states)


def test_the_pairing_calls_the_complex_kernel_once_per_state(monkeypatch):
    # each coordinate's coefficient is formed from the one kernel call as `wirtinger` forms it
    lagr, _ = make("0.5*(qd1^2 + qd2^2 + qd3^2) - q1*q2 + i*q3*qd1 + sin(q2)*qd3*t - 0.3*i*q1^2", omega0=1.7, dim=3)
    states = sample_states(3, 20, 5)
    kernel, calls = lagr._wirtinger, []
    monkeypatch.setitem(lagr.__dict__, "_wirtinger", lambda *x: calls.append(x) or kernel(*x))
    got = [geometry.pairing_values(lagr, s) for s in states]
    assert len(calls) == len(states)
    for (dq, dqd), s in zip(got, states):
        z = [math.sqrt(2.0) * wirtinger(lagr, s, a) for a in range(3)]
        assert (dq, dqd) == ([-lagr.omega0 * x.imag for x in z], [x.real for x in z])
