"""`clmech.records.record` against `dataclasses.dataclass` as the oracle.

Every record class under src/clmech (found with `ast` by its `@record` decorator) gets a
stdlib twin: the same annotations, the defaults and `field(...)` specs of its source, the same
options and its own methods (`__post_init__` and the properties it reads). Both are built
from the same sample values and compared on repr, ==, hash, frozen assignment and deletion,
`__match_args__`, what `__post_init__` left, and the TypeError of a bad call. One class defined
here, under both decorators, covers what a clmech `__post_init__` would hide: a factory value
that no post-init copies, and repr=False and compare=False on plain values.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest

from clmech.corpus import corpus_scenario
from clmech.exprcore import Const, Sym, parse
from clmech.lagrangian import ComplexLagrangian, MechState, derive_eom
from clmech.records import field, record
from clmech.suites import CheckLine

SRC = Path(__file__).resolve().parents[1] / "src" / "clmech"
GENERATED = {"__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__",
             "__match_args__", "__dict__", "__weakref__"}


def _declared() -> dict[str, tuple[str, dict, dict]]:
    """Class name -> (module, decorator options, the source text of each field's default)."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        classes = [node for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.ClassDef)]
        for node in classes:
            for deco in node.decorator_list:
                call = deco if isinstance(deco, ast.Call) else ast.Call(deco, [], [])
                if isinstance(call.func, ast.Name) and call.func.id == "record":
                    options = {kw.arg: ast.literal_eval(kw.value) for kw in call.keywords}
                    values = {stmt.target.id: ast.unparse(stmt.value) for stmt in node.body
                              if isinstance(stmt, ast.AnnAssign) and stmt.value is not None}
                    found[node.name] = (f"clmech.{path.stem}", options, values)
    return found


DECLARED = _declared()


def _twin(name: str) -> tuple[type, type, dict]:
    """(the record class, its `dataclasses.dataclass` twin, the options)."""
    module_name, options, values = DECLARED[name]
    module = importlib.import_module(module_name)
    cls = getattr(module, name)
    namespace = {key: value for key, value in vars(cls).items() if key not in GENERATED}
    scope = {**vars(module), "field": dataclasses.field}
    namespace.update({key: eval(source, scope) for key, source in values.items()})
    namespace["__qualname__"] = cls.__qualname__
    return cls, dataclasses.dataclass(type(name, cls.__bases__, namespace), **options), options


def _build(cls: type, options: dict, args: tuple):
    if options.get("init", True):
        return cls(*args)
    obj = object.__new__(cls)  # the Expr nodes: `Expr.__new__` interns, so build them bare on both sides
    obj.__dict__.update(zip(cls.__match_args__, args))
    return obj


def _samples() -> dict[str, tuple[tuple, tuple]]:
    """Class name -> two argument tuples that build unequal instances."""
    q, qd = Sym("q"), Sym("qd")
    state = MechState(0.0, (1.0,), (2.0,))
    lagr = ComplexLagrangian(parse("0.5*qd^2 - 0.5*k*q^2"), 1.0, 1, {"k": 2.0})
    other = ComplexLagrangian(parse("0.5*qd^2 - 0.5*k*q^2 + q"), 1.0, 1, {"k": 2.0})
    eom = derive_eom(lagr, state)
    sc = corpus_scenario("damped_oscillator")
    sc_args = tuple(getattr(sc, name) for name in sc.__match_args__)
    eom_args = tuple(getattr(eom, name) for name in eom.__match_args__)
    columns = tuple(np.arange(k, k + 3.0).reshape(3, 1) for k in range(4))
    line = CheckLine("x", "le", 1.0, None, 2.0)
    return {
        "Expr": ((), ()),
        "Const": ((1.5 + 0j,), (2.0 + 0j,)),
        "Sym": (("q",), ("qd",)),
        "Neg": ((q,), (qd,)),
        "BinOp": (("+", q, Const(1.0)), ("*", q, qd)),
        "Call": (("sin", q), ("cos", q)),
        "_Token": (("num", "1.5", 3), ("ident", "q", 0)),
        "MechState": ((0, [1], [2]), (0.5, (1.0,), (3.0,))),
        "ComplexPhase": (((1 + 1j,), (2j,)), ((1 + 1j,), (3j,))),
        "ComplexLagrangian": ((lagr.expr, 1, 1, {"k": 2}), (q * qd, 2.0)),
        "EomSystem": (eom_args, (*eom_args[:-2], 0.5, eom_args[-1])),
        "IntegratorConfig": ((0.01, 0, 1), (0.02, 0.0, 1.0)),
        "Trajectory": (("regular", 0.1, np.arange(3.0), *columns), ("closure", 0.1, np.arange(3.0), *columns)),
        "LagrangianPair": ((lagr, other), (other, lagr)),
        "Ffunction": ((q, 1.0, 1, {"k": 2.0}), (qd, 1.0, 1, {})),
        "EquivalenceReport": (("equivalent", 1e-12, 1.0, 10, 0, None), ("inconclusive", 0.5, 1.0, 10, 3, 0.1)),
        "OneForm": (([1, 2], [3, 4], state), ((1.0,), (5.0,), state)),
        "HamiltonianField": ((lagr, eom), (lagr, eom, 2.0)),
        "PhaseState": ((0, 1, 2), (0.0, 1.0, 3.0)),
        "Lcg": ((5,), (2**64 + 7,)),
        "Scenario": (sc_args, ("other", *sc_args[1:])),
        "CheckLine": (("x", "le", 1.0, None, 2.0), ("x", "ge", 1.0, 0.5)),
        "SuiteResult": (("noether", "sc", (line,)), ("noether", "sc", (line,), ("a note",))),
        "VariationField": ((0.0, 1.0, 1e-3), (0.0, 1.0, 1e-3, 2)),
    }


SAMPLES = _samples()


def test_every_record_class_has_samples():
    assert set(SAMPLES) == set(DECLARED) and len(DECLARED) == 24


def _hash_kind(obj):
    """'unhashable', 'identity', or the value hash."""
    try:
        value = hash(obj)
    except TypeError:
        return "unhashable"
    return "identity" if value == object.__hash__(obj) else value


@pytest.mark.parametrize("name", sorted(DECLARED))
def test_a_record_behaves_as_its_dataclass_twin(name):
    cls, twin, options = _twin(name)
    args, other = SAMPLES[name]
    assert cls.__match_args__ == twin.__match_args__
    mine, theirs = (_build(c, options, args) for c in (cls, twin))
    assert repr(mine) == repr(theirs)
    assert repr(vars(mine)) == repr(vars(theirs))  # what `__post_init__` left, too
    same = [_build(c, options, args) == _build(c, options, args) for c in (cls, twin)]
    unequal = [_build(c, options, args) != _build(c, options, other) for c in (cls, twin)]
    assert same[0] == same[1] == options.get("eq", True) and unequal == [True, True]
    assert (mine == theirs, mine != theirs) == (False, True)
    assert mine.__eq__(object()) is theirs.__eq__(object()) is NotImplemented
    assert _hash_kind(mine) == _hash_kind(theirs)
    for obj in (mine, theirs):
        first = cls.__match_args__[0] if cls.__match_args__ else "x"
        if options.get("frozen"):
            for act in (lambda: setattr(obj, first, 1), lambda: delattr(obj, first), lambda: setattr(obj, "x", 1)):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    act()
        else:
            setattr(obj, first, 9)
    assert repr(mine) == repr(theirs)


@pytest.mark.parametrize("name", sorted(n for n in DECLARED if DECLARED[n][1].get("init", True)))
def test_a_record_takes_its_fields_by_name_and_refuses_a_bad_call(name):
    cls, twin, options = _twin(name)
    args, _ = SAMPLES[name]
    by_name = dict(zip(cls.__match_args__, args))
    assert repr(cls(**by_name)) == repr(twin(**by_name))
    required = [n for n in cls.__match_args__ if n not in DECLARED[name][2]]
    too_many = (*args, *[None] * (len(cls.__match_args__) + 1 - len(args)))
    bad_calls = [(too_many, {}), ((), {**by_name, "bogus": 1}), (args[:1], by_name)]
    bad_calls += [((), {k: v for k, v in by_name.items() if k != n}) for n in required]
    for bad_args, bad_kwargs in bad_calls:
        for c in (cls, twin):
            with pytest.raises(TypeError):
                c(*bad_args, **bad_kwargs)


def _plain(decorate):
    """A record class with each `field` option on values its `__post_init__` leaves as they are."""

    @decorate
    class _Plain:
        hidden: str = field(repr=False)
        ignored: int = field(repr=False, compare=False)
        items: list = field(default_factory=list)
        table: dict = field(default_factory=dict)
        seen: tuple = ()

        def __post_init__(self):
            object.__setattr__(self, "seen", (*self.seen, "post"))

    return _Plain


@pytest.mark.parametrize("decorate", [record(frozen=True), dataclasses.dataclass(frozen=True)], ids=["record", "dataclass"])
def test_field_options_on_plain_values(decorate):
    cls = _plain(decorate)
    a, b = cls("a", 1), cls("a", 2)
    assert a.items == [] and a.items is not b.items and a.table is not b.table  # a factory runs per instance
    assert cls("a", 1, seen=("init",)).seen == ("init", "post")
    assert repr(a) == "_plain.<locals>._Plain(items=[], table={}, seen=('post',))"
    assert a == b and a != cls("b", 1)
    assert hash(cls("a", 1, (), ())) == hash(cls("a", 2, (), ())) != hash(cls("b", 1, (), ()))
    assert cls.seen == () and "items" not in vars(cls)
