"""The generator is deterministic and covers what the workloads promise."""

from collections import Counter

import gen


def _files(directory, specs):
    directory.mkdir()
    return [p.read_bytes() for p in (s.write(directory) for s in specs)]


def _round(seed):
    return [gen.simulate_spec(seed, i) for i in range(len(gen.SIMULATE_ROUND))]


def _batch(seed):
    return [gen.derive_spec(seed, i) for i in range(100)]


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    first = _files(tmp_path / "a", _round(7) + _batch(7))
    assert first == _files(tmp_path / "b", _round(7) + _batch(7))


def test_other_seed_gives_other_inputs(tmp_path):
    assert [s.scenario() for s in _batch(7)] != [s.scenario() for s in _batch(8)]
    assert [s.scenario() for s in _round(7)] != [s.scenario() for s in _round(8)]


def test_derive_batches_never_repeat_a_lagrangian():
    sources = [gen.derive_spec(3, i).lagrangian() for i in range(300)]
    assert len(set(sources)) == len(sources)


def test_every_derive_batch_has_the_same_mix():
    def mix(seed, batch):
        specs = [gen.derive_spec(seed, batch * 100 + i) for i in range(100)]
        return Counter(
            (s.dim, s.kind, tuple((t.template, t.idx, t.coef.imag != 0, t.param) for t in s.terms))
            for s in specs)

    assert mix(1, 0) == mix(2, 0) == mix(1, 3)
    dims = Counter(s.dim for s in _batch(1))
    assert set(dims) == {1, 2, 3, 4}
    assert dims[1] == 52
    assert sum(s.kind == gen.CLOSURE for s in _batch(1)) == 36


def test_simulate_round_covers_every_flow_kind_and_dim():
    specs = _round(5)
    assert {(s.kind, s.dim) for s in specs} == {
        (gen.REGULAR, 1), (gen.REGULAR, 3), (gen.CLOSURE, 1), (gen.CLOSURE, 3), (gen.HAMILTONIAN, 1)}
    assert any(not s.linear and s.kind == k for s in specs for k in (gen.REGULAR, gen.CLOSURE, gen.HAMILTONIAN))
    templates = {t.template for s in specs for t in s.terms}
    assert {"v4", "tanhv"} <= templates and templates & {"cosq", "expq", "lnq"}


def test_simulate_rounds_have_the_same_trees():
    def trees(seed):
        return [[(t.template, t.idx, t.coef.imag != 0, t.param) for t in s.terms] for s in _round(seed)]

    assert trees(1) == trees(2) == trees(9)
