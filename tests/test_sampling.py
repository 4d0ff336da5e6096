import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clmech.lagrangian import MechState
from clmech.sampling import BOX, DEFAULT_SEED, T_RANGE, Lcg, latin_hypercube, sample_states


class TestLcg:
    def test_golden_sequence(self):
        # frozen outputs of the documented multiplier/increment pair
        rng = Lcg(DEFAULT_SEED)
        assert [rng.next_u64() for _ in range(3)] == [
            17611622130616733733,
            15380742703457841872,
            6292544392100749279,
        ]

    def test_golden_uniforms(self):
        rng = Lcg(DEFAULT_SEED)
        assert rng.uniform() == 0.9547279487504226
        assert rng.uniform() == 0.8337917326764781
        assert rng.uniform() == 0.3411195150188554

    def test_uniform_range(self):
        rng = Lcg(123)
        for _ in range(1000):
            u = rng.uniform()
            assert 0.0 <= u < 1.0

    @given(st.integers(min_value=1, max_value=97))
    @settings(max_examples=30)
    def test_below_stays_in_range(self, n):
        rng = Lcg(7)
        for _ in range(200):
            assert 0 <= rng.below(n) < n

    def test_shuffle_is_permutation(self):
        rng = Lcg(99)
        items = list(range(20))
        rng.shuffle(items)
        assert sorted(items) == list(range(20))
        assert items != list(range(20))  # 1/20! chance, effectively impossible

    def test_determinism(self):
        a = Lcg(42)
        b = Lcg(42)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


class TestLatinHypercube:
    @pytest.mark.parametrize("n,dims", [(16, 3), (10, 1), (7, 5)])
    def test_stratification(self, n, dims):
        pts = latin_hypercube(n, dims, Lcg(DEFAULT_SEED))
        assert pts.shape == (n, dims)
        for d in range(dims):
            bins = np.floor(pts[:, d] * n).astype(int)
            assert sorted(bins) == list(range(n))  # one sample per slab

    def test_unit_box(self):
        pts = latin_hypercube(64, 4, Lcg(5))
        assert pts.min() >= 0.0 and pts.max() < 1.0


class TestSampleStates:
    def test_golden_first_state(self):
        s = sample_states(1, 3)[0]
        assert s.t == 1.5607463433459037
        assert s.q[0] == -1.7092788978894329
        assert s.qd[0] == -1.5663299980064567

    def test_shapes_and_ranges(self):
        states = sample_states(2, 50, seed=11)
        assert len(states) == 50
        for s in states:
            assert isinstance(s, MechState)
            assert 0.0 <= s.t <= 2.0
            assert all(-2.0 <= x <= 2.0 for x in s.q + s.qd)

    def test_seed_changes_draw(self):
        assert sample_states(1, 5, seed=1) != sample_states(1, 5, seed=2)

    def test_repeatable(self):
        assert sample_states(1, 5, seed=9) == sample_states(1, 5, seed=9)



_A, _C, _MASK = 6364136223846793005, 1442695040888963407, (1 << 64) - 1


class _MethodLcg:
    """A frozen copy of the generator that drew through one method call per number."""

    def __init__(self, state: int) -> None:
        self.state = state & _MASK

    def next_u64(self) -> int:
        self.state = (_A * self.state + _C) & _MASK
        return self.state

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def below(self, n: int) -> int:
        span = 1 << 53
        limit = span - span % n
        while True:
            x = self.next_u64() >> 11
            if x < limit:
                return x % n

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def _frozen_latin_hypercube(n: int, dims: int, rng: _MethodLcg) -> np.ndarray:
    out = np.empty((n, dims))
    for d in range(dims):
        order = list(range(n))
        rng.shuffle(order)
        for k in range(n):
            out[k, d] = (order[k] + rng.uniform()) / n
    return out


def _frozen_sample_states(dim: int, n: int, seed: int) -> list[tuple]:
    unit = _frozen_latin_hypercube(n, 1 + 2 * dim, _MethodLcg(seed))
    (t0, t1), (lo, hi) = T_RANGE, BOX
    return [
        (t0 + (t1 - t0) * row[0], *(lo + (hi - lo) * row[1 + a] for a in range(2 * dim)))
        for row in unit
    ]


def _hex(values) -> list[str]:
    return [float.hex(float(v)) for v in values]


# the state before a draw of 2^64 - 1, whose top 53 bits `below(10)` rejects (2^53 % 10 = 2)
REJECTING_SEED = ((_MASK - _C) * pow(_A, -1, 1 << 64)) & _MASK


class TestFrozenGenerator:
    """The local-variable LCG of `shuffle` and `latin_hypercube` against the method-call one."""

    def test_the_rejecting_seed_rejects(self):
        rng = _MethodLcg(REJECTING_SEED)
        assert rng.next_u64() >> 11 >= (1 << 53) - (1 << 53) % 10
        items, frozen = list(range(10)), list(range(10))
        Lcg(REJECTING_SEED).shuffle(items)
        _MethodLcg(REJECTING_SEED).shuffle(frozen)
        assert items == frozen

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 10, 100, 256])
    @pytest.mark.parametrize("seed", [DEFAULT_SEED, 9, 10, 31, REJECTING_SEED])
    def test_sample_states_bit_for_bit(self, dim, n, seed):
        got = [(s.t, *s.q, *s.qd) for s in sample_states(dim, n, seed)]
        want = _frozen_sample_states(dim, n, seed)
        assert [_hex(row) for row in got] == [_hex(row) for row in want]
        assert all(type(v) is float for row in got for v in row)

    @pytest.mark.parametrize("n,dims,seed", [(1, 1, 3), (10, 3, REJECTING_SEED), (100, 7, 9), (256, 5, 31)])
    def test_latin_hypercube_bit_for_bit(self, n, dims, seed):
        rng, frozen = Lcg(seed), _MethodLcg(seed)
        got, want = latin_hypercube(n, dims, rng), _frozen_latin_hypercube(n, dims, frozen)
        assert got.shape == want.shape and _hex(got.ravel()) == _hex(want.ravel())
        assert rng.state == frozen.state  # the generator goes on where the method calls left it
