import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clmech.lagrangian import MechState
from clmech.sampling import DEFAULT_SEED, Lcg, latin_hypercube, sample_states


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

