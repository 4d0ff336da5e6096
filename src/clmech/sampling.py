"""Deterministic sample-point generation for the check suites.

Every suite draws its probe states from the same documented generator so
independent implementations reproduce identical sample sets:

    64-bit linear congruential generator
        x' = (6364136223846793005 * x + 1442695040888963407) mod 2^64
    seeded with 0xC0FFEE by default; uniform doubles take the top 53 bits,
    u = (x' >> 11) * 2^-53, giving u in [0, 1).

Latin hypercube sampling stratifies each axis into n equal slabs, permutes
the slab order per axis by a Fisher-Yates shuffle driven by the same
generator, and places one point uniformly inside each chosen slab. Axes are
processed in order (axis 0 first), and for each axis the permutation is drawn
before the in-slab offsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lagrangian import MechState

DEFAULT_SEED = 0xC0FFEE
# the ranges of sample_states: t, and every coordinate and velocity
T_RANGE = (0.0, 2.0)
BOX = (-2.0, 2.0)

_A = 6364136223846793005
_C = 1442695040888963407
_MASK = (1 << 64) - 1


@dataclass
class Lcg:
    """The documented 64-bit LCG; state advances on every draw."""

    state: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        self.state &= _MASK

    def next_u64(self) -> int:
        self.state = (_A * self.state + _C) & _MASK
        return self.state

    def uniform(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection on the top 53 bits."""
        if n <= 0:
            raise ValueError("n must be positive")
        span = 1 << 53
        limit = span - span % n
        while True:
            x = self.next_u64() >> 11
            if x < limit:
                return x % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates, high index down to 1, each index drawn as `below` draws it."""
        x, span = self.state, 1 << 53
        for i in range(len(items) - 1, 0, -1):
            limit = span - span % (i + 1)
            while (x := (_A * x + _C) & _MASK) >> 11 >= limit:
                pass  # rejected, as `below` rejects
            j = (x >> 11) % (i + 1)
            items[i], items[j] = items[j], items[i]
        self.state = x


def latin_hypercube(n: int, dims: int, rng: Lcg) -> np.ndarray:
    """n stratified points in [0, 1)^dims; one point per slab per axis."""
    if n < 1 or dims < 1:
        raise ValueError("n and dims must be positive")
    cols = []
    for _ in range(dims):
        order = list(range(n))
        rng.shuffle(order)
        x = rng.state  # each offset is `uniform`'s draw
        cols.append([(k + ((x := (_A * x + _C) & _MASK) >> 11) * 2.0**-53) / n for k in order])
        rng.state = x
    return np.array(cols).T


def sample_states(dim: int, n: int, seed: int = DEFAULT_SEED) -> list[MechState]:
    """n Latin-hypercube states: t in T_RANGE, each q_a and qd_a in BOX.

    Axis order is (t, q_1..q_dim, qd_1..qd_dim).
    """
    t, *axes = latin_hypercube(n, 1 + 2 * dim, Lcg(seed)).T.tolist()
    (t0, t1), (lo, hi) = T_RANGE, BOX
    rows = zip(*([lo + (hi - lo) * u for u in col] for col in axes))
    return [MechState(t0 + (t1 - t0) * u, row[:dim], row[dim:]) for u, row in zip(t, rows)]

