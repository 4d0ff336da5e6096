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
        """In-place Fisher-Yates, high index down to 1."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def latin_hypercube(n: int, dims: int, rng: Lcg) -> np.ndarray:
    """n stratified points in [0, 1)^dims; one point per slab per axis."""
    if n < 1 or dims < 1:
        raise ValueError("n and dims must be positive")
    out = np.empty((n, dims))
    for d in range(dims):
        order = list(range(n))
        rng.shuffle(order)
        for k in range(n):
            out[k, d] = (order[k] + rng.uniform()) / n
    return out


def sample_states(dim: int, n: int, seed: int = DEFAULT_SEED) -> list[MechState]:
    """n Latin-hypercube states: t in T_RANGE, each q_a and qd_a in BOX.

    Axis order is (t, q_1..q_dim, qd_1..qd_dim).
    """
    rng = Lcg(seed)
    unit = latin_hypercube(n, 1 + 2 * dim, rng)
    t0, t1 = T_RANGE
    lo, hi = BOX
    states = []
    for row in unit:
        t = t0 + (t1 - t0) * row[0]
        q = tuple(lo + (hi - lo) * row[1 + a] for a in range(dim))
        qd = tuple(lo + (hi - lo) * row[1 + dim + a] for a in range(dim))
        states.append(MechState(t, q, qd))
    return states

