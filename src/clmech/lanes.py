"""Array kernels: `compile_expr(vectorized=True)` runs its generated text over numpy arrays,
one sample per lane, on the lane helpers here, and fails where a lane's scalar call fails
(`_lane_kernel`). `lane_blocks` cuts a sample range into the blocks callers evaluate in.
Of `exprcore`, `codegen` and `lanes`, only this module imports numpy.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterator

import numpy as np

from .codegen import _not_real, _where
from .exprcore import DomainError

LANE_BLOCK = 2048


def lane_blocks(n: int) -> Iterator[slice]:
    """Consecutive slices of at most LANE_BLOCK lanes covering range(n).

    Array-kernel callers evaluate in these blocks into preallocated columns,
    so their temporaries stay the same size whatever the sample count.
    """
    return (slice(k, min(k + LANE_BLOCK, n)) for k in range(0, n, LANE_BLOCK))


class _LaneFailure(Exception):
    """Some lane of an array kernel left the domain; the wrapper finds which."""


def _lanes_div(a, b):
    if np.any(b == 0):
        raise _LaneFailure("division by zero")
    return a / b


# Python's own `**` lane by lane: numpy squares by multiplication and its
# SIMD pow rounds differently from libm's pow, which the scalar helper calls.
_py_pow = np.frompyfunc(operator.pow, 2, 1)


def _lanes_pow(a, b):
    # Python's complex power raises for zero to a complex power as well
    if np.any((a == 0) & ((np.real(b) < 0) | (np.imag(b) != 0))):
        raise _LaneFailure("zero raised to a negative power")
    out = _py_pow(a, b)  # its OverflowError signals a failing lane too
    # a negative float base with a fractional exponent gives a complex in
    # its own lanes only; the array takes the common type
    return np.array(out.tolist()) if isinstance(out, np.ndarray) else out


_UFUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "tanh": np.tanh, "ln": np.log}


def _lanes_call(fn: str, z):
    z = np.asarray(z)
    if fn == "ln":
        if np.any((z.imag == 0) & (z.real <= 0)):
            raise _LaneFailure("ln of nonpositive real")
    elif fn == "sqrt":
        if np.iscomplexobj(z):
            return np.sqrt(z)
        root = np.sqrt(np.abs(z))
        # cmath.sqrt(-x) is 0.0 + sqrt(x)*1j, complex in those lanes only
        return np.where(z < 0, root * 1j, root) if np.any(z < 0) else root
    # cmath raises on sin or cos of an infinite real part, unless the imaginary part is nan
    if fn in ("sin", "cos") and np.any(np.isinf(z.real) & ~np.isnan(z.imag)):
        raise _LaneFailure(f"{fn} of an infinite argument")
    out = _UFUNCS[fn](z)
    # cmath raises where a finite argument overflows (exp, sin and cos)
    if np.any(~np.isfinite(out) & np.isfinite(z)):
        raise _LaneFailure(f"{fn} overflowed")
    return out


def _lane_kernel(fn: Callable, scalar: Callable, args: tuple[str, ...], bare: bool, real: bool):
    """Wrap generated array code: lane shape, real guard, lane-named errors.

    The array code only signals that some lane failed. Then `scalar()`, the
    helper kernel of the same trees with `real` off, runs lane by lane, and
    the first lane whose scalar call fails, or with `real` takes a complex
    value, names the DomainError. That is the kernel every scalar kernel's
    inline fast path falls back to (`_with_fallback`), so a lane fails with
    the error its scalar call raises.
    """

    def kernel(*cols):
        cols = [np.asarray(c, dtype=float) for c in cols]
        shape = np.broadcast_shapes(*(c.shape for c in cols))
        try:
            with np.errstate(all="ignore"):  # IEEE results, as Python floats give
                vals = fn(*cols)
            vals = [
                np.asarray(v) if np.shape(v) == shape else np.full(shape, v)
                for v in ((vals,) if bare else vals)
            ]
            if real:
                if any(np.iscomplexobj(v) and v.imag.any() for v in vals):
                    raise _LaneFailure("a real map took a complex value")
                vals = [np.real(v) for v in vals]
            return vals[0] if bare else tuple(vals)
        except (_LaneFailure, OverflowError) as signal:
            message = str(signal)
        lane = scalar()
        for point in zip(*(np.broadcast_to(c, shape).ravel().tolist() for c in cols)):
            state = dict(zip(args, point))
            try:
                values = lane(*point)
            except DomainError as err:
                raise DomainError(f"{err} at {_where(state)}") from None
            values = (values,) if bare else values
            if real and any(v.imag for v in values):
                _not_real(values, state)
        raise DomainError(message)

    return kernel


_LANE_HELPERS = {"_h_div": _lanes_div, "_h_pow": _lanes_pow, "_h_call": _lanes_call}
