"""The canary of the loops' 0-d operands.

The solvers' loops hand numpy their scalars (gamma, the step size, the
batch divisor, the ridge, the soft threshold, the averaging weight and the
constants 1.0 and 0.0) as 0-d float64 arrays, because NumPy 2 applies a
Python float through its weak-scalar path (NEP 50), which costs a
20-element ufunc about 40% more. The golden digests rest on both forms
giving the same bits. These checks fail first if a NumPy release changes
how a Python scalar is promoted.
"""

from __future__ import annotations

import numpy as np
import pytest

# every ufunc that the loops feed a 0-d operand
UFUNCS = (np.multiply, np.subtract, np.true_divide, np.maximum, np.fmin,
          np.add)
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-309, np.inf, -np.inf,
           np.nan, 1e308, -1e308, 1.0, -1.0]


def values(rng, count: int) -> list[float]:
    """The special values and ``count`` random ones over the float range."""
    spread = rng.standard_normal(count) * 10.0 ** rng.integers(-300, 300, count)
    return SPECIAL + spread.tolist()


def arrays(rng, size: int) -> list[np.ndarray]:
    if size == 1:
        return [np.array([v]) for v in values(rng, 20)]
    out = []
    for _ in range(12):
        a = rng.standard_normal(size) * 10.0 ** rng.integers(-3, 3, size)
        picks = rng.integers(0, len(SPECIAL), 4)
        a[rng.choice(size, 4, replace=False)] = [SPECIAL[i] for i in picks]
        out.append(a)
    return out


@pytest.mark.parametrize("ufunc", UFUNCS, ids=lambda u: u.__name__)
@pytest.mark.parametrize("size", [1, 20])
def test_a_0d_operand_gives_the_bits_of_a_python_float(ufunc, size):
    rng = np.random.default_rng(size)
    with np.errstate(all="ignore"):
        for s in values(rng, 30):
            zero_d = np.array(s)
            for a in arrays(rng, size):
                for want, got in ((ufunc(a, s), ufunc(a, zero_d)),
                                  (ufunc(s, a), ufunc(zero_d, a))):
                    assert got.dtype == want.dtype == np.float64
                    assert got.shape == a.shape
                    assert got.tobytes() == want.tobytes(), (s, a)
                # in place, as ``e += 1.0`` and ``grad /= b`` write
                want, got = a.copy(), a.copy()
                ufunc(want, s, out=want)
                ufunc(got, zero_d, out=got)
                assert got.tobytes() == want.tobytes(), (s, a)


@pytest.mark.parametrize("size", [1, 20])
def test_a_0d_weight_gives_the_bits_of_a_python_int(size):
    # the sc-nonuniform averaging weight k + 3 is an int; numpy casts it to
    # float64, exactly below 2**53
    rng = np.random.default_rng(3 + size)
    with np.errstate(all="ignore"):
        for w in (2, 3, 7, 103, 100_003, 2 ** 31 + 1, 2 ** 53 - 1):
            zero_d = np.array(float(w))
            for a in arrays(rng, size):
                assert (zero_d * a).tobytes() == (w * a).tobytes(), (w, a)
