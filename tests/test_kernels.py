"""The kernels behind inner_equilibrium, jacobian, char_cubic and
routh_hurwitz_cubic take floats or broadcastable arrays of (alpha, k);
on arrays they must give the bits they give on floats."""

import struct

import numpy as np
from hypothesis import given, settings, strategies as st

from retrodyn import ModelParams
from retrodyn.equilibria import _cramer_solution, _reduced_system
from retrodyn.model import PARAM_NAMES, _cubic_coeffs, _jacobian_entries
from retrodyn.stability import _hurwitz


def _assert_same(floats, arrays):
    # Same bits, except that any NaN equals any NaN: IEEE 754 leaves the
    # sign of a NaN result unspecified, numpy's loops and Python's float
    # ops pick different operands' NaNs, and no output can show the sign.
    for x, y in zip(floats, arrays):
        y = y.item()
        assert type(x) is type(y)
        assert (x != x and y != y) or struct.pack("<d", x) == struct.pack("<d", y)


_RATE = st.floats(-200.0, 200.0).map(lambda e: 10.0 ** e)


@settings(max_examples=300, deadline=None, database=None)
@given(
    params=st.fixed_dictionaries(
        {name: st.one_of(st.just(0.0), _RATE) if name in ("b12", "b21") else _RATE for name in PARAM_NAMES}
    ),
    alphas=st.lists(_RATE, min_size=1, max_size=4),
    ks=st.lists(_RATE, min_size=1, max_size=4),
)
def test_kernels_same_bits_on_floats_and_arrays(params, alphas, ks):
    # Each kernel gives, in every element of an array, the bits it gives
    # on Python floats; log-uniform rates over 400 decades reach
    # overflow, underflow, inf - inf and 0 * inf.
    p = ModelParams(**params)
    alpha, k = np.array(alphas)[:, None], np.array(ks)[None, :]
    with np.errstate(all="ignore"):
        system, singular = _reduced_system(p, alpha, k)
        solution = _cramer_solution(p, k, *system)
        jac = _jacobian_entries(p, alpha, k, *solution[:3])
        cubic = _cubic_coeffs(*jac)
        margins, unstable, stable = _hurwitz(*cubic)
    arrays = [np.broadcast_arrays(*outputs, np.empty((len(alphas), len(ks))))[:-1]
              for outputs in ((*system, singular), solution, jac, cubic, (*margins, unstable, stable))]
    for i, alpha_i in enumerate(alphas):
        for j, k_j in enumerate(ks):
            system_f, singular_f = _reduced_system(p, alpha_i, k_j)
            _assert_same((*system_f, singular_f), [x[i, j] for x in arrays[0]])
            if singular_f:
                continue  # floats stop before dividing by det
            solution_f = _cramer_solution(p, k_j, *system_f)
            jac_f = _jacobian_entries(p, alpha_i, k_j, *solution_f[:3])
            cubic_f = _cubic_coeffs(*jac_f)
            margins_f, unstable_f, stable_f = _hurwitz(*cubic_f)
            floats = (solution_f, jac_f, cubic_f, (*margins_f, unstable_f, stable_f))
            for outputs, array in zip(floats, arrays[1:]):
                _assert_same(outputs, [x[i, j] for x in array])
