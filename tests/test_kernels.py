"""The kernels behind inner_equilibrium, jacobian, char_cubic and
routh_hurwitz_cubic take floats or broadcastable arrays of (alpha, k);
on arrays they must give the bits they give on floats.  The sweep's
kernel verdict must also rule out a definite form where it says
Unstable."""

import struct

import numpy as np
from hypothesis import given, settings, strategies as st

from retrodyn import ModelParams, Verdict, inner_equilibrium, search_coeffs
from retrodyn.equilibria import _cramer_solution, _reduced_system
from retrodyn.model import PARAM_NAMES, _cubic_coeffs, _jacobian_entries
from retrodyn.stability import _equilibrium_verdict, _hurwitz

from conftest import sample_params


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


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


def _scaled(p, factor, names):
    return p.replace(**{name: getattr(p, name) * factor for name in names})


@settings(max_examples=300, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    time=_log_uniform(-150.0, 150.0),
    population=_log_uniform(-150.0, 150.0),
    alphas=st.lists(_log_uniform(-3.0, 2.0), min_size=1, max_size=4),
    ks=st.lists(_log_uniform(-2.0, 3.0), min_size=1, max_size=4),
)
def test_unstable_equilibrium_has_no_definite_form(seed, time, population, alphas, ks):
    # At the equilibrium Omega = -sym(P*J) with P = diag(D/V^^2, B/I^^2,
    # A/C^^2) positive, so a definite Omega makes J Hurwitz (Lyapunov's
    # theorem); the sweep relies on it, in floats, to skip the weight
    # grid at Unstable cells.  Rates scale with the time unit and b_ij
    # and alpha with the population unit.
    base = sample_params(np.random.default_rng(seed))
    for alpha in alphas:
        for k in ks:
            p = _scaled(base.replace(alpha=alpha, k=k), time, ("a", "a_I", "m", "sigma", "alpha"))
            p = _scaled(p, population, ("b11", "b12", "b21", "b22", "alpha"))
            eq = inner_equilibrium(p)
            if eq is not None and _equilibrium_verdict(p, eq) is Verdict.UNSTABLE:
                assert search_coeffs(p, eq) is None, p
