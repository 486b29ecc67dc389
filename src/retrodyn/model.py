"""Core model definition: parameters, state, vector field and linearization.

The model tracks three interacting populations,

    C : uninfected target cells
    I : infected cells (still able to reproduce)
    V : free virus particles

with dynamics

    dC/dt = a  * C * (1 - b11*C - b12*I) - alpha*C*V
    dI/dt = a_I* I * (1 - b21*C - b22*I) + alpha*C*V - m*I
    dV/dt = k*m*I - sigma*V

Both cell populations grow logistically with competitive cross terms,
mass-action infection (alpha*C*V) converts target cells into infected
ones, infected cells die at rate m releasing k virions each, and free
virus clears at rate sigma.

This module holds the plain data types plus the three purely local
operations on them: the right-hand side, its Jacobian, and the
characteristic cubic of a 3x3 matrix.  The algebra runs on Python
floats, and every value returned is a float or a tuple of floats: the
package needs no third-party library.

It also holds ``_Record``, the base of every record type in the
package, which gives each record its constructor, repr, equality and
hashing.  The standard library's record decorator would do the same,
but its module loads ``inspect`` and it runs ``exec`` for each method
it writes, which together were most of the time a fresh ``import
retrodyn.cli`` spent in the package.
"""

from __future__ import annotations

from .errors import ParameterError, _checked_float

PARAM_NAMES = ("a", "a_I", "b11", "b12", "b21", "b22", "alpha", "m", "k", "sigma")

# b12, b21 and alpha may be zero, which decouples the corresponding
# term; every other parameter must be strictly positive.
_BOUND = {name: ">=" if name in ("b12", "b21", "alpha") else ">" for name in PARAM_NAMES}


class _Record:
    """Base of the package's record types.

    A record declares its fields as class annotations, in order, and
    gives the trailing ones a default by assignment.  ``derived`` names
    fields that are not arguments: ``_post_init`` computes them.  A record
    is built by position or keyword; a missing or unknown argument raises
    TypeError.  ``_post_init`` then checks, normalises or derives fields
    through ``_set``.  A record's repr is ``Name(field=value, ...)``, it
    equals a record of its class with equal fields, and ``vars()`` lists
    its fields in order.  It is frozen: assigning to a field raises
    AttributeError.  It hashes by its fields, so a record with a list
    field is unhashable.
    """

    _fields = ()
    _defaults = {}
    __match_args__ = ()

    def __init_subclass__(cls, derived=()):
        super().__init_subclass__()
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls.__match_args__ = tuple(name for name in cls._fields if name not in derived)
        cls._defaults = {name: cls.__dict__[name] for name in cls.__match_args__ if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls.__match_args__
        if len(args) > len(names):
            raise TypeError(f"{cls.__qualname__}() takes {len(names)} arguments but {len(args)} were given")
        for name in kwargs:
            if name not in names:
                raise TypeError(f"{cls.__qualname__}() got an unexpected keyword argument {name!r}")
            if name in names[:len(args)]:
                raise TypeError(f"{cls.__qualname__}() got multiple values for argument {name!r}")
        values = {**cls._defaults, **dict(zip(names, args)), **kwargs}
        missing = [name for name in names if name not in values]
        if missing:
            raise TypeError(f"{cls.__qualname__}() missing required argument(s) {', '.join(map(repr, missing))}")
        for name in names:
            self._set(name, values[name])
        self._post_init()

    def _post_init(self):
        """Check, normalise or derive fields with ``_set``; a record that
        needs none of that leaves this as it is."""

    def _set(self, name: str, value):
        # Not through self.__dict__: on CPython 3.11 touching it moves the
        # instance out of the inline attribute layout, and every later
        # read such as _rhs's p.a gets slower.
        object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ModelParams(_Record):
    """Immutable parameter set.

    a, a_I        per-capita growth rates of target / infected cells
    b11, b12      self- and cross-limitation felt by target cells
    b21, b22      cross- and self-limitation felt by infected cells
    alpha         infection rate constant (>= 0)
    m             infected cell death rate
    k             burst size (virions released per dead infected cell)
    sigma         virus clearance rate
    """

    a: float
    a_I: float
    b11: float
    b12: float
    b21: float
    b22: float
    alpha: float
    m: float
    k: float
    sigma: float

    def _post_init(self):
        for name, bound in _BOUND.items():
            self._set(name, _checked_float(name, getattr(self, name), bound))

    def replace(self, **changes) -> "ModelParams":
        """Return a copy with the given fields replaced, checked as the constructor checks them."""
        for name in changes:
            if name not in _BOUND:
                raise ParameterError(f"{name!r} is not a model parameter")
        return ModelParams(**{name: changes.get(name, getattr(self, name)) for name in PARAM_NAMES})


class State(_Record):
    """A point (C, I, V) in phase space."""

    C: float
    I: float
    V: float


class Derivative(_Record):
    """Value of the vector field at a state."""

    dC: float
    dI: float
    dV: float


class CubicCoeffs(_Record):
    """Coefficients of a monic cubic x^3 + p*x^2 + q*x + r."""

    p: float
    q: float
    r: float


def _rhs(p: ModelParams, C: float, I: float, V: float) -> tuple:
    # Integrator and Lyapunov-trace hot path on plain floats.
    # Float literals, here and in lyapunov._w_dot: x - 1.0 takes ~16 ns, x - 1
    # ~35 ns (CPython 3.11, timeit, one pinned CPU), so neither is exact on Fractions.
    infection = p.alpha * C * V
    dC = p.a * C * (1.0 - p.b11 * C - p.b12 * I) - infection
    dI = p.a_I * I * (1.0 - p.b21 * C - p.b22 * I) + infection - p.m * I
    dV = p.k * p.m * I - p.sigma * V
    return dC, dI, dV


def vector_field(params: ModelParams, s: State) -> Derivative:
    """Evaluate the right-hand side of the model at state ``s``."""
    dC, dI, dV = _rhs(params, s.C, s.I, s.V)
    return Derivative(dC, dI, dV)


def _jacobian_entries(p: ModelParams, C, I, V) -> tuple:
    # Row-major entries of the Jacobian at any point (C, I, V); the sweep
    # decides the inner state through stability._reduced_cubic instead.
    # Int literals keep Fraction inputs exact.
    return (
        p.a * (1 - 2 * p.b11 * C - p.b12 * I) - p.alpha * V,
        -p.a * p.b12 * C,
        -p.alpha * C,
        -p.a_I * p.b21 * I + p.alpha * V,
        p.a_I * (1 - p.b21 * C - 2 * p.b22 * I) - p.m,
        p.alpha * C,
        0,
        p.k * p.m,
        -p.sigma,
    )


def jacobian(params: ModelParams, s: State) -> tuple:
    """Jacobian matrix of the vector field at ``s``, ordered (C, I, V).

    Returns:
        Three row tuples of floats, J[i][j] = d f_i / d s_j.
    """
    j = tuple(map(float, _jacobian_entries(params, s.C, s.I, s.V)))
    return j[:3], j[3:6], j[6:]


def _cubic_coeffs(j00, j01, j02, j10, j11, j12, j20, j21, j22) -> tuple:
    # (p, q, r) of char_cubic from the row-major Jacobian entries.
    p = -(j00 + j11 + j22)
    q = (
        (j11 * j22 - j12 * j21)
        + (j00 * j22 - j02 * j20)
        + (j00 * j11 - j01 * j10)
    )
    det = (
        j00 * (j11 * j22 - j12 * j21)
        - j01 * (j10 * j22 - j12 * j20)
        + j02 * (j10 * j21 - j11 * j20)
    )
    return p, q, -det


def char_cubic(J) -> CubicCoeffs:
    """Characteristic polynomial det(lambda*Id - J) of a 3x3 matrix.

    ``J`` is any 3x3 nested sequence of reals: lists, tuples or an array.

    Returned as the coefficients (p, q, r) of lambda^3 + p*lambda^2
    + q*lambda + r:

        p = -trace(J)
        q =  sum of the three principal 2x2 minors
        r = -det(J)

    The determinant is expanded explicitly so the result is a fixed,
    reproducible floating-point expression.
    """
    try:
        rows = [tuple(row) for row in J]
    except TypeError:  # J, or one of its rows, is not a sequence
        rows = []
    entries = [x for row in rows for x in row]
    # An iterable entry is a third axis; an array scalar has no __iter__.
    if len(rows) != 3 or any(len(row) != 3 for row in rows) or any(hasattr(x, "__iter__") for x in entries):
        raise ParameterError("expected a 3x3 matrix of reals")
    p, q, r = _cubic_coeffs(*map(float, entries))
    return CubicCoeffs(p=p, q=q, r=r)
