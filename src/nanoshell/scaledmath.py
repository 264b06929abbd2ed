"""(mantissa, log-scale) arithmetic on numpy arrays.

A scaled number is a pair ``(m, e)`` representing ``m * exp(e)`` with complex
mantissa ``m`` and real ``e``; both are numpy arrays (or scalars and 0-d
arrays, which broadcast), and every operation acts elementwise: an entry's
result does not depend on what shares its array, renormalization included,
so callers stack operand pairs on a leading axis and run one operation per
pair.  No module of the package uses it: :mod:`~nanoshell.specfun` builds
its Riccati tables as bounded values and log norms directly.  It is kept
for ``tests/oracles.py``, whose plain j/y/h1 and psi/chi/xi tables are
built on it, and for the benchmark tracer (``perfbench/tracing.py``), which
imports it and counts its operations by name; it goes once the tracer no
longer needs it.
"""

import numpy as np

from .errors import RangeError

# |log| of the largest/smallest collapsible magnitude (double precision)
LOG_HUGE = 700.0
LOG_TINY = -740.0

# renormalize mantissas once they leave this comfort band
_BIG = 1e100
_SMALL = 1e-100

ZERO = (0j, 0.0)

_least, _most = np.minimum.reduce, np.maximum.reduce


def canonical(m, e):
    """Pull each mantissa magnitude back into a safe band; zeros get e = 0."""
    m = np.asarray(m, dtype=complex)
    a = np.abs(m)
    # every entry inside the band, checked by its extremes (a NaN is largest)
    top = _most(a, axis=None, initial=0.0)
    if not a.size or (top < _BIG and _least(a, axis=None) > _SMALL):
        return m, np.asarray(e, dtype=float)
    if not np.isfinite(top):
        raise RangeError("scaled mantissa overflowed; argument out of range")
    inside = (a > _SMALL) & (a < _BIG)
    zero = a == 0.0
    s = np.where(inside | zero, 1.0, a)
    return m / s, np.where(zero, 0.0, e + np.log(s))


def mul(x, y):
    return canonical(x[0] * y[0], x[1] + y[1])


def div(x, y):
    if np.any(y[0] == 0):
        raise ZeroDivisionError("scaled division by zero")
    return canonical(x[0] / y[0], x[1] - y[1])


def add(x, y):
    (mx, ex), (my, ey) = x, y
    # a zero term takes the other's exponent, so it cannot set the scale
    ex = np.where(mx == 0, ey, ex)
    ey = np.where(my == 0, ex, ey)
    e = np.maximum(ex, ey)
    return canonical(mx * np.exp(ex - e) + my * np.exp(ey - e), e)


def sub(x, y):
    return add(x, (-y[0], y[1]))


def scale(x, c):
    """Multiply a scaled number by a plain complex factor."""
    return canonical(x[0] * c, x[1])


def from_complex(c):
    c = np.asarray(c, dtype=complex)
    return canonical(c, np.zeros(c.shape))


def log_abs(x):
    """log|x| of a scaled number (-inf for zero)."""
    m, e = x
    with np.errstate(divide="ignore"):
        return e + np.log(np.abs(m))


def collapse(x, context="value", first_l=0):
    """Plain complex values, 0 on underflow.  Overflow raises RangeError
    naming ``context`` and the order of the first offending entry, taking
    entry i along the last axis to be order ``first_l + i``."""
    m, e = x
    t = log_abs(x)
    over = np.flatnonzero(t > LOG_HUGE)
    if over.size:
        i = over[0] % t.shape[-1] if t.ndim else 0
        raise RangeError(f"{context} overflows double precision at order l={first_l + i}")
    # split e so that neither factor overflows where the mantissa is small
    e_hi = np.minimum(e, LOG_HUGE)
    return np.where(t < LOG_TINY, 0j, m * np.exp(e - e_hi) * np.exp(e_hi))

