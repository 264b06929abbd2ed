"""Riccati-Bessel tables for complex arguments, the interface solver's
fuel.

:func:`riccati_scaled` returns psi_l = z j_l and xi_l = z h1_l with their
derivatives for l = 0..l_max, because every consumer sums over angular
momentum.  The two families come from numerically independent routes:

* ``j_l``: downward (Miller) recurrence from a padded start order,
  normalized against the closed-form l = 0 (or l = 1) value;
* ``h1_l``: its own upward recurrence seeded from exp(iz), in the style of
  Mackowski's stratified-sphere algorithm.  ``h1`` is deliberately never
  formed as ``j + i*y``: in absorbing media ``y_l ~ i*j_l`` to nearly every
  double-precision digit, and the naive sum cancels catastrophically.

Tables are carried as (mantissa, log-scale) arrays over l (see
:mod:`~nanoshell.scaledmath`), so entries stay finite at angular momenta where
(2l-1)!!-type growth overflows doubles.  Only the sequential j and h1
recurrences step through the orders; derivatives and products act on whole
arrays.  :func:`riccati_scaled` takes an array of arguments and returns one
table per argument (last axis l); the recurrences run elementwise across the
arguments, each from its own start order and with its own renormalizations,
so an argument's table is the same whatever else shares the call.  Plain
complex j/y/h1 and psi/chi/xi tables built on the same recurrences are test
oracles (``tests/oracles.py``).
"""

from dataclasses import dataclass

import numpy as np

from . import scaledmath as sm
from .errors import DomainError

_PAD_MIN = 15
_RENORM = 1e250
# orders between renormalization checks: a recurrence pair grows at most by
# (2l + 1)/|z| + 1 per order, so four orders from 1e250 stay below double
# overflow for every |z| >= _MIN_ABS_Z and l up to _MAX_START_ORDER; an
# argument whose j recurrence would start above it is rejected
_CHECK_EVERY = 4
_MIN_ABS_Z = 1e-8
_MAX_START_ORDER = 10**5

_most, _least = np.maximum.reduce, np.minimum.reduce


@dataclass(frozen=True)
class ScaledRiccati:
    """Riccati functions in scaled form over l = 0..order_max.

    ``table`` is one (mantissa, log) pair, value = m * exp(e), each array
    stacking (psi, dpsi, xi, dxi) on a leading axis before the argument's
    shape and l; the interface solver converts it once into plain complex
    values over their norms.
    """

    order_max: int
    table: tuple


def _validate(l_max, z):
    """The argument as a complex array and the start order of its j recurrence."""
    if not isinstance(l_max, (int, np.integer)) or l_max < 1:
        raise DomainError(f"l_max must be an integer >= 1, got {l_max!r}")
    z = np.asarray(z, dtype=complex)
    a = np.abs(z)
    small = a[a < _MIN_ABS_Z]
    if small.size:
        raise DomainError(f"argument too close to zero: |z| = {small[0]:.3e}")
    start = _start_order(l_max, a)
    large = a[~(start <= _MAX_START_ORDER)]
    if large.size:
        raise DomainError(
            f"argument too large: |z| = {large[0]:.3e} needs Riccati orders beyond "
            f"{_MAX_START_ORDER}"
        )
    return z, start.astype(int)


def _trig_seeds(z):
    """Scaled sin z, cos z, exp(iz); safe for large |Im z|."""
    eiz = sm.scaled_exp(1j * z)
    emiz = sm.scaled_exp(-1j * z)
    sinz = sm.scale(sm.sub(eiz, emiz), -0.5j)
    cosz = sm.scale(sm.add(eiz, emiz), 0.5)
    return sinz, cosz, eiz


def _renormalize(out, a, *fs):
    """Divide each f by a where ``out`` is set; returns the divided fs and
    the log of the divisor."""
    s = np.where(out, a, 1.0)
    return [f / s for f in fs], np.log(s)


def _start_order(l_max, a):
    """Order the downward j recurrence starts from at |z| = a, as a float."""
    pad = np.maximum(_PAD_MIN, np.ceil(8.0 * a ** (1.0 / 3.0)))
    return np.maximum(l_max, np.ceil(a)) + pad


def _j_scaled(l_max, z, seeds, l_start, c):
    """Scaled j_l via downward recurrence, closed-form normalized, on the
    ratios c = (2l + 1)/z.

    Each argument starts at its own order ``l_start``, above both l_max and
    the turning point l ~ |z|; the pad grows like |z|^(1/3) so the admixture
    of the upward-dominant solution is suppressed below 1e-12 even deep in
    the oscillatory regime.  Until its start order an argument's recurrence
    holds zeros, and renormalization is per argument at fixed orders, so no
    entry depends on the other arguments of the call.
    """
    # a plain set, not np.unique: numpy's set routines import numpy.ma
    starts = {l: l_start == l for l in set(l_start.ravel().tolist())}
    f_hi = np.zeros(z.shape, dtype=complex)  # unnormalized f_{l+1}
    f = np.zeros(z.shape, dtype=complex)  # unnormalized f_l
    mant = [None] * (l_max + 1)
    logs = np.zeros(z.shape + (l_max + 1,))
    for l in range(len(c) - 1, 0, -1):
        if l in starts:
            f = np.where(starts[l], 1.0 + 0j, f)
        if l <= l_max:
            mant[l] = f
        f, f_hi = c[l] * f - f_hi, f
        if l % _CHECK_EVERY == 0:
            a = np.abs(f)
            if _most(a, axis=None) > _RENORM:
                (f, f_hi), lg = _renormalize(a > _RENORM, a, f, f_hi)
                logs[..., :l] += lg[..., None]  # orders already stored keep theirs
    mant[0] = f
    mant = np.stack(mant, axis=-1)

    sinz, cosz, _ = seeds
    zz = sm.from_complex(z)
    j0 = sm.div(sinz, zz)
    j1 = sm.sub(sm.div(j0, zz), sm.div(cosz, zz))
    # normalize against whichever closed form is larger (j0 can sit on a zero)
    ref = sm.log_abs(j0) < sm.log_abs(j1)
    closed = tuple(np.where(ref, c1, c0) for c0, c1 in zip(j0, j1))
    raw = tuple(np.where(ref, x[..., 1], x[..., 0]) for x in (mant, logs))
    norm = sm.div(closed, raw)
    return sm.mul((mant, logs), (norm[0][..., None], norm[1][..., None]))


def _upward_scaled(l_max, z, f0, f1, c):
    """Scaled upward recurrence (for h1_l) from two scaled seeds on ratios c."""
    m_prev, e_prev = f0
    m, e = f1
    mant = [m_prev, m]
    logs = np.empty(z.shape + (l_max + 1,))
    logs[..., 0] = e_prev
    logs[..., 1:] = e[..., None]
    # bring seeds to a common block exponent
    m_prev = m_prev * np.exp(np.clip(e_prev - e, sm.LOG_TINY, sm.LOG_HUGE))
    for l in range(1, l_max):
        m, m_prev = c[l] * m - m_prev, m
        if l % _CHECK_EVERY == 0:
            a = np.abs(m)
            if _most(a, axis=None) > _RENORM or _least(a, axis=None) < 1.0 / _RENORM:
                out = (a > _RENORM) | ((a != 0.0) & (a < 1.0 / _RENORM))
                (m, m_prev), lg = _renormalize(out, a, m, m_prev)
                logs[..., l + 1:] += lg[..., None]
        mant.append(m)
    return sm.canonical(np.stack(mant, axis=-1), logs)


def _ratios(l_top, z):
    """(2l + 1)/z for l = 0..l_top, indexed by l first."""
    ls = (2 * np.arange(l_top + 1) + 1).reshape((-1,) + (1,) * z.ndim)
    return real_over(ls, z)


def real_over(a, z):
    """a / z for real a and complex z by Smith's algorithm with true
    divisions, one rounding fewer per entry than numpy's complex division,
    which multiplies by a rounded reciprocal.  The recurrences compound
    their ratios over hundreds of orders."""
    z = np.asarray(z, dtype=complex)
    wide = np.abs(z.real) >= np.abs(z.imag)
    p = np.where(wide, z.real, z.imag)  # the larger component
    ratio = np.where(wide, z.imag, z.real) / p
    denom = p + np.where(wide, z.imag, z.real) * ratio
    x = a / denom
    y = a * ratio / denom
    return np.where(wide, x, y) + 1j * np.where(wide, -y, -x)


def _h1_scaled(l_max, z, seeds, c):
    _, _, eiz = seeds
    zz = sm.from_complex(z)
    h0 = sm.scale(sm.div(eiz, zz), -1j)
    h1 = sm.scale(h0, c[0] - 1j)  # c[0] = 1/z
    return _upward_scaled(l_max, z, h0, h1, c)


def _derivatives(f, z, d0, c):
    """f'_l = f_{l-1} - (l + c)/z f_l for l >= 1 along the last axis, after
    the given f'_0: c = 0 for any Riccati family, c = 1 for a spherical one."""
    m, e = f
    ls = np.arange(1, m.shape[-1])
    step = sm.scale((m[..., 1:], e[..., 1:]), -(ls + c) / z[..., None])
    dm, de = sm.add((m[..., :-1], e[..., :-1]), step)
    return tuple(np.concatenate([d[..., None], x], axis=-1) for d, x in zip(d0, (dm, de)))


def _families(l_max, z):
    """Validated argument, its trig seeds and the scaled j and h1 tables,
    both recurrences reading one table of ratios (2l + 1)/z."""
    z, l_start = _validate(l_max, z)
    seeds = _trig_seeds(z)
    c = _ratios(int(l_start.max()), z)
    return z, seeds, _j_scaled(l_max, z, seeds, l_start, c), _h1_scaled(l_max, z, seeds, c)


def riccati_scaled(l_max, z):
    """psi/xi tables in scaled form; the interface solver's working fuel.

    ``z`` is one argument or an array of them; each array of the table then
    has the (psi, dpsi, xi, dxi) axis, the argument's shape and a last axis
    over l = 0..l_max, and each argument's entries are the same whatever
    else shares the call.  A scalar argument runs as a one-element array:
    numpy's scalar arithmetic rounds some complex products differently from
    its array loops.
    """
    shape = np.shape(z)
    z, (_, cosz, eiz), j, h = _families(l_max, np.reshape(z, -1))
    zz = tuple(x[..., None] for x in sm.from_complex(z))
    # psi and xi stacked on a leading axis, then their derivatives
    stacked = sm.mul(tuple(np.stack(x) for x in zip(j, h)), zz)
    d0 = tuple(np.stack(x) for x in zip(cosz, eiz))
    derived = _derivatives(stacked, z, d0, 0)
    # interleaved into (psi, dpsi, xi, dxi)
    table = tuple(np.stack(x, axis=1).reshape(4, *shape, l_max + 1) for x in zip(stacked, derived))
    return ScaledRiccati(l_max, table)
