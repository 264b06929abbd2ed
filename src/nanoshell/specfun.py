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

A table (:class:`ScaledRiccati`) holds each family over its norm and the
log norms, so entries stay finite at angular momenta where (2l-1)!!-type
growth overflows doubles (Yang, Appl. Opt. 42, 1710 (2003), runs a
multilayer recursion on such bounded values).  It is formed from the
recurrences' mantissas and per-block logs: the trig seeds share one
exponent per argument, each derivative comes from neighbouring mantissas of
one block, and the Miller normalization is a unit phase times a log, so no
two large logs are subtracted at low orders.  Only the sequential j and h1
recurrences step through the orders, elementwise across the arguments of a
call, each from its own start order and with its own renormalizations, so
an argument's table is the same whatever else shares the call.  Plain
complex j/y/h1 and psi/chi/xi tables built on this table are test oracles
(``tests/oracles.py``).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError

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
    """Riccati functions over l = 0..order_max as bounded values and log
    norms.

    ``table`` is the pair (values, logs): values stacks (psi, dpsi, xi, dxi)
    on a leading axis before the argument's shape and l, each family divided
    by its norm max(|f|, |f'|), and logs stacks the log norms of psi and xi
    the same way, so psi = values[0] * exp(logs[0]).  The interface solver
    reads it as it comes.
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


def outside_domain(l_max, z):
    """Per argument of the array z: whether a table rejects it
    (:func:`_validate`)."""
    a = np.abs(z)
    return (a < _MIN_ABS_Z) | ~(_start_order(l_max, a) <= _MAX_START_ORDER)


def _renormalize(out, a, newest, other):
    """Divide ``newest`` in place, and ``other`` into a copy, by a where
    ``out`` is set; returns the copy and the log of the divisor."""
    s = np.where(out, a, 1.0)
    np.divide(newest, s, out=newest)
    return other / s, np.log(s)


def _start_order(l_max, a):
    """Order the downward j recurrence starts from at |z| = a, as a float."""
    pad = np.maximum(_PAD_MIN, np.ceil(8.0 * a ** (1.0 / 3.0)))
    return np.maximum(l_max, np.ceil(a)) + pad


def _j_downward(l_max, z, l_start, c):
    """j_l up to one factor per argument, by downward (Miller) recurrence on
    the ratios c = (2l + 1)/z: per order l = 0..l_max its mantissa, the
    mantissa of order l - 1 in the same block (zero at l = 0) and the block
    log, j_l being the mantissa times exp(block log) times that factor: the
    mantissas and lower neighbours as (l, argument) tables, the logs as an
    (argument, l) one.

    Each argument starts at its own order ``l_start``, above both l_max and
    the turning point l ~ |z|; the pad grows like |z|^(1/3) so the admixture
    of the upward-dominant solution is suppressed below 1e-12 even deep in
    the oscillatory regime.  Until its start order an argument's recurrence
    holds zeros, and renormalization is per argument at fixed orders, so no
    entry depends on the other arguments of the call.  Each order is
    formed in place in its row of one table; a renormalization divides the
    newest order there, while the order above it keeps its stored mantissa
    and the recurrence goes on from a divided copy.
    """
    # a plain set, not np.unique: numpy's set routines import numpy.ma
    starts = {l: l_start == l for l in set(l_start.ravel().tolist())}
    top = len(c) - 1
    mant = np.zeros((top + 2,) + z.shape, dtype=complex)  # unnormalized f_l at row l
    logs = np.zeros(z.shape + (l_max + 1,))
    unscaled = {}  # f_{l-1} as formed, at the orders l whose block it ends
    hi = mant[top + 1]
    for l, c_l in zip(range(top, 0, -1), c[top:0:-1]):
        f, f_l = mant[l - 1], mant[l]
        if l in starts:  # above l_max, so no stored lower neighbour sees it
            f_l[starts[l]] = 1.0
        np.multiply(c_l, f_l, out=f)
        np.subtract(f, hi, out=f)
        hi = f_l
        if l % _CHECK_EVERY == 0:
            a = np.abs(f)
            if _most(a, axis=None) > _RENORM:
                if l <= l_max:
                    unscaled[l] = f.copy()
                hi, lg = _renormalize(a > _RENORM, a, f, f_l)
                logs[..., :l] += lg[..., None]  # orders already stored keep theirs
    return mant[:l_max + 1], _lower(mant[:l_max + 1], unscaled), logs


def _h1_upward(l_max, z, h0, c):
    """h1_l up to exp(-Im z) by upward recurrence on the ratios c from h_0 =
    h0 and h_1 = h0 (1/z - i), in the form of :func:`_j_downward`; here the
    divided copy of the order below a renormalization is also the newest
    order's lower neighbour."""
    mant = np.empty((l_max + 1,) + z.shape, dtype=complex)
    mant[0] = h0
    mant[1] = h0 * (c[0] - 1j)  # c[0] = 1/z
    logs = np.zeros(z.shape + (l_max + 1,))
    scaled = {}  # f_{l-1} divided, at the orders l whose block it starts
    lo = mant[0]
    for l, c_l in zip(range(1, l_max), c[1:l_max]):
        m, m_l = mant[l + 1], mant[l]
        np.multiply(c_l, m_l, out=m)
        np.subtract(m, lo, out=m)
        lo = m_l
        if l % _CHECK_EVERY == 0:
            a = np.abs(m)
            if _most(a, axis=None) > _RENORM or _least(a, axis=None) < 1.0 / _RENORM:
                out = (a > _RENORM) | ((a != 0.0) & (a < 1.0 / _RENORM))
                lo, lg = _renormalize(out, a, m, m_l)
                scaled[l + 1] = lo
                logs[..., l + 1:] += lg[..., None]
    return mant, _lower(mant, scaled), logs


def _lower(mant, kept):
    """Each order's lower neighbour in its block: the stored order below it
    (zero at l = 0), or at the orders ``kept`` holds, the value kept there."""
    lower = np.empty_like(mant)
    lower[0] = 0.0
    lower[1:] = mant[:-1]
    for l, f in kept.items():
        lower[l] = f
    return lower


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


def _over_norm(f, df):
    """A family and its derivative over the norm max(|f|, |f'|), and the log
    of that norm."""
    norm = np.maximum(np.abs(f), np.abs(df))
    return f / norm, df / norm, np.log(norm)


def riccati_scaled(l_max, z):
    """psi/xi tables (:class:`ScaledRiccati`) at ``z``, one argument or an
    array of them, whose shape the table's arrays take between their
    leading axis and l.  A scalar argument runs as a one-element array:
    numpy's scalar arithmetic rounds some complex products differently from
    its array loops.  A non-finite entry raises RangeError naming its order.
    """
    shape = np.shape(z)
    z, l_start = _validate(l_max, np.reshape(z, -1))
    c = _ratios(int(l_start.max()), z)
    # sin z and cos z as mantissas at the common log |Im z|, from their
    # components, which do not cancel where sin z is small; exp(iz) at -Im z
    x, a = z.real, np.abs(z.imag)
    cosh_m, sinh_m = 0.5 * (1.0 + np.exp(-2.0 * a)), -0.5 * np.sign(z.imag) * np.expm1(-2.0 * a)
    sin_m = np.sin(x) * cosh_m + 1j * np.cos(x) * sinh_m
    cos_m = np.cos(x) * cosh_m - 1j * np.sin(x) * sinh_m
    eix = np.exp(1j * x)
    zz, ls = z[:, None], np.arange(l_max + 1)

    # psi = z j, the recurrence normalized against whichever closed form is
    # larger (j0 can sit on a zero); orders 0 and 1 share a block.  The
    # normalization n exp(|Im z| - block log) is a unit phase times a log
    mant, lower, block = _j_downward(l_max, z, l_start, c)
    mant, lower = mant.T, lower.T
    j0 = sin_m / z
    j1 = (j0 - cos_m) / z
    ref = np.abs(j0) < np.abs(j1)
    n = np.where(ref, j1, j0) / np.where(ref, mant[:, 1], mant[:, 0])
    d = zz * lower - ls * mant  # psi'_l = z j_{l-1} - l j_l
    d[:, 0] = cos_m / n
    psi, dpsi, log_psi = _over_norm(zz * mant, d)
    phase = (n / np.abs(n))[:, None]
    log_psi = ((block - block[:, :1]) + log_psi) + (a + np.log(np.abs(n)))[:, None]

    # xi = z h1 from exp(iz)
    mant, lower, block = _h1_upward(l_max, z, -1j * eix / z, c)
    mant, lower = mant.T, lower.T
    d = zz * lower - ls * mant
    d[:, 0] = eix
    xi, dxi, log_xi = _over_norm(zz * mant, d)
    log_xi = (block + log_xi) - z.imag[:, None]

    logs = np.stack([log_psi, log_xi])
    bad = ~np.isfinite(logs).all(axis=(0, 1))
    if bad.any():
        l = int(np.flatnonzero(bad)[0])
        raise RangeError(f"Riccati table overflows double precision at order l={l}")
    values = np.stack([psi * phase, dpsi * phase, xi, dxi])
    return ScaledRiccati(l_max, (values.reshape(4, *shape, l_max + 1),
                                 logs.reshape(2, *shape, l_max + 1)))
