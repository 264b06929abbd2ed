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
two large logs are subtracted at low orders.  Only the j and h1
recurrences step through the orders, side by side in one pass, one numpy
product and one difference per order for both families and every argument
of a call; each argument runs from its own start order, and each family
and argument has its own renormalizations, which divide nothing else, so
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


def _renormalize(rows, s, f, out, a):
    """Divide family f of table rows s + 1 and s + 2 in place by a where
    ``out`` is set, and nowhere else; returns row s + 1's entry as it was
    and the log of the divisor."""
    d = np.where(out, a, 1.0)
    above, newest = rows[s + 1, f], rows[s + 2, f]
    stored = above.copy()
    np.divide(newest, d, out=newest, where=out)
    np.divide(above, d, out=above, where=out)
    return stored, np.log(d)


def _start_order(l_max, a):
    """Order the downward j recurrence starts from at |z| = a, as a float."""
    pad = np.maximum(_PAD_MIN, np.ceil(8.0 * a ** (1.0 / 3.0)))
    return np.maximum(l_max, np.ceil(a)) + pad


def _recurrences(l_max, z, l_start, c, h0):
    """j_l up to one factor per argument, by downward (Miller) recurrence,
    and h1_l up to exp(-Im z), by upward recurrence from h_0 = h0 and h_1 =
    h0 (1/z - i), both on the ratios c = (2l + 1)/z of the arguments z (one
    axis): per family (j, h1) and order l = 0..l_max its mantissa, the
    mantissa of order l - 1 in the same block (zero at l = 0) and the block
    log, f_l being the mantissa times exp(block log), each as a (family,
    argument, l) table.

    Each argument's j recurrence starts at its own order ``l_start``, above
    both l_max and the turning point l ~ |z|; the pad grows like |z|^(1/3)
    so the admixture of the upward-dominant solution is suppressed below
    1e-12 even deep in the oscillatory regime.  Until its start order an
    argument's recurrence holds zeros, and renormalization is per family
    and argument at fixed orders, so no entry depends on the other
    arguments of the call.  Row k of one (row, family, argument) table
    holds (f_{top+1-k}, m_{k-lag}), lag = top - l_max + 1, so step s forms
    row s + 2 of both families from rows s + 1 and s: j alone for its first
    lag steps, then h1 from its two seed rows.  A renormalization divides
    the entries of the family's two newest rows that left range, in place,
    and no other (a division by 1 can flip the sign of a zero); the upper
    row keeps its stored mantissa, and for j the lower one its value as the
    lower neighbour.
    """
    top = len(c) - 1
    lag = top - l_max + 1
    rows = np.zeros((top + 2, 2, z.size), dtype=complex)
    rows[lag, 1] = h0
    rows[lag + 1, 1] = h0 * (c[0] - 1j)  # c[0] = 1/z
    coef = np.empty((top, 2, z.size), dtype=complex)
    coef[:, 0] = c[top:0:-1]
    coef[lag:, 1] = c[1:l_max]
    logs = np.zeros((2, z.size, l_max + 1))
    stored, kept = {}, {}  # (family, l): mantissas and lower neighbours
    # the step before which each start order is set; a plain set, not
    # np.unique: numpy's set routines import numpy.ma
    starts = {top - l: l_start == l for l in set(l_start.tolist())}
    j_due = range(top % _CHECK_EVERY, top, _CHECK_EVERY)  # order top - s
    h_due = range(lag + _CHECK_EVERY - 1, top, _CHECK_EVERY)  # order s + 1 - lag
    due = {*j_due, *h_due, lag - 1, *(s - 1 for s in starts)}
    lo, mid = rows[0, 0], rows[1, 0]
    mid[starts[0]] = 1.0
    mul, sub = np.multiply, np.subtract  # a step is ~1 us, nearly all numpy's call cost
    for s, (cf, new) in enumerate([*zip(coef[:lag, 0], rows[2:lag + 2, 0]),
                                   *zip(coef[lag:], rows[lag + 2:])]):
        mul(cf, mid, new)
        sub(new, lo, new)
        lo, mid = mid, new
        if s not in due:
            continue
        a = np.abs(rows[s + 2])  # one abs for both families where both are checked
        most = _most(a, axis=1)
        if s in j_due and most[0] > _RENORM:
            l = top - s
            kept[0, l] = rows[s + 2, 0].copy()  # f_{l-1} as formed
            stored[0, l], lg = _renormalize(rows, s, 0, a[0] > _RENORM, a[0])
            logs[0, :, :l] += lg[:, None]  # orders already stored keep theirs
        if s in h_due and (most[1] > _RENORM or _least(a[1], axis=None) < 1.0 / _RENORM):
            l, h = s + 1 - lag, a[1]
            out = (h > _RENORM) | ((h != 0.0) & (h < 1.0 / _RENORM))
            stored[1, l], lg = _renormalize(rows, s, 1, out, h)
            kept[1, l + 1] = rows[s + 1, 1].copy()
            logs[1, :, l + 1:] += lg[:, None]
        if s + 1 in starts:  # above l_max, so no stored lower neighbour sees it
            mid[starts[s + 1]] = 1.0
        if s + 1 == lag:
            lo, mid = rows[lag], rows[lag + 1]
    mant = np.empty(logs.shape, dtype=complex)
    mant[0], mant[1] = rows[lag:][::-1, 0].T, rows[lag:, 1].T
    for (f, l), m in stored.items():
        if l <= l_max:
            mant[f, :, l] = m
    lower = np.empty_like(mant)
    lower[..., 0] = 0.0
    lower[..., 1:] = mant[..., :-1]
    for (f, l), m in kept.items():
        if l <= l_max:
            lower[f, :, l] = m
    return mant, lower, logs


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
    sin_x, cos_x = np.sin(x), np.cos(x)
    cosh_m, sinh_m = 0.5 * (1.0 + np.exp(-2.0 * a)), -0.5 * np.sign(z.imag) * np.expm1(-2.0 * a)
    sin_m = sin_x * cosh_m + 1j * cos_x * sinh_m
    cos_m = cos_x * cosh_m - 1j * sin_x * sinh_m
    eix = np.exp(1j * x)
    zz, ls = z[:, None], np.arange(l_max + 1)

    # psi = z j, the j recurrence normalized against whichever closed form
    # is larger (j0 can sit on a zero); orders 0 and 1 share a block.  The
    # normalization n exp(|Im z| - block log) is a unit phase times a log.
    # xi = z h1 from exp(iz)
    mant, lower, block = _recurrences(l_max, z, l_start, c, -1j * eix / z)
    j0 = sin_m / z
    j1 = (j0 - cos_m) / z
    ref = np.abs(j0) < np.abs(j1)
    n = np.where(ref, j1, j0) / np.where(ref, mant[0, :, 1], mant[0, :, 0])
    d = zz * lower - ls * mant  # f'_l = z f_{l-1} - l f_l for psi and xi
    d[0, :, 0], d[1, :, 0] = cos_m / n, eix
    f, df, log_f = _over_norm(zz * mant, d)
    phase = (n / np.abs(n))[:, None]
    logs = np.stack([((block[0] - block[0, :, :1]) + log_f[0]) + (a + np.log(np.abs(n)))[:, None],
                     (block[1] + log_f[1]) - z.imag[:, None]])
    bad = ~np.isfinite(logs).all(axis=(0, 1))
    if bad.any():
        l = int(np.flatnonzero(bad)[0])
        raise RangeError(f"Riccati table overflows double precision at order l={l}")
    values = np.stack([f[0] * phase, df[0] * phase, f[1], df[1]])
    return ScaledRiccati(l_max, (values.reshape(4, *shape, l_max + 1),
                                 logs.reshape(2, *shape, l_max + 1)))
