"""Spherical Bessel and Riccati-Bessel tables for complex arguments.

All routines return full tables for l = 0..l_max because every consumer sums
over angular momentum.  Three numerically independent evaluation routes are
used:

* ``j_l``: downward (Miller) recurrence from a padded start order,
  normalized against the closed-form l = 0 (or l = 1) value;
* ``h1_l``: its own upward recurrence seeded from exp(iz), in the style of
  Mackowski's stratified-sphere algorithm.  ``h1`` is deliberately never
  formed as ``j + i*y``: in absorbing media ``y_l ~ i*j_l`` to nearly every
  double-precision digit, and the naive sum cancels catastrophically.
* ``y_l``: assembled as ``-i (h1_l - j_l)`` from the two stable families.
  An upward y recurrence would suffer the mirror-image failure of the
  ``j + i*y`` sum: its seeds carry the exponentially small outgoing content
  that dominates y at high orders only to absolute double precision.

Tables are carried internally as (mantissa, log-scale) arrays over l (see
:mod:`~nanoshell.scaledmath`), so entries stay finite at angular momenta where
(2l-1)!!-type growth overflows doubles.  Only the sequential j and h1
recurrences step through the orders; derivatives, products and the collapse
to plain complex values act on whole arrays.  The plain complex tables raise
:class:`~nanoshell.errors.RangeError` naming the first offending order if a
collapsed entry cannot be represented.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import scaledmath as sm
from .errors import DomainError

_PAD_MIN = 15
_RENORM = 1e250
_MIN_ABS_Z = 1e-8


@dataclass(frozen=True)
class BesselTable:
    """j_l, y_l, h1_l and their derivatives at one complex argument."""

    order_max: int
    argument: complex
    j: np.ndarray
    y: np.ndarray
    h1: np.ndarray
    dj: np.ndarray
    dy: np.ndarray
    dh1: np.ndarray


@dataclass(frozen=True)
class RiccatiTable:
    """psi_l = z j_l, chi_l = -z y_l, xi_l = z h1_l and derivatives."""

    order_max: int
    argument: complex
    psi: np.ndarray
    chi: np.ndarray
    xi: np.ndarray
    dpsi: np.ndarray
    dchi: np.ndarray
    dxi: np.ndarray


@dataclass(frozen=True)
class ScaledRiccati:
    """Riccati functions as (mantissa, log) arrays over l = 0..order_max.

    value = m[l] * exp(e[l]); psi/dpsi/xi/dxi each carry their own exponent
    array.  This is the working representation of the interface solver.
    """

    order_max: int
    argument: complex
    psi: np.ndarray
    psi_e: np.ndarray
    dpsi: np.ndarray
    dpsi_e: np.ndarray
    xi: np.ndarray
    xi_e: np.ndarray
    dxi: np.ndarray
    dxi_e: np.ndarray


def _validate(l_max, z):
    if not isinstance(l_max, (int, np.integer)) or l_max < 1:
        raise DomainError(f"l_max must be an integer >= 1, got {l_max!r}")
    z = complex(z)
    if abs(z) < _MIN_ABS_Z:
        raise DomainError(f"argument too close to zero: |z| = {abs(z):.3e}")
    return z


def _trig_seeds(z):
    """Scaled sin z, cos z, exp(iz); safe for large |Im z|."""
    eiz = sm.scaled_exp(1j * z)
    emiz = sm.scaled_exp(-1j * z)
    sinz = sm.scale(sm.sub(eiz, emiz), -0.5j)
    cosz = sm.scale(sm.add(eiz, emiz), 0.5)
    return sinz, cosz, eiz


def _j_scaled(l_max, z):
    """Scaled j_l via downward recurrence, closed-form normalized.

    The start order sits above both l_max and the turning point l ~ |z|; the
    pad grows like |z|^(1/3) so the admixture of the upward-dominant solution
    is suppressed below 1e-12 even deep in the oscillatory regime.
    """
    a = abs(z)
    l_start = max(l_max, int(math.ceil(a))) + max(_PAD_MIN, int(math.ceil(8.0 * a ** (1.0 / 3.0))))
    mant = np.empty(l_max + 1, dtype=complex)
    logs = np.empty(l_max + 1)
    f_hi = 0j          # unnormalized f_{l+1}
    f = 1.0 + 0j       # unnormalized f_l
    blog = 0.0
    for l in range(l_start, 0, -1):
        if l <= l_max:
            mant[l] = f
            logs[l] = blog
        f_lo = (2 * l + 1) / z * f - f_hi
        f_hi, f = f, f_lo
        a = abs(f)
        if a > _RENORM:
            f /= a
            f_hi /= a
            blog += math.log(a)
    mant[0] = f
    logs[0] = blog

    sinz, cosz, _ = _trig_seeds(z)
    zz = sm.from_complex(z)
    j0 = sm.div(sinz, zz)
    j1 = sm.sub(sm.div(j0, zz), sm.div(cosz, zz))
    # normalize against whichever closed form is larger (j0 can sit on a zero)
    ref = 0 if sm.log_abs(j0) >= sm.log_abs(j1) else 1
    closed = (j0, j1)[ref]
    norm = sm.div(closed, (mant[ref], logs[ref]))
    return sm.mul((mant, logs), norm)


def _upward_scaled(l_max, z, f0, f1):
    """Scaled upward recurrence from two scaled seeds (for h1_l)."""
    m_prev, e_prev = complex(f0[0]), float(f0[1])
    m, e = complex(f1[0]), float(f1[1])
    mant = [m_prev, m]
    logs = [e_prev, e]
    # bring seeds to a common block exponent
    m_prev *= math.exp(min(max(e_prev - e, sm.LOG_TINY), sm.LOG_HUGE))
    blog = e
    for l in range(1, l_max):
        m_next = (2 * l + 1) / z * m - m_prev
        m_prev, m = m, m_next
        a = abs(m)
        if a > _RENORM or (a != 0.0 and a < 1.0 / _RENORM):
            m /= a
            m_prev /= a
            blog += math.log(a)
        mant.append(m)
        logs.append(blog)
    return sm.canonical(np.array(mant), np.array(logs))


def _y_scaled(j, h):
    return sm.scale(sm.sub(h, j), -1j)


def _h1_scaled(l_max, z):
    _, _, eiz = _trig_seeds(z)
    zz = sm.from_complex(z)
    h0 = sm.scale(sm.div(eiz, zz), -1j)
    h1 = sm.scale(h0, 1.0 / z - 1j)
    return _upward_scaled(l_max, z, h0, h1)


def _derivatives(f, z, d0, c):
    """f'_l = f_{l-1} - (l + c)/z f_l for l >= 1, after the given f'_0:
    c = 0 for any Riccati family, c = 1 for a spherical one."""
    m, e = f
    ls = np.arange(1, len(m))
    dm, de = sm.add((m[:-1], e[:-1]), sm.scale((m[1:], e[1:]), -(ls + c) / z))
    return np.append(d0[0], dm), np.append(d0[1], de)


def _sph_derivatives(f, z):
    """Spherical-family derivatives; f'_0 = -f_1."""
    return _derivatives(f, z, (-f[0][1], f[1][1]), 1)


def bessel_table(l_max, z):
    """Full j/y/h1 table with derivatives at complex argument z.

    h1 comes from its own upward recurrence, not from j + i*y.
    """
    z = _validate(l_max, z)
    j = _j_scaled(l_max, z)
    h = _h1_scaled(l_max, z)
    y = _y_scaled(j, h)
    return BesselTable(
        order_max=l_max,
        argument=z,
        j=sm.collapse(j, "j"),
        y=sm.collapse(y, "y"),
        h1=sm.collapse(h, "h1"),
        dj=sm.collapse(_sph_derivatives(j, z), "j'"),
        dy=sm.collapse(_sph_derivatives(y, z), "y'"),
        dh1=sm.collapse(_sph_derivatives(h, z), "h1'"),
    )


def riccati(l_max, z):
    """Riccati-Bessel table psi, chi, xi with derivatives at argument z."""
    z = _validate(l_max, z)
    zz = sm.from_complex(z)
    sinz, cosz, eiz = _trig_seeds(z)
    j = _j_scaled(l_max, z)
    h = _h1_scaled(l_max, z)
    psi = sm.mul(j, zz)
    chi = sm.scale(sm.mul(_y_scaled(j, h), zz), -1.0)
    xi = sm.mul(h, zz)
    return RiccatiTable(
        order_max=l_max,
        argument=z,
        psi=sm.collapse(psi, "psi"),
        chi=sm.collapse(chi, "chi"),
        xi=sm.collapse(xi, "xi"),
        dpsi=sm.collapse(_derivatives(psi, z, cosz, 0), "psi'"),
        dchi=sm.collapse(_derivatives(chi, z, sm.scale(sinz, -1.0), 0), "chi'"),
        dxi=sm.collapse(_derivatives(xi, z, eiz, 0), "xi'"),
    )


def riccati_scaled(l_max, z):
    """psi/xi tables in scaled form; the interface solver's working fuel."""
    z = _validate(l_max, z)
    zz = sm.from_complex(z)
    _, cosz, eiz = _trig_seeds(z)
    psi = sm.mul(_j_scaled(l_max, z), zz)
    xi = sm.mul(_h1_scaled(l_max, z), zz)
    dpsi = _derivatives(psi, z, cosz, 0)
    dxi = _derivatives(xi, z, eiz, 0)
    return ScaledRiccati(
        order_max=l_max,
        argument=z,
        psi=psi[0],
        psi_e=psi[1],
        dpsi=dpsi[0],
        dpsi_e=dpsi[1],
        xi=xi[0],
        xi_e=xi[1],
        dxi=dxi[0],
        dxi_e=dxi[1],
    )
