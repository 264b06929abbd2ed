"""Independent reference implementations used only by the test suite.

* Closed-form single-interface (homogeneous sphere) dipole rates, built on
  scipy's real-argument spherical Bessel functions plus arbitrary-precision
  evaluation for complex interior arguments.  No code is shared with the
  engine's recurrence tables or interface solver.
* Arbitrary-precision spherical Bessel reference values via mpmath.
* The Ohmic rate by adaptive Gauss-Legendre quadrature of eps''|E|^2 over
  each absorbing shell, the volume-integral route the engine's boundary
  closed form replaces.
* Views the engine does not need: the plain 2x2 matrix of one interface,
  the per-region amplitude pairs of a channel of a closure, the flux
  through one interface formed alone, and the non-retarded image-limit
  shift.
* Plain complex j/y/h1 and psi/chi/xi tables (:func:`bessel_table`,
  :func:`riccati`) collapsed from the engine's own normalized Riccati
  table, taken into scaled pairs (:mod:`~nanoshell.scaledmath`), with y
  assembled as -i (h1 - j); they raise RangeError naming the first order
  that cannot be represented.
"""

import functools
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy.special import spherical_jn, spherical_yn

from nanoshell import model, transfer
from nanoshell import scaledmath as sm
from nanoshell.errors import DomainError, NanoshellError, RangeError
from nanoshell.specfun import riccati_scaled

mp.mp.dps = 40


class QuadratureError(NanoshellError):
    """Absorption quadrature failed to reach its tolerance."""

    def __init__(self, shell_index, achieved, requested):
        self.shell_index = shell_index
        self.achieved = achieved
        self.requested = requested
        super().__init__(
            f"absorption quadrature did not converge in shell {shell_index}: "
            f"achieved relative error {achieved:.3e}, requested {requested:.3e}"
        )


def mp_spherical(l, z):
    """(j_l, y_l, h1_l) at complex z by arbitrary-precision direct formulas."""
    zc = mp.mpc(z)
    pref = mp.sqrt(mp.pi / (2 * zc))
    j = pref * mp.besselj(l + mp.mpf(1) / 2, zc)
    y = pref * mp.bessely(l + mp.mpf(1) / 2, zc)
    return complex(j), complex(y), complex(j + 1j * y)


def _riccati_real(l_max, x):
    """psi, psi', xi, xi', j, h at a real argument via scipy."""
    ls = np.arange(l_max + 1)
    j = spherical_jn(ls, x)
    dj = spherical_jn(ls, x, derivative=True)
    y = spherical_yn(ls, x)
    dy = spherical_yn(ls, x, derivative=True)
    h = j + 1j * y
    psi = x * j
    dpsi = j + x * dj
    xi = x * h
    dxi = h + x * (dj + 1j * dy)
    return psi, dpsi, xi, dxi, j, h


@functools.lru_cache(maxsize=None)
def _riccati_mp(l_max, z):
    """psi, psi' at a complex argument via mpmath (interior medium only),
    as read-only arrays: a table is computed once per (l_max, z)."""
    zc = mp.mpc(z)
    pref = mp.sqrt(mp.pi / (2 * zc))
    js = [pref * mp.besselj(l + mp.mpf(1) / 2, zc) for l in range(l_max + 1)]
    psi = np.array([complex(zc * js[l]) for l in range(l_max + 1)])
    dpsi = np.empty(l_max + 1, dtype=complex)
    dpsi[0] = complex(mp.cos(zc))
    for l in range(1, l_max + 1):
        dpsi[l] = complex(zc * js[l - 1] - l * js[l])
    psi.flags.writeable = dpsi.flags.writeable = False
    return psi, dpsi


def _sphere_coefficients(n1, n2, r_s_nm, wavelength_nm, l_max):
    """Exterior-response reflection coefficients (TM, TE) of a homogeneous
    sphere: regular unit wave in, outgoing wave back."""
    k0 = 2 * np.pi / wavelength_nm
    m = complex(n1) / complex(n2)
    x1 = complex(n1) * k0 * r_s_nm
    x2 = (complex(n2) * k0 * r_s_nm).real
    if abs(complex(n1).imag) > 1e-14:
        p1, dp1 = _riccati_mp(l_max, x1)
    else:
        p1, dp1, *_ = _riccati_real(l_max, x1.real)
    p2, dp2, q2, dq2, _, _ = _riccati_real(l_max, x2)
    rn = (m * p1 * dp2 - dp1 * p2) / (dp1 * q2 - m * p1 * dq2)
    rm = (m * dp1 * p2 - p1 * dp2) / (p1 * dq2 - m * dp1 * q2)
    return rn, rm


def _interior_coefficients(n1, n2, r_s_nm, wavelength_nm, l_max):
    """Interior-response coefficients: outgoing unit wave from inside,
    regular wave back (lossless sphere)."""
    k0 = 2 * np.pi / wavelength_nm
    m = complex(n1) / complex(n2)
    x1 = (complex(n1) * k0 * r_s_nm).real
    x2 = (complex(n2) * k0 * r_s_nm).real
    p1, dp1, q1, dq1, _, _ = _riccati_real(l_max, x1)
    p2, dp2, q2, dq2, _, _ = _riccati_real(l_max, x2)
    rn = (m * q1 * dq2 - dq1 * q2) / (dp1 * q2 - m * p1 * dq2)
    rm = (m * dq1 * q2 - q1 * dq2) / (p1 * dq2 - m * dp1 * q2)
    return rn, rm


def exterior_dipole_rates(n1, n2, r_s_nm, wavelength_nm, r_d_nm, l_max=60):
    """(wt, shift, wrad) for radial and tangential dipoles outside a
    homogeneous sphere; classic multipole-reflection formulas."""
    k0 = 2 * np.pi / wavelength_nm
    rho = (complex(n2) * k0 * r_d_nm).real
    rn, rm = _sphere_coefficients(n1, n2, r_s_nm, wavelength_nm, l_max)
    psi, dpsi, xi, dxi, j, h = _riccati_real(l_max, rho)
    ls = np.arange(l_max + 1, dtype=float)
    w_n = ls * (ls + 1) * (2 * ls + 1)
    w_t = 2 * ls + 1

    hr = h / rho
    radial_kernel = rn * hr * hr
    wt_r = 1 + 1.5 * np.sum((w_n * radial_kernel.real)[1:])
    sh_r = 0.75 * np.sum((w_n * radial_kernel.imag)[1:])
    wrad_r = 1.5 * np.sum((w_n * np.abs(j / rho + rn * hr) ** 2)[1:])

    tang_kernel = rm * h * h + rn * (dxi / rho) ** 2
    wt_t = 1 + 0.75 * np.sum((w_t * tang_kernel.real)[1:])
    sh_t = 0.375 * np.sum((w_t * tang_kernel.imag)[1:])
    wrad_t = 0.75 * np.sum(
        (w_t * (np.abs(j + rm * h) ** 2 + np.abs((dpsi + rn * dxi) / rho) ** 2))[1:]
    )
    return {
        "radial": (float(wt_r), float(sh_r), float(wrad_r)),
        "tangential": (float(wt_t), float(sh_t), float(wrad_t)),
    }


def interior_dipole_rates(n1, n2, r_s_nm, wavelength_nm, r_d_nm, l_max=60):
    """(wt, shift) for dipoles inside a lossless homogeneous sphere;
    the radiative rate equals the total rate there."""
    k0 = 2 * np.pi / wavelength_nm
    rho = (complex(n1) * k0 * r_d_nm).real
    rn, rm = _interior_coefficients(n1, n2, r_s_nm, wavelength_nm, l_max)
    psi, dpsi, xi, dxi, j, h = _riccati_real(l_max, rho)
    ls = np.arange(l_max + 1, dtype=float)
    w_n = ls * (ls + 1) * (2 * ls + 1)
    w_t = 2 * ls + 1

    jr = j / rho
    radial_kernel = rn * jr * jr
    wt_r = 1 + 1.5 * np.sum((w_n * radial_kernel.real)[1:])
    sh_r = 0.75 * np.sum((w_n * radial_kernel.imag)[1:])

    tang_kernel = rm * j * j + rn * (dpsi / rho) ** 2
    wt_t = 1 + 0.75 * np.sum((w_t * tang_kernel.real)[1:])
    sh_t = 0.375 * np.sum((w_t * tang_kernel.imag)[1:])
    return {
        "radial": (float(wt_r), float(sh_r)),
        "tangential": (float(wt_t), float(sh_t)),
    }


# ---------------------------------------------------------------------------
# Ohmic absorption by adaptive radial quadrature


_GL_CACHE = {}


def _gl_nodes(order):
    if order not in _GL_CACHE:
        _GL_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GL_CACHE[order]


def _scaled_field_sum(c1m, c1e, t1m, t1e, c2m, c2e, t2m, t2e):
    """c1*t1 + c2*t2 for (mantissa, log) arrays, collapsed to plain complex.

    Individual products may dwarf the physical sum (growing/decaying wave
    pairs), so exponents are clipped and genuine overflow is flagged.
    """
    e1 = np.clip(c1e + t1e, sm.LOG_TINY, sm.LOG_HUGE)
    e2 = np.clip(c2e + t2e, sm.LOG_TINY, sm.LOG_HUGE)
    f = c1m * t1m * np.exp(e1) + c2m * t2m * np.exp(e2)
    if not np.all(np.isfinite(f)):
        raise RangeError("field amplitude overflows double precision in absorption integrand")
    return f


def _region_channels(closure, region):
    """Per-polarization (regular, outgoing) scaled amplitudes over l =
    1..l_max in one region away from the dipole, with the orders and the
    channel weights, for the one row of a closure."""
    parts = {}
    l = closure.prepared.ls
    for c, pol in enumerate(closure.pol):
        # inner/outer states only differ in the host
        (c1m, c1e), (c2m, c2e) = states(closure, c)[region - 1][1]
        w = closure.weight[c, 0]
        parts[transfer.POLS[pol]] = {"l": l, "c1m": c1m, "c1e": c1e, "c2m": c2m, "c2e": c2e, "w": w}
    return parts


def _radial_profiles(p, tab):
    """Radial profile f and its argument-derivative, per argument of a
    batched Riccati table (rows) and per order of the channel (columns)."""
    l = p["l"]
    v, e = (x[..., l] for x in tab.table)  # (psi, dpsi, xi, dxi) values, (psi, xi) log norms
    f = _scaled_field_sum(p["c1m"], p["c1e"], v[0], e[0], p["c2m"], p["c2e"], v[2], e[1])
    fd = _scaled_field_sum(p["c1m"], p["c1e"], v[1], e[0], p["c2m"], p["c2e"], v[3], e[1])
    return f, fd


def _region_integrand(closure, region):
    """Vector integrand: per-order angular-folded |E|^2 density in one region.

    Angular integrals are done analytically (the vector-wave families are
    orthogonal over the sphere), leaving a 1D radial integral of Riccati
    bilinears.  The integrand takes an array of radii and returns one row
    per radius, from one batched Riccati table.
    """
    k = closure.prepared.ctxs[closure.w[0]].k[region - 1]
    abs_k2 = abs(k) ** 2
    l_max = closure.prepared.l_max
    parts = _region_channels(closure, region)

    def integrand(r):
        tab = riccati_scaled(l_max, k * r)
        rr = r[:, None]
        out = np.zeros((len(r), l_max))
        for pol, p in parts.items():
            f, fd = _radial_profiles(p, tab)
            ls = p["l"].astype(float)
            if pol == transfer.TM:
                out[:, p["l"] - 1] += p["w"] * (
                    ls * (ls + 1.0) * np.abs(f) ** 2 / (abs_k2 * rr * rr) + np.abs(fd) ** 2
                ) / abs_k2
            else:
                out[:, p["l"] - 1] += p["w"] * np.abs(f) ** 2 / abs_k2
        return out

    return integrand


def _adaptive_region_integral(fn, a, b, breakpoints, rtol, max_panels):
    """Adaptive bisection with embedded GL(10)/GL(20) error estimates.

    Deterministic: the worst panel (ties broken by position) is split until
    the summed per-order discrepancy meets the tolerance or the panel cap.
    A panel's 30 nodes go to ``fn`` in one call.
    """
    x10, w10 = _gl_nodes(10)
    x20, w20 = _gl_nodes(20)
    x = np.concatenate([x10, x20])

    def panel(lo, hi):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        f = fn(mid + half * x)
        i10 = sum(w * row for w, row in zip(w10, f[:10])) * half
        i20 = sum(w * row for w, row in zip(w20, f[10:])) * half
        return [lo, hi, i20, float(np.sum(np.abs(i20 - i10)))]

    edges = sorted({a, b, *[p for p in breakpoints if a < p < b]})
    panels = [panel(lo, hi) for lo, hi in zip(edges, edges[1:])]
    while True:
        total = np.sum([p[2] for p in panels], axis=0)
        err = sum(p[3] for p in panels)
        norm = float(np.sum(np.abs(total)))
        if norm == 0.0 or err <= rtol * norm:
            return total, (err / norm if norm else 0.0)
        if len(panels) >= max_panels:
            return total, err / norm
        worst = max(panels, key=lambda p: (p[3], -p[0]))
        panels.remove(worst)
        mid = 0.5 * (worst[0] + worst[1])
        panels.append(panel(worst[0], mid))
        panels.append(panel(mid, worst[1]))


def quadrature_ohmic_per_l(closure, rtol=1e-7, metal_offset_nm=1.0, max_panels=400):
    """Per-order normalized Ohmic rate of the one row of a closure by
    adaptive quadrature, panel edges forced metal_offset_nm inside every
    absorbing shell.

    Returns (per_l array indexed 1..l_max, (worst relative error estimate,
    its region)); the region is None when no shell absorbs.
    """
    ctx = closure.prepared.ctxs[closure.w[0]]
    per_l = np.zeros(closure.prepared.l_max)
    worst = (0.0, None)
    for region in range(1, ctx.n_regions):
        if not ctx.absorbing[region - 1]:
            continue
        a = ctx.radii[region - 2] if region >= 2 else 0.0
        b = ctx.radii[region - 1]
        a = max(a, 1e-6 * b)  # keep the 1/r^2 factor finite; j_l kills it anyway
        breaks = [a + metal_offset_nm, b - metal_offset_nm]
        integral, rel = _adaptive_region_integral(
            _region_integrand(closure, region), a, b, breaks, rtol, max_panels
        )
        per_l += ctx.eps[region - 1].imag * integral
        if rel > worst[0]:
            worst = (rel, region)

    n = closure.host[0]
    pref = ctx.k0**3 * math.sqrt(ctx.eps[n - 1].real) * ctx.mu[n - 1] ** 1.5
    return pref * per_l, worst


def quadrature_ohmic_rate(sphere, dipole, l_max=60, rtol=1e-7, max_panels=400):
    """Normalized Ohmic rate by quadrature; QuadratureError names the shell
    and the achieved error when the panel cap stops it short of rtol."""
    closure = transfer.solve_dipole_fields(sphere, dipole, l_max)
    per_l, (rel, region) = quadrature_ohmic_per_l(closure, rtol, max_panels=max_panels)
    if region is not None and rel > rtol:
        raise QuadratureError(region, rel, rtol)
    return float(np.sum(per_l))


# ---------------------------------------------------------------------------
# Views of the solver the engine does not need


def interface_matrix(l, pol, n_in, n_out, radius_nm, wavelength_nm, mu_in=1.0, mu_out=1.0):
    """Plain 2x2 matrix carrying (regular, outgoing) amplitudes of order l >= 1
    from the inner medium to the outer one across a single interface; the
    solver's own matching step applied to the unit pairs of a two-region
    sphere, taken to and from local amplitudes with the family norms."""
    k0 = 2.0 * math.pi / wavelength_nm
    n = (complex(n_in), complex(n_out))
    mu = (mu_in, mu_out)
    eps = tuple(n_j * n_j / mu_j for n_j, mu_j in zip(n, mu))
    ctx = transfer.LayerContext(
        radii=(radius_nm,),
        k=tuple(k0 * n_j for n_j in n),
        mu=mu,
        eps=eps,
        absorbing=tuple(e.imag > 1e-12 for e in eps),
        k0=k0,
        wavelength_nm=wavelength_nm,
    )
    prepared = transfer.Prepared(None, [wavelength_nm], l, [ctx])
    p = transfer.POLS.index(pol)
    inner, outer, _ = prepared.norms()
    m = np.empty((2, 2), dtype=complex)
    for col, unit in enumerate(UNIT_PAIRS):
        local = unit * np.exp(outer[:, 0, -1])
        pair, _ = transfer._cross(local, prepared.entries(1, 1), prepared.entries(2, 1))
        m[:, col] = pair[:, p, -1] * np.exp(-inner[:, 1, -1])
    return m


# the unit (regular, outgoing) pairs (1, 0) and (0, 1)
UNIT_PAIRS = tuple(np.array(c, dtype=complex) for c in ((1, 0), (0, 1)))


def states(closure, c):
    """Per region 1..N+1 of channel c of the one row of a closure:
    (inner_state, outer_state) scaled pairs over l = 1..l_max of physical
    amplitudes.  The two differ only in the host region, across the source.
    Each region's stored sweep pair is carried to the host by the prepare's
    link and taken out of its local normalization with its family norms."""
    prepared, sweeps = closure.prepared, closure.sweeps
    host, pol, w = closure.host[:1], closure.pol[c], closure.w[:1]
    n = prepared.ctxs[0].n_regions
    # the dipole's log norms, which do not depend on the channel kind
    _, logs, _ = transfer._sources(prepared, np.array([0]), closure.r[:1], w, host)
    ref_in, ref_out, _ = transfer._references(prepared, host, w, logs)
    inner, outer = (x.reshape(2, n, len(prepared.ctxs), -1)[:, :, w[0]]
                    for x in prepared.norms()[:2])

    def physical(amp, pair, ref):
        return tuple((amp * x, -lg) for x, lg in zip(pair, ref))

    out = []
    for j in range(1, n + 1):
        pairs = sweeps.pairs(np.array([j]), pol, w)[:, 0]
        below = above = None
        if j <= host[0]:
            ref = ref_in[:, 0] if j == host[0] else (inner if j > 1 else outer)[:, j - 1]
            link = prepared.link(max(j - 1, 1), host, w)[0] if j < host[0] else 1.0
            below = physical(closure.a[c, 0] * link, pairs[:2], ref)
        if j >= host[0]:
            ref = ref_out[:, 0] if j == host[0] else (outer if j < n else inner)[:, j - 1]
            link = prepared.link(min(j, n - 1), host, w)[0] if j > host[0] else 1.0
            above = physical(closure.b[c, 0] * link, pairs[2:], ref)
        out.append((below or above, above or below))
    return tuple(out)


def interface_flux(closure, interface):
    """Net outward radial flux through one interface per channel, row and
    order, formed for that interface alone: the one-interface form of
    :meth:`transfer._Closure.fluxes`, with interface 0 (the origin) zero."""
    if interface == 0:
        return np.zeros(closure.g.shape)
    inward = interface >= closure.host
    rows = closure.sweeps.rows(interface, inward, closure.pol[:, None], closure.w)
    link = closure.prepared.link(interface, closure.host, closure.w)
    e, h = np.where(inward[:, None], closure.b, closure.a) * link * rows
    p = np.conj(e) * h
    return np.where(closure.pol[:, None, None] == 1, p.imag, -p.imag)


def quasistatic_shift(eps1, eps2, k2_rs, kd_rd, orientation):
    """Non-retarded image-limit frequency shift for a single interface;
    the radial result is exactly twice the tangential one."""
    denom_sum = eps1 + eps2
    if denom_sum == 0:
        raise DomainError("quasistatic pole: eps1 + eps2 = 0")
    gap = k2_rs - kd_rd
    if gap == 0:
        raise DomainError("dipole on the interface")
    factor = 3.0 / 32.0 if orientation == model.TANGENTIAL else 3.0 / 16.0
    value = factor * (eps1 - eps2) / denom_sum / gap**3
    return value.real if isinstance(value, complex) else value


# ---------------------------------------------------------------------------
# Plain complex tables


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


def _y_scaled(j, h):
    return sm.scale(sm.sub(h, j), -1j)


def _scaled_table(l_max, z):
    """The engine's normalized psi, psi', xi, xi' at z as scaled pairs
    (:mod:`~nanoshell.scaledmath`), the values over their log norms."""
    values, logs = riccati_scaled(l_max, z).table
    return [(v, logs[f // 2]) for f, v in enumerate(values)]


def bessel_table(l_max, z):
    """Full j/y/h1 table with derivatives at complex argument z, with j =
    psi/z, j' = (psi' - j)/z and h1 alike.

    h1 comes from its own upward recurrence, not from j + i*y.
    """
    psi, dpsi, xi, dxi = _scaled_table(l_max, z)
    j, h = sm.scale(psi, 1 / z), sm.scale(xi, 1 / z)
    dj, dh = sm.scale(sm.sub(dpsi, j), 1 / z), sm.scale(sm.sub(dxi, h), 1 / z)
    return BesselTable(
        order_max=l_max,
        argument=complex(z),
        j=sm.collapse(j, "j"),
        y=sm.collapse(_y_scaled(j, h), "y"),
        h1=sm.collapse(h, "h1"),
        dj=sm.collapse(dj, "j'"),
        dy=sm.collapse(_y_scaled(dj, dh), "y'"),
        dh1=sm.collapse(dh, "h1'"),
    )


def riccati(l_max, z):
    """Riccati-Bessel table psi, chi, xi with derivatives at argument z,
    with chi = -z y = i (xi - psi)."""
    psi, dpsi, xi, dxi = _scaled_table(l_max, z)
    return RiccatiTable(
        order_max=l_max,
        argument=complex(z),
        psi=sm.collapse(psi, "psi"),
        chi=sm.collapse(sm.scale(sm.sub(xi, psi), 1j), "chi"),
        xi=sm.collapse(xi, "xi"),
        dpsi=sm.collapse(dpsi, "psi'"),
        dchi=sm.collapse(sm.scale(sm.sub(dxi, dpsi), 1j), "chi'"),
        dxi=sm.collapse(dxi, "xi'"),
    )
