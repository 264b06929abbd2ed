"""Per-angular-momentum 2x2 interface solver.

For each (l, polarization) channel the radial problem is a two-point boundary
problem: regularity at the origin, an outgoing-only scattered wave in the
ambient, and the point-source jump at the dipole radius.  Interface
continuity (tangential E and H) couples the (regular, outgoing) amplitude
pair of adjacent regions through 2x2 matrices built from Riccati-Bessel
functions; the solution composes ordered matrix products from the core
outward and from the ambient inward and closes them with a single 2x2 solve
per channel.  No large block system is ever formed.  Every step acts on
arrays over l = 1..l_max at once, so a polarization is solved in one pass
and kept as one :class:`ChannelSolution`.

Each channel keeps the (E_t, H_t) row its matching step formed at every
interface; the net radial Poynting flux through an interface, and so a
shell's Ohmic absorption, is read from it (:meth:`ChannelSolution.flux`).

Azimuthal sums are folded analytically: a radial dipole drives only
electric-type (TM) waves, a tangential dipole drives TM and TE, and each
channel carries an m-summed scalar weight.  Amplitudes are propagated as
(mantissa, log) arrays (:mod:`~nanoshell.scaledmath`) so products of
strongly growing/decaying Riccati functions never overflow; scale factors
cancel in every observable.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import materials, model, scaledmath as sm
from .errors import ConfigError, DegenerateSystemError, GeometryError
from .specfun import riccati_scaled

TM = "TM"
TE = "TE"

# relative log-magnitude loss at which the 2x2 closure is declared singular
_DEGENERACY_LOG = math.log(1e-13)

_ONE = (1.0 + 0j, 0.0)

# largest accepted l_max; the scaled arithmetic holds well beyond it
L_MAX_CEILING = 4000


@dataclass(frozen=True)
class LayerContext:
    """Sphere geometry resolved at one wavelength (region index 1-based)."""

    radii: tuple  # interface radii [nm]
    k: tuple  # complex wavenumber per region [1/nm]
    mu: tuple
    eps: tuple
    absorbing: tuple
    k0: float  # vacuum wavenumber [1/nm]
    wavelength_nm: float

    @property
    def n_regions(self):
        return len(self.k)


def layer_context(sphere, wavelength_nm):
    k0 = 2.0 * math.pi / wavelength_nm
    ks, mus, epss, absorbing = [], [], [], []
    for j in range(1, sphere.n_regions + 1):
        mat = sphere.region_material(j)
        n = materials.refractive_index(mat, wavelength_nm)
        eps = materials.permittivity(mat, wavelength_nm)
        ks.append(k0 * n)
        mus.append(mat.mu)
        epss.append(eps)
        absorbing.append(eps.imag > 1e-12)
    if absorbing[-1]:
        raise GeometryError("ambient medium must be lossless at the queried wavelength")
    return LayerContext(
        radii=sphere.radii,
        k=tuple(ks),
        mu=tuple(mus),
        eps=tuple(epss),
        absorbing=tuple(absorbing),
        k0=k0,
        wavelength_nm=wavelength_nm,
    )


class _InterfaceTables:
    """Riccati tables per (region, interface) pair, built on demand."""

    def __init__(self, ctx, l_max):
        self.ctx = ctx
        self.l_max = l_max
        self._cache = {}

    def get(self, region, interface):
        key = (region, interface)
        if key not in self._cache:
            z = self.ctx.k[region - 1] * self.ctx.radii[interface - 1]
            self._cache[key] = riccati_scaled(self.l_max, z)
        return self._cache[key]


def _orders(t):
    """(psi, dpsi, xi, dxi) of a scaled table as pairs over l = 1..l_max."""
    return (
        (t.psi[1:], t.psi_e[1:]),
        (t.dpsi[1:], t.dpsi_e[1:]),
        (t.xi[1:], t.xi_e[1:]),
        (t.dxi[1:], t.dxi_e[1:]),
    )


def _entries(tables, ctx, region, interface, pol):
    """Continuity-matrix entries of one region at one interface.

    Columns (regular, outgoing); rows (tangential-E, tangential-H).  For TM
    the E row carries the Riccati derivatives, for TE the functions
    themselves; k- and mu-weighting implement the field matching.
    """
    psi, dpsi, xi, dxi = _orders(tables.get(region, interface))
    k = ctx.k[region - 1]
    mu = ctx.mu[region - 1]
    if pol == TM:
        e_p = sm.scale(dpsi, 1.0 / k)
        e_x = sm.scale(dxi, 1.0 / k)
        h_p = sm.scale(psi, 1.0 / mu)
        h_x = sm.scale(xi, 1.0 / mu)
        det = -1j / (k * mu)
    else:
        e_p = sm.scale(psi, 1.0 / k)
        e_x = sm.scale(xi, 1.0 / k)
        h_p = sm.scale(dpsi, 1.0 / mu)
        h_x = sm.scale(dxi, 1.0 / mu)
        det = 1j / (k * mu)
    return e_p, e_x, h_p, h_x, det


def _cross(state, tables, ctx, interface, from_region, to_region, pol):
    """Carry a (regular, outgoing) amplitude pair across one interface.

    Returns the pair on the far side and the (E_t, H_t) continuity row the
    pair forms at the interface; the row is the same on either side.
    """
    c1, c2 = state
    e_p, e_x, h_p, h_x, _ = _entries(tables, ctx, from_region, interface, pol)
    y_e = sm.add(sm.mul(c1, e_p), sm.mul(c2, e_x))
    y_h = sm.add(sm.mul(c1, h_p), sm.mul(c2, h_x))
    e_p, e_x, h_p, h_x, det = _entries(tables, ctx, to_region, interface, pol)
    d = sm.from_complex(det)
    n1 = sm.div(sm.sub(sm.mul(h_x, y_e), sm.mul(e_x, y_h)), d)
    n2 = sm.div(sm.sub(sm.mul(e_p, y_h), sm.mul(h_p, y_e)), d)
    return (n1, n2), (y_e, y_h)


def interface_matrix(l, pol, n_in, n_out, radius_nm, wavelength_nm, mu_in=1.0, mu_out=1.0):
    """Plain 2x2 matrix carrying (regular, outgoing) amplitudes of order l >= 1
    from the inner medium to the outer one across a single interface; the
    solver's own matching step applied to the unit pairs of a two-region
    sphere."""
    k0 = 2.0 * math.pi / wavelength_nm
    n = (complex(n_in), complex(n_out))
    mu = (mu_in, mu_out)
    eps = tuple(n_j * n_j / mu_j for n_j, mu_j in zip(n, mu))
    ctx = LayerContext(
        radii=(radius_nm,),
        k=tuple(k0 * n_j for n_j in n),
        mu=mu,
        eps=eps,
        absorbing=tuple(e.imag > 1e-12 for e in eps),
        k0=k0,
        wavelength_nm=wavelength_nm,
    )
    tables = _InterfaceTables(ctx, l)
    m = np.empty((2, 2), dtype=complex)
    for col, unit in enumerate(((_ONE, sm.ZERO), (sm.ZERO, _ONE))):
        pair, _ = _cross(unit, tables, ctx, 1, 1, 2, pol)
        m[:, col] = [sm.collapse(c)[-1] for c in pair]
    return m


@dataclass
class ChannelSolution:
    """Solved amplitudes of one polarization, as arrays over its orders ``l``,
    with what the solve formed on the way: the unit pairs carried from the
    core outward (``u``) and from the ambient inward (``v``) to the host
    region, their (E_t, H_t) row at every interface, and the scaled closure
    amplitudes that multiply them.  Scaled entries are (mantissa, log) array
    pairs (see :mod:`~nanoshell.scaledmath`)."""

    l: np.ndarray  # orders 1..l_max, or just 1 for a centered dipole
    pol: str
    weight: np.ndarray  # m-folded channel weight, orientation included
    g: np.ndarray  # scattered self-coupling at the dipole
    b_out: np.ndarray  # total outgoing amplitude in the ambient
    q_out_val: np.ndarray  # free-dipole outgoing source amplitude
    scat_out: np.ndarray  # scattered-only outgoing amplitude in the ambient
    host: int  # region holding the dipole
    u: dict  # region -> scaled pair; empty for a centered dipole
    v: dict  # region -> scaled pair
    rows: tuple  # interface 1..N -> scaled (E_t, H_t) row
    a1: tuple | None  # scales u; None for a centered dipole
    b_out_scaled: tuple  # scales v

    def flux(self, interface):
        """Net outward radial power flux through one interface per order,
        s Im(conj(E_t) H_t) with s = +1 for TE and -1 for TM, up to a factor
        common to every channel.  Interface 0 is the origin, where the flux
        vanishes; a source-free shell between interfaces i-1 and i absorbs
        flux(i-1) - flux(i) (Poynting's theorem).
        """
        if interface == 0:
            return np.zeros(len(self.l))
        amp = self.a1 if interface < self.host else self.b_out_scaled
        y_e, y_h = (sm.mul(amp, y) for y in self.rows[interface - 1])
        p = sm.collapse(sm.mul((np.conj(y_e[0]), y_e[1]), y_h), "interface flux", self.l[0])
        return p.imag if self.pol == TE else -p.imag

    @property
    def states(self):
        """Per region 1..N+1: (inner_state, outer_state) scaled pairs.

        The two differ only in the host region, across the source.  Built
        from ``u``, ``v`` and the closure amplitudes on each read.
        """
        out = []
        for j in range(1, len(self.rows) + 2):
            below = _times(self.a1, self.u[j]) if j in self.u else None
            above = _times(self.b_out_scaled, self.v[j]) if j in self.v else None
            out.append((below or above, above or below))
        return tuple(out)


def _times(amp, pair):
    return sm.mul(amp, pair[0]), sm.mul(amp, pair[1])


@dataclass
class MultipoleCoefficients:
    """All channel solutions for one (sphere, dipole) query: one
    :class:`ChannelSolution` per driven polarization, TM first."""

    sphere: object
    dipole: object
    ctx: LayerContext
    host_region: int
    l_max: int
    channels: list
    at_center: bool


def _propagate(ctx, tables, n_host, pol):
    """Unit pairs carried from the core outward to the host region (u) and
    from the ambient inward to it (v), with the row of every interface."""
    n_regions = ctx.n_regions
    rows = [None] * (n_regions - 1)
    u = {1: (_ONE, sm.ZERO)}
    for i in range(1, n_host):
        u[i + 1], rows[i - 1] = _cross(u[i], tables, ctx, i, i, i + 1, pol)
    v = {n_regions: (sm.ZERO, _ONE)}
    for i in range(n_regions - 1, n_host - 1, -1):
        v[i], rows[i - 1] = _cross(v[i + 1], tables, ctx, i, i + 1, i, pol)
    return u, v, tuple(rows)


def _solve_channel(ctx, tables, n_host, pol, ls, weight, s_reg, s_out):
    """Close every order of one polarization for a dipole off the origin; the
    source amplitudes are the projections of the regular and outgoing
    profiles onto the dipole axis, swapped (outgoing content above the
    source is proportional to the regular profile and vice versa)."""
    u, v, rows = _propagate(ctx, tables, n_host, pol)
    u1, u2 = u[n_host]
    v1, v2 = v[n_host]
    t1 = sm.mul(u1, v2)
    t2 = sm.mul(u2, v1)
    delta = sm.sub(t1, t2)
    scale_log = np.maximum(sm.log_abs(t1), sm.log_abs(t2))
    degenerate = (delta[0] == 0) | (
        np.isfinite(scale_log) & (sm.log_abs(delta) < scale_log + _DEGENERACY_LOG)
    )
    if degenerate.any():
        raise DegenerateSystemError(int(ls[np.argmax(degenerate)]), pol)

    a1 = sm.div(sm.add(sm.mul(v1, s_reg), sm.mul(v2, s_out)), delta)
    b_out = sm.div(sm.add(sm.mul(u1, s_reg), sm.mul(u2, s_out)), delta)
    # scattered field in the host region; these product forms are exact and
    # avoid the cancellation in (total - primary)
    a_s = sm.mul(v1, b_out)
    b_s = sm.mul(u2, a1)
    return ChannelSolution(
        l=ls,
        pol=pol,
        weight=weight,
        g=sm.collapse(sm.add(sm.mul(a_s, s_reg), sm.mul(b_s, s_out)), "g", 1),
        b_out=sm.collapse(b_out, "ambient amplitude", 1),
        q_out_val=sm.collapse(s_reg, "source amplitude", 1),
        scat_out=sm.collapse(b_s, "scattered amplitude", 1),
        host=n_host,
        u=u,
        v=v,
        rows=rows,
        a1=a1,
        b_out_scaled=b_out,
    )


def _solve_center(ctx, tables, pol, q_out_ideal, weight):
    """Dipole exactly at the origin: a pure l=1 source; the divergent
    outgoing profile cancels analytically against the regular response, so
    no core pair is carried outward."""
    _, v, rows = _propagate(ctx, tables, 1, pol)
    v1, v2 = v[1]
    if np.any(v2[0] == 0):
        raise DegenerateSystemError(1, pol)
    q_out = sm.from_complex(q_out_ideal)
    a_s = sm.mul(sm.div(v1, v2), q_out)
    b_out = sm.div(q_out, v2)
    return ChannelSolution(
        l=np.array([1]),
        pol=pol,
        weight=np.array([weight]),
        g=sm.collapse(sm.mul(a_s, q_out), "g at center", 1),
        b_out=sm.collapse(b_out, "ambient amplitude", 1),
        q_out_val=np.array([q_out_ideal], dtype=complex),
        scat_out=np.zeros(1, dtype=complex),
        host=1,
        u={},
        v=v,
        rows=rows,
        a1=None,
        b_out_scaled=b_out,
    )


def check_l_max(l_max):
    """Reject an l_max that is not an integer in 1..L_MAX_CEILING."""
    if (
        isinstance(l_max, bool)
        or not isinstance(l_max, (int, np.integer))
        or not 1 <= l_max <= L_MAX_CEILING
    ):
        raise ConfigError(f"l_max must be an integer in 1..{L_MAX_CEILING}, got {l_max!r}")


def solve_dipole_fields(sphere, dipole, l_max):
    """Field coefficients of every (l, polarization) channel in all regions,
    one :class:`ChannelSolution` per driven polarization.

    The overall source normalization is fixed so that a contrast-free sphere
    returns zero scattered amplitudes and unit normalized rates.
    """
    check_l_max(l_max)
    ctx = layer_context(sphere, dipole.wavelength_nm)
    n_host = model.validate_dipole(sphere, dipole)
    at_center = dipole.radial_position_nm == 0.0
    if at_center:
        # centered source: only the l = 1 electric channel is driven
        q_ideal = 1.0 / 3.0 if dipole.orientation == model.RADIAL else 2.0 / 3.0
        weight = 9.0 if dipole.orientation == model.RADIAL else 2.25
        channels = [_solve_center(ctx, _InterfaceTables(ctx, 1), TM, q_ideal, weight)]
    else:
        rho = ctx.k[n_host - 1] * dipole.radial_position_nm
        psi, dpsi, xi, dxi = _orders(riccati_scaled(l_max, rho))
        ls = np.arange(1, l_max + 1)
        tables = _InterfaceTables(ctx, l_max)
        inv_rho = 1.0 / rho
        if dipole.orientation == model.RADIAL:
            plan = [(TM, 1.5 * ls * (ls + 1) * (2 * ls + 1), psi, xi, inv_rho * inv_rho)]
        else:
            weight = 0.75 * (2 * ls + 1)
            plan = [(TM, weight, dpsi, dxi, inv_rho), (TE, weight, psi, xi, inv_rho)]
        # the profile pair projected onto the dipole axis at the dipole radius
        channels = [
            _solve_channel(
                ctx, tables, n_host, pol, ls, w, sm.scale(reg, c), sm.scale(out, c)
            )
            for pol, w, reg, out, c in plan
        ]
    return MultipoleCoefficients(
        sphere=sphere,
        dipole=dipole,
        ctx=ctx,
        host_region=n_host,
        l_max=l_max,
        channels=channels,
        at_center=at_center,
    )
