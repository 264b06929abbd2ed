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

Only the source jump depends on the dipole radius, so the solve has two
steps.  :func:`prepare` holds what a (sphere, wavelength, l_max) fixes: the
layer context, the interface tables and, per (host region, polarization),
the carried pairs, interface rows and closure determinant, each built on
first use.  :func:`close` then builds the dipole tables of many radii in one
call and closes them on (row, l) arrays; the radial and tangential dipoles
share the TM chain.  Every row is elementwise, so its result does not
depend on the rows closed with it, and :func:`solve_dipole_fields` is a
prepare and a close over one row.

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
from .specfun import real_over, riccati_scaled

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


def _orders(t, i=...):
    """(psi, dpsi, xi, dxi) of a scaled table as pairs over l = 1..l_max, for
    argument i of a batched table (all arguments by default)."""
    return (
        (t.psi[i, 1:], t.psi_e[i, 1:]),
        (t.dpsi[i, 1:], t.dpsi_e[i, 1:]),
        (t.xi[i, 1:], t.xi_e[i, 1:]),
        (t.dxi[i, 1:], t.dxi_e[i, 1:]),
    )


def _interface_tables(ctx, l_max, rho=()):
    """Riccati tables of both regions at every interface, as (region,
    interface) -> (psi, dpsi, xi, dxi) pairs over l = 1..l_max, and in the
    same call the tables at the extra arguments rho, as pairs with a leading
    axis over rho."""
    keys = [(j, i) for i in range(1, ctx.n_regions) for j in (i, i + 1)]
    z = np.concatenate([[ctx.k[j - 1] * ctx.radii[i - 1] for j, i in keys], rho])
    t = riccati_scaled(l_max, z)
    return {key: _orders(t, n) for n, key in enumerate(keys)}, _orders(t, slice(len(keys), None))


def _entries(tables, ctx, region, interface, pol):
    """Continuity-matrix entries of one region at one interface.

    Columns (regular, outgoing); rows (tangential-E, tangential-H).  For TM
    the E row carries the Riccati derivatives, for TE the functions
    themselves; k- and mu-weighting implement the field matching.
    """
    psi, dpsi, xi, dxi = tables[region, interface]
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
    tables, _ = _interface_tables(ctx, l)
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
    fluxes: "_Fluxes"  # shared by the rows closed together
    row: int  # this solution's row in ``fluxes``

    def flux(self, interface):
        """Net outward radial power flux through one interface per order,
        s Im(conj(E_t) H_t) with s = +1 for TE and -1 for TM, up to a factor
        common to every channel.  Interface 0 is the origin, where the flux
        vanishes; a source-free shell between interfaces i-1 and i absorbs
        flux(i-1) - flux(i) (Poynting's theorem).
        """
        if interface == 0:
            return np.zeros(len(self.l))
        return self.fluxes(interface)[self.row]

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


class _Fluxes:
    """Interface fluxes of one polarization for every row closed together,
    on (row, l) arrays, each interface computed once on first use."""

    def __init__(self, chain, host, pol, a1, b_out):
        self.rows = chain.rows
        self.host = host
        self.pol = pol
        self.a1 = a1
        self.b_out = b_out
        self._done = {}

    def __call__(self, interface):
        if interface not in self._done:
            amp = self.a1 if interface < self.host else self.b_out
            y_e, y_h = (sm.mul(amp, y) for y in self.rows[interface - 1])
            p = sm.collapse(sm.mul((np.conj(y_e[0]), y_e[1]), y_h), "interface flux", 1)
            self._done[interface] = p.imag if self.pol == TE else -p.imag
        return self._done[interface]


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


@dataclass(frozen=True)
class _Chain:
    """One (host region, polarization) of a prepared sphere: the unit pairs
    u and v, the interface rows and the closure determinant
    u1 v2 - u2 v1 at the host, which no dipole radius changes."""

    u: dict
    v: dict
    rows: tuple
    delta: tuple


class Prepared:
    """Everything one (sphere, wavelength, l_max) fixes for every dipole
    radius: the layer context, the Riccati tables at the interfaces and, per
    (host region, polarization), a :class:`_Chain`.  Tables and chains are
    built on first use, so a query pays only for the host regions and
    polarizations it drives."""

    def __init__(self, sphere, wavelength_nm, l_max, ctx=None):
        check_l_max(l_max)
        self.sphere = sphere
        self.wavelength_nm = wavelength_nm
        self.l_max = l_max
        self.ctx = layer_context(sphere, wavelength_nm) if ctx is None else ctx
        self.ls = np.arange(1, l_max + 1)
        self._tables = None
        self._chains = {}
        self._center = None

    def dipole_tables(self, rho):
        """(psi, dpsi, xi, dxi) pairs over l = 1..l_max at the dipole
        arguments rho, one table each.  While the interface tables are still
        missing they are built in the same call."""
        if self._tables is not None:
            return _orders(riccati_scaled(self.l_max, rho))
        self._tables, tables = _interface_tables(self.ctx, self.l_max, rho)
        return tables

    def chain(self, host, pol):
        key = (host, pol)
        if key not in self._chains:
            if self._tables is None:
                self._tables, _ = _interface_tables(self.ctx, self.l_max)
            u, v, rows = _propagate(self.ctx, self._tables, host, pol)
            (u1, u2), (v1, v2) = u[host], v[host]
            t1 = sm.mul(u1, v2)
            t2 = sm.mul(u2, v1)
            delta = sm.sub(t1, t2)
            scale_log = np.maximum(sm.log_abs(t1), sm.log_abs(t2))
            degenerate = (delta[0] == 0) | (
                np.isfinite(scale_log) & (sm.log_abs(delta) < scale_log + _DEGENERACY_LOG)
            )
            if degenerate.any():
                raise DegenerateSystemError(int(self.ls[np.argmax(degenerate)]), pol)
            self._chains[key] = _Chain(u, v, rows, delta)
        return self._chains[key]

    def center(self):
        """The same sphere and wavelength at l_max = 1: a dipole at the
        origin drives only the l = 1 electric channel."""
        if self._center is None:
            self._center = Prepared(self.sphere, self.wavelength_nm, 1, self.ctx)
        return self._center


def prepare(sphere, wavelength_nm, l_max):
    """What every dipole radius shares at one wavelength; see :class:`Prepared`."""
    return Prepared(sphere, wavelength_nm, l_max)


def _close_channel(chain, host, s_reg, s_out):
    """Close one polarization for dipoles off the origin, on (row, l) arrays;
    the source amplitudes are the projections of the regular and outgoing
    profiles onto the dipole axis, swapped (outgoing content above the
    source is proportional to the regular profile and vice versa).  Returns
    the scaled a1 and b_out with the collapsed g, b_out, source and
    scattered amplitudes."""
    (u1, u2), (v1, v2) = chain.u[host], chain.v[host]
    a1 = sm.div(sm.add(sm.mul(v1, s_reg), sm.mul(v2, s_out)), chain.delta)
    b_out = sm.div(sm.add(sm.mul(u1, s_reg), sm.mul(u2, s_out)), chain.delta)
    # scattered field in the host region; these product forms are exact and
    # avoid the cancellation in (total - primary)
    a_s = sm.mul(v1, b_out)
    b_s = sm.mul(u2, a1)
    return a1, b_out, (
        sm.collapse(sm.add(sm.mul(a_s, s_reg), sm.mul(b_s, s_out)), "g", 1),
        sm.collapse(b_out, "ambient amplitude", 1),
        sm.collapse(s_reg, "source amplitude", 1),
        sm.collapse(b_s, "scattered amplitude", 1),
    )


def _close_center(prepared, orientation):
    """The one l = 1 TM channel of a dipole exactly at the origin; the
    divergent outgoing profile cancels analytically against the regular
    response, so no core pair is carried outward."""
    q_out_ideal = 1.0 / 3.0 if orientation == model.RADIAL else 2.0 / 3.0
    weight = 9.0 if orientation == model.RADIAL else 2.25
    chain = prepared.center().chain(1, TM)
    v1, v2 = chain.v[1]
    q_out = sm.from_complex(q_out_ideal)
    a_s = sm.mul(sm.div(v1, v2), q_out)
    b_out = sm.div(q_out, v2)
    fluxes = _Fluxes(chain, 1, TM, None, (b_out[0][None], b_out[1][None]))
    return ChannelSolution(
        l=np.array([1]),
        pol=TM,
        weight=np.array([weight]),
        g=sm.collapse(sm.mul(a_s, q_out), "g at center", 1),
        b_out=sm.collapse(b_out, "ambient amplitude", 1),
        q_out_val=np.array([q_out_ideal], dtype=complex),
        scat_out=np.zeros(1, dtype=complex),
        host=1,
        u={},
        v=chain.v,
        rows=chain.rows,
        a1=None,
        b_out_scaled=b_out,
        fluxes=fluxes,
        row=0,
    )


def _plan(orientation, ls, psi, dpsi, xi, dxi, inv_rho):
    """(polarization, weight, regular profile, outgoing profile, factor) of
    each channel an orientation drives; the profile pair projected onto the
    dipole axis at the dipole radius is factor times (regular, outgoing)."""
    if orientation == model.RADIAL:
        return [(TM, 1.5 * ls * (ls + 1) * (2 * ls + 1), psi, xi, inv_rho * inv_rho)]
    weight = 0.75 * (2 * ls + 1)
    return [(TM, weight, dpsi, dxi, inv_rho), (TE, weight, psi, xi, inv_rho)]


def close(prepared, r_nm, orientations):
    """Channel solutions of dipoles at the radii ``r_nm`` [nm] against one
    prepared (sphere, wavelength): per radius, a dict orientation ->
    :class:`MultipoleCoefficients`.

    The dipole Riccati tables of all radii are built in one call, one per
    radius, and each (host region, polarization) is closed on (row, l)
    arrays; the radial and tangential dipoles share the TM chain.  Every
    entry is elementwise in the rows, so a row's results do not depend on
    which rows share the call.  An error names its order and polarization
    but not its row: to find the first failing row, close the rows one at a
    time.
    """
    sphere, ctx, l_max, ls = prepared.sphere, prepared.ctx, prepared.l_max, prepared.ls
    dipoles = [
        {o: model.DipoleSource(r, o, prepared.wavelength_nm) for o in orientations}
        for r in r_nm
    ]
    hosts = [model.validate_dipole(sphere, row[orientations[0]]) for row in dipoles]
    channels = [{o: [] for o in orientations} for _ in dipoles]

    off = [i for i, r in enumerate(r_nm) if r != 0.0]
    if off:
        rho = np.array([ctx.k[hosts[i] - 1] for i in off]) * np.array([r_nm[i] for i in off])
        psi, dpsi, xi, dxi = prepared.dipole_tables(rho)
        inv_rho = real_over(1.0, rho)[:, None]
        for host in sorted({hosts[i] for i in off}):
            sel = [n for n, i in enumerate(off) if hosts[i] == host]
            tables = [(m[sel], e[sel]) for m, e in (psi, dpsi, xi, dxi)]
            for o in orientations:
                for pol, weight, reg, out, c in _plan(o, ls, *tables, inv_rho[sel]):
                    chain = prepared.chain(host, pol)
                    a1, b_out, (g, b_c, q, scat) = _close_channel(
                        chain, host, sm.scale(reg, c), sm.scale(out, c)
                    )
                    fluxes = _Fluxes(chain, host, pol, a1, b_out)
                    for n, i in enumerate(sel):
                        channels[off[i]][o].append(ChannelSolution(
                            l=ls, pol=pol, weight=weight, g=g[n], b_out=b_c[n],
                            q_out_val=q[n], scat_out=scat[n], host=host,
                            u=chain.u, v=chain.v, rows=chain.rows,
                            a1=(a1[0][n], a1[1][n]), b_out_scaled=(b_out[0][n], b_out[1][n]),
                            fluxes=fluxes, row=n,
                        ))
    center = [i for i, r in enumerate(r_nm) if r == 0.0]
    if center:
        for o in orientations:
            ch = _close_center(prepared, o)
            for i in center:
                channels[i][o].append(ch)
    return [
        {
            o: MultipoleCoefficients(
                sphere=sphere,
                dipole=row[o],
                ctx=ctx,
                host_region=host,
                l_max=l_max,
                channels=chans[o],
                at_center=row[o].radial_position_nm == 0.0,
            )
            for o in orientations
        }
        for row, host, chans in zip(dipoles, hosts, channels)
    ]


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
    one :class:`ChannelSolution` per driven polarization: a prepare and a
    close over one row.

    The overall source normalization is fixed so that a contrast-free sphere
    returns zero scattered amplitudes and unit normalized rates.
    """
    prepared = prepare(sphere, dipole.wavelength_nm, l_max)
    [row] = close(prepared, [dipole.radial_position_nm], (dipole.orientation,))
    return row[dipole.orientation]
