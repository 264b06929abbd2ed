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
steps.  :func:`prepare` holds what a sphere, a set of wavelengths and l_max
fix: one layer context per wavelength, the interface tables of every
wavelength from one Riccati call and, per (host region, polarization), the
carried pairs, interface rows and closure determinant, each built on first
use on (wavelength, l) arrays.  :func:`close` takes rows of (radius,
wavelength), builds their dipole tables in one call, gathers each row's
chain entries by its wavelength and closes all rows on (row, l) arrays; the
radial and tangential dipoles share the TM chain.  Every step is elementwise
in the wavelengths and the rows, and each wavelength's scalars (1/k, 1/mu,
the matching determinant, k r) are formed at that wavelength alone, so a
row's result does not depend on which rows or wavelengths share its prepare
and close.  A radial sweep is the one-wavelength case, and
:func:`solve_dipole_fields` is a prepare and a close over one row.

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


def _interface_tables(ctxs, l_max, rho=()):
    """Riccati tables of both regions at every interface, as (region,
    interface) -> (psi, dpsi, xi, dxi) pairs over the (wavelength, l =
    1..l_max) entries, one context per wavelength, flattened
    wavelength-major so that the chains run on one-dimensional arrays; and
    in the same call the tables at the extra arguments rho, as pairs with a
    leading axis over rho."""
    keys = [(j, i) for i in range(1, ctxs[0].n_regions) for j in (i, i + 1)]
    z = [c.k[j - 1] * c.radii[i - 1] for j, i in keys for c in ctxs]
    t = riccati_scaled(l_max, np.concatenate([z, rho]))
    # one row per key of every field, over l = 1..l_max of each wavelength
    fields = (t.psi, t.psi_e, t.dpsi, t.dpsi_e, t.xi, t.xi_e, t.dxi, t.dxi_e)
    f = [x[:len(z), 1:].reshape(len(keys), -1) for x in fields]
    tables = {
        key: tuple((f[q][j], f[q + 1][j]) for q in (0, 2, 4, 6)) for j, key in enumerate(keys)
    }
    return tables, _orders(t, slice(len(z), None))


def _entries(prepared, region, interface, pol):
    """Continuity-matrix entries of one region at one interface, over the
    (wavelength, l) entries.

    Columns (regular, outgoing); rows (tangential-E, tangential-H).  For TM
    the E row carries the Riccati derivatives, for TE the functions
    themselves; k- and mu-weighting implement the field matching.
    """
    psi, dpsi, xi, dxi = prepared._tables[region, interface]
    inv_k, inv_mu, det = prepared.scalars(region, pol)
    (e_p, e_x), (h_p, h_x) = ((dpsi, dxi), (psi, xi)) if pol == TM else ((psi, xi), (dpsi, dxi))
    return (
        sm.scale(e_p, inv_k), sm.scale(e_x, inv_k), sm.scale(h_p, inv_mu), sm.scale(h_x, inv_mu),
        det,
    )


def _cross(state, prepared, interface, from_region, to_region, pol):
    """Carry a (regular, outgoing) amplitude pair across one interface.

    Returns the pair on the far side and the (E_t, H_t) continuity row the
    pair forms at the interface; the row is the same on either side.
    """
    c1, c2 = state
    e_p, e_x, h_p, h_x, _ = _entries(prepared, from_region, interface, pol)
    y_e = sm.add(sm.mul(c1, e_p), sm.mul(c2, e_x))
    y_h = sm.add(sm.mul(c1, h_p), sm.mul(c2, h_x))
    e_p, e_x, h_p, h_x, d = _entries(prepared, to_region, interface, pol)
    n1 = sm.div(sm.sub(sm.mul(h_x, y_e), sm.mul(e_x, y_h)), d)
    n2 = sm.div(sm.sub(sm.mul(e_p, y_h), sm.mul(h_p, y_e)), d)
    return (n1, n2), (y_e, y_h)


@dataclass
class ChannelSolution:
    """Solved amplitudes of one polarization, as arrays over its orders ``l``,
    with the :class:`_Closure` of the rows closed together (what the solve
    formed on the way) and this solution's row in it."""

    l: np.ndarray  # orders 1..l_max, or just 1 for a centered dipole
    pol: str
    weight: np.ndarray  # m-folded channel weight, orientation included
    g: np.ndarray  # scattered self-coupling at the dipole
    b_out: np.ndarray  # total outgoing amplitude in the ambient
    q_out_val: np.ndarray  # free-dipole outgoing source amplitude
    scat_out: np.ndarray  # scattered-only outgoing amplitude in the ambient
    host: int  # region holding the dipole
    closure: "_Closure"  # shared by the rows closed together
    row: int  # this solution's row in ``closure``

    def flux(self, interface):
        """Net outward radial power flux through one interface per order,
        s Im(conj(E_t) H_t) with s = +1 for TE and -1 for TM, up to a factor
        common to every channel.  Interface 0 is the origin, where the flux
        vanishes; a source-free shell between interfaces i-1 and i absorbs
        flux(i-1) - flux(i) (Poynting's theorem).
        """
        if interface == 0:
            return np.zeros(len(self.l))
        return self.closure.flux(interface)[self.row]


class _Closure:
    """One polarization closed for several rows: the prepare's
    :class:`_Chain` (unit pairs carried from the core outward and from the
    ambient inward to the host region, and their (E_t, H_t) row at every
    interface, over the prepare's wavelengths), each row's wavelength index
    ``w`` in it, and the scaled closure amplitudes ``a1`` and ``b_out`` that
    multiply the pairs, on (row, l) arrays (``a1`` is None for dipoles at
    the origin).  Interface fluxes are computed once each, on first use."""

    def __init__(self, chain, w, host, pol, a1, b_out):
        self.chain = chain
        self.w = w
        self.host = host
        self.pol = pol
        self.a1 = a1
        self.b_out = b_out
        self._fluxes = {}

    def flux(self, interface):
        if interface not in self._fluxes:
            amp = self.a1 if interface < self.host else self.b_out
            rows = self.chain.rows[interface - 1]
            y_e, y_h = (sm.mul(amp, self.chain.take(y, self.w)) for y in rows)
            p = sm.collapse(sm.mul((np.conj(y_e[0]), y_e[1]), y_h), "interface flux", 1)
            self._fluxes[interface] = p.imag if self.pol == TE else -p.imag
        return self._fluxes[interface]


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


def _propagate(prepared, n_host, pol):
    """Unit pairs carried from the core outward to the host region (u) and
    from the ambient inward to it (v), with the row of every interface."""
    n_regions = prepared.ctxs[0].n_regions
    rows = [None] * (n_regions - 1)
    u = {1: (_ONE, sm.ZERO)}
    for i in range(1, n_host):
        u[i + 1], rows[i - 1] = _cross(u[i], prepared, i, i, i + 1, pol)
    v = {n_regions: (sm.ZERO, _ONE)}
    for i in range(n_regions - 1, n_host - 1, -1):
        v[i], rows[i - 1] = _cross(v[i + 1], prepared, i, i + 1, i, pol)
    return u, v, tuple(rows)


@dataclass(frozen=True)
class _Chain:
    """One (host region, polarization) of a prepared sphere, over the
    flattened (wavelength, l) entries: the unit pairs u and v, the interface
    rows and the closure determinant u1 v2 - u2 v1 at the host, which no
    dipole radius changes, with where that determinant is singular, as a
    (wavelength, l) array."""

    u: dict
    v: dict
    rows: tuple
    delta: tuple
    degenerate: np.ndarray

    def take(self, pair, w):
        """A scaled pair's entries at the wavelength indices w, as (row, l)
        arrays; the unit and zero pairs a chain starts from are scalars and
        broadcast as they are."""
        m, e = pair
        if not isinstance(m, np.ndarray):
            return pair
        shape = self.degenerate.shape
        return m.reshape(shape)[w], e.reshape(shape)[w]

    def check(self, w, ls, pol):
        """Raise for the first singular order of the wavelengths w, as a
        prepare at only those wavelengths would."""
        bad = self.degenerate[w]
        if bad.any():
            raise DegenerateSystemError(int(ls[np.argwhere(bad)[0][-1]]), pol)


class Prepared:
    """Everything a sphere, a set of wavelengths and l_max fix for every
    dipole radius: one layer context per wavelength, the Riccati tables at
    the interfaces and, per (host region, polarization), a :class:`_Chain`,
    all over the (wavelength, l) entries.  Tables and chains are built on
    first use, so a query pays only for the host regions and polarizations
    it drives."""

    def __init__(self, sphere, wavelengths_nm, l_max, ctxs=None):
        check_l_max(l_max)
        self.sphere = sphere
        self.wavelengths = tuple(dict.fromkeys(wavelengths_nm))
        self.index = {wl: w for w, wl in enumerate(self.wavelengths)}
        self.l_max = l_max
        self.ctxs = [layer_context(sphere, wl) for wl in self.wavelengths] if ctxs is None else ctxs
        self.ls = np.arange(1, l_max + 1)
        self._tables = None
        self._scalars = None
        self._chains = {}
        self._center = None

    def scalars(self, region, pol):
        """1/k, 1/mu and the scaled matching determinant of one region over
        the (wavelength, l) entries.  Each is formed in Python complex
        arithmetic at its own wavelength, as a one-wavelength prepare forms
        it, so no wavelength's entries depend on the others."""
        if self._scalars is None:
            per_wavelength = [
                [(1.0 / k, 1.0 / mu, -1j / (k * mu), 1j / (k * mu)) for k, mu in zip(c.k, c.mu)]
                for c in self.ctxs
            ]
            # (region, quantity, (wavelength, l) entry)
            cols = np.repeat(np.array(per_wavelength).transpose(1, 2, 0), self.l_max, axis=2)
            self._scalars = cols[:, 0], cols[:, 1], sm.from_complex(cols[:, 2:])
        inv_k, inv_mu, (det_m, det_e) = self._scalars
        j = 0 if pol == TM else 1
        return inv_k[region - 1], inv_mu[region - 1], (det_m[region - 1, j], det_e[region - 1, j])

    def dipole_tables(self, rho):
        """(psi, dpsi, xi, dxi) pairs over l = 1..l_max at the dipole
        arguments rho, one table each.  While the interface tables are still
        missing they are built in the same call."""
        if self._tables is not None:
            return _orders(riccati_scaled(self.l_max, rho))
        self._tables, tables = _interface_tables(self.ctxs, self.l_max, rho)
        return tables

    def chain(self, host, pol):
        key = (host, pol)
        if key not in self._chains:
            if self._tables is None:
                self._tables, _ = _interface_tables(self.ctxs, self.l_max)
            u, v, rows = _propagate(self, host, pol)
            (u1, u2), (v1, v2) = u[host], v[host]
            t1 = sm.mul(u1, v2)
            t2 = sm.mul(u2, v1)
            delta = sm.sub(t1, t2)
            scale_log = np.maximum(sm.log_abs(t1), sm.log_abs(t2))
            degenerate = (delta[0] == 0) | (
                np.isfinite(scale_log) & (sm.log_abs(delta) < scale_log + _DEGENERACY_LOG)
            )
            shape = (len(self.ctxs), self.l_max)
            self._chains[key] = _Chain(u, v, rows, delta, degenerate.reshape(shape))
        return self._chains[key]

    def center(self):
        """The same sphere and wavelengths at l_max = 1: a dipole at the
        origin drives only the l = 1 electric channel."""
        if self._center is None:
            self._center = Prepared(self.sphere, self.wavelengths, 1, self.ctxs)
        return self._center


def prepare(sphere, wavelengths_nm, l_max):
    """What every dipole radius shares at each of the wavelengths
    ``wavelengths_nm`` [nm]; see :class:`Prepared`."""
    return Prepared(sphere, wavelengths_nm, l_max)


def _close_channel(chain, host, w, s_reg, s_out):
    """Close one polarization for dipoles off the origin, on (row, l) arrays,
    row n at wavelength index w[n] of the chain; the source amplitudes are
    the projections of the regular and outgoing profiles onto the dipole
    axis, swapped (outgoing content above the source is proportional to the
    regular profile and vice versa).  Returns the scaled a1 and b_out with
    the collapsed g, b_out, source and scattered amplitudes."""
    (u1, u2), (v1, v2) = chain.u[host], chain.v[host]
    u1, u2, v1, v2, delta = (chain.take(x, w) for x in (u1, u2, v1, v2, chain.delta))
    a1 = sm.div(sm.add(sm.mul(v1, s_reg), sm.mul(v2, s_out)), delta)
    b_out = sm.div(sm.add(sm.mul(u1, s_reg), sm.mul(u2, s_out)), delta)
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


def _close_center(prepared, orientation, w):
    """The one l = 1 TM channel of each dipole exactly at the origin, row n
    at wavelength index w[n]; the divergent outgoing profile cancels
    analytically against the regular response, so no core pair is carried
    outward."""
    q_out_ideal = 1.0 / 3.0 if orientation == model.RADIAL else 2.0 / 3.0
    weight = 9.0 if orientation == model.RADIAL else 2.25
    center = prepared.center()
    chain = center.chain(1, TM)
    chain.check(w, center.ls, TM)
    v1, v2 = (chain.take(x, w) for x in chain.v[1])
    q_out = sm.from_complex(q_out_ideal)
    a_s = sm.mul(sm.div(v1, v2), q_out)
    b_out = sm.div(q_out, v2)
    g = sm.collapse(sm.mul(a_s, q_out), "g at center", 1)
    b_c = sm.collapse(b_out, "ambient amplitude", 1)
    closure = _Closure(chain, w, 1, TM, None, b_out)
    return [
        ChannelSolution(
            l=np.array([1]),
            pol=TM,
            weight=np.array([weight]),
            g=g[n],
            b_out=b_c[n],
            q_out_val=np.array([q_out_ideal], dtype=complex),
            scat_out=np.zeros(1, dtype=complex),
            host=1,
            closure=closure,
            row=n,
        )
        for n in range(len(w))
    ]


def _plan(orientation, ls, psi, dpsi, xi, dxi, inv_rho):
    """(polarization, weight, regular profile, outgoing profile, factor) of
    each channel an orientation drives; the profile pair projected onto the
    dipole axis at the dipole radius is factor times (regular, outgoing)."""
    if orientation == model.RADIAL:
        return [(TM, 1.5 * ls * (ls + 1) * (2 * ls + 1), psi, xi, inv_rho * inv_rho)]
    weight = 0.75 * (2 * ls + 1)
    return [(TM, weight, dpsi, dxi, inv_rho), (TE, weight, psi, xi, inv_rho)]


def close(prepared, rows, orientations):
    """Channel solutions of dipoles at the rows (r_nm [nm], wavelength [nm])
    against one prepare that holds every row's wavelength: per row, a dict
    orientation -> :class:`MultipoleCoefficients`.

    The dipole Riccati tables of all rows are built in one call, one per
    row, with k r formed at each row's own wavelength.  Each (host region,
    polarization) gathers its rows' chain entries by wavelength and closes
    them on (row, l) arrays; the radial and tangential dipoles share the TM
    chain.  Every entry is elementwise in the rows and the wavelengths, so a
    row's results do not depend on which rows or wavelengths share the call.
    An error names its order and polarization but not its row: to find the
    first failing row, close the rows one at a time.
    """
    sphere, ctxs, l_max, ls = prepared.sphere, prepared.ctxs, prepared.l_max, prepared.ls
    dipoles = [{o: model.DipoleSource(r, o, wl) for o in orientations} for r, wl in rows]
    ws = [prepared.index[wl] for _, wl in rows]
    hosts = [model.validate_dipole(sphere, row[orientations[0]]) for row in dipoles]
    channels = [{o: [] for o in orientations} for _ in dipoles]

    off = [i for i, (r, _) in enumerate(rows) if r != 0.0]
    if off:
        k = np.array([ctxs[ws[i]].k[hosts[i] - 1] for i in off])
        rho = k * np.array([rows[i][0] for i in off])
        psi, dpsi, xi, dxi = prepared.dipole_tables(rho)
        inv_rho = real_over(1.0, rho)[:, None]
        for host in sorted({hosts[i] for i in off}):
            sel = [n for n, i in enumerate(off) if hosts[i] == host]
            w = np.array([ws[off[n]] for n in sel])
            tables = [(m[sel], e[sel]) for m, e in (psi, dpsi, xi, dxi)]
            for o in orientations:
                for pol, weight, reg, out, c in _plan(o, ls, *tables, inv_rho[sel]):
                    chain = prepared.chain(host, pol)
                    chain.check(w, ls, pol)
                    a1, b_out, (g, b_c, q, scat) = _close_channel(
                        chain, host, w, sm.scale(reg, c), sm.scale(out, c)
                    )
                    closure = _Closure(chain, w, host, pol, a1, b_out)
                    for n, i in enumerate(sel):
                        channels[off[i]][o].append(ChannelSolution(
                            l=ls, pol=pol, weight=weight, g=g[n], b_out=b_c[n],
                            q_out_val=q[n], scat_out=scat[n], host=host,
                            closure=closure, row=n,
                        ))
    center = [i for i, (r, _) in enumerate(rows) if r == 0.0]
    if center:
        w = np.array([ws[i] for i in center])
        for o in orientations:
            for i, ch in zip(center, _close_center(prepared, o, w)):
                channels[i][o].append(ch)
    return [
        {
            o: MultipoleCoefficients(
                sphere=sphere,
                dipole=row[o],
                ctx=ctxs[w],
                host_region=host,
                l_max=l_max,
                channels=chans[o],
                at_center=row[o].radial_position_nm == 0.0,
            )
            for o in orientations
        }
        for row, w, host, chans in zip(dipoles, ws, hosts, channels)
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
    wavelength_nm = dipole.wavelength_nm
    prepared = prepare(sphere, [wavelength_nm], l_max)
    [row] = close(prepared, [(dipole.radial_position_nm, wavelength_nm)], (dipole.orientation,))
    return row[dipole.orientation]
