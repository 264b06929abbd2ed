"""Per-angular-momentum 2x2 interface solver.

For each (l, polarization) channel the radial problem is a two-point boundary
problem: regularity at the origin, an outgoing-only scattered wave in the
ambient, and the point-source jump at the dipole radius.  Interface
continuity (tangential E and H) couples the (regular, outgoing) amplitude
pair of adjacent regions through 2x2 matrices built from Riccati-Bessel
functions; the solution composes ordered matrix products from the core
outward and from the ambient inward and closes them with a single 2x2 solve
per channel.  No large block system is ever formed.

Only the source jump depends on the dipole radius, so the solve has two
steps.  :func:`prepare` holds what a sphere, a set of wavelengths and l_max
fix: one layer context per wavelength, the interface tables of every
wavelength from one Riccati call, and two sweeps of unit pairs, one outward
from the core and one inward from the ambient, with TM and TE stacked on a
leading polarization axis over the (wavelength, l) entries.  Each sweep is
extended on first use only as far as a close needs, and every host region
shares them: a dipole in region h reads both sweeps' pairs at h, the outward
rows of the interfaces below h and the inward rows above it.

:func:`close` takes rows of (radius, wavelength), builds their dipole
tables in one call and closes every channel of every row at once on
(channel, row, l) arrays: the radial TM, tangential TM and tangential TE
channels each gather their row's entries by (host, wavelength).  A row at
the origin is the r -> 0 limit of the same closure: its sources keep the
l = 1 TM channel alone.  Every step is elementwise in the channels, rows
and wavelengths, and each wavelength's scalars (1/k, 1/mu, the matching
determinant, k r) are formed at that wavelength alone, so a row's result
does not depend on which rows or wavelengths share its prepare and close.
The :class:`_Closure` it returns is the one solved form: every observable
reads its arrays by (channel, row), and :func:`solve_dipole_fields` is the
closure of one dipole, from a prepare and a close of its own.

Each crossing keeps the (E_t, H_t) row its matching step formed at the
interface; the net radial Poynting flux through an interface, and so a
shell's Ohmic absorption, is read from it, the fluxes of every interface
asked for in one pass over (interface, channel, row, l) arrays
(:meth:`_Closure.fluxes`).

Values a step uses in pairs are stacked on a leading axis, so that each
scaled operation runs once per operand pair: a region's continuity entries
at an interface in the order (e_x, h_p, h_x, e_p), whose regular column
(e_p, h_p), outgoing column (e_x, h_x) and crossing terms (h_x, e_p) and
(e_x, h_p) are views; each carried (regular, outgoing) pair and (E_t, H_t)
row, the unit pairs (u1, u2, v1, v2) of :meth:`_Sweeps.pairs` and the rows
of :meth:`_Sweeps.rows`; the sources and the amplitudes (a1, b).  Scaled
operations are elementwise, so stacking changes no bit of a result.

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
from .errors import ConfigError, DegenerateSystemError, GeometryError, RangeError
from .specfun import real_over, riccati_scaled

TM = "TM"
TE = "TE"
POLS = (TM, TE)  # order of the polarization axis

# relative log-magnitude loss at which the 2x2 closure is declared singular
_DEGENERACY_LOG = math.log(1e-13)

# a region's regular and outgoing column among its (e_x, h_p, h_x, e_p)
_REGULAR = slice(3, None, -2)
_OUTGOING = slice(None, None, 2)

# largest accepted l_max; the scaled arithmetic holds well beyond it
L_MAX_CEILING = 4000

# channel kinds: 0 the radial dipole's TM channel, 1 and 2 the tangential
# dipole's TM and TE channels; the ones each orientation drives
_KINDS = {model.RADIAL: (0,), model.TANGENTIAL: (1, 2)}
_KIND_POL = np.array([0, 0, 1])
# regular and outgoing profile of each kind, as rows of the (psi, dpsi, xi,
# dxi) stack, and the power of 1/rho that projects them onto the dipole axis
_KIND_PROFILE = np.array([[0, 2], [1, 3], [0, 2]])
_KIND_POWER = np.array([2, 1, 1])
# the r -> 0 limit at l = 1 of each kind's projected regular profile, zero
# at every l >= 2.  The outgoing profile diverges there, but every
# observable meets it only times the core pair's outgoing entry u2, which
# is zero, so its amplitude is set to zero
_ORIGIN_REG = np.array([1.0 / 3.0, 2.0 / 3.0, 0.0])


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
    host_absorbs: tuple = ()  # per region: no emitter host (model.index_absorbs)

    @property
    def n_regions(self):
        return len(self.k)


def layer_context(sphere, wavelength_nm):
    k0 = 2.0 * math.pi / wavelength_nm
    ks, mus, epss, absorbing, host_absorbs = [], [], [], [], []
    for j in range(1, sphere.n_regions + 1):
        mat = sphere.region_material(j)
        n = materials.refractive_index(mat, wavelength_nm)
        eps = materials.permittivity(mat, wavelength_nm)
        ks.append(k0 * n)
        mus.append(mat.mu)
        epss.append(eps)
        absorbing.append(eps.imag > 1e-12)
        host_absorbs.append(model.index_absorbs(n))
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
        host_absorbs=tuple(host_absorbs),
    )


def _orders(t, i=...):
    """(psi, dpsi, xi, dxi) over l = 1..l_max, stacked on a leading axis, of
    argument i of a batched scaled table (all arguments by default)."""
    return (
        np.stack([t.psi[i, 1:], t.dpsi[i, 1:], t.xi[i, 1:], t.dxi[i, 1:]]),
        np.stack([t.psi_e[i, 1:], t.dpsi_e[i, 1:], t.xi_e[i, 1:], t.dxi_e[i, 1:]]),
    )


def _part(x, k):
    """Index or slice ``k`` along the leading axis of a scaled array."""
    return x[0][k], x[1][k]


def _interface_tables(ctxs, l_max, rho=()):
    """Riccati tables of both regions at every interface, one context per
    wavelength: the (region, interface) keys, and (mantissa, exponent)
    arrays over (psi, dpsi, xi, dxi), key and the (wavelength, l =
    1..l_max) entries, flattened wavelength-major so that the chains run on
    one-dimensional arrays; and in the same call the tables at the extra
    arguments rho, stacked as :func:`_orders` stacks them."""
    keys = [(j, i) for i in range(1, ctxs[0].n_regions) for j in (i, i + 1)]
    z = [c.k[j - 1] * c.radii[i - 1] for j, i in keys for c in ctxs]
    t = riccati_scaled(l_max, np.concatenate([z, rho]))
    m, e = (x.reshape(4, len(keys), -1) for x in _orders(t, slice(len(z))))
    return (keys, m, e), _orders(t, slice(len(z), None))


def _cross(state, src, dst):
    """Carry a (regular, outgoing) amplitude pair across one interface, from
    the region whose :meth:`Prepared.entries` there are ``src`` to the one
    whose entries are ``dst``.  The unit pair (1, 0) or (0, 1) may be given
    as the column it selects, ``_REGULAR`` or ``_OUTGOING``: that column is
    then its row, as a generic crossing forms it, without arithmetic.

    Returns the pair on the far side and the (E_t, H_t) continuity row the
    pair forms at the interface; the row is the same on either side.
    """
    x, _ = src
    if isinstance(state, slice):
        row = _part(x, state)
    else:  # c1 (e_p, h_p) + c2 (e_x, h_x)
        row = sm.add(sm.mul(_part(state, 0), _part(x, _REGULAR)),
                     sm.mul(_part(state, 1), _part(x, _OUTGOING)))
    # (h_x y_e - e_x y_h, e_p y_h - h_p y_e) / det
    x, d = dst
    n = sm.sub(sm.mul(_part(x, slice(2, None)), row),
               sm.mul(_part(x, slice(None, 2)), _part(row, slice(None, None, -1))))
    return sm.div(n, d), row


class _Sweeps:
    """The two chains of a prepare, TM and TE stacked on a leading axis over
    the (wavelength, l) entries: unit pairs carried from the core outward
    (u, from (1, 0)) and from the ambient inward (v, from (0, 1)), and the
    (E_t, H_t) row each crossing forms.  A dipole hosted in region h closes
    with u and v at h; the outward rows of the interfaces below h and the
    inward rows above it carry its fields there.  Each sweep is extended on
    first use only as far as a close needs, from its unit pair given as the
    column it selects (see :func:`_cross`)."""

    def __init__(self, prepared):
        n = prepared.ctxs[0].n_regions
        # no reference back to the prepare, which owns the sweeps, so both
        # are freed as soon as it goes
        self._shape = (2, len(prepared.ctxs), prepared.l_max)  # (polarization, wavelength, l)
        entries = 2 * len(prepared.ctxs) * prepared.l_max
        # ((u1, u2, v1, v2), region, polarization x (wavelength, l))
        self._pairs = np.zeros((4, n, entries), dtype=complex), np.zeros((4, n, entries))
        self._pairs[0][0, 0] = self._pairs[0][3, n - 1] = 1.0
        # ((E_t, H_t), interface, (outward, inward), polarization x (wavelength, l))
        rows = (2, n - 1, 2, entries)
        self._rows = np.zeros(rows, dtype=complex), np.zeros(rows)
        self._u, self.top = _REGULAR, 1
        self._v, self.bottom = _OUTGOING, n

    @staticmethod
    def _store(arrays, at, x):
        """Store a stacked scaled pair at ``at`` of the scaled ``arrays``."""
        for dest, v in zip(arrays, x):
            dest[at] = v.reshape(2, -1)

    def _view(self, x):
        """Stored values, their entries split into (polarization, wavelength, l)."""
        return x.reshape(x.shape[:-1] + self._shape)

    def reach(self, p, lo, hi):
        """Carry the outward sweep up to region ``hi`` and the inward sweep
        down to region ``lo``, with the entries of prepare ``p``."""
        while self.top < hi:
            i = self.top
            self._u, row = _cross(self._u, p.entries(i, i), p.entries(i + 1, i))
            self.top = i + 1
            self._store(self._pairs, (slice(0, 2), i), self._u)
            self._store(self._rows, (slice(None), i - 1, 0), row)
        while self.bottom > lo:
            i = self.bottom - 1
            self._v, row = _cross(self._v, p.entries(i + 1, i), p.entries(i, i))
            self.bottom = i
            self._store(self._pairs, (slice(2, 4), i - 1), self._v)
            self._store(self._rows, (slice(None), i - 1, 1), row)

    def pairs(self, host, pol, w):
        """(u1, u2, v1, v2) at host regions, polarization indices and
        wavelength indices (broadcast together), stacked on a leading axis
        as one scaled array with a last axis over l."""
        return tuple(self._view(x)[:, host - 1, pol, w] for x in self._pairs)

    def rows(self, interface, inward, pol, w):
        """(E_t, H_t) of the unit pairs at one interface, of the outward or
        the inward sweep, at polarization and wavelength indices, stacked on
        a leading axis as one scaled array."""
        k = inward.astype(int)
        return tuple(self._view(x)[:, interface - 1, k, pol, w] for x in self._rows)


class Prepared:
    """Everything a sphere, a set of wavelengths and l_max fix for every
    dipole radius: one layer context per wavelength, the Riccati tables at
    the interfaces, each region's continuity-matrix entries there and the
    two :class:`_Sweeps`, all over the (wavelength, l) entries and built on
    first use."""

    def __init__(self, sphere, wavelengths_nm, l_max, ctxs=None):
        check_l_max(l_max)
        self.sphere = sphere
        self.wavelengths = tuple(dict.fromkeys(wavelengths_nm))
        self.index = {wl: w for w, wl in enumerate(self.wavelengths)}
        self.l_max = l_max
        self.ctxs = [layer_context(sphere, wl) for wl in self.wavelengths] if ctxs is None else ctxs
        self.ls = np.arange(1, l_max + 1)
        # per (region, wavelength)
        self.k = np.array([c.k for c in self.ctxs]).T
        self.eps = np.array([c.eps for c in self.ctxs]).T
        # per wavelength
        self.k0 = np.array([c.k0 for c in self.ctxs])
        # per (wavelength, region)
        self.absorbing = np.array([c.absorbing for c in self.ctxs])
        self._tables = None
        self._scalars = None
        self._entries = None
        self._sweeps = None

    def scalars(self):
        """1/k, 1/mu and the scaled TM and TE matching determinants per
        (region, (wavelength, l) entry), each formed in Python complex
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
        return self._scalars

    def entries(self, region, interface):
        """Continuity-matrix entries (e_x, h_p, h_x, e_p) of one region at
        one interface, stacked on a leading axis, and the region's matching
        determinant, with TM and TE stacked on a polarization axis over the
        (wavelength, l) entries.

        Columns (regular, outgoing); rows (tangential-E, tangential-H).  For
        TM the E row carries the Riccati derivatives, for TE the functions
        themselves; k- and mu-weighting implement the field matching.  The
        entries of every region at every interface are formed at once, on
        first use.
        """
        if self._entries is None:
            if self._tables is None:
                self._tables, _ = _interface_tables(self.ctxs, self.l_max)
            keys, m, e = self._tables
            inv_k, inv_mu, (det_m, det_e) = self.scalars()
            regions = [j - 1 for j, _ in keys]
            # (e_x, h_p, h_x, e_p) rows of the (psi, dpsi, xi, dxi) stack, TM then TE
            rows = np.array([[3, 2], [0, 1], [2, 3], [1, 0]])
            factor = np.stack([inv_k[regions], inv_mu[regions]], axis=1)[:, [0, 1, 1, 0], None]
            # (key, row, polarization, (wavelength, l) entry)
            m, e = sm.scale((m.swapaxes(0, 1)[:, rows], e.swapaxes(0, 1)[:, rows]), factor)
            self._entries = {
                (j, i): ((m[n], e[n]), (det_m[j - 1], det_e[j - 1]))
                for n, (j, i) in enumerate(keys)
            }
        return self._entries[region, interface]

    def dipole_tables(self, rho):
        """(psi, dpsi, xi, dxi), stacked as :func:`_orders` stacks them, at
        the dipole arguments rho, one table each.  While the interface tables are still
        missing they are built in the same call."""
        if self._tables is not None:
            return _orders(riccati_scaled(self.l_max, rho))
        self._tables, tables = _interface_tables(self.ctxs, self.l_max, rho)
        return tables

    @property
    def sweeps(self):
        if self._sweeps is None:
            self._sweeps = _Sweeps(self)
        return self._sweeps


def prepare(sphere, wavelengths_nm, l_max):
    """What every dipole radius shares at each of the wavelengths
    ``wavelengths_nm`` [nm]; see :class:`Prepared`."""
    return Prepared(sphere, wavelengths_nm, l_max)


class _Closure:
    """Rows closed together against one prepare, as (channel, row, l)
    arrays over l = 1..l_max.

    The channels are those of each orientation in the order asked for (see
    ``_KINDS``), each orientation's TM channel first; ``pol`` holds each
    channel's index into ``POLS``.  Row n is row n of the close, at radius
    ``r[n]``, wavelength index ``w[n]`` and host region ``host[n]``.  Beside
    the collapsed amplitudes the closure keeps the scaled ones, ``a1`` and
    ``b``, that multiply the unit pairs of ``sweeps``.
    """

    def __init__(self, prepared, sweeps, orientations, kinds, r, w, host,
                 weight, g, b_out, q_out, scat, ab):
        self.prepared = prepared
        self.sweeps = sweeps
        self.orientations = tuple(orientations)
        self.pol = _KIND_POL[kinds]
        self.r, self.w, self.host = r, w, host
        self.weight = weight  # (channel, 1, l)
        self.g, self.b_out, self.q_out, self.scat = g, b_out, q_out, scat
        self.a1, self.b = _part(ab, 0), _part(ab, 1)
        # each orientation's TM channel, and the TE channel with the
        # orientation it belongs to
        self.first = np.flatnonzero(kinds != 2)
        te = np.flatnonzero(kinds == 2)
        self.te = int(te[0]) if te.size else None
        self.tangential = None if self.te is None else self.orientations.index(model.TANGENTIAL)

    def fluxes(self, interfaces):
        """Net outward radial power flux through each of the ``interfaces``
        (ascending) per channel, row and order, s Im(conj(E_t) H_t) with s =
        +1 for TE and -1 for TM, up to a factor common to every channel, as
        an (interface, channel, row, l) array formed in one pass; an
        overflow names the first interface in order.  Interface 0 is the
        origin, where the flux vanishes; a source-free shell between
        interfaces i-1 and i absorbs flux(i-1) - flux(i) (Poynting's
        theorem)."""
        f = np.zeros((len(interfaces),) + self.g.shape)
        at = np.flatnonzero(interfaces)
        if at.size:
            i = np.asarray(interfaces)[at, None, None]
            inward = i >= self.host
            rows = self.sweeps.rows(i, inward, self.pol[:, None], self.w)
            amp = self.b
            if not inward.all():
                amp = tuple(np.where(inward[..., None], y, x) for x, y in zip(self.a1, self.b))
            m, e = sm.mul(amp, rows)
            p = sm.collapse(sm.mul((np.conj(m[0]), e[0]), (m[1], e[1])), "interface flux", 1)
            f[at] = np.where(self.pol[:, None, None] == 1, p.imag, -p.imag)
        return f

    def flux(self, interface):
        """The flux through one interface; see :meth:`fluxes`."""
        return self.fluxes([interface])[0]


def _hosts(prepared, rows, orientations, r, w):
    """Host region of each row, checked as :class:`model.DipoleSource` and
    :func:`model.validate_dipole` check one dipole.  When any row fails,
    the rows are checked one at a time in order, so that the first failing
    row raises its own error."""
    sphere = prepared.sphere
    radii = np.array(sphere.radii)
    wavelengths = np.array(prepared.wavelengths)
    finite = np.isfinite(r)
    host = np.where(r == 0.0, 1, np.searchsorted(radii, np.where(finite, r, 0.0), "right") + 1)
    tol = model.INTERFACE_TOL * sphere.outer_radius_nm
    on_interface = (r != 0.0) & (np.abs(r[:, None] - radii) <= tol).any(axis=1)
    host_absorbs = np.array([c.host_absorbs for c in prepared.ctxs])
    bad = (
        ~finite | (r < 0.0) | on_interface | host_absorbs[w, host - 1]
        | ~(np.isfinite(wavelengths) & (wavelengths > 0.0))[w]
    )
    if bad.any() or not set(orientations) <= set(model.ORIENTATIONS):
        dipoles = [[model.DipoleSource(x, o, wl) for o in orientations] for x, wl in rows]
        host = np.array([model.validate_dipole(sphere, d[0]) for d in dipoles], dtype=int)
    return host


def _collapse_channels(pol, degenerate, named):
    """Collapse the named scaled (channel, row, l) arrays in one pass.  On
    failure, what a close channel by channel would raise first is raised:
    for the first failing channel, its first singular order, else its first
    overflowing quantity in the order named, each at its first order."""
    if not degenerate.any():
        try:
            return sm.collapse(tuple(np.stack(x) for x in zip(*(x for x, _ in named))))
        except RangeError:
            pass
    over = [sm.log_abs(x) > sm.LOG_HUGE for x, _ in named]
    bad = np.stack([np.broadcast_to(degenerate, over[0].shape), *over])
    c = int(np.argmax(bad.any(axis=(0, 2, 3))))
    q = int(np.argmax(bad[:, c].any(axis=(1, 2))))
    if q == 0:
        raise DegenerateSystemError(int(np.argwhere(bad[0, c])[0][-1]) + 1, POLS[pol[c]])
    x, context = named[q - 1]
    sm.collapse((x[0][c], x[1][c]), context, 1)


def _solve(pairs, s):
    """The 2x2 closure of every channel and row with the unit pairs (u1, u2,
    v1, v2) of its host and the sources (regular, outgoing): the amplitudes
    (a1, b) that multiply the core and the ambient pair, the scattered
    self-coupling g and outgoing amplitude, and where the closure is
    singular.  A singular determinant u1 v2 - u2 v1 is set to one: its rows
    raise before any result is used, and the others must not divide by zero
    first."""
    t = sm.mul(_part(pairs, slice(0, 2)), _part(pairs, slice(3, 1, -1)))
    delta = sm.sub(_part(t, 0), _part(t, 1))
    scale_log = np.maximum(*sm.log_abs(t))
    degenerate = (delta[0] == 0) | (
        np.isfinite(scale_log) & (sm.log_abs(delta) < scale_log + _DEGENERACY_LOG)
    )
    if degenerate.any():
        delta = np.where(degenerate, 1.0 + 0j, delta[0]), np.where(degenerate, 0.0, delta[1])
    # (a1, b) = ((v1, u1) s_reg + (v2, u2) s_out) / delta
    ab = sm.div(sm.add(sm.mul(_part(pairs, slice(2, None, -2)), _part(s, 0)),
                       sm.mul(_part(pairs, slice(3, None, -2)), _part(s, 1))), delta)
    # scattered field in the host region, (a_s, b_s) = (v1 b, u2 a1); these
    # product forms are exact and avoid the cancellation in (total - primary)
    scat = sm.mul(_part(pairs, slice(2, 0, -1)), _part(ab, slice(None, None, -1)))
    g = sm.mul(scat, s)
    return ab, sm.add(_part(g, 0), _part(g, 1)), _part(scat, 1), degenerate


def _sources(prepared, kinds, r, w, host):
    """Source amplitudes (regular, outgoing) of every channel and row: the
    projections of the two profiles onto the dipole axis, from one Riccati
    table per row at k r of its host and wavelength.  A row at the origin
    takes their r -> 0 limits instead (``_ORIGIN_REG``) and never reaches a
    table, which rejects a zero argument."""
    off = r != 0.0
    if off.any():
        rho = prepared.k[host[off] - 1, w[off]] * r[off]
        m, e = prepared.dipole_tables(rho)
        inv_rho = real_over(1.0, rho)[:, None]
        factor = np.stack([inv_rho, inv_rho * inv_rho])[_KIND_POWER[kinds] - 1]
        profiles = _KIND_PROFILE[kinds].T
        s = sm.scale((m[profiles], e[profiles]), factor)
        if off.all():
            return s
    shape = (2, len(kinds), len(r), prepared.l_max)
    s_all = np.zeros(shape, dtype=complex), np.zeros(shape)
    s_all[0][0][:, ~off, 0] = _ORIGIN_REG[kinds, None]
    if off.any():
        s_all[0][:, :, off], s_all[1][:, :, off] = s
    return s_all


def close(prepared, rows, orientations):
    """Every channel of dipoles at the rows (r_nm [nm], wavelength [nm])
    against one prepare that holds every row's wavelength, closed on
    (channel, row, l) arrays: one :class:`_Closure` with the rows in the
    order given.  The source amplitudes enter swapped (outgoing content
    above the source is proportional to the regular profile and vice
    versa); at the origin only the l = 1 TM channels have a source.

    The dipole Riccati tables of all rows off the origin are built in one
    call, one per row, with k r formed at each row's own wavelength.  Each
    channel of each row gathers its sweep entries by (host, wavelength).
    Every entry is elementwise in the channels, rows and wavelengths, so a
    row's results do not depend on which rows or wavelengths share the
    call, and a batch raises only where one of its rows alone would.  An
    error names its order and polarization but not its row: to find the
    first failing row, close the rows one at a time.
    """
    r = np.array([x for x, _ in rows], dtype=float)
    w = np.array([prepared.index[wl] for _, wl in rows], dtype=int)
    host = _hosts(prepared, rows, orientations, r, w)
    kinds = np.array([k for o in orientations for k in _KINDS[o]])
    pol = _KIND_POL[kinds]
    s = _sources(prepared, kinds, r, w, host)
    sweeps = prepared.sweeps
    sweeps.reach(prepared, host.min(), host.max())
    ab, g, b_s, degenerate = _solve(sweeps.pairs(host, pol[:, None], w), s)
    g, b_out, q_out, scat = _collapse_channels(pol, degenerate, (
        (g, "g"),
        (_part(ab, 1), "ambient amplitude"),
        (_part(s, 0), "source amplitude"),
        (b_s, "scattered amplitude"),
    ))
    ls = prepared.ls
    weights = np.stack([1.5 * ls * (ls + 1) * (2 * ls + 1), 0.75 * (2 * ls + 1)])
    weight = weights[np.minimum(kinds, 1)][:, None, :]
    return _Closure(prepared, sweeps, orientations, kinds, r, w, host,
                    weight, g, b_out, q_out, scat, ab)


def check_l_max(l_max):
    """Reject an l_max that is not an integer in 1..L_MAX_CEILING."""
    if (
        isinstance(l_max, bool)
        or not isinstance(l_max, (int, np.integer))
        or not 1 <= l_max <= L_MAX_CEILING
    ):
        raise ConfigError(f"l_max must be an integer in 1..{L_MAX_CEILING}, got {l_max!r}")


def solve_dipole_fields(sphere, dipole, l_max):
    """The :class:`_Closure` of one dipole, a single row holding each channel
    its orientation drives, TM first: a prepare and a close of its own.

    The overall source normalization is fixed so that a contrast-free sphere
    returns zero scattered amplitudes and unit normalized rates.
    """
    wavelength_nm = dipole.wavelength_nm
    prepared = prepare(sphere, [wavelength_nm], l_max)
    row = (dipole.radial_position_nm, wavelength_nm)
    return close(prepared, [row], (dipole.orientation,))
