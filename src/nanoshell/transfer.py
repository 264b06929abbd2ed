"""Per-angular-momentum 2x2 interface solver.

For each (l, polarization) channel the radial problem is a two-point boundary
problem: regularity at the origin, an outgoing-only scattered wave in the
ambient, and the point-source jump at the dipole radius.  Interface
continuity (tangential E and H) couples the (regular, outgoing) amplitude
pair of adjacent regions through 2x2 matrices built from Riccati-Bessel
functions; the solution composes them from the core outward and from the
ambient inward and closes them with a single 2x2 solve per channel.

Only the source jump depends on the dipole radius.  One
:class:`Prepared` (:func:`prepare`) holds what a sphere, a set of
wavelengths and l_max fix: the interface tables from one Riccati call, and
per polarization an outward and an inward sweep over the (wavelength, l)
entries, each started from its unit pair by the crossing every interface
takes and extended on first use only as far as a close needs.  It holds no
reference to what is closed against it, so it is freed by reference counting
alone.  :func:`close` closes every channel of its rows at once on
(channel, row, l) arrays, a row at the origin as the r -> 0 limit.  Every
step is elementwise in the channels, rows and wavelengths, so a row's result
does not depend on what shares its prepare and close.  The :class:`_Closure`
is the one solved form; its interface fluxes give each shell's absorption.

The Riccati tables (:func:`~nanoshell.specfun.riccati_scaled`), whose
magnitudes grow and decay like (2l-1)!!, come as plain complex values, each
family divided by its own norm, beside the log norms.  The sweeps step
through a region with one cross-radius factor, a ratio of norms of at most
about one, and the closure meets the host's pairs at the dipole through one
such factor per row and order, so every amplitude between the dipole and an
interface is a product of bounded factors: it may underflow to zero but
never overflows.  Azimuthal sums are folded analytically: a radial dipole
drives only electric-type (TM) waves, a tangential one TM and TE, and each
channel carries an m-summed weight.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import materials, model
from .errors import ConfigError, DegenerateSystemError, GeometryError, RangeError, at_row
from .specfun import outside_domain, real_over, riccati_scaled

TM = "TM"
TE = "TE"
POLS = (TM, TE)  # order of the polarization axis

# relative loss at which the 2x2 closure is declared singular
_DEGENERACY = 1e-13

# a region's regular and outgoing column among its (e_x, h_p, h_x, e_p)
_REGULAR = slice(3, None, -2)
_OUTGOING = slice(None, None, 2)

# largest accepted l_max; the log-norm tables hold well beyond it
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

    @property
    def n_regions(self):
        return len(self.k)


def layer_context(sphere, wavelength_nm):
    k0 = 2.0 * math.pi / wavelength_nm
    ks, mus, epss, absorbing = [], [], [], []
    for j in range(1, sphere.n_regions + 1):
        mat = sphere.region_material(j)
        n, eps = materials.optical_constants(mat, wavelength_nm)
        ks.append(k0 * n)
        mus.append(mat.mu)
        epss.append(eps)
        absorbing.append(model.absorbs(eps))
    if absorbing[-1]:
        raise GeometryError("ambient medium must be lossless at the queried wavelength")
    return LayerContext(sphere.radii, tuple(ks), tuple(mus), tuple(epss), tuple(absorbing), k0,
                        wavelength_nm)


def _interface_arguments(ctxs):
    """The (region, interface) keys of both regions at every interface, and
    the Riccati arguments k r there, over key and then context."""
    keys = [(j, i) for i in range(1, ctxs[0].n_regions) for j in (i, i + 1)]
    return keys, [c.k[j - 1] * c.radii[i - 1] for j, i in keys for c in ctxs]


def table_arguments(ctxs, l_max, host, r, w):
    """The Riccati arguments of rows at radii r [nm] in the ``host``
    regions at the wavelengths of the contexts ``w``: the interfaces', as a
    (context, key) array, and each row's own k r, which a row at the origin
    does not take; and per row whether a table rejects one of them
    (:func:`~nanoshell.specfun.riccati_scaled`)."""
    z = np.array(_interface_arguments(ctxs)[1]).reshape(-1, len(ctxs)).T
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite k r is rejected
        rho = np.array([c.k for c in ctxs])[w, host - 1] * r
    bad = outside_domain(l_max, z).any(axis=1)[w] | ((r != 0.0) & outside_domain(l_max, rho))
    return z, rho, bad


def _interface_tables(ctxs, l_max, rho=()):
    """Riccati tables (:func:`~nanoshell.specfun.riccati_scaled`) over l =
    1..l_max of both regions at every interface, one context per
    wavelength: the (region, interface) keys, the values and the log norms
    over key and the (wavelength, l) entries, flattened wavelength-major;
    and from the same Riccati call the tables at the extra arguments rho."""
    keys, z = _interface_arguments(ctxs)
    values, logs = (x[..., 1:] for x in riccati_scaled(l_max, np.concatenate([z, rho])).table)
    n = len(z)
    return ((keys, values[:, :n].reshape(4, len(keys), -1), logs[:, :n].reshape(2, len(keys), -1)),
            (values[:, n:], logs[:, n:]))


def _cross(state, src, dst):
    """Carry a pair of local (regular, outgoing) amplitudes across one
    interface, from the region whose :meth:`Prepared.entries` there are
    ``src`` to the one whose entries are ``dst``: the pair on the far side
    and the (E_t, H_t) row it forms at the interface."""
    x, _ = src
    row = state[0] * x[_REGULAR] + state[1] * x[_OUTGOING]  # c1 (e_p, h_p) + c2 (e_x, h_x)
    # (h_x y_e - e_x y_h, e_p y_h - h_p y_e) / det
    x, d = dst
    return (x[2:] * row - x[:2] * row[::-1]) / d, row


class Prepared:
    """Everything a sphere, a set of wavelengths and l_max fix for every
    dipole radius, over the (wavelength, l) entries: one layer context per
    wavelength, the normalized Riccati tables at the interfaces, each
    region's continuity-matrix entries, log norms and cross-radius factors,
    built on first use; and per polarization the two sweeps.  These are
    chains of pairs of local amplitudes (:meth:`entries`) carried from the
    core outward (u, from (1, 0)) and from the ambient inward (v, from (0,
    1)), and the (E_t, H_t) row each crossing forms.  A region's u pair is
    local to its inner interface and its v pair to its outer one (the
    core's u and the ambient's v to their one interface).  A dipole in
    region h closes with u and v at h; the outward rows below h and the
    inward rows above it carry its fields there."""

    def __init__(self, sphere, wavelengths_nm, l_max, contexts=None):
        check_l_max(l_max)
        self.sphere = sphere
        self.wavelengths = tuple(dict.fromkeys(wavelengths_nm))
        self.index = {wl: w for w, wl in enumerate(self.wavelengths)}
        self.l_max = l_max
        self.ctxs = [contexts[wl] if contexts else layer_context(sphere, wl)
                     for wl in self.wavelengths]
        self.ls = np.arange(1, l_max + 1)
        self.n_regions = n = sphere.n_regions
        self.mu = self.ctxs[0].mu  # per region
        # per (region, wavelength)
        self.k = np.array([c.k for c in self.ctxs]).T
        self.eps = np.array([c.eps for c in self.ctxs]).T
        # per wavelength
        self.k0 = np.array([c.k0 for c in self.ctxs])
        # per (wavelength, region)
        self.absorbing = np.array([c.absorbing for c in self.ctxs])
        self._tables = self._scalars = self._derived = None
        entries = len(self.ctxs) * l_max
        # ((u1, u2, v1, v2), region, polarization, (wavelength, l))
        self._pairs = np.zeros((4, n, 2, entries), dtype=complex)
        self._pairs[0, 0] = self._pairs[3, n - 1] = 1.0
        # ((E_t, H_t), interface, (outward, inward), polarization, (wavelength, l))
        self._rows = np.zeros((2, n - 1, 2, 2, entries), dtype=complex)
        # per polarization: the region each sweep has reached
        self.top, self.bottom = [1, 1], [n, n]

    def scalars(self):
        """1/k, 1/mu and the TM and TE matching determinants per (region,
        (wavelength, l) entry), each formed in Python complex arithmetic at
        its own wavelength, as a one-wavelength prepare forms it, so no
        wavelength's entries depend on the others."""
        if self._scalars is None:
            per_wavelength = [
                [(1.0 / k, 1.0 / mu, -1j / (k * mu), 1j / (k * mu)) for k, mu in zip(c.k, c.mu)]
                for c in self.ctxs
            ]
            # (region, quantity, (wavelength, l) entry)
            cols = np.repeat(np.array(per_wavelength).transpose(1, 2, 0), self.l_max, axis=2)
            self._scalars = cols[:, 0], cols[:, 1], cols[:, 2:]
        return self._scalars

    def _derive(self):
        if self._derived is None:
            if self._tables is None:
                self._tables, _ = _interface_tables(self.ctxs, self.l_max)
            keys, values, logs = self._tables
            inv_k, inv_mu, det = self.scalars()
            regions = [j - 1 for j, _ in keys]
            # (e_x, h_p, h_x, e_p) rows of the (psi, dpsi, xi, dxi) stack, TM then TE
            rows = np.array([[3, 2], [0, 1], [2, 3], [1, 0]])
            factor = np.stack([inv_k[regions], inv_mu[regions]], axis=1)[:, [0, 1, 1, 0], None]
            # (key, row, polarization, (wavelength, l) entry)
            x = values.swapaxes(0, 1)[:, rows] * factor
            d = det[regions] * np.exp(-(logs[0] + logs[1]))[:, None]
            n = self.n_regions
            inner, outer = np.full((2, 2, n, logs.shape[-1]), np.nan)
            for key, (j, i) in enumerate(keys):
                (outer if i == j else inner)[:, j - 1] = logs[:, key]
            log_p, log_x = inner[0] - outer[0], outer[1] - inner[1]
            to_ambient = np.empty(log_x.shape)
            to_ambient[-2:] = -inner[1, -1]
            for j in range(n - 3, -1, -1):
                to_ambient[j] = to_ambient[j + 1] + log_x[j + 1]
            self._derived = ({(j, i): (x[k], d[k]) for k, (j, i) in enumerate(keys)},
                             (inner, outer, to_ambient),
                             (np.exp(log_p + log_x), np.exp(log_p), np.exp(log_x)))
        return self._derived

    def entries(self, region, interface):
        """Continuity-matrix entries (e_x, h_p, h_x, e_p) of one region at one
        interface, stacked on a leading axis, and its matching determinant,
        with TM and TE on a polarization axis over the (wavelength, l)
        entries.  Columns (regular, outgoing); rows (tangential-E, -H); for
        TM the E row carries the Riccati derivatives, for TE the functions.
        Each column is divided by its family's norm there, and the
        determinant by both, so they act on local amplitudes: amplitudes
        times those norms."""
        return self._derive()[0][region, interface]

    def norms(self):
        """Log norms of the regular and the outgoing family of each region
        at its inner and at its outer interface, as (family, region,
        (wavelength, l) entry) arrays, NaN where there is none; and per
        region the log of the ambient outgoing amplitude per local v
        amplitude."""
        return self._derive()[1]

    def factors(self):
        """Per region, with r_a < r_b its inner and outer radius: tau, the
        product of the bounded cross-radius factors that follow, psi(k
        r_a)/psi(k r_b) and xi(k r_b)/xi(k r_a) as family norms, by which the
        sweeps' pairs of adjacent regions differ; NaN in core and ambient."""
        return self._derive()[2]

    def link(self, interface, host, w):
        """Per (interface, row, l): the product of the cross-radius factors
        of the regions strictly between an interface and a row's host, which
        carries the host's amplitude to the sweep row stored there."""
        _, rho_p, rho_x = (x.reshape(-1, len(self.ctxs), self.l_max) for x in self.factors())
        out = np.ones(np.broadcast_shapes(np.shape(interface), host.shape) + (self.l_max,))
        for k in range(2, self.n_regions):
            for between, rho in (((host < k) & (k <= interface), rho_x),
                                 ((interface < k) & (k < host), rho_p)):
                if between.any():
                    out = np.where(between[..., None], out * rho[k - 1, w], out)
        return out

    def dipole_tables(self, rho):
        """Normalized (psi, dpsi, xi, dxi) over l = 1..l_max and their log
        norms at the dipole arguments rho, one table each; while the
        interface tables are missing, built in the same call."""
        if self._tables is not None:
            return tuple(x[..., 1:] for x in riccati_scaled(self.l_max, rho).table)
        self._tables, tables = _interface_tables(self.ctxs, self.l_max, rho)
        return tables

    def _view(self, x):
        """Stored values, their entries split into (wavelength, l)."""
        return x.reshape(x.shape[:-1] + (len(self.ctxs), self.l_max))

    def reach(self, lo, hi, pols=(0, 1)):
        """Carry the outward sweep up to region ``hi`` and the inward sweep
        down to region ``lo``, of the polarization indices ``pols`` alone.
        A step through a region scales its pair by the region's tau
        (:meth:`factors`), taken as 1 in the core and the ambient, whose
        pairs are the unit pairs; polarizations that stand at the same
        region step together."""
        tau, n = self.factors()[0], self.n_regions
        for inward, at, half in ((False, self.top, slice(0, 2)),
                                 (True, self.bottom, slice(2, 4))):
            while late := [q for q in pols if (lo < at[q] if inward else at[q] < hi)]:
                src = (max if inward else min)(at[q] for q in late)  # the region left
                q = [x for x in late if at[x] == src]
                q, dst = slice(q[0], q[-1] + 1), src - 1 if inward else src + 1
                i = min(src, dst)  # the interface crossed
                t = tau[src - 1] if 1 < src < n else 1.0
                a, b = self._pairs[half, src - 1, q]
                (x, d), (y, e) = self.entries(src, i), self.entries(dst, i)
                self._pairs[half, dst - 1, q], self._rows[:, i - 1, int(inward), q] = _cross(
                    (a * t, b) if inward else (a, b * t), (x[:, q], d[q]), (y[:, q], e[q]))
                at[q] = [dst] * len(at[q])

    def pairs(self, host, pol, w):
        """(u1, u2, v1, v2) at host regions, polarization indices and
        wavelength indices (broadcast together), stacked on a leading axis,
        with a last axis over l."""
        return self._view(self._pairs)[:, host - 1, pol, w]

    def rows(self, interface, inward, pol, w):
        """(E_t, H_t) of the stored pairs at one interface, of the outward
        or the inward sweep, at polarization and wavelength indices, stacked
        on a leading axis."""
        return self._view(self._rows)[:, interface - 1, inward.astype(int), pol, w]


def prepare(sphere, wavelengths_nm, l_max, contexts=None):
    """What every dipole radius shares at each of the wavelengths
    ``wavelengths_nm`` [nm], their layer contexts taken from ``contexts``
    (wavelength -> :func:`layer_context`) when given; see
    :class:`Prepared`."""
    return Prepared(sphere, wavelengths_nm, l_max, contexts)


class _Closure:
    """Rows closed together against one prepare, as (channel, row, l)
    arrays over l = 1..l_max: the channels of each orientation in the order
    asked for (``_KINDS``), TM first, ``pol`` their indices into ``POLS``;
    row n, ``rows[n]`` as given (r_nm, wavelength), at radius ``r[n]``,
    wavelength index ``w[n]``, host ``host[n]`` and distances ``dist[n]``
    to the interfaces.  Beside the physical amplitudes, ``a`` and ``b``
    multiply the sweep rows ``prepared`` stores at the host's inner and
    outer interface (see :meth:`Prepared.link`)."""

    def __init__(self, prepared, orientations, kinds, rows, r, w, host, dist,
                 weight, g, b_out, q_out, scat, a, b):
        self.prepared = prepared
        self.orientations = tuple(orientations)
        self.pol = _KIND_POL[kinds]
        self.rows, self.r, self.w, self.host, self.dist = rows, r, w, host, dist
        self.weight = weight  # (channel, 1, l)
        self.g, self.b_out, self.q_out, self.scat = g, b_out, q_out, scat
        self.a, self.b = a, b
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
        overflow names the first row that has one, and in it the first
        interface in order.  Interface 0 is the origin, where the flux
        vanishes; a source-free shell between interfaces i-1 and i absorbs
        flux(i-1) - flux(i) (Poynting's theorem)."""
        f = np.zeros((len(interfaces),) + self.g.shape)
        at = np.flatnonzero(interfaces)
        if at.size:
            i = np.asarray(interfaces)[at, None, None]
            inward = i >= self.host
            rows = self.prepared.rows(i, inward, self.pol[:, None], self.w)
            amp = np.where(inward[..., None], self.b, self.a)
            e, h = amp * self.prepared.link(i, self.host, self.w) * rows
            p = np.conj(e) * h
            bad = ~np.isfinite(p)
            if bad.any():
                n = int(np.argmax(bad.any(axis=(0, 1, 3))))
                raise at_row(_overflow(p[:, :, n], "interface flux"), *self.rows[n])
            f[at] = np.where(self.pol[:, None, None] == 1, p.imag, -p.imag)
        return f

    def flux(self, interface):
        """The flux through one interface; see :meth:`fluxes`."""
        return self.fluxes([interface])[0]


def _overflow(x, context):
    """RangeError naming ``context`` and the order of the first non-finite
    entry of x, entry i along the last axis being order i + 1."""
    l = np.flatnonzero(~np.isfinite(x))[0] % x.shape[-1] + 1
    return RangeError(f"{context} overflows double precision at order l={l}")


def _collapse_channels(pol, degenerate, named, rows):
    """The named (channel, row, l) arrays, checked array by array, with no
    stacked copy.  On failure, the first failing row raises what a close of
    it alone would raise first, with a note naming it (``rows`` as given to
    :func:`close`): for its first failing channel, its first singular
    order, else its first non-finite quantity in the order named, each at
    its first order."""
    values = [x for x, _ in named]
    if not degenerate.any() and all(np.isfinite(x).all() for x in values):
        return values
    bad = np.stack([np.broadcast_to(degenerate, values[0].shape),
                    *(~np.isfinite(x) for x in values)])
    n = int(np.argmax(bad.any(axis=(0, 1, 3))))
    bad = bad[:, :, n]
    c = int(np.argmax(bad.any(axis=(0, 2))))
    q = int(np.argmax(bad[:, c].any(axis=1)))
    if q == 0:
        exc = DegenerateSystemError(int(np.argmax(bad[0, c])) + 1, POLS[pol[c]])
    else:
        x, context = named[q - 1]
        exc = _overflow(x[c, n], context)
    raise at_row(exc, *rows[n])


def _sources(prepared, kinds, r, w, host):
    """Source amplitudes (regular, outgoing) of every channel and row, the
    projections of the two profiles onto the dipole axis from one Riccati
    table per row at k r of its host and wavelength, each divided by its
    family's norm; the log norms per (row, l); and the physical regular
    amplitude.  A row at the origin takes the r -> 0 limits
    (``_ORIGIN_REG``), never reaching a table, which rejects a zero
    argument, and the core's norms at its interface."""
    off = r != 0.0
    if off.any():
        with np.errstate(over="ignore"):  # an infinite k r is rejected by its table
            rho = prepared.k[host[off] - 1, w[off]] * r[off]
        values, logs = prepared.dipole_tables(rho)
        inv_rho = real_over(1.0, rho)[:, None]
        factor = np.stack([inv_rho, inv_rho * inv_rho])[_KIND_POWER[kinds] - 1]
        s = values[_KIND_PROFILE[kinds].T] * factor
        if off.all():
            return s, logs, s[0] * np.exp(logs[0])
    s_all = np.zeros((2, len(kinds), len(r), prepared.l_max), dtype=complex)
    logs_all = np.empty((2, len(r), prepared.l_max))
    logs_all[:, ~off] = prepared.norms()[1][:, 0].reshape(2, len(prepared.ctxs), -1)[:, w[~off]]
    s_all[0][:, ~off, 0] = _ORIGIN_REG[kinds, None] * np.exp(-logs_all[0, ~off, 0])
    if off.any():
        s_all[:, :, off], logs_all[:, off] = s, logs
    q = s_all[0] * np.exp(logs_all[0])
    q[:, ~off, 0] = _ORIGIN_REG[kinds, None]  # exactly
    return s_all, logs_all, q


def _references(prepared, host, w, logs):
    """Per row over l: the log norms (regular, outgoing) at the host's inner
    interface, where its u pair is local, and at its outer one, where its v
    pair is local, the dipole's ``logs`` standing in for the core's inner
    and the ambient's outer one; and the log of the ambient outgoing
    amplitude per unit of the host's local v amplitudes."""
    shape = (len(prepared.ctxs), prepared.l_max)
    inner, outer, to_ambient = (x.reshape(x.shape[:-1] + shape)[..., host - 1, w, :]
                                for x in prepared.norms())
    ambient = host[:, None] == prepared.n_regions
    return (np.where(host[:, None] == 1, logs, inner), np.where(ambient, logs, outer),
            np.where(ambient, -logs[1], to_ambient))


def close(prepared, rows, orientations):
    """Every channel of dipoles at the rows (r_nm [nm], wavelength [nm])
    against one prepare that holds every row's wavelength, closed on
    (channel, row, l) arrays: one :class:`_Closure` with the rows in the
    order given.  The rows are checked first (:func:`model.check_points`),
    with the host permittivities of the prepare; a numerical failure names
    its first failing row (:func:`_collapse_channels`).  Each channel
    gathers its host's sweep pairs by (host, wavelength), scales them into fields at the dipole by one bounded factor each, and
    closes them against the sources, which enter swapped (outgoing content
    above the source is proportional to the regular profile and vice
    versa).  A singular determinant is set to one: its rows raise before any
    result is used, and the others must not divide by zero first."""
    r = np.array([x for x, _ in rows], dtype=float)
    w = np.array([prepared.index[wl] for _, wl in rows], dtype=int)
    if not set(orientations) <= set(model.ORIENTATIONS):
        for o in orientations:  # every row is bad; the first raises as its dipoles do
            model.DipoleSource(rows[0][0], o, rows[0][1])
    host, dist = model.check_points(prepared.sphere, r, np.array(prepared.wavelengths)[w],
                                    host_eps=lambda host: prepared.eps[host - 1, w])
    kinds = np.array([k for o in orientations for k in _KINDS[o]])
    pol = _KIND_POL[kinds]
    (s_reg, s_out), (lp, lx), q_out = _sources(prepared, kinds, r, w, host)
    prepared.reach(host.min(), host.max(), sorted(set(pol.tolist())))
    (ip, ix), (op, ox), to_ambient = _references(prepared, host, w, (lp, lx))
    u1, u2, v1, v2 = prepared.pairs(host, pol[:, None], w)
    u2, v1 = u2 * np.exp(lx - ix + ip - lp), v1 * np.exp(lp - op + ox - lx)
    t1, t2 = u1 * v2, u2 * v1
    delta = t1 - t2
    degenerate = (delta == 0) | (np.abs(delta) < _DEGENERACY * np.maximum(np.abs(t1), np.abs(t2)))
    if degenerate.any():
        delta = np.where(degenerate, 1.0, delta)
    a = (v1 * s_reg + v2 * s_out) / delta
    b = (u1 * s_reg + u2 * s_out) / delta
    # the scattered field in the host region is (a_s, b_s) = (v1 b, u2 a):
    # exact product forms, free of the cancellation in (total - primary)
    b_s = u2 * a
    g, b_out, q_out, scat = _collapse_channels(pol, degenerate, (
        ((v1 * b * s_reg + b_s * s_out) * np.exp(lp + lx), "g"),
        (b * np.exp(lp + ox + to_ambient), "ambient amplitude"),
        (q_out, "source amplitude"),
        (b_s * np.exp(lp), "scattered amplitude"),
    ), rows)
    ls = prepared.ls
    weights = np.stack([1.5 * ls * (ls + 1) * (2 * ls + 1), 0.75 * (2 * ls + 1)])
    weight = weights[np.minimum(kinds, 1)][:, None, :]
    return _Closure(prepared, orientations, kinds, rows, r, w, host, dist, weight,
                    g, b_out, q_out, scat, a * np.exp(lx + ip), b * np.exp(lp + ox))


def check_l_max(l_max):
    """Reject an l_max that is not an integer in 1..L_MAX_CEILING."""
    if isinstance(l_max, bool) or not isinstance(l_max, (int, np.integer)) or not (
            1 <= l_max <= L_MAX_CEILING):
        raise ConfigError(f"l_max must be an integer in 1..{L_MAX_CEILING}, got {l_max!r}")


def solve_dipole_fields(sphere, dipole, l_max):
    """The :class:`_Closure` of one dipole, a single row holding each channel
    its orientation drives, TM first: a prepare and a close of its own.  The
    source normalization makes a contrast-free sphere return zero scattered
    amplitudes and unit normalized rates."""
    row = (dipole.radial_position_nm, dipole.wavelength_nm)
    return close(prepare(sphere, [row[1]], l_max), [row], (dipole.orientation,))
