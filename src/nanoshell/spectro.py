"""Normalized spectroscopic outputs.

Everything is normalized to the radiative rate of the same dipole embedded in
an unbounded medium equal to the one at the dipole position, so the dipole
magnitude and any local-field correction cancel.  With the scattered
self-coupling g of the channel solver (engine-normalized so a contrast-free
sphere gives g = 0):

* total rate        W_t / W_h   = 1 + Im(g)
* frequency shift   (w - w0)/W_h = -Re(g) / 2
* radiative rate    from the ambient outgoing amplitudes (multipole power sum)
* Ohmic rate        eps'' |E|^2 integrated over absorbing shells: by
                    Poynting's theorem the net radial flux through each
                    shell's two surfaces, read per channel from the
                    solver's own interface fields; see
                    :func:`ohmic_rate_per_l`.

Every output of a batch of rows is computed in one array pass,
:func:`_observe`, over the (channel, row, l) arrays of the closure
:func:`transfer.close` returns: the per-order terms, partial sums, spreads,
shift tail, interface fluxes and convergence flags of every row and
orientation at once, each operation elementwise in the rows, so a row's
results are bit for bit those of the row evaluated alone.
:func:`observe_rows` closes and observes many rows against one prepare, in
closes sized by the sphere's regions (:func:`close_size`), and returns
their outputs as (orientation, row) arrays, the columns a sweep writes from;
a numerical failure names its first failing row.  :class:`model.SpectroResult`
objects are built from those columns only for the library API
(:func:`evaluate_rows`, and :func:`evaluate` and
:func:`evaluate_orientations`, whose single queries share prepares),
for a closure of any number of rows (:func:`evaluate_from_coefficients`)
and for a sweep table's rows on demand.
"""

import math

import numpy as np

from . import model, transfer
from .errors import DomainError, at_row

# unused here; perfbench/tracing.py patches spectro.riccati_scaled by name
from .specfun import riccati_scaled  # noqa: F401

# dipole closer than this (times outer radius) to a metal interface is
# reported as unconverged rather than silently inaccurate
NEAR_METAL_FRACTION = 0.005

# wavelengths prepared at once, times (l_max + 1), are capped at this many:
# 33 at l_max = 60, one at 2047 and above; that bounds the memory of a
# prepare's (wavelength, l) arrays, and larger batches gain little
_BATCH_ENTRIES = 2048

_SPREAD_ORDERS = 10
_WT_SPREAD_TOL = 1e-8
_WRAD_SPREAD_TOL = 1e-8
_WOHM_SPREAD_TOL = 1e-6


def _add_channels(closure, out, x):
    """Add channel terms x (channel, row, l) into out (orientation, row,
    l): each orientation's TM channel, then the TE channel of a tangential
    dipole, as a sum over one row's channels in order adds them."""
    out += x[closure.first]
    if closure.te is not None:
        out[closure.tangential] += x[closure.te]


def _by_orientation(closure, x):
    out = np.zeros((len(closure.orientations),) + x.shape[1:], dtype=x.dtype)
    _add_channels(closure, out, x)
    return out


def _host_factors(closure):
    """Per row: the power normalization between the ambient and the host
    medium, and the Ohmic prefactor k0 sqrt(eps') mu^1.5 of the host, in
    the operation order of a one-row evaluation.  mu is a per-region
    constant, so its powers are formed in Python arithmetic per region."""
    prepared = closure.prepared
    mu = prepared.mu
    mu_15 = np.array([m ** 1.5 for m in mu])
    ratio_15 = np.array([(m / mu[-1]) ** 1.5 for m in mu])
    host = closure.host - 1
    eps_n = prepared.eps[host, closure.w].real
    eps_h = prepared.eps[-1, closure.w].real
    ratio = np.sqrt(eps_n / eps_h) * ratio_15[host]
    return ratio, prepared.k0[closure.w] * np.sqrt(eps_n) * mu_15[host]


def _radiated(closure):
    """Per-channel radiated power terms: from the scattered amplitudes for a
    dipole in the ambient, from the total outgoing ones below it."""
    ambient = closure.host == closure.prepared.n_regions
    rad = np.empty(closure.g.shape)
    scat = closure.scat[:, ambient]
    rad[:, ambient] = closure.weight * (
        2.0 * (np.conj(closure.q_out[:, ambient]) * scat).real + np.abs(scat) ** 2
    )
    rad[:, ~ambient] = closure.weight * np.abs(closure.b_out[:, ~ambient]) ** 2
    return rad


def partial_sums(closure):
    """Per-order partial sums of wt, shift and wrad over l = 1..l_max, and
    the per-order complex self-coupling terms, as (orientation, row, l)
    arrays of one :class:`transfer._Closure`."""
    ratio = _host_factors(closure)[0]
    g_terms = _by_orientation(closure, 1j * closure.weight * closure.g)
    rad = np.cumsum(_by_orientation(closure, _radiated(closure)), axis=-1)
    g_partial = np.cumsum(g_terms, axis=-1)
    ambient = (closure.host == closure.prepared.n_regions)[:, None]
    wrad = np.where(ambient, 1.0 + rad, ratio[:, None] * rad)
    return 1.0 + np.imag(g_partial), -0.5 * np.real(g_partial), wrad, g_terms


def _spread(partial):
    """Relative spread of the last _SPREAD_ORDERS partial sums, along the
    last axis."""
    tail = partial[..., -_SPREAD_ORDERS:]
    last = np.abs(partial[..., -1])
    ptp = np.ptp(tail, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = ptp / last
    return np.where(last == 0.0, np.where(ptp == 0.0, 0.0, math.inf), ratio)


def _geometric_tail(terms):
    """Tail estimate of truncated series from their last two terms, along
    the last axis."""
    if terms.shape[-1] < 2:
        return np.full(terms.shape[:-1], math.inf)
    t_last, t_prev = np.abs(terms[..., -1]), np.abs(terms[..., -2])
    with np.errstate(divide="ignore", invalid="ignore"):
        q = t_last / t_prev
        tail = t_last * q / (1.0 - q)
    return np.where(
        t_last == 0.0, 0.0, np.where((t_prev == 0.0) | (t_last >= t_prev), math.inf, tail)
    )


def fluorescence_yield(wt_norm, wrad_norm, rows=None):
    """wrad/wt; an upper bound on the yield actually realized, since only
    the Ohmic channel of the nonradiative decay is modeled.  Takes numbers
    or arrays; the first non-positive total rate raises, naming its row
    when ``rows`` gives the row (r_nm, wavelength) of each index along the
    first axis."""
    bad = np.asarray(wt_norm) <= 0
    if bad.any():
        exc = DomainError(f"total rate must be positive, got {float(np.asarray(wt_norm)[bad][0])}")
        raise exc if rows is None else at_row(exc, *rows[int(np.argwhere(bad)[0][0])])
    return wrad_norm / wt_norm


def orientation_average(radial_value, tangential_value):
    """Isotropic (degeneracy-weighted) dipole-orientation average."""
    return (radial_value + 2.0 * tangential_value) / 3.0


def photostability_ratio(wrad_norm):
    """Detected photons before photobleaching, relative to the free dye:
    the enhancement of the excited-state turnover times the escape
    probability collapses to the normalized radiative rate."""
    return wrad_norm


# ---------------------------------------------------------------------------
# Ohmic loss from interface fluxes


def ohmic_rate_per_l(closure):
    """Per-order normalized Ohmic rate contributions (summed gives the rate)
    of every orientation and row of a closure, as (orientation, row, l)
    arrays, from the shells that absorb at each row's wavelength.

    By Poynting's theorem the power a source-free shell takes out of the
    field is the net radial flux through its two surfaces (Mackowski,
    Altenkirch & Menguc, Appl. Opt. 29, 1551 (1990)): with the solver's own
    continuity rows, eps'' int |E|^2 over the shell between interfaces j-1
    and j is flux(j-1) - flux(j) per channel (see
    :meth:`transfer._Closure.fluxes`), and the region's k, mu and eps''
    cancel.  The fluxes of every interface an absorbing shell touches are
    formed together, in one pass.
    """
    shells = closure.prepared.absorbing[:-1, closure.w].T
    per_l = np.zeros((len(closure.orientations),) + closure.g.shape[1:])
    absorbing = np.flatnonzero(shells.any(axis=0)) + 1
    # ascending; not np.union1d, which imports numpy.ma
    touched = sorted({*(absorbing - 1).tolist(), *absorbing.tolist()})
    flux = dict(zip(touched, closure.fluxes(touched)))
    for j in absorbing:
        d = closure.weight * (flux[j - 1] - flux[j])
        if not shells[:, j - 1].all():
            d = np.where(shells[:, j - 1, None], d, 0.0)
        _add_channels(closure, per_l, d)
    return _host_factors(closure)[1][:, None] * per_l


# the fields _observe computes: every result field but the three as_results sets
_FIELDS = tuple(o.field for o in model.OUTPUTS
                if o.field not in (None, "l_used", "quad_rel_err", "orientation"))


def _observe(closure):
    """Every output of every row and orientation of one closure, as
    (orientation, row) arrays per :class:`model.SpectroResult` field, with
    the orientation average appended when both orientations were closed,
    and the orientation names in that order.  A failure raises before any
    result exists."""
    absorbing = closure.prepared.absorbing[:, closure.w].T
    shells = absorbing[:, :-1]
    any_absorbing = shells.any(axis=1)
    # within NEAR_METAL_FRACTION r_s of an interface touching a region that
    # absorbs at the row's wavelength
    limit = NEAR_METAL_FRACTION * closure.prepared.sphere.outer_radius_nm
    near_metal = ((shells | absorbing[:, 1:]) & (closure.dist < limit)).any(axis=1)
    wt_partial, shift_partial, wrad_partial, g_terms = partial_sums(closure)
    zeros = np.zeros(wt_partial.shape[:-1])
    wohm, wohm_spread = zeros, zeros
    if any_absorbing.any():
        per_l = ohmic_rate_per_l(closure)
        wohm = np.where(any_absorbing, np.sum(per_l, axis=-1), 0.0)
        wohm_spread = np.where(any_absorbing, _spread(np.cumsum(per_l, axis=-1)), 0.0)
    out = {
        "shift_norm": shift_partial[..., -1],
        "wt_norm": wt_partial[..., -1],
        "wrad_norm": wrad_partial[..., -1],
        "wohm_norm": wohm,
        "wt_spread": _spread(wt_partial),
        "wrad_spread": _spread(wrad_partial),
        "wohm_spread": wohm_spread,
        "shift_tail": _geometric_tail(-0.5 * np.real(g_terms)),
    }
    # a shift may be a small difference of large terms, so the spread of its
    # last partial sums is held to the wt tolerance times max(|shift|, wt)
    shift_spread = np.ptp(shift_partial[..., -_SPREAD_ORDERS:], axis=-1)
    out["converged"] = (
        (out["wt_spread"] < _WT_SPREAD_TOL)
        & (shift_spread < _WT_SPREAD_TOL * np.maximum(np.abs(out["shift_norm"]), out["wt_norm"]))
        & (out["wrad_spread"] < _WRAD_SPREAD_TOL)
        & (~any_absorbing | (wohm_spread < _WOHM_SPREAD_TOL))
        & ~(any_absorbing & near_metal)
    )
    names = closure.orientations
    if len(names) == 2:
        out = {k: np.concatenate([v, _average(closure, k, v)[None]]) for k, v in out.items()}
        names = names + ("average",)
    # row-major, as the rows are evaluated one after another
    out["fluorescence_yield"] = fluorescence_yield(out["wt_norm"].T, out["wrad_norm"].T,
                                                   closure.rows).T
    out["photostability"] = photostability_ratio(out["wrad_norm"])
    return names, out


def _average(closure, field, v):
    """The orientation average of one field: rates are averaged (physical
    ensembles average rates, not ratios), spreads and tails take the larger
    of the two as max() would, and a row converges when both do."""
    ra, ta = (v[closure.orientations.index(o)] for o in model.ORIENTATIONS)
    if field == "converged":
        return ra & ta
    if field.endswith("_spread") or field == "shift_tail":
        return np.where(ta > ra, ta, ra)
    return orientation_average(ra, ta)


def as_results(names, out, l_used):
    """Per row of the (orientation, row) arrays ``out`` of :func:`_observe`,
    over the orientation ``names``, a dict orientation ->
    :class:`model.SpectroResult`."""
    cols = [out[f].tolist() for f in _FIELDS]
    return [
        {
            name: model.SpectroResult(
                **{f: col[o][n] for f, col in zip(_FIELDS, cols)},
                l_used=l_used, quad_rel_err=0.0, orientation=name,
            )
            for o, name in enumerate(names)
        }
        for n in range(len(cols[0][0]))
    ]


def evaluate_from_coefficients(closure):
    """Full normalized result set of every row of one closure: per row, a
    dict orientation -> :class:`model.SpectroResult`, plus "average" when
    both orientations were closed."""
    return as_results(*_observe(closure), closure.prepared.l_max)


def _evaluate_one(sphere, r_nm, wavelength_nm, l_max, orientations):
    """The results of one row, as :func:`evaluate_rows` gives them, against
    the prepare single queries share (:func:`transfer.shared_prepare`)."""
    rows = [(r_nm, wavelength_nm)]
    prepared = transfer.shared_prepare(sphere, wavelength_nm, l_max,
                                       lambda p: _check_rows(p, rows, orientations))
    return as_results(*observe_rows(prepared, rows, orientations), prepared.l_max)[0]


def evaluate(sphere, dipole, l_max=60):
    """One-stop evaluation of every normalized output for one query.
    Repeated queries at one sphere, wavelength and l_max share their
    prepared state (:func:`transfer.shared_prepare`, which bounds what it
    holds); the result equals a fresh prepare's."""
    return _evaluate_one(sphere, dipole.radial_position_nm, dipole.wavelength_nm, l_max,
                         (dipole.orientation,))[dipole.orientation]


def batch_size(l_max):
    """Wavelengths prepared at once at this l_max."""
    return max(1, _BATCH_ENTRIES // (l_max + 1))


def close_size(l_max, n_regions):
    """Rows closed at once at this l_max, on a sphere of ``n_regions``:
    rows times (l_max + 1) and the regions are capped at
    :data:`transfer.CLOSE_ENTRIES`, which bounds a close's (channel, row, l)
    arrays and its fluxes' (interface, channel, row, l) ones."""
    return max(1, transfer.CLOSE_ENTRIES // ((l_max + 1) * n_regions))


def join_columns(parts):
    """The (names, columns) of consecutive runs of rows, each as
    :func:`observe_rows` gives it, as one, the rows in order."""
    (names, first), *_ = parts
    return names, {f: np.concatenate([out[f] for _, out in parts], axis=1) for f in first}


def observe_rows(prepared, rows, orientations):
    """Every output of one or more rows (r_nm [nm], wavelength [nm])
    against one :func:`transfer.prepare` that holds every row's wavelength:
    the orientation names, with "average" when both orientations are asked
    for, and per :class:`model.SpectroResult` field an (orientation, row)
    array (:func:`_observe`), empty for no rows.  Each batch of
    :func:`close_size` rows is closed and observed in one array pass; each
    row's outputs are the ones a one-row call gives."""
    if not rows:
        names = tuple(orientations) + ("average",) * (len(orientations) == 2)
        return names, {f: np.zeros((len(names), 0), dtype=bool if f == "converged" else float)
                       for f in _FIELDS}
    step = close_size(prepared.l_max, prepared.n_regions)
    parts = []
    for lo in range(0, len(rows), step):
        # a batch's closure is freed only once the next one is built: freed
        # first, glibc handed its pages back to the system and the next
        # close faulted them in again, ~15% of a 401-row radial sweep
        closure = transfer.close(prepared, rows[lo:lo + step], orientations)
        parts.append(_observe(closure))
    return join_columns(parts)


def evaluate_rows(prepared, rows, orientations):
    """Results at many rows (r_nm [nm], wavelength [nm]) against one
    :func:`transfer.prepare` that holds every row's wavelength: per row, a
    dict orientation -> :class:`model.SpectroResult`, plus "average" when
    both orientations are asked for; the outputs of :func:`observe_rows`,
    once the rows are checked (:func:`_check_rows`)."""
    _check_rows(prepared, rows, orientations)
    return as_results(*observe_rows(prepared, rows, orientations), prepared.l_max)


def _check_rows(prepared, rows, orientations):
    """Check the orientations, then every point of the rows, each as
    :func:`model.check_points` checks it with the prepare's host
    permittivities; the first bad one raises."""
    w = [prepared.index[wl] for _, wl in rows]
    if rows and not set(orientations) <= set(model.ORIENTATIONS):
        for o in orientations:  # every row is bad; the first raises as its dipoles do
            model.DipoleSource(rows[0][0], o, rows[0][1])
    model.check_points(prepared.sphere, [r for r, _ in rows], [wl for _, wl in rows],
                       lambda host: prepared.eps[host - 1, w])


def evaluate_orientations(sphere, r_nm, wavelength_nm, l_max=60):
    """Radial, tangential, and orientation-averaged results at one radius.
    Repeated queries at one sphere, wavelength and l_max share their
    prepared state, as :func:`evaluate`'s do; the results equal a fresh
    prepare's."""
    return _evaluate_one(sphere, r_nm, wavelength_nm, l_max, model.ORIENTATIONS)
