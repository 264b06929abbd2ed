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
"""

import math
from dataclasses import replace

import numpy as np

from . import model, transfer
from .errors import DomainError

# unused here; perfbench/tracing.py patches spectro.riccati_scaled by name
from .specfun import riccati_scaled  # noqa: F401

# dipole closer than this (times outer radius) to a metal interface is
# reported as unconverged rather than silently inaccurate
NEAR_METAL_FRACTION = 0.005

# rows closed at once, times (l_max + 1), are capped at this many: 33 rows at
# l_max = 60, one at 2047 and above; that bounds the memory of their (row, l)
# arrays, and larger batches gain little
_BATCH_ENTRIES = 2048

_SPREAD_ORDERS = 10
_WT_SPREAD_TOL = 1e-8
_WRAD_SPREAD_TOL = 1e-8
_WOHM_SPREAD_TOL = 1e-6


def _per_l_arrays(coeffs):
    """Per-order complex self-coupling terms and radiative power terms."""
    l_max = coeffs.l_max
    g_terms = np.zeros(l_max + 1, dtype=complex)  # index by l, entry 0 unused
    rad_terms = np.zeros(l_max + 1)
    ambient = coeffs.host_region == coeffs.ctx.n_regions
    for ch in coeffs.channels:  # one per polarization
        g_terms[ch.l] += 1j * ch.weight * ch.g
        if ambient:
            rad_terms[ch.l] += ch.weight * (
                2.0 * (np.conj(ch.q_out_val) * ch.scat_out).real + np.abs(ch.scat_out) ** 2
            )
        else:
            rad_terms[ch.l] += ch.weight * np.abs(ch.b_out) ** 2
    return g_terms, rad_terms, ambient


def _medium_ratio(coeffs):
    """Power normalization between the ambient and the dipole's medium."""
    ctx = coeffs.ctx
    n = coeffs.host_region
    eps_n = ctx.eps[n - 1].real
    eps_h = ctx.eps[-1].real
    mu_n = ctx.mu[n - 1]
    mu_h = ctx.mu[-1]
    return math.sqrt(eps_n / eps_h) * (mu_n / mu_h) ** 1.5


def _partial_sums(coeffs):
    """Per-order partial sums of wt, shift and wrad over l = 1..l_max, and
    the per-order complex self-coupling terms (index by l)."""
    g_terms, rad_terms, ambient = _per_l_arrays(coeffs)
    g_partial = np.cumsum(g_terms[1:])
    wt_partial = 1.0 + np.imag(g_partial)
    shift_partial = -0.5 * np.real(g_partial)
    if ambient:
        wrad_partial = 1.0 + np.cumsum(rad_terms[1:])
    else:
        wrad_partial = _medium_ratio(coeffs) * np.cumsum(rad_terms[1:])
    return wt_partial, shift_partial, wrad_partial, g_terms


def _spread(partial):
    tail = partial[-_SPREAD_ORDERS:]
    last = abs(partial[-1])
    if last == 0.0:
        return 0.0 if np.ptp(tail) == 0.0 else math.inf
    return float(np.ptp(tail) / last)


def _geometric_tail(terms):
    """Tail estimate of a truncated series from its last two terms."""
    if len(terms) < 2:
        return math.inf
    t_last, t_prev = abs(terms[-1]), abs(terms[-2])
    if t_last == 0.0:
        return 0.0
    if t_prev == 0.0 or t_last >= t_prev:
        return math.inf
    q = t_last / t_prev
    return t_last * q / (1.0 - q)


def fluorescence_yield(wt_norm, wrad_norm):
    """wrad/wt; an upper bound on the yield actually realized, since only
    the Ohmic channel of the nonradiative decay is modeled."""
    if wt_norm <= 0:
        raise DomainError(f"total rate must be positive, got {wt_norm}")
    return wrad_norm / wt_norm


def orientation_average(radial_value, tangential_value):
    """Isotropic (degeneracy-weighted) dipole-orientation average."""
    return (radial_value + 2.0 * tangential_value) / 3.0


def photostability_ratio(wrad_norm):
    """Detected photons before photobleaching, relative to the free dye:
    the enhancement of the excited-state turnover times the escape
    probability collapses to the normalized radiative rate."""
    return wrad_norm


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
# Ohmic loss from interface fluxes


def ohmic_rate_per_l(coeffs):
    """Per-order normalized Ohmic rate contributions (summed gives the rate).

    By Poynting's theorem the power a source-free shell takes out of the
    field is the net radial flux through its two surfaces (Mackowski,
    Altenkirch & Menguc, Appl. Opt. 29, 1551 (1990)): with the solver's own
    continuity rows, eps'' int |E|^2 over the shell between interfaces j-1
    and j is flux(j-1) - flux(j) per channel (see
    :meth:`transfer.ChannelSolution.flux`), and the region's k, mu and eps''
    cancel.

    Returns the per_l array indexed 1..l_max.
    """
    ctx = coeffs.ctx
    shells = [j for j in range(1, ctx.n_regions) if ctx.absorbing[j - 1]]
    if coeffs.host_region in shells:
        raise DomainError("dipole inside an absorbing shell")
    per_l = np.zeros(coeffs.l_max)
    for j in shells:
        for ch in coeffs.channels:  # one per polarization
            per_l[ch.l - 1] += ch.weight * (ch.flux(j - 1) - ch.flux(j))

    n = coeffs.host_region
    pref = ctx.k0 * math.sqrt(ctx.eps[n - 1].real) * ctx.mu[n - 1] ** 1.5
    return pref * per_l


def _near_metal(coeffs):
    """Whether the dipole lies within NEAR_METAL_FRACTION r_s of an
    interface touching a region that absorbs at the solve's wavelength."""
    absorbing = coeffs.ctx.absorbing
    r = coeffs.dipole.radial_position_nm
    limit = NEAR_METAL_FRACTION * coeffs.sphere.outer_radius_nm
    return any(
        abs(r - R) < limit
        for i, R in enumerate(coeffs.sphere.radii)
        if absorbing[i] or absorbing[i + 1]
    )


def evaluate_from_coefficients(coeffs):
    """Full normalized result set from solved channel coefficients."""
    wt_partial, shift_partial, wrad_partial, g_terms = _partial_sums(coeffs)
    wt = float(wt_partial[-1])
    shift = float(shift_partial[-1])
    wrad = float(wrad_partial[-1])

    any_absorbing = any(coeffs.ctx.absorbing[:-1])
    wohm_spread = 0.0
    if any_absorbing:
        per_l = ohmic_rate_per_l(coeffs)
        wohm = float(np.sum(per_l))
        wohm_spread = _spread(np.cumsum(per_l))
    else:
        wohm = 0.0

    wt_spread = _spread(wt_partial)
    wrad_spread = _spread(wrad_partial)
    shift_tail = _geometric_tail((-0.5 * np.real(g_terms[1:])))
    converged = (
        wt_spread < _WT_SPREAD_TOL
        and wrad_spread < _WRAD_SPREAD_TOL
        and (not any_absorbing or wohm_spread < _WOHM_SPREAD_TOL)
        and not (any_absorbing and _near_metal(coeffs))
    )
    y = fluorescence_yield(wt, wrad)
    return model.SpectroResult(
        shift_norm=shift,
        wt_norm=wt,
        wrad_norm=wrad,
        wohm_norm=wohm,
        fluorescence_yield=y,
        photostability=photostability_ratio(wrad),
        l_used=coeffs.l_max,
        converged=bool(converged),
        wt_spread=wt_spread,
        wrad_spread=wrad_spread,
        wohm_spread=wohm_spread,
        shift_tail=shift_tail,
        quad_rel_err=0.0,
        orientation=coeffs.dipole.orientation,
    )


def evaluate(sphere, dipole, l_max=60):
    """One-stop evaluation of every normalized output for one query."""
    return evaluate_from_coefficients(transfer.solve_dipole_fields(sphere, dipole, l_max))


def evaluate_rows(prepared, r_nm, orientations):
    """Results at many dipole radii [nm] against one
    :func:`transfer.prepare`: per radius, a dict orientation ->
    :class:`model.SpectroResult`, plus "average" when both orientations are
    asked for.  Each row's results are the ones a one-row call returns."""
    step = max(1, _BATCH_ENTRIES // (prepared.l_max + 1))
    out = []
    for lo in range(0, len(r_nm), step):
        for row in transfer.close(prepared, r_nm[lo:lo + step], orientations):
            results = {o: evaluate_from_coefficients(c) for o, c in row.items()}
            if len(results) == 2:
                results["average"] = _average(results[model.RADIAL], results[model.TANGENTIAL])
            out.append(results)
    return out


def evaluate_orientations(sphere, r_nm, wavelength_nm, l_max=60):
    """Radial, tangential, and orientation-averaged results at one radius."""
    prepared = transfer.prepare(sphere, wavelength_nm, l_max)
    return evaluate_rows(prepared, [r_nm], model.ORIENTATIONS)[0]


def _average(ra, ta):
    """The orientation average averages the rates (physical ensembles
    average rates, not ratios) and then forms yield and photostability from
    the averages."""
    wt = orientation_average(ra.wt_norm, ta.wt_norm)
    wrad = orientation_average(ra.wrad_norm, ta.wrad_norm)
    wohm = orientation_average(ra.wohm_norm, ta.wohm_norm)
    return replace(
        ra,
        shift_norm=orientation_average(ra.shift_norm, ta.shift_norm),
        wt_norm=wt,
        wrad_norm=wrad,
        wohm_norm=wohm,
        fluorescence_yield=fluorescence_yield(wt, wrad),
        photostability=photostability_ratio(wrad),
        converged=ra.converged and ta.converged,
        wt_spread=max(ra.wt_spread, ta.wt_spread),
        wrad_spread=max(ra.wrad_spread, ta.wrad_spread),
        wohm_spread=max(ra.wohm_spread, ta.wohm_spread),
        shift_tail=max(ra.shift_tail, ta.shift_tail),
        orientation="average",
    )
