import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nanoshell import materials, model, transfer
from nanoshell import scaledmath as sm
from nanoshell.specfun import riccati

import oracles

LAM = 595.0


def test_interface_matrix_identity_for_no_contrast():
    for pol in (transfer.TM, transfer.TE):
        m = transfer.interface_matrix(3, pol, 1.33, 1.33, 150.0, LAM)
        assert_allclose(m, np.eye(2), atol=1e-14)


def test_interface_matrix_determinant():
    # det is pinned by the Riccati pair's unit cross-product: k_out mu_out / (k_in mu_in)
    for pol in (transfer.TM, transfer.TE):
        for l in (1, 4, 17):
            m = transfer.interface_matrix(l, pol, 1.45, 1.33, 150.0, LAM)
            assert_allclose(np.linalg.det(m), 1.33 / 1.45, rtol=1e-12)
            m = transfer.interface_matrix(l, pol, 0.248 + 2.986j, 1.33, 150.0, LAM)
            assert_allclose(np.linalg.det(m), 1.33 / (0.248 + 2.986j), rtol=1e-12)


def test_interface_matrix_reproduces_single_interface_reflection():
    # exterior response from the transfer matrix vs the classic closed form
    rn_ref, rm_ref = oracles._sphere_coefficients(1.45, 1.33, 150.0, LAM, 6)
    for pol, ref in ((transfer.TM, rn_ref), (transfer.TE, rm_ref)):
        for l in (1, 3, 6):
            m = transfer.interface_matrix(l, pol, 1.45, 1.33, 150.0, LAM)
            u = m @ np.array([1.0, 0.0])
            assert abs(u[1] / u[0] - ref[l]) <= 1e-10 * abs(ref[l])


def test_no_contrast_sphere_has_zero_scattered_field():
    sph = model.build_sphere([(150.0, "water")], "water")
    dip = model.DipoleSource(60.0, "tangential", LAM)
    coeffs = transfer.solve_dipole_fields(sph, dip, 12)
    for ch in coeffs.channels:
        assert np.all(np.abs(ch.g) < 1e-12)
        assert np.all(np.abs(ch.scat_out) < 1e-12 * np.maximum(1.0, np.abs(ch.q_out_val)))


def test_centered_dipole_is_pure_dipole_channel():
    coeffs = transfer.solve_dipole_fields(
        model.preset("A"), model.DipoleSource(0.0, "radial", LAM), 40
    )
    assert coeffs.at_center
    assert [(list(ch.l), ch.pol) for ch in coeffs.channels] == [([1], transfer.TM)]


def test_centered_dipole_no_contrast_far_field_is_free_amplitude():
    sph = model.build_sphere([(150.0, "water")], "water")
    coeffs = transfer.solve_dipole_fields(sph, model.DipoleSource(0.0, "radial", LAM), 5)
    amps = {(l, ch.pol): b for ch in coeffs.channels for l, b in zip(ch.l, ch.b_out)}
    assert set(amps) == {(1, transfer.TM)}
    assert_allclose(amps[(1, transfer.TM)], 1.0 / 3.0, rtol=1e-12)


def test_source_jump_between_host_states():
    # outer minus inner state in the host region is the source discontinuity
    sph = model.preset("D")
    dip = model.DipoleSource(90.0, "tangential", LAM)
    coeffs = transfer.solve_dipole_fields(sph, dip, 20)
    rho = coeffs.ctx.k[0] * 90.0
    tab = riccati(20, rho)
    for ch in coeffs.channels:
        inner, outer = ch.states[coeffs.host_region - 1]
        d_reg = sm.collapse(sm.sub(outer[0], inner[0]))
        d_out = sm.collapse(sm.sub(outer[1], inner[1]))
        if ch.pol == transfer.TM:
            s_reg, s_out = tab.dpsi[ch.l] / rho, tab.dxi[ch.l] / rho
        else:
            s_reg, s_out = tab.psi[ch.l] / rho, tab.xi[ch.l] / rho
        assert_allclose(d_reg, -s_out, rtol=1e-9)
        assert_allclose(d_out, s_reg, rtol=1e-9)


def _tangential_pair(ctx, region, interface, l, pol, state):
    """(E_t, H_t) continuity pair from one region's collapsed amplitudes."""
    k = ctx.k[region - 1]
    mu = ctx.mu[region - 1]
    x = k * ctx.radii[interface - 1]
    tab = riccati(int(l.max()), x)
    c1 = sm.collapse(state[0])
    c2 = sm.collapse(state[1])
    if pol == transfer.TM:
        return (
            (c1 * tab.dpsi[l] + c2 * tab.dxi[l]) / k,
            (c1 * tab.psi[l] + c2 * tab.xi[l]) / mu,
        )
    return (
        (c1 * tab.psi[l] + c2 * tab.xi[l]) / k,
        (c1 * tab.dpsi[l] + c2 * tab.dxi[l]) / mu,
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_tangential_continuity_across_interfaces(seed):
    rng = np.random.default_rng(seed)
    n_shells = rng.integers(1, 4)
    radii = np.sort(rng.uniform(30.0, 500.0, size=n_shells))
    mats = []
    for r in radii:
        if rng.random() < 0.4:
            mats.append((float(r), materials.constant_index(complex(0.3, rng.uniform(1.5, 3.5)))))
        else:
            mats.append((float(r), materials.constant_index(rng.uniform(1.2, 2.2))))
    sph = model.build_sphere(mats, materials.constant_index(rng.uniform(1.0, 1.5)))
    r_d = float(rng.uniform(1.05, 1.6) * sph.outer_radius_nm)
    dip = model.DipoleSource(r_d, "tangential", LAM)
    coeffs = transfer.solve_dipole_fields(sph, dip, 20)
    for ch in coeffs.channels:
        for i in range(1, sph.n_regions):
            # region i meets interface i on its outer side, region i+1 on its inner side
            st_in = ch.states[i - 1][1]
            st_out = ch.states[i][0]
            a = _tangential_pair(coeffs.ctx, i, i, ch.l, ch.pol, st_in)
            b = _tangential_pair(coeffs.ctx, i + 1, i, ch.l, ch.pol, st_out)
            for va, vb in zip(a, b):
                scale = np.maximum(np.abs(va), np.abs(vb))
                keep = scale >= 1e-250
                assert np.all(np.abs(va - vb)[keep] / scale[keep] < 1e-9)


def test_interface_flux_conserved_through_lossless_shells():
    # a lossless shell absorbs nothing, so its two surface fluxes agree; for
    # the core that pins the outer flux to the zero flux at the origin
    for name in "ABC":
        sph = model.preset(name)
        r_d = 1.3 * sph.outer_radius_nm
        for lam in (LAM, 850.0):
            for orientation in model.ORIENTATIONS:
                dip = model.DipoleSource(r_d, orientation, lam)
                coeffs = transfer.solve_dipole_fields(sph, dip, 60)
                ctx = coeffs.ctx
                assert not ctx.absorbing[0]
                for ch in coeffs.channels:
                    flux = [ch.flux(i) for i in range(ctx.n_regions)]
                    scale = np.max(np.abs(flux), axis=0)
                    assert np.all(flux[0] == 0.0)
                    for j in range(1, ctx.n_regions):
                        absorbed = flux[j - 1] - flux[j]
                        if ctx.absorbing[j - 1]:
                            bad = absorbed < -1e-10 * scale
                        else:
                            bad = np.abs(absorbed) > 1e-10 * scale
                        key = (name, lam, orientation, ch.l[bad], ch.pol, j)
                        assert not bad.any(), key


def test_homogeneous_sphere_matches_closed_form():
    sph = model.preset("D")
    ref = oracles.exterior_dipole_rates(1.45, 1.33, 150.0, LAM, 180.0, l_max=40)
    for orientation in ("radial", "tangential"):
        coeffs = transfer.solve_dipole_fields(
            sph, model.DipoleSource(180.0, orientation, LAM), 40
        )
        g = sum(np.sum(1j * ch.weight * ch.g) for ch in coeffs.channels)
        assert_allclose(1 + g.imag, ref[orientation][0], rtol=1e-12)


def test_lossless_far_field_power_equals_local_rate():
    # energy conservation pins the far-field normalization
    sph = model.preset("D")
    for r_d, orientation in ((60.0, "radial"), (120.0, "tangential"), (210.0, "radial")):
        coeffs = transfer.solve_dipole_fields(
            sph, model.DipoleSource(r_d, orientation, LAM), 50
        )
        g = sum(np.sum(1j * ch.weight * ch.g) for ch in coeffs.channels)
        wt = 1 + g.imag
        ambient = coeffs.host_region == coeffs.ctx.n_regions
        if ambient:
            wrad = 1 + sum(
                np.sum(
                    ch.weight
                    * (2 * (np.conj(ch.q_out_val) * ch.scat_out).real + np.abs(ch.scat_out) ** 2)
                )
                for ch in coeffs.channels
            )
        else:
            eps = coeffs.ctx.eps
            ratio = math.sqrt(eps[coeffs.host_region - 1].real / eps[-1].real)
            wrad = ratio * sum(np.sum(ch.weight * np.abs(ch.b_out) ** 2) for ch in coeffs.channels)
        assert abs(wt - wrad) / wt < 1e-8


def test_outgoing_amplitude_tail_decays():
    for name in model.preset_names():
        sph = model.preset(name)
        for r_rs in (0.3, 1.3):
            r = r_rs * sph.outer_radius_nm
            try:
                dip = model.DipoleSource(r, "tangential", LAM)
                coeffs = transfer.solve_dipole_fields(sph, dip, 60)
            except Exception:
                continue
            mags = {ch.pol: np.abs(ch.b_out) for ch in coeffs.channels}
            for pol, seq in mags.items():
                tail = seq[-10:]
                assert all(a >= b for a, b in zip(tail, tail[1:])), (name, r_rs, pol)


def test_degenerate_l_max_guard():
    with pytest.raises(Exception):
        transfer.solve_dipole_fields(
            model.preset("D"), model.DipoleSource(60.0, "radial", LAM), 0
        )
