import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nanoshell import materials, model, spectro, sweep, transfer
from nanoshell import scaledmath as sm
from nanoshell.errors import DegenerateSystemError, GeometryError, RangeError

import oracles
from oracles import riccati
from test_golden import FIVE_REGIONS

LAM = 595.0


def test_interface_matrix_identity_for_no_contrast():
    for pol in (transfer.TM, transfer.TE):
        m = oracles.interface_matrix(3, pol, 1.33, 1.33, 150.0, LAM)
        assert_allclose(m, np.eye(2), atol=1e-14)


def test_interface_matrix_determinant():
    # det is pinned by the Riccati pair's unit cross-product: k_out mu_out / (k_in mu_in)
    for pol in (transfer.TM, transfer.TE):
        for l in (1, 4, 17):
            m = oracles.interface_matrix(l, pol, 1.45, 1.33, 150.0, LAM)
            assert_allclose(np.linalg.det(m), 1.33 / 1.45, rtol=1e-12)
            m = oracles.interface_matrix(l, pol, 0.248 + 2.986j, 1.33, 150.0, LAM)
            assert_allclose(np.linalg.det(m), 1.33 / (0.248 + 2.986j), rtol=1e-12)


def test_interface_matrix_reproduces_single_interface_reflection():
    # exterior response from the transfer matrix vs the classic closed form
    rn_ref, rm_ref = oracles._sphere_coefficients(1.45, 1.33, 150.0, LAM, 6)
    for pol, ref in ((transfer.TM, rn_ref), (transfer.TE, rm_ref)):
        for l in (1, 3, 6):
            m = oracles.interface_matrix(l, pol, 1.45, 1.33, 150.0, LAM)
            u = m @ np.array([1.0, 0.0])
            assert abs(u[1] / u[0] - ref[l]) <= 1e-10 * abs(ref[l])


@pytest.mark.parametrize("l_max", [60, 1000])
def test_sweeps_start_as_a_generic_crossing_of_the_unit_pairs(l_max):
    # each sweep starts from its stored unit pair, taking tau as 1 in the
    # core and the ambient: a crossing of the explicit unit pairs (1, 0)
    # outward and (0, 1) inward forms the same pair and (E_t, H_t) row, bit
    # for bit
    spheres = [model.preset(name) for name in "ABCDEF"] + [sweep.sphere_from_spec(FIVE_REGIONS)]
    pol, w = np.array([[0], [1]]), np.array([0, 1])
    for sph in spheres:
        n = sph.n_regions
        prepared = transfer.prepare(sph, [LAM, 850.0], l_max)
        prepared.reach(1, n)
        # (unit pair, source and destination regions, interface)
        for k, (src, dst, i) in enumerate(((1, 2, 1), (n, n - 1, n - 1))):
            unit = oracles.UNIT_PAIRS[k]
            want = transfer._cross(unit, prepared.entries(src, i), prepared.entries(dst, i))
            got = (
                prepared.pairs(dst, pol, w)[2 * k:2 * k + 2],
                prepared.rows(i, np.array([k == 1] * 2), pol, w),
            )
            for g, x in zip(got, want):
                for g_part, x_part in zip(g, x):
                    assert np.array_equal(g_part, x_part.reshape(g_part.shape)), (sph, k)


def test_radial_close_sweeps_only_tm_and_a_later_tangential_close_matches():
    # a radial dipole drives TM alone, so its close leaves the TE sweeps
    # where they start; a tangential close on the same prepare then extends
    # TE by itself and gives a fresh prepare's results bit for bit
    sph = sweep.sphere_from_spec(FIVE_REGIONS)
    rows = [(0.5 * sph.outer_radius_nm, LAM), (1.2 * sph.outer_radius_nm, LAM)]
    prepared = transfer.prepare(sph, [LAM], 30)
    transfer.close(prepared, rows, (model.RADIAL,))
    n = sph.n_regions
    assert prepared.top == [n, 1] and prepared.bottom == [2, n]
    later = transfer.close(prepared, rows, model.ORIENTATIONS)
    fresh = transfer.close(transfer.prepare(sph, [LAM], 30), rows, model.ORIENTATIONS)
    for name in ("g", "b_out", "q_out", "scat", "a", "b"):
        assert getattr(later, name).tobytes() == getattr(fresh, name).tobytes(), name
    assert later.fluxes(range(n)).tobytes() == fresh.fluxes(range(n)).tobytes()


def test_a_prepare_is_freed_without_the_cycle_collector():
    # a prepare holds its sweeps and no reference back to what is closed
    # against it, so once the closure and the prepare are dropped, reference
    # counting alone frees it.  A cycle would keep every prepare of a sweep
    # alive until the collector ran, and raise the peak memory of a run
    sph = model.preset("A")
    gc.disable()
    try:
        prepared = transfer.prepare(sph, [LAM], 30)
        # in the silica shell between the two gold ones: both sweeps of both
        # polarizations run
        closure = transfer.close(prepared, [(120.0, LAM)], (model.TANGENTIAL,))
        assert prepared.top == [3, 3] and prepared.bottom == [3, 3]
        spectro.evaluate_from_coefficients(closure)
        ref = weakref.ref(prepared)
        del closure, prepared
        assert ref() is None
    finally:
        gc.enable()


def test_no_contrast_sphere_has_zero_scattered_field():
    sph = model.build_sphere([(150.0, "water")], "water")
    dip = model.DipoleSource(60.0, "tangential", LAM)
    closure = transfer.solve_dipole_fields(sph, dip, 12)
    assert np.all(np.abs(closure.g) < 1e-12)
    assert np.all(np.abs(closure.scat) < 1e-12 * np.maximum(1.0, np.abs(closure.q_out)))


def test_centered_dipole_is_pure_dipole_channel():
    # at the origin only the l = 1 electric channel has a source, so every
    # amplitude vanishes above l = 1; the weights are the per-l constants
    closure = transfer.solve_dipole_fields(
        model.preset("A"), model.DipoleSource(0.0, "radial", LAM), 40
    )
    assert closure.r.tolist() == [0.0] and closure.pol.tolist() == [0]
    for x in (closure.g, closure.b_out, closure.q_out):
        assert x.shape[-1] == 40 and np.all(x[..., 1:] == 0.0) and np.all(x[..., 0] != 0.0)
    assert closure.q_out[0, 0, 0] == 1.0 / 3.0


def test_centered_dipole_no_contrast_far_field_is_free_amplitude():
    sph = model.build_sphere([(150.0, "water")], "water")
    closure = transfer.solve_dipole_fields(sph, model.DipoleSource(0.0, "radial", LAM), 5)
    assert closure.pol.tolist() == [0]
    assert np.all(closure.b_out[..., 1:] == 0.0)
    assert_allclose(closure.b_out[0, 0, 0], 1.0 / 3.0, rtol=1e-12)


def test_source_jump_between_host_states():
    # outer minus inner state in the host region is the source discontinuity
    sph = model.preset("D")
    dip = model.DipoleSource(90.0, "tangential", LAM)
    closure = transfer.solve_dipole_fields(sph, dip, 20)
    rho = closure.prepared.ctxs[0].k[0] * 90.0
    tab = riccati(20, rho)
    l = closure.prepared.ls
    for c, pol in enumerate(closure.pol):
        inner, outer = oracles.states(closure, c)[closure.host[0] - 1]
        d_reg = sm.collapse(sm.sub(outer[0], inner[0]))
        d_out = sm.collapse(sm.sub(outer[1], inner[1]))
        if transfer.POLS[pol] == transfer.TM:
            s_reg, s_out = tab.dpsi[l] / rho, tab.dxi[l] / rho
        else:
            s_reg, s_out = tab.psi[l] / rho, tab.xi[l] / rho
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
    closure = transfer.solve_dipole_fields(sph, dip, 20)
    ctx, l = closure.prepared.ctxs[0], closure.prepared.ls
    for c, pol in enumerate(closure.pol):
        states = oracles.states(closure, c)
        for i in range(1, sph.n_regions):
            # region i meets interface i on its outer side, region i+1 on its inner side
            st_in = states[i - 1][1]
            st_out = states[i][0]
            a = _tangential_pair(ctx, i, i, l, transfer.POLS[pol], st_in)
            b = _tangential_pair(ctx, i + 1, i, l, transfer.POLS[pol], st_out)
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
                closure = transfer.solve_dipole_fields(sph, dip, 60)
                ctx = closure.prepared.ctxs[0]
                assert not ctx.absorbing[0]
                for c, pol in enumerate(closure.pol):
                    flux = [closure.flux(i)[c, 0] for i in range(ctx.n_regions)]
                    scale = np.max(np.abs(flux), axis=0)
                    assert np.all(flux[0] == 0.0)
                    for j in range(1, ctx.n_regions):
                        absorbed = flux[j - 1] - flux[j]
                        if ctx.absorbing[j - 1]:
                            bad = absorbed < -1e-10 * scale
                        else:
                            bad = np.abs(absorbed) > 1e-10 * scale
                        key = (name, lam, orientation, np.flatnonzero(bad) + 1, pol, j)
                        assert not bad.any(), key


def _lossless_host_rows(prepared):
    """(r_nm, wavelength) midway through every host region that is lossless
    at each wavelength of a prepare, the ambient at 1.3 r_s."""
    radii = (0.0, *prepared.sphere.radii, 1.6 * prepared.sphere.outer_radius_nm)
    return [
        (0.5 * (radii[j] + radii[j + 1]), wl)
        for wl, ctx in zip(prepared.wavelengths, prepared.ctxs)
        for j in range(ctx.n_regions)
        if not ctx.absorbing[j]
    ]


@pytest.mark.parametrize("l_max", [60, 1000])
def test_fluxes_in_one_pass_match_each_interface_alone(l_max):
    # one pass over every interface gives each interface's flux bit for bit
    # as a pass over that interface alone, and the origin's flux is zero;
    # with rows in every lossless host, and with the first of them alone,
    # whose interfaces then all lie on one side of its host
    spheres = [model.preset(name) for name in "ABCDEF"] + [sweep.sphere_from_spec(FIVE_REGIONS)]
    for sph, first in itertools.product(spheres, (False, True)):
        prepared = transfer.prepare(sph, [LAM, 850.0], l_max)
        rows = _lossless_host_rows(prepared)[:1 if first else None]
        closure = transfer.close(prepared, rows, model.ORIENTATIONS)
        interfaces = list(range(sph.n_regions))
        fluxes = closure.fluxes(interfaces)
        assert not fluxes[0].any() and not closure.flux(0).any()
        for i in interfaces:
            want = oracles.interface_flux(closure, i)
            assert fluxes[i].tobytes() == want.tobytes(), (sph, i)
            assert closure.flux(i).tobytes() == want.tobytes(), (sph, i)


def test_homogeneous_sphere_matches_closed_form():
    sph = model.preset("D")
    ref = oracles.exterior_dipole_rates(1.45, 1.33, 150.0, LAM, 180.0, l_max=40)
    for orientation in ("radial", "tangential"):
        closure = transfer.solve_dipole_fields(
            sph, model.DipoleSource(180.0, orientation, LAM), 40
        )
        g = np.sum(1j * closure.weight * closure.g)
        assert_allclose(1 + g.imag, ref[orientation][0], rtol=1e-12)


def test_lossless_far_field_power_equals_local_rate():
    # energy conservation pins the far-field normalization
    sph = model.preset("D")
    for r_d, orientation in ((60.0, "radial"), (120.0, "tangential"), (210.0, "radial")):
        c = transfer.solve_dipole_fields(sph, model.DipoleSource(r_d, orientation, LAM), 50)
        wt = 1 + np.sum(1j * c.weight * c.g).imag
        ctx, host = c.prepared.ctxs[0], c.host[0]
        if host == ctx.n_regions:
            wrad = 1 + np.sum(c.weight * (2 * (np.conj(c.q_out) * c.scat).real + np.abs(c.scat) ** 2))
        else:
            ratio = math.sqrt(ctx.eps[host - 1].real / ctx.eps[-1].real)
            wrad = ratio * np.sum(c.weight * np.abs(c.b_out) ** 2)
        assert abs(wt - wrad) / wt < 1e-8


def test_outgoing_amplitude_tail_decays():
    for name in model.preset_names():
        sph = model.preset(name)
        for r_rs in (0.3, 1.3):
            r = r_rs * sph.outer_radius_nm
            try:
                dip = model.DipoleSource(r, "tangential", LAM)
                closure = transfer.solve_dipole_fields(sph, dip, 60)
            except Exception:
                continue
            for pol, b_out in zip(closure.pol, closure.b_out):
                tail = np.abs(b_out[0, -10:])
                assert all(a >= b for a, b in zip(tail, tail[1:])), (name, r_rs, pol)


def test_closure_failures_are_raised_in_channel_order():
    # a batch closes every (channel, row, l) at once but raises what a close
    # of its first failing row alone would raise first, with a note naming
    # that row: in it, the first failing channel in order (TM before TE),
    # its first singular order, else its first overflowing quantity, each
    # at its first order
    pol = np.array([0, 0, 1])
    shape = (3, 2, 5)
    rows = [(10.0, 595.0), (20.5, 600.0)]
    ones = np.ones(shape, dtype=complex)
    degenerate = np.zeros(shape, dtype=bool)
    named = [(ones, "g"), (ones.copy(), "ambient amplitude")]
    got = transfer._collapse_channels(pol, degenerate, named, rows)
    assert [x.tolist() for x in got] == [np.ones(shape, dtype=complex).tolist()] * 2
    degenerate[2, 1, 3] = degenerate[2, 0, 4] = True
    named[1][0][1, 1, 1] = np.inf
    with pytest.raises(DegenerateSystemError, match="l=5, pol=TE") as err:
        transfer._collapse_channels(pol, degenerate, named, rows)
    assert err.value.__notes__ == ["while evaluating row r=10 nm, lambda=595 nm"]
    degenerate[2, 0, 4] = False
    with pytest.raises(RangeError, match="ambient amplitude overflows .* at order l=2") as err:
        transfer._collapse_channels(pol, degenerate, named, rows)
    assert err.value.__notes__ == ["while evaluating row r=20.5 nm, lambda=600 nm"]


@pytest.mark.parametrize("later", [math.nan, -1.0])
def test_batched_close_raises_the_first_bad_row(later):
    # row 0 sits in preset A's inner gold shell; a later row that could not
    # even be a dipole (NaN or negative radius) must not win over it
    prepared = transfer.prepare(model.preset("A"), [LAM], 20)
    with pytest.raises(GeometryError, match="dipole host region 2 is absorbing"):
        spectro.evaluate_rows(prepared, [(94.2, LAM), (later, LAM)], ("radial",))
    with pytest.raises(GeometryError, match="dipole host region 2 is absorbing"):
        transfer.close(prepared, [(40.0, LAM), (94.2, LAM), (later, LAM)], model.ORIENTATIONS)


def test_degenerate_l_max_guard():
    with pytest.raises(Exception):
        transfer.solve_dipole_fields(
            model.preset("D"), model.DipoleSource(60.0, "radial", LAM), 0
        )
