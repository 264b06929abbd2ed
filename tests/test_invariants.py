"""Metamorphic invariants of the multi-shell solve.

Each property compares the engine with itself on two spheres that physics
says must agree, so an error the interface rows and the flux share cannot
hide behind self-consistency:

* splitting: a region split into two of the same material leaves every
  output of every row unchanged;
* duality: swapping eps and mu in every region of a lossless sphere keeps
  each index n, and maps the tangential TE channel of the sphere onto the
  radial TM channel of its dual (Jackson, Classical Electrodynamics, 3rd
  ed., section 6.11): per order, g_TE = rho^2 g_TM and the flux through
  every interface agrees up to the same factor, with rho = k r in the host;
* scale: every radius and the wavelength scaled by one factor, with
  constant-index materials, leave every normalized output unchanged.

Each bound is the worst relative deviation measured over many drawn cases
of the composed-interface solve, with the headroom stated beside it.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from nanoshell import materials, model, spectro, transfer

L_MAX = 30
_FIELDS = ("wt_norm", "wrad_norm", "wohm_norm", "shift_norm")

# worst deviation over 3,400 drawn cases: 2.7e-14 (splitting), 1.6e-13
# (scale), 5.7e-14 (duality: g) and 4.8e-14 (duality: fluxes); each bound
# is about 100x its worst case
SPLIT_RTOL = 3e-12
SCALE_RTOL = 2e-11
DUAL_RTOL = 6e-12


@st.composite
def spheres(draw, lossy=True, magnetic=False):
    """Shell radii [nm], (n, mu) per region with the ambient last."""
    n_shells = draw(st.integers(min_value=1, max_value=3))
    edges = sorted(draw(st.lists(st.floats(30.0, 400.0), min_size=n_shells,
                                 max_size=n_shells, unique=True)))
    if min(np.diff([0.0, *edges])) < 5.0:
        edges = [30.0 + 60.0 * k for k in range(1, n_shells + 1)]
    media = []
    for _ in range(n_shells + 1):
        n = complex(draw(st.floats(1.2, 2.5)))
        if media and abs(n - media[-1][0]) < 0.1:  # keep every interface a contrast
            n += 0.3
        if lossy and len(media) < n_shells and draw(st.booleans()):
            n = complex(draw(st.floats(0.2, 0.6)), draw(st.floats(1.5, 3.5)))
        mu = draw(st.floats(0.5, 2.0)) if magnetic else 1.0
        media.append((n, mu))
    return edges, media


def _build(edges, media):
    mats = [materials.constant_index(n, mu) for n, mu in media]
    return model.build_sphere(list(zip(edges, mats[:-1])), mats[-1])


def _rows(sphere, wavelength_nm):
    """A radius midway through every lossless shell, and 1.3 r_s in the
    ambient."""
    absorbing = transfer.layer_context(sphere, [wavelength_nm]).absorbing[:, 0]
    edges = (0.0, *sphere.radii)
    mid = [0.5 * (a + b) for a, b, lossy in zip(edges, edges[1:], absorbing) if not lossy]
    return mid + [1.3 * sphere.outer_radius_nm]


def _outputs(sphere, radii, wavelength_nm):
    prepared = transfer.prepare(sphere, [wavelength_nm], L_MAX)
    res = spectro.evaluate_rows(prepared, [(r, wavelength_nm) for r in radii],
                                model.ORIENTATIONS)
    return np.array([[[getattr(row[o], f) for f in _FIELDS] for o in model.ORIENTATIONS]
                     for row in res])


def _deviation(got, want):
    """Largest |got - want| / max(|want|, wt) over rows, orientations and fields."""
    scale = np.maximum(np.abs(want), np.abs(want[..., :1]))
    return float(np.max(np.abs(got - want) / scale))


@given(sphere=spheres(), region=st.data(), at=st.sampled_from([0.2, 0.3, 0.7, 0.8]),
       wavelength_nm=st.floats(450.0, 900.0))
@settings(max_examples=60, deadline=None)
def test_splitting_a_region_changes_no_output(sphere, region, at, wavelength_nm):
    edges, media = sphere
    j = region.draw(st.integers(min_value=0, max_value=len(edges) - 1))
    inner = edges[j - 1] if j else 0.0
    split = inner + at * (edges[j] - inner)
    whole = _build(edges, media)
    halves = _build(edges[:j] + [split] + edges[j:], media[:j] + [media[j]] + media[j:])
    radii = _rows(whole, wavelength_nm)
    assert _deviation(_outputs(halves, radii, wavelength_nm),
                      _outputs(whole, radii, wavelength_nm)) < SPLIT_RTOL


@given(sphere=spheres(), factor=st.floats(0.5, 2.0), wavelength_nm=st.floats(450.0, 900.0))
@settings(max_examples=60, deadline=None)
def test_scaling_radii_and_wavelength_changes_no_output(sphere, factor, wavelength_nm):
    edges, media = sphere
    base = _build(edges, media)
    scaled = _build([factor * r for r in edges], media)
    radii = _rows(base, wavelength_nm)
    got = _outputs(scaled, [factor * r for r in radii], factor * wavelength_nm)
    assert _deviation(got, _outputs(base, radii, wavelength_nm)) < SCALE_RTOL


@given(sphere=spheres(lossy=False, magnetic=True), wavelength_nm=st.floats(450.0, 900.0))
@settings(max_examples=60, deadline=None)
def test_duality_maps_tangential_te_onto_radial_tm(sphere, wavelength_nm):
    edges, media = sphere
    dual_media = [(n, (n * n).real / mu) for n, mu in media]
    s, dual = _build(edges, media), _build(edges, dual_media)
    radii = _rows(s, wavelength_nm)
    rows = [(r, wavelength_nm) for r in radii]
    te = transfer.close(transfer.prepare(s, [wavelength_nm], L_MAX), rows, (model.TANGENTIAL,))
    tm = transfer.close(transfer.prepare(dual, [wavelength_nm], L_MAX), rows, (model.RADIAL,))
    assert te.pol[te.te] == 1 and tm.pol.tolist() == [0]
    rho = te.prepared.k[te.host - 1, te.w] * np.array(radii)
    rho2 = (rho * rho)[:, None]
    g_te, g_tm = te.g[te.te], rho2 * tm.g[0]
    assert np.max(np.abs(g_te - g_tm) / np.abs(g_tm).max(axis=-1, keepdims=True)) < DUAL_RTOL
    # above its dipole a channel's flux through every interface is its
    # radiated power; below it, in lossless regions, zero
    above = np.arange(1, len(edges) + 1)[:, None] >= te.host
    interfaces = list(range(1, len(edges) + 1))
    n_h = np.array([n for n, _ in media])[te.host - 1].real
    mu_h = np.array([mu for _, mu in media])[te.host - 1]
    f_te = te.fluxes(interfaces)[:, te.te][above]
    f_tm = (np.abs(rho2) * (n_h / mu_h)[:, None] ** 2 * tm.fluxes(interfaces)[:, 0])[above]
    assert np.max(np.abs(f_te - f_tm) / np.abs(f_tm).max(axis=-1, keepdims=True)) < DUAL_RTOL
