import bisect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nanoshell import materials, model
from nanoshell.errors import DomainError, GeometryError


def test_preset_geometries():
    a = model.preset("A")
    assert a.radii == (80.0, 107.0, 135.0, 157.0)
    assert [s.material.name for s in a.shells] == ["silica", "gold", "silica", "gold"]
    c = model.preset("C")
    assert len(c.shells) == 4 and c.outer_radius_nm == 693.0
    e = model.preset("E")
    assert len(e.shells) == 1 and e.shells[0].material.name == "gold"
    d = model.preset("D")
    assert materials.refractive_index(d.ambient, 595.0) == 1.33


def test_presets_roundtrip_validation():
    for name in model.preset_names():
        sph = model.preset(name)
        rebuilt = model.build_sphere(
            [(s.outer_radius_nm, s.material) for s in sph.shells], sph.ambient
        )
        assert rebuilt.radii == sph.radii


def test_unknown_preset():
    with pytest.raises(GeometryError):
        model.preset("Z")


def test_build_sphere_valid():
    sph = model.build_sphere([(150.0, "silica")], "water")
    assert sph.n_regions == 2


def test_build_sphere_radius_order():
    with pytest.raises(GeometryError):
        model.build_sphere([(107.0, "gold"), (80.0, "silica")], "water")
    with pytest.raises(GeometryError):
        model.build_sphere([], "water")


def test_build_sphere_absorbing_ambient():
    with pytest.raises(GeometryError):
        model.build_sphere([(100.0, "silica")], materials.constant_index(1.4 + 0.2j))


def test_locate_region():
    a = model.preset("A")
    assert model.locate(a, 90.0)[0] == 2
    assert model.locate(a, 200.0)[0] == 5
    eps = np.array([materials.permittivity(a.region_material(j), 595.0) for j in range(1, 6)])
    with pytest.raises(GeometryError):
        model.check_points(a, 107.0, 595.0, lambda host: eps[host - 1])
    with pytest.raises(GeometryError):
        model.check_points(a, -1.0, 595.0, lambda host: eps[host - 1])


@given(r=st.floats(min_value=0.001, max_value=400.0))
@settings(max_examples=200, deadline=None)
def test_locate_region_matches_bisect(r):
    a = model.preset("A")
    tol = 1e-9 * a.outer_radius_nm
    if any(abs(r - R) <= tol for R in a.radii):
        return
    assert model.locate(a, r)[0] == bisect.bisect_right(a.radii, r) + 1


def test_locate_region_bulk_consistency():
    a = model.preset("A")
    rng = np.random.default_rng(3)
    rs = rng.uniform(0.0, 300.0, size=100_000)
    tol = 1e-9 * a.outer_radius_nm
    for r, host in zip(rs, model.locate(a, rs)[0]):
        if any(abs(r - R) <= tol for R in a.radii):
            continue
        assert host == bisect.bisect_right(a.radii, r) + 1


def test_dipole_source_validation():
    with pytest.raises(GeometryError):
        model.DipoleSource(-1.0, "radial", 595.0)
    with pytest.raises(DomainError):
        model.DipoleSource(1.0, "sideways", 595.0)
    with pytest.raises(DomainError):
        model.DipoleSource(1.0, "radial", -595.0)


def test_dipole_on_interface_rejected():
    a = model.preset("A")
    dip = model.DipoleSource(107.0, "radial", 595.0)
    with pytest.raises(GeometryError):
        model.validate_dipole(a, dip)


def test_dipole_in_absorbing_region_rejected():
    a = model.preset("A")
    dip = model.DipoleSource(90.0, "radial", 595.0)  # inside the inner gold shell
    with pytest.raises(GeometryError):
        model.validate_dipole(a, dip)


def test_dipole_host_regions():
    a = model.preset("A")
    assert model.validate_dipole(a, model.DipoleSource(0.0, "radial", 595.0)) == 1
    assert model.validate_dipole(a, model.DipoleSource(40.0, "radial", 595.0)) == 1
    assert model.validate_dipole(a, model.DipoleSource(120.0, "radial", 595.0)) == 3
    assert model.validate_dipole(a, model.DipoleSource(200.0, "radial", 595.0)) == 5
