
import numpy as np
import pytest
from numpy.testing import assert_allclose

from nanoshell import materials
from nanoshell.errors import DomainError, MaterialRangeError

OMEGA_595 = materials.omega_from_wavelength(595.0)


def test_gold_pinned_at_595():
    n = materials.refractive_index(materials.gold(), 595.0)
    assert n == 0.248 + 2.986j
    eps = materials.permittivity(materials.gold(), 595.0)
    assert_allclose(eps, (0.248 + 2.986j) ** 2, rtol=1e-14)
    assert_allclose(eps, -8.854692 + 1.481056j, atol=1e-6)


def test_silica_and_water():
    assert materials.permittivity(materials.silica(), 700.0) == pytest.approx(1.45**2)
    assert materials.refractive_index(materials.water(), 450.0) == 1.33


def test_gold_out_of_table_raises():
    with pytest.raises(MaterialRangeError):
        materials.refractive_index(materials.gold(), 350.0)
    with pytest.raises(MaterialRangeError):
        materials.permittivity(materials.gold(), 1200.0)


def test_table_interpolation_exact_at_nodes_linear_between(tmp_path):
    path = tmp_path / "nk.txt"
    path.write_text(
        "# test dispersion\n"
        "500 1.0 0.1\n"
        "600 1.2 0.3\n"
        "700 1.1 0.2  # inline comment\n"
    )
    m = materials.load_index_table(path)
    assert materials.refractive_index(m, 600.0) == 1.2 + 0.3j
    assert materials.refractive_index(m, 550.0) == pytest.approx(1.1 + 0.2j)
    assert materials.refractive_index(m, 650.0) == pytest.approx(1.15 + 0.25j)


def test_table_requires_increasing_wavelengths():
    with pytest.raises(DomainError):
        materials.tabulated_index([(600.0, 1.0), (500.0, 1.1)])


@pytest.mark.parametrize("row", [(600.0, complex("nan")), (600.0, complex("inf")),
                                 (float("nan"), 1.2), (float("inf"), 1.2)])
def test_table_rejects_non_finite_rows(row):
    with pytest.raises(DomainError, match=r"^nk.txt: row 2 \(.*\) is not finite$"):
        materials.tabulated_index([(500.0, 1.1), row, (700.0, 1.3)], name="nk.txt")


def test_gain_rejected():
    with pytest.raises(DomainError):
        materials.constant_index(1.5 - 0.2j)


def test_size_correction_noop_cases():
    eps_b = -8.85 + 1.48j
    # A = 0 removes the correction exactly
    eps = materials.size_corrected_permittivity(
        eps_b, OMEGA_595, 1.37e16, 9.3e-15, 1.4e6, 10e-9, geometry_factor=0.0
    )
    assert eps == eps_b
    # feature size so large the damping change is below machine epsilon
    eps = materials.size_corrected_permittivity(
        eps_b, OMEGA_595, 1.37e16, 9.3e-15, 1.4e6, 1e6
    )
    assert abs(eps - eps_b) / abs(eps_b) < 1e-12


def test_size_correction_increases_absorption():
    eps_b = materials.permittivity(materials.gold(), 595.0)
    eps = materials.size_corrected_permittivity(
        eps_b, OMEGA_595, 1.37e16, 9.3e-15, 1.4e6, 5e-9, geometry_factor=1.0
    )
    assert eps.imag > eps_b.imag


def test_size_correction_monotone_and_continuous_in_s():
    eps_b = materials.permittivity(materials.gold(), 595.0)
    sizes = np.logspace(-9, -6, 40)
    ims = [
        materials.size_corrected_permittivity(
            eps_b, OMEGA_595, 1.37e16, 9.3e-15, 1.4e6, float(s)
        ).imag
        for s in sizes
    ]
    assert all(a > b for a, b in zip(ims, ims[1:]))  # Im eps grows as S shrinks
    jumps = np.abs(np.diff(ims)) / np.abs(ims[:-1])
    assert jumps.max() < 1.0


def test_size_correction_bad_inputs():
    with pytest.raises(DomainError):
        materials.size_corrected_permittivity(1.0, OMEGA_595, 1e16, 9e-15, 1e6, -1e-9)
    with pytest.raises(DomainError):
        materials.size_corrected_permittivity(1.0, OMEGA_595, 1e16, 0.0, 1e6, 1e-9)


def test_drude_material_wrapper():
    gold5 = materials.drude_size_corrected_material(materials.gold(), 5e-9)
    eps = materials.permittivity(gold5, 595.0)
    assert eps.imag > materials.permittivity(materials.gold(), 595.0).imag
    n = materials.refractive_index(gold5, 595.0)
    assert n.imag > 0
