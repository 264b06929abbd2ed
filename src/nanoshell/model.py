"""Geometry and source domain model: stratified spheres, dipole sources,
the built-in benchmark geometries, and region lookup."""

import bisect
import math
from dataclasses import dataclass

from . import materials
from .errors import DomainError, GeometryError

RADIAL = "radial"
TANGENTIAL = "tangential"
ORIENTATIONS = (RADIAL, TANGENTIAL)

# relative interface-hit tolerance for dipole/region placement
INTERFACE_TOL = 1e-9


@dataclass(frozen=True)
class Shell:
    outer_radius_nm: float
    material: materials.Material


@dataclass(frozen=True)
class StratifiedSphere:
    """Concentric shells (innermost first) suspended in an ambient medium.

    Region indices are 1-based: 1..N are the shells, N+1 is the ambient.
    """

    shells: tuple
    ambient: materials.Material

    @property
    def radii(self):
        return tuple(s.outer_radius_nm for s in self.shells)

    @property
    def outer_radius_nm(self):
        return self.shells[-1].outer_radius_nm

    @property
    def n_regions(self):
        return len(self.shells) + 1

    def region_material(self, region):
        if region == len(self.shells) + 1:
            return self.ambient
        return self.shells[region - 1].material


def build_sphere(shell_spec, ambient):
    """Validate and build a sphere from [(radius_nm, material), ...]."""
    if not shell_spec:
        raise GeometryError("sphere needs at least one shell")
    shells = []
    prev = 0.0
    for r, mat in shell_spec:
        r = float(r)
        if r <= prev:
            raise GeometryError(
                f"shell radii must be positive and strictly increasing: {r} after {prev}"
            )
        if not isinstance(mat, materials.Material):
            mat = materials.material_by_name(mat)
        shells.append(Shell(r, mat))
        prev = r
    if not isinstance(ambient, materials.Material):
        ambient = materials.material_by_name(ambient)
    if ambient.kind == "constant" and abs(ambient.index.imag) > 1e-12:
        raise GeometryError("ambient medium must be lossless")
    return StratifiedSphere(shells=tuple(shells), ambient=ambient)


_PRESETS = {
    # silica/gold/silica/gold nanoshells and homogeneous comparison spheres,
    # all in water
    "A": ((80.0, "silica"), (107.0, "gold"), (135.0, "silica"), (157.0, "gold")),
    "B": ((77.0, "silica"), (102.0, "gold"), (141.0, "silica"), (145.0, "gold")),
    "C": ((396.0, "silica"), (418.0, "gold"), (654.0, "silica"), (693.0, "gold")),
    "D": ((150.0, "silica"),),
    "E": ((693.0, "gold"),),
    "F": ((150.0, "gold"),),
}


def preset(name):
    """One of the built-in benchmark spheres A..F (in water)."""
    key = str(name).upper()
    if key not in _PRESETS:
        raise GeometryError(f"unknown preset {name!r}; choose one of {sorted(_PRESETS)}")
    return build_sphere(_PRESETS[key], materials.water())


def preset_names():
    return tuple(sorted(_PRESETS))


def locate_region(sphere, r_nm):
    """1-based index of the region containing radius r; N+1 is the ambient.

    Radii sitting on an interface are rejected: the macroscopic fields are
    discontinuous there and callers must offset.
    """
    if r_nm < 0:
        raise GeometryError(f"negative radius {r_nm}")
    tol = INTERFACE_TOL * sphere.outer_radius_nm
    radii = sphere.radii
    for R in radii:
        if abs(r_nm - R) <= tol:
            raise GeometryError(f"radius {r_nm} nm sits on the interface at {R} nm")
    return bisect.bisect_right(radii, r_nm) + 1


@dataclass(frozen=True)
class DipoleSource:
    """Point dipole on the radial axis: position [nm], orientation
    ('radial' or 'tangential'), vacuum wavelength [nm].

    The transition dipole magnitude cancels in every normalized output and
    is not carried.
    """

    radial_position_nm: float
    orientation: str
    wavelength_nm: float

    def __post_init__(self):
        if not (math.isfinite(self.radial_position_nm) and math.isfinite(self.wavelength_nm)):
            raise DomainError(
                f"dipole radius and wavelength must be finite, got "
                f"{self.radial_position_nm!r} nm and {self.wavelength_nm!r} nm"
            )
        if self.radial_position_nm < 0:
            raise GeometryError("dipole radius must be >= 0")
        if self.orientation not in ORIENTATIONS:
            raise DomainError(
                f"orientation must be one of {ORIENTATIONS}, got {self.orientation!r}"
            )
        if self.wavelength_nm <= 0:
            raise DomainError("wavelength must be positive")


def absorbs(eps):
    """Whether a medium of complex permittivity eps (a number or an array)
    absorbs; it is then an Ohmic shell, and no emitter host."""
    return eps.imag > 1e-12


def no_host(eps):
    """Whether a medium of complex permittivity eps (a number or an array)
    cannot host an emitter: it absorbs, or it is lossless with Re eps <= 0
    and carries no propagating wave.  Either way the rate in the unbounded
    medium, which normalizes every output, is undefined there."""
    return absorbs(eps) | (eps.real <= 0)


def region_no_host(sphere, region, wavelength_nm):
    """Whether a region cannot host an emitter at the wavelength (see
    :func:`no_host`)."""
    return no_host(materials.permittivity(sphere.region_material(region), wavelength_nm))


def validate_dipole(sphere, dipole):
    """Host region of the dipole; rejects interface hits and hosts that
    absorb or carry no propagating wave.

    The normalization (free-space rate in the medium at the dipole position)
    only makes sense in a lossless host with Re eps > 0, so emitters
    elsewhere are rejected.
    """
    if dipole.radial_position_nm == 0.0:
        region = 1
    else:
        region = locate_region(sphere, dipole.radial_position_nm)
    if region_no_host(sphere, region, dipole.wavelength_nm):
        raise GeometryError(
            f"dipole host region {region} is absorbing, or lossless with Re eps <= 0, "
            f"at {dipole.wavelength_nm} nm; rate normalization is undefined there"
        )
    return region


@dataclass(frozen=True)
class SpectroResult:
    """Normalized spectroscopic outputs for one (sphere, dipole) query.

    All rates are normalized to the radiative rate of the same dipole in an
    unbounded medium equal to the one at the dipole position; the shift is
    in the same units (negative = red).
    """

    shift_norm: float
    wt_norm: float
    wrad_norm: float
    wohm_norm: float
    fluorescence_yield: float
    photostability: float
    l_used: int
    converged: bool
    wt_spread: float
    wrad_spread: float
    wohm_spread: float
    shift_tail: float
    quad_rel_err: float
    orientation: str


def interface_margin_nm(sphere, r_nm, absorbing_only=False, wavelength_nm=None):
    """Distance from r to the nearest interface; optionally only interfaces
    touching an absorbing region."""
    best = math.inf
    for i, R in enumerate(sphere.radii):
        if absorbing_only:
            eps_in = materials.permittivity(sphere.region_material(i + 1), wavelength_nm)
            eps_out = materials.permittivity(sphere.region_material(i + 2), wavelength_nm)
            if not (absorbs(eps_in) or absorbs(eps_out)):
                continue
        best = min(best, abs(r_nm - R))
    return best
