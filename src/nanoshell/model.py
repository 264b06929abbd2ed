"""Geometry and source domain model: stratified spheres, dipole sources,
the built-in benchmark geometries, and the one check of emitter points."""

import math
from collections import namedtuple
from dataclasses import dataclass, make_dataclass
from typing import NamedTuple

import numpy as np

from . import materials
from .errors import ConfigError, DomainError, GeometryError

RADIAL = "radial"
TANGENTIAL = "tangential"
ORIENTATIONS = (RADIAL, TANGENTIAL)

# relative interface-hit tolerance for dipole/region placement
INTERFACE_TOL = 1e-9


class Integer(NamedTuple):
    """An integer, not a bool, in lo..hi (unbounded above without ``hi``)."""
    lo: int
    hi: int | None = None

    def __str__(self):
        bound = f">= {self.lo}" if self.hi is None else f"in {self.lo}..{self.hi}"
        return "an integer " + bound

    def check(self, key, value):
        if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
                or value < self.lo or (self.hi is not None and value > self.hi)):
            raise ConfigError(f"{key} must be {self}, got {value!r}")
        return int(value)


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


def locate(sphere, r_nm):
    """Host region of each radius r_nm [nm] (an array), 1-based with the
    origin in region 1 and N+1 the ambient, and its distance to each
    interface, as a (point, interface) array."""
    r = np.asarray(r_nm, dtype=float)
    radii = np.array(sphere.radii)
    return np.searchsorted(radii, r, "right") + 1, np.abs(r[..., None] - radii)


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


def check_points(sphere, r_nm, wavelength_nm, host_eps, grid=None, margin=0.0):
    """Host region and interface distances (see :func:`locate`) of emitter
    points at radii r_nm [nm] and wavelengths wavelength_nm [nm], broadcast
    together, once every point is checked; the first bad point raises.

    A point is bad when its radius or wavelength is not finite, its radius
    is negative or its wavelength not positive, it lies within
    INTERFACE_TOL r_s of an interface, or its host cannot host an emitter
    at its wavelength (:func:`no_host`), with the permittivities
    ``host_eps(host)`` the caller has read.  Sweep points come with
    ``grid``, their r/r_s values, which word their errors: off the origin
    they are also bad within ``margin`` r_s of an interface.
    """
    r, wl = np.broadcast_arrays(np.atleast_1d(np.asarray(r_nm, dtype=float)),
                                np.asarray(wavelength_nm, dtype=float))
    host, dist = locate(sphere, r)
    tol = INTERFACE_TOL * sphere.outer_radius_nm
    off = r != 0.0
    hit = off & (dist <= tol).any(axis=-1)
    near = off & (dist < margin * sphere.outer_radius_nm).any(axis=-1)
    bad = ~(np.isfinite(r) & np.isfinite(wl) & (wl > 0.0)) | (r < 0.0) | hit | near
    bad |= no_host(host_eps(host))
    if not bad.any():
        return host, dist
    n = int(np.argmax(bad))
    if grid is not None and r[n] < 0.0:
        raise ConfigError(f"grid point {grid[n]} is negative")
    DipoleSource(float(r[n]), RADIAL, float(wl[n]))  # raises for a bad radius or wavelength
    if near[n]:
        raise ConfigError(
            f"grid point r/r_s = {grid[n]} violates the interface-exclusion margin of "
            f"{margin} * r_s"
        )
    if hit[n]:
        R = sphere.radii[int(np.argmax(dist[n] <= tol))]
        raise GeometryError(f"radius {float(r[n])} nm sits on the interface at {R} nm")
    raise GeometryError(
        f"dipole host region {host[n]} is absorbing, or lossless with Re eps <= 0, "
        f"at {float(wl[n])} nm; rate normalization is undefined there"
    )


def validate_dipole(sphere, dipole):
    """Host region of the dipole, checked as :func:`check_points` checks a
    point, with the permittivity of that region read here."""
    r, wl = dipole.radial_position_nm, dipole.wavelength_nm
    eps = materials.permittivity(sphere.region_material(int(locate(sphere, r)[0])), wl)
    return int(check_points(sphere, r, wl, lambda host: eps)[0][0])


# Every output, in CSV column order: its SpectroResult field (None for a
# column the row's point gives), CSV column and plot-file stem (None for
# none), format, kind and meaning.  Kinds: "point", a CSV column that places
# the row; "csv", a CSV column; "diagnostics", a convergence diagnostic and
# "result", any other result field, neither in the CSV.  W_h is the radiative
# rate of the same dipole in an unbounded medium equal to the one at its
# position.  README's output table is this table rendered (a test compares)
Output = namedtuple("Output", "field csv plot fmt kind meaning")
BOOL, _G = "true/false", "%.12g"  # a bool is written as either word
OUTPUTS = (
    Output(None, "r_over_rs", None, _G, "point", "dipole radius / the outer radius r_s"),
    Output(None, "wavelength_nm", None, _G, "point", "vacuum wavelength [nm]"),
    Output("orientation", "orientation", None, "%s", "point", "radial, tangential or average"),
    Output("shift_norm", "shift_norm", "shift", _G, "csv", "frequency shift / W_h, < 0 is red"),
    Output("wt_norm", "wt_norm", "wt", _G, "csv", "total decay rate / W_h"),
    Output("wrad_norm", "wrad_norm", "wrad", _G, "csv", "radiative decay rate / W_h"),
    Output("wohm_norm", "wohm_norm", "wohm", _G, "csv", "Ohmic (absorption) rate / W_h"),
    Output("fluorescence_yield", "yield", "yield", _G, "csv",
           "wrad / wt: an upper bound, as only the Ohmic nonradiative channel is modeled"),
    Output("photostability", "photostability", "photostability", _G, "csv",
           "photons detected before photobleaching / the free emitter's; = wrad_norm"),
    Output("l_used", "l_used", None, "%d", "csv", "highest multipole order summed, l_max"),
    Output("converged", "converged", None, BOOL, "csv",
           "every series settled by l_max, and no absorbing interface within 0.005 r_s"),
    Output("wt_spread", "wt_spread", None, _G, "diagnostics",
           "relative spread of wt's last 10 partial sums"),
    Output("wrad_spread", "wrad_spread", None, _G, "diagnostics",
           "relative spread of wrad's last 10 partial sums"),
    Output("wohm_spread", "wohm_spread", None, _G, "diagnostics",
           "relative spread of wohm's last 10 partial sums"),
    Output("shift_tail", "shift_tail", None, _G, "diagnostics",
           "geometric estimate of the shift's truncated tail / W_h"),
    Output("quad_rel_err", None, None, _G, "result",
           "always 0.0, kept for older callers: the Ohmic rate is no quadrature"),
)

# a result holds the outputs with a field, its orientation last
SpectroResult = make_dataclass("SpectroResult", [
    (o.field, {_G: float, "%d": int, "%s": str, BOOL: bool}[o.fmt])
    for o in sorted(OUTPUTS, key=lambda o: o.kind == "point") if o.field], frozen=True,
    namespace={"__module__": __name__, "__doc__": "The outputs of one query (OUTPUTS)."})

# each plotted quantity's short name, in plot files and benchmark entries
QUANTITIES = {o.plot: o.field for o in OUTPUTS if o.plot}


def interface_margin_nm(sphere, r_nm, absorbing_only=False, wavelength_nm=None):
    """Distance from r to the nearest interface; optionally only interfaces
    touching an absorbing region."""
    dist = locate(sphere, r_nm)[1]
    if absorbing_only:
        a = [absorbs(materials.permittivity(sphere.region_material(j), wavelength_nm))
             for j in range(1, sphere.n_regions + 1)]
        dist = dist[np.logical_or(a[:-1], a[1:])]
    return float(dist.min(initial=math.inf))
