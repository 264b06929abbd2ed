"""Wavelength-dependent complex optical constants.

Three material kinds: fixed complex index, tabulated dispersion with linear
interpolation in (Re n, Im n), and a size-corrected Drude metal that adds a
finite-feature-size damping term to a bulk base model.

Time convention: fields go like exp(-i omega t), so passive absorption means
Im(eps) >= 0 and outgoing waves use the first-kind Hankel functions.
Permeability is a positive real constant per material (default 1); magnetic
loss is not modeled.
"""

import cmath
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import DomainError, MaterialRangeError

C_M_PER_S = 299792458.0

# Bulk Drude parameters for gold, standard literature values: plasma
# frequency [rad/s], bulk relaxation time [s], Fermi velocity [m/s].
GOLD_DRUDE = {
    "plasma_frequency": 1.37e16,
    "bulk_relaxation_time": 9.3e-15,
    "fermi_velocity": 1.40e6,
}


@dataclass(frozen=True)
class Material:
    """Immutable optical model; query with refractive_index / permittivity."""

    kind: str  # "constant" | "tabulated" | "drude_size_corrected"
    index: complex = 0j
    table_wl: tuple = ()
    table_n: tuple = ()
    base: "Material | None" = None
    plasma_frequency: float = 0.0  # rad/s
    bulk_relaxation_time: float = 0.0  # s
    fermi_velocity: float = 0.0  # m/s
    geometry_factor: float = 1.0
    feature_size: float = 0.0  # m
    mu: float = 1.0
    name: str = ""

    def __post_init__(self):
        # mu ** 1.5 enters the rates: mu = 0 divides by zero, mu < 0 makes
        # them complex
        if not self.mu > 0:
            raise DomainError(f"permeability must be positive, got mu = {self.mu!r}")


def constant_index(n, mu=1.0, name=""):
    n = complex(n)
    if n.imag < -1e-12:
        raise DomainError(f"gain media not supported: Im n = {n.imag}")
    return Material(kind="constant", index=n, mu=float(mu), name=name)


def tabulated_index(rows, mu=1.0, name=""):
    """rows: iterable of (wavelength_nm, complex n), strictly increasing wl."""
    rows = [(float(w), complex(n)) for w, n in rows]
    for i, (w, n) in enumerate(rows, 1):
        if not (math.isfinite(w) and cmath.isfinite(n)):
            raise DomainError(f"{name or 'table'}: row {i} ({w:g} nm, n = {n}) is not finite")
    if len(rows) < 2:
        raise DomainError("dispersion table needs at least two rows")
    wl = [w for w, _ in rows]
    if any(b <= a for a, b in zip(wl, wl[1:])):
        raise DomainError("table wavelengths must be strictly increasing")
    if any(n.imag < -1e-12 for _, n in rows):
        raise DomainError("table contains gain (Im n < 0) entries")
    return Material(
        kind="tabulated",
        table_wl=tuple(wl),
        table_n=tuple(n for _, n in rows),
        mu=float(mu),
        name=name,
    )


def drude_size_corrected_material(base, feature_size_m, plasma_frequency=None,
                                  bulk_relaxation_time=None, fermi_velocity=None,
                                  geometry_factor=1.0, name=""):
    """Finite-feature-size metal: base bulk model plus modified Drude damping.

    Defaults to the gold bulk parameters in GOLD_DRUDE.
    """
    if feature_size_m <= 0:
        raise DomainError("feature size must be positive")
    return Material(
        kind="drude_size_corrected",
        base=base,
        plasma_frequency=plasma_frequency or GOLD_DRUDE["plasma_frequency"],
        bulk_relaxation_time=bulk_relaxation_time or GOLD_DRUDE["bulk_relaxation_time"],
        fermi_velocity=fermi_velocity or GOLD_DRUDE["fermi_velocity"],
        geometry_factor=geometry_factor,
        feature_size=feature_size_m,
        mu=base.mu,
        name=name or (base.name + "+size" if base.name else "size-corrected"),
    )


def load_index_table(path, mu=1.0, name=""):
    """Read a dispersion table: `wavelength_nm  n_real  n_imag` per row,
    `#` comments allowed.  A file that cannot be read, or a row that is not
    three numbers, raises DomainError naming the path (and line)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise DomainError(f"cannot read material table {path}: {reason}") from None
    rows = []
    for line_no, line in enumerate(lines, 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 3:
            raise DomainError(f"{path}:{line_no}: expected 3 columns, got {len(parts)}")
        try:
            w, nr, ni = (float(p) for p in parts)
        except ValueError:
            raise DomainError(f"{path}:{line_no}: expected 3 numbers, got {body!r}") from None
        rows.append((w, complex(nr, ni)))
    return tabulated_index(rows, mu=mu, name=name or str(path))


def omega_from_wavelength(wavelength_nm):
    """Angular frequency [rad/s] of a vacuum wavelength [nm]."""
    if wavelength_nm <= 0:
        raise DomainError("wavelength must be positive")
    return 2.0 * math.pi * C_M_PER_S / (wavelength_nm * 1e-9)


def refractive_index(material, wavelength_nm):
    """Complex refractive index n(lambda); branch with Im n >= 0."""
    if material.kind == "constant":
        return material.index
    if material.kind == "tabulated":
        wl = material.table_wl
        if not (wl[0] <= wavelength_nm <= wl[-1]):
            raise MaterialRangeError(
                f"wavelength {wavelength_nm} nm outside table range "
                f"[{wl[0]}, {wl[-1]}] nm for material {material.name or '?'}"
            )
        ns = material.table_n
        re = np.interp(wavelength_nm, wl, [n.real for n in ns])
        im = np.interp(wavelength_nm, wl, [n.imag for n in ns])
        return complex(re, im)
    if material.kind == "drude_size_corrected":
        return optical_constants(material, wavelength_nm)[0]
    raise DomainError(f"unknown material kind {material.kind!r}")


def optical_constants(material, wavelength_nm):
    """The index and the permittivity at one wavelength from one read of
    the material's model: a Drude metal's index from its permittivity,
    any other material's permittivity from its index."""
    if material.kind == "drude_size_corrected":
        eps = permittivity(material, wavelength_nm)
        n = complex(np.sqrt(complex(eps * material.mu)))
        return (-n if n.imag < 0 else n), eps
    n = refractive_index(material, wavelength_nm)
    return n, permittivity(material, wavelength_nm, n)


def permittivity(material, wavelength_nm, n=None):
    """Complex permittivity; raises on gain (Im eps < 0).  A material that
    is not a Drude metal forms it from its index ``n`` at the wavelength,
    read here unless given."""
    if material.kind == "drude_size_corrected":
        eps_b = permittivity(material.base, wavelength_nm)
        eps = size_corrected_permittivity(
            eps_b,
            omega_from_wavelength(wavelength_nm),
            material.plasma_frequency,
            material.bulk_relaxation_time,
            material.fermi_velocity,
            material.feature_size,
            material.geometry_factor,
        )
    else:
        if n is None:
            n = refractive_index(material, wavelength_nm)
        eps = n * n / material.mu
    if eps.imag < -1e-9 * abs(eps):
        raise DomainError(f"passive media only: Im eps = {eps.imag} at {wavelength_nm} nm")
    return eps


def size_corrected_permittivity(eps_b, omega, omega_p, tau_b, v_f, size, geometry_factor=1.0):
    """Replace bulk Drude damping by the feature-size-limited damping rate.

    1/tau = 1/tau_b + A v_f / S; the bulk free-electron term is removed and
    re-added with the corrected relaxation time.
    """
    if size <= 0:
        raise DomainError("feature size must be positive")
    if tau_b <= 0:
        raise DomainError("bulk relaxation time must be positive")
    if omega <= 0:
        raise DomainError("frequency must be positive")
    inv_tau = 1.0 / tau_b + geometry_factor * v_f / size
    eps = (
        eps_b
        + omega_p**2 / (omega**2 + 1j * omega / tau_b)
        - omega_p**2 / (omega**2 + 1j * omega * inv_tau)
    )
    return eps


_BUILTIN_CACHE = {}


def water():
    if "water" not in _BUILTIN_CACHE:
        _BUILTIN_CACHE["water"] = constant_index(1.33, name="water")
    return _BUILTIN_CACHE["water"]


def silica():
    if "silica" not in _BUILTIN_CACHE:
        _BUILTIN_CACHE["silica"] = constant_index(1.45, name="silica")
    return _BUILTIN_CACHE["silica"]


def gold():
    """Bundled gold dispersion table, 400-1100 nm.

    Handbook-style approximate values intended for qualitative broad-band
    sweeps; the 595 nm entry is pinned exactly to 0.248 + 2.986i so the
    benchmark geometries are table-independent.
    """
    if "gold" not in _BUILTIN_CACHE:
        ref = resources.files("nanoshell").joinpath("data/gold_n.txt")
        with resources.as_file(ref) as path:
            _BUILTIN_CACHE["gold"] = load_index_table(path, name="gold")
    return _BUILTIN_CACHE["gold"]


def material_by_name(name):
    try:
        return {"water": water, "silica": silica, "gold": gold}[name.lower()]()
    except KeyError:
        raise DomainError(f"unknown material name {name!r}") from None
