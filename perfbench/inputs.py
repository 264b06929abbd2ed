"""Seeded inputs of the three benchmark workloads.

Every workload is a list of sweeps, each a `nanoshell run` config plus the
points it evaluates.  Points are drawn by stratified sampling: each stratum
(a lossless host region, or its part near / far from a metal interface, or a
band of the gold table) gets a fixed number of points, one uniform draw per
equal-width bin.  So the seed moves the points but not the count per region
or the share near metal, and runs with different seeds do the same amount of
work of the same kind.

Radii are drawn only inside lossless host regions and at least
`EDGE_MARGIN` r/r_s from every interface (the sweep's own exclusion margin is
0.001 r_s); wavelengths only inside the gold table.  The metal workloads use
explicit grids because the default grid runs into the gold shells and aborts
on an absorbing host (ROADMAP item 4), which is an input-validation defect,
not a workload.
"""

import functools
from dataclasses import dataclass

import numpy as np

from nanoshell import materials, model, sweep

WORKLOADS = ("radial-lossless", "radial-metal", "spectrum")

RADIAL_WAVELENGTH_NM = 595.0
GRID_MAX = sweep.DEFAULT_GRID_MAX
EDGE_MARGIN = 0.0015
NEAR_METAL = 0.2  # r/r_s; the l = 60 series still grows this close to gold
GOLD_BAND_NM = (400.0, 1100.0)
ORIENTATIONS = [model.RADIAL, model.TANGENTIAL, "average"]
WORKERS = {"radial-lossless": 2, "radial-metal": 1, "spectrum": 1}

@dataclass
class Sweep:
    """One `nanoshell run` config and the facts later claims depend on."""

    label: str
    config: dict  # without "out" and "workers"
    points: list  # r/r_s (radial sweeps) or wavelengths [nm]
    strata: list  # stratum name per point
    near_metal: list  # per point: within NEAR_METAL r/r_s of a metal interface

    @functools.cached_property
    def sphere(self):
        return sweep.sphere_from_spec(self.config["sphere"])

    def query(self, i):
        """(r_nm, wavelength_nm) of point i."""
        rs = self.sphere.outer_radius_nm
        if self.config["sweep"] == "radial":
            return self.points[i] * rs, self.config["wavelength_nm"]
        return self.config["r_over_rs"] * rs, self.points[i]


@dataclass
class Workload:
    name: str
    seed: int
    workers: int
    sweeps: list
    # every (sweep index, point index, radial or tangential), seeded order
    latency_queries: list
    scale: float = 1.0

    @property
    def n_points(self):
        return sum(len(s.points) for s in self.sweeps)


def _bins(rng, lo, hi, n):
    """n sorted draws, one uniform draw in each of n equal bins of [lo, hi]."""
    edges = np.linspace(lo, hi, n + 1)
    return [float(a + rng.random() * (b - a)) for a, b in zip(edges, edges[1:])]


def _metal_distance(sphere, g, wavelength_nm):
    rs = sphere.outer_radius_nm
    return model.interface_margin_nm(sphere, g * rs, True, wavelength_nm) / rs


def _lossless_strata(sphere, wavelength_nm, split_near):
    """[(name, lo, hi)] in r/r_s: every lossless region, trimmed by the edge
    margin; with split_near, cut into the part within NEAR_METAL of a metal
    interface and the rest."""
    rs = sphere.outer_radius_nm
    edges = [0.0] + [R / rs for R in sphere.radii] + [GRID_MAX]
    out = []
    for region in range(1, sphere.n_regions + 1):
        n = materials.refractive_index(sphere.region_material(region), wavelength_nm)
        if abs(n.imag) > 0:
            continue
        lo = edges[region - 1] + (EDGE_MARGIN if region > 1 else 0.0)
        hi = edges[region] - (EDGE_MARGIN if region < sphere.n_regions else 0.0)
        name = "ambient" if region == sphere.n_regions else f"region{region}"
        if not split_near:
            out.append((name, lo, hi))
            continue
        metal_lo = region > 1 and _metal_distance(
            sphere, edges[region - 1], wavelength_nm) < 1e-9
        metal_hi = region < sphere.n_regions and _metal_distance(
            sphere, edges[region], wavelength_nm) < 1e-9
        far_lo = edges[region - 1] + NEAR_METAL if metal_lo else lo
        far_hi = edges[region] - NEAR_METAL if metal_hi else hi
        if far_lo >= far_hi:
            out.append((f"{name}-near", lo, hi))
            continue
        if far_lo > lo:
            out.append((f"{name}-near", lo, far_lo))
        out.append((f"{name}-far", far_lo, far_hi))
        if far_hi < hi:
            out.append((f"{name}-near", far_hi, hi))
    return out


def _radial_sweep(rng, label, spec, counts, split_near):
    """counts: points per stratum name (strata sharing a name share them)."""
    sphere = sweep.sphere_from_spec(spec)
    strata = _lossless_strata(sphere, RADIAL_WAVELENGTH_NM, split_near)
    points, names = [], []
    for name, n in counts.items():
        parts = [(lo, hi) for s, lo, hi in strata if s == name]
        if not parts:
            raise ValueError(f"{label} has no stratum {name!r}")
        # spread the stratum's points over its parts in proportion to width
        widths = np.array([hi - lo for lo, hi in parts])
        cuts = np.cumsum(widths) / widths.sum()
        for u in _bins(rng, 0.0, 1.0, n):
            k = int(np.searchsorted(cuts, u, side="right"))
            k = min(k, len(parts) - 1)
            before = cuts[k - 1] if k else 0.0
            lo, hi = parts[k]
            points.append(lo + (u - before) / (cuts[k] - before) * (hi - lo))
            names.append(name)
    order = np.argsort(points, kind="stable")
    points = [float(points[i]) for i in order]
    names = [names[i] for i in order]
    config = {
        "sphere": spec,
        "sweep": "radial",
        "wavelength_nm": RADIAL_WAVELENGTH_NM,
        "grid": points,
        "orientations": ORIENTATIONS,
    }
    near = [_metal_distance(sphere, g, RADIAL_WAVELENGTH_NM) < NEAR_METAL for g in points]
    return Sweep(label, config, points, names, near)


def _four_shell_spec(rng):
    """Constant-index dielectric shells in water; every shell at least
    0.12 r_s thick so each region has room for its points."""
    rs = float(rng.uniform(100.0, 200.0))
    while True:
        cuts = np.sort(rng.uniform(0.12, 0.88, 3))
        if np.all(np.diff(np.concatenate([[0.0], cuts, [1.0]])) >= 0.12):
            break
    radii = [float(c * rs) for c in cuts] + [rs]
    indices = rng.uniform(1.35, 2.3, 4)
    return {
        "shells": [[round(r, 6), {"n": [round(float(n), 6), 0.0]}]
                   for r, n in zip(radii, indices)],
        "ambient": "water",
    }


def _spectrum_sweep(rng, label, preset, stratum, n_wavelengths):
    sphere = model.preset(preset)
    parts = [(lo, hi) for s, lo, hi in _lossless_strata(sphere, RADIAL_WAVELENGTH_NM, True)
             if s.endswith(stratum)]
    widths = np.array([hi - lo for lo, hi in parts])
    k = int(rng.choice(len(parts), p=widths / widths.sum()))
    lo, hi = parts[k]
    g = float(lo + rng.random() * (hi - lo))
    wavelengths = _bins(rng, *GOLD_BAND_NM, n_wavelengths)
    config = {
        "sphere": preset,
        "sweep": "wavelength",
        "r_over_rs": g,
        "wavelengths_nm": wavelengths,
        "orientations": ORIENTATIONS,
    }
    near = [_metal_distance(sphere, g, wl) < NEAR_METAL for wl in wavelengths]
    return Sweep(label, config, wavelengths, [f"{stratum}"] * n_wavelengths, near)


# points per stratum at full size; `scale` shrinks them for the self-test
_METAL_COUNTS = {"region1-far": 2, "region1-near": 1, "region3-near": 2,
                 "ambient-near": 1, "ambient-far": 2}


def _counts(counts, scale):
    return {k: max(1, round(v * scale)) for k, v in counts.items()}


def generate(name, seed, scale=1.0):
    """The workload's sweeps and latency queries, a pure function of seed."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose one of {WORKLOADS}")
    rng = np.random.default_rng([WORKLOADS.index(name), seed])
    if name == "radial-lossless":
        sweeps = [
            _radial_sweep(rng, "D", "D", _counts({"region1": 20, "ambient": 20}, scale), False),
            _radial_sweep(
                rng, "shell4", _four_shell_spec(rng),
                _counts({"region1": 3, "region2": 3, "region3": 3, "region4": 3,
                         "ambient": 6}, scale),
                False,
            ),
        ]
    elif name == "radial-metal":
        sweeps = [
            _radial_sweep(rng, p, p, _counts(_METAL_COUNTS, scale), True) for p in "AC"
        ]
    else:
        n_pos = max(1, round(2 * scale))
        sweeps = [
            _spectrum_sweep(rng, f"{p}-{band}{k}", p, band, 2)
            for p in "AC" for band in ("near", "far") for k in range(n_pos)
        ]
    pairs = [(i, j, o) for i, s in enumerate(sweeps) for j in range(len(s.points))
             for o in model.ORIENTATIONS]
    latency = [pairs[k] for k in rng.permutation(len(pairs))]
    return Workload(name, seed, WORKERS[name], sweeps, latency, scale)


def validate(workload):
    """Every point through model.validate_dipole and the sweep's own grid
    check, before anything is timed; raises on the first bad point."""
    for s in workload.sweeps:
        cfg = sweep.config_from_dict(s.config)
        sphere = s.sphere
        if cfg.sweep == "radial":
            sweep.resolve_grid(cfg, sphere)
        for i in range(len(s.points)):
            r_nm, wl = s.query(i)
            for o in model.ORIENTATIONS:
                model.validate_dipole(sphere, model.DipoleSource(r_nm, o, wl))


def properties(workload):
    """Input facts that later claims depend on."""
    strata = {}
    near = 0
    for s in workload.sweeps:
        for name, is_near in zip(s.strata, s.near_metal):
            key = f"{s.label}:{name}"
            strata[key] = strata.get(key, 0) + 1
            near += is_near
    n = workload.n_points
    return {
        "points": n,
        "rows": n * len(ORIENTATIONS),
        "sweeps": [s.label for s in workload.sweeps],
        "share_per_stratum": {k: round(v / n, 4) for k, v in strata.items()},
        "share_near_metal": round(near / n, 4),
        "workers": workload.workers,
        "latency_queries": len(workload.latency_queries),
    }
