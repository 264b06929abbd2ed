"""Sweep runner: radial and wavelength scans with deterministic CSV output.

Rows are evaluated independently (optionally in a process pool) and written
in declared order, so output bytes are identical across runs and across
worker counts.  Output is only written once the whole sweep has succeeded.
"""

import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import materials, model, spectro, transfer
from .errors import ConfigError, DomainError, NanoshellError, annotate

CSV_COLUMNS = (
    "r_over_rs",
    "wavelength_nm",
    "orientation",
    "shift_norm",
    "wt_norm",
    "wrad_norm",
    "wohm_norm",
    "yield",
    "photostability",
    "l_used",
    "converged",
)

DEFAULT_GRID_POINTS = 401
DEFAULT_GRID_MAX = 2.01
DEFAULT_ORIENTATIONS = (model.RADIAL, model.TANGENTIAL, "average")

# grid points closer than this (times outer radius) to an interface are
# nudged outward by NUDGE_FRACTION
MARGIN_FRACTION = 0.001
NUDGE_FRACTION = 0.005


@dataclass(frozen=True)
class SweepConfig:
    sphere_spec: object  # preset name or {"shells": ..., "ambient": ...}
    sweep: str = "radial"
    wavelength_nm: float = 595.0
    grid: object = "default"
    orientations: tuple = DEFAULT_ORIENTATIONS
    r_over_rs: float | None = None
    wavelengths_nm: tuple = ()
    l_max: int = 60
    interface_margin: float = MARGIN_FRACTION
    out: str | None = None
    format: str = "csv"
    plot_dir: str | None = None
    workers: int = 1


_CONFIG_KEYS = {
    "sphere",
    "sweep",
    "wavelength_nm",
    "grid",
    "orientations",
    "r_over_rs",
    "wavelengths_nm",
    "orientation",
    "l_max",
    "quadrature_rtol",
    "interface_margin",
    "out",
    "format",
    "plot_dir",
    "workers",
}


def config_from_dict(raw):
    """Validate a JSON-shaped dict; unknown keys are errors."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    sweep = raw.get("sweep", "radial")
    if sweep not in ("radial", "wavelength"):
        raise ConfigError(f"sweep must be 'radial' or 'wavelength', got {sweep!r}")
    if "sphere" not in raw:
        raise ConfigError("config needs a 'sphere' entry (preset name or shell spec)")
    orientations = raw.get("orientations")
    if orientations is None:
        single = raw.get("orientation")
        orientations = (single,) if single else DEFAULT_ORIENTATIONS
    for o in orientations:
        if o not in (*model.ORIENTATIONS, "average"):
            raise ConfigError(f"unknown orientation {o!r}")
    if sweep == "wavelength":
        if raw.get("r_over_rs") is None:
            raise ConfigError("wavelength sweep needs 'r_over_rs'")
        if not raw.get("wavelengths_nm"):
            raise ConfigError("wavelength sweep needs a 'wavelengths_nm' list")
    l_max = raw.get("l_max", 60)
    transfer.check_l_max(l_max)
    try:
        cfg = SweepConfig(
            sphere_spec=raw["sphere"],
            sweep=sweep,
            wavelength_nm=float(raw.get("wavelength_nm", 595.0)),
            grid=raw.get("grid", "default"),
            orientations=tuple(orientations),
            r_over_rs=raw.get("r_over_rs"),
            wavelengths_nm=tuple(float(w) for w in raw.get("wavelengths_nm", ())),
            l_max=l_max,
            interface_margin=float(raw.get("interface_margin", MARGIN_FRACTION)),
            out=raw.get("out"),
            format=raw.get("format", "csv"),
            plot_dir=raw.get("plot_dir"),
            workers=int(raw.get("workers", 1)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config value: {exc}") from exc
    if cfg.workers < 1:
        raise ConfigError(f"workers must be >= 1, got {cfg.workers}")
    _require_finite("wavelength_nm", cfg.wavelength_nm, *cfg.wavelengths_nm)
    if "quadrature_rtol" in raw:  # accepted for older configs; the engine has no quadrature
        _require_finite("quadrature_rtol", raw["quadrature_rtol"])
    if cfg.r_over_rs is not None:
        _require_finite("r_over_rs", cfg.r_over_rs)
    if isinstance(cfg.grid, dict) and "linspace" in cfg.grid:
        _check_linspace(cfg.grid["linspace"])
    elif isinstance(cfg.grid, (list, tuple)):
        _require_finite("grid", *cfg.grid)
    if cfg.format not in ("csv", "plot"):
        raise ConfigError(f"format must be 'csv' or 'plot', got {cfg.format!r}")
    return cfg


def _require_finite(name, *values):
    """Positions and wavelengths must be finite numbers before any row runs."""
    for v in values:
        try:
            ok = math.isfinite(float(v))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{name} must be numeric, got {v!r}") from exc
        if not ok:
            raise DomainError(f"{name} must be finite, got {v!r}")


def _check_linspace(spec):
    if not isinstance(spec, (list, tuple)) or len(spec) != 3:
        raise ConfigError(f"linspace grid needs [lo, hi, n], got {spec!r}")
    lo, hi, n = spec
    _require_finite("linspace bound", lo, hi)
    if isinstance(n, bool) or not isinstance(n, (int, float)) or not float(n).is_integer() or n < 1:
        raise ConfigError(f"linspace point count must be an integer >= 1, got {n!r}")


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(raw)


def _material_from_spec(spec):
    if isinstance(spec, str):
        return materials.material_by_name(spec)
    if isinstance(spec, dict):
        mu = float(spec.get("mu", 1.0))
        if "n" in spec:
            n = spec["n"]
            n = complex(n[0], n[1]) if isinstance(n, (list, tuple)) else complex(n)
            return materials.constant_index(n, mu=mu)
        if "table" in spec:
            path = spec["table"]
            base = os.environ.get("NANOSHELL_MATERIAL_DIR")
            if base and not os.path.isabs(path):
                path = os.path.join(base, path)
            return materials.load_index_table(path, mu=mu)
    raise ConfigError(f"cannot interpret material spec {spec!r}")


def sphere_from_spec(spec):
    if isinstance(spec, str):
        return model.preset(spec)
    if isinstance(spec, dict) and "shells" in spec:
        shells = [(r, _material_from_spec(m)) for r, m in spec["shells"]]
        ambient = _material_from_spec(spec.get("ambient", "water"))
        return model.build_sphere(shells, ambient)
    raise ConfigError(f"cannot interpret sphere spec {spec!r}")


def _nudge(vals, sphere, margin):
    rs = sphere.outer_radius_nm
    out = []
    for g in vals:
        r = g * rs
        for R in sphere.radii:
            if abs(r - R) < margin * rs:
                g = (R + NUDGE_FRACTION * rs) / rs
                break
        out.append(g)
    return out


def default_grid(sphere, n_points=DEFAULT_GRID_POINTS, r_max=DEFAULT_GRID_MAX,
                 margin=MARGIN_FRACTION):
    """Uniform r/r_s grid with interface-adjacent points nudged outward."""
    return _nudge(list(np.linspace(0.0, r_max, n_points)), sphere, margin)


def _lossless_hosts(vals, sphere, wavelength_nm):
    """Drop the points of an implicit grid whose host region absorbs at the
    sweep wavelength (no emitter rate is defined there); report the count."""
    rs = sphere.outer_radius_nm
    kept = [
        g for g in vals
        if not model.region_absorbs(sphere, model.locate_region(sphere, g * rs), wavelength_nm)
    ]
    if len(kept) < len(vals):
        print(
            f"note: skipped {len(vals) - len(kept)} of {len(vals)} grid points whose "
            f"host region absorbs at {wavelength_nm:g} nm",
            file=sys.stderr,
        )
    return kept


def resolve_grid(cfg, sphere):
    """r/r_s values of a radial sweep, every one checked before any row runs.

    Default and linspace grids skip points inside absorbing shells; an
    explicit grid is taken as written and any invalid point is an error.
    """
    grid = cfg.grid
    if grid == "default" or grid is None:
        vals = default_grid(sphere, margin=cfg.interface_margin)
        return _lossless_hosts(vals, sphere, cfg.wavelength_nm)
    if isinstance(grid, dict) and "linspace" in grid:
        lo, hi, n = grid["linspace"]
        vals = [float(v) for v in np.linspace(float(lo), float(hi), int(n))]
        vals = _nudge(vals, sphere, cfg.interface_margin)
        return _lossless_hosts(vals, sphere, cfg.wavelength_nm)
    if isinstance(grid, (list, tuple)):
        vals = [float(v) for v in grid]
        rs = sphere.outer_radius_nm
        for v in vals:
            if v < 0:
                raise ConfigError(f"grid point {v} is negative")
            margin = model.interface_margin_nm(sphere, v * rs)
            if margin < cfg.interface_margin * rs and v != 0.0:
                raise ConfigError(
                    f"grid point r/r_s = {v} violates the interface-exclusion "
                    f"margin of {cfg.interface_margin} * r_s"
                )
            dip = model.DipoleSource(v * rs, model.RADIAL, cfg.wavelength_nm)
            model.validate_dipole(sphere, dip)
        return vals
    raise ConfigError(f"cannot interpret grid {grid!r}")


@dataclass(frozen=True)
class ResultRow:
    r_over_rs: float
    wavelength_nm: float
    orientation: str
    result: model.SpectroResult


@dataclass
class ResultTable:
    rows: list = field(default_factory=list)
    config: SweepConfig | None = None

    def to_csv(self):
        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows:
            r = row.result
            vals = (
                _fmt(row.r_over_rs),
                _fmt(row.wavelength_nm),
                row.orientation,
                _fmt(r.shift_norm),
                _fmt(r.wt_norm),
                _fmt(r.wrad_norm),
                _fmt(r.wohm_norm),
                _fmt(r.fluorescence_yield),
                _fmt(r.photostability),
                str(r.l_used),
                "true" if r.converged else "false",
            )
            lines.append(",".join(vals))
        return "\n".join(lines) + "\n"


def _fmt(x):
    return f"{x:.12g}"


# module-level worker so tasks pickle cleanly into a process pool
def _eval_task(args):
    sphere_spec, r_nm, wavelength_nm, need, l_max = args
    sphere = sphere_from_spec(sphere_spec)
    try:
        if need == "both":
            res = spectro.evaluate_orientations(sphere, r_nm, wavelength_nm, l_max)
            return {k: res[k] for k in (*model.ORIENTATIONS, "average")}
        dip = model.DipoleSource(r_nm, need, wavelength_nm)
        return {need: spectro.evaluate(sphere, dip, l_max)}
    except NanoshellError as exc:
        raise annotate(
            exc, f"while evaluating row r={r_nm:.6g} nm, lambda={wavelength_nm:.6g} nm"
        )


def _run_points(cfg, points):
    """points: list of (r_over_rs, r_nm, wavelength) evaluated in order."""
    need = "both" if ("average" in cfg.orientations or
                      set(model.ORIENTATIONS) <= set(cfg.orientations)) else cfg.orientations[0]
    tasks = [
        (cfg.sphere_spec, r_nm, wl, need, cfg.l_max)
        for (_, r_nm, wl) in points
    ]
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            evaluated = list(pool.map(_eval_task, tasks, chunksize=1))
    else:
        evaluated = [_eval_task(t) for t in tasks]
    rows = []
    for (r_rs, _, wl), res in zip(points, evaluated):
        for orientation in cfg.orientations:
            rows.append(ResultRow(r_rs, wl, orientation, res[orientation]))
    return rows


def run_radial_sweep(cfg):
    """One row per (r/r_s, orientation), ordered by radius then orientation."""
    sphere = sphere_from_spec(cfg.sphere_spec)
    grid = resolve_grid(cfg, sphere)
    rs = sphere.outer_radius_nm
    points = [(g, g * rs, cfg.wavelength_nm) for g in grid]
    table = ResultTable(config=cfg)
    table.rows = _run_points(cfg, points)
    return table


def run_wavelength_sweep(cfg):
    """One row per wavelength at a fixed radius and orientation set."""
    sphere = sphere_from_spec(cfg.sphere_spec)
    rs = sphere.outer_radius_nm
    r_nm = cfg.r_over_rs * rs
    points = [(cfg.r_over_rs, r_nm, wl) for wl in cfg.wavelengths_nm]
    table = ResultTable(config=cfg)
    table.rows = _run_points(cfg, points)
    return table


def run_sweep(cfg):
    return run_radial_sweep(cfg) if cfg.sweep == "radial" else run_wavelength_sweep(cfg)


def write_outputs(table, cfg):
    """Write CSV and/or per-quantity plot files; all-or-nothing.

    format="plot" routes `out` to a plot directory instead of a CSV file.
    """
    if cfg.format == "plot":
        target = cfg.plot_dir or cfg.out
        if target:
            write_plot_files(table, target)
        return
    if cfg.out:
        text = table.to_csv()
        tmp = cfg.out + ".tmp"
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, cfg.out)
    if cfg.plot_dir:
        write_plot_files(table, cfg.plot_dir)


_PLOT_QUANTITIES = {
    "shift": "shift_norm",
    "wt": "wt_norm",
    "wrad": "wrad_norm",
    "wohm": "wohm_norm",
    "yield": "fluorescence_yield",
    "photostability": "photostability",
}


def write_plot_files(table, plot_dir):
    """Two-column whitespace-separated files per quantity per orientation."""
    os.makedirs(plot_dir, exist_ok=True)
    wavelength_sweep = table.config is not None and table.config.sweep == "wavelength"
    by_orientation = {}
    for row in table.rows:
        by_orientation.setdefault(row.orientation, []).append(row)
    for orientation, rows in by_orientation.items():
        for name, attr in _PLOT_QUANTITIES.items():
            path = os.path.join(plot_dir, f"{name}_{orientation}.dat")
            with open(path, "w", encoding="utf-8") as fh:
                for row in rows:
                    x = row.wavelength_nm if wavelength_sweep else row.r_over_rs
                    fh.write(f"{_fmt(x)} {_fmt(getattr(row.result, attr))}\n")


@dataclass
class ConvergenceReport:
    l_values: list
    wt_partial: list
    wrad_partial: list
    shift_partial: list
    wt_order_8digits: int | None
    wrad_order_8digits: int | None

    def lines(self):
        out = [f"{'l':>4s} {'wt_partial':>18s} {'wrad_partial':>18s} {'shift_partial':>18s}"]
        for l, wt, wr, sh in zip(self.l_values, self.wt_partial, self.wrad_partial,
                                 self.shift_partial):
            out.append(f"{l:4d} {wt:18.10e} {wr:18.10e} {sh:18.10e}")
        out.append(
            f"# wt settles to 8 digits at l = {self.wt_order_8digits}; "
            f"wrad at l = {self.wrad_order_8digits} (None = not by l_max)"
        )
        return out


def _settle_order(partial, tol=1e-8):
    """First order from which every later partial sum stays within tol of
    the final value (None if never)."""
    arr = np.asarray(partial)
    final = arr[-1]
    scale = abs(final)
    if scale == 0.0:
        return 1
    dev = np.abs(arr - final) / scale
    bad = np.nonzero(dev > tol)[0]
    if bad.size == 0:
        return 1
    order = int(bad[-1]) + 2  # first settled l (orders are 1-based)
    return order if order <= len(arr) else None


def convergence_report(sphere, dipole, l_max=60):
    """Per-order partial sums of the normalized rates and shift."""
    coeffs = transfer.solve_dipole_fields(sphere, dipole, l_max)
    wt, shift, wrad, _ = spectro._partial_sums(coeffs)
    return ConvergenceReport(
        l_values=list(range(1, l_max + 1)),
        wt_partial=[float(v) for v in wt],
        wrad_partial=[float(v) for v in wrad],
        shift_partial=[float(v) for v in shift],
        wt_order_8digits=_settle_order(wt),
        wrad_order_8digits=_settle_order(wrad),
    )
